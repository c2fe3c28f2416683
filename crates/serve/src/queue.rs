//! A bounded MPMC queue with explicit backpressure and shutdown.
//!
//! In the event-driven core this queue plays two roles: the accept
//! thread `try_push`es admitted connections into a per-loop *handoff*
//! (drained nonblockingly with [`BoundedQueue::try_pop`] after a waker
//! nudge), and data-query misses travel through the bounded compute
//! *job queue* that the offload pool `pop`s (blocking until work or
//! close). In both roles a full queue fails the push *immediately* and
//! the server answers "busy" instead of letting unbounded work pile up
//! — bounded queues are the serving-layer version of the paper's point
//! that unmanaged fixed overheads swamp a system under load.

use crate::lock;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded queue: `try_push` fails when full, `pop` blocks until an
/// item arrives or the queue closes.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Push without blocking. Returns the item back when the queue is
    /// full (backpressure) or closed, so the caller can reject it.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut inner = lock(&self.inner);
        if inner.closed || inner.items.len() >= self.capacity {
            return Err(item);
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Pop the oldest item, blocking while the queue is empty. `None`
    /// means the queue closed and drained: the worker should exit.
    pub fn pop(&self) -> Option<T> {
        let mut inner = lock(&self.inner);
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Pop without blocking: `None` when the queue is currently empty,
    /// whether or not it is closed. Event loops drain their handoff
    /// with this after a waker nudge — they must never block here.
    pub fn try_pop(&self) -> Option<T> {
        lock(&self.inner).items.pop_front()
    }

    /// Close the queue: pending items still drain, new pushes fail, and
    /// every blocked `pop` wakes.
    pub fn close(&self) {
        let mut inner = lock(&self.inner);
        inner.closed = true;
        drop(inner);
        self.ready.notify_all();
    }

    /// Items currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.inner).items.len()
    }

    /// Whether the queue is currently empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_queue_rejects_instead_of_blocking() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
    }

    #[test]
    fn try_pop_never_blocks() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_pop(), None::<i32>);
        q.try_push(7).unwrap();
        assert_eq!(q.try_pop(), Some(7));
        assert_eq!(q.try_pop(), None);
        q.close();
        assert_eq!(q.try_pop(), None, "closed and empty is still just None");
    }

    #[test]
    fn close_wakes_blocked_workers_and_drains() {
        let q = BoundedQueue::new(4);
        q.try_push(10).unwrap();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let mut seen = Vec::new();
                while let Some(item) = q.pop() {
                    seen.push(item);
                }
                seen
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            q.close();
            assert_eq!(handle.join().unwrap(), vec![10]);
        });
        assert_eq!(q.try_push(11), Err(11), "closed queue rejects pushes");
        assert!(q.is_empty());
    }
}
