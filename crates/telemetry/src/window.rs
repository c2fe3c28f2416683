//! Time-windowed metric aggregation: 1-second windows, 60-second
//! retention, rotated on a caller-supplied clock.
//!
//! The clock is always *relative* (seconds since the server started),
//! passed in by the recording site — no wall-clock read happens inside
//! this module, so recorded values are a pure function of what the
//! caller measured. One [`WindowedMetrics`] lives behind a mutex per
//! loop shard; the loop thread is the only frequent writer, so the lock
//! is effectively uncontended and histograms merged across shards stay
//! exact (every record lands in exactly one shard's current window).

use crate::hist::Histogram;
use std::collections::VecDeque;

/// Window retention horizon in seconds.
pub const RETENTION_S: u64 = 60;

/// One 1-second aggregation window.
#[derive(Debug)]
pub struct Window {
    /// Window start, in whole seconds since the server started.
    pub epoch_s: u64,
    /// Per-op service-time histograms (microseconds), lazily allocated:
    /// an op that never fires in a window costs nothing.
    pub per_op: Vec<Option<Box<Histogram>>>,
    /// Event-loop iteration busy time (microseconds per wake).
    pub loop_lag_us: Histogram,
    /// Compute-offload queue depth, sampled each housekeeping tick.
    pub queue_depth: Histogram,
    /// Recycled buffer-arena occupancy, sampled each housekeeping tick.
    pub arena_buffers: Histogram,
}

impl Window {
    fn new(epoch_s: u64, ops: usize) -> Window {
        Window {
            epoch_s,
            per_op: (0..ops).map(|_| None).collect(),
            loop_lag_us: Histogram::new(),
            queue_depth: Histogram::new(),
            arena_buffers: Histogram::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.per_op.iter().all(Option::is_none)
            && self.loop_lag_us.is_empty()
            && self.queue_depth.is_empty()
            && self.arena_buffers.is_empty()
    }
}

/// One loop shard's windowed metrics: the current 1 s window plus up to
/// [`RETENTION_S`] seconds of closed windows.
#[derive(Debug)]
pub struct WindowedMetrics {
    ops: usize,
    current: Window,
    retained: VecDeque<Window>,
}

impl WindowedMetrics {
    /// A fresh shard tracking `ops` operation slots.
    #[must_use]
    pub fn new(ops: usize) -> WindowedMetrics {
        WindowedMetrics {
            ops,
            current: Window::new(0, ops),
            retained: VecDeque::new(),
        }
    }

    /// Close windows older than `now_s` and prune past retention. Called
    /// by every record path, so a quiet shard still rotates on its next
    /// event (and the snapshot path rotates explicitly).
    pub fn roll(&mut self, now_s: u64) {
        if self.current.epoch_s == now_s {
            return;
        }
        if self.current.epoch_s > now_s {
            // A caller raced the second boundary backwards (two clock
            // reads straddling it); keep recording into the newer window.
            return;
        }
        let closed = std::mem::replace(&mut self.current, Window::new(now_s, self.ops));
        if !closed.is_empty() {
            self.retained.push_back(closed);
        }
        let horizon = now_s.saturating_sub(RETENTION_S);
        while self
            .retained
            .front()
            .is_some_and(|window| window.epoch_s < horizon)
        {
            self.retained.pop_front();
        }
    }

    /// Record one request's service time for op slot `op`.
    pub fn record_op(&mut self, op: usize, service_us: u64, now_s: u64) {
        self.roll(now_s);
        self.current.per_op[op]
            .get_or_insert_with(|| Box::new(Histogram::new()))
            .record(service_us);
    }

    /// Record one event-loop iteration's busy time.
    pub fn record_loop_lag(&mut self, busy_us: u64, now_s: u64) {
        self.roll(now_s);
        self.current.loop_lag_us.record(busy_us);
    }

    /// Sample the compute-offload queue depth.
    pub fn record_queue_depth(&mut self, depth: u64, now_s: u64) {
        self.roll(now_s);
        self.current.queue_depth.record(depth);
    }

    /// Sample the buffer-arena occupancy.
    pub fn record_arena(&mut self, buffers: u64, now_s: u64) {
        self.roll(now_s);
        self.current.arena_buffers.record(buffers);
    }

    /// Merge everything inside the retention horizon (the current window
    /// plus retained ones) into the accumulators. `per_op` must have the
    /// shard's op count; every histogram aggregates across shards exactly.
    pub fn merge_into(
        &mut self,
        now_s: u64,
        per_op: &mut [Histogram],
        loop_lag: &mut Histogram,
        queue_depth: &mut Histogram,
        arena: &mut Histogram,
    ) {
        self.roll(now_s);
        for window in self.retained.iter().chain(std::iter::once(&self.current)) {
            for (slot, hist) in window.per_op.iter().enumerate() {
                if let Some(hist) = hist {
                    per_op[slot].merge(hist);
                }
            }
            loop_lag.merge(&window.loop_lag_us);
            queue_depth.merge(&window.queue_depth);
            arena.merge(&window.arena_buffers);
        }
    }

    /// Number of closed windows currently retained (test hook).
    #[cfg(test)]
    #[must_use]
    pub fn retained_windows(&self) -> usize {
        self.retained.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn merged(metrics: &mut WindowedMetrics, now_s: u64) -> (Vec<Histogram>, Histogram) {
        let mut per_op = vec![Histogram::new(); 2];
        let mut lag = Histogram::new();
        let mut depth = Histogram::new();
        let mut arena = Histogram::new();
        metrics.merge_into(now_s, &mut per_op, &mut lag, &mut depth, &mut arena);
        (per_op, lag)
    }

    #[test]
    fn rotation_keys_on_the_supplied_clock() {
        let mut metrics = WindowedMetrics::new(2);
        metrics.record_op(0, 100, 0);
        metrics.record_op(0, 200, 1);
        assert_eq!(metrics.retained_windows(), 1);
        let (per_op, _) = merged(&mut metrics, 1);
        assert_eq!(per_op[0].count(), 2);
    }

    #[test]
    fn retention_prunes_old_windows() {
        let mut metrics = WindowedMetrics::new(1);
        metrics.record_op(0, 10, 0);
        metrics.record_op(0, 20, 30);
        // 30 s later both windows are inside the horizon.
        let (per_op, _) = merged(&mut metrics, 31);
        assert_eq!(per_op[0].count(), 2);
        // 100 s later only the newest survives (epoch 31+ horizon).
        metrics.record_op(0, 30, 100);
        let (per_op, _) = merged(&mut metrics, 100);
        assert_eq!(per_op[0].count(), 1);
        assert_eq!(per_op[0].max(), 30);
    }

    #[test]
    fn gauges_aggregate_across_windows() {
        let mut metrics = WindowedMetrics::new(1);
        metrics.record_loop_lag(40, 5);
        metrics.record_loop_lag(70, 6);
        metrics.record_op(0, 9, 6);
        let (per_op, lag) = merged(&mut metrics, 6);
        assert_eq!(lag.count(), 2);
        assert_eq!(lag.max(), 70);
        assert_eq!(per_op[0].count(), 1);
    }

    #[test]
    fn backwards_clock_reads_do_not_panic_or_lose_data() {
        let mut metrics = WindowedMetrics::new(1);
        metrics.record_op(0, 10, 7);
        // A racing caller computed "now" just before the boundary.
        metrics.record_op(0, 20, 6);
        let (per_op, _) = merged(&mut metrics, 7);
        assert_eq!(per_op[0].count(), 2);
    }

    #[test]
    fn empty_windows_are_not_retained() {
        let mut metrics = WindowedMetrics::new(1);
        for now in 0..10 {
            metrics.roll(now);
        }
        assert_eq!(metrics.retained_windows(), 0);
    }
}
