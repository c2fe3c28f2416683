//! Kernel process, thread and scheduler objects.
//!
//! These are the bookkeeping structures the IPC and OS-structure simulations
//! schedule against. They carry no timing themselves — costs come from the
//! measured primitives.

use osarch_mem::Asid;
use std::collections::VecDeque;
use std::fmt;

/// A process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u32);

/// A kernel-thread identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid:{}", self.0)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tid:{}", self.0)
    }
}

/// Scheduling state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadState {
    /// Runnable, waiting for a processor.
    Ready,
    /// Currently executing.
    Running,
    /// Waiting on an event (message, page, lock).
    Blocked,
}

/// A kernel thread.
#[derive(Debug, Clone)]
pub struct Thread {
    /// Identifier.
    pub id: ThreadId,
    /// Owning process.
    pub process: ProcessId,
    /// Scheduling state.
    pub state: ThreadState,
}

/// A process: an address space plus its threads.
#[derive(Debug, Clone)]
pub struct Process {
    /// Identifier.
    pub id: ProcessId,
    /// The address space the process runs in.
    pub asid: Asid,
    /// Threads belonging to the process.
    pub threads: Vec<ThreadId>,
}

/// A round-robin scheduler that counts the two kinds of switch Table 7
/// distinguishes: thread context switches, and the subset that also change
/// address spaces.
///
/// # Example
///
/// ```
/// use osarch_kernel::{Scheduler, ProcessId};
/// use osarch_mem::Asid;
///
/// let mut sched = Scheduler::new();
/// let p1 = sched.spawn_process(Asid(1));
/// let t1 = sched.spawn_thread(p1);
/// let p2 = sched.spawn_process(Asid(2));
/// let t2 = sched.spawn_thread(p2);
/// sched.ready(t1);
/// sched.ready(t2);
/// assert_eq!(sched.switch_to_next(), Some(t1));
/// assert_eq!(sched.switch_to_next(), Some(t2));
/// assert_eq!(sched.address_space_switches(), 2); // idle -> t1, then t1 -> t2
/// ```
#[derive(Debug, Clone, Default)]
pub struct Scheduler {
    processes: Vec<Process>,
    threads: Vec<Thread>,
    run_queue: VecDeque<ThreadId>,
    current: Option<ThreadId>,
    thread_switches: u64,
    space_switches: u64,
}

impl Scheduler {
    /// An empty scheduler.
    #[must_use]
    pub fn new() -> Scheduler {
        Scheduler::default()
    }

    /// Create a process over `asid`.
    pub fn spawn_process(&mut self, asid: Asid) -> ProcessId {
        let id = ProcessId(self.processes.len() as u32);
        self.processes.push(Process {
            id,
            asid,
            threads: Vec::new(),
        });
        id
    }

    /// Create a blocked thread in `process`.
    ///
    /// # Panics
    ///
    /// Panics if `process` does not exist.
    pub fn spawn_thread(&mut self, process: ProcessId) -> ThreadId {
        let id = ThreadId(self.threads.len() as u32);
        self.threads.push(Thread {
            id,
            process,
            state: ThreadState::Blocked,
        });
        self.processes
            .get_mut(process.0 as usize)
            .expect("process must exist")
            .threads
            .push(id);
        id
    }

    /// Move a thread to the ready queue.
    pub fn ready(&mut self, thread: ThreadId) {
        let t = &mut self.threads[thread.0 as usize];
        if t.state != ThreadState::Ready && t.state != ThreadState::Running {
            t.state = ThreadState::Ready;
            self.run_queue.push_back(thread);
        }
    }

    /// Block the current thread.
    pub fn block_current(&mut self) {
        if let Some(current) = self.current.take() {
            self.threads[current.0 as usize].state = ThreadState::Blocked;
        }
    }

    /// Preempt or yield: dispatch the next ready thread, counting a thread
    /// switch, and an address-space switch when the incoming thread belongs
    /// to a different address space. Returns the new current thread.
    pub fn switch_to_next(&mut self) -> Option<ThreadId> {
        let next = self.run_queue.pop_front()?;
        let next_asid = self.asid_of(next);
        if let Some(prev) = self.current {
            let t = &mut self.threads[prev.0 as usize];
            if t.state == ThreadState::Running {
                t.state = ThreadState::Ready;
                self.run_queue.push_back(prev);
            }
            self.thread_switches += 1;
            if self.asid_of(prev) != next_asid {
                self.space_switches += 1;
            }
        } else {
            self.thread_switches += 1;
            self.space_switches += 1; // dispatch from idle installs a space
        }
        self.threads[next.0 as usize].state = ThreadState::Running;
        self.current = Some(next);
        Some(next)
    }

    fn asid_of(&self, thread: ThreadId) -> Asid {
        let pid = self.threads[thread.0 as usize].process;
        self.processes[pid.0 as usize].asid
    }

    /// The running thread, if any.
    #[must_use]
    pub fn current(&self) -> Option<ThreadId> {
        self.current
    }

    /// Total thread context switches performed.
    #[must_use]
    pub fn thread_switches(&self) -> u64 {
        self.thread_switches
    }

    /// Thread switches that also changed address spaces.
    #[must_use]
    pub fn address_space_switches(&self) -> u64 {
        self.space_switches
    }

    /// Look up a thread.
    #[must_use]
    pub fn thread(&self, id: ThreadId) -> Option<&Thread> {
        self.threads.get(id.0 as usize)
    }

    /// Look up a process.
    #[must_use]
    pub fn process(&self, id: ProcessId) -> Option<&Process> {
        self.processes.get(id.0 as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_process_setup() -> (Scheduler, ThreadId, ThreadId) {
        let mut sched = Scheduler::new();
        let p1 = sched.spawn_process(Asid(1));
        let p2 = sched.spawn_process(Asid(2));
        let t1 = sched.spawn_thread(p1);
        let t2 = sched.spawn_thread(p2);
        sched.ready(t1);
        sched.ready(t2);
        (sched, t1, t2)
    }

    #[test]
    fn round_robin_alternates() {
        let (mut sched, t1, t2) = two_process_setup();
        assert_eq!(sched.switch_to_next(), Some(t1));
        assert_eq!(sched.switch_to_next(), Some(t2));
        assert_eq!(sched.switch_to_next(), Some(t1));
    }

    #[test]
    fn same_space_switches_do_not_count_as_space_switches() {
        let mut sched = Scheduler::new();
        let p = sched.spawn_process(Asid(1));
        let t1 = sched.spawn_thread(p);
        let t2 = sched.spawn_thread(p);
        sched.ready(t1);
        sched.ready(t2);
        sched.switch_to_next(); // idle -> t1 (installs space)
        sched.switch_to_next(); // t1 -> t2 (same space)
        assert_eq!(sched.thread_switches(), 2);
        assert_eq!(sched.address_space_switches(), 1);
    }

    #[test]
    fn cross_space_switches_count_both() {
        let (mut sched, _, _) = two_process_setup();
        sched.switch_to_next();
        sched.switch_to_next();
        sched.switch_to_next();
        assert_eq!(sched.thread_switches(), 3);
        assert_eq!(sched.address_space_switches(), 3);
    }

    #[test]
    fn blocked_thread_leaves_the_queue() {
        let (mut sched, t1, t2) = two_process_setup();
        sched.switch_to_next();
        sched.block_current();
        assert_eq!(sched.switch_to_next(), Some(t2));
        // t1 is blocked; only t2 cycles.
        assert_eq!(sched.switch_to_next(), None);
        sched.ready(t1);
        assert_eq!(sched.switch_to_next(), Some(t1));
    }

    #[test]
    fn ready_is_idempotent() {
        let (mut sched, t1, _) = two_process_setup();
        sched.ready(t1);
        sched.ready(t1);
        assert_eq!(sched.run_queue.len(), 2, "no duplicate queue entries");
    }

    #[test]
    fn empty_queue_returns_none() {
        let mut sched = Scheduler::new();
        assert_eq!(sched.switch_to_next(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ProcessId(3).to_string(), "pid:3");
        assert_eq!(ThreadId(9).to_string(), "tid:9");
    }
}
