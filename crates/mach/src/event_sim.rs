//! Discrete-event simulation of the small-kernel structure.
//!
//! The aggregate model in [`crate::simulate`] applies structural
//! *multipliers* (≈2 syscalls and ≈1.6 address-space switches per service
//! RPC). This module derives those multipliers from mechanism: an
//! application process and user-level server processes scheduled by the
//! kernel scheduler, with every RPC actually blocking the client, waking
//! the server, and switching address spaces through
//! [`osarch_kernel::Scheduler`].

use crate::costs::EventCosts;
use crate::simulate::DecompositionModel;
use osarch_kernel::{Scheduler, ThreadId};
use osarch_mem::Asid;
use osarch_trace::{Category, Event, NullTracer, SplitMix64, Tracer, GAMMA};
use osarch_workloads::Workload;

/// Trace pids for the three simulated processes.
const APP_PID: u32 = 1;
const UNIX_PID: u32 = 2;
const CACHE_PID: u32 = 3;

/// Tracing context for the event-driven run: a tracer plus a nanosecond
/// tick clock that advances by each operation's measured cost. Spans ride
/// [`Category::Mach`] with the pid of the process doing the work.
struct MachClock<'a, T: Tracer> {
    tracer: &'a mut T,
    now_ns: u64,
    syscall_ns: u64,
    as_switch_ns: u64,
    thread_switch_ns: u64,
}

impl<'a, T: Tracer> MachClock<'a, T> {
    fn new(costs: Option<&EventCosts>, tracer: &'a mut T) -> MachClock<'a, T> {
        let ns = |us: f64| (us * 1000.0).round() as u64;
        MachClock {
            tracer,
            now_ns: 0,
            syscall_ns: costs.map_or(0, |c| ns(c.syscall_us)),
            as_switch_ns: costs.map_or(0, |c| ns(c.as_switch_us)),
            thread_switch_ns: costs.map_or(0, |c| ns(c.thread_switch_us)),
        }
    }

    /// Record a span of `dur_ns` on `pid` and advance the clock past it.
    fn span(&mut self, name: &'static str, pid: u32, dur_ns: u64) {
        if self.tracer.enabled() {
            self.tracer
                .record(Event::complete(name, Category::Mach, self.now_ns, dur_ns).on(pid, 0));
        }
        self.now_ns += dur_ns;
    }
}

/// Counters produced by the event-driven run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventSimResult {
    /// Service requests replayed.
    pub requests: u64,
    /// System calls performed (message sends/receives).
    pub syscalls: u64,
    /// Kernel thread switches the scheduler performed.
    pub thread_switches: u64,
    /// The subset that changed address spaces.
    pub as_switches: u64,
}

impl EventSimResult {
    /// System calls per service request.
    #[cfg(test)]
    #[must_use]
    pub fn syscalls_per_request(&self) -> f64 {
        self.syscalls as f64 / self.requests as f64
    }

    /// Address-space switches per service request.
    #[must_use]
    pub fn as_switches_per_request(&self) -> f64 {
        self.as_switches as f64 / self.requests as f64
    }
}

/// The simulated small-kernel machine room: the application, the Unix
/// server, and the file cache manager, each with two threads (the servers
/// are multithreaded, as the paper notes).
#[derive(Debug)]
struct MachineRoom {
    sched: Scheduler,
    app: ThreadId,
    unix: [ThreadId; 2],
    cache: [ThreadId; 2],
}

impl MachineRoom {
    fn new() -> MachineRoom {
        let mut sched = Scheduler::new();
        let app_pid = sched.spawn_process(Asid(1));
        let unix_pid = sched.spawn_process(Asid(2));
        let cache_pid = sched.spawn_process(Asid(3));
        let app = sched.spawn_thread(app_pid);
        let unix = [sched.spawn_thread(unix_pid), sched.spawn_thread(unix_pid)];
        let cache = [sched.spawn_thread(cache_pid), sched.spawn_thread(cache_pid)];
        sched.ready(app);
        sched.switch_to_next();
        MachineRoom {
            sched,
            app,
            unix,
            cache,
        }
    }

    /// One local RPC: the client blocks on its send, the server thread is
    /// dispatched, handles the request, replies, and the client resumes.
    /// Returns the number of syscalls performed (send + receive-reply on
    /// the client, receive + reply-send on the server are folded into the
    /// two message-primitive invocations the paper counts).
    fn rpc<T: Tracer>(
        &mut self,
        server_threads: [ThreadId; 2],
        which: usize,
        syscalls: &mut u64,
        clock: &mut MachClock<'_, T>,
        client_pid: u32,
        server_pid: u32,
    ) {
        let rpc_start = clock.now_ns;
        let client = self.sched.current().expect("a thread is running");
        // Client sends the request (one syscall) and blocks for the reply.
        *syscalls += 1;
        clock.span("msg send", client_pid, clock.syscall_ns);
        self.sched.ready(server_threads[which % 2]);
        self.sched.block_current();
        self.dispatch(clock, server_pid);
        // Server handles the request and sends the reply (one syscall),
        // blocking for its next request.
        *syscalls += 1;
        clock.span("msg reply", server_pid, clock.syscall_ns);
        self.sched.ready(client);
        self.sched.block_current();
        self.dispatch(clock, client_pid);
        if clock.tracer.enabled() {
            let dur = clock.now_ns - rpc_start;
            clock
                .tracer
                .record(Event::complete("rpc", Category::Mach, rpc_start, dur).on(client_pid, 0));
        }
    }

    /// Dispatch the next ready thread, recording the switch as an
    /// address-space switch or a same-space thread switch on the process
    /// being dispatched.
    fn dispatch<T: Tracer>(&mut self, clock: &mut MachClock<'_, T>, to_pid: u32) {
        let crossings = self.sched.address_space_switches();
        self.sched.switch_to_next();
        if self.sched.address_space_switches() > crossings {
            clock.span("address-space switch", to_pid, clock.as_switch_ns);
        } else {
            clock.span("thread switch", to_pid, clock.thread_switch_ns);
        }
    }
}

/// Replay `requests` service requests of `workload` through the scheduler,
/// seeded for reproducibility. File-type requests (the fraction implied by
/// the workload's `rpcs_per_service`) make a nested RPC to the cache
/// manager, exactly as the paper describes for open/close.
#[must_use]
pub fn simulate_events(workload: &Workload, requests: u64, seed: u64) -> EventSimResult {
    let mut null = NullTracer;
    let mut clock = MachClock::new(None, &mut null);
    run_events(workload, requests, seed, &mut clock)
}

/// [`simulate_events`] with a tracer attached: every RPC, message-send /
/// reply syscall and scheduler dispatch becomes a [`Category::Mach`] span
/// on the pid of the process doing the work (1 = application, 2 = Unix
/// server, 3 = file cache manager). Timestamps are nanosecond ticks
/// derived from `costs` (µs × 1000). The scheduler walk — and therefore
/// the returned counters — is identical to the untraced run with the same
/// seed.
#[must_use]
pub fn simulate_events_traced<T: Tracer>(
    workload: &Workload,
    requests: u64,
    seed: u64,
    costs: &EventCosts,
    tracer: &mut T,
) -> EventSimResult {
    let mut clock = MachClock::new(Some(costs), tracer);
    run_events(workload, requests, seed, &mut clock)
}

fn run_events<T: Tracer>(
    workload: &Workload,
    requests: u64,
    seed: u64,
    clock: &mut MachClock<'_, T>,
) -> EventSimResult {
    let mut room = MachineRoom::new();
    let mut rng = SplitMix64::new(seed ^ GAMMA);
    let mut syscalls = 0u64;
    // rpcs_per_service = 1 + P(nested cache-manager RPC).
    let nested_probability = (workload.rpcs_per_service - 1.0).clamp(0.0, 1.0);
    for request in 0..requests {
        debug_assert_eq!(room.sched.current(), Some(room.app));
        room.rpc(
            room.unix,
            request as usize,
            &mut syscalls,
            clock,
            APP_PID,
            UNIX_PID,
        );
        if rng.chance(nested_probability) {
            // The Unix server's work requires the file cache manager. From
            // the application's point of view this nests: the app is
            // already blocked; the server becomes the client.
            // We model it as a follow-on RPC from the app's quantum since
            // the scheduler only tracks who runs.
            room.rpc(
                room.cache,
                request as usize,
                &mut syscalls,
                clock,
                APP_PID,
                CACHE_PID,
            );
        }
    }
    EventSimResult {
        requests,
        syscalls,
        thread_switches: room.sched.thread_switches(),
        as_switches: room.sched.address_space_switches(),
    }
}

/// Check the aggregate model's multipliers against the event-driven run:
/// returns `(analytic_as_per_rpc, event_as_per_rpc)`.
#[must_use]
pub fn validate_multipliers(workload: &Workload, requests: u64) -> (f64, f64) {
    let model = DecompositionModel::default();
    let analytic = model.as_switches_per_rpc * workload.rpcs_per_service;
    let event = simulate_events(workload, requests, 42).as_switches_per_request();
    (analytic, event)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osarch_workloads::find_workload;

    #[test]
    fn every_rpc_is_two_syscalls_and_two_switches() {
        // A workload with no nested RPCs: exact structural accounting.
        let mut w = find_workload("andrew-local").unwrap();
        w.rpcs_per_service = 1.0;
        let result = simulate_events(&w, 1_000, 1);
        assert_eq!(result.syscalls, 2_000);
        // Every dispatch crosses address spaces (app <-> server), including
        // the initial dispatch from idle.
        assert_eq!(result.thread_switches, result.as_switches);
        assert!((result.as_switches_per_request() - 2.0).abs() < 0.01);
    }

    #[test]
    fn nested_rpcs_add_their_own_crossings() {
        let w = find_workload("andrew-remote").unwrap(); // rpcs_per_service 2.26
        let result = simulate_events(&w, 5_000, 7);
        assert!(
            result.syscalls_per_request() > 3.5,
            "{}",
            result.syscalls_per_request()
        );
        assert!(result.as_switches_per_request() > 3.5);
    }

    #[test]
    fn traced_run_matches_untraced_and_records_spans() {
        use osarch_cpu::Arch;
        use osarch_trace::EventTracer;
        let w = find_workload("andrew-local").unwrap();
        let untraced = simulate_events(&w, 200, 5);
        let costs = EventCosts::measure(Arch::R3000);
        let mut tracer = EventTracer::new();
        let traced = simulate_events_traced(&w, 200, 5, &costs, &mut tracer);
        assert_eq!(traced, untraced, "tracing must not perturb the walk");
        let rpcs = tracer.events().iter().filter(|e| e.name == "rpc").count() as u64;
        // One traced RPC span per message-pair: two syscalls each.
        assert_eq!(rpcs * 2, traced.syscalls);
        let sends = tracer
            .events()
            .iter()
            .filter(|e| e.name == "msg send")
            .count() as u64;
        assert_eq!(sends * 2, traced.syscalls);
        let as_spans = tracer
            .events()
            .iter()
            .filter(|e| e.name == "address-space switch")
            .count() as u64;
        // The scheduler's count includes the initial dispatch from idle in
        // `MachineRoom::new`, which precedes the traced request loop.
        assert_eq!(as_spans + 1, traced.as_switches);
        // Spans carry the measured costs as ns ticks.
        let send = tracer
            .events()
            .iter()
            .find(|e| e.name == "msg send")
            .unwrap();
        assert_eq!(send.dur, (costs.syscall_us * 1000.0).round() as u64);
        assert_eq!(send.pid, APP_PID);
    }

    #[test]
    fn event_run_is_reproducible() {
        let w = find_workload("latex-150").unwrap();
        assert_eq!(simulate_events(&w, 2_000, 9), simulate_events(&w, 2_000, 9));
    }

    #[test]
    fn analytic_multipliers_are_conservative_relative_to_mechanism() {
        // The aggregate model's 1.6 as-switches per RPC is deliberately
        // below the mechanistic 2 (some replies batch; some servers answer
        // from the running thread). The event simulation bounds it above.
        let w = find_workload("andrew-local").unwrap();
        let (analytic, event) = validate_multipliers(&w, 10_000);
        assert!(
            analytic <= event,
            "analytic {analytic:.2} must not exceed the mechanistic bound {event:.2}"
        );
        assert!(event <= analytic * 2.0, "but should be within 2x of it");
    }
}
