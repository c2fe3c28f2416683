//! Event-trace generation from aggregate service demands.
//!
//! The OS-structure simulation usually works on aggregate counters (as the
//! paper's instrumented kernels did), but examples and stress tests want
//! event streams. [`TraceGenerator`] turns a [`ServiceDemand`] into a
//! randomized, reproducible sequence of [`ServiceEvent`]s whose mix matches
//! the demand.

use crate::demand::ServiceDemand;
use osarch_trace::{SplitMix64, GAMMA};

/// One operating-system-visible event in an application's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceEvent {
    /// A system call.
    Syscall,
    /// A thread context switch within one address space.
    ThreadSwitch,
    /// A context switch that also changes address spaces.
    AddressSpaceSwitch,
    /// A kernel-emulated instruction (e.g. test-and-set on MIPS).
    EmulatedInstruction,
    /// A kernel-mode TLB miss.
    KernelTlbMiss,
    /// Any other exception (page fault, device interrupt).
    OtherException,
}

impl ServiceEvent {
    /// All event kinds, in a fixed order.
    #[must_use]
    pub fn all() -> [ServiceEvent; 6] {
        [
            ServiceEvent::Syscall,
            ServiceEvent::ThreadSwitch,
            ServiceEvent::AddressSpaceSwitch,
            ServiceEvent::EmulatedInstruction,
            ServiceEvent::KernelTlbMiss,
            ServiceEvent::OtherException,
        ]
    }
}

/// A reproducible random event stream matching a demand's mix.
///
/// # Example
///
/// ```
/// use osarch_workloads::{find_workload, TraceGenerator, ServiceEvent};
///
/// let w = find_workload("spellcheck-1").expect("standard workload");
/// let mut gen = TraceGenerator::new(&w.demand, 42);
/// let trace: Vec<ServiceEvent> = gen.by_ref().take(1000).collect();
/// assert_eq!(trace.len(), 1000);
/// ```
#[derive(Debug)]
pub struct TraceGenerator {
    rng: SplitMix64,
    /// Running totals of the event weights, in [`ServiceEvent::all`] order.
    cumulative: [u64; 6],
}

impl TraceGenerator {
    /// A generator whose event mix matches `demand`, seeded for
    /// reproducibility.
    ///
    /// # Panics
    ///
    /// Panics when the demand is all zeros (no events to draw).
    #[must_use]
    pub fn new(demand: &ServiceDemand, seed: u64) -> TraceGenerator {
        let weights = [
            demand.syscalls,
            demand.thread_switches.saturating_sub(demand.as_switches),
            demand.as_switches,
            demand.emulated_instructions,
            demand.kernel_tlb_misses,
            demand.other_exceptions,
        ];
        let mut total = 0;
        let cumulative = weights.map(|weight| {
            total += weight;
            total
        });
        assert!(total > 0, "demand must contain events");
        TraceGenerator {
            rng: SplitMix64::new(seed ^ GAMMA),
            cumulative,
        }
    }

    /// Draw one event.
    pub fn next_event(&mut self) -> ServiceEvent {
        ServiceEvent::all()[self.rng.pick(&self.cumulative)]
    }

    /// Count the event mix of the next `n` events (consuming them).
    pub fn sample_counts(&mut self, n: usize) -> ServiceDemand {
        let mut counts = ServiceDemand::default();
        for _ in 0..n {
            match self.next_event() {
                ServiceEvent::Syscall => counts.syscalls += 1,
                ServiceEvent::ThreadSwitch => counts.thread_switches += 1,
                ServiceEvent::AddressSpaceSwitch => {
                    counts.thread_switches += 1;
                    counts.as_switches += 1;
                }
                ServiceEvent::EmulatedInstruction => counts.emulated_instructions += 1,
                ServiceEvent::KernelTlbMiss => counts.kernel_tlb_misses += 1,
                ServiceEvent::OtherException => counts.other_exceptions += 1,
            }
        }
        counts
    }
}

impl Iterator for TraceGenerator {
    type Item = ServiceEvent;

    fn next(&mut self) -> Option<ServiceEvent> {
        Some(self.next_event())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::find_workload;

    #[test]
    fn traces_are_reproducible() {
        let w = find_workload("andrew-local").unwrap();
        let a: Vec<_> = TraceGenerator::new(&w.demand, 7).take(500).collect();
        let b: Vec<_> = TraceGenerator::new(&w.demand, 7).take(500).collect();
        assert_eq!(a, b);
        let c: Vec<_> = TraceGenerator::new(&w.demand, 8).take(500).collect();
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn event_mix_tracks_the_demand() {
        let w = find_workload("parthenon (1 thread)").unwrap();
        let mut generator = TraceGenerator::new(&w.demand, 1);
        let counts = generator.sample_counts(20_000);
        // Parthenon is overwhelmingly emulated instructions.
        assert!(counts.emulated_instructions > 19_000);
        assert!(counts.syscalls < 200);
    }

    #[test]
    fn address_space_switches_imply_thread_switches() {
        let w = find_workload("andrew-remote").unwrap();
        let mut generator = TraceGenerator::new(&w.demand, 3);
        let counts = generator.sample_counts(10_000);
        assert!(counts.thread_switches >= counts.as_switches);
    }

    #[test]
    #[should_panic(expected = "demand must contain events")]
    fn empty_demand_panics() {
        let _ = TraceGenerator::new(&ServiceDemand::default(), 0);
    }
}
