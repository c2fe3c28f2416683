//! Trace-driven replay of the OS-structure simulation.
//!
//! The aggregate model in [`crate::simulate`] works on counters, as the
//! paper's instrumented kernels did. This module replays a *randomized
//! event trace* with the same mix through the same per-event costs —
//! useful for interleaving-sensitive consumers and as a consistency check
//! on the aggregate model.

use crate::costs::EventCosts;
use crate::simulate::{simulate, MachRun, OsStructure};
use osarch_cpu::Arch;
use osarch_workloads::{ServiceEvent, TraceGenerator, Workload};

/// Result of replaying a sampled trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceReplay {
    /// Events replayed.
    pub events: u64,
    /// Primitive seconds accumulated over the replayed events.
    pub primitive_time_s: f64,
    /// The aggregate model's prediction scaled to the same event count.
    pub aggregate_prediction_s: f64,
}

impl TraceReplay {
    /// Relative disagreement between replay and aggregate model (0 = exact).
    #[cfg(test)]
    #[must_use]
    pub fn disagreement(&self) -> f64 {
        (self.primitive_time_s - self.aggregate_prediction_s).abs() / self.aggregate_prediction_s
    }
}

/// Replay `events` randomly sampled events of `workload` under `structure`
/// on `arch`, seeded for reproducibility.
#[must_use]
pub fn replay_trace(
    workload: &Workload,
    structure: OsStructure,
    arch: Arch,
    seed: u64,
    events: u64,
) -> TraceReplay {
    let run: MachRun = simulate(workload, structure, arch);
    let costs = EventCosts::measure(arch);
    let mut generator = TraceGenerator::new(&run.demand, seed);
    let mut us = 0.0f64;
    for _ in 0..events {
        us += match generator.next_event() {
            ServiceEvent::Syscall => costs.syscall_us,
            ServiceEvent::ThreadSwitch => costs.thread_switch_us,
            ServiceEvent::AddressSpaceSwitch => costs.as_switch_us,
            ServiceEvent::EmulatedInstruction => costs.emulated_us,
            ServiceEvent::KernelTlbMiss => costs.kernel_tlb_miss_us,
            ServiceEvent::OtherException => costs.other_exception_us,
        };
    }
    let total_events: u64 = run.demand.syscalls
        + run.demand.thread_switches
        + run.demand.emulated_instructions
        + run.demand.kernel_tlb_misses
        + run.demand.other_exceptions;
    let aggregate_prediction_s = run.primitive_time_s * events as f64 / total_events as f64;
    TraceReplay {
        events,
        primitive_time_s: us / 1e6,
        aggregate_prediction_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osarch_workloads::find_workload;

    #[test]
    fn replay_agrees_with_the_aggregate_model() {
        let w = find_workload("andrew-remote").unwrap();
        let replay = replay_trace(&w, OsStructure::Microkernel, Arch::R3000, 17, 200_000);
        assert!(
            replay.disagreement() < 0.05,
            "trace replay and aggregate model disagree by {:.1}%",
            replay.disagreement() * 100.0
        );
    }

    #[test]
    fn replay_is_reproducible_per_seed() {
        let w = find_workload("link-vmunix").unwrap();
        let a = replay_trace(&w, OsStructure::Microkernel, Arch::R3000, 5, 20_000);
        let b = replay_trace(&w, OsStructure::Microkernel, Arch::R3000, 5, 20_000);
        assert_eq!(a, b);
        let c = replay_trace(&w, OsStructure::Microkernel, Arch::R3000, 6, 20_000);
        assert_ne!(a.primitive_time_s, c.primitive_time_s);
    }

    #[test]
    fn monolithic_replay_is_cheaper_per_event_mix() {
        // Parthenon's monolithic mix is emulation-dominated; the
        // microkernel mix adds switch-heavy events.
        let w = find_workload("spellcheck-1").unwrap();
        let mono = replay_trace(&w, OsStructure::Monolithic, Arch::R3000, 3, 50_000);
        let micro = replay_trace(&w, OsStructure::Microkernel, Arch::R3000, 3, 50_000);
        assert!(mono.primitive_time_s > 0.0);
        assert!(micro.primitive_time_s > 0.0);
    }
}
