//! The measurement harness of Section 1.1.
//!
//! [`measure`] is memoized process-wide: the cycle-level simulation of one
//! architecture's four primitives is deterministic (see
//! `measurement_is_deterministic`), so every caller — the report tables,
//! the IPC/thread/Mach models layered on top, tests, benches — shares one
//! simulation per architecture. [`measure_fresh`] bypasses the cache for
//! callers that explicitly want to re-run the simulator, and
//! [`simulation_count`] exposes how many full simulations have actually
//! run, so tests can assert the sharing.

use crate::handlers::{HandlerSet, Primitive};
use crate::machine::Machine;
use osarch_cpu::{Arch, ExecStats, Phase};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Microsecond timings for the four primitives — one column of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrimitiveTimes {
    /// Null system call (µs).
    pub null_syscall: f64,
    /// Trap (µs).
    pub trap: f64,
    /// Page-table-entry change (µs).
    pub pte_change: f64,
    /// Context switch (µs).
    pub context_switch: f64,
}

impl PrimitiveTimes {
    /// The time for one primitive.
    #[must_use]
    pub fn time(&self, primitive: Primitive) -> f64 {
        match primitive {
            Primitive::NullSyscall => self.null_syscall,
            Primitive::Trap => self.trap,
            Primitive::PteChange => self.pte_change,
            Primitive::ContextSwitch => self.context_switch,
        }
    }
}

/// Full measurement of one architecture: per-primitive execution statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct PrimitiveMeasurement {
    /// The measured architecture.
    pub arch: Arch,
    /// Clock rate the measured machine ran at (may differ from the stock
    /// specification for what-if machines).
    pub clock_mhz: f64,
    /// Null-system-call statistics (with the Table 5 phase breakdown).
    pub syscall: ExecStats,
    /// Trap statistics.
    pub trap: ExecStats,
    /// PTE-change statistics.
    pub pte_change: ExecStats,
    /// Context-switch statistics.
    pub context_switch: ExecStats,
}

impl PrimitiveMeasurement {
    /// Statistics for one primitive.
    #[must_use]
    pub fn stats(&self, primitive: Primitive) -> &ExecStats {
        match primitive {
            Primitive::NullSyscall => &self.syscall,
            Primitive::Trap => &self.trap,
            Primitive::PteChange => &self.pte_change,
            Primitive::ContextSwitch => &self.context_switch,
        }
    }

    /// Times in microseconds (a Table 1 column).
    #[must_use]
    pub fn times_us(&self) -> PrimitiveTimes {
        let clock = self.clock_mhz;
        PrimitiveTimes {
            null_syscall: self.syscall.micros(clock),
            trap: self.trap.micros(clock),
            pte_change: self.pte_change.micros(clock),
            context_switch: self.context_switch.micros(clock),
        }
    }

    /// Dynamic instruction counts (a Table 2 column).
    #[must_use]
    pub fn instruction_counts(&self) -> [u64; 4] {
        [
            self.syscall.instructions,
            self.trap.instructions,
            self.pte_change.instructions,
            self.context_switch.instructions,
        ]
    }

    /// The Table 5 decomposition of the null system call: microseconds in
    /// (kernel entry/exit, call preparation, call/return to C).
    ///
    /// The body of the null C procedure is charged to the call/return
    /// component, as the paper does.
    #[must_use]
    pub fn syscall_phases_us(&self) -> (f64, f64, f64) {
        let clock = self.clock_mhz;
        let us = |cycles: u64| cycles as f64 / clock;
        let entry = self.syscall.phase(Phase::EntryExit).cycles;
        let prep = self.syscall.phase(Phase::CallPrep).cycles;
        let call =
            self.syscall.phase(Phase::CallReturn).cycles + self.syscall.phase(Phase::Body).cycles;
        (us(entry), us(prep), us(call))
    }
}

/// One cache slot per architecture plus the shared simulation counter.
struct MeasureCache {
    slots: [OnceLock<PrimitiveMeasurement>; Arch::COUNT],
    simulations: AtomicU64,
}

fn cache() -> &'static MeasureCache {
    static CACHE: OnceLock<MeasureCache> = OnceLock::new();
    CACHE.get_or_init(|| MeasureCache {
        slots: [const { OnceLock::new() }; Arch::COUNT],
        simulations: AtomicU64::new(0),
    })
}

/// Measure all four primitives on `arch` using the paper's steady-state
/// methodology (repeated invocation with warm caches and TLB).
///
/// Memoized: the first call per architecture runs the cycle-level
/// simulation; every later call (from any thread) returns a copy of the
/// same result. Use [`measure_fresh`] to force a re-run.
#[must_use]
pub fn measure(arch: Arch) -> PrimitiveMeasurement {
    cache().slots[arch.index()]
        .get_or_init(|| measure_fresh(arch))
        .clone()
}

/// [`measure`] without the cache: always runs the full simulation.
#[must_use]
pub fn measure_fresh(arch: Arch) -> PrimitiveMeasurement {
    cache().simulations.fetch_add(1, Ordering::Relaxed);
    measure_with_spec(arch.spec())
}

/// How many full stock-architecture primitive simulations have run in this
/// process — cache hits do not count, and neither do explicit-spec what-if
/// runs through [`measure_with_spec`]. Lets tests assert that a batch of
/// reports performed exactly one simulation per architecture.
#[must_use]
pub fn simulation_count() -> u64 {
    cache().simulations.load(Ordering::Relaxed)
}

/// [`measure`] on an explicit (possibly modified) specification — the entry
/// point for what-if machines such as [`osarch_cpu::ArchSpec::with_scaled_clock`].
#[must_use]
pub fn measure_with_spec(spec: osarch_cpu::ArchSpec) -> PrimitiveMeasurement {
    let mut machine = Machine::with_spec(spec.clone());
    let layout = *machine.layout();
    let handlers = HandlerSet::generate(&spec, &layout);
    PrimitiveMeasurement {
        arch: spec.arch,
        clock_mhz: spec.clock_mhz,
        syscall: machine.measure(&handlers.syscall),
        trap: machine.measure(&handlers.trap),
        pte_change: machine.measure(&handlers.pte_change),
        context_switch: machine.measure(&handlers.context_switch),
    }
}

/// Reproduce the paper's *subtractive* trap measurement: the benchmark
/// repeatedly (1) calls the kernel to unmap a page, (2) touches it from user
/// level, taking the fault, and (3) re-maps it inside the handler. The trap
/// time is the composite minus the system-call, unmap and remap times.
///
/// This cross-checks the direct measurement in [`measure`]; the two agree to
/// within the composition overhead.
#[must_use]
pub fn methodology_trap_time_us(arch: Arch) -> f64 {
    let mut machine = Machine::new(arch);
    let spec = machine.spec().clone();
    let layout = *machine.layout();
    let handlers = HandlerSet::generate(&spec, &layout);
    // The unmap and remap "system calls" are a syscall wrapper around a PTE
    // change each.
    let mut unmap = handlers.syscall.clone();
    unmap.append(&handlers.pte_change);
    // Composite: unmap syscall + fault (trap) + remap inside the handler.
    let mut composite = unmap.clone();
    composite.append(&handlers.trap);
    composite.append(&handlers.pte_change);

    let composite_us = machine.measure(&composite).micros(spec.clock_mhz);
    let unmap_us = machine.measure(&unmap).micros(spec.clock_mhz);
    let remap_us = machine.measure(&handlers.pte_change).micros(spec.clock_mhz);
    (composite_us - unmap_us - remap_us).max(0.0)
}

/// Reproduce the paper's special-system-call methodology for the PTE
/// change and the context switch: "The time to change a page table entry
/// (PTE) and to context switch was measured by writing special system
/// calls, and then subtracting the system call time from the measured
/// time." The special call is the null system call with `primitive`'s
/// handler appended.
#[must_use]
pub fn methodology_special_syscall_us(arch: Arch, primitive: Primitive) -> f64 {
    let mut machine = Machine::new(arch);
    let spec = machine.spec().clone();
    let layout = *machine.layout();
    let handlers = HandlerSet::generate(&spec, &layout);
    let mut special = handlers.syscall.clone();
    special.append(handlers.program(primitive));
    let special_us = machine.measure(&special).micros(spec.clock_mhz);
    let syscall_us = machine.measure(&handlers.syscall).micros(spec.clock_mhz);
    (special_us - syscall_us).max(0.0)
}

/// Per-operation costs in microseconds, the currency the IPC, thread and
/// OS-structure simulations trade in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrimitiveCosts {
    /// The measured architecture.
    pub arch: Arch,
    /// Null system call (µs).
    pub syscall_us: f64,
    /// Trap / interrupt dispatch (µs).
    pub trap_us: f64,
    /// PTE change (µs).
    pub pte_change_us: f64,
    /// Full (cross-address-space) context switch (µs).
    pub context_switch_us: f64,
    /// Clock rate, for converting further cycle counts.
    pub clock_mhz: f64,
    /// Integer application speedup relative to the CVAX.
    pub application_speedup: f64,
}

impl PrimitiveCosts {
    /// Measure `arch` (through the shared memo) and package the costs.
    #[must_use]
    pub fn measure(arch: Arch) -> PrimitiveCosts {
        PrimitiveCosts::from_measurement(&measure(arch))
    }

    /// Package the costs of an existing measurement without re-simulating —
    /// the entry point for callers holding a shared measurement session.
    #[must_use]
    pub fn from_measurement(m: &PrimitiveMeasurement) -> PrimitiveCosts {
        let times = m.times_us();
        PrimitiveCosts {
            arch: m.arch,
            syscall_us: times.null_syscall,
            trap_us: times.trap,
            pte_change_us: times.pte_change,
            context_switch_us: times.context_switch,
            clock_mhz: m.clock_mhz,
            application_speedup: m.arch.spec().application_speedup,
        }
    }
}

// The serving layer shares measurements and costs across a worker-thread
// pool by reference; losing `Send + Sync` on these types (say, by adding
// an `Rc` or `Cell` field) would only surface as a compile error deep in
// `osarch-serve`, so pin the guarantee here at the definition site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PrimitiveMeasurement>();
    assert_send_sync::<PrimitiveTimes>();
    assert_send_sync::<PrimitiveCosts>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_is_shareable_across_threads() {
        // `measure` hands out clones of one memoized measurement; workers
        // read it concurrently by reference. Exercise exactly that shape.
        let shared = measure(Arch::R3000);
        let reference = shared.times_us();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let shared = &shared;
                scope.spawn(move || {
                    assert_eq!(shared.times_us(), reference);
                });
            }
        });
    }

    #[test]
    fn measurement_is_deterministic() {
        let a = measure(Arch::R2000).times_us();
        let b = measure(Arch::R2000).times_us();
        assert_eq!(a, b);
    }

    #[test]
    fn every_timed_arch_measures() {
        for arch in Arch::timed() {
            let m = measure(arch);
            let times = m.times_us();
            for primitive in Primitive::all() {
                assert!(times.time(primitive) > 0.0, "{} {primitive}", m.arch);
            }
        }
    }

    #[test]
    fn syscall_phases_sum_to_total() {
        let m = measure(Arch::Sparc);
        let (entry, prep, call) = m.syscall_phases_us();
        let total = m.times_us().null_syscall;
        assert!((entry + prep + call - total).abs() < 1e-9);
    }

    #[test]
    fn methodology_agrees_with_direct_measurement() {
        for arch in [Arch::Cvax, Arch::R2000, Arch::Sparc] {
            let direct = measure(arch).times_us().trap;
            let subtractive = methodology_trap_time_us(arch);
            let ratio = subtractive / direct;
            assert!(
                (0.8..1.25).contains(&ratio),
                "{arch}: subtractive {subtractive:.2} vs direct {direct:.2}"
            );
        }
    }

    #[test]
    fn subtractive_pte_and_switch_agree_with_direct() {
        // The subtractive method carries composition bias (the special
        // syscall's register restores leave the write buffer busy when the
        // body starts), so agreement is within 50%, not exact — the same
        // bias the paper's measurements embed.
        for arch in [Arch::Cvax, Arch::R3000, Arch::Sparc] {
            let direct = measure(arch).times_us();
            let pte = methodology_special_syscall_us(arch, Primitive::PteChange);
            let ctx = methodology_special_syscall_us(arch, Primitive::ContextSwitch);
            assert!(
                (pte / direct.pte_change - 1.0).abs() < 0.5,
                "{arch} pte: subtractive {pte:.2} vs direct {:.2}",
                direct.pte_change
            );
            assert!(
                (ctx / direct.context_switch - 1.0).abs() < 0.5,
                "{arch} ctx: subtractive {ctx:.2} vs direct {:.2}",
                direct.context_switch
            );
        }
    }

    #[test]
    fn primitive_costs_reflect_measurement() {
        let costs = PrimitiveCosts::measure(Arch::R3000);
        let m = measure(Arch::R3000).times_us();
        assert_eq!(costs.syscall_us, m.null_syscall);
        assert_eq!(costs.context_switch_us, m.context_switch);
        assert!(costs.application_speedup > 1.0);
    }
}
