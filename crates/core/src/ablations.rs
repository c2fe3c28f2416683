//! Architectural what-if studies: the improvements the paper proposes in
//! Sections 2.5, 3.2 and 3.3, measured against the baseline machines.

use crate::report::{fmt_f, Table};
use osarch_cpu::Arch;
use osarch_kernel::{variant_baseline, variant_program, Machine, Variant};
use osarch_mem::{
    MultiLevelPageTable, PageTable, Protection, Pte, Tlb, TlbConfig, TlbEntry, VirtAddr,
};
use osarch_threads::{parthenon_run, LockStrategy};

/// One what-if result.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablation {
    /// Short name.
    pub name: String,
    /// The architecture it applies to.
    pub arch: Arch,
    /// Baseline value.
    pub baseline: f64,
    /// Variant value.
    pub variant: f64,
    /// Unit label for the two values.
    pub unit: &'static str,
}

impl Ablation {
    /// Fractional improvement (0–1) of the variant over the baseline.
    #[must_use]
    pub fn improvement(&self) -> f64 {
        1.0 - self.variant / self.baseline
    }
}

/// Measure one handler variant against its baseline, in microseconds.
#[must_use]
pub fn handler_ablation(arch: Arch, variant: Variant, name: &str) -> Ablation {
    let mut machine = Machine::new(arch);
    let spec = machine.spec().clone();
    let layout = *machine.layout();
    let clock = spec.clock_mhz;
    let baseline = machine
        .measure(&variant_baseline(&spec, &layout, variant))
        .micros(clock);
    // Hardware what-ifs change the machine itself, not just the handler.
    let mut variant_spec = spec.clone();
    if variant == Variant::TaggedVirtualCache {
        if let Some(cache) = &mut variant_spec.mem.cache {
            cache.tagged = true;
        }
    }
    let mut variant_machine = Machine::with_spec(variant_spec.clone());
    let improved = variant_machine
        .measure(&variant_program(&variant_spec, &layout, variant))
        .micros(clock);
    Ablation {
        name: name.to_string(),
        arch,
        baseline,
        variant: improved,
        unit: "us",
    }
}

/// The TLB-lockdown experiment of Section 3.2: sweep a kernel working set
/// under user-TLB pressure, with and without a locked super-page entry
/// covering the kernel region (the SPARC/Cypress mechanism).
///
/// Returns (misses without lockdown, misses with lockdown) per sweep.
#[must_use]
pub fn tlb_lockdown_misses(kernel_pages: u32, user_pages: u32) -> (u64, u64) {
    let run = |locked: bool| {
        let config = TlbConfig::tagged_lockable(64, 8);
        let mut tlb = Tlb::new(config);
        let mut table = MultiLevelPageTable::new();
        // Kernel working set at 16 MB-aligned region 0x8000_0000.
        let kernel_base = VirtAddr(0x8000_0000);
        if locked {
            // One terminal level-0 entry maps the whole 16 MB region; one
            // locked TLB entry covers every kernel page.
            table.map_region(kernel_base, Pte::new(0x8000, Protection::RWX), 0);
            assert!(tlb.insert_locked(TlbEntry {
                vpn: kernel_base.vpn(),
                asid: None,
                pte: Pte::new(0x8000, Protection::RWX),
                locked: true,
            }));
        } else {
            for i in 0..kernel_pages {
                table.map(
                    kernel_base.offset(i * 4096),
                    Pte::new(0x8000 + i, Protection::RWX),
                );
            }
        }
        let mut misses = 0u64;
        let kernel_lookup = |tlb: &mut Tlb, va: VirtAddr| {
            if locked {
                // The super-page entry matches the region's base VPN tag; a
                // real MMU compares the upper bits, which we model by
                // probing the region entry.
                tlb.lookup(kernel_base.vpn(), osarch_mem::Asid(0)).is_some()
            } else {
                tlb.lookup(va.vpn(), osarch_mem::Asid(0)).is_some()
            }
        };
        // Alternate: touch the kernel set, then a user sweep that pressures
        // the TLB, repeatedly.
        for _round in 0..8 {
            for i in 0..kernel_pages {
                let va = kernel_base.offset(i * 4096);
                if !kernel_lookup(&mut tlb, va) {
                    misses += 1;
                    let pte = table.translate(va).expect("kernel page mapped");
                    if !locked {
                        tlb.insert(TlbEntry {
                            vpn: va.vpn(),
                            asid: None,
                            pte,
                            locked: false,
                        });
                    }
                }
            }
            for i in 0..user_pages {
                let va = VirtAddr(0x0010_0000 + i * 4096);
                if tlb.lookup(va.vpn(), osarch_mem::Asid(1)).is_none() {
                    tlb.insert(TlbEntry {
                        vpn: va.vpn(),
                        asid: Some(osarch_mem::Asid(1)),
                        pte: Pte::new(i, Protection::RW),
                        locked: false,
                    });
                }
            }
        }
        misses
    };
    (run(false), run(true))
}

/// Every ablation, measured. The what-ifs are independent simulations, so
/// they run concurrently; the result order is fixed.
#[must_use]
pub fn all_ablations() -> Vec<Ablation> {
    let tasks: Vec<Box<dyn FnOnce() -> Ablation + Send>> = vec![
        Box::new(|| {
            handler_ablation(
                Arch::M88000,
                Variant::DeferredFaultCheck,
                "88000 syscall: defer fault checks on voluntary traps",
            )
        }),
        Box::new(|| {
            handler_ablation(
                Arch::Sparc,
                Variant::HardwareWindowFault,
                "SPARC syscall: hardware window fault before the call",
            )
        }),
        Box::new(|| {
            handler_ablation(
                Arch::I860,
                Variant::ProvideFaultAddress,
                "i860 trap: hardware reports the fault address",
            )
        }),
        Box::new(|| {
            handler_ablation(
                Arch::M88000,
                Variant::PreciseInterrupts,
                "88000 trap: precise interrupts",
            )
        }),
        Box::new(|| {
            handler_ablation(
                Arch::I860,
                Variant::TaggedVirtualCache,
                "i860 ctx switch: process-ID tags in the virtual cache",
            )
        }),
        // MIPS with an atomic test-and-set: parthenon's sync time under a
        // hypothetical TAS (priced like the SPARC's) vs the kernel-trap
        // reality.
        Box::new(|| {
            let kernel = parthenon_run(Arch::R3000, 10, LockStrategy::KernelTrap);
            let software = parthenon_run(Arch::R3000, 10, LockStrategy::LamportFast);
            Ablation {
                name: "MIPS parthenon: software fast locks instead of kernel traps".to_string(),
                arch: Arch::R3000,
                baseline: kernel.total_s(),
                variant: software.total_s(),
                unit: "s",
            }
        }),
        // TLB lockdown (counts, not time).
        Box::new(|| {
            let (unlocked, locked) = tlb_lockdown_misses(24, 96);
            Ablation {
                name: "SPARC/Cypress: locked super-page entry for the kernel (TLB misses/sweep)"
                    .to_string(),
                arch: Arch::Sparc,
                baseline: unlocked as f64,
                variant: locked as f64,
                unit: "misses",
            }
        }),
    ];
    crate::session::parallel_ordered(tasks)
}

/// Render the ablation study.
#[must_use]
pub fn ablation_table() -> Table {
    let mut table = Table::new("Architectural what-ifs (Sections 2.5, 3.2, 3.3)");
    table.headers(["What-if", "Arch", "Baseline", "Variant", "Gain"]);
    for ablation in all_ablations() {
        table.row([
            ablation.name.clone(),
            ablation.arch.to_string(),
            format!("{} {}", fmt_f(ablation.baseline, 1), ablation.unit),
            format!("{} {}", fmt_f(ablation.variant, 1), ablation.unit),
            format!("{:.0}%", ablation.improvement() * 100.0),
        ]);
    }
    table.note("each row implements an improvement the paper proposes and re-measures");
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use osarch_cpu::{MicroOp, Program};

    /// A micro-check that the i860 PTE change collapses without the virtual
    /// cache sweep — the counterfactual behind Table 2's 559-instruction row.
    fn i860_pte_without_flush_instructions() -> (u64, u64) {
        let mut machine = Machine::new(Arch::I860);
        let spec = machine.spec().clone();
        let layout = *machine.layout();
        let baseline = machine
            .measure(&osarch_kernel::pte_change(&spec, &layout))
            .instructions;
        // The same update without the sweep: just the table write and TLB op.
        let mut b = Program::builder("i860-pte-no-flush");
        b.load(layout.pte_area).load(layout.pte_area.offset(4));
        b.alu(6);
        b.store(layout.pte_area.offset(4));
        b.op(MicroOp::TlbFlushPage(layout.user_page));
        b.alu(12);
        let variant = machine.measure(&b.build()).instructions;
        (baseline, variant)
    }

    #[test]
    fn every_proposed_improvement_actually_improves() {
        for ablation in all_ablations() {
            assert!(
                ablation.improvement() > 0.05,
                "{}: {:.1} -> {:.1} ({:.0}%)",
                ablation.name,
                ablation.baseline,
                ablation.variant,
                ablation.improvement() * 100.0
            );
        }
    }

    #[test]
    fn tagged_virtual_cache_is_the_biggest_handler_win() {
        let a = handler_ablation(Arch::I860, Variant::TaggedVirtualCache, "tagged");
        assert!(a.improvement() > 0.5, "flushing dominates the i860 switch");
    }

    #[test]
    fn deferred_fault_check_saves_a_meaningful_slice() {
        let a = handler_ablation(Arch::M88000, Variant::DeferredFaultCheck, "deferred");
        assert!(
            (0.1..0.6).contains(&a.improvement()),
            "{:.2}",
            a.improvement()
        );
    }

    #[test]
    fn lockdown_eliminates_kernel_misses() {
        let (unlocked, locked) = tlb_lockdown_misses(24, 96);
        assert!(
            unlocked > 20,
            "pressure must evict kernel entries: {unlocked}"
        );
        assert_eq!(locked, 0, "a locked super-page entry never misses");
    }

    #[test]
    fn i860_pte_collapses_without_the_sweep() {
        let (baseline, variant) = i860_pte_without_flush_instructions();
        assert_eq!(baseline, 559);
        assert!(variant < 30, "{variant} instructions without the flush");
    }

    #[test]
    fn ablation_table_renders() {
        let table = ablation_table();
        assert!(table.len() >= 7);
        assert!(table.render().contains("precise interrupts"));
    }
}
