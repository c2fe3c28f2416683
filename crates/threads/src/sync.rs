//! Synchronisation strategies and their costs (Section 4.1).
//!
//! "The MIPS R2000/R3000 has no atomic semaphore instruction … threads that
//! wish to synchronize must either trap into the kernel, where interrupts
//! can be disabled, or resort to a complex locking algorithm. Both are
//! expensive." The third option is Lamport's fast mutual exclusion, which
//! needs no atomic instruction but "still [has] overheads on the order of
//! dozens of cycles."

use osarch_cpu::{Arch, MicroOp, Program};
use osarch_kernel::Machine;
use std::fmt;

/// How a user-level lock is implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockStrategy {
    /// An atomic test-and-set instruction (ldstub, xmem, BBSSI...).
    AtomicTas,
    /// Trap into the kernel and disable interrupts.
    KernelTrap,
    /// Lamport's fast mutual exclusion: loads, stores and fences only.
    LamportFast,
}

impl LockStrategy {
    /// Every strategy.
    #[must_use]
    pub fn all() -> [LockStrategy; 3] {
        [
            LockStrategy::AtomicTas,
            LockStrategy::KernelTrap,
            LockStrategy::LamportFast,
        ]
    }

    /// Strategies available on `arch` (no test-and-set on MIPS).
    #[must_use]
    pub fn available(arch: Arch) -> Vec<LockStrategy> {
        let spec = arch.spec();
        Self::all()
            .into_iter()
            .filter(|s| *s != LockStrategy::AtomicTas || spec.has_atomic_tas)
            .collect()
    }

    /// The cheapest strategy available on `arch`.
    #[cfg(test)]
    #[must_use]
    pub fn best(arch: Arch) -> LockStrategy {
        *Self::available(arch)
            .first()
            .expect("at least one strategy always exists")
    }
}

impl fmt::Display for LockStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            LockStrategy::AtomicTas => "atomic test-and-set",
            LockStrategy::KernelTrap => "kernel trap",
            LockStrategy::LamportFast => "Lamport fast mutex",
        };
        f.write_str(text)
    }
}

/// Measure one uncontended acquire/release pair under `strategy` on `arch`.
///
/// # Panics
///
/// Panics if `strategy` is [`LockStrategy::AtomicTas`] and the architecture
/// has no atomic instruction.
#[must_use]
pub fn lock_pair_us(arch: Arch, strategy: LockStrategy) -> f64 {
    let spec = arch.spec();
    assert!(
        strategy != LockStrategy::AtomicTas || spec.has_atomic_tas,
        "{arch} has no atomic test-and-set"
    );
    let mut machine = Machine::new(arch);
    let clock = machine.spec().clock_mhz;
    let lock_word = machine.layout().syscall_arg.offset(1024);
    let program = match strategy {
        LockStrategy::AtomicTas => {
            let mut b = Program::builder("tas-lock");
            b.op(MicroOp::AtomicTas(lock_word)); // acquire
            b.branch(false);
            b.alu(1);
            b.store(lock_word); // release
            b.build()
        }
        LockStrategy::KernelTrap => {
            let mut b = Program::builder("kernel-lock");
            // Trap in, save the convention registers, disable interrupts,
            // take the lock, restore, return — and again to release.
            for pass in 0..2u32 {
                b.op(MicroOp::TrapEnter);
                b.op(MicroOp::ReadControl);
                b.op(MicroOp::WriteControl);
                b.store_run(lock_word.offset(64 + 256 * pass), 8);
                b.alu(10);
                b.load(lock_word);
                b.store(lock_word);
                b.load_run(lock_word.offset(64 + 256 * pass), 8);
                b.op(MicroOp::WriteControl);
                b.op(MicroOp::TrapReturn);
            }
            b.build()
        }
        LockStrategy::LamportFast => {
            let mut b = Program::builder("lamport-lock");
            // Lamport 1987 fast path: two stores, two loads, checks.
            b.store(lock_word);
            b.load(lock_word.offset(4));
            b.branch(false);
            b.store(lock_word.offset(8));
            b.load(lock_word);
            b.branch(false);
            b.alu(8); // bookkeeping ("dozens of cycles" total)
            b.alu(1); // critical section
            b.store(lock_word.offset(8)); // release
            b.store(lock_word);
            b.alu(4);
            b.build()
        }
    };
    machine.measure(&program).micros(clock)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mips_has_no_tas_strategy() {
        let available = LockStrategy::available(Arch::R3000);
        assert!(!available.contains(&LockStrategy::AtomicTas));
        assert!(available.contains(&LockStrategy::KernelTrap));
        assert_eq!(LockStrategy::best(Arch::R3000), LockStrategy::KernelTrap);
    }

    #[test]
    fn other_archs_keep_tas() {
        for arch in [
            Arch::Cvax,
            Arch::M88000,
            Arch::Sparc,
            Arch::I860,
            Arch::Rs6000,
        ] {
            assert_eq!(LockStrategy::best(arch), LockStrategy::AtomicTas, "{arch}");
        }
    }

    #[test]
    fn kernel_locks_are_far_more_expensive_than_tas() {
        let tas = lock_pair_us(Arch::Sparc, LockStrategy::AtomicTas);
        let kernel = lock_pair_us(Arch::Sparc, LockStrategy::KernelTrap);
        assert!(kernel > tas * 3.0, "kernel {kernel:.2} vs tas {tas:.2}");
    }

    #[test]
    fn lamport_costs_dozens_of_cycles() {
        let us = lock_pair_us(Arch::R3000, LockStrategy::LamportFast);
        let cycles = us * Arch::R3000.spec().clock_mhz;
        assert!(
            (15.0..=80.0).contains(&cycles),
            "lamport {cycles:.0} cycles"
        );
    }

    #[test]
    fn lamport_beats_the_kernel_on_mips() {
        let lamport = lock_pair_us(Arch::R3000, LockStrategy::LamportFast);
        let kernel = lock_pair_us(Arch::R3000, LockStrategy::KernelTrap);
        assert!(lamport < kernel);
    }

    #[test]
    #[should_panic(expected = "no atomic test-and-set")]
    fn tas_on_mips_panics() {
        let _ = lock_pair_us(Arch::R2000, LockStrategy::AtomicTas);
    }

    #[test]
    fn strategies_display() {
        assert_eq!(LockStrategy::KernelTrap.to_string(), "kernel trap");
    }
}
