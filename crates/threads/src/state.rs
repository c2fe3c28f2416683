//! Processor thread state — Table 6 of the paper.

use osarch_cpu::Arch;

/// One row of Table 6: the 32-bit words of processor state a thread context
/// switch must move for one architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadStateRow {
    /// The architecture.
    pub arch: Arch,
    /// General-purpose register words.
    pub registers: u32,
    /// Floating-point state words.
    pub fp_state: u32,
    /// Miscellaneous state words.
    pub misc_state: u32,
}

impl ThreadStateRow {
    /// Total words for a thread using floating point.
    #[must_use]
    pub fn total(&self) -> u32 {
        self.registers + self.fp_state + self.misc_state
    }

    /// Total words for an integer-only thread.
    #[cfg(test)]
    #[must_use]
    pub fn integer_total(&self) -> u32 {
        self.registers + self.misc_state
    }
}

/// Table 6, in the paper's column order (VAX, 88000, R2/3000, SPARC, i860,
/// RS6000).
#[must_use]
pub fn thread_state_table() -> Vec<ThreadStateRow> {
    [
        Arch::Cvax,
        Arch::M88000,
        Arch::R2000,
        Arch::Sparc,
        Arch::I860,
        Arch::Rs6000,
    ]
    .into_iter()
    .map(|arch| {
        let spec = arch.spec();
        ThreadStateRow {
            arch,
            registers: spec.int_registers,
            fp_state: spec.fp_state_words,
            misc_state: spec.misc_state_words,
        }
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_6_values() {
        let table = thread_state_table();
        let sparc = table.iter().find(|r| r.arch == Arch::Sparc).unwrap();
        assert_eq!(
            (sparc.registers, sparc.fp_state, sparc.misc_state),
            (136, 32, 6)
        );
        assert_eq!(sparc.total(), 174);
        assert_eq!(sparc.integer_total(), 142);
        let vax = table.iter().find(|r| r.arch == Arch::Cvax).unwrap();
        assert_eq!(vax.total(), 17);
    }

    #[test]
    fn riscs_carry_more_state_than_the_vax() {
        let table = thread_state_table();
        let vax_total = table.iter().find(|r| r.arch == Arch::Cvax).unwrap().total();
        for row in &table {
            if row.arch != Arch::Cvax {
                assert!(row.total() > vax_total, "{}", row.arch);
            }
        }
    }
}
