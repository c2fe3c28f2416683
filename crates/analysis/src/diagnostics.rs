//! The diagnostic vocabulary: the severity lattice and the finding record.

use osarch_cpu::Arch;
use std::fmt;

/// Diagnostic severity, ordered as a lattice: `Info < Warn < Error`.
///
/// `Error` marks a violated architectural invariant — code that would
/// misbehave on the modelled hardware. `Warn` marks work the architecture
/// does not require (a flush of a tagged cache, a purge of a tagged TLB).
/// `Info` marks hazards worth a look that the shipped handlers accept
/// deliberately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A note: a latent hazard or accepted cost.
    Info,
    /// Architecturally unnecessary work.
    Warn,
    /// A violated invariant.
    Error,
}

impl Severity {
    /// All severities, ascending.
    #[must_use]
    pub fn all() -> [Severity; 3] {
        [Severity::Info, Severity::Warn, Severity::Error]
    }

    /// The lowercase label used in reports and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One finding: a rule's stable code, its severity, and where it fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable diagnostic code (`OA001`…). Codes never change meaning; new
    /// rules take new codes.
    pub code: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// The architecture the program was generated for.
    pub arch: Arch,
    /// The name of the offending program.
    pub program: String,
    /// The index of the offending op or instruction, when the finding
    /// points at one.
    pub op_index: Option<usize>,
    /// What went wrong, in one sentence.
    pub message: String,
}

impl Diagnostic {
    /// The deterministic ordering key: architecture, program, code, site.
    /// Reports sort by this so output never depends on rule registration
    /// order.
    #[must_use]
    pub fn sort_key(&self) -> (usize, &str, &'static str, usize, &str) {
        (
            self.arch.index(),
            &self.program,
            self.code,
            self.op_index.unwrap_or(usize::MAX),
            &self.message,
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {:7} {:6} {}",
            self.code,
            self.severity,
            self.arch.to_string(),
            self.program
        )?;
        if let Some(index) = self.op_index {
            write!(f, " @{index}")?;
        }
        write!(f, ": {}", self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_lattice_orders_ascending() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
        assert_eq!(Severity::all().len(), 3);
        assert_eq!(Severity::Error.to_string(), "error");
    }

    #[test]
    fn display_includes_code_site_and_message() {
        let d = Diagnostic {
            code: "OA001",
            severity: Severity::Error,
            arch: Arch::Sparc,
            program: "demo".to_string(),
            op_index: Some(7),
            message: "broken".to_string(),
        };
        let text = d.to_string();
        assert!(text.contains("OA001"));
        assert!(text.contains("SPARC"));
        assert!(text.contains("@7"));
        assert!(text.contains("broken"));
        let whole_program = Diagnostic {
            op_index: None,
            ..d
        };
        assert!(!whole_program.to_string().contains('@'));
    }

    #[test]
    fn sort_key_groups_by_arch_then_program() {
        let mk = |arch, program: &str, code| Diagnostic {
            code,
            severity: Severity::Info,
            arch,
            program: program.to_string(),
            op_index: None,
            message: String::new(),
        };
        let a = mk(Arch::Cvax, "z", "OA002");
        let b = mk(Arch::Sparc, "a", "OA001");
        let c = mk(Arch::Sparc, "b", "OA001");
        assert!(a.sort_key() < b.sort_key());
        assert!(b.sort_key() < c.sort_key());
    }
}
