//! The CLI/protocol name registry: one place that maps user-facing
//! spellings to [`Arch`], [`Primitive`] and report names, and renders the
//! one-line "valid names" errors every front end prints on a bad name.
//!
//! The `osarch` binary (`osarch tables` among its commands) and the
//! `osarch-serve` protocol both parse the same spellings through these
//! functions, so an unknown name fails loudly and identically everywhere:
//! nonzero exit (or an error envelope) plus a single line listing every
//! accepted name, including the `mips-r2000` / `mips-r3000` vendor
//! aliases.

use osarch_cpu::Arch;
use osarch_kernel::Primitive;

/// Parse an architecture name. Case-insensitive; accepts the display names
/// (`CVAX`, `88000`, `R2000`, `R3000`, `SPARC`, `i860`, `RS6000`) plus the
/// vendor-prefixed `mips-r2000` / `mips-r3000` aliases.
#[must_use]
pub fn parse_arch(name: &str) -> Option<Arch> {
    let lowered = name.to_ascii_lowercase();
    let canonical = match lowered.as_str() {
        "mips-r2000" => "r2000",
        "mips-r3000" => "r3000",
        other => other,
    };
    Arch::all()
        .into_iter()
        .find(|a| a.to_string().to_ascii_lowercase() == canonical)
}

/// Parse a primitive name. Case-insensitive; accepts the short CLI forms
/// (`syscall`, `trap`, `pte`, `ctxsw`), the long forms (`null-syscall`,
/// `pte-change`, `context-switch`) and the snake_case JSON tags.
#[must_use]
pub fn parse_primitive(name: &str) -> Option<Primitive> {
    match name.to_ascii_lowercase().as_str() {
        "syscall" | "null-syscall" | "null_syscall" => Some(Primitive::NullSyscall),
        "trap" => Some(Primitive::Trap),
        "pte" | "pte-change" | "pte_change" => Some(Primitive::PteChange),
        "ctxsw" | "context-switch" | "context_switch" => Some(Primitive::ContextSwitch),
        _ => None,
    }
}

/// Every accepted architecture spelling, for error messages: the display
/// names in table order with the MIPS vendor aliases attached.
#[must_use]
pub fn arch_names() -> String {
    Arch::all()
        .into_iter()
        .map(|arch| match arch {
            Arch::R2000 => "R2000 (alias mips-r2000)".to_string(),
            Arch::R3000 => "R3000 (alias mips-r3000)".to_string(),
            other => other.to_string(),
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Every accepted primitive spelling, for error messages.
#[must_use]
pub fn primitive_names() -> &'static str {
    "syscall (null-syscall), trap, pte (pte-change), ctxsw (context-switch)"
}

/// Every registered report name, for error messages (plus `all`).
#[must_use]
pub fn report_names() -> String {
    let mut names: Vec<&str> = crate::session::REPORTS
        .iter()
        .map(|spec| spec.name)
        .collect();
    names.push("all");
    names.join(", ")
}

/// Every serve-protocol op, in protocol order: the one op table. The
/// telemetry hub keys its per-op latency windows by index into it
/// ([`op_slot`]), and [`op_names`] lists it in error messages.
pub const OP_NAMES: [&str; 14] = [
    "ping",
    "measure",
    "table",
    "lint",
    "analyze",
    "trace",
    "counters",
    "spans",
    "metrics",
    "health",
    "cluster",
    "shutdown",
    "admin",
    "spec-fetch",
];

/// The [`OP_NAMES`] index of an op name. Unknown names (only possible if
/// a new op forgets to register) fold into slot 0 rather than panic.
#[must_use]
pub fn op_slot(op: &str) -> usize {
    OP_NAMES.iter().position(|name| *name == op).unwrap_or(0)
}

/// Every serve-protocol op name, in protocol order. The CLI subcommands of
/// the same names parse identically, so the one-line unknown-op error is
/// shared between front ends.
#[must_use]
pub fn op_names() -> String {
    OP_NAMES.join(", ")
}

/// One-line error for an unknown serve-protocol op.
#[must_use]
pub fn unknown_op(name: &str) -> String {
    format!("unknown op {name:?}; valid ops: {}", op_names())
}

/// One-line error for an unknown architecture name.
#[must_use]
pub fn unknown_arch(name: &str) -> String {
    format!(
        "unknown architecture {name:?}; valid names: {}",
        arch_names()
    )
}

/// One-line error for an unknown primitive name.
#[must_use]
pub fn unknown_primitive(name: &str) -> String {
    format!(
        "unknown primitive {name:?}; valid names: {}",
        primitive_names()
    )
}

/// One-line error for an unknown report name.
#[must_use]
pub fn unknown_report(name: &str) -> String {
    format!("unknown report {name:?}; valid names: {}", report_names())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_display_name_and_alias_parses() {
        for arch in Arch::all() {
            assert_eq!(parse_arch(&arch.to_string()), Some(arch));
            assert_eq!(parse_arch(&arch.to_string().to_lowercase()), Some(arch));
        }
        assert_eq!(parse_arch("mips-r2000"), Some(Arch::R2000));
        assert_eq!(parse_arch("MIPS-R3000"), Some(Arch::R3000));
        assert_eq!(parse_arch("vax"), None);
        assert_eq!(parse_arch(""), None);
    }

    #[test]
    fn primitive_spellings_parse() {
        for (name, primitive) in [
            ("syscall", Primitive::NullSyscall),
            ("null_syscall", Primitive::NullSyscall),
            ("TRAP", Primitive::Trap),
            ("pte-change", Primitive::PteChange),
            ("context_switch", Primitive::ContextSwitch),
            ("ctxsw", Primitive::ContextSwitch),
        ] {
            assert_eq!(parse_primitive(name), Some(primitive), "{name}");
        }
        assert_eq!(parse_primitive("fork"), None);
    }

    #[test]
    fn op_registry_lists_analyze_between_lint_and_trace() {
        let ops = op_names();
        assert!(ops.contains("lint, analyze, trace"), "{ops}");
        let err = unknown_op("frobnicate");
        assert!(err.contains("analyze") && !err.contains('\n'), "{err}");
    }

    #[test]
    fn op_slots_index_the_op_table() {
        assert_eq!(op_slot("ping"), 0);
        assert_eq!(op_slot("measure"), 1);
        assert_eq!(op_slot("table"), 2);
        assert_eq!(op_slot("metrics"), 8);
        assert_eq!(op_slot("spec-fetch"), OP_NAMES.len() - 1);
        assert_eq!(op_slot("nonsense"), 0, "unknown ops fold into slot 0");
    }

    #[test]
    fn error_lines_list_the_aliases() {
        let err = unknown_arch("vax");
        assert!(
            err.contains("mips-r2000") && err.contains("mips-r3000"),
            "{err}"
        );
        assert!(!err.contains('\n'), "one line: {err}");
        let err = unknown_primitive("fork");
        assert!(err.contains("ctxsw") && !err.contains('\n'), "{err}");
        let err = unknown_report("table99");
        assert!(err.contains("table1") && err.contains("all"), "{err}");
    }
}
