//! Integration tests for the shared measurement session, the report
//! registry and the machine-readable emitters.
//!
//! The global-simulation-count assertion lives in its own test binary
//! (`session_sharing.rs`): these tests call [`osarch_core::measure_fresh`],
//! which bumps the process-wide counter.

use osarch_core::session::{self, MeasurementSession};
use osarch_core::{measure_fresh, metrics, Arch, Primitive, Table};

/// A session's memoized measurement equals a fresh simulation,
/// field-for-field, on every modelled architecture.
#[test]
fn memoized_equals_fresh_for_every_arch() {
    let session = MeasurementSession::new();
    for arch in Arch::all() {
        let memoized = session.measurement(arch);
        let fresh = measure_fresh(arch);
        assert_eq!(memoized, &fresh, "{arch}");
    }
    assert_eq!(session.misses(), Arch::COUNT as u64);
    assert_eq!(session.hits(), 0);
    // A second pass is pure hits.
    for arch in Arch::all() {
        session.measurement(arch);
    }
    assert_eq!(session.misses(), Arch::COUNT as u64);
    assert_eq!(session.hits(), Arch::COUNT as u64);
}

/// Two parallel `all_tables` runs render byte-identically.
#[test]
fn parallel_report_generation_is_deterministic() {
    let first: String = session::all_tables().iter().map(Table::render).collect();
    let second: String = session::all_tables().iter().map(Table::render).collect();
    assert_eq!(first, second);
    assert_eq!(first.matches("Table 1:").count(), 1);
}

/// Every table name the CLI advertises resolves in the registry, and the
/// registry advertises nothing more.
#[test]
fn every_advertised_name_resolves() {
    let advertised = [
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
        "table6",
        "table7",
        "intext",
        "ablations",
        "vm",
        "tlb",
        "threads",
        "future",
        "depth",
    ];
    for name in advertised {
        let spec = session::report_by_name(name)
            .unwrap_or_else(|| panic!("advertised name {name:?} missing from registry"));
        assert_eq!(spec.name, name);
        assert!(!spec.summary.is_empty(), "{name}");
        let tables = session::resolve_reports(Some(name)).expect(name);
        assert_eq!(tables.len(), 1, "{name}");
        assert!(!tables[0].render().is_empty(), "{name}");
    }
    assert_eq!(session::REPORTS.len(), advertised.len());
    assert!(session::report_by_name("table99").is_none());
    assert!(session::resolve_reports(Some("nonsense")).is_none());
}

/// `resolve_reports` treats `None` and `"all"` as the full registry, in
/// registry order.
#[test]
fn resolve_all_returns_the_full_registry_in_order() {
    let tables = session::resolve_reports(None).expect("all");
    assert_eq!(tables.len(), session::REPORTS.len());
    assert!(tables[0].title().starts_with("Table 1"));
    assert!(tables.last().unwrap().title().contains("what-ifs"));
}

/// The benchmark document is valid JSON and covers all four primitives on
/// every modelled architecture.
#[test]
fn bench_json_is_valid_and_covers_every_primitive() {
    let doc = metrics::bench_json();
    assert_eq!(metrics::validate_json(&doc), Ok(()));
    assert!(doc.contains(&format!("\"schema\":\"{}\"", metrics::BENCH_SCHEMA)));
    let arch_count = Arch::all().len();
    assert_eq!(doc.matches("\"arch\":").count(), arch_count);
    for name in ["null_syscall", "trap", "pte_change", "context_switch"] {
        assert_eq!(
            doc.matches(&format!("\"name\":\"{name}\"")).count(),
            arch_count,
            "{name} must appear once per architecture"
        );
    }
    // Five phases per primitive, four primitives per architecture.
    assert_eq!(
        doc.matches("\"phase\":").count(),
        arch_count * Primitive::all().len() * 5
    );
}

/// The JSON table emitter reproduces the same cells the text renderer
/// shows, for every registered report.
#[test]
fn tables_json_is_valid_for_the_full_registry() {
    let tables = session::all_tables();
    let doc = metrics::tables_json(&tables);
    assert_eq!(metrics::validate_json(&doc), Ok(()));
    for table in &tables {
        assert!(
            doc.contains(&metrics::json_escape(table.title())),
            "{}",
            table.title()
        );
    }
}
