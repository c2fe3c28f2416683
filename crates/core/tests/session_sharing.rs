//! The sharing acceptance test, alone in its own binary: nothing else in
//! this process may run a fresh simulation, so the global counter's value
//! is exact.

use osarch_core::session;
use osarch_core::{simulation_count, Arch, Table};

/// Generating every registered report twice runs exactly one simulation
/// per architecture, total.
#[test]
fn all_reports_simulate_each_architecture_exactly_once() {
    let shared = session::shared();
    shared.prime();
    assert_eq!(simulation_count(), Arch::COUNT as u64);
    assert_eq!(shared.misses(), Arch::COUNT as u64);

    let first: String = session::all_tables().iter().map(Table::render).collect();
    let second: String = session::all_tables().iter().map(Table::render).collect();
    assert_eq!(
        simulation_count(),
        Arch::COUNT as u64,
        "report generation must reuse the shared measurements"
    );
    assert_eq!(shared.misses(), Arch::COUNT as u64);
    assert!(shared.hits() > 0, "the reports must have read the session");
    assert_eq!(first, second);
}
