//! Golden snapshots of every simulated number the CLI reports.
//!
//! `tests/golden/bench_repro.json` is `osarch bench-json -` (every
//! architecture × primitive measurement with its per-phase counters) and
//! `tests/golden/tables.json` is `osarch tables --json` (all 14 tables).
//! Table tolerances elsewhere allow drift within the paper's bands; these
//! files allow none, so a change to the simulator's host-side data
//! structures cannot shift a cycle count unnoticed. Regenerate them only
//! when a calibration or model change is intended.

use osarch::{metrics, session};

const BENCH_GOLDEN: &str = include_str!("golden/bench_repro.json");
const TABLES_GOLDEN: &str = include_str!("golden/tables.json");

#[test]
fn bench_json_matches_the_golden_snapshot() {
    let doc = metrics::bench_json();
    assert_eq!(
        doc, BENCH_GOLDEN,
        "measurements drifted from the snapshot; if intentional, regenerate \
         tests/golden/bench_repro.json with \
         `osarch bench-json - > tests/golden/bench_repro.json`"
    );
}

#[test]
fn tables_json_matches_the_golden_snapshot() {
    let tables = session::resolve_reports(None).expect("every table resolves");
    let doc = metrics::tables_json(&tables);
    assert_eq!(
        doc, TABLES_GOLDEN,
        "tables drifted from the snapshot; if intentional, regenerate \
         tests/golden/tables.json with \
         `osarch tables --json > tests/golden/tables.json`"
    );
}

#[test]
fn golden_snapshots_are_well_formed() {
    assert_eq!(metrics::validate_json(BENCH_GOLDEN), Ok(()));
    assert_eq!(metrics::validate_json(TABLES_GOLDEN), Ok(()));
    assert!(BENCH_GOLDEN.contains("\"schema\":\"osarch-bench/1\""));
}
