//! Golden-output snapshots of `osarch lint --json`, for one architecture
//! and for all of them.
//!
//! The document is part of the tool's interface: CI archives it, and
//! downstream consumers parse it by the `osarch-lint/1` schema. Any change
//! to the rule set, the diagnostic wording, the emitter, or the order in
//! which the per-architecture reports merge shows up as a diff against
//! `tests/golden/lint_sparc.json` or `tests/golden/lint_all.json` —
//! regenerate them with `osarch lint sparc --json` and `osarch lint
//! --json` when the change is intentional.

use osarch::{metrics, Analyzer, Arch};

const GOLDEN: &str = include_str!("golden/lint_sparc.json");
const GOLDEN_ALL: &str = include_str!("golden/lint_all.json");

#[test]
fn sparc_lint_json_matches_the_golden_snapshot() {
    let report = Analyzer::new().analyze_spec(&Arch::Sparc.spec());
    let doc = metrics::lint_json(&report);
    assert_eq!(metrics::validate_json(&doc), Ok(()));
    assert_eq!(
        doc, GOLDEN,
        "lint output drifted from the snapshot; if intentional, regenerate \
         tests/golden/lint_sparc.json with `osarch lint sparc --json`"
    );
}

#[test]
fn all_architectures_lint_json_matches_the_golden_snapshot() {
    let doc = metrics::lint_json(&Analyzer::new().analyze_all());
    assert_eq!(
        doc, GOLDEN_ALL,
        "lint output drifted from the snapshot; if intentional, regenerate \
         tests/golden/lint_all.json with `osarch lint --json`"
    );
}

#[test]
fn golden_snapshot_itself_is_well_formed() {
    assert_eq!(metrics::validate_json(GOLDEN), Ok(()));
    assert!(GOLDEN.contains("\"schema\":\"osarch-lint/1\""));
    assert!(GOLDEN.contains("\"counts\":{\"error\":0,\"warning\":0,\"info\":1}"));
    assert_eq!(metrics::validate_json(GOLDEN_ALL), Ok(()));
    assert!(GOLDEN_ALL.contains("\"programs_checked\":33,\"architectures\":7,"));
    assert!(GOLDEN_ALL.contains("\"counts\":{\"error\":0,\"warning\":0,\"info\":6}"));
}
