//! Golden-output snapshots of `osarch analyze --json`, for one
//! architecture and for all of them.
//!
//! The proof artifact is part of the tool's interface: CI archives it, and
//! downstream consumers parse it by the `osarch-absint/1` schema. Any
//! change to the rule pack, the verdicts, the witness paths, the emitter,
//! or the order in which the per-architecture reports merge shows up as a
//! diff against `tests/golden/absint_sparc.json` or
//! `tests/golden/absint_all.json` — regenerate them with `osarch analyze
//! sparc --json` and `osarch analyze --json` when the change is
//! intentional.

use osarch::{metrics, AbsintAnalyzer, Arch};

const GOLDEN: &str = include_str!("golden/absint_sparc.json");
const GOLDEN_ALL: &str = include_str!("golden/absint_all.json");

#[test]
fn sparc_absint_json_matches_the_golden_snapshot() {
    let report = AbsintAnalyzer::new().analyze_spec(&Arch::Sparc.spec());
    let doc = metrics::absint_json(&report);
    assert_eq!(metrics::validate_json(&doc), Ok(()));
    assert_eq!(
        doc, GOLDEN,
        "analyze output drifted from the snapshot; if intentional, regenerate \
         tests/golden/absint_sparc.json with `osarch analyze sparc --json`"
    );
}

#[test]
fn all_architectures_absint_json_matches_the_golden_snapshot() {
    let doc = metrics::absint_json(&AbsintAnalyzer::new().analyze_all());
    assert_eq!(
        doc, GOLDEN_ALL,
        "analyze output drifted from the snapshot; if intentional, regenerate \
         tests/golden/absint_all.json with `osarch analyze --json`"
    );
}

#[test]
fn golden_snapshot_itself_is_well_formed() {
    assert_eq!(metrics::validate_json(GOLDEN), Ok(()));
    assert!(GOLDEN.contains("\"schema\":\"osarch-absint/1\""));
    // Every SPARC program proves every invariant; the only finding is the
    // OA203 TLB-race note with its witness path.
    assert!(GOLDEN.contains("\"verdicts\":{\"proved\":15,\"refuted\":0,\"unknown\":0}"));
    assert!(GOLDEN.contains("\"counts\":{\"error\":0,\"warning\":0,\"info\":1}"));
    assert!(GOLDEN.contains("\"witness\":[0,8]"));
    assert_eq!(metrics::validate_json(GOLDEN_ALL), Ok(()));
    assert!(GOLDEN_ALL.contains("\"verdicts\":{\"proved\":99,\"refuted\":0,\"unknown\":0}"));
}
