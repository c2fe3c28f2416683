//! Golden snapshot of every per-primitive counter.
//!
//! `tests/golden/counters.json` holds one `osarch-counters/1` document per
//! line: the counters of `trace_primitive` for each architecture × primitive
//! (7 × 4), in `Arch::all()` × `Primitive::all()` order, which is what
//! `osarch trace ARCH OP --counters` prints last. The bench and table
//! goldens pin totals and rounded times; these pin every phase's cycles,
//! instructions, cache and TLB misses, write-buffer and window-trap
//! counts, so a change to the simulator's host-side structures cannot move
//! one unnoticed. Regenerate
//! the file only for a model change, with the loop in CI's trace smoke test.

use osarch::{metrics, trace_primitive, Arch, Primitive};

const GOLDEN: &str = include_str!("golden/counters.json");

#[test]
fn every_counter_matches_the_golden_snapshot() {
    let lines: Vec<&str> = GOLDEN.lines().collect();
    let keys: Vec<(Arch, Primitive)> = Arch::all()
        .into_iter()
        .flat_map(|arch| Primitive::all().map(|primitive| (arch, primitive)))
        .collect();
    assert_eq!(lines.len(), keys.len(), "one document per arch × primitive");
    for ((arch, primitive), line) in keys.into_iter().zip(lines) {
        let doc = metrics::counters_json(&trace_primitive(arch, primitive).counters);
        assert_eq!(
            doc.trim_end(),
            line,
            "{arch} {} counters drifted from tests/golden/counters.json",
            primitive.label()
        );
    }
}

#[test]
fn golden_snapshot_is_one_well_formed_document_per_line() {
    for line in GOLDEN.lines() {
        assert_eq!(metrics::validate_json(line), Ok(()));
        assert!(line.starts_with("{\"schema\":\"osarch-counters/1\",\"counters\":[{"));
    }
}
