//! The live spec hot-swap soaks at the configuration CI runs, on one
//! node and on a ring: each holds every invariant, and a same-seed rerun
//! replays every seeded artifact — the rollback stream, the final
//! registry digest, the victim and the transcript — exactly.

use osarch_serve::soak::{self, Scenario, SoakReport};

fn swap_soak(scenario: &Scenario) -> SoakReport {
    let report = soak::run(scenario).expect("swap soak starts");
    assert!(
        report.passed(),
        "swap soak violations: {:?}",
        report.violations
    );
    report
}

#[test]
fn swap_soak_forces_rollbacks_and_replays_from_its_seed() {
    // Twelve swaps: at seed 42 the corrupt-spec stream plans no fault in
    // the first six, so a six-swap soak fails by design.
    let scenario = Scenario::swap(42, 12);
    let first = swap_soak(&scenario);
    assert!(
        first.auto_rollbacks >= 1,
        "the schedule must force a rollback: {:?}",
        first.rollback_stream
    );
    assert_eq!(first.explicit_rollbacks, 1);
    assert!(first
        .transcript
        .iter()
        .any(|line| line.contains("rolled back")));

    // Torn admin replies differ run to run; the transcript may not.
    let second = swap_soak(&scenario);
    assert_eq!(first.rollback_stream, second.rollback_stream);
    assert_eq!(
        (first.final_epoch, &first.final_digest),
        (second.final_epoch, &second.final_digest)
    );
    assert_eq!(first.transcript, second.transcript);
}

#[test]
fn swap_cluster_soak_converges_every_node_and_replays_from_its_seed() {
    let scenario = Scenario::swap_cluster(42, 8);
    let first = swap_soak(&scenario);
    assert!(first.spec_converged, "every node must hold the final spec");
    assert!(
        first.reconverged,
        "membership must re-agree after the respawn"
    );
    assert!(first
        .transcript
        .iter()
        .any(|line| line.starts_with("kill: node")));

    let second = swap_soak(&scenario);
    assert_eq!(first.victim, second.victim, "the kill schedule must replay");
    assert_eq!(first.transcript, second.transcript);
}
