//! The generated inputs: every spec either workload can send must parse
//! and pass both activation gates, and a seed must reproduce its stream.

use osarch_core::{AbsintAnalyzer, Analyzer, ArchSpec};
use osarch_perfbench::gen;

fn assert_admissible(doc: &str) {
    let (_, spec) = ArchSpec::from_json(doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
    let lint = Analyzer::new().analyze_spec(&spec);
    assert!(lint.passes(false), "lint: {}\n{doc}", lint.summary());
    let (_, refuted, _) = AbsintAnalyzer::new().analyze_spec(&spec).verdict_counts();
    assert_eq!(refuted, 0, "absint refutes {doc}");
}

#[test]
fn spec_streams_for_seeds_1_to_64_pass_from_json_lint_and_absint() {
    for seed in 1..=64 {
        let (initial, swaps) = gen::churn_stream(seed, 48);
        assert_eq!(initial.len(), 7);
        for doc in initial.iter().chain(swaps.iter().map(|swap| &swap.doc)) {
            assert_admissible(doc);
        }
        for index in 0..96 {
            assert_admissible(&gen::whatif_doc(seed, index));
        }
    }
}

#[test]
fn a_seed_reproduces_its_inputs_and_seeds_differ() {
    let (a_initial, a_swaps) = gen::churn_stream(5, 20);
    let (b_initial, b_swaps) = gen::churn_stream(5, 20);
    assert_eq!(a_initial, b_initial);
    let docs = |swaps: &[gen::Swap]| swaps.iter().map(|s| s.doc.clone()).collect::<Vec<_>>();
    assert_eq!(docs(&a_swaps), docs(&b_swaps));
    assert_ne!(docs(&a_swaps), docs(&gen::churn_stream(6, 20).1));
    assert_eq!(gen::whatif_doc(9, 3), gen::whatif_doc(9, 3));
    assert_ne!(gen::whatif_doc(9, 3), gen::whatif_doc(10, 3));

    let mix = gen::Mix::new(gen::builtin_keys(), &gen::Skew::Harmonic, 5);
    let draws = |seed| {
        let mut rng = gen::Rng::new(seed, 1);
        (0..64).map(|_| mix.draw(&mut rng)).collect::<Vec<_>>()
    };
    assert_eq!(draws(3), draws(3));
    assert_ne!(draws(3), draws(4));
}

#[test]
fn harmonic_skew_concentrates_on_few_keys_and_uniform_does_not() {
    let mut rng = gen::Rng::new(1, 2);
    let mut counts = |skew: &gen::Skew| {
        let mix = gen::Mix::new(gen::builtin_keys(), skew, 1);
        let mut counts = vec![0usize; mix.keys().len()];
        for _ in 0..28_000 {
            counts[mix.draw(&mut rng)] += 1;
        }
        counts.sort_unstable();
        counts
    };
    let harmonic = counts(&gen::Skew::Harmonic);
    // Rank 1 of 28 carries 1/H(28) ≈ 25% of the draws.
    assert!(harmonic[27] > 6_000, "{harmonic:?}");
    let uniform = counts(&gen::Skew::Uniform);
    assert!(uniform[0] > 700 && uniform[27] < 1_300, "{uniform:?}");
}
