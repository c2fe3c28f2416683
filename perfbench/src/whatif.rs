//! `whatif_sweep`: a fixed number of seeded, unique what-if specs (a random
//! base machine plus scalar overrides), each vetted by lint and abstract
//! interpretation and then measured by `measure_with_spec`, on a closed
//! loop of two threads. The count is a function of `--seconds` alone, so
//! the simulated cycle and instruction totals repeat exactly for a seed.

use crate::gen;
use crate::ledger;
use crate::report::{self, Report};
use crate::spans::Tracer;
use crate::stats;
use osarch_core::kernel::{measure_with_spec, PrimitiveMeasurement};
use osarch_core::{AbsintAnalyzer, Analyzer, ArchSpec, Primitive};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Specs per second of `--seconds`: the sweep's rate on the reference
/// host (2 cores), frozen so N is identical on both commits of a
/// comparison.
const SPECS_PER_SECOND: f64 = 3_000.0;
/// The sweep runs in this many chunks; the end-to-end metrics are medians
/// over them.
const CHUNKS: usize = 48;
/// Sweep threads.
const THREADS: usize = 2;
/// Every this-many-th spec is measured again on one thread afterwards and
/// must reproduce its statistics exactly.
const RECHECK_EVERY: usize = 64;
/// Specs replayed step by step through the kernel ledger.
const LEDGER_SPECS: usize = 64;

/// What one sweep measured.
#[derive(Debug, Default)]
struct Sweep {
    elapsed_s: f64,
    latency_ns: Vec<u64>,
    failed: u64,
    cycles: u64,
    instructions: u64,
    /// `(index, spec, measurement)` of every [`RECHECK_EVERY`]-th spec.
    kept: Vec<(usize, ArchSpec, PrimitiveMeasurement)>,
}

impl Sweep {
    fn absorb(&mut self, other: Sweep) {
        self.elapsed_s += other.elapsed_s;
        self.latency_ns.extend(other.latency_ns);
        self.failed += other.failed;
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.kept.extend(other.kept);
    }
}

/// Vet and measure every spec on [`THREADS`] threads; `first` is the
/// sweep index of `specs[0]`.
fn sweep(specs: &[ArchSpec], first: usize, tracer: &Tracer) -> Sweep {
    let next = AtomicUsize::new(0);
    let total = Mutex::new(Sweep::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                let lint = Analyzer::new();
                let absint = AbsintAnalyzer::new();
                let mut mine = Sweep::default();
                loop {
                    let offset = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = specs.get(offset) else {
                        break;
                    };
                    let begin = Instant::now();
                    let root = tracer.reserve();
                    let linted =
                        tracer.time("analysis.lint_spec", root, 1, || lint.analyze_spec(spec));
                    let proved = tracer.time("analysis.absint_spec", root, 1, || {
                        absint.analyze_spec(spec)
                    });
                    if !linted.passes(false) || proved.verdict_counts().1 > 0 {
                        mine.failed += 1;
                        continue;
                    }
                    let measured = tracer.time("whatif.measure", root, 1, || {
                        measure_with_spec(spec.clone())
                    });
                    mine.latency_ns.push(begin.elapsed().as_nanos() as u64);
                    tracer.record_with_id(root, "whatif.op", 0, begin);
                    for primitive in Primitive::all() {
                        mine.cycles += measured.stats(primitive).cycles;
                        mine.instructions += measured.stats(primitive).instructions;
                    }
                    let index = first + offset;
                    if index.is_multiple_of(RECHECK_EVERY) {
                        mine.kept.push((index, spec.clone(), measured));
                    }
                }
                total.lock().expect("sweep totals").absorb(mine);
            });
        }
    });
    let mut total = total.into_inner().expect("sweep totals");
    total.elapsed_s = start.elapsed().as_secs_f64();
    total
}

/// Generate and parse the what-if specs numbered `indices`.
fn specs_for(seed: u64, indices: std::ops::Range<usize>) -> Result<Vec<ArchSpec>, String> {
    indices
        .map(|index| ArchSpec::from_json(&gen::whatif_doc(seed, index)).map(|(_, spec)| spec))
        .collect()
}

/// Run the sweep in [`CHUNKS`] chunks. Each chunk is set up (its specs
/// generated and parsed), then vetted and measured.
#[must_use]
pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Report {
    let mut report = Report::new();
    let count = ((seconds * SPECS_PER_SECOND).round() as usize).max(CHUNKS);
    let chunk_len = count.div_ceil(CHUNKS);
    let (mut setups, mut rates, mut p50s, mut p90s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut result = Sweep::default();
    let mut first_chunk = Vec::new();
    let begin = Instant::now();
    for first in (0..count).step_by(chunk_len) {
        let set_up = Instant::now();
        let specs = match specs_for(seed, first..(first + chunk_len).min(count)) {
            Ok(specs) => specs,
            Err(why) => {
                report.fail(format!("a generated what-if spec does not parse: {why}"));
                return report;
            }
        };
        setups.push(set_up.elapsed().as_secs_f64());
        tracer.record("phase.setup", 0, set_up, Instant::now(), specs.len() as u64);
        let part = sweep(&specs, first, tracer);
        rates.push(part.latency_ns.len() as f64 / part.elapsed_s);
        let latency = stats::sorted_us(&part.latency_ns);
        p50s.push(stats::percentile_sorted(&latency, 50.0));
        p90s.push(stats::percentile_sorted(&latency, 90.0));
        result.absorb(part);
        if first == 0 {
            first_chunk = specs;
        }
    }
    tracer.record("phase.sweep", 0, begin, Instant::now(), count as u64);
    // The whole sweep's set-up, from its chunks' median.
    let chunks = setups.len();
    report.set_sampled(
        "setup_s",
        stats::median(&mut setups) * chunks as f64,
        chunks,
    );
    report.set("peak_rss_mib", report::peak_rss_mib());
    let measured = result.latency_ns.len();
    report.set_sampled("ops_per_s", stats::median(&mut rates), measured);
    report.set_sampled("latency_p50_us", stats::median(&mut p50s), measured);
    report.set_sampled("latency_p90_us", stats::median(&mut p90s), measured);
    report.set_sampled(
        "latency_p99_us",
        stats::percentile_sorted(&stats::sorted_us(&result.latency_ns), 99.0),
        measured,
    );
    report.attempted = count as u64;
    report.failed = result.failed;
    report.set("sim.cycles_total", result.cycles as f64);
    report.set("sim.instructions_total", result.instructions as f64);
    report
        .samples
        .insert("sim.cycles_total".to_string(), measured as u64);

    for (index, spec, kept) in &result.kept {
        if measure_with_spec(spec.clone()) != *kept {
            report.fail(format!(
                "what-if spec {index} measured differently on one thread"
            ));
        }
    }
    report
        .samples
        .insert("specs_rechecked".to_string(), result.kept.len() as u64);

    if tracer.on() {
        for (metric, span) in [
            ("analysis.lint_spec_us", "analysis.lint_spec"),
            ("analysis.absint_spec_us", "analysis.absint_spec"),
        ] {
            let mut per_op = tracer.per_op_us(span);
            report.set_sampled(metric, stats::median(&mut per_op), per_op.len());
        }
        ledger::absint_all(tracer, &mut report);
        let sample: Vec<ArchSpec> = result
            .kept
            .iter()
            .take(LEDGER_SPECS)
            .map(|(_, spec, _)| spec.clone())
            .collect();
        let _ = ledger::kernel(&sample, tracer, &mut report);
        let untraced = Tracer::new(false);
        let (mut plain, mut sampled) = (0.0, 0.0);
        for on in [false, true, true, false] {
            let timed = sweep(&first_chunk, 0, if on { tracer } else { &untraced });
            report.attempted += first_chunk.len() as u64;
            report.failed += timed.failed;
            *(if on { &mut sampled } else { &mut plain }) += timed.elapsed_s;
        }
        report.set("bench.trace_overhead_pct", (sampled / plain - 1.0) * 100.0);
    }
    report
}
