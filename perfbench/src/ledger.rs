//! Per-layer timings, measured from outside: each function here calls one
//! layer's public functions on the workload's own inputs, wrapping every
//! call (or every pass over a batch of inputs) in a span. A per-layer
//! metric is the median per-operation time of its spans. Only traced runs
//! call into this module.

use crate::report::Report;
use crate::spans::Tracer;
use crate::stats;
use osarch_core::kernel::{measure_fresh, measure_with_spec, HandlerSet, Machine, Primitive};
use osarch_core::mem::MemorySystem;
use osarch_core::{AbsintAnalyzer, Analyzer, Arch, ArchSpec};
use osarch_serve::protocol::{self, Frame, FrameBuf};
use osarch_serve::{ShardedCache, SpecRegistry, SpecSnapshot};
use std::hint::black_box;
use std::time::Instant;

/// Passes over a batch of requests: each pass is one span, and the metric
/// is the median pass, so one preempted pass cannot move it.
const PASSES: usize = 15;

/// Socket-read-sized chunks fed to the framer.
const READ_CHUNK: usize = 4096;

/// Median per-operation microseconds of the spans named `name`.
fn median_us(tracer: &Tracer, name: &str) -> f64 {
    stats::median(&mut tracer.per_op_us(name))
}

/// The protocol layer over the workload's request lines: framing from
/// socket-sized reads, parsing, cache-key derivation, and the success
/// envelope around each request's expected payload.
pub fn protocol(
    requests: &[(String, String)],
    snapshot: &SpecSnapshot,
    tracer: &Tracer,
    report: &mut Report,
) {
    let n = requests.len() as u64;
    let mut wire = Vec::new();
    for (line, _) in requests {
        wire.extend_from_slice(line.as_bytes());
        wire.push(b'\n');
    }
    let root = tracer.reserve();
    let started = Instant::now();
    for _ in 0..PASSES {
        let framed = tracer.time("protocol.frame", root, n, || {
            let mut framer = FrameBuf::new(8 * 1024);
            let (mut fed, mut lines) = (0, 0u64);
            while fed < wire.len() {
                let spare = framer.spare();
                let take = spare.len().min(READ_CHUNK).min(wire.len() - fed);
                spare[..take].copy_from_slice(&wire[fed..fed + take]);
                framer.commit(take);
                fed += take;
                while let Frame::Line { start, end } = framer.next_frame() {
                    black_box(framer.bytes(start, end));
                    lines += 1;
                }
            }
            lines
        });
        if framed != n {
            report.fail(format!("framer produced {framed} lines from {n}"));
        }
        let parsed: Vec<_> = tracer.time("protocol.parse", root, n, || {
            requests
                .iter()
                .map(|(line, _)| protocol::parse_request(line))
                .collect()
        });
        let Ok(parsed) = parsed.into_iter().collect::<Result<Vec<_>, _>>() else {
            report.fail("a generated request line does not parse");
            return;
        };
        tracer.time("protocol.cache_key", root, n, || {
            for request in &parsed {
                black_box(request.query.cache_key(snapshot));
            }
        });
        tracer.time("protocol.envelope", root, n, || {
            for (request, (_, payload)) in parsed.iter().zip(requests) {
                black_box(protocol::ok_envelope(
                    &request.id,
                    true,
                    snapshot.epoch(),
                    3,
                    payload,
                ));
            }
        });
    }
    tracer.record_with_id(root, "ledger.protocol", 0, started);
    for (metric, span) in [
        ("protocol.frame_ns", "protocol.frame"),
        ("protocol.parse_ns", "protocol.parse"),
        ("protocol.cache_key_ns", "protocol.cache_key"),
        ("protocol.envelope_ns", "protocol.envelope"),
    ] {
        report.set_sampled(metric, median_us(tracer, span) * 1000.0, PASSES);
    }
}

/// A cache hit: `try_get` over the workload's request keys against a
/// 16-shard cache holding every key the workload reads.
pub fn cache_hits(
    request_keys: &[String],
    entries: &[(String, String)],
    tracer: &Tracer,
    report: &mut Report,
) {
    let cache = ShardedCache::new(16);
    for (key, value) in entries {
        cache.get_or_compute(key, || value.clone());
    }
    let root = tracer.reserve();
    let started = Instant::now();
    let n = request_keys.len() as u64;
    for _ in 0..PASSES {
        let hits = tracer.time("cache.hit", root, n, || {
            request_keys
                .iter()
                .filter(|key| black_box(cache.try_get(key)).is_some())
                .count()
        });
        if hits as u64 != n {
            report.fail(format!("cache ledger: {hits} hits for {n} lookups"));
        }
    }
    tracer.record_with_id(root, "ledger.cache", 0, started);
    report.set_sampled(
        "cache.hit_ns",
        median_us(tracer, "cache.hit") * 1000.0,
        PASSES,
    );
}

/// The post-swap reap: `retain_prefix` over a cache holding every key of
/// the previous epoch, as the server runs it after each commit.
pub fn cache_reap(old_keys: &[String], new_prefix: &str, tracer: &Tracer, report: &mut Report) {
    const REAPS: usize = 50;
    let root = tracer.reserve();
    let started = Instant::now();
    for _ in 0..REAPS {
        let cache = ShardedCache::new(16);
        for key in old_keys {
            cache.get_or_compute(key, String::new);
        }
        tracer.time("cache.reap", root, 1, || cache.retain_prefix(new_prefix));
        if old_keys.iter().any(|key| cache.try_get(key).is_some()) {
            report.fail("an old-epoch entry survived the reap");
        }
    }
    tracer.record_with_id(root, "ledger.reap", 0, started);
    report.set_sampled("cache.reap_us", median_us(tracer, "cache.reap"), REAPS);
}

/// The registry commit step of an activation: derive the successor
/// snapshot and swap it in, replayed over the workload's documents.
pub fn registry_commit(docs: &[String], tracer: &Tracer, report: &mut Report) {
    let registry = SpecRegistry::new();
    let root = tracer.reserve();
    let started = Instant::now();
    for doc in docs {
        let base = registry.snapshot();
        let committed = tracer.time("registry.commit", root, 1, || {
            base.with_spec(doc, base.epoch() + 1)
                .map(|next| registry.commit(next).is_ok())
        });
        if committed != Ok(true) {
            report.fail(format!("registry ledger could not commit: {committed:?}"));
        }
    }
    tracer.record_with_id(root, "ledger.registry", 0, started);
    report.set_sampled(
        "registry.commit_us",
        median_us(tracer, "registry.commit"),
        docs.len(),
    );
}

/// The activation gates, lint and abstract interpretation, over `specs`.
pub fn analysis_specs(specs: &[ArchSpec], tracer: &Tracer, report: &mut Report) {
    let lint = Analyzer::new();
    let absint = AbsintAnalyzer::new();
    let root = tracer.reserve();
    let started = Instant::now();
    for spec in specs {
        let linted = tracer.time("analysis.lint_spec", root, 1, || lint.analyze_spec(spec));
        let proved = tracer.time("analysis.absint_spec", root, 1, || {
            absint.analyze_spec(spec)
        });
        if !linted.passes(false) || proved.verdict_counts().1 > 0 {
            report.fail(format!("a generated {} spec fails its gates", spec.arch));
        }
    }
    tracer.record_with_id(root, "ledger.analysis", 0, started);
    report.set_sampled(
        "analysis.lint_spec_us",
        median_us(tracer, "analysis.lint_spec"),
        specs.len(),
    );
    report.set_sampled(
        "analysis.absint_spec_us",
        median_us(tracer, "analysis.absint_spec"),
        specs.len(),
    );
}

/// The abstract-interpretation fixpoint over the whole 33-program catalog.
pub fn absint_all(tracer: &Tracer, report: &mut Report) {
    const RUNS: usize = 9;
    let absint = AbsintAnalyzer::new();
    for _ in 0..RUNS {
        let proof = tracer.time("analysis.absint_all", 0, 1, || absint.analyze_all());
        if proof.verdict_counts().1 > 0 {
            report.fail("the catalog proof refutes an invariant");
        }
    }
    report.set_sampled(
        "analysis.absint_all_us",
        median_us(tracer, "analysis.absint_all"),
        RUNS,
    );
}

const PRIMITIVES: [(Primitive, &str); 4] = [
    (Primitive::NullSyscall, "kernel.measure.syscall"),
    (Primitive::Trap, "kernel.measure.trap"),
    (Primitive::PteChange, "kernel.measure.pte"),
    (Primitive::ContextSwitch, "kernel.measure.ctxsw"),
];

/// The kernel, memory and CPU layers: for each spec, the steps of
/// `measure_with_spec` one by one (memory system, machine, handler
/// generation, the four measurements, dropping the machine), then
/// `measure_with_spec` whole. The
/// replica's statistics must equal the whole call's. Returns the simulated
/// `(cycles, instructions)` summed over every spec and primitive.
pub fn kernel(specs: &[ArchSpec], tracer: &Tracer, report: &mut Report) -> (u64, u64) {
    let (mut cycles, mut instructions) = (0u64, 0u64);
    let (mut measured_instructions, mut measured_ns) = (0u64, 0u64);
    for spec in specs {
        let root = tracer.reserve();
        let started = Instant::now();
        black_box(tracer.time("mem.system_new", root, 1, || {
            MemorySystem::new(spec.mem.clone())
        }));
        let mut machine = tracer.time("kernel.machine_new", root, 1, || {
            Machine::with_spec(spec.clone())
        });
        let layout = *machine.layout();
        let handlers = tracer.time("kernel.handlers", root, 1, || {
            HandlerSet::generate(spec, &layout)
        });
        let mut replica = Vec::with_capacity(4);
        for (primitive, span) in PRIMITIVES {
            let begin = Instant::now();
            let stats = machine.measure(handlers.program(primitive));
            let end = Instant::now();
            tracer.record(span, root, begin, end, 1);
            measured_ns += end.duration_since(begin).as_nanos() as u64;
            measured_instructions += stats.instructions;
            replica.push(stats);
        }
        tracer.time("kernel.machine_drop", root, 1, || drop(machine));
        let whole = tracer.time("kernel.measure_spec", root, 1, || {
            measure_with_spec(spec.clone())
        });
        for ((primitive, _), stats) in PRIMITIVES.iter().zip(&replica) {
            let direct = whole.stats(*primitive);
            if direct != stats {
                report.fail(format!(
                    "{} {primitive:?}: step-by-step replica differs from measure_with_spec",
                    spec.arch
                ));
            }
            cycles += direct.cycles;
            instructions += direct.instructions;
        }
        tracer.record_with_id(root, "ledger.kernel", 0, started);
    }
    let n = specs.len();
    let mem = median_us(tracer, "mem.system_new");
    let machine = median_us(tracer, "kernel.machine_new");
    let handlers = median_us(tracer, "kernel.handlers");
    let whole = median_us(tracer, "kernel.measure_spec");
    let dropped = median_us(tracer, "kernel.machine_drop");
    let mut parts = machine + handlers + dropped;
    report.set_sampled("mem.system_new_us", mem, n);
    report.set_sampled("kernel.machine_new_us", machine, n);
    report.set_sampled("kernel.handlers_us", handlers, n);
    report.set_sampled("kernel.machine_drop_us", dropped, n);
    for ((_, span), metric) in PRIMITIVES.iter().zip([
        "kernel.measure_us.syscall",
        "kernel.measure_us.trap",
        "kernel.measure_us.pte",
        "kernel.measure_us.ctxsw",
    ]) {
        let us = median_us(tracer, span);
        parts += us;
        report.set_sampled(metric, us, n);
    }
    report.set_sampled("kernel.measure_spec_us", whole, n);
    let unaccounted = whole - parts;
    report.set("kernel.unaccounted_us", unaccounted);
    if unaccounted.abs() > 0.5 * whole {
        report.note(format!(
            "kernel.unaccounted_us {unaccounted:.1} exceeds half of measure_with_spec ({whole:.1} us)"
        ));
    }
    report.set(
        "cpu.sim_instr_per_us",
        measured_instructions as f64 / (measured_ns as f64 / 1000.0).max(1e-9),
    );
    (cycles, instructions)
}

/// A cold `measure_fresh` of every built-in architecture.
pub fn measure_fresh_all(tracer: &Tracer, report: &mut Report) {
    for arch in Arch::all() {
        black_box(tracer.time("kernel.measure_fresh", 0, 1, || measure_fresh(arch)));
    }
    report.set_sampled(
        "kernel.measure_fresh_us",
        median_us(tracer, "kernel.measure_fresh"),
        Arch::COUNT,
    );
}
