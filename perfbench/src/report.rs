//! The metric set and the run's output.
//!
//! Every run prints two lines: a detail line (workload, seed, sample counts,
//! reconciliation notes) and, last, the result line, whose keys are fixed:
//! `{"correct","attempted","failed","metrics"}`. An untraced run
//! reports every end-to-end metric, a traced run every per-layer metric.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The four workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["hot_builtin", "spec_churn", "whatif_sweep", "reproduce"];

const HOT: u8 = 1;
const CHURN: u8 = 2;
const WHATIF: u8 = 4;
const REPRO: u8 = 8;
const SERVED: u8 = HOT | CHURN;
const SIMULATED: u8 = CHURN | WHATIF | REPRO;
const ALL: u8 = HOT | SIMULATED;

/// One metric: name, unit, which direction is better, and (per-layer
/// only) the workloads whose runs exercise it.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    workloads: u8,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str, workloads: u8) -> Metric {
    Metric {
        name,
        unit,
        better,
        workloads,
    }
}

/// End-to-end metrics: reported by every workload's untraced run.
pub const END_TO_END: [Metric; 5] = [
    m("setup_s", "s", "lower", ALL),
    m("ops_per_s", "1/s", "higher", ALL),
    m("latency_p50_us", "us", "lower", ALL),
    m("latency_p90_us", "us", "lower", ALL),
    m("peak_rss_mib", "MiB", "lower", ALL),
];

/// Per-layer metrics: reported by every traced run. A workload that does
/// not exercise a layer reports its metrics as 0.
pub const PER_LAYER: [Metric; 83] = [
    m("protocol.frame_ns", "ns", "lower", SERVED),
    m("protocol.parse_ns", "ns", "lower", SERVED),
    m("protocol.cache_key_ns", "ns", "lower", SERVED),
    m("protocol.envelope_ns", "ns", "lower", SERVED),
    m("cache.hit_ns", "ns", "lower", SERVED),
    m("cache.hit_ratio", "ratio", "higher", SERVED),
    m("cache.misses", "count", "lower", SERVED),
    m("cache.coalesced", "count", "lower", SERVED),
    m("cache.reap_us", "us", "lower", CHURN),
    m("serve.service_us.p50", "us", "lower", SERVED),
    m("serve.service_us.p99", "us", "lower", SERVED),
    m("serve.stage.decode_us.p50", "us", "lower", SERVED),
    m("serve.stage.decode_us.p90", "us", "lower", SERVED),
    m("serve.stage.queue_us.p50", "us", "lower", SERVED),
    m("serve.stage.queue_us.p90", "us", "lower", SERVED),
    m("serve.stage.cache_us.p50", "us", "lower", SERVED),
    m("serve.stage.cache_us.p90", "us", "lower", SERVED),
    m("serve.stage.compute_us.p50", "us", "lower", SERVED),
    m("serve.stage.compute_us.p90", "us", "lower", SERVED),
    m("serve.stage.write_us.p50", "us", "lower", SERVED),
    m("serve.stage.write_us.p90", "us", "lower", SERVED),
    m("serve.unaccounted_us.p50", "us", "lower", SERVED),
    m("serve.loop_busy_us.p99", "us", "lower", SERVED),
    m("serve.offload_depth.p99", "count", "lower", SERVED),
    m("serve.busy_rejects", "count", "lower", SERVED),
    m("serve.degraded", "count", "lower", SERVED),
    m("registry.swap_us.p50", "us", "lower", CHURN),
    m("registry.swap_us.p95", "us", "lower", CHURN),
    m("registry.commit_us", "us", "lower", CHURN),
    m("registry.swaps", "count", "higher", CHURN),
    m("registry.rollbacks", "count", "lower", CHURN),
    m("swap_p50_us", "us", "lower", CHURN),
    m("swap_p95_us", "us", "lower", CHURN),
    m("analysis.lint_spec_us", "us", "lower", CHURN | WHATIF),
    m("analysis.absint_spec_us", "us", "lower", CHURN | WHATIF),
    m("analysis.absint_all_us", "us", "lower", CHURN | WHATIF),
    m("kernel.machine_new_us", "us", "lower", SIMULATED),
    m("kernel.handlers_us", "us", "lower", SIMULATED),
    m("kernel.machine_drop_us", "us", "lower", SIMULATED),
    m("kernel.measure_us.syscall", "us", "lower", SIMULATED),
    m("kernel.measure_us.trap", "us", "lower", SIMULATED),
    m("kernel.measure_us.pte", "us", "lower", SIMULATED),
    m("kernel.measure_us.ctxsw", "us", "lower", SIMULATED),
    m("kernel.measure_spec_us", "us", "lower", SIMULATED),
    m("kernel.unaccounted_us", "us", "lower", SIMULATED),
    m("kernel.measure_fresh_us", "us", "lower", REPRO),
    m("mem.system_new_us", "us", "lower", SIMULATED),
    m("cpu.sim_instr_per_us", "1/us", "higher", SIMULATED),
    m("sim.cycles_total", "count", "lower", SIMULATED),
    m("sim.instructions_total", "count", "lower", SIMULATED),
    m("core.session_prime_ms", "ms", "lower", REPRO),
    m("core.table_ms.table3", "ms", "lower", REPRO),
    m("core.table_ms.table4", "ms", "lower", REPRO),
    m("core.table_ms.table7", "ms", "lower", REPRO),
    m("core.table_ms.intext", "ms", "lower", REPRO),
    m("core.table_ms.vm", "ms", "lower", REPRO),
    m("core.table_ms.tlb", "ms", "lower", REPRO),
    m("core.table_ms.threads", "ms", "lower", REPRO),
    m("core.table_ms.future", "ms", "lower", REPRO),
    m("core.table_ms.depth", "ms", "lower", REPRO),
    m("core.table_ms.ablations", "ms", "lower", REPRO),
    m("core.tables_json_ms", "ms", "lower", REPRO),
    m("reproduce.exec_overhead_ms", "ms", "lower", REPRO),
    m("bench.gen_lag_p99_us", "us", "lower", SERVED),
    m("bench.trace_overhead_pct", "%", "lower", ALL),
    m("ladder.r1.p50_us", "us", "lower", SERVED),
    m("ladder.r1.p99_us", "us", "lower", SERVED),
    m("ladder.r2.p50_us", "us", "lower", SERVED),
    m("ladder.r2.p99_us", "us", "lower", SERVED),
    m("ladder.r3.p50_us", "us", "lower", SERVED),
    m("ladder.r3.p99_us", "us", "lower", SERVED),
    m("ladder.r4.p50_us", "us", "lower", SERVED),
    m("ladder.r4.p99_us", "us", "lower", SERVED),
    m("ladder.r5.p50_us", "us", "lower", SERVED),
    m("ladder.r5.p99_us", "us", "lower", SERVED),
    m("ladder.r6.p50_us", "us", "lower", SERVED),
    m("ladder.r6.p99_us", "us", "lower", SERVED),
    m("ladder.r7.p50_us", "us", "lower", SERVED),
    m("ladder.r7.p99_us", "us", "lower", SERVED),
    m("ladder.r8.p50_us", "us", "lower", SERVED),
    m("ladder.r8.p99_us", "us", "lower", SERVED),
    m("max_rate_rps", "1/s", "higher", SERVED),
    m("latency_p99_us", "us", "lower", SERVED | WHATIF),
];

/// The tables whose build time the traced `reproduce` run reports.
pub const TIMED_TABLES: [&str; 10] = [
    "table3",
    "table4",
    "table7",
    "intext",
    "vm",
    "tlb",
    "threads",
    "future",
    "depth",
    "ablations",
];

/// Whether `workload`'s runs exercise `metric`.
#[must_use]
pub fn exercises(workload: &str, metric: &Metric) -> bool {
    WORKLOADS
        .iter()
        .position(|w| *w == workload)
        .is_some_and(|index| metric.workloads & (1 << index) != 0)
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// False when any output check failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (errors, refusals, timeouts, degraded
    /// replies).
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Sample counts behind metrics, by metric name.
    pub samples: BTreeMap<String, u64>,
    /// Why a check failed, and reconciliation flags.
    pub notes: Vec<String>,
    /// The hosted server's retained request chains (traced serving runs),
    /// for `--trace-out`.
    pub server_chains: Vec<osarch_telemetry::SpanChain>,
    /// Where the server's span clock starts on the harness clock, µs.
    pub server_offset_us: u64,
}

impl Report {
    /// An empty, so far correct report.
    #[must_use]
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Set a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Set a metric and the number of samples behind it.
    pub fn set_sampled(&mut self, name: &str, value: f64, samples: usize) {
        self.set(name, value);
        self.samples.insert(name.to_string(), samples as u64);
    }

    /// Record a failed check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.notes.push(why.into());
    }

    /// Record a note that is not a failure.
    pub fn note(&mut self, what: impl Into<String>) {
        self.notes.push(what.into());
    }
}

/// A finite number in JSON (non-finite values, which no metric should
/// produce, become 0).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn escape(text: &str) -> String {
    osarch_core::metrics::json_escape(text)
}

/// The detail line and the result line of a finished run. A metric the
/// workload should have produced but did not makes the run incorrect; a
/// metric of a layer the workload does not exercise reads 0.
#[must_use]
pub fn render(
    report: &mut Report,
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> String {
    let set: &[Metric] = if traced { &PER_LAYER } else { &END_TO_END };
    if report.attempted == 0 {
        report.fail("no operation was attempted");
    }
    let mut metrics = Vec::with_capacity(set.len());
    for metric in set {
        let value = match report.metrics.get(metric.name) {
            Some(value) => *value,
            None if exercises(workload, metric) => {
                report.fail(format!("internal: {} was not measured", metric.name));
                0.0
            }
            None => 0.0,
        };
        if !value.is_finite() {
            report.fail(format!("internal: {} is not finite", metric.name));
        }
        metrics.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            metric.name,
            number(value),
            metric.unit
        ));
    }
    let samples: Vec<String> = report
        .samples
        .iter()
        .map(|(name, n)| format!("\"{}\":{n}", escape(name)))
        .collect();
    let notes: Vec<String> = report
        .notes
        .iter()
        .map(|note| format!("\"{}\"", escape(note)))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let mut out = String::new();
    let _ = writeln!(
        out,
        concat!(
            "{{\"detail\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},",
            "\"nproc\":{},\"samples\":{{{}}},\"notes\":[{}]}}}}"
        ),
        escape(workload),
        seed,
        number(seconds),
        u8::from(traced),
        nproc,
        samples.join(","),
        notes.join(",")
    );
    let _ = writeln!(
        out,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
    out
}

/// This process's peak resident set (`VmHWM`) in MiB, from
/// `/proc/self/status`; 0 where that file does not exist.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    vm_hwm_kib(&std::fs::read_to_string("/proc/self/status").unwrap_or_default()) as f64 / 1024.0
}

/// The `VmHWM` line of a `/proc/<pid>/status` document, in KiB.
#[must_use]
pub fn vm_hwm_kib(status: &str) -> u64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .unwrap_or(0)
}
