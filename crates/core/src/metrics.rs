//! Machine-readable output: per-primitive cycle accounting serialized to
//! JSON, without any serialization dependency.
//!
//! The emitter is a few string-building helpers over the shared
//! [`crate::session`] measurements. Reading goes through the one JSON
//! parser, [`crate::json`]: [`validate_json`] checks well-formedness, and
//! the `validate_*` schema checks look each required key up at its path
//! from the document root.

use crate::report::Table;
use crate::session::shared as session;
use osarch_analysis::{
    absint_rule_table, default_rules, AbsintReport, AnalysisReport, Severity, Verdict,
};
use osarch_cpu::{Arch, ExecStats, Phase};
use osarch_kernel::{Primitive, PrimitiveTrace};
use osarch_trace::json::{self, Value};
use osarch_trace::{Category, CounterRegistry, Event, EventKind};
use std::fmt::Write as _;

/// The schema tag stamped into every `BENCH_repro.json`.
pub const BENCH_SCHEMA: &str = "osarch-bench/1";

/// The schema tag stamped into every `osarch lint --json` document.
pub const LINT_SCHEMA: &str = "osarch-lint/1";

/// The schema tag stamped into every `osarch analyze --json` proof
/// document.
pub const ABSINT_SCHEMA: &str = "osarch-absint/1";

/// The schema tag stamped into every `osarch trace --counters` document.
pub const COUNTERS_SCHEMA: &str = "osarch-counters/1";

/// The schema tag stamped into the `otherData` of every Chrome-trace
/// export (the document body is the standard Chrome trace-event format).
pub const TRACE_SCHEMA: &str = "osarch-trace/1";

/// The schema tag stamped into every `osarch-serve` response envelope.
pub const SERVE_SCHEMA: &str = "osarch-serve/1";

/// The schema tag stamped into every `BENCH_serve.json` load report.
/// `/2` added tail-fidelity latency fields (`p999`, `samples`,
/// `sampled`) and the raw `latency_hist` bucket export.
pub const SERVE_BENCH_SCHEMA: &str = "osarch-serve-bench/2";

/// The schema tag stamped into every telemetry snapshot (the `metrics`
/// protocol op and the `--metrics-addr` scrape listener's JSON form).
pub const METRICS_SCHEMA: &str = "osarch-metrics/1";

/// The schema tag stamped into every `cluster` op reply: the per-node view
/// of the consistent-hash ring and the gossip membership table.
pub const CLUSTER_SCHEMA: &str = "osarch-cluster/1";

/// The schema tag stamped into every `BENCH_cluster.json` load report
/// (multi-node aggregate throughput vs the single-node baseline).
pub const CLUSTER_BENCH_SCHEMA: &str = "osarch-cluster-bench/1";

/// The schema tag every loadable architecture document must carry
/// (`osarch-spec/1`): a flat JSON object deriving an [`ArchSpec`] from a
/// built-in base plus scalar overrides. Re-exported from `osarch-cpu`,
/// where the codec lives.
pub use osarch_cpu::SPEC_SCHEMA;

/// Escape a string for a JSON string literal (quotes not included).
pub use osarch_trace::json::escape as json_escape;

/// An `f64` as a JSON value token: the number for finite values, `null`
/// for NaN and the infinities (JSON has no spelling for them, and a raw
/// `NaN` token would corrupt every document downstream).
#[must_use]
pub fn json_number(value: f64) -> String {
    if !value.is_finite() {
        return "null".to_string();
    }
    // `Display` never emits an exponent for the magnitudes we produce, but
    // an integral value renders without a point; either way the token is
    // valid JSON.
    format!("{value}")
}

fn json_f64(value: f64) -> String {
    json_number(value)
}

fn snake_name(primitive: Primitive) -> &'static str {
    primitive.tag()
}

fn phase_name(phase: Phase) -> &'static str {
    phase.tag()
}

fn stats_json(name: &str, stats: &ExecStats, clock_mhz: f64) -> String {
    let mut phases = Vec::with_capacity(Phase::all().len());
    for phase in Phase::all() {
        let p = stats.phase(phase);
        phases.push(format!(
            "{{\"phase\":\"{}\",\"instructions\":{},\"cycles\":{}}}",
            phase_name(phase),
            p.instructions,
            p.cycles
        ));
    }
    format!(
        concat!(
            "{{\"name\":\"{}\",\"micros\":{},\"instructions\":{},\"cycles\":{},",
            "\"wb_stall_cycles\":{},\"tlb_misses\":{},\"cache_misses\":{},",
            "\"phases\":[{}]}}"
        ),
        name,
        json_f64(stats.micros(clock_mhz)),
        stats.instructions,
        stats.cycles,
        stats.wb_stall_cycles,
        stats.tlb_misses,
        stats.cache_misses,
        phases.join(",")
    )
}

/// Per-primitive cycle accounting for one architecture, as a JSON object.
#[must_use]
pub fn arch_json(arch: Arch) -> String {
    let m = session().measurement(arch);
    let primitives: Vec<String> = Primitive::all()
        .into_iter()
        .map(|p| stats_json(snake_name(p), m.stats(p), m.clock_mhz))
        .collect();
    format!(
        "{{\"arch\":\"{}\",\"clock_mhz\":{},\"primitives\":[{}]}}",
        json_escape(&arch.to_string()),
        json_f64(m.clock_mhz),
        primitives.join(",")
    )
}

/// The full benchmark document: every modelled architecture's primitives.
#[must_use]
pub fn bench_json() -> String {
    let architectures: Vec<String> = Arch::all().into_iter().map(arch_json).collect();
    format!(
        "{{\"schema\":\"{}\",\"architectures\":[{}]}}\n",
        BENCH_SCHEMA,
        architectures.join(",")
    )
}

/// One (architecture, primitive) measurement as a JSON object — the
/// payload of the `osarch-serve` `measure` query. Priced through the
/// shared [`crate::session`], so repeated requests never re-simulate.
#[must_use]
pub fn measure_json(arch: Arch, primitive: Primitive) -> String {
    let m = session().measurement(arch);
    format!(
        "{{\"arch\":\"{}\",\"clock_mhz\":{},\"primitive\":{}}}",
        json_escape(&arch.to_string()),
        json_number(m.clock_mhz),
        stats_json(snake_name(primitive), m.stats(primitive), m.clock_mhz)
    )
}

/// One (loaded spec, primitive) measurement as a JSON object — the
/// payload of a `measure` query naming a registry spec instead of a
/// built-in. Same shape as [`measure_json`], with the registry name in
/// the `arch` field. Runs a fresh simulation of the supplied spec (the
/// shared session cache only prices the seven built-ins).
#[must_use]
pub fn measure_spec_json(name: &str, spec: &osarch_cpu::ArchSpec, primitive: Primitive) -> String {
    let m = osarch_kernel::measure_with_spec(spec.clone());
    format!(
        "{{\"arch\":\"{}\",\"clock_mhz\":{},\"primitive\":{}}}",
        json_escape(name),
        json_number(m.clock_mhz),
        stats_json(snake_name(primitive), m.stats(primitive), m.clock_mhz)
    )
}

/// One `osarch loadgen` run, ready to serialize as `BENCH_serve.json`.
///
/// Latency fields are microseconds of client-observed request round-trip
/// time; the cache counters are deltas of the server's `metrics` totals
/// over the run, so a report ties client throughput to server cache
/// behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchReport {
    /// Key distribution (`uniform` or `skewed`).
    pub workload: String,
    /// Loop discipline: `open` when rounds are paced (`--rate`), else
    /// `pipelined` when more than one request rides each write, else
    /// `closed`.
    pub mode: String,
    /// Concurrent client connections.
    pub conns: u32,
    /// Requests kept in flight per connection (`1` = strict
    /// request/reply; `>1` exercises server-side pipelining).
    pub pipeline_depth: u32,
    /// Client driver threads sharing the connections: `min(conns, 32)`,
    /// so up to 32 connections each get a thread of their own.
    pub driver_threads: u32,
    /// Server worker threads, from the server's `metrics` gauges.
    pub workers: u32,
    /// Cache shards of a self-hosted server (the `metrics` reply does
    /// not carry an external server's count).
    pub shards: u32,
    /// Measured wall-clock seconds.
    pub secs: f64,
    /// Requests completed with an `ok` envelope.
    pub requests: u64,
    /// Requests answered with an error envelope.
    pub errors: u64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Client-observed latency distribution (µs).
    pub latency: crate::stats::LatencySummary,
    /// Sparse latency histogram buckets: `(bucket index, count)` pairs in
    /// the fixed `osarch-telemetry` log-linear layout, so consumers can
    /// merge runs or recompute any percentile without the raw samples.
    pub latency_hist: Vec<(usize, u64)>,
    /// Server cache hits over the run.
    pub hits: u64,
    /// Server cache misses (computations) over the run.
    pub misses: u64,
    /// Requests that coalesced onto another request's computation.
    pub coalesced: u64,
    /// Client-side resilience tallies. The load generator's driver
    /// never retries, so it fills only `corrupt`, `server_errors`,
    /// `timeouts` and `conn_resets`.
    pub resilience: ResilienceCounters,
}

/// Client-side resilience tallies for one load-generator run: how often
/// the resilient client retried, gave up, tripped its circuit breaker,
/// and what failure class each failed attempt fell into.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceCounters {
    /// Retry attempts beyond each call's first try.
    pub retries: u64,
    /// Calls abandoned after exhausting every attempt.
    pub giveups: u64,
    /// Times a client breaker transitioned closed → open.
    pub breaker_opens: u64,
    /// Replies flagged `"degraded":true` (stale-on-error).
    pub degraded: u64,
    /// Attempts that hit the per-attempt deadline.
    pub timeouts: u64,
    /// Attempts that lost the connection or read a torn reply.
    pub conn_resets: u64,
    /// Attempts answered with an error envelope.
    pub server_errors: u64,
    /// Calls shed without touching the network (breaker open).
    pub breaker_open: u64,
    /// Replies that failed verification (bad JSON or id mismatch).
    /// Anything nonzero is client-visible corruption.
    pub corrupt: u64,
}

/// A [`crate::stats::LatencySummary`] as a JSON object body.
fn latency_summary_json(latency: &crate::stats::LatencySummary) -> String {
    format!(
        concat!(
            "{{\"count\":{},\"samples\":{},\"sampled\":{},",
            "\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},",
            "\"max\":{},\"mean\":{}}}"
        ),
        latency.count,
        latency.samples,
        latency.sampled,
        latency.p50,
        latency.p90,
        latency.p99,
        latency.p999,
        latency.max,
        json_number(latency.mean),
    )
}

/// Sparse histogram buckets as a JSON array of `[index, count]` pairs.
fn sparse_buckets_json(buckets: &[(usize, u64)]) -> String {
    let pairs: Vec<String> = buckets
        .iter()
        .map(|(index, count)| format!("[{index},{count}]"))
        .collect();
    format!("[{}]", pairs.join(","))
}

/// A load-generator report as an `osarch-serve-bench/2` JSON document.
#[must_use]
pub fn serve_bench_json(report: &ServeBenchReport) -> String {
    format!(
        concat!(
            "{{\"schema\":\"{}\",\"workload\":\"{}\",\"mode\":\"{}\",",
            "\"conns\":{},\"pipeline_depth\":{},\"driver_threads\":{},",
            "\"workers\":{},\"shards\":{},\"secs\":{},",
            "\"requests\":{},\"errors\":{},\"throughput_rps\":{},",
            "\"latency_us\":{},",
            "\"latency_hist\":{{\"sub_bits\":{},\"max_exp\":{},\"buckets\":{}}},",
            "\"cache\":{{\"hits\":{},\"misses\":{},\"coalesced\":{}}},",
            "\"resilience\":{{\"retries\":{},\"giveups\":{},\"breaker_opens\":{},",
            "\"degraded\":{},\"corrupt\":{},",
            "\"error_classes\":{{\"timeout\":{},\"conn_reset\":{},",
            "\"server_error\":{},\"breaker_open\":{}}}}}}}\n"
        ),
        SERVE_BENCH_SCHEMA,
        json_escape(&report.workload),
        json_escape(&report.mode),
        report.conns,
        report.pipeline_depth,
        report.driver_threads,
        report.workers,
        report.shards,
        json_number(report.secs),
        report.requests,
        report.errors,
        json_number(report.throughput_rps),
        latency_summary_json(&report.latency),
        osarch_telemetry::SUB_BITS,
        osarch_telemetry::MAX_EXP,
        sparse_buckets_json(&report.latency_hist),
        report.hits,
        report.misses,
        report.coalesced,
        report.resilience.retries,
        report.resilience.giveups,
        report.resilience.breaker_opens,
        report.resilience.degraded,
        report.resilience.corrupt,
        report.resilience.timeouts,
        report.resilience.conn_resets,
        report.resilience.server_errors,
        report.resilience.breaker_open,
    )
}

/// Every key an `osarch-serve-bench/2` document must carry, as a path
/// from the root (`a.b` for a member of a member, `a[].b` for a member
/// of every element of an array). The loadgen validates its own output
/// against this list before writing it, so a report missing a column
/// fails at the producer, not in a consumer.
pub const SERVE_BENCH_REQUIRED_KEYS: &[&str] = &[
    "schema",
    "workload",
    "mode",
    "conns",
    "pipeline_depth",
    "driver_threads",
    "workers",
    "shards",
    "secs",
    "requests",
    "errors",
    "throughput_rps",
    "latency_us",
    "latency_us.samples",
    "latency_us.sampled",
    "latency_us.p999",
    "latency_hist",
    "latency_hist.sub_bits",
    "latency_hist.max_exp",
    "latency_hist.buckets",
    "cache",
    "resilience",
    "resilience.retries",
    "resilience.giveups",
    "resilience.breaker_opens",
    "resilience.degraded",
    "resilience.corrupt",
    "resilience.error_classes",
    "resilience.error_classes.timeout",
    "resilience.error_classes.conn_reset",
    "resilience.error_classes.server_error",
    "resilience.error_classes.breaker_open",
];

/// Validate an `osarch-serve-bench/2` document: well-formed JSON *and*
/// every required key present. Returns the first missing key on failure.
pub fn validate_serve_bench(doc: &str) -> Result<(), String> {
    validate_json_schema(doc, SERVE_BENCH_SCHEMA, SERVE_BENCH_REQUIRED_KEYS)
}

/// The one structural check behind every `validate_*` schema validator:
/// `doc` parses, its root `schema` is `schema`, and every path in
/// `required` resolves. A path names object members from the root,
/// joined by `.`; a `name[]` step requires an array and applies the rest
/// of the path to every element (`per_node[].addr`). Errors are one line:
/// the parse error, the missing schema, or the first unresolved path.
fn validate_json_schema(doc: &str, schema: &str, required: &[&str]) -> Result<(), String> {
    let root = json::parse(doc).map_err(|e| e.to_string())?;
    if root["schema"].as_str() != Some(schema) {
        return Err(format!("missing schema {schema:?}"));
    }
    match required.iter().find(|path| !has_path(&root, path)) {
        Some(path) => Err(format!("missing required key {path:?}")),
        None => Ok(()),
    }
}

fn has_path(value: &Value<'_>, path: &str) -> bool {
    let (step, rest) = path
        .split_once('.')
        .map_or((path, None), |(step, rest)| (step, Some(rest)));
    let (key, each) = step
        .strip_suffix("[]")
        .map_or((step, false), |key| (key, true));
    let Some(child) = value.get(key) else {
        return false;
    };
    let holds = |item: &Value<'_>| rest.is_none_or(|rest| has_path(item, rest));
    if each {
        child
            .as_array()
            .is_some_and(|items| items.iter().all(holds))
    } else {
        holds(child)
    }
}

/// One telemetry histogram as a JSON object: precomputed quantiles (so
/// dashboards need no bucket math) plus the sparse buckets (so anything
/// else can merge or recompute).
fn telemetry_hist_json(hist: &osarch_telemetry::Histogram) -> String {
    format!(
        concat!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},",
            "\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\"mean\":{},",
            "\"buckets\":{}}}"
        ),
        hist.count(),
        hist.sum(),
        hist.min(),
        hist.max(),
        hist.value_at_percentile(50.0),
        hist.value_at_percentile(90.0),
        hist.value_at_percentile(99.0),
        hist.value_at_percentile(99.9),
        json_number(hist.mean()),
        sparse_buckets_json(&hist.sparse()),
    )
}

/// A telemetry snapshot as an `osarch-metrics/1` JSON document — the
/// payload of the `metrics` protocol op and the scrape listener's JSON
/// endpoint, and the input `osarch top` renders.
#[must_use]
pub fn metrics_snapshot_json(snap: &osarch_telemetry::MetricsSnapshot) -> String {
    let totals = &snap.totals;
    let gauges = &snap.gauges;
    let ops: Vec<String> = snap
        .ops
        .iter()
        .map(|op| {
            format!(
                "{{\"op\":\"{}\",\"latency_us\":{}}}",
                json_escape(op.name),
                telemetry_hist_json(&op.hist)
            )
        })
        .collect();
    let window: Vec<String> = osarch_telemetry::COUNTER_NAMES
        .iter()
        .zip(snap.window)
        .map(|(name, value)| format!("\"{name}\":{value}"))
        .collect();
    // Spliced as a pre-rendered fragment so a standalone (non-cluster)
    // snapshot stays byte-identical to the pre-cluster document.
    let cluster = match &snap.cluster {
        Some(c) => format!(
            concat!(
                "\"cluster\":{{\"ownership_ppm\":{},\"peers_alive\":{},",
                "\"peers_total\":{},\"incarnation\":{},\"forwarded\":{},",
                "\"proxied\":{},\"redirected\":{},\"gossip_rounds\":{}}},"
            ),
            c.ownership_ppm,
            c.peers_alive,
            c.peers_total,
            c.incarnation,
            c.forwarded,
            c.proxied,
            c.redirected,
            c.gossip_rounds,
        ),
        None => String::new(),
    };
    format!(
        concat!(
            "{{\"schema\":\"{}\",\"uptime_us\":{},\"retention_s\":{},",
            "\"sample_every\":{},\"chains_sampled\":{},",
            "\"hist_meta\":{{\"sub_bits\":{},\"max_exp\":{},\"bucket_count\":{}}},",
            "\"totals\":{{\"requests\":{},\"errors\":{},\"rejected\":{},",
            "\"deadline_exceeded\":{},\"panics\":{},\"degraded\":{},",
            "\"worker_respawns\":{},\"faults_injected\":{},\"conns_opened\":{},",
            "\"cache_hits\":{},\"cache_misses\":{},\"cache_coalesced\":{},",
            "\"cache_failed\":{},\"cache_degraded\":{},",
            "\"swaps\":{},\"rollbacks\":{}}},",
            "\"gauges\":{{\"conns_open\":{},\"conn_budget\":{},\"workers\":{},",
            "\"workers_live\":{},\"compute_backlog\":{},",
            "\"oldest_write_backlog_ms\":{},\"cache_hit_ratio\":{},",
            "\"registry_epoch\":{},\"shutting_down\":{}}},",
            "{}",
            "\"window\":{{{}}},",
            "\"ops\":[{}],",
            "\"loop_lag_us\":{},",
            "\"offload_queue_depth\":{},",
            "\"arena_buffers\":{},",
            "\"swap_latency_us\":{}}}\n"
        ),
        METRICS_SCHEMA,
        snap.uptime_us,
        snap.retention_s,
        snap.sample_every,
        snap.chains_sampled,
        osarch_telemetry::SUB_BITS,
        osarch_telemetry::MAX_EXP,
        osarch_telemetry::BUCKETS,
        totals.requests,
        totals.errors,
        totals.rejected,
        totals.deadline_exceeded,
        totals.panics,
        totals.degraded,
        totals.worker_respawns,
        totals.faults_injected,
        totals.conns_opened,
        totals.cache_hits,
        totals.cache_misses,
        totals.cache_coalesced,
        totals.cache_failed,
        totals.cache_degraded,
        totals.swaps,
        totals.rollbacks,
        gauges.conns_open,
        gauges.conn_budget,
        gauges.workers,
        gauges.workers_live,
        gauges.compute_backlog,
        gauges.oldest_write_backlog_ms,
        json_number(totals.cache_hit_ratio()),
        gauges.registry_epoch,
        gauges.shutting_down,
        cluster,
        window.join(","),
        ops.join(","),
        telemetry_hist_json(&snap.loop_lag_us),
        telemetry_hist_json(&snap.queue_depth),
        telemetry_hist_json(&snap.arena_buffers),
        telemetry_hist_json(&snap.swap_latency_us),
    )
}

/// Every key an `osarch-metrics/1` document must carry, as a path from
/// the root. Producers validate before exposing; the CI chaos smoke
/// validates the scrape.
pub const METRICS_REQUIRED_KEYS: &[&str] = &[
    "schema",
    "uptime_us",
    "retention_s",
    "sample_every",
    "chains_sampled",
    "hist_meta",
    "hist_meta.sub_bits",
    "hist_meta.max_exp",
    "totals",
    "totals.requests",
    "totals.errors",
    "totals.deadline_exceeded",
    "totals.cache_hits",
    "totals.cache_misses",
    "gauges",
    "gauges.conns_open",
    "gauges.conn_budget",
    "gauges.workers",
    "gauges.workers_live",
    "gauges.compute_backlog",
    "gauges.oldest_write_backlog_ms",
    "gauges.cache_hit_ratio",
    "gauges.shutting_down",
    "window",
    "ops",
    "loop_lag_us",
    "offload_queue_depth",
    "arena_buffers",
    "swap_latency_us",
    "gauges.registry_epoch",
    "totals.swaps",
    "totals.rollbacks",
    "ops[].latency_us.p50",
    "ops[].latency_us.p99",
    "ops[].latency_us.p999",
    "ops[].latency_us.buckets",
];

/// Validate an `osarch-metrics/1` document: well-formed JSON, the schema
/// tag, and every required key present.
pub fn validate_metrics_snapshot(doc: &str) -> Result<(), String> {
    validate_json_schema(doc, METRICS_SCHEMA, METRICS_REQUIRED_KEYS)
}

/// Every key an `osarch-cluster/1` document (the `cluster` op reply's
/// payload) must carry, as a path from the root.
pub const CLUSTER_REQUIRED_KEYS: &[&str] = &[
    "schema",
    "self",
    "incarnation",
    "replicas",
    "vnodes",
    "proxy",
    "ownership_ppm",
    "peers_alive",
    "peers_total",
    "forwarded",
    "proxied",
    "redirected",
    "gossip_rounds",
    "nodes",
    "nodes[].addr",
    "nodes[].status",
];

/// Validate an `osarch-cluster/1` document: well-formed JSON, the schema
/// tag, and every required key present.
pub fn validate_cluster_status(doc: &str) -> Result<(), String> {
    validate_json_schema(doc, CLUSTER_SCHEMA, CLUSTER_REQUIRED_KEYS)
}

/// One multi-node load run, ready to serialize as `BENCH_cluster.json`:
/// the 3-node aggregate throughput next to the single-node baseline it
/// must beat (the acceptance bar is `speedup >= 2.0` at 3 nodes).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterBenchReport {
    /// Key distribution (`uniform` or `skewed`).
    pub workload: String,
    /// Nodes in the ring during the clustered run.
    pub nodes: u32,
    /// Replication factor the ring placed each key at.
    pub replicas: u32,
    /// Concurrent client connections per node.
    pub conns_per_node: u32,
    /// Requests kept in flight per connection.
    pub pipeline_depth: u32,
    /// Measured wall-clock seconds of the clustered run.
    pub secs: f64,
    /// Requests completed with an `ok` envelope across all nodes.
    pub requests: u64,
    /// Requests answered with an error envelope across all nodes.
    pub errors: u64,
    /// Replies that failed verification (bad JSON or id mismatch).
    pub corrupt: u64,
    /// Aggregate completed requests per second across the cluster.
    pub throughput_rps: f64,
    /// Single-node throughput on the same workload and connection count.
    pub baseline_rps: f64,
    /// `throughput_rps / baseline_rps`.
    pub speedup: f64,
    /// Client-observed latency distribution (µs) for the clustered run.
    pub latency: crate::stats::LatencySummary,
    /// Per-node `(addr, requests completed)` in ring order.
    pub per_node: Vec<(String, u64)>,
}

/// A cluster load report as an `osarch-cluster-bench/1` JSON document.
#[must_use]
pub fn cluster_bench_json(report: &ClusterBenchReport) -> String {
    let per_node: Vec<String> = report
        .per_node
        .iter()
        .map(|(addr, requests)| {
            format!(
                "{{\"addr\":\"{}\",\"requests\":{requests}}}",
                json_escape(addr)
            )
        })
        .collect();
    format!(
        concat!(
            "{{\"schema\":\"{}\",\"workload\":\"{}\",",
            "\"nodes\":{},\"replicas\":{},\"conns_per_node\":{},",
            "\"pipeline_depth\":{},\"secs\":{},",
            "\"requests\":{},\"errors\":{},\"corrupt\":{},",
            "\"throughput_rps\":{},\"baseline_rps\":{},\"speedup\":{},",
            "\"latency_us\":{},",
            "\"per_node\":[{}]}}\n"
        ),
        CLUSTER_BENCH_SCHEMA,
        json_escape(&report.workload),
        report.nodes,
        report.replicas,
        report.conns_per_node,
        report.pipeline_depth,
        json_number(report.secs),
        report.requests,
        report.errors,
        report.corrupt,
        json_number(report.throughput_rps),
        json_number(report.baseline_rps),
        json_number(report.speedup),
        latency_summary_json(&report.latency),
        per_node.join(","),
    )
}

/// Every key an `osarch-cluster-bench/1` document must carry, as a path
/// from the root. As with the serve bench, the loadgen validates before
/// writing so a missing column fails at the producer.
pub const CLUSTER_BENCH_REQUIRED_KEYS: &[&str] = &[
    "schema",
    "workload",
    "nodes",
    "replicas",
    "conns_per_node",
    "pipeline_depth",
    "secs",
    "requests",
    "errors",
    "corrupt",
    "throughput_rps",
    "baseline_rps",
    "speedup",
    "latency_us",
    "latency_us.p50",
    "latency_us.p99",
    "latency_us.p999",
    "per_node",
    "per_node[].addr",
];

/// Validate an `osarch-cluster-bench/1` document: well-formed JSON, the
/// schema tag, and every required key present.
pub fn validate_cluster_bench(doc: &str) -> Result<(), String> {
    validate_json_schema(doc, CLUSTER_BENCH_SCHEMA, CLUSTER_BENCH_REQUIRED_KEYS)
}

/// Sampled per-request span chains as a Chrome trace-event JSON document
/// (the `spans` op's `chrome` filter, and the chaos soak's trace
/// artifact).
///
/// Each chain gets its own track (`tid` = chain ordinal + 1) under the
/// owning loop shard's process (`pid` = loop index), so overlapping
/// pipelined requests never render as false nesting. Timestamps are
/// microseconds since the server started; the root span carries the
/// decode-to-reply-buffered total and the stage spans (decode / queue /
/// compute / cache / write) sit beneath it on the same track.
#[must_use]
pub fn serve_chains_chrome_json(chains: &[osarch_telemetry::SpanChain]) -> String {
    let mut events = vec![metadata_event_json(
        "process_name",
        0,
        "osarch-serve sampled requests",
    )];
    for (index, chain) in chains.iter().enumerate() {
        let pid = chain.loop_index as u32;
        let tid = index as u32 + 1;
        events.push(trace_event_json(
            &Event::complete(
                format!("{}#{:016x}", chain.op, chain.trace_id),
                Category::Serve,
                chain.start_us,
                chain.total_us,
            )
            .with_arg("trace_id", chain.trace_id)
            .with_arg("span_id", chain.span_id)
            .with_arg("loop", chain.loop_index as u64)
            .on(pid, tid),
        ));
        for span in &chain.spans {
            events.push(trace_event_json(
                &Event::complete(span.stage, Category::Serve, span.start_us, span.dur_us)
                    .with_arg("trace_id", chain.trace_id)
                    .on(pid, tid),
            ));
        }
    }
    format!(
        concat!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\",",
            "\"otherData\":{{\"schema\":\"{}\",\"chains\":{},",
            "\"clock\":\"us_since_server_start\"}}}}\n"
        ),
        events.join(","),
        TRACE_SCHEMA,
        chains.len(),
    )
}

/// A static-analysis report as a JSON document (`osarch lint --json`).
///
/// The `rules` array lists the full registered rule set (whether or not a
/// rule fired), so consumers can map codes to names without a side table.
#[must_use]
pub fn lint_json(report: &AnalysisReport) -> String {
    let rules: Vec<String> = default_rules()
        .iter()
        .map(|rule| {
            format!(
                "{{\"code\":\"{}\",\"name\":\"{}\",\"summary\":\"{}\"}}",
                json_escape(rule.code()),
                json_escape(rule.name()),
                json_escape(rule.summary())
            )
        })
        .collect();
    let diagnostics: Vec<String> = report
        .diagnostics()
        .iter()
        .map(|d| {
            let arch = d
                .arch
                .map_or_else(|| "null".to_string(), |a| format!("\"{a}\""));
            let op = d
                .op_index
                .map_or_else(|| "null".to_string(), |i| i.to_string());
            format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"arch\":{},\"program\":\"{}\",\
                 \"op\":{},\"message\":\"{}\"}}",
                json_escape(d.code),
                d.severity.label(),
                arch,
                json_escape(&d.program),
                op,
                json_escape(&d.message)
            )
        })
        .collect();
    format!(
        concat!(
            "{{\"schema\":\"{}\",\"programs_checked\":{},\"architectures\":{},",
            "\"rules\":[{}],\"diagnostics\":[{}],",
            "\"counts\":{{\"error\":{},\"warning\":{},\"info\":{}}}}}\n"
        ),
        LINT_SCHEMA,
        report.programs_checked(),
        report.architectures(),
        rules.join(","),
        diagnostics.join(","),
        report.count(Severity::Error),
        report.count(Severity::Warn),
        report.count(Severity::Info),
    )
}

/// An abstract-interpretation report as a JSON proof document
/// (`osarch analyze --json`, schema [`ABSINT_SCHEMA`]).
///
/// Every program carries a proof artifact: one verdict per invariant
/// (`proved` | `refuted` with a witness path | `unknown` when widening cost
/// the needed precision), plus the fixpoint's iteration count and the CFG
/// and domain sizes. `findings` lists the OA2xx diagnostics with their
/// witness paths; `rules` maps the codes to names like `lint_json` does.
#[must_use]
pub fn absint_json(report: &AbsintReport) -> String {
    let rules: Vec<String> = absint_rule_table()
        .iter()
        .map(|(code, name, summary)| {
            format!(
                "{{\"code\":\"{}\",\"name\":\"{}\",\"summary\":\"{}\"}}",
                json_escape(code),
                json_escape(name),
                json_escape(summary)
            )
        })
        .collect();
    let witness_json = |witness: &[usize]| -> String {
        let steps: Vec<String> = witness.iter().map(ToString::to_string).collect();
        format!("[{}]", steps.join(","))
    };
    let artifacts: Vec<String> = report
        .artifacts()
        .iter()
        .map(|a| {
            let arch = a
                .arch
                .map_or_else(|| "null".to_string(), |ar| format!("\"{ar}\""));
            let invariants: Vec<String> = a
                .invariants
                .iter()
                .map(|inv| {
                    let witness = match &inv.verdict {
                        Verdict::Refuted(path) => format!(",\"witness\":{}", witness_json(path)),
                        Verdict::Proved | Verdict::Unknown => String::new(),
                    };
                    format!(
                        "{{\"invariant\":\"{}\",\"verdict\":\"{}\"{}}}",
                        json_escape(inv.invariant),
                        inv.verdict.label(),
                        witness
                    )
                })
                .collect();
            format!(
                "{{\"arch\":{},\"program\":\"{}\",\"invariants\":[{}],\
                 \"iterations\":{},\"blocks\":{},\"edges\":{},\
                 \"domain_width\":{},\"widened\":{}}}",
                arch,
                json_escape(&a.program),
                invariants.join(","),
                a.iterations,
                a.blocks,
                a.edges,
                a.domain_width,
                a.widened
            )
        })
        .collect();
    let findings: Vec<String> = report
        .findings()
        .iter()
        .map(|f| {
            let d = &f.diag;
            let arch = d
                .arch
                .map_or_else(|| "null".to_string(), |a| format!("\"{a}\""));
            let op = d
                .op_index
                .map_or_else(|| "null".to_string(), |i| i.to_string());
            format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"arch\":{},\"program\":\"{}\",\
                 \"op\":{},\"message\":\"{}\",\"witness\":{}}}",
                json_escape(d.code),
                d.severity.label(),
                arch,
                json_escape(&d.program),
                op,
                json_escape(&d.message),
                witness_json(&f.witness)
            )
        })
        .collect();
    let (proved, refuted, unknown) = report.verdict_counts();
    format!(
        concat!(
            "{{\"schema\":\"{}\",\"programs_checked\":{},\"architectures\":{},",
            "\"rules\":[{}],\"artifacts\":[{}],\"findings\":[{}],",
            "\"verdicts\":{{\"proved\":{},\"refuted\":{},\"unknown\":{}}},",
            "\"counts\":{{\"error\":{},\"warning\":{},\"info\":{}}}}}\n"
        ),
        ABSINT_SCHEMA,
        report.programs_checked(),
        report.architectures(),
        rules.join(","),
        artifacts.join(","),
        findings.join(","),
        proved,
        refuted,
        unknown,
        report.count(Severity::Error),
        report.count(Severity::Warn),
        report.count(Severity::Info),
    )
}

/// A rendered report table as a JSON object.
#[must_use]
pub fn table_json(table: &Table) -> String {
    let string_array = |items: &[String]| {
        let quoted: Vec<String> = items
            .iter()
            .map(|s| format!("\"{}\"", json_escape(s)))
            .collect();
        format!("[{}]", quoted.join(","))
    };
    let rows: Vec<String> = table.data_rows().iter().map(|r| string_array(r)).collect();
    format!(
        "{{\"title\":\"{}\",\"headers\":{},\"rows\":[{}],\"notes\":{}}}",
        json_escape(table.title()),
        string_array(table.header_cells()),
        rows.join(","),
        string_array(table.footnotes())
    )
}

/// A batch of tables as a JSON array document.
#[must_use]
pub fn tables_json(tables: &[Table]) -> String {
    let items: Vec<String> = tables.iter().map(table_json).collect();
    format!("[{}]\n", items.join(","))
}

/// One trace event as a Chrome trace-event object.
///
/// Complete events become `"ph":"X"` with `ts`/`dur`; instants become
/// `"ph":"i"` with thread scope. The phase tag and numeric arguments ride
/// in `args`.
fn trace_event_json(event: &Event) -> String {
    let mut args = String::new();
    if let Some(phase) = event.phase {
        let _ = write!(args, "\"phase\":\"{}\"", json_escape(phase));
    }
    for (key, value) in &event.args {
        if !args.is_empty() {
            args.push(',');
        }
        let _ = write!(args, "\"{}\":{}", json_escape(key), value);
    }
    let head = format!(
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{}",
        json_escape(&event.name),
        event.cat.label(),
        event.pid,
        event.tid,
        event.ts
    );
    match event.kind {
        EventKind::Complete => {
            format!(
                "{head},\"ph\":\"X\",\"dur\":{},\"args\":{{{args}}}}}",
                event.dur
            )
        }
        EventKind::Instant => format!("{head},\"ph\":\"i\",\"s\":\"t\",\"args\":{{{args}}}}}"),
    }
}

fn metadata_event_json(name: &str, tid: u32, value: &str) -> String {
    format!(
        "{{\"name\":\"{}\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
        json_escape(name),
        json_escape(value)
    )
}

/// A traced primitive run as a Chrome trace-event JSON document.
///
/// The document loads directly in `chrome://tracing` and
/// [Perfetto](https://ui.perfetto.dev): tid 0 is the execution track
/// (micro-op and phase spans in run-local cycles), tid 1 is the memory
/// system (TLB / cache / write-buffer events on the rebased memory
/// clock). Timestamps are cycles, not microseconds; `otherData` carries
/// the schema tag, architecture, primitive and clock rate needed to
/// convert.
#[must_use]
pub fn chrome_trace_json(trace: &PrimitiveTrace) -> String {
    let mut events = vec![
        metadata_event_json(
            "process_name",
            0,
            &format!("{} {}", trace.arch, trace.primitive.tag()),
        ),
        metadata_event_json("thread_name", 0, "execution"),
        metadata_event_json("thread_name", 1, "memory system"),
    ];
    events.extend(trace.events.iter().map(trace_event_json));
    format!(
        concat!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ns\",",
            "\"otherData\":{{\"schema\":\"{}\",\"arch\":\"{}\",\"primitive\":\"{}\",",
            "\"clock_mhz\":{},\"cycles\":{},\"instructions\":{}}}}}\n"
        ),
        events.join(","),
        TRACE_SCHEMA,
        json_escape(&trace.arch.to_string()),
        trace.primitive.tag(),
        json_f64(trace.clock_mhz),
        trace.stats.cycles,
        trace.stats.instructions,
    )
}

/// A performance-counter registry as an `osarch-counters/1` JSON document:
/// a flat array of `{arch, primitive, phase, name, value}` records in the
/// registry's deterministic (sorted) order.
#[must_use]
pub fn counters_json(counters: &CounterRegistry) -> String {
    let records: Vec<String> = counters
        .iter()
        .map(|(key, value)| {
            format!(
                "{{\"arch\":\"{}\",\"primitive\":\"{}\",\"phase\":\"{}\",\
                 \"name\":\"{}\",\"value\":{value}}}",
                json_escape(&key.arch),
                json_escape(&key.primitive),
                json_escape(&key.phase),
                json_escape(&key.name),
            )
        })
        .collect();
    format!(
        "{{\"schema\":\"{}\",\"counters\":[{}]}}\n",
        COUNTERS_SCHEMA,
        records.join(",")
    )
}

/// Check that `text` is one well-formed JSON value (plus surrounding
/// whitespace), nested no deeper than [`json::MAX_DEPTH`]. Returns the
/// byte offset of the first error, or `Ok(())`.
pub fn validate_json(text: &str) -> Result<(), usize> {
    json::parse(text).map(drop).map_err(|e| e.offset)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_floats_serialize_as_null_never_raw() {
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
        assert_eq!(json_number(f64::NEG_INFINITY), "null");
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(-0.0), "-0");
        // An emitter that interpolates a non-finite value still produces a
        // well-formed document.
        let doc = format!("{{\"x\":{}}}", json_number(f64::NAN));
        assert_eq!(validate_json(&doc), Ok(()));
    }

    #[test]
    fn measure_document_is_valid() {
        let doc = measure_json(Arch::R3000, Primitive::Trap);
        assert_eq!(validate_json(&doc), Ok(()));
        assert!(doc.contains("\"arch\":\"R3000\""));
        assert!(doc.contains("\"name\":\"trap\""));
        assert!(doc.contains("\"phases\":["));
    }

    #[test]
    fn serve_bench_document_is_valid() {
        let report = ServeBenchReport {
            workload: "skewed".to_string(),
            mode: "closed".to_string(),
            conns: 8,
            pipeline_depth: 4,
            driver_threads: 8,
            workers: 4,
            shards: 16,
            secs: 3.0,
            requests: 1200,
            errors: 0,
            throughput_rps: 400.0,
            latency: crate::stats::LatencySummary::from_unsorted(&[100, 200, 300]),
            latency_hist: osarch_telemetry::Histogram::from_values(&[100, 200, 300]).sparse(),
            hits: 1172,
            misses: 28,
            coalesced: 3,
            resilience: ResilienceCounters {
                retries: 5,
                giveups: 1,
                breaker_opens: 1,
                degraded: 2,
                timeouts: 3,
                conn_resets: 2,
                server_errors: 1,
                breaker_open: 4,
                corrupt: 0,
            },
        };
        let doc = serve_bench_json(&report);
        assert_eq!(validate_json(&doc), Ok(()));
        assert_eq!(validate_serve_bench(&doc), Ok(()));
        assert!(doc.contains(&format!("\"schema\":\"{SERVE_BENCH_SCHEMA}\"")));
        assert!(doc.contains("\"throughput_rps\":400"));
        assert!(doc.contains("\"pipeline_depth\":4,\"driver_threads\":8"));
        assert!(doc.contains("\"samples\":3,\"sampled\":false"));
        assert!(doc.contains("\"p999\":"));
        assert!(doc.contains(&format!(
            "\"latency_hist\":{{\"sub_bits\":{},\"max_exp\":{},\"buckets\":[[",
            osarch_telemetry::SUB_BITS,
            osarch_telemetry::MAX_EXP
        )));
        assert!(doc.contains("\"resilience\":{\"retries\":5,\"giveups\":1"));
        assert!(doc.contains("\"error_classes\":{\"timeout\":3,\"conn_reset\":2"));
        // The extended validator rejects a document missing a column.
        let truncated = doc.replace("\"giveups\":1,", "");
        assert!(validate_serve_bench(&truncated).is_err());
        // Non-finite throughput (a zero-second run) must degrade to null.
        let mut broken = report;
        broken.throughput_rps = f64::INFINITY;
        let doc = serve_bench_json(&broken);
        assert_eq!(validate_json(&doc), Ok(()));
        assert!(doc.contains("\"throughput_rps\":null"));
    }

    #[test]
    fn metrics_snapshot_document_is_valid() {
        let hub = osarch_telemetry::TelemetryHub::new(2, &["ping", "measure"], 64, 7);
        for us in [120u64, 250, 4000] {
            hub.record_served(0, 1, us, None, 0);
        }
        hub.record_loop_lag(1, 35, 0);
        hub.record_queue_depth(0, 4, 0);
        hub.record_arena(0, 9, 0);
        let snap = hub.snapshot(
            5_000_000,
            osarch_telemetry::Gauges {
                conns_open: 2,
                conn_budget: 64,
                workers: 4,
                workers_live: 4,
                ..osarch_telemetry::Gauges::default()
            },
            osarch_telemetry::Totals {
                requests: 3,
                cache_hits: 2,
                cache_misses: 1,
                ..osarch_telemetry::Totals::default()
            },
        );
        let doc = metrics_snapshot_json(&snap);
        assert_eq!(validate_json(&doc), Ok(()));
        assert_eq!(validate_metrics_snapshot(&doc), Ok(()));
        assert!(doc.contains(&format!("\"schema\":\"{METRICS_SCHEMA}\"")));
        assert!(doc.contains("\"uptime_us\":5000000"));
        assert!(doc.contains("\"op\":\"measure\""));
        assert!(doc.contains("\"requests\":3"));
        assert!(doc.contains("\"conn_budget\":64"));
        // hits 2 + coalesced 0 over 3 lookups.
        assert!(doc.contains("\"cache_hit_ratio\":0.6666"), "{doc}");
        assert!(doc.ends_with("}\n"));
        // The validator flags a document missing a required section.
        let truncated = doc.replace("\"gauges\":", "\"ga_uges\":");
        assert!(validate_metrics_snapshot(&truncated).is_err());
    }

    #[test]
    fn metrics_snapshot_cluster_section_is_optional_and_well_formed() {
        let hub = osarch_telemetry::TelemetryHub::new(1, &["ping"], 64, 7);
        let mut snap = hub.snapshot(
            1_000_000,
            osarch_telemetry::Gauges::default(),
            osarch_telemetry::Totals::default(),
        );
        let standalone = metrics_snapshot_json(&snap);
        assert!(!standalone.contains("\"cluster\""), "{standalone}");
        snap.cluster = Some(osarch_telemetry::ClusterGauges {
            ownership_ppm: 333_333,
            peers_alive: 2,
            peers_total: 3,
            incarnation: 4,
            forwarded: 10,
            proxied: 7,
            redirected: 1,
            gossip_rounds: 25,
        });
        let doc = metrics_snapshot_json(&snap);
        assert_eq!(validate_json(&doc), Ok(()));
        assert_eq!(validate_metrics_snapshot(&doc), Ok(()));
        assert!(
            doc.contains("\"cluster\":{\"ownership_ppm\":333333,\"peers_alive\":2"),
            "{doc}"
        );
        assert!(doc.contains("\"gossip_rounds\":25"), "{doc}");
        // The cluster fragment is a pure insertion: removing it restores
        // the standalone document byte for byte.
        let stripped = doc.replace(
            concat!(
                "\"cluster\":{\"ownership_ppm\":333333,\"peers_alive\":2,",
                "\"peers_total\":3,\"incarnation\":4,\"forwarded\":10,",
                "\"proxied\":7,\"redirected\":1,\"gossip_rounds\":25},"
            ),
            "",
        );
        assert_eq!(stripped, standalone);
    }

    #[test]
    fn cluster_status_validator_checks_schema_and_keys() {
        let doc = format!(
            concat!(
                "{{\"schema\":\"{}\",\"self\":\"127.0.0.1:4101\",",
                "\"incarnation\":3,\"replicas\":2,\"vnodes\":128,\"proxy\":true,",
                "\"ownership_ppm\":333333,\"peers_alive\":3,\"peers_total\":3,",
                "\"forwarded\":12,\"proxied\":4,\"redirected\":1,\"gossip_rounds\":88,",
                "\"nodes\":[{{\"addr\":\"127.0.0.1:4101\",\"incarnation\":3,",
                "\"status\":\"alive\"}}]}}"
            ),
            CLUSTER_SCHEMA
        );
        assert_eq!(validate_cluster_status(&doc), Ok(()));
        let wrong_schema = doc.replace(CLUSTER_SCHEMA, "osarch-cluster/0");
        assert!(validate_cluster_status(&wrong_schema).is_err());
        let missing = doc.replace("\"gossip_rounds\":88,", "");
        assert!(validate_cluster_status(&missing).is_err());
    }

    #[test]
    fn cluster_bench_document_is_valid() {
        let report = ClusterBenchReport {
            workload: "skewed".to_string(),
            nodes: 3,
            replicas: 2,
            conns_per_node: 8,
            pipeline_depth: 4,
            secs: 3.0,
            requests: 3600,
            errors: 0,
            corrupt: 0,
            throughput_rps: 1200.0,
            baseline_rps: 400.0,
            speedup: 3.0,
            latency: crate::stats::LatencySummary::from_unsorted(&[100, 200, 300]),
            per_node: vec![
                ("127.0.0.1:4101".to_string(), 1180),
                ("127.0.0.1:4102".to_string(), 1240),
                ("127.0.0.1:4103".to_string(), 1180),
            ],
        };
        let doc = cluster_bench_json(&report);
        assert_eq!(validate_json(&doc), Ok(()));
        assert_eq!(validate_cluster_bench(&doc), Ok(()));
        assert!(doc.contains(&format!("\"schema\":\"{CLUSTER_BENCH_SCHEMA}\"")));
        assert!(doc.contains("\"nodes\":3,\"replicas\":2"));
        assert!(doc.contains("\"baseline_rps\":400,\"speedup\":3"));
        assert!(doc.contains("\"per_node\":[{\"addr\":\"127.0.0.1:4101\",\"requests\":1180}"));
        assert!(doc.ends_with("}\n"));
        // Missing column fails at the producer.
        let truncated = doc.replace("\"baseline_rps\":400,", "");
        assert!(validate_cluster_bench(&truncated).is_err());
        // A serve-bench document does not pass as a cluster bench.
        assert!(validate_cluster_bench("{\"schema\":\"osarch-serve-bench/2\"}").is_err());
    }

    #[test]
    fn serve_chains_chrome_document_is_valid() {
        let mut ids = osarch_telemetry::TraceIdGen::new(42, 0);
        let mut pending = osarch_telemetry::PendingTrace::start(&mut ids, "measure", 1, 1000);
        pending.stage("decode", 1000, 40);
        pending.mark(1040);
        pending.stage_from_mark("queue", 1200);
        pending.stage_from_mark("compute", 1900);
        pending.stage_from_mark("write", 2000);
        let chain = pending.finish(2000);
        let trace_id = chain.trace_id;
        let doc = serve_chains_chrome_json(&[chain]);
        assert_eq!(validate_json(&doc), Ok(()));
        assert!(doc.contains("\"traceEvents\":["));
        assert!(doc.contains(&format!("\"name\":\"measure#{trace_id:016x}\"")));
        for stage in ["decode", "queue", "compute", "write"] {
            assert!(doc.contains(&format!("\"name\":\"{stage}\"")), "{stage}");
        }
        // Root + 4 stages, all on the loop's pid and the chain's own tid.
        assert_eq!(doc.matches("\"pid\":1,\"tid\":1,").count(), 5, "{doc}");
        assert!(doc.contains("\"chains\":1"));
        // Empty input still renders a valid (metadata-only) document.
        assert_eq!(validate_json(&serve_chains_chrome_json(&[])), Ok(()));
    }

    #[test]
    fn bench_document_is_valid_and_complete() {
        let doc = bench_json();
        assert_eq!(validate_json(&doc), Ok(()));
        for arch in Arch::all() {
            assert!(doc.contains(&format!("\"arch\":\"{arch}\"")), "{arch}");
        }
        for name in ["null_syscall", "trap", "pte_change", "context_switch"] {
            assert!(doc.contains(&format!("\"name\":\"{name}\"")), "{name}");
        }
    }

    #[test]
    fn lint_document_is_valid_and_lists_every_rule() {
        let report = osarch_analysis::Analyzer::new().analyze_all();
        let doc = lint_json(&report);
        assert_eq!(validate_json(&doc), Ok(()));
        assert!(doc.contains(&format!("\"schema\":\"{LINT_SCHEMA}\"")));
        for rule in default_rules() {
            assert!(
                doc.contains(&format!("\"code\":\"{}\"", rule.code())),
                "{}",
                rule.code()
            );
        }
        assert!(doc.contains("\"counts\":{\"error\":0,\"warning\":0,"));
    }

    #[test]
    fn absint_document_is_valid_and_proves_the_clean_catalog() {
        let report = osarch_analysis::AbsintAnalyzer::new().analyze_all();
        let doc = absint_json(&report);
        assert_eq!(validate_json(&doc), Ok(()));
        assert!(doc.contains(&format!("\"schema\":\"{ABSINT_SCHEMA}\"")));
        for (code, _, _) in absint_rule_table() {
            assert!(doc.contains(&format!("\"code\":\"{code}\"")), "{code}");
        }
        for invariant in [
            "window-balance",
            "write-buffer-drain",
            "state-save-completeness",
        ] {
            assert!(doc.contains(&format!("\"invariant\":\"{invariant}\"")));
        }
        // The shipped catalog proves every invariant on every program: no
        // refutations, no widening losses, no errors.
        assert!(doc.contains("\"refuted\":0,\"unknown\":0"));
        assert!(doc.contains("\"counts\":{\"error\":0,\"warning\":0,"));
    }

    #[test]
    fn chrome_trace_document_is_valid_and_reconciles() {
        let trace = osarch_kernel::trace_primitive(Arch::R3000, Primitive::NullSyscall);
        let doc = chrome_trace_json(&trace);
        assert_eq!(validate_json(&doc), Ok(()));
        assert!(doc.contains("\"traceEvents\":["));
        assert!(doc.contains(&format!("\"schema\":\"{TRACE_SCHEMA}\"")));
        assert!(doc.contains("\"name\":\"process_name\""));
        assert!(doc.contains(&format!("\"cycles\":{}", trace.stats.cycles)));
        // Every recorded event appears: metadata (3) + events.
        assert_eq!(doc.matches("\"ph\":").count(), trace.events.len() + 3);
    }

    #[test]
    fn counters_document_is_valid_and_sorted() {
        let trace = osarch_kernel::trace_primitive(Arch::Sparc, Primitive::Trap);
        let doc = counters_json(&trace.counters);
        assert_eq!(validate_json(&doc), Ok(()));
        assert!(doc.contains(&format!("\"schema\":\"{COUNTERS_SCHEMA}\"")));
        assert!(doc.contains("\"name\":\"cycles\""));
        assert!(doc.contains("\"primitive\":\"trap\""));
    }

    #[test]
    fn table_document_round_trips_the_cells() {
        let mut table = Table::new("T \"quoted\"");
        table.headers(["a", "b"]);
        table.row(["1", "x\ny"]);
        table.note("n");
        let doc = tables_json(&[table]);
        assert_eq!(validate_json(&doc), Ok(()));
        assert!(doc.contains("T \\\"quoted\\\""));
        assert!(doc.contains("x\\ny"));
    }
}
