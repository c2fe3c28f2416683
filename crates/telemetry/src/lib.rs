//! # osarch-telemetry
//!
//! End-to-end request telemetry for the `osarch` serving stack: HDR-style
//! mergeable [`Histogram`]s with integer-only recording, 1 s / 60 s
//! [`WindowedMetrics`] aggregated per event-loop shard, lifetime
//! [`Totals`] kept beside them, and deterministic per-request trace
//! contexts ([`PendingTrace`] → [`SpanChain`]) sampled at a configurable
//! rate so the unsampled hot path allocates nothing.
//!
//! The [`TelemetryHub`] is the serving layer's only recorder: a served
//! request is one [`TelemetryHub::record_served`] call and every other
//! counted event one [`TelemetryHub::tally`] call, each taking exactly
//! one lock — the recording loop's own shard — to update the window and
//! the lifetime total together.
//!
//! The crate is `std`-only and near-leaf (it reuses `osarch-trace`'s
//! event vocabulary for export compatibility but adds no other
//! dependencies), so both `osarch-core` (JSON emitters/validators) and
//! `osarch-serve` (the instrumented server) can depend on it without
//! cycles.
//!
//! Design rules, enforced by tests:
//!
//! * **no wall clock in recorded values** — every timestamp entering the
//!   hub is microseconds/seconds *since server start*, measured by the
//!   caller; trace ids are a pure function of `(seed, shard, ordinal)`,
//!   so same-seed chaos replays draw bit-identical id streams;
//! * **no floats, no per-record allocation** — floats appear only on
//!   read paths (quantiles, means, exposition); a shard allocates only
//!   when its 1 s window rotates and on an op's first record in a window;
//! * **exact merges** — histograms share one fixed bucket layout, so
//!   per-shard windows merge into global totals without loss;
//! * **one record per event** — the window counter and the lifetime
//!   total of an event move under the same lock, so they cannot drift.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expose;
pub mod hist;
pub mod trace;
pub mod window;

pub use hist::{bucket_lower, bucket_upper, Histogram, BUCKETS, MAX_EXP, SUB_BITS};
pub use trace::{mix64, PendingTrace, SpanChain, SpanRec, TraceIdGen};
pub use window::{
    WindowedMetrics, COUNTERS, COUNTER_DEGRADED, COUNTER_ERRORS, COUNTER_HITS, COUNTER_MISSES,
    COUNTER_NAMES, COUNTER_REQUESTS, RETENTION_S,
};

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Completed span chains retained for export (a bounded ring; the
/// newest win).
pub const CHAIN_RING: usize = 512;

/// Point-in-time gauges sampled by the serving layer at snapshot time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    /// Connections currently open.
    pub conns_open: u64,
    /// Open-connection budget (`--queue`).
    pub conn_budget: u64,
    /// Configured worker (event-loop) count.
    pub workers: u64,
    /// Workers currently live.
    pub workers_live: u64,
    /// Compute-offload jobs queued right now.
    pub compute_backlog: u64,
    /// Age of the oldest unflushed write backlog, milliseconds.
    pub oldest_write_backlog_ms: u64,
    /// Active spec-registry epoch (1 = the built-in architectures).
    pub registry_epoch: u64,
    /// Whether shutdown has been initiated.
    pub shutting_down: bool,
}

/// Lifetime totals. The hub keeps the request and [`Tally`] fields
/// itself ([`TelemetryHub::totals`]); the cache and registry fields come
/// from their owners in the serving layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Requests answered with an `ok` envelope.
    pub requests: u64,
    /// Error envelopes returned.
    pub errors: u64,
    /// Connections rejected by the admission budget.
    pub rejected: u64,
    /// Requests that exceeded their deadline.
    pub deadline_exceeded: u64,
    /// Request panics contained.
    pub panics: u64,
    /// Degraded (stale-on-error) replies.
    pub degraded: u64,
    /// Event loops respawned after a death.
    pub worker_respawns: u64,
    /// Chaos faults injected.
    pub faults_injected: u64,
    /// Connections accepted over the lifetime.
    pub conns_opened: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses (led a computation).
    pub cache_misses: u64,
    /// Lookups coalesced onto another flight.
    pub cache_coalesced: u64,
    /// Flights that failed.
    pub cache_failed: u64,
    /// Lookups degraded to a stale value.
    pub cache_degraded: u64,
    /// Spec-registry swaps committed (activations and adoptions).
    pub swaps: u64,
    /// Spec-registry rollbacks (a candidate faulted while being probed).
    pub rollbacks: u64,
}

impl Totals {
    /// Add the hub-kept fields of `other` (requests and every [`Tally`]
    /// field) into `self`.
    fn add_tallies(&mut self, other: &Totals) {
        self.requests += other.requests;
        self.errors += other.errors;
        self.rejected += other.rejected;
        self.deadline_exceeded += other.deadline_exceeded;
        self.panics += other.panics;
        self.degraded += other.degraded;
        self.worker_respawns += other.worker_respawns;
        self.faults_injected += other.faults_injected;
        self.conns_opened += other.conns_opened;
    }

    /// Fraction of cache lookups served without leading a computation
    /// (hits + coalesced over all lookups); 0 when no lookups happened.
    #[must_use]
    pub fn cache_hit_ratio(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses + self.cache_coalesced;
        if lookups == 0 {
            0.0
        } else {
            (self.cache_hits + self.cache_coalesced) as f64 / lookups as f64
        }
    }
}

/// A counted serving event other than a served request. One
/// [`TelemetryHub::tally`] call per occurrence advances every lifetime
/// total the event implies and, where it has one, its window counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tally {
    /// A request answered with an error envelope.
    Error,
    /// A request answered with a `deadline exceeded` error envelope.
    DeadlineMiss,
    /// A contained panic answered with an error envelope: a handler
    /// panic, or a computation that failed with no stale value to serve.
    PanicError,
    /// A contained panic answered with the stale last-good value.
    Degraded,
    /// A contained panic whose request was still answered `ok`: a spec
    /// activation probe that rolled the registry back.
    ProbePanic,
    /// A connection refused by the open-connection budget.
    Rejected,
    /// An event loop that died and was respawned in place.
    LoopRespawn,
    /// A chaos fault injected server-side.
    FaultInjected,
    /// A connection admitted past the budget check.
    ConnOpened,
}

impl Tally {
    /// Advance `totals` for this event; returns the window counter the
    /// event also bumps, if any.
    fn apply(self, totals: &mut Totals) -> Option<usize> {
        // The event's own lifetime total…
        match self {
            Tally::Error => {}
            Tally::DeadlineMiss => totals.deadline_exceeded += 1,
            Tally::PanicError | Tally::Degraded | Tally::ProbePanic => totals.panics += 1,
            Tally::Rejected => totals.rejected += 1,
            Tally::LoopRespawn => totals.worker_respawns += 1,
            Tally::FaultInjected => totals.faults_injected += 1,
            Tally::ConnOpened => totals.conns_opened += 1,
        }
        // …then the reply it ended in: an error envelope or a stale value.
        match self {
            Tally::Error | Tally::DeadlineMiss | Tally::PanicError => {
                totals.errors += 1;
                Some(COUNTER_ERRORS)
            }
            Tally::Degraded => {
                totals.degraded += 1;
                Some(COUNTER_DEGRADED)
            }
            _ => None,
        }
    }
}

/// Point-in-time cluster gauges a node exports when it runs in
/// `--cluster` mode: its ring slice, its view of peer liveness, and the
/// request-routing counters. Absent (`None` on the snapshot) for a
/// standalone server, so the exposition stays byte-compatible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterGauges {
    /// Ring ownership fraction in parts-per-million (integer so the
    /// JSON emitters stay number-format-free).
    pub ownership_ppm: u64,
    /// Peers (including self) currently believed alive.
    pub peers_alive: u64,
    /// Total nodes in the static ring.
    pub peers_total: u64,
    /// This node's own incarnation number.
    pub incarnation: u64,
    /// Requests relayed onward to an owning node.
    pub forwarded: u64,
    /// Requests served here on behalf of a relaying peer.
    pub proxied: u64,
    /// Requests answered with a `not_owner` redirect.
    pub redirected: u64,
    /// Anti-entropy exchanges completed.
    pub gossip_rounds: u64,
}

/// One op's merged window histogram.
#[derive(Debug, Clone)]
pub struct OpWindow {
    /// Op name (protocol spelling).
    pub name: &'static str,
    /// Service-time histogram (microseconds) over the retention horizon.
    pub hist: Histogram,
}

/// A merged view over every shard's windows plus the serving layer's
/// gauges and lifetime totals — the payload behind the `metrics` op,
/// the scrape listener, and `osarch top`.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Microseconds since the server started.
    pub uptime_us: u64,
    /// Window retention horizon (seconds).
    pub retention_s: u64,
    /// Trace sampling rate (1 in N; 0 = tracing off).
    pub sample_every: u64,
    /// Per-op service-time histograms over the horizon.
    pub ops: Vec<OpWindow>,
    /// Event-loop busy time per wake, merged across shards.
    pub loop_lag_us: Histogram,
    /// Offload-queue depth samples.
    pub queue_depth: Histogram,
    /// Buffer-arena occupancy samples.
    pub arena_buffers: Histogram,
    /// Windowed event counters (see [`COUNTER_NAMES`]).
    pub window: [u64; COUNTERS],
    /// Span chains sampled over the lifetime.
    pub chains_sampled: u64,
    /// Point-in-time gauges.
    pub gauges: Gauges,
    /// Lifetime totals.
    pub totals: Totals,
    /// Cluster gauges, present only in `--cluster` mode. The JSON and
    /// Prometheus expositions add a section when set and emit exactly
    /// the standalone document when `None`.
    pub cluster: Option<ClusterGauges>,
    /// Spec hot-swap latency (microseconds per committed swap). Empty
    /// from [`TelemetryHub::snapshot`]; the serving layer overwrites it
    /// from the registry before exposing, the same way it fills
    /// `cluster`.
    pub swap_latency_us: Histogram,
}

/// One loop's slice of the hub: its windows and its share of the
/// lifetime totals, behind one lock.
#[derive(Debug)]
struct Shard {
    windows: WindowedMetrics,
    totals: Totals,
}

/// The per-server telemetry hub: one shard (windowed metrics plus
/// lifetime totals) per event loop, the `workers_live` gauge, a bounded
/// ring of sampled span chains, and the deterministic trace-id seed.
#[derive(Debug)]
pub struct TelemetryHub {
    op_names: &'static [&'static str],
    sample_every: u64,
    seed: u64,
    shards: Vec<Mutex<Shard>>,
    workers_live: AtomicU64,
    chains: Mutex<VecDeque<SpanChain>>,
    chains_sampled: AtomicU64,
}

impl TelemetryHub {
    /// A hub for `loops` event-loop shards over the given op registry.
    /// `sample_every` of 0 disables tracing (windowed metrics stay on);
    /// N samples every Nth request per shard.
    #[must_use]
    pub fn new(
        loops: usize,
        op_names: &'static [&'static str],
        sample_every: u64,
        seed: u64,
    ) -> TelemetryHub {
        TelemetryHub {
            op_names,
            sample_every,
            seed,
            shards: (0..loops.max(1))
                .map(|_| {
                    Mutex::new(Shard {
                        windows: WindowedMetrics::new(op_names.len()),
                        totals: Totals::default(),
                    })
                })
                .collect(),
            workers_live: AtomicU64::new(0),
            chains: Mutex::new(VecDeque::with_capacity(64)),
            chains_sampled: AtomicU64::new(0),
        }
    }

    /// The trace sampling rate (1 in N; 0 = off).
    #[must_use]
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// A deterministic id generator for one loop shard.
    #[must_use]
    pub fn ids_for(&self, loop_index: usize) -> TraceIdGen {
        TraceIdGen::new(self.seed, loop_index as u64)
    }

    /// Lock one loop's shard. Callers off the event loops (the accept
    /// thread, the compute pool) pass the loop their event belongs to.
    fn shard(&self, loop_index: usize) -> MutexGuard<'_, Shard> {
        self.shards[loop_index % self.shards.len()]
            .lock()
            .expect("telemetry shard")
    }

    /// Record one request answered `ok` under op slot `op`: its service
    /// time, the window's `requests` counter plus `hits` (`hit` is
    /// `Some(true)`) or `misses` (`Some(false)`) for a reply that went
    /// through the cache, and the lifetime request total.
    pub fn record_served(
        &self,
        loop_index: usize,
        op: usize,
        service_us: u64,
        hit: Option<bool>,
        now_s: u64,
    ) {
        let mut shard = self.shard(loop_index);
        shard.totals.requests += 1;
        let windows = &mut shard.windows;
        windows.record_op(op, service_us, now_s);
        windows.bump(COUNTER_REQUESTS, 1, now_s);
        match hit {
            Some(true) => windows.bump(COUNTER_HITS, 1, now_s),
            Some(false) => windows.bump(COUNTER_MISSES, 1, now_s),
            None => {}
        }
    }

    /// Count one [`Tally`] event: its lifetime totals and its window
    /// counter, if it has one.
    pub fn tally(&self, loop_index: usize, event: Tally, now_s: u64) {
        let mut guard = self.shard(loop_index);
        let shard = &mut *guard;
        if let Some(counter) = event.apply(&mut shard.totals) {
            shard.windows.bump(counter, 1, now_s);
        }
    }

    /// Lifetime totals of the hub-kept fields (requests and every
    /// [`Tally`]) summed over the shards; the cache and registry fields
    /// are left zero for the serving layer to fill.
    #[must_use]
    pub fn totals(&self) -> Totals {
        let mut sum = Totals::default();
        for index in 0..self.shards.len() {
            sum.add_tallies(&self.shard(index).totals);
        }
        sum
    }

    /// An event loop began its serving tenure (the `workers_live` gauge).
    pub fn loop_started(&self) {
        self.workers_live.fetch_add(1, Ordering::SeqCst);
    }

    /// An event loop left its serving loop for good.
    pub fn loop_stopped(&self) {
        self.workers_live.fetch_sub(1, Ordering::SeqCst);
    }

    /// Event loops currently inside their serving tenure.
    #[must_use]
    pub fn workers_live(&self) -> u64 {
        self.workers_live.load(Ordering::SeqCst)
    }

    /// Record one event-loop iteration's busy time.
    pub fn record_loop_lag(&self, loop_index: usize, busy_us: u64, now_s: u64) {
        self.shard(loop_index)
            .windows
            .record_loop_lag(busy_us, now_s);
    }

    /// Sample the offload-queue depth from a shard's housekeeping tick.
    pub fn record_queue_depth(&self, loop_index: usize, depth: u64, now_s: u64) {
        self.shard(loop_index)
            .windows
            .record_queue_depth(depth, now_s);
    }

    /// Sample the buffer-arena occupancy from a housekeeping tick.
    pub fn record_arena(&self, loop_index: usize, buffers: u64, now_s: u64) {
        self.shard(loop_index).windows.record_arena(buffers, now_s);
    }

    /// Retire a completed span chain into the bounded ring.
    pub fn push_chain(&self, chain: SpanChain) {
        self.chains_sampled.fetch_add(1, Ordering::Relaxed);
        let mut chains = self.chains.lock().expect("telemetry chains");
        if chains.len() == CHAIN_RING {
            chains.pop_front();
        }
        chains.push_back(chain);
    }

    /// The retained span chains, oldest first.
    #[must_use]
    pub fn chains(&self) -> Vec<SpanChain> {
        self.chains
            .lock()
            .expect("telemetry chains")
            .iter()
            .cloned()
            .collect()
    }

    /// Span chains sampled over the lifetime (including evicted ones).
    #[must_use]
    pub fn chains_sampled(&self) -> u64 {
        self.chains_sampled.load(Ordering::Relaxed)
    }

    /// Merge every shard's windows into one snapshot. `uptime_us` is the
    /// caller's monotonic server clock; `gauges` and `totals` are carried
    /// as given (the serving layer builds them from
    /// [`TelemetryHub::totals`], [`TelemetryHub::workers_live`] and its
    /// own cache and registry counters).
    #[must_use]
    pub fn snapshot(&self, uptime_us: u64, gauges: Gauges, totals: Totals) -> MetricsSnapshot {
        let now_s = uptime_us / 1_000_000;
        let mut per_op = vec![Histogram::new(); self.op_names.len()];
        let mut loop_lag = Histogram::new();
        let mut queue_depth = Histogram::new();
        let mut arena = Histogram::new();
        let mut window = [0u64; COUNTERS];
        for index in 0..self.shards.len() {
            self.shard(index).windows.merge_into(
                now_s,
                &mut per_op,
                &mut loop_lag,
                &mut queue_depth,
                &mut arena,
                &mut window,
            );
        }
        MetricsSnapshot {
            uptime_us,
            retention_s: RETENTION_S,
            sample_every: self.sample_every,
            ops: self
                .op_names
                .iter()
                .zip(per_op)
                .map(|(&name, hist)| OpWindow { name, hist })
                .collect(),
            loop_lag_us: loop_lag,
            queue_depth,
            arena_buffers: arena,
            window,
            chains_sampled: self.chains_sampled(),
            gauges,
            totals,
            cluster: None,
            swap_latency_us: Histogram::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPS: [&str; 3] = ["ping", "measure", "stats"];

    #[test]
    fn concurrent_record_merge_rotate_totals_are_exact() {
        // N writer threads hammer every shard while a reader keeps
        // merging snapshots mid-flight; the final merged totals must
        // account for every single record — the exactness claim the
        // per-shard mutex design makes.
        let hub = TelemetryHub::new(4, &OPS, 0, 1);
        const WRITERS: usize = 8;
        const PER_WRITER: u64 = 20_000;
        std::thread::scope(|scope| {
            for writer in 0..WRITERS {
                let hub = &hub;
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        let shard = (writer + i as usize) % 4;
                        // Spread records over several window epochs so
                        // rotation happens concurrently with merging.
                        let now_s = i / (PER_WRITER / 4).max(1);
                        hub.record_served(shard, (i % 3) as usize, i % 5_000, None, now_s);
                        if i % 64 == 0 {
                            hub.record_loop_lag(shard, i % 300, now_s);
                        }
                    }
                });
            }
            let hub = &hub;
            scope.spawn(move || {
                for _ in 0..50 {
                    let snap = hub.snapshot(3_000_000, Gauges::default(), Totals::default());
                    let total: u64 = snap.ops.iter().map(|op| op.hist.count()).sum();
                    assert!(total <= WRITERS as u64 * PER_WRITER);
                    std::thread::yield_now();
                }
            });
        });
        let snap = hub.snapshot(3_999_999, Gauges::default(), Totals::default());
        let total: u64 = snap.ops.iter().map(|op| op.hist.count()).sum();
        assert_eq!(total, WRITERS as u64 * PER_WRITER);
        assert_eq!(snap.window[COUNTER_REQUESTS], WRITERS as u64 * PER_WRITER);
        let lag_expected: u64 = WRITERS as u64 * PER_WRITER.div_ceil(64);
        assert_eq!(snap.loop_lag_us.count(), lag_expected);
    }

    #[test]
    fn chain_ring_is_bounded_and_counts_lifetime_samples() {
        let hub = TelemetryHub::new(1, &OPS, 16, 9);
        let mut ids = hub.ids_for(0);
        for i in 0..(CHAIN_RING as u64 + 40) {
            let trace = PendingTrace::start(&mut ids, "measure", 0, i);
            hub.push_chain(trace.finish(i + 10));
        }
        assert_eq!(hub.chains().len(), CHAIN_RING);
        assert_eq!(hub.chains_sampled(), CHAIN_RING as u64 + 40);
        // Oldest were evicted: the first retained chain started at 40.
        assert_eq!(hub.chains()[0].start_us, 40);
    }

    #[test]
    fn snapshot_carries_gauges_totals_and_ratio() {
        let hub = TelemetryHub::new(2, &OPS, 64, 5);
        hub.record_served(0, 1, 150, None, 0);
        hub.record_queue_depth(1, 3, 0);
        hub.record_arena(0, 7, 0);
        let totals = Totals {
            requests: 10,
            cache_hits: 6,
            cache_misses: 2,
            cache_coalesced: 2,
            ..Totals::default()
        };
        let gauges = Gauges {
            conns_open: 4,
            conn_budget: 64,
            workers: 2,
            workers_live: 2,
            ..Gauges::default()
        };
        let snap = hub.snapshot(500_000, gauges, totals);
        assert_eq!(snap.sample_every, 64);
        assert_eq!(snap.ops.len(), 3);
        assert_eq!(snap.ops[1].name, "measure");
        assert_eq!(snap.ops[1].hist.count(), 1);
        assert_eq!(snap.queue_depth.max(), 3);
        assert_eq!(snap.arena_buffers.max(), 7);
        assert_eq!(snap.gauges.conn_budget, 64);
        assert!((snap.totals.cache_hit_ratio() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn one_call_moves_the_window_and_the_lifetime_total_together() {
        let hub = TelemetryHub::new(2, &OPS, 0, 3);
        hub.record_served(0, 1, 40, Some(true), 0);
        hub.record_served(1, 1, 900, Some(false), 0);
        hub.record_served(1, 0, 5, None, 0);
        for event in [
            Tally::Error,
            Tally::DeadlineMiss,
            Tally::PanicError,
            Tally::Degraded,
            Tally::ProbePanic,
            Tally::Rejected,
            Tally::LoopRespawn,
            Tally::FaultInjected,
            Tally::ConnOpened,
        ] {
            hub.tally(0, event, 0);
        }
        let totals = hub.totals();
        assert_eq!(totals.requests, 3);
        assert_eq!(totals.errors, 3, "error, deadline miss, panic error");
        assert_eq!(totals.deadline_exceeded, 1);
        assert_eq!(totals.panics, 3, "panic error, degraded, probe panic");
        assert_eq!(totals.degraded, 1);
        assert_eq!(totals.rejected, 1);
        assert_eq!(totals.worker_respawns, 1);
        assert_eq!(totals.faults_injected, 1);
        assert_eq!(totals.conns_opened, 1);
        assert_eq!(totals.cache_hits, 0, "cache fields are the caller's");
        let snap = hub.snapshot(500_000, Gauges::default(), totals);
        assert_eq!(snap.window[COUNTER_REQUESTS], totals.requests);
        assert_eq!(snap.window[COUNTER_ERRORS], totals.errors);
        assert_eq!(snap.window[COUNTER_DEGRADED], totals.degraded);
        assert_eq!(snap.window[COUNTER_HITS], 1);
        assert_eq!(snap.window[COUNTER_MISSES], 1);
        assert_eq!(snap.ops[1].hist.count(), 2);
        assert_eq!(snap.ops[0].hist.count(), 1);
        hub.loop_started();
        hub.loop_started();
        hub.loop_stopped();
        assert_eq!(hub.workers_live(), 1);
    }

    #[test]
    fn same_seed_hubs_issue_identical_id_streams_per_shard() {
        let a = TelemetryHub::new(4, &OPS, 64, 0xfeed);
        let b = TelemetryHub::new(4, &OPS, 64, 0xfeed);
        for shard in 0..4 {
            let (mut ga, mut gb) = (a.ids_for(shard), b.ids_for(shard));
            for _ in 0..100 {
                assert_eq!(ga.next_id(), gb.next_id());
            }
        }
    }
}
