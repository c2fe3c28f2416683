//! The load-generator harness (`osarch-loadgen`).
//!
//! Drives a running `osarch-serve` instance (or self-hosts one) with
//! concurrent closed- or open-loop connections over the full 7 × 4
//! architecture × primitive key space, under a uniform or hot-key-skewed
//! draw, and reports throughput plus client-observed latency percentiles
//! as an `osarch-serve-bench/2` document (`BENCH_serve.json`). Latency is
//! tallied into a log-linear [`Histogram`] per connection and merged
//! exactly, so the tail percentiles (through p99.9) survive any request
//! count, and the merged sparse buckets ship in the report's
//! `latency_hist` field for offline re-aggregation.
//!
//! * **closed loop** — each connection keeps exactly one request in
//!   flight: send, wait, repeat. Throughput is bounded by service latency.
//! * **open loop** — each connection fires on a fixed arrival schedule
//!   (`rate` requests/second); when a reply is late the next request goes
//!   out immediately afterwards, so sustained overload shows up as rising
//!   latency rather than reduced offered load.
//! * **pipelined** — selected automatically at connection scale (or with
//!   `--pipeline N > 1`): a small pool of driver threads multiplexes
//!   *all* the connections, batching `pipeline` requests per write and
//!   verifying the replies echo their ids back **in order**. This is the
//!   only way one client machine holds 10 000 connections against the
//!   event-driven server without 10 000 client threads.
//!
//! Every connection drives a [`ResilientClient`], so the report also
//! carries the resilience columns: retries, giveups, breaker transitions,
//! and per-error-class counts (timeout / conn_reset / server_error /
//! breaker_open). With `--faults P` the run self-hosts a fault-injected
//! server *and* injects client-side faults from the same deterministic
//! schedule — the harness half of the chaos soak.
//!
//! The skewed draw makes the single-flight cache's case: most requests
//! pile onto a few hot keys, so hit/coalesce counters dominate and
//! serving cost is the fixed per-request envelope, not the simulation.

use crate::client::{ClientConfig, ErrorClass, ResilientClient};
use crate::server::{ClusterConfig, Server, ServerConfig, ServerHandle};
use osarch_chaos::{ChaosConfig, ChaosController};
use osarch_core::json::{self, Value};
use osarch_core::metrics::{ClusterBenchReport, ResilienceCounters, ServeBenchReport};
use osarch_core::stats::LatencySummary;
use osarch_cpu::Arch;
use osarch_kernel::Primitive;
use osarch_telemetry::Histogram;
use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Target server; `None` self-hosts one for the run.
    pub addr: Option<String>,
    /// Concurrent connections.
    pub conns: u32,
    /// Requests kept in flight per connection. `1` is strict
    /// request/reply; `>1` selects the multiplexed pipelined driver
    /// (as does a large `conns`), which batches this many requests per
    /// write and verifies the replies come back in order.
    pub pipeline: u32,
    /// Run duration in seconds.
    pub secs: f64,
    /// Hot-key-skewed draw instead of uniform.
    pub skew: bool,
    /// Open-loop arrival rate per connection (requests/second);
    /// `None` runs closed-loop.
    pub rate: Option<f64>,
    /// Worker threads for the self-hosted server.
    pub workers: usize,
    /// Cache shards for the self-hosted server.
    pub shards: usize,
    /// RNG seed; every connection derives its own deterministic stream,
    /// and the fault schedule (when `faults > 0`) derives from it too.
    pub seed: u64,
    /// Fault-injection probability per failpoint draw (0 disables).
    /// Requires self-hosting (`addr: None`) for the server-side half;
    /// client-side faults apply either way.
    pub faults: f64,
    /// Trace-sampling divisor for the self-hosted server (sample one
    /// request in `sample`; 0 disables tracing). Only meaningful with
    /// `addr: None`; used to measure telemetry overhead on vs off.
    pub sample: u64,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            addr: None,
            conns: 4,
            pipeline: 1,
            secs: 3.0,
            skew: false,
            rate: None,
            workers: 4,
            shards: 16,
            seed: 0x05a1c,
            faults: 0.0,
            sample: 0,
        }
    }
}

/// The full measure key space: every architecture × primitive pair.
#[must_use]
pub fn key_space() -> Vec<(Arch, Primitive)> {
    let mut keys = Vec::with_capacity(Arch::COUNT * 4);
    for arch in Arch::all() {
        for primitive in Primitive::all() {
            keys.push((arch, primitive));
        }
    }
    keys
}

/// Per-connection tallies, merged after the run. Latencies go straight
/// into a log-linear histogram — bucket merge across connections is
/// exact, so the report's percentiles cover every reply, not a sample.
#[derive(Debug, Default)]
struct ConnResult {
    oks: u64,
    errors: u64,
    latency: Histogram,
    resilience: ResilienceCounters,
}

/// Cache counters scraped from a `metrics` reply's lifetime totals.
#[derive(Debug, Default, Clone, Copy)]
struct CacheCounters {
    hits: u64,
    misses: u64,
    coalesced: u64,
}

/// Run the workload and report. Self-hosts a server when `config.addr`
/// is `None` (and shuts it down afterwards); with `config.faults > 0`
/// the self-hosted server runs under a deterministic fault schedule.
pub fn run(config: &LoadgenConfig) -> std::io::Result<ServeBenchReport> {
    let chaos = (config.faults > 0.0).then(|| {
        Arc::new(ChaosController::new(ChaosConfig {
            seed: config.seed,
            rate: config.faults,
            ..ChaosConfig::default()
        }))
    });
    // Injected panics are the faults working as intended — keep their
    // backtraces off stderr for the duration of a faulted run.
    let _quiet = chaos
        .as_ref()
        .map(|_| osarch_chaos::QuietChaosPanics::install());
    let mut hosted: Option<ServerHandle> = None;
    let addr = match &config.addr {
        Some(addr) => addr.clone(),
        None => {
            let handle = Server::start(&ServerConfig {
                workers: config.workers,
                shards: config.shards,
                // The queue must absorb every loadgen connection at once.
                queue_depth: (config.conns as usize * 2).max(64),
                chaos: chaos.clone(),
                sample_every: config.sample,
                telemetry_seed: config.seed,
                ..ServerConfig::default()
            })?;
            let addr = handle.addr().to_string();
            hosted = Some(handle);
            addr
        }
    };
    let result = drive(&addr, config, chaos.as_ref());
    if let Some(handle) = hosted {
        handle.stop();
    }
    result
}

fn drive(
    addr: &str,
    config: &LoadgenConfig,
    chaos: Option<&Arc<ChaosController>>,
) -> std::io::Result<ServeBenchReport> {
    let before = query_cache_counters(addr)?;
    let duration = Duration::from_secs_f64(config.secs.max(0.1));
    let keys = key_space();
    let weights: Vec<u64> = if config.skew {
        // Harmonic (Zipf-like) weights: the hottest key draws ~25% of the
        // traffic, the tail thins as 1/rank.
        (0..keys.len())
            .map(|rank| 720 / (rank as u64 + 1))
            .collect()
    } else {
        vec![1; keys.len()]
    };
    let dist =
        WeightedIndex::new(weights.iter().copied()).expect("weights are positive by construction");

    let mux = config.pipeline > 1 || config.conns > MUX_THRESHOLD_CONNS;
    let started = Instant::now();
    let results: Vec<ConnResult>;
    let driver_threads: u32;
    if mux {
        let pipeline = config.pipeline.max(1) as usize;
        // Driver threads are I/O-bound — each one multiplexes hundreds
        // of blocking sockets — so the count follows the connection
        // load, not the core count. Sizing by `available_parallelism`
        // collapses to one thread on a single-core host, and one thread
        // dialing 10 000 sockets sequentially burns the whole window on
        // the ramp before a single round runs.
        let threads = (config.conns as usize)
            .div_ceil(MUX_CONNS_PER_THREAD)
            .clamp(1, MUX_MAX_THREADS);
        driver_threads = threads as u32;
        // Deal connections out across the driver threads; the remainder
        // lands on the first few.
        let base = config.conns as usize / threads;
        let extra = config.conns as usize % threads;
        results = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|thread| {
                    let dist = &dist;
                    let keys = &keys;
                    let conns = base + usize::from(thread < extra);
                    let seed =
                        config.seed ^ (thread as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    scope.spawn(move || {
                        drive_mux_chunk(addr, seed, dist, keys, conns, pipeline, started + duration)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("loadgen driver thread panicked"))
                .collect()
        });
    } else {
        driver_threads = config.conns;
        results = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..config.conns)
                .map(|conn| {
                    let dist = &dist;
                    let keys = &keys;
                    let chaos = chaos.cloned();
                    scope.spawn(move || {
                        drive_connection(
                            addr,
                            config.seed ^ (u64::from(conn) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                            dist,
                            keys,
                            started + duration,
                            config.rate,
                            chaos,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("loadgen connection thread panicked"))
                .collect()
        });
    }
    let secs = started.elapsed().as_secs_f64();
    let after = query_cache_counters(addr)?;

    let mut oks = 0u64;
    let mut errors = 0u64;
    let mut resilience = ResilienceCounters::default();
    let mut latency = Histogram::new();
    for conn in results {
        oks += conn.oks;
        errors += conn.errors;
        merge_resilience(&mut resilience, conn.resilience);
        latency.merge(&conn.latency);
    }
    Ok(ServeBenchReport {
        workload: if config.skew { "skewed" } else { "uniform" }.to_string(),
        mode: if mux {
            "pipelined"
        } else if config.rate.is_some() {
            "open"
        } else {
            "closed"
        }
        .to_string(),
        conns: config.conns,
        pipeline_depth: config.pipeline.max(1),
        driver_threads,
        workers: config.workers as u32,
        shards: config.shards as u32,
        secs,
        requests: oks,
        errors,
        throughput_rps: if secs > 0.0 { oks as f64 / secs } else { 0.0 },
        latency: LatencySummary::from_histogram(&latency),
        latency_hist: latency.sparse(),
        hits: after.hits.saturating_sub(before.hits),
        misses: after.misses.saturating_sub(before.misses),
        coalesced: after.coalesced.saturating_sub(before.coalesced),
        resilience,
    })
}

fn merge_resilience(total: &mut ResilienceCounters, conn: ResilienceCounters) {
    total.retries += conn.retries;
    total.giveups += conn.giveups;
    total.breaker_opens += conn.breaker_opens;
    total.degraded += conn.degraded;
    total.timeouts += conn.timeouts;
    total.conn_resets += conn.conn_resets;
    total.server_errors += conn.server_errors;
    total.breaker_open += conn.breaker_open;
    total.corrupt += conn.corrupt;
}

/// Above this many connections the thread-per-connection driver would
/// need an absurd thread count; the multiplexed driver takes over.
const MUX_THRESHOLD_CONNS: u32 = 256;

/// Driver-thread ceiling for the multiplexed driver.
const MUX_MAX_THREADS: usize = 32;

/// Connections one multiplexed driver thread is asked to carry before
/// another thread is added (up to [`MUX_MAX_THREADS`]).
const MUX_CONNS_PER_THREAD: usize = 512;

/// One multiplexed connection: a buffered reader over the socket (writes
/// go straight through `get_mut`) plus its id counter.
struct MuxConn {
    reader: BufReader<TcpStream>,
    next_id: u64,
}

/// Connect with retries until `deadline`: a connection storm overflows
/// the listener backlog, and the kernel answers some SYNs late or with a
/// reset — retrying is part of holding N connections open, not cheating.
fn connect_with_retry(addr: &str, deadline: Instant) -> Option<MuxConn> {
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                return Some(MuxConn {
                    reader: BufReader::new(stream),
                    next_id: 0,
                });
            }
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => return None,
        }
    }
}

/// One driver thread's multiplexed loop over `conns` sockets: each round
/// writes a batch of `pipeline` requests to *every* socket (so the whole
/// chunk is in flight at once), then reads each socket's replies back
/// and checks the ids echo **in order** — a reply out of order or
/// unparseable counts as client-visible corruption. Latency is recorded
/// per reply at batch granularity: the round-trip of the batch it rode
/// in, which is the figure a pipelining client actually experiences.
fn drive_mux_chunk(
    addr: &str,
    seed: u64,
    dist: &WeightedIndex<u64>,
    keys: &[(Arch, Primitive)],
    conns: usize,
    pipeline: usize,
    stop_at: Instant,
) -> ConnResult {
    drive_mux_paced(addr, seed, dist, keys, conns, pipeline, stop_at, None)
}

/// [`drive_mux_chunk`] with an optional open-loop round schedule: with
/// `pace = Some(interval)` each round of `conns × pipeline` requests
/// fires on a fixed arrival clock (late rounds fire immediately, no
/// schedule reset), so the offered load is a property of the config
/// rather than of how fast the host happens to be. The cluster bench
/// uses this for its weak-scaling measurement.
#[allow(clippy::too_many_arguments)]
fn drive_mux_paced(
    addr: &str,
    seed: u64,
    dist: &WeightedIndex<u64>,
    keys: &[(Arch, Primitive)],
    conns: usize,
    pipeline: usize,
    stop_at: Instant,
    pace: Option<Duration>,
) -> ConnResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut result = ConnResult::default();
    let connect_deadline = Instant::now() + Duration::from_secs(30);
    let mut socks: Vec<Option<MuxConn>> = (0..conns)
        .map(|_| connect_with_retry(addr, connect_deadline.min(stop_at)))
        .collect();
    let mut line = String::new();
    let mut batch = String::new();
    let mut sent: Vec<(u64, Instant)> = Vec::with_capacity(conns);
    let mut next_round = Instant::now();
    while Instant::now() < stop_at {
        if let Some(interval) = pace {
            let now = Instant::now();
            if next_round > now {
                std::thread::sleep(next_round - now);
            }
            next_round += interval;
            if Instant::now() >= stop_at {
                break;
            }
        }
        // Write phase: put a batch in flight on every live socket.
        sent.clear();
        for sock in &mut socks {
            let Some(conn) = sock else {
                sent.push((0, Instant::now()));
                continue;
            };
            batch.clear();
            let first_id = conn.next_id + 1;
            for _ in 0..pipeline {
                conn.next_id += 1;
                let (arch, primitive) = keys[dist.sample(&mut rng)];
                batch.push_str(&format!(
                    "{{\"op\":\"measure\",\"arch\":\"{arch}\",\"primitive\":\"{}\",\"id\":{}}}\n",
                    primitive.tag(),
                    conn.next_id
                ));
            }
            let when = Instant::now();
            if conn.reader.get_mut().write_all(batch.as_bytes()).is_err() {
                result.errors += 1;
                *sock = None;
            }
            sent.push((first_id, when));
        }
        // Read phase: collect every batch, verifying order as we go.
        for (index, sock) in socks.iter_mut().enumerate() {
            let Some(conn) = sock.as_mut() else { continue };
            let (first_id, when) = sent[index];
            for offset in 0..pipeline {
                line.clear();
                match conn.reader.read_line(&mut line) {
                    Ok(0) | Err(_) => {
                        result.errors += 1;
                        *sock = None;
                        break;
                    }
                    Ok(_) => {
                        let Ok(reply) = json::parse(&line) else {
                            result.resilience.corrupt += 1;
                            result.errors += 1;
                            *sock = None;
                            break;
                        };
                        if reply["id"].as_u64() != Some(first_id + offset as u64) {
                            result.resilience.corrupt += 1;
                            result.errors += 1;
                            *sock = None;
                            break;
                        }
                        if reply["ok"].as_bool() == Some(true) {
                            result.oks += 1;
                            result.latency.record(when.elapsed().as_micros() as u64);
                        } else {
                            result.errors += 1;
                            result.resilience.server_errors += 1;
                        }
                    }
                }
            }
        }
        // A socket lost mid-run is re-dialed once per round, so a
        // transient reset does not silently thin the connection count.
        if Instant::now() < stop_at {
            for sock in &mut socks {
                if sock.is_none() {
                    *sock = connect_with_retry(addr, Instant::now());
                }
            }
        }
    }
    result
}

/// One connection's request loop, through the resilient client.
fn drive_connection(
    addr: &str,
    seed: u64,
    dist: &WeightedIndex<u64>,
    keys: &[(Arch, Primitive)],
    stop_at: Instant,
    rate: Option<f64>,
    chaos: Option<Arc<ChaosController>>,
) -> ConnResult {
    let faulty = chaos.is_some();
    let mut client = ResilientClient::new(
        addr,
        ClientConfig {
            seed,
            attempt_timeout: if faulty {
                Duration::from_millis(500)
            } else {
                Duration::from_secs(30)
            },
            ..ClientConfig::default()
        },
    );
    if let Some(chaos) = chaos {
        client = client.with_chaos(chaos);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut result = ConnResult::default();
    let interval = rate.map(|r| Duration::from_secs_f64(1.0 / r.max(0.001)));
    let mut next_arrival = Instant::now();
    let mut request_id = 0u64;
    while Instant::now() < stop_at {
        if let Some(interval) = interval {
            // Open loop: hold to the arrival schedule; a late reply means
            // the next request fires immediately (no schedule reset).
            let now = Instant::now();
            if next_arrival > now {
                std::thread::sleep(next_arrival - now);
            }
            next_arrival += interval;
            if Instant::now() >= stop_at {
                break;
            }
        }
        let (arch, primitive) = keys[dist.sample(&mut rng)];
        request_id += 1;
        let id_token = request_id.to_string();
        let line = format!(
            "{{\"op\":\"measure\",\"arch\":\"{arch}\",\"primitive\":\"{}\",\"id\":{id_token}}}",
            primitive.tag()
        );
        let sent = Instant::now();
        match client.call(&line, &id_token) {
            Ok(_) => {
                result.oks += 1;
                result.latency.record(sent.elapsed().as_micros() as u64);
            }
            Err(error) => {
                result.errors += 1;
                // Without faults, a clean shutdown or backpressure close
                // reads as conn_reset: stop instead of hammering retries.
                if !faulty && error.class != ErrorClass::ServerError {
                    break;
                }
            }
        }
    }
    let c = client.counters();
    result.resilience = ResilienceCounters {
        retries: c.retries,
        giveups: c.giveups,
        breaker_opens: c.breaker_opens,
        degraded: c.degraded,
        timeouts: c.timeouts,
        conn_resets: c.conn_resets,
        server_errors: c.server_errors,
        breaker_open: c.breaker_shed,
        corrupt: c.corrupt,
    };
    result
}

/// Issue one out-of-band `metrics` query on a fresh connection and read
/// the cache counters from its lifetime totals.
fn query_cache_counters(addr: &str) -> std::io::Result<CacheCounters> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    writeln!(writer, "{{\"op\":\"metrics\"}}")?;
    writer.flush()?;
    let mut reply = String::new();
    reader.read_line(&mut reply)?;
    Ok(cache_counters(&json::parse(&reply).unwrap_or(Value::Null)))
}

/// The cache counters of a `metrics` reply envelope (its
/// `osarch-metrics/1` document's `totals`); 0 for any that is absent.
fn cache_counters(reply: &Value<'_>) -> CacheCounters {
    let totals = &reply["result"]["totals"];
    let counter = |name: &str| totals[name].as_u64().unwrap_or(0);
    CacheCounters {
        hits: counter("cache_hits"),
        misses: counter("cache_misses"),
        coalesced: counter("cache_coalesced"),
    }
}

// ---------------------------------------------------------------------------
// Cluster bench: 3-node aggregate vs single-node baseline
// ---------------------------------------------------------------------------

/// Cluster bench knobs (`osarch loadgen --cluster`).
#[derive(Debug, Clone)]
pub struct ClusterLoadConfig {
    /// Nodes in the ring.
    pub nodes: usize,
    /// Replication factor R.
    pub replicas: usize,
    /// Pipelined connections per node (the baseline node gets the same
    /// per-node count from every driver thread, so the client side is
    /// identical across the two runs).
    pub conns_per_node: u32,
    /// Requests batched per write on each connection.
    pub pipeline: u32,
    /// Seconds per run (baseline and clustered each).
    pub secs: f64,
    /// Hot-key-skewed draw instead of uniform.
    pub skew: bool,
    /// RNG seed for every driver thread's deterministic stream.
    pub seed: u64,
    /// Event-loop workers per node — the baseline node gets the same
    /// count, so the comparison is N nodes vs one node of equal size.
    pub workers_per_node: usize,
    /// Cache shards per node.
    pub shards: usize,
    /// Offered load per node in requests/second (weak scaling: the
    /// baseline single node is offered this rate, the N-node ring is
    /// offered N× it). `0` drops the pacing and lets every driver run
    /// closed-loop flat out — only meaningful when the host has enough
    /// cores for N nodes to actually run in parallel.
    pub node_rate: f64,
}

impl Default for ClusterLoadConfig {
    fn default() -> ClusterLoadConfig {
        ClusterLoadConfig {
            nodes: 3,
            replicas: 2,
            conns_per_node: 16,
            pipeline: 8,
            secs: 2.0,
            skew: false,
            seed: 0x05a1c,
            workers_per_node: 1,
            shards: 16,
            node_rate: 30_000.0,
        }
    }
}

/// One driver thread's workload: the keys it may draw plus the skew
/// distribution over them (weights follow each key's *global* rank).
type KeySlice = (Vec<(Arch, Primitive)>, WeightedIndex<u64>);

/// Harmonic (Zipf-like) weight by *global* key rank, so the hot keys
/// stay hot whether a driver sees the full key space or one node's
/// replica slice.
fn rank_weights(ranks: &[usize], skew: bool) -> Vec<u64> {
    if skew {
        ranks.iter().map(|rank| 720 / (*rank as u64 + 1)).collect()
    } else {
        vec![1; ranks.len()]
    }
}

/// One measurement: `threads` driver threads, each multiplexing
/// `conns` pipelined sockets against `addr` over its own key slice.
/// Returns the merged tallies and the measured wall-clock seconds.
fn mux_fanout(
    addr: &str,
    seed: u64,
    slices: &[KeySlice],
    conns: usize,
    pipeline: usize,
    duration: Duration,
    pace: Option<Duration>,
) -> (ConnResult, f64) {
    let started = Instant::now();
    let stop_at = started + duration;
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = slices
            .iter()
            .enumerate()
            .map(|(thread, (keys, dist))| {
                let seed = seed ^ (thread as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                scope.spawn(move || {
                    drive_mux_paced(addr, seed, dist, keys, conns, pipeline, stop_at, pace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("cluster bench driver thread panicked"))
            .collect()
    });
    let secs = started.elapsed().as_secs_f64();
    let mut merged = ConnResult::default();
    for conn in results {
        merged.oks += conn.oks;
        merged.errors += conn.errors;
        merged.latency.merge(&conn.latency);
        merge_resilience(&mut merged.resilience, conn.resilience);
    }
    (merged, secs)
}

/// Run the cluster benchmark: first a single-node baseline, then an
/// N-node ring on the same workload, both self-hosted. The clustered
/// run is shard-routed — each node's drivers draw only keys that node
/// replicates, the batched equivalent of [`crate::ClusterClient`]
/// routing — so the aggregate measures N nodes serving locally, which
/// is what the ring buys over one node of the same size.
///
/// The measurement is **weak scaling**: with `node_rate > 0` (the
/// default) every node is offered a fixed per-node load, so the
/// baseline single node is offered `node_rate` and the ring is offered
/// `nodes × node_rate`. `speedup` then reports how much of the N×
/// offered load the ring actually sustains relative to the single node
/// — the scale-out claim — and stays meaningful on hosts (CI runners)
/// without a core per node, where raw closed-loop saturation would
/// only measure the shared CPU. `node_rate = 0` reverts to closed-loop
/// saturation on both sides.
pub fn run_cluster_bench(config: &ClusterLoadConfig) -> std::io::Result<ClusterBenchReport> {
    let nodes = config.nodes.max(2);
    let keys = key_space();
    let duration = Duration::from_secs_f64(config.secs.max(0.5));
    // One driver thread per node in both runs; a thread's round pace is
    // its share of the offered load, in rounds of conns × pipeline.
    let round_requests = config.conns_per_node as f64 * f64::from(config.pipeline.max(1));
    let pace_per_thread = |threads: f64, offered: f64| -> Option<Duration> {
        (offered > 0.0).then(|| Duration::from_secs_f64(round_requests * threads / offered))
    };
    // Baseline: `nodes` driver threads share one node offered
    // `node_rate`; clustered: each node's single thread offers
    // `node_rate` to its own node.
    let baseline_pace = pace_per_thread(nodes as f64, config.node_rate);
    let cluster_pace = pace_per_thread(1.0, config.node_rate);
    let node_config = |addr: Option<(&[String], usize)>| ServerConfig {
        addr: addr.map_or_else(|| "127.0.0.1:0".to_string(), |(addrs, i)| addrs[i].clone()),
        workers: config.workers_per_node,
        shards: config.shards,
        queue_depth: (config.conns_per_node as usize * 2 * nodes).max(64),
        cluster: addr.map(|(addrs, i)| ClusterConfig {
            self_addr: addrs[i].clone(),
            peers: addrs.to_vec(),
            replicas: config.replicas,
            ..ClusterConfig::default()
        }),
        ..ServerConfig::default()
    };

    // Baseline: one node of the same size takes the whole key space
    // from the same number of driver threads and connections.
    let baseline_handle = Server::start(&node_config(None))?;
    let baseline_addr = baseline_handle.addr().to_string();
    let full_ranks: Vec<usize> = (0..keys.len()).collect();
    let full_dist = WeightedIndex::new(rank_weights(&full_ranks, config.skew))
        .expect("weights are positive by construction");
    let baseline_slices: Vec<KeySlice> = (0..nodes)
        .map(|_| (keys.clone(), full_dist.clone()))
        .collect();
    let (baseline, baseline_secs) = mux_fanout(
        &baseline_addr,
        config.seed,
        &baseline_slices,
        config.conns_per_node as usize,
        config.pipeline.max(1) as usize,
        duration,
        baseline_pace,
    );
    baseline_handle.stop();
    let baseline_rps = if baseline_secs > 0.0 {
        baseline.oks as f64 / baseline_secs
    } else {
        0.0
    };

    // Clustered run: reserve every address first (nodes need the full
    // peer list up front), start the ring, then give each node's driver
    // thread the slice of keys that node replicates.
    let addrs = {
        let listeners: Vec<std::net::TcpListener> = (0..nodes)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
            .collect::<std::io::Result<_>>()?;
        listeners
            .iter()
            .map(|l| Ok(format!("127.0.0.1:{}", l.local_addr()?.port())))
            .collect::<std::io::Result<Vec<String>>>()?
    };
    let handles: Vec<ServerHandle> = (0..nodes)
        .map(|index| Server::start(&node_config(Some((&addrs, index)))))
        .collect::<std::io::Result<_>>()?;
    let ring = osarch_cluster::Ring::new(&addrs, osarch_cluster::DEFAULT_VNODES);
    let slices: Vec<KeySlice> = addrs
        .iter()
        .map(|addr| {
            let mut ranks = Vec::new();
            let slice: Vec<(Arch, Primitive)> = keys
                .iter()
                .enumerate()
                .filter(|(rank, (arch, primitive))| {
                    let key = format!("measure/{arch}/{}", primitive.tag());
                    let mine = ring
                        .replicas(&key, config.replicas)
                        .iter()
                        .any(|replica| replica == addr);
                    if mine {
                        ranks.push(*rank);
                    }
                    mine
                })
                .map(|(_, pair)| *pair)
                .collect();
            let dist = WeightedIndex::new(rank_weights(&ranks, config.skew))
                .expect("every node replicates at least one key");
            (slice, dist)
        })
        .collect();

    // One driver thread per node; per-node tallies come from the
    // thread that drove that node.
    let started = Instant::now();
    let stop_at = started + duration;
    let per_thread: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = addrs
            .iter()
            .zip(&slices)
            .enumerate()
            .map(|(thread, (addr, (slice, dist)))| {
                let seed = config.seed ^ (thread as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let conns = config.conns_per_node as usize;
                let pipeline = config.pipeline.max(1) as usize;
                scope.spawn(move || {
                    drive_mux_paced(
                        addr,
                        seed,
                        dist,
                        slice,
                        conns,
                        pipeline,
                        stop_at,
                        cluster_pace,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("cluster bench driver thread panicked"))
            .collect()
    });
    let secs = started.elapsed().as_secs_f64();
    for handle in handles {
        handle.stop();
    }

    let mut requests = 0u64;
    let mut errors = 0u64;
    let mut corrupt = 0u64;
    let mut latency = Histogram::new();
    let mut per_node = Vec::with_capacity(nodes);
    for (addr, result) in addrs.iter().zip(&per_thread) {
        requests += result.oks;
        errors += result.errors;
        corrupt += result.resilience.corrupt;
        latency.merge(&result.latency);
        per_node.push((addr.clone(), result.oks));
    }
    let throughput_rps = if secs > 0.0 {
        requests as f64 / secs
    } else {
        0.0
    };
    Ok(ClusterBenchReport {
        workload: if config.skew { "skewed" } else { "uniform" }.to_string(),
        nodes: nodes as u32,
        replicas: config.replicas as u32,
        conns_per_node: config.conns_per_node,
        pipeline_depth: config.pipeline.max(1),
        secs,
        requests,
        errors,
        corrupt,
        throughput_rps,
        baseline_rps,
        speedup: if baseline_rps > 0.0 {
            throughput_rps / baseline_rps
        } else {
            0.0
        },
        latency: LatencySummary::from_histogram(&latency),
        per_node,
    })
}

/// Refuse to clobber a bench artifact whose schema version predates the
/// current one unless forced: a stale document is evidence of the old
/// format until someone explicitly chooses to regenerate it.
fn schema_overwrite_guard(path: &str, schema: &str, force: bool) -> Result<(), String> {
    if force || path == "-" {
        return Ok(());
    }
    let Some((family, current)) = schema.rsplit_once('/') else {
        return Ok(());
    };
    let Ok(current) = current.parse::<u32>() else {
        return Ok(());
    };
    let Ok(existing) = std::fs::read_to_string(path) else {
        return Ok(()); // absent or unreadable: nothing to protect
    };
    let Ok(existing) = json::parse(&existing) else {
        return Ok(()); // not a bench document: nothing to protect
    };
    let Some(version) = existing["schema"]
        .as_str()
        .and_then(|tag| tag.strip_prefix(family)?.strip_prefix('/'))
    else {
        return Ok(());
    };
    match version.parse::<u32>() {
        Ok(version) if version < current => Err(format!(
            "{path} holds an older {family}/{version} document (current is /{current}); \
             pass --force to overwrite it"
        )),
        _ => Ok(()),
    }
}

/// The shared `osarch loadgen` / `osarch-loadgen` front end: parse
/// `args`, run the workload, write the `BENCH_serve.json` report.
/// `Err` carries a one-line usage error (exit 2 at the caller).
pub fn cli(args: &[String], prog: &str) -> Result<std::process::ExitCode, String> {
    use std::process::ExitCode;
    let mut config = LoadgenConfig::default();
    let mut out: Option<String> = None;
    let mut force = false;
    let mut cluster = false;
    let mut conns_flag: Option<u32> = None;
    let mut pipeline_flag: Option<u32> = None;
    let mut cluster_config = ClusterLoadConfig::default();
    let mut rest = args.iter();
    let parse = |flag: &str, value: Option<&String>| -> Result<String, String> {
        value
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--addr" => config.addr = Some(parse("--addr", rest.next())?),
            "--conns" => {
                config.conns = parse("--conns", rest.next())?
                    .parse()
                    .map_err(|_| "--conns expects a positive integer".to_string())?;
                conns_flag = Some(config.conns);
            }
            "--pipeline" => {
                config.pipeline = parse("--pipeline", rest.next())?
                    .parse()
                    .map_err(|_| "--pipeline expects a positive integer".to_string())?;
                if config.pipeline == 0 {
                    return Err("--pipeline must be at least 1".to_string());
                }
                pipeline_flag = Some(config.pipeline);
            }
            "--secs" => {
                config.secs = parse("--secs", rest.next())?
                    .parse()
                    .map_err(|_| "--secs expects a number of seconds".to_string())?;
            }
            "--skew" => config.skew = true,
            "--rate" => {
                config.rate = Some(
                    parse("--rate", rest.next())?
                        .parse()
                        .map_err(|_| "--rate expects requests/second".to_string())?,
                );
            }
            "--workers" => {
                config.workers = parse("--workers", rest.next())?
                    .parse()
                    .map_err(|_| "--workers expects a positive integer".to_string())?;
            }
            "--shards" => {
                config.shards = parse("--shards", rest.next())?
                    .parse()
                    .map_err(|_| "--shards expects a positive integer".to_string())?;
            }
            "--seed" => {
                config.seed = parse("--seed", rest.next())?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?;
            }
            "--faults" => {
                config.faults = parse("--faults", rest.next())?
                    .parse()
                    .map_err(|_| "--faults expects a probability in [0,1]".to_string())?;
                if !(0.0..=1.0).contains(&config.faults) {
                    return Err("--faults expects a probability in [0,1]".to_string());
                }
            }
            "--sample" => {
                config.sample = parse("--sample", rest.next())?
                    .parse()
                    .map_err(|_| "--sample expects an integer divisor (0 disables)".to_string())?;
            }
            "--out" => out = Some(parse("--out", rest.next())?),
            "--force" => force = true,
            "--cluster" => cluster = true,
            "--nodes" => {
                cluster_config.nodes = parse("--nodes", rest.next())?
                    .parse()
                    .map_err(|_| "--nodes expects a positive integer".to_string())?;
                if cluster_config.nodes < 2 {
                    return Err("--nodes must be at least 2".to_string());
                }
            }
            "--replicas" => {
                cluster_config.replicas = parse("--replicas", rest.next())?
                    .parse()
                    .map_err(|_| "--replicas expects a positive integer".to_string())?;
                if cluster_config.replicas == 0 {
                    return Err("--replicas must be at least 1".to_string());
                }
            }
            "--node-rate" => {
                cluster_config.node_rate = parse("--node-rate", rest.next())?
                    .parse()
                    .map_err(|_| "--node-rate expects requests/second (0 unpaces)".to_string())?;
                if cluster_config.node_rate < 0.0 {
                    return Err("--node-rate expects requests/second (0 unpaces)".to_string());
                }
            }
            other => {
                return Err(format!(
                    "unknown argument {other:?}\nusage: {prog} [--addr HOST:PORT] [--conns N] \
                     [--pipeline N] [--secs S] [--skew] [--rate R] [--workers N] [--shards N] \
                     [--seed N] [--faults P] [--sample N] [--out PATH] [--force] \
                     [--cluster [--nodes N] [--replicas R] [--node-rate RPS]]"
                ))
            }
        }
    }
    if config.conns == 0 {
        return Err("--conns must be at least 1".to_string());
    }
    if cluster {
        cluster_config.seed = config.seed;
        cluster_config.secs = config.secs;
        cluster_config.skew = config.skew;
        if let Some(conns) = conns_flag {
            cluster_config.conns_per_node = conns;
        }
        if let Some(pipeline) = pipeline_flag {
            cluster_config.pipeline = pipeline;
        }
        let out = out.unwrap_or_else(|| "BENCH_cluster.json".to_string());
        return cluster_bench_cli(&cluster_config, &out, force);
    }
    let out = out.unwrap_or_else(|| "BENCH_serve.json".to_string());
    if let Err(reason) =
        schema_overwrite_guard(&out, osarch_core::metrics::SERVE_BENCH_SCHEMA, force)
    {
        eprintln!("{reason}");
        return Ok(ExitCode::FAILURE);
    }
    let report = match run(&config) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("loadgen failed: {err}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let doc = osarch_core::metrics::serve_bench_json(&report);
    if let Err(reason) = osarch_core::metrics::validate_serve_bench(&doc) {
        eprintln!("internal error: bench JSON rejected: {reason}");
        return Ok(ExitCode::FAILURE);
    }
    if out == "-" {
        print!("{doc}");
    } else {
        if let Err(err) = std::fs::write(&out, &doc) {
            eprintln!("cannot write {out}: {err}");
            return Ok(ExitCode::FAILURE);
        }
        eprintln!(
            "wrote {out}: {} requests in {:.2}s ({:.0} req/s, p50 {} us, p99 {} us, \
             {} hits / {} misses / {} coalesced)",
            report.requests,
            report.secs,
            report.throughput_rps,
            report.latency.p50,
            report.latency.p99,
            report.hits,
            report.misses,
            report.coalesced
        );
        if config.faults > 0.0 {
            let r = &report.resilience;
            eprintln!(
                "resilience: {} retries, {} giveups, {} breaker opens, {} degraded, \
                 classes timeout={} conn_reset={} server_error={} breaker_open={}",
                r.retries,
                r.giveups,
                r.breaker_opens,
                r.degraded,
                r.timeouts,
                r.conn_resets,
                r.server_errors,
                r.breaker_open
            );
        }
    }
    if report.resilience.corrupt > 0 {
        eprintln!(
            "CORRUPTION: {} replies failed verification",
            report.resilience.corrupt
        );
        return Ok(ExitCode::FAILURE);
    }
    if report.requests == 0 {
        eprintln!("no requests completed: the server made no progress");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// The `osarch loadgen --cluster` back half: run the baseline + ring
/// benchmark, validate and write `BENCH_cluster.json`.
fn cluster_bench_cli(
    config: &ClusterLoadConfig,
    out: &str,
    force: bool,
) -> Result<std::process::ExitCode, String> {
    use std::process::ExitCode;
    if let Err(reason) =
        schema_overwrite_guard(out, osarch_core::metrics::CLUSTER_BENCH_SCHEMA, force)
    {
        eprintln!("{reason}");
        return Ok(ExitCode::FAILURE);
    }
    let report = match run_cluster_bench(config) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("cluster bench failed: {err}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let doc = osarch_core::metrics::cluster_bench_json(&report);
    if let Err(reason) = osarch_core::metrics::validate_cluster_bench(&doc) {
        eprintln!("internal error: cluster bench JSON rejected: {reason}");
        return Ok(ExitCode::FAILURE);
    }
    if out == "-" {
        print!("{doc}");
    } else {
        if let Err(err) = std::fs::write(out, &doc) {
            eprintln!("cannot write {out}: {err}");
            return Ok(ExitCode::FAILURE);
        }
        eprintln!(
            "wrote {out}: {} nodes (R={}) {:.0} req/s aggregate vs {:.0} req/s \
             single-node baseline — speedup {:.2}x (p50 {} us, p99 {} us)",
            report.nodes,
            report.replicas,
            report.throughput_rps,
            report.baseline_rps,
            report.speedup,
            report.latency.p50,
            report.latency.p99
        );
    }
    if report.corrupt > 0 {
        eprintln!("CORRUPTION: {} replies failed verification", report.corrupt);
        return Ok(ExitCode::FAILURE);
    }
    if report.requests == 0 {
        eprintln!("no requests completed: the cluster made no progress");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_space_covers_every_pair() {
        let keys = key_space();
        assert_eq!(keys.len(), 28);
        let mut unique = keys.clone();
        unique.sort_by_key(|(a, p)| (a.index(), p.tag()));
        unique.dedup();
        assert_eq!(unique.len(), 28);
    }

    #[test]
    fn counter_extraction_reads_the_metrics_totals() {
        let hub = osarch_telemetry::TelemetryHub::new(1, &crate::OP_NAMES, 0, 0);
        let totals = osarch_telemetry::Totals {
            requests: 90,
            cache_hits: 41,
            cache_misses: 7,
            cache_coalesced: 3,
            ..osarch_telemetry::Totals::default()
        };
        let snap = hub.snapshot(1, osarch_telemetry::Gauges::default(), totals);
        let payload = osarch_core::metrics::metrics_snapshot_json(&snap);
        let envelope = crate::protocol::ok_envelope("1", false, 1, 9, payload.trim_end());
        let counters = cache_counters(&json::parse(&envelope).unwrap());
        assert_eq!(
            (counters.hits, counters.misses, counters.coalesced),
            (41, 7, 3)
        );
        // A reply without totals (an error envelope) reads as zeros.
        let error = crate::protocol::err_envelope("1", "server busy");
        assert_eq!(cache_counters(&json::parse(&error).unwrap()).hits, 0);
    }
}
