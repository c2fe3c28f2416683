//! The load generator (`osarch loadgen`).
//!
//! Drives a running `osarch-serve` instance (or self-hosts one) over the
//! full 7 × 4 architecture × primitive key space, under a uniform or
//! hot-key-skewed draw, and reports throughput plus client-observed
//! latency percentiles as an `osarch-serve-bench/3` document
//! (`BENCH_serve.json`). Latency is tallied into a log-linear
//! [`Histogram`] per driver thread and merged exactly, so the tail
//! percentiles (through p99.9) survive any request count, and the merged
//! sparse buckets ship in the report's `latency_hist` field for offline
//! re-aggregation.
//!
//! There is one driver. `conns.min(32)` threads share the connections.
//! Each dials its sockets first; the clock starts once every thread has
//! dialed, so `secs` covers the run and not the connect storm. Then each
//! runs rounds over its sockets: write a batch of `pipeline`
//! requests to every socket, then read every batch back, checking that
//! the replies echo their ids **in order** (anything else is counted as
//! corruption). A socket lost mid-run is re-dialed once per round. The
//! flags mean the same thing at every scale:
//!
//! * **closed loop** (no `rate`) — the next round goes out as soon as
//!   the last one is read, so throughput is bounded by service latency.
//!   At depth 1 with at most 32 connections, every connection is its own
//!   thread with one request in flight.
//! * **open loop** (`rate` requests/second per connection) — rounds fire
//!   on a fixed arrival clock, one every `pipeline / rate` seconds; a late
//!   round fires at once with no schedule reset, so sustained overload
//!   shows up as rising latency rather than reduced offered load.
//! * **pipelined** (`pipeline > 1`) — `pipeline` requests ride each
//!   write, which is how a handful of client threads hold 10 000
//!   connections against the event-driven server.
//!
//! The cluster bench ([`run_cluster_bench`]) runs the same driver against
//! one node and then against an N-node ring.
//!
//! The skewed draw makes the single-flight cache's case: most requests
//! pile onto a few hot keys, so hit/coalesce counters dominate and
//! serving cost is the fixed per-request envelope, not the simulation.

use crate::client::ClientCounters;
use crate::invalid;
use crate::protocol::{exchange_line, Query};
use crate::server::{reserve_loopback_addrs, ClusterConfig, Server, ServerConfig, ServerHandle};
use osarch_core::json::{self, Value};
use osarch_core::metrics::{self, ClusterBenchReport, ServeBenchReport};
use osarch_core::names::{Args, Synopsis};
use osarch_core::stats::LatencySummary;
use osarch_cpu::Arch;
use osarch_kernel::Primitive;
use osarch_telemetry::Histogram;
use osarch_trace::{SplitMix64, GAMMA};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Target server; `None` self-hosts one for the run.
    pub addr: Option<String>,
    /// Concurrent connections, shared by `conns.min(32)` driver threads.
    pub conns: u32,
    /// Requests batched per write on each connection. `1` is strict
    /// request/reply; at any depth the replies must come back in order.
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
    /// RNG seed; every driver thread derives its own deterministic stream.
    pub seed: u64,
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
            seed: 0x05a1c,
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

/// One driver thread's tallies, merged after the run (`counters.oks`
/// counts the ok replies). Latencies go straight into a log-linear
/// histogram — bucket merge across threads is exact, so the report's
/// percentiles cover every reply, not a sample.
#[derive(Debug, Default)]
struct Tally {
    errors: u64,
    latency: Histogram,
    counters: ClientCounters,
}

impl Tally {
    fn merge(tallies: &[Tally]) -> Tally {
        let mut merged = Tally::default();
        for tally in tallies {
            merged.errors += tally.errors;
            merged.latency.merge(&tally.latency);
            merged.counters.accumulate(&tally.counters);
        }
        merged
    }

    /// Count a socket lost mid-round: a read that timed out as a timeout,
    /// anything else (a reset, an EOF, a failed write) as a lost
    /// connection.
    fn lost(&mut self, err: Option<std::io::Error>) {
        self.errors += 1;
        match err.map(|err| err.kind()) {
            Some(ErrorKind::TimedOut | ErrorKind::WouldBlock) => self.counters.timeouts += 1,
            _ => self.counters.conn_resets += 1,
        }
    }
}

/// What a `metrics` reply says about the server: its lifetime cache
/// totals and its configured worker count.
#[derive(Debug, Default, Clone, Copy)]
struct ServerCounters {
    hits: u64,
    misses: u64,
    coalesced: u64,
    workers: u64,
}

/// `secs` as a `Duration` when it is finite, positive and representable
/// as a deadline from now.
fn seconds(secs: f64) -> Option<Duration> {
    Duration::try_from_secs_f64(secs)
        .ok()
        .filter(|d| !d.is_zero() && Instant::now().checked_add(*d).is_some())
}

/// The interval between rounds of `pipeline` requests that offers `rate`
/// requests/second on each connection, when it is representable.
fn round_interval(pipeline: u32, rate: f64) -> Option<Duration> {
    seconds(f64::from(pipeline) / rate)
}

/// What `--secs` must be, in both the workload and the cluster bench.
const SECS: &str = "finite, positive seconds that fit a deadline";

/// Run the workload and report. Self-hosts a server when `config.addr`
/// is `None` (and shuts it down afterwards). A `secs` that is not finite,
/// positive seconds, a `rate` with no representable round interval, or
/// zero connections is an `InvalidInput` error naming the flag, returned
/// before any server starts.
pub fn run(config: &LoadgenConfig) -> std::io::Result<ServeBenchReport> {
    let duration = seconds(config.secs).ok_or_else(|| invalid("--secs", SECS, config.secs))?;
    let interval = config
        .rate
        .map(|rate| {
            round_interval(config.pipeline.max(1), rate).ok_or_else(|| {
                invalid(
                    "--rate",
                    "requests/second > 0 with a representable round interval",
                    rate,
                )
            })
        })
        .transpose()?;
    if config.conns == 0 {
        return Err(invalid("--conns", "a positive integer", 0));
    }
    let mut hosted: Option<ServerHandle> = None;
    let addr = match &config.addr {
        Some(addr) => addr.clone(),
        None => {
            let handle = Server::start(&ServerConfig {
                workers: config.workers,
                // The queue must absorb every loadgen connection at once.
                queue_depth: (config.conns as usize * 2).max(64),
                sample_every: config.sample,
                telemetry_seed: config.seed,
                ..ServerConfig::default()
            })?;
            let addr = handle.addr().to_string();
            hosted = Some(handle);
            addr
        }
    };
    let result = measure(&addr, config, duration, interval);
    if let Some(handle) = hosted {
        handle.stop();
    }
    result
}

/// Drive `addr` for `duration` and report; the cache columns are deltas
/// of the server's `metrics` totals over the run.
fn measure(
    addr: &str,
    config: &LoadgenConfig,
    duration: Duration,
    interval: Option<Duration>,
) -> std::io::Result<ServeBenchReport> {
    let before = query_metrics(addr)?;
    let pipeline = config.pipeline.max(1);
    // Driver threads are I/O-bound, so their count follows the
    // connections, not the cores: up to 32 connections each get a thread,
    // and beyond that 32 threads share them (the remainder lands on the
    // first few).
    let threads = config.conns.min(32);
    let ranks: Vec<usize> = (0..key_space().len()).collect();
    let targets: Vec<Target<'_>> = (0..threads)
        .map(|thread| Target {
            addr,
            ranks: &ranks,
            conns: (config.conns / threads + u32::from(thread < config.conns % threads)) as usize,
        })
        .collect();
    let (tallies, secs) = fan_out(
        &targets,
        config.seed,
        config.skew,
        pipeline,
        duration,
        interval,
    );
    let after = query_metrics(addr)?;
    let Tally {
        errors,
        latency,
        counters,
    } = Tally::merge(&tallies);
    Ok(ServeBenchReport {
        workload: if config.skew { "skewed" } else { "uniform" }.to_string(),
        mode: if interval.is_some() {
            "open"
        } else if pipeline > 1 {
            "pipelined"
        } else {
            "closed"
        }
        .to_string(),
        conns: config.conns,
        pipeline_depth: pipeline,
        driver_threads: threads,
        workers: after.workers as u32,
        secs,
        requests: counters.oks,
        errors,
        throughput_rps: counters.oks as f64 / secs,
        latency: LatencySummary::from_histogram(&latency),
        latency_hist: latency.sparse(),
        hits: after.hits.saturating_sub(before.hits),
        misses: after.misses.saturating_sub(before.misses),
        coalesced: after.coalesced.saturating_sub(before.coalesced),
        corrupt: counters.corrupt,
        server_errors: counters.server_errors,
        timeouts: counters.timeouts,
        conn_resets: counters.conn_resets,
    })
}

/// One driver thread's share of a run: the server it dials, the global
/// ranks (indices into [`key_space`]) of the keys it draws, and how many
/// sockets it holds.
struct Target<'a> {
    addr: &'a str,
    ranks: &'a [usize],
    conns: usize,
}

/// How long a driver keeps dialing its sockets before it gives up on
/// the ones still refused.
const DIAL_DEADLINE: Duration = Duration::from_secs(30);

/// Run one driver thread per target for `duration`, each on its own
/// stream derived from `seed`. Every driver dials its sockets first; the
/// clock starts when all of them have passed one barrier, so the connect
/// storm stays outside the window. Returns each target's tally, in
/// order, and the measured wall-clock seconds from that start (the
/// drivers return at the run's end, so never less than `duration`).
fn fan_out(
    targets: &[Target<'_>],
    seed: u64,
    skew: bool,
    pipeline: u32,
    duration: Duration,
    interval: Option<Duration>,
) -> (Vec<Tally>, f64) {
    let dialed = Barrier::new(targets.len());
    let clock = OnceLock::new();
    let tallies = std::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .iter()
            .enumerate()
            .map(|(thread, target)| {
                let seed = seed ^ (thread as u64 + 1).wrapping_mul(GAMMA);
                let (dialed, clock) = (&dialed, &clock);
                scope.spawn(move || {
                    let deadline = Instant::now() + DIAL_DEADLINE;
                    let socks = (0..target.conns)
                        .map(|_| connect_with_retry(target.addr, deadline))
                        .collect();
                    dialed.wait();
                    let started = *clock.get_or_init(Instant::now);
                    let stop_at = started + duration;
                    drive(
                        target, socks, seed, skew, pipeline, started, stop_at, interval,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen driver thread panicked"))
            .collect()
    });
    let secs = clock
        .get()
        .map_or(0.0, |started| started.elapsed().as_secs_f64());
    (tallies, secs)
}

/// One connection: a buffered reader over the socket (writes go straight
/// through `get_mut`) plus its id counter.
struct Conn {
    reader: BufReader<TcpStream>,
    next_id: u64,
}

/// Connect with retries until `deadline`: a connection storm overflows
/// the listener backlog, and the kernel answers some SYNs late or with a
/// reset — retrying is part of holding N connections open, not cheating.
fn connect_with_retry(addr: &str, deadline: Instant) -> Option<Conn> {
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                return Some(Conn {
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

/// One driver thread's loop over the sockets it dialed for its target
/// (`None` where a dial failed). Each round writes
/// a batch of `pipeline` requests to *every* socket (so the whole round
/// is in flight at once), then reads each socket's replies back and
/// checks the ids echo **in order** — a reply out of order or
/// unparseable counts as client-visible corruption. Latency is recorded
/// per reply at batch granularity: the round trip of the batch it rode
/// in, which is the figure a pipelining client actually experiences.
///
/// With an `interval`, round `k` fires at `started + k × interval`: the
/// offered load is a property of the config rather than of how fast the
/// host happens to be. A late round fires at once, and no sleep runs past
/// `stop_at`.
#[allow(clippy::too_many_arguments)]
fn drive(
    target: &Target<'_>,
    mut socks: Vec<Option<Conn>>,
    seed: u64,
    skew: bool,
    pipeline: u32,
    started: Instant,
    stop_at: Instant,
    interval: Option<Duration>,
) -> Tally {
    let mut tally = Tally::default();
    // Harmonic (Zipf-like) weights by *global* rank, so the hot keys stay
    // hot whether a thread draws the full key space or one node's replica
    // slice: the hottest key draws ~25% of the traffic.
    let cumulative: Vec<u64> = target
        .ranks
        .iter()
        .scan(0, |total, &rank| {
            *total += if skew { 720 / (rank as u64 + 1) } else { 1 };
            Some(*total)
        })
        .collect();
    // A ring node that replicates no key gets no traffic.
    if cumulative.last().is_none_or(|&total| total == 0) {
        return tally;
    }
    let keys = key_space();
    let mut rng = SplitMix64::new(seed ^ GAMMA);
    let mut line = String::new();
    let mut batch = String::new();
    let mut sent: Vec<(u64, Instant)> = Vec::with_capacity(target.conns);
    let mut next_round = started;
    while Instant::now() < stop_at {
        if let Some(interval) = interval {
            let now = Instant::now();
            if next_round > now {
                std::thread::sleep(next_round.min(stop_at) - now);
            }
            next_round = next_round.checked_add(interval).unwrap_or(stop_at);
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
                let (arch, primitive) = keys[target.ranks[rng.pick(&cumulative)]];
                batch.push_str(&format!(
                    "{{\"op\":\"measure\",\"arch\":\"{arch}\",\"primitive\":\"{}\",\"id\":{}}}\n",
                    primitive.tag(),
                    conn.next_id
                ));
            }
            let when = Instant::now();
            if let Err(err) = conn.reader.get_mut().write_all(batch.as_bytes()) {
                tally.lost(Some(err));
                *sock = None;
            }
            sent.push((first_id, when));
        }
        // Read phase: collect every batch, verifying order as we go.
        for (index, sock) in socks.iter_mut().enumerate() {
            let Some(conn) = sock.as_mut() else { continue };
            let (first_id, when) = sent[index];
            for offset in 0..u64::from(pipeline) {
                line.clear();
                let read = conn.reader.read_line(&mut line);
                if matches!(read, Ok(0) | Err(_)) {
                    tally.lost(read.err());
                    *sock = None;
                    break;
                }
                let echoed = |r: &Value<'_>| r["id"].as_u64() == Some(first_id + offset);
                let Some(reply) = json::parse(&line).ok().filter(echoed) else {
                    tally.counters.corrupt += 1;
                    tally.errors += 1;
                    *sock = None;
                    break;
                };
                if reply["ok"].as_bool() == Some(true) {
                    tally.counters.oks += 1;
                    tally.latency.record(when.elapsed().as_micros() as u64);
                } else {
                    tally.errors += 1;
                    tally.counters.server_errors += 1;
                }
            }
        }
        // A socket lost mid-run is re-dialed once per round, so a
        // transient reset does not silently thin the connection count.
        if Instant::now() < stop_at {
            for sock in &mut socks {
                if sock.is_none() {
                    *sock = connect_with_retry(target.addr, Instant::now());
                }
            }
        }
    }
    tally
}

/// Issue one out-of-band `metrics` query on a fresh connection and read
/// the server's counters from it.
fn query_metrics(addr: &str) -> std::io::Result<ServerCounters> {
    let timeout = Duration::from_secs(10);
    let reply = exchange_line(addr, "{\"op\":\"metrics\"}", timeout, timeout)?;
    Ok(server_counters(&json::parse(&reply).unwrap_or(Value::Null)))
}

/// The cache totals and worker gauge of a `metrics` reply envelope (its
/// `osarch-metrics/2` document); 0 for any that is absent.
fn server_counters(reply: &Value<'_>) -> ServerCounters {
    let doc = &reply["result"];
    let total = |name: &str| doc["totals"][name].as_u64().unwrap_or(0);
    ServerCounters {
        hits: total("cache_hits"),
        misses: total("cache_misses"),
        coalesced: total("cache_coalesced"),
        workers: doc["gauges"]["workers"].as_u64().unwrap_or(0),
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
            node_rate: 30_000.0,
        }
    }
}

impl ClusterLoadConfig {
    /// The round intervals of the baseline run, where `nodes` driver
    /// threads share one node offered `node_rate`, and of the ring run,
    /// where each node's thread offers `node_rate` to its own node.
    fn intervals(&self) -> std::io::Result<[Option<Duration>; 2]> {
        let conns = f64::from(self.conns_per_node.max(1));
        let interval = |share: f64| {
            if self.node_rate == 0.0 {
                return Ok(None);
            }
            let expects = "requests/second >= 0 with a representable round interval";
            round_interval(self.pipeline.max(1), self.node_rate / share)
                .map(Some)
                .ok_or_else(|| invalid("--node-rate", expects, self.node_rate))
        };
        Ok([
            interval(conns * self.nodes.max(2) as f64)?,
            interval(conns)?,
        ])
    }
}

/// Run the cluster benchmark: first a single-node baseline, then an
/// N-node ring on the same workload, both self-hosted. The clustered
/// run is shard-routed — each node's driver thread draws only keys that
/// node replicates, the batched equivalent of [`crate::ClusterClient`]
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
/// saturation on both sides. A `secs` that is not finite, positive
/// seconds or a `node_rate` with no representable round interval is an
/// `InvalidInput` error naming the flag, returned before any node starts.
pub fn run_cluster_bench(config: &ClusterLoadConfig) -> std::io::Result<ClusterBenchReport> {
    let nodes = config.nodes.max(2);
    let duration = seconds(config.secs).ok_or_else(|| invalid("--secs", SECS, config.secs))?;
    let [baseline_interval, ring_interval] = config.intervals()?;
    let conns = config.conns_per_node as usize;
    let pipeline = config.pipeline.max(1);
    let node_config = |addr: Option<(&[String], usize)>| ServerConfig {
        addr: addr.map_or_else(|| "127.0.0.1:0".to_string(), |(addrs, i)| addrs[i].clone()),
        // One event loop per node, the baseline node included, so the
        // comparison is N nodes against one node of equal size.
        workers: 1,
        queue_depth: (conns * 2 * nodes).max(64),
        cluster: addr.map(|(addrs, i)| ClusterConfig {
            self_addr: addrs[i].clone(),
            peers: addrs.to_vec(),
            replicas: config.replicas,
            ..ClusterConfig::default()
        }),
        ..ServerConfig::default()
    };
    let keys = key_space();

    // Baseline: one node takes the whole key space from as many driver
    // threads and connections as the ring run uses.
    let baseline_handle = Server::start(&node_config(None))?;
    let baseline_addr = baseline_handle.addr().to_string();
    let all: Vec<usize> = (0..keys.len()).collect();
    let targets: Vec<Target<'_>> = (0..nodes)
        .map(|_| Target {
            addr: &baseline_addr,
            ranks: &all,
            conns,
        })
        .collect();
    let (baseline, baseline_secs) = fan_out(
        &targets,
        config.seed,
        config.skew,
        pipeline,
        duration,
        baseline_interval,
    );
    baseline_handle.stop();
    let baseline_rps = Tally::merge(&baseline).counters.oks as f64 / baseline_secs;

    // Clustered run: reserve every address first (nodes need the full
    // peer list up front), start the ring, then give each node's driver
    // thread the keys that node replicates.
    let addrs = reserve_loopback_addrs(nodes)?;
    let handles: Vec<ServerHandle> = (0..nodes)
        .map(|index| Server::start(&node_config(Some((&addrs, index)))))
        .collect::<std::io::Result<_>>()?;
    let node_ranks = node_slices(&addrs, config.replicas);
    let targets: Vec<Target<'_>> = addrs
        .iter()
        .zip(&node_ranks)
        .map(|(addr, ranks)| Target { addr, ranks, conns })
        .collect();
    let (per_node, secs) = fan_out(
        &targets,
        config.seed,
        config.skew,
        pipeline,
        duration,
        ring_interval,
    );
    for handle in handles {
        handle.stop();
    }

    let merged = Tally::merge(&per_node);
    let requests = merged.counters.oks;
    let throughput_rps = requests as f64 / secs;
    Ok(ClusterBenchReport {
        workload: if config.skew { "skewed" } else { "uniform" }.to_string(),
        nodes: nodes as u32,
        replicas: config.replicas as u32,
        conns_per_node: config.conns_per_node,
        pipeline_depth: pipeline,
        secs,
        requests,
        errors: merged.errors,
        corrupt: merged.counters.corrupt,
        throughput_rps,
        baseline_rps,
        speedup: if baseline_rps > 0.0 {
            throughput_rps / baseline_rps
        } else {
            0.0
        },
        latency: LatencySummary::from_histogram(&merged.latency),
        per_node: addrs
            .iter()
            .zip(&per_node)
            .map(|(addr, tally)| (addr.clone(), tally.counters.oks))
            .collect(),
    })
}

/// The ranks (indices into [`key_space`]) each node of a ring over
/// `addrs` replicates at factor `replicas`, in `addrs` order: the keys
/// whose replica set, on the ring every server and client builds, holds
/// the node, placed by the server's own routing key.
fn node_slices(addrs: &[String], replicas: usize) -> Vec<Vec<usize>> {
    let ring = osarch_cluster::Ring::new(addrs, osarch_cluster::DEFAULT_VNODES);
    let keys: Vec<String> = key_space()
        .into_iter()
        .map(|(arch, primitive)| {
            Query::Measure { arch, primitive }
                .routing_key()
                .expect("a measure query has a routing key")
        })
        .collect();
    addrs
        .iter()
        .map(|addr| {
            (0..keys.len())
                .filter(|&rank| {
                    ring.replicas(&keys[rank], replicas)
                        .contains(&addr.as_str())
                })
                .collect()
        })
        .collect()
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

/// `osarch loadgen`'s synopsis: its usage-text entry and the tail of
/// its refusal lines.
pub const SYNOPSIS: Synopsis = Synopsis {
    command: "loadgen",
    grammar: &[
        "[--addr A] [--conns N] [--pipeline N] [--secs S] [--skew] [--rate R]",
        "[--workers N] [--seed N] [--sample N] [--out PATH] [--force]",
        "[--cluster [--nodes N] [--replicas R] [--node-rate RPS]]",
    ],
    about: &[
        "drive a server (self-hosted without --addr) and",
        "write BENCH_serve.json; --rate R offers R req/s",
        "per connection; --cluster benches an N-node ring",
        "against a single-node baseline and writes",
        "BENCH_cluster.json",
    ],
};

/// The `osarch loadgen` front end: read `args`, run the workload (or,
/// with `--cluster`, the cluster bench) and write its report. `Err`
/// carries a one-line usage error (exit 2 at the caller), returned
/// before any server starts: an argument the reader refuses, a flag the
/// chosen mode would not read, a value no run can use from [`run`] or
/// [`run_cluster_bench`].
pub fn cli(args: &[String]) -> Result<ExitCode, String> {
    let mut args = Args::new(&SYNOPSIS, args);
    let mut config = LoadgenConfig::default();
    let mut bench = ClusterLoadConfig::default();
    let (positive, rps, any) = ("a positive integer", "requests/second", |_: &String| true);
    config.addr = args.value("--addr", "HOST:PORT", any)?;
    let conns = args.value("--conns", positive, |n| *n >= 1)?;
    let pipeline = args.value("--pipeline", positive, |n| *n >= 1)?;
    config.secs = args
        .value("--secs", "seconds", |_| true)?
        .unwrap_or(config.secs);
    config.skew = args.switch("--skew");
    config.rate = args.value("--rate", rps, |_| true)?;
    let workers = args.value("--workers", positive, |n| *n >= 1)?;
    config.seed = args
        .value("--seed", "an integer", |_| true)?
        .unwrap_or(config.seed);
    let sample = args.value("--sample", "an integer divisor (0 disables)", |_| true)?;
    let out = args.value("--out", "a path", any)?;
    let force = args.switch("--force");
    let cluster = args.switch("--cluster");
    let nodes = args.value("--nodes", "an integer of at least 2", |n| *n >= 2)?;
    let replicas = args.value("--replicas", positive, |n| *n >= 1)?;
    let node_rate = args.value("--node-rate", rps, |_| true)?;
    args.finish()?;
    // Refuse what the chosen mode would not read.
    if !cluster && (nodes.is_some() || replicas.is_some() || node_rate.is_some()) {
        return Err("--nodes, --replicas and --node-rate require --cluster".to_string());
    }
    let hosted_only = workers.is_some() || sample.is_some();
    if cluster && (config.addr.is_some() || config.rate.is_some() || hosted_only) {
        return Err("--addr, --rate, --workers and --sample do not apply to --cluster".into());
    }
    if config.addr.is_some() && hosted_only {
        return Err("--workers and --sample apply only to a self-hosted server".to_string());
    }
    let (schema, default_out) = if cluster {
        bench.seed = config.seed;
        bench.secs = config.secs;
        bench.skew = config.skew;
        bench.conns_per_node = conns.unwrap_or(bench.conns_per_node);
        bench.pipeline = pipeline.unwrap_or(bench.pipeline);
        bench.nodes = nodes.unwrap_or(bench.nodes);
        bench.replicas = replicas.unwrap_or(bench.replicas);
        bench.node_rate = node_rate.unwrap_or(bench.node_rate);
        (metrics::CLUSTER_BENCH_SCHEMA, "BENCH_cluster.json")
    } else {
        config.conns = conns.unwrap_or(config.conns);
        config.pipeline = pipeline.unwrap_or(config.pipeline);
        config.workers = workers.unwrap_or(config.workers);
        config.sample = sample.unwrap_or(config.sample);
        (metrics::SERVE_BENCH_SCHEMA, "BENCH_serve.json")
    };
    let out = out.unwrap_or_else(|| default_out.to_string());
    if let Err(reason) = schema_overwrite_guard(&out, schema, force) {
        eprintln!("{reason}");
        return Ok(ExitCode::FAILURE);
    }
    let measured = if cluster {
        run_cluster_bench(&bench).map(|r| {
            let doc = metrics::cluster_bench_json(&r);
            let summary = format!(
                "{} nodes (R={}) {:.0} req/s aggregate vs {:.0} req/s single-node baseline \
                 — speedup {:.2}x (p50 {} us, p99 {} us)",
                r.nodes,
                r.replicas,
                r.throughput_rps,
                r.baseline_rps,
                r.speedup,
                r.latency.p50,
                r.latency.p99
            );
            let valid = metrics::validate_cluster_bench(&doc);
            (doc, valid, summary, r.corrupt, r.requests)
        })
    } else {
        run(&config).map(|r| {
            let doc = metrics::serve_bench_json(&r);
            let summary = format!(
                "{} requests in {:.2}s ({:.0} req/s, p50 {} us, p99 {} us, \
                 {} hits / {} misses / {} coalesced)",
                r.requests,
                r.secs,
                r.throughput_rps,
                r.latency.p50,
                r.latency.p99,
                r.hits,
                r.misses,
                r.coalesced
            );
            let valid = metrics::validate_serve_bench(&doc);
            (doc, valid, summary, r.corrupt, r.requests)
        })
    };
    let (doc, valid, summary, corrupt, requests) = match measured {
        Ok(measured) => measured,
        Err(err) if err.kind() == ErrorKind::InvalidInput => return Err(err.to_string()),
        Err(err) => {
            eprintln!("loadgen failed: {err}");
            return Ok(ExitCode::FAILURE);
        }
    };
    if let Err(reason) = valid {
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
        eprintln!("wrote {out}: {summary}");
    }
    if corrupt > 0 {
        eprintln!("CORRUPTION: {corrupt} replies failed verification");
        return Ok(ExitCode::FAILURE);
    }
    if requests == 0 {
        eprintln!("no requests completed: the server made no progress");
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
    fn the_window_starts_after_every_socket_is_dialed() {
        // A listener that binds 300 ms late: the drivers keep dialing
        // (connect_with_retry retries), and the measured window must not
        // contain that wait.
        let addr = reserve_loopback_addrs(1).expect("reserve a port").remove(0);
        let wall = Instant::now();
        let late = addr.clone();
        let server = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            Server::start(&ServerConfig {
                addr: late,
                workers: 1,
                ..ServerConfig::default()
            })
            .expect("the late server starts")
        });
        let ranks: Vec<usize> = (0..key_space().len()).collect();
        let targets: Vec<Target<'_>> = (0..2)
            .map(|_| Target {
                addr: &addr,
                ranks: &ranks,
                conns: 2,
            })
            .collect();
        let window = Duration::from_millis(200);
        let (tallies, secs) = fan_out(&targets, 7, false, 1, window, None);
        let wall = wall.elapsed().as_secs_f64();
        server.join().expect("server thread").stop();
        assert!(secs >= window.as_secs_f64(), "secs {secs}");
        assert!(
            wall - secs >= 0.3,
            "the 300 ms connect wait leaked into the window: wall {wall:.3} s, secs {secs:.3} s"
        );
        assert!(
            Tally::merge(&tallies).counters.oks > 0,
            "no request completed"
        );
    }

    #[test]
    fn each_node_drives_exactly_the_keys_the_server_ring_places_on_it() {
        let addrs = reserve_loopback_addrs(3).expect("reserve ports");
        let replicas = 2;
        let slices = node_slices(&addrs, replicas);
        for (index, addr) in addrs.iter().enumerate() {
            // Each node's ring, built by the server's cluster state from
            // its own config, placing the keys the driver's request lines
            // parse to.
            let config = ClusterConfig {
                self_addr: addr.clone(),
                peers: addrs.clone(),
                replicas,
                ..ClusterConfig::default()
            };
            let ring = crate::server::ring_of(&config);
            let placed: Vec<usize> = key_space()
                .into_iter()
                .enumerate()
                .filter(|(_, (arch, primitive))| {
                    let line = format!(
                        "{{\"op\":\"measure\",\"arch\":\"{arch}\",\"primitive\":\"{}\"}}",
                        primitive.tag()
                    );
                    let request = crate::protocol::parse_request(&line).expect("parses");
                    let key = request.query.routing_key().expect("routed");
                    ring.replicas(&key, replicas).contains(&addr.as_str())
                })
                .map(|(rank, _)| rank)
                .collect();
            assert_eq!(slices[index], placed, "node {addr}");
        }
        // R = 2 of 3 nodes: every key is driven on exactly two nodes.
        let driven: usize = slices.iter().map(Vec::len).sum();
        assert_eq!(driven, key_space().len() * replicas);
    }

    #[test]
    fn a_lost_socket_counts_as_a_timeout_or_a_reset() {
        use ErrorKind::{BrokenPipe, TimedOut, WouldBlock};
        let mut tally = Tally::default();
        for kind in [TimedOut, WouldBlock, BrokenPipe] {
            tally.lost(Some(kind.into()));
        }
        tally.lost(None); // EOF
        let Tally {
            errors, counters, ..
        } = tally;
        assert_eq!((errors, counters.timeouts, counters.conn_resets), (4, 2, 2));
    }

    #[test]
    fn counter_extraction_reads_the_metrics_totals_and_workers() {
        let hub = osarch_telemetry::TelemetryHub::new(1, &crate::OP_NAMES, 0, 0);
        let totals = osarch_telemetry::Totals {
            requests: 90,
            cache_hits: 41,
            cache_misses: 7,
            cache_coalesced: 3,
            ..osarch_telemetry::Totals::default()
        };
        let gauges = osarch_telemetry::Gauges {
            workers: 2,
            ..osarch_telemetry::Gauges::default()
        };
        let snap = hub.snapshot(1, gauges, totals);
        let payload = osarch_core::metrics::metrics_snapshot_json(&snap);
        let envelope = crate::protocol::ok_envelope("1", false, 1, 9, payload.trim_end());
        let counters = server_counters(&json::parse(&envelope).unwrap());
        assert_eq!(
            (
                counters.hits,
                counters.misses,
                counters.coalesced,
                counters.workers
            ),
            (41, 7, 3, 2)
        );
        // A reply without totals (an error envelope) reads as zeros.
        let error = crate::protocol::err_envelope("1", "server busy");
        assert_eq!(server_counters(&json::parse(&error).unwrap()).hits, 0);
    }
}
