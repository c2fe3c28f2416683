//! The chaos soak harness (`osarch chaos`).
//!
//! Runs the load generator against an in-process, fault-injected server
//! — both sides drawing their faults from one deterministic
//! [`ChaosController`] schedule — and checks the resilience invariants
//! that must hold *no matter what the schedule does*:
//!
//! 1. **no client-visible corruption** — every reply that reaches a
//!    client parses as JSON and echoes its request id (`corrupt == 0`);
//! 2. **no deadlock** — every client thread reports back before the
//!    watchdog deadline; a waiter stuck on a poisoned cache flight or a
//!    worker wedged on a dead socket would trip it;
//! 3. **no leaked workers** — worker deaths respawn in place
//!    (`workers_live == workers` while serving, `0` after shutdown);
//! 4. **degraded replies are flagged** — the client never sees a stale
//!    value without `"degraded":true` (counted both sides and compared);
//! 5. **single-flight accounting stays exact** — cache
//!    `lookups == hits + misses + coalesced` even with leaders panicking
//!    mid-flight.
//!
//! The *schedule* is the reproducible artifact: planned event counts per
//! failpoint are a pure function of the seed (see
//! [`ChaosController::schedule_events`]), so two soaks with one seed
//! assert bit-identical schedules even though thread interleaving makes
//! the injected counts differ run to run.
//!
//! Telemetry soaks under the same discipline. The server runs with
//! trace sampling on (`sample`, default 1/64) and the soak seed as the
//! telemetry seed, so every sampled trace id replays from the seed: a
//! sixth invariant asserts each loop's observed ids form a subsequence
//! of that loop's pure generator stream — bit-identical across
//! same-seed runs. Mid-run the harness scrapes `--metrics-addr` (when
//! configured), validates the `osarch-metrics/1` document with the core
//! validator (a failed scrape or validation is a violation), and the
//! report carries the final snapshot plus the sampled Chrome trace for
//! artifact upload.

use crate::client::{ClientConfig, ClientCounters, ClusterClient, ResilientClient};
use crate::loadgen::key_space;
use crate::protocol::Query;
use crate::registry::SpecSnapshot;
use crate::server::{ClusterConfig, Server, ServerConfig, ServerHandle};
use osarch_chaos::{ChaosConfig, ChaosController, ChaosRng, Failpoint};
use osarch_core::json::{self, Value};
use osarch_core::metrics::ResilienceCounters;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Chaos soak knobs.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Seed for the fault schedule and every client's jitter stream.
    pub seed: u64,
    /// Fault probability per failpoint draw.
    pub rate: f64,
    /// Soak duration in seconds.
    pub secs: f64,
    /// Concurrent client connections.
    pub conns: u32,
    /// Server worker threads.
    pub workers: usize,
    /// Cache shards.
    pub shards: usize,
    /// Trace-sampling divisor (sample one request in `sample`; 0 turns
    /// tracing off). The soak seed doubles as the telemetry seed.
    pub sample: u64,
    /// Bind a metrics scrape listener here and validate a mid-run
    /// scrape against the `osarch-metrics/1` schema.
    pub metrics_addr: Option<String>,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            seed: 42,
            rate: 0.2,
            secs: 3.0,
            conns: 8,
            workers: 4,
            shards: 16,
            sample: 64,
            metrics_addr: None,
        }
    }
}

/// One failpoint's planned schedule entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// The failpoint label (e.g. `compute/panic`).
    pub label: &'static str,
    /// Planned injections over the schedule horizon — a pure function of
    /// the seed, identical across same-seed runs.
    pub planned: u64,
}

/// Everything a soak run observed.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// The deterministic fault schedule, one entry per failpoint.
    pub schedule: Vec<ScheduleEntry>,
    /// Sum of planned injections over the horizon.
    pub schedule_total: u64,
    /// Faults actually injected this run (interleaving-dependent).
    pub injected_total: u64,
    /// Calls that completed with a verified `ok` reply.
    pub oks: u64,
    /// Calls that failed after retries (gave up or shed).
    pub failures: u64,
    /// Merged client resilience tallies.
    pub resilience: ResilienceCounters,
    /// Server-side panics contained by per-request isolation.
    pub server_panics: u64,
    /// Server-side degraded (stale-on-error) replies.
    pub server_degraded: u64,
    /// Workers respawned after an injected death.
    pub worker_respawns: u64,
    /// Cache counters: (lookups, hits, misses, coalesced, failed).
    pub cache: (u64, u64, u64, u64, u64),
    /// Span chains captured by the trace ring at shutdown.
    pub chains_sampled: u64,
    /// Per-loop trace ids of the retained chains, in completion order —
    /// each list is a subsequence of the loop's deterministic id stream.
    pub trace_ids_by_loop: Vec<Vec<u64>>,
    /// The final `osarch-metrics/1` snapshot document.
    pub metrics_snapshot: String,
    /// The sampled requests as a Chrome-trace (`osarch-trace/1`) document.
    pub chrome_trace: String,
    /// Invariant violations; empty means the soak passed.
    pub violations: Vec<String>,
}

impl SoakReport {
    /// Whether every invariant held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Run one chaos soak and check every invariant. The report's
/// `violations` list is the verdict; I/O errors are only returned for
/// harness failures (e.g. the listener socket itself).
pub fn run(config: &SoakConfig) -> std::io::Result<SoakReport> {
    // Injected panics are expected: keep them off stderr, but let any
    // *unexpected* panic through. The guard also serializes concurrent
    // fault-injected harnesses (the hook is process-global).
    let _quiet = osarch_chaos::QuietChaosPanics::install();

    let chaos = Arc::new(ChaosController::new(ChaosConfig {
        seed: config.seed,
        rate: config.rate,
        ..ChaosConfig::default()
    }));

    // The schedule is computed before any thread starts: it depends only
    // on the seed, never on the run.
    let schedule: Vec<ScheduleEntry> = Failpoint::ALL
        .iter()
        .map(|&fp| ScheduleEntry {
            label: fp.label(),
            planned: chaos.schedule_events(fp),
        })
        .collect();
    let schedule_total = chaos.schedule_total();

    soak_chaos_run(config, &chaos, schedule, schedule_total)
}

fn soak_chaos_run(
    config: &SoakConfig,
    chaos: &Arc<ChaosController>,
    schedule: Vec<ScheduleEntry>,
    schedule_total: u64,
) -> std::io::Result<SoakReport> {
    let handle = Server::start(&ServerConfig {
        workers: config.workers,
        shards: config.shards,
        queue_depth: (config.conns as usize * 2).max(64),
        // Tight deadline: injected compute delays (20–120 ms) overrun it,
        // exercising the deadline-exceeded error path under chaos.
        deadline: Duration::from_millis(50),
        write_timeout: Duration::from_millis(500),
        chaos: Some(Arc::clone(chaos)),
        sample_every: config.sample,
        telemetry_seed: config.seed,
        metrics_addr: config.metrics_addr.clone(),
        ..ServerConfig::default()
    })?;
    let addr = handle.addr().to_string();
    let stats = handle.stats();
    let mut violations: Vec<String> = Vec::new();

    // Drive the clients. Each reports its tallies over a channel; the
    // watchdog receive below is the deadlock detector.
    let duration = Duration::from_secs_f64(config.secs.max(0.5));
    let stop_at = Instant::now() + duration;
    let (tx, rx) = mpsc::channel::<(u32, u64, u64, ClientCounters)>();
    let mut threads = Vec::new();
    for conn in 0..config.conns {
        let tx = tx.clone();
        let addr = addr.clone();
        let chaos = Arc::clone(chaos);
        let seed = config.seed ^ (u64::from(conn) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        threads.push(std::thread::spawn(move || {
            let (oks, failures, counters) = soak_client(&addr, seed, stop_at, &chaos);
            // A dropped receiver means the watchdog already gave up.
            let _ = tx.send((conn, oks, failures, counters));
        }));
    }
    drop(tx);

    // Mid-run scrape: hit the metrics listener while faults are flying
    // and hold the document to the schema. The clients keep the server
    // busy on their own threads while this one sleeps to the midpoint.
    if let Some(scrape_addr) = handle.metrics_addr() {
        std::thread::sleep(duration / 2);
        match scrape_metrics_json(scrape_addr) {
            Ok(body) => {
                if let Err(reason) = osarch_core::metrics::validate_metrics_snapshot(&body) {
                    violations.push(format!("METRICS: mid-run snapshot rejected: {reason}"));
                }
            }
            Err(err) => violations.push(format!("METRICS: mid-run scrape failed: {err}")),
        }
    }

    let mut oks = 0u64;
    let mut failures = 0u64;
    let mut resilience = ResilienceCounters::default();
    let watchdog = duration + Duration::from_secs(30);
    for _ in 0..config.conns {
        match rx.recv_timeout(watchdog) {
            Ok((_, conn_oks, conn_failures, counters)) => {
                oks += conn_oks;
                failures += conn_failures;
                merge(&mut resilience, counters);
            }
            Err(_) => {
                violations.push(format!(
                    "DEADLOCK: a client thread failed to report within {watchdog:?}"
                ));
                break;
            }
        }
    }
    // Only join what finished; a deadlocked thread would block forever.
    if violations.is_empty() {
        for thread in threads {
            let _ = thread.join();
        }
    }

    // Invariant 3 (first half): every worker alive (deaths respawned).
    let live_during = stats.workers_live();
    if live_during != config.workers as u64 {
        violations.push(format!(
            "LEAKED WORKER: {live_during} of {} workers live before shutdown",
            config.workers
        ));
    }

    let (hits, misses, coalesced) = handle.cache_stats();
    let (cache_failed, cache_degraded) = handle.cache_failure_stats();
    let lookups = handle.cache_lookups();
    let server_panics = stats.panics();
    let server_degraded = stats.degraded();
    let worker_respawns = stats.worker_respawns();
    let injected_total = chaos.injected_total();

    // Telemetry exports, taken while the server is still up: the final
    // snapshot, the sampled chains as a Chrome trace, and the per-loop
    // trace-id sequences for the replay invariant.
    let metrics_snapshot = handle.metrics_snapshot_json();
    let hub = handle.telemetry();
    let chains = hub.chains();
    let chains_sampled = hub.chains_sampled();
    let chrome_trace = osarch_core::metrics::serve_chains_chrome_json(&chains);
    let mut trace_ids_by_loop: Vec<Vec<u64>> = vec![Vec::new(); config.workers];
    for chain in &chains {
        if let Some(ids) = trace_ids_by_loop.get_mut(chain.loop_index) {
            ids.push(chain.trace_id);
        }
    }
    handle.stop();

    // Invariant 1: zero client-visible corruption.
    if resilience.corrupt > 0 {
        violations.push(format!(
            "CORRUPTION: {} replies failed verification",
            resilience.corrupt
        ));
    }
    // Invariant 3 (second half): shutdown reaps every worker.
    let live_after = stats.workers_live();
    if live_after != 0 {
        violations.push(format!("LEAKED WORKER: {live_after} live after stop"));
    }
    // Invariant 4: every stale reply the client saw was flagged, and the
    // server flagged at least as many as the clients observed (some are
    // torn in flight by write faults and never reach a client).
    if resilience.degraded > server_degraded {
        violations.push(format!(
            "UNFLAGGED DEGRADATION: clients saw {} degraded replies, server served {}",
            resilience.degraded, server_degraded
        ));
    }
    if server_degraded > cache_degraded {
        violations.push(format!(
            "DEGRADED MISCOUNT: server {server_degraded} > cache {cache_degraded}"
        ));
    }
    // Invariant 5: single-flight accounting is exact.
    if lookups != hits + misses + coalesced {
        violations.push(format!(
            "SINGLE-FLIGHT ACCOUNTING: {lookups} lookups != {hits} hits + \
             {misses} misses + {coalesced} coalesced"
        ));
    }
    // Sanity: the soak must have actually exercised the system.
    if oks == 0 {
        violations.push("NO PROGRESS: zero successful requests".to_string());
    }
    // Invariant 6: telemetry replays from the seed. Every retained trace
    // id must appear, in order, in its loop's pure SplitMix64 stream —
    // the stream a same-seed rerun regenerates bit-identically.
    for (loop_index, ids) in trace_ids_by_loop.iter().enumerate() {
        if let Some(missing) = first_id_off_stream(&hub, loop_index, ids) {
            violations.push(format!(
                "TRACE REPLAY: loop {loop_index} id {missing:#018x} is not on the \
                 seeded id stream"
            ));
        }
    }
    // Mid-run snapshot was validated live; hold the final one too.
    if let Err(reason) = osarch_core::metrics::validate_metrics_snapshot(&metrics_snapshot) {
        violations.push(format!("METRICS: final snapshot rejected: {reason}"));
    }

    Ok(SoakReport {
        schedule,
        schedule_total,
        injected_total,
        oks,
        failures,
        resilience,
        server_panics,
        server_degraded,
        worker_respawns,
        cache: (lookups, hits, misses, coalesced, cache_failed),
        chains_sampled,
        trace_ids_by_loop,
        metrics_snapshot,
        chrome_trace,
        violations,
    })
}

/// Check every observed trace id against one loop's seeded id stream;
/// returns an id that falls off the stream (`None` means the replay
/// invariant holds). Membership, not order: chains complete in reply
/// order, which pipelining decouples from id-draw order. The scan
/// horizon is generous — two draws per sampled request, bounded far
/// above any soak's volume.
fn first_id_off_stream(
    hub: &osarch_telemetry::TelemetryHub,
    loop_index: usize,
    observed: &[u64],
) -> Option<u64> {
    const HORIZON: u64 = 4_000_000;
    let mut pending: std::collections::HashSet<u64> = observed.iter().copied().collect();
    if pending.is_empty() {
        return None;
    }
    let mut stream = hub.ids_for(loop_index);
    for _ in 0..HORIZON {
        pending.remove(&stream.next_id());
        if pending.is_empty() {
            return None;
        }
    }
    pending.into_iter().next()
}

/// One HTTP/1.0 GET against the scrape listener's JSON path, returning
/// the response body.
fn scrape_metrics_json(addr: SocketAddr) -> std::io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(b"GET /metrics/json HTTP/1.0\r\nConnection: close\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let body = response.split_once("\r\n\r\n").map_or("", |(_, body)| body);
    if body.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "scrape response carried no body",
        ));
    }
    Ok(body.to_string())
}

/// One soak client: closed-loop requests over the measure key space with
/// a fault-injecting resilient client, until the stop time.
fn soak_client(
    addr: &str,
    seed: u64,
    stop_at: Instant,
    chaos: &Arc<ChaosController>,
) -> (u64, u64, ClientCounters) {
    let mut client = ResilientClient::new(
        addr,
        ClientConfig {
            seed,
            attempts: 3,
            attempt_timeout: Duration::from_millis(800),
            backoff_base: Duration::from_micros(200),
            backoff_max: Duration::from_millis(10),
            breaker_threshold: 8,
            breaker_cooldown: 4,
        },
    )
    .with_chaos(Arc::clone(chaos));
    let keys = key_space();
    let mut rng = ChaosRng::new(seed ^ 0x0050_414b);
    let mut oks = 0u64;
    let mut failures = 0u64;
    let mut request_id = 0u64;
    while Instant::now() < stop_at {
        let (arch, primitive) = keys[rng.range(keys.len() as u64) as usize];
        request_id += 1;
        let id_token = request_id.to_string();
        let line = format!(
            "{{\"op\":\"measure\",\"arch\":\"{arch}\",\"primitive\":\"{}\",\"id\":{id_token}}}",
            primitive.tag()
        );
        match client.call(&line, &id_token) {
            Ok(_) => oks += 1,
            Err(_) => failures += 1,
        }
    }
    (oks, failures, client.counters())
}

fn merge(total: &mut ResilienceCounters, c: ClientCounters) {
    total.retries += c.retries;
    total.giveups += c.giveups;
    total.breaker_opens += c.breaker_opens;
    total.degraded += c.degraded;
    total.timeouts += c.timeouts;
    total.conn_resets += c.conn_resets;
    total.server_errors += c.server_errors;
    total.breaker_open += c.breaker_shed;
    total.corrupt += c.corrupt;
}

// ---------------------------------------------------------------------------
// Cluster soak: deterministic node kill + respawn
// ---------------------------------------------------------------------------

/// Cluster soak knobs (`osarch chaos --cluster`).
#[derive(Debug, Clone)]
pub struct ClusterSoakConfig {
    /// Seed for the kill schedule and the router's jitter streams. The
    /// victim choice is a pure function of `(seed, Failpoint::NodeKill)`
    /// — two runs with one seed kill the same node at the same phase
    /// boundary.
    pub seed: u64,
    /// Soak duration in seconds, split into three phases: healthy
    /// sweeps, one-node-dead sweeps, post-respawn sweeps.
    pub secs: f64,
    /// Cluster size (node processes, each an in-process server).
    pub nodes: usize,
    /// Replication factor R.
    pub replicas: usize,
    /// Gossip anti-entropy cadence in milliseconds.
    pub gossip_ms: u64,
}

impl Default for ClusterSoakConfig {
    fn default() -> ClusterSoakConfig {
        ClusterSoakConfig {
            seed: 42,
            secs: 3.0,
            nodes: 3,
            replicas: 2,
            gossip_ms: 50,
        }
    }
}

/// Everything a cluster soak observed.
#[derive(Debug, Clone)]
pub struct ClusterSoakReport {
    /// Node addresses, in start order.
    pub addrs: Vec<String>,
    /// The seeded kill decision: which node dies at the 1/3 boundary.
    pub victim: usize,
    /// Full key-space sweeps completed per phase: healthy, one node
    /// dead, after respawn.
    pub sweeps: [u64; 3],
    /// Calls answered ok across all phases.
    pub oks: u64,
    /// Calls that failed after in-call failover and retries.
    pub failures: u64,
    /// Replies that failed JSON/id verification (must be zero).
    pub corrupt: u64,
    /// Calls answered by the key's primary replica.
    pub routed_primary: u64,
    /// Calls answered by a non-primary replica (failover).
    pub failovers: u64,
    /// `not_owner` redirects the router followed.
    pub redirects_followed: u64,
    /// Whether membership converged before the kill.
    pub converged_before_kill: bool,
    /// Whether membership reconverged after the respawn, with the
    /// victim alive again at a higher incarnation.
    pub reconverged: bool,
    /// The victim's incarnation after respawn (must exceed its first).
    pub respawn_incarnation: u64,
    /// Invariant violations; empty means the soak passed.
    pub violations: Vec<String>,
}

impl ClusterSoakReport {
    /// Whether every invariant held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Reserve `n` distinct loopback ports by binding them all at once,
/// then freeing them: every node needs every peer's dialable address
/// before any node starts.
fn reserve_cluster_addrs(n: usize) -> std::io::Result<Vec<String>> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<std::io::Result<_>>()?;
    listeners
        .iter()
        .map(|listener| Ok(format!("127.0.0.1:{}", listener.local_addr()?.port())))
        .collect()
}

fn start_cluster_node(
    addrs: &[String],
    index: usize,
    config: &ClusterSoakConfig,
    incarnation: u64,
) -> std::io::Result<ServerHandle> {
    Server::start(&ServerConfig {
        addr: addrs[index].clone(),
        workers: 2,
        compute_threads: 2,
        cluster: Some(ClusterConfig {
            self_addr: addrs[index].clone(),
            peers: addrs.to_vec(),
            replicas: config.replicas,
            incarnation,
            gossip_interval: Duration::from_millis(config.gossip_ms.max(10)),
            ..ClusterConfig::default()
        }),
        ..ServerConfig::default()
    })
}

/// All live nodes' digests agree and carry no suspect/down rumours.
fn cluster_settled(handles: &[Option<ServerHandle>]) -> bool {
    let digests: Vec<String> = handles
        .iter()
        .flatten()
        .filter_map(ServerHandle::membership_digest)
        .collect();
    !digests.is_empty()
        && digests.windows(2).all(|pair| pair[0] == pair[1])
        && !digests[0].contains("/suspect")
        && !digests[0].contains("/down")
}

fn wait_settled(handles: &[Option<ServerHandle>], patience: Duration) -> bool {
    let deadline = Instant::now() + patience;
    while Instant::now() < deadline {
        if cluster_settled(handles) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    cluster_settled(handles)
}

/// The victim's incarnation as a survivor sees it, when alive.
fn victim_incarnation(handles: &[Option<ServerHandle>], victim_addr: &str) -> Option<u64> {
    let digest = handles.iter().flatten().next()?.membership_digest()?;
    digest.split(';').find_map(|entry| {
        let rest = entry.strip_prefix(victim_addr)?.strip_prefix('=')?;
        let (incarnation, status) = rest.split_once('/')?;
        (status == "alive").then(|| incarnation.parse().ok())?
    })
}

/// One full sweep of the measure key space through the routing client.
/// Returns `(oks, failures)`; every reply is JSON/id-verified.
fn cluster_sweep(client: &mut ClusterClient, request_id: &mut u64) -> (u64, u64) {
    let mut oks = 0u64;
    let mut failures = 0u64;
    for (arch, primitive) in key_space() {
        *request_id += 1;
        let id_token = request_id.to_string();
        let line = format!(
            "{{\"op\":\"measure\",\"arch\":\"{arch}\",\"primitive\":\"{}\",\"id\":{id_token}}}",
            primitive.tag()
        );
        let key = format!("measure/{arch}/{}", primitive.tag());
        match client.call(&key, &line, &id_token) {
            Ok(_) => oks += 1,
            Err(_) => failures += 1,
        }
    }
    (oks, failures)
}

/// Run one cluster soak: three nodes (by default) under a shard-routing
/// client, with one seeded whole-node kill at the 1/3 mark and a
/// respawn (incarnation + 1) at the 2/3 mark. Invariants:
///
/// 1. **availability** — with R ≥ 2 and one node dead, *every* key
///    still answers (the dead-phase sweeps must see zero failures);
/// 2. **no corruption** — every reply parses and echoes its id;
/// 3. **reconvergence** — after the respawn, every node's membership
///    digest agrees again and the victim is alive at a higher
///    incarnation (stale `down` rumours lose to the bumped epoch);
/// 4. **determinism** — the victim choice is a pure function of the
///    seed (drawn through [`Failpoint::NodeKill`]'s salted stream), so
///    a same-seed rerun kills the same node.
pub fn run_cluster(config: &ClusterSoakConfig) -> std::io::Result<ClusterSoakReport> {
    let nodes = config.nodes.max(2);
    let addrs = reserve_cluster_addrs(nodes)?;
    let mut handles: Vec<Option<ServerHandle>> = (0..nodes)
        .map(|index| start_cluster_node(&addrs, index, config, 0).map(Some))
        .collect::<std::io::Result<_>>()?;

    // The seeded kill decision, salted by the NodeKill failpoint index
    // the same way the connection-level schedule salts its draws.
    let salt = (Failpoint::NodeKill.index() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut rng = ChaosRng::new(config.seed ^ salt);
    let victim = rng.range(nodes as u64) as usize;

    let mut violations: Vec<String> = Vec::new();
    let converged_before_kill = wait_settled(&handles, Duration::from_secs(10));
    if !converged_before_kill {
        violations.push("CONVERGENCE: membership never settled before the kill".to_string());
    }

    let mut client = ClusterClient::new(
        &addrs,
        config.replicas,
        &ClientConfig {
            seed: config.seed,
            attempts: 3,
            attempt_timeout: Duration::from_secs(2),
            breaker_threshold: 2,
            breaker_cooldown: 4,
            ..ClientConfig::default()
        },
    );

    let duration = Duration::from_secs_f64(config.secs.max(1.5));
    let started = Instant::now();
    let kill_at = started + duration / 3;
    let respawn_at = started + (duration / 3) * 2;
    let mut request_id = 0u64;
    let mut oks = 0u64;
    let mut failures = 0u64;
    let mut sweeps = [0u64; 3];

    // Phase 1: healthy cluster. At least one sweep, then until the
    // kill boundary.
    loop {
        let (sweep_oks, sweep_failures) = cluster_sweep(&mut client, &mut request_id);
        oks += sweep_oks;
        failures += sweep_failures;
        sweeps[0] += 1;
        if sweep_failures > 0 {
            violations.push(format!(
                "AVAILABILITY: {sweep_failures} keys unanswered with every node up"
            ));
        }
        if Instant::now() >= kill_at {
            break;
        }
    }

    // Phase 2: kill the victim outright — its listener closes and every
    // in-flight connection drops. R-way replication must keep 100% of
    // the key space answerable.
    if let Some(handle) = handles[victim].take() {
        handle.stop();
    }
    loop {
        let (sweep_oks, sweep_failures) = cluster_sweep(&mut client, &mut request_id);
        oks += sweep_oks;
        failures += sweep_failures;
        sweeps[1] += 1;
        if sweep_failures > 0 {
            violations.push(format!(
                "AVAILABILITY: {sweep_failures} keys unanswered with node {victim} dead"
            ));
        }
        if Instant::now() >= respawn_at {
            break;
        }
    }

    // Phase 3: respawn the victim with a bumped incarnation so gossip
    // revives it over any `down` rumour, then require reconvergence.
    let respawn_incarnation = 1;
    handles[victim] = Some(start_cluster_node(
        &addrs,
        victim,
        config,
        respawn_incarnation,
    )?);
    let reconverged = wait_settled(&handles, Duration::from_secs(20))
        && victim_incarnation(&handles, &addrs[victim])
            .is_some_and(|incarnation| incarnation >= respawn_incarnation);
    if !reconverged {
        violations.push(format!(
            "RECONVERGENCE: membership did not re-agree with node {victim} \
             back at incarnation {respawn_incarnation}"
        ));
    }
    {
        let (sweep_oks, sweep_failures) = cluster_sweep(&mut client, &mut request_id);
        oks += sweep_oks;
        failures += sweep_failures;
        sweeps[2] += 1;
        if sweep_failures > 0 {
            violations.push(format!(
                "AVAILABILITY: {sweep_failures} keys unanswered after the respawn"
            ));
        }
    }

    let corrupt = client.counters().corrupt;
    if corrupt > 0 {
        violations.push(format!("CORRUPTION: {corrupt} replies failed verification"));
    }
    if oks == 0 {
        violations.push("NO PROGRESS: zero successful requests".to_string());
    }
    let routes = client.route_counters();
    for handle in handles.into_iter().flatten() {
        handle.stop();
    }

    Ok(ClusterSoakReport {
        addrs,
        victim,
        sweeps,
        oks,
        failures,
        corrupt,
        routed_primary: routes.routed_primary,
        failovers: routes.failovers,
        redirects_followed: routes.redirects_followed,
        converged_before_kill,
        reconverged,
        respawn_incarnation,
        violations,
    })
}

// ---------------------------------------------------------------------------
// Swap soak: repeated live spec swaps under full fault injection
// ---------------------------------------------------------------------------

/// The admin token every swap soak runs with (the soak owns both ends
/// of the connection, so the value only has to be non-empty).
const SWAP_TOKEN: &str = "swap-soak-admin-token";

/// Per-exchange timeout for raw admin/verifier connections.
const SWAP_IO_TIMEOUT: Duration = Duration::from_secs(3);

/// Swap soak knobs (`osarch chaos --swap`).
#[derive(Debug, Clone)]
pub struct SwapSoakConfig {
    /// Seed for the fault schedule; the CorruptSpec decision stream —
    /// which activations roll back — is a pure function of it.
    pub seed: u64,
    /// Fault probability per failpoint draw. Kept lower than the plain
    /// soak's default: the swap soak demands *zero* dropped requests,
    /// so every injected fault must be absorbable by patient retries.
    pub rate: f64,
    /// Live activations to drive through the admin plane.
    pub swaps: u64,
    /// Background load connections (builtin measure traffic).
    pub conns: u32,
    /// Server worker threads.
    pub workers: usize,
}

impl Default for SwapSoakConfig {
    fn default() -> SwapSoakConfig {
        SwapSoakConfig {
            seed: 42,
            rate: 0.08,
            swaps: 24,
            conns: 4,
            workers: 4,
        }
    }
}

/// Everything a swap soak observed.
#[derive(Debug, Clone)]
pub struct SwapSoakReport {
    /// Activations driven through the admin plane.
    pub swaps_attempted: u64,
    /// Activations that committed and survived the probe.
    pub swaps_committed: u64,
    /// Activations the injected `admin/corrupt-spec` fault rolled back.
    pub auto_rollbacks: u64,
    /// Explicit `spec-rollback` admin calls issued by the soak.
    pub explicit_rollbacks: u64,
    /// Event loops the `swap/mid-swap-loop-death` fault killed (all
    /// must have respawned with the committed epoch intact).
    pub loop_deaths: u64,
    /// The registry epoch after the final swap.
    pub final_epoch: u64,
    /// The registry digest after the final swap.
    pub final_digest: String,
    /// Background load calls answered ok.
    pub oks: u64,
    /// Background load calls dropped after retries — must be zero.
    pub failures: u64,
    /// Replies failing JSON/id verification — must be zero.
    pub corrupt: u64,
    /// Epoch-tagged `measure spec` samples captured by the verifier.
    pub samples: u64,
    /// Of those, degraded (stale-last-good) replies — still checked
    /// byte-identical to their epoch's emitter.
    pub degraded_samples: u64,
    /// Observed per-activation rollback outcomes, in order — must equal
    /// the pure seeded CorruptSpec decision stream bit for bit.
    pub rollback_stream: Vec<bool>,
    /// One line per admin action, for artifact upload.
    pub transcript: Vec<String>,
    /// Invariant violations; empty means the soak passed.
    pub violations: Vec<String>,
}

impl SwapSoakReport {
    /// Whether every invariant held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The swap-soak candidate document for activation `index`: the first
/// builtin re-based with a distinct clock, named `hot`. Distinct clocks
/// give every activation distinct content (and so a distinct digest).
fn swap_doc(index: u64) -> String {
    let mut spec = osarch_cpu::Arch::all()[0].spec();
    spec.clock_mhz = 20.0 + index as f64;
    spec.to_json("hot")
}

/// One request/reply exchange over a fresh connection. Admin traffic is
/// rare; a fresh dial per op keeps lost-reply recovery simple (there is
/// never a half-consumed read buffer to reason about).
fn exchange_once(addr: SocketAddr, line: &str, timeout: Duration) -> std::io::Result<String> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream);
    reader.get_mut().write_all(line.as_bytes())?;
    reader.get_mut().write_all(b"\n")?;
    let mut reply = String::new();
    if reader.read_line(&mut reply)? == 0 || !reply.ends_with('\n') {
        // No reply, or a torn line: the connection died mid-write (a
        // loop-death or connection fault landed between our write and
        // the server's). Either way the outcome is unknown — the
        // caller must recover via the authoritative registry state.
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before the full reply",
        ));
    }
    Ok(reply)
}

/// The `result` payload of a reply envelope; `null` when the reply does
/// not parse or carries none (an error envelope).
fn reply_result(reply: &str) -> Value<'_> {
    json::parse(reply)
        .ok()
        .and_then(|envelope| envelope.get("result").cloned())
        .unwrap_or(Value::Null)
}

/// The registry `(epoch, digest)` an admin payload reports.
fn epoch_and_digest(payload: &Value<'_>) -> Option<(u64, String)> {
    Some((
        payload["epoch"].as_u64()?,
        payload["digest"].as_str()?.to_string(),
    ))
}

/// A local mirror of the server's registry state-machine: the soak
/// replays every admin action against it, so divergence between the
/// reply digests and the model is itself an invariant violation, and
/// the model's per-epoch snapshots are the "direct emitter" every
/// sampled payload is held byte-identical to.
struct SwapModel {
    active: SpecSnapshot,
    last_good: SpecSnapshot,
    /// Epoch → the snapshot(s) that may legitimately have served it.
    /// Normally one; a lost-reply gap accepts both the candidate and
    /// the prior content.
    expected: BTreeMap<u64, Vec<SpecSnapshot>>,
}

impl SwapModel {
    fn new() -> SwapModel {
        let builtins = SpecSnapshot::builtins();
        let mut expected = BTreeMap::new();
        expected.insert(builtins.epoch(), vec![builtins.clone()]);
        SwapModel {
            active: builtins.clone(),
            last_good: builtins,
            expected,
        }
    }

    fn note(&mut self, snap: &SpecSnapshot) {
        self.expected
            .entry(snap.epoch())
            .or_default()
            .push(snap.clone());
    }

    /// A successful activation: prior active becomes last-good, the
    /// candidate becomes active at `epoch`. Returns the model digest.
    fn apply_success(&mut self, doc: &str, epoch: u64) -> Result<String, String> {
        let candidate = self.active.with_spec(doc, epoch)?;
        self.note(&candidate);
        self.last_good = self.active.clone();
        self.active = candidate;
        Ok(self.active.digest())
    }

    /// A probe-failure rollback: the candidate was briefly active at
    /// `epoch - 1`, then the prior content was restored at `epoch`.
    fn apply_auto_rollback(&mut self, doc: &str, epoch: u64) -> Result<String, String> {
        let candidate = self.active.with_spec(doc, epoch.saturating_sub(1))?;
        self.note(&candidate);
        // The registry's commit made the prior active last-good; the
        // rollback restored its content without touching last-good.
        self.last_good = self.active.clone();
        let restored = self.active.at_epoch(epoch);
        self.note(&restored);
        self.active = restored;
        Ok(self.active.digest())
    }

    /// An explicit `spec-rollback`: last-good content at `epoch`
    /// (last-good itself is unchanged, exactly as in the registry).
    fn apply_explicit_rollback(&mut self, epoch: u64) -> String {
        let restored = self.last_good.at_epoch(epoch);
        self.note(&restored);
        self.active = restored;
        self.active.digest()
    }
}

/// What a lost-reply recovery concluded actually happened server-side.
enum LostSwap {
    /// The request never reached the registry — safe to retry.
    Nothing,
    /// The activation committed and survived its probe.
    Committed,
    /// The activation committed, the probe died, the registry rolled
    /// back.
    RolledBack,
}

/// Resolve a lost `spec-activate` reply: read the authoritative
/// `(epoch, digest)` via `spec-list` and match it against the model's
/// two possible successors. The content hash disambiguates — a digest
/// is `{epoch}:{content hash}` and the hash is epoch-independent.
fn resolve_lost_swap(
    addr: SocketAddr,
    model: &mut SwapModel,
    doc: &str,
    admin_id: &mut u64,
) -> Result<LostSwap, String> {
    let (epoch, digest) = spec_list(addr, admin_id)?;
    let before = model.active.epoch();
    if epoch == before && digest == model.active.digest() {
        return Ok(LostSwap::Nothing);
    }
    if epoch <= before {
        return Err(format!(
            "recovery saw epoch {epoch} at digest {digest}, not newer than {before}"
        ));
    }
    // Epochs the lost swap may have served in passing: accept both the
    // candidate and the prior content for each.
    let fill: Vec<u64> = (before + 1..epoch).collect();
    let candidate = model
        .active
        .with_spec(doc, epoch)
        .map_err(|e| format!("recovery could not rebuild the candidate: {e}"))?;
    if candidate.digest() == digest {
        for gap in fill {
            if let Ok(snap) = model.active.with_spec(doc, gap) {
                model.note(&snap);
            }
            let prior = model.active.at_epoch(gap);
            model.note(&prior);
        }
        model
            .apply_success(doc, epoch)
            .map_err(|e| format!("recovery model update failed: {e}"))?;
        return Ok(LostSwap::Committed);
    }
    if model.active.at_epoch(epoch).digest() == digest {
        for gap in fill {
            if gap == epoch - 1 {
                continue; // apply_auto_rollback notes the candidate there
            }
            if let Ok(snap) = model.active.with_spec(doc, gap) {
                model.note(&snap);
            }
            let prior = model.active.at_epoch(gap);
            model.note(&prior);
        }
        model
            .apply_auto_rollback(doc, epoch)
            .map_err(|e| format!("recovery model update failed: {e}"))?;
        return Ok(LostSwap::RolledBack);
    }
    Err(format!(
        "recovery saw digest {digest} at epoch {epoch}, matching neither \
         the candidate nor the prior content"
    ))
}

/// Authoritative `(epoch, digest)` via `spec-list`, retried through
/// injected connection faults.
fn spec_list(addr: SocketAddr, admin_id: &mut u64) -> Result<(u64, String), String> {
    for _ in 0..100 {
        *admin_id += 1;
        let line = format!(
            "{{\"op\":\"admin\",\"action\":\"spec-list\",\"token\":\"{SWAP_TOKEN}\",\
             \"id\":{admin_id}}}"
        );
        if let Ok(reply) = exchange_once(addr, &line, SWAP_IO_TIMEOUT) {
            if let Some(state) = epoch_and_digest(&reply_result(&reply)) {
                return Ok(state);
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Err("spec-list never answered through the fault schedule".to_string())
}

/// A patient background load client: no client-side fault injection and
/// enough retry budget that every server-side fault is absorbed — the
/// zero-drop invariant charges any give-up to the soak.
fn swap_load_client(addr: &str, seed: u64, stop: &AtomicBool) -> (u64, u64, ClientCounters) {
    let mut client = ResilientClient::new(
        addr,
        ClientConfig {
            seed,
            attempts: 10,
            attempt_timeout: Duration::from_secs(2),
            backoff_base: Duration::from_micros(200),
            backoff_max: Duration::from_millis(20),
            // Effectively no breaker: shedding would count as a drop.
            breaker_threshold: 1_000_000,
            breaker_cooldown: 1,
        },
    );
    let keys = key_space();
    let mut rng = ChaosRng::new(seed ^ 0x5357_4150);
    let mut oks = 0u64;
    let mut failures = 0u64;
    let mut request_id = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let (arch, primitive) = keys[rng.range(keys.len() as u64) as usize];
        request_id += 1;
        let id_token = request_id.to_string();
        let line = format!(
            "{{\"op\":\"measure\",\"arch\":\"{arch}\",\"primitive\":\"{}\",\"id\":{id_token}}}",
            primitive.tag()
        );
        match client.call(&line, &id_token) {
            Ok(_) => oks += 1,
            Err(_) => failures += 1,
        }
    }
    (oks, failures, client.counters())
}

/// The epoch verifier: hammers `measure` on the hot-swapped spec over a
/// raw connection and records `(epoch, primitive, payload)` for every
/// ok reply — including degraded ones, whose stale payload is keyed
/// under the same epoch-scoped prefix and must match it all the same.
/// Returns the samples, the degraded count, and id-echo mismatches.
fn swap_verifier(
    addr: SocketAddr,
    stop: &AtomicBool,
) -> (Vec<(u64, osarch_kernel::Primitive, String)>, u64, u64) {
    let primitives = osarch_kernel::Primitive::all();
    let mut samples = Vec::new();
    let mut degraded = 0u64;
    let mut mismatches = 0u64;
    let mut request_id = 500_000u64;
    let mut conn: Option<BufReader<TcpStream>> = None;
    while !stop.load(Ordering::Relaxed) {
        let Some(reader) = conn.as_mut() else {
            match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(SWAP_IO_TIMEOUT)).ok();
                    stream.set_nodelay(true).ok();
                    conn = Some(BufReader::new(stream));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
            continue;
        };
        request_id += 1;
        let primitive = primitives[request_id as usize % primitives.len()];
        let line = format!(
            "{{\"op\":\"measure\",\"spec\":\"hot\",\"primitive\":\"{}\",\"id\":{request_id}}}\n",
            primitive.tag()
        );
        if reader.get_mut().write_all(line.as_bytes()).is_err() {
            conn = None;
            continue;
        }
        let mut reply = String::new();
        match reader.read_line(&mut reply) {
            Ok(0) | Err(_) => {
                conn = None;
                continue;
            }
            Ok(_) => {}
        }
        if !reply.ends_with('\n') {
            // Torn mid-write by an injected fault: not epoch evidence,
            // not corruption — just a dead connection.
            conn = None;
            continue;
        }
        let reply = match json::parse(&reply) {
            Ok(reply) if reply["id"].as_u64() == Some(request_id) => reply,
            _ => {
                mismatches += 1;
                conn = None;
                continue;
            }
        };
        if reply["ok"].as_bool() != Some(true) {
            // `unknown spec` before the first activation (or while a
            // rollback has the hot spec out), deadline errors, … — all
            // legitimate, none epoch evidence.
            continue;
        }
        if reply["degraded"].as_bool() == Some(true) {
            degraded += 1;
        }
        let (Some(epoch), Some(payload)) = (reply["epoch"].as_u64(), reply.get("result")) else {
            mismatches += 1;
            continue;
        };
        // Compact re-emission reproduces the server's bytes exactly (the
        // emitters write compact JSON, and numbers keep their tokens).
        samples.push((epoch, primitive, payload.to_string()));
    }
    (samples, degraded, mismatches)
}

/// Run one swap soak: repeated live spec swaps through the admin plane
/// while background load and an epoch verifier hammer the data plane,
/// everything under full fault injection. Invariants:
///
/// 1. **zero dropped requests** — every background call lands after
///    retries; give-ups, breaker sheds and watchdog trips all fail;
/// 2. **zero corruption** — every reply parses and echoes its id;
/// 3. **epoch identity** — every ok `measure spec` payload (degraded
///    included) is byte-identical to its reply epoch's direct emitter,
///    recomputed from the model snapshot for that epoch;
/// 4. **fault-safe control plane** — every activation either commits or
///    rolls back to last-good; the reply digests (and the final
///    registry digest) match the soak's replayed model exactly;
/// 5. **deterministic replay** — the observed rollback sequence equals
///    the pure seeded CorruptSpec decision stream, so a same-seed rerun
///    reproduces it bit-identically;
/// 6. **no leaked loops** — mid-swap loop deaths respawn in place.
///
/// # Errors
///
/// I/O errors are returned only for harness failures (the listener
/// socket itself); every soak-level failure lands in `violations`.
pub fn run_swap(config: &SwapSoakConfig) -> std::io::Result<SwapSoakReport> {
    let _quiet = osarch_chaos::QuietChaosPanics::install();
    let chaos = Arc::new(ChaosController::new(ChaosConfig {
        seed: config.seed,
        rate: config.rate,
        ..ChaosConfig::default()
    }));
    let handle = Server::start(&ServerConfig {
        workers: config.workers,
        shards: 16,
        queue_depth: (config.conns as usize * 4).max(64),
        // Generous deadline: injected compute delays must degrade or
        // retry, never hard-drop, because this soak demands zero drops.
        deadline: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        chaos: Some(Arc::clone(&chaos)),
        sample_every: 64,
        telemetry_seed: config.seed,
        admin_token: Some(SWAP_TOKEN.to_string()),
        ..ServerConfig::default()
    })?;
    let addr = handle.addr();
    let addr_text = addr.to_string();
    let stats = handle.stats();
    let stop = Arc::new(AtomicBool::new(false));
    let mut violations: Vec<String> = Vec::new();
    let mut transcript: Vec<String> = Vec::new();

    let (tx, rx) = mpsc::channel::<(u64, u64, ClientCounters)>();
    let mut load_threads = Vec::new();
    for conn in 0..config.conns {
        let tx = tx.clone();
        let addr = addr_text.clone();
        let stop = Arc::clone(&stop);
        let seed = config.seed ^ (u64::from(conn) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        load_threads.push(std::thread::spawn(move || {
            let _ = tx.send(swap_load_client(&addr, seed, &stop));
        }));
    }
    drop(tx);
    let verifier = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || swap_verifier(addr, &stop))
    };

    // The admin sequence, driven synchronously from this thread.
    let mut model = SwapModel::new();
    let mut rollback_stream: Vec<bool> = Vec::new();
    let mut committed = 0u64;
    let mut auto_rollbacks = 0u64;
    let mut explicit_rollbacks = 0u64;
    let mut admin_id = 1_000_000u64;
    'swaps: for swap in 1..=config.swaps {
        let doc = swap_doc(swap);
        // Stage. Idempotent, so a lost reply just retries.
        let mut staged = false;
        for _ in 0..50 {
            admin_id += 1;
            let line = format!(
                "{{\"op\":\"admin\",\"action\":\"spec-load\",\"token\":\"{SWAP_TOKEN}\",\
                 \"id\":{admin_id},\"spec\":\"{}\"}}",
                osarch_core::metrics::json_escape(&doc)
            );
            match exchange_once(addr, &line, SWAP_IO_TIMEOUT) {
                Ok(reply) if reply_result(&reply)["staged"].as_str() == Some("hot") => {
                    staged = true;
                    break;
                }
                Ok(reply) => {
                    violations.push(format!("ADMIN: spec-load refused: {}", reply.trim_end()));
                    break 'swaps;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        if !staged {
            violations.push(format!("ADMIN: swap {swap} spec-load never got through"));
            break;
        }
        // Activate, resolving lost replies against the authoritative
        // registry state.
        let mut settled = false;
        for _ in 0..10 {
            admin_id += 1;
            let line = format!(
                "{{\"op\":\"admin\",\"action\":\"spec-activate\",\"token\":\"{SWAP_TOKEN}\",\
                 \"name\":\"hot\",\"id\":{admin_id}}}"
            );
            match exchange_once(addr, &line, SWAP_IO_TIMEOUT) {
                Ok(reply) => {
                    let payload = reply_result(&reply);
                    if payload == Value::Null {
                        violations.push(format!(
                            "ADMIN: spec-activate errored: {}",
                            reply.trim_end()
                        ));
                        break 'swaps;
                    }
                    let (Some(activated), Some((epoch, digest))) =
                        (payload["activated"].as_bool(), epoch_and_digest(&payload))
                    else {
                        violations.push(format!(
                            "ADMIN: spec-activate reply unparsable: {}",
                            reply.trim_end()
                        ));
                        break 'swaps;
                    };
                    let modelled = if activated {
                        committed += 1;
                        rollback_stream.push(false);
                        model.apply_success(&doc, epoch)
                    } else {
                        auto_rollbacks += 1;
                        rollback_stream.push(true);
                        model.apply_auto_rollback(&doc, epoch)
                    };
                    match modelled {
                        Ok(model_digest) if model_digest == digest => transcript.push(format!(
                            "swap {swap}: {} at epoch {epoch} ({digest})",
                            if activated {
                                "activated"
                            } else {
                                "rolled back"
                            }
                        )),
                        Ok(model_digest) => violations.push(format!(
                            "MODEL DIVERGENCE: swap {swap} reply digest {digest} != \
                             model {model_digest}"
                        )),
                        Err(reason) => violations.push(format!(
                            "MODEL DIVERGENCE: swap {swap} model rejected the doc: {reason}"
                        )),
                    }
                    settled = true;
                    break;
                }
                Err(_) => match resolve_lost_swap(addr, &mut model, &doc, &mut admin_id) {
                    Ok(LostSwap::Nothing) => {}
                    Ok(LostSwap::Committed) => {
                        committed += 1;
                        rollback_stream.push(false);
                        transcript.push(format!(
                            "swap {swap}: activated at epoch {} (reply lost; recovered)",
                            model.active.epoch()
                        ));
                        settled = true;
                        break;
                    }
                    Ok(LostSwap::RolledBack) => {
                        auto_rollbacks += 1;
                        rollback_stream.push(true);
                        transcript.push(format!(
                            "swap {swap}: rolled back at epoch {} (reply lost; recovered)",
                            model.active.epoch()
                        ));
                        settled = true;
                        break;
                    }
                    Err(reason) => {
                        violations.push(format!("RECOVERY: swap {swap}: {reason}"));
                        break 'swaps;
                    }
                },
            }
        }
        if !settled {
            violations.push(format!("ADMIN: swap {swap} never settled"));
            break;
        }
        // Midpoint: one explicit rollback, so the rollback path is
        // exercised even under a schedule that plans no corrupt-spec
        // fault.
        if swap == config.swaps / 2 {
            let mut rolled = false;
            for _ in 0..10 {
                admin_id += 1;
                let line = format!(
                    "{{\"op\":\"admin\",\"action\":\"spec-rollback\",\"token\":\"{SWAP_TOKEN}\",\
                     \"id\":{admin_id}}}"
                );
                match exchange_once(addr, &line, SWAP_IO_TIMEOUT) {
                    Ok(reply) => {
                        if let Some((epoch, digest)) = epoch_and_digest(&reply_result(&reply)) {
                            let model_digest = model.apply_explicit_rollback(epoch);
                            if model_digest == digest {
                                transcript.push(format!(
                                    "swap {swap}+: explicit rollback to epoch {epoch} \
                                     ({digest})"
                                ));
                            } else {
                                violations.push(format!(
                                    "MODEL DIVERGENCE: explicit rollback digest {digest} \
                                     != model {model_digest}"
                                ));
                            }
                            explicit_rollbacks += 1;
                            rolled = true;
                        }
                        break;
                    }
                    Err(_) => {
                        // Lost reply: check whether the rollback landed.
                        match spec_list(addr, &mut admin_id) {
                            Ok((epoch, digest)) if epoch > model.active.epoch() => {
                                let model_digest = model.apply_explicit_rollback(epoch);
                                if model_digest != digest {
                                    violations.push(format!(
                                        "MODEL DIVERGENCE: lost explicit rollback left \
                                         digest {digest}, model {model_digest}"
                                    ));
                                }
                                explicit_rollbacks += 1;
                                rolled = true;
                                break;
                            }
                            Ok(_) => {} // nothing happened; retry
                            Err(reason) => {
                                violations.push(format!("RECOVERY: explicit rollback: {reason}"));
                                break;
                            }
                        }
                    }
                }
            }
            if !rolled {
                violations.push("ADMIN: the explicit rollback never settled".to_string());
            }
        }
        // Let the data plane sample this epoch before the next swap.
        std::thread::sleep(Duration::from_millis(25));
    }

    // Authoritative final state, cross-checked three ways: spec-list
    // over the wire, the in-process handle, and the model.
    let (final_epoch, final_digest) =
        spec_list(addr, &mut admin_id).unwrap_or((0, String::from("unreachable")));
    if final_digest != model.active.digest() {
        violations.push(format!(
            "MODEL DIVERGENCE: final digest {final_digest} != model {}",
            model.active.digest()
        ));
    }
    if handle.registry_digest() != model.active.digest() {
        violations.push(format!(
            "MODEL DIVERGENCE: handle digest {} != model {}",
            handle.registry_digest(),
            model.active.digest()
        ));
    }
    let (registry_swaps, registry_rollbacks) = handle.registry_swap_stats();
    let expect_swaps = committed + 2 * auto_rollbacks + explicit_rollbacks;
    let expect_rollbacks = auto_rollbacks + explicit_rollbacks;
    if (registry_swaps, registry_rollbacks) != (expect_swaps, expect_rollbacks) {
        violations.push(format!(
            "SWAP ACCOUNTING: registry counted {registry_swaps} swaps / \
             {registry_rollbacks} rollbacks, soak drove {expect_swaps} / {expect_rollbacks}"
        ));
    }

    // Invariant 6 (first half): every loop alive before shutdown.
    let live_during = stats.workers_live();
    if live_during != config.workers as u64 {
        violations.push(format!(
            "LEAKED WORKER: {live_during} of {} loops live before shutdown",
            config.workers
        ));
    }
    let loop_deaths = stats.worker_respawns();

    // Wind down traffic and collect tallies; the receive is the
    // deadlock watchdog.
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::Relaxed);
    let mut oks = 0u64;
    let mut failures = 0u64;
    let mut counters = ClientCounters::default();
    let watchdog = Duration::from_secs(60);
    for _ in 0..config.conns {
        match rx.recv_timeout(watchdog) {
            Ok((conn_oks, conn_failures, conn_counters)) => {
                oks += conn_oks;
                failures += conn_failures;
                counters.corrupt += conn_counters.corrupt;
                counters.giveups += conn_counters.giveups;
                counters.breaker_shed += conn_counters.breaker_shed;
                counters.degraded += conn_counters.degraded;
            }
            Err(_) => {
                violations.push(format!(
                    "DEADLOCK: a load thread failed to report within {watchdog:?}"
                ));
                break;
            }
        }
    }
    if violations.iter().all(|v| !v.starts_with("DEADLOCK")) {
        for thread in load_threads {
            let _ = thread.join();
        }
    }
    let (samples, degraded_samples, id_mismatches) = match verifier.join() {
        Ok(result) => result,
        Err(_) => {
            violations.push("DEADLOCK: the verifier thread panicked".to_string());
            (Vec::new(), 0, 0)
        }
    };
    handle.stop();

    // Invariant 1: zero dropped requests.
    if failures > 0 || counters.giveups > 0 || counters.breaker_shed > 0 {
        violations.push(format!(
            "DROPPED REQUESTS: {failures} calls failed ({} give-ups, {} breaker sheds) \
             across {} live swaps",
            counters.giveups,
            counters.breaker_shed,
            committed + auto_rollbacks
        ));
    }
    if oks == 0 {
        violations.push("NO PROGRESS: zero successful requests".to_string());
    }
    // Invariant 2: zero corruption, either side.
    if counters.corrupt > 0 || id_mismatches > 0 {
        violations.push(format!(
            "CORRUPTION: {} load replies and {id_mismatches} verifier replies failed \
             verification",
            counters.corrupt
        ));
    }
    // Invariant 3: epoch identity — every sampled payload byte-identical
    // to its epoch's direct emitter, recomputed from the model.
    let mut emitter_memo: HashMap<(String, &'static str), Option<String>> = HashMap::new();
    let mut diverged = 0u64;
    for (epoch, primitive, payload) in &samples {
        let Some(snaps) = model.expected.get(epoch) else {
            diverged += 1;
            if diverged <= 3 {
                violations.push(format!(
                    "EPOCH IDENTITY: a reply carried unknown epoch {epoch}"
                ));
            }
            continue;
        };
        let matched = snaps.iter().any(|snap| {
            let emitted = emitter_memo
                .entry((snap.digest(), primitive.tag()))
                .or_insert_with(|| {
                    snap.spec("hot").is_some().then(|| {
                        Query::MeasureSpec {
                            name: "hot".to_string(),
                            primitive: *primitive,
                        }
                        .compute(snap)
                    })
                });
            emitted.as_deref() == Some(payload.as_str())
        });
        if !matched {
            diverged += 1;
            if diverged <= 3 {
                violations.push(format!(
                    "EPOCH IDENTITY: epoch {epoch} {} payload diverged from its direct \
                     emitter",
                    primitive.tag()
                ));
            }
        }
    }
    if diverged > 3 {
        violations.push(format!(
            "EPOCH IDENTITY: {diverged} samples diverged in total"
        ));
    }
    if samples.is_empty() {
        violations.push("NO PROGRESS: the verifier captured zero epoch samples".to_string());
    }
    // Invariant 5: the rollback sequence replays from the seed.
    let fresh = ChaosController::new(ChaosConfig {
        seed: config.seed,
        rate: config.rate,
        ..ChaosConfig::default()
    });
    let pure: Vec<bool> = rollback_stream
        .iter()
        .map(|_| fresh.should_inject(Failpoint::CorruptSpec))
        .collect();
    if rollback_stream != pure {
        violations.push(format!(
            "REPLAY: observed rollback stream {rollback_stream:?} != seeded stream {pure:?}"
        ));
    }
    // The soak's charter includes the rollback path; a schedule that
    // never exercises it (possible under an unlucky seed at a low
    // rate) is a configuration failure, not a pass.
    if config.rate > 0.0 && auto_rollbacks == 0 {
        violations.push(
            "ROLLBACK PATH UNEXERCISED: the seeded schedule planned no corrupt-spec \
             fault; pick another --seed or raise --rate"
                .to_string(),
        );
    }
    // Invariant 6 (second half): shutdown reaps every loop.
    let live_after = stats.workers_live();
    if live_after != 0 {
        violations.push(format!("LEAKED WORKER: {live_after} live after stop"));
    }

    Ok(SwapSoakReport {
        swaps_attempted: config.swaps,
        swaps_committed: committed,
        auto_rollbacks,
        explicit_rollbacks,
        loop_deaths,
        final_epoch,
        final_digest,
        oks,
        failures,
        corrupt: counters.corrupt + id_mismatches,
        samples: samples.len() as u64,
        degraded_samples,
        rollback_stream,
        transcript,
        violations,
    })
}

// ---------------------------------------------------------------------------
// Cluster swap soak: spec convergence through gossip, with a mid-swap kill
// ---------------------------------------------------------------------------

/// Cluster swap-soak knobs (`osarch chaos --swap --cluster`).
#[derive(Debug, Clone)]
pub struct SwapClusterConfig {
    /// Seed for the victim choice and the router's jitter streams.
    pub seed: u64,
    /// Live activations driven through node 0's admin plane.
    pub swaps: u64,
    /// Cluster size.
    pub nodes: usize,
    /// Replication factor R.
    pub replicas: usize,
    /// Gossip anti-entropy cadence in milliseconds — also the spec
    /// digest propagation path.
    pub gossip_ms: u64,
}

impl Default for SwapClusterConfig {
    fn default() -> SwapClusterConfig {
        SwapClusterConfig {
            seed: 42,
            swaps: 8,
            nodes: 3,
            replicas: 2,
            gossip_ms: 50,
        }
    }
}

/// Everything a cluster swap soak observed.
#[derive(Debug, Clone)]
pub struct SwapClusterReport {
    /// Node addresses, in start order. Node 0 is the admin node.
    pub addrs: Vec<String>,
    /// The seeded victim (never node 0) killed mid-sequence.
    pub victim: usize,
    /// Activations that committed on node 0.
    pub swaps_committed: u64,
    /// The final epoch every node must converge to.
    pub final_epoch: u64,
    /// The final digest every node must converge to.
    pub final_digest: String,
    /// Sweep calls answered ok.
    pub oks: u64,
    /// Sweep calls that failed — must be zero (R ≥ 2 keeps every key
    /// answerable even with the victim dead).
    pub failures: u64,
    /// Replies failing JSON/id verification — must be zero.
    pub corrupt: u64,
    /// Whether membership settled before the kill.
    pub converged_before_kill: bool,
    /// Whether every node (victim included, post-respawn) converged to
    /// the final spec digest.
    pub spec_converged: bool,
    /// One line per admin action and lifecycle event.
    pub transcript: Vec<String>,
    /// Invariant violations; empty means the soak passed.
    pub violations: Vec<String>,
}

impl SwapClusterReport {
    /// Whether every invariant held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

fn start_swap_cluster_node(
    addrs: &[String],
    index: usize,
    config: &SwapClusterConfig,
    incarnation: u64,
) -> std::io::Result<ServerHandle> {
    Server::start(&ServerConfig {
        addr: addrs[index].clone(),
        workers: 2,
        compute_threads: 2,
        admin_token: Some(SWAP_TOKEN.to_string()),
        cluster: Some(ClusterConfig {
            self_addr: addrs[index].clone(),
            peers: addrs.to_vec(),
            replicas: config.replicas,
            incarnation,
            gossip_interval: Duration::from_millis(config.gossip_ms.max(10)),
            ..ClusterConfig::default()
        }),
        ..ServerConfig::default()
    })
}

/// Run one cluster swap soak: a ring of nodes, live swaps driven
/// through node 0, spec digests gossiped on the membership path, a
/// seeded mid-swap node kill + respawn. Invariants:
///
/// 1. **convergence** — every node (the respawned victim included)
///    ends at the final epoch and digest; a mid-swap kill must not
///    permanently split the ring across epochs;
/// 2. **availability** — with R ≥ 2, every sweep answers every key
///    through all phases;
/// 3. **no corruption** — every reply parses and echoes its id;
/// 4. **model fidelity** — node 0's activation digests replay exactly
///    against the soak's local registry model.
///
/// # Errors
///
/// I/O errors are returned only for harness failures (reserving node
/// addresses, starting a node); soak failures land in `violations`.
pub fn run_swap_cluster(config: &SwapClusterConfig) -> std::io::Result<SwapClusterReport> {
    let nodes = config.nodes.max(2);
    let swaps = config.swaps.max(4);
    let addrs = reserve_cluster_addrs(nodes)?;
    let mut handles: Vec<Option<ServerHandle>> = (0..nodes)
        .map(|index| start_swap_cluster_node(&addrs, index, config, 0).map(Some))
        .collect::<std::io::Result<_>>()?;
    let admin_addr: SocketAddr = handles[0]
        .as_ref()
        .map(ServerHandle::addr)
        .ok_or_else(|| std::io::Error::other("node 0 did not start"))?;

    // The seeded victim — never node 0, which drives the swaps.
    let salt = (Failpoint::NodeKill.index() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut rng = ChaosRng::new(config.seed ^ salt);
    let victim = 1 + rng.range(nodes as u64 - 1) as usize;

    let mut violations: Vec<String> = Vec::new();
    let mut transcript: Vec<String> = Vec::new();
    let converged_before_kill = wait_settled(&handles, Duration::from_secs(10));
    if !converged_before_kill {
        violations.push("CONVERGENCE: membership never settled before the kill".to_string());
    }

    let mut client = ClusterClient::new(
        &addrs,
        config.replicas,
        &ClientConfig {
            seed: config.seed,
            attempts: 3,
            attempt_timeout: Duration::from_secs(2),
            breaker_threshold: 2,
            breaker_cooldown: 4,
            ..ClientConfig::default()
        },
    );

    let kill_at = swaps / 2;
    let respawn_at = (kill_at + 2).min(swaps);
    let mut model = SpecSnapshot::builtins();
    let mut committed = 0u64;
    let mut admin_id = 2_000_000u64;
    let mut request_id = 0u64;
    let mut oks = 0u64;
    let mut failures = 0u64;
    'swaps: for swap in 1..=swaps {
        let doc = swap_doc(swap);
        // Stage + activate through node 0 (no fault injection in the
        // cluster variant: the chaos here is the node kill itself).
        let mut done = false;
        for _ in 0..10 {
            admin_id += 1;
            let load = format!(
                "{{\"op\":\"admin\",\"action\":\"spec-load\",\"token\":\"{SWAP_TOKEN}\",\
                 \"id\":{admin_id},\"spec\":\"{}\"}}",
                osarch_core::metrics::json_escape(&doc)
            );
            if exchange_once(admin_addr, &load, SWAP_IO_TIMEOUT).is_err() {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            admin_id += 1;
            let activate = format!(
                "{{\"op\":\"admin\",\"action\":\"spec-activate\",\"token\":\"{SWAP_TOKEN}\",\
                 \"name\":\"hot\",\"id\":{admin_id}}}"
            );
            let Ok(reply) = exchange_once(admin_addr, &activate, SWAP_IO_TIMEOUT) else {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            };
            let Some((epoch, digest)) = epoch_and_digest(&reply_result(&reply)) else {
                violations.push(format!(
                    "ADMIN: spec-activate errored: {}",
                    reply.trim_end()
                ));
                break 'swaps;
            };
            match model.with_spec(&doc, epoch) {
                Ok(next) if next.digest() == digest => {
                    model = next;
                    committed += 1;
                    transcript.push(format!("swap {swap}: epoch {epoch} ({digest}) on node 0"));
                }
                Ok(next) => violations.push(format!(
                    "MODEL DIVERGENCE: swap {swap} digest {digest} != model {}",
                    next.digest()
                )),
                Err(reason) => violations.push(format!(
                    "MODEL DIVERGENCE: swap {swap} model rejected the doc: {reason}"
                )),
            }
            done = true;
            break;
        }
        if !done {
            violations.push(format!("ADMIN: swap {swap} never got through node 0"));
            break;
        }
        // The mid-swap kill: immediately after an activation commits on
        // node 0, before gossip can have propagated it — the victim
        // dies holding the *previous* epoch.
        if swap == kill_at {
            if let Some(handle) = handles[victim].take() {
                handle.stop();
            }
            transcript.push(format!(
                "kill: node {victim} ({}) down mid-swap at epoch {}",
                addrs[victim],
                model.epoch()
            ));
        }
        if swap == respawn_at {
            handles[victim] = Some(start_swap_cluster_node(&addrs, victim, config, 1)?);
            transcript.push(format!(
                "respawn: node {victim} back at incarnation 1 (fresh registry, epoch 1)"
            ));
        }
        // One sweep per swap keeps the data plane hot across every
        // phase; R ≥ 2 must keep every key answerable.
        let (sweep_oks, sweep_failures) = cluster_sweep(&mut client, &mut request_id);
        oks += sweep_oks;
        failures += sweep_failures;
        if sweep_failures > 0 {
            violations.push(format!(
                "AVAILABILITY: {sweep_failures} keys unanswered at swap {swap}"
            ));
        }
        std::thread::sleep(Duration::from_millis(config.gossip_ms.max(10)));
    }

    // Every node must converge to the final digest — the survivors via
    // gossip pull, the respawned victim from its fresh epoch 1.
    let final_digest = model.digest();
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut spec_converged = false;
    while Instant::now() < deadline {
        let digests: Vec<String> = handles
            .iter()
            .flatten()
            .map(ServerHandle::registry_digest)
            .collect();
        if digests.len() == nodes && digests.iter().all(|d| *d == final_digest) {
            spec_converged = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    if !spec_converged {
        let digests: Vec<String> = handles
            .iter()
            .flatten()
            .map(ServerHandle::registry_digest)
            .collect();
        violations.push(format!(
            "SPEC CONVERGENCE: ring split across epochs — digests {digests:?}, \
             expected {final_digest} everywhere"
        ));
    }
    let corrupt = client.counters().corrupt;
    if corrupt > 0 {
        violations.push(format!("CORRUPTION: {corrupt} replies failed verification"));
    }
    if oks == 0 {
        violations.push("NO PROGRESS: zero successful requests".to_string());
    }
    for handle in handles.into_iter().flatten() {
        handle.stop();
    }

    Ok(SwapClusterReport {
        addrs,
        victim,
        swaps_committed: committed,
        final_epoch: model.epoch(),
        final_digest,
        oks,
        failures,
        corrupt,
        converged_before_kill,
        spec_converged,
        transcript,
        violations,
    })
}

/// The `osarch chaos` front end: parse `args`, run the soak, print the
/// verdict. `Err` carries a one-line usage error (exit 2 at the caller).
pub fn cli(args: &[String], prog: &str) -> Result<std::process::ExitCode, String> {
    use std::process::ExitCode;
    let mut config = SoakConfig::default();
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut cluster = false;
    let mut cluster_config = ClusterSoakConfig::default();
    let mut swap = false;
    let mut swaps: Option<u64> = None;
    let mut transcript_out: Option<String> = None;
    // The swap soak's defaults differ (lower rate, fewer conns), so
    // remember which knobs the user actually set.
    let mut rate_set = false;
    let mut conns_set = false;
    let mut workers_set = false;
    let mut rest = args.iter();
    let parse = |flag: &str, value: Option<&String>| -> Result<String, String> {
        value
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--seed" => {
                config.seed = parse("--seed", rest.next())?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?;
            }
            "--rate" => {
                config.rate = parse("--rate", rest.next())?
                    .parse()
                    .map_err(|_| "--rate expects a probability in [0,1]".to_string())?;
                if !(0.0..=1.0).contains(&config.rate) {
                    return Err("--rate expects a probability in [0,1]".to_string());
                }
                rate_set = true;
            }
            "--duration" => {
                config.secs = parse("--duration", rest.next())?
                    .parse()
                    .map_err(|_| "--duration expects seconds".to_string())?;
            }
            "--conns" => {
                config.conns = parse("--conns", rest.next())?
                    .parse()
                    .map_err(|_| "--conns expects a positive integer".to_string())?;
                conns_set = true;
            }
            "--workers" => {
                config.workers = parse("--workers", rest.next())?
                    .parse()
                    .map_err(|_| "--workers expects a positive integer".to_string())?;
                workers_set = true;
            }
            "--sample" => {
                config.sample = parse("--sample", rest.next())?
                    .parse()
                    .map_err(|_| "--sample expects an integer divisor (0 disables)".to_string())?;
            }
            "--metrics-addr" => {
                config.metrics_addr = Some(parse("--metrics-addr", rest.next())?);
            }
            "--metrics-out" => metrics_out = Some(parse("--metrics-out", rest.next())?),
            "--trace-out" => trace_out = Some(parse("--trace-out", rest.next())?),
            "--cluster" => cluster = true,
            "--swap" => swap = true,
            "--swaps" => {
                let count: u64 = parse("--swaps", rest.next())?
                    .parse()
                    .map_err(|_| "--swaps expects a positive integer".to_string())?;
                if count == 0 {
                    return Err("--swaps must be at least 1".to_string());
                }
                swaps = Some(count);
            }
            "--transcript-out" => transcript_out = Some(parse("--transcript-out", rest.next())?),
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
            other => {
                return Err(format!(
                    "unknown argument {other:?}\nusage: {prog} [--seed N] [--rate P] \
                     [--duration S] [--conns N] [--workers N] [--sample N] \
                     [--metrics-addr HOST:PORT] [--metrics-out PATH] [--trace-out PATH] \
                     [--cluster [--nodes N] [--replicas R]] \
                     [--swap [--swaps N] [--transcript-out PATH]]"
                ))
            }
        }
    }
    if config.conns == 0 {
        return Err("--conns must be at least 1".to_string());
    }
    if !swap && (swaps.is_some() || transcript_out.is_some()) {
        return Err("--swaps and --transcript-out require --swap".to_string());
    }
    if swap {
        if cluster {
            let mut swap_cluster_config = SwapClusterConfig {
                seed: config.seed,
                nodes: cluster_config.nodes,
                replicas: cluster_config.replicas,
                ..SwapClusterConfig::default()
            };
            if let Some(count) = swaps {
                swap_cluster_config.swaps = count;
            }
            return swap_cluster_cli(&swap_cluster_config, transcript_out.as_deref());
        }
        let mut swap_config = SwapSoakConfig {
            seed: config.seed,
            ..SwapSoakConfig::default()
        };
        if rate_set {
            swap_config.rate = config.rate;
        }
        if conns_set {
            swap_config.conns = config.conns;
        }
        if workers_set {
            swap_config.workers = config.workers;
        }
        if let Some(count) = swaps {
            swap_config.swaps = count;
        }
        return swap_cli(&swap_config, transcript_out.as_deref());
    }
    if cluster {
        cluster_config.seed = config.seed;
        cluster_config.secs = config.secs;
        return cluster_cli(&cluster_config);
    }
    let report = match run(&config) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("chaos soak failed to start: {err}");
            return Ok(ExitCode::FAILURE);
        }
    };
    println!(
        "chaos soak: seed {} rate {} for {:.1}s ({} conns, {} workers)",
        config.seed, config.rate, config.secs, config.conns, config.workers
    );
    println!(
        "schedule ({} planned events over the horizon):",
        report.schedule_total
    );
    for entry in &report.schedule {
        println!("  {:<18} {}", entry.label, entry.planned);
    }
    let r = &report.resilience;
    println!(
        "traffic: {} ok, {} failed | {} injected | retries {} giveups {} \
         breaker_opens {} degraded {}",
        report.oks,
        report.failures,
        report.injected_total,
        r.retries,
        r.giveups,
        r.breaker_opens,
        r.degraded
    );
    println!(
        "error classes: timeout={} conn_reset={} server_error={} breaker_open={}",
        r.timeouts, r.conn_resets, r.server_errors, r.breaker_open
    );
    let (lookups, hits, misses, coalesced, failed) = report.cache;
    println!(
        "server: {} panics contained, {} degraded, {} worker respawns | \
         cache {} lookups = {} hits + {} misses + {} coalesced ({} failed)",
        report.server_panics,
        report.server_degraded,
        report.worker_respawns,
        lookups,
        hits,
        misses,
        coalesced,
        failed
    );
    println!(
        "telemetry: sampling {} | {} chains sampled ({} retained) across {} loops",
        if config.sample == 0 {
            "off".to_string()
        } else {
            format!("1/{}", config.sample)
        },
        report.chains_sampled,
        report.trace_ids_by_loop.iter().map(Vec::len).sum::<usize>(),
        report.trace_ids_by_loop.len()
    );
    if let Some(path) = &metrics_out {
        if let Err(err) = std::fs::write(path, &report.metrics_snapshot) {
            eprintln!("cannot write {path}: {err}");
            return Ok(ExitCode::FAILURE);
        }
        println!("wrote {path} (osarch-metrics/1 snapshot)");
    }
    if let Some(path) = &trace_out {
        if let Err(err) = std::fs::write(path, &report.chrome_trace) {
            eprintln!("cannot write {path}: {err}");
            return Ok(ExitCode::FAILURE);
        }
        println!("wrote {path} (osarch-trace/1 Chrome trace)");
    }
    if report.passed() {
        println!("PASS: all invariants held");
        Ok(ExitCode::SUCCESS)
    } else {
        for violation in &report.violations {
            eprintln!("FAIL: {violation}");
        }
        Ok(ExitCode::FAILURE)
    }
}

/// The `osarch chaos --cluster` verdict printer.
fn cluster_cli(config: &ClusterSoakConfig) -> Result<std::process::ExitCode, String> {
    use std::process::ExitCode;
    let report = match run_cluster(config) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("cluster soak failed to start: {err}");
            return Ok(ExitCode::FAILURE);
        }
    };
    println!(
        "cluster soak: seed {} for {:.1}s ({} nodes, R={}, gossip {}ms)",
        config.seed, config.secs, config.nodes, config.replicas, config.gossip_ms
    );
    println!(
        "kill schedule (node/kill, seeded): victim node {} ({}) dies at t+1/3, \
         respawns at t+2/3 with incarnation {}",
        report.victim, report.addrs[report.victim], report.respawn_incarnation
    );
    println!(
        "traffic: {} ok, {} failed, {} corrupt | sweeps healthy={} dead={} respawned={}",
        report.oks,
        report.failures,
        report.corrupt,
        report.sweeps[0],
        report.sweeps[1],
        report.sweeps[2]
    );
    println!(
        "routing: primary={} failovers={} redirects_followed={}",
        report.routed_primary, report.failovers, report.redirects_followed
    );
    println!(
        "membership: converged_before_kill={} reconverged_after_respawn={}",
        report.converged_before_kill, report.reconverged
    );
    if report.passed() {
        println!("PASS: all invariants held");
        Ok(ExitCode::SUCCESS)
    } else {
        for violation in &report.violations {
            eprintln!("FAIL: {violation}");
        }
        Ok(ExitCode::FAILURE)
    }
}

/// Write the swap transcript (one admin action per line) for artifact
/// upload, with the verdict appended so the file is self-contained.
fn write_transcript(
    path: &str,
    transcript: &[String],
    violations: &[String],
) -> Result<(), String> {
    let mut text = transcript.join("\n");
    text.push('\n');
    if violations.is_empty() {
        text.push_str("PASS: all invariants held\n");
    } else {
        for violation in violations {
            text.push_str(&format!("FAIL: {violation}\n"));
        }
    }
    std::fs::write(path, text).map_err(|err| format!("cannot write {path}: {err}"))
}

/// The `osarch chaos --swap` verdict printer.
fn swap_cli(
    config: &SwapSoakConfig,
    transcript_out: Option<&str>,
) -> Result<std::process::ExitCode, String> {
    use std::process::ExitCode;
    let report = match run_swap(config) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("swap soak failed to start: {err}");
            return Ok(ExitCode::FAILURE);
        }
    };
    println!(
        "swap soak: seed {} rate {} across {} live swaps ({} conns, {} workers)",
        config.seed, config.rate, config.swaps, config.conns, config.workers
    );
    println!(
        "swaps: {} committed, {} auto-rollbacks (corrupt-spec probe), {} explicit, \
         {} mid-swap loop deaths (all respawned)",
        report.swaps_committed,
        report.auto_rollbacks,
        report.explicit_rollbacks,
        report.loop_deaths
    );
    // '.' = committed, 'R' = rolled back — bit-identical on a same-seed
    // rerun, because the stream is a pure function of the seed.
    let stream: String = report
        .rollback_stream
        .iter()
        .map(|rolled| if *rolled { 'R' } else { '.' })
        .collect();
    println!("replay stream: [{stream}] (pure function of --seed)");
    println!(
        "registry: final epoch {} digest {}",
        report.final_epoch, report.final_digest
    );
    println!(
        "traffic: {} ok, {} dropped, {} corrupt | {} epoch samples verified \
         byte-identical ({} degraded)",
        report.oks, report.failures, report.corrupt, report.samples, report.degraded_samples
    );
    for line in &report.transcript {
        println!("  {line}");
    }
    if let Some(path) = transcript_out {
        write_transcript(path, &report.transcript, &report.violations)?;
        println!("wrote {path} (swap transcript)");
    }
    if report.passed() {
        println!("PASS: all invariants held");
        Ok(ExitCode::SUCCESS)
    } else {
        for violation in &report.violations {
            eprintln!("FAIL: {violation}");
        }
        Ok(ExitCode::FAILURE)
    }
}

/// The `osarch chaos --swap --cluster` verdict printer.
fn swap_cluster_cli(
    config: &SwapClusterConfig,
    transcript_out: Option<&str>,
) -> Result<std::process::ExitCode, String> {
    use std::process::ExitCode;
    let report = match run_swap_cluster(config) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("cluster swap soak failed to start: {err}");
            return Ok(ExitCode::FAILURE);
        }
    };
    println!(
        "cluster swap soak: seed {} across {} live swaps ({} nodes, R={}, gossip {}ms)",
        config.seed, config.swaps, config.nodes, config.replicas, config.gossip_ms
    );
    println!(
        "kill schedule (seeded): victim node {} ({}) dies mid-swap, respawns with a \
         fresh registry two swaps later",
        report.victim, report.addrs[report.victim]
    );
    println!(
        "swaps: {} committed via node 0 | registry: final epoch {} digest {}",
        report.swaps_committed, report.final_epoch, report.final_digest
    );
    println!(
        "traffic: {} ok, {} failed, {} corrupt",
        report.oks, report.failures, report.corrupt
    );
    println!(
        "convergence: membership_before_kill={} spec_digest_all_nodes={}",
        report.converged_before_kill, report.spec_converged
    );
    for line in &report.transcript {
        println!("  {line}");
    }
    if let Some(path) = transcript_out {
        write_transcript(path, &report.transcript, &report.violations)?;
        println!("wrote {path} (swap transcript)");
    }
    if report.passed() {
        println!("PASS: all invariants held");
        Ok(ExitCode::SUCCESS)
    } else {
        for violation in &report.violations {
            eprintln!("FAIL: {violation}");
        }
        Ok(ExitCode::FAILURE)
    }
}
