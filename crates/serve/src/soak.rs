//! The chaos soak runner (`osarch chaos`).
//!
//! One [`run`] drives every soak. A [`Scenario`] says what happens: the
//! seed and fault rate, one node or a gossip ring of in-process nodes
//! with R-way replication, the load connections and event loops per
//! node, whether a dropped call is a violation, and an ordered list of
//! [`Phase`]s — load for a time, scrape the metrics listener, kill the
//! seeded victim node, respawn it, swap in the next spec, roll it back.
//! The four built-in soaks are four constructors: [`Scenario::soak`],
//! [`Scenario::cluster`], [`Scenario::swap`] and
//! [`Scenario::swap_cluster`]. A new soak is one more constructor.
//!
//! While the phases run on the calling thread, `conns` background
//! clients sweep the measure key space through shard-aware routing
//! clients (a ring of one for a single node) and, when the scenario
//! swaps, an epoch verifier samples the hot spec on node 0. Every node
//! draws its faults from one deterministic [`ChaosController`]
//! schedule. The runner then checks the invariants that must hold *no
//! matter what the schedule does*:
//!
//! 1. **no corruption** — every reply that reaches a client parses as
//!    JSON and echoes its request id;
//! 2. **no deadlock** — every load thread reports back within the
//!    watchdog after it is told to stop;
//! 3. **no leaked workers** — on every node, event-loop deaths respawn
//!    in place (all loops live while serving, none after shutdown);
//! 4. **degraded replies are flagged** — clients never see more stale
//!    replies than the servers flagged, nor servers more than their
//!    caches served;
//! 5. **single-flight accounting is exact** — on every node, cache
//!    `lookups == hits + misses + coalesced`;
//! 6. **telemetry replays from the seed** — every node samples traces
//!    with the soak seed as its telemetry seed, and every retained
//!    trace id is on its loop's pure id stream;
//! 7. **metrics validate** — a [`Phase::Scrape`] and every node's final
//!    snapshot hold to the `osarch-metrics/2` schema;
//! 8. **zero drops**, when the scenario demands it — no load call fails
//!    after retries and failover;
//! 9. **ring membership** — a ring settles before load starts and, after
//!    a respawn, re-agrees with the victim alive at its new incarnation;
//! 10. **a faithful control plane**, when the scenario swaps — every
//!     admin reply digest (torn replies recovered through `spec-list`),
//!     the final listed digest and every node's registry digest match a
//!     locally replayed registry model; the registry's swap and rollback
//!     counters match the driven sequence; every sampled `measure spec`
//!     payload is byte-identical to its epoch's direct emitter; and the
//!     rollback stream equals the seeded `admin/corrupt-spec` stream.
//!
//! The reproducible artifacts are pure functions of the seed: the
//! planned schedule (per-failpoint event counts, see
//! [`ChaosController::schedule_events`]), the victim, the rollback
//! stream, the final registry digest and the transcript (one line per
//! admin action, kill and respawn). Injected counts, traffic and lost
//! replies depend on thread interleaving and vary run to run.

use crate::client::{ClientConfig, ClientCounters, ClusterClient, RouteCounters};
use crate::loadgen::key_space;
use crate::protocol::{exchange_line, Query};
use crate::registry::SpecSnapshot;
use crate::server::{reserve_loopback_addrs, ClusterConfig, Server, ServerConfig, ServerHandle};
use osarch_chaos::{ChaosConfig, ChaosController, Failpoint};
use osarch_core::json::{self, Value};
use osarch_core::metrics::validate_metrics_snapshot;
use osarch_core::names::{Args, Synopsis};
use osarch_telemetry::TelemetryHub;
use osarch_trace::{SplitMix64, GAMMA};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Cache shards per node.
const SHARDS: usize = 16;

/// Gossip anti-entropy cadence in a ring — also the spec-digest
/// propagation path.
const GOSSIP: Duration = Duration::from_millis(50);

/// The admin token every node runs with (the soak owns both ends of the
/// connection, so the value only has to be non-empty).
const TOKEN: &str = "swap-soak-admin-token";

/// Per-exchange timeout for admin, verifier and scrape connections.
const IO_TIMEOUT: Duration = Duration::from_secs(3);

/// How long a load thread may take to report once told to stop.
const WATCHDOG: Duration = Duration::from_secs(60);

/// How long a ring may take to agree: on membership before the first
/// phase and after a respawn, and on the spec digest at the end.
const SETTLE: Duration = Duration::from_secs(20);

/// What one soak does. Start from a constructor and adjust with struct
/// update syntax: `Scenario { conns: 4, ..Scenario::soak(42, secs) }`.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Seed for the fault schedule, the victim, the rollback stream,
    /// every client's jitter stream and every node's trace ids.
    pub seed: u64,
    /// Fault probability per failpoint draw; 0 injects nothing.
    pub rate: f64,
    /// In-process nodes; more than one form a gossip ring.
    pub nodes: usize,
    /// Replication factor R of a ring.
    pub replicas: usize,
    /// Background load connections.
    pub conns: u32,
    /// Event loops per node.
    pub workers: usize,
    /// Trace one request in `sample` per event loop on every node (0
    /// turns tracing off). Every built-in samples 1 in 64.
    pub sample: u64,
    /// Bind node 0's metrics scrape listener here; without one a
    /// [`Phase::Scrape`] is a violation.
    pub metrics_addr: Option<String>,
    /// Whether a load call that fails after retries and failover is a
    /// violation. It also sets how patient both ends are: a 2 s server
    /// deadline, and on a lone node 10 client attempts with no breaker
    /// and no client-side faults. A scenario that tolerates drops runs a
    /// 50 ms deadline that injected compute delays overrun, and 3
    /// attempts under client-side faults.
    pub zero_drops: bool,
    /// What happens, in order.
    pub phases: Vec<Phase>,
}

/// One step of a [`Scenario`], run on the driving thread while the load
/// runs in the background.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Let the load run this long.
    Load(Duration),
    /// Scrape node 0's metrics listener and validate the snapshot.
    Scrape,
    /// Stop the seeded victim node outright: its listener closes and
    /// every in-flight connection drops.
    Kill,
    /// Restart the victim at a higher incarnation with a fresh registry;
    /// a ring must re-agree on membership.
    Respawn,
    /// Stage and activate the next `hot` spec through node 0's admin
    /// plane.
    Swap,
    /// Roll node 0's registry back to its last-good content.
    Rollback,
}

impl Scenario {
    /// The plain chaos soak: fault-injecting clients against one
    /// fault-injected node for `load`, with a scrape of an ephemeral
    /// metrics listener halfway.
    #[must_use]
    pub fn soak(seed: u64, load: Duration) -> Scenario {
        Scenario {
            seed,
            rate: 0.2,
            nodes: 1,
            replicas: 1,
            conns: 8,
            workers: 4,
            sample: 64,
            metrics_addr: Some("127.0.0.1:0".to_string()),
            zero_drops: false,
            phases: vec![Phase::Load(load / 2), Phase::Scrape, Phase::Load(load / 2)],
        }
    }

    /// The node-kill soak: a three-node ring (R=2) under load for a
    /// third of `load`, a third with its seeded victim dead, and a third
    /// after the victim respawns. R ≥ 2 must keep every key answerable.
    /// Each third lasts at least one full key-space sweep.
    #[must_use]
    pub fn cluster(seed: u64, load: Duration) -> Scenario {
        let third = Phase::Load(load / 3);
        Scenario {
            seed,
            rate: 0.0,
            nodes: 3,
            replicas: 2,
            conns: 1,
            workers: 2,
            sample: 64,
            metrics_addr: None,
            zero_drops: true,
            phases: vec![third, Phase::Kill, third, Phase::Respawn, third],
        }
    }

    /// The live-swap soak: `swaps` activations on one node under full
    /// fault injection, with one explicit rollback after the middle one.
    /// The rate is low enough that patient retries absorb every fault.
    #[must_use]
    pub fn swap(seed: u64, swaps: u64) -> Scenario {
        let mut phases = Vec::new();
        for swap in 1..=swaps {
            phases.push(Phase::Swap);
            if swap == swaps / 2 {
                phases.push(Phase::Rollback);
            }
            // Let the data plane sample this epoch before the next swap.
            phases.push(Phase::Load(Duration::from_millis(25)));
        }
        Scenario {
            seed,
            rate: 0.08,
            nodes: 1,
            replicas: 1,
            conns: 4,
            workers: 4,
            sample: 64,
            metrics_addr: None,
            zero_drops: true,
            phases,
        }
    }

    /// The ring variant of [`Scenario::swap`]: `swaps` activations
    /// through node 0 of a three-node ring, the victim killed right after
    /// the middle activation commits (before gossip can spread it) and
    /// respawned two swaps later with a fresh epoch-1 registry.
    #[must_use]
    pub fn swap_cluster(seed: u64, swaps: u64) -> Scenario {
        let kill = (swaps / 2).max(1);
        let respawn = (kill + 2).min(swaps);
        let mut phases = Vec::new();
        for swap in 1..=swaps {
            phases.push(Phase::Swap);
            if swap == kill {
                phases.push(Phase::Kill);
            }
            if swap == respawn {
                phases.push(Phase::Respawn);
            }
            phases.push(Phase::Load(GOSSIP));
        }
        Scenario {
            seed,
            rate: 0.0,
            nodes: 3,
            replicas: 2,
            conns: 1,
            workers: 2,
            sample: 64,
            metrics_addr: None,
            zero_drops: true,
            phases,
        }
    }

    fn swaps(&self) -> bool {
        self.phases
            .iter()
            .any(|phase| matches!(phase, Phase::Swap | Phase::Rollback))
    }

    /// Client patience; see [`Scenario::zero_drops`]. In a ring a call's
    /// patience is failover to another replica, so each node's client
    /// gives up fast and its breaker opens early, steering calls off a
    /// dead node. On a lone node it is retries, and a breaker that opens
    /// sheds calls, which only a scenario that tolerates drops affords.
    fn client_config(&self, seed: u64) -> ClientConfig {
        let (attempts, breaker_threshold) = match (self.nodes > 1, self.zero_drops) {
            (true, _) => (3, 2),
            (false, false) => (3, 8),
            (false, true) => (10, u32::MAX),
        };
        ClientConfig {
            seed,
            attempts,
            attempt_timeout: Duration::from_millis(if self.zero_drops { 2000 } else { 800 }),
            backoff_base: Duration::from_micros(200),
            backoff_max: Duration::from_millis(if self.zero_drops { 20 } else { 10 }),
            breaker_threshold,
            breaker_cooldown: 4,
        }
    }
}

/// Everything a soak observed. Server-side counts sum over every node
/// that ran, a killed node's counted when it died.
#[derive(Debug, Clone, Default)]
pub struct SoakReport {
    /// Planned injections per failpoint label over the schedule horizon
    /// — a pure function of the seed and rate.
    pub schedule: Vec<(&'static str, u64)>,
    /// Sum of planned injections over the horizon.
    pub schedule_total: u64,
    /// Faults actually injected this run (interleaving-dependent).
    pub injected_total: u64,
    /// Load calls answered ok.
    pub oks: u64,
    /// Load calls that failed after retries and failover.
    pub failures: u64,
    /// Full key-space sweeps run entirely inside each segment: before
    /// the first kill, then between each kill and respawn boundary.
    pub sweeps: Vec<u64>,
    /// Merged client tallies; `corrupt` includes the epoch verifier's.
    pub resilience: ClientCounters,
    /// Calls answered by the key's primary replica.
    pub routed_primary: u64,
    /// Attempts that failed over to another replica.
    pub failovers: u64,
    /// `not_owner` redirects the routing clients followed.
    pub redirects_followed: u64,
    /// Panics contained by per-request isolation.
    pub server_panics: u64,
    /// Degraded (stale-on-error) replies served.
    pub server_degraded: u64,
    /// Event loops respawned after an injected death.
    pub worker_respawns: u64,
    /// Cache counters: lookups, hits, misses, coalesced, failed.
    pub cache: [u64; 5],
    /// Node 0's sampled span chains over its lifetime.
    pub chains_sampled: u64,
    /// Node 0's retained trace ids per loop, in completion order — each
    /// list a subset of the loop's seeded id stream.
    pub trace_ids_by_loop: Vec<Vec<u64>>,
    /// Node 0's final `osarch-metrics/2` snapshot.
    pub metrics_snapshot: String,
    /// Node 0's sampled requests as an `osarch-trace/1` Chrome trace.
    pub chrome_trace: String,
    /// The seeded victim node.
    pub victim: usize,
    /// Whether ring membership settled before the first phase.
    pub converged_before_kill: bool,
    /// Whether ring membership re-agreed after the last respawn, with
    /// the victim alive at its new incarnation.
    pub reconverged: bool,
    /// Whether every live node converged to the model's final digest.
    pub spec_converged: bool,
    /// Activations that committed and survived the probe.
    pub swaps_committed: u64,
    /// Activations the injected `admin/corrupt-spec` fault rolled back.
    pub auto_rollbacks: u64,
    /// Explicit `spec-rollback` calls.
    pub explicit_rollbacks: u64,
    /// Admin replies torn by a fault and recovered (interleaving-
    /// dependent, like `injected_total`).
    pub lost_replies: u64,
    /// Node 0's registry epoch after the last phase.
    pub final_epoch: u64,
    /// Node 0's registry digest after the last phase.
    pub final_digest: String,
    /// Epoch-tagged `measure spec` samples the verifier captured.
    pub samples: u64,
    /// Of those, degraded (stale last-good) replies.
    pub degraded_samples: u64,
    /// Per-activation outcomes in order (`true` = rolled back).
    pub rollback_stream: Vec<bool>,
    /// One line per admin action, kill and respawn.
    pub transcript: Vec<String>,
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

/// Run one scenario and check every invariant. The report's
/// `violations` list is the verdict.
///
/// # Errors
///
/// I/O errors are returned only when a node fails to start at the
/// outset; every later failure lands in `violations`.
pub fn run(scenario: &Scenario) -> std::io::Result<SoakReport> {
    // Injected panics are expected: keep them off stderr, but let any
    // unexpected panic through. The guard also serializes concurrent
    // soaks (the hook is process-global).
    let _quiet = osarch_chaos::QuietChaosPanics::install();
    let s = scenario;
    let chaos = Arc::new(ChaosController::new(ChaosConfig {
        seed: s.seed,
        rate: s.rate,
        ..ChaosConfig::default()
    }));
    // The schedule is computed before any thread starts: it depends
    // only on the seed and rate, never on the run.
    let mut report = SoakReport {
        schedule: Failpoint::ALL
            .iter()
            .map(|&fp| (fp.label(), chaos.schedule_events(fp)))
            .collect(),
        schedule_total: chaos.schedule_total(),
        ..SoakReport::default()
    };

    let mut nodes = Nodes {
        scenario: s,
        chaos: (s.rate > 0.0).then(|| Arc::clone(&chaos)),
        addrs: if s.nodes > 1 {
            reserve_loopback_addrs(s.nodes)?
        } else {
            vec!["127.0.0.1:0".to_string()]
        },
        handles: Vec::new(),
    };
    for index in 0..s.nodes {
        let handle = nodes.start(index, 0)?;
        nodes.handles.push(Some(handle));
    }
    // Dial the bound ports from here on (a lone node binds an ephemeral
    // one); a respawn rebinds its node's port.
    nodes.addrs = nodes
        .handles
        .iter()
        .flatten()
        .map(|h| h.addr().to_string())
        .collect();
    let admin_addr = nodes.handles[0]
        .as_ref()
        .map(ServerHandle::addr)
        .expect("node 0 started");

    // The seeded victim, salted by the node/kill failpoint index the way
    // the fault schedule salts its draws. A scenario that swaps never
    // kills node 0, which drives the admin plane.
    let spare = usize::from(s.swaps() && s.nodes > 1);
    let salt = (Failpoint::NodeKill.index() as u64).wrapping_mul(GAMMA);
    let mut rng = SplitMix64::new((s.seed ^ salt).wrapping_add(GAMMA));
    report.victim = spare + rng.range((s.nodes - spare) as u64) as usize;

    report.converged_before_kill = s.nodes == 1 || wait_until(SETTLE, || settled(&nodes.handles));
    if !report.converged_before_kill {
        report
            .violations
            .push("CONVERGENCE: membership never settled before the load started".to_string());
    }

    // Background load. Each thread reports over the channel; the
    // watchdog receive below is the deadlock detector.
    let segments = 1 + s
        .phases
        .iter()
        .filter(|phase| matches!(phase, Phase::Kill | Phase::Respawn))
        .count();
    let load = Arc::new(Load {
        stop: AtomicBool::new(false),
        segment: AtomicUsize::new(0),
        sweeps: (0..segments).map(|_| AtomicU64::new(0)).collect(),
        failures: (0..segments).map(|_| AtomicU64::new(0)).collect(),
    });
    let (tx, rx) = mpsc::channel();
    let mut threads = Vec::new();
    for conn in 0..s.conns {
        let seed = s.seed ^ (u64::from(conn) + 1).wrapping_mul(GAMMA);
        let mut client = ClusterClient::new(&nodes.addrs, s.replicas, &s.client_config(seed));
        if !s.zero_drops {
            if let Some(chaos) = &nodes.chaos {
                client = client.with_chaos(chaos);
            }
        }
        let (tx, load) = (tx.clone(), Arc::clone(&load));
        threads.push(std::thread::spawn(move || {
            // A dropped receiver means the watchdog already gave up.
            let _ = tx.send(load_client(client, &load));
        }));
    }
    drop(tx);
    let verifier = s.swaps().then(|| {
        let load = Arc::clone(&load);
        std::thread::spawn(move || swap_verifier(admin_addr, &load.stop))
    });

    let mut admin = Admin {
        addr: admin_addr,
        next_id: 1_000_000,
        model: SwapModel::new(),
        swaps: 0,
    };
    // A kill, a respawn and the end of a run with either first wait for
    // the segment they end to hold a full sweep, so the zero-drop check
    // has asked every key in each topology. The segment turns once the
    // victim is down, and before it is back.
    let victim = report.victim;
    let mut incarnation = 0;
    let outcome = s.phases.iter().try_for_each(|phase| match *phase {
        Phase::Load(time) => {
            std::thread::sleep(time);
            Ok(())
        }
        Phase::Scrape => nodes.scrape(),
        Phase::Kill => load.await_full_sweep().map(|()| {
            if let Some(handle) = nodes.handles[victim].take() {
                retire(handle, victim, s.workers, &mut report);
            }
            load.segment.fetch_add(1, Ordering::SeqCst);
            report.transcript.push(format!(
                "kill: node {victim} down at epoch {}",
                admin.model.active.epoch()
            ));
        }),
        Phase::Respawn => load.await_full_sweep().and_then(|()| {
            load.segment.fetch_add(1, Ordering::SeqCst);
            incarnation += 1;
            nodes.respawn(victim, incarnation, &mut report)
        }),
        Phase::Swap => admin.swap(&mut report),
        Phase::Rollback => admin.rollback(&mut report),
    });
    let outcome = outcome.and_then(|()| {
        if segments > 1 {
            load.await_full_sweep()
        } else {
            Ok(())
        }
    });
    if let Err(violation) = outcome {
        report.violations.push(violation);
    }

    if s.swaps() {
        admin.check_final_state(&nodes.handles, &mut report);
    }

    // Wind down the load and collect its tallies.
    load.stop.store(true, Ordering::Relaxed);
    let mut counters = ClientCounters::default();
    let mut deadlocked = false;
    for _ in 0..s.conns {
        match rx.recv_timeout(WATCHDOG) {
            Ok((conn_counters, routes)) => {
                counters.accumulate(&conn_counters);
                report.routed_primary += routes.routed_primary;
                report.failovers += routes.failovers;
                report.redirects_followed += routes.redirects_followed;
            }
            Err(_) => {
                report.violations.push(format!(
                    "DEADLOCK: a load thread failed to report within {WATCHDOG:?}"
                ));
                deadlocked = true;
                break;
            }
        }
    }
    // Only join what finished; a deadlocked thread would block forever.
    if !deadlocked {
        for thread in threads {
            let _ = thread.join();
        }
    }
    let (samples, verifier_corrupt) = match verifier.map(std::thread::JoinHandle::join) {
        None => (Vec::new(), 0),
        Some(Ok((samples, degraded, mismatches))) => {
            report.degraded_samples = degraded;
            (samples, mismatches)
        }
        Some(Err(_)) => {
            report
                .violations
                .push("DEADLOCK: the verifier thread panicked".to_string());
            (Vec::new(), 0)
        }
    };
    counters.corrupt += verifier_corrupt;
    report.oks = counters.oks;
    report.resilience = counters;
    report.sweeps = load
        .sweeps
        .iter()
        .map(|n| n.load(Ordering::Relaxed))
        .collect();
    let failures: Vec<u64> = load
        .failures
        .iter()
        .map(|n| n.load(Ordering::Relaxed))
        .collect();
    report.failures = failures.iter().sum();
    report.injected_total = chaos.injected_total();
    for (index, handle) in nodes.handles.into_iter().enumerate() {
        if let Some(handle) = handle {
            retire(handle, index, s.workers, &mut report);
        }
    }

    let r = &mut report;
    if r.resilience.corrupt > 0 {
        r.violations.push(format!(
            "CORRUPTION: {} replies failed verification",
            r.resilience.corrupt
        ));
    }
    // Some stale replies are torn in flight by write faults and never
    // reach a client, so clients may see fewer than the servers flagged.
    if r.resilience.degraded > r.server_degraded {
        r.violations.push(format!(
            "UNFLAGGED DEGRADATION: clients saw {} degraded replies, servers served {}",
            r.resilience.degraded, r.server_degraded
        ));
    }
    if r.oks == 0 {
        r.violations
            .push("NO PROGRESS: zero successful requests".to_string());
    }
    if s.zero_drops && r.failures > 0 {
        r.violations.push(format!(
            "DROPPED REQUESTS: {} calls failed after retries (by segment: {failures:?})",
            r.failures
        ));
    }
    if s.swaps() {
        r.samples = samples.len() as u64;
        check_epochs(&admin.model, &samples, &mut r.violations);
        // The rollback stream replays from the seed: it must equal a
        // fresh controller's corrupt-spec decision stream.
        let fresh = ChaosController::new(ChaosConfig {
            seed: s.seed,
            rate: s.rate,
            ..ChaosConfig::default()
        });
        let pure: Vec<bool> = r
            .rollback_stream
            .iter()
            .map(|_| fresh.should_inject(Failpoint::CorruptSpec))
            .collect();
        if r.rollback_stream != pure {
            r.violations.push(format!(
                "REPLAY: observed rollback stream {:?} != seeded stream {pure:?}",
                r.rollback_stream
            ));
        }
        // The charter includes the rollback path; a schedule that never
        // exercises it is a configuration failure, not a pass.
        if s.rate > 0.0 && r.auto_rollbacks == 0 {
            r.violations.push(
                "ROLLBACK PATH UNEXERCISED: the seeded schedule planned no corrupt-spec \
                 fault; pick another --seed or raise --rate"
                    .to_string(),
            );
        }
    }
    Ok(report)
}

/// State the load threads share with the driving thread.
struct Load {
    stop: AtomicBool,
    /// Index of the running segment; every kill and respawn starts one.
    /// `SeqCst`: a sweep that reads a new index must start after the
    /// kill or respawn that preceded the bump.
    segment: AtomicUsize,
    /// Full sweeps run inside, and calls failed during, each segment.
    sweeps: Vec<AtomicU64>,
    failures: Vec<AtomicU64>,
}

impl Load {
    /// Wait until the running segment holds a full sweep.
    fn await_full_sweep(&self) -> Result<(), String> {
        let segment = self.segment.load(Ordering::SeqCst);
        if wait_until(WATCHDOG, || {
            self.sweeps[segment].load(Ordering::Relaxed) > 0
        }) {
            Ok(())
        } else {
            Err(format!(
                "COVERAGE: no full key-space sweep ran in segment {segment} within {WATCHDOG:?}"
            ))
        }
    }
}

/// One load connection: full sweeps of the measure key space through a
/// routing client until told to stop. Every reply is JSON/id-verified.
fn load_client(mut client: ClusterClient, load: &Load) -> (ClientCounters, RouteCounters) {
    let mut request_id = 0u64;
    'run: loop {
        let segment = load.segment.load(Ordering::SeqCst);
        for (arch, primitive) in key_space() {
            if load.stop.load(Ordering::Relaxed) {
                break 'run;
            }
            request_id += 1;
            let id_token = request_id.to_string();
            let line = format!(
                "{{\"op\":\"measure\",\"arch\":\"{arch}\",\"primitive\":\"{}\",\"id\":{id_token}}}",
                primitive.tag()
            );
            let key = Query::Measure { arch, primitive }
                .routing_key()
                .expect("a measure query has a routing key");
            if client.call(&key, &line, &id_token).is_err() {
                load.failures[load.segment.load(Ordering::SeqCst)].fetch_add(1, Ordering::Relaxed);
            }
        }
        // A sweep counts only where it asked every key in one topology.
        if load.segment.load(Ordering::SeqCst) == segment {
            load.sweeps[segment].fetch_add(1, Ordering::Relaxed);
        }
    }
    (client.counters(), client.route_counters())
}

/// The nodes a scenario runs on, and how to start one.
struct Nodes<'a> {
    scenario: &'a Scenario,
    chaos: Option<Arc<ChaosController>>,
    addrs: Vec<String>,
    handles: Vec<Option<ServerHandle>>,
}

impl Nodes<'_> {
    fn start(&self, index: usize, incarnation: u64) -> std::io::Result<ServerHandle> {
        let s = self.scenario;
        // See `Scenario::zero_drops`: a tight deadline and write timeout
        // exercise the error paths; a patient one must never hard-drop.
        let patience = Duration::from_millis(if s.zero_drops { 2000 } else { 50 });
        Server::start(&ServerConfig {
            addr: self.addrs[index].clone(),
            workers: s.workers,
            shards: SHARDS,
            queue_depth: (s.conns as usize * 4).max(64),
            deadline: patience,
            write_timeout: patience.max(Duration::from_millis(500)),
            sample_every: s.sample,
            telemetry_seed: s.seed,
            metrics_addr: (index == 0).then(|| s.metrics_addr.clone()).flatten(),
            chaos: self.chaos.clone(),
            cluster: (s.nodes > 1).then(|| ClusterConfig {
                self_addr: self.addrs[index].clone(),
                peers: self.addrs.clone(),
                replicas: s.replicas,
                incarnation,
                gossip_interval: GOSSIP,
                ..ClusterConfig::default()
            }),
            admin_token: Some(TOKEN.to_string()),
            ..ServerConfig::default()
        })
    }

    /// Restart the victim at `incarnation` (gossip revives it over any
    /// `down` rumour) and, in a ring, require membership to re-agree.
    fn respawn(
        &mut self,
        victim: usize,
        incarnation: u64,
        report: &mut SoakReport,
    ) -> Result<(), String> {
        let handle = self
            .start(victim, incarnation)
            .map_err(|err| format!("RESPAWN: node {victim} failed to start: {err}"))?;
        self.handles[victim] = Some(handle);
        report.transcript.push(format!(
            "respawn: node {victim} back at incarnation {incarnation} (fresh registry, epoch 1)"
        ));
        if self.scenario.nodes > 1 {
            report.reconverged = wait_until(SETTLE, || settled(&self.handles))
                && victim_incarnation(&self.handles, &self.addrs[victim])
                    .is_some_and(|seen| seen >= incarnation);
            if !report.reconverged {
                return Err(format!(
                    "RECONVERGENCE: membership did not re-agree with node {victim} back at \
                     incarnation {incarnation}"
                ));
            }
        }
        Ok(())
    }

    /// Hit node 0's scrape listener while faults are flying and hold the
    /// document to the schema.
    fn scrape(&self) -> Result<(), String> {
        let addr = self.handles[0]
            .as_ref()
            .and_then(ServerHandle::metrics_addr)
            .ok_or("METRICS: node 0 is down or has no scrape listener")?;
        let body = scrape_metrics_json(addr)
            .map_err(|err| format!("METRICS: mid-run scrape failed: {err}"))?;
        validate_metrics_snapshot(&body)
            .map_err(|reason| format!("METRICS: mid-run snapshot rejected: {reason}"))
    }
}

/// Stop one node, check its per-node invariants and fold its counts
/// into the report. Node 0's telemetry exports become the report's.
fn retire(handle: ServerHandle, node: usize, workers: usize, report: &mut SoakReport) {
    let (hub, cache) = (handle.telemetry(), handle.cache());
    let violations = &mut report.violations;
    let live = hub.workers_live();
    if live != workers as u64 {
        violations.push(format!(
            "LEAKED WORKER: node {node}: {live} of {workers} workers live before shutdown"
        ));
    }
    let snapshot = handle.metrics_snapshot_json();
    if let Err(reason) = validate_metrics_snapshot(&snapshot) {
        violations.push(format!(
            "METRICS: node {node} final snapshot rejected: {reason}"
        ));
    }
    handle.stop();
    let live = hub.workers_live();
    if live != 0 {
        violations.push(format!(
            "LEAKED WORKER: node {node}: {live} live after stop"
        ));
    }
    // A stopped node's counts are final, so these identities hold
    // exactly even for a node killed under load.
    let (hits, misses, coalesced) = (cache.hits(), cache.misses(), cache.coalesced());
    let (lookups, failed, cache_degraded) = (cache.lookups(), cache.failed(), cache.degraded());
    if lookups != hits + misses + coalesced {
        violations.push(format!(
            "SINGLE-FLIGHT ACCOUNTING: node {node}: {lookups} lookups != {hits} hits + \
             {misses} misses + {coalesced} coalesced"
        ));
    }
    let totals = hub.totals();
    if totals.degraded > cache_degraded {
        violations.push(format!(
            "DEGRADED MISCOUNT: node {node}: server {} > cache {cache_degraded}",
            totals.degraded
        ));
    }
    let chains = hub.chains();
    let mut ids_by_loop = vec![Vec::new(); workers];
    for chain in &chains {
        if let Some(ids) = ids_by_loop.get_mut(chain.loop_index) {
            ids.push(chain.trace_id);
        }
    }
    for (loop_index, ids) in ids_by_loop.iter().enumerate() {
        if let Some(missing) = first_id_off_stream(&hub, loop_index, ids) {
            violations.push(format!(
                "TRACE REPLAY: node {node} loop {loop_index} id {missing:#018x} is not on \
                 the seeded id stream"
            ));
        }
    }
    report.server_panics += totals.panics;
    report.server_degraded += totals.degraded;
    report.worker_respawns += totals.worker_respawns;
    for (sum, count) in report
        .cache
        .iter_mut()
        .zip([lookups, hits, misses, coalesced, failed])
    {
        *sum += count;
    }
    if node == 0 {
        report.chains_sampled = hub.chains_sampled();
        report.chrome_trace = osarch_core::metrics::serve_chains_chrome_json(&chains);
        report.trace_ids_by_loop = ids_by_loop;
        report.metrics_snapshot = snapshot;
    }
}

/// Poll `done` every 20 ms for up to `patience`.
fn wait_until(patience: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + patience;
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    true
}

/// All live nodes' membership digests agree and carry no suspect/down
/// rumours.
fn settled(handles: &[Option<ServerHandle>]) -> bool {
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

/// The victim's incarnation as a live node sees it, when alive.
fn victim_incarnation(handles: &[Option<ServerHandle>], victim_addr: &str) -> Option<u64> {
    let digest = handles.iter().flatten().next()?.membership_digest()?;
    digest.split(';').find_map(|entry| {
        let rest = entry.strip_prefix(victim_addr)?.strip_prefix('=')?;
        let (incarnation, status) = rest.split_once('/')?;
        (status == "alive").then(|| incarnation.parse().ok())?
    })
}

/// Check every observed trace id against one loop's seeded id stream;
/// returns an id that falls off the stream (`None` means the replay
/// invariant holds). Membership, not order: chains complete in reply
/// order, which pipelining decouples from id-draw order. The scan
/// horizon is generous — two draws per sampled request, bounded far
/// above any soak's volume.
fn first_id_off_stream(hub: &TelemetryHub, loop_index: usize, observed: &[u64]) -> Option<u64> {
    const HORIZON: u64 = 4_000_000;
    let mut pending: HashSet<u64> = observed.iter().copied().collect();
    let mut stream = hub.ids_for(loop_index);
    for _ in 0..HORIZON {
        if pending.is_empty() {
            return None;
        }
        pending.remove(&stream.next_id());
    }
    pending.into_iter().next()
}

/// One HTTP/1.0 GET against the scrape listener's JSON path, returning
/// the response body.
fn scrape_metrics_json(addr: SocketAddr) -> std::io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(b"GET /metrics/json HTTP/1.0\r\nConnection: close\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((_, body)) if !body.is_empty() => Ok(body.to_string()),
        _ => Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "scrape response carried no body",
        )),
    }
}

/// The candidate document for activation `index`: the first builtin
/// re-based with a distinct clock, named `hot`. Distinct clocks give
/// every activation distinct content (and so a distinct digest).
fn swap_doc(index: u64) -> String {
    let mut spec = osarch_cpu::Arch::all()[0].spec();
    spec.clock_mhz = 20.0 + index as f64;
    spec.to_json("hot")
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

/// A local mirror of the server's registry state machine: the soak
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

/// Node 0's admin plane as the soak drives it, mirrored in the model.
/// Each action leaves one transcript line, `epoch (digest)`, whether its
/// reply arrived or was torn and recovered through `spec-list`. Every
/// action dials afresh, so a lost reply never leaves a half-read buffer
/// behind: its outcome is unknown, and the registry state settles it.
struct Admin {
    addr: SocketAddr,
    next_id: u64,
    model: SwapModel,
    /// Activations driven so far.
    swaps: u64,
}

impl Admin {
    /// One admin request line; `extra` carries the action's own fields.
    fn request(&mut self, action: &str, extra: &str) -> String {
        self.next_id += 1;
        format!(
            "{{\"op\":\"admin\",\"action\":\"{action}\",\"token\":\"{TOKEN}\",\"id\":{}{extra}}}",
            self.next_id
        )
    }

    /// The authoritative `(epoch, digest)` via `spec-list`, retried
    /// through injected connection faults.
    fn list(&mut self) -> Result<(u64, String), String> {
        for _ in 0..100 {
            let line = self.request("spec-list", "");
            let reply = exchange_line(self.addr, &line, IO_TIMEOUT, IO_TIMEOUT).ok();
            if let Some(state) = reply.and_then(|reply| epoch_and_digest(&reply_result(&reply))) {
                return Ok(state);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("RECOVERY: spec-list never answered through the fault schedule".to_string())
    }

    /// Stage (idempotent, so a lost reply just retries) and activate the
    /// next spec, resolving a lost activation reply against `spec-list`.
    fn swap(&mut self, report: &mut SoakReport) -> Result<(), String> {
        self.swaps += 1;
        let swap = self.swaps;
        let doc = swap_doc(swap);
        let spec = format!(",\"spec\":\"{}\"", osarch_core::metrics::json_escape(&doc));
        let mut staged = false;
        for _ in 0..50 {
            let line = self.request("spec-load", &spec);
            match exchange_line(self.addr, &line, IO_TIMEOUT, IO_TIMEOUT) {
                Ok(reply) if reply_result(&reply)["staged"].as_str() == Some("hot") => {
                    staged = true;
                    break;
                }
                Ok(reply) => return Err(format!("ADMIN: spec-load refused: {}", reply.trim_end())),
                Err(_) => {
                    report.lost_replies += 1;
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        if !staged {
            return Err(format!("ADMIN: swap {swap} spec-load never got through"));
        }
        for _ in 0..10 {
            let line = self.request("spec-activate", ",\"name\":\"hot\"");
            let reply = exchange_line(self.addr, &line, IO_TIMEOUT, IO_TIMEOUT);
            let (rolled_back, epoch, digest) = match reply {
                Ok(reply) => {
                    let payload = reply_result(&reply);
                    let (Some(activated), Some((epoch, digest))) =
                        (payload["activated"].as_bool(), epoch_and_digest(&payload))
                    else {
                        return Err(format!("ADMIN: spec-activate failed: {}", reply.trim_end()));
                    };
                    let modelled = if activated {
                        self.model.apply_success(&doc, epoch)
                    } else {
                        self.model.apply_auto_rollback(&doc, epoch)
                    }
                    .map_err(|e| format!("MODEL DIVERGENCE: swap {swap} model rejected it: {e}"))?;
                    if modelled != digest {
                        return Err(format!(
                            "MODEL DIVERGENCE: swap {swap} reply digest {digest} != model \
                             {modelled}"
                        ));
                    }
                    (!activated, epoch, digest)
                }
                Err(_) => {
                    report.lost_replies += 1;
                    match self.resolve_lost_swap(&doc)? {
                        Some(outcome) => outcome,
                        None => continue,
                    }
                }
            };
            if rolled_back {
                report.auto_rollbacks += 1;
            } else {
                report.swaps_committed += 1;
            }
            report.rollback_stream.push(rolled_back);
            report.transcript.push(format!(
                "swap {swap}: {} at epoch {epoch} ({digest})",
                if rolled_back {
                    "rolled back"
                } else {
                    "activated"
                }
            ));
            return Ok(());
        }
        Err(format!("ADMIN: swap {swap} never settled"))
    }

    /// Resolve a lost `spec-activate` reply: match the listed digest
    /// against the model's two possible successors. The content hash
    /// disambiguates — a digest is `{epoch}:{content hash}` and the hash
    /// is epoch-independent. `None` means the request never reached the
    /// registry; otherwise whether it rolled back, at the listed state.
    fn resolve_lost_swap(&mut self, doc: &str) -> Result<Option<(bool, u64, String)>, String> {
        let (epoch, digest) = self.list()?;
        let model = &mut self.model;
        let before = model.active.epoch();
        if epoch == before && digest == model.active.digest() {
            return Ok(None);
        }
        if epoch <= before {
            return Err(format!(
                "RECOVERY: saw epoch {epoch} at digest {digest}, not newer than {before}"
            ));
        }
        let committed = model
            .active
            .with_spec(doc, epoch)
            .map_err(|e| format!("RECOVERY: could not rebuild the candidate: {e}"))?
            .digest()
            == digest;
        if !committed && model.active.at_epoch(epoch).digest() != digest {
            return Err(format!(
                "RECOVERY: saw digest {digest} at epoch {epoch}, matching neither the \
                 candidate nor the prior content"
            ));
        }
        // Epochs the lost swap may have served in passing accept both the
        // candidate and the prior content (a rollback's candidate epoch
        // is noted by the model update itself).
        let gaps = before + 1..if committed { epoch } else { epoch - 1 };
        for gap in gaps {
            if let Ok(snap) = model.active.with_spec(doc, gap) {
                model.note(&snap);
            }
            let prior = model.active.at_epoch(gap);
            model.note(&prior);
        }
        if committed {
            model.apply_success(doc, epoch)
        } else {
            model.apply_auto_rollback(doc, epoch)
        }
        .map_err(|e| format!("RECOVERY: model update failed: {e}"))?;
        Ok(Some((!committed, epoch, digest)))
    }

    /// An explicit `spec-rollback`; a lost reply is resolved by whether
    /// `spec-list` moved past the model's epoch.
    fn rollback(&mut self, report: &mut SoakReport) -> Result<(), String> {
        for _ in 0..10 {
            let line = self.request("spec-rollback", "");
            let (epoch, digest) = match exchange_line(self.addr, &line, IO_TIMEOUT, IO_TIMEOUT) {
                Ok(reply) => epoch_and_digest(&reply_result(&reply))
                    .ok_or_else(|| format!("ADMIN: spec-rollback failed: {}", reply.trim_end()))?,
                Err(_) => {
                    report.lost_replies += 1;
                    match self.list()? {
                        (epoch, _) if epoch <= self.model.active.epoch() => continue,
                        listed => listed,
                    }
                }
            };
            let modelled = self.model.apply_explicit_rollback(epoch);
            if modelled != digest {
                return Err(format!(
                    "MODEL DIVERGENCE: explicit rollback digest {digest} != model {modelled}"
                ));
            }
            report.explicit_rollbacks += 1;
            report.transcript.push(format!(
                "swap {}+: explicit rollback to epoch {epoch} ({digest})",
                self.swaps
            ));
            return Ok(());
        }
        Err("ADMIN: the explicit rollback never settled".to_string())
    }

    /// The authoritative final state, cross-checked against the model:
    /// `spec-list` over the wire, every live node's registry (a lagging
    /// ring node pulls newer epochs through gossip), and node 0's swap
    /// and rollback counters.
    fn check_final_state(&mut self, handles: &[Option<ServerHandle>], report: &mut SoakReport) {
        let expected = self.model.active.digest();
        (report.final_epoch, report.final_digest) =
            self.list().unwrap_or((0, "unreachable".to_string()));
        if report.final_digest != expected {
            report.violations.push(format!(
                "MODEL DIVERGENCE: final digest {} != model {expected}",
                report.final_digest
            ));
        }
        let digests = || -> Vec<String> {
            handles
                .iter()
                .flatten()
                .map(ServerHandle::registry_digest)
                .collect()
        };
        report.spec_converged = wait_until(SETTLE, || digests().iter().all(|d| *d == expected));
        if !report.spec_converged {
            report.violations.push(format!(
                "SPEC CONVERGENCE: nodes hold digests {:?}, expected {expected} everywhere",
                digests()
            ));
        }
        if let Some(node0) = &handles[0] {
            let driven = (
                report.swaps_committed + 2 * report.auto_rollbacks + report.explicit_rollbacks,
                report.auto_rollbacks + report.explicit_rollbacks,
            );
            let (swaps, rollbacks) = node0.registry_swap_stats();
            if (swaps, rollbacks) != driven {
                report.violations.push(format!(
                    "SWAP ACCOUNTING: registry counted {swaps} swaps / {rollbacks} rollbacks, \
                     soak drove {} / {}",
                    driven.0, driven.1
                ));
            }
        }
    }
}

/// Epoch-tagged `measure spec` samples: `(epoch, primitive, payload)`.
type Samples = Vec<(u64, osarch_kernel::Primitive, String)>;

/// The epoch verifier: hammers `measure` on the hot spec over a raw
/// connection and records `(epoch, primitive, payload)` for every ok
/// reply — including degraded ones, whose stale payload is keyed under
/// the same epoch-scoped prefix and must match it all the same. Returns
/// the samples, the degraded count, and id-echo mismatches.
fn swap_verifier(addr: SocketAddr, stop: &AtomicBool) -> (Samples, u64, u64) {
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
                    stream.set_read_timeout(Some(IO_TIMEOUT)).ok();
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
        let mut reply = String::new();
        // A failed write or read, or a line torn mid-write by an injected
        // fault, is not epoch evidence and not corruption — just a dead
        // connection.
        if reader.get_mut().write_all(line.as_bytes()).is_err()
            || !matches!(reader.read_line(&mut reply), Ok(n) if n > 0)
            || !reply.ends_with('\n')
        {
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

/// Epoch identity: every sampled payload is byte-identical to its
/// epoch's direct emitter, recomputed from the model snapshot(s) for
/// that epoch.
fn check_epochs(model: &SwapModel, samples: &Samples, violations: &mut Vec<String>) {
    let mut emitted: HashMap<(String, &'static str), Option<String>> = HashMap::new();
    let mut diverged = 0u64;
    for (epoch, primitive, payload) in samples {
        let matched = model.expected.get(epoch).is_some_and(|snaps| {
            snaps.iter().any(|snap| {
                let expected = emitted
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
                expected.as_deref() == Some(payload.as_str())
            })
        });
        if !matched {
            diverged += 1;
            if diverged <= 3 {
                violations.push(format!(
                    "EPOCH IDENTITY: epoch {epoch} {} payload diverged from its direct emitter",
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
}

/// `osarch chaos`'s synopsis: its usage-text entry and the tail of its
/// refusal lines.
pub const SYNOPSIS: Synopsis = Synopsis {
    command: "chaos",
    grammar: &[
        "[--seed N] [--rate P] [--duration S] [--conns N] [--workers N]",
        "[--sample N] [--metrics-addr A] [--metrics-out PATH] [--trace-out PATH]",
        "[--cluster [--nodes N] [--replicas R]]",
        "[--swap [--swaps N] [--transcript-out PATH]]",
    ],
    about: &[
        "deterministic fault-injection soak: clients vs a",
        "chaos server, asserting resilience invariants",
        "(telemetry on; exports validated metrics + trace);",
        "--cluster soaks an N-node ring through a seeded",
        "whole-node kill + respawn; --swap drives live spec",
        "hot-swaps through the admin plane asserting zero",
        "drops, byte-identical epochs and replayable",
        "rollbacks (with --cluster: gossip convergence",
        "through a mid-swap node kill)",
    ],
};

/// The `osarch chaos` front end: read `args` into a scenario, run it,
/// print the verdict. `Err` carries a one-line usage error (exit 2 at
/// the caller), returned before any server starts.
pub fn cli(args: &[String]) -> Result<ExitCode, String> {
    let mut args = Args::new(&SYNOPSIS, args);
    let (positive, any) = ("a positive integer", |_: &String| true);
    let cluster = args.switch("--cluster");
    let swap = args.switch("--swap");
    let seed = args
        .value("--seed", "an integer", |_| true)?
        .unwrap_or(42u64);
    let rate = args.value("--rate", "a probability in [0,1]", |p: &f64| {
        (0.0..=1.0).contains(p)
    })?;
    // Finite, positive and small enough to be a `Duration`.
    let valid = |s: &f64| *s > 0.0 && Duration::try_from_secs_f64(*s).is_ok();
    let duration = args
        .value("--duration", "finite, positive seconds", valid)?
        .map(Duration::from_secs_f64);
    let conns = args.value("--conns", positive, |n: &u32| *n >= 1)?;
    let workers = args.value("--workers", positive, |n: &usize| *n >= 1)?;
    let nodes = args.value("--nodes", "an integer of at least 2", |n: &usize| *n >= 2)?;
    let replicas = args.value("--replicas", positive, |n: &usize| *n >= 1)?;
    let swaps = args.value("--swaps", positive, |n: &u64| *n >= 1)?;
    let sample = args.value("--sample", "an integer divisor (0 disables)", |_| true)?;
    let metrics_addr = args.value("--metrics-addr", "HOST:PORT", any)?;
    let metrics_out: Option<String> = args.value("--metrics-out", "a path", any)?;
    let trace_out: Option<String> = args.value("--trace-out", "a path", any)?;
    let transcript_out: Option<String> = args.value("--transcript-out", "a path", any)?;
    args.finish()?;
    // Refuse what the chosen scenario would not read.
    if !swap && (swaps.is_some() || transcript_out.is_some()) {
        return Err("--swaps and --transcript-out require --swap".to_string());
    }
    if !cluster && (nodes.is_some() || replicas.is_some()) {
        return Err("--nodes and --replicas require --cluster".to_string());
    }
    if swap && duration.is_some() {
        return Err("--duration does not apply to --swap, which runs --swaps activations".into());
    }
    if cluster && (rate.is_some() || conns.is_some() || workers.is_some()) {
        return Err("--rate, --conns and --workers do not apply to --cluster".into());
    }
    let observed =
        sample.is_some() || metrics_addr.is_some() || metrics_out.is_some() || trace_out.is_some();
    if (cluster || swap) && observed {
        let flags = "--sample, --metrics-addr, --metrics-out and --trace-out";
        return Err(format!(
            "{flags} apply only to the plain soak (no --cluster or --swap)"
        ));
    }
    let load = duration.unwrap_or(Duration::from_secs(3));
    let mut scenario = match (cluster, swap) {
        (false, false) => Scenario::soak(seed, load),
        (true, false) => Scenario::cluster(seed, load),
        (false, true) => Scenario::swap(seed, swaps.unwrap_or(24)),
        (true, true) => Scenario::swap_cluster(seed, swaps.unwrap_or(8)),
    };
    scenario.rate = rate.unwrap_or(scenario.rate);
    scenario.conns = conns.unwrap_or(scenario.conns);
    scenario.workers = workers.unwrap_or(scenario.workers);
    scenario.nodes = nodes.unwrap_or(scenario.nodes);
    scenario.replicas = replicas.unwrap_or(scenario.replicas);
    scenario.sample = sample.unwrap_or(scenario.sample);
    scenario.metrics_addr = metrics_addr.or(scenario.metrics_addr);

    let report = match run(&scenario) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("chaos soak failed to start: {err}");
            return Ok(ExitCode::FAILURE);
        }
    };
    print_report(&scenario, &report);
    let mut verdict = String::new();
    for violation in &report.violations {
        verdict.push_str(&format!("FAIL: {violation}\n"));
    }
    if report.passed() {
        verdict.push_str("PASS: all invariants held\n");
    }
    let transcript = report
        .transcript
        .iter()
        .map(|line| format!("{line}\n"))
        .collect::<String>();
    for (path, body, what) in [
        (
            &metrics_out,
            &report.metrics_snapshot,
            "osarch-metrics/2 snapshot",
        ),
        (
            &trace_out,
            &report.chrome_trace,
            "osarch-trace/1 Chrome trace",
        ),
        (&transcript_out, &(transcript + &verdict), "swap transcript"),
    ] {
        if let Some(path) = path {
            if let Err(err) = std::fs::write(path, body) {
                eprintln!("cannot write {path}: {err}");
                return Ok(ExitCode::FAILURE);
            }
            println!("wrote {path} ({what})");
        }
    }
    if report.passed() {
        print!("{verdict}");
        Ok(ExitCode::SUCCESS)
    } else {
        eprint!("{verdict}");
        Ok(ExitCode::FAILURE)
    }
}

/// The verdict printer: every line that applies to the scenario.
fn print_report(s: &Scenario, r: &SoakReport) {
    let ring = s.nodes > 1;
    let swaps = s.phases.iter().filter(|p| **p == Phase::Swap).count();
    let kind = match (ring, swaps > 0) {
        (false, false) => "chaos",
        (true, false) => "cluster",
        (false, true) => "swap",
        (true, true) => "cluster swap",
    };
    print!("{kind} soak: seed {} rate {}", s.seed, s.rate);
    if swaps == 0 {
        let load: Duration = s
            .phases
            .iter()
            .map(|p| {
                if let Phase::Load(time) = p {
                    *time
                } else {
                    Duration::ZERO
                }
            })
            .sum();
        print!(" for {:.1}s", load.as_secs_f64());
    } else {
        print!(" across {swaps} live swaps");
    }
    print!(" ({} conns, {} workers", s.conns, s.workers);
    if ring {
        print!(
            ", {} nodes, R={}, gossip {}ms",
            s.nodes,
            s.replicas,
            GOSSIP.as_millis()
        );
    }
    println!(")");
    if s.rate > 0.0 {
        println!(
            "schedule ({} planned events over the horizon):",
            r.schedule_total
        );
        for (label, planned) in &r.schedule {
            println!("  {label:<18} {planned}");
        }
    }
    if s.phases.contains(&Phase::Kill) {
        println!(
            "kill schedule (node/kill, seeded): victim node {}",
            r.victim
        );
    }
    if swaps > 0 {
        println!(
            "swaps: {} committed, {} auto-rollbacks (corrupt-spec probe), {} explicit, \
             {} mid-swap loop deaths (all respawned), {} admin replies lost (recovered)",
            r.swaps_committed,
            r.auto_rollbacks,
            r.explicit_rollbacks,
            r.worker_respawns,
            r.lost_replies
        );
        // '.' = committed, 'R' = rolled back.
        let stream: String = r
            .rollback_stream
            .iter()
            .map(|&rb| if rb { 'R' } else { '.' })
            .collect();
        println!("replay stream: [{stream}] (pure function of --seed)");
        println!(
            "registry: final epoch {} digest {} | spec_digest_all_nodes={} | {} epoch samples \
             verified byte-identical ({} degraded)",
            r.final_epoch, r.final_digest, r.spec_converged, r.samples, r.degraded_samples
        );
    }
    // Segments run healthy, then alternate dead (after a kill) and
    // respawned.
    let mut sweeps = [0u64; 3];
    for (segment, count) in r.sweeps.iter().enumerate() {
        sweeps[if segment == 0 { 0 } else { 2 - segment % 2 }] += count;
    }
    let c = &r.resilience;
    println!(
        "traffic: {} ok, {} failed, {} corrupt | sweeps healthy={} dead={} respawned={} | \
         {} injected | retries {} giveups {} breaker_opens {} degraded {}",
        r.oks,
        r.failures,
        c.corrupt,
        sweeps[0],
        sweeps[1],
        sweeps[2],
        r.injected_total,
        c.retries,
        c.giveups,
        c.breaker_opens,
        c.degraded
    );
    println!(
        "error classes: timeout={} conn_reset={} server_error={} breaker_open={}",
        c.timeouts, c.conn_resets, c.server_errors, c.breaker_shed
    );
    println!(
        "routing: primary={} failovers={} redirects_followed={}",
        r.routed_primary, r.failovers, r.redirects_followed
    );
    let [lookups, hits, misses, coalesced, failed] = r.cache;
    println!(
        "server: {} panics contained, {} degraded, {} worker respawns | cache {lookups} \
         lookups = {hits} hits + {misses} misses + {coalesced} coalesced ({failed} failed)",
        r.server_panics, r.server_degraded, r.worker_respawns
    );
    println!(
        "telemetry: sampling {} | {} chains sampled ({} retained) across {} loops",
        if s.sample == 0 {
            "off".to_string()
        } else {
            format!("1/{}", s.sample)
        },
        r.chains_sampled,
        r.trace_ids_by_loop.iter().map(Vec::len).sum::<usize>(),
        r.trace_ids_by_loop.len()
    );
    if ring {
        println!(
            "membership: converged_before_kill={} reconverged_after_respawn={}",
            r.converged_before_kill, r.reconverged
        );
    }
    for line in &r.transcript {
        println!("  {line}");
    }
}
