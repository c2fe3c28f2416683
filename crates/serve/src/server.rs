//! The event-driven query server core.
//!
//! A [`Server`] is a `std::net::TcpListener` accept thread feeding a set
//! of sharded event loops — one per configured worker — over per-loop
//! handoff queues. Each loop drives its connections with nonblocking
//! sockets and the `osarch-poll` readiness shim (epoll on Linux, a
//! portable tick fallback elsewhere): requests are line-JSON (see
//! [`crate::protocol`]), framed incrementally so a connection can keep
//! **many pipelined requests in flight** and replies are batched into a
//! single write per readiness pass. Per-connection read/write buffers
//! come from a per-loop arena and are recycled on disconnect — the hot
//! path allocates for reply strings, never for framing.
//!
//! The loops never block on anything but the poller:
//!
//! * control queries (`ping`, `spans`, `metrics`, `health`, `shutdown`)
//!   and already-landed cache entries ([`ShardedCache::try_get`]) are
//!   answered inline on the loop;
//! * a data-query miss is offloaded to a small compute pool through the
//!   bounded job queue; the pool runs the blocking single-flight path
//!   (coalescing concurrent misses), then posts a completion to the
//!   owning loop's mailbox and nudges its waker. Ordered reply *tickets*
//!   per connection keep pipelined responses in request order even when
//!   computations finish out of order.
//!
//! Every answer takes one reply path. A parsed request carries an
//! `Origin` (echoed id, op, start instants, reply epoch, sampled trace)
//! and ends as one `Reply`: a payload with what the cache said, a stale
//! `Degraded` payload, a replica's `Relayed` envelope, or a `Refused`
//! error envelope with the event it counts as. Data queries pass one
//! admission step (routing key, spec existence, cluster routing) first.
//! `finish` turns `Origin` plus `Reply` into the connection's ticket, on
//! the loop, whether the reply came from the loop itself or the pool: it
//! is the one place a reply is checked against the deadline, counted
//! (`record_served` or a tally), marked ready on its trace and rendered.
//! `refused` builds every error ticket, those of requests that never
//! parsed included.
//!
//! The server is built to survive misbehaviour, injected or real:
//!
//! * request handling runs under `catch_unwind` — a panicking handler
//!   produces an error envelope, never a dead loop;
//! * a loop that *does* die respawns in place with a fresh poller; a
//!   per-loop generation counter keeps late completions from being
//!   misdelivered to a recycled connection slot;
//! * progress-based timers: any byte read resets the idle clock (only a
//!   truly silent connection is disconnected at `idle_timeout`), and a
//!   client that stops draining its socket is disconnected after
//!   `write_timeout` without write progress — so a stalled client can
//!   neither wedge a loop nor block shutdown;
//! * an oversized request line gets an error envelope and the connection
//!   is *resynchronized* at the next newline, buffer capacity released;
//! * a failed recomputation degrades to the last good cached value,
//!   explicitly flagged, rather than failing the request outright;
//! * admission control bounds open connections (`queue_depth` is the
//!   global connection budget); the surplus is answered `busy`.
//!
//! Fault injection ([`osarch_chaos::ChaosController`]) threads through
//! the accept path, the compute pool, the response writer and the loop
//! lifecycle; with no controller configured every hook is one branch.
//!
//! Shutdown is cooperative: a `shutdown` request (or
//! [`ServerHandle::shutdown`]) flips the flag, closes the job queue and
//! the handoffs, wakes every loop, and pokes the accept thread with a
//! loopback connection. A loop then reads no new request but answers
//! every one it already accepted: it keeps delivering the pool's
//! completions until no connection waits on one (for at most the service
//! deadline), flushes, and exits.
//!
//! [`Server::start`] is the one validator of server settings: before it
//! binds, it refuses with `InvalidInput`, naming the `osarch serve` flag,
//! zero workers, queue, shards or replicas, a zero gossip interval, an
//! empty admin token and an address that is not one. [`cli`] is the
//! `osarch serve` front end; it reads its flags through the one reader in
//! [`osarch_core::names`] and maps `InvalidInput` to exit 2.

use crate::cache::{Fetched, ShardedCache};
use crate::invalid;
use crate::protocol::{self, AdminAction, Frame, FrameBuf, Query};
use crate::queue::BoundedQueue;
use crate::registry::{parse_spec_fetch, SpecRegistry, SpecSnapshot};
use osarch_chaos::{ChaosController, Failpoint};
use osarch_cluster::{Membership, Ring};
use osarch_core::json::{self, Value};
use osarch_core::metrics::json_number;
use osarch_core::names::{op_slot, Args, Synopsis, OP_NAMES};
use osarch_poll::{fd_of, new_poller, Event, Interest, Readiness, Token, WakeRx, Waker};
use osarch_telemetry::{Gauges, PendingTrace, Tally, TelemetryHub, Totals, TraceIdGen};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Event loops (one poller + connection set each).
    pub workers: usize,
    /// Cache shards.
    pub shards: usize,
    /// Global open-connection budget; connections beyond it are answered
    /// with a `busy` error envelope and dropped (backpressure). Kept
    /// under its historical name: in the thread-per-connection core this
    /// bounded the handoff queue, which was the same admission decision.
    pub queue_depth: usize,
    /// Per-request service deadline; a request that takes longer is
    /// answered with a `deadline exceeded` error envelope.
    pub deadline: Duration,
    /// Idle timeout per connection, measured from the **last byte
    /// read**: a client making byte-level progress mid-request is never
    /// idle, only a truly silent connection is disconnected.
    pub idle_timeout: Duration,
    /// Write-progress deadline per connection; a client that stops
    /// draining its socket is disconnected instead of wedging the loop
    /// (and, with it, shutdown).
    pub write_timeout: Duration,
    /// Trace-sampling rate: every Nth request per loop carries a full
    /// per-stage trace (`0` disables tracing). The decision is a counter
    /// check made *before* parse, so unsampled requests never allocate
    /// or read the clock for telemetry.
    pub sample_every: u64,
    /// Seed for the deterministic per-loop trace-id generators. Under a
    /// chaos replay with a fixed seed, trace ids replay bit-identically.
    pub telemetry_seed: u64,
    /// When set, bind a plain-HTTP scrape listener here: `GET /metrics`
    /// answers Prometheus text, any path containing `json` answers the
    /// `osarch-metrics/1` snapshot document.
    pub metrics_addr: Option<String>,
    /// Fault-injection schedule; `None` serves faithfully.
    pub chaos: Option<Arc<ChaosController>>,
    /// Multi-node cluster mode; `None` serves standalone (the default).
    pub cluster: Option<ClusterConfig>,
    /// Shared secret for the `admin` op (live spec hot-swap). `None` —
    /// the default — refuses every `admin` request outright: the control
    /// plane simply does not exist on an unconfigured server.
    pub admin_token: Option<String>,
}

/// Cluster-mode knobs: the static seed list, this node's identity on
/// it, and the replication/forwarding policy.
///
/// Every node builds the same [`Ring`] from the same seed list, with
/// [`osarch_cluster::DEFAULT_VNODES`] virtual nodes per node as every
/// client and the cluster bench do, so key placement needs no
/// coordination; liveness is the only gossiped state. `self_addr` must be the address *peers dial* (the listen
/// address with a real port, not `:0`) and must appear verbatim in
/// every node's `peers`-plus-self set.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This node's dialable address as it appears on the ring.
    pub self_addr: String,
    /// Every peer's dialable address (excluding or including self —
    /// self is always added to the ring).
    pub peers: Vec<String>,
    /// Replication factor R: each key is served by the owner plus
    /// `R - 1` distinct ring successors.
    pub replicas: usize,
    /// This node's starting incarnation; a respawned node must come
    /// back with a *higher* one so gossip revives it over stale `down`
    /// rumours.
    pub incarnation: u64,
    /// When `true` (the default), a request for a key this node does
    /// not replicate is proxied to a replica and answered in place;
    /// when `false`, the client is redirected with a `not_owner`
    /// envelope instead.
    pub proxy: bool,
    /// Anti-entropy cadence: how often the gossip thread probes the
    /// next peer with a `health` + digest exchange.
    pub gossip_interval: Duration,
}

/// Reserve `n` distinct loopback addresses for a ring by binding them
/// all at once, then freeing them: every node needs every peer's
/// dialable address before any node starts.
///
/// # Errors
///
/// Fails when the host cannot bind a loopback port.
pub fn reserve_loopback_addrs(n: usize) -> std::io::Result<Vec<String>> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<std::io::Result<_>>()?;
    listeners
        .iter()
        .map(|listener| Ok(format!("127.0.0.1:{}", listener.local_addr()?.port())))
        .collect()
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            self_addr: String::new(),
            peers: Vec::new(),
            replicas: 2,
            incarnation: 0,
            proxy: true,
            gossip_interval: Duration::from_millis(250),
        }
    }
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            shards: 16,
            queue_depth: 64,
            deadline: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(5),
            sample_every: 64,
            telemetry_seed: 0,
            metrics_addr: None,
            chaos: None,
            cluster: None,
            admin_token: None,
        }
    }
}

/// The poll tick: the longest a loop sleeps before re-checking its
/// mailbox, timers and the shutdown flag.
const TICK: Duration = Duration::from_millis(100);

/// Waker registration token; connection tokens start above it.
const WAKER_TOKEN: Token = 0;
const TOKEN_BASE: usize = 1;

/// Resting capacity of an arena read framer.
const READ_BASELINE: usize = 8 * 1024;

/// Resting capacity of an arena write buffer; buffers grown well past it
/// are shrunk back when they drain or retire.
const WRITE_BASELINE: usize = 16 * 1024;

/// Stop parsing new requests from a connection whose un-flushed reply
/// backlog exceeds this (resume when it drains): per-connection flow
/// control so a slow reader cannot balloon the server.
const WRITE_HIGH_WATER: usize = 256 * 1024;

/// Retired buffer pairs kept per loop for reuse.
const ARENA_MAX: usize = 1024;

/// Safety net for a compute job whose completion never arrives (the
/// pool posts an error completion even on panic, so this should be
/// unreachable): convert the ticket to an error after deadline + grace.
const LOST_JOB_GRACE: Duration = Duration::from_secs(60);

/// One reply slot in a connection's ordered pipeline.
enum Ticket {
    /// Rendered envelope, ready to batch into the write buffer. Replies
    /// the old core exposed to write-path chaos (successful envelopes)
    /// set `chaos`; error envelopes are always delivered faithfully.
    /// A sampled request's trace rides along and is finalized (the
    /// `write` stage) when the envelope is buffered.
    Done {
        envelope: String,
        chaos: bool,
        trace: Option<Box<PendingTrace>>,
    },
    /// Waiting on an offloaded computation.
    Waiting {
        seq: u64,
        id: String,
        queued_at: Instant,
    },
}

/// One served connection, owned by exactly one event loop.
struct Conn {
    stream: TcpStream,
    token: Token,
    /// Loop-generation stamp: completions carry it so a recycled slot
    /// can never receive a predecessor's reply.
    gen: u64,
    frames: FrameBuf,
    write_buf: Vec<u8>,
    write_pos: usize,
    pending: VecDeque<Ticket>,
    next_seq: u64,
    last_read: Instant,
    last_write: Instant,
    interest: Interest,
    read_closed: bool,
    /// Handler panicked: answer, flush, hang up.
    poisoned: bool,
    /// Chaos tore the response: flush the prefix, hang up.
    torn: bool,
    /// Hard I/O error: drop immediately.
    dead: bool,
    /// Chaos write stall: no flush attempts until this instant.
    stalled_until: Option<Instant>,
    _permit: Permit,
}

impl Conn {
    fn write_backlog(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }
}

/// Releases one unit of the open-connection budget on drop, wherever the
/// connection dies — handoff, event loop, or an unwinding loop thread.
struct Permit(Arc<AtomicUsize>);

impl Drop for Permit {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One offloaded data-query computation.
struct Job {
    loop_index: usize,
    token: Token,
    gen: u64,
    seq: u64,
    key: String,
    query: Query,
    /// The registry snapshot captured at admission: the computation and
    /// the reply's `epoch` field both resolve against it, so in-flight
    /// work finishes on the spec version it started under even when the
    /// registry swaps mid-flight.
    snapshot: Arc<SpecSnapshot>,
    /// Cluster relay: forward the original line (with the `fwd` marker)
    /// to this replica instead of computing locally. On any relay
    /// failure the pool records the miss against the peer and falls
    /// back to a local computation — availability over placement.
    relay: Option<Relay>,
    /// The request the reply answers. Its trace was marked at enqueue
    /// time — the pool closes the `queue` stage when it pops the job.
    origin: Origin,
}

/// A pending cluster relay: the target replica and the re-framed
/// request line (original flat object plus `"fwd":"1"`).
struct Relay {
    target: String,
    line: String,
}

/// A finished computation on its way back to the owning loop.
struct Completion {
    token: Token,
    gen: u64,
    seq: u64,
    origin: Origin,
    reply: Reply,
}

/// What a reply answers, carried from parse to the write batch: the
/// echoed request id, the op, when the request started, the registry
/// epoch its envelope reports, and the sampled trace.
struct Origin {
    id: String,
    op: &'static str,
    started: Instant,
    start_us: u64,
    epoch: u64,
    trace: Option<Box<PendingTrace>>,
}

/// How a request ended. [`finish`] turns an [`Origin`] and its `Reply`
/// into the ticket the connection writes.
enum Reply {
    /// The payload, plus what the cache said: a hit (`Some(true)`), a
    /// fresh computation (`Some(false)`), or nothing for a reply that
    /// never touched the cache (`None`).
    Ok(Arc<str>, Option<bool>),
    /// A failed recomputation served its stale last-good payload; the
    /// string is the failure.
    Degraded(Arc<str>, String),
    /// A replica answered under the request's own id: its envelope
    /// passes through verbatim.
    Relayed(String),
    /// An error envelope, counted as the given event.
    Refused(Tally, String),
}

/// Per-loop shared state: the accept handoff, the completion mailbox,
/// and the waker that interrupts the loop's poll wait.
struct LoopShared {
    handoff: BoundedQueue<(TcpStream, Permit)>,
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
    /// Monotonic across respawns, so stale completions can't misroute.
    gen: AtomicU64,
    /// Age of this loop's oldest unflushed reply, in ms; refreshed each
    /// housekeeping sweep so `health` can report write-backlog age
    /// without touching loop-owned connection state.
    backlog_ms: AtomicU64,
}

/// Per-loop trace state, owned by the loop thread (and surviving loop
/// respawns, so a reincarnated loop never reissues trace ids): the
/// deterministic id generator plus the sampling counter.
struct LoopTrace {
    ids: TraceIdGen,
    counter: u64,
}

impl LoopTrace {
    /// Count one request; true when this one is sampled. Pure counter
    /// arithmetic — the unsampled path costs one branch, no clock.
    fn tick(&mut self, sample_every: u64) -> bool {
        if sample_every == 0 {
            return false;
        }
        self.counter = self.counter.wrapping_add(1);
        self.counter.is_multiple_of(sample_every)
    }
}

/// State shared by the accept thread, the loops, the pool and the handle.
struct Shared {
    cache: Arc<ShardedCache>,
    /// The one recorder: every counted event, the `workers_live` gauge,
    /// the latency windows and the sampled span chains.
    hub: Arc<TelemetryHub>,
    shutdown: AtomicBool,
    deadline: Duration,
    idle_timeout: Duration,
    write_timeout: Duration,
    workers: usize,
    started: Instant,
    chaos: Option<Arc<ChaosController>>,
    /// The bound address, for the shutdown poke that wakes the accept loop.
    addr: SocketAddr,
    /// The scrape listener's bound address, for its own shutdown poke.
    metrics_addr: Option<SocketAddr>,
    conn_budget: usize,
    open_conns: Arc<AtomicUsize>,
    jobs: BoundedQueue<Job>,
    loops: Vec<LoopShared>,
    cluster: Option<ClusterState>,
    /// The versioned spec registry. Lives here — not in any loop — so a
    /// committed epoch survives loop deaths and respawns.
    registry: SpecRegistry,
    admin_token: Option<String>,
}

/// Live cluster-mode state: the (immutable) ring, the (gossiped)
/// membership table, and the routing counters.
struct ClusterState {
    ring: Ring,
    membership: Mutex<Membership>,
    self_addr: String,
    replicas: usize,
    proxy: bool,
    gossip_interval: Duration,
    /// Requests this node relayed to a replica on the client's behalf.
    forwarded: AtomicU64,
    /// Forwarded requests this node answered for a peer.
    proxied: AtomicU64,
    /// Requests answered with a `not_owner` redirect.
    redirected: AtomicU64,
    /// Completed gossip probe rounds (successful or not).
    gossip_rounds: AtomicU64,
}

/// The ring a node builds from its cluster config: every peer plus
/// itself, at [`osarch_cluster::DEFAULT_VNODES`] virtual nodes each.
pub(crate) fn ring_of(config: &ClusterConfig) -> Ring {
    let mut nodes = config.peers.clone();
    nodes.push(config.self_addr.clone());
    Ring::new(&nodes, osarch_cluster::DEFAULT_VNODES)
}

impl ClusterState {
    fn from_config(config: &ClusterConfig) -> ClusterState {
        ClusterState {
            ring: ring_of(config),
            membership: Mutex::new(Membership::new(
                &config.self_addr,
                config.incarnation,
                &config.peers,
            )),
            self_addr: config.self_addr.clone(),
            replicas: config.replicas,
            proxy: config.proxy,
            gossip_interval: config.gossip_interval,
            forwarded: AtomicU64::new(0),
            proxied: AtomicU64::new(0),
            redirected: AtomicU64::new(0),
            gossip_rounds: AtomicU64::new(0),
        }
    }

    /// The telemetry view: ring ownership, membership liveness, and the
    /// routing counters, sampled now.
    fn gauges(&self) -> osarch_telemetry::ClusterGauges {
        let membership = lock(&self.membership);
        osarch_telemetry::ClusterGauges {
            ownership_ppm: (self.ring.ownership(&self.self_addr) * 1_000_000.0).round() as u64,
            peers_alive: membership.alive_count(),
            peers_total: self.ring.len() as u64,
            incarnation: membership.self_incarnation(),
            forwarded: self.forwarded.load(Ordering::Relaxed),
            proxied: self.proxied.load(Ordering::Relaxed),
            redirected: self.redirected.load(Ordering::Relaxed),
            gossip_rounds: self.gossip_rounds.load(Ordering::Relaxed),
        }
    }

    /// The `cluster` op's payload: an `osarch-cluster/1` document with
    /// this node's ring view and the full membership table.
    fn status_payload(&self) -> String {
        let gauges = self.gauges();
        let membership = lock(&self.membership);
        let nodes: Vec<String> = membership
            .entries()
            .iter()
            .map(|(addr, state)| {
                format!(
                    "{{\"addr\":\"{}\",\"incarnation\":{},\"status\":\"{}\"}}",
                    osarch_core::metrics::json_escape(addr),
                    state.incarnation,
                    state.status.label()
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"schema\":\"{}\",\"self\":\"{}\",\"incarnation\":{},",
                "\"replicas\":{},\"vnodes\":{},\"proxy\":{},",
                "\"ownership_ppm\":{},\"peers_alive\":{},\"peers_total\":{},",
                "\"forwarded\":{},\"proxied\":{},\"redirected\":{},",
                "\"gossip_rounds\":{},\"nodes\":[{}]}}"
            ),
            osarch_core::metrics::CLUSTER_SCHEMA,
            osarch_core::metrics::json_escape(&self.self_addr),
            gauges.incarnation,
            self.replicas,
            self.ring.vnodes(),
            self.proxy,
            gauges.ownership_ppm,
            gauges.peers_alive,
            gauges.peers_total,
            gauges.forwarded,
            gauges.proxied,
            gauges.redirected,
            gauges.gossip_rounds,
            nodes.join(","),
        )
    }
}

impl Shared {
    /// Take a chaos decision at `fp` on behalf of loop `loop_index`;
    /// `false` whenever no controller is configured. Injections are
    /// tallied in the hub so `health` can report them without reaching
    /// into the controller.
    fn inject(&self, loop_index: usize, fp: Failpoint) -> bool {
        let hit = self
            .chaos
            .as_ref()
            .is_some_and(|chaos| chaos.should_inject(fp));
        if hit {
            self.tally(loop_index, Tally::FaultInjected);
        }
        hit
    }

    /// Take a chaos delay decision at `fp` with a deterministic duration.
    fn inject_delay(
        &self,
        loop_index: usize,
        fp: Failpoint,
        min: Duration,
        max: Duration,
    ) -> Option<Duration> {
        let delay = self
            .chaos
            .as_ref()
            .and_then(|chaos| chaos.inject_delay(fp, min, max));
        if delay.is_some() {
            self.tally(loop_index, Tally::FaultInjected);
        }
        delay
    }

    fn open_conns(&self) -> usize {
        self.open_conns.load(Ordering::SeqCst)
    }

    /// Microseconds since the server started — every telemetry timestamp
    /// is relative to this origin, never to the wall clock.
    fn uptime_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Count one [`Tally`] event on loop `loop_index`'s hub shard (any
    /// thread may count on behalf of a loop; the index only picks the
    /// shard), in the current 1 s window.
    fn tally(&self, loop_index: usize, event: Tally) {
        self.hub
            .tally(loop_index, event, self.uptime_us() / 1_000_000);
    }

    /// Age of the oldest unflushed reply across every loop, in ms.
    fn oldest_backlog_ms(&self) -> u64 {
        self.loops
            .iter()
            .map(|l| l.backlog_ms.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Gauges and lifetime totals sampled now: the hub's own tallies and
    /// liveness gauge, completed by the cache, registry and admission
    /// counters. The `metrics` snapshot and the `health` probe are both
    /// views of this one pair.
    fn gauges_and_totals(&self) -> (Gauges, Totals) {
        let gauges = Gauges {
            conns_open: self.open_conns() as u64,
            conn_budget: self.conn_budget as u64,
            workers: self.workers as u64,
            workers_live: self.hub.workers_live(),
            compute_backlog: self.jobs.len() as u64,
            oldest_write_backlog_ms: self.oldest_backlog_ms(),
            registry_epoch: self.registry.snapshot().epoch(),
            shutting_down: self.shutdown.load(Ordering::SeqCst),
        };
        let totals = Totals {
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_coalesced: self.cache.coalesced(),
            cache_failed: self.cache.failed(),
            cache_degraded: self.cache.degraded(),
            swaps: self.registry.swaps(),
            rollbacks: self.registry.rollbacks(),
            ..self.hub.totals()
        };
        (gauges, totals)
    }

    /// One consistent-enough telemetry snapshot: windowed histograms
    /// merged across shards, plus gauges and totals sampled now.
    fn telemetry_snapshot(&self) -> osarch_telemetry::MetricsSnapshot {
        let (gauges, totals) = self.gauges_and_totals();
        let mut snap = self.hub.snapshot(self.uptime_us(), gauges, totals);
        snap.swap_latency_us = self.registry.swap_latency();
        if let Some(cluster) = &self.cluster {
            snap.cluster = Some(cluster.gauges());
        }
        snap
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The server factory. See [`Server::start`].
pub struct Server;

/// What a count setting must be.
const COUNT: &str = "a positive integer";

/// What `--gossip-ms` must be.
const GOSSIP_MS: &str = "a positive number of milliseconds";

/// Refuse the settings no server can run, naming the flag of each.
fn validate(config: &ServerConfig) -> std::io::Result<()> {
    for (flag, value) in [
        ("--workers", config.workers),
        ("--queue", config.queue_depth),
        ("--shards", config.shards),
    ] {
        if value == 0 {
            return Err(invalid(flag, COUNT, value));
        }
    }
    if config.admin_token.as_deref() == Some("") {
        let reason = "--admin-token must not be empty";
        return Err(std::io::Error::new(ErrorKind::InvalidInput, reason));
    }
    if let Some(cluster) = &config.cluster {
        if cluster.replicas == 0 {
            return Err(invalid("--replicas", COUNT, 0));
        }
        if cluster.gossip_interval.is_zero() {
            return Err(invalid("--gossip-ms", GOSSIP_MS, 0));
        }
    }
    Ok(())
}

/// Bind `addr`, reporting one that is not an address as `InvalidInput`
/// naming `flag`.
fn bind(flag: &str, addr: &str) -> std::io::Result<TcpListener> {
    TcpListener::bind(addr).map_err(|err| match err.kind() {
        ErrorKind::InvalidInput => invalid(flag, "a HOST:PORT address", addr),
        _ => err,
    })
}

impl Server {
    /// Bind `config.addr`, spawn the accept thread, the event loops and
    /// the compute pool, and return a handle. Serving begins immediately.
    ///
    /// # Errors
    ///
    /// `InvalidInput`, before anything binds, for a setting no server can
    /// run: zero `workers`, `queue_depth` or `shards`, an empty
    /// `admin_token`, zero cluster `replicas` or `gossip_interval`, or an
    /// `addr` or `metrics_addr` that is not an address. The message names
    /// the `osarch serve` flag that sets it. Any other error is the
    /// failure to bind or to spawn a thread.
    pub fn start(config: &ServerConfig) -> std::io::Result<ServerHandle> {
        validate(config)?;
        let listener = bind("--addr", &config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers;
        let conn_budget = config.queue_depth;
        let open_conns = Arc::new(AtomicUsize::new(0));
        let mut wake_rxs = Vec::with_capacity(workers);
        let mut loops = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (waker, wake_rx) = osarch_poll::waker()?;
            wake_rxs.push(wake_rx);
            loops.push(LoopShared {
                handoff: BoundedQueue::new(conn_budget.max(64)),
                completions: Mutex::new(Vec::new()),
                waker,
                gen: AtomicU64::new(0),
                backlog_ms: AtomicU64::new(0),
            });
        }
        let metrics_listener = match &config.metrics_addr {
            Some(scrape_addr) => Some(bind("--metrics-addr", scrape_addr)?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(listener) => Some(listener.local_addr()?),
            None => None,
        };
        let shared = Arc::new(Shared {
            cache: Arc::new(ShardedCache::new(config.shards)),
            hub: Arc::new(TelemetryHub::new(
                workers,
                &OP_NAMES,
                config.sample_every,
                config.telemetry_seed,
            )),
            shutdown: AtomicBool::new(false),
            deadline: config.deadline,
            idle_timeout: config.idle_timeout,
            write_timeout: config.write_timeout,
            workers,
            started: Instant::now(),
            chaos: config.chaos.clone(),
            addr,
            metrics_addr,
            conn_budget,
            open_conns,
            jobs: BoundedQueue::new((conn_budget * 4).max(1024)),
            loops,
            cluster: config.cluster.as_ref().map(ClusterState::from_config),
            registry: SpecRegistry::new(),
            admin_token: config.admin_token.clone(),
        });
        let mut threads = Vec::with_capacity(2 * workers + 2);
        for (index, wake_rx) in wake_rxs.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            // Live from the moment `start` returns: a probe answered before
            // this thread first runs must not see the loop missing.
            shared.hub.loop_started();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-loop-{index}"))
                    .spawn(move || loop_main(&shared, index, &wake_rx))?,
            );
        }
        // The compute pool: one thread per event loop.
        for index in 0..workers {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-compute-{index}"))
                    .spawn(move || pool_main(&shared))?,
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-accept".to_string())
                    .spawn(move || accept_loop(&listener, &shared))?,
            );
        }
        if let Some(listener) = metrics_listener {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-metrics".to_string())
                    .spawn(move || metrics_loop(&listener, &shared))?,
            );
        }
        if shared.cluster.as_ref().is_some_and(|c| c.ring.len() > 1) {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-gossip".to_string())
                    .spawn(move || gossip_loop(&shared))?,
            );
        }
        Ok(ServerHandle {
            addr,
            shared,
            threads,
        })
    }
}

/// A running server: its bound address plus shutdown/join control.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// (hits, misses, coalesced) of the response cache.
    #[must_use]
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        (
            self.shared.cache.hits(),
            self.shared.cache.misses(),
            self.shared.cache.coalesced(),
        )
    }

    /// (failed computations, degraded replies) of the response cache.
    #[must_use]
    pub fn cache_failure_stats(&self) -> (u64, u64) {
        (self.shared.cache.failed(), self.shared.cache.degraded())
    }

    /// The response cache. Outlives the handle, like
    /// [`ServerHandle::telemetry`]: the chaos soak reads a node's final
    /// counts once it has stopped.
    #[must_use]
    pub fn cache(&self) -> Arc<ShardedCache> {
        Arc::clone(&self.shared.cache)
    }

    /// (ok requests, error requests, rejected connections).
    #[must_use]
    pub fn request_stats(&self) -> (u64, u64, u64) {
        let totals = self.shared.hub.totals();
        (totals.requests, totals.errors, totals.rejected)
    }

    /// The telemetry hub: windowed histograms, lifetime totals, the
    /// `workers_live` gauge, sampled span chains, and the deterministic
    /// trace-id generators. Outlives the handle — the chaos soak reads
    /// worker liveness *after* [`ServerHandle::stop`].
    #[must_use]
    pub fn telemetry(&self) -> Arc<TelemetryHub> {
        Arc::clone(&self.shared.hub)
    }

    /// The scrape listener's bound address, when `metrics_addr` was
    /// configured (with the real port when `:0` was requested).
    #[must_use]
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.shared.metrics_addr
    }

    /// One full `osarch-metrics/1` snapshot document — exactly what the
    /// `metrics` op and the scrape listener's JSON path emit.
    #[must_use]
    pub fn metrics_snapshot_json(&self) -> String {
        osarch_core::metrics::metrics_snapshot_json(&self.shared.telemetry_snapshot())
    }

    /// The `osarch-cluster/1` status document, when running in cluster
    /// mode — exactly what the `cluster` op answers.
    #[must_use]
    pub fn cluster_status_json(&self) -> Option<String> {
        self.shared
            .cluster
            .as_ref()
            .map(ClusterState::status_payload)
    }

    /// `(forwarded, proxied, redirected, gossip_rounds)` routing
    /// counters, when running in cluster mode.
    #[must_use]
    pub fn cluster_counters(&self) -> Option<(u64, u64, u64, u64)> {
        self.shared.cluster.as_ref().map(|c| {
            (
                c.forwarded.load(Ordering::Relaxed),
                c.proxied.load(Ordering::Relaxed),
                c.redirected.load(Ordering::Relaxed),
                c.gossip_rounds.load(Ordering::Relaxed),
            )
        })
    }

    /// This node's current membership digest, when running in cluster
    /// mode — the soak compares digests across nodes to assert
    /// convergence.
    #[must_use]
    pub fn membership_digest(&self) -> Option<String> {
        self.shared
            .cluster
            .as_ref()
            .map(|c| lock(&c.membership).digest())
    }

    /// The spec registry's current `{epoch}:{hash}` digest — soaks
    /// compare these across nodes to assert spec convergence.
    #[must_use]
    pub fn registry_digest(&self) -> String {
        self.shared.registry.snapshot().digest()
    }

    /// The spec registry's current epoch (1 = the built-ins).
    #[must_use]
    pub fn registry_epoch(&self) -> u64 {
        self.shared.registry.snapshot().epoch()
    }

    /// `(swaps, rollbacks)` committed by the spec registry so far.
    #[must_use]
    pub fn registry_swap_stats(&self) -> (u64, u64) {
        (
            self.shared.registry.swaps(),
            self.shared.registry.rollbacks(),
        )
    }

    /// Begin a graceful shutdown (idempotent): stop accepting, wake and
    /// drain every loop, let the compute pool run dry.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared);
    }

    /// Block until every server thread has exited. Call
    /// [`ServerHandle::shutdown`] first (or send a `shutdown` request).
    pub fn wait(self) {
        for thread in self.threads {
            let _ = thread.join();
        }
    }

    /// Shut down and join, in one call.
    pub fn stop(self) {
        self.shutdown();
        self.wait();
    }
}

fn initiate_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return; // already shutting down
    }
    shared.jobs.close();
    for loop_shared in &shared.loops {
        loop_shared.handoff.close();
        loop_shared.waker.wake();
    }
    // Poke the accept loop awake; it re-checks the flag after accept.
    let _ = TcpStream::connect_timeout(&shared.addr, Duration::from_millis(200));
    // Same poke for the scrape listener, when one is running.
    if let Some(scrape_addr) = shared.metrics_addr {
        let _ = TcpStream::connect_timeout(&scrape_addr, Duration::from_millis(200));
    }
}

// ---------------------------------------------------------------------------
// Accept thread: admission control + round-robin handoff
// ---------------------------------------------------------------------------

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    let mut next_loop = 0usize;
    accept_until_shutdown(listener, shared, |stream| {
        if shared.inject(next_loop, Failpoint::AcceptDrop) {
            // Chaos: the listener sheds this connection without a word;
            // the peer sees an immediate close.
            return;
        }
        // Admission: reserve a budget slot optimistically, back out on
        // overflow. The Permit returns the slot wherever the connection
        // ends up dying.
        let open = shared.open_conns.fetch_add(1, Ordering::SeqCst);
        if open >= shared.conn_budget {
            shared.open_conns.fetch_sub(1, Ordering::SeqCst);
            reject_busy(shared, next_loop, stream);
            return;
        }
        shared.tally(next_loop, Tally::ConnOpened);
        let item = (stream, Permit(Arc::clone(&shared.open_conns)));
        if let Some((stream, permit)) = place_round_robin(&shared.loops, &mut next_loop, item) {
            // Every handoff is full (or closed): shed the connection.
            drop(permit);
            reject_busy(shared, next_loop, stream);
        }
    });
}

/// How long a listener thread waits after a failed `accept` before it
/// tries again. Out of file descriptors, with connections waiting in the
/// backlog, `accept` fails at once; retrying at once would spin a core.
const ACCEPT_RETRY_PAUSE: Duration = Duration::from_millis(10);

/// The one accept loop behind both listeners: hand each accepted
/// connection to `serve` until shutdown. The shutdown poke (or a
/// straggler) that wakes a blocked `accept` is dropped unserved.
fn accept_until_shutdown(
    listener: &TcpListener,
    shared: &Shared,
    mut serve: impl FnMut(TcpStream),
) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => serve(stream),
            Err(_) => std::thread::sleep(ACCEPT_RETRY_PAUSE),
        }
    }
}

/// Hand an accepted connection to the next event loop with capacity,
/// round-robin. Ownership threads through `try_push` and back out of its
/// `Err` — the item is moved, never parked in an `Option` — so "we still
/// hold the connection" is a fact of the types: placement returns `None`,
/// and the unplaced connection comes back as `Some` for shedding.
fn place_round_robin(
    loops: &[LoopShared],
    next_loop: &mut usize,
    mut item: (TcpStream, Permit),
) -> Option<(TcpStream, Permit)> {
    for _ in 0..loops.len() {
        let index = *next_loop % loops.len();
        *next_loop = next_loop.wrapping_add(1);
        match loops[index].handoff.try_push(item) {
            Ok(()) => {
                loops[index].waker.wake();
                return None;
            }
            Err(returned) => item = returned,
        }
    }
    Some(item)
}

/// Backpressure: answer busy and hang up rather than queueing unbounded
/// work. The message keeps its historical wording — the budget *is* the
/// connection queue of the old core. `loop_index` only picks the hub
/// shard the rejection is tallied on.
fn reject_busy(shared: &Shared, loop_index: usize, mut stream: TcpStream) {
    shared.tally(loop_index, Tally::Rejected);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let _ = writeln!(
        stream,
        "{}",
        protocol::err_envelope("null", "server busy: connection queue full")
    );
}

// ---------------------------------------------------------------------------
// Metrics scrape listener: plain HTTP/1.0, one snapshot per connection
// ---------------------------------------------------------------------------

/// Serve `--metrics-addr` scrapes: a request whose path contains `json`
/// gets the `osarch-metrics/1` snapshot document, everything else gets
/// Prometheus text exposition. One short-lived connection per scrape —
/// scrapes are ~1 Hz, so no event loop is warranted, and a stuck scraper
/// can at worst wedge this one thread, never the serve path.
fn metrics_loop(listener: &TcpListener, shared: &Shared) {
    accept_until_shutdown(listener, shared, |stream| serve_scrape(shared, stream));
}

fn serve_scrape(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    // Read until the header terminator arrives. A client may deliver the
    // request line in several small writes; responding and closing after a
    // partial read would discard unread bytes, which turns the close into a
    // TCP reset and breaks the scraper mid-request. Bounded by the buffer
    // size and the read timeout, so a misbehaving scraper cannot wedge us.
    let mut buf = [0u8; 1024];
    let mut count = 0;
    loop {
        match stream.read(&mut buf[count..]) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                count += n;
                if buf[..count].windows(4).any(|w| w == b"\r\n\r\n") || count == buf.len() {
                    break;
                }
            }
        }
    }
    let request = String::from_utf8_lossy(&buf[..count]);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/metrics");
    let snap = shared.telemetry_snapshot();
    let (content_type, body) = if path.contains("json") {
        (
            "application/json",
            osarch_core::metrics::metrics_snapshot_json(&snap),
        )
    } else {
        (
            "text/plain; version=0.0.4",
            osarch_telemetry::expose::prometheus_text(&snap),
        )
    };
    let _ = write!(
        stream,
        "HTTP/1.0 200 OK\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    let _ = stream.flush();
}

// ---------------------------------------------------------------------------
// Compute pool: the only place the blocking cache path runs
// ---------------------------------------------------------------------------

fn pool_main(shared: &Shared) {
    while let Some(mut job) = shared.jobs.pop() {
        // Queue stage: enqueue (marked by the loop) to pool pickup.
        if let Some(trace) = job.origin.trace.as_mut() {
            trace.stage_from_mark("queue", shared.uptime_us());
        }
        // A cluster relay tries the owning replica first; any failure
        // records the miss against the peer and degrades to the local
        // compute path below — availability over placement.
        let relayed = job.relay.take().and_then(|relay| {
            let read_timeout = shared.deadline.min(RELAY_READ_TIMEOUT_CAP);
            let reply = protocol::exchange_line(
                &relay.target,
                &relay.line,
                RELAY_CONNECT_TIMEOUT,
                read_timeout,
            );
            if let Some(cluster) = &shared.cluster {
                let mut membership = lock(&cluster.membership);
                match reply {
                    Ok(_) => membership.record_success(&relay.target),
                    Err(_) => membership.record_failure(&relay.target),
                }
            }
            reply.ok()
        });
        let mut compute_span: Option<(u64, u64)> = None;
        let reply = match relayed {
            Some(envelope) => Reply::Relayed(envelope),
            None => {
                // The cache contains computation panics itself; this
                // outer guard is for everything unexpected, so a
                // completion is *always* posted and no ticket waits
                // forever.
                let fetched = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    compute_job(
                        shared,
                        job.loop_index,
                        &job.key,
                        &job.query,
                        &job.snapshot,
                        &mut compute_span,
                    )
                }))
                .unwrap_or_else(|_| {
                    Fetched::Failed("internal error: compute worker panicked".to_string())
                });
                match fetched {
                    Fetched::Computed(payload) => Reply::Ok(payload, Some(false)),
                    Fetched::Cached(payload) => Reply::Ok(payload, Some(true)),
                    Fetched::Degraded(payload, error) => Reply::Degraded(payload, error),
                    Fetched::Failed(error) => Reply::Refused(
                        Tally::PanicError,
                        protocol::err_envelope(
                            &job.origin.id,
                            &format!("{} failed: {error}", job.origin.op),
                        ),
                    ),
                }
            }
        };
        if let Some(trace) = job.origin.trace.as_mut() {
            // Cache stage: the relay round trip, or the whole single-flight
            // path (including any wait coalesced onto another flight's
            // computation)…
            trace.stage_from_mark("cache", shared.uptime_us());
            // …with the leader's own computation as a nested span.
            if let Some((start_us, dur_us)) = compute_span {
                trace.stage("compute", start_us, dur_us);
            }
        }
        let target = &shared.loops[job.loop_index];
        lock(&target.completions).push(Completion {
            token: job.token,
            gen: job.gen,
            seq: job.seq,
            origin: job.origin,
            reply,
        });
        target.waker.wake();
    }
}

/// Run one offloaded computation for loop `loop_index` through the
/// single-flight cache. When this thread ends up the flight leader,
/// `compute_span` receives the inner computation's `(start_us, dur_us)`
/// — coalesced followers leave it `None`.
fn compute_job(
    shared: &Shared,
    loop_index: usize,
    key: &str,
    query: &Query,
    snapshot: &SpecSnapshot,
    compute_span: &mut Option<(u64, u64)>,
) -> Fetched {
    shared.cache.get_or_compute_resilient(key, || {
        let compute_start = shared.uptime_us();
        if let Some(delay) = shared.inject_delay(
            loop_index,
            Failpoint::ComputeDelay,
            COMPUTE_DELAY_MIN,
            COMPUTE_DELAY_MAX,
        ) {
            // Chaos: stall the computation (typically past the service
            // deadline).
            std::thread::sleep(delay);
        }
        if shared.inject(loop_index, Failpoint::ComputePanic) {
            // Chaos: the single-flight leader dies mid-compute.
            panic!("chaos: injected computation panic");
        }
        let payload = query.compute(snapshot);
        *compute_span = Some((
            compute_start,
            shared.uptime_us().saturating_sub(compute_start),
        ));
        payload
    })
}

// ---------------------------------------------------------------------------
// Cluster: relay exchange + gossip probes
// ---------------------------------------------------------------------------

/// Connect budget for one relay/gossip exchange: short, because the
/// target is a LAN peer and a dead one should fail fast into the local
/// fallback (relay) or a recorded miss (gossip).
const RELAY_CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// Relay reads never wait longer than this even under a huge service
/// deadline — past it the local fallback is strictly better.
const RELAY_READ_TIMEOUT_CAP: Duration = Duration::from_secs(10);

/// Gossip probes are cheap liveness checks; they time out well inside
/// one gossip interval's order of magnitude.
const GOSSIP_TIMEOUT: Duration = Duration::from_millis(300);

/// Cluster spec convergence, pull side: when a probed peer advertises a
/// strictly newer registry epoch, fetch its spec set (`spec-fetch`) and
/// adopt it at the *remote* epoch, so converged nodes share one digest.
/// Every failure path is a silent no-op — the next gossip round retries.
fn maybe_pull_specs(shared: &Shared, target: &str, remote_digest: &str) {
    let Some(remote_epoch) = remote_digest
        .split(':')
        .next()
        .and_then(|epoch| epoch.parse::<u64>().ok())
    else {
        return;
    };
    let local = shared.registry.snapshot();
    if remote_epoch <= local.epoch() {
        return;
    }
    let Ok(reply) = protocol::exchange_line(
        target,
        "{\"op\":\"spec-fetch\",\"id\":\"spec-pull\"}",
        RELAY_CONNECT_TIMEOUT,
        RELAY_READ_TIMEOUT_CAP,
    ) else {
        return;
    };
    // The payload, not the envelope: the envelope carries its own
    // top-level `epoch` field, which must not shadow the payload's.
    let Ok(envelope) = json::parse(&reply) else {
        return;
    };
    let Ok((epoch, docs)) = parse_spec_fetch(&envelope["result"]) else {
        return;
    };
    let Ok(snapshot) = SpecSnapshot::from_docs(&docs, epoch) else {
        return;
    };
    if shared.registry.adopt(snapshot) {
        let active = shared.registry.snapshot();
        shared.cache.retain_prefix(active.key_prefix());
    }
}

/// The anti-entropy thread: round-robin the peer list, exchange
/// membership digests over the ordinary `health` op, and fold direct
/// probe evidence (success/failure) into the table. Every probe is a
/// full digest swap, so rumours spread O(log N) rounds and a respawned
/// node's higher incarnation revives it everywhere.
fn gossip_loop(shared: &Shared) {
    let Some(cluster) = &shared.cluster else {
        return;
    };
    let peers: Vec<String> = cluster
        .ring
        .nodes()
        .iter()
        .filter(|addr| **addr != cluster.self_addr)
        .cloned()
        .collect();
    if peers.is_empty() {
        return;
    }
    let mut next = 0usize;
    while !shared.shutdown.load(Ordering::SeqCst) {
        let target = &peers[next % peers.len()];
        next = next.wrapping_add(1);
        let digest = lock(&cluster.membership).digest();
        let line = format!(
            "{{\"op\":\"health\",\"id\":\"gossip\",\"gossip\":\"{}\"}}",
            osarch_core::metrics::json_escape(&digest)
        );
        match protocol::exchange_line(target, &line, GOSSIP_TIMEOUT, GOSSIP_TIMEOUT) {
            Ok(reply) => {
                // The peer's `health` payload carries its membership digest
                // (`addr=inc/status;…`) and its spec-registry digest.
                let envelope = json::parse(&reply).unwrap_or(Value::Null);
                let payload = &envelope["result"];
                {
                    let mut membership = lock(&cluster.membership);
                    membership.record_success(target);
                    if let Some(incoming) = payload["gossip"].as_str() {
                        membership.merge_digest(incoming);
                    }
                }
                // Membership lock released: the spec pull dials the peer
                // again and must not hold it across the exchange.
                if let Some(remote_digest) = payload["spec"].as_str() {
                    maybe_pull_specs(shared, target, remote_digest);
                }
            }
            Err(_) => {
                lock(&cluster.membership).record_failure(target);
            }
        }
        cluster.gossip_rounds.fetch_add(1, Ordering::Relaxed);
        // Interruptible inter-probe sleep: shutdown never waits a full
        // gossip interval behind this thread.
        let mut slept = Duration::ZERO;
        while slept < cluster.gossip_interval && !shared.shutdown.load(Ordering::SeqCst) {
            let step = Duration::from_millis(20).min(cluster.gossip_interval - slept);
            std::thread::sleep(step);
            slept += step;
        }
    }
}

// ---------------------------------------------------------------------------
// Event loops
// ---------------------------------------------------------------------------

/// One event-loop thread: serve until shutdown, reincarnating after any
/// escape of the per-request panic isolation (including injected worker
/// deaths). The liveness gauge brackets the whole tenure — [`Server::start`]
/// counts the loop live before spawning it, and the loop uncounts itself
/// on exit — so `health` sees a starting or respawning loop as live.
fn loop_main(shared: &Shared, index: usize, wake_rx: &WakeRx) {
    // Trace state lives outside the respawn loop: a reincarnated loop
    // continues its id stream instead of reissuing ids from the start.
    let mut ltrace = LoopTrace {
        ids: shared.hub.ids_for(index),
        counter: 0,
    };
    loop {
        let exit = std::panic::catch_unwind(AssertUnwindSafe(|| {
            event_loop(shared, index, wake_rx, &mut ltrace);
        }));
        match exit {
            Ok(()) => break, // shutdown — clean exit
            Err(_) => {
                // The loop died mid-tenure (its connections die with it;
                // their permits release on unwind). Respawn in place
                // with a fresh poller rather than shrinking the pool.
                shared.tally(index, Tally::LoopRespawn);
            }
        }
    }
    shared.hub.loop_stopped();
}

fn event_loop(shared: &Shared, index: usize, wake_rx: &WakeRx, ltrace: &mut LoopTrace) {
    let me = &shared.loops[index];
    let mut poller = new_poller();
    let _ = poller.register(wake_rx.fd(), WAKER_TOKEN, Interest::READ);
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free_slots: Vec<usize> = Vec::new();
    let mut arena: Vec<(FrameBuf, Vec<u8>)> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let mut last_sweep = Instant::now();

    loop {
        let _ = poller.wait(&mut events, Some(TICK));
        wake_rx.drain();
        let wake_us = shared.uptime_us();

        // Adopt handed-off connections.
        while let Some((stream, permit)) = me.handoff.try_pop() {
            adopt(
                shared,
                index,
                poller.as_mut(),
                &mut conns,
                &mut free_slots,
                &mut arena,
                stream,
                permit,
            );
        }

        // Deliver compute completions into their tickets.
        let completions = std::mem::take(&mut *lock(&me.completions));
        for completion in completions {
            let Some(slot) = completion.token.checked_sub(TOKEN_BASE) else {
                continue;
            };
            let Some(mut conn) = conns.get_mut(slot).and_then(Option::take) else {
                continue;
            };
            if conn.gen == completion.gen {
                settle_ticket(shared, index, &mut conn, completion);
            }
            service_conn(shared, index, poller.as_mut(), &mut conn);
            park_or_retire(
                shared,
                index,
                poller.as_mut(),
                &mut conns,
                &mut free_slots,
                &mut arena,
                slot,
                conn,
            );
        }

        // Readiness events.
        for event in events.iter().copied() {
            if event.token == WAKER_TOKEN {
                continue;
            }
            let slot = event.token - TOKEN_BASE;
            let Some(mut conn) = conns.get_mut(slot).and_then(Option::take) else {
                continue;
            };
            if event.readable {
                on_readable(shared, index, &mut conn, ltrace);
                if shared
                    .registry
                    .swap_loop_death
                    .swap(false, Ordering::SeqCst)
                {
                    // Chaos: this loop just committed a spec swap; die
                    // before the admin reply reaches the write buffer.
                    // Deliberately *outside* dispatch's catch_unwind — a
                    // real loop death, caught only by loop_main's respawn.
                    // The committed epoch lives in Shared and survives.
                    panic!("chaos: injected mid-swap loop death");
                }
            }
            service_conn(shared, index, poller.as_mut(), &mut conn);
            park_or_retire(
                shared,
                index,
                poller.as_mut(),
                &mut conns,
                &mut free_slots,
                &mut arena,
                slot,
                conn,
            );
        }

        if shared.shutdown.load(Ordering::SeqCst) {
            // Connections drop with the loop; their permits release.
            drain(shared, index, poller.as_mut(), wake_rx, &mut conns);
            return;
        }

        // Housekeeping sweep: expired write stalls, progress-based idle
        // and write timeouts, lost-completion safety net. Also the slow
        // telemetry gauges: offload-queue depth, arena occupancy, and
        // this loop's oldest write-backlog age.
        let now = Instant::now();
        if now.duration_since(last_sweep) >= TICK {
            last_sweep = now;
            let now_s = wake_us / 1_000_000;
            shared
                .hub
                .record_queue_depth(index, shared.jobs.len() as u64, now_s);
            shared.hub.record_arena(index, arena.len() as u64, now_s);
            let mut oldest_backlog = Duration::ZERO;
            for slot in 0..conns.len() {
                let Some(mut conn) = conns.get_mut(slot).and_then(Option::take) else {
                    continue;
                };
                sweep_conn(shared, index, &mut conn, now);
                service_conn(shared, index, poller.as_mut(), &mut conn);
                if conn.write_backlog() > 0 && !conn.dead {
                    oldest_backlog = oldest_backlog.max(now.duration_since(conn.last_write));
                }
                park_or_retire(
                    shared,
                    index,
                    poller.as_mut(),
                    &mut conns,
                    &mut free_slots,
                    &mut arena,
                    slot,
                    conn,
                );
            }
            me.backlog_ms
                .store(oldest_backlog.as_millis() as u64, Ordering::Relaxed);
        }

        // Loop lag: how long this wake kept the loop busy before it
        // could sleep again — the "is the event loop keeping up" signal.
        let busy_us = shared.uptime_us().saturating_sub(wake_us);
        shared
            .hub
            .record_loop_lag(index, busy_us, wake_us / 1_000_000);
    }
}

/// The shutdown pass. The loop reads no new request, but answers every
/// one it already accepted: completions keep landing (the pool drains
/// the closed job queue) until no live connection holds a `Waiting`
/// ticket, for at most one service deadline. Then every connection
/// flushes its completed replies, the in-band `shutdown` acknowledgement
/// among them.
fn drain(
    shared: &Shared,
    index: usize,
    poller: &mut dyn Readiness,
    wake_rx: &WakeRx,
    conns: &mut [Option<Conn>],
) {
    let me = &shared.loops[index];
    for conn in conns.iter_mut().flatten() {
        conn.read_closed = true;
        update_interest(poller, conn);
    }
    // A deadline too long to be an instant sets no limit.
    let give_up = Instant::now().checked_add(shared.deadline);
    let mut events = Vec::new();
    loop {
        for completion in std::mem::take(&mut *lock(&me.completions)) {
            let slot = completion.token.checked_sub(TOKEN_BASE);
            let conn = slot.and_then(|slot| conns.get_mut(slot)?.as_mut());
            if let Some(conn) = conn.filter(|conn| conn.gen == completion.gen) {
                settle_ticket(shared, index, conn, completion);
            }
        }
        for conn in conns.iter_mut().flatten() {
            service_conn(shared, index, poller, conn);
        }
        let waiting = conns.iter().flatten().any(|conn| {
            !conn.dead
                && conn
                    .pending
                    .iter()
                    .any(|ticket| matches!(ticket, Ticket::Waiting { .. }))
        });
        if !waiting || give_up.is_some_and(|at| Instant::now() >= at) {
            break;
        }
        let _ = poller.wait(&mut events, Some(TICK));
        wake_rx.drain();
    }
    for conn in conns.iter_mut().flatten() {
        conn.stalled_until = None;
        service_conn(shared, index, poller, conn);
    }
}

/// Per-tick connection timers. Idle accounting is progress-based: the
/// clock runs from the last byte *read*, so a client trickling a request
/// one byte at a time is never "idle" — only true silence disconnects.
fn sweep_conn(shared: &Shared, loop_index: usize, conn: &mut Conn, now: Instant) {
    // A connection with nothing owed to it and no bytes for the idle
    // window is disconnected (a mid-request partial counts as silence —
    // the *clock* still only runs from the last byte received).
    let awaiting_input =
        conn.pending.is_empty() && conn.write_backlog() == 0 && !conn.read_closed && !conn.torn;
    if awaiting_input && now.duration_since(conn.last_read) >= shared.idle_timeout {
        conn.dead = true;
        return;
    }
    // Write-progress deadline: a stalled client stops draining, the
    // backlog freezes, and the connection is cut — shutdown never waits
    // behind it. An injected write stall suspends the clock.
    if conn.write_backlog() > 0
        && conn.stalled_until.is_none()
        && now.duration_since(conn.last_write) >= shared.write_timeout
    {
        conn.dead = true;
        return;
    }
    // Lost-completion safety net (normally unreachable: the pool always
    // posts a completion, even for panics).
    if let Some(Ticket::Waiting { queued_at, id, .. }) = conn.pending.front() {
        if now.duration_since(*queued_at) >= shared.deadline + LOST_JOB_GRACE {
            let envelope = protocol::err_envelope(id, "internal error: compute result lost");
            conn.pending[0] = refused(shared, loop_index, Tally::Error, envelope);
        }
    }
}

/// Put the connection back in its slot, or retire it if finished.
#[allow(clippy::too_many_arguments)]
fn park_or_retire(
    shared: &Shared,
    loop_index: usize,
    poller: &mut dyn Readiness,
    conns: &mut [Option<Conn>],
    free_slots: &mut Vec<usize>,
    arena: &mut Vec<(FrameBuf, Vec<u8>)>,
    slot: usize,
    conn: Conn,
) {
    let flushed = conn.write_backlog() == 0;
    let finished = conn.dead
        || ((conn.torn || conn.poisoned) && flushed)
        || (conn.read_closed && conn.pending.is_empty() && flushed);
    if finished {
        retire_conn(shared, loop_index, poller, free_slots, arena, slot, conn);
    } else {
        conns[slot] = Some(conn);
    }
}

#[allow(clippy::too_many_arguments)]
fn adopt(
    shared: &Shared,
    loop_index: usize,
    poller: &mut dyn Readiness,
    conns: &mut Vec<Option<Conn>>,
    free_slots: &mut Vec<usize>,
    arena: &mut Vec<(FrameBuf, Vec<u8>)>,
    stream: TcpStream,
    permit: Permit,
) {
    if stream.set_nonblocking(true).is_err() {
        return; // permit drops, budget released
    }
    // Replies are batched already; never let Nagle delay the batch.
    let _ = stream.set_nodelay(true);
    let slot = free_slots.pop().unwrap_or_else(|| {
        conns.push(None);
        conns.len() - 1
    });
    let token = slot + TOKEN_BASE;
    let gen = shared.loops[loop_index].gen.fetch_add(1, Ordering::Relaxed) + 1;
    let (frames, write_buf) = arena.pop().unwrap_or_else(|| {
        (
            FrameBuf::new(READ_BASELINE),
            Vec::with_capacity(WRITE_BASELINE),
        )
    });
    let now = Instant::now();
    let conn = Conn {
        stream,
        token,
        gen,
        frames,
        write_buf,
        write_pos: 0,
        pending: VecDeque::new(),
        next_seq: 0,
        last_read: now,
        last_write: now,
        interest: Interest::READ,
        read_closed: false,
        poisoned: false,
        torn: false,
        dead: false,
        stalled_until: None,
        _permit: permit,
    };
    if poller
        .register(fd_of(&conn.stream), token, Interest::READ)
        .is_err()
    {
        free_slots.push(slot);
        shared.tally(loop_index, Tally::Rejected);
        return; // conn drops, permit releases
    }
    conns[slot] = Some(conn);
}

fn retire_conn(
    shared: &Shared,
    loop_index: usize,
    poller: &mut dyn Readiness,
    free_slots: &mut Vec<usize>,
    arena: &mut Vec<(FrameBuf, Vec<u8>)>,
    slot: usize,
    conn: Conn,
) {
    let Conn {
        stream,
        mut frames,
        mut write_buf,
        _permit,
        ..
    } = conn;
    let _ = poller.deregister(fd_of(&stream));
    drop(stream);
    drop(_permit);
    // Recycle the buffers: framing state cleared, grown capacity shed.
    frames.reset();
    write_buf.clear();
    if write_buf.capacity() > WRITE_BASELINE * 4 {
        write_buf.shrink_to(WRITE_BASELINE);
    }
    if arena.len() < ARENA_MAX {
        arena.push((frames, write_buf));
    }
    free_slots.push(slot);
    if shared.inject(loop_index, Failpoint::WorkerDeath) {
        // Chaos: kill the loop on connection retirement. loop_main
        // catches the unwind and respawns it with a fresh poller.
        panic!("chaos: injected worker death");
    }
}

// ---------------------------------------------------------------------------
// The read path: nonblocking reads → incremental frames → tickets
// ---------------------------------------------------------------------------

fn on_readable(shared: &Shared, loop_index: usize, conn: &mut Conn, ltrace: &mut LoopTrace) {
    if conn.read_closed || conn.poisoned || conn.torn || conn.dead {
        return;
    }
    loop {
        if conn.write_backlog() > WRITE_HIGH_WATER {
            return; // flow control: resume when the backlog drains
        }
        let spare = conn.frames.spare();
        let window = spare.len();
        match conn.stream.read(spare) {
            Ok(0) => {
                conn.read_closed = true;
                // A final request sent without its newline still gets
                // answered (the write half may outlive the read half).
                if let Some((start, end)) = conn.frames.take_eof_line() {
                    dispatch_line(shared, loop_index, conn, ltrace, start, end);
                }
                return;
            }
            Ok(count) => {
                conn.frames.commit(count);
                conn.last_read = Instant::now();
                process_frames(shared, loop_index, conn, ltrace);
                if conn.poisoned || conn.dead {
                    return;
                }
                if count < window {
                    return; // likely drained; level-triggering re-reports
                }
            }
            Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(error) if error.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

fn process_frames(shared: &Shared, loop_index: usize, conn: &mut Conn, ltrace: &mut LoopTrace) {
    loop {
        match conn.frames.next_frame() {
            Frame::None => return,
            Frame::Oversized => {
                let envelope = protocol::err_envelope(
                    "null",
                    &format!(
                        "request too large (limit {} bytes)",
                        protocol::MAX_REQUEST_BYTES
                    ),
                );
                conn.pending
                    .push_back(refused(shared, loop_index, Tally::Error, envelope));
            }
            Frame::Line { start, end } => {
                dispatch_line(shared, loop_index, conn, ltrace, start, end);
                if conn.poisoned {
                    return;
                }
            }
        }
    }
}

/// Parse and answer one framed line, under per-request panic isolation:
/// whatever the request path does, this loop answers (or hangs up after
/// flushing) and lives to serve its other connections.
fn dispatch_line(
    shared: &Shared,
    loop_index: usize,
    conn: &mut Conn,
    ltrace: &mut LoopTrace,
    start: usize,
    end: usize,
) {
    let token = conn.token;
    let gen = conn.gen;
    let text = String::from_utf8_lossy(conn.frames.bytes(start, end));
    let line = text.trim();
    if line.is_empty() {
        return;
    }
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        handle_request(
            shared,
            loop_index,
            token,
            gen,
            ltrace,
            &mut conn.next_seq,
            &mut conn.pending,
            line,
        );
    }));
    if outcome.is_err() {
        let envelope = protocol::err_envelope("null", "internal error: request handler panicked");
        conn.pending
            .push_back(refused(shared, loop_index, Tally::PanicError, envelope));
        // The connection state is unknown after a panic — answer, flush,
        // hang up.
        conn.poisoned = true;
    }
}

fn op_name(query: &Query) -> &'static str {
    match query {
        Query::Ping => "ping",
        Query::Measure { .. } => "measure",
        Query::Table { .. } => "table",
        Query::Lint { .. } => "lint",
        Query::Analyze { .. } => "analyze",
        Query::Trace { .. } => "trace",
        Query::Counters { .. } => "counters",
        Query::Spans => "spans",
        Query::Metrics => "metrics",
        Query::Health { .. } => "health",
        Query::Cluster => "cluster",
        Query::Shutdown => "shutdown",
        Query::MeasureSpec { .. } => "measure",
        Query::Admin { .. } => "admin",
        Query::SpecFetch => "spec-fetch",
    }
}

/// Answer one request line: control queries and landed cache entries
/// resolve inline on the loop; data-query misses become compute-pool
/// jobs behind an ordered `Waiting` ticket.
///
/// Telemetry rides the same path. The sampling decision is made before
/// parse from the per-loop counter — an unsampled request takes one
/// branch and never allocates or reads the clock for tracing; a sampled
/// one gets a [`PendingTrace`] that follows the request through queue,
/// pool, cache and write batch.
#[allow(clippy::too_many_arguments)]
fn handle_request(
    shared: &Shared,
    loop_index: usize,
    token: Token,
    gen: u64,
    ltrace: &mut LoopTrace,
    next_seq: &mut u64,
    pending: &mut VecDeque<Ticket>,
    line: &str,
) {
    let started = Instant::now();
    let start_us = shared.uptime_us();
    let sampled = ltrace.tick(shared.hub.sample_every());
    let mut trace = if sampled {
        Some(PendingTrace::start(
            &mut ltrace.ids,
            "unknown",
            loop_index,
            start_us,
        ))
    } else {
        None
    };
    let request = match protocol::parse_request(line) {
        Ok(request) => request,
        Err((message, id)) => {
            // A line that fails to parse has no op to trace: the sampled
            // slot is spent (ids stay deterministic), the trace dropped.
            let envelope = protocol::err_envelope(&id, &message);
            pending.push_back(refused(shared, loop_index, Tally::Error, envelope));
            return;
        }
    };
    let op = op_name(&request.query);
    if let Some(trace) = trace.as_mut() {
        trace.op = op;
        trace.stage_from_mark("decode", shared.uptime_us());
    }
    // Capture the registry snapshot for this request's whole lifetime:
    // the cache key, the computation, and the reply's `epoch` all
    // resolve against it, so a swap mid-request changes nothing for
    // work already admitted.
    let snapshot = shared.registry.snapshot();
    let mut origin = Origin {
        id: request.id,
        op,
        started,
        start_us,
        epoch: snapshot.epoch(),
        trace,
    };
    let refuse =
        |message: &str| Reply::Refused(Tally::Error, protocol::err_envelope(&origin.id, message));
    let reply = match &request.query {
        Query::Ping => Reply::Ok(Arc::from("{\"pong\":true}"), None),
        Query::Spans => Reply::Ok(
            Arc::from(
                osarch_core::metrics::serve_chains_chrome_json(&shared.hub.chains()).trim_end(),
            ),
            None,
        ),
        Query::Metrics => Reply::Ok(
            Arc::from(
                osarch_core::metrics::metrics_snapshot_json(&shared.telemetry_snapshot())
                    .trim_end(),
            ),
            None,
        ),
        Query::Health { gossip } => {
            let (gauges, totals) = shared.gauges_and_totals();
            let mut payload = health_payload(&gauges, &totals);
            if let Some(cluster) = &shared.cluster {
                // Anti-entropy piggybacks on the liveness probe: merge
                // the caller's digest (if any), answer with ours.
                let digest = {
                    let mut membership = lock(&cluster.membership);
                    if let Some(incoming) = gossip {
                        membership.merge_digest(incoming);
                    }
                    membership.digest()
                };
                payload.truncate(payload.len() - 1);
                // The spec digest rides the same probe: a peer that sees
                // a newer epoch here pulls the spec set via `spec-fetch`.
                payload.push_str(&format!(
                    ",\"gossip\":\"{}\",\"spec\":\"{}\"}}",
                    osarch_core::metrics::json_escape(&digest),
                    snapshot.digest()
                ));
            }
            Reply::Ok(payload.into(), None)
        }
        Query::Cluster => match &shared.cluster {
            Some(cluster) => Reply::Ok(cluster.status_payload().into(), None),
            None => refuse("cluster: not running in cluster mode"),
        },
        Query::Shutdown => {
            // Initiate before replying: shutdown must happen even when
            // the client hangs up without reading the acknowledgement.
            initiate_shutdown(shared);
            Reply::Ok(Arc::from("{\"shutting_down\":true}"), None)
        }
        Query::SpecFetch => Reply::Ok(snapshot.fetch_payload().into(), None),
        Query::Admin {
            action,
            token,
            name,
            spec,
        } => match handle_admin(
            shared,
            loop_index,
            *action,
            token,
            name.as_deref(),
            spec.as_deref(),
        ) {
            Ok(payload) => {
                // Admin replies report the post-action epoch: an
                // activation's envelope carries the epoch it created.
                origin.epoch = shared.registry.snapshot().epoch();
                Reply::Ok(payload.into(), None)
            }
            Err(message) => refuse(&message),
        },
        query => match admit(shared, query, request.forwarded, line, &snapshot, &origin) {
            Err(refusal) => refusal,
            Ok((key, relay)) => match relay
                .is_none()
                .then(|| shared.cache.try_get(&key))
                .flatten()
            {
                Some(hit) => {
                    if let Some(trace) = origin.trace.as_mut() {
                        // Inline hit: the whole cache stage is the lookup.
                        trace.stage_from_mark("cache", shared.uptime_us());
                    }
                    Reply::Ok(hit, Some(true))
                }
                None => {
                    // Miss (or in flight, or a relay): offload. The
                    // bounded job queue is the compute-side backpressure
                    // valve.
                    let seq = *next_seq;
                    *next_seq += 1;
                    if let Some(trace) = origin.trace.as_mut() {
                        // The pool closes this as the `queue` stage.
                        trace.mark(shared.uptime_us());
                    }
                    let id = origin.id.clone();
                    let job = Job {
                        loop_index,
                        token,
                        gen,
                        seq,
                        key,
                        query: query.clone(),
                        snapshot: Arc::clone(&snapshot),
                        relay,
                        origin,
                    };
                    pending.push_back(match shared.jobs.try_push(job) {
                        Ok(()) => Ticket::Waiting {
                            seq,
                            id,
                            queued_at: started,
                        },
                        Err(_) => {
                            let envelope =
                                protocol::err_envelope(&id, "server busy: compute queue full");
                            refused(shared, loop_index, Tally::Error, envelope)
                        }
                    });
                    return;
                }
            },
        },
    };
    pending.push_back(finish(shared, loop_index, origin, reply));
}

/// Admit a data query: the snapshot-scoped cache key it is served under
/// and, in cluster mode, the replica to relay it to — or the refusal
/// that answers it instead.
fn admit(
    shared: &Shared,
    query: &Query,
    forwarded: bool,
    line: &str,
    snapshot: &SpecSnapshot,
    origin: &Origin,
) -> Result<(String, Option<Relay>), Reply> {
    let refuse = |envelope: String| Err(Reply::Refused(Tally::Error, envelope));
    // A query kind with no cache key would once have panicked the worker
    // here; now it is a clean error envelope.
    let Some(routing_key) = query.routing_key() else {
        let message = format!("internal error: {} query has no cache key", origin.op);
        return refuse(protocol::err_envelope(&origin.id, &message));
    };
    // A spec measurement must name a spec the captured snapshot actually
    // holds — resolved here, before any offload, so the compute path can
    // rely on existence.
    if let Query::MeasureSpec { name, .. } = query {
        if snapshot.spec(name).is_none() {
            let loaded: Vec<&str> = snapshot.entries().iter().map(|e| e.name.as_str()).collect();
            let message = format!(
                "unknown spec {name:?} at epoch {}; loaded specs: [{}]",
                snapshot.epoch(),
                loaded.join(", ")
            );
            return refuse(protocol::err_envelope(&origin.id, &message));
        }
    }
    // The epoch-free routing key places the request on the ring
    // (ownership must not move on a swap); the snapshot-scoped cache key
    // isolates cached replies per epoch.
    let key = format!("{}{routing_key}", snapshot.key_prefix());
    // Cluster routing: a key this node does not replicate is relayed to a
    // replica (proxy mode) or answered with a `not_owner` redirect. A
    // forwarded request is never re-forwarded (loop guard on the `fwd`
    // marker), and with every replica written off the key is computed
    // locally — availability over placement, since any node can compute
    // any key.
    let Some(cluster) = &shared.cluster else {
        return Ok((key, None));
    };
    let replicas = cluster.ring.replicas(&routing_key, cluster.replicas);
    if replicas.iter().any(|addr| *addr == cluster.self_addr) {
        if forwarded {
            cluster.proxied.fetch_add(1, Ordering::Relaxed);
        }
        return Ok((key, None));
    }
    if forwarded || !cluster.proxy {
        cluster.redirected.fetch_add(1, Ordering::Relaxed);
        let owner = replicas.first().copied().unwrap_or("");
        return refuse(protocol::not_owner_envelope(
            &origin.id,
            &routing_key,
            owner,
            &replicas,
        ));
    }
    let target = {
        let membership = lock(&cluster.membership);
        replicas
            .iter()
            .find(|addr| !membership.is_down(addr))
            .map(|addr| (*addr).to_string())
    };
    let relay = target.map(|target| {
        cluster.forwarded.fetch_add(1, Ordering::Relaxed);
        // Re-frame the original flat line with the relay marker; the
        // peer answers under the same id, so its envelope passes through
        // verbatim.
        let mut fwd_line = line.to_string();
        fwd_line.truncate(fwd_line.len() - 1);
        fwd_line.push_str(",\"fwd\":\"1\"}");
        Relay {
            target,
            line: fwd_line,
        }
    });
    Ok((key, relay))
}

/// The `health` payload: liveness in one line, a view over the same
/// gauges and totals the `metrics` snapshot carries (no histogram is
/// merged on the probe path). `queue_depth` is the compute-offload
/// backlog, `conns_open` the connections admitted against
/// `conn_budget` (so a prober sees headroom, not just load), and
/// `workers_live` the event loops inside their serving tenure (respawns
/// keep it at `workers`). With the cache hit ratio, the age of the
/// oldest unflushed reply and the resilience counters, a prober tells
/// "healthy", "degraded but serving" and "shedding load" apart without
/// scraping the full snapshot.
fn health_payload(gauges: &Gauges, totals: &Totals) -> String {
    let status = if gauges.shutting_down {
        "shutting_down"
    } else if gauges.workers_live < gauges.workers {
        "impaired"
    } else if totals.degraded > 0 || totals.panics > 0 {
        "degraded"
    } else {
        "ok"
    };
    format!(
        concat!(
            "{{\"status\":\"{}\",\"workers\":{},\"workers_live\":{},",
            "\"queue_depth\":{},\"conns_open\":{},\"conn_budget\":{},",
            "\"cache_hit_ratio\":{},\"oldest_write_backlog_ms\":{},",
            "\"shutting_down\":{},",
            "\"panics\":{},\"degraded\":{},\"worker_respawns\":{},",
            "\"faults_injected\":{},\"requests\":{},\"errors\":{},\"rejected\":{}}}"
        ),
        status,
        gauges.workers,
        gauges.workers_live,
        gauges.compute_backlog,
        gauges.conns_open,
        gauges.conn_budget,
        json_number(totals.cache_hit_ratio()),
        gauges.oldest_write_backlog_ms,
        gauges.shutting_down,
        totals.panics,
        totals.degraded,
        totals.worker_respawns,
        totals.faults_injected,
        totals.requests,
        totals.errors,
        totals.rejected,
    )
}

/// Constant-time token comparison: the byte-fold visits every byte of
/// both strings regardless of where they first differ, so response
/// timing leaks neither the match prefix length nor (beyond the
/// unavoidable length class) the expected token.
fn token_matches(expected: &str, got: &str) -> bool {
    let mut diff = expected.len() ^ got.len();
    for (a, b) in expected.bytes().zip(got.bytes()) {
        diff |= usize::from(a ^ b);
    }
    diff == 0
}

/// Execute one authenticated `admin` action. Runs inline on the event
/// loop — admin traffic is rare and must serialize naturally against
/// the loop's own dispatch. Returns the reply payload or a one-line
/// error (rendered as an error envelope by the caller).
fn handle_admin(
    shared: &Shared,
    loop_index: usize,
    action: AdminAction,
    token: &str,
    name: Option<&str>,
    spec: Option<&str>,
) -> Result<String, String> {
    let Some(expected) = &shared.admin_token else {
        return Err("admin: disabled (server started without --admin-token)".to_string());
    };
    if !token_matches(expected, token) {
        return Err("admin: invalid token".to_string());
    }
    let registry = &shared.registry;
    match action {
        AdminAction::SpecLoad => {
            let doc = spec.unwrap_or_default();
            let staged = registry.stage(doc).map_err(|e| format!("spec-load: {e}"))?;
            Ok(format!(
                "{{\"action\":\"spec-load\",\"staged\":\"{}\",\"epoch\":{}}}",
                osarch_core::metrics::json_escape(&staged),
                registry.snapshot().epoch()
            ))
        }
        AdminAction::SpecActivate => activate_spec(shared, loop_index, name.unwrap_or_default()),
        AdminAction::SpecRollback => {
            let swap_started = Instant::now();
            let restored = registry.rollback(None);
            shared.cache.retain_prefix(restored.key_prefix());
            registry.record_swap_latency(swap_started.elapsed().as_micros() as u64);
            Ok(format!(
                "{{\"action\":\"spec-rollback\",\"epoch\":{},\"digest\":\"{}\"}}",
                restored.epoch(),
                restored.digest()
            ))
        }
        AdminAction::SpecList => {
            let snapshot = registry.snapshot();
            let active: Vec<String> = snapshot
                .entries()
                .iter()
                .map(|e| format!("\"{}\"", osarch_core::metrics::json_escape(&e.name)))
                .collect();
            let staged: Vec<String> = registry
                .staged_names()
                .iter()
                .map(|n| format!("\"{}\"", osarch_core::metrics::json_escape(n)))
                .collect();
            Ok(format!(
                concat!(
                    "{{\"action\":\"spec-list\",\"epoch\":{},\"digest\":\"{}\",",
                    "\"swaps\":{},\"rollbacks\":{},\"active\":[{}],\"staged\":[{}]}}"
                ),
                snapshot.epoch(),
                snapshot.digest(),
                registry.swaps(),
                registry.rollbacks(),
                active.join(","),
                staged.join(",")
            ))
        }
    }
}

/// The activation pipeline: staged doc → parse → lint gate → absint
/// proof gate → epoch commit → measurement probe under panic
/// containment. A probe failure (including an injected `CorruptSpec`
/// fault) rolls the registry back to last-good automatically; the reply
/// reports which way it went.
fn activate_spec(shared: &Shared, loop_index: usize, name: &str) -> Result<String, String> {
    let registry = &shared.registry;
    let swap_started = Instant::now();
    let doc = registry
        .staged_doc(name)
        .ok_or_else(|| format!("spec-activate: {name:?} is not staged (spec-load it first)"))?;
    let (_, spec) =
        osarch_cpu::ArchSpec::from_json(&doc).map_err(|e| format!("spec-activate: {e}"))?;
    // Gate 1: the lint rules that run over every builtin must pass for
    // the candidate too (warnings allowed, errors fatal).
    let lint = osarch_core::Analyzer::new().analyze_spec(&spec);
    if !lint.passes(false) {
        return Err(format!(
            "spec-activate: {name:?} fails lint ({} diagnostics)",
            lint.diagnostics().len()
        ));
    }
    // Gate 2: the abstract-interpretation verifier must produce a proof
    // artifact with zero refuted obligations.
    let absint = osarch_core::AbsintAnalyzer::new().analyze_spec(&spec);
    let (_, refuted, _) = absint.verdict_counts();
    if refuted > 0 {
        return Err(format!(
            "spec-activate: {name:?} refuted by the dataflow verifier ({refuted} obligations)"
        ));
    }
    // Commit: the prior active becomes last-good; a lost race against a
    // concurrent activation leaves the registry untouched.
    let base = registry.snapshot();
    let candidate = base
        .with_spec(&doc, base.epoch() + 1)
        .map_err(|e| format!("spec-activate: {e}"))?;
    let committed = registry.commit(candidate).map_err(|active| {
        format!("spec-activate: lost a concurrent activation race (active epoch {active}); retry")
    })?;
    shared.cache.retain_prefix(committed.key_prefix());
    // Probe: measure every primitive of the candidate under panic
    // containment. This is where a corrupt spec blows up — and where
    // chaos pretends one did.
    let probe = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if shared.inject(loop_index, Failpoint::CorruptSpec) {
            panic!("chaos: injected spec corruption during the activation probe");
        }
        let spec = committed
            .spec(name)
            .expect("the spec was committed under this name one line ago");
        for primitive in osarch_kernel::Primitive::all() {
            let _ = osarch_core::metrics::measure_spec_json(name, spec, primitive);
        }
    }));
    let swap_us = swap_started.elapsed().as_micros() as u64;
    registry.record_swap_latency(swap_us);
    match probe {
        Ok(()) => {
            if shared.inject(loop_index, Failpoint::SwapLoopDeath) {
                // Chaos: arm the loop-death flag; the event loop checks
                // it outside dispatch's catch_unwind and dies for real
                // before this reply is written.
                registry.swap_loop_death.store(true, Ordering::SeqCst);
            }
            Ok(format!(
                concat!(
                    "{{\"action\":\"spec-activate\",\"name\":\"{}\",\"activated\":true,",
                    "\"rolled_back\":false,\"epoch\":{},\"digest\":\"{}\",\"swap_us\":{}}}"
                ),
                osarch_core::metrics::json_escape(name),
                committed.epoch(),
                committed.digest(),
                swap_us
            ))
        }
        Err(_) => {
            // The candidate died mid-probe: automatic rollback to the
            // last-good content at a fresh epoch, candidate unstaged.
            shared.tally(loop_index, Tally::ProbePanic);
            let restored = registry.rollback(Some(name));
            shared.cache.retain_prefix(restored.key_prefix());
            Ok(format!(
                concat!(
                    "{{\"action\":\"spec-activate\",\"name\":\"{}\",\"activated\":false,",
                    "\"rolled_back\":true,\"epoch\":{},\"digest\":\"{}\",\"swap_us\":{}}}"
                ),
                osarch_core::metrics::json_escape(name),
                restored.epoch(),
                restored.digest(),
                swap_us
            ))
        }
    }
}

/// The one reply path: every request that parsed ends here, with its
/// [`Origin`] and [`Reply`]. A refusal is counted and delivered as is.
/// Anything else is checked against the deadline, counted once (a
/// degraded reply twice if it also misses), marked ready on its trace
/// (from here to batching is the `write` stage) and rendered into an
/// envelope that write-path chaos may stall or tear.
fn finish(shared: &Shared, loop_index: usize, origin: Origin, reply: Reply) -> Ticket {
    let Origin {
        id,
        op,
        started,
        start_us,
        epoch,
        mut trace,
    } = origin;
    let service = started.elapsed();
    let service_us = service.as_micros() as u64;
    let (hit, envelope) = match reply {
        Reply::Ok(payload, hit) => (
            hit,
            protocol::ok_envelope(&id, hit == Some(true), epoch, service_us, &payload),
        ),
        Reply::Degraded(payload, error) => {
            shared.tally(loop_index, Tally::Degraded);
            (
                Some(true),
                protocol::degraded_envelope(&id, epoch, service_us, &payload, &error),
            )
        }
        // Served, but not a local cache event.
        Reply::Relayed(envelope) => (None, envelope),
        Reply::Refused(tally, envelope) => return refused(shared, loop_index, tally, envelope),
    };
    if service > shared.deadline {
        let message = format!(
            "deadline exceeded: served in {service_us} us, deadline {} us",
            shared.deadline.as_micros()
        );
        let envelope = protocol::err_envelope(&id, &message);
        return refused(shared, loop_index, Tally::DeadlineMiss, envelope);
    }
    shared.hub.record_served(
        loop_index,
        op_slot(op),
        service_us,
        hit,
        start_us / 1_000_000,
    );
    if let Some(trace) = trace.as_mut() {
        trace.mark(shared.uptime_us());
    }
    Ticket::Done {
        envelope,
        chaos: true,
        trace,
    }
}

/// An error ticket: count `tally` and deliver `envelope` faithfully — no
/// write-path chaos, no trace.
fn refused(shared: &Shared, loop_index: usize, tally: Tally, envelope: String) -> Ticket {
    shared.tally(loop_index, tally);
    Ticket::Done {
        envelope,
        chaos: false,
        trace: None,
    }
}

// ---------------------------------------------------------------------------
// Completions and the write path
// ---------------------------------------------------------------------------

/// Resolve the `Waiting` ticket a completion belongs to. Tickets settle
/// in any order; replies still leave in request order.
fn settle_ticket(shared: &Shared, loop_index: usize, conn: &mut Conn, completion: Completion) {
    let Some(position) = conn
        .pending
        .iter()
        .position(|ticket| matches!(ticket, Ticket::Waiting { seq, .. } if *seq == completion.seq))
    else {
        return;
    };
    conn.pending[position] = finish(shared, loop_index, completion.origin, completion.reply);
}

/// Move the completed reply prefix into the write buffer (one batched
/// write per pass), attempt the flush, and reconcile poller interest.
fn service_conn(shared: &Shared, loop_index: usize, poller: &mut dyn Readiness, conn: &mut Conn) {
    while !conn.torn && matches!(conn.pending.front(), Some(Ticket::Done { .. })) {
        let Some(Ticket::Done {
            envelope,
            chaos,
            trace,
        }) = conn.pending.pop_front()
        else {
            unreachable!("front checked above");
        };
        if chaos {
            if let Some(delay) = shared.inject_delay(
                loop_index,
                Failpoint::WriteStall,
                WRITE_STALL_MIN,
                WRITE_STALL_MAX,
            ) {
                // Chaos: sit on the finished response (drives client
                // timeouts) — emulated by a flush embargo, never by
                // blocking the loop.
                let until = Instant::now() + delay;
                conn.stalled_until = Some(conn.stalled_until.map_or(until, |t| t.max(until)));
            }
            if shared.inject(loop_index, Failpoint::WritePartial) {
                // Chaos: emit a torn response — a prefix with no newline
                // — then fail the connection. Clients must never parse
                // this as a reply.
                let bytes = envelope.as_bytes();
                if conn.write_buf.is_empty() {
                    conn.last_write = Instant::now();
                }
                conn.write_buf.extend_from_slice(&bytes[..bytes.len() / 2]);
                conn.torn = true;
                break;
            }
        }
        if conn.write_buf.is_empty() {
            conn.last_write = Instant::now();
        }
        conn.write_buf.extend_from_slice(envelope.as_bytes());
        conn.write_buf.push(b'\n');
        if let Some(mut trace) = trace {
            // The chain closes when the reply lands in the write batch:
            // past this point delivery is the kernel's problem, and the
            // flush cost is visible as loop lag rather than per-request.
            let now_us = shared.uptime_us();
            trace.stage_from_mark("write", now_us);
            shared.hub.push_chain(trace.finish(now_us));
        }
    }
    flush_writes(conn);
    update_interest(poller, conn);
}

fn flush_writes(conn: &mut Conn) {
    if conn.dead {
        return;
    }
    if let Some(until) = conn.stalled_until {
        if Instant::now() < until {
            return; // chaos embargo still running
        }
        conn.stalled_until = None;
    }
    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(count) => {
                conn.write_pos += count;
                conn.last_write = Instant::now();
            }
            Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(error) if error.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    if conn.write_pos >= conn.write_buf.len() {
        conn.write_buf.clear();
        conn.write_pos = 0;
        if conn.write_buf.capacity() > WRITE_BASELINE * 4 {
            // An oversized burst must not pin its high-water allocation.
            conn.write_buf.shrink_to(WRITE_BASELINE);
        }
    }
}

/// Reconcile poller interest with connection state: write interest only
/// while a backlog is draining (and not chaos-stalled), read interest
/// until the connection stops reading or flow control engages.
fn update_interest(poller: &mut dyn Readiness, conn: &mut Conn) {
    if conn.dead {
        return;
    }
    let desired = Interest {
        readable: !conn.read_closed
            && !conn.poisoned
            && !conn.torn
            && conn.write_backlog() <= WRITE_HIGH_WATER,
        writable: conn.write_backlog() > 0 && conn.stalled_until.is_none(),
    };
    if desired != conn.interest
        && poller
            .reregister(fd_of(&conn.stream), conn.token, desired)
            .is_ok()
    {
        conn.interest = desired;
    }
}

// ---------------------------------------------------------------------------
// The `osarch serve` front end
// ---------------------------------------------------------------------------

/// `osarch serve`'s synopsis: its usage-text entry and the tail of its
/// refusal lines.
pub const SYNOPSIS: Synopsis = Synopsis {
    command: "serve",
    grammar: &[
        "[--addr A] [--workers N] [--shards N] [--queue N] [--deadline-ms N]",
        "[--sample N] [--metrics-addr A] [--admin-token T]",
        "[--cluster --peers A,B,C [--replicas R]",
        " [--incarnation N] [--gossip-ms N] [--no-proxy]]",
    ],
    about: &[
        "run the event-driven measurement-query service",
        "(one poll loop per worker; --queue bounds open conns;",
        "--sample traces 1/N requests, --metrics-addr binds a",
        "Prometheus/JSON scrape listener; --admin-token enables",
        "the live spec-swap admin op — without it the control",
        "plane does not exist; --cluster joins a consistent-",
        "hash ring over the --peers seed list)",
    ],
};

/// The `osarch serve` front end: read `args` into a [`ServerConfig`],
/// start the server and serve until a `shutdown` request. `Err` carries a
/// one-line refusal (exit 2 at the caller), returned before any port is
/// bound: an argument the reader refuses, a cluster flag without
/// `--cluster`, or a setting [`Server::start`] refuses as `InvalidInput`.
pub fn cli(args: &[String]) -> Result<ExitCode, String> {
    let mut args = Args::new(&SYNOPSIS, args);
    let mut config = ServerConfig::default();
    let defaults = ClusterConfig::default();
    let any = |_: &String| true;
    config.addr = args
        .value("--addr", "HOST:PORT", any)?
        .unwrap_or(config.addr);
    config.workers = args
        .value("--workers", COUNT, |_| true)?
        .unwrap_or(config.workers);
    config.shards = args
        .value("--shards", COUNT, |_| true)?
        .unwrap_or(config.shards);
    let queue = args.value("--queue", COUNT, |_| true)?;
    config.queue_depth = queue.unwrap_or(config.queue_depth);
    let deadline_ms = args.value("--deadline-ms", "milliseconds", |_| true)?;
    config.deadline = deadline_ms.map_or(config.deadline, Duration::from_millis);
    let sample = args.value("--sample", "an integer divisor (0 disables)", |_| true)?;
    config.sample_every = sample.unwrap_or(config.sample_every);
    config.metrics_addr = args.value("--metrics-addr", "HOST:PORT", any)?;
    config.admin_token = args.value("--admin-token", "a token", any)?;
    let cluster = args.switch("--cluster");
    let peers: Option<String> = args.value("--peers", "a HOST:PORT list", any)?;
    let replicas = args.value("--replicas", COUNT, |_| true)?;
    let incarnation = args.value("--incarnation", "an integer", |_| true)?;
    let gossip_ms = args.value("--gossip-ms", GOSSIP_MS, |_| true)?;
    let no_proxy = args.switch("--no-proxy");
    args.finish()?;
    let cluster_only = [
        ("--peers", peers.is_some()),
        ("--replicas", replicas.is_some()),
        ("--incarnation", incarnation.is_some()),
        ("--gossip-ms", gossip_ms.is_some()),
        ("--no-proxy", no_proxy),
    ];
    if let Some((flag, _)) = cluster_only.iter().find(|(_, given)| *given && !cluster) {
        return Err(format!("{flag} requires --cluster"));
    }
    if cluster {
        // The ring address must be dialable by peers; an ephemeral `:0`
        // bind could never appear in a seed list.
        if config.addr.ends_with(":0") {
            return Err(
                "--cluster requires an explicit --addr (the node's dialable ring address)"
                    .to_string(),
            );
        }
        let peers = peers.unwrap_or_default();
        config.cluster = Some(ClusterConfig {
            self_addr: config.addr.clone(),
            peers: peers
                .split(',')
                .filter(|peer| !peer.is_empty())
                .map(str::to_string)
                .collect(),
            replicas: replicas.unwrap_or(defaults.replicas),
            incarnation: incarnation.unwrap_or(defaults.incarnation),
            proxy: !no_proxy,
            gossip_interval: gossip_ms.map_or(defaults.gossip_interval, Duration::from_millis),
        });
    }
    let handle = match Server::start(&config) {
        Ok(handle) => handle,
        Err(err) if err.kind() == ErrorKind::InvalidInput => return Err(err.to_string()),
        Err(err) => {
            eprintln!("cannot bind {}: {err}", config.addr);
            return Ok(ExitCode::FAILURE);
        }
    };
    println!(
        "osarch-serve listening on {} ({} workers, {} shards); \
         send {{\"op\":\"shutdown\"}} to stop",
        handle.addr(),
        config.workers,
        config.shards
    );
    if let Some(cluster) = &config.cluster {
        println!(
            "cluster mode: {} peers, R={}, {} vnodes, proxy={} \
             (query {{\"op\":\"cluster\"}} for ring + membership)",
            cluster.peers.len(),
            cluster.replicas,
            osarch_cluster::DEFAULT_VNODES,
            cluster.proxy
        );
    }
    if config.admin_token.is_some() {
        println!(
            "admin plane enabled: spec-load / spec-activate / spec-rollback / spec-list \
             via {{\"op\":\"admin\",...}} with the configured token"
        );
    }
    if let Some(scrape) = handle.metrics_addr() {
        println!("metrics scrape listener on {scrape} (text; /json for the snapshot)");
    }
    handle.wait();
    println!("osarch-serve: shut down cleanly");
    Ok(ExitCode::SUCCESS)
}

/// Injected computation stalls: long enough to blow tight deadlines,
/// short enough to keep soak throughput alive.
const COMPUTE_DELAY_MIN: Duration = Duration::from_millis(20);
const COMPUTE_DELAY_MAX: Duration = Duration::from_millis(120);

/// Injected response stalls: sized to straddle typical client
/// per-attempt timeouts.
const WRITE_STALL_MIN: Duration = Duration::from_millis(50);
const WRITE_STALL_MAX: Duration = Duration::from_millis(400);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_payload_reflects_liveness_and_degradation() {
        let gauges = Gauges {
            compute_backlog: 3,
            conns_open: 5,
            conn_budget: 64,
            workers: 2,
            workers_live: 2,
            oldest_write_backlog_ms: 17,
            ..Gauges::default()
        };
        let totals = Totals {
            cache_hits: 2,
            cache_coalesced: 1,
            cache_misses: 1,
            ..Totals::default()
        };
        let healthy = health_payload(&gauges, &totals);
        assert!(json::parse(&healthy).is_ok(), "{healthy}");
        for field in [
            "\"status\":\"ok\"",
            "\"workers_live\":2",
            "\"queue_depth\":3",
            "\"conns_open\":5",
            "\"conn_budget\":64",
            "\"cache_hit_ratio\":0.75",
            "\"oldest_write_backlog_ms\":17",
        ] {
            assert!(healthy.contains(field), "missing {field}: {healthy}");
        }
        // A contained panic degrades the verdict; with no lookups the
        // ratio reads 0, not NaN. A missing loop outranks that, and
        // shutdown outranks everything.
        let panicked = Totals {
            panics: 1,
            ..Totals::default()
        };
        let impaired = Gauges {
            workers_live: 1,
            ..gauges
        };
        let stopping = Gauges {
            shutting_down: true,
            ..impaired
        };
        for (gauges, status) in [
            (gauges, "degraded"),
            (impaired, "impaired"),
            (stopping, "shutting_down"),
        ] {
            let payload = health_payload(&gauges, &panicked);
            assert!(
                payload.contains(&format!("\"status\":\"{status}\"")),
                "{payload}"
            );
            assert!(payload.contains("\"cache_hit_ratio\":0,"), "{payload}");
        }
    }
}
