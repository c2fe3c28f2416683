//! The resilient protocol client.
//!
//! The chaos soak drives its servers through [`ResilientClient`], which
//! turns the raw line protocol into a request loop that survives a
//! misbehaving server or network. (The load generator does not retry:
//! its driver counts a lost socket as an error and re-dials it.)
//!
//! * **per-attempt timeouts** — every attempt reads under a deadline, so
//!   a stalled response costs one attempt, not the whole run;
//! * **bounded retries with exponential backoff + deterministic jitter**
//!   — backoff durations are a pure function of the client's seed and
//!   the attempt index (no wall clock in the schedule decision), so a
//!   run's retry schedule replays exactly;
//! * **a circuit breaker** — after `breaker_threshold` consecutive
//!   failures the breaker opens and sheds the next `breaker_cooldown`
//!   calls without touching the network, then half-opens for a single
//!   probe. The cooldown is counted in *calls*, not seconds, keeping the
//!   breaker deterministic too;
//! * **reply verification** — a reply must be a complete line, parse as
//!   JSON, and echo the request id exactly. Anything torn or mismatched
//!   counts as corruption, which the chaos soak asserts never happens
//!   silently.
//!
//! The client can also play the hostile peer: given a
//! [`ChaosController`], it truncates, splits, stalls and resets its own
//! requests on the controller's schedule, exercising the server's
//! framing and cleanup paths.

use osarch_chaos::{ChaosController, Failpoint};
use osarch_core::json;
use osarch_trace::{SplitMix64, GAMMA};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Client resilience knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Attempts per request (first try + retries).
    pub attempts: u32,
    /// Read deadline per attempt.
    pub attempt_timeout: Duration,
    /// Backoff before retry k is `backoff_base * 2^k` plus jitter,
    /// capped at `backoff_max`.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_max: Duration,
    /// Consecutive failures that open the circuit breaker.
    pub breaker_threshold: u32,
    /// Calls shed while the breaker is open, before half-opening.
    pub breaker_cooldown: u32,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            attempts: 3,
            attempt_timeout: Duration::from_secs(2),
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(200),
            breaker_threshold: 5,
            breaker_cooldown: 8,
            seed: 0x05a1c,
        }
    }
}

/// Why a request (attempt or whole call) failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorClass {
    /// The attempt deadline expired waiting for the reply.
    Timeout,
    /// The connection dropped, reset, or delivered a torn line.
    ConnReset,
    /// The server answered with an error envelope.
    ServerError,
    /// The circuit breaker was open; the call never reached the network.
    BreakerOpen,
}

impl ErrorClass {
    /// Stable snake_case label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ErrorClass::Timeout => "timeout",
            ErrorClass::ConnReset => "conn_reset",
            ErrorClass::ServerError => "server_error",
            ErrorClass::BreakerOpen => "breaker_open",
        }
    }
}

/// A verified reply.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The raw reply line (newline stripped).
    pub raw: String,
    /// Whether the envelope carried `"ok":true`.
    pub ok: bool,
    /// Whether the envelope carried `"cached":true`.
    pub cached: bool,
    /// Whether the envelope carried `"degraded":true`.
    pub degraded: bool,
}

/// A failed call, after retries.
#[derive(Debug, Clone)]
pub struct CallError {
    /// The class of the final (giving-up) failure.
    pub class: ErrorClass,
    /// Human-readable detail.
    pub detail: String,
}

/// Per-client tallies, for the soak and loadgen reports.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClientCounters {
    /// Calls that succeeded.
    pub oks: u64,
    /// Retry attempts beyond each call's first try.
    pub retries: u64,
    /// Calls abandoned after exhausting every attempt.
    pub giveups: u64,
    /// Times the breaker transitioned closed → open.
    pub breaker_opens: u64,
    /// Calls shed because the breaker was open.
    pub breaker_shed: u64,
    /// Attempts that timed out.
    pub timeouts: u64,
    /// Attempts that lost the connection or read a torn line.
    pub conn_resets: u64,
    /// Attempts answered with an error envelope.
    pub server_errors: u64,
    /// Replies flagged `"degraded":true`.
    pub degraded: u64,
    /// Replies that failed verification: unparseable JSON or an id echo
    /// mismatch. Must stay zero — this is the corruption detector.
    pub corrupt: u64,
}

impl ClientCounters {
    /// Add another client's tallies to these.
    pub fn accumulate(&mut self, other: &ClientCounters) {
        self.oks += other.oks;
        self.retries += other.retries;
        self.giveups += other.giveups;
        self.breaker_opens += other.breaker_opens;
        self.breaker_shed += other.breaker_shed;
        self.timeouts += other.timeouts;
        self.conn_resets += other.conn_resets;
        self.server_errors += other.server_errors;
        self.degraded += other.degraded;
        self.corrupt += other.corrupt;
    }
}

/// Circuit-breaker state machine. Deterministic: cooldown is counted in
/// shed calls, not elapsed time.
#[derive(Debug)]
enum BreakerState {
    Closed { consecutive_failures: u32 },
    Open { shed_remaining: u32 },
    HalfOpen,
}

#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    threshold: u32,
    cooldown: u32,
}

impl Breaker {
    fn new(threshold: u32, cooldown: u32) -> Breaker {
        Breaker {
            state: BreakerState::Closed {
                consecutive_failures: 0,
            },
            threshold: threshold.max(1),
            cooldown: cooldown.max(1),
        }
    }

    /// Whether a call may proceed. An open breaker sheds the call (and
    /// counts down toward half-open).
    fn admit(&mut self) -> bool {
        match &mut self.state {
            BreakerState::Closed { .. } | BreakerState::HalfOpen => true,
            BreakerState::Open { shed_remaining } => {
                if *shed_remaining == 0 {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    *shed_remaining -= 1;
                    false
                }
            }
        }
    }

    /// Report a successful call: the breaker closes.
    fn on_success(&mut self) {
        self.state = BreakerState::Closed {
            consecutive_failures: 0,
        };
    }

    /// Report a failed call. Returns `true` when this failure opened the
    /// breaker.
    fn on_failure(&mut self) -> bool {
        match &mut self.state {
            BreakerState::Closed {
                consecutive_failures,
            } => {
                *consecutive_failures += 1;
                if *consecutive_failures >= self.threshold {
                    self.state = BreakerState::Open {
                        shed_remaining: self.cooldown,
                    };
                    return true;
                }
                false
            }
            BreakerState::HalfOpen => {
                // The probe failed: re-open for a fresh cooldown.
                self.state = BreakerState::Open {
                    shed_remaining: self.cooldown,
                };
                true
            }
            BreakerState::Open { .. } => false,
        }
    }

    fn is_open(&self) -> bool {
        matches!(self.state, BreakerState::Open { .. })
    }
}

/// A reconnecting, retrying, breaker-guarded protocol client for one
/// target address.
pub struct ResilientClient {
    addr: String,
    config: ClientConfig,
    conn: Option<(BufReader<TcpStream>, TcpStream)>,
    rng: SplitMix64,
    breaker: Breaker,
    chaos: Option<Arc<ChaosController>>,
    /// Running tallies; read them with [`ResilientClient::counters`].
    counters: ClientCounters,
}

impl std::fmt::Debug for ResilientClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientClient")
            .field("addr", &self.addr)
            .field("connected", &self.conn.is_some())
            .field("breaker_open", &self.breaker.is_open())
            .field("counters", &self.counters)
            .finish()
    }
}

impl ResilientClient {
    /// A client for `addr`. Connects lazily on the first call.
    #[must_use]
    pub fn new(addr: &str, config: ClientConfig) -> ResilientClient {
        let breaker = Breaker::new(config.breaker_threshold, config.breaker_cooldown);
        ResilientClient {
            addr: addr.to_string(),
            // One step past the seed: the stream the soak transcripts replay.
            rng: SplitMix64::new(config.seed.wrapping_add(GAMMA)),
            breaker,
            config,
            conn: None,
            chaos: None,
            counters: ClientCounters::default(),
        }
    }

    /// Attach a fault-injection schedule: the client will truncate,
    /// split, stall and reset its own requests on the controller's
    /// schedule (the client-side failpoints).
    #[must_use]
    pub fn with_chaos(mut self, chaos: Arc<ChaosController>) -> ResilientClient {
        self.chaos = Some(chaos);
        self
    }

    /// The tallies so far.
    #[must_use]
    pub fn counters(&self) -> ClientCounters {
        self.counters
    }

    /// Whether the breaker is currently open.
    #[must_use]
    pub fn breaker_open(&self) -> bool {
        self.breaker.is_open()
    }

    /// Issue `line` (one request, no trailing newline) and return the
    /// verified reply. `id_token` is the raw JSON token the request
    /// carried as `id` — the reply must echo it.
    pub fn call(&mut self, line: &str, id_token: &str) -> Result<Reply, CallError> {
        if !self.breaker.admit() {
            self.counters.breaker_shed += 1;
            return Err(CallError {
                class: ErrorClass::BreakerOpen,
                detail: "circuit breaker open".to_string(),
            });
        }
        let mut last = CallError {
            class: ErrorClass::ConnReset,
            detail: "no attempt made".to_string(),
        };
        for attempt in 0..self.config.attempts.max(1) {
            if attempt > 0 {
                self.counters.retries += 1;
                std::thread::sleep(self.backoff(attempt));
            }
            match self.attempt(line, id_token) {
                Ok(reply) => {
                    self.breaker.on_success();
                    self.counters.oks += 1;
                    if reply.degraded {
                        self.counters.degraded += 1;
                    }
                    return Ok(reply);
                }
                Err(error) => {
                    match error.class {
                        ErrorClass::Timeout => self.counters.timeouts += 1,
                        ErrorClass::ConnReset => self.counters.conn_resets += 1,
                        ErrorClass::ServerError => self.counters.server_errors += 1,
                        ErrorClass::BreakerOpen => {}
                    }
                    // The connection is suspect after any failure.
                    self.conn = None;
                    last = error;
                }
            }
        }
        self.counters.giveups += 1;
        if self.breaker.on_failure() {
            self.counters.breaker_opens += 1;
        }
        Err(last)
    }

    /// Deterministic backoff before retry `attempt`: exponential in the
    /// attempt index plus seeded jitter. No wall clock participates.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let base = self.config.backoff_base.as_micros() as u64;
        let exp = base.saturating_mul(1u64 << attempt.min(16));
        let jitter = self.rng.range(base.max(1));
        Duration::from_micros(exp.saturating_add(jitter)).min(self.config.backoff_max)
    }

    /// One attempt: connect if needed, send (possibly with injected
    /// client-side faults), read one line under the attempt deadline,
    /// verify.
    fn attempt(&mut self, line: &str, id_token: &str) -> Result<Reply, CallError> {
        let conn_error = |detail: String| CallError {
            class: ErrorClass::ConnReset,
            detail,
        };
        if self.conn.is_none() {
            let stream =
                TcpStream::connect(&self.addr).map_err(|e| conn_error(format!("connect: {e}")))?;
            stream
                .set_read_timeout(Some(self.config.attempt_timeout))
                .map_err(|e| conn_error(format!("set timeout: {e}")))?;
            stream
                .set_write_timeout(Some(self.config.attempt_timeout))
                .map_err(|e| conn_error(format!("set timeout: {e}")))?;
            let reader = BufReader::new(
                stream
                    .try_clone()
                    .map_err(|e| conn_error(format!("clone: {e}")))?,
            );
            self.conn = Some((reader, stream));
        }
        let (reader, stream) = self.conn.as_mut().expect("connected above");

        // Send — with the controller's client-side faults when attached.
        let payload = format!("{line}\n");
        let sent = send_with_chaos(stream, payload.as_bytes(), self.chaos.as_deref());
        match sent {
            SendOutcome::Sent => {}
            SendOutcome::Injected(fault) => {
                // The fault cut the request short (truncate/reset); the
                // server never got a full line, so no reply is owed.
                return Err(conn_error(format!("chaos client fault: {fault}")));
            }
            SendOutcome::Failed(error) => {
                return Err(if is_timeout(&error) {
                    CallError {
                        class: ErrorClass::Timeout,
                        detail: format!("send: {error}"),
                    }
                } else {
                    conn_error(format!("send: {error}"))
                });
            }
        }

        // Receive one full line under the attempt deadline.
        let mut reply = String::new();
        match reader.read_line(&mut reply) {
            Ok(0) => Err(conn_error("server closed the connection".to_string())),
            Ok(_) if !reply.ends_with('\n') => {
                // A torn line: the server died mid-write. Never parse it.
                Err(conn_error("torn reply (no trailing newline)".to_string()))
            }
            Ok(_) => self.verify(reply.trim_end().to_string(), id_token),
            Err(error) if is_timeout(&error) => Err(CallError {
                class: ErrorClass::Timeout,
                detail: format!("recv: {error}"),
            }),
            Err(error) => Err(conn_error(format!("recv: {error}"))),
        }
    }

    /// Verify one complete reply line: it parses, its `id` equals the
    /// request's `id` token as a JSON value, and its envelope flags.
    /// Corruption (bad JSON, wrong id) is counted and reported as a
    /// connection-class error so the caller retries.
    fn verify(&mut self, raw: String, id_token: &str) -> Result<Reply, CallError> {
        let envelope = json::parse(&raw);
        let expected = json::parse(id_token);
        let corrupt = match (&envelope, &expected) {
            (Err(_), _) => Some(format!("reply is not well-formed JSON: {raw}")),
            (Ok(envelope), Ok(expected)) if envelope.get("id") == Some(expected) => None,
            _ => Some(format!("reply does not echo id {id_token}: {raw}")),
        };
        if let Some(detail) = corrupt {
            self.counters.corrupt += 1;
            return Err(CallError {
                class: ErrorClass::ConnReset,
                detail,
            });
        }
        let envelope = envelope.expect("checked above");
        let flag = |key: &str| envelope[key].as_bool() == Some(true);
        if !flag("ok") {
            return Err(CallError {
                class: ErrorClass::ServerError,
                detail: raw,
            });
        }
        Ok(Reply {
            ok: true,
            cached: flag("cached"),
            degraded: flag("degraded"),
            raw,
        })
    }
}

/// What became of a chaos-instrumented send.
enum SendOutcome {
    Sent,
    Injected(&'static str),
    Failed(std::io::Error),
}

/// Write `bytes` to `stream`, consulting the controller's client-side
/// failpoints: truncate (half the request, then drop), reset (full
/// request, then drop before the reply), split (one byte per write), and
/// stall (a pause between the two halves).
fn send_with_chaos(
    stream: &mut TcpStream,
    bytes: &[u8],
    chaos: Option<&ChaosController>,
) -> SendOutcome {
    let Some(chaos) = chaos else {
        return match stream.write_all(bytes).and_then(|()| stream.flush()) {
            Ok(()) => SendOutcome::Sent,
            Err(error) => SendOutcome::Failed(error),
        };
    };
    if chaos.should_inject(Failpoint::RequestTruncate) {
        let half = &bytes[..bytes.len() / 2];
        let _ = stream.write_all(half).and_then(|()| stream.flush());
        let _ = stream.shutdown(std::net::Shutdown::Both);
        return SendOutcome::Injected("request truncated");
    }
    if chaos.should_inject(Failpoint::ConnReset) {
        let _ = stream.write_all(bytes).and_then(|()| stream.flush());
        let _ = stream.shutdown(std::net::Shutdown::Both);
        return SendOutcome::Injected("connection reset after send");
    }
    if chaos.should_inject(Failpoint::RequestSplit) {
        // One byte per write() call: the server must reassemble the line
        // regardless of segmentation.
        for byte in bytes {
            if let Err(error) = stream.write_all(std::slice::from_ref(byte)) {
                return SendOutcome::Failed(error);
            }
        }
        return match stream.flush() {
            Ok(()) => SendOutcome::Sent,
            Err(error) => SendOutcome::Failed(error),
        };
    }
    if let Some(delay) = chaos.inject_delay(
        Failpoint::RequestStall,
        Duration::from_millis(5),
        Duration::from_millis(50),
    ) {
        let half = bytes.len() / 2;
        if let Err(error) = stream
            .write_all(&bytes[..half])
            .and_then(|()| stream.flush())
        {
            return SendOutcome::Failed(error);
        }
        std::thread::sleep(delay);
        return match stream
            .write_all(&bytes[half..])
            .and_then(|()| stream.flush())
        {
            Ok(()) => SendOutcome::Sent,
            Err(error) => SendOutcome::Failed(error),
        };
    }
    match stream.write_all(bytes).and_then(|()| stream.flush()) {
        Ok(()) => SendOutcome::Sent,
        Err(error) => SendOutcome::Failed(error),
    }
}

/// Whether an I/O error is a read/write deadline expiry. Both spellings
/// occur across platforms.
fn is_timeout(error: &std::io::Error) -> bool {
    matches!(error.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Routing tallies of a [`ClusterClient`], on top of the per-node
/// resilience counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct RouteCounters {
    /// Calls sent to the key's ring owner on the first try.
    pub routed_primary: u64,
    /// Attempts that failed over to a replica (owner breaker open,
    /// unreachable, or erroring).
    pub failovers: u64,
    /// `not_owner` redirects followed to the envelope's stated owner.
    pub redirects_followed: u64,
}

/// A shard-map-aware router over one [`ResilientClient`] per node.
///
/// Routing mirrors the server side exactly: both ends hash with
/// [`osarch_cluster::key_hash`] over the same seed list, so a routed
/// request normally lands on its owner first try. When the owner is
/// unattractive (breaker open) or fails, the call falls over to the
/// key's other replicas in ring order; a `not_owner` redirect (topology
/// drift between client and server views) is re-resolved once by
/// following the envelope's stated owner.
pub struct ClusterClient {
    ring: osarch_cluster::Ring,
    replicas: usize,
    clients: Vec<ResilientClient>,
    routes: RouteCounters,
}

impl std::fmt::Debug for ClusterClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterClient")
            .field("nodes", &self.ring.nodes())
            .field("replicas", &self.replicas)
            .field("routes", &self.routes)
            .finish()
    }
}

impl ClusterClient {
    /// A router over `addrs` with replication factor `replicas`. Each
    /// node gets its own client (own breaker, own jitter stream —
    /// seeded per node so schedules stay deterministic but distinct).
    #[must_use]
    pub fn new(addrs: &[String], replicas: usize, config: &ClientConfig) -> ClusterClient {
        let ring = osarch_cluster::Ring::new(addrs, osarch_cluster::DEFAULT_VNODES);
        let clients = ring
            .nodes()
            .iter()
            .enumerate()
            .map(|(index, addr)| {
                let node_config = ClientConfig {
                    seed: config.seed.wrapping_add(index as u64),
                    ..config.clone()
                };
                ResilientClient::new(addr, node_config)
            })
            .collect();
        ClusterClient {
            ring,
            replicas: replicas.max(1),
            clients,
            routes: RouteCounters::default(),
        }
    }

    /// The node addresses, in ring order.
    #[must_use]
    pub fn nodes(&self) -> &[String] {
        self.ring.nodes()
    }

    /// Where a key's owner lives, per this client's ring view.
    #[cfg(test)]
    #[must_use]
    pub fn addr_for(&self, key: &str) -> Option<&str> {
        self.ring.owner(key)
    }

    /// The routing tallies.
    #[must_use]
    pub fn route_counters(&self) -> RouteCounters {
        self.routes
    }

    /// Per-node resilience counters summed over every node client.
    #[must_use]
    pub fn counters(&self) -> ClientCounters {
        let mut total = ClientCounters::default();
        for client in &self.clients {
            total.accumulate(&client.counters);
        }
        total
    }

    /// Attach a fault-injection schedule to every node's client (see
    /// [`ResilientClient::with_chaos`]).
    #[must_use]
    pub fn with_chaos(mut self, chaos: &Arc<ChaosController>) -> ClusterClient {
        for client in &mut self.clients {
            client.chaos = Some(Arc::clone(chaos));
        }
        self
    }

    /// Issue `line` for `key`: route to the key's replica set in ring
    /// order, preferring nodes whose breaker is closed, and follow one
    /// `not_owner` redirect if the server's view disagrees with ours.
    pub fn call(&mut self, key: &str, line: &str, id_token: &str) -> Result<Reply, CallError> {
        let targets: Vec<usize> = {
            let nodes = self.ring.nodes();
            self.ring
                .replicas(key, self.replicas)
                .iter()
                .filter_map(|addr| nodes.iter().position(|n| n == addr))
                .collect()
        };
        if targets.is_empty() {
            return Err(CallError {
                class: ErrorClass::ConnReset,
                detail: "cluster client has no nodes".to_string(),
            });
        }
        // Replica order: nodes whose breaker is closed first (cheap
        // health signal), then the breaker-open stragglers — a shed call
        // against an open breaker still counts down its cooldown.
        let closed: Vec<usize> = targets
            .iter()
            .copied()
            .filter(|&i| !self.clients[i].breaker_open())
            .collect();
        let mut order = closed.clone();
        order.extend(targets.iter().copied().filter(|i| !closed.contains(i)));
        let mut last = CallError {
            class: ErrorClass::BreakerOpen,
            detail: "every replica's breaker is open".to_string(),
        };
        for (rank, index) in order.into_iter().enumerate() {
            if rank == 0 && index == targets[0] {
                self.routes.routed_primary += 1;
            } else {
                self.routes.failovers += 1;
            }
            match self.clients[index].call(line, id_token) {
                Ok(reply) => return Ok(reply),
                Err(error) => {
                    // Topology drift: the server knows better — follow its
                    // stated owner once, then fall through to the normal
                    // failover order.
                    let owner_index = not_owner_redirect(&error)
                        .and_then(|owner| self.ring.nodes().iter().position(|n| *n == owner));
                    if let Some(owner_index) = owner_index {
                        self.routes.redirects_followed += 1;
                        match self.clients[owner_index].call(line, id_token) {
                            Ok(reply) => return Ok(reply),
                            Err(redirect_error) => last = redirect_error,
                        }
                        continue;
                    }
                    last = error;
                }
            }
        }
        Err(last)
    }
}

/// The stated owner of a `not_owner` redirect envelope, if `error` is one.
fn not_owner_redirect(error: &CallError) -> Option<String> {
    if error.class != ErrorClass::ServerError {
        return None;
    }
    let envelope = json::parse(&error.detail).ok()?;
    if envelope["error"].as_str() != Some("not_owner") {
        return None;
    }
    envelope["owner"].as_str().map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_opens_after_threshold_and_half_opens_after_cooldown() {
        let mut breaker = Breaker::new(3, 2);
        assert!(breaker.admit());
        assert!(!breaker.on_failure());
        assert!(!breaker.on_failure());
        assert!(breaker.on_failure(), "third failure opens");
        assert!(breaker.is_open());
        // Two calls shed while open…
        assert!(!breaker.admit());
        assert!(!breaker.admit());
        // …then a half-open probe is admitted.
        assert!(breaker.admit());
        // A failing probe re-opens immediately.
        assert!(breaker.on_failure());
        assert!(!breaker.admit());
        assert!(!breaker.admit());
        assert!(breaker.admit());
        breaker.on_success();
        assert!(!breaker.is_open());
        assert!(breaker.admit());
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let config = ClientConfig {
            seed: 99,
            ..ClientConfig::default()
        };
        let mut a = ResilientClient::new("127.0.0.1:1", config.clone());
        let mut b = ResilientClient::new("127.0.0.1:1", config.clone());
        let sa: Vec<Duration> = (1..6).map(|k| a.backoff(k)).collect();
        let sb: Vec<Duration> = (1..6).map(|k| b.backoff(k)).collect();
        assert_eq!(sa, sb, "same seed, same backoff schedule");
        for backoff in sa {
            assert!(backoff <= config.backoff_max);
            assert!(backoff >= config.backoff_base);
        }
        let mut c = ResilientClient::new(
            "127.0.0.1:1",
            ClientConfig {
                seed: 100,
                ..config
            },
        );
        let sc: Vec<Duration> = (1..6).map(|k| c.backoff(k)).collect();
        assert_ne!(sb, sc, "different seed, different jitter");
    }

    #[test]
    fn error_class_labels_are_stable() {
        assert_eq!(ErrorClass::Timeout.label(), "timeout");
        assert_eq!(ErrorClass::ConnReset.label(), "conn_reset");
        assert_eq!(ErrorClass::ServerError.label(), "server_error");
        assert_eq!(ErrorClass::BreakerOpen.label(), "breaker_open");
    }

    #[test]
    fn cluster_client_routes_by_the_same_ring_as_the_server() {
        let addrs = vec![
            "127.0.0.1:4101".to_string(),
            "127.0.0.1:4102".to_string(),
            "127.0.0.1:4103".to_string(),
        ];
        let client = ClusterClient::new(&addrs, 2, &ClientConfig::default());
        let server_ring = crate::server::ring_of(&crate::ClusterConfig {
            self_addr: addrs[0].clone(),
            peers: addrs[1..].to_vec(),
            ..crate::ClusterConfig::default()
        });
        for key in ["measure/R3000/trap", "table/2", "analyze/all", "lint/CVAX"] {
            assert_eq!(client.addr_for(key), server_ring.owner(key), "{key}");
        }
        assert_eq!(client.nodes(), server_ring.nodes());
    }

    #[test]
    fn cluster_client_fails_over_across_dead_replicas() {
        // Ports 1 and 2 on loopback refuse immediately: every replica is
        // dead, so the call walks the whole replica set and gives up
        // with the connection class — never a panic, never a hang.
        let addrs = vec!["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()];
        let mut client = ClusterClient::new(
            &addrs,
            2,
            &ClientConfig {
                attempts: 1,
                backoff_base: Duration::from_micros(10),
                backoff_max: Duration::from_micros(50),
                ..ClientConfig::default()
            },
        );
        let error = client
            .call("measure/R3000/trap", "{\"op\":\"ping\",\"id\":7}", "7")
            .unwrap_err();
        assert_eq!(error.class, ErrorClass::ConnReset, "{}", error.detail);
        let routes = client.route_counters();
        assert_eq!(routes.routed_primary, 1);
        assert_eq!(routes.failovers, 1, "second replica was tried");
        assert_eq!(client.counters().giveups, 2);
    }

    #[test]
    fn not_owner_fields_extract_from_the_raw_envelope() {
        let raw = crate::protocol::not_owner_envelope(
            "3",
            "table/2",
            "127.0.0.1:4102",
            &["127.0.0.1:4102", "127.0.0.1:4103"],
        );
        let redirect = |class, detail: &str| {
            not_owner_redirect(&CallError {
                class,
                detail: detail.to_string(),
            })
        };
        assert_eq!(
            redirect(ErrorClass::ServerError, &raw).as_deref(),
            Some("127.0.0.1:4102")
        );
        // Only a server error whose `error` member is `not_owner` counts:
        // the same text in another member, or another class, does not.
        let other = crate::protocol::err_envelope("3", "\"error\":\"not_owner\"");
        assert_eq!(redirect(ErrorClass::ServerError, &other), None);
        assert_eq!(redirect(ErrorClass::ConnReset, &raw), None);
        assert_eq!(redirect(ErrorClass::ServerError, "torn {"), None);
    }

    #[test]
    fn verify_compares_the_echoed_id_exactly() {
        let mut client = ResilientClient::new("127.0.0.1:1", ClientConfig::default());
        let reply = |id: &str| crate::protocol::ok_envelope(id, false, 1, 5, "{\"pong\":true}");
        assert!(client.verify(reply("1"), "1").is_ok());
        assert!(client.verify(reply("\"a/b\""), "\"a\\/b\"").is_ok());
        // A reply to request 12 is not a reply to request 1, even though
        // its text contains `"id":1`.
        let error = client.verify(reply("12"), "1").unwrap_err();
        assert_eq!(error.class, ErrorClass::ConnReset, "{}", error.detail);
        assert!(client.verify(reply("\"1\""), "1").is_err());
        assert!(client
            .verify("{\"id\":1,\"ok\":tru".to_string(), "1")
            .is_err());
        assert_eq!(client.counters().corrupt, 3);
        let refused = client
            .verify(crate::protocol::err_envelope("1", "boom"), "1")
            .unwrap_err();
        assert_eq!(refused.class, ErrorClass::ServerError);
        assert_eq!(client.counters().corrupt, 3);
    }

    #[test]
    fn unreachable_target_gives_up_with_conn_class_and_opens_breaker() {
        // Port 1 on loopback: connection refused immediately, no network.
        let mut client = ResilientClient::new(
            "127.0.0.1:1",
            ClientConfig {
                attempts: 2,
                backoff_base: Duration::from_micros(10),
                backoff_max: Duration::from_micros(50),
                breaker_threshold: 1,
                ..ClientConfig::default()
            },
        );
        let error = client.call("{\"op\":\"ping\",\"id\":1}", "1").unwrap_err();
        assert_eq!(error.class, ErrorClass::ConnReset, "{}", error.detail);
        assert!(client.breaker_open(), "threshold 1 opens on first giveup");
        let shed = client.call("{\"op\":\"ping\",\"id\":2}", "2").unwrap_err();
        assert_eq!(shed.class, ErrorClass::BreakerOpen);
        let counters = client.counters();
        assert_eq!(counters.giveups, 1);
        assert_eq!(counters.retries, 1);
        assert_eq!(counters.breaker_opens, 1);
        assert_eq!(counters.breaker_shed, 1);
        assert_eq!(counters.oks, 0);
    }
}
