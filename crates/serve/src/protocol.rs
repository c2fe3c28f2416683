//! The line-delimited JSON protocol (`osarch-serve/1`).
//!
//! One request per line, one response per line. A request is a **flat**
//! JSON object:
//!
//! ```text
//! {"op":"measure","arch":"R3000","primitive":"syscall","id":1}
//! ```
//!
//! read by the workspace's one JSON parser ([`osarch_core::json`], whose
//! depth cap means no line can exhaust a loop's stack). A line that is not
//! JSON, not an object, or has a nested (array/object) field value is
//! refused with an error envelope; when a field name repeats, the first
//! occurrence wins. The fields are:
//!
//! * `op` — `ping`, `measure`, `table`, `lint`, `analyze`, `trace`,
//!   `counters`, `spans`, `metrics`, `health`, `cluster`, `shutdown`,
//!   `admin`, or `spec-fetch` (required);
//! * `arch` — an architecture name (required for `measure`/`trace`,
//!   optional for `lint`/`counters`; the `m88000`, `mips-r2000` and
//!   `mips-r3000` aliases are accepted, exactly as on the CLI);
//! * `spec` — for `measure`, the name of a runtime-loaded registry spec
//!   in place of `arch`; for `admin spec-load`, an `osarch-spec/1`
//!   document as a JSON-escaped string;
//! * `action`/`token`/`name` — `admin` fields: the sub-action
//!   (`spec-load`, `spec-activate`, `spec-rollback`, `spec-list`), the
//!   shared-secret token (constant-time compared against
//!   `--admin-token`; every `admin` request is refused when the server
//!   has no token configured), and the spec name to activate;
//! * `primitive` — a primitive name (required for `measure`/`trace`);
//! * `table` — a report-registry name (required for `table`);
//! * `filter` — for `spans`, optional and only ever `chrome`: the
//!   sampled per-request trace chains always answer as a Chrome
//!   trace-event document (`osarch-trace/1`);
//! * `gossip` — for `health`, an optional membership digest string; the
//!   node merges it and replies with its own digest (the cluster's
//!   anti-entropy exchange rides the liveness probe);
//! * `fwd` — set to `"1"` on a request relayed node-to-node inside the
//!   cluster; a node never re-forwards a marked request (loop guard);
//! * `id` — any JSON scalar, echoed verbatim in the response.
//!
//! A response is one line:
//!
//! ```text
//! {"schema":"osarch-serve/1","id":1,"ok":true,"cached":false,"micros":812,"result":{…}}
//! {"schema":"osarch-serve/1","id":null,"ok":false,"error":"unknown architecture …"}
//! ```
//!
//! In `--cluster` mode a node that neither owns nor proxies a key
//! answers with the `not_owner` redirect envelope instead:
//!
//! ```text
//! {"schema":"osarch-serve/1","id":1,"ok":false,"error":"not_owner","owner":"host:port","replicas":"host:port,host:port"}
//! ```
//!
//! and the `cluster` op reports the node's ring slice plus its current
//! membership table (`osarch-cluster/1`).
//!
//! Responses reuse the `core/metrics` emitters for their payloads, so a
//! served table/lint/trace/counters document is byte-identical to the one
//! the corresponding CLI subcommand prints.
//!
//! A cache hit is the server's hot path, so its three protocol steps copy
//! only what they keep. [`parse_request`] reads every field as a `&str`
//! borrowed from the parsed tree and matches names in place (through
//! [`Arch::from_name`] and [`names::parse_primitive`], which never
//! allocate), owning only the `id` token and the strings a [`Query`]
//! holds. [`Query::cache_key`] writes the snapshot prefix and the routing
//! key into one exactly-sized buffer, so the server takes the routing key
//! as a slice of the cache key; and [`ok_envelope`] appends into one
//! buffer sized for the whole reply.

use crate::registry::SpecSnapshot;
use osarch_core::json::{self, Value};
use osarch_core::{metrics, names, session};
use osarch_cpu::Arch;
use osarch_kernel::{trace_all, trace_primitive, Primitive};
use osarch_trace::CounterRegistry;
use std::fmt::Write as _;

/// The largest request line the server will accept. An oversized line is
/// answered with an error envelope; the connection is then resynchronized
/// at the next newline ([`FrameBuf`] discards the oversized bytes as they
/// stream past) and keeps serving.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// Smallest read window [`FrameBuf::spare`] guarantees per call; also the
/// growth quantum and the slack allowed beyond [`MAX_REQUEST_BYTES`].
const MIN_SPARE: usize = 4096;

/// One parsed query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// Liveness probe; answers immediately.
    Ping,
    /// One (architecture, primitive) measurement.
    Measure {
        /// Architecture to price.
        arch: Arch,
        /// Primitive to price.
        primitive: Primitive,
    },
    /// One (registry spec, primitive) measurement: a `measure` request
    /// naming a runtime-loaded spec (`"spec":"name"`) instead of a
    /// built-in architecture. Existence is resolved against the
    /// request's captured registry snapshot.
    MeasureSpec {
        /// Registry spec name.
        name: String,
        /// Primitive to price.
        primitive: Primitive,
    },
    /// One report-registry table.
    Table {
        /// Registry name (`table1` … `ablations`).
        name: String,
    },
    /// Static handler verification for one architecture, or all.
    Lint {
        /// `None` checks every architecture.
        arch: Option<Arch>,
    },
    /// Abstract-interpretation proof run for one architecture, or all.
    Analyze {
        /// `None` verifies every architecture.
        arch: Option<Arch>,
    },
    /// Chrome-trace document for one primitive run.
    Trace {
        /// Architecture to trace.
        arch: Arch,
        /// Primitive to trace.
        primitive: Primitive,
    },
    /// Performance counters aggregated over every primitive of one
    /// architecture, or of all architectures.
    Counters {
        /// `None` aggregates every architecture.
        arch: Option<Arch>,
    },
    /// The sampled per-request span chains as a Chrome trace-event
    /// document (`osarch-trace/1`).
    Spans,
    /// Full telemetry snapshot (`osarch-metrics/2`): windowed
    /// histograms, gauges, and lifetime totals.
    Metrics,
    /// One-line liveness probe: queue depth, worker liveness, and
    /// resilience counters (panics, degraded replies, respawns).
    Health {
        /// A peer's membership digest to merge (cluster anti-entropy);
        /// `None` for a plain liveness probe.
        gossip: Option<String>,
    },
    /// Ring slice + membership table of a cluster node
    /// (`osarch-cluster/1`; an error outside `--cluster` mode).
    Cluster,
    /// Graceful shutdown control command.
    Shutdown,
    /// Authenticated spec-registry administration (refused entirely when
    /// the server was started without `--admin-token`).
    Admin {
        /// The sub-action to perform.
        action: AdminAction,
        /// The caller's token, compared in constant time.
        token: String,
        /// Spec name (`spec-activate`).
        name: Option<String>,
        /// An `osarch-spec/1` document as a JSON-escaped string
        /// (`spec-load`).
        spec: Option<String>,
    },
    /// Unauthenticated read-only registry export: the active epoch, its
    /// digest, and every spec document — the pull side of cluster spec
    /// convergence.
    SpecFetch,
}

/// One `admin` sub-action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminAction {
    /// Stage an `osarch-spec/1` document (parse + validate only).
    SpecLoad,
    /// Run the full activation pipeline on a staged spec and swap it in.
    SpecActivate,
    /// Swap back to the last-good registry content (as a new epoch).
    SpecRollback,
    /// List the active epoch, digest, staged names, and loaded specs.
    SpecList,
}

impl AdminAction {
    /// The protocol spelling.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            AdminAction::SpecLoad => "spec-load",
            AdminAction::SpecActivate => "spec-activate",
            AdminAction::SpecRollback => "spec-rollback",
            AdminAction::SpecList => "spec-list",
        }
    }

    fn parse(name: &str) -> Option<AdminAction> {
        match name {
            "spec-load" => Some(AdminAction::SpecLoad),
            "spec-activate" => Some(AdminAction::SpecActivate),
            "spec-rollback" => Some(AdminAction::SpecRollback),
            "spec-list" => Some(AdminAction::SpecList),
            _ => None,
        }
    }
}

impl Query {
    /// The canonical epoch-free key, or `None` for control/introspection
    /// queries that must never be cached. This is the key consistent-hash
    /// **routing** uses: a key's ring owner must not move when a node
    /// swaps specs, or a mid-swap cluster would split-route every key.
    #[must_use]
    pub fn routing_key(&self) -> Option<String> {
        self.cache_key_under("")
    }

    /// The canonical cache key under one registry snapshot, or `None`
    /// for queries that must never be cached. The snapshot's
    /// `e{epoch}-{content hash}/` prefix scopes every cached payload
    /// (and its `last_good` sidecar entry) to the spec set it was
    /// computed against, so a swap can never surface a stale-spec reply
    /// — old-epoch entries are reaped lazily after each commit. The key
    /// is the prefix followed by the [routing key](Query::routing_key),
    /// so `&key[snapshot.key_prefix().len()..]` is the routing key.
    #[must_use]
    pub fn cache_key(&self, snapshot: &SpecSnapshot) -> Option<String> {
        self.cache_key_under(snapshot.key_prefix())
    }

    /// `prefix` then `kind/subject[/primitive]`, written once into one
    /// buffer of the exact size.
    fn cache_key_under(&self, prefix: &str) -> Option<String> {
        let (kind, subject, tag) = self.key_parts()?;
        let tail = tag.map_or(0, |tag| tag.len() + 1);
        let mut key = String::with_capacity(prefix.len() + kind.len() + 1 + subject.len() + tail);
        key.push_str(prefix);
        key.push_str(kind);
        key.push('/');
        key.push_str(subject);
        if let Some(tag) = tag {
            key.push('/');
            key.push_str(tag);
        }
        Some(key)
    }

    /// The parts of the routing key: the query kind, its subject (an
    /// architecture label, a spec or table name, or `all`) and, for a
    /// per-primitive query, the primitive's tag. `None` for uncacheable
    /// queries.
    fn key_parts(&self) -> Option<(&'static str, &str, Option<&'static str>)> {
        let label = |arch: &Option<Arch>| arch.map_or("all", Arch::label);
        Some(match self {
            Query::Measure { arch, primitive } => ("measure", arch.label(), Some(primitive.tag())),
            Query::MeasureSpec { name, primitive } => ("measure", name, Some(primitive.tag())),
            Query::Table { name } => ("table", name, None),
            Query::Lint { arch } => ("lint", label(arch), None),
            Query::Analyze { arch } => ("analyze", label(arch), None),
            Query::Trace { arch, primitive } => ("trace", arch.label(), Some(primitive.tag())),
            Query::Counters { arch } => ("counters", label(arch), None),
            Query::Ping
            | Query::Spans
            | Query::Metrics
            | Query::Health { .. }
            | Query::Cluster
            | Query::Shutdown
            | Query::Admin { .. }
            | Query::SpecFetch => return None,
        })
    }

    /// Evaluate a cacheable query to its JSON payload. Pure: the payload
    /// is a deterministic function of the key and the captured registry
    /// snapshot, priced through the shared measurement session.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-cacheable query (`ping`, `spans`,
    /// `metrics`, `shutdown`, `admin`, …) — the server answers those
    /// directly. A [`Query::MeasureSpec`] naming a spec absent from the
    /// snapshot panics too: existence is checked before offload.
    #[must_use]
    pub fn compute(&self, snapshot: &SpecSnapshot) -> String {
        match self {
            Query::Measure { arch, primitive } => metrics::measure_json(*arch, *primitive),
            Query::MeasureSpec { name, primitive } => {
                let spec = snapshot
                    .spec(name)
                    .expect("spec existence checked against the snapshot before offload");
                metrics::measure_spec_json(name, spec, *primitive)
            }
            Query::Table { name } => {
                let spec = session::report_by_name(name).expect("table name validated at parse");
                metrics::table_json(&(spec.build)())
            }
            Query::Lint { arch } => {
                let analyzer = osarch_core::Analyzer::new();
                let report = match arch {
                    Some(arch) => analyzer.analyze_spec(&arch.spec()),
                    None => analyzer.analyze_all(),
                };
                metrics::lint_json(&report).trim_end().to_string()
            }
            Query::Analyze { arch } => {
                let analyzer = osarch_core::AbsintAnalyzer::new();
                let report = match arch {
                    Some(arch) => analyzer.analyze_spec(&arch.spec()),
                    None => analyzer.analyze_all(),
                };
                metrics::absint_json(&report).trim_end().to_string()
            }
            Query::Trace { arch, primitive } => {
                metrics::chrome_trace_json(&trace_primitive(*arch, *primitive))
                    .trim_end()
                    .to_string()
            }
            Query::Counters { arch } => {
                let archs: Vec<Arch> = match arch {
                    Some(arch) => vec![*arch],
                    None => Arch::all().to_vec(),
                };
                let mut merged = CounterRegistry::new();
                for arch in archs {
                    for trace in trace_all(arch) {
                        for (key, value) in trace.counters.iter() {
                            merged.add(&key.arch, &key.primitive, &key.phase, &key.name, value);
                        }
                    }
                }
                metrics::counters_json(&merged).trim_end().to_string()
            }
            Query::Ping
            | Query::Spans
            | Query::Metrics
            | Query::Health { .. }
            | Query::Cluster
            | Query::Shutdown
            | Query::Admin { .. }
            | Query::SpecFetch => {
                unreachable!("non-cacheable query answered by the server, not computed")
            }
        }
    }
}

/// One parsed request: the query plus the raw `id` token to echo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The `id` field as a raw JSON token (`null` when absent).
    pub id: String,
    /// The query to answer.
    pub query: Query,
    /// Whether the request carried the `"fwd":"1"` relay marker: it
    /// already hopped once inside the cluster, so the receiving node
    /// must answer (or redirect) rather than forward again.
    pub forwarded: bool,
}

/// Parse one request line. Errors are one-line human-readable messages
/// destined for the `error` field of the response envelope; the second
/// tuple element is the echoed `id` token if one could be recovered.
///
/// Fields are read as `&str` borrowed from the parsed tree (which itself
/// borrows every escape-free string from `line`) and matched in place;
/// only what the [`Request`] keeps is copied: the `id` token, and a
/// spec, table, gossip or admin string. A built-in `measure` copies
/// nothing but its `id`.
pub fn parse_request(line: &str) -> Result<Request, (String, String)> {
    let refuse = |message: String| (message, "null".to_string());
    let root =
        json::parse(line).map_err(|_| refuse("request is not well-formed JSON".to_string()))?;
    let fields = root
        .as_object()
        .ok_or_else(|| refuse("request must be a JSON object".to_string()))?;
    // Read before any field check, so every refusal of an object can echo
    // it: the compact re-emission of a scalar `id` (numbers keep their
    // source token); `null` when the id is absent or itself nested.
    let id = match root.get("id") {
        None | Some(Value::Array(_) | Value::Object(_)) => "null".to_string(),
        Some(scalar) => scalar.to_string(),
    };
    // Every request field is a scalar by design.
    if let Some((key, _)) = fields
        .iter()
        .find(|(_, value)| matches!(value, Value::Array(_) | Value::Object(_)))
    {
        return Err((
            format!("field {key:?} must be a scalar, not a nested value"),
            id,
        ));
    }
    let get_str = |key: &str| match root.get(key) {
        None => Ok(None),
        Some(Value::String(s)) => Ok(Some(&**s)),
        Some(other) => Err((
            format!("field {key:?} must be a string, got {other}"),
            id.clone(),
        )),
    };
    let missing = |field: &str| (format!("missing required field {field:?}"), id.clone());
    let op = get_str("op")?.ok_or_else(|| missing("op"))?;
    let arch = |required: bool| -> Result<Option<Arch>, (String, String)> {
        match get_str("arch")? {
            Some(name) => Arch::from_name(name)
                .map(Some)
                .ok_or_else(|| (names::unknown_arch(name), id.clone())),
            None if required => Err(missing("arch")),
            None => Ok(None),
        }
    };
    let primitive = || -> Result<Primitive, (String, String)> {
        let name = get_str("primitive")?.ok_or_else(|| missing("primitive"))?;
        names::parse_primitive(name).ok_or_else(|| (names::unknown_primitive(name), id.clone()))
    };
    let query = match op {
        "ping" => Query::Ping,
        "measure" => match get_str("spec")? {
            // A registry spec and a built-in are different namespaces; a
            // request naming both is ambiguous by construction.
            Some(name) => {
                if get_str("arch")?.is_some() {
                    return Err((
                        "measure: give either \"arch\" or \"spec\", not both".to_string(),
                        id,
                    ));
                }
                Query::MeasureSpec {
                    name: name.to_string(),
                    primitive: primitive()?,
                }
            }
            None => Query::Measure {
                arch: arch(true)?.expect("required"),
                primitive: primitive()?,
            },
        },
        "table" => {
            let name = get_str("table")?.ok_or_else(|| missing("table"))?;
            if session::report_by_name(name).is_none() {
                return Err((names::unknown_report(name), id));
            }
            Query::Table {
                name: name.to_string(),
            }
        }
        "lint" => Query::Lint { arch: arch(false)? },
        "analyze" => Query::Analyze { arch: arch(false)? },
        "trace" => Query::Trace {
            arch: arch(true)?.expect("required"),
            primitive: primitive()?,
        },
        "counters" => Query::Counters { arch: arch(false)? },
        "spans" => match get_str("filter")? {
            None | Some("chrome") => Query::Spans,
            Some(other) => {
                return Err((
                    format!("unknown spans filter {other:?}; valid filters: chrome"),
                    id,
                ))
            }
        },
        "metrics" => Query::Metrics,
        "health" => Query::Health {
            gossip: get_str("gossip")?.map(str::to_string),
        },
        "cluster" => Query::Cluster,
        "shutdown" => Query::Shutdown,
        "admin" => {
            let admin_missing = |field: &str| {
                (
                    format!("admin: missing required field {field:?}"),
                    id.clone(),
                )
            };
            let action = get_str("action")?.ok_or_else(|| admin_missing("action"))?;
            let action = AdminAction::parse(action).ok_or_else(|| {
                (
                    format!(
                        "admin: unknown action {action:?}; valid actions: \
                         spec-load, spec-activate, spec-rollback, spec-list"
                    ),
                    id.clone(),
                )
            })?;
            let token = get_str("token")?.ok_or_else(|| admin_missing("token"))?;
            let name = get_str("name")?;
            let spec = get_str("spec")?;
            match action {
                AdminAction::SpecLoad if spec.is_none() => {
                    return Err((
                        "admin spec-load: missing required field \"spec\"".to_string(),
                        id,
                    ))
                }
                AdminAction::SpecActivate if name.is_none() => {
                    return Err((
                        "admin spec-activate: missing required field \"name\"".to_string(),
                        id,
                    ))
                }
                _ => {}
            }
            Query::Admin {
                action,
                token: token.to_string(),
                name: name.map(str::to_string),
                spec: spec.map(str::to_string),
            }
        }
        "spec-fetch" => Query::SpecFetch,
        other => return Err((names::unknown_op(other), id)),
    };
    let forwarded = get_str("fwd")? == Some("1");
    Ok(Request {
        id,
        query,
        forwarded,
    })
}

/// A success envelope: the payload (already-valid JSON) under `result`.
/// `epoch` is the registry epoch the request was served under — the
/// snapshot captured at admission, which for cacheable queries is by
/// construction the spec set the payload was computed against.
///
/// Built by appends into one buffer sized for the whole envelope: a
/// cache hit's reply is this one allocation. (One `write!` of the whole
/// template into the same buffer measured ~60 ns slower a call.)
#[must_use]
pub fn ok_envelope(id: &str, cached: bool, epoch: u64, micros: u64, payload: &str) -> String {
    // Room for the fixed text (87 bytes) and two `u64`s of 20 digits.
    let mut out = String::with_capacity(128 + id.len() + payload.len());
    out.push_str("{\"schema\":\"");
    out.push_str(metrics::SERVE_SCHEMA);
    out.push_str("\",\"id\":");
    out.push_str(id);
    out.push_str(",\"ok\":true,\"cached\":");
    out.push_str(if cached { "true" } else { "false" });
    let _ = write!(out, ",\"epoch\":{epoch},\"micros\":{micros},\"result\":");
    out.push_str(payload);
    out.push('}');
    out
}

/// A degraded-success envelope: the stale last-good payload under
/// `result`, explicitly flagged `"degraded":true` with the failure that
/// forced the fallback. Degraded replies are always marked `cached` —
/// the payload is by definition a previously landed value — and carry
/// the epoch the stale payload was computed at (equal to the serving
/// epoch: the `last_good` sidecar is keyed under the same epoch-scoped
/// key as the cache proper, so it can never reach across a swap).
#[must_use]
pub fn degraded_envelope(id: &str, epoch: u64, micros: u64, payload: &str, error: &str) -> String {
    format!(
        "{{\"schema\":\"{}\",\"id\":{id},\"ok\":true,\"cached\":true,\
         \"degraded\":true,\"degraded_reason\":\"{}\",\"epoch\":{epoch},\
         \"micros\":{micros},\"result\":{payload}}}",
        metrics::SERVE_SCHEMA,
        metrics::json_escape(error)
    )
}

/// An error envelope. Always well-formed regardless of the message text.
#[must_use]
pub fn err_envelope(id: &str, message: &str) -> String {
    format!(
        "{{\"schema\":\"{}\",\"id\":{id},\"ok\":false,\"error\":\"{}\"}}",
        metrics::SERVE_SCHEMA,
        metrics::json_escape(message)
    )
}

/// The `not_owner` redirect envelope a cluster node answers with when a
/// key hashes to another node and relaying is not possible: the routing
/// client re-resolves against `owner` (first) and `replicas` (fallback,
/// comma-joined in ring order).
#[must_use]
pub fn not_owner_envelope(id: &str, key: &str, owner: &str, replicas: &[&str]) -> String {
    format!(
        "{{\"schema\":\"{}\",\"id\":{id},\"ok\":false,\"error\":\"not_owner\",\
         \"key\":\"{}\",\"owner\":\"{}\",\"replicas\":\"{}\"}}",
        metrics::SERVE_SCHEMA,
        metrics::json_escape(key),
        metrics::json_escape(owner),
        metrics::json_escape(&replicas.join(","))
    )
}

/// One request/reply exchange on a fresh connection: dial `addr` (each
/// address it resolves to in turn) within `connect_timeout`, send `line`,
/// and read one reply line, returned without its newline, with every
/// read and write bounded by `io_timeout`. An EOF before the newline is
/// a torn reply and an error, and so is a reply longer than eight request
/// budgets. For threads that may block: the cluster relay, gossip and spec
/// pull, the soak's admin ops, `osarch top` and the loadgen's `metrics`
/// reads — never an event loop.
pub(crate) fn exchange_line(
    addr: impl std::net::ToSocketAddrs,
    line: &str,
    connect_timeout: std::time::Duration,
    io_timeout: std::time::Duration,
) -> std::io::Result<String> {
    use std::io::{Error, ErrorKind, Read, Write};
    let mut dialed = Err(Error::new(ErrorKind::InvalidInput, "unresolvable address"));
    for addr in addr.to_socket_addrs()? {
        dialed = std::net::TcpStream::connect_timeout(&addr, connect_timeout);
        if dialed.is_ok() {
            break;
        }
    }
    let mut stream = dialed?;
    let _ = stream.set_nodelay(true);
    stream.set_write_timeout(Some(io_timeout))?;
    stream.set_read_timeout(Some(io_timeout))?;
    stream.write_all(format!("{line}\n").as_bytes())?;
    let mut reply = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    loop {
        let count = stream.read(&mut chunk)?;
        if count == 0 {
            return Err(Error::new(
                ErrorKind::UnexpectedEof,
                "peer closed before a full reply",
            ));
        }
        let read = &chunk[..count];
        if let Some(at) = read.iter().position(|&b| b == b'\n') {
            reply.extend_from_slice(&read[..at]);
            break;
        }
        reply.extend_from_slice(read);
        if reply.len() > MAX_REQUEST_BYTES * 8 {
            return Err(Error::new(
                ErrorKind::InvalidData,
                "peer reply exceeds frame budget",
            ));
        }
    }
    String::from_utf8(reply).map_err(|_| Error::new(ErrorKind::InvalidData, "non-UTF-8 reply"))
}

// ---------------------------------------------------------------------------
// Incremental line framing
// ---------------------------------------------------------------------------

/// One framing step from [`FrameBuf::next_frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    /// No complete line buffered yet; read more bytes.
    None,
    /// A complete line (newline excluded), addressed as a byte range for
    /// [`FrameBuf::bytes`]. Valid until the next `spare`/`next_frame`.
    Line {
        /// First byte of the line.
        start: usize,
        /// One past the last byte of the line.
        end: usize,
    },
    /// A line exceeded [`MAX_REQUEST_BYTES`]. The oversized bytes are
    /// consumed (streamed to the trash until the terminating newline);
    /// the caller should answer "request too large" and keep framing —
    /// the connection stays synchronized.
    Oversized,
}

/// Incremental, allocation-recycling line framer for nonblocking reads.
///
/// The event loop reads whatever the socket has into [`spare`], commits
/// the byte count, then drains complete lines with [`next_frame`] — many
/// pipelined requests per read land as many `Line` frames, no per-request
/// allocation. The buffer grows only for lines beyond its baseline and
/// releases that capacity as soon as the backlog drains (an oversized
/// request must not inflate the arena forever).
///
/// [`spare`]: FrameBuf::spare
/// [`next_frame`]: FrameBuf::next_frame
#[derive(Debug)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// First unconsumed byte.
    start: usize,
    /// One past the last committed byte.
    end: usize,
    /// Resume the newline scan here (`start <= scan <= end`), so bytes
    /// are scanned once no matter how fragmented the arrivals are.
    scan: usize,
    baseline: usize,
    /// Inside an oversized line: throw bytes away until a newline.
    discarding: bool,
}

impl FrameBuf {
    /// A framer whose buffer rests at `baseline` bytes (clamped to at
    /// least [`MIN_SPARE`]).
    #[must_use]
    pub fn new(baseline: usize) -> FrameBuf {
        let baseline = baseline.max(MIN_SPARE);
        FrameBuf {
            buf: vec![0; baseline],
            start: 0,
            end: 0,
            scan: 0,
            baseline,
            discarding: false,
        }
    }

    /// The writable tail of the buffer — always at least [`MIN_SPARE`]
    /// bytes. Read into it, then [`commit`](FrameBuf::commit) the count.
    pub fn spare(&mut self) -> &mut [u8] {
        if self.discarding {
            // Scanned bytes of a discarded line never need to be kept.
            self.start = self.scan;
        }
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            self.scan = 0;
            self.release_excess();
        } else if self.buf.len() - self.end < MIN_SPARE && self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.scan -= self.start;
            self.start = 0;
        }
        if self.buf.len() - self.end < MIN_SPARE {
            let target = (self.buf.len() * 2)
                .min(MAX_REQUEST_BYTES + 2 * MIN_SPARE)
                .max(self.end + MIN_SPARE);
            self.buf.resize(target, 0);
        }
        &mut self.buf[self.end..]
    }

    /// Record that `count` bytes were read into the slice returned by
    /// the last [`spare`](FrameBuf::spare) call.
    pub fn commit(&mut self, count: usize) {
        self.end += count;
        debug_assert!(self.end <= self.buf.len());
    }

    /// Extract the next complete line, if any.
    pub fn next_frame(&mut self) -> Frame {
        loop {
            if let Some(offset) = self.buf[self.scan..self.end]
                .iter()
                .position(|&byte| byte == b'\n')
            {
                let newline = self.scan + offset;
                if self.discarding {
                    // Oversized line fully consumed: resynchronized.
                    self.start = newline + 1;
                    self.scan = newline + 1;
                    self.discarding = false;
                    self.release_excess();
                    continue;
                }
                let (line_start, line_end) = (self.start, newline);
                self.start = newline + 1;
                self.scan = newline + 1;
                if line_end - line_start > MAX_REQUEST_BYTES {
                    // The whole line arrived in one gulp, newline and
                    // all — consumed above, so no discard phase needed.
                    return Frame::Oversized;
                }
                return Frame::Line {
                    start: line_start,
                    end: line_end,
                };
            }
            self.scan = self.end;
            if !self.discarding && self.end - self.start > MAX_REQUEST_BYTES {
                // Partial line already too big: report once, then eat
                // everything until the newline shows up.
                self.discarding = true;
                self.start = self.end;
                return Frame::Oversized;
            }
            return Frame::None;
        }
    }

    /// The bytes of a [`Frame::Line`] range.
    #[must_use]
    pub fn bytes(&self, start: usize, end: usize) -> &[u8] {
        &self.buf[start..end]
    }

    /// At EOF, surface a trailing unterminated line (a client that sent
    /// its last request without the newline and half-closed). `None` if
    /// nothing is buffered, or the tail is oversized/being discarded.
    pub fn take_eof_line(&mut self) -> Option<(usize, usize)> {
        if self.discarding || self.start == self.end {
            return None;
        }
        let range = (self.start, self.end);
        self.start = self.end;
        self.scan = self.end;
        if range.1 - range.0 > MAX_REQUEST_BYTES {
            return None;
        }
        Some(range)
    }

    /// Unconsumed bytes currently buffered.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Whether nothing is buffered (a mid-line partial counts as data).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end && !self.discarding
    }

    /// Current allocation size, for arena accounting.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Forget all state and shed grown capacity: called when a framer is
    /// returned to the connection arena for reuse.
    pub fn reset(&mut self) {
        self.start = 0;
        self.end = 0;
        self.scan = 0;
        self.discarding = false;
        self.release_excess();
    }

    /// Drop capacity grown past the baseline once the backlog fits again.
    fn release_excess(&mut self) {
        if self.buf.len() <= self.baseline {
            return;
        }
        let buffered = self.end - self.start;
        if buffered > self.baseline {
            return;
        }
        self.buf.copy_within(self.start..self.end, 0);
        self.scan -= self.start;
        self.end = buffered;
        self.start = 0;
        self.buf.truncate(self.baseline);
        self.buf.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_query_kind_parses() {
        let cases: [(&str, Query); 18] = [
            ("{\"op\":\"ping\"}", Query::Ping),
            (
                "{\"op\":\"measure\",\"spec\":\"hot-1\",\"primitive\":\"trap\"}",
                Query::MeasureSpec {
                    name: "hot-1".to_string(),
                    primitive: Primitive::Trap,
                },
            ),
            (
                "{\"op\":\"admin\",\"action\":\"spec-list\",\"token\":\"t\"}",
                Query::Admin {
                    action: AdminAction::SpecList,
                    token: "t".to_string(),
                    name: None,
                    spec: None,
                },
            ),
            (
                "{\"op\":\"admin\",\"action\":\"spec-activate\",\"token\":\"t\",\"name\":\"hot-1\"}",
                Query::Admin {
                    action: AdminAction::SpecActivate,
                    token: "t".to_string(),
                    name: Some("hot-1".to_string()),
                    spec: None,
                },
            ),
            ("{\"op\":\"spec-fetch\"}", Query::SpecFetch),
            (
                "{\"op\":\"measure\",\"arch\":\"mips-r3000\",\"primitive\":\"syscall\"}",
                Query::Measure {
                    arch: Arch::R3000,
                    primitive: Primitive::NullSyscall,
                },
            ),
            (
                "{\"op\":\"table\",\"table\":\"table1\"}",
                Query::Table {
                    name: "table1".to_string(),
                },
            ),
            (
                "{\"op\":\"lint\",\"arch\":\"SPARC\"}",
                Query::Lint {
                    arch: Some(Arch::Sparc),
                },
            ),
            ("{\"op\":\"lint\"}", Query::Lint { arch: None }),
            (
                "{\"op\":\"trace\",\"arch\":\"CVAX\",\"primitive\":\"ctxsw\"}",
                Query::Trace {
                    arch: Arch::Cvax,
                    primitive: Primitive::ContextSwitch,
                },
            ),
            ("{\"op\":\"counters\"}", Query::Counters { arch: None }),
            ("{\"op\":\"spans\"}", Query::Spans),
            ("{\"op\":\"spans\",\"filter\":\"chrome\"}", Query::Spans),
            ("{\"op\":\"metrics\"}", Query::Metrics),
            ("{\"op\":\"health\"}", Query::Health { gossip: None }),
            (
                "{\"op\":\"health\",\"gossip\":\"a:1=3/alive\"}",
                Query::Health {
                    gossip: Some("a:1=3/alive".to_string()),
                },
            ),
            ("{\"op\":\"cluster\"}", Query::Cluster),
            ("{\"op\":\"shutdown\"}", Query::Shutdown),
        ];
        for (line, expected) in cases {
            let request = parse_request(line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
            assert_eq!(request.query, expected, "{line}");
            assert_eq!(request.id, "null", "{line}");
            assert!(!request.forwarded, "{line}");
        }
    }

    #[test]
    fn fwd_marker_flags_relayed_requests() {
        let r = parse_request("{\"op\":\"ping\",\"fwd\":\"1\"}").unwrap();
        assert!(r.forwarded);
        let r = parse_request("{\"op\":\"ping\",\"fwd\":\"0\"}").unwrap();
        assert!(!r.forwarded);
        let (err, _) = parse_request("{\"op\":\"ping\",\"fwd\":1}").expect_err("non-string fwd");
        assert!(err.contains("must be a string"), "{err}");
    }

    #[test]
    fn id_tokens_echo_verbatim() {
        let r = parse_request("{\"op\":\"ping\",\"id\":42}").unwrap();
        assert_eq!(r.id, "42");
        let r = parse_request("{\"op\":\"ping\",\"id\":\"a\\\"b\"}").unwrap();
        assert_eq!(r.id, "\"a\\\"b\"");
        let r = parse_request("{\"id\":true,\"op\":\"ping\"}").unwrap();
        assert_eq!(r.id, "true");
    }

    #[test]
    fn bad_requests_fail_with_one_line_errors() {
        for (line, needle) in [
            ("not json", "not well-formed"),
            ("[1,2]", "must be a JSON object"),
            ("{\"op\":\"warp\"}", "unknown op"),
            ("{\"op\":\"measure\",\"arch\":\"R3000\"}", "\"primitive\""),
            (
                "{\"op\":\"measure\",\"arch\":\"vax\",\"primitive\":\"trap\"}",
                "mips-r3000",
            ),
            ("{\"op\":\"table\",\"table\":\"table99\"}", "table1"),
            ("{\"op\":\"spans\",\"filter\":\"perfetto\"}", "chrome"),
            ("{\"op\":1}", "must be a string"),
            ("{\"op\":{\"nested\":1}}", "scalar"),
            ("{}", "missing required field \"op\""),
            (
                "{\"op\":\"measure\",\"arch\":\"R3000\",\"spec\":\"x\",\"primitive\":\"trap\"}",
                "not both",
            ),
            ("{\"op\":\"admin\",\"action\":\"spec-list\"}", "\"token\""),
            (
                "{\"op\":\"admin\",\"action\":\"reboot\",\"token\":\"t\"}",
                "valid actions",
            ),
            (
                "{\"op\":\"admin\",\"action\":\"spec-load\",\"token\":\"t\"}",
                "\"spec\"",
            ),
            (
                "{\"op\":\"admin\",\"action\":\"spec-activate\",\"token\":\"t\"}",
                "\"name\"",
            ),
        ] {
            let (err, _) = parse_request(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
            assert!(!err.contains('\n'), "{line}: {err}");
        }
    }

    #[test]
    fn bad_request_still_recovers_the_id() {
        let (_, id) = parse_request("{\"op\":\"warp\",\"id\":7}").expect_err("unknown op");
        assert_eq!(id, "7");
        // A nested field is refused after the id is read, so the refusal
        // still answers under it; a nested id itself is not echoed, and
        // the first of two ids wins.
        for (line, expected) in [
            (
                "{\"op\":\"measure\",\"arch\":{\"name\":\"R3000\"},\"primitive\":\"trap\",\"id\":1}",
                "1",
            ),
            ("{\"id\":\"a\",\"op\":[1]}", "\"a\""),
            ("{\"op\":\"ping\",\"id\":[7]}", "null"),
            ("{\"op\":\"ping\",\"id\":{\"n\":7}}", "null"),
            ("{\"op\":[1],\"id\":3,\"id\":4}", "3"),
        ] {
            let (message, id) = parse_request(line).expect_err(line);
            assert!(message.contains("must be a scalar"), "{line}: {message}");
            assert_eq!(id, expected, "{line}");
        }
    }

    #[test]
    fn envelopes_are_valid_json() {
        use osarch_core::metrics::validate_json;
        let ok = ok_envelope("17", true, 2, 42, "{\"x\":1}");
        assert_eq!(validate_json(&ok), Ok(()), "{ok}");
        assert!(ok.contains("\"cached\":true"));
        assert!(ok.contains("\"epoch\":2"));
        let err = err_envelope("null", "boom \"quoted\"\nline");
        assert_eq!(validate_json(&err), Ok(()), "{err}");
        assert!(!err.contains('\n'));
        let degraded = degraded_envelope("3", 5, 17, "{\"x\":1}", "panicked: \"boom\"");
        assert_eq!(validate_json(&degraded), Ok(()), "{degraded}");
        assert!(degraded.contains("\"degraded\":true"));
        assert!(degraded.contains("\"cached\":true"));
        assert!(degraded.contains("\"epoch\":5"));
        assert!(!degraded.contains('\n'));
        let redirect = not_owner_envelope(
            "9",
            "measure/R3000/trap",
            "127.0.0.1:4001",
            &["127.0.0.1:4001", "127.0.0.1:4002"],
        );
        assert_eq!(validate_json(&redirect), Ok(()), "{redirect}");
        assert!(redirect.contains("\"error\":\"not_owner\""));
        assert!(redirect.contains("\"owner\":\"127.0.0.1:4001\""));
        assert!(redirect.contains("\"replicas\":\"127.0.0.1:4001,127.0.0.1:4002\""));
    }

    #[test]
    fn cache_keys_are_canonical_and_control_ops_uncached() {
        let builtins = SpecSnapshot::builtins();
        let q = Query::Measure {
            arch: Arch::R3000,
            primitive: Primitive::Trap,
        };
        assert_eq!(q.routing_key().as_deref(), Some("measure/R3000/trap"));
        assert_eq!(
            q.cache_key(&builtins),
            Some(format!("{}measure/R3000/trap", builtins.key_prefix()))
        );
        for q in [
            Query::Spans,
            Query::Metrics,
            Query::Shutdown,
            Query::Ping,
            Query::Health { gossip: None },
            Query::Cluster,
            Query::SpecFetch,
            Query::Admin {
                action: AdminAction::SpecList,
                token: "t".to_string(),
                name: None,
                spec: None,
            },
        ] {
            assert_eq!(q.routing_key(), None, "{q:?}");
            assert_eq!(q.cache_key(&builtins), None, "{q:?}");
        }
    }

    #[test]
    fn cache_keys_are_epoch_scoped_but_routing_keys_are_not() {
        let builtins = SpecSnapshot::builtins();
        let doc = osarch_cpu::Arch::Sparc.spec().to_json("hot-sparc");
        let next = builtins
            .with_spec(&doc, builtins.epoch() + 1)
            .expect("valid doc");
        let q = Query::Measure {
            arch: Arch::R3000,
            primitive: Primitive::Trap,
        };
        assert_ne!(q.cache_key(&builtins), q.cache_key(&next));
        assert_eq!(q.routing_key(), Some("measure/R3000/trap".to_string()));
        let qs = Query::MeasureSpec {
            name: "hot-sparc".to_string(),
            primitive: Primitive::Trap,
        };
        assert_eq!(qs.routing_key(), Some("measure/hot-sparc/trap".to_string()));
        assert_eq!(
            qs.cache_key(&next),
            Some(format!("{}measure/hot-sparc/trap", next.key_prefix()))
        );
    }

    /// The routing key as `format!` spelled it before keys were written
    /// into one buffer: the ring, relays and `loadgen::node_slices` all
    /// hash these bytes, so they must not move.
    fn formatted_routing_key(query: &Query) -> Option<String> {
        let all = |arch: &Option<Arch>| arch.map_or_else(|| "all".to_string(), |a| a.to_string());
        match query {
            Query::Measure { arch, primitive } => {
                Some(format!("measure/{arch}/{}", primitive.tag()))
            }
            Query::MeasureSpec { name, primitive } => {
                Some(format!("measure/{name}/{}", primitive.tag()))
            }
            Query::Table { name } => Some(format!("table/{name}")),
            Query::Lint { arch } => Some(format!("lint/{}", all(arch))),
            Query::Analyze { arch } => Some(format!("analyze/{}", all(arch))),
            Query::Trace { arch, primitive } => Some(format!("trace/{arch}/{}", primitive.tag())),
            Query::Counters { arch } => Some(format!("counters/{}", all(arch))),
            _ => None,
        }
    }

    #[test]
    fn keys_match_their_format_spellings_for_every_cacheable_query() {
        let builtins = SpecSnapshot::builtins();
        let doc = Arch::Sparc.spec().to_json("hot-sparc");
        let swapped = builtins.with_spec(&doc, 2).expect("valid doc");
        let mut queries = Vec::new();
        for arch in Arch::all().map(Some).into_iter().chain([None]) {
            queries.extend([
                Query::Lint { arch },
                Query::Analyze { arch },
                Query::Counters { arch },
            ]);
        }
        for primitive in Primitive::all() {
            for arch in Arch::all() {
                queries.extend([
                    Query::Measure { arch, primitive },
                    Query::Trace { arch, primitive },
                ]);
            }
            queries.push(Query::MeasureSpec {
                name: "hot-sparc".to_string(),
                primitive,
            });
        }
        for report in session::REPORTS {
            queries.push(Query::Table {
                name: report.name.to_string(),
            });
        }
        assert_eq!(queries.len(), 24 + 60 + session::REPORTS.len());
        for query in &queries {
            let expected = formatted_routing_key(query).expect("cacheable");
            assert_eq!(query.routing_key().as_deref(), Some(&*expected));
            for snapshot in [&builtins, &swapped] {
                let key = query.cache_key(snapshot).expect("cacheable");
                assert_eq!(key, format!("{}{expected}", snapshot.key_prefix()));
                assert_eq!(&key[snapshot.key_prefix().len()..], expected);
                // Exactly sized: one allocation that never grew.
                assert_eq!(key.capacity(), key.len(), "{key}");
            }
        }
    }

    /// A reply is one allocation: the reservation covers the fixed text
    /// and the widest integers, so the buffer never grows; and the bytes
    /// are the ones the `format!` template wrote.
    #[test]
    fn ok_envelope_fills_one_reservation_with_the_template_bytes() {
        let payload = Query::Measure {
            arch: Arch::Rs6000,
            primitive: Primitive::ContextSwitch,
        }
        .compute(&SpecSnapshot::builtins());
        for id in ["1", "-2e3", "\"req-\\u00e9\"", "null"] {
            for cached in [true, false] {
                for (epoch, micros) in [(0, 0), (7, 812), (u64::MAX, u64::MAX)] {
                    let envelope = ok_envelope(id, cached, epoch, micros, &payload);
                    let template = format!(
                        "{{\"schema\":\"{}\",\"id\":{id},\"ok\":true,\"cached\":{cached},\
                         \"epoch\":{epoch},\"micros\":{micros},\"result\":{payload}}}",
                        metrics::SERVE_SCHEMA
                    );
                    assert_eq!(envelope, template);
                    assert_eq!(envelope.capacity(), 128 + id.len() + payload.len(), "{id}");
                }
            }
        }
    }

    #[test]
    fn m88000_names_the_88000_on_the_wire() {
        for arch in ["m88000", "M88000", "88000"] {
            let line = format!("{{\"op\":\"measure\",\"arch\":\"{arch}\",\"primitive\":\"trap\"}}");
            let request = parse_request(&line).expect(&line);
            assert_eq!(
                request.query,
                Query::Measure {
                    arch: Arch::M88000,
                    primitive: Primitive::Trap,
                }
            );
        }
        let (err, _) = parse_request("{\"op\":\"lint\",\"arch\":\"m8800\"}").expect_err("prefix");
        assert!(err.contains("88000 (alias m88000)"), "{err}");
    }

    #[test]
    fn computed_payloads_are_valid_single_line_json() {
        use osarch_core::metrics::validate_json;
        for query in [
            Query::Measure {
                arch: Arch::Sparc,
                primitive: Primitive::Trap,
            },
            Query::Table {
                name: "table6".to_string(),
            },
            Query::Lint {
                arch: Some(Arch::R2000),
            },
        ] {
            let payload = query.compute(&SpecSnapshot::builtins());
            assert_eq!(validate_json(&payload), Ok(()), "{query:?}");
            assert!(
                !payload.contains('\n'),
                "{query:?} payload must be one line"
            );
        }
    }

    /// Feed a framer from a byte slice in `chunk`-sized commits,
    /// collecting every frame as an owned string (or `"<oversized>"`).
    fn frames_from(frame_buf: &mut FrameBuf, data: &[u8], chunk: usize) -> Vec<String> {
        let mut out = Vec::new();
        let mut offset = 0;
        while offset < data.len() {
            let take = chunk.min(data.len() - offset);
            let spare = frame_buf.spare();
            assert!(spare.len() >= MIN_SPARE, "spare window shrank");
            let take = take.min(spare.len());
            spare[..take].copy_from_slice(&data[offset..offset + take]);
            frame_buf.commit(take);
            offset += take;
            loop {
                match frame_buf.next_frame() {
                    Frame::None => break,
                    Frame::Oversized => out.push("<oversized>".to_string()),
                    Frame::Line { start, end } => {
                        out.push(String::from_utf8_lossy(frame_buf.bytes(start, end)).into_owned());
                    }
                }
            }
        }
        out
    }

    #[test]
    fn framer_reassembles_one_byte_arrivals() {
        let mut frame_buf = FrameBuf::new(64);
        let frames = frames_from(&mut frame_buf, b"{\"op\":\"ping\"}\n", 1);
        assert_eq!(frames, vec!["{\"op\":\"ping\"}".to_string()]);
        assert!(frame_buf.is_empty());
    }

    #[test]
    fn framer_splits_pipelined_burst_in_order() {
        let mut frame_buf = FrameBuf::new(64);
        let burst = b"{\"id\":1}\n{\"id\":2}\n{\"id\":3}\npartial";
        let frames = frames_from(&mut frame_buf, burst, burst.len());
        assert_eq!(frames, vec!["{\"id\":1}", "{\"id\":2}", "{\"id\":3}"]);
        assert_eq!(frame_buf.buffered(), "partial".len());
        let (start, end) = frame_buf.take_eof_line().expect("trailing partial");
        assert_eq!(frame_buf.bytes(start, end), b"partial");
    }

    #[test]
    fn framer_eof_line_surfaces_unterminated_tail() {
        let mut frame_buf = FrameBuf::new(64);
        let frames = frames_from(&mut frame_buf, b"{\"op\":\"ping\"}", 5);
        assert!(frames.is_empty());
        let (start, end) = frame_buf.take_eof_line().expect("tail line");
        assert_eq!(frame_buf.bytes(start, end), b"{\"op\":\"ping\"}");
        assert!(frame_buf.take_eof_line().is_none(), "tail consumed");
    }

    #[test]
    fn framer_resyncs_after_oversized_line_and_releases_capacity() {
        let baseline = MIN_SPARE;
        let mut frame_buf = FrameBuf::new(baseline);
        let mut stream = vec![b'x'; MAX_REQUEST_BYTES + 9000];
        stream.push(b'\n');
        stream.extend_from_slice(b"{\"op\":\"ping\",\"id\":7}\n");
        let frames = frames_from(&mut frame_buf, &stream, 8 * 1024);
        assert_eq!(
            frames,
            vec![
                "<oversized>".to_string(),
                "{\"op\":\"ping\",\"id\":7}".to_string()
            ],
            "exactly one error per oversized line, then resynced"
        );
        assert!(
            frame_buf.capacity() <= MAX_REQUEST_BYTES + 2 * MIN_SPARE,
            "discard mode must not grow the buffer unboundedly: {}",
            frame_buf.capacity()
        );
        frame_buf.reset();
        assert_eq!(
            frame_buf.capacity(),
            baseline,
            "reset must shed capacity grown past the baseline"
        );
    }

    #[test]
    fn framer_flags_oversized_line_that_arrives_whole() {
        let mut frame_buf = FrameBuf::new(64);
        let mut stream = vec![b'y'; MAX_REQUEST_BYTES + 1];
        stream.push(b'\n');
        stream.extend_from_slice(b"{}\n");
        // One giant commit: line + newline land together.
        let spare_needed = stream.len();
        let mut offset = 0;
        let mut frames = Vec::new();
        while offset < spare_needed {
            let spare = frame_buf.spare();
            let take = spare.len().min(spare_needed - offset);
            spare[..take].copy_from_slice(&stream[offset..offset + take]);
            frame_buf.commit(take);
            offset += take;
            loop {
                match frame_buf.next_frame() {
                    Frame::None => break,
                    Frame::Oversized => frames.push("<oversized>".to_string()),
                    Frame::Line { start, end } => frames
                        .push(String::from_utf8_lossy(frame_buf.bytes(start, end)).into_owned()),
                }
            }
        }
        assert_eq!(frames, vec!["<oversized>", "{}"]);
    }
}
