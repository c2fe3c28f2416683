//! # osarch-serve
//!
//! The long-lived serving layer over the `osarch` simulator: a
//! concurrent TCP query service with a sharded single-flight response
//! cache, plus the load-generator harness that benchmarks it.
//!
//! The ASPLOS 1991 paper's thesis is that OS primitive cost is dominated
//! by *fixed per-operation overheads* that fail to scale with processor
//! speed. The repo used to exhibit the same pathology at its own serving
//! layer: every query re-ran a whole process (and a whole
//! `MeasurementSession`). This crate replaces that with an explicit,
//! measured request path — the small-kernel decomposition the paper
//! studies, applied to ourselves:
//!
//! * [`cache::ShardedCache`] — N-way sharded, single-flight memoization:
//!   concurrent requests for one key coalesce onto one computation;
//! * [`protocol`] — the `osarch-serve/1` line-delimited JSON protocol
//!   over the full result surface (measure / table / lint / trace /
//!   counters), reusing the `core/metrics` emitters byte-for-byte and
//!   reading every request (and, on the client side, every reply) with
//!   the one depth-capped parser in `osarch_core::json`, with
//!   an incremental framer ([`protocol::FrameBuf`]) that reassembles
//!   requests from arbitrary read fragments and resynchronizes after an
//!   oversized line;
//! * [`server`] — the event-driven core: one nonblocking event loop per
//!   worker over the `osarch-poll` readiness shim (epoll on Linux),
//!   pipelined requests with strictly ordered replies, per-loop buffer
//!   arenas, a compute-offload pool for cache misses, a global
//!   open-connection budget with backpressure, progress-based idle and
//!   write timeouts, per-request deadlines, and graceful shutdown that
//!   answers every request already accepted. [`Server::start`] is the one
//!   validator of server settings;
//! * [`loadgen`] — the load generator, one lockstep driver for closed,
//!   open (paced) and pipelined runs from 1 to 10 000 connections on at
//!   most 32 client threads, its clock started once every socket is
//!   dialed, emitting `BENCH_serve.json`
//!   (`osarch-serve-bench/3`), plus the cluster weak-scaling bench
//!   (`BENCH_cluster.json`);
//! * [`client`] — the resilient protocol client the soak drives its
//!   servers with: per-attempt timeouts, bounded retries with
//!   deterministic backoff jitter, and a closed/open/half-open circuit
//!   breaker;
//! * [`soak`] — the chaos soak runner (`osarch chaos`): one runner over
//!   [`Scenario`] values (seed, fault rate, nodes, load, and a phase list
//!   of loads, node kills and respawns, spec swaps and rollbacks) that
//!   drives fault-injected in-process nodes and asserts the resilience
//!   invariants (no corruption, no deadlock, no leaked workers, degraded
//!   replies flagged, single-flight accounting exact, seeded replay);
//! * cluster mode — multiple `osarch serve` nodes form a ring
//!   (`osarch-cluster`): keys shard by consistent hashing with R-way
//!   replica placement, a non-owner either proxies the query to a live
//!   replica or answers a `not_owner` redirect, membership gossip rides
//!   the `health` op, and the `cluster` op reports ring + membership
//!   (`osarch-cluster/1`). [`ClusterClient`] is the shard-map-aware
//!   router: it shares the server's ring, prefers breaker-closed
//!   replicas, fails over on dead nodes, and follows redirects;
//! * [`top`] — the live terminal dashboard (`osarch top ADDR`), a 1 Hz
//!   plain-ANSI view over the `metrics` op's `osarch-metrics/1`
//!   snapshot: throughput, per-op tail percentiles, loop lag, cache and
//!   resilience counters.
//!
//! The `osarch serve`, `loadgen`, `chaos` and `top` front ends
//! ([`server::cli`], [`loadgen::cli`], [`soak::cli`], [`top::cli`]) read
//! their arguments through the one reader in `osarch_core::names`, each
//! over its `SYNOPSIS`, and return a one-line refusal for the caller to
//! print before exiting 2. The refusal comes before any server starts:
//! an argument nobody reads, a flag the chosen mode would not read, or a
//! setting that [`Server::start`] or [`loadgen::run`] refuses as
//! `InvalidInput`.
//!
//! Request telemetry threads through all of it (the `osarch-telemetry`
//! crate's hub is the server's only recorder): sampled requests carry a
//! deterministic trace id from frame decode through the ticket queue,
//! compute pool, cache, and write batch, each stage a span with
//! queue-wait split from service time; an unsampled request pays one
//! hub call under its loop's shard lock, no allocation. The `metrics`
//! op, the `health` probe (a view of the same gauges and totals), the
//! `--metrics-addr` scrape listener (Prometheus text + JSON), and the
//! `spans` op (the sampled chains as a Chrome trace) expose it.
//!
//! Fault injection comes from the `osarch-chaos` crate: every failpoint
//! decision is a pure function of `(seed, failpoint, draw index)`, so a
//! fault schedule replays bit-identically from its seed.
//!
//! Everything is `std`-only: no new external dependencies. The readiness
//! shim lives in the sibling `osarch-poll` crate, which carries the
//! workspace's only `unsafe` (four audited `epoll` FFI calls) and falls
//! back to a portable poller where epoll is unavailable — this crate
//! itself stays `#![forbid(unsafe_code)]`.
//!
//! # Quickstart
//!
//! ```
//! use osarch_core::json;
//! use osarch_serve::{LoadgenConfig, Server, ServerConfig};
//! use std::io::{BufRead, BufReader, Write};
//!
//! let server = Server::start(&ServerConfig::default()).unwrap();
//! let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
//! writeln!(conn, "{}", r#"{"op":"ping","id":1}"#).unwrap();
//! let mut reply = String::new();
//! BufReader::new(&conn).read_line(&mut reply).unwrap();
//! let reply = json::parse(&reply).unwrap();
//! assert_eq!(reply["result"]["pong"].as_bool(), Some(true));
//! server.stop();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod loadgen;
pub mod protocol;
pub mod queue;
pub mod registry;
pub mod server;
pub mod soak;
pub mod top;

pub use cache::{Fetched, ShardedCache};
pub use client::{ClientConfig, ClusterClient, ErrorClass, ResilientClient, RouteCounters};
pub use loadgen::{run as run_loadgen, run_cluster_bench, ClusterLoadConfig, LoadgenConfig};
pub use osarch_core::names::OP_NAMES;
pub use protocol::{Frame, FrameBuf, Query, Request, MAX_REQUEST_BYTES};
pub use registry::{SpecRegistry, SpecSnapshot};
pub use server::{ClusterConfig, Server, ServerConfig, ServerHandle};

/// The `InvalidInput` error for a setting no run can use, naming the
/// `osarch` flag that sets it: what [`Server::start`] and
/// [`loadgen::run`] return before anything starts, and what their front
/// ends refuse with exit 2.
pub(crate) fn invalid(flag: &str, expects: &str, value: impl std::fmt::Debug) -> std::io::Error {
    let reason = format!("{flag} expects {expects}, got {value:?}");
    std::io::Error::new(std::io::ErrorKind::InvalidInput, reason)
}
