//! `osarch top ADDR` — a live terminal dashboard over the `metrics` op.
//!
//! Connects to a running `osarch-serve` instance, issues one
//! `{"op":"metrics"}` query per refresh (1 Hz by default), and renders
//! the `osarch-metrics/2` snapshot as a plain-ANSI screen: throughput
//! (derived from the totals delta between refreshes), per-op tail
//! percentiles out of the windowed histograms, event-loop lag, cache
//! hit ratio, and the resilience counters. No TUI dependency — the only
//! control codes used are cursor-home and clear-screen, so the output
//! also pipes cleanly with `--once`.
//!
//! The reply is read with the workspace's one JSON parser
//! ([`osarch_core::json`]); each field is looked up at its path in the
//! snapshot, so a key repeated in another section can never be misread.
//!
//! A failed scrape does not kill the dashboard: cluster soaks kill and
//! respawn whole nodes, so the watch loop retries with exponential
//! backoff (500 ms doubling to 8 s) and only gives up after the target
//! has been unreachable for `--retry-secs` (default 120, `0` restores
//! fail-fast). `--once` always fails fast — it exists for scripts.

use crate::protocol::exchange_line;
use osarch_core::json::{self, Value};
use osarch_core::names::{Args, Synopsis};
use std::io::Write;
use std::time::Duration;

/// One parsed refresh of the `metrics` snapshot — just the fields the
/// dashboard renders, scraped from the JSON document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopSnapshot {
    /// Server uptime in microseconds.
    pub uptime_us: u64,
    /// Trace-sampling divisor (0 = tracing off).
    pub sample_every: u64,
    /// Lifetime request total (throughput derives from its delta).
    pub requests: u64,
    /// Lifetime error total.
    pub errors: u64,
    /// Lifetime degraded-reply total.
    pub degraded: u64,
    /// Lifetime worker respawns.
    pub worker_respawns: u64,
    /// Lifetime injected faults.
    pub faults_injected: u64,
    /// Lifetime spec swaps committed by the registry.
    pub swaps: u64,
    /// Lifetime automatic/explicit spec rollbacks.
    pub rollbacks: u64,
    /// Active spec-registry epoch (1 = the built-ins).
    pub registry_epoch: u64,
    /// Cache hit ratio over the server lifetime (hits+coalesced / lookups).
    pub cache_hit_ratio: f64,
    /// Open connections right now.
    pub conns_open: u64,
    /// Open-connection budget.
    pub conn_budget: u64,
    /// Configured event loops.
    pub workers: u64,
    /// Live event loops.
    pub workers_live: u64,
    /// Compute-offload queue depth right now.
    pub compute_backlog: u64,
    /// Oldest unflushed write backlog, milliseconds.
    pub oldest_write_backlog_ms: u64,
    /// Whether graceful shutdown is in progress.
    pub shutting_down: bool,
    /// Event-loop busy-time p99 over the retained window, microseconds.
    pub loop_lag_p99_us: u64,
    /// Per-op latency rows over the retained window.
    pub ops: Vec<OpRow>,
}

/// One op's windowed latency line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpRow {
    /// Protocol op name.
    pub op: String,
    /// Requests recorded in the retained window.
    pub count: u64,
    /// Median latency, microseconds.
    pub p50: u64,
    /// 99th percentile latency, microseconds.
    pub p99: u64,
    /// 99.9th percentile latency, microseconds.
    pub p999: u64,
    /// Worst observed latency, microseconds.
    pub max: u64,
}

impl TopSnapshot {
    /// The dashboard's fields out of a `metrics` snapshot: the
    /// `osarch-metrics/2` document itself, or a reply envelope carrying it
    /// under `result`. Absent fields read as zero.
    #[must_use]
    pub fn from_json(doc: &Value<'_>) -> TopSnapshot {
        let doc = doc.get("result").unwrap_or(doc);
        let num = |value: &Value<'_>| value.as_u64().unwrap_or(0);
        let (totals, gauges) = (&doc["totals"], &doc["gauges"]);
        let ops = doc["ops"]
            .as_array()
            .unwrap_or_default()
            .iter()
            .map(|row| {
                let latency = &row["latency_us"];
                OpRow {
                    op: row["op"].as_str().unwrap_or_default().to_string(),
                    count: num(&latency["count"]),
                    p50: num(&latency["p50"]),
                    p99: num(&latency["p99"]),
                    p999: num(&latency["p999"]),
                    max: num(&latency["max"]),
                }
            })
            .collect();
        TopSnapshot {
            uptime_us: num(&doc["uptime_us"]),
            sample_every: num(&doc["sample_every"]),
            requests: num(&totals["requests"]),
            errors: num(&totals["errors"]),
            degraded: num(&totals["degraded"]),
            worker_respawns: num(&totals["worker_respawns"]),
            faults_injected: num(&totals["faults_injected"]),
            swaps: num(&totals["swaps"]),
            rollbacks: num(&totals["rollbacks"]),
            registry_epoch: num(&gauges["registry_epoch"]),
            cache_hit_ratio: gauges["cache_hit_ratio"].as_f64().unwrap_or(0.0),
            conns_open: num(&gauges["conns_open"]),
            conn_budget: num(&gauges["conn_budget"]),
            workers: num(&gauges["workers"]),
            workers_live: num(&gauges["workers_live"]),
            compute_backlog: num(&gauges["compute_backlog"]),
            oldest_write_backlog_ms: num(&gauges["oldest_write_backlog_ms"]),
            shutting_down: gauges["shutting_down"].as_bool().unwrap_or(false),
            loop_lag_p99_us: num(&doc["loop_lag_us"]["p99"]),
            ops,
        }
    }
}

/// Render one dashboard frame. Pure: `prev` (the previous refresh, if
/// any) and the elapsed seconds between them yield the throughput line.
#[must_use]
pub fn render(addr: &str, prev: Option<&TopSnapshot>, cur: &TopSnapshot, elapsed_s: f64) -> String {
    let mut out = String::with_capacity(1536);
    let rps = match prev {
        Some(prev) if elapsed_s > 0.0 => {
            cur.requests.saturating_sub(prev.requests) as f64 / elapsed_s
        }
        _ => 0.0,
    };
    let state = if cur.shutting_down {
        "SHUTTING DOWN"
    } else if cur.workers_live < cur.workers {
        "DEGRADED"
    } else {
        "ok"
    };
    out.push_str(&format!(
        "osarch top — {addr}   uptime {:.1}s   [{state}]\n",
        cur.uptime_us as f64 / 1e6
    ));
    out.push_str(&format!(
        "throughput {rps:>8.0} req/s   requests {}   errors {}   degraded {}\n",
        cur.requests, cur.errors, cur.degraded
    ));
    out.push_str(&format!(
        "cache hit ratio {:.3}   conns {}/{}   workers {}/{} live   respawns {}   faults {}\n",
        cur.cache_hit_ratio,
        cur.conns_open,
        cur.conn_budget,
        cur.workers_live,
        cur.workers,
        cur.worker_respawns,
        cur.faults_injected
    ));
    out.push_str(&format!(
        "spec epoch {}   swaps {}   rollbacks {}\n",
        cur.registry_epoch, cur.swaps, cur.rollbacks
    ));
    out.push_str(&format!(
        "loop lag p99 {} us   offload queue {}   write backlog {} ms   sampling {}\n",
        cur.loop_lag_p99_us,
        cur.compute_backlog,
        cur.oldest_write_backlog_ms,
        if cur.sample_every == 0 {
            "off".to_string()
        } else {
            format!("1/{}", cur.sample_every)
        }
    ));
    out.push_str(&format!(
        "\n{:<10} {:>10} {:>9} {:>9} {:>9} {:>9}\n",
        "op", "count", "p50 us", "p99 us", "p999 us", "max us"
    ));
    for row in &cur.ops {
        if row.count == 0 {
            continue;
        }
        out.push_str(&format!(
            "{:<10} {:>10} {:>9} {:>9} {:>9} {:>9}\n",
            row.op, row.count, row.p50, row.p99, row.p999, row.max
        ));
    }
    if cur.ops.iter().all(|row| row.count == 0) {
        out.push_str("(no requests in the retained window)\n");
    }
    out
}

/// Connect and read budget of one scrape.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);

/// First pause after a failed scrape; doubles up to [`BACKOFF_MAX`].
const BACKOFF_START: Duration = Duration::from_millis(500);

/// Ceiling on the reconnect pause between scrape attempts.
const BACKOFF_MAX: Duration = Duration::from_secs(8);

/// `osarch top`'s synopsis: its usage-text entry and the tail of its
/// refusal lines.
pub const SYNOPSIS: Synopsis = Synopsis {
    command: "top",
    grammar: &["ADDR [--interval-ms N] [--iterations N] [--retry-secs N] [--once]"],
    about: &[
        "live dashboard over a running server's metrics op:",
        "throughput, per-op tails, loop lag, cache counters;",
        "reconnects with backoff across node restarts",
    ],
};

/// The `osarch top` front end. `Err` carries a one-line usage error
/// (exit 2 at the caller), returned before the first scrape.
pub fn cli(args: &[String]) -> Result<std::process::ExitCode, String> {
    use std::process::ExitCode;
    let mut args = Args::new(&SYNOPSIS, args);
    let expects = "milliseconds of at least 50";
    let interval_ms = args.value("--interval-ms", expects, |ms: &u64| *ms >= 50)?;
    let interval = Duration::from_millis(interval_ms.unwrap_or(1000));
    let mut iterations: Option<u64> = args.value("--iterations", "an integer", |_| true)?;
    let retry_secs = args.value("--retry-secs", "seconds", |_| true)?;
    let retry_window = Duration::from_secs(retry_secs.unwrap_or(120));
    if args.switch("--once") {
        iterations = Some(1);
    }
    let Some(addr) = args.positional().map(str::to_string) else {
        return Err(args.refusal("missing ADDR"));
    };
    args.finish()?;
    let once = iterations == Some(1);
    let mut prev: Option<TopSnapshot> = None;
    let mut last_at = std::time::Instant::now();
    let mut frame = 0u64;
    // Reconnect state: `down_since` marks the start of the current
    // outage (None while healthy), `backoff` the next retry pause.
    let mut down_since: Option<std::time::Instant> = None;
    let mut backoff = BACKOFF_START;
    loop {
        let metrics = "{\"op\":\"metrics\",\"id\":0}";
        let reply = match exchange_line(addr.as_str(), metrics, SCRAPE_TIMEOUT, SCRAPE_TIMEOUT) {
            Ok(reply) => reply,
            Err(err) => {
                let since = *down_since.get_or_insert_with(std::time::Instant::now);
                if once || retry_window.is_zero() || since.elapsed() >= retry_window {
                    eprintln!("osarch top: cannot scrape {addr}: {err}");
                    return Ok(ExitCode::FAILURE);
                }
                eprintln!(
                    "osarch top: {addr} unreachable ({err}); retrying in {:.1}s (giving up after {}s down)",
                    backoff.as_secs_f64(),
                    retry_window.as_secs()
                );
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(BACKOFF_MAX);
                continue;
            }
        };
        if down_since.take().is_some() {
            // The target restarted: its lifetime totals reset, so the
            // previous snapshot would render a bogus throughput delta.
            prev = None;
            backoff = BACKOFF_START;
        }
        let envelope = match json::parse(&reply) {
            Ok(envelope) if envelope["ok"].as_bool() == Some(true) => envelope,
            _ => {
                eprintln!(
                    "osarch top: {addr} rejected the metrics query: {}",
                    reply.trim()
                );
                return Ok(ExitCode::FAILURE);
            }
        };
        let cur = TopSnapshot::from_json(&envelope);
        if prev
            .as_ref()
            .is_some_and(|p| p.registry_epoch != cur.registry_epoch)
        {
            // A live spec swap landed between refreshes: the request mix
            // changed epochs, so the throughput delta would compare
            // incomparable windows — reset it, exactly as a restart does.
            prev = None;
        }
        let elapsed = last_at.elapsed().as_secs_f64();
        last_at = std::time::Instant::now();
        let screen = render(&addr, prev.as_ref(), &cur, elapsed);
        if once {
            print!("{screen}");
        } else {
            // Cursor home + clear: the whole frame repaints in place.
            print!("\x1b[H\x1b[2J{screen}");
        }
        let _ = std::io::stdout().flush();
        prev = Some(cur);
        frame += 1;
        if iterations.is_some_and(|n| frame >= n) {
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> String {
        // A real snapshot out of the real emitter, so the scraper and
        // the producer cannot drift apart silently.
        let hub = osarch_telemetry::TelemetryHub::new(2, &crate::OP_NAMES, 64, 7);
        hub.record_served(0, 1, 150, 3);
        hub.record_served(0, 1, 950, 3);
        hub.record_served(1, 0, 40, 3);
        hub.record_loop_lag(0, 90, 3);
        let snapshot = hub.snapshot(
            4_500_000,
            osarch_telemetry::Gauges {
                conns_open: 5,
                conn_budget: 1024,
                workers: 2,
                workers_live: 2,
                compute_backlog: 1,
                oldest_write_backlog_ms: 12,
                registry_epoch: 3,
                shutting_down: false,
            },
            osarch_telemetry::Totals {
                requests: 300,
                errors: 4,
                degraded: 2,
                cache_hits: 60,
                cache_misses: 40,
                swaps: 2,
                rollbacks: 1,
                ..osarch_telemetry::Totals::default()
            },
        );
        osarch_core::metrics::metrics_snapshot_json(&snapshot)
    }

    fn parse_snapshot(doc: &str) -> TopSnapshot {
        TopSnapshot::from_json(&json::parse(doc).expect("valid JSON"))
    }

    #[test]
    fn parse_reads_the_real_emitter_shape() {
        let snap = parse_snapshot(&sample_doc());
        assert_eq!(snap.uptime_us, 4_500_000);
        assert_eq!(snap.sample_every, 64);
        assert_eq!(snap.requests, 300);
        assert_eq!(snap.errors, 4);
        assert_eq!(snap.degraded, 2);
        assert_eq!(snap.conns_open, 5);
        assert_eq!(snap.conn_budget, 1024);
        assert_eq!(snap.workers, 2);
        assert_eq!(snap.workers_live, 2);
        assert_eq!(snap.compute_backlog, 1);
        assert_eq!(snap.oldest_write_backlog_ms, 12);
        assert_eq!(snap.registry_epoch, 3);
        assert_eq!(snap.swaps, 2);
        assert_eq!(snap.rollbacks, 1);
        assert!(!snap.shutting_down);
        assert!((snap.cache_hit_ratio - 0.6).abs() < 1e-9);
        assert_eq!(snap.loop_lag_p99_us, 90);
        assert_eq!(snap.ops.len(), crate::OP_NAMES.len());
        let measure = snap.ops.iter().find(|row| row.op == "measure").unwrap();
        assert_eq!(measure.count, 2);
        assert!(measure.p50 >= 150 && measure.p50 < 950);
        assert!(measure.p999 >= 950);
        let ping = snap.ops.iter().find(|row| row.op == "ping").unwrap();
        assert_eq!(ping.count, 1);
    }

    #[test]
    fn parse_scans_through_a_reply_envelope() {
        let payload = sample_doc();
        let envelope = crate::protocol::ok_envelope("7", false, 3, 120, payload.trim_end());
        let snap = parse_snapshot(&envelope);
        assert_eq!(snap.requests, 300);
        assert_eq!(snap.conn_budget, 1024);
    }

    #[test]
    fn render_shows_throughput_delta_and_rows() {
        let mut prev = parse_snapshot(&sample_doc());
        let mut cur = prev.clone();
        prev.requests = 100;
        cur.requests = 350;
        let screen = render("127.0.0.1:1", Some(&prev), &cur, 1.0);
        assert!(screen.contains("250 req/s"), "screen: {screen}");
        assert!(screen.contains("[ok]"));
        assert!(screen.contains("measure"));
        assert!(screen.contains("cache hit ratio 0.600"));
        assert!(screen.contains("spec epoch 3   swaps 2   rollbacks 1"));
        assert!(!screen.contains('\x1b'), "render itself is ANSI-free");
        // A dead loop flips the state flag.
        cur.workers_live = 1;
        let degraded = render("127.0.0.1:1", None, &cur, 1.0);
        assert!(degraded.contains("[DEGRADED]"));
    }

    #[test]
    fn cli_rejects_missing_addr_and_unknown_flags() {
        assert!(cli(&[]).is_err());
        let args = vec!["127.0.0.1:9".to_string(), "--bogus".to_string()];
        assert!(cli(&args).unwrap_err().contains("--bogus"));
        let args = vec!["127.0.0.1:9".to_string(), "--retry-secs".to_string()];
        assert!(cli(&args).unwrap_err().contains("--retry-secs"));
    }

    fn args_of(parts: &[&str]) -> Vec<String> {
        parts.iter().map(ToString::to_string).collect()
    }

    /// Reserve a loopback port and free it, so the address is dialable
    /// in form but has no listener behind it.
    fn dead_addr() -> String {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
        let port = listener.local_addr().expect("local addr").port();
        format!("127.0.0.1:{port}")
    }

    #[test]
    fn cli_fails_fast_with_once_or_a_zero_retry_window() {
        let failure = format!("{:?}", std::process::ExitCode::FAILURE);
        let addr = dead_addr();
        let code = cli(&args_of(&[&addr, "--once"])).expect("not a usage error");
        assert_eq!(format!("{code:?}"), failure);
        let code = cli(&args_of(&[&addr, "--retry-secs", "0"])).expect("parses");
        assert_eq!(format!("{code:?}"), failure);
    }

    #[test]
    fn cli_retries_through_an_outage_then_gives_up_at_the_window() {
        let addr = dead_addr();
        let started = std::time::Instant::now();
        let code = cli(&args_of(&[&addr, "--retry-secs", "1"])).expect("parses");
        assert_eq!(
            format!("{code:?}"),
            format!("{:?}", std::process::ExitCode::FAILURE)
        );
        assert!(
            started.elapsed() >= Duration::from_millis(900),
            "gave up before the retry window elapsed: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn cli_reconnects_when_the_target_comes_up_late() {
        let addr = dead_addr();
        let spawn_addr = addr.clone();
        let spawner = std::thread::spawn(move || {
            // Let the dashboard fail its first scrape(s) first.
            std::thread::sleep(Duration::from_millis(700));
            crate::server::Server::start(&crate::server::ServerConfig {
                addr: spawn_addr,
                workers: 1,
                ..crate::server::ServerConfig::default()
            })
            .expect("late server starts")
        });
        let args = args_of(&[
            &addr,
            "--interval-ms",
            "50",
            "--iterations",
            "2",
            "--retry-secs",
            "30",
        ]);
        let code = cli(&args).expect("not a usage error");
        assert_eq!(
            format!("{code:?}"),
            format!("{:?}", std::process::ExitCode::SUCCESS)
        );
        spawner.join().expect("server thread").stop();
    }
}
