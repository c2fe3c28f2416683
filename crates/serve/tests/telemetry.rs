//! End-to-end request telemetry: trace-id propagation through the
//! pipelined request path, the `metrics` op and scrape listener against
//! the core validator, the derived health gauges, deterministic
//! same-seed replay of soak telemetry, and a concurrent stress over the
//! windowed-histogram hub.

use osarch_serve::soak::{self, Scenario};
use osarch_serve::{Server, ServerConfig};
use osarch_telemetry::TraceIdGen;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn connect(handle: &osarch_serve::ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

/// Slice the `result` payload back out of a reply envelope.
fn result_payload(reply: &str) -> &str {
    let trimmed = reply.trim_end();
    let start = trimmed.find("\"result\":").expect("result field") + "\"result\":".len();
    &trimmed[start..trimmed.len() - 1]
}

#[test]
fn depth_16_pipeline_yields_one_complete_chain_per_request() {
    let handle = Server::start(&ServerConfig {
        workers: 2,
        sample_every: 1, // trace everything: the chain set must be exact
        telemetry_seed: 0xdead_beef,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let stream = connect(&handle);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    // One write, 16 requests in flight, 16 *distinct* cold keys: every
    // request misses, offloads, and computes — the full five-stage path.
    let keys: Vec<(osarch_cpu::Arch, osarch_kernel::Primitive)> =
        osarch_serve::loadgen::key_space()
            .into_iter()
            .take(16)
            .collect();
    let mut burst = String::new();
    for (id, (arch, primitive)) in keys.iter().enumerate() {
        burst.push_str(&format!(
            "{{\"op\":\"measure\",\"arch\":\"{arch}\",\"primitive\":\"{}\",\"id\":{id}}}\n",
            primitive.tag()
        ));
    }
    writer.write_all(burst.as_bytes()).expect("burst write");
    for id in 0..keys.len() {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        assert!(
            reply.contains(&format!("\"id\":{id},")) && reply.contains("\"ok\":true"),
            "reply {id}: {reply}"
        );
    }

    // Every request left exactly one finished chain with the complete
    // stage walk, and a distinct deterministic trace id.
    let chains = handle.telemetry().chains();
    let measure: Vec<_> = chains.iter().filter(|c| c.op == "measure").collect();
    assert_eq!(measure.len(), keys.len(), "one chain per pipelined request");
    let mut ids: Vec<u64> = measure.iter().map(|c| c.trace_id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), keys.len(), "trace ids are distinct");
    for chain in &measure {
        assert_ne!(chain.trace_id, 0);
        assert_ne!(chain.span_id, chain.trace_id);
        for stage in ["decode", "queue", "cache", "compute", "write"] {
            assert!(
                chain.has_stage(stage),
                "chain {:#x} missing {stage}: {:?}",
                chain.trace_id,
                chain.spans
            );
        }
        // Queue wait is split out from service time: the cache stage
        // (single-flight occupancy) starts only after the queue stage.
        let queue = chain.spans.iter().find(|s| s.stage == "queue").unwrap();
        let cache = chain.spans.iter().find(|s| s.stage == "cache").unwrap();
        assert!(cache.start_us >= queue.start_us + queue.dur_us);
    }
    // The ids replay from the seed: every observed id sits on its loop's
    // pure generator stream.
    for chain in &measure {
        assert!(
            on_stream(0xdead_beef, chain.loop_index, &[chain.trace_id]),
            "trace id {:#x} not on the seeded stream",
            chain.trace_id
        );
    }
    handle.stop();
}

/// Whether every id in `ids` appears in the first million draws of the
/// seeded SplitMix64 stream for one loop shard. Membership, not order:
/// chains complete in reply order, which pipelining decouples from
/// id-draw order.
fn on_stream(seed: u64, loop_index: usize, ids: &[u64]) -> bool {
    let mut gen = TraceIdGen::new(seed, loop_index as u64);
    let mut pending: std::collections::HashSet<u64> = ids.iter().copied().collect();
    for _ in 0..1_000_000u32 {
        if pending.is_empty() {
            return true;
        }
        pending.remove(&gen.next_id());
    }
    pending.is_empty()
}

#[test]
fn metrics_op_returns_a_validated_snapshot() {
    let handle = Server::start(&ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let stream = connect(&handle);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    // Put some traffic on the books first so the windows are non-empty.
    writeln!(writer, "{{\"op\":\"ping\",\"id\":1}}").expect("ping");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("ping reply");
    writeln!(writer, "{{\"op\":\"metrics\",\"id\":2}}").expect("metrics");
    reply.clear();
    reader.read_line(&mut reply).expect("metrics reply");
    assert!(reply.contains("\"ok\":true"), "reply: {reply}");
    let payload = result_payload(&reply);
    osarch_core::metrics::validate_metrics_snapshot(payload)
        .unwrap_or_else(|reason| panic!("snapshot rejected: {reason}\n{payload}"));
    assert!(payload.contains("\"schema\":\"osarch-metrics/1\""));
    handle.stop();
}

#[test]
fn scrape_listener_serves_prometheus_text_and_validated_json() {
    let handle = Server::start(&ServerConfig {
        workers: 2,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let scrape_addr = handle.metrics_addr().expect("scrape listener bound");

    let fetch = |path: &str| -> String {
        let mut stream = TcpStream::connect(scrape_addr).expect("connect scrape listener");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        write!(stream, "GET {path} HTTP/1.0\r\nConnection: close\r\n\r\n").expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        response
    };

    let text = fetch("/metrics");
    assert!(text.starts_with("HTTP/1.0 200 OK"), "{text}");
    assert!(text.contains("text/plain"), "{text}");
    assert!(text.contains("osarch_uptime_seconds"), "{text}");
    assert!(text.contains("osarch_requests_total"), "{text}");

    let json = fetch("/metrics/json");
    assert!(json.contains("application/json"), "{json}");
    let body = json.split_once("\r\n\r\n").expect("body").1;
    osarch_core::metrics::validate_metrics_snapshot(body)
        .unwrap_or_else(|reason| panic!("scrape JSON rejected: {reason}\n{body}"));
    handle.stop();
}

#[test]
fn health_reports_derived_gauges() {
    let handle = Server::start(&ServerConfig {
        workers: 2,
        queue_depth: 37, // the connection budget derives from this
        ..ServerConfig::default()
    })
    .expect("server starts");
    let stream = connect(&handle);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    // One miss then one hit gives the ratio a denominator.
    for id in [1, 2] {
        writeln!(
            writer,
            "{{\"op\":\"measure\",\"arch\":\"R2000\",\"primitive\":\"trap\",\"id\":{id}}}"
        )
        .expect("measure");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("measure reply");
    }
    writeln!(writer, "{{\"op\":\"health\",\"id\":3}}").expect("health");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("health reply");
    let payload = result_payload(&reply);
    for key in [
        "\"cache_hit_ratio\":",
        "\"conns_open\":1",
        "\"conn_budget\":37",
        "\"workers_live\":2",
        "\"oldest_write_backlog_ms\":",
        "\"shutting_down\":false",
    ] {
        assert!(payload.contains(key), "missing {key}: {payload}");
    }
    assert!(payload.contains("\"cache_hit_ratio\":0.5"), "{payload}");
    handle.stop();
}

#[test]
fn same_seed_soaks_replay_telemetry_from_the_seed() {
    let scenario = Scenario {
        rate: 0.15,
        conns: 4,
        workers: 2,
        sample: 2,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..Scenario::soak(0x7e1e_417a, Duration::from_secs(1))
    };
    let first = soak::run(&scenario).expect("first soak");
    let second = soak::run(&scenario).expect("second soak");
    for (label, report) in [("first", &first), ("second", &second)] {
        assert!(
            report.passed(),
            "{label} soak violations: {:?}",
            report.violations
        );
        assert!(report.chains_sampled > 0, "{label} soak sampled nothing");
        osarch_core::metrics::validate_metrics_snapshot(&report.metrics_snapshot)
            .unwrap_or_else(|reason| panic!("{label} snapshot rejected: {reason}"));
        assert!(report.chrome_trace.contains("\"osarch-trace/1\""));
    }
    // The schedules are bit-identical (pure function of the seed) …
    assert_eq!(first.schedule, second.schedule);
    // … and so are the id streams the traces draw from: both runs'
    // per-loop trace ids are subsequences of one deterministic stream.
    for report in [&first, &second] {
        for (loop_index, ids) in report.trace_ids_by_loop.iter().enumerate() {
            assert!(
                on_stream(scenario.seed, loop_index, ids),
                "loop {loop_index} ids fell off the seeded stream"
            );
        }
    }
}

#[test]
fn hub_survives_concurrent_record_merge_and_rotation() {
    use std::sync::Arc;
    const LOOPS: usize = 4;
    const THREADS: usize = 8;
    const PHASE1: u64 = 20_000;
    const PHASE2: u64 = 5_000;
    let hub = Arc::new(osarch_telemetry::TelemetryHub::new(
        LOOPS,
        &osarch_serve::OP_NAMES,
        4,
        99,
    ));
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let hub = Arc::clone(&hub);
            scope.spawn(move || {
                let loop_index = thread % LOOPS;
                // Phase 1: records racing across a fast-rolling clock —
                // every record forces window lookups, many force
                // rotation and retention pruning.
                for i in 0..PHASE1 {
                    let now_s = i / 100; // 200 epochs deep, > retention
                    hub.record_served(loop_index, 1, (i % 997) + 1, None, now_s);
                    hub.record_loop_lag(loop_index, i % 53, now_s);
                }
                // Phase 2: a fixed epoch far past phase 1, so rotation
                // prunes every phase-1 window and the final merged count
                // is exact.
                for i in 0..PHASE2 {
                    hub.record_served(loop_index, 2, (i % 89) + 1, None, 10_000);
                }
            });
        }
        // Concurrent reader: merge snapshots while the writers rotate.
        let hub = Arc::clone(&hub);
        scope.spawn(move || {
            for _ in 0..50 {
                let snap = hub.snapshot(
                    1_000_000,
                    osarch_telemetry::Gauges::default(),
                    osarch_telemetry::Totals::default(),
                );
                assert_eq!(snap.ops.len(), osarch_serve::OP_NAMES.len());
                std::thread::yield_now();
            }
        });
    });
    // Roll every shard to the final epoch, then count: phase-2 records
    // all landed on op slot 2 ("table") and nothing was lost.
    for loop_index in 0..LOOPS {
        hub.record_served(loop_index, 2, 1, None, 10_000);
    }
    let snap = hub.snapshot(
        1_000_000,
        osarch_telemetry::Gauges::default(),
        osarch_telemetry::Totals::default(),
    );
    let table = &snap.ops[2];
    assert_eq!(
        table.hist.count(),
        THREADS as u64 * PHASE2 + LOOPS as u64,
        "phase-2 records merged exactly"
    );
    let doc = osarch_core::metrics::metrics_snapshot_json(&snap);
    osarch_core::metrics::validate_metrics_snapshot(&doc)
        .unwrap_or_else(|reason| panic!("stress snapshot rejected: {reason}"));
}

#[test]
fn health_metrics_and_request_stats_count_one_mix_identically() {
    use osarch_core::json;
    let handle = Server::start(&ServerConfig {
        workers: 2,
        queue_depth: 1, // one admitted connection; the next is rejected
        ..ServerConfig::default()
    })
    .expect("server starts");
    let stream = connect(&handle);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut round_trip = |line: &str| -> String {
        writeln!(writer, "{line}").expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        reply
    };

    // Two misses, then three hits on the same two keys.
    let keys = [("R2000", "trap"), ("SPARC", "ctxsw")];
    for (arch, primitive) in keys.iter().chain(&keys).chain(&keys[..1]) {
        let reply = round_trip(&format!(
            "{{\"op\":\"measure\",\"arch\":\"{arch}\",\"primitive\":\"{primitive}\"}}"
        ));
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }
    // One malformed and one oversized line: two error envelopes, and the
    // connection keeps serving.
    assert!(round_trip("not json").contains("\"ok\":false"));
    let huge = "x".repeat(osarch_serve::MAX_REQUEST_BYTES + 10);
    assert!(round_trip(&huge).contains("request too large"));
    // One rejected connection: the budget of one is taken.
    let rejected = connect(&handle);
    let mut busy = String::new();
    BufReader::new(rejected)
        .read_line(&mut busy)
        .expect("busy reply");
    assert!(busy.contains("server busy"), "{busy}");

    let (requests, errors, rejections) = (5, 2, 1);
    assert_eq!(handle.request_stats(), (requests, errors, rejections));
    let doc = handle.metrics_snapshot_json();
    let snap = json::parse(&doc).expect("snapshot parses");
    let totals = &snap["totals"];
    let window = &snap["window"];
    for (field, expected) in [
        ("requests", requests),
        ("errors", errors),
        ("rejected", rejections),
        ("cache_hits", 3),
        ("cache_misses", 2),
        ("conns_opened", 1),
    ] {
        assert_eq!(totals[field].as_u64(), Some(expected), "totals.{field}");
    }
    for (field, expected) in [
        ("requests", requests),
        ("errors", errors),
        ("hits", 3),
        ("misses", 2),
    ] {
        assert_eq!(window[field].as_u64(), Some(expected), "window.{field}");
    }
    // The probe's payload is taken before the probe itself is counted.
    let reply = round_trip("{\"op\":\"health\",\"id\":1}");
    let envelope = json::parse(&reply).expect("health parses");
    let health = &envelope["result"];
    for (field, expected) in [
        ("requests", requests),
        ("errors", errors),
        ("rejected", rejections),
    ] {
        assert_eq!(health[field].as_u64(), Some(expected), "health.{field}");
    }
    assert_eq!(health["status"].as_str(), Some("ok"), "{reply}");
    assert_eq!(
        health["cache_hit_ratio"].as_f64(),
        snap["gauges"]["cache_hit_ratio"].as_f64()
    );
    handle.stop();
}
