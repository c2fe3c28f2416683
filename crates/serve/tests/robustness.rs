//! Satellite: robustness regression tests.
//!
//! Protocol framing under adversarial segmentation (one byte per write,
//! two requests per segment), the stalled-client shutdown race, cache
//! poisoning by a panicking leader under real concurrency, the `health`
//! probe, a pipelined `shutdown` answering everything queued before it,
//! the chaos soak itself — run twice to prove the fault schedule replays
//! bit-identically from its seed — and the `osarch chaos`, `osarch
//! loadgen` and `osarch serve` front ends refusing arguments they cannot
//! run.

use osarch_core::metrics;
use osarch_serve::cache::Fetched;
use osarch_serve::soak::{self, Scenario};
use osarch_serve::{loadgen, protocol, server, Server, ServerConfig, ShardedCache};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

fn connect(addr: std::net::SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    (BufReader::new(stream.try_clone().expect("clone")), stream)
}

/// Satellite 1a: a request delivered one byte per `write()` call must be
/// reassembled into one request — the reply arrives whole and correct.
#[test]
fn one_byte_per_write_request_is_reassembled() {
    let server = Server::start(&ServerConfig::default()).expect("start");
    let (mut reader, mut stream) = connect(server.addr());

    let request = b"{\"op\":\"ping\",\"id\":77}\n";
    for byte in request {
        stream
            .write_all(std::slice::from_ref(byte))
            .expect("write one byte");
        stream.flush().expect("flush");
    }
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    assert!(reply.ends_with('\n'), "reply must be line-delimited");
    assert_eq!(metrics::validate_json(reply.trim_end()), Ok(()), "{reply}");
    assert!(reply.contains("\"pong\":true"), "{reply}");
    assert!(reply.contains("\"id\":77"), "{reply}");

    server.stop();
}

/// Satellite 1b: two complete requests delivered in a single `write()`
/// call (one TCP segment) must produce exactly two replies, in order.
#[test]
fn two_requests_in_one_segment_yield_two_ordered_replies() {
    let server = Server::start(&ServerConfig::default()).expect("start");
    let (mut reader, mut stream) = connect(server.addr());

    stream
        .write_all(b"{\"op\":\"ping\",\"id\":1}\n{\"op\":\"ping\",\"id\":2}\n")
        .expect("write both requests at once");
    stream.flush().expect("flush");

    for expected_id in [1u64, 2] {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        assert_eq!(metrics::validate_json(reply.trim_end()), Ok(()), "{reply}");
        assert!(
            reply.contains(&format!("\"id\":{expected_id}")),
            "replies must come back in request order: wanted id {expected_id}, got {reply}"
        );
    }

    server.stop();
}

/// Satellite 2: a client that stops draining its socket must not wedge a
/// worker — and with it, shutdown. The write deadline disconnects the
/// stalled client instead.
#[test]
fn stalled_client_cannot_wedge_shutdown() {
    let server = Server::start(&ServerConfig {
        workers: 2,
        write_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = server.addr();

    // The stalled client: pipeline many large-reply requests and never
    // read a byte. Replies fill the kernel socket buffers until the
    // worker's write blocks.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    for id in 0..500 {
        if writeln!(
            writer,
            "{{\"op\":\"table\",\"table\":\"table1\",\"id\":{id}}}"
        )
        .is_err()
        {
            break; // server already disconnected us — even better
        }
    }
    let _ = writer.flush();
    // Give the worker time to fill the buffers and hit the deadline.
    std::thread::sleep(Duration::from_millis(600));

    // Shutdown must complete promptly despite the stalled connection.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        server.stop();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("shutdown wedged behind a stalled client");
    drop(stream);
}

/// Satellite 3: a leader that panics mid-flight must wake every parked
/// waiter with a clean error — and the key must stay retriable, not
/// poisoned. Real threads, real contention.
#[test]
fn panicking_leader_wakes_all_waiters_and_key_stays_retriable() {
    let cache = Arc::new(ShardedCache::new(4));
    let waiters = 6;
    // Everyone (leader + waiters) lines up; the leader's compute holds
    // the flight long enough for every waiter to park on it.
    let start = Arc::new(Barrier::new(waiters + 1));
    let computes = Arc::new(AtomicU64::new(0));

    let results: Vec<Fetched> = std::thread::scope(|scope| {
        let leader = {
            let cache = Arc::clone(&cache);
            let start = Arc::clone(&start);
            let computes = Arc::clone(&computes);
            scope.spawn(move || {
                cache.get_or_compute_resilient("hot", || {
                    computes.fetch_add(1, Ordering::SeqCst);
                    start.wait(); // every waiter thread is running
                    std::thread::sleep(Duration::from_millis(100)); // …and parked
                    panic!("chaos: injected leader panic");
                })
            })
        };
        let handles: Vec<_> = (0..waiters)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let start = Arc::clone(&start);
                let computes = Arc::clone(&computes);
                scope.spawn(move || {
                    start.wait();
                    cache.get_or_compute_resilient("hot", || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        "late win".to_string()
                    })
                })
            })
            .collect();
        let mut results = vec![leader.join().expect("leader must not propagate the panic")];
        for handle in handles {
            results.push(handle.join().expect("waiter must not hang or panic"));
        }
        results
    });

    // The leader fails; every waiter either saw that failure or raced in
    // after the key was cleared and became a fresh leader/hit. Nobody
    // hangs, nobody sees a success envelope wrapping an error payload.
    assert!(
        matches!(results[0], Fetched::Failed(_)),
        "leader outcome: {:?}",
        results[0]
    );
    for fetched in &results[1..] {
        match fetched {
            Fetched::Failed(error) => {
                assert!(error.contains("panicked"), "{error}");
            }
            Fetched::Computed(value) | Fetched::Cached(value) => {
                assert_eq!(&**value, "late win", "a post-failure retry recomputed");
            }
            Fetched::Degraded(value, _) => {
                assert_eq!(&**value, "late win");
            }
        }
    }

    // The key is not poisoned: a later request retries and succeeds.
    let retry = cache.get_or_compute_resilient("hot", || "recovered".to_string());
    match retry {
        Fetched::Computed(value) => assert_eq!(&*value, "recovered"),
        Fetched::Cached(value) => assert_eq!(&*value, "late win"),
        other => panic!("key stayed poisoned: {other:?}"),
    }
    assert!(
        cache.failed() >= 1,
        "the leader's failure must be counted: {}",
        cache.failed()
    );
    // Single-flight accounting stays exact through the failure.
    assert_eq!(
        cache.lookups(),
        cache.hits() + cache.misses() + cache.coalesced()
    );
}

/// A request nested far past the JSON parser's depth cap is refused like
/// any other malformed line — it must not overflow the event loop's
/// stack — and the same connection goes on serving.
#[test]
fn deeply_nested_request_is_refused_and_the_connection_keeps_serving() {
    let server = Server::start(&ServerConfig::default()).expect("start");
    let (mut reader, mut stream) = connect(server.addr());
    let mut burst = "[".repeat(60_000);
    burst.push_str("\n{\"op\":\"ping\",\"id\":2}\n");
    stream.write_all(burst.as_bytes()).expect("send");

    let mut reply = String::new();
    reader.read_line(&mut reply).expect("recv the refusal");
    assert_eq!(
        reply.trim_end(),
        protocol::err_envelope("null", "request is not well-formed JSON")
    );
    reply.clear();
    reader.read_line(&mut reply).expect("recv the pong");
    assert!(reply.contains("\"id\":2,\"ok\":true"), "{reply}");
    assert!(reply.contains("\"pong\":true"), "{reply}");

    // Still up: a fresh connection is served too.
    let (mut reader, mut stream) = connect(server.addr());
    writeln!(stream, "{{\"op\":\"ping\",\"id\":3}}").expect("send");
    reply.clear();
    reader.read_line(&mut reply).expect("recv");
    assert!(reply.contains("\"pong\":true"), "{reply}");
    server.stop();
}

/// The `health` probe: one line with worker liveness, queue depth, and
/// the resilience counters.
#[test]
fn health_probe_reports_liveness() {
    let server = Server::start(&ServerConfig {
        workers: 3,
        ..ServerConfig::default()
    })
    .expect("start");
    let (mut reader, mut stream) = connect(server.addr());
    writeln!(stream, "{{\"op\":\"health\",\"id\":5}}").expect("send");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("recv");
    assert_eq!(metrics::validate_json(reply.trim_end()), Ok(()), "{reply}");
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert!(reply.contains("\"id\":5"), "{reply}");
    assert!(reply.contains("\"status\":\"ok\""), "{reply}");
    assert!(reply.contains("\"workers\":3"), "{reply}");
    assert!(reply.contains("\"workers_live\":3"), "{reply}");
    assert!(reply.contains("\"queue_depth\":"), "{reply}");
    assert!(reply.contains("\"panics\":0"), "{reply}");
    server.stop();
}

/// A `shutdown` pipelined behind cold data queries on one connection:
/// the loop stops reading but answers everything it already accepted,
/// so every miss the pool is still computing gets its reply, in request
/// order, then the acknowledgement, and the server exits.
#[test]
fn shutdown_answers_every_request_pipelined_before_it() {
    let server = Server::start(&ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("start");
    let (mut reader, mut stream) = connect(server.addr());
    let mut burst = String::new();
    let mut id = 0;
    for arch in ["CVAX", "88000", "R2000", "i860", "RS6000"] {
        for primitive in ["syscall", "ctxsw"] {
            id += 1;
            burst.push_str(&format!(
                "{{\"op\":\"measure\",\"arch\":\"{arch}\",\"primitive\":\"{primitive}\",\"id\":{id}}}\n"
            ));
        }
    }
    for table in ["table1", "table4", "threads"] {
        id += 1;
        burst.push_str(&format!(
            "{{\"op\":\"table\",\"table\":\"{table}\",\"id\":{id}}}\n"
        ));
    }
    id += 1;
    burst.push_str(&format!("{{\"op\":\"shutdown\",\"id\":{id}}}\n"));
    stream.write_all(burst.as_bytes()).expect("send the burst");

    let mut reply = String::new();
    for expected in 1..=id {
        reply.clear();
        reader.read_line(&mut reply).expect("read a reply");
        let envelope = osarch_core::json::parse(&reply).expect("a JSON reply");
        assert_eq!(
            (envelope["id"].as_u64(), envelope["ok"].as_bool()),
            (Some(expected), Some(true)),
            "reply {expected} of {id} missing, failed or out of order: {reply:?}"
        );
    }
    assert!(reply.contains("\"shutting_down\":true"), "{reply}");

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        server.wait();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(30))
        .expect("the server did not exit after answering");
}

/// Tentpole acceptance: the chaos soak holds every invariant, and two
/// soaks with one seed plan bit-identical fault schedules (the actual
/// injected counts are interleaving-dependent; the schedule is not).
#[test]
fn chaos_soak_invariants_hold_and_schedule_replays() {
    let scenario = Scenario {
        rate: 0.2,
        conns: 4,
        workers: 2,
        ..Scenario::soak(42, Duration::from_secs(1))
    };
    let first = soak::run(&scenario).expect("soak");
    assert!(
        first.passed(),
        "soak invariants violated: {:?}",
        first.violations
    );
    assert!(first.oks > 0, "soak made no progress");
    assert!(
        first.injected_total > 0,
        "rate 0.2 must actually inject faults"
    );

    let second = soak::run(&scenario).expect("soak rerun");
    assert!(second.passed(), "{:?}", second.violations);
    assert_eq!(
        first.schedule, second.schedule,
        "same seed must plan the identical fault schedule"
    );
    assert_eq!(first.schedule_total, second.schedule_total);

    // A different seed plans a different schedule.
    let other = Scenario {
        conns: 4,
        workers: 2,
        ..Scenario::soak(43, Duration::from_millis(500))
    };
    let other = soak::run(&other).expect("soak seed 43");
    assert_ne!(first.schedule, other.schedule);
}

/// A CLI front end: `osarch chaos`, `osarch loadgen` or `osarch serve`.
type Cli = fn(&[String]) -> Result<ExitCode, String>;

/// Run `cli` with `args`, which it must refuse with a one-line usage
/// error before any server starts.
fn refused(cli: Cli, args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(ToString::to_string).collect();
    match cli(&args) {
        Err(message) => {
            assert!(!message.contains('\n'), "not one line: {message}");
            message
        }
        Ok(code) => panic!("{args:?} ran ({code:?}) instead of refusing"),
    }
}

#[test]
fn chaos_cli_refuses_an_infinite_duration() {
    assert!(refused(soak::cli, &["--duration", "inf"]).contains("--duration"));
}

#[test]
fn chaos_cli_refuses_a_duration_too_long_to_represent() {
    assert!(refused(soak::cli, &["--duration", "1e300"]).contains("--duration"));
}

#[test]
fn chaos_cli_refuses_an_infinite_cluster_duration() {
    assert!(refused(soak::cli, &["--cluster", "--duration", "inf"]).contains("--duration"));
}

#[test]
fn chaos_cli_refuses_a_nan_duration() {
    assert!(refused(soak::cli, &["--duration", "NaN"]).contains("--duration"));
}

#[test]
fn chaos_cli_refuses_a_negative_duration() {
    assert!(refused(soak::cli, &["--duration", "-5"]).contains("--duration"));
}

#[test]
fn chaos_cli_refuses_zero_workers() {
    assert!(refused(soak::cli, &["--workers", "0"]).contains("--workers"));
}

#[test]
fn chaos_cli_refuses_nodes_without_cluster() {
    assert!(refused(soak::cli, &["--nodes", "3"]).contains("--cluster"));
}

#[test]
fn chaos_cli_refuses_replicas_without_cluster() {
    assert!(refused(soak::cli, &["--replicas", "2"]).contains("--cluster"));
}

#[test]
fn chaos_cli_refuses_a_duration_for_the_swap_soak() {
    assert!(refused(soak::cli, &["--swap", "--duration", "5"]).contains("--swaps"));
}

#[test]
fn chaos_cli_refuses_load_flags_for_the_ring_soaks() {
    for mode in [&["--cluster"][..], &["--swap", "--cluster"]] {
        for flag in [["--rate", "0.2"], ["--conns", "2"], ["--workers", "2"]] {
            let args = [mode, &flag[..]].concat();
            assert!(refused(soak::cli, &args).contains(flag[0]), "{args:?}");
        }
    }
}

#[test]
fn chaos_cli_refuses_telemetry_flags_outside_the_plain_soak() {
    for mode in [&["--cluster"][..], &["--swap"], &["--swap", "--cluster"]] {
        for flag in [
            ["--sample", "2"],
            ["--metrics-addr", "127.0.0.1:0"],
            ["--metrics-out", "METRICS_refused.json"],
            ["--trace-out", "TRACE_refused.json"],
        ] {
            let args = [mode, &flag[..]].concat();
            assert!(refused(soak::cli, &args).contains(flag[0]), "{args:?}");
        }
    }
}

#[test]
fn loadgen_cli_refuses_what_it_cannot_run_or_would_not_read() {
    for (args, named) in [
        (&["--secs", "inf"][..], "--secs"),
        (&["--secs", "1e300"], "--secs"),
        (&["--secs", "NaN"], "--secs"),
        (&["--secs", "-3"], "--secs"),
        (&["--rate", "0"], "--rate"),
        (&["--rate", "-5"], "--rate"),
        (&["--rate", "NaN"], "--rate"),
        (&["--rate", "1e-300"], "--rate"),
        (&["--cluster", "--node-rate", "1e-300"], "--node-rate"),
        (&["--cluster", "--node-rate", "-1"], "--node-rate"),
        (&["--nodes", "3"], "--cluster"),
        (&["--replicas", "2"], "--cluster"),
        (&["--node-rate", "0"], "--cluster"),
        (
            &["--cluster", "--addr", "127.0.0.1:1", "--rate", "5"],
            "--cluster",
        ),
        (&["--cluster", "--addr", "127.0.0.1:1"], "--addr"),
        (&["--cluster", "--rate", "5"], "--rate"),
        (&["--cluster", "--workers", "2"], "--workers"),
        (&["--cluster", "--sample", "2"], "--sample"),
        (&["--addr", "127.0.0.1:1", "--workers", "2"], "--workers"),
        (&["--addr", "127.0.0.1:1", "--sample", "2"], "--sample"),
        (&["--faults", "0.1"], "--faults"),
        (&["--shards", "4"], "--shards"),
    ] {
        assert!(refused(loadgen::cli, args).contains(named), "{args:?}");
    }
}

#[test]
fn serve_cli_refuses_what_it_cannot_run_or_would_not_read() {
    for (args, named) in [
        (&["--workers", "0"][..], "--workers"),
        (&["--queue", "0"], "--queue"),
        (&["--shards", "0"], "--shards"),
        (&["--sample", "x"], "0 disables"),
        (&["--admin-token", ""], "--admin-token must not be empty"),
        (&["--vnodes", "64"], "--vnodes"),
        (&["--peers", "127.0.0.1:1"], "--peers"),
        (&["--replicas", "2"], "--replicas"),
        (&["--incarnation", "3"], "--incarnation"),
        (&["--gossip-ms", "50"], "--gossip-ms"),
        (&["--gossip-ms", "0"], "--gossip-ms"),
        (&["--no-proxy"], "--no-proxy"),
        (&["--cluster"], "--addr"),
        (
            &[
                "--cluster",
                "--addr",
                "127.0.0.1:47300",
                "--peers",
                "127.0.0.1:47301",
                "--replicas",
                "0",
            ],
            "--replicas",
        ),
        (
            &["--cluster", "--addr", "127.0.0.1:47300", "--gossip-ms", "0"],
            "--gossip-ms",
        ),
    ] {
        assert!(refused(server::cli, args).contains(named), "{args:?}");
    }
}
