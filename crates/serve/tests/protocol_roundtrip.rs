//! Satellite: protocol round-trip integration tests.
//!
//! A real server on an ephemeral port answers every query kind, a
//! malformed request, and an oversized request — every reply is
//! well-formed JSON, errors arrive as clean error envelopes, nothing
//! panics or hangs. Cached replies are byte-identical to the direct
//! `core/metrics` emitter output, and a loadgen run against a 4-loop
//! server puts traffic on every loop.

use osarch_core::metrics;
use osarch_cpu::Arch;
use osarch_kernel::Primitive;
use osarch_serve::{LoadgenConfig, Server, ServerConfig, MAX_REQUEST_BYTES};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One connected test client.
struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            stream,
        }
    }

    /// Send one line, read one line.
    fn round_trip(&mut self, line: &str) -> String {
        writeln!(self.stream, "{line}").expect("send");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("recv");
        assert!(reply.ends_with('\n'), "reply must be line-delimited");
        reply.trim_end().to_string()
    }
}

#[test]
fn every_query_kind_round_trips_with_wellformed_replies() {
    let server = Server::start(&ServerConfig::default()).expect("start");
    let mut client = Client::connect(server.addr());

    let good = [
        "{\"op\":\"ping\",\"id\":1}",
        "{\"op\":\"measure\",\"arch\":\"mips-r3000\",\"primitive\":\"syscall\",\"id\":2}",
        "{\"op\":\"table\",\"table\":\"table1\",\"id\":3}",
        "{\"op\":\"lint\",\"arch\":\"SPARC\",\"id\":4}",
        "{\"op\":\"analyze\",\"arch\":\"SPARC\",\"id\":5}",
        "{\"op\":\"trace\",\"arch\":\"R2000\",\"primitive\":\"trap\",\"id\":6}",
        "{\"op\":\"counters\",\"arch\":\"CVAX\",\"id\":7}",
        "{\"op\":\"spans\",\"id\":8}",
    ];
    for (index, request) in good.iter().enumerate() {
        let reply = client.round_trip(request);
        assert_eq!(
            metrics::validate_json(&reply),
            Ok(()),
            "{request} -> {reply}"
        );
        assert!(reply.contains("\"ok\":true"), "{request} -> {reply}");
        assert!(
            reply.contains(&format!("\"id\":{}", index + 1)),
            "{request} -> {reply}"
        );
        assert!(
            reply.contains(&format!("\"schema\":\"{}\"", metrics::SERVE_SCHEMA)),
            "{request} -> {reply}"
        );
    }

    // Malformed request: clean error envelope, connection stays usable.
    let reply = client.round_trip("{this is not json");
    assert_eq!(metrics::validate_json(&reply), Ok(()), "{reply}");
    assert!(reply.contains("\"ok\":false") && reply.contains("\"error\":\""));

    // Unknown names: the error lists the valid spellings, aliases included.
    let reply =
        client.round_trip("{\"op\":\"measure\",\"arch\":\"vax\",\"primitive\":\"trap\",\"id\":9}");
    assert!(
        reply.contains("\"ok\":false") && reply.contains("mips-r3000"),
        "{reply}"
    );
    assert!(
        reply.contains("\"id\":9"),
        "bad-name errors echo the id: {reply}"
    );

    // Unknown ops: the error lists the registry, `analyze` included.
    let reply = client.round_trip("{\"op\":\"warp\",\"id\":10}");
    assert!(
        reply.contains("\"ok\":false") && reply.contains("analyze"),
        "unknown-op error must list the op registry: {reply}"
    );

    // The connection still works after errors.
    let reply = client.round_trip("{\"op\":\"ping\",\"id\":11}");
    assert!(reply.contains("\"pong\":true"));

    // Oversized request: error envelope, then the server hangs up cleanly.
    let huge = format!(
        "{{\"op\":\"ping\",\"pad\":\"{}\"}}",
        "x".repeat(MAX_REQUEST_BYTES)
    );
    let reply = client.round_trip(&huge);
    assert_eq!(metrics::validate_json(&reply), Ok(()), "{reply}");
    assert!(reply.contains("request too large"), "{reply}");

    server.stop();
}

#[test]
fn cached_replies_are_byte_identical_to_direct_emitter_output() {
    let server = Server::start(&ServerConfig::default()).expect("start");
    let mut client = Client::connect(server.addr());

    // The server computes through the same shared session as this test
    // process, and the simulator is deterministic — so the served payload
    // must equal the direct emitter output byte for byte.
    let expected = metrics::measure_json(Arch::Sparc, Primitive::ContextSwitch);
    let request = "{\"op\":\"measure\",\"arch\":\"sparc\",\"primitive\":\"ctxsw\",\"id\":1}";
    let first = client.round_trip(request);
    assert!(
        first.contains(&format!("\"result\":{expected}}}")),
        "served payload diverged:\n{first}\n!=\n{expected}"
    );
    assert!(first.contains("\"cached\":false"), "{first}");

    // The second request is a cache hit with the identical payload.
    let second = client.round_trip(request);
    assert!(second.contains("\"cached\":true"), "{second}");
    assert_eq!(
        first.split("\"result\":").nth(1),
        second.split("\"result\":").nth(1),
        "cache hit changed the payload"
    );

    // Proof artifacts too: the served `analyze` payload equals the direct
    // emitter output byte for byte, and repeats arrive from the cache
    // unchanged.
    let expected = {
        let report = osarch_core::AbsintAnalyzer::new().analyze_arch(Arch::Sparc);
        metrics::absint_json(&report).trim_end().to_string()
    };
    let request = "{\"op\":\"analyze\",\"arch\":\"sparc\",\"id\":3}";
    let first = client.round_trip(request);
    assert!(
        first.contains(&format!("\"result\":{expected}}}")),
        "served analyze payload diverged:\n{first}\n!=\n{expected}"
    );
    assert!(first.contains("\"cached\":false"), "{first}");
    let second = client.round_trip(request);
    assert!(second.contains("\"cached\":true"), "{second}");
    assert_eq!(
        first.split("\"result\":").nth(1),
        second.split("\"result\":").nth(1),
        "analyze cache hit changed the payload"
    );

    // Tables too: the served document is the CLI's JSON, byte for byte.
    let spec = osarch_core::session::report_by_name("table5").expect("table5");
    let expected = metrics::table_json(&(spec.build)());
    let reply = client.round_trip("{\"op\":\"table\",\"table\":\"table5\",\"id\":2}");
    assert!(
        reply.contains(&format!("\"result\":{expected}}}")),
        "table payload diverged"
    );

    server.stop();
}

#[test]
fn deadline_overrun_yields_clean_error_envelope() {
    let server = Server::start(&ServerConfig {
        deadline: Duration::ZERO,
        ..ServerConfig::default()
    })
    .expect("start");
    let mut client = Client::connect(server.addr());
    let reply =
        client.round_trip("{\"op\":\"measure\",\"arch\":\"CVAX\",\"primitive\":\"pte\",\"id\":1}");
    assert_eq!(metrics::validate_json(&reply), Ok(()), "{reply}");
    assert!(reply.contains("deadline exceeded"), "{reply}");
    assert!(reply.contains("\"ok\":false"), "{reply}");
    server.stop();
}

#[test]
fn backpressure_rejects_with_busy_envelope() {
    let server = Server::start(&ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    })
    .expect("start");

    // Occupy the single worker…
    let mut held = Client::connect(server.addr());
    let reply = held.round_trip("{\"op\":\"ping\"}");
    assert!(reply.contains("\"pong\":true"));
    // …fill the one queue slot…
    let _queued = Client::connect(server.addr());
    std::thread::sleep(Duration::from_millis(200));
    // …and the next connection must be rejected, not queued forever.
    let mut rejected = Client::connect(server.addr());
    let mut reply = String::new();
    rejected.reader.read_line(&mut reply).expect("busy reply");
    assert!(reply.contains("server busy"), "{reply}");
    assert_eq!(metrics::validate_json(reply.trim_end()), Ok(()), "{reply}");

    server.stop();
}

#[test]
fn in_band_shutdown_terminates_the_server() {
    let server = Server::start(&ServerConfig::default()).expect("start");
    let addr = server.addr();
    let mut client = Client::connect(addr);
    let reply = client.round_trip("{\"op\":\"shutdown\",\"id\":99}");
    assert!(reply.contains("\"shutting_down\":true"), "{reply}");
    assert!(reply.contains("\"id\":99"), "{reply}");
    // Every thread exits; wait() must return rather than hang.
    server.wait();
}

#[test]
fn loadgen_reports_validate_and_every_loop_serves() {
    // Self-hosted burst: the report must validate against the schema and
    // show real progress.
    let report = osarch_serve::run_loadgen(&LoadgenConfig {
        conns: 4,
        secs: 0.5,
        skew: true,
        workers: 2,
        ..LoadgenConfig::default()
    })
    .expect("loadgen");
    let doc = metrics::serve_bench_json(&report);
    assert_eq!(metrics::validate_json(&doc), Ok(()), "{doc}");
    assert!(doc.contains(&format!("\"schema\":\"{}\"", metrics::SERVE_BENCH_SCHEMA)));
    assert!(report.requests > 0, "no requests completed");
    assert!(report.throughput_rps > 0.0);
    assert_eq!(report.workload, "skewed");
    assert_eq!((report.mode.as_str(), report.driver_threads), ("closed", 4));
    assert!(
        report.hits + report.coalesced >= report.misses,
        "skewed traffic should mostly hit the cache: {report:?}"
    );

    // A paced pipelined run honours the rate: 4 connections offering 20
    // requests/second each for one second, two requests per write. Rounds
    // fire every 0.1 s from the run's start, so 10 rounds of 4 × 2 land,
    // with one round of slack; pacing rounds (not requests) at the rate
    // would land twice as many.
    let report = osarch_serve::run_loadgen(&LoadgenConfig {
        conns: 4,
        pipeline: 2,
        rate: Some(20.0),
        secs: 1.0,
        workers: 2,
        ..LoadgenConfig::default()
    })
    .expect("paced loadgen");
    assert_eq!(report.mode, "open");
    assert_eq!(report.driver_threads, 4);
    assert!(
        (80..=88).contains(&report.requests),
        "a paced run must not outrun its rate: {} requests",
        report.requests
    );

    // Scaling premise that holds on any core count: the accept thread
    // deals connections round-robin, so 8 loadgen connections against a
    // 4-loop server leave sampled span chains on every loop. (Whether 4
    // loops out-serve 1 depends on spare cores the loadgen does not
    // share; on a 2-vCPU host it did not hold reliably.)
    let server = Server::start(&ServerConfig {
        workers: 4,
        sample_every: 8,
        ..ServerConfig::default()
    })
    .expect("start");
    let report = osarch_serve::run_loadgen(&LoadgenConfig {
        addr: Some(server.addr().to_string()),
        conns: 8,
        secs: 1.0,
        skew: true,
        ..LoadgenConfig::default()
    })
    .expect("loadgen");
    assert!(report.requests > 0, "no requests completed");
    assert_eq!(
        report.driver_threads, 8,
        "one thread per connection up to 32"
    );
    assert_eq!(report.workers, 4, "the external server's worker count");
    let loops: std::collections::BTreeSet<usize> = server
        .telemetry()
        .chains()
        .iter()
        .map(|chain| chain.loop_index)
        .collect();
    server.stop();
    assert_eq!(
        loops.into_iter().collect::<Vec<_>>(),
        vec![0, 1, 2, 3],
        "every loop must serve sampled traffic"
    );
}
