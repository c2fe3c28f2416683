//! Behaviour the event-driven core added: deep request pipelining with
//! ordered replies, oversized-line resynchronization, progress-based
//! idle accounting, loop liveness, and the multiplexed load driver at a
//! connection count no thread-per-connection pool would carry.

use osarch_serve::{LoadgenConfig, Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn start(config: &ServerConfig) -> osarch_serve::ServerHandle {
    Server::start(config).expect("server starts")
}

fn connect(handle: &osarch_serve::ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

#[test]
fn deep_pipelined_burst_replies_in_request_order() {
    let handle = start(&ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let stream = connect(&handle);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    // One write carrying 100 requests: a mix of instant control queries
    // and offloaded data queries, so replies *finish* out of order and
    // the ticket queue has to put them back in request order.
    let mut burst = String::new();
    for id in 0..100u32 {
        if id % 3 == 0 {
            burst.push_str(&format!("{{\"op\":\"ping\",\"id\":{id}}}\n"));
        } else {
            let arch = if id % 3 == 1 { "R3000" } else { "SPARC" };
            burst.push_str(&format!(
                "{{\"op\":\"measure\",\"arch\":\"{arch}\",\"primitive\":\"trap\",\"id\":{id}}}\n"
            ));
        }
    }
    writer.write_all(burst.as_bytes()).expect("burst write");
    for id in 0..100u32 {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        assert!(
            reply.contains(&format!("\"id\":{id},")),
            "reply {id} out of order: {reply}"
        );
        assert!(reply.contains("\"ok\":true"), "reply {id} not ok: {reply}");
    }
    handle.stop();
}

#[test]
fn oversized_line_resyncs_and_connection_stays_usable() {
    let handle = start(&ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let stream = connect(&handle);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    // An oversized request streamed in chunks, then — on the same
    // connection — a well-formed ping. The old core hung up; the framer
    // now answers the error, discards to the newline, and keeps serving.
    let huge = vec![b'x'; osarch_serve::MAX_REQUEST_BYTES + 1024];
    writer.write_all(&huge).expect("oversized body");
    writer.write_all(b"\n").expect("oversized terminator");
    writer
        .write_all(b"{\"op\":\"ping\",\"id\":7}\n")
        .expect("follow-up ping");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("error reply");
    assert!(reply.contains("request too large"), "{reply}");
    reply.clear();
    reader.read_line(&mut reply).expect("ping reply");
    assert!(reply.contains("\"id\":7,"), "{reply}");
    assert!(reply.contains("\"pong\":true"), "{reply}");
    handle.stop();
}

#[test]
fn slow_trickle_is_not_idle_but_silence_is() {
    let handle = start(&ServerConfig {
        workers: 1,
        idle_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    // A client dribbling one byte every 100 ms crosses the 300 ms idle
    // budget several times over between first byte and newline — but it
    // is making progress, so the idle clock must keep resetting.
    let stream = connect(&handle);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let request = b"{\"op\":\"ping\",\"id\":9}\n";
    for byte in request {
        writer.write_all(&[*byte]).expect("trickle byte");
        writer.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(100));
    }
    let mut reply = String::new();
    reader
        .read_line(&mut reply)
        .expect("trickled request answered");
    assert!(reply.contains("\"pong\":true"), "{reply}");

    // A truly silent connection is disconnected at the idle timeout:
    // read returns EOF well before the 10-second read timeout would.
    let mut silent = connect(&handle);
    let mut buffer = [0u8; 1];
    let outcome = silent.read(&mut buffer);
    assert_eq!(outcome.expect("clean EOF from idle disconnect"), 0);
    handle.stop();
}

#[test]
fn worker_gauge_tracks_loop_count_through_stop() {
    let handle = start(&ServerConfig {
        workers: 3,
        ..ServerConfig::default()
    });
    let stats = handle.telemetry();
    // The loops increment the gauge from their own threads; give them a
    // moment to come up before pinning the count.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while stats.workers_live() < 3 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(stats.workers_live(), 3, "one gauge unit per event loop");
    handle.stop();
    assert_eq!(stats.workers_live(), 0, "stop joins every loop");
}

#[test]
fn multiplexed_driver_holds_hundreds_of_connections_without_corruption() {
    // 300 pipelined connections on 32 driver threads, about nine sockets
    // each, end to end against a self-hosted server — the small-scale
    // rehearsal of the 10 000-connection benchmark.
    // Generous duration: on a loaded single-core runner the 300-socket
    // connect storm alone can eat a second before the first round fires.
    let report = osarch_serve::run_loadgen(&LoadgenConfig {
        conns: 300,
        pipeline: 4,
        secs: 3.0,
        workers: 2,
        skew: true,
        ..LoadgenConfig::default()
    })
    .expect("loadgen run");
    assert_eq!(report.mode, "pipelined");
    assert_eq!(report.pipeline_depth, 4);
    assert_eq!(report.driver_threads, 32, "300 conns share 32 threads");
    assert_eq!(report.resilience.corrupt, 0, "no corrupt replies");
    assert!(report.requests > 0, "the run made progress");
    let doc = osarch_core::metrics::serve_bench_json(&report);
    osarch_core::metrics::validate_serve_bench(&doc).expect("bench document validates");
}
