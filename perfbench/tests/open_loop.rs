//! The open loop times each request from when it was due. A stub server
//! that stalls for 50 ms must show that stall as latency on every request
//! that fell due during it — a closed loop would show one slow sample.

use osarch_perfbench::gen::{self, Mix, Skew};
use osarch_perfbench::load::{self, Checker, LoopStats, Traffic};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::time::Duration;

const STALL: Duration = Duration::from_millis(50);

/// Answer every request line with a success envelope echoing its id,
/// answering whatever has arrived in one write; stall once when the
/// `stall_at`-th request arrives.
fn stub_server(listener: &TcpListener, stall_at: u64) {
    let (stream, _) = listener.accept().expect("one connection");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut replies = Vec::new();
    let mut seen = 0u64;
    while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
        seen += 1;
        if seen == stall_at {
            std::thread::sleep(STALL);
        }
        let id = load::field_u64(&line, "\"id\":").expect("requests carry ids");
        let _ = writeln!(
            replies,
            "{{\"schema\":\"osarch-serve/1\",\"id\":{id},\"ok\":true,\"cached\":true,\"epoch\":1,\"micros\":1,\"result\":{{}}}}"
        );
        line.clear();
        if reader.buffer().is_empty() {
            if writer.write_all(&replies).is_err() {
                return;
            }
            replies.clear();
        }
    }
}

/// One open loop at `rate` for `duration` against a stub that stalls at
/// request `stall_at`.
fn run_against_stub(rate: f64, duration: Duration, stall_at: u64) -> (LoopStats, Vec<String>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("address");
    let mix = Mix::new(gen::builtin_keys(), &Skew::Uniform, 1);
    let checker = Checker::with_expected(mix.keys(), vec![None; mix.keys().len()]);
    let traffic = Traffic {
        mix: &mix,
        checker: &checker,
        swaps: None,
        seed: 1,
    };
    let stats = std::thread::scope(|scope| {
        let server = scope.spawn(|| stub_server(&listener, stall_at));
        let stats = load::open_loop(addr, rate, duration, traffic, 1).expect("open loop runs");
        server.join().expect("stub server");
        stats
    });
    (stats, checker.mismatches())
}

#[test]
fn a_server_stall_shows_on_every_request_due_during_it() {
    const RATE: f64 = 2_000.0;
    // Request 200 is due at 100 ms.
    let (stats, mismatches) = run_against_stub(RATE, Duration::from_millis(400), 200);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.ok, stats.sent);
    assert!(mismatches.is_empty(), "{mismatches:?}");
    // Requests due in the first half of the stall waited at least the
    // second half: RATE × 25 ms of them, less scheduling slack.
    let half = STALL.as_nanos() as u64 / 2;
    let slow = stats.latency_ns.iter().filter(|&&ns| ns >= half).count();
    let due_in_first_half = (RATE * STALL.as_secs_f64() / 2.0) as usize;
    assert!(
        slow >= due_in_first_half * 4 / 5,
        "{slow} requests saw >= 25 ms; {due_in_first_half} were due in the stall's first half"
    );
    let worst = stats.latency_ns.iter().max().copied().unwrap_or(0);
    assert!(
        worst >= STALL.as_nanos() as u64 * 9 / 10,
        "worst {worst} ns"
    );
}
