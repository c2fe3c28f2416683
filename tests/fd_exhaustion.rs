//! A server that runs out of file descriptors must not spin its accept
//! threads.
//!
//! With no descriptor left and connections waiting in a listener's
//! backlog, `accept` fails with `EMFILE` at once. A thread that retries
//! immediately burns a whole core that the event loops need. This test
//! starts `osarch serve` under `ulimit -n 40`, fills both its listeners'
//! backlogs past that limit, and reads the server's CPU time from
//! `/proc/PID/stat` over one second.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Kills and reaps the server on every path out of the test, a failed
/// assertion included.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `utime + stime` of process `pid`, in clock ticks.
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("server is running");
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let (_, rest) = stat.rsplit_once(')').expect("stat has a command name");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields[n - 3].parse::<u64>().expect("numeric tick count");
    field(14) + field(15)
}

/// The address after `prefix` on one of the server's startup lines.
fn addr_after<'a>(lines: &'a [String], prefix: &str) -> &'a str {
    lines
        .iter()
        .find_map(|line| line.strip_prefix(prefix))
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no {prefix:?} line in {lines:?}"))
}

#[test]
fn accept_threads_idle_when_file_descriptors_run_out() {
    let child = Command::new("bash")
        .arg("-c")
        .arg(concat!(
            "ulimit -n 40; exec \"$0\" serve --workers 1 --queue 1000 ",
            "--metrics-addr 127.0.0.1:0"
        ))
        .arg(env!("CARGO_BIN_EXE_osarch"))
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn the server");
    let mut server = Reaper(child);
    let pid = server.0.id();
    let mut stdout = BufReader::new(server.0.stdout.take().expect("piped stdout"));
    let mut lines = Vec::new();
    while !lines
        .iter()
        .any(|line: &String| line.starts_with("metrics scrape listener on "))
    {
        let mut line = String::new();
        if stdout.read_line(&mut line).expect("read the startup lines") == 0 {
            panic!("server exited during startup: {lines:?}");
        }
        lines.push(line);
    }
    let serve_addr = addr_after(&lines, "osarch-serve listening on ").to_string();
    let scrape_addr = addr_after(&lines, "metrics scrape listener on ").to_string();

    // About 30 serve connections use up the descriptors; the rest, and
    // every scrape connection, wait in the backlogs.
    let mut held = Vec::new();
    for addr in [&serve_addr; 60].into_iter().chain([&scrape_addr; 5]) {
        held.push(TcpStream::connect(addr).expect("the backlog takes the connection"));
    }
    std::thread::sleep(Duration::from_millis(300));

    let before = cpu_ticks(pid);
    std::thread::sleep(Duration::from_secs(1));
    let used = cpu_ticks(pid) - before;
    // A spinning accept thread costs one tick per tick of wall time (100
    // in this second at the usual CLK_TCK of 100).
    assert!(
        used < 25,
        "the server used {used} CPU ticks in 1 s while out of file descriptors"
    );
    drop(held);
}
