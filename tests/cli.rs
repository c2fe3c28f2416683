//! The `osarch` command line, end to end over the built binary.
//!
//! Every subcommand reads its arguments through one reader and refuses
//! what it will not use: exit 2, exactly one line on stderr, nothing on
//! stdout, and no server started (the process is gone within 2 s). The
//! golden invocations print their snapshots byte for byte.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const OSARCH: &str = env!("CARGO_BIN_EXE_osarch");

/// Run `osarch ARGS`, which must exit within `limit`; a process still
/// running then (a server that started) is killed and the test fails.
fn run_within(args: &[&str], limit: Duration) -> Output {
    let mut child = Command::new(OSARCH)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn osarch");
    let started = Instant::now();
    while child.try_wait().expect("poll osarch").is_none() {
        if started.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            panic!("`osarch {}` still running after {limit:?}", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect output")
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("UTF-8 output")
}

/// Every invocation the command line must refuse, with a text its one
/// stderr line must contain.
const REFUSED: &[(&[&str], &str)] = &[
    (&["serve", "--gossip-ms", "0"], "--gossip-ms"),
    (&["serve", "--workers", "0"], "--workers"),
    (&["serve", "--queue", "0"], "--queue"),
    (&["serve", "--shards", "0"], "--shards"),
    (
        &[
            "serve",
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
    (&["serve", "--peers", "127.0.0.1:1"], "--peers"),
    (&["serve", "--replicas", "2"], "--replicas"),
    (&["serve", "--incarnation", "3"], "--incarnation"),
    (&["serve", "--gossip-ms", "50"], "--gossip-ms"),
    (&["serve", "--no-proxy"], "--no-proxy"),
    (&["serve", "--vnodes", "64"], "--vnodes"),
    (&["serve", "--sample", "x"], "0 disables"),
    (
        &["serve", "--admin-token", ""],
        "--admin-token must not be empty",
    ),
    (&["measure", "r3000", "extra"], "\"extra\""),
    (&["bench-json", "-", "extra"], "\"extra\""),
    (&["archs", "--json"], "--json"),
    (&["compare", "sparc", "r3000", "cvax"], "\"cvax\""),
    (&["listing", "i860", "pte", "extra"], "\"extra\""),
    (&["lint", "--bogus"], "unknown argument \"--bogus\""),
    (&["tables", "table1", "table2"], "\"table2\""),
    (&["trace", "r3000", "trap", "--bogus"], "--bogus"),
    (
        &["top", "127.0.0.1:1", "--interval-ms", "10"],
        "--interval-ms",
    ),
    (&["loadgen", "--secs", "inf"], "--secs"),
    (&["chaos", "--bogus"], "--bogus"),
];

#[test]
fn every_refusal_is_one_line_exit_2_and_starts_nothing() {
    for (args, named) in REFUSED {
        let output = run_within(args, Duration::from_secs(2));
        let stderr = text(&output.stderr);
        let invocation = format!("osarch {}", args.join(" "));
        assert_eq!(output.status.code(), Some(2), "{invocation}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{invocation}: {stderr}");
        assert!(stderr.contains(named), "{invocation}: {stderr}");
        assert!(output.stdout.is_empty(), "{invocation} printed to stdout");
    }
}

#[test]
fn no_command_prints_the_usage_text_of_every_command() {
    let output = run_within(&[], Duration::from_secs(2));
    let usage = text(&output.stderr);
    assert_eq!(output.status.code(), Some(2));
    for command in [
        "tables",
        "bench-json",
        "measure",
        "listing",
        "compare",
        "lint",
        "analyze",
        "trace",
        "serve",
        "loadgen",
        "chaos",
        "top",
        "archs",
    ] {
        assert!(
            usage.contains(&format!("\n  {command}")),
            "{command}: {usage}"
        );
    }
    assert!(!usage.contains("--vnodes"), "{usage}");
}

/// Run a golden invocation to completion: it must succeed.
fn golden(args: &[&str]) -> Vec<u8> {
    let Output { status, stdout, .. } = Command::new(OSARCH)
        .args(args)
        .output()
        .expect("run osarch");
    assert!(status.success(), "osarch {}", args.join(" "));
    stdout
}

#[test]
fn golden_invocations_print_their_snapshots_byte_for_byte() {
    for (args, snapshot) in [
        (
            &["tables", "--json"][..],
            &include_bytes!("golden/tables.json")[..],
        ),
        (
            &["bench-json", "-"],
            include_bytes!("golden/bench_repro.json"),
        ),
        (
            &["lint", "sparc", "--json"],
            include_bytes!("golden/lint_sparc.json"),
        ),
        (
            &["analyze", "sparc", "--json"],
            include_bytes!("golden/absint_sparc.json"),
        ),
    ] {
        assert!(
            golden(args) == snapshot,
            "`osarch {}` drifted from its snapshot",
            args.join(" ")
        );
    }
}

#[test]
fn every_alias_names_the_machine_its_label_does() {
    for (alias, label) in [
        ("m88000", "88000"),
        ("M88000", "88000"),
        ("mips-r2000", "R2000"),
        ("MIPS-R3000", "R3000"),
    ] {
        assert!(
            golden(&["measure", alias]) == golden(&["measure", label]),
            "`osarch measure {alias}` differs from `osarch measure {label}`"
        );
    }
    let output = run_within(&["measure", "vax"], Duration::from_secs(2));
    let stderr = text(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("88000 (alias m88000)"), "{stderr}");
}

#[test]
fn the_trace_export_matches_its_snapshot() {
    let path = format!("{}/trace_r3000_syscall.json", env!("CARGO_TARGET_TMPDIR"));
    golden(&["trace", "mips-r3000", "syscall", "--out", &path]);
    let written = std::fs::read(&path).expect("the trace file was written");
    assert!(written == include_bytes!("golden/trace_r3000_syscall.json"));
}
