//! `perf`: the repository benchmark's command line.
//!
//! ```text
//! perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]
//! perf compare BASE.json... -- HEAD.json... [--benchmark PATH]
//! ```
//!
//! `--seconds` is the one run-length control: it sets the measured time
//! and, with it, the sweep's spec count and the number of `reproduce`
//! children. Both commits of a comparison must run the same value.
//!
//! A run prints a detail line and then, last, the result line; it exits 1
//! when an output check failed and 2 on a usage error.

use osarch_perfbench::report::{self, WORKLOADS};
use osarch_perfbench::spans::{self, Tracer};
use osarch_perfbench::{compare, reproduce, run_workload};
use std::process::ExitCode;

/// The seed used when none is given.
const DEFAULT_SEED: u64 = 1;
/// Measured seconds when none are given: the `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

fn usage(why: &str) -> ExitCode {
    eprintln!("perf: {why}");
    eprintln!(
        "usage: perf --workload {{{}}} [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]\n       perf compare BASE.json... -- HEAD.json... [--benchmark PATH]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("child-reproduce") => {
            let code = reproduce::child();
            ExitCode::from(u8::try_from(code).unwrap_or(1))
        }
        Some("compare") => run_compare(&args[1..]),
        _ => run(&args),
    }
}

fn run_compare(args: &[String]) -> ExitCode {
    let mut benchmark = "BENCHMARK.json".to_string();
    let (mut base, mut head) = (Vec::new(), Vec::new());
    let mut after_separator = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--" => after_separator = true,
            "--benchmark" => match iter.next() {
                Some(path) => benchmark.clone_from(path),
                None => return usage("--benchmark needs a path"),
            },
            path if after_separator => head.push(path.to_string()),
            path => base.push(path.to_string()),
        }
    }
    if base.is_empty() || head.is_empty() {
        return usage("compare needs base runs, `--`, then head runs");
    }
    match compare::compare(&benchmark, &base, &head) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("perf compare: {why}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &[String]) -> ExitCode {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut traced = false;
    let mut trace_out = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let parsed = match arg.as_str() {
            "--workload" => value("--workload").map(|v| workload = Some(v)),
            "--seed" => value("--seed").and_then(|v| {
                v.parse()
                    .map(|n| seed = n)
                    .map_err(|_| format!("bad --seed {v:?}"))
            }),
            "--seconds" => value("--seconds").and_then(|v| match v.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 120.0 => {
                    seconds = s;
                    Ok(())
                }
                _ => Err(format!("bad --seconds {v:?} (0 < S <= 120)")),
            }),
            "--trace" => value("--trace").and_then(|v| match v.as_str() {
                "0" | "1" => {
                    traced = v == "1";
                    Ok(())
                }
                _ => Err(format!("bad --trace {v:?} (0 or 1)")),
            }),
            "--trace-out" => value("--trace-out").map(|v| trace_out = Some(v)),
            other => Err(format!("unknown argument {other:?}")),
        };
        if let Err(why) = parsed {
            return usage(&why);
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let tracer = Tracer::new(traced);
    let Some(mut report) = run_workload(&workload, seed, seconds, &tracer) else {
        return usage(&format!("unknown workload {workload:?}"));
    };
    if let Some(path) = trace_out {
        let document = spans::chrome_json(
            &tracer.spans(),
            &report.server_chains,
            report.server_offset_us,
        );
        if let Err(e) = std::fs::write(&path, document) {
            report.fail(format!("cannot write --trace-out {path}: {e}"));
        }
    }
    print!(
        "{}",
        report::render(&mut report, &workload, seed, seconds, traced)
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        for note in &report.notes {
            eprintln!("perf: {note}");
        }
        ExitCode::from(1)
    }
}
