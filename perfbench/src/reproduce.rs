//! `reproduce`: sequential fresh child processes, each regenerating every
//! table of the paper exactly as `osarch tables --json` does
//! (`session::resolve_reports(None)` then `metrics::tables_json`). This is
//! what a paper-reproduction user pays on every run: a cold measurement
//! memo plus the IPC, thread, Mach and TLB table models. The inputs are the
//! paper's own, so the seed changes nothing here.
//!
//! The benchmark re-executes itself as the child (`perf child-reproduce`).
//! Each child prints the tables on stdout and one `perf-child` line of its
//! own measurements on stderr.

use crate::json;
use crate::ledger;
use crate::report::{self, Report, TIMED_TABLES};
use crate::spans::Tracer;
use crate::stats;
use osarch_core::{metrics, session, Arch};
use std::io::Write;
use std::process::Command;
use std::time::Instant;

/// Children per second of `--seconds`: the rate on the reference host,
/// frozen so both commits of a comparison run the same number.
const CHILDREN_PER_SECOND: f64 = 9.0;
/// Never fewer children than this (p90 needs ten samples beyond it in a
/// full run; this floor keeps short runs meaningful).
const MIN_CHILDREN: usize = 10;
/// `ops_per_s` is the median rate over groups of this many consecutive
/// children.
const RATE_GROUP: usize = 4;
/// Warm-up children per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Children in each of the four tracing-overhead slices.
const OVERHEAD_CHILDREN: usize = 3;
/// Timed builds of each table in the traced run's core ledger.
const TABLE_RUNS: usize = 5;

/// The child: regenerate every table, print them, report on stderr.
#[must_use]
pub fn child() -> i32 {
    let begin = Instant::now();
    let tables = session::resolve_reports(None).expect("`all` always resolves");
    let document = metrics::tables_json(&tables);
    let mut stdout = std::io::stdout().lock();
    if stdout
        .write_all(document.as_bytes())
        .and_then(|()| stdout.flush())
        .is_err()
    {
        return 1;
    }
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    eprintln!(
        "perf-child {{\"internal_us\":{},\"vmhwm_kib\":{}}}",
        begin.elapsed().as_secs_f64() * 1e6,
        report::vm_hwm_kib(&status)
    );
    0
}

/// What one child run produced.
struct ChildRun {
    wall_us: f64,
    stdout: Vec<u8>,
    /// The child's own `perf-child` report.
    report: json::Value,
}

/// Run one child and wait for it.
fn spawn_child() -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let begin = Instant::now();
    let output = Command::new(exe)
        .arg("child-reproduce")
        .output()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    let wall_us = begin.elapsed().as_secs_f64() * 1e6;
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    let stderr = String::from_utf8_lossy(&output.stderr);
    let report = stderr
        .lines()
        .find_map(|line| line.strip_prefix("perf-child "))
        .ok_or_else(|| "child printed no report".to_string())
        .and_then(|line| json::parse(line).map_err(|e| format!("child report: {e}")))?;
    Ok(ChildRun {
        wall_us,
        stdout: output.stdout,
        report,
    })
}

fn child_num(run: &ChildRun, path: &[&str]) -> f64 {
    let mut value = &run.report;
    for key in path {
        match value.get(key) {
            Some(inner) => value = inner,
            None => return 0.0,
        }
    }
    value.num().unwrap_or(0.0)
}

/// Run the workload.
#[must_use]
pub fn run(seconds: f64, tracer: &Tracer) -> Report {
    let mut report = Report::new();
    let traced = tracer.on();
    let count = ((seconds * CHILDREN_PER_SECOND).round() as usize).max(MIN_CHILDREN);

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut reference: Option<Vec<u8>> = None;
    for _ in 0..SETUP_REPS {
        let begin = Instant::now();
        match spawn_child() {
            Ok(run) => {
                setup_s.push(begin.elapsed().as_secs_f64());
                reference.get_or_insert(run.stdout);
            }
            Err(why) => {
                report.fail(format!("warm-up child: {why}"));
                return report;
            }
        }
        tracer.record("phase.setup", 0, begin, Instant::now(), 1);
    }
    report.set_sampled("setup_s", stats::median(&mut setup_s), SETUP_REPS);
    let reference = reference.expect("at least one warm-up child");
    match std::str::from_utf8(&reference).map(metrics::validate_json) {
        Ok(Ok(())) => {}
        _ => report.fail("the regenerated tables are not valid JSON"),
    }

    let mut runs = Vec::with_capacity(count);
    for _ in 0..count {
        let started = Instant::now();
        report.attempted += 1;
        match spawn_child() {
            Ok(run) => {
                tracer.record("reproduce.child", 0, started, Instant::now(), 1);
                if run.stdout != reference {
                    report.fail("a child's tables differ from the first child's");
                }
                runs.push(run);
            }
            Err(why) => {
                report.failed += 1;
                report.note(why);
            }
        }
    }
    if runs.is_empty() {
        report.fail("no child completed");
        return report;
    }
    // Children per second of child wall time, over consecutive groups,
    // median of the groups.
    let mut rates: Vec<f64> = runs
        .chunks(RATE_GROUP)
        .map(|group| group.len() as f64 * 1e6 / group.iter().map(|run| run.wall_us).sum::<f64>())
        .collect();
    report.set_sampled("ops_per_s", stats::median(&mut rates), runs.len());
    let mut wall: Vec<f64> = runs.iter().map(|run| run.wall_us).collect();
    report.set_sampled(
        "latency_p50_us",
        stats::percentile(&mut wall, 50.0),
        wall.len(),
    );
    report.set_sampled(
        "latency_p90_us",
        stats::percentile(&mut wall, 90.0),
        wall.len(),
    );
    let peak_kib = runs
        .iter()
        .map(|run| child_num(run, &["vmhwm_kib"]))
        .fold(0.0, f64::max);
    report.set("peak_rss_mib", peak_kib / 1024.0);

    if traced {
        let mut overhead: Vec<f64> = runs
            .iter()
            .map(|run| (run.wall_us - child_num(run, &["internal_us"])) / 1000.0)
            .collect();
        report.set_sampled(
            "reproduce.exec_overhead_ms",
            stats::median(&mut overhead),
            overhead.len(),
        );
        core_layers(tracer, &mut report);
        let builtins: Vec<_> = Arch::all().into_iter().map(Arch::spec).collect();
        let (cycles, instructions) = ledger::kernel(&builtins, tracer, &mut report);
        report.set("sim.cycles_total", cycles as f64);
        report.set("sim.instructions_total", instructions as f64);
        ledger::measure_fresh_all(tracer, &mut report);

        let (mut plain, mut sampled) = (0.0, 0.0);
        for on in [false, true, true, false] {
            for _ in 0..OVERHEAD_CHILDREN {
                report.attempted += 1;
                let started = Instant::now();
                match spawn_child() {
                    Ok(run) => {
                        if on {
                            tracer.record("reproduce.child", 0, started, Instant::now(), 1);
                            sampled += run.wall_us;
                        } else {
                            plain += run.wall_us;
                        }
                    }
                    Err(why) => {
                        report.failed += 1;
                        report.note(why);
                    }
                }
            }
        }
        report.set(
            "bench.trace_overhead_pct",
            (sampled / plain.max(1e-9) - 1.0) * 100.0,
        );
    }
    report
}

/// The report models, timed from this process: a cold `prime` of the
/// shared measurement memo, then every timed table builder one at a time
/// against the warm memo, then the JSON emitter over all tables.
fn core_layers(tracer: &Tracer, report: &mut Report) {
    let begin = Instant::now();
    session::shared().prime();
    let end = Instant::now();
    tracer.record("core.session_prime", 0, begin, end, 1);
    report.set("core.session_prime_ms", (end - begin).as_secs_f64() * 1e3);
    let mut tables = Vec::with_capacity(session::REPORTS.len());
    for spec in &session::REPORTS {
        tables.push(tracer.time("core.table", 0, 1, spec.build));
    }
    for table in TIMED_TABLES {
        let spec = session::report_by_name(table).expect("timed tables are registered");
        let mut runs: Vec<f64> = (0..TABLE_RUNS)
            .map(|_| {
                let begin = Instant::now();
                std::hint::black_box(tracer.time("core.table", 0, 1, spec.build));
                begin.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        report.set_sampled(
            &format!("core.table_ms.{table}"),
            stats::median(&mut runs),
            TABLE_RUNS,
        );
    }
    let mut emits: Vec<f64> = (0..TABLE_RUNS)
        .map(|_| {
            let begin = Instant::now();
            std::hint::black_box(
                tracer.time("core.tables_json", 0, 1, || metrics::tables_json(&tables)),
            );
            begin.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report.set_sampled("core.tables_json_ms", stats::median(&mut emits), TABLE_RUNS);
}
