//! Every workload, untraced and traced, in a short run: it must pass its
//! own output checks and print exactly the metric names `BENCHMARK.json`
//! lists for that kind of run.

use osarch_perfbench::json::{self, Value};
use osarch_perfbench::report::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn benchmark() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(benchmark: &Value, section: &str) -> BTreeSet<String> {
    benchmark
        .get(section)
        .and_then(Value::arr)
        .expect("metric list")
        .iter()
        .map(|metric| {
            metric
                .get("name")
                .and_then(Value::str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let benchmark = benchmark();
    let listed: Vec<String> = benchmark
        .get("workloads")
        .and_then(Value::arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(listed, WORKLOADS);
    for (section, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let items = benchmark.get(section).and_then(Value::arr).expect(section);
        assert_eq!(items.len(), table.len(), "{section}");
        for (item, metric) in items.iter().zip(table) {
            assert_eq!(item.get("name").and_then(Value::str), Some(metric.name));
            assert_eq!(item.get("unit").and_then(Value::str), Some(metric.unit));
            assert_eq!(item.get("better").and_then(Value::str), Some(metric.better));
        }
    }
}

#[test]
fn every_workload_short_run_passes_and_reports_its_metrics() {
    let benchmark = benchmark();
    // One at a time: the runs host servers and spawn children, and parallel
    // runs on a small host would only slow each other down.
    for workload in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_perf"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "0.25",
                    "--trace",
                    trace,
                ])
                .output()
                .expect("perf runs");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} trace={trace}: {}\n{stdout}",
                String::from_utf8_lossy(&output.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = json::parse(last).expect("result line is JSON");
            let keys: Vec<&String> = result.obj().expect("object").keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(result.get("failed").and_then(Value::num), Some(0.0));
            assert!(result.get("attempted").and_then(Value::num).unwrap_or(0.0) >= 1.0);
            let metrics = result.get("metrics").and_then(Value::obj).expect("metrics");
            let printed: BTreeSet<String> = metrics.keys().cloned().collect();
            assert_eq!(
                printed,
                names(&benchmark, section),
                "{workload} trace={trace}"
            );
            for (name, metric) in metrics {
                let value = metric.get("value").and_then(Value::num);
                assert!(value.is_some_and(f64::is_finite), "{workload}: {name}");
                assert!(metric.get("unit").and_then(Value::str).is_some(), "{name}");
            }
            if trace == "0" {
                for metric in END_TO_END {
                    let value = metrics[metric.name].get("value").and_then(Value::num);
                    assert!(
                        value > Some(0.0),
                        "{workload}: {} must never be 0",
                        metric.name
                    );
                }
            }
        }
    }
}

#[test]
fn unknown_workloads_and_bad_arguments_exit_with_usage() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"][..],
        &["--workload", "hot_builtin", "--seconds", "0"][..],
        &["--workload", "hot_builtin", "--trace"][..],
        &["--workload", "hot_builtin", "--trace", "2"][..],
        &["--frobnicate"][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_perf"))
            .args(args)
            .output()
            .expect("perf runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
