//! `perf compare BASE.json… -- HEAD.json…`: two sets of saved runs of the
//! same benchmark, compared metric by metric and workload by workload.
//!
//! For each side: median and quartiles. For pairs taken in order (the i-th
//! base run with the i-th head run): the share the head wins, ties
//! counting for neither. The verdict:
//!
//! * `gain` — the head wins at least nine tenths of the pairs and the
//!   medians differ by more than the base runs' own quartile spread;
//! * `more failures` — it would be a gain, but a larger share of the head's
//!   operations failed than of the base's: a head that answers faster by
//!   refusing or degrading more requests gains nothing;
//! * `regression` — the head median is worse than the base median by more
//!   than the metric's bound;
//! * `unresolved` — the base runs' spread is wider than the bound, unless
//!   every head run reads better than every base run;
//! * `within bound` — otherwise.
//!
//! Per-layer metrics have no bound; they get `gain`, `more failures` or `-`.
//!
//! Each workload also gets a `failed_ratio` row: failed over attempted
//! operations of each run, from the result lines' `attempted` and `failed`,
//! with the verdict `more failures` when the head's pooled ratio is above
//! the base's.

use crate::json::{self, Value};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's direction and (end-to-end only) bound, from `BENCHMARK.json`.
#[derive(Debug, Clone)]
struct Rule {
    higher_is_better: bool,
    bound: Option<f64>,
}

/// `(workload, metric) -> values`, in file order.
type Runs = BTreeMap<(String, String), Vec<f64>>;

/// `workload -> (attempted, failed)` of each run, in file order.
type Outcomes = BTreeMap<String, Vec<(f64, f64)>>;

/// The name of the per-workload failure row.
const FAILED_RATIO: &str = "failed_ratio";

fn load_rules(benchmark: &Value) -> Result<BTreeMap<String, Rule>, String> {
    let mut rules = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        let items = benchmark
            .get(section)
            .and_then(Value::arr)
            .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
        for item in items {
            let name = item
                .get("name")
                .and_then(Value::str)
                .ok_or("a metric without a name")?;
            rules.insert(
                name.to_string(),
                Rule {
                    higher_is_better: item.get("better").and_then(Value::str) == Some("higher"),
                    bound: item.get("bound").and_then(Value::num),
                },
            );
        }
    }
    Ok(rules)
}

/// Read one saved run: the workload from its detail line, the metrics and
/// the operation counts from its last line.
fn load_run(path: &str, runs: &mut Runs, outcomes: &mut Outcomes) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let lines: Vec<&str> = text
        .lines()
        .filter(|line| !line.trim().is_empty())
        .collect();
    let last = lines.last().ok_or_else(|| format!("{path}: empty"))?;
    let result = json::parse(last).map_err(|e| format!("{path}: {e}"))?;
    let workload = lines
        .iter()
        .rev()
        .filter_map(|line| json::parse(line).ok())
        .find_map(|doc| {
            doc.get("detail")
                .and_then(|detail| detail.get("workload"))
                .and_then(Value::str)
                .map(str::to_string)
        })
        .ok_or_else(|| format!("{path}: no detail line naming the workload"))?;
    let count = |key: &str| {
        result
            .get(key)
            .and_then(Value::num)
            .ok_or_else(|| format!("{path}: last line has no {key}"))
    };
    outcomes
        .entry(workload.clone())
        .or_default()
        .push((count("attempted")?, count("failed")?));
    let metrics = result
        .get("metrics")
        .and_then(Value::obj)
        .ok_or_else(|| format!("{path}: last line has no metrics"))?;
    for (name, metric) in metrics {
        let value = metric
            .get("value")
            .and_then(Value::num)
            .ok_or_else(|| format!("{path}: {name} has no value"))?;
        runs.entry((workload.clone(), name.clone()))
            .or_default()
            .push(value);
    }
    Ok(())
}

/// Compare two sets of saved runs; returns the report text.
///
/// # Errors
///
/// Returns a one-line reason when a file cannot be read or parsed.
pub fn compare(benchmark: &str, base: &[String], head: &[String]) -> Result<String, String> {
    let benchmark = std::fs::read_to_string(benchmark)
        .map_err(|e| format!("{benchmark}: {e}"))
        .and_then(|text| json::parse(&text))?;
    let rules = load_rules(&benchmark)?;
    let (mut base_runs, mut head_runs) = (Runs::new(), Runs::new());
    let (mut base_outcomes, mut head_outcomes) = (Outcomes::new(), Outcomes::new());
    for path in base {
        load_run(path, &mut base_runs, &mut base_outcomes)?;
    }
    for path in head {
        load_run(path, &mut head_runs, &mut head_outcomes)?;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<28} {:>38} {:>38} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "wins"
    );
    let mut more_failures = BTreeMap::new();
    for (workload, base_counts) in &base_outcomes {
        let Some(head_counts) = head_outcomes.get(workload) else {
            continue;
        };
        let row = judge_failures(base_counts, head_counts);
        more_failures.insert(workload.clone(), row.verdict == "more failures");
        write_row(&mut out, workload, FAILED_RATIO, &row);
    }
    for (key, base_values) in &base_runs {
        let Some(head_values) = head_runs.get(key) else {
            continue;
        };
        let (workload, metric) = key;
        let rule = rules.get(metric).cloned().unwrap_or(Rule {
            higher_is_better: false,
            bound: None,
        });
        let failing_more = more_failures.get(workload).copied().unwrap_or(false);
        let row = judge(&rule, base_values, head_values, failing_more);
        write_row(&mut out, workload, metric, &row);
    }
    Ok(out)
}

fn write_row(out: &mut String, workload: &str, metric: &str, row: &Row) {
    let summary = |q: &[f64; 3]| format!("{:.4} [{:.4}, {:.4}]", q[1], q[0], q[2]);
    let _ = writeln!(
        out,
        "{workload:<14} {metric:<28} {:>38} {:>38} {:>6}  {}",
        summary(&row.base),
        summary(&row.head),
        format!("{}/{}", row.wins, row.pairs),
        row.verdict
    );
}

/// One compared metric.
#[derive(Debug)]
struct Row {
    base: [f64; 3],
    head: [f64; 3],
    wins: usize,
    pairs: usize,
    verdict: &'static str,
}

/// Each side's failed ratios, run by run, and whether the head's pooled
/// ratio (all failed over all attempted) is above the base's.
fn judge_failures(base: &[(f64, f64)], head: &[(f64, f64)]) -> Row {
    let ratios = |runs: &[(f64, f64)]| -> Vec<f64> {
        runs.iter()
            .map(|(attempted, failed)| failed / attempted.max(1.0))
            .collect()
    };
    let pooled = |runs: &[(f64, f64)]| {
        let (attempted, failed) = runs.iter().fold((0.0, 0.0), |(a, f), (attempted, failed)| {
            (a + attempted, f + failed)
        });
        failed / f64::max(attempted, 1.0)
    };
    let (base_ratios, head_ratios) = (ratios(base), ratios(head));
    Row {
        base: stats::quartiles(&base_ratios),
        head: stats::quartiles(&head_ratios),
        wins: base_ratios
            .iter()
            .zip(&head_ratios)
            .filter(|(b, h)| h < b)
            .count(),
        pairs: base.len().min(head.len()),
        verdict: if pooled(head) > pooled(base) {
            "more failures"
        } else {
            "-"
        },
    }
}

/// Judge one metric; `more_failures` says whether the head failed a larger
/// share of its operations on this workload than the base did.
fn judge(rule: &Rule, base: &[f64], head: &[f64], more_failures: bool) -> Row {
    let better = |a: f64, b: f64| {
        if rule.higher_is_better {
            a > b
        } else {
            a < b
        }
    };
    let base_q = stats::quartiles(base);
    let head_q = stats::quartiles(head);
    let pairs = base.len().min(head.len());
    let wins = base
        .iter()
        .zip(head)
        .filter(|(b, h)| better(**h, **b))
        .count();
    let (base_median, head_median) = (base_q[1], head_q[1]);
    let base_spread = base_q[2] - base_q[0];
    let all_better = head.iter().all(|h| base.iter().all(|b| better(*h, *b)));
    let gain = pairs > 0
        && wins * 10 >= pairs * 9
        && better(head_median, base_median)
        && (head_median - base_median).abs() > base_spread;
    let verdict = match rule.bound {
        _ if gain && more_failures => "more failures",
        _ if gain => "gain",
        None => "-",
        Some(bound) => {
            let scale = base_median.abs().max(f64::MIN_POSITIVE);
            let worse_by = if rule.higher_is_better {
                (base_median - head_median) / scale
            } else {
                (head_median - base_median) / scale
            };
            if base_spread / scale > bound && !all_better {
                "unresolved"
            } else if worse_by > bound {
                "regression"
            } else {
                "within bound"
            }
        }
    };
    Row {
        base: base_q,
        head: head_q,
        wins,
        pairs,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Rule {
        Rule {
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_the_pairing_rule() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0];
        let faster: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        assert_eq!(judge(&lower(0.1), &base, &faster, false).verdict, "gain");
        let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        assert_eq!(
            judge(&lower(0.1), &base, &slower, false).verdict,
            "regression"
        );
        assert_eq!(
            judge(&lower(0.1), &base, &base, false).verdict,
            "within bound"
        );
        let noisy = [5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0];
        assert_eq!(
            judge(&lower(0.1), &noisy, &noisy, false).verdict,
            "unresolved"
        );
        // Faster, but by failing more operations: no gain.
        assert_eq!(
            judge(&lower(0.1), &base, &faster, true).verdict,
            "more failures"
        );
        assert_eq!(
            judge(&lower(0.1), &base, &slower, true).verdict,
            "regression"
        );
        let clean = [(1000.0, 0.0); 5];
        let refusing = [
            (1000.0, 0.0),
            (1000.0, 3.0),
            (1000.0, 0.0),
            (1000.0, 1.0),
            (1000.0, 0.0),
        ];
        assert_eq!(judge_failures(&clean, &refusing).verdict, "more failures");
        assert_eq!(judge_failures(&refusing, &clean).verdict, "-");
        assert_eq!(judge_failures(&clean, &clean).verdict, "-");
    }
}
