//! The repository benchmark: four seeded workloads over the `osarch`
//! crates, end-to-end metrics from untraced runs, per-layer metrics from
//! traced runs, and a comparison of two sets of saved runs.
//!
//! See `README.md` in this directory for the workloads, every metric, and
//! how to run and compare.

#![forbid(unsafe_code)]

pub mod compare;
pub mod gen;
pub mod json;
pub mod ledger;
pub mod load;
pub mod report;
pub mod reproduce;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod whatif;

use report::Report;
use spans::Tracer;

/// Run one workload for `seconds` of measurement. `None` for an unknown
/// workload name.
#[must_use]
pub fn run_workload(workload: &str, seed: u64, seconds: f64, tracer: &Tracer) -> Option<Report> {
    Some(match workload {
        "hot_builtin" => serve::run(serve::Flavor::Hot, seed, seconds, tracer),
        "spec_churn" => serve::run(serve::Flavor::Churn, seed, seconds, tracer),
        "whatif_sweep" => whatif::run(seed, seconds, tracer),
        "reproduce" => reproduce::run(seconds, tracer),
        _ => return None,
    })
}
