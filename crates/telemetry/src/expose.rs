//! Prometheus-style text exposition over a [`MetricsSnapshot`].
//!
//! The text format is the scrape-friendly half of the exposition pair
//! (the JSON half, schema `osarch-metrics/1`, lives in `osarch-core`'s
//! metrics module next to the other emitters). Counters carry a
//! `_total` suffix, quantiles use the conventional `quantile` label,
//! and every family written gets exactly one `# TYPE` line ahead of its
//! samples — enough for a real Prometheus server or `osarch top` to
//! consume.

use crate::window::COUNTER_NAMES;
use crate::{Histogram, MetricsSnapshot};
use std::fmt::{Display, Write};

/// The quantiles every histogram family exports.
const QUANTILES: [(f64, &str); 4] = [(50.0, "0.5"), (99.0, "0.99"), (99.9, "0.999"), (100.0, "1")];

/// One single-sample family: its `# TYPE` line, then its sample.
fn family(out: &mut String, name: &str, kind: &str, value: impl Display) {
    let _ = writeln!(out, "# TYPE {name} {kind}\n{name} {value}");
}

/// The samples of one summary family (quantiles, `_sum`, `_count`); the
/// caller writes the family's `# TYPE` line once.
fn summary(out: &mut String, family: &str, labels: &str, hist: &Histogram) {
    let sep = if labels.is_empty() { "" } else { "," };
    for (q, tag) in QUANTILES {
        let _ = writeln!(
            out,
            "{family}{{{labels}{sep}quantile=\"{tag}\"}} {}",
            hist.value_at_percentile(q)
        );
    }
    let _ = writeln!(out, "{family}_sum{{{labels}}} {}", hist.sum());
    let _ = writeln!(out, "{family}_count{{{labels}}} {}", hist.count());
}

/// Render the snapshot as Prometheus text exposition.
#[must_use]
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    family(
        &mut out,
        "osarch_uptime_seconds",
        "gauge",
        snap.uptime_us / 1_000_000,
    );

    let totals = &snap.totals;
    for (name, value) in [
        ("requests", totals.requests),
        ("errors", totals.errors),
        ("rejected", totals.rejected),
        ("deadline_exceeded", totals.deadline_exceeded),
        ("panics", totals.panics),
        ("degraded", totals.degraded),
        ("worker_respawns", totals.worker_respawns),
        ("faults_injected", totals.faults_injected),
        ("conns_opened", totals.conns_opened),
        ("cache_hits", totals.cache_hits),
        ("cache_misses", totals.cache_misses),
        ("cache_coalesced", totals.cache_coalesced),
        ("cache_failed", totals.cache_failed),
        ("cache_degraded", totals.cache_degraded),
        ("spec_swaps", totals.swaps),
        ("spec_rollbacks", totals.rollbacks),
    ] {
        family(&mut out, &format!("osarch_{name}_total"), "counter", value);
    }

    let gauges = &snap.gauges;
    for (name, value) in [
        ("conns_open", gauges.conns_open),
        ("conn_budget", gauges.conn_budget),
        ("workers", gauges.workers),
        ("workers_live", gauges.workers_live),
        ("compute_backlog", gauges.compute_backlog),
        ("oldest_write_backlog_ms", gauges.oldest_write_backlog_ms),
        ("registry_epoch", gauges.registry_epoch),
        ("shutting_down", u64::from(gauges.shutting_down)),
        ("trace_sample_every", snap.sample_every),
        ("trace_chains_sampled", snap.chains_sampled),
    ] {
        family(&mut out, &format!("osarch_{name}"), "gauge", value);
    }
    family(
        &mut out,
        "osarch_cache_hit_ratio",
        "gauge",
        format_args!("{:.6}", totals.cache_hit_ratio()),
    );

    if let Some(cluster) = &snap.cluster {
        for (name, value) in [
            ("peers_alive", cluster.peers_alive),
            ("peers_total", cluster.peers_total),
            ("incarnation", cluster.incarnation),
        ] {
            family(&mut out, &format!("osarch_cluster_{name}"), "gauge", value);
        }
        family(
            &mut out,
            "osarch_cluster_ownership",
            "gauge",
            format_args!("{:.6}", cluster.ownership_ppm as f64 / 1_000_000.0),
        );
        for (name, value) in [
            ("forwarded", cluster.forwarded),
            ("proxied", cluster.proxied),
            ("redirected", cluster.redirected),
            ("gossip_rounds", cluster.gossip_rounds),
        ] {
            let name = format!("osarch_cluster_{name}_total");
            family(&mut out, &name, "counter", value);
        }
    }

    // Window sums slide with the retention horizon and can fall, so they
    // are gauges despite the historical `_total` suffix.
    let _ = writeln!(
        out,
        "# window counters cover the last {} s",
        snap.retention_s
    );
    for (name, value) in COUNTER_NAMES.iter().zip(snap.window) {
        family(
            &mut out,
            &format!("osarch_window_{name}_total"),
            "gauge",
            value,
        );
    }

    if snap.ops.iter().any(|op| !op.hist.is_empty()) {
        let _ = writeln!(out, "# TYPE osarch_op_latency_us summary");
    }
    for op in &snap.ops {
        if op.hist.is_empty() {
            continue;
        }
        summary(
            &mut out,
            "osarch_op_latency_us",
            &format!("op=\"{}\"", op.name),
            &op.hist,
        );
    }
    for (name, hist) in [
        ("osarch_loop_lag_us", &snap.loop_lag_us),
        ("osarch_offload_queue_depth", &snap.queue_depth),
        ("osarch_arena_buffers", &snap.arena_buffers),
        ("osarch_swap_latency_us", &snap.swap_latency_us),
    ] {
        let _ = writeln!(out, "# TYPE {name} summary");
        summary(&mut out, name, "", hist);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gauges, TelemetryHub, Totals};

    const OPS: [&str; 2] = ["ping", "measure"];

    #[test]
    fn exposition_carries_counters_quantiles_and_labels() {
        let hub = TelemetryHub::new(1, &OPS, 64, 0);
        for us in [100u64, 200, 300, 4000] {
            hub.record_served(0, 1, us, None, 0);
        }
        hub.record_loop_lag(0, 50, 0);
        let snap = hub.snapshot(
            2_000_000,
            Gauges {
                conns_open: 3,
                conn_budget: 64,
                ..Gauges::default()
            },
            Totals {
                requests: 4,
                cache_hits: 3,
                cache_misses: 1,
                ..Totals::default()
            },
        );
        let text = prometheus_text(&snap);
        assert!(text.contains("osarch_uptime_seconds 2"), "{text}");
        assert!(text.contains("osarch_requests_total 4"), "{text}");
        assert!(text.contains("osarch_conns_open 3"), "{text}");
        assert!(text.contains("osarch_cache_hit_ratio 0.75"), "{text}");
        assert!(
            text.contains("osarch_op_latency_us{op=\"measure\",quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(
            text.contains("osarch_op_latency_us_count{op=\"measure\"} 4"),
            "{text}"
        );
        // The op with no records is omitted entirely.
        assert!(!text.contains("op=\"ping\""), "{text}");
        assert!(text.contains("osarch_window_requests_total 4"), "{text}");
        for typed in [
            "osarch_requests_total counter",
            "osarch_cache_hit_ratio gauge",
            "osarch_window_requests_total gauge",
            "osarch_op_latency_us summary",
        ] {
            assert!(text.contains(&format!("# TYPE {typed}\n")), "{typed}");
        }
        // No cluster section on a standalone snapshot.
        assert!(!text.contains("osarch_cluster_"), "{text}");
        // Every line is either a comment or `name{labels} value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split_whitespace().count() == 2,
                "malformed line: {line}"
            );
        }
        assert_types_declared_once(&text);
    }

    #[test]
    fn cluster_gauges_expose_when_present() {
        let hub = TelemetryHub::new(1, &OPS, 64, 0);
        let mut snap = hub.snapshot(1_000_000, Gauges::default(), Totals::default());
        snap.cluster = Some(crate::ClusterGauges {
            ownership_ppm: 333_333,
            peers_alive: 2,
            peers_total: 3,
            incarnation: 4,
            forwarded: 10,
            proxied: 7,
            redirected: 1,
            gossip_rounds: 25,
        });
        let text = prometheus_text(&snap);
        assert!(text.contains("osarch_cluster_peers_alive 2"), "{text}");
        assert!(text.contains("osarch_cluster_ownership 0.333333"), "{text}");
        assert!(text.contains("osarch_cluster_forwarded_total 10"), "{text}");
        assert!(
            text.contains("osarch_cluster_gossip_rounds_total 25"),
            "{text}"
        );
        // No op has records: the op-latency family is neither typed nor
        // written.
        assert!(!text.contains("osarch_op_latency_us"), "{text}");
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split_whitespace().count() == 2,
                "malformed line: {line}"
            );
        }
        assert_types_declared_once(&text);
    }

    /// Every sample's family is declared by exactly one earlier `# TYPE`
    /// line, and every declared family has a sample. A summary family
    /// `F` owns the samples `F{quantile=..}`, `F_sum` and `F_count`.
    fn assert_types_declared_once(text: &str) {
        let mut families: Vec<(&str, &str, bool)> = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').expect("TYPE name kind");
                assert!(families.iter().all(|f| f.0 != name), "{name} typed twice");
                families.push((name, kind, false));
            } else if !line.starts_with('#') {
                let sample = line.split(['{', ' ']).next().expect("sample name");
                let owner = families.iter_mut().find(|f| {
                    let parts: &[&str] = if f.1 == "summary" {
                        &["", "_sum", "_count"]
                    } else {
                        &[""]
                    };
                    parts.iter().any(|p| sample.strip_suffix(p) == Some(f.0))
                });
                owner
                    .unwrap_or_else(|| panic!("{sample} has no earlier # TYPE"))
                    .2 = true;
            }
        }
        for (name, _, written) in families {
            assert!(written, "{name} typed but never written");
        }
    }
}
