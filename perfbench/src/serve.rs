//! The two serving workloads. Both host an `osarch_serve::Server` in this
//! process (2 event loops, 16 cache shards) and drive it over loopback TCP
//! with at most two load threads and two connections, sized for a 2-core
//! host.
//!
//! * `hot_builtin`: `measure` over the 28 built-in keys, harmonic skew,
//!   after a warm-up that caches every key — every request is a cache hit.
//! * `spec_churn`: reads uniform over the 28 built-in and 28 registry-spec
//!   keys, beside a 20/s open-loop stream of spec swaps riding the first
//!   connection; each swap forces the next reads to miss.
//!
//! An untraced run measures a closed loop (throughput) and an open loop at
//! the workload's fixed reference rate (latency). A traced run adds server
//! trace sampling, the rate ladder, the tracing-overhead comparison and the
//! per-layer ledger.

use crate::gen::{self, Key, Mix, Skew, Target};
use crate::ledger;
use crate::load::{self, Checker, LoopStats, Swapper, Traffic};
use crate::report::{self, Report};
use crate::spans::Tracer;
use crate::stats;
use osarch_core::{metrics, ArchSpec};
use osarch_serve::{protocol, Server, ServerConfig, ServerHandle, SpecSnapshot};
use osarch_telemetry::{bucket_lower, bucket_upper, Gauges, Histogram, SpanChain, Totals};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// `hot_builtin`.
    Hot,
    /// `spec_churn`.
    Churn,
}

/// Settings calibrated once on the reference host (2 cores) and frozen
/// here, so both commits of a comparison run identical settings.
struct Settings {
    /// Connections of the closed loop.
    closed_conns: usize,
    /// Open-loop rate at which end-to-end latency is measured.
    reference_rps: f64,
    /// The ladder: eight fixed rates 10% apart.
    ladder_rps: [f64; 8],
    /// A ladder rate passes when its p99 stays within this limit…
    p99_limit_us: f64,
    /// …and the generator's own p99 lag within this one.
    gen_lag_limit_us: f64,
}

fn settings(flavor: Flavor) -> Settings {
    match flavor {
        // One connection keeps the client and the server loop serving it on
        // a core each. Two connections put four busy threads on two cores,
        // and where the scheduler places them moved throughput by ±14%
        // from run to run.
        Flavor::Hot => Settings {
            closed_conns: 1,
            reference_rps: 10_000.0,
            ladder_rps: ladder(10_000.0),
            p99_limit_us: 1_000.0,
            gen_lag_limit_us: 1_000.0,
        },
        // Every swap stalls one event loop for its activation and then
        // sends every key to the compute pool, so on two cores the tail
        // is milliseconds at any rate and the generator itself runs late
        // while the pool is busy: the limits sit above that floor.
        //
        // In `spec_churn` reads go on over a second connection while the
        // first waits out a swap; with one connection every swap would
        // stall all reads, and the closed loop would measure swap time.
        Flavor::Churn => Settings {
            closed_conns: 2,
            reference_rps: 8_000.0,
            ladder_rps: ladder(8_000.0),
            p99_limit_us: 20_000.0,
            gen_lag_limit_us: 5_000.0,
        },
    }
}

/// Eight rates 10% apart starting at `first`.
fn ladder(first: f64) -> [f64; 8] {
    let mut rates = [first; 8];
    for k in 1..8 {
        rates[k] = (rates[k - 1] * 1.1).round();
    }
    rates
}

/// Shared secret of the hosted server's admin plane.
const TOKEN: &str = "perf-bench-token";
/// `spec_churn` swap rate.
const SWAPS_PER_SECOND: f64 = 20.0;
/// A throwaway server is set up after every this-many-th slice; `setup_s`
/// is the median of these set-ups and the first. A set-up takes
/// milliseconds, so a dozen of them is cheap.
const SETUP_EVERY: u64 = 8;
/// Trace sampling of the traced run's server: 1 request in 16 per loop.
const TRACED_SAMPLE_EVERY: u64 = 16;
/// Shares of `--seconds`: closed loop, reference-rate open loop, each
/// ladder rate, each of the four tracing-overhead slices.
const CLOSED_SHARE: f64 = 0.6;
const REFERENCE_SHARE: f64 = 0.4;
const RUNG_SHARE: f64 = 0.05;
const OVERHEAD_SHARE: f64 = 0.05;
/// Closed and reference-rate phases are cut into this many alternating
/// slices.
const SLICES: usize = 96;
/// A ladder rate shows a growing backlog when more than this much of its
/// schedule is still unanswered as its send window closes.
const BACKLOG_LIMIT_S: f64 = 0.010;
/// Request lines replayed through the protocol and cache ledgers.
const LEDGER_REQUESTS: usize = 4096;
/// Spec documents replayed through the registry, analysis and kernel
/// ledgers.
const LEDGER_DOCS: usize = 64;

fn secs(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds)
}

/// A hosted server with its reply checker and swap stream. A fresh server
/// numbers its registry epochs from 1 again, so each one gets its own.
struct Instance {
    handle: ServerHandle,
    /// When the server started: the origin of its span clock.
    started: Instant,
    checker: Checker,
    swapper: Option<Swapper>,
    /// Activations made during set-up, left out of swap latency.
    setup_swaps: usize,
    /// Cache counters when the timed phases began.
    cache_before: (u64, u64, u64),
}

impl Instance {
    /// Microseconds on the server's span clock at `at`.
    fn server_us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.started).as_micros() as u64
    }

    fn traffic<'a>(&'a self, mix: &'a Mix, seed: u64) -> Traffic<'a> {
        Traffic {
            mix,
            checker: &self.checker,
            swaps: self.swapper.as_ref(),
            seed,
        }
    }

    /// Stop the server, then check every registry-spec result it served.
    fn finish(self, mix: &Mix, report: &mut Report) -> u64 {
        self.handle.stop();
        if let Some(swapper) = &self.swapper {
            verify_spec_results(&self.checker, swapper, mix.keys(), report);
        }
        for why in self.checker.mismatches() {
            report.fail(why);
        }
        self.checker.compared()
    }
}

/// Start a server, load and activate the initial specs (when there is a
/// swap stream), and warm the cache with one request per key.
fn set_up(
    traced: bool,
    mix: &Mix,
    checker: Checker,
    swapper: Option<Swapper>,
) -> Result<Instance, String> {
    let config = ServerConfig {
        workers: 2,
        shards: 16,
        sample_every: if traced { TRACED_SAMPLE_EVERY } else { 0 },
        admin_token: swapper.as_ref().map(|_| TOKEN.to_string()),
        ..ServerConfig::default()
    };
    let started = Instant::now();
    let handle = Server::start(&config).map_err(|e| format!("server start: {e}"))?;
    let mut instance = Instance {
        cache_before: (0, 0, 0),
        setup_swaps: 0,
        handle,
        started,
        checker,
        swapper,
    };
    let warmed = load::connect(instance.handle.addr())
        .map_err(|e| format!("connect: {e}"))
        .and_then(|(mut stream, mut reader)| {
            let mut id = 1;
            if let Some(swapper) = &instance.swapper {
                let (mut load_reply, mut line) = (String::new(), String::new());
                for _ in 0..osarch_core::Arch::COUNT {
                    let lines = swapper.next_lines(id);
                    id += 2;
                    let ok = stream.write_all(&lines.bytes).is_ok()
                        && load::read_reply(&mut reader, &mut load_reply)
                        && load::read_reply(&mut reader, &mut line)
                        && swapper.settle(lines.doc, &load_reply, &line);
                    if !ok {
                        return Err(format!("set-up activation failed: {load_reply} {line}"));
                    }
                }
            }
            warm(&mut stream, &mut reader, mix, &instance.checker, id)
        });
    if let Err(why) = warmed {
        instance.handle.stop();
        return Err(why);
    }
    instance.setup_swaps = instance.swapper.as_ref().map_or(0, |s| s.server_us().len());
    instance.cache_before = instance.handle.cache_stats();
    Ok(instance)
}

/// Request every key once, in order, checking each reply in full: after
/// this every key is cached under the server's current epoch.
fn warm(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    mix: &Mix,
    checker: &Checker,
    first_id: u64,
) -> Result<(), String> {
    let mut out = Vec::new();
    let mut line = String::new();
    for (index, key) in mix.keys().iter().enumerate() {
        let id = first_id + index as u64;
        out.clear();
        key.write_line(id, &mut out);
        if stream.write_all(&out).is_err()
            || !load::read_reply(reader, &mut line)
            || !checker.check(index, id, &line, true)
        {
            return Err(format!("warm-up request for {key:?} failed: {line}"));
        }
    }
    Ok(())
}

/// Latency percentiles of a loop, microseconds.
fn latency_us(stats: &LoopStats, q: f64) -> f64 {
    stats::percentile_sorted(&stats::sorted_us(&stats.latency_ns), q)
}

/// Run one serving workload.
#[must_use]
pub fn run(flavor: Flavor, seed: u64, seconds: f64, tracer: &Tracer) -> Report {
    let mut report = Report::new();
    let traced = tracer.on();
    let settings = settings(flavor);
    let (keys, skew) = match flavor {
        Flavor::Hot => (gen::builtin_keys(), Skew::Harmonic),
        Flavor::Churn => (gen::churn_keys(), Skew::Uniform),
    };
    let mix = Mix::new(keys, &skew, seed);
    // Swaps ride every closed-loop slice and, in a traced run, the ladder;
    // size the stream for both.
    let swap_budget = (seconds * (CLOSED_SHARE + 8.0 * RUNG_SHARE) * SWAPS_PER_SECOND).ceil()
        as usize
        + 2 * SLICES
        + 16;
    let (initial_docs, swaps) = gen::churn_stream(seed, swap_budget);
    let swap_docs: Vec<(usize, String)> = initial_docs
        .iter()
        .cloned()
        .enumerate()
        .chain(swaps.iter().map(|swap| (swap.slot, swap.doc.clone())))
        .collect();

    let set_up_timed = |setups: &mut Vec<f64>| {
        let checker = Checker::new(mix.keys());
        let swapper = (flavor == Flavor::Churn)
            .then(|| Swapper::new(TOKEN, swap_docs.clone(), SWAPS_PER_SECOND));
        let begin = Instant::now();
        let instance = set_up(traced, &mix, checker, swapper)?;
        setups.push(begin.elapsed().as_secs_f64());
        tracer.record("phase.setup", 0, begin, Instant::now(), 1);
        Ok::<Instance, String>(instance)
    };
    let mut setups = Vec::new();
    let instance = match set_up_timed(&mut setups) {
        Ok(instance) => instance,
        Err(why) => {
            report.fail(why);
            return report;
        }
    };
    let addr = instance.handle.addr();
    let traffic = instance.traffic(&mix, seed);

    // Closed and reference-rate slices alternate, each on a fresh
    // connection, and every SETUP_EVERY-th pair is followed by the set-up
    // of a throwaway server.
    // Each end-to-end metric is the median over the slices, so a stall of
    // the host spoils a few slices rather than the run.
    let mut closed = LoopStats::default();
    let mut reference = LoopStats::default();
    let mut reference_start = Instant::now();
    let (mut rates, mut p50s, mut p90s) = (Vec::new(), Vec::new(), Vec::new());
    for slice in 0..SLICES as u64 {
        let closed_slice = tracer.time("phase.closed", 0, 1, || {
            load::closed_loop(
                addr,
                settings.closed_conns,
                secs(seconds * CLOSED_SHARE / SLICES as f64),
                traffic,
                2 * slice + 1,
            )
        });
        // Reads only, on a cache warmed again after the closed slice's last
        // swap: swapping here would put each swap's recovery (the activation
        // stall, then a miss on every key) into the tail, and on two cores
        // how long that recovery takes varies by ±20% from run to run. The
        // swaps' cost shows in the closed loop's throughput and in the
        // traced run's ladder and swap latencies.
        if instance.swapper.is_some() {
            let rewarmed = load::connect(addr).map_err(|e| e.to_string()).and_then(
                |(mut stream, mut reader)| {
                    warm(&mut stream, &mut reader, &mix, &instance.checker, 1)
                },
            );
            if let Err(why) = rewarmed {
                report.fail(why);
                break;
            }
        }
        let reads = Traffic {
            swaps: None,
            ..traffic
        };
        reference_start = Instant::now();
        let reference_slice = tracer.time("phase.reference", 0, 1, || {
            load::open_loop(
                addr,
                settings.reference_rps,
                secs(seconds * REFERENCE_SHARE / SLICES as f64),
                reads,
                2 * slice + 2,
            )
        });
        match (closed_slice, reference_slice) {
            (Ok(closed_slice), Ok(reference_slice)) => {
                rates.push(closed_slice.ok as f64 / closed_slice.elapsed.as_secs_f64());
                let latency = stats::sorted_us(&reference_slice.latency_ns);
                p50s.push(stats::percentile_sorted(&latency, 50.0));
                p90s.push(stats::percentile_sorted(&latency, 90.0));
                closed.absorb(closed_slice);
                reference.absorb(reference_slice);
            }
            (Err(e), _) | (_, Err(e)) => {
                report.fail(format!("load generator could not connect: {e}"));
                break;
            }
        }
        if slice % SETUP_EVERY == SETUP_EVERY / 2 {
            match set_up_timed(&mut setups) {
                Ok(throwaway) => {
                    throwaway.finish(&mix, &mut report);
                }
                Err(why) => report.fail(why),
            }
        }
    }
    report.set_sampled("setup_s", stats::median(&mut setups), setups.len());
    report.set("peak_rss_mib", report::peak_rss_mib());
    report.set_sampled("ops_per_s", stats::median(&mut rates), closed.ok as usize);
    let reference_us = stats::sorted_us(&reference.latency_ns);
    report.set_sampled(
        "latency_p50_us",
        stats::median(&mut p50s),
        reference_us.len(),
    );
    report.set_sampled(
        "latency_p90_us",
        stats::median(&mut p90s),
        reference_us.len(),
    );
    let mut extra = LoopStats::default();
    if traced {
        let chains: Vec<SpanChain> = instance
            .handle
            .telemetry()
            .chains()
            .into_iter()
            .filter(|chain| chain.start_us >= instance.server_us(reference_start))
            .collect();
        serve_layers(&instance, &reference, &reference_us, &chains, &mut report);
        cache_layers(&instance, &mut report);
        if flavor == Flavor::Churn {
            swap_layers(&instance, &closed, &mut report);
        }
        ladder_layers(
            &instance,
            &settings,
            seconds,
            traffic,
            &mut extra,
            &mut report,
        );
        overhead_layer(
            &instance,
            seconds,
            &mix,
            &initial_docs,
            seed,
            &mut extra,
            &mut report,
        );
        ledger_layers(
            flavor,
            seed,
            &mix,
            &initial_docs,
            &swaps,
            tracer,
            &mut report,
        );
        report.server_chains = instance.handle.telemetry().chains();
        report.server_offset_us = tracer.offset_ns(instance.started) / 1000;
    }
    for stats in [&closed, &reference, &extra] {
        report.attempted += stats.sent + stats.swaps;
        report.failed += stats.failed + stats.swaps_failed;
    }
    let compared = instance.finish(&mix, &mut report);
    report
        .samples
        .insert("results_compared".to_string(), compared);
    report
}

/// Server-side stage breakdown of the reference-rate phase, from the
/// sampled span chains and each reply's `micros`, reconciled against the
/// client's median.
fn serve_layers(
    instance: &Instance,
    reference: &LoopStats,
    reference_us: &[f64],
    chains: &[SpanChain],
    report: &mut Report,
) {
    // Server times are whole microseconds, and the loop and queue figures
    // come from log-linear histograms: their percentiles are read with
    // each bin's readings spread across the bin, so they move with the
    // data rather than step from one bin edge to the next.
    for (name, q) in [
        ("serve.service_us.p50", 50.0),
        ("serve.service_us.p99", 99.0),
    ] {
        report.set_sampled(
            name,
            stats::whole_us_percentile(&reference.service_us, q),
            reference.service_us.len(),
        );
    }
    let mut accounted = 0.0;
    for stage in ["decode", "queue", "cache", "compute", "write"] {
        let durations = |absent: Option<u64>| -> Vec<u64> {
            chains
                .iter()
                .filter_map(|chain| {
                    chain
                        .spans
                        .iter()
                        .find(|span| span.stage == stage)
                        .map(|span| span.dur_us)
                        .or(absent)
                })
                .collect()
        };
        // Stage percentiles are over the requests that went through the
        // stage; the reconciliation counts a skipped stage as 0 µs.
        let present = durations(None);
        for q in [50, 90] {
            report.set_sampled(
                &format!("serve.stage.{stage}_us.p{q}"),
                stats::whole_us_percentile(&present, f64::from(q)),
                present.len(),
            );
        }
        accounted += stats::whole_us_percentile(&durations(Some(0)), 50.0);
    }
    let client_p50 = stats::percentile_sorted(reference_us, 50.0);
    let unaccounted = client_p50 - accounted;
    report.set_sampled("serve.unaccounted_us.p50", unaccounted, chains.len());
    if unaccounted > 0.5 * client_p50 {
        report.note(format!(
            "serve.unaccounted_us.p50 {unaccounted:.1} exceeds half of the client p50 ({client_p50:.1} us)"
        ));
    }
    let snapshot = instance.handle.telemetry().snapshot(
        instance.server_us(Instant::now()),
        Gauges::default(),
        Totals::default(),
    );
    for (name, histogram) in [
        ("serve.loop_busy_us.p99", &snapshot.loop_lag_us),
        ("serve.offload_depth.p99", &snapshot.queue_depth),
    ] {
        report.set_sampled(
            name,
            histogram_percentile(histogram, 99.0),
            histogram.count() as usize,
        );
    }
    let (_, _, rejected) = instance.handle.request_stats();
    let (_, degraded) = instance.handle.cache_failure_stats();
    report.set("serve.busy_rejects", rejected as f64);
    report.set("serve.degraded", degraded as f64);
    let mut lag: Vec<f64> = reference
        .gen_lag_ns
        .iter()
        .map(|&ns| ns as f64 / 1000.0)
        .collect();
    report.set_sampled(
        "bench.gen_lag_p99_us",
        stats::percentile(&mut lag, 99.0),
        lag.len(),
    );
    report.set_sampled(
        "latency_p99_us",
        stats::percentile_sorted(reference_us, 99.0),
        reference_us.len(),
    );
}

/// The `q`-th percentile of a telemetry histogram, each bucket's readings
/// spread across the bucket.
fn histogram_percentile(histogram: &Histogram, q: f64) -> f64 {
    let bins: Vec<(f64, f64, u64)> = histogram
        .sparse()
        .into_iter()
        .map(|(index, count)| {
            let lower = bucket_lower(index);
            (
                lower as f64,
                (bucket_upper(index) - lower + 1) as f64,
                count,
            )
        })
        .collect();
    stats::binned_percentile(&bins, q)
}

/// Cache counters over the closed and reference phases.
fn cache_layers(instance: &Instance, report: &mut Report) {
    let (hits, misses, coalesced) = instance.handle.cache_stats();
    let (h0, m0, c0) = instance.cache_before;
    let (hits, misses, coalesced) = (hits - h0, misses - m0, coalesced - c0);
    let lookups = (hits + misses + coalesced).max(1);
    report.set(
        "cache.hit_ratio",
        (hits + coalesced) as f64 / lookups as f64,
    );
    report.set("cache.misses", misses as f64);
    report.set("cache.coalesced", coalesced as f64);
}

/// Swap latency as the admin client saw it (from when each swap was due)
/// and as the server timed it, plus the registry's counters.
fn swap_layers(instance: &Instance, closed: &LoopStats, report: &mut Report) {
    let mut client: Vec<f64> = closed
        .swap_ns
        .iter()
        .map(|&ns| ns as f64 / 1000.0)
        .collect();
    let server: Vec<u64> = instance
        .swapper
        .as_ref()
        .map(|swapper| swapper.server_us()[instance.setup_swaps..].to_vec())
        .unwrap_or_default();
    report.set_sampled(
        "swap_p50_us",
        stats::percentile(&mut client, 50.0),
        client.len(),
    );
    report.set_sampled(
        "swap_p95_us",
        stats::percentile(&mut client, 95.0),
        client.len(),
    );
    for (name, q) in [
        ("registry.swap_us.p50", 50.0),
        ("registry.swap_us.p95", 95.0),
    ] {
        report.set_sampled(name, stats::whole_us_percentile(&server, q), server.len());
    }
    let (swaps, rollbacks) = instance.handle.registry_swap_stats();
    report.set("registry.swaps", swaps as f64);
    report.set("registry.rollbacks", rollbacks as f64);
    if rollbacks > 0 {
        report.fail(format!("{rollbacks} spec activations rolled back"));
    }
}

/// The rate ladder: eight open-loop rates, each drained before the next.
/// In `spec_churn` the swaps ride the ladder too.
fn ladder_layers(
    instance: &Instance,
    settings: &Settings,
    seconds: f64,
    traffic: Traffic<'_>,
    extra: &mut LoopStats,
    report: &mut Report,
) {
    let mut max_rate = 0.0;
    let mut passing = true;
    for (k, &rate) in settings.ladder_rps.iter().enumerate() {
        let rung = match load::open_loop(
            instance.handle.addr(),
            rate,
            secs(seconds * RUNG_SHARE),
            traffic,
            200 + k as u64,
        ) {
            Ok(rung) => rung,
            Err(e) => {
                report.fail(format!(
                    "load generator could not connect for the ladder: {e}"
                ));
                return;
            }
        };
        let p99 = latency_us(&rung, 99.0);
        let mut lag: Vec<f64> = rung
            .gen_lag_ns
            .iter()
            .map(|&ns| ns as f64 / 1000.0)
            .collect();
        let backlog = rung.outstanding_at_end as f64 > rate * BACKLOG_LIMIT_S;
        passing &= rung.failed == 0
            && p99 <= settings.p99_limit_us
            && !backlog
            && stats::percentile(&mut lag, 99.0) <= settings.gen_lag_limit_us;
        if passing {
            max_rate = rate;
        }
        let n = rung.latency_ns.len();
        report.set_sampled(
            &format!("ladder.r{}.p50_us", k + 1),
            latency_us(&rung, 50.0),
            n,
        );
        report.set_sampled(&format!("ladder.r{}.p99_us", k + 1), p99, n);
        extra.absorb(rung);
    }
    report.set("max_rate_rps", max_rate);
}

/// Tracing overhead: closed-loop throughput against an untraced twin
/// server and against the traced one, in ABBA order (reads only).
fn overhead_layer(
    traced: &Instance,
    seconds: f64,
    mix: &Mix,
    initial_docs: &[String],
    seed: u64,
    extra: &mut LoopStats,
    report: &mut Report,
) {
    let swapper = traced.swapper.as_ref().map(|_| {
        Swapper::new(
            TOKEN,
            initial_docs.iter().cloned().enumerate().collect(),
            SWAPS_PER_SECOND,
        )
    });
    let twin = match set_up(false, mix, Checker::new(mix.keys()), swapper) {
        Ok(twin) => twin,
        Err(why) => {
            report.fail(why);
            return;
        }
    };
    let (mut plain, mut sampled) = ((0u64, 0.0), (0u64, 0.0));
    for (slice, on) in [false, true, true, false].into_iter().enumerate() {
        let server = if on { traced } else { &twin };
        let reads = Traffic {
            swaps: None,
            ..server.traffic(mix, seed)
        };
        let duration = secs(seconds * OVERHEAD_SHARE);
        match load::closed_loop(server.handle.addr(), 1, duration, reads, 300 + slice as u64) {
            Ok(stats) => {
                let total = if on { &mut sampled } else { &mut plain };
                total.0 += stats.ok;
                total.1 += stats.elapsed.as_secs_f64();
                extra.absorb(stats);
            }
            Err(e) => report.fail(format!("overhead phase could not connect: {e}")),
        }
    }
    twin.finish(mix, report);
    let plain_rate = plain.0 as f64 / plain.1.max(1e-9);
    let sampled_rate = sampled.0 as f64 / sampled.1.max(1e-9);
    report.set(
        "bench.trace_overhead_pct",
        (plain_rate / sampled_rate.max(1e-9) - 1.0) * 100.0,
    );
}

/// Per-layer timings of the protocol, cache, registry, analysis and
/// kernel functions on this workload's own inputs.
fn ledger_layers(
    flavor: Flavor,
    seed: u64,
    mix: &Mix,
    initial_docs: &[String],
    swaps: &[gen::Swap],
    tracer: &Tracer,
    report: &mut Report,
) {
    let initial: Vec<ArchSpec> = initial_docs
        .iter()
        .map(|doc| ArchSpec::from_json(doc).expect("generated specs parse").1)
        .collect();
    let snapshot = match flavor {
        Flavor::Hot => SpecSnapshot::builtins(),
        Flavor::Churn => SpecSnapshot::from_docs(initial_docs, 1 + initial_docs.len() as u64)
            .expect("generated specs parse"),
    };
    let payloads: Vec<String> = mix
        .keys()
        .iter()
        .map(|key| payload(key, &initial))
        .collect();
    let mut rng = gen::Rng::new(seed, 0x6c65_6467_6572);
    let mut requests = Vec::with_capacity(LEDGER_REQUESTS);
    let mut request_keys = Vec::with_capacity(LEDGER_REQUESTS);
    for id in 0..LEDGER_REQUESTS as u64 {
        let index = mix.draw(&mut rng);
        let mut line = Vec::new();
        mix.keys()[index].write_line(id, &mut line);
        let line = String::from_utf8(line).expect("request lines are ASCII");
        let line = line.trim_end().to_string();
        let key = protocol::parse_request(&line)
            .ok()
            .and_then(|request| request.query.cache_key(&snapshot))
            .expect("generated requests are cacheable");
        request_keys.push(key);
        requests.push((line, payloads[index].clone()));
    }
    ledger::protocol(&requests, &snapshot, tracer, report);
    let entries: Vec<(String, String)> = mix
        .keys()
        .iter()
        .zip(&payloads)
        .map(|(key, payload)| {
            let mut line = Vec::new();
            key.write_line(0, &mut line);
            let line = String::from_utf8(line).expect("request lines are ASCII");
            let cache_key = protocol::parse_request(line.trim_end())
                .ok()
                .and_then(|request| request.query.cache_key(&snapshot))
                .expect("generated requests are cacheable");
            (cache_key, payload.clone())
        })
        .collect();
    ledger::cache_hits(&request_keys, &entries, tracer, report);
    if flavor == Flavor::Hot {
        return;
    }
    let old_keys: Vec<String> = entries.iter().map(|(key, _)| key.clone()).collect();
    let next = snapshot
        .with_spec(&swaps[0].doc, snapshot.epoch() + 1)
        .expect("generated specs parse");
    ledger::cache_reap(&old_keys, next.key_prefix(), tracer, report);
    let docs: Vec<String> = initial_docs
        .iter()
        .cloned()
        .chain(swaps.iter().map(|swap| swap.doc.clone()))
        .take(LEDGER_DOCS)
        .collect();
    ledger::registry_commit(&docs, tracer, report);
    let specs: Vec<ArchSpec> = docs
        .iter()
        .map(|doc| ArchSpec::from_json(doc).expect("generated specs parse").1)
        .collect();
    ledger::analysis_specs(&specs, tracer, report);
    ledger::absint_all(tracer, report);
    let (cycles, instructions) = ledger::kernel(&specs, tracer, report);
    report.set("sim.cycles_total", cycles as f64);
    report.set("sim.instructions_total", instructions as f64);
}

/// The `result` a key's reply carries under the initial registry content.
fn payload(key: &Key, initial: &[ArchSpec]) -> String {
    match key.target {
        Target::Builtin(arch) => metrics::measure_json(arch, key.primitive),
        Target::Spec(slot) => {
            metrics::measure_spec_json(&gen::slot_name(slot), &initial[slot], key.primitive)
        }
    }
}

/// Every registry-spec result seen must equal `measure_spec_json` for the
/// spec content active at the epoch that served it.
fn verify_spec_results(checker: &Checker, swapper: &Swapper, keys: &[Key], report: &mut Report) {
    let activations = swapper.activations();
    let mut expected: HashMap<(String, usize), String> = HashMap::new();
    for ((epoch, index), result) in checker.spec_results() {
        let key = keys[index];
        let Target::Spec(slot) = key.target else {
            continue;
        };
        let Some((_, _, doc)) = activations
            .iter()
            .rev()
            .find(|(at, activated, _)| *at <= epoch && *activated == slot)
        else {
            report.fail(format!(
                "a {key:?} reply names epoch {epoch}, before its spec existed"
            ));
            continue;
        };
        let want = expected.entry((doc.clone(), index)).or_insert_with(|| {
            let (name, spec) = ArchSpec::from_json(doc).expect("generated specs parse");
            metrics::measure_spec_json(&name, &spec, key.primitive)
        });
        if *want != result {
            report.fail(format!(
                "{key:?} at epoch {epoch}: result differs from measure_spec_json"
            ));
        }
    }
    report
        .samples
        .insert("spec_results_verified".to_string(), expected.len() as u64);
}
