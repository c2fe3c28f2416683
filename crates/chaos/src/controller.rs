//! The chaos controller: a precomputable, lock-free fault schedule.
//!
//! The controller answers one question — "does the *n*-th arrival at
//! failpoint *f* fault?" — as a pure function of `(seed, f, n)`. Each
//! failpoint keeps its own atomic draw counter, so the decision sequence
//! a failpoint sees is independent of thread interleaving: the 7th
//! compute ever to ask about [`Failpoint::ComputePanic`] always gets the
//! same answer under the same seed, no matter which worker asks.
//!
//! A schedule covers a bounded **horizon** of draws per failpoint; draws
//! beyond the horizon never fault. The planned event count over the
//! horizon ([`ChaosController::schedule_events`]) is therefore computable
//! before the run starts — that is the replayable "fault schedule" the
//! chaos soak asserts is identical across same-seed runs.

use crate::failpoint::Failpoint;
use osarch_trace::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Schedule parameters. Two controllers with equal configs plan
/// bit-identical schedules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Root seed; every failpoint derives its own decision stream.
    pub seed: u64,
    /// Fault probability per draw, in `[0, 1]`.
    pub rate: f64,
    /// Draws per failpoint covered by the schedule; later draws never
    /// fault.
    pub horizon: u64,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 42,
            rate: 0.0,
            horizon: 100_000,
        }
    }
}

/// A thread-safe fault-injection decision source. Cheap when idle: a
/// zero-rate controller answers every query with one branch.
#[derive(Debug)]
pub struct ChaosController {
    config: ChaosConfig,
    /// `rate` mapped onto the full `u64` range for branch-free compares.
    threshold: u64,
    draws: [AtomicU64; Failpoint::COUNT],
    injected: [AtomicU64; Failpoint::COUNT],
}

impl ChaosController {
    /// A controller planning the schedule described by `config`.
    #[must_use]
    pub fn new(config: ChaosConfig) -> ChaosController {
        let rate = config.rate.clamp(0.0, 1.0);
        // `u64::MAX as f64` rounds up to 2^64; the saturating cast brings
        // rate=1.0 back to u64::MAX, which a uniform draw can still miss
        // by exactly one value in 2^64 — close enough to "always".
        let threshold = (rate * (u64::MAX as f64)) as u64;
        ChaosController {
            config,
            threshold,
            draws: std::array::from_fn(|_| AtomicU64::new(0)),
            injected: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The schedule parameters this controller was built from.
    #[must_use]
    pub fn config(&self) -> ChaosConfig {
        self.config
    }

    /// The decision word for draw `index` at `fp`: a keyed hash (the
    /// first draw of a SplitMix64 stream), not a marched stream, so
    /// concurrent draws share no mutable state.
    fn word(&self, fp: Failpoint, index: u64) -> u64 {
        let hash = |key| SplitMix64::new(key).next_u64();
        let lane =
            hash(self.config.seed ^ (fp.index() as u64 + 1).wrapping_mul(0xA5A5_A5A5_A5A5_A5A5));
        hash(lane ^ index)
    }

    /// Whether draw `index` at `fp` is a planned fault.
    fn planned(&self, fp: Failpoint, index: u64) -> bool {
        index < self.config.horizon && self.word(fp, index) < self.threshold
    }

    /// Take the next draw at `fp`: `true` means "inject the fault now".
    /// Draws past the schedule horizon never fault.
    pub fn should_inject(&self, fp: Failpoint) -> bool {
        if self.threshold == 0 {
            return false;
        }
        let index = self.draws[fp.index()].fetch_add(1, Ordering::Relaxed);
        let inject = self.planned(fp, index);
        if inject {
            self.injected[fp.index()].fetch_add(1, Ordering::Relaxed);
        }
        inject
    }

    /// Take the next draw at `fp` and, when it faults, derive a
    /// deterministic stall duration uniformly in `[min, max]` from the
    /// same decision word. No wall clock participates in the schedule.
    pub fn inject_delay(&self, fp: Failpoint, min: Duration, max: Duration) -> Option<Duration> {
        if self.threshold == 0 {
            return None;
        }
        let index = self.draws[fp.index()].fetch_add(1, Ordering::Relaxed);
        if !self.planned(fp, index) {
            return None;
        }
        self.injected[fp.index()].fetch_add(1, Ordering::Relaxed);
        let (lo, hi) = (min.as_micros() as u64, max.as_micros() as u64);
        let span = hi.saturating_sub(lo).saturating_add(1);
        // Re-mix so the duration is independent of the injection decision
        // bits, but still a pure function of (seed, fp, index).
        let jitter = SplitMix64::new(self.word(fp, index)).range(span);
        Some(Duration::from_micros(lo + jitter))
    }

    /// Draws taken so far at `fp`.
    #[must_use]
    pub fn draws(&self, fp: Failpoint) -> u64 {
        self.draws[fp.index()].load(Ordering::Relaxed)
    }

    /// Faults actually injected so far at `fp`.
    #[must_use]
    pub fn injected(&self, fp: Failpoint) -> u64 {
        self.injected[fp.index()].load(Ordering::Relaxed)
    }

    /// Faults actually injected so far, across every failpoint.
    #[must_use]
    pub fn injected_total(&self) -> u64 {
        Failpoint::ALL.iter().map(|fp| self.injected(*fp)).sum()
    }

    /// Planned fault events for `fp` over the whole horizon — a pure
    /// function of the config, identical across same-seed controllers.
    #[must_use]
    pub fn schedule_events(&self, fp: Failpoint) -> u64 {
        if self.threshold == 0 {
            return 0;
        }
        (0..self.config.horizon)
            .filter(|&index| self.planned(fp, index))
            .count() as u64
    }

    /// Planned fault events over the whole horizon, across every
    /// failpoint.
    #[must_use]
    pub fn schedule_total(&self) -> u64 {
        Failpoint::ALL
            .iter()
            .map(|fp| self.schedule_events(*fp))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(seed: u64, rate: f64) -> ChaosConfig {
        ChaosConfig {
            seed,
            rate,
            horizon: 10_000,
        }
    }

    #[test]
    fn same_seed_plans_the_same_schedule() {
        let a = ChaosController::new(config(42, 0.2));
        let b = ChaosController::new(config(42, 0.2));
        for fp in Failpoint::ALL {
            assert_eq!(a.schedule_events(fp), b.schedule_events(fp), "{fp}");
        }
        assert_eq!(a.schedule_total(), b.schedule_total());
        assert!(a.schedule_total() > 0);
    }

    #[test]
    fn different_seeds_plan_different_schedules() {
        let a = ChaosController::new(config(1, 0.2));
        let b = ChaosController::new(config(2, 0.2));
        let a_counts: Vec<u64> = Failpoint::ALL
            .iter()
            .map(|fp| a.schedule_events(*fp))
            .collect();
        let b_counts: Vec<u64> = Failpoint::ALL
            .iter()
            .map(|fp| b.schedule_events(*fp))
            .collect();
        assert_ne!(a_counts, b_counts);
    }

    #[test]
    fn draws_match_the_planned_schedule_exactly() {
        let controller = ChaosController::new(config(7, 0.3));
        let fp = Failpoint::ComputePanic;
        let mut live = 0u64;
        for _ in 0..10_000 {
            if controller.should_inject(fp) {
                live += 1;
            }
        }
        assert_eq!(live, controller.schedule_events(fp));
        assert_eq!(controller.injected(fp), live);
        assert_eq!(controller.draws(fp), 10_000);
    }

    #[test]
    fn zero_rate_never_injects_and_past_horizon_never_faults() {
        let quiet = ChaosController::new(config(42, 0.0));
        for _ in 0..1000 {
            assert!(!quiet.should_inject(Failpoint::ConnReset));
        }
        assert_eq!(quiet.schedule_total(), 0);

        let short = ChaosController::new(ChaosConfig {
            seed: 42,
            rate: 1.0,
            horizon: 5,
        });
        let hits = (0..100)
            .filter(|_| short.should_inject(Failpoint::AcceptDrop))
            .count();
        assert_eq!(hits, 5, "rate=1.0 faults exactly the horizon");
    }

    #[test]
    fn injection_rate_tracks_the_configured_probability() {
        let controller = ChaosController::new(config(1234, 0.2));
        let hits = (0..10_000)
            .filter(|_| controller.should_inject(Failpoint::WriteStall))
            .count();
        assert!((1_600..2_400).contains(&hits), "rate=0.2 gave {hits}/10000");
    }

    #[test]
    fn delays_are_deterministic_and_in_range() {
        let min = Duration::from_millis(10);
        let max = Duration::from_millis(50);
        let a = ChaosController::new(config(9, 0.5));
        let b = ChaosController::new(config(9, 0.5));
        let da: Vec<Option<Duration>> = (0..200)
            .map(|_| a.inject_delay(Failpoint::ComputeDelay, min, max))
            .collect();
        let db: Vec<Option<Duration>> = (0..200)
            .map(|_| b.inject_delay(Failpoint::ComputeDelay, min, max))
            .collect();
        assert_eq!(da, db, "same seed, same delay schedule");
        assert!(da.iter().any(Option::is_some));
        for delay in da.into_iter().flatten() {
            assert!((min..=max).contains(&delay), "{delay:?}");
        }
    }

    #[test]
    fn failpoint_streams_are_independent() {
        let controller = ChaosController::new(config(42, 0.2));
        // Draw heavily on one failpoint; another failpoint's schedule is
        // unaffected (it has its own counter and its own stream).
        for _ in 0..5000 {
            let _ = controller.should_inject(Failpoint::ConnReset);
        }
        let fresh = ChaosController::new(config(42, 0.2));
        let interleaved: Vec<bool> = (0..100)
            .map(|_| controller.should_inject(Failpoint::WorkerDeath))
            .collect();
        let clean: Vec<bool> = (0..100)
            .map(|_| fresh.should_inject(Failpoint::WorkerDeath))
            .collect();
        assert_eq!(interleaved, clean);
    }
}
