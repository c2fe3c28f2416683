//! The sharded single-flight response cache.
//!
//! Every query the server answers is a pure function of its key (the
//! simulator is deterministic), so the serving layer never needs to run a
//! computation twice — and under concurrency it must not run the *same*
//! computation twice at the *same* time. [`ShardedCache`] gives both
//! properties:
//!
//! * **Sharding** — keys hash to one of N independent shards, each behind
//!   its own mutex, so unrelated requests never contend on a global lock.
//! * **Single flight** — the first requester of a key installs an
//!   in-flight slot and computes *outside* every lock; concurrent
//!   requesters for the same key park on the slot's condvar and share the
//!   one result when it lands (a "coalesced wait").
//! * **Failure isolation** — a leader whose computation panics wakes
//!   every parked waiter with an error (nobody hangs) and *removes* the
//!   key's flight, so the next requester retries instead of hitting a
//!   poisoned slot forever.
//! * **Stale-on-error degradation** — the last good value per key is kept
//!   aside; when a recomputation fails, requesters get the stale value
//!   explicitly marked degraded rather than a hard error.
//!
//! This is the serving-layer analogue of the paper's argument about fixed
//! per-operation overheads: the expensive part of a request is a fixed
//! per-key simulation cost, so amortizing it across requests is the whole
//! ballgame — and a transiently failing computation must not turn an
//! amortized cost back into a per-request outage.

use crate::lock;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// The state of one key's computation.
enum Flight {
    /// Someone is computing; park on the condvar.
    Pending,
    /// The computation landed; share the result.
    Done(Arc<str>),
    /// The computation failed; share the error. The key has already been
    /// removed from the shard map, so a fresh request retries.
    Failed(Arc<str>),
}

/// One key's slot: flight state plus the condvar latecomers park on.
struct Slot {
    state: Mutex<Flight>,
    landed: Condvar,
}

/// How a value came out of [`ShardedCache::get_or_compute_resilient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fetched {
    /// This caller was the leader and computed the value fresh.
    Computed(Arc<str>),
    /// Served from an already-landed result (a hit or a coalesced wait).
    Cached(Arc<str>),
    /// The computation failed, but a previous good value exists: the
    /// stale value, plus the failure message. Explicitly degraded.
    Degraded(Arc<str>, String),
    /// The computation failed and no previous good value exists.
    Failed(String),
}

/// One shard: the flight map plus the last-good sidecar for degradation.
struct Shard {
    flights: Mutex<HashMap<String, Arc<Slot>>>,
    last_good: Mutex<HashMap<String, Arc<str>>>,
}

/// A sharded, single-flight memo cache from string keys to immutable
/// string results.
pub struct ShardedCache {
    shards: Vec<Shard>,
    hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    failed: AtomicU64,
    degraded: AtomicU64,
}

impl std::fmt::Debug for ShardedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("coalesced", &self.coalesced())
            .field("failed", &self.failed())
            .field("degraded", &self.degraded())
            .finish()
    }
}

impl ShardedCache {
    /// A cache with `shards` independent lock domains (clamped to ≥ 1).
    #[must_use]
    pub fn new(shards: usize) -> ShardedCache {
        let shards = shards.max(1);
        ShardedCache {
            shards: (0..shards)
                .map(|_| Shard {
                    flights: Mutex::new(HashMap::new()),
                    last_good: Mutex::new(HashMap::new()),
                })
                .collect(),
            hasher: RandomState::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    #[cfg(test)]
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_for(&self, key: &str) -> &Shard {
        let mut hasher = self.hasher.build_hasher();
        hasher.write(key.as_bytes());
        let index = (hasher.finish() as usize) % self.shards.len();
        &self.shards[index]
    }

    /// Infallible compatibility wrapper over
    /// [`ShardedCache::get_or_compute_resilient`] for computations that
    /// cannot fail. Returns the result and whether it was served from
    /// cache (a hit or a coalesced wait).
    pub fn get_or_compute<F>(&self, key: &str, compute: F) -> (Arc<str>, bool)
    where
        F: FnOnce() -> String,
    {
        match self.get_or_compute_resilient(key, compute) {
            Fetched::Computed(value) => (value, false),
            Fetched::Cached(value) | Fetched::Degraded(value, _) => (value, true),
            Fetched::Failed(error) => (
                Arc::from(
                    format!(
                        "{{\"ok\":false,\"error\":\"{}\"}}",
                        osarch_core::metrics::json_escape(&error)
                    )
                    .as_str(),
                ),
                false,
            ),
        }
    }

    /// Non-blocking lookup for event loops: the landed value for `key`,
    /// or `None` when the key is absent, still in flight, or failed —
    /// every `None` case must be offloaded to a thread that can afford
    /// the blocking [`ShardedCache::get_or_compute_resilient`] path.
    ///
    /// Counts a hit only when a value is returned; the offloaded path
    /// does its own miss/coalesced accounting, so each request still
    /// lands in exactly one bucket and the single-flight identity
    /// `lookups == hits + misses + coalesced` stays exact.
    #[must_use]
    pub fn try_get(&self, key: &str) -> Option<Arc<str>> {
        let shard = self.shard_for(key);
        let slot = Arc::clone(lock(&shard.flights).get(key)?);
        // The state lock is only ever held for moments (computation runs
        // outside it; waiters release it while parked), so this cannot
        // stall the event loop.
        let state = lock(&slot.state);
        match &*state {
            Flight::Done(result) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(result))
            }
            Flight::Pending | Flight::Failed(_) => None,
        }
    }

    /// The cached result for `key`, computing it with `compute` on first
    /// request. Exactly one caller per key runs `compute`; everyone else
    /// either hits the finished result or parks until the in-flight
    /// computation lands.
    ///
    /// `compute` may panic: the panic is contained here, every parked
    /// waiter wakes with the failure, the key's flight is removed so a
    /// later request retries, and callers fall back to the last good
    /// value ([`Fetched::Degraded`]) when one exists.
    pub fn get_or_compute_resilient<F>(&self, key: &str, compute: F) -> Fetched
    where
        F: FnOnce() -> String,
    {
        let shard = self.shard_for(key);
        let (slot, leader) = {
            let mut flights = lock(&shard.flights);
            match flights.get(key) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(Slot {
                        state: Mutex::new(Flight::Pending),
                        landed: Condvar::new(),
                    });
                    flights.insert(key.to_string(), Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        if leader {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return self.lead(shard, key, &slot, compute);
        }
        let mut state = lock(&slot.state);
        if matches!(*state, Flight::Pending) {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            while matches!(*state, Flight::Pending) {
                state = slot
                    .landed
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        match &*state {
            Flight::Done(result) => Fetched::Cached(Arc::clone(result)),
            Flight::Failed(error) => {
                let error = error.to_string();
                drop(state);
                self.degrade(shard, key, error)
            }
            Flight::Pending => unreachable!("left the wait loop with the flight pending"),
        }
    }

    /// Run the computation as the key's flight leader. Contains panics:
    /// on failure the flight is removed, waiters wake with the error, and
    /// the caller degrades to the last good value when one exists.
    fn lead<F>(&self, shard: &Shard, key: &str, slot: &Arc<Slot>, compute: F) -> Fetched
    where
        F: FnOnce() -> String,
    {
        // A backstop against this method itself unwinding between the
        // catch below and the state update: waiters must never be left
        // parked on a Pending flight.
        let mut guard = FlightGuard {
            shard,
            key,
            slot,
            armed: true,
        };
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(compute));
        match outcome {
            Ok(result) => {
                guard.armed = false;
                let result: Arc<str> = Arc::from(result);
                lock(&shard.last_good).insert(key.to_string(), Arc::clone(&result));
                let mut state = lock(&slot.state);
                *state = Flight::Done(Arc::clone(&result));
                drop(state);
                slot.landed.notify_all();
                Fetched::Computed(result)
            }
            Err(panic) => {
                guard.armed = false;
                let error = format!("computation panicked: {}", panic_message(&*panic));
                settle_failed(shard, key, slot, &error);
                self.degrade(shard, key, error)
            }
        }
    }

    /// Resolve a failed computation for a caller: serve the last good
    /// value as degraded when one exists, a hard failure otherwise.
    fn degrade(&self, shard: &Shard, key: &str, error: String) -> Fetched {
        self.failed.fetch_add(1, Ordering::Relaxed);
        match lock(&shard.last_good).get(key) {
            Some(stale) => {
                self.degraded.fetch_add(1, Ordering::Relaxed);
                Fetched::Degraded(Arc::clone(stale), error)
            }
            None => Fetched::Failed(error),
        }
    }

    /// Requests served from an already-landed result.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that ran the computation (as the flight leader).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Requests that parked on another request's in-flight computation.
    #[must_use]
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Requests whose computation failed (leader and waiters alike).
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Failed requests that were served a stale last-good value.
    #[must_use]
    pub fn degraded(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Total lookups: every call lands in exactly one of hit / miss /
    /// coalesced, so the single-flight accounting identity
    /// `lookups == hits + misses + coalesced` is exact by construction
    /// and checked by the chaos soak.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits() + self.misses() + self.coalesced()
    }

    /// Drop every entry (flight and last-good sidecar alike) whose key
    /// does not start with `prefix` — the lazy old-epoch reaper run after
    /// a registry swap. Safe against in-flight computations: a pending
    /// flight's waiters hold the slot `Arc` directly and its leader
    /// settles through the slot, never the map, so removal only hides
    /// the key from *new* requests. A straggler that re-lands under an
    /// old-epoch key is reaped by the next swap. Returns the number of
    /// entries removed.
    pub fn retain_prefix(&self, prefix: &str) -> usize {
        let mut removed = 0;
        for shard in &self.shards {
            let mut flights = lock(&shard.flights);
            let before = flights.len();
            flights.retain(|key, _| key.starts_with(prefix));
            removed += before - flights.len();
            let mut last_good = lock(&shard.last_good);
            let before = last_good.len();
            last_good.retain(|key, _| key.starts_with(prefix));
            removed += before - last_good.len();
        }
        removed
    }
}

/// Mark a flight failed: remove the key (so later requests retry), then
/// wake every parked waiter with the error.
fn settle_failed(shard: &Shard, key: &str, slot: &Arc<Slot>, error: &str) {
    {
        let mut flights = lock(&shard.flights);
        // Only remove the flight we own: a waiter that already saw the
        // failure may have raced a fresh leader into the map.
        if flights
            .get(key)
            .is_some_and(|current| Arc::ptr_eq(current, slot))
        {
            flights.remove(key);
        }
    }
    let mut state = lock(&slot.state);
    *state = Flight::Failed(Arc::from(error));
    drop(state);
    slot.landed.notify_all();
}

/// Best-effort panic payload extraction for error messages.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(message) = panic.downcast_ref::<&'static str>() {
        message
    } else if let Some(message) = panic.downcast_ref::<String>() {
        message
    } else {
        "opaque panic payload"
    }
}

/// Clears a pending slot if the leader unwinds before settling it, so
/// parked waiters receive an error result instead of waiting forever and
/// the key does not stay permanently in flight.
struct FlightGuard<'a> {
    shard: &'a Shard,
    key: &'a str,
    slot: &'a Arc<Slot>,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            settle_failed(self.shard, self.key, self.slot, "computation failed");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_request_hits() {
        let cache = ShardedCache::new(4);
        let (a, cached_a) = cache.get_or_compute("k", || "v".to_string());
        let (b, cached_b) = cache.get_or_compute("k", || panic!("must not recompute"));
        assert_eq!((&*a, cached_a), ("v", false));
        assert_eq!((&*b, cached_b), ("v", true));
        assert_eq!((cache.misses(), cache.hits(), cache.coalesced()), (1, 1, 0));
        assert_eq!(cache.lookups(), 2);
    }

    #[test]
    fn distinct_keys_compute_independently() {
        let cache = ShardedCache::new(2);
        for i in 0..10 {
            let key = format!("k{i}");
            let (value, _) = cache.get_or_compute(&key, || format!("v{i}"));
            assert_eq!(&*value, &format!("v{i}"));
        }
        assert_eq!(cache.misses(), 10);
    }

    #[test]
    fn concurrent_same_key_coalesces_to_one_computation() {
        use std::sync::Barrier;
        let cache = ShardedCache::new(8);
        let computations = AtomicU64::new(0);
        let barrier = Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    barrier.wait();
                    let (value, _) = cache.get_or_compute("hot", || {
                        computations.fetch_add(1, Ordering::Relaxed);
                        // Hold the flight open long enough that the other
                        // threads arrive while it is pending.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        "result".to_string()
                    });
                    assert_eq!(&*value, "result");
                });
            }
        });
        assert_eq!(computations.load(Ordering::Relaxed), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits() + cache.coalesced(), 7);
    }

    #[test]
    fn try_get_is_nonblocking_and_counts_hits_exactly() {
        let cache = ShardedCache::new(4);
        assert_eq!(cache.try_get("k"), None, "absent key");
        assert_eq!(cache.lookups(), 0, "a miss on try_get is not a lookup");
        let (value, _) = cache.get_or_compute("k", || "v".to_string());
        assert_eq!(&*value, "v");
        let hit = cache.try_get("k").expect("landed value");
        assert_eq!(&*hit, "v");
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        assert_eq!(cache.lookups(), 2);
        // An in-flight key is invisible to try_get: the leader parks a
        // flight as Pending, and try_get must refuse to wait on it.
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                cache.get_or_compute("slow", || {
                    barrier.wait();
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    "late".to_string()
                });
            });
            barrier.wait();
            assert_eq!(cache.try_get("slow"), None, "pending flight");
        });
    }

    #[test]
    fn retain_prefix_reaps_old_epoch_entries() {
        let cache = ShardedCache::new(4);
        let _ = cache.get_or_compute("e1-aaaa/k", || "old".to_string());
        let _ = cache.get_or_compute("e2-bbbb/k", || "new".to_string());
        let removed = cache.retain_prefix("e2-");
        assert_eq!(removed, 2, "old epoch's flight and last_good entries");
        assert_eq!(cache.try_get("e1-aaaa/k"), None, "old epoch reaped");
        assert!(cache.try_get("e2-bbbb/k").is_some(), "new epoch kept");
    }

    #[test]
    fn shard_count_is_clamped() {
        assert_eq!(ShardedCache::new(0).shard_count(), 1);
        assert_eq!(ShardedCache::new(16).shard_count(), 16);
    }

    #[test]
    fn leader_panic_fails_cleanly_then_retries() {
        let cache = ShardedCache::new(4);
        let fetched = cache.get_or_compute_resilient("k", || panic!("injected"));
        match fetched {
            Fetched::Failed(error) => assert!(error.contains("injected"), "{error}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        // The key is not poisoned: the next request recomputes.
        let fetched = cache.get_or_compute_resilient("k", || "fresh".to_string());
        assert_eq!(fetched, Fetched::Computed(Arc::from("fresh")));
        assert_eq!(cache.misses(), 2, "the failed flight was retried");
        assert_eq!(cache.failed(), 1);
        assert_eq!(cache.degraded(), 0);
    }

    #[test]
    fn failure_after_success_degrades_to_the_stale_value() {
        let cache = ShardedCache::new(4);
        let first = cache.get_or_compute_resilient("k", || "good".to_string());
        assert_eq!(first, Fetched::Computed(Arc::from("good")));
        // A cached key never recomputes, so fail a *fresh* flight: the
        // failure path consults last_good and degrades.
        let fetched = cache.get_or_compute_resilient("other", || panic!("down"));
        assert!(matches!(fetched, Fetched::Failed(_)));
        // Simulate invalidation by failing the same key through a new
        // flight (the slot for "k" is Done, so force a failing flight via
        // a distinct cache with seeded last_good).
        let fetched = {
            let shard = cache.shard_for("k");
            // Remove the landed flight so the next request recomputes.
            lock(&shard.flights).remove("k");
            cache.get_or_compute_resilient("k", || panic!("recompute down"))
        };
        match fetched {
            Fetched::Degraded(stale, error) => {
                assert_eq!(&*stale, "good");
                assert!(error.contains("recompute down"), "{error}");
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        assert_eq!(cache.degraded(), 1);
    }

    /// Regression: a degraded reply serves the value *its own epoch*
    /// computed, never a neighbouring epoch's — the last-good sidecar is
    /// keyed by the full epoch-prefixed cache key, so a live spec swap
    /// can never leak one epoch's stale bytes into another's envelope.
    #[test]
    fn degraded_replies_carry_the_epoch_they_were_computed_at() {
        let query = crate::protocol::Query::MeasureSpec {
            name: "hot".to_string(),
            primitive: osarch_kernel::Primitive::all()[0],
        };
        let mut doc_a = osarch_cpu::Arch::all()[0].spec();
        doc_a.clock_mhz = 25.0;
        let mut doc_b = doc_a.clone();
        doc_b.clock_mhz = 40.0;
        let before = crate::registry::SpecSnapshot::builtins()
            .with_spec(&doc_a.to_json("hot"), 2)
            .expect("valid doc");
        let after = before
            .with_spec(&doc_b.to_json("hot"), 3)
            .expect("valid doc");

        let cache = ShardedCache::new(4);
        let key_a = query.cache_key(&before).expect("cacheable");
        let key_b = query.cache_key(&after).expect("cacheable");
        let good_a = cache.get_or_compute_resilient(&key_a, || query.compute(&before));
        let good_b = cache.get_or_compute_resilient(&key_b, || query.compute(&after));
        let (Fetched::Computed(good_a), Fetched::Computed(good_b)) = (good_a, good_b) else {
            panic!("both epochs compute fresh");
        };
        assert_ne!(good_a, good_b, "the swap must change the payload");

        // Invalidate both flights (the landed slots), keeping the
        // last-good sidecars — then fail both recomputations. Each key
        // must degrade to the bytes its own epoch computed.
        for (key, expected) in [(&key_a, &good_a), (&key_b, &good_b)] {
            lock(&cache.shard_for(key).flights).remove(key.as_str());
            match cache.get_or_compute_resilient(key, || panic!("recompute down")) {
                Fetched::Degraded(stale, _) => assert_eq!(
                    &stale, expected,
                    "degraded bytes must come from the key's own epoch"
                ),
                other => panic!("expected Degraded, got {other:?}"),
            }
        }
    }
}
