//! Satellite: multi-threaded stress of the sharded single-flight cache.
//!
//! ≥ 8 threads hammer overlapping (arch, primitive) keys concurrently.
//! The cache must run each key's computation exactly once, and every
//! returned payload must be bit-identical to what a single-threaded
//! [`MeasurementSession`] produces for the same key.

use osarch_core::{metrics, AbsintAnalyzer, MeasurementSession};
use osarch_cpu::Arch;
use osarch_kernel::Primitive;
use osarch_serve::{Query, ShardedCache, SpecSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

/// A key's payload: enough measurement state that any divergence between
/// two computations would show.
fn payload(session: &MeasurementSession, arch: Arch, primitive: Primitive) -> String {
    let m = session.measurement(arch);
    let stats = m.stats(primitive);
    format!(
        "{arch}/{}: cycles={} instructions={} us={:.6}",
        primitive.tag(),
        stats.cycles,
        stats.instructions,
        m.times_us().time(primitive)
    )
}

#[test]
fn hammering_threads_compute_each_key_exactly_once_and_bit_identical() {
    const THREADS: usize = 12;
    const ROUNDS: usize = 40;
    let keys: Vec<(Arch, Primitive)> = Arch::all()
        .into_iter()
        .flat_map(|arch| Primitive::all().into_iter().map(move |p| (arch, p)))
        .collect();
    let cache = ShardedCache::new(8);
    let session = MeasurementSession::new();
    let computations: Vec<AtomicU64> = keys.iter().map(|_| AtomicU64::new(0)).collect();
    let barrier = Barrier::new(THREADS);

    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let cache = &cache;
            let session = &session;
            let keys = &keys;
            let computations = &computations;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    // Every thread walks the whole key set each round, each
                    // from a different starting offset, so key collisions
                    // are constant and cover every shard.
                    for step in 0..keys.len() {
                        let index = (thread + round + step) % keys.len();
                        let (arch, primitive) = keys[index];
                        let key = format!("measure/{arch}/{}", primitive.tag());
                        let (value, _) = cache.get_or_compute(&key, || {
                            computations[index].fetch_add(1, Ordering::SeqCst);
                            payload(session, arch, primitive)
                        });
                        assert!(!value.is_empty());
                    }
                }
            });
        }
    });

    // Exactly one computation per key, no matter the interleaving.
    for (index, (arch, primitive)) in keys.iter().enumerate() {
        assert_eq!(
            computations[index].load(Ordering::SeqCst),
            1,
            "{arch} {} computed more than once",
            primitive.tag()
        );
    }
    assert_eq!(cache.misses(), keys.len() as u64);
    let total_requests = (THREADS * ROUNDS * keys.len()) as u64;
    assert_eq!(
        cache.hits() + cache.coalesced() + cache.misses(),
        total_requests,
        "every request is a hit, a coalesced wait, or the one miss"
    );

    // Bit-identical to a fresh single-threaded session.
    let reference = MeasurementSession::new();
    for (arch, primitive) in keys {
        let key = format!("measure/{arch}/{}", primitive.tag());
        let (cached, was_cached) = cache.get_or_compute(&key, || unreachable!("{key} is cached"));
        assert!(was_cached);
        assert_eq!(
            &*cached,
            payload(&reference, arch, primitive),
            "{key} diverged from the single-threaded session"
        );
    }
}

#[test]
fn analyze_queries_single_flight_with_byte_identical_replies() {
    const THREADS: usize = 12;
    const ROUNDS: usize = 8;
    // The real serve queries for every per-arch proof run plus the
    // all-architectures run — the same keys and compute path the server's
    // data-query arm uses.
    let queries: Vec<Query> = Arch::all()
        .into_iter()
        .map(|arch| Query::Analyze { arch: Some(arch) })
        .chain(std::iter::once(Query::Analyze { arch: None }))
        .collect();
    let cache = ShardedCache::new(8);
    let snapshot = SpecSnapshot::builtins();
    let computations: Vec<AtomicU64> = queries.iter().map(|_| AtomicU64::new(0)).collect();
    let barrier = Barrier::new(THREADS);

    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let cache = &cache;
            let queries = &queries;
            let snapshot = &snapshot;
            let computations = &computations;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    for step in 0..queries.len() {
                        let index = (thread + round + step) % queries.len();
                        let query = &queries[index];
                        let key = query.cache_key(snapshot).expect("analyze is cacheable");
                        let (value, _) = cache.get_or_compute(&key, || {
                            computations[index].fetch_add(1, Ordering::SeqCst);
                            query.compute(snapshot)
                        });
                        assert!(value.starts_with("{\"schema\":\"osarch-absint/1\""));
                    }
                }
            });
        }
    });

    for (index, query) in queries.iter().enumerate() {
        assert_eq!(
            computations[index].load(Ordering::SeqCst),
            1,
            "{:?} computed more than once",
            query.cache_key(&snapshot)
        );
        // Every cached reply is byte-identical to the direct emitter.
        let key = query.cache_key(&snapshot).expect("cacheable");
        let (cached, was_cached) = cache.get_or_compute(&key, || unreachable!("{key} is cached"));
        assert!(was_cached);
        let analyzer = AbsintAnalyzer::new();
        let report = match query {
            Query::Analyze { arch: Some(arch) } => analyzer.analyze_spec(&arch.spec()),
            Query::Analyze { arch: None } => analyzer.analyze_all(),
            other => unreachable!("{other:?}"),
        };
        assert_eq!(
            &*cached,
            metrics::absint_json(&report).trim_end(),
            "{key} diverged from the direct emitter"
        );
    }
}
