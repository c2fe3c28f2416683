//! Satellite: the versioned cache across live spec swaps.
//!
//! Three properties of the epoch-prefixed cache key:
//!
//! 1. keys never collide across epochs (proptest over epoch pairs and
//!    the whole query space);
//! 2. under a 12-thread hammer spanning a simulated swap, no reply ever
//!    crosses epochs — every returned payload is byte-identical to its
//!    own epoch's direct emitter;
//! 3. a degraded (last-good) reply can only carry the value computed at
//!    the *same* epoch: a fresh epoch with no history fails hard rather
//!    than leaking the previous epoch's stale payload.
//!
//! And the activation gates in front of the cache: a spec that fails
//! lint is refused over the wire with a one-line error, and the refusal
//! changes neither the registry nor the cached built-ins.

use osarch_core::metrics::json_escape;
use osarch_cpu::Arch;
use osarch_kernel::Primitive;
use osarch_serve::{Query, Server, ServerConfig, ShardedCache, SpecSnapshot};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::Duration;

/// The whole cacheable query space, indexed densely so proptest can
/// draw from it with a plain integer strategy.
fn cacheable_queries() -> Vec<Query> {
    let mut queries = Vec::new();
    for arch in Arch::all() {
        for primitive in Primitive::all() {
            queries.push(Query::Measure { arch, primitive });
            queries.push(Query::Trace { arch, primitive });
        }
        queries.push(Query::Analyze { arch: Some(arch) });
        queries.push(Query::Lint { arch: Some(arch) });
        queries.push(Query::Counters { arch: Some(arch) });
    }
    queries.push(Query::Analyze { arch: None });
    queries.push(Query::Lint { arch: None });
    queries.push(Query::Counters { arch: None });
    for primitive in Primitive::all() {
        queries.push(Query::MeasureSpec {
            name: "hot".to_string(),
            primitive,
        });
    }
    queries
}

/// A swapped-in spec document distinct from every builtin.
fn hot_doc(clock_mhz: f64) -> String {
    let mut spec = Arch::all()[0].spec();
    spec.clock_mhz = clock_mhz;
    spec.to_json("hot")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Across any two distinct epochs, no query's cache key collides —
    /// with itself at the other epoch, or with *any other query at any
    /// other epoch*. A collision would let a reply computed under one
    /// spec registry answer a request captured under another.
    #[test]
    fn cache_keys_never_collide_across_epochs(
        epoch_a in 1u64..10_000,
        offset in 1u64..10_000,
        query_index in 0usize..1_000,
    ) {
        let epoch_b = epoch_a + offset;
        let queries = cacheable_queries();
        let query = &queries[query_index % queries.len()];
        let snap_a = SpecSnapshot::builtins().at_epoch(epoch_a);
        let snap_b = SpecSnapshot::builtins().at_epoch(epoch_b);
        let key_a = query.cache_key(&snap_a).expect("cacheable");
        let key_b = query.cache_key(&snap_b).expect("cacheable");
        prop_assert_ne!(&key_a, &key_b);
        // Same epoch, same query: the key is deterministic.
        prop_assert_eq!(&key_a, &query.cache_key(&snap_a).expect("cacheable"));
        // Cross-product: this query's key at epoch A collides with no
        // query's key at epoch B, not even a different query's.
        for other in &queries {
            let other_b = other.cache_key(&snap_b).expect("cacheable");
            prop_assert_ne!(&key_a, &other_b);
        }
    }
}

#[test]
fn twelve_threads_spanning_a_swap_never_cross_epochs() {
    const THREADS: usize = 12;
    const ROUNDS: usize = 10;
    // Epoch 2 and epoch 3 disagree about the hot spec's content — the
    // exact situation mid-swap, when requests captured under both
    // snapshots are in flight against the same cache at once.
    let before = SpecSnapshot::builtins()
        .with_spec(&hot_doc(25.0), 2)
        .expect("valid doc");
    let after = before.with_spec(&hot_doc(40.0), 3).expect("valid doc");
    let snapshots = [&before, &after];
    let queries: Vec<Query> = Primitive::all()
        .into_iter()
        .map(|primitive| Query::MeasureSpec {
            name: "hot".to_string(),
            primitive,
        })
        .collect();
    let cache = ShardedCache::new(8);
    let barrier = Barrier::new(THREADS);

    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let cache = &cache;
            let queries = &queries;
            let snapshots = &snapshots;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    for step in 0..queries.len() * 2 {
                        // Interleave epochs: odd threads lead with the
                        // new snapshot, even threads with the old.
                        let snapshot = snapshots[(thread + step) % 2];
                        let query = &queries[(round + step) % queries.len()];
                        let key = query.cache_key(snapshot).expect("cacheable");
                        let (value, _) = cache.get_or_compute(&key, || query.compute(snapshot));
                        // The reply must be its own epoch's direct
                        // emission — never the other epoch's, no matter
                        // which thread computed the cached value.
                        assert_eq!(
                            &*value,
                            query.compute(snapshot),
                            "epoch {} reply crossed epochs under {key}",
                            snapshot.epoch()
                        );
                    }
                }
            });
        }
    });

    // The two epochs really do disagree, so the assertion above had
    // teeth: same query, different epoch, different payload.
    for query in &queries {
        assert_ne!(
            query.compute(&before),
            query.compute(&after),
            "the swapped spec must change the payload"
        );
    }
    // One computation per (epoch, query) pair — the epoch prefix keeps
    // the flights separate, the single-flight keeps each unique.
    assert_eq!(cache.misses(), (queries.len() * 2) as u64);
}

#[test]
fn a_fresh_epoch_never_inherits_the_previous_epochs_last_good() {
    let cache = ShardedCache::new(4);
    let snapshot = SpecSnapshot::builtins()
        .with_spec(&hot_doc(25.0), 2)
        .expect("valid doc");
    let query = Query::MeasureSpec {
        name: "hot".to_string(),
        primitive: Primitive::all()[0],
    };
    let key = query.cache_key(&snapshot).expect("cacheable");

    // Epoch 2 computes once, seeding its last-good sidecar entry.
    let good = match cache.get_or_compute_resilient(&key, || query.compute(&snapshot)) {
        osarch_serve::Fetched::Computed(payload) => payload,
        other => panic!("expected a fresh computation, got {other:?}"),
    };

    // The spec swaps: epoch 3 carries *different* hot-spec content, and
    // its first computation panics. The same logical query has a live
    // last-good value one epoch over — an unversioned cache would serve
    // it; the epoch-prefixed key must fail hard instead.
    let swapped = snapshot.with_spec(&hot_doc(40.0), 3).expect("valid doc");
    let swapped_key = query.cache_key(&swapped).expect("cacheable");
    match cache.get_or_compute_resilient(&swapped_key, || panic!("injected")) {
        osarch_serve::Fetched::Failed(error) => {
            assert!(error.contains("injected"), "got: {error}");
        }
        other => panic!("a fresh epoch must not inherit stale values, got {other:?}"),
    }

    // Once epoch 3 lands its own value, both epochs serve their own
    // bytes from then on.
    let swapped_good =
        match cache.get_or_compute_resilient(&swapped_key, || query.compute(&swapped)) {
            osarch_serve::Fetched::Computed(payload) => payload,
            other => panic!("expected a fresh computation, got {other:?}"),
        };
    assert_ne!(swapped_good, good, "the swap must change the payload");

    // Reaping the old epoch after the swap drops epoch 2's entries but
    // leaves epoch 3's intact.
    let removed = cache.retain_prefix(swapped.key_prefix());
    assert!(removed > 0, "epoch 2 left entries to reap");
    match cache.get_or_compute_resilient(&swapped_key, || panic!("injected")) {
        osarch_serve::Fetched::Cached(payload) => assert_eq!(payload, swapped_good),
        other => panic!("epoch 3 must survive the reap, got {other:?}"),
    }
    match cache.get_or_compute_resilient(&key, || panic!("injected")) {
        osarch_serve::Fetched::Failed(_) => {}
        other => panic!("the reaped epoch must recompute from scratch, got {other:?}"),
    }
}

/// A line-at-a-time client for the admin-plane test.
struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Client {
    const TOKEN: &'static str = "gate-token";

    fn call(&mut self, line: &str) -> String {
        writeln!(self.stream, "{line}").expect("send");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("recv");
        assert!(reply.ends_with('\n'), "{line}: torn reply {reply:?}");
        reply.trim_end().to_string()
    }

    fn admin(&mut self, action: &str, rest: &str) -> String {
        let token = Client::TOKEN;
        self.call(&format!(
            "{{\"op\":\"admin\",\"action\":\"{action}\",\"token\":\"{token}\"{rest}}}"
        ))
    }

    /// The registry's epoch, digest, swap count and rollback count, as
    /// `spec-list` reports them.
    fn registry_state(&mut self) -> String {
        let reply = self.admin("spec-list", "");
        let action = "\"action\":\"spec-list\",";
        let start = reply.find(action).expect("a spec-list reply") + action.len();
        let end = reply.find(",\"active\":").expect("an active list");
        reply[start..end].to_string()
    }
}

#[test]
fn a_spec_that_fails_lint_is_refused_and_changes_nothing() {
    let server = Server::start(&ServerConfig {
        admin_token: Some(Client::TOKEN.to_string()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut client = Client {
        reader: BufReader::new(stream.try_clone().expect("clone")),
        stream,
    };
    let before = client.registry_state();
    assert!(before.starts_with("\"epoch\":1,"), "{before}");
    let measure = "{\"op\":\"measure\",\"arch\":\"cvax\",\"primitive\":\"syscall\"}";
    let warm = client.call(measure);
    assert!(warm.contains("\"cached\":false,\"epoch\":1,"), "{warm}");

    // CVAX with a branch delay slot breaks OA001 (and absint proves the
    // spec); CVAX saving 33 trap registers breaks OA004 (and absint
    // refutes OA204). Lint, the first gate, refuses both. No known spec
    // passes lint and fails absint, so the second gate stays undriven.
    for (name, field, diagnostics) in [
        ("slotted-cvax", "\"has_delay_slots\":true", 5),
        ("hoarding-cvax", "\"trap_saved_registers\":33", 2),
    ] {
        let doc = format!(
            "{{\"schema\":\"osarch-spec/1\",\"name\":\"{name}\",\"base\":\"cvax\",{field}}}"
        );
        let staged = client.admin("spec-load", &format!(",\"spec\":\"{}\"", json_escape(&doc)));
        assert!(staged.contains("\"ok\":true"), "{staged}");
        let refused = client.admin("spec-activate", &format!(",\"name\":\"{name}\""));
        let error = format!("spec-activate: \"{name}\" fails lint ({diagnostics} diagnostics)");
        assert!(
            refused.contains(&format!(
                "\"ok\":false,\"error\":\"{}\"}}",
                json_escape(&error)
            )),
            "{refused}"
        );
        assert_eq!(
            client.registry_state(),
            before,
            "a refused activation moved the registry"
        );
        let hit = client.call(measure);
        assert!(hit.contains("\"cached\":true,\"epoch\":1,"), "{hit}");
    }
    server.stop();
}
