//! Translation lookaside buffers.
//!
//! Section 3.2: "Many of the newer RISCs have process ID tags in their TLB
//! entries, which allows the entries to live across context switches. This
//! gives them an advantage over untagged systems such as the VAX." The CVAX
//! TLB must be purged twice per LRPC, costing an estimated 25% of the call.
//! The SPARC/Cypress TLB additionally lets the OS *lock* a range of entries.

use crate::addr::Asid;
use crate::pagetable::Pte;

/// Replacement policy for a full TLB set. Deterministic policies keep the
/// simulation reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Replacement {
    /// Replace entries in insertion order.
    #[default]
    Fifo,
    /// Replace the entry chosen by a small deterministic LCG (models the
    /// "random" replacement several TLBs used).
    PseudoRandom,
}

/// Static configuration of a TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total entries (e.g. 64 on the MIPS R2000).
    pub entries: usize,
    /// Whether entries carry address-space tags.
    pub tagged: bool,
    /// Number of slots the OS may lock against replacement (SPARC/Cypress).
    pub lockable: usize,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl TlbConfig {
    /// A tagged 64-entry TLB, FIFO-replaced, no locked slots.
    #[must_use]
    pub fn tagged(entries: usize) -> TlbConfig {
        TlbConfig {
            entries,
            tagged: true,
            lockable: 0,
            replacement: Replacement::Fifo,
        }
    }

    /// An untagged TLB (VAX-style): every context switch purges it.
    #[must_use]
    pub fn untagged(entries: usize) -> TlbConfig {
        TlbConfig {
            entries,
            tagged: false,
            lockable: 0,
            replacement: Replacement::Fifo,
        }
    }

    /// A tagged TLB with `lockable` slots reserved for locked entries.
    #[must_use]
    pub fn tagged_lockable(entries: usize, lockable: usize) -> TlbConfig {
        TlbConfig {
            entries,
            tagged: true,
            lockable,
            replacement: Replacement::Fifo,
        }
    }
}

/// One TLB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Virtual page number.
    pub vpn: u32,
    /// Owning address space; `None` marks a global (match-any) entry.
    pub asid: Option<Asid>,
    /// The cached translation.
    pub pte: Pte,
    /// Whether the entry is locked against replacement.
    pub locked: bool,
}

/// Hit/miss/flush counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries discarded by full flushes.
    pub flushed: u64,
    /// Entries discarded because the set was full.
    pub replaced: u64,
}

/// A translation lookaside buffer (fully associative, as on the machines in
/// the study).
///
/// # Example
///
/// ```
/// use osarch_mem::{Tlb, TlbConfig, TlbEntry, Asid, Pte, Protection};
///
/// let mut tlb = Tlb::new(TlbConfig::tagged(64));
/// tlb.insert(TlbEntry {
///     vpn: 0x10,
///     asid: Some(Asid(1)),
///     pte: Pte::new(0x99, Protection::RW),
///     locked: false,
/// });
/// assert!(tlb.lookup(0x10, Asid(1)).is_some());
/// assert!(tlb.lookup(0x10, Asid(2)).is_none()); // tagged: other space misses
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    entries: Vec<Option<TlbEntry>>,
    next_victim: usize,
    lcg_state: u32,
    stats: TlbStats,
}

impl Tlb {
    /// An empty TLB with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.entries` is zero or `config.lockable > config.entries`.
    #[must_use]
    pub fn new(config: TlbConfig) -> Tlb {
        assert!(config.entries > 0, "a TLB must have at least one entry");
        assert!(
            config.lockable <= config.entries,
            "cannot lock more slots than exist"
        );
        Tlb {
            config,
            entries: vec![None; config.entries],
            next_victim: 0,
            lcg_state: 0x2545_f491,
            stats: TlbStats::default(),
        }
    }

    /// The configuration this TLB was built with.
    #[must_use]
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Total entry slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.config.entries
    }

    /// Currently valid entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.iter().filter(|slot| slot.is_some()).count()
    }

    /// True when no entries are valid.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn matches(&self, entry: &TlbEntry, vpn: u32, asid: Asid) -> bool {
        if entry.vpn != vpn {
            return false;
        }
        if !self.config.tagged {
            // Untagged: every resident entry belongs to the current context.
            return true;
        }
        match entry.asid {
            None => true, // global mapping
            Some(owner) => owner == asid,
        }
    }

    /// Look up `vpn` in context `asid`, recording a hit or miss.
    pub fn lookup(&mut self, vpn: u32, asid: Asid) -> Option<Pte> {
        let hit = self
            .entries
            .iter()
            .flatten()
            .find(|entry| self.matches(entry, vpn, asid))
            .map(|entry| entry.pte);
        if hit.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Look up without touching statistics (for introspection).
    #[must_use]
    pub fn probe(&self, vpn: u32, asid: Asid) -> Option<TlbEntry> {
        self.entries
            .iter()
            .flatten()
            .find(|entry| self.matches(entry, vpn, asid))
            .copied()
    }

    /// Insert an entry, replacing any existing entry for the same page and
    /// context, else filling a free slot, else evicting per the replacement
    /// policy (never a locked entry).
    ///
    /// Returns the evicted entry, if any.
    pub fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        // Same-page update.
        if let Some(slot) = self.entries.iter_mut().flatten().find(|existing| {
            existing.vpn == entry.vpn && (!self.config.tagged || existing.asid == entry.asid)
        }) {
            let old = *slot;
            *slot = entry;
            return Some(old);
        }
        // Free slot.
        if let Some(slot) = self.entries.iter_mut().find(|slot| slot.is_none()) {
            *slot = Some(entry);
            return None;
        }
        // Eviction.
        let victim = self.pick_victim();
        let old = self.entries[victim].replace(entry);
        if old.is_some() {
            self.stats.replaced += 1;
        }
        old
    }

    fn pick_victim(&mut self) -> usize {
        let n = self.config.entries;
        let unlocked =
            |idx: usize, entries: &[Option<TlbEntry>]| entries[idx].is_none_or(|e| !e.locked);
        match self.config.replacement {
            Replacement::Fifo => {
                for _ in 0..n {
                    let idx = self.next_victim;
                    self.next_victim = (self.next_victim + 1) % n;
                    if unlocked(idx, &self.entries) {
                        return idx;
                    }
                }
                // Everything locked: overwrite slot 0 (callers should never
                // lock every slot; config.lockable bounds this).
                0
            }
            Replacement::PseudoRandom => {
                for _ in 0..4 * n {
                    self.lcg_state = self
                        .lcg_state
                        .wrapping_mul(1_664_525)
                        .wrapping_add(1_013_904_223);
                    let idx = (self.lcg_state >> 16) as usize % n;
                    if unlocked(idx, &self.entries) {
                        return idx;
                    }
                }
                0
            }
        }
    }

    /// Insert a locked entry (SPARC/Cypress "an operating system specified
    /// portion of the 64-entry TLB can be locked").
    ///
    /// Returns `false` when the lockable budget is exhausted.
    pub fn insert_locked(&mut self, mut entry: TlbEntry) -> bool {
        let locked_now = self.entries.iter().flatten().filter(|e| e.locked).count();
        if locked_now >= self.config.lockable {
            return false;
        }
        entry.locked = true;
        self.insert(entry);
        true
    }

    /// Purge every entry (including locked ones — a hard reset). Returns the
    /// number of entries discarded.
    pub fn flush_all(&mut self) -> usize {
        let mut flushed = 0;
        for slot in &mut self.entries {
            if slot.take().is_some() {
                flushed += 1;
            }
        }
        self.stats.flushed += flushed as u64;
        flushed
    }

    /// Purge unlocked entries only — what a context switch on an untagged TLB
    /// performs. Returns the number discarded.
    pub fn flush_unlocked(&mut self) -> usize {
        let mut flushed = 0;
        for slot in &mut self.entries {
            if slot.is_some_and(|e| !e.locked) {
                *slot = None;
                flushed += 1;
            }
        }
        self.stats.flushed += flushed as u64;
        flushed
    }

    /// Purge all entries belonging to `asid`. Returns the number discarded.
    pub fn flush_asid(&mut self, asid: Asid) -> usize {
        let mut flushed = 0;
        for slot in &mut self.entries {
            if slot.and_then(|e| e.asid) == Some(asid) {
                *slot = None;
                flushed += 1;
            }
        }
        self.stats.flushed += flushed as u64;
        flushed
    }

    /// Invalidate the entry for one page in one context, if present ("at most
    /// one entry in a TLB need be invalidated when a page's protection is
    /// changed", Section 3.2). Returns whether an entry was invalidated.
    pub fn flush_page(&mut self, vpn: u32, asid: Asid) -> bool {
        for slot in &mut self.entries {
            let matched = match slot {
                Some(entry) => {
                    entry.vpn == vpn
                        && (!self.config.tagged || entry.asid.is_none() || entry.asid == Some(asid))
                }
                None => false,
            };
            if matched {
                *slot = None;
                self.stats.flushed += 1;
                return true;
            }
        }
        false
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Reset statistics to zero (entries are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagetable::Protection;

    fn entry(vpn: u32, asid: Option<u16>) -> TlbEntry {
        TlbEntry {
            vpn,
            asid: asid.map(Asid),
            pte: Pte::new(vpn + 100, Protection::RW),
            locked: false,
        }
    }

    #[test]
    fn tagged_lookup_respects_asid() {
        let mut tlb = Tlb::new(TlbConfig::tagged(4));
        tlb.insert(entry(1, Some(1)));
        assert!(tlb.lookup(1, Asid(1)).is_some());
        assert!(tlb.lookup(1, Asid(2)).is_none());
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
    }

    #[test]
    fn untagged_lookup_ignores_asid() {
        let mut tlb = Tlb::new(TlbConfig::untagged(4));
        tlb.insert(entry(1, Some(1)));
        assert!(
            tlb.lookup(1, Asid(2)).is_some(),
            "untagged entries match any context"
        );
    }

    #[test]
    fn global_entries_match_any_context_when_tagged() {
        let mut tlb = Tlb::new(TlbConfig::tagged(4));
        tlb.insert(entry(7, None));
        assert!(tlb.lookup(7, Asid(5)).is_some());
    }

    #[test]
    fn insert_updates_existing_page() {
        let mut tlb = Tlb::new(TlbConfig::tagged(4));
        tlb.insert(entry(1, Some(1)));
        let mut updated = entry(1, Some(1));
        updated.pte = Pte::new(999, Protection::READ);
        tlb.insert(updated);
        assert_eq!(tlb.len(), 1);
        assert_eq!(tlb.probe(1, Asid(1)).unwrap().pte.pfn, 999);
    }

    #[test]
    fn fifo_replacement_cycles_through_slots() {
        let mut tlb = Tlb::new(TlbConfig::tagged(2));
        tlb.insert(entry(1, Some(1)));
        tlb.insert(entry(2, Some(1)));
        let evicted = tlb.insert(entry(3, Some(1)));
        assert!(evicted.is_some());
        assert_eq!(tlb.len(), 2);
        assert_eq!(tlb.stats().replaced, 1);
    }

    #[test]
    fn locked_entries_survive_replacement_and_unlocked_flush() {
        let mut tlb = Tlb::new(TlbConfig::tagged_lockable(2, 1));
        assert!(tlb.insert_locked(entry(10, Some(1))));
        tlb.insert(entry(11, Some(1)));
        // Fill pressure: the locked entry must never be the victim.
        for vpn in 12..40 {
            tlb.insert(entry(vpn, Some(1)));
        }
        assert!(tlb.probe(10, Asid(1)).is_some(), "locked entry evicted");
        let flushed = tlb.flush_unlocked();
        assert_eq!(flushed, 1);
        assert!(tlb.probe(10, Asid(1)).is_some());
    }

    #[test]
    fn lockable_budget_is_enforced() {
        let mut tlb = Tlb::new(TlbConfig::tagged_lockable(4, 1));
        assert!(tlb.insert_locked(entry(1, Some(1))));
        assert!(!tlb.insert_locked(entry(2, Some(1))));
    }

    #[test]
    fn flush_asid_removes_only_that_space() {
        let mut tlb = Tlb::new(TlbConfig::tagged(4));
        tlb.insert(entry(1, Some(1)));
        tlb.insert(entry(2, Some(2)));
        assert_eq!(tlb.flush_asid(Asid(1)), 1);
        assert!(tlb.probe(2, Asid(2)).is_some());
    }

    #[test]
    fn flush_page_invalidates_at_most_one_entry() {
        let mut tlb = Tlb::new(TlbConfig::tagged(4));
        tlb.insert(entry(1, Some(1)));
        tlb.insert(entry(1, Some(2)));
        assert!(tlb.flush_page(1, Asid(1)));
        assert!(
            tlb.probe(1, Asid(2)).is_some(),
            "other context's entry must survive"
        );
        assert!(!tlb.flush_page(1, Asid(1)), "already gone");
    }

    #[test]
    fn flush_all_counts_entries() {
        let mut tlb = Tlb::new(TlbConfig::untagged(8));
        for vpn in 0..5 {
            tlb.insert(entry(vpn, None));
        }
        assert_eq!(tlb.flush_all(), 5);
        assert!(tlb.is_empty());
        assert_eq!(tlb.stats().flushed, 5);
    }

    #[test]
    fn pseudo_random_replacement_is_deterministic() {
        let run = || {
            let mut tlb = Tlb::new(TlbConfig {
                entries: 4,
                tagged: true,
                lockable: 0,
                replacement: Replacement::PseudoRandom,
            });
            for vpn in 0..32 {
                tlb.insert(entry(vpn, Some(1)));
            }
            (0..32)
                .filter_map(|vpn| tlb.probe(vpn, Asid(1)).map(|e| e.vpn))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entry_tlb_panics() {
        let _ = Tlb::new(TlbConfig::tagged(0));
    }
}
