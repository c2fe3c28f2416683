//! Translation lookaside buffers.
//!
//! Section 3.2: "Many of the newer RISCs have process ID tags in their TLB
//! entries, which allows the entries to live across context switches. This
//! gives them an advantage over untagged systems such as the VAX." The CVAX
//! TLB must be purged twice per LRPC, costing an estimated 25% of the call.
//! The SPARC/Cypress TLB additionally lets the OS *lock* a range of entries.

use crate::addr::Asid;
use crate::pagetable::Pte;
use osarch_trace::GAMMA;

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
/// A lookup hits the first valid slot, in slot order, whose entry matches;
/// an insert updates the entry for the same page and context, else fills
/// the lowest free slot, else evicts per the replacement policy. To answer
/// without scanning every slot, the TLB keeps a host-side index from each
/// valid entry's `(vpn, tag)` to its slot, and counts of valid and of
/// global entries.
/// That index is bookkeeping of the simulator, not of the machine: the
/// modelled TLB is still fully associative, and the simulated refill and
/// flush costs charged around it do not change.
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
    /// `(vpn, tag)` of every valid entry, packed as `tag << 32 | vpn`, →
    /// its slot. The tag is ASID+1 for a tagged, non-global entry and 0
    /// for a global entry or any entry of an untagged TLB, so it is
    /// exactly the key `insert`'s same-page update matches on, and no two
    /// valid entries share one.
    index: SlotIndex,
    /// Valid entries.
    valid: usize,
    /// Valid global entries: while there are none, a tagged lookup needs
    /// only its own context's key.
    globals: usize,
    /// The page and context of the last `lookup` that missed, until the
    /// next `fill`: no resident entry matches them, so an `insert` of an
    /// entry that would match needs no same-page probe (the refill after a
    /// miss).
    missed: Option<(u32, Asid)>,
    next_victim: usize,
    lcg_state: u32,
    stats: TlbStats,
}

/// An open-addressed map from a packed `(vpn, tag)` key to a slot. The
/// table is a power of two at least eight times the entry count, so it is
/// at most an eighth full: nearly every key sits in its home cell (a
/// Fibonacci hash of the key), and every probe ends at an empty cell.
/// Collisions probe linearly, and a removal shifts later keys of its run
/// back into the hole, so no tombstones build up and a key is always
/// found before the first empty cell after its home.
#[derive(Debug, Clone)]
struct SlotIndex {
    /// `key << SLOT_BITS | slot`, one `u64` a cell: a key is at most 49
    /// bits (a 17-bit tag above a 32-bit page number), which leaves 15 for
    /// the slot. [`SlotIndex::EMPTY`] marks a free cell.
    cells: Vec<u64>,
    /// `64 - log2(cells.len())`: the home cell is the top bits of the
    /// hashed key.
    shift: u32,
}

impl SlotIndex {
    /// Bits of a cell that hold the slot.
    const SLOT_BITS: u32 = 15;
    /// Slots a cell can name: the most entries an indexed TLB may have.
    const MAX_ENTRIES: usize = 1 << SlotIndex::SLOT_BITS;
    const SLOT_MASK: u64 = SlotIndex::MAX_ENTRIES as u64 - 1;
    /// No key reaches it: a tag is at most `u16::MAX + 1`, so the key part
    /// of a filled cell is below `2^49 - 1`.
    const EMPTY: u64 = u64::MAX;

    fn new(entries: usize) -> SlotIndex {
        let len = (8 * entries).next_power_of_two();
        SlotIndex {
            cells: vec![SlotIndex::EMPTY; len],
            shift: 64 - len.trailing_zeros(),
        }
    }

    fn key(cell: u64) -> u64 {
        cell >> SlotIndex::SLOT_BITS
    }

    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(GAMMA) >> self.shift) as usize
    }

    fn next(&self, cell: usize) -> usize {
        (cell + 1) & (self.cells.len() - 1)
    }

    /// The cell holding `key`, else the empty cell that ends its probe.
    fn cell_of(&self, key: u64) -> usize {
        let mut cell = self.home(key);
        while SlotIndex::key(self.cells[cell]) != key && self.cells[cell] != SlotIndex::EMPTY {
            cell = self.next(cell);
        }
        cell
    }

    fn get(&self, key: u64) -> Option<usize> {
        let found = self.cells[self.cell_of(key)];
        (SlotIndex::key(found) == key).then_some((found & SlotIndex::SLOT_MASK) as usize)
    }

    /// Map `key` (absent) to `slot`.
    fn insert(&mut self, key: u64, slot: usize) {
        let cell = self.cell_of(key);
        debug_assert_eq!(self.cells[cell], SlotIndex::EMPTY, "key already indexed");
        self.cells[cell] = key << SlotIndex::SLOT_BITS | slot as u64;
    }

    /// Unmap `key` (present). Each later key of its run whose home is not
    /// between the hole and itself then moves back into the hole, leaving
    /// a new hole where it was; so every key stays reachable from its home
    /// without crossing an empty cell, and none moves ahead of its home.
    fn remove(&mut self, key: u64) {
        let mut hole = self.cell_of(key);
        debug_assert_eq!(SlotIndex::key(self.cells[hole]), key, "key not indexed");
        let mask = self.cells.len() - 1;
        let mut cell = self.next(hole);
        while self.cells[cell] != SlotIndex::EMPTY {
            let home = self.home(SlotIndex::key(self.cells[cell]));
            if cell.wrapping_sub(home) & mask >= cell.wrapping_sub(hole) & mask {
                self.cells[hole] = self.cells[cell];
                hole = cell;
            }
            cell = self.next(cell);
        }
        self.cells[hole] = SlotIndex::EMPTY;
    }
}

impl Tlb {
    /// An empty TLB with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.entries` is zero or above 32,768 (the index names a
    /// slot in 15 bits), or if `config.lockable > config.entries`.
    #[must_use]
    pub fn new(config: TlbConfig) -> Tlb {
        assert!(config.entries > 0, "a TLB must have at least one entry");
        assert!(
            config.entries <= SlotIndex::MAX_ENTRIES,
            "a TLB may have at most 32,768 entries"
        );
        assert!(
            config.lockable <= config.entries,
            "cannot lock more slots than exist"
        );
        Tlb {
            config,
            entries: vec![None; config.entries],
            index: SlotIndex::new(config.entries),
            valid: 0,
            globals: 0,
            missed: None,
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
        self.valid
    }

    /// True when no entries are valid.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.valid == 0
    }

    /// The index key of a `vpn` owned by `asid` (`None`: global).
    fn key(&self, vpn: u32, asid: Option<Asid>) -> u64 {
        let tag = match asid {
            Some(Asid(owner)) if self.config.tagged => u64::from(owner) + 1,
            _ => 0,
        };
        tag << 32 | u64::from(vpn)
    }

    /// The first slot, in slot order, whose entry matches `vpn` in context
    /// `asid`: on a tagged TLB the lower of the context's own entry and
    /// the global one; on an untagged TLB the one entry for the page.
    fn find(&self, vpn: u32, asid: Asid) -> Option<usize> {
        if !self.config.tagged {
            return self.index.get(self.key(vpn, None));
        }
        let own = self.index.get(self.key(vpn, Some(asid)));
        if self.globals == 0 {
            return own;
        }
        let global = self.index.get(self.key(vpn, None));
        own.into_iter().chain(global).min()
    }

    /// Put `entry` in `slot`, returning what the slot held.
    fn fill(&mut self, slot: usize, entry: TlbEntry) -> Option<TlbEntry> {
        self.missed = None;
        let old = self.clear(slot);
        self.index.insert(self.key(entry.vpn, entry.asid), slot);
        self.entries[slot] = Some(entry);
        self.valid += 1;
        self.globals += usize::from(entry.asid.is_none());
        old
    }

    /// Empty `slot`, returning what it held.
    fn clear(&mut self, slot: usize) -> Option<TlbEntry> {
        let old = self.entries[slot].take()?;
        self.index.remove(self.key(old.vpn, old.asid));
        self.valid -= 1;
        self.globals -= usize::from(old.asid.is_none());
        Some(old)
    }

    /// Look up `vpn` in context `asid`, recording a hit or miss.
    #[inline]
    pub fn lookup(&mut self, vpn: u32, asid: Asid) -> Option<Pte> {
        let hit = self.probe(vpn, asid).map(|entry| entry.pte);
        if hit.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            self.missed = Some((vpn, asid));
        }
        hit
    }

    /// Look up without touching statistics (for introspection).
    #[must_use]
    #[inline]
    pub fn probe(&self, vpn: u32, asid: Asid) -> Option<TlbEntry> {
        self.find(vpn, asid).and_then(|slot| self.entries[slot])
    }

    /// Insert an entry, replacing any existing entry for the same page and
    /// context, else filling the lowest free slot, else evicting per the
    /// replacement policy (never a locked entry).
    ///
    /// Returns the evicted entry, if any.
    pub fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        // Same-page update, unless the last lookup missed on a page and
        // context this entry would match: then no entry shares its key.
        let refill = self.missed.is_some_and(|(vpn, asid)| {
            vpn == entry.vpn && (!self.config.tagged || entry.asid.is_none_or(|own| own == asid))
        });
        if !refill {
            if let Some(slot) = self.index.get(self.key(entry.vpn, entry.asid)) {
                return self.fill(slot, entry);
            }
        }
        // Free slot.
        if self.valid < self.config.entries {
            let slot = self
                .entries
                .iter()
                .position(Option::is_none)
                .expect("fewer valid entries than slots leaves a slot free");
            return self.fill(slot, entry);
        }
        // Eviction.
        let victim = self.pick_victim();
        let old = self.fill(victim, entry);
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

    /// Purge every entry `doomed` picks, counting them as flushed. Returns
    /// the number discarded.
    fn flush_where(&mut self, doomed: impl Fn(&TlbEntry) -> bool) -> usize {
        let mut flushed = 0;
        for slot in 0..self.entries.len() {
            if self.entries[slot].as_ref().is_some_and(&doomed) {
                self.clear(slot);
                flushed += 1;
            }
        }
        self.stats.flushed += flushed as u64;
        flushed
    }

    /// Purge every entry (including locked ones — a hard reset). Returns the
    /// number of entries discarded.
    pub fn flush_all(&mut self) -> usize {
        self.flush_where(|_| true)
    }

    /// Purge unlocked entries only — what a context switch on an untagged TLB
    /// performs. Returns the number discarded.
    pub fn flush_unlocked(&mut self) -> usize {
        self.flush_where(|entry| !entry.locked)
    }

    /// Purge all entries belonging to `asid`. Returns the number discarded.
    pub fn flush_asid(&mut self, asid: Asid) -> usize {
        self.flush_where(|entry| entry.asid == Some(asid))
    }

    /// Invalidate the entry for one page in one context, if present ("at most
    /// one entry in a TLB need be invalidated when a page's protection is
    /// changed", Section 3.2). Returns whether an entry was invalidated.
    pub fn flush_page(&mut self, vpn: u32, asid: Asid) -> bool {
        let Some(slot) = self.find(vpn, asid) else {
            return false;
        };
        self.clear(slot);
        self.stats.flushed += 1;
        true
    }

    /// Whether this TLB holds what `other` holds: the same configuration,
    /// the same entry in every slot, the same FIFO pointer and the same
    /// LCG state. Two such TLBs answer every later sequence of calls
    /// alike, so a caller that finds a TLB back in an earlier state may
    /// reuse what followed it.
    ///
    /// Nothing else is compared, because nothing else changes a later
    /// answer. The index maps each valid entry's key to its slot, so what
    /// it says is fixed by the slots; only its cell layout depends on the
    /// order of past inserts and removals, and a lookup finds a key
    /// wherever its run put it. The valid and global counts count the
    /// slots. The remembered miss only lets a refill skip a same-page
    /// probe that would find nothing. The statistics are written, never
    /// read by an answer.
    #[must_use]
    pub fn same_contents(&self, other: &Tlb) -> bool {
        self.config == other.config
            && self.entries == other.entries
            && self.next_victim == other.next_victim
            && self.lcg_state == other.lcg_state
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

    /// Two pages of context 1 whose keys share a home cell in a 4-entry
    /// TLB's index.
    fn colliding_pages() -> (u32, u32) {
        let tlb = Tlb::new(TlbConfig::tagged(4));
        let home = |vpn| tlb.index.home(tlb.key(vpn, Some(Asid(1))));
        (0..64)
            .flat_map(|a| (a + 1..64).map(move |b| (a, b)))
            .find(|&(a, b)| home(a) == home(b))
            .expect("32 cells cannot hold 64 keys apart")
    }

    #[test]
    fn same_contents_ignores_the_index_layout_stats_and_remembered_miss() {
        let (a, b) = colliding_pages();
        // Slot 0 holds `a` and slot 1 holds `b` in both, but `a` was
        // indexed first in one and `b` in the other, so each sits in the
        // shared home cell of one TLB and one cell on in the other's.
        let mut direct = Tlb::new(TlbConfig::tagged(4));
        direct.insert(entry(a, Some(1)));
        direct.insert(entry(b, Some(1)));
        let mut detour = Tlb::new(TlbConfig::tagged(4));
        detour.insert(entry(99, Some(1)));
        detour.insert(entry(b, Some(1)));
        assert!(detour.flush_page(99, Asid(1)));
        detour.insert(entry(a, Some(1)));
        assert_ne!(direct.index.cells, detour.index.cells);
        assert_ne!(direct.stats(), detour.stats());
        assert!(detour.lookup(1000, Asid(1)).is_none());
        assert_eq!(
            (direct.missed, detour.missed),
            (None, Some((1000, Asid(1))))
        );
        assert!(direct.same_contents(&detour) && detour.same_contents(&direct));
        // Alike from here on: the same victims, whatever the layout.
        for vpn in 100..110 {
            assert_eq!(
                direct.insert(entry(vpn, Some(1))),
                detour.insert(entry(vpn, Some(1)))
            );
        }
        assert!(direct.same_contents(&detour));
    }

    #[test]
    fn same_contents_compares_the_fifo_pointer() {
        // Both hold 3 in slot 0 and 2 in slot 1; one got there by an
        // eviction, which moved its FIFO pointer to slot 1.
        let mut evicted = Tlb::new(TlbConfig::tagged(2));
        for vpn in [1, 2, 3] {
            evicted.insert(entry(vpn, Some(1)));
        }
        let mut filled = Tlb::new(TlbConfig::tagged(2));
        for vpn in [3, 2] {
            filled.insert(entry(vpn, Some(1)));
        }
        assert_eq!(evicted.entries, filled.entries);
        assert!(!evicted.same_contents(&filled));
        // And the two evict different slots next.
        assert_ne!(
            evicted.insert(entry(4, Some(1))),
            filled.insert(entry(4, Some(1)))
        );
    }

    #[test]
    fn same_contents_compares_the_lcg_state() {
        let random = TlbConfig {
            replacement: Replacement::PseudoRandom,
            ..TlbConfig::tagged(2)
        };
        let mut evicted = Tlb::new(random);
        for vpn in [1, 2, 3] {
            evicted.insert(entry(vpn, Some(1)));
        }
        // The same slots, filled in slot order without an eviction.
        let mut filled = Tlb::new(random);
        for slot in evicted.entries.iter().flatten() {
            filled.insert(*slot);
        }
        assert_eq!(evicted.entries, filled.entries);
        assert_eq!(evicted.next_victim, filled.next_victim);
        assert!(!evicted.same_contents(&filled));
        // A FIFO TLB with the same slots differs by its configuration.
        let mut fifo = Tlb::new(TlbConfig::tagged(2));
        for slot in filled.entries.iter().flatten() {
            fifo.insert(*slot);
        }
        assert!(!fifo.same_contents(&filled));
        assert!(filled.clone().same_contents(&filled));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entry_tlb_panics() {
        let _ = Tlb::new(TlbConfig::tagged(0));
    }

    #[test]
    #[should_panic(expected = "at most 32,768 entries")]
    fn oversized_tlb_panics() {
        let _ = Tlb::new(TlbConfig::tagged(32_769));
    }

    #[test]
    fn index_cells_are_one_word_and_name_the_last_slot() {
        let mut tlb = Tlb::new(TlbConfig::tagged(SlotIndex::MAX_ENTRIES));
        assert_eq!(std::mem::size_of_val(&tlb.index.cells[0]), 8);
        assert_eq!(tlb.index.cells.len(), 8 * SlotIndex::MAX_ENTRIES);
        // The largest key (tag u16::MAX + 1, page u32::MAX) in the last slot.
        let last = SlotIndex::MAX_ENTRIES - 1;
        let key = tlb.key(u32::MAX, Some(Asid(u16::MAX)));
        assert!(key < 1 << 49);
        tlb.index.insert(key, last);
        assert_eq!(tlb.index.get(key), Some(last));
        tlb.index.remove(key);
        assert_eq!(tlb.index.get(key), None);
        assert_eq!(Tlb::new(TlbConfig::tagged(64)).index.cells.len() * 8, 4096);
    }
}
