//! Resident-set management and page replacement.
//!
//! Section 3: "performance of a virtual memory system is related to the
//! ratio of physical to virtual memory size, the size and organization of
//! the TLB, the cost of servicing a fault, and the page replacement
//! algorithms used." This module supplies the replacement-algorithm leg:
//! a physical-frame pool with FIFO, Clock (second chance) and LRU policies,
//! driven by virtual page references.

use crate::addr::{Asid, VirtAddr};
use std::collections::HashMap;
use std::fmt;

/// Page-replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// Evict in arrival order.
    Fifo,
    /// Second-chance clock: referenced pages get another lap.
    Clock,
    /// Evict the least recently used page (reference-stamp based).
    Lru,
}

impl fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            ReplacementPolicy::Fifo => "FIFO",
            ReplacementPolicy::Clock => "Clock",
            ReplacementPolicy::Lru => "LRU",
        };
        f.write_str(text)
    }
}

/// Outcome of a page reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageRef {
    /// The page was resident.
    Hit,
    /// The page had to be brought in; nothing was evicted (free frame).
    MissFree,
    /// The page replaced the returned victim.
    MissEvicted {
        /// The page pushed out.
        victim: (Asid, u32),
        /// Whether the victim was dirty (costs a write-back).
        dirty: bool,
    },
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    owner: (Asid, u32),
    referenced: bool,
    dirty: bool,
    stamp: u64,
}

/// Fault-service and write-back counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PagerStats {
    /// Resident references.
    pub hits: u64,
    /// Page faults taken.
    pub faults: u64,
    /// Dirty victims written back.
    pub writebacks: u64,
}

impl PagerStats {
    /// Fault rate over all references.
    #[must_use]
    pub fn fault_rate(&self) -> f64 {
        let total = self.hits + self.faults;
        if total == 0 {
            0.0
        } else {
            self.faults as f64 / total as f64
        }
    }
}

/// A fixed pool of physical frames shared by all address spaces, with a
/// pluggable replacement policy.
///
/// # Example
///
/// ```
/// use osarch_mem::{Pager, ReplacementPolicy, Asid, VirtAddr};
///
/// let mut pager = Pager::new(2, ReplacementPolicy::Clock);
/// let asid = Asid(1);
/// pager.reference(asid, VirtAddr(0x1000), false);
/// pager.reference(asid, VirtAddr(0x2000), false);
/// pager.reference(asid, VirtAddr(0x3000), false); // evicts something
/// assert_eq!(pager.stats().faults, 3);
/// assert_eq!(pager.resident(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Pager {
    frames: Vec<Option<Frame>>,
    index: HashMap<(Asid, u32), usize>,
    policy: ReplacementPolicy,
    hand: usize,
    tick: u64,
    stats: PagerStats,
}

impl Pager {
    /// A pager over `frames` physical frames.
    ///
    /// # Panics
    ///
    /// Panics when `frames` is zero.
    #[must_use]
    pub fn new(frames: usize, policy: ReplacementPolicy) -> Pager {
        assert!(frames > 0, "need at least one frame");
        Pager {
            frames: vec![None; frames],
            index: HashMap::new(),
            policy,
            hand: 0,
            tick: 0,
            stats: PagerStats::default(),
        }
    }

    /// Total frames.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Currently resident pages.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.index.len()
    }

    /// Is the page resident?
    #[cfg(test)]
    #[must_use]
    pub fn is_resident(&self, asid: Asid, va: VirtAddr) -> bool {
        self.index.contains_key(&(asid, va.vpn()))
    }

    /// Reference a page (write when `dirty`), faulting it in if needed.
    pub fn reference(&mut self, asid: Asid, va: VirtAddr, dirty: bool) -> PageRef {
        self.tick += 1;
        let key = (asid, va.vpn());
        if let Some(&slot) = self.index.get(&key) {
            let frame = self.frames[slot].as_mut().expect("indexed frame present");
            frame.referenced = true;
            frame.dirty |= dirty;
            frame.stamp = self.tick;
            self.stats.hits += 1;
            return PageRef::Hit;
        }
        self.stats.faults += 1;
        // Free frame?
        if let Some(slot) = self.frames.iter().position(Option::is_none) {
            self.install(slot, key, dirty);
            return PageRef::MissFree;
        }
        let victim_slot = self.pick_victim();
        let victim = self.frames[victim_slot].expect("occupied");
        self.index.remove(&victim.owner);
        if victim.dirty {
            self.stats.writebacks += 1;
        }
        self.install(victim_slot, key, dirty);
        PageRef::MissEvicted {
            victim: victim.owner,
            dirty: victim.dirty,
        }
    }

    fn install(&mut self, slot: usize, key: (Asid, u32), dirty: bool) {
        self.frames[slot] = Some(Frame {
            owner: key,
            referenced: true,
            dirty,
            stamp: self.tick,
        });
        self.index.insert(key, slot);
    }

    fn pick_victim(&mut self) -> usize {
        let n = self.frames.len();
        match self.policy {
            ReplacementPolicy::Fifo => {
                // Oldest stamp among install times: approximate FIFO by the
                // rotating hand (frames are reinstalled in hand order).
                let slot = self.hand;
                self.hand = (self.hand + 1) % n;
                slot
            }
            ReplacementPolicy::Clock => loop {
                let slot = self.hand;
                self.hand = (self.hand + 1) % n;
                let frame = self.frames[slot].as_mut().expect("full pool");
                if frame.referenced {
                    frame.referenced = false;
                } else {
                    return slot;
                }
            },
            ReplacementPolicy::Lru => {
                let (slot, _) = self
                    .frames
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, f)| f.expect("full pool").stamp)
                    .expect("nonempty");
                slot
            }
        }
    }

    /// Evict every page of one address space (process death). Returns the
    /// number of pages released.
    #[cfg(test)]
    pub fn evict_space(&mut self, asid: Asid) -> usize {
        let mut released = 0;
        for slot in 0..self.frames.len() {
            if let Some(frame) = self.frames[slot] {
                if frame.owner.0 == asid {
                    if frame.dirty {
                        self.stats.writebacks += 1;
                    }
                    self.index.remove(&frame.owner);
                    self.frames[slot] = None;
                    released += 1;
                }
            }
        }
        released
    }

    /// The counters so far.
    #[must_use]
    pub fn stats(&self) -> PagerStats {
        self.stats
    }

    /// Reset counters (residency untouched).
    pub fn reset_stats(&mut self) {
        self.stats = PagerStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn touch(pager: &mut Pager, vpn: u32) -> PageRef {
        pager.reference(Asid(1), VirtAddr(vpn << 12), false)
    }

    #[test]
    fn warm_working_set_hits() {
        let mut pager = Pager::new(4, ReplacementPolicy::Clock);
        for vpn in 0..4 {
            touch(&mut pager, vpn);
        }
        for vpn in 0..4 {
            assert_eq!(touch(&mut pager, vpn), PageRef::Hit);
        }
        assert_eq!(pager.stats().faults, 4);
        assert_eq!(pager.stats().hits, 4);
    }

    #[test]
    fn oversubscription_thrashes() {
        let mut pager = Pager::new(4, ReplacementPolicy::Fifo);
        // Cyclic sweep over 8 pages on 4 frames under FIFO: always misses.
        for round in 0..3 {
            for vpn in 0..8 {
                let r = touch(&mut pager, vpn);
                if round > 0 {
                    assert!(!matches!(r, PageRef::Hit), "FIFO cyclic sweep never hits");
                }
            }
        }
        assert!(pager.stats().fault_rate() > 0.99);
    }

    #[test]
    fn clock_gives_second_chances() {
        let mut pager = Pager::new(3, ReplacementPolicy::Clock);
        touch(&mut pager, 0);
        touch(&mut pager, 1);
        touch(&mut pager, 2);
        // This fault sweeps the clock hand, clearing every reference bit.
        touch(&mut pager, 3);
        // Re-reference page 1: its bit is set again.
        assert_eq!(touch(&mut pager, 1), PageRef::Hit);
        // The next fault must spare the re-referenced page 1 and take the
        // unreferenced page 2.
        match touch(&mut pager, 4) {
            PageRef::MissEvicted { victim, .. } => assert_eq!(victim.1, 2),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(pager.is_resident(Asid(1), VirtAddr(1 << 12)));
    }

    #[test]
    fn lru_evicts_the_coldest() {
        let mut pager = Pager::new(3, ReplacementPolicy::Lru);
        touch(&mut pager, 0);
        touch(&mut pager, 1);
        touch(&mut pager, 2);
        touch(&mut pager, 0);
        touch(&mut pager, 1);
        let r = touch(&mut pager, 3);
        match r {
            PageRef::MissEvicted { victim, .. } => assert_eq!(victim.1, 2, "page 2 is coldest"),
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn dirty_victims_cost_writebacks() {
        let mut pager = Pager::new(1, ReplacementPolicy::Fifo);
        pager.reference(Asid(1), VirtAddr(0x1000), true); // dirty
        pager.reference(Asid(1), VirtAddr(0x2000), false); // evicts dirty page
        assert_eq!(pager.stats().writebacks, 1);
        pager.reference(Asid(1), VirtAddr(0x3000), false); // evicts clean page
        assert_eq!(pager.stats().writebacks, 1);
    }

    #[test]
    fn spaces_share_the_frame_pool() {
        let mut pager = Pager::new(2, ReplacementPolicy::Fifo);
        pager.reference(Asid(1), VirtAddr(0x1000), false);
        pager.reference(Asid(2), VirtAddr(0x1000), false); // same VPN, other space
        assert_eq!(pager.resident(), 2, "same vpn in two spaces is two pages");
        assert_eq!(pager.evict_space(Asid(1)), 1);
        assert!(pager.is_resident(Asid(2), VirtAddr(0x1000)));
    }

    #[test]
    fn fault_rate_falls_with_memory_ratio() {
        // The Section 3 relationship: more physical memory, fewer faults.
        let rate = |frames: usize| {
            let mut pager = Pager::new(frames, ReplacementPolicy::Clock);
            // A looping reference pattern over 32 pages with locality.
            for i in 0..4000u32 {
                let vpn = if i % 4 == 0 { i / 40 % 32 } else { i % 8 };
                touch(&mut pager, vpn);
            }
            pager.stats().fault_rate()
        };
        let small = rate(4);
        let medium = rate(12);
        let large = rate(40);
        assert!(small > medium, "{small} vs {medium}");
        assert!(medium > large, "{medium} vs {large}");
        assert!(large < 0.02);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_panics() {
        let _ = Pager::new(0, ReplacementPolicy::Fifo);
    }
}
