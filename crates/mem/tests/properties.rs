//! Property-based tests for the memory-hierarchy substrate.

use osarch_mem::{
    AccessKind, Addressing, Asid, Cache, CacheConfig, CacheOutcome, CacheStats, LinearPageTable,
    MultiLevelPageTable, PageTable, Protection, Pte, Replacement, SoftwarePageTable, Tlb,
    TlbConfig, TlbEntry, TlbStats, VirtAddr, WriteBuffer, WriteBufferConfig, WritePolicy,
    PAGE_SIZE, SPARC_LEVEL_FANOUT,
};
use proptest::prelude::*;

/// The tag store as it was before the flat set-major layout: one `Vec` of
/// ways per set, with the same lookup, allocation, victim and flush logic.
/// `flat_cache_matches_the_nested_oracle` checks [`Cache`] against it.
mod nested {
    use super::{
        AccessKind, Addressing, Asid, CacheConfig, CacheOutcome, CacheStats, WritePolicy, PAGE_SIZE,
    };

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Line {
        tag: u32,
        asid: Option<Asid>,
        dirty: bool,
    }

    pub struct NestedCache {
        config: CacheConfig,
        sets: Vec<Vec<Option<Line>>>,
        victim: Vec<usize>,
        stats: CacheStats,
    }

    impl NestedCache {
        pub fn new(config: CacheConfig) -> NestedCache {
            let sets = config.sets() as usize;
            NestedCache {
                config,
                sets: vec![vec![None; config.assoc as usize]; sets],
                victim: vec![0; sets],
                stats: CacheStats::default(),
            }
        }

        fn index_and_tag(&self, addr: u32) -> (usize, u32) {
            let line_addr = addr / self.config.line_bytes;
            let set = (line_addr % self.config.sets()) as usize;
            let tag = line_addr / self.config.sets();
            (set, tag)
        }

        fn effective_asid(&self, asid: Asid) -> Option<Asid> {
            match (self.config.addressing, self.config.tagged) {
                (Addressing::Virtual, true) => Some(asid),
                _ => None,
            }
        }

        pub fn access(&mut self, addr: u32, asid: Asid, kind: AccessKind) -> CacheOutcome {
            let (set, tag) = self.index_and_tag(addr);
            let ctx = self.effective_asid(asid);
            let ways = &mut self.sets[set];
            let hit_way = ways
                .iter()
                .position(|line| matches!(line, Some(l) if l.tag == tag && l.asid == ctx));
            let write = matches!(kind, AccessKind::Write);
            match hit_way {
                Some(way) => {
                    if write {
                        self.stats.write_hits += 1;
                        if self.config.write_policy == WritePolicy::Back {
                            if let Some(line) = &mut ways[way] {
                                line.dirty = true;
                            }
                        }
                    } else {
                        self.stats.read_hits += 1;
                    }
                    CacheOutcome {
                        hit: true,
                        extra_cycles: 0,
                    }
                }
                None => {
                    let penalty = if write {
                        self.stats.write_misses += 1;
                        self.config.write_miss_penalty
                    } else {
                        self.stats.read_misses += 1;
                        self.config.read_miss_penalty
                    };
                    let allocate = !write || self.config.write_policy == WritePolicy::Back;
                    if allocate {
                        let way = match ways.iter().position(Option::is_none) {
                            Some(free) => free,
                            None => {
                                let victim = self.victim[set];
                                self.victim[set] = (victim + 1) % self.config.assoc as usize;
                                victim
                            }
                        };
                        ways[way] = Some(Line {
                            tag,
                            asid: ctx,
                            dirty: write,
                        });
                    }
                    CacheOutcome {
                        hit: false,
                        extra_cycles: penalty,
                    }
                }
            }
        }

        pub fn warm(&mut self, addr: u32, asid: Asid) {
            let (set, tag) = self.index_and_tag(addr);
            let ctx = self.effective_asid(asid);
            let ways = &mut self.sets[set];
            if ways
                .iter()
                .any(|line| matches!(line, Some(l) if l.tag == tag && l.asid == ctx))
            {
                return;
            }
            let way = ways.iter().position(Option::is_none).unwrap_or(0);
            ways[way] = Some(Line {
                tag,
                asid: ctx,
                dirty: false,
            });
        }

        pub fn flush_all(&mut self) -> u32 {
            let mut flushed = 0u64;
            for set in &mut self.sets {
                for line in set.iter_mut() {
                    if line.take().is_some() {
                        flushed += 1;
                    }
                }
            }
            self.stats.lines_flushed += flushed;
            let cycles = self.config.lines() * self.config.flush_cycles_per_line;
            self.stats.flush_cycles += u64::from(cycles);
            cycles
        }

        pub fn flush_page(&mut self, page_addr: u32, asid: Asid) -> (u32, u32) {
            if self.config.addressing == Addressing::Physical {
                return (0, 0);
            }
            let page_base = page_addr & !(PAGE_SIZE - 1);
            let ctx = self.effective_asid(asid);
            let mut flushed = 0u64;
            for (set_idx, set) in self.sets.iter_mut().enumerate() {
                for line in set.iter_mut() {
                    if let Some(l) = line {
                        let line_addr =
                            (l.tag * self.config.sets() + set_idx as u32) * self.config.line_bytes;
                        if line_addr & !(PAGE_SIZE - 1) == page_base && l.asid == ctx {
                            *line = None;
                            flushed += 1;
                        }
                    }
                }
            }
            self.stats.lines_flushed += flushed;
            let examined = self.config.lines();
            let cycles = examined * self.config.flush_cycles_per_line;
            self.stats.flush_cycles += u64::from(cycles);
            (examined, cycles)
        }

        pub fn len(&self) -> usize {
            self.sets
                .iter()
                .flatten()
                .filter(|line| line.is_some())
                .count()
        }

        pub fn stats(&self) -> CacheStats {
            self.stats
        }
    }
}

/// The TLB as it was before the slot index: `lookup`, `probe`, `insert`,
/// `flush_page` and `len` scan every slot in order, with the same victim
/// choice. `indexed_tlb_matches_the_scanning_oracle` checks [`Tlb`] against
/// it.
mod scan {
    use super::{Asid, Pte, Replacement, TlbConfig, TlbEntry, TlbStats};

    pub struct ScanTlb {
        config: TlbConfig,
        entries: Vec<Option<TlbEntry>>,
        next_victim: usize,
        lcg_state: u32,
        stats: TlbStats,
    }

    impl ScanTlb {
        pub fn new(config: TlbConfig) -> ScanTlb {
            ScanTlb {
                config,
                entries: vec![None; config.entries],
                next_victim: 0,
                lcg_state: 0x2545_f491,
                stats: TlbStats::default(),
            }
        }

        pub fn len(&self) -> usize {
            self.entries.iter().filter(|slot| slot.is_some()).count()
        }

        fn matches(&self, entry: &TlbEntry, vpn: u32, asid: Asid) -> bool {
            entry.vpn == vpn
                && (!self.config.tagged || entry.asid.is_none() || entry.asid == Some(asid))
        }

        pub fn lookup(&mut self, vpn: u32, asid: Asid) -> Option<Pte> {
            let hit = self.probe(vpn, asid).map(|entry| entry.pte);
            if hit.is_some() {
                self.stats.hits += 1;
            } else {
                self.stats.misses += 1;
            }
            hit
        }

        pub fn probe(&self, vpn: u32, asid: Asid) -> Option<TlbEntry> {
            self.entries
                .iter()
                .flatten()
                .find(|entry| self.matches(entry, vpn, asid))
                .copied()
        }

        pub fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
            if let Some(slot) = self.entries.iter_mut().flatten().find(|existing| {
                existing.vpn == entry.vpn && (!self.config.tagged || existing.asid == entry.asid)
            }) {
                let old = *slot;
                *slot = entry;
                return Some(old);
            }
            if let Some(slot) = self.entries.iter_mut().find(|slot| slot.is_none()) {
                *slot = Some(entry);
                return None;
            }
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

        pub fn insert_locked(&mut self, mut entry: TlbEntry) -> bool {
            let locked_now = self.entries.iter().flatten().filter(|e| e.locked).count();
            if locked_now >= self.config.lockable {
                return false;
            }
            entry.locked = true;
            self.insert(entry);
            true
        }

        fn flush_where(&mut self, doomed: impl Fn(&TlbEntry) -> bool) -> usize {
            let mut flushed = 0;
            for slot in &mut self.entries {
                if slot.as_ref().is_some_and(&doomed) {
                    *slot = None;
                    flushed += 1;
                }
            }
            self.stats.flushed += flushed as u64;
            flushed
        }

        pub fn flush_all(&mut self) -> usize {
            self.flush_where(|_| true)
        }

        pub fn flush_unlocked(&mut self) -> usize {
            self.flush_where(|entry| !entry.locked)
        }

        pub fn flush_asid(&mut self, asid: Asid) -> usize {
            self.flush_where(|entry| entry.asid == Some(asid))
        }

        pub fn flush_page(&mut self, vpn: u32, asid: Asid) -> bool {
            for slot in &mut self.entries {
                let matched = match slot {
                    Some(entry) => {
                        entry.vpn == vpn
                            && (!self.config.tagged
                                || entry.asid.is_none()
                                || entry.asid == Some(asid))
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

        pub fn stats(&self) -> TlbStats {
            self.stats
        }
    }
}

/// The three-level table as it was before each level held only its present
/// entries: a 256-entry root and 64-entry tables of `Option<Node>`, with the
/// same replace rule and walk, and an unmap that leaves emptied tables in
/// place. `sparse_three_level_table_matches_the_dense_oracle` checks
/// [`MultiLevelPageTable`] against it. Its running count of mapped pages
/// added one for every region mapped over others, so it counts terminal
/// entries by walking its tree instead.
mod dense {
    use super::{Protection, Pte, VirtAddr, SPARC_LEVEL_FANOUT};

    const LEVEL_SHIFT: [u32; 3] = [24, 18, 12];

    #[derive(Debug, Clone)]
    enum Node {
        Table(Vec<Option<Node>>),
        Leaf(Pte),
    }

    impl Node {
        fn leaves(&self) -> usize {
            match self {
                Node::Table(entries) => entries.iter().flatten().map(Node::leaves).sum(),
                Node::Leaf(_) => 1,
            }
        }

        /// Tables at or below this node that lead to a terminal entry.
        fn live_tables(&self) -> usize {
            match self {
                Node::Table(entries) if self.leaves() > 0 => {
                    1 + entries
                        .iter()
                        .flatten()
                        .map(Node::live_tables)
                        .sum::<usize>()
                }
                _ => 0,
            }
        }
    }

    pub struct DenseTable {
        root: Vec<Option<Node>>,
    }

    impl DenseTable {
        pub fn new() -> DenseTable {
            DenseTable {
                root: vec![None; SPARC_LEVEL_FANOUT[0]],
            }
        }

        fn indices(va: VirtAddr) -> [usize; 3] {
            let raw = va.0;
            [
                (raw >> LEVEL_SHIFT[0]) as usize % SPARC_LEVEL_FANOUT[0],
                (raw >> LEVEL_SHIFT[1]) as usize % SPARC_LEVEL_FANOUT[1],
                (raw >> LEVEL_SHIFT[2]) as usize % SPARC_LEVEL_FANOUT[2],
            ]
        }

        pub fn map_region(&mut self, va: VirtAddr, pte: Pte, level: usize) {
            let idx = Self::indices(va);
            let slot0 = &mut self.root[idx[0]];
            if level == 0 {
                *slot0 = Some(Node::Leaf(pte));
                return;
            }
            if !matches!(slot0, Some(Node::Table(_))) {
                *slot0 = Some(Node::Table(vec![None; SPARC_LEVEL_FANOUT[1]]));
            }
            let Some(Node::Table(table1)) = slot0 else {
                unreachable!()
            };
            let slot1 = &mut table1[idx[1]];
            if level == 1 {
                *slot1 = Some(Node::Leaf(pte));
                return;
            }
            if !matches!(slot1, Some(Node::Table(_))) {
                *slot1 = Some(Node::Table(vec![None; SPARC_LEVEL_FANOUT[2]]));
            }
            let Some(Node::Table(table2)) = slot1 else {
                unreachable!()
            };
            table2[idx[2]] = Some(Node::Leaf(pte));
        }

        pub fn walk_depth(&self, va: VirtAddr) -> Option<u32> {
            let idx = Self::indices(va);
            match self.root[idx[0]].as_ref()? {
                Node::Leaf(_) => Some(1),
                Node::Table(t1) => match t1[idx[1]].as_ref()? {
                    Node::Leaf(_) => Some(2),
                    Node::Table(t2) => match t2[idx[2]].as_ref()? {
                        Node::Leaf(_) => Some(3),
                        Node::Table(_) => None,
                    },
                },
            }
        }

        fn leaf_mut(&mut self, va: VirtAddr) -> Option<&mut Pte> {
            let idx = Self::indices(va);
            match self.root[idx[0]].as_mut()? {
                Node::Leaf(pte) => Some(pte),
                Node::Table(t1) => match t1[idx[1]].as_mut()? {
                    Node::Leaf(pte) => Some(pte),
                    Node::Table(t2) => match t2[idx[2]].as_mut()? {
                        Node::Leaf(pte) => Some(pte),
                        Node::Table(_) => None,
                    },
                },
            }
        }

        pub fn translate(&self, va: VirtAddr) -> Option<Pte> {
            let idx = Self::indices(va);
            let pte = match self.root[idx[0]].as_ref()? {
                Node::Leaf(pte) => *pte,
                Node::Table(t1) => match t1[idx[1]].as_ref()? {
                    Node::Leaf(pte) => *pte,
                    Node::Table(t2) => match t2[idx[2]].as_ref()? {
                        Node::Leaf(pte) => *pte,
                        Node::Table(_) => return None,
                    },
                },
            };
            pte.valid.then_some(pte)
        }

        pub fn unmap(&mut self, va: VirtAddr) -> Option<Pte> {
            let idx = Self::indices(va);
            match self.root[idx[0]].as_mut()? {
                Node::Leaf(pte) => {
                    let old = *pte;
                    self.root[idx[0]] = None;
                    Some(old)
                }
                Node::Table(t1) => match t1[idx[1]].as_mut()? {
                    Node::Leaf(pte) => {
                        let old = *pte;
                        t1[idx[1]] = None;
                        Some(old)
                    }
                    Node::Table(t2) => match t2[idx[2]].take()? {
                        Node::Leaf(pte) => Some(pte),
                        Node::Table(_) => None,
                    },
                },
            }
        }

        pub fn protect(&mut self, va: VirtAddr, prot: Protection) -> bool {
            match self.leaf_mut(va) {
                Some(pte) => {
                    *pte = pte.with_prot(prot);
                    true
                }
                None => false,
            }
        }

        pub fn walk_mem_refs(&self, va: VirtAddr) -> u32 {
            self.walk_depth(va).unwrap_or(3)
        }

        /// Terminal entries, counted by walking the tree.
        pub fn leaves(&self) -> usize {
            self.root.iter().flatten().map(Node::leaves).sum()
        }

        /// Tables below the root that lead to a terminal entry: the tables
        /// left once every emptied one is dropped.
        pub fn live_tables(&self) -> usize {
            self.root.iter().flatten().map(Node::live_tables).sum()
        }
    }
}

/// A cache geometry from its parts: `sets` sets of `assoc` ways of
/// `line_bytes`, with physical (0), tagged-virtual (1) or untagged-virtual
/// (2) addressing.
fn geometry(
    assoc: u32,
    sets: u32,
    line_bytes: u32,
    addressing: u8,
    write_back: bool,
    penalties: (u32, u32, u32),
) -> CacheConfig {
    CacheConfig {
        size_bytes: sets * assoc * line_bytes,
        line_bytes,
        assoc,
        addressing: if addressing == 0 {
            Addressing::Physical
        } else {
            Addressing::Virtual
        },
        write_policy: if write_back {
            WritePolicy::Back
        } else {
            WritePolicy::Through
        },
        read_miss_penalty: penalties.0,
        write_miss_penalty: penalties.1,
        tagged: addressing == 1,
        flush_cycles_per_line: penalties.2,
    }
}

fn arb_prot() -> impl Strategy<Value = Protection> {
    prop_oneof![
        Just(Protection::READ),
        Just(Protection::WRITE),
        Just(Protection::RW),
        Just(Protection::RX),
        Just(Protection::RWX),
    ]
}

proptest! {
    /// Every page table: map then translate returns the mapped PTE for any
    /// address on the same page.
    #[test]
    fn map_translate_roundtrip(vpn in 0u32..0x000f_ffff, offset in 0u32..4096, pfn in 0u32..1_000_000, prot in arb_prot()) {
        let va = VirtAddr((vpn << 12) | offset);
        let pte = Pte::new(pfn, prot);
        let tables: Vec<Box<dyn PageTable>> = vec![
            Box::new(LinearPageTable::new(0, false)),
            Box::new(MultiLevelPageTable::new()),
            Box::new(SoftwarePageTable::new()),
        ];
        for mut table in tables {
            table.map(va, pte);
            let got = table.translate(VirtAddr(vpn << 12)).expect("mapped page must translate");
            prop_assert_eq!(got.pfn, pfn);
            prop_assert_eq!(got.prot, prot);
            prop_assert_eq!(table.mapped_pages(), 1);
        }
    }

    /// Unmap always erases exactly the mapped page and nothing else.
    #[test]
    fn unmap_erases_only_target(vpns in proptest::collection::btree_set(0u32..4096, 2..20)) {
        let mut table = SoftwarePageTable::new();
        let vpns: Vec<u32> = vpns.into_iter().collect();
        for &vpn in &vpns {
            table.map(VirtAddr(vpn << 12), Pte::new(vpn, Protection::RW));
        }
        let victim = vpns[0];
        table.unmap(VirtAddr(victim << 12));
        prop_assert!(table.translate(VirtAddr(victim << 12)).is_none());
        for &vpn in &vpns[1..] {
            prop_assert!(table.translate(VirtAddr(vpn << 12)).is_some());
        }
    }

    /// TLB occupancy never exceeds capacity, and inserted pages are findable
    /// until evicted.
    #[test]
    fn tlb_never_overflows(entries in 1usize..64, inserts in proptest::collection::vec((0u32..512, 0u16..4), 1..200)) {
        let mut tlb = Tlb::new(TlbConfig::tagged(entries));
        for (vpn, asid) in inserts {
            tlb.insert(TlbEntry { vpn, asid: Some(Asid(asid)), pte: Pte::new(vpn, Protection::RW), locked: false });
            prop_assert!(tlb.len() <= tlb.capacity());
        }
    }

    /// A TLB lookup that hits always returns what was most recently inserted
    /// for that (vpn, asid).
    #[test]
    fn tlb_hit_returns_latest(vpn in 0u32..64, pfns in proptest::collection::vec(0u32..10_000, 1..10)) {
        let mut tlb = Tlb::new(TlbConfig::tagged(8));
        for &pfn in &pfns {
            tlb.insert(TlbEntry { vpn, asid: Some(Asid(1)), pte: Pte::new(pfn, Protection::RW), locked: false });
        }
        let got = tlb.lookup(vpn, Asid(1)).expect("present");
        prop_assert_eq!(got.pfn, *pfns.last().unwrap());
    }

    /// Flushing an ASID removes all and only that ASID's entries: it
    /// reports as many as `probe` found resident, `len` falls by that many,
    /// and every other space's resident entry still probes.
    #[test]
    fn tlb_flush_asid_is_exact(pairs in proptest::collection::vec((0u32..256, 0u16..3), 1..32)) {
        let mut tlb = Tlb::new(TlbConfig::tagged(64));
        for &(vpn, asid) in &pairs {
            tlb.insert(TlbEntry { vpn, asid: Some(Asid(asid)), pte: Pte::new(vpn, Protection::RW), locked: false });
        }
        let keys: std::collections::BTreeSet<(u32, u16)> = pairs.into_iter().collect();
        let resident: Vec<(u32, u16)> = keys
            .into_iter()
            .filter(|&(vpn, asid)| tlb.probe(vpn, Asid(asid)).is_some())
            .collect();
        let own = resident.iter().filter(|&&(_, asid)| asid == 0).count();
        let len = tlb.len();
        prop_assert_eq!(tlb.flush_asid(Asid(0)), own);
        prop_assert_eq!(tlb.len(), len - own);
        for &(vpn, asid) in &resident {
            prop_assert_eq!(tlb.probe(vpn, Asid(asid)).is_some(), asid != 0);
        }
    }

    /// The cache never holds two lines with the same (set, tag, asid).
    #[test]
    fn cache_no_duplicate_tags(addrs in proptest::collection::vec(0u32..0x10_0000, 1..200)) {
        let mut cache = Cache::new(CacheConfig::physical(4096, 16, WritePolicy::Through, 10));
        for addr in addrs {
            cache.access(addr, Asid(0), AccessKind::Read);
        }
        // Re-access any line: hits must be stable (a duplicate would make
        // occupancy exceed capacity).
        prop_assert!(cache.len() <= (4096 / 16) as usize);
    }

    /// Accessing the same address twice in a row always hits the second time
    /// (for a read-allocating configuration).
    #[test]
    fn cache_second_access_hits(addr in 0u32..0x100_0000) {
        let mut cache = Cache::new(CacheConfig::physical(8192, 16, WritePolicy::Back, 10));
        cache.access(addr, Asid(0), AccessKind::Read);
        let second = cache.access(addr, Asid(0), AccessKind::Read);
        prop_assert!(second.hit);
    }

    /// Write-buffer stall accounting is non-negative and bursts of stores to
    /// one page on a page-mode buffer never stall.
    #[test]
    fn writebuffer_page_mode_never_stalls_same_page(count in 1usize..200) {
        let mut wb = WriteBuffer::new(WriteBufferConfig::decstation_5000());
        for (now, i) in (0..count).enumerate() {
            let stall = wb.store(now as u64, 0x3000 + (i as u32 % 64) * 4);
            prop_assert_eq!(stall, 0);
        }
    }

    /// Total stall cycles are monotone in burst length for the 3100 buffer.
    #[test]
    fn writebuffer_stalls_monotone(len_a in 1usize..60, len_b in 1usize..60) {
        let run = |n: usize| {
            let mut wb = WriteBuffer::new(WriteBufferConfig::decstation_3100());
            let mut now = 0u64;
            for i in 0..n {
                let s = wb.store(now, i as u32 * 4);
                now += 1 + u64::from(s);
            }
            wb.total_stall_cycles()
        };
        let (short, long) = if len_a <= len_b { (len_a, len_b) } else { (len_b, len_a) };
        prop_assert!(run(short) <= run(long));
    }

    /// Protection display never panics and always renders three characters.
    #[test]
    fn protection_display_total(prot in arb_prot()) {
        prop_assert_eq!(format!("{prot}").len(), 3);
    }
}

// The flat cache, the sparse linear and three-level tables and the indexed
// TLB against reference implementations: cheap enough to explore many more
// cases than the block above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After any map/unmap/protect sequence the linear table translates and
    /// counts exactly as the software table does, and its VAX array length
    /// is one past the highest slot ever mapped, whatever was unmapped since.
    #[test]
    fn linear_table_answers_like_the_software_table(
        vpns in proptest::collection::vec(0u32..0x000f_ffff, 12..13),
        ops in proptest::collection::vec((0u8..3, 0usize..12, 0u32..1_000_000, arb_prot(), any::<bool>()), 1..160),
    ) {
        let mut linear = LinearPageTable::new(0, false);
        let mut reference = SoftwarePageTable::new();
        let mut words = 0usize;
        for (kind, pick, pfn, prot, valid) in ops {
            let va = VirtAddr(vpns[pick] << 12);
            match kind {
                0 => {
                    let pte = Pte { valid, ..Pte::new(pfn, prot) };
                    linear.map(va, pte);
                    reference.map(va, pte);
                    words = words.max(vpns[pick] as usize + 1);
                }
                1 => prop_assert_eq!(linear.unmap(va), reference.unmap(va)),
                _ => prop_assert_eq!(linear.protect(va, prot), reference.protect(va, prot)),
            }
            prop_assert_eq!(linear.mapped_pages(), reference.mapped_pages());
            prop_assert_eq!(linear.table_words(), words);
            for &vpn in &vpns {
                let probe = VirtAddr((vpn << 12) | 0x123);
                prop_assert_eq!(linear.translate(probe), reference.translate(probe));
            }
        }
    }

    /// The sparse three-level table answers as the dense oracle does after
    /// any sequence of page maps, region maps at all three levels, unmaps
    /// and protects over 48 pages: three 16 MB regions (the first, second
    /// and last) by four 256 KB regions by four pages, so regions and the
    /// pages under them replace each other. After every step `translate`
    /// (at two offsets), `walk_depth` and `walk_mem_refs` agree on every
    /// page, `unmap` and `protect` return the same, `mapped_pages` is the
    /// oracle's count of terminal entries, and `tables` is the oracle's
    /// tables that still lead to one.
    #[test]
    fn sparse_three_level_table_matches_the_dense_oracle(
        ops in proptest::collection::vec((0u8..10, 0usize..48, 0u32..1_000_000, arb_prot(), any::<bool>()), 1..200),
    ) {
        let pages: Vec<VirtAddr> = [0x00u32, 0x01, 0xff]
            .into_iter()
            .flat_map(|region| [0u32, 1, 2, 63].into_iter().map(move |sub| region << 24 | sub << 18))
            .flat_map(|base| [0u32, 1, 5, 63].into_iter().map(move |page| VirtAddr(base | page << 12)))
            .collect();
        let mut sparse = MultiLevelPageTable::new();
        let mut oracle = dense::DenseTable::new();
        for (kind, pick, pfn, prot, valid) in ops {
            let va = pages[pick];
            let pte = Pte { valid, ..Pte::new(pfn, prot) };
            match kind {
                0..=2 => {
                    sparse.map(va, pte);
                    oracle.map_region(va, pte, 2);
                }
                3..=5 => {
                    let level = usize::from(kind - 3);
                    sparse.map_region(va, pte, level);
                    oracle.map_region(va, pte, level);
                }
                6 | 7 => prop_assert_eq!(sparse.unmap(va), oracle.unmap(va)),
                _ => prop_assert_eq!(sparse.protect(va, prot), oracle.protect(va, prot)),
            }
            prop_assert_eq!(sparse.mapped_pages(), oracle.leaves());
            prop_assert_eq!(sparse.tables(), oracle.live_tables());
            for &page in &pages {
                for probe in [page, page.offset(0xabc)] {
                    prop_assert_eq!(sparse.translate(probe), oracle.translate(probe));
                }
                prop_assert_eq!(sparse.walk_depth(page), oracle.walk_depth(page));
                prop_assert_eq!(sparse.walk_mem_refs(page), oracle.walk_mem_refs(page));
            }
        }
    }

    /// The flat set-major cache gives the nested-`Vec` oracle's outcomes,
    /// statistics and occupancy on any geometry and operation sequence.
    #[test]
    fn flat_cache_matches_the_nested_oracle(
        shape in (prop_oneof![Just(1u32), Just(2u32), Just(4u32)], 1u32..65, prop_oneof![Just(4u32), Just(16u32), Just(32u32)]),
        mode in (0u8..3, any::<bool>(), (1u32..20, 0u32..4, 1u32..3)),
        ops in proptest::collection::vec((0u8..10, 0u32..0x1_0000, 0u16..3), 1..300),
    ) {
        let config = geometry(shape.0, shape.1, shape.2, mode.0, mode.1, mode.2);
        let mut flat = Cache::new(config);
        let mut oracle = nested::NestedCache::new(config);
        for (kind, addr, asid) in ops {
            let asid = Asid(asid);
            match kind {
                0..=5 => {
                    let access = [AccessKind::Read, AccessKind::Write, AccessKind::Execute][kind as usize % 3];
                    prop_assert_eq!(flat.access(addr, asid, access), oracle.access(addr, asid, access));
                }
                6 | 7 => {
                    flat.warm(addr, asid);
                    oracle.warm(addr, asid);
                }
                8 => prop_assert_eq!(flat.flush_page(addr, asid), oracle.flush_page(addr, asid)),
                _ => prop_assert_eq!(flat.flush_all(), oracle.flush_all()),
            }
            prop_assert_eq!(flat.stats(), oracle.stats());
            prop_assert_eq!(flat.len(), oracle.len());
        }
    }

    /// The indexed TLB gives the scanning oracle's answers, victims,
    /// statistics and occupancy on any shape and operation sequence, and
    /// `probe` agrees on every key. Each case runs a short random sequence,
    /// probing every key after every operation, then a seeded stream of
    /// 3,000 operations, mostly refills, over twice as many pages as the
    /// TLB holds: its keys replace each other in the index hundreds of
    /// times, so runs of colliding keys form, wrap past the table's end
    /// and are shifted back on removal. ASID pick 3 inserts a global entry.
    #[test]
    fn indexed_tlb_matches_the_scanning_oracle(
        shape in (prop_oneof![1usize..8, 8usize..14, 14usize..21, Just(64usize)], any::<bool>(), 0usize..4, any::<bool>()),
        ops in proptest::collection::vec((0u8..25, 0u32..1024, 0u16..4, 0u32..1_000_000), 1..200),
        seed in any::<u64>(),
    ) {
        let (entries, tagged, lockable, fifo) = shape;
        let config = TlbConfig {
            entries,
            tagged,
            lockable: lockable.min(entries),
            replacement: if fifo { Replacement::Fifo } else { Replacement::PseudoRandom },
        };
        let mut tlb = Tlb::new(config);
        let mut oracle = scan::ScanTlb::new(config);
        let span = entries as u32 + 4;
        for (kind, vpn, pick, pfn) in ops {
            tlb_step(&mut tlb, &mut oracle, kind, vpn % span, pick, pfn)?;
            probe_every_key(&tlb, &oracle, span)?;
        }
        let span = 2 * entries as u32 + 3;
        let mut rng = osarch_trace::SplitMix64::new(seed);
        for step in 1..=3_000 {
            let word = rng.next_u64();
            let kind = match word % 200 {
                0..=119 => 24,
                120..=139 => 0,
                140..=159 => 8,
                160..=165 => 16,
                166..=185 => 18,
                186..=193 => 21,
                194..=198 => 22,
                _ => 23,
            };
            let (vpn, pick, pfn) = ((word >> 8) as u32 % span, (word >> 40) as u16 % 4, (word >> 44) as u32);
            tlb_step(&mut tlb, &mut oracle, kind, vpn, pick, pfn)?;
            if step % 500 == 0 {
                probe_every_key(&tlb, &oracle, span)?;
            }
        }
    }
}

/// Apply one operation to both TLBs and compare what they return, then
/// their statistics and occupancy. `kind` 0–7 looks up, 8–15 inserts,
/// 16–17 inserts locked, 18–20 flushes a page, 21 an ASID, 22 every
/// unlocked entry, 23 everything, and 24 refills: a lookup and, on a
/// miss, an insert of the missed page, as a miss handler does (the
/// indexed TLB skips its same-page probe there).
fn tlb_step(
    tlb: &mut Tlb,
    oracle: &mut scan::ScanTlb,
    kind: u8,
    vpn: u32,
    pick: u16,
    pfn: u32,
) -> Result<(), TestCaseError> {
    let asid = Asid(pick);
    let entry = TlbEntry {
        vpn,
        asid: (pick < 3).then_some(asid),
        pte: Pte::new(pfn, Protection::RW),
        locked: false,
    };
    match kind {
        0..=7 => prop_assert_eq!(tlb.lookup(vpn, asid), oracle.lookup(vpn, asid)),
        8..=15 => prop_assert_eq!(tlb.insert(entry), oracle.insert(entry)),
        16 | 17 => prop_assert_eq!(tlb.insert_locked(entry), oracle.insert_locked(entry)),
        18..=20 => prop_assert_eq!(tlb.flush_page(vpn, asid), oracle.flush_page(vpn, asid)),
        21 => prop_assert_eq!(tlb.flush_asid(asid), oracle.flush_asid(asid)),
        22 => prop_assert_eq!(tlb.flush_unlocked(), oracle.flush_unlocked()),
        23 => prop_assert_eq!(tlb.flush_all(), oracle.flush_all()),
        _ => {
            let hit = tlb.lookup(vpn, asid);
            prop_assert_eq!(hit, oracle.lookup(vpn, asid));
            if hit.is_none() {
                prop_assert_eq!(tlb.insert(entry), oracle.insert(entry));
            }
        }
    }
    prop_assert_eq!(tlb.stats(), oracle.stats());
    prop_assert_eq!(tlb.len(), oracle.len());
    Ok(())
}

/// `probe` agrees on every page below `span` in every context.
fn probe_every_key(tlb: &Tlb, oracle: &scan::ScanTlb, span: u32) -> Result<(), TestCaseError> {
    for vpn in 0..span {
        for pick in 0..4 {
            prop_assert_eq!(tlb.probe(vpn, Asid(pick)), oracle.probe(vpn, Asid(pick)));
        }
    }
    Ok(())
}
