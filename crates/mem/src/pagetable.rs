//! Page tables: linear (VAX), multi-level (SPARC/Cypress), and software-managed (MIPS).
//!
//! Section 3.2 of the paper contrasts three organisations:
//!
//! * the VAX's **linear** page table, simple but "problematic" for sparse address
//!   spaces because the table must span the mapped range;
//! * the SPARC/Cypress **3-level** table whose terminal entries may appear at any
//!   level, mapping a contiguous super-page region with a single TLB entry;
//! * the MIPS **software-managed** scheme in which the architecture "does not
//!   dictate page table structure" at all — the OS refills the TLB itself.

use crate::addr::{VirtAddr, PAGE_SHIFT};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{BitAnd, BitOr};

/// The kind of access being performed, used for protection checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A data load.
    Read,
    /// A data store.
    Write,
    /// An instruction fetch.
    Execute,
}

/// Page protection bits.
///
/// A small hand-rolled flag set (the study predates anything fancier): combine
/// with `|`, test with [`Protection::allows`].
///
/// # Example
///
/// ```
/// use osarch_mem::{AccessKind, Protection};
/// let p = Protection::READ | Protection::EXECUTE;
/// assert!(p.allows(AccessKind::Read));
/// assert!(!p.allows(AccessKind::Write));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Protection(u8);

impl Protection {
    /// No access at all.
    pub const NONE: Protection = Protection(0);
    /// Load permission.
    pub const READ: Protection = Protection(1);
    /// Store permission.
    pub const WRITE: Protection = Protection(2);
    /// Instruction-fetch permission.
    pub const EXECUTE: Protection = Protection(4);
    /// Read + write.
    pub const RW: Protection = Protection(1 | 2);
    /// Read + execute.
    pub const RX: Protection = Protection(1 | 4);
    /// Read + write + execute.
    pub const RWX: Protection = Protection(1 | 2 | 4);

    /// Does this protection permit `kind` accesses?
    #[must_use]
    pub fn allows(self, kind: AccessKind) -> bool {
        let needed = match kind {
            AccessKind::Read => Protection::READ,
            AccessKind::Write => Protection::WRITE,
            AccessKind::Execute => Protection::EXECUTE,
        };
        self.0 & needed.0 == needed.0
    }

    /// Does this protection include every bit of `other`?
    #[must_use]
    pub fn contains(self, other: Protection) -> bool {
        self.0 & other.0 == other.0
    }

    /// True when no access is permitted.
    #[must_use]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl BitOr for Protection {
    type Output = Protection;
    fn bitor(self, rhs: Protection) -> Protection {
        Protection(self.0 | rhs.0)
    }
}

impl BitAnd for Protection {
    type Output = Protection;
    fn bitand(self, rhs: Protection) -> Protection {
        Protection(self.0 & rhs.0)
    }
}

impl fmt::Display for Protection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = if self.contains(Protection::READ) {
            'r'
        } else {
            '-'
        };
        let w = if self.contains(Protection::WRITE) {
            'w'
        } else {
            '-'
        };
        let x = if self.contains(Protection::EXECUTE) {
            'x'
        } else {
            '-'
        };
        write!(f, "{r}{w}{x}")
    }
}

/// A page-table entry: the unit whose update cost Table 1 measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pte {
    /// Physical frame number the page maps to.
    pub pfn: u32,
    /// Access rights.
    pub prot: Protection,
    /// Whether the translation is valid (resident).
    pub valid: bool,
    /// Whether accesses to the page may be cached.
    pub cacheable: bool,
}

impl Pte {
    /// A valid, cacheable entry with the given frame and protection.
    #[must_use]
    pub fn new(pfn: u32, prot: Protection) -> Pte {
        Pte {
            pfn,
            prot,
            valid: true,
            cacheable: true,
        }
    }

    /// The same entry with different protection bits.
    #[must_use]
    pub fn with_prot(self, prot: Protection) -> Pte {
        Pte { prot, ..self }
    }
}

/// Which page-table organisation an architecture dictates (or doesn't).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageTableKind {
    /// VAX-style linear array indexed by virtual page number.
    Linear,
    /// SPARC/Cypress-style 3-level tree with super-page terminal entries.
    ThreeLevel,
    /// MIPS-style: the OS picks the structure and refills the TLB in software.
    SoftwareManaged,
}

impl fmt::Display for PageTableKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            PageTableKind::Linear => "linear",
            PageTableKind::ThreeLevel => "3-level",
            PageTableKind::SoftwareManaged => "software-managed",
        };
        f.write_str(text)
    }
}

/// Common interface over the three page-table organisations.
///
/// `walk_mem_refs` reports how many memory references a refill walk performs
/// for the given address — the quantity that decides TLB-miss latency.
pub trait PageTable: fmt::Debug {
    /// Look up the translation for `va`, if any.
    fn translate(&self, va: VirtAddr) -> Option<Pte>;
    /// Install (or replace) the translation for the page containing `va`.
    fn map(&mut self, va: VirtAddr, pte: Pte);
    /// Remove the translation for the page containing `va`, returning it.
    fn unmap(&mut self, va: VirtAddr) -> Option<Pte>;
    /// Change the protection of an existing translation. Returns `false` when
    /// no translation exists.
    fn protect(&mut self, va: VirtAddr, prot: Protection) -> bool;
    /// Memory references needed for a translation walk of `va`.
    fn walk_mem_refs(&self, va: VirtAddr) -> u32;
    /// Number of currently mapped pages.
    fn mapped_pages(&self) -> usize;
    /// The organisation this table implements.
    fn kind(&self) -> PageTableKind;
}

// ---------------------------------------------------------------------------
// Linear (VAX)
// ---------------------------------------------------------------------------

/// A VAX-style linear page table.
///
/// The table is a contiguous array indexed by virtual page number. Mapping a
/// page far beyond the current extent *grows the array*, which is exactly the
/// sparse-address-space weakness Section 3.2 calls "problematic on a linear
/// page table system like the VAX". The model keeps only the mapped slots
/// and the length that array would have, so [`LinearPageTable::table_words`]
/// reports the VAX's cost while the host pays per mapped page.
///
/// On the VAX, per-process tables themselves live in system virtual memory, so
/// a user-space walk costs two memory references; `extra_indirection` models
/// this.
#[derive(Debug, Clone)]
pub struct LinearPageTable {
    base_vpn: u32,
    entries: BTreeMap<u32, Pte>,
    words: usize,
    extra_indirection: bool,
}

impl LinearPageTable {
    /// A table covering pages starting at `base_vpn`, with VAX-style
    /// system-space indirection if `extra_indirection`.
    #[must_use]
    pub fn new(base_vpn: u32, extra_indirection: bool) -> LinearPageTable {
        LinearPageTable {
            base_vpn,
            entries: BTreeMap::new(),
            words: 0,
            extra_indirection,
        }
    }

    /// Length in words (one per slot) of the VAX array this table models:
    /// one past the highest slot ever mapped, the space cost of sparsity.
    /// It grows on map and never shrinks; host storage grows only with the
    /// mapped pages.
    #[must_use]
    pub fn table_words(&self) -> usize {
        self.words
    }

    fn slot(&self, va: VirtAddr) -> Option<u32> {
        va.vpn().checked_sub(self.base_vpn)
    }
}

impl PageTable for LinearPageTable {
    fn translate(&self, va: VirtAddr) -> Option<Pte> {
        let pte = self.entries.get(&self.slot(va)?)?;
        pte.valid.then_some(*pte)
    }

    fn map(&mut self, va: VirtAddr, pte: Pte) {
        if let Some(slot) = self.slot(va) {
            self.words = self.words.max(slot as usize + 1);
            self.entries.insert(slot, pte);
        }
    }

    fn unmap(&mut self, va: VirtAddr) -> Option<Pte> {
        self.entries.remove(&self.slot(va)?)
    }

    fn protect(&mut self, va: VirtAddr, prot: Protection) -> bool {
        match self.slot(va).and_then(|slot| self.entries.get_mut(&slot)) {
            Some(pte) => {
                *pte = pte.with_prot(prot);
                true
            }
            None => false,
        }
    }

    fn walk_mem_refs(&self, _va: VirtAddr) -> u32 {
        if self.extra_indirection {
            2
        } else {
            1
        }
    }

    fn mapped_pages(&self) -> usize {
        self.entries.len()
    }

    fn kind(&self) -> PageTableKind {
        PageTableKind::Linear
    }
}

// ---------------------------------------------------------------------------
// Three-level (SPARC / Cypress)
// ---------------------------------------------------------------------------

/// Fan-out of each level of the SPARC/Cypress table: 256 first-level entries
/// (16 MB regions), 64 second-level (256 KB regions), 64 third-level (4 KB pages).
pub const SPARC_LEVEL_FANOUT: [usize; 3] = [256, 64, 64];

#[derive(Debug, Clone)]
enum Node {
    /// An interior pointer table: its present entries, by index.
    Table(BTreeMap<usize, Node>),
    /// A terminal entry mapping everything below this point.
    Leaf(Pte),
}

impl Node {
    /// Terminal entries at or below this node.
    fn leaves(&self) -> usize {
        match self {
            Node::Table(entries) => entries.values().map(Node::leaves).sum(),
            Node::Leaf(_) => 1,
        }
    }

    /// Pointer tables at or below this node.
    fn tables(&self) -> usize {
        match self {
            Node::Table(entries) => 1 + entries.values().map(Node::tables).sum::<usize>(),
            Node::Leaf(_) => 0,
        }
    }
}

/// A SPARC/Cypress-style three-level page table.
///
/// A terminal entry found at the first or second level maps an entire 16 MB or
/// 256 KB region with a single PTE, so "a single TLB entry can be used to hold
/// the mapping for this entire region" (Section 3.2). Install such regions
/// with [`MultiLevelPageTable::map_region`].
///
/// Each table holds only its present entries, and a table whose last entry
/// is unmapped goes with it, so an address space with k terminal entries
/// costs O(k) host memory rather than a 256-entry root plus 64-entry
/// tables. The walk the model charges is the SPARC's all the same: one
/// descriptor per level down to the terminal entry.
#[derive(Debug, Clone, Default)]
pub struct MultiLevelPageTable {
    root: BTreeMap<usize, Node>,
}

impl MultiLevelPageTable {
    /// An empty three-level table.
    #[must_use]
    pub fn new() -> MultiLevelPageTable {
        MultiLevelPageTable::default()
    }

    /// Bits of address below each level's coverage: level 0 entries cover
    /// 16 MB (24 bits), level 1 entries 256 KB (18 bits), level 2 pages (12).
    const LEVEL_SHIFT: [u32; 3] = [24, 18, PAGE_SHIFT];

    fn indices(va: VirtAddr) -> [usize; 3] {
        let raw = va.0;
        [
            (raw >> Self::LEVEL_SHIFT[0]) as usize % SPARC_LEVEL_FANOUT[0],
            (raw >> Self::LEVEL_SHIFT[1]) as usize % SPARC_LEVEL_FANOUT[1],
            (raw >> Self::LEVEL_SHIFT[2]) as usize % SPARC_LEVEL_FANOUT[2],
        ]
    }

    /// Install a terminal entry at `level` (0 = 16 MB region, 1 = 256 KB
    /// region, 2 = single page), mapping the whole region containing `va`.
    ///
    /// The entry replaces whatever its slot held: a terminal entry, or a
    /// table with every finer mapping under the region. A walk that meets a
    /// coarser terminal entry on the way down replaces it with a table, so
    /// a page mapped inside a mapped region leaves the rest of that region
    /// unmapped.
    pub fn map_region(&mut self, va: VirtAddr, pte: Pte, level: usize) {
        assert!(level < 3, "level must be 0, 1 or 2");
        let idx = Self::indices(va);
        let mut table = &mut self.root;
        for &index in &idx[..level] {
            let slot = table.entry(index).or_insert(Node::Table(BTreeMap::new()));
            if let Node::Leaf(_) = slot {
                *slot = Node::Table(BTreeMap::new());
            }
            let Node::Table(next) = slot else {
                unreachable!("the slot holds a table")
            };
            table = next;
        }
        table.insert(idx[level], Node::Leaf(pte));
    }

    /// Depth at which a walk for `va` terminates (1..=3), or `None` if unmapped.
    #[must_use]
    pub fn walk_depth(&self, va: VirtAddr) -> Option<u32> {
        self.walk(va).map(|(depth, _)| depth)
    }

    /// Pointer tables below the root. With the root they are the host
    /// memory this table holds beside its terminal entries, and each leads
    /// to at least one terminal entry, since an unmap drops the tables it
    /// empties.
    #[must_use]
    pub fn tables(&self) -> usize {
        self.root.values().map(Node::tables).sum()
    }

    /// The terminal entry a walk for `va` reaches, with its depth.
    fn walk(&self, va: VirtAddr) -> Option<(u32, Pte)> {
        let mut table = &self.root;
        for (depth, index) in (1..).zip(Self::indices(va)) {
            match table.get(&index)? {
                Node::Table(next) => table = next,
                Node::Leaf(pte) => return Some((depth, *pte)),
            }
        }
        None
    }

    fn leaf_mut(&mut self, va: VirtAddr) -> Option<&mut Pte> {
        let mut table = &mut self.root;
        for index in Self::indices(va) {
            match table.get_mut(&index)? {
                Node::Table(next) => table = next,
                Node::Leaf(pte) => return Some(pte),
            }
        }
        None
    }

    /// Remove the terminal entry the walk down `idx` reaches in `table`,
    /// and every table that this leaves empty.
    fn remove_leaf(table: &mut BTreeMap<usize, Node>, idx: &[usize]) -> Option<Pte> {
        let (&index, rest) = idx.split_first()?;
        let old = match table.get_mut(&index)? {
            Node::Table(next) => {
                let old = Self::remove_leaf(next, rest)?;
                if !next.is_empty() {
                    return Some(old);
                }
                old
            }
            Node::Leaf(pte) => *pte,
        };
        table.remove(&index);
        Some(old)
    }
}

impl PageTable for MultiLevelPageTable {
    fn translate(&self, va: VirtAddr) -> Option<Pte> {
        let (_, pte) = self.walk(va)?;
        pte.valid.then_some(pte)
    }

    /// Install a single page, as [`MultiLevelPageTable::map_region`] does
    /// at level 2: a region entry above the page is replaced by tables.
    fn map(&mut self, va: VirtAddr, pte: Pte) {
        self.map_region(va, pte, 2);
    }

    fn unmap(&mut self, va: VirtAddr) -> Option<Pte> {
        Self::remove_leaf(&mut self.root, &Self::indices(va))
    }

    fn protect(&mut self, va: VirtAddr, prot: Protection) -> bool {
        match self.leaf_mut(va) {
            Some(pte) => {
                *pte = pte.with_prot(prot);
                true
            }
            None => false,
        }
    }

    fn walk_mem_refs(&self, va: VirtAddr) -> u32 {
        // A miss walk reads one descriptor per level traversed; an unmapped
        // address still walks to the point of failure (assume full depth).
        self.walk_depth(va).unwrap_or(3)
    }

    /// Terminal entries, counted by walking the tree: a region counts
    /// once, however many pages it maps.
    fn mapped_pages(&self) -> usize {
        self.root.values().map(Node::leaves).sum()
    }

    fn kind(&self) -> PageTableKind {
        PageTableKind::ThreeLevel
    }
}

// ---------------------------------------------------------------------------
// Software-managed (MIPS)
// ---------------------------------------------------------------------------

/// An operating-system-chosen page table for software-refilled TLBs.
///
/// "The operating system is free to choose whatever page table structure it
/// likes" (Section 3.2); we choose an ordered map, which handles sparse
/// address spaces gracefully — the advantage the paper credits to the MIPS
/// design.
#[derive(Debug, Clone, Default)]
pub struct SoftwarePageTable {
    entries: BTreeMap<u32, Pte>,
}

impl SoftwarePageTable {
    /// Memory references charged per refill lookup: a hash/probe plus the
    /// entry itself.
    const LOOKUP_REFS: u32 = 2;

    /// An empty table.
    #[must_use]
    pub fn new() -> SoftwarePageTable {
        SoftwarePageTable::default()
    }
}

impl PageTable for SoftwarePageTable {
    fn translate(&self, va: VirtAddr) -> Option<Pte> {
        self.entries.get(&va.vpn()).copied().filter(|pte| pte.valid)
    }

    fn map(&mut self, va: VirtAddr, pte: Pte) {
        self.entries.insert(va.vpn(), pte);
    }

    fn unmap(&mut self, va: VirtAddr) -> Option<Pte> {
        self.entries.remove(&va.vpn())
    }

    fn protect(&mut self, va: VirtAddr, prot: Protection) -> bool {
        match self.entries.get_mut(&va.vpn()) {
            Some(pte) => {
                *pte = pte.with_prot(prot);
                true
            }
            None => false,
        }
    }

    fn walk_mem_refs(&self, _va: VirtAddr) -> u32 {
        Self::LOOKUP_REFS
    }

    fn mapped_pages(&self) -> usize {
        self.entries.len()
    }

    fn kind(&self) -> PageTableKind {
        PageTableKind::SoftwareManaged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pte(pfn: u32) -> Pte {
        Pte::new(pfn, Protection::RW)
    }

    #[test]
    fn protection_allows_matches_bits() {
        assert!(Protection::RWX.allows(AccessKind::Execute));
        assert!(!Protection::READ.allows(AccessKind::Write));
        assert!(Protection::NONE.is_none());
        assert_eq!(format!("{}", Protection::RX), "r-x");
    }

    #[test]
    fn linear_map_translate_roundtrip() {
        let mut table = LinearPageTable::new(0, false);
        table.map(VirtAddr(0x3000), pte(7));
        assert_eq!(table.translate(VirtAddr(0x3abc)).unwrap().pfn, 7);
        assert_eq!(table.translate(VirtAddr(0x4000)), None);
        assert_eq!(table.mapped_pages(), 1);
    }

    #[test]
    fn linear_table_grows_with_sparsity() {
        let mut table = LinearPageTable::new(0, false);
        table.map(VirtAddr(0x1000), pte(1));
        let small = table.table_words();
        table.map(VirtAddr(0x0100_0000), pte(2));
        assert!(
            table.table_words() > small * 100,
            "sparse mapping must balloon a linear table"
        );
    }

    #[test]
    fn linear_indirection_doubles_walk_cost() {
        let direct = LinearPageTable::new(0, false);
        let indirect = LinearPageTable::new(0, true);
        assert_eq!(direct.walk_mem_refs(VirtAddr(0)), 1);
        assert_eq!(indirect.walk_mem_refs(VirtAddr(0)), 2);
    }

    #[test]
    fn linear_unmap_and_protect() {
        let mut table = LinearPageTable::new(0, false);
        table.map(VirtAddr(0x1000), pte(1));
        assert!(table.protect(VirtAddr(0x1000), Protection::READ));
        assert_eq!(
            table.translate(VirtAddr(0x1000)).unwrap().prot,
            Protection::READ
        );
        assert!(table.unmap(VirtAddr(0x1000)).is_some());
        assert_eq!(table.translate(VirtAddr(0x1000)), None);
        assert!(!table.protect(VirtAddr(0x1000), Protection::RW));
    }

    #[test]
    fn linear_rejects_below_base() {
        let mut table = LinearPageTable::new(0x100, false);
        table.map(VirtAddr(0x1000), pte(1)); // vpn 1 < base 0x100: ignored
        assert_eq!(table.mapped_pages(), 0);
        assert_eq!(table.translate(VirtAddr(0x1000)), None);
    }

    #[test]
    fn three_level_page_mapping_walks_full_depth() {
        let mut table = MultiLevelPageTable::new();
        table.map(VirtAddr(0x0123_4000), pte(9));
        assert_eq!(table.walk_depth(VirtAddr(0x0123_4000)), Some(3));
        assert_eq!(table.walk_mem_refs(VirtAddr(0x0123_4000)), 3);
        assert_eq!(table.translate(VirtAddr(0x0123_4fff)).unwrap().pfn, 9);
    }

    #[test]
    fn three_level_superpage_shortens_walk() {
        let mut table = MultiLevelPageTable::new();
        // Terminal entry at level 1 maps a 256 KB region.
        table.map_region(VirtAddr(0x0200_0000), pte(11), 1);
        assert_eq!(table.walk_depth(VirtAddr(0x0200_0000)), Some(2));
        // Every page of the 256 KB region resolves through the one entry.
        assert_eq!(table.translate(VirtAddr(0x0203_f000)).unwrap().pfn, 11);
        // Outside the region: unmapped.
        assert_eq!(table.translate(VirtAddr(0x0204_0000)), None);
    }

    #[test]
    fn three_level_region_at_top_level() {
        let mut table = MultiLevelPageTable::new();
        table.map_region(VirtAddr(0x1000_0000), pte(5), 0);
        assert_eq!(table.walk_depth(VirtAddr(0x10ff_f000)), Some(1));
        assert_eq!(table.translate(VirtAddr(0x10ff_f000)).unwrap().pfn, 5);
    }

    #[test]
    fn three_level_unmap_and_protect() {
        let mut table = MultiLevelPageTable::new();
        table.map(VirtAddr(0x5000), pte(3));
        assert!(table.protect(VirtAddr(0x5000), Protection::READ));
        assert_eq!(
            table.translate(VirtAddr(0x5000)).unwrap().prot,
            Protection::READ
        );
        assert_eq!(table.unmap(VirtAddr(0x5000)).unwrap().pfn, 3);
        assert_eq!(table.translate(VirtAddr(0x5000)), None);
        assert_eq!(table.mapped_pages(), 0);
    }

    #[test]
    fn three_level_count_is_the_terminal_entries_after_replacement() {
        // The same level-0 region mapped twice is one entry.
        let mut table = MultiLevelPageTable::new();
        table.map_region(VirtAddr(0x0100_0000), pte(1), 0);
        table.map_region(VirtAddr(0x0100_0000), pte(2), 0);
        assert_eq!(table.mapped_pages(), 1);

        // A level-0 region replaces the two pages under it, and unmapping
        // it leaves nothing mapped.
        let mut table = MultiLevelPageTable::new();
        table.map(VirtAddr(0x0100_0000), pte(1));
        table.map(VirtAddr(0x0104_0000), pte(2));
        table.map_region(VirtAddr(0x0100_0000), pte(3), 0);
        assert_eq!(table.mapped_pages(), 1);
        assert_eq!(table.unmap(VirtAddr(0x0104_0000)).map(|p| p.pfn), Some(3));
        assert_eq!(table.translate(VirtAddr(0x0100_0000)), None);
        assert_eq!(table.mapped_pages(), 0);

        // A page mapped inside a region replaces the region's entry: the
        // rest of the region no longer translates.
        let mut table = MultiLevelPageTable::new();
        table.map_region(VirtAddr(0x0200_0000), pte(4), 1);
        table.map(VirtAddr(0x0201_0000), pte(5));
        assert_eq!(table.mapped_pages(), 1);
        assert_eq!(table.translate(VirtAddr(0x0201_0000)).unwrap().pfn, 5);
        assert_eq!(table.translate(VirtAddr(0x0200_0000)), None);
    }

    #[test]
    fn three_level_tables_follow_the_mapped_entries() {
        let mut table = MultiLevelPageTable::new();
        assert_eq!(table.tables(), 0, "an empty space holds no tables");
        table.map(VirtAddr(0x0123_4000), pte(1));
        table.map(VirtAddr(0x0123_5000), pte(2));
        assert_eq!(table.tables(), 2, "one level-1 and one level-2 table");
        table.map(VirtAddr(0xff00_0000), pte(3));
        assert_eq!(table.tables(), 4);
        table.unmap(VirtAddr(0x0123_4000));
        assert_eq!(table.tables(), 4);
        table.unmap(VirtAddr(0x0123_5000));
        assert_eq!(table.tables(), 2, "a table goes with its last entry");
        // A region replaces the tables under it.
        table.map_region(VirtAddr(0xff00_0000), pte(4), 0);
        assert_eq!(table.tables(), 0);
        assert_eq!(table.mapped_pages(), 1);
    }

    #[test]
    fn software_table_handles_sparse_spaces_cheaply() {
        let mut table = SoftwarePageTable::new();
        table.map(VirtAddr(0x1000), pte(1));
        table.map(VirtAddr(0xf000_0000), pte(2));
        assert_eq!(table.mapped_pages(), 2);
        assert_eq!(table.walk_mem_refs(VirtAddr(0xf000_0000)), 2);
        assert_eq!(table.translate(VirtAddr(0xf000_0123)).unwrap().pfn, 2);
        let default = SoftwarePageTable::default();
        assert_eq!(
            default.walk_mem_refs(VirtAddr(0x1000)),
            2,
            "as new() charges"
        );
    }

    #[test]
    fn invalid_pte_does_not_translate() {
        let mut table = SoftwarePageTable::new();
        let mut entry = pte(1);
        entry.valid = false;
        table.map(VirtAddr(0x1000), entry);
        assert_eq!(table.translate(VirtAddr(0x1000)), None);
    }

    #[test]
    fn kinds_are_reported() {
        assert_eq!(LinearPageTable::new(0, false).kind(), PageTableKind::Linear);
        assert_eq!(MultiLevelPageTable::new().kind(), PageTableKind::ThreeLevel);
        assert_eq!(
            SoftwarePageTable::new().kind(),
            PageTableKind::SoftwareManaged
        );
        assert_eq!(format!("{}", PageTableKind::ThreeLevel), "3-level");
    }
}
