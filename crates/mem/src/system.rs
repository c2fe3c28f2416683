//! The composed memory system a simulated CPU talks to.

use crate::addr::{Asid, PhysAddr, VirtAddr, PAGE_SHIFT, PAGE_SIZE};
use crate::cache::{Addressing, Cache, CacheConfig, WritePolicy};
use crate::error::{Fault, FaultKind};
use crate::pagetable::{
    AccessKind, LinearPageTable, MultiLevelPageTable, PageTable, PageTableKind, Protection, Pte,
    SoftwarePageTable,
};
use crate::tlb::{Tlb, TlbConfig, TlbEntry};
use crate::writebuffer::{WriteBuffer, WriteBufferConfig};
use osarch_trace::{Category, Event, NullTracer, Tracer};
use std::collections::BTreeMap;

/// The trace track memory-system events are placed on.
const MEM_TRACK: u32 = 1;

/// Processor privilege mode of an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Unprivileged.
    User,
    /// Privileged.
    Kernel,
}

/// Attributes of the segment an address falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Translated through the TLB/page tables (vs. physically based).
    pub mapped: bool,
    /// Accesses may hit the cache.
    pub cached: bool,
    /// Only kernel mode may touch it.
    pub kernel_only: bool,
    /// Translations (if mapped) come from the shared kernel space.
    pub kernel_shared: bool,
}

/// The virtual-address-space layout an architecture dictates.
///
/// Section 3.2 describes the MIPS layout in detail: user space is always
/// mapped; system space subdivides into unmapped-cached (kseg0),
/// unmapped-uncached (kseg1) and mapped (kseg2) regions. The unmapped regions
/// save TLB entries for the resident kernel — an optimisation "best suited to
/// a monolithic kernel structure".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddressLayout {
    /// Everything mapped and cached; no kernel-only regions. Good for tests.
    Uniform,
    /// MIPS R2000/R3000: kuseg / kseg0 / kseg1 / kseg2.
    Mips,
    /// VAX-style: user P0/P1 space below `0x8000_0000`, mapped kernel system
    /// space above it.
    SystemSpace,
}

impl AddressLayout {
    /// Classify `va`, returning the segment attributes.
    #[must_use]
    pub fn classify(self, va: VirtAddr) -> Segment {
        match self {
            AddressLayout::Uniform => Segment {
                mapped: true,
                cached: true,
                kernel_only: false,
                kernel_shared: false,
            },
            AddressLayout::Mips => {
                let raw = va.0;
                if raw < 0x8000_0000 {
                    Segment {
                        mapped: true,
                        cached: true,
                        kernel_only: false,
                        kernel_shared: false,
                    }
                } else if raw < 0xa000_0000 {
                    // kseg0: unmapped, cached.
                    Segment {
                        mapped: false,
                        cached: true,
                        kernel_only: true,
                        kernel_shared: true,
                    }
                } else if raw < 0xc000_0000 {
                    // kseg1: unmapped, uncached.
                    Segment {
                        mapped: false,
                        cached: false,
                        kernel_only: true,
                        kernel_shared: true,
                    }
                } else {
                    // kseg2: mapped, cached (page tables etc. live here).
                    Segment {
                        mapped: true,
                        cached: true,
                        kernel_only: true,
                        kernel_shared: true,
                    }
                }
            }
            AddressLayout::SystemSpace => {
                if va.0 < 0x8000_0000 {
                    Segment {
                        mapped: true,
                        cached: true,
                        kernel_only: false,
                        kernel_shared: false,
                    }
                } else {
                    Segment {
                        mapped: true,
                        cached: true,
                        kernel_only: true,
                        kernel_shared: true,
                    }
                }
            }
        }
    }
}

/// How TLB misses are serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbRefill {
    /// A hardware walker: each walk memory reference costs one memory read.
    Hardware,
    /// Operating-system refill handlers (MIPS). Section 5 gives the latencies:
    /// "One deals with user-space misses and has a latency of about a dozen
    /// cycles. The second handles misses in kernel space … a latency of a few
    /// hundred cycles."
    Software {
        /// Cycles of the user-space miss handler.
        user_cycles: u32,
        /// Cycles of the kernel-space miss handler.
        kernel_cycles: u32,
    },
}

/// Main-memory and uncached-access timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryTiming {
    /// Cycles per memory read (also charged per page-table walk reference).
    pub read_cycles: u32,
    /// Cycles per memory write issued without a write buffer.
    pub write_cycles: u32,
    /// Cycles per uncached read (e.g. an I/O buffer the checksum loop loads).
    pub uncached_read_cycles: u32,
    /// Cycles per uncached write.
    pub uncached_write_cycles: u32,
    /// Cycles to issue a TLB flush operation (the purge itself, not the later
    /// refill misses).
    pub tlb_flush_cycles: u32,
}

impl MemoryTiming {
    /// Round numbers for a late-1980s workstation memory system.
    #[must_use]
    pub fn workstation() -> MemoryTiming {
        MemoryTiming {
            read_cycles: 6,
            write_cycles: 6,
            uncached_read_cycles: 8,
            uncached_write_cycles: 8,
            tlb_flush_cycles: 4,
        }
    }
}

/// Which page-table organisation new address spaces get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageTableSpec {
    /// VAX-style linear table; `extra_indirection` adds the system-space hop.
    Linear {
        /// Whether walks pay a second reference through system space.
        extra_indirection: bool,
    },
    /// SPARC/Cypress three-level tree.
    ThreeLevel,
    /// OS-chosen structure for software-refilled TLBs.
    Software,
}

impl PageTableSpec {
    fn build(self) -> Box<dyn PageTable> {
        match self {
            PageTableSpec::Linear { extra_indirection } => {
                Box::new(LinearPageTable::new(0, extra_indirection))
            }
            PageTableSpec::ThreeLevel => Box::new(MultiLevelPageTable::new()),
            PageTableSpec::Software => Box::new(SoftwarePageTable::new()),
        }
    }

    /// The [`PageTableKind`] this spec constructs.
    #[must_use]
    pub fn kind(self) -> PageTableKind {
        match self {
            PageTableSpec::Linear { .. } => PageTableKind::Linear,
            PageTableSpec::ThreeLevel => PageTableKind::ThreeLevel,
            PageTableSpec::Software => PageTableKind::SoftwareManaged,
        }
    }
}

/// Full memory-system configuration.
#[derive(Debug, Clone)]
pub struct MemorySystemConfig {
    /// Address-space layout.
    pub layout: AddressLayout,
    /// Memory timing.
    pub timing: MemoryTiming,
    /// TLB configuration, if the machine has one.
    pub tlb: Option<TlbConfig>,
    /// TLB refill mechanism.
    pub tlb_refill: TlbRefill,
    /// Cache configuration, if modelled.
    pub cache: Option<CacheConfig>,
    /// Write buffer, if present (write-through systems).
    pub write_buffer: Option<WriteBufferConfig>,
    /// Page-table organisation for new address spaces.
    pub page_table: PageTableSpec,
}

impl MemorySystemConfig {
    /// A minimal fully mapped configuration: tagged 64-entry TLB, hardware
    /// refill, no cache or write buffer. Useful in tests and doc examples.
    #[must_use]
    pub fn uniform_mapped() -> MemorySystemConfig {
        MemorySystemConfig {
            layout: AddressLayout::Uniform,
            timing: MemoryTiming::workstation(),
            tlb: Some(TlbConfig::tagged(64)),
            tlb_refill: TlbRefill::Hardware,
            cache: None,
            write_buffer: None,
            page_table: PageTableSpec::Software,
        }
    }
}

/// One address space: an ASID plus its page table.
#[derive(Debug)]
pub struct AddressSpace {
    asid: Asid,
    table: Box<dyn PageTable>,
}

impl AddressSpace {
    /// The space's identifier.
    #[must_use]
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// Immutable access to the page table.
    #[must_use]
    pub fn table(&self) -> &dyn PageTable {
        self.table.as_ref()
    }
}

/// Outcome of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Access {
    /// Extra cycles beyond the instruction's base cost.
    pub cycles: u32,
    /// Whether the TLB missed.
    pub tlb_miss: bool,
    /// Cache outcome (`None` when the access bypassed the cache).
    pub cache_hit: Option<bool>,
    /// Write-buffer stall cycles included in `cycles`.
    pub wb_stall: u32,
}

/// Cycles paid when switching address spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SwitchCost {
    /// Direct cycles of TLB purging (untagged TLBs only).
    pub tlb_flush_cycles: u32,
    /// Direct cycles of cache flushing (untagged virtual caches only).
    pub cache_flush_cycles: u32,
    /// TLB entries lost.
    pub tlb_entries_flushed: usize,
    /// Cache lines lost.
    pub cache_lines_flushed: usize,
}

impl SwitchCost {
    /// Total direct cycles.
    #[must_use]
    pub fn cycles(&self) -> u32 {
        self.tlb_flush_cycles + self.cache_flush_cycles
    }
}

/// Aggregate statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Completed reads.
    pub reads: u64,
    /// Completed writes.
    pub writes: u64,
    /// TLB misses on user-segment addresses.
    pub tlb_user_misses: u64,
    /// TLB misses on kernel-segment addresses.
    pub tlb_kernel_misses: u64,
    /// Write-buffer stall cycles.
    pub wb_stall_cycles: u64,
    /// Uncached accesses.
    pub uncached: u64,
    /// Faults raised.
    pub faults: u64,
}

/// The ASID reserved for the shared kernel address space.
pub const KERNEL_ASID: Asid = Asid(0);

/// The composed memory system: layout, TLB, cache, write buffer, page tables,
/// and a monotonically advancing cycle clock.
///
/// See the crate-level example for typical use.
#[derive(Debug)]
pub struct MemorySystem {
    config: MemorySystemConfig,
    tlb: Option<Tlb>,
    cache: Option<Cache>,
    write_buffer: Option<WriteBuffer>,
    spaces: BTreeMap<Asid, AddressSpace>,
    current: Asid,
    clock: u64,
    next_pfn: u32,
    stats: MemStats,
}

impl MemorySystem {
    /// Build a memory system; the kernel address space ([`KERNEL_ASID`]) is
    /// created automatically.
    #[must_use]
    pub fn new(config: MemorySystemConfig) -> MemorySystem {
        let tlb = config.tlb.map(Tlb::new);
        let cache = config.cache.map(Cache::new);
        let write_buffer = config.write_buffer.map(WriteBuffer::new);
        let mut spaces = BTreeMap::new();
        spaces.insert(
            KERNEL_ASID,
            AddressSpace {
                asid: KERNEL_ASID,
                table: config.page_table.build(),
            },
        );
        MemorySystem {
            config,
            tlb,
            cache,
            write_buffer,
            spaces,
            current: KERNEL_ASID,
            clock: 0,
            next_pfn: 0x100,
            stats: MemStats::default(),
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &MemorySystemConfig {
        &self.config
    }

    /// The current cycle clock.
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Advance the clock by `cycles` of non-memory work (lets the write
    /// buffer drain in the background).
    pub fn advance(&mut self, cycles: u64) {
        self.clock += cycles;
    }

    /// The currently installed address space.
    #[must_use]
    pub fn current_asid(&self) -> Asid {
        self.current
    }

    /// Create an (empty) address space. Returns `false` if it already exists.
    pub fn create_space(&mut self, asid: Asid) -> bool {
        if self.spaces.contains_key(&asid) {
            return false;
        }
        self.spaces.insert(
            asid,
            AddressSpace {
                asid,
                table: self.config.page_table.build(),
            },
        );
        true
    }

    /// Destroy an address space and purge its TLB entries. The kernel space
    /// cannot be destroyed.
    pub fn destroy_space(&mut self, asid: Asid) -> bool {
        if asid == KERNEL_ASID || self.spaces.remove(&asid).is_none() {
            return false;
        }
        if let Some(tlb) = &mut self.tlb {
            tlb.flush_asid(asid);
        }
        true
    }

    /// Borrow an address space.
    #[must_use]
    pub fn space(&self, asid: Asid) -> Option<&AddressSpace> {
        self.spaces.get(&asid)
    }

    /// Map a fresh physical page at `va` in `asid` with protection `prot`.
    /// Returns the PTE installed, or `None` when the space doesn't exist.
    pub fn map_page(&mut self, asid: Asid, va: VirtAddr, prot: Protection) -> Option<Pte> {
        let space = self.spaces.get_mut(&asid)?;
        let pte = Pte::new(self.next_pfn, prot);
        self.next_pfn += 1;
        space.table.map(va, pte);
        Some(pte)
    }

    /// Map `va` to an explicit PTE, invalidating any stale TLB entry for
    /// the page.
    pub fn map_pte(&mut self, asid: Asid, va: VirtAddr, pte: Pte) -> bool {
        match self.spaces.get_mut(&asid) {
            Some(space) => {
                space.table.map(va, pte);
                if let Some(tlb) = &mut self.tlb {
                    tlb.flush_page(va.vpn(), asid);
                }
                true
            }
            None => false,
        }
    }

    /// Unmap the page at `va`, invalidating any TLB entry for it.
    pub fn unmap_page(&mut self, asid: Asid, va: VirtAddr) -> Option<Pte> {
        let space = self.spaces.get_mut(&asid)?;
        let old = space.table.unmap(va);
        if old.is_some() {
            if let Some(tlb) = &mut self.tlb {
                tlb.flush_page(va.vpn(), asid);
            }
        }
        old
    }

    /// Change the protection of the page at `va`, invalidating any TLB entry.
    /// Returns `false` when the page is unmapped.
    pub fn protect_page(&mut self, asid: Asid, va: VirtAddr, prot: Protection) -> bool {
        let Some(space) = self.spaces.get_mut(&asid) else {
            return false;
        };
        let changed = space.table.protect(va, prot);
        if changed {
            if let Some(tlb) = &mut self.tlb {
                tlb.flush_page(va.vpn(), asid);
            }
        }
        changed
    }

    /// Page-table walk references for `va` in `asid` (for handler generators).
    #[must_use]
    pub fn walk_refs(&self, asid: Asid, va: VirtAddr) -> u32 {
        self.spaces
            .get(&asid)
            .map_or(0, |s| s.table.walk_mem_refs(va))
    }

    /// Switch the installed address space, paying the architectural cost
    /// (TLB purge when untagged, cache flush when virtually addressed and
    /// untagged). The clock advances by the returned cost.
    pub fn switch_to(&mut self, asid: Asid) -> SwitchCost {
        let mut cost = SwitchCost::default();
        if asid == self.current {
            return cost;
        }
        if let Some(tlb) = &mut self.tlb {
            if !tlb.config().tagged {
                cost.tlb_entries_flushed = tlb.flush_unlocked();
                cost.tlb_flush_cycles = self.config.timing.tlb_flush_cycles;
            }
        }
        if let Some(cache) = &mut self.cache {
            let cfg = cache.config();
            if cfg.addressing == Addressing::Virtual && !cfg.tagged {
                cost.cache_lines_flushed = cache.len();
                cost.cache_flush_cycles = cache.flush_all();
            }
        }
        self.current = asid;
        self.clock += u64::from(cost.cycles());
        cost
    }

    fn translate(
        &mut self,
        va: VirtAddr,
        kind: AccessKind,
        segment: Segment,
    ) -> Result<(Pte, u32, bool), Fault> {
        let space_id = if segment.kernel_shared {
            KERNEL_ASID
        } else {
            self.current
        };
        let fault = |kind_| Fault {
            kind: kind_,
            addr: va,
            asid: space_id,
            access: kind,
        };
        let mut extra = 0u32;
        let mut missed = false;
        let pte = if let Some(tlb) = &mut self.tlb {
            let tag = if segment.kernel_shared {
                Asid(0)
            } else {
                space_id
            };
            match tlb.lookup(va.vpn(), tag) {
                Some(pte) => pte,
                None => {
                    missed = true;
                    if segment.kernel_only {
                        self.stats.tlb_kernel_misses += 1;
                    } else {
                        self.stats.tlb_user_misses += 1;
                    }
                    let space = self
                        .spaces
                        .get(&space_id)
                        .ok_or_else(|| fault(FaultKind::AddressError))?;
                    let walk_refs = space.table.walk_mem_refs(va);
                    let refill_cycles = match self.config.tlb_refill {
                        TlbRefill::Hardware => walk_refs * self.config.timing.read_cycles,
                        TlbRefill::Software {
                            user_cycles,
                            kernel_cycles,
                        } => {
                            if segment.kernel_only {
                                kernel_cycles
                            } else {
                                user_cycles
                            }
                        }
                    };
                    extra += refill_cycles;
                    let pte = space
                        .table
                        .translate(va)
                        .ok_or_else(|| fault(FaultKind::PageNotResident))?;
                    let entry_asid = if segment.kernel_shared {
                        None
                    } else {
                        Some(space_id)
                    };
                    if let Some(tlb) = &mut self.tlb {
                        tlb.insert(TlbEntry {
                            vpn: va.vpn(),
                            asid: entry_asid,
                            pte,
                            locked: false,
                        });
                    }
                    pte
                }
            }
        } else {
            let space = self
                .spaces
                .get(&space_id)
                .ok_or_else(|| fault(FaultKind::AddressError))?;
            extra += space.table.walk_mem_refs(va) * self.config.timing.read_cycles;
            space
                .table
                .translate(va)
                .ok_or_else(|| fault(FaultKind::PageNotResident))?
        };
        if !pte.prot.allows(kind) {
            return Err(fault(FaultKind::ProtectionViolation));
        }
        Ok((pte, extra, missed))
    }

    /// Perform one access. The clock advances by the access cost.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] when the address is kernel-only and the mode is
    /// user, when no translation exists, or when protection forbids the
    /// access. Faults do not advance the clock; the CPU's trap machinery is
    /// expected to take over.
    pub fn access(&mut self, va: VirtAddr, kind: AccessKind, mode: Mode) -> Result<Access, Fault> {
        self.access_with(va, kind, mode, &mut NullTracer)
    }

    /// [`MemorySystem::access`] with tracing: TLB misses (and their refill
    /// cost), cache misses, and write-buffer enqueues/stalls are reported to
    /// `tracer`, timestamped on the memory clock. With [`NullTracer`] this
    /// is exactly [`MemorySystem::access`] — the instrumentation compiles
    /// away and the simulation is bit-identical.
    ///
    /// # Errors
    ///
    /// Identical to [`MemorySystem::access`].
    pub fn access_with<T: Tracer>(
        &mut self,
        va: VirtAddr,
        kind: AccessKind,
        mode: Mode,
        tracer: &mut T,
    ) -> Result<Access, Fault> {
        let segment = self.config.layout.classify(va);
        if segment.kernel_only && mode == Mode::User {
            self.stats.faults += 1;
            return Err(Fault {
                kind: FaultKind::AddressError,
                addr: va,
                asid: self.current,
                access: kind,
            });
        }
        let mut result = Access::default();
        let (pa, cacheable) = if segment.mapped {
            match self.translate(va, kind, segment) {
                Ok((pte, extra, missed)) => {
                    result.cycles += extra;
                    result.tlb_miss = missed;
                    if missed && tracer.enabled() {
                        tracer.record(
                            Event::instant("tlb miss", Category::Tlb, self.clock)
                                .on(0, MEM_TRACK)
                                .with_arg("refill_cycles", u64::from(extra))
                                .with_arg("kernel", u64::from(segment.kernel_only)),
                        );
                    }
                    (
                        PhysAddr((pte.pfn << PAGE_SHIFT) | va.page_offset()),
                        pte.cacheable,
                    )
                }
                Err(fault) => {
                    self.stats.faults += 1;
                    return Err(fault);
                }
            }
        } else {
            (PhysAddr(va.0 & 0x1fff_ffff), true)
        };

        let write = kind == AccessKind::Write;
        if segment.cached && cacheable {
            if let Some(cache) = &mut self.cache {
                let addr = match cache.config().addressing {
                    Addressing::Physical => pa.0,
                    Addressing::Virtual => va.0,
                };
                let outcome = cache.access(addr, self.current, kind);
                result.cycles += outcome.extra_cycles;
                result.cache_hit = Some(outcome.hit);
                if !outcome.hit && tracer.enabled() {
                    tracer.record(
                        Event::instant("cache miss", Category::Cache, self.clock)
                            .on(0, MEM_TRACK)
                            .with_arg("extra_cycles", u64::from(outcome.extra_cycles)),
                    );
                }
                if write && cache.config().write_policy == WritePolicy::Through {
                    if let Some(wb) = &mut self.write_buffer {
                        let stall = wb.store(self.clock, pa.0);
                        result.cycles += stall;
                        result.wb_stall = stall;
                        self.stats.wb_stall_cycles += u64::from(stall);
                        record_wb_events(tracer, wb, self.clock, stall);
                    } else {
                        result.cycles += self.config.timing.write_cycles;
                    }
                }
            } else if write {
                if let Some(wb) = &mut self.write_buffer {
                    let stall = wb.store(self.clock, pa.0);
                    result.cycles += stall;
                    result.wb_stall = stall;
                    self.stats.wb_stall_cycles += u64::from(stall);
                    record_wb_events(tracer, wb, self.clock, stall);
                }
            }
        } else {
            // Uncached access.
            self.stats.uncached += 1;
            result.cycles += if write {
                self.config.timing.uncached_write_cycles
            } else {
                self.config.timing.uncached_read_cycles
            };
        }

        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        self.clock += u64::from(result.cycles) + 1;
        Ok(result)
    }

    /// Flush the entire TLB; returns direct cycles (the refill misses come
    /// later). No-op when no TLB exists.
    pub fn flush_tlb(&mut self) -> u32 {
        match &mut self.tlb {
            Some(tlb) => {
                tlb.flush_unlocked();
                let cycles = self.config.timing.tlb_flush_cycles;
                self.clock += u64::from(cycles);
                cycles
            }
            None => 0,
        }
    }

    /// Flush one page from the TLB (e.g. after a PTE change).
    pub fn flush_tlb_page(&mut self, va: VirtAddr, asid: Asid) -> bool {
        match &mut self.tlb {
            Some(tlb) => tlb.flush_page(va.vpn(), asid),
            None => false,
        }
    }

    /// Flush every line of `va`'s page from the cache; returns
    /// `(lines_examined, cycles)`. The clock advances by the cycles.
    pub fn flush_cache_page(&mut self, va: VirtAddr) -> (u32, u32) {
        let asid = self.current;
        match &mut self.cache {
            Some(cache) => {
                let out = cache.flush_page(va.0, asid);
                self.clock += u64::from(out.1);
                out
            }
            None => (0, 0),
        }
    }

    /// Cycles needed for the write buffer to drain, from the current clock.
    #[must_use]
    pub fn write_buffer_drain_time(&self) -> u32 {
        self.write_buffer
            .as_ref()
            .map_or(0, |wb| wb.drain_time(self.clock))
    }

    /// Borrow the TLB, if present.
    #[must_use]
    pub fn tlb(&self) -> Option<&Tlb> {
        self.tlb.as_ref()
    }

    /// Borrow the cache, if present.
    #[must_use]
    pub fn cache(&self) -> Option<&Cache> {
        self.cache.as_ref()
    }

    /// Mutably borrow the cache, if present.
    pub fn cache_mut(&mut self) -> Option<&mut Cache> {
        self.cache.as_mut()
    }

    /// Borrow the write buffer, if present.
    #[must_use]
    pub fn write_buffer(&self) -> Option<&WriteBuffer> {
        self.write_buffer.as_ref()
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Reset statistics (state untouched).
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
        if let Some(tlb) = &mut self.tlb {
            tlb.reset_stats();
        }
        if let Some(cache) = &mut self.cache {
            cache.reset_stats();
        }
    }

    /// Warm the cache lines for `len` bytes starting at `va` without
    /// statistics — models the paper's repeated-call measurement methodology.
    pub fn warm_cache(&mut self, va: VirtAddr, len: u32) {
        let asid = self.current;
        let Some(cache) = &mut self.cache else { return };
        let line = cache.config().line_bytes;
        let addr = match cache.config().addressing {
            Addressing::Virtual => va.0,
            // Warm on the virtual address too for physical caches: our
            // identity-ish pfn allocation keeps conflicts representative.
            Addressing::Physical => va.0,
        };
        let mut offset = 0;
        while offset < len + line {
            cache.warm(addr.wrapping_add(offset), asid);
            offset += line;
        }
    }
}

/// Report a write-buffer enqueue (and the stall it caused, if any) for one
/// buffered store at memory-clock `now`.
fn record_wb_events<T: Tracer>(tracer: &mut T, wb: &WriteBuffer, now: u64, stall: u32) {
    if !tracer.enabled() {
        return;
    }
    let depth = u64::try_from(wb.occupancy(now)).unwrap_or(u64::MAX);
    tracer.record(
        Event::instant("wb enqueue", Category::WriteBuffer, now)
            .on(0, MEM_TRACK)
            .with_arg("depth", depth),
    );
    if stall > 0 {
        tracer.record(
            Event::instant("wb stall", Category::WriteBuffer, now)
                .on(0, MEM_TRACK)
                .with_arg("stall_cycles", u64::from(stall)),
        );
    }
}

/// Round `bytes` up to whole pages.
#[must_use]
pub fn pages_for(bytes: u32) -> u32 {
    bytes.div_ceil(PAGE_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform() -> MemorySystem {
        MemorySystem::new(MemorySystemConfig::uniform_mapped())
    }

    #[test]
    fn unmapped_page_faults() {
        let mut mem = uniform();
        let err = mem
            .access(VirtAddr(0x1000), AccessKind::Read, Mode::Kernel)
            .unwrap_err();
        assert_eq!(err.kind, FaultKind::PageNotResident);
        assert_eq!(mem.stats().faults, 1);
    }

    #[test]
    fn mapped_page_reads_and_writes() {
        let mut mem = uniform();
        mem.map_page(KERNEL_ASID, VirtAddr(0x1000), Protection::RW);
        let first = mem
            .access(VirtAddr(0x1000), AccessKind::Read, Mode::Kernel)
            .unwrap();
        assert!(first.tlb_miss);
        let second = mem
            .access(VirtAddr(0x1004), AccessKind::Write, Mode::Kernel)
            .unwrap();
        assert!(
            !second.tlb_miss,
            "TLB entry must be installed by the refill"
        );
        assert_eq!(mem.stats().reads, 1);
        assert_eq!(mem.stats().writes, 1);
    }

    #[test]
    fn protection_violation_faults() {
        let mut mem = uniform();
        mem.map_page(KERNEL_ASID, VirtAddr(0x1000), Protection::READ);
        let err = mem
            .access(VirtAddr(0x1000), AccessKind::Write, Mode::Kernel)
            .unwrap_err();
        assert_eq!(err.kind, FaultKind::ProtectionViolation);
    }

    #[test]
    fn protect_page_invalidates_tlb_entry() {
        let mut mem = uniform();
        mem.map_page(KERNEL_ASID, VirtAddr(0x1000), Protection::RW);
        mem.access(VirtAddr(0x1000), AccessKind::Write, Mode::Kernel)
            .unwrap();
        assert!(mem.protect_page(KERNEL_ASID, VirtAddr(0x1000), Protection::READ));
        let err = mem
            .access(VirtAddr(0x1000), AccessKind::Write, Mode::Kernel)
            .unwrap_err();
        assert_eq!(
            err.kind,
            FaultKind::ProtectionViolation,
            "stale TLB entry must not win"
        );
    }

    #[test]
    fn unmap_page_invalidates_tlb_entry() {
        let mut mem = uniform();
        mem.map_page(KERNEL_ASID, VirtAddr(0x1000), Protection::RW);
        mem.access(VirtAddr(0x1000), AccessKind::Read, Mode::Kernel)
            .unwrap();
        assert!(mem.unmap_page(KERNEL_ASID, VirtAddr(0x1000)).is_some());
        assert!(mem
            .access(VirtAddr(0x1000), AccessKind::Read, Mode::Kernel)
            .is_err());
    }

    #[test]
    fn mips_layout_kernel_only_segments() {
        let mut config = MemorySystemConfig::uniform_mapped();
        config.layout = AddressLayout::Mips;
        let mut mem = MemorySystem::new(config);
        let err = mem
            .access(VirtAddr(0x8000_0000), AccessKind::Read, Mode::User)
            .unwrap_err();
        assert_eq!(err.kind, FaultKind::AddressError);
        // kseg0 in kernel mode: unmapped, no page table needed.
        let ok = mem
            .access(VirtAddr(0x8000_0000), AccessKind::Read, Mode::Kernel)
            .unwrap();
        assert!(!ok.tlb_miss);
    }

    #[test]
    fn mips_kseg1_is_uncached() {
        let mut config = MemorySystemConfig::uniform_mapped();
        config.layout = AddressLayout::Mips;
        let mut mem = MemorySystem::new(config);
        let access = mem
            .access(VirtAddr(0xa000_0000), AccessKind::Read, Mode::Kernel)
            .unwrap();
        assert_eq!(
            access.cycles,
            MemoryTiming::workstation().uncached_read_cycles
        );
        assert_eq!(mem.stats().uncached, 1);
    }

    #[test]
    fn mips_kseg2_misses_count_as_kernel_misses() {
        let mut config = MemorySystemConfig::uniform_mapped();
        config.layout = AddressLayout::Mips;
        config.tlb_refill = TlbRefill::Software {
            user_cycles: 12,
            kernel_cycles: 300,
        };
        let mut mem = MemorySystem::new(config);
        mem.map_page(KERNEL_ASID, VirtAddr(0xc000_0000), Protection::RW);
        let access = mem
            .access(VirtAddr(0xc000_0000), AccessKind::Read, Mode::Kernel)
            .unwrap();
        assert!(access.tlb_miss);
        assert_eq!(access.cycles, 300);
        assert_eq!(mem.stats().tlb_kernel_misses, 1);
        assert_eq!(mem.stats().tlb_user_misses, 0);
    }

    #[test]
    fn software_user_refill_is_cheap() {
        let mut config = MemorySystemConfig::uniform_mapped();
        config.tlb_refill = TlbRefill::Software {
            user_cycles: 12,
            kernel_cycles: 300,
        };
        let mut mem = MemorySystem::new(config);
        mem.create_space(Asid(1));
        mem.map_page(Asid(1), VirtAddr(0x4000), Protection::RW);
        mem.switch_to(Asid(1));
        let access = mem
            .access(VirtAddr(0x4000), AccessKind::Read, Mode::User)
            .unwrap();
        assert_eq!(access.cycles, 12);
        assert_eq!(mem.stats().tlb_user_misses, 1);
    }

    #[test]
    fn untagged_tlb_pays_on_switch() {
        let mut config = MemorySystemConfig::uniform_mapped();
        config.tlb = Some(TlbConfig::untagged(32));
        let mut mem = MemorySystem::new(config);
        mem.create_space(Asid(1));
        mem.create_space(Asid(2));
        mem.map_page(Asid(1), VirtAddr(0x1000), Protection::RW);
        mem.switch_to(Asid(1));
        mem.access(VirtAddr(0x1000), AccessKind::Read, Mode::User)
            .unwrap();
        let cost = mem.switch_to(Asid(2));
        assert_eq!(cost.tlb_entries_flushed, 1);
        assert!(cost.tlb_flush_cycles > 0);
    }

    #[test]
    fn tagged_tlb_switch_is_free() {
        let mut mem = uniform();
        mem.create_space(Asid(1));
        mem.create_space(Asid(2));
        mem.map_page(Asid(1), VirtAddr(0x1000), Protection::RW);
        mem.switch_to(Asid(1));
        mem.access(VirtAddr(0x1000), AccessKind::Read, Mode::User)
            .unwrap();
        let cost = mem.switch_to(Asid(2));
        assert_eq!(cost.cycles(), 0);
        mem.switch_to(Asid(1));
        let again = mem
            .access(VirtAddr(0x1000), AccessKind::Read, Mode::User)
            .unwrap();
        assert!(!again.tlb_miss, "tagged entries survive the switch");
    }

    #[test]
    fn virtual_untagged_cache_flushes_on_switch() {
        let mut config = MemorySystemConfig::uniform_mapped();
        config.cache = Some(CacheConfig::virtual_untagged(4096, 32, 12));
        let mut mem = MemorySystem::new(config);
        mem.create_space(Asid(1));
        mem.create_space(Asid(2));
        mem.map_page(Asid(1), VirtAddr(0x1000), Protection::RW);
        mem.switch_to(Asid(1));
        mem.access(VirtAddr(0x1000), AccessKind::Read, Mode::User)
            .unwrap();
        let cost = mem.switch_to(Asid(2));
        assert!(cost.cache_flush_cycles > 0);
        assert_eq!(cost.cache_lines_flushed, 1);
    }

    #[test]
    fn destroy_space_purges_tlb() {
        let mut mem = uniform();
        mem.create_space(Asid(3));
        mem.map_page(Asid(3), VirtAddr(0x1000), Protection::RW);
        mem.switch_to(Asid(3));
        mem.access(VirtAddr(0x1000), AccessKind::Read, Mode::User)
            .unwrap();
        assert!(mem.destroy_space(Asid(3)));
        assert!(mem.tlb().unwrap().probe(1, Asid(3)).is_none());
        assert!(!mem.destroy_space(KERNEL_ASID));
    }

    #[test]
    fn clock_advances_with_accesses() {
        let mut mem = uniform();
        mem.map_page(KERNEL_ASID, VirtAddr(0x1000), Protection::RW);
        let before = mem.clock();
        mem.access(VirtAddr(0x1000), AccessKind::Read, Mode::Kernel)
            .unwrap();
        assert!(mem.clock() > before);
    }

    #[test]
    fn traced_access_reports_tlb_and_wb_events() {
        use osarch_trace::EventTracer;
        let mut config = MemorySystemConfig::uniform_mapped();
        config.write_buffer = Some(WriteBufferConfig::decstation_3100());
        let mut mem = MemorySystem::new(config);
        mem.map_page(KERNEL_ASID, VirtAddr(0x1000), Protection::RW);
        let mut tracer = EventTracer::new();
        let access = mem
            .access_with(
                VirtAddr(0x1000),
                AccessKind::Write,
                Mode::Kernel,
                &mut tracer,
            )
            .unwrap();
        assert!(access.tlb_miss);
        let miss = tracer
            .events()
            .iter()
            .find(|e| e.cat == Category::Tlb && e.name == "tlb miss")
            .expect("a tlb miss event");
        assert_eq!(
            miss.arg("refill_cycles"),
            Some(u64::from(access.cycles - access.wb_stall))
        );
        assert!(tracer
            .events()
            .iter()
            .any(|e| e.cat == Category::WriteBuffer && e.name == "wb enqueue"));
    }

    #[test]
    fn traced_access_is_bit_identical_to_untraced() {
        use osarch_trace::EventTracer;
        let build = || {
            let mut config = MemorySystemConfig::uniform_mapped();
            config.write_buffer = Some(WriteBufferConfig::decstation_3100());
            let mut mem = MemorySystem::new(config);
            mem.map_page(KERNEL_ASID, VirtAddr(0x1000), Protection::RW);
            mem
        };
        let mut plain = build();
        let mut traced = build();
        let mut tracer = EventTracer::new();
        for i in 0..12u32 {
            let va = VirtAddr(0x1000 + (i % 64) * 4);
            let a = plain.access(va, AccessKind::Write, Mode::Kernel).unwrap();
            let b = traced
                .access_with(va, AccessKind::Write, Mode::Kernel, &mut tracer)
                .unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(plain.clock(), traced.clock());
        assert_eq!(plain.stats(), traced.stats());
    }

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(pages_for(0), 0);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(PAGE_SIZE), 1);
        assert_eq!(pages_for(PAGE_SIZE + 1), 2);
    }
}
