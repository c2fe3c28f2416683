//! The seven processor models of the study.
//!
//! Each [`ArchSpec`] encodes the architectural features the paper holds
//! responsible for operating-system primitive cost: register-file and
//! pipeline state sizes (Table 6), register windows, exposed pipelines,
//! trap vectoring style, microcoded kernel-entry and procedure-call
//! instructions, delay slots, write-buffer organisation, TLB and cache
//! structure, and the availability of an atomic test-and-set.
//!
//! Timing parameters are calibrated once, here, against the paper's published
//! measurements (see DESIGN.md §6) and never adjusted per experiment.

use osarch_mem::{
    AddressLayout, Addressing, CacheConfig, MemorySystemConfig, MemoryTiming, PageTableSpec,
    TlbConfig, TlbRefill, WriteBufferConfig, WritePolicy,
};
use std::fmt;

/// The processors examined by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Arch {
    /// DEC CVAX (VAXstation 3200, 11.1 MHz) — the CISC baseline.
    Cvax,
    /// Motorola 88000 (Tektronix XD88/01, 20 MHz).
    M88000,
    /// MIPS R2000 (DECstation 3100, 16.67 MHz).
    R2000,
    /// MIPS R3000 (DECstation 5000/200, 25 MHz).
    R3000,
    /// Sun SPARC (SPARCstation 1+, 25 MHz).
    Sparc,
    /// Intel i860 (33 MHz) — instruction counts only in the paper.
    I860,
    /// IBM RS6000 — appears in the thread-state table.
    Rs6000,
}

impl Arch {
    /// Number of modelled architectures (`Arch::all().len()`).
    pub const COUNT: usize = 7;

    /// This architecture's position in [`Arch::all`] — a dense index for
    /// per-architecture tables and caches.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// All modelled architectures, in the paper's table order.
    #[must_use]
    pub fn all() -> [Arch; 7] {
        [
            Arch::Cvax,
            Arch::M88000,
            Arch::R2000,
            Arch::R3000,
            Arch::Sparc,
            Arch::I860,
            Arch::Rs6000,
        ]
    }

    /// The architectures of Table 1 (measured timings).
    #[must_use]
    pub fn timed() -> [Arch; 5] {
        [
            Arch::Cvax,
            Arch::M88000,
            Arch::R2000,
            Arch::R3000,
            Arch::Sparc,
        ]
    }

    /// The architectures of Table 2 (instruction counts).
    #[must_use]
    pub fn counted() -> [Arch; 5] {
        [
            Arch::Cvax,
            Arch::M88000,
            Arch::R2000,
            Arch::Sparc,
            Arch::I860,
        ]
    }

    /// The full specification for this architecture.
    #[must_use]
    pub fn spec(self) -> ArchSpec {
        match self {
            Arch::Cvax => cvax(),
            Arch::M88000 => m88000(),
            Arch::R2000 => r2000(),
            Arch::R3000 => r3000(),
            Arch::Sparc => sparc(),
            Arch::I860 => i860(),
            Arch::Rs6000 => rs6000(),
        }
    }

    /// The display label: the name every table, key and document prints.
    #[must_use]
    pub fn label(self) -> &'static str {
        NAMES[self.index()].0
    }

    /// The other spellings that name this architecture (vendor prefixes).
    #[must_use]
    pub fn aliases(self) -> &'static [&'static str] {
        NAMES[self.index()].1
    }

    /// The architecture `name` spells: its label or an alias, in any ASCII
    /// case. Never allocates.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Arch> {
        Arch::all().into_iter().find(|arch| {
            arch.label().eq_ignore_ascii_case(name)
                || arch.aliases().iter().any(|a| a.eq_ignore_ascii_case(name))
        })
    }
}

/// The one architecture name table, in [`Arch::all`] order: each
/// machine's label and its aliases. Display, every name parser (CLI,
/// serve protocol, spec documents) and every "valid names" list read it.
const NAMES: [(&str, &[&str]); Arch::COUNT] = [
    ("CVAX", &[]),
    ("88000", &["m88000"]),
    ("R2000", &["mips-r2000"]),
    ("R3000", &["mips-r3000"]),
    ("SPARC", &[]),
    ("i860", &[]),
    ("RS6000", &[]),
];

impl fmt::Display for Arch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Cost of a microcoded operation (CISC-style: one instruction, many cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicrocodeCost {
    /// Microcycles consumed.
    pub cycles: u32,
    /// Memory references the microcode performs.
    pub mem_refs: u32,
}

/// SPARC-style register-window configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Number of windows (8 on the SPARCstation 1+).
    pub windows: u32,
    /// Registers saved per window spill (16: 8 locals + 8 ins).
    pub words_per_window: u32,
    /// Whether the current-window pointer is privileged, forcing user-level
    /// thread switches through the kernel (Section 4.1).
    pub cwp_privileged: bool,
    /// Extra instructions per spill/fill beyond the register transfers
    /// (window-trap entry/exit and pointer manipulation).
    pub spill_overhead_instrs: u32,
    /// Extra non-memory cycles per spill/fill.
    pub spill_overhead_cycles: u32,
}

/// A complete, calibrated model of one processor and its workstation
/// memory system.
#[derive(Debug, Clone)]
pub struct ArchSpec {
    /// Which architecture this describes.
    pub arch: Arch,
    /// Clock rate in MHz (converts cycles to microseconds).
    pub clock_mhz: f64,
    /// Integer application performance relative to the CVAX
    /// (the SPECmark row of Table 1; CVAX = 1.0).
    pub application_speedup: f64,

    // --- Processor state (Table 6, 32-bit words) ---
    /// General-purpose register words.
    pub int_registers: u32,
    /// Floating-point state words.
    pub fp_state_words: u32,
    /// Miscellaneous state words (PSW, pipeline registers, etc.).
    pub misc_state_words: u32,

    // --- Calling convention ---
    /// Registers a trap handler must save to call C code.
    pub trap_saved_registers: u32,

    // --- Register windows ---
    /// Window configuration, if the architecture has windows.
    pub windows: Option<WindowConfig>,
    /// Average windows spilled+filled per context switch (Sun Unix measured 3).
    pub avg_windows_on_switch: u32,

    // --- Pipelines ---
    /// Whether pipeline state is software-visible and must be managed on traps.
    pub exposed_pipelines: bool,
    /// Pipeline control registers to read/save (and restore) on an exception.
    pub pipeline_control_regs: u32,
    /// Whether a fault freezes the FPU, which must be restarted before the
    /// handler can proceed (Motorola 88000, Section 3.1).
    pub fpu_freeze_on_fault: bool,
    /// Instructions to save/restore the FP pipeline when it may be in use
    /// (Intel i860: "60 or more").
    pub fpu_pipeline_save_instrs: u32,
    /// Cycles waiting for the FPU pipeline to drain.
    pub fpu_drain_cycles: u32,
    /// Whether interrupts are precise (RS6000, SPARC, R2000/R3000).
    pub precise_interrupts: bool,

    // --- Traps ---
    /// Whether exceptions vector directly to distinct handlers.
    pub vectored_traps: bool,
    /// Instructions of software dispatch when vectoring is shared.
    pub trap_dispatch_instrs: u32,
    /// Hardware cycles to enter a trap (pipeline flush etc.) on a RISC.
    pub trap_entry_cycles: u32,
    /// Microcoded system-call entry/exit (CVAX CHMK / REI).
    pub microcoded_trap: Option<MicrocodeCost>,
    /// Microcoded procedure call/return (VAX CALLS / RET).
    pub microcoded_call: Option<MicrocodeCost>,
    /// Microcoded context-switch support (VAX SVPCTX / LDPCTX).
    pub microcoded_context_switch: Option<MicrocodeCost>,
    /// Whether the hardware reports the faulting address (i860: no).
    pub provides_fault_address: bool,
    /// Instructions to recover the fault address by decoding the faulting
    /// instruction when the hardware withholds it (i860: 26).
    pub fault_decode_instrs: u32,

    // --- Delay slots ---
    /// Whether branches and loads expose delay slots.
    pub has_delay_slots: bool,
    /// Of every `unfilled_slot_period` delay slots in trap-path code, one is
    /// emitted as an explicit nop ("nearly 50% … unfilled" on the R2000 means
    /// a period of 2).
    pub unfilled_slot_period: u32,

    // --- Synchronisation ---
    /// Whether an atomic test-and-set instruction exists (not on MIPS).
    pub has_atomic_tas: bool,
    /// Cycles of the atomic operation when present.
    pub tas_cycles: u32,

    // --- Base per-op cycles ---
    /// Cycles of a simple ALU instruction.
    pub alu_cycles: u32,
    /// Base cycles of a load (cache extra added by the memory system).
    pub load_cycles: u32,
    /// Base cycles of a store.
    pub store_cycles: u32,
    /// Cycles of a branch.
    pub branch_cycles: u32,
    /// Cycles to read a control/special register.
    pub control_read_cycles: u32,
    /// Cycles to write a control/special register.
    pub control_write_cycles: u32,
    /// Cycles to write one TLB entry from software.
    pub tlb_write_cycles: u32,
    /// Extra cycles to install a new address-space context in the MMU
    /// (dual-CMMU loads on the 88000, dirbase write on the i860, context
    /// register on SPARC).
    pub asid_switch_cycles: u32,
    /// Instructions per cache line in an explicit flush loop.
    pub flush_instrs_per_line: u32,

    // --- Memory system ---
    /// The workstation memory-system configuration.
    pub mem: MemorySystemConfig,
}

impl ArchSpec {
    /// Convert a cycle count to microseconds on this machine.
    #[must_use]
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_mhz
    }

    /// Total words of processor state a thread context switch moves
    /// (Table 6: registers + FP state + miscellaneous state).
    #[cfg(test)]
    #[must_use]
    pub fn thread_state_words(&self) -> u32 {
        self.int_registers + self.fp_state_words + self.misc_state_words
    }

    /// Words moved for an integer-only thread (no FP state).
    #[must_use]
    pub fn integer_thread_state_words(&self) -> u32 {
        self.int_registers + self.misc_state_words
    }

    /// A hypothetical next-generation implementation: the core clock is
    /// `factor` times faster, but main memory keeps its *nanosecond*
    /// latency — so every memory-bound cost grows in cycles. This is the
    /// memory wall the paper's conclusion warns about ("unless architects
    /// pay more attention to operating systems … operating system
    /// performance will become a severe bottleneck in next-generation
    /// computer systems").
    ///
    /// # Panics
    ///
    /// Panics when `factor < 1.0`.
    #[must_use]
    pub fn with_scaled_clock(&self, factor: f64) -> ArchSpec {
        assert!(factor >= 1.0, "clock factor must be at least 1");
        let mut spec = self.clone();
        spec.clock_mhz *= factor;
        spec.application_speedup *= factor * 0.9; // integer code scales almost linearly
        let scale = |cycles: u32| ((f64::from(cycles) * factor).round() as u32).max(cycles);
        let timing = &mut spec.mem.timing;
        timing.read_cycles = scale(timing.read_cycles);
        timing.write_cycles = scale(timing.write_cycles);
        timing.uncached_read_cycles = scale(timing.uncached_read_cycles);
        timing.uncached_write_cycles = scale(timing.uncached_write_cycles);
        if let Some(cache) = &mut spec.mem.cache {
            cache.read_miss_penalty = scale(cache.read_miss_penalty);
            cache.write_miss_penalty = scale(cache.write_miss_penalty);
        }
        if let Some(wb) = &mut spec.mem.write_buffer {
            wb.drain_cycles = scale(wb.drain_cycles);
        }
        match &mut spec.mem.tlb_refill {
            osarch_mem::TlbRefill::Software { .. } => {} // handler code scales with the core
            refill @ osarch_mem::TlbRefill::Hardware => {
                let _ = refill; // walk cost already scales via read_cycles
            }
        }
        spec
    }
}

impl fmt::Display for ArchSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {:.2} MHz", self.arch, self.clock_mhz)
    }
}

fn cvax() -> ArchSpec {
    ArchSpec {
        arch: Arch::Cvax,
        clock_mhz: 11.1,
        application_speedup: 1.0,
        int_registers: 16,
        fp_state_words: 0, // integer-only convention: VAX FP regs overlay GPRs
        misc_state_words: 1,
        trap_saved_registers: 6,
        windows: None,
        avg_windows_on_switch: 0,
        exposed_pipelines: false,
        pipeline_control_regs: 0,
        fpu_freeze_on_fault: false,
        fpu_pipeline_save_instrs: 0,
        fpu_drain_cycles: 0,
        precise_interrupts: true,
        vectored_traps: true,
        trap_dispatch_instrs: 0,
        trap_entry_cycles: 0,
        // CHMK + REI together: 4.5 us at 11.1 MHz = 50 cycles.
        microcoded_trap: Some(MicrocodeCost {
            cycles: 20,
            mem_refs: 1,
        }),
        // CALLS + RET: 8.2 us = 91 cycles for the pair.
        microcoded_call: Some(MicrocodeCost {
            cycles: 35,
            mem_refs: 2,
        }),
        // SVPCTX / LDPCTX: most of the 28.3 us context switch.
        microcoded_context_switch: Some(MicrocodeCost {
            cycles: 105,
            mem_refs: 18,
        }),
        provides_fault_address: true,
        fault_decode_instrs: 0,
        has_delay_slots: false,
        unfilled_slot_period: 0,
        has_atomic_tas: true,
        tas_cycles: 8,
        alu_cycles: 3,
        load_cycles: 3,
        store_cycles: 3,
        branch_cycles: 4,
        control_read_cycles: 9, // MFPR: privileged-register reads are microcoded
        control_write_cycles: 12, // MTPR
        tlb_write_cycles: 45,   // TBIS microcode
        asid_switch_cycles: 0,  // LDPCTX covers it
        flush_instrs_per_line: 2,
        mem: MemorySystemConfig {
            layout: AddressLayout::SystemSpace,
            timing: MemoryTiming {
                read_cycles: 5,
                write_cycles: 5,
                uncached_read_cycles: 8,
                uncached_write_cycles: 8,
                tlb_flush_cycles: 12,
            },
            // Untagged 28-entry (fully assoc.) CVAX TLB: purged on every switch.
            tlb: Some(TlbConfig::untagged(64)),
            tlb_refill: TlbRefill::Hardware,
            cache: Some(CacheConfig::physical(65536, 32, WritePolicy::Back, 10)),
            write_buffer: None,
            page_table: PageTableSpec::Linear {
                extra_indirection: true,
            },
        },
    }
}

fn m88000() -> ArchSpec {
    ArchSpec {
        arch: Arch::M88000,
        clock_mhz: 20.0,
        application_speedup: 3.5,
        int_registers: 32,
        fp_state_words: 0, // FPU register file shared with integer on 88100
        misc_state_words: 27,
        trap_saved_registers: 16,
        windows: None,
        avg_windows_on_switch: 0,
        exposed_pipelines: true,
        // "nearly 30 internal registers" of pipeline state.
        pipeline_control_regs: 27,
        fpu_freeze_on_fault: true,
        fpu_pipeline_save_instrs: 0,
        fpu_drain_cycles: 12,
        precise_interrupts: false,
        vectored_traps: true,
        trap_dispatch_instrs: 2,
        trap_entry_cycles: 4,
        microcoded_trap: None,
        microcoded_call: None,
        microcoded_context_switch: None,
        provides_fault_address: true,
        fault_decode_instrs: 0,
        has_delay_slots: true,
        unfilled_slot_period: 3,
        has_atomic_tas: true, // xmem
        tas_cycles: 6,
        alu_cycles: 1,
        load_cycles: 1,
        store_cycles: 1,
        branch_cycles: 1,
        control_read_cycles: 2,
        control_write_cycles: 2,
        tlb_write_cycles: 44,    // CMMU probe + invalidate over the M-bus
        asid_switch_cycles: 150, // both CMMUs reload their area pointers
        flush_instrs_per_line: 2,
        mem: MemorySystemConfig {
            layout: AddressLayout::SystemSpace,
            timing: MemoryTiming {
                read_cycles: 7,
                write_cycles: 7,
                uncached_read_cycles: 9,
                uncached_write_cycles: 9,
                tlb_flush_cycles: 16,
            },
            // 88200 CMMU PATC: entries carry a supervisor/user bit but no
            // process identifier, so user entries die on every address-space
            // change — effectively untagged.
            tlb: Some(TlbConfig::untagged(56)),
            tlb_refill: TlbRefill::Hardware,
            cache: Some(CacheConfig::physical(16384, 16, WritePolicy::Through, 9)),
            write_buffer: Some(WriteBufferConfig {
                depth: 3,
                drain_cycles: 4,
                page_mode: false,
            }),
            page_table: PageTableSpec::ThreeLevel,
        },
    }
}

fn mips_common(
    arch: Arch,
    clock_mhz: f64,
    speedup: f64,
    wb: WriteBufferConfig,
    miss: u32,
) -> ArchSpec {
    ArchSpec {
        arch,
        clock_mhz,
        application_speedup: speedup,
        int_registers: 32,
        fp_state_words: 32,
        misc_state_words: 5,
        trap_saved_registers: 16,
        windows: None,
        avg_windows_on_switch: 0,
        exposed_pipelines: false,
        pipeline_control_regs: 0,
        fpu_freeze_on_fault: false,
        fpu_pipeline_save_instrs: 0,
        fpu_drain_cycles: 0,
        precise_interrupts: true,
        // "nearly all exceptions on the MIPS R2000 … are vectored through one
        // handler": software dispatch.
        vectored_traps: false,
        trap_dispatch_instrs: 10,
        trap_entry_cycles: 3,
        microcoded_trap: None,
        microcoded_call: None,
        microcoded_context_switch: None,
        provides_fault_address: true,
        fault_decode_instrs: 0,
        has_delay_slots: true,
        // "Nearly 50% of the delay slots in this code path are unfilled."
        unfilled_slot_period: 2,
        has_atomic_tas: false, // "The MIPS R2000/R3000 has no atomic semaphore instruction."
        tas_cycles: 0,
        alu_cycles: 1,
        load_cycles: 1,
        store_cycles: 1,
        branch_cycles: 1,
        control_read_cycles: 2,
        control_write_cycles: 2,
        tlb_write_cycles: 3,
        asid_switch_cycles: 0, // an EntryHi write, nothing more
        flush_instrs_per_line: 2,
        mem: MemorySystemConfig {
            layout: AddressLayout::Mips,
            timing: MemoryTiming {
                read_cycles: 6,
                write_cycles: 6,
                uncached_read_cycles: 9,
                uncached_write_cycles: 9,
                tlb_flush_cycles: 6,
            },
            tlb: Some(TlbConfig::tagged(64)),
            tlb_refill: TlbRefill::Software {
                user_cycles: 12,
                kernel_cycles: 294,
            },
            cache: Some(CacheConfig::physical(65536, 4, WritePolicy::Through, miss)),
            write_buffer: Some(wb),
            page_table: PageTableSpec::Software,
        },
    }
}

fn r2000() -> ArchSpec {
    mips_common(
        Arch::R2000,
        16.67,
        4.2,
        WriteBufferConfig::decstation_3100(),
        12,
    )
}

fn r3000() -> ArchSpec {
    let mut spec = mips_common(
        Arch::R3000,
        25.0,
        6.7,
        WriteBufferConfig::decstation_5000(),
        14,
    );
    // The DECstation 5000's coprocessor-0 accesses synchronise with its
    // deeper memory pipeline.
    spec.control_write_cycles = 4;
    spec
}

fn sparc() -> ArchSpec {
    ArchSpec {
        arch: Arch::Sparc,
        clock_mhz: 25.0,
        application_speedup: 4.3,
        // 8 windows x 16 + 8 globals = 136 (Table 6).
        int_registers: 136,
        fp_state_words: 32,
        misc_state_words: 6,
        trap_saved_registers: 12,
        windows: Some(WindowConfig {
            windows: 8,
            words_per_window: 16,
            cwp_privileged: true,
            spill_overhead_instrs: 26,
            spill_overhead_cycles: 50,
        }),
        // "for SPARC systems with 8 windows, on average three need to be
        // saved/restored on each context switch."
        avg_windows_on_switch: 3,
        exposed_pipelines: false,
        pipeline_control_regs: 0,
        fpu_freeze_on_fault: false,
        fpu_pipeline_save_instrs: 0,
        fpu_drain_cycles: 0,
        precise_interrupts: true,
        vectored_traps: true,
        trap_dispatch_instrs: 2,
        trap_entry_cycles: 4,
        microcoded_trap: None,
        microcoded_call: None,
        microcoded_context_switch: None,
        provides_fault_address: true,
        fault_decode_instrs: 0,
        has_delay_slots: true,
        unfilled_slot_period: 3,
        has_atomic_tas: true, // ldstub
        tas_cycles: 5,
        alu_cycles: 1,
        load_cycles: 1,
        store_cycles: 2, // SS1+ store takes 2 cycles on the SBus memory path
        branch_cycles: 1,
        control_read_cycles: 6,   // rd %psr and friends
        control_write_cycles: 14, // wr %psr/%wim needs 3 delay slots + flush
        tlb_write_cycles: 20,     // MMU probe/flush through alternate space
        asid_switch_cycles: 8,    // context register write
        flush_instrs_per_line: 2,
        mem: MemorySystemConfig {
            layout: AddressLayout::SystemSpace,
            timing: MemoryTiming {
                read_cycles: 8,
                write_cycles: 8,
                uncached_read_cycles: 11,
                uncached_write_cycles: 11,
                tlb_flush_cycles: 8,
            },
            // SPARC/Cypress: tagged, with a lockable region (Section 3.2).
            tlb: Some(TlbConfig::tagged_lockable(64, 8)),
            tlb_refill: TlbRefill::Hardware,
            cache: Some(CacheConfig {
                size_bytes: 65536,
                line_bytes: 16,
                assoc: 1,
                addressing: Addressing::Virtual,
                write_policy: WritePolicy::Through,
                read_miss_penalty: 13,
                write_miss_penalty: 0,
                tagged: true, // context tags avoid switch flushes
                flush_cycles_per_line: 1,
            }),
            write_buffer: Some(WriteBufferConfig {
                depth: 4,
                drain_cycles: 6,
                page_mode: false,
            }),
            page_table: PageTableSpec::ThreeLevel,
        },
    }
}

fn i860() -> ArchSpec {
    ArchSpec {
        arch: Arch::I860,
        clock_mhz: 33.3,
        application_speedup: 7.0,
        int_registers: 32,
        fp_state_words: 32,
        misc_state_words: 9,
        trap_saved_registers: 16,
        windows: None,
        avg_windows_on_switch: 0,
        exposed_pipelines: true,
        pipeline_control_regs: 9,
        fpu_freeze_on_fault: false,
        // "the save/restore process adds 60 or more instructions to i860 page
        // fault and other exception handling."
        fpu_pipeline_save_instrs: 60,
        fpu_drain_cycles: 12,
        precise_interrupts: false,
        // "all exceptions on the Intel i860 are vectored through one handler."
        vectored_traps: false,
        trap_dispatch_instrs: 12,
        trap_entry_cycles: 4,
        microcoded_trap: None,
        microcoded_call: None,
        microcoded_context_switch: None,
        // "the processor provides no information on the faulting address."
        provides_fault_address: false,
        fault_decode_instrs: 26,
        has_delay_slots: true,
        unfilled_slot_period: 3,
        has_atomic_tas: true, // lock-prefixed sequences
        tas_cycles: 8,
        alu_cycles: 1,
        load_cycles: 1,
        store_cycles: 1,
        branch_cycles: 1,
        control_read_cycles: 2,
        control_write_cycles: 2,
        tlb_write_cycles: 3,
        asid_switch_cycles: 30, // dirbase reload
        flush_instrs_per_line: 2,
        mem: MemorySystemConfig {
            layout: AddressLayout::SystemSpace,
            timing: MemoryTiming {
                read_cycles: 8,
                write_cycles: 8,
                uncached_read_cycles: 10,
                uncached_write_cycles: 10,
                tlb_flush_cycles: 8,
            },
            tlb: Some(TlbConfig::untagged(64)),
            tlb_refill: TlbRefill::Hardware,
            // 8 KB virtually addressed, untagged data cache: 256 32-byte
            // lines. A PTE change must sweep all of it (Section 3.2); the
            // sweep is 536 of the 559 instructions in Table 2.
            cache: Some(CacheConfig::virtual_untagged(8192, 32, 12)),
            write_buffer: None,
            page_table: PageTableSpec::ThreeLevel,
        },
    }
}

fn rs6000() -> ArchSpec {
    ArchSpec {
        arch: Arch::Rs6000,
        clock_mhz: 25.0,
        application_speedup: 7.4,
        int_registers: 32,
        fp_state_words: 64, // 32 x 64-bit FP registers
        misc_state_words: 4,
        trap_saved_registers: 16,
        windows: None,
        avg_windows_on_switch: 0,
        exposed_pipelines: false,
        pipeline_control_regs: 0,
        fpu_freeze_on_fault: false,
        fpu_pipeline_save_instrs: 0,
        fpu_drain_cycles: 0,
        // "the IBM RS6000 … implement[s] precise interrupts."
        precise_interrupts: true,
        vectored_traps: true,
        trap_dispatch_instrs: 2,
        trap_entry_cycles: 3,
        microcoded_trap: None,
        microcoded_call: None,
        microcoded_context_switch: None,
        provides_fault_address: true,
        fault_decode_instrs: 0,
        has_delay_slots: false,
        unfilled_slot_period: 0,
        has_atomic_tas: true,
        tas_cycles: 5,
        alu_cycles: 1,
        load_cycles: 1,
        store_cycles: 1,
        branch_cycles: 1,
        control_read_cycles: 2,
        control_write_cycles: 2,
        tlb_write_cycles: 3,
        asid_switch_cycles: 4,
        flush_instrs_per_line: 2,
        mem: MemorySystemConfig {
            layout: AddressLayout::SystemSpace,
            timing: MemoryTiming {
                read_cycles: 6,
                write_cycles: 6,
                uncached_read_cycles: 8,
                uncached_write_cycles: 8,
                tlb_flush_cycles: 6,
            },
            tlb: Some(TlbConfig::tagged(128)),
            tlb_refill: TlbRefill::Hardware,
            cache: Some(CacheConfig::physical(65536, 64, WritePolicy::Back, 9)),
            write_buffer: None,
            page_table: PageTableSpec::Software, // inverted table, OS-visible
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_build() {
        for arch in Arch::all() {
            let spec = arch.spec();
            assert_eq!(spec.arch, arch);
            assert!(spec.clock_mhz > 0.0);
        }
    }

    #[test]
    fn thread_state_matches_table_6() {
        // (arch, registers, fp, misc) — Table 6 of the paper.
        let expected = [
            (Arch::Cvax, 16, 0, 1),
            (Arch::M88000, 32, 0, 27),
            (Arch::R2000, 32, 32, 5),
            (Arch::R3000, 32, 32, 5),
            (Arch::Sparc, 136, 32, 6),
            (Arch::I860, 32, 32, 9),
            (Arch::Rs6000, 32, 64, 4),
        ];
        for (arch, regs, fp, misc) in expected {
            let spec = arch.spec();
            assert_eq!(spec.int_registers, regs, "{arch} registers");
            assert_eq!(spec.fp_state_words, fp, "{arch} fp state");
            assert_eq!(spec.misc_state_words, misc, "{arch} misc state");
        }
    }

    #[test]
    fn application_speedups_match_table_1() {
        assert_eq!(Arch::Cvax.spec().application_speedup, 1.0);
        assert_eq!(Arch::M88000.spec().application_speedup, 3.5);
        assert_eq!(Arch::R2000.spec().application_speedup, 4.2);
        assert_eq!(Arch::R3000.spec().application_speedup, 6.7);
        assert_eq!(Arch::Sparc.spec().application_speedup, 4.3);
    }

    #[test]
    fn only_mips_lacks_atomic_tas() {
        for arch in Arch::all() {
            let spec = arch.spec();
            let is_mips = matches!(arch, Arch::R2000 | Arch::R3000);
            assert_eq!(spec.has_atomic_tas, !is_mips, "{arch}");
        }
    }

    #[test]
    fn only_sparc_has_windows() {
        for arch in Arch::all() {
            let has = arch.spec().windows.is_some();
            assert_eq!(has, arch == Arch::Sparc, "{arch}");
        }
    }

    #[test]
    fn i860_withholds_fault_address() {
        assert!(!Arch::I860.spec().provides_fault_address);
        assert_eq!(Arch::I860.spec().fault_decode_instrs, 26);
        for arch in Arch::all() {
            if arch != Arch::I860 {
                assert!(arch.spec().provides_fault_address, "{arch}");
            }
        }
    }

    #[test]
    fn cvax_is_the_only_microcoded_machine() {
        for arch in Arch::all() {
            let micro = arch.spec().microcoded_trap.is_some();
            assert_eq!(micro, arch == Arch::Cvax, "{arch}");
        }
    }

    #[test]
    fn cycles_to_us_uses_the_clock() {
        let spec = Arch::R3000.spec();
        assert!((spec.cycles_to_us(25) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn thread_state_total_is_sum() {
        let spec = Arch::Sparc.spec();
        assert_eq!(spec.thread_state_words(), 136 + 32 + 6);
        assert_eq!(spec.integer_thread_state_words(), 136 + 6);
    }

    #[test]
    fn scaled_clock_keeps_memory_slow() {
        let base = Arch::R3000.spec();
        let fast = base.with_scaled_clock(4.0);
        assert!((fast.clock_mhz - 100.0).abs() < 1e-9);
        assert_eq!(fast.mem.timing.read_cycles, base.mem.timing.read_cycles * 4);
        let cache = fast.mem.cache.unwrap();
        assert_eq!(
            cache.read_miss_penalty,
            base.mem.cache.unwrap().read_miss_penalty * 4
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn sub_unity_clock_scale_panics() {
        let _ = Arch::R3000.spec().with_scaled_clock(0.5);
    }

    #[test]
    fn display_names_match_paper_tables() {
        assert_eq!(Arch::Cvax.to_string(), "CVAX");
        assert_eq!(Arch::M88000.to_string(), "88000");
        assert_eq!(Arch::I860.to_string(), "i860");
    }
}
