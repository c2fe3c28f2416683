//! Per-architecture handler programs for the four primitive OS operations.
//!
//! These are the simulator's equivalent of the paper's hand-written assembly
//! drivers ("the resulting handlers were almost entirely written in
//! assembler"). Each generator consults the [`ArchSpec`] and emits the
//! micro-op sequence that architecture's features force on the operating
//! system:
//!
//! * the CVAX handlers lean on microcode (CHMK/REI, CALLS/RET,
//!   SVPCTX/LDPCTX) and are therefore very short but not cheap per
//!   instruction;
//! * the MIPS handlers vector everything through one software dispatcher,
//!   save registers in bursts that punish the write buffer, and carry the
//!   explicit nops of unfilled delay slots;
//! * the SPARC handlers manage register windows — spilling a frame to make
//!   room for the C call, copying parameters an extra time across the
//!   interposed frame, and flushing an average of three windows per context
//!   switch;
//! * the 88000 handlers read, save and restore exposed pipeline state and
//!   restart the frozen FPU before they can make progress;
//! * the i860 handlers pay for single-point vectoring, decode the faulting
//!   instruction to recover the address the hardware withholds, and sweep
//!   the entire virtually addressed cache on PTE changes and context
//!   switches.
//!
//! Dynamic instruction counts are pinned to Table 2 of the paper by unit
//! tests; cycle counts fall out of executing the programs.

use crate::layout::KernelLayout;
use crate::machine::{USER2_ASID, USER_ASID};
use osarch_cpu::{Arch, ArchSpec, MicroOp, Phase, Program, ProgramBuilder};
use osarch_mem::VirtAddr;

/// The four primitive operations of Tables 1 and 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Primitive {
    /// Enter a null C procedure in the kernel and return.
    NullSyscall,
    /// Take a data-access fault, vector to a null C procedure, return.
    Trap,
    /// Convert a virtual address to its PTE, update protection, update the
    /// translation hardware.
    PteChange,
    /// Save one process context and resume another, switching address spaces.
    ContextSwitch,
}

impl Primitive {
    /// All four primitives, in the paper's row order.
    #[must_use]
    pub fn all() -> [Primitive; 4] {
        [
            Primitive::NullSyscall,
            Primitive::Trap,
            Primitive::PteChange,
            Primitive::ContextSwitch,
        ]
    }

    /// The row label used in the paper's tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Primitive::NullSyscall => "Null system call",
            Primitive::Trap => "Trap",
            Primitive::PteChange => "Page table entry change",
            Primitive::ContextSwitch => "Context switch",
        }
    }

    /// Stable snake_case tag used in JSON schemas and counter keys.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Primitive::NullSyscall => "null_syscall",
            Primitive::Trap => "trap",
            Primitive::PteChange => "pte_change",
            Primitive::ContextSwitch => "context_switch",
        }
    }
}

impl std::fmt::Display for Primitive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The full set of handler programs for one architecture.
#[derive(Debug, Clone)]
pub struct HandlerSet {
    /// Null system call.
    pub syscall: Program,
    /// Data-access fault.
    pub trap: Program,
    /// PTE protection change.
    pub pte_change: Program,
    /// Process context switch.
    pub context_switch: Program,
}

impl HandlerSet {
    /// Generate every handler for `spec`.
    #[must_use]
    pub fn generate(spec: &ArchSpec, layout: &KernelLayout) -> HandlerSet {
        HandlerSet {
            syscall: null_syscall(spec, layout),
            trap: trap_handler(spec, layout),
            pte_change: pte_change(spec, layout),
            context_switch: context_switch(spec, layout),
        }
    }

    /// The program for one primitive.
    #[must_use]
    pub fn program(&self, primitive: Primitive) -> &Program {
        match primitive {
            Primitive::NullSyscall => &self.syscall,
            Primitive::Trap => &self.trap,
            Primitive::PteChange => &self.pte_change,
            Primitive::ContextSwitch => &self.context_switch,
        }
    }
}

// ---------------------------------------------------------------------------
// Null system call
// ---------------------------------------------------------------------------

/// Generate the null-system-call handler for `spec`.
#[must_use]
pub fn null_syscall(spec: &ArchSpec, layout: &KernelLayout) -> Program {
    match spec.arch {
        Arch::Cvax => cvax_syscall(layout),
        Arch::M88000 => m88k_syscall(layout),
        Arch::R2000 | Arch::R3000 => mips_syscall(layout),
        Arch::Sparc => sparc_syscall(layout),
        Arch::I860 => i860_syscall(layout),
        Arch::Rs6000 => generic_syscall(layout),
    }
}

fn cvax_syscall(layout: &KernelLayout) -> Program {
    let mut b = Program::builder("cvax-null-syscall");
    // CHMK: microcoded kernel entry — mode switch, stack switch, PC/PSL push.
    b.phase(Phase::EntryExit).op(MicroOp::TrapEnter);
    // Fetch the syscall code and validate it; microcode left everything ready.
    b.phase(Phase::CallPrep)
        .read_control(2) // PSL, change-mode code
        .alu(2)
        .store(layout.save_area)
        .store(layout.save_area.offset(4));
    // CALLS into the C routine; RET back. Both heavy microcode.
    b.phase(Phase::CallReturn).op(MicroOp::Call);
    b.phase(Phase::Body).alu(2);
    b.phase(Phase::CallReturn).op(MicroOp::Ret);
    // REI: microcoded return to user mode.
    b.phase(Phase::EntryExit).op(MicroOp::TrapReturn);
    b.build()
}

fn mips_syscall(layout: &KernelLayout) -> Program {
    let save = layout.save_area;
    let mut b = Program::builder("mips-null-syscall");
    // Hardware drops us at the single general-exception vector.
    b.phase(Phase::EntryExit)
        .op(MicroOp::TrapEnter)
        .branch(true);
    // Software vectoring: read cause/status/EPC, decode, dispatch — the cost
    // DeMoney et al. accepted by rejecting hardware vectoring.
    b.phase(Phase::CallPrep).read_control(4);
    dispatch(&mut b, 6, 2); // 6 alu + 2 branches w/ unfilled slots = 10
                            // Save the registers the C convention clobbers: a burst of consecutive
                            // stores — write-buffer territory.
    b.store_run(save, 18);
    b.write_control(2).alu(6);
    for _ in 0..4 {
        b.op(MicroOp::DelayNop);
    }
    // Call into C. The prologue/epilogue of the C routine itself:
    b.phase(Phase::CallReturn)
        .op(MicroOp::Call)
        .op(MicroOp::DelayNop);
    b.store(layout.kstack).store(layout.kstack.offset(4)).alu(1);
    b.phase(Phase::Body).alu(3);
    b.phase(Phase::CallReturn)
        .load(layout.kstack)
        .load(layout.kstack.offset(4))
        .op(MicroOp::Ret)
        .op(MicroOp::DelayNop);
    // Restore and return.
    b.phase(Phase::CallPrep)
        .load_run(save, 18)
        .write_control(2)
        .alu(2);
    b.phase(Phase::EntryExit)
        .op(MicroOp::DrainWriteBuffer)
        .op(MicroOp::TrapReturn)
        .op(MicroOp::DelayNop)
        .alu(1);
    b.build()
}

fn sparc_syscall(layout: &KernelLayout) -> Program {
    let mut b = Program::builder("sparc-null-syscall");
    b.phase(Phase::EntryExit).op(MicroOp::TrapEnter).alu(1);
    // Window management: hardware gave the handler one frame; making room
    // for the C call means reading the window pointers and spilling a frame.
    b.phase(Phase::CallPrep).read_control(3).alu(6);
    b.op(MicroOp::SaveWindow(layout.window_save));
    b.write_control(2);
    // The interposed handler frame forces an extra parameter copy.
    for i in 0..5 {
        b.load(layout.syscall_arg.offset(4 * i));
        b.store(layout.kstack.offset(4 * i));
    }
    b.alu(4);
    b.phase(Phase::CallReturn).op(MicroOp::Call);
    b.store(layout.kstack.offset(64)).alu(1);
    b.phase(Phase::Body).alu(6);
    b.phase(Phase::CallReturn)
        .load(layout.kstack.offset(64))
        .op(MicroOp::Ret);
    // Restore the spilled window and unwind window state.
    b.phase(Phase::CallPrep)
        .op(MicroOp::RestoreWindow(layout.window_save));
    b.write_control(2).alu(2);
    b.phase(Phase::EntryExit)
        .op(MicroOp::DrainWriteBuffer)
        .op(MicroOp::TrapReturn)
        .alu(1);
    b.build()
}

fn m88k_syscall(layout: &KernelLayout) -> Program {
    let save = layout.save_area;
    let mut b = Program::builder("m88k-null-syscall");
    b.phase(Phase::EntryExit).op(MicroOp::TrapEnter).alu(1);
    // Even a voluntary trap must check the exposed pipelines for outstanding
    // faults before it can touch anything.
    b.phase(Phase::CallPrep).read_control(8);
    b.read_control(3); // psr, sxip, snip
    b.store_run(save, 20);
    b.write_control(3).alu(10);
    b.branch(true).branch(true);
    // Shadow/scoreboard state save and restore.
    b.read_control(8);
    b.store_run(save.offset(128), 8);
    b.phase(Phase::CallReturn).op(MicroOp::Call);
    b.store(layout.kstack).store(layout.kstack.offset(4)).alu(1);
    b.phase(Phase::Body).alu(5);
    b.phase(Phase::CallReturn)
        .load(layout.kstack)
        .load(layout.kstack.offset(4))
        .op(MicroOp::Ret);
    b.phase(Phase::CallPrep);
    b.load_run(save, 20);
    b.load_run(save.offset(128), 8);
    b.write_control(8); // restore shadow state
    b.write_control(2).alu(4);
    b.phase(Phase::EntryExit)
        .op(MicroOp::DrainWriteBuffer)
        .op(MicroOp::TrapReturn)
        .alu(1);
    b.build()
}

fn i860_syscall(layout: &KernelLayout) -> Program {
    let save = layout.save_area;
    let mut b = Program::builder("i860-null-syscall");
    b.phase(Phase::EntryExit)
        .op(MicroOp::TrapEnter)
        .op(MicroOp::DelayNop);
    // Everything vectors through one handler; figuring out that this was a
    // system call takes real work.
    b.phase(Phase::CallPrep).read_control(4);
    dispatch(&mut b, 18, 2); // 18 alu + 2 branches w/ slots = 22
    b.store_run(save, 16);
    b.write_control(2).alu(4);
    b.phase(Phase::CallReturn)
        .op(MicroOp::Call)
        .store(layout.kstack)
        .alu(1);
    b.phase(Phase::Body).alu(8);
    b.phase(Phase::CallReturn)
        .load(layout.kstack)
        .op(MicroOp::Ret)
        .op(MicroOp::DelayNop);
    b.phase(Phase::CallPrep)
        .load_run(save, 16)
        .write_control(2)
        .alu(2);
    b.phase(Phase::EntryExit)
        .op(MicroOp::TrapReturn)
        .op(MicroOp::DelayNop);
    b.build()
}

fn generic_syscall(layout: &KernelLayout) -> Program {
    let save = layout.save_area;
    let mut b = Program::builder("generic-null-syscall");
    b.phase(Phase::EntryExit).op(MicroOp::TrapEnter).alu(1);
    b.phase(Phase::CallPrep)
        .read_control(3)
        .store_run(save, 16)
        .write_control(2)
        .alu(6);
    b.phase(Phase::CallReturn)
        .op(MicroOp::Call)
        .store(layout.kstack)
        .alu(1);
    b.phase(Phase::Body).alu(4);
    b.phase(Phase::CallReturn)
        .load(layout.kstack)
        .op(MicroOp::Ret);
    b.phase(Phase::CallPrep)
        .load_run(save, 16)
        .write_control(2)
        .alu(2);
    b.phase(Phase::EntryExit).op(MicroOp::TrapReturn).alu(1);
    b.build()
}

// ---------------------------------------------------------------------------
// Trap (data-access fault)
// ---------------------------------------------------------------------------

/// Generate the data-access-fault handler for `spec`.
#[must_use]
pub fn trap_handler(spec: &ArchSpec, layout: &KernelLayout) -> Program {
    match spec.arch {
        Arch::Cvax => cvax_trap(layout),
        Arch::M88000 => m88k_trap(layout),
        Arch::R2000 | Arch::R3000 => mips_trap(spec, layout),
        Arch::Sparc => sparc_trap(layout),
        Arch::I860 => i860_trap(layout),
        Arch::Rs6000 => generic_trap(layout),
    }
}

fn cvax_trap(layout: &KernelLayout) -> Program {
    let mut b = Program::builder("cvax-trap");
    // Memory-management fault entry: more microcode than CHMK (pushes the
    // fault code and address too).
    b.phase(Phase::EntryExit)
        .op(MicroOp::TrapEnter)
        .op(MicroOp::Microcoded {
            cycles: 50,
            mem_refs: 2,
        });
    b.phase(Phase::CallPrep)
        .read_control(2)
        .alu(2)
        .store(layout.save_area);
    b.phase(Phase::CallReturn).op(MicroOp::Call);
    b.phase(Phase::Body)
        .alu(2)
        .load(layout.pte_area)
        .store(layout.pte_area);
    b.phase(Phase::CallReturn).op(MicroOp::Ret);
    b.phase(Phase::EntryExit).op(MicroOp::TrapReturn);
    b.build()
}

fn mips_trap(spec: &ArchSpec, layout: &KernelLayout) -> Program {
    let save = layout.save_area;
    let mut b = Program::builder("mips-trap");
    b.phase(Phase::EntryExit)
        .op(MicroOp::TrapEnter)
        .branch(true);
    // Exception restart and memory-port contention between the register
    // restores and the still-draining write buffer: heavy on the DECstation
    // 3100's memory system, largely absent on the 5000's.
    let restart_stall = if spec.arch == Arch::R2000 { 55 } else { 12 };
    b.op(MicroOp::Stall(restart_stall));
    b.phase(Phase::CallPrep).read_control(5); // cause, status, EPC, BadVAddr, context
    dispatch(&mut b, 6, 2);
    b.store_run(save, 22);
    b.write_control(2).alu(6);
    for _ in 0..4 {
        b.op(MicroOp::DelayNop);
    }
    b.phase(Phase::CallReturn)
        .op(MicroOp::Call)
        .op(MicroOp::DelayNop);
    b.store(layout.kstack).store(layout.kstack.offset(4)).alu(1);
    b.phase(Phase::Body)
        .alu(9)
        .load(layout.pte_area)
        .load(layout.pte_area.offset(4));
    b.store(layout.pte_area).store(layout.pte_area.offset(4));
    b.phase(Phase::CallReturn)
        .load(layout.kstack)
        .load(layout.kstack.offset(4))
        .op(MicroOp::Ret)
        .op(MicroOp::DelayNop);
    b.phase(Phase::CallPrep)
        .load_run(save, 22)
        .write_control(2)
        .alu(2);
    b.phase(Phase::EntryExit)
        .op(MicroOp::DrainWriteBuffer)
        .op(MicroOp::TrapReturn)
        .op(MicroOp::DelayNop)
        .alu(1);
    b.build()
}

fn sparc_trap(layout: &KernelLayout) -> Program {
    let mut b = Program::builder("sparc-trap");
    b.phase(Phase::EntryExit).op(MicroOp::TrapEnter).alu(1);
    b.phase(Phase::CallPrep).read_control(5).alu(8); // PSR, WIM, TBR, FSR, FAR
    b.op(MicroOp::SaveWindow(layout.window_save));
    b.write_control(2);
    for i in 0..5 {
        b.load(layout.syscall_arg.offset(4 * i));
        b.store(layout.kstack.offset(4 * i));
    }
    b.alu(4);
    b.phase(Phase::CallReturn)
        .op(MicroOp::Call)
        .store(layout.kstack.offset(64))
        .alu(1);
    b.phase(Phase::Body).alu(10).load_run(layout.pte_area, 4);
    b.store_run(layout.pte_area, 5);
    b.phase(Phase::CallReturn)
        .load(layout.kstack.offset(64))
        .op(MicroOp::Ret);
    b.phase(Phase::CallPrep)
        .op(MicroOp::RestoreWindow(layout.window_save));
    b.write_control(2).alu(2);
    b.phase(Phase::EntryExit)
        .op(MicroOp::DrainWriteBuffer)
        .op(MicroOp::TrapReturn)
        .alu(1);
    b.build()
}

fn m88k_trap(layout: &KernelLayout) -> Program {
    let save = layout.save_area;
    let mut b = Program::builder("m88k-trap");
    b.phase(Phase::EntryExit).op(MicroOp::TrapEnter).alu(1);
    b.phase(Phase::CallPrep);
    // Read and save the exposed pipeline state: data unit, instruction
    // fetch, and FP pipelines — "nearly 30 internal registers".
    b.read_control(16);
    b.store_run(save.offset(256), 16);
    // The frozen FPU must be restarted before general registers are safe:
    // store the interrupt context first, enable the FPU, let it drain.
    b.store_run(save.offset(384), 6);
    b.write_control(2);
    b.op(MicroOp::DrainFpu);
    b.alu(4);
    // Now the general registers.
    b.store_run(save, 16);
    b.read_control(3).write_control(3);
    dispatch(&mut b, 8, 1);
    b.op(MicroOp::DelayNop);
    b.phase(Phase::CallReturn)
        .op(MicroOp::Call)
        .store(layout.kstack)
        .store(layout.kstack.offset(4))
        .alu(1);
    b.phase(Phase::Body)
        .alu(11)
        .load(layout.pte_area)
        .load(layout.pte_area.offset(4));
    b.store(layout.pte_area).store(layout.pte_area.offset(4));
    b.phase(Phase::CallReturn)
        .load(layout.kstack)
        .load(layout.kstack.offset(4))
        .op(MicroOp::Ret);
    b.phase(Phase::CallPrep);
    b.load_run(save, 16);
    b.load_run(save.offset(256), 16);
    b.write_control(16); // restart the pipelines
    b.alu(5);
    b.phase(Phase::EntryExit)
        .op(MicroOp::DrainWriteBuffer)
        .op(MicroOp::TrapReturn)
        .alu(1);
    b.build()
}

fn i860_trap(layout: &KernelLayout) -> Program {
    let save = layout.save_area;
    let mut b = Program::builder("i860-trap");
    b.phase(Phase::EntryExit)
        .op(MicroOp::TrapEnter)
        .op(MicroOp::DelayNop);
    b.phase(Phase::CallPrep).read_control(4);
    dispatch(&mut b, 18, 2);
    // The hardware does not report the faulting address: fetch and decode
    // the faulting instruction to reconstruct it (+26 instructions).
    b.load(VirtAddr(0x0001_0000)); // the faulting instruction word
    b.alu(25);
    // FP pipeline save and restore: 60 instructions when the pipeline may be
    // in use.
    b.store_run(save.offset(256), 20);
    b.read_control(10);
    b.phase(Phase::CallPrep).store_run(save, 16);
    b.phase(Phase::CallReturn)
        .op(MicroOp::Call)
        .store(layout.kstack)
        .alu(1);
    b.phase(Phase::Body).alu(1);
    b.phase(Phase::CallReturn)
        .load(layout.kstack)
        .op(MicroOp::Ret)
        .op(MicroOp::DelayNop);
    b.phase(Phase::CallPrep);
    b.load_run(save, 16);
    b.load_run(save.offset(256), 20);
    b.write_control(10);
    b.phase(Phase::EntryExit)
        .op(MicroOp::TrapReturn)
        .op(MicroOp::DelayNop);
    b.build()
}

fn generic_trap(layout: &KernelLayout) -> Program {
    let save = layout.save_area;
    let mut b = Program::builder("generic-trap");
    b.phase(Phase::EntryExit).op(MicroOp::TrapEnter).alu(1);
    b.phase(Phase::CallPrep)
        .read_control(5)
        .store_run(save, 20)
        .write_control(2)
        .alu(6);
    b.phase(Phase::CallReturn)
        .op(MicroOp::Call)
        .store(layout.kstack)
        .alu(1);
    b.phase(Phase::Body)
        .alu(8)
        .load(layout.pte_area)
        .store(layout.pte_area);
    b.phase(Phase::CallReturn)
        .load(layout.kstack)
        .op(MicroOp::Ret);
    b.phase(Phase::CallPrep)
        .load_run(save, 20)
        .write_control(2)
        .alu(2);
    b.phase(Phase::EntryExit).op(MicroOp::TrapReturn).alu(1);
    b.build()
}

// ---------------------------------------------------------------------------
// PTE change
// ---------------------------------------------------------------------------

/// Generate the PTE protection-change routine (already in kernel mode) for
/// `spec`.
#[must_use]
pub fn pte_change(spec: &ArchSpec, layout: &KernelLayout) -> Program {
    match spec.arch {
        Arch::Cvax => cvax_pte(layout),
        Arch::M88000 => m88k_pte(layout),
        Arch::R2000 | Arch::R3000 => mips_pte(layout),
        Arch::Sparc => sparc_pte(layout),
        Arch::I860 => i860_pte(layout),
        Arch::Rs6000 => generic_pte(layout),
    }
}

fn cvax_pte(layout: &KernelLayout) -> Program {
    let mut b = Program::builder("cvax-pte-change");
    b.phase(Phase::Body);
    // Index the linear page table, update the entry, TBIS the TLB.
    b.load(layout.pte_area).load(layout.pte_area.offset(4));
    b.alu(4);
    b.store(layout.pte_area.offset(4));
    b.op(MicroOp::TlbFlushPage(layout.user_page));
    b.read_control(1).write_control(1);
    b.alu(1);
    b.build()
}

fn mips_pte(layout: &KernelLayout) -> Program {
    let mut b = Program::builder("mips-pte-change");
    b.phase(Phase::Body);
    // The OS owns the page table structure: hash the VPN, chase the chain.
    b.alu(8);
    b.load_run(layout.pte_area, 3);
    b.store(layout.pte_area.offset(8));
    // Probe the TLB for the entry (tlbp), then overwrite or flush it.
    b.write_control(4); // EntryHi/EntryLo staging
    b.read_control(2); // probe result
    b.op(MicroOp::TlbFlushPage(layout.user_page));
    b.op(MicroOp::TlbWriteEntry);
    b.alu(8);
    b.branch(true).branch(true);
    b.load(layout.pte_area.offset(16))
        .load(layout.pte_area.offset(20));
    b.store(layout.pte_area.offset(24))
        .store(layout.pte_area.offset(28));
    b.build()
}

fn sparc_pte(layout: &KernelLayout) -> Program {
    let mut b = Program::builder("sparc-pte-change");
    b.phase(Phase::Body);
    // Walk the 3-level table (three dependent loads), update, flush the TLB
    // entry through the MMU ASI.
    b.load_run(layout.pte_area, 3);
    b.alu(4);
    b.store(layout.pte_area.offset(8));
    b.op(MicroOp::TlbFlushPage(layout.user_page));
    b.write_control(2);
    b.read_control(1);
    b.branch(true);
    b.alu(1);
    b.build()
}

fn m88k_pte(layout: &KernelLayout) -> Program {
    let mut b = Program::builder("m88k-pte-change");
    b.phase(Phase::Body);
    b.load_run(layout.pte_area, 3);
    b.alu(8);
    b.store(layout.pte_area.offset(8));
    // Both CMMUs (instruction and data) must be probed and invalidated.
    b.write_control(4);
    b.read_control(2);
    b.op(MicroOp::TlbFlushPage(layout.user_page));
    b.branch(true);
    b.alu(3);
    b.build()
}

fn i860_pte(layout: &KernelLayout) -> Program {
    let mut b = Program::builder("i860-pte-change");
    b.phase(Phase::Body);
    // 536 of the 559 instructions flush the virtually addressed cache: the
    // whole cache must be searched because any line of the page may be
    // resident under a virtual tag with stale protection bits.
    b.alu(16); // flush-loop setup
    b.op(MicroOp::CacheFlushPage(layout.user_page)); // 256 lines x 2 instrs
    b.alu(8); // flush-loop teardown
              // The actual PTE update is almost free by comparison.
    b.load(layout.pte_area).load(layout.pte_area.offset(4));
    b.alu(6);
    b.store(layout.pte_area.offset(4));
    // Writing dirbase purges the (untagged) TLB wholesale.
    b.write_control(1);
    b.op(MicroOp::TlbFlushAll);
    b.alu(12);
    b.build()
}

fn generic_pte(layout: &KernelLayout) -> Program {
    let mut b = Program::builder("generic-pte-change");
    b.phase(Phase::Body);
    b.load_run(layout.pte_area, 2);
    b.alu(6);
    b.store(layout.pte_area.offset(4));
    b.op(MicroOp::TlbFlushPage(layout.user_page));
    b.write_control(1);
    b.build()
}

// ---------------------------------------------------------------------------
// Context switch
// ---------------------------------------------------------------------------

/// Generate the in-kernel context-switch routine (save current context,
/// resume the other process, switch address spaces) for `spec`.
#[must_use]
pub fn context_switch(spec: &ArchSpec, layout: &KernelLayout) -> Program {
    match spec.arch {
        Arch::Cvax => cvax_ctxsw(layout),
        Arch::M88000 => m88k_ctxsw(layout),
        Arch::R2000 | Arch::R3000 => mips_ctxsw(layout),
        Arch::Sparc => sparc_ctxsw(layout),
        Arch::I860 => i860_ctxsw(layout),
        Arch::Rs6000 => generic_ctxsw(layout),
    }
}

fn cvax_ctxsw(layout: &KernelLayout) -> Program {
    let mut b = Program::builder("cvax-context-switch");
    b.phase(Phase::Body);
    b.load(layout.pcb[0]).load(layout.pcb[1]); // PCB pointers
    b.alu(2);
    // SVPCTX: save the process context in microcode.
    b.op(MicroOp::Microcoded {
        cycles: 70,
        mem_refs: 10,
    });
    // LDPCTX: load the new context in microcode (includes purging the
    // untagged TLB of process entries).
    b.op(MicroOp::Microcoded {
        cycles: 90,
        mem_refs: 12,
    });
    b.op(MicroOp::SwitchAddressSpace(USER_ASID, USER2_ASID));
    b.write_control(1);
    b.op(MicroOp::Branch);
    b.build()
}

fn mips_ctxsw(layout: &KernelLayout) -> Program {
    let [old_pcb, new_pcb] = layout.pcb;
    let mut b = Program::builder("mips-context-switch");
    b.phase(Phase::Body);
    // Save misc state (status, EPC, hi/lo, ...) then the register file.
    b.read_control(5);
    b.store_run(old_pcb.offset(128), 5);
    // The register save is interleaved with run-queue work, as the real
    // switch code is — which spaces the stores out a little.
    b.store_run(old_pcb, 12);
    b.alu(6);
    b.store_run(old_pcb.offset(48), 12);
    b.alu(6);
    b.store_run(old_pcb.offset(96), 8);
    b.load_run(new_pcb.offset(160), 4);
    // The write buffer must drain before the address space changes.
    b.op(MicroOp::DrainWriteBuffer);
    // Switch the address space: write the ASID into EntryHi. Tagged TLB —
    // no purge.
    b.op(MicroOp::SwitchAddressSpace(USER_ASID, USER2_ASID));
    b.write_control(2);
    // Restore the new register file and misc state (plus the u-area).
    b.load_run(new_pcb, 24);
    b.load_run(layout.uarea, 8);
    b.load_run(new_pcb.offset(128), 5);
    b.write_control(5);
    b.branch(true).branch(true).branch(true).branch(true);
    b.alu(16);
    for _ in 0..4 {
        b.op(MicroOp::DelayNop);
    }
    b.alu(4);
    b.build()
}

fn sparc_ctxsw(layout: &KernelLayout) -> Program {
    let [old_pcb, new_pcb] = layout.pcb;
    let mut b = Program::builder("sparc-context-switch");
    b.phase(Phase::Body);
    b.read_control(4).alu(8);
    // Flush the live register windows — Sun Unix measured an average of
    // three per switch. 70% of the SPARC context switch goes here.
    // Each flushed window goes through the window-overflow trap machinery
    // (the spill overhead cycles in the window configuration).
    b.op(MicroOp::SaveWindow(old_pcb));
    b.op(MicroOp::SaveWindow(old_pcb.offset(64)));
    b.op(MicroOp::SaveWindow(old_pcb.offset(128)));
    // Globals and misc state.
    b.store_run(old_pcb.offset(256), 14);
    b.alu(10);
    b.op(MicroOp::DrainWriteBuffer);
    b.op(MicroOp::SwitchAddressSpace(USER_ASID, USER2_ASID));
    b.write_control(3);
    // Reload the incoming thread's windows.
    b.op(MicroOp::RestoreWindow(new_pcb));
    b.op(MicroOp::RestoreWindow(new_pcb.offset(64)));
    b.op(MicroOp::RestoreWindow(new_pcb.offset(128)));
    b.load_run(new_pcb.offset(256), 14);
    b.write_control(4).read_control(2);
    b.alu(4);
    b.branch(true).branch(true).branch(true).branch(true);
    b.alu(2);
    b.build()
}

fn m88k_ctxsw(layout: &KernelLayout) -> Program {
    let [old_pcb, new_pcb] = layout.pcb;
    let mut b = Program::builder("m88k-context-switch");
    b.phase(Phase::Body);
    // Pipeline/misc state first.
    b.read_control(8);
    b.store_run(old_pcb.offset(128), 8);
    b.store_run(old_pcb, 16);
    b.alu(8);
    // Dual CMMU context change; the buffer drains first.
    b.op(MicroOp::DrainWriteBuffer);
    b.op(MicroOp::SwitchAddressSpace(USER_ASID, USER2_ASID));
    b.write_control(4);
    b.load_run(new_pcb, 8);
    b.load_run(layout.uarea, 8); // the incoming process's u-area
    b.load_run(new_pcb.offset(128), 8);
    b.write_control(8);
    b.alu(12);
    b.branch(true).branch(true);
    b.alu(5);
    b.build()
}

fn i860_ctxsw(layout: &KernelLayout) -> Program {
    let [old_pcb, new_pcb] = layout.pcb;
    let mut b = Program::builder("i860-context-switch");
    b.phase(Phase::Body);
    // The untagged virtually addressed cache must be flushed wholesale —
    // the reason Table 2's i860 count is 618.
    b.alu(8);
    b.op(MicroOp::CacheFlushAll);
    // FP pipeline save/restore.
    b.store_run(old_pcb.offset(256), 20);
    b.load_run(new_pcb.offset(256), 20);
    // Register file.
    b.store_run(old_pcb, 16);
    b.load_run(new_pcb, 16);
    // dirbase write: new address space, TLB purged as a side effect.
    b.op(MicroOp::SwitchAddressSpace(USER_ASID, USER2_ASID));
    b.op(MicroOp::TlbFlushAll);
    b.write_control(2);
    b.read_control(4).write_control(4);
    b.alu(14);
    b.build()
}

fn generic_ctxsw(layout: &KernelLayout) -> Program {
    let [old_pcb, new_pcb] = layout.pcb;
    let mut b = Program::builder("generic-context-switch");
    b.phase(Phase::Body);
    b.read_control(4);
    b.store_run(old_pcb, 32);
    b.alu(10);
    b.op(MicroOp::SwitchAddressSpace(USER_ASID, USER2_ASID));
    b.write_control(2);
    b.load_run(new_pcb, 32);
    b.write_control(4);
    b.alu(8);
    b.build()
}

// ---------------------------------------------------------------------------
// Architectural what-if variants (Sections 2.5, 3.2, 3.3)
// ---------------------------------------------------------------------------

/// The architectural improvements the paper proposes, as handler variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// "On a system call, which is a voluntary exception, a processor like
    /// the 88000 could wait for other exceptions to occur before servicing
    /// the call, reducing the processing needed in the trap handler to
    /// check for faults." (Section 2.5; 88000 null system call)
    DeferredFaultCheck,
    /// "The SPARC could take a window fault if needed before the call,
    /// rather than emulating the check within the trap handler."
    /// (Section 2.5; SPARC null system call)
    HardwareWindowFault,
    /// "Architectures can help by not hiding information, such as the fault
    /// address needed for fast fault handling." (Section 3.3; i860 trap)
    ProvideFaultAddress,
    /// Precise interrupts shield software from pipeline detail, as the
    /// RS6000/SPARC/R2000 do. (Section 3.1; 88000 trap)
    PreciseInterrupts,
    /// "Process IDs can eliminate the need for this [virtual-cache flush]."
    /// (Section 3.2; i860 context switch and PTE change)
    TaggedVirtualCache,
}

impl Variant {
    /// All what-if variants, in section order.
    #[must_use]
    pub fn all() -> [Variant; 5] {
        [
            Variant::DeferredFaultCheck,
            Variant::HardwareWindowFault,
            Variant::ProvideFaultAddress,
            Variant::PreciseInterrupts,
            Variant::TaggedVirtualCache,
        ]
    }

    /// The one architecture this variant applies to.
    #[must_use]
    pub fn arch(self) -> Arch {
        match self {
            Variant::DeferredFaultCheck | Variant::PreciseInterrupts => Arch::M88000,
            Variant::HardwareWindowFault => Arch::Sparc,
            Variant::ProvideFaultAddress | Variant::TaggedVirtualCache => Arch::I860,
        }
    }

    /// The primitive operation this variant re-implements.
    #[must_use]
    pub fn primitive(self) -> Primitive {
        match self {
            Variant::DeferredFaultCheck | Variant::HardwareWindowFault => Primitive::NullSyscall,
            Variant::ProvideFaultAddress | Variant::PreciseInterrupts => Primitive::Trap,
            Variant::TaggedVirtualCache => Primitive::ContextSwitch,
        }
    }

    /// A short human-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Variant::DeferredFaultCheck => "deferred fault check",
            Variant::HardwareWindowFault => "hardware window fault",
            Variant::ProvideFaultAddress => "provided fault address",
            Variant::PreciseInterrupts => "precise interrupts",
            Variant::TaggedVirtualCache => "tagged virtual cache",
        }
    }
}

/// One entry in the [`program_catalog`]: which primitive a program
/// implements, which what-if [`Variant`] produced it (if any), and the
/// program itself.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// The primitive operation the program implements.
    pub primitive: Primitive,
    /// The variant that produced it, or `None` for a shipped handler.
    pub variant: Option<Variant>,
    /// The generated program.
    pub program: Program,
}

impl CatalogEntry {
    /// A stable identifier for reports: the program name plus the variant
    /// tag when present.
    #[must_use]
    pub fn id(&self) -> String {
        match self.variant {
            Some(variant) => format!("{} [{}]", self.program.name(), variant.label()),
            None => self.program.name().to_string(),
        }
    }
}

/// Every program the kernel generates for `spec`: the four primitive
/// handlers plus the what-if variants that apply to this architecture.
/// This is the registry static analysis walks — a new handler or variant
/// added here is automatically covered by `osarch lint`.
#[must_use]
pub fn program_catalog(spec: &ArchSpec, layout: &KernelLayout) -> Vec<CatalogEntry> {
    let HandlerSet {
        syscall,
        trap,
        pte_change,
        context_switch,
    } = HandlerSet::generate(spec, layout);
    let mut entries: Vec<CatalogEntry> = [
        (Primitive::NullSyscall, syscall),
        (Primitive::Trap, trap),
        (Primitive::PteChange, pte_change),
        (Primitive::ContextSwitch, context_switch),
    ]
    .into_iter()
    .map(|(primitive, program)| CatalogEntry {
        primitive,
        variant: None,
        program,
    })
    .collect();
    for variant in Variant::all() {
        if variant.arch() == spec.arch {
            entries.push(CatalogEntry {
                primitive: variant.primitive(),
                variant: Some(variant),
                program: variant_program(spec, layout, variant),
            });
        }
    }
    entries
}

/// Generate the handler a [`Variant`] modifies, in its improved form.
///
/// # Panics
///
/// Panics if the variant does not apply to `spec`'s architecture.
#[must_use]
pub fn variant_program(spec: &ArchSpec, layout: &KernelLayout, variant: Variant) -> Program {
    match variant {
        Variant::DeferredFaultCheck => {
            assert_eq!(spec.arch, Arch::M88000, "variant applies to the 88000");
            m88k_syscall_deferred(layout)
        }
        Variant::HardwareWindowFault => {
            assert_eq!(spec.arch, Arch::Sparc, "variant applies to the SPARC");
            sparc_syscall_hw_window(layout)
        }
        Variant::ProvideFaultAddress => {
            assert_eq!(spec.arch, Arch::I860, "variant applies to the i860");
            i860_trap_with_fault_address(layout)
        }
        Variant::PreciseInterrupts => {
            assert_eq!(spec.arch, Arch::M88000, "variant applies to the 88000");
            m88k_trap_precise(layout)
        }
        Variant::TaggedVirtualCache => {
            assert_eq!(spec.arch, Arch::I860, "variant applies to the i860");
            i860_ctxsw_tagged_cache(layout)
        }
    }
}

/// The baseline program the variant should be compared against.
#[must_use]
pub fn variant_baseline(spec: &ArchSpec, layout: &KernelLayout, variant: Variant) -> Program {
    match variant {
        Variant::DeferredFaultCheck | Variant::HardwareWindowFault => null_syscall(spec, layout),
        Variant::ProvideFaultAddress | Variant::PreciseInterrupts => trap_handler(spec, layout),
        Variant::TaggedVirtualCache => context_switch(spec, layout),
    }
}

/// 88000 null syscall without the pipeline fault check: the voluntary trap
/// trusts hardware to have quiesced.
fn m88k_syscall_deferred(layout: &KernelLayout) -> Program {
    let save = layout.save_area;
    let mut b = Program::builder("m88k-null-syscall-deferred");
    b.phase(Phase::EntryExit).op(MicroOp::TrapEnter).alu(1);
    // No pipeline-status reads, no shadow/scoreboard save: straight to the
    // register save.
    b.phase(Phase::CallPrep).read_control(3);
    b.store_run(save, 20);
    b.write_control(3).alu(10);
    b.branch(true).branch(true);
    b.phase(Phase::CallReturn).op(MicroOp::Call);
    b.store(layout.kstack).store(layout.kstack.offset(4)).alu(1);
    b.phase(Phase::Body).alu(5);
    b.phase(Phase::CallReturn)
        .load(layout.kstack)
        .load(layout.kstack.offset(4))
        .op(MicroOp::Ret);
    b.phase(Phase::CallPrep);
    b.load_run(save, 20);
    b.write_control(2).alu(4);
    b.phase(Phase::EntryExit)
        .op(MicroOp::DrainWriteBuffer)
        .op(MicroOp::TrapReturn)
        .alu(1);
    b.build()
}

/// SPARC null syscall where window overflow is a hardware-taken fault
/// before the call: the common case carries no spill, no extra parameter
/// copy through an interposed frame, and only an amortised share of spill
/// work (one call in four overflows, per the window-depth statistics).
fn sparc_syscall_hw_window(layout: &KernelLayout) -> Program {
    let mut b = Program::builder("sparc-null-syscall-hw-window");
    b.phase(Phase::EntryExit).op(MicroOp::TrapEnter).alu(1);
    b.phase(Phase::CallPrep).read_control(2).alu(4);
    // Amortised hardware window fault: a quarter of the spill/fill cost.
    let spill_quarter = (50 + 16 * 2) / 4;
    b.op(MicroOp::Stall(spill_quarter));
    b.write_control(1);
    b.alu(4);
    b.phase(Phase::CallReturn).op(MicroOp::Call);
    b.store(layout.kstack.offset(64)).alu(1);
    b.phase(Phase::Body).alu(6);
    b.phase(Phase::CallReturn)
        .load(layout.kstack.offset(64))
        .op(MicroOp::Ret);
    b.phase(Phase::CallPrep)
        .op(MicroOp::Stall(spill_quarter))
        .write_control(1)
        .alu(2);
    b.phase(Phase::EntryExit)
        .op(MicroOp::DrainWriteBuffer)
        .op(MicroOp::TrapReturn)
        .alu(1);
    b.build()
}

/// i860 trap when the hardware reports the faulting address: the 26-
/// instruction decode disappears.
fn i860_trap_with_fault_address(layout: &KernelLayout) -> Program {
    let save = layout.save_area;
    let mut b = Program::builder("i860-trap-with-fault-address");
    b.phase(Phase::EntryExit)
        .op(MicroOp::TrapEnter)
        .op(MicroOp::DelayNop);
    b.phase(Phase::CallPrep).read_control(4);
    dispatch(&mut b, 18, 2);
    b.read_control(1); // the fault-address register, directly
    b.store_run(save.offset(256), 20);
    b.read_control(10);
    b.store_run(save, 16);
    b.phase(Phase::CallReturn)
        .op(MicroOp::Call)
        .store(layout.kstack)
        .alu(1);
    b.phase(Phase::Body).alu(1);
    b.phase(Phase::CallReturn)
        .load(layout.kstack)
        .op(MicroOp::Ret)
        .op(MicroOp::DelayNop);
    b.phase(Phase::CallPrep);
    b.load_run(save, 16);
    b.load_run(save.offset(256), 20);
    b.write_control(10);
    b.phase(Phase::EntryExit)
        .op(MicroOp::TrapReturn)
        .op(MicroOp::DelayNop);
    b.build()
}

/// 88000 trap under precise interrupts: no pipeline-register inventory, no
/// FPU freeze dance.
fn m88k_trap_precise(layout: &KernelLayout) -> Program {
    let save = layout.save_area;
    let mut b = Program::builder("m88k-trap-precise");
    b.phase(Phase::EntryExit).op(MicroOp::TrapEnter).alu(1);
    b.phase(Phase::CallPrep);
    b.store_run(save, 16);
    b.read_control(3).write_control(3);
    dispatch(&mut b, 8, 1);
    b.op(MicroOp::DelayNop);
    b.phase(Phase::CallReturn)
        .op(MicroOp::Call)
        .store(layout.kstack)
        .store(layout.kstack.offset(4))
        .alu(1);
    b.phase(Phase::Body)
        .alu(11)
        .load(layout.pte_area)
        .load(layout.pte_area.offset(4));
    b.store(layout.pte_area).store(layout.pte_area.offset(4));
    b.phase(Phase::CallReturn)
        .load(layout.kstack)
        .load(layout.kstack.offset(4))
        .op(MicroOp::Ret);
    b.phase(Phase::CallPrep).load_run(save, 16).alu(5);
    b.phase(Phase::EntryExit)
        .op(MicroOp::DrainWriteBuffer)
        .op(MicroOp::TrapReturn)
        .alu(1);
    b.build()
}

/// i860 context switch with process-ID tags in the virtual cache: the
/// wholesale flush disappears.
fn i860_ctxsw_tagged_cache(layout: &KernelLayout) -> Program {
    let [old_pcb, new_pcb] = layout.pcb;
    let mut b = Program::builder("i860-context-switch-tagged");
    b.phase(Phase::Body);
    b.alu(8);
    // No CacheFlushAll: the tags disambiguate the contexts.
    b.store_run(old_pcb.offset(256), 20);
    b.load_run(new_pcb.offset(256), 20);
    b.store_run(old_pcb, 16);
    b.load_run(new_pcb, 16);
    b.op(MicroOp::SwitchAddressSpace(USER_ASID, USER2_ASID));
    b.op(MicroOp::TlbFlushAll);
    b.write_control(2);
    b.read_control(4).write_control(4);
    b.alu(14);
    b.build()
}

/// Emit a software-vectoring dispatch sequence: `alu` decode instructions
/// plus `branches` branches with unfilled delay slots.
fn dispatch(b: &mut ProgramBuilder, alu: u32, branches: u32) {
    b.alu(alu);
    for _ in 0..branches {
        b.branch(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    fn instruction_count(arch: Arch, primitive: Primitive) -> u64 {
        let mut machine = Machine::new(arch);
        let spec = machine.spec().clone();
        let layout = *machine.layout();
        let handlers = HandlerSet::generate(&spec, &layout);
        machine.measure(handlers.program(primitive)).instructions
    }

    /// Table 2 of the paper, exactly.
    #[test]
    fn instruction_counts_match_table_2() {
        let expected: [(Arch, [u64; 4]); 5] = [
            (Arch::Cvax, [12, 14, 11, 9]),
            (Arch::M88000, [122, 156, 24, 98]),
            (Arch::R2000, [84, 103, 36, 135]),
            (Arch::Sparc, [128, 145, 15, 326]),
            (Arch::I860, [86, 155, 559, 618]),
        ];
        for (arch, counts) in expected {
            for (primitive, want) in Primitive::all().into_iter().zip(counts) {
                let got = instruction_count(arch, primitive);
                assert_eq!(
                    got, want,
                    "{arch} {primitive}: got {got}, Table 2 says {want}"
                );
            }
        }
    }

    #[test]
    fn r3000_uses_the_same_programs_as_r2000() {
        for primitive in Primitive::all() {
            assert_eq!(
                instruction_count(Arch::R3000, primitive),
                instruction_count(Arch::R2000, primitive),
                "{primitive}"
            );
        }
    }

    #[test]
    fn i860_pte_flush_dominates() {
        // "536 out of the 559 instructions ... are concerned with flushing
        // the virtual cache."
        let mut machine = Machine::new(Arch::I860);
        let spec = machine.spec().clone();
        let layout = *machine.layout();
        let program = pte_change(&spec, &layout);
        let total = machine.measure(&program).instructions;
        // flush setup (16) + sweep (512) + teardown (8) = 536.
        assert_eq!(total, 559);
        let non_flush = 559 - (16 + 512 + 8);
        assert_eq!(non_flush, 23);
    }

    #[test]
    fn all_handlers_complete_on_all_archs() {
        for arch in Arch::all() {
            let mut machine = Machine::new(arch);
            let spec = machine.spec().clone();
            let layout = *machine.layout();
            let handlers = HandlerSet::generate(&spec, &layout);
            for primitive in Primitive::all() {
                let stats = machine.measure(handlers.program(primitive));
                assert!(stats.cycles > 0, "{arch} {primitive} must consume cycles");
            }
        }
    }

    #[test]
    fn handler_set_lookup_is_consistent() {
        let machine = Machine::new(Arch::Sparc);
        let handlers = HandlerSet::generate(machine.spec(), machine.layout());
        assert_eq!(
            handlers.program(Primitive::NullSyscall).name(),
            "sparc-null-syscall"
        );
        assert_eq!(
            handlers.program(Primitive::ContextSwitch).name(),
            "sparc-context-switch"
        );
    }

    #[test]
    fn primitive_labels_match_paper_rows() {
        assert_eq!(Primitive::NullSyscall.label(), "Null system call");
        assert_eq!(Primitive::PteChange.to_string(), "Page table entry change");
    }

    #[test]
    fn every_variant_generates_on_its_own_arch() {
        for variant in Variant::all() {
            let machine = Machine::new(variant.arch());
            let program = variant_program(machine.spec(), machine.layout(), variant);
            assert!(!program.is_empty(), "{variant:?}");
            assert!(!variant.label().is_empty());
        }
    }

    #[test]
    fn catalog_registers_primitives_and_applicable_variants() {
        for arch in Arch::all() {
            let machine = Machine::new(arch);
            let catalog = program_catalog(machine.spec(), machine.layout());
            let variants = Variant::all().iter().filter(|v| v.arch() == arch).count();
            assert_eq!(catalog.len(), Primitive::all().len() + variants, "{arch}");
            // The first four entries are the shipped handlers, in row order.
            for (entry, primitive) in catalog.iter().zip(Primitive::all()) {
                assert_eq!(entry.primitive, primitive, "{arch}");
                assert!(entry.variant.is_none());
            }
            for entry in catalog.iter().skip(Primitive::all().len()) {
                let variant = entry.variant.expect("tail entries are variants");
                assert_eq!(variant.arch(), arch);
                assert_eq!(variant.primitive(), entry.primitive);
                assert!(entry.id().contains(variant.label()));
            }
        }
    }
}
