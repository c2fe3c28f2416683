//! The micro-operation vocabulary handler programs are written in.
//!
//! The paper's drivers were "almost entirely written in assembler"; ours are
//! written in a small architecture-neutral micro-op set whose per-op costs
//! come from the [`ArchSpec`](crate::ArchSpec). Instruction counts (Table 2)
//! are a property of the emitted program; cycle counts (Table 1) emerge from
//! executing it against the memory-system model.

use osarch_mem::{Asid, VirtAddr};
use std::fmt;

/// Phases of a handler, for the Table 5 decomposition of the null system
/// call into kernel entry/exit, call preparation, and the C call/return.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Hardware kernel entry and the return-from-exception path.
    EntryExit,
    /// Work after the trap to ready a C procedure call: vectoring, window and
    /// pipeline management, machine-state manipulation, register saving.
    CallPrep,
    /// The procedure call into (and return from) the C-level OS routine.
    CallReturn,
    /// The operation's own body (PTE manipulation, state copying, …).
    Body,
    /// Anything else.
    Other,
}

impl Phase {
    /// All phases, in display order.
    #[must_use]
    pub fn all() -> [Phase; 5] {
        [
            Phase::EntryExit,
            Phase::CallPrep,
            Phase::CallReturn,
            Phase::Body,
            Phase::Other,
        ]
    }

    /// Stable snake_case tag, used in JSON schemas, trace events and
    /// counter keys.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Phase::EntryExit => "entry_exit",
            Phase::CallPrep => "call_prep",
            Phase::CallReturn => "call_return",
            Phase::Body => "body",
            Phase::Other => "other",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            Phase::EntryExit => 0,
            Phase::CallPrep => 1,
            Phase::CallReturn => 2,
            Phase::Body => 3,
            Phase::Other => 4,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            Phase::EntryExit => "kernel entry/exit",
            Phase::CallPrep => "call preparation",
            Phase::CallReturn => "call/return to C",
            Phase::Body => "body",
            Phase::Other => "other",
        };
        f.write_str(text)
    }
}

/// One micro-operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// A simple integer ALU instruction.
    Alu,
    /// A nop occupying an unfilled delay slot (counted as an instruction, as
    /// the paper's shortest-path counts do).
    DelayNop,
    /// Load a word from `addr`.
    Load(VirtAddr),
    /// Store a word to `addr`.
    Store(VirtAddr),
    /// A branch.
    Branch,
    /// A procedure call (microcoded CALLS on the VAX).
    Call,
    /// A procedure return (microcoded RET on the VAX).
    Ret,
    /// Read a control/special register (cause, status, pipeline state, …).
    ReadControl,
    /// Write a control/special register.
    WriteControl,
    /// The hardware trap-entry event (mode switch, vectoring).
    TrapEnter,
    /// Return from exception.
    TrapReturn,
    /// Spill one register window to the stack at `base` (SPARC).
    SaveWindow(VirtAddr),
    /// Fill one register window from the stack at `base` (SPARC).
    RestoreWindow(VirtAddr),
    /// A microcoded CISC instruction with explicit cost.
    Microcoded {
        /// Microcycles consumed.
        cycles: u32,
        /// Memory references performed by the microcode.
        mem_refs: u32,
    },
    /// Atomic test-and-set on `addr`.
    AtomicTas(VirtAddr),
    /// Write one TLB entry from software (MIPS `tlbwr`-style).
    TlbWriteEntry,
    /// Invalidate one page's TLB entry.
    TlbFlushPage(VirtAddr),
    /// Purge the whole TLB.
    TlbFlushAll,
    /// Sweep one page out of a virtually addressed cache (a full-cache
    /// search; expands to a per-line loop).
    CacheFlushPage(VirtAddr),
    /// Flush the entire cache (i860 context switch).
    CacheFlushAll,
    /// Install the other of two address spaces: if the current space is the
    /// first, switch to the second, and vice versa. Untagged TLBs purge and
    /// untagged virtual caches flush as a side effect (the dominant context
    /// switch costs of Section 3.2). The ping-pong form lets one static
    /// program implement the paper's two-process switching benchmark.
    SwitchAddressSpace(Asid, Asid),
    /// Wait for the write buffer to drain (before a return-from-exception
    /// that must not outrun its stores).
    DrainWriteBuffer,
    /// Wait for the floating-point pipeline to drain (88000 fault handling).
    DrainFpu,
    /// Processor stall cycles not attributable to an instruction: exception
    /// restart, memory-port contention, window-trap entry/exit. Charges
    /// cycles but no instructions, so Table 2 counts are unaffected.
    Stall(u32),
}

impl MicroOp {
    /// Assembly-style mnemonic for this op — the same text [`Program::listing`]
    /// prints, usable in diagnostics.
    #[must_use]
    pub fn mnemonic(&self) -> String {
        mnemonic(self)
    }

    /// The mnemonic head without operands — the stable op-kind label trace
    /// events and phase profiles aggregate by.
    #[must_use]
    pub fn opcode(&self) -> &'static str {
        match self {
            MicroOp::Alu => "alu",
            MicroOp::DelayNop => "nop",
            MicroOp::Load(_) => "load",
            MicroOp::Store(_) => "store",
            MicroOp::Branch => "branch",
            MicroOp::Call => "call",
            MicroOp::Ret => "ret",
            MicroOp::ReadControl => "rdctl",
            MicroOp::WriteControl => "wrctl",
            MicroOp::TrapEnter => "trap.enter",
            MicroOp::TrapReturn => "trap.return",
            MicroOp::SaveWindow(_) => "win.save",
            MicroOp::RestoreWindow(_) => "win.restore",
            MicroOp::Microcoded { .. } => "ucode",
            MicroOp::AtomicTas(_) => "tas",
            MicroOp::TlbWriteEntry => "tlb.write",
            MicroOp::TlbFlushPage(_) => "tlb.flushpage",
            MicroOp::TlbFlushAll => "tlb.flushall",
            MicroOp::CacheFlushPage(_) => "cache.flushpage",
            MicroOp::CacheFlushAll => "cache.flushall",
            MicroOp::SwitchAddressSpace(..) => "mmu.switch",
            MicroOp::DrainWriteBuffer => "wb.drain",
            MicroOp::DrainFpu => "fpu.drain",
            MicroOp::Stall(_) => "stall",
        }
    }

    /// Whether this op transfers control and therefore owns a delay slot on
    /// architectures with exposed pipelines (branches, calls, returns, and
    /// the return-from-exception).
    #[must_use]
    pub fn is_control_transfer(&self) -> bool {
        matches!(
            self,
            MicroOp::Branch | MicroOp::Call | MicroOp::Ret | MicroOp::TrapReturn
        )
    }

    /// Whether this op writes memory through the normal store path (and so
    /// lands in a write buffer when the machine has one). Window spills and
    /// atomic operations count; microcoded memory traffic does not.
    #[must_use]
    pub fn writes_memory(&self) -> bool {
        matches!(
            self,
            MicroOp::Store(_) | MicroOp::SaveWindow(_) | MicroOp::AtomicTas(_)
        )
    }

    /// Words this op moves to memory when saving state: one per store, a
    /// whole window per spill (`words_per_window` from the architecture's
    /// window configuration), and the microcode's memory references.
    #[must_use]
    pub fn save_words(&self, words_per_window: u32) -> u32 {
        match self {
            MicroOp::Store(_) | MicroOp::AtomicTas(_) => 1,
            MicroOp::SaveWindow(_) => words_per_window,
            MicroOp::Microcoded { mem_refs, .. } => *mem_refs,
            _ => 0,
        }
    }

    /// Words this op moves from memory when restoring state — the mirror of
    /// [`MicroOp::save_words`].
    #[must_use]
    pub fn restore_words(&self, words_per_window: u32) -> u32 {
        match self {
            MicroOp::Load(_) | MicroOp::AtomicTas(_) => 1,
            MicroOp::RestoreWindow(_) => words_per_window,
            MicroOp::Microcoded { mem_refs, .. } => *mem_refs,
            _ => 0,
        }
    }
}

/// A handler program: a named sequence of phase-tagged micro-ops.
///
/// Build with [`ProgramBuilder`].
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    ops: Vec<(Phase, MicroOp)>,
}

impl Program {
    /// Start building a program.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> ProgramBuilder {
        ProgramBuilder {
            name: name.into(),
            phase: Phase::Body,
            ops: Vec::new(),
        }
    }

    /// The program's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The phase-tagged ops, in execution order.
    #[must_use]
    pub fn ops(&self) -> &[(Phase, MicroOp)] {
        &self.ops
    }

    /// Number of micro-ops (an upper bound on the instruction count: some
    /// ops expand, some are free).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Concatenate another program onto this one, keeping phase tags.
    pub fn append(&mut self, other: &Program) {
        self.ops.extend_from_slice(&other.ops);
    }

    /// Iterate over the phase-tagged ops in execution order.
    pub fn iter(&self) -> std::slice::Iter<'_, (Phase, MicroOp)> {
        self.ops.iter()
    }

    /// The sequence of distinct phases, in first-use order with consecutive
    /// runs collapsed — the program's phase *shape*, which static analysis
    /// checks against the legal trap-handler nesting.
    #[must_use]
    pub fn phase_shape(&self) -> Vec<Phase> {
        let mut shape: Vec<Phase> = Vec::new();
        for (phase, _) in &self.ops {
            if shape.last() != Some(phase) {
                shape.push(*phase);
            }
        }
        shape
    }

    /// A human-readable assembly-style listing, one op per line, with phase
    /// markers — the debugging view of a handler.
    #[must_use]
    pub fn listing(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("; {}\n", self.name));
        let mut current: Option<Phase> = None;
        for (index, (phase, op)) in self.ops.iter().enumerate() {
            if current != Some(*phase) {
                out.push_str(&format!(".phase {phase}\n"));
                current = Some(*phase);
            }
            out.push_str(&format!("  {index:4}  {}\n", mnemonic(op)));
        }
        out
    }
}

/// Assembly-style mnemonic for one micro-op.
fn mnemonic(op: &MicroOp) -> String {
    match op {
        MicroOp::Alu => "alu".to_string(),
        MicroOp::DelayNop => "nop           ; unfilled delay slot".to_string(),
        MicroOp::Load(addr) => format!("load   {addr}"),
        MicroOp::Store(addr) => format!("store  {addr}"),
        MicroOp::Branch => "branch".to_string(),
        MicroOp::Call => "call".to_string(),
        MicroOp::Ret => "ret".to_string(),
        MicroOp::ReadControl => "rdctl".to_string(),
        MicroOp::WriteControl => "wrctl".to_string(),
        MicroOp::TrapEnter => "trap.enter".to_string(),
        MicroOp::TrapReturn => "trap.return".to_string(),
        MicroOp::SaveWindow(addr) => format!("win.save {addr}"),
        MicroOp::RestoreWindow(addr) => format!("win.restore {addr}"),
        MicroOp::Microcoded { cycles, mem_refs } => {
            format!("ucode  cycles={cycles} refs={mem_refs}")
        }
        MicroOp::AtomicTas(addr) => format!("tas    {addr}"),
        MicroOp::TlbWriteEntry => "tlb.write".to_string(),
        MicroOp::TlbFlushPage(addr) => format!("tlb.flushpage {addr}"),
        MicroOp::TlbFlushAll => "tlb.flushall".to_string(),
        MicroOp::CacheFlushPage(addr) => format!("cache.flushpage {addr}"),
        MicroOp::CacheFlushAll => "cache.flushall".to_string(),
        MicroOp::SwitchAddressSpace(a, b) => format!("mmu.switch {a} <-> {b}"),
        MicroOp::DrainWriteBuffer => "wb.drain".to_string(),
        MicroOp::DrainFpu => "fpu.drain".to_string(),
        MicroOp::Stall(cycles) => format!("stall  {cycles}"),
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = &'a (Phase, MicroOp);
    type IntoIter = std::slice::Iter<'a, (Phase, MicroOp)>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} ops)", self.name, self.ops.len())
    }
}

/// Builder for [`Program`]s, with convenience emitters for common idioms.
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    phase: Phase,
    ops: Vec<(Phase, MicroOp)>,
}

impl ProgramBuilder {
    /// Switch the phase subsequent ops are tagged with.
    pub fn phase(&mut self, phase: Phase) -> &mut Self {
        self.phase = phase;
        self
    }

    /// Emit one op.
    pub fn op(&mut self, op: MicroOp) -> &mut Self {
        self.ops.push((self.phase, op));
        self
    }

    /// Emit `n` ALU instructions.
    pub fn alu(&mut self, n: u32) -> &mut Self {
        for _ in 0..n {
            self.op(MicroOp::Alu);
        }
        self
    }

    /// Emit a load from `addr`.
    pub fn load(&mut self, addr: VirtAddr) -> &mut Self {
        self.op(MicroOp::Load(addr))
    }

    /// Emit a store to `addr`.
    pub fn store(&mut self, addr: VirtAddr) -> &mut Self {
        self.op(MicroOp::Store(addr))
    }

    /// Emit `n` consecutive word stores starting at `base` — the register-save
    /// idiom whose write-buffer behaviour the paper highlights.
    pub fn store_run(&mut self, base: VirtAddr, n: u32) -> &mut Self {
        for i in 0..n {
            self.store(base.offset(4 * i));
        }
        self
    }

    /// Emit `n` consecutive word loads starting at `base`.
    pub fn load_run(&mut self, base: VirtAddr, n: u32) -> &mut Self {
        for i in 0..n {
            self.load(base.offset(4 * i));
        }
        self
    }

    /// Emit `n` control-register reads.
    pub fn read_control(&mut self, n: u32) -> &mut Self {
        for _ in 0..n {
            self.op(MicroOp::ReadControl);
        }
        self
    }

    /// Emit `n` control-register writes.
    pub fn write_control(&mut self, n: u32) -> &mut Self {
        for _ in 0..n {
            self.op(MicroOp::WriteControl);
        }
        self
    }

    /// Emit a branch, followed by an explicit nop for its unfilled delay
    /// slot when `unfilled` is true.
    pub fn branch(&mut self, unfilled: bool) -> &mut Self {
        self.op(MicroOp::Branch);
        if unfilled {
            self.op(MicroOp::DelayNop);
        }
        self
    }

    /// Finish the program. The builder is left intact, so further ops can
    /// be appended and `build` called again.
    #[must_use]
    pub fn build(&mut self) -> Program {
        Program {
            name: self.name.clone(),
            ops: self.ops.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tags_phases() {
        let mut b = Program::builder("demo");
        b.phase(Phase::EntryExit).op(MicroOp::TrapEnter);
        b.phase(Phase::CallPrep).alu(3);
        let program = b.build();
        assert_eq!(program.len(), 4);
        assert_eq!(program.ops()[0].0, Phase::EntryExit);
        assert_eq!(program.ops()[1].0, Phase::CallPrep);
        assert_eq!(program.name(), "demo");
    }

    #[test]
    fn store_run_emits_consecutive_addresses() {
        let mut b = Program::builder("stores");
        b.store_run(VirtAddr(0x100), 3);
        let program = b.build();
        let addrs: Vec<u32> = program
            .ops()
            .iter()
            .filter_map(|(_, op)| match op {
                MicroOp::Store(a) => Some(a.0),
                _ => None,
            })
            .collect();
        assert_eq!(addrs, vec![0x100, 0x104, 0x108]);
    }

    #[test]
    fn branch_with_unfilled_slot_adds_nop() {
        let mut b = Program::builder("b");
        b.branch(true).branch(false);
        let program = b.build();
        let nops = program
            .ops()
            .iter()
            .filter(|(_, op)| *op == MicroOp::DelayNop)
            .count();
        assert_eq!(nops, 1);
        assert_eq!(program.len(), 3);
    }

    #[test]
    fn append_preserves_order_and_phase() {
        let mut a = Program::builder("a");
        a.phase(Phase::EntryExit).alu(1);
        let mut a = a.build();
        let mut b = Program::builder("b");
        b.phase(Phase::Body).alu(2);
        a.append(&b.build());
        assert_eq!(a.len(), 3);
        assert_eq!(a.ops()[2].0, Phase::Body);
    }

    #[test]
    fn phases_enumerate_in_order() {
        let all = Phase::all();
        for (i, phase) in all.iter().enumerate() {
            assert_eq!(phase.index(), i);
        }
        assert_eq!(Phase::CallPrep.to_string(), "call preparation");
    }

    #[test]
    fn listing_shows_phases_and_mnemonics() {
        let mut b = Program::builder("listed");
        b.phase(Phase::EntryExit).op(MicroOp::TrapEnter);
        b.phase(Phase::Body)
            .load(VirtAddr(0x1000))
            .op(MicroOp::Stall(7));
        let text = b.build().listing();
        assert!(text.contains("; listed"));
        assert!(text.contains(".phase kernel entry/exit"));
        assert!(text.contains("trap.enter"));
        assert!(text.contains("load   va:0x00001000"));
        assert!(text.contains("stall  7"));
    }

    #[test]
    fn every_mnemonic_is_distinct_and_nonempty() {
        let ops = [
            MicroOp::Alu,
            MicroOp::DelayNop,
            MicroOp::Load(VirtAddr(0)),
            MicroOp::Store(VirtAddr(0)),
            MicroOp::Branch,
            MicroOp::Call,
            MicroOp::Ret,
            MicroOp::ReadControl,
            MicroOp::WriteControl,
            MicroOp::TrapEnter,
            MicroOp::TrapReturn,
            MicroOp::SaveWindow(VirtAddr(0)),
            MicroOp::RestoreWindow(VirtAddr(0)),
            MicroOp::Microcoded {
                cycles: 1,
                mem_refs: 0,
            },
            MicroOp::AtomicTas(VirtAddr(0)),
            MicroOp::TlbWriteEntry,
            MicroOp::TlbFlushPage(VirtAddr(0)),
            MicroOp::TlbFlushAll,
            MicroOp::CacheFlushPage(VirtAddr(0)),
            MicroOp::CacheFlushAll,
            MicroOp::SwitchAddressSpace(Asid(1), Asid(2)),
            MicroOp::DrainWriteBuffer,
            MicroOp::DrainFpu,
            MicroOp::Stall(1),
        ];
        let mnemonics: Vec<String> = ops.iter().map(mnemonic).collect();
        let mut unique = mnemonics.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), mnemonics.len(), "mnemonics must be distinct");
        assert!(mnemonics.iter().all(|m| !m.is_empty()));
    }

    #[test]
    fn empty_program_reports_empty() {
        let program = Program::builder("empty").build();
        assert!(program.is_empty());
        assert!(program.to_string().contains("0 ops"));
    }

    #[test]
    fn structural_accessors_classify_ops() {
        assert!(MicroOp::Branch.is_control_transfer());
        assert!(MicroOp::TrapReturn.is_control_transfer());
        assert!(!MicroOp::TrapEnter.is_control_transfer());
        assert!(MicroOp::Store(VirtAddr(0)).writes_memory());
        assert!(MicroOp::SaveWindow(VirtAddr(0)).writes_memory());
        assert!(!MicroOp::Load(VirtAddr(0)).writes_memory());
        assert_eq!(
            MicroOp::Microcoded {
                cycles: 9,
                mem_refs: 4
            }
            .save_words(16),
            4
        );
        assert_eq!(MicroOp::SaveWindow(VirtAddr(0)).save_words(16), 16);
        assert_eq!(MicroOp::Store(VirtAddr(0)).save_words(16), 1);
        assert_eq!(MicroOp::RestoreWindow(VirtAddr(0)).restore_words(16), 16);
        assert_eq!(MicroOp::Alu.save_words(16), 0);
        assert_eq!(MicroOp::Alu.mnemonic(), "alu");
    }

    #[test]
    fn phase_shape_collapses_runs() {
        let mut b = Program::builder("shape");
        b.phase(Phase::EntryExit).op(MicroOp::TrapEnter);
        b.phase(Phase::CallPrep).alu(3);
        b.phase(Phase::CallPrep).alu(1); // same phase: still one segment
        b.phase(Phase::Body).alu(2);
        b.phase(Phase::EntryExit).op(MicroOp::TrapReturn);
        let program = b.build();
        assert_eq!(
            program.phase_shape(),
            vec![
                Phase::EntryExit,
                Phase::CallPrep,
                Phase::Body,
                Phase::EntryExit
            ]
        );
        assert_eq!(program.iter().count(), program.len());
        assert_eq!((&program).into_iter().count(), program.len());
    }
}
