//! The invariant rules.
//!
//! Each rule is an independent [`Rule`] trait object with a stable
//! diagnostic code. A rule walks one [`Program`] under one [`ArchSpec`] and
//! reports every place the program violates the architectural contract the
//! paper describes — without executing anything. Severities follow the
//! lattice in [`crate::diagnostics`]: `Error` findings are invariant
//! violations the hardware would punish, `Warn` findings are architecturally
//! unnecessary work, `Info` findings are accepted hazards worth knowing
//! about.

use crate::diagnostics::{Diagnostic, Severity};
use osarch_cpu::{ArchSpec, MicroOp, Phase, Program};
use osarch_kernel::Primitive;
use osarch_mem::{Addressing, TlbRefill};

/// Everything a rule may consult: the architecture, the program, and (when
/// known) which primitive operation the program implements.
#[derive(Debug, Clone, Copy)]
pub struct RuleContext<'a> {
    /// The architecture the program targets.
    pub spec: &'a ArchSpec,
    /// The primitive the program implements, when the caller knows it.
    pub primitive: Option<Primitive>,
    /// The program under analysis.
    pub program: &'a Program,
}

impl RuleContext<'_> {
    /// Build a diagnostic anchored to this program.
    #[must_use]
    pub fn diag(
        &self,
        code: &'static str,
        severity: Severity,
        op_index: Option<usize>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            arch: self.spec.arch,
            program: self.program.name().to_string(),
            op_index,
            message: message.into(),
        }
    }
}

/// One static invariant check.
pub trait Rule: Send + Sync {
    /// The stable diagnostic code all findings of this rule carry.
    fn code(&self) -> &'static str;
    /// A short kebab-case name.
    fn name(&self) -> &'static str;
    /// One sentence describing the invariant.
    fn summary(&self) -> &'static str;
    /// Walk the program and report violations.
    fn check(&self, ctx: &RuleContext<'_>) -> Vec<Diagnostic>;
}

/// The default rule set, in code order.
#[must_use]
pub fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(DelaySlotDiscipline),
        Box::new(WindowBalance),
        Box::new(WriteBufferDrain),
        Box::new(StateSaveCompleteness),
        Box::new(PhaseOrdering),
        Box::new(ControlRegisterLegality),
        Box::new(FeatureLegality),
        Box::new(RedundantMaintenance),
    ]
}

// ---------------------------------------------------------------------------
// OA001 — delay-slot discipline
// ---------------------------------------------------------------------------

/// On exposed-pipeline architectures every control transfer owns a delay
/// slot: something must follow it (the next useful instruction or an
/// explicit [`MicroOp::DelayNop`]), and the slot must not itself be a
/// control transfer. On interlocked architectures `DelayNop` must never
/// appear — the hardware has no slot to fill.
pub struct DelaySlotDiscipline;

impl Rule for DelaySlotDiscipline {
    fn code(&self) -> &'static str {
        "OA001"
    }
    fn name(&self) -> &'static str {
        "delay-slot-discipline"
    }
    fn summary(&self) -> &'static str {
        "branches own a fillable delay slot on exposed pipelines; interlocked pipelines have none"
    }

    fn check(&self, ctx: &RuleContext<'_>) -> Vec<Diagnostic> {
        let ops = ctx.program.ops();
        let mut out = Vec::new();
        if !ctx.spec.has_delay_slots {
            for (i, (_, op)) in ops.iter().enumerate() {
                if *op == MicroOp::DelayNop {
                    out.push(ctx.diag(
                        self.code(),
                        Severity::Error,
                        Some(i),
                        "explicit delay-slot nop on an interlocked pipeline: this architecture \
                         exposes no delay slots",
                    ));
                }
            }
            return out;
        }
        for (i, (_, op)) in ops.iter().enumerate() {
            if !op.is_control_transfer() {
                continue;
            }
            match ops.get(i + 1) {
                None => out.push(ctx.diag(
                    self.code(),
                    Severity::Error,
                    Some(i),
                    format!(
                        "`{}` is the final op: its delay slot can never be filled \
                         (append a fill or an explicit nop)",
                        op.mnemonic()
                    ),
                )),
                Some((_, next)) if next.is_control_transfer() => out.push(ctx.diag(
                    self.code(),
                    Severity::Error,
                    Some(i + 1),
                    format!(
                        "control transfer `{}` sits in the delay slot of `{}`",
                        next.mnemonic(),
                        op.mnemonic()
                    ),
                )),
                Some(_) => {}
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// OA002 — window balance
// ---------------------------------------------------------------------------

/// Window spills and fills must balance along the program, never exceed the
/// usable window depth, and never appear at all on windowless machines.
pub struct WindowBalance;

impl Rule for WindowBalance {
    fn code(&self) -> &'static str {
        "OA002"
    }
    fn name(&self) -> &'static str {
        "window-balance"
    }
    fn summary(&self) -> &'static str {
        "register-window saves and restores balance and stay within the window file"
    }

    fn check(&self, ctx: &RuleContext<'_>) -> Vec<Diagnostic> {
        let ops = ctx.program.ops();
        let mut out = Vec::new();
        let Some(config) = ctx.spec.windows else {
            for (i, (_, op)) in ops.iter().enumerate() {
                if matches!(op, MicroOp::SaveWindow(_) | MicroOp::RestoreWindow(_)) {
                    out.push(ctx.diag(
                        self.code(),
                        Severity::Error,
                        Some(i),
                        format!(
                            "`{}` on an architecture without register windows",
                            op.mnemonic()
                        ),
                    ));
                }
            }
            return out;
        };
        // One window always belongs to the running frame, so at most
        // `windows - 1` live frames can ever need spilling.
        let usable = i64::from(config.windows) - 1;
        let mut depth: i64 = 0;
        for (i, (_, op)) in ops.iter().enumerate() {
            match op {
                MicroOp::SaveWindow(_) => {
                    depth += 1;
                    if depth > usable {
                        out.push(ctx.diag(
                            self.code(),
                            Severity::Error,
                            Some(i),
                            format!(
                                "spills {depth} windows but only {usable} frames can be live \
                                 in a {}-window file",
                                config.windows
                            ),
                        ));
                    }
                }
                MicroOp::RestoreWindow(_) => {
                    depth -= 1;
                    if depth < 0 {
                        out.push(ctx.diag(
                            self.code(),
                            Severity::Error,
                            Some(i),
                            "window fill without a matching spill",
                        ));
                        depth = 0;
                    }
                }
                _ => {}
            }
        }
        if depth != 0 {
            out.push(ctx.diag(
                self.code(),
                Severity::Error,
                None,
                format!("{depth} window spill(s) never restored by the end of the program"),
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// OA003 — write-buffer drain
// ---------------------------------------------------------------------------

/// On machines with a write buffer, a return-from-exception or an
/// address-space switch must not be reachable with stores still buffered:
/// the paper's handlers drain explicitly before both. A TLB update with
/// stores still buffered is reported as a note — a refill racing the buffer
/// may read a stale PTE, a hazard the shipped handlers accept because their
/// PTE stores and flushes target the same context.
pub struct WriteBufferDrain;

impl Rule for WriteBufferDrain {
    fn code(&self) -> &'static str {
        "OA003"
    }
    fn name(&self) -> &'static str {
        "write-buffer-drain"
    }
    fn summary(&self) -> &'static str {
        "the write buffer drains before returns-from-exception and address-space switches"
    }

    fn check(&self, ctx: &RuleContext<'_>) -> Vec<Diagnostic> {
        if ctx.spec.mem.write_buffer.is_none() {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut pending: Option<usize> = None;
        for (i, (_, op)) in ctx.program.ops().iter().enumerate() {
            match op {
                MicroOp::DrainWriteBuffer => pending = None,
                MicroOp::SwitchAddressSpace(..) => {
                    if let Some(store) = pending {
                        out.push(ctx.diag(
                            self.code(),
                            Severity::Error,
                            Some(i),
                            format!(
                                "address-space switch with the write buffer undrained: the \
                                 store at op {store} may land in the old context"
                            ),
                        ));
                    }
                }
                MicroOp::TrapReturn => {
                    if let Some(store) = pending {
                        out.push(ctx.diag(
                            self.code(),
                            Severity::Error,
                            Some(i),
                            format!(
                                "return-from-exception may outrun the buffered store at op \
                                 {store}: drain the write buffer first"
                            ),
                        ));
                    }
                }
                MicroOp::TlbWriteEntry | MicroOp::TlbFlushPage(_) | MicroOp::TlbFlushAll => {
                    if let Some(store) = pending {
                        out.push(ctx.diag(
                            self.code(),
                            Severity::Info,
                            Some(i),
                            format!(
                                "TLB update issued with the store at op {store} still \
                                 buffered; a racing refill may read a stale PTE"
                            ),
                        ));
                    }
                }
                op if op.writes_memory() => pending = Some(i),
                _ => {}
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// OA004 — state-save completeness
// ---------------------------------------------------------------------------

/// A context switch must move at least the state the architecture forces it
/// to: the trap-saved register set, plus (on windowed machines) the average
/// window traffic of a switch. Both the save side and the restore side are
/// checked; microcoded memory references count (the CVAX switches context
/// almost entirely inside SVPCTX/LDPCTX).
pub struct StateSaveCompleteness;

impl Rule for StateSaveCompleteness {
    fn code(&self) -> &'static str {
        "OA004"
    }
    fn name(&self) -> &'static str {
        "state-save-completeness"
    }
    fn summary(&self) -> &'static str {
        "context switches move at least the architecturally required state words"
    }

    fn check(&self, ctx: &RuleContext<'_>) -> Vec<Diagnostic> {
        if ctx.primitive != Some(Primitive::ContextSwitch) {
            return Vec::new();
        }
        let spec = ctx.spec;
        let words_per_window = spec.windows.map_or(0, |w| w.words_per_window);
        let window_traffic = spec
            .windows
            .map_or(0, |w| spec.avg_windows_on_switch * w.words_per_window);
        let floor = spec.trap_saved_registers + window_traffic;
        let saved: u32 = ctx
            .program
            .iter()
            .map(|(_, op)| op.save_words(words_per_window))
            .sum();
        let restored: u32 = ctx
            .program
            .iter()
            .map(|(_, op)| op.restore_words(words_per_window))
            .sum();
        let mut out = Vec::new();
        if saved < floor {
            out.push(ctx.diag(
                self.code(),
                Severity::Error,
                None,
                format!(
                    "context switch saves only {saved} words; this architecture's switch must \
                     move at least {floor} (trap-saved registers{})",
                    if window_traffic > 0 {
                        " plus average window traffic"
                    } else {
                        ""
                    }
                ),
            ));
        }
        if restored < floor {
            out.push(ctx.diag(
                self.code(),
                Severity::Error,
                None,
                format!(
                    "context switch restores only {restored} words for the incoming thread; \
                     at least {floor} are required"
                ),
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// OA005 — phase ordering
// ---------------------------------------------------------------------------

/// Handler phases must nest legally: kernel entry/exit brackets call
/// preparation, which brackets the C call/return, which brackets the body.
/// Trap entry and return must live in the entry/exit phase and pair up.
pub struct PhaseOrdering;

/// Whether `from -> to` is a legal step in the trap-handler phase nesting.
fn legal_transition(from: Phase, to: Phase) -> bool {
    matches!(
        (from, to),
        (Phase::EntryExit, Phase::CallPrep)
            | (Phase::CallPrep, Phase::CallReturn | Phase::EntryExit)
            | (
                Phase::CallReturn,
                Phase::Body | Phase::CallPrep | Phase::EntryExit
            )
            | (Phase::Body, Phase::CallReturn)
    )
}

impl Rule for PhaseOrdering {
    fn code(&self) -> &'static str {
        "OA005"
    }
    fn name(&self) -> &'static str {
        "phase-ordering"
    }
    fn summary(&self) -> &'static str {
        "phases follow the legal entry/exit > call-prep > call/return > body nesting"
    }

    fn check(&self, ctx: &RuleContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        // `Other` is free-form instrumentation; it does not participate in
        // the nesting.
        let shape: Vec<Phase> = ctx
            .program
            .phase_shape()
            .into_iter()
            .filter(|p| *p != Phase::Other)
            .collect();
        if let Some(&first) = shape.first() {
            if !matches!(first, Phase::EntryExit | Phase::Body) {
                out.push(ctx.diag(
                    self.code(),
                    Severity::Error,
                    Some(0),
                    format!("program begins in phase `{first}`; it must begin at kernel entry or in the body"),
                ));
            }
        }
        if let Some(&last) = shape.last() {
            if !matches!(last, Phase::EntryExit | Phase::Body) {
                out.push(ctx.diag(
                    self.code(),
                    Severity::Error,
                    None,
                    format!(
                        "program ends in phase `{last}`; it must end at kernel exit or in the body"
                    ),
                ));
            }
        }
        for pair in shape.windows(2) {
            if !legal_transition(pair[0], pair[1]) {
                out.push(ctx.diag(
                    self.code(),
                    Severity::Error,
                    None,
                    format!("illegal phase transition `{}` -> `{}`", pair[0], pair[1]),
                ));
            }
        }
        let mut first_enter = None;
        let mut last_return = None;
        for (i, (phase, op)) in ctx.program.iter().enumerate() {
            let is_enter = *op == MicroOp::TrapEnter;
            let is_return = *op == MicroOp::TrapReturn;
            if (is_enter || is_return) && *phase != Phase::EntryExit {
                out.push(ctx.diag(
                    self.code(),
                    Severity::Error,
                    Some(i),
                    format!(
                        "`{}` tagged `{phase}`; trap entry/return belongs to the kernel \
                         entry/exit phase",
                        op.mnemonic()
                    ),
                ));
            }
            if is_enter && first_enter.is_none() {
                first_enter = Some(i);
            }
            if is_return {
                last_return = Some(i);
            }
        }
        match (first_enter, last_return) {
            (Some(enter), Some(ret)) if enter > ret => out.push(ctx.diag(
                self.code(),
                Severity::Error,
                Some(ret),
                "return-from-exception precedes the trap entry",
            )),
            (Some(enter), None) => out.push(ctx.diag(
                self.code(),
                Severity::Error,
                Some(enter),
                "trap entry without a return-from-exception",
            )),
            (None, Some(ret)) => out.push(ctx.diag(
                self.code(),
                Severity::Error,
                Some(ret),
                "return-from-exception without a trap entry",
            )),
            _ => {}
        }
        out
    }
}

// ---------------------------------------------------------------------------
// OA006 — control-register legality
// ---------------------------------------------------------------------------

/// A handler cannot read (or write) more special registers in one run than
/// the architecture exposes: the miscellaneous state words plus the
/// pipeline control registers, plus the two always-present cause/status
/// style registers.
pub struct ControlRegisterLegality;

impl ControlRegisterLegality {
    fn budget(spec: &ArchSpec) -> u32 {
        spec.misc_state_words + spec.pipeline_control_regs + 2
    }
}

impl Rule for ControlRegisterLegality {
    fn code(&self) -> &'static str {
        "OA006"
    }
    fn name(&self) -> &'static str {
        "control-register-legality"
    }
    fn summary(&self) -> &'static str {
        "control-register access runs fit in the architecture's special-register file"
    }

    fn check(&self, ctx: &RuleContext<'_>) -> Vec<Diagnostic> {
        let budget = Self::budget(ctx.spec);
        // Collect maximal runs of consecutive identical control accesses.
        let mut runs: Vec<(MicroOp, usize, usize)> = Vec::new(); // (kind, start, len)
        for (i, (_, op)) in ctx.program.ops().iter().enumerate() {
            if !matches!(op, MicroOp::ReadControl | MicroOp::WriteControl) {
                continue;
            }
            match runs.last_mut() {
                Some((kind, start, len)) if *kind == *op && *start + *len == i => *len += 1,
                _ => runs.push((*op, i, 1)),
            }
        }
        runs.into_iter()
            .filter(|(_, _, len)| *len > budget as usize)
            .map(|(kind, start, len)| {
                let verb = if kind == MicroOp::ReadControl {
                    "reads"
                } else {
                    "writes"
                };
                ctx.diag(
                    self.code(),
                    Severity::Error,
                    Some(start),
                    format!(
                        "{verb} {len} control registers in a row, but the architecture \
                         exposes only {budget} words of special state"
                    ),
                )
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// OA007 — feature legality
// ---------------------------------------------------------------------------

/// A program must only use features its architecture has: no atomic
/// test-and-set on the MIPS, no FPU drain without exposed FPU pipeline
/// state, no microcoded ops on machines without microcode.
pub struct FeatureLegality;

impl Rule for FeatureLegality {
    fn code(&self) -> &'static str {
        "OA007"
    }
    fn name(&self) -> &'static str {
        "feature-legality"
    }
    fn summary(&self) -> &'static str {
        "programs use only instructions the architecture implements"
    }

    fn check(&self, ctx: &RuleContext<'_>) -> Vec<Diagnostic> {
        let spec = ctx.spec;
        let no_microcode = spec.microcoded_trap.is_none()
            && spec.microcoded_call.is_none()
            && spec.microcoded_context_switch.is_none();
        let mut out = Vec::new();
        for (i, (_, op)) in ctx.program.ops().iter().enumerate() {
            match op {
                MicroOp::AtomicTas(_) if !spec.has_atomic_tas => out.push(ctx.diag(
                    self.code(),
                    Severity::Error,
                    Some(i),
                    "atomic test-and-set on an architecture without an atomic semaphore \
                     instruction",
                )),
                MicroOp::DrainFpu if !spec.fpu_freeze_on_fault && spec.fpu_drain_cycles == 0 => {
                    out.push(ctx.diag(
                        self.code(),
                        Severity::Error,
                        Some(i),
                        "FPU pipeline drain on an architecture without exposed FPU pipeline \
                         state",
                    ));
                }
                MicroOp::Microcoded { .. } if no_microcode => out.push(ctx.diag(
                    self.code(),
                    Severity::Error,
                    Some(i),
                    "microcoded op on an architecture without microcode support",
                )),
                _ => {}
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// OA008 — redundant maintenance
// ---------------------------------------------------------------------------

/// Cache and TLB maintenance the architecture does not require is wasted
/// work: flushing a physically addressed or tagged cache, purging a tagged
/// TLB wholesale, or writing TLB entries from software on a
/// hardware-refilled machine.
pub struct RedundantMaintenance;

impl Rule for RedundantMaintenance {
    fn code(&self) -> &'static str {
        "OA008"
    }
    fn name(&self) -> &'static str {
        "redundant-maintenance"
    }
    fn summary(&self) -> &'static str {
        "no cache/TLB maintenance the architecture makes unnecessary"
    }

    fn check(&self, ctx: &RuleContext<'_>) -> Vec<Diagnostic> {
        let mem = &ctx.spec.mem;
        let mut out = Vec::new();
        for (i, (_, op)) in ctx.program.ops().iter().enumerate() {
            match op {
                MicroOp::CacheFlushPage(_) | MicroOp::CacheFlushAll => match &mem.cache {
                    None => out.push(ctx.diag(
                        self.code(),
                        Severity::Warn,
                        Some(i),
                        "cache flush on a machine without a cache",
                    )),
                    Some(cache) if cache.addressing == Addressing::Physical => {
                        out.push(ctx.diag(
                            self.code(),
                            Severity::Warn,
                            Some(i),
                            "flushing a physically addressed cache: PTE changes and context \
                             switches leave it coherent",
                        ));
                    }
                    Some(cache) if cache.tagged => out.push(ctx.diag(
                        self.code(),
                        Severity::Warn,
                        Some(i),
                        "flushing a virtually addressed cache whose tags already \
                         disambiguate address spaces",
                    )),
                    Some(_) => {}
                },
                MicroOp::TlbFlushAll => match &mem.tlb {
                    None => out.push(ctx.diag(
                        self.code(),
                        Severity::Warn,
                        Some(i),
                        "TLB purge on a machine without a TLB",
                    )),
                    Some(tlb) if tlb.tagged => out.push(ctx.diag(
                        self.code(),
                        Severity::Warn,
                        Some(i),
                        "wholesale purge of a tagged TLB: entries of other address spaces \
                         are already inert",
                    )),
                    Some(_) => {}
                },
                MicroOp::TlbFlushPage(_) if mem.tlb.is_none() => out.push(ctx.diag(
                    self.code(),
                    Severity::Warn,
                    Some(i),
                    "TLB entry flush on a machine without a TLB",
                )),
                MicroOp::TlbWriteEntry if matches!(mem.tlb_refill, TlbRefill::Hardware) => out
                    .push(ctx.diag(
                        self.code(),
                        Severity::Warn,
                        Some(i),
                        "software TLB write on a hardware-refilled TLB",
                    )),
                _ => {}
            }
        }
        out
    }
}
