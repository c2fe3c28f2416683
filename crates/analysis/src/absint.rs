//! The abstract-interpretation verifier: a worklist fixpoint with widening
//! over the product domain in [`crate::domain`], plus the path-sensitive
//! rule pack OA201–OA208 and machine-checkable proof artifacts.
//!
//! Where the OA001–OA008 pattern rules scan a program linearly, this engine
//! computes, for every basic block of a [`Cfg`], the set of abstract states
//! feasible on *some* path from entry — so its diagnostics say "feasible
//! along this witness path", and its artifacts say "proved along every
//! path". On the kernel catalog's straight-line programs the abstract
//! semantics is exact (no joins, no widening), which is what lets the clean
//! catalog earn `proved` verdicts with zero `unknown`s; loops — in the
//! synthetic CFGs [`AbsintAnalyzer::check_cfg`] accepts — bring widening
//! into play, and any invariant whose interval was widened away degrades
//! honestly to `unknown` instead of claiming a proof.
//!
//! | code  | rule | checks |
//! |-------|------|--------|
//! | OA201 | window-overflow-feasible | spill depth can exceed the window file on some path |
//! | OA202 | window-underflow-or-leak | fill without spill feasible; spills outstanding at exit |
//! | OA203 | write-buffer-undrained | a path reaches a switch/return with stores buffered |
//! | OA204 | state-save-incomplete | the sparsest path saves/restores fewer words than the floor |
//! | OA205 | loop-unbounded-resource | window depth or buffer occupancy widened to +∞ at a loop head |
//! | OA206 | maintenance-redundant-on-path | a flush hits a resource already clean on all (or some) paths |
//! | OA207 | trap-nesting-unbalanced | a return-from-exception without a matching entry is feasible |
//! | OA208 | unreachable-code | no path from entry reaches the block |

use crate::cfg::Cfg;
use crate::diagnostics::{Diagnostic, Severity};
use crate::domain::{AbsState, Interval, Tri, POS_INF};
use osarch_cpu::{Arch, ArchSpec, MicroOp, Phase, Program};
use osarch_kernel::{program_catalog, CatalogEntry, KernelLayout, Primitive};
use std::collections::VecDeque;
use std::fmt;

/// The path-sensitive rule pack as `(code, name, summary)` rows — the
/// OA2xx analog of [`crate::default_rules`], consumed by the JSON emitter
/// and the docs.
#[must_use]
pub fn absint_rule_table() -> &'static [(&'static str, &'static str, &'static str)] {
    &[
        (
            "OA201",
            "window-overflow-feasible",
            "no path can spill more register windows than the window file holds",
        ),
        (
            "OA202",
            "window-underflow-or-leak",
            "no path fills an unspilled window or exits with spills outstanding",
        ),
        (
            "OA203",
            "write-buffer-undrained",
            "no path reaches a switch or return-from-exception with stores buffered",
        ),
        (
            "OA204",
            "state-save-incomplete",
            "the sparsest context-switch path still moves the required state words",
        ),
        (
            "OA205",
            "loop-unbounded-resource",
            "no loop grows window depth or write-buffer occupancy without bound",
        ),
        (
            "OA206",
            "maintenance-redundant-on-path",
            "no flush hits a resource already clean on all (or some) incoming paths",
        ),
        (
            "OA207",
            "trap-nesting-unbalanced",
            "no path returns from an exception it never entered",
        ),
        (
            "OA208",
            "unreachable-code",
            "every basic block is reachable from entry",
        ),
    ]
}

// ---------------------------------------------------------------------------
// Findings and proof artifacts
// ---------------------------------------------------------------------------

/// A path-sensitive finding: the diagnostic plus the witness path that
/// reaches it — the op index of each basic-block head on the first-reach
/// chain from entry, ending at the offending op when the finding points at
/// one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The diagnostic, in the same vocabulary the pattern rules use.
    pub diag: Diagnostic,
    /// Op indices along the path from entry to the finding site.
    pub witness: Vec<usize>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.diag)?;
        if !self.witness.is_empty() {
            let path: Vec<String> = self.witness.iter().map(ToString::to_string).collect();
            write!(f, " [path {}]", path.join("->"))?;
        }
        Ok(())
    }
}

/// The verdict the engine reaches for one invariant of one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The invariant holds on every path (or holds vacuously — e.g.
    /// window balance on a windowless machine).
    Proved,
    /// A violating path exists; the witness op indices trace it.
    Refuted(Vec<usize>),
    /// Widening destroyed the precision needed to decide.
    Unknown,
}

impl Verdict {
    /// The lowercase label used in reports and JSON.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Proved => "proved",
            Verdict::Refuted(_) => "refuted",
            Verdict::Unknown => "unknown",
        }
    }
}

/// One invariant's outcome inside a proof artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantResult {
    /// Stable invariant name (`window-balance`, `write-buffer-drain`,
    /// `state-save-completeness`).
    pub invariant: &'static str,
    /// What the fixpoint established.
    pub verdict: Verdict,
}

/// The machine-checkable proof artifact for one program: what was proved,
/// what was refuted (and where), and how hard the fixpoint worked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofArtifact {
    /// The architecture the program was generated for.
    pub arch: Arch,
    /// The program name.
    pub program: String,
    /// Per-invariant verdicts, in stable order.
    pub invariants: Vec<InvariantResult>,
    /// Worklist block visits until the fixpoint stabilized.
    pub iterations: usize,
    /// Basic blocks in the CFG.
    pub blocks: usize,
    /// Edges in the CFG.
    pub edges: usize,
    /// Components in the product abstract domain.
    pub domain_width: usize,
    /// Whether widening fired anywhere (always `false` on straight-line
    /// programs).
    pub widened: bool,
}

/// The result of analyzing one program: findings plus the proof artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramAnalysis {
    /// Path-sensitive findings, in deterministic order.
    pub findings: Vec<Finding>,
    /// The proof artifact.
    pub artifact: ProofArtifact,
}

// ---------------------------------------------------------------------------
// The fixpoint engine
// ---------------------------------------------------------------------------

/// The solved dataflow problem: per-block abstract states plus the
/// bookkeeping the rule pack and the artifacts read.
#[derive(Debug, Clone)]
pub struct Fixpoint {
    /// State at each block entry (`None` = unreachable).
    pub in_states: Vec<Option<AbsState>>,
    /// State at each block exit (`None` = unreachable).
    pub out_states: Vec<Option<AbsState>>,
    /// The block that first reached each block — the spine the witness
    /// paths are rebuilt from.
    pub first_pred: Vec<Option<usize>>,
    /// Worklist block visits performed.
    pub iterations: usize,
    /// Blocks where widening applies (targets of back edges).
    pub widen_points: Vec<bool>,
}

impl Fixpoint {
    /// Whether any reachable state carries a widened (infinite) bound in
    /// the component selected by `pick` — the "precision lost" test behind
    /// `unknown` verdicts.
    fn imprecise(&self, pick: impl Fn(&AbsState) -> Interval) -> bool {
        self.in_states
            .iter()
            .chain(self.out_states.iter())
            .flatten()
            .any(|s| {
                let iv = pick(s);
                iv.lo == crate::domain::NEG_INF || iv.hi == POS_INF
            })
    }

    /// The witness path to `block`: the op index of each block head on the
    /// first-reach chain from entry.
    #[must_use]
    pub fn witness_to(&self, cfg: &Cfg, block: usize) -> Vec<usize> {
        if cfg.op_count == 0 {
            return Vec::new();
        }
        let mut chain = Vec::new();
        let mut cursor = Some(block);
        while let Some(b) = cursor {
            chain.push(cfg.blocks[b].start.min(cfg.op_count.saturating_sub(1)));
            cursor = self.first_pred[b];
        }
        chain.reverse();
        chain.dedup();
        chain
    }
}

/// Solve the dataflow problem over `cfg` with the given per-op transfer
/// function. Terminates on any CFG: every cycle contains an edge from a
/// later block to an earlier one, every such target is a widen point, and
/// widened components stabilize in finitely many steps.
pub fn solve(cfg: &Cfg, transfer: &dyn Fn(usize, &mut AbsState)) -> Fixpoint {
    let n = cfg.blocks.len();
    let widen_points: Vec<bool> = (0..n)
        .map(|s| cfg.blocks[s].preds.iter().any(|&p| p >= s))
        .collect();
    let mut fix = Fixpoint {
        in_states: vec![None; n],
        out_states: vec![None; n],
        first_pred: vec![None; n],
        iterations: 0,
        widen_points,
    };
    fix.in_states[0] = Some(AbsState::entry());
    let mut queued = vec![false; n];
    let mut worklist: VecDeque<usize> = VecDeque::new();
    worklist.push_back(0);
    queued[0] = true;
    while let Some(b) = worklist.pop_front() {
        queued[b] = false;
        fix.iterations += 1;
        let Some(in_b) = fix.in_states[b].clone() else {
            continue;
        };
        let mut out = in_b;
        for i in cfg.blocks[b].ops() {
            transfer(i, &mut out);
        }
        if fix.out_states[b].as_ref() == Some(&out) {
            continue;
        }
        fix.out_states[b] = Some(out.clone());
        for &s in &cfg.blocks[b].succs {
            let new_in = match &fix.in_states[s] {
                None => {
                    fix.first_pred[s] = Some(b);
                    out.clone()
                }
                Some(cur) => {
                    let joined = cur.join(&out);
                    if fix.widen_points[s] {
                        cur.widen(&joined)
                    } else {
                        joined
                    }
                }
            };
            if fix.in_states[s].as_ref() != Some(&new_in) {
                fix.in_states[s] = Some(new_in);
                if !queued[s] {
                    queued[s] = true;
                    worklist.push_back(s);
                }
            }
        }
    }
    fix
}

/// The transfer function of one kernel micro-op over the product state.
/// Mirrors the linear bookkeeping of OA002/OA003/OA004 exactly so the
/// pattern findings are subsumed by the path-sensitive ones.
pub fn kernel_transfer(spec: &ArchSpec, i: usize, op: &MicroOp, s: &mut AbsState) {
    let words_per_window = spec.windows.map_or(0, |w| w.words_per_window);
    match op {
        MicroOp::SaveWindow(_) => s.window_depth = s.window_depth.shift(1),
        // Underflows clamp back to zero — the same cascade control the
        // OA002/OA005 pattern rules apply after reporting, so one missing
        // spill (or trap entry) doesn't echo through every later block.
        MicroOp::RestoreWindow(_) => s.window_depth = s.window_depth.shift(-1).clamp_min(0),
        MicroOp::DrainWriteBuffer => {
            s.wb_pending = Interval::exact(0);
            s.last_store = None;
        }
        MicroOp::TrapEnter => {
            s.trap_depth = s.trap_depth.shift(1);
            s.int_disabled = Tri::Yes;
        }
        MicroOp::TrapReturn => {
            s.trap_depth = s.trap_depth.shift(-1).clamp_min(0);
            s.int_disabled = Tri::No;
        }
        MicroOp::TlbFlushAll => s.maint.tlb_stale = Tri::No,
        MicroOp::CacheFlushAll => s.maint.cache_stale = Tri::No,
        MicroOp::TlbWriteEntry => s.maint.tlb_stale = Tri::Yes,
        MicroOp::SwitchAddressSpace(..) => {
            s.maint.tlb_stale = Tri::Yes;
            s.maint.cache_stale = Tri::Yes;
        }
        _ => {}
    }
    if op.writes_memory() {
        s.wb_pending = s.wb_pending.shift(1);
        s.last_store = Some(i);
        s.maint.cache_stale = Tri::Yes;
    }
    s.saved_words = s
        .saved_words
        .shift(i64::from(op.save_words(words_per_window)));
    s.restored_words = s
        .restored_words
        .shift(i64::from(op.restore_words(words_per_window)));
}

// ---------------------------------------------------------------------------
// The analyzer
// ---------------------------------------------------------------------------

/// The abstract-interpretation analyzer: drives the fixpoint engine over
/// kernel programs (or hand-built CFGs) and evaluates OA201–OA208.
#[derive(Debug, Default, Clone, Copy)]
pub struct AbsintAnalyzer;

impl AbsintAnalyzer {
    /// A fresh analyzer.
    #[must_use]
    pub fn new() -> AbsintAnalyzer {
        AbsintAnalyzer
    }

    /// Analyze one kernel program (the CFG is its phase-segment chain).
    #[must_use]
    pub fn check_program(
        &self,
        spec: &ArchSpec,
        primitive: Option<Primitive>,
        program: &Program,
    ) -> ProgramAnalysis {
        let cfg = Cfg::from_kernel(program);
        self.check_cfg(spec, primitive, &cfg, program.ops())
    }

    /// Analyze an arbitrary CFG over kernel micro-ops — the entry point
    /// the loop/widening tests drive with synthetic graphs.
    ///
    /// # Panics
    ///
    /// Panics when a block's op range exceeds `ops`.
    #[must_use]
    pub fn check_cfg(
        &self,
        spec: &ArchSpec,
        primitive: Option<Primitive>,
        cfg: &Cfg,
        ops: &[(Phase, MicroOp)],
    ) -> ProgramAnalysis {
        for block in &cfg.blocks {
            assert!(block.end <= ops.len(), "block op range exceeds program");
        }
        let transfer = |i: usize, s: &mut AbsState| kernel_transfer(spec, i, &ops[i].1, s);
        let fix = solve(cfg, &transfer);
        let mut findings = RulePass {
            spec,
            primitive,
            cfg,
            ops,
            fix: &fix,
        }
        .run();
        findings.sort_by(|a, b| a.diag.sort_key().cmp(&b.diag.sort_key()));
        let artifact = self.artifact(spec, primitive, cfg, &fix, &findings);
        ProgramAnalysis { findings, artifact }
    }

    /// Analyze every program of one catalog of `spec`'s programs — the
    /// one pass the other entry points share, and the proof gate of live
    /// spec activation, which builds the catalog once for both gates.
    #[must_use]
    pub fn check_catalog(&self, spec: &ArchSpec, catalog: &[CatalogEntry]) -> AbsintReport {
        let mut report = AbsintReport::empty();
        for entry in catalog {
            let analysis = self.check_program(spec, Some(entry.primitive), &entry.program);
            report.findings.extend(analysis.findings);
            report.artifacts.push(analysis.artifact);
        }
        report.programs_checked = catalog.len();
        report.architectures = 1;
        report.finish();
        report
    }

    /// Analyze every program the kernel generates for a spec. A built-in
    /// architecture is analyzed through its `arch.spec()`.
    #[must_use]
    pub fn analyze_spec(&self, spec: &ArchSpec) -> AbsintReport {
        self.check_catalog(spec, &program_catalog(spec, &KernelLayout::for_spec(spec)))
    }

    /// Analyze all architectures' programs — the CI entry point. The
    /// per-architecture reports merge in [`Arch::all`] order; both sorts
    /// are stable, so the order matches one sort over the concatenation.
    #[must_use]
    pub fn analyze_all(&self) -> AbsintReport {
        let mut all = AbsintReport::empty();
        for arch in Arch::all() {
            let report = self.analyze_spec(&arch.spec());
            all.findings.extend(report.findings);
            all.artifacts.extend(report.artifacts);
            all.programs_checked += report.programs_checked;
            all.architectures += report.architectures;
        }
        all.finish();
        all
    }

    fn artifact(
        &self,
        spec: &ArchSpec,
        primitive: Option<Primitive>,
        cfg: &Cfg,
        fix: &Fixpoint,
        findings: &[Finding],
    ) -> ProofArtifact {
        let refuting = |codes: &[&str]| -> Option<Vec<usize>> {
            findings
                .iter()
                .find(|f| f.diag.severity == Severity::Error && codes.contains(&f.diag.code))
                .map(|f| f.witness.clone())
        };
        let verdict = |codes: &[&str], imprecise: bool, vacuous: bool| -> Verdict {
            if let Some(witness) = refuting(codes) {
                Verdict::Refuted(witness)
            } else if vacuous {
                Verdict::Proved
            } else if imprecise {
                Verdict::Unknown
            } else {
                Verdict::Proved
            }
        };
        // Window balance is vacuous on windowless machines *unless* window
        // ops appear anyway — and then OA201 has already refuted it.
        let invariants = vec![
            InvariantResult {
                invariant: "window-balance",
                verdict: verdict(
                    &["OA201", "OA202"],
                    fix.imprecise(|s| s.window_depth),
                    spec.windows.is_none(),
                ),
            },
            InvariantResult {
                invariant: "write-buffer-drain",
                verdict: verdict(
                    &["OA203"],
                    fix.imprecise(|s| s.wb_pending),
                    spec.mem.write_buffer.is_none(),
                ),
            },
            InvariantResult {
                invariant: "state-save-completeness",
                verdict: verdict(
                    &["OA204"],
                    fix.imprecise(|s| s.saved_words) || fix.imprecise(|s| s.restored_words),
                    primitive != Some(Primitive::ContextSwitch),
                ),
            },
        ];
        ProofArtifact {
            arch: spec.arch,
            program: cfg.name.clone(),
            invariants,
            iterations: fix.iterations,
            blocks: cfg.blocks.len(),
            edges: cfg.edge_count(),
            domain_width: AbsState::COMPONENTS,
            widened: fix
                .widen_points
                .iter()
                .zip(&fix.in_states)
                .any(|(&w, s)| w && s.is_some()),
        }
    }
}

// ---------------------------------------------------------------------------
// The rule pass
// ---------------------------------------------------------------------------

/// Render an interval's upper bound for messages.
fn hi_label(iv: Interval) -> String {
    if iv.hi == POS_INF {
        "unboundedly many".to_string()
    } else {
        iv.hi.to_string()
    }
}

struct RulePass<'a> {
    spec: &'a ArchSpec,
    primitive: Option<Primitive>,
    cfg: &'a Cfg,
    ops: &'a [(Phase, MicroOp)],
    fix: &'a Fixpoint,
}

impl RulePass<'_> {
    fn finding(
        &self,
        code: &'static str,
        severity: Severity,
        block: usize,
        op_index: Option<usize>,
        message: String,
    ) -> Finding {
        let mut witness = self.fix.witness_to(self.cfg, block);
        if let Some(i) = op_index {
            if witness.last() != Some(&i) {
                witness.push(i);
            }
        }
        Finding {
            diag: Diagnostic {
                code,
                severity,
                arch: self.spec.arch,
                program: self.cfg.name.clone(),
                op_index,
                message,
            },
            witness,
        }
    }

    fn run(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        let usable = self.spec.windows.map(|w| i64::from(w.windows) - 1);
        for (b, block) in self.cfg.blocks.iter().enumerate() {
            let Some(in_b) = self.fix.in_states[b].clone() else {
                continue;
            };
            let mut state = in_b;
            for i in block.ops() {
                let op = &self.ops[i].1;
                self.check_before(b, i, op, &state, &mut out);
                kernel_transfer(self.spec, i, op, &mut state);
                self.check_after(b, i, op, &state, usable, &mut out);
            }
            if block.succs.is_empty() {
                self.check_exit(b, &state, usable, &mut out);
            }
            self.check_loop_head(b, &mut out);
        }
        unreachable_blocks(self.cfg, self.fix, self.spec.arch, &mut out);
        out
    }

    /// Checks against the state *before* the op executes: the write buffer
    /// at synchronization points (OA203), maintenance residue at flushes
    /// (OA206), and underflowing decrements (OA202/OA207 — checked here
    /// because the transfer function clamps them back to zero afterwards).
    fn check_before(
        &self,
        b: usize,
        i: usize,
        op: &MicroOp,
        state: &AbsState,
        out: &mut Vec<Finding>,
    ) {
        let windowed = self.spec.windows.is_some();
        let has_wb = self.spec.mem.write_buffer.is_some();
        match op {
            MicroOp::RestoreWindow(_) if windowed && state.window_depth.may_drop_below(1) => {
                out.push(self.finding(
                    "OA202",
                    Severity::Error,
                    b,
                    Some(i),
                    "a window fill without a matching spill is feasible on this path".to_string(),
                ));
            }
            MicroOp::TrapReturn if state.trap_depth.may_drop_below(1) => {
                out.push(
                    self.finding(
                        "OA207",
                        Severity::Error,
                        b,
                        Some(i),
                        "a return-from-exception without a matching trap entry is \
                     feasible on this path"
                            .to_string(),
                    ),
                );
            }
            _ => {}
        }
        if has_wb && state.wb_pending.may_exceed(0) {
            // Named only on the paths that emit a finding.
            let site = || {
                state.last_store.map_or_else(
                    || "an earlier store".to_string(),
                    |s| format!("the store at op {s}"),
                )
            };
            match op {
                MicroOp::SwitchAddressSpace(..) => out.push(self.finding(
                    "OA203",
                    Severity::Error,
                    b,
                    Some(i),
                    format!(
                        "a path reaches this address-space switch with the write buffer \
                         undrained: {} may land in the old context",
                        site()
                    ),
                )),
                MicroOp::TrapReturn => out.push(self.finding(
                    "OA203",
                    Severity::Error,
                    b,
                    Some(i),
                    format!(
                        "a path reaches this return-from-exception with {} still \
                         buffered: drain the write buffer first",
                        site()
                    ),
                )),
                MicroOp::TlbWriteEntry | MicroOp::TlbFlushPage(_) | MicroOp::TlbFlushAll => out
                    .push(self.finding(
                        "OA203",
                        Severity::Info,
                        b,
                        Some(i),
                        format!(
                            "TLB update reachable with {} still buffered; a racing \
                             refill may read a stale PTE",
                            site()
                        ),
                    )),
                _ => {}
            }
        }
        let residue = match op {
            MicroOp::TlbFlushAll => Some(("TLB purge", state.maint.tlb_stale)),
            MicroOp::CacheFlushAll => Some(("cache flush", state.maint.cache_stale)),
            _ => None,
        };
        if let Some((what, stale)) = residue {
            match stale {
                Tri::No => out.push(self.finding(
                    "OA206",
                    Severity::Warn,
                    b,
                    Some(i),
                    format!("{what} with no stale entries left on any path: redundant everywhere"),
                )),
                Tri::Maybe => out.push(self.finding(
                    "OA206",
                    Severity::Info,
                    b,
                    Some(i),
                    format!(
                        "{what} is redundant on some paths: one incoming path is already clean"
                    ),
                )),
                Tri::Yes => {}
            }
        }
    }

    /// Checks against the state *after* the op executes: window-depth
    /// overflow (OA201) and window ops on windowless machines.
    fn check_after(
        &self,
        b: usize,
        i: usize,
        op: &MicroOp,
        state: &AbsState,
        usable: Option<i64>,
        out: &mut Vec<Finding>,
    ) {
        match op {
            MicroOp::SaveWindow(_) | MicroOp::RestoreWindow(_) if usable.is_none() => {
                out.push(self.finding(
                    "OA201",
                    Severity::Error,
                    b,
                    Some(i),
                    format!(
                        "`{}` reachable on an architecture without register windows",
                        op.mnemonic()
                    ),
                ));
            }
            MicroOp::SaveWindow(_) => {
                let usable = usable.unwrap_or(0);
                if state.window_depth.may_exceed(usable) {
                    let windows = self.spec.windows.map_or(0, |w| w.windows);
                    out.push(self.finding(
                        "OA201",
                        Severity::Error,
                        b,
                        Some(i),
                        format!(
                            "a path spills {} windows here but only {usable} frames can \
                             be live in a {windows}-window file",
                            hi_label(state.window_depth),
                        ),
                    ));
                }
            }
            _ => {}
        }
    }

    /// Checks at program exits: outstanding spills (OA202) and the
    /// state-save floor on the sparsest path (OA204).
    fn check_exit(&self, b: usize, exit: &AbsState, usable: Option<i64>, out: &mut Vec<Finding>) {
        if usable.is_some() && exit.window_depth.may_exceed(0) {
            out.push(self.finding(
                "OA202",
                Severity::Error,
                b,
                None,
                format!(
                    "up to {} window spill(s) never restored by the end of the program",
                    hi_label(exit.window_depth)
                ),
            ));
        }
        if self.primitive == Some(Primitive::ContextSwitch) {
            let spec = self.spec;
            let window_traffic = spec
                .windows
                .map_or(0, |w| spec.avg_windows_on_switch * w.words_per_window);
            let floor = i64::from(spec.trap_saved_registers + window_traffic);
            if exit.saved_words.may_drop_below(floor) {
                out.push(self.finding(
                    "OA204",
                    Severity::Error,
                    b,
                    None,
                    format!(
                        "the sparsest path through this context switch saves only {} \
                         words; every path must move at least {floor}",
                        exit.saved_words.lo
                    ),
                ));
            }
            if exit.restored_words.may_drop_below(floor) {
                out.push(self.finding(
                    "OA204",
                    Severity::Error,
                    b,
                    None,
                    format!(
                        "the sparsest path through this context switch restores only {} \
                         words for the incoming thread; at least {floor} are required",
                        exit.restored_words.lo
                    ),
                ));
            }
        }
    }

    /// Checks at loop heads: resources widened to +∞ mean the loop body
    /// accumulates them without bound (OA205).
    fn check_loop_head(&self, b: usize, out: &mut Vec<Finding>) {
        if !self.fix.widen_points[b] {
            return;
        }
        let Some(state) = &self.fix.in_states[b] else {
            return;
        };
        if self.spec.windows.is_some() && state.window_depth.unbounded_above() {
            out.push(
                self.finding(
                    "OA205",
                    Severity::Error,
                    b,
                    Some(self.cfg.blocks[b].start),
                    "register-window spill depth grows without bound around the loop \
                 entered here"
                        .to_string(),
                ),
            );
        }
        if self.spec.mem.write_buffer.is_some() && state.wb_pending.unbounded_above() {
            out.push(
                self.finding(
                    "OA205",
                    Severity::Warn,
                    b,
                    Some(self.cfg.blocks[b].start),
                    "write-buffer occupancy grows without bound around the loop entered \
                 here: no drain on the back edge"
                        .to_string(),
                ),
            );
        }
    }
}

/// OA208: blocks the fixpoint never reached.
fn unreachable_blocks(cfg: &Cfg, fix: &Fixpoint, arch: Arch, out: &mut Vec<Finding>) {
    for (b, block) in cfg.blocks.iter().enumerate() {
        if b == 0 || fix.in_states[b].is_some() || block.start >= block.end {
            continue;
        }
        out.push(Finding {
            diag: Diagnostic {
                code: "OA208",
                severity: Severity::Warn,
                arch,
                program: cfg.name.clone(),
                op_index: Some(block.start),
                message: format!(
                    "unreachable: no path from entry reaches ops {}..{}",
                    block.start, block.end
                ),
            },
            witness: Vec::new(),
        });
    }
}

// ---------------------------------------------------------------------------
// The report
// ---------------------------------------------------------------------------

/// The outcome of an abstract-interpretation run: findings, proof
/// artifacts, and coverage counters. The shape mirrors
/// [`crate::AnalysisReport`] so the CLI and serve layers treat both alike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsintReport {
    findings: Vec<Finding>,
    artifacts: Vec<ProofArtifact>,
    programs_checked: usize,
    architectures: usize,
}

impl AbsintReport {
    fn empty() -> AbsintReport {
        AbsintReport {
            findings: Vec::new(),
            artifacts: Vec::new(),
            programs_checked: 0,
            architectures: 0,
        }
    }

    fn finish(&mut self) {
        self.findings
            .sort_by(|a, b| a.diag.sort_key().cmp(&b.diag.sort_key()));
        self.artifacts
            .sort_by(|a, b| (a.arch.index(), &a.program).cmp(&(b.arch.index(), &b.program)));
    }

    /// Every finding, in deterministic order.
    #[must_use]
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// Every proof artifact, ordered by architecture then program.
    #[must_use]
    pub fn artifacts(&self) -> &[ProofArtifact] {
        &self.artifacts
    }

    /// Programs walked.
    #[must_use]
    pub fn programs_checked(&self) -> usize {
        self.programs_checked
    }

    /// Architectures covered.
    #[must_use]
    pub fn architectures(&self) -> usize {
        self.architectures
    }

    /// Findings at exactly `severity`.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.diag.severity == severity)
            .count()
    }

    /// Invariant verdict totals: `(proved, refuted, unknown)`.
    #[must_use]
    pub fn verdict_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for artifact in &self.artifacts {
            for inv in &artifact.invariants {
                match inv.verdict {
                    Verdict::Proved => counts.0 += 1,
                    Verdict::Refuted(_) => counts.1 += 1,
                    Verdict::Unknown => counts.2 += 1,
                }
            }
        }
        counts
    }

    /// The worst severity present, or `None` when the run is clean.
    #[must_use]
    pub fn max_severity(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.diag.severity).max()
    }

    /// Whether the run passes: no errors, and no warnings either when
    /// `deny_warnings` is set. Notes never fail a run.
    #[must_use]
    pub fn passes(&self, deny_warnings: bool) -> bool {
        let ceiling = if deny_warnings {
            Severity::Info
        } else {
            Severity::Warn
        };
        self.max_severity().is_none_or(|worst| worst <= ceiling)
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let (proved, refuted, unknown) = self.verdict_counts();
        format!(
            "verified {} programs across {} architecture(s): {} invariant(s) proved, \
             {} refuted, {} unknown; {} error(s), {} warning(s), {} note(s)",
            self.programs_checked,
            self.architectures,
            proved,
            refuted,
            unknown,
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info),
        )
    }
}
