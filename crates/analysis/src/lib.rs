//! # osarch-analysis
//!
//! Static hazard & invariant verifier for the generated kernel handler
//! programs of the ASPLOS 1991 reproduction.
//!
//! The paper's central claim is that primitive OS paths are fragile exactly
//! where architecture leaks into software: unfilled delay slots on exposed
//! pipelines, register-window spills on SPARC-style machines, write buffers
//! that must drain before a PTE change or address-space switch becomes
//! visible. The simulator enforces those contracts *dynamically*, by
//! executing handler programs through `osarch-cpu`; this crate verifies the
//! generated code itself — every [`osarch_cpu::Program`] in the kernel's
//! catalog, for every architecture, on every build, without executing
//! anything.
//!
//! Each invariant is an independent [`Rule`] trait object with a stable
//! diagnostic code:
//!
//! | code  | rule | checks |
//! |-------|------|--------|
//! | OA001 | delay-slot-discipline | branch slots fillable; no nops on interlocked pipelines |
//! | OA002 | window-balance | spills/fills balance within the window file |
//! | OA003 | write-buffer-drain | drains precede returns and address-space switches |
//! | OA004 | state-save-completeness | context switches move the required state words |
//! | OA005 | phase-ordering | phases follow the legal trap-handler nesting |
//! | OA006 | control-register-legality | special-register runs fit the architecture |
//! | OA007 | feature-legality | only instructions the architecture implements |
//! | OA008 | redundant-maintenance | no unnecessary cache/TLB maintenance |
//!
//! # Abstract interpretation
//!
//! The pattern rules above scan the op list linearly. The [`absint`]
//! module goes further: it builds a control-flow graph ([`Cfg`]) over each
//! program, runs a worklist fixpoint with interval widening over a product
//! abstract domain ([`AbsState`]: window depth, write-buffer occupancy,
//! trap depth, saved/restored state words, cache/TLB maintenance residue,
//! interrupt masking), and evaluates path-sensitive rules whose findings
//! carry witness paths. Each program earns a machine-checkable
//! [`ProofArtifact`] (`osarch-absint/1` JSON) with a
//! `proved | refuted | unknown` verdict per invariant:
//!
//! | code  | rule | checks |
//! |-------|------|--------|
//! | OA201 | window-overflow-feasible | no path spills past the window file |
//! | OA202 | window-underflow-or-leak | no unmatched fill; no spill outstanding at exit |
//! | OA203 | write-buffer-undrained | no path reaches a switch/return with stores buffered |
//! | OA204 | state-save-incomplete | the sparsest switch path still moves the floor |
//! | OA205 | loop-unbounded-resource | no loop widens a resource to +∞ |
//! | OA206 | maintenance-redundant-on-path | no flush already clean on all/some paths |
//! | OA207 | trap-nesting-unbalanced | no return from an exception never entered |
//! | OA208 | unreachable-code | every basic block is reachable from entry |
//!
//! On straight-line programs OA201–OA204 coincide exactly with
//! OA002–OA004 (a property test enforces this); on branching or looping
//! control flow they see paths the linear scan cannot. OA001 and
//! OA005–OA008 are syntactic or spec-level with no dataflow analog —
//! both rule packs run side by side.
//!
//! # Example
//!
//! ```
//! use osarch_analysis::{Analyzer, Severity};
//!
//! let report = Analyzer::new().analyze_all();
//! // The shipped handlers carry no invariant violations.
//! assert_eq!(report.count(Severity::Error), 0);
//! assert!(report.programs_checked() > 28); // 7 archs x 4 primitives + variants
//! ```

pub mod absint;
pub mod cfg;
pub mod diagnostics;
pub mod domain;
pub mod rules;

mod analyzer;

pub use absint::{
    absint_rule_table, AbsintAnalyzer, AbsintReport, Finding, InvariantResult, ProgramAnalysis,
    ProofArtifact, Verdict,
};
pub use analyzer::{AnalysisReport, Analyzer};
pub use cfg::Cfg;
pub use diagnostics::{Diagnostic, Severity};
pub use domain::{AbsState, Interval, Tri};
pub use rules::{default_rules, Rule, RuleContext};
