//! The analysis driver: run every rule over every registered program.

use crate::diagnostics::{Diagnostic, Severity};
use crate::rules::{default_rules, Rule, RuleContext};
use osarch_cpu::{Arch, ArchSpec, Program};
use osarch_kernel::{program_catalog, CatalogEntry, KernelLayout, Primitive};

/// The static analyzer: an ordered set of rules plus the drivers that walk
/// the kernel's program catalog.
pub struct Analyzer {
    rules: Vec<Box<dyn Rule>>,
}

impl Default for Analyzer {
    fn default() -> Analyzer {
        Analyzer::new()
    }
}

impl Analyzer {
    /// An analyzer carrying the default rule set.
    #[must_use]
    pub fn new() -> Analyzer {
        Analyzer {
            rules: default_rules(),
        }
    }

    /// An analyzer over a custom rule set (used by tests; the diagnostic
    /// output is independent of registration order).
    #[must_use]
    pub fn with_rules(rules: Vec<Box<dyn Rule>>) -> Analyzer {
        Analyzer { rules }
    }

    /// The registered rules, in registration order.
    #[must_use]
    pub fn rules(&self) -> &[Box<dyn Rule>] {
        &self.rules
    }

    /// Run every rule over one program. Diagnostics come back in the
    /// deterministic [`Diagnostic::sort_key`] order.
    #[must_use]
    pub fn check_program(
        &self,
        spec: &ArchSpec,
        primitive: Option<Primitive>,
        program: &Program,
    ) -> Vec<Diagnostic> {
        let ctx = RuleContext {
            spec,
            primitive,
            program,
        };
        let mut diagnostics: Vec<Diagnostic> = self
            .rules
            .iter()
            .flat_map(|rule| rule.check(&ctx))
            .collect();
        diagnostics.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        diagnostics
    }

    /// Run every rule over every program of one catalog of `spec`'s
    /// programs — the one pass the other entry points share, and the
    /// lint gate of live spec activation, which builds the catalog once
    /// for both gates.
    #[must_use]
    pub fn check_catalog(&self, spec: &ArchSpec, catalog: &[CatalogEntry]) -> AnalysisReport {
        let mut report = AnalysisReport {
            diagnostics: catalog
                .iter()
                .flat_map(|entry| self.check_program(spec, Some(entry.primitive), &entry.program))
                .collect(),
            programs_checked: catalog.len(),
            architectures: 1,
        };
        report.finish();
        report
    }

    /// Analyze every program the kernel generates for a spec: the four
    /// primitive handlers plus the applicable what-if variants. A built-in
    /// architecture is analyzed through its `arch.spec()`.
    #[must_use]
    pub fn analyze_spec(&self, spec: &ArchSpec) -> AnalysisReport {
        self.check_catalog(spec, &program_catalog(spec, &KernelLayout::for_spec(spec)))
    }

    /// Analyze all architectures' programs — the CI entry point. The
    /// per-architecture reports merge in [`Arch::all`] order; the sort is
    /// stable, so the order matches one sort over the concatenation.
    #[must_use]
    pub fn analyze_all(&self) -> AnalysisReport {
        let mut all = AnalysisReport {
            diagnostics: Vec::new(),
            programs_checked: 0,
            architectures: 0,
        };
        for arch in Arch::all() {
            let report = self.analyze_spec(&arch.spec());
            all.diagnostics.extend(report.diagnostics);
            all.programs_checked += report.programs_checked;
            all.architectures += report.architectures;
        }
        all.finish();
        all
    }
}

/// The outcome of an analysis run: every finding, plus coverage counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    diagnostics: Vec<Diagnostic>,
    programs_checked: usize,
    architectures: usize,
}

impl AnalysisReport {
    fn finish(&mut self) {
        self.diagnostics
            .sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    }

    /// Every finding, in deterministic order.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
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
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// The worst severity present, or `None` when the run is clean.
    #[must_use]
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
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
        format!(
            "checked {} programs across {} architecture(s): {} error(s), {} warning(s), {} note(s)",
            self.programs_checked,
            self.architectures,
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info),
        )
    }
}
