//! The shared measurement session and the parallel report engine.
//!
//! Every report in [`crate::experiments`] prices its architectures from the
//! same four-primitive simulation. A [`MeasurementSession`] memoizes one
//! [`PrimitiveMeasurement`] per architecture — compute once, share across
//! all tables, ablations, tests and binaries — and counts hits and misses
//! so tests can assert the sharing. The process-wide instance is
//! [`shared`]; independent sessions (for equivalence tests) come from
//! [`MeasurementSession::new`].
//!
//! The report side is a named registry ([`REPORTS`]) — one entry per table
//! the CLI can print — plus [`parallel_tables`], which generates
//! independent tables concurrently with [`std::thread::scope`] while
//! keeping output ordering (and therefore the rendered bytes) identical to
//! a sequential run.

use crate::report::Table;
use osarch_cpu::Arch;
use osarch_kernel::{measure, PrimitiveMeasurement};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A thread-safe, per-architecture memo of the four-primitive measurement.
///
/// # Example
///
/// ```
/// use osarch_core::{session::MeasurementSession, Arch};
///
/// let session = MeasurementSession::new();
/// let first = session.measurement(Arch::R3000).clone();
/// let second = session.measurement(Arch::R3000);
/// assert_eq!(&first, second);
/// assert_eq!((session.misses(), session.hits()), (1, 1));
/// ```
#[derive(Debug, Default)]
pub struct MeasurementSession {
    slots: [OnceLock<PrimitiveMeasurement>; Arch::COUNT],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MeasurementSession {
    /// An empty session: nothing measured yet.
    #[must_use]
    pub fn new() -> MeasurementSession {
        MeasurementSession::default()
    }

    /// The measurement for `arch`, simulating on first request. Safe to
    /// call from many threads: exactly one simulation runs per
    /// architecture; latecomers block until it lands, then share it.
    pub fn measurement(&self, arch: Arch) -> &PrimitiveMeasurement {
        let mut missed = false;
        let measurement = self.slots[arch.index()].get_or_init(|| {
            missed = true;
            measure(arch)
        });
        if missed {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        measurement
    }

    /// Warm every architecture's slot, simulating concurrently.
    pub fn prime(&self) -> &MeasurementSession {
        std::thread::scope(|scope| {
            for arch in Arch::all() {
                scope.spawn(move || {
                    self.measurement(arch);
                });
            }
        });
        self
    }

    /// Requests served from the memo.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that triggered a simulation.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

// The `osarch-serve` compute pool holds one session behind an `Arc` and
// reads it from every thread; keep the shareability a compile-time fact.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MeasurementSession>();
};

/// The process-wide session every report and binary shares.
#[must_use]
pub fn shared() -> &'static MeasurementSession {
    static SHARED: OnceLock<MeasurementSession> = OnceLock::new();
    SHARED.get_or_init(MeasurementSession::new)
}

/// Run independent tasks concurrently, returning results in task order.
///
/// The scheduling is concurrent but the output is deterministic: task `i`'s
/// result lands in slot `i` regardless of completion order.
pub fn parallel_ordered<T: Send>(tasks: Vec<Box<dyn FnOnce() -> T + Send + '_>>) -> Vec<T> {
    let mut results: Vec<Option<T>> = tasks.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        for (slot, task) in results.iter_mut().zip(tasks) {
            scope.spawn(move || *slot = Some(task()));
        }
    });
    results
        .into_iter()
        .map(|result| result.expect("scoped task completed"))
        .collect()
}

/// Generate tables concurrently, in the builders' order.
pub fn parallel_tables(builders: &[fn() -> Table]) -> Vec<Table> {
    parallel_ordered(
        builders
            .iter()
            .map(|&build| Box::new(build) as Box<dyn FnOnce() -> Table + Send>)
            .collect(),
    )
}

/// One entry in the report registry.
#[derive(Debug, Clone, Copy)]
pub struct ReportSpec {
    /// The CLI name (`osarch tables NAME`).
    pub name: &'static str,
    /// One-line description for help output.
    pub summary: &'static str,
    /// Builds the rendered table.
    pub build: fn() -> Table,
}

/// Every report the CLI can print, in paper order; the ablation study
/// rides at the end exactly as `tables all` prints it.
pub const REPORTS: [ReportSpec; 14] = [
    ReportSpec {
        name: "table1",
        summary: "relative performance of primitive OS functions",
        build: crate::experiments::table1,
    },
    ReportSpec {
        name: "table2",
        summary: "instructions executed for primitive OS functions",
        build: crate::experiments::table2,
    },
    ReportSpec {
        name: "table3",
        summary: "SRC RPC processing time",
        build: crate::experiments::table3,
    },
    ReportSpec {
        name: "table4",
        summary: "LRPC processing time",
        build: crate::experiments::table4,
    },
    ReportSpec {
        name: "table5",
        summary: "time in the null system call",
        build: crate::experiments::table5,
    },
    ReportSpec {
        name: "table6",
        summary: "processor thread state",
        build: crate::experiments::table6,
    },
    ReportSpec {
        name: "table7",
        summary: "application reliance on OS primitives",
        build: crate::experiments::table7,
    },
    ReportSpec {
        name: "intext",
        summary: "in-text results, paper vs simulation",
        build: crate::experiments::intext_results,
    },
    ReportSpec {
        name: "vm",
        summary: "overloaded uses of virtual memory",
        build: crate::experiments::vm_overloading,
    },
    ReportSpec {
        name: "tlb",
        summary: "TLB effectiveness",
        build: crate::experiments::tlb_effectiveness,
    },
    ReportSpec {
        name: "threads",
        summary: "thread-model overhead",
        build: crate::experiments::thread_models,
    },
    ReportSpec {
        name: "future",
        summary: "next-generation clock scaling",
        build: crate::experiments::future_machines,
    },
    ReportSpec {
        name: "depth",
        summary: "decomposition depth",
        build: crate::experiments::decomposition_depth,
    },
    ReportSpec {
        name: "ablations",
        summary: "architectural what-ifs",
        build: crate::ablations::ablation_table,
    },
];

/// Look up one report builder by CLI name.
#[must_use]
pub fn report_by_name(name: &str) -> Option<&'static ReportSpec> {
    REPORTS.iter().find(|spec| spec.name == name)
}

/// Resolve a CLI selector: `None` or `"all"` builds every report (in
/// parallel, registry order); a name builds that one report; an unknown
/// name is `None`.
#[must_use]
pub fn resolve_reports(selector: Option<&str>) -> Option<Vec<Table>> {
    match selector {
        None | Some("all") => Some(all_tables()),
        Some(name) => report_by_name(name).map(|spec| vec![(spec.build)()]),
    }
}

/// Every registered table — the 13 paper reports plus the ablation study —
/// generated concurrently in registry order.
#[must_use]
pub fn all_tables() -> Vec<Table> {
    shared().prime();
    let builders: Vec<fn() -> Table> = REPORTS.iter().map(|spec| spec.build).collect();
    parallel_tables(&builders)
}
