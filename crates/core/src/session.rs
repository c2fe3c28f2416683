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
//! independent tables concurrently while keeping output ordering (and
//! therefore the rendered bytes) identical to a sequential run.
//!
//! Both run on one engine, [`parallel_ordered`]: one worker per available
//! core (the calling thread among them), each pulling the next task
//! index from a shared counter, each result landing in its task's slot.
//! A task may call the engine again (the `ablations` table splits its own
//! work this way); the nested call's caller works too, so it completes
//! however busy the outer workers are.

use crate::report::Table;
use osarch_cpu::Arch;
use osarch_kernel::{measure, PrimitiveMeasurement};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

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
        parallel_ordered(
            Arch::all()
                .into_iter()
                .map(|arch| {
                    Box::new(move || {
                        self.measurement(arch);
                    }) as Task<'_, ()>
                })
                .collect(),
        );
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

/// One task of [`parallel_ordered`].
pub type Task<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// Why no lock of [`parallel_ordered`] is poisoned: none is held while a
/// task runs, so a panicking task cannot poison one.
const UNPOISONED: &str = "no lock is held while a task runs";

/// Run independent tasks concurrently, returning results in task order.
///
/// `min(available_parallelism, tasks)` workers run them: the calling
/// thread and one scoped thread for each other worker. Each worker takes
/// the next unclaimed task index from one counter until none is left, so
/// a worker that finishes early picks up the remaining tasks. The output
/// is deterministic: task `i`'s result lands in slot `i` regardless of
/// which worker ran it or when. A panicking task panics the caller once
/// every worker has stopped.
pub fn parallel_ordered<T: Send>(tasks: Vec<Task<'_, T>>) -> Vec<T> {
    let workers = cores().min(tasks.len());
    let tasks: Vec<Mutex<Option<Task<'_, T>>>> = tasks
        .into_iter()
        .map(|task| Mutex::new(Some(task)))
        .collect();
    let results: Vec<Mutex<Option<T>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let work = || loop {
        // Relaxed suffices: the counter only hands out distinct indices,
        // and each task and result crosses threads under its own lock.
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(task) = tasks.get(index) else {
            break;
        };
        let task = task
            .lock()
            .expect(UNPOISONED)
            .take()
            .expect("each task index is handed out once");
        let result = task();
        *results[index].lock().expect(UNPOISONED) = Some(result);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    results
        .into_iter()
        .map(|result| {
            result
                .into_inner()
                .expect(UNPOISONED)
                .expect("every task ran")
        })
        .collect()
}

/// The engine's worker count: the cores this process may run on (on
/// Linux, its CPU affinity mask and cgroup quota), read once.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

/// Generate tables concurrently, in the builders' order.
pub fn parallel_tables(builders: &[fn() -> Table]) -> Vec<Table> {
    parallel_ordered(
        builders
            .iter()
            .map(|&build| Box::new(build) as Task<'_, Table>)
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
