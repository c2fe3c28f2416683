//! # osarch-core
//!
//! The public facade of the `osarch` reproduction of Anderson, Levy,
//! Bershad & Lazowska, *The Interaction of Architecture and Operating
//! System Design* (ASPLOS 1991).
//!
//! The paper measures four primitive OS operations across one CISC and
//! several RISC processors, then traces their cost through interprocess
//! communication (Section 2), virtual memory (Section 3), thread
//! management (Section 4) and operating-system structure (Section 5). This
//! crate re-exports the substrate crates and adds:
//!
//! * [`Table`] — plain-text report rendering;
//! * [`experiments`] — one function per paper table
//!   ([`experiments::table1`] … [`experiments::table7`],
//!   [`experiments::intext_results`]), each returning a paper-vs-measured
//!   report;
//! * [`paper`] — the paper's published reference values;
//! * [`json`] — the workspace's one JSON parser (re-exported from
//!   `osarch-trace`), which every reader in the serving stack uses.
//!
//! # Quickstart
//!
//! ```
//! use osarch_core::{measure, Arch};
//!
//! let r3000 = measure(Arch::R3000);
//! let times = r3000.times_us();
//! println!("null syscall: {:.1} us", times.null_syscall);
//! assert!(times.null_syscall < 6.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod experiments;
pub mod metrics;
pub mod names;
pub mod paper;
mod report;
pub mod session;
pub mod stats;

pub use report::{fmt_f, fmt_pct, Table};
pub use session::MeasurementSession;
pub use stats::LatencySummary;

// The substrate crates, re-exported whole for path-based access…
pub use osarch_analysis as analysis;
pub use osarch_cpu as cpu;
pub use osarch_ipc as ipc;
pub use osarch_isa as isa;
pub use osarch_kernel as kernel;
pub use osarch_mach as mach;
pub use osarch_mem as mem;
pub use osarch_threads as threads;
pub use osarch_trace as trace;
pub use osarch_trace::json;
pub use osarch_workloads as workloads;

// …and the most common items at the crate root.
pub use osarch_analysis::{
    AbsintAnalyzer, AbsintReport, AnalysisReport, Analyzer, Diagnostic, Severity, Verdict,
};
pub use osarch_cpu::{Arch, ArchSpec, Cpu, ExecStats, MicroOp, Phase, Program};
pub use osarch_ipc::{lrpc_breakdown, src_rpc_breakdown, LrpcBreakdown, RpcBreakdown, RpcConfig};
pub use osarch_kernel::{
    measure, measure_all, measure_fresh, simulation_count, trace_all, trace_primitive, HandlerSet,
    Machine, Primitive, PrimitiveCosts, PrimitiveMeasurement, PrimitiveTrace,
};
pub use osarch_mach::{simulate, table7, MachRun, OsStructure};
pub use osarch_mem::{MemorySystem, MemorySystemConfig, VirtAddr};
pub use osarch_threads::{LockStrategy, ThreadCosts, UserThreads};
pub use osarch_trace::{EventTracer, NullTracer, Tracer};
pub use osarch_workloads::{find_workload, standard_workloads, ServiceDemand, Workload};
