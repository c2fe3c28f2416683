//! The simulated operating-system kernel of the ASPLOS 1991 study.
//!
//! This crate turns the CPU and memory substrates into a measurable system:
//!
//! * [`Machine`] — a ready-to-run CPU + memory system + kernel address map
//!   for one architecture;
//! * [`HandlerSet`] — the per-architecture handler programs for the four
//!   primitive operations (null system call, trap, PTE change, context
//!   switch), whose dynamic instruction counts reproduce Table 2;
//! * [`PrimitiveMeasurement`] / [`measure`] — the measurement harness that
//!   reproduces Table 1 (times) and Table 5 (null-syscall phase breakdown);
//! * [`Process`] / [`Thread`] / [`Scheduler`] — the kernel objects the IPC
//!   and OS-structure simulations build on.
//!
//! # Example
//!
//! ```
//! use osarch_cpu::Arch;
//! use osarch_kernel::measure;
//!
//! let m = measure(Arch::R3000);
//! let times = m.times_us();
//! assert!(times.null_syscall > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod handlers;
mod layout;
mod machine;
mod measure;
mod process;
mod tracing;
mod vm;

pub use handlers::{
    context_switch, null_syscall, program_catalog, pte_change, trap_handler, variant_baseline,
    variant_program, CatalogEntry, HandlerSet, Primitive, Variant,
};
pub use layout::{KernelLayout, PCB_STRIDE};
pub use machine::{Machine, USER2_ASID, USER_ASID};
pub use measure::{
    measure, measure_fresh, measure_with_spec, methodology_special_syscall_us,
    methodology_trap_time_us, simulation_count, PrimitiveCosts, PrimitiveMeasurement,
    PrimitiveTimes,
};
pub use process::{Process, ProcessId, Scheduler, Thread, ThreadId, ThreadState};
pub use tracing::{trace_all, trace_primitive, PrimitiveTrace};
pub use vm::{user_fault_reflection_us, CowManager, CowStats, VmWrite};
