//! # osarch-chaos
//!
//! Deterministic fault injection for the `osarch` serving stack.
//!
//! The ASPLOS 1991 paper's thesis is that OS primitives degrade
//! unpredictably when the hardware beneath them misbehaves relative to
//! the designer's expectations. The serving layer has the same exposure
//! one level up: its correctness argument (single-flight caching, bounded
//! queues, graceful shutdown) is only as good as its behaviour when
//! connections reset, reads stall, computations panic and workers die.
//! This crate supplies the misbehaviour — *reproducibly*.
//!
//! Three properties drive the design:
//!
//! * **Deterministic schedules** — every injection decision is a pure
//!   function of `(seed, failpoint, draw index)`. No wall clock, no OS
//!   entropy. Two controllers built from the same [`ChaosConfig`] plan
//!   bit-identical fault schedules, so a failing soak replays exactly.
//! * **Bounded horizons** — a schedule covers a fixed number of draws per
//!   failpoint. The planned event count ([`ChaosController::schedule_events`])
//!   is computable up front, before any concurrency, which is what makes
//!   "same seed ⇒ same schedule" checkable after a run.
//! * **Std-only, lock-free** — decisions are one atomic increment plus a
//!   64-bit mix; a disabled controller is a single branch. The hot path
//!   of a server that is *not* under chaos pays nothing.
//!
//! The crate knows nothing about sockets or servers: it hands out
//! decisions ([`ChaosController::should_inject`],
//! [`ChaosController::inject_delay`]) and counts what it injected. The
//! serve layer wires those decisions to real faults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod failpoint;
pub mod quiet;

pub use controller::{ChaosConfig, ChaosController};
pub use failpoint::Failpoint;
pub use quiet::QuietChaosPanics;
