//! # osarch-trace
//!
//! Cycle-level tracing and performance-counter substrate for the `osarch`
//! simulator.
//!
//! The paper's analysis lives or dies on *where* cycles go — state
//! save/restore, trap vectoring, write-buffer drains, TLB refills. This
//! crate defines the event vocabulary those cost centers report through:
//!
//! * [`Tracer`] — the sink trait instrumentation sites write against,
//!   with a zero-overhead [`NullTracer`] (the default everywhere) and a
//!   recording [`EventTracer`];
//! * [`Event`] / [`Category`] — the phase-tagged, cycle-timestamped
//!   records the CPU executor, memory system, kernel measurement harness
//!   and OS-structure simulation emit;
//! * [`CounterRegistry`] — hardware-style named monotonic counters
//!   aggregated per architecture × primitive × phase;
//! * [`PhaseProfile`] — the per-phase cycle histogram / top-N op view;
//! * [`json`] — the workspace's one JSON reader: a bounded-depth parser,
//!   string decoder, escaper and compact emitter;
//! * [`SplitMix64`], [`mix64`] and [`fnv1a`] — the one definition of the
//!   seeded stream and the two hashes every replayable output draws from.
//!
//! The crate is deliberately a leaf: it depends on nothing in the
//! workspace, so every simulation layer can thread a tracer through
//! without dependency cycles, every layer that reads JSON (the CPU's
//! spec codec, the core validators, the server) can share one parser,
//! and every seeded layer (workloads, Mach, chaos, telemetry, cluster,
//! serve) can share one generator.
//! `osarch-core` re-exports it as `osarch_core::json`. The JSON
//! *emitters* (Chrome trace-event format, the `osarch-counters/1` schema
//! and the rest) live in `osarch-core::metrics` and write with `format!`.
//!
//! # Example
//!
//! ```
//! use osarch_trace::{Category, Event, EventTracer, Tracer};
//!
//! let mut tracer = EventTracer::new();
//! tracer.set_phase("entry_exit");
//! tracer.record(Event::complete("trap.enter", Category::MicroOp, 0, 6));
//! assert_eq!(tracer.events()[0].phase, Some("entry_exit"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod event;
pub mod json;
mod mix;
mod profile;
mod tracer;

pub use counters::{CounterKey, CounterRegistry};
pub use event::{Category, Event, EventKind};
pub use mix::{fnv1a, mix64, SplitMix64, GAMMA};
pub use profile::{OpCost, PhaseCost, PhaseProfile};
pub use tracer::{EventTracer, NullTracer, Tracer};
