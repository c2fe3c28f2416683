//! Table regeneration for the ASPLOS 1991 reproduction:
//! `cargo run -p osarch-bench --bin repro_tables` prints every table of
//! the paper (1–7 plus the in-text results) with paper-vs-measured
//! columns. Performance is measured by the repository benchmark in
//! `perfbench/`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use osarch_core::experiments;
