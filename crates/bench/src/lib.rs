//! Shared harness for the benchmark suite and the `experiments` binary.
//!
//! Everything the per-figure benches need lives here so that the
//! `experiments` binary (which regenerates the *data* of every table and
//! figure) and the Criterion benches (which measure the *code* behind
//! them) stay consistent.

#![forbid(unsafe_code)]

pub mod json;
pub mod rows;
pub mod table;
pub mod workload;

pub use rows::{pim_platform_rows, simulate_config, PimRows};
pub use workload::{figure_workload, paper_workload, Workload};
