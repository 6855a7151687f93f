//! **PIM-Aligner** — a processing-in-MRAM platform for biological
//! sequence alignment (reproduction of Angizi et al., DATE 2020).
//!
//! This crate is the paper's primary contribution: the reconstructed
//! BWT/FM-index alignment algorithm executed entirely on simulated
//! SOT-MRAM computational sub-arrays.
//!
//! * [`MappedIndex`] — the correlated data partitioning and mapping of
//!   §V: BWT buckets, `CRef` rows and the vertical marker table
//!   co-located per sub-array, with the `LFM(MT, nt, id)` procedure
//!   executed by `XNOR_Match` + popcount + `MEM` + `IM_ADD`;
//! * [`exact_search`] — Algorithm 1 (exact alignment-in-memory);
//! * [`inexact_search`] — Algorithm 2 (≤ z differences via DPU
//!   backtracking);
//! * [`Platform`] — the end-to-end two-stage aligner with the paper's
//!   two configurations, [`PimAlignerConfig::baseline`] (PIM-Aligner-n)
//!   and [`PimAlignerConfig::pipelined`] (PIM-Aligner-p, Pd = 2);
//!   [`Platform::align_chunk_parallel`] aligns reads and
//!   [`Platform::batch_report`] reports on them;
//! * [`PerfReport`] — throughput, power, MBR and RUR, the quantities of
//!   Figs. 8–10.
//!
//! Everything the platform computes is validated bit-exactly against the
//! `fmindex` software oracle.
//!
//! # Examples
//!
//! ```
//! use bioseq::DnaSeq;
//! use pim_aligner::{PimAlignerConfig, Platform};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's Fig. 1 example: read CTA against reference TGCTA.
//! let reference: DnaSeq = "TGCTA".parse()?;
//! let platform = Platform::new(&reference, PimAlignerConfig::pipelined());
//! // One chunk (epoch 0) on one worker thread, forward strand only.
//! let (pairs, totals) = platform.align_chunk_parallel(&["CTA".parse()?], 1, 0, false)?;
//! assert_eq!(pairs[0].0.positions(), Some(&[2usize][..]));
//!
//! let report = platform.batch_report(&totals);
//! assert!(report.throughput_qps > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod aligner;
mod artifact;
mod config;
mod error;
mod exact;
mod host;
mod inexact;
mod mapping;
mod parallel;
mod platform;
mod report;
mod verify;

pub mod metrics;
pub mod sam;
pub mod service;

pub use aligner::{AlignmentOutcome, MappedStrand};
pub use artifact::{
    sa_rate_for_budget, IndexArtifact, LoadArtifactError, ARTIFACT_MAGIC, BUDGET_RATES,
};
// What `benchmark/` still compiles against; goes with the module.
#[doc(hidden)]
pub use artifact::benchmark_pins::*;
pub use config::{AddMethod, PimAlignerConfig, RecoveryPolicy, DEFAULT_KERNEL_BATCH};
pub use error::AlignError;
pub use exact::{exact_search, exact_search_batch, ExactStats};
pub use host::{HostTotals, HostTraceConfig, MAX_TRACE_SPANS};
pub use inexact::{inexact_search, inexact_search_first, InexactStats};
pub use mapping::{LfmRequest, MappedIndex};
pub use metrics::{
    MetricsBreakdown, PhaseLfm, PrimitiveMetrics, ResourceMetrics, StageOccupancy,
    METRICS_SCHEMA_VERSION,
};
pub use parallel::{BatchTotals, EPOCH_STRIDE};
pub use platform::Platform;
pub use report::{
    FaultTelemetry, IndexTelemetry, ObsTelemetry, PerfReport, ServiceTelemetry, SlowRequest,
    BACKGROUND_W_PER_SUBARRAY,
};
pub use service::{ServiceConfig, ServiceError};
