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
//! * [`AlignSession`] — the end-to-end two-stage aligner with the paper's
//!   two configurations, [`PimAlignerConfig::baseline`] (PIM-Aligner-n)
//!   and [`PimAlignerConfig::pipelined`] (PIM-Aligner-p, Pd = 2);
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
//! use pim_aligner::{AlignSession, PimAlignerConfig};
//!
//! # fn main() -> Result<(), bioseq::ParseSeqError> {
//! // The paper's Fig. 1 example: read CTA against reference TGCTA.
//! let reference: DnaSeq = "TGCTA".parse()?;
//! let mut aligner = AlignSession::new(&reference, PimAlignerConfig::pipelined());
//! let outcome = aligner.align_read(&"CTA".parse()?);
//! assert_eq!(outcome.positions(), Some(&[2usize][..]));
//!
//! let report = aligner.report();
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

pub use aligner::{AlignSession, AlignmentOutcome, BatchResult, MappedStrand};
pub use artifact::{
    sa_rate_for_budget, ArtifactShard, IndexArtifact, LoadArtifactError, ShardedPlatform,
    ARTIFACT_MAGIC, BUDGET_RATES,
};
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
pub use parallel::{align_batch_parallel, align_batch_parallel_both_strands, BatchTotals};
pub use platform::Platform;
pub use report::{
    FaultTelemetry, IndexTelemetry, ObsTelemetry, PerfReport, ServiceTelemetry, SlowRequest,
    BACKGROUND_W_PER_SUBARRAY,
};
pub use service::{ServiceConfig, ServiceError};
