//! Umbrella crate for the PIM-Aligner reproduction workspace.
//!
//! Re-exports every subsystem so the workspace-level examples and
//! integration tests can reach the full stack through one dependency:
//!
//! * [`bioseq`] — DNA alphabet, packed sequences, FASTA/FASTQ;
//! * [`fmindex`] — the software-reference FM-index (ground truth);
//! * [`swalign`] — dynamic-programming baselines (Smith–Waterman class);
//! * [`readsim`] — the ART-like read simulator;
//! * [`mram`] — SOT-MRAM device/circuit/array models;
//! * [`pimsim`] — the computational sub-array simulator;
//! * [`pim_aligner`] — the paper's platform (the core contribution);
//! * [`accel`] — comparison-platform models for the evaluation figures.
//!
//! # Examples
//!
//! ```
//! use pim_aligner_suite::pim_aligner::{AlignSession, PimAlignerConfig};
//!
//! # fn main() -> Result<(), bioseq::ParseSeqError> {
//! let reference: bioseq::DnaSeq = "TGCTA".parse()?;
//! let mut aligner = AlignSession::new(&reference, PimAlignerConfig::baseline());
//! assert_eq!(
//!     aligner.align_read(&"CTA".parse()?).positions(),
//!     Some(&[2usize][..])
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use accel;
pub use bioseq;
pub use fmindex;
pub use mram;
pub use pim_aligner;
pub use pimsim;
pub use readsim;
pub use swalign;
