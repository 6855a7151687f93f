//! Umbrella crate for the PIM-Aligner reproduction workspace.
//!
//! Re-exports every subsystem so the workspace-level examples and
//! integration tests can reach the full stack through one dependency:
//!
//! * [`bioseq`] — DNA alphabet, packed sequences, FASTA/FASTQ;
//! * [`fmindex`] — the software-reference FM-index (ground truth);
//! * [`swalign`] — the host's banded edit distance, which verifies loci;
//! * [`readsim`] — the ART-like read simulator;
//! * [`mram`] — SOT-MRAM device/circuit/array models;
//! * [`pimsim`] — the computational sub-array simulator;
//! * [`pim_aligner`] — the paper's platform (the core contribution);
//! * [`accel`] — comparison-platform models for the evaluation figures.
//!
//! Its own module, [`cli`], is the front end `pimalign` and `pimserve`
//! share.
//!
//! # Examples
//!
//! ```
//! use pim_aligner_suite::pim_aligner::{PimAlignerConfig, Platform};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let reference: bioseq::DnaSeq = "TGCTA".parse()?;
//! let platform = Platform::new(reference.to_packed(), PimAlignerConfig::baseline());
//! let (pairs, _totals) = platform.align_chunk_parallel(&["CTA".parse()?], 1, 0, false)?;
//! assert_eq!(pairs[0].0.positions(), Some(&[2usize][..]));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod cli;

pub use accel;
pub use bioseq;
pub use fmindex;
pub use mram;
pub use pim_aligner;
pub use pimsim;
pub use readsim;
pub use swalign;
