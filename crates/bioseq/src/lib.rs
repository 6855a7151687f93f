//! DNA sequence substrate for the PIM-Aligner reproduction.
//!
//! This crate provides the biological-sequence building blocks every other
//! crate in the workspace builds on:
//!
//! * [`Base`] — the four-letter DNA alphabet with the paper's 2-bit binary
//!   encoding (Fig. 6a: `T = 00`, `G = 01`, `A = 10`, `C = 11`) and the
//!   lexicographic rank (`A < C < G < T`) used by the FM-index.
//! * [`DnaSeq`] — an owned, unpacked sequence of bases with reverse
//!   complement, slicing and parsing.
//! * [`PackedSeq`] — a 2-bit-packed sequence, the exact in-memory layout the
//!   PIM platform stores in its BWT zone (128 bases per 256-bit word line).
//! * [`fasta`] / [`fastq`] — minimal readers and writers for the two common
//!   sequence interchange formats.
//! * [`quality`] — Phred quality scores for simulated reads.
//!
//! # Examples
//!
//! ```
//! use bioseq::{Base, DnaSeq};
//!
//! # fn main() -> Result<(), bioseq::ParseSeqError> {
//! let seq: DnaSeq = "TGCTA".parse()?;
//! assert_eq!(seq.len(), 5);
//! assert_eq!(seq.reverse_complement().to_string(), "TAGCA");
//! assert_eq!(seq[0], Base::T);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod base;
mod error;
mod packed;
mod seq;

pub mod fasta;
pub mod fastq;
pub mod quality;

pub use base::{Base, Symbol};
pub use error::ParseSeqError;
pub use packed::PackedSeq;
pub use seq::DnaSeq;
