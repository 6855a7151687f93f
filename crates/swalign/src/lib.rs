//! Dynamic-programming sequence alignment — the O(n·m) baseline class.
//!
//! The paper contrasts its O(m) FM-index search with "dynamic programming
//! algorithms such as Smith-Waterman (SW) with O(nm) complexity" — the
//! algorithm family behind the Darwin, ReCAM and RaceLogic accelerators it
//! compares against. This crate implements that baseline class in
//! software so the comparison is executable, not just quoted:
//!
//! * [`needleman_wunsch`] — global alignment;
//! * [`smith_waterman`] — local alignment (the SW of the paper);
//! * [`banded_global`] — banded global alignment for bounded edit distance;
//! * [`banded_edit_distance`] — banded unit-cost Levenshtein distance.
//!
//! All return an [`Alignment`] with score, coordinates and a [`Cigar`].
//!
//! # Examples
//!
//! ```
//! use bioseq::DnaSeq;
//! use swalign::{smith_waterman, Scoring};
//!
//! # fn main() -> Result<(), bioseq::ParseSeqError> {
//! let reference: DnaSeq = "ACGTGATTACAGGT".parse()?;
//! let read: DnaSeq = "GATTACA".parse()?;
//! let aln = smith_waterman(&reference, &read, Scoring::default());
//! assert_eq!(aln.ref_start, 4);
//! assert_eq!(aln.score, 7 * i32::from(Scoring::default().match_score));
//! assert_eq!(aln.cigar.to_string(), "7M");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod cigar;
mod dp;
mod score;

pub use cigar::{Cigar, CigarOp};
pub use dp::{banded_edit_distance, banded_global, needleman_wunsch, smith_waterman, Alignment};
pub use score::Scoring;
