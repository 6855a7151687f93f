//! Banded unit-cost edit distance — the host's one dynamic program.
//!
//! The paper contrasts its O(m) FM-index search with "dynamic programming
//! algorithms such as Smith-Waterman (SW) with O(nm) complexity"; those
//! platforms are published rows of the `accel` catalog. What the host
//! itself computes is the distance the verifier checks a candidate locus
//! with: one band of 2·band + 1 diagonals, held as one row of cells, so a
//! check costs O(m · band) time and O(band) memory, not an n × m matrix.
//!
//! * [`banded_edit_distance`] — the global distance between two runs of
//!   bases;
//! * [`prefix_edit_distance`] — the least distance between a read and
//!   any prefix of a reference window, the window's end left free.
//!
//! # Examples
//!
//! ```
//! use bioseq::DnaSeq;
//! use swalign::prefix_edit_distance;
//!
//! # fn main() -> Result<(), bioseq::ParseSeqError> {
//! let window: DnaSeq = "GATTACAGGT".parse()?;
//! // The read matches the window's first seven bases; the rest is free.
//! assert_eq!(prefix_edit_distance(&window, &"GATTACA".parse::<DnaSeq>()?, 2), Some(0));
//! // One deleted T.
//! assert_eq!(prefix_edit_distance(&window, &"GATACA".parse::<DnaSeq>()?, 2), Some(1));
//! assert_eq!(prefix_edit_distance(&window, &"CCCCCCC".parse::<DnaSeq>()?, 2), None);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod dp;

pub use dp::{banded_edit_distance, prefix_edit_distance};
