//! Software-reference FM-index for the PIM-Aligner reproduction.
//!
//! This crate is the *algorithmic ground truth* of the workspace: it
//! implements BWT-based read mapping exactly as §II–III of the paper
//! describe it, entirely in software. The `pim-aligner` crate re-executes
//! the same algorithm on the simulated SOT-MRAM platform and is tested for
//! bit-exact agreement with this crate.
//!
//! Pipeline (paper Fig. 2):
//!
//! 1. end the reference with the sentinel `$` (a virtual one: [`Text`]
//!    is a view of the reference's bases) and build the **suffix array**
//!    ([`suffix_array`], linear-time SA-IS in one `u32` array, with a
//!    naive cross-check implementation);
//! 2. derive the **BWT** ([`Bwt`]) — the last column of the sorted
//!    BW-matrix, held as 2-bit codes the way the platform stores it;
//! 3. pre-compute **`Count(nt)`** ([`CountTable`]), the **Occ** table
//!    check-pointed every `d` positions ([`SampledOcc`], counted in one
//!    pass over the BWT — the full [`OccTable`] is Fig. 2's illustration
//!    and the tests' oracle, never part of an index), and the **Marker
//!    Table** ([`MarkerTable`] = `SampledOcc + Count`);
//! 4. answer queries by **backward search** ([`FmIndex::backward_search`])
//!    built on the hardware-friendly [`MarkerTable::lfm`] procedure, with
//!    inexact matching ([`FmIndex::search_inexact`]) via bounded
//!    backtracking (Algorithm 2).
//!
//! Beyond the paper, a [`SeedTable`] holds the interval of every short
//! read suffix, so that a search can read its first steps instead of
//! walking them.
//!
//! # Examples
//!
//! The paper's running example (Fig. 1): read `R = CTA` against reference
//! `S = TGCTA`.
//!
//! ```
//! use bioseq::{DnaSeq, PackedSeq};
//! use fmindex::FmIndex;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let reference: PackedSeq = "TGCTA".parse()?;
//! let index = FmIndex::builder().bucket_width(2).build(&reference);
//!
//! assert_eq!(index.bwt().to_string(), "ATGTC$");
//!
//! let read: DnaSeq = "CTA".parse()?;
//! let interval = index.backward_search(&read).expect("CTA occurs in TGCTA");
//! assert_eq!(index.locate(interval), vec![2]); // CTA starts at position 2
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod io;
pub mod size_model;

mod bwt;
mod index;
mod inexact;
mod locate;
mod packed;
mod sa;
mod search;
mod seed;
mod tables;
mod text;

pub use bwt::Bwt;
pub use index::{FmIndex, FmIndexBuilder, IndexBuildError, SaStorage};
pub use inexact::{EditBudget, InexactHit};
pub use locate::{SampledRows, SuffixArraySamples};
pub use sa::{suffix_array, suffix_array_naive};
pub use search::SaInterval;
pub use seed::SeedTable;
pub use tables::{CountTable, MarkerTable, OccTable, SampledOcc};
pub use text::Text;
