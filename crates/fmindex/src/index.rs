//! The assembled FM-index.

use std::fmt;

use bioseq::{DnaSeq, PackedSeq};

use crate::bwt::Bwt;
use crate::inexact::{search_inexact, EditBudget, InexactHit};
use crate::locate::{locate, SuffixArraySamples};
use crate::sa::suffix_array_of;
use crate::search::{backward_search, SaInterval};
use crate::tables::{CountTable, MarkerTable, SampledOcc};

/// How the suffix array is retained for `locate` queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SaStorage {
    /// Keep every entry (the paper's configuration: "BWT, Marker Table
    /// (MT), and SA will be stored in the memory").
    #[default]
    Full,
    /// Keep entries at text positions divisible by the rate; other rows
    /// are recovered by LF-stepping.
    Sampled(u32),
}

/// Why an index could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexBuildError {
    /// The reference exceeds [`FmIndex::MAX_REFERENCE_LEN`]. Text
    /// positions are stored as `u32` with `u32::MAX` reserved (SA-IS
    /// marks empty slots with it), so the text (reference + sentinel) must
    /// fit in `u32::MAX` rows.
    ReferenceTooLong {
        /// The offending reference length, bases.
        len: usize,
    },
}

impl fmt::Display for IndexBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexBuildError::ReferenceTooLong { len } => write!(
                f,
                "reference of {len} bases exceeds the u32 position bound \
                 ({} bases max)",
                FmIndex::MAX_REFERENCE_LEN
            ),
        }
    }
}

impl std::error::Error for IndexBuildError {}

/// Builder for [`FmIndex`] (see [`FmIndex::builder`]).
///
/// # Examples
///
/// ```
/// use bioseq::PackedSeq;
/// use fmindex::{FmIndex, SaStorage};
///
/// # fn main() -> Result<(), bioseq::ParseSeqError> {
/// let reference: PackedSeq = "GATTACA".parse()?;
/// let index = FmIndex::builder()
///     .bucket_width(4)
///     .sa_storage(SaStorage::Sampled(4))
///     .build(&reference);
/// assert_eq!(index.bucket_width(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FmIndexBuilder {
    bucket_width: usize,
    sa_storage: SaStorage,
}

impl Default for FmIndexBuilder {
    fn default() -> Self {
        FmIndexBuilder {
            bucket_width: FmIndex::DEFAULT_BUCKET_WIDTH,
            sa_storage: SaStorage::Full,
        }
    }
}

impl FmIndexBuilder {
    /// Sets the Occ-table bucket width `d` (default 128, one sub-array
    /// word line).
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn bucket_width(mut self, d: usize) -> Self {
        assert!(d > 0, "bucket width must be positive");
        self.bucket_width = d;
        self
    }

    /// Sets the suffix-array retention policy (default [`SaStorage::Full`]).
    ///
    /// # Panics
    ///
    /// Panics if a sampled rate of 0 is given.
    pub fn sa_storage(mut self, storage: SaStorage) -> Self {
        if let SaStorage::Sampled(rate) = storage {
            assert!(rate > 0, "SA sampling rate must be positive");
        }
        self.sa_storage = storage;
        self
    }

    /// Builds the index over `reference` (Fig. 2's one-time
    /// pre-computation).
    ///
    /// # Panics
    ///
    /// Panics if the reference exceeds [`FmIndex::MAX_REFERENCE_LEN`];
    /// use [`FmIndexBuilder::try_build`] for a typed error instead.
    pub fn build(self, reference: &PackedSeq) -> FmIndex {
        self.try_build(reference)
            .unwrap_or_else(|e| panic!("cannot build index: {e}"))
    }

    /// Builds the index over `reference`, rejecting references too long
    /// for the `u32` text-position representation.
    ///
    /// Every pass reads the reference's own 2-bit codes: while the index
    /// is built, the only buffers of more than a bit per base are the
    /// `u32` suffix array, the packed reference and the 2-bit BWT.
    ///
    /// # Errors
    ///
    /// [`IndexBuildError::ReferenceTooLong`] when the reference exceeds
    /// [`FmIndex::MAX_REFERENCE_LEN`] (text positions are `u32` with
    /// `u32::MAX` reserved as SA-IS's empty-slot mark).
    pub fn try_build(self, reference: &PackedSeq) -> Result<FmIndex, IndexBuildError> {
        if reference.len() > FmIndex::MAX_REFERENCE_LEN {
            return Err(IndexBuildError::ReferenceTooLong {
                len: reference.len(),
            });
        }
        let sa = suffix_array_of(reference);
        let bwt = Bwt::from_sa_of(reference, &sa);
        // The suffix array goes first, so that no table is alive beside it.
        let samples = match self.sa_storage {
            SaStorage::Full => SuffixArraySamples::full(sa),
            SaStorage::Sampled(rate) => SuffixArraySamples::sampled(sa, rate),
        };
        let count = CountTable::from_bwt(&bwt);
        let marker = MarkerTable::new(&count, &SampledOcc::from_bwt(&bwt, self.bucket_width));
        Ok(FmIndex {
            text_len: bwt.len(),
            bwt,
            count,
            marker,
            samples,
        })
    }
}

/// The assembled FM-index over a reference genome: BWT + Count + Marker
/// Table + suffix-array storage.
///
/// This is the software ground truth the PIM platform is validated
/// against; every query here is answered purely with the pre-computed
/// tables of Fig. 2.
///
/// # Examples
///
/// ```
/// use bioseq::{DnaSeq, PackedSeq};
/// use fmindex::FmIndex;
///
/// # fn main() -> Result<(), bioseq::ParseSeqError> {
/// let index = FmIndex::builder().build(&"TGCTA".parse::<PackedSeq>()?);
/// let hit = index.backward_search(&"CTA".parse::<DnaSeq>()?).expect("match");
/// assert_eq!(index.locate(hit), vec![2]);
/// assert!(index.backward_search(&"AAA".parse::<DnaSeq>()?).is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FmIndex {
    text_len: usize,
    bwt: Bwt,
    count: CountTable,
    marker: MarkerTable,
    samples: SuffixArraySamples,
}

impl FmIndex {
    /// Default Occ bucket width: 128 bases, one 256-bit sub-array word
    /// line (paper Fig. 6a).
    pub const DEFAULT_BUCKET_WIDTH: usize = 128;

    /// Longest supported reference, bases. Text positions (reference +
    /// one sentinel) are stored as `u32` and `u32::MAX` is reserved as
    /// SA-IS's empty-slot mark, so the text may hold at most
    /// `u32::MAX` rows — a reference of `u32::MAX − 1` bases. Covers any
    /// single chromosome (Hg19's largest is ~249 Mbp; the whole 3.2 Gbp
    /// genome is indexed per-chromosome or sharded).
    pub const MAX_REFERENCE_LEN: usize = u32::MAX as usize - 1;

    /// Starts building an index.
    pub fn builder() -> FmIndexBuilder {
        FmIndexBuilder::default()
    }

    /// Builds with default options (`d = 128`, full SA).
    pub fn new(reference: &PackedSeq) -> FmIndex {
        FmIndexBuilder::default().build(reference)
    }

    /// Length of the indexed text including the sentinel.
    pub fn text_len(&self) -> usize {
        self.text_len
    }

    /// Length of the reference genome.
    pub fn reference_len(&self) -> usize {
        self.text_len - 1
    }

    /// The Occ bucket width `d`.
    pub fn bucket_width(&self) -> usize {
        self.marker.bucket_width()
    }

    /// The BWT.
    pub fn bwt(&self) -> &Bwt {
        &self.bwt
    }

    /// The `Count(nt)` table.
    pub fn count_table(&self) -> &CountTable {
        &self.count
    }

    /// The marker table (sampled Occ + Count).
    pub fn marker_table(&self) -> &MarkerTable {
        &self.marker
    }

    /// The suffix-array storage.
    pub fn sa_samples(&self) -> &SuffixArraySamples {
        &self.samples
    }

    /// The suffix-array sampling rate: 1 for the full array.
    pub fn sa_rate(&self) -> u32 {
        match &self.samples {
            SuffixArraySamples::Full(_) => 1,
            SuffixArraySamples::Sampled { rate, .. } => *rate,
        }
    }

    /// Exact backward search; `None` when the read does not occur.
    pub fn backward_search(&self, read: &DnaSeq) -> Option<SaInterval> {
        let interval = backward_search(&self.marker, &self.bwt, read);
        (!interval.is_empty()).then_some(interval)
    }

    /// Number of exact occurrences of `read`.
    pub fn count(&self, read: &DnaSeq) -> u32 {
        self.backward_search(read).map_or(0, |i| i.count())
    }

    /// Resolves an interval to sorted, deduplicated reference positions.
    ///
    /// # Panics
    ///
    /// Panics if the interval is out of range for this index.
    pub fn locate(&self, interval: SaInterval) -> Vec<usize> {
        locate(&self.samples, &self.bwt, &self.marker, interval)
    }

    /// Exact search returning reference positions directly.
    pub fn find(&self, read: &DnaSeq) -> Vec<usize> {
        self.backward_search(read)
            .map_or_else(Vec::new, |i| self.locate(i))
    }

    /// Inexact search (Algorithm 2) with the given edit budget.
    pub fn search_inexact(&self, read: &DnaSeq, budget: EditBudget) -> Vec<InexactHit> {
        search_inexact(&self.marker, &self.bwt, read, budget)
    }

    /// Inexact search returning `(position, diffs)` pairs, sorted by
    /// position, keeping the fewest diffs per position.
    pub fn find_inexact(&self, read: &DnaSeq, budget: EditBudget) -> Vec<(usize, u8)> {
        let mut by_pos: std::collections::HashMap<usize, u8> = std::collections::HashMap::new();
        for hit in self.search_inexact(read, budget) {
            for pos in self.locate(hit.interval) {
                by_pos
                    .entry(pos)
                    .and_modify(|d| *d = (*d).min(hit.diffs))
                    .or_insert(hit.diffs);
            }
        }
        let mut out: Vec<(usize, u8)> = by_pos.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Total table footprint in bytes: BWT (2 bits/base rounded up to
    /// bytes) + MT + SA — the quantities the paper counts toward its
    /// "~12 GB of memory space".
    pub fn size_bytes(&self) -> usize {
        self.bwt.len().div_ceil(4) + self.marker.size_bytes() + self.samples.size_bytes()
    }

    /// Reassembles an index from its stored tables (the `io::load`
    /// path), cross-checking the stored Count and Marker tables against
    /// values recomputed from the BWT.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub(crate) fn from_stored_parts(
        text_len: usize,
        sentinel_pos: usize,
        packed_bwt: Vec<u8>,
        stored_count: [u32; 4],
        bucket_width: usize,
        stored_markers: impl Iterator<Item = u32>,
        samples: SuffixArraySamples,
    ) -> Result<FmIndex, String> {
        let bwt = Bwt::from_packed(packed_bwt, text_len, sentinel_pos);
        let count = CountTable::from_bwt(&bwt);
        if count.as_array() != stored_count {
            return Err("count table disagrees with the stored BWT".into());
        }
        let sampled = SampledOcc::from_bwt(&bwt, bucket_width);
        let marker = MarkerTable::new(&count, &sampled);
        if let Some(i) = marker
            .as_words()
            .iter()
            .zip(stored_markers)
            .position(|(&recounted, stored)| recounted != stored)
        {
            return Err(format!(
                "marker table disagrees at bucket {} base {}",
                i / 4,
                bioseq::Base::from_rank(i % 4)
            ));
        }
        if samples.len() != text_len {
            return Err("suffix-array storage length mismatch".into());
        }
        Ok(FmIndex {
            text_len,
            bwt,
            count,
            marker,
            samples,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn idx(s: &str) -> FmIndex {
        FmIndex::builder()
            .bucket_width(3)
            .build(&s.parse::<PackedSeq>().unwrap())
    }

    #[test]
    fn paper_fig1_end_to_end() {
        let index = idx("TGCTA");
        assert_eq!(index.bwt().to_string(), "ATGTC$");
        assert_eq!(index.find(&"CTA".parse().unwrap()), vec![2]);
        assert_eq!(index.count(&"T".parse().unwrap()), 2);
    }

    #[test]
    fn find_lists_all_occurrences_sorted() {
        let index = idx("ACGACGACG");
        assert_eq!(index.find(&"ACG".parse().unwrap()), vec![0, 3, 6]);
    }

    #[test]
    fn default_bucket_width_is_wordline() {
        let index = FmIndex::new(&"ACGT".parse().unwrap());
        assert_eq!(index.bucket_width(), 128);
    }

    #[test]
    fn sampled_sa_gives_same_answers() {
        let reference: PackedSeq = "GATTACAGATTACAGGG".parse().unwrap();
        let full = FmIndex::builder().bucket_width(4).build(&reference);
        let sparse = FmIndex::builder()
            .bucket_width(4)
            .sa_storage(SaStorage::Sampled(4))
            .build(&reference);
        for read in ["GATT", "TACA", "GGG", "TTTT"] {
            let read: DnaSeq = read.parse().unwrap();
            assert_eq!(full.find(&read), sparse.find(&read), "read {read}");
        }
        assert!(sparse.size_bytes() < full.size_bytes());
    }

    #[test]
    fn find_inexact_keeps_best_diff_per_position() {
        let index = idx("GATTACA");
        let hits = index.find_inexact(
            &"GATTACA".parse().unwrap(),
            EditBudget::substitutions_only(1),
        );
        assert_eq!(hits.iter().find(|(p, _)| *p == 0).map(|(_, d)| *d), Some(0));
    }

    #[test]
    fn try_build_matches_build_within_bound() {
        let reference: PackedSeq = "GATTACA".parse().unwrap();
        let index = FmIndex::builder()
            .bucket_width(3)
            .try_build(&reference)
            .expect("small reference builds");
        assert_eq!(index.find(&"TTA".parse().unwrap()), vec![2]);
    }

    #[test]
    fn reference_too_long_error_names_the_bound() {
        // A u32::MAX-base reference cannot be materialised in a test;
        // the typed error itself is the contract.
        let e = IndexBuildError::ReferenceTooLong { len: 1 << 33 };
        let msg = e.to_string();
        assert!(msg.contains("u32 position bound"), "{msg}");
        assert!(
            msg.contains(&FmIndex::MAX_REFERENCE_LEN.to_string()),
            "{msg}"
        );
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<IndexBuildError>();
    }

    #[test]
    fn reference_len_accessor() {
        let index = idx("GATTACA");
        assert_eq!(index.reference_len(), 7);
        assert_eq!(index.text_len(), 8);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn every_reported_position_is_a_real_match(
            ref_bases in proptest::collection::vec(0u8..4, 5..120),
            read_bases in proptest::collection::vec(0u8..4, 1..8),
        ) {
            let reference: PackedSeq = ref_bases.iter().map(|&r| bioseq::Base::from_rank(r as usize)).collect();
            let read: DnaSeq = read_bases.iter().map(|&r| bioseq::Base::from_rank(r as usize)).collect();
            let index = FmIndex::builder().bucket_width(7).build(&reference);
            for pos in index.find(&read) {
                prop_assert!(pos + read.len() <= reference.len());
                for j in 0..read.len() {
                    prop_assert_eq!(reference.get(pos + j), Some(read[j]));
                }
            }
        }
    }
}
