//! Exact backward search (paper §II and Algorithm 1).

use std::fmt;

use bioseq::DnaSeq;

use crate::bwt::Bwt;
use crate::tables::MarkerTable;

/// A suffix-array interval `[low, high)` — "the SA interval (low, high)
/// covers a range of indices where the suffixes have the same prefix".
///
/// The interval is non-empty (a match exists) when `low < high`; the number
/// of occurrences is `high − low`.
///
/// # Examples
///
/// ```
/// use fmindex::SaInterval;
///
/// let hit = SaInterval::new(2, 3);
/// assert!(!hit.is_empty());
/// assert_eq!(hit.count(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SaInterval {
    low: u32,
    high: u32,
}

impl SaInterval {
    /// Creates an interval.
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    pub fn new(low: u32, high: u32) -> SaInterval {
        assert!(low <= high, "SA interval bounds inverted: {low} > {high}");
        SaInterval { low, high }
    }

    /// The full interval `[0, n)` covering every suffix of a text of length
    /// `n` — the initialisation of Algorithm 1 ("index-low and index-high
    /// boundaries are initialized to … 0 and N").
    ///
    /// Interval bounds are `u32`, so `text_len` must not exceed
    /// `u32::MAX` rows. The index builder guarantees this
    /// ([`FmIndex::MAX_REFERENCE_LEN`](crate::FmIndex::MAX_REFERENCE_LEN));
    /// the assert catches direct callers with an over-long text.
    ///
    /// # Panics
    ///
    /// Panics if `text_len > u32::MAX`.
    pub fn full(text_len: usize) -> SaInterval {
        assert!(
            text_len <= u32::MAX as usize,
            "text of {text_len} rows exceeds the u32 interval bound"
        );
        SaInterval {
            low: 0,
            high: text_len as u32,
        }
    }

    /// Lower bound (inclusive).
    pub fn low(&self) -> u32 {
        self.low
    }

    /// Upper bound (exclusive).
    pub fn high(&self) -> u32 {
        self.high
    }

    /// `true` when no suffix matches (`low ≥ high` — the paper's failure
    /// condition).
    pub fn is_empty(&self) -> bool {
        self.low >= self.high
    }

    /// Number of matching suffixes.
    pub fn count(&self) -> u32 {
        self.high - self.low
    }

    /// Iterates over the suffix-array rows in the interval.
    pub fn rows(&self) -> impl Iterator<Item = usize> {
        (self.low as usize)..(self.high as usize)
    }
}

impl fmt::Display for SaInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.low, self.high)
    }
}

/// One step of backward search: narrows `interval` by prepending `nt`,
/// using two `LFM` evaluations (one per bound). This is the loop body of
/// Algorithm 1.
pub fn backward_step(
    mt: &MarkerTable,
    bwt: &Bwt,
    nt: bioseq::Base,
    interval: SaInterval,
) -> SaInterval {
    let low = mt.lfm(bwt, nt, interval.low() as usize);
    let high = mt.lfm(bwt, nt, interval.high() as usize);
    // LFM is monotone in `id`, so low ≤ high always holds.
    SaInterval::new(low, high)
}

/// Runs full backward search of `read` (right-to-left, "starting from the
/// rightmost nucleotide") over a BWT + Marker Table.
///
/// Returns the final interval; an empty interval means no exact match. The
/// search stops early once the interval empties (the paper's `low ≥ high`
/// failure exit).
pub fn backward_search(mt: &MarkerTable, bwt: &Bwt, read: &DnaSeq) -> SaInterval {
    let mut interval = SaInterval::full(bwt.len());
    for &nt in read.iter().rev() {
        interval = backward_step(mt, bwt, nt, interval);
        if interval.is_empty() {
            return interval;
        }
    }
    interval
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sa::suffix_array;
    use crate::tables::{CountTable, SampledOcc};
    use crate::text::Text;
    use bioseq::{Base, PackedSeq};
    use proptest::prelude::*;

    fn index(s: &str, d: usize) -> (Text<'static>, Vec<u32>, Bwt, MarkerTable) {
        let t = Text::from_packed(s.parse().unwrap());
        let sa = suffix_array(&t);
        let bwt = Bwt::from_sa(&t, &sa);
        let count = CountTable::from_bwt(&bwt);
        let mt = MarkerTable::new(&count, &SampledOcc::from_bwt(&bwt, d));
        (t, sa, bwt, mt)
    }

    #[test]
    fn paper_example_cta_in_tgcta() {
        let (_, sa, bwt, mt) = index("TGCTA", 2);
        let read: DnaSeq = "CTA".parse().unwrap();
        let hit = backward_search(&mt, &bwt, &read);
        assert!(!hit.is_empty());
        assert_eq!(hit.count(), 1);
        let positions: Vec<usize> = hit.rows().map(|r| sa[r] as usize).collect();
        assert_eq!(positions, vec![2]);
    }

    #[test]
    fn absent_read_fails_with_low_ge_high() {
        let (_, _, bwt, mt) = index("TGCTA", 2);
        let read: DnaSeq = "AAA".parse().unwrap();
        assert!(backward_search(&mt, &bwt, &read).is_empty());
    }

    #[test]
    fn repeated_pattern_counts_occurrences() {
        let (_, sa, bwt, mt) = index("ACGTACGTACGT", 3);
        let read: DnaSeq = "ACGT".parse().unwrap();
        let hit = backward_search(&mt, &bwt, &read);
        assert_eq!(hit.count(), 3);
        let mut positions: Vec<usize> = hit.rows().map(|r| sa[r] as usize).collect();
        positions.sort_unstable();
        assert_eq!(positions, vec![0, 4, 8]);
    }

    #[test]
    fn empty_read_matches_everywhere() {
        let (t, _, bwt, mt) = index("ACGT", 2);
        let hit = backward_search(&mt, &bwt, &DnaSeq::new());
        assert_eq!(hit.count() as usize, t.len());
    }

    #[test]
    fn full_reference_matches_once_at_origin() {
        let (_, sa, bwt, mt) = index("GATTACA", 2);
        let read: DnaSeq = "GATTACA".parse().unwrap();
        let hit = backward_search(&mt, &bwt, &read);
        assert_eq!(hit.count(), 1);
        assert_eq!(sa[hit.low() as usize], 0);
    }

    #[test]
    fn interval_helpers() {
        let full = SaInterval::full(10);
        assert_eq!((full.low(), full.high()), (0, 10));
        assert!(SaInterval::new(3, 3).is_empty());
        assert_eq!(
            SaInterval::new(2, 5).rows().collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_interval_panics() {
        let _ = SaInterval::new(5, 2);
    }

    /// Oracle: positions found by backward search must equal positions
    /// found by scanning the reference directly.
    fn scan_positions(reference: &PackedSeq, read: &DnaSeq) -> Vec<usize> {
        if read.is_empty() || read.len() > reference.len() {
            return Vec::new();
        }
        (0..=reference.len() - read.len())
            .filter(|&i| (0..read.len()).all(|j| reference.get(i + j) == Some(read[j])))
            .collect()
    }

    proptest! {
        #[test]
        fn backward_search_matches_scan(
            ref_bases in proptest::collection::vec(0u8..4, 1..200),
            read_bases in proptest::collection::vec(0u8..4, 1..12),
            d in 1usize..20,
        ) {
            let reference: PackedSeq = ref_bases.iter().map(|&r| Base::from_rank(r as usize)).collect();
            let read: DnaSeq = read_bases.iter().map(|&r| Base::from_rank(r as usize)).collect();
            let (_, sa, bwt, mt) = {
                let t = Text::from_reference(&reference);
                let sa = suffix_array(&t);
                let bwt = Bwt::from_sa(&t, &sa);
                let count = CountTable::from_bwt(&bwt);
                let mt = MarkerTable::new(&count, &SampledOcc::from_bwt(&bwt, d));
                (t, sa, bwt, mt)
            };
            let hit = backward_search(&mt, &bwt, &read);
            let mut found: Vec<usize> = hit.rows().map(|r| sa[r] as usize).collect();
            found.sort_unstable();
            prop_assert_eq!(found, scan_positions(&reference, &read));
        }

        #[test]
        fn sampled_search_agrees_across_bucket_widths(
            ref_bases in proptest::collection::vec(0u8..4, 1..150),
            read_bases in proptest::collection::vec(0u8..4, 1..10),
        ) {
            let reference: PackedSeq = ref_bases.iter().map(|&r| Base::from_rank(r as usize)).collect();
            let read: DnaSeq = read_bases.iter().map(|&r| Base::from_rank(r as usize)).collect();
            let t = Text::from_reference(&reference);
            let sa = suffix_array(&t);
            let bwt = Bwt::from_sa(&t, &sa);
            let count = CountTable::from_bwt(&bwt);
            let mut results = Vec::new();
            for d in [1usize, 2, 7, 128] {
                let mt = MarkerTable::new(&count, &SampledOcc::from_bwt(&bwt, d));
                results.push(backward_search(&mt, &bwt, &read));
            }
            prop_assert!(results.windows(2).all(|w| w[0] == w[1]));
        }
    }
}
