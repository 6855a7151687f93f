//! The dynamic-programming aligners.

use bioseq::{Base, DnaSeq};

use crate::cigar::{Cigar, CigarOp};
use crate::score::Scoring;

/// The result of a pairwise alignment.
///
/// Coordinates are half-open (`start .. end`) into the reference and the
/// read respectively; for global alignments they span both sequences
/// entirely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// Total alignment score under the chosen [`Scoring`].
    pub score: i32,
    /// First aligned reference position.
    pub ref_start: usize,
    /// One past the last aligned reference position.
    pub ref_end: usize,
    /// First aligned read position.
    pub read_start: usize,
    /// One past the last aligned read position.
    pub read_end: usize,
    /// The operation string.
    pub cigar: Cigar,
}

impl Alignment {
    /// Number of reference bases covered.
    pub fn ref_span(&self) -> usize {
        self.ref_end - self.ref_start
    }

    /// Number of read bases covered.
    pub fn read_span(&self) -> usize {
        self.read_end - self.read_start
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Stop,
    Diag,
    Up,   // gap in read (deletion from read / ref base consumed)
    Left, // gap in reference (insertion in read)
}

/// Global alignment (Needleman–Wunsch) with linear gap cost
/// (`scoring.gap_open` per base).
///
/// # Examples
///
/// ```
/// use bioseq::DnaSeq;
/// use swalign::{needleman_wunsch, Scoring};
///
/// # fn main() -> Result<(), bioseq::ParseSeqError> {
/// let a: DnaSeq = "GATTACA".parse()?;
/// let b: DnaSeq = "GATACA".parse()?;
/// let aln = needleman_wunsch(&a, &b, Scoring::default());
/// assert_eq!(aln.cigar.indel_count(), 1); // one deleted T
/// assert_eq!(aln.score, 6 - 2);
/// # Ok(())
/// # }
/// ```
pub fn needleman_wunsch(reference: &DnaSeq, read: &DnaSeq, scoring: Scoring) -> Alignment {
    let n = reference.len();
    let m = read.len();
    let gap = scoring.gap_open as i32;
    let width = m + 1;
    let mut score = vec![0i32; (n + 1) * width];
    let mut dir = vec![Dir::Stop; (n + 1) * width];
    for j in 1..=m {
        score[j] = j as i32 * gap;
        dir[j] = Dir::Left;
    }
    for i in 1..=n {
        score[i * width] = i as i32 * gap;
        dir[i * width] = Dir::Up;
    }
    for i in 1..=n {
        for j in 1..=m {
            let diag = score[(i - 1) * width + j - 1]
                + scoring.score_pair(reference[i - 1] == read[j - 1]);
            let up = score[(i - 1) * width + j] + gap;
            let left = score[i * width + j - 1] + gap;
            let (best, d) = if diag >= up && diag >= left {
                (diag, Dir::Diag)
            } else if up >= left {
                (up, Dir::Up)
            } else {
                (left, Dir::Left)
            };
            score[i * width + j] = best;
            dir[i * width + j] = d;
        }
    }
    let cigar = traceback(&dir, width, n, m, |_, _| false);
    Alignment {
        score: score[n * width + m],
        ref_start: 0,
        ref_end: n,
        read_start: 0,
        read_end: m,
        cigar,
    }
}

/// Local alignment (Smith–Waterman) with linear gap cost — the O(n·m)
/// algorithm the paper's SW-based comparison platforms accelerate.
///
/// Returns the best-scoring local alignment; for an all-mismatch pair the
/// result is an empty alignment with score 0.
pub fn smith_waterman(reference: &DnaSeq, read: &DnaSeq, scoring: Scoring) -> Alignment {
    let n = reference.len();
    let m = read.len();
    let gap = scoring.gap_open as i32;
    let width = m + 1;
    let mut score = vec![0i32; (n + 1) * width];
    let mut dir = vec![Dir::Stop; (n + 1) * width];
    let mut best = (0i32, 0usize, 0usize);
    for i in 1..=n {
        for j in 1..=m {
            let diag = score[(i - 1) * width + j - 1]
                + scoring.score_pair(reference[i - 1] == read[j - 1]);
            let up = score[(i - 1) * width + j] + gap;
            let left = score[i * width + j - 1] + gap;
            let (mut cell, mut d) = if diag >= up && diag >= left {
                (diag, Dir::Diag)
            } else if up >= left {
                (up, Dir::Up)
            } else {
                (left, Dir::Left)
            };
            if cell <= 0 {
                cell = 0;
                d = Dir::Stop;
            }
            score[i * width + j] = cell;
            dir[i * width + j] = d;
            if cell > best.0 {
                best = (cell, i, j);
            }
        }
    }
    let (best_score, bi, bj) = best;
    let mut cigar = Cigar::new();
    let (mut i, mut j) = (bi, bj);
    while dir[i * width + j] != Dir::Stop {
        match dir[i * width + j] {
            Dir::Diag => {
                cigar.push(CigarOp::Match);
                i -= 1;
                j -= 1;
            }
            Dir::Up => {
                cigar.push(CigarOp::Deletion);
                i -= 1;
            }
            Dir::Left => {
                cigar.push(CigarOp::Insertion);
                j -= 1;
            }
            Dir::Stop => unreachable!(),
        }
    }
    cigar.reverse();
    Alignment {
        score: best_score,
        ref_start: i,
        ref_end: bi,
        read_start: j,
        read_end: bj,
        cigar,
    }
}

/// Banded global alignment: like [`needleman_wunsch`] but only cells with
/// `|i − j| ≤ band` are filled, reducing work to O((n + m)·band).
///
/// Returns `None` when `|n − m| > band` (the optimum cannot lie inside
/// the band).
pub fn banded_global(
    reference: &DnaSeq,
    read: &DnaSeq,
    scoring: Scoring,
    band: usize,
) -> Option<Alignment> {
    let n = reference.len();
    let m = read.len();
    if n.abs_diff(m) > band {
        return None;
    }
    let gap = scoring.gap_open as i32;
    let width = m + 1;
    const NEG: i32 = i32::MIN / 4;
    let mut score = vec![NEG; (n + 1) * width];
    let mut dir = vec![Dir::Stop; (n + 1) * width];
    score[0] = 0;
    for j in 1..=m.min(band) {
        score[j] = j as i32 * gap;
        dir[j] = Dir::Left;
    }
    for i in 1..=n.min(band) {
        score[i * width] = i as i32 * gap;
        dir[i * width] = Dir::Up;
    }
    for i in 1..=n {
        let lo = i.saturating_sub(band).max(1);
        let hi = (i + band).min(m);
        for j in lo..=hi {
            let diag = score[(i - 1) * width + j - 1]
                + scoring.score_pair(reference[i - 1] == read[j - 1]);
            let up = score[(i - 1) * width + j].saturating_add(gap);
            let left = score[i * width + j - 1].saturating_add(gap);
            let (best, d) = if diag >= up && diag >= left {
                (diag, Dir::Diag)
            } else if up >= left {
                (up, Dir::Up)
            } else {
                (left, Dir::Left)
            };
            score[i * width + j] = best;
            dir[i * width + j] = d;
        }
    }
    let cigar = traceback(&dir, width, n, m, |_, _| false);
    Some(Alignment {
        score: score[n * width + m],
        ref_start: 0,
        ref_end: n,
        read_start: 0,
        read_end: m,
        cigar,
    })
}

/// Banded unit-cost edit (Levenshtein) distance.
///
/// Fills only cells with `|i − j| ≤ band`, so the cost is
/// O((n + m)·band). Returns `Some(d)` when the edit distance `d` is at
/// most `band`, `None` otherwise — outside the band the exact distance
/// is unknown, only that it exceeds `band`.
///
/// # Examples
///
/// ```
/// use bioseq::DnaSeq;
/// use swalign::banded_edit_distance;
///
/// # fn main() -> Result<(), bioseq::ParseSeqError> {
/// let a: DnaSeq = "GATTACA".parse()?;
/// let b: DnaSeq = "GATACA".parse()?;
/// assert_eq!(banded_edit_distance(&a, &b, 2), Some(1));
/// // Any run of bases: here a's first five.
/// assert_eq!(banded_edit_distance(&a.as_slice()[..5], &b, 2), Some(2));
/// assert_eq!(banded_edit_distance(&a, &"TTTTTTT".parse::<DnaSeq>()?, 2), None);
/// # Ok(())
/// # }
/// ```
pub fn banded_edit_distance(
    a: &(impl AsRef<[Base]> + ?Sized),
    b: &(impl AsRef<[Base]> + ?Sized),
    band: usize,
) -> Option<u32> {
    let (a, b) = (a.as_ref(), b.as_ref());
    let n = a.len();
    let m = b.len();
    if n.abs_diff(m) > band {
        return None;
    }
    const INF: u32 = u32::MAX / 2;
    let width = m + 1;
    let mut dist = vec![INF; (n + 1) * width];
    dist[0] = 0;
    for (j, cell) in dist.iter_mut().enumerate().take(m.min(band) + 1).skip(1) {
        *cell = j as u32;
    }
    for i in 1..=n {
        if i <= band {
            dist[i * width] = i as u32;
        }
        let lo = i.saturating_sub(band).max(1);
        let hi = (i + band).min(m);
        for j in lo..=hi {
            let sub = dist[(i - 1) * width + j - 1] + u32::from(a[i - 1] != b[j - 1]);
            let del = dist[(i - 1) * width + j].saturating_add(1);
            let ins = dist[i * width + j - 1].saturating_add(1);
            dist[i * width + j] = sub.min(del).min(ins);
        }
    }
    let d = dist[n * width + m];
    (d as usize <= band).then_some(d)
}

/// Global traceback from `(n, m)` to the origin.
fn traceback(
    dir: &[Dir],
    width: usize,
    n: usize,
    m: usize,
    stop_at: impl Fn(usize, usize) -> bool,
) -> Cigar {
    let mut cigar = Cigar::new();
    let (mut i, mut j) = (n, m);
    while (i > 0 || j > 0) && !stop_at(i, j) {
        match dir[i * width + j] {
            Dir::Diag => {
                cigar.push(CigarOp::Match);
                i -= 1;
                j -= 1;
            }
            Dir::Up => {
                cigar.push(CigarOp::Deletion);
                i -= 1;
            }
            Dir::Left => {
                cigar.push(CigarOp::Insertion);
                j -= 1;
            }
            Dir::Stop => break,
        }
    }
    cigar.reverse();
    cigar
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn seq(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    #[test]
    fn nw_identical_sequences() {
        let a = seq("GATTACA");
        let aln = needleman_wunsch(&a, &a, Scoring::default());
        assert_eq!(aln.score, 7);
        assert_eq!(aln.cigar.to_string(), "7M");
    }

    #[test]
    fn nw_single_deletion() {
        let aln = needleman_wunsch(&seq("GATTACA"), &seq("GATACA"), Scoring::default());
        assert_eq!(aln.score, 4);
        assert_eq!(aln.cigar.read_len(), 6);
        assert_eq!(aln.cigar.ref_len(), 7);
    }

    #[test]
    fn nw_empty_read_is_all_deletions() {
        let aln = needleman_wunsch(&seq("ACGT"), &DnaSeq::new(), Scoring::default());
        assert_eq!(aln.cigar.to_string(), "4D");
        assert_eq!(aln.score, -8);
    }

    #[test]
    fn sw_finds_embedded_read() {
        let aln = smith_waterman(&seq("TTTTGATTACATTTT"), &seq("GATTACA"), Scoring::default());
        assert_eq!(aln.ref_start, 4);
        assert_eq!(aln.ref_end, 11);
        assert_eq!(aln.score, 7);
        assert_eq!(aln.cigar.to_string(), "7M");
    }

    #[test]
    fn sw_all_mismatch_scores_zero() {
        let aln = smith_waterman(&seq("AAAA"), &seq("TTTT"), Scoring::default());
        assert_eq!(aln.score, 0);
        assert!(aln.cigar.is_empty());
    }

    #[test]
    fn sw_tolerates_one_substitution() {
        let aln = smith_waterman(&seq("CCGATTACACC"), &seq("GATGACA"), Scoring::default());
        assert_eq!(aln.ref_start, 2);
        assert_eq!(aln.score, 6 - 1);
    }

    #[test]
    fn banded_matches_full_when_band_sufficient() {
        let a = seq("GATTACAGATTACA");
        let b = seq("GATTACAGTTACA");
        let full = needleman_wunsch(&a, &b, Scoring::default());
        let banded = banded_global(&a, &b, Scoring::default(), 3).unwrap();
        assert_eq!(banded.score, full.score);
    }

    #[test]
    fn banded_rejects_length_gap_beyond_band() {
        assert!(banded_global(&seq("AAAAAAAAAA"), &seq("AA"), Scoring::default(), 3).is_none());
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(
            banded_edit_distance(&seq("GATTACA"), &seq("GATTACA"), 0),
            Some(0)
        );
        assert_eq!(
            banded_edit_distance(&seq("GATTACA"), &seq("GATAACA"), 2),
            Some(1)
        );
        assert_eq!(
            banded_edit_distance(&seq("GATTACA"), &seq("GATACA"), 2),
            Some(1)
        );
        assert_eq!(
            banded_edit_distance(&seq("GATTACA"), &seq("GAGTTACA"), 2),
            Some(1)
        );
        assert_eq!(banded_edit_distance(&seq("AAAA"), &seq("TTTT"), 3), None);
        assert_eq!(banded_edit_distance(&seq("AAAAAAAA"), &seq("AA"), 3), None);
        assert_eq!(banded_edit_distance(&DnaSeq::new(), &seq("AC"), 2), Some(2));
    }

    /// Unbanded reference Levenshtein for the property test.
    fn naive_edit_distance(a: &DnaSeq, b: &DnaSeq) -> u32 {
        let mut prev: Vec<u32> = (0..=b.len() as u32).collect();
        for i in 1..=a.len() {
            let mut row = vec![i as u32; b.len() + 1];
            for j in 1..=b.len() {
                let sub = prev[j - 1] + u32::from(a[i - 1] != b[j - 1]);
                row[j] = sub.min(prev[j] + 1).min(row[j - 1] + 1);
            }
            prev = row;
        }
        prev[b.len()]
    }

    /// Score a CIGAR against the sequences it claims to align (linear gaps).
    fn rescore(aln: &Alignment, reference: &DnaSeq, read: &DnaSeq, s: Scoring) -> i32 {
        let mut score = 0;
        let (mut i, mut j) = (aln.ref_start, aln.read_start);
        for &(n, op) in aln.cigar.runs() {
            for _ in 0..n {
                match op {
                    CigarOp::Match => {
                        score += s.score_pair(reference[i] == read[j]);
                        i += 1;
                        j += 1;
                    }
                    CigarOp::Deletion => {
                        score += s.gap_open as i32;
                        i += 1;
                    }
                    CigarOp::Insertion => {
                        score += s.gap_open as i32;
                        j += 1;
                    }
                }
            }
        }
        assert_eq!((i, j), (aln.ref_end, aln.read_end));
        score
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn nw_cigar_consistent_with_score(
            a in proptest::collection::vec(0u8..4, 0..40),
            b in proptest::collection::vec(0u8..4, 0..40),
        ) {
            let a: DnaSeq = a.iter().map(|&r| bioseq::Base::from_rank(r as usize)).collect();
            let b: DnaSeq = b.iter().map(|&r| bioseq::Base::from_rank(r as usize)).collect();
            let s = Scoring::default();
            let aln = needleman_wunsch(&a, &b, s);
            prop_assert_eq!(aln.cigar.ref_len(), a.len());
            prop_assert_eq!(aln.cigar.read_len(), b.len());
            prop_assert_eq!(rescore(&aln, &a, &b, s), aln.score);
        }

        #[test]
        fn sw_cigar_consistent_with_score(
            a in proptest::collection::vec(0u8..4, 1..40),
            b in proptest::collection::vec(0u8..4, 1..40),
        ) {
            let a: DnaSeq = a.iter().map(|&r| bioseq::Base::from_rank(r as usize)).collect();
            let b: DnaSeq = b.iter().map(|&r| bioseq::Base::from_rank(r as usize)).collect();
            let s = Scoring::default();
            let aln = smith_waterman(&a, &b, s);
            prop_assert!(aln.score >= 0);
            prop_assert_eq!(rescore(&aln, &a, &b, s), aln.score);
        }

        #[test]
        fn sw_score_at_least_longest_common_substring(
            a in proptest::collection::vec(0u8..4, 1..30),
        ) {
            // Aligning a sequence against itself must recover full score.
            let a: DnaSeq = a.iter().map(|&r| bioseq::Base::from_rank(r as usize)).collect();
            let aln = smith_waterman(&a, &a, Scoring::default());
            prop_assert_eq!(aln.score, a.len() as i32);
        }

        #[test]
        fn banded_edit_distance_matches_naive(
            a in proptest::collection::vec(0u8..4, 0..30),
            b in proptest::collection::vec(0u8..4, 0..30),
        ) {
            let a: DnaSeq = a.iter().map(|&r| bioseq::Base::from_rank(r as usize)).collect();
            let b: DnaSeq = b.iter().map(|&r| bioseq::Base::from_rank(r as usize)).collect();
            let exact = naive_edit_distance(&a, &b);
            prop_assert_eq!(banded_edit_distance(&a, &b, 64), Some(exact));
            // A tight band either agrees or honestly reports "too far".
            match banded_edit_distance(&a, &b, 3) {
                Some(d) => prop_assert_eq!(d, exact),
                None => prop_assert!(exact > 3),
            }
        }

        #[test]
        fn banded_with_huge_band_equals_nw(
            a in proptest::collection::vec(0u8..4, 0..30),
            b in proptest::collection::vec(0u8..4, 0..30),
        ) {
            let a: DnaSeq = a.iter().map(|&r| bioseq::Base::from_rank(r as usize)).collect();
            let b: DnaSeq = b.iter().map(|&r| bioseq::Base::from_rank(r as usize)).collect();
            let s = Scoring::default();
            let full = needleman_wunsch(&a, &b, s);
            let banded = banded_global(&a, &b, s, 64).unwrap();
            prop_assert_eq!(banded.score, full.score);
        }
    }
}
