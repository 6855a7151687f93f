//! The one banded dynamic program and its two readings.

use bioseq::Base;

/// Banded unit-cost edit (Levenshtein) distance.
///
/// Fills only cells with `|i − j| ≤ band`, one row of 2·band + 1 cells
/// at a time, so the cost is O((n + m)·band). Returns `Some(d)` when the edit distance `d` is at
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
    // No distance exceeds the longer length, so no wider band is needed.
    let band = band.min(a.len().max(b.len()));
    if a.len().abs_diff(b.len()) > band {
        return None;
    }
    let d = last_row(a, b, band)?[a.len() + band - b.len()];
    (d as usize <= band).then_some(d)
}

/// The least edit distance between `read` and any prefix of `window`
/// (`window[..e]` for some `e`, the rest of the window free), when it is
/// at most `band`; `None` otherwise. One banded pass, the last row of
/// [`banded_edit_distance`]'s band.
pub fn prefix_edit_distance(
    window: &(impl AsRef<[Base]> + ?Sized),
    read: &(impl AsRef<[Base]> + ?Sized),
    band: usize,
) -> Option<u32> {
    let (window, read) = (window.as_ref(), read.as_ref());
    let band = band.min(window.len().max(read.len()));
    last_row(window, read, band)?.into_iter().min()
}

/// The last row of the unit-cost DP of `read` (rows) against `window`
/// (columns), banded to `|i − j| ≤ band`: cell `k` of row `j` is the
/// distance between `read[..j]` and `window[..j + k − band]`, or more
/// than `band` (cells off the window are unreachable). `None` as soon as
/// a whole row exceeds `band`, since no later cell can come back under.
fn last_row(window: &[Base], read: &[Base], band: usize) -> Option<Vec<u32>> {
    // Unreachable; a path adds at most one a cell, so this cannot wrap.
    const FAR: u32 = u32::MAX / 2;
    let n = window.len();
    let mut row: Vec<u32> = (0..=2 * band)
        .map(|k| match k.checked_sub(band) {
            Some(i) if i <= n => i as u32,
            _ => FAR,
        })
        .collect();
    for (j, &base) in (1..).zip(read) {
        // In place: `row[k]` and `row[k + 1]` still hold row `j − 1`
        // (the diagonal and the cell above), `left` is row `j`'s `k − 1`.
        let (mut left, mut least) = (FAR, FAR);
        for k in 0..row.len() {
            let cell = match (j + k).checked_sub(band) {
                Some(0) => j as u32,
                Some(i) if i <= n => {
                    let diagonal = row[k] + u32::from(window[i - 1] != base);
                    let above = row.get(k + 1).map_or(FAR, |&d| d + 1);
                    diagonal.min(above).min(left + 1)
                }
                _ => FAR,
            };
            row[k] = cell;
            left = cell;
            least = least.min(cell);
        }
        if least as usize > band {
            return None;
        }
    }
    Some(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::DnaSeq;
    use proptest::prelude::*;

    fn seq(s: &str) -> DnaSeq {
        s.parse().unwrap()
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

    fn dna(ranks: &[u8]) -> DnaSeq {
        ranks.iter().map(|&r| Base::from_rank(r as usize)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
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
        fn prefix_edit_distance_is_the_least_over_prefixes(
            window in proptest::collection::vec(0u8..4, 0..40),
            read in proptest::collection::vec(0u8..4, 0..30),
            band in 0usize..=8,
        ) {
            let (window, read) = (dna(&window), dna(&read));
            let least = (0..=window.len())
                .map(|e| naive_edit_distance(&window.subseq(0..e), &read))
                .min()
                .unwrap();
            let expected = (least as usize <= band).then_some(least);
            prop_assert_eq!(prefix_edit_distance(&window, &read, band), expected);
        }
    }
}
