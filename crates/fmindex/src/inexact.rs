//! Inexact alignment with bounded backtracking (paper §III, Algorithm 2).
//!
//! "Inexact matching searches for intervals-I that match R with no more
//! than z differences … we should consider all possible alignments when
//! updating the intervals I", taking the union over match, mismatch and
//! (optionally) insertion/deletion branches. The recursion reuses the same
//! `LFM` procedure as exact search, which is what makes it directly
//! PIM-acceleratable.

use std::collections::HashMap;

#[cfg(test)]
use bioseq::PackedSeq;
use bioseq::{Base, DnaSeq};

use crate::bwt::Bwt;
use crate::search::{backward_step, SaInterval};
use crate::tables::MarkerTable;

/// The edit budget for inexact search: up to `max_diffs` differences,
/// optionally including insertions/deletions ("the DNA short read is
/// permuted using edit operations (substitutions, insertions or
/// deletions)").
///
/// # Examples
///
/// ```
/// use fmindex::EditBudget;
///
/// let z1 = EditBudget::substitutions_only(1);
/// assert_eq!(z1.max_diffs(), 1);
/// assert!(!z1.allows_indels());
///
/// let full = EditBudget::edits(2);
/// assert!(full.allows_indels());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EditBudget {
    max_diffs: u8,
    allow_indels: bool,
}

impl EditBudget {
    /// Largest supported difference budget. The paper evaluates `z ≤ 2`
    /// ("reads with ≤ 2 mismatches"); larger budgets explode the
    /// backtracking tree, so we cap at 8.
    pub const MAX_DIFFS: u8 = 8;

    /// A budget of `z` substitutions, no indels.
    ///
    /// # Panics
    ///
    /// Panics if `z > Self::MAX_DIFFS`.
    pub fn substitutions_only(z: u8) -> EditBudget {
        assert!(z <= Self::MAX_DIFFS, "difference budget too large");
        EditBudget {
            max_diffs: z,
            allow_indels: false,
        }
    }

    /// A budget of `z` edits (substitutions, insertions and deletions).
    ///
    /// # Panics
    ///
    /// Panics if `z > Self::MAX_DIFFS`.
    pub fn edits(z: u8) -> EditBudget {
        assert!(z <= Self::MAX_DIFFS, "difference budget too large");
        EditBudget {
            max_diffs: z,
            allow_indels: true,
        }
    }

    /// The maximum number of differences `z`.
    pub fn max_diffs(&self) -> u8 {
        self.max_diffs
    }

    /// Whether insertions/deletions are allowed.
    pub fn allows_indels(&self) -> bool {
        self.allow_indels
    }
}

/// One inexact hit: a non-empty SA interval and the number of differences
/// consumed on the cheapest path that reached it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InexactHit {
    /// The matching SA interval.
    pub interval: SaInterval,
    /// Differences used (0 means the read matched exactly).
    pub diffs: u8,
}

/// Runs Algorithm 2: finds all SA intervals matching `read` with at most
/// `budget.max_diffs()` differences.
///
/// Hits are deduplicated by interval, keeping the minimum difference
/// count, and returned sorted by `(diffs, interval)` so exact hits come
/// first. An exact match therefore appears as a hit with `diffs == 0`.
pub fn search_inexact(
    mt: &MarkerTable,
    bwt: &Bwt,
    read: &DnaSeq,
    budget: EditBudget,
) -> Vec<InexactHit> {
    let mut best: HashMap<SaInterval, u8> = HashMap::new();
    let start = SaInterval::full(bwt.len());
    recur(
        mt,
        bwt,
        read,
        budget,
        read.len() as isize - 1,
        budget.max_diffs() as i16,
        start,
        &mut best,
    );
    let mut hits: Vec<InexactHit> = best
        .into_iter()
        .map(|(interval, diffs)| InexactHit { interval, diffs })
        .collect();
    hits.sort_by_key(|h| (h.diffs, h.interval));
    hits
}

#[allow(clippy::too_many_arguments)]
fn recur(
    mt: &MarkerTable,
    bwt: &Bwt,
    read: &DnaSeq,
    budget: EditBudget,
    i: isize,
    z: i16,
    interval: SaInterval,
    best: &mut HashMap<SaInterval, u8>,
) {
    if z < 0 {
        return; // Algorithm 2 line 6: tolerance exhausted
    }
    if i < 0 {
        // Whole read consumed: report the interval (Algorithm 2 line 4).
        let diffs = budget.max_diffs() - z as u8;
        best.entry(interval)
            .and_modify(|d| *d = (*d).min(diffs))
            .or_insert(diffs);
        return;
    }
    // Insertion in the read (extra read base not present in the
    // reference): skip read[i] without moving the interval.
    if budget.allows_indels() {
        recur(mt, bwt, read, budget, i - 1, z - 1, interval, best);
    }
    let current = read[i as usize];
    for b in Base::ALL {
        let next = backward_step(mt, bwt, b, interval);
        if next.is_empty() {
            continue;
        }
        if budget.allows_indels() {
            // Deletion from the read (reference base consumed, read index
            // unchanged).
            recur(mt, bwt, read, budget, i, z - 1, next, best);
        }
        if b == current {
            // Match (Algorithm 2 line 16): no cost.
            recur(mt, bwt, read, budget, i - 1, z, next, best);
        } else {
            // Mismatch (Algorithm 2 line 18): one difference.
            recur(mt, bwt, read, budget, i - 1, z - 1, next, best);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sa::suffix_array;
    use crate::tables::{CountTable, SampledOcc};
    use crate::text::Text;
    use proptest::prelude::*;

    fn index(s: &str, d: usize) -> (Vec<u32>, Bwt, MarkerTable) {
        let reference: PackedSeq = s.parse().unwrap();
        let t = Text::from_reference(&reference);
        let sa = suffix_array(&t);
        let bwt = Bwt::from_sa(&t, &sa);
        let count = CountTable::from_bwt(&bwt);
        let mt = MarkerTable::new(&count, &SampledOcc::from_bwt(&bwt, d));
        (sa, bwt, mt)
    }

    fn positions(sa: &[u32], hits: &[InexactHit]) -> Vec<usize> {
        let mut p: Vec<usize> = hits
            .iter()
            .flat_map(|h| h.interval.rows().map(|r| sa[r] as usize))
            .collect();
        p.sort_unstable();
        p.dedup();
        p
    }

    #[test]
    fn exact_read_is_zero_diff_hit() {
        let (sa, bwt, mt) = index("TGCTA", 2);
        let read: DnaSeq = "CTA".parse().unwrap();
        let hits = search_inexact(&mt, &bwt, &read, EditBudget::substitutions_only(1));
        assert_eq!(hits[0].diffs, 0);
        assert!(positions(&sa, &hits[..1]).contains(&2));
    }

    #[test]
    fn single_substitution_recovered() {
        // Reference GATTACA; read GATGACA differs at position 3 (T→G).
        let (sa, bwt, mt) = index("GATTACA", 2);
        let read: DnaSeq = "GATGACA".parse().unwrap();
        assert!(search_inexact(&mt, &bwt, &read, EditBudget::substitutions_only(0)).is_empty());
        let hits = search_inexact(&mt, &bwt, &read, EditBudget::substitutions_only(1));
        assert!(!hits.is_empty());
        assert_eq!(positions(&sa, &hits), vec![0]);
        assert_eq!(hits[0].diffs, 1);
    }

    #[test]
    fn two_substitutions_need_z2() {
        let (_, bwt, mt) = index("GATTACAGATTACA", 4);
        let read: DnaSeq = "GCTTACG".parse().unwrap(); // two subs vs GATTACA prefix
        assert!(search_inexact(&mt, &bwt, &read, EditBudget::substitutions_only(1)).is_empty());
        let hits = search_inexact(&mt, &bwt, &read, EditBudget::substitutions_only(2));
        assert!(!hits.is_empty());
        assert_eq!(hits[0].diffs, 2);
    }

    #[test]
    fn deletion_from_read_recovered_with_indels() {
        // Reference GATTACA; read GATACA lacks one T.
        let (sa, bwt, mt) = index("GATTACA", 2);
        let read: DnaSeq = "GATACA".parse().unwrap();
        let hits = search_inexact(&mt, &bwt, &read, EditBudget::edits(1));
        assert!(positions(&sa, &hits).contains(&0));
    }

    #[test]
    fn insertion_in_read_recovered_with_indels() {
        // Reference GATACA; read GATTACA has an extra T.
        let (sa, bwt, mt) = index("GATACA", 2);
        let read: DnaSeq = "GATTACA".parse().unwrap();
        let hits = search_inexact(&mt, &bwt, &read, EditBudget::edits(1));
        assert!(positions(&sa, &hits).contains(&0));
    }

    #[test]
    fn substitutions_only_budget_rejects_indel_variant() {
        let (_, bwt, mt) = index("GATTACA", 2);
        let read: DnaSeq = "GATACA".parse().unwrap(); // needs a deletion
        let subs = search_inexact(&mt, &bwt, &read, EditBudget::substitutions_only(1));
        // No 1-substitution alignment of GATACA into GATTACA exists at
        // full read length.
        assert!(subs.iter().all(|h| h.diffs > 0));
        assert!(subs.is_empty());
    }

    #[test]
    fn hits_sorted_exact_first() {
        let (_, bwt, mt) = index("ACGTACGTACGT", 3);
        let read: DnaSeq = "ACGT".parse().unwrap();
        let hits = search_inexact(&mt, &bwt, &read, EditBudget::substitutions_only(1));
        assert!(!hits.is_empty());
        for w in hits.windows(2) {
            assert!(w[0].diffs <= w[1].diffs);
        }
        assert_eq!(hits[0].diffs, 0);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_budget_panics() {
        let _ = EditBudget::edits(9);
    }

    /// Brute-force oracle for substitution-only matching: positions where
    /// the read aligns with Hamming distance ≤ z.
    fn hamming_positions(reference: &PackedSeq, read: &DnaSeq, z: usize) -> Vec<usize> {
        if read.is_empty() || read.len() > reference.len() {
            return Vec::new();
        }
        (0..=reference.len() - read.len())
            .filter(|&i| {
                (0..read.len())
                    .filter(|&j| reference.get(i + j) != Some(read[j]))
                    .count()
                    <= z
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn substitution_search_matches_hamming_oracle(
            ref_bases in proptest::collection::vec(0u8..4, 4..80),
            read_bases in proptest::collection::vec(0u8..4, 3..8),
            z in 0u8..3,
        ) {
            let reference: PackedSeq = ref_bases.iter().map(|&r| Base::from_rank(r as usize)).collect();
            let read: DnaSeq = read_bases.iter().map(|&r| Base::from_rank(r as usize)).collect();
            let t = Text::from_reference(&reference);
            let sa = suffix_array(&t);
            let bwt = Bwt::from_sa(&t, &sa);
            let count = CountTable::from_bwt(&bwt);
            let mt = MarkerTable::new(&count, &SampledOcc::from_bwt(&bwt, 5));
            let hits = search_inexact(&mt, &bwt, &read, EditBudget::substitutions_only(z));
            let found = positions(&sa, &hits);
            // Positions past reference.len()-read.len() can appear when the
            // match runs into the sentinel; filter to valid starts.
            let found: Vec<usize> = found
                .into_iter()
                .filter(|&p| p + read.len() <= reference.len())
                .collect();
            prop_assert_eq!(found, hamming_positions(&reference, &read, z as usize));
        }
    }
}
