//! Online verification of candidate loci against the reference
//! (DESIGN.md §8).
//!
//! Under fault injection the platform's `LFM` chain can silently corrupt
//! an interval and report a wrong locus. Before a position is emitted,
//! the verifier re-checks it against the reference held by the host:
//! direct substring comparison for exact hits, Hamming distance for
//! substitution-only budgets, and one banded `swalign` edit-distance
//! pass over the window when indels are allowed. In a deployed PIM this
//! is the cheap host-side read-back the paper's controller already
//! performs for SA lookups.

use bioseq::{Base, DnaSeq, PackedSeq};
use swalign::prefix_edit_distance;

/// `true` when `read` occurs verbatim at `pos`. `window` is scratch: it
/// receives the reference bases compared, unpacked.
pub fn verify_exact(
    reference: &PackedSeq,
    read: &DnaSeq,
    pos: usize,
    window: &mut Vec<Base>,
) -> bool {
    if pos + read.len() > reference.len() {
        return false;
    }
    reference.unpack_into(pos..pos + read.len(), window);
    window[..] == *read.as_slice()
}

/// `true` when `read` aligns at `pos` with at most `max_diffs`
/// differences — Hamming distance when `allow_indels` is `false`, edit
/// distance to the reference from `pos`, its end free (one banded
/// [`prefix_edit_distance`] pass), when it is `true`. `window` is scratch:
/// it receives the at most `read.len() + max_diffs` reference bases
/// compared, unpacked.
pub fn verify_inexact(
    reference: &PackedSeq,
    read: &DnaSeq,
    pos: usize,
    max_diffs: u8,
    allow_indels: bool,
    window: &mut Vec<Base>,
) -> bool {
    if pos >= reference.len() || read.is_empty() {
        return false;
    }
    let z = max_diffs as usize;
    if !allow_indels {
        if pos + read.len() > reference.len() {
            return false;
        }
        reference.unpack_into(pos..pos + read.len(), window);
        let hamming = window
            .iter()
            .zip(read.iter())
            .filter(|(a, b)| a != b)
            .count();
        return hamming <= z;
    }
    // With indels the reference span may be read.len() ± z; accept the
    // position when the read aligns within the budget to any prefix of
    // the longest span.
    let span = (read.len() + z).min(reference.len() - pos);
    reference.unpack_into(pos..pos + span, window);
    prefix_edit_distance(window.as_slice(), read, z).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmindex::EditBudget;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use swalign::banded_edit_distance;

    fn seq(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    fn exact(reference: &str, read: &str, pos: usize) -> bool {
        verify_exact(
            &reference.parse().unwrap(),
            &seq(read),
            pos,
            &mut Vec::new(),
        )
    }

    fn inexact(reference: &str, read: &str, pos: usize, diffs: u8, indels: bool) -> bool {
        let reference = reference.parse().unwrap();
        verify_inexact(&reference, &seq(read), pos, diffs, indels, &mut Vec::new())
    }

    #[test]
    fn exact_verification_is_substring_equality() {
        let reference = "TGCTAGGA";
        assert!(exact(reference, "CTA", 2));
        assert!(!exact(reference, "CTA", 3));
        assert!(exact(reference, "GGA", 5));
        assert!(!exact(reference, "GGA", 6)); // past the end
        assert!(!exact(reference, "GGAT", 5)); // past the end
    }

    #[test]
    fn substitution_verification_counts_hamming() {
        let reference = "ACGTACGT";
        assert!(inexact(reference, "ACGG", 0, 1, false));
        assert!(!inexact(reference, "AGGG", 0, 1, false));
        assert!(inexact(reference, "AGGG", 0, 2, false));
    }

    #[test]
    fn indel_verification_accepts_shifted_spans() {
        // Read is the reference with the double-T collapsed: one deletion.
        assert!(inexact("ACGTTACGT", "ACGTACGT", 0, 1, true));
        assert!(!inexact("ACGTTACGT", "ACGTACGT", 0, 0, true));
        // An insertion relative to the reference also verifies.
        assert!(inexact("ACGTACGT", "ACGGTACGT", 0, 1, true));
    }

    #[test]
    fn out_of_range_positions_fail_closed() {
        assert!(!exact("ACGT", "ACGT", 1));
        assert!(!inexact("ACGT", "ACGT", 4, 2, true));
        assert!(!inexact("ACGT", "", 0, 2, true));
    }

    /// Hits at the first and the last place a read fits, with up to `z`
    /// bases cut off or put on at either end: the window unpacked from
    /// the 2-bit reference decides as spans copied a base a byte do.
    #[test]
    fn windows_at_both_ends_decide_as_a_byte_a_base_reference() {
        let reference = readsim::genome::uniform(1_000, 77);
        let (packed, n, len) = (reference.to_packed(), reference.len(), 60);
        let span = |from: usize, to: usize| reference.subseq(from..to.min(n));
        let window = &mut Vec::new();
        for z in 0u8..=3 {
            let k = usize::from(z);
            for pos in [0, n - len] {
                let cut = |from: usize, to: usize| span(pos + from, pos + len - to);
                let grown = span(pos.saturating_sub(k), pos + len + k);
                for read in [cut(0, 0), cut(k, 0), cut(0, k), grown] {
                    for at in [pos.saturating_sub(1), pos, pos + 1] {
                        let fits = |s: usize| at + s <= n;
                        let copy = || span(at, at + read.len());
                        let exact = fits(read.len()) && copy() == read;
                        let hamming = fits(read.len()) && copy().hamming_distance(&read) <= k;
                        let edit = (read.len().saturating_sub(k).max(1)..=read.len() + k)
                            .take_while(|&s| fits(s))
                            .any(|s| banded_edit_distance(&span(at, at + s), &read, k).is_some());
                        let case = format!("z {z} at {at} read {read}");
                        assert_eq!(verify_exact(&packed, &read, at, window), exact, "{case}");
                        let substitutions = verify_inexact(&packed, &read, at, z, false, window);
                        assert_eq!(substitutions, hamming, "{case}");
                        let edits = verify_inexact(&packed, &read, at, z, true, window);
                        assert_eq!(edits, edit && at < n, "{case}");
                    }
                }
            }
        }
    }

    /// An error-free read checked one base right of its truth: the
    /// window's end is free, so one insertion (the read's first base)
    /// aligns it. This is the anchored start a movable one will change.
    #[test]
    fn a_start_one_base_right_of_the_truth_costs_one_insertion() {
        let reference = readsim::genome::uniform(1_000, 91);
        let read = reference.subseq(200..300);
        let packed = reference.to_packed();
        let verify = |diffs| verify_inexact(&packed, &read, 201, diffs, true, &mut Vec::new());
        assert!(verify(1));
        assert!(!verify(0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]
        /// One prefix pass decides as the span-by-span rule it replaced
        /// did: accept when some span from `len − z` to `len + z` bases
        /// at `pos` is within `z` edits of the read.
        #[test]
        fn one_prefix_pass_decides_as_every_span_did(
            seed in any::<u64>(),
            reference_len in 1usize..=400,
            read_len in 1usize..=256,
            edits in 0usize..=10,
            z in 0u8..=EditBudget::MAX_DIFFS,
            place in 0u8..3,
            shift in 0usize..=4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let reference: DnaSeq = (0..reference_len)
                .map(|_| Base::from_rank(rng.gen_range(0..4)))
                .collect();
            let n = reference.len();
            let len = read_len.min(n);
            let locus = match place {
                0 => 0,
                1 => n - len,
                _ => rng.gen_range(0..=n - len),
            };
            let mut bases = reference.subseq(locus..locus + len).into_bases();
            for _ in 0..edits {
                let at = rng.gen_range(0..bases.len());
                let base = Base::from_rank(rng.gen_range(0..4));
                match rng.gen_range(0..3) {
                    0 => bases[at] = base,
                    1 => bases.insert(at, base),
                    _ if bases.len() > 1 => drop(bases.remove(at)),
                    _ => {}
                }
            }
            let read = DnaSeq::from_bases(bases);
            let pos = (locus + shift).saturating_sub(2);
            let k = usize::from(z);
            let anchored = pos < n && {
                let min_span = read.len().saturating_sub(k).max(1);
                let max_span = (read.len() + k).min(n - pos);
                let w = reference.subseq(pos..pos + max_span);
                (min_span..=max_span)
                    .any(|s| banded_edit_distance(&w.as_slice()[..s], &read, k).is_some())
            };
            let packed = reference.to_packed();
            let verified = verify_inexact(&packed, &read, pos, z, true, &mut Vec::new());
            prop_assert_eq!(verified, anchored);
        }
    }
}
