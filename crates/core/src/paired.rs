//! Paired-end alignment on the platform (beyond-paper extension,
//! DESIGN.md §8).
//!
//! Both mates are aligned independently through the normal two-stage
//! pipeline; the pairing logic then searches the position sets for a
//! combination with proper orientation (mates on opposite strands,
//! facing inward) and an insert length within the caller's window. With
//! repeats, independent mates are ambiguous; pairing disambiguates —
//! the reason real pipelines sequence both fragment ends.

use bioseq::DnaSeq;

use crate::aligner::{AlignSession, MappedStrand};

/// Constraints for proper pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairConstraints {
    /// Minimum accepted fragment (outer insert) length.
    pub min_insert: usize,
    /// Maximum accepted fragment length.
    pub max_insert: usize,
}

impl PairConstraints {
    /// Creates constraints.
    ///
    /// # Panics
    ///
    /// Panics if `min_insert > max_insert` or `min_insert == 0`.
    pub fn new(min_insert: usize, max_insert: usize) -> PairConstraints {
        assert!(min_insert > 0, "minimum insert must be positive");
        assert!(min_insert <= max_insert, "insert window inverted");
        PairConstraints {
            min_insert,
            max_insert,
        }
    }
}

/// The outcome of aligning one read pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PairOutcome {
    /// Both mates mapped with proper orientation and insert length.
    ProperPair {
        /// Fragment start (position of the leftmost mate).
        fragment_start: usize,
        /// Fragment (outer insert) length.
        fragment_len: usize,
        /// Which input read mapped forward.
        forward_mate: Mate,
    },
    /// Both mates mapped but no combination satisfied the constraints.
    Discordant {
        /// Positions of read 1 (on its mapped strand).
        r1_positions: Vec<usize>,
        /// Positions of read 2 (on its mapped strand).
        r2_positions: Vec<usize>,
    },
    /// Exactly one mate mapped.
    SingleEnd {
        /// Which mate mapped.
        mapped: Mate,
        /// Its positions.
        positions: Vec<usize>,
    },
    /// Neither mate mapped.
    Unmapped,
}

/// Identifies a mate within a pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mate {
    /// Read 1.
    R1,
    /// Read 2.
    R2,
}

impl PairOutcome {
    /// `true` for a properly paired alignment.
    pub fn is_proper(&self) -> bool {
        matches!(self, PairOutcome::ProperPair { .. })
    }
}

/// Aligns a read pair: each mate against both strands, then pairing.
///
/// Illumina FR chemistry puts the mates on opposite strands facing
/// inward, so a proper combination is `(forward R1 at p1, reverse R2 at
/// p2)` with `p1 ≤ p2` and `p2 + len(R2) − p1` inside the insert window —
/// or the mirror image with R2 forward. Among valid combinations the
/// smallest fragment is reported (the most probable under any unimodal
/// insert distribution).
pub fn align_pair(
    aligner: &mut AlignSession,
    r1: &DnaSeq,
    r2: &DnaSeq,
    constraints: PairConstraints,
) -> PairOutcome {
    let (o1, s1) = aligner.align_read_both_strands(r1);
    let (o2, s2) = aligner.align_read_both_strands(r2);
    match (o1.positions(), o2.positions()) {
        (None, None) => PairOutcome::Unmapped,
        (Some(p), None) => PairOutcome::SingleEnd {
            mapped: Mate::R1,
            positions: p.to_vec(),
        },
        (None, Some(p)) => PairOutcome::SingleEnd {
            mapped: Mate::R2,
            positions: p.to_vec(),
        },
        (Some(p1), Some(p2)) => {
            let best = match (s1, s2) {
                (MappedStrand::Forward, MappedStrand::Reverse) => {
                    best_fragment(p1, r1.len(), p2, r2.len(), constraints).map(|f| (f, Mate::R1))
                }
                (MappedStrand::Reverse, MappedStrand::Forward) => {
                    best_fragment(p2, r2.len(), p1, r1.len(), constraints).map(|f| (f, Mate::R2))
                }
                // Same-strand mappings are never proper in FR chemistry.
                _ => None,
            };
            match best {
                Some(((start, len), forward_mate)) => PairOutcome::ProperPair {
                    fragment_start: start,
                    fragment_len: len,
                    forward_mate,
                },
                None => PairOutcome::Discordant {
                    r1_positions: p1.to_vec(),
                    r2_positions: p2.to_vec(),
                },
            }
        }
    }
}

/// Finds the smallest valid fragment `(start, len)` with the forward mate
/// at `fwd` positions and the reverse mate at `rev` positions. Position
/// lists are sorted, so a merge-style scan keeps this near-linear.
fn best_fragment(
    fwd: &[usize],
    _fwd_len: usize,
    rev: &[usize],
    rev_len: usize,
    constraints: PairConstraints,
) -> Option<(usize, usize)> {
    let mut best: Option<(usize, usize)> = None;
    for &p1 in fwd {
        for &p2 in rev {
            let Some(end) = p2.checked_add(rev_len) else {
                continue;
            };
            if end <= p1 {
                continue;
            }
            let len = end - p1;
            if len < constraints.min_insert || len > constraints.max_insert {
                continue;
            }
            if best.is_none_or(|(_, bl)| len < bl) {
                best = Some((p1, len));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PimAlignerConfig;
    use readsim::genome;
    use readsim::paired::{simulate_pairs, InsertProfile};
    use readsim::SimProfile;

    fn constraints() -> PairConstraints {
        PairConstraints::new(100, 700)
    }

    #[test]
    fn clean_pairs_align_properly_with_correct_fragment() {
        let reference = genome::uniform(30_000, 201);
        let profile = SimProfile::paper_defaults()
            .read_count(25)
            .read_len(60)
            .error_rate(0.0)
            .variants(readsim::variant::VariantProfile {
                rate: 0.0,
                ..Default::default()
            });
        let sim = simulate_pairs(&reference, profile, InsertProfile::default(), 202);
        let mut aligner = AlignSession::new(&reference, PimAlignerConfig::baseline());
        for pair in &sim.pairs {
            let outcome = align_pair(&mut aligner, &pair.r1, &pair.r2, constraints());
            match outcome {
                PairOutcome::ProperPair {
                    fragment_start,
                    fragment_len,
                    forward_mate,
                } => {
                    assert_eq!(fragment_start, pair.fragment_start, "{}", pair.id);
                    assert_eq!(fragment_len, pair.fragment_len, "{}", pair.id);
                    assert_eq!(forward_mate, Mate::R1);
                }
                other => panic!("{} should pair properly, got {other:?}", pair.id),
            }
        }
    }

    #[test]
    fn pairing_disambiguates_repeats() {
        // Reference = unique prefix + repeat + unique middle + the same
        // repeat + unique tail. A read inside the repeat is ambiguous
        // alone but pairs uniquely with a mate in the unique middle.
        let repeat = genome::uniform(200, 203);
        let prefix = genome::uniform(300, 204);
        let middle = genome::uniform(300, 205);
        let tail = genome::uniform(300, 206);
        let mut reference = prefix.clone();
        reference.extend(repeat.iter().copied());
        reference.extend(middle.iter().copied());
        reference.extend(repeat.iter().copied());
        reference.extend(tail.iter().copied());

        let mut aligner = AlignSession::new(&reference, PimAlignerConfig::baseline());
        // R1 inside the first repeat copy (ambiguous: two positions).
        let r1_start = 300 + 50;
        let r1 = reference.subseq(r1_start..r1_start + 60);
        assert_eq!(
            aligner.align_read(&r1).positions().map(<[usize]>::len),
            Some(2),
            "repeat read must be ambiguous alone"
        );
        // R2 from the unique middle, reverse-complemented, such that the
        // fragment spans repeat-copy-1 into the middle.
        let fragment_end = 300 + 200 + 150;
        let r2 = reference
            .subseq(fragment_end - 60..fragment_end)
            .reverse_complement();
        let outcome = align_pair(&mut aligner, &r1, &r2, PairConstraints::new(100, 500));
        match outcome {
            PairOutcome::ProperPair { fragment_start, .. } => {
                assert_eq!(fragment_start, r1_start, "pairing must pick repeat copy 1")
            }
            other => panic!("expected proper pair, got {other:?}"),
        }
    }

    #[test]
    fn unpairable_combinations_are_classified() {
        let reference = genome::uniform(10_000, 207);
        let mut aligner =
            AlignSession::new(&reference, PimAlignerConfig::baseline().with_max_diffs(0));
        let r1 = reference.subseq(1_000..1_060);
        // Both mates forward and far apart: discordant.
        let r2_same_strand = reference.subseq(9_000..9_060);
        let out = align_pair(&mut aligner, &r1, &r2_same_strand, constraints());
        assert!(matches!(out, PairOutcome::Discordant { .. }), "{out:?}");
        // Unmappable mate: single-end.
        let junk: DnaSeq = "G".repeat(60).parse().unwrap();
        let out = align_pair(&mut aligner, &r1, &junk, constraints());
        assert!(
            matches!(
                out,
                PairOutcome::SingleEnd {
                    mapped: Mate::R1,
                    ..
                }
            ),
            "{out:?}"
        );
        // Both junk: unmapped.
        let out = align_pair(&mut aligner, &junk, &junk, constraints());
        assert_eq!(out, PairOutcome::Unmapped);
    }

    #[test]
    #[should_panic(expected = "window inverted")]
    fn inverted_constraints_rejected() {
        let _ = PairConstraints::new(500, 100);
    }
}
