//! Seed-and-extend hybrid alignment (beyond-paper extension,
//! DESIGN.md §8).
//!
//! Backtracking explodes beyond the paper's `z ≤ 2`; reads with more
//! damage (long indels, many errors) are where real pipelines switch to
//! seed-and-extend. This module composes the two engines the paper
//! contrasts: the PIM platform's O(m) exact search locates short exact
//! seeds, and the O(n·m) dynamic-programming baseline verifies only the
//! tiny candidate windows those seeds nominate — the FM-index does the
//! search, the DP does the polish.

use bioseq::DnaSeq;
use swalign::{affine_local, Alignment, Scoring};

use crate::aligner::AlignSession;
use crate::exact::exact_search;

/// Configuration of the seed-and-extend stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedExtendConfig {
    /// Seed length (exact-match chunks of the read).
    pub seed_len: usize,
    /// Maximum positions examined per seed (repeat guard).
    pub max_candidates_per_seed: usize,
    /// Extra reference flank on each side of the candidate window.
    pub window_flank: usize,
    /// Scoring for the DP verification.
    pub scoring: Scoring,
    /// Minimum accepted score as a fraction of the perfect-match score.
    pub min_score_fraction: f64,
}

impl Default for SeedExtendConfig {
    fn default() -> Self {
        SeedExtendConfig {
            seed_len: 20,
            max_candidates_per_seed: 8,
            window_flank: 24,
            scoring: Scoring::new(2, -3, -4, -1),
            min_score_fraction: 0.55,
        }
    }
}

/// A verified hybrid alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HybridHit {
    /// Reference position the alignment starts at.
    pub ref_start: usize,
    /// DP score of the verification.
    pub score: i32,
    /// The full DP alignment (coordinates relative to the candidate
    /// window start = `ref_start` after normalisation).
    pub alignment: Alignment,
}

/// Runs seed-and-extend: platform-searched exact seeds, DP-verified
/// extension. Returns the best-scoring hit at or above the configured
/// score threshold.
///
/// Seed search runs on the simulated platform (its `LFM` work is charged
/// to the aligner's ledger like any other query); only the DP
/// verification runs host-side, mirroring how a deployed PIM would split
/// the work.
///
/// # Panics
///
/// Panics if `config.seed_len` is zero or exceeds the read length.
pub fn seed_and_extend(
    aligner: &mut AlignSession,
    read: &DnaSeq,
    config: SeedExtendConfig,
) -> Option<HybridHit> {
    assert!(config.seed_len > 0, "seed length must be positive");
    assert!(
        config.seed_len <= read.len(),
        "seed length exceeds the read"
    );
    let reference = aligner.reference().clone();
    // Non-overlapping seeds; with e errors, ≥ (#seeds − e) remain exact,
    // so any read with fewer errors than seeds yields a candidate.
    let seed_starts: Vec<usize> = (0..read.len() - config.seed_len + 1)
        .step_by(config.seed_len)
        .collect();
    let mut candidates: Vec<usize> = Vec::new();
    for &offset in &seed_starts {
        let seed = read.subseq(offset..offset + config.seed_len);
        let (interval, _) = {
            let (mapped, injector, dpu, ledger) = aligner.platform_parts();
            exact_search(mapped, injector, dpu, &seed, None, ledger)
        };
        if interval.is_empty() || interval.count() as usize > config.max_candidates_per_seed {
            continue;
        }
        let positions = {
            let (mapped, _, _, ledger) = aligner.platform_parts();
            mapped.locate(interval, ledger)
        };
        for p in positions {
            // Candidate window start implied by the seed's read offset.
            candidates.push(p.saturating_sub(offset));
        }
    }
    candidates.sort_unstable();
    candidates.dedup();

    let mut best: Option<HybridHit> = None;
    let perfect = read.len() as i32 * config.scoring.match_score as i32;
    let threshold = (perfect as f64 * config.min_score_fraction) as i32;
    for start in candidates {
        let window_start = start.saturating_sub(config.window_flank);
        let window_end = (start + read.len() + config.window_flank).min(reference.len());
        if window_end <= window_start {
            continue;
        }
        let window = reference.subseq(window_start..window_end);
        let alignment = affine_local(&window, read, config.scoring);
        if alignment.score < threshold {
            continue;
        }
        let hit = HybridHit {
            ref_start: window_start + alignment.ref_start,
            score: alignment.score,
            alignment,
        };
        if best.as_ref().is_none_or(|b| hit.score > b.score) {
            best = Some(hit);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aligner::AlignmentOutcome;
    use crate::config::PimAlignerConfig;
    use bioseq::Base;
    use readsim::genome;

    fn damage(read: &DnaSeq, subs: &[usize]) -> DnaSeq {
        let mut bases = read.clone().into_bases();
        for &p in subs {
            bases[p] = Base::from_rank((bases[p].rank() + 1) % 4);
        }
        DnaSeq::from_bases(bases)
    }

    #[test]
    fn recovers_read_beyond_backtracking_budget() {
        let reference = genome::uniform(40_000, 301);
        let mut aligner =
            AlignSession::new(&reference, PimAlignerConfig::baseline().with_max_diffs(2));
        // Five substitutions: far beyond z = 2 (the seed at offset 60
        // stays clean, so seeding still succeeds).
        let read = damage(&reference.subseq(9_000..9_100), &[5, 25, 45, 88, 92]);
        assert_eq!(
            aligner.align_read(&read),
            AlignmentOutcome::Unmapped,
            "z=2 backtracking must give up"
        );
        let hit = seed_and_extend(&mut aligner, &read, SeedExtendConfig::default())
            .expect("hybrid must recover the read");
        assert_eq!(hit.ref_start, 9_000);
    }

    #[test]
    fn recovers_long_deletion() {
        let reference = genome::uniform(30_000, 302);
        let mut aligner = AlignSession::new(&reference, PimAlignerConfig::baseline());
        // Delete 6 bases from the middle of a 100-bp template.
        let mut bases = reference.subseq(5_000..5_100).into_bases();
        bases.drain(50..56);
        let read = DnaSeq::from_bases(bases);
        let hit = seed_and_extend(&mut aligner, &read, SeedExtendConfig::default())
            .expect("hybrid must bridge a 6-bp deletion");
        assert!(
            hit.ref_start.abs_diff(5_000) <= 2,
            "start {}",
            hit.ref_start
        );
        assert!(hit.alignment.cigar.indel_count() >= 6);
    }

    #[test]
    fn clean_read_scores_perfect() {
        let reference = genome::uniform(10_000, 303);
        let mut aligner = AlignSession::new(&reference, PimAlignerConfig::baseline());
        let read = reference.subseq(2_000..2_080);
        let config = SeedExtendConfig::default();
        let hit = seed_and_extend(&mut aligner, &read, config).expect("clean read");
        assert_eq!(hit.ref_start, 2_000);
        assert_eq!(
            hit.score,
            read.len() as i32 * config.scoring.match_score as i32
        );
    }

    #[test]
    fn hopeless_read_returns_none() {
        let reference = genome::uniform(10_000, 304);
        let mut aligner = AlignSession::new(&reference, PimAlignerConfig::baseline());
        let junk: DnaSeq = "ACGT".repeat(25).parse().unwrap();
        // Periodic junk may seed somewhere, but the DP threshold rejects.
        let hit = seed_and_extend(&mut aligner, &junk, SeedExtendConfig::default());
        assert!(hit.is_none());
    }

    #[test]
    #[should_panic(expected = "seed length exceeds")]
    fn oversized_seed_rejected() {
        let reference = genome::uniform(1_000, 305);
        let mut aligner = AlignSession::new(&reference, PimAlignerConfig::baseline());
        let read = reference.subseq(0..10);
        let _ = seed_and_extend(
            &mut aligner,
            &read,
            SeedExtendConfig {
                seed_len: 50,
                ..Default::default()
            },
        );
    }
}
