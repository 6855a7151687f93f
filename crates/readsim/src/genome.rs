//! Synthetic reference-genome generation.
//!
//! Substitutes for Hg19 (DESIGN.md §2): backward-search cost is O(m) per
//! read independent of genome content, but *mappability* is not — repeats
//! produce multi-hit intervals exactly as the human genome's repetitive
//! fraction does. Two generators cover both regimes.

use bioseq::{Base, DnaSeq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a uniform-random genome of `len` bases.
///
/// # Examples
///
/// ```
/// let g = readsim::genome::uniform(1000, 1);
/// assert_eq!(g.len(), 1000);
/// // Deterministic per seed:
/// assert_eq!(g, readsim::genome::uniform(1000, 1));
/// assert_ne!(g, readsim::genome::uniform(1000, 2));
/// ```
pub fn uniform(len: usize, seed: u64) -> DnaSeq {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| Base::from_rank(rng.gen_range(0..4)))
        .collect()
}

/// Configuration for [`repeat_rich`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepeatProfile {
    /// Fraction of the genome covered by repeat copies (0.0 ..= 0.9).
    pub repeat_fraction: f64,
    /// Length of each repeat unit in bases.
    pub unit_len: usize,
    /// Number of distinct repeat families.
    pub families: usize,
    /// Per-base divergence applied to each repeat copy (models ancient
    /// repeats; 0.0 = identical copies).
    pub divergence: f64,
}

impl Default for RepeatProfile {
    /// Roughly human-like: ~45 % repeats, 300 bp units, 20 families, 5 %
    /// divergence.
    fn default() -> Self {
        RepeatProfile {
            repeat_fraction: 0.45,
            unit_len: 300,
            families: 20,
            divergence: 0.05,
        }
    }
}

/// Generates a repeat-rich genome: unique random sequence interleaved with
/// diverged copies of a small set of repeat units.
///
/// # Panics
///
/// Panics if `repeat_fraction` is outside `[0, 0.9]`, `unit_len` is zero,
/// or `families` is zero.
///
/// # Examples
///
/// ```
/// use readsim::genome::{repeat_rich, RepeatProfile};
///
/// let g = repeat_rich(20_000, RepeatProfile::default(), 3);
/// assert_eq!(g.len(), 20_000);
/// ```
pub fn repeat_rich(len: usize, profile: RepeatProfile, seed: u64) -> DnaSeq {
    assert!(
        (0.0..=0.9).contains(&profile.repeat_fraction),
        "repeat fraction must be within [0, 0.9]"
    );
    assert!(profile.unit_len > 0, "repeat unit length must be positive");
    assert!(profile.families > 0, "at least one repeat family required");
    let mut rng = StdRng::seed_from_u64(seed);
    let units: Vec<DnaSeq> = (0..profile.families)
        .map(|_| {
            (0..profile.unit_len)
                .map(|_| Base::from_rank(rng.gen_range(0..4)))
                .collect()
        })
        .collect();
    let mut out = DnaSeq::with_capacity(len);
    while out.len() < len {
        if rng.gen_bool(profile.repeat_fraction) {
            let unit = &units[rng.gen_range(0..units.len())];
            for &b in unit.iter().take(len - out.len()) {
                if rng.gen_bool(profile.divergence) {
                    // Diverged copy: substitute with a different base.
                    let shift = rng.gen_range(1..4usize);
                    out.push(Base::from_rank((b.rank() + shift) % 4));
                } else {
                    out.push(b);
                }
            }
        } else {
            let run = profile.unit_len.min(len - out.len());
            for _ in 0..run {
                out.push(Base::from_rank(rng.gen_range(0..4)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn uniform_has_requested_length_and_rough_composition() {
        let g = uniform(40_000, 11);
        assert_eq!(g.len(), 40_000);
        let mut counts = [0usize; 4];
        for b in g.iter() {
            counts[b.rank()] += 1;
        }
        for &c in &counts {
            // Each base ≈ 25 % ± 3 %.
            assert!(
                (c as f64 / 40_000.0 - 0.25).abs() < 0.03,
                "skewed {counts:?}"
            );
        }
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        assert_eq!(uniform(500, 3), uniform(500, 3));
        assert_ne!(uniform(500, 3), uniform(500, 4));
    }

    #[test]
    fn repeat_rich_repeats_more_kmers_than_uniform() {
        let len = 30_000;
        let profile = RepeatProfile {
            divergence: 0.0,
            ..RepeatProfile::default()
        };
        let repetitive = repeat_rich(len, profile, 5);
        let random = uniform(len, 5);
        let dup_fraction = |g: &DnaSeq| {
            let mut seen: HashMap<&[Base], usize> = HashMap::new();
            for k in g.as_slice().windows(21) {
                *seen.entry(k).or_insert(0) += 1;
            }
            let dups: usize = seen.values().filter(|&&c| c > 1).copied().sum();
            dups as f64 / (g.len() - 20) as f64
        };
        assert!(
            dup_fraction(&repetitive) > 10.0 * dup_fraction(&random).max(1e-6),
            "repeat-rich genome should duplicate far more 21-mers"
        );
    }

    #[test]
    fn repeat_rich_exact_length() {
        let g = repeat_rich(1234, RepeatProfile::default(), 1);
        assert_eq!(g.len(), 1234);
    }

    #[test]
    #[should_panic(expected = "repeat fraction")]
    fn invalid_fraction_rejected() {
        let profile = RepeatProfile {
            repeat_fraction: 0.99,
            ..RepeatProfile::default()
        };
        let _ = repeat_rich(100, profile, 1);
    }

    #[test]
    fn zero_length_genomes() {
        assert!(uniform(0, 1).is_empty());
        assert!(repeat_rich(0, RepeatProfile::default(), 1).is_empty());
    }
}
