//! Integration: Algorithm 2 on the platform vs the software oracle and
//! an independent edit distance.

use bioseq::{Base, DnaSeq};
use fmindex::{EditBudget, FmIndex};
use pim_aligner::{AlignmentOutcome, PimAlignerConfig, Platform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use readsim::genome;

mod support;

fn mutate(read: &DnaSeq, positions: &[usize]) -> DnaSeq {
    let mut bases = read.clone().into_bases();
    for &p in positions {
        bases[p] = Base::from_rank((bases[p].rank() + 1) % 4);
    }
    DnaSeq::from_bases(bases)
}

#[test]
fn exhaustive_platform_hits_equal_software_hits() {
    let reference = genome::uniform(20_000, 81);
    let oracle = FmIndex::new(&reference.to_packed());
    let platform = Platform::new(
        reference.to_packed(),
        PimAlignerConfig::baseline()
            .with_max_diffs(2)
            .with_indels(false)
            .with_exhaustive_inexact(true),
    );
    for (start, muts) in [
        (500usize, vec![10]),
        (4_000, vec![5, 20]),
        (15_000, vec![0]),
    ] {
        let read = mutate(&reference.subseq(start..start + 30), &muts);
        let outcome = support::align_one(&platform, &read);
        let sw = oracle.find_inexact(&read, EditBudget::substitutions_only(2));
        match outcome {
            AlignmentOutcome::Inexact { positions, diffs } => {
                let best = sw.iter().map(|(_, d)| *d).min().expect("oracle hit");
                assert_eq!(diffs, best, "read @{start}");
                let sw_best: Vec<usize> = sw
                    .iter()
                    .filter(|(_, d)| *d == best)
                    .map(|(p, _)| *p)
                    .collect();
                assert_eq!(positions, sw_best, "read @{start}");
                assert!(positions.contains(&start));
            }
            AlignmentOutcome::Exact { positions } => {
                // The mutated read may coincidentally occur elsewhere.
                assert!(!positions.is_empty());
            }
            AlignmentOutcome::Unmapped => panic!("mutated read @{start} must map"),
        }
    }
}

#[test]
fn first_accept_position_confirmed_by_dp_baseline() {
    // Cross-validate the PIM result with a plain O(n·m) edit distance:
    // the read is exactly `diffs` edits from the window at each reported
    // position.
    let reference = genome::uniform(15_000, 82);
    let platform = Platform::new(
        reference.to_packed(),
        PimAlignerConfig::baseline().with_max_diffs(2),
    );
    let read = mutate(&reference.subseq(7_000..7_060), &[15, 40]);
    let AlignmentOutcome::Inexact { positions, diffs } = support::align_one(&platform, &read)
    else {
        panic!("expected an inexact hit");
    };
    assert_eq!(diffs, 2);
    for &pos in &positions {
        let window = reference.subseq(pos..(pos + read.len()).min(reference.len()));
        let distance = support::edit_distance(window.as_slice(), read.as_slice());
        assert_eq!(distance, usize::from(diffs), "at position {pos}");
    }
}

#[test]
fn first_accept_reports_the_minimum_difference_count() {
    // The production mode returns at its first hit, and that hit is a
    // minimum-difference one: `diffs` (SAM's `NM:i`) is what the
    // exhaustive software oracle calls the best, and every reported
    // position is one of the oracle's best.
    let reference = genome::uniform(6_000, 84);
    let oracle = FmIndex::new(&reference.to_packed());
    let config = PimAlignerConfig::baseline();
    assert!(!config.exhaustive_inexact(), "first-accept is the default");
    let budget = config.edit_budget();
    let platform = Platform::new(reference.to_packed(), config);
    let mut rng = StdRng::seed_from_u64(0x4e4d);
    let mut by_diffs = [0usize; 3];
    for case in 0..240 {
        let len = rng.gen_range(30usize..=40);
        let start = rng.gen_range(0..reference.len() - len);
        let mut bases = reference.subseq(start..start + len).into_bases();
        for _ in 0..case % 3 {
            let at = rng.gen_range(0..bases.len());
            let base = Base::from_rank(rng.gen_range(0usize..4));
            match rng.gen_range(0..3) {
                0 => bases[at] = base,
                1 => bases.insert(at, base),
                _ => drop(bases.remove(at)),
            }
        }
        let read = DnaSeq::from_bases(bases);
        let sw = oracle.find_inexact(&read, budget);
        let best = sw.iter().map(|&(_, d)| d).min().expect("≤ 2 edits map");
        let outcome = support::align_one(&platform, &read);
        let diffs = match &outcome {
            AlignmentOutcome::Exact { .. } => 0,
            AlignmentOutcome::Inexact { diffs, .. } => *diffs,
            AlignmentOutcome::Unmapped => panic!("case {case}: read @{start} must map"),
        };
        assert_eq!(diffs, best, "case {case}: read @{start}");
        for pos in outcome.positions().expect("mapped") {
            assert!(
                sw.contains(&(*pos, best)),
                "case {case}: position {pos} is not a {best}-difference position"
            );
        }
        by_diffs[diffs as usize] += 1;
    }
    // An edit can restore the reference base, so the classes are not
    // exactly 80 each; all three must be well represented.
    assert!(by_diffs.iter().all(|&n| n >= 40), "{by_diffs:?}");
}

#[test]
fn indel_variant_recovered_cross_stack() {
    let reference = genome::uniform(10_000, 83);
    // Delete one base from a read template.
    let mut bases = reference.subseq(3_000..3_050).into_bases();
    bases.remove(25);
    let read = DnaSeq::from_bases(bases);
    let platform = Platform::new(
        reference.to_packed(),
        PimAlignerConfig::baseline().with_max_diffs(1),
    );
    match support::align_one(&platform, &read) {
        AlignmentOutcome::Inexact { positions, .. } => {
            assert!(positions.iter().any(|&p| p.abs_diff(3_000) <= 1));
        }
        other => panic!("indel read must map inexactly, got {other:?}"),
    }
}
