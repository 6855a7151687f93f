//! Integration: boundary conditions across the whole stack.

use bioseq::DnaSeq;
use fmindex::{EditBudget, InexactHit};
use pim_aligner::{
    inexact_search, inexact_search_first, AlignmentOutcome, InexactStats, MappedIndex,
    PimAlignerConfig, Platform,
};
use pimsim::costs::LogicalOp;
use pimsim::{CycleLedger, Dpu};

mod support;

#[test]
fn single_base_reference() {
    let reference: DnaSeq = "A".parse().unwrap();
    let platform = Platform::new(reference.to_packed(), PimAlignerConfig::baseline());
    assert_eq!(
        support::align_one(&platform, &"A".parse().unwrap()),
        AlignmentOutcome::Exact { positions: vec![0] }
    );
    // With the default z = 2 budget, a single-base mismatch is a valid
    // 1-difference hit; with z = 0 it is unmapped.
    assert_eq!(
        support::align_one(&platform, &"C".parse().unwrap()),
        AlignmentOutcome::Inexact {
            positions: vec![0],
            diffs: 1
        }
    );
    let strict = Platform::new(
        reference.to_packed(),
        PimAlignerConfig::baseline().with_max_diffs(0),
    );
    assert_eq!(
        support::align_one(&strict, &"C".parse().unwrap()),
        AlignmentOutcome::Unmapped
    );
}

#[test]
fn read_longer_than_reference_does_not_panic() {
    let reference: DnaSeq = "ACGTACGT".parse().unwrap();
    let platform = Platform::new(reference.to_packed(), PimAlignerConfig::baseline());
    let long: DnaSeq = "ACGTACGTACGTACGT".parse().unwrap();
    // Exact match is impossible; inexact may only succeed by treating the
    // overhang as insertions, which exceeds z = 2 here.
    assert_eq!(
        support::align_one(&platform, &long),
        AlignmentOutcome::Unmapped
    );
}

#[test]
fn read_equal_to_reference_maps_at_origin() {
    let reference: DnaSeq = "GATTACAGATTACA".parse().unwrap();
    let platform = Platform::new(reference.to_packed(), PimAlignerConfig::baseline());
    match support::align_one(&platform, &reference) {
        AlignmentOutcome::Exact { positions } => assert_eq!(positions, vec![0]),
        other => panic!("full-reference read must map exactly, got {other:?}"),
    }
}

#[test]
fn reference_exactly_one_subarray_capacity() {
    // 32 768 bases fill a sub-array's BWT zone exactly (+ sentinel spills
    // the final marker checkpoint into the fallback path).
    let reference: DnaSeq = (0..32_768)
        .map(|i| bioseq::Base::from_rank((i * 13 + 1) % 4))
        .collect();
    let platform = Platform::new(reference.to_packed(), PimAlignerConfig::baseline());
    let oracle = fmindex::FmIndex::new(&reference.to_packed());
    for start in [0usize, 16_000, 32_768 - 64] {
        let read = reference.subseq(start..start + 64);
        let positions = support::align_one(&platform, &read)
            .positions()
            .expect("clean read must map")
            .to_vec();
        assert_eq!(positions, oracle.find(&read), "read @{start}");
    }
}

#[test]
fn homopolymer_reference_multi_hits() {
    let reference: DnaSeq = "A".repeat(200).parse().unwrap();
    let platform = Platform::new(reference.to_packed(), PimAlignerConfig::baseline());
    match support::align_one(&platform, &"AAAA".parse().unwrap()) {
        AlignmentOutcome::Exact { positions } => {
            assert_eq!(positions.len(), 197);
            assert_eq!(positions[0], 0);
            assert_eq!(*positions.last().unwrap(), 196);
        }
        other => panic!("homopolymer read must map, got {other:?}"),
    }
}

#[test]
fn one_base_reads() {
    let reference: DnaSeq = "TGCTA".parse().unwrap();
    let platform = Platform::new(reference.to_packed(), PimAlignerConfig::baseline());
    match support::align_one(&platform, &"T".parse().unwrap()) {
        AlignmentOutcome::Exact { positions } => assert_eq!(positions, vec![0, 3]),
        other => panic!("{other:?}"),
    }
}

/// Both inexact modes on one read, straight on the platform, checking
/// that each leaves the DPU's register file empty. Returns the
/// first-accept result, the word-line steps it took (each issued one
/// `LFM` for the published two) and the exhaustive hits.
fn inexact_both_modes(
    reference: &str,
    read: &str,
    budget: EditBudget,
) -> (Option<InexactHit>, InexactStats, u64, Vec<InexactHit>) {
    let config = PimAlignerConfig::baseline();
    let mapped = MappedIndex::build(&reference.parse().unwrap(), &config);
    let mut injector = mapped.session_injector();
    let mut dpu = Dpu::new(*config.model());
    let mut ledger = CycleLedger::new();
    let read: DnaSeq = read.parse().unwrap();
    let (first, stats) =
        inexact_search_first(&mapped, &mut injector, &mut dpu, &read, budget, &mut ledger);
    assert_eq!(dpu.stack_depth(), 0, "first-accept left frames saved");
    let bumps = ledger.primitives().count(LogicalOp::IndexBump);
    let (all, _) = inexact_search(&mapped, &mut injector, &mut dpu, &read, budget, &mut ledger);
    assert_eq!(dpu.stack_depth(), 0, "exhaustive left frames saved");
    (first, stats, bumps, all)
}

#[test]
fn inexact_empty_read_is_the_whole_text_at_no_cost() {
    let (first, stats, _, all) = inexact_both_modes("TGCTA", "", EditBudget::edits(2));
    let hit = first.expect("the empty string occurs everywhere");
    assert_eq!((hit.interval.count(), hit.diffs), (6, 0), "TGCTA$");
    assert_eq!(stats.lfm_calls, 0);
    assert_eq!(all.first(), Some(&hit));
}

#[test]
fn inexact_one_base_reads() {
    // Present: the bound pass is the answer. Absent: one substitution
    // or nothing, by the budget.
    let (first, stats, _, all) = inexact_both_modes("AAAA", "A", EditBudget::edits(2));
    assert_eq!(first.map(|h| h.diffs), Some(0));
    // `[0, 5)` lies in one word line: one `LFM` (2 before the word-line
    // step).
    assert_eq!(stats.lfm_calls, 1);
    assert_eq!(all.first().map(|h| h.diffs), Some(0));

    let (first, _, _, all) = inexact_both_modes("AAAA", "C", EditBudget::edits(2));
    assert_eq!(first.map(|h| h.diffs), Some(1));
    assert_eq!(all.first().map(|h| h.diffs), Some(1));

    let (first, stats, _, all) = inexact_both_modes("AAAA", "C", EditBudget::edits(0));
    assert_eq!(first, None);
    assert_eq!(stats.states_explored, 0);
    assert!(all.is_empty());
}

#[test]
fn inexact_zero_budget_is_exact_search() {
    let reference = "GATTACAGATTACACCGT";
    for budget in [EditBudget::edits(0), EditBudget::substitutions_only(0)] {
        let (first, stats, bumps, all) = inexact_both_modes(reference, "TACAC", budget);
        let hit = first.expect("TACAC occurs once");
        assert_eq!((hit.interval.count(), hit.diffs), (1, 0));
        // A 19-row text holds a one-level seed table: one read for the
        // last base, then four interval steps, all inside the one word line,
        // so one `LFM` each (5 while no table fit under 128 rows, 8 while
        // only the last two steps, on one row, took one; 10 as published).
        assert_eq!(stats.lfm_calls, 4, "the bound pass and nothing else");
        assert_eq!(stats.lfm_calls, 2 * (5 - 1) - bumps);
        assert_eq!(all, [hit]);

        let (first, stats, _, all) = inexact_both_modes(reference, "TACAT", budget);
        assert_eq!(first, None);
        assert_eq!(
            stats.states_explored, 0,
            "one absent substring is over budget"
        );
        assert!(all.is_empty());
    }
}

#[test]
fn inexact_read_rejected_by_the_bound_pass_and_read_needing_a_second_round() {
    let reference = "GATTACAGATTACACCGTGGCATCGATCCGTAAGCTTGCAGGTCA";
    // Three absent substrings at budget 2: no round starts.
    let (first, stats, _, all) =
        inexact_both_modes(reference, "AAAAAAAAAAAA", EditBudget::edits(2));
    assert_eq!(first, None);
    assert_eq!(stats.states_explored, 0);
    assert_eq!(stats.max_stack_depth, 0);
    assert!(all.is_empty());
    // CATCGATCCGTAAGC with its first two bases changed: right to left
    // the bound pass sees one absent substring, round 1 fails, and
    // round 2 finds the two substitutions.
    let (first, _, _, all) = inexact_both_modes(
        reference,
        "GTTCGATCCGTAAGC",
        EditBudget::substitutions_only(2),
    );
    assert_eq!(first.map(|h| h.diffs), Some(2));
    assert_eq!(all.first().map(|h| h.diffs), Some(2));
}
