//! Integration: boundary conditions across the whole stack.

use bioseq::DnaSeq;
use pim_aligner::{AlignSession, AlignmentOutcome, PimAlignerConfig};

#[test]
fn single_base_reference() {
    let reference: DnaSeq = "A".parse().unwrap();
    let mut aligner = AlignSession::new(&reference, PimAlignerConfig::baseline());
    assert_eq!(
        aligner.align_read(&"A".parse().unwrap()),
        AlignmentOutcome::Exact { positions: vec![0] }
    );
    // With the default z = 2 budget, a single-base mismatch is a valid
    // 1-difference hit; with z = 0 it is unmapped.
    assert_eq!(
        aligner.align_read(&"C".parse().unwrap()),
        AlignmentOutcome::Inexact {
            positions: vec![0],
            diffs: 1
        }
    );
    let mut strict = AlignSession::new(&reference, PimAlignerConfig::baseline().with_max_diffs(0));
    assert_eq!(
        strict.align_read(&"C".parse().unwrap()),
        AlignmentOutcome::Unmapped
    );
}

#[test]
fn read_longer_than_reference_does_not_panic() {
    let reference: DnaSeq = "ACGTACGT".parse().unwrap();
    let mut aligner = AlignSession::new(&reference, PimAlignerConfig::baseline());
    let long: DnaSeq = "ACGTACGTACGTACGT".parse().unwrap();
    // Exact match is impossible; inexact may only succeed by treating the
    // overhang as insertions, which exceeds z = 2 here.
    assert_eq!(aligner.align_read(&long), AlignmentOutcome::Unmapped);
}

#[test]
fn read_equal_to_reference_maps_at_origin() {
    let reference: DnaSeq = "GATTACAGATTACA".parse().unwrap();
    let mut aligner = AlignSession::new(&reference, PimAlignerConfig::baseline());
    match aligner.align_read(&reference) {
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
    let mut aligner = AlignSession::new(&reference, PimAlignerConfig::baseline());
    let oracle = fmindex::FmIndex::new(&reference);
    for start in [0usize, 16_000, 32_768 - 64] {
        let read = reference.subseq(start..start + 64);
        let positions = aligner
            .align_read(&read)
            .positions()
            .expect("clean read must map")
            .to_vec();
        assert_eq!(positions, oracle.find(&read), "read @{start}");
    }
}

#[test]
fn homopolymer_reference_multi_hits() {
    let reference: DnaSeq = "A".repeat(200).parse().unwrap();
    let mut aligner = AlignSession::new(&reference, PimAlignerConfig::baseline());
    match aligner.align_read(&"AAAA".parse().unwrap()) {
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
    let mut aligner = AlignSession::new(&reference, PimAlignerConfig::baseline());
    match aligner.align_read(&"T".parse().unwrap()) {
        AlignmentOutcome::Exact { positions } => assert_eq!(positions, vec![0, 3]),
        other => panic!("{other:?}"),
    }
}
