//! Integration: sensing faults propagated from device variation into
//! alignment accuracy (the DESIGN.md §8 failure-injection extension).
//!
//! The paper guards reliability by capping fan-in at three and raising
//! `t_ox`; these tests quantify what that guard buys: with the paper's
//! variation the platform aligns perfectly, while an overlapping-margin
//! comparator corrupts `XNOR_Match` counts and measurably degrades
//! accuracy.

use bioseq::DnaSeq;
use mram::device::CellParams;
use mram::faults::FaultModel;
use pim_aligner::{AlignmentOutcome, PimAlignerConfig, Platform};
use readsim::genome;

mod support;

fn clean_reads(reference: &DnaSeq, count: usize, len: usize) -> (Vec<usize>, Vec<DnaSeq>) {
    (0..count)
        .map(|i| {
            let start = (i * 1_237) % (reference.len() - len);
            (start, reference.subseq(start..start + len))
        })
        .unzip()
}

fn accuracy(reference: &DnaSeq, faults: FaultModel) -> f64 {
    let platform = Platform::new(
        reference.to_packed(),
        PimAlignerConfig::baseline()
            .with_max_diffs(0)
            .with_fault_model(faults),
    );
    let (starts, reads) = clean_reads(reference, 40, 80);
    let (outcomes, _) = support::align(&platform, &reads);
    let correct = outcomes
        .iter()
        .zip(&starts)
        .filter(|(o, start)| {
            matches!(o, AlignmentOutcome::Exact { positions } if positions.contains(start))
        })
        .count();
    correct as f64 / reads.len() as f64
}

#[test]
fn paper_variation_gives_perfect_alignment() {
    let reference = genome::uniform(40_000, 111);
    let derived = FaultModel::from_cell(&CellParams::default(), 2_000, 5);
    assert!(
        derived.is_ideal(),
        "paper sigma must derive a fault-free model"
    );
    assert_eq!(accuracy(&reference, derived), 1.0);
}

#[test]
fn injected_faults_degrade_accuracy_monotonically() {
    let reference = genome::uniform(40_000, 112);
    // Each read draws from its own fault stream: at 1e-4 per-bit misreads
    // some reads survive (0.80 of them), at 5e-2 none do.
    let perfect = accuracy(&reference, FaultModel::ideal());
    let light = accuracy(&reference, FaultModel::with_probabilities(1e-4, 0.0));
    let heavy = accuracy(&reference, FaultModel::with_probabilities(0.05, 0.0));
    assert_eq!(perfect, 1.0);
    assert!(
        perfect > light && light > heavy,
        "perfect {perfect}, light {light}, heavy {heavy}"
    );
    assert!(
        heavy < 0.9,
        "5% per-bit misreads must visibly corrupt alignment (got {heavy})"
    );
}

#[test]
fn margin_derived_model_connects_device_to_accuracy() {
    // A comparator with 1.5 mV absolute offset sigma overlaps the 3 mV
    // three-cell level gap; the derived fault model must be non-ideal and
    // must reduce accuracy.
    let reference = genome::uniform(30_000, 113);
    let noisy_cell = CellParams::default().with_sense_offset(1.5);
    let derived = FaultModel::from_cell(&noisy_cell, 3_000, 9);
    assert!(!derived.is_ideal());
    let acc = accuracy(&reference, derived);
    assert!(
        acc < 1.0,
        "non-ideal sensing must cost accuracy (got {acc})"
    );
    // And the paper's thick-oxide fix restores it.
    let fixed = FaultModel::from_cell(&noisy_cell.with_tox_nm(2.0), 3_000, 9);
    assert_eq!(accuracy(&reference, fixed), 1.0);
}
