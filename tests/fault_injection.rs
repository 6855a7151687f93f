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
use mram::faults::FaultCampaign;
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

/// Placement accuracy of 40 clean reads under per-bit `XNOR_Match`
/// misreads at `p` (campaign seed 0).
fn accuracy(reference: &DnaSeq, p: f64) -> f64 {
    let platform = Platform::new(
        reference.to_packed(),
        PimAlignerConfig::baseline()
            .with_max_diffs(0)
            .with_fault_campaign(FaultCampaign::none().with_xnor_misread_prob(p)),
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
    let derived = FaultCampaign::from_cell(&CellParams::default(), 2_000, 5);
    assert!(
        !derived.is_active(),
        "paper sigma must derive a fault-free campaign"
    );
    assert_eq!(accuracy(&reference, derived.xnor_misread_prob()), 1.0);
}

#[test]
fn injected_faults_degrade_accuracy_monotonically() {
    let reference = genome::uniform(40_000, 112);
    // Each read draws from its own fault stream: at 1e-4 per-bit misreads
    // some reads survive (0.80 of them), at 5e-2 none do.
    let perfect = accuracy(&reference, 0.0);
    let light = accuracy(&reference, 1e-4);
    let heavy = accuracy(&reference, 0.05);
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
    // three-cell level gap; the derived misread rate must be non-zero and
    // must reduce accuracy.
    let reference = genome::uniform(30_000, 113);
    let noisy_cell = CellParams::default().with_sense_offset(1.5);
    let derived = FaultCampaign::from_cell(&noisy_cell, 3_000, 9).xnor_misread_prob();
    assert!(derived > 0.0);
    let acc = accuracy(&reference, derived);
    assert!(
        acc < 1.0,
        "non-ideal sensing must cost accuracy (got {acc})"
    );
    // And the paper's thick-oxide fix restores it.
    let fixed = FaultCampaign::from_cell(&noisy_cell.with_tox_nm(2.0), 3_000, 9);
    assert_eq!(accuracy(&reference, fixed.xnor_misread_prob()), 1.0);
}
