//! Integration: the platform's exact alignment (Algorithm 1 on simulated
//! SOT-MRAM) agrees bit-for-bit with the software FM-index across crates.

use bioseq::DnaSeq;
use fmindex::FmIndex;
use pim_aligner::{AlignmentOutcome, PimAlignerConfig, Platform};
use readsim::genome;

mod support;

#[test]
fn platform_find_equals_software_find_on_uniform_genome() {
    let reference = genome::uniform(120_000, 71);
    let oracle = FmIndex::new(&reference.to_packed());
    let platform = Platform::new(
        reference.to_packed(),
        PimAlignerConfig::baseline().with_max_diffs(0),
    );
    for start in (0..119_000).step_by(7_321) {
        let read = reference.subseq(start..start + 100);
        let sw = oracle.find(&read);
        match support::align_one(&platform, &read) {
            AlignmentOutcome::Exact { positions } => assert_eq!(positions, sw, "read @{start}"),
            other => panic!("clean read @{start} must align exactly, got {other:?}"),
        }
    }
}

#[test]
fn platform_handles_repeat_rich_genomes() {
    // Repeats produce multi-hit intervals; counts must agree with the
    // software index.
    let profile = readsim::genome::RepeatProfile {
        divergence: 0.0,
        ..Default::default()
    };
    let reference = genome::repeat_rich(60_000, profile, 72);
    let oracle = FmIndex::new(&reference.to_packed());
    let platform = Platform::new(
        reference.to_packed(),
        PimAlignerConfig::baseline().with_max_diffs(0),
    );
    let mut saw_multi_hit = false;
    for start in (0..59_000).step_by(4_111) {
        let read = reference.subseq(start..start + 40);
        let sw = oracle.find(&read);
        match support::align_one(&platform, &read) {
            AlignmentOutcome::Exact { positions } => {
                assert_eq!(positions, sw, "read @{start}");
                if positions.len() > 1 {
                    saw_multi_hit = true;
                }
            }
            other => panic!("repeat read @{start} must align, got {other:?}"),
        }
    }
    assert!(
        saw_multi_hit,
        "repeat-rich genome should yield multi-hit reads"
    );
}

#[test]
fn absent_reads_fail_identically() {
    let reference = genome::uniform(30_000, 73);
    let oracle = FmIndex::new(&reference.to_packed());
    let platform = Platform::new(
        reference.to_packed(),
        PimAlignerConfig::baseline().with_max_diffs(0),
    );
    // A 40-mer of pure GGG... is (with overwhelming probability) absent
    // from a uniform 30 kb genome.
    let absent: DnaSeq = "G".repeat(40).parse().unwrap();
    assert!(oracle.backward_search(&absent).is_none());
    assert_eq!(
        support::align_one(&platform, &absent),
        AlignmentOutcome::Unmapped
    );
}
