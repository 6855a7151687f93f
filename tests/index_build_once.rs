//! Integration: the shared-platform guarantee — `MappedIndex::build`
//! runs exactly once per run, no matter how many worker threads align,
//! and a platform booted from an artifact maps the artifact's own
//! `FmIndex` once and shares its index and reference without copying
//! either.
//!
//! This test must stay ALONE in this file: `MappedIndex::build_count()`
//! is a process-global counter, and any sibling `#[test]` running
//! concurrently in the same process would inflate the delta.

use bioseq::PackedSeq;
use pim_aligner::{IndexArtifact, MappedIndex, PimAlignerConfig, Platform};
use readsim::genome;

#[test]
fn eight_thread_run_builds_the_index_exactly_once() {
    let reference = genome::uniform(40_000, 555);
    let reads: Vec<_> = (0..64)
        .map(|i| reference.subseq(i * 600..i * 600 + 80))
        .collect();

    let before = MappedIndex::build_count();
    let platform = Platform::new(reference.to_packed(), PimAlignerConfig::baseline());
    assert_eq!(
        MappedIndex::build_count(),
        before + 1,
        "Platform::new must build the index"
    );

    // An 8-thread batch, a second batch on both strands, and a streamed
    // chunked pass: none of them may rebuild.
    for both_strands in [false, true] {
        let (pairs, _) = platform
            .align_chunk_parallel(&reads, 8, 0, both_strands)
            .unwrap();
        assert!(pairs.iter().all(|(o, _)| o.is_mapped()));
    }
    for (epoch, chunk) in reads.chunks(16).enumerate() {
        platform
            .align_chunk_parallel(chunk, 8, epoch as u64, false)
            .unwrap();
    }
    assert_eq!(
        MappedIndex::build_count(),
        before + 1,
        "aligning must never rebuild the shared index"
    );

    // Booting from an artifact maps its index exactly once and shares
    // the artifact's index and its one 2-bit reference instead of
    // cloning them.
    let artifact = IndexArtifact::new("r", reference.to_packed(), 8);
    let before = MappedIndex::build_count();
    let booted = Platform::from_artifact(&artifact, PimAlignerConfig::baseline(), true);
    assert_eq!(MappedIndex::build_count(), before + 1);
    assert!(std::ptr::eq(artifact.index(), booted.mapped().index()));
    let packed: &PackedSeq = artifact.reference();
    assert!(std::ptr::eq(packed, booted.reference()));
}
