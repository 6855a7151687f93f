//! The shared, immutable platform half of the aligner.
//!
//! The paper's premise is that the BWT/FM-index is mapped into the
//! SOT-MRAM sub-arrays **once** and then queried in place. [`Platform`]
//! is that one-time artifact in software form: the reference and the
//! [`MappedIndex`] behind `Arc`s plus the configuration, built exactly
//! once per run and shared — by clone of the cheap handles — across any
//! number of host worker threads. All mutable per-query state (the DPU
//! registers, the cycle ledger, the telemetry counters) lives in the
//! worker sessions [`Platform::align_chunk_parallel`] spawns from the
//! platform; each read's fault stream lives only as long as the read.

use std::sync::Arc;

use bioseq::PackedSeq;

use crate::aligner::AlignSession;
use crate::artifact::IndexArtifact;
use crate::config::PimAlignerConfig;
use crate::mapping::MappedIndex;

/// The immutable, shareable aligner platform: reference genome + mapped
/// FM-index + configuration.
///
/// Cloning a `Platform` clones two `Arc` handles and the configuration —
/// it never rebuilds the index. [`MappedIndex::build`] runs exactly once,
/// inside [`Platform::new`].
///
/// # Examples
///
/// ```
/// use pim_aligner::{AlignmentOutcome, MappedStrand, Platform, PimAlignerConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let platform = Platform::new("TGCTA".parse()?, PimAlignerConfig::baseline());
/// // One chunk of one read, on one worker, forward strand only.
/// let (pairs, _totals) = platform.align_chunk_parallel(&["CTA".parse()?], 1, 0, false)?;
/// let exact = AlignmentOutcome::Exact { positions: vec![2] };
/// assert_eq!(pairs, [(exact, MappedStrand::Forward)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Platform {
    reference: Arc<PackedSeq>,
    mapped: Arc<MappedIndex>,
    config: PimAlignerConfig,
    /// The provenance [`Platform::from_artifact`] was given: `true` when
    /// the artifact came off disk rather than being built in-process;
    /// recorded in the report's index telemetry.
    loaded: bool,
}

impl Platform {
    /// Builds the platform over a reference genome, which it keeps:
    /// FM-index construction plus sub-array mapping, exactly once. The
    /// one-time cost is kept in the index's mapping ledger.
    pub fn new(reference: PackedSeq, config: PimAlignerConfig) -> Platform {
        let mapped = Arc::new(MappedIndex::build(&reference, &config));
        Platform {
            reference: Arc::new(reference),
            mapped,
            config,
            loaded: false,
        }
    }

    /// Boots the platform from an index artifact — the warm path. Only
    /// the sub-array mapping runs; the index construction (SA-IS, BWT,
    /// tables) is skipped entirely, and the artifact's index and
    /// reference are shared, not copied.
    ///
    /// `loaded` records provenance for telemetry — pass `true` when the
    /// artifact came off disk, `false` when it was just built in-process.
    pub fn from_artifact(
        artifact: &IndexArtifact,
        config: PimAlignerConfig,
        loaded: bool,
    ) -> Platform {
        let mapped = Arc::new(MappedIndex::from_index(
            Arc::clone(&artifact.index),
            &config,
        ));
        Platform {
            reference: Arc::clone(&artifact.reference),
            mapped,
            config,
            loaded,
        }
    }

    /// How this platform's index came to be, for the report's `index`
    /// telemetry: the index's suffix-array sampling rate, the bytes of
    /// its serialisable tables and of the seed table mapped beside them,
    /// and what the size model predicts for them.
    pub fn index_telemetry(&self) -> crate::report::IndexTelemetry {
        crate::report::IndexTelemetry {
            loaded: self.loaded,
            ..crate::report::IndexTelemetry::of(self.mapped.index())
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PimAlignerConfig {
        &self.config
    }

    /// The indexed reference genome.
    pub fn reference(&self) -> &PackedSeq {
        &self.reference
    }

    /// The shared mapped index (sub-arrays + software ground truth).
    pub fn mapped(&self) -> &MappedIndex {
        &self.mapped
    }

    /// Spawns a worker session over this platform.
    pub(crate) fn session(&self) -> AlignSession {
        AlignSession::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use readsim::genome;

    #[test]
    fn clone_shares_the_mapped_index() {
        let reference = genome::uniform(3_000, 51);
        let platform = Platform::new(reference.to_packed(), PimAlignerConfig::baseline());
        let before = MappedIndex::build_count();
        let clone = platform.clone();
        assert_eq!(MappedIndex::build_count(), before, "clone must not rebuild");
        assert!(std::ptr::eq(platform.mapped(), clone.mapped()));
        assert!(std::ptr::eq(platform.reference(), clone.reference()));
    }

    #[test]
    fn sessions_share_one_index_build() {
        let reference = genome::uniform(3_000, 52);
        let platform = Platform::new(reference.to_packed(), PimAlignerConfig::baseline());
        let before = MappedIndex::build_count();
        let read = reference.subseq(100..160);
        for _ in 0..4 {
            let mut session = platform.session();
            let (outcome, _) = &session.align_group(std::slice::from_ref(&read), 0, false)[0];
            assert!(outcome.is_mapped());
        }
        assert_eq!(
            MappedIndex::build_count(),
            before,
            "sessions must never rebuild the index"
        );
    }
}
