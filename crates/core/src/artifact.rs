//! The on-disk index artifact: build once, load many.
//!
//! The paper's platform maps the FM-index into the MRAM sub-arrays once
//! and then serves queries in place; rebuilding the index (SA-IS + BWT +
//! tables) for every run throws that asymmetry away. This module makes
//! the serialised index a first-class artifact: [`IndexArtifact`] holds
//! the reference and one [`FmIndex`] over the whole of it, and
//! [`Platform::from_artifact`](crate::Platform::from_artifact) boots a
//! warm platform from it — only the sub-array mapping runs at load time.
//!
//! The file is [`fmindex::io`]'s `PIMAIX2` layout: one magic, the
//! reference, the index sections, one checksum. That module alone knows
//! the bytes; this one only refuses an index no platform can map, whose
//! Occ buckets are not a word line's
//! [`SubArrayLayout::BASES_PER_ROW`] bases.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

use bioseq::PackedSeq;
use fmindex::io::{self as fm_io, LoadIndexError};
use fmindex::{size_model, FmIndex, SaStorage, SuffixArraySamples};
use pimsim::SubArrayLayout;

use crate::report::IndexTelemetry;

/// Suffix-array sampling rates [`sa_rate_for_budget`] considers, best
/// (densest) first.
pub const BUDGET_RATES: [u32; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// A buildable, serialisable, loadable index artifact: the reference and
/// one FM-index over it, each behind an `Arc` that every
/// [`Platform`](crate::Platform) booted from the artifact shares.
#[derive(Debug)]
pub struct IndexArtifact {
    reference_name: String,
    pub(crate) reference: Arc<PackedSeq>,
    pub(crate) index: Arc<FmIndex>,
}

impl IndexArtifact {
    /// Builds the artifact in memory: one FM-index over the whole
    /// reference, which the artifact then keeps. `sa_rate == 1` keeps the
    /// full suffix array; larger rates sample it.
    ///
    /// # Panics
    ///
    /// Panics when the reference is empty or `sa_rate == 0`.
    pub fn new(reference_name: &str, reference: PackedSeq, sa_rate: u32) -> IndexArtifact {
        assert!(!reference.is_empty(), "cannot index an empty reference");
        assert!(sa_rate > 0, "SA sampling rate must be positive");
        let storage = if sa_rate == 1 {
            SaStorage::Full
        } else {
            SaStorage::Sampled(sa_rate)
        };
        let index = FmIndex::builder()
            .bucket_width(SubArrayLayout::BASES_PER_ROW)
            .sa_storage(storage)
            .build(&reference);
        IndexArtifact {
            reference_name: reference_name.to_string(),
            reference: Arc::new(reference),
            index: Arc::new(index),
        }
    }

    /// The reference name recorded in the artifact.
    pub fn reference_name(&self) -> &str {
        &self.reference_name
    }

    /// The embedded reference genome.
    pub fn reference(&self) -> &PackedSeq {
        &self.reference
    }

    /// The FM-index over the reference.
    pub fn index(&self) -> &FmIndex {
        &self.index
    }

    /// Suffix-array sampling rate (1 = full), as the SA section stores it.
    pub fn sa_rate(&self) -> u32 {
        self.index.sa_rate()
    }

    /// Index bytes as a platform holds them: the serialisable tables
    /// ([`FmIndex::size_bytes`]) and [`IndexArtifact::seed_bytes`] — a
    /// platform's [`IndexTelemetry::actual_bytes`].
    pub fn index_bytes(&self) -> usize {
        IndexTelemetry::of(&self.index).actual_bytes as usize
    }

    /// What [`size_model::footprint`] predicts for this reference length
    /// and sampling rate — a platform's [`IndexTelemetry::model_bytes`].
    pub fn model_bytes(&self) -> usize {
        IndexTelemetry::of(&self.index).model_bytes as usize
    }

    /// Levels in the seed table a platform derives from the index when it
    /// maps it (beyond the paper; stored in no artifact), 0 where the
    /// text is too short for a table.
    pub fn seed_depth(&self) -> usize {
        size_model::seed_depth(self.index.text_len())
    }

    /// Bits a stored suffix-array value takes: 32 for the full array, and
    /// for a sampled one those of `⌊(rows − 1)/rate⌋`.
    pub fn sa_value_bits(&self) -> u32 {
        match self.index.sa_samples() {
            SuffixArraySamples::Full(_) => u32::BITS,
            SuffixArraySamples::Sampled { stored, .. } => stored.value_bits(),
        }
    }

    /// Bytes of that table.
    pub fn seed_bytes(&self) -> usize {
        size_model::seed_bytes(self.seed_depth(), self.index.text_len())
    }

    /// Serialises the artifact ([`fm_io::save`]), hashed as it is
    /// written — never staged in memory.
    pub fn save<W: Write>(&self, writer: W) -> io::Result<()> {
        fm_io::save(&self.reference_name, &self.reference, &self.index, writer)
    }

    /// Writes the artifact to `path`.
    pub fn save_to_path(&self, path: &Path) -> io::Result<()> {
        let mut file = io::BufWriter::new(File::create(path)?);
        self.save(&mut file)
    }

    /// Loads an artifact ([`fm_io::load`]) and checks that a platform can
    /// map its index.
    ///
    /// # Errors
    ///
    /// As [`fm_io::load`]; an index whose Occ buckets are not
    /// [`SubArrayLayout::BASES_PER_ROW`] bases wide is
    /// [`LoadIndexError::Corrupt`].
    pub fn load<R: Read>(reader: R) -> Result<IndexArtifact, LoadIndexError> {
        let (reference_name, reference, index) = fm_io::load(reader)?;
        // A file can hold a sound index and still not one a platform can
        // map: `MappedIndex::from_index` asserts this width.
        if index.bucket_width() != SubArrayLayout::BASES_PER_ROW {
            return Err(LoadIndexError::Corrupt(format!(
                "the index has Occ buckets of {} bases, a word line holds {}",
                index.bucket_width(),
                SubArrayLayout::BASES_PER_ROW
            )));
        }
        Ok(IndexArtifact {
            reference_name,
            reference: Arc::new(reference),
            index: Arc::new(index),
        })
    }

    /// Reads an artifact from `path`.
    pub fn load_from_path(path: &Path) -> Result<IndexArtifact, LoadIndexError> {
        IndexArtifact::load(io::BufReader::new(File::open(path)?))
    }
}

/// The best (densest) suffix-array sampling rate whose modelled
/// footprint fits `budget_bytes`, or `None` when even the sparsest rate
/// in [`BUDGET_RATES`] does not fit.
///
/// "Best" means the smallest rate: rate 1 keeps the full suffix array
/// and locates in O(1) per hit; each doubling halves the SA bytes but
/// lengthens the LF walk. The footprint is
/// [`size_model::footprint`] at the platform's bucket width of
/// [`SubArrayLayout::BASES_PER_ROW`].
pub fn sa_rate_for_budget(genome_len: usize, budget_bytes: usize) -> Option<u32> {
    BUDGET_RATES.into_iter().find(|&rate| {
        size_model::footprint(genome_len, SubArrayLayout::BASES_PER_ROW, rate as usize)
            .total_bytes()
            <= budget_bytes
    })
}

/// Kept only because `benchmark/src/trace.rs` compiles against these
/// names and may not change in the same commit as the code under test.
/// Nothing in this workspace calls them: boot with
/// [`Platform::from_artifact`](crate::Platform::from_artifact) and build
/// with [`IndexArtifact::new`]. ROADMAP item 1a moves `trace.rs` off
/// them and deletes this module.
#[doc(hidden)]
pub mod benchmark_pins {
    use bioseq::{DnaSeq, PackedSeq};

    use super::IndexArtifact;
    use crate::aligner::{AlignmentOutcome, MappedStrand};
    use crate::config::PimAlignerConfig;
    use crate::error::AlignError;
    use crate::parallel::BatchTotals;
    use crate::platform::Platform;
    use crate::report::PerfReport;

    /// One [`Platform`] under the name reference-window sharding used.
    pub struct ShardedPlatform(Platform);

    impl ShardedPlatform {
        pub fn from_artifact(
            artifact: &IndexArtifact,
            config: PimAlignerConfig,
            loaded: bool,
        ) -> ShardedPlatform {
            ShardedPlatform(Platform::from_artifact(artifact, config, loaded))
        }

        pub fn align_chunk(
            &self,
            reads: &[DnaSeq],
            threads: usize,
            epoch: u64,
            both_strands: bool,
        ) -> Result<(Vec<(AlignmentOutcome, MappedStrand)>, BatchTotals), AlignError> {
            self.0
                .align_chunk_parallel(reads, threads, epoch, both_strands)
        }

        pub fn batch_report(&self, totals: &BatchTotals) -> PerfReport {
            self.0.batch_report(totals)
        }

        pub fn single_platform(&self) -> Option<&Platform> {
            Some(&self.0)
        }
    }

    #[doc(hidden)]
    impl IndexArtifact {
        /// [`IndexArtifact::new`]; `shard_window` must be 0.
        pub fn build(
            reference_name: &str,
            reference: &PackedSeq,
            sa_rate: u32,
            shard_window: usize,
            _shard_overlap: usize,
        ) -> IndexArtifact {
            assert_eq!(shard_window, 0, "reference-window sharding is gone");
            IndexArtifact::new(reference_name, reference.clone(), sa_rate)
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::PimAlignerConfig;
    use crate::platform::Platform;
    use proptest::prelude::*;
    use readsim::genome;

    fn test_artifact(len: usize) -> IndexArtifact {
        let reference = genome::uniform(len, 97);
        IndexArtifact::new("test-ref", reference.to_packed(), 4)
    }

    #[test]
    fn container_round_trips() {
        let artifact = test_artifact(2_000);
        let mut buffer = Vec::new();
        artifact.save(&mut buffer).expect("save");
        let loaded = IndexArtifact::load(&buffer[..]).expect("load");
        assert_eq!(loaded.reference_name(), "test-ref");
        assert_eq!(loaded.reference(), artifact.reference());
        assert_eq!(loaded.sa_rate(), 4);
        assert_eq!(loaded.index().size_bytes(), artifact.index().size_bytes());
        assert_eq!(
            loaded.index().bwt().to_string(),
            artifact.index().bwt().to_string()
        );
    }

    /// A saved artifact long enough for a seed table, with where its
    /// length fields sit, as `(offset, width)`.
    struct Saved {
        bytes: Vec<u8>,
        fields: Vec<(usize, usize)>,
    }

    /// Position in [`Saved::fields`].
    const BUCKET_COUNT: usize = 5;

    fn saved_with_layout() -> Saved {
        let name = "mut";
        let artifact = IndexArtifact::new(name, genome::uniform(5_000, 61).to_packed(), 4);
        // 5 001 rows: four levels of 13-bit boundaries.
        assert_eq!(artifact.seed_depth(), 4);
        let mut bytes = Vec::new();
        artifact.save(&mut bytes).expect("save");
        let mut fields = Vec::new();
        let mut pos = fm_io::MAGIC.len();
        let mut field = |pos: &mut usize, width: usize| {
            fields.push((*pos, width));
            *pos += width;
        };
        field(&mut pos, 8); // name length
        pos += name.len();
        field(&mut pos, 8); // reference length
        pos += artifact.reference().len().div_ceil(4);
        let index = artifact.index();
        field(&mut pos, 8); // text length
        field(&mut pos, 8); // sentinel
        pos += index.text_len().div_ceil(4) + 16; // BWT, Count
        field(&mut pos, 8); // bucket width
        field(&mut pos, 8); // bucket count
        pos += index.marker_table().size_bytes() + 1; // markers, SA tag
        field(&mut pos, 4); // SA rate
        field(&mut pos, 8); // SA rows
        field(&mut pos, 8); // SA bitmap words
        let bitmap = index.text_len().div_ceil(64) * 8;
        pos += bitmap;
        field(&mut pos, 1); // SA value width
        field(&mut pos, 8); // SA value words
        pos += index.sa_samples().size_bytes() - bitmap; // SA values
        assert_eq!(pos + 8, bytes.len(), "the layout walk ends at the trailer");
        Saved { bytes, fields }
    }

    /// The hostile-bytes mutator of this crate's decoders: PIMAIX here,
    /// the wire protocol in `service::protocol`.
    #[derive(Debug)]
    pub(crate) enum Mutation {
        /// Keep this many bytes.
        Truncate(usize),
        /// Flip one bit of one byte.
        BitFlip(usize, u8),
        /// Overwrite a length field.
        Inflate(usize, u64),
        /// Copy `len` bytes from `from` over those at `to`.
        Splice { from: usize, to: usize, len: usize },
    }

    impl Mutation {
        /// One of the four kinds from three raw draws. An inflated field
        /// gets a length no stream backs, or a small one.
        pub(crate) fn from_draws(kind: u8, a: usize, b: usize, c: u64) -> Mutation {
            const HUGE: [u64; 5] = [0, 1 << 31, 1 << 40, 1 << 62, u64::MAX];
            match kind {
                0 => Mutation::Truncate(a),
                1 => Mutation::BitFlip(a, (c % 8) as u8),
                2 => Mutation::Inflate(a, *HUGE.get(b % 8).unwrap_or(&(c % 8_192))),
                _ => Mutation::Splice {
                    from: a,
                    to: b,
                    len: 1 + (c % 600) as usize,
                },
            }
        }

        /// Mutates the non-empty `bytes`, every index taken modulo what it
        /// indexes. `fields` holds the `(offset, width)` of each length
        /// field, which are `big_endian` or little; with none, an
        /// inflation leaves the bytes alone.
        pub(crate) fn apply(
            &self,
            bytes: &mut Vec<u8>,
            fields: &[(usize, usize)],
            big_endian: bool,
        ) {
            let len = bytes.len();
            match *self {
                Mutation::Truncate(keep) => bytes.truncate(keep % len),
                Mutation::BitFlip(at, bit) => bytes[at % len] ^= 1 << bit,
                Mutation::Inflate(field, value) => {
                    if !fields.is_empty() {
                        let (at, width) = fields[field % fields.len()];
                        // The value's low `width` bytes, in the field's order.
                        let (be, le) = (value.to_be_bytes(), value.to_le_bytes());
                        let low = if big_endian {
                            &be[8 - width..]
                        } else {
                            &le[..width]
                        };
                        bytes[at..at + width].copy_from_slice(low);
                    }
                }
                Mutation::Splice { from, to, len: n } => {
                    let n = n.min(len);
                    let (from, to) = (from % (len - n + 1), to % (len - n + 1));
                    bytes.copy_within(from..from + n, to);
                }
            }
        }
    }

    /// Overwrites the last 8 bytes with the FNV-1a of what lies between
    /// the 8-byte magic and them: the checksum is laid out so.
    fn restamp(bytes: &mut [u8]) {
        if let Some(body_end) = bytes.len().checked_sub(8).filter(|&end| end >= 8) {
            let digest = fm_io::fnv1a(&bytes[8..body_end]);
            bytes[body_end..].copy_from_slice(&digest.to_le_bytes());
        }
    }

    /// Applies `mutation` to a saved artifact, every index taken modulo
    /// what it indexes, then makes the checksum hold again or leaves it —
    /// a checksum only proves the bytes are the ones somebody wrote.
    fn mutated(saved: &Saved, mutation: &Mutation, restamp_it: bool) -> Vec<u8> {
        let mut bytes = saved.bytes.clone();
        mutation.apply(&mut bytes, &saved.fields, false);
        if restamp_it {
            restamp(&mut bytes);
        }
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Hostile bytes through `load`, and what loads through the
        /// mapping (seed-table derivation included): a typed error or a
        /// platform, never a panic, and never an allocation sized by a
        /// field the bytes do not back — a length of 2⁴⁰ or 2⁶² would abort
        /// the test, not fail it.
        #[test]
        fn mutated_artifacts_load_or_fail_typed(
            kind in 0u8..4,
            a in any::<usize>(),
            b in any::<usize>(),
            c in any::<u64>(),
            restamp_it in any::<bool>(),
        ) {
            let saved = saved_with_layout();
            let mutation = Mutation::from_draws(kind, a, b, c);
            let bytes = mutated(&saved, &mutation, restamp_it);
            match IndexArtifact::load(&bytes[..]) {
                Ok(artifact) => {
                    prop_assert!(
                        artifact.index_bytes() <= 2 * saved.bytes.len(),
                        "{:?}",
                        mutation
                    );
                    let platform =
                        Platform::from_artifact(&artifact, PimAlignerConfig::baseline(), true);
                    prop_assert!(std::ptr::eq(platform.mapped().index(), artifact.index()));
                    let telemetry = platform.index_telemetry();
                    prop_assert_eq!(artifact.sa_rate(), telemetry.sa_rate);
                    prop_assert_eq!(artifact.index_bytes() as u64, telemetry.actual_bytes);
                    prop_assert_eq!(artifact.model_bytes() as u64, telemetry.model_bytes);
                }
                Err(LoadIndexError::Io(e)) => {
                    prop_assert!(false, "{:?}: a slice cannot fail: {}", mutation, e)
                }
                Err(e) => prop_assert!(!e.to_string().is_empty(), "{:?}", mutation),
            }
        }
    }

    #[test]
    fn the_mutator_reaches_every_layer() {
        // The pristine bytes load; a flipped marker fails at the
        // checksum; with that restamped, in the index's cross-check
        // against its BWT — so the sweep above is not a sweep of one
        // checksum test.
        let saved = saved_with_layout();
        assert!(IndexArtifact::load(&saved.bytes[..]).is_ok());
        let (bucket_count, width) = saved.fields[BUCKET_COUNT];
        let flip = Mutation::BitFlip(bucket_count + width, 0);
        let error = |restamp_it| {
            IndexArtifact::load(&mutated(&saved, &flip, restamp_it)[..])
                .unwrap_err()
                .to_string()
        };
        assert!(
            error(false).contains("checksum mismatch"),
            "{}",
            error(false)
        );
        assert!(error(true).contains("disagrees"), "{}", error(true));
        // An index no platform can map — sound, but bucketed by 64 — in
        // place of the artifact's.
        let reference = genome::uniform(5_000, 61).to_packed();
        let narrow = FmIndex::builder()
            .bucket_width(64)
            .sa_storage(SaStorage::Sampled(4))
            .build(&reference);
        let mut bytes = Vec::new();
        fm_io::save("mut", &reference, &narrow, &mut bytes).expect("save");
        match IndexArtifact::load(&bytes[..]).unwrap_err() {
            LoadIndexError::Corrupt(msg) => assert!(msg.contains("buckets of 64"), "{msg}"),
            other => panic!("expected Corrupt, got {other}"),
        }
    }

    /// The bytes an artifact serialises to are a contract with every
    /// artifact already on disk, and the proof that a change to the
    /// build path (parse, SA-IS, tables, sampling, save) changed no
    /// byte: length and trailing checksum per genome and sampling rate.
    /// The rows were re-taken when the sampled SA became a row bitmap and
    /// its values (lengths 81 432 → 62 692, 43 928 → 43 940 at rate 32,
    /// where the two layouts are even, and 325 184 → 250 196 bytes), when
    /// its values became `v / rate` packed in the bits `⌊(rows − 1)/rate⌋`
    /// needs (62 692 → 47 849, 43 940 → 39 841 and 250 196 → 197 073
    /// bytes), and when `PIMAIX2` dropped the previous format's second
    /// magic and checksum, SA-rate header, geometry fields and length
    /// prefix: every row 60 bytes shorter, its bytes between magic and
    /// trailer those of the previous format with the 60 cut out.
    #[test]
    fn saved_bytes_are_golden() {
        let uniform = genome::uniform(50_000, 7).to_packed();
        let repeats =
            genome::repeat_rich(200_000, genome::RepeatProfile::default(), 0x5a15).to_packed();
        /// `(sa_rate, bytes, trailer)`.
        type Row = (u32, usize, u64);
        let golden: [(&str, &PackedSeq, &[Row]); 2] = [
            (
                "uniform",
                &uniform,
                &[
                    (1, 231_356, 0xc4ad_bbad_670f_826b),
                    (8, 47_789, 0x3d1e_f0ea_d374_8702),
                    (32, 39_781, 0xf0df_59ad_b063_6b8d),
                ],
            ),
            (
                "repeats",
                &repeats,
                &[
                    (1, 925_108, 0x5874_1056_1659_9b1a),
                    (8, 197_013, 0x27ed_dc2c_baf4_d00e),
                ],
            ),
        ];
        for (name, reference, rows) in golden {
            for &(rate, len, trailer) in rows {
                let mut bytes = Vec::new();
                let artifact = IndexArtifact::new("golden", reference.clone(), rate);
                artifact.save(&mut bytes).expect("save");
                let (_, tail) = bytes.split_at(bytes.len() - 8);
                assert_eq!(
                    (bytes.len(), u64::from_le_bytes(tail.try_into().unwrap())),
                    (len, trailer),
                    "{name} rate {rate}"
                );
            }
        }
    }

    #[test]
    fn budget_picks_the_densest_fitting_rate() {
        let len = 1 << 20;
        let full = size_model::footprint(len, SubArrayLayout::BASES_PER_ROW, 1).total_bytes();
        assert_eq!(sa_rate_for_budget(len, full), Some(1));
        // Rate 2 stores a bit a row and ceil(n/2) values of 20 bits,
        // 1.375 B/bp against the full SA's 4 (2.125 while the values were
        // u32s), so it is the first rate below a full-SA budget (4 while
        // sampled rows were 8-byte (row, value) pairs).
        assert_eq!(sa_rate_for_budget(len, full - 1), Some(2));
        let sparse = size_model::footprint(len, SubArrayLayout::BASES_PER_ROW, 1024).total_bytes();
        assert_eq!(sa_rate_for_budget(len, sparse), Some(1024));
        assert_eq!(sa_rate_for_budget(len, sparse - 1), None);
    }

    #[test]
    fn model_matches_actual_bytes() {
        let artifact = test_artifact(4_000);
        let actual = artifact.index_bytes();
        let model = artifact.model_bytes();
        let diff = actual.abs_diff(model);
        assert!(
            diff * 1000 <= model,
            "model {model} vs actual {actual} off by more than 0.1%"
        );
    }

    #[test]
    fn warm_boot_report_carries_index_telemetry() {
        let reference = genome::uniform(1_500, 21);
        let artifact = IndexArtifact::new("r", reference.to_packed(), 2);
        let reads: Vec<_> = (0..8)
            .map(|i| reference.subseq(i * 100..i * 100 + 40))
            .collect();
        for loaded in [true, false] {
            let platform = Platform::from_artifact(&artifact, PimAlignerConfig::baseline(), loaded);
            let (_, totals) = platform
                .align_chunk_parallel(&reads, 1, 0, false)
                .expect("align");
            let index = platform.batch_report(&totals).index;
            assert_eq!(index.loaded, loaded);
            assert_eq!(index.sa_rate, 2);
            assert_eq!(index.actual_bytes, artifact.index_bytes() as u64);
            assert_eq!(index.model_bytes, artifact.model_bytes() as u64);
        }
    }
}
