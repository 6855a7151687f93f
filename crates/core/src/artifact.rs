//! The on-disk index artifact: build once, load many.
//!
//! The paper's platform maps the FM-index into the MRAM sub-arrays once
//! and then serves queries in place; rebuilding the index (SA-IS + BWT +
//! tables) for every run throws that asymmetry away. This module makes
//! the serialised index a first-class artifact: [`IndexArtifact`] packs
//! the reference, the suffix-array sampling policy and one or more
//! fixed-window [`FmIndex`] shards into a single checksummed file, and
//! [`ShardedPlatform`] boots warm [`Platform`]s from it — only the
//! sub-array mapping runs at load time.
//!
//! # Container format (`PIMAIX1`)
//!
//! All integers little-endian. The FNV-1a-64 checksum covers every byte
//! after the magic and before the trailer.
//!
//! ```text
//! magic            8 bytes   "PIMAIX1\n"
//! name length      u64       reference name (UTF-8) byte count
//! name             bytes
//! reference length u64       bases
//! reference        ceil(len/4) bytes, 2-bit packed (T=00 G=01 A=10 C=11)
//! sa_rate          u32       1 = full suffix array, s > 1 = sampled
//! shard window     u64       owned bases per shard
//! shard overlap    u64       extra slice bases past the owned window
//! shard count      u64
//! per shard:
//!   start          u64       first owned reference position
//!   byte length    u64       length of the embedded index stream
//!   index          bytes     a complete `PIMFMI4` stream (fmindex::io)
//! checksum         u64       FNV-1a-64 over the body
//! ```
//!
//! Each shard's index stream is length-prefixed because the inner loader
//! probes for end-of-stream; the prefix gives it a bounded slice so the
//! probe cannot consume the next shard's first byte.
//!
//! # Shard model
//!
//! Shard `i` *owns* reference positions `[i·window, (i+1)·window)` (the
//! last shard owns through the end) but is *built* over the slice
//! extended by `overlap` bases, so every alignment starting in the owned
//! window fits entirely inside the slice as long as
//! `read_len + max_diffs <= overlap`. [`ShardedPlatform::align_chunk`]
//! enforces that bound with
//! [`AlignError::ReadExceedsShardOverlap`], aligns the chunk against
//! every shard, translates hits to global coordinates, keeps only the
//! positions each shard owns and merges per read — exact hits beat
//! inexact, inexact hits keep the fewest-difference positions. Under an
//! ideal fault model the merged outcomes are identical to a single
//! unsharded platform over the whole reference.

use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

use bioseq::{Base, DnaSeq};
use fmindex::io as fm_io;
use fmindex::{size_model, FmIndex, SaStorage, SuffixArraySamples};
use pimsim::SubArrayLayout;

use crate::aligner::{AlignmentOutcome, MappedStrand};
use crate::config::PimAlignerConfig;
use crate::error::AlignError;
use crate::parallel::BatchTotals;
use crate::platform::Platform;
use crate::report::{IndexTelemetry, PerfReport};

/// Magic prefix of the artifact container.
pub const ARTIFACT_MAGIC: &[u8; 8] = b"PIMAIX1\n";

/// Suffix-array sampling rates [`sa_rate_for_budget`] considers, best
/// (densest) first.
pub const BUDGET_RATES: [u32; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// Why an artifact stream could not be loaded.
#[derive(Debug)]
pub enum LoadArtifactError {
    /// The underlying reader failed for a reason other than truncation.
    Io(io::Error),
    /// The stream does not start with [`ARTIFACT_MAGIC`].
    BadMagic,
    /// The container is structurally damaged: truncated section,
    /// checksum mismatch, inconsistent shard geometry or trailing bytes.
    Corrupt(String),
    /// An embedded per-shard index stream failed to parse.
    Shard(fm_io::LoadIndexError),
}

impl fmt::Display for LoadArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadArtifactError::Io(e) => write!(f, "I/O error reading index artifact: {e}"),
            LoadArtifactError::BadMagic => {
                write!(f, "not a PIM-Aligner index artifact (bad magic)")
            }
            LoadArtifactError::Corrupt(what) => write!(f, "corrupt index artifact: {what}"),
            // A shard of an older format is sound, only not readable here.
            LoadArtifactError::Shard(e @ fm_io::LoadIndexError::Version(_)) => {
                write!(f, "index artifact shard: {e}")
            }
            LoadArtifactError::Shard(e) => write!(f, "corrupt index artifact shard: {e}"),
        }
    }
}

impl std::error::Error for LoadArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadArtifactError::Io(e) => Some(e),
            LoadArtifactError::Shard(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for LoadArtifactError {
    fn from(e: io::Error) -> LoadArtifactError {
        LoadArtifactError::Io(e)
    }
}

impl From<fm_io::LoadIndexError> for LoadArtifactError {
    fn from(e: fm_io::LoadIndexError) -> LoadArtifactError {
        LoadArtifactError::Shard(e)
    }
}

/// One shard of the artifact: a complete FM-index over a reference slice.
#[derive(Debug)]
pub struct ArtifactShard {
    /// First reference position this shard owns (== start of its slice).
    start: usize,
    /// The index over `reference[start .. start + slice_len]`, shared
    /// with every platform booted from this shard.
    index: Arc<FmIndex>,
}

impl ArtifactShard {
    /// First owned (and sliced) reference position.
    pub fn start(&self) -> usize {
        self.start
    }

    /// The shard's FM-index.
    pub fn index(&self) -> &FmIndex {
        &self.index
    }

    /// Levels in the seed table of this shard's text.
    fn seed_depth(&self) -> usize {
        size_model::seed_depth(self.index.text_len())
    }
}

/// A buildable, serialisable, loadable index artifact: reference +
/// sampling policy + fixed-window FM-index shards.
#[derive(Debug)]
pub struct IndexArtifact {
    reference_name: String,
    reference: DnaSeq,
    sa_rate: u32,
    shard_window: usize,
    shard_overlap: usize,
    shards: Vec<ArtifactShard>,
}

impl IndexArtifact {
    /// Builds the artifact in memory: one FM-index per shard window.
    ///
    /// `shard_window == 0` means "do not shard" — a single shard covering
    /// the whole reference (overlap is then irrelevant and stored as 0).
    /// `sa_rate == 1` keeps the full suffix array; larger rates sample it.
    ///
    /// # Panics
    ///
    /// Panics when the reference is empty, `sa_rate == 0`, or a non-zero
    /// `shard_window` is paired with a zero `shard_overlap` (such a
    /// geometry could never align any read near a shard boundary).
    pub fn build(
        reference_name: &str,
        reference: &DnaSeq,
        sa_rate: u32,
        shard_window: usize,
        shard_overlap: usize,
    ) -> IndexArtifact {
        assert!(!reference.is_empty(), "cannot index an empty reference");
        assert!(sa_rate > 0, "SA sampling rate must be positive");
        let (window, overlap) = if shard_window == 0 || shard_window >= reference.len() {
            (reference.len(), 0)
        } else {
            assert!(
                shard_overlap > 0,
                "sharded artifacts need a positive overlap (>= read length + diff budget)"
            );
            (shard_window, shard_overlap)
        };
        let storage = if sa_rate == 1 {
            SaStorage::Full
        } else {
            SaStorage::Sampled(sa_rate)
        };
        let builder = FmIndex::builder()
            .bucket_width(SubArrayLayout::BASES_PER_ROW)
            .sa_storage(storage);
        let count = reference.len().div_ceil(window);
        let mut shards = Vec::with_capacity(count);
        for i in 0..count {
            let start = i * window;
            let slice_end = (start + window + overlap).min(reference.len());
            // An unsharded artifact indexes the reference itself, not a
            // full-length copy of it.
            let index = if count == 1 {
                builder.clone().build(reference)
            } else {
                builder.clone().build(&reference.subseq(start..slice_end))
            };
            shards.push(ArtifactShard {
                start,
                index: Arc::new(index),
            });
        }
        // The artifact's own copy of the reference is made only now, so
        // it is not resident while SA-IS runs.
        IndexArtifact {
            reference_name: reference_name.to_string(),
            reference: reference.clone(),
            sa_rate,
            shard_window: window,
            shard_overlap: overlap,
            shards,
        }
    }

    /// The reference name recorded in the artifact.
    pub fn reference_name(&self) -> &str {
        &self.reference_name
    }

    /// The embedded reference genome.
    pub fn reference(&self) -> &DnaSeq {
        &self.reference
    }

    /// Suffix-array sampling rate (1 = full).
    pub fn sa_rate(&self) -> u32 {
        self.sa_rate
    }

    /// Owned bases per shard.
    pub fn shard_window(&self) -> usize {
        self.shard_window
    }

    /// Slice extension past the owned window.
    pub fn shard_overlap(&self) -> usize {
        self.shard_overlap
    }

    /// The shards, in reference order.
    pub fn shards(&self) -> &[ArtifactShard] {
        &self.shards
    }

    /// Total index bytes across all shards, as a platform holds them: the
    /// serialisable tables ([`FmIndex::size_bytes`]; container framing
    /// excluded) and [`IndexArtifact::seed_bytes`].
    pub fn index_bytes(&self) -> usize {
        let stored: usize = self.shards.iter().map(|s| s.index.size_bytes()).sum();
        stored + self.seed_bytes()
    }

    /// Levels in the seed table a platform derives from a shard when it
    /// maps it (beyond the paper; stored in no artifact): the deepest
    /// over the shards, 0 where none is long enough for a table.
    pub fn seed_depth(&self) -> usize {
        let depths = self.shards.iter().map(|s| s.seed_depth());
        depths.max().unwrap_or(0)
    }

    /// Bits a stored suffix-array value takes: 32 for the full array, and
    /// for a sampled one those of `⌊(rows − 1)/rate⌋`, the widest over
    /// the shards.
    pub fn sa_value_bits(&self) -> u32 {
        let bits = self.shards.iter().map(|s| match s.index.sa_samples() {
            SuffixArraySamples::Full(_) => u32::BITS,
            SuffixArraySamples::Sampled { stored, .. } => stored.value_bits(),
        });
        bits.max().unwrap_or(0)
    }

    /// Bytes of those tables, summed over the shards.
    pub fn seed_bytes(&self) -> usize {
        let tables = self
            .shards
            .iter()
            .map(|s| size_model::seed_bytes(s.seed_depth(), s.index.text_len()));
        tables.sum()
    }

    /// What [`size_model::footprint`] predicts for this artifact's
    /// geometry: the per-shard-slice footprints summed.
    pub fn model_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let slice_end =
                    (s.start + self.shard_window + self.shard_overlap).min(self.reference.len());
                size_model::footprint(
                    slice_end - s.start,
                    SubArrayLayout::BASES_PER_ROW,
                    self.sa_rate as usize,
                )
                .total_bytes()
            })
            .sum()
    }

    /// Serialises the artifact: magic, body, trailing FNV-1a-64 checksum.
    /// The body is hashed as it is written — never staged in memory.
    pub fn save<W: Write>(&self, mut writer: W) -> io::Result<()> {
        writer.write_all(ARTIFACT_MAGIC)?;
        let mut body = fm_io::HashingWriter::new(&mut writer);
        self.save_body(&mut body)?;
        let digest = body.digest();
        writer.write_all(&digest.to_le_bytes())?;
        writer.flush()
    }

    fn save_body<W: Write>(&self, body: &mut fm_io::HashingWriter<W>) -> io::Result<()> {
        let name = self.reference_name.as_bytes();
        body.write_all(&(name.len() as u64).to_le_bytes())?;
        body.write_all(name)?;
        body.write_all(&(self.reference.len() as u64).to_le_bytes())?;
        body.write_all(self.reference.to_packed().as_bytes())?;
        body.write_all(&self.sa_rate.to_le_bytes())?;
        body.write_all(&(self.shard_window as u64).to_le_bytes())?;
        body.write_all(&(self.shard_overlap as u64).to_le_bytes())?;
        body.write_all(&(self.shards.len() as u64).to_le_bytes())?;
        for shard in &self.shards {
            body.write_all(&(shard.start as u64).to_le_bytes())?;
            let stream_len = fm_io::stream_len(&shard.index) as u64;
            body.write_all(&stream_len.to_le_bytes())?;
            let stream_start = body.written();
            fm_io::save(&shard.index, &mut *body)?;
            // The length prefix was written before the stream it
            // describes; a loader trusts it to find the next shard.
            if body.written() - stream_start != stream_len {
                return Err(io::Error::other(
                    "index stream length differs from its length prefix",
                ));
            }
        }
        Ok(())
    }

    /// Writes the artifact to `path`.
    pub fn save_to_path(&self, path: &Path) -> io::Result<()> {
        let mut file = io::BufWriter::new(File::create(path)?);
        self.save(&mut file)
    }

    /// Loads an artifact: verifies the magic and the trailing checksum,
    /// then parses the body, including every embedded shard stream.
    ///
    /// # Errors
    ///
    /// [`LoadArtifactError::BadMagic`] for foreign streams,
    /// [`LoadArtifactError::Corrupt`] for truncation / checksum / geometry
    /// damage (with the failing section named),
    /// [`LoadArtifactError::Shard`] when an embedded index stream is
    /// itself damaged, and [`LoadArtifactError::Io`] for genuine reader
    /// failures.
    pub fn load<R: Read>(mut reader: R) -> Result<IndexArtifact, LoadArtifactError> {
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                LoadArtifactError::Corrupt("truncated in magic".to_string())
            } else {
                LoadArtifactError::Io(e)
            }
        })?;
        if &magic != ARTIFACT_MAGIC {
            return Err(LoadArtifactError::BadMagic);
        }
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest)?;
        if rest.len() < 8 {
            return Err(LoadArtifactError::Corrupt(
                "truncated in checksum trailer".to_string(),
            ));
        }
        let (body, trailer) = rest.split_at(rest.len() - 8);
        let stored = u64::from_le_bytes(
            trailer
                .try_into()
                .expect("split_at(len - 8) of 8 or more bytes leaves an 8-byte trailer"),
        );
        if fm_io::fnv1a(body) != stored {
            return Err(LoadArtifactError::Corrupt("checksum mismatch".to_string()));
        }
        Self::parse_body(body)
    }

    /// Reads an artifact from `path`.
    pub fn load_from_path(path: &Path) -> Result<IndexArtifact, LoadArtifactError> {
        IndexArtifact::load(io::BufReader::new(File::open(path)?))
    }

    fn parse_body(body: &[u8]) -> Result<IndexArtifact, LoadArtifactError> {
        let mut cursor = Cursor { body, pos: 0 };
        let name_len = cursor.u64("name length")? as usize;
        let name_bytes = cursor.bytes(name_len, "name")?;
        let reference_name = String::from_utf8(name_bytes.to_vec())
            .map_err(|_| LoadArtifactError::Corrupt("name is not UTF-8".to_string()))?;
        let ref_len = cursor.u64("reference length")? as usize;
        if ref_len == 0 {
            return Err(LoadArtifactError::Corrupt("empty reference".to_string()));
        }
        let packed = cursor.bytes(ref_len.div_ceil(4), "reference")?;
        // One packed byte is four 2-bit base codes, low bits first.
        let mut bases = Vec::with_capacity(packed.len() * 4);
        for &byte in packed {
            bases.extend_from_slice(&[
                Base::from_code(byte),
                Base::from_code(byte >> 2),
                Base::from_code(byte >> 4),
                Base::from_code(byte >> 6),
            ]);
        }
        bases.truncate(ref_len);
        let reference = DnaSeq::from_bases(bases);
        let sa_rate = cursor.u32("SA rate")?;
        if sa_rate == 0 {
            return Err(LoadArtifactError::Corrupt("zero SA rate".to_string()));
        }
        let shard_window = cursor.u64("shard window")? as usize;
        let shard_overlap = cursor.u64("shard overlap")? as usize;
        let shard_count = cursor.u64("shard count")? as usize;
        if shard_window == 0 || shard_count != ref_len.div_ceil(shard_window) {
            return Err(LoadArtifactError::Corrupt(format!(
                "shard geometry mismatch: {shard_count} shards of window {shard_window} \
                 over {ref_len} bases"
            )));
        }
        // Grown per parsed shard: the count is a header field, the
        // shards behind it may not be there.
        let mut shards = Vec::new();
        for i in 0..shard_count {
            let start = cursor.u64("shard start")? as usize;
            if start != i * shard_window {
                return Err(LoadArtifactError::Corrupt(format!(
                    "shard {i} starts at {start}, expected {}",
                    i * shard_window
                )));
            }
            let stream_len = cursor.u64("shard byte length")? as usize;
            let stream = cursor.bytes(stream_len, "shard index stream")?;
            let index = fm_io::load_bytes(stream)?;
            let slice_len = start
                .saturating_add(shard_window)
                .saturating_add(shard_overlap)
                .min(ref_len)
                - start;
            if index.reference_len() != slice_len {
                return Err(LoadArtifactError::Corrupt(format!(
                    "shard {i} indexes {} bases, expected {slice_len}",
                    index.reference_len()
                )));
            }
            // A stream can be a sound index and still not one a platform
            // can map: `MappedIndex::from_index` asserts this width.
            if index.bucket_width() != SubArrayLayout::BASES_PER_ROW {
                return Err(LoadArtifactError::Corrupt(format!(
                    "shard {i} has Occ buckets of {} bases, a word line holds {}",
                    index.bucket_width(),
                    SubArrayLayout::BASES_PER_ROW
                )));
            }
            shards.push(ArtifactShard {
                start,
                index: Arc::new(index),
            });
        }
        if cursor.pos != body.len() {
            return Err(LoadArtifactError::Corrupt(
                "trailing bytes after the last shard".to_string(),
            ));
        }
        Ok(IndexArtifact {
            reference_name,
            reference,
            sa_rate,
            shard_window,
            shard_overlap,
            shards,
        })
    }
}

struct Cursor<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn bytes(&mut self, n: usize, section: &str) -> Result<&'a [u8], LoadArtifactError> {
        if self.body.len() - self.pos < n {
            return Err(LoadArtifactError::Corrupt(format!(
                "truncated in {section}"
            )));
        }
        let out = &self.body[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u64(&mut self, section: &str) -> Result<u64, LoadArtifactError> {
        Ok(u64::from_le_bytes(
            self.bytes(8, section)?
                .try_into()
                .expect("bytes(8, _) returns 8 bytes or an error"),
        ))
    }

    fn u32(&mut self, section: &str) -> Result<u32, LoadArtifactError> {
        Ok(u32::from_le_bytes(
            self.bytes(4, section)?
                .try_into()
                .expect("bytes(4, _) returns 4 bytes or an error"),
        ))
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

struct ShardRuntime {
    start: usize,
    /// One past the last owned position (`start + window`, clamped).
    owned_end: usize,
    platform: Platform,
}

/// One or more warm [`Platform`]s booted from an [`IndexArtifact`],
/// aligned against together with merged outcomes and totals.
pub struct ShardedPlatform {
    shards: Vec<ShardRuntime>,
    config: PimAlignerConfig,
    sa_rate: u32,
    shard_window: usize,
    shard_overlap: usize,
    actual_bytes: u64,
    model_bytes: u64,
    loaded: bool,
}

impl ShardedPlatform {
    /// Boots warm platforms from the artifact: only the sub-array
    /// mapping runs per shard; each platform shares its shard's
    /// FM-index with the artifact rather than copying it.
    ///
    /// `loaded` records provenance for telemetry — pass `true` when the
    /// artifact came off disk, `false` when it was just built in-process.
    pub fn from_artifact(
        artifact: &IndexArtifact,
        config: PimAlignerConfig,
        loaded: bool,
    ) -> ShardedPlatform {
        let reference = artifact.reference();
        let actual_bytes = artifact.index_bytes() as u64;
        let model_bytes = artifact.model_bytes() as u64;
        let mut shards = Vec::with_capacity(artifact.shards().len());
        for shard in artifact.shards() {
            let start = shard.start();
            let owned_end = (start + artifact.shard_window()).min(reference.len());
            let slice_end =
                (start + artifact.shard_window() + artifact.shard_overlap()).min(reference.len());
            let slice = reference.subseq(start..slice_end);
            let platform = Platform::from_index(slice, Arc::clone(&shard.index), config.clone());
            shards.push(ShardRuntime {
                start,
                owned_end,
                platform,
            });
        }
        ShardedPlatform {
            shards,
            config,
            sa_rate: artifact.sa_rate(),
            shard_window: artifact.shard_window(),
            shard_overlap: artifact.shard_overlap(),
            actual_bytes,
            model_bytes,
            loaded,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The single underlying platform, when the artifact is unsharded.
    pub fn single_platform(&self) -> Option<&Platform> {
        match &self.shards[..] {
            [only] => Some(&only.platform),
            _ => None,
        }
    }

    /// The index telemetry this platform stamps into its reports.
    pub fn index_telemetry(&self) -> IndexTelemetry {
        IndexTelemetry {
            loaded: self.loaded,
            shards: self.shards.len() as u64,
            sa_rate: self.sa_rate,
            shard_window: self.shard_window as u64,
            shard_overlap: self.shard_overlap as u64,
            actual_bytes: self.actual_bytes,
            model_bytes: self.model_bytes,
        }
    }

    /// The largest read length the shard overlap can cover
    /// (`overlap - max_diffs`); `usize::MAX` when unsharded.
    pub fn read_len_budget(&self) -> usize {
        if self.shards.len() == 1 {
            usize::MAX
        } else {
            self.shard_overlap
                .saturating_sub(self.config.max_diffs() as usize)
        }
    }

    /// Aligns one chunk of reads against every shard concurrently (each
    /// shard runs the work-stealing parallel engine) and merges per read:
    /// positions translate to global coordinates, each shard keeps only
    /// the positions it owns, exact hits beat inexact, and inexact hits
    /// keep the fewest-difference positions. With `both_strands`, reads
    /// left unmapped by the merged forward pass retry as their reverse
    /// complement — mirroring the unsharded two-phase strand policy.
    ///
    /// The merged [`BatchTotals`] counts each input read once
    /// (`reads`/`exact_hits` describe the merged outcomes) while
    /// `queries`, `lfm_calls` and the cycle ledger accumulate the work
    /// every shard actually performed.
    ///
    /// # Errors
    ///
    /// [`AlignError::EmptyBatch`], [`AlignError::NoThreads`],
    /// [`AlignError::ChunkTooLong`], or
    /// [`AlignError::ReadExceedsShardOverlap`] when a read (plus the
    /// configured difference budget) does not fit the shard overlap.
    pub fn align_chunk(
        &self,
        reads: &[DnaSeq],
        threads: usize,
        epoch: u64,
        both_strands: bool,
    ) -> Result<(Vec<(AlignmentOutcome, MappedStrand)>, BatchTotals), AlignError> {
        if reads.is_empty() {
            return Err(AlignError::EmptyBatch);
        }
        if threads == 0 {
            return Err(AlignError::NoThreads);
        }
        let budget = self.read_len_budget();
        if let Some(read) = reads.iter().find(|r| r.len() > budget) {
            return Err(AlignError::ReadExceedsShardOverlap {
                read_len: read.len(),
                budget,
            });
        }
        if let Some(platform) = self.single_platform() {
            return platform.align_chunk_parallel(reads, threads, epoch, both_strands);
        }

        let mut totals = BatchTotals::new();
        let forward = self.merged_forward_pass(reads, threads, epoch, &mut totals)?;

        let mut merged: Vec<(AlignmentOutcome, MappedStrand)> = forward
            .into_iter()
            .map(|o| (o, MappedStrand::Forward))
            .collect();
        if both_strands {
            let retry: Vec<usize> = merged
                .iter()
                .enumerate()
                .filter(|(_, (o, _))| !o.is_mapped())
                .map(|(i, _)| i)
                .collect();
            if !retry.is_empty() {
                let rev: Vec<DnaSeq> = retry
                    .iter()
                    .map(|&i| reads[i].reverse_complement())
                    .collect();
                let outcomes = self.merged_forward_pass(&rev, threads, epoch, &mut totals)?;
                for (&i, outcome) in retry.iter().zip(outcomes) {
                    if outcome.is_mapped() {
                        merged[i] = (outcome, MappedStrand::Reverse);
                    }
                }
            }
        }

        // The shard passes each counted the whole chunk; the merged
        // totals describe it once, with exact hits recomputed from the
        // merged outcomes.
        totals.reads = reads.len() as u64;
        totals.exact_hits = merged
            .iter()
            .filter(|(o, _)| matches!(o, AlignmentOutcome::Exact { .. }))
            .count() as u64;
        Ok((merged, totals))
    }

    /// Runs the forward strand over every shard and merges per read.
    fn merged_forward_pass(
        &self,
        reads: &[DnaSeq],
        threads: usize,
        epoch: u64,
        totals: &mut BatchTotals,
    ) -> Result<Vec<AlignmentOutcome>, AlignError> {
        let mut merged: Vec<AlignmentOutcome> = vec![AlignmentOutcome::Unmapped; reads.len()];
        for shard in &self.shards {
            let (pairs, shard_totals) = shard
                .platform
                .align_chunk_parallel(reads, threads, epoch, false)?;
            totals.merge(&shard_totals);
            for (read_idx, (outcome, _)) in pairs.into_iter().enumerate() {
                let owned = shard.translate_owned(outcome);
                merge_into(&mut merged[read_idx], owned);
            }
        }
        Ok(merged)
    }

    /// The performance report for accumulated totals: like
    /// [`Platform::batch_report`] but with every shard's one-time build
    /// fault counters and mapping cycles added, and the index telemetry
    /// stamped in.
    pub fn batch_report(&self, totals: &BatchTotals) -> PerfReport {
        let mut report = PerfReport::from_batch(
            &self.config,
            &totals.ledger,
            totals.queries,
            totals.lfm_calls,
        );
        report.faults = totals.telemetry;
        let mut build_cycles = 0;
        for shard in &self.shards {
            let mapped = shard.platform.mapped();
            report
                .faults
                .absorb_injected(&mapped.build_fault_counters());
            build_cycles += mapped.mapping_ledger().total_busy_cycles();
        }
        report.breakdown.lfm_by_phase = totals.phase_lfm;
        report.breakdown.index_build_cycles = build_cycles;
        report.host = totals.host.clone();
        report.index = self.index_telemetry();
        report
    }
}

impl ShardRuntime {
    /// Translates a shard-local outcome to global coordinates and drops
    /// the positions this shard does not own. An outcome left with no
    /// positions degrades to `Unmapped`.
    fn translate_owned(&self, outcome: AlignmentOutcome) -> AlignmentOutcome {
        match outcome {
            AlignmentOutcome::Exact { positions } => {
                let kept = self.owned_global(positions);
                if kept.is_empty() {
                    AlignmentOutcome::Unmapped
                } else {
                    AlignmentOutcome::Exact { positions: kept }
                }
            }
            AlignmentOutcome::Inexact { positions, diffs } => {
                let kept = self.owned_global(positions);
                if kept.is_empty() {
                    AlignmentOutcome::Unmapped
                } else {
                    AlignmentOutcome::Inexact {
                        positions: kept,
                        diffs,
                    }
                }
            }
            AlignmentOutcome::Unmapped => AlignmentOutcome::Unmapped,
        }
    }

    fn owned_global(&self, local: Vec<usize>) -> Vec<usize> {
        local
            .into_iter()
            .map(|p| p + self.start)
            .filter(|&g| g < self.owned_end)
            .collect()
    }
}

/// Merges one shard's (owned, global-coordinate) outcome into the
/// accumulator for a read: exact beats inexact beats unmapped; equal
/// tiers union their positions (inexact keeps the fewer-difference
/// side on a diff tie-break).
fn merge_into(acc: &mut AlignmentOutcome, next: AlignmentOutcome) {
    use AlignmentOutcome::{Exact, Inexact, Unmapped};
    let merged = match (std::mem::replace(acc, Unmapped), next) {
        (Exact { positions: a }, Exact { positions: b }) => Exact {
            positions: union_sorted(a, b),
        },
        (e @ Exact { .. }, _) => e,
        (_, e @ Exact { .. }) => e,
        (
            Inexact {
                positions: a,
                diffs: da,
            },
            Inexact {
                positions: b,
                diffs: db,
            },
        ) => {
            if da < db {
                Inexact {
                    positions: a,
                    diffs: da,
                }
            } else if db < da {
                Inexact {
                    positions: b,
                    diffs: db,
                }
            } else {
                Inexact {
                    positions: union_sorted(a, b),
                    diffs: da,
                }
            }
        }
        (i @ Inexact { .. }, Unmapped) => i,
        (Unmapped, i @ Inexact { .. }) => i,
        (Unmapped, Unmapped) => Unmapped,
    };
    *acc = merged;
}

/// Union of two position lists, sorted and deduplicated. Ownership
/// filtering makes cross-shard duplicates impossible, but dedup anyway —
/// the SAM writer expects strictly sorted positions.
fn union_sorted(mut a: Vec<usize>, b: Vec<usize>) -> Vec<usize> {
    a.extend(b);
    a.sort_unstable();
    a.dedup();
    a
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use readsim::genome;

    fn test_artifact(len: usize, window: usize) -> IndexArtifact {
        let reference = genome::uniform(len, 97);
        IndexArtifact::build("test-ref", &reference, 4, window, 96)
    }

    #[test]
    fn container_round_trips() {
        let artifact = test_artifact(2_000, 512);
        assert_eq!(artifact.shards().len(), 4);
        let mut buffer = Vec::new();
        artifact.save(&mut buffer).expect("save");
        let loaded = IndexArtifact::load(&buffer[..]).expect("load");
        assert_eq!(loaded.reference_name(), "test-ref");
        assert_eq!(loaded.reference(), artifact.reference());
        assert_eq!(loaded.sa_rate(), 4);
        assert_eq!(loaded.shard_window(), 512);
        assert_eq!(loaded.shard_overlap(), 96);
        assert_eq!(loaded.shards().len(), 4);
        for (a, b) in artifact.shards().iter().zip(loaded.shards()) {
            assert_eq!(a.start(), b.start());
            assert_eq!(a.index().size_bytes(), b.index().size_bytes());
            assert_eq!(a.index().bwt().to_string(), b.index().bwt().to_string());
        }
    }

    #[test]
    fn unsharded_build_normalises_geometry() {
        let reference = genome::uniform(500, 3);
        let artifact = IndexArtifact::build("r", &reference, 1, 0, 0);
        assert_eq!(artifact.shards().len(), 1);
        assert_eq!(artifact.shard_window(), 500);
        assert_eq!(artifact.shard_overlap(), 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = IndexArtifact::load(&b"NOTANIDX........"[..]).unwrap_err();
        assert!(matches!(err, LoadArtifactError::BadMagic), "{err}");
    }

    #[test]
    fn truncation_and_corruption_detected() {
        let artifact = test_artifact(600, 300);
        let mut buffer = Vec::new();
        artifact.save(&mut buffer).expect("save");

        // Truncation anywhere inside the trailer window.
        let cut = &buffer[..buffer.len() - 3];
        match IndexArtifact::load(cut).unwrap_err() {
            LoadArtifactError::Corrupt(msg) => assert!(msg.contains("checksum mismatch"), "{msg}"),
            other => panic!("expected Corrupt, got {other}"),
        }

        // A flipped body byte fails the checksum.
        let mut flipped = buffer.clone();
        flipped[20] ^= 0xff;
        match IndexArtifact::load(&flipped[..]).unwrap_err() {
            LoadArtifactError::Corrupt(msg) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected Corrupt, got {other}"),
        }

        // Trailing garbage shifts the trailer and fails the checksum.
        let mut extended = buffer.clone();
        extended.extend_from_slice(b"EXTRA");
        assert!(IndexArtifact::load(&extended[..]).is_err());
    }

    /// A checksum only proves the bytes are the ones written; a writer
    /// can still declare lengths it does not back. The declared
    /// reference here is 2³¹ bases in a stream of under 64 bytes.
    #[test]
    fn inflated_reference_length_is_truncation() {
        let mut stream = ARTIFACT_MAGIC.to_vec();
        stream.extend_from_slice(&1u64.to_le_bytes());
        stream.push(b'r');
        stream.extend_from_slice(&(1u64 << 31).to_le_bytes());
        stream.extend_from_slice(&[0u8; 8]);
        let digest = fm_io::fnv1a(&stream[8..]);
        stream.extend_from_slice(&digest.to_le_bytes());
        assert!(stream.len() <= 64);
        match IndexArtifact::load(&stream[..]).unwrap_err() {
            LoadArtifactError::Corrupt(msg) => assert_eq!(msg, "truncated in reference"),
            other => panic!("expected Corrupt, got {other}"),
        }
    }

    /// A saved two-shard artifact (each shard long enough for a seed
    /// table), with where its length and geometry fields sit, as
    /// `(offset, width)`, and where its shard streams do, as ranges.
    struct Saved {
        bytes: Vec<u8>,
        fields: Vec<(usize, usize)>,
        streams: Vec<std::ops::Range<usize>>,
    }

    fn saved_with_layout() -> Saved {
        let name = "mut";
        let artifact = IndexArtifact::build(name, &genome::uniform(5_000, 61), 4, 2_500, 100);
        assert_eq!(artifact.shards().len(), 2);
        // 2 601 and 2 501 rows: four levels each (two while every level
        // held a pair of u32s an entry, one at N/64 bytes).
        assert_eq!(artifact.seed_depth(), 4);
        let mut bytes = Vec::new();
        artifact.save(&mut bytes).expect("save");
        let mut fields = Vec::new();
        let mut streams = Vec::new();
        let mut pos = ARTIFACT_MAGIC.len();
        let mut field = |pos: &mut usize, width: usize| {
            fields.push((*pos, width));
            *pos += width;
        };
        field(&mut pos, 8); // name length
        pos += name.len();
        field(&mut pos, 8); // reference length
        pos += artifact.reference().len().div_ceil(4);
        field(&mut pos, 4); // SA rate
        field(&mut pos, 8); // shard window
        field(&mut pos, 8); // shard overlap
        field(&mut pos, 8); // shard count
        for shard in artifact.shards() {
            let index = shard.index();
            field(&mut pos, 8); // shard start
            field(&mut pos, 8); // stream length
            let start = pos;
            pos += fm_io::MAGIC.len();
            field(&mut pos, 8); // text length
            field(&mut pos, 8); // sentinel
            pos += index.text_len().div_ceil(4) + 16; // BWT, Count
            field(&mut pos, 8); // bucket width
            field(&mut pos, 8); // bucket count
            pos += index.marker_table().size_bytes() + 1; // markers, SA tag
            field(&mut pos, 4); // SA rate
            field(&mut pos, 8); // SA rows
            field(&mut pos, 8); // SA bitmap words
            pos += index.text_len().div_ceil(64) * 8;
            field(&mut pos, 1); // SA value width
            field(&mut pos, 8); // SA value words
            pos = start + fm_io::stream_len(index);
            streams.push(start..pos);
        }
        assert_eq!(pos + 8, bytes.len(), "the layout walk ends at the trailer");
        Saved {
            bytes,
            fields,
            streams,
        }
    }

    /// The hostile-bytes mutator of this crate's decoders: PIMAIX here,
    /// the wire protocol in `service::protocol`.
    #[derive(Debug)]
    pub(crate) enum Mutation {
        /// Keep this many bytes.
        Truncate(usize),
        /// Flip one bit of one byte.
        BitFlip(usize, u8),
        /// Overwrite a length or geometry field.
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
        /// indexes. `fields` holds the `(offset, width)` of each length or
        /// geometry field, which are `big_endian` or little; with none, an
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
    /// the 8-byte magic and them: both checksums are laid out so.
    fn restamp(stream: &mut [u8]) {
        if let Some(body_end) = stream.len().checked_sub(8).filter(|&end| end >= 8) {
            let digest = fm_io::fnv1a(&stream[8..body_end]);
            stream[body_end..].copy_from_slice(&digest.to_le_bytes());
        }
    }

    /// Applies `mutation` to a saved artifact, every index taken modulo
    /// what it indexes, then makes the checksums hold again: none, the
    /// container's, or the shard streams' and the container's — a
    /// checksum only proves the bytes are the ones somebody wrote.
    fn mutated(saved: &Saved, mutation: &Mutation, restamps: u8) -> Vec<u8> {
        let mut bytes = saved.bytes.clone();
        let len = bytes.len();
        mutation.apply(&mut bytes, &saved.fields, false);
        if restamps == 2 && bytes.len() == len {
            for stream in &saved.streams {
                restamp(&mut bytes[stream.clone()]);
            }
        }
        if restamps >= 1 {
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
            restamps in 0u8..3,
        ) {
            let saved = saved_with_layout();
            let mutation = Mutation::from_draws(kind, a, b, c);
            let bytes = mutated(&saved, &mutation, restamps);
            match IndexArtifact::load(&bytes[..]) {
                Ok(artifact) => {
                    prop_assert!(
                        artifact.index_bytes() <= 2 * saved.bytes.len(),
                        "{:?}",
                        mutation
                    );
                    let platform =
                        ShardedPlatform::from_artifact(&artifact, PimAlignerConfig::baseline(), true);
                    prop_assert_eq!(platform.shard_count(), artifact.shards().len());
                }
                Err(LoadArtifactError::Io(e)) => {
                    prop_assert!(false, "{:?}: a slice cannot fail: {}", mutation, e)
                }
                Err(e) => prop_assert!(!e.to_string().is_empty(), "{:?}", mutation),
            }
        }
    }

    #[test]
    fn the_mutator_reaches_every_layer() {
        // The pristine bytes load; a flipped marker fails at the
        // container's checksum; with that restamped, at the shard
        // stream's own; with both, in the index's cross-check against its
        // BWT — so the sweep above is not a sweep of one checksum test.
        let saved = saved_with_layout();
        assert!(IndexArtifact::load(&saved.bytes[..]).is_ok());
        let (bucket_count, width) = saved.fields[11];
        let flip = Mutation::BitFlip(bucket_count + width, 0);
        let error = |restamps| {
            IndexArtifact::load(&mutated(&saved, &flip, restamps)[..])
                .unwrap_err()
                .to_string()
        };
        assert!(error(0).contains("checksum mismatch"), "{}", error(0));
        assert!(error(1).contains("shard"), "{}", error(1));
        assert!(error(1).contains("checksum mismatch"), "{}", error(1));
        assert!(!error(2).contains("checksum"), "{}", error(2));
        // An index no platform can map — sound, but bucketed by 64 — in
        // place of the first shard's.
        let reference = genome::uniform(5_000, 61);
        let narrow = FmIndex::builder()
            .bucket_width(64)
            .sa_storage(SaStorage::Sampled(4))
            .build(&reference.subseq(0..2_600));
        let mut stream = Vec::new();
        fm_io::save(&narrow, &mut stream).expect("save");
        let first = saved.streams[0].clone();
        let mut bytes = saved.bytes[..first.start - 8].to_vec();
        bytes.extend_from_slice(&(stream.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&stream);
        bytes.extend_from_slice(&saved.bytes[first.end..]);
        restamp(&mut bytes);
        match IndexArtifact::load(&bytes[..]).unwrap_err() {
            LoadArtifactError::Corrupt(msg) => assert!(msg.contains("buckets of 64"), "{msg}"),
            other => panic!("expected Corrupt, got {other}"),
        }
    }

    /// The bytes an artifact serialises to are a contract with every
    /// artifact already on disk, and the proof that a change to the
    /// build path (parse, SA-IS, tables, sampling, save) changed no
    /// byte: length and trailing checksum per genome and geometry. The
    /// uniform full-SA rows without the 40 000 window are as they have
    /// been since the format was introduced, the other full-SA rows as
    /// they were taken at the parent of the one-pass build: a full SA is
    /// stored as `PIMFMI2` stored it, so with each shard stream's magic
    /// written back as `PIMFMI2` those bytes hash to the same trailer.
    /// The sampled rows were re-taken when the sampled SA became a row
    /// bitmap and its values (lengths 81 432 → 62 692, 83 092 → 63 984,
    /// 43 928 → 43 940 at rate 32, where the two layouts are even,
    /// 82 262 → 63 342, 325 184 → 250 196 and 328 472 → 252 764 bytes),
    /// and again when its values became `v / rate` packed in the bits
    /// `⌊(rows − 1)/rate⌋` needs (62 692 → 47 849, 63 984 → 47 887,
    /// 43 940 → 39 841, 63 342 → 48 040, 250 196 → 197 073 and
    /// 252 764 → 192 781 bytes).
    #[test]
    fn saved_bytes_are_golden() {
        let uniform = genome::uniform(50_000, 7);
        let repeats = genome::repeat_rich(200_000, genome::RepeatProfile::default(), 0x5a15);
        /// `(sa_rate, shard_window, shard_overlap, bytes, trailer)`.
        type Row = (u32, usize, usize, usize, u64);
        let golden: [(&str, &DnaSeq, &[Row]); 2] = [
            (
                "uniform",
                &uniform,
                &[
                    (1, 0, 0, 231_416, 0x0330_267f_c9cd_0f14),
                    (8, 0, 0, 47_849, 0x7d35_6483_8f83_ff60),
                    (8, 20_000, 512, 47_887, 0x5a11_5ed4_667b_dd46),
                    (32, 0, 0, 39_841, 0x7522_f122_511c_5f30),
                    (1, 40_000, 512, 233_766, 0xdd56_fb0c_1201_3f73),
                    (8, 40_000, 512, 48_040, 0xa5ee_d32e_9fd1_d8dc),
                ],
            ),
            (
                "repeats",
                &repeats,
                &[
                    (1, 0, 0, 925_168, 0xfbec_18be_8325_5b10),
                    (8, 0, 0, 197_073, 0xa639_9165_0f79_b960),
                    (1, 40_000, 512, 934_536, 0xc89b_3ec9_4684_3610),
                    (8, 40_000, 512, 192_781, 0xc87b_2877_092f_2002),
                ],
            ),
        ];
        for (name, reference, rows) in golden {
            for &(rate, window, overlap, len, trailer) in rows {
                let mut bytes = Vec::new();
                let artifact = IndexArtifact::build("golden", reference, rate, window, overlap);
                artifact.save(&mut bytes).expect("save");
                if rate == 1 {
                    let magics: Vec<usize> = (0..bytes.len() - 8)
                        .filter(|&at| &bytes[at..at + 8] == fm_io::MAGIC)
                        .collect();
                    assert_eq!(magics.len(), artifact.shards().len());
                    for at in magics {
                        bytes[at..at + 8].copy_from_slice(b"PIMFMI2\n");
                    }
                    restamp(&mut bytes);
                }
                let (_, tail) = bytes.split_at(bytes.len() - 8);
                assert_eq!(
                    (bytes.len(), u64::from_le_bytes(tail.try_into().unwrap())),
                    (len, trailer),
                    "{name} rate {rate} window {window} overlap {overlap}"
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
        let artifact = test_artifact(4_000, 1_024);
        let actual = artifact.index_bytes();
        let model = artifact.model_bytes();
        let diff = actual.abs_diff(model);
        assert!(
            diff * 1000 <= model,
            "model {model} vs actual {actual} off by more than 0.1%"
        );
    }

    #[test]
    fn sharded_outcomes_match_unsharded() {
        let reference = genome::uniform(3_000, 11);
        let config = PimAlignerConfig::baseline();
        let mut reads: Vec<DnaSeq> = (0..40)
            .map(|i| reference.subseq(i * 70..i * 70 + 48))
            .collect();
        // A read straddling a shard boundary, a mutated read and a
        // foreign read exercise all three outcome arms.
        reads.push(reference.subseq(1_000 - 20..1_000 + 28));
        let mut mutated = reference.subseq(200..248).into_bases();
        mutated[10] = match mutated[10] {
            Base::A => Base::C,
            _ => Base::A,
        };
        reads.push(DnaSeq::from_bases(mutated));
        reads.push(genome::uniform(48, 999));

        let flat = Platform::new(&reference, config.clone());
        let (expected, _) = flat
            .align_chunk_parallel(&reads, 2, 0, true)
            .expect("unsharded");

        let artifact = IndexArtifact::build("r", &reference, 1, 1_000, 96);
        assert_eq!(artifact.shards().len(), 3);
        let sharded = ShardedPlatform::from_artifact(&artifact, config, false);
        let (merged, totals) = sharded.align_chunk(&reads, 2, 0, true).expect("sharded");

        assert_eq!(merged.len(), expected.len());
        for (i, ((got, gs), (want, ws))) in merged.iter().zip(&expected).enumerate() {
            assert_eq!(got, want, "outcome mismatch at read {i}");
            assert_eq!(gs, ws, "strand mismatch at read {i}");
        }
        assert_eq!(totals.reads, reads.len() as u64);
        let expected_exact = expected
            .iter()
            .filter(|(o, _)| matches!(o, AlignmentOutcome::Exact { .. }))
            .count() as u64;
        assert_eq!(totals.exact_hits, expected_exact);
        // Every shard aligned the whole chunk, so the simulated work is
        // strictly larger than one read per query.
        assert!(totals.queries >= totals.reads);
    }

    #[test]
    fn overlong_read_is_a_typed_error() {
        let reference = genome::uniform(2_000, 5);
        let artifact = IndexArtifact::build("r", &reference, 1, 500, 64);
        let sharded =
            ShardedPlatform::from_artifact(&artifact, PimAlignerConfig::baseline(), false);
        let long_read = reference.subseq(0..200);
        let err = sharded.align_chunk(&[long_read], 1, 0, false).unwrap_err();
        match err {
            AlignError::ReadExceedsShardOverlap { read_len, budget } => {
                assert_eq!(read_len, 200);
                assert!(budget < 200);
            }
            other => panic!("expected ReadExceedsShardOverlap, got {other}"),
        }
    }

    #[test]
    fn warm_boot_report_carries_index_telemetry() {
        let reference = genome::uniform(1_500, 21);
        let artifact = IndexArtifact::build("r", &reference, 2, 600, 80);
        let sharded = ShardedPlatform::from_artifact(&artifact, PimAlignerConfig::baseline(), true);
        let reads: Vec<DnaSeq> = (0..8)
            .map(|i| reference.subseq(i * 100..i * 100 + 40))
            .collect();
        let (_, totals) = sharded.align_chunk(&reads, 1, 0, false).expect("align");
        let report = sharded.batch_report(&totals);
        assert!(report.index.loaded);
        assert_eq!(report.index.shards, 3);
        assert_eq!(report.index.sa_rate, 2);
        assert_eq!(report.index.shard_window, 600);
        assert_eq!(report.index.shard_overlap, 80);
        assert!(report.index.actual_bytes > 0);
        assert!(report.index.model_bytes > 0);
    }
}
