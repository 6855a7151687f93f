//! The on-disk index artifact: build once, load many.
//!
//! The paper's platform maps the FM-index into the MRAM sub-arrays once
//! and then serves queries in place; rebuilding the index (SA-IS + BWT +
//! tables) for every run throws that asymmetry away. This module makes
//! the serialised index a first-class artifact: [`IndexArtifact`] packs
//! the reference, the suffix-array sampling policy and one [`FmIndex`]
//! over the whole reference into a single checksummed file, and
//! [`Platform::from_artifact`](crate::Platform::from_artifact) boots a
//! warm platform from it — only the
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
//! shard window     u64       = reference length
//! shard overlap    u64       = 0
//! shard count      u64       = 1
//! shard start      u64       = 0
//! byte length      u64       length of the embedded index stream
//! index            bytes     a complete `PIMFMI4` stream (fmindex::io)
//! checksum         u64       FNV-1a-64 over the body
//! ```
//!
//! The four geometry fields are fixed at one shard over the whole
//! reference and kept so that artifacts stay byte-compatible with those
//! written while the reference could be split into windows; a file with
//! any other geometry is refused as [`LoadArtifactError::Corrupt`], to be
//! rebuilt. The index stream is length-prefixed because the inner loader
//! probes for end-of-stream; the prefix gives it a bounded slice.

use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

use bioseq::{Base, DnaSeq};
use fmindex::io as fm_io;
use fmindex::{size_model, FmIndex, SaStorage, SuffixArraySamples};
use pimsim::SubArrayLayout;

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
    /// checksum mismatch, a sharded geometry or trailing bytes.
    Corrupt(String),
    /// The embedded index stream failed to parse.
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
            // An index stream of an older format is sound, only not readable here.
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

/// A buildable, serialisable, loadable index artifact: the reference,
/// its suffix-array sampling policy and one FM-index over it, each behind
/// an `Arc` that every [`Platform`](crate::Platform) booted from the artifact shares.
#[derive(Debug)]
pub struct IndexArtifact {
    reference_name: String,
    pub(crate) reference: Arc<DnaSeq>,
    sa_rate: u32,
    pub(crate) index: Arc<FmIndex>,
}

impl IndexArtifact {
    /// Builds the artifact in memory: one FM-index over the whole
    /// reference. `sa_rate == 1` keeps the full suffix array; larger
    /// rates sample it.
    ///
    /// # Panics
    ///
    /// Panics when the reference is empty or `sa_rate == 0`.
    pub fn new(reference_name: &str, reference: &DnaSeq, sa_rate: u32) -> IndexArtifact {
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
            .build(reference);
        // The artifact's own copy of the reference is made only now, so
        // it is not resident while SA-IS runs.
        IndexArtifact {
            reference_name: reference_name.to_string(),
            reference: Arc::new(reference.clone()),
            sa_rate,
            index: Arc::new(index),
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

    /// The FM-index over the reference.
    pub fn index(&self) -> &FmIndex {
        &self.index
    }

    /// Index bytes as a platform holds them: the serialisable tables
    /// ([`FmIndex::size_bytes`]; container framing excluded) and
    /// [`IndexArtifact::seed_bytes`].
    pub fn index_bytes(&self) -> usize {
        self.index.size_bytes() + self.seed_bytes()
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

    /// What [`size_model::footprint`] predicts for this reference length
    /// and sampling rate.
    pub fn model_bytes(&self) -> usize {
        size_model::footprint(
            self.reference.len(),
            SubArrayLayout::BASES_PER_ROW,
            self.sa_rate as usize,
        )
        .total_bytes()
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
        // The fixed one-shard geometry: window, overlap, count, start.
        for field in [self.reference.len(), 0, 1, 0] {
            body.write_all(&(field as u64).to_le_bytes())?;
        }
        let stream_len = fm_io::stream_len(&self.index) as u64;
        body.write_all(&stream_len.to_le_bytes())?;
        let stream_start = body.written();
        fm_io::save(&self.index, &mut *body)?;
        // The length prefix was written before the stream it describes;
        // a loader trusts it to bound the stream.
        if body.written() - stream_start != stream_len {
            return Err(io::Error::other(
                "index stream length differs from its length prefix",
            ));
        }
        Ok(())
    }

    /// Writes the artifact to `path`.
    pub fn save_to_path(&self, path: &Path) -> io::Result<()> {
        let mut file = io::BufWriter::new(File::create(path)?);
        self.save(&mut file)
    }

    /// Loads an artifact: verifies the magic and the trailing checksum,
    /// then parses the body, including the embedded index stream.
    ///
    /// # Errors
    ///
    /// [`LoadArtifactError::BadMagic`] for foreign streams,
    /// [`LoadArtifactError::Corrupt`] for truncation / checksum / geometry
    /// damage (with the failing section named) and for a sharded
    /// artifact, [`LoadArtifactError::Shard`] when the embedded index
    /// stream is itself damaged, and [`LoadArtifactError::Io`] for
    /// genuine reader failures.
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
        let window = cursor.u64("shard window")?;
        let overlap = cursor.u64("shard overlap")?;
        let count = cursor.u64("shard count")?;
        let start = cursor.u64("shard start")?;
        if (window, overlap, count, start) != (ref_len as u64, 0, 1, 0) {
            return Err(LoadArtifactError::Corrupt(format!(
                "sharded artifact ({count} shards of window {window}, overlap {overlap}, \
                 first at {start}, over {ref_len} bases): sharding is no longer supported; \
                 rebuild the artifact with `pimalign index build`"
            )));
        }
        let stream_len = cursor.u64("shard byte length")? as usize;
        let stream = cursor.bytes(stream_len, "shard index stream")?;
        let index = fm_io::load_bytes(stream)?;
        if index.reference_len() != ref_len {
            return Err(LoadArtifactError::Corrupt(format!(
                "the index covers {} bases, the reference {ref_len}",
                index.reference_len()
            )));
        }
        // A stream can be a sound index and still not one a platform can
        // map: `MappedIndex::from_index` asserts this width.
        if index.bucket_width() != SubArrayLayout::BASES_PER_ROW {
            return Err(LoadArtifactError::Corrupt(format!(
                "the index has Occ buckets of {} bases, a word line holds {}",
                index.bucket_width(),
                SubArrayLayout::BASES_PER_ROW
            )));
        }
        if cursor.pos != body.len() {
            return Err(LoadArtifactError::Corrupt(
                "trailing bytes after the index stream".to_string(),
            ));
        }
        Ok(IndexArtifact {
            reference_name,
            reference: Arc::new(reference),
            sa_rate,
            index: Arc::new(index),
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

/// Kept only because `benchmark/src/trace.rs` compiles against these
/// names and may not change in the same commit as the code under test.
/// Nothing in this workspace calls them: boot with
/// [`Platform::from_artifact`](crate::Platform::from_artifact) and build
/// with [`IndexArtifact::new`]. ROADMAP item 1a moves `trace.rs` off
/// them and deletes this module.
#[doc(hidden)]
pub mod benchmark_pins {
    use bioseq::DnaSeq;

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
            reference: &DnaSeq,
            sa_rate: u32,
            shard_window: usize,
            _shard_overlap: usize,
        ) -> IndexArtifact {
            assert_eq!(shard_window, 0, "reference-window sharding is gone");
            IndexArtifact::new(reference_name, reference, sa_rate)
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
        IndexArtifact::new("test-ref", &reference, 4)
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

    #[test]
    fn bad_magic_rejected() {
        let err = IndexArtifact::load(&b"NOTANIDX........"[..]).unwrap_err();
        assert!(matches!(err, LoadArtifactError::BadMagic), "{err}");
    }

    #[test]
    fn truncation_and_corruption_detected() {
        let artifact = test_artifact(600);
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

    /// A saved artifact long enough for a seed table, with where its
    /// length and geometry fields sit, as `(offset, width)`, and where its
    /// index stream does, as a range.
    struct Saved {
        bytes: Vec<u8>,
        fields: Vec<(usize, usize)>,
        stream: std::ops::Range<usize>,
    }

    /// Positions in [`Saved::fields`].
    const SHARD_WINDOW: usize = 3;
    const SHARD_COUNT: usize = 5;
    const BUCKET_COUNT: usize = 11;

    fn saved_with_layout() -> Saved {
        let name = "mut";
        let artifact = IndexArtifact::new(name, &genome::uniform(5_000, 61), 4);
        // 5 001 rows: four levels of 13-bit boundaries.
        assert_eq!(artifact.seed_depth(), 4);
        let mut bytes = Vec::new();
        artifact.save(&mut bytes).expect("save");
        let mut fields = Vec::new();
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
        field(&mut pos, 8); // shard start
        field(&mut pos, 8); // stream length
        let index = artifact.index();
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
        assert_eq!(pos + 8, bytes.len(), "the layout walk ends at the trailer");
        Saved {
            bytes,
            fields,
            stream: start..pos,
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
    /// container's, or the index stream's and the container's — a
    /// checksum only proves the bytes are the ones somebody wrote.
    fn mutated(saved: &Saved, mutation: &Mutation, restamps: u8) -> Vec<u8> {
        let mut bytes = saved.bytes.clone();
        let len = bytes.len();
        mutation.apply(&mut bytes, &saved.fields, false);
        if restamps == 2 && bytes.len() == len {
            restamp(&mut bytes[saved.stream.clone()]);
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
                        Platform::from_artifact(&artifact, PimAlignerConfig::baseline(), true);
                    prop_assert!(std::ptr::eq(platform.mapped().index(), artifact.index()));
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
        // container's checksum; with that restamped, at the index
        // stream's own; with both, in the index's cross-check against its
        // BWT — so the sweep above is not a sweep of one checksum test.
        let saved = saved_with_layout();
        assert!(IndexArtifact::load(&saved.bytes[..]).is_ok());
        let (bucket_count, width) = saved.fields[BUCKET_COUNT];
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
        // place of the artifact's.
        let narrow = FmIndex::builder()
            .bucket_width(64)
            .sa_storage(SaStorage::Sampled(4))
            .build(&genome::uniform(5_000, 61));
        let mut stream = Vec::new();
        fm_io::save(&narrow, &mut stream).expect("save");
        let mut bytes = saved.bytes[..saved.stream.start - 8].to_vec();
        bytes.extend_from_slice(&(stream.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&stream);
        bytes.extend_from_slice(&saved.bytes[saved.stream.end..]);
        restamp(&mut bytes);
        match IndexArtifact::load(&bytes[..]).unwrap_err() {
            LoadArtifactError::Corrupt(msg) => assert!(msg.contains("buckets of 64"), "{msg}"),
            other => panic!("expected Corrupt, got {other}"),
        }
    }

    /// The bytes an artifact serialises to are a contract with every
    /// artifact already on disk, and the proof that a change to the
    /// build path (parse, SA-IS, tables, sampling, save) changed no
    /// byte: length and trailing checksum per genome and sampling rate.
    /// The uniform full-SA row is as it has been since the format was
    /// introduced, the repeat-rich one as it was taken at the parent of
    /// the one-pass build: a full SA is stored as `PIMFMI2` stored it, so
    /// with the index stream's magic written back as `PIMFMI2` those
    /// bytes hash to the same trailer. The sampled rows were re-taken
    /// when the sampled SA became a row bitmap and its values (lengths
    /// 81 432 → 62 692, 43 928 → 43 940 at rate 32, where the two layouts
    /// are even, and 325 184 → 250 196 bytes), and again when its values
    /// became `v / rate` packed in the bits `⌊(rows − 1)/rate⌋` needs
    /// (62 692 → 47 849, 43 940 → 39 841 and 250 196 → 197 073 bytes).
    #[test]
    fn saved_bytes_are_golden() {
        let uniform = genome::uniform(50_000, 7);
        let repeats = genome::repeat_rich(200_000, genome::RepeatProfile::default(), 0x5a15);
        /// `(sa_rate, bytes, trailer)`.
        type Row = (u32, usize, u64);
        let golden: [(&str, &DnaSeq, &[Row]); 2] = [
            (
                "uniform",
                &uniform,
                &[
                    (1, 231_416, 0x0330_267f_c9cd_0f14),
                    (8, 47_849, 0x7d35_6483_8f83_ff60),
                    (32, 39_841, 0x7522_f122_511c_5f30),
                ],
            ),
            (
                "repeats",
                &repeats,
                &[
                    (1, 925_168, 0xfbec_18be_8325_5b10),
                    (8, 197_073, 0xa639_9165_0f79_b960),
                ],
            ),
        ];
        for (name, reference, rows) in golden {
            for &(rate, len, trailer) in rows {
                let mut bytes = Vec::new();
                let artifact = IndexArtifact::new("golden", reference, rate);
                artifact.save(&mut bytes).expect("save");
                if rate == 1 {
                    let magics: Vec<usize> = (0..bytes.len() - 8)
                        .filter(|&at| &bytes[at..at + 8] == fm_io::MAGIC)
                        .collect();
                    assert_eq!(magics.len(), 1);
                    bytes[magics[0]..magics[0] + 8].copy_from_slice(b"PIMFMI2\n");
                    restamp(&mut bytes);
                }
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

    /// An artifact written with more than one reference window loads as
    /// a typed error that says to rebuild it, even with every checksum
    /// holding.
    #[test]
    fn sharded_artifact_is_refused_with_a_rebuild_hint() {
        let saved = saved_with_layout();
        let mut bytes = saved.bytes.clone();
        for (field, value) in [(SHARD_WINDOW, 2_500u64), (SHARD_COUNT, 2)] {
            let (at, width) = saved.fields[field];
            bytes[at..at + width].copy_from_slice(&value.to_le_bytes());
        }
        restamp(&mut bytes);
        match IndexArtifact::load(&bytes[..]).unwrap_err() {
            LoadArtifactError::Corrupt(msg) => {
                assert!(msg.contains("sharded artifact"), "{msg}");
                assert!(msg.contains("rebuild the artifact"), "{msg}");
            }
            other => panic!("expected Corrupt, got {other}"),
        }
    }

    #[test]
    fn warm_boot_report_carries_index_telemetry() {
        let reference = genome::uniform(1_500, 21);
        let artifact = IndexArtifact::new("r", &reference, 2);
        let reads: Vec<DnaSeq> = (0..8)
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
