//! Binary persistence for the FM-index.
//!
//! Pre-computation is one-off (paper Fig. 2: "it is just a one-step
//! computation") — a deployed platform builds the tables once and loads
//! them at boot. This module defines a compact little-endian format:
//!
//! ```text
//! magic  "PIMFMI4\n"
//! u64    text length (incl. sentinel); must fit in u32 (position bound)
//! u64    sentinel position in the BWT
//! [u8]   BWT nucleotides, 2-bit packed (sentinel cell holds a placeholder)
//! u32×4  Count table
//! u64    bucket width d
//! u64    marker bucket count, then u32×4 per bucket
//! u8     SA tag (0 = full, 1 = sampled)
//! full:     u64 SA row count, then u32 per row
//! sampled:  u32 rate, u64 SA row count,
//!           u64 bitmap word count (⌈rows/64⌉), then u64 per word — bit
//!               row % 64 of word row / 64 set when the row is kept,
//!           u8 value width w, the bits of ⌊(rows − 1)/rate⌋,
//!           u64 value word count (⌈kept · w/64⌉, kept = ⌈rows/rate⌉ the
//!               bitmap's popcount), then u64 per word — value / rate of
//!               each kept row, rows ascending, w bits each from bit 0 up,
//!               a field straddling two words, the bits past the last zero
//! u64    FNV-1a-64 checksum of every byte after the magic
//! ```
//!
//! The sampled SA is stored as [`SampledRows`]
//! holds it — the loader rebuilds only its rank directory — so the bytes
//! on disk are the bytes in memory. A stream whose magic names another
//! format version is a [`LoadIndexError::Version`], which says to
//! rebuild the artifact; this module decodes no other version.
//!
//! [`load_bytes`] slices the sections out of the stream first — every
//! declared length is checked against the bytes that remain, so a
//! hostile header allocates nothing — then verifies the trailing
//! checksum, rejects trailing garbage, and only then decodes the tables.
//! A short stream surfaces as [`LoadIndexError::Corrupt`] naming the
//! table that was cut off.
//!
//! Only what the format stores is ever held: the check-points of the
//! marker table are recounted from the BWT on load (one streaming pass)
//! and cross-checked against the stored ones; the full Occ table exists
//! neither on disk nor in memory.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use crate::index::FmIndex;
use crate::locate::{SampledRows, SuffixArraySamples};

/// Magic bytes heading every serialised index: `PIMFMI`, the format
/// version's digit, a newline.
pub const MAGIC: &[u8; 8] = b"PIMFMI4\n";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64 of `bytes`, continuing from `digest` — cheap,
/// dependency-free, and plenty for catching torn writes and bit rot
/// (this is an integrity check, not an authenticity one).
fn fnv1a_update(digest: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(digest, |d, &b| (d ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// FNV-1a-64 of `bytes` — the checksum of this format and of the
/// artifact container around it.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV_OFFSET, bytes)
}

/// Error returned by [`load`].
#[derive(Debug)]
pub enum LoadIndexError {
    /// Underlying I/O failure (not a short read — those are [`Corrupt`]).
    ///
    /// [`Corrupt`]: LoadIndexError::Corrupt
    Io(io::Error),
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// The stream is an FM-index of another format version (the digit
    /// its magic carries), which this build does not decode.
    Version(char),
    /// The declared text length exceeds the `u32` position bound
    /// ([`FmIndex::MAX_REFERENCE_LEN`]); such an index can never have
    /// been written by a correct builder.
    TooLarge {
        /// The declared text length (reference + sentinel).
        len: usize,
    },
    /// Structurally invalid contents: truncation, checksum mismatch,
    /// trailing garbage, or inconsistent tables.
    Corrupt(String),
}

impl fmt::Display for LoadIndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadIndexError::Io(e) => write!(f, "index read failed: {e}"),
            LoadIndexError::BadMagic => f.write_str("not a PIM-Aligner FM-index stream"),
            LoadIndexError::Version(found) => write!(
                f,
                "FM-index format version {found}, this build reads version {}: \
                 rebuild the artifact with `pimalign index build`",
                char::from(MAGIC[6])
            ),
            LoadIndexError::TooLarge { len } => write!(
                f,
                "index text of {len} rows exceeds the u32 position bound ({} rows max)",
                u32::MAX
            ),
            LoadIndexError::Corrupt(msg) => write!(f, "corrupt index: {msg}"),
        }
    }
}

impl Error for LoadIndexError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LoadIndexError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for LoadIndexError {
    fn from(e: io::Error) -> Self {
        LoadIndexError::Io(e)
    }
}

/// A writer that checksums (FNV-1a-64) and counts what passes through
/// it, so a stream is hashed as it is written instead of being staged
/// in memory first.
pub struct HashingWriter<W: Write> {
    inner: W,
    hash: u64,
    written: u64,
}

impl<W: Write> HashingWriter<W> {
    /// Wraps `inner`; nothing hashed yet.
    pub fn new(inner: W) -> Self {
        HashingWriter {
            inner,
            hash: FNV_OFFSET,
            written: 0,
        }
    }

    /// The checksum of every byte written so far.
    pub fn digest(&self) -> u64 {
        self.hash
    }

    /// The number of bytes written so far.
    pub fn written(&self) -> u64 {
        self.written
    }
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hash = fnv1a_update(self.hash, &buf[..n]);
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Exactly how many bytes [`save`] writes for `index`:
/// [`FmIndex::size_bytes`] plus the fixed framing (magic, lengths, Count
/// table, SA header, checksum). Lets a container length-prefix the
/// stream without staging it.
pub fn stream_len(index: &FmIndex) -> usize {
    // magic + n + sentinel + count + bucket width + bucket count + SA tag
    // + SA row count + checksum, and for a sampled SA its rate, bitmap
    // word count, value width and value word count.
    let framing = match index.sa_samples() {
        SuffixArraySamples::Full(_) => 73,
        SuffixArraySamples::Sampled { .. } => 94,
    };
    index.size_bytes() + framing
}

/// Serialises an index in the `PIMFMI4` format.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
///
/// # Examples
///
/// ```
/// use bioseq::DnaSeq;
/// use fmindex::{io as fm_io, FmIndex};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let index = FmIndex::builder().bucket_width(4).build(&"GATTACA".parse::<DnaSeq>()?);
/// let mut buffer = Vec::new();
/// fm_io::save(&index, &mut buffer)?;
/// let restored = fm_io::load(buffer.as_slice())?;
/// assert_eq!(restored.find(&"TTA".parse::<DnaSeq>()?), index.find(&"TTA".parse::<DnaSeq>()?));
/// # Ok(())
/// # }
/// ```
pub fn save<W: Write>(index: &FmIndex, mut writer: W) -> io::Result<()> {
    writer.write_all(MAGIC)?;
    let mut hashed = HashingWriter::new(&mut writer);
    save_body(index, &mut hashed)?;
    let digest = hashed.digest();
    writer.write_all(&digest.to_le_bytes())?;
    writer.flush()
}

/// Writes `words` little-endian, staged through a chunk buffer so the
/// writer (and the checksums stacked on it) see kilobytes, not words.
fn write_words<W: Write>(writer: &mut W, words: impl IntoIterator<Item = u32>) -> io::Result<()> {
    let mut chunk = [0u8; 4096];
    let mut used = 0;
    for word in words {
        chunk[used..used + 4].copy_from_slice(&word.to_le_bytes());
        used += 4;
        if used == chunk.len() {
            writer.write_all(&chunk)?;
            used = 0;
        }
    }
    writer.write_all(&chunk[..used])
}

/// Writes a count of `u64` words, then the words little-endian.
fn write_u64s<W: Write>(writer: &mut W, words: &[u64]) -> io::Result<()> {
    writer.write_all(&(words.len() as u64).to_le_bytes())?;
    // A little-endian u64 is its low u32 then its high one.
    write_words(
        writer,
        words.iter().flat_map(|&w| [w as u32, (w >> 32) as u32]),
    )
}

fn save_body<W: Write>(index: &FmIndex, writer: &mut W) -> io::Result<()> {
    let n = index.text_len() as u64;
    writer.write_all(&n.to_le_bytes())?;
    let bwt = index.bwt();
    writer.write_all(&(bwt.sentinel_pos() as u64).to_le_bytes())?;
    let (packed, _) = bwt.to_packed();
    writer.write_all(packed.as_bytes())?;
    drop(packed);
    write_words(writer, index.count_table().as_array())?;
    let mt = index.marker_table();
    writer.write_all(&(mt.bucket_width() as u64).to_le_bytes())?;
    writer.write_all(&(mt.buckets() as u64).to_le_bytes())?;
    write_words(writer, mt.as_words().iter().copied())?;
    match index.sa_samples() {
        SuffixArraySamples::Full(values) => {
            writer.write_all(&[0u8])?;
            writer.write_all(&(values.len() as u64).to_le_bytes())?;
            write_words(writer, values.iter().copied())?;
        }
        SuffixArraySamples::Sampled { stored, rate } => {
            writer.write_all(&[1u8])?;
            writer.write_all(&rate.to_le_bytes())?;
            writer.write_all(&(index.text_len() as u64).to_le_bytes())?;
            let bits = stored.bits();
            write_u64s(writer, bits)?;
            writer.write_all(&[stored.value_bits() as u8])?;
            write_u64s(writer, stored.value_words())?;
        }
    }
    Ok(())
}

/// Deserialises an index previously written by [`save`]: reads the
/// stream to its end and hands the bytes to [`load_bytes`].
///
/// # Errors
///
/// Returns [`LoadIndexError`] on I/O failure, a wrong magic, an
/// over-long text, or structurally invalid contents (including
/// truncation and checksum mismatch).
pub fn load<R: Read>(mut reader: R) -> Result<FmIndex, LoadIndexError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    load_bytes(&bytes)
}

/// Deserialises an index from a complete in-memory `PIMFMI4` stream —
/// the whole of `bytes` must be the stream, trailing bytes are rejected.
///
/// # Errors
///
/// As [`load`], minus the I/O failures; a stream of another format
/// version is [`LoadIndexError::Version`].
pub fn load_bytes(bytes: &[u8]) -> Result<FmIndex, LoadIndexError> {
    let mut cursor = Cursor { bytes, pos: 0 };
    let magic = cursor.take(MAGIC.len(), "magic")?;
    if magic != MAGIC {
        return Err(match magic {
            [b'P', b'I', b'M', b'F', b'M', b'I', v, b'\n'] if v.is_ascii_digit() => {
                LoadIndexError::Version(char::from(*v))
            }
            _ => LoadIndexError::BadMagic,
        });
    }
    let sections = Sections::parse(&mut cursor)?;
    let body = &bytes[MAGIC.len()..cursor.pos];
    if cursor.u64("checksum")? != fnv1a(body) {
        return Err(LoadIndexError::Corrupt("checksum mismatch".into()));
    }
    if cursor.pos != bytes.len() {
        return Err(LoadIndexError::Corrupt(
            "trailing bytes after the index".into(),
        ));
    }
    sections.assemble()
}

/// Reads sections off a byte slice; every length is checked against the
/// bytes that remain before anything is sliced, let alone allocated.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize, section: &str) -> Result<&'a [u8], LoadIndexError> {
        if self.bytes.len() - self.pos < len {
            return Err(LoadIndexError::Corrupt(format!("truncated in {section}")));
        }
        let out = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// `count` records of `record_bytes` each.
    fn records(
        &mut self,
        count: usize,
        record_bytes: usize,
        section: &str,
    ) -> Result<&'a [u8], LoadIndexError> {
        // A count whose byte length overflows cannot be backed by bytes.
        self.take(count.saturating_mul(record_bytes), section)
    }

    fn u64(&mut self, section: &str) -> Result<u64, LoadIndexError> {
        let b = self.take(8, section)?;
        Ok(u64::from_le_bytes(
            b.try_into()
                .expect("take(8, _) returns 8 bytes or an error"),
        ))
    }

    /// A `u64` length or position field; one that does not fit `usize`
    /// saturates, which every later range or length check rejects.
    fn len(&mut self, section: &str) -> Result<usize, LoadIndexError> {
        Ok(usize::try_from(self.u64(section)?).unwrap_or(usize::MAX))
    }

    fn u32(&mut self, section: &str) -> Result<u32, LoadIndexError> {
        let b = self.take(4, section)?;
        Ok(u32::from_le_bytes(
            b.try_into()
                .expect("take(4, _) returns 4 bytes or an error"),
        ))
    }
}

/// Little-endian `u32`s of a section whose length is a multiple of 4.
fn words(section: &[u8]) -> impl Iterator<Item = u32> + '_ {
    section
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("chunks_exact(4) yields 4-byte chunks")))
}

/// Little-endian `u64`s of a section whose length is a multiple of 8.
fn u64s(section: &[u8]) -> Vec<u64> {
    section
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("chunks_exact(8) yields 8-byte chunks")))
        .collect()
}

/// The SA section of a stream, still as bytes.
enum SaSection<'a> {
    Full(&'a [u8]),
    Sampled {
        rate: u32,
        bits: &'a [u8],
        width: u8,
        values: &'a [u8],
    },
}

/// A stream's sections, sliced and length-checked but not yet decoded.
struct Sections<'a> {
    text_len: usize,
    sentinel: usize,
    packed_bwt: &'a [u8],
    count: [u32; 4],
    bucket_width: usize,
    markers: &'a [u8],
    sa: SaSection<'a>,
}

impl<'a> Sections<'a> {
    fn parse(cursor: &mut Cursor<'a>) -> Result<Sections<'a>, LoadIndexError> {
        let corrupt = |msg: &str| Err(LoadIndexError::Corrupt(msg.into()));
        let n = cursor.len("text length")?;
        if n == 0 {
            return corrupt("empty text");
        }
        if n > u32::MAX as usize {
            return Err(LoadIndexError::TooLarge { len: n });
        }
        let sentinel = cursor.len("sentinel")?;
        if sentinel >= n {
            return corrupt("sentinel out of range");
        }
        let packed_bwt = cursor.take(n.div_ceil(4), "BWT")?;
        let mut count = [0u32; 4];
        for c in &mut count {
            *c = cursor.u32("count table")?;
        }
        let bucket_width = cursor.len("marker table")?;
        if bucket_width == 0 {
            return corrupt("zero bucket width");
        }
        let buckets = cursor.len("marker table")?;
        if buckets != n / bucket_width + 1 {
            return corrupt("bucket count mismatch");
        }
        let markers = cursor.records(buckets, 16, "marker table")?;
        let tag = cursor.take(1, "SA tag")?[0];
        let sa = match tag {
            0 => {
                if cursor.len("suffix array")? != n {
                    return corrupt("SA length mismatch");
                }
                SaSection::Full(cursor.records(n, 4, "suffix array")?)
            }
            1 => {
                let rate = cursor.u32("suffix array")?;
                if rate == 0 {
                    return corrupt("zero SA rate");
                }
                if cursor.len("suffix array")? != n {
                    return corrupt("SA length mismatch");
                }
                let words = cursor.len("suffix array")?;
                let bits = cursor.records(words, 8, "suffix array")?;
                let width = cursor.take(1, "suffix array")?[0];
                let words = cursor.len("suffix array")?;
                let values = cursor.records(words, 8, "suffix array")?;
                SaSection::Sampled {
                    rate,
                    bits,
                    width,
                    values,
                }
            }
            other => {
                return Err(LoadIndexError::Corrupt(format!("unknown SA tag {other}")));
            }
        };
        Ok(Sections {
            text_len: n,
            sentinel,
            packed_bwt,
            count,
            bucket_width,
            markers,
            sa,
        })
    }

    fn assemble(self) -> Result<FmIndex, LoadIndexError> {
        let samples = match self.sa {
            SaSection::Full(values) => SuffixArraySamples::Full(words(values).collect()),
            SaSection::Sampled {
                rate,
                bits,
                width,
                values,
            } => SuffixArraySamples::Sampled {
                stored: SampledRows::new(
                    u64s(bits),
                    u32::from(width),
                    u64s(values),
                    self.text_len,
                    rate,
                )
                .map_err(LoadIndexError::Corrupt)?,
                rate,
            },
        };
        FmIndex::from_stored_parts(
            self.text_len,
            self.sentinel,
            self.packed_bwt,
            self.count,
            self.bucket_width,
            words(self.markers),
            samples,
        )
        .map_err(LoadIndexError::Corrupt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FmIndex, SaStorage};
    use bioseq::DnaSeq;

    fn sample_index(storage: SaStorage) -> FmIndex {
        let reference: DnaSeq = "GATTACAGATTACAGGGTTTCCCAAATGCA".parse().unwrap();
        FmIndex::builder()
            .bucket_width(4)
            .sa_storage(storage)
            .build(&reference)
    }

    fn round_trip(index: &FmIndex) -> FmIndex {
        let mut buffer = Vec::new();
        save(index, &mut buffer).expect("save");
        load(buffer.as_slice()).expect("load")
    }

    #[test]
    fn chunked_words_are_the_words_one_by_one() {
        // Around the 1 024-word chunk: empty, partial, exact, one over.
        for count in [0u32, 1, 1_023, 1_024, 1_025, 2_048, 3_000] {
            let words = (0..count).map(|i| i.wrapping_mul(0x9e37_79b9) ^ 0xdead_beef);
            let mut chunked = Vec::new();
            write_words(&mut chunked, words.clone()).expect("write to a Vec");
            let one_by_one: Vec<u8> = words.flat_map(u32::to_le_bytes).collect();
            assert_eq!(chunked, one_by_one, "{count} words");
        }
    }

    #[test]
    fn full_sa_round_trip_preserves_queries() {
        let index = sample_index(SaStorage::Full);
        let restored = round_trip(&index);
        for read in ["GATT", "TACA", "GGG", "TTTT", "A"] {
            let read: DnaSeq = read.parse().unwrap();
            assert_eq!(restored.find(&read), index.find(&read), "read {read}");
            assert_eq!(restored.count(&read), index.count(&read));
        }
        assert_eq!(restored.bwt().to_string(), index.bwt().to_string());
        assert_eq!(restored.bucket_width(), index.bucket_width());
    }

    #[test]
    fn sampled_sa_round_trip_preserves_queries() {
        let index = sample_index(SaStorage::Sampled(4));
        let restored = round_trip(&index);
        for read in ["GATTACA", "CCC", "ATG"] {
            let read: DnaSeq = read.parse().unwrap();
            assert_eq!(restored.find(&read), index.find(&read), "read {read}");
        }
        assert_eq!(restored.size_bytes(), index.size_bytes());
    }

    #[test]
    fn inexact_queries_survive_round_trip() {
        let index = sample_index(SaStorage::Full);
        let restored = round_trip(&index);
        let read: DnaSeq = "GATGACA".parse().unwrap();
        let budget = crate::EditBudget::substitutions_only(1);
        assert_eq!(
            restored.search_inexact(&read, budget),
            index.search_inexact(&read, budget)
        );
    }

    /// Save → load → `locate` against the full suffix array, on random
    /// intervals of a uniform and a repeat-rich genome, at rates from the
    /// full SA to 64, and at two lengths: 4 095 and 4 096 bases put
    /// `⌊(rows − 1)/rate⌋` at `2^w − 1` and `2^w` for every rate, the last
    /// value to fit `w` bits and the first to need one more. At each,
    /// `size_bytes()` is the bytes `save` writes less the fixed framing:
    /// magic(8) + n(8) + sentinel(8) + count(16) + bucket width(8) +
    /// bucket count(8) + SA tag(1) + SA header (full: len(8); sampled:
    /// rate(4) + len(8) + bitmap words(8) + value width(1) + value
    /// words(8)) + checksum(8); and the sampled SA is smaller than its
    /// values as `u32`s.
    #[test]
    fn saved_samples_locate_as_the_full_suffix_array() {
        use crate::packed::bits_for;
        use crate::sa::suffix_array;
        use crate::text::Text;
        use crate::SaInterval;
        use readsim::genome;
        let genomes = [4_095, 4_096].into_iter().flat_map(|len| {
            [
                genome::uniform(len, 0x5eed),
                genome::repeat_rich(len, genome::RepeatProfile::default(), 0x5eed),
            ]
        });
        for reference in genomes {
            let sa = suffix_array(&Text::from_reference(&reference));
            for rate in [1u32, 2, 8, 32, 64] {
                let storage = match rate {
                    1 => SaStorage::Full,
                    _ => SaStorage::Sampled(rate),
                };
                let index = FmIndex::builder()
                    .bucket_width(128)
                    .sa_storage(storage)
                    .build(&reference);
                let mut buffer = Vec::new();
                save(&index, &mut buffer).unwrap();
                let framing = if rate == 1 { 73 } else { 94 };
                assert_eq!(index.size_bytes() + framing, buffer.len(), "rate {rate}");
                assert_eq!(stream_len(&index), buffer.len());
                if let SuffixArraySamples::Sampled { stored, .. } = index.sa_samples() {
                    let largest = reference.len() / rate as usize;
                    let edge = largest + reference.len() % 2;
                    assert!(edge.is_power_of_two(), "rate {rate}: {largest}");
                    assert_eq!(stored.value_bits(), bits_for(largest as u64), "rate {rate}");
                    let as_u32s = stored.bits().len() * 8 + stored.stored_len() * 4;
                    assert!(index.sa_samples().size_bytes() < as_u32s, "rate {rate}");
                }
                let restored = load_bytes(&buffer).expect("own stream");
                assert_eq!(restored.sa_samples(), index.sa_samples(), "rate {rate}");
                // xorshift64: 300 intervals of 1 to 64 rows.
                let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ u64::from(rate);
                for _ in 0..300 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let width = (x % 64) as usize + 1;
                    let low = (x >> 8) as usize % (sa.len() - width + 1);
                    let mut expected: Vec<usize> =
                        sa[low..low + width].iter().map(|&v| v as usize).collect();
                    expected.sort_unstable();
                    let interval = SaInterval::new(low as u32, (low + width) as u32);
                    assert_eq!(
                        restored.locate(interval),
                        expected,
                        "rate {rate} {interval}"
                    );
                }
            }
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let err = load(&b"NOTANIDX________"[..]).unwrap_err();
        assert!(matches!(err, LoadIndexError::BadMagic));
        assert!(err.to_string().contains("not a PIM-Aligner"));
    }

    /// A stream of the previous format, whose sampled SA kept its values
    /// as `u32`s: its header is refused by version, with what
    /// to do, before any of it is decoded.
    #[test]
    fn a_previous_version_says_to_rebuild() {
        let mut v3 = b"PIMFMI3\n".to_vec();
        v3.extend_from_slice(&31u64.to_le_bytes());
        v3.extend_from_slice(&5u64.to_le_bytes());
        let err = load(v3.as_slice()).unwrap_err();
        assert!(matches!(err, LoadIndexError::Version('3')), "{err:?}");
        let message = err.to_string();
        assert!(message.contains("version 3"), "{message}");
        assert!(message.contains("reads version 4"), "{message}");
        assert!(message.contains("pimalign index build"), "{message}");
    }

    #[test]
    fn truncation_is_reported_as_corrupt_with_section() {
        for storage in [SaStorage::Full, SaStorage::Sampled(4)] {
            let index = sample_index(storage);
            let mut buffer = Vec::new();
            save(&index, &mut buffer).unwrap();
            // Cut the stream at every byte boundary: each must produce a
            // Corrupt("truncated in …") error, never a bare Io error.
            for cut in 0..buffer.len() {
                let err = load(&buffer[..cut]).unwrap_err();
                match err {
                    LoadIndexError::Corrupt(msg) => {
                        assert!(msg.contains("truncated in"), "{storage:?} cut {cut}: {msg}")
                    }
                    other => panic!("{storage:?} cut {cut}: expected Corrupt, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn checksum_mismatch_detected() {
        let index = sample_index(SaStorage::Full);
        let mut buffer = Vec::new();
        save(&index, &mut buffer).unwrap();
        let last = buffer.len() - 1;
        buffer[last] ^= 0xFF; // flip a bit of the trailing checksum
        let err = load(buffer.as_slice()).unwrap_err();
        match err {
            LoadIndexError::Corrupt(msg) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let index = sample_index(SaStorage::Sampled(4));
        let mut buffer = Vec::new();
        save(&index, &mut buffer).unwrap();
        buffer.extend_from_slice(b"EXTRA");
        let err = load(buffer.as_slice()).unwrap_err();
        match err {
            LoadIndexError::Corrupt(msg) => assert!(msg.contains("trailing"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn oversized_text_length_is_too_large() {
        let mut buffer = Vec::new();
        buffer.extend_from_slice(MAGIC);
        buffer.extend_from_slice(&(u32::MAX as u64 + 1).to_le_bytes());
        let err = load(buffer.as_slice()).unwrap_err();
        match err {
            LoadIndexError::TooLarge { len } => {
                assert_eq!(len, u32::MAX as usize + 1);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert!(err.to_string().contains("u32 position bound"));
    }

    #[test]
    fn genuine_io_errors_stay_io() {
        struct FailingReader;
        impl Read for FailingReader {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
        }
        let err = load(FailingReader).unwrap_err();
        match err {
            LoadIndexError::Io(e) => assert_eq!(e.to_string(), "disk on fire"),
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_bucket_count_detected() {
        let index = sample_index(SaStorage::Full);
        let mut buffer = Vec::new();
        save(&index, &mut buffer).unwrap();
        // Bucket-width field lives after magic(8) + n(8) + sentinel(8) +
        // packed BWT + count(16).
        let n = index.text_len();
        let offset = 8 + 8 + 8 + n.div_ceil(4) + 16;
        buffer[offset] = 0xFF; // mangle the bucket width
        let err = load(buffer.as_slice()).unwrap_err();
        assert!(matches!(err, LoadIndexError::Corrupt(_)), "{err}");
    }

    /// A header may declare any length it likes; the loader must answer
    /// from the bytes it was actually given. Each stream here is at most
    /// 128 bytes and inflates one length field to 2³¹ — the loader slices
    /// sections before it decodes any, so nothing is allocated for them.
    #[test]
    fn hostile_lengths_are_truncation_not_allocation() {
        const HUGE: u64 = 1 << 31;
        let header = |n: u64, sentinel: u64| {
            let mut b = MAGIC.to_vec();
            b.extend_from_slice(&n.to_le_bytes());
            b.extend_from_slice(&sentinel.to_le_bytes());
            b
        };
        // n inflated: the BWT section cannot be there.
        let inflated_n = header(HUGE, 0);
        // n = 4 (one BWT byte), d = 1 → 5 buckets promised, none present;
        // and d inflated so that the bucket count (1) is consistent.
        let tables = |d: u64, buckets: u64| {
            let mut b = header(4, 0);
            b.push(0);
            b.extend_from_slice(&[0u8; 16]);
            b.extend_from_slice(&d.to_le_bytes());
            b.extend_from_slice(&buckets.to_le_bytes());
            b
        };
        let inflated_buckets = tables(1, HUGE);
        let missing_buckets = tables(1, 5);
        // One marker row present, then a sampled SA promising a bitmap of
        // 2³¹ words; and one promising 2³¹ value words behind its one.
        let mut inflated_words = tables(HUGE, 1);
        inflated_words.extend_from_slice(&[0u8; 16]);
        inflated_words.push(1);
        inflated_words.extend_from_slice(&8u32.to_le_bytes());
        inflated_words.extend_from_slice(&4u64.to_le_bytes());
        let mut inflated_values = inflated_words.clone();
        inflated_words.extend_from_slice(&HUGE.to_le_bytes());
        inflated_values.extend_from_slice(&1u64.to_le_bytes());
        inflated_values.extend_from_slice(&1u64.to_le_bytes());
        inflated_values.push(1);
        inflated_values.extend_from_slice(&HUGE.to_le_bytes());
        for (stream, expected) in [
            (&inflated_n, "truncated in BWT"),
            (&inflated_buckets, "bucket count mismatch"),
            (&missing_buckets, "truncated in marker table"),
            (&inflated_words, "truncated in suffix array"),
            (&inflated_values, "truncated in suffix array"),
        ] {
            assert!(stream.len() <= 128, "{} bytes", stream.len());
            match load(stream.as_slice()).unwrap_err() {
                LoadIndexError::Corrupt(msg) => assert_eq!(msg, expected),
                other => panic!("expected Corrupt({expected}), got {other:?}"),
            }
        }
    }

    /// What only the sampled section can get wrong, written into an
    /// otherwise sound and sealed stream. The bitmap: a word count other
    /// than `⌈rows/64⌉`, a row marked past the last, a popcount other than
    /// the `⌈rows/rate⌉` rows the rate keeps. The packed values: a width
    /// other than that of `⌊(rows − 1)/rate⌋`, a word count other than
    /// `⌈kept · width/64⌉`, a padding bit set, a value past
    /// `⌊(rows − 1)/rate⌋`. Each is a `Corrupt` naming the suffix array.
    #[test]
    fn an_unsound_sampled_section_is_corrupt() {
        let index = sample_index(SaStorage::Sampled(3));
        let SuffixArraySamples::Sampled { stored, .. } = index.sa_samples() else {
            panic!("a sampled index");
        };
        let rows = index.text_len();
        assert_eq!(rows, 31, "one bitmap word, its top 33 bits past the rows");
        // ⌊30/3⌋ = 10: 11 values of 4 bits, 44 of one word's 64, and
        // 11 ..= 15 fit the width but are past the largest.
        assert_eq!(stored.value_bits(), 4);
        let mut pristine = Vec::new();
        save(&index, &mut pristine).unwrap();
        // The section's bitmap and values, rewritten behind its rate and
        // row count, then the stream re-sealed.
        let section_len = 8 + 8 * stored.bits().len() + 1 + 8 + 8 * stored.value_words().len();
        let section_start = pristine.len() - 8 - section_len;
        let counted = |buffer: &mut Vec<u8>, words: &[u64]| {
            buffer.extend_from_slice(&(words.len() as u64).to_le_bytes());
            words
                .iter()
                .for_each(|w| buffer.extend_from_slice(&w.to_le_bytes()));
        };
        let seal = |bits: &[u64], width: u8, values: &[u64]| {
            let mut buffer = pristine[..section_start].to_vec();
            counted(&mut buffer, bits);
            buffer.push(width);
            counted(&mut buffer, values);
            let digest = fnv1a(&buffer[8..]);
            buffer.extend_from_slice(&digest.to_le_bytes());
            buffer
        };
        let (word, values) = (stored.bits()[0], stored.value_words()[0]);
        assert_eq!(
            seal(&[word], 4, &[values]),
            pristine,
            "the rewrite is the layout"
        );
        let lowest_cleared = word & (word - 1);
        let lowest_unmarked = !word & (word + 1);
        // The first value (field 0) set to 11, then to 10, the largest.
        let (past, largest) = ((values & !0xf) | 11, (values & !0xf) | 10);
        assert!(load(seal(&[word], 4, &[largest]).as_slice()).is_ok());
        for (stream, expected) in [
            (
                seal(&[word, 0], 4, &[values]),
                "bitmap has 2 words for 31 rows",
            ),
            (seal(&[], 4, &[values]), "bitmap has 0 words for 31 rows"),
            (
                seal(&[word | 1 << 31], 4, &[values]),
                "bitmap marks a row past the last",
            ),
            (
                seal(&[word | 1 << 63], 4, &[values]),
                "bitmap marks a row past the last",
            ),
            (
                seal(&[lowest_cleared], 4, &[values]),
                "bitmap marks 10 rows where rate 3 keeps 11",
            ),
            (
                seal(&[word | lowest_unmarked], 4, &[values]),
                "bitmap marks 12 rows where rate 3 keeps 11",
            ),
            (
                seal(&[word], 5, &[values]),
                "values are 5 bits wide where ⌊(rows − 1)/rate⌋ = 10 needs 4",
            ),
            (seal(&[word], 255, &[values]), "values are 255 bits wide"),
            (
                seal(&[word], 4, &[values, 0]),
                "values fill 2 words where 11 of 4 bits fill 1",
            ),
            (
                seal(&[word], 4, &[]),
                "values fill 0 words where 11 of 4 bits fill 1",
            ),
            (
                seal(&[word], 4, &[values | 1 << 44]),
                "values set a padding bit past the last value",
            ),
            (
                seal(&[word], 4, &[past]),
                "values hold 11, past ⌊(rows − 1)/rate⌋ = 10",
            ),
        ] {
            match load(stream.as_slice()).unwrap_err() {
                LoadIndexError::Corrupt(msg) => {
                    assert!(msg.starts_with("suffix array "), "{msg}");
                    assert!(msg.contains(expected), "{msg}");
                }
                other => panic!("expected Corrupt({expected}), got {other:?}"),
            }
        }
    }

    #[test]
    fn error_type_is_well_behaved() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<LoadIndexError>();
    }
}
