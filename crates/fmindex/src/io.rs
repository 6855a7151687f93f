//! The index file: the reference and its FM-index, built once, loaded
//! at every boot.
//!
//! Pre-computation is one-off (paper Fig. 2: "it is just a one-step
//! computation") — a deployed platform builds the tables once and loads
//! them at boot. This module is the only one that knows the file's
//! bytes, a compact little-endian layout:
//!
//! ```text
//! magic  "PIMAIX2\n"
//! u64    reference name length, then the name (UTF-8)
//! u64    reference length (bases, at least 1)
//! [u8]   reference, 2-bit packed (T=00 G=01 A=10 C=11), four bases a
//!        byte from the low bits up
//! u64    text length (reference + sentinel)
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
//! The SA sampling rate is the SA section's: 1 for the full array, the
//! stored rate for a sampled one. The sampled SA is stored as
//! [`SampledRows`] holds it — the loader rebuilds only its rank
//! directory — so the bytes on disk are the bytes in memory. A file
//! whose magic names another format version is a
//! [`LoadIndexError::Version`], which says to rebuild it; this module
//! decodes no other version.
//!
//! [`load`] reads the file as a stream, hashing it as it goes, and never
//! holds it whole: each section is read straight into the buffer it is
//! kept in (the reference stays 2-bit packed), and a buffer grows only
//! with the bytes that arrive, so a hostile header allocates next to
//! nothing. It then verifies the trailing checksum, rejects trailing
//! garbage, and only then checks the tables against each other. A short
//! file surfaces as [`LoadIndexError::Corrupt`] naming the section that
//! was cut off.
//!
//! Only what the format stores is ever held: the check-points of the
//! marker table are recounted from the BWT on load (one streaming pass)
//! and cross-checked against the stored ones; the full Occ table exists
//! neither on disk nor in memory.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use bioseq::PackedSeq;

use crate::index::FmIndex;
use crate::locate::{SampledRows, SuffixArraySamples};

/// Magic bytes heading every index file: `PIMAIX`, the format version's
/// digit, a newline.
pub const MAGIC: &[u8; 8] = b"PIMAIX2\n";

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

/// FNV-1a-64 of `bytes` — the checksum of this format.
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
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file is an index of another format version (the digit its
    /// magic carries), which this build does not decode.
    Version(char),
    /// The declared reference exceeds [`FmIndex::MAX_REFERENCE_LEN`];
    /// such an index can never have been written by a correct builder.
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
            LoadIndexError::Io(e) => write!(f, "I/O error reading index artifact: {e}"),
            LoadIndexError::BadMagic => f.write_str("not a PIM-Aligner index artifact (bad magic)"),
            LoadIndexError::Version(found) => write!(
                f,
                "index artifact format version {found}, this build reads version {}: \
                 rebuild the artifact with `pimalign index build`",
                char::from(MAGIC[6])
            ),
            LoadIndexError::TooLarge { len } => write!(
                f,
                "index text of {len} rows exceeds the u32 position bound ({} rows max)",
                u32::MAX
            ),
            LoadIndexError::Corrupt(msg) => write!(f, "corrupt index artifact: {msg}"),
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

/// A writer that checksums (FNV-1a-64) what passes through it, so a
/// file is hashed as it is written instead of being staged in memory
/// first.
struct HashingWriter<W: Write> {
    inner: W,
    hash: u64,
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hash = fnv1a_update(self.hash, &buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Writes the index file of `reference`, named `name`, and of `index`,
/// the FM-index over it.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
///
/// # Examples
///
/// ```
/// use bioseq::{DnaSeq, PackedSeq};
/// use fmindex::{io as fm_io, FmIndex};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let reference: PackedSeq = "GATTACA".parse()?;
/// let index = FmIndex::builder().bucket_width(4).build(&reference);
/// let mut buffer = Vec::new();
/// fm_io::save("chrT", &reference, &index, &mut buffer)?;
/// let (name, restored_reference, restored) = fm_io::load(buffer.as_slice())?;
/// assert_eq!((name.as_str(), &restored_reference), ("chrT", &reference));
/// assert_eq!(restored.find(&"TTA".parse::<DnaSeq>()?), index.find(&"TTA".parse::<DnaSeq>()?));
/// # Ok(())
/// # }
/// ```
pub fn save<W: Write>(
    name: &str,
    reference: &PackedSeq,
    index: &FmIndex,
    mut writer: W,
) -> io::Result<()> {
    writer.write_all(MAGIC)?;
    let mut hashed = HashingWriter {
        inner: &mut writer,
        hash: FNV_OFFSET,
    };
    hashed.write_all(&(name.len() as u64).to_le_bytes())?;
    hashed.write_all(name.as_bytes())?;
    hashed.write_all(&(reference.len() as u64).to_le_bytes())?;
    hashed.write_all(reference.as_bytes())?;
    save_index(index, &mut hashed)?;
    let digest = hashed.hash;
    writer.write_all(&digest.to_le_bytes())?;
    writer.flush()
}

/// Writes `words` little-endian, staged through a chunk buffer so the
/// writer (and the checksum stacked on it) sees kilobytes, not words.
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

fn save_index<W: Write>(index: &FmIndex, writer: &mut W) -> io::Result<()> {
    let n = index.text_len() as u64;
    writer.write_all(&n.to_le_bytes())?;
    let bwt = index.bwt();
    writer.write_all(&(bwt.sentinel_pos() as u64).to_le_bytes())?;
    writer.write_all(bwt.packed_bytes())?;
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
            writer.write_all(&n.to_le_bytes())?;
            write_u64s(writer, stored.bits())?;
            writer.write_all(&[stored.value_bits() as u8])?;
            write_u64s(writer, stored.value_words())?;
        }
    }
    Ok(())
}

/// Reads an index file written by [`save`] to its end: the reference's
/// name, the reference, and the FM-index over it.
///
/// # Errors
///
/// Returns [`LoadIndexError`] on I/O failure, a wrong magic or another
/// format version, an over-long reference, or structurally invalid
/// contents (including truncation, checksum mismatch and trailing
/// bytes).
pub fn load<R: Read>(mut reader: R) -> Result<(String, PackedSeq, FmIndex), LoadIndexError> {
    // The magic first, so a foreign or old file is refused unread.
    let mut magic = Vec::new();
    reader
        .by_ref()
        .take(MAGIC.len() as u64)
        .read_to_end(&mut magic)?;
    if magic.len() < MAGIC.len() {
        return Err(LoadIndexError::Corrupt("truncated in magic".into()));
    }
    if magic != MAGIC {
        return Err(match magic[..] {
            [b'P', b'I', b'M', b'A', b'I', b'X', v, b'\n'] if v.is_ascii_digit() => {
                LoadIndexError::Version(char::from(v))
            }
            _ => LoadIndexError::BadMagic,
        });
    }
    let mut stream = HashingReader {
        inner: reader,
        hash: FNV_OFFSET,
    };
    let name_len = stream.len("name")?;
    let name = stream.bytes(name_len, "name")?;
    let ref_len = stream.len("reference length")?;
    if ref_len == 0 {
        return Err(LoadIndexError::Corrupt("empty reference".into()));
    }
    if ref_len > FmIndex::MAX_REFERENCE_LEN {
        return Err(LoadIndexError::TooLarge {
            len: ref_len.saturating_add(1),
        });
    }
    let packed = stream.bytes(ref_len.div_ceil(4), "reference")?;
    let sections = Sections::parse(&mut stream, ref_len + 1)?;
    let digest = stream.hash;
    if stream.u64("checksum")? != digest {
        return Err(LoadIndexError::Corrupt("checksum mismatch".into()));
    }
    if stream.inner.read(&mut [0])? != 0 {
        return Err(LoadIndexError::Corrupt(
            "trailing bytes after the index".into(),
        ));
    }
    let name =
        String::from_utf8(name).map_err(|_| LoadIndexError::Corrupt("name is not UTF-8".into()))?;
    let reference = PackedSeq::from_bytes(packed, ref_len);
    Ok((name, reference, sections.assemble()?))
}

/// Reads sections off a stream as their bytes arrive and checksums
/// (FNV-1a-64) them as it goes: the dual of [`HashingWriter`]. A
/// section's buffer grows with the bytes read into it, never ahead of
/// them by more than it already holds, so a hostile length allocates next
/// to nothing.
struct HashingReader<R: Read> {
    inner: R,
    hash: u64,
}

impl<R: Read> HashingReader<R> {
    /// Fills `buf`; a stream that ends first is truncated in `section`.
    fn fill(&mut self, buf: &mut [u8], section: &str) -> Result<(), LoadIndexError> {
        self.inner.read_exact(buf).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => {
                LoadIndexError::Corrupt(format!("truncated in {section}"))
            }
            _ => LoadIndexError::Io(e),
        })?;
        self.hash = fnv1a_update(self.hash, buf);
        Ok(())
    }

    /// `count` little-endian records of `N` bytes each.
    fn records<T, const N: usize>(
        &mut self,
        count: usize,
        section: &str,
        decode: fn([u8; N]) -> T,
    ) -> Result<Vec<T>, LoadIndexError> {
        const CHUNK: usize = 4096;
        let mut out = Vec::new();
        let mut chunk = [0u8; CHUNK];
        while out.len() < count {
            // Double what has arrived, up to what was declared.
            if out.len() == out.capacity() {
                out.reserve_exact((count - out.len()).min(out.len().max(CHUNK)));
            }
            let n = (count - out.len()).min(CHUNK / N);
            self.fill(&mut chunk[..n * N], section)?;
            out.extend(
                chunk[..n * N]
                    .chunks_exact(N)
                    .map(|b| decode(b.try_into().expect("chunks_exact(N) yields N-byte chunks"))),
            );
        }
        Ok(out)
    }

    fn bytes(&mut self, count: usize, section: &str) -> Result<Vec<u8>, LoadIndexError> {
        self.records(count, section, |[byte]: [u8; 1]| byte)
    }

    fn u8(&mut self, section: &str) -> Result<u8, LoadIndexError> {
        Ok(self.bytes(1, section)?[0])
    }

    fn u32(&mut self, section: &str) -> Result<u32, LoadIndexError> {
        Ok(self.records(1, section, u32::from_le_bytes)?[0])
    }

    fn u64(&mut self, section: &str) -> Result<u64, LoadIndexError> {
        Ok(self.records(1, section, u64::from_le_bytes)?[0])
    }

    /// A `u64` length or position field; one that does not fit `usize`
    /// saturates, which every later range or length check rejects.
    fn len(&mut self, section: &str) -> Result<usize, LoadIndexError> {
        Ok(usize::try_from(self.u64(section)?).unwrap_or(usize::MAX))
    }
}

/// The SA section of a file, read but not yet checked.
enum SaSection {
    Full(Vec<u32>),
    Sampled {
        rate: u32,
        bits: Vec<u64>,
        width: u8,
        values: Vec<u64>,
    },
}

/// A file's index sections, read and length-checked but not yet
/// assembled.
struct Sections {
    text_len: usize,
    sentinel: usize,
    packed_bwt: Vec<u8>,
    count: [u32; 4],
    bucket_width: usize,
    markers: Vec<u32>,
    sa: SaSection,
}

impl Sections {
    /// The index sections of the text of `text_len` rows the reference
    /// before them makes.
    fn parse<R: Read>(
        stream: &mut HashingReader<R>,
        text_len: usize,
    ) -> Result<Sections, LoadIndexError> {
        let corrupt = |msg: &str| Err(LoadIndexError::Corrupt(msg.into()));
        let n = stream.len("text length")?;
        if n != text_len {
            return Err(LoadIndexError::Corrupt(format!(
                "text length {n} for a reference of {} bases",
                text_len - 1
            )));
        }
        let sentinel = stream.len("sentinel")?;
        if sentinel >= n {
            return corrupt("sentinel out of range");
        }
        let packed_bwt = stream.bytes(n.div_ceil(4), "BWT")?;
        let mut count = [0u32; 4];
        for c in &mut count {
            *c = stream.u32("count table")?;
        }
        let bucket_width = stream.len("marker table")?;
        if bucket_width == 0 {
            return corrupt("zero bucket width");
        }
        let buckets = stream.len("marker table")?;
        if buckets != n / bucket_width + 1 {
            return corrupt("bucket count mismatch");
        }
        let markers = stream.records(
            buckets.saturating_mul(4),
            "marker table",
            u32::from_le_bytes,
        )?;
        let sa = match stream.u8("SA tag")? {
            0 => {
                if stream.len("suffix array")? != n {
                    return corrupt("SA length mismatch");
                }
                SaSection::Full(stream.records(n, "suffix array", u32::from_le_bytes)?)
            }
            1 => {
                let rate = stream.u32("suffix array")?;
                if rate == 0 {
                    return corrupt("zero SA rate");
                }
                if stream.len("suffix array")? != n {
                    return corrupt("SA length mismatch");
                }
                let words = stream.len("suffix array")?;
                let bits = stream.records(words, "suffix array", u64::from_le_bytes)?;
                let width = stream.u8("suffix array")?;
                let words = stream.len("suffix array")?;
                let values = stream.records(words, "suffix array", u64::from_le_bytes)?;
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
            SaSection::Full(values) => SuffixArraySamples::Full(values),
            SaSection::Sampled {
                rate,
                bits,
                width,
                values,
            } => SuffixArraySamples::Sampled {
                stored: SampledRows::new(bits, u32::from(width), values, self.text_len, rate)
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
            self.markers.into_iter(),
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

    const NAME: &str = "sample";

    fn sample_reference() -> PackedSeq {
        "GATTACAGATTACAGGGTTTCCCAAATGCA".parse().unwrap()
    }

    fn sample_index(storage: SaStorage) -> FmIndex {
        FmIndex::builder()
            .bucket_width(4)
            .sa_storage(storage)
            .build(&sample_reference())
    }

    /// The file of [`sample_reference`] and `index`.
    fn saved(index: &FmIndex) -> Vec<u8> {
        let mut buffer = Vec::new();
        save(NAME, &sample_reference(), index, &mut buffer).expect("save");
        buffer
    }

    /// Bytes before the text length: magic, name length, name, reference
    /// length and the 30 packed bases.
    const HEADER: usize = 8 + 8 + NAME.len() + 8 + 30usize.div_ceil(4);

    fn round_trip(index: &FmIndex) -> FmIndex {
        let (name, reference, restored) = load(saved(index).as_slice()).expect("load");
        assert_eq!((name.as_str(), reference), (NAME, sample_reference()));
        restored
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
    /// `size_bytes()` is the bytes `save` writes less the name, the packed
    /// reference and the fixed framing: magic(8) + name length(8) +
    /// reference length(8) + n(8) + sentinel(8) + count(16) + bucket
    /// width(8) + bucket count(8) + SA tag(1) + SA header (full: len(8);
    /// sampled: rate(4) + len(8) + bitmap words(8) + value width(1) +
    /// value words(8)) + checksum(8); and the sampled SA is smaller than
    /// its values as `u32`s.
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
            let reference = reference.to_packed();
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
                save("g", &reference, &index, &mut buffer).unwrap();
                let framing = if rate == 1 { 89 } else { 110 };
                let stored = 1 + reference.len().div_ceil(4) + index.size_bytes();
                assert_eq!(stored + framing, buffer.len(), "rate {rate}");
                if let SuffixArraySamples::Sampled { stored, .. } = index.sa_samples() {
                    let largest = reference.len() / rate as usize;
                    let edge = largest + reference.len() % 2;
                    assert!(edge.is_power_of_two(), "rate {rate}: {largest}");
                    assert_eq!(stored.value_bits(), bits_for(largest as u64), "rate {rate}");
                    let as_u32s = stored.bits().len() * 8 + stored.stored_len() * 4;
                    assert!(index.sa_samples().size_bytes() < as_u32s, "rate {rate}");
                }
                let (_, _, restored) = load(buffer.as_slice()).expect("own file");
                assert_eq!(restored.sa_samples(), index.sa_samples(), "rate {rate}");
                assert_eq!(restored.sa_rate(), rate);
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

    /// A file of the previous format, which framed the index in a second
    /// magic and checksum: its magic is refused by version, with what to
    /// do, before any of it is read.
    #[test]
    fn a_previous_version_says_to_rebuild() {
        let mut v1 = saved(&sample_index(SaStorage::Full));
        v1[..8].copy_from_slice(b"PIMAIX1\n");
        let err = load(v1.as_slice()).unwrap_err();
        assert!(matches!(err, LoadIndexError::Version('1')), "{err:?}");
        let message = err.to_string();
        assert!(message.contains("version 1"), "{message}");
        assert!(message.contains("reads version 2"), "{message}");
        assert!(message.contains("pimalign index build"), "{message}");
        assert!(!message.contains("corrupt"), "{message}");
    }

    #[test]
    fn truncation_is_reported_as_corrupt_with_section() {
        for storage in [SaStorage::Full, SaStorage::Sampled(4)] {
            let buffer = saved(&sample_index(storage));
            // Cut the file at every byte boundary: each must produce a
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
        let mut buffer = saved(&sample_index(SaStorage::Full));
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
        let mut buffer = saved(&sample_index(SaStorage::Sampled(4)));
        buffer.extend_from_slice(b"EXTRA");
        let err = load(buffer.as_slice()).unwrap_err();
        match err {
            LoadIndexError::Corrupt(msg) => assert!(msg.contains("trailing"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn oversized_reference_length_is_too_large() {
        let mut buffer = MAGIC.to_vec();
        buffer.extend_from_slice(&0u64.to_le_bytes());
        buffer.extend_from_slice(&u64::from(u32::MAX).to_le_bytes());
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
        let mut buffer = saved(&index);
        // Bucket-width field lives after the header + n(8) + sentinel(8) +
        // packed BWT + count(16).
        let offset = HEADER + 8 + 8 + index.text_len().div_ceil(4) + 16;
        buffer[offset] = 0xFF; // mangle the bucket width
        let err = load(buffer.as_slice()).unwrap_err();
        assert!(matches!(err, LoadIndexError::Corrupt(_)), "{err}");
    }

    /// A header may declare any length it likes; the loader must answer
    /// from the bytes it was actually given. Each file here is at most
    /// 128 bytes and inflates one length field to 2³¹ — the loader slices
    /// sections before it decodes any, so nothing is allocated for them.
    #[test]
    fn hostile_lengths_are_truncation_not_allocation() {
        const HUGE: u64 = 1 << 31;
        let field = |b: &mut Vec<u8>, value: u64| b.extend_from_slice(&value.to_le_bytes());
        let mut inflated_name = MAGIC.to_vec();
        field(&mut inflated_name, HUGE);
        // No name, then a reference of `len` bases behind `packed`.
        let header = |len: u64, packed: &[u8]| {
            let mut b = MAGIC.to_vec();
            field(&mut b, 0);
            field(&mut b, len);
            b.extend_from_slice(packed);
            b
        };
        // The reference inflated: its bases cannot be there.
        let inflated_reference = header(HUGE, &[]);
        // An index over other than the reference before it.
        let mut inflated_text = header(3, &[0]);
        field(&mut inflated_text, HUGE);
        // Three bases, so n = 4 (one BWT byte), d = 1 → 5 buckets
        // promised, none present; and d inflated so that the bucket count
        // (1) is consistent.
        let tables = |d: u64, buckets: u64| {
            let mut b = header(3, &[0]);
            field(&mut b, 4);
            field(&mut b, 0);
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
            (&inflated_name, "truncated in name"),
            (&inflated_reference, "truncated in reference"),
            (
                &inflated_text,
                "text length 2147483648 for a reference of 3 bases",
            ),
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
    /// otherwise sound and sealed file. The bitmap: a word count other
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
        let pristine = saved(&index);
        // The section's bitmap and values, rewritten behind its rate and
        // row count, then the file re-sealed.
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
