//! 2-bit packed DNA sequences — the PIM platform's storage layout.

use std::fmt;
use std::ops::Range;
use std::str::FromStr;

use crate::{Base, DnaSeq, ParseSeqError};

/// A DNA sequence packed two bits per base using the paper's hardware
/// encoding (Fig. 6a: `T = 00`, `G = 01`, `A = 10`, `C = 11`).
///
/// Bases are packed little-endian within each byte: base `i` occupies bits
/// `2·(i mod 4) .. 2·(i mod 4) + 2` of byte `i / 4`. A 256-bit SOT-MRAM word
/// line therefore holds exactly [`PackedSeq::BASES_PER_WORD_LINE`] = 128
/// bases, which is the paper's bucket width `d`.
///
/// # Examples
///
/// ```
/// use bioseq::{Base, PackedSeq};
///
/// let p: PackedSeq = [Base::T, Base::G, Base::A, Base::C].into_iter().collect();
/// assert_eq!(p.len(), 4);
/// assert_eq!(p.get(2), Some(Base::A));
/// // T=00, G=01, A=10, C=11 packed little-endian: 0b11_10_01_00.
/// assert_eq!(p.as_bytes(), &[0b1110_0100]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct PackedSeq {
    bytes: Vec<u8>,
    len: usize,
}

impl PackedSeq {
    /// Number of bases a 256-bit sub-array word line holds (the paper's
    /// "128 bps encoded by 2 bits" per row, Fig. 6a) — also the default
    /// Occ-table bucket width `d`.
    pub const BASES_PER_WORD_LINE: usize = 128;

    /// Creates an empty packed sequence.
    pub fn new() -> Self {
        PackedSeq {
            bytes: Vec::new(),
            len: 0,
        }
    }

    /// Takes over `bytes` as the packing of `len` bases, as
    /// [`PackedSeq::as_bytes`] gives them; bits past the last base are
    /// cleared, whatever they held.
    ///
    /// # Panics
    ///
    /// Panics unless `bytes` is `len` bases rounded up to whole bytes.
    pub fn from_bytes(mut bytes: Vec<u8>, len: usize) -> PackedSeq {
        assert_eq!(bytes.len(), len.div_ceil(4), "{len} bases packed");
        if !len.is_multiple_of(4) {
            bytes[len / 4] &= (1 << (2 * (len % 4))) - 1;
        }
        PackedSeq { bytes, len }
    }

    /// Number of bases stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no bases are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The underlying packed bytes (last byte may be partially used).
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Appends one base.
    pub fn push(&mut self, base: Base) {
        let bit = (self.len % 4) * 2;
        if bit == 0 {
            self.bytes.push(base.code());
        } else {
            *self.bytes.last_mut().expect("non-empty after first push") |= base.code() << bit;
        }
        self.len += 1;
    }

    /// The base at `index`, or `None` when out of bounds.
    pub fn get(&self, index: usize) -> Option<Base> {
        if index >= self.len {
            return None;
        }
        let byte = self.bytes[index / 4];
        let bit = (index % 4) * 2;
        Some(Base::from_code(byte >> bit))
    }

    /// Iterates over the bases.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            seq: self,
            front: 0,
            back: self.len,
        }
    }

    /// Unpacks into a [`DnaSeq`].
    pub fn to_dna_seq(&self) -> DnaSeq {
        let mut bases = Vec::new();
        self.unpack_into(0..self.len, &mut bases);
        DnaSeq::from_bases(bases)
    }

    /// Replaces the contents of `out` with the bases over `range`,
    /// unpacked.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn unpack_into(&self, range: Range<usize>, out: &mut Vec<Base>) {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "range {range:?} out of bounds (len {})",
            self.len
        );
        out.clear();
        out.extend(range.map(|i| Base::from_code(self.bytes[i / 4] >> (2 * (i % 4)))));
    }

    /// Appends the bases `text` spells (case-insensitive `ACGT`); on
    /// error nothing is appended.
    ///
    /// # Errors
    ///
    /// Returns [`ParseSeqError`] naming the first character that is not
    /// a base.
    pub(crate) fn extend_from_str(&mut self, text: &str) -> Result<(), ParseSeqError> {
        if text.bytes().any(|byte| Base::from_ascii(byte).is_none()) {
            return Err(crate::seq::offender(text));
        }
        let code = |byte: u8| Base::from_ascii(byte).map_or(0, Base::code);
        // Fill the partial last byte, then pack four letters a byte.
        let fill = text.len().min(self.len.wrapping_neg() % 4);
        let (head, body) = text.as_bytes().split_at(fill);
        head.iter()
            .for_each(|&byte| self.push(Base::from_code(code(byte))));
        let quads = body.chunks_exact(4);
        let tail = quads.remainder();
        self.bytes.extend(
            quads.map(|q| code(q[0]) | code(q[1]) << 2 | code(q[2]) << 4 | code(q[3]) << 6),
        );
        self.len += body.len() - tail.len();
        tail.iter()
            .for_each(|&byte| self.push(Base::from_code(code(byte))));
        Ok(())
    }
}

impl FromStr for PackedSeq {
    type Err = ParseSeqError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut seq = PackedSeq::new();
        seq.extend_from_str(s)?;
        Ok(seq)
    }
}

impl FromIterator<Base> for PackedSeq {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> Self {
        let mut seq = PackedSeq::new();
        seq.extend(iter);
        seq
    }
}

impl Extend<Base> for PackedSeq {
    fn extend<I: IntoIterator<Item = Base>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

impl From<&DnaSeq> for PackedSeq {
    fn from(seq: &DnaSeq) -> Self {
        seq.to_packed()
    }
}

impl fmt::Display for PackedSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

/// Iterator over the bases of a [`PackedSeq`], produced by
/// [`PackedSeq::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    seq: &'a PackedSeq,
    front: usize,
    back: usize,
}

impl Iterator for Iter<'_> {
    type Item = Base;

    fn next(&mut self) -> Option<Base> {
        if self.front >= self.back {
            return None;
        }
        let b = self.seq.get(self.front);
        self.front += 1;
        b
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.back - self.front;
        (rem, Some(rem))
    }
}

impl DoubleEndedIterator for Iter<'_> {
    fn next_back(&mut self) -> Option<Base> {
        if self.front >= self.back {
            return None;
        }
        self.back -= 1;
        self.seq.get(self.back)
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PackedSeq {
        "TGCTAACGTTGCA".parse::<DnaSeq>().unwrap().to_packed()
    }

    #[test]
    fn push_get_round_trip() {
        let p = sample();
        let d = p.to_dna_seq();
        assert_eq!(d.to_string(), "TGCTAACGTTGCA");
        for (i, b) in d.iter().enumerate() {
            assert_eq!(p.get(i), Some(*b));
        }
        assert_eq!(p.get(p.len()), None);
    }

    #[test]
    fn packing_density_is_two_bits() {
        let p = sample();
        assert_eq!(p.as_bytes().len(), p.len().div_ceil(4));
    }

    #[test]
    fn word_line_constant_matches_paper() {
        // 256-bit word line / 2 bits per base = 128 bases = bucket width d.
        assert_eq!(PackedSeq::BASES_PER_WORD_LINE, 128);
    }

    #[test]
    fn codes_extracts_hardware_pattern() {
        let p: PackedSeq = "TGACA".parse().unwrap();
        assert_eq!(p.as_bytes(), [0b11_10_01_00, 0b10]);
        let mut bases = Vec::new();
        p.unpack_into(1..3, &mut bases);
        assert_eq!(bases, [Base::G, Base::A]);
        // Bits past the last base are cleared, whatever a file held.
        let q = PackedSeq::from_bytes(vec![0b11_10_01_00, 0b1111_1110], 5);
        assert_eq!(q, p);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn codes_panics_out_of_range() {
        let p = sample();
        p.unpack_into(10..20, &mut Vec::new());
    }

    #[test]
    fn a_rejected_line_appends_nothing() {
        let mut p: PackedSeq = "TGCTAA".parse().unwrap();
        let err = p.extend_from_str("GGNA").unwrap_err();
        assert_eq!(err.bad_character(), Some('N'));
        assert_eq!(p, "TGCTAA".parse().unwrap());
        p.extend_from_str("cgt").unwrap();
        assert_eq!(p.to_string(), "TGCTAACGT");
        assert_eq!(p, "TGCTAACGT".parse::<DnaSeq>().unwrap().to_packed());
    }

    #[test]
    fn iterator_is_double_ended_and_exact() {
        let p = sample();
        let fwd: Vec<Base> = p.iter().collect();
        let mut rev: Vec<Base> = p.iter().rev().collect();
        rev.reverse();
        assert_eq!(fwd, rev);
        assert_eq!(p.iter().len(), p.len());
    }

    #[test]
    fn display_matches_unpacked() {
        let p = sample();
        assert_eq!(p.to_string(), p.to_dna_seq().to_string());
    }

    #[test]
    fn empty_sequence() {
        let p = PackedSeq::new();
        assert!(p.is_empty());
        assert_eq!(p.iter().count(), 0);
        assert!(p.as_bytes().is_empty());
    }
}
