//! 2-bit packed DNA sequences — the PIM platform's storage layout.

use std::fmt;

use crate::{Base, DnaSeq};

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

    /// Creates an empty packed sequence with room for `capacity` bases.
    pub fn with_capacity(capacity: usize) -> Self {
        PackedSeq {
            bytes: Vec::with_capacity(capacity.div_ceil(4)),
            len: 0,
        }
    }

    /// Packs a slice four items to a byte; `code` gives each item's 2-bit
    /// hardware pattern ([`Base::code`] for a base). The bulk form of
    /// pushing every item.
    pub fn pack<T>(items: &[T], code: impl Fn(&T) -> u8) -> PackedSeq {
        let byte_of = |quad: &[T]| {
            quad.iter()
                .enumerate()
                .fold(0, |byte, (i, item)| byte | (code(item) & 0b11) << (2 * i))
        };
        let mut quads = items.chunks_exact(4);
        let mut bytes = Vec::with_capacity(items.len().div_ceil(4));
        bytes.extend(quads.by_ref().map(byte_of));
        if !quads.remainder().is_empty() {
            bytes.push(byte_of(quads.remainder()));
        }
        PackedSeq {
            bytes,
            len: items.len(),
        }
    }

    /// Number of bases stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no bases are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The underlying packed bytes (last byte may be partially used).
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
        self.iter().collect()
    }

    /// The raw 2-bit code stream for positions `start .. start + count`,
    /// exactly the bit pattern a word-line segment holds. Used by the
    /// sub-array mapper when loading the BWT zone.
    ///
    /// # Panics
    ///
    /// Panics if `start + count > self.len()`.
    pub fn codes(&self, start: usize, count: usize) -> Vec<u8> {
        assert!(
            start + count <= self.len,
            "code range {}..{} out of bounds (len {})",
            start,
            start + count,
            self.len
        );
        (start..start + count)
            .map(|i| self.get(i).expect("in bounds").code())
            .collect()
    }
}

impl FromIterator<Base> for PackedSeq {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut seq = PackedSeq::with_capacity(iter.size_hint().0);
        for b in iter {
            seq.push(b);
        }
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
        let p: PackedSeq = "TGAC".parse::<DnaSeq>().unwrap().to_packed();
        assert_eq!(p.codes(0, 4), vec![0b00, 0b01, 0b10, 0b11]);
        assert_eq!(p.codes(1, 2), vec![0b01, 0b10]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn codes_panics_out_of_range() {
        let p = sample();
        let _ = p.codes(10, 10);
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
