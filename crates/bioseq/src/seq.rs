//! Owned, unpacked DNA sequences.

use std::fmt;
use std::ops::{Index, Range};
use std::str::FromStr;

use crate::{Base, PackedSeq, ParseSeqError};

/// An owned DNA sequence stored one [`Base`] per byte.
///
/// `DnaSeq` is the working representation used by the software algorithms
/// (suffix-array construction, backward search, dynamic programming).
/// The PIM platform instead stores sequences 2-bit packed — convert with
/// [`DnaSeq::to_packed`] / [`PackedSeq::to_dna_seq`].
///
/// # Examples
///
/// ```
/// use bioseq::{Base, DnaSeq};
///
/// # fn main() -> Result<(), bioseq::ParseSeqError> {
/// let s: DnaSeq = "CTA".parse()?;
/// assert_eq!(s.to_string(), "CTA");
/// assert_eq!(s.reverse_complement().to_string(), "TAG");
/// assert_eq!(s.iter().filter(|&&b| b == Base::T).count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DnaSeq {
    bases: Vec<Base>,
}

impl DnaSeq {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        DnaSeq { bases: Vec::new() }
    }

    /// Creates an empty sequence with room for `capacity` bases.
    pub fn with_capacity(capacity: usize) -> Self {
        DnaSeq {
            bases: Vec::with_capacity(capacity),
        }
    }

    /// Wraps an existing base vector.
    pub fn from_bases(bases: Vec<Base>) -> Self {
        DnaSeq { bases }
    }

    /// Parses an ASCII byte slice (case-insensitive `ACGT`).
    ///
    /// # Errors
    ///
    /// Returns [`ParseSeqError`] on the first non-ACGT byte.
    pub fn from_ascii(ascii: &[u8]) -> Result<Self, ParseSeqError> {
        let mut seq = DnaSeq::new();
        seq.extend_from_ascii(ascii)?;
        Ok(seq)
    }

    /// Appends the bases an ASCII byte slice spells (case-insensitive
    /// `ACGT`); on error nothing is appended.
    ///
    /// # Errors
    ///
    /// Returns [`ParseSeqError`] naming the first non-ACGT byte.
    pub fn extend_from_ascii(&mut self, ascii: &[u8]) -> Result<(), ParseSeqError> {
        self.extend_decoded(ascii).map_err(|at| {
            Base::from_char(ascii[at] as char).expect_err("the byte the table rejected")
        })
    }

    /// [`DnaSeq::extend_from_ascii`] over text, where the offender named
    /// is a whole character.
    pub(crate) fn extend_from_str(&mut self, text: &str) -> Result<(), ParseSeqError> {
        self.extend_decoded(text.as_bytes())
            .map_err(|_| offender(text))
    }

    /// Decodes `ascii` through the byte table straight onto the end of
    /// the sequence, or appends nothing and returns the offset of the
    /// first byte that is not a base.
    fn extend_decoded(&mut self, ascii: &[u8]) -> Result<(), usize> {
        let start = self.bases.len();
        let mut all_bases = true;
        self.bases.extend(ascii.iter().map(|&byte| {
            let base = Base::from_ascii(byte);
            all_bases &= base.is_some();
            base.unwrap_or(Base::A)
        }));
        if all_bases {
            return Ok(());
        }
        self.bases.truncate(start);
        Err(ascii
            .iter()
            .position(|&byte| Base::from_ascii(byte).is_none())
            .expect("a byte was rejected"))
    }

    /// Number of bases.
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    /// `true` when the sequence holds no bases.
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }

    /// Borrow the bases as a slice.
    pub fn as_slice(&self) -> &[Base] {
        &self.bases
    }

    /// The base at `index`, or `None` when out of bounds.
    pub fn get(&self, index: usize) -> Option<Base> {
        self.bases.get(index).copied()
    }

    /// Appends one base.
    pub fn push(&mut self, base: Base) {
        self.bases.push(base);
    }

    /// Iterates over the bases.
    pub fn iter(&self) -> std::slice::Iter<'_, Base> {
        self.bases.iter()
    }

    /// A sub-sequence copy over `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn subseq(&self, range: Range<usize>) -> DnaSeq {
        DnaSeq {
            bases: self.bases[range].to_vec(),
        }
    }

    /// The reverse complement (the opposite genome strand, paper §I).
    pub fn reverse_complement(&self) -> DnaSeq {
        DnaSeq {
            bases: self.bases.iter().rev().map(|b| b.complement()).collect(),
        }
    }

    /// Converts to the 2-bit packed representation used by the PIM platform.
    pub fn to_packed(&self) -> PackedSeq {
        self.bases.iter().copied().collect()
    }

    /// Consumes the sequence, returning the underlying base vector.
    pub fn into_bases(self) -> Vec<Base> {
        self.bases
    }

    /// Hamming distance to `other` (number of mismatching positions).
    ///
    /// # Panics
    ///
    /// Panics if the sequences have different lengths.
    pub fn hamming_distance(&self, other: &DnaSeq) -> usize {
        assert_eq!(
            self.len(),
            other.len(),
            "hamming distance requires equal-length sequences"
        );
        self.iter()
            .zip(other.iter())
            .filter(|(a, b)| a != b)
            .count()
    }
}

/// The error naming the first character of `text` that is not a base.
pub(crate) fn offender(text: &str) -> ParseSeqError {
    let at = text
        .bytes()
        .position(|byte| Base::from_ascii(byte).is_none())
        .expect("a byte was rejected");
    // Every byte before `at` was an ASCII letter, so `at` starts a
    // character.
    let offender = text[at..].chars().next().expect("a rejected byte");
    Base::from_char(offender).expect_err("the character the table rejected")
}

impl FromStr for DnaSeq {
    type Err = ParseSeqError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut seq = DnaSeq::new();
        seq.extend_from_str(s)?;
        Ok(seq)
    }
}

impl fmt::Display for DnaSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.bases {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

impl Index<usize> for DnaSeq {
    type Output = Base;

    fn index(&self, index: usize) -> &Base {
        &self.bases[index]
    }
}

impl FromIterator<Base> for DnaSeq {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> Self {
        DnaSeq {
            bases: iter.into_iter().collect(),
        }
    }
}

impl Extend<Base> for DnaSeq {
    fn extend<I: IntoIterator<Item = Base>>(&mut self, iter: I) {
        self.bases.extend(iter);
    }
}

impl From<Vec<Base>> for DnaSeq {
    fn from(bases: Vec<Base>) -> Self {
        DnaSeq { bases }
    }
}

impl AsRef<[Base]> for DnaSeq {
    fn as_ref(&self) -> &[Base] {
        &self.bases
    }
}

impl<'a> IntoIterator for &'a DnaSeq {
    type Item = &'a Base;
    type IntoIter = std::slice::Iter<'a, Base>;

    fn into_iter(self) -> Self::IntoIter {
        self.bases.iter()
    }
}

impl IntoIterator for DnaSeq {
    type Item = Base;
    type IntoIter = std::vec::IntoIter<Base>;

    fn into_iter(self) -> Self::IntoIter {
        self.bases.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        let s: DnaSeq = "TGCTA".parse().unwrap();
        assert_eq!(s.to_string(), "TGCTA");
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn parse_rejects_ambiguity_codes() {
        assert!("ACGTN".parse::<DnaSeq>().is_err());
        assert!("AC-GT".parse::<DnaSeq>().is_err());
    }

    #[test]
    fn lowercase_accepted() {
        let s: DnaSeq = "acgt".parse().unwrap();
        assert_eq!(s.to_string(), "ACGT");
    }

    #[test]
    fn reverse_complement_is_involution() {
        let s: DnaSeq = "GATTACA".parse().unwrap();
        assert_eq!(s.reverse_complement().reverse_complement(), s);
    }

    #[test]
    fn reverse_complement_known_value() {
        let s: DnaSeq = "ATCG".parse().unwrap();
        assert_eq!(s.reverse_complement().to_string(), "CGAT");
    }

    #[test]
    fn subseq_extracts_range() {
        let s: DnaSeq = "TGCTA".parse().unwrap();
        assert_eq!(s.subseq(2..5).to_string(), "CTA");
    }

    #[test]
    fn hamming_counts_mismatches() {
        let a: DnaSeq = "ACGT".parse().unwrap();
        let b: DnaSeq = "AGGA".parse().unwrap();
        assert_eq!(a.hamming_distance(&b), 2);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn hamming_panics_on_length_mismatch() {
        let a: DnaSeq = "ACGT".parse().unwrap();
        let b: DnaSeq = "ACG".parse().unwrap();
        let _ = a.hamming_distance(&b);
    }

    #[test]
    fn collect_and_extend() {
        let mut s: DnaSeq = [Base::A, Base::C].into_iter().collect();
        s.extend([Base::G, Base::T]);
        assert_eq!(s.to_string(), "ACGT");
    }

    #[test]
    fn empty_sequence_behaves() {
        let s = DnaSeq::new();
        assert!(s.is_empty());
        assert_eq!(s.to_string(), "");
        assert_eq!(s.get(0), None);
    }

    #[test]
    fn from_ascii_matches_from_str() {
        let a = DnaSeq::from_ascii(b"ACGT").unwrap();
        let b: DnaSeq = "ACGT".parse().unwrap();
        assert_eq!(a, b);
    }
}
