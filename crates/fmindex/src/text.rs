//! The indexed text: reference genome plus sentinel.

use std::borrow::Cow;
use std::fmt;

use bioseq::{Base, DnaSeq, Symbol};

/// The alphabet size of the indexed text: `$, A, C, G, T`.
pub const ALPHABET: usize = 5;

/// A reference genome with the `$` sentinel appended — a view of the
/// reference's own bases, the sentinel virtual at position
/// `text.len() - 1`. Symbol ranks are `$ → 0`, `A → 1`, …, `T → 4`.
///
/// Building one copies no base: [`Text::from_reference`] borrows the
/// reference. Only [`Bwt::invert`](crate::Bwt::invert), which has no
/// reference to borrow, returns a `Text` that owns its bases.
///
/// # Examples
///
/// ```
/// use bioseq::DnaSeq;
/// use fmindex::Text;
///
/// # fn main() -> Result<(), bioseq::ParseSeqError> {
/// let reference: DnaSeq = "TGCTA".parse()?;
/// let t = Text::from_reference(&reference);
/// assert_eq!(t.len(), 6); // 5 bases + $
/// assert_eq!(t.to_string(), "TGCTA$");
/// assert_eq!(t.rank(5), 0); // sentinel
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Text<'a> {
    bases: Cow<'a, [Base]>,
}

impl<'a> Text<'a> {
    /// The text `S$` of reference `S`, borrowing its bases.
    pub fn from_reference(reference: &'a DnaSeq) -> Text<'a> {
        Text {
            bases: Cow::Borrowed(reference.as_slice()),
        }
    }

    /// The text `S$` of bases that are not held anywhere else.
    pub(crate) fn from_bases(bases: Vec<Base>) -> Text<'static> {
        Text {
            bases: Cow::Owned(bases),
        }
    }

    /// Total length including the sentinel (the `n + 1` of the paper's
    /// `n`-bp reference).
    pub fn len(&self) -> usize {
        self.bases.len() + 1
    }

    /// `Text` always contains at least the sentinel.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Length of the reference without the sentinel.
    pub fn reference_len(&self) -> usize {
        self.bases.len()
    }

    /// The reference's bases: every position but the sentinel's.
    pub fn bases(&self) -> &[Base] {
        &self.bases
    }

    /// The symbol rank at `pos` (`0` for the sentinel).
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.len()`.
    #[inline]
    pub fn rank(&self, pos: usize) -> u8 {
        if pos == self.bases.len() {
            0
        } else {
            self.bases[pos].rank() as u8 + 1
        }
    }

    /// The symbol at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.len()`.
    pub fn symbol(&self, pos: usize) -> Symbol {
        Symbol::from_rank(usize::from(self.rank(pos)))
    }

    /// Reconstructs the reference sequence (without the sentinel).
    pub fn to_reference(&self) -> DnaSeq {
        DnaSeq::from_bases(self.bases.to_vec())
    }

    /// The suffix starting at `pos`, up to but without the sentinel that
    /// ends it. Slices order as the suffixes do: of two slices one is a
    /// proper prefix of, the prefix is the smaller, as its sentinel is.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.len()`.
    pub fn suffix(&self, pos: usize) -> &[Base] {
        &self.bases[pos..]
    }
}

impl fmt::Display for Text<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for pos in 0..self.len() {
            write!(f, "{}", self.symbol(pos).to_char())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tgcta() -> DnaSeq {
        "TGCTA".parse().unwrap()
    }

    #[test]
    fn sentinel_is_appended_last() {
        let reference = tgcta();
        let t = Text::from_reference(&reference);
        assert_eq!(t.len(), 6);
        assert_eq!(t.rank(t.len() - 1), 0);
        assert_eq!(t.symbol(t.len() - 1), Symbol::Sentinel);
    }

    #[test]
    fn ranks_match_symbols() {
        let reference = tgcta();
        let t = Text::from_reference(&reference);
        // T G C T A $ -> 4 3 2 4 1 0
        let ranks: Vec<u8> = (0..t.len()).map(|p| t.rank(p)).collect();
        assert_eq!(ranks, [4, 3, 2, 4, 1, 0]);
    }

    #[test]
    #[should_panic]
    fn rank_past_the_sentinel_panics() {
        let reference = tgcta();
        Text::from_reference(&reference).rank(6);
    }

    #[test]
    fn round_trip_to_reference() {
        let reference = tgcta();
        let t = Text::from_reference(&reference);
        assert_eq!(t.to_reference().to_string(), "TGCTA");
        assert_eq!(t.reference_len(), 5);
        assert_eq!(t, Text::from_bases(reference.as_slice().to_vec()));
    }

    #[test]
    fn display_shows_sentinel() {
        assert_eq!(Text::from_reference(&tgcta()).to_string(), "TGCTA$");
    }

    #[test]
    fn empty_reference_is_just_sentinel() {
        let empty = DnaSeq::new();
        let t = Text::from_reference(&empty);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert_eq!(t.to_string(), "$");
    }

    #[test]
    fn suffixes_are_slices_that_sort_as_suffixes() {
        let reference = tgcta();
        let t = Text::from_reference(&reference);
        // CTA$, and $.
        assert_eq!(t.suffix(2), &[Base::C, Base::T, Base::A]);
        assert!(t.suffix(5).is_empty());
        // $ < A$ < ACA$: the sentinel sorts first, so the prefix does.
        let aca: DnaSeq = "ACA".parse().unwrap();
        let t = Text::from_reference(&aca);
        assert!(t.suffix(3) < t.suffix(2) && t.suffix(2) < t.suffix(0));
    }
}
