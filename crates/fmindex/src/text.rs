//! The indexed text: reference genome plus sentinel.

use std::borrow::Cow;
use std::fmt;

use bioseq::{Base, PackedSeq, Symbol};

/// The alphabet size of the indexed text: `$, A, C, G, T`.
pub const ALPHABET: usize = 5;

/// A reference genome with the `$` sentinel appended — a view of the
/// reference's own 2-bit packed bases, the sentinel virtual at position
/// `text.len() - 1`. Symbol ranks are `$ → 0`, `A → 1`, …, `T → 4`.
///
/// Building one copies no base: [`Text::from_reference`] borrows the
/// reference. Only [`Bwt::invert`](crate::Bwt::invert), which has no
/// reference to borrow, returns a `Text` that owns its bases.
///
/// # Examples
///
/// ```
/// use bioseq::PackedSeq;
/// use fmindex::Text;
///
/// # fn main() -> Result<(), bioseq::ParseSeqError> {
/// let reference: PackedSeq = "TGCTA".parse()?;
/// let t = Text::from_reference(&reference);
/// assert_eq!(t.len(), 6); // 5 bases + $
/// assert_eq!(t.to_string(), "TGCTA$");
/// assert_eq!(t.rank(5), 0); // sentinel
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Text<'a> {
    bases: Cow<'a, PackedSeq>,
}

impl<'a> Text<'a> {
    /// The text `S$` of reference `S`, borrowing its bases.
    pub fn from_reference(reference: &'a PackedSeq) -> Text<'a> {
        Text {
            bases: Cow::Borrowed(reference),
        }
    }

    /// The text `S$` of bases that are not held anywhere else.
    pub(crate) fn from_packed(bases: PackedSeq) -> Text<'static> {
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
    pub fn bases(&self) -> &PackedSeq {
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
            let base = self.bases.get(pos).expect("position past the sentinel");
            base.rank() as u8 + 1
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

    /// The bases of the suffix starting at `pos`, up to but without the
    /// sentinel that ends it. They order as the suffixes do: of two runs
    /// one is a proper prefix of, the prefix is the smaller, as its
    /// sentinel is.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.len()`.
    pub fn suffix(&self, pos: usize) -> impl Iterator<Item = Base> + '_ {
        assert!(pos < self.len(), "suffix {pos} past the sentinel");
        (pos..self.bases.len()).map(|i| self.bases.get(i).expect("a stored base"))
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

    fn tgcta() -> PackedSeq {
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
        assert_eq!(t.reference_len(), 5);
        assert_eq!(t, Text::from_packed(reference.clone()));
    }

    #[test]
    fn display_shows_sentinel() {
        assert_eq!(Text::from_reference(&tgcta()).to_string(), "TGCTA$");
    }

    #[test]
    fn empty_reference_is_just_sentinel() {
        let empty = PackedSeq::new();
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
        assert!(t.suffix(2).eq([Base::C, Base::T, Base::A]));
        assert_eq!(t.suffix(5).count(), 0);
        // $ < A$ < ACA$: the sentinel sorts first, so the prefix does.
        let aca: PackedSeq = "ACA".parse().unwrap();
        let t = Text::from_reference(&aca);
        assert!(t.suffix(3).lt(t.suffix(2)) && t.suffix(2).lt(t.suffix(0)));
    }
}
