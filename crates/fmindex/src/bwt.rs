//! The Burrows–Wheeler transform.

use std::fmt;

use bioseq::{Base, PackedSeq, Symbol};

use crate::text::Text;

/// The Burrows–Wheeler transform of a [`Text`] — the last column of the
/// lexicographically-sorted BW-matrix (paper Fig. 1: `BWT(TGCTA$) =
/// ATGTC$`).
///
/// Stored as symbol ranks. Exactly one position holds the sentinel.
///
/// # Examples
///
/// ```
/// use bioseq::DnaSeq;
/// use fmindex::{suffix_array, Bwt, Text};
///
/// # fn main() -> Result<(), bioseq::ParseSeqError> {
/// let text = Text::from_reference(&"TGCTA".parse::<DnaSeq>()?);
/// let sa = suffix_array(&text);
/// let bwt = Bwt::from_sa(&text, &sa);
/// assert_eq!(bwt.to_string(), "ATGTC$");
/// assert_eq!(bwt.invert(), text); // BWT is reversible (paper §II)
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bwt {
    ranks: Vec<u8>,
    sentinel_pos: usize,
}

impl Bwt {
    /// Derives the BWT from a text and its suffix array:
    /// `BWT[i] = text[SA[i] − 1]` (wrapping to the sentinel).
    ///
    /// # Panics
    ///
    /// Panics if `sa` is not a permutation of `0..text.len()`.
    pub fn from_sa(text: &Text, sa: &[u32]) -> Bwt {
        assert_eq!(sa.len(), text.len(), "suffix array length mismatch");
        let n = text.len();
        let mut ranks = Vec::with_capacity(n);
        let mut sentinel_pos = usize::MAX;
        for (i, &p) in sa.iter().enumerate() {
            let prev = if p == 0 { n - 1 } else { p as usize - 1 };
            let r = text.rank(prev);
            if r == 0 {
                sentinel_pos = i;
            }
            ranks.push(r);
        }
        assert_ne!(
            sentinel_pos,
            usize::MAX,
            "suffix array missing sentinel row"
        );
        Bwt {
            ranks,
            sentinel_pos,
        }
    }

    /// Reconstructs a BWT from stored symbol ranks (deserialisation
    /// path).
    pub(crate) fn from_ranks(ranks: Vec<u8>, sentinel_pos: usize) -> Bwt {
        debug_assert_eq!(ranks[sentinel_pos], 0);
        Bwt {
            ranks,
            sentinel_pos,
        }
    }

    /// Length of the BWT (equals the text length).
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// A BWT is never empty (the text always contains the sentinel).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The symbol rank at `pos` (`0` is the sentinel).
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.len()`.
    #[inline]
    pub fn rank(&self, pos: usize) -> u8 {
        self.ranks[pos]
    }

    /// The symbol at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.len()`.
    pub fn symbol(&self, pos: usize) -> Symbol {
        Symbol::from_rank(self.ranks[pos] as usize)
    }

    /// Position of the sentinel within the BWT.
    pub fn sentinel_pos(&self) -> usize {
        self.sentinel_pos
    }

    /// The ranks as a slice.
    pub fn as_ranks(&self) -> &[u8] {
        &self.ranks
    }

    /// Counts occurrences of symbol rank `sym` in `self[range]` — the
    /// software equivalent of the platform's `XNOR_Match` + popcount
    /// over a word-line segment, and word-parallel like it: eight bytes
    /// at a time via SWAR (XOR against a broadcast of `sym` turns
    /// matches into zero bytes, which are detected and counted with the
    /// classic haszero mask + popcount).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn count_in_range(&self, sym: u8, range: std::ops::Range<usize>) -> usize {
        const LO: u64 = 0x0101_0101_0101_0101;
        // Ranks are 0..=4 (sentinel plus four bases), so `rank ^ sym`
        // fits in the low 3 bits of each byte: OR-folding those bits
        // into bit 0 gives an exact per-byte nonzero flag. (The classic
        // haszero SWAR is only a boolean test — its borrow chain
        // overcounts 0x01 bytes that sit above a zero byte.)
        debug_assert!(sym <= 4, "symbol rank out of range: {sym}");
        let bytes = &self.ranks[range];
        let broadcast = u64::from(sym) * LO;
        let mut chunks = bytes.chunks_exact(8);
        let mut count = 0;
        for chunk in chunks.by_ref() {
            let diff = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")) ^ broadcast;
            let nonzero = (diff | (diff >> 1) | (diff >> 2)) & LO;
            count += 8 - nonzero.count_ones() as usize;
        }
        count
            + chunks
                .remainder()
                .iter()
                .map(|&r| usize::from(r == sym))
                .sum::<usize>()
    }

    /// Packs the nucleotide content 2 bits per base for the PIM BWT zone.
    /// The sentinel cannot be represented in 2 bits; the returned vector
    /// gives `(packed sequence, sentinel position)` and the platform treats
    /// the sentinel cell as a never-matching placeholder (encoded as `T`).
    pub fn to_packed(&self) -> (PackedSeq, usize) {
        // Hardware code by text rank; the sentinel cell gets T's bits as
        // a placeholder.
        let code_of = [Base::T, Base::A, Base::C, Base::G, Base::T].map(Base::code);
        let packed = PackedSeq::pack(&self.ranks, |&r| code_of[r as usize]);
        (packed, self.sentinel_pos)
    }

    /// Inverts the transform, reconstructing the original text — the
    /// "reversible permutation" property from paper §II.
    pub fn invert(&self) -> Text {
        let n = self.len();
        // LF mapping: stable rank of each symbol occurrence.
        let mut counts = [0usize; crate::text::ALPHABET];
        for &r in &self.ranks {
            counts[r as usize] += 1;
        }
        let mut starts = [0usize; crate::text::ALPHABET];
        let mut sum = 0;
        for (s, &c) in starts.iter_mut().zip(&counts) {
            *s = sum;
            sum += c;
        }
        let mut occ_before = vec![0usize; n];
        let mut running = [0usize; crate::text::ALPHABET];
        for (i, &r) in self.ranks.iter().enumerate() {
            occ_before[i] = running[r as usize];
            running[r as usize] += 1;
        }
        // Reconstruct right-to-left. Row 0 of the BW matrix is always the
        // bare-sentinel suffix, and BWT[row] is the text symbol immediately
        // preceding that row's suffix; LF-stepping walks the text backwards.
        let mut out = vec![0u8; n];
        let mut pos = n - 1;
        out[pos] = 0; // sentinel
        let mut row = 0;
        while pos > 0 {
            let sym = self.ranks[row];
            pos -= 1;
            out[pos] = sym;
            // LF-step to the row of the suffix starting at `pos`.
            row = starts[sym as usize] + occ_before[row];
        }
        let seq: bioseq::DnaSeq = out[..n - 1]
            .iter()
            .map(|&r| bioseq::Base::from_rank(r as usize - 1))
            .collect();
        Text::from_reference(&seq)
    }
}

impl fmt::Display for Bwt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &r in &self.ranks {
            write!(f, "{}", Symbol::from_rank(r as usize).to_char())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sa::suffix_array;
    use bioseq::DnaSeq;
    use proptest::prelude::*;

    fn bwt_of(s: &str) -> (Text, Bwt) {
        let t = Text::from_reference(&s.parse::<DnaSeq>().unwrap());
        let sa = suffix_array(&t);
        let b = Bwt::from_sa(&t, &sa);
        (t, b)
    }

    #[test]
    fn paper_fig1_bwt() {
        let (_, b) = bwt_of("TGCTA");
        assert_eq!(b.to_string(), "ATGTC$");
    }

    #[test]
    fn sentinel_position_tracked() {
        let (_, b) = bwt_of("TGCTA");
        assert_eq!(b.symbol(b.sentinel_pos()), Symbol::Sentinel);
        assert_eq!(b.count_in_range(0, 0..b.len()), 1);
    }

    #[test]
    fn inversion_recovers_text() {
        for s in ["TGCTA", "A", "ACGTACGT", "GGGGG", "GATTACA"] {
            let (t, b) = bwt_of(s);
            assert_eq!(b.invert(), t, "inversion failed for {s}");
        }
    }

    #[test]
    fn count_in_range_scans() {
        let (_, b) = bwt_of("TGCTA"); // ATGTC$
        let t_rank = Symbol::Base(bioseq::Base::T).rank() as u8;
        assert_eq!(b.count_in_range(t_rank, 0..6), 2);
        assert_eq!(b.count_in_range(t_rank, 0..2), 1);
        assert_eq!(b.count_in_range(t_rank, 2..4), 1);
        assert_eq!(b.count_in_range(t_rank, 4..6), 0);
    }

    #[test]
    fn count_in_range_swar_matches_naive_scan() {
        // The adversarial shape for the SWAR kernel: rank^sym == 1
        // bytes adjacent to matching (zero-diff) bytes, at every
        // alignment and with sub-word remainders.
        let (_, b) = bwt_of("ACGTACGTTTTGGGCCAATGCTAGCTAGGATCCA");
        for sym in 0..=4u8 {
            for start in 0..b.len() {
                for end in start..=b.len() {
                    let naive = b.as_ranks()[start..end]
                        .iter()
                        .map(|&r| usize::from(r == sym))
                        .sum::<usize>();
                    assert_eq!(
                        b.count_in_range(sym, start..end),
                        naive,
                        "sym {sym} range {start}..{end}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_form_substitutes_sentinel() {
        let (_, b) = bwt_of("TGCTA");
        let (packed, pos) = b.to_packed();
        assert_eq!(packed.len(), b.len());
        assert_eq!(pos, b.sentinel_pos());
        // Non-sentinel cells round-trip.
        for i in 0..b.len() {
            if i != pos {
                let expected = bioseq::Base::from_rank(b.rank(i) as usize - 1);
                assert_eq!(packed.get(i), Some(expected));
            }
        }
    }

    proptest! {
        #[test]
        fn bwt_round_trips(bases in proptest::collection::vec(0u8..4, 0..200)) {
            let seq: DnaSeq = bases.iter().map(|&r| bioseq::Base::from_rank(r as usize)).collect();
            let t = Text::from_reference(&seq);
            let sa = suffix_array(&t);
            let b = Bwt::from_sa(&t, &sa);
            prop_assert_eq!(b.invert(), t);
        }

        #[test]
        fn bwt_is_permutation_of_text(bases in proptest::collection::vec(0u8..4, 0..200)) {
            let seq: DnaSeq = bases.iter().map(|&r| bioseq::Base::from_rank(r as usize)).collect();
            let t = Text::from_reference(&seq);
            let sa = suffix_array(&t);
            let b = Bwt::from_sa(&t, &sa);
            let mut tx: Vec<u8> = t.as_ranks().to_vec();
            let mut bw: Vec<u8> = b.as_ranks().to_vec();
            tx.sort_unstable();
            bw.sort_unstable();
            prop_assert_eq!(tx, bw);
        }
    }
}
