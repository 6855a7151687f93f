//! The Burrows–Wheeler transform.

use std::fmt;

use bioseq::{Base, PackedSeq, Symbol};

use crate::text::{Text, ALPHABET};

/// Every other bit: the low bit of each 2-bit cell of a word.
const LOW_BITS: u64 = 0x5555_5555_5555_5555;

/// Cells of a 64-bit word.
const CELLS_PER_WORD: usize = 32;

/// The 2-bit hardware code the sentinel cell holds: `T`'s, which the
/// platform reads as a never-matching placeholder.
const SENTINEL_CODE: u8 = Base::T.code();

/// The Burrows–Wheeler transform of a [`Text`] — the last column of the
/// lexicographically-sorted BW-matrix (paper Fig. 1: `BWT(TGCTA$) =
/// ATGTC$`).
///
/// Stored as the platform's BWT zone and the index file hold it: 2-bit
/// hardware codes ([`Base::code`]), four a byte, low bits first, and the
/// position of the one sentinel beside them. The sentinel has no code of
/// its own; its cell holds `T`'s, which every count of `T` discounts.
///
/// # Examples
///
/// ```
/// use bioseq::PackedSeq;
/// use fmindex::{suffix_array, Bwt, Text};
///
/// # fn main() -> Result<(), bioseq::ParseSeqError> {
/// let reference: PackedSeq = "TGCTA".parse()?;
/// let text = Text::from_reference(&reference);
/// let sa = suffix_array(&text);
/// let bwt = Bwt::from_sa(&text, &sa);
/// assert_eq!(bwt.to_string(), "ATGTC$");
/// assert_eq!(bwt.invert(), text); // BWT is reversible (paper §II)
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bwt {
    /// The codes, padded with zero bytes to whole 64-bit words so that
    /// counting reads a word at a time.
    codes: Vec<u8>,
    len: usize,
    sentinel_pos: usize,
}

/// The text rank of each 2-bit code.
const RANK_OF_CODE: [u8; 4] = {
    let mut ranks = [0; 4];
    let mut rank = 0;
    while rank < 4 {
        ranks[Base::from_rank(rank).code() as usize] = rank as u8 + 1;
        rank += 1;
    }
    ranks
};

impl Bwt {
    /// Derives the BWT from a text and its suffix array:
    /// `BWT[i] = text[SA[i] − 1]` (wrapping to the sentinel).
    ///
    /// # Panics
    ///
    /// Panics if `sa` is not as long as the text or has no row for
    /// position 0.
    pub fn from_sa(text: &Text, sa: &[u32]) -> Bwt {
        Bwt::from_sa_of(text.bases(), sa)
    }

    /// [`Bwt::from_sa`] for the text of `bases` and its sentinel, packed
    /// in one pass over the suffix array that copies the reference's own
    /// codes.
    pub(crate) fn from_sa_of(bases: &PackedSeq, sa: &[u32]) -> Bwt {
        let len = bases.len() + 1;
        assert_eq!(sa.len(), len, "suffix array length mismatch");
        let packed = bases.as_bytes();
        let code_before = |p: u32| {
            // Row 0's suffix is the text: wrapped, `q / 4` is past the codes.
            let q = (p as usize).wrapping_sub(1);
            packed
                .get(q / 4)
                .map_or(SENTINEL_CODE, |byte| byte >> (2 * (q % 4)) & 0b11)
        };
        let mut codes = vec![0u8; padded_bytes(len)];
        for (byte, rows) in codes.iter_mut().zip(sa.chunks(4)) {
            *byte = (0..)
                .zip(rows)
                .fold(0, |acc, (j, &p)| acc | code_before(p) << (2 * j));
        }
        let sentinel_pos = sa
            .iter()
            .position(|&p| p == 0)
            .expect("suffix array missing sentinel row");
        Bwt {
            codes,
            len,
            sentinel_pos,
        }
    }

    /// Takes over a stored BWT of `len` cells (the deserialisation path):
    /// `codes` as [`Bwt::packed_bytes`] gives them. The sentinel cell and
    /// the bits past the last cell are reset, whatever the bytes held.
    pub(crate) fn from_packed(mut codes: Vec<u8>, len: usize, sentinel_pos: usize) -> Bwt {
        debug_assert_eq!(codes.len(), len.div_ceil(4));
        codes.resize(padded_bytes(len), 0);
        if !len.is_multiple_of(4) {
            codes[len / 4] &= (1 << (2 * (len % 4))) - 1;
        }
        let shift = 2 * (sentinel_pos % 4);
        codes[sentinel_pos / 4] =
            (codes[sentinel_pos / 4] & !(0b11 << shift)) | (SENTINEL_CODE << shift);
        Bwt {
            codes,
            len,
            sentinel_pos,
        }
    }

    /// Length of the BWT (equals the text length).
    pub fn len(&self) -> usize {
        self.len
    }

    /// A BWT is never empty (the text always contains the sentinel).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The 2-bit code of cell `pos` (`T`'s for the sentinel).
    #[inline]
    fn code(&self, pos: usize) -> u8 {
        self.codes[pos / 4] >> (2 * (pos % 4)) & 0b11
    }

    /// The symbol rank at `pos` (`0` is the sentinel).
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.len()`.
    #[inline]
    pub fn rank(&self, pos: usize) -> u8 {
        assert!(pos < self.len, "BWT position {pos} out of range");
        if pos == self.sentinel_pos {
            0
        } else {
            RANK_OF_CODE[usize::from(self.code(pos))]
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

    /// Position of the sentinel within the BWT.
    pub fn sentinel_pos(&self) -> usize {
        self.sentinel_pos
    }

    /// The codes as stored: four a byte, low bits first, `len()` cells
    /// rounded up to whole bytes, the sentinel cell holding `T`'s code.
    pub(crate) fn packed_bytes(&self) -> &[u8] {
        &self.codes[..self.len.div_ceil(4)]
    }

    /// The 2-bit hardware codes of cells `start .. start + count`, one a
    /// byte — a word-line segment of the platform's BWT zone, where the
    /// sentinel cell is the never-matching placeholder `T`.
    ///
    /// # Panics
    ///
    /// Panics if `start + count > self.len()`.
    pub fn codes(&self, start: usize, count: usize) -> Vec<u8> {
        assert!(
            start + count <= self.len,
            "code range {start}..{} out of bounds (len {})",
            start + count,
            self.len
        );
        (start..start + count).map(|pos| self.code(pos)).collect()
    }

    /// Word `w` of the codes, cell `32·w` in its low bits.
    #[inline]
    fn word(&self, w: usize) -> u64 {
        let bytes = &self.codes[w * 8..w * 8 + 8];
        u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
    }

    /// Counts occurrences of symbol rank `sym` in `self[range]` — the
    /// software equivalent of the platform's `XNOR_Match` + popcount
    /// over a word-line segment, and word-parallel like it: 32 cells at
    /// a time, XOR against `sym`'s code in every cell turns matching
    /// cells into `00`, whose low bits are then counted.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn count_in_range(&self, sym: u8, range: std::ops::Range<usize>) -> usize {
        let std::ops::Range { start, end } = range;
        assert!(
            start <= end && end <= self.len,
            "range {start}..{end} out of bounds (len {})",
            self.len
        );
        let holds_sentinel = (start..end).contains(&self.sentinel_pos);
        if sym == 0 {
            return usize::from(holds_sentinel);
        }
        debug_assert!(
            usize::from(sym) < ALPHABET,
            "symbol rank out of range: {sym}"
        );
        if start == end {
            return 0;
        }
        let code = Base::from_rank(usize::from(sym) - 1).code();
        let pattern = u64::from(code) * LOW_BITS;
        let matches = |word: u64| {
            let diff = word ^ pattern;
            !(diff | diff >> 1) & LOW_BITS
        };
        let (first, last) = (start / CELLS_PER_WORD, (end - 1) / CELLS_PER_WORD);
        // Cells at or past `start` in the first word, before `end` in the last.
        let from_start = !0u64 << (2 * (start % CELLS_PER_WORD));
        let to_end = !0u64 >> (2 * (CELLS_PER_WORD - 1 - (end - 1) % CELLS_PER_WORD));
        let count: u32 = (first..=last)
            .map(|w| {
                let mut cells = matches(self.word(w));
                if w == first {
                    cells &= from_start;
                }
                if w == last {
                    cells &= to_end;
                }
                cells.count_ones()
            })
            .sum();
        count as usize - usize::from(code == SENTINEL_CODE && holds_sentinel)
    }

    /// Inverts the transform, reconstructing the original text — the
    /// "reversible permutation" property from paper §II.
    pub fn invert(&self) -> Text<'static> {
        let n = self.len();
        let ranks: Vec<u8> = (0..n).map(|pos| self.rank(pos)).collect();
        // LF mapping: stable rank of each symbol occurrence.
        let mut counts = [0usize; ALPHABET];
        for &r in &ranks {
            counts[r as usize] += 1;
        }
        let mut starts = [0usize; ALPHABET];
        let mut sum = 0;
        for (s, &c) in starts.iter_mut().zip(&counts) {
            *s = sum;
            sum += c;
        }
        let mut occ_before = vec![0usize; n];
        let mut running = [0usize; ALPHABET];
        for (i, &r) in ranks.iter().enumerate() {
            occ_before[i] = running[r as usize];
            running[r as usize] += 1;
        }
        // Reconstruct right-to-left. Row 0 of the BW matrix is always the
        // bare-sentinel suffix, and BWT[row] is the text symbol immediately
        // preceding that row's suffix; LF-stepping walks the text backwards.
        let mut out = vec![Base::A; n - 1];
        let mut row = 0;
        for pos in (0..n - 1).rev() {
            let sym = ranks[row];
            out[pos] = Base::from_rank(sym as usize - 1);
            // LF-step to the row of the suffix starting at `pos`.
            row = starts[sym as usize] + occ_before[row];
        }
        Text::from_packed(out.into_iter().collect())
    }
}

/// Bytes that hold `len` 2-bit cells in whole 64-bit words.
fn padded_bytes(len: usize) -> usize {
    len.div_ceil(CELLS_PER_WORD) * 8
}

impl fmt::Display for Bwt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for pos in 0..self.len {
            write!(f, "{}", self.symbol(pos).to_char())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sa::suffix_array;
    use bioseq::PackedSeq;
    use proptest::prelude::*;

    fn bwt_of(s: &str) -> (Text<'static>, Bwt) {
        let t = Text::from_packed(s.parse().unwrap());
        let sa = suffix_array(&t);
        let b = Bwt::from_sa(&t, &sa);
        (t, b)
    }

    /// The BWT one symbol rank a byte, straight from its definition.
    fn oracle_ranks(t: &Text, sa: &[u32]) -> Vec<u8> {
        sa.iter()
            .map(|&p| t.rank((p as usize + t.len() - 1) % t.len()))
            .collect()
    }

    fn text_of_ranks(ranks: &[u8]) -> Text<'static> {
        Text::from_packed(ranks.iter().map(|&r| Base::from_rank(r.into())).collect())
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
    fn count_in_range_matches_a_byte_per_symbol_scan_on_every_range() {
        // Long enough for three words, every start and end cell of them.
        let (t, b) =
            bwt_of(&"ACGTACGTTTTGGGCCAATGCTAGCTAGGATCCATTTTGGTTAACCGTTGACTTTTTACGAT".repeat(2));
        let oracle = oracle_ranks(&t, &suffix_array(&t));
        assert!(b.len() > 2 * CELLS_PER_WORD);
        for sym in 0..=4u8 {
            for start in 0..b.len() {
                for end in start..=b.len() {
                    let naive: usize = oracle[start..end]
                        .iter()
                        .map(|&r| usize::from(r == sym))
                        .sum();
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
    fn stored_bytes_are_the_packed_hardware_codes() {
        for s in [
            "TGCTA",
            "A",
            "",
            "GATTACAGATTACAGG",
            "TTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTT",
        ] {
            let (t, b) = bwt_of(s);
            let oracle = oracle_ranks(&t, &suffix_array(&t));
            // Hardware code by text rank; the sentinel cell gets T's bits
            // as a placeholder.
            let base_of = [Base::T, Base::A, Base::C, Base::G, Base::T];
            let packed: PackedSeq = oracle.iter().map(|&r| base_of[r as usize]).collect();
            assert_eq!(b.packed_bytes(), packed.as_bytes(), "{s}");
            let codes: Vec<u8> = packed.iter().map(Base::code).collect();
            assert_eq!(b.codes(0, b.len()), codes, "{s}");
            let reloaded = Bwt::from_packed(packed.as_bytes().to_vec(), b.len(), b.sentinel_pos());
            assert_eq!(reloaded, b, "{s}");
        }
    }

    #[test]
    fn loading_resets_the_sentinel_cell_and_the_padding() {
        for s in ["GATTACA", "GATTAC", "GATTA", "GATT"] {
            let (_, b) = bwt_of(s);
            let mut dirty = b.packed_bytes().to_vec();
            let sentinel = b.sentinel_pos();
            dirty[sentinel / 4] |= 0b11 << (2 * (sentinel % 4));
            // Every bit past the last cell, if the last byte has any.
            let used = b.len() % 4;
            if used != 0 {
                *dirty.last_mut().unwrap() |= !0u8 << (2 * used);
            }
            assert_eq!(Bwt::from_packed(dirty, b.len(), sentinel), b, "{s}");
        }
    }

    proptest! {
        #[test]
        fn bwt_round_trips(bases in proptest::collection::vec(0u8..4, 0..200)) {
            let seq: PackedSeq = bases.iter().map(|&r| bioseq::Base::from_rank(r as usize)).collect();
            let t = Text::from_reference(&seq);
            let sa = suffix_array(&t);
            let b = Bwt::from_sa(&t, &sa);
            prop_assert_eq!(b.invert(), t);
        }

        #[test]
        fn bwt_is_permutation_of_text(bases in proptest::collection::vec(0u8..4, 0..200)) {
            let seq: PackedSeq = bases.iter().map(|&r| bioseq::Base::from_rank(r as usize)).collect();
            let t = Text::from_reference(&seq);
            let sa = suffix_array(&t);
            let b = Bwt::from_sa(&t, &sa);
            let mut tx: Vec<u8> = (0..t.len()).map(|p| t.rank(p)).collect();
            let mut bw: Vec<u8> = (0..b.len()).map(|p| b.rank(p)).collect();
            tx.sort_unstable();
            bw.sort_unstable();
            prop_assert_eq!(tx, bw);
        }

        /// Ranges around the sentinel cell and across word boundaries,
        /// every symbol, against the BWT held a rank a byte.
        #[test]
        fn count_in_range_matches_the_byte_oracle(
            ranks in proptest::collection::vec(0u8..4, 0..400),
            spans in proptest::collection::vec(any::<u32>(), 1..16),
        ) {
            let t = text_of_ranks(&ranks);
            let sa = suffix_array(&t);
            let b = Bwt::from_sa(&t, &sa);
            let oracle = oracle_ranks(&t, &sa);
            let n = b.len();
            for span in spans {
                // Centre each range on the sentinel cell or a word
                // boundary, reaching `before` cells left and `after` right.
                let field = |shift: u32, modulus: usize| (span >> shift) as usize % modulus;
                let (word, before, after) = (field(0, 16), field(8, 70), field(16, 70));
                let centre = if span >> 31 == 1 {
                    b.sentinel_pos()
                } else {
                    (word * CELLS_PER_WORD).min(n)
                };
                let start = centre.saturating_sub(before);
                let end = (centre + after).min(n);
                for sym in 0..=4u8 {
                    let naive: usize = oracle[start..end]
                        .iter()
                        .map(|&r| usize::from(r == sym))
                        .sum();
                    prop_assert_eq!(b.count_in_range(sym, start..end), naive, "sym {} {}..{}", sym, start, end);
                }
            }
        }
    }
}
