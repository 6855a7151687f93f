//! Suffix-array construction.
//!
//! Two implementations are provided:
//!
//! * [`suffix_array`] — linear-time SA-IS (induced sorting), the
//!   production path used for all index builds;
//! * [`suffix_array_naive`] — O(n² log n) comparison sort, kept as an
//!   independent oracle for the property tests.
//!
//! Both operate on a [`Text`] (reference + sentinel), where the sentinel is
//! the unique lexicographically-smallest symbol, and return the
//! lexicographically-sorted array of suffix start positions (paper §II:
//! "the Suffix Array (SA) of a reference genome-S is a
//! lexicographically-sorted array of the suffixes of S").

use crate::text::{Text, ALPHABET};

/// Builds the suffix array of `text` with the SA-IS algorithm.
///
/// # Examples
///
/// ```
/// use bioseq::DnaSeq;
/// use fmindex::{suffix_array, Text};
///
/// # fn main() -> Result<(), bioseq::ParseSeqError> {
/// let text = Text::from_reference(&"TGCTA".parse::<DnaSeq>()?);
/// // Sorted suffixes of TGCTA$: $  A$  CTA$  GCTA$  TA$  TGCTA$
/// assert_eq!(suffix_array(&text), vec![5, 4, 2, 1, 3, 0]);
/// # Ok(())
/// # }
/// ```
pub fn suffix_array(text: &Text) -> Vec<u32> {
    let s = text.as_ranks();
    assert!(
        s.len() <= u32::MAX as usize,
        "text of {} rows; positions must fit below u32::MAX",
        s.len()
    );
    let mut sa = vec![EMPTY; s.len()];
    sais(s, &mut sa, ALPHABET);
    sa
}

/// Builds the suffix array by sorting all suffixes directly.
///
/// Quadratic in the worst case — use only as a test oracle or on tiny
/// inputs.
pub fn suffix_array_naive(text: &Text) -> Vec<u32> {
    let mut sa: Vec<u32> = (0..text.len() as u32).collect();
    sa.sort_by(|&a, &b| text.suffix(a as usize).cmp(text.suffix(b as usize)));
    sa
}

/// A slot of the working array that holds no suffix yet. Never a valid
/// position: the text has at most `u32::MAX` rows.
const EMPTY: u32 = u32::MAX;

/// A text symbol: `u8` ranks at level 0, `u32` LMS names below.
trait Sym: Copy + Eq {
    fn index(self) -> usize;
}

impl Sym for u8 {
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

impl Sym for u32 {
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// One bit per position: set for S-type (suffix smaller than its right
/// neighbour), clear for L-type.
struct Types {
    bits: Vec<u64>,
}

impl Types {
    fn classify<T: Sym>(s: &[T]) -> Types {
        let n = s.len();
        let mut bits = vec![0u64; n.div_ceil(64)];
        let mut next_is_s = true; // the sentinel
        bits[(n - 1) / 64] |= 1 << ((n - 1) % 64);
        for i in (0..n - 1).rev() {
            let (a, b) = (s[i].index(), s[i + 1].index());
            next_is_s = a < b || (a == b && next_is_s);
            bits[i / 64] |= u64::from(next_is_s) << (i % 64);
        }
        Types { bits }
    }

    #[inline]
    fn is_s(&self, i: usize) -> bool {
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// Left-most S-type: an S position whose left neighbour is L-type.
    #[inline]
    fn is_lms(&self, i: usize) -> bool {
        i > 0 && self.is_s(i) && !self.is_s(i - 1)
    }
}

/// Symbol frequencies of `s` over an alphabet of `k` symbols.
fn bucket_sizes<T: Sym>(s: &[T], k: usize) -> Vec<u32> {
    let mut sizes = vec![0u32; k];
    for &c in s {
        sizes[c.index()] += 1;
    }
    sizes
}

/// Fills `out` with each bucket's first slot.
fn bucket_heads(sizes: &[u32], out: &mut [u32]) {
    let mut sum = 0;
    for (h, &sz) in out.iter_mut().zip(sizes) {
        *h = sum;
        sum += sz;
    }
}

/// Fills `out` with one past each bucket's last slot.
fn bucket_tails(sizes: &[u32], out: &mut [u32]) {
    let mut sum = 0;
    for (t, &sz) in out.iter_mut().zip(sizes) {
        sum += sz;
        *t = sum;
    }
}

/// Induced sort over `sa`, which holds LMS suffixes at their bucket
/// tails and [`EMPTY`] elsewhere: L-types are induced left-to-right
/// into bucket heads, then S-types right-to-left into bucket tails.
fn induce<T: Sym>(s: &[T], sa: &mut [u32], types: &Types, sizes: &[u32], bkt: &mut [u32]) {
    let n = s.len();
    bucket_heads(sizes, bkt);
    for i in 0..n {
        let p = sa[i];
        if p != EMPTY && p > 0 {
            let q = p as usize - 1;
            if !types.is_s(q) {
                let c = s[q].index();
                sa[bkt[c] as usize] = q as u32;
                bkt[c] += 1;
            }
        }
    }
    bucket_tails(sizes, bkt);
    for i in (0..n).rev() {
        let p = sa[i];
        if p != EMPTY && p > 0 {
            let q = p as usize - 1;
            if types.is_s(q) {
                let c = s[q].index();
                bkt[c] -= 1;
                sa[bkt[c] as usize] = q as u32;
            }
        }
    }
}

/// `true` when the LMS substrings starting at `a` and `b` are equal
/// (same symbols and same types, up to and including the next LMS
/// position). The sentinel's substring is itself and equals no other.
fn lms_substrings_equal<T: Sym>(s: &[T], types: &Types, a: usize, b: usize) -> bool {
    let n = s.len();
    let mut d = 0;
    loop {
        if a + d >= n || b + d >= n {
            return false;
        }
        if s[a + d] != s[b + d] || types.is_s(a + d) != types.is_s(b + d) {
            return false;
        }
        if d > 0 && (types.is_lms(a + d) || types.is_lms(b + d)) {
            return true;
        }
        d += 1;
    }
}

/// SA-IS over `s`, whose last element is the unique smallest symbol (the
/// sentinel), with symbols below `k`. Writes the suffix array of `s`
/// into `sa` (same length), which is also the only working storage
/// proportional to `n` apart from one type bit per position: the sorted
/// LMS suffixes are compacted into `sa[..m]`, their names are parked at
/// `sa[m + p/2]` (LMS positions are at least 2 apart) and then packed
/// into `sa[n-m..]`, which is the reduced text the recursion sorts into
/// `sa[..m]`. Returns how many levels deep the recursion went (1 when
/// the LMS substrings were all distinct).
fn sais<T: Sym>(s: &[T], sa: &mut [u32], k: usize) -> u32 {
    let n = s.len();
    assert_eq!(sa.len(), n, "working array must match the text");
    if n == 1 {
        sa[0] = 0;
        return 1;
    }
    let types = Types::classify(s);

    // --- Stage 1: sort the LMS substrings by inducing from LMS
    // suffixes placed in text order. ---
    let m = {
        let sizes = bucket_sizes(s, k);
        let mut bkt = vec![0u32; k];
        sa.fill(EMPTY);
        bucket_tails(&sizes, &mut bkt);
        for (i, c) in s.iter().enumerate().skip(1) {
            if types.is_lms(i) {
                let c = c.index();
                bkt[c] -= 1;
                sa[bkt[c] as usize] = i as u32;
            }
        }
        induce(s, sa, &types, &sizes, &mut bkt);
        let mut m = 0;
        for i in 0..n {
            let p = sa[i];
            if p != EMPTY && types.is_lms(p as usize) {
                sa[m] = p;
                m += 1;
            }
        }
        m
    };

    // --- Name the LMS substrings in sorted order. ---
    sa[m..].fill(EMPTY);
    let mut names = 0u32;
    let mut prev = None;
    for i in 0..m {
        let p = sa[i] as usize;
        if !prev.is_some_and(|q| lms_substrings_equal(s, &types, p, q)) {
            names += 1;
        }
        sa[m + p / 2] = names - 1;
        prev = Some(p);
    }
    // Pack the names, still in text order, into sa[n-m..].
    let mut j = n;
    for i in (m..n).rev() {
        if sa[i] != EMPTY {
            j -= 1;
            sa[j] = sa[i];
        }
    }
    debug_assert_eq!(j, n - m);

    // --- Order the LMS suffixes: sa[..m] = SA of the reduced text. ---
    let levels = {
        let (sa1, rest) = sa.split_at_mut(m);
        let s1 = &rest[n - 2 * m..];
        if (names as usize) < m {
            1 + sais(s1, sa1, names as usize)
        } else {
            // All names unique: each name is its own rank.
            for (i, &name) in s1.iter().enumerate() {
                sa1[name as usize] = i as u32;
            }
            1
        }
    };
    // Reduced-text indices back to text positions.
    let mut j = n - m;
    for i in 1..n {
        if types.is_lms(i) {
            sa[j] = i as u32;
            j += 1;
        }
    }
    for i in 0..m {
        sa[i] = sa[n - m + sa[i] as usize];
    }

    // --- Stage 3: induce the full order from the sorted LMS suffixes.
    // Largest first, so a suffix never lands on one not yet moved. ---
    let sizes = bucket_sizes(s, k);
    let mut bkt = vec![0u32; k];
    sa[m..].fill(EMPTY);
    bucket_tails(&sizes, &mut bkt);
    for i in (0..m).rev() {
        let p = sa[i];
        sa[i] = EMPTY;
        let c = s[p as usize].index();
        bkt[c] -= 1;
        sa[bkt[c] as usize] = p;
    }
    induce(s, sa, &types, &sizes, &mut bkt);
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::DnaSeq;
    use proptest::prelude::*;

    fn text_of(s: &str) -> Text {
        Text::from_reference(&s.parse::<DnaSeq>().unwrap())
    }

    #[test]
    fn paper_example_tgcta() {
        let t = text_of("TGCTA");
        let sa = suffix_array(&t);
        assert_eq!(sa, vec![5, 4, 2, 1, 3, 0]);
        assert_eq!(suffix_array_naive(&t), sa);
    }

    #[test]
    fn banana_style_repeats() {
        // GAGAGA$ exercises deep LMS recursion.
        let t = text_of("GAGAGA");
        assert_eq!(suffix_array(&t), suffix_array_naive(&t));
    }

    #[test]
    fn single_base() {
        let t = text_of("A");
        assert_eq!(suffix_array(&t), vec![1, 0]);
    }

    #[test]
    fn empty_reference() {
        let t = Text::from_reference(&DnaSeq::new());
        assert_eq!(suffix_array(&t), vec![0]);
    }

    #[test]
    fn homopolymer_run() {
        let t = text_of(&"A".repeat(100));
        let sa = suffix_array(&t);
        // Suffixes of A^k$ sort by decreasing start position.
        let expected: Vec<u32> = (0..=100).rev().collect();
        assert_eq!(sa, expected);
    }

    #[test]
    fn sa_is_permutation() {
        let t = text_of("ACGTACGTTTGGCCAA");
        let mut sa = suffix_array(&t);
        sa.sort_unstable();
        assert_eq!(sa, (0..t.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn suffixes_are_sorted() {
        let t = text_of("CTAGCTAGCATCGATCGAT");
        let sa = suffix_array(&t);
        for w in sa.windows(2) {
            assert!(t.suffix(w[0] as usize) < t.suffix(w[1] as usize));
        }
    }

    #[test]
    fn sentinel_suffix_first() {
        let t = text_of("GGGTTTAAACCC");
        assert_eq!(suffix_array(&t)[0] as usize, t.len() - 1);
    }

    /// Suffix array plus the recursion depth SA-IS needed for it.
    fn sais_levels(t: &Text) -> (Vec<u32>, u32) {
        let mut sa = vec![EMPTY; t.len()];
        let levels = sais(t.as_ranks(), &mut sa, ALPHABET);
        (sa, levels)
    }

    /// The fixed point of a two-letter substitution, as a DNA text.
    fn morphic_word(zero: &str, one: &str, len: usize) -> String {
        let mut w = String::from("A");
        while w.len() < len {
            w = w
                .chars()
                .map(|c| if c == 'A' { zero } else { one })
                .collect();
        }
        w.truncate(len);
        w
    }

    #[test]
    fn deeply_recursive_words_match_naive() {
        let mut homopolymer = "A".repeat(1_500);
        homopolymer.push_str("CGTACGGT");
        let words = [
            ("Fibonacci", morphic_word("AC", "A", 1_597), 3),
            ("period-doubling", morphic_word("AC", "AA", 2_000), 3),
            ("Thue–Morse", morphic_word("AC", "CA", 2_000), 3),
            // A^k + tail has a single non-sentinel LMS suffix: no recursion
            // at all, but the longest possible L-type induce chain.
            ("homopolymer + tail", homopolymer, 1),
        ];
        for (name, word, min_levels) in words {
            let t = text_of(&word);
            let (sa, levels) = sais_levels(&t);
            assert_eq!(sa, suffix_array_naive(&t), "{name}");
            assert!(levels >= min_levels, "{name}: only {levels} level(s)");
        }
    }

    #[test]
    fn repeat_seeded_genome_is_in_suffix_order() {
        // Too long for the naive oracle; check the order directly. The
        // planted repeats make adjacent suffixes share long prefixes.
        let genome = readsim::genome::repeat_rich(
            200_000,
            readsim::genome::RepeatProfile::default(),
            0x5a15,
        );
        let t = Text::from_reference(&genome);
        let (sa, levels) = sais_levels(&t);
        assert!(levels >= 2, "repeats should force a recursion");
        let mut seen = vec![false; t.len()];
        for &p in &sa {
            assert!(!std::mem::replace(&mut seen[p as usize], true));
        }
        for w in sa.windows(2) {
            assert!(t.suffix(w[0] as usize) < t.suffix(w[1] as usize));
        }
    }

    proptest! {
        #[test]
        fn sais_matches_naive(bases in proptest::collection::vec(0u8..4, 0..300)) {
            let seq: DnaSeq = bases.iter().map(|&r| bioseq::Base::from_rank(r as usize)).collect();
            let t = Text::from_reference(&seq);
            prop_assert_eq!(suffix_array(&t), suffix_array_naive(&t));
        }

        #[test]
        fn sais_matches_naive_low_entropy(bases in proptest::collection::vec(0u8..2, 0..400)) {
            // Two-symbol texts stress the LMS naming/recursion path.
            let seq: DnaSeq = bases.iter().map(|&r| bioseq::Base::from_rank(r as usize)).collect();
            let t = Text::from_reference(&seq);
            prop_assert_eq!(suffix_array(&t), suffix_array_naive(&t));
        }
    }
}
