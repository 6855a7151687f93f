//! Suffix-array construction.
//!
//! Two implementations are provided:
//!
//! * [`suffix_array`] — linear-time SA-IS (induced sorting), the
//!   production path used for all index builds;
//! * [`suffix_array_naive`] — O(n² log n) comparison sort, kept as an
//!   independent oracle for the property tests.
//!
//! Both sort the suffixes of a [`Text`] (reference + sentinel), where the
//! sentinel is the unique lexicographically-smallest symbol, and return
//! the lexicographically-sorted array of suffix start positions (paper
//! §II: "the Suffix Array (SA) of a reference genome-S is a
//! lexicographically-sorted array of the suffixes of S"). SA-IS reads the
//! reference's own 2-bit codes in place: the sentinel is never stored, at
//! any level.

use bioseq::PackedSeq;

use crate::text::{Text, ALPHABET};

/// Builds the suffix array of `text` with the SA-IS algorithm.
///
/// # Examples
///
/// ```
/// use bioseq::PackedSeq;
/// use fmindex::{suffix_array, Text};
///
/// # fn main() -> Result<(), bioseq::ParseSeqError> {
/// let reference: PackedSeq = "TGCTA".parse()?;
/// // Sorted suffixes of TGCTA$: $  A$  CTA$  GCTA$  TA$  TGCTA$
/// assert_eq!(suffix_array(&Text::from_reference(&reference)), vec![5, 4, 2, 1, 3, 0]);
/// # Ok(())
/// # }
/// ```
pub fn suffix_array(text: &Text) -> Vec<u32> {
    suffix_array_of(text.bases())
}

/// The suffix array of `bases` followed by the sentinel: `bases.len() + 1`
/// rows, the only genome-sized allocation SA-IS makes.
pub(crate) fn suffix_array_of(bases: &PackedSeq) -> Vec<u32> {
    let n = bases.len() + 1;
    assert!(
        n <= u32::MAX as usize,
        "text of {n} rows; positions must fit below u32::MAX"
    );
    // Zeroed, so untouched until `sais` makes its own first fill.
    let mut sa = vec![0; n];
    sais(bases, &mut sa, ALPHABET, &mut [], Buckets::InSpare);
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

/// A text SA-IS sorts, its sentinel implicit past the last stored
/// symbol: level 0's packed reference, or a level's reduced text of `u32`
/// LMS names. A symbol's rank orders the suffixes, and its bucket is the
/// slot of the bucket arrays that holds its suffixes; the sentinel's are
/// both 0 and a stored symbol's are neither (a name is its own rank and
/// bucket, and the sentinel's LMS substring, the smallest, is the only
/// one named 0).
trait Symbols {
    /// Stored symbols, the sentinel not counted.
    fn len(&self) -> usize;
    /// The bucket of stored symbol `p`.
    fn bucket(&self, p: usize) -> usize;
    /// The rank of stored symbol `p`.
    fn rank(&self, p: usize) -> usize {
        self.bucket(p)
    }
    /// The `k` buckets, in the order of their symbols' ranks.
    fn by_rank(&self, k: usize) -> impl Iterator<Item = usize> {
        0..k
    }
    /// `true` when the `len` symbols from `a` equal those from `b`.
    fn same(&self, a: usize, b: usize, len: usize) -> bool {
        (0..len).all(|i| self.bucket(a + i) == self.bucket(b + i))
    }
}

/// The rank of each 2-bit hardware code (`T G A C` as `0..4`): its
/// base's rank (`A < C < G < T`) plus one.
const RANK_OF_CODE: [usize; 4] = [4, 3, 1, 2];

/// Level 0: the reference's 2-bit codes, read in place. A base's bucket
/// is its code plus one, so the induced sorts index their buckets with
/// the stored bits and only the classification and the bucket bounds
/// look up its rank.
impl Symbols for PackedSeq {
    fn len(&self) -> usize {
        PackedSeq::len(self)
    }

    #[inline]
    fn bucket(&self, p: usize) -> usize {
        usize::from(code_at(self, p)) + 1
    }

    #[inline]
    fn rank(&self, p: usize) -> usize {
        RANK_OF_CODE[usize::from(code_at(self, p))]
    }

    fn by_rank(&self, _: usize) -> impl Iterator<Item = usize> {
        // $, then A C G T: codes 10, 11, 01, 00 plus one.
        [0, 3, 4, 2, 1].into_iter()
    }

    /// Up to 28 codes in one compare of the words of 8 bytes from the
    /// first's, where both words are there; a code at a time otherwise.
    fn same(&self, a: usize, b: usize, len: usize) -> bool {
        let bytes = self.as_bytes();
        let word = |p: usize| {
            let at = bytes.get(p / 4..p / 4 + 8)?;
            Some(u64::from_le_bytes(at.try_into().expect("8 bytes")) >> (2 * (p % 4)))
        };
        match (word(a), word(b)) {
            (Some(x), Some(y)) if len <= 28 => (x ^ y) & ((1 << (2 * len)) - 1) == 0,
            _ => (0..len).all(|i| code_at(self, a + i) == code_at(self, b + i)),
        }
    }
}

/// The 2-bit code of base `p`.
#[inline]
fn code_at(reference: &PackedSeq, p: usize) -> u8 {
    reference.as_bytes()[p / 4] >> (2 * (p % 4)) & 0b11
}

impl Symbols for [u32] {
    fn len(&self) -> usize {
        <[u32]>::len(self)
    }

    #[inline]
    fn bucket(&self, p: usize) -> usize {
        self[p] as usize
    }
}

/// The bucket of position `p` of `s` followed by its sentinel.
#[inline]
fn bucket_at<S: Symbols + ?Sized>(s: &S, p: usize) -> usize {
    if p == s.len() {
        0
    } else {
        s.bucket(p)
    }
}

/// One bit per position of a text and its sentinel: set for S-type
/// (suffix smaller than its right neighbour), clear for L-type. Bits past
/// the sentinel in the last word are clear.
struct Types {
    bits: Vec<u64>,
}

impl Types {
    /// Classifies every position of `s` and of the sentinel after it,
    /// right to left, a word of type bits at a time.
    fn classify<S: Symbols + ?Sized>(s: &S) -> Types {
        let n = s.len() + 1;
        let mut bits = vec![0u64; n.div_ceil(64)];
        // Nothing stands right of the sentinel; "larger than any symbol"
        // there makes it S-type by the rule every other position uses.
        let mut right = 0;
        let mut is_s = true;
        let last = bits.len() - 1;
        for (w, word) in bits.iter_mut().enumerate().rev() {
            // The sentinel's bit is the last word's first, shifted up
            // past the symbols that precede it there.
            let mut acc = u64::from(w == last);
            for p in (w * 64..s.len().min(w * 64 + 64)).rev() {
                let a = s.rank(p);
                is_s = a < right || (a == right && is_s);
                acc = acc << 1 | u64::from(is_s);
                right = a;
            }
            *word = acc;
        }
        Types { bits }
    }

    #[inline]
    fn is_s(&self, i: usize) -> bool {
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// The left-most-S positions among the 64 of word `w`, as a mask: S
    /// positions whose left neighbour is L-type. Position 0 has no left
    /// neighbour and is never one.
    #[inline]
    fn lms_word(&self, w: usize) -> u64 {
        let word = self.bits[w];
        let carry = if w == 0 { 1 } else { self.bits[w - 1] >> 63 };
        word & !(word << 1 | carry)
    }

    /// Calls `f` with every LMS position, in text order.
    fn for_each_lms(&self, mut f: impl FnMut(usize)) {
        for w in 0..self.bits.len() {
            let mut lms = self.lms_word(w);
            while lms != 0 {
                f(w * 64 + lms.trailing_zeros() as usize);
                lms &= lms - 1;
            }
        }
    }

    /// The first LMS position after `p`; `None` only for the sentinel,
    /// which is the last one.
    fn next_lms(&self, p: usize) -> Option<usize> {
        let from = p + 1;
        let mut mask = !0u64 << (from % 64);
        for w in from / 64..self.bits.len() {
            let lms = self.lms_word(w) & mask;
            if lms != 0 {
                return Some(w * 64 + lms.trailing_zeros() as usize);
            }
            mask = !0;
        }
        None
    }
}

/// Where a recursion level keeps its two bucket arrays, each as long as
/// its alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Buckets {
    /// In the dead middle of a working array above the level whenever
    /// both fit there, allocated otherwise (as at level 0, which has
    /// nothing above it) — what every build does.
    InSpare,
    /// Always allocated, as at level 0 (the tests' reference).
    #[cfg(test)]
    OnHeap,
}

/// What [`sais`] did beyond sorting: how deep the recursion went (1 when
/// the LMS substrings were all distinct) and how many of those levels
/// found room for their buckets in a dead middle above them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Recursion {
    levels: u32,
    in_spare: u32,
}

/// Runs `f` with the level's symbol-frequency and bucket-pointer arrays,
/// `k` slots each, taking them from `spare` when `buckets` allows and
/// `2k` slots fit there, and allocating them otherwise. Returns `f`'s
/// result and whether the spare slots held the arrays.
fn with_buckets<R>(
    spare: &mut [u32],
    k: usize,
    buckets: Buckets,
    f: impl FnOnce(&mut [u32], &mut [u32]) -> R,
) -> (R, bool) {
    let in_spare = buckets == Buckets::InSpare && spare.len() >= 2 * k;
    let mut heap;
    let slots = if in_spare {
        &mut spare[..2 * k]
    } else {
        heap = vec![0u32; 2 * k];
        &mut heap[..]
    };
    let (sizes, bkt) = slots.split_at_mut(k);
    (f(sizes, bkt), in_spare)
}

/// Fills `sizes` with the symbol frequencies of `s` and its sentinel.
fn bucket_sizes<S: Symbols + ?Sized>(s: &S, sizes: &mut [u32]) {
    sizes.fill(0);
    sizes[0] = 1;
    for p in 0..s.len() {
        sizes[s.bucket(p)] += 1;
    }
}

/// Fills `out` with each bucket's first slot.
fn bucket_heads<S: Symbols + ?Sized>(s: &S, sizes: &[u32], out: &mut [u32]) {
    let mut sum = 0;
    for b in s.by_rank(sizes.len()) {
        out[b] = sum;
        sum += sizes[b];
    }
}

/// Fills `out` with one past each bucket's last slot.
fn bucket_tails<S: Symbols + ?Sized>(s: &S, sizes: &[u32], out: &mut [u32]) {
    let mut sum = 0;
    for b in s.by_rank(sizes.len()) {
        sum += sizes[b];
        out[b] = sum;
    }
}

/// The L-pass of an induced sort: scanning left to right, the L-type
/// predecessor of every suffix met goes to its bucket's head.
fn induce_l<S: Symbols + ?Sized>(
    s: &S,
    sa: &mut [u32],
    types: &Types,
    sizes: &[u32],
    bkt: &mut [u32],
) {
    bucket_heads(s, sizes, bkt);
    for i in 0..sa.len() {
        let p = sa[i];
        if p != EMPTY && p > 0 {
            let q = p as usize - 1;
            if !types.is_s(q) {
                let c = s.bucket(q);
                sa[bkt[c] as usize] = q as u32;
                bkt[c] += 1;
            }
        }
    }
}

/// The S-pass of an induced sort: scanning right to left, the S-type
/// predecessor of every suffix met goes to its bucket's tail.
///
/// With `COLLECT_LMS`, each LMS suffix met (S-type, L-type predecessor)
/// is also appended to the array's right end, growing leftwards, and the
/// number collected is returned: `sa[n - m..]` then lists the LMS
/// suffixes in the order the pass left them. That end is dead storage:
/// an induced suffix is smaller than the one it was induced from, so
/// every write of the pass lands left of the cursor, a slot's value is
/// final when the cursor reads it, and after `j` slots are read at most
/// `j` suffixes have been collected — the collection never passes the
/// cursor.
fn induce_s<S: Symbols + ?Sized, const COLLECT_LMS: bool>(
    s: &S,
    sa: &mut [u32],
    types: &Types,
    sizes: &[u32],
    bkt: &mut [u32],
) -> usize {
    let n = sa.len();
    bucket_tails(s, sizes, bkt);
    let mut collected = n;
    for i in (0..n).rev() {
        let p = sa[i];
        if p != EMPTY && p > 0 {
            let q = p as usize - 1;
            if types.is_s(q) {
                let c = s.bucket(q);
                bkt[c] -= 1;
                sa[bkt[c] as usize] = q as u32;
            } else if COLLECT_LMS && types.is_s(p as usize) {
                collected -= 1;
                sa[collected] = p;
            }
        }
    }
    n - collected
}

/// Stage 1 of SA-IS: sorts the LMS substrings by inducing from the LMS
/// suffixes placed in text order, and returns how many there are. With
/// `COLLECT_LMS` they end up, sorted, in `sa[n - m..]` (see
/// [`induce_s`]); without, `sa` is the whole induced array.
fn sort_lms_substrings<S: Symbols + ?Sized, const COLLECT_LMS: bool>(
    s: &S,
    sa: &mut [u32],
    types: &Types,
    sizes: &[u32],
    bkt: &mut [u32],
) -> usize {
    sa.fill(EMPTY);
    bucket_tails(s, sizes, bkt);
    types.for_each_lms(|p| {
        let c = bucket_at(s, p);
        bkt[c] -= 1;
        sa[bkt[c] as usize] = p as u32;
    });
    induce_l(s, sa, types, sizes, bkt);
    induce_s::<S, COLLECT_LMS>(s, sa, types, sizes, bkt)
}

/// SA-IS over `s` followed by an implicit sentinel, the unique smallest
/// symbol, at index `s.len()`; the stored symbols' buckets are below `k`
/// and above 0. Writes the suffix array of that text into `sa`
/// (`s.len() + 1` rows), which is also the only working storage
/// proportional to the text apart from one type bit per position: the
/// sorted LMS suffixes are moved to `sa[..m]`, their names are parked at
/// `sa[m + p/2]` (LMS positions are at least 2 apart) and then packed
/// into `sa[n-m..]`, and that reduced text minus its last name — the
/// sentinel's, which stays implicit there too — is what the recursion
/// sorts into `sa[..m]`. The slots between, `sa[m..n-m]`, are dead until
/// the recursion returns, and so is the `spare` stretch this level was
/// handed: the recursion gets the larger of the two for its bucket
/// arrays (`spare` is empty at level 0).
fn sais<S: Symbols + ?Sized>(
    s: &S,
    sa: &mut [u32],
    k: usize,
    spare: &mut [u32],
    buckets: Buckets,
) -> Recursion {
    let n = s.len() + 1;
    assert_eq!(sa.len(), n, "working array must match the text");
    if n == 1 {
        sa[0] = 0;
        return Recursion {
            levels: 1,
            in_spare: 0,
        };
    }
    let types = Types::classify(s);
    // The bucket arrays are as large as the alphabet, which below level 0
    // can approach the text: they live for one stage, never across the
    // recursion.
    let (m, in_spare) = with_buckets(spare, k, buckets, |sizes, bkt| {
        bucket_sizes(s, sizes);
        sort_lms_substrings::<S, true>(s, sa, &types, sizes, bkt)
    });
    sa.copy_within(n - m.., 0);

    // --- Name the LMS substrings in sorted order. An LMS substring runs
    // to the next LMS position inclusive (the sentinel's is itself), and
    // both ends being S-type fixes every type in between from the
    // symbols alone: equal symbols are equal substrings. A substring that
    // ends on the sentinel is its stored symbols plus that sentinel. ---
    let parked = m..m + n.div_ceil(2);
    sa[parked.clone()].fill(EMPTY);
    let mut names = 0u32;
    // The previous substring: start, stored length, ends on the sentinel.
    let mut prev: Option<(usize, usize, bool)> = None;
    for i in 0..m {
        let p = sa[i] as usize;
        let end = types.next_lms(p).unwrap_or(p);
        let (len, on_sentinel) = (s.len().min(end + 1) - p, end == s.len());
        if !prev.is_some_and(|(q, q_len, q_on)| {
            (q_len, q_on) == (len, on_sentinel) && s.same(p, q, len)
        }) {
            names += 1;
        }
        sa[m + p / 2] = names - 1;
        prev = Some((p, len, on_sentinel));
    }
    // Pack the names, still in text order, into sa[n-m..].
    let mut j = n;
    for i in parked.rev() {
        if sa[i] != EMPTY {
            j -= 1;
            sa[j] = sa[i];
        }
    }
    debug_assert_eq!(j, n - m);

    // --- Order the LMS suffixes: sa[..m] = SA of the reduced text. ---
    let below = {
        let (sa1, rest) = sa.split_at_mut(m);
        let (middle, s1) = rest.split_at_mut(n - 2 * m);
        let s1 = &s1[..m - 1];
        if (names as usize) < m {
            // This level's buckets are not alive while the recursion
            // runs, so it may have the larger of the two dead stretches.
            let spare = if middle.len() >= spare.len() {
                middle
            } else {
                &mut *spare
            };
            sais(s1, sa1, names as usize, spare, buckets)
        } else {
            // All names unique: each name is its own rank, and the
            // sentinel's suffix is the smallest.
            sa1[0] = s1.len() as u32;
            for (i, &name) in s1.iter().enumerate() {
                sa1[name as usize] = i as u32;
            }
            Recursion {
                levels: 0,
                in_spare: 0,
            }
        }
    };
    // Reduced-text indices back to text positions.
    let mut j = n - m;
    types.for_each_lms(|p| {
        sa[j] = p as u32;
        j += 1;
    });
    for i in 0..m {
        sa[i] = sa[n - m + sa[i] as usize];
    }

    // --- Stage 3: induce the full order from the sorted LMS suffixes.
    // Largest first, so a suffix never lands on one not yet moved. ---
    sa[m..].fill(EMPTY);
    with_buckets(spare, k, buckets, |sizes, bkt| {
        bucket_sizes(s, sizes);
        bucket_tails(s, sizes, bkt);
        for i in (0..m).rev() {
            let p = sa[i];
            sa[i] = EMPTY;
            let c = bucket_at(s, p as usize);
            bkt[c] -= 1;
            sa[bkt[c] as usize] = p;
        }
        induce_l(s, sa, &types, sizes, bkt);
        induce_s::<S, false>(s, sa, &types, sizes, bkt);
    });
    Recursion {
        levels: below.levels + 1,
        in_spare: below.in_spare + u32::from(in_spare),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::Base;
    use proptest::prelude::*;

    fn text_of(s: &str) -> Text<'static> {
        Text::from_packed(s.parse().unwrap())
    }

    fn text_of_ranks(ranks: impl IntoIterator<Item = u8>) -> Text<'static> {
        Text::from_packed(
            ranks
                .into_iter()
                .map(|r| Base::from_rank(r.into()))
                .collect(),
        )
    }

    #[test]
    fn code_ranks_are_base_ranks_plus_one() {
        let ranks = [0, 1, 2, 3].map(|code| Base::from_code(code).rank() + 1);
        assert_eq!(RANK_OF_CODE, ranks);
        let mut by_rank = vec![0];
        by_rank.extend(Base::ALL.map(|base| usize::from(base.code()) + 1));
        assert!(PackedSeq::new().by_rank(ALPHABET).eq(by_rank));
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
        let t = text_of("");
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
            assert!(t.suffix(w[0] as usize).lt(t.suffix(w[1] as usize)));
        }
    }

    #[test]
    fn sentinel_suffix_first() {
        let t = text_of("GGGTTTAAACCC");
        assert_eq!(suffix_array(&t)[0] as usize, t.len() - 1);
    }

    /// Suffix array plus what the recursion did, the buckets placed as
    /// `buckets` says.
    fn sais_with(t: &Text, buckets: Buckets) -> (Vec<u32>, Recursion) {
        let mut sa = vec![0; t.len()];
        let recursion = sais(t.bases(), &mut sa, ALPHABET, &mut [], buckets);
        (sa, recursion)
    }

    /// Suffix array plus the recursion depth SA-IS needed for it.
    fn sais_levels(t: &Text) -> (Vec<u32>, u32) {
        let (sa, recursion) = sais_with(t, Buckets::InSpare);
        (sa, recursion.levels)
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

    /// Words that drive the recursion deep, and one that has none: name,
    /// word, and the least recursion depth SA-IS needs for it.
    fn recursive_words() -> [(&'static str, String, u32); 4] {
        let mut homopolymer = "A".repeat(1_500);
        homopolymer.push_str("CGTACGGT");
        [
            ("Fibonacci", morphic_word("AC", "A", 1_597), 3),
            ("period-doubling", morphic_word("AC", "AA", 2_000), 3),
            ("Thue–Morse", morphic_word("AC", "CA", 2_000), 3),
            // A^k + tail has a single non-sentinel LMS suffix: no recursion
            // at all, but the longest possible L-type induce chain.
            ("homopolymer + tail", homopolymer, 1),
        ]
    }

    #[test]
    fn deeply_recursive_words_match_naive() {
        for (name, word, min_levels) in recursive_words() {
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
        let genome = genome.to_packed();
        let t = Text::from_reference(&genome);
        let (sa, levels) = sais_levels(&t);
        assert!(levels >= 2, "repeats should force a recursion");
        let mut seen = vec![false; t.len()];
        for &p in &sa {
            assert!(!std::mem::replace(&mut seen[p as usize], true));
        }
        for w in sa.windows(2) {
            assert!(t.suffix(w[0] as usize).lt(t.suffix(w[1] as usize)));
        }
    }

    /// A 200 kbp genome whose planted repeats force a recursion.
    fn repeat_rich_text() -> Text<'static> {
        let profile = readsim::genome::RepeatProfile::default();
        Text::from_packed(readsim::genome::repeat_rich(200_000, profile, 0x5a15).to_packed())
    }

    /// The recursion's buckets in a dead middle above them and on the
    /// heap sort alike, and a middle is really taken where they fit.
    #[test]
    fn buckets_in_the_spare_middle_sort_as_buckets_on_the_heap() {
        let mut texts: Vec<(&str, Text)> = recursive_words()
            .into_iter()
            .map(|(name, word, _)| (name, text_of(&word)))
            .collect();
        texts.push(("repeat-rich 200 kbp", repeat_rich_text()));
        for (name, t) in &texts {
            let (in_spare, spared) = sais_with(t, Buckets::InSpare);
            let (on_heap, heaped) = sais_with(t, Buckets::OnHeap);
            assert_eq!(in_spare, on_heap, "{name}");
            assert_eq!(spared.levels, heaped.levels, "{name}");
            assert_eq!(heaped.in_spare, 0, "{name}");
            // Level 0 has nothing above it. On these texts every level
            // below finds room, some of them only in a middle two or more
            // levels up (Thue–Morse and the genome, in level 0's).
            assert_eq!(spared.in_spare, spared.levels - 1, "{name}: {spared:?}");
        }
    }

    impl Types {
        /// The definition `lms_word` computes 64 positions at a time.
        fn is_lms(&self, i: usize) -> bool {
            i > 0 && self.is_s(i) && !self.is_s(i - 1)
        }
    }

    #[test]
    fn lms_enumeration_matches_the_bitwise_definition() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut random_word = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [1usize, 2, 63, 64, 65, 127, 128, 129] {
            let words = n.div_ceil(64);
            let last_mask = !0u64 >> (words * 64 - n);
            let mut patterns = vec![
                vec![0u64; words],
                vec![!0u64; words],
                vec![0x5555_5555_5555_5555; words],
                vec![0xaaaa_aaaa_aaaa_aaaa; words],
                // S runs that start exactly on a word boundary.
                vec![1; words],
                vec![1 << 63; words],
            ];
            patterns.extend((0..32).map(|_| (0..words).map(|_| random_word()).collect()));
            for mut bits in patterns {
                bits[words - 1] &= last_mask;
                let types = Types { bits };
                let expected: Vec<usize> = (0..n).filter(|&i| types.is_lms(i)).collect();
                let mut listed = Vec::new();
                types.for_each_lms(|p| listed.push(p));
                assert_eq!(listed, expected, "n {n} bits {:x?}", types.bits);
                for p in 0..n {
                    assert_eq!(
                        types.next_lms(p),
                        expected.iter().copied().find(|&q| q > p),
                        "n {n} p {p} bits {:x?}",
                        types.bits
                    );
                }
            }
        }
    }

    /// The sorted LMS suffixes as stage 1's S-pass collects them, and as
    /// filtering the whole induced array for LMS positions finds them
    /// (how they were found before the S-pass collected them).
    fn lms_order_collected_and_filtered(t: &Text) -> (Vec<u32>, Vec<u32>) {
        let s = t.bases();
        let n = t.len();
        let mut sizes = vec![0u32; ALPHABET];
        bucket_sizes(s, &mut sizes);
        let mut bkt = vec![0u32; ALPHABET];
        let types = Types::classify(s);
        let mut sa = vec![0; n];
        let m = sort_lms_substrings::<_, true>(s, &mut sa, &types, &sizes, &mut bkt);
        let collected = sa[n - m..].to_vec();
        sort_lms_substrings::<_, false>(s, &mut sa, &types, &sizes, &mut bkt);
        sa.retain(|&p| p != EMPTY && types.is_lms(p as usize));
        (collected, sa)
    }

    #[test]
    fn s_pass_collects_the_lms_order_a_filter_finds() {
        let mut texts = vec![
            text_of("A"),
            text_of("TGCTA"),
            text_of(&morphic_word("AC", "A", 1_597)),
            text_of(&morphic_word("AC", "AA", 2_000)),
            text_of(&morphic_word("AC", "CA", 2_000)),
        ];
        texts.push(repeat_rich_text());
        for t in &texts {
            let (collected, filtered) = lms_order_collected_and_filtered(t);
            assert!(!collected.is_empty(), "the sentinel is always LMS");
            assert_eq!(collected, filtered, "text of {} rows", t.len());
        }
    }

    /// The size the naive oracle cannot reach, checked through the
    /// transform's reversibility. Release mode only (`./ci.sh release`).
    #[test]
    #[ignore = "8 Mbp: run in release mode, as ./ci.sh release does"]
    fn large_suffix_arrays_invert_to_their_text() {
        let genomes = [
            readsim::genome::uniform(8_000_000, 0x8_0000),
            readsim::genome::repeat_rich(
                2_000_000,
                readsim::genome::RepeatProfile::default(),
                0x2_0000,
            ),
        ];
        for genome in genomes {
            let genome = genome.to_packed();
            let t = Text::from_reference(&genome);
            let sa = suffix_array(&t);
            assert!(
                crate::Bwt::from_sa(&t, &sa).invert() == t,
                "{} bp",
                genome.len()
            );
        }
    }

    proptest! {
        #[test]
        fn sais_matches_naive(
            bases in proptest::collection::vec(0u8..4, 0..300),
            unit in proptest::collection::vec(0u8..4, 1..8),
            letters in 1u8..5,
            len in 0usize..3_000,
        ) {
            let seq: PackedSeq = bases.iter().map(|&r| bioseq::Base::from_rank(r as usize)).collect();
            let t = Text::from_reference(&seq);
            prop_assert_eq!(suffix_array(&t), suffix_array_naive(&t));
            // Periodic texts (period 1–7, one to four letters): every LMS
            // substring repeats, so naming and the recursion carry the sort.
            let periodic: PackedSeq = (0..len)
                .map(|i| bioseq::Base::from_rank((unit[i % unit.len()] % letters) as usize))
                .collect();
            let t = Text::from_reference(&periodic);
            prop_assert_eq!(suffix_array(&t), suffix_array_naive(&t));
        }

        #[test]
        fn bucket_placement_does_not_change_the_array(
            bases in proptest::collection::vec(0u8..4, 0..600),
            letters in 1u8..5,
        ) {
            let t = text_of_ranks(bases.into_iter().map(|r| r % letters));
            let (in_spare, _) = sais_with(&t, Buckets::InSpare);
            let (on_heap, heaped) = sais_with(&t, Buckets::OnHeap);
            prop_assert_eq!(heaped.in_spare, 0);
            prop_assert_eq!(&in_spare, &on_heap);
            prop_assert_eq!(in_spare, suffix_array_naive(&t));
        }

        #[test]
        fn s_pass_collection_matches_the_filter(bases in proptest::collection::vec(0u8..3, 0..400)) {
            let (collected, filtered) = lms_order_collected_and_filtered(&text_of_ranks(bases));
            prop_assert_eq!(collected, filtered);
        }

        #[test]
        fn sais_matches_naive_low_entropy(bases in proptest::collection::vec(0u8..2, 0..400)) {
            // Two-symbol texts stress the LMS naming/recursion path.
            let seq: PackedSeq = bases.iter().map(|&r| bioseq::Base::from_rank(r as usize)).collect();
            let t = Text::from_reference(&seq);
            prop_assert_eq!(suffix_array(&t), suffix_array_naive(&t));
        }
    }
}
