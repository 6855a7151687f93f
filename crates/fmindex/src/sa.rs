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
    // Unpacked once, so the sort compares slices. A suffix that is a
    // proper prefix of another sorts first, as its sentinel does.
    let mut bases = Vec::new();
    text.bases()
        .unpack_into(0..text.reference_len(), &mut bases);
    let mut sa: Vec<u32> = (0..text.len() as u32).collect();
    sa.sort_by(|&a, &b| bases[a as usize..].cmp(&bases[b as usize..]));
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
    /// The type of every position and of the sentinel.
    fn types(&self) -> Types {
        Types::classify(self)
    }

    /// Fills `sizes` with the size of every bucket: the symbol
    /// frequencies, and 1 for the sentinel's.
    fn bucket_sizes(&self, sizes: &mut [u32]) {
        sizes.fill(0);
        sizes[0] = 1;
        for p in 0..self.len() {
            sizes[self.bucket(p)] += 1;
        }
    }

    /// The truncated key of the symbols from `p` to `end` inclusive (an
    /// LMS substring, or its rest after the symbols keys have covered;
    /// `p` is at most `end + 1`): their first `shape.symbols` ranks,
    /// `shape.bits` each and the first highest, the sentinel's rank 0 and
    /// [`KeyShape::pad`] in every field past `end`.
    fn key(&self, p: usize, end: usize, shape: KeyShape) -> u64 {
        key_of_ranks(self, p, end, shape)
    }
}

/// [`Symbols::key`] a rank at a time.
fn key_of_ranks<S: Symbols + ?Sized>(s: &S, p: usize, end: usize, shape: KeyShape) -> u64 {
    let stored = shape.symbols.min(end + 1 - p);
    let mut key = 0;
    for i in p..p + stored {
        key = key << shape.bits | rank_at(s, i) as u64;
    }
    // All 64 bits when nothing is left to store and the key has no
    // spare bit.
    let pad_bits = shape.bits * (shape.symbols - stored) as u32;
    key.checked_shl(pad_bits).unwrap_or(0) | low_ones(pad_bits)
}

/// The low `bits` bits set, `bits` at most 64.
#[inline]
fn low_ones(bits: u32) -> u64 {
    u64::MAX.checked_shr(64 - bits).unwrap_or(0)
}

/// The rank of each 2-bit hardware code (`T G A C` as `0..4`): its
/// base's rank (`A < C < G < T`) plus one.
const RANK_OF_CODE: [usize; 4] = [4, 3, 1, 2];

/// Level 0: the reference's 2-bit codes, read in place. A base's bucket
/// is its code plus one, so the induced sorts index their buckets with
/// the stored bits and only the classification, the keys and the bucket
/// bounds look up its rank.
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

    fn types(&self) -> Types {
        Types::classify_packed(self)
    }

    /// 32 codes a word: a code's count is the number of 2-bit fields
    /// that equal it.
    fn bucket_sizes(&self, sizes: &mut [u32]) {
        const LOW: u64 = 0x5555_5555_5555_5555;
        let words = self.len() / 32;
        let mut counts = [0; 4];
        for word in self.as_bytes().chunks_exact(8).take(words) {
            let codes = u64::from_le_bytes(word.try_into().expect("8 bytes"));
            for (code, count) in (0..).zip(&mut counts) {
                let differ = codes ^ (LOW * code);
                *count += (!(differ | differ >> 1) & LOW).count_ones();
            }
        }
        for p in words * 32..self.len() {
            counts[usize::from(code_at(self, p))] += 1;
        }
        sizes[0] = 1;
        sizes[1..].copy_from_slice(&counts);
    }

    /// Four codes a table read, from the 8 bytes that hold `p`'s, where
    /// those bytes are there; a code at a time otherwise. Where they are,
    /// the sentinel is at least 29 symbols on, past any key.
    fn key(&self, p: usize, end: usize, shape: KeyShape) -> u64 {
        debug_assert_eq!(shape.bits, 3, "level 0 ranks are 3 bits");
        let Some(word) = self.as_bytes().get(p / 4..p / 4 + 8) else {
            return key_of_ranks(self, p, end, shape);
        };
        // At least 29 codes from `p`'s at the bottom, 4 a byte.
        let codes = u64::from_le_bytes(word.try_into().expect("8 bytes")) >> (2 * (p % 4));
        // The 21 ranks a u64 holds, cut to the shape's.
        let mut key = 0;
        for byte in 0..5 {
            key = key << 12 | u64::from(RANKS_OF_BYTE[(codes >> (8 * byte)) as usize & 0xff]);
        }
        key = key << 3 | RANK_OF_CODE[(codes >> 40) as usize & 0b11] as u64;
        key >>= 3 * (21 - shape.symbols);
        let len = end + 1 - p;
        key | low_ones(3 * shape.symbols.saturating_sub(len) as u32)
    }
}

/// The ranks of a byte's four codes, 3 bits each, its first (lowest)
/// code highest.
const RANKS_OF_BYTE: [u16; 256] = {
    let mut table = [0; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut ranks = 0;
        let mut i = 0;
        while i < 4 {
            ranks = ranks << 3 | RANK_OF_CODE[byte >> (2 * i) & 0b11] as u16;
            i += 1;
        }
        table[byte] = ranks;
        byte += 1;
    }
    table
};

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

/// The rank of position `p` of `s` followed by its sentinel.
#[inline]
fn rank_at<S: Symbols + ?Sized>(s: &S, p: usize) -> usize {
    if p == s.len() {
        0
    } else {
        s.rank(p)
    }
}

/// The even bits of `x`, packed into the low half.
#[inline]
fn even_bits(x: u64) -> u32 {
    let x = x & 0x5555_5555_5555_5555;
    let x = (x | x >> 1) & 0x3333_3333_3333_3333;
    let x = (x | x >> 2) & 0x0f0f_0f0f_0f0f_0f0f;
    let x = (x | x >> 4) & 0x00ff_00ff_00ff_00ff;
    let x = (x | x >> 8) & 0x0000_ffff_0000_ffff;
    (x | x >> 16) as u32
}

/// One bit per position of a text and its sentinel: set for S-type
/// (suffix smaller than its right neighbour), clear for L-type. Bits past
/// the sentinel in the last word are clear.
struct Types {
    bits: Vec<u64>,
}

impl Types {
    /// Classifies every position of `s` and of the sentinel after it,
    /// right to left, a symbol at a time into a word of type bits.
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

    /// [`Types::classify`] for level 0, 32 positions at a time: each
    /// 2-bit code is mapped to its base's rank − 1 and compared with its
    /// right neighbour's, all at once, and a position whose neighbour
    /// holds the same base takes the neighbour's type, which the carry
    /// chain of one addition hands right to left across the equal run
    /// (with the bit order reversed, so that it runs the way carries do).
    fn classify_packed(s: &PackedSeq) -> Types {
        const LOW: u64 = 0x5555_5555_5555_5555;
        let len = s.len();
        let mut bits = vec![0u64; (len + 1).div_ceil(64)];
        let bytes = s.as_bytes();
        // Base ranks − 1 of the 32 codes of chunk `c`, 2 bits each:
        // T G A C (codes 0 1 2 3) become 3 2 0 1.
        let ranks = |c: usize| {
            let mut word = [0; 8];
            let held = &bytes[(8 * c).min(bytes.len())..(8 * c + 8).min(bytes.len())];
            word[..held.len()].copy_from_slice(held);
            let codes = u64::from_le_bytes(word);
            let high_clear = !(codes >> 1) & LOW;
            high_clear << 1 | ((codes & LOW) ^ high_clear)
        };
        let chunks = len.div_ceil(32);
        let (mut right, mut carry) = (0, 0);
        for c in (0..chunks).rev() {
            let a = ranks(c);
            // Each position's right neighbour, in the same field.
            let b = a >> 2 | right << 62;
            let (high_eq, low_eq) = (!(a ^ b) >> 1 & LOW, !(a ^ b) & LOW);
            let lt = ((!a & b) >> 1 & LOW) | (high_eq & !a & b & LOW);
            let (mut lt, mut eq) = (even_bits(lt), even_bits(high_eq & low_eq));
            if c == chunks - 1 {
                // The last base is L-type, its right neighbour the
                // sentinel: it and what lies past it generate nothing
                // and hand on nothing.
                let real = low_ones(((len - 1) % 32) as u32) as u32;
                (lt, eq) = (lt & real, eq & real);
            }
            let (g, p) = (u64::from(lt.reverse_bits()), u64::from(eq.reverse_bits()));
            let carries = ((g | p) + g + carry) ^ (g | p) ^ g;
            let types = ((carries >> 1) as u32).reverse_bits();
            bits[c / 2] |= u64::from(types) << (32 * (c % 2));
            (right, carry) = (a, u64::from(types & 1));
        }
        bits[len / 64] |= 1 << (len % 64);
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

    /// How many LMS positions there are.
    fn lms_count(&self) -> usize {
        (0..self.bits.len())
            .map(|w| self.lms_word(w).count_ones() as usize)
            .sum()
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
/// found room for their stage-3 buckets in a dead middle above them.
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
fn induce_s<S: Symbols + ?Sized>(
    s: &S,
    sa: &mut [u32],
    types: &Types,
    sizes: &[u32],
    bkt: &mut [u32],
) {
    bucket_tails(s, sizes, bkt);
    for i in (0..sa.len()).rev() {
        let p = sa[i];
        if p != EMPTY && p > 0 {
            let q = p as usize - 1;
            if types.is_s(q) {
                let c = s.bucket(q);
                bkt[c] -= 1;
                sa[bkt[c] as usize] = q as u32;
            }
        }
    }
}

/// How a level's truncated keys hold its symbols: `symbols` fields of
/// `bits` bits, enough for every rank of the level and for the pad, all
/// ones, above them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct KeyShape {
    bits: u32,
    symbols: usize,
}

impl KeyShape {
    /// Keys of `width` bits over the `k` ranks of a level.
    fn new(k: usize, width: u32) -> KeyShape {
        let bits = usize::BITS - k.leading_zeros();
        KeyShape {
            bits,
            symbols: (width / bits) as usize,
        }
    }

    /// The field past a substring's end.
    fn pad(self) -> u64 {
        low_ones(self.bits)
    }

    /// `true` when `key` holds its substring whole, its end and the pad
    /// after it: two such keys are equal only for equal substrings.
    fn is_whole(self, key: u64) -> bool {
        key & self.pad() == self.pad()
    }
}

/// Stage 1 of SA-IS: sorts the `m` LMS substrings of `s` and tells equal
/// ones apart, without inducing. Each LMS position, taken in text order,
/// gets the truncated key of its substring ([`Symbols::key`]), a `W - 1`
/// word key and the position packed as one entry of `sa[..W * m]`; the
/// entries are sorted by key, and a run of equal keys that are not whole
/// is re-keyed from the symbols after them and sorted again, until every
/// run is whole or alone. Leaves the sorted positions in `sa[..m]` and
/// returns one bit per sorted substring, set where it differs from the
/// one before: where a new name starts.
///
/// The pad sorts a substring after every longer one it is a prefix of,
/// as SA-IS orders them: its last symbol is S-type, and the longer one's
/// symbol there is L-type (an S-type one after an L-type symbol would
/// end it).
fn sort_lms_substrings<S: Symbols + ?Sized, const W: usize>(
    s: &S,
    sa: &mut [u32],
    types: &Types,
    shape: KeyShape,
    m: usize,
) -> Vec<u64> {
    let entries = sa[..W * m].as_chunks_mut::<W>().0;
    // A substring runs to the next LMS position inclusive; the last LMS
    // position is the sentinel, whose substring is itself.
    let mut filled = 0;
    let mut start = None;
    types.for_each_lms(|end| {
        if let Some(p) = start.replace(end) {
            entries[filled] = entry(s.key(p, end, shape), p);
            filled += 1;
        }
    });
    debug_assert_eq!((filled, start), (m - 1, Some(s.len())));
    entries[filled] = entry(s.key(s.len(), s.len(), shape), s.len());
    entries.sort_unstable_by_key(entry_key);

    let mut firsts = vec![0u64; m.div_ceil(64)];
    // Runs that tie on keys not whole, each with the offset of the
    // symbols its next keys start at.
    let mut ties = Vec::new();
    mark_runs(entries, 0, shape.symbols, shape, &mut firsts, &mut ties);
    while let Some((start, len, offset)) = ties.pop() {
        let run = &mut entries[start..start + len];
        for e in run.iter_mut() {
            let p = e[W - 1] as usize;
            let end = types.next_lms(p).expect("the sentinel never ties");
            *e = entry(s.key(p + offset, end, shape), p);
        }
        run.sort_unstable_by_key(entry_key);
        let next = offset + shape.symbols;
        mark_runs(run, start, next, shape, &mut firsts, &mut ties);
    }
    for i in 0..m {
        sa[i] = sa[W * i + W - 1];
    }
    firsts
}

/// Sets the bit of the first entry of every run of equal keys in
/// `entries`, which start at sorted index `base`, and lists each run that
/// ties on a key not whole in `ties`, with `next`, the offset of the
/// symbols its next keys start at.
fn mark_runs<const W: usize>(
    entries: &[[u32; W]],
    base: usize,
    next: usize,
    shape: KeyShape,
    firsts: &mut [u64],
    ties: &mut Vec<(usize, usize, usize)>,
) {
    let mut i = 0;
    while i < entries.len() {
        let key = entry_key(&entries[i]);
        let run = 1 + entries[i + 1..]
            .iter()
            .take_while(|e| entry_key(e) == key)
            .count();
        firsts[(base + i) / 64] |= 1 << ((base + i) % 64);
        if run > 1 && !shape.is_whole(key) {
            ties.push((base + i, run, next));
        }
        i += run;
    }
}

/// A key and a position as one sortable entry, the key's high word first.
#[inline]
fn entry<const W: usize>(key: u64, p: usize) -> [u32; W] {
    let mut e = [0; W];
    for (w, slot) in e[..W - 1].iter_mut().rev().enumerate() {
        *slot = (key >> (32 * w)) as u32;
    }
    e[W - 1] = p as u32;
    e
}

/// The key of an [`entry`].
#[inline]
fn entry_key<const W: usize>(e: &[u32; W]) -> u64 {
    e[..W - 1]
        .iter()
        .fold(0, |key, &w| key << 32 | u64::from(w))
}

/// Stage 1 of SA-IS and the naming after it: sorts the LMS substrings
/// of `s` ([`sort_lms_substrings`]) and writes their names, in text
/// order, to `sa[n-m..]`. Returns `m` and how many names there are.
fn name_lms_substrings<S: Symbols + ?Sized>(
    s: &S,
    sa: &mut [u32],
    types: &Types,
    k: usize,
) -> (usize, u32) {
    let n = sa.len();
    let m = types.lms_count();
    // A u32 key that holds 8 symbols or more ties only on the rare long
    // substrings, and sorts faster than a u64 key; one that holds fewer
    // ties on most, so its level takes a u64 key where there is room.
    let narrow = KeyShape::new(k, 32);
    let firsts = if narrow.symbols < 8 && 3 * m <= n {
        sort_lms_substrings::<S, 3>(s, sa, types, KeyShape::new(k, 64), m)
    } else {
        sort_lms_substrings::<S, 2>(s, sa, types, narrow, m)
    };

    // Name the LMS substrings in sorted order, a new name where one
    // differs from the one before, and park each at sa[m + p/2].
    let parked = m..m + n.div_ceil(2);
    sa[parked.clone()].fill(EMPTY);
    let mut names = 0u32;
    for i in 0..m {
        names += (firsts[i / 64] >> (i % 64) & 1) as u32;
        sa[m + sa[i] as usize / 2] = names - 1;
    }
    // Pack the names, still in text order, into sa[n-m..]. The write
    // cursor stays right of the read cursor, so an empty slot's copy is
    // overwritten by the next name or lands left of sa[n-m..].
    let mut j = n;
    for i in parked.rev() {
        let name = sa[i];
        sa[j - 1] = name;
        j -= usize::from(name != EMPTY);
    }
    debug_assert_eq!(j, n - m);
    (m, names)
}

/// SA-IS over `s` followed by an implicit sentinel, the unique smallest
/// symbol, at index `s.len()`; the stored symbols' buckets are below `k`
/// and above 0. Writes the suffix array of that text into `sa`
/// (`s.len() + 1` rows), which is also the only working storage
/// proportional to the text apart from one type bit per position and one
/// bit per LMS substring: stage 1 sorts the LMS substrings by key in
/// `sa[..W·m]` ([`sort_lms_substrings`]) and leaves their positions,
/// sorted, in `sa[..m]`; their names are parked at `sa[m + p/2]` (LMS
/// positions are at least 2 apart) and then packed into `sa[n-m..]`, and
/// that reduced text minus its last name — the sentinel's, which stays
/// implicit there too — is what the recursion sorts into `sa[..m]`. The
/// slots between, `sa[m..n-m]`, are dead until the recursion returns, and
/// so is the `spare` stretch this level was handed: the recursion gets
/// the larger of the two for its bucket arrays (`spare` is empty at
/// level 0).
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
    let types = s.types();
    let (m, names) = name_lms_substrings(s, sa, &types, k);

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
    let ((), in_spare) = with_buckets(spare, k, buckets, |sizes, bkt| {
        s.bucket_sizes(sizes);
        bucket_tails(s, sizes, bkt);
        for i in (0..m).rev() {
            let p = sa[i];
            sa[i] = EMPTY;
            let c = bucket_at(s, p as usize);
            bkt[c] -= 1;
            sa[bkt[c] as usize] = p;
        }
        induce_l(s, sa, &types, sizes, bkt);
        induce_s(s, sa, &types, sizes, bkt);
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

    /// The recursion's stage-3 buckets in a dead middle above them and
    /// on the heap sort alike, and a middle is really taken where they
    /// fit.
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
    fn packed_classification_matches_a_symbol_at_a_time() {
        let mut texts: Vec<PackedSeq> = (0..200)
            .map(|len| morphic_word("AC", "GT", len).parse().unwrap())
            .collect();
        for (name, word, _) in recursive_words() {
            texts.push(word.parse().unwrap_or_else(|_| panic!("{name}")));
        }
        for base in ["A", "C", "G", "T"] {
            for len in [31, 32, 33, 63, 64, 65, 100] {
                texts.push(base.repeat(len).parse().unwrap());
                texts.push(
                    format!("{}{}", base.repeat(len), "GATTACA")
                        .parse()
                        .unwrap(),
                );
            }
        }
        texts.push(repeat_rich_text().bases().clone());
        for t in &texts {
            assert_eq!(
                Types::classify_packed(t).bits,
                Types::classify(t).bits,
                "{} bases",
                t.len()
            );
        }
    }

    #[test]
    fn packed_bucket_sizes_count_a_symbol_at_a_time() {
        for len in [0, 1, 31, 32, 33, 64, 100, 1_000] {
            let s: PackedSeq = morphic_word("ACG", "TTA", len).parse().unwrap();
            let (mut packed, mut each) = (vec![9; ALPHABET], vec![9; ALPHABET]);
            s.bucket_sizes(&mut packed);
            <[u32] as Symbols>::bucket_sizes(
                &s.iter()
                    .map(|b| u32::from(b.code()) + 1)
                    .collect::<Vec<_>>(),
                &mut each,
            );
            assert_eq!(packed, each, "{len} bases");
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

    /// The names of the LMS substrings of `s`, in text order, as SA-IS
    /// defines them: each substring, from its LMS position to the next
    /// inclusive (the sentinel's is itself), is its string of (rank,
    /// type) pairs, L-type before S-type at equal ranks, and its name is
    /// its rank among the distinct ones.
    fn names_by_definition<S: Symbols + ?Sized>(s: &S) -> Vec<u32> {
        let types = Types::classify(s);
        let mut lms = Vec::new();
        types.for_each_lms(|p| lms.push(p));
        let strings: Vec<Vec<(usize, bool)>> = lms
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let end = lms.get(i + 1).copied().unwrap_or(p);
                (p..=end).map(|q| (rank_at(s, q), types.is_s(q))).collect()
            })
            .collect();
        let mut distinct = strings.clone();
        distinct.sort();
        distinct.dedup();
        strings
            .iter()
            .map(|x| distinct.binary_search(x).expect("listed") as u32)
            .collect()
    }

    /// The names stage 1 gives the LMS substrings of `s`, whose ranks are
    /// below `k`, in text order.
    fn names_by_keys<S: Symbols + ?Sized>(s: &S, k: usize) -> Vec<u32> {
        if s.len() == 0 {
            // No LMS position: `sais` answers the sentinel alone itself.
            return Vec::new();
        }
        let mut sa = vec![0; s.len() + 1];
        let (m, names) = name_lms_substrings(s, &mut sa, &s.types(), k);
        let named = sa[sa.len() - m..].to_vec();
        assert_eq!(named.iter().max().map(|&x| x + 1), Some(names));
        named
    }

    /// The truncated key a level-0 substring from `p` gets, and its
    /// length.
    fn level_0_keys(t: &Text) -> Vec<(u64, usize)> {
        let s = t.bases();
        let types = s.types();
        let mut lms = Vec::new();
        types.for_each_lms(|p| lms.push(p));
        let shape = KeyShape::new(ALPHABET, 32);
        lms.windows(2)
            .map(|w| (s.key(w[0], w[1], shape), w[1] + 1 - w[0]))
            .collect()
    }

    #[test]
    fn level_0_keys_read_from_words_match_a_rank_at_a_time() {
        let mut word = morphic_word("AC", "GT", 500);
        word.push_str(&"A".repeat(40));
        word.push_str("CGTAGGCTTACA");
        let s: PackedSeq = word.parse().unwrap();
        for width in [32, 64] {
            let shape = KeyShape::new(ALPHABET, width);
            for p in 0..=s.len() {
                for end in p..=s.len().min(p + 25) {
                    assert_eq!(
                        s.key(p, end, shape),
                        key_of_ranks(&s, p, end, shape),
                        "{width}-bit key of {p}..={end}"
                    );
                }
            }
        }
    }

    #[test]
    fn key_names_on_recursive_words_match_the_definition() {
        let mut texts = vec![text_of("A"), text_of("TGCTA")];
        texts.extend(recursive_words().map(|(_, word, _)| text_of(&word)));
        texts.push(repeat_rich_text());
        for t in &texts {
            let named = names_by_keys(t.bases(), ALPHABET);
            assert_eq!(named, names_by_definition(t.bases()), "{} rows", t.len());
        }
    }

    #[test]
    fn lms_substrings_longer_than_a_key_name_as_defined() {
        // A-runs of 11 to 40 before varied tails: each run's LMS substring
        // outgrows a 10-symbol key, and runs of equal length tie on it.
        let tails = ["C", "GT", "CA", "TGC", "GAC", "CTTG", "TAGC"];
        let mut word = String::new();
        for run in 11..=40 {
            for tail in tails {
                word.push_str(&"A".repeat(run));
                word.push_str(tail);
            }
        }
        let t = text_of(&word);
        let shape = KeyShape::new(ALPHABET, 32);
        assert!(level_0_keys(&t)
            .iter()
            .any(|&(key, len)| len > shape.symbols && !shape.is_whole(key)));
        assert_eq!(
            names_by_keys(t.bases(), ALPHABET),
            names_by_definition(t.bases())
        );
        assert_eq!(suffix_array(&t), suffix_array_naive(&t));
    }

    #[test]
    fn substrings_that_end_on_the_sentinel_name_as_defined() {
        // The last LMS substring ends on the sentinel 2 to 14 symbols
        // after its start: inside its key, on its last field, or past it.
        let shape = KeyShape::new(ALPHABET, 32);
        let mut lengths = Vec::new();
        for tail in 1..=13 {
            let word = format!("GATTACAGGC{}A", "T".repeat(tail - 1));
            let t = text_of(&word);
            let s = t.bases();
            let types = s.types();
            let last = (0..s.len())
                .rev()
                .find(|&p| p > 0 && types.is_s(p) && !types.is_s(p - 1));
            lengths.extend(last.map(|p| s.len() + 1 - p));
            assert_eq!(names_by_keys(s, ALPHABET), names_by_definition(s), "{word}");
            assert_eq!(suffix_array(&t), suffix_array_naive(&t), "{word}");
        }
        assert!(lengths.iter().any(|&l| l < shape.symbols), "{lengths:?}");
        assert!(lengths.contains(&shape.symbols), "{lengths:?}");
        assert!(lengths.iter().any(|&l| l > shape.symbols), "{lengths:?}");
    }

    #[test]
    fn period_13_text_ties_on_keys_and_names_as_defined() {
        // One unit's substring, A^11 G C A, outgrows its key; a
        // substitution in one copy makes one that ties with the rest on
        // its key and differs after it.
        let mut word = "CAAAAAAAAAAAG".repeat(200);
        word.replace_range(13 * 77 + 12..13 * 77 + 13, "T");
        let t = text_of(&word);
        let keys = level_0_keys(&t);
        let names = names_by_definition(t.bases());
        let shape = KeyShape::new(ALPHABET, 32);
        let tie = |same: bool| {
            keys.iter().zip(&names).any(|(&(a, _), &x)| {
                keys.iter()
                    .zip(&names)
                    .any(|(&(b, _), &y)| a == b && !shape.is_whole(a) && (x == y) == same)
            })
        };
        assert!(tie(true), "wholly equal substrings share a key");
        assert!(tie(false), "different substrings share a key");
        assert_eq!(names_by_keys(t.bases(), ALPHABET), names);
        assert_eq!(suffix_array(&t), suffix_array_naive(&t));
    }

    /// A text of `len` symbols below `k` from a xorshift stream, in
    /// ascending runs of up to `run` symbols.
    fn reduced_text(len: usize, k: u32, run: u32, seed: u64) -> Vec<u32> {
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut text = Vec::with_capacity(len);
        while text.len() < len {
            let steps = 1 + next() % u64::from(run);
            let mut symbol = 1 + (next() % u64::from(k - 1)) as u32;
            for _ in 0..steps {
                text.push(symbol);
                symbol = (symbol + 1 + (next() % 3) as u32).min(k - 1);
            }
        }
        text.truncate(len);
        text
    }

    /// The suffix array of `s` and its sentinel, by sorting the suffixes.
    fn naive_reduced(s: &[u32]) -> Vec<u32> {
        let mut sa: Vec<u32> = (0..=s.len() as u32).collect();
        sa.sort_by(|&a, &b| s[a as usize..].cmp(&s[b as usize..]));
        sa
    }

    #[test]
    fn a_level_whose_names_need_16_bits_or_more() {
        // Names up to 2^17 - 1 leave a u32 key one symbol and a u64 key
        // three. Short runs put LMS positions closer than 3 apart on
        // average, long ones farther: both key widths are taken.
        let k = 1 << 17;
        assert!(KeyShape::new(k, 32).bits >= 16);
        let (mut dense, mut sparse) = (false, false);
        for (run, seed) in [(1, 0x51), (2, 0x52), (6, 0x53), (12, 0x54)] {
            let s = reduced_text(3_000, k as u32, run, seed);
            let types = s.types();
            if 3 * types.lms_count() <= s.len() + 1 {
                sparse = true;
            } else {
                dense = true;
            }
            assert_eq!(
                names_by_keys(&s[..], k),
                names_by_definition(&s[..]),
                "runs of {run}"
            );
            let mut sa = vec![0; s.len() + 1];
            sais(&s[..], &mut sa, k, &mut [], Buckets::InSpare);
            assert_eq!(sa, naive_reduced(&s), "runs of {run}");
        }
        assert!(dense && sparse, "dense {dense} sparse {sparse}");
    }

    #[test]
    fn equal_substrings_as_long_as_a_full_u64_key_re_key_to_the_pad() {
        // Names below 200 take 8 bits, so a u64 key holds 8 of them and
        // no pad. Each unit's LMS substring, `1 100 90 … 50 1`, is
        // exactly 8 long: the repeats tie on their keys, and their
        // re-keyed rest is empty, a key of pads only.
        let k = 200;
        assert_eq!(KeyShape::new(k, 64).bits * 8, 64);
        let s: Vec<u32> = [1, 100, 90, 80, 70, 60, 50].repeat(40);
        assert_eq!(names_by_keys(&s[..], k), names_by_definition(&s[..]));
        let mut sa = vec![0; s.len() + 1];
        sais(&s[..], &mut sa, k, &mut [], Buckets::InSpare);
        assert_eq!(sa, naive_reduced(&s));
    }

    /// The size the naive oracle cannot reach, checked through the
    /// transform's reversibility. Release mode only (`./ci.sh release`).
    #[test]
    #[ignore = "8 Mbp: run in release mode, as ./ci.sh release does"]
    fn large_suffix_arrays_invert_to_their_text() {
        // Besides the genomes, the two 1 Mbp words with the largest tie
        // groups and the deepest recursion: the Fibonacci word, and a
        // period-13 text whose every unit's LMS substring outgrows a key,
        // one base in 5 000 substituted.
        let mut period_13 = "CAAAAAAAAAAAG".repeat(1_000_000 / 13 + 1);
        period_13.truncate(1_000_000);
        for i in (2_500..1_000_000).step_by(5_000) {
            let base = ["C", "G", "T"][i / 5_000 % 3];
            period_13.replace_range(i..i + 1, base);
        }
        let texts = [
            readsim::genome::uniform(8_000_000, 0x8_0000).to_packed(),
            readsim::genome::repeat_rich(
                2_000_000,
                readsim::genome::RepeatProfile::default(),
                0x2_0000,
            )
            .to_packed(),
            morphic_word("AC", "A", 1_000_000).parse().unwrap(),
            period_13.parse().unwrap(),
        ];
        for (i, reference) in texts.iter().enumerate() {
            let t = Text::from_reference(reference);
            let (sa, levels) = sais_levels(&t);
            assert!(
                crate::Bwt::from_sa(&t, &sa).invert() == t,
                "text {i}: {} bp, {levels} levels",
                reference.len()
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
        fn key_names_match_the_definition(
            bases in proptest::collection::vec(0u8..4, 0..400),
            letters in 1u8..5,
            symbols in proptest::collection::vec(1u32..40_000, 0..300),
            k_bits in 2u32..17,
        ) {
            // Level 0 over one to four letters, and a reduced text whose
            // names need 2 to 16 bits.
            let t = text_of_ranks(bases.into_iter().map(|r| r % letters));
            prop_assert_eq!(names_by_keys(t.bases(), ALPHABET), names_by_definition(t.bases()));
            let k = 1u32 << k_bits;
            let s: Vec<u32> = symbols.iter().map(|&x| 1 + x % (k - 1)).collect();
            prop_assert_eq!(names_by_keys(&s[..], k as usize), names_by_definition(&s[..]));
        }

        #[test]
        fn packed_classification_matches_on_any_text(bases in proptest::collection::vec(0u8..4, 0..300), letters in 1u8..5) {
            let t = text_of_ranks(bases.into_iter().map(|r| r % letters));
            prop_assert_eq!(Types::classify_packed(t.bases()).bits, Types::classify(t.bases()).bits);
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
