//! Mapping SA rows back to reference positions.
//!
//! The paper stores the full suffix array in memory next to BWT and MT
//! ("only BWT, Marker Table (MT), and SA will be stored in the memory").
//! We support that configuration plus the classic space-saving alternative
//! of sampling the SA and recovering un-sampled rows by LF-stepping — used
//! by the ablation benches to show the storage/latency trade-off.

use crate::bwt::Bwt;
use crate::packed::{bits_for, PackedFields};
use crate::search::SaInterval;
use crate::tables::MarkerTable;

/// The rows a sampled suffix array keeps, held as they serialise: one
/// bit per SA row saying whether the row is stored, and the stored values
/// in row order, each kept as `value / rate` in the bits
/// `⌊(rows − 1) / rate⌋` needs and packed into `u64` words
/// (`n/8 + ⌈n/rate⌉·w/8` bytes, `w` = 17 at 1 Mbp and rate 8, against
/// `4·n` for a row-indexed array), plus a running count every
/// `RANK_BLOCK` rows that is rebuilt from the bitmap rather than stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledRows {
    /// Bit `row % 64` of word `row / 64` is set when the row is stored.
    bits: Vec<u64>,
    /// `block_ranks[b]` = stored rows before row `b · RANK_BLOCK`.
    block_ranks: Vec<u32>,
    /// `value / rate` of every stored row, in row order.
    values: PackedFields,
    /// SA rows covered.
    rows: usize,
}

/// Rows per rank check-point: eight bitmap words, so a lookup counts
/// bits in at most eight words it has just touched one of.
const RANK_BLOCK: usize = 512;

/// The largest `value / rate` a suffix array of `rows` rows keeps.
fn largest_quotient(rows: usize, rate: u32) -> usize {
    (rows.max(1) - 1) / rate as usize
}

impl SampledRows {
    /// Indexes a bitmap of `rows` SA rows and the packed `value / rate` of
    /// its set rows, in row order, `width` bits each.
    ///
    /// # Errors
    ///
    /// Describes a bitmap that is not `⌈rows/64⌉` words, that marks a
    /// row past the last, or that marks other than the `⌈rows/rate⌉` rows
    /// the rate keeps; and values of a width other than that of
    /// `⌊(rows − 1)/rate⌋`, in other than `⌈kept · width/64⌉` words, with a
    /// padding bit set, or past `⌊(rows − 1)/rate⌋`.
    pub(crate) fn new(
        bits: Vec<u64>,
        width: u32,
        words: Vec<u64>,
        rows: usize,
        rate: u32,
    ) -> Result<SampledRows, String> {
        if bits.len() != rows.div_ceil(64) {
            return Err(format!(
                "suffix array bitmap has {} words for {rows} rows",
                bits.len()
            ));
        }
        if !rows.is_multiple_of(64) && bits.last().is_some_and(|&w| w >> (rows % 64) != 0) {
            return Err("suffix array bitmap marks a row past the last".into());
        }
        // At most `rows ≤ u32::MAX` bits are set once the tail is clear.
        let mut seen = 0u32;
        let block_ranks = bits
            .chunks(RANK_BLOCK / 64)
            .map(|block| {
                let before = seen;
                seen += block.iter().map(|w| w.count_ones()).sum::<u32>();
                before
            })
            .collect();
        let kept = rows.div_ceil(rate as usize);
        if seen as usize != kept {
            return Err(format!(
                "suffix array bitmap marks {seen} rows where rate {rate} keeps {kept}"
            ));
        }
        let largest = largest_quotient(rows, rate);
        let needed = bits_for(largest as u64);
        if width != needed {
            return Err(format!(
                "suffix array values are {width} bits wide where ⌊(rows − 1)/rate⌋ = \
                 {largest} needs {needed}"
            ));
        }
        let values = PackedFields::from_words(width, words, kept)
            .map_err(|what| format!("suffix array values {what}"))?;
        if let Some(v) = (0..kept)
            .map(|i| values.get(i))
            .find(|&v| v as usize > largest)
        {
            return Err(format!(
                "suffix array values hold {v}, past ⌊(rows − 1)/rate⌋ = {largest}"
            ));
        }
        Ok(SampledRows {
            bits,
            block_ranks,
            values,
            rows,
        })
    }

    /// `value / rate` of `row`, if it is a stored row.
    #[inline]
    fn get(&self, row: usize) -> Option<u32> {
        let word = self.bits[row / 64];
        let bit = 1u64 << (row % 64);
        if word & bit == 0 {
            return None;
        }
        let block = row / RANK_BLOCK;
        let rank = self.block_ranks[block]
            + self.bits[block * (RANK_BLOCK / 64)..row / 64]
                .iter()
                .map(|w| w.count_ones())
                .sum::<u32>()
            + (word & (bit - 1)).count_ones();
        Some(self.values.get(rank as usize))
    }

    /// How many rows are stored.
    pub fn stored_len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The row bitmap: bit `row % 64` of word `row / 64` is set when the
    /// row is stored.
    pub(crate) fn bits(&self) -> &[u64] {
        &self.bits
    }

    /// Bits a stored value takes: those of `⌊(rows − 1)/rate⌋`.
    pub fn value_bits(&self) -> u32 {
        self.values.width()
    }

    /// The stored `value / rate`s, in row order, packed
    /// [`SampledRows::value_bits`] bits each, low bits first.
    pub(crate) fn value_words(&self) -> &[u64] {
        self.values.words()
    }

    /// Bytes of the bitmap and the packed values — what a sampled SA
    /// serialises; the rank directory is rebuilt on load.
    fn size_bytes(&self) -> usize {
        (self.bits.len() + self.values.words().len()) * 8
    }
}

/// Lemire's exact divisibility test for `u32` values: with
/// `magic = ⌊(2⁶⁴ − 1) / d⌋ + 1`, `v` is a multiple of `d` exactly when
/// `v · magic mod 2⁶⁴ ≤ magic − 1` — one multiply per value, any `d ≥ 1`
/// (`d = 1` wraps `magic` to 0 and every value passes; Lemire, Kaser &
/// Kurz, "Faster remainder by direct computation", 2019).
struct Divisibility {
    magic: u64,
}

impl Divisibility {
    fn by(divisor: u32) -> Divisibility {
        Divisibility {
            magic: (u64::MAX / u64::from(divisor)).wrapping_add(1),
        }
    }

    #[inline]
    fn test(&self, v: u32) -> bool {
        u64::from(v).wrapping_mul(self.magic) <= self.magic.wrapping_sub(1)
    }
}

/// Suffix-array storage: either the full array or a sampled subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuffixArraySamples {
    /// Every SA entry, indexed by row.
    Full(Vec<u32>),
    /// Entries whose *text position* is a multiple of the sampling rate,
    /// addressed by SA row.
    Sampled {
        /// The stored rows and their SA values.
        stored: SampledRows,
        /// Sampling rate `s` (every `s`-th text position is kept).
        rate: u32,
    },
}

impl SuffixArraySamples {
    /// Keeps the full SA, taking over the array [`suffix_array`] built.
    ///
    /// Text positions are `u32` with `u32::MAX` kept out of range (SA-IS
    /// uses it as its empty-slot mark), so the SA may have at most
    /// `u32::MAX` rows. The index builder enforces this bound with a
    /// typed error ([`IndexBuildError`](crate::IndexBuildError)); the
    /// assert here is defence in depth against callers constructing
    /// samples directly.
    ///
    /// [`suffix_array`]: crate::suffix_array
    ///
    /// # Panics
    ///
    /// Panics if the SA has more than `u32::MAX` rows.
    pub fn full(sa: Vec<u32>) -> SuffixArraySamples {
        assert!(
            sa.len() <= u32::MAX as usize,
            "SA has {} rows; text positions must fit below u32::MAX",
            sa.len()
        );
        SuffixArraySamples::Full(sa)
    }

    /// Samples the SA at text positions divisible by `rate`. The kept
    /// values are compacted to the front of the array's own storage
    /// (rows are visited in order, so nothing is sorted), then packed as
    /// `value / rate` and the array freed.
    ///
    /// The same row bound as [`SuffixArraySamples::full`] applies.
    ///
    /// # Panics
    ///
    /// Panics if `rate == 0` or the SA has more than `u32::MAX` rows.
    pub fn sampled(mut sa: Vec<u32>, rate: u32) -> SuffixArraySamples {
        assert!(rate > 0, "SA sampling rate must be positive");
        assert!(
            sa.len() <= u32::MAX as usize,
            "SA has {} rows; text positions must fit below u32::MAX",
            sa.len()
        );
        let rows = sa.len();
        let multiple_of_rate = Divisibility::by(rate);
        let mut bits = vec![0u64; rows.div_ceil(64)];
        let mut kept = 0;
        for (w, word) in bits.iter_mut().enumerate() {
            for row in w * 64..rows.min(w * 64 + 64) {
                let v = sa[row];
                let keep = multiple_of_rate.test(v);
                *word |= u64::from(keep) << (row % 64);
                // `kept <= row`: a value that is not kept is overwritten
                // by the next one, so no branch decides the store.
                sa[kept] = v;
                kept += usize::from(keep);
            }
        }
        let width = bits_for(largest_quotient(rows, rate) as u64);
        let words = PackedFields::pack(width, sa[..kept].iter().map(|&v| v / rate)).into_words();
        drop(sa);
        SuffixArraySamples::Sampled {
            stored: SampledRows::new(bits, width, words, rows, rate)
                .expect("the loop keeps every multiple of the rate, each below the rows"),
            rate,
        }
    }

    /// Number of SA rows covered.
    pub fn len(&self) -> usize {
        match self {
            SuffixArraySamples::Full(v) => v.len(),
            SuffixArraySamples::Sampled { stored, .. } => stored.rows,
        }
    }

    /// SA storage always covers the sentinel row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of storage used (Fig. 10a memory accounting).
    ///
    /// This mirrors the bytes [`io::save`](crate::io::save) actually
    /// writes for the SA table: 4 bytes per row for the full array, and
    /// for the sampled form the row bitmap — one bit per row, in 8-byte
    /// words — plus the packed values' 8-byte words. The agreement is
    /// pinned by a serializer test.
    pub fn size_bytes(&self) -> usize {
        match self {
            SuffixArraySamples::Full(v) => v.len() * 4,
            SuffixArraySamples::Sampled { stored, .. } => stored.size_bytes(),
        }
    }

    /// The directly stored value for `row`, if present.
    fn stored(&self, row: usize) -> Option<u32> {
        match self {
            SuffixArraySamples::Full(v) => Some(v[row]),
            SuffixArraySamples::Sampled { stored, rate } => stored.get(row).map(|q| q * rate),
        }
    }
}

/// Resolves every row of `interval` to a text position, LF-stepping from
/// unsampled rows when the SA is sampled. Positions are returned sorted
/// and deduplicated.
///
/// # Panics
///
/// Panics if the interval exceeds the number of SA rows.
pub fn locate(
    samples: &SuffixArraySamples,
    bwt: &Bwt,
    marker: &MarkerTable,
    interval: SaInterval,
) -> Vec<usize> {
    assert!(
        interval.high() as usize <= samples.len(),
        "interval {interval} exceeds SA rows {}",
        samples.len()
    );
    let mut out: Vec<usize> = interval
        .rows()
        .map(|row| resolve_row(samples, bwt, marker, row))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn resolve_row(
    samples: &SuffixArraySamples,
    bwt: &Bwt,
    marker: &MarkerTable,
    mut row: usize,
) -> usize {
    let mut steps = 0usize;
    loop {
        if let Some(v) = samples.stored(row) {
            return v as usize + steps;
        }
        row = lf_step(bwt, marker, row);
        steps += 1;
        debug_assert!(steps <= bwt.len(), "LF walk did not terminate");
    }
}

/// One LF-mapping step: the SA row of the suffix one position earlier in
/// the text — `Count(nt) + occ(nt, row)`, which is exactly
/// [`MarkerTable::lfm`], the one software rank path.
fn lf_step(bwt: &Bwt, marker: &MarkerTable, row: usize) -> usize {
    let r = bwt.rank(row);
    if r == 0 {
        return 0; // the sentinel maps to row 0
    }
    marker.lfm(bwt, bioseq::Base::from_rank(r as usize - 1), row) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sa::suffix_array;
    use crate::tables::{CountTable, OccTable, SampledOcc};
    use crate::text::Text;
    use crate::{FmIndex, SaStorage};
    use bioseq::{Base, DnaSeq};
    use proptest::prelude::*;

    fn setup(s: &str) -> (Vec<u32>, Bwt, MarkerTable) {
        let t = Text::from_reference(&s.parse::<DnaSeq>().unwrap());
        let sa = suffix_array(&t);
        let bwt = Bwt::from_sa(&t, &sa);
        let count = CountTable::from_bwt(&bwt);
        let marker = MarkerTable::new(&count, &SampledOcc::from_bwt(&bwt, 4));
        (sa, bwt, marker)
    }

    fn row(r: usize) -> SaInterval {
        SaInterval::new(r as u32, r as u32 + 1)
    }

    #[test]
    fn full_storage_is_direct_lookup() {
        let (sa, bwt, marker) = setup("TGCTAACG");
        let samples = SuffixArraySamples::full(sa.clone());
        for (r, &entry) in sa.iter().enumerate() {
            assert_eq!(
                locate(&samples, &bwt, &marker, row(r)),
                vec![entry as usize]
            );
        }
    }

    #[test]
    fn sampled_storage_recovers_all_rows() {
        let (sa, bwt, marker) = setup("GATTACAGATTACAGGGTTTCCC");
        for rate in [1u32, 2, 3, 4, 8] {
            let samples = SuffixArraySamples::sampled(sa.clone(), rate);
            for (r, &entry) in sa.iter().enumerate() {
                assert_eq!(
                    locate(&samples, &bwt, &marker, row(r)),
                    vec![entry as usize],
                    "rate {rate} row {r}"
                );
            }
        }
    }

    /// The walk `FmIndex::locate` takes through `MarkerTable::lfm`
    /// against the textbook one stepped through the full Occ table:
    /// `LF(row) = Count(c) + Occ(c, row)` until a sampled position.
    #[test]
    fn locate_matches_an_occ_table_stepped_walk() {
        let reference = readsim::genome::uniform(700, 41);
        let text = Text::from_reference(&reference);
        let sa = suffix_array(&text);
        let bwt = Bwt::from_sa(&text, &sa);
        let count = CountTable::from_bwt(&bwt);
        let occ = OccTable::from_bwt(&bwt);
        // Also reports whether a step's bucket scan ran across the
        // sentinel cell of the BWT (same bucket, past it) — the one cell
        // that must match no base.
        let sentinel = bwt.sentinel_pos();
        let occ_walk = |mut r: usize, rate: u32, d: usize| {
            let (mut steps, mut crossed) = (0, false);
            while !sa[r].is_multiple_of(rate) {
                crossed |= r > sentinel && r / d == sentinel / d;
                let base = Base::from_rank(bwt.rank(r) as usize - 1);
                r = (count.get(base) + occ.occ(base, r)) as usize;
                steps += 1;
            }
            (sa[r] as usize + steps, crossed)
        };
        for rate in [1u32, 2, 3, 8, 32] {
            let mut crossings = 0;
            for d in [1usize, 3, 7, 128] {
                let storage = match rate {
                    1 => SaStorage::Full,
                    _ => SaStorage::Sampled(rate),
                };
                let index = FmIndex::builder()
                    .bucket_width(d)
                    .sa_storage(storage)
                    .build(&reference);
                for (r, &entry) in sa.iter().enumerate() {
                    let (expected, crossed) = occ_walk(r, rate, d);
                    assert_eq!(expected, entry as usize);
                    assert_eq!(
                        index.locate(row(r)),
                        vec![expected],
                        "rate {rate} d {d} row {r}"
                    );
                    crossings += usize::from(crossed);
                }
            }
            assert!(
                rate == 1 || crossings > 0,
                "rate {rate}: no walk crossed the sentinel"
            );
        }
    }

    /// The compact form against the row-indexed array it replaced, for
    /// every row, over several rank blocks and a ragged last word.
    #[test]
    fn compact_rows_equal_the_dense_array() {
        let text = Text::from_reference(&readsim::genome::uniform(5_003, 9));
        let sa = suffix_array(&text);
        for rate in [1u32, 2, 3, 8, 32, 4_999] {
            let samples = SuffixArraySamples::sampled(sa.clone(), rate);
            let dense: Vec<Option<u32>> = sa
                .iter()
                .map(|&v| v.is_multiple_of(rate).then_some(v))
                .collect();
            for (r, &expected) in dense.iter().enumerate() {
                assert_eq!(samples.stored(r), expected, "rate {rate} row {r}");
            }
            let SuffixArraySamples::Sampled { stored, .. } = &samples else {
                panic!("sampled() builds the sampled variant");
            };
            let width = bits_for(((sa.len() - 1) / rate as usize) as u64);
            let values =
                PackedFields::pack(width, dense.iter().filter_map(|&v| v.map(|v| v / rate)));
            assert_eq!(stored.value_bits(), width, "rate {rate}");
            assert_eq!(stored.value_words(), values.words(), "rate {rate}");
            assert_eq!(stored.bits().len(), sa.len().div_ceil(64));
            assert_eq!(
                samples.size_bytes(),
                (sa.len().div_ceil(64) + values.words().len()) * 8
            );
            let words = values.words().to_vec();
            let reloaded = SampledRows::new(stored.bits().to_vec(), width, words, sa.len(), rate);
            assert_eq!(reloaded.as_ref(), Ok(stored), "rate {rate}");
        }
    }

    #[test]
    fn multiply_test_is_the_remainder_test() {
        let edges = [0, 1, 0x7fff_ffff, 0x8000_0000, u32::MAX - 1, u32::MAX];
        let divisors = [1, 2, 3, 5, 8, 12, 641, 4_999, 65_537, 1 << 31, u32::MAX];
        for d in divisors {
            let multiple_of_d = Divisibility::by(d);
            let near_multiples = [1, 2, 1_000, u64::from(u32::MAX / d)]
                .into_iter()
                .flat_map(|k| [k * u64::from(d) - 1, k * u64::from(d), k * u64::from(d) + 1])
                .filter_map(|v| u32::try_from(v).ok());
            for v in edges.into_iter().chain(near_multiples).chain(0..2_000) {
                assert_eq!(multiple_of_d.test(v), v.is_multiple_of(d), "{v} % {d}");
            }
        }
    }

    #[test]
    fn sampled_uses_less_space() {
        let (sa, ..) = setup(&"ACGT".repeat(64));
        let full = SuffixArraySamples::full(sa.clone());
        let sparse = SuffixArraySamples::sampled(sa, 8);
        assert!(sparse.size_bytes() < full.size_bytes());
    }

    #[test]
    fn locate_interval_sorts_and_dedups() {
        let (sa, bwt, marker) = setup("ACGTACGTACGT");
        let samples = SuffixArraySamples::full(sa);
        // Rows 0..4 in one interval: positions come back sorted.
        let pos = locate(&samples, &bwt, &marker, SaInterval::new(0, 4));
        let mut sorted = pos.clone();
        sorted.sort_unstable();
        assert_eq!(pos, sorted);
    }

    #[test]
    #[should_panic(expected = "exceeds SA rows")]
    fn out_of_range_interval_panics() {
        let (sa, bwt, marker) = setup("ACGT");
        let samples = SuffixArraySamples::full(sa);
        let _ = locate(&samples, &bwt, &marker, SaInterval::new(0, 99));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        let (sa, ..) = setup("ACGT");
        let _ = SuffixArraySamples::sampled(sa, 0);
    }

    proptest! {
        #[test]
        fn multiply_test_matches_remainder(v in any::<u32>(), d in 1u32..=u32::MAX) {
            prop_assert_eq!(Divisibility::by(d).test(v), v.is_multiple_of(d));
            // Small divisors are the rates in use; force a multiple too.
            let rate = d % 4_096 + 1;
            let multiple = v - v % rate;
            prop_assert!(Divisibility::by(rate).test(multiple));
            prop_assert_eq!(Divisibility::by(rate).test(v), v.is_multiple_of(rate));
        }

        #[test]
        fn sampled_equals_full(
            bases in proptest::collection::vec(0u8..4, 1..120),
            rate in 1u32..10,
        ) {
            let seq: DnaSeq = bases.iter().map(|&r| Base::from_rank(r as usize)).collect();
            let t = Text::from_reference(&seq);
            let sa = suffix_array(&t);
            let bwt = Bwt::from_sa(&t, &sa);
            let count = CountTable::from_bwt(&bwt);
            let marker = MarkerTable::new(&count, &SampledOcc::from_bwt(&bwt, 4));
            let interval = SaInterval::full(sa.len());
            let full = SuffixArraySamples::full(sa.clone());
            let sparse = SuffixArraySamples::sampled(sa, rate);
            prop_assert_eq!(
                locate(&full, &bwt, &marker, interval),
                locate(&sparse, &bwt, &marker, interval)
            );
        }
    }
}
