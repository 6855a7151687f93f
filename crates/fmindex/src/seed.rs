//! The seed table: the first `k` steps of every backward search, read
//! instead of walked.
//!
//! Every search starts from `[0, N)` and its first steps depend on
//! nothing but the read's last few bases, so the interval they reach is
//! a function of those bases alone. The table answers it for every
//! `j`-mer, `1 ≤ j ≤ k`, with `k` from
//! [`size_model::seed_depth`]: an
//! extension beyond the paper, derived from an index's BWT and marker
//! table when a platform maps it and stored in no artifact.
//!
//! It holds one array, not one per level. `B[y]` is the number of rows
//! whose suffix sorts below the `k`-mer `y`, for every `y` in
//! lexicographic order, and `B[4^k] = N`, each in the bits `N` needs. A
//! `j`-mer `x` is the rows from `B[x·A^(k−j)]` to `B[x⁺·A^(k−j)]`, `x⁺` the
//! `j`-mer after `x`: the first `k`-mer that starts with `x` and the first
//! that starts with `x⁺`. The only rows those boundaries miscount are the
//! text's suffixes of fewer than `k` bases, `w$`, that pad with A's to the
//! boundary's `k`-mer: such a suffix sorts below it, but below `x` only
//! when it is shorter than `j`, and below the rows of `x` (`x` and all it
//! prefixes) never. There are at most `k − 1` of them, and the table keeps
//! them beside the array, as the DPU's registers would, to take them off.

use bioseq::Base;

use crate::index::FmIndex;
use crate::packed::{bits_for, PackedFields};
use crate::size_model;

/// For every `j`-mer, `1 ≤ j ≤` [`SeedTable::depth`], the interval that
/// `j` steps of Algorithm 1 from `[0, N)` produce — `low == high` where
/// the `j`-mer does not occur — read from one packed boundary array.
///
/// # Examples
///
/// ```
/// use bioseq::PackedSeq;
/// use fmindex::{FmIndex, SeedTable};
///
/// let reference: PackedSeq = (0..4_000).map(|i| bioseq::Base::from_rank(i * i % 4)).collect();
/// let index = FmIndex::new(&reference);
/// let seeds = SeedTable::derive(&index);
/// // 4 001 rows hold 1 000 bytes of table: 257 boundaries of 12 bits.
/// assert_eq!(seeds.depth(), 4);
/// assert_eq!(seeds.size_bytes(), 386);
/// let c = index.backward_search(&"C".parse().unwrap()).unwrap();
/// assert_eq!(seeds.interval(&[bioseq::Base::C]), (c.low(), c.high()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedTable {
    depth: usize,
    /// `B[0 ..= 4^k]`, each at the width of `N`; a `k`-mer's index is its
    /// bases' ranks read as base-4 digits, first base first.
    bounds: PackedFields,
    /// The text's suffixes of `1 ..= k − 1` bases: each one's length and
    /// the index of the `k`-mer it is, padded with A's.
    short: Vec<(usize, usize)>,
}

/// The lows of the level after `lows`: `c·x` at `c · |lows| + x`.
fn next_level<'a>(index: &'a FmIndex, lows: &'a [u32]) -> impl Iterator<Item = u32> + 'a {
    let (mt, bwt, per) = (index.marker_table(), index.bwt(), lows.len());
    (0..4 * per).map(move |i| mt.lfm(bwt, Base::from_rank(i / per), lows[i % per] as usize))
}

impl SeedTable {
    /// Derives the table of `index` in one pass over the lows of each
    /// level: the rows below `c·x` are `LFM(c, ·)` of the rows below `x`,
    /// one `LFM` an entry. Each level is held only while the next is made,
    /// and the last is packed as it is made. The short suffixes come from
    /// `k − 1` LF steps back from the sentinel's row.
    pub fn derive(index: &FmIndex) -> SeedTable {
        let n = index.text_len();
        let depth = size_model::seed_depth(n);
        let (mt, bwt) = (index.marker_table(), index.bwt());
        if depth == 0 {
            return SeedTable {
                depth,
                bounds: PackedFields::pack(0, []),
                short: Vec::new(),
            };
        }
        // Level 0 is the empty string: no row sorts below it.
        let mut lows = vec![0u32];
        for _ in 1..depth {
            lows = next_level(index, &lows).collect();
        }
        let last = next_level(index, &lows).chain([n as u32]);
        let bounds = PackedFields::pack(bits_for(n as u64), last);
        // Row 0 is `$`; the row before it in the text is `T[N−1]$`, and so
        // on back: `w` one base longer each step.
        let (mut row, mut key) = (0usize, 0usize);
        let mut short = Vec::with_capacity(depth - 1);
        for len in 1..depth {
            let Some(nt) = bwt.rank(row).checked_sub(1) else {
                break; // a text shorter than the table, which the depth rule rules out
            };
            let nt = Base::from_rank(nt as usize);
            key += nt.rank() << (2 * (len - 1));
            short.push((len, key << (2 * (depth - len))));
            row = mt.lfm(bwt, nt, row) as usize;
        }
        SeedTable {
            depth,
            bounds,
            short,
        }
    }

    /// The deepest level held, `k`; 0 when the text is too short for a
    /// table.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The interval of `kmer`, given in read order.
    ///
    /// # Panics
    ///
    /// Panics if `kmer` is empty or longer than [`SeedTable::depth`].
    pub fn interval(&self, kmer: &[Base]) -> (u32, u32) {
        self.read(kmer).0
    }

    /// The interval of `kmer`, given in read order, and whether a short
    /// suffix moved one of its two boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `kmer` is empty or longer than [`SeedTable::depth`].
    pub fn read(&self, kmer: &[Base]) -> ((u32, u32), bool) {
        let j = kmer.len();
        assert!(
            (1..=self.depth).contains(&j),
            "no level {j} in a seed table of depth {}",
            self.depth
        );
        let key = kmer.iter().fold(0, |key, nt| key * 4 + nt.rank());
        let step = 1 << (2 * (self.depth - j));
        let (low, high) = (key * step, (key + 1) * step);
        // The short suffixes that pad to `at` and are at least `shortest`
        // bases long.
        let padding = |at: usize, shortest: usize| {
            let short = self
                .short
                .iter()
                .filter(|&&(len, pad)| pad == at && len >= shortest);
            short.count() as u32
        };
        // One shorter than `x` sorts below `x` as well; any sorts above
        // every row `x` prefixes.
        let (low_off, high_off) = (padding(low, j), padding(high, 1));
        let interval = (
            self.bounds.get(low) - low_off,
            self.bounds.get(high) - high_off,
        );
        (interval, low_off + high_off > 0)
    }

    /// Bytes held: `4^k + 1` boundaries of `⌈log₂(N + 1)⌉` bits, none
    /// without a table
    /// ([`size_model::seed_bytes`]); the
    /// bits past the last boundary in its word are not counted.
    pub fn size_bytes(&self) -> usize {
        let boundaries = (1usize << (2 * self.depth)) + 1;
        (boundaries * self.bounds.width() as usize).div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{backward_step, SaInterval};
    use bioseq::{DnaSeq, PackedSeq};
    use proptest::prelude::*;
    use readsim::genome;

    /// Every entry at every level against `j` published steps from
    /// `[0, N)`, walked on through an empty interval as the table's
    /// derivation is.
    fn every_entry_is_the_published_walk(reference: &PackedSeq) -> Result<(), TestCaseError> {
        let index = FmIndex::builder().bucket_width(128).build(reference);
        let seeds = SeedTable::derive(&index);
        prop_assert_eq!(seeds.depth(), size_model::seed_depth(reference.len() + 1));
        prop_assert_eq!(
            seeds.size_bytes(),
            size_model::seed_bytes(seeds.depth(), index.text_len())
        );
        for j in 1..=seeds.depth() {
            for code in 0..1usize << (2 * j) {
                let kmer: Vec<Base> = (0..j)
                    .map(|at| Base::from_rank(code >> (2 * at) & 3))
                    .collect();
                let mut interval = SaInterval::full(index.text_len());
                for &nt in kmer.iter().rev() {
                    interval = backward_step(index.marker_table(), index.bwt(), nt, interval);
                }
                prop_assert_eq!(
                    seeds.interval(&kmer),
                    (interval.low(), interval.high()),
                    "{:?}",
                    kmer
                );
                let occurs = index.backward_search(&DnaSeq::from_bases(kmer));
                prop_assert_eq!(occurs.is_none(), interval.is_empty());
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// No table under 11 bases, then one to six levels.
        #[test]
        fn entries_equal_the_published_walk_on_uniform_genomes(
            len in 1usize..50_000,
            seed in any::<u64>(),
        ) {
            every_entry_is_the_published_walk(&genome::uniform(len, seed).to_packed())?;
        }

        /// Few distinct k-mers: most entries wide, many empty.
        #[test]
        fn entries_equal_the_published_walk_on_repeat_rich_genomes(
            unit in proptest::collection::vec(0usize..4, 1..40),
            len in 2_047usize..30_000,
        ) {
            let reference: PackedSeq =
                (0..len).map(|i| Base::from_rank(unit[i % unit.len()])).collect();
            every_entry_is_the_published_walk(&reference)?;
        }
    }

    #[test]
    fn a_genome_missing_most_kmers_has_empty_entries() {
        // Poly-A with one island: six levels (five while every level held
        // its own pairs of u32s), and of 4 096 6-mers only those the island
        // spells or borders occur.
        let mut bases = vec![Base::A; 44_000];
        let island: DnaSeq = "CGTTGC".parse().unwrap();
        bases.splice(6_000..6_006, island.iter().copied());
        let reference = DnaSeq::from_bases(bases).to_packed();
        every_entry_is_the_published_walk(&reference).unwrap();
        let seeds = SeedTable::derive(&FmIndex::new(&reference));
        assert_eq!(seeds.depth(), 6);
        let (low, high) = seeds.interval(&[Base::G, Base::G, Base::G]);
        assert!(low >= high);
        let (low, high) = seeds.interval(&[Base::A, Base::A, Base::A]);
        assert_eq!(high - low, 44_000 - 6 - 4);
        let (low, high) = seeds.interval(&[Base::A; 5]);
        assert_eq!(high - low, 44_000 - 6 - 8);
        let (low, high) = seeds.interval(&[Base::G, Base::C, Base::A, Base::A, Base::A]);
        assert_eq!(high - low, 1);
    }

    /// Genomes whose last bases sit on the boundaries the table reads, at
    /// the first length with a five-level table: every entry is still the
    /// published walk, and the lookups the text's short suffixes move say
    /// so.
    #[test]
    fn short_suffixes_on_a_boundary_are_taken_off() {
        let len = (1..)
            .find(|&len| size_model::seed_depth(len + 1) == 5)
            .unwrap();
        assert_eq!(
            size_model::seed_depth(len),
            4,
            "{len} bases are just past a threshold"
        );
        let with_tail = |body: DnaSeq, tail: &str| {
            let tail: DnaSeq = tail.parse().unwrap();
            let body = body.subseq(0..len - tail.len());
            DnaSeq::from_bases(body.iter().chain(tail.iter()).copied().collect()).to_packed()
        };
        let (a, c, t) = (Base::A, Base::C, Base::T);
        // A poly-A tail: `A^j$` for j < 5 sorts inside the rows below
        // `A^5`, so every level but the last reads a moved low.
        let poly_a = with_tail(genome::uniform(len, 3), "AAAAAAAA");
        // A text of `ATTTT`s ending in `C`: `C$` sorts below `CAAAA` but
        // above every row that starts with `A`, `AT`, … `ATTTT`, the most
        // frequent 5-mer, so each of those reads a moved high.
        let unit = [a, t, t, t, t];
        let attt: DnaSeq = (0..len).map(|i| unit[i % 5]).collect();
        let successor = with_tail(attt, "C");
        // And one whose last bases are random.
        let uniform = genome::uniform(len, 4).to_packed();
        for reference in [&poly_a, &successor, &uniform] {
            every_entry_is_the_published_walk(reference).unwrap();
        }
        let seeds = SeedTable::derive(&FmIndex::new(&poly_a));
        assert_eq!(seeds.depth(), 5);
        for j in 1..5 {
            assert!(seeds.read(&vec![a; j]).1, "A^{j}");
        }
        assert!(!seeds.read(&[a; 5]).1);
        let seeds = SeedTable::derive(&FmIndex::new(&successor));
        for j in 1..=5 {
            let ((low, high), corrected) = seeds.read(&unit[..j]);
            assert!(corrected, "{:?}", &unit[..j]);
            assert!(high - low >= (len / 5) as u32 - 1, "{:?}", &unit[..j]);
        }
        assert!(!seeds.read(&[c; 5]).1);
    }

    #[test]
    #[should_panic(expected = "no level 4")]
    fn a_level_beyond_the_depth_panics() {
        // 301 rows hold three levels (74 of their 75 bytes).
        let seeds = SeedTable::derive(&FmIndex::new(&genome::uniform(300, 1).to_packed()));
        let _ = seeds.interval(&[Base::A, Base::C, Base::G, Base::T]);
    }
}
