//! The seed table: the first `k` steps of every backward search, read
//! instead of walked.
//!
//! Every search starts from `[0, N)` and its first steps depend on
//! nothing but the read's last few bases, so the interval they reach is
//! a function of those bases alone. The table holds it for every
//! `j`-mer, `1 ≤ j ≤ k`, with `k` from
//! [`size_model::seed_depth`](crate::size_model::seed_depth): an
//! extension beyond the paper, derived from an index's BWT and marker
//! table when a platform maps it and stored in no artifact.

use bioseq::Base;

use crate::index::FmIndex;
use crate::size_model;

/// For every `j`-mer, `1 ≤ j ≤` [`SeedTable::depth`], the interval that
/// `j` steps of Algorithm 1 from `[0, N)` produce — `low == high` where
/// the `j`-mer does not occur.
///
/// # Examples
///
/// ```
/// use bioseq::DnaSeq;
/// use fmindex::{FmIndex, SeedTable};
///
/// let reference: DnaSeq = (0..4_000).map(|i| bioseq::Base::from_rank(i * i % 4)).collect();
/// let index = FmIndex::new(&reference);
/// let seeds = SeedTable::derive(&index);
/// // 4 001 rows hold 1 000 bytes of table: three levels (672 bytes).
/// assert_eq!(seeds.depth(), 3);
/// let c = index.backward_search(&"C".parse().unwrap()).unwrap();
/// assert_eq!(seeds.interval(&[bioseq::Base::C]), (c.low(), c.high()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedTable {
    depth: usize,
    /// Level `j` starts at [`level_start`]`(j)`; inside it a `j`-mer sits
    /// at its bases' ranks read as base-4 digits, last base first — the
    /// order backward search consumes them in.
    entries: Vec<(u32, u32)>,
}

/// Entries in the levels before `j`: `4 + … + 4^(j−1)`.
fn level_start(j: usize) -> usize {
    ((1usize << (2 * j)) - 4) / 3
}

impl SeedTable {
    /// Derives the table of `index`, level by level: an entry is its
    /// parent's — the `j`-mer less its first base — extended by that base
    /// with the two `LFM`s of one published interval step.
    pub fn derive(index: &FmIndex) -> SeedTable {
        let depth = size_model::seed_depth(index.text_len());
        let (mt, bwt) = (index.marker_table(), index.bwt());
        let mut entries = Vec::with_capacity(level_start(depth + 1));
        for j in 1..=depth {
            for parent in 0..1usize << (2 * (j - 1)) {
                let (low, high) = match j {
                    1 => (0, index.text_len() as u32),
                    _ => entries[level_start(j - 1) + parent],
                };
                for nt in Base::ALL {
                    entries.push((
                        mt.lfm(bwt, nt, low as usize),
                        mt.lfm(bwt, nt, high as usize),
                    ));
                }
            }
        }
        SeedTable { depth, entries }
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
        assert!(
            (1..=self.depth).contains(&kmer.len()),
            "no level {} in a seed table of depth {}",
            kmer.len(),
            self.depth
        );
        let key = kmer.iter().rev().fold(0, |key, nt| key * 4 + nt.rank());
        self.entries[level_start(kmer.len()) + key]
    }

    /// Bytes held: a pair of `u32`s an entry
    /// ([`size_model::seed_bytes`](crate::size_model::seed_bytes) of the
    /// depth).
    pub fn size_bytes(&self) -> usize {
        self.entries.len() * 2 * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{backward_step, SaInterval};
    use bioseq::DnaSeq;
    use proptest::prelude::*;
    use readsim::genome;

    /// Every entry at every level against `j` published steps from
    /// `[0, N)`, walked on through an empty interval as the table's
    /// derivation is.
    fn every_entry_is_the_published_walk(reference: &DnaSeq) -> Result<(), TestCaseError> {
        let index = FmIndex::builder().bucket_width(128).build(reference);
        let seeds = SeedTable::derive(&index);
        prop_assert_eq!(seeds.depth(), size_model::seed_depth(reference.len() + 1));
        prop_assert_eq!(seeds.size_bytes(), size_model::seed_bytes(seeds.depth()));
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

        /// No table under 127 bases, then one to five levels.
        #[test]
        fn entries_equal_the_published_walk_on_uniform_genomes(
            len in 1usize..50_000,
            seed in any::<u64>(),
        ) {
            every_entry_is_the_published_walk(&genome::uniform(len, seed))?;
        }

        /// Few distinct k-mers: most entries wide, many empty.
        #[test]
        fn entries_equal_the_published_walk_on_repeat_rich_genomes(
            unit in proptest::collection::vec(0usize..4, 1..40),
            len in 2_047usize..30_000,
        ) {
            let reference: DnaSeq =
                (0..len).map(|i| Base::from_rank(unit[i % unit.len()])).collect();
            every_entry_is_the_published_walk(&reference)?;
        }
    }

    #[test]
    fn a_genome_missing_most_kmers_has_empty_entries() {
        // Poly-A with one island: five levels (three before the table
        // grew from N/64 to N/4 bytes), and of 1 024 5-mers only those
        // the island spells or borders occur.
        let mut bases = vec![Base::A; 44_000];
        let island: DnaSeq = "CGTTGC".parse().unwrap();
        bases.splice(6_000..6_006, island.iter().copied());
        let reference = DnaSeq::from_bases(bases);
        every_entry_is_the_published_walk(&reference).unwrap();
        let seeds = SeedTable::derive(&FmIndex::new(&reference));
        assert_eq!(seeds.depth(), 5);
        let (low, high) = seeds.interval(&[Base::G, Base::G, Base::G]);
        assert!(low >= high);
        let (low, high) = seeds.interval(&[Base::A, Base::A, Base::A]);
        assert_eq!(high - low, 44_000 - 6 - 4);
        let (low, high) = seeds.interval(&[Base::A; 5]);
        assert_eq!(high - low, 44_000 - 6 - 8);
        let (low, high) = seeds.interval(&[Base::G, Base::C, Base::A, Base::A, Base::A]);
        assert_eq!(high - low, 1);
    }

    #[test]
    #[should_panic(expected = "no level 2")]
    fn a_level_beyond_the_depth_panics() {
        // 301 rows hold one level (32 of their 75 bytes).
        let seeds = SeedTable::derive(&FmIndex::new(&genome::uniform(300, 1)));
        let _ = seeds.interval(&[Base::A, Base::C]);
    }
}
