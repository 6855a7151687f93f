//! Analytic index-size model.
//!
//! Paper §III: after pre-computation "only BWT, Marker Table (MT), and SA
//! will be stored in the memory, which will consume ∼12GB of memory
//! space" for the 3.2 Gbp human genome. Building that index is out of
//! reach here, but its size is pure arithmetic — this model computes the
//! footprint of each table for any genome length and configuration, and
//! the test suite checks the paper's 12 GB claim directly.
//!
//! The model is also the scaling bridge for the laptop-scale experiments:
//! `FmIndex::size_bytes()` and the derived table's agree with it exactly
//! on indexes we *can* build (see the tests), so extrapolating it to
//! 3.2 Gbp is sound.
//!
//! Beyond the paper's three tables the footprint counts the
//! [`SeedTable`](crate::SeedTable) a platform derives when it maps the
//! index: its depth, and so its size, is [`seed_depth`] of the text
//! length and of nothing else.

/// Bytes-per-table breakdown of a stored FM-index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexFootprint {
    /// 2-bit packed BWT.
    pub bwt_bytes: usize,
    /// Marker table: 4 × u32 per bucket.
    pub marker_bytes: usize,
    /// Suffix array storage.
    pub sa_bytes: usize,
    /// The seed table of [`seed_depth`] levels (beyond the paper).
    pub seed_bytes: usize,
}

impl IndexFootprint {
    /// Total bytes.
    pub fn total_bytes(&self) -> usize {
        self.bwt_bytes + self.marker_bytes + self.sa_bytes + self.seed_bytes
    }

    /// Total in GiB.
    pub fn total_gib(&self) -> f64 {
        self.total_bytes() as f64 / (1u64 << 30) as f64
    }
}

/// Bytes of a seed table of `depth` levels: one `(low, high)` pair of
/// `u32`s for every `j`-mer, `1 ≤ j ≤ depth` — `8 · (4 + … + 4^depth)`.
pub fn seed_bytes(depth: usize) -> usize {
    8 * ((1usize << (2 * depth + 2)) - 4) / 3
}

/// The depth `k` of the seed table of a text of `text_len` symbols: the
/// largest whose table fits `text_len / 4` bytes, the size of the 2-bit
/// BWT — at most 0.25 B/bp, under 6 % of the index at the paper's full
/// suffix array and a fifth at one sampled 1 in 8; 0, no table, below 128
/// symbols. Each level deeper saves a descent one more interval step and
/// costs four times the bytes (EXPERIMENTS.md has the sweep).
pub fn seed_depth(text_len: usize) -> usize {
    let mut depth = 0;
    while seed_bytes(depth + 1) <= text_len / 4 {
        depth += 1;
    }
    depth
}

/// Computes the stored-table footprint for a reference of `genome_len`
/// bases with Occ bucket width `d` and a suffix array sampled every
/// `sa_rate` text positions (`1` = full SA, the paper's configuration).
///
/// # Panics
///
/// Panics if `d == 0` or `sa_rate == 0`.
///
/// # Examples
///
/// ```
/// use fmindex::size_model::footprint;
///
/// // The paper's configuration at human-genome scale: ~12 GB.
/// let hg = footprint(3_200_000_000, 128, 1);
/// assert!((11.0..15.0).contains(&hg.total_gib()));
/// ```
pub fn footprint(genome_len: usize, d: usize, sa_rate: usize) -> IndexFootprint {
    assert!(d > 0, "bucket width must be positive");
    assert!(sa_rate > 0, "SA sampling rate must be positive");
    let text_len = genome_len + 1; // sentinel
    let bwt_bytes = text_len.div_ceil(4);
    let buckets = text_len / d + 1;
    let marker_bytes = buckets * 4 * std::mem::size_of::<u32>();
    let sa_bytes = if sa_rate == 1 {
        text_len * 4
    } else {
        // A bit per row in u64 words, then a u32 per stored entry — the
        // layout io::save writes and SuffixArraySamples::size_bytes()
        // charges. Stored entries are the text positions divisible by
        // sa_rate in [0, text_len), i.e. ceil(text_len / sa_rate) of them.
        text_len.div_ceil(64) * 8 + text_len.div_ceil(sa_rate) * 4
    };
    IndexFootprint {
        bwt_bytes,
        marker_bytes,
        sa_bytes,
        seed_bytes: seed_bytes(seed_depth(text_len)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FmIndex, SaStorage, SeedTable};
    use bioseq::{Base, DnaSeq};

    #[test]
    fn paper_twelve_gigabyte_claim() {
        // 3.2 Gbp, d = 128 (one word line), full SA — the paper's setup.
        let hg19 = footprint(3_200_000_000, 128, 1);
        let gib = hg19.total_gib();
        assert!(
            (11.0..15.0).contains(&gib),
            "paper claims ~12 GB; model gives {gib:.1} GiB"
        );
        // The SA dominates (4 bytes/base vs 2 bits/base for BWT).
        assert!(hg19.sa_bytes > hg19.bwt_bytes);
        assert!(hg19.bwt_bytes > hg19.marker_bytes);
    }

    #[test]
    fn sampling_the_occ_table_reduces_it_by_d() {
        // Paper Fig. 2: "the table size is reduced by a factor of d".
        let full = footprint(1_000_000, 1, 1);
        let sampled = footprint(1_000_000, 128, 1);
        let ratio = full.marker_bytes as f64 / sampled.marker_bytes as f64;
        assert!((ratio - 128.0).abs() < 1.0, "reduction factor {ratio:.1}");
    }

    #[test]
    fn model_matches_built_index_exactly() {
        let reference: DnaSeq = (0..5_000)
            .map(|i| Base::from_rank((i * 7 + 1) % 4))
            .collect();
        for (d, rate) in [(128usize, 1u32), (64, 1), (128, 8)] {
            let index = FmIndex::builder()
                .bucket_width(d)
                .sa_storage(if rate == 1 {
                    SaStorage::Full
                } else {
                    SaStorage::Sampled(rate)
                })
                .build(&reference);
            let model = footprint(reference.len(), d, rate as usize);
            assert_eq!(
                index.size_bytes() + SeedTable::derive(&index).size_bytes(),
                model.total_bytes(),
                "model mismatch at d={d} rate={rate}"
            );
        }
    }

    #[test]
    fn seed_depth_follows_the_text_length() {
        // The benchmark's four genome sizes, and the edges of no table.
        // The table's budget went from N/64 to N/4 bytes, two levels
        // deeper at each: 4/5/5/6 → 6/7/7/8, and the first table from
        // 2 047 bases to 127.
        for (genome_len, depth) in [
            (200_000, 6),
            (1_000_000, 7),
            (2_000_000, 7),
            (8_000_000, 8),
            (126, 0),
            (127, 1),
        ] {
            assert_eq!(seed_depth(genome_len + 1), depth, "{genome_len} bp");
        }
        assert_eq!(seed_bytes(0), 0);
        assert_eq!(seed_bytes(4), 8 * (4 + 16 + 64 + 256));
        assert_eq!(seed_bytes(6), 43_680);
        assert_eq!(seed_bytes(8), 699_040);
        for genome_len in [200_000, 1_000_000, 2_000_000, 8_000_000, 3_200_000_000] {
            // Shares re-taken at N/4 (were 1/270 and 1/83): the least is
            // 1/20.6 of the full-SA index (3.2 Gbp) and 1/5.5 of the 1 in
            // 8 one (3.2 Gbp; 200 kbp 1/5.6).
            let model = footprint(genome_len, 128, 1);
            assert!(model.seed_bytes * 4 <= genome_len + 1);
            assert!(
                model.seed_bytes * 20 < model.total_bytes(),
                "{genome_len} bp"
            );
            let sampled = footprint(genome_len, 128, 8);
            assert!(
                sampled.seed_bytes * 5 < sampled.total_bytes(),
                "{genome_len} bp"
            );
        }
    }

    #[test]
    fn sa_sampling_shrinks_the_footprint() {
        let full = footprint(10_000_000, 128, 1);
        let sampled = footprint(10_000_000, 128, 32);
        // 32× fewer 4-byte values plus a bit a row (another 1/32 of the
        // full SA) nets a 16× saving, give or take a word of rounding.
        assert!(sampled.sa_bytes <= full.sa_bytes / 16 + 16);
        assert!(sampled.total_bytes() < full.total_bytes());
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_bucket_rejected() {
        let _ = footprint(1_000, 0, 1);
    }
}
