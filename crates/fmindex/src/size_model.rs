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

use crate::packed::{bits_for, words_for};

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

/// Bytes of a seed table of `depth` levels over a text of `text_len`
/// symbols: `4^depth + 1` boundaries, each as wide as `text_len` needs
/// (`⌈log₂(text_len + 1)⌉` bits), packed — `⌈(4^depth + 1) · bits / 8⌉`;
/// 0 for no table.
pub fn seed_bytes(depth: usize, text_len: usize) -> usize {
    match depth {
        0 => 0,
        k => (((1usize << (2 * k)) + 1) * bits_for(text_len as u64) as usize).div_ceil(8),
    }
}

/// The depth `k` of the seed table of a text of `text_len` symbols: the
/// largest whose table fits `text_len / 4` bytes, the size of the 2-bit
/// BWT — at most 0.25 B/bp, under 1/24 of the index at the paper's full
/// suffix array and a quarter at one sampled 1 in 8; 0, no table, below
/// 12 symbols. Each level deeper saves a descent one more interval step and
/// costs four times the bytes (EXPERIMENTS.md has the sweep).
pub fn seed_depth(text_len: usize) -> usize {
    let mut depth = 0;
    while seed_bytes(depth + 1, text_len) <= text_len / 4 {
        depth += 1;
    }
    depth
}

/// Bytes of a suffix array sampled every `sa_rate` text positions over a
/// text of `text_len` symbols: the row bitmap in `u64` words, then the
/// `⌈text_len / sa_rate⌉` kept values, each stored as `value / sa_rate` in
/// the bits `⌊(text_len − 1) / sa_rate⌋` needs, packed into `u64` words —
/// the layout [`io::save`](crate::io::save) writes and
/// [`SuffixArraySamples::size_bytes`](crate::SuffixArraySamples::size_bytes)
/// charges.
pub fn sampled_sa_bytes(text_len: usize, sa_rate: usize) -> usize {
    let width = bits_for(((text_len.max(1) - 1) / sa_rate) as u64);
    text_len.div_ceil(64) * 8 + words_for(text_len.div_ceil(sa_rate), width) * 8
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
    let sa_bytes = match sa_rate {
        1 => text_len * 4,
        rate => sampled_sa_bytes(text_len, rate),
    };
    IndexFootprint {
        bwt_bytes,
        marker_bytes,
        sa_bytes,
        seed_bytes: seed_bytes(seed_depth(text_len), text_len),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FmIndex, SaStorage, SeedTable};
    use bioseq::{Base, PackedSeq};

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
        let reference: PackedSeq = (0..5_000)
            .map(|i| Base::from_rank((i * 7 + 1) % 4))
            .collect();
        for (d, rate) in [
            (128usize, 1u32),
            (64, 1),
            (128, 2),
            (128, 3),
            (128, 8),
            (128, 64),
        ] {
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
        // One packed boundary a k-mer, in place of a (low, high) pair of
        // u32s at every level, buys a level at each: 6/7/7/8 → 7/8/8/9,
        // and the first table from 127 bases to 11.
        for (genome_len, depth, bytes) in [
            (200_000, 7, 36_867),
            (1_000_000, 8, 163_843),
            (2_000_000, 8, 172_035),
            (8_000_000, 9, 753_667),
            (10, 0, 0),
            (11, 1, 3),
        ] {
            let text_len = genome_len + 1;
            assert_eq!(seed_depth(text_len), depth, "{genome_len} bp");
            assert_eq!(seed_bytes(depth, text_len), bytes, "{genome_len} bp");
        }
        // A level deeper at 1 Mbp: 0.66 B/bp, over two BWTs.
        assert_eq!(seed_bytes(9, 1_000_001), 655_363);
        assert_eq!(seed_bytes(0, 1_000_001), 0);
        assert_eq!(seed_bytes(4, 4_001), (257 * 12usize).div_ceil(8));
        for genome_len in [200_000, 1_000_000, 2_000_000, 8_000_000, 3_200_000_000] {
            // Shares re-taken with the boundaries and the sampled values
            // packed (were 1/20 and 1/5): the most is 1/24.7 of the
            // full-SA index and 1/4.98 of the 1 in 8 one, both at 200 kbp.
            let model = footprint(genome_len, 128, 1);
            assert!(model.seed_bytes * 4 <= genome_len + 1);
            assert!(
                model.seed_bytes * 24 < model.total_bytes(),
                "{genome_len} bp"
            );
            let sampled = footprint(genome_len, 128, 8);
            assert!(
                sampled.seed_bytes * 4 < sampled.total_bytes(),
                "{genome_len} bp"
            );
        }
    }

    /// The sampled suffix array's bytes at the benchmark's rate: a bit a
    /// row and, for every eighth position, `v / 8` in the bits
    /// `⌊(rows − 1) / 8⌋` needs — 17 at 1 Mbp, where `u32`s held 32.
    #[test]
    fn sampled_values_are_as_wide_as_the_largest() {
        let rows = 1_000_001;
        assert_eq!(
            sampled_sa_bytes(rows, 8),
            rows.div_ceil(64) * 8 + (125_001 * 17usize).div_ceil(64) * 8
        );
        // ⌊(rows − 1) / rate⌋ at 2^w − 1 and at 2^w: one bit more.
        // 512 values of 9 bits; 513 of 10.
        assert_eq!(sampled_sa_bytes(4_089, 8), 64 * 8 + 72 * 8);
        assert_eq!(sampled_sa_bytes(4_097, 8), 65 * 8 + 81 * 8);
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
