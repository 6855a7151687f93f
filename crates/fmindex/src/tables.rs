//! Pre-computed FM-index tables (paper Fig. 2).
//!
//! From the BWT we derive, in order:
//!
//! 1. [`CountTable`] — `Count(nt)`: how many symbols in the text are
//!    lexicographically smaller than `nt` ("only 4 elements for DNA");
//! 2. [`OccTable`] — the full FM-index: `Occ[i][nt]` = occurrences of `nt`
//!    in `BWT[0 .. i)`;
//! 3. [`SampledOcc`] — the Occ table check-pointed every `d` positions
//!    (bucket width), shrinking it by a factor of `d`;
//! 4. [`MarkerTable`] — element-wise `SampledOcc + Count`; its [`lfm`]
//!    procedure is the paper's hardware-friendly `LFM(MT, nt, id)`.
//!
//! [`lfm`]: MarkerTable::lfm

use bioseq::Base;

use crate::bwt::Bwt;

/// `Count(nt)`: the number of text symbols lexicographically smaller than
/// `nt`. Indexed by [`Base::rank`]; the sentinel contributes one count to
/// every base.
///
/// # Examples
///
/// ```
/// use bioseq::{Base, PackedSeq};
/// use fmindex::{suffix_array, Bwt, CountTable, Text};
///
/// # fn main() -> Result<(), bioseq::ParseSeqError> {
/// let reference: PackedSeq = "TGCTA".parse()?;
/// let text = Text::from_reference(&reference);
/// let bwt = Bwt::from_sa(&text, &suffix_array(&text));
/// let count = CountTable::from_bwt(&bwt);
/// // TGCTA$ holds: $(1) A(1) C(1) G(1) T(2)
/// assert_eq!(count.get(Base::A), 1); // only $ is smaller than A
/// assert_eq!(count.get(Base::T), 4); // $, A, C, G
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountTable {
    /// `counts[rank]` for base ranks 0..4.
    counts: [u32; 4],
}

impl CountTable {
    /// Accumulates symbol frequencies from the BWT (a permutation of the
    /// text, so frequencies match).
    pub fn from_bwt(bwt: &Bwt) -> CountTable {
        let mut counts = [0u32; 4];
        let mut sum = 1; // the sentinel precedes every base
        for (rank, slot) in counts.iter_mut().enumerate() {
            *slot = sum;
            sum += bwt.count_in_range(rank as u8 + 1, 0..bwt.len()) as u32;
        }
        CountTable { counts }
    }

    /// `Count(nt)` for a base.
    #[inline]
    pub fn get(&self, base: Base) -> u32 {
        self.counts[base.rank()]
    }

    /// All four counts in `A, C, G, T` order.
    pub fn as_array(&self) -> [u32; 4] {
        self.counts
    }
}

/// The full Occ table (FM-index): `occ(nt, i)` = occurrences of `nt` in
/// `BWT[0 .. i)`.
///
/// Size is `O(4·n)` words — the reason the paper down-samples it into
/// [`SampledOcc`]. The index never builds it: it is the Fig. 2
/// illustration and the exactness oracle of the tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccTable {
    /// Row-major: `cum[i * 4 + rank]`, `i` in `0 ..= n`.
    cum: Vec<u32>,
    len: usize,
}

impl OccTable {
    /// Builds the full prefix-count table from a BWT.
    pub fn from_bwt(bwt: &Bwt) -> OccTable {
        let n = bwt.len();
        let mut cum = Vec::with_capacity((n + 1) * 4);
        let mut running = [0u32; 4];
        cum.extend_from_slice(&running);
        for i in 0..n {
            let r = bwt.rank(i);
            if r > 0 {
                running[r as usize - 1] += 1;
            }
            cum.extend_from_slice(&running);
        }
        OccTable { cum, len: n }
    }

    /// Occurrences of `base` in `BWT[0 .. i)`.
    ///
    /// # Panics
    ///
    /// Panics if `i > bwt.len()`.
    #[inline]
    pub fn occ(&self, base: Base, i: usize) -> u32 {
        assert!(
            i <= self.len,
            "occ index {i} out of range (len {})",
            self.len
        );
        self.cum[i * 4 + base.rank()]
    }

    /// The BWT length the table covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// An Occ table always covers at least index 0.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// The Occ table sampled every `d` positions (paper: "it is sampled every
/// d positions (bucket width) … the table size is reduced by a factor of
/// d").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledOcc {
    /// Row-major: `samples[bucket * 4 + rank]` = `occ(rank, bucket·d)`.
    samples: Vec<u32>,
    bucket_width: usize,
    len: usize,
}

impl SampledOcc {
    /// Counts the check-points `occ(·, 0), occ(·, d), occ(·, 2d), …` up
    /// to and including the one at `⌊n/d⌋·d`, in one streaming pass over
    /// the BWT, a bucket's four bases by popcount — the full [`OccTable`]
    /// is never materialised.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width == 0`.
    pub fn from_bwt(bwt: &Bwt, bucket_width: usize) -> SampledOcc {
        assert!(bucket_width > 0, "bucket width must be positive");
        let n = bwt.len();
        let mut samples = Vec::with_capacity((n / bucket_width + 1) * 4);
        let mut running = [0u32; 4];
        samples.extend_from_slice(&running);
        for start in (0..n / bucket_width).map(|b| b * bucket_width) {
            for (rank, occ) in (1..).zip(&mut running) {
                *occ += bwt.count_in_range(rank, start..start + bucket_width) as u32;
            }
            samples.extend_from_slice(&running);
        }
        SampledOcc {
            samples,
            bucket_width,
            len: n,
        }
    }

    /// The bucket width `d`.
    pub fn bucket_width(&self) -> usize {
        self.bucket_width
    }

    /// Number of check-points stored.
    pub fn buckets(&self) -> usize {
        self.samples.len() / 4
    }

    /// The sampled value `occ(base, bucket · d)`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket >= self.buckets()`.
    #[inline]
    pub fn sample(&self, base: Base, bucket: usize) -> u32 {
        self.samples[bucket * 4 + base.rank()]
    }

    /// The BWT length the table covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Sampled tables always hold bucket 0.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// The Marker Table: `MT[bucket][nt] = Count(nt) + SampledOcc[bucket][nt]`
/// (paper Fig. 2: "MT is constructed by element-wise addition of Sampled
/// Occ-table with Count(nt)").
///
/// `MT` directly holds "the matched position of the nucleotides in BWT in
/// the First Column", so a backward-search bound update needs only one
/// marker read plus an occurrence count over the current bucket — the
/// `LFM` procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkerTable {
    /// Row-major: `markers[bucket * 4 + rank]`.
    markers: Vec<u32>,
    bucket_width: usize,
    len: usize,
}

impl MarkerTable {
    /// Element-wise sum of the sampled Occ table and the Count table.
    pub fn new(count: &CountTable, sampled: &SampledOcc) -> MarkerTable {
        let mut markers = Vec::with_capacity(sampled.buckets() * 4);
        for b in 0..sampled.buckets() {
            for base in Base::ALL {
                markers.push(count.get(base) + sampled.sample(base, b));
            }
        }
        MarkerTable {
            markers,
            bucket_width: sampled.bucket_width(),
            len: sampled.len(),
        }
    }

    /// The bucket width `d`.
    pub fn bucket_width(&self) -> usize {
        self.bucket_width
    }

    /// Number of marker rows.
    pub fn buckets(&self) -> usize {
        self.markers.len() / 4
    }

    /// The stored marker `Count(base) + occ(base, bucket · d)`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket >= self.buckets()`.
    #[inline]
    pub fn marker(&self, base: Base, bucket: usize) -> u32 {
        self.markers[bucket * 4 + base.rank()]
    }

    /// Every marker, row-major (`bucket * 4 + rank`) — the serialised
    /// order.
    pub(crate) fn as_words(&self) -> &[u32] {
        &self.markers
    }

    /// The hardware-friendly `LFM(MT, nt, id)` procedure (paper §III,
    /// Algorithm 1 line 9): the updated interval bound
    /// `Count(nt) + occ(nt, id)`, computed as
    ///
    /// ```text
    /// marker  = MT[id / d][nt]                       (MEM)
    /// matches = count(nt, BWT[d·(id/d) .. id])       (XNOR_Match + popcount)
    /// result  = marker + matches                      (IM_ADD)
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `id > bwt.len()`.
    pub fn lfm(&self, bwt: &Bwt, nt: Base, id: usize) -> u32 {
        assert!(id <= bwt.len(), "LFM index {id} out of range");
        let bucket = id / self.bucket_width;
        let checkpoint = bucket * self.bucket_width;
        let marker = self.marker(nt, bucket);
        let sym = nt.rank() as u8 + 1; // text-alphabet rank
        let matches = bwt.count_in_range(sym, checkpoint..id) as u32;
        marker + matches
    }

    /// Estimated memory footprint in bytes (4 × u32 per bucket) — used for
    /// the off-chip-memory accounting of Fig. 10a.
    pub fn size_bytes(&self) -> usize {
        self.markers.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sa::suffix_array;
    use crate::text::Text;
    use bioseq::PackedSeq;
    use proptest::prelude::*;

    fn setup(s: &str, d: usize) -> (Bwt, CountTable, OccTable, SampledOcc, MarkerTable) {
        let reference: PackedSeq = s.parse().unwrap();
        let t = Text::from_reference(&reference);
        let sa = suffix_array(&t);
        let bwt = Bwt::from_sa(&t, &sa);
        let count = CountTable::from_bwt(&bwt);
        let occ = OccTable::from_bwt(&bwt);
        let sampled = SampledOcc::from_bwt(&bwt, d);
        let mt = MarkerTable::new(&count, &sampled);
        (bwt, count, occ, sampled, mt)
    }

    #[test]
    fn count_table_paper_example() {
        let (_, count, ..) = setup("TGCTA", 2);
        assert_eq!(count.as_array(), [1, 2, 3, 4]);
    }

    #[test]
    fn occ_prefix_counts() {
        // BWT(TGCTA$) = ATGTC$
        let (_, _, occ, ..) = setup("TGCTA", 2);
        assert_eq!(occ.occ(Base::A, 0), 0);
        assert_eq!(occ.occ(Base::A, 1), 1);
        assert_eq!(occ.occ(Base::T, 4), 2);
        assert_eq!(occ.occ(Base::C, 6), 1);
        assert_eq!(occ.occ(Base::G, 6), 1);
    }

    #[test]
    fn occ_is_monotone_and_bounded() {
        let (bwt, _, occ, ..) = setup("GATTACAGATTACA", 4);
        for base in Base::ALL {
            let mut prev = 0;
            for i in 0..=bwt.len() {
                let v = occ.occ(base, i);
                assert!(v >= prev && v <= i as u32);
                prev = v;
            }
        }
    }

    #[test]
    fn sampled_matches_full_at_checkpoints() {
        // 20 bases + sentinel = 21 rows: d = 3 and 7 divide it (the
        // final check-point sits at n itself), 1 samples every row, 4
        // leaves a partial last bucket, 128 keeps only check-point 0.
        for d in [1, 3, 4, 7, 21, 128] {
            let (bwt, _, occ, sampled, _) = setup("GATTACAGATTACAGGGTTT", d);
            assert_eq!(sampled.buckets(), bwt.len() / d + 1, "d = {d}");
            for b in 0..sampled.buckets() {
                for base in Base::ALL {
                    assert_eq!(sampled.sample(base, b), occ.occ(base, b * d), "d = {d}");
                }
            }
        }
    }

    #[test]
    fn sampled_size_reduction() {
        let (bwt, _, _, sampled, _) = setup(&"ACGT".repeat(64), 128);
        assert_eq!(sampled.buckets(), bwt.len() / 128 + 1);
    }

    #[test]
    fn marker_is_count_plus_sample() {
        let (_, count, _, sampled, mt) = setup("TGCTAACG", 2);
        for b in 0..mt.buckets() {
            for base in Base::ALL {
                assert_eq!(
                    mt.marker(base, b),
                    count.get(base) + sampled.sample(base, b)
                );
            }
        }
    }

    #[test]
    fn lfm_equals_count_plus_occ() {
        let (bwt, count, occ, _, mt) = setup("TGCTAACGTTGCAGT", 4);
        for id in 0..=bwt.len() {
            for base in Base::ALL {
                assert_eq!(
                    mt.lfm(&bwt, base, id),
                    count.get(base) + occ.occ(base, id),
                    "LFM mismatch at id={id} base={base}"
                );
            }
        }
    }

    #[test]
    fn lfm_with_bucket_width_one_needs_no_scan() {
        let (bwt, count, occ, _, mt) = setup("ACGTACGT", 1);
        for id in 0..=bwt.len() {
            for base in Base::ALL {
                assert_eq!(mt.lfm(&bwt, base, id), count.get(base) + occ.occ(base, id));
            }
        }
    }

    #[test]
    #[should_panic(expected = "bucket width must be positive")]
    fn zero_bucket_width_rejected() {
        let (bwt, ..) = setup("ACGT", 2);
        let _ = SampledOcc::from_bwt(&bwt, 0);
    }

    proptest! {
        #[test]
        fn lfm_matches_oracle(
            bases in proptest::collection::vec(0u8..4, 1..150),
            d in 1usize..40,
        ) {
            let seq: PackedSeq = bases.iter().map(|&r| Base::from_rank(r as usize)).collect();
            let t = Text::from_reference(&seq);
            let sa = suffix_array(&t);
            let bwt = Bwt::from_sa(&t, &sa);
            let count = CountTable::from_bwt(&bwt);
            let occ = OccTable::from_bwt(&bwt);
            let sampled = SampledOcc::from_bwt(&bwt, d);
            for b in 0..sampled.buckets() {
                for base in Base::ALL {
                    prop_assert_eq!(sampled.sample(base, b), occ.occ(base, b * d));
                }
            }
            let mt = MarkerTable::new(&count, &sampled);
            for id in 0..=bwt.len() {
                for base in Base::ALL {
                    prop_assert_eq!(mt.lfm(&bwt, base, id), count.get(base) + occ.occ(base, id));
                }
            }
        }
    }
}
