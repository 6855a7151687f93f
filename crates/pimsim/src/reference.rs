//! The pre-packing boolean-matrix `XNOR_Match` kernel, kept as a
//! reference implementation.
//!
//! Before the bit-plane packing (DESIGN.md §11) the sub-array stored its
//! rows as `Vec<Vec<bool>>` and `XNOR_Match` allocated a fresh 128-entry
//! `Vec<bool>` per call, comparing the two interleaved bit lanes of every
//! base position one boolean at a time. That representation is preserved
//! here, bit-for-bit, as the oracle of the property tests: they prove
//! the packed kernel agrees with this one over random rows, lengths,
//! sentinel positions, stuck cells, and fault seeds — the packed rewrite
//! is an *optimisation*, not a behaviour change.
//!
//! The same goes for the vertical marker table: the packed sub-array
//! holds each marker as one word, and this reference keeps the 128
//! boolean MT rows and gathers a marker from them bit by bit, so a stuck
//! MT cell has an oracle too.
//!
//! Both kernels charge the same [`LogicalOp`]s: the cycle model prices
//! logical operations, not host-side data structures.

use bioseq::Base;
use mram::array::ArrayModel;

use crate::costs::LogicalOp;
use crate::ledger::CycleLedger;
use crate::subarray::SubArrayLayout;

/// The boolean-matrix sub-array as it existed before bit-plane packing:
/// BWT, `CRef` and MT zones (`IM_ADD` scratch is not modelled).
///
/// # Examples
///
/// ```
/// use pimsim::reference::BoolSubArray;
/// use pimsim::CycleLedger;
///
/// let mut sa = BoolSubArray::new(mram::array::ArrayModel::default());
/// let mut ledger = CycleLedger::new();
/// sa.load_cref_rows(&mut ledger);
/// sa.load_bwt_row(0, &[0b00, 0b10], &mut ledger);
/// let matches = sa.xnor_match(0, bioseq::Base::A, &mut ledger);
/// assert_eq!(&matches[..2], &[false, true]);
/// ```
#[derive(Debug, Clone)]
pub struct BoolSubArray {
    model: ArrayModel,
    /// Interleaved per-row booleans: base `j`'s low bit at column `2j`,
    /// high bit at column `2j + 1`.
    bwt: Vec<Vec<bool>>,
    cref: Vec<Vec<bool>>,
    /// The MT zone row by row: row `32b + k` holds bit `k` of base rank
    /// `b`'s marker in every bucket column.
    mt: Vec<Vec<bool>>,
    /// Bases the BWT zone holds, as [`SubArray`](crate::SubArray) counts
    /// them.
    bwt_len: usize,
}

impl BoolSubArray {
    /// An empty boolean sub-array with the paper layout's BWT capacity.
    pub fn new(model: ArrayModel) -> BoolSubArray {
        let layout = SubArrayLayout::paper();
        let cols = model.geometry().cols;
        BoolSubArray {
            model,
            bwt: vec![vec![false; cols]; layout.buckets()],
            cref: vec![vec![false; cols]; 4],
            mt: vec![vec![false; cols]; layout.mt_rows.len()],
            bwt_len: 0,
        }
    }

    /// Loads up to 128 2-bit base codes into bucket row `bucket`,
    /// touching only the first `2 × codes.len()` columns (the partial-
    /// write semantics the packed kernel must reproduce). Rows are loaded
    /// in order: the zone's bases end with this row's.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is out of range or more than 128 codes are
    /// given.
    pub fn load_bwt_row(&mut self, bucket: usize, codes: &[u8], ledger: &mut CycleLedger) {
        assert!(bucket < self.bwt.len(), "bucket {bucket} out of range");
        assert!(
            codes.len() <= SubArrayLayout::BASES_PER_ROW,
            "at most 128 bases per row"
        );
        let row = &mut self.bwt[bucket];
        for (j, &code) in codes.iter().enumerate() {
            row[2 * j] = code & 0b01 != 0;
            row[2 * j + 1] = code & 0b10 != 0;
        }
        self.bwt_len = bucket * SubArrayLayout::BASES_PER_ROW + codes.len();
        LogicalOp::RowWrite.charge(&self.model, ledger);
    }

    /// Initialises the four `CRef` rows (each base's 2-bit code repeated
    /// across the word line).
    pub fn load_cref_rows(&mut self, ledger: &mut CycleLedger) {
        for base in Base::ALL {
            let code = base.code();
            let row = &mut self.cref[base.rank()];
            for j in 0..SubArrayLayout::BASES_PER_ROW {
                row[2 * j] = code & 0b01 != 0;
                row[2 * j + 1] = code & 0b10 != 0;
            }
            LogicalOp::RowWrite.charge(&self.model, ledger);
        }
    }

    /// Stores marker word `value` for `base` of bucket-column `bucket`:
    /// one boolean in each of the base's 32 MT rows. Charges what
    /// [`SubArray::store_marker`](crate::SubArray::store_marker) does.
    pub fn store_marker(
        &mut self,
        bucket: usize,
        base: Base,
        value: u32,
        ledger: &mut CycleLedger,
    ) {
        for k in 0..32 {
            self.mt[32 * base.rank() + k][bucket] = (value >> k) & 1 == 1;
        }
        LogicalOp::RowWrite.charge(&self.model, ledger);
    }

    /// Gathers the marker word for `base` of bucket-column `bucket` from
    /// its 32 MT rows. Charges what
    /// [`SubArray::read_marker`](crate::SubArray::read_marker) does.
    pub fn read_marker(&self, bucket: usize, base: Base, ledger: &mut CycleLedger) -> u32 {
        LogicalOp::MarkerRead.charge(&self.model, ledger);
        (0..32).fold(0, |acc, k| {
            acc | u32::from(self.mt[32 * base.rank() + k][bucket]) << k
        })
    }

    /// Forces the cell at `(row, col)` of a BWT or MT row — the stuck-at
    /// hook, mirroring [`SubArray::force_bit`](crate::SubArray::force_bit)
    /// for the rows this reference models.
    ///
    /// # Panics
    ///
    /// Panics if `row` is a `CRef` or reserved row.
    pub fn force_bit(&mut self, row: usize, col: usize, value: bool) {
        let layout = SubArrayLayout::paper();
        if layout.bwt_rows.contains(&row) {
            self.bwt[row - layout.bwt_rows.start][col] = value;
        } else if layout.mt_rows.contains(&row) {
            self.mt[row - layout.mt_rows.start][col] = value;
        } else {
            panic!("row {row} is not modelled");
        }
    }

    /// The original per-boolean `XNOR_Match`: allocates and returns a
    /// fresh 128-entry match vector, comparing both interleaved bit
    /// lanes of every position. Positions past the loaded length are
    /// `false`. Charges the same [`LogicalOp::XnorMatch`] as the packed
    /// kernel.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is out of range.
    pub fn xnor_match(&self, bucket: usize, base: Base, ledger: &mut CycleLedger) -> Vec<bool> {
        assert!(bucket < self.bwt.len(), "bucket {bucket} out of range");
        let row = &self.bwt[bucket];
        let cref = &self.cref[base.rank()];
        let len = crate::subarray::row_len(self.bwt_len, bucket);
        LogicalOp::XnorMatch.charge(&self.model, ledger);
        (0..SubArrayLayout::BASES_PER_ROW)
            .map(|j| j < len && row[2 * j] == cref[2 * j] && row[2 * j + 1] == cref[2 * j + 1])
            .collect()
    }
}

/// One reference-kernel `LFM` compare stage exactly as the pre-packing
/// hot path executed it: `XNOR_Match` (fresh `Vec<bool>`), sentinel
/// masking by assignment, optional seeded faults through the boolean
/// APIs, then a per-bool prefix scan. Returns `count_match`.
///
/// The packed equivalent is
/// [`packed_compare_stage`]; the property tests pin their outputs
/// equal.
pub fn reference_compare_stage(
    sa: &BoolSubArray,
    bucket: usize,
    base: Base,
    sentinel: Option<usize>,
    within: usize,
    injector: Option<&mut crate::FaultInjector>,
    ledger: &mut CycleLedger,
) -> u32 {
    let mut matches = sa.xnor_match(bucket, base, ledger);
    if let Some(pos) = sentinel {
        matches[pos] = false;
    }
    LogicalOp::Popcount.charge(&sa.model, ledger);
    if let Some(injector) = injector {
        injector.transient_row_fault(&mut matches);
        injector.corrupt_match_bits(&mut matches[..within]);
    }
    matches[..within].iter().filter(|&&m| m).count() as u32
}

/// The packed-kernel compare stage with identical logical structure and
/// ledger charges: word-parallel `XNOR_Match` into a stack
/// [`MatchMask`](crate::MatchMask), sentinel clear, then the aligner's
/// own reading of the mask, [`MatchMask::sense`](crate::MatchMask::sense)
/// — optional faults and the masked-popcount prefix. Returns
/// `count_match`.
pub fn packed_compare_stage(
    sa: &crate::SubArray,
    bucket: usize,
    base: Base,
    sentinel: Option<usize>,
    within: usize,
    injector: Option<&mut crate::FaultInjector>,
    ledger: &mut CycleLedger,
) -> u32 {
    let mut matches = sa.xnor_match(bucket, base, ledger);
    if let Some(pos) = sentinel {
        matches.set(pos, false);
    }
    LogicalOp::Popcount.charge(sa.model(), ledger);
    matches.sense(within, 0, injector).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_match_vector_is_the_scalar_oracle() {
        let mut sa = BoolSubArray::new(ArrayModel::default());
        let mut ledger = CycleLedger::new();
        sa.load_cref_rows(&mut ledger);
        let codes: Vec<u8> = (0..100).map(|i| ((i * 13 + 1) % 4) as u8).collect();
        sa.load_bwt_row(0, &codes, &mut ledger);
        for base in Base::ALL {
            let m = sa.xnor_match(0, base, &mut ledger);
            assert_eq!(m.len(), 128);
            for (j, &hit) in m.iter().enumerate() {
                let expected = j < codes.len() && codes[j] == base.code();
                assert_eq!(hit, expected, "position {j} base {base}");
            }
        }
    }

    #[test]
    fn compare_stage_counts_the_prefix() {
        let mut sa = BoolSubArray::new(ArrayModel::default());
        let mut ledger = CycleLedger::new();
        sa.load_cref_rows(&mut ledger);
        sa.load_bwt_row(0, &[0b10; 10], &mut ledger);
        let count = reference_compare_stage(&sa, 0, Base::A, Some(3), 10, None, &mut ledger);
        assert_eq!(count, 9, "all ten match, sentinel at 3 masked out");
    }
}
