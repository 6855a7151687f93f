//! The computational sub-array: functional bit storage plus the three
//! bulk primitives, laid out per Fig. 6a.
//!
//! Storage is bit-packed (DESIGN.md §11): every 256-column row is four
//! `u64` words holding the two bit-planes of the 2-bit base encoding, so
//! the `XNOR_Match` primitive is evaluated word-parallel — a handful of
//! XOR/AND/NOT word operations instead of a 128-iteration boolean scan —
//! and returns a stack-allocated [`MatchMask`]. The vertical marker
//! table is held as the 32-bit words it stores, one per (bucket column,
//! base), so a marker `MEM` is one load. The cycle/energy charges are
//! unchanged: the ledger prices *logical operations*, which are
//! representation-independent.

use std::ops::Range;

use mram::array::{ArrayModel, SubArrayGeometry};
use mram::sense::{SenseAmp, SenseMode};

use crate::costs::LogicalOp;
use crate::faults::FaultInjector;
use crate::ledger::CycleLedger;

/// The Fig. 6a zone partitioning of a 512×256 sub-array:
///
/// * 256 rows of BWT, 128 bases (2 bits each) per row — one Occ bucket
///   per row;
/// * 4 `CRef` rows, one per nucleotide, holding the base's 2-bit code
///   repeated across the word line;
/// * 128 rows of vertically stored markers: each *column* holds the four
///   32-bit markers (A, C, G, T) of one bucket;
/// * 124 reserved rows of `IM_ADD` scratch (operands, sum, carry),
///   modelled but not held: [`im_add32`] reads no stored row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubArrayLayout {
    /// Rows holding BWT buckets.
    pub bwt_rows: Range<usize>,
    /// The four computational-reference rows.
    pub cref_rows: Range<usize>,
    /// Rows of the vertical marker table.
    pub mt_rows: Range<usize>,
    /// Scratch rows for in-memory addition.
    pub reserved_rows: Range<usize>,
}

impl SubArrayLayout {
    /// Bases per BWT row (= the Occ bucket width `d`).
    pub const BASES_PER_ROW: usize = 128;

    /// The paper's partitioning of the 512-row sub-array.
    pub fn paper() -> SubArrayLayout {
        SubArrayLayout {
            bwt_rows: 0..256,
            cref_rows: 256..260,
            mt_rows: 260..388,
            reserved_rows: 388..512,
        }
    }

    /// Number of BWT buckets this sub-array holds.
    pub fn buckets(&self) -> usize {
        self.bwt_rows.len()
    }

    /// Validates the layout against a geometry.
    ///
    /// # Panics
    ///
    /// Panics if zones overlap, exceed the geometry, or the MT zone is
    /// not four 32-bit words per column.
    pub fn validate(&self, geometry: SubArrayGeometry) {
        assert!(self.bwt_rows.end <= self.cref_rows.start);
        assert!(self.cref_rows.end <= self.mt_rows.start);
        assert!(self.mt_rows.end <= self.reserved_rows.start);
        assert!(self.reserved_rows.end <= geometry.rows);
        assert_eq!(self.cref_rows.len(), 4, "one CRef row per nucleotide");
        let rows = self.mt_rows.len();
        assert_eq!(rows, 4 * 32, "MT zone must be 4 × 32-bit vertical words");
    }
}

/// `u64` words per packed 256-column row.
const WORDS_PER_ROW: usize = 4;

/// One packed row: words 0..2 hold bit-plane 0 (the low bit of each of
/// the 128 base codes, base `j` at plane bit `j`), words 2..4 hold
/// bit-plane 1 (the high bits).
type PackedRow = [u64; WORDS_PER_ROW];

/// Physical bit position of logical column `col` inside a packed row.
///
/// The logical column space is the paper's interleaved word line (base
/// `j`'s low bit at column `2j`, high bit at column `2j + 1`); physically
/// the planes are stored contiguously so `XNOR_Match` needs no bit
/// de-interleaving. The mapping is a fixed bijection applied uniformly to
/// every packed row, so stuck-at coordinates stay self-consistent.
#[inline]
fn col_bit(col: usize) -> usize {
    (col >> 1) + ((col & 1) << 7)
}

/// The word-parallel result of one `XNOR_Match`: bit `j` set means the
/// base stored at position `j` of the bucket equals the compared base.
/// Stack-allocated — the `LFM` hot path never touches the heap.
///
/// # Examples
///
/// ```
/// use pimsim::MatchMask;
///
/// let mut m = MatchMask::default();
/// m.set(3, true);
/// m.set(100, true);
/// assert_eq!(m.count_ones(), 2);
/// assert_eq!(m.count_prefix(100), 1); // bits strictly below 100
/// assert!(m.get(3) && !m.get(4));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchMask(pub [u64; 2]);

impl MatchMask {
    /// Match-vector width (= the Occ bucket width `d`).
    pub const BITS: usize = SubArrayLayout::BASES_PER_ROW;

    /// Word masks selecting the bits strictly below position `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 128`.
    #[inline]
    pub fn prefix_words(n: usize) -> [u64; 2] {
        assert!(n <= Self::BITS, "prefix {n} out of range");
        match n {
            0..=63 => [(1u64 << n) - 1, 0],
            64 => [!0, 0],
            65..=127 => [!0, (1u64 << (n - 64)) - 1],
            _ => [!0, !0],
        }
    }

    /// The bit at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 128`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < Self::BITS, "match bit {i} out of range");
        (self.0[i >> 6] >> (i & 63)) & 1 == 1
    }

    /// Sets the bit at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 128`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < Self::BITS, "match bit {i} out of range");
        let (w, b) = (i >> 6, i & 63);
        if value {
            self.0[w] |= 1 << b;
        } else {
            self.0[w] &= !(1 << b);
        }
    }

    /// Flips the bit at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 128`.
    #[inline]
    pub fn flip(&mut self, i: usize) {
        assert!(i < Self::BITS, "match bit {i} out of range");
        self.0[i >> 6] ^= 1 << (i & 63);
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> u32 {
        self.0[0].count_ones() + self.0[1].count_ones()
    }

    /// Number of set bits strictly below position `n` — the `LFM` prefix
    /// popcount, evaluated as one masked `count_ones` of the 128-bit word:
    /// it runs once or twice per `LFM`, and a shift costs the host less
    /// than [`MatchMask::prefix_words`]' branch on which half `n` is in.
    ///
    /// # Panics
    ///
    /// Panics if `n > 128`.
    #[inline]
    pub fn count_prefix(&self, n: usize) -> u32 {
        assert!(n <= Self::BITS, "prefix {n} out of range");
        let bits = u128::from(self.0[0]) | u128::from(self.0[1]) << 64;
        let below = u128::MAX.checked_shr((Self::BITS - n) as u32).unwrap_or(0);
        (bits & below).count_ones()
    }

    /// The DPU's reading of one `LFM`'s match mask: the matches before
    /// column `within`, and the matches in the `span` columns from
    /// `within` on — the second bound of a word-line interval step; `span`
    /// is 0 for any other `LFM`. Under an active campaign the reading is
    /// taken from this copy of the mask, faulted with what one `LFM` draws
    /// (DESIGN.md §8, §15.2): one transient-row decision, then one misread
    /// draw per column sensed, `within + span` of them. The mask APIs draw
    /// the RNG stream of the boolean ones, so seeded replays do not depend
    /// on the packing.
    #[inline]
    pub fn sense(
        mut self,
        within: usize,
        span: usize,
        injector: Option<&mut FaultInjector>,
    ) -> (u32, u32) {
        if let Some(injector) = injector.filter(|i| i.is_active()) {
            injector.transient_row_mask(&mut self);
            injector.corrupt_match_mask(&mut self, within + span);
        }
        let prefix = self.count_prefix(within);
        (prefix, self.count_prefix(within + span) - prefix)
    }

    /// The mask as 128 booleans (test/reference interop; not used on the
    /// hot path).
    pub fn to_bools(&self) -> Vec<bool> {
        (0..Self::BITS).map(|i| self.get(i)).collect()
    }

    /// Builds a mask from up to 128 booleans (test/reference interop).
    ///
    /// # Panics
    ///
    /// Panics if more than 128 bits are given.
    pub fn from_bools(bits: &[bool]) -> MatchMask {
        assert!(bits.len() <= Self::BITS, "at most 128 match bits");
        let mut mask = MatchMask::default();
        for (i, &b) in bits.iter().enumerate() {
            if b {
                mask.0[i >> 6] |= 1 << (i & 63);
            }
        }
        mask
    }
}

/// One computational sub-array: functional contents plus the bulk
/// primitives of §IV-B, each charged to a [`CycleLedger`].
///
/// Functional results are produced by direct word-parallel boolean
/// evaluation for speed; the test suite proves every primitive agrees
/// with the [`SenseAmp`] circuit model bit-for-bit and with the scalar
/// [`reference`](crate::reference) kernel.
///
/// # Examples
///
/// ```
/// use pimsim::{CycleLedger, SubArray};
///
/// let mut sa = SubArray::new(mram::array::ArrayModel::default());
/// let mut ledger = CycleLedger::new();
/// // Load the paper's 2-bit codes for bases T,G,A,C into bucket row 0.
/// sa.load_bwt_row(0, &[0b00, 0b01, 0b10, 0b11], &mut ledger);
/// sa.load_cref_rows(&mut ledger);
/// // Compare against base A (code 0b10): exactly one position matches.
/// let matches = sa.xnor_match(0, bioseq::Base::A, &mut ledger);
/// assert_eq!(matches.count_ones(), 1);
/// assert!(matches.get(2));
/// ```
#[derive(Debug, Clone)]
pub struct SubArray {
    model: ArrayModel,
    layout: SubArrayLayout,
    /// Row-major packed bit matrix of the BWT and `CRef` zones (see
    /// [`col_bit`] for the column mapping); the MT zone is `markers`, and
    /// the `IM_ADD` scratch zone is not held ([`SubArray::packed_index`]).
    rows: Vec<PackedRow>,
    /// The MT zone, held once as the words it stores: `markers[4c + b]`
    /// is the marker of base rank `b` in bucket column `c`, and bit `k`
    /// of it is the cell of row `mt_rows.start + 32b + k`, column `c`.
    markers: Vec<u32>,
    /// Bases the BWT zone holds: every row's are 128 but the last
    /// loaded row's (the match-length mask).
    bwt_len: usize,
}

impl SubArray {
    /// Creates an empty sub-array with the paper layout.
    pub fn new(model: ArrayModel) -> SubArray {
        let layout = SubArrayLayout::paper();
        layout.validate(model.geometry());
        let geometry = model.geometry();
        assert_eq!(
            geometry.cols,
            2 * SubArrayLayout::BASES_PER_ROW,
            "packed rows assume 256 columns"
        );
        SubArray {
            model,
            rows: vec![[0u64; WORDS_PER_ROW]; layout.mt_rows.start],
            markers: vec![0; 4 * geometry.cols],
            bwt_len: 0,
            layout,
        }
    }

    /// The zone layout.
    pub fn layout(&self) -> &SubArrayLayout {
        &self.layout
    }

    /// The array model pricing this sub-array's operations.
    pub fn model(&self) -> &ArrayModel {
        &self.model
    }

    /// Where row `row` is held: its index in `rows`, or `None` for an MT
    /// row, which lives in `markers`.
    #[inline]
    fn packed_index(&self, row: usize) -> Option<usize> {
        let mt = &self.layout.mt_rows;
        assert!(row < mt.end, "row {row} is not held (IM_ADD scratch)");
        (row < mt.start).then_some(row)
    }

    /// The marker word and its bit that hold the cell at MT row `row`,
    /// column `col`.
    #[inline]
    fn marker_cell(&self, row: usize, col: usize) -> (usize, usize) {
        let k = row - self.layout.mt_rows.start;
        (4 * col + k / 32, k % 32)
    }

    /// Raw bit at `(row, col)` (test/debug accessor; no cycle charge).
    /// Columns use the paper's interleaved word-line addressing — base
    /// `j`'s low bit at column `2j`, high bit at `2j + 1` — and an MT
    /// row's cell is the bit of its column's marker word.
    ///
    /// # Panics
    ///
    /// Panics on an `IM_ADD` scratch row, which is not held.
    pub fn bit(&self, row: usize, col: usize) -> bool {
        match self.packed_index(row) {
            Some(r) => {
                let p = col_bit(col);
                (self.rows[r][p >> 6] >> (p & 63)) & 1 == 1
            }
            None => {
                let (w, k) = self.marker_cell(row, col);
                (self.markers[w] >> k) & 1 == 1
            }
        }
    }

    /// Forces the cell at `(row, col)` to `value` — the stuck-at
    /// fault-injection hook (no cycle charge; this is damage, not an
    /// operation). The data zones are written once at mapping time, so a
    /// post-load force is behaviourally identical to a manufacturing
    /// stuck-at defect for BWT/CRef/MT contents.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates exceed the geometry or `row` is an
    /// `IM_ADD` scratch row, which is not held.
    pub fn force_bit(&mut self, row: usize, col: usize, value: bool) {
        assert!(
            col < self.model.geometry().cols,
            "column {col} out of range"
        );
        match self.packed_index(row) {
            Some(r) => {
                let p = col_bit(col);
                let (word, b) = (&mut self.rows[r][p >> 6], p & 63);
                *word = (*word & !(1 << b)) | (u64::from(value) << b);
            }
            None => {
                let (w, k) = self.marker_cell(row, col);
                let word = &mut self.markers[w];
                *word = (*word & !(1 << k)) | (u32::from(value) << k);
            }
        }
    }

    /// Rows in the data zones (BWT + CRef + MT) — the region where
    /// stuck-at injection is meaningful; the reserved `IM_ADD` scratch is
    /// rewritten every addition, so its defects are modelled by the
    /// carry-chain fault mode instead, and no sub-array holds it.
    pub fn data_zone_rows(&self) -> usize {
        self.layout.mt_rows.end
    }

    /// Loads up to 128 2-bit base codes into BWT bucket row `bucket`
    /// (one `RowWrite`). Rows are loaded in order: the zone's bases end
    /// with this row's.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is out of range or more than 128 codes are
    /// given.
    pub fn load_bwt_row(&mut self, bucket: usize, codes: &[u8], ledger: &mut CycleLedger) {
        assert!(
            bucket < self.layout.buckets(),
            "bucket {bucket} out of range"
        );
        assert!(
            codes.len() <= SubArrayLayout::BASES_PER_ROW,
            "at most 128 bases per row"
        );
        let mut plane0 = [0u64; 2];
        let mut plane1 = [0u64; 2];
        for (j, &code) in codes.iter().enumerate() {
            let (w, b) = (j >> 6, j & 63);
            plane0[w] |= ((code & 0b01) as u64) << b;
            plane1[w] |= (((code >> 1) & 1) as u64) << b;
        }
        // Only the first codes.len() positions are written; stale bits
        // beyond the loaded length keep their contents, as a partial row
        // write would on hardware.
        let written = MatchMask::prefix_words(codes.len());
        let row = &mut self.rows[self.layout.bwt_rows.start + bucket];
        for w in 0..2 {
            row[w] = (row[w] & !written[w]) | plane0[w];
            row[2 + w] = (row[2 + w] & !written[w]) | plane1[w];
        }
        self.bwt_len = bucket * SubArrayLayout::BASES_PER_ROW + codes.len();
        LogicalOp::RowWrite.charge(&self.model, ledger);
    }

    /// Initialises the four `CRef` rows (one `RowWrite` each).
    pub fn load_cref_rows(&mut self, ledger: &mut CycleLedger) {
        for base in bioseq::Base::ALL {
            let code = base.code();
            let plane0 = if code & 0b01 != 0 { !0u64 } else { 0 };
            let plane1 = if code & 0b10 != 0 { !0u64 } else { 0 };
            self.rows[self.layout.cref_rows.start + base.rank()] = [plane0, plane0, plane1, plane1];
            LogicalOp::RowWrite.charge(&self.model, ledger);
        }
    }

    /// The parallel `XNOR_Match` primitive: compares BWT bucket `bucket`
    /// against the `CRef` row of `base`, returning one match bit per base
    /// position (`1` = the stored base equals `base`). Positions past
    /// the loaded length are `0`.
    ///
    /// Hardware: both bit-planes are XNOR-compared in one triple-row
    /// activation each (2 cycles), and a base matches when both of its
    /// bit lanes match. Host evaluation is word-parallel: two XNOR/AND
    /// word operations per 64 bases, no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is out of range.
    #[inline]
    pub fn xnor_match(
        &self,
        bucket: usize,
        base: bioseq::Base,
        ledger: &mut CycleLedger,
    ) -> MatchMask {
        assert!(
            bucket < self.layout.buckets(),
            "bucket {bucket} out of range"
        );
        let bwt = &self.rows[self.layout.bwt_rows.start + bucket];
        let cref = &self.rows[self.layout.cref_rows.start + base.rank()];
        LogicalOp::XnorMatch.charge(&self.model, ledger);
        let loaded = MatchMask::prefix_words(row_len(self.bwt_len, bucket));
        // Words 0..2 of a row are bit-plane 0, words 2..4 bit-plane 1.
        MatchMask([
            !(bwt[0] ^ cref[0]) & !(bwt[2] ^ cref[2]) & loaded[0],
            !(bwt[1] ^ cref[1]) & !(bwt[3] ^ cref[3]) & loaded[1],
        ])
    }

    /// Stores marker word `value` for `base` of bucket-column `bucket`
    /// in the vertical MT zone (32 bit-writes, charged as one `RowWrite`
    /// per occupied row group during bulk mapping — here one `RowWrite`).
    ///
    /// # Panics
    ///
    /// Panics if `bucket` exceeds the column count.
    pub fn store_marker(
        &mut self,
        bucket: usize,
        base: bioseq::Base,
        value: u32,
        ledger: &mut CycleLedger,
    ) {
        let cols = self.model.geometry().cols;
        assert!(bucket < cols, "marker column {bucket} out of range");
        self.markers[4 * bucket + base.rank()] = value;
        LogicalOp::RowWrite.charge(&self.model, ledger);
    }

    /// Reads the marker word for `base` of bucket-column `bucket`
    /// (`MEM`, 11 cycles — three bits per cycle through the three
    /// sub-SAs): one load of the word, stuck cells included. Draws no
    /// fault: an `LFM`'s alignment-time draws are on its match-vector
    /// sensing and its add (DESIGN.md §11).
    ///
    /// # Panics
    ///
    /// Panics if `bucket` exceeds the column count.
    #[inline]
    pub fn read_marker(&self, bucket: usize, base: bioseq::Base, ledger: &mut CycleLedger) -> u32 {
        let cols = self.model.geometry().cols;
        assert!(bucket < cols, "marker column {bucket} out of range");
        LogicalOp::MarkerRead.charge(&self.model, ledger);
        self.markers[4 * bucket + base.rank()]
    }
}

/// Bases in BWT row `bucket` of a zone holding `bwt_len`, loaded row by
/// row.
pub(crate) fn row_len(bwt_len: usize, bucket: usize) -> usize {
    bwt_len
        .saturating_sub(bucket * SubArrayLayout::BASES_PER_ROW)
        .min(SubArrayLayout::BASES_PER_ROW)
}

/// The in-memory 32-bit addition (`IM_ADD`), one [`LogicalOp::ImAdd32`]:
/// XOR3 sum and MAJ carry per bit in the adding sub-array's scratch zone,
/// which holds no stored row, so no sub-array is an argument. `Some(k)`
/// kills the ripple carry out of bit `k` (the MAJ read fails for that
/// cycle); with `None` the sum is the wrapping add — what a ripple add with
/// no carry killed gives — so no fault-free `LFM` walks the gates.
///
/// # Panics
///
/// Panics if `kill_carry_at` is `Some(k)` with `k >= 32`.
pub fn im_add32(
    model: &ArrayModel,
    a: u32,
    b: u32,
    kill_carry_at: Option<usize>,
    ledger: &mut CycleLedger,
) -> u32 {
    LogicalOp::ImAdd32.charge(model, ledger);
    match kill_carry_at {
        None => a.wrapping_add(b),
        Some(k) => {
            assert!(k < 32, "carry bit {k} out of range");
            ripple_add32(a, b, k)
        }
    }
}

/// The ripple adder's gate-level arithmetic (XOR3 sum, MAJ carry) with
/// the carry out of bit `kill_carry_at` forced low.
fn ripple_add32(a: u32, b: u32, kill_carry_at: usize) -> u32 {
    let mut carry = false;
    let mut sum = 0u32;
    for k in 0..32 {
        let x = (a >> k) & 1 == 1;
        let y = (b >> k) & 1 == 1;
        let s = x ^ y ^ carry;
        carry = ((x & y) | (x & carry) | (y & carry)) && kill_carry_at != k;
        if s {
            sum |= 1 << k;
        }
    }
    sum
}

/// Proves the boolean fast path agrees with the analog circuit model for
/// every input combination. Public for `tests/circuit_consistency.rs`,
/// which checks it under more than one cell model.
pub fn validate_functions_against_circuit(model: &ArrayModel) -> bool {
    let sa = SenseAmp::new(model.cell());
    let cell = model.cell();
    for a in [false, true] {
        for b in [false, true] {
            for c in [false, true] {
                let cells = [cell.resistance(a), cell.resistance(b), cell.resistance(c)];
                let circuit_sum = sa.evaluate(SenseMode::Xor3, &cells);
                let circuit_carry = sa.evaluate(SenseMode::Maj3, &cells);
                if circuit_sum != (a ^ b ^ c) || circuit_carry != ((a & b) | (a & c) | (b & c)) {
                    return false;
                }
                if sa.xnor2(a, b) == (a ^ b) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::Base;

    fn fresh() -> (SubArray, CycleLedger) {
        (SubArray::new(ArrayModel::default()), CycleLedger::new())
    }

    #[test]
    fn layout_matches_fig6a() {
        let l = SubArrayLayout::paper();
        l.validate(SubArrayGeometry::PAPER);
        assert_eq!(l.bwt_rows, 0..256);
        assert_eq!(l.cref_rows.len(), 4);
        assert_eq!(l.mt_rows.len(), 128);
        assert_eq!(l.reserved_rows.len(), 124);
        assert_eq!(l.buckets() * SubArrayLayout::BASES_PER_ROW, 32_768);
    }

    #[test]
    fn bwt_row_round_trip_via_bits() {
        let (mut sa, mut ledger) = fresh();
        let codes: Vec<u8> = (0..128).map(|i| (i % 4) as u8).collect();
        sa.load_bwt_row(3, &codes, &mut ledger);
        for (j, &code) in codes.iter().enumerate() {
            assert_eq!(sa.bit(3, 2 * j), code & 1 != 0);
            assert_eq!(sa.bit(3, 2 * j + 1), code & 2 != 0);
        }
    }

    #[test]
    fn partial_row_reload_keeps_tail_bits() {
        let (mut sa, mut ledger) = fresh();
        let full: Vec<u8> = (0..128).map(|i| (i % 4) as u8).collect();
        sa.load_bwt_row(2, &full, &mut ledger);
        sa.load_bwt_row(2, &[0b11, 0b11], &mut ledger);
        // The shorter write touches only the first two base positions.
        assert!(sa.bit(2, 0) && sa.bit(2, 1) && sa.bit(2, 2) && sa.bit(2, 3));
        for (j, &code) in full.iter().enumerate().skip(2) {
            assert_eq!(sa.bit(2, 2 * j), code & 1 != 0, "stale low bit at {j}");
            assert_eq!(sa.bit(2, 2 * j + 1), code & 2 != 0, "stale high bit at {j}");
        }
        // But the match length shrinks to the new load.
        let m = sa.xnor_match(2, Base::from_rank(3), &mut ledger);
        assert!(m.count_prefix(128) <= 2);
    }

    #[test]
    fn xnor_match_finds_exactly_the_matching_bases() {
        let (mut sa, mut ledger) = fresh();
        sa.load_cref_rows(&mut ledger);
        // T G C T A in codes.
        let codes: Vec<u8> = [Base::T, Base::G, Base::C, Base::T, Base::A]
            .iter()
            .map(|b| b.code())
            .collect();
        sa.load_bwt_row(0, &codes, &mut ledger);
        let t_matches = sa.xnor_match(0, Base::T, &mut ledger);
        assert_eq!(
            &t_matches.to_bools()[..5],
            &[true, false, false, true, false]
        );
        assert_eq!(t_matches.count_ones(), 2, "tail must not match");
        let a_matches = sa.xnor_match(0, Base::A, &mut ledger);
        assert_eq!(
            &a_matches.to_bools()[..5],
            &[false, false, false, false, true]
        );
        assert_eq!(a_matches.count_ones(), 1);
    }

    #[test]
    fn xnor_match_counts_equal_scan_for_every_base() {
        let (mut sa, mut ledger) = fresh();
        sa.load_cref_rows(&mut ledger);
        let codes: Vec<u8> = (0..100).map(|i| ((i * 7 + 3) % 4) as u8).collect();
        sa.load_bwt_row(1, &codes, &mut ledger);
        for base in Base::ALL {
            let hw = sa.xnor_match(1, base, &mut ledger).count_ones() as usize;
            let oracle = codes
                .iter()
                .map(|&c| usize::from(c == base.code()))
                .sum::<usize>();
            assert_eq!(hw, oracle, "count mismatch for {base}");
        }
    }

    #[test]
    fn match_mask_prefix_count_equals_bool_scan() {
        let mut mask = MatchMask::default();
        for i in [0usize, 1, 63, 64, 65, 90, 127] {
            mask.set(i, true);
        }
        let bools = mask.to_bools();
        for n in 0..=128 {
            assert_eq!(
                mask.count_prefix(n) as usize,
                bools[..n].iter().filter(|&&b| b).count(),
                "prefix {n}"
            );
        }
        assert_eq!(MatchMask::from_bools(&bools), mask);
    }

    #[test]
    fn prefix_words_boundaries_cover_every_match_arm_seam() {
        // The 0..=63 / 64 / 65..=127 / 128 arms each have a seam; pin
        // the exact words on both sides of each one.
        assert_eq!(MatchMask::prefix_words(0), [0, 0]);
        assert_eq!(MatchMask::prefix_words(1), [1, 0]);
        assert_eq!(MatchMask::prefix_words(63), [(1u64 << 63) - 1, 0]);
        assert_eq!(MatchMask::prefix_words(64), [!0, 0]);
        assert_eq!(MatchMask::prefix_words(65), [!0, 1]);
        assert_eq!(MatchMask::prefix_words(127), [!0, (1u64 << 63) - 1]);
        assert_eq!(MatchMask::prefix_words(128), [!0, !0]);
        // Each boundary mask selects exactly n bits.
        for n in [0usize, 63, 64, 65, 127, 128] {
            let m = MatchMask::prefix_words(n);
            assert_eq!(
                m[0].count_ones() + m[1].count_ones(),
                n as u32,
                "prefix_words({n}) width"
            );
        }
    }

    #[test]
    #[should_panic(expected = "prefix 129 out of range")]
    fn prefix_words_rejects_out_of_range() {
        MatchMask::prefix_words(129);
    }

    #[test]
    fn count_ones_on_full_and_empty_masks() {
        assert_eq!(MatchMask::default().count_ones(), 0);
        let full = MatchMask([!0, !0]);
        assert_eq!(full.count_ones(), 128);
        for n in [0usize, 63, 64, 65, 127, 128] {
            assert_eq!(full.count_prefix(n), n as u32, "full mask prefix {n}");
            assert_eq!(MatchMask::default().count_prefix(n), 0);
        }
    }

    #[test]
    fn marker_store_read_round_trip() {
        let (mut sa, mut ledger) = fresh();
        for bucket in [0usize, 17, 255] {
            for base in Base::ALL {
                let v = (bucket as u32) * 1_000_003 + base.rank() as u32;
                sa.store_marker(bucket, base, v, &mut ledger);
                assert_eq!(sa.read_marker(bucket, base, &mut ledger), v);
            }
        }
    }

    #[test]
    fn markers_in_distinct_columns_do_not_interfere() {
        let (mut sa, mut ledger) = fresh();
        sa.store_marker(10, Base::A, 0xAAAA_5555, &mut ledger);
        sa.store_marker(11, Base::A, 0x1234_5678, &mut ledger);
        sa.store_marker(10, Base::C, 0xDEAD_BEEF, &mut ledger);
        assert_eq!(sa.read_marker(10, Base::A, &mut ledger), 0xAAAA_5555);
        assert_eq!(sa.read_marker(11, Base::A, &mut ledger), 0x1234_5678);
        assert_eq!(sa.read_marker(10, Base::C, &mut ledger), 0xDEAD_BEEF);
    }

    #[test]
    fn im_add_matches_wrapping_add() {
        let model = ArrayModel::default();
        let mut ledger = CycleLedger::new();
        let cases = [
            (0u32, 0u32),
            (1, 1),
            (0xFFFF_FFFF, 1),
            (123_456_789, 987_654_321),
            (0x8000_0000, 0x8000_0000),
            (42, 0),
        ];
        for (a, b) in cases {
            assert_eq!(
                im_add32(&model, a, b, None, &mut ledger),
                a.wrapping_add(b),
                "{a} + {b}"
            );
        }
    }

    #[test]
    fn faulty_add_differs_only_when_a_carry_dies() {
        let model = ArrayModel::default();
        let mut ledger = CycleLedger::new();
        // 0xFFFF + 1 ripples a carry through the low 17 bits: killing it
        // anywhere below bit 16 corrupts the sum.
        let good = im_add32(&model, 0xFFFF, 1, None, &mut ledger);
        assert_eq!(good, 0x1_0000);
        // Killing the carry out of bit 0 leaves 0xFFFF's high bits
        // un-incremented: 0 at bit 0, then bits 1..16 of the operand.
        let bad = im_add32(&model, 0xFFFF, 1, Some(0), &mut ledger);
        assert_eq!(bad, 0xFFFE, "carry killed at bit 0 must stop the ripple");
        // No carry is generated at bit 20, so a fault there is silent.
        let silent = im_add32(&model, 0xFFFF, 1, Some(20), &mut ledger);
        assert_eq!(silent, good);
    }

    /// A carry killed out of bit `k`, by arithmetic that shares no gate
    /// code with the adder: the low `k + 1` bits add on their own and
    /// drop their carry, the high bits add with no carry coming in. In
    /// `u64`, so `k = 31` needs no special case: the high part is empty.
    fn split_add(a: u32, b: u32, k: usize) -> u32 {
        let (a, b, low_bits) = (u64::from(a), u64::from(b), k + 1);
        let low_mask = (1u64 << low_bits) - 1;
        let low = ((a & low_mask) + (b & low_mask)) & low_mask;
        let high = ((a >> low_bits) + (b >> low_bits)) << low_bits;
        (low | high) as u32
    }

    proptest::proptest! {
        #[test]
        fn faulty_add_matches_split_arithmetic(
            a in proptest::prelude::any::<u32>(),
            b in proptest::prelude::any::<u32>(),
            k in 0usize..32,
        ) {
            let model = ArrayModel::default();
            let mut ledger = CycleLedger::new();
            proptest::prop_assert_eq!(
                im_add32(&model, a, b, Some(k), &mut ledger),
                split_add(a, b, k)
            );
            proptest::prop_assert_eq!(im_add32(&model, a, b, None, &mut ledger), a.wrapping_add(b));
            // Faulted or not, an add is one `IM_ADD`.
            proptest::prop_assert_eq!(ledger.primitives().count(LogicalOp::ImAdd32), 2);
            proptest::prop_assert_eq!(ledger.total_busy_cycles(), 2 * LogicalOp::ImAdd32.cycles());
        }
    }

    #[test]
    #[should_panic(expected = "carry bit 32 out of range")]
    fn faulty_add_rejects_a_carry_bit_past_the_word() {
        im_add32(
            &ArrayModel::default(),
            1,
            1,
            Some(32),
            &mut CycleLedger::new(),
        );
    }

    #[test]
    #[should_panic(expected = "is not held")]
    fn bit_on_a_scratch_row_panics() {
        let (sa, _) = fresh();
        let _ = sa.bit(sa.layout().reserved_rows.start, 0);
    }

    #[test]
    #[should_panic(expected = "is not held")]
    fn force_bit_on_a_scratch_row_panics() {
        let (mut sa, _) = fresh();
        let last = sa.layout().reserved_rows.end - 1;
        sa.force_bit(last, 0, true);
    }

    #[test]
    fn forced_bit_persists_and_corrupts_reads() {
        let (mut sa, mut ledger) = fresh();
        sa.store_marker(9, Base::G, 0, &mut ledger);
        let start = sa.layout().mt_rows.start + Base::G.rank() * 32;
        sa.force_bit(start + 5, 9, true);
        assert!(sa.bit(start + 5, 9) && !sa.bit(start + 5, 8));
        assert_eq!(sa.read_marker(9, Base::G, &mut ledger), 1 << 5);
        assert!(sa.data_zone_rows() > start);
    }

    #[test]
    fn forced_bwt_bit_corrupts_the_match_vector() {
        let (mut sa, mut ledger) = fresh();
        sa.load_cref_rows(&mut ledger);
        let codes = vec![Base::A.code(); 8];
        sa.load_bwt_row(0, &codes, &mut ledger);
        assert_eq!(sa.xnor_match(0, Base::A, &mut ledger).count_ones(), 8);
        // Flip the low bit of base position 3: code 0b10 -> 0b11 (C).
        sa.force_bit(0, 2 * 3, true);
        let m = sa.xnor_match(0, Base::A, &mut ledger);
        assert_eq!(m.count_ones(), 7);
        assert!(!m.get(3));
        assert!(sa.xnor_match(0, Base::C, &mut ledger).get(3));
    }

    #[test]
    fn boolean_fast_path_agrees_with_circuit() {
        assert!(validate_functions_against_circuit(&ArrayModel::default()));
    }

    #[test]
    fn ledger_charges_accumulate_per_primitive() {
        let (mut sa, mut ledger) = fresh();
        sa.load_cref_rows(&mut ledger);
        let before = ledger.total_busy_cycles();
        let _ = sa.xnor_match(0, Base::G, &mut ledger);
        assert_eq!(
            ledger.total_busy_cycles() - before,
            LogicalOp::XnorMatch.cycles()
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_bucket_panics() {
        let (sa, mut ledger) = fresh();
        let _ = sa.xnor_match(300, Base::A, &mut ledger);
    }
}
