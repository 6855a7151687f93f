//! Property tests pinning the packed bit-plane kernel to the boolean
//! reference implementation (DESIGN.md §11).
//!
//! The bit-plane packing is a host-side optimisation: over random BWT
//! rows, bucket lengths, sentinel positions, stuck-at cells, and fault
//! seeds (campaigns on and off), the packed compare stage must return
//! exactly the reference's `count_match`, flip exactly the reference's
//! bits, and charge exactly the reference's cycles. Over random markers
//! and stuck MT cells, the packed array's one-load marker read must
//! return the word the reference gathers bit by bit.

use bioseq::Base;
use mram::array::ArrayModel;
use mram::faults::{FaultCampaign, FaultModel};
use pimsim::costs::LogicalOp;
use pimsim::reference::{packed_compare_stage, reference_compare_stage, BoolSubArray};
use pimsim::{CycleLedger, FaultInjector, SubArray, SubArrayLayout};
use proptest::prelude::*;

/// Builds the packed and the reference sub-array with identical BWT
/// contents and identical stuck cells forced into bucket row 0.
fn twin_arrays(codes: &[u8], stuck_enc: &[usize]) -> (SubArray, BoolSubArray) {
    let model = ArrayModel::default();
    let mut scratch = CycleLedger::new();
    let mut packed = SubArray::new(model);
    let mut reference = BoolSubArray::new(model);
    packed.load_cref_rows(&mut scratch);
    reference.load_cref_rows(&mut scratch);
    packed.load_bwt_row(0, codes, &mut scratch);
    reference.load_bwt_row(0, codes, &mut scratch);
    // Encoded stuck cells: low 8 bits are the column, bit 8 the value
    // (the vendored proptest has no tuple strategies).
    for &enc in stuck_enc {
        let (col, value) = (enc % 256, enc >= 256);
        packed.force_bit(0, col, value);
        reference.force_bit(0, col, value);
    }
    (packed, reference)
}

proptest! {
    /// Every marker read, and one `LFM` sum (marker + compare-stage
    /// count), agree between the packed array and the bit-gather oracle
    /// after stuck cells are forced into MT rows: anywhere in the zone,
    /// and into the column the `LFM` reads.
    #[test]
    fn marker_reads_and_lfm_sums_agree_under_stuck_mt_cells(
        // A marker for every `(bucket column, base)` slot, so stuck cells
        // anywhere in the MT zone hit a stored word.
        words in proptest::collection::vec(any::<u32>(), 256 * 4),
        codes in proptest::collection::vec(0u8..4, 1..=128),
        bucket in 0usize..256,
        // Encoded stuck cells: MT row offset (0..128), column (0..256),
        // value; and, in the `LFM`'s column, row offset and value.
        stuck_enc in proptest::collection::vec(0usize..65_536, 0..12),
        column_stuck in proptest::collection::vec(0usize..256, 1..6),
        within_frac in 0.0f64..=1.0,
        base_rank in 0usize..4,
    ) {
        let model = ArrayModel::default();
        let mut scratch = CycleLedger::new();
        let mut packed = SubArray::new(model);
        let mut reference = BoolSubArray::new(model);
        packed.load_cref_rows(&mut scratch);
        reference.load_cref_rows(&mut scratch);
        packed.load_bwt_row(bucket, &codes, &mut scratch);
        reference.load_bwt_row(bucket, &codes, &mut scratch);
        for (slot, &word) in words.iter().enumerate() {
            let base = Base::from_rank(slot % 4);
            packed.store_marker(slot / 4, base, word, &mut scratch);
            reference.store_marker(slot / 4, base, word, &mut scratch);
        }
        let mt = SubArrayLayout::paper().mt_rows.start;
        let cells = stuck_enc
            .iter()
            .map(|&enc| (enc % 128, enc / 128 % 256, enc >= 32_768))
            .chain(column_stuck.iter().map(|&enc| (enc % 128, bucket, enc >= 128)));
        for (row, col, value) in cells {
            packed.force_bit(mt + row, col, value);
            reference.force_bit(mt + row, col, value);
        }
        let mut ledger_p = CycleLedger::new();
        let mut ledger_r = CycleLedger::new();
        for slot in 0..256 * 4 {
            let base = Base::from_rank(slot % 4);
            prop_assert_eq!(
                packed.read_marker(slot / 4, base, &mut ledger_p),
                reference.read_marker(slot / 4, base, &mut ledger_r),
                "column {} base {}",
                slot / 4,
                base
            );
        }
        let base = Base::from_rank(base_rank);
        let within = (codes.len() as f64 * within_frac) as usize;
        let count_p = packed_compare_stage(&packed, bucket, base, None, within, None, &mut ledger_p);
        let count_r =
            reference_compare_stage(&reference, bucket, base, None, within, None, &mut ledger_r);
        let marker_p = packed.read_marker(bucket, base, &mut ledger_p);
        let marker_r = reference.read_marker(bucket, base, &mut ledger_r);
        prop_assert_eq!(
            packed.im_add32_shared(marker_p, count_p, &mut ledger_p),
            marker_r.wrapping_add(count_r)
        );
        prop_assert_eq!(ledger_p.primitives().count(LogicalOp::MarkerRead), 1025);
        prop_assert_eq!(
            ledger_p.total_busy_cycles(),
            ledger_r.total_busy_cycles() + LogicalOp::ImAdd32.cycles()
        );
    }

    #[test]
    fn match_vectors_agree_bit_for_bit(
        codes in proptest::collection::vec(0u8..4, 0..=128),
        stuck_enc in proptest::collection::vec(0usize..512, 0..6),
    ) {
        let (packed, reference) = twin_arrays(&codes, &stuck_enc);
        let mut ledger_p = CycleLedger::new();
        let mut ledger_r = CycleLedger::new();
        for base in Base::ALL {
            let mask = packed.xnor_match(0, base, &mut ledger_p);
            let bools = reference.xnor_match(0, base, &mut ledger_r);
            prop_assert_eq!(mask.to_bools(), bools, "base {}", base);
        }
        prop_assert_eq!(ledger_p.total_busy_cycles(), ledger_r.total_busy_cycles());
        prop_assert_eq!(ledger_p.primitives(), ledger_r.primitives());
    }

    #[test]
    fn compare_stage_agrees_with_faults_off(
        codes in proptest::collection::vec(0u8..4, 1..=128),
        sentinel_enc in 0usize..256,
        within_frac in 0.0f64..=1.0,
        base_rank in 0usize..4,
    ) {
        let sentinel = (sentinel_enc < 128).then_some(sentinel_enc);
        let within = (codes.len() as f64 * within_frac) as usize;
        let (packed, reference) = twin_arrays(&codes, &[]);
        let base = Base::from_rank(base_rank);
        let mut ledger_p = CycleLedger::new();
        let mut ledger_r = CycleLedger::new();
        let count_p =
            packed_compare_stage(&packed, 0, base, sentinel, within, None, &mut ledger_p);
        let count_r =
            reference_compare_stage(&reference, 0, base, sentinel, within, None, &mut ledger_r);
        prop_assert_eq!(count_p, count_r);
        prop_assert_eq!(ledger_p.total_busy_cycles(), ledger_r.total_busy_cycles());
    }

    #[test]
    fn compare_stage_agrees_under_seeded_faults(
        codes in proptest::collection::vec(0u8..4, 1..=128),
        stuck_enc in proptest::collection::vec(0usize..512, 0..4),
        seed in any::<u64>(),
        sentinel_enc in 0usize..256,
        within_frac in 0.0f64..=1.0,
        base_rank in 0usize..4,
        rounds in 1usize..8,
    ) {
        let sentinel = (sentinel_enc < 128).then_some(sentinel_enc);
        let within = (codes.len() as f64 * within_frac) as usize;
        let (packed, reference) = twin_arrays(&codes, &stuck_enc);
        let base = Base::from_rank(base_rank);
        let campaign = FaultCampaign::seeded(seed)
            .with_model(FaultModel::with_probabilities(0.05, 0.0))
            .with_transient_row_rate(0.2);
        let mut injector_p = FaultInjector::new(campaign);
        let mut injector_r = FaultInjector::new(campaign);
        let mut ledger_p = CycleLedger::new();
        let mut ledger_r = CycleLedger::new();
        // Several rounds through the same injectors: the RNG streams
        // must stay in lock-step across calls, not just on the first.
        for round in 0..rounds {
            let count_p = packed_compare_stage(
                &packed, 0, base, sentinel, within, Some(&mut injector_p), &mut ledger_p,
            );
            let count_r = reference_compare_stage(
                &reference, 0, base, sentinel, within, Some(&mut injector_r), &mut ledger_r,
            );
            prop_assert_eq!(count_p, count_r, "diverged at round {}", round);
        }
        prop_assert_eq!(injector_p.counters(), injector_r.counters());
        prop_assert_eq!(ledger_p.total_busy_cycles(), ledger_r.total_busy_cycles());
        prop_assert_eq!(ledger_p.primitives(), ledger_r.primitives());
    }
}
