//! Property tests on the simulated hardware's invariants.

use bioseq::Base;
use mram::array::ArrayModel;
use pimsim::costs::LogicalOp;
use pimsim::{im_add32, CycleLedger, Dpu, SubArray};
use proptest::prelude::*;

proptest! {
    #[test]
    fn im_add_is_wrapping_u32_addition(a in any::<u32>(), b in any::<u32>()) {
        let sum = im_add32(&ArrayModel::default(), a, b, None, &mut CycleLedger::new());
        prop_assert_eq!(sum, a.wrapping_add(b));
    }

    #[test]
    fn im_add_is_commutative(a in any::<u32>(), b in any::<u32>(), k in 0usize..32) {
        let model = ArrayModel::default();
        let mut ledger = CycleLedger::new();
        for kill in [None, Some(k)] {
            let ab = im_add32(&model, a, b, kill, &mut ledger);
            prop_assert_eq!(ab, im_add32(&model, b, a, kill, &mut ledger));
        }
    }

    #[test]
    fn marker_storage_round_trips(values in proptest::collection::vec(any::<u32>(), 1..32)) {
        let mut sub = SubArray::new(ArrayModel::default());
        let mut ledger = CycleLedger::new();
        for (i, &v) in values.iter().enumerate() {
            let base = Base::from_rank(i % 4);
            sub.store_marker(i % 256, base, v, &mut ledger);
        }
        for (i, &v) in values.iter().enumerate() {
            let base = Base::from_rank(i % 4);
            prop_assert_eq!(sub.read_marker(i % 256, base, &mut ledger), v);
        }
    }

    #[test]
    fn xnor_match_counts_equal_scan(codes in proptest::collection::vec(0u8..4, 0..128)) {
        let mut sub = SubArray::new(ArrayModel::default());
        let mut ledger = CycleLedger::new();
        sub.load_cref_rows(&mut ledger);
        sub.load_bwt_row(0, &codes, &mut ledger);
        for base in Base::ALL {
            let hw = sub.xnor_match(0, base, &mut ledger).count_ones() as usize;
            let oracle = codes.iter().map(|&c| usize::from(c == base.code())).sum::<usize>();
            prop_assert_eq!(hw, oracle);
        }
    }

    #[test]
    fn popcount_equals_manual_count(
        bits in proptest::collection::vec(any::<bool>(), 0..128),
        frac in 0.0f64..=1.0,
    ) {
        let mut dpu = Dpu::new(ArrayModel::default());
        let mut ledger = CycleLedger::new();
        let limit = (bits.len() as f64 * frac) as usize;
        let hw = dpu.count_matches(&bits, limit, &mut ledger);
        let oracle = bits[..limit].iter().filter(|&&b| b).count() as u32;
        prop_assert_eq!(hw, oracle);
    }

    #[test]
    fn ledger_merge_is_additive(
        xnor_a in 0u64..50, xnor_b in 0u64..50,
        reads_a in 0u64..50, reads_b in 0u64..50,
    ) {
        use pimsim::Resource;
        let model = ArrayModel::default();
        let mut a = CycleLedger::new();
        LogicalOp::XnorMatch.charge_many(&model, &mut a, xnor_a);
        LogicalOp::MarkerRead.charge_many(&model, &mut a, reads_a);
        let mut b = CycleLedger::new();
        LogicalOp::XnorMatch.charge_many(&model, &mut b, xnor_b);
        LogicalOp::MarkerRead.charge_many(&model, &mut b, reads_b);
        let mut merged = a.clone();
        merged.merge(&b);
        prop_assert_eq!(
            merged.busy_cycles(Resource::Compare),
            a.busy_cycles(Resource::Compare) + b.busy_cycles(Resource::Compare)
        );
        prop_assert_eq!(
            merged.busy_cycles(Resource::Memory),
            11 * (reads_a + reads_b)
        );
        prop_assert_eq!(
            merged.energy_pj(&model).to_bits(),
            (a.energy_pj(&model) + b.energy_pj(&model)).to_bits()
        );
    }

    #[test]
    fn split_and_shuffled_merge_equals_the_sequential_ledger(
        draws in proptest::collection::vec(any::<u64>(), 1..40),
        k in 1usize..6,
        shuffle in any::<u64>(),
    ) {
        let model = ArrayModel::default();
        let mut sequential = CycleLedger::new();
        let mut parts = vec![CycleLedger::new(); k];
        for &draw in &draws {
            let op = LogicalOp::ALL[(draw % 9) as usize];
            let part = (draw >> 4) as usize % k;
            // Up to 2^44 repeats: past 2^53 pJ an energy summed charge by
            // charge would depend on the order of the charges.
            let n = (draw >> 8) % (1 << 44);
            op.charge_many(&model, &mut sequential, n);
            op.charge_many(&model, &mut parts[part], n);
        }
        let mut order: Vec<usize> = (0..k).collect();
        let mut rest = shuffle;
        for i in (1..k).rev() {
            order.swap(i, (rest % (i as u64 + 1)) as usize);
            rest /= i as u64 + 1;
        }
        let mut merged = CycleLedger::new();
        for part in order {
            merged.merge(&parts[part]);
        }
        prop_assert_eq!(&merged, &sequential);
        prop_assert_eq!(
            merged.energy_pj(&model).to_bits(),
            sequential.energy_pj(&model).to_bits()
        );
    }
}
