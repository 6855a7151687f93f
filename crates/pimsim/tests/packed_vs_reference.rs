//! Property tests pinning the packed bit-plane kernel to the boolean
//! reference implementation (DESIGN.md §11).
//!
//! The bit-plane packing is a host-side optimisation: over random BWT
//! rows, bucket lengths, sentinel positions, stuck-at cells, and fault
//! seeds (campaigns on and off), the packed compare stage must return
//! exactly the reference's `count_match`, flip exactly the reference's
//! bits, and charge exactly the reference's cycles.

use bioseq::Base;
use mram::array::ArrayModel;
use mram::faults::{FaultCampaign, FaultModel};
use pimsim::costs::LogicalOp;
use pimsim::reference::{packed_compare_stage, reference_compare_stage, BoolSubArray};
use pimsim::{CycleLedger, FaultInjector, KernelCache, LfmBatch, SubArray};
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
        reference.force_bwt_bit(0, col, value);
    }
    (packed, reference)
}

proptest! {
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

    #[test]
    fn batched_compare_matches_reference_clean(
        codes in proptest::collection::vec(0u8..4, 1..=128),
        stuck_enc in proptest::collection::vec(0usize..512, 0..4),
        sentinel_enc in 0usize..256,
        // Encoded request: low 2 bits the stream, next 2 the base rank,
        // the rest the prefix limit (vendored proptest has no tuples).
        sched_enc in proptest::collection::vec(0usize..(16 * 129), 1..24),
    ) {
        let sentinel = (sentinel_enc < 128).then_some(sentinel_enc);
        let (packed, reference) = twin_arrays(&codes, &stuck_enc);
        let mut batch = LfmBatch::new();
        for &enc in &sched_enc {
            let (stream, rank, within) = (enc % 4, (enc / 4) % 4, enc / 16);
            batch.push(stream, 0, Base::from_rank(rank), within);
        }
        let mut ledger_b = CycleLedger::new();
        let groups =
            batch.run_compare(&packed, sentinel.map(|col| (0, col)), None, 0, &mut ledger_b);
        let counts = batch.counts(&packed, &mut [], &mut ledger_b);
        // The plane load was charged once per (bucket, base) group, not
        // once per request.
        prop_assert_eq!(ledger_b.primitives().count(LogicalOp::XnorMatch), groups as u64);
        let mut ledger_r = CycleLedger::new();
        for (i, &enc) in sched_enc.iter().enumerate() {
            let (rank, within) = ((enc / 4) % 4, enc / 16);
            let expected = reference_compare_stage(
                &reference, 0, Base::from_rank(rank), sentinel, within, None, &mut ledger_r,
            );
            prop_assert_eq!(counts[i], expected, "request {}", i);
        }
    }

    #[test]
    fn batched_compare_replays_reference_fault_streams_lock_step(
        codes in proptest::collection::vec(0u8..4, 1..=128),
        stuck_enc in proptest::collection::vec(0usize..512, 0..4),
        seed in any::<u64>(),
        sentinel_enc in 0usize..256,
        sched_enc in proptest::collection::vec(0usize..(16 * 129), 1..16),
        rounds in 1usize..4,
    ) {
        let sentinel = (sentinel_enc < 128).then_some(sentinel_enc);
        let (packed, reference) = twin_arrays(&codes, &stuck_enc);
        let campaign = FaultCampaign::seeded(seed)
            .with_model(FaultModel::with_probabilities(0.05, 0.0))
            .with_transient_row_rate(0.2);
        // One injector per read stream, shared by the batch across
        // rounds; the per-stream oracle injectors must stay in
        // lock-step however the batch groups the requests.
        let mut inj_b: Vec<FaultInjector> =
            (0..4).map(|s| FaultInjector::new(campaign.for_read(s))).collect();
        let mut inj_r: Vec<FaultInjector> =
            (0..4).map(|s| FaultInjector::new(campaign.for_read(s))).collect();
        let mut ledger_b = CycleLedger::new();
        let mut ledger_r = CycleLedger::new();
        for round in 0..rounds {
            let mut batch = LfmBatch::new();
            for &enc in &sched_enc {
                let (stream, rank, within) = (enc % 4, (enc / 4) % 4, enc / 16);
                batch.push(stream, 0, Base::from_rank(rank), within);
            }
            batch.run_compare(&packed, sentinel.map(|col| (0, col)), None, 0, &mut ledger_b);
            let counts = batch.counts(&packed, &mut inj_b, &mut ledger_b);
            for (i, &enc) in sched_enc.iter().enumerate() {
                let (stream, rank, within) = (enc % 4, (enc / 4) % 4, enc / 16);
                let expected = reference_compare_stage(
                    &reference,
                    0,
                    Base::from_rank(rank),
                    sentinel,
                    within,
                    Some(&mut inj_r[stream]),
                    &mut ledger_r,
                );
                prop_assert_eq!(counts[i], expected, "round {} request {}", round, i);
            }
        }
        for s in 0..4 {
            prop_assert_eq!(inj_b[s].counters(), inj_r[s].counters(), "stream {}", s);
        }
    }

    /// The cached batch path replays the uncached fault streams in
    /// lock-step. A rank-checkpoint cache hit must charge the exact op
    /// sequence the recompute pays and corrupt a private mask copy, so
    /// counts, injector counters, cycles, and primitives all match the
    /// uncached batch — across rounds, where later rounds hit the cache.
    #[test]
    fn cached_batch_replays_uncached_fault_streams_lock_step(
        codes in proptest::collection::vec(0u8..4, 1..=128),
        stuck_enc in proptest::collection::vec(0usize..512, 0..4),
        seed in any::<u64>(),
        sentinel_enc in 0usize..256,
        sched_enc in proptest::collection::vec(0usize..(16 * 129), 1..16),
        rounds in 1usize..4,
    ) {
        let sentinel = (sentinel_enc < 128).then_some(sentinel_enc);
        let (packed, _) = twin_arrays(&codes, &stuck_enc);
        let campaign = FaultCampaign::seeded(seed)
            .with_model(FaultModel::with_probabilities(0.05, 0.0))
            .with_transient_row_rate(0.2);
        let mut inj_c: Vec<FaultInjector> =
            (0..4).map(|s| FaultInjector::new(campaign.for_read(s))).collect();
        let mut inj_u: Vec<FaultInjector> =
            (0..4).map(|s| FaultInjector::new(campaign.for_read(s))).collect();
        let mut cache = KernelCache::new();
        let mut ledger_c = CycleLedger::new();
        let mut ledger_u = CycleLedger::new();
        for round in 0..rounds {
            let mut batch_c = LfmBatch::new();
            let mut batch_u = LfmBatch::new();
            for &enc in &sched_enc {
                let (stream, rank, within) = (enc % 4, (enc / 4) % 4, enc / 16);
                batch_c.push(stream, 0, Base::from_rank(rank), within);
                batch_u.push(stream, 0, Base::from_rank(rank), within);
            }
            let sentinel = sentinel.map(|col| (0, col));
            batch_c.run_compare(&packed, sentinel, Some(&mut cache), 0, &mut ledger_c);
            let counts_c = batch_c.counts(&packed, &mut inj_c, &mut ledger_c);
            batch_u.run_compare(&packed, sentinel, None, 0, &mut ledger_u);
            let counts_u = batch_u.counts(&packed, &mut inj_u, &mut ledger_u);
            prop_assert_eq!(&counts_c, &counts_u, "round {}", round);
            for i in 0..batch_c.len() {
                prop_assert_eq!(batch_c.mask(i).0, batch_u.mask(i).0, "round {} req {}", round, i);
                prop_assert_eq!(batch_c.marker(i), batch_u.marker(i), "round {} req {}", round, i);
            }
        }
        for s in 0..4 {
            prop_assert_eq!(inj_c[s].counters(), inj_u[s].counters(), "stream {}", s);
        }
        // Cache hits charged the identical op sequence: the simulated
        // ledgers agree on every platform-visible quantity (cycles,
        // energy, op counts, `PrimCounters`); only the host-side cache
        // counters, which ledger equality leaves out, differ.
        prop_assert_eq!(&ledger_c, &ledger_u);
        prop_assert_eq!(ledger_u.kernel_cache_counters().lookups(), 0);
        if rounds > 1 {
            prop_assert!(
                ledger_c.kernel_cache_counters().hits > 0,
                "repeat rounds over the same groups must hit the cache"
            );
        }
    }
}
