//! Property tests: the platform is bit-exact with the software oracle on
//! arbitrary genomes and reads.

use bioseq::{Base, DnaSeq};
use fmindex::EditBudget;
use mram::faults::{FaultCampaign, FaultModel};
use pim_aligner::{exact_search, LfmRequest, MappedIndex, PimAlignerConfig};
use pimsim::{CycleLedger, Dpu, FaultInjector, PipelineCounters, PipelineSim};
use proptest::prelude::*;
use readsim::genome;

fn arb_seq(min: usize, max: usize) -> impl Strategy<Value = DnaSeq> {
    proptest::collection::vec(0u8..4, min..max)
        .prop_map(|v| v.into_iter().map(|r| Base::from_rank(r as usize)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn platform_lfm_equals_software_lfm(
        reference in arb_seq(1, 600),
        ids in proptest::collection::vec(0usize..600, 1..12),
    ) {
        let config = PimAlignerConfig::baseline();
        let mapped = MappedIndex::build(&reference.to_packed(), &config);
        let oracle = mapped.index().clone();
        let mut injector = mapped.session_injector();
        let mut ledger = CycleLedger::new();
        for id in ids {
            let id = id % (oracle.text_len() + 1);
            for base in Base::ALL {
                prop_assert_eq!(
                    mapped.lfm(base, id, &mut injector, &mut ledger),
                    oracle.marker_table().lfm(oracle.bwt(), base, id)
                );
            }
        }
    }

    #[test]
    fn platform_exact_search_equals_software(
        reference in arb_seq(10, 400),
        start_frac in 0.0f64..1.0,
        len in 4usize..24,
    ) {
        let config = PimAlignerConfig::baseline();
        let mapped = MappedIndex::build(&reference.to_packed(), &config);
        let oracle = mapped.index().clone();
        let mut injector = mapped.session_injector();
        let mut dpu = Dpu::new(*config.model());
        let mut ledger = CycleLedger::new();
        let len = len.min(reference.len());
        let start = ((reference.len() - len) as f64 * start_frac) as usize;
        let read = reference.subseq(start..start + len);
        let (interval, _) =
            exact_search(&mapped, &mut injector, &mut dpu, &read, None, &mut ledger);
        match oracle.backward_search(&read) {
            Some(expected) => prop_assert_eq!(interval, expected),
            None => prop_assert!(interval.is_empty()),
        }
    }

    #[test]
    fn platform_inexact_equals_software_on_mutated_reads(
        reference in arb_seq(20, 200),
        start_frac in 0.0f64..1.0,
        edits in proptest::collection::vec(any::<u32>(), 0..5),
        reverse in any::<bool>(),
        z in 0u8..3,
    ) {
        let config = PimAlignerConfig::baseline();
        let mapped = MappedIndex::build(&reference.to_packed(), &config);
        let oracle = mapped.index().clone();
        let mut injector = mapped.session_injector();
        let mut dpu = Dpu::new(*config.model());
        let mut ledger = CycleLedger::new();
        let len = 16.min(reference.len());
        let start = ((reference.len() - len) as f64 * start_frac) as usize;
        let mut bases = reference.subseq(start..start + len).into_bases();
        // Each code is one edit: `code % 3` substitutes, inserts or
        // deletes; the rest picks the base and the place.
        for code in edits {
            let base = Base::from_rank((code / 3 % 4) as usize);
            let at = (code / 12) as usize % bases.len();
            match code % 3 {
                0 => bases[at] = base,
                1 => bases.insert(at, base),
                _ if bases.len() > 1 => drop(bases.remove(at)),
                _ => {}
            }
        }
        let mut read = DnaSeq::from_bases(bases);
        if reverse {
            read = read.reverse_complement();
        }
        let budget = EditBudget::edits(z);
        let (hw, _) = pim_aligner::inexact_search(
            &mapped, &mut injector, &mut dpu, &read, budget, &mut ledger,
        );
        let sw = oracle.search_inexact(&read, budget);
        prop_assert_eq!(hw, sw);
    }

    /// `lfm_batch` is `lfm` per request: over request lists with repeated
    /// `(bucket, nt)` keys, sub-arrays interleaved, the sentinel's row and
    /// the boundary checkpoint `id = N`, under method I and II, clean and
    /// under a seeded campaign with stuck cells, it returns what `lfm`
    /// returns request by request, charges every op and zone the single
    /// calls charge, draws each stream's faults as its single-read replay
    /// does, and records the schedule a hand-driven `PipelineSim` makes of
    /// the same issues — round after round through the same injectors.
    #[test]
    fn lfm_batch_is_lfm_per_request(
        seed in any::<u64>(),
        mirrored in any::<bool>(),
        faulty in any::<bool>(),
        // The A, B and free rows the requests fall on, beside the
        // sentinel's.
        rows in proptest::collection::vec(0usize..256, 3..=3),
        // One request a code: two bits the stream, two the base, three
        // the row (0 = the boundary), the rest the column.
        codes in proptest::collection::vec(any::<u32>(), 1..24),
        rounds in 1usize..4,
    ) {
        let mut config = if mirrored {
            PimAlignerConfig::pipelined()
        } else {
            PimAlignerConfig::baseline()
        };
        if faulty {
            config = config.with_fault_campaign(
                FaultCampaign::seeded(seed)
                    .with_model(FaultModel::with_probabilities(0.05, 0.0))
                    .with_stuck_at_rate(1e-4)
                    .with_transient_row_rate(0.2)
                    .with_carry_fault_prob(0.1),
            );
        }
        // 65 536 rows fill two sub-arrays exactly, so `id = N` is the
        // checkpoint bucket no sub-array holds.
        let mapped = MappedIndex::build(&genome::uniform(65_535, seed % 8).to_packed(), &config);
        let oracle = mapped.index();
        let n = oracle.text_len();
        prop_assert_eq!(mapped.subarray_count(), 2);
        let buckets = [
            rows[0],
            256 + rows[1],
            2 * rows[2] + usize::from(seed & 8 != 0),
            oracle.bwt().sentinel_pos() / 128,
        ];
        let requests: Vec<LfmRequest> = codes
            .iter()
            .map(|&code| {
                let code = code as usize;
                let id = match (code >> 4) % 8 {
                    0 => n,
                    row => buckets[row % 4] * 128 + (code >> 7) % 128,
                };
                LfmRequest { stream: code % 4, nt: Base::from_rank((code >> 2) % 4), id }
            })
            .collect();
        let streams = |mapped: &MappedIndex| -> Vec<FaultInjector> {
            (0..4).map(|s| mapped.read_injector(seed ^ s)).collect()
        };
        let mut injectors = if faulty { streams(&mapped) } else { Vec::new() };
        let mut replay = streams(&mapped);
        let mut ledger = CycleLedger::new();
        let mut singles = CycleLedger::new();
        let mut scheduled = PipelineCounters::default();
        for round in 0..rounds {
            let sums = mapped.lfm_batch(&requests, &mut injectors, &mut ledger);
            let mut sim = PipelineSim::new(config.pd(), config.pipeline());
            for (k, r) in requests.iter().enumerate() {
                let single = mapped.lfm(r.nt, r.id, &mut replay[r.stream], &mut singles);
                prop_assert_eq!(sums[k], single, "round {} request {}", round, k);
                if !faulty {
                    prop_assert_eq!(single, oracle.marker_table().lfm(oracle.bwt(), r.nt, r.id));
                }
                sim.issue(r.stream);
            }
            scheduled.merge(&sim.counters());
        }
        prop_assert_eq!(ledger.primitives(), singles.primitives());
        prop_assert_eq!(ledger.zone_activations(), singles.zone_activations());
        prop_assert_eq!(ledger.pipeline_counters(), scheduled);
        prop_assert_eq!(singles.pipeline_counters(), PipelineCounters::default());
        prop_assert_eq!(ledger.kernel_cache_counters().lookups(), 0);
        for (s, injector) in injectors.iter().enumerate() {
            prop_assert_eq!(injector.counters(), replay[s].counters(), "stream {}", s);
        }
    }
}
