//! Property tests: the platform is bit-exact with the software oracle on
//! arbitrary genomes and reads.

use bioseq::{Base, DnaSeq};
use fmindex::EditBudget;
use pim_aligner::{exact_search, MappedIndex, PimAlignerConfig};
use pimsim::{CycleLedger, Dpu};
use proptest::prelude::*;

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
        let mapped = MappedIndex::build(&reference, &config);
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
        let mapped = MappedIndex::build(&reference, &config);
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
        let mapped = MappedIndex::build(&reference, &config);
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
}
