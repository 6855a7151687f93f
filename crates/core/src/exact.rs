//! Exact alignment-in-memory (paper Algorithm 1).

use bioseq::DnaSeq;
use fmindex::SaInterval;
use pimsim::{CycleLedger, Dpu, FaultInjector, KernelCache};

use crate::mapping::{LfmBatchScratch, MappedIndex};

/// Statistics of one exact search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactStats {
    /// `LFM` invocations issued: two per consumed base while the interval
    /// spans several rows, one per base once it is a single row (see
    /// `MappedIndex::step`) — about `m + 2·log₄ N` for a read of `m`
    /// bases that occurs once. Algorithm 1 as published issues
    /// `2 · bases_consumed`.
    pub lfm_calls: u64,
    /// Read bases consumed before success or early failure.
    pub bases_consumed: usize,
}

/// Runs Algorithm 1 on the platform: initialises the DPU interval to
/// `[0, N)`, walks the read right-to-left, and extends the interval by
/// each base with the in-memory `LFM` procedure — one interval step a
/// base, `LFM(low)` and `LFM(high)` or, on a one-row interval, the one
/// `LFM` that serves both bounds — stopping early when `low ≥ high`.
///
/// The index is shared and immutable; the caller supplies the session's
/// own fault-injection stream, DPU and ledger, and optionally its
/// rank-checkpoint cache, which is threaded into every `LFM` (see
/// [`MappedIndex::lfm_cached`]) and never changes a result or a charge.
///
/// Returns the final interval (empty = no exact match) plus statistics
/// for the performance model.
pub fn exact_search(
    mapped: &MappedIndex,
    injector: &mut FaultInjector,
    dpu: &mut Dpu,
    read: &DnaSeq,
    cache: Option<&mut KernelCache>,
    ledger: &mut CycleLedger,
) -> (SaInterval, ExactStats) {
    exact_search_recorded(mapped, injector, dpu, read, cache, None, ledger)
}

/// The match descent of one exact search: `descent[j]` is the interval of
/// the read's last `j` bases, from `[0, N)` at `j = 0` up to the last base
/// that extended — the whole read, or the one before the search failed.
/// Stage 2 starts from it instead of walking those bases again (see
/// `crate::inexact`).
pub(crate) type Descent = Vec<(u32, u32)>;

/// [`exact_search`] that also records its [`Descent`] into `descent`,
/// overwriting what the buffer held.
pub(crate) fn exact_search_recorded(
    mapped: &MappedIndex,
    injector: &mut FaultInjector,
    dpu: &mut Dpu,
    read: &DnaSeq,
    mut cache: Option<&mut KernelCache>,
    mut descent: Option<&mut Descent>,
    ledger: &mut CycleLedger,
) -> (SaInterval, ExactStats) {
    dpu.init_interval(mapped.index().text_len() as u32, ledger);
    if let Some(descent) = descent.as_deref_mut() {
        descent.clear();
        descent.push((dpu.low(), dpu.high()));
    }
    let mut stats = ExactStats {
        lfm_calls: 0,
        bases_consumed: 0,
    };
    for &nt in read.iter().rev() {
        let t_lfm = dpu.tracer().start(ledger);
        let interval = (dpu.low(), dpu.high());
        stats.lfm_calls += mapped.step(nt, interval, dpu, injector, cache.as_deref_mut(), ledger);
        dpu.tracer_mut().record("lfm", t_lfm, ledger);
        stats.bases_consumed += 1;
        let (low, high) = (dpu.low(), dpu.high());
        if dpu.interval_empty() {
            // Algorithm 1: "if low ≥ high, it has failed to find a match".
            return (SaInterval::new(low, low), stats);
        }
        if let Some(descent) = descent.as_deref_mut() {
            descent.push((low, high));
        }
    }
    (SaInterval::new(dpu.low(), dpu.high()), stats)
}

/// Runs Algorithm 1 for `reads.len()` reads in lock-step through the
/// batched kernel: at each step every still-active read contributes its
/// `low` then — unless its interval is one row — its `high` LFM request
/// (read order), and the whole step executes as one batch so plane loads
/// shared across reads are charged once. Results and statistics are
/// bit-identical to running [`exact_search`] per read — including under
/// seeded faults when `injectors` holds one per-read injector (indexed
/// by read; pass an empty slice for a clean run), because the per-read
/// draw order (low before high, steps ascending) is preserved.
///
/// Each read gets its own transient DPU (interval registers), charged
/// exactly like the single-read path: one `IndexUpdate` at
/// initialisation, one per consumed step, one `IndexBump` per one-row
/// step. Reads drop out of the batch on early failure (`low ≥ high`) or
/// exhaustion, exactly like the single-read early exit.
pub fn exact_search_batch(
    mapped: &MappedIndex,
    injectors: &mut [FaultInjector],
    reads: &[&DnaSeq],
    ledger: &mut CycleLedger,
) -> Vec<(SaInterval, ExactStats)> {
    exact_search_batch_cached(mapped, injectors, reads, None, &mut [], ledger)
}

/// [`exact_search_batch`] with an optional rank-checkpoint cache (see
/// [`MappedIndex::lfm_batch_into`]) — results, statistics and all
/// simulated charges are byte-identical with and without it — and, when
/// `descents` holds one buffer per read (pass an empty slice to record
/// none), each read's [`Descent`] written into its buffer, equal to what
/// [`exact_search_recorded`] records for that read.
pub(crate) fn exact_search_batch_cached(
    mapped: &MappedIndex,
    injectors: &mut [FaultInjector],
    reads: &[&DnaSeq],
    mut cache: Option<&mut KernelCache>,
    descents: &mut [Descent],
    ledger: &mut CycleLedger,
) -> Vec<(SaInterval, ExactStats)> {
    debug_assert!(descents.is_empty() || descents.len() >= reads.len());
    let n = mapped.index().text_len() as u32;
    let mut dpus: Vec<Dpu> = (0..reads.len()).map(|_| Dpu::new(mapped.model())).collect();
    let mut lfm_calls = vec![0u64; reads.len()];
    let mut bases_consumed = vec![0usize; reads.len()];
    let mut results: Vec<Option<SaInterval>> = vec![None; reads.len()];
    // Right-to-left base order per read, indexable by step.
    let suffixes: Vec<Vec<bioseq::Base>> = reads
        .iter()
        .map(|r| r.iter().rev().copied().collect())
        .collect();
    for (r, dpu) in dpus.iter_mut().enumerate() {
        dpu.init_interval(n, ledger);
        if let Some(descent) = descents.get_mut(r) {
            descent.clear();
            descent.push((0, n));
        }
        if suffixes[r].is_empty() {
            results[r] = Some(SaInterval::new(dpu.low(), dpu.high()));
        }
    }
    let max_len = suffixes.iter().map(Vec::len).max().unwrap_or(0);
    let mut steps = Vec::new();
    let mut scratch = LfmBatchScratch::new();
    for step in 0..max_len {
        steps.clear();
        for (r, suffix) in suffixes.iter().enumerate() {
            if results[r].is_none() {
                steps.push((r, suffix[step]));
            }
        }
        if steps.is_empty() {
            break;
        }
        mapped.step_batch(
            &steps,
            &mut dpus,
            &mut lfm_calls,
            injectors,
            cache.as_deref_mut(),
            ledger,
            &mut scratch,
        );
        for &(r, _) in &steps {
            bases_consumed[r] += 1;
            let (low, high) = (dpus[r].low(), dpus[r].high());
            if dpus[r].interval_empty() {
                // Algorithm 1: "if low ≥ high, it has failed to find a
                // match".
                results[r] = Some(SaInterval::new(low, low));
                continue;
            }
            if let Some(descent) = descents.get_mut(r) {
                descent.push((low, high));
            }
            if step + 1 == suffixes[r].len() {
                results[r] = Some(SaInterval::new(low, high));
            }
        }
    }
    results
        .into_iter()
        .zip(lfm_calls.into_iter().zip(bases_consumed))
        .map(|(interval, (lfm_calls, bases_consumed))| {
            let stats = ExactStats {
                lfm_calls,
                bases_consumed,
            };
            (interval.expect("every read resolves"), stats)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AddMethod, PimAlignerConfig};
    use crate::inexact::tests::{arb_seq, edited_read};
    use pimsim::costs::LogicalOp;
    use pimsim::Resource;
    use proptest::prelude::*;
    use readsim::genome;

    fn setup(reference: &DnaSeq) -> (MappedIndex, FaultInjector, Dpu, CycleLedger) {
        let config = PimAlignerConfig::baseline();
        let mapped = MappedIndex::build(reference, &config);
        let injector = mapped.session_injector();
        let dpu = Dpu::new(*config.model());
        (mapped, injector, dpu, CycleLedger::new())
    }

    /// Algorithm 1 as published — `LFM(low)` and `LFM(high)` for every
    /// base, whatever the interval — recording its descent: the oracle
    /// the interval step is held to.
    fn published_search(
        mapped: &MappedIndex,
        injector: &mut FaultInjector,
        dpu: &mut Dpu,
        read: &DnaSeq,
        ledger: &mut CycleLedger,
    ) -> (SaInterval, ExactStats, Descent) {
        dpu.init_interval(mapped.index().text_len() as u32, ledger);
        let mut descent = vec![(dpu.low(), dpu.high())];
        let mut stats = ExactStats {
            lfm_calls: 0,
            bases_consumed: 0,
        };
        for &nt in read.iter().rev() {
            let low = mapped.lfm(nt, dpu.low() as usize, injector, ledger);
            let high = mapped.lfm(nt, dpu.high() as usize, injector, ledger);
            dpu.set_interval(low, high, ledger);
            stats.lfm_calls += 2;
            stats.bases_consumed += 1;
            if dpu.interval_empty() {
                return (SaInterval::new(low, low), stats, descent);
            }
            descent.push((low, high));
        }
        (SaInterval::new(dpu.low(), dpu.high()), stats, descent)
    }

    #[test]
    fn paper_example_cta() {
        let reference: DnaSeq = "TGCTA".parse().unwrap();
        let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
        let read: DnaSeq = "CTA".parse().unwrap();
        let (interval, stats) =
            exact_search(&mapped, &mut injector, &mut dpu, &read, None, &mut ledger);
        assert_eq!(interval.count(), 1);
        assert_eq!(stats.bases_consumed, 3);
        // The paper's worked example issues six `LFM`s. `A` narrows
        // `TGCTA$` to one row, so `T` and `C` are one-row steps here: four
        // issued, two bumps, the published six still accounted for.
        assert_eq!(stats.lfm_calls, 4);
        let bumps = ledger.primitives().count(LogicalOp::IndexBump);
        assert_eq!(stats.lfm_calls + bumps, 6);
        let (published, published_stats, _) =
            published_search(&mapped, &mut injector, &mut dpu, &read, &mut ledger);
        assert_eq!(published, interval);
        assert_eq!(published_stats.lfm_calls, 6);
        assert_eq!(mapped.locate(interval, &mut ledger), vec![2]);
    }

    /// A window of `reference` of 1–100 bases with 0–3 edits, on either
    /// strand, all decoded from `pick`.
    fn window_from(reference: &DnaSeq, pick: u64) -> DnaSeq {
        let mut x = pick | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let len = 1 + (next() % 100) as usize;
        let start_frac = (next() % 1_000) as f64 / 1_000.0;
        let edits: Vec<u32> = (0..next() % 4).map(|_| next() as u32).collect();
        edited_read(reference, start_frac, len, &edits, next() & 1 == 1)
    }

    /// The interval step against the published descent, read by read:
    /// the same interval at every step, the published `LFM` count
    /// accounted for, and a ledger that differs by the `LFM`s not issued
    /// and the bumps. Then the same searches cached, and in lock-step at
    /// three widths, against those.
    fn step_equals_published(
        reference: &DnaSeq,
        reads: &[DnaSeq],
        method: AddMethod,
    ) -> Result<(), TestCaseError> {
        let config = match method {
            AddMethod::InPlace => PimAlignerConfig::baseline(),
            AddMethod::Mirrored => PimAlignerConfig::pipelined(),
        };
        let mapped = MappedIndex::build(reference, &config);
        let model = mapped.model();
        let mut injector = mapped.session_injector();
        let mut dpu = Dpu::new(model);
        let mut cache = KernelCache::new();
        let mut singles = Vec::new();
        let mut singles_ledger = CycleLedger::new();
        for read in reads {
            let mut published = CycleLedger::new();
            let (want, want_stats, want_descent) =
                published_search(&mapped, &mut injector, &mut dpu, read, &mut published);
            let mut stepped = CycleLedger::new();
            let mut descent = vec![(9, 9)];
            let (got, stats) = exact_search_recorded(
                &mapped,
                &mut injector,
                &mut dpu,
                read,
                None,
                Some(&mut descent),
                &mut stepped,
            );
            prop_assert_eq!(got, want);
            prop_assert_eq!(&descent, &want_descent);
            prop_assert_eq!(stats.bases_consumed, want_stats.bases_consumed);
            let bumps = stepped.primitives().count(LogicalOp::IndexBump);
            prop_assert_eq!(want_stats.lfm_calls, stats.lfm_calls + bumps);
            prop_assert_eq!(want_stats.lfm_calls, 2 * stats.bases_consumed as u64);
            prop_assert_eq!(
                stepped.primitives().count(LogicalOp::ImAdd32),
                stats.lfm_calls
            );
            prop_assert_eq!(
                stepped.primitives().total_cycles(),
                stepped.total_busy_cycles()
            );

            // Charging the `LFM`s not issued on top of the stepped ledger
            // gives the published one, the bumps over.
            let mut rebuilt = stepped.clone();
            for op in [
                LogicalOp::XnorMatch,
                LogicalOp::Popcount,
                LogicalOp::MarkerRead,
                LogicalOp::ImAdd32,
            ] {
                op.charge_many(&model, &mut rebuilt, bumps);
            }
            if method == AddMethod::Mirrored {
                LogicalOp::RowWrite.charge_many(&model, &mut rebuilt, 7 * bumps);
            }
            let mut bumped = CycleLedger::new();
            LogicalOp::IndexBump.charge_many(&model, &mut bumped, bumps);
            for op in LogicalOp::ALL {
                prop_assert_eq!(
                    rebuilt.primitives().count(op),
                    published.primitives().count(op) + bumped.primitives().count(op),
                    "{:?}",
                    op
                );
            }
            for resource in Resource::ALL {
                prop_assert_eq!(
                    rebuilt.busy_cycles(resource),
                    published.busy_cycles(resource) + bumped.busy_cycles(resource),
                    "{:?}",
                    resource
                );
            }
            let energy = published.energy_pj(&model) + bumped.energy_pj(&model);
            prop_assert_eq!(rebuilt.energy_pj(&model).to_bits(), energy.to_bits());

            let mut cached = CycleLedger::new();
            let mut cached_descent = Descent::new();
            let (again, again_stats) = exact_search_recorded(
                &mapped,
                &mut injector,
                &mut dpu,
                read,
                Some(&mut cache),
                Some(&mut cached_descent),
                &mut cached,
            );
            prop_assert_eq!((again, again_stats), (got, stats));
            prop_assert_eq!(&cached_descent, &descent);
            prop_assert!(cached == stepped, "the cache moved a charge");

            singles_ledger.merge(&stepped);
            singles.push((got, stats, descent));
        }
        for width in [1, 3, 8] {
            let mut ledgers = [CycleLedger::new(), CycleLedger::new()];
            for (cached, ledger) in ledgers.iter_mut().enumerate() {
                let mut descents = vec![Descent::new(); width];
                for (g, group) in reads.chunks(width).enumerate() {
                    let refs: Vec<&DnaSeq> = group.iter().collect();
                    let batched = exact_search_batch_cached(
                        &mapped,
                        &mut [],
                        &refs,
                        (cached == 1).then_some(&mut cache),
                        &mut descents,
                        ledger,
                    );
                    for (k, result) in batched.iter().enumerate() {
                        let (want, want_stats, want_descent) = &singles[g * width + k];
                        prop_assert_eq!(result, &(*want, *want_stats), "width {}", width);
                        prop_assert_eq!(&descents[k], want_descent, "width {}", width);
                    }
                }
                // What grouping requests may not move (a wider batch
                // shares plane loads: XNOR and marker charges shrink).
                for op in [
                    LogicalOp::Popcount,
                    LogicalOp::ImAdd32,
                    LogicalOp::IndexUpdate,
                    LogicalOp::IndexBump,
                    LogicalOp::RowWrite,
                ] {
                    prop_assert_eq!(
                        ledger.primitives().count(op),
                        singles_ledger.primitives().count(op),
                        "{:?} at width {}",
                        op,
                        width
                    );
                }
            }
            prop_assert!(ledgers[0] == ledgers[1], "the cache moved a charge");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// One to two sub-arrays; up to eight windows, so that the widest
        /// batch fills.
        #[test]
        fn step_equals_the_published_descent(
            reference in arb_seq(200, 40_000),
            picks in proptest::collection::vec(any::<u64>(), 1..=8),
            mirrored in any::<bool>(),
        ) {
            let reads: Vec<DnaSeq> =
                picks.iter().map(|&pick| window_from(&reference, pick)).collect();
            let method = if mirrored { AddMethod::Mirrored } else { AddMethod::InPlace };
            step_equals_published(&reference, &reads, method)?;
        }
    }

    #[test]
    fn step_equals_the_published_descent_on_the_edge_reads() {
        // The empty and the 1-base reads of `tests/edge_cases.rs`, a read
        // that is the whole reference, and one longer than it.
        let reference: DnaSeq = "TGCTA".parse().unwrap();
        let reads: Vec<DnaSeq> = ["", "A", "C", "TGCTA", "TGCTAA", "GG"]
            .iter()
            .map(|r| r.parse().unwrap())
            .collect();
        for method in [AddMethod::InPlace, AddMethod::Mirrored] {
            step_equals_published(&reference, &reads, method).unwrap();
            step_equals_published(&"A".parse().unwrap(), &reads, method).unwrap();
        }
    }

    #[test]
    fn platform_agrees_with_software_search_on_random_reads() {
        let reference = genome::uniform(50_000, 11);
        let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
        let oracle = mapped.index().clone();
        for start in (0..49_000).step_by(1_777) {
            let read = reference.subseq(start..start + 60);
            let (interval, _) =
                exact_search(&mapped, &mut injector, &mut dpu, &read, None, &mut ledger);
            let sw = oracle.backward_search(&read);
            match sw {
                Some(expected) => assert_eq!(interval, expected, "read at {start}"),
                None => assert!(interval.is_empty()),
            }
        }
    }

    #[test]
    fn early_exit_saves_lfm_calls() {
        // A read whose suffix never occurs fails immediately.
        let reference: DnaSeq = "AAAAAAAAAA".parse().unwrap();
        let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
        let read: DnaSeq = "AAAAAAAACT".parse().unwrap(); // rightmost T absent
        let (interval, stats) =
            exact_search(&mapped, &mut injector, &mut dpu, &read, None, &mut ledger);
        assert!(interval.is_empty());
        assert_eq!(stats.bases_consumed, 1);
        assert_eq!(stats.lfm_calls, 2);
    }

    #[test]
    fn batched_search_matches_single_reads_exactly() {
        let reference = genome::uniform(60_000, 21);
        let (mapped, mut injector, mut dpu, mut _ledger) = setup(&reference);
        // Mixed lengths + one guaranteed miss + one empty read.
        let mut reads: Vec<DnaSeq> = (0..6)
            .map(|k| reference.subseq(k * 7_919..k * 7_919 + 40 + 10 * k))
            .collect();
        reads.push("".parse().unwrap());
        let refs: Vec<&DnaSeq> = reads.iter().collect();
        let mut batch_ledger = CycleLedger::new();
        let batched = exact_search_batch(&mapped, &mut [], &refs, &mut batch_ledger);
        assert_eq!(batched.len(), reads.len());
        let mut single_ledger = CycleLedger::new();
        for (read, (interval, stats)) in reads.iter().zip(&batched) {
            let (expected, expected_stats) = exact_search(
                &mapped,
                &mut injector,
                &mut dpu,
                read,
                None,
                &mut single_ledger,
            );
            assert_eq!(*interval, expected);
            assert_eq!(*stats, expected_stats);
        }
        // The lock-step batch shares early-step plane loads (every read
        // starts from [0, N), so step 0 groups collapse hard).
        assert!(batch_ledger.total_busy_cycles() < single_ledger.total_busy_cycles());
        // ...but issues exactly the same per-request LFM work.
        for op in [
            LogicalOp::Popcount,
            LogicalOp::ImAdd32,
            LogicalOp::IndexUpdate,
            LogicalOp::IndexBump,
        ] {
            assert_eq!(
                batch_ledger.primitives().count(op),
                single_ledger.primitives().count(op),
                "{op:?} must reconcile exactly"
            );
        }
    }

    #[test]
    fn batched_search_replays_per_read_fault_streams() {
        use mram::faults::{FaultCampaign, FaultModel};
        // A campaign under which no descent gets far, and one mild enough
        // that a long read spends most of its steps on a one-row interval
        // — where a step draws for one `LFM`, not two.
        for (xnor, transient, carry) in [(0.02, 0.05, 0.02), (1e-4, 1e-3, 1e-3)] {
            let campaign = FaultCampaign::seeded(41)
                .with_model(FaultModel::with_probabilities(xnor, 0.0))
                .with_transient_row_rate(transient)
                .with_carry_fault_prob(carry);
            let long = replays_per_read_fault_streams(campaign);
            if xnor < 1e-3 {
                assert!(long.bases_consumed > 150, "{long:?}");
                assert!(long.lfm_calls < long.bases_consumed as u64 + 30, "{long:?}");
            }
        }
    }

    /// The body of the test above under one campaign; returns the stats
    /// of its 200-base read.
    fn replays_per_read_fault_streams(campaign: mram::faults::FaultCampaign) -> ExactStats {
        let config = PimAlignerConfig::baseline().with_fault_campaign(campaign);
        let reference = genome::uniform(30_000, 23);
        let mapped = MappedIndex::build(&reference, &config);
        let mut reads: Vec<DnaSeq> = (0..4)
            .map(|k| reference.subseq(k * 5_003..k * 5_003 + 50))
            .collect();
        reads.push(reference.subseq(9_000..9_200));
        // One whose descent breaks whatever the campaign draws, and one
        // with nothing to descend.
        let mut bases = reference.subseq(20_000..20_050).into_bases();
        bases[25] = bioseq::Base::from_rank((bases[25].rank() + 1) % 4);
        reads.push(DnaSeq::from_bases(bases));
        reads.push(DnaSeq::from_bases(Vec::new()));
        let refs: Vec<&DnaSeq> = reads.iter().collect();
        let fresh_injectors = || -> Vec<FaultInjector> {
            (0..reads.len())
                .map(|r| mapped.read_injector(r as u64))
                .collect()
        };
        let mut injectors = fresh_injectors();
        let mut batch_ledger = CycleLedger::new();
        let batched = exact_search_batch(&mapped, &mut injectors, &refs, &mut batch_ledger);
        assert_eq!(batch_ledger.kernel_cache_counters().lookups(), 0);
        // Cached leg: the batch and the single-read oracle below share
        // one rank-checkpoint cache and must replay the uncached batch.
        // It records its descents, into buffers that hold stale ones.
        let mut cache = KernelCache::new();
        let mut cached_injectors = fresh_injectors();
        let mut cached_ledger = CycleLedger::new();
        let mut descents = vec![vec![(1, 2), (3, 4)]; reads.len()];
        let cached = exact_search_batch_cached(
            &mapped,
            &mut cached_injectors,
            &refs,
            Some(&mut cache),
            &mut descents,
            &mut cached_ledger,
        );
        assert_eq!(cached, batched);
        assert_eq!(cached_ledger, batch_ledger);
        let mut ledger = CycleLedger::new();
        for (r, read) in reads.iter().enumerate() {
            let mut oracle = mapped.read_injector(r as u64);
            let mut dpu = Dpu::new(mapped.model());
            let mut descent = Descent::new();
            let (expected, expected_stats) = exact_search_recorded(
                &mapped,
                &mut oracle,
                &mut dpu,
                read,
                Some(&mut cache),
                Some(&mut descent),
                &mut ledger,
            );
            assert_eq!(batched[r], (expected, expected_stats), "read {r}");
            assert_eq!(descents[r], descent, "read {r}");
            assert_eq!(descent[0], (0, reference.len() as u32 + 1), "read {r}");
            // One interval per base that extended.
            let extended = expected_stats.bases_consumed - usize::from(expected.is_empty());
            assert_eq!(descent.len(), 1 + extended, "read {r}");
            assert_eq!(injectors[r].counters(), oracle.counters(), "read {r}");
            assert_eq!(
                cached_injectors[r].counters(),
                oracle.counters(),
                "read {r}"
            );
        }
        assert!(ledger.kernel_cache_counters().hits > 0);
        batched[4].1
    }

    #[test]
    fn multi_subarray_reads_cross_boundaries() {
        // Genome spanning 3 sub-arrays; reads straddling 32768-base
        // boundaries must still match.
        let reference = genome::uniform(80_000, 13);
        let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
        assert!(mapped.subarray_count() >= 3);
        for &start in &[32_700usize, 32_760, 65_500] {
            let read = reference.subseq(start..start + 100);
            let (interval, _) =
                exact_search(&mapped, &mut injector, &mut dpu, &read, None, &mut ledger);
            assert!(!interval.is_empty(), "boundary read at {start} failed");
            assert!(mapped.locate(interval, &mut ledger).contains(&start));
        }
    }
}
