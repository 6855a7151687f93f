//! Exact alignment-in-memory (paper Algorithm 1).

use bioseq::DnaSeq;
use fmindex::SaInterval;
use mram::faults::FaultCampaign;
use pimsim::{CycleLedger, Dpu, FaultInjector};

use crate::mapping::MappedIndex;

/// Statistics of one exact search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactStats {
    /// `LFM` invocations issued: none for the bases a seed-table read
    /// covers (`MappedIndex::start`), then two per consumed base while the
    /// interval spans word lines and one per base once it lies inside one
    /// (`MappedIndex::step`) — about `m + log₄(N / 128) − 2·k` for a read
    /// of `m` bases that occurs once. Algorithm 1 as published issues
    /// `2 · bases_consumed`.
    pub lfm_calls: u64,
    /// Read bases consumed before success or early failure.
    pub bases_consumed: usize,
}

/// Runs Algorithm 1 on the platform: starts the DPU interval at `[0, N)`
/// — or, beyond the paper, at what the seed table holds for the read's
/// last `k` bases (`MappedIndex::start`) — walks the rest of the read
/// right-to-left, and extends the interval by each base with the
/// in-memory `LFM` procedure — one interval step a base, `LFM(low)` and
/// `LFM(high)` or, on an interval inside one word line, the one `LFM`
/// that serves both bounds — stopping early when `low ≥ high`.
///
/// The index is shared and immutable; the caller supplies the session's
/// own fault-injection stream, DPU and ledger.
///
/// Returns the final interval (empty = no exact match) plus statistics
/// for the performance model.
pub fn exact_search(
    mapped: &MappedIndex,
    injector: &mut FaultInjector,
    dpu: &mut Dpu,
    read: &DnaSeq,
    ledger: &mut CycleLedger,
) -> (SaInterval, ExactStats) {
    exact_search_recorded(mapped, injector, dpu, read, None, ledger)
}

/// The match descent of one exact search: the interval of the read's last
/// `j` bases for `j = 0`, `[0, N)`, and for every `j` from where the walk
/// took over — 1, or `k` after a level-`k` seed read — up to the last
/// base that extended: the whole read, or the one before the search
/// failed. Stage 2 starts from it instead of walking those bases again
/// (see `crate::inexact`); the depths between, which nothing walked, it
/// reads from the seed table if it needs them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Descent {
    /// The depth of `held[1]`.
    resumed: usize,
    held: Vec<(u32, u32)>,
}

impl Descent {
    /// A descent of nothing, not even `[0, N)`: a buffer to record into.
    pub(crate) fn new() -> Descent {
        Descent::default()
    }

    /// Whether nothing is recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.held.is_empty()
    }

    /// Starts the record over, overwriting what the buffer held: `[0, n)`
    /// and, if the start covered `depth > 0` bases, the `interval` it
    /// loaded for them.
    pub(crate) fn restart(&mut self, n: u32, depth: usize, interval: (u32, u32)) {
        self.held.clear();
        self.held.push((0, n));
        self.resumed = depth.max(1);
        if depth > 0 {
            self.held.push(interval);
        }
    }

    /// Records the interval of one more base.
    pub(crate) fn push(&mut self, interval: (u32, u32)) {
        self.held.push(interval);
    }

    /// Bases matched: the depth of the last interval.
    pub(crate) fn matched(&self) -> usize {
        match self.held.len() {
            0 | 1 => 0,
            held => self.resumed + held - 2,
        }
    }

    /// The interval at `depth`, if the descent holds it: `None` past its
    /// end, and at the depths a seed read skipped.
    pub(crate) fn get(&self, depth: usize) -> Option<(u32, u32)> {
        match depth {
            0 => self.held.first().copied(),
            _ if depth >= self.resumed => self.held.get(depth - self.resumed + 1).copied(),
            _ => None,
        }
    }
}

/// [`exact_search`] that also records its [`Descent`] into `descent`,
/// overwriting what the buffer held.
pub(crate) fn exact_search_recorded(
    mapped: &MappedIndex,
    injector: &mut FaultInjector,
    dpu: &mut Dpu,
    read: &DnaSeq,
    mut descent: Option<&mut Descent>,
    ledger: &mut CycleLedger,
) -> (SaInterval, ExactStats) {
    // An empty seed entry says the read does not occur, not where the
    // descent breaks: the walk from `[0, N)` finds that.
    let depth = mapped.start(read.as_slice(), dpu, ledger).unwrap_or(0);
    if let Some(descent) = descent.as_deref_mut() {
        let n = mapped.index().text_len() as u32;
        descent.restart(n, depth, (dpu.low(), dpu.high()));
    }
    let mut stats = ExactStats {
        lfm_calls: 0,
        bases_consumed: depth,
    };
    for &nt in read.iter().rev().skip(depth) {
        let interval = (dpu.low(), dpu.high());
        stats.lfm_calls += mapped.step(nt, interval, dpu, injector, ledger);
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

/// [`exact_search`] for each of `reads`, in order, read `r` drawing from
/// `injectors[r]`; an empty `injectors` slice draws no faults. Kept
/// because `benchmark/src/trace.rs` compiles against it.
pub fn exact_search_batch(
    mapped: &MappedIndex,
    injectors: &mut [FaultInjector],
    reads: &[&DnaSeq],
    ledger: &mut CycleLedger,
) -> Vec<(SaInterval, ExactStats)> {
    let mut dpu = Dpu::new(mapped.model());
    let mut clean = FaultInjector::new(FaultCampaign::none());
    let mut results = Vec::with_capacity(reads.len());
    for (r, read) in reads.iter().enumerate() {
        let injector = match injectors.get_mut(r) {
            Some(injector) => injector,
            None => &mut clean,
        };
        results.push(exact_search(mapped, injector, &mut dpu, read, ledger));
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AddMethod, PimAlignerConfig};
    use crate::inexact::tests::{arb_seq, edited_read, island_genome, island_reads};
    use pimsim::costs::LogicalOp;
    use pimsim::Resource;
    use proptest::prelude::*;
    use readsim::genome;

    fn setup(reference: &DnaSeq) -> (MappedIndex, FaultInjector, Dpu, CycleLedger) {
        let config = PimAlignerConfig::baseline();
        let mapped = MappedIndex::build(&reference.to_packed(), &config);
        let injector = mapped.session_injector();
        let dpu = Dpu::new(*config.model());
        (mapped, injector, dpu, CycleLedger::new())
    }

    /// Algorithm 1 as published — from `[0, N)`, `LFM(low)` and
    /// `LFM(high)` for every base, whatever the interval — recording the
    /// interval at every depth: the oracle the seeded start and the
    /// interval step are held to.
    fn published_search(
        mapped: &MappedIndex,
        injector: &mut FaultInjector,
        dpu: &mut Dpu,
        read: &DnaSeq,
        ledger: &mut CycleLedger,
    ) -> (SaInterval, ExactStats, Vec<(u32, u32)>) {
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
        let (interval, stats) = exact_search(&mapped, &mut injector, &mut dpu, &read, &mut ledger);
        assert_eq!(interval.count(), 1);
        assert_eq!(stats.bases_consumed, 3);
        // The paper's worked example issues six `LFM`s. `TGCTA$` is six
        // rows, all in one word line, so every step is a word-line step:
        // three issued, three bumps, the published six still accounted
        // for (four and two while only a one-row interval took one `LFM`:
        // `A` narrows the text to one row).
        assert_eq!(stats.lfm_calls, 3);
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

    /// A buffer that holds another read's descent.
    fn stale_descent() -> Descent {
        let mut stale = Descent::new();
        stale.restart(9, 3, (7, 8));
        stale.push((7, 7));
        stale
    }

    /// Checks a recorded descent against the published one: its end, the
    /// same interval at every depth it holds, and nothing held at the
    /// depths a read of level `seeded` skipped.
    fn holds_the_published_intervals(
        descent: &Descent,
        published: &[(u32, u32)],
        seeded: usize,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(descent.matched() + 1, published.len());
        for (depth, &interval) in published.iter().enumerate() {
            let held = depth == 0 || depth >= seeded;
            prop_assert_eq!(
                descent.get(depth),
                held.then_some(interval),
                "depth {}",
                depth
            );
        }
        prop_assert_eq!(descent.get(published.len()), None);
        Ok(())
    }

    /// The seeded start and the interval step against the published
    /// descent, read by read: the same interval at every step they take,
    /// the published `LFM` count accounted for, and a ledger that differs
    /// by the `LFM`s not issued, the bumps and the seed read.
    fn step_equals_published(
        reference: &DnaSeq,
        reads: &[DnaSeq],
        method: AddMethod,
    ) -> Result<(), TestCaseError> {
        let config = match method {
            AddMethod::InPlace => PimAlignerConfig::baseline(),
            AddMethod::Mirrored => PimAlignerConfig::pipelined(),
        };
        let mapped = MappedIndex::build(&reference.to_packed(), &config);
        let model = mapped.model();
        let mut injector = mapped.session_injector();
        let mut dpu = Dpu::new(model);
        for read in reads {
            let mut published = CycleLedger::new();
            let (want, want_stats, want_descent) =
                published_search(&mapped, &mut injector, &mut dpu, read, &mut published);
            let mut stepped = CycleLedger::new();
            let mut descent = stale_descent();
            let (got, stats) = exact_search_recorded(
                &mapped,
                &mut injector,
                &mut dpu,
                read,
                Some(&mut descent),
                &mut stepped,
            );
            prop_assert_eq!(got, want);
            prop_assert_eq!(stats.bases_consumed, want_stats.bases_consumed);
            // One table read if the read has `k` bases to look up, and
            // `k` steps not walked if they all extend.
            let k = mapped.seed_table().depth();
            let seed_reads = u64::from(k > 0 && read.len() >= k);
            let seeded = if seed_reads == 1 && want_descent.len() > k {
                k
            } else {
                0
            };
            prop_assert_eq!(stepped.primitives().count(LogicalOp::SeedRead), seed_reads);
            prop_assert_eq!(stepped.unissued_steps(), seeded as u64);
            holds_the_published_intervals(&descent, &want_descent, seeded)?;
            // A step the search walked from an interval inside one word
            // line issued one `LFM` and a bump, and one popcount more if
            // the interval spans two columns or more.
            let walked = &want_descent[seeded..stats.bases_consumed];
            let in_a_line =
                |&&(low, high): &&(u32, u32)| high > low && (high - 1) / 128 == low / 128;
            let bumps = walked.iter().filter(in_a_line).count() as u64;
            let spans = walked
                .iter()
                .filter(in_a_line)
                .filter(|(low, high)| high - low > 1)
                .count() as u64;
            // And a seed read a short suffix of the text moved a boundary
            // of, one bump more.
            let corrections = stepped.seed_corrections();
            prop_assert!(corrections <= seed_reads);
            prop_assert_eq!(
                stepped.primitives().count(LogicalOp::IndexBump),
                bumps + corrections
            );
            prop_assert_eq!(
                want_stats.lfm_calls,
                stats.lfm_calls + bumps + 2 * seeded as u64
            );
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
            // — one a bump, and the published walk of the `k` bases a
            // successful seed read covered — gives the published one, the
            // bumps, the spans' popcounts, the seed read and its interval
            // write over.
            let mut rebuilt = stepped.clone();
            let mut over = CycleLedger::new();
            LogicalOp::IndexBump.charge_many(&model, &mut over, bumps + corrections);
            LogicalOp::Popcount.charge_many(&model, &mut over, spans);
            LogicalOp::SeedRead.charge_many(&model, &mut over, seed_reads);
            if seeded > 0 {
                let covered = read.subseq(read.len() - seeded..read.len());
                published_search(&mapped, &mut injector, &mut dpu, &covered, &mut rebuilt);
                LogicalOp::IndexUpdate.charge(&model, &mut over);
            }
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
            for op in LogicalOp::ALL {
                prop_assert_eq!(
                    rebuilt.primitives().count(op),
                    published.primitives().count(op) + over.primitives().count(op),
                    "{:?}",
                    op
                );
            }
            for resource in Resource::ALL {
                prop_assert_eq!(
                    rebuilt.busy_cycles(resource),
                    published.busy_cycles(resource) + over.busy_cycles(resource),
                    "{:?}",
                    resource
                );
            }
            over.merge(&published);
            prop_assert_eq!(
                rebuilt.energy_pj(&model).to_bits(),
                over.energy_pj(&model).to_bits()
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// One to two sub-arrays and a seed table of two to six levels;
        /// up to eight windows.
        #[test]
        fn step_equals_the_published_descent(
            reference in arb_seq(200, 48_000),
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
    fn step_equals_the_published_descent_where_seed_entries_are_empty() {
        // Reads shorter than the table is deep, of exactly its depth, and
        // ending in 3-mers a poly-A genome with one island lacks.
        let reference = island_genome();
        let reads = island_reads();
        let mapped = MappedIndex::build(&reference.to_packed(), &PimAlignerConfig::baseline());
        assert_eq!(mapped.seed_table().depth(), 3);
        let mut ledger = CycleLedger::new();
        let mut dpu = Dpu::new(mapped.model());
        let started: Vec<Option<usize>> = reads
            .iter()
            .map(|read| mapped.start(read.as_slice(), &mut dpu, &mut ledger))
            .collect();
        assert_eq!(
            started,
            [
                Some(3),
                Some(3),
                None,
                Some(3),
                Some(3),
                None,
                Some(0),
                Some(0),
                Some(0)
            ]
        );
        assert_eq!(ledger.primitives().count(LogicalOp::SeedRead), 6);
        assert_eq!(ledger.unissued_steps(), 4 * 3);
        for method in [AddMethod::InPlace, AddMethod::Mirrored] {
            step_equals_published(&reference, &reads, method).unwrap();
        }
    }

    #[test]
    fn a_seed_read_a_short_suffix_moves_is_corrected_with_one_bump() {
        // A genome ending in `C`: its suffix `C$` sorts below every row
        // `CAAAA` prefixes and above every row `ATTTT` does, so the table's
        // boundary at `ATTTT`'s end counts one row past its interval.
        let mut bases = genome::uniform(20_000, 5).into_bases();
        let spliced: DnaSeq = "CGTAGGCATTTT".parse().unwrap();
        bases.splice(10_000..10_012, spliced.iter().copied());
        *bases.last_mut().unwrap() = bioseq::Base::C;
        let reference = DnaSeq::from_bases(bases);
        let mapped = MappedIndex::build(&reference.to_packed(), &PimAlignerConfig::baseline());
        assert_eq!(mapped.seed_table().depth(), 5);
        let mut ledger = CycleLedger::new();
        let mut dpu = Dpu::new(mapped.model());
        assert_eq!(
            mapped.start(spliced.as_slice(), &mut dpu, &mut ledger),
            Some(5)
        );
        assert_eq!(ledger.seed_corrections(), 1);
        assert_eq!(ledger.primitives().count(LogicalOp::IndexBump), 1);
        let kmer: DnaSeq = "ATTTT".parse().unwrap();
        let want = mapped.index().backward_search(&kmer).unwrap();
        assert_eq!((dpu.low(), dpu.high()), (want.low(), want.high()));
        let reads = [spliced, reference.subseq(19_990..20_000), kmer];
        for method in [AddMethod::InPlace, AddMethod::Mirrored] {
            step_equals_published(&reference, &reads, method).unwrap();
        }
    }

    #[test]
    fn platform_agrees_with_software_search_on_random_reads() {
        let reference = genome::uniform(50_000, 11);
        let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
        let oracle = mapped.index().clone();
        for start in (0..49_000).step_by(1_777) {
            let read = reference.subseq(start..start + 60);
            let (interval, _) = exact_search(&mapped, &mut injector, &mut dpu, &read, &mut ledger);
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
        let (interval, stats) = exact_search(&mapped, &mut injector, &mut dpu, &read, &mut ledger);
        assert!(interval.is_empty());
        assert_eq!(stats.bases_consumed, 1);
        // `[0, 11)` lies in one word line: one `LFM`, not the published
        // two (2 before the word-line step).
        assert_eq!(stats.lfm_calls, 1);
    }

    #[test]
    fn search_batch_is_exact_search_per_read() {
        let reference = genome::uniform(60_000, 21);
        let (mapped, mut injector, mut dpu, mut _ledger) = setup(&reference);
        // Mixed lengths, one read that ends where another does, and one
        // empty read.
        let mut reads: Vec<DnaSeq> = (0..6)
            .map(|k| reference.subseq(k * 7_919..k * 7_919 + 40 + 10 * k))
            .collect();
        reads.push(reads[5].subseq(60..90));
        reads.push("".parse().unwrap());
        let refs: Vec<&DnaSeq> = reads.iter().collect();
        let mut batch_ledger = CycleLedger::new();
        let batched = exact_search_batch(&mapped, &mut [], &refs, &mut batch_ledger);
        assert_eq!(batched.len(), reads.len());
        let mut single_ledger = CycleLedger::new();
        for (read, result) in reads.iter().zip(&batched) {
            let single = exact_search(&mapped, &mut injector, &mut dpu, read, &mut single_ledger);
            assert_eq!(*result, single);
        }
        // No two reads share a charge: the two that end alike pay for
        // the same intervals twice.
        assert_eq!(batch_ledger, single_ledger);
        assert_eq!(batch_ledger.pipeline_counters().issued, 0);
    }

    #[test]
    fn search_replays_per_read_fault_streams() {
        use mram::faults::{FaultCampaign, FaultModel};
        // A campaign under which no descent gets far, and one mild enough
        // that a long read spends most of its steps inside one word line
        // — where a step draws for one `LFM`, not two. (The mild one was
        // seeded 41 until the word-line step: its draws broke the long
        // read at base 38. Seed 1613 took it through all 200 bases until
        // the seed table grew from two levels to four at 30 kbp: its draws
        // now break it at base 86. Seed 1012 took it through all 200 with a
        // misread, a transient and a carry fault on the way until the table
        // grew to five levels with its boundaries packed: it draws no
        // misread now. Seed 2015, at three times the carry rate, takes it
        // through all 200 with a misread, a transient and a carry fault.)
        for (seed, xnor, transient, carry) in [(41, 0.02, 0.05, 0.02), (2015, 1e-4, 1e-3, 3e-3)] {
            let campaign = FaultCampaign::seeded(seed)
                .with_model(FaultModel::with_probabilities(xnor, 0.0))
                .with_transient_row_rate(transient)
                .with_carry_fault_prob(carry);
            let (long, faults) = replays_per_read_fault_streams(campaign);
            if xnor < 1e-3 {
                assert!(long.bases_consumed > 150, "{long:?}");
                assert!(long.lfm_calls < long.bases_consumed as u64 + 30, "{long:?}");
                // The replay compared a stream that drew faults, not an
                // all-zero one.
                assert!(faults.xnor_bit_flips > 0, "{faults:?}");
                assert!(faults.transient_row_faults > 0, "{faults:?}");
                assert!(faults.carry_faults > 0, "{faults:?}");
            }
        }
    }

    /// The body of the test above under one campaign; returns the stats
    /// of its 200-base read and the faults its stream injected.
    fn replays_per_read_fault_streams(
        campaign: mram::faults::FaultCampaign,
    ) -> (ExactStats, pimsim::FaultCounters) {
        let config = PimAlignerConfig::baseline().with_fault_campaign(campaign);
        let reference = genome::uniform(30_000, 23);
        let mapped = MappedIndex::build(&reference.to_packed(), &config);
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
        // The same searches one at a time, each recording its descent
        // into a buffer that holds a stale one, must replay the batch.
        let mut ledger = CycleLedger::new();
        let mut dpu = Dpu::new(mapped.model());
        for (r, read) in reads.iter().enumerate() {
            let mut oracle = mapped.read_injector(r as u64);
            let mut descent = stale_descent();
            let (expected, expected_stats) = exact_search_recorded(
                &mapped,
                &mut oracle,
                &mut dpu,
                read,
                Some(&mut descent),
                &mut ledger,
            );
            assert_eq!(batched[r], (expected, expected_stats), "read {r}");
            assert_eq!(descent.get(0), Some((0, reference.len() as u32 + 1)));
            // It ends at the last base that extended.
            let extended = expected_stats.bases_consumed - usize::from(expected.is_empty());
            assert_eq!(descent.matched(), extended, "read {r}");
            assert_eq!(injectors[r].counters(), oracle.counters(), "read {r}");
        }
        assert_eq!(ledger, batch_ledger);
        (batched[4].1, injectors[4].counters())
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
            let (interval, _) = exact_search(&mapped, &mut injector, &mut dpu, &read, &mut ledger);
            assert!(!interval.is_empty(), "boundary read at {start} failed");
            assert!(mapped.locate(interval, &mut ledger).contains(&start));
        }
    }
}
