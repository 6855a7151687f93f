//! Host-parallel batch alignment over one shared platform.
//!
//! The simulated chip is internally parallel (144 pipeline units, see the
//! performance model); this module parallelises the *simulation itself*
//! across host threads so large batches evaluate faster. All workers
//! share the one [`Platform`] — [`MappedIndex`](crate::MappedIndex) is
//! built exactly once per run, never per worker — and each spawns its own
//! [`AlignSession`](crate::AlignSession) holding the mutable per-worker
//! state (DPU, ledger, fault counters; every fault draw is keyed by the
//! read's global index, never by the worker). Threads model disjoint
//! groups of sub-array pipelines working on disjoint reads — exactly the
//! paper's partitioning — and the ledgers and fault telemetry merge
//! afterwards, so the performance report is identical to a sequential
//! run.
//!
//! Work is distributed dynamically: an atomic cursor hands out small
//! chunks, so a worker that drew cheap reads steals the next chunk
//! instead of idling behind a worker stuck on expensive backtracking.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use bioseq::DnaSeq;
use parking_lot::Mutex;
use pimsim::{CycleLedger, HostHistogram, WorkerStats};

use crate::aligner::{AlignmentOutcome, BatchResult, MappedStrand};
use crate::config::PimAlignerConfig;
use crate::error::AlignError;
use crate::host::{HostTotals, HostTraceConfig};
use crate::metrics::PhaseLfm;
use crate::platform::Platform;
use crate::report::{FaultTelemetry, PerfReport};

/// A read's fault-stream token is its index in the call's batch;
/// successive streaming chunks (epochs) shift by this stride so chunk 1's
/// read 0 does not replay chunk 0's read 0.
const EPOCH_STRIDE: u64 = 65_536;

/// Mergeable accounting for a (possibly streamed) parallel alignment:
/// read/query counters, the merged alignment-time ledger and the
/// session-side fault telemetry.
///
/// Totals accumulate across chunks via [`BatchTotals::merge`];
/// [`Platform::batch_report`] turns the final totals into a
/// [`PerfReport`], adding the platform's one-time build fault counters
/// exactly once.
#[derive(Debug, Clone)]
pub struct BatchTotals {
    /// Input reads aligned (each read counts once, whichever strands
    /// were tried).
    pub reads: u64,
    /// `align_read` invocations (≥ `reads`; the both-strands path may
    /// try a read twice).
    pub queries: u64,
    /// Cumulative `LFM` invocations.
    pub lfm_calls: u64,
    /// Reads resolved by the exact stage. A read that maps exactly on
    /// either strand counts once.
    pub exact_hits: u64,
    /// Merged alignment-time cycle/energy ledger across all workers.
    pub ledger: CycleLedger,
    /// Merged session telemetry (injection + recovery counters); the
    /// platform's one-time build counters are *not* included — they are
    /// added once by [`Platform::batch_report`].
    pub telemetry: FaultTelemetry,
    /// Merged per-phase `LFM` attribution; always sums to `lfm_calls`.
    pub phase_lfm: PhaseLfm,
    /// Merged host-side (wall-clock) telemetry: per-read/per-chunk
    /// latency histograms, worker utilisation and — when tracing was
    /// enabled — wall-clock spans. Nondeterministic; never feeds the
    /// simulated quantities above.
    pub host: HostTotals,
}

impl BatchTotals {
    /// Empty totals, ready to merge into.
    pub fn new() -> BatchTotals {
        BatchTotals {
            reads: 0,
            queries: 0,
            lfm_calls: 0,
            exact_hits: 0,
            ledger: CycleLedger::new(),
            telemetry: FaultTelemetry::default(),
            phase_lfm: PhaseLfm::default(),
            host: HostTotals::new(),
        }
    }

    /// Accumulates another chunk's totals into this one.
    pub fn merge(&mut self, other: &BatchTotals) {
        self.reads += other.reads;
        self.queries += other.queries;
        self.lfm_calls += other.lfm_calls;
        self.exact_hits += other.exact_hits;
        self.ledger.merge(&other.ledger);
        self.telemetry.merge(&other.telemetry);
        self.phase_lfm.merge(&other.phase_lfm);
        self.host.merge(&other.host);
    }

    /// Fraction of *reads* resolved by the exact stage (paper §III).
    ///
    /// Normalised per read, not per `align_read` call: on the
    /// both-strands path a reverse-mapped read issues two queries but is
    /// still one read, and dividing by queries would understate the
    /// stage-1 rate.
    pub fn exact_fraction(&self) -> f64 {
        self.exact_hits as f64 / self.reads as f64
    }
}

impl Default for BatchTotals {
    fn default() -> Self {
        BatchTotals::new()
    }
}

struct WorkerOut {
    /// Claimed chunks as `(start_index, outcomes)`, reassembled into
    /// input order after the scope joins.
    chunks: Vec<(usize, Vec<(AlignmentOutcome, MappedStrand)>)>,
    totals: BatchTotals,
}

fn run_workers(
    platform: &Platform,
    reads: &[DnaSeq],
    threads: usize,
    both_strands: bool,
    epoch: u64,
    host_trace: Option<&HostTraceConfig>,
) -> Result<(Vec<(AlignmentOutcome, MappedStrand)>, BatchTotals), AlignError> {
    if reads.is_empty() {
        return Err(AlignError::EmptyBatch);
    }
    if threads == 0 {
        return Err(AlignError::NoThreads);
    }
    let threads = threads.min(reads.len());
    // Dynamic chunking: ~4 chunks per worker so stragglers rebalance,
    // one chunk total when sequential (no stealing possible).
    let grain = if threads == 1 {
        reads.len()
    } else {
        reads.len().div_ceil(threads * 4).max(1)
    };
    // A worker's "fair share" of chunks under static round-robin; any
    // chunk claimed beyond it was stolen from a slower worker.
    let fair_share = reads.len().div_ceil(grain).div_ceil(threads) as u64;

    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<WorkerOut>> = Mutex::new(Vec::with_capacity(threads));
    let region_t0 = Instant::now();
    let scope_result = crossbeam::scope(|scope| {
        for w in 0..threads {
            let cursor = &cursor;
            let collected = &collected;
            scope.spawn(move |_| {
                let mut session = platform.session();
                if let Some(cfg) = host_trace {
                    session.enable_host_tracing(cfg.epoch, w as u32, cfg.capacity_per_worker);
                }
                let mut chunks = Vec::new();
                let mut reads_done = 0u64;
                let mut per_chunk = HostHistogram::new();
                let mut stats = WorkerStats {
                    worker: w as u32,
                    ..WorkerStats::default()
                };
                loop {
                    let start = cursor.fetch_add(grain, Ordering::Relaxed);
                    if start >= reads.len() {
                        break;
                    }
                    let end = (start + grain).min(reads.len());
                    let chunk_t0 = Instant::now();
                    let h_chunk = session.host_start();
                    // The chunk's fault-stream tokens are the global
                    // read indices, so faulted output is invariant to
                    // the worker count.
                    let first_token = epoch * EPOCH_STRIDE + start as u64;
                    let outcomes =
                        session.align_group(&reads[start..end], first_token, both_strands);
                    session.host_record("chunk", h_chunk);
                    let chunk_ns = chunk_t0.elapsed().as_nanos() as u64;
                    per_chunk.record_ns(chunk_ns);
                    stats.busy_ns += chunk_ns;
                    stats.chunks_claimed += 1;
                    reads_done += outcomes.len() as u64;
                    chunks.push((start, outcomes));
                }
                stats.steals = stats.chunks_claimed.saturating_sub(fair_share);
                stats.reads = reads_done;
                let mut host = HostTotals::new();
                host.per_read = session.host_histogram().clone();
                host.per_chunk = per_chunk;
                host.absorb_worker(stats);
                let (spans, dropped) = session.take_host_spans();
                host.absorb_spans(spans, dropped);
                collected.lock().push(WorkerOut {
                    chunks,
                    totals: BatchTotals {
                        reads: reads_done,
                        queries: session.queries(),
                        lfm_calls: session.lfm_calls(),
                        exact_hits: session.exact_hits(),
                        ledger: session.ledger().clone(),
                        telemetry: session.session_telemetry(),
                        phase_lfm: session.phase_lfm(),
                        host,
                    },
                });
            });
        }
    });
    if let Err(payload) = scope_result {
        // A worker panicked: re-raise its panic rather than invent a
        // result (the payload keeps the original message).
        std::panic::resume_unwind(payload);
    }
    let region_ns = region_t0.elapsed().as_nanos() as u64;

    let workers = collected.into_inner();
    let mut totals = BatchTotals::new();
    let mut chunks: Vec<(usize, Vec<(AlignmentOutcome, MappedStrand)>)> = Vec::new();
    for w in workers {
        totals.merge(&w.totals);
        chunks.extend(w.chunks);
    }
    // Workers report busy time only; the parallel region's wall time is
    // measured once, around the whole scope.
    totals.host.wall_ns = region_ns;
    chunks.sort_by_key(|&(start, _)| start);
    let mut outcomes = Vec::with_capacity(reads.len());
    for (_, chunk) in chunks {
        outcomes.extend(chunk);
    }
    assert_eq!(outcomes.len(), reads.len(), "every read exactly once");
    assert_eq!(totals.reads, reads.len() as u64);
    // Cross-path accounting consistency: forward-only issues exactly one
    // query per read; both-strands at most two.
    assert!(
        totals.queries >= totals.reads && totals.queries <= 2 * totals.reads,
        "query count {} inconsistent with {} reads",
        totals.queries,
        totals.reads
    );
    if !both_strands {
        assert_eq!(totals.queries, totals.reads);
    }
    Ok((outcomes, totals))
}

impl Platform {
    /// Aligns one chunk of reads across `threads` shared-platform worker
    /// sessions, returning per-read `(outcome, strand)` pairs in input
    /// order plus the chunk's mergeable [`BatchTotals`].
    ///
    /// This is the streaming building block: callers accumulate totals
    /// over chunks (`epoch` decorrelates the fault streams between
    /// chunks) and produce one report at the end with
    /// [`Platform::batch_report`].
    ///
    /// # Errors
    ///
    /// [`AlignError::EmptyBatch`] when `reads` is empty,
    /// [`AlignError::NoThreads`] when `threads == 0`.
    pub fn align_chunk_parallel(
        &self,
        reads: &[DnaSeq],
        threads: usize,
        epoch: u64,
        both_strands: bool,
    ) -> Result<(Vec<(AlignmentOutcome, MappedStrand)>, BatchTotals), AlignError> {
        run_workers(self, reads, threads, both_strands, epoch, None)
    }

    /// [`Platform::align_chunk_parallel`] with wall-clock span tracing:
    /// each worker records host spans (chunks, alignment phases,
    /// recovery rungs) against `trace.epoch` on its own track, collected
    /// into the returned totals' [`BatchTotals::host`] for Chrome-trace
    /// export. The simulated-cycle accounting is unaffected — tracing
    /// only reads the host clock.
    ///
    /// # Errors
    ///
    /// [`AlignError::EmptyBatch`] when `reads` is empty,
    /// [`AlignError::NoThreads`] when `threads == 0`.
    pub fn align_chunk_parallel_traced(
        &self,
        reads: &[DnaSeq],
        threads: usize,
        epoch: u64,
        both_strands: bool,
        trace: &HostTraceConfig,
    ) -> Result<(Vec<(AlignmentOutcome, MappedStrand)>, BatchTotals), AlignError> {
        run_workers(self, reads, threads, both_strands, epoch, Some(trace))
    }

    /// Aligns `reads` (forward strand only) using `threads` worker
    /// sessions over this shared platform.
    ///
    /// # Errors
    ///
    /// [`AlignError::EmptyBatch`] when `reads` is empty,
    /// [`AlignError::NoThreads`] when `threads == 0`.
    pub fn align_batch_parallel(
        &self,
        reads: &[DnaSeq],
        threads: usize,
    ) -> Result<BatchResult, AlignError> {
        let (pairs, totals) = run_workers(self, reads, threads, false, 0, None)?;
        Ok(self.batch_result(pairs, &totals).0)
    }

    /// Like [`Platform::align_batch_parallel`] but each read also
    /// retries as its reverse complement when the forward orientation
    /// fails, returning the mapped strand per read.
    ///
    /// # Errors
    ///
    /// [`AlignError::EmptyBatch`] when `reads` is empty,
    /// [`AlignError::NoThreads`] when `threads == 0`.
    pub fn align_batch_parallel_both_strands(
        &self,
        reads: &[DnaSeq],
        threads: usize,
    ) -> Result<(BatchResult, Vec<MappedStrand>), AlignError> {
        let (pairs, totals) = run_workers(self, reads, threads, true, 0, None)?;
        Ok(self.batch_result(pairs, &totals))
    }

    /// The performance report for accumulated [`BatchTotals`]: the
    /// merged alignment-time ledger and counters, with the platform's
    /// one-time build fault counters (stuck cells planted while mapping)
    /// added exactly once — not once per worker or per chunk.
    pub fn batch_report(&self, totals: &BatchTotals) -> PerfReport {
        let mut report = PerfReport::from_batch(
            self.config(),
            &totals.ledger,
            totals.queries,
            totals.lfm_calls,
        );
        let build = self.mapped().build_fault_counters();
        let mut faults = totals.telemetry;
        faults.stuck_cells += build.stuck_cells;
        faults.xnor_bit_flips += build.xnor_bit_flips;
        faults.transient_row_faults += build.transient_row_faults;
        faults.carry_faults += build.carry_faults;
        report.faults = faults;
        report.breakdown.lfm_by_phase = totals.phase_lfm;
        report.breakdown.index_build_cycles = self.mapped().mapping_ledger().total_busy_cycles();
        report.host = totals.host.clone();
        report.index = self.index_telemetry();
        report
    }

    fn batch_result(
        &self,
        pairs: Vec<(AlignmentOutcome, MappedStrand)>,
        totals: &BatchTotals,
    ) -> (BatchResult, Vec<MappedStrand>) {
        let report = self.batch_report(totals);
        let mut outcomes = Vec::with_capacity(pairs.len());
        let mut strands = Vec::with_capacity(pairs.len());
        for (outcome, strand) in pairs {
            outcomes.push(outcome);
            strands.push(strand);
        }
        (
            BatchResult {
                outcomes,
                report,
                exact_fraction: totals.exact_fraction(),
            },
            strands,
        )
    }
}

/// Aligns `reads` (forward strand only) using `threads` worker threads
/// sharing one platform built over `reference`.
///
/// The index is built exactly once — workers share it through the
/// [`Platform`] — and outcomes are returned in input order, identical to
/// a sequential [`AlignSession::align_batch`](crate::AlignSession::align_batch)
/// run with an ideal fault model
/// (fault injection draws per-worker decorrelated streams, so faulty runs
/// are only statistically equivalent).
///
/// # Errors
///
/// [`AlignError::EmptyBatch`] when `reads` is empty,
/// [`AlignError::NoThreads`] when `threads == 0`.
pub fn align_batch_parallel(
    reference: &DnaSeq,
    config: &PimAlignerConfig,
    reads: &[DnaSeq],
    threads: usize,
) -> Result<BatchResult, AlignError> {
    if reads.is_empty() {
        return Err(AlignError::EmptyBatch);
    }
    if threads == 0 {
        return Err(AlignError::NoThreads);
    }
    Platform::new(reference, config.clone()).align_batch_parallel(reads, threads)
}

/// Like [`align_batch_parallel`] but each read also retries as its
/// reverse complement when the forward orientation fails, returning the
/// mapped strand per read.
///
/// # Errors
///
/// [`AlignError::EmptyBatch`] when `reads` is empty,
/// [`AlignError::NoThreads`] when `threads == 0`.
pub fn align_batch_parallel_both_strands(
    reference: &DnaSeq,
    config: &PimAlignerConfig,
    reads: &[DnaSeq],
    threads: usize,
) -> Result<(BatchResult, Vec<MappedStrand>), AlignError> {
    if reads.is_empty() {
        return Err(AlignError::EmptyBatch);
    }
    if threads == 0 {
        return Err(AlignError::NoThreads);
    }
    Platform::new(reference, config.clone()).align_batch_parallel_both_strands(reads, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aligner::AlignSession;
    use readsim::{genome, ReadSimulator, SimProfile};

    fn workload() -> (DnaSeq, Vec<DnaSeq>) {
        let reference = genome::uniform(60_000, 401);
        let profile = SimProfile::paper_defaults()
            .read_count(48)
            .read_len(80)
            .forward_only();
        let sim = ReadSimulator::new(profile, 402).simulate(&reference);
        let reads = sim.reads.into_iter().map(|r| r.seq).collect();
        (reference, reads)
    }

    #[test]
    fn parallel_matches_sequential() {
        let (reference, reads) = workload();
        let config = PimAlignerConfig::baseline();
        let mut sequential = AlignSession::new(&reference, config.clone());
        let seq_result = sequential.align_batch(&reads);
        let par_result = align_batch_parallel(&reference, &config, &reads, 4).unwrap();
        assert_eq!(par_result.outcomes, seq_result.outcomes);
        assert_eq!(par_result.exact_fraction, seq_result.exact_fraction);
        // Every read's charges are its own: the same ledger, and no
        // schedule recorded on either side.
        assert_eq!(
            par_result.report.breakdown.primitives,
            seq_result.report.breakdown.primitives
        );
        assert_eq!(par_result.report.breakdown.pipeline.issued, 0);
        // Same merged work ⇒ same intensive report quantities.
        assert!(
            (par_result.report.throughput_qps - seq_result.report.throughput_qps).abs()
                < 1e-6 * seq_result.report.throughput_qps
        );
        assert!((par_result.report.total_power_w - seq_result.report.total_power_w).abs() < 1e-9);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (reference, reads) = workload();
        let config = PimAlignerConfig::pipelined();
        let one = align_batch_parallel(&reference, &config, &reads, 1).unwrap();
        let many = align_batch_parallel(&reference, &config, &reads, 7).unwrap();
        assert_eq!(one.outcomes, many.outcomes);
        assert_eq!(one.report.lfm_calls, many.report.lfm_calls);
    }

    #[test]
    fn more_threads_than_reads_is_fine() {
        let (reference, reads) = workload();
        let config = PimAlignerConfig::baseline();
        let result = align_batch_parallel(&reference, &config, &reads[..3], 16).unwrap();
        assert_eq!(result.outcomes.len(), 3);
    }

    #[test]
    fn zero_threads_is_a_typed_error() {
        let (reference, reads) = workload();
        let err =
            align_batch_parallel(&reference, &PimAlignerConfig::baseline(), &reads, 0).unwrap_err();
        assert_eq!(err, AlignError::NoThreads);
    }

    #[test]
    fn empty_batch_is_a_typed_error() {
        let (reference, _) = workload();
        let err =
            align_batch_parallel(&reference, &PimAlignerConfig::baseline(), &[], 4).unwrap_err();
        assert_eq!(err, AlignError::EmptyBatch);
    }

    #[test]
    fn both_strands_maps_reverse_reads() {
        let reference = genome::uniform(20_000, 403);
        // Forward and reverse-complement substrings of the reference.
        let fwd = reference.subseq(500..560);
        let rev = reference.subseq(3_000..3_060).reverse_complement();
        let reads = vec![fwd, rev];
        let (result, strands) =
            align_batch_parallel_both_strands(&reference, &PimAlignerConfig::baseline(), &reads, 2)
                .unwrap();
        assert!(result.outcomes.iter().all(|o| o.is_mapped()));
        assert_eq!(strands, vec![MappedStrand::Forward, MappedStrand::Reverse]);
    }

    #[test]
    fn exact_fraction_is_per_read_on_both_strands_path() {
        // Two reads, both exact — one forward, one reverse-complement.
        // The reverse read issues two align_read queries; the fraction
        // must still be per read (1.0), not per query (2/3).
        let reference = genome::uniform(20_000, 404);
        let reads = vec![
            reference.subseq(500..560),
            reference.subseq(3_000..3_060).reverse_complement(),
        ];
        let (result, _) =
            align_batch_parallel_both_strands(&reference, &PimAlignerConfig::baseline(), &reads, 2)
                .unwrap();
        assert!(result.outcomes.iter().all(|o| o.is_mapped()));
        assert_eq!(result.exact_fraction, 1.0);
        // The forward-only path agrees with the sequential definition.
        let fwd_only =
            align_batch_parallel(&reference, &PimAlignerConfig::baseline(), &reads, 2).unwrap();
        assert!((0.0..=1.0).contains(&fwd_only.exact_fraction));
    }

    #[test]
    fn chunked_epochs_merge_into_one_report() {
        let (reference, reads) = workload();
        let platform = Platform::new(&reference, PimAlignerConfig::baseline());
        let mut totals = BatchTotals::new();
        let mut outcomes = Vec::new();
        for (epoch, chunk) in reads.chunks(16).enumerate() {
            let (pairs, t) = platform
                .align_chunk_parallel(chunk, 3, epoch as u64, false)
                .unwrap();
            totals.merge(&t);
            outcomes.extend(pairs.into_iter().map(|(o, _)| o));
        }
        let whole = platform.align_batch_parallel(&reads, 3).unwrap();
        assert_eq!(outcomes, whole.outcomes);
        assert_eq!(totals.reads, reads.len() as u64);
        let report = platform.batch_report(&totals);
        assert_eq!(report.lfm_calls, whole.report.lfm_calls);
    }

    #[test]
    fn faulted_output_is_invariant_to_threads() {
        use mram::faults::{FaultCampaign, FaultModel};
        let (reference, reads) = workload();
        let campaign = FaultCampaign::seeded(52)
            .with_model(FaultModel::with_probabilities(3e-3, 0.0))
            .with_transient_row_rate(1e-3)
            .with_carry_fault_prob(1e-3);
        let config = PimAlignerConfig::baseline().with_fault_campaign(campaign);
        let run = |threads: usize| align_batch_parallel(&reference, &config, &reads, threads);
        let base = run(1).unwrap();
        assert!(
            base.report.faults.injected_total() > 0,
            "campaign must inject"
        );
        for threads in [2, 5, 8] {
            let other = run(threads).unwrap();
            assert_eq!(
                base.outcomes, other.outcomes,
                "{threads} threads diverged under faults"
            );
        }
    }

    #[test]
    fn counts_are_invariant_to_threads_on_inexact_reads() {
        use bioseq::Base;
        use mram::faults::{FaultCampaign, FaultModel};
        // Every read goes to stage 2, on the strand it came from or on
        // both: the stage that starts from stage 1's descent.
        let reference = genome::uniform(60_000, 405);
        let reads: Vec<DnaSeq> = (0..40usize)
            .map(|k| {
                let mut bases = reference.subseq(k * 1_301..k * 1_301 + 80).into_bases();
                for at in [5 + k, 76 - k][..1 + k % 2].iter() {
                    bases[*at] = Base::from_rank((bases[*at].rank() + 1) % 4);
                }
                let read = DnaSeq::from_bases(bases);
                if k % 3 == 0 {
                    read.reverse_complement()
                } else {
                    read
                }
            })
            .collect();
        let campaign = FaultCampaign::seeded(52)
            .with_model(FaultModel::with_probabilities(3e-3, 0.0))
            .with_transient_row_rate(1e-3)
            .with_carry_fault_prob(1e-3);
        for faulted in [false, true] {
            let mut config = PimAlignerConfig::baseline();
            if faulted {
                config = config.with_fault_campaign(campaign);
            }
            let run = |threads: usize| {
                align_batch_parallel_both_strands(&reference, &config, &reads, threads)
                    .unwrap()
                    .0
            };
            let base = run(1);
            assert!(base.report.breakdown.lfm_by_phase.inexact > 0);
            assert_eq!(faulted, base.report.faults.injected_total() > 0);
            assert!(
                base.report.published_lfm_calls > base.report.lfm_calls,
                "word-line steps in play"
            );
            // The worker count moves nothing at all.
            for threads in [2, 8] {
                let other = run(threads);
                let what = format!("{threads} threads, faulted {faulted}");
                assert_eq!(other.outcomes, base.outcomes, "{what}");
                assert_eq!(
                    other.report.breakdown.lfm_by_phase, base.report.breakdown.lfm_by_phase,
                    "{what}"
                );
                assert_eq!(
                    other.report.breakdown.primitives, base.report.breakdown.primitives,
                    "{what}"
                );
                assert_eq!(
                    other.report.breakdown.energy_pj.to_bits(),
                    base.report.breakdown.energy_pj.to_bits(),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn parallel_merges_fault_telemetry() {
        use crate::config::RecoveryPolicy;
        use mram::faults::{FaultCampaign, FaultModel};
        let (reference, reads) = workload();
        // A misread rate at which the platform still produces candidates
        // to verify. At 2e-3 nearly every rung came up Unmapped and went
        // to the host: whether any read verified at all (2 of 48, or
        // none) hung on the draw order.
        let config = PimAlignerConfig::baseline()
            .with_fault_campaign(
                FaultCampaign::seeded(9).with_model(FaultModel::with_probabilities(1e-4, 0.0)),
            )
            .with_recovery(RecoveryPolicy::standard());
        let result = align_batch_parallel(&reference, &config, &reads, 4).unwrap();
        let t = result.report.faults;
        assert!(t.xnor_bit_flips > 0, "campaign must inject: {t:?}");
        assert!(
            t.verifications >= reads.len() as u64 / 2,
            "workers must verify outcomes: {t:?}"
        );
    }
}
