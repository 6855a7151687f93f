//! The end-to-end PIM-Aligner: two-stage alignment plus performance
//! reporting.

use std::time::Instant;

use bioseq::DnaSeq;
use fmindex::EditBudget;
use pimsim::{
    CycleLedger, Dpu, FaultInjector, HostEpoch, HostHistogram, HostSpan, HostSpanLog, KernelCache,
};

use crate::config::PimAlignerConfig;
use crate::error::AlignError;
use crate::exact::{exact_search_recorded, Descent};
use crate::inexact::inexact_search_from;
use crate::mapping::MappedIndex;
use crate::metrics::PhaseLfm;
use crate::platform::Platform;
use crate::report::{FaultTelemetry, PerfReport};
use crate::verify::{verify_exact, verify_inexact};

/// Which rung of the alignment state machine issued a platform pass —
/// decides the [`PhaseLfm`] bucket its `LFM` calls land in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LfmAttr {
    /// The first pass over a read (exact + inexact stages attribute to
    /// their own buckets).
    Primary,
    /// A same-budget recovery retry.
    Retry,
    /// A difference-budget escalation rung.
    Escalate,
}

/// Which orientation of the read produced a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappedStrand {
    /// The read mapped as given.
    Forward,
    /// The read mapped as its reverse complement.
    Reverse,
}

/// The outcome of aligning one read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlignmentOutcome {
    /// The read matched the reference exactly (stage 1); positions are
    /// sorted reference coordinates.
    Exact {
        /// Sorted reference positions of all exact occurrences.
        positions: Vec<usize>,
    },
    /// The read matched with `diffs > 0` differences (stage 2).
    Inexact {
        /// Sorted reference positions of the best (fewest-difference)
        /// hits.
        positions: Vec<usize>,
        /// Differences used by the best hits: the fewest the read aligns
        /// with, in first-accept mode as in exhaustive mode.
        diffs: u8,
    },
    /// No alignment within the configured budget.
    Unmapped,
}

impl AlignmentOutcome {
    /// `true` unless the read is unmapped.
    pub fn is_mapped(&self) -> bool {
        !matches!(self, AlignmentOutcome::Unmapped)
    }

    /// The best positions, if mapped.
    pub fn positions(&self) -> Option<&[usize]> {
        match self {
            AlignmentOutcome::Exact { positions } | AlignmentOutcome::Inexact { positions, .. } => {
                Some(positions)
            }
            AlignmentOutcome::Unmapped => None,
        }
    }
}

/// The result of aligning a batch of reads.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-read outcomes, in input order.
    pub outcomes: Vec<AlignmentOutcome>,
    /// The platform performance report for the batch.
    pub report: PerfReport,
    /// Fraction of reads resolved by the exact stage (paper §III: "up to
    /// ∼70% of short reads should be exactly aligned … after stage one").
    pub exact_fraction: f64,
}

/// A mutable alignment session over a shared [`Platform`], executing the
/// paper's two-stage alignment.
///
/// The session holds only per-worker state: the DPU registers, the
/// alignment-time cycle ledger, the seeded fault-injection stream and the
/// telemetry counters. The reference and the mapped FM-index live in the
/// shared platform — [`MappedIndex::build`] runs exactly once per
/// [`Platform::new`], no matter how many sessions are spawned.
///
/// Constructing one with [`AlignSession::new`] builds a single-session
/// platform.
///
/// # Examples
///
/// ```
/// use bioseq::DnaSeq;
/// use pim_aligner::{AlignmentOutcome, AlignSession, PimAlignerConfig};
///
/// # fn main() -> Result<(), bioseq::ParseSeqError> {
/// let reference: DnaSeq = "TGCTA".parse()?;
/// let mut aligner = AlignSession::new(&reference, PimAlignerConfig::baseline());
/// let outcome = aligner.align_read(&"CTA".parse()?);
/// assert_eq!(outcome, AlignmentOutcome::Exact { positions: vec![2] });
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AlignSession {
    platform: Platform,
    /// Alignment-time fault stream (deterministic per campaign seed and
    /// worker index).
    injector: FaultInjector,
    dpu: Dpu,
    ledger: CycleLedger,
    lfm_calls: u64,
    queries: u64,
    exact_hits: u64,
    /// Recovery-path counters (injection counters live in the session's
    /// fault injector; [`AlignSession::fault_telemetry`] combines both
    /// with the platform's one-time build counters).
    telemetry: FaultTelemetry,
    /// `LFM` calls attributed per alignment phase; always sums to
    /// `lfm_calls`.
    phase_lfm: PhaseLfm,
    /// Wall-clock latency of every entry-point align call (always on:
    /// one `Instant` read pair per read is noise next to an alignment).
    host_per_read: HostHistogram,
    /// Wall-clock span recorder around each alignment phase (exact and
    /// inexact passes, locate, recovery rungs); `None` (the default)
    /// costs one branch per site.
    host_log: Option<HostSpanLog>,
    /// The session's rank-checkpoint cache, threaded into every exact
    /// phase's `LFM`s. Per-session mutable state — the shared
    /// `MappedIndex` stays immutable.
    kernel_cache: KernelCache,
    /// The match descent of the exact stage that ran last, which the
    /// inexact stage starts from.
    descent: Descent,
}

impl AlignSession {
    /// Builds a fresh single-session platform over a reference genome
    /// (index construction + sub-array mapping; the one-time cost is
    /// kept in the mapping ledger). To share one index across sessions,
    /// build a [`Platform`] instead and spawn sessions from it.
    pub fn new(reference: &DnaSeq, config: PimAlignerConfig) -> AlignSession {
        Platform::new(reference, config).session()
    }

    /// Spawns a session over an existing platform (called by
    /// [`Platform::session`]).
    pub(crate) fn for_platform(platform: Platform) -> AlignSession {
        let injector = platform.mapped().session_injector();
        let dpu = Dpu::new(*platform.config().model());
        AlignSession {
            platform,
            injector,
            dpu,
            ledger: CycleLedger::new(),
            lfm_calls: 0,
            queries: 0,
            exact_hits: 0,
            telemetry: FaultTelemetry::default(),
            phase_lfm: PhaseLfm::default(),
            host_per_read: HostHistogram::new(),
            host_log: None,
            kernel_cache: KernelCache::new(),
            descent: Descent::new(),
        }
    }

    /// Enables wall-clock span recording on track `tid` around each
    /// alignment phase (exact/inexact passes, locate, recovery rungs),
    /// with host timestamps measured from `epoch` — the raw material for
    /// Chrome-trace export. Off by default; the per-read
    /// latency histogram is always on regardless.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn enable_host_tracing(&mut self, epoch: HostEpoch, tid: u32, capacity: usize) {
        self.host_log = Some(HostSpanLog::new(epoch, tid, capacity));
    }

    /// Wall-clock per-read latency recorded so far.
    pub fn host_histogram(&self) -> &HostHistogram {
        &self.host_per_read
    }

    /// Drains the host span log: `(spans, dropped)`; empty/zero when
    /// host tracing was never enabled. Draining disables tracing —
    /// callers drain once, when the session retires.
    pub fn take_host_spans(&mut self) -> (Vec<HostSpan>, u64) {
        match self.host_log.take() {
            Some(log) => log.into_parts(),
            None => (Vec::new(), 0),
        }
    }

    #[inline]
    pub(crate) fn host_start(&self) -> u64 {
        self.host_log.as_ref().map_or(0, |log| log.start())
    }

    #[inline]
    pub(crate) fn host_record(&mut self, name: &'static str, start_ns: u64) {
        if let Some(log) = self.host_log.as_mut() {
            log.record(name, start_ns);
        }
    }

    /// `LFM` calls attributed per alignment phase.
    pub fn phase_lfm(&self) -> PhaseLfm {
        self.phase_lfm
    }

    /// The shared platform this session aligns on.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The active configuration.
    pub fn config(&self) -> &PimAlignerConfig {
        self.platform.config()
    }

    /// The mapped index (sub-arrays + software ground truth).
    pub fn mapped(&self) -> &MappedIndex {
        self.platform.mapped()
    }

    /// The indexed reference genome.
    pub fn reference(&self) -> &DnaSeq {
        self.platform.reference()
    }

    /// Aligns one read: exact stage first, then — if it fails — the
    /// inexact stage with the configured difference budget.
    ///
    /// With an enabled [`RecoveryPolicy`](crate::RecoveryPolicy) every
    /// candidate locus is verified against the reference before it is
    /// emitted, and failures walk the retry → escalate → host-fallback
    /// ladder (DESIGN.md §8); otherwise this is the raw platform path
    /// with zero verification overhead.
    pub fn align_read(&mut self, read: &DnaSeq) -> AlignmentOutcome {
        let t0 = Instant::now();
        let outcome = self.align_read_inner(read);
        self.host_per_read.record_ns(t0.elapsed().as_nanos() as u64);
        outcome
    }

    /// [`align_read`](AlignSession::align_read) minus the wall-clock
    /// sample, so each entry point — single- or both-strands — records
    /// exactly one per-read latency.
    fn align_read_inner(&mut self, read: &DnaSeq) -> AlignmentOutcome {
        self.queries += 1;
        let outcome = if self.config().recovery().is_enabled() {
            self.align_read_recovered(read)
        } else {
            self.raw_align(read, self.config().max_diffs(), LfmAttr::Primary)
        };
        if matches!(outcome, AlignmentOutcome::Exact { .. }) {
            self.exact_hits += 1;
        }
        outcome
    }

    /// Buckets `n` `LFM` calls into the phase counter `attr` selects
    /// (`exact_stage` distinguishes the two primary-pass stages).
    fn note_lfm(&mut self, attr: LfmAttr, exact_stage: bool, n: u64) {
        match attr {
            LfmAttr::Primary if exact_stage => self.phase_lfm.exact += n,
            LfmAttr::Primary => self.phase_lfm.inexact += n,
            LfmAttr::Retry => self.phase_lfm.recovery_retry += n,
            LfmAttr::Escalate => self.phase_lfm.recovery_escalate += n,
        }
    }

    /// One unverified platform pass at difference budget `max_diffs`:
    /// the exact stage, then — if it misses — the inexact stage, which
    /// starts from the exact stage's descent and walks none of it again.
    fn raw_align(&mut self, read: &DnaSeq, max_diffs: u8, attr: LfmAttr) -> AlignmentOutcome {
        let exhaustive = self.config().exhaustive_inexact();
        let h_exact = self.host_start();
        let (interval, stats) = exact_search_recorded(
            self.platform.mapped(),
            &mut self.injector,
            &mut self.dpu,
            read,
            Some(&mut self.kernel_cache),
            Some(&mut self.descent),
            &mut self.ledger,
        );
        self.host_record("exact_pass", h_exact);
        self.lfm_calls += stats.lfm_calls;
        self.note_lfm(attr, true, stats.lfm_calls);
        if !interval.is_empty() {
            let h_locate = self.host_start();
            let positions = self.platform.mapped().locate(interval, &mut self.ledger);
            self.host_record("locate", h_locate);
            return AlignmentOutcome::Exact { positions };
        }
        if max_diffs == 0 {
            return AlignmentOutcome::Unmapped;
        }
        let budget = self.edit_budget_for(max_diffs);
        let h_inexact = self.host_start();
        let (hits, istats) = inexact_search_from(
            self.platform.mapped(),
            &mut self.injector,
            &mut self.dpu,
            read,
            budget,
            exhaustive,
            &mut self.descent,
            &mut self.ledger,
        );
        self.host_record("inexact_pass", h_inexact);
        self.lfm_calls += istats.lfm_calls;
        self.note_lfm(attr, false, istats.lfm_calls);
        let Some(best) = hits.first() else {
            return AlignmentOutcome::Unmapped;
        };
        let best_diffs = best.diffs;
        let mut positions = Vec::new();
        for hit in hits.iter().filter(|h| h.diffs == best_diffs) {
            positions.extend(
                self.platform
                    .mapped()
                    .locate(hit.interval, &mut self.ledger),
            );
        }
        positions.sort_unstable();
        positions.dedup();
        AlignmentOutcome::Inexact {
            positions,
            diffs: best_diffs,
        }
    }

    fn edit_budget_for(&self, max_diffs: u8) -> EditBudget {
        if self.config().allows_indels() {
            EditBudget::edits(max_diffs)
        } else {
            EditBudget::substitutions_only(max_diffs)
        }
    }

    /// The verify-and-recover state machine: every rung runs a platform
    /// pass, verifies the candidate loci against the reference, and only
    /// a verified outcome escapes. Rungs, in order: same-budget retries
    /// (faults re-draw), difference-budget escalation, host software
    /// fallback (fault-free by construction).
    fn align_read_recovered(&mut self, read: &DnaSeq) -> AlignmentOutcome {
        let policy = self.config().recovery();
        let base_z = self.config().max_diffs();
        let faults_possible = self.mapped().faults_active();

        for attempt in 0..=policy.max_retries {
            let attr = if attempt > 0 {
                self.telemetry.retries += 1;
                LfmAttr::Retry
            } else {
                LfmAttr::Primary
            };
            let h_rung = self.host_start();
            let outcome = self.raw_align(read, base_z, attr);
            if attempt > 0 {
                self.host_record("recovery.retry", h_rung);
            }
            if let Some(verified) = self.verified(read, outcome, faults_possible) {
                return verified;
            }
            if !faults_possible {
                // Deterministic platform: a retry cannot change the
                // result, so go straight to the next rung.
                break;
            }
        }
        let ceiling = policy.max_escalated_diffs.max(base_z);
        for z in (base_z + 1)..=ceiling {
            self.telemetry.escalations += 1;
            let h_rung = self.host_start();
            let outcome = self.raw_align(read, z, LfmAttr::Escalate);
            self.host_record("recovery.escalate", h_rung);
            if let Some(verified) = self.verified(read, outcome, faults_possible) {
                return verified;
            }
        }
        if policy.host_fallback {
            self.telemetry.host_fallbacks += 1;
            // Host work is uncharged; the span still marks that the
            // ladder bottomed out here.
            let h_host = self.host_start();
            let outcome = self.host_fallback_align(read, ceiling);
            self.host_record("recovery.host_fallback", h_host);
            return outcome;
        }
        self.telemetry.unrecoverable += 1;
        AlignmentOutcome::Unmapped
    }

    /// Verifies an outcome's positions against the reference. Returns
    /// the outcome (possibly trimmed to its verified positions) when it
    /// can be trusted, `None` when the rung must escalate. An `Unmapped`
    /// result is trusted only when no faults can fire: under an active
    /// campaign a corrupted interval can just as well hide a real hit.
    fn verified(
        &mut self,
        read: &DnaSeq,
        outcome: AlignmentOutcome,
        faults_possible: bool,
    ) -> Option<AlignmentOutcome> {
        match outcome {
            AlignmentOutcome::Exact { positions } => {
                self.telemetry.verifications += 1;
                let total = positions.len();
                let kept: Vec<usize> = positions
                    .into_iter()
                    .filter(|&p| verify_exact(self.platform.reference(), read, p))
                    .collect();
                if kept.len() < total {
                    self.telemetry.verify_failures += 1;
                }
                if kept.is_empty() {
                    None
                } else {
                    Some(AlignmentOutcome::Exact { positions: kept })
                }
            }
            AlignmentOutcome::Inexact { positions, diffs } => {
                self.telemetry.verifications += 1;
                let allow_indels = self.config().allows_indels();
                let total = positions.len();
                let kept: Vec<usize> = positions
                    .into_iter()
                    .filter(|&p| {
                        verify_inexact(self.platform.reference(), read, p, diffs, allow_indels)
                    })
                    .collect();
                if kept.len() < total {
                    self.telemetry.verify_failures += 1;
                }
                if kept.is_empty() {
                    None
                } else {
                    Some(AlignmentOutcome::Inexact {
                        positions: kept,
                        diffs,
                    })
                }
            }
            AlignmentOutcome::Unmapped => {
                if faults_possible {
                    None
                } else {
                    Some(AlignmentOutcome::Unmapped)
                }
            }
        }
    }

    /// The last rung: the host software path — FM-index search over the
    /// fault-free index plus `swalign`-backed verification for inexact
    /// hits. Host work is not charged to the platform ledger (it runs on
    /// the controller, like the SA read-back).
    fn host_fallback_align(&mut self, read: &DnaSeq, max_diffs: u8) -> AlignmentOutcome {
        let exact = self.mapped().index().find(read);
        if !exact.is_empty() {
            return AlignmentOutcome::Exact { positions: exact };
        }
        if max_diffs == 0 {
            return AlignmentOutcome::Unmapped;
        }
        let hits = self
            .mapped()
            .index()
            .find_inexact(read, self.edit_budget_for(max_diffs));
        let Some(best) = hits.iter().map(|&(_, d)| d).min() else {
            return AlignmentOutcome::Unmapped;
        };
        let allow_indels = self.config().allows_indels();
        let mut positions: Vec<usize> = hits
            .iter()
            .filter(|&&(_, d)| d == best)
            .map(|&(p, _)| p)
            .filter(|&p| verify_inexact(self.platform.reference(), read, p, best, allow_indels))
            .collect();
        positions.sort_unstable();
        positions.dedup();
        if positions.is_empty() {
            AlignmentOutcome::Unmapped
        } else {
            AlignmentOutcome::Inexact {
                positions,
                diffs: best,
            }
        }
    }

    /// Aligns a read against both genome strands: the forward
    /// orientation first, then — if unmapped — its reverse complement
    /// (the index covers the forward strand; real samples sequence both,
    /// paper §I: "two twistings, paired strands").
    pub fn align_read_both_strands(&mut self, read: &DnaSeq) -> (AlignmentOutcome, MappedStrand) {
        // One wall-clock sample per *read*, covering both orientations —
        // timing the inner calls separately would double-count the read
        // in the per-read latency histogram.
        let t0 = Instant::now();
        let result = self.align_both_inner(read);
        self.host_per_read.record_ns(t0.elapsed().as_nanos() as u64);
        result
    }

    /// [`align_read_both_strands`](AlignSession::align_read_both_strands)
    /// minus the wall-clock sample ([`AlignSession::align_group`] times
    /// its reads itself).
    fn align_both_inner(&mut self, read: &DnaSeq) -> (AlignmentOutcome, MappedStrand) {
        match self.align_read_inner(read) {
            AlignmentOutcome::Unmapped => match self.align_read_inner(&read.reverse_complement()) {
                // Neither orientation mapped: the read is unmapped as
                // given, so report the forward strand (SAM leaves 0x10
                // clear on unmapped records).
                AlignmentOutcome::Unmapped => (AlignmentOutcome::Unmapped, MappedStrand::Forward),
                hit => (hit, MappedStrand::Reverse),
            },
            hit => (hit, MappedStrand::Forward),
        }
    }

    /// Aligns a contiguous group of reads one at a time, each on one
    /// strand or — with `both_strands` — its reverse complement too when
    /// the forward orientation misses.
    ///
    /// `first_token` is the global fault-stream token of `reads[0]`:
    /// read `r` draws from [`MappedIndex::read_injector`] with token
    /// `first_token + r`, so faulted output is a function of the read's
    /// global index alone — invariant to the worker count. The per-read
    /// streams' injection counters are absorbed into the session's
    /// telemetry. One wall-clock sample per read lands in the per-read
    /// histogram.
    pub fn align_group(
        &mut self,
        reads: &[DnaSeq],
        first_token: u64,
        both_strands: bool,
    ) -> Vec<(AlignmentOutcome, MappedStrand)> {
        let faults = self.mapped().faults_active();
        let mut results = Vec::with_capacity(reads.len());
        for (r, read) in reads.iter().enumerate() {
            let t0 = Instant::now();
            let mut stream = faults.then(|| self.mapped().read_injector(first_token + r as u64));
            if let Some(stream) = stream.as_mut() {
                std::mem::swap(&mut self.injector, stream);
            }
            let result = if both_strands {
                self.align_both_inner(read)
            } else {
                (self.align_read_inner(read), MappedStrand::Forward)
            };
            if let Some(stream) = stream.as_mut() {
                std::mem::swap(&mut self.injector, stream);
                self.injector.absorb_counters(&stream.counters());
            }
            self.host_per_read.record_ns(t0.elapsed().as_nanos() as u64);
            results.push(result);
        }
        results
    }

    /// Aligns a batch of reads and produces the performance report, or
    /// a typed error for an empty batch.
    pub fn try_align_batch(&mut self, reads: &[DnaSeq]) -> Result<BatchResult, AlignError> {
        if reads.is_empty() {
            return Err(AlignError::EmptyBatch);
        }
        let q0 = self.queries;
        let e0 = self.exact_hits;
        let outcomes: Vec<AlignmentOutcome> = reads.iter().map(|r| self.align_read(r)).collect();
        let report = self.report();
        let exact_fraction = (self.exact_hits - e0) as f64 / (self.queries - q0) as f64;
        Ok(BatchResult {
            outcomes,
            report,
            exact_fraction,
        })
    }

    /// Aligns a batch of reads and produces the performance report.
    ///
    /// # Panics
    ///
    /// Panics if `reads` is empty (use
    /// [`try_align_batch`](AlignSession::try_align_batch) for a typed
    /// error).
    pub fn align_batch(&mut self, reads: &[DnaSeq]) -> BatchResult {
        self.try_align_batch(reads)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The cumulative performance report for all reads aligned so far,
    /// including fault telemetry.
    ///
    /// # Panics
    ///
    /// Panics if no read has been aligned yet.
    pub fn report(&self) -> PerfReport {
        let mut report =
            PerfReport::from_batch(self.config(), &self.ledger, self.queries, self.lfm_calls);
        report.faults = self.fault_telemetry();
        report.breakdown.lfm_by_phase = self.phase_lfm;
        report.breakdown.index_build_cycles = self.mapped().mapping_ledger().total_busy_cycles();
        report.host.per_read = self.host_per_read.clone();
        report
    }

    /// Combined fault telemetry: the session's injection counters plus
    /// the platform's one-time build counters (stuck cells planted while
    /// mapping) plus the recovery path's verification counters.
    pub fn fault_telemetry(&self) -> FaultTelemetry {
        let mut counters = self.injector.counters();
        counters.merge(&self.mapped().build_fault_counters());
        FaultTelemetry {
            stuck_cells: counters.stuck_cells,
            xnor_bit_flips: counters.xnor_bit_flips,
            transient_row_faults: counters.transient_row_faults,
            carry_faults: counters.carry_faults,
            ..self.telemetry
        }
    }

    /// This session's own telemetry only — injection counters from its
    /// fault stream plus its recovery counters, *without* the platform's
    /// one-time build counters. The parallel engine merges these across
    /// workers and adds the build counters exactly once.
    pub(crate) fn session_telemetry(&self) -> FaultTelemetry {
        let counters = self.injector.counters();
        FaultTelemetry {
            stuck_cells: counters.stuck_cells,
            xnor_bit_flips: counters.xnor_bit_flips,
            transient_row_faults: counters.transient_row_faults,
            carry_faults: counters.carry_faults,
            ..self.telemetry
        }
    }

    /// Cumulative `LFM` invocations.
    pub fn lfm_calls(&self) -> u64 {
        self.lfm_calls
    }

    /// Reads aligned so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Reads resolved by the exact stage so far.
    pub fn exact_hits(&self) -> u64 {
        self.exact_hits
    }

    /// The alignment-time ledger (cycles and energy of every query so
    /// far; the one-time mapping cost is kept separately in
    /// [`MappedIndex::mapping_ledger`]).
    pub fn ledger(&self) -> &CycleLedger {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmindex::EditBudget;
    use readsim::{genome, ReadSimulator, SimProfile};

    #[test]
    fn exact_and_inexact_stages_cooperate() {
        let reference = genome::uniform(5_000, 31);
        let mut aligner = AlignSession::new(
            &reference,
            PimAlignerConfig::baseline().with_exhaustive_inexact(true),
        );
        // Clean read: exact.
        let clean = reference.subseq(1_000..1_050);
        assert!(matches!(
            aligner.align_read(&clean),
            AlignmentOutcome::Exact { .. }
        ));
        // One substitution: inexact with diffs = 1.
        let mut bases = reference.subseq(2_000..2_050).into_bases();
        bases[25] = bioseq::Base::from_rank((bases[25].rank() + 2) % 4);
        let mutated = DnaSeq::from_bases(bases);
        match aligner.align_read(&mutated) {
            AlignmentOutcome::Inexact { positions, diffs } => {
                assert_eq!(diffs, 1);
                assert!(positions.contains(&2_000));
            }
            other => panic!("expected inexact hit, got {other:?}"),
        }
    }

    #[test]
    fn unmappable_read_reported() {
        let reference: DnaSeq = "AAAAAAAAAAAAAAAAAAAA".parse().unwrap();
        let mut aligner = AlignSession::new(
            &reference,
            PimAlignerConfig::baseline()
                .with_max_diffs(1)
                .with_indels(false),
        );
        let read: DnaSeq = "GGGGGGGG".parse().unwrap();
        assert_eq!(aligner.align_read(&read), AlignmentOutcome::Unmapped);
    }

    #[test]
    fn platform_positions_match_software_oracle() {
        let reference = genome::uniform(8_000, 32);
        let mut aligner = AlignSession::new(
            &reference,
            PimAlignerConfig::baseline()
                .with_max_diffs(1)
                .with_exhaustive_inexact(true),
        );
        let oracle = aligner.mapped().index().clone();
        let profile = SimProfile::paper_defaults()
            .read_count(40)
            .read_len(50)
            .forward_only();
        let sim = ReadSimulator::new(profile, 33).simulate(&reference);
        for read in &sim.reads {
            let outcome = aligner.align_read(&read.seq);
            match &outcome {
                AlignmentOutcome::Exact { positions } => {
                    let sw = oracle.find(&read.seq);
                    assert_eq!(positions, &sw);
                }
                AlignmentOutcome::Inexact { positions, diffs } => {
                    let sw = oracle.find_inexact(&read.seq, EditBudget::edits(1));
                    let best = sw.iter().map(|(_, d)| *d).min().unwrap();
                    assert_eq!(*diffs, best);
                    let sw_best: Vec<usize> = sw
                        .iter()
                        .filter(|(_, d)| *d == best)
                        .map(|(p, _)| *p)
                        .collect();
                    for p in positions {
                        assert!(sw_best.contains(p));
                    }
                }
                AlignmentOutcome::Unmapped => {
                    assert!(oracle
                        .find_inexact(&read.seq, EditBudget::edits(1))
                        .is_empty());
                }
            }
        }
    }

    #[test]
    fn batch_reports_exact_fraction() {
        let reference = genome::uniform(20_000, 34);
        let mut aligner = AlignSession::new(&reference, PimAlignerConfig::baseline());
        let profile = SimProfile::paper_defaults()
            .read_count(60)
            .read_len(60)
            .forward_only();
        let sim = ReadSimulator::new(profile, 35).simulate(&reference);
        let reads: Vec<DnaSeq> = sim.reads.iter().map(|r| r.seq.clone()).collect();
        let result = aligner.align_batch(&reads);
        assert_eq!(result.outcomes.len(), 60);
        // Paper §III: most reads align exactly in stage 1 (0.2 % error,
        // 0.1 % variation ⇒ the bulk of 60-bp reads are clean).
        assert!(
            result.exact_fraction > 0.5,
            "exact fraction {:.2}",
            result.exact_fraction
        );
        assert!(result.report.throughput_qps > 0.0);
    }

    #[test]
    fn pipelined_config_beats_baseline_throughput() {
        let reference = genome::uniform(4_000, 36);
        let reads: Vec<DnaSeq> = (0..20)
            .map(|i| reference.subseq(i * 100..i * 100 + 50))
            .collect();
        let mut n = AlignSession::new(&reference, PimAlignerConfig::baseline());
        let mut p = AlignSession::new(&reference, PimAlignerConfig::pipelined());
        let rn = n.align_batch(&reads).report;
        let rp = p.align_batch(&reads).report;
        let gain = rp.throughput_qps / rn.throughput_qps;
        assert!((1.25..1.60).contains(&gain), "pipeline gain {gain:.3}");
    }

    #[test]
    fn both_strands_double_miss_reports_forward() {
        // A read that maps on neither strand is unmapped *as given*: the
        // strand must come back Forward (SAM leaves 0x10 clear on
        // unmapped records), not Reverse as the pre-fix code claimed.
        let reference: DnaSeq = "AAAAAAAAAAAAAAAAAAAA".parse().unwrap();
        let mut aligner = AlignSession::new(
            &reference,
            PimAlignerConfig::baseline()
                .with_max_diffs(1)
                .with_indels(false),
        );
        let read: DnaSeq = "GGGGGGGG".parse().unwrap();
        assert_eq!(
            aligner.align_read_both_strands(&read),
            (AlignmentOutcome::Unmapped, MappedStrand::Forward)
        );
        // A reverse-complement hit still reports Reverse.
        let reference = genome::uniform(4_000, 48);
        let mut aligner = AlignSession::new(&reference, PimAlignerConfig::baseline());
        let rev = reference.subseq(1_000..1_060).reverse_complement();
        let (outcome, strand) = aligner.align_read_both_strands(&rev);
        assert!(outcome.is_mapped());
        assert_eq!(strand, MappedStrand::Reverse);
    }

    #[test]
    #[should_panic(expected = "at least one read")]
    fn empty_batch_panics() {
        let reference = genome::uniform(1_000, 37);
        let mut aligner = AlignSession::new(&reference, PimAlignerConfig::baseline());
        let _ = aligner.align_batch(&[]);
    }

    #[test]
    fn empty_batch_yields_typed_error() {
        let reference = genome::uniform(1_000, 38);
        let mut aligner = AlignSession::new(&reference, PimAlignerConfig::baseline());
        assert_eq!(
            aligner.try_align_batch(&[]).unwrap_err(),
            crate::error::AlignError::EmptyBatch
        );
    }

    #[test]
    fn recovery_is_transparent_without_faults() {
        use crate::config::RecoveryPolicy;
        let reference = genome::uniform(6_000, 39);
        let reads: Vec<DnaSeq> = (0..12)
            .map(|i| reference.subseq(i * 400..i * 400 + 60))
            .collect();
        let mut raw = AlignSession::new(&reference, PimAlignerConfig::baseline());
        let mut recovering = AlignSession::new(
            &reference,
            PimAlignerConfig::baseline().with_recovery(RecoveryPolicy::standard()),
        );
        let raw_out = raw.align_batch(&reads);
        let rec_out = recovering.align_batch(&reads);
        assert_eq!(raw_out.outcomes, rec_out.outcomes);
        let t = rec_out.report.faults;
        assert_eq!(t.injected_total(), 0);
        assert_eq!(t.verify_failures, 0);
        assert_eq!(
            t.retries + t.escalations + t.host_fallbacks + t.unrecoverable,
            0
        );
        assert_eq!(t.verifications, reads.len() as u64);
        assert!(raw_out.report.faults.is_quiet());
    }

    #[test]
    fn recovery_survives_a_hostile_campaign() {
        use crate::config::RecoveryPolicy;
        use mram::faults::{FaultCampaign, FaultModel};
        let reference = genome::uniform(30_000, 40);
        let reads: Vec<DnaSeq> = (0..20)
            .map(|i| reference.subseq(i * 1_400..i * 1_400 + 80))
            .collect();
        // A brutal campaign: every fault class firing hard.
        let campaign = FaultCampaign::seeded(41)
            .with_model(FaultModel::with_probabilities(0.01, 0.0))
            .with_transient_row_rate(0.05)
            .with_carry_fault_prob(0.02)
            .with_stuck_at_rate(1e-4);
        let mut aligner = AlignSession::new(
            &reference,
            PimAlignerConfig::baseline()
                .with_fault_campaign(campaign)
                .with_recovery(RecoveryPolicy::standard()),
        );
        for (i, read) in reads.iter().enumerate() {
            let outcome = aligner.align_read(read);
            let positions = outcome.positions().expect("read must map");
            assert!(
                positions.contains(&(i * 1_400)),
                "read {i} placed at {positions:?}"
            );
        }
        let t = aligner.fault_telemetry();
        assert!(t.injected_total() > 0, "campaign must inject: {t:?}");
        assert!(
            t.retries + t.host_fallbacks > 0,
            "recovery must have worked: {t:?}"
        );
    }
}
