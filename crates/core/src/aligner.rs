//! The end-to-end PIM-Aligner: the per-worker session that runs the
//! paper's two-stage alignment, with verify-and-recover, read by read.

use std::time::Instant;

use bioseq::{Base, DnaSeq};
use fmindex::EditBudget;
use pimsim::{Dpu, FaultInjector, HostEpoch, HostSpanLog};

use crate::config::PimAlignerConfig;
use crate::exact::{exact_search_recorded, Descent};
use crate::inexact::inexact_search_from;
use crate::mapping::MappedIndex;
use crate::parallel::BatchTotals;
use crate::platform::Platform;
use crate::verify::{verify_exact, verify_inexact};

/// Which rung of the alignment state machine issued a platform pass —
/// decides the [`PhaseLfm`](crate::PhaseLfm) bucket its `LFM` calls land in.
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

/// One worker's alignment state over a shared [`Platform`], executing the
/// paper's two-stage alignment read by read.
///
/// The session holds only per-worker state: the DPU registers, the last
/// exact descent, an optional host span log and the [`BatchTotals`] of
/// everything it aligned. The reference
/// and the mapped FM-index live in the shared platform —
/// [`MappedIndex::build`](crate::MappedIndex::build) runs exactly once
/// per [`Platform::new`], no matter how many sessions are spawned — and
/// fault streams belong to reads: [`AlignSession::align_group`] draws
/// each read's from
/// [`MappedIndex::read_injector`](crate::MappedIndex::read_injector), so
/// the session holds none.
///
/// Sessions are the workers of
/// [`Platform::align_chunk_parallel`], the one alignment entry point.
#[derive(Debug)]
pub(crate) struct AlignSession {
    platform: Platform,
    dpu: Dpu,
    /// Counters, the alignment-time cycle ledger, recovery and injection
    /// telemetry, per-phase `LFM` attribution and the per-read wall-clock
    /// latency histogram (`totals.host.per_read`) of every read so far.
    totals: BatchTotals,
    /// Wall-clock span recorder around each alignment phase (exact and
    /// inexact passes, locate, recovery rungs); `None` (the default)
    /// costs one branch per site.
    host_log: Option<HostSpanLog>,
    /// The match descent of the exact stage that ran last, which the
    /// inexact stage starts from.
    descent: Descent,
    /// The reference bases a verification compares, unpacked: scratch
    /// reused from read to read.
    window: Vec<Base>,
}

impl AlignSession {
    /// Spawns a session over a platform (called by
    /// [`Platform::session`]).
    pub(crate) fn new(platform: Platform) -> AlignSession {
        let dpu = Dpu::new(*platform.config().model());
        AlignSession {
            platform,
            dpu,
            totals: BatchTotals::new(),
            host_log: None,
            descent: Descent::new(),
            window: Vec::new(),
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
    pub(crate) fn enable_host_tracing(&mut self, epoch: HostEpoch, tid: u32, capacity: usize) {
        self.host_log = Some(HostSpanLog::new(epoch, tid, capacity));
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

    fn config(&self) -> &PimAlignerConfig {
        self.platform.config()
    }

    fn mapped(&self) -> &MappedIndex {
        self.platform.mapped()
    }

    /// Aligns a contiguous group of reads one at a time, each on one
    /// strand or — with `both_strands` — its reverse complement too when
    /// the forward orientation misses.
    ///
    /// `first_token` is the global fault-stream token of `reads[0]`:
    /// read `r` draws from [`MappedIndex::read_injector`] with token
    /// `first_token + r`, so faulted output is a function of the read's
    /// global index alone — invariant to the worker count. Each stream's
    /// injection counters land in the session's telemetry, and one
    /// wall-clock sample per read in the per-read histogram.
    pub(crate) fn align_group(
        &mut self,
        reads: &[DnaSeq],
        first_token: u64,
        both_strands: bool,
    ) -> Vec<(AlignmentOutcome, MappedStrand)> {
        let mut results = Vec::with_capacity(reads.len());
        for (r, read) in reads.iter().enumerate() {
            let t0 = Instant::now();
            let mut injector = self.mapped().read_injector(first_token + r as u64);
            let result = if both_strands {
                self.align_both(read, &mut injector)
            } else {
                (self.align_read(read, &mut injector), MappedStrand::Forward)
            };
            self.totals.telemetry.absorb_injected(&injector.counters());
            self.totals
                .host
                .per_read
                .record_ns(t0.elapsed().as_nanos() as u64);
            results.push(result);
        }
        self.totals.reads += reads.len() as u64;
        results
    }

    /// Retires the session: its totals, with the host spans it recorded
    /// (none unless tracing was enabled).
    pub(crate) fn into_totals(self) -> BatchTotals {
        let mut totals = self.totals;
        if let Some(log) = self.host_log {
            let (spans, dropped) = log.into_parts();
            totals.host.absorb_spans(spans, dropped);
        }
        totals
    }

    /// Aligns one read: exact stage first, then — if it fails — the
    /// inexact stage with the configured difference budget.
    ///
    /// With an enabled [`RecoveryPolicy`](crate::RecoveryPolicy) every
    /// candidate locus is verified against the reference before it is
    /// emitted, and failures walk the retry → escalate → host-fallback
    /// ladder (DESIGN.md §8); otherwise this is the raw platform path
    /// with zero verification overhead.
    fn align_read(&mut self, read: &DnaSeq, injector: &mut FaultInjector) -> AlignmentOutcome {
        self.totals.queries += 1;
        let outcome = if self.config().recovery().is_enabled() {
            self.align_read_recovered(read, injector)
        } else {
            self.raw_align(read, injector, self.config().max_diffs(), LfmAttr::Primary)
        };
        if matches!(outcome, AlignmentOutcome::Exact { .. }) {
            self.totals.exact_hits += 1;
        }
        outcome
    }

    /// Buckets `n` `LFM` calls into the phase counter `attr` selects
    /// (`exact_stage` distinguishes the two primary-pass stages).
    fn note_lfm(&mut self, attr: LfmAttr, exact_stage: bool, n: u64) {
        match attr {
            LfmAttr::Primary if exact_stage => self.totals.phase_lfm.exact += n,
            LfmAttr::Primary => self.totals.phase_lfm.inexact += n,
            LfmAttr::Retry => self.totals.phase_lfm.recovery_retry += n,
            LfmAttr::Escalate => self.totals.phase_lfm.recovery_escalate += n,
        }
    }

    /// One unverified platform pass at difference budget `max_diffs`:
    /// the exact stage, then — if it misses — the inexact stage, which
    /// starts from the exact stage's descent and walks none of it again.
    fn raw_align(
        &mut self,
        read: &DnaSeq,
        injector: &mut FaultInjector,
        max_diffs: u8,
        attr: LfmAttr,
    ) -> AlignmentOutcome {
        let exhaustive = self.config().exhaustive_inexact();
        let h_exact = self.host_start();
        let (interval, stats) = exact_search_recorded(
            self.platform.mapped(),
            injector,
            &mut self.dpu,
            read,
            Some(&mut self.descent),
            &mut self.totals.ledger,
        );
        self.host_record("exact_pass", h_exact);
        self.totals.lfm_calls += stats.lfm_calls;
        self.note_lfm(attr, true, stats.lfm_calls);
        if !interval.is_empty() {
            let h_locate = self.host_start();
            let positions = self
                .platform
                .mapped()
                .locate(interval, &mut self.totals.ledger);
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
            injector,
            &mut self.dpu,
            read,
            budget,
            exhaustive,
            &mut self.descent,
            &mut self.totals.ledger,
        );
        self.host_record("inexact_pass", h_inexact);
        self.totals.lfm_calls += istats.lfm_calls;
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
                    .locate(hit.interval, &mut self.totals.ledger),
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
    fn align_read_recovered(
        &mut self,
        read: &DnaSeq,
        injector: &mut FaultInjector,
    ) -> AlignmentOutcome {
        let policy = self.config().recovery();
        let base_z = self.config().max_diffs();
        let faults_possible = self.mapped().faults_active();

        for attempt in 0..=policy.max_retries {
            let attr = if attempt > 0 {
                self.totals.telemetry.retries += 1;
                LfmAttr::Retry
            } else {
                LfmAttr::Primary
            };
            let h_rung = self.host_start();
            let outcome = self.raw_align(read, injector, base_z, attr);
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
            self.totals.telemetry.escalations += 1;
            let h_rung = self.host_start();
            let outcome = self.raw_align(read, injector, z, LfmAttr::Escalate);
            self.host_record("recovery.escalate", h_rung);
            if let Some(verified) = self.verified(read, outcome, faults_possible) {
                return verified;
            }
        }
        if policy.host_fallback {
            self.totals.telemetry.host_fallbacks += 1;
            // Host work is uncharged; the span still marks that the
            // ladder bottomed out here.
            let h_host = self.host_start();
            let outcome = self.host_fallback_align(read, ceiling);
            self.host_record("recovery.host_fallback", h_host);
            return outcome;
        }
        self.totals.telemetry.unrecoverable += 1;
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
                self.totals.telemetry.verifications += 1;
                let total = positions.len();
                let kept: Vec<usize> = positions
                    .into_iter()
                    .filter(|&p| verify_exact(self.platform.reference(), read, p, &mut self.window))
                    .collect();
                if kept.len() < total {
                    self.totals.telemetry.verify_failures += 1;
                }
                if kept.is_empty() {
                    None
                } else {
                    Some(AlignmentOutcome::Exact { positions: kept })
                }
            }
            AlignmentOutcome::Inexact { positions, diffs } => {
                self.totals.telemetry.verifications += 1;
                let allow_indels = self.config().allows_indels();
                let total = positions.len();
                let kept: Vec<usize> = positions
                    .into_iter()
                    .filter(|&p| {
                        let reference = self.platform.reference();
                        verify_inexact(reference, read, p, diffs, allow_indels, &mut self.window)
                    })
                    .collect();
                if kept.len() < total {
                    self.totals.telemetry.verify_failures += 1;
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
            .filter(|&p| {
                let reference = self.platform.reference();
                verify_inexact(reference, read, p, best, allow_indels, &mut self.window)
            })
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
    /// paper §I: "two twistings, paired strands"). Both orientations draw
    /// from the read's one fault stream.
    fn align_both(
        &mut self,
        read: &DnaSeq,
        injector: &mut FaultInjector,
    ) -> (AlignmentOutcome, MappedStrand) {
        match self.align_read(read, injector) {
            AlignmentOutcome::Unmapped => match self
                .align_read(&read.reverse_complement(), injector)
            {
                // Neither orientation mapped: the read is unmapped as
                // given, so report the forward strand (SAM leaves 0x10
                // clear on unmapped records).
                AlignmentOutcome::Unmapped => (AlignmentOutcome::Unmapped, MappedStrand::Forward),
                hit => (hit, MappedStrand::Reverse),
            },
            hit => (hit, MappedStrand::Forward),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PerfReport;
    use fmindex::EditBudget;
    use readsim::{genome, ReadSimulator, SimProfile};

    /// `reads` through the one entry point on one worker, forward strand
    /// only: the outcomes in input order and the batch's report.
    fn align(platform: &Platform, reads: &[DnaSeq]) -> (Vec<AlignmentOutcome>, BatchTotals) {
        let (pairs, totals) = platform.align_chunk_parallel(reads, 1, 0, false).unwrap();
        (pairs.into_iter().map(|(o, _)| o).collect(), totals)
    }

    fn report(platform: &Platform, reads: &[DnaSeq]) -> PerfReport {
        platform.batch_report(&align(platform, reads).1)
    }

    #[test]
    fn exact_and_inexact_stages_cooperate() {
        let reference = genome::uniform(5_000, 31);
        let platform = Platform::new(
            reference.to_packed(),
            PimAlignerConfig::baseline().with_exhaustive_inexact(true),
        );
        // Clean read: exact. One substitution: inexact with diffs = 1.
        let clean = reference.subseq(1_000..1_050);
        let mut bases = reference.subseq(2_000..2_050).into_bases();
        bases[25] = bioseq::Base::from_rank((bases[25].rank() + 2) % 4);
        let mutated = DnaSeq::from_bases(bases);
        let (outcomes, _) = align(&platform, &[clean, mutated]);
        assert!(matches!(outcomes[0], AlignmentOutcome::Exact { .. }));
        match &outcomes[1] {
            AlignmentOutcome::Inexact { positions, diffs } => {
                assert_eq!(*diffs, 1);
                assert!(positions.contains(&2_000));
            }
            other => panic!("expected inexact hit, got {other:?}"),
        }
    }

    #[test]
    fn unmappable_read_reported() {
        let reference: DnaSeq = "AAAAAAAAAAAAAAAAAAAA".parse().unwrap();
        let platform = Platform::new(
            reference.to_packed(),
            PimAlignerConfig::baseline()
                .with_max_diffs(1)
                .with_indels(false),
        );
        let read: DnaSeq = "GGGGGGGG".parse().unwrap();
        assert_eq!(align(&platform, &[read]).0, [AlignmentOutcome::Unmapped]);
    }

    #[test]
    fn platform_positions_match_software_oracle() {
        let reference = genome::uniform(8_000, 32);
        let platform = Platform::new(
            reference.to_packed(),
            PimAlignerConfig::baseline()
                .with_max_diffs(1)
                .with_exhaustive_inexact(true),
        );
        let oracle = platform.mapped().index();
        let profile = SimProfile::paper_defaults()
            .read_count(40)
            .read_len(50)
            .forward_only();
        let sim = ReadSimulator::new(profile, 33).simulate(&reference);
        let reads: Vec<DnaSeq> = sim.reads.into_iter().map(|r| r.seq).collect();
        for (read, outcome) in reads.iter().zip(align(&platform, &reads).0) {
            match &outcome {
                AlignmentOutcome::Exact { positions } => {
                    let sw = oracle.find(read);
                    assert_eq!(positions, &sw);
                }
                AlignmentOutcome::Inexact { positions, diffs } => {
                    let sw = oracle.find_inexact(read, EditBudget::edits(1));
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
                    assert!(oracle.find_inexact(read, EditBudget::edits(1)).is_empty());
                }
            }
        }
    }

    #[test]
    fn batch_reports_exact_fraction() {
        let reference = genome::uniform(20_000, 34);
        let platform = Platform::new(reference.to_packed(), PimAlignerConfig::baseline());
        let profile = SimProfile::paper_defaults()
            .read_count(60)
            .read_len(60)
            .forward_only();
        let sim = ReadSimulator::new(profile, 35).simulate(&reference);
        let reads: Vec<DnaSeq> = sim.reads.iter().map(|r| r.seq.clone()).collect();
        let (outcomes, totals) = align(&platform, &reads);
        assert_eq!(outcomes.len(), 60);
        // Paper §III: most reads align exactly in stage 1 (0.2 % error,
        // 0.1 % variation ⇒ the bulk of 60-bp reads are clean).
        let exact_fraction = totals.exact_fraction();
        assert!(exact_fraction > 0.5, "exact fraction {exact_fraction:.2}");
        assert!(platform.batch_report(&totals).throughput_qps > 0.0);
    }

    #[test]
    fn pipelined_config_beats_baseline_throughput() {
        let reference = genome::uniform(4_000, 36);
        let reads: Vec<DnaSeq> = (0..20)
            .map(|i| reference.subseq(i * 100..i * 100 + 50))
            .collect();
        let rn = report(
            &Platform::new(reference.to_packed(), PimAlignerConfig::baseline()),
            &reads,
        );
        let rp = report(
            &Platform::new(reference.to_packed(), PimAlignerConfig::pipelined()),
            &reads,
        );
        let gain = rp.throughput_qps / rn.throughput_qps;
        assert!((1.25..1.60).contains(&gain), "pipeline gain {gain:.3}");
    }

    #[test]
    fn both_strands_double_miss_reports_forward() {
        // A read that maps on neither strand is unmapped *as given*: the
        // strand must come back Forward (SAM leaves 0x10 clear on
        // unmapped records), not Reverse as the pre-fix code claimed.
        let reference: DnaSeq = "AAAAAAAAAAAAAAAAAAAA".parse().unwrap();
        let platform = Platform::new(
            reference.to_packed(),
            PimAlignerConfig::baseline()
                .with_max_diffs(1)
                .with_indels(false),
        );
        let read: DnaSeq = "GGGGGGGG".parse().unwrap();
        let (pairs, _) = platform.align_chunk_parallel(&[read], 1, 0, true).unwrap();
        assert_eq!(pairs, [(AlignmentOutcome::Unmapped, MappedStrand::Forward)]);
        // A reverse-complement hit still reports Reverse.
        let reference = genome::uniform(4_000, 48);
        let platform = Platform::new(reference.to_packed(), PimAlignerConfig::baseline());
        let rev = reference.subseq(1_000..1_060).reverse_complement();
        let (pairs, _) = platform.align_chunk_parallel(&[rev], 1, 0, true).unwrap();
        let (outcome, strand) = &pairs[0];
        assert!(outcome.is_mapped());
        assert_eq!(*strand, MappedStrand::Reverse);
    }

    #[test]
    fn recovery_is_transparent_without_faults() {
        use crate::config::RecoveryPolicy;
        let reference = genome::uniform(6_000, 39);
        let reads: Vec<DnaSeq> = (0..12)
            .map(|i| reference.subseq(i * 400..i * 400 + 60))
            .collect();
        let raw = Platform::new(reference.to_packed(), PimAlignerConfig::baseline());
        let recovering = Platform::new(
            reference.to_packed(),
            PimAlignerConfig::baseline().with_recovery(RecoveryPolicy::standard()),
        );
        let (raw_out, raw_totals) = align(&raw, &reads);
        let (rec_out, rec_totals) = align(&recovering, &reads);
        assert_eq!(raw_out, rec_out);
        let t = recovering.batch_report(&rec_totals).faults;
        assert_eq!(t.injected_total(), 0);
        assert_eq!(t.verify_failures, 0);
        assert_eq!(
            t.retries + t.escalations + t.host_fallbacks + t.unrecoverable,
            0
        );
        assert_eq!(t.verifications, reads.len() as u64);
        assert!(raw.batch_report(&raw_totals).faults.is_quiet());
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
        let platform = Platform::new(
            reference.to_packed(),
            PimAlignerConfig::baseline()
                .with_fault_campaign(campaign)
                .with_recovery(RecoveryPolicy::standard()),
        );
        let (outcomes, totals) = align(&platform, &reads);
        for (i, outcome) in outcomes.iter().enumerate() {
            let positions = outcome.positions().expect("read must map");
            assert!(
                positions.contains(&(i * 1_400)),
                "read {i} placed at {positions:?}"
            );
        }
        let t = platform.batch_report(&totals).faults;
        assert!(t.injected_total() > 0, "campaign must inject: {t:?}");
        assert!(
            t.retries + t.host_fallbacks > 0,
            "recovery must have worked: {t:?}"
        );
    }
}
