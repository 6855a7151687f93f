//! Integration: the verify-and-recover path holds alignment accuracy
//! under an active fault campaign (DESIGN.md §8).
//!
//! One seeded campaign, one read set, two runs: with recovery disabled
//! the platform measurably mis-places reads; with the standard recovery
//! ladder (verify each locus, retry, escalate the difference budget,
//! fall back to the host) at least 99 % of reads land on their
//! ground-truth locus, and the retry/fallback work is visible in the
//! performance report. Everything is seed-driven, so the test is
//! deterministic.

use bioseq::DnaSeq;
use mram::faults::{FaultCampaign, FaultModel};
use pim_aligner::{FaultTelemetry, PimAlignerConfig, Platform, RecoveryPolicy};
use readsim::genome;

mod support;

const READS: usize = 100;
const READ_LEN: usize = 80;

fn reads_with_truth(reference: &DnaSeq) -> (Vec<DnaSeq>, Vec<usize>) {
    (0..READS)
        .map(|i| {
            let start = (i * 397) % (reference.len() - READ_LEN);
            (reference.subseq(start..start + READ_LEN), start)
        })
        .unzip()
}

// Strong enough that the unprotected platform loses most reads (some
// mapped at wrong loci, most corrupted into Unmapped), mild enough that
// platform retries and budget escalation still recover many reads before
// the host-fallback rung.
fn hostile_campaign() -> FaultCampaign {
    FaultCampaign::seeded(37)
        .with_model(FaultModel::with_probabilities(1e-3, 1e-3))
        .with_stuck_at_rate(1e-4)
        .with_transient_row_rate(5e-3)
        .with_carry_fault_prob(5e-3)
}

fn placement_accuracy(
    reference: &DnaSeq,
    reads: &[DnaSeq],
    truth: &[usize],
    recovery: RecoveryPolicy,
) -> (f64, FaultTelemetry) {
    let config = PimAlignerConfig::baseline()
        .with_fault_campaign(hostile_campaign())
        .with_recovery(recovery);
    let platform = Platform::new(reference.to_packed(), config);
    let (outcomes, totals) = support::align(&platform, reads);
    let correct = outcomes
        .iter()
        .zip(truth)
        .filter(|(o, &t)| o.positions().is_some_and(|p| p.contains(&t)))
        .count();
    let faults = platform.batch_report(&totals).faults;
    (correct as f64 / reads.len() as f64, faults)
}

#[test]
fn recovery_restores_accuracy_under_active_campaign() {
    let campaign = hostile_campaign();
    assert!(campaign.model().xnor_misread_prob() > 0.0);

    let reference = genome::uniform(40_000, 211);
    let (reads, truth) = reads_with_truth(&reference);

    let (raw_acc, raw_t) =
        placement_accuracy(&reference, &reads, &truth, RecoveryPolicy::disabled());
    let (rec_acc, rec_t) =
        placement_accuracy(&reference, &reads, &truth, RecoveryPolicy::standard());

    // The unprotected platform must measurably mis-place reads...
    assert!(
        raw_acc < 0.95,
        "campaign too weak to demonstrate anything: raw accuracy {raw_acc}"
    );
    assert!(raw_t.injected_total() > 0, "no faults injected: {raw_t:?}");
    // ...while the recovery ladder holds the acceptance bar.
    assert!(
        rec_acc >= 0.99,
        "recovery must place >= 99% of reads correctly, got {rec_acc}"
    );

    // The work done to get there is visible in the telemetry. (Corrupted
    // rungs can come up Unmapped — nothing to verify — so only a lower
    // bound on verification activity is guaranteed.)
    assert!(
        rec_t.verifications > 0,
        "no verifications recorded: {rec_t:?}"
    );
    assert!(
        rec_t.retries + rec_t.host_fallbacks > 0,
        "recovery must have retried or fallen back: {rec_t:?}"
    );
    assert_eq!(
        rec_t.unrecoverable, 0,
        "host fallback leaves nothing unrecoverable"
    );
}

#[test]
fn bound_pruned_unmapped_climbs_the_ladder_under_a_campaign() {
    const PRUNED: usize = 30;
    // Three evenly spread substitutions: at the base budget z = 2 the
    // inexact stage's lower-bound pass rejects the read before any
    // backtracking, so every base-budget rung comes up `Unmapped`.
    let reference = genome::uniform(40_000, 213);
    let (clean, mut truth) = reads_with_truth(&reference);
    truth.truncate(PRUNED);
    let reads: Vec<DnaSeq> = clean
        .into_iter()
        .take(PRUNED)
        .map(|read| {
            let mut bases = read.into_bases();
            for at in [20, 40, 60] {
                bases[at] = bioseq::Base::from_rank((bases[at].rank() + 1) % 4);
            }
            DnaSeq::from_bases(bases)
        })
        .collect();

    // Fault-free, that `Unmapped` is the truth at z = 2 and is trusted:
    // the ladder short-circuits, and the pass cost at most m interval
    // steps on top of the exact stage's — 2·m `LFM`s each as published,
    // and as issued 2 682 in all (3 341 while only a one-row interval
    // took one `LFM` and every alternative was issued, 5 146 before the
    // one-row step), held to that + 5 %.
    let config = PimAlignerConfig::baseline().with_recovery(RecoveryPolicy::standard());
    let platform = Platform::new(reference.to_packed(), config);
    let (outcomes, totals) = support::align(&platform, &reads);
    let quiet = platform.batch_report(&totals);
    assert!(outcomes.iter().all(|o| o.positions().is_none()));
    assert_eq!(quiet.faults.escalations, 0);
    assert!(
        quiet.published_lfm_calls <= (PRUNED * 4 * READ_LEN) as u64,
        "{} LFMs as published: the bound pass did not prune",
        quiet.published_lfm_calls
    );
    assert!(
        quiet.lfm_calls <= 2_816,
        "{} LFMs: the bound pass did not prune",
        quiet.lfm_calls
    );

    // Under a campaign the pass draws from the read's fault stream like
    // any other `LFM`, so the same `Unmapped` could be a corrupted bound
    // and is not trusted: both retries run, then the z = 3 rung (or the
    // host) places the read.
    let (accuracy, t) = placement_accuracy(&reference, &reads, &truth, RecoveryPolicy::standard());
    assert!(
        accuracy >= 0.99,
        "recovery must place >= 99% of reads correctly, got {accuracy}"
    );
    assert_eq!(t.retries, 2 * PRUNED as u64, "{t:?}");
    assert_eq!(t.escalations, PRUNED as u64, "{t:?}");
    assert_eq!(t.unrecoverable, 0);
}

#[test]
fn recovered_run_replays_identically() {
    let reference = genome::uniform(20_000, 212);
    let (reads, _) = reads_with_truth(&reference);
    let run = || {
        let config = PimAlignerConfig::baseline()
            .with_fault_campaign(hostile_campaign())
            .with_recovery(RecoveryPolicy::standard());
        let platform = Platform::new(reference.to_packed(), config);
        let (outcomes, totals) = support::align(&platform, &reads);
        (outcomes, platform.batch_report(&totals).faults)
    };
    let (outcomes_a, faults_a) = run();
    let (outcomes_b, faults_b) = run();
    assert_eq!(
        outcomes_a, outcomes_b,
        "same campaign seed must replay identically"
    );
    assert_eq!(faults_a, faults_b);
}

/// Method-II mirrors hold no rows, but each still draws its stuck-cell
/// plan, after every primary has drawn its own: at `--pd 2` the build
/// counts the mirrors' stuck cells too, and every read aligns as at `-n`
/// — the primaries hold the same cells, and no add reads a row.
#[test]
fn mirrored_platform_counts_mirror_stuck_cells_and_aligns_as_in_place() {
    // Two sub-arrays of 32 768 bases.
    let reference = genome::uniform(40_000, 214);
    let (reads, _) = reads_with_truth(&reference);
    let campaign = FaultCampaign::seeded(41)
        .with_stuck_at_rate(1e-4)
        .with_carry_fault_prob(5e-3);
    let run = |config: PimAlignerConfig| {
        let config = config
            .with_fault_campaign(campaign)
            .with_recovery(RecoveryPolicy::standard());
        let platform = Platform::new(reference.to_packed(), config);
        assert_eq!(platform.mapped().subarray_count(), 2);
        let (outcomes, totals) = support::align(&platform, &reads);
        let faults = platform.batch_report(&totals).faults;
        let build = platform.mapped().build_fault_counters().stuck_cells;
        assert_eq!(faults.stuck_cells, build);
        (outcomes, faults)
    };
    let (outcomes_n, faults_n) = run(PimAlignerConfig::baseline());
    let (outcomes_p, faults_p) = run(PimAlignerConfig::pipelined());
    // Pinned when each mirror was a stored copy with its plan forced in.
    assert_eq!((faults_n.stuck_cells, faults_p.stuck_cells), (34, 62));
    assert_eq!(outcomes_p, outcomes_n);
    // Every alignment-time draw, and what recovery made of it, is `-n`'s.
    assert!(faults_p.carry_faults > 0, "{faults_p:?}");
    let stuck_cells = faults_n.stuck_cells;
    assert_eq!(
        FaultTelemetry {
            stuck_cells,
            ..faults_p
        },
        faults_n
    );
}
