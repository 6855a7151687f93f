//! `faultsweep` — device variation vs alignment accuracy, with and
//! without verify-and-recover (DESIGN.md §8, EXPERIMENTS.md).
//!
//! Usage:
//!
//! ```text
//! faultsweep [campaign-seed]
//! ```
//!
//! Sweeps the comparator sense-offset level, derives the per-decision
//! misread probability from the Monte-Carlo margin analysis at each
//! level, adds level-scaled structural faults (stuck-at cells, transient
//! row reads, carry-chain kills), and aligns one fixed workload twice
//! per level: recovery disabled and recovery enabled
//! ([`RecoveryPolicy::standard`]). The table reports the fraction of
//! reads placed at their ground-truth donor locus plus the recovery
//! telemetry, showing where the unprotected platform starts mis-placing
//! reads and that the verify-and-recover path holds accuracy.

use bench::Workload;
use mram::device::CellParams;
use mram::faults::{FaultCampaign, FaultModel};
use pim_aligner::{PimAlignerConfig, Platform, RecoveryPolicy};

/// Comparator offset levels (mV-scale sigma multiplier on the sense
/// path); 0 is the paper's nominal fault-free design point.
const OFFSET_LEVELS: &[f64] = &[0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5];
const MC_TRIALS: usize = 2_000;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| {
            s.parse().unwrap_or_else(|e| {
                eprintln!("faultsweep: invalid campaign seed: {e}");
                std::process::exit(2);
            })
        })
        .unwrap_or(23);
    // Error-free reads: every read has one unambiguous ground-truth
    // locus, so accuracy isolates the fault response (paper-statistics
    // reads would fold sequencing error into the same number).
    let workload = Workload::clean(40_000, 60, 80, 29);

    println!("Fault sweep: sense-offset level vs placement accuracy (campaign seed {seed})");
    println!(
        "workload: {} reads x {} bp on a {} bp reference",
        workload.reads.len(),
        80,
        40_000
    );
    println!();
    println!(
        "{:>6}  {:>9}  {:>9}  {:>9}  {:>8}  {:>8}  {:>8}  {:>7}",
        "offset", "p(misread)", "acc(raw)", "acc(rec)", "injected", "retries", "fallback", "unrec"
    );
    for &offset in OFFSET_LEVELS {
        let cell = CellParams::default().with_sense_offset(offset);
        let model = FaultModel::from_cell(&cell, MC_TRIALS, 7);
        let campaign = FaultCampaign::seeded(seed)
            .with_model(model)
            .with_stuck_at_rate(2e-5 * offset)
            .with_transient_row_rate(2e-3 * offset)
            .with_carry_fault_prob(1e-3 * offset);
        let raw = run_once(&workload, campaign, RecoveryPolicy::disabled());
        let rec = run_once(&workload, campaign, RecoveryPolicy::standard());
        println!(
            "{:>6.2}  {:>9.2e}  {:>8.1}%  {:>8.1}%  {:>8}  {:>8}  {:>8}  {:>7}",
            offset,
            model.xnor_misread_prob(),
            100.0 * raw.accuracy,
            100.0 * rec.accuracy,
            rec.injected,
            rec.retries,
            rec.fallbacks,
            rec.unrecoverable,
        );
    }
    println!();
    println!("acc(raw): fraction of reads at the ground-truth locus, recovery disabled");
    println!("acc(rec): same with verify-and-recover (retry -> escalate z -> host fallback)");
}

struct SweepPoint {
    accuracy: f64,
    injected: u64,
    retries: u64,
    fallbacks: u64,
    unrecoverable: u64,
}

fn run_once(workload: &Workload, campaign: FaultCampaign, recovery: RecoveryPolicy) -> SweepPoint {
    let config = PimAlignerConfig::baseline()
        .with_fault_campaign(campaign)
        .with_recovery(recovery);
    let platform = Platform::new(workload.reference.to_packed(), config);
    let (pairs, totals) = platform
        .align_chunk_parallel(&workload.reads, 1, 0, false)
        .expect("the workload holds reads");
    let correct = pairs
        .iter()
        .zip(&workload.truth)
        .filter(|((o, _), &truth)| o.positions().is_some_and(|p| p.contains(&truth)))
        .count();
    let t = platform.batch_report(&totals).faults;
    SweepPoint {
        accuracy: correct as f64 / workload.reads.len() as f64,
        injected: t.injected_total(),
        retries: t.retries,
        fallbacks: t.host_fallbacks,
        unrecoverable: t.unrecoverable,
    }
}
