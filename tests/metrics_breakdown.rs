//! Integration: the cycle-level metrics layer — counter reconciliation
//! against the ledger, worker-merge associativity and phase attribution
//! over real alignment runs.

use pim_aligner_suite::bioseq::DnaSeq;
use pim_aligner_suite::pim_aligner::{PerfReport, PimAlignerConfig, Platform};
use pim_aligner_suite::readsim::{genome, ReadSimulator, SimProfile};

mod support;

fn workload(genome_len: usize, count: usize, seed: u64) -> (DnaSeq, Vec<DnaSeq>) {
    let reference = genome::uniform(genome_len, seed);
    let profile = SimProfile::paper_defaults()
        .read_count(count)
        .read_len(80)
        .forward_only();
    let sim = ReadSimulator::new(profile, seed ^ 0xfeed).simulate(&reference);
    (reference, sim.reads.into_iter().map(|r| r.seq).collect())
}

/// The tentpole invariant: every production cycle is charged through a
/// logical op, so the per-primitive counter total reconciles *exactly*
/// with the ledger's resource-level aggregate after a real batch.
#[test]
fn breakdown_reconciles_with_ledger_after_alignment() {
    let (reference, reads) = workload(30_000, 32, 71);
    let platform = Platform::new(reference.to_packed(), PimAlignerConfig::pipelined());
    let (_, totals) = support::align(&platform, &reads);
    let report = platform.batch_report(&totals);
    let b = &report.breakdown;

    assert!(
        b.reconciles(),
        "primitive cycles {} != ledger busy cycles {}",
        b.primitive_cycles_total,
        b.total_busy_cycles
    );
    assert_eq!(b.total_busy_cycles, totals.ledger.total_busy_cycles());
    let row_sum: u64 = b.primitives.iter().map(|p| p.busy_cycles).sum();
    assert_eq!(row_sum, b.primitive_cycles_total);
    let resource_sum: u64 = b.resources.iter().map(|r| r.busy_cycles).sum();
    assert_eq!(resource_sum, b.total_busy_cycles);

    // Phase attribution covers every LFM, and the exact stage dominates
    // on a paper-statistics workload.
    assert_eq!(b.lfm_by_phase.total(), report.lfm_calls);
    assert!(b.lfm_by_phase.exact > 0);
    assert_eq!(b.lfm_by_phase.recovery_retry, 0, "no recovery configured");

    // Structural sanity: 2 XNORs per LFM pair is the dominant compare
    // load; every LFM carries exactly one XNOR + one IM_ADD.
    let by_name = |n: &str| {
        b.primitives
            .iter()
            .find(|p| p.name == n)
            .unwrap_or_else(|| panic!("missing primitive {n}"))
    };
    assert_eq!(by_name("xnor_match").count, report.lfm_calls);
    assert_eq!(by_name("im_add32").count, report.lfm_calls);
    // One bump for every step that issued one `LFM` for the published
    // two, and two `LFM`s for every step a seed-table read stood in for.
    // A seed read a short suffix of the text moved a boundary of bumps
    // once more and stands for no step; one here.
    assert!(by_name("seed_read").count >= reads.len() as u64);
    assert_eq!(report.seed_corrections, totals.ledger.seed_corrections());
    assert_eq!(report.seed_corrections, 1);
    assert_eq!(
        report.published_lfm_calls,
        report.lfm_calls + by_name("index_bump").count - report.seed_corrections
            + 2 * totals.ledger.unissued_steps()
    );
    assert!(b.subarray_activations > 0);
    assert_eq!(b.im_add_carry_cycles, 13 * report.lfm_calls);
    assert!(b.index_build_cycles > 0, "one-time mapping cost attached");
}

/// Counter-merge associativity: 8 worker ledgers merged through
/// `BatchTotals` must yield the same counters as a single-thread run of
/// the same seed — exactly, energy included: it is priced from the merged
/// counts, not summed worker by worker.
#[test]
fn worker_merge_is_associative() {
    let (reference, reads) = workload(50_000, 48, 72);
    let platform = Platform::new(reference.to_packed(), PimAlignerConfig::baseline());
    let run = |threads| {
        let (_, totals) = platform
            .align_chunk_parallel(&reads, threads, 0, false)
            .unwrap();
        platform.batch_report(&totals)
    };
    let (one, eight) = (run(1), run(8));

    assert_eq!(one.lfm_calls, eight.lfm_calls);
    assert_eq!(one.breakdown.primitives, eight.breakdown.primitives);
    assert_eq!(one.breakdown.resources, eight.breakdown.resources);
    assert_eq!(
        one.breakdown.total_busy_cycles,
        eight.breakdown.total_busy_cycles
    );
    assert_eq!(
        one.breakdown.primitive_cycles_total,
        eight.breakdown.primitive_cycles_total
    );
    assert_eq!(one.breakdown.lfm_by_phase, eight.breakdown.lfm_by_phase);
    assert_eq!(
        one.breakdown.subarray_activations,
        eight.breakdown.subarray_activations
    );
    assert_eq!(
        one.breakdown.energy_pj.to_bits(),
        eight.breakdown.energy_pj.to_bits()
    );
    // Every read runs the single-read kernel: no schedule is recorded.
    assert_eq!(one.breakdown.pipeline.issued, 0);
}

/// What the seed table and the word-line interval step buy on reads stage
/// 1 settles, and what they may not move: an error-free read of `m` bases
/// is `m` interval steps — `2·m` `LFM`s as published — of which one table
/// read stands in for the first `k` and, of the rest, only the first
/// ≈ log₄(n / 128) − k, while the interval still spans several word
/// lines, issue two `LFM`s.
#[test]
fn error_free_reads_issue_one_lfm_a_base_once_the_interval_is_one_row() {
    const M: usize = 80;
    let reference = genome::uniform(50_000, 78);
    let reads: Vec<DnaSeq> = (0..48)
        .map(|i| {
            let start = (i * 997) % (reference.len() - M);
            reference.subseq(start..start + M)
        })
        .collect();
    let platform = Platform::new(reference.to_packed(), PimAlignerConfig::baseline());
    let (outcomes, totals) = support::align(&platform, &reads);
    assert!(outcomes.iter().all(|o| o.is_mapped()));
    let report = platform.batch_report(&totals);
    // ⌈log₄ 50 001⌉ = 8, and a table of six levels (five while it held
    // a pair of u32s an entry, three while it took N/64 bytes).
    let log4_n = (0..).find(|&k| 4usize.pow(k) > reference.len()).unwrap() as u64;
    let k = platform.mapped().seed_table().depth() as u64;
    assert_eq!(k, 6);
    let (m, reads) = (M as u64, reads.len() as u64);
    assert_eq!(report.published_lfm_calls, 2 * m * reads);
    assert!(
        report.lfm_calls <= (m + 2 * (log4_n + 2) - 2 * k) * reads,
        "{} LFMs for {reads} error-free reads of {m} bases",
        report.lfm_calls
    );
    let count = |name: &str| {
        let row = report.breakdown.primitives.iter().find(|p| p.name == name);
        row.unwrap_or_else(|| panic!("missing primitive {name}"))
            .count
    };
    assert_eq!(count("seed_read"), reads);
    assert_eq!(
        report.published_lfm_calls,
        report.lfm_calls + count("index_bump") - report.seed_corrections
            + 2 * k * count("seed_read")
    );
    assert_eq!(count("im_add32"), report.lfm_calls);
    assert!(report.breakdown.reconciles());
    assert_eq!(report.issue_slots(), report.lfm_calls + reads);

    // The view the paper's figures are compared at: Algorithm 1's
    // count at the same rate, so time and throughput are exact.
    let published = report.as_published();
    let f = report.published_lfm_calls as f64 / report.issue_slots() as f64;
    assert_eq!(published.lfm_calls, report.published_lfm_calls);
    assert_eq!(published.published_lfm_calls, report.published_lfm_calls);
    let exact = PerfReport::from_batch(
        platform.config(),
        &pim_aligner_suite::pimsim::CycleLedger::new(),
        reads,
        report.published_lfm_calls,
    );
    assert!((published.time_s / exact.time_s - 1.0).abs() < 1e-12);
    assert!((published.throughput_qps / exact.throughput_qps - 1.0).abs() < 1e-12);
    assert!((published.energy_per_query_j / report.energy_per_query_j - f).abs() < 1e-12);
    assert_eq!(published.total_power_w, report.total_power_w);
    assert_eq!(published.mbr_pct, report.mbr_pct);
    assert_eq!(published.breakdown, report.breakdown);
}

/// Recovery-ladder attribution: under an active fault campaign with
/// recovery on, retry/escalation `LFM`s land in their own buckets and
/// the total still covers every call.
#[test]
fn recovery_lfms_attributed_to_their_rungs() {
    use pim_aligner_suite::mram::faults::{FaultCampaign, FaultModel};
    use pim_aligner_suite::pim_aligner::RecoveryPolicy;

    let (reference, reads) = workload(30_000, 24, 75);
    let campaign = FaultCampaign::seeded(76)
        .with_model(FaultModel::with_probabilities(5e-3, 0.0))
        .with_transient_row_rate(0.01);
    let config = PimAlignerConfig::baseline()
        .with_fault_campaign(campaign)
        .with_recovery(RecoveryPolicy::standard());
    let platform = Platform::new(reference.to_packed(), config);
    let report = platform.batch_report(&support::align(&platform, &reads).1);
    let phase = report.breakdown.lfm_by_phase;
    assert_eq!(phase.total(), report.lfm_calls);
    assert!(
        phase.recovery_retry + phase.recovery_escalate > 0,
        "hostile campaign must trigger recovery rungs: {phase:?}"
    );
}

/// `scaled_to_queries` extrapolates the report but leaves the breakdown
/// at the simulated batch's scale (it describes work that actually ran).
#[test]
fn scaling_leaves_breakdown_unscaled() {
    let (reference, reads) = workload(20_000, 16, 77);
    let platform = Platform::new(reference.to_packed(), PimAlignerConfig::baseline());
    let report = platform.batch_report(&support::align(&platform, &reads).1);
    let scaled = report.scaled_to_queries(10_000_000);
    assert_eq!(scaled.breakdown, report.breakdown);
    assert!(scaled.lfm_calls > report.lfm_calls);
}

/// The synthetic-ledger path used by the report unit tests reconciles
/// too — `PerfReport::from_batch` builds the breakdown for any ledger
/// charged through logical ops.
#[test]
fn from_batch_breakdown_reconciles_for_synthetic_ledgers() {
    use pim_aligner_suite::mram::array::ArrayModel;
    use pim_aligner_suite::pimsim::{costs, CycleLedger};

    let model = ArrayModel::default();
    let mut ledger = CycleLedger::new();
    for _ in 0..200 {
        costs::charge_lfm(&model, &mut ledger);
    }
    let report = PerfReport::from_batch(&PimAlignerConfig::baseline(), &ledger, 1, 200);
    assert!(report.breakdown.reconciles());
    assert_eq!(
        report.breakdown.total_busy_cycles,
        200 * costs::lfm_cycles()
    );
}
