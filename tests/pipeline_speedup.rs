//! Integration: the §VI pipeline claim — Pd = 2 improves throughput by
//! ~40 % over the baseline — measured end-to-end through the simulator.

use bioseq::DnaSeq;
use pim_aligner::{
    align_batch_parallel_both_strands, sam, AlignSession, BatchResult, MappedStrand,
    PimAlignerConfig,
};
use readsim::genome;

fn clean_reads(reference: &DnaSeq, count: usize, len: usize) -> Vec<DnaSeq> {
    (0..count)
        .map(|i| {
            let start = (i * 991) % (reference.len() - len);
            reference.subseq(start..start + len)
        })
        .collect()
}

#[test]
fn pd2_gains_about_forty_percent() {
    let reference = genome::uniform(80_000, 91);
    let reads = clean_reads(&reference, 50, 100);
    let mut baseline = AlignSession::new(&reference, PimAlignerConfig::baseline());
    let mut pipelined = AlignSession::new(&reference, PimAlignerConfig::pipelined());
    let rn = baseline.align_batch(&reads).report;
    let rp = pipelined.align_batch(&reads).report;
    let gain = rp.throughput_qps / rn.throughput_qps;
    assert!(
        (1.30..1.55).contains(&gain),
        "measured Pd=2 gain {gain:.3}, paper claims ~40%"
    );
    // Fig. 8a: the pipelined design draws more power.
    assert!(rp.total_power_w > rn.total_power_w);
    // Identical alignment results regardless of configuration.
    let on = baseline.align_batch(&reads).outcomes;
    let op = pipelined.align_batch(&reads).outcomes;
    assert_eq!(on, op);
}

/// Renders the full SAM stream of a both-strands batch result, so the
/// comparison below is byte identity of the actual output format, not
/// just outcome-struct equality.
fn sam_of(
    reads: &[DnaSeq],
    reference_len: usize,
    result: &(BatchResult, Vec<MappedStrand>),
) -> String {
    let mut out = sam::header("chrT", reference_len);
    for (i, (outcome, strand)) in result.0.outcomes.iter().zip(&result.1).enumerate() {
        let record = sam::record_for(&format!("r{i}"), "chrT", &reads[i], None, outcome, *strand);
        out.push_str(&record.to_line());
        out.push('\n');
    }
    out
}

#[test]
fn pd2_with_batched_kernel_cuts_simulated_cycles_sam_identical() {
    // The §VI pipeline claim through the real stage-queue scheduler:
    // with the interleaved batch kernel active (width 8), Pd = 2 must
    // finish the same issue schedule in strictly fewer simulated cycles
    // than Pd = 1, without changing a single SAM byte.
    let reference = genome::uniform(60_000, 93);
    let reads = clean_reads(&reference, 40, 80);
    let run = |pd: usize, batch: usize| {
        let config = if pd == 1 {
            PimAlignerConfig::baseline()
        } else {
            PimAlignerConfig::pipelined().with_pd(pd)
        }
        .with_kernel_batch(batch);
        align_batch_parallel_both_strands(&reference, &config, &reads, 4).unwrap()
    };
    let pd1_wide = run(1, 8);
    let pd2_wide = run(2, 8);
    let pd2_narrow = run(2, 1);
    let expected = sam_of(&reads, reference.len(), &pd1_wide);
    assert_eq!(
        sam_of(&reads, reference.len(), &pd2_wide),
        expected,
        "Pd=2 batch=8 changed the SAM stream"
    );
    assert_eq!(
        sam_of(&reads, reference.len(), &pd2_narrow),
        expected,
        "Pd=2 batch=1 changed the SAM stream"
    );
    // Same interleaved schedule on both sides...
    let p1 = pd1_wide.0.report.breakdown.pipeline;
    let p2 = pd2_wide.0.report.breakdown.pipeline;
    assert!(p1.issued > 0, "batched kernel must drive the scheduler");
    assert_eq!(p1.issued, p2.issued);
    // ...but the Pd = 2 scheduler overlaps read i+1's compare with read
    // i's add, finishing strictly earlier.
    assert!(
        p2.makespan_cycles < p1.makespan_cycles,
        "Pd=2 makespan {} must beat Pd=1 makespan {}",
        p2.makespan_cycles,
        p1.makespan_cycles
    );
    assert!(p2.makespan_cycles < p2.sequential_cycles);
    assert!(p2.overlap_saved_cycles > 0);
}

#[test]
fn pd_sweep_monotone_with_diminishing_returns() {
    let reference = genome::uniform(40_000, 92);
    let reads = clean_reads(&reference, 30, 100);
    let mut throughput = Vec::new();
    let mut power = Vec::new();
    for pd in 1..=4 {
        let config = if pd == 1 {
            PimAlignerConfig::baseline()
        } else {
            PimAlignerConfig::pipelined().with_pd(pd)
        };
        let mut aligner = AlignSession::new(&reference, config);
        let report = aligner.align_batch(&reads).report;
        throughput.push(report.throughput_qps);
        power.push(report.total_power_w);
    }
    for w in throughput.windows(2) {
        assert!(
            w[1] >= w[0],
            "throughput must not fall with Pd: {throughput:?}"
        );
    }
    for w in power.windows(2) {
        assert!(w[1] > w[0], "power must rise with Pd: {power:?}");
    }
    // Fig. 9c: returns diminish as the compare stage saturates.
    let first_gain = throughput[1] / throughput[0];
    let last_gain = throughput[3] / throughput[2];
    assert!(
        last_gain < first_gain,
        "gains must diminish: {throughput:?}"
    );
}
