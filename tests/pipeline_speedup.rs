//! Integration: the §VI pipeline claim — Pd = 2 improves throughput by
//! ~40 % over the baseline — measured end-to-end through the simulator.

use bioseq::DnaSeq;
use pim_aligner::{
    sam, AlignmentOutcome, LfmRequest, MappedIndex, MappedStrand, PimAlignerConfig, Platform,
};
use pimsim::CycleLedger;
use readsim::genome;

mod support;

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
    let baseline = Platform::new(reference.to_packed(), PimAlignerConfig::baseline());
    let pipelined = Platform::new(reference.to_packed(), PimAlignerConfig::pipelined());
    let (on, totals_n) = support::align(&baseline, &reads);
    let (op, totals_p) = support::align(&pipelined, &reads);
    let rn = baseline.batch_report(&totals_n);
    let rp = pipelined.batch_report(&totals_p);
    let gain = rp.throughput_qps / rn.throughput_qps;
    assert!(
        (1.30..1.55).contains(&gain),
        "measured Pd=2 gain {gain:.3}, paper claims ~40%"
    );
    // Fig. 8a: the pipelined design draws more power.
    assert!(rp.total_power_w > rn.total_power_w);
    // Identical alignment results regardless of configuration.
    assert_eq!(on, op);
}

/// Renders the full SAM stream of a both-strands chunk, so the
/// comparison below is byte identity of the actual output format, not
/// just outcome-struct equality.
fn sam_of(
    reads: &[DnaSeq],
    reference_len: usize,
    pairs: &[(AlignmentOutcome, MappedStrand)],
) -> String {
    let mut out = sam::header("chrT", reference_len);
    for (i, (outcome, strand)) in pairs.iter().enumerate() {
        let record = sam::record_for(&format!("r{i}"), "chrT", &reads[i], None, outcome, *strand);
        out.push_str(&record.to_line());
        out.push('\n');
    }
    out
}

/// Every read's published descent, two `LFM`s a step, as requests in lock
/// step: each step of read `r` is stream `r`, and the reads still matching
/// take their next step together.
fn lock_step_requests(mapped: &MappedIndex, reads: &[DnaSeq]) -> Vec<LfmRequest> {
    let oracle = mapped.index();
    let lfm = |nt, id| oracle.marker_table().lfm(oracle.bwt(), nt, id) as usize;
    let mut intervals = vec![(0, oracle.text_len()); reads.len()];
    let mut requests = Vec::new();
    for depth in 0.. {
        let issued = requests.len();
        for (stream, read) in reads.iter().enumerate() {
            let (low, high) = intervals[stream];
            if depth == read.len() || low >= high {
                continue;
            }
            let nt = read[read.len() - 1 - depth];
            requests.push(LfmRequest {
                stream,
                nt,
                id: low,
            });
            requests.push(LfmRequest {
                stream,
                nt,
                id: high,
            });
            intervals[stream] = (lfm(nt, low), lfm(nt, high));
        }
        if requests.len() == issued {
            return requests;
        }
    }
    unreachable!("every descent ends")
}

#[test]
fn pd2_schedule_cuts_simulated_cycles_sam_identical() {
    // The §VI pipeline claim: Pd changes when an `LFM` issues, never what
    // it returns, so the SAM stream is the same at Pd = 1 and 2 and at any
    // worker count...
    let reference = genome::uniform(60_000, 93);
    let reads = clean_reads(&reference, 40, 80);
    let config = |pd: usize| {
        if pd == 1 {
            PimAlignerConfig::baseline()
        } else {
            PimAlignerConfig::pipelined().with_pd(pd)
        }
    };
    let run = |pd: usize, threads: usize| {
        let (pairs, _) = Platform::new(reference.to_packed(), config(pd))
            .align_chunk_parallel(&reads, threads, 0, true)
            .unwrap();
        sam_of(&reads, reference.len(), &pairs)
    };
    let expected = run(1, 1);
    for (pd, threads) in [(1, 4), (2, 1), (2, 4)] {
        assert_eq!(
            run(pd, threads),
            expected,
            "Pd={pd} with {threads} threads changed the SAM stream"
        );
    }
    // ...while the stage-queue scheduler, given the same reads' issues in
    // lock step, overlaps one read's compare with another's add at Pd = 2
    // and finishes strictly earlier.
    let schedule = |pd: usize| {
        let mapped = MappedIndex::build(&reference.to_packed(), &config(pd));
        let requests = lock_step_requests(&mapped, &reads);
        let mut ledger = CycleLedger::new();
        mapped.lfm_batch(&requests, &mut [], &mut ledger);
        ledger.pipeline_counters()
    };
    let (p1, p2) = (schedule(1), schedule(2));
    assert!(p1.issued > 0);
    assert_eq!(p1.issued, p2.issued);
    assert!(
        p2.makespan_cycles < p1.makespan_cycles,
        "Pd=2 makespan {} must beat Pd=1 makespan {}",
        p2.makespan_cycles,
        p1.makespan_cycles
    );
    assert!(p2.makespan_cycles < p2.sequential_cycles);
    assert!(p2.overlap_saved_cycles() > 0);
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
        let platform = Platform::new(reference.to_packed(), config);
        let report = platform.batch_report(&support::align(&platform, &reads).1);
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
