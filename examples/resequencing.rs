//! Resequencing scenario: the paper's evaluation workload at laptop
//! scale.
//!
//! Simulates an ART-like read set (100 bp, 0.2 % sequencing error, 0.1 %
//! population variation) against a synthetic genome, aligns it on the
//! simulated platform with the two-stage algorithm, and reports mapping
//! accuracy against the simulator's ground truth plus the platform
//! performance figures.
//!
//! Run with: `cargo run --release --example resequencing`

use bioseq::DnaSeq;
use pim_aligner::{AlignmentOutcome, PimAlignerConfig, Platform};
use readsim::{genome, ReadSimulator, SimProfile};

fn main() {
    let genome_len = 100_000;
    let read_count = 200;
    let reference = genome::uniform(genome_len, 2024);
    let profile = SimProfile::paper_defaults().read_count(read_count);
    let sim = ReadSimulator::new(profile, 7).simulate(&reference);

    println!(
        "genome {genome_len} bp, {read_count} x 100 bp reads, {} variants in donor",
        sim.donor.variants.len()
    );

    // Reads come from both strands; `both_strands` aligns each read as-is
    // and, if that fails, its reverse complement (the index covers the
    // forward strand only).
    let platform = Platform::new(reference.to_packed(), PimAlignerConfig::pipelined());
    let seqs: Vec<DnaSeq> = sim.reads.iter().map(|r| r.seq.clone()).collect();
    let (pairs, totals) = platform
        .align_chunk_parallel(&seqs, 1, 0, true)
        .expect("the read set is not empty");
    let mut exact = 0usize;
    let mut inexact = 0usize;
    let mut unmapped = 0usize;
    let mut correct = 0usize;

    for (read, (outcome, _strand)) in sim.reads.iter().zip(&pairs) {
        match outcome {
            AlignmentOutcome::Exact { .. } => exact += 1,
            AlignmentOutcome::Inexact { .. } => inexact += 1,
            AlignmentOutcome::Unmapped => unmapped += 1,
        }
        // Accuracy vs ground truth: a hit is correct when one reported
        // position is near the true donor position, on either strand
        // (indel variants shift coordinates slightly, so allow a small
        // window).
        if let Some(positions) = outcome.positions() {
            if positions.iter().any(|&p| p.abs_diff(read.donor_pos) <= 5) {
                correct += 1;
            }
        }
    }

    let total = sim.reads.len();
    println!("\nalignment outcomes:");
    println!(
        "  exact    : {exact} ({:.1} %)",
        100.0 * exact as f64 / total as f64
    );
    println!(
        "  inexact  : {inexact} ({:.1} %)",
        100.0 * inexact as f64 / total as f64
    );
    println!(
        "  unmapped : {unmapped} ({:.1} %)",
        100.0 * unmapped as f64 / total as f64
    );
    println!(
        "  correct origin among mapped: {:.1} %",
        100.0 * correct as f64 / (total - unmapped).max(1) as f64
    );

    let report = platform.batch_report(&totals);
    println!("\nplatform performance (PIM-Aligner-p):");
    println!("  throughput : {:.3e} queries/s", report.throughput_qps);
    println!("  power      : {:.1} W", report.total_power_w);
    println!("  energy     : {:.2e} J/query", report.energy_per_query_j);
    println!(
        "  at paper scale (10 M reads): {:.1} s of device time",
        report.scaled_to_queries(10_000_000).time_s
    );
}
