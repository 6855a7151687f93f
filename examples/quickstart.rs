//! Quickstart: the paper's Fig. 1 running example, end to end.
//!
//! Builds the FM-index over the toy reference `TGCTA`, shows the
//! pre-computed tables, aligns the read `CTA` both in software and on the
//! simulated SOT-MRAM platform, and prints the platform's performance
//! report.
//!
//! Run with: `cargo run --example quickstart`

use bioseq::{Base, DnaSeq, PackedSeq};
use fmindex::FmIndex;
use pim_aligner::{PimAlignerConfig, Platform};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Fig. 1: reference, BWT, suffix array ---
    let reference: PackedSeq = "TGCTA".parse()?;
    let read: DnaSeq = "CTA".parse()?;
    println!("reference S = {reference}$   read R = {read}");

    let index = FmIndex::builder().bucket_width(2).build(&reference);
    println!("BWT(S$)     = {}", index.bwt());
    println!(
        "Count(nt)   = A:{} C:{} G:{} T:{}",
        index.count_table().get(Base::A),
        index.count_table().get(Base::C),
        index.count_table().get(Base::G),
        index.count_table().get(Base::T),
    );

    // --- Software backward search (the §II algorithm) ---
    let interval = index.backward_search(&read).expect("CTA occurs in TGCTA");
    println!(
        "software search: SA interval {interval} -> positions {:?}",
        index.locate(interval)
    );

    // --- The same alignment on the simulated PIM platform ---
    // One chunk (epoch 0) of one read, on one worker thread, forward
    // strand only.
    let platform = Platform::new(reference, PimAlignerConfig::pipelined());
    let (pairs, totals) = platform.align_chunk_parallel(&[read], 1, 0, false)?;
    let (outcome, _strand) = &pairs[0];
    println!("platform search: {outcome:?}");
    assert_eq!(outcome.positions(), Some(&[2usize][..]));

    // --- Performance report (Figs. 8-10 quantities) ---
    let report = platform.batch_report(&totals);
    println!("\nplatform report (PIM-Aligner-p, Pd = 2):");
    println!("  LFM invocations : {}", report.lfm_calls);
    println!(
        "  throughput      : {:.3e} queries/s",
        report.throughput_qps
    );
    println!("  total power     : {:.1} W", report.total_power_w);
    println!("  MBR             : {:.1} %", report.mbr_pct);
    println!("  RUR             : {:.1} %", report.rur_pct);
    Ok(())
}
