//! Accelerator survey: regenerates the paper's ten-platform comparison
//! (Figs. 8–10) by combining the published-platform catalogue with two
//! freshly simulated PIM-Aligner rows.
//!
//! Run with: `cargo run --release --example accelerator_survey`

use accel::{catalog, figure_series, Figure, Platform, PlatformClass};
use bioseq::DnaSeq;
use pim_aligner::PimAlignerConfig;
use readsim::variant::VariantProfile;
use readsim::{genome, ReadSimulator, SimProfile};

fn simulate(
    name: &str,
    config: PimAlignerConfig,
    reference: &DnaSeq,
    reads: &[DnaSeq],
) -> Platform {
    let platform = pim_aligner::Platform::new(reference.to_packed(), config);
    let (_, totals) = platform
        .align_chunk_parallel(reads, 1, 0, false)
        .expect("the workload holds reads");
    let report = platform.batch_report(&totals);
    Platform::from_measurements(
        name,
        PlatformClass::FmIndex,
        report.total_power_w,
        report.throughput_qps,
        report.area_mm2,
        report.offchip_gb,
        report.mbr_pct,
        report.rur_pct,
    )
}

fn main() {
    // Exact-stage workload (the paper's O(m) throughput model — see
    // EXPERIMENTS.md "figure-row workload").
    let reference = genome::uniform(120_000, 99);
    let profile = SimProfile::paper_defaults()
        .read_count(120)
        .error_rate(0.0)
        .variants(VariantProfile {
            rate: 0.0,
            ..Default::default()
        })
        .forward_only();
    let sim = ReadSimulator::new(profile, 5).simulate(&reference);
    let reads: Vec<DnaSeq> = sim.reads.into_iter().map(|r| r.seq).collect();

    let mut platforms = catalog();
    platforms.push(simulate(
        "PIM-Aligner-n",
        PimAlignerConfig::baseline(),
        &reference,
        &reads,
    ));
    platforms.push(simulate(
        "PIM-Aligner-p",
        PimAlignerConfig::pipelined(),
        &reference,
        &reads,
    ));

    for figure in Figure::ALL {
        println!("{}", figure.label());
        for (name, value) in figure_series(figure, &platforms) {
            println!("  {name:<14} {value:>12.4e}");
        }
        println!();
    }

    // The paper's headline claims, recomputed.
    let tpw = |name: &str| {
        platforms
            .iter()
            .find(|p| p.name == name)
            .map(Platform::throughput_per_watt)
            .expect("platform present")
    };
    let per_mm2 = |name: &str| {
        platforms
            .iter()
            .find(|p| p.name == name)
            .map(Platform::throughput_per_watt_mm2)
            .expect("platform present")
    };
    println!("headline ratios (PIM-Aligner-n vs ...):");
    println!(
        "  RaceLogic T/W      : {:.2}x (paper ~3.1x)",
        tpw("PIM-Aligner-n") / tpw("RaceLogic")
    );
    println!(
        "  ASIC      T/W      : {:.2}x (paper ~2x)",
        tpw("PIM-Aligner-n") / tpw("ASIC")
    );
    println!(
        "  FPGA      T/W      : {:.1}x (paper ~43.8x)",
        tpw("PIM-Aligner-n") / tpw("FPGA")
    );
    println!(
        "  GPU       T/W      : {:.0}x (paper ~458x)",
        tpw("PIM-Aligner-n") / tpw("GPU")
    );
    println!(
        "  ASIC      T/W/mm^2 : {:.2}x (paper ~9x)",
        per_mm2("PIM-Aligner-n") / per_mm2("ASIC")
    );
    println!(
        "  AligneR   T/W/mm^2 : {:.2}x (paper ~1.9x)",
        per_mm2("PIM-Aligner-n") / per_mm2("AligneR")
    );
}
