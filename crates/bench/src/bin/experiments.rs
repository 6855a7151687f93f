//! Regenerates every table and figure of the paper's evaluation (§VI).
//!
//! Usage:
//!
//! ```text
//! experiments [fig5b|fig7|fig8|fig9|fig9c|fig10|stages|all]
//! ```
//!
//! Each sub-command prints the figure's data series; `all` (the default)
//! prints everything, in paper order. EXPERIMENTS.md records one run of
//! this binary next to the paper's reported values.

use accel::{figure_series, Figure};
use bench::table::{format_value, render_series, render_table};
use bench::{figure_workload, paper_workload, pim_platform_rows, simulate_config};
use mram::device::CellParams;
use mram::montecarlo;
use pim_aligner::{PerfReport, PimAlignerConfig};
use pimsim::pipeline::PipelineParams;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_owned());
    match which.as_str() {
        "fig5b" => fig5b(),
        "fig7" => fig7(),
        "fig8" => fig8_to_10(&[Figure::PowerFig8a, Figure::ThroughputFig8b]),
        "fig9" => fig8_to_10(&[
            Figure::ThroughputPerWattFig9a,
            Figure::ThroughputPerWattMm2Fig9b,
        ]),
        "fig9c" => fig9c(),
        "fig10" => fig8_to_10(&[
            Figure::OffchipMemoryFig10a,
            Figure::MbrFig10b,
            Figure::RurFig10c,
        ]),
        "stages" => stages(),
        "energy" => energy_breakdown(),
        "all" => {
            fig5b();
            fig7();
            fig8_to_10(&Figure::ALL);
            fig9c();
            stages();
            energy_breakdown();
        }
        other => {
            eprintln!(
                "unknown experiment '{other}'; expected fig5b|fig7|fig8|fig9|fig9c|fig10|stages|energy|all"
            );
            std::process::exit(2);
        }
    }
}

/// Fig. 5b: Monte-Carlo V_sense distributions and sense margins.
fn fig5b() {
    let trials = montecarlo::PAPER_TRIALS;
    let report = montecarlo::run(&CellParams::default(), trials, 42);
    println!("Fig. 5b: Monte-Carlo sense margins ({trials} trials, sigma_RA=2%, sigma_TMR=5%)");
    println!("------------------------------------------------------------------------------");
    for panel in &report.panels {
        println!("fan-in {}:", panel.fan_in);
        for level in &panel.levels {
            println!(
                "  {} of {} cells '1': mean {:.2} mV, sigma {:.3} mV, range [{:.2}, {:.2}]",
                level.ones, panel.fan_in, level.mean_mv, level.sigma_mv, level.min_mv, level.max_mv
            );
        }
        for (k, (&m, &p)) in panel.margins_mv.iter().zip(&panel.misread_prob).enumerate() {
            println!(
                "  margin@threshold{}: {:.2} mV (misread prob {:.2e})",
                k, m, p
            );
        }
    }
    let thick = montecarlo::run(&CellParams::default().with_tox_nm(2.0), trials, 42);
    println!(
        "t_ox 1.5 -> 2.0 nm: MAJ margin {:.2} -> {:.2} mV (gain {:.1} mV; paper: ~45 mV)\n",
        report.maj_margin_mv(),
        thick.maj_margin_mv(),
        thick.maj_margin_mv() - report.maj_margin_mv()
    );
}

/// Fig. 7: pipeline behaviour and the ~40 % Pd = 2 gain.
fn fig7() {
    let p = PipelineParams::default();
    println!(
        "Fig. 7: pipeline model (stage A {} cyc, transfer {} cyc, stage B {} cyc)",
        p.stage_a_cycles, p.transfer_cycles, p.stage_b_cycles
    );
    println!("---------------------------------------------------------------------");
    for pd in 1..=4 {
        println!(
            "Pd={pd}: {:.1} cycles/LFM, speed-up {:.3}x",
            p.cycles_per_lfm(pd),
            p.speedup(pd)
        );
    }
    println!(
        "paper: 'pipeline technique with Pd=2 has improved the performance by ~40%' -> measured {:.0}%\n",
        (p.speedup(2) - 1.0) * 100.0
    );
}

/// The runs as they ran, under the figures they are compared in. The
/// figure rows are taken at the published algorithm's `LFM` count
/// (`PerfReport::as_published`); the seed table, the word-line interval
/// step and the partition rule fill fewer issue slots, by the factor `f`,
/// and those are extensions beyond the paper.
fn beyond_the_paper(label: &str, runs: &[(String, PerfReport)]) -> String {
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(name, r)| {
            vec![
                name.clone(),
                format!(
                    "{:.3}",
                    r.published_lfm_calls as f64 / r.issue_slots() as f64
                ),
                format_value(r.throughput_qps),
                format_value(r.total_power_w),
                format_value(r.throughput_per_watt),
                format_value(r.throughput_per_watt_mm2),
                format_value(r.energy_per_query_j * 1e9),
            ]
        })
        .collect();
    render_table(
        "beyond the paper: seed table + word-line step + partition (as run; f = published LFMs / issue slots)",
        &[
            label,
            "f",
            "Throughput (q/s)",
            "Power (W)",
            "T/W",
            "T/W/mm2",
            "nJ/query",
        ],
        &rows,
    )
}

/// Figs. 8a/8b/9a/9b/10a/10b/10c: the ten-platform comparison bars.
fn fig8_to_10(figures: &[Figure]) {
    let workload = figure_workload(11);
    let rows = pim_platform_rows(&workload);
    let platforms = rows.full_platform_list();
    for &figure in figures {
        let series = figure_series(figure, &platforms);
        println!("{}", render_series(figure.label(), &series));
    }
    let runs = [
        (rows.baseline.name.clone(), rows.baseline_report),
        (rows.pipelined.name.clone(), rows.pipelined_report),
    ];
    println!("{}", beyond_the_paper("Platform", &runs));
}

/// Fig. 9c: power/throughput trade-off vs parallelism degree.
fn fig9c() {
    let workload = figure_workload(13);
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for pd in 1..=4 {
        let config = if pd == 1 {
            PimAlignerConfig::baseline()
        } else {
            PimAlignerConfig::pipelined().with_pd(pd)
        };
        let report = simulate_config(&workload, config);
        let published = report.as_published();
        rows.push(vec![
            pd.to_string(),
            format_value(published.throughput_qps),
            format_value(published.total_power_w),
        ]);
        runs.push((pd.to_string(), report));
    }
    println!(
        "{}",
        render_table(
            "Fig. 9c: power-throughput trade-off vs Pd (paper: 6.7e6 q/s, 28.4 W at Pd=2)",
            &["Pd", "Throughput (q/s)", "Power (W)"],
            &rows
        )
    );
    println!("{}", beyond_the_paper("Pd", &runs));
}

/// Beyond-paper: where the platform's dynamic energy goes, per
/// primitive class.
fn energy_breakdown() {
    let workload = figure_workload(19);
    let config = PimAlignerConfig::baseline();
    let (_, totals) = pim_aligner::Platform::new(workload.reference.to_packed(), config.clone())
        .align_chunk_parallel(&workload.reads, 1, 0, false)
        .expect("the workload holds reads");
    let breakdown = totals.ledger.energy_breakdown_pj(config.model());
    let total: f64 = breakdown.iter().map(|(_, e)| e).sum();
    println!("Energy breakdown per primitive class (PIM-Aligner-n, exact workload)");
    println!("--------------------------------------------------------------------");
    for (op, pj) in breakdown {
        println!(
            "  {:<14} {:>12} pJ  ({:>5.1} %)",
            format!("{op:?}"),
            format_value(pj),
            100.0 * pj / total
        );
    }
    println!("  total          {:>12} pJ\n", format_value(total));
}

/// §III text claim: ~70 % of reads resolve in the exact stage.
fn stages() {
    let workload = paper_workload(17);
    let (pairs, totals) =
        pim_aligner::Platform::new(workload.reference.to_packed(), PimAlignerConfig::baseline())
            .align_chunk_parallel(&workload.reads, 1, 0, false)
            .expect("the workload holds reads");
    let mapped = pairs.iter().filter(|(o, _)| o.is_mapped()).count();
    println!("Two-stage alignment on the paper workload (100 bp, 0.2% error, 0.1% variation)");
    println!("------------------------------------------------------------------------------");
    println!(
        "reads {}  mapped {}  exact-stage fraction {:.1}% (paper: 'up to ~70%' resolve in stage 1)\n",
        workload.reads.len(),
        mapped,
        totals.exact_fraction() * 100.0
    );
}
