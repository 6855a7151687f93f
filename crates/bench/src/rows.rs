//! Bridging the simulator to the figure rows: runs PIM-Aligner-n and
//! PIM-Aligner-p on a workload and converts their reports into
//! [`accel::Platform`] entries.

use accel::{Platform, PlatformClass};
use pim_aligner::{PerfReport, PimAlignerConfig};

use crate::workload::Workload;

/// The two simulated PIM-Aligner rows plus their raw reports.
#[derive(Debug, Clone)]
pub struct PimRows {
    /// PIM-Aligner-n (baseline) as a figure row.
    pub baseline: Platform,
    /// PIM-Aligner-p (Pd = 2) as a figure row.
    pub pipelined: Platform,
    /// Raw baseline report.
    pub baseline_report: PerfReport,
    /// Raw pipelined report.
    pub pipelined_report: PerfReport,
}

/// Runs one configuration over the workload and returns its report.
pub fn simulate_config(workload: &Workload, config: PimAlignerConfig) -> PerfReport {
    let platform = pim_aligner::Platform::new(workload.reference.to_packed(), config);
    let (_, totals) = platform
        .align_chunk_parallel(&workload.reads, 1, 0, false)
        .expect("a workload holds reads");
    platform.batch_report(&totals)
}

/// Converts a report into a figure row. The paper's figures are of the
/// published algorithm, so the row is taken at its `LFM` count
/// ([`PerfReport::as_published`]), not at the run's.
fn to_platform(name: &str, report: &PerfReport) -> Platform {
    let report = report.as_published();
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

/// Simulates both paper configurations on the workload.
pub fn pim_platform_rows(workload: &Workload) -> PimRows {
    let baseline_report = simulate_config(workload, PimAlignerConfig::baseline());
    let pipelined_report = simulate_config(workload, PimAlignerConfig::pipelined());
    PimRows {
        baseline: to_platform("PIM-Aligner-n", &baseline_report),
        pipelined: to_platform("PIM-Aligner-p", &pipelined_report),
        baseline_report,
        pipelined_report,
    }
}

impl PimRows {
    /// The full ten-platform list in the paper's figure order (the eight
    /// published accelerators followed by the two PIM-Aligner variants).
    pub fn full_platform_list(&self) -> Vec<Platform> {
        let mut list = accel::catalog();
        list.push(self.baseline.clone());
        list.push(self.pipelined.clone());
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn rows() -> PimRows {
        // Small but representative: two sub-arrays, both stages hit.
        let w = Workload::clean(60_000, 40, 100, 7);
        pim_platform_rows(&w)
    }

    #[test]
    fn produces_ten_platform_list() {
        let r = rows();
        let list = r.full_platform_list();
        assert_eq!(list.len(), 10);
        assert_eq!(list[8].name, "PIM-Aligner-n");
        assert_eq!(list[9].name, "PIM-Aligner-p");
    }

    #[test]
    fn pipelined_row_beats_baseline_throughput() {
        let r = rows();
        assert!(r.pipelined.throughput_qps > r.baseline.throughput_qps);
        assert!(r.pipelined.power_w > r.baseline.power_w);
    }

    #[test]
    fn figure_rows_are_taken_at_the_published_count() {
        // 40 error-free 100-base reads, a pipeline unit each: Algorithm 1
        // issues 2·m `LFM`s a read, the run one seed-table read for the
        // first three steps (60 001 rows: three levels) and m + 9 `LFM`s
        // at most, and the figure row's throughput is the published
        // algorithm's at the Fig. 7 rate.
        let r = rows();
        for (row, report, config) in [
            (
                &r.baseline,
                &r.baseline_report,
                PimAlignerConfig::baseline(),
            ),
            (
                &r.pipelined,
                &r.pipelined_report,
                PimAlignerConfig::pipelined(),
            ),
        ] {
            assert_eq!(report.published_lfm_calls, 40 * 2 * 100);
            assert_eq!(report.issue_slots(), report.lfm_calls + 40);
            assert!(
                report.lfm_calls <= 40 * (100 + 9),
                "{} LFMs",
                report.lfm_calls
            );
            let cycles_per_read = 200.0 * config.pipeline().cycles_per_lfm(config.pd());
            let qps = 40.0 / (cycles_per_read * config.model().cycle_ns() * 1e-9);
            assert!(
                (row.throughput_qps / qps - 1.0).abs() < 1e-12,
                "{}: {} q/s, published {qps}",
                row.name,
                row.throughput_qps
            );
        }
    }

    #[test]
    fn simulated_rows_reproduce_headline_ratios() {
        // The paper's headline claims, end to end from the simulator:
        // 3.1× T/W over RaceLogic, ~2× over ASIC, ~9×/1.9× area-normalised.
        let r = rows();
        let catalog = accel::catalog();
        let by_name = |name: &str| catalog.iter().find(|p| p.name == name).unwrap();
        let pim = r.baseline.throughput_per_watt();
        let race = pim / by_name("RaceLogic").throughput_per_watt();
        assert!((2.5..3.8).contains(&race), "RaceLogic ratio {race:.2}");
        let asic = pim / by_name("ASIC").throughput_per_watt();
        assert!((1.6..2.6).contains(&asic), "ASIC ratio {asic:.2}");
        let asic_area =
            r.baseline.throughput_per_watt_mm2() / by_name("ASIC").throughput_per_watt_mm2();
        assert!(
            (7.0..11.0).contains(&asic_area),
            "ASIC T/W/mm2 ratio {asic_area:.2} (paper ~9x)"
        );
    }

    #[test]
    fn simulated_rows_hold_figure_orderings() {
        // 160 reads > the chip's 144 parallel units, so the rows reflect
        // the saturated operating point the figures compare at.
        let r = pim_platform_rows(&Workload::clean(60_000, 160, 100, 5));
        // Fig. 8b: only RaceLogic out-throughputs PIM-Aligner-p.
        // Fig. 10c: PIM-Aligner-p has the highest resource utilisation.
        for p in accel::catalog() {
            if p.name != "RaceLogic" {
                assert!(
                    p.throughput_qps < r.pipelined.throughput_qps,
                    "{} should trail PIM-Aligner-p",
                    p.name
                );
            }
            assert!(
                p.rur_pct < r.pipelined.rur_pct,
                "{} RUR {:.1} should trail PIM-Aligner-p {:.1}",
                p.name,
                p.rur_pct,
                r.pipelined.rur_pct
            );
        }
        assert!(r.baseline.rur_pct < r.pipelined.rur_pct);
        // Fig. 10a/10b: no off-chip memory, under 18 % of time on it.
        for row in [&r.baseline, &r.pipelined] {
            assert_eq!(row.offchip_gb, 0.0);
            assert!(row.mbr_pct < 18.0, "{} MBR {:.1}", row.name, row.mbr_pct);
        }
    }
}
