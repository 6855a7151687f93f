//! `perfdump` — dump the platform's cycle-level metrics breakdown.
//!
//! ```text
//! perfdump [--pipelined] [--out PATH]
//! ```
//!
//! Runs the paper-shaped workload through one alignment session and
//! writes the full metrics document (`PerfReport::to_metrics_json`:
//! report + fault telemetry + per-primitive cycle breakdown) to
//! `BENCH_metrics.json`. The report is derived entirely from *simulated*
//! cycles, so the output is deterministic — byte-identical across runs
//! and machines — and is committed as the metrics baseline. The `host`
//! section (wall-clock telemetry) is redacted to its empty default for
//! exactly that reason; `pimalign --metrics-out` carries the live host
//! numbers.
//!
//! `--pipelined` switches to PIM-Aligner-p (Pd = 2). An unknown flag or
//! an `--out` without a value is a usage error (exit 2), so a typo never
//! overwrites the committed baseline.

use std::io::Write as _;
use std::process::ExitCode;

use bench::parse_report_args;
use bench::workload::Workload;
use pim_aligner::{HostTotals, PimAlignerConfig, Platform};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (pipelined, out_path) = match parse_report_args(&args, "--pipelined", "BENCH_metrics.json")
    {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("perfdump: {msg}\nusage: perfdump [--pipelined] [--out PATH]");
            return ExitCode::from(2);
        }
    };

    // A mixed workload: mostly-exact paper-statistics reads so both the
    // exact and inexact stages (and their phase attribution) show up.
    let genome_len = 120_000;
    let read_count = 64;
    let workload = Workload::paper_scaled(genome_len, read_count, 80, 2304);
    let config = if pipelined {
        PimAlignerConfig::pipelined()
    } else {
        PimAlignerConfig::baseline()
    };
    eprintln!(
        "perfdump: {genome_len} bp reference, {read_count} x 80 bp reads, Pd={}",
        config.pd()
    );

    let platform = Platform::new(&workload.reference, config);
    let mut session = platform.session();
    for read in &workload.reads {
        let _ = session.align_read(read);
    }
    let mut report = session.report();
    // The committed baseline must stay byte-identical across runs and
    // machines, and the host section is wall-clock time. Redact it; the
    // live host numbers belong to `pimalign --metrics-out`.
    report.host = HostTotals::default();
    eprintln!("perfdump: host telemetry redacted (wall-clock; kept deterministic)");

    let b = &report.breakdown;
    assert!(
        b.reconciles(),
        "primitive cycles {} must reconcile with the ledger total {}",
        b.primitive_cycles_total,
        b.total_busy_cycles
    );
    assert_eq!(
        b.lfm_by_phase.total(),
        report.lfm_calls,
        "phase attribution must cover every LFM"
    );
    eprintln!(
        "perfdump: {} LFMs ({} exact / {} inexact), {} busy cycles, {} sub-array activations",
        report.lfm_calls,
        b.lfm_by_phase.exact,
        b.lfm_by_phase.inexact,
        b.total_busy_cycles,
        b.subarray_activations
    );

    let mut file = std::fs::File::create(&out_path)
        .unwrap_or_else(|e| panic!("cannot create {out_path}: {e}"));
    write!(file, "{}", report.to_metrics_json())
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("perfdump: wrote {out_path}");
    ExitCode::SUCCESS
}
