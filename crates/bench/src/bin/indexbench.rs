//! `indexbench` — index-artifact build/load benchmark and equivalence
//! check.
//!
//! ```text
//! indexbench [--quick] [--out PATH]
//! ```
//!
//! Measures, for a sweep of genome sizes, the build-once/load-many
//! asymmetry the artifact exists for:
//!
//! * `build_ms`: `IndexArtifact::new` (SA-IS + BWT + tables) — what a
//!   cold start pays every run;
//! * `load_ms`: `IndexArtifact::load_from_path` (checksums, table
//!   decode, and one pass over the BWT recounting the marker
//!   check-points to cross-check the stored ones) — what the warm path
//!   pays instead;
//! * `boot_ms`: the sub-array mapping, which both paths pay identically
//!   and which therefore stays out of `load_speedup = build / load`;
//! * the serialised footprint against the `size_model` prediction
//!   (`model_rel_err` — the save format and the model share the exact
//!   byte accounting, so any drift is a bug, not noise);
//! * `peak_rss_mb`: the process's resident high-water mark (`VmHWM`)
//!   after the row — rows run small to large, so it is the row's own
//!   peak; `null` where the host does not report it.
//!
//! Results are written as JSON (default `BENCH_index.json`) and
//! summarised on stderr. The run checks its own counted results and
//! exits 1 when the footprint is off the size model by more than 0.1 %,
//! or when the largest row's peak RSS
//! exceeds 7 bytes per reference base; `load_speedup` is wall-clock and
//! stays a printed number. `--quick` shrinks the sweep for CI; the full
//! sweep reaches 64 Mbp, which is only practical because the build cost
//! is paid once per artifact. An unknown flag or an `--out` without a
//! value is a usage error (exit 2).

use std::path::PathBuf;
use std::time::Instant;

use bench::parse_report_args;
use pim_aligner::{IndexArtifact, PimAlignerConfig, Platform};
use pimsim::json::{Json, Layout};
use readsim::genome;

struct SweepRow {
    genome_len: usize,
    sa_rate: u32,
    build_ms: f64,
    save_ms: f64,
    load_ms: f64,
    boot_ms: f64,
    load_speedup: f64,
    index_bytes: usize,
    bytes_per_bp: f64,
    model_bytes: usize,
    model_rel_err: f64,
    /// `VmHWM` once the row has run, in units of 2^20 bytes.
    peak_rss_mb: Option<f64>,
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// One sweep point: build, save, load, boot; report timings and the
/// footprint reconciliation.
fn sweep_point(genome_len: usize, sa_rate: u32, scratch: &PathBuf) -> SweepRow {
    let reference = genome::uniform(genome_len, 0x1de0 ^ genome_len as u64);
    let config = PimAlignerConfig::baseline();

    let t0 = Instant::now();
    let artifact = IndexArtifact::new("bench-ref", &reference, sa_rate);
    let build_ms = ms(t0);

    let t0 = Instant::now();
    artifact.save_to_path(scratch).expect("save artifact");
    let save_ms = ms(t0);
    let index_bytes = artifact.index_bytes();
    let model_bytes = artifact.model_bytes();
    // A warm boot is another process's: the built artifact must not be
    // resident under the load it is compared with.
    drop(artifact);

    let t0 = Instant::now();
    let loaded = IndexArtifact::load_from_path(scratch).expect("load artifact");
    let load_ms = ms(t0);
    // The sub-array mapping runs identically on cold and warm boots, so
    // it is timed once and excluded from the speedup ratio.
    let t0 = Instant::now();
    let _warm = Platform::from_artifact(&loaded, config, true);
    let boot_ms = ms(t0);
    let _ = std::fs::remove_file(scratch);

    let model_rel_err = index_bytes.abs_diff(model_bytes) as f64 / model_bytes as f64;
    SweepRow {
        genome_len,
        sa_rate,
        build_ms,
        save_ms,
        load_ms,
        boot_ms,
        load_speedup: build_ms / load_ms,
        index_bytes,
        bytes_per_bp: index_bytes as f64 / genome_len as f64,
        model_bytes,
        model_rel_err,
        peak_rss_mb: pimsim::peak_rss_bytes().map(|b| b as f64 / f64::from(1u32 << 20)),
    }
}

/// The report document, written through the workspace's one JSON
/// writer: wall-clock timings at three decimals, ratios at four or six.
fn report_json(
    quick: bool,
    host_cores: usize,
    rows: &[SweepRow],
    footprint_max_rel_err: f64,
) -> String {
    let largest = rows.last().expect("nonempty sweep");
    Json::document(|w| {
        w.key("quick").bool(quick);
        w.key("host_cores").u64(host_cores as u64);
        w.key("sweep").array(Layout::Block, |w| {
            for r in rows {
                w.object(Layout::Inline, |w| {
                    w.key("genome_len").u64(r.genome_len as u64);
                    w.key("sa_rate").u64(u64::from(r.sa_rate));
                    for (key, v) in [
                        ("build_ms", r.build_ms),
                        ("save_ms", r.save_ms),
                        ("load_ms", r.load_ms),
                        ("boot_ms", r.boot_ms),
                        ("load_speedup", r.load_speedup),
                    ] {
                        w.key(key).fixed(v, 3);
                    }
                    w.key("index_bytes").u64(r.index_bytes as u64);
                    w.key("bytes_per_bp").fixed(r.bytes_per_bp, 4);
                    w.key("model_bytes").u64(r.model_bytes as u64);
                    w.key("model_rel_err").fixed(r.model_rel_err, 6);
                    let rss = w.key("peak_rss_mb");
                    match r.peak_rss_mb {
                        Some(mb) => rss.fixed(mb, 1),
                        None => rss.null(),
                    }
                });
            }
        });
        w.key("largest").object(Layout::Inline, |w| {
            w.key("genome_len").u64(largest.genome_len as u64);
            w.key("load_speedup").fixed(largest.load_speedup, 3);
        });
        w.key("footprint_max_rel_err")
            .fixed(footprint_max_rel_err, 6);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, out_path) = match parse_report_args(&args, "--quick", "BENCH_index.json") {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("indexbench: {msg}\nusage: indexbench [--quick] [--out PATH]");
            std::process::exit(2);
        }
    };

    // Full sweep reaches the >= 64 Mbp point the artifact is for; the
    // larger genomes sample the SA so the artifact stays disk-friendly.
    // The speedup grows with genome size (SA-IS has a larger linear
    // constant than deserialise + Occ rebuild), so the gate is judged at
    // the largest point of whichever sweep ran.
    let sweep_spec: &[(usize, u32)] = if quick {
        &[(200_000, 1), (4_000_000, 4)]
    } else {
        &[(1_000_000, 1), (8_000_000, 8), (64_000_000, 32)]
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "indexbench: sweeping {} genome size(s) up to {} bp on {host_cores} core(s){}",
        sweep_spec.len(),
        sweep_spec.last().expect("nonempty sweep").0,
        if quick { " (quick)" } else { "" }
    );

    let mut rows = Vec::new();
    for &(genome_len, sa_rate) in sweep_spec {
        let scratch = std::env::temp_dir().join(format!("indexbench-{genome_len}.pimx"));
        let row = sweep_point(genome_len, sa_rate, &scratch);
        eprintln!(
            "indexbench: {genome_len} bp @ SA rate {sa_rate}: build {:.1} ms, save {:.1} ms, \
             load {:.1} ms ({:.1}x faster), boot {:.1} ms, {:.2} bytes/bp, model err {:.2e}, \
             peak RSS {} MB",
            row.build_ms,
            row.save_ms,
            row.load_ms,
            row.load_speedup,
            row.boot_ms,
            row.bytes_per_bp,
            row.model_rel_err,
            row.peak_rss_mb
                .map_or("?".to_owned(), |mb| format!("{mb:.0}")),
        );
        rows.push(row);
    }
    let largest = rows.last().expect("nonempty sweep");
    let footprint_max_rel_err = rows.iter().map(|r| r.model_rel_err).fold(0.0f64, f64::max);

    let json = report_json(quick, host_cores, &rows, footprint_max_rel_err);
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("indexbench: wrote {out_path}");

    // Rows run small to large in one process, so the last row's
    // high-water mark is its own: build, load and boot of that genome.
    let peak_rss_bytes_per_bp = largest
        .peak_rss_mb
        .map(|mb| mb * f64::from(1u32 << 20) / largest.genome_len as f64);
    let mut ok = true;
    if footprint_max_rel_err > 1e-3 {
        eprintln!(
            "indexbench: FAIL: serialised footprint off the size model by {:.3} % (tolerance 0.1 %)",
            footprint_max_rel_err * 100.0
        );
        ok = false;
    }
    if let Some(per_bp) = peak_rss_bytes_per_bp.filter(|&b| b > 7.0) {
        eprintln!(
            "indexbench: FAIL: peak RSS at {} bp is {per_bp:.1} bytes/bp (ceiling 7)",
            largest.genome_len
        );
        ok = false;
    }
    if !ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::json;

    /// The committed full-sweep record must be in the format this bin
    /// writes today (sweep rows dedupe by shape).
    #[test]
    fn committed_baseline_has_the_report_schema() {
        let row = SweepRow {
            genome_len: 1_000,
            sa_rate: 1,
            build_ms: 2.0,
            save_ms: 1.0,
            load_ms: 1.0,
            boot_ms: 1.0,
            load_speedup: 2.0,
            index_bytes: 4_375,
            bytes_per_bp: 4.375,
            model_bytes: 4_375,
            model_rel_err: 0.0,
            peak_rss_mb: None,
        };
        let fresh = json::parse(&report_json(true, 1, &[row], 0.0)).expect("report parses");
        let committed = json::parse(include_str!("../../../../BENCH_index.json"))
            .expect("BENCH_index.json parses");
        assert_eq!(fresh.schema_paths(), committed.schema_paths());
    }
}
