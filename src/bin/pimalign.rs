//! `pimalign` — command-line short-read aligner on the simulated
//! PIM-Aligner platform.
//!
//! ```text
//! pimalign <reference.fasta> <reads.fastq> [options] > out.sam
//! pimalign --index <artifact> <reads.fastq> [options] > out.sam
//! pimalign index build <reference.fasta> <artifact> [index options]
//! pimalign index inspect <artifact>
//!
//! options:
//!   --index <PATH>        boot the platform from a serialised index
//!                         artifact instead of rebuilding from FASTA
//!                         (the reference comes from the artifact, so no
//!                         reference.fasta positional is given)
//!   --index-memory-budget <BYTES>
//!                         build the in-process index with the densest
//!                         suffix-array sampling rate whose modelled
//!                         footprint fits (suffixes K/M/G = KiB/MiB/GiB)
//!   --pd <N>              parallelism degree (implies method-II for N >= 2)
//!   --max-diffs <Z>       inexact-stage difference budget (default 2, max 8)
//!   --no-indels           substitutions only in the inexact stage
//!   --single-strand       skip the reverse-complement retry
//!   --threads <N>         host worker threads for the batch (default 1)
//!   --batch-size <N>      reads aligned per streamed chunk (default 4096,
//!                         max 65536)
//!   --fault-seed <S>      seed for the fault-injection campaign
//!   --fault-xnor <P>      per-bit XNOR sense-misread probability
//!   --fault-stuck <R>     stuck-at cell rate in the data zones
//!   --fault-transient <R> transient row-read fault rate per marker read
//!   --fault-carry <P>     IM_ADD carry-chain fault probability per add
//!   --no-recover          disable verify-and-recover under fault injection
//!   --metrics-out <PATH>  write the per-primitive cycle breakdown as JSON
//!   --trace-out <PATH>    write a Chrome trace-event JSON (wall-clock spans,
//!                         one track per worker; open in Perfetto)
//!   --progress            stream reads/s + ETA to stderr while aligning
//!
//! index options (for `pimalign index build`):
//!   --sa-rate <N>         keep every N-th suffix-array entry (default 1 = full)
//!   --index-memory-budget <BYTES>
//!                         pick the densest rate fitting BYTES instead
//! ```
//!
//! SAM goes to stdout; the platform performance report goes to stderr.
//! Metrics and trace documents always go to their own files, so machine
//! output never interleaves with the SAM stream. Any `--fault-*` rate
//! makes the campaign active; recovery (verify each locus, retry,
//! escalate the budget, fall back to the host) is then on unless
//! `--no-recover` is given.
//!
//! The flags `pimserve` also takes, the platform configuration they set,
//! the checked reference load (which `index build` calls too) and the
//! boot are the shared front end, [`pim_aligner_suite::cli`]. Exit codes:
//! usage = 2, input = 3, runtime = 4.
//!
//! The index is built exactly once per run; reads stream through in
//! `--batch-size` chunks (bounded memory — SAM records are written as
//! each chunk completes), and every chunk is aligned by the same shared
//! platform across `--threads` worker sessions. The metrics document
//! keeps simulated cycles and host wall-clock in separate sections; the
//! simulated sections are bit-identical whether or not any telemetry
//! flag is given.

use std::io::{BufWriter, Read, Write as _};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pim_aligner_suite::bioseq::fastq;
use pim_aligner_suite::cli::{
    load_artifact, load_reference, parse_args, parse_flag, Args, CliError,
};
use pim_aligner_suite::mram::faults::FaultCampaign;
use pim_aligner_suite::pim_aligner::{
    sam, BatchTotals, HostTraceConfig, IndexArtifact, EPOCH_STRIDE,
};
use pim_aligner_suite::pimsim::{chrome_trace_json, peak_rss_bytes, HostEpoch, HostSpan};

/// Wraps the raw reads file and counts bytes consumed, so `--progress`
/// can estimate completion from file position without a pre-pass over
/// the FASTQ (the read count is unknown while streaming).
struct CountingReader<R> {
    inner: R,
    bytes: Arc<AtomicU64>,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

/// Minimum interval between `--progress` lines.
const PROGRESS_INTERVAL_MS: u128 = 500;

/// Fraction of the file below which the ETA extrapolation is noise:
/// with almost nothing consumed, `elapsed * (1 - frac) / frac` divides
/// by a near-zero denominator and swings by orders of magnitude between
/// consecutive progress lines.
const ETA_MIN_FRACTION: f64 = 0.005;

/// Formats one `--progress` line: reads aligned, rate, and an ETA
/// extrapolated from the fraction of the FASTQ consumed so far.
///
/// Pure (no clock, no stderr) so the ETA clamping is unit-testable. An
/// estimate that would be unstable — too little of the file consumed,
/// effectively no throughput yet, or a non-finite division artifact —
/// is printed as the sentinel `eta=?` rather than a multi-hour number
/// that vanishes on the next line.
fn format_progress(reads_done: u64, elapsed_s: f64, bytes_done: u64, bytes_total: u64) -> String {
    let rate = if elapsed_s > 0.0 && elapsed_s.is_finite() {
        reads_done as f64 / elapsed_s
    } else {
        0.0
    };
    // The streaming reader may buffer ahead of the last-aligned read;
    // clamp so the fraction never exceeds 1.
    let frac = if bytes_total > 0 {
        (bytes_done as f64 / bytes_total as f64).min(1.0)
    } else {
        1.0
    };
    let eta = if frac >= 1.0 {
        "eta=0s".to_owned()
    } else if frac >= ETA_MIN_FRACTION && rate >= 0.5 {
        let eta_s = elapsed_s * (1.0 - frac) / frac;
        if eta_s.is_finite() {
            format!("eta={eta_s:.0}s")
        } else {
            "eta=?".to_owned()
        }
    } else {
        "eta=?".to_owned()
    };
    format!("pimalign: progress: {reads_done} reads, {rate:.0} reads/s, {eta}")
}

/// One `--progress` line on stderr.
fn report_progress(reads_done: u64, elapsed_s: f64, bytes_done: u64, bytes_total: u64) {
    eprintln!(
        "{}",
        format_progress(reads_done, elapsed_s, bytes_done, bytes_total)
    );
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pimalign: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}

/// Maps one SAM write result: `Ok(true)` = written, `Ok(false)` =
/// stdout's reader went away (`pimalign ... | head`), which is a clean
/// early exit (code 0), not an error.
fn sam_write_ok(result: std::io::Result<()>) -> Result<bool, CliError> {
    match result {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(false),
        Err(e) => Err(CliError::Runtime(format!("cannot write SAM: {e}"))),
    }
}

/// The flags only `pimalign` takes; [`Args`] holds the shared ones.
struct Cli {
    index_memory_budget: Option<usize>,
    batch_size: usize,
    fault_seed: u64,
    fault_xnor: f64,
    fault_stuck: f64,
    fault_transient: f64,
    fault_carry: f64,
    recover: bool,
    progress: bool,
}

/// Parses a byte count with optional binary suffix: `64M` = 64 MiB.
fn parse_bytes(args: &[String], i: &mut usize, flag: &str) -> Result<usize, String> {
    let raw: String = parse_flag(args, i, flag)?;
    let (digits, shift) = match raw.as_bytes().last() {
        Some(b'K' | b'k') => (&raw[..raw.len() - 1], 10),
        Some(b'M' | b'm') => (&raw[..raw.len() - 1], 20),
        Some(b'G' | b'g') => (&raw[..raw.len() - 1], 30),
        _ => (raw.as_str(), 0),
    };
    let n: usize = digits.parse().map_err(|e| format!("invalid {flag}: {e}"))?;
    n.checked_shl(shift)
        .filter(|&b| b >> shift == n)
        .ok_or_else(|| format!("invalid {flag}: {raw} overflows"))
}

fn parse_prob(args: &[String], i: &mut usize, flag: &str) -> Result<f64, String> {
    let p: f64 = parse_flag(args, i, flag)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!(
            "invalid {flag}: {p} is not a probability in [0, 1]"
        ));
    }
    Ok(p)
}

fn parse_cli(args: &[String]) -> Result<(Args, Cli), String> {
    let mut cli = Cli {
        index_memory_budget: None,
        batch_size: 4_096,
        fault_seed: 0x5eed,
        fault_xnor: 0.0,
        fault_stuck: 0.0,
        fault_transient: 0.0,
        fault_carry: 0.0,
        recover: true,
        progress: false,
    };
    let shared = Args::parse(args, 1, |args, i| {
        match args[*i].as_str() {
            "--index-memory-budget" => {
                cli.index_memory_budget = Some(parse_bytes(args, i, "--index-memory-budget")?);
            }
            "--batch-size" => {
                cli.batch_size = parse_flag(args, i, "--batch-size")?;
                if cli.batch_size == 0 || cli.batch_size > EPOCH_STRIDE {
                    return Err(format!(
                        "invalid --batch-size: must be between 1 and {EPOCH_STRIDE}"
                    ));
                }
            }
            "--fault-seed" => cli.fault_seed = parse_flag(args, i, "--fault-seed")?,
            "--fault-xnor" => cli.fault_xnor = parse_prob(args, i, "--fault-xnor")?,
            "--fault-stuck" => cli.fault_stuck = parse_prob(args, i, "--fault-stuck")?,
            "--fault-transient" => cli.fault_transient = parse_prob(args, i, "--fault-transient")?,
            "--fault-carry" => cli.fault_carry = parse_prob(args, i, "--fault-carry")?,
            "--no-recover" => cli.recover = false,
            "--progress" => cli.progress = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok((shared, cli))
}

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("index") {
        return run_index(&args[1..]);
    }
    let (shared, cli) = parse_cli(&args).map_err(CliError::Usage)?;
    if shared.index.is_some() && cli.index_memory_budget.is_some() {
        return Err(CliError::Usage(
            "--index-memory-budget applies when building an index; a loaded artifact's \
             sampling rate is already fixed"
                .to_owned(),
        ));
    }
    let Some([reads_path]) = shared.operands() else {
        return Err(CliError::Usage(
            if shared.index.is_some() {
                "usage: pimalign --index <artifact> <reads.fastq> [options]"
            } else {
                "usage: pimalign <reference.fasta> <reads.fastq> [options]"
            }
            .to_owned(),
        ));
    };
    let reads_file = std::fs::File::open(reads_path)
        .map_err(|e| CliError::Input(format!("cannot read {reads_path}: {e}")))?;
    let reads_total_bytes = reads_file
        .metadata()
        .map_err(|e| CliError::Input(format!("cannot stat {reads_path}: {e}")))?
        .len();
    let bytes_consumed = Arc::new(AtomicU64::new(0));
    let mut reads = fastq::Reader::new(std::io::BufReader::new(CountingReader {
        inner: reads_file,
        bytes: Arc::clone(&bytes_consumed),
    }));

    let campaign = FaultCampaign::seeded(cli.fault_seed)
        .with_xnor_misread_prob(cli.fault_xnor)
        .with_stuck_at_rate(cli.fault_stuck)
        .with_transient_row_rate(cli.fault_transient)
        .with_carry_fault_prob(cli.fault_carry);
    let config = shared
        .config()
        .with_fault_campaign(campaign)
        .with_recovery(campaign.is_active() && cli.recover);

    // The run's wall-clock epoch: created before the index build so the
    // build lands at t ≈ 0 on the trace timeline.
    let host_epoch = HostEpoch::new();
    let trace_config = shared
        .trace_out
        .as_ref()
        .map(|_| HostTraceConfig::new(host_epoch));

    // One platform for the whole run: the index is built (or loaded)
    // exactly once here and shared by every chunk and worker thread
    // below.
    let build_start_ns = host_epoch.now_ns();
    let (platform, ref_id) = shared.boot(cli.index_memory_budget, config)?;
    let ref_len = platform.reference().len();
    // The index build runs on the main thread; its trace track sits
    // after the worker tracks (tid = --threads).
    let build_span = HostSpan {
        name: "index_build",
        tid: shared.threads as u32,
        start_ns: build_start_ns,
        dur_ns: host_epoch.now_ns().saturating_sub(build_start_ns),
    };

    // Stream chunks: bounded memory in and incremental SAM out, one code
    // path for any thread count (1 thread is a single worker session).
    let stdout = std::io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    if !sam_write_ok(write!(out, "{}", sam::header(&ref_id, ref_len)))? {
        return Ok(());
    }
    let mut totals = BatchTotals::new();
    let mut mapped = 0usize;
    let mut epoch = 0u64;
    let align_start = Instant::now();
    let mut last_progress = Instant::now();
    loop {
        let chunk = reads
            .next_chunk(cli.batch_size)
            .map_err(|e| CliError::Input(format!("{reads_path}: {e}")))?;
        if chunk.is_empty() {
            break;
        }
        let seqs: Vec<_> = chunk.iter().map(|r| r.seq().clone()).collect();
        let (pairs, chunk_totals) = match &trace_config {
            Some(trace) => platform.align_chunk_parallel_traced(
                &seqs,
                shared.threads,
                epoch,
                shared.both_strands,
                trace,
            ),
            None => {
                platform.align_chunk_parallel(&seqs, shared.threads, epoch, shared.both_strands)
            }
        }
        .map_err(|e| CliError::Runtime(e.to_string()))?;
        totals.merge(&chunk_totals);
        if cli.progress && last_progress.elapsed().as_millis() >= PROGRESS_INTERVAL_MS {
            last_progress = Instant::now();
            report_progress(
                totals.reads,
                align_start.elapsed().as_secs_f64(),
                bytes_consumed.load(Ordering::Relaxed),
                reads_total_bytes,
            );
        }
        for (record, (outcome, strand)) in chunk.iter().zip(&pairs) {
            if outcome.is_mapped() {
                mapped += 1;
            }
            let sam_record = sam::record_for(
                record.id(),
                &ref_id,
                record.seq(),
                Some(record.quality()),
                outcome,
                *strand,
            );
            if !sam_write_ok(writeln!(out, "{}", sam_record.to_line()))? {
                return Ok(());
            }
        }
        epoch += 1;
    }
    if !sam_write_ok(out.flush())? {
        return Ok(());
    }
    if totals.reads == 0 {
        return Err(CliError::Input(format!("{reads_path}: no reads")));
    }
    let report = platform.batch_report(&totals);
    if let Some(path) = &shared.metrics_out {
        std::fs::write(path, report.to_metrics_json())
            .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
    }
    if let Some(path) = &shared.trace_out {
        // Every worker gets a labelled track, spans or not: a starved
        // worker showing an empty track is itself a finding. The main
        // track carries the one-time index build.
        let mut tracks: Vec<(u32, String)> = (0..shared.threads as u32)
            .map(|w| (w, format!("worker-{w}")))
            .collect();
        tracks.push((shared.threads as u32, "main".to_owned()));
        let mut spans = totals.host.spans.clone();
        spans.push(build_span);
        std::fs::write(path, chrome_trace_json(&spans, &tracks))
            .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
    }
    let spans_dropped = totals.host.spans_dropped;
    if spans_dropped > 0 {
        eprintln!(
            "pimalign: warning: {spans_dropped} trace span(s) dropped (capacity); \
             the trace is truncated, not complete"
        );
    }

    eprintln!(
        "pimalign: {} reads, {} mapped ({:.1}%)",
        totals.reads,
        mapped,
        100.0 * mapped as f64 / totals.reads as f64
    );
    eprintln!(
        "pimalign: platform Pd={}: {:.3e} queries/s, {:.1} W, MBR {:.1}%, RUR {:.1}%",
        shared.pd, report.throughput_qps, report.total_power_w, report.mbr_pct, report.rur_pct
    );
    let ix = report.index;
    eprintln!(
        "pimalign: index: {}, SA rate {}, {} bytes ({:.2} bytes/bp)",
        if ix.loaded { "loaded" } else { "built" },
        ix.sa_rate,
        ix.actual_bytes,
        ix.actual_bytes as f64 / ref_len as f64,
    );
    let t = report.faults;
    if campaign.is_active() || !t.is_quiet() {
        eprintln!(
            "pimalign: faults injected: {} stuck cells, {} XNOR flips, {} transient rows, \
             {} carry faults",
            t.injected.stuck_cells,
            t.injected.xnor_bit_flips,
            t.injected.transient_row_faults,
            t.injected.carry_faults
        );
        eprintln!(
            "pimalign: recovery: {} verifications ({} failed), {} retries, {} escalations, \
             {} host fallbacks",
            t.verifications, t.verify_failures, t.retries, t.escalations, t.host_fallbacks
        );
    }
    Ok(())
}

/// Dispatches the `pimalign index <verb>` subcommands.
fn run_index(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("build") => run_index_build(&args[1..]),
        Some("inspect") => run_index_inspect(&args[1..]),
        _ => Err(CliError::Usage(
            "usage: pimalign index build <reference.fasta> <artifact> [options]\n\
             \x20      pimalign index inspect <artifact>"
                .to_owned(),
        )),
    }
}

/// `pimalign index build`: FASTA in, checksummed `PIMAIX2` artifact out.
fn run_index_build(args: &[String]) -> Result<(), CliError> {
    let (mut sa_rate, mut budget) = (1, None);
    let positional = parse_args(args, |args, i| {
        match args[*i].as_str() {
            "--sa-rate" => {
                sa_rate = parse_flag(args, i, "--sa-rate")?;
                if sa_rate == 0 {
                    return Err("invalid --sa-rate: must be at least 1".into());
                }
            }
            "--index-memory-budget" => {
                budget = Some(parse_bytes(args, i, "--index-memory-budget")?)
            }
            _ => return Ok(false),
        }
        Ok(true)
    })
    .map_err(CliError::Usage)?;
    let [ref_path, out_path] = positional.as_slice() else {
        return Err(CliError::Usage(
            "usage: pimalign index build <reference.fasta> <artifact> [options]".to_owned(),
        ));
    };
    let parse_start = Instant::now();
    let (ref_id, reference, budget_rate) =
        load_reference(ref_path, budget).map_err(CliError::Input)?;
    let parse_ms = parse_start.elapsed().as_secs_f64() * 1e3;
    let bases = reference.len();
    let sa_rate = budget_rate.unwrap_or(sa_rate);
    let build_start = Instant::now();
    let artifact = IndexArtifact::new(&ref_id, reference, sa_rate);
    let build_ms = build_start.elapsed().as_secs_f64() * 1e3;
    let save_start = Instant::now();
    artifact
        .save_to_path(std::path::Path::new(out_path))
        .map_err(|e| CliError::Runtime(format!("cannot write {out_path}: {e}")))?;
    let save_ms = save_start.elapsed().as_secs_f64() * 1e3;
    // MB as the benchmark's `peak_rss_mb` counts them: 2^20 bytes.
    let peak_rss = peak_rss_bytes().map_or(String::new(), |bytes| {
        format!(", peak RSS {:.0} MB", bytes as f64 / f64::from(1u32 << 20))
    });
    eprintln!(
        "pimalign: index build: {} bases, SA rate {}, {} index bytes \
         ({:.2} bytes/bp; seed depth {}, {} bytes of them, derived at mapping), \
         parse {parse_ms:.0} ms, build {build_ms:.0} ms, save {save_ms:.0} ms{peak_rss}",
        bases,
        artifact.sa_rate(),
        artifact.index_bytes(),
        artifact.index_bytes() as f64 / bases as f64,
        artifact.seed_depth(),
        artifact.seed_bytes(),
    );
    Ok(())
}

/// `pimalign index inspect`: loads (and thereby checksum-verifies) an
/// artifact and prints its geometry, one `key: value` per line.
fn run_index_inspect(args: &[String]) -> Result<(), CliError> {
    let [path] = args else {
        return Err(CliError::Usage(
            "usage: pimalign index inspect <artifact>".to_owned(),
        ));
    };
    let artifact = load_artifact(path)?;
    println!("reference: {}", artifact.reference_name());
    println!("bases: {}", artifact.reference().len());
    println!("sa_rate: {}", artifact.sa_rate());
    println!("sa_value_bits: {}", artifact.sa_value_bits());
    println!("index_bytes: {}", artifact.index_bytes());
    println!("model_bytes: {}", artifact.model_bytes());
    println!("seed_depth: {}", artifact.seed_depth());
    println!("seed_bytes: {}", artifact.seed_bytes());
    println!(
        "bytes_per_bp: {:.4}",
        artifact.index_bytes() as f64 / artifact.reference().len() as f64
    );
    println!("checksum: ok");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::format_progress;

    #[test]
    fn progress_eta_is_stable_midway() {
        // Half the file in 10 s: another ~10 s to go.
        let line = format_progress(5_000, 10.0, 500, 1_000);
        assert_eq!(line, "pimalign: progress: 5000 reads, 500 reads/s, eta=10s");
    }

    #[test]
    fn progress_eta_clamps_to_sentinel_early_in_the_run() {
        // Regression: with one byte of a huge file consumed, the old
        // extrapolation printed a multi-hour artifact (here ~28 h).
        let line = format_progress(3, 0.1, 1, 1_000_000);
        assert!(line.ends_with("eta=?"), "unstable estimate leaked: {line}");
    }

    #[test]
    fn progress_eta_clamps_when_rate_is_effectively_zero() {
        // A long stall before the first read: frac is healthy but no
        // throughput means no basis for extrapolation.
        let line = format_progress(0, 30.0, 100, 1_000);
        assert!(line.ends_with("eta=?"), "zero-rate estimate leaked: {line}");
        assert!(line.contains("0 reads/s"));
    }

    #[test]
    fn progress_eta_survives_zero_and_nonfinite_elapsed() {
        // Division artifacts must never reach stderr.
        for elapsed in [0.0, f64::NAN, f64::INFINITY] {
            let line = format_progress(10, elapsed, 500, 1_000);
            assert!(!line.contains("inf") && !line.contains("NaN"), "{line}");
            assert!(line.ends_with("eta=?"), "{line}");
        }
    }

    #[test]
    fn progress_eta_is_zero_at_completion_and_with_unknown_total() {
        assert!(format_progress(9, 2.0, 1_000, 1_000).ends_with("eta=0s"));
        // bytes_total == 0 (unseekable input): fraction defaults to
        // done, not to a divide-by-zero.
        assert!(format_progress(9, 2.0, 123, 0).ends_with("eta=0s"));
    }
}
