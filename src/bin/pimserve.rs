//! `pimserve` — the PIM-Aligner alignment daemon.
//!
//! ```text
//! pimserve <reference.fasta> [options]
//! pimserve --index <artifact> [options]
//!
//! options:
//!   --index <PATH>            boot the warm platform from a serialised
//!                             index artifact (built by `pimalign index
//!                             build`) instead of indexing the FASTA
//!   --addr <HOST:PORT>        listen address (default 127.0.0.1:0)
//!   --port-file <PATH>        write the bound address to PATH once listening
//!   --threads <N>             worker threads per alignment batch (default 2)
//!   --batch-max <N>           most reads coalesced per batch (default 64,
//!                             max 65536)
//!   --queue-depth <N>         bounded admission queue depth (default 256)
//!   --max-inflight-bytes <N>  admitted-but-unanswered byte budget (default 8 MiB)
//!   --deadline-ms <N>         default per-request deadline, 0 = none (default 0)
//!   --retry-after-ms <N>      base of the shed retry-after hint (default 20)
//!   --pipelined               use PIM-Aligner-p (Pd = 2) instead of the baseline
//!   --pd <N>                  parallelism degree (implies method-II for N >= 2)
//!   --max-diffs <Z>           inexact-stage difference budget (default 2, max 8)
//!   --no-indels               substitutions only in the inexact stage
//!   --single-strand           skip the reverse-complement retry
//!   --metrics-out <PATH>      write the final metrics JSON after drain
//!   --obs-window <SECS>       rolling telemetry window, seconds (default 60)
//!   --watchdog-ms <N>         batcher-stall watchdog threshold, ms;
//!                             0 disables the watchdog (default 1000)
//!   --trace-out <PATH>        write a Chrome-trace JSON of per-request
//!                             stage spans after drain (one Perfetto
//!                             track per request)
//!   --test-faults             enable the deterministic test-fault hooks
//! ```
//!
//! One warm [`Platform`] is built at startup and shared by every
//! connection; the wire protocol, admission control, deadlines, panic
//! quarantine and drain live in `pim_aligner::service` (DESIGN.md §13).
//! The process runs until a client sends the `Drain` opcode, then
//! answers everything already accepted, writes its final metrics, and
//! exits 0. Exit codes mirror `pimalign`: usage = 2, input = 3,
//! runtime = 4.
//!
//! All diagnostics are single-line structured `key=value` records on
//! stderr (`pimserve: event=<name> k=v ...`) so a log scraper never has
//! to guess at prose; stdout stays silent.

use std::io::Write as _;
use std::process::ExitCode;

use pim_aligner_suite::bioseq::fasta;
use pim_aligner_suite::pim_aligner::service::obs::log_kv;
use pim_aligner_suite::pim_aligner::service::{serve, ServiceConfig, ServiceError};
use pim_aligner_suite::pim_aligner::{IndexArtifact, PimAlignerConfig, Platform};
use pim_aligner_suite::pimsim::chrome_trace_json;

/// A CLI failure, classified exactly as in `pimalign`: usage = 2,
/// input = 3, runtime = 4.
enum CliError {
    Usage(String),
    Input(String),
    Runtime(String),
}

impl CliError {
    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Input(m) | CliError::Runtime(m) => m,
        }
    }

    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Input(_) => 3,
            CliError::Runtime(_) => 4,
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            log_kv(
                "fatal",
                &[
                    ("exit_code", e.exit_code().to_string()),
                    ("message", e.message().to_owned()),
                ],
            );
            ExitCode::from(e.exit_code())
        }
    }
}

struct Cli {
    positional: Vec<String>,
    index: Option<String>,
    addr: String,
    port_file: Option<String>,
    service: ServiceConfig,
    pd: usize,
    max_diffs: u8,
    indels: bool,
    metrics_out: Option<String>,
    trace_out: Option<String>,
}

fn parse_flag<T: std::str::FromStr>(args: &[String], i: &mut usize, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    *i += 1;
    args.get(*i)
        .ok_or(format!("{flag} needs a value"))?
        .parse()
        .map_err(|e| format!("invalid {flag}: {e}"))
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        positional: Vec::new(),
        index: None,
        addr: "127.0.0.1:0".to_owned(),
        port_file: None,
        service: ServiceConfig::default(),
        pd: 1,
        max_diffs: 2,
        indels: true,
        metrics_out: None,
        trace_out: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--index" => cli.index = Some(parse_flag(args, &mut i, "--index")?),
            "--addr" => cli.addr = parse_flag(args, &mut i, "--addr")?,
            "--port-file" => cli.port_file = Some(parse_flag(args, &mut i, "--port-file")?),
            "--threads" => cli.service.threads = parse_flag(args, &mut i, "--threads")?,
            "--batch-max" => cli.service.batch_max = parse_flag(args, &mut i, "--batch-max")?,
            "--queue-depth" => cli.service.queue_depth = parse_flag(args, &mut i, "--queue-depth")?,
            "--max-inflight-bytes" => {
                cli.service.max_inflight_bytes = parse_flag(args, &mut i, "--max-inflight-bytes")?;
            }
            "--deadline-ms" => {
                cli.service.default_deadline_ms = parse_flag(args, &mut i, "--deadline-ms")?;
            }
            "--retry-after-ms" => {
                cli.service.retry_after_base_ms = parse_flag(args, &mut i, "--retry-after-ms")?;
            }
            "--pipelined" => cli.pd = cli.pd.max(2),
            "--pd" => {
                cli.pd = parse_flag(args, &mut i, "--pd")?;
                if cli.pd == 0 {
                    return Err("invalid --pd: parallelism degree must be at least 1".into());
                }
            }
            "--max-diffs" => {
                cli.max_diffs = parse_flag(args, &mut i, "--max-diffs")?;
                if cli.max_diffs > 8 {
                    return Err(format!(
                        "invalid --max-diffs: {} exceeds the platform maximum of 8",
                        cli.max_diffs
                    ));
                }
            }
            "--no-indels" => cli.indels = false,
            "--single-strand" => cli.service.both_strands = false,
            "--metrics-out" => cli.metrics_out = Some(parse_flag(args, &mut i, "--metrics-out")?),
            "--obs-window" => {
                cli.service.obs_window_secs = parse_flag(args, &mut i, "--obs-window")?;
            }
            "--watchdog-ms" => {
                cli.service.watchdog_threshold_ms = parse_flag(args, &mut i, "--watchdog-ms")?;
            }
            "--trace-out" => cli.trace_out = Some(parse_flag(args, &mut i, "--trace-out")?),
            "--test-faults" => cli.service.test_faults = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => cli.positional.push(args[i].clone()),
        }
        i += 1;
    }
    Ok(cli)
}

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args).map_err(CliError::Usage)?;
    let ref_path = match (&cli.index, cli.positional.as_slice()) {
        (Some(_), []) => None,
        (None, [ref_path]) => Some(ref_path),
        _ => {
            return Err(CliError::Usage(
                "usage: pimserve <reference.fasta> [options]\n\
                 \x20      pimserve --index <artifact> [options]"
                    .to_owned(),
            ));
        }
    };
    // Reject bad knobs before the (expensive) index build: a zero queue
    // depth is a typo to fix, not a reason to spend seconds indexing.
    cli.service.validate().map_err(|e| match e {
        ServiceError::InvalidConfig(_) => CliError::Usage(e.to_string()),
        ServiceError::Bind { .. } => CliError::Runtime(e.to_string()),
    })?;

    let mut config = PimAlignerConfig::baseline()
        .with_max_diffs(cli.max_diffs)
        .with_indels(cli.indels);
    if cli.pd >= 2 {
        config = config.with_pd(cli.pd);
    }
    // The warm platform, shared by every request for the lifetime of the
    // process: indexed from FASTA exactly once, or — with --index —
    // booted from the artifact with only the sub-array mapping run here.
    let platform = match (&cli.index, ref_path) {
        (Some(artifact_path), None) => {
            let artifact = IndexArtifact::load_from_path(std::path::Path::new(artifact_path))
                .map_err(|e| CliError::Input(format!("{artifact_path}: {e}")))?;
            // The same boot `pimalign --index` runs: the platform shares
            // the artifact's index and reference, so dropping the artifact
            // here frees nothing the platform holds.
            Platform::from_artifact(&artifact, config, true)
        }
        (None, Some(ref_path)) => {
            let ref_text = std::fs::read_to_string(ref_path)
                .map_err(|e| CliError::Input(format!("cannot read {ref_path}: {e}")))?;
            let references =
                fasta::parse(&ref_text).map_err(|e| CliError::Input(format!("{ref_path}: {e}")))?;
            drop(ref_text);
            let [reference] = references.as_slice() else {
                return Err(CliError::Input(format!(
                    "{ref_path}: expected exactly one reference record, found {}",
                    references.len()
                )));
            };
            Platform::new(reference.seq(), config)
        }
        _ => unreachable!("positional parsing pinned the index/reference combinations"),
    };

    let handle = serve(platform, cli.service, &cli.addr).map_err(|e| match e {
        ServiceError::InvalidConfig(_) => CliError::Usage(e.to_string()),
        ServiceError::Bind { .. } => CliError::Runtime(e.to_string()),
    })?;
    let addr = handle.local_addr();
    log_kv(
        "listening",
        &[
            ("addr", addr.to_string()),
            ("obs_window_secs", cli.service.obs_window_secs.to_string()),
            ("watchdog_ms", cli.service.watchdog_threshold_ms.to_string()),
        ],
    );
    if let Some(path) = &cli.port_file {
        // Write-then-rename so a polling launcher never reads a partial
        // address.
        let tmp = format!("{path}.tmp");
        let write = std::fs::File::create(&tmp)
            .and_then(|mut f| writeln!(f, "{addr}"))
            .and_then(|()| std::fs::rename(&tmp, path));
        write.map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
    }

    // Serve until a client drains us; join returns only after every
    // accepted request has been answered.
    let summary = handle.join();
    if let Some(path) = &cli.metrics_out {
        std::fs::write(path, summary.metrics_json())
            .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
    }
    if let Some(path) = &cli.trace_out {
        // One Perfetto track per request: every stage span carries the
        // request's trace id as its tid, so naming the tracks after the
        // trace ids groups admit/queued/batched/aligned/respond rows.
        let spans = summary
            .report
            .as_ref()
            .map(|r| r.host.spans.as_slice())
            .unwrap_or(&[]);
        let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        let tracks: Vec<(u32, String)> =
            tids.into_iter().map(|t| (t, format!("req-{t}"))).collect();
        std::fs::write(path, chrome_trace_json(spans, &tracks))
            .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
        log_kv(
            "trace_written",
            &[
                ("path", path.clone()),
                ("spans", spans.len().to_string()),
                ("tracks", tracks.len().to_string()),
            ],
        );
    }
    let t = summary.telemetry;
    log_kv(
        "drained",
        &[
            ("received", t.received.to_string()),
            ("accepted", t.accepted.to_string()),
            ("answered", t.responses.to_string()),
            ("shed", t.shed_total().to_string()),
            ("deadline_misses", t.deadline_misses().to_string()),
            ("panics_quarantined", t.panics_quarantined.to_string()),
            ("watchdog_stalls", summary.obs.watchdog_stalls.to_string()),
        ],
    );
    if let Some(report) = &summary.report {
        log_kv(
            "platform_report",
            &[
                ("throughput_qps", format!("{:.3e}", report.throughput_qps)),
                ("total_power_w", format!("{:.1}", report.total_power_w)),
                ("mbr_pct", format!("{:.1}", report.mbr_pct)),
                ("rur_pct", format!("{:.1}", report.rur_pct)),
            ],
        );
    }
    Ok(())
}
