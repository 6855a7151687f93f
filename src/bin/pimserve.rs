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
//! One warm platform is built at startup and shared by every
//! connection; the wire protocol, admission control, deadlines, panic
//! quarantine and drain live in `pim_aligner::service` (DESIGN.md §13).
//! The process runs until a client sends the `Drain` opcode, then
//! answers everything already accepted, writes its final metrics, and
//! exits 0.
//!
//! The flags `pimalign` also takes, the platform configuration they set,
//! the checked reference load and the boot are the shared front end,
//! [`pim_aligner_suite::cli`], so both binaries refuse the same inputs
//! with the same exit codes: usage = 2, input = 3, runtime = 4.
//!
//! All diagnostics are single-line structured `key=value` records on
//! stderr (`pimserve: event=<name> k=v ...`) so a log scraper never has
//! to guess at prose; stdout stays silent.

use std::io::Write as _;
use std::process::ExitCode;

use pim_aligner_suite::cli::{parse_flag, Args, CliError};
use pim_aligner_suite::pim_aligner::service::obs::log_kv;
use pim_aligner_suite::pim_aligner::service::{serve, ServiceConfig, ServiceError};
use pim_aligner_suite::pimsim::chrome_trace_json;

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

/// A rejected knob is a usage error; a failed bind is a runtime one.
fn service_error(e: ServiceError) -> CliError {
    match e {
        ServiceError::InvalidConfig(_) => CliError::Usage(e.to_string()),
        ServiceError::Bind { .. } => CliError::Runtime(e.to_string()),
    }
}

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut listen, mut port_file) = ("127.0.0.1:0".to_owned(), None);
    let mut service = ServiceConfig::default();
    let shared = Args::parse(&args, service.threads, |args, i| {
        match args[*i].as_str() {
            "--addr" => listen = parse_flag(args, i, "--addr")?,
            "--port-file" => port_file = Some(parse_flag::<String>(args, i, "--port-file")?),
            "--batch-max" => service.batch_max = parse_flag(args, i, "--batch-max")?,
            "--queue-depth" => service.queue_depth = parse_flag(args, i, "--queue-depth")?,
            "--max-inflight-bytes" => {
                service.max_inflight_bytes = parse_flag(args, i, "--max-inflight-bytes")?;
            }
            "--deadline-ms" => service.default_deadline_ms = parse_flag(args, i, "--deadline-ms")?,
            "--retry-after-ms" => {
                service.retry_after_base_ms = parse_flag(args, i, "--retry-after-ms")?;
            }
            "--obs-window" => service.obs_window_secs = parse_flag(args, i, "--obs-window")?,
            "--watchdog-ms" => {
                service.watchdog_threshold_ms = parse_flag(args, i, "--watchdog-ms")?;
            }
            "--test-faults" => service.test_faults = true,
            _ => return Ok(false),
        }
        Ok(true)
    })
    .map_err(CliError::Usage)?;
    service.threads = shared.threads;
    service.both_strands = shared.both_strands;
    let Some([]) = shared.operands() else {
        return Err(CliError::Usage(
            "usage: pimserve <reference.fasta> [options]\n\
             \x20      pimserve --index <artifact> [options]"
                .to_owned(),
        ));
    };
    // Reject bad knobs before the (expensive) index build: a zero queue
    // depth is a typo to fix, not a reason to spend seconds indexing.
    service.validate().map_err(service_error)?;

    // The warm platform, shared by every request for the lifetime of the
    // process: indexed from FASTA exactly once, or — with --index —
    // booted from the artifact with only the sub-array mapping run here.
    let (platform, _) = shared.boot(None, shared.config())?;
    let handle = serve(platform, service, &listen).map_err(service_error)?;
    let addr = handle.local_addr();
    log_kv(
        "listening",
        &[
            ("addr", addr.to_string()),
            ("obs_window_secs", service.obs_window_secs.to_string()),
            ("watchdog_ms", service.watchdog_threshold_ms.to_string()),
        ],
    );
    if let Some(path) = &port_file {
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
    if let Some(path) = &shared.metrics_out {
        std::fs::write(path, summary.metrics_json())
            .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
    }
    if let Some(path) = &shared.trace_out {
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
