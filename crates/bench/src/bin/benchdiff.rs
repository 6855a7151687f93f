//! `benchdiff` — the bench-regression gate.
//!
//! ```text
//! benchdiff <fresh.json> <baseline.json> [--kind parallel|kernel|metrics|host|serve|index]
//!           [--min-ratio R] [--min-speedup S] [--min-scaling C]
//! benchdiff <trace.json> --kind trace [--workers N]
//! benchdiff <fresh_serve.json> <exposition.txt> --kind obs
//! ```
//!
//! Compares a freshly measured bench JSON report against the checked-in
//! baseline and exits non-zero when throughput regressed beyond
//! tolerance. CI runs `parbench --quick` and `kernelbench --quick` and
//! feeds their outputs here (see `ci.sh`), so a change that slows the
//! shared-platform engine, breaks the index-sharing speedup, or gives
//! back the packed-kernel speedup fails the build.
//!
//! `--kind parallel` (default) checks, in order:
//!
//! * both files parse and carry the `parbench` shape;
//! * for every thread count present in both `shared_platform` tables,
//!   `fresh.reads_per_s ≥ R × baseline.reads_per_s` (default `R` 0.5 —
//!   wall-clock throughput on shared CI machines is noisy, and when the
//!   fresh run is `--quick` against the full-size baseline the workloads
//!   differ, so this is a broad-regression tripwire, not a benchmark);
//! * `fresh.speedup_8_threads_vs_seed_style ≥ S` (default `S` 2.0): the
//!   build-the-index-once speedup must survive regardless of machine
//!   speed — it is a ratio of two runs on the same machine;
//! * `fresh.scaling_8_vs_1` against a **core-aware** floor derived from
//!   `C` (default 3.0) and the report's `host_cores`: thread scaling is
//!   physically bounded by the cores present, so the effective floor is
//!   `min(C, 0.75 × min(host_cores, 8))` on multi-core machines and a
//!   plain non-degradation check (0.6×) on a single core, where
//!   parallelism cannot yield speedup at all.
//!
//! `--kind kernel` checks the `kernelbench` shape:
//!
//! * `fresh.speedup_vs_reference ≥ S` (default `S` 5.0) — the packed
//!   kernel's advantage over the boolean reference, a same-machine
//!   ratio and therefore the strict check;
//! * `fresh.packed.mlfm_per_s ≥ R × baseline.packed.mlfm_per_s`
//!   (default `R` 0.5) — the broad machine-speed tripwire.
//!
//! `--kind metrics` diffs a fresh `perfdump`-shaped metrics document
//! against the committed `BENCH_metrics.json`. Host wall-clock numbers
//! are nondeterministic, so the check is structural-plus-invariants,
//! never a byte diff of host fields:
//!
//! * the schema fingerprints ([`Value::schema_paths`]) must match after
//!   dropping every `host.`-prefixed path — the `host` section may be
//!   live in one file and redacted in the other;
//! * fresh simulated-cycle invariants must hold: primitive cycles
//!   reconcile with the ledger total, phase attribution covers every
//!   `LFM`, and the zone heatmap never exceeds the sub-array activation
//!   count (zone notes are a *view* of existing charges, not new ones).
//!
//! `--kind trace` validates a Chrome trace-event file (one positional):
//! it must parse, carry `displayTimeUnit: "ms"`, contain at least one
//! complete (`"X"`) span with `name`/`tid`/`ts`/`dur`, and — when
//! `--workers N` is given — name a `worker-i` track for every
//! `i < N` via `thread_name` metadata, whether or not that worker
//! claimed work.
//!
//! `--kind host` diffs a fresh `hostbench` report against the committed
//! `BENCH_host.json`: schema fingerprints must match exactly, and the
//! fresh run must be self-consistent (one per-read latency sample per
//! read, one worker row per thread, worker read counts summing to the
//! workload, a positive parallel-region wall clock, and a load-balance
//! percentage within (0, 100]).
//!
//! `--kind serve` diffs a fresh `loadgen` report against the committed
//! `BENCH_serve.json`. Rates and latencies are machine-dependent, so
//! the check is structural-plus-invariants: schema fingerprints must
//! match (sweep row counts may differ — rows dedupe by shape), and the
//! fresh run must show a working overload story — every request in
//! every phase accounted for (`answered == sent`), a positive
//! saturation knee, an overload phase at ≥ 2x the knee that actually
//! shed, and an accepted-request p99 within the report's own SLO.
//!
//! `--kind obs` validates the live observability plane from one serve
//! cycle. The first positional is a fresh `loadgen` report (schema v2,
//! with the `obs` block scraped mid-run over the wire); the second is
//! the Prometheus text exposition `loadgen --prom-out` captured before
//! drain — read as plain text, not JSON. Checks:
//!
//! * at least one mid-overload Stats scrape succeeded (the exposition
//!   is answered inline even while the queue saturates);
//! * every shared counter in the final snapshot reconciles **exactly**
//!   between the lifetime `service` section and the ring-derived
//!   `cumulative` aggregate — the rolling window loses nothing;
//! * the peak 10-second windowed throughput is non-zero (the ring saw
//!   the load);
//! * the watchdog stayed quiet (a healthy serve cycle must not trip the
//!   batcher-stall detector);
//! * the exposition is well-formed text format 0.0.4: only `# HELP` /
//!   `# TYPE` comments, metric names in the legal charset, every sample
//!   a finite float, and at least one sample present.
//!
//! `--kind index` diffs a fresh `indexbench` report against the
//! committed `BENCH_index.json`. Timings are wall-clock, so only ratios
//! and exact byte counts are gated:
//!
//! * schema fingerprints must match (sweep rows dedupe by shape);
//! * `largest.load_speedup ≥ S` (default `S` 5.0) — loading the
//!   serialised artifact must beat rebuilding the index at the largest
//!   swept genome, a same-machine ratio and therefore strict;
//! * `sam_identical` must be `true` — sharded alignment is only
//!   admissible while its merged SAM is byte-identical to the
//!   unsharded platform's;
//! * `footprint_max_rel_err ≤ 0.1 %` — the serialised footprint must
//!   reconcile with the `size_model` prediction (the two share exact
//!   byte accounting; slack covers only future fixed-overhead fields);
//! * per-genome `bytes_per_bp` within ±5 % of the baseline row with the
//!   same geometry — a size-accounting tripwire;
//! * `peak_rss_bytes_per_bp ≤ 16` at the largest swept genome — the
//!   process that builds, loads and boots the artifact may hold a small
//!   multiple of it, not the 45 B/bp a word-sized SA-IS and a resident
//!   Occ table used to cost; recorded as `skipped` when the host did not
//!   report `peak_rss_mb`.
//!
//! Exit status: 0 within tolerance, 1 regression detected, 2 usage or
//! parse error.
//!
//! Every run also writes a machine-readable gate record to
//! `target/ci/gate_<kind>.json` — one entry per check with the measured
//! value, the threshold and the verdict — so CI can upload the gate
//! outcomes as artifacts even when the log stream is lost. A parse
//! error records an `"error"` field instead of checks.

use std::io::Write as _;
use std::process::ExitCode;

use bench::json::{self, Value};

/// One recorded check: `measured` and `threshold` are pre-rendered JSON
/// fragments (numbers, booleans or strings) so heterogeneous checks
/// share one record shape.
struct Check {
    name: String,
    measured: String,
    threshold: String,
    op: &'static str,
    pass: bool,
}

/// Collects per-check outcomes for one benchdiff invocation and writes
/// the `target/ci/gate_<kind>.json` record.
struct Gate {
    kind: &'static str,
    checks: Vec<Check>,
    error: Option<String>,
}

/// A finite float as a JSON number (6 decimals keeps ratios readable).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_owned()
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

impl Gate {
    fn new(kind: &'static str) -> Gate {
        Gate {
            kind,
            checks: Vec::new(),
            error: None,
        }
    }

    /// Records one check and returns its verdict (so call sites can
    /// fold it into their running `ok`).
    fn record(
        &mut self,
        name: &str,
        measured: String,
        threshold: String,
        op: &'static str,
        pass: bool,
    ) -> bool {
        self.checks.push(Check {
            name: name.to_owned(),
            measured,
            threshold,
            op,
            pass,
        });
        pass
    }

    /// `measured >= floor` on floats.
    fn ge(&mut self, name: &str, measured: f64, floor: f64) -> bool {
        self.record(
            name,
            json_f64(measured),
            json_f64(floor),
            ">=",
            measured >= floor,
        )
    }

    /// `measured <= ceiling` on floats.
    fn le(&mut self, name: &str, measured: f64, ceiling: f64) -> bool {
        self.record(
            name,
            json_f64(measured),
            json_f64(ceiling),
            "<=",
            measured <= ceiling,
        )
    }

    /// Exact equality on counts.
    fn eq_u64(&mut self, name: &str, measured: u64, expected: u64) -> bool {
        self.record(
            name,
            measured.to_string(),
            expected.to_string(),
            "==",
            measured == expected,
        )
    }

    /// A boolean property that must hold.
    fn holds(&mut self, name: &str, pass: bool) -> bool {
        self.record(
            name,
            if pass { "true" } else { "false" }.to_owned(),
            "true".to_owned(),
            "==",
            pass,
        )
    }

    /// A check that could not be made here (the fresh report lacks the
    /// measurement); recorded so the gap is visible, and not a failure.
    fn skipped(&mut self, name: &str, why: &str) -> bool {
        self.record(
            name,
            "null".to_owned(),
            format!("\"{}\"", json_escape(why)),
            "skipped",
            true,
        )
    }

    /// Writes `target/ci/gate_<kind>.json`; best-effort (CI treats a
    /// missing record as the exit status alone).
    fn write(&self, overall_pass: bool) {
        let dir = std::path::Path::new("target/ci");
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("benchdiff: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("gate_{}.json", self.kind));
        let checks = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "    {{ \"name\": \"{}\", \"measured\": {}, \"op\": \"{}\", \
                     \"threshold\": {}, \"pass\": {} }}",
                    json_escape(&c.name),
                    c.measured,
                    c.op,
                    c.threshold,
                    c.pass
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let error = match &self.error {
            Some(msg) => format!(",\n  \"error\": \"{}\"", json_escape(msg)),
            None => String::new(),
        };
        let doc = format!(
            "{{\n  \"kind\": \"{}\",\n  \"pass\": {overall_pass},\n  \"checks\": [\n{checks}\n  ]{error}\n}}\n",
            self.kind
        );
        match std::fs::File::create(&path) {
            Ok(mut file) => {
                if let Err(e) = file.write_all(doc.as_bytes()) {
                    eprintln!("benchdiff: cannot write {}: {e}", path.display());
                } else {
                    eprintln!("benchdiff: gate record written to {}", path.display());
                }
            }
            Err(e) => eprintln!("benchdiff: cannot create {}: {e}", path.display()),
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Parallel,
    Kernel,
    Metrics,
    Trace,
    Host,
    Serve,
    Index,
    Obs,
}

struct Args {
    fresh: String,
    /// Absent only for `--kind trace`, which validates a single file.
    baseline: Option<String>,
    kind: Kind,
    min_ratio: f64,
    min_speedup: Option<f64>,
    min_scaling: f64,
    /// `--workers N`: worker tracks a trace must name (trace kind only).
    workers: Option<usize>,
}

const USAGE: &str = "usage: benchdiff <fresh.json> <baseline.json> \
     [--kind parallel|kernel|metrics|host|serve|index] [--min-ratio R] [--min-speedup S] \
     [--min-scaling C] | benchdiff <trace.json> --kind trace [--workers N] | \
     benchdiff <fresh_serve.json> <exposition.txt> --kind obs";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut kind = Kind::Parallel;
    let mut min_ratio = 0.5;
    let mut min_speedup = None;
    let mut min_scaling = 3.0;
    let mut workers = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--kind" => {
                i += 1;
                kind = match argv.get(i).map(String::as_str) {
                    Some("parallel") => Kind::Parallel,
                    Some("kernel") => Kind::Kernel,
                    Some("metrics") => Kind::Metrics,
                    Some("trace") => Kind::Trace,
                    Some("host") => Kind::Host,
                    Some("serve") => Kind::Serve,
                    Some("index") => Kind::Index,
                    Some("obs") => Kind::Obs,
                    Some(other) => return Err(format!("unknown --kind {other}")),
                    None => return Err("--kind needs a value".to_owned()),
                };
            }
            "--workers" => {
                i += 1;
                let value: usize = argv
                    .get(i)
                    .ok_or("--workers needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --workers: {e}"))?;
                if value == 0 {
                    return Err("invalid --workers: must be positive".to_owned());
                }
                workers = Some(value);
            }
            "--min-ratio" | "--min-speedup" | "--min-scaling" => {
                let flag = argv[i].clone();
                i += 1;
                let value: f64 = argv
                    .get(i)
                    .ok_or(format!("{flag} needs a value"))?
                    .parse()
                    .map_err(|e| format!("invalid {flag}: {e}"))?;
                if !value.is_finite() || value <= 0.0 {
                    return Err(format!("invalid {flag}: must be positive"));
                }
                match flag.as_str() {
                    "--min-ratio" => min_ratio = value,
                    "--min-speedup" => min_speedup = Some(value),
                    _ => min_scaling = value,
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => positional.push(argv[i].clone()),
        }
        i += 1;
    }
    let (fresh, baseline) = match (kind, positional.as_slice()) {
        (Kind::Trace, [fresh]) => (fresh.clone(), None),
        (Kind::Trace, _) => return Err(USAGE.to_owned()),
        (_, [fresh, baseline]) => (fresh.clone(), Some(baseline.clone())),
        _ => return Err(USAGE.to_owned()),
    };
    Ok(Args {
        fresh,
        baseline,
        kind,
        min_ratio,
        min_speedup,
        min_scaling,
        workers,
    })
}

fn load(path: &str) -> Result<Value, String> {
    json::parse_file(path)
}

/// The baseline path; parse_args guarantees it for every kind but trace.
fn baseline_path(args: &Args) -> &str {
    args.baseline.as_deref().expect("baseline present")
}

/// `(threads, reads_per_s)` rows of the `shared_platform` table.
fn throughput_rows(doc: &Value, path: &str) -> Result<Vec<(u64, f64)>, String> {
    let rows = doc
        .get("shared_platform")
        .and_then(Value::as_array)
        .ok_or(format!("{path}: missing shared_platform array"))?;
    rows.iter()
        .map(|row| {
            let threads = row
                .get("threads")
                .and_then(Value::as_u64)
                .ok_or(format!("{path}: row missing threads"))?;
            let rps = row
                .get("reads_per_s")
                .and_then(Value::as_f64)
                .ok_or(format!("{path}: row missing reads_per_s"))?;
            Ok((threads, rps))
        })
        .collect()
}

fn required_f64(doc: &Value, field: &str, path: &str) -> Result<f64, String> {
    doc.get(field)
        .and_then(Value::as_f64)
        .ok_or(format!("{path}: missing {field}"))
}

/// The scaling floor the fresh report must clear: thread scaling can
/// never exceed the physical core count, so the configured floor is
/// capped at 75 % of `min(host_cores, 8)`; on a single-core host the
/// check degrades to "threading must not cost more than 40 %".
fn effective_scaling_floor(configured: f64, host_cores: u64) -> f64 {
    if host_cores < 2 {
        return 0.6;
    }
    configured.min(0.75 * host_cores.min(8) as f64)
}

fn run_parallel(args: &Args, gate: &mut Gate) -> Result<bool, String> {
    let fresh = load(&args.fresh)?;
    let baseline = load(baseline_path(args))?;
    let fresh_rows = throughput_rows(&fresh, &args.fresh)?;
    let base_rows = throughput_rows(&baseline, baseline_path(args))?;

    let mut ok = true;
    let mut compared = 0;
    for &(threads, fresh_rps) in &fresh_rows {
        let Some(&(_, base_rps)) = base_rows.iter().find(|&&(t, _)| t == threads) else {
            continue;
        };
        compared += 1;
        let ratio = fresh_rps / base_rps;
        let verdict = if ratio >= args.min_ratio {
            "ok"
        } else {
            "REGRESSION"
        };
        eprintln!(
            "benchdiff: {threads} thread(s): {fresh_rps:.0} vs {base_rps:.0} reads/s \
             (ratio {ratio:.2}, floor {:.2}) {verdict}",
            args.min_ratio
        );
        ok &= gate.ge(
            &format!("throughput_ratio_t{threads}"),
            ratio,
            args.min_ratio,
        );
    }
    if compared == 0 {
        return Err("no common thread counts between fresh and baseline".to_owned());
    }

    let speedup = required_f64(&fresh, "speedup_8_threads_vs_seed_style", &args.fresh)?;
    let min_speedup = args.min_speedup.unwrap_or(2.0);
    let verdict = if speedup >= min_speedup {
        "ok"
    } else {
        "REGRESSION"
    };
    eprintln!(
        "benchdiff: shared-platform speedup {speedup:.1}x (floor {min_speedup:.1}x) {verdict}"
    );
    ok &= gate.ge("speedup_8_threads_vs_seed_style", speedup, min_speedup);

    let scaling = required_f64(&fresh, "scaling_8_vs_1", &args.fresh)?;
    let host_cores = fresh
        .get("host_cores")
        .and_then(Value::as_u64)
        .ok_or(format!("{}: missing host_cores", args.fresh))?;
    let floor = effective_scaling_floor(args.min_scaling, host_cores);
    let verdict = if scaling >= floor { "ok" } else { "REGRESSION" };
    eprintln!(
        "benchdiff: 8-vs-1 thread scaling {scaling:.2}x on {host_cores} core(s) \
         (effective floor {floor:.2}x, configured {:.2}x) {verdict}",
        args.min_scaling
    );
    ok &= gate.ge("scaling_8_vs_1", scaling, floor);
    Ok(ok)
}

fn run_kernel(args: &Args, gate: &mut Gate) -> Result<bool, String> {
    let fresh = load(&args.fresh)?;
    let baseline = load(baseline_path(args))?;
    let mut ok = true;

    let speedup = required_f64(&fresh, "speedup_vs_reference", &args.fresh)?;
    let min_speedup = args.min_speedup.unwrap_or(5.0);
    let verdict = if speedup >= min_speedup {
        "ok"
    } else {
        "REGRESSION"
    };
    eprintln!(
        "benchdiff: packed-kernel speedup {speedup:.1}x vs reference \
         (floor {min_speedup:.1}x) {verdict}"
    );
    ok &= gate.ge("speedup_vs_reference", speedup, min_speedup);

    let packed_mlfm = |doc: &Value, path: &str| -> Result<f64, String> {
        doc.get("packed")
            .and_then(|p| p.get("mlfm_per_s"))
            .and_then(Value::as_f64)
            .ok_or(format!("{path}: missing packed.mlfm_per_s"))
    };
    let fresh_mlfm = packed_mlfm(&fresh, &args.fresh)?;
    let base_mlfm = packed_mlfm(&baseline, baseline_path(args))?;
    let ratio = fresh_mlfm / base_mlfm;
    let verdict = if ratio >= args.min_ratio {
        "ok"
    } else {
        "REGRESSION"
    };
    eprintln!(
        "benchdiff: packed kernel {fresh_mlfm:.2} vs {base_mlfm:.2} Mlfm/s \
         (ratio {ratio:.2}, floor {:.2}) {verdict}",
        args.min_ratio
    );
    ok &= gate.ge("packed_mlfm_ratio", ratio, args.min_ratio);

    // Interleaved-batch kernel: the width-8 batch must clear its own
    // speedup floor over the single-read path, measured on this host by
    // the same kernelbench run (fresh side only — the floor is absolute,
    // not relative to the baseline file).
    let batch_speedup = required_f64(&fresh, "batch.speedup_at_8", &args.fresh)?;
    const MIN_BATCH_SPEEDUP: f64 = 2.0;
    let verdict = if batch_speedup >= MIN_BATCH_SPEEDUP {
        "ok"
    } else {
        "REGRESSION"
    };
    eprintln!(
        "benchdiff: batched kernel {batch_speedup:.2}x at width 8 \
         (floor {MIN_BATCH_SPEEDUP:.1}x) {verdict}"
    );
    ok &= gate.ge("batch.speedup_at_8", batch_speedup, MIN_BATCH_SPEEDUP);

    // Pd pipeline overlap: the Pd = 2 scheduler must finish the same
    // issue schedule in strictly fewer simulated cycles than Pd = 1.
    let pd1 = required_u64(&fresh, "pipeline.pd1_makespan_cycles", &args.fresh)?;
    let pd2 = required_u64(&fresh, "pipeline.pd2_makespan_cycles", &args.fresh)?;
    let verdict = if pd2 < pd1 { "ok" } else { "REGRESSION" };
    eprintln!("benchdiff: pipeline makespan Pd=2 {pd2} vs Pd=1 {pd1} simulated cycles {verdict}");
    ok &= gate.record(
        "pipeline.pd2_makespan_lt_pd1",
        pd2.to_string(),
        pd1.to_string(),
        "<",
        pd2 < pd1,
    );
    Ok(ok)
}

/// Compares the schema fingerprints of two documents, reporting every
/// path present on one side only. `strip_host` drops `host.`-prefixed
/// paths first — host telemetry may be live in one file and redacted in
/// the other (the committed metrics baseline zeroes it for
/// determinism), and its histogram/worker sub-shapes vary with count.
fn fingerprints_match(
    fresh: &Value,
    baseline: &Value,
    fresh_path: &str,
    base_path: &str,
    strip_host: bool,
) -> bool {
    let paths = |doc: &Value| -> Vec<String> {
        doc.schema_paths()
            .into_iter()
            .filter(|p| !strip_host || !(p == "host" || p.starts_with("host.")))
            .collect()
    };
    let fresh_paths = paths(fresh);
    let base_paths = paths(baseline);
    let mut ok = true;
    for p in &fresh_paths {
        if !base_paths.contains(p) {
            eprintln!("benchdiff: SCHEMA: {p} present in {fresh_path} only");
            ok = false;
        }
    }
    for p in &base_paths {
        if !fresh_paths.contains(p) {
            eprintln!("benchdiff: SCHEMA: {p} present in {base_path} only");
            ok = false;
        }
    }
    if ok {
        eprintln!(
            "benchdiff: schema fingerprint matches ({} paths{})",
            fresh_paths.len(),
            if strip_host { ", host.* ignored" } else { "" }
        );
    }
    ok
}

fn required_u64(doc: &Value, field: &str, path: &str) -> Result<u64, String> {
    doc.get(field)
        .and_then(Value::as_u64)
        .ok_or(format!("{path}: missing {field}"))
}

fn run_metrics(args: &Args, gate: &mut Gate) -> Result<bool, String> {
    let fresh = load(&args.fresh)?;
    let baseline = load(baseline_path(args))?;
    let fp = fingerprints_match(&fresh, &baseline, &args.fresh, baseline_path(args), true);
    let mut ok = gate.holds("schema_fingerprint", fp);

    let schema = required_u64(&fresh, "schema_version", &args.fresh)?;
    let base_schema = required_u64(&baseline, "schema_version", baseline_path(args))?;
    if schema != base_schema {
        eprintln!("benchdiff: SCHEMA: version {schema} vs baseline {base_schema}");
    }
    ok &= gate.eq_u64("schema_version", schema, base_schema);

    // Simulated-cycle invariants, re-derived from the fresh run; these
    // hold for any workload size, so a `--quick` run checks them too.
    let prim = required_u64(&fresh, "breakdown.primitive_cycles_total", &args.fresh)?;
    let busy = required_u64(&fresh, "breakdown.total_busy_cycles", &args.fresh)?;
    if prim != busy {
        eprintln!("benchdiff: INVARIANT: primitive cycles {prim} != ledger total {busy}");
    }
    ok &= gate.eq_u64("primitive_cycles_reconcile", prim, busy);
    let phase_sum: u64 = ["exact", "inexact", "recovery_retry", "recovery_escalate"]
        .iter()
        .map(|leg| {
            required_u64(
                &fresh,
                &format!("breakdown.lfm_by_phase.{leg}"),
                &args.fresh,
            )
        })
        .sum::<Result<u64, String>>()?;
    let lfm_calls = required_u64(&fresh, "report.lfm_calls", &args.fresh)?;
    if phase_sum != lfm_calls {
        eprintln!("benchdiff: INVARIANT: phase LFMs {phase_sum} != total LFM calls {lfm_calls}");
    }
    ok &= gate.eq_u64("lfm_phase_attribution", phase_sum, lfm_calls);
    let zones = required_u64(&fresh, "breakdown.heatmap.zones", &args.fresh)?;
    let activations = fresh
        .get("breakdown.heatmap.activations")
        .and_then(Value::as_array)
        .ok_or(format!(
            "{}: missing breakdown.heatmap.activations",
            args.fresh
        ))?;
    if activations.len() as u64 != zones {
        eprintln!(
            "benchdiff: INVARIANT: heatmap declares {zones} zones but lists {}",
            activations.len()
        );
    }
    ok &= gate.eq_u64("heatmap_zone_count", activations.len() as u64, zones);
    let heat_total: u64 = activations.iter().filter_map(Value::as_u64).sum();
    let subarray = required_u64(&fresh, "breakdown.subarray_activations", &args.fresh)?;
    if heat_total > subarray {
        eprintln!(
            "benchdiff: INVARIANT: heatmap total {heat_total} exceeds \
             sub-array activations {subarray}"
        );
    }
    ok &= gate.record(
        "heatmap_within_activations",
        heat_total.to_string(),
        subarray.to_string(),
        "<=",
        heat_total <= subarray,
    );
    eprintln!(
        "benchdiff: metrics v{schema}: {busy} busy cycles reconcile, \
         {lfm_calls} LFMs attributed, heatmap {heat_total}/{subarray} activations"
    );
    Ok(ok)
}

fn run_trace(args: &Args, gate: &mut Gate) -> Result<bool, String> {
    let doc = load(&args.fresh)?;
    let unit_ok = doc.get("displayTimeUnit").and_then(Value::as_str) == Some("ms");
    if !unit_ok {
        eprintln!("benchdiff: TRACE: missing displayTimeUnit \"ms\"");
    }
    let mut ok = gate.holds("display_time_unit_ms", unit_ok);
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or(format!("{}: missing traceEvents array", args.fresh))?;

    let mut complete = 0usize;
    let mut malformed = 0usize;
    let mut unexpected = 0usize;
    let mut tracks = Vec::new();
    for (i, event) in events.iter().enumerate() {
        match event.get("ph").and_then(Value::as_str) {
            Some("X") => {
                let well_formed = event.get("name").and_then(Value::as_str).is_some()
                    && event.get("tid").and_then(Value::as_u64).is_some()
                    && event.get("ts").and_then(Value::as_f64).is_some()
                    && event
                        .get("dur")
                        .and_then(Value::as_f64)
                        .is_some_and(|d| d >= 0.0);
                if !well_formed {
                    eprintln!("benchdiff: TRACE: event {i} is not a well-formed complete span");
                    malformed += 1;
                }
                complete += 1;
            }
            Some("M") => {
                if event.get("name").and_then(Value::as_str) == Some("thread_name") {
                    if let Some(track) = event.get("args.name").and_then(Value::as_str) {
                        tracks.push(track.to_owned());
                    }
                }
            }
            _ => {
                eprintln!("benchdiff: TRACE: event {i} has an unexpected phase");
                unexpected += 1;
            }
        }
    }
    ok &= gate.eq_u64("malformed_spans", malformed as u64, 0);
    ok &= gate.eq_u64("unexpected_phases", unexpected as u64, 0);
    if complete == 0 {
        eprintln!("benchdiff: TRACE: no complete (\"X\") spans");
    }
    ok &= gate.record(
        "complete_spans",
        complete.to_string(),
        "0".to_owned(),
        ">",
        complete > 0,
    );
    if let Some(workers) = args.workers {
        let mut missing = 0usize;
        for w in 0..workers {
            let want = format!("worker-{w}");
            if !tracks.contains(&want) {
                eprintln!("benchdiff: TRACE: no thread_name track for {want}");
                missing += 1;
            }
        }
        ok &= gate.eq_u64("missing_worker_tracks", missing as u64, 0);
    }
    eprintln!(
        "benchdiff: trace carries {complete} span(s) across {} named track(s)",
        tracks.len()
    );
    Ok(ok)
}

fn run_host(args: &Args, gate: &mut Gate) -> Result<bool, String> {
    let fresh = load(&args.fresh)?;
    let baseline = load(baseline_path(args))?;
    let fp = fingerprints_match(&fresh, &baseline, &args.fresh, baseline_path(args), false);
    let mut ok = gate.holds("schema_fingerprint", fp);

    // Host numbers are wall-clock and can't be diffed against the
    // baseline; instead the fresh run must be internally consistent.
    let threads = required_u64(&fresh, "threads", &args.fresh)?;
    let read_count = required_u64(&fresh, "workload.read_count", &args.fresh)?;
    let workers = fresh
        .get("host.workers")
        .and_then(Value::as_array)
        .ok_or(format!("{}: missing host.workers", args.fresh))?;
    if workers.len() as u64 != threads {
        eprintln!(
            "benchdiff: HOST: {} worker row(s) for {threads} thread(s)",
            workers.len()
        );
    }
    ok &= gate.eq_u64("worker_rows", workers.len() as u64, threads);
    let worker_reads: u64 = workers
        .iter()
        .filter_map(|w| w.get("reads").and_then(Value::as_u64))
        .sum();
    if worker_reads != read_count {
        eprintln!("benchdiff: HOST: workers claim {worker_reads} reads of {read_count}");
    }
    ok &= gate.eq_u64("worker_read_sum", worker_reads, read_count);
    let samples = required_u64(&fresh, "host.per_read_latency.count", &args.fresh)?;
    if samples != read_count {
        eprintln!("benchdiff: HOST: {samples} per-read samples for {read_count} reads");
    }
    ok &= gate.eq_u64("per_read_samples", samples, read_count);
    let wall_ns = required_u64(&fresh, "host.wall_ns", &args.fresh)?;
    if wall_ns == 0 {
        eprintln!("benchdiff: HOST: parallel-region wall clock is zero");
    }
    ok &= gate.record(
        "wall_clock_positive",
        wall_ns.to_string(),
        "0".to_owned(),
        ">",
        wall_ns > 0,
    );
    let balance = required_f64(&fresh, "load_balance_pct", &args.fresh)?;
    let balance_ok = balance > 0.0 && balance <= 100.0;
    if !balance_ok {
        eprintln!("benchdiff: HOST: load balance {balance}% outside (0, 100]");
    }
    ok &= gate.record(
        "load_balance_pct",
        json_f64(balance),
        "\"(0, 100]\"".to_owned(),
        "in",
        balance_ok,
    );
    eprintln!(
        "benchdiff: host run: {read_count} reads over {threads} worker(s), \
         load balance {balance:.1}%"
    );
    Ok(ok)
}

/// One phase row of a `loadgen` report: every request offered in the
/// phase must have reached a terminal outcome.
fn check_serve_row(row: &Value, label: &str, path: &str) -> Result<bool, String> {
    let field = |name: &str| -> Result<u64, String> {
        row.get(name)
            .and_then(Value::as_u64)
            .ok_or(format!("{path}: {label} row missing {name}"))
    };
    let sent = field("sent")?;
    let answered = field("answered")?;
    if sent == 0 {
        eprintln!("benchdiff: SERVE: {label} phase sent nothing");
        return Ok(false);
    }
    if answered != sent {
        eprintln!("benchdiff: SERVE: {label} phase lost requests ({answered} answered of {sent})");
        return Ok(false);
    }
    Ok(true)
}

fn run_serve(args: &Args, gate: &mut Gate) -> Result<bool, String> {
    let fresh = load(&args.fresh)?;
    let baseline = load(baseline_path(args))?;
    let fp = fingerprints_match(&fresh, &baseline, &args.fresh, baseline_path(args), false);
    let mut ok = gate.holds("schema_fingerprint", fp);

    let schema = required_u64(&fresh, "schema_version", &args.fresh)?;
    let base_schema = required_u64(&baseline, "schema_version", baseline_path(args))?;
    if schema != base_schema {
        eprintln!("benchdiff: SCHEMA: version {schema} vs baseline {base_schema}");
    }
    ok &= gate.eq_u64("schema_version", schema, base_schema);

    // Rates and latencies are wall-clock; the invariants below are
    // re-derived from the fresh run and hold on any machine.
    let sweep = fresh
        .get("sweep")
        .and_then(Value::as_array)
        .ok_or(format!("{}: missing sweep array", args.fresh))?;
    if sweep.is_empty() {
        eprintln!("benchdiff: SERVE: empty sweep");
    }
    ok &= gate.record(
        "sweep_rows",
        sweep.len().to_string(),
        "0".to_owned(),
        ">",
        !sweep.is_empty(),
    );
    let mut rows_ok = true;
    for (i, row) in sweep.iter().enumerate() {
        rows_ok &= check_serve_row(row, &format!("sweep[{i}]"), &args.fresh)?;
    }
    ok &= gate.holds("sweep_rows_accounted", rows_ok);
    let overload = fresh
        .get("overload")
        .ok_or(format!("{}: missing overload row", args.fresh))?;
    let overload_ok = check_serve_row(overload, "overload", &args.fresh)?;
    ok &= gate.holds("overload_accounted", overload_ok);

    let knee = required_u64(&fresh, "knee_rps", &args.fresh)?;
    if knee == 0 {
        eprintln!("benchdiff: SERVE: no saturation knee found");
    }
    ok &= gate.record("knee_rps", knee.to_string(), "0".to_owned(), ">", knee > 0);
    let overload_rps = required_u64(&fresh, "overload.target_rps", &args.fresh)?;
    if overload_rps < 2 * knee {
        eprintln!(
            "benchdiff: SERVE: overload phase at {overload_rps} rps is under 2x the \
             knee ({knee} rps)"
        );
    }
    ok &= gate.record(
        "overload_target_rps",
        overload_rps.to_string(),
        (2 * knee).to_string(),
        ">=",
        overload_rps >= 2 * knee,
    );
    let shed = required_u64(&fresh, "overload.shed_responses", &args.fresh)?;
    if shed == 0 {
        eprintln!("benchdiff: SERVE: overload phase never shed — admission control inert");
    }
    ok &= gate.record(
        "overload_shed_responses",
        shed.to_string(),
        "0".to_owned(),
        ">",
        shed > 0,
    );
    let p99 = required_f64(&fresh, "overload.p99_ms", &args.fresh)?;
    let slo = required_f64(&fresh, "slo_ms", &args.fresh)?;
    if p99 > slo {
        eprintln!(
            "benchdiff: SERVE: accepted-request p99 {p99:.1} ms breaches the \
             {slo:.1} ms SLO under overload"
        );
    }
    ok &= gate.le("overload_p99_ms", p99, slo);
    eprintln!(
        "benchdiff: serve run: knee {knee} rps, overload {overload_rps} rps shed \
         {shed} request(s), accepted p99 {p99:.1} ms (SLO {slo:.1} ms)"
    );
    Ok(ok)
}

/// The shared counters the obs gate reconciles between the lifetime
/// `service` section and the ring-derived `cumulative` aggregate of a
/// loadgen report's `obs` block.
const OBS_COUNTERS: [&str; 11] = [
    "received",
    "accepted",
    "shed_queue_full",
    "shed_inflight_bytes",
    "rejected_draining",
    "rejected_invalid",
    "expired_in_queue",
    "late_responses",
    "panics_quarantined",
    "batches",
    "responses",
];

/// Is `name` a legal Prometheus metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`)?
fn prom_name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// One non-comment exposition line: `name value` or `name{labels} value`
/// with a finite float value. Returns `false` on any malformation.
fn prom_sample_ok(line: &str) -> bool {
    let Some((metric, value)) = line.rsplit_once(' ') else {
        return false;
    };
    if !value.parse::<f64>().is_ok_and(f64::is_finite) {
        return false;
    }
    match metric.split_once('{') {
        Some((name, labels)) => prom_name_ok(name) && labels.ends_with('}'),
        None => prom_name_ok(metric),
    }
}

fn run_obs(args: &Args, gate: &mut Gate) -> Result<bool, String> {
    let fresh = load(&args.fresh)?;
    let prom_path = baseline_path(args);
    let prom_text = std::fs::read_to_string(prom_path).map_err(|e| format!("{prom_path}: {e}"))?;
    let mut ok = true;

    // The exposition answered mid-overload: loadgen's scraper polled the
    // Stats verb while the queue saturated, so a zero count means the
    // inline never-shed path regressed.
    let scrapes = required_u64(&fresh, "obs.scrapes", &args.fresh)?;
    if scrapes == 0 {
        eprintln!("benchdiff: OBS: no Stats scrapes landed mid-run");
    }
    ok &= gate.record(
        "stats_scrapes",
        scrapes.to_string(),
        "0".to_owned(),
        ">",
        scrapes > 0,
    );

    // Exact reconciliation: the rolling ring's retired ⊕ live aggregate
    // must equal the lifetime counters field-for-field. Any drift means
    // an event bypassed the single critical section.
    for name in OBS_COUNTERS {
        let lifetime = required_u64(&fresh, &format!("obs.lifetime.{name}"), &args.fresh)?;
        let cumulative = required_u64(&fresh, &format!("obs.cumulative.{name}"), &args.fresh)?;
        if cumulative != lifetime {
            eprintln!(
                "benchdiff: OBS: {name} drifted — ring cumulative {cumulative} vs \
                 lifetime {lifetime}"
            );
        }
        ok &= gate.eq_u64(&format!("reconcile_{name}"), cumulative, lifetime);
    }

    let max_rps = required_f64(&fresh, "obs.max_rps_10s", &args.fresh)?;
    if max_rps <= 0.0 {
        eprintln!("benchdiff: OBS: the 10s window never saw throughput");
    }
    ok &= gate.record(
        "max_rps_10s",
        json_f64(max_rps),
        json_f64(0.0),
        ">",
        max_rps > 0.0,
    );

    let stalls = required_u64(&fresh, "obs.watchdog.stalls", &args.fresh)?;
    if stalls != 0 {
        eprintln!("benchdiff: OBS: watchdog tripped {stalls} stall episode(s) on a healthy run");
    }
    ok &= gate.eq_u64("watchdog_quiet", stalls, 0);

    // Exposition well-formedness (text format 0.0.4).
    let mut samples = 0u64;
    let mut help = 0u64;
    let mut types = 0u64;
    let mut bad_lines = 0u64;
    for (i, line) in prom_text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            if comment.starts_with("HELP ") {
                help += 1;
            } else if let Some(rest) = comment.strip_prefix("TYPE ") {
                types += 1;
                let declared = rest.split_whitespace().nth(1);
                if !declared
                    .is_some_and(|k| matches!(k, "counter" | "gauge" | "histogram" | "summary"))
                {
                    eprintln!("benchdiff: OBS: exposition line {i}: unknown TYPE {declared:?}");
                    bad_lines += 1;
                }
            } else {
                eprintln!("benchdiff: OBS: exposition line {i}: comment is neither HELP nor TYPE");
                bad_lines += 1;
            }
            continue;
        }
        if prom_sample_ok(line) {
            samples += 1;
        } else {
            eprintln!("benchdiff: OBS: exposition line {i} malformed: {line:?}");
            bad_lines += 1;
        }
    }
    ok &= gate.eq_u64("prom_malformed_lines", bad_lines, 0);
    ok &= gate.record(
        "prom_samples",
        samples.to_string(),
        "0".to_owned(),
        ">",
        samples > 0,
    );
    ok &= gate.holds("prom_help_and_type_present", help > 0 && types > 0);
    eprintln!(
        "benchdiff: obs run: {scrapes} scrape(s), peak 10s window {max_rps:.0} rps, \
         {} counters reconcile, exposition {samples} sample(s) ({help} HELP, {types} TYPE)",
        OBS_COUNTERS.len()
    );
    Ok(ok)
}

fn run_index(args: &Args, gate: &mut Gate) -> Result<bool, String> {
    let fresh = load(&args.fresh)?;
    let baseline = load(baseline_path(args))?;
    let fp = fingerprints_match(&fresh, &baseline, &args.fresh, baseline_path(args), false);
    let mut ok = gate.holds("schema_fingerprint", fp);

    // Build and load are both wall-clock, but their ratio comes from one
    // machine and one run — the whole point of the artifact is that the
    // load path skips SA-IS, so the ratio is gated strictly.
    let speedup = required_f64(&fresh, "largest.load_speedup", &args.fresh)?;
    let genome = required_u64(&fresh, "largest.genome_len", &args.fresh)?;
    let min_speedup = args.min_speedup.unwrap_or(5.0);
    let verdict = if speedup >= min_speedup {
        "ok"
    } else {
        "REGRESSION"
    };
    eprintln!(
        "benchdiff: artifact load {speedup:.1}x faster than rebuild at {genome} bp \
         (floor {min_speedup:.1}x) {verdict}"
    );
    ok &= gate.ge("load_speedup", speedup, min_speedup);

    let sam_identical = fresh
        .get("sam_identical")
        .and_then(Value::as_bool)
        .ok_or(format!("{}: missing sam_identical", args.fresh))?;
    if !sam_identical {
        eprintln!("benchdiff: INDEX: sharded SAM diverged from the unsharded platform");
    }
    ok &= gate.holds("sam_identical", sam_identical);

    let rel_err = required_f64(&fresh, "footprint_max_rel_err", &args.fresh)?;
    if rel_err > 1e-3 {
        eprintln!(
            "benchdiff: INDEX: serialised footprint off the size model by {:.3} % \
             (tolerance 0.1 %)",
            rel_err * 100.0
        );
    }
    ok &= gate.le("footprint_max_rel_err", rel_err, 1e-3);

    // Bytes-per-base is deterministic for a given geometry, so a drift
    // beyond 5 % against the committed baseline means the serialised
    // layout (or the accounting) changed without a baseline regen.
    let sweep_rows = |doc: &Value, path: &str| -> Result<Vec<(u64, u64, f64)>, String> {
        let rows = doc
            .get("sweep")
            .and_then(Value::as_array)
            .ok_or(format!("{path}: missing sweep array"))?;
        rows.iter()
            .map(|row| {
                let field = |name: &str| {
                    row.get(name)
                        .and_then(Value::as_u64)
                        .ok_or(format!("{path}: sweep row missing {name}"))
                };
                let bpb = row
                    .get("bytes_per_bp")
                    .and_then(Value::as_f64)
                    .ok_or(format!("{path}: sweep row missing bytes_per_bp"))?;
                Ok((field("genome_len")?, field("sa_rate")?, bpb))
            })
            .collect()
    };
    let fresh_rows = sweep_rows(&fresh, &args.fresh)?;
    let base_rows = sweep_rows(&baseline, baseline_path(args))?;
    let mut compared = 0;
    let mut max_drift = 0.0f64;
    for &(genome_len, sa_rate, fresh_bpb) in &fresh_rows {
        let Some(&(_, _, base_bpb)) = base_rows
            .iter()
            .find(|&&(g, r, _)| g == genome_len && r == sa_rate)
        else {
            continue;
        };
        compared += 1;
        let drift = (fresh_bpb / base_bpb - 1.0).abs();
        max_drift = max_drift.max(drift);
        if drift > 0.05 {
            eprintln!(
                "benchdiff: INDEX: {genome_len} bp @ SA rate {sa_rate}: {fresh_bpb:.4} vs \
                 baseline {base_bpb:.4} bytes/bp ({:.1} % drift, tolerance 5 %)",
                drift * 100.0
            );
        }
    }
    ok &= gate.le("bytes_per_bp_max_drift", max_drift, 0.05);

    // Rows run small to large in one process, so the last row's
    // high-water mark is its own: build, load and boot of that genome.
    let largest_row = fresh
        .get("sweep")
        .and_then(Value::as_array)
        .and_then(|rows| rows.last());
    match largest_row
        .and_then(|row| row.get("peak_rss_mb"))
        .and_then(Value::as_f64)
    {
        Some(peak_mb) => {
            let per_bp = peak_mb * f64::from(1u32 << 20) / genome as f64;
            if per_bp > 16.0 {
                eprintln!(
                    "benchdiff: INDEX: peak RSS {peak_mb:.0} MB at {genome} bp is \
                     {per_bp:.1} bytes/bp (ceiling 16)"
                );
            }
            ok &= gate.le("peak_rss_bytes_per_bp", per_bp, 16.0);
        }
        None => {
            gate.skipped("peak_rss_bytes_per_bp", "peak_rss_mb not reported");
        }
    }
    eprintln!(
        "benchdiff: index run: {} sweep row(s) ({compared} vs baseline), sharded SAM {}, \
         footprint err {:.2e}",
        fresh_rows.len(),
        if sam_identical {
            "identical"
        } else {
            "DIVERGED"
        },
        rel_err
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("benchdiff: {msg}");
            return ExitCode::from(2);
        }
    };
    let kind_name = match args.kind {
        Kind::Parallel => "parallel",
        Kind::Kernel => "kernel",
        Kind::Metrics => "metrics",
        Kind::Trace => "trace",
        Kind::Host => "host",
        Kind::Serve => "serve",
        Kind::Index => "index",
        Kind::Obs => "obs",
    };
    let mut gate = Gate::new(kind_name);
    let outcome = match args.kind {
        Kind::Parallel => run_parallel(&args, &mut gate),
        Kind::Kernel => run_kernel(&args, &mut gate),
        Kind::Metrics => run_metrics(&args, &mut gate),
        Kind::Trace => run_trace(&args, &mut gate),
        Kind::Host => run_host(&args, &mut gate),
        Kind::Serve => run_serve(&args, &mut gate),
        Kind::Index => run_index(&args, &mut gate),
        Kind::Obs => run_obs(&args, &mut gate),
    };
    if let Err(msg) = &outcome {
        gate.error = Some(msg.clone());
    }
    gate.write(matches!(outcome, Ok(true)));
    match outcome {
        Ok(true) => {
            eprintln!("benchdiff: within tolerance");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            eprintln!("benchdiff: regression beyond tolerance");
            ExitCode::from(1)
        }
        Err(msg) => {
            eprintln!("benchdiff: {msg}");
            ExitCode::from(2)
        }
    }
}
