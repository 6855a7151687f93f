//! `pimbench` — the repo's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! pimbench [run|trace] [--workload NAME|all] [--seed N] [--seconds S]
//!          [--trace 0|1] [--sets N]
//! ```
//!
//! `run` (the default, `--trace 0`) drives the real binaries and prints
//! the end-to-end metrics; `trace` (`--trace 1`) prints the per-layer
//! metrics and writes a Chrome trace. Either way the last line of stdout
//! for each workload is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.

mod check;
mod child;
mod e2e;
mod gen;
mod host;
mod loadgen;
mod span;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use e2e::{Env, Failure, Outcome};
use spec::{Better, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use stats::Stat;

#[derive(Debug)]
struct Cli {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    sets: usize,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: WORKLOADS.iter().collect(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        traced: false,
        sets: 1,
    };
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "run" => cli.traced = false,
            "trace" => cli.traced = true,
            "--workload" => {
                let name = value(&mut it, "--workload")?;
                if name != "all" {
                    let w = spec::workload(&name).ok_or(format!("unknown workload {name}"))?;
                    cli.workloads = vec![w];
                }
            }
            "--seed" => {
                let v = value(&mut it, "--seed")?;
                cli.seed = v.parse().map_err(|e| format!("invalid --seed: {e}"))?;
            }
            "--seconds" => {
                let v = value(&mut it, "--seconds")?;
                cli.seconds = v.parse().map_err(|e| format!("invalid --seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("invalid --seconds: must be in (0, 60]".to_owned());
                }
            }
            "--trace" => {
                cli.traced = match value(&mut it, "--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("invalid --trace: {other} is neither 0 nor 1")),
                }
            }
            "--sets" => {
                let v = value(&mut it, "--sets")?;
                cli.sets = v.parse().map_err(|e| format!("invalid --sets: {e}"))?;
                if cli.sets == 0 {
                    return Err("invalid --sets: must be at least 1".to_owned());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.traced && cli.sets > 1 {
        return Err("--sets compares end-to-end metrics; it does not apply to trace".to_owned());
    }
    Ok(cli)
}

/// Builds `pimalign` and `pimserve` from the checkout this runs in and
/// says where they are. The benchmark measures the tree it stands in, so
/// it never trusts a binary it did not just ask cargo to bring up to date.
fn build_binaries() -> Result<Env, Failure> {
    let root = std::env::current_dir()?;
    if !root.join("src/bin/pimalign.rs").is_file() {
        return Err("run pimbench from the root of the repository checkout".into());
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "--bins"])
        .current_dir(&root)
        .status()?;
    if !status.success() {
        return Err(format!("cargo build --release --bins failed: {status}").into());
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from("target"), PathBuf::from);
    let target = root.join(target);
    let env = Env {
        pimalign: target.join("release/pimalign"),
        pimserve: target.join("release/pimserve"),
        out_dir: target.join("benchmark"),
    };
    for bin in [&env.pimalign, &env.pimserve] {
        if !bin.is_file() {
            return Err(format!("cargo built no {}", bin.display()).into());
        }
    }
    std::fs::create_dir_all(&env.out_dir)?;
    Ok(env)
}

/// Formats a value with all the digits it was measured with.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no NaN; a metric that could not be computed fails the
        // run's correctness rather than the document's syntax.
        "null".to_owned()
    }
}

fn result_json(outcome: &Outcome, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    let all_finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct() && all_finite,
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    )
}

fn print_verdict(outcome: &Outcome) {
    println!("  ops_attempted = {}", outcome.attempted);
    println!("  ops_failed = {}", outcome.failed);
    println!("  sam fnv1a = {:016x}", outcome.sam_digest);
    for note in &outcome.notes {
        println!("  note: {note}");
    }
}

/// Generates the inputs, runs one workload in the chosen mode, prints its
/// metrics and its result line.
fn run_workload(w: &Workload, cli: &Cli, env: &Env) -> Result<Outcome, Failure> {
    let mode = if cli.traced { "trace" } else { "run" };
    println!(
        "pimbench: {mode} workload {} seed {} seconds {}",
        w.name, cli.seed, cli.seconds
    );
    let dir = child::unique_dir(&env.out_dir, &format!("{}-{}", w.name, cli.seed))?;
    let inputs = gen::write_inputs(w, cli.seed, &dir)?;
    for (file, digest) in &inputs.digests {
        println!("  input {file} fnv1a = {digest:016x}");
    }
    let outcome = if cli.traced {
        let traced = trace::run(w, &inputs, cli.seconds, env, cli.seed)?;
        let mut rows = Vec::new();
        for (name, unit, _) in &PER_LAYER {
            let value = *traced
                .metrics
                .get(name)
                .ok_or_else(|| format!("the traced run did not measure {name}"))?;
            println!("  metric {name} = {value} {unit}");
            rows.push((*name, value, *unit));
        }
        print_verdict(&traced.outcome);
        println!("{}", result_json(&traced.outcome, &rows));
        traced.outcome
    } else {
        let outcome = e2e::run(w, &inputs, cli.seconds, env)?;
        let mut rows = Vec::new();
        for metric in &END_TO_END {
            let s = outcome.metrics[metric.name];
            println!(
                "  metric {} = {} {}  (q1 {} q3 {} min {} max {} n {}){}",
                metric.name,
                s.median,
                metric.unit,
                s.q1,
                s.q3,
                s.min,
                s.max,
                s.n,
                if metric.reported_as.is_some() {
                    "  reported, not gated"
                } else {
                    ""
                }
            );
            // The result line carries the gated metrics, the ones
            // BENCHMARK.json lists under `end_to_end`.
            if metric.reported_as.is_none() {
                rows.push((metric.name, s.median, metric.unit));
            }
        }
        print_verdict(&outcome);
        println!("{}", result_json(&outcome, &rows));
        outcome
    };
    // The inputs are reproducible from the seed; keep the directory only
    // when something needs looking at. (Said on stderr: the result line
    // stays the last line of stdout.)
    if outcome.correct() {
        std::fs::remove_dir_all(&dir)?;
    } else {
        eprintln!("pimbench: kept {}", dir.display());
    }
    Ok(outcome)
}

/// How far apart two sets' medians are, as a share of the better one.
fn gap(a: f64, b: f64, better: Better) -> f64 {
    let (best, worst) = match better {
        Better::Higher => (a.max(b), a.min(b)),
        Better::Lower => (a.min(b), a.max(b)),
    };
    (worst - best).abs() / best.abs()
}

/// Compares the first set with each later one; `true` when every gated
/// timed metric is within its bound and every counted metric is
/// bit-identical. A metric that is reported but not gated is compared the
/// same way and never breaches.
fn compare_sets(cli: &Cli, sets: &[Vec<Outcome>]) -> bool {
    let mut ok = true;
    println!("pimbench: {} sets compared against the first", sets.len());
    for (later_no, later) in sets.iter().enumerate().skip(1) {
        for (wi, w) in cli.workloads.iter().enumerate() {
            for metric in &END_TO_END {
                let a: Stat = sets[0][wi].metrics[metric.name];
                let b: Stat = later[wi].metrics[metric.name];
                let (verdict, detail) = if metric.exact {
                    let same = a.median.to_bits() == b.median.to_bits();
                    (same, "must be bit-identical".to_owned())
                } else {
                    let g = gap(a.median, b.median, metric.better);
                    (
                        g <= metric.bound,
                        format!("gap {g:.4} bound {}", metric.bound),
                    )
                };
                let gated = metric.reported_as.is_none();
                ok &= verdict || !gated;
                println!(
                    "  {} {} set 0: {} [{} .. {}] n {}  set {later_no}: {} [{} .. {}] n {}  {detail}  {}",
                    w.name,
                    metric.name,
                    a.median, a.q1, a.q3, a.n,
                    b.median, b.q1, b.q3, b.n,
                    match (verdict, gated) {
                        (true, _) => "ok",
                        (false, true) => "BREACH",
                        (false, false) => "beyond its bound (reported, not gated)",
                    }
                );
            }
        }
    }
    ok
}

fn run() -> Result<bool, Failure> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args)?;
    let env = build_binaries()?;
    let mut sets: Vec<Vec<Outcome>> = Vec::new();
    for _ in 0..cli.sets {
        let mut set = Vec::new();
        for w in &cli.workloads {
            set.push(run_workload(w, &cli, &env)?);
        }
        sets.push(set);
    }
    Ok(cli.sets == 1 || compare_sets(&cli, &sets))
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pimbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let cli = parse_cli(&args("--workload art_both --seed 9 --seconds 15 --trace 1")).unwrap();
        assert_eq!(cli.workloads.len(), 1);
        assert_eq!(cli.workloads[0].name, "art_both");
        assert_eq!(
            (cli.seed, cli.seconds, cli.traced, cli.sets),
            (9, 15.0, true, 1)
        );
        let cli = parse_cli(&args("run --sets 2")).unwrap();
        assert_eq!(
            (cli.workloads.len(), cli.seed, cli.traced, cli.sets),
            (5, 1207, false, 2)
        );
        assert!(parse_cli(&args("--workload nope")).is_err());
        assert!(parse_cli(&args("--trace 2")).is_err());
        assert!(parse_cli(&args("trace --sets 2")).is_err());
        assert!(parse_cli(&args("--seconds 0")).is_err());
    }

    #[test]
    fn gap_is_measured_from_the_better_side() {
        assert_eq!(gap(100.0, 90.0, Better::Higher), 0.1);
        assert_eq!(gap(90.0, 100.0, Better::Higher), 0.1);
        assert_eq!(gap(1.0, 1.25, Better::Lower), 0.25);
        assert_eq!(gap(2.0, 2.0, Better::Lower), 0.0);
    }

    #[test]
    fn the_result_line_is_one_json_object_with_the_contract_keys() {
        let outcome = Outcome {
            attempted: 12,
            failed: 0,
            identities_hold: true,
            ..Outcome::default()
        };
        let line = result_json(&outcome, &[("setup_s", 0.8127, "s"), ("x", 3.0, "count")]);
        let doc = bench::json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(12));
        assert_eq!(
            doc.get("metrics.setup_s.value").and_then(|v| v.as_f64()),
            Some(0.8127)
        );
        assert_eq!(
            doc.get("metrics.x.unit").and_then(|v| v.as_str()),
            Some("count")
        );
        // A value that could not be measured makes the run incorrect.
        let line = result_json(&outcome, &[("setup_s", f64::NAN, "s")]);
        assert!(line.contains("\"correct\": false"));
    }
}
