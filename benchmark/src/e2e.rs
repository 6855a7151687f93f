//! The untraced run: drives the real `pimalign` and `pimserve` binaries
//! on generated files and reports the twelve end-to-end metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use bench::json::{self, Value};

use crate::check::{check_sam, SamVerdict};
use crate::child::{run_measured, stderr_tail, ChildRun, ServeGuard};
use crate::gen::{fnv1a, Inputs};
use crate::host::{settle, Sample};
use crate::loadgen::{self, Counts};
use crate::spec::{Stage, Workload, CLOSED_WINDOW, LATE_LIMIT_MS, OPEN_RPS, SA_RATE};
use crate::stats::Stat;

/// Every timed child runs at least this often, however small its share.
const MIN_REPEATS: usize = 3;
/// …and at most this often, however fast it is.
const MAX_REPEATS: usize = 30;
/// How far past its share a stage may run while it still lacks
/// [`MIN_REPEATS`] samples the host did not disturb.
const DISTURBED_STRETCH: f64 = 1.5;
/// The serve stage runs this many rounds, each against a fresh `pimserve`:
/// how the server's and the generator's threads settle on the two cores
/// differs from one process to the next and moves capacity by a fifth, so
/// one instance is one sample, not the answer.
const SERVE_ROUNDS: usize = 3;
/// A serve metric leaves disturbed windows out only while this many clean
/// ones remain.
const MIN_WINDOWS: usize = 4;
/// Floors of a round's two phases, so a small share still yields steady
/// percentiles.
const MIN_CLOSED: Duration = Duration::from_millis(750);
const MIN_OPEN: Duration = Duration::from_millis(600);
/// Closed-loop traffic before the first measured phase: fills the kernel
/// cache, the allocator and the TCP window.
const WARM_UP: Duration = Duration::from_millis(300);
/// `--queue-depth` of the measured `pimserve`: two seconds of open-loop
/// traffic.
pub const SERVE_QUEUE_DEPTH: &str = "8192";

pub type Failure = Box<dyn std::error::Error>;

/// Where the binaries are and where files may be written.
#[derive(Debug, Clone)]
pub struct Env {
    pub pimalign: PathBuf,
    pub pimserve: PathBuf,
    /// `<target dir>/benchmark`: traces, and one scratch directory per run.
    pub out_dir: PathBuf,
}

/// What one workload run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, Stat>,
    pub attempted: u64,
    pub failed: u64,
    /// Every identity the checker demands held (SAM equal across repeats,
    /// simulated counts equal across repeats, warm SAM equal to cold, …).
    pub identities_hold: bool,
    /// Reasons `failed > 0` or an identity broke, for the log.
    pub notes: Vec<String>,
    /// FNV-1a of the batch stage's SAM.
    pub sam_digest: u64,
    /// Mapped records in the batch stage's SAM.
    pub mapped: usize,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.identities_hold
    }

    pub fn break_identity(&mut self, why: String) {
        self.identities_hold = false;
        self.notes.push(why);
    }

    /// Counts the requests of the measured phases that did not end as a
    /// timely `Aligned`.
    pub fn note_requests(&mut self, c: Counts) {
        self.failed += c.not_ok();
        if c.not_ok() > 0 {
            self.notes.push(format!(
                "requests: {} shed, {} late, {} failed of {} sent",
                c.shed, c.late, c.failed, c.sent
            ));
        }
    }
}

/// Runs a `pimalign` child; a non-zero exit is an error carrying the tail
/// of its stderr.
fn pimalign(env: &Env, dir: &Path, args: &[&str], stdout: &str) -> Result<ChildRun, Failure> {
    let stderr = dir.join("stderr.log");
    let run = run_measured(
        Command::new(&env.pimalign).args(args).current_dir(dir),
        &dir.join(stdout),
        &stderr,
    )?;
    if !run.status.success() {
        return Err(format!(
            "pimalign {} failed ({}): {}",
            args.join(" "),
            run.status,
            stderr_tail(&stderr)
        )
        .into());
    }
    Ok(run)
}

/// The arguments of a warm `pimalign` run on `fastq`: the artifact, the
/// reads, one thread, and the workload's strand policy.
fn align_args(workload: &Workload, fastq: &'static str) -> Vec<&'static str> {
    let mut args = vec!["--index", "ref.pimx", fastq, "--threads", "1"];
    if workload.single_strand {
        args.push("--single-strand");
    }
    args
}

pub fn build_index(env: &Env, dir: &Path) -> Result<ChildRun, Failure> {
    let rate = SA_RATE.to_string();
    pimalign(
        env,
        dir,
        &["index", "build", "ref.fa", "ref.pimx", "--sa-rate", &rate],
        "build.out",
    )
}

/// One batch repeat: SAM to `out.sam`, metrics to `metrics.json`.
fn run_batch(env: &Env, dir: &Path, workload: &Workload) -> Result<(ChildRun, Value), Failure> {
    let mut args = align_args(workload, "reads.fq");
    args.extend(["--metrics-out", "metrics.json"]);
    let run = pimalign(env, dir, &args, "out.sam")?;
    let doc = json::parse(&std::fs::read_to_string(dir.join("metrics.json"))?)
        .map_err(|e| format!("metrics.json: {e}"))?;
    Ok((run, doc))
}

pub fn num(doc: &Value, path: &str) -> Result<f64, Failure> {
    doc.get(path)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("metrics document has no number at {path}").into())
}

/// The simulated machine's three headline counts, per read.
fn sim_metrics(doc: &Value, reads: f64) -> Result<[f64; 3], Failure> {
    Ok([
        reads / num(doc, "report.time_s")?,
        num(doc, "breakdown.energy_pj")? / reads / 1_000.0,
        num(doc, "report.lfm_calls")? / reads,
    ])
}

/// Starts `pimserve` on the run's artifact, one worker thread, forward
/// strand only — the serve stage always sends clean forward reads.
///
/// Measured phases run against a queue [`SERVE_QUEUE_DEPTH`] deep: this
/// host stalls for up to half a second at a time, the open loop keeps
/// sending through a stall, and with the default 256 slots the burst that
/// follows is shed — a failure of the host, not of the program.
pub fn start_pimserve(
    env: &Env,
    dir: &Path,
    queue_depth: &str,
    extra: &[&str],
) -> Result<ServeGuard, Failure> {
    let port_file = dir.join("port");
    let mut cmd = Command::new(&env.pimserve);
    cmd.args(["--index", "ref.pimx", "--single-strand", "--threads", "1"])
        .args(["--queue-depth", queue_depth])
        .arg("--port-file")
        .arg(&port_file)
        .args(extra)
        .current_dir(dir)
        .stderr(std::fs::File::create(dir.join("pimserve.log"))?);
    Ok(ServeGuard::start(
        &mut cmd,
        &port_file,
        Duration::from_secs(60),
    )?)
}

pub fn serve_requests(inputs: &Inputs) -> Vec<String> {
    inputs
        .serve_reads
        .iter()
        .map(|r| String::from_utf8(r.seq.clone()).expect("reads are ASCII"))
        .collect()
}

pub fn drain(guard: ServeGuard) -> Result<(), Failure> {
    let status = guard.drain(Duration::from_secs(30))?;
    if !status.success() {
        return Err(format!("pimserve exited with {status} after Drain").into());
    }
    Ok(())
}

struct ServeStage {
    closed_rps: Stat,
    open_p50_ms: Stat,
    open_p90_ms: Stat,
    counts: Counts,
}

fn serve_stage(env: &Env, inputs: &Inputs, share_s: f64) -> Result<ServeStage, Failure> {
    let reads = serve_requests(inputs);
    let round_s = share_s / SERVE_ROUNDS as f64;
    let closed_time = Duration::from_secs_f64(round_s * 0.4).max(MIN_CLOSED);
    let open_time = Duration::from_secs_f64(round_s * 0.5).max(MIN_OPEN);
    let late_limit = Duration::from_secs_f64(LATE_LIMIT_MS / 1e3);
    let mut counts = Counts::default();
    let mut rates: Vec<Sample> = Vec::new();
    let mut p50: Vec<Sample> = Vec::new();
    let mut p90: Vec<Sample> = Vec::new();
    for round in 0..SERVE_ROUNDS {
        let guard = start_pimserve(env, &inputs.dir, SERVE_QUEUE_DEPTH, &[])?;
        loadgen::closed_loop(guard.addr(), &reads, CLOSED_WINDOW, WARM_UP)?;
        let closed = loadgen::closed_loop(guard.addr(), &reads, CLOSED_WINDOW, closed_time)?;
        println!(
            "{}",
            loadgen::phase_line(&format!("closed/{round}"), closed.counts)
        );
        counts.add(closed.counts);
        rates.extend(closed.rates);

        let open = loadgen::open_loop(guard.addr(), &reads, OPEN_RPS, open_time, late_limit)?;
        println!(
            "{}",
            loadgen::phase_line(&format!("open/{round}"), open.counts)
        );
        println!("{}", open.latency_line());
        counts.add(open.counts);
        p50.extend(open.windowed_ms(0.5));
        p90.extend(open.windowed_ms(0.9));
        drain(guard)?;
    }
    if p50.is_empty() {
        return Err("the open loop got no timely Aligned reply".into());
    }
    Ok(ServeStage {
        closed_rps: settle("closed_rps", &rates, MIN_WINDOWS),
        open_p50_ms: settle("open_p50_ms", &p50, MIN_WINDOWS),
        open_p90_ms: settle("open_p90_ms", &p90, MIN_WINDOWS),
        counts,
    })
}

/// Holds the first batch SAM against the reads and the reference, and
/// adds what it finds to the outcome.
fn judge_sam(
    outcome: &mut Outcome,
    workload: &Workload,
    inputs: &Inputs,
    sam: &[u8],
    repeats: u64,
) -> SamVerdict {
    let verdict = check_sam(&String::from_utf8_lossy(sam), &inputs.reads, &inputs.genome);
    // Every repeat produced these same bytes (checked), so each
    // read was attempted, and failed, once per repeat.
    outcome.attempted += verdict.reads as u64 * repeats;
    outcome.failed += verdict.failed as u64 * repeats;
    if let Some(why) = &verdict.first_failure {
        outcome.notes.push(format!("SAM check: {why}"));
    }
    // Error-free forward reads from a random genome: every one must map,
    // and exactly where it was cut.
    let clean = workload.reads.profile == crate::spec::Profile::Clean;
    if clean && (verdict.mapped, verdict.at_truth) != (verdict.reads, verdict.reads) {
        outcome.break_identity(format!(
            "{} of {} clean reads mapped, {} at their true position",
            verdict.mapped, verdict.reads, verdict.at_truth
        ));
    }
    verdict
}

/// One of the three stages that time a `pimalign` child.
struct Lane {
    budget_s: f64,
    spent_s: f64,
    runs: Vec<ChildRun>,
}

impl Lane {
    fn new(budget_s: f64) -> Lane {
        Lane {
            budget_s,
            spent_s: 0.0,
            runs: Vec::new(),
        }
    }

    fn samples(&self, value: impl Fn(&ChildRun) -> f64) -> Vec<Sample> {
        self.runs
            .iter()
            .map(|r| Sample::new(value(r), r.stolen_ticks, r.wall_s))
            .collect()
    }

    /// Until the stage's share of the run is used and [`MIN_REPEATS`]
    /// undisturbed samples are in; a disturbed host may stretch the stage
    /// to [`DISTURBED_STRETCH`] times its share, never past
    /// [`MAX_REPEATS`].
    fn wants_more(&self) -> bool {
        let clean = self
            .samples(|r| r.wall_s)
            .iter()
            .filter(|s| s.undisturbed())
            .count();
        if self.runs.len() >= MAX_REPEATS {
            return false;
        }
        if self.runs.len() < MIN_REPEATS || self.spent_s < self.budget_s {
            return true;
        }
        clean < MIN_REPEATS && self.spent_s < self.budget_s * DISTURBED_STRETCH
    }

    fn push(&mut self, run: ChildRun) {
        self.spent_s += run.wall_s;
        self.runs.push(run);
    }
}

/// Runs one workload end to end with tracing off.
pub fn run(
    workload: &Workload,
    inputs: &Inputs,
    seconds: f64,
    env: &Env,
) -> Result<Outcome, Failure> {
    let dir = &inputs.dir;
    let mut outcome = Outcome {
        identities_hold: true,
        ..Outcome::default()
    };
    let boot_args = align_args(workload, "boot.fq");
    let n_reads = inputs.reads.len() as f64;
    let mut first: Option<(Vec<u8>, [f64; 3], f64)> = None;

    // Setup, boot and batch take turns rather than running as three
    // blocks: this host slows down for seconds at a time, and a stage that
    // ran as one block would sit wholly inside or wholly outside such a
    // spell. Taking turns spreads every stage's samples over the same span.
    const LANES: [Stage; 3] = [Stage::Setup, Stage::Boot, Stage::Batch];
    let mut lanes = LANES.map(|stage| Lane::new(seconds * workload.share(stage)));
    while lanes.iter().any(Lane::wants_more) {
        for stage in LANES {
            if !lanes[stage as usize].wants_more() {
                continue;
            }
            let run = match stage {
                Stage::Setup => build_index(env, dir)?,
                Stage::Boot => pimalign(env, dir, &boot_args, "boot.sam")?,
                Stage::Batch | Stage::Serve => {
                    let (run, doc) = run_batch(env, dir, workload)?;
                    let sam = std::fs::read(dir.join("out.sam"))?;
                    let sim = sim_metrics(&doc, n_reads)?;
                    match &first {
                        None => {
                            let bytes = num(&doc, "index.actual_bytes")?;
                            first = Some((sam, sim, bytes / inputs.genome.len() as f64));
                        }
                        Some((first_sam, first_sim, _)) => {
                            if sam != *first_sam {
                                outcome.break_identity("a repeat wrote a different SAM".to_owned());
                            }
                            if sim.map(f64::to_bits) != first_sim.map(f64::to_bits) {
                                outcome.break_identity(
                                    "a repeat simulated different counts".to_owned(),
                                );
                            }
                        }
                    }
                    run
                }
            };
            lanes[stage as usize].push(run);
        }
    }
    let [setup, boot, batch] = lanes;
    let (sam, sim, bytes_per_bp) = first.expect("at least MIN_REPEATS batches ran");
    let mut children = (setup.runs.len() + boot.runs.len() + batch.runs.len()) as u64;
    let peak_rss = [&setup, &boot, &batch]
        .iter()
        .flat_map(|lane| &lane.runs)
        .fold(0.0f64, |m, r| m.max(r.peak_rss_mb));
    outcome.sam_digest = fnv1a(&sam);
    let verdict = judge_sam(
        &mut outcome,
        workload,
        inputs,
        &sam,
        batch.runs.len() as u64,
    );
    outcome.mapped = verdict.mapped;

    if workload.cold_check {
        // The artifact must change nothing: a cold run that indexes the
        // FASTA itself writes the same SAM.
        let mut args = align_args(workload, "reads.fq");
        args.splice(0..2, ["ref.fa"]);
        pimalign(env, dir, &args, "cold.sam")?;
        children += 1;
        if std::fs::read(dir.join("cold.sam"))? != sam {
            outcome.break_identity("warm-boot SAM differs from the cold run's".to_owned());
        }
    }

    // Serve: `pimserve --index` under the load generator.
    let serve = serve_stage(env, inputs, seconds * workload.share(Stage::Serve))?;
    outcome.attempted += serve.counts.sent + children;
    outcome.note_requests(serve.counts);

    let m = &mut outcome.metrics;
    m.insert(
        "reads_per_s",
        settle(
            "reads_per_s",
            &batch.samples(|r| n_reads / r.wall_s),
            MIN_REPEATS,
        ),
    );
    m.insert("peak_rss_mb", Stat::exact(peak_rss));
    m.insert("sim_reads_per_s", Stat::exact(sim[0]));
    m.insert("sim_nj_per_read", Stat::exact(sim[1]));
    m.insert("sim_lfm_per_read", Stat::exact(sim[2]));
    m.insert("mapped_frac", Stat::exact(verdict.mapped as f64 / n_reads));
    m.insert(
        "setup_s",
        settle("setup_s", &setup.samples(|r| r.wall_s), MIN_REPEATS),
    );
    m.insert("closed_rps", serve.closed_rps);
    m.insert("open_p50_ms", serve.open_p50_ms);
    m.insert("open_p90_ms", serve.open_p90_ms);
    m.insert(
        "index_load_s",
        settle("index_load_s", &boot.samples(|r| r.wall_s), MIN_REPEATS),
    );
    m.insert("index_bytes_per_bp", Stat::exact(bytes_per_bp));
    Ok(outcome)
}
