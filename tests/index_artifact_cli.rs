//! Integration: the serialised index artifact end to end through the
//! `pimalign` CLI.
//!
//! `pimalign index build` must produce an artifact that `pimalign
//! --index` boots into the *same* platform the FASTA path builds
//! in-process: byte-identical SAM and identical simulated-cycle and
//! fault counters — across 8 worker threads with faults off, and under a
//! seeded fault campaign at any `--threads`, traced or not — and `index
//! inspect` must report the artifact's geometry. An artifact the loader
//! cannot use is an input error (exit 3) that says to rebuild it.

use std::fmt::Write as _;
use std::process::Command;

use bench::json::{self, Value};
use pim_aligner_suite::bioseq::{Base, DnaSeq};
use pim_aligner_suite::readsim::genome;

mod support;
use support::{temp_path, write_temp};

fn run_cli(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_pimalign"))
        .args(args)
        .output()
        .expect("run pimalign");
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
        out.status.success(),
    )
}

/// A deterministic 4 kbp reference and a read set covering every
/// alignment arm: exact, mismatched (inexact), reverse-complement and
/// unmappable reads, so every outcome arm and fault recovery fire.
fn fixture() -> (DnaSeq, String) {
    let reference = genome::uniform(4_000, 0xf1e1d);
    let mut fastq = String::new();
    for i in 0..40 {
        let start = (i * 97) % (reference.len() - 64);
        let mut read = reference.subseq(start..start + 64);
        match i % 4 {
            1 => {
                // One substitution mid-read: the inexact stage must place it.
                let mut mutated = read.as_slice().to_vec();
                mutated[32] = match mutated[32] {
                    Base::A => Base::C,
                    Base::C => Base::G,
                    Base::G => Base::T,
                    Base::T => Base::A,
                };
                read = DnaSeq::from_bases(mutated);
            }
            2 => read = read.reverse_complement(),
            3 if i % 8 == 7 => {
                // Unmappable: alternating dinucleotide absent from the
                // uniform genome at this length is unlikely; force junk.
                read = "GC".repeat(32).parse().expect("junk read");
            }
            _ => {}
        }
        writeln!(fastq, "@read{i}\n{read}\n+\n{}", "I".repeat(64)).expect("format fastq");
    }
    (reference, fastq)
}

fn counter(doc: &Value, path: &str) -> u64 {
    doc.get(path)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing or non-integer {path}"))
}

/// The simulated (machine-independent) counters that must not move
/// between a cold in-process build and a warm artifact boot.
const SIMULATED_COUNTERS: &[&str] = &[
    "report.queries",
    "report.lfm_calls",
    "breakdown.total_busy_cycles",
    "breakdown.primitive_cycles_total",
    "breakdown.subarray_activations",
    "breakdown.index_build_cycles",
    "breakdown.lfm_by_phase.exact",
    "breakdown.lfm_by_phase.inexact",
    "breakdown.lfm_by_phase.recovery_retry",
    "breakdown.lfm_by_phase.recovery_escalate",
    "faults.xnor_bit_flips",
    "faults.transient_row_faults",
    "faults.retries",
    "faults.escalations",
    "faults.host_fallbacks",
    "faults.unrecoverable",
    "faults.verifications",
    "faults.verify_failures",
];

/// What a cold run and its warm replay left behind: both metrics
/// documents, and the warm run's SAM and stderr fault-telemetry lines.
struct ColdWarm {
    cold: Value,
    warm: Value,
    sam: String,
    fault_lines: Vec<String>,
}

/// The two `pimalign` stderr lines a fault campaign prints.
fn fault_lines(stderr: &str) -> Vec<String> {
    stderr
        .lines()
        .filter(|l| l.contains("faults injected") || l.contains("recovery:"))
        .map(str::to_owned)
        .collect()
}

/// Runs the cold (FASTA) and warm (`--index`) paths with identical
/// engine flags and asserts byte-identical SAM plus identical simulated
/// counters and fault telemetry.
fn assert_cold_warm_identical(
    ref_fa: &std::path::Path,
    reads_fq: &std::path::Path,
    artifact: &std::path::Path,
    engine_flags: &[&str],
    label: &str,
) -> ColdWarm {
    let cold_metrics = temp_path(&format!("{label}_cold.json"));
    let warm_metrics = temp_path(&format!("{label}_warm.json"));

    let mut cold_args = vec![ref_fa.to_str().unwrap(), reads_fq.to_str().unwrap()];
    cold_args.extend_from_slice(engine_flags);
    cold_args.extend_from_slice(&["--metrics-out", cold_metrics.to_str().unwrap()]);
    let (cold_sam, cold_stderr, ok) = run_cli(&cold_args);
    assert!(ok, "{label}: cold run failed: {cold_stderr}");

    let mut warm_args = vec![
        "--index",
        artifact.to_str().unwrap(),
        reads_fq.to_str().unwrap(),
    ];
    warm_args.extend_from_slice(engine_flags);
    warm_args.extend_from_slice(&["--metrics-out", warm_metrics.to_str().unwrap()]);
    let (warm_sam, stderr, ok) = run_cli(&warm_args);
    assert!(ok, "{label}: warm run failed: {stderr}");
    assert!(
        stderr.contains("index: loaded"),
        "{label}: warm run must announce the loaded artifact: {stderr}"
    );

    assert_eq!(
        cold_sam, warm_sam,
        "{label}: warm-boot SAM diverged from the in-process build"
    );
    assert_eq!(
        fault_lines(&cold_stderr),
        fault_lines(&stderr),
        "{label}: fault telemetry moved across the serialisation boundary"
    );

    let cold = json::parse(&std::fs::read_to_string(&cold_metrics).expect("cold metrics"))
        .expect("cold metrics JSON");
    let warm = json::parse(&std::fs::read_to_string(&warm_metrics).expect("warm metrics"))
        .expect("warm metrics JSON");
    for path in SIMULATED_COUNTERS {
        assert_eq!(
            counter(&cold, path),
            counter(&warm, path),
            "{label}: simulated counter {path} moved across the serialisation boundary"
        );
    }
    ColdWarm {
        cold,
        warm,
        sam: warm_sam,
        fault_lines: fault_lines(&stderr),
    }
}

#[test]
fn warm_boot_replays_the_cold_build_bit_identically() {
    let (reference, fastq) = fixture();
    let ref_fa = write_temp("warm_ref.fa", &format!(">chrA\n{reference}\n"));
    let reads_fq = write_temp("warm_reads.fq", &fastq);
    let artifact = temp_path("warm.pimx");

    let (_, stderr, ok) = run_cli(&[
        "index",
        "build",
        ref_fa.to_str().unwrap(),
        artifact.to_str().unwrap(),
    ]);
    assert!(ok, "index build failed: {stderr}");
    // The summary says where the process's time went, stage by stage.
    for stage in [" parse ", " build ", " save "] {
        assert!(stderr.contains(stage), "no `{stage}` in: {stderr}");
    }

    // Faults off, 8 threads: dynamic partitioning must not cost a byte
    // (the engine's thread-invariance guarantee, here asserted across
    // the serialisation boundary).
    let ColdWarm { cold, warm, .. } =
        assert_cold_warm_identical(&ref_fa, &reads_fq, &artifact, &["--threads", "8"], "clean8");

    // Provenance: only the warm run reports a loaded index; the
    // footprint agrees with the cold build.
    assert_eq!(
        cold.get("index.loaded").and_then(Value::as_bool),
        Some(false)
    );
    assert_eq!(
        warm.get("index.loaded").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(
        counter(&cold, "index.actual_bytes"),
        counter(&warm, "index.actual_bytes")
    );

    // Seeded faults: every alignment-time draw is keyed by the read's
    // global index, so a faulted run replays bit-identically from the
    // artifact at any worker count, and the warm runs agree with each
    // other in SAM, fault telemetry and every simulated counter.
    let faults = [
        "--fault-seed",
        "42",
        "--fault-xnor",
        "0.002",
        "--fault-transient",
        "0.001",
    ];
    let mut first: Option<ColdWarm> = None;
    for threads in ["1", "2", "8"] {
        let mut flags = vec!["--threads", threads];
        flags.extend_from_slice(&faults);
        let run = assert_cold_warm_identical(
            &ref_fa,
            &reads_fq,
            &artifact,
            &flags,
            &format!("faulted{threads}"),
        );
        assert_eq!(run.fault_lines.len(), 2, "faulted{threads}: fault lines");
        let Some(base) = &first else {
            assert!(
                counter(&run.cold, "faults.xnor_bit_flips") > 0,
                "faults must fire"
            );
            first = Some(run);
            continue;
        };
        let at = format!("--threads {threads}");
        assert!(run.sam == base.sam, "{at}: warm SAM diverged");
        assert_eq!(run.fault_lines, base.fault_lines, "{at}: fault telemetry");
        for path in SIMULATED_COUNTERS {
            assert_eq!(
                counter(&run.warm, path),
                counter(&base.warm, path),
                "{at}: {path}"
            );
        }
    }

    // A traced warm run writes its trace and leaves the SAM as it was.
    let base = first.expect("the faulted runs ran");
    let trace = temp_path("warm_trace.json");
    let mut args = vec![
        "--index",
        artifact.to_str().unwrap(),
        reads_fq.to_str().unwrap(),
        "--threads",
        "2",
        "--trace-out",
        trace.to_str().unwrap(),
    ];
    args.extend_from_slice(&faults);
    let (sam, stderr, ok) = run_cli(&args);
    assert!(ok, "traced warm run failed: {stderr}");
    assert!(sam == base.sam, "tracing moved the warm SAM");
    assert_eq!(fault_lines(&stderr), base.fault_lines);
    let doc =
        json::parse(&std::fs::read_to_string(&trace).expect("trace written")).expect("trace JSON");
    let events = doc.get("traceEvents").and_then(Value::as_array);
    assert!(
        events.is_some_and(|e| !e.is_empty()),
        "the trace holds no events"
    );
}

/// An artifact of the previous format — `PIMAIX1`, which framed the
/// index in a second magic and checksum — is refused as input (exit 3)
/// by both binaries, with its version and what to run, before any of its
/// layout is read.
#[test]
fn a_previous_format_artifact_exits_3_and_says_to_rebuild() {
    let (reference, fastq) = fixture();
    let ref_fa = write_temp("v1_ref.fa", &format!(">chrA\n{reference}\n"));
    let reads_fq = write_temp("v1_reads.fq", &fastq);
    let artifact = temp_path("v1.pimx");
    let (_, stderr, ok) = run_cli(&[
        "index",
        "build",
        ref_fa.to_str().unwrap(),
        artifact.to_str().unwrap(),
        "--sa-rate",
        "8",
    ]);
    assert!(ok, "index build failed: {stderr}");
    let mut raw = std::fs::read(&artifact).expect("read artifact");
    raw[..8].copy_from_slice(b"PIMAIX1\n");
    std::fs::write(&artifact, &raw).expect("write the v1 artifact");

    for stderr in boot_both_expecting_exit_3(&artifact, &reads_fq) {
        for needle in [
            "format version 1",
            "reads version 2",
            "pimalign index build",
        ] {
            assert!(stderr.contains(needle), "no `{needle}` in {stderr}");
        }
        assert!(!stderr.contains("corrupt"), "{stderr}");
    }
}

/// An artifact written while the reference could be split into windows —
/// a `PIMAIX1` header whose SA-rate and four geometry fields describe four
/// 1 000-base windows overlapping by 4, the trailer re-sealed — is refused
/// as input (exit 3) by both binaries by its version, with what to run,
/// and never reported as corrupt.
#[test]
fn a_sharded_artifact_exits_3_and_says_to_rebuild() {
    use pim_aligner_suite::fmindex::io as fm_io;
    let (reference, fastq) = fixture();
    let ref_fa = write_temp("sharded_ref.fa", &format!(">chrA\n{reference}\n"));
    let reads_fq = write_temp("sharded_reads.fq", &fastq);
    let artifact = temp_path("sharded.pimx");
    let (_, stderr, ok) = run_cli(&[
        "index",
        "build",
        ref_fa.to_str().unwrap(),
        artifact.to_str().unwrap(),
    ]);
    assert!(ok, "index build failed: {stderr}");
    // Magic, name length, "chrA", reference length and 1 000 packed
    // bytes; the version-1 header fields followed them.
    let raw = std::fs::read(&artifact).expect("read artifact");
    let header_end = 8 + 8 + 4 + 8 + 1_000;
    let mut sharded = b"PIMAIX1\n".to_vec();
    sharded.extend_from_slice(&raw[8..header_end]);
    sharded.extend_from_slice(&1u32.to_le_bytes());
    for field in [1_000u64, 4, 4, 0] {
        sharded.extend_from_slice(&field.to_le_bytes());
    }
    sharded.extend_from_slice(&raw[header_end..raw.len() - 8]);
    let digest = fm_io::fnv1a(&sharded[8..]);
    sharded.extend_from_slice(&digest.to_le_bytes());
    std::fs::write(&artifact, &sharded).expect("write the sharded artifact");

    for stderr in boot_both_expecting_exit_3(&artifact, &reads_fq) {
        for needle in ["format version 1", "pimalign index build"] {
            assert!(stderr.contains(needle), "no `{needle}` in {stderr}");
        }
        assert!(!stderr.contains("corrupt"), "{stderr}");
    }
}

/// Boots `pimalign --index` and `pimserve --index` from `artifact`,
/// asserts each exits 3, and returns their stderr.
fn boot_both_expecting_exit_3(
    artifact: &std::path::Path,
    reads_fq: &std::path::Path,
) -> Vec<String> {
    let artifact = artifact.to_str().unwrap();
    [
        (
            env!("CARGO_BIN_EXE_pimalign"),
            vec!["--index", artifact, reads_fq.to_str().unwrap()],
        ),
        (env!("CARGO_BIN_EXE_pimserve"), vec!["--index", artifact]),
    ]
    .into_iter()
    .map(|(binary, args)| {
        let out = Command::new(binary).args(&args).output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(3), "{binary}: {stderr}");
        stderr
    })
    .collect()
}

#[test]
fn inspect_reports_geometry_and_budget_picks_a_sampled_rate() {
    let (reference, _) = fixture();
    let ref_fa = write_temp("inspect_ref.fa", &format!(">chrA\n{reference}\n"));
    let artifact = temp_path("inspect.pimx");

    // A budget below the full-SA footprint must force a sampled rate.
    let (_, stderr, ok) = run_cli(&[
        "index",
        "build",
        ref_fa.to_str().unwrap(),
        artifact.to_str().unwrap(),
        "--index-memory-budget",
        "12K",
    ]);
    assert!(ok, "budgeted index build failed: {stderr}");

    let (stdout, stderr, ok) = run_cli(&["index", "inspect", artifact.to_str().unwrap()]);
    assert!(ok, "inspect failed: {stderr}");
    let field = |name: &str| -> String {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name}: ")))
            .unwrap_or_else(|| panic!("inspect output missing {name}:\n{stdout}"))
            .to_owned()
    };
    assert_eq!(field("bases"), "4000");
    assert!(!stdout.contains("shard"), "{stdout}");
    let rate: u32 = field("sa_rate").parse().expect("numeric sa_rate");
    assert!(
        rate > 1,
        "12K budget must force SA sampling, got rate {rate}"
    );
    let bytes: u64 = field("index_bytes").parse().expect("numeric index_bytes");
    assert!(bytes <= 12 * 1024, "budgeted artifact overshot: {bytes}");
    // 4 001 rows hold a four-level seed table, 257 boundaries of 12 bits,
    // counted in the footprint and derived when the artifact is mapped
    // (three levels, 84 8-byte entries and 672 bytes, while every entry
    // was a pair of u32s; one level, 32 bytes, while the table took N/64
    // bytes).
    assert_eq!(field("seed_depth"), "4");
    assert_eq!(field("seed_bytes"), "386");
    // Rate 2 keeps `v / 2` of every even position, up to 2 000: 11 bits.
    assert_eq!(rate, 2);
    assert_eq!(field("sa_value_bits"), "11");
    assert_eq!(field("model_bytes"), field("index_bytes"));
    assert_eq!(field("checksum"), "ok");

    // Corruption must be caught by the trailing checksum on load.
    let mut raw = std::fs::read(&artifact).expect("read artifact");
    let mid = raw.len() / 2;
    raw[mid] ^= 0x40;
    std::fs::write(&artifact, &raw).expect("corrupt artifact");
    let (_, stderr, ok) = run_cli(&["index", "inspect", artifact.to_str().unwrap()]);
    assert!(!ok, "inspect must reject a corrupted artifact");
    assert!(
        stderr.contains("checksum") || stderr.contains("corrupt"),
        "corruption error must name the cause: {stderr}"
    );
}

/// A FASTA whose one record has no bases is an input error for `index
/// build` (exit 3, no backtrace): an artifact of no bases could not be
/// loaded back, and no file is written.
#[test]
fn an_empty_reference_exits_3_and_writes_no_artifact() {
    let ref_fa = write_temp("empty_ref.fa", ">chrEmpty\n");
    let artifact = temp_path("empty.pimx");
    let out = Command::new(env!("CARGO_BIN_EXE_pimalign"))
        .args(["index", "build", ref_fa.to_str().unwrap()])
        .arg(artifact.to_str().unwrap())
        .output()
        .expect("run pimalign");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert_eq!(
        stderr.trim_end(),
        format!("pimalign: {}: no bases to index", ref_fa.display())
    );
    assert!(!artifact.exists(), "an artifact was written");
}

/// The same empty FASTA is refused with the same exit code and message
/// by every entry point that boots a platform: cold `pimalign`, with or
/// without a memory budget, and `pimserve`, which binds no socket.
#[test]
fn an_empty_reference_exits_3_from_every_entry_point() {
    let ref_fa = write_temp("empty_boot_ref.fa", ">chrEmpty\n");
    let reads = write_temp("empty_boot_reads.fq", "@r\nACGT\n+\nIIII\n");
    let message = format!("{}: no bases to index", ref_fa.display());
    let (reference, reads) = (ref_fa.to_str().unwrap(), reads.to_str().unwrap());
    for args in [
        &[reference, reads][..],
        &["--index-memory-budget", "1M", reference, reads],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pimalign"))
            .args(args)
            .output()
            .expect("run pimalign");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{args:?}: {stderr}");
        assert_eq!(stderr.trim_end(), format!("pimalign: {message}"));
        assert!(out.stdout.is_empty(), "{args:?} wrote SAM");
    }

    let port_file = temp_path("empty_boot.port");
    let mut server = Command::new(env!("CARGO_BIN_EXE_pimserve"))
        .args([reference, "--port-file", port_file.to_str().unwrap()])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("run pimserve");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let status = loop {
        if let Some(status) = server.try_wait().expect("poll pimserve") {
            break status;
        }
        if std::time::Instant::now() > deadline {
            server.kill().expect("kill pimserve");
            server.wait().expect("reap pimserve");
            panic!("pimserve served an empty reference");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut server.stderr.take().unwrap(), &mut stderr)
        .expect("read pimserve stderr");
    assert_eq!(status.code(), Some(3), "{stderr}");
    assert!(stderr.contains(&format!("message={message:?}")), "{stderr}");
    assert!(!port_file.exists(), "pimserve bound a socket");
}
