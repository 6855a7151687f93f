//! Integration: the serialised index artifact end to end through the
//! `pimalign` CLI.
//!
//! `pimalign index build` must produce an artifact that `pimalign
//! --index` boots into the *same* platform the FASTA path builds
//! in-process: byte-identical SAM and identical simulated-cycle and
//! fault counters — across 8 worker threads with faults off, and under
//! seeded fault injection on the deterministic sequential stream. A
//! sharded artifact must align to the same SAM as the unsharded
//! platform — and, under a fault campaign, to the same SAM and fault
//! telemetry at any `--threads` — and `index inspect` must report the
//! artifact's geometry.

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
/// unmappable reads, so shard merging and fault recovery both fire.
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

/// Runs the cold (FASTA) and warm (`--index`) paths with identical
/// engine flags and asserts byte-identical SAM plus identical simulated
/// counters; returns the two metrics documents for extra checks.
fn assert_cold_warm_identical(
    ref_fa: &std::path::Path,
    reads_fq: &std::path::Path,
    artifact: &std::path::Path,
    engine_flags: &[&str],
    label: &str,
) -> (Value, Value) {
    let cold_metrics = temp_path(&format!("{label}_cold.json"));
    let warm_metrics = temp_path(&format!("{label}_warm.json"));

    let mut cold_args = vec![ref_fa.to_str().unwrap(), reads_fq.to_str().unwrap()];
    cold_args.extend_from_slice(engine_flags);
    cold_args.extend_from_slice(&["--metrics-out", cold_metrics.to_str().unwrap()]);
    let (cold_sam, stderr, ok) = run_cli(&cold_args);
    assert!(ok, "{label}: cold run failed: {stderr}");

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
    (cold, warm)
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
    let (cold, warm) =
        assert_cold_warm_identical(&ref_fa, &reads_fq, &artifact, &["--threads", "8"], "clean8");

    // Provenance: only the warm run reports a loaded index; geometry and
    // footprint agree with the cold build.
    assert_eq!(
        cold.get("index.loaded").and_then(Value::as_bool),
        Some(false)
    );
    assert_eq!(
        warm.get("index.loaded").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(counter(&warm, "index.shards"), 1);
    assert_eq!(
        counter(&cold, "index.actual_bytes"),
        counter(&warm, "index.actual_bytes")
    );

    // Seeded faults: every alignment-time draw is keyed by the read's
    // global index, so a faulted run replays bit-identically from the
    // artifact at any worker count, not only the sequential one.
    for threads in ["1", "8"] {
        let (cold, _) = assert_cold_warm_identical(
            &ref_fa,
            &reads_fq,
            &artifact,
            &[
                "--threads",
                threads,
                "--fault-seed",
                "42",
                "--fault-xnor",
                "0.002",
                "--fault-transient",
                "0.001",
            ],
            &format!("faulted{threads}"),
        );
        assert!(
            counter(&cold, "faults.xnor_bit_flips") > 0,
            "faults must fire"
        );
    }
}

#[test]
fn sharded_artifact_aligns_to_the_unsharded_sam() {
    let (reference, fastq) = fixture();
    let ref_fa = write_temp("shard_ref.fa", &format!(">chrA\n{reference}\n"));
    let reads_fq = write_temp("shard_reads.fq", &fastq);
    let artifact = temp_path("shard.pimx");
    let metrics = temp_path("shard.json");

    let (flat_sam, stderr, ok) = run_cli(&[
        ref_fa.to_str().unwrap(),
        reads_fq.to_str().unwrap(),
        "--threads",
        "4",
    ]);
    assert!(ok, "unsharded run failed: {stderr}");

    let (_, stderr, ok) = run_cli(&[
        "index",
        "build",
        ref_fa.to_str().unwrap(),
        artifact.to_str().unwrap(),
        "--shard-window",
        "1000",
        "--shard-overlap",
        "128",
    ]);
    assert!(ok, "sharded index build failed: {stderr}");

    let (sharded_sam, stderr, ok) = run_cli(&[
        "--index",
        artifact.to_str().unwrap(),
        reads_fq.to_str().unwrap(),
        "--threads",
        "4",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert!(ok, "sharded run failed: {stderr}");

    assert_eq!(
        flat_sam, sharded_sam,
        "sharded SAM diverged from the unsharded platform"
    );
    let doc =
        json::parse(&std::fs::read_to_string(&metrics).expect("metrics")).expect("metrics JSON");
    assert_eq!(counter(&doc, "index.shards"), 4);
    assert_eq!(counter(&doc, "index.shard_window"), 1000);
    assert_eq!(counter(&doc, "index.shard_overlap"), 128);
}

/// Faults on a sharded platform: every shard draws each read's faults
/// from the stream keyed by the read's global index, whichever worker
/// aligns it, and reads its own seed table without a draw — so SAM, the
/// stderr telemetry and the simulated counters repeat byte for byte at
/// every worker count.
#[test]
fn sharded_artifact_replays_itself_under_faults_at_any_threads() {
    let reference = genome::uniform(9_000, 0x5eed);
    let mut fastq = String::new();
    for i in 0..10 {
        let start = (i * 877) % (reference.len() - 64);
        let mut read = reference.subseq(start..start + 64);
        if i % 3 == 1 {
            read = read.reverse_complement();
        }
        writeln!(fastq, "@read{i}\n{read}\n+\n{}", "I".repeat(64)).expect("format fastq");
    }
    let ref_fa = write_temp("shardfault_ref.fa", &format!(">chrA\n{reference}\n"));
    let reads_fq = write_temp("shardfault_reads.fq", &fastq);
    let artifact = temp_path("shardfault.pimx");
    let (_, stderr, ok) = run_cli(&[
        "index",
        "build",
        ref_fa.to_str().unwrap(),
        artifact.to_str().unwrap(),
        "--shard-window",
        "3000",
        "--shard-overlap",
        "128",
    ]);
    assert!(ok, "sharded index build failed: {stderr}");
    // Shards of 3 128 and 3 000 bases: each derives a four-level table
    // (three while it held a pair of u32s an entry, one while it took
    // N/64 bytes).
    assert!(stderr.contains("3 shard(s)"), "{stderr}");
    assert!(stderr.contains("seed depth 4"), "{stderr}");

    let run = |threads: &str| {
        let metrics = temp_path(&format!("shardfault_{threads}.json"));
        let (sam, stderr, ok) = run_cli(&[
            "--index",
            artifact.to_str().unwrap(),
            reads_fq.to_str().unwrap(),
            "--threads",
            threads,
            "--fault-seed",
            "42",
            "--fault-xnor",
            "0.002",
            "--fault-transient",
            "0.001",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ]);
        assert!(ok, "--threads {threads} failed: {stderr}");
        let doc = json::parse(&std::fs::read_to_string(&metrics).expect("metrics"))
            .expect("metrics JSON");
        let telemetry: Vec<String> = stderr
            .lines()
            .filter(|l| l.contains("faults injected") || l.contains("recovery:"))
            .map(str::to_owned)
            .collect();
        assert_eq!(telemetry.len(), 2, "fault telemetry lines in: {stderr}");
        (sam, telemetry, doc)
    };
    let (sam, telemetry, doc) = run("1");
    assert!(
        counter(&doc, "faults.xnor_bit_flips") > 0,
        "faults must fire"
    );
    assert_eq!(counter(&doc, "index.shards"), 3);
    for threads in ["2", "8"] {
        let (other_sam, other_telemetry, other_doc) = run(threads);
        let at = format!("--threads {threads}");
        assert!(other_sam == sam, "{at}: SAM diverged");
        assert_eq!(other_telemetry, telemetry, "{at}: fault telemetry diverged");
        for path in SIMULATED_COUNTERS {
            assert_eq!(
                counter(&other_doc, path),
                counter(&doc, path),
                "{at}: {path}"
            );
        }
    }
}

/// An artifact whose shard is a `PIMFMI3` stream — one written before the
/// sampled suffix array's values were packed at their width — is refused as
/// input (exit 3) by both binaries, with its version and what to run.
#[test]
fn a_previous_format_artifact_exits_3_and_says_to_rebuild() {
    use pim_aligner_suite::fmindex::io as fm_io;
    let (reference, fastq) = fixture();
    let ref_fa = write_temp("v3_ref.fa", &format!(">chrA\n{reference}\n"));
    let reads_fq = write_temp("v3_reads.fq", &fastq);
    let artifact = temp_path("v3.pimx");
    let (_, stderr, ok) = run_cli(&[
        "index",
        "build",
        ref_fa.to_str().unwrap(),
        artifact.to_str().unwrap(),
        "--sa-rate",
        "8",
    ]);
    assert!(ok, "index build failed: {stderr}");
    // Write the shard stream's magic back one version and re-seal the
    // container: the loader must refuse the version before the layout.
    let mut raw = std::fs::read(&artifact).expect("read artifact");
    let at = (0..raw.len() - 8)
        .find(|&at| &raw[at..at + 8] == fm_io::MAGIC)
        .expect("one shard stream");
    raw[at..at + 8].copy_from_slice(b"PIMFMI3\n");
    let body_end = raw.len() - 8;
    let digest = fm_io::fnv1a(&raw[8..body_end]);
    raw[body_end..].copy_from_slice(&digest.to_le_bytes());
    std::fs::write(&artifact, &raw).expect("write the v3 artifact");

    for (binary, args) in [
        (
            env!("CARGO_BIN_EXE_pimalign"),
            vec![
                "--index",
                artifact.to_str().unwrap(),
                reads_fq.to_str().unwrap(),
            ],
        ),
        (
            env!("CARGO_BIN_EXE_pimserve"),
            vec!["--index", artifact.to_str().unwrap()],
        ),
    ] {
        let out = Command::new(binary).args(&args).output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{binary}: {stderr}");
        for needle in [
            "format version 3",
            "reads version 4",
            "pimalign index build",
        ] {
            assert!(
                stderr.contains(needle),
                "{binary}: no `{needle}` in {stderr}"
            );
        }
        assert!(!stderr.contains("corrupt"), "{binary}: {stderr}");
    }
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
    assert_eq!(field("shards"), "1");
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
