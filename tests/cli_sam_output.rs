//! Integration: the `pimalign` CLI end to end — FASTA + FASTQ in, SAM
//! out.

use std::process::Command;

use bench::json::{self, Value};

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

#[test]
fn aligns_reads_and_emits_valid_sam() {
    let reference = write_temp(
        "ref.fa",
        ">chrT test\nTGCTAGCATGAACCTTGGAACGTACGTTAGCATCGATCGGATTACAGATTACAGGG\n",
    );
    let reads = write_temp(
        "reads.fq",
        "@exact\nGATTACAGATTACA\n+\nIIIIIIIIIIIIII\n@revcomp\nCGTTCCAAGGTTCA\n+\nIIIIIIIIIIIIII\n@junk\nGGGGGGGGGGGGGG\n+\nIIIIIIIIIIIIII\n",
    );
    let (stdout, stderr, ok) = run_cli(&[
        reference.to_str().unwrap(),
        reads.to_str().unwrap(),
        "--pd",
        "2",
    ]);
    assert!(ok, "CLI failed: {stderr}");

    let lines: Vec<&str> = stdout.lines().collect();
    // Header: @HD, @SQ, @PG.
    assert!(lines[0].starts_with("@HD"));
    assert!(lines[1].contains("SN:chrT") && lines[1].contains("LN:56"));
    assert!(lines[2].starts_with("@PG"));

    // One alignment line per read, tab-separated with >= 11 fields.
    let records: Vec<&str> = lines
        .iter()
        .filter(|l| !l.starts_with('@'))
        .copied()
        .collect();
    assert_eq!(records.len(), 3);
    for r in &records {
        assert!(r.split('\t').count() >= 11, "short SAM line: {r}");
    }
    let exact = records.iter().find(|r| r.starts_with("exact")).unwrap();
    let fields: Vec<&str> = exact.split('\t').collect();
    assert_eq!(fields[1], "0");
    assert_eq!(fields[2], "chrT");
    assert_eq!(fields[4], "60");
    assert_eq!(fields[5], "14M");
    let rev = records.iter().find(|r| r.starts_with("revcomp")).unwrap();
    assert_eq!(rev.split('\t').nth(1), Some("16"));
    let junk = records.iter().find(|r| r.starts_with("junk")).unwrap();
    assert_eq!(junk.split('\t').nth(1), Some("4"));
    assert_eq!(junk.split('\t').nth(2), Some("*"));

    // The performance report lands on stderr.
    assert!(stderr.contains("queries/s"));
    assert!(stderr.contains("2 mapped"));
}

#[test]
fn reverse_mapped_seq_is_the_reference_window() {
    // A 0x10 record's SEQ/QUAL are stored in reference orientation: the
    // emitted SEQ must equal the reference window at POS, and QUAL must
    // be the read's qualities reversed (regression: the pre-fix writer
    // emitted the read as sequenced).
    let ref_seq = "TGCTAGCATGAACCTTGGAACGTACGTTAGCATCGATCGGATTACAGATTACAGGG";
    let reference = write_temp("rev_ref.fa", &format!(">chrT\n{ref_seq}\n"));
    // Reverse complement of reference[8..22], with an asymmetric quality
    // ramp so a missing reversal is visible.
    let reads = write_temp(
        "rev_reads.fq",
        "@revcomp\nCGTTCCAAGGTTCA\n+\nABCDEFGHIJKLMN\n",
    );
    let (stdout, stderr, ok) = run_cli(&[reference.to_str().unwrap(), reads.to_str().unwrap()]);
    assert!(ok, "CLI failed: {stderr}");
    let record = stdout
        .lines()
        .find(|l| l.starts_with("revcomp"))
        .expect("revcomp record");
    let fields: Vec<&str> = record.split('\t').collect();
    assert_eq!(fields[1], "16", "read must map on the reverse strand");
    let pos: usize = fields[3].parse().expect("POS");
    let seq = fields[9];
    let window = &ref_seq[pos - 1..pos - 1 + seq.len()];
    assert_eq!(seq, window, "0x10 SEQ must equal the reference window");
    assert_eq!(
        fields[10], "NMLKJIHGFEDCBA",
        "0x10 QUAL must be the read's qualities reversed"
    );
}

#[test]
fn streamed_chunks_match_single_batch() {
    // --batch-size only bounds memory: the SAM output must be identical
    // whether the reads stream through in chunks of 1 or in one batch,
    // with single or multiple worker threads.
    let ref_seq = "TGCTAGCATGAACCTTGGAACGTACGTTAGCATCGATCGGATTACAGATTACAGGG";
    let reference = write_temp("chunk_ref.fa", &format!(">chrT\n{ref_seq}\n"));
    let reads = write_temp(
        "chunk_reads.fq",
        "@exact\nGATTACAGATTACA\n+\nIIIIIIIIIIIIII\n@revcomp\nCGTTCCAAGGTTCA\n+\nIIIIIIIIIIIIII\n@junk\nGGGGGGGGGGGGGG\n+\nIIIIIIIIIIIIII\n@tail\nTGCTAGCATG\n+\nIIIIIIIIII\n",
    );
    let base = [reference.to_str().unwrap(), reads.to_str().unwrap()];
    let (whole, stderr, ok) = run_cli(&base);
    assert!(ok, "CLI failed: {stderr}");
    for extra in [
        &["--batch-size", "1"][..],
        &["--batch-size", "3"][..],
        &["--batch-size", "1", "--threads", "3"][..],
        &["--threads", "2"][..],
    ] {
        let mut args: Vec<&str> = base.to_vec();
        args.extend_from_slice(extra);
        let (stdout, stderr, ok) = run_cli(&args);
        assert!(ok, "CLI failed with {extra:?}: {stderr}");
        assert_eq!(stdout, whole, "SAM output diverged with {extra:?}");
        assert!(
            stderr.contains("3 mapped"),
            "stderr with {extra:?}: {stderr}"
        );
    }
}

#[test]
fn telemetry_flags_never_touch_the_sam_stream() {
    // --metrics-out and --trace-out write their JSON to files, so stdout
    // stays pure SAM; and collecting host telemetry must not move a
    // single simulated cycle — the metrics `report`/`breakdown` sections
    // are value-identical with and without the trace flags.
    let ref_seq = "TGCTAGCATGAACCTTGGAACGTACGTTAGCATCGATCGGATTACAGATTACAGGG";
    let reference = write_temp("telem_ref.fa", &format!(">chrT\n{ref_seq}\n"));
    let reads = write_temp(
        "telem_reads.fq",
        "@exact\nGATTACAGATTACA\n+\nIIIIIIIIIIIIII\n@revcomp\nCGTTCCAAGGTTCA\n+\nIIIIIIIIIIIIII\n",
    );
    let metrics_untraced = temp_path("telem_m_untraced.json");
    let metrics_traced = temp_path("telem_m_traced.json");
    let trace = temp_path("telem_trace.json");
    let base = [reference.to_str().unwrap(), reads.to_str().unwrap()];

    let (sam_plain, stderr, ok) = run_cli(&base);
    assert!(ok, "plain run failed: {stderr}");

    // --metrics-out alone: no host tracing.
    let mut untraced_args: Vec<&str> = base.to_vec();
    untraced_args.extend_from_slice(&["--metrics-out", metrics_untraced.to_str().unwrap()]);
    let (sam_untraced, stderr, ok) = run_cli(&untraced_args);
    assert!(ok, "--metrics-out run failed: {stderr}");
    assert_eq!(
        sam_untraced, sam_plain,
        "--metrics-out changed the SAM stream"
    );

    // --metrics-out + --trace-out, with tracing live.
    let mut traced_args: Vec<&str> = base.to_vec();
    traced_args.extend_from_slice(&[
        "--metrics-out",
        metrics_traced.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
        "--threads",
        "2",
    ]);
    let (sam_traced, stderr, ok) = run_cli(&traced_args);
    assert!(ok, "--metrics-out/--trace-out run failed: {stderr}");
    assert_eq!(
        sam_traced, sam_plain,
        "telemetry flags changed the SAM stream"
    );

    let doc_untraced = json::parse(&std::fs::read_to_string(&metrics_untraced).unwrap())
        .expect("untraced metrics JSON parses");
    let doc_traced = json::parse(&std::fs::read_to_string(&metrics_traced).unwrap())
        .expect("traced metrics JSON parses");
    // The simulated sections are value-identical across flag shapes and
    // worker counts — only the wall-clock `host` section may differ.
    for section in ["schema_version", "report", "faults", "breakdown"] {
        assert_eq!(
            doc_untraced.get(section),
            doc_traced.get(section),
            "simulated section {section} diverged under tracing"
        );
    }

    // The trace file is a loadable Chrome trace with spans.
    let trace_doc =
        json::parse(&std::fs::read_to_string(&trace).unwrap()).expect("trace JSON parses");
    assert_eq!(
        trace_doc.get("displayTimeUnit").and_then(Value::as_str),
        Some("ms")
    );
    let events = trace_doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents");
    // Only complete spans and metadata, and every span is well-formed.
    let mut complete = 0;
    for (i, event) in events.iter().enumerate() {
        match event.get("ph").and_then(Value::as_str) {
            Some("X") => {
                assert!(
                    event.get("name").and_then(Value::as_str).is_some()
                        && event.get("tid").and_then(Value::as_u64).is_some()
                        && event.get("ts").and_then(Value::as_f64).is_some()
                        && event
                            .get("dur")
                            .and_then(Value::as_f64)
                            .is_some_and(|d| d >= 0.0),
                    "event {i} is not a well-formed complete span"
                );
                complete += 1;
            }
            Some("M") => {}
            other => panic!("event {i} has unexpected phase {other:?}"),
        }
    }
    assert!(complete > 0, "trace has no complete spans");
    // One named track per worker plus the main thread's.
    for want in ["worker-0", "worker-1", "main"] {
        assert!(
            events.iter().any(|e| {
                e.get("ph").and_then(Value::as_str) == Some("M")
                    && e.get("args.name").and_then(Value::as_str) == Some(want)
            }),
            "missing {want} track"
        );
    }
}

/// Like [`run_cli`] but returns the exact exit code — the CLI's error
/// classes are part of its interface (usage = 2, input = 3, runtime = 4).
fn run_cli_code(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pimalign"))
        .args(args)
        .output()
        .expect("run pimalign");
    (
        out.status.code().expect("exit code"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
    )
}

#[test]
fn rejects_bad_usage() {
    let (_, stderr, ok) = run_cli(&["only-one-arg"]);
    assert!(!ok);
    assert!(stderr.contains("usage"));

    let (_, stderr, ok) = run_cli(&["a", "b", "--bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown option"));
}

#[test]
fn usage_errors_exit_2_with_named_flags() {
    for (args, needle) in [
        (&["only-one-arg"][..], "usage"),
        (&["a", "b", "--bogus"][..], "unknown option"),
        (&["a", "b", "--kernel-simd", "auto"][..], "unknown option"),
        (&["a", "b", "--kernel-batch", "8"][..], "unknown option"),
        (&["a", "b", "--pipelined"][..], "unknown option --pipelined"),
        (&["a", "b", "--threads", "0"][..], "--threads"),
        (&["a", "b", "--batch-size", "0"][..], "--batch-size"),
        (&["a", "b", "--batch-size", "65537"][..], "--batch-size"),
        (&["a", "b", "--pd", "0"][..], "--pd"),
        (&["a", "b", "--max-diffs", "99"][..], "--max-diffs"),
        // A fault rate is a probability: outside [0, 1], or NaN, it is a
        // usage error naming its flag, before any campaign is built.
        (&["a", "b", "--fault-xnor", "1.5"][..], "--fault-xnor"),
        (&["a", "b", "--fault-stuck", "-0.1"][..], "--fault-stuck"),
        (
            &["a", "b", "--fault-transient", "nan"][..],
            "--fault-transient",
        ),
        (&["a", "b", "--fault-carry", "2"][..], "--fault-carry"),
        (
            &["index", "build", "a", "b", "--shard-window", "1000"][..],
            "unknown option --shard-window",
        ),
        (
            &["index", "build", "a", "b", "--shard-overlap", "128"][..],
            "unknown option --shard-overlap",
        ),
    ] {
        let (code, stderr) = run_cli_code(args);
        assert_eq!(code, 2, "{args:?} must exit 2 (usage), stderr: {stderr}");
        assert!(stderr.contains(needle), "{args:?} stderr: {stderr}");
    }
    // pimserve shares the exit-code scheme and the parser of the flags
    // both binaries take; flags are parsed before the reference is
    // opened, so no socket is ever bound.
    for (flag, needle) in [
        (
            &["--kernel-simd", "auto"][..],
            "unknown option --kernel-simd",
        ),
        (&["--kernel-batch", "8"], "unknown option --kernel-batch"),
        (&["--pipelined"], "unknown option --pipelined"),
        (&["--pd", "0"], "--pd"),
        (&["--max-diffs", "99"], "--max-diffs"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pimserve"))
            .arg("/nonexistent/ref.fa")
            .args(flag)
            .output()
            .expect("run pimserve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "pimserve stderr: {stderr}");
        assert!(stderr.contains(needle), "pimserve stderr: {stderr}");
    }
}

#[test]
fn rejects_missing_files() {
    let (_, stderr, ok) = run_cli(&["/nonexistent/ref.fa", "/nonexistent/reads.fq"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
}

#[test]
fn input_errors_exit_3() {
    let (code, stderr) = run_cli_code(&["/nonexistent/ref.fa", "/nonexistent/reads.fq"]);
    assert_eq!(
        code, 3,
        "missing files must exit 3 (input), stderr: {stderr}"
    );
    assert!(stderr.contains("cannot read"));
}

#[test]
fn truncated_fastq_exit_3_names_record_and_offset() {
    // The second record is cut off mid-way: the error must carry the
    // 1-based record number and the byte offset of its header so the
    // user can seek straight to the corruption in a multi-gigabyte file.
    let reference = write_temp(
        "trunc_ref.fa",
        ">chrT\nTGCTAGCATGAACCTTGGAACGTACGTTAGCATCGATCGGATTACAGATTACAGGG\n",
    );
    let reads = write_temp(
        "trunc_reads.fq",
        "@ok\nGATTACAGATTACA\n+\nIIIIIIIIIIIIII\n@cut\nGATTACA\n",
    );
    let (code, stderr) = run_cli_code(&[reference.to_str().unwrap(), reads.to_str().unwrap()]);
    assert_eq!(code, 3, "truncated FASTQ must exit 3, stderr: {stderr}");
    assert!(stderr.contains("record 2"), "stderr: {stderr}");
    assert!(stderr.contains("byte offset 36"), "stderr: {stderr}");
}

#[test]
fn closed_stdout_is_a_clean_early_exit() {
    // `pimalign ... | head` closes our stdout after the first lines; the
    // resulting EPIPE must be a silent exit 0, not a runtime error.
    // Enough reads that the BufWriter flushes to the dead pipe mid-run.
    let reference = write_temp(
        "epipe_ref.fa",
        ">chrT\nTGCTAGCATGAACCTTGGAACGTACGTTAGCATCGATCGGATTACAGATTACAGGG\n",
    );
    let mut fastq = String::new();
    for i in 0..400 {
        fastq.push_str(&format!("@r{i}\nGATTACAGATTACA\n+\nIIIIIIIIIIIIII\n"));
    }
    let reads = write_temp("epipe_reads.fq", &fastq);

    let mut child = Command::new(env!("CARGO_BIN_EXE_pimalign"))
        .args([reference.to_str().unwrap(), reads.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn pimalign");
    // Close the read end immediately: every SAM flush past the pipe
    // buffer now raises EPIPE/BrokenPipe inside the CLI.
    drop(child.stdout.take());
    let status = child.wait().expect("wait for pimalign");
    assert_eq!(
        status.code(),
        Some(0),
        "a closed SAM pipe must be a clean exit, not an error"
    );
}
