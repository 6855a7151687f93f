//! Regression: with faults off, the worker-thread count must not change
//! a single output byte — an 8-thread run produces SAM identical to the
//! 1-thread run. The parallel engine partitions reads dynamically, so
//! this pins the merge path (per-read results reassembled in input
//! order) against the packed-kernel hot path.

use std::fmt::Write as _;
use std::process::Command;

mod support;
use support::write_temp;

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

/// Deterministic xorshift64 — the test must generate the same workload
/// on every run and platform.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

fn revcomp(read: &str) -> String {
    read.chars()
        .rev()
        .map(|c| match c {
            'A' => 'T',
            'T' => 'A',
            'C' => 'G',
            'G' => 'C',
            other => other,
        })
        .collect()
}

#[test]
fn eight_threads_emit_byte_identical_sam_to_one_thread() {
    let mut rng = Rng(0x5eed_cafe);
    let genome: String = (0..4_000)
        .map(|_| ['A', 'C', 'G', 'T'][(rng.next() % 4) as usize])
        .collect();
    let reference = write_temp("ref.fa", &format!(">chrI\n{genome}\n"));

    // 48 reads: forward windows, reverse-complement windows, and a few
    // unmappable poly-A junk reads, so every SAM record shape appears.
    let mut fastq = String::new();
    for i in 0..48u64 {
        let read = match i % 4 {
            3 => "A".repeat(24),
            kind => {
                let start = (rng.next() as usize) % (genome.len() - 32);
                let window = &genome[start..start + 24];
                if kind == 2 {
                    revcomp(window)
                } else {
                    window.to_owned()
                }
            }
        };
        writeln!(fastq, "@r{i}\n{read}\n+\n{}", "I".repeat(read.len())).unwrap();
    }
    let reads = write_temp("reads.fq", &fastq);

    let base = [reference.to_str().unwrap(), reads.to_str().unwrap()];
    let mut single: Vec<&str> = base.to_vec();
    single.extend_from_slice(&["--threads", "1"]);
    let (sam_1t, stderr, ok) = run_cli(&single);
    assert!(ok, "1-thread run failed: {stderr}");
    assert!(sam_1t.lines().count() > 48, "SAM looks truncated");

    let mut eight: Vec<&str> = base.to_vec();
    eight.extend_from_slice(&["--threads", "8"]);
    let (sam_8t, stderr, ok) = run_cli(&eight);
    assert!(ok, "8-thread run failed: {stderr}");

    assert_eq!(
        sam_8t, sam_1t,
        "8-thread SAM diverged from the 1-thread run"
    );

    // --progress streams to stderr only: with it on (any thread count)
    // the SAM bytes are still identical.
    let mut progress: Vec<&str> = base.to_vec();
    progress.extend_from_slice(&["--threads", "8", "--progress"]);
    let (sam_progress, stderr, ok) = run_cli(&progress);
    assert!(ok, "--progress run failed: {stderr}");
    assert_eq!(sam_progress, sam_1t, "--progress changed the SAM stream");

    // The interleaved batch kernel is a pure host-side change: every
    // --kernel-batch × --threads combination must reproduce the same
    // bytes (batch 1 is the single-read path).
    for (batch, threads) in [("1", "1"), ("1", "8"), ("8", "1"), ("8", "8")] {
        let mut combo: Vec<&str> = base.to_vec();
        combo.extend_from_slice(&["--threads", threads, "--kernel-batch", batch]);
        let (sam_combo, stderr, ok) = run_cli(&combo);
        assert!(
            ok,
            "--kernel-batch {batch} --threads {threads} failed: {stderr}"
        );
        assert_eq!(
            sam_combo, sam_1t,
            "--kernel-batch {batch} --threads {threads} diverged"
        );
    }
}

#[test]
fn kernel_batch_and_threads_invariant_under_seeded_faults() {
    // Under a seeded fault campaign the per-read fault streams are keyed
    // by global read index, so neither the kernel batch width nor the
    // worker count may change a byte of the SAM stream.
    let mut rng = Rng(0xfa17_5eed);
    let genome: String = (0..3_000)
        .map(|_| ['A', 'C', 'G', 'T'][(rng.next() % 4) as usize])
        .collect();
    let reference = write_temp("fault_ref.fa", &format!(">chrF\n{genome}\n"));
    let mut fastq = String::new();
    for i in 0..32u64 {
        let read = if i % 5 == 4 {
            "A".repeat(20)
        } else {
            let start = (rng.next() as usize) % (genome.len() - 28);
            genome[start..start + 24].to_owned()
        };
        writeln!(fastq, "@f{i}\n{read}\n+\n{}", "I".repeat(read.len())).unwrap();
    }
    let reads = write_temp("fault_reads.fq", &fastq);

    let fault_args = [
        "--fault-seed",
        "77",
        "--fault-xnor",
        "0.003",
        "--fault-transient",
        "0.001",
        "--fault-carry",
        "0.001",
    ];
    let run = |batch: &str, threads: &str| {
        let mut args = vec![reference.to_str().unwrap(), reads.to_str().unwrap()];
        args.extend_from_slice(&fault_args);
        args.extend_from_slice(&["--kernel-batch", batch, "--threads", threads]);
        let (sam, stderr, ok) = run_cli(&args);
        assert!(
            ok,
            "--kernel-batch {batch} --threads {threads} failed: {stderr}"
        );
        sam
    };
    let expected = run("1", "1");
    assert!(expected.lines().count() > 32, "SAM looks truncated");
    for (batch, threads) in [("1", "8"), ("8", "1"), ("8", "8")] {
        assert_eq!(
            run(batch, threads),
            expected,
            "--kernel-batch {batch} --threads {threads} diverged under seeded faults"
        );
    }
}
