//! Output invariants of the `pimalign` binary, and a counted `LFM`
//! budget, on a read mix in the shape of the benchmark's `art_*`
//! workloads.
//!
//! Every SAM record is held against the read it answers and the reference
//! window it points into; every thread count must emit the same bytes; and the bytes are pinned by digest, so a change to
//! the search that moves any of them fails here before `pimbench` sees it.
//! The same runs' metrics documents bound `LFM`s per read by phase: a
//! search change that costs `LFM`s fails with the phase named.
//!
//! The inputs come from this file's own generator (xorshift, no crate the
//! aligner links), so only the aligner can move a pinned value.

use std::fmt::Write as _;
use std::process::Command;

use bench::json::{self, Value};
use bioseq::DnaSeq;
use swalign::banded_edit_distance;

mod support;
use support::{temp_path, write_temp, TempFile};

const GENOME_LEN: usize = 200_000;
const READ_LEN: usize = 100;
/// `pimalign`'s default `--max-diffs`.
const MAX_DIFFS: usize = 2;
/// Reads with 0, 1, 2 and 3 differences: the binomial expectation of 400
/// reads at 0.3 % a base (0.2 % sequencing error + 0.1 % variation), as
/// `benchmark/src/gen.rs::art_quotas(400, 100)` rounds it. The class of
/// one places its three differences at bases 2, 3 and 4.
const QUOTAS: [usize; 4] = [297, 89, 13, 1];
/// One difference in this many is a 1 bp indel.
const INDEL_EVERY: usize = 30;
/// Differences the even spread leaves to chance, planted on one read from
/// each strand: one in the last 12 bases, and two in the first 12.
const PLANTED: [&[usize]; 2] = [&[93], &[3, 8]];

/// Deterministic xorshift64.
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

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

const BASES: [u8; 4] = *b"ACGT";

fn revcomp(seq: &[u8]) -> Vec<u8> {
    seq.iter()
        .rev()
        .map(|&b| match b {
            b'A' => b'T',
            b'C' => b'G',
            b'G' => b'C',
            _ => b'A',
        })
        .collect()
}

struct Read {
    seq: Vec<u8>,
    /// 0-based start of the read's window on the forward reference.
    pos: usize,
    reverse: bool,
    diffs: usize,
}

struct Inputs {
    genome: Vec<u8>,
    reads: Vec<Read>,
    reference: TempFile,
    fastq: TempFile,
}

/// Edits `genome[pos..]` at `places` (ascending) into a `READ_LEN`-base
/// read. `serial` counts differences across the whole read set, so that
/// one in `INDEL_EVERY` is an indel, alternately an insertion and a
/// deletion.
fn edited_window(
    genome: &[u8],
    pos: usize,
    places: &[usize],
    serial: &mut usize,
    rng: &mut Rng,
) -> Vec<u8> {
    // One base longer than the read, so a deletion still leaves READ_LEN.
    let mut seq = genome[pos..pos + READ_LEN + 1].to_vec();
    // Right to left, so an indel does not shift the places still to edit.
    for &p in places.iter().rev() {
        *serial += 1;
        if serial.is_multiple_of(INDEL_EVERY) {
            if (*serial / INDEL_EVERY).is_multiple_of(2) {
                seq.remove(p);
            } else {
                seq.insert(p, BASES[rng.below(4)]);
            }
        } else {
            let rank = BASES.iter().position(|&b| b == seq[p]).expect("ACGT");
            seq[p] = BASES[(rank + 1 + *serial % 3) % 4];
        }
    }
    seq.truncate(READ_LEN);
    seq
}

fn inputs() -> Inputs {
    let mut rng = Rng(0x5a11_d5ee_d000_0020);
    let genome: Vec<u8> = (0..GENOME_LEN).map(|_| BASES[rng.below(4)]).collect();
    let mut reads = Vec::new();
    let mut serial = 0;
    let mut sample = |places: &[usize], reverse: bool, rng: &mut Rng| {
        let pos = rng.below(GENOME_LEN - READ_LEN - 1);
        let seq = edited_window(&genome, pos, places, &mut serial, rng);
        Read {
            seq: if reverse { revcomp(&seq) } else { seq },
            pos,
            reverse,
            diffs: places.len(),
        }
    };
    for (diffs, &class_size) in QUOTAS.iter().enumerate() {
        // Per difference slot, places spread evenly over 2..READ_LEN - 2
        // and dealt to the class's reads in seeded order.
        let slots: Vec<Vec<usize>> = (0..diffs)
            .map(|_| {
                let mut places: Vec<usize> = (0..class_size)
                    .map(|j| 2 + j * (READ_LEN - 4) / class_size)
                    .collect();
                rng.shuffle(&mut places);
                places
            })
            .collect();
        for j in 0..class_size {
            let mut places: Vec<usize> = Vec::with_capacity(diffs);
            for slot in &slots {
                // Two slots may land on one base; step the later one on.
                let mut p = slot[j];
                while places.contains(&p) {
                    p = 2 + (p - 1) % (READ_LEN - 4);
                }
                places.push(p);
            }
            places.sort_unstable();
            reads.push(sample(&places, j % 2 == 1, &mut rng));
        }
    }
    for places in PLANTED {
        for reverse in [false, true] {
            reads.push(sample(places, reverse, &mut rng));
        }
    }
    rng.shuffle(&mut reads);

    let mut fasta = String::from(">inv_ref\n");
    for line in genome.chunks(70) {
        fasta.push_str(std::str::from_utf8(line).unwrap());
        fasta.push('\n');
    }
    let mut fastq = String::new();
    for (i, read) in reads.iter().enumerate() {
        let seq = std::str::from_utf8(&read.seq).unwrap();
        writeln!(fastq, "@r{i}\n{seq}\n+\n{}", "I".repeat(READ_LEN)).unwrap();
    }
    Inputs {
        reference: write_temp("inv_ref.fa", &fasta),
        fastq: write_temp("inv_reads.fq", &fastq),
        genome,
        reads,
    }
}

/// Runs `pimalign` on the inputs; returns its SAM and metrics document.
fn run(inputs: &Inputs, extra: &[&str]) -> (String, Value) {
    let metrics = temp_path("inv_metrics.json");
    let out = Command::new(env!("CARGO_BIN_EXE_pimalign"))
        .arg(&*inputs.reference)
        .arg(&*inputs.fastq)
        .arg("--metrics-out")
        .arg(&*metrics)
        .args(extra)
        .output()
        .expect("run pimalign");
    assert!(
        out.status.success(),
        "pimalign {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("invalid metrics JSON: {e}"));
    (String::from_utf8(out.stdout).expect("utf8 SAM"), doc)
}

/// 64-bit FNV-1a, the digest `pimbench` prints as `sam fnv1a`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(read bases, reference bases)` a CIGAR accounts for: M, I, S, = and
/// X consume the read; M, D, N, = and X the reference.
fn cigar_spans(cigar: &str) -> Option<(usize, usize)> {
    let (mut read, mut reference, mut run) = (0, 0, String::new());
    for c in cigar.chars() {
        if c.is_ascii_digit() {
            run.push(c);
            continue;
        }
        let n: usize = run.parse().ok()?;
        run.clear();
        match c {
            'M' | '=' | 'X' => {
                read += n;
                reference += n;
            }
            'I' | 'S' => read += n,
            'D' | 'N' => reference += n,
            'H' | 'P' => {}
            _ => return None,
        }
    }
    (run.is_empty() && !cigar.is_empty()).then_some((read, reference))
}

fn dna(bytes: &[u8]) -> DnaSeq {
    std::str::from_utf8(bytes).unwrap().parse().expect("ACGT")
}

/// Holds one SAM document against the reads it answers, in order.
fn check_sam(sam: &str, inputs: &Inputs, both_strands: bool) {
    let mut records = sam.lines().filter(|l| !l.starts_with('@'));
    for (i, read) in inputs.reads.iter().enumerate() {
        let line = records
            .next()
            .unwrap_or_else(|| panic!("record r{i} missing"));
        let f: Vec<&str> = line.split('\t').collect();
        assert!(f.len() >= 11, "r{i}: {} fields, SAM needs 11", f.len());
        assert_eq!(f[0], format!("r{i}"), "records follow the reads' order");
        let flag: u16 = f[1].parse().expect("FLAG");
        let seq = f[9].as_bytes();
        if flag & 0x10 != 0 {
            assert_eq!(
                revcomp(seq),
                read.seq,
                "r{i}: 0x10 SEQ is the reverse complement"
            );
        } else {
            assert_eq!(seq, read.seq, "r{i}: SEQ is the read");
        }
        let reachable = read.diffs <= MAX_DIFFS && (both_strands || !read.reverse);
        if flag & 0x4 != 0 {
            assert!(!reachable, "r{i}: {} differences, unmapped", read.diffs);
            assert_eq!((f[2], f[3], f[5]), ("*", "0", "*"), "r{i}");
            continue;
        }
        assert_eq!(flag & 0x10 != 0, read.reverse, "r{i}: strand");
        assert_eq!(f[2], "inv_ref", "r{i}: RNAME");
        let pos0 = f[3].parse::<usize>().expect("POS") - 1;
        // A difference at the window's first bases can move its start by
        // as much.
        assert!(
            reachable && pos0.abs_diff(read.pos) <= read.diffs,
            "r{i}: POS {} but the read came from {}",
            pos0 + 1,
            read.pos + 1
        );
        // M + S + I is the read; M + D is the reference span, inside the
        // reference.
        let (read_span, ref_span) =
            cigar_spans(f[5]).unwrap_or_else(|| panic!("r{i}: CIGAR {:?}", f[5]));
        assert_eq!(read_span, seq.len(), "r{i}: CIGAR {} read bases", f[5]);
        assert!(
            pos0 + ref_span <= GENOME_LEN,
            "r{i}: CIGAR leaves the reference"
        );
        // NM is the edit distance to the window at POS. The writer emits
        // `<len>M` for every mapped record, so an indel hit's window is a
        // base or two off the CIGAR's span: take the closest.
        let nm: u32 = f[11..]
            .iter()
            .find_map(|tag| tag.strip_prefix("NM:i:"))
            .unwrap_or_else(|| panic!("r{i}: no NM tag"))
            .parse()
            .expect("NM");
        assert!(nm as usize <= MAX_DIFFS, "r{i}: NM {nm}");
        let read_seq = dna(seq);
        let distance = (ref_span - MAX_DIFFS..=ref_span + MAX_DIFFS)
            .filter_map(|span| {
                let window = inputs.genome.get(pos0..pos0 + span)?;
                banded_edit_distance(&dna(window), &read_seq, MAX_DIFFS)
            })
            .min();
        assert_eq!(distance, Some(nm), "r{i}: NM against the window at POS");
        assert!(nm as usize <= read.diffs, "r{i}: NM {nm} above the truth");
    }
    assert!(records.next().is_none(), "more records than reads");
}

fn lfm(doc: &Value, bucket: &str) -> u64 {
    let path = format!("breakdown.lfm_by_phase.{bucket}");
    doc.get(&path)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing {path}"))
}

/// `LFM`s a read may exceed `pinned`, the value measured when the gate
/// was last set, by 5 %.
fn assert_lfm_within(what: &str, count: u64, reads: usize, pinned: f64) {
    let per_read = count as f64 / reads as f64;
    assert!(
        per_read <= pinned * 1.05,
        "{what}: {per_read:.2} LFM a read, pinned at {pinned:.2} + 5 %"
    );
}

/// The one- and two-thread runs of one strand policy: invariants on the
/// first, byte identity of the second, the digest, the `LFM` budget.
fn check_policy(
    inputs: &Inputs,
    policy: &[&str],
    both_strands: bool,
    digest: u64,
    pinned: [f64; 2],
    published: u64,
) {
    let with = |threads: &'static str| {
        let mut args = policy.to_vec();
        args.extend_from_slice(&["--threads", threads]);
        run(inputs, &args)
    };
    let (sam, doc) = with("1");
    check_sam(&sam, inputs, both_strands);

    let phases = |doc: &Value| {
        (
            ["exact", "inexact", "recovery_retry", "recovery_escalate"].map(|b| lfm(doc, b)),
            doc.get("breakdown.lfm_calls").and_then(Value::as_u64),
            doc.get("report.published_lfm_calls")
                .and_then(Value::as_u64),
        )
    };
    let (other, other_doc) = with("2");
    assert!(other == sam, "--threads 2 {policy:?}: SAM diverged");
    assert_eq!(
        phases(&other_doc),
        phases(&doc),
        "--threads 2 {policy:?}: LFM counts diverged"
    );
    assert_eq!(
        fnv1a(sam.as_bytes()),
        digest,
        "{policy:?}: SAM digest {:016x} moved",
        fnv1a(sam.as_bytes())
    );

    let ([exact, inexact, retry, escalate], total, as_published) = phases(&doc);
    assert_eq!(total, Some(exact + inexact), "phases sum to the total");
    assert_eq!((retry, escalate), (0, 0), "no campaign, no recovery");
    let reads = inputs.reads.len();
    // Shown when the test fails: what to re-pin, if the move is meant.
    eprintln!(
        "{policy:?}: LFM a read: exact {:.3}, inexact {:.3}; as published {as_published:?}",
        exact as f64 / reads as f64,
        inexact as f64 / reads as f64
    );
    assert_eq!(
        as_published,
        Some(published),
        "{policy:?}: interval steps taken, two LFMs each as published"
    );
    assert_lfm_within("exact", exact, reads, pinned[0]);
    assert_lfm_within("inexact", inexact, reads, pinned[1]);
    assert_lfm_within("total", exact + inexact, reads, pinned[0] + pinned[1]);
}

#[test]
fn every_record_holds_and_no_byte_or_lfm_budget_moves() {
    let inputs = inputs();
    assert_eq!(inputs.reads.len(), 404);
    assert!(inputs.reads.iter().any(|r| r.diffs == 3), "the 2-3-4 read");
    check_policy(&inputs, &[], true, DIGEST_BOTH, LFM_BOTH, PUBLISHED_BOTH);
    check_policy(
        &inputs,
        &["--single-strand"],
        false,
        DIGEST_FWD,
        LFM_FWD,
        PUBLISHED_FWD,
    );
}

/// SAM digests, default flags and `--single-strand`: taken at the parent
/// of the change that added this file (stage 1's descent handed to stage
/// 2, the break frame tried first), before it touched the search.
const DIGEST_BOTH: u64 = 0xc905_0dfc_4845_be7c;
const DIGEST_FWD: u64 = 0x85b6_effd_1c96_7a2b;
/// `LFM`s a read, `[exact, inexact]`, as measured with a seed table of
/// `N/4` bytes held as one packed boundary a 7-mer (seven levels on this
/// 200 kbp genome); with a pair of `u32`s an entry at every level (six
/// levels), `[83.433, 36.589]` and `[42.965, 24.871]`; before that, at `N/64`
/// bytes (four levels), `[89.423, 40.975]` and `[46.965, 29.020]`; before
/// the word-line step and the partition rule, with the one-row step and
/// the seed table, `[93.834, 50.245]` and `[49.851, 36.743]`; with the
/// one-row interval step alone, `[105.814, 59.077]` and
/// `[57.851, 45.099]`; and at two `LFM`s a step `[183.475, 88.842]` and
/// `[97.069, 63.896]`.
const LFM_BOTH: [f64; 2] = [81.413, 35.057];
const LFM_FWD: [f64; 2] = [41.631, 23.421];
/// `report.published_lfm_calls`, two `LFM`s for every interval step the
/// searches took: that parent's `lfm_calls`, to the `LFM` — the one-row
/// and then word-line step changed what a step issues, the seed table
/// how the first few are had and the partition rule which alternatives
/// issue theirs, not which steps are taken.
const PUBLISHED_BOTH: u64 = 110_016;
const PUBLISHED_FWD: u64 = 65_030;
