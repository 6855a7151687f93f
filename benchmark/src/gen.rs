//! Deterministic input generator: every byte the programs read is a
//! function of `--seed` and the workload's specification, and of nothing
//! else — not of `readsim`, `rand` or any other crate a later change might
//! touch, so a perf comparison always runs both sides on the same inputs.
//!
//! The seed picks *where* reads come from and *which* bases change; *how
//! many* reads carry 0, 1, 2, … differences, where along the read the
//! differences fall and how many reads are reverse-strand are fixed quotas
//! of the specification. The inexact stage's cost depends steeply on those
//! three, and leaving them to chance made two seeds differ by more than a
//! perf change would.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::spec::{Profile, ReadSpec, Workload};

/// Length of the reads sent to `pimserve`, and how many distinct ones.
pub const SERVE_READ_LEN: usize = 80;
pub const SERVE_READS: usize = 4_096;

/// Name of the single reference sequence.
pub const REF_NAME: &str = "bench_ref";

/// Per-base rates of the paper's ART profile: 0.2 % sequencing error plus
/// 0.1 % population variation, a tenth of the latter being indels.
const ART_DIFF_RATE: f64 = 0.003;
/// One difference in this many is a 1-bp indel (0.1 % × 10 % of 0.3 %).
const ART_INDEL_EVERY: usize = 30;
/// Reads with more differences than this are folded into this class
/// (at 100 bp they are < 0.001 % of reads).
const ART_MAX_DIFFS: usize = 4;

/// SplitMix64: small, fast, and owned by the benchmark.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// A generator for an independent stream named by `label`.
    pub fn fork(seed: u64, label: &str) -> Rng {
        Rng(seed ^ fnv1a(label.as_bytes()).rotate_left(17))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const BASES: [u8; 4] = *b"ACGT";

fn complement(b: u8) -> u8 {
    match b {
        b'A' => b'T',
        b'C' => b'G',
        b'G' => b'C',
        _ => b'A',
    }
}

pub fn reverse_complement(seq: &[u8]) -> Vec<u8> {
    seq.iter().rev().map(|&b| complement(b)).collect()
}

/// A uniform random genome of `len` ASCII bases.
pub fn genome(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = Rng::fork(seed, &format!("genome/{len}"));
    let mut out = Vec::with_capacity(len + 32);
    while out.len() < len {
        let mut word = rng.next_u64();
        for _ in 0..32 {
            out.push(BASES[(word & 3) as usize]);
            word >>= 2;
        }
    }
    out.truncate(len);
    out
}

/// Where a read truly came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Read {
    pub id: String,
    pub seq: Vec<u8>,
    pub qual: Vec<u8>,
    /// 0-based start of the read's window on the forward reference.
    pub pos: usize,
    pub reverse: bool,
    pub diffs: usize,
}

/// How many of `count` reads of `len` bases carry `k` differences, for
/// `k` in `0..=ART_MAX_DIFFS`: the binomial expectation, rounded, with
/// the remainder in class 0.
pub fn art_quotas(count: usize, len: usize) -> [usize; ART_MAX_DIFFS + 1] {
    let mut quotas = [0usize; ART_MAX_DIFFS + 1];
    let mut p_k = (1.0 - ART_DIFF_RATE).powi(len as i32);
    let mut assigned = 0;
    for (k, quota) in quotas.iter_mut().enumerate() {
        if k > 0 {
            *quota = (count as f64 * p_k).round() as usize;
            assigned += *quota;
        }
        p_k *= (len - k) as f64 / (k + 1) as f64 * ART_DIFF_RATE / (1.0 - ART_DIFF_RATE);
    }
    quotas[0] = count - assigned.min(count);
    quotas
}

/// `n` positions spread evenly over `2..len-2`, in seeded order: every
/// seed places the same multiset of positions, on different reads.
fn spread_positions(n: usize, len: usize, rng: &mut Rng) -> Vec<usize> {
    let span = len - 4;
    let mut positions: Vec<usize> = (0..n).map(|j| 2 + j * span / n.max(1)).collect();
    rng.shuffle(&mut positions);
    positions
}

/// Samples `spec.count` reads from `genome`.
pub fn reads(genome: &[u8], spec: &ReadSpec, seed: u64, label: &str) -> Vec<Read> {
    let mut rng = Rng::fork(seed, &format!("reads/{label}"));
    let quotas = match spec.profile {
        Profile::Clean => {
            let mut q = [0; ART_MAX_DIFFS + 1];
            q[0] = spec.count;
            q
        }
        Profile::Art => art_quotas(spec.count, spec.len),
    };
    let mut out = Vec::with_capacity(spec.count);
    let mut diff_serial = 0usize;
    for (diffs, &class_size) in quotas.iter().enumerate() {
        // One evenly spread position list per difference slot of the class.
        let slots: Vec<Vec<usize>> = (0..diffs)
            .map(|_| spread_positions(class_size, spec.len, &mut rng))
            .collect();
        for j in 0..class_size {
            // A window one base longer than the read, so a deletion still
            // leaves `len` bases.
            let pos = rng.below(genome.len() - spec.len - 1);
            let mut seq: Vec<u8> = genome[pos..pos + spec.len + 1].to_vec();
            let mut at: Vec<usize> = Vec::with_capacity(diffs);
            for slot in &slots {
                // Two slots may land on one base; step the later one along
                // so the read keeps its class's difference count.
                let mut p = slot[j];
                while at.contains(&p) {
                    p = 2 + (p - 1) % (spec.len - 4);
                }
                at.push(p);
            }
            at.sort_unstable();
            // Right to left, so an indel does not shift the positions
            // still to be edited.
            for &p in at.iter().rev() {
                diff_serial += 1;
                if diff_serial.is_multiple_of(ART_INDEL_EVERY) {
                    if (diff_serial / ART_INDEL_EVERY).is_multiple_of(2) {
                        seq.remove(p);
                    } else {
                        seq.insert(p, BASES[rng.below(4)]);
                    }
                } else {
                    let rank = BASES.iter().position(|&b| b == seq[p]).expect("ACGT");
                    seq[p] = BASES[(rank + 1 + diff_serial % 3) % 4];
                }
            }
            seq.truncate(spec.len);
            let reverse = spec.both_strands && j % 2 == 1;
            if reverse {
                seq = reverse_complement(&seq);
            }
            let mut qual = Vec::with_capacity(spec.len);
            while qual.len() < spec.len {
                // Phred 20..=40, eight scores per draw.
                let mut word = rng.next_u64();
                for _ in 0..8 {
                    qual.push(b'5' + (word % 21) as u8);
                    word >>= 8;
                }
            }
            qual.truncate(spec.len);
            out.push(Read {
                id: String::new(),
                seq,
                qual,
                pos,
                reverse,
                diffs: at.len(),
            });
        }
    }
    // Interleave the classes, then name reads by their place in the file.
    rng.shuffle(&mut out);
    for (i, read) in out.iter_mut().enumerate() {
        read.id = format!("r{i}");
    }
    out
}

pub fn fasta_bytes(name: &str, genome: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(genome.len() + genome.len() / 70 + 64);
    out.extend_from_slice(format!(">{name}\n").as_bytes());
    for line in genome.chunks(70) {
        out.extend_from_slice(line);
        out.push(b'\n');
    }
    out
}

pub fn fastq_bytes(reads: &[Read]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in reads {
        out.push(b'@');
        out.extend_from_slice(r.id.as_bytes());
        out.push(b'\n');
        out.extend_from_slice(&r.seq);
        out.extend_from_slice(b"\n+\n");
        out.extend_from_slice(&r.qual);
        out.push(b'\n');
    }
    out
}

fn truth_tsv(reads: &[Read]) -> String {
    let mut out = String::from("id\tpos0\tstrand\tdiffs\n");
    for r in reads {
        let strand = if r.reverse { '-' } else { '+' };
        writeln!(out, "{}\t{}\t{strand}\t{}", r.id, r.pos, r.diffs).expect("write to String");
    }
    out
}

/// Everything one workload run reads, on disk under `dir` and (for the
/// checker and the load generator) in memory.
#[derive(Debug)]
pub struct Inputs {
    pub dir: PathBuf,
    pub genome: Vec<u8>,
    pub reads: Vec<Read>,
    pub serve_reads: Vec<Read>,
    /// `(file name, FNV-1a of its bytes)`, in the order written.
    pub digests: Vec<(&'static str, u64)>,
    /// Wall time spent generating and writing.
    pub gen_s: f64,
}

/// Generates and writes a workload's inputs into `dir`:
/// `ref.fa`, `reads.fq`, `truth.tsv`, `serve.fq` (the requests sent to
/// `pimserve`) and `boot.fq` (the first of those alone: error-free and
/// forward, so a warm boot costs the same whatever the batch reads are).
pub fn write_inputs(workload: &Workload, seed: u64, dir: &Path) -> std::io::Result<Inputs> {
    let t0 = Instant::now();
    // Keyed by size only: art_fwd and art_both share one genome.
    let genome = genome(workload.genome_bp, seed);
    let batch = reads(&genome, &workload.reads, seed, workload.name);
    let serve_spec = ReadSpec {
        count: SERVE_READS,
        len: SERVE_READ_LEN,
        profile: Profile::Clean,
        both_strands: false,
    };
    let serve_reads = reads(&genome, &serve_spec, seed, "serve");
    let files: [(&'static str, Vec<u8>); 5] = [
        ("ref.fa", fasta_bytes(REF_NAME, &genome)),
        ("reads.fq", fastq_bytes(&batch)),
        ("truth.tsv", truth_tsv(&batch).into_bytes()),
        ("boot.fq", fastq_bytes(&serve_reads[..1])),
        ("serve.fq", fastq_bytes(&serve_reads)),
    ];
    let mut digests = Vec::new();
    for (name, bytes) in &files {
        std::fs::write(dir.join(name), bytes)?;
        digests.push((*name, fnv1a(bytes)));
    }
    Ok(Inputs {
        dir: dir.to_owned(),
        genome,
        reads: batch,
        serve_reads,
        digests,
        gen_s: t0.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let spec = ReadSpec {
            count: 300,
            len: 100,
            profile: Profile::Art,
            both_strands: true,
        };
        let g = genome(20_000, 5);
        assert_eq!(g, genome(20_000, 5));
        assert_ne!(g, genome(20_000, 6));
        let a = fastq_bytes(&reads(&g, &spec, 5, "w"));
        assert_eq!(a, fastq_bytes(&reads(&g, &spec, 5, "w")));
        assert_ne!(a, fastq_bytes(&reads(&g, &spec, 6, "w")));
    }

    #[test]
    fn the_mix_is_a_quota_not_a_draw() {
        let spec = ReadSpec {
            count: 2_000,
            len: 100,
            profile: Profile::Art,
            both_strands: true,
        };
        let quotas = art_quotas(spec.count, spec.len);
        assert_eq!(quotas.iter().sum::<usize>(), spec.count);
        // 0.997^100 = 74.05 % of reads are error-free.
        assert_eq!(quotas[0], 1_481);
        let g = genome(50_000, 1);
        for seed in [1, 2, 3] {
            let rs = reads(&g, &spec, seed, "w");
            assert!(rs.iter().all(|r| r.seq.len() == 100 && r.qual.len() == 100));
            let reverse = rs.iter().filter(|r| r.reverse).count();
            assert_eq!(reverse, quotas.iter().map(|q| q / 2).sum::<usize>());
            let clean = rs.iter().filter(|r| r.diffs == 0).count();
            assert_eq!(clean, quotas[0]);
        }
    }

    #[test]
    fn clean_forward_reads_are_substrings_at_their_truth_position() {
        let spec = ReadSpec {
            count: 50,
            len: 80,
            profile: Profile::Clean,
            both_strands: false,
        };
        let g = genome(10_000, 9);
        for r in reads(&g, &spec, 9, "w") {
            assert_eq!(r.seq, &g[r.pos..r.pos + 80]);
            assert!(!r.reverse);
        }
    }
}
