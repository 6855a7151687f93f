//! What the benchmark runs and what it reports: the five workloads, the
//! twelve user-visible metrics (seven of them gated end to end, with their
//! bounds), and the per-layer metric names. `BENCHMARK.json` at the repo root restates these tables for the
//! driver; a unit test keeps the two from drifting apart.

/// How reads differ from the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Error-free.
    Clean,
    /// The paper's ART settings: 0.2 % sequencing error, 0.1 % variants.
    Art,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadSpec {
    pub count: usize,
    pub len: usize,
    pub profile: Profile,
    /// Half the reads are sampled from the reverse strand.
    pub both_strands: bool,
}

/// The four stages every workload runs, in this order. Each stage owns
/// some of the end-to-end metrics; a workload is sized so that *its* stage
/// dominates and the others get a floor that is just long enough to be
/// steady.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `pimalign index build`, repeated: `setup_s`.
    Setup = 0,
    /// `pimalign --index` on a 1-read FASTQ, repeated: `index_load_s`.
    Boot = 1,
    /// `pimalign --index` on the workload's reads, repeated:
    /// `reads_per_s`, `sim_*`, `mapped_frac`, `index_bytes_per_bp`.
    Batch = 2,
    /// `pimserve --index` under the load generator: `closed_rps`,
    /// `open_p50_ms`, `open_p90_ms`.
    Serve = 3,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// One line, restated in `BENCHMARK.json`.
    pub why: &'static str,
    pub genome_bp: usize,
    pub reads: ReadSpec,
    /// Passes `--single-strand` to the batch stage.
    pub single_strand: bool,
    /// Also runs `pimalign ref.fa` cold and requires the same SAM.
    pub cold_check: bool,
    /// Share of `--seconds` each [`Stage`] may use, indexed by stage.
    pub shares: [f64; 4],
}

impl Workload {
    pub fn share(&self, stage: Stage) -> f64 {
        self.shares[stage as usize]
    }
}

/// Suffix-array sampling rate of every index the benchmark builds.
pub const SA_RATE: u32 = 8;
/// `pimalign`'s and `pimserve`'s default `--max-diffs`.
pub const MAX_DIFFS: usize = 2;
/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 1207;
/// Default `--seconds`; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 20;
/// Open-loop request rate, requests per second.
pub const OPEN_RPS: u64 = 4_000;
/// Outstanding requests in the closed loop: four full batches, so the
/// batcher never lingers for arrivals and the loop measures capacity. At
/// one batch (64) the server flips between a lingering and a saturated
/// regime every few seconds and the rate with it, 28 k ↔ 45 k req/s.
pub const CLOSED_WINDOW: usize = 256;
/// An open-loop reply later than this after its due time is a failure.
/// Far above any latency the server produces (p99.9 ≈ 10 ms), and above
/// the longest stall seen on this host (≈ 0.5 s).
pub const LATE_LIMIT_MS: f64 = 1_000.0;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "exact_fwd",
        why: "Error-free forward reads: stage-1 exact LFM only, so FASTQ parse, SAM encode and write are a visible share of the wall.",
        genome_bp: 2_000_000,
        reads: ReadSpec {
            count: 50_000,
            len: 100,
            profile: Profile::Clean,
            both_strands: false,
        },
        single_strand: true,
        cold_check: false,
        shares: [0.10, 0.05, 0.50, 0.35],
    },
    Workload {
        name: "art_fwd",
        why: "The paper's ART mix, forward-sampled: 74 % exact in stage 1, but most LFM volume is width-1 inexact search that succeeds.",
        genome_bp: 1_000_000,
        reads: ReadSpec {
            count: 6_000,
            len: 100,
            profile: Profile::Art,
            both_strands: false,
        },
        single_strand: true,
        cold_check: false,
        shares: [0.10, 0.05, 0.50, 0.35],
    },
    Workload {
        name: "art_both",
        why: "ART reads from both strands with default flags: nearly all LFM is exhaustive inexact search that fails on the wrong strand.",
        genome_bp: 1_000_000,
        reads: ReadSpec {
            count: 240,
            len: 100,
            profile: Profile::Art,
            both_strands: true,
        },
        single_strand: false,
        cold_check: false,
        shares: [0.10, 0.05, 0.50, 0.35],
    },
    Workload {
        name: "serve_clean",
        why: "Cheap error-free reads of a 200 kbp reference: per-process and per-chunk costs dominate pimalign, and protocol, queue, batcher and responder dominate pimserve.",
        genome_bp: 200_000,
        reads: ReadSpec {
            count: 16_384,
            len: 80,
            profile: Profile::Clean,
            both_strands: false,
        },
        single_strand: true,
        cold_check: false,
        shares: [0.05, 0.05, 0.15, 0.75],
    },
    Workload {
        name: "index_8m",
        why: "8 Mbp reference: SA-IS, BWT, tables, sub-array mapping and the PIMAIX artifact do the work; catches cost moved into set-up.",
        genome_bp: 8_000_000,
        reads: ReadSpec {
            count: 4_000,
            len: 100,
            profile: Profile::Clean,
            both_strands: false,
        },
        single_strand: true,
        cold_check: true,
        shares: [0.50, 0.15, 0.10, 0.25],
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may worsen.
    pub bound: f64,
    /// A count made by the simulated machine or the artifact: two runs on
    /// the same seed must agree to the last bit.
    pub exact: bool,
    /// `None` for a gated metric, one of `BENCHMARK.json`'s `end_to_end`.
    /// `Some(name)` for one every run measures and prints but the driver
    /// does not gate: this host's slow spells (a third slower for minutes
    /// at a time) move it by more than the 25 % a bound may be at most, so
    /// `BENCHMARK.json` lists it under `per_layer` by this name and the
    /// traced run reports it there.
    pub reported_as: Option<&'static str>,
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound: 0.25,
        exact: false,
        reported_as: None,
    }
}

const fn reported(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer_name: &'static str,
) -> EndToEnd {
    EndToEnd {
        reported_as: Some(layer_name),
        ..timed(name, unit, better)
    }
}

const fn counted(name: &'static str, unit: &'static str, better: Better) -> EndToEnd {
    EndToEnd {
        // Same seed: bit-identical. The bound only has to cover what a
        // different seed moves (2.6 % on art_both's 240 reads).
        bound: 0.10,
        exact: true,
        ..timed(name, unit, better)
    }
}

/// The twelve metrics a user of `pimalign` and `pimserve` sees, in print
/// order.
pub const END_TO_END: [EndToEnd; 12] = [
    reported(
        "reads_per_s",
        "reads/s",
        Better::Higher,
        "pimalign.reads_per_s",
    ),
    EndToEnd {
        // A high-water mark, not a time: it repeats within 0.1 %.
        bound: 0.10,
        ..timed("peak_rss_mb", "MB", Better::Lower)
    },
    counted("sim_reads_per_s", "reads/s", Better::Higher),
    counted("sim_nj_per_read", "nJ", Better::Lower),
    counted("sim_lfm_per_read", "count", Better::Lower),
    counted("mapped_frac", "fraction", Better::Higher),
    timed("setup_s", "s", Better::Lower),
    reported("closed_rps", "req/s", Better::Higher, "service.closed_rps"),
    reported("open_p50_ms", "ms", Better::Lower, "service.open_p50_ms"),
    reported("open_p90_ms", "ms", Better::Lower, "service.open_p90_ms"),
    reported("index_load_s", "s", Better::Lower, "artifact.index_load_s"),
    counted("index_bytes_per_bp", "B/bp", Better::Lower),
];

/// `(name, unit, better)` of every per-layer metric, in print order.
pub const PER_LAYER: [(&str, &str, Better); 84] = {
    use Better::{Higher as H, Lower as L};
    [
        ("pimalign.reads_per_s", "reads/s", H),
        ("bioseq.fastq_parse_s", "s", L),
        ("bioseq.fastq_mb_per_s", "MB/s", H),
        ("bioseq.fasta_parse_s", "s", L),
        ("fmindex.build_s", "s", L),
        ("fmindex.sais_s", "s", L),
        ("fmindex.oracle_reads_per_s", "reads/s", H),
        ("pimsim.kernel_mlfm_per_s", "Mlfm/s", H),
        ("pimsim.ledger_ns_per_charge", "ns", L),
        ("pimsim.kernel_cache_hits", "count", H),
        ("pimsim.kernel_cache_misses", "count", L),
        ("pimsim.kernel_cache_hit_rate", "fraction", H),
        ("sim.total_busy_cycles", "cycles", L),
        ("sim.lfm_exact", "count", L),
        ("sim.lfm_inexact", "count", L),
        ("sim.lfm_recovery", "count", L),
        ("sim.subarray_activations", "count", L),
        ("sim.energy_pj", "pJ", L),
        ("sim.compare_busy_cycles", "cycles", L),
        ("sim.adder_busy_cycles", "cycles", L),
        ("sim.overlap_saved_cycles", "cycles", H),
        ("sim.cycles.xnor_match", "cycles", L),
        ("sim.cycles.popcount", "cycles", L),
        ("sim.cycles.marker_read", "cycles", L),
        ("sim.cycles.im_add32", "cycles", L),
        ("sim.cycles.index_update", "cycles", L),
        ("sim.cycles.sa_entry_read", "cycles", L),
        ("sim.cycles.row_write", "cycles", L),
        ("sim.cycles.row_read", "cycles", L),
        ("mapping.map_s", "s", L),
        ("mapping.lfm_w1_mlfm_per_s", "Mlfm/s", H),
        ("mapping.lfm_w8_mlfm_per_s", "Mlfm/s", H),
        ("mapping.locate_per_s", "1/s", H),
        ("exact.busy_s", "s", L),
        ("exact.reads_per_s", "reads/s", H),
        ("exact.lfm_calls", "count", L),
        ("exact.hit_frac", "fraction", H),
        ("inexact.busy_s", "s", L),
        ("inexact.reads_per_s", "reads/s", H),
        ("inexact.lfm_per_read", "count", L),
        ("inexact.hit_frac", "fraction", H),
        ("inexact.lfm_wasted_frac", "fraction", L),
        ("aligner.align_s", "s", L),
        ("aligner.overhead_s", "s", L),
        ("aligner.host_ns_per_lfm", "ns", L),
        ("aligner.per_read_p50_us", "us", L),
        ("aligner.per_read_p99_us", "us", L),
        ("parallel.reads_per_s_t1", "reads/s", H),
        ("parallel.reads_per_s_t2", "reads/s", H),
        ("parallel.scaling_2_vs_1", "ratio", H),
        ("parallel.load_balance_frac", "fraction", H),
        ("sam.encode_s", "s", L),
        ("sam.records_per_s", "1/s", H),
        ("sam.bytes", "B", L),
        ("io.write_s", "s", L),
        ("io.write_mb_per_s", "MB/s", H),
        ("artifact.build_s", "s", L),
        ("artifact.save_s", "s", L),
        ("artifact.load_s", "s", L),
        ("artifact.boot_s", "s", L),
        ("artifact.bytes", "B", L),
        ("artifact.index_load_s", "s", L),
        ("service.protocol_encode_ns", "ns", L),
        ("service.protocol_decode_ns", "ns", L),
        ("service.queue_offer_take_ns", "ns", L),
        ("service.batches", "count", L),
        ("service.mean_batch_width", "reads", H),
        ("service.shed", "count", L),
        ("service.peak_queue_depth", "count", L),
        ("service.stage_queued_ms", "ms", L),
        ("service.stage_batched_ms", "ms", L),
        ("service.stage_aligned_ms", "ms", L),
        ("service.stage_respond_ms", "ms", L),
        ("service.open_p99_ms", "ms", L),
        ("service.open_p999_ms", "ms", L),
        ("service.gen_late_p99_ms", "ms", L),
        ("service.closed_w1_rps", "req/s", H),
        ("service.overload_goodput_rps", "req/s", H),
        ("service.closed_rps", "req/s", H),
        ("service.open_p50_ms", "ms", L),
        ("service.open_p90_ms", "ms", L),
        ("harness.layers_cover_frac", "fraction", H),
        ("harness.trace_overhead_frac", "fraction", L),
        ("harness.gen_s", "s", L),
    ]
};

#[cfg(test)]
mod tests {
    use super::*;
    use bench::json::{self, Value};

    fn word(better: Better) -> &'static str {
        match better {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key).unwrap_or_else(|| panic!("missing {key}"))
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// program prints and gates `--sets 2` with. They must say the same.
    #[test]
    fn benchmark_json_restates_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        assert_eq!(field(&doc, "run_seconds").as_u64(), Some(RUN_SECONDS));

        let workloads = field(&doc, "workloads").as_array().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(j, "name").as_str(), Some(w.name));
            assert_eq!(field(j, "why").as_str(), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            assert!((w.shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }

        let e2e = field(&doc, "end_to_end").as_array().unwrap();
        let gated: Vec<&EndToEnd> = END_TO_END
            .iter()
            .filter(|m| m.reported_as.is_none())
            .collect();
        assert_eq!(e2e.len(), gated.len());
        for (j, m) in e2e.iter().zip(gated) {
            assert_eq!(field(j, "name").as_str(), Some(m.name));
            assert_eq!(field(j, "unit").as_str(), Some(m.unit));
            assert_eq!(field(j, "better").as_str(), Some(word(m.better)));
            assert_eq!(field(j, "bound").as_f64(), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        // A metric that is reported but not gated is a per-layer metric of
        // the same unit and direction.
        for m in END_TO_END.iter().filter(|m| m.reported_as.is_some()) {
            let row = PER_LAYER
                .iter()
                .find(|(name, ..)| Some(*name) == m.reported_as);
            assert_eq!(row.map(|r| (r.1, r.2)), Some((m.unit, m.better)));
        }

        let layers = field(&doc, "per_layer").as_array().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, (name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name").as_str(), Some(*name));
            assert_eq!(field(j, "unit").as_str(), Some(*unit));
            assert_eq!(field(j, "better").as_str(), Some(word(*better)));
        }
    }
}
