//! Integration: the host-side (wall-clock) telemetry layer.
//!
//! Three properties are load-bearing for the metrics contract:
//!
//! * **Thread invariance of everything simulated.** The zone heatmap and
//!   every cycle counter are derived from simulated charges, so an
//!   8-worker run must merge to exactly the 1-worker result.
//! * **Histogram correctness.** Sharded recording + tree merge must
//!   equal single-stream recording, and the log2-bucket quantile upper
//!   bounds must bracket a sorted-vector oracle within one bucket.
//! * **Trace well-formedness.** The Chrome trace export must parse, name
//!   a track per worker, and carry only complete spans.

use bench::json::{self, Value};
use bioseq::DnaSeq;
use pim_aligner::{HostTraceConfig, PimAlignerConfig, Platform};
use pimsim::{chrome_trace_json, HostEpoch, HostHistogram};

/// Deterministic xorshift64 — identical workloads on every run.
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

fn workload(genome_len: usize, read_count: usize) -> (DnaSeq, Vec<DnaSeq>) {
    let mut rng = Rng(0x0517_ace5);
    let genome: String = (0..genome_len)
        .map(|_| ['A', 'C', 'G', 'T'][(rng.next() % 4) as usize])
        .collect();
    let reads = (0..read_count)
        .map(|_| {
            let start = (rng.next() as usize) % (genome_len - 32);
            genome[start..start + 24].parse().expect("read parses")
        })
        .collect();
    (genome.parse().expect("genome parses"), reads)
}

#[test]
fn simulated_totals_and_heatmap_are_thread_invariant() {
    let (reference, reads) = workload(4_000, 64);
    let platform = Platform::new(reference.to_packed(), PimAlignerConfig::baseline());

    let (_, totals_1) = platform
        .align_chunk_parallel(&reads, 1, 0, false)
        .expect("1-thread run");
    let (_, totals_8) = platform
        .align_chunk_parallel(&reads, 8, 0, false)
        .expect("8-thread run");

    // The merged simulated ledger — heatmap included — is bit-identical
    // across worker counts; only the host section may differ.
    assert_eq!(totals_8.ledger, totals_1.ledger);

    // Kernel-cache counters are host-side (excluded from ledger
    // equality): the hit/miss split depends on how reads partition
    // across per-worker caches, but every lfm lookup still happens
    // exactly once, so the total is thread-invariant.
    let cache_1 = totals_1.ledger.kernel_cache_counters();
    let cache_8 = totals_8.ledger.kernel_cache_counters();
    assert_eq!(
        cache_8.hits + cache_8.misses,
        cache_1.hits + cache_1.misses,
        "cache lookup total must be per-read work"
    );
    assert_eq!(
        totals_8.ledger.zone_activations(),
        totals_1.ledger.zone_activations()
    );
    assert!(
        !totals_1.ledger.zone_activations().is_empty(),
        "the workload must touch at least one zone"
    );
    assert_eq!(totals_8.queries, totals_1.queries);
    assert_eq!(totals_8.lfm_calls, totals_1.lfm_calls);

    // The host layer still accounts for every read in both shapes.
    assert_eq!(totals_1.host.per_read.count(), reads.len() as u64);
    assert_eq!(totals_8.host.per_read.count(), reads.len() as u64);
    assert_eq!(totals_8.host.workers.len(), 8, "one worker row per thread");
    let reads_8: u64 = totals_8.host.workers.iter().map(|w| w.reads).sum();
    assert_eq!(reads_8, reads.len() as u64);
}

#[test]
fn sharded_histogram_merge_equals_single_stream() {
    // 4096 deterministic pseudo-random latencies, recorded once into a
    // single histogram and once sharded across 8 + tree-merged.
    let samples: Vec<u64> = (0..4096u64)
        .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 12) % 5_000_000 + 1)
        .collect();

    let mut single = HostHistogram::new();
    for &s in &samples {
        single.record_ns(s);
    }

    let mut shards = vec![HostHistogram::new(); 8];
    for (i, &s) in samples.iter().enumerate() {
        shards[i % 8].record_ns(s);
    }
    while shards.len() > 1 {
        let upper = shards.split_off(shards.len() / 2);
        for (lo, hi) in shards.iter_mut().zip(upper) {
            lo.merge(&hi);
        }
    }

    assert_eq!(shards[0], single);
    assert_eq!(shards[0].count(), samples.len() as u64);
    assert_eq!(shards[0].sum_ns(), samples.iter().sum::<u64>());
}

#[test]
fn quantile_upper_bounds_bracket_the_sorted_oracle() {
    let mut samples: Vec<u64> = (0..4096u64)
        .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 12) % 5_000_000 + 1)
        .collect();
    let mut hist = HostHistogram::new();
    for &s in &samples {
        hist.record_ns(s);
    }
    samples.sort_unstable();

    for q in [0.5, 0.9, 0.99] {
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let oracle = samples[rank - 1];
        let bound = hist.quantile_upper_ns(q);
        // Upper bound of the oracle's bucket: never below the oracle,
        // never more than one log2 bucket above it.
        assert!(bound >= oracle, "p{q}: bound {bound} below oracle {oracle}");
        assert!(
            bound <= oracle.saturating_mul(2),
            "p{q}: bound {bound} beyond one log2 bucket of oracle {oracle}"
        );
    }
    assert_eq!(
        hist.quantile_upper_ns(1.0).min(hist.max_ns()),
        hist.max_ns()
    );
}

#[test]
fn empty_histogram_reports_zeros() {
    let h = HostHistogram::new();
    assert!(h.is_empty());
    assert_eq!(h.quantile_upper_ns(0.5), 0);
    assert_eq!(h.quantile_upper_ns(0.99), 0);
    assert_eq!(h.max_ns(), 0);
    assert_eq!(h.mean_ns(), 0.0);
}

#[test]
fn chrome_trace_export_is_well_formed() {
    let (reference, reads) = workload(4_000, 32);
    let epoch = HostEpoch::new();
    let trace = HostTraceConfig::new(epoch);
    let platform = Platform::new(reference.to_packed(), PimAlignerConfig::baseline());
    let threads = 4usize;
    let (_, totals) = platform
        .align_chunk_parallel_traced(&reads, threads, 0, false, &trace)
        .expect("traced run");
    assert!(!totals.host.spans.is_empty(), "tracing must record spans");
    assert_eq!(totals.host.spans_dropped, 0, "capacity must suffice here");

    let tracks: Vec<(u32, String)> = (0..threads as u32)
        .map(|w| (w, format!("worker-{w}")))
        .collect();
    let text = chrome_trace_json(&totals.host.spans, &tracks);
    let doc = json::parse(&text).expect("trace parses");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Value::as_str),
        Some("ms")
    );

    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    let mut named = Vec::new();
    let mut complete = 0;
    for event in events {
        match event.get("ph").and_then(Value::as_str) {
            Some("M") => {
                assert_eq!(
                    event.get("name").and_then(Value::as_str),
                    Some("thread_name")
                );
                named.push(
                    event
                        .get("args.name")
                        .and_then(Value::as_str)
                        .unwrap()
                        .to_owned(),
                );
            }
            Some("X") => {
                assert!(event.get("name").and_then(Value::as_str).is_some());
                assert!(event.get("tid").and_then(Value::as_u64).is_some());
                assert!(event.get("ts").and_then(Value::as_f64).unwrap() >= 0.0);
                assert!(event.get("dur").and_then(Value::as_f64).unwrap() >= 0.0);
                complete += 1;
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert!(complete > 0, "no complete spans in the trace");
    // Every requested worker is named, claimed work or not.
    for w in 0..threads {
        assert!(named.contains(&format!("worker-{w}")), "missing worker-{w}");
    }
    // Per-chunk spans exist and each worker's span set nests inside the
    // run (span names are the stable vocabulary of DESIGN.md §12).
    assert!(totals.host.spans.iter().any(|s| s.name == "chunk"));
    assert!(totals.host.spans.iter().all(|s| s.tid < threads as u32));
}
