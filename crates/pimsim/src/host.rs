//! Host-side runtime telemetry: wall-clock histograms, spans and worker
//! statistics.
//!
//! Everything else in this crate is timestamped in *simulated* cycles of
//! the modelled chip. This module is the deliberate exception: it
//! measures the *host* — how long the simulation itself takes, per read
//! and per chunk, on which worker thread — for the production questions
//! the cycle model cannot answer ("what is the p99 per-read latency on
//! this machine", "which workers are starved"). The two clocks must
//! never be mixed: host numbers are nondeterministic wall-clock
//! nanoseconds and live in their own `host` section of the metrics JSON,
//! while the simulated breakdown stays bit-reproducible (DESIGN.md §12).
//!
//! Components:
//!
//! * [`HostHistogram`] — a mergeable log2-bucketed latency histogram
//!   (merge-associative, so per-worker histograms combine like
//!   `BatchTotals`), with quantile upper bounds accurate to one bucket;
//! * [`HostEpoch`] / [`HostSpan`] / [`HostSpanLog`] — a per-run monotonic
//!   epoch and a bounded per-thread span recorder;
//! * [`WorkerStats`] — utilisation and work-stealing counters threaded
//!   out of the parallel engine;
//! * [`chrome_trace_json`] — the Chrome trace-event exporter behind
//!   `pimalign --trace-out` (one track per worker, viewable in
//!   `chrome://tracing` or Perfetto);
//! * [`peak_rss_bytes`] — the process's resident-set high-water mark,
//!   for the index builder's and `indexbench`'s memory lines.

use std::time::Instant;

use crate::json::{Json, Layout};

/// Histogram buckets: bucket 0 holds the value 0, bucket `i ≥ 1` holds
/// values whose highest set bit is `i - 1`, i.e. `[2^(i-1), 2^i - 1]`.
/// 64 value buckets + the zero bucket cover the full `u64` range.
const HIST_BUCKETS: usize = 65;

/// A mergeable log2-bucketed latency histogram over `u64` nanosecond
/// samples.
///
/// Recording is O(1) (a leading-zeros count); merging is element-wise
/// addition and therefore associative and commutative — merging 8
/// per-worker histograms in any grouping equals recording every sample
/// into one histogram. Quantiles return the *upper bound* of the bucket
/// holding the requested rank, so they match a sorted-vector oracle
/// within one log2 bucket by construction.
///
/// # Examples
///
/// ```
/// use pimsim::HostHistogram;
///
/// let mut h = HostHistogram::new();
/// for ns in [100, 200, 400, 800] {
///     h.record_ns(ns);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.quantile_upper_ns(0.5) >= 200);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostHistogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl HostHistogram {
    /// An empty histogram.
    pub fn new() -> HostHistogram {
        HostHistogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    fn bucket_index(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            64 - ns.leading_zeros() as usize
        }
    }

    /// The largest value bucket `index` can hold (`0` for the zero
    /// bucket, `2^i - 1` otherwise).
    pub fn bucket_upper_ns(index: usize) -> u64 {
        assert!(index < HIST_BUCKETS, "bucket {index} out of range");
        if index == 0 {
            0
        } else {
            u64::MAX >> (64 - index)
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        self.buckets[Self::bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Adds `other`'s samples into `self` (element-wise, associative).
    pub fn merge(&mut self, other: &HostHistogram) {
        for i in 0..HIST_BUCKETS {
            self.buckets[i] += other.buckets[i];
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (saturating), ns.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Largest sample seen, ns (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean sample, ns (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`q` clamped to `[0, 1]`; 0 when empty). The true sample shares
    /// the returned bucket, so the bound is within one log2 bucket of a
    /// sorted-vector oracle.
    pub fn quantile_upper_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the quantile sample in sorted order.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The histogram knows the exact maximum; never report a
                // bucket edge past it.
                return Self::bucket_upper_ns(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Non-empty buckets as `(bucket_upper_ns, count)` rows, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (Self::bucket_upper_ns(i), n))
            .collect()
    }
}

impl Default for HostHistogram {
    fn default() -> Self {
        HostHistogram::new()
    }
}

/// The per-run monotonic time origin every host span is measured from.
///
/// One epoch is created per run (before the index build, so the build
/// shows up at `t ≈ 0` in the trace) and copied into every worker's
/// [`HostSpanLog`]; all spans therefore share one timeline.
#[derive(Debug, Clone, Copy)]
pub struct HostEpoch(Instant);

impl HostEpoch {
    /// An epoch anchored at "now".
    pub fn new() -> HostEpoch {
        HostEpoch(Instant::now())
    }

    /// Monotonic nanoseconds elapsed since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

impl Default for HostEpoch {
    fn default() -> Self {
        HostEpoch::new()
    }
}

/// One wall-clock span on one worker's track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostSpan {
    /// Static label (`"index_build"`, `"chunk"`, `"exact_pass"`, …).
    pub name: &'static str,
    /// Track (worker) id the span belongs to.
    pub tid: u32,
    /// Nanoseconds since the run epoch when the span opened.
    pub start_ns: u64,
    /// Span duration, ns.
    pub dur_ns: u64,
}

/// A bounded wall-clock span recorder for one thread.
///
/// The log keeps the *earliest* spans — a truncated trace still shows
/// the run from its start — and counts everything it refused in
/// [`dropped`](HostSpanLog::dropped).
#[derive(Debug, Clone)]
pub struct HostSpanLog {
    epoch: HostEpoch,
    tid: u32,
    capacity: usize,
    spans: Vec<HostSpan>,
    dropped: u64,
}

impl HostSpanLog {
    /// A recorder for track `tid`, keeping at most `capacity` spans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(epoch: HostEpoch, tid: u32, capacity: usize) -> HostSpanLog {
        assert!(capacity > 0, "span log capacity must be positive");
        HostSpanLog {
            epoch,
            tid,
            capacity,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Opens a span: the current timestamp, ns since the epoch.
    #[inline]
    pub fn start(&self) -> u64 {
        self.epoch.now_ns()
    }

    /// Closes a span opened at `start_ns` and stores it; over capacity
    /// the span is counted as dropped instead.
    #[inline]
    pub fn record(&mut self, name: &'static str, start_ns: u64) {
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        let now = self.epoch.now_ns();
        self.spans.push(HostSpan {
            name,
            tid: self.tid,
            start_ns,
            dur_ns: now.saturating_sub(start_ns),
        });
    }

    /// The shared run epoch.
    pub fn epoch(&self) -> HostEpoch {
        self.epoch
    }

    /// The track id spans are recorded under.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Retained spans, in recording order.
    pub fn spans(&self) -> &[HostSpan] {
        &self.spans
    }

    /// Spans refused because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the log, returning `(spans, dropped)`.
    pub fn into_parts(self) -> (Vec<HostSpan>, u64) {
        (self.spans, self.dropped)
    }
}

/// Utilisation and work-stealing counters for one parallel worker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index (also its trace track id).
    pub worker: u32,
    /// Chunks claimed off the shared cursor.
    pub chunks_claimed: u64,
    /// Chunks claimed beyond the worker's fair share — work stolen from
    /// slower workers under the dynamic-chunking policy.
    pub steals: u64,
    /// Reads this worker aligned.
    pub reads: u64,
    /// Wall-clock ns spent inside chunk alignment (busy time).
    pub busy_ns: u64,
}

impl WorkerStats {
    /// Adds `other`'s counters into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the worker ids differ — stats merge per worker across
    /// chunks, never across workers.
    pub fn merge(&mut self, other: &WorkerStats) {
        assert_eq!(self.worker, other.worker, "stats merge is per worker");
        self.chunks_claimed += other.chunks_claimed;
        self.steals += other.steals;
        self.reads += other.reads;
        self.busy_ns += other.busy_ns;
    }

    /// Fraction of `wall_ns` this worker spent busy (clamped to 1; 0
    /// when the wall time is 0).
    pub fn busy_fraction(&self, wall_ns: u64) -> f64 {
        if wall_ns == 0 {
            0.0
        } else {
            (self.busy_ns as f64 / wall_ns as f64).min(1.0)
        }
    }
}

/// Serialises spans as a Chrome trace-event JSON document (the
/// `chrome://tracing` / Perfetto format): one metadata `thread_name`
/// event per track plus one complete (`"X"`) event per span, timestamps
/// in fractional microseconds since the run epoch.
///
/// `tracks` names every track that should exist even when it recorded no
/// spans (an idle worker still gets its labelled track). Spans are
/// sorted by `(tid, start_ns)` so the document depends only on what was
/// recorded, not on merge order.
pub fn chrome_trace_json(spans: &[HostSpan], tracks: &[(u32, String)]) -> String {
    let mut ordered: Vec<&HostSpan> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.tid, s.start_ns, s.dur_ns));
    Json::document(|w| {
        w.key("displayTimeUnit").str("ms");
        w.key("traceEvents").array(Layout::Block, |w| {
            for (tid, name) in tracks {
                w.object(Layout::Inline, |w| {
                    w.key("name").str("thread_name");
                    w.key("ph").str("M");
                    w.key("pid").u64(1);
                    w.key("tid").u64(u64::from(*tid));
                    w.key("args")
                        .object(Layout::Inline, |w| w.key("name").str(name));
                });
            }
            for s in ordered {
                w.object(Layout::Inline, |w| {
                    w.key("name").str(s.name);
                    w.key("ph").str("X");
                    w.key("pid").u64(1);
                    w.key("tid").u64(u64::from(s.tid));
                    w.key("ts").fixed(s.start_ns as f64 / 1e3, 3);
                    w.key("dur").fixed(s.dur_ns as f64 / 1e3, 3);
                });
            }
        });
    })
}

/// The peak resident set size of this process so far, in bytes: the
/// `VmHWM` line of `/proc/self/status`. `None` where that file or line
/// does not exist (any non-Linux host).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse::<u64>()
        .ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = HostHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.quantile_upper_ns(0.5), 0);
        assert_eq!(h.quantile_upper_ns(0.99), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn bucket_edges_cover_u64() {
        assert_eq!(HostHistogram::bucket_upper_ns(0), 0);
        assert_eq!(HostHistogram::bucket_upper_ns(1), 1);
        assert_eq!(HostHistogram::bucket_upper_ns(2), 3);
        assert_eq!(HostHistogram::bucket_upper_ns(10), 1023);
        assert_eq!(HostHistogram::bucket_upper_ns(64), u64::MAX);
        let mut h = HostHistogram::new();
        h.record_ns(u64::MAX);
        h.record_ns(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max_ns(), u64::MAX);
    }

    #[test]
    fn quantile_bound_brackets_the_sorted_oracle() {
        // Deterministic pseudo-random samples (no RNG dependency).
        let mut h = HostHistogram::new();
        let mut samples: Vec<u64> = (0..1_000u64)
            .map(|i| (i.wrapping_mul(2_654_435_761) % 1_000_000) + 1)
            .collect();
        for &s in &samples {
            h.record_ns(s);
        }
        samples.sort_unstable();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let oracle = samples[rank - 1];
            let bound = h.quantile_upper_ns(q);
            assert!(bound >= oracle, "q={q}: bound {bound} < oracle {oracle}");
            // Same log2 bucket: the bound is less than twice the oracle's
            // bucket lower edge, i.e. strictly within one bucket.
            assert!(
                bound < oracle.saturating_mul(2).max(1),
                "q={q}: bound {bound} beyond one bucket of {oracle}"
            );
        }
    }

    #[test]
    fn merge_is_associative_and_matches_single_recorder() {
        let samples: Vec<u64> = (0..512u64).map(|i| i.wrapping_mul(97) % 10_000).collect();
        let mut whole = HostHistogram::new();
        for &s in &samples {
            whole.record_ns(s);
        }
        // 8 shards merged pairwise in an arbitrary tree order.
        let mut shards: Vec<HostHistogram> = (0..8)
            .map(|w| {
                let mut h = HostHistogram::new();
                for &s in samples.iter().skip(w).step_by(8) {
                    h.record_ns(s);
                }
                h
            })
            .collect();
        while shards.len() > 1 {
            let other = shards.pop().unwrap();
            let mid = shards.len() / 2;
            shards[mid].merge(&other);
        }
        assert_eq!(shards[0], whole);
    }

    #[test]
    fn span_log_keeps_earliest_and_counts_drops() {
        let mut log = HostSpanLog::new(HostEpoch::new(), 3, 2);
        for name in ["a", "b", "c"] {
            let t0 = log.start();
            log.record(name, t0);
        }
        assert_eq!(log.spans().len(), 2);
        assert_eq!(log.spans()[0].name, "a");
        assert_eq!(log.spans()[1].name, "b");
        assert_eq!(log.dropped(), 1);
        assert!(log.spans().iter().all(|s| s.tid == 3));
    }

    #[test]
    fn worker_stats_merge_per_worker() {
        let mut a = WorkerStats {
            worker: 2,
            chunks_claimed: 3,
            steals: 1,
            reads: 40,
            busy_ns: 1_000,
        };
        a.merge(&WorkerStats {
            worker: 2,
            chunks_claimed: 2,
            steals: 0,
            reads: 24,
            busy_ns: 500,
        });
        assert_eq!(a.chunks_claimed, 5);
        assert_eq!(a.reads, 64);
        assert!((a.busy_fraction(3_000) - 0.5).abs() < 1e-12);
        assert_eq!(a.busy_fraction(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "per worker")]
    fn cross_worker_merge_rejected() {
        let mut a = WorkerStats {
            worker: 0,
            ..WorkerStats::default()
        };
        a.merge(&WorkerStats {
            worker: 1,
            ..WorkerStats::default()
        });
    }

    #[test]
    fn chrome_trace_has_tracks_and_spans() {
        let spans = [
            HostSpan {
                name: "chunk",
                tid: 1,
                start_ns: 2_000,
                dur_ns: 500,
            },
            HostSpan {
                name: "index_build",
                tid: 0,
                start_ns: 0,
                dur_ns: 1_500,
            },
        ];
        let json = chrome_trace_json(&spans, &[(0, "worker-0".into()), (1, "worker-1".into())]);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"worker-1\""));
        // Sorted by (tid, start): index_build on tid 0 precedes chunk.
        let build = json.find("index_build").unwrap();
        let chunk = json.find("\"chunk\"").unwrap();
        assert!(build < chunk);
        assert!(json.contains("\"ts\": 2.000"));
        assert!(json.contains("\"dur\": 1.500"));
    }

    #[test]
    fn peak_rss_reflects_touched_memory() {
        // Only meaningful where the kernel reports it.
        let Some(before) = peak_rss_bytes() else {
            return;
        };
        assert!(before > 0);
        let block = std::hint::black_box(vec![1u8; 32 << 20]);
        let after = peak_rss_bytes().expect("reported a moment ago");
        // The kernel's resident counters are batched per CPU, so allow
        // the reading some slack below the 32 MiB just written.
        assert!(after >= (24 << 20), "{before} -> {after}");
        drop(block);
    }
}
