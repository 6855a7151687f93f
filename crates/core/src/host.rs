//! Batch-level aggregation of host-side (wall-clock) telemetry.
//!
//! The per-session pieces live in [`pimsim::host`]; this module merges
//! them across workers and streamed chunks the same way
//! [`BatchTotals`](crate::BatchTotals) merges the simulated ledgers.
//! Host numbers are nondeterministic wall-clock nanoseconds and are kept
//! strictly apart from the simulated-cycle accounting (DESIGN.md §12):
//! they ride in their own [`HostTotals`] field and their own `host`
//! section of the metrics JSON.

use pimsim::{HostEpoch, HostHistogram, HostSpan, WorkerStats};

/// Upper bound on retained trace spans per run; spans beyond it are
/// counted in [`HostTotals::spans_dropped`] rather than growing the
/// buffer without bound on long streaming runs.
pub const MAX_TRACE_SPANS: usize = 65_536;

/// Host-side tracing knobs for a parallel run. Absent (the default in
/// the non-`_traced` entry points) only the always-on histograms and
/// worker stats are collected; present, workers also record wall-clock
/// spans for Chrome-trace export.
#[derive(Debug, Clone, Copy)]
pub struct HostTraceConfig {
    /// The run's shared monotonic time origin; create it before the
    /// index build so the build lands at `t ≈ 0` on the trace.
    pub epoch: HostEpoch,
    /// Span capacity per worker *per chunk*; beyond it spans are counted
    /// as dropped, never silently lost.
    pub capacity_per_worker: usize,
}

impl HostTraceConfig {
    /// A config anchored at `epoch` with the default per-worker span
    /// capacity (4096).
    pub fn new(epoch: HostEpoch) -> HostTraceConfig {
        HostTraceConfig {
            epoch,
            capacity_per_worker: 4096,
        }
    }
}

/// Mergeable wall-clock accounting for a (possibly streamed) parallel
/// run: latency histograms, per-worker utilisation, and optional trace
/// spans. The host analogue of [`BatchTotals`](crate::BatchTotals) —
/// and a field of it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostTotals {
    /// Wall-clock latency of every read (one sample per read, even on
    /// the both-strands path).
    pub per_read: HostHistogram,
    /// Wall-clock latency of every claimed work chunk.
    pub per_chunk: HostHistogram,
    /// End-to-end request latency (admission to response write) for
    /// service runs (`pimserve`); empty for one-shot CLI runs. Unlike
    /// `per_read`, this includes queueing delay — the quantity SLOs are
    /// written against.
    pub per_request: HostHistogram,
    /// Per-worker utilisation, indexed by worker id (merged across
    /// chunks; a worker keeps its id for the whole run).
    pub workers: Vec<WorkerStats>,
    /// Wall-clock ns spent inside parallel regions (summed across
    /// streamed chunks — chunks run back-to-back, so the sum is the
    /// align-phase wall time).
    pub wall_ns: u64,
    /// Collected trace spans (empty unless tracing was enabled).
    pub spans: Vec<HostSpan>,
    /// Spans dropped at any level (per-worker log capacity or the
    /// [`MAX_TRACE_SPANS`] run cap).
    pub spans_dropped: u64,
}

impl HostTotals {
    /// Empty totals, ready to merge into.
    pub fn new() -> HostTotals {
        HostTotals::default()
    }

    /// Records one worker's chunk-level contribution.
    pub fn absorb_worker(&mut self, stats: WorkerStats) {
        match self.workers.iter_mut().find(|w| w.worker == stats.worker) {
            Some(w) => w.merge(&stats),
            None => {
                self.workers.push(stats);
                self.workers.sort_by_key(|w| w.worker);
            }
        }
    }

    /// Appends trace spans, honouring the run cap.
    pub fn absorb_spans(&mut self, spans: Vec<HostSpan>, dropped: u64) {
        self.spans_dropped += dropped;
        let room = MAX_TRACE_SPANS.saturating_sub(self.spans.len());
        if spans.len() > room {
            self.spans_dropped += (spans.len() - room) as u64;
        }
        self.spans.extend(spans.into_iter().take(room));
    }

    /// Accumulates another run segment's totals into this one.
    pub fn merge(&mut self, other: &HostTotals) {
        self.per_read.merge(&other.per_read);
        self.per_chunk.merge(&other.per_chunk);
        self.per_request.merge(&other.per_request);
        for w in &other.workers {
            self.absorb_worker(*w);
        }
        self.wall_ns += other.wall_ns;
        self.absorb_spans(other.spans.clone(), other.spans_dropped);
    }

    /// Mean busy fraction across workers over the parallel-region wall
    /// time (1.0 = perfectly utilised; 0 with no workers or wall time).
    pub fn mean_busy_fraction(&self) -> f64 {
        if self.workers.is_empty() || self.wall_ns == 0 {
            return 0.0;
        }
        self.workers
            .iter()
            .map(|w| w.busy_fraction(self.wall_ns))
            .sum::<f64>()
            / self.workers.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_stats_merge_by_id_and_stay_sorted() {
        let mut t = HostTotals::new();
        t.absorb_worker(WorkerStats {
            worker: 1,
            chunks_claimed: 2,
            steals: 0,
            reads: 10,
            busy_ns: 100,
        });
        t.absorb_worker(WorkerStats {
            worker: 0,
            chunks_claimed: 1,
            steals: 0,
            reads: 5,
            busy_ns: 50,
        });
        t.absorb_worker(WorkerStats {
            worker: 1,
            chunks_claimed: 3,
            steals: 1,
            reads: 12,
            busy_ns: 70,
        });
        assert_eq!(t.workers.len(), 2);
        assert_eq!(t.workers[0].worker, 0);
        assert_eq!(t.workers[1].chunks_claimed, 5);
        assert_eq!(t.workers[1].reads, 22);
    }

    #[test]
    fn span_cap_counts_overflow_as_dropped() {
        let mut t = HostTotals::new();
        let span = HostSpan {
            name: "chunk",
            tid: 0,
            start_ns: 0,
            dur_ns: 1,
        };
        t.absorb_spans(vec![span; MAX_TRACE_SPANS + 5], 2);
        assert_eq!(t.spans.len(), MAX_TRACE_SPANS);
        assert_eq!(t.spans_dropped, 7);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = HostTotals::new();
        a.per_read.record_ns(100);
        a.wall_ns = 500;
        let mut b = HostTotals::new();
        b.per_read.record_ns(200);
        b.per_chunk.record_ns(1_000);
        b.wall_ns = 700;
        b.spans_dropped = 1;
        a.merge(&b);
        assert_eq!(a.per_read.count(), 2);
        assert_eq!(a.per_chunk.count(), 1);
        assert_eq!(a.wall_ns, 1_200);
        assert_eq!(a.spans_dropped, 1);
    }

    #[test]
    fn busy_fraction_averages_over_workers() {
        let mut t = HostTotals::new();
        t.wall_ns = 1_000;
        t.absorb_worker(WorkerStats {
            worker: 0,
            busy_ns: 1_000,
            ..WorkerStats::default()
        });
        t.absorb_worker(WorkerStats {
            worker: 1,
            busy_ns: 500,
            ..WorkerStats::default()
        });
        assert!((t.mean_busy_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(HostTotals::new().mean_busy_fraction(), 0.0);
    }
}
