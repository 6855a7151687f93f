//! Live observability plane for the service stack (DESIGN.md §17).
//!
//! Three jobs, one lock:
//!
//! * **Rolling-window telemetry** — a ring of per-second [`ObsBucket`]s
//!   ([`BucketRing`]) aggregated into 1 s / 10 s / 60 s views. Every
//!   event increments exactly one bucket's [`ServiceTelemetry`] counts;
//!   there is no second copy. Buckets evicted by ring wrap-around are
//!   folded into a `retired` aggregate rather than discarded, so the
//!   lifetime counters *are* `retired ⊕ Σ(live buckets)`: the
//!   reconciliation holds by construction, not by a second set of
//!   increments.
//! * **Request-scoped tracing support** — the monotonic `trace_id`
//!   mint, and the bounded top-K slow-request log fed by the server's
//!   response path (the stage spans themselves ride the existing
//!   `HostSpanLog`/Chrome-trace machinery in `HostTotals`).
//! * **Live exposition** — the `Request::Stats` JSON snapshot and a
//!   hand-rolled Prometheus text exposition, both answered inline by
//!   connection readers so they are never queued and never shed.
//!
//! Everything here is host-side wall clock. Nothing touches the
//! simulated cycle ledgers, so SAM output and every simulated counter
//! stay byte-identical with the plane enabled.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use pimsim::json::{sci, Json, Layout};
use pimsim::{HostEpoch, HostHistogram};

use crate::metrics::{service_section, slow_section};
use crate::report::{ObsTelemetry, ServiceTelemetry, SlowRequest};

use super::protocol::ShedReason;

/// Default rolling-window ring capacity, seconds (`--obs-window`).
pub const DEFAULT_OBS_WINDOW_SECS: u32 = 60;

/// Default watchdog head-of-queue stall threshold, ms
/// (`--watchdog-ms`; 0 disables the watchdog thread).
pub const DEFAULT_WATCHDOG_THRESHOLD_MS: u32 = 1000;

/// Entries kept in the slow-request log (top-K by end-to-end latency).
pub const SLOW_LOG_CAPACITY: usize = 16;

/// One second of service-layer activity: the second's service
/// counters, with `counts.peak_queue_depth` / `counts.peak_inflight_bytes`
/// the high-water gauges observed at admission during the second, and
/// the end-to-end latency of every response recorded in it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsBucket {
    /// The second's counters and high-water gauges.
    pub counts: ServiceTelemetry,
    /// Reads summed over the second's batches (mean width = reads/batches).
    pub batch_reads: u64,
    /// End-to-end latency of every response recorded in the second.
    pub latency: HostHistogram,
}

impl ObsBucket {
    /// Adds `other` into `self`. Counters and histograms add, gauges
    /// take the max — every component is associative and commutative,
    /// so bucket merge order never changes an aggregate (pinned by
    /// test).
    pub fn merge(&mut self, other: &ObsBucket) {
        self.counts.merge(&other.counts);
        self.batch_reads += other.batch_reads;
        self.latency.merge(&other.latency);
    }
}

/// Fixed ring of per-second buckets indexed by absolute epoch second.
/// Slot reuse folds the evicted bucket into `retired`, so
/// `retired ⊕ Σ(live)` ([`BucketRing::cumulative`]) accounts for every
/// event ever recorded, regardless of run length vs window.
///
/// Kept free of clocks on purpose: callers pass the absolute second,
/// which makes the eviction/reconciliation logic directly property-
/// testable with synthetic time.
#[derive(Debug)]
pub struct BucketRing {
    window: usize,
    slots: Vec<ObsBucket>,
    /// Absolute second each slot holds; `u64::MAX` = never used.
    slot_sec: Vec<u64>,
    retired: ObsBucket,
    retired_count: u64,
}

impl BucketRing {
    /// A ring covering `window` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> BucketRing {
        assert!(window > 0, "bucket ring needs at least one slot");
        BucketRing {
            window,
            slots: vec![ObsBucket::default(); window],
            slot_sec: vec![u64::MAX; window],
            retired: ObsBucket::default(),
            retired_count: 0,
        }
    }

    /// Ring capacity, seconds.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Buckets evicted into the retired aggregate so far.
    pub fn retired_count(&self) -> u64 {
        self.retired_count
    }

    /// The live bucket for absolute second `sec`, evicting whatever
    /// previously occupied its slot. O(1); this is the per-event hot
    /// path.
    pub fn bucket_at(&mut self, sec: u64) -> &mut ObsBucket {
        let slot = (sec % self.window as u64) as usize;
        if self.slot_sec[slot] != sec {
            if self.slot_sec[slot] != u64::MAX {
                let old = std::mem::take(&mut self.slots[slot]);
                self.retired.merge(&old);
                self.retired_count += 1;
            }
            self.slots[slot] = ObsBucket::default();
            self.slot_sec[slot] = sec;
        }
        &mut self.slots[slot]
    }

    /// Aggregate over the trailing `secs` seconds ending at `now_sec`
    /// (inclusive). Slots older than the span — possible when traffic
    /// went quiet and nothing recycled them — are filtered by their
    /// recorded second, not their slot position.
    pub fn window_view(&self, now_sec: u64, secs: u64) -> ObsBucket {
        assert!(secs > 0, "window view needs at least one second");
        let lo = now_sec.saturating_sub(secs - 1);
        let mut acc = ObsBucket::default();
        for (i, bucket) in self.slots.iter().enumerate() {
            let at = self.slot_sec[i];
            if at != u64::MAX && at >= lo && at <= now_sec {
                acc.merge(bucket);
            }
        }
        acc
    }

    /// Everything ever recorded: retired aggregate ⊕ all live buckets —
    /// the lifetime counters [`ObsState::lifetime`] reports.
    pub fn cumulative(&self) -> ObsBucket {
        let mut acc = self.retired.clone();
        for (i, bucket) in self.slots.iter().enumerate() {
            if self.slot_sec[i] != u64::MAX {
                acc.merge(bucket);
            }
        }
        acc
    }
}

struct ObsInner {
    ring: BucketRing,
    /// Sorted descending by `total_ns`, truncated to
    /// [`SLOW_LOG_CAPACITY`].
    slow: Vec<SlowRequest>,
    watchdog_stalls: u64,
    watchdog_max_head_age_ms: u64,
    watchdog_threshold_ms: u32,
}

/// The shared observability state: bucket ring + slow log + watchdog
/// verdicts under one mutex, plus the lock-free trace-id mint.
pub struct ObsState {
    epoch: HostEpoch,
    next_trace_id: AtomicU64,
    inner: Mutex<ObsInner>,
}

impl ObsState {
    /// A fresh plane with a `window_secs`-deep ring.
    pub fn new(window_secs: u32, watchdog_threshold_ms: u32) -> ObsState {
        ObsState {
            epoch: HostEpoch::new(),
            next_trace_id: AtomicU64::new(1),
            inner: Mutex::new(ObsInner {
                ring: BucketRing::new(window_secs.max(1) as usize),
                slow: Vec::new(),
                watchdog_stalls: 0,
                watchdog_max_head_age_ms: 0,
                watchdog_threshold_ms,
            }),
        }
    }

    /// Monotonic ns since the plane was created — the time base for
    /// every stage span, so one request's spans line up on one track.
    pub fn now_ns(&self) -> u64 {
        self.epoch.now_ns()
    }

    /// Mints the next request trace id (monotonic from 1; lock-free).
    pub fn mint_trace_id(&self) -> u64 {
        self.next_trace_id.fetch_add(1, Ordering::Relaxed)
    }

    fn with<R>(&self, f: impl FnOnce(&mut ObsInner, u64) -> R) -> R {
        let sec = self.epoch.now_ns() / 1_000_000_000;
        let mut inner = self.inner.lock().expect("obs mutex poisoned");
        f(&mut inner, sec)
    }

    /// Moves the current second's counters.
    fn count(&self, f: impl FnOnce(&mut ServiceTelemetry)) {
        self.with(|inner, sec| f(&mut inner.ring.bucket_at(sec).counts));
    }

    /// An Align request reached admission control.
    pub fn received(&self) {
        self.count(|c| c.received += 1);
    }

    /// A request was admitted; `queue_depth`/`inflight_bytes` are the
    /// post-admission gauges feeding the bucket's high-water marks.
    pub fn accepted(&self, queue_depth: u64, inflight_bytes: u64) {
        self.count(|c| {
            c.accepted += 1;
            c.peak_queue_depth = c.peak_queue_depth.max(queue_depth);
            c.peak_inflight_bytes = c.peak_inflight_bytes.max(inflight_bytes);
        });
    }

    /// A request was shed or rejected at admission: `reason` selects
    /// the bucket counter that moves.
    pub fn not_admitted(&self, reason: ShedReason) {
        self.count(|c| match reason {
            ShedReason::QueueDepth => c.shed_queue_full += 1,
            ShedReason::InflightBytes => c.shed_inflight_bytes += 1,
            ShedReason::Draining => c.rejected_draining += 1,
            ShedReason::Invalid => c.rejected_invalid += 1,
        });
    }

    /// An accepted request expired while queued.
    pub fn expired_in_queue(&self) {
        self.count(|c| c.expired_in_queue += 1);
    }

    /// The batcher issued one `align_chunk_parallel` call over `width`
    /// reads.
    pub fn batch(&self, width: u64) {
        self.with(|inner, sec| {
            let bucket = inner.ring.bucket_at(sec);
            bucket.counts.batches += 1;
            bucket.batch_reads += width;
        });
    }

    /// A read was quarantined into a typed error response.
    pub fn panic_quarantined(&self) {
        self.count(|c| c.panics_quarantined += 1);
    }

    /// A response was written. One call covers the bucket's counters and
    /// latency histogram and the slow-log insertion — single critical
    /// section, so a snapshot can never observe half the update.
    pub fn response(&self, late: bool, entry: SlowRequest) {
        self.with(|inner, sec| {
            let bucket = inner.ring.bucket_at(sec);
            bucket.counts.responses += 1;
            bucket.counts.late_responses += u64::from(late);
            bucket.latency.record_ns(entry.total_ns);
            // Bounded top-K by total latency, sorted descending.
            let pos = inner.slow.partition_point(|s| s.total_ns >= entry.total_ns);
            if pos < SLOW_LOG_CAPACITY {
                inner.slow.insert(pos, entry);
                inner.slow.truncate(SLOW_LOG_CAPACITY);
            }
        });
    }

    /// The watchdog observed the current head-of-queue age (tracks the
    /// high-water mark).
    pub fn watchdog_observe(&self, head_age_ms: u64) {
        self.with(|inner, _| {
            inner.watchdog_max_head_age_ms = inner.watchdog_max_head_age_ms.max(head_age_ms);
        });
    }

    /// The watchdog opened a stall episode; returns the episode count.
    pub fn watchdog_stall(&self, head_age_ms: u64) -> u64 {
        self.with(|inner, _| {
            inner.watchdog_stalls += 1;
            inner.watchdog_max_head_age_ms = inner.watchdog_max_head_age_ms.max(head_age_ms);
            inner.watchdog_stalls
        })
    }

    /// The lifetime service counters: the ring's cumulative counts with
    /// the queue's own high-water marks `(depth, bytes)` folded in.
    pub fn lifetime(&self, queue_peaks: (u64, u64)) -> ServiceTelemetry {
        self.with(|inner, _| lifetime(&inner.ring.cumulative(), queue_peaks))
    }

    /// The drain-time summary destined for `PerfReport.obs`.
    pub fn telemetry(&self) -> ObsTelemetry {
        self.with(|inner, _| ObsTelemetry {
            window_secs: inner.ring.window() as u32,
            buckets_retired: inner.ring.retired_count(),
            watchdog_stalls: inner.watchdog_stalls,
            watchdog_max_head_age_ms: inner.watchdog_max_head_age_ms,
            watchdog_threshold_ms: inner.watchdog_threshold_ms,
            slow: inner.slow.clone(),
        })
    }

    /// The `Request::Stats` JSON snapshot. `queue_peaks` are the
    /// queue's high-water marks `(depth, bytes)` (the server owns the
    /// queue); `queue_depth`/`inflight_bytes` are the live gauges.
    pub fn stats_json(
        &self,
        queue_peaks: (u64, u64),
        queue_depth: u64,
        inflight_bytes: u64,
    ) -> String {
        self.with(|inner, sec| inner.stats_json(sec, queue_peaks, queue_depth, inflight_bytes))
    }

    /// Hand-rolled Prometheus text exposition (version 0.0.4 format) —
    /// counters and the latency histogram from the ring's cumulative
    /// aggregate, gauges from the queue.
    pub fn prometheus_text(&self, queue_depth: u64, inflight_bytes: u64) -> String {
        self.with(|inner, _| {
            let cumulative = inner.ring.cumulative();
            let t = &cumulative.counts;
            let mut out = String::with_capacity(2048);
            out.push_str(
                "# HELP pimserve_requests_total Align requests by admission outcome.\n\
                 # TYPE pimserve_requests_total counter\n",
            );
            for (outcome, n) in [
                ("received", t.received),
                ("accepted", t.accepted),
                ("shed_queue_full", t.shed_queue_full),
                ("shed_inflight_bytes", t.shed_inflight_bytes),
                ("rejected_draining", t.rejected_draining),
                ("rejected_invalid", t.rejected_invalid),
            ] {
                out.push_str(&format!(
                    "pimserve_requests_total{{outcome=\"{outcome}\"}} {n}\n"
                ));
            }
            out.push_str(
                "# HELP pimserve_responses_total Responses written by terminal state.\n\
                 # TYPE pimserve_responses_total counter\n",
            );
            for (state, n) in [
                ("answered", t.responses),
                ("expired_in_queue", t.expired_in_queue),
                ("late", t.late_responses),
                ("panic_quarantined", t.panics_quarantined),
            ] {
                out.push_str(&format!(
                    "pimserve_responses_total{{state=\"{state}\"}} {n}\n"
                ));
            }
            out.push_str(&format!(
                "# HELP pimserve_batches_total align_chunk_parallel calls issued.\n\
                 # TYPE pimserve_batches_total counter\npimserve_batches_total {}\n",
                t.batches
            ));
            out.push_str(&format!(
                "# HELP pimserve_watchdog_stalls_total Batcher stall episodes detected.\n\
                 # TYPE pimserve_watchdog_stalls_total counter\n\
                 pimserve_watchdog_stalls_total {}\n",
                inner.watchdog_stalls
            ));
            out.push_str(&format!(
                "# HELP pimserve_queue_depth Admission queue depth right now.\n\
                 # TYPE pimserve_queue_depth gauge\npimserve_queue_depth {queue_depth}\n"
            ));
            out.push_str(&format!(
                "# HELP pimserve_inflight_bytes In-flight payload bytes right now.\n\
                 # TYPE pimserve_inflight_bytes gauge\npimserve_inflight_bytes {inflight_bytes}\n"
            ));
            out.push_str(
                "# HELP pimserve_request_latency_seconds End-to-end request latency.\n\
                 # TYPE pimserve_request_latency_seconds histogram\n",
            );
            let mut cum = 0u64;
            for (upper_ns, n) in cumulative.latency.nonzero_buckets() {
                cum += n;
                out.push_str(&format!(
                    "pimserve_request_latency_seconds_bucket{{le=\"{}\"}} {cum}\n",
                    sci(upper_ns as f64 * 1e-9)
                ));
            }
            out.push_str(&format!(
                "pimserve_request_latency_seconds_bucket{{le=\"+Inf\"}} {}\n\
                 pimserve_request_latency_seconds_sum {}\n\
                 pimserve_request_latency_seconds_count {}\n",
                cumulative.latency.count(),
                sci(cumulative.latency.sum_ns() as f64 * 1e-9),
                cumulative.latency.count()
            ));
            out
        })
    }
}

impl ObsInner {
    /// The `Stats` snapshot at absolute second `now_sec`.
    ///
    /// Shape (stable, parsed by `pimbench` and the obs tests; leaf paths
    /// pinned by `tests/golden/stats_schema.txt`): `service` (the
    /// metrics document's service section), `cumulative` (ring-derived,
    /// equal to `service`'s counters), `windows.w1|w10|w60`, `gauges`,
    /// `watchdog`, `slow[]`.
    fn stats_json(
        &self,
        now_sec: u64,
        queue_peaks: (u64, u64),
        queue_depth: u64,
        inflight_bytes: u64,
    ) -> String {
        let uptime_secs = now_sec + 1; // current partial second counts as one
        let window = self.ring.window() as u64;
        let cumulative = self.ring.cumulative();
        Json::document(|w| {
            w.u64_fields(&[("uptime_secs", uptime_secs), ("window_secs", window)]);
            service_section(w, &lifetime(&cumulative, queue_peaks));
            w.key("cumulative").object(Layout::Block, |w| {
                bucket_fields(w, &cumulative, uptime_secs);
            });
            w.key("windows").object(Layout::Block, |w| {
                for (key, view) in [("w1", 1), ("w10", 10), ("w60", 60)] {
                    // A view spans no more seconds than the run has lasted
                    // or the ring holds.
                    let secs = view.min(uptime_secs).min(window);
                    let b = self.ring.window_view(now_sec, view);
                    w.key(key)
                        .object(Layout::Block, |w| bucket_fields(w, &b, secs));
                }
            });
            w.key("gauges").object(Layout::Inline, |w| {
                w.u64_fields(&[
                    ("queue_depth", queue_depth),
                    ("inflight_bytes", inflight_bytes),
                ]);
            });
            w.key("watchdog").object(Layout::Inline, |w| {
                w.u64_fields(&[
                    ("stalls", self.watchdog_stalls),
                    ("max_head_age_ms", self.watchdog_max_head_age_ms),
                    ("threshold_ms", u64::from(self.watchdog_threshold_ms)),
                ]);
            });
            slow_section(w, &self.slow);
        })
    }
}

/// The lifetime service counters: `cumulative`'s counts, with the
/// queue's high-water marks `(depth, bytes)` folded in. Those are never
/// lower than the gauges the ring observed at admission.
fn lifetime(cumulative: &ObsBucket, (depth, bytes): (u64, u64)) -> ServiceTelemetry {
    let mut t = cumulative.counts;
    t.peak_queue_depth = t.peak_queue_depth.max(depth);
    t.peak_inflight_bytes = t.peak_inflight_bytes.max(bytes);
    t
}

/// One windowed (or cumulative) bucket's members. `secs` scales the rate
/// fields; every field is always present so the shape is stable for
/// `bench::json` consumers.
fn bucket_fields(w: &mut Json, b: &ObsBucket, secs: u64) {
    let c = &b.counts;
    w.key("secs").u64(secs);
    w.u64_fields(&c.counters());
    w.u64_fields(&[
        ("batch_reads", b.batch_reads),
        ("max_queue_depth", c.peak_queue_depth),
        ("max_inflight_bytes", c.peak_inflight_bytes),
    ]);
    w.key("rps").f64(c.responses as f64 / secs.max(1) as f64);
    let mean_width = if c.batches > 0 {
        b.batch_reads as f64 / c.batches as f64
    } else {
        0.0
    };
    w.key("mean_batch_width").f64(mean_width);
    let h = &b.latency;
    w.key("latency").object(Layout::Inline, |w| {
        w.key("count").u64(h.count());
        w.key("mean_ns").f64(h.mean_ns());
        w.u64_fields(&[
            ("p50_ns", h.quantile_upper_ns(0.50)),
            ("p90_ns", h.quantile_upper_ns(0.90)),
            ("p99_ns", h.quantile_upper_ns(0.99)),
            ("max_ns", h.max_ns()),
        ]);
    });
}

/// Emits one structured `key=value` log record on stderr:
/// `pimserve: event=<event> k=v ...`. Values containing whitespace or
/// quotes are debug-quoted so every record stays a single greppable
/// line, joinable with trace spans via `trace_id=`/`req_id=` keys.
pub fn log_kv(event: &str, fields: &[(&str, String)]) {
    eprintln!("{}", kv_line(event, fields));
}

/// The record [`log_kv`] prints.
fn kv_line(event: &str, fields: &[(&str, String)]) -> String {
    let mut line = format!("pimserve: event={event}");
    for (key, value) in fields {
        let needs_quoting =
            value.is_empty() || value.contains(|c: char| c.is_whitespace() || c == '"');
        if needs_quoting {
            line.push_str(&format!(" {key}={value:?}"));
        } else {
            line.push_str(&format!(" {key}={value}"));
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic LCG so property-style tests need no rand dep.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    fn random_bucket(rng: &mut Lcg) -> ObsBucket {
        let mut b = ObsBucket {
            counts: ServiceTelemetry {
                received: rng.next() % 100,
                accepted: rng.next() % 100,
                shed_queue_full: rng.next() % 10,
                shed_inflight_bytes: rng.next() % 10,
                rejected_draining: rng.next() % 10,
                rejected_invalid: rng.next() % 10,
                expired_in_queue: rng.next() % 10,
                late_responses: rng.next() % 10,
                panics_quarantined: rng.next() % 3,
                batches: rng.next() % 20,
                responses: rng.next() % 100,
                peak_queue_depth: rng.next() % 64,
                peak_inflight_bytes: rng.next() % 4096,
            },
            batch_reads: rng.next() % 400,
            latency: HostHistogram::new(),
        };
        for _ in 0..rng.next() % 8 {
            b.latency.record_ns(rng.next() % 1_000_000);
        }
        b
    }

    #[test]
    fn bucket_merge_is_associative_and_commutative() {
        let mut rng = Lcg(4207);
        for _ in 0..64 {
            let (a, b, c) = (
                random_bucket(&mut rng),
                random_bucket(&mut rng),
                random_bucket(&mut rng),
            );
            // (a ⊕ b) ⊕ c
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            // a ⊕ (b ⊕ c)
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            assert_eq!(left, right, "merge must be associative");
            // a ⊕ b == b ⊕ a
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "merge must be commutative");
        }
    }

    #[test]
    fn ring_cumulative_survives_eviction_exactly() {
        let mut rng = Lcg(99);
        let mut ring = BucketRing::new(8);
        let mut oracle = ObsBucket::default();
        // 200 seconds of traffic through an 8-second ring: most buckets
        // get evicted, the cumulative aggregate must not lose a single
        // event.
        for sec in 0..200u64 {
            let events = rng.next() % 5;
            for _ in 0..events {
                let bucket = ring.bucket_at(sec);
                bucket.counts.accepted += 1;
                bucket.counts.responses += 1;
                bucket.latency.record_ns(rng.next() % 10_000);
                oracle.counts.accepted += 1;
                oracle.counts.responses += 1;
            }
        }
        let cum = ring.cumulative();
        assert_eq!(cum.counts.accepted, oracle.counts.accepted);
        assert_eq!(cum.counts.responses, oracle.counts.responses);
        assert_eq!(cum.latency.count(), oracle.counts.responses);
        assert!(ring.retired_count() > 0, "eviction must have happened");
    }

    #[test]
    fn window_view_filters_stale_slots() {
        let mut ring = BucketRing::new(60);
        ring.bucket_at(3).counts.accepted += 7;
        // 100 quiet seconds later the slot for sec 3 still physically
        // holds its bucket, but no trailing window may count it.
        let now = 103;
        assert_eq!(ring.window_view(now, 1).counts.accepted, 0);
        assert_eq!(ring.window_view(now, 60).counts.accepted, 0);
        assert_eq!(ring.cumulative().counts.accepted, 7);
        // At sec 3 itself every window sees it.
        assert_eq!(ring.window_view(3, 1).counts.accepted, 7);
    }

    /// The text of member `key` in the first object after `section`.
    fn member<'a>(doc: &'a str, section: &str, key: &str) -> &'a str {
        let from = doc.find(section).expect("section present");
        let at = from
            + doc[from..]
                .find(&format!("\"{key}\": "))
                .expect("key present");
        let value = &doc[at + key.len() + 4..];
        &value[..value.find([',', '\n', ' ']).unwrap_or(value.len())]
    }

    #[test]
    fn windows_wider_than_the_ring_report_the_seconds_it_holds() {
        // One response a second for 100 s through a 5-second ring: every
        // view wider than 5 s holds just the last 5 seconds.
        let obs = ObsState::new(5, 0);
        let inner = &mut *obs.inner.lock().unwrap();
        for sec in 0..100 {
            inner.ring.bucket_at(sec).counts.responses += 1;
        }
        let doc = inner.stats_json(99, (0, 0), 0, 0);
        for window in ["\"w10\"", "\"w60\""] {
            assert_eq!(member(&doc, window, "responses"), "5", "{doc}");
            assert_eq!(member(&doc, window, "secs"), "5", "{doc}");
            assert_eq!(member(&doc, window, "rps"), "1.000000e0", "{doc}");
        }
        assert_eq!(member(&doc, "\"w1\"", "rps"), "1.000000e0");
        // The cumulative aggregate spans the whole run: eviction into
        // the retired aggregate loses nothing.
        assert_eq!(inner.ring.retired_count(), 95);
        assert_eq!(member(&doc, "\"cumulative\"", "responses"), "100");
        assert_eq!(member(&doc, "\"cumulative\"", "secs"), "100");
    }

    #[test]
    fn obs_state_reconciles_windows_with_lifetime() {
        let obs = ObsState::new(60, 0);
        obs.received();
        obs.accepted(3, 1024);
        obs.not_admitted(ShedReason::QueueDepth);
        obs.not_admitted(ShedReason::Invalid);
        obs.batch(2);
        obs.response(
            false,
            SlowRequest {
                trace_id: 1,
                req_id: 10,
                total_ns: 5_000,
                ..SlowRequest::default()
            },
        );
        obs.response(
            true,
            SlowRequest {
                trace_id: 2,
                req_id: 11,
                total_ns: 9_000,
                ..SlowRequest::default()
            },
        );
        let lifetime = obs.lifetime((0, 0));
        let doc = obs.stats_json((0, 0), 1, 64);
        // The snapshot must carry every section.
        for key in [
            "\"service\"",
            "\"cumulative\"",
            "\"windows\"",
            "\"gauges\"",
            "\"watchdog\"",
            "\"slow\"",
        ] {
            assert!(doc.contains(key), "missing {key} in {doc}");
        }
        assert_eq!(lifetime.received, 1);
        assert_eq!(lifetime.accepted, 1);
        assert_eq!(lifetime.shed_queue_full, 1);
        assert_eq!(lifetime.rejected_invalid, 1);
        assert_eq!(lifetime.responses, 2);
        assert_eq!(lifetime.late_responses, 1);
        // Cumulative view mirrors the lifetime counters exactly.
        let t = obs.telemetry();
        assert_eq!(t.slow.len(), 2);
        assert_eq!(t.slow[0].total_ns, 9_000, "slow log sorted descending");
    }

    #[test]
    fn slow_log_is_bounded_topk() {
        let obs = ObsState::new(60, 0);
        for i in 0..(SLOW_LOG_CAPACITY as u64 + 20) {
            obs.response(
                false,
                SlowRequest {
                    trace_id: i,
                    req_id: i,
                    total_ns: i * 100,
                    ..SlowRequest::default()
                },
            );
        }
        let t = obs.telemetry();
        assert_eq!(t.slow.len(), SLOW_LOG_CAPACITY);
        // The kept entries are the slowest ones, descending.
        let worst = (SLOW_LOG_CAPACITY as u64 + 19) * 100;
        assert_eq!(t.slow[0].total_ns, worst);
        assert!(t.slow.windows(2).all(|w| w[0].total_ns >= w[1].total_ns));
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let obs = ObsState::new(60, 1000);
        obs.received();
        obs.accepted(1, 48);
        obs.response(
            false,
            SlowRequest {
                trace_id: 1,
                req_id: 1,
                total_ns: 123_456,
                ..SlowRequest::default()
            },
        );
        let text = obs.prometheus_text(0, 0);
        let mut samples = 0;
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment line: {line}"
                );
                continue;
            }
            let (name_part, value) = line.rsplit_once(' ').expect("sample has value");
            let name = name_part.split('{').next().unwrap();
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name: {name}"
            );
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "bad sample value: {line}"
            );
            samples += 1;
        }
        assert!(samples >= 10, "expected a real exposition, got {samples}");
        assert!(text.contains("pimserve_request_latency_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("pimserve_request_latency_seconds_count 1"));
    }

    #[test]
    fn log_kv_quotes_values_with_spaces() {
        let fields = [
            ("port", "7070".to_string()),
            ("error", "bind failed: address in use".to_string()),
            ("peer", String::new()),
            ("name", "say \"hi\"".to_string()),
        ];
        assert_eq!(
            kv_line("listening", &fields),
            "pimserve: event=listening port=7070 error=\"bind failed: address in use\" \
             peer=\"\" name=\"say \\\"hi\\\"\""
        );
    }

    /// Builds a bucket from 14 counter seeds and a latency sample list,
    /// shared by the merge-law properties below.
    fn bucket_from(seeds: &[u16], samples: &[u64]) -> ObsBucket {
        let s = |i: usize| u64::from(seeds[i]);
        let mut b = ObsBucket {
            counts: ServiceTelemetry {
                received: s(0),
                accepted: s(1),
                shed_queue_full: s(2),
                shed_inflight_bytes: s(3),
                rejected_draining: s(4),
                rejected_invalid: s(5),
                expired_in_queue: s(6),
                late_responses: s(7),
                panics_quarantined: s(8),
                batches: s(9),
                responses: s(10),
                peak_queue_depth: s(12),
                peak_inflight_bytes: s(13),
            },
            batch_reads: s(11),
            latency: HostHistogram::default(),
        };
        for &ns in samples {
            b.latency.record_ns(ns);
        }
        b
    }

    mod properties {
        use proptest::collection::vec;
        use proptest::prelude::*;

        use super::*;

        proptest! {
            #[test]
            fn bucket_merge_is_associative(
                sa in vec(any::<u16>(), 14), la in vec(0u64..10_000_000_000, 0..16),
                sb in vec(any::<u16>(), 14), lb in vec(0u64..10_000_000_000, 0..16),
                sc in vec(any::<u16>(), 14), lc in vec(0u64..10_000_000_000, 0..16)
            ) {
                let (a, b, c) = (
                    bucket_from(&sa, &la),
                    bucket_from(&sb, &lb),
                    bucket_from(&sc, &lc),
                );
                let mut left = a.clone();
                left.merge(&b);
                left.merge(&c);
                let mut bc = b.clone();
                bc.merge(&c);
                let mut right = a;
                right.merge(&bc);
                prop_assert_eq!(left, right);
            }

            #[test]
            fn bucket_merge_is_commutative(
                sa in vec(any::<u16>(), 14), la in vec(0u64..10_000_000_000, 0..16),
                sb in vec(any::<u16>(), 14), lb in vec(0u64..10_000_000_000, 0..16)
            ) {
                let (a, b) = (bucket_from(&sa, &la), bucket_from(&sb, &lb));
                let mut ab = a.clone();
                ab.merge(&b);
                let mut ba = b;
                ba.merge(&a);
                prop_assert_eq!(ab, ba);
            }

            /// Whatever second each event lands on — including seconds
            /// far enough apart to evict every live slot many times over
            /// — the ring's `retired ⊕ live` aggregate equals the
            /// straight lifetime sum. This is the exact-reconciliation
            /// law the Stats snapshot and the obs CI gate rely on.
            #[test]
            fn ring_cumulative_equals_lifetime_for_any_event_schedule(
                secs in vec(0u64..500, 1..200),
                kinds in vec(0usize..4, 1..200)
            ) {
                let mut ring = BucketRing::new(8);
                let mut lifetime = ObsBucket::default();
                for (&sec, &kind) in secs.iter().zip(&kinds) {
                    let b = ring.bucket_at(sec);
                    match kind {
                        0 => { b.counts.received += 1; lifetime.counts.received += 1; }
                        1 => { b.counts.accepted += 1; lifetime.counts.accepted += 1; }
                        2 => {
                            b.counts.responses += 1;
                            b.latency.record_ns(sec * 1_000 + 1);
                            lifetime.counts.responses += 1;
                            lifetime.latency.record_ns(sec * 1_000 + 1);
                        }
                        _ => { b.counts.batches += 1; b.batch_reads += 7;
                               lifetime.counts.batches += 1; lifetime.batch_reads += 7; }
                    }
                }
                let cumulative = ring.cumulative();
                prop_assert_eq!(cumulative.counts, lifetime.counts);
                prop_assert_eq!(cumulative.batch_reads, lifetime.batch_reads);
                prop_assert_eq!(cumulative.latency.count(), lifetime.latency.count());
                prop_assert_eq!(cumulative.latency.sum_ns(), lifetime.latency.sum_ns());
            }
        }
    }
}
