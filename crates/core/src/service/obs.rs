//! Live observability plane for the service stack (DESIGN.md §17).
//!
//! Three jobs, one lock:
//!
//! * **Rolling-window telemetry** — a ring of per-second [`ObsBucket`]s
//!   ([`BucketRing`]) aggregated into 1 s / 10 s / 60 s views. The ring
//!   and the lifetime [`ServiceTelemetry`] live under a *single* mutex
//!   ([`ObsState`]) so every event updates both in one critical
//!   section: `retired ⊕ Σ(live buckets) == lifetime` holds *exactly*
//!   at any snapshot, never approximately. Buckets evicted by ring
//!   wrap-around are folded into a `retired` aggregate rather than
//!   discarded, which is what makes the reconciliation an invariant
//!   instead of a window-length accident.
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

use pimsim::{HostEpoch, HostHistogram};

use crate::metrics::{json_f64, service_section_json};
use crate::report::{ObsTelemetry, ServiceTelemetry, SlowRequest};

/// Default rolling-window ring capacity, seconds (`--obs-window`).
pub const DEFAULT_OBS_WINDOW_SECS: u32 = 60;

/// Default watchdog head-of-queue stall threshold, ms
/// (`--watchdog-ms`; 0 disables the watchdog thread).
pub const DEFAULT_WATCHDOG_THRESHOLD_MS: u32 = 1000;

/// Entries kept in the slow-request log (top-K by end-to-end latency).
pub const SLOW_LOG_CAPACITY: usize = 16;

/// One second of service-layer activity. Counters mirror the counting
/// fields of [`ServiceTelemetry`] one-for-one (peaks are queue-lifetime
/// quantities and stay out of the ring); gauges record the high-water
/// mark observed during the second; `latency` merges every response's
/// end-to-end latency recorded in the second.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsBucket {
    pub received: u64,
    pub accepted: u64,
    pub shed_queue_full: u64,
    pub shed_inflight_bytes: u64,
    pub rejected_draining: u64,
    pub rejected_invalid: u64,
    pub expired_in_queue: u64,
    pub late_responses: u64,
    pub panics_quarantined: u64,
    pub batches: u64,
    pub responses: u64,
    /// Reads summed over the second's batches (mean width = reads/batches).
    pub batch_reads: u64,
    /// High-water queue depth observed at admission during the second.
    pub max_queue_depth: u64,
    /// High-water in-flight payload bytes observed during the second.
    pub max_inflight_bytes: u64,
    /// End-to-end latency of every response recorded in the second.
    pub latency: HostHistogram,
}

impl ObsBucket {
    /// Adds `other` into `self`. Counters and histograms add, gauges
    /// take the max — every component is associative and commutative,
    /// so bucket merge order never changes an aggregate (pinned by
    /// test).
    pub fn merge(&mut self, other: &ObsBucket) {
        self.received += other.received;
        self.accepted += other.accepted;
        self.shed_queue_full += other.shed_queue_full;
        self.shed_inflight_bytes += other.shed_inflight_bytes;
        self.rejected_draining += other.rejected_draining;
        self.rejected_invalid += other.rejected_invalid;
        self.expired_in_queue += other.expired_in_queue;
        self.late_responses += other.late_responses;
        self.panics_quarantined += other.panics_quarantined;
        self.batches += other.batches;
        self.responses += other.responses;
        self.batch_reads += other.batch_reads;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        self.max_inflight_bytes = self.max_inflight_bytes.max(other.max_inflight_bytes);
        self.latency.merge(&other.latency);
    }

    /// Requests shed by load shedding (either limit).
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full + self.shed_inflight_bytes
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

    /// Everything ever recorded: retired aggregate ⊕ all live buckets.
    /// Field-for-field equal to the lifetime counters when every event
    /// goes through [`ObsState`] (pinned in-process by
    /// `tests/obs_plane.rs` and over the wire by
    /// `tests/pimserve_process.rs`).
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

/// Why admission shed or rejected a request — selects which bucket and
/// lifetime counters one [`ObsState::not_admitted`] call moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    QueueFull,
    InflightBytes,
    Draining,
    Invalid,
}

struct ObsInner {
    lifetime: ServiceTelemetry,
    ring: BucketRing,
    /// Sorted descending by `total_ns`, truncated to
    /// [`SLOW_LOG_CAPACITY`].
    slow: Vec<SlowRequest>,
    watchdog_stalls: u64,
    watchdog_max_head_age_ms: u64,
}

/// The shared observability state: lifetime telemetry + bucket ring +
/// slow log under one mutex, plus the lock-free trace-id mint.
pub struct ObsState {
    epoch: HostEpoch,
    watchdog_threshold_ms: u32,
    next_trace_id: AtomicU64,
    inner: Mutex<ObsInner>,
}

impl ObsState {
    /// A fresh plane with a `window_secs`-deep ring.
    pub fn new(window_secs: u32, watchdog_threshold_ms: u32) -> ObsState {
        ObsState {
            epoch: HostEpoch::new(),
            watchdog_threshold_ms,
            next_trace_id: AtomicU64::new(1),
            inner: Mutex::new(ObsInner {
                lifetime: ServiceTelemetry::default(),
                ring: BucketRing::new(window_secs.max(1) as usize),
                slow: Vec::new(),
                watchdog_stalls: 0,
                watchdog_max_head_age_ms: 0,
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

    /// An Align request reached admission control.
    pub fn received(&self) -> u64 {
        self.with(|inner, sec| {
            inner.lifetime.received += 1;
            inner.ring.bucket_at(sec).received += 1;
            inner.lifetime.received
        })
    }

    /// A request was admitted; `queue_depth`/`inflight_bytes` are the
    /// post-admission gauges feeding the bucket's high-water marks.
    pub fn accepted(&self, queue_depth: u64, inflight_bytes: u64) {
        self.with(|inner, sec| {
            inner.lifetime.accepted += 1;
            let bucket = inner.ring.bucket_at(sec);
            bucket.accepted += 1;
            bucket.max_queue_depth = bucket.max_queue_depth.max(queue_depth);
            bucket.max_inflight_bytes = bucket.max_inflight_bytes.max(inflight_bytes);
        });
    }

    /// A request was shed or rejected at admission.
    pub fn not_admitted(&self, reason: ShedReason) {
        self.with(|inner, sec| {
            let bucket = inner.ring.bucket_at(sec);
            match reason {
                ShedReason::QueueFull => {
                    bucket.shed_queue_full += 1;
                    inner.lifetime.shed_queue_full += 1;
                }
                ShedReason::InflightBytes => {
                    bucket.shed_inflight_bytes += 1;
                    inner.lifetime.shed_inflight_bytes += 1;
                }
                ShedReason::Draining => {
                    bucket.rejected_draining += 1;
                    inner.lifetime.rejected_draining += 1;
                }
                ShedReason::Invalid => {
                    bucket.rejected_invalid += 1;
                    inner.lifetime.rejected_invalid += 1;
                }
            }
        });
    }

    /// An accepted request expired while queued.
    pub fn expired_in_queue(&self) {
        self.with(|inner, sec| {
            inner.lifetime.expired_in_queue += 1;
            inner.ring.bucket_at(sec).expired_in_queue += 1;
        });
    }

    /// The batcher issued one `align_chunk_parallel` call over `width`
    /// reads.
    pub fn batch(&self, width: u64) {
        self.with(|inner, sec| {
            inner.lifetime.batches += 1;
            let bucket = inner.ring.bucket_at(sec);
            bucket.batches += 1;
            bucket.batch_reads += width;
        });
    }

    /// A read was quarantined into a typed error response.
    pub fn panic_quarantined(&self) {
        self.with(|inner, sec| {
            inner.lifetime.panics_quarantined += 1;
            inner.ring.bucket_at(sec).panics_quarantined += 1;
        });
    }

    /// A response was written. One call covers the lifetime counters,
    /// the bucket's latency histogram, and the slow-log insertion —
    /// single critical section, so a snapshot can never observe half
    /// the update.
    pub fn response(&self, late: bool, entry: SlowRequest) {
        self.with(|inner, sec| {
            inner.lifetime.responses += 1;
            if late {
                inner.lifetime.late_responses += 1;
            }
            let bucket = inner.ring.bucket_at(sec);
            bucket.responses += 1;
            if late {
                bucket.late_responses += 1;
            }
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

    /// The lifetime service counters (peaks zero — the queue owns them;
    /// the server folds queue peaks in at snapshot time).
    pub fn lifetime(&self) -> ServiceTelemetry {
        self.with(|inner, _| inner.lifetime)
    }

    /// The drain-time summary destined for `PerfReport.obs`.
    pub fn telemetry(&self) -> ObsTelemetry {
        self.with(|inner, _| ObsTelemetry {
            window_secs: inner.ring.window() as u32,
            buckets_retired: inner.ring.retired_count(),
            watchdog_stalls: inner.watchdog_stalls,
            watchdog_max_head_age_ms: inner.watchdog_max_head_age_ms,
            watchdog_threshold_ms: self.watchdog_threshold_ms,
            slow: inner.slow.clone(),
        })
    }

    /// The `Request::Stats` JSON snapshot. `lifetime_with_peaks` is the
    /// lifetime telemetry with queue peaks folded in (the server owns
    /// the queue); `queue_depth`/`inflight_bytes` are the live gauges.
    ///
    /// Shape (stable, parsed by `pimbench` and the obs tests):
    /// `service` (the schema-v7 service section), `cumulative`
    /// (ring-derived, must equal `service`'s counters exactly),
    /// `windows.w1|w10|w60`, `gauges`, `watchdog`, `slow[]`.
    pub fn stats_json(
        &self,
        lifetime_with_peaks: &ServiceTelemetry,
        queue_depth: u64,
        inflight_bytes: u64,
    ) -> String {
        self.with(|inner, sec| {
            let cumulative = inner.ring.cumulative();
            let uptime_secs = sec + 1; // current partial second counts as one
            let w1 = inner.ring.window_view(sec, 1);
            let w10 = inner.ring.window_view(sec, 10);
            let w60 = inner.ring.window_view(sec, 60);
            let slow_rows = slow_json(&inner.slow, "    ");
            format!(
                "{{\n  \"uptime_secs\": {},\n  \"window_secs\": {},\n  \"service\": {},\n  \
                 \"cumulative\": {},\n  \"windows\": {{\n    \"w1\": {},\n    \"w10\": {},\n    \
                 \"w60\": {}\n  }},\n  \"gauges\": {{ \"queue_depth\": {}, \"inflight_bytes\": {} \
                 }},\n  \"watchdog\": {{ \"stalls\": {}, \"max_head_age_ms\": {}, \
                 \"threshold_ms\": {} }},\n  \"slow\": {}\n}}\n",
                uptime_secs,
                inner.ring.window(),
                indent_block(&service_section_json(lifetime_with_peaks), "  "),
                bucket_json(&cumulative, uptime_secs, "  "),
                bucket_json(&w1, 1, "    "),
                bucket_json(&w10, 10.min(uptime_secs), "    "),
                bucket_json(&w60, 60.min(uptime_secs), "    "),
                queue_depth,
                inflight_bytes,
                inner.watchdog_stalls,
                inner.watchdog_max_head_age_ms,
                self.watchdog_threshold_ms,
                slow_rows,
            )
        })
    }

    /// Hand-rolled Prometheus text exposition (version 0.0.4 format) —
    /// counters from the lifetime telemetry, gauges from the queue,
    /// the latency histogram from the ring's cumulative aggregate.
    pub fn prometheus_text(
        &self,
        lifetime_with_peaks: &ServiceTelemetry,
        queue_depth: u64,
        inflight_bytes: u64,
    ) -> String {
        self.with(|inner, _| {
            let t = lifetime_with_peaks;
            let cumulative = inner.ring.cumulative();
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
                    json_f64(upper_ns as f64 * 1e-9)
                ));
            }
            out.push_str(&format!(
                "pimserve_request_latency_seconds_bucket{{le=\"+Inf\"}} {}\n\
                 pimserve_request_latency_seconds_sum {}\n\
                 pimserve_request_latency_seconds_count {}\n",
                cumulative.latency.count(),
                json_f64(cumulative.latency.sum_ns() as f64 * 1e-9),
                cumulative.latency.count()
            ));
            out
        })
    }
}

/// One windowed (or cumulative) bucket as JSON. `secs` scales the rate
/// fields; every field is always present so the shape is stable for
/// `bench::json` consumers.
fn bucket_json(b: &ObsBucket, secs: u64, indent: &str) -> String {
    let secs_f = secs.max(1) as f64;
    let rps = b.responses as f64 / secs_f;
    let mean_width = if b.batches > 0 {
        b.batch_reads as f64 / b.batches as f64
    } else {
        0.0
    };
    format!(
        "{{\n{i}  \"secs\": {}, \"received\": {}, \"accepted\": {}, \"shed_queue_full\": {}, \
         \"shed_inflight_bytes\": {},\n{i}  \"rejected_draining\": {}, \"rejected_invalid\": {}, \
         \"expired_in_queue\": {}, \"late_responses\": {},\n{i}  \"panics_quarantined\": {}, \
         \"batches\": {}, \"responses\": {}, \"batch_reads\": {},\n{i}  \"max_queue_depth\": {}, \
         \"max_inflight_bytes\": {}, \"rps\": {}, \"mean_batch_width\": {},\n{i}  \"latency\": {{ \
         \"count\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \
         \"max_ns\": {} }}\n{i}}}",
        secs,
        b.received,
        b.accepted,
        b.shed_queue_full,
        b.shed_inflight_bytes,
        b.rejected_draining,
        b.rejected_invalid,
        b.expired_in_queue,
        b.late_responses,
        b.panics_quarantined,
        b.batches,
        b.responses,
        b.batch_reads,
        b.max_queue_depth,
        b.max_inflight_bytes,
        json_f64(rps),
        json_f64(mean_width),
        b.latency.count(),
        json_f64(b.latency.mean_ns()),
        b.latency.quantile_upper_ns(0.50),
        b.latency.quantile_upper_ns(0.90),
        b.latency.quantile_upper_ns(0.99),
        b.latency.max_ns(),
        i = indent,
    )
}

/// The slow-request log as a JSON array (shared by the stats snapshot
/// and the metrics `obs` section).
pub(crate) fn slow_json(slow: &[SlowRequest], indent: &str) -> String {
    if slow.is_empty() {
        return "[]".to_string();
    }
    let rows: Vec<String> = slow
        .iter()
        .map(|s| {
            format!(
                "{indent}  {{ \"trace_id\": {}, \"req_id\": {}, \"total_ns\": {}, \
                 \"admit_ns\": {}, \"queued_ns\": {}, \"batched_ns\": {}, \"aligned_ns\": {}, \
                 \"respond_ns\": {} }}",
                s.trace_id,
                s.req_id,
                s.total_ns,
                s.admit_ns,
                s.queued_ns,
                s.batched_ns,
                s.aligned_ns,
                s.respond_ns
            )
        })
        .collect();
    format!("[\n{}\n{indent}]", rows.join(",\n"))
}

/// Re-indents a multi-line JSON block so it nests under `indent`.
fn indent_block(json: &str, indent: &str) -> String {
    json.trim_end()
        .lines()
        .enumerate()
        .map(|(i, line)| {
            if i == 0 {
                line.to_string()
            } else {
                format!("{indent}{line}")
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
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
            batch_reads: rng.next() % 400,
            max_queue_depth: rng.next() % 64,
            max_inflight_bytes: rng.next() % 4096,
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
                bucket.accepted += 1;
                bucket.responses += 1;
                bucket.latency.record_ns(rng.next() % 10_000);
                oracle.accepted += 1;
                oracle.responses += 1;
            }
        }
        let cum = ring.cumulative();
        assert_eq!(cum.accepted, oracle.accepted);
        assert_eq!(cum.responses, oracle.responses);
        assert_eq!(cum.latency.count(), oracle.responses);
        assert!(ring.retired_count() > 0, "eviction must have happened");
    }

    #[test]
    fn window_view_filters_stale_slots() {
        let mut ring = BucketRing::new(60);
        ring.bucket_at(3).accepted += 7;
        // 100 quiet seconds later the slot for sec 3 still physically
        // holds its bucket, but no trailing window may count it.
        let now = 103;
        assert_eq!(ring.window_view(now, 1).accepted, 0);
        assert_eq!(ring.window_view(now, 60).accepted, 0);
        assert_eq!(ring.cumulative().accepted, 7);
        // At sec 3 itself every window sees it.
        assert_eq!(ring.window_view(3, 1).accepted, 7);
    }

    #[test]
    fn obs_state_reconciles_windows_with_lifetime() {
        let obs = ObsState::new(60, 0);
        obs.received();
        obs.accepted(3, 1024);
        obs.not_admitted(ShedReason::QueueFull);
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
        let lifetime = obs.lifetime();
        let doc = obs.stats_json(&lifetime, 1, 64);
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
        let text = obs.prometheus_text(&obs.lifetime(), 0, 0);
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
            batch_reads: s(11),
            max_queue_depth: s(12),
            max_inflight_bytes: s(13),
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
                        0 => { b.received += 1; lifetime.received += 1; }
                        1 => { b.accepted += 1; lifetime.accepted += 1; }
                        2 => {
                            b.responses += 1;
                            b.latency.record_ns(sec * 1_000 + 1);
                            lifetime.responses += 1;
                            lifetime.latency.record_ns(sec * 1_000 + 1);
                        }
                        _ => { b.batches += 1; b.batch_reads += 7;
                               lifetime.batches += 1; lifetime.batch_reads += 7; }
                    }
                }
                let cumulative = ring.cumulative();
                prop_assert_eq!(cumulative.received, lifetime.received);
                prop_assert_eq!(cumulative.accepted, lifetime.accepted);
                prop_assert_eq!(cumulative.responses, lifetime.responses);
                prop_assert_eq!(cumulative.batches, lifetime.batches);
                prop_assert_eq!(cumulative.batch_reads, lifetime.batch_reads);
                prop_assert_eq!(cumulative.latency.count(), lifetime.latency.count());
                prop_assert_eq!(cumulative.latency.sum_ns(), lifetime.latency.sum_ns());
            }
        }
    }
}
