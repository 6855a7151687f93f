//! The metrics/observability layer behind `PerfReport::breakdown`.
//!
//! Figs. 8–10 of the paper are all derived from *where cycles and energy
//! go*; this module turns the simulator's hierarchical counters
//! ([`pimsim::PrimCounters`], recorded by every logical-op charge) into a
//! reviewable breakdown: per-primitive counts/cycles, per-resource busy
//! cycles, `LFM` attribution per alignment phase, sub-array activations,
//! `IM_ADD` carry cycles, pipeline stage occupancy for the configured
//! `Pd`, and any spans captured by the session tracer.
//!
//! The JSON emitters here are **stable interfaces**: `pimalign
//! --metrics-out` and the `perfdump` bench bin both write
//! [`PerfReport::to_metrics_json`], whose schema is pinned by a
//! golden-file test (`tests/metrics_json.rs`). Change the schema only
//! together with that golden file and its `pimbench` consumer.

use pimsim::costs::LogicalOp;
use pimsim::{CycleLedger, HostHistogram, KernelCacheCounters, Resource, Span, SpanTracer};

use crate::config::PimAlignerConfig;
use crate::host::HostTotals;
use crate::report::{FaultTelemetry, IndexTelemetry, ObsTelemetry, PerfReport, ServiceTelemetry};

/// Version tag embedded in every metrics JSON document.
///
/// v2 added the per-zone activation `heatmap` to the breakdown and the
/// top-level `host` section (wall-clock latency histograms, worker
/// utilisation, trace-span counts). v3 added the top-level `service`
/// section (admission/deadline/panic/drain counters from the `pimserve`
/// service layer, all-zero for one-shot CLI runs) and the
/// `per_request_latency` histogram to the `host` section. v4 added the
/// top-level `index` section (artifact-vs-rebuild provenance, shard
/// geometry, SA sampling rate and the size-model reconciliation,
/// all-zero when the run never described its index). v5 added the
/// batched-kernel scheduler counters to `breakdown.pipeline` (`issued`,
/// `makespan_cycles`, `sequential_cycles`, `overlap_saved_cycles`,
/// all-zero on the single-read kernel path). v6 added
/// `breakdown.kernel_cache` (rank-checkpoint cache `hits`/`misses`/
/// `evictions`/`hit_rate` — host-side counters). v7 added the
/// top-level `obs` section (observability-plane summary:
/// rolling-window ring geometry, watchdog
/// stall verdicts and the bounded slow-request log — all-zero/empty for
/// one-shot CLI runs; the *live* windowed views travel over the wire
/// via `Request::Stats`, not through this document). v8 added
/// `report.published_lfm_calls` (the `LFM` count of the published
/// algorithm, two per interval step, beside the count issued) and the
/// ninth `breakdown.primitives` row, `index_bump` (one per step that
/// issued one `LFM` for the published two: a one-row step then, a
/// word-line step now). v9 added the tenth row, `seed_read` (one per
/// seed-table read; a run's time is `lfm_calls + seed_read.count` issue
/// slots, and `published_lfm_calls` counts two more for every interval
/// step a read stood in for, and for every alternative a search saw was
/// empty without issuing it — neither count is in the document; on
/// error-free reads the second is zero). v10 added
/// `report.seed_corrections` (seed-table reads a short suffix of the text
/// moved a boundary of, each one `index_bump` that `published_lfm_calls`
/// does not count). Each version only *adds* paths, so consumers that
/// address fields by name keep working across versions.
pub const METRICS_SCHEMA_VERSION: u32 = 10;

/// `LFM` invocations attributed to the alignment phase that issued them.
///
/// `exact`/`inexact` cover the primary two-stage pass; the recovery
/// counters cover re-runs issued by the verify-and-recover ladder
/// (DESIGN.md §8). The total always equals the batch's `lfm_calls`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseLfm {
    /// Stage-1 exact search (Algorithm 1) of the primary pass.
    pub exact: u64,
    /// Stage-2 inexact backtracking (Algorithm 2) of the primary pass.
    pub inexact: u64,
    /// Same-budget recovery retries (both stages of the re-run).
    pub recovery_retry: u64,
    /// Difference-budget escalation rungs (both stages of the re-run).
    pub recovery_escalate: u64,
}

impl PhaseLfm {
    /// Sum over all phases; reconciles with the batch `lfm_calls`.
    pub fn total(&self) -> u64 {
        self.exact + self.inexact + self.recovery_retry + self.recovery_escalate
    }

    /// Adds `other`'s counts into `self` (parallel worker merge).
    pub fn merge(&mut self, other: &PhaseLfm) {
        self.exact += other.exact;
        self.inexact += other.inexact;
        self.recovery_retry += other.recovery_retry;
        self.recovery_escalate += other.recovery_escalate;
    }
}

/// One primitive's row in the breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrimitiveMetrics {
    /// Stable snake-case primitive label ([`LogicalOp::name`]).
    pub name: &'static str,
    /// The resource class the primitive occupies ([`Resource::name`]).
    pub resource: &'static str,
    /// Primitives issued.
    pub count: u64,
    /// Busy cycles occupied.
    pub busy_cycles: u64,
}

/// One resource class's busy-cycle total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceMetrics {
    /// Stable resource label ([`Resource::name`]).
    pub name: &'static str,
    /// Busy cycles attributed to the resource.
    pub busy_cycles: u64,
}

/// Steady-state pipeline stage occupancy for the configured `Pd`
/// (Fig. 7 model): the fraction of each `LFM` issue interval the compare
/// stage and the adder copies are busy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageOccupancy {
    /// Parallelism degree.
    pub pd: usize,
    /// Steady-state cycles per `LFM` at this `Pd`.
    pub cycles_per_lfm: f64,
    /// Compare-stage cycles per `LFM`.
    pub stage_a_cycles: u64,
    /// Inter-sub-array transfer cycles per `LFM` (method-II only).
    pub transfer_cycles: u64,
    /// Add-stage cycles per `LFM`.
    pub stage_b_cycles: u64,
    /// Compare-stage occupancy, percent of the issue interval.
    pub compare_occupancy_pct: f64,
    /// Adder-copy occupancy (transfer + add per copy), percent.
    pub adder_occupancy_pct: f64,
    /// LFM issues the batched kernel routed through the stage-queue
    /// scheduler (0 on the single-read path, which has no overlap).
    pub issued: u64,
    /// Scheduled makespan of those issues (simulated cycles).
    pub makespan_cycles: u64,
    /// What the same issues would cost fully serialised.
    pub sequential_cycles: u64,
    /// Cycles the `Pd` overlap hid (`sequential - makespan`).
    pub overlap_saved_cycles: u64,
}

/// The hierarchical cycle/energy breakdown of one simulated batch.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsBreakdown {
    /// Per-primitive rows, in [`LogicalOp::ALL`] order.
    pub primitives: Vec<PrimitiveMetrics>,
    /// Per-resource busy-cycle totals, in [`Resource::ALL`] order.
    pub resources: Vec<ResourceMetrics>,
    /// The ledger's resource-level busy-cycle aggregate.
    pub total_busy_cycles: u64,
    /// Sum of the per-primitive busy cycles. Equals
    /// [`total_busy_cycles`](MetricsBreakdown::total_busy_cycles) by
    /// construction: both are priced from the ledger's op counts.
    pub primitive_cycles_total: u64,
    /// Total dynamic energy, pJ.
    pub energy_pj: f64,
    /// Word-line-driving primitives issued to sub-arrays.
    pub subarray_activations: u64,
    /// Non-overlapped `IM_ADD` carry/write-back cycles.
    pub im_add_carry_cycles: u64,
    /// Total `LFM` invocations.
    pub lfm_calls: u64,
    /// `LFM` attribution per alignment phase (zero for synthetic
    /// ledgers that never ran the aligner).
    pub lfm_by_phase: PhaseLfm,
    /// Pipeline stage occupancy at the configured `Pd`.
    pub pipeline: StageOccupancy,
    /// Rank-checkpoint cache totals (host-side hit/miss/eviction
    /// counts; all-zero when the cache is disabled).
    pub kernel_cache: KernelCacheCounters,
    /// One-time index mapping cost (busy cycles); 0 when not attached.
    pub index_build_cycles: u64,
    /// Spans captured by the session tracer (empty when disabled or for
    /// merged multi-worker reports).
    pub spans: Vec<Span>,
    /// Spans lost to ring overwrite.
    pub spans_dropped: u64,
    /// Per-zone activation heatmap (primary sub-arrays first, then
    /// method-II mirrors), accumulated by the charge sites that know
    /// their target. Sums to at most
    /// [`subarray_activations`](MetricsBreakdown::subarray_activations):
    /// SA locate reads activate an array but are not zone-attributed.
    pub zone_activations: Vec<u64>,
}

impl MetricsBreakdown {
    /// Builds the breakdown from a batch ledger. Phase attribution,
    /// index-build cost and spans are attached afterwards by the session
    /// or platform report path.
    pub fn from_ledger(
        config: &PimAlignerConfig,
        ledger: &CycleLedger,
        lfm_calls: u64,
    ) -> MetricsBreakdown {
        let prims = ledger.primitives();
        let primitives: Vec<PrimitiveMetrics> = LogicalOp::ALL
            .iter()
            .map(|&op| PrimitiveMetrics {
                name: op.name(),
                resource: op.resource().name(),
                count: prims.count(op),
                busy_cycles: prims.cycles(op),
            })
            .collect();
        let resources: Vec<ResourceMetrics> = Resource::ALL
            .iter()
            .map(|&r| ResourceMetrics {
                name: r.name(),
                busy_cycles: ledger.busy_cycles(r),
            })
            .collect();

        let pipeline = config.pipeline();
        let pd = config.pd();
        let rate = pipeline.cycles_per_lfm(pd);
        let adder_busy = if pd == 1 {
            pipeline.stage_b_cycles as f64
        } else {
            pipeline.transfer_cycles as f64 + pipeline.stage_b_cycles as f64 / (pd as f64 - 1.0)
        };
        let scheduled = ledger.pipeline_counters();
        let occupancy = StageOccupancy {
            pd,
            cycles_per_lfm: rate,
            stage_a_cycles: pipeline.stage_a_cycles,
            transfer_cycles: pipeline.transfer_cycles,
            stage_b_cycles: pipeline.stage_b_cycles,
            compare_occupancy_pct: 100.0 * (pipeline.stage_a_cycles as f64 / rate).min(1.0),
            adder_occupancy_pct: 100.0 * (adder_busy / rate).min(1.0),
            issued: scheduled.issued,
            makespan_cycles: scheduled.makespan_cycles,
            sequential_cycles: scheduled.sequential_cycles,
            overlap_saved_cycles: scheduled.overlap_saved_cycles(),
        };

        MetricsBreakdown {
            primitives,
            resources,
            total_busy_cycles: ledger.total_busy_cycles(),
            primitive_cycles_total: prims.total_cycles(),
            energy_pj: ledger.energy_pj(config.model()),
            subarray_activations: prims.subarray_activations(),
            im_add_carry_cycles: prims.im_add_carry_cycles(),
            lfm_calls,
            lfm_by_phase: PhaseLfm::default(),
            pipeline: occupancy,
            kernel_cache: ledger.kernel_cache_counters(),
            index_build_cycles: 0,
            spans: Vec::new(),
            spans_dropped: 0,
            zone_activations: ledger.zone_activations().to_vec(),
        }
    }

    /// Attaches the spans harvested from a session tracer.
    pub fn attach_spans(&mut self, tracer: &SpanTracer) {
        self.spans = tracer.spans();
        self.spans_dropped = tracer.dropped();
    }

    /// `true` when the per-primitive cycle total equals the
    /// resource-level aggregate. Always so for a breakdown
    /// [`from_ledger`](MetricsBreakdown::from_ledger) built; a check on
    /// one whose public fields were filled some other way.
    pub fn reconciles(&self) -> bool {
        self.primitive_cycles_total == self.total_busy_cycles
    }

    /// The breakdown object as stable JSON (no trailing newline).
    pub fn to_json(&self) -> String {
        let prim_rows = self
            .primitives
            .iter()
            .map(|p| {
                format!(
                    "      {{ \"name\": \"{}\", \"resource\": \"{}\", \"count\": {}, \
                     \"busy_cycles\": {} }}",
                    p.name, p.resource, p.count, p.busy_cycles
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let res_rows = self
            .resources
            .iter()
            .map(|r| {
                format!(
                    "      {{ \"name\": \"{}\", \"busy_cycles\": {} }}",
                    r.name, r.busy_cycles
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let span_rows = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "      {{ \"name\": \"{}\", \"start_cycles\": {}, \"end_cycles\": {} }}",
                    s.name, s.start_cycles, s.end_cycles
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let spans_json = if self.spans.is_empty() {
            "[]".to_owned()
        } else {
            format!("[\n{span_rows}\n    ]")
        };
        let zone_rows = self
            .zone_activations
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        let p = &self.pipeline;
        format!(
            "{{\n    \
             \"total_busy_cycles\": {},\n    \
             \"primitive_cycles_total\": {},\n    \
             \"energy_pj\": {},\n    \
             \"subarray_activations\": {},\n    \
             \"im_add_carry_cycles\": {},\n    \
             \"lfm_calls\": {},\n    \
             \"index_build_cycles\": {},\n    \
             \"primitives\": [\n{}\n    ],\n    \
             \"resources\": [\n{}\n    ],\n    \
             \"lfm_by_phase\": {{ \"exact\": {}, \"inexact\": {}, \"recovery_retry\": {}, \
             \"recovery_escalate\": {} }},\n    \
             \"pipeline\": {{ \"pd\": {}, \"cycles_per_lfm\": {}, \"stage_a_cycles\": {}, \
             \"transfer_cycles\": {}, \"stage_b_cycles\": {}, \"compare_occupancy_pct\": {}, \
             \"adder_occupancy_pct\": {}, \"issued\": {}, \"makespan_cycles\": {}, \
             \"sequential_cycles\": {}, \"overlap_saved_cycles\": {} }},\n    \
             \"kernel_cache\": {{ \"hits\": {}, \"misses\": {}, \"evictions\": {}, \
             \"hit_rate\": {} }},\n    \
             \"spans\": {},\n    \
             \"spans_dropped\": {},\n    \
             \"heatmap\": {{ \"zones\": {}, \"activations\": [{}] }}\n  }}",
            self.total_busy_cycles,
            self.primitive_cycles_total,
            json_f64(self.energy_pj),
            self.subarray_activations,
            self.im_add_carry_cycles,
            self.lfm_calls,
            self.index_build_cycles,
            prim_rows,
            res_rows,
            self.lfm_by_phase.exact,
            self.lfm_by_phase.inexact,
            self.lfm_by_phase.recovery_retry,
            self.lfm_by_phase.recovery_escalate,
            p.pd,
            json_f64(p.cycles_per_lfm),
            p.stage_a_cycles,
            p.transfer_cycles,
            p.stage_b_cycles,
            json_f64(p.compare_occupancy_pct),
            json_f64(p.adder_occupancy_pct),
            p.issued,
            p.makespan_cycles,
            p.sequential_cycles,
            p.overlap_saved_cycles,
            self.kernel_cache.hits,
            self.kernel_cache.misses,
            self.kernel_cache.evictions,
            json_f64(self.kernel_cache.hit_rate()),
            spans_json,
            self.spans_dropped,
            self.zone_activations.len(),
            zone_rows,
        )
    }
}

impl PerfReport {
    /// The full metrics document — batch report, fault telemetry and the
    /// cycle breakdown — as stable JSON (schema pinned by the golden
    /// test; ends with a newline).
    pub fn to_metrics_json(&self) -> String {
        format!(
            "{{\n  \"schema_version\": {},\n  \"report\": {},\n  \"faults\": {},\n  \
             \"breakdown\": {},\n  \"host\": {},\n  \"service\": {},\n  \"index\": {},\n  \
             \"obs\": {}\n}}\n",
            METRICS_SCHEMA_VERSION,
            report_json(self),
            faults_json(&self.faults),
            self.breakdown.to_json(),
            host_section_json(&self.host),
            service_section_json(&self.service),
            index_section_json(&self.index),
            obs_section_json(&self.obs),
        )
    }
}

/// The `obs` section of the metrics document (schema v7): the drain-time
/// summary of the live observability plane — rolling-window ring
/// geometry, watchdog verdicts and the bounded slow-request log.
/// All-zero/empty for one-shot CLI runs, which never start the plane.
pub fn obs_section_json(o: &ObsTelemetry) -> String {
    format!(
        "{{\n    \
         \"window_secs\": {},\n    \
         \"buckets_retired\": {},\n    \
         \"watchdog_stalls\": {},\n    \
         \"watchdog_max_head_age_ms\": {},\n    \
         \"watchdog_threshold_ms\": {},\n    \
         \"slow\": {}\n  }}",
        o.window_secs,
        o.buckets_retired,
        o.watchdog_stalls,
        o.watchdog_max_head_age_ms,
        o.watchdog_threshold_ms,
        crate::service::obs::slow_json(&o.slow, "    "),
    )
}

/// The `index` section of the metrics document (schema v4): where the
/// index came from (artifact vs in-process build), the shard geometry,
/// the SA sampling rate, and the actual-vs-modelled storage bytes.
/// All-zero for callers that never described their index.
pub fn index_section_json(ix: &IndexTelemetry) -> String {
    format!(
        "{{\n    \
         \"loaded\": {},\n    \
         \"shards\": {},\n    \
         \"sa_rate\": {},\n    \
         \"shard_window\": {},\n    \
         \"shard_overlap\": {},\n    \
         \"actual_bytes\": {},\n    \
         \"model_bytes\": {}\n  }}",
        ix.loaded,
        ix.shards,
        ix.sa_rate,
        ix.shard_window,
        ix.shard_overlap,
        ix.actual_bytes,
        ix.model_bytes,
    )
}

/// The `service` section of the metrics document: the admission-control,
/// deadline, panic-quarantine and drain counters a `pimserve` run
/// produced (all-zero for one-shot CLI runs, which never touch the
/// service layer). Shared by [`PerfReport::to_metrics_json`] and the
/// service drain path, which must emit counters even when zero reads
/// aligned.
pub fn service_section_json(s: &ServiceTelemetry) -> String {
    format!(
        "{{\n    \
         \"received\": {},\n    \
         \"accepted\": {},\n    \
         \"shed_queue_full\": {},\n    \
         \"shed_inflight_bytes\": {},\n    \
         \"rejected_draining\": {},\n    \
         \"rejected_invalid\": {},\n    \
         \"expired_in_queue\": {},\n    \
         \"late_responses\": {},\n    \
         \"deadline_misses\": {},\n    \
         \"panics_quarantined\": {},\n    \
         \"batches\": {},\n    \
         \"responses\": {},\n    \
         \"peak_queue_depth\": {},\n    \
         \"peak_inflight_bytes\": {}\n  }}",
        s.received,
        s.accepted,
        s.shed_queue_full,
        s.shed_inflight_bytes,
        s.rejected_draining,
        s.rejected_invalid,
        s.expired_in_queue,
        s.late_responses,
        s.deadline_misses(),
        s.panics_quarantined,
        s.batches,
        s.responses,
        s.peak_queue_depth,
        s.peak_inflight_bytes,
    )
}

/// The `host` section of the metrics document: wall-clock latency
/// histograms, worker utilisation and trace-span counts. Everything here
/// is host time — nondeterministic across runs and machines — which is
/// why it lives in its own top-level section, never mixed into the
/// simulated `report`/`breakdown` quantities (DESIGN.md §12).
fn host_section_json(host: &HostTotals) -> String {
    let worker_rows = host
        .workers
        .iter()
        .map(|w| {
            format!(
                "      {{ \"worker\": {}, \"chunks_claimed\": {}, \"steals\": {}, \
                 \"reads\": {}, \"busy_ns\": {}, \"busy_pct\": {} }}",
                w.worker,
                w.chunks_claimed,
                w.steals,
                w.reads,
                w.busy_ns,
                json_f64(100.0 * w.busy_fraction(host.wall_ns)),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let workers_json = if host.workers.is_empty() {
        "[]".to_owned()
    } else {
        format!("[\n{worker_rows}\n    ]")
    };
    format!(
        "{{\n    \
         \"wall_ns\": {},\n    \
         \"per_read_latency\": {},\n    \
         \"per_chunk_latency\": {},\n    \
         \"per_request_latency\": {},\n    \
         \"workers\": {},\n    \
         \"trace_spans\": {},\n    \
         \"trace_spans_dropped\": {}\n  }}",
        host.wall_ns,
        histogram_json(&host.per_read),
        histogram_json(&host.per_chunk),
        histogram_json(&host.per_request),
        workers_json,
        host.spans.len(),
        host.spans_dropped,
    )
}

/// One latency histogram as JSON: summary stats, log2-bucket quantile
/// upper bounds, and the sparse list of non-empty buckets.
fn histogram_json(h: &HostHistogram) -> String {
    let buckets = h
        .nonzero_buckets()
        .iter()
        .map(|&(le_ns, count)| format!("{{ \"le_ns\": {le_ns}, \"count\": {count} }}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{ \"count\": {}, \"sum_ns\": {}, \"max_ns\": {}, \"mean_ns\": {}, \
         \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"buckets\": [{}] }}",
        h.count(),
        h.sum_ns(),
        h.max_ns(),
        json_f64(h.mean_ns()),
        h.quantile_upper_ns(0.5),
        h.quantile_upper_ns(0.9),
        h.quantile_upper_ns(0.99),
        buckets,
    )
}

fn report_json(r: &PerfReport) -> String {
    format!(
        "{{ \"queries\": {}, \"lfm_calls\": {}, \"published_lfm_calls\": {}, \
         \"seed_corrections\": {}, \"time_s\": {}, \"throughput_qps\": {}, \
         \"dynamic_power_w\": {}, \"total_power_w\": {}, \"energy_per_query_j\": {}, \
         \"mbr_pct\": {}, \"rur_pct\": {}, \"area_mm2\": {}, \"offchip_gb\": {}, \
         \"throughput_per_watt\": {}, \"throughput_per_watt_mm2\": {} }}",
        r.queries,
        r.lfm_calls,
        r.published_lfm_calls,
        r.seed_corrections,
        json_f64(r.time_s),
        json_f64(r.throughput_qps),
        json_f64(r.dynamic_power_w),
        json_f64(r.total_power_w),
        json_f64(r.energy_per_query_j),
        json_f64(r.mbr_pct),
        json_f64(r.rur_pct),
        json_f64(r.area_mm2),
        json_f64(r.offchip_gb),
        json_f64(r.throughput_per_watt),
        json_f64(r.throughput_per_watt_mm2),
    )
}

fn faults_json(t: &FaultTelemetry) -> String {
    format!(
        "{{ \"stuck_cells\": {}, \"xnor_bit_flips\": {}, \"transient_row_faults\": {}, \
         \"carry_faults\": {}, \"verifications\": {}, \"verify_failures\": {}, \
         \"retries\": {}, \"escalations\": {}, \"host_fallbacks\": {}, \
         \"unrecoverable\": {} }}",
        t.stuck_cells,
        t.xnor_bit_flips,
        t.transient_row_faults,
        t.carry_faults,
        t.verifications,
        t.verify_failures,
        t.retries,
        t.escalations,
        t.host_fallbacks,
        t.unrecoverable,
    )
}

/// Deterministic JSON float formatting: scientific notation with six
/// significant decimals (finite values only; the simulator never
/// produces NaN/inf).
pub(crate) fn json_f64(x: f64) -> String {
    debug_assert!(x.is_finite(), "metrics JSON requires finite floats");
    if x == 0.0 {
        "0.0".to_owned()
    } else {
        format!("{x:.6e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mram::array::ArrayModel;
    use pimsim::costs;

    fn synthetic_ledger(lfms: u64) -> CycleLedger {
        let model = ArrayModel::default();
        let mut ledger = CycleLedger::new();
        for _ in 0..lfms {
            costs::charge_lfm(&model, &mut ledger);
        }
        ledger
    }

    #[test]
    fn breakdown_reconciles_for_logical_op_ledgers() {
        let config = PimAlignerConfig::baseline();
        let ledger = synthetic_ledger(10);
        let b = MetricsBreakdown::from_ledger(&config, &ledger, 10);
        assert!(
            b.reconciles(),
            "prim cycles {} vs busy {}",
            b.primitive_cycles_total,
            b.total_busy_cycles
        );
        assert_eq!(b.total_busy_cycles, 760);
        // One LFM = 1 xnor + 1 popcount + 1 marker read + 1 add + 1 update.
        let by_name = |n: &str| b.primitives.iter().find(|p| p.name == n).unwrap();
        assert_eq!(by_name("xnor_match").count, 10);
        assert_eq!(by_name("im_add32").count, 10);
        assert_eq!(by_name("im_add32").busy_cycles, 450);
        assert_eq!(b.im_add_carry_cycles, 130);
        // xnor + marker read + add activate; popcount + update do not.
        assert_eq!(b.subarray_activations, 30);
    }

    #[test]
    fn occupancy_matches_pipeline_model() {
        let ledger = synthetic_ledger(1);
        let n = MetricsBreakdown::from_ledger(&PimAlignerConfig::baseline(), &ledger, 1);
        assert_eq!(n.pipeline.pd, 1);
        assert!((n.pipeline.compare_occupancy_pct - 100.0 * 29.0 / 76.0).abs() < 1e-9);
        assert!((n.pipeline.adder_occupancy_pct - 100.0 * 47.0 / 76.0).abs() < 1e-9);
        let p = MetricsBreakdown::from_ledger(&PimAlignerConfig::pipelined(), &ledger, 1);
        assert_eq!(p.pipeline.pd, 2);
        // Pd=2: adder copy binds (transfer 7 + add 47 = 54 = issue rate).
        assert!((p.pipeline.adder_occupancy_pct - 100.0).abs() < 1e-9);
        assert!((p.pipeline.compare_occupancy_pct - 100.0 * 29.0 / 54.0).abs() < 1e-9);
    }

    #[test]
    fn phase_lfm_merge_and_total() {
        let mut a = PhaseLfm {
            exact: 10,
            inexact: 4,
            recovery_retry: 2,
            recovery_escalate: 1,
        };
        let b = PhaseLfm {
            exact: 5,
            inexact: 0,
            recovery_retry: 3,
            recovery_escalate: 0,
        };
        a.merge(&b);
        assert_eq!(a.exact, 15);
        assert_eq!(a.recovery_retry, 5);
        assert_eq!(a.total(), 25);
    }

    #[test]
    fn json_floats_are_deterministic_and_finite() {
        assert_eq!(json_f64(0.0), "0.0");
        assert_eq!(json_f64(1234.5), "1.234500e3");
        assert_eq!(json_f64(-0.25), "-2.500000e-1");
    }

    #[test]
    fn breakdown_json_contains_every_section() {
        let ledger = synthetic_ledger(3);
        let b = MetricsBreakdown::from_ledger(&PimAlignerConfig::pipelined(), &ledger, 3);
        let json = b.to_json();
        for key in [
            "\"total_busy_cycles\"",
            "\"primitive_cycles_total\"",
            "\"energy_pj\"",
            "\"subarray_activations\"",
            "\"im_add_carry_cycles\"",
            "\"primitives\"",
            "\"resources\"",
            "\"lfm_by_phase\"",
            "\"pipeline\"",
            "\"kernel_cache\"",
            "\"hit_rate\"",
            "\"spans\"",
            "\"spans_dropped\"",
            "\"heatmap\"",
            "\"xnor_match\"",
            "\"compare_occupancy_pct\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn service_section_reports_every_counter() {
        let s = ServiceTelemetry {
            received: 12,
            accepted: 9,
            shed_queue_full: 2,
            shed_inflight_bytes: 1,
            expired_in_queue: 1,
            late_responses: 1,
            panics_quarantined: 1,
            batches: 3,
            responses: 9,
            peak_queue_depth: 6,
            peak_inflight_bytes: 4_096,
            ..ServiceTelemetry::default()
        };
        let json = service_section_json(&s);
        for key in [
            "\"received\": 12",
            "\"shed_queue_full\": 2",
            "\"shed_inflight_bytes\": 1",
            "\"deadline_misses\": 2",
            "\"panics_quarantined\": 1",
            "\"peak_queue_depth\": 6",
            "\"peak_inflight_bytes\": 4096",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // The quiet default still emits every field (stable schema).
        let quiet = service_section_json(&ServiceTelemetry::default());
        assert!(quiet.contains("\"received\": 0"));
        assert!(quiet.contains("\"deadline_misses\": 0"));
    }

    #[test]
    fn index_section_reports_every_field() {
        let ix = IndexTelemetry {
            loaded: true,
            shards: 3,
            sa_rate: 8,
            shard_window: 65_536,
            shard_overlap: 256,
            actual_bytes: 123_456,
            model_bytes: 123_400,
        };
        let json = index_section_json(&ix);
        for key in [
            "\"loaded\": true",
            "\"shards\": 3",
            "\"sa_rate\": 8",
            "\"shard_window\": 65536",
            "\"shard_overlap\": 256",
            "\"actual_bytes\": 123456",
            "\"model_bytes\": 123400",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // The quiet default still emits every field (stable schema).
        let quiet = index_section_json(&IndexTelemetry::default());
        assert!(quiet.contains("\"loaded\": false"));
        assert!(quiet.contains("\"shards\": 0"));
    }

    #[test]
    fn host_section_carries_histograms_and_workers() {
        use pimsim::WorkerStats;
        let mut host = HostTotals::new();
        host.wall_ns = 2_000;
        host.per_read.record_ns(150);
        host.per_read.record_ns(900);
        host.per_chunk.record_ns(1_800);
        host.absorb_worker(WorkerStats {
            worker: 0,
            chunks_claimed: 2,
            steals: 1,
            reads: 2,
            busy_ns: 1_900,
        });
        let json = host_section_json(&host);
        for key in [
            "\"wall_ns\": 2000",
            "\"per_read_latency\"",
            "\"per_chunk_latency\"",
            "\"p99_ns\"",
            "\"le_ns\"",
            "\"workers\"",
            "\"steals\": 1",
            "\"busy_pct\"",
            "\"trace_spans\": 0",
            "\"trace_spans_dropped\": 0",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Empty totals still emit every section (stable schema).
        let empty = host_section_json(&HostTotals::new());
        assert!(empty.contains("\"workers\": []"));
        assert!(empty.contains("\"buckets\": []"));
    }
}
