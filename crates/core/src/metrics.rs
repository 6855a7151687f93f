//! The metrics/observability layer behind `PerfReport::breakdown`.
//!
//! Figs. 8–10 of the paper are all derived from *where cycles and energy
//! go*; this module turns the simulator's hierarchical counters
//! ([`pimsim::PrimCounters`], recorded by every logical-op charge) into a
//! reviewable breakdown: per-primitive counts/cycles, per-resource busy
//! cycles, `LFM` attribution per alignment phase, sub-array activations,
//! `IM_ADD` carry cycles and pipeline stage occupancy for the configured
//! `Pd`.
//!
//! The JSON sections here, written through [`pimsim::json`], are
//! **stable interfaces**: `pimalign --metrics-out` and the `perfdump`
//! bench bin both write [`PerfReport::to_metrics_json`], whose schema is
//! pinned by a golden-file test (`tests/metrics_json.rs`). Change the
//! schema only together with that golden file and its `pimbench`
//! consumer.

use pimsim::costs::LogicalOp;
use pimsim::json::{Json, Layout};
use pimsim::{CycleLedger, HostHistogram, Resource};

use crate::config::PimAlignerConfig;
use crate::host::HostTotals;
use crate::report::{
    FaultTelemetry, IndexTelemetry, ObsTelemetry, PerfReport, ServiceTelemetry, SlowRequest,
};

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
/// stage-queue scheduler counters to `breakdown.pipeline` (`issued`,
/// `makespan_cycles`, `sequential_cycles`, `overlap_saved_cycles`,
/// all-zero on an alignment run). v6 added a rank-checkpoint cache
/// section (host-side `hits`/`misses`/`evictions`/`hit_rate`). v7 added
/// the top-level `obs` section (observability-plane summary:
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
/// does not count). v11 removed `breakdown.spans` and
/// `breakdown.spans_dropped` with the simulated-cycle span tracer that
/// filled them: the per-primitive counts and `lfm_by_phase` say where the
/// cycles went, and `pimalign --trace-out` exports the host span log. v12
/// removed `index.shards`, `index.shard_window` and `index.shard_overlap`
/// with reference-window sharding: every index is one FM-index over the
/// whole reference. v13 removed v6's section with the rank-checkpoint
/// cache it counted: the compare stage has one path, and a marker read
/// is one load. Every other version only *added* paths, so consumers
/// that address fields by name keep working across them.
pub const METRICS_SCHEMA_VERSION: u32 = 13;

/// The always-zero `hits` / `misses` / `hit_rate()` of
/// [`MetricsBreakdown`]'s hidden cache field.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetiredCacheCounters {
    pub hits: u64,
    pub misses: u64,
}

impl RetiredCacheCounters {
    /// Always `0.0`.
    pub fn hit_rate(&self) -> f64 {
        0.0
    }
}

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
    /// LFM issues routed through the stage-queue scheduler by
    /// `MappedIndex::lfm_batch` (0 on an alignment run).
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
    /// Always zero, and in no document: the counters of the deleted
    /// rank-checkpoint cache, which `benchmark/src/trace.rs` still reads.
    #[doc(hidden)]
    pub kernel_cache: RetiredCacheCounters,
    /// One-time index mapping cost (busy cycles); 0 when not attached.
    pub index_build_cycles: u64,
    /// Per-zone activation heatmap (primary sub-arrays first, then
    /// method-II mirrors), accumulated by the charge sites that know
    /// their target. Sums to at most
    /// [`subarray_activations`](MetricsBreakdown::subarray_activations):
    /// SA locate reads activate an array but are not zone-attributed.
    pub zone_activations: Vec<u64>,
}

impl MetricsBreakdown {
    /// Builds the breakdown from a batch ledger. Phase attribution and
    /// index-build cost are attached afterwards by the session
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
            kernel_cache: RetiredCacheCounters::default(),
            index_build_cycles: 0,
            zone_activations: ledger.zone_activations().to_vec(),
        }
    }

    /// `true` when the per-primitive cycle total equals the
    /// resource-level aggregate. Always so for a breakdown
    /// [`from_ledger`](MetricsBreakdown::from_ledger) built; a check on
    /// one whose public fields were filled some other way.
    pub fn reconciles(&self) -> bool {
        self.primitive_cycles_total == self.total_busy_cycles
    }
}

impl PerfReport {
    /// The full metrics document — batch report, fault telemetry and the
    /// cycle breakdown — as stable JSON (schema pinned by the golden
    /// test; ends with a newline).
    pub fn to_metrics_json(&self) -> String {
        Json::document(|w| {
            w.key("schema_version").u64(METRICS_SCHEMA_VERSION.into());
            report_section(w, self);
            faults_section(w, &self.faults);
            breakdown_section(w, &self.breakdown);
            host_section(w, &self.host);
            service_section(w, &self.service);
            index_section(w, &self.index);
            obs_section(w, &self.obs);
        })
    }
}

fn report_section(w: &mut Json, r: &PerfReport) {
    w.key("report").object(Layout::Inline, |w| {
        w.u64_fields(&[
            ("queries", r.queries),
            ("lfm_calls", r.lfm_calls),
            ("published_lfm_calls", r.published_lfm_calls),
            ("seed_corrections", r.seed_corrections),
        ]);
        for (key, v) in [
            ("time_s", r.time_s),
            ("throughput_qps", r.throughput_qps),
            ("dynamic_power_w", r.dynamic_power_w),
            ("total_power_w", r.total_power_w),
            ("energy_per_query_j", r.energy_per_query_j),
            ("mbr_pct", r.mbr_pct),
            ("rur_pct", r.rur_pct),
            ("area_mm2", r.area_mm2),
            ("offchip_gb", r.offchip_gb),
            ("throughput_per_watt", r.throughput_per_watt),
            ("throughput_per_watt_mm2", r.throughput_per_watt_mm2),
        ] {
            w.key(key).f64(v);
        }
    });
}

fn faults_section(w: &mut Json, t: &FaultTelemetry) {
    w.key("faults").object(Layout::Inline, |w| {
        w.u64_fields(&[
            ("stuck_cells", t.stuck_cells),
            ("xnor_bit_flips", t.xnor_bit_flips),
            ("transient_row_faults", t.transient_row_faults),
            ("carry_faults", t.carry_faults),
            ("verifications", t.verifications),
            ("verify_failures", t.verify_failures),
            ("retries", t.retries),
            ("escalations", t.escalations),
            ("host_fallbacks", t.host_fallbacks),
            ("unrecoverable", t.unrecoverable),
        ]);
    });
}

fn breakdown_section(w: &mut Json, b: &MetricsBreakdown) {
    w.key("breakdown").object(Layout::Block, |w| {
        w.u64_fields(&[
            ("total_busy_cycles", b.total_busy_cycles),
            ("primitive_cycles_total", b.primitive_cycles_total),
        ]);
        w.key("energy_pj").f64(b.energy_pj);
        w.u64_fields(&[
            ("subarray_activations", b.subarray_activations),
            ("im_add_carry_cycles", b.im_add_carry_cycles),
            ("lfm_calls", b.lfm_calls),
            ("index_build_cycles", b.index_build_cycles),
        ]);
        w.key("primitives").array(Layout::Block, |w| {
            for p in &b.primitives {
                w.object(Layout::Inline, |w| {
                    w.key("name").str(p.name);
                    w.key("resource").str(p.resource);
                    w.u64_fields(&[("count", p.count), ("busy_cycles", p.busy_cycles)]);
                });
            }
        });
        w.key("resources").array(Layout::Block, |w| {
            for r in &b.resources {
                w.object(Layout::Inline, |w| {
                    w.key("name").str(r.name);
                    w.key("busy_cycles").u64(r.busy_cycles);
                });
            }
        });
        let phase = &b.lfm_by_phase;
        w.key("lfm_by_phase").object(Layout::Inline, |w| {
            w.u64_fields(&[
                ("exact", phase.exact),
                ("inexact", phase.inexact),
                ("recovery_retry", phase.recovery_retry),
                ("recovery_escalate", phase.recovery_escalate),
            ]);
        });
        let p = &b.pipeline;
        w.key("pipeline").object(Layout::Inline, |w| {
            w.key("pd").u64(p.pd as u64);
            w.key("cycles_per_lfm").f64(p.cycles_per_lfm);
            w.u64_fields(&[
                ("stage_a_cycles", p.stage_a_cycles),
                ("transfer_cycles", p.transfer_cycles),
                ("stage_b_cycles", p.stage_b_cycles),
            ]);
            w.key("compare_occupancy_pct").f64(p.compare_occupancy_pct);
            w.key("adder_occupancy_pct").f64(p.adder_occupancy_pct);
            w.u64_fields(&[
                ("issued", p.issued),
                ("makespan_cycles", p.makespan_cycles),
                ("sequential_cycles", p.sequential_cycles),
                ("overlap_saved_cycles", p.overlap_saved_cycles),
            ]);
        });
        w.key("heatmap").object(Layout::Inline, |w| {
            w.key("zones").u64(b.zone_activations.len() as u64);
            w.key("activations").array(Layout::Inline, |w| {
                b.zone_activations.iter().for_each(|&n| w.u64(n));
            });
        });
    });
}

/// The `host` section: wall-clock latency histograms, worker utilisation
/// and trace-span counts. Everything here is host time —
/// nondeterministic across runs and machines — which is why it lives in
/// its own top-level section, never mixed into the simulated
/// `report`/`breakdown` quantities (DESIGN.md §12).
fn host_section(w: &mut Json, host: &HostTotals) {
    w.key("host").object(Layout::Block, |w| {
        w.key("wall_ns").u64(host.wall_ns);
        histogram(w, "per_read_latency", &host.per_read);
        histogram(w, "per_chunk_latency", &host.per_chunk);
        histogram(w, "per_request_latency", &host.per_request);
        w.key("workers").array(Layout::Block, |w| {
            for s in &host.workers {
                w.object(Layout::Inline, |w| {
                    w.u64_fields(&[
                        ("worker", s.worker.into()),
                        ("chunks_claimed", s.chunks_claimed),
                        ("steals", s.steals),
                        ("reads", s.reads),
                        ("busy_ns", s.busy_ns),
                    ]);
                    w.key("busy_pct").f64(100.0 * s.busy_fraction(host.wall_ns));
                });
            }
        });
        w.u64_fields(&[
            ("trace_spans", host.spans.len() as u64),
            ("trace_spans_dropped", host.spans_dropped),
        ]);
    });
}

/// One latency histogram: summary stats, log2-bucket quantile upper
/// bounds, and the sparse list of non-empty buckets.
fn histogram(w: &mut Json, key: &str, h: &HostHistogram) {
    w.key(key).object(Layout::Inline, |w| {
        w.u64_fields(&[
            ("count", h.count()),
            ("sum_ns", h.sum_ns()),
            ("max_ns", h.max_ns()),
        ]);
        w.key("mean_ns").f64(h.mean_ns());
        w.u64_fields(&[
            ("p50_ns", h.quantile_upper_ns(0.5)),
            ("p90_ns", h.quantile_upper_ns(0.9)),
            ("p99_ns", h.quantile_upper_ns(0.99)),
        ]);
        w.key("buckets").array(Layout::Inline, |w| {
            for (le_ns, count) in h.nonzero_buckets() {
                w.object(Layout::Inline, |w| {
                    w.u64_fields(&[("le_ns", le_ns), ("count", count)]);
                });
            }
        });
    });
}

/// The `service` section (schema v3): the admission-control, deadline,
/// panic-quarantine and drain counters a `pimserve` run produced
/// (all-zero for one-shot CLI runs). Also written by the service drain
/// path, which must emit counters even when zero reads aligned, and by
/// the `Stats` snapshot.
pub(crate) fn service_section(w: &mut Json, s: &ServiceTelemetry) {
    w.key("service").object(Layout::Block, |w| {
        for (key, n) in s.counters() {
            w.key(key).u64(n);
            // The derived total follows the later of its two terms.
            if key == "late_responses" {
                w.key("deadline_misses").u64(s.deadline_misses());
            }
        }
        w.u64_fields(&[
            ("peak_queue_depth", s.peak_queue_depth),
            ("peak_inflight_bytes", s.peak_inflight_bytes),
        ]);
    });
}

/// The `index` section (schema v4): where the index came from (artifact
/// vs in-process build), the SA sampling rate, and the actual-vs-modelled
/// storage bytes. All-zero for callers that never
/// described their index.
fn index_section(w: &mut Json, ix: &IndexTelemetry) {
    w.key("index").object(Layout::Block, |w| {
        w.key("loaded").bool(ix.loaded);
        w.u64_fields(&[
            ("sa_rate", ix.sa_rate.into()),
            ("actual_bytes", ix.actual_bytes),
            ("model_bytes", ix.model_bytes),
        ]);
    });
}

/// The `obs` section (schema v7): the drain-time summary of the live
/// observability plane — rolling-window ring geometry, watchdog verdicts
/// and the bounded slow-request log. All-zero/empty for one-shot CLI
/// runs, which never start the plane.
pub(crate) fn obs_section(w: &mut Json, o: &ObsTelemetry) {
    w.key("obs").object(Layout::Block, |w| {
        w.u64_fields(&[
            ("window_secs", o.window_secs.into()),
            ("buckets_retired", o.buckets_retired),
            ("watchdog_stalls", o.watchdog_stalls),
            ("watchdog_max_head_age_ms", o.watchdog_max_head_age_ms),
            ("watchdog_threshold_ms", o.watchdog_threshold_ms.into()),
        ]);
        slow_section(w, &o.slow);
    });
}

/// The slow-request log as the `slow` array, one inline row per request
/// (shared by the `obs` section and the `Stats` snapshot).
pub(crate) fn slow_section(w: &mut Json, slow: &[SlowRequest]) {
    w.key("slow").array(Layout::Block, |w| {
        for s in slow {
            w.object(Layout::Inline, |w| {
                w.u64_fields(&[
                    ("trace_id", s.trace_id),
                    ("req_id", s.req_id),
                    ("total_ns", s.total_ns),
                    ("admit_ns", s.admit_ns),
                    ("queued_ns", s.queued_ns),
                    ("batched_ns", s.batched_ns),
                    ("aligned_ns", s.aligned_ns),
                    ("respond_ns", s.respond_ns),
                ]);
            });
        }
    });
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
}
