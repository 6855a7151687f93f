//! Performance reporting: the quantities behind Figs. 8–10.

use pimsim::costs::LogicalOp;
use pimsim::{CycleLedger, Resource};
use serde::{Deserialize, Serialize};

use crate::config::PimAlignerConfig;
use crate::host::HostTotals;
use crate::metrics::MetricsBreakdown;

/// Background (leakage + clocking) power per active sub-array, watts.
/// Part of the DESIGN.md §6 calibration.
pub const BACKGROUND_W_PER_SUBARRAY: f64 = 0.005;

/// Per-batch fault telemetry (DESIGN.md §8): what the fault campaign
/// injected and what the verify-and-recover path did about it.
///
/// Injection counters come from the platform's
/// [`FaultInjector`](pimsim::FaultInjector); recovery counters from the
/// aligner's verification state machine. All-zero when the campaign is
/// inactive and recovery is disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultTelemetry {
    /// Data-zone cells frozen by stuck-at injection at mapping time.
    pub stuck_cells: u64,
    /// `XNOR_Match` bits flipped by sense misreads.
    pub xnor_bit_flips: u64,
    /// Transient row-read burst events.
    pub transient_row_faults: u64,
    /// `IM_ADD` carry-chain faults.
    pub carry_faults: u64,
    /// Candidate outcomes checked against the reference.
    pub verifications: u64,
    /// Verifications in which at least one candidate position was wrong.
    pub verify_failures: u64,
    /// Same-budget LFM re-runs.
    pub retries: u64,
    /// Difference-budget escalations.
    pub escalations: u64,
    /// Reads resolved by the host software fallback.
    pub host_fallbacks: u64,
    /// Reads the recovery ladder exhausted without a trusted answer.
    pub unrecoverable: u64,
}

impl FaultTelemetry {
    /// Adds `other`'s counts into `self` (parallel worker merge).
    pub fn merge(&mut self, other: &FaultTelemetry) {
        self.stuck_cells += other.stuck_cells;
        self.xnor_bit_flips += other.xnor_bit_flips;
        self.transient_row_faults += other.transient_row_faults;
        self.carry_faults += other.carry_faults;
        self.verifications += other.verifications;
        self.verify_failures += other.verify_failures;
        self.retries += other.retries;
        self.escalations += other.escalations;
        self.host_fallbacks += other.host_fallbacks;
        self.unrecoverable += other.unrecoverable;
    }

    /// Adds an injector's counts — one read's fault stream, or a
    /// platform's one-time build counters — into `self`.
    pub(crate) fn absorb_injected(&mut self, counters: &pimsim::FaultCounters) {
        self.stuck_cells += counters.stuck_cells;
        self.xnor_bit_flips += counters.xnor_bit_flips;
        self.transient_row_faults += counters.transient_row_faults;
        self.carry_faults += counters.carry_faults;
    }

    /// Total fault events injected into the platform.
    pub fn injected_total(&self) -> u64 {
        self.stuck_cells + self.xnor_bit_flips + self.transient_row_faults + self.carry_faults
    }

    /// `true` when nothing was injected and nothing recovered.
    pub fn is_quiet(&self) -> bool {
        *self == FaultTelemetry::default()
    }
}

/// Service-layer robustness telemetry (DESIGN.md §13): what the
/// `pimserve` admission queue, deadline enforcement, panic quarantine
/// and drain machinery did over a serving run.
///
/// All-zero for one-shot CLI runs — the counters only move when requests
/// flow through the service layer. Kept separate from [`FaultTelemetry`]
/// (simulated device faults) and [`HostTotals`] (wall-clock latencies):
/// these are *control-plane decisions*, deterministic given an arrival
/// sequence, and the metrics JSON emits them under their own `service`
/// section so SLO enforcement is measurable rather than aspirational.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceTelemetry {
    /// Align requests that reached admission control.
    pub received: u64,
    /// Requests admitted into the bounded queue.
    pub accepted: u64,
    /// Requests shed because the queue was at its depth limit.
    pub shed_queue_full: u64,
    /// Requests shed because in-flight payload bytes hit their limit.
    pub shed_inflight_bytes: u64,
    /// Requests rejected because the server was draining.
    pub rejected_draining: u64,
    /// Requests rejected as malformed before admission.
    pub rejected_invalid: u64,
    /// Accepted requests whose deadline expired while queued — dropped
    /// before batching and answered with a typed deadline error.
    pub expired_in_queue: u64,
    /// Requests aligned to completion but answered after their deadline
    /// (the work was already in flight when the deadline passed).
    pub late_responses: u64,
    /// Reads quarantined by `catch_unwind` into typed error responses.
    pub panics_quarantined: u64,
    /// `align_chunk_parallel` calls issued by the batcher.
    pub batches: u64,
    /// Responses written (every accepted request gets exactly one).
    pub responses: u64,
    /// High-water mark of the admission queue depth.
    pub peak_queue_depth: u64,
    /// High-water mark of in-flight payload bytes.
    pub peak_inflight_bytes: u64,
}

impl ServiceTelemetry {
    /// Adds `other`'s counts into `self`; peaks take the maximum.
    pub fn merge(&mut self, other: &ServiceTelemetry) {
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
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
        self.peak_inflight_bytes = self.peak_inflight_bytes.max(other.peak_inflight_bytes);
    }

    /// The eleven counting fields by their JSON names, in declaration
    /// order (the peaks are gauges and stay out). This is the key order
    /// of the metrics `service` section and of every `Stats` bucket, so
    /// reordering it changes the byte-pinned `BENCH_metrics.json`.
    pub(crate) fn counters(&self) -> [(&'static str, u64); 11] {
        [
            ("received", self.received),
            ("accepted", self.accepted),
            ("shed_queue_full", self.shed_queue_full),
            ("shed_inflight_bytes", self.shed_inflight_bytes),
            ("rejected_draining", self.rejected_draining),
            ("rejected_invalid", self.rejected_invalid),
            ("expired_in_queue", self.expired_in_queue),
            ("late_responses", self.late_responses),
            ("panics_quarantined", self.panics_quarantined),
            ("batches", self.batches),
            ("responses", self.responses),
        ]
    }

    /// Requests rejected by load shedding (either limit).
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full + self.shed_inflight_bytes
    }

    /// Requests that missed their deadline, whether dropped in the
    /// queue or answered late.
    pub fn deadline_misses(&self) -> u64 {
        self.expired_in_queue + self.late_responses
    }
}

/// Provenance and footprint of the index a run aligned against
/// (DESIGN.md §14): whether it was loaded from a serialised artifact or
/// built in-process, its suffix-array sampling rate, and how the actual
/// storage compares to the analytic
/// [`size_model`](fmindex::size_model) prediction.
///
/// Default-zero for callers that never describe their index; the
/// `pimalign`/`pimserve` paths always fill it in, and the metrics JSON
/// emits it under its own `index` section (schema v4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexTelemetry {
    /// `true` when the index came from a serialised artifact rather
    /// than an in-process build.
    pub loaded: bool,
    /// Suffix-array sampling rate (1 = full SA, the paper's setup).
    pub sa_rate: u32,
    /// Bytes of index storage actually held.
    pub actual_bytes: u64,
    /// Bytes the analytic size model predicts for the same geometry.
    pub model_bytes: u64,
}

/// One entry of the bounded slow-request log (DESIGN.md §17): the
/// per-stage wall-clock breakdown of a single served request, keyed by
/// the `trace_id` minted at admission so the entry is joinable with the
/// request's span track in the Chrome trace export.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlowRequest {
    /// Trace id minted at admission (also the span track id).
    pub trace_id: u64,
    /// Client-chosen request id (for joining with client-side logs).
    pub req_id: u64,
    /// End-to-end latency, frame receipt to response write, ns.
    pub total_ns: u64,
    /// Frame decode + admission decision, ns.
    pub admit_ns: u64,
    /// Time spent waiting in the admission queue, ns.
    pub queued_ns: u64,
    /// Batch assembly + deadline gate ahead of alignment, ns.
    pub batched_ns: u64,
    /// Time inside `align_chunk_parallel` (or the quarantine retry), ns.
    pub aligned_ns: u64,
    /// Response encode + socket write, ns.
    pub respond_ns: u64,
}

/// Drain-time summary of the live observability plane (DESIGN.md §17):
/// ring geometry, watchdog verdicts and the top-K slow-request log.
/// All-zero/empty for one-shot CLI runs, like [`ServiceTelemetry`]. The
/// *live* windowed views are exposed over the wire by `Request::Stats`;
/// this struct is what survives into the drain-time metrics JSON under
/// the `obs` section (schema v7).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsTelemetry {
    /// Rolling-window ring capacity, seconds.
    pub window_secs: u32,
    /// Per-second buckets evicted from the ring into the retired
    /// aggregate over the run (0 until the run outlives the window).
    pub buckets_retired: u64,
    /// Distinct batcher-stall episodes the watchdog recorded.
    pub watchdog_stalls: u64,
    /// Worst head-of-queue age the watchdog ever observed, ms.
    pub watchdog_max_head_age_ms: u64,
    /// Stall threshold the watchdog enforced, ms (0 = disabled).
    pub watchdog_threshold_ms: u32,
    /// Top-K slowest requests by end-to-end latency, sorted descending.
    pub slow: Vec<SlowRequest>,
}

/// The performance report of one alignment batch — throughput, power and
/// the utilisation ratios of Fig. 10.
///
/// Derivation:
///
/// * the batch's `LFM` count is spread over the chip's parallel pipeline
///   units; each unit issues `LFM`s at the pipeline rate for the
///   configured `Pd` (Fig. 7 model), and a seed-table read takes one
///   such issue slot whole ([`PerfReport::issue_slots`]);
/// * dynamic power = simulated dynamic energy ÷ simulated time;
///   total power adds [`BACKGROUND_W_PER_SUBARRAY`] per active
///   sub-array (`units × Pd`);
/// * MBR = memory/transfer cycles visible on the critical path per
///   `LFM` ÷ the `LFM` issue rate;
/// * RUR = busy cycles per unit ÷ (2 compute resources × makespan).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// Reads aligned.
    pub queries: u64,
    /// Total `LFM` invocations across the batch.
    pub lfm_calls: u64,
    /// `LFM` invocations Algorithm 1 and 2 as published issue for the
    /// same searches, two per interval step: `lfm_calls`, plus one for
    /// every step that found its interval inside one word line and served
    /// both bounds with one `LFM` — the ledger's [`LogicalOp::IndexBump`]
    /// count — plus two for every step taken without an `LFM`: one a
    /// seed-table read stood in for, or an alternative its siblings had
    /// already shown empty ([`CycleLedger::unissued_steps`]). The
    /// `IndexBump`s of [`PerfReport::seed_corrections`] stand for no step
    /// and are not counted. See [`PerfReport::as_published`].
    pub published_lfm_calls: u64,
    /// Seed-table reads a short suffix of the text moved a boundary of,
    /// each corrected with one `IndexBump` (DESIGN.md §8).
    pub seed_corrections: u64,
    /// Wall-clock seconds for the batch on the modelled chip.
    pub time_s: f64,
    /// Queries per second.
    pub throughput_qps: f64,
    /// Dynamic power, watts.
    pub dynamic_power_w: f64,
    /// Total power (dynamic + background), watts.
    pub total_power_w: f64,
    /// Dynamic energy per query, joules.
    pub energy_per_query_j: f64,
    /// Memory Bottleneck Ratio, percent (Fig. 10b).
    pub mbr_pct: f64,
    /// Resource Utilization Ratio, percent (Fig. 10c).
    pub rur_pct: f64,
    /// Die area of the modelled chip, mm².
    pub area_mm2: f64,
    /// Off-chip memory required during alignment, GB (≈0 for PIM:
    /// tables live in the computational arrays).
    pub offchip_gb: f64,
    /// Throughput per watt (Fig. 9a).
    pub throughput_per_watt: f64,
    /// Throughput per watt per mm² (Fig. 9b).
    pub throughput_per_watt_mm2: f64,
    /// Fault-injection and recovery telemetry for the batch (all-zero
    /// for fault-free, recovery-off runs).
    pub faults: FaultTelemetry,
    /// Hierarchical cycle/energy breakdown: per-primitive counters,
    /// per-resource busy cycles, phase-attributed `LFM`s, pipeline stage
    /// occupancy and traced spans (the metrics layer behind
    /// `pimalign --metrics` and `perfdump`).
    pub breakdown: MetricsBreakdown,
    /// Host-side wall-clock telemetry (latency histograms, worker
    /// utilisation, trace spans). Nondeterministic by nature; kept
    /// strictly apart from the simulated quantities above and emitted
    /// under its own `host` section in the metrics JSON. Default-empty
    /// for callers that never measured wall time.
    pub host: HostTotals,
    /// Service-layer admission/deadline/panic/drain counters
    /// (all-zero outside `pimserve` runs).
    pub service: ServiceTelemetry,
    /// Index provenance and footprint (artifact vs in-process build, SA
    /// sampling rate, size-model reconciliation). Default-zero unless
    /// the caller described its index.
    pub index: IndexTelemetry,
    /// Observability-plane summary (rolling-window ring geometry,
    /// watchdog verdicts, slow-request log). Default-empty outside
    /// `pimserve` runs.
    pub obs: ObsTelemetry,
}

impl PerfReport {
    /// Builds the report from the simulated batch.
    ///
    /// # Panics
    ///
    /// Panics if `queries == 0`.
    pub fn from_batch(
        config: &PimAlignerConfig,
        ledger: &CycleLedger,
        queries: u64,
        lfm_calls: u64,
    ) -> PerfReport {
        assert!(queries > 0, "report requires at least one query");
        let model = config.model();
        let pipeline = config.pipeline();
        let pd = config.pd();
        let units = config.chip().parallel_units as f64;

        // Issue rate and makespan. A batch smaller than the unit count
        // can only occupy one pipeline unit per read (iterations within
        // a read are serially dependent), so both the work division and
        // the utilisation accounting use the *active* unit count.
        let rate = pipeline.cycles_per_lfm(pd);
        let active_units = units.min(queries as f64);
        // A seed-table read is 22 memory cycles, and is given the whole
        // slot of the `LFM` it is issued in place of: nothing here is
        // assumed cheaper than the paper prices an issue.
        let slots = lfm_calls + ledger.primitives().count(LogicalOp::SeedRead);
        let makespan_cycles = slots as f64 / active_units * rate;
        let time_s = makespan_cycles * model.cycle_ns() * 1e-9;
        let throughput_qps = queries as f64 / time_s;

        // Energy and power. Method-II operand streaming is already in the
        // ledger (the mapper charges the transfer row-writes per LFM).
        let dynamic_j = ledger.energy_pj(model) * 1e-12;
        let dynamic_power_w = dynamic_j / time_s;
        let active_subarrays = units * pd as f64;
        let total_power_w = dynamic_power_w + active_subarrays * BACKGROUND_W_PER_SUBARRAY;

        // MBR: memory/transfer cycles visible on the critical path.
        let visible_memory = if pd == 1 {
            // Sequential: all memory cycles are on the path.
            (ledger.busy_cycles(Resource::Memory) + ledger.busy_cycles(Resource::Transfer)) as f64
                / slots.max(1) as f64
        } else {
            // Pipelined: the marker read hides under the other read's add;
            // the transfer and index update remain exposed on the adder
            // port (see pimsim::pipeline).
            pipeline.transfer_cycles as f64 + 2.0
        };
        let mbr_pct = 100.0 * visible_memory / rate;

        // RUR: busy cycles per active unit over two compute resources.
        let busy_per_unit = ledger.total_busy_cycles() as f64 / active_units;
        let rur_pct = 100.0 * (busy_per_unit / (2.0 * makespan_cycles)).min(1.0);

        let area_mm2 = config.chip().area_mm2(model);
        let throughput_per_watt = throughput_qps / total_power_w;
        PerfReport {
            queries,
            lfm_calls,
            published_lfm_calls: lfm_calls + ledger.primitives().count(LogicalOp::IndexBump)
                - ledger.seed_corrections()
                + 2 * ledger.unissued_steps(),
            seed_corrections: ledger.seed_corrections(),
            time_s,
            throughput_qps,
            dynamic_power_w,
            total_power_w,
            energy_per_query_j: dynamic_j / queries as f64,
            mbr_pct,
            rur_pct,
            area_mm2,
            offchip_gb: 0.0,
            throughput_per_watt,
            throughput_per_watt_mm2: throughput_per_watt / area_mm2,
            faults: FaultTelemetry::default(),
            breakdown: MetricsBreakdown::from_ledger(config, ledger, lfm_calls),
            host: HostTotals::default(),
            service: ServiceTelemetry::default(),
            index: IndexTelemetry::default(),
            obs: ObsTelemetry::default(),
        }
    }

    /// Rescales the report to a different query count, assuming the
    /// simulated per-query behaviour is representative (used to quote
    /// paper-scale 10 M-read numbers from a smaller simulated batch).
    /// Throughput, power and ratios are intensive and unchanged. The
    /// cycle breakdown stays at the simulated batch's scale — it
    /// describes work that actually ran, never extrapolated work.
    pub fn scaled_to_queries(&self, queries: u64) -> PerfReport {
        let factor = queries as f64 / self.queries as f64;
        PerfReport {
            queries,
            lfm_calls: (self.lfm_calls as f64 * factor) as u64,
            published_lfm_calls: (self.published_lfm_calls as f64 * factor) as u64,
            seed_corrections: (self.seed_corrections as f64 * factor) as u64,
            time_s: self.time_s * factor,
            ..self.clone()
        }
    }

    /// Issue slots the run's time is made of: one per `LFM` and one per
    /// seed-table read (the breakdown's `seed_read` row).
    pub fn issue_slots(&self) -> u64 {
        let seed_read = LogicalOp::SeedRead.name();
        let row = self
            .breakdown
            .primitives
            .iter()
            .find(|p| p.name == seed_read);
        self.lfm_calls + row.map_or(0, |p| p.count)
    }

    /// The report at the published algorithm's `LFM` count: what the
    /// paper's figures (Figs. 8–10) are compared against. The word-line
    /// interval step, the seed-table read and the partition rule are
    /// extensions beyond the paper, and the platform's time model is issue slots × cycles per
    /// `LFM`; with `f = published_lfm_calls / issue_slots`, time is
    /// multiplied by `f` and throughput, throughput per watt and per watt
    /// per mm² divided by it, which is exact: the published algorithm
    /// issues exactly that many `LFM`s at the same rate. Energy per query
    /// is multiplied by `f` too, which is pro rata: an `LFM` of the run
    /// costs a few percent more energy than a published one on average,
    /// since a word-line step's `LFM` carries the step's whole interval
    /// write, its bump and its span's popcount. Power, MBR, RUR and area are as
    /// run, and so is the breakdown — it describes work that ran, so take
    /// this view of a run, not of another view.
    pub fn as_published(&self) -> PerfReport {
        let f = match self.issue_slots() {
            0 => 1.0,
            slots => self.published_lfm_calls as f64 / slots as f64,
        };
        PerfReport {
            lfm_calls: self.published_lfm_calls,
            time_s: self.time_s * f,
            throughput_qps: self.throughput_qps / f,
            energy_per_query_j: self.energy_per_query_j * f,
            throughput_per_watt: self.throughput_per_watt / f,
            throughput_per_watt_mm2: self.throughput_per_watt_mm2 / f,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mram::array::{ArrayModel, ArrayOp};
    use pimsim::costs;

    /// A synthetic ledger equivalent to `lfm_calls` perfect LFMs.
    fn ledger_for(lfm_calls: u64, pd: usize) -> CycleLedger {
        let model = ArrayModel::default();
        let mut ledger = CycleLedger::new();
        for _ in 0..lfm_calls {
            costs::charge_lfm(&model, &mut ledger);
            if pd >= 2 {
                for _ in 0..7 {
                    pimsim::costs::LogicalOp::RowWrite.charge(&model, &mut ledger);
                }
            }
        }
        ledger
    }

    fn report(pd: usize, queries: u64) -> PerfReport {
        let config = if pd == 1 {
            PimAlignerConfig::baseline()
        } else {
            PimAlignerConfig::pipelined().with_pd(pd)
        };
        // The paper's workload shape: 100-bp reads, 2 LFMs per base.
        let lfm_calls = queries * 200;
        PerfReport::from_batch(&config, &ledger_for(lfm_calls, pd), queries, lfm_calls)
    }

    #[test]
    fn baseline_lands_in_paper_range() {
        // PIM-Aligner-n: ~4.7 M queries/s at ~19 W (DESIGN.md §6
        // calibration against Figs. 8–9).
        let r = report(1, 1_000);
        assert!(
            (4.0e6..5.5e6).contains(&r.throughput_qps),
            "baseline throughput {:.3e}",
            r.throughput_qps
        );
        assert!(
            (14.0..24.0).contains(&r.total_power_w),
            "baseline power {:.1}",
            r.total_power_w
        );
    }

    #[test]
    fn pipelined_lands_on_fig9c_annotation() {
        // Fig. 9c annotates Pd=2 at 6.7e6 queries/s and 28.4 W.
        let r = report(2, 1_000);
        assert!(
            (6.0e6..7.4e6).contains(&r.throughput_qps),
            "Pd=2 throughput {:.3e}",
            r.throughput_qps
        );
        assert!(
            (24.0..33.0).contains(&r.total_power_w),
            "Pd=2 power {:.1}",
            r.total_power_w
        );
    }

    #[test]
    fn pipeline_speedup_about_forty_percent() {
        let n = report(1, 1_000);
        let p = report(2, 1_000);
        let gain = p.throughput_qps / n.throughput_qps;
        assert!((1.30..1.55).contains(&gain), "pipeline gain {gain:.3}");
        assert!(p.total_power_w > n.total_power_w, "power must rise with Pd");
    }

    #[test]
    fn mbr_below_eighteen_percent() {
        // Fig. 10b: "PIM-Aligner spends less than ∼18% time for memory
        // access and data transfer".
        for pd in [1, 2] {
            let r = report(pd, 500);
            assert!(r.mbr_pct < 18.0, "Pd={pd} MBR {:.1}%", r.mbr_pct);
            assert!(r.mbr_pct > 5.0, "MBR implausibly low: {:.1}%", r.mbr_pct);
        }
    }

    #[test]
    fn rur_highest_when_pipelined() {
        // Fig. 10c: "PIM-Aligner-p shows the highest resource utilization
        // with up to ∼86%".
        let n = report(1, 500);
        let p = report(2, 500);
        assert!(p.rur_pct > n.rur_pct);
        assert!((65.0..95.0).contains(&p.rur_pct), "RUR-p {:.1}%", p.rur_pct);
    }

    #[test]
    fn pim_has_no_offchip_memory() {
        // Fig. 10a: the PIM platforms hold all tables in-array.
        assert_eq!(report(1, 100).offchip_gb, 0.0);
    }

    #[test]
    fn scaling_preserves_intensive_quantities() {
        let r = report(2, 1_000);
        let s = r.scaled_to_queries(10_000_000);
        assert_eq!(s.queries, 10_000_000);
        assert!((s.throughput_qps - r.throughput_qps).abs() < 1e-6);
        assert!((s.total_power_w - r.total_power_w).abs() < 1e-9);
        assert!(s.time_s > r.time_s);
    }

    #[test]
    fn throughput_saturates_with_pd() {
        let t: Vec<f64> = [1, 2, 3, 4]
            .iter()
            .map(|&pd| report(pd, 500).throughput_qps)
            .collect();
        assert!(t[1] > t[0] && t[2] >= t[1] && t[3] >= t[2]);
        // Fig. 9c: diminishing returns.
        let g1 = t[1] / t[0];
        let g3 = t[3] / t[2];
        assert!(g3 < g1, "gains must diminish: {t:?}");
    }

    #[test]
    fn a_seed_read_takes_a_whole_lfm_slot() {
        // 1 000 reads, each one table read for its first five steps and
        // 95 `LFM`s: the run's time is 96 slots a read, the 22-cycle read
        // priced as the 76-cycle `LFM` it is issued in place of, and the
        // published view's is the 105 `LFM`s Algorithm 1 issues.
        let (queries, lfm_calls) = (1_000, 95_000);
        for pd in [1, 2] {
            let config = if pd == 1 {
                PimAlignerConfig::baseline()
            } else {
                PimAlignerConfig::pipelined()
            };
            let mut ledger = ledger_for(lfm_calls, pd);
            LogicalOp::SeedRead.charge_many(config.model(), &mut ledger, queries);
            ledger.note_unissued_steps(5 * queries);
            let seeded = PerfReport::from_batch(&config, &ledger, queries, lfm_calls);
            assert_eq!(seeded.issue_slots(), lfm_calls + queries);
            let slots = |n| PerfReport::from_batch(&config, &CycleLedger::new(), queries, n);
            assert_eq!(seeded.time_s, slots(lfm_calls + queries).time_s);
            assert!(seeded.time_s > slots(lfm_calls).time_s);
            assert_eq!(seeded.published_lfm_calls, lfm_calls + 10 * queries);
            let published = seeded.as_published();
            let exact = slots(seeded.published_lfm_calls);
            assert!((published.time_s / exact.time_s - 1.0).abs() < 1e-12);
            assert!((published.throughput_qps / exact.throughput_qps - 1.0).abs() < 1e-12);
            // The ledger has the read at what it occupies: 22 cycles of
            // the memory resource, and the breakdown still reconciles.
            let row = seeded.breakdown.primitives.last().expect("ten rows");
            assert_eq!((row.name, row.resource), ("seed_read", "memory"));
            assert_eq!((row.count, row.busy_cycles), (queries, 22 * queries));
            assert!(seeded.breakdown.reconciles());
            assert!(seeded.mbr_pct < 18.0, "Pd={pd} MBR {:.1}%", seeded.mbr_pct);
        }
    }

    #[test]
    fn service_telemetry_merges_counters_and_peaks() {
        let mut a = ServiceTelemetry {
            received: 10,
            accepted: 8,
            shed_queue_full: 1,
            shed_inflight_bytes: 1,
            expired_in_queue: 2,
            late_responses: 1,
            responses: 8,
            peak_queue_depth: 4,
            peak_inflight_bytes: 1_000,
            ..ServiceTelemetry::default()
        };
        let b = ServiceTelemetry {
            received: 5,
            accepted: 5,
            responses: 5,
            peak_queue_depth: 7,
            peak_inflight_bytes: 500,
            ..ServiceTelemetry::default()
        };
        a.merge(&b);
        assert_eq!(a.received, 15);
        assert_eq!(a.shed_total(), 2);
        assert_eq!(a.deadline_misses(), 3);
        assert_eq!(a.peak_queue_depth, 7, "peaks take the max");
        assert_eq!(a.peak_inflight_bytes, 1_000);
    }

    #[test]
    fn energy_per_query_is_microjoule_scale() {
        let r = report(1, 100);
        assert!(
            (1e-6..1e-5).contains(&r.energy_per_query_j),
            "energy/query {:.2e} J",
            r.energy_per_query_j
        );
        let _ = ArrayOp::ALL; // keep the import used
    }
}
