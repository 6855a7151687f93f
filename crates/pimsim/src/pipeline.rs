//! The Fig. 7 multi-read pipeline with parallelism degree `Pd`.
//!
//! Method-II duplicates a pipeline's sub-array so that while read `R1`
//! occupies the adder copy with `IM_ADD`, read `R2` exploits the freed
//! comparison resources of the original (paper Fig. 7). The model:
//!
//! * **Stage A** (compare sub-array): `XNOR_Match` + popcount + marker
//!   read — [`costs::lfm_stage_a_cycles`] = 29 cycles;
//! * **Transfer**: the marker and `count_match` stream into the adder
//!   copy through its write port — [`PipelineParams::transfer_cycles`]
//!   (7 cycles);
//! * **Stage B** (adder sub-array): `IM_ADD` + index update —
//!   [`costs::lfm_stage_b_cycles`] = 47 cycles.
//!
//! With `Pd = 1` (method-I) everything serialises in one sub-array and an
//! `LFM` costs the full 76 cycles. With `Pd = 2` the adder copy binds:
//! its port must absorb the transfer *and* the add, so the steady-state
//! issue rate is `transfer + stage_b` = 54 cycles — a
//! `76 / 54 ≈ 1.41×` speed-up, the paper's "improved the performance by
//! ∼40% compared to the baseline design". Larger `Pd` adds more adder
//! copies until the compare stage saturates.
//!
//! [`costs::lfm_stage_a_cycles`]: crate::costs::lfm_stage_a_cycles
//! [`costs::lfm_stage_b_cycles`]: crate::costs::lfm_stage_b_cycles

use crate::costs;

/// Stage timing of one pipeline (cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineParams {
    /// Compare-stage cycles per `LFM`.
    pub stage_a_cycles: u64,
    /// Inter-sub-array transfer cycles per `LFM` (method-II only).
    pub transfer_cycles: u64,
    /// Add-stage cycles per `LFM`.
    pub stage_b_cycles: u64,
}

impl Default for PipelineParams {
    fn default() -> Self {
        PipelineParams {
            stage_a_cycles: costs::lfm_stage_a_cycles(),
            transfer_cycles: 7,
            stage_b_cycles: costs::lfm_stage_b_cycles(),
        }
    }
}

impl PipelineParams {
    /// Sequential cycles of one `LFM` (method-I: both stages in the same
    /// sub-array, no transfer).
    pub fn sequential_cycles(&self) -> u64 {
        self.stage_a_cycles + self.stage_b_cycles
    }

    /// Steady-state cycles per `LFM` at parallelism degree `pd`.
    ///
    /// * `pd = 1`: no overlap — the sequential cost.
    /// * `pd ≥ 2`: `pd − 1` adder copies serve the add stage; each add
    ///   must also absorb its operand transfer through the copy's write
    ///   port. The issue rate is bound by the slower of the shared
    ///   compare stage and the adder copies:
    ///   `max(stage_a, transfer + stage_b / (pd − 1))`.
    ///
    /// # Panics
    ///
    /// Panics if `pd == 0`.
    pub fn cycles_per_lfm(&self, pd: usize) -> f64 {
        assert!(pd >= 1, "parallelism degree must be at least 1");
        if pd == 1 {
            return self.sequential_cycles() as f64;
        }
        let adder_rate =
            self.transfer_cycles as f64 + self.stage_b_cycles as f64 / (pd as f64 - 1.0);
        (self.stage_a_cycles as f64).max(adder_rate)
    }

    /// Throughput speed-up of degree `pd` over the sequential baseline.
    ///
    /// # Panics
    ///
    /// Panics if `pd == 0`.
    pub fn speedup(&self, pd: usize) -> f64 {
        self.sequential_cycles() as f64 / self.cycles_per_lfm(pd)
    }

    /// Makespan in cycles for `lfm_count` LFM invocations at degree
    /// `pd`, including the pipeline fill latency.
    ///
    /// # Panics
    ///
    /// Panics if `pd == 0`.
    pub fn makespan_cycles(&self, lfm_count: u64, pd: usize) -> f64 {
        if lfm_count == 0 {
            return 0.0;
        }
        let fill = if pd == 1 {
            0.0
        } else {
            (self.stage_a_cycles + self.transfer_cycles) as f64
        };
        fill + lfm_count as f64 * self.cycles_per_lfm(pd)
    }
}

/// Scheduling counters accumulated by [`PipelineSim`] and folded into
/// the session ledger.
///
/// `sequential_cycles` is what the same issues would have cost with no
/// overlap at all (every compare plus every add, back to back);
/// `makespan_cycles` is when the last issue actually finished
/// under the stage-queue schedule. Their difference is the overlap the
/// pipeline bought. Counters from separate batch invocations merge by
/// summation — batches on one sub-array run back to back, so makespans
/// add.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineCounters {
    /// LFM issues scheduled.
    pub issued: u64,
    /// Cycle the last issue retired under the pipelined schedule.
    pub makespan_cycles: u64,
    /// What the same issues cost unpipelined, back to back.
    pub sequential_cycles: u64,
}

impl PipelineCounters {
    /// Cycles the stage overlap saved versus the serial schedule. Zero
    /// when the pipeline could not help (e.g. `Pd = 1`, or a batch of
    /// one where the transfer overhead eats the overlap).
    pub fn overlap_saved_cycles(&self) -> u64 {
        self.sequential_cycles.saturating_sub(self.makespan_cycles)
    }

    /// Folds another counter set in (summation; see the type docs).
    pub fn merge(&mut self, other: &PipelineCounters) {
        self.issued += other.issued;
        self.makespan_cycles += other.makespan_cycles;
        self.sequential_cycles += other.sequential_cycles;
    }
}

/// The Pd stage-queue scheduler: actual issue ordering for one batch of
/// interleaved LFM steps against one sub-array.
///
/// Each [`PipelineSim::issue`] places one read-step into the two-slot
/// stage queue: the compare stage (shared original sub-array) and the
/// add stage (the `Pd − 1` adder copies, modelled as one server with a
/// `transfer + stage_b / (Pd − 1)` service time). Issues from different
/// read streams overlap — read `i + 1`'s compare runs while read `i`'s
/// add occupies the copy — but two issues of the *same* stream are
/// dependent (an `LFM`'s operands are the previous step's interval), so
/// a stream's next issue cannot start before its previous one retired.
///
/// With `Pd = 1` there is one sub-array and no overlap: every issue
/// serialises. The simulator is transient scratch state — only its
/// [`PipelineCounters`] survive, folded into the
/// [`CycleLedger`](crate::CycleLedger) by the caller.
#[derive(Debug, Clone)]
pub struct PipelineSim {
    pd: usize,
    params: PipelineParams,
    /// When the compare stage frees (Pd ≥ 2) / when the single
    /// sub-array frees (Pd = 1).
    compare_free: u64,
    /// When the adder-copy server frees (Pd ≥ 2 only).
    add_free: u64,
    /// Per-stream retire times: stream `s`'s next issue starts no
    /// earlier than `stream_done[s]`.
    stream_done: Vec<u64>,
    counters: PipelineCounters,
}

impl PipelineSim {
    /// A fresh scheduler at parallelism degree `pd`.
    ///
    /// # Panics
    ///
    /// Panics if `pd == 0`.
    pub fn new(pd: usize, params: PipelineParams) -> PipelineSim {
        assert!(pd >= 1, "parallelism degree must be at least 1");
        PipelineSim {
            pd,
            params,
            compare_free: 0,
            add_free: 0,
            stream_done: Vec::new(),
            counters: PipelineCounters::default(),
        }
    }

    /// Schedules one LFM step of read stream `stream`.
    pub fn issue(&mut self, stream: usize) {
        let ready = self.stream_done.get(stream).copied().unwrap_or(0);
        let done = if self.pd == 1 {
            // One sub-array does both stages; issues fully serialise.
            let done = self.compare_free.max(ready) + self.params.sequential_cycles();
            self.compare_free = done;
            done
        } else {
            let compare_done = self.compare_free.max(ready) + self.params.stage_a_cycles;
            let add_service = self.params.transfer_cycles
                + self.params.stage_b_cycles.div_ceil(self.pd as u64 - 1);
            let done = compare_done.max(self.add_free) + add_service;
            self.compare_free = compare_done;
            self.add_free = done;
            done
        };
        if stream >= self.stream_done.len() {
            self.stream_done.resize(stream + 1, 0);
        }
        self.stream_done[stream] = done;
        self.counters.issued += 1;
        self.counters.sequential_cycles += self.params.sequential_cycles();
        self.counters.makespan_cycles = self.counters.makespan_cycles.max(done);
    }

    /// The counters accumulated so far (fold into a ledger via
    /// `CycleLedger::record_pipeline`).
    pub fn counters(&self) -> PipelineCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_cost_table() {
        let p = PipelineParams::default();
        assert_eq!(p.stage_a_cycles, 29);
        assert_eq!(p.stage_b_cycles, 47);
        assert_eq!(p.sequential_cycles(), 76);
    }

    #[test]
    fn pd2_speedup_is_about_forty_percent() {
        // Paper §VI: "our pipeline technique with Pd=2 has improved the
        // performance by ∼40% compared to the baseline design".
        let s = PipelineParams::default().speedup(2);
        assert!((1.30..1.55).contains(&s), "Pd=2 speed-up {s:.3}");
    }

    #[test]
    fn speedup_monotone_then_saturates_at_compare_stage() {
        let p = PipelineParams::default();
        let mut prev = p.speedup(1);
        assert!((prev - 1.0).abs() < 1e-12);
        for pd in 2..=8 {
            let s = p.speedup(pd);
            assert!(s >= prev - 1e-12, "speed-up regressed at Pd={pd}");
            prev = s;
        }
        // Saturation: the shared compare stage (29 cycles) bounds the rate.
        let saturated = p.sequential_cycles() as f64 / p.stage_a_cycles as f64;
        assert!((p.speedup(64) - saturated).abs() < 1e-9);
    }

    #[test]
    fn makespan_includes_fill_only_when_pipelined() {
        let p = PipelineParams::default();
        assert_eq!(p.makespan_cycles(10, 1), 760.0);
        let piped = p.makespan_cycles(10, 2);
        assert!(piped < 760.0 && piped > 10.0 * p.cycles_per_lfm(2));
        assert_eq!(p.makespan_cycles(0, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_pd_panics() {
        let _ = PipelineParams::default().cycles_per_lfm(0);
    }

    /// Issues `n` independent streams' steps at degree `pd` and returns
    /// the counters.
    fn run_streams(pd: usize, n: usize) -> PipelineCounters {
        let mut sim = PipelineSim::new(pd, PipelineParams::default());
        for s in 0..n {
            sim.issue(s);
        }
        sim.counters()
    }

    #[test]
    fn pd1_serialises_every_issue() {
        let c = run_streams(1, 8);
        assert_eq!(c.issued, 8);
        assert_eq!(c.makespan_cycles, 8 * 76);
        assert_eq!(c.sequential_cycles, 8 * 76);
        assert_eq!(c.overlap_saved_cycles(), 0);
    }

    #[test]
    fn pd2_overlaps_independent_streams() {
        // Steady state: the adder copy binds at transfer + stage_b = 54
        // cycles per issue, after a 29-cycle compare fill.
        let c = run_streams(2, 8);
        assert_eq!(c.makespan_cycles, 29 + 8 * 54);
        assert_eq!(c.sequential_cycles, 8 * 76);
        assert!(c.makespan_cycles < c.sequential_cycles);
        assert_eq!(
            c.overlap_saved_cycles(),
            c.sequential_cycles - c.makespan_cycles
        );
    }

    #[test]
    fn pd2_single_issue_saves_nothing() {
        // A batch of one pays the transfer on top of both stages; the
        // saved-cycles counter saturates at zero rather than going
        // negative.
        let c = run_streams(2, 1);
        assert_eq!(c.makespan_cycles, 29 + 7 + 47);
        assert_eq!(c.sequential_cycles, 76);
        assert_eq!(c.overlap_saved_cycles(), 0);
    }

    #[test]
    fn same_stream_issues_are_dependent() {
        // Two steps of one read cannot overlap: the second waits for the
        // first to retire, so Pd=2 is strictly slower than two
        // independent streams.
        let mut sim = PipelineSim::new(2, PipelineParams::default());
        sim.issue(0);
        sim.issue(0);
        let dependent = sim.counters().makespan_cycles;
        let independent = run_streams(2, 2).makespan_cycles;
        assert!(dependent > independent, "{dependent} vs {independent}");
        assert_eq!(dependent, 2 * (29 + 54));
    }

    #[test]
    fn counters_merge_by_summation() {
        let mut a = run_streams(2, 4);
        let b = run_streams(2, 4);
        a.merge(&b);
        assert_eq!(a.issued, 8);
        assert_eq!(a.makespan_cycles, 2 * (29 + 4 * 54));
        assert_eq!(a.sequential_cycles, 8 * 76);
    }
}
