//! Observability primitive: per-primitive counters.
//!
//! The paper's evaluation (Figs. 8–10) is about *where cycles go* — how
//! much of an `LFM` is `XNOR_Match` versus marker `MEM` versus `IM_ADD`
//! carry propagation, how busy each sub-array is, how well the `Pd`
//! pipeline overlaps. [`PrimCounters`] answers: how many of each
//! *logical primitive* ([`LogicalOp`]) were issued, bumped by every
//! [`LogicalOp::charge`]. It is the
//! [`CycleLedger`](crate::CycleLedger)'s whole cost state, so it merges
//! wherever ledgers merge, and busy cycles per primitive are its counts
//! priced by [`LogicalOp::cycles`].

use crate::costs::LogicalOp;

/// Per-primitive counters: how many of each [`LogicalOp`] were issued.
/// The busy cycles they occupied are the counts priced by
/// [`LogicalOp::cycles`], so `total_cycles()` is
/// [`CycleLedger::total_busy_cycles`](crate::CycleLedger::total_busy_cycles)
/// by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrimCounters {
    counts: [u64; LogicalOp::ALL.len()],
}

impl PrimCounters {
    /// Empty counters.
    pub fn new() -> PrimCounters {
        PrimCounters::default()
    }

    /// Records `n` issued `op`s.
    #[inline]
    pub fn note_many(&mut self, op: LogicalOp, n: u64) {
        self.counts[op.index()] += n;
    }

    /// Number of `op` primitives issued.
    pub fn count(&self, op: LogicalOp) -> u64 {
        self.counts[op.index()]
    }

    /// Busy cycles attributed to `op`.
    pub fn cycles(&self, op: LogicalOp) -> u64 {
        self.count(op) * op.cycles()
    }

    /// Total busy cycles over all primitives.
    pub fn total_cycles(&self) -> u64 {
        LogicalOp::ALL.iter().map(|&op| self.cycles(op)).sum()
    }

    /// Total primitives issued.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sub-array activations: every primitive that drives word lines in
    /// a sub-array (everything except the DPU-internal popcount and
    /// index-register updates).
    pub fn subarray_activations(&self) -> u64 {
        LogicalOp::ALL
            .iter()
            .filter(|op| op.activates_subarray())
            .map(|&op| self.count(op))
            .sum()
    }

    /// Carry-propagation/write-back cycles inside `IM_ADD` (the 13
    /// non-overlapped cycles of each 45-cycle 32-bit add — the part the
    /// Fig. 7 pipeline cannot hide).
    pub fn im_add_carry_cycles(&self) -> u64 {
        self.count(LogicalOp::ImAdd32) * IM_ADD_CARRY_CYCLES
    }

    /// Adds `other`'s counts into `self` (ledger/worker merge).
    pub fn merge(&mut self, other: &PrimCounters) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }
}

/// Carry/write-back cycles per 32-bit `IM_ADD` (see the cost table:
/// 32 compute + 13 write-stall cycles).
pub const IM_ADD_CARRY_CYCLES: u64 = 13;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::CycleLedger;
    use mram::array::ArrayModel;

    #[test]
    fn prim_counters_track_counts_and_cycles() {
        let model = ArrayModel::default();
        let mut ledger = CycleLedger::new();
        LogicalOp::XnorMatch.charge(&model, &mut ledger);
        LogicalOp::ImAdd32.charge(&model, &mut ledger);
        LogicalOp::MarkerRead.charge(&model, &mut ledger);
        let prims = ledger.primitives();
        assert_eq!(prims.count(LogicalOp::XnorMatch), 1);
        assert_eq!(prims.cycles(LogicalOp::XnorMatch), 2);
        assert_eq!(prims.cycles(LogicalOp::ImAdd32), 45);
        assert_eq!(prims.total_count(), 3);
        // Per-primitive cycles reconcile with the resource aggregate.
        assert_eq!(prims.total_cycles(), ledger.total_busy_cycles());
    }

    #[test]
    fn activations_exclude_dpu_internal_ops() {
        let model = ArrayModel::default();
        let mut ledger = CycleLedger::new();
        LogicalOp::XnorMatch.charge(&model, &mut ledger); // activates
        LogicalOp::Popcount.charge(&model, &mut ledger); // DPU-internal
        LogicalOp::IndexUpdate.charge(&model, &mut ledger); // DPU-internal
        LogicalOp::RowWrite.charge(&model, &mut ledger); // activates
        assert_eq!(ledger.primitives().subarray_activations(), 2);
    }

    #[test]
    fn carry_cycles_scale_with_adds() {
        let model = ArrayModel::default();
        let mut ledger = CycleLedger::new();
        for _ in 0..5 {
            LogicalOp::ImAdd32.charge(&model, &mut ledger);
        }
        assert_eq!(ledger.primitives().im_add_carry_cycles(), 5 * 13);
    }

    #[test]
    fn merge_is_componentwise_sum() {
        let model = ArrayModel::default();
        let mut a = CycleLedger::new();
        let mut b = CycleLedger::new();
        LogicalOp::XnorMatch.charge(&model, &mut a);
        LogicalOp::XnorMatch.charge(&model, &mut b);
        LogicalOp::RowRead.charge(&model, &mut b);
        a.merge(&b);
        let prims = a.primitives();
        assert_eq!(prims.count(LogicalOp::XnorMatch), 2);
        assert_eq!(prims.count(LogicalOp::RowRead), 1);
        assert_eq!(prims.total_cycles(), a.total_busy_cycles());
    }
}
