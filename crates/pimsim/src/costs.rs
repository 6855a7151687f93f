//! Logical-operation cost table (DESIGN.md §6).
//!
//! The architecture executes *logical* operations (one `XNOR_Match`
//! comparison, one 32-bit marker read, one 32-bit `IM_ADD`, …); each
//! expands into single-cycle array primitives. The expansion factors
//! below encode the micro-architecture of §IV–V:
//!
//! | logical op        | cycles | expansion                                |
//! |-------------------|--------|------------------------------------------|
//! | `XNOR_Match`      | 2      | one `ComputeTriple` per bit-plane of the 2-bit base encoding |
//! | popcount          | 16     | the DPU counter digests the 128 match bits 8 per cycle |
//! | marker read       | 11     | a vertically stored 32-bit word read 3 bits per cycle through the three sub-SAs |
//! | `IM_ADD` (32-bit) | 45     | 32 `ComputeTriple` + 13 non-overlapped write-back cycles; sum and carry fire two write drivers per bit (the second is charged energy-only) |
//! | index update      | 2      | low/high DPU register writes             |
//! | SA entry read     | 11     | same vertical-read path as the marker    |
//! | row load/copy     | 1      | one `WriteRow`/`ReadRow` per word line   |
//! | index bump        | 2      | `high = low + bit` in the DPU's embedded counter, the second bound of a one-row interval (beyond the paper, DESIGN.md §8) |
//!
//! One sequential `LFM` is therefore 2 + 16 + 11 + 45 + 2 = **76 cycles**;
//! the Fig. 7 pipeline overlaps the compare/memory stage (29 cycles) of one
//! read with the add stage (47 cycles) of another — see
//! [`pipeline`](crate::pipeline). The index bump is no part of an `LFM`:
//! it is what a step on a one-row interval pays *instead of* its second
//! `LFM`, on top of the step's usual index update.

use mram::array::{ArrayModel, ArrayOp};

use crate::ledger::{CycleLedger, Resource};

/// A logical platform operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicalOp {
    /// Parallel comparison of one query base against a 128-base BWT
    /// word-line segment (`XNOR_Match`).
    XnorMatch,
    /// DPU popcount of the 128-bit match vector.
    Popcount,
    /// Read of one 32-bit marker word from the vertical MT zone (`MEM`).
    MarkerRead,
    /// In-memory 32-bit addition (`IM_ADD`).
    ImAdd32,
    /// Update of the DPU's low/high interval registers.
    IndexUpdate,
    /// Read of one 32-bit suffix-array entry (`MEM` on the SA region).
    SaEntryRead,
    /// Loading one word line of data into a sub-array (mapping, method-II
    /// duplication, inter-sub-array transfer).
    RowWrite,
    /// Reading one word line out (result collection).
    RowRead,
    /// The second bound of a one-row interval, `high = low + bit`, made
    /// by the DPU's embedded counter from the match bit the step's one
    /// `LFM` already sensed. Arithmetic inside the DPU, no array access;
    /// an extension beyond the paper, so its count is the number of steps
    /// that issued one `LFM` where Algorithm 1 issues two.
    IndexBump,
}

impl LogicalOp {
    /// All logical operations, in the stable order the metrics emitters
    /// use.
    pub const ALL: [LogicalOp; 9] = [
        LogicalOp::XnorMatch,
        LogicalOp::Popcount,
        LogicalOp::MarkerRead,
        LogicalOp::ImAdd32,
        LogicalOp::IndexUpdate,
        LogicalOp::SaEntryRead,
        LogicalOp::RowWrite,
        LogicalOp::RowRead,
        LogicalOp::IndexBump,
    ];

    /// Position in [`LogicalOp::ALL`] (the counter-table index).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            LogicalOp::XnorMatch => 0,
            LogicalOp::Popcount => 1,
            LogicalOp::MarkerRead => 2,
            LogicalOp::ImAdd32 => 3,
            LogicalOp::IndexUpdate => 4,
            LogicalOp::SaEntryRead => 5,
            LogicalOp::RowWrite => 6,
            LogicalOp::RowRead => 7,
            LogicalOp::IndexBump => 8,
        }
    }

    /// Stable snake-case label used by the metrics JSON emitters.
    pub fn name(self) -> &'static str {
        match self {
            LogicalOp::XnorMatch => "xnor_match",
            LogicalOp::Popcount => "popcount",
            LogicalOp::MarkerRead => "marker_read",
            LogicalOp::ImAdd32 => "im_add32",
            LogicalOp::IndexUpdate => "index_update",
            LogicalOp::SaEntryRead => "sa_entry_read",
            LogicalOp::RowWrite => "row_write",
            LogicalOp::RowRead => "row_read",
            LogicalOp::IndexBump => "index_bump",
        }
    }

    /// Whether the op drives word lines in a sub-array (everything but
    /// the DPU-internal popcount, index-register updates and index
    /// bumps). The per-primitive counters derive the sub-array activation
    /// total from this.
    pub fn activates_subarray(self) -> bool {
        !matches!(
            self,
            LogicalOp::Popcount | LogicalOp::IndexUpdate | LogicalOp::IndexBump
        )
    }

    /// Cycles one logical op occupies on its resource.
    pub fn cycles(self) -> u64 {
        match self {
            LogicalOp::XnorMatch => 2,
            LogicalOp::Popcount => 16,
            LogicalOp::MarkerRead => 11,
            LogicalOp::ImAdd32 => 45,
            LogicalOp::IndexUpdate => 2,
            LogicalOp::SaEntryRead => 11,
            LogicalOp::RowWrite => 1,
            LogicalOp::RowRead => 1,
            LogicalOp::IndexBump => 2,
        }
    }

    /// The resource class the op occupies.
    pub fn resource(self) -> Resource {
        match self {
            // The bump is counter arithmetic in the DPU, like the
            // popcount — not a memory access, so it stays out of the
            // Fig. 10b memory share.
            LogicalOp::XnorMatch | LogicalOp::Popcount | LogicalOp::IndexBump => Resource::Compare,
            LogicalOp::ImAdd32 => Resource::Adder,
            LogicalOp::MarkerRead | LogicalOp::SaEntryRead | LogicalOp::IndexUpdate => {
                Resource::Memory
            }
            LogicalOp::RowWrite | LogicalOp::RowRead => Resource::Transfer,
        }
    }

    /// Charges this logical op to a ledger (cycles + energy) and records
    /// it in the ledger's per-primitive counters.
    pub fn charge(self, model: &ArrayModel, ledger: &mut CycleLedger) {
        self.charge_many(model, ledger, 1);
    }

    /// Charges `n` repetitions of this logical op in one step.
    ///
    /// All integer accounting — busy cycles, `ArrayOp` counts, and the
    /// per-primitive counters — reconciles *exactly* with `n` sequential
    /// [`LogicalOp::charge`] calls; only the accumulated energy (an
    /// `f64`) may differ in the last bit of rounding. Hot loops that
    /// issue a known repeat count (SA-entry reads over an interval, the
    /// method-II operand-transfer burst) use this to avoid per-iteration
    /// charge overhead.
    pub fn charge_many(self, model: &ArrayModel, ledger: &mut CycleLedger, n: u64) {
        if n == 0 {
            return;
        }
        ledger.note_op_many(self, n);
        let resource = self.resource();
        match self {
            LogicalOp::XnorMatch => {
                ledger.charge(model, resource, ArrayOp::ComputeTriple, 2 * n);
            }
            LogicalOp::Popcount => {
                ledger.charge(model, resource, ArrayOp::DpuOp, 16 * n);
            }
            LogicalOp::MarkerRead | LogicalOp::SaEntryRead => {
                ledger.charge(model, resource, ArrayOp::ReadRow, 11 * n);
            }
            LogicalOp::ImAdd32 => {
                // Per add: 32 compute cycles + 13 write-stall cycles
                // occupy the adder; sum and carry fire two write drivers
                // per bit (64 firings), charged as energy.
                ledger.charge(model, resource, ArrayOp::ComputeTriple, 32 * n);
                ledger.charge(model, resource, ArrayOp::DpuOp, 13 * n);
                ledger.charge_energy_only(model, ArrayOp::WriteRow, 64 * n);
            }
            LogicalOp::IndexUpdate | LogicalOp::IndexBump => {
                ledger.charge(model, resource, ArrayOp::DpuOp, 2 * n);
            }
            LogicalOp::RowWrite => {
                ledger.charge(model, resource, ArrayOp::WriteRow, n);
            }
            LogicalOp::RowRead => {
                ledger.charge(model, resource, ArrayOp::ReadRow, n);
            }
        }
    }
}

/// Cycles of one full `LFM` invocation executed sequentially
/// (`XNOR_Match` + popcount + marker read + `IM_ADD` + index update).
pub fn lfm_cycles() -> u64 {
    LogicalOp::XnorMatch.cycles()
        + LogicalOp::Popcount.cycles()
        + LogicalOp::MarkerRead.cycles()
        + LogicalOp::ImAdd32.cycles()
        + LogicalOp::IndexUpdate.cycles()
}

/// Cycles of the compare/memory pipeline stage (`XNOR_Match` + popcount +
/// marker read).
pub fn lfm_stage_a_cycles() -> u64 {
    LogicalOp::XnorMatch.cycles() + LogicalOp::Popcount.cycles() + LogicalOp::MarkerRead.cycles()
}

/// Cycles of the add pipeline stage (`IM_ADD` + index update).
pub fn lfm_stage_b_cycles() -> u64 {
    LogicalOp::ImAdd32.cycles() + LogicalOp::IndexUpdate.cycles()
}

/// Charges one full `LFM` to a ledger.
pub fn charge_lfm(model: &ArrayModel, ledger: &mut CycleLedger) {
    LogicalOp::XnorMatch.charge(model, ledger);
    LogicalOp::Popcount.charge(model, ledger);
    LogicalOp::MarkerRead.charge(model, ledger);
    LogicalOp::ImAdd32.charge(model, ledger);
    LogicalOp::IndexUpdate.charge(model, ledger);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lfm_cycle_budget() {
        // 2 + 16 + 11 + 45 + 2 = 76 cycles per sequential LFM.
        assert_eq!(lfm_cycles(), 76);
        assert_eq!(lfm_stage_a_cycles(), 29);
        assert_eq!(lfm_stage_b_cycles(), 47);
        assert_eq!(lfm_stage_a_cycles() + lfm_stage_b_cycles(), lfm_cycles());
    }

    #[test]
    fn memory_share_stays_below_mbr_claim() {
        // Marker read + index update are the per-LFM memory cycles;
        // Fig. 10b claims PIM-Aligner spends < ~18 % of time on memory
        // access.
        let memory = LogicalOp::MarkerRead.cycles() + LogicalOp::IndexUpdate.cycles();
        let ratio = memory as f64 / lfm_cycles() as f64;
        assert!(ratio < 0.18, "memory share {ratio:.3}");
    }

    #[test]
    fn resources_partition_the_ops() {
        assert_eq!(LogicalOp::XnorMatch.resource(), Resource::Compare);
        assert_eq!(LogicalOp::Popcount.resource(), Resource::Compare);
        assert_eq!(LogicalOp::ImAdd32.resource(), Resource::Adder);
        assert_eq!(LogicalOp::MarkerRead.resource(), Resource::Memory);
        assert_eq!(LogicalOp::RowWrite.resource(), Resource::Transfer);
        // Counter arithmetic in the DPU: a bump on the memory resource
        // would put a one-row step's share at (11 + 2 + 2) / 76 = 19.7 %,
        // over the Fig. 10b claim, for an operation that reads no array.
        assert_eq!(LogicalOp::IndexBump.resource(), Resource::Compare);
        assert!(!LogicalOp::IndexBump.activates_subarray());
    }

    #[test]
    fn charge_lfm_attributes_cycles_per_resource() {
        let model = ArrayModel::default();
        let mut l = CycleLedger::new();
        charge_lfm(&model, &mut l);
        assert_eq!(l.busy_cycles(Resource::Compare), 18); // 2 + 16
        assert_eq!(l.busy_cycles(Resource::Adder), 45);
        assert_eq!(l.busy_cycles(Resource::Memory), 13); // 11 + 2
        assert_eq!(l.busy_cycles(Resource::Transfer), 0);
        assert_eq!(l.total_busy_cycles(), lfm_cycles());
    }

    #[test]
    fn charge_many_reconciles_exactly_with_sequential_charges() {
        let model = ArrayModel::default();
        for op in LogicalOp::ALL {
            let mut batched = CycleLedger::new();
            op.charge_many(&model, &mut batched, 7);
            let mut sequential = CycleLedger::new();
            for _ in 0..7 {
                op.charge(&model, &mut sequential);
            }
            for r in Resource::ALL {
                assert_eq!(
                    batched.busy_cycles(r),
                    sequential.busy_cycles(r),
                    "{op:?} busy cycles on {r:?}"
                );
            }
            for aop in [
                ArrayOp::ReadRow,
                ArrayOp::WriteRow,
                ArrayOp::ComputeTriple,
                ArrayOp::DpuOp,
            ] {
                assert_eq!(
                    batched.op_count(aop),
                    sequential.op_count(aop),
                    "{op:?} count of {aop:?}"
                );
            }
            assert_eq!(
                batched.primitives(),
                sequential.primitives(),
                "{op:?} per-primitive counters"
            );
            assert!(
                (batched.energy_pj() - sequential.energy_pj()).abs() < 1e-6,
                "{op:?} energy"
            );
        }
    }

    #[test]
    fn charge_many_zero_is_a_no_op() {
        let model = ArrayModel::default();
        let mut l = CycleLedger::new();
        LogicalOp::RowWrite.charge_many(&model, &mut l, 0);
        assert_eq!(l.total_busy_cycles(), 0);
        assert_eq!(l.primitives().total_count(), 0);
        assert_eq!(l.energy_pj(), 0.0);
    }

    #[test]
    fn im_add_charges_double_write_energy() {
        let model = ArrayModel::default();
        let mut l = CycleLedger::new();
        LogicalOp::ImAdd32.charge(&model, &mut l);
        // 64 write-driver firings (sum + carry per bit), energy-only.
        assert_eq!(l.op_count(mram::array::ArrayOp::WriteRow), 64);
        assert_eq!(l.busy_cycles(Resource::Adder), 45);
    }
}
