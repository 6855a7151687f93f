//! Logical-operation cost table (DESIGN.md §6).
//!
//! The architecture executes *logical* operations (one `XNOR_Match`
//! comparison, one 32-bit marker read, one 32-bit `IM_ADD`, …); each
//! expands into single-cycle array primitives. The expansion factors
//! below encode the micro-architecture of §IV–V:
//!
//! | logical op        | cycles | resource | expansion                     |
//! |-------------------|--------|----------|-------------------------------|
//! | `XNOR_Match`      | 2      | compare  | 2 `ComputeTriple`, one per bit-plane of the 2-bit base encoding |
//! | popcount          | 16     | compare  | 16 `DpuOp`: the DPU counter digests the 128 match bits 8 per cycle; a word-line step of two columns or more pays a second, for its span (beyond the paper, DESIGN.md §8) |
//! | marker read       | 11     | memory   | 11 `ReadRow`: a vertically stored 32-bit word read 3 bits per cycle through the three sub-SAs |
//! | `IM_ADD` (32-bit) | 45     | adder    | 32 `ComputeTriple` + 13 `DpuOp` (non-overlapped write-back cycles) + 64 `WriteRow` in their shadow: sum and carry fire two write drivers per bit, which cost energy and no cycle |
//! | index update      | 2      | memory   | 2 `DpuOp`: low/high DPU register writes |
//! | SA entry read     | 11     | memory   | 11 `ReadRow`, the marker's vertical-read path |
//! | row load          | 1      | transfer | 1 `WriteRow` per word line    |
//! | row copy-out      | 1      | transfer | 1 `ReadRow` per word line     |
//! | index bump        | 2      | compare  | 2 `DpuOp`: `high = low + count` in the DPU's embedded counter, the second bound of an interval inside one word line (beyond the paper, DESIGN.md §8) |
//! | seed read         | 22     | memory   | 22 `ReadRow`: the two vertically stored 32-bit bounds of one seed-table entry, the marker's read path twice (beyond the paper, DESIGN.md §8) |
//!
//! The three columns are [`LogicalOp::cycles`], [`LogicalOp::resource`]
//! and [`LogicalOp::expansion`], and nothing else states them: a
//! [`CycleLedger`] only counts the ops issued to it, and busy cycles and
//! energy are read off those counts through this table (DESIGN.md §10).
//!
//! One sequential `LFM` is therefore 2 + 16 + 11 + 45 + 2 = **76 cycles**;
//! the Fig. 7 pipeline overlaps the compare/memory stage (29 cycles) of one
//! read with the add stage (47 cycles) of another — see
//! [`pipeline`](crate::pipeline). The index bump is no part of an `LFM`:
//! it is what a step on an interval inside one word line pays *instead
//! of* its second `LFM`, on top of the step's usual index update — with
//! the span's popcount, when it spans two columns or more, which runs on
//! the DPU while the array adds (16 < 45 cycles). Nor is the seed read:
//! it is what a descent pays *instead of* its first `k` interval steps,
//! and the time model gives it a whole `LFM` issue slot for its 22 cycles.

use mram::array::{ArrayModel, ArrayOp};

use crate::ledger::{CycleLedger, Resource};
use crate::metrics::IM_ADD_CARRY_CYCLES;

/// One term of a logical op's expansion into single-cycle array
/// primitives: which primitive fires, and how many times per logical op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Firing {
    /// Firings that each hold the logical op's resource for a cycle.
    Busy(ArrayOp, u64),
    /// Firings in the shadow of a busy term: energy, no cycle.
    Shadow(ArrayOp, u64),
}

/// A logical platform operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicalOp {
    /// Parallel comparison of one query base against a 128-base BWT
    /// word-line segment (`XNOR_Match`).
    XnorMatch,
    /// DPU popcount of the 128-bit match vector: the matches before an
    /// `LFM`'s column, and — a second one, beyond the paper — those in the
    /// span of a word-line step of two columns or more, which gives the
    /// step its `high` from the mask its one `LFM` sensed.
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
    /// The second bound of an interval inside one word line,
    /// `high = low + count`, made by the DPU's embedded counter from the
    /// matches in the span the step's one `LFM` already sensed (one bit
    /// for a one-row interval, a [`LogicalOp::Popcount`] for a wider one).
    /// Arithmetic inside the DPU, no array access; an extension beyond
    /// the paper, so its count is the number of steps that issued one
    /// `LFM` where Algorithm 1 issues two — and, once each, the seed-table
    /// reads a short suffix of the text moved a boundary of, which it
    /// takes off (counted apart on the ledger, they stand for no step).
    IndexBump,
    /// Read of one seed-table entry: the two boundaries, rows below the
    /// `j`-mer and below its successor, that bound the interval a
    /// descent's first `j` steps produce — two words of at most 32 bits
    /// on the marker's vertical-read path (`MEM`, no compute, so no fault
    /// draw — like [`LogicalOp::SaEntryRead`]). The table holding one
    /// boundary a `k`-mer rather than a pair an entry changes neither
    /// word count nor price. An extension beyond the paper.
    SeedRead,
}

impl LogicalOp {
    /// All logical operations, in the stable order the metrics emitters
    /// use.
    pub const ALL: [LogicalOp; 10] = [
        LogicalOp::XnorMatch,
        LogicalOp::Popcount,
        LogicalOp::MarkerRead,
        LogicalOp::ImAdd32,
        LogicalOp::IndexUpdate,
        LogicalOp::SaEntryRead,
        LogicalOp::RowWrite,
        LogicalOp::RowRead,
        LogicalOp::IndexBump,
        LogicalOp::SeedRead,
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
            LogicalOp::SeedRead => 9,
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
            LogicalOp::SeedRead => "seed_read",
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
            LogicalOp::SeedRead => 22,
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
            LogicalOp::MarkerRead
            | LogicalOp::SaEntryRead
            | LogicalOp::IndexUpdate
            | LogicalOp::SeedRead => Resource::Memory,
            LogicalOp::RowWrite | LogicalOp::RowRead => Resource::Transfer,
        }
    }

    /// The array primitives one logical op fires (the table's expansion
    /// column). The [`Firing::Busy`] terms sum to [`LogicalOp::cycles`].
    pub fn expansion(self) -> &'static [Firing] {
        use Firing::{Busy, Shadow};
        match self {
            LogicalOp::XnorMatch => &[Busy(ArrayOp::ComputeTriple, 2)],
            LogicalOp::Popcount => &[Busy(ArrayOp::DpuOp, 16)],
            LogicalOp::MarkerRead | LogicalOp::SaEntryRead => &[Busy(ArrayOp::ReadRow, 11)],
            LogicalOp::ImAdd32 => &[
                Busy(ArrayOp::ComputeTriple, 32),
                Busy(ArrayOp::DpuOp, IM_ADD_CARRY_CYCLES),
                Shadow(ArrayOp::WriteRow, 64),
            ],
            LogicalOp::IndexUpdate | LogicalOp::IndexBump => &[Busy(ArrayOp::DpuOp, 2)],
            LogicalOp::RowWrite => &[Busy(ArrayOp::WriteRow, 1)],
            LogicalOp::RowRead => &[Busy(ArrayOp::ReadRow, 1)],
            LogicalOp::SeedRead => &[Busy(ArrayOp::ReadRow, 22)],
        }
    }

    /// Issues this logical op to a ledger. Cycles and energy are priced
    /// from the ledger's counts when they are read, so the model is
    /// unused (kept for `benchmark/src/trace.rs`, ROADMAP item 1(c)).
    #[inline]
    pub fn charge(self, model: &ArrayModel, ledger: &mut CycleLedger) {
        self.charge_many(model, ledger, 1);
    }

    /// Issues `n` repetitions of this logical op in one step: one integer
    /// add, equal to `n` [`LogicalOp::charge`] calls in everything a
    /// ledger reports.
    #[inline]
    pub fn charge_many(self, _model: &ArrayModel, ledger: &mut CycleLedger, n: u64) {
        ledger.prims.note_many(self, n);
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
        // would put a word-line step's share at (11 + 2 + 2) / 76 = 19.7 %,
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
    fn table_columns_agree() {
        let model = ArrayModel::default();
        let mut one_of_each = CycleLedger::new();
        for op in LogicalOp::ALL {
            let busy: u64 = op
                .expansion()
                .iter()
                .map(|&firing| match firing {
                    Firing::Busy(_, n) => n,
                    Firing::Shadow(..) => 0,
                })
                .sum();
            assert_eq!(op.cycles(), busy, "{op:?} cycles against its expansion");
            let owners = Resource::ALL.iter().filter(|&&r| r == op.resource());
            assert_eq!(owners.count(), 1, "{op:?} resource");
            op.charge(&model, &mut one_of_each);
        }
        // Every op's cycles land on exactly one resource.
        let by_resource: u64 = Resource::ALL
            .iter()
            .map(|&r| one_of_each.busy_cycles(r))
            .sum();
        let by_op: u64 = LogicalOp::ALL.iter().map(|op| op.cycles()).sum();
        assert_eq!(by_resource, by_op);
        assert_eq!(one_of_each.total_busy_cycles(), by_op);
    }

    #[test]
    fn charge_many_equals_sequential_charges() {
        let model = ArrayModel::default();
        for op in LogicalOp::ALL {
            let mut batched = CycleLedger::new();
            op.charge_many(&model, &mut batched, 7);
            let mut sequential = CycleLedger::new();
            for _ in 0..7 {
                op.charge(&model, &mut sequential);
            }
            assert_eq!(batched, sequential, "{op:?}");
            assert_eq!(
                batched.energy_pj(&model).to_bits(),
                sequential.energy_pj(&model).to_bits(),
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
        assert_eq!(l.energy_pj(&model), 0.0);
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
