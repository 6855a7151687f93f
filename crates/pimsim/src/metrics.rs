//! Observability primitives: per-primitive counters and span tracing.
//!
//! The paper's evaluation (Figs. 8–10) is about *where cycles go* — how
//! much of an `LFM` is `XNOR_Match` versus marker `MEM` versus `IM_ADD`
//! carry propagation, how busy each sub-array is, how well the `Pd`
//! pipeline overlaps. This module holds the two types that answer:
//!
//! * [`PrimCounters`] — how many of each *logical primitive*
//!   ([`LogicalOp`]) were issued, bumped by every [`LogicalOp::charge`].
//!   It is the [`CycleLedger`]'s whole cost state, so it merges wherever
//!   ledgers merge, and busy cycles per primitive are its counts priced
//!   by [`LogicalOp::cycles`];
//! * [`SpanTracer`] / [`Span`] — a lightweight ring-buffered span
//!   tracer. Spans are timestamped in *simulated busy cycles* (the only
//!   clock the platform has), the buffer is bounded, and a disabled
//!   tracer costs one branch per call site.

use crate::costs::LogicalOp;
use crate::ledger::CycleLedger;

/// Per-primitive counters: how many of each [`LogicalOp`] were issued.
/// The busy cycles they occupied are the counts priced by
/// [`LogicalOp::cycles`], so `total_cycles()` is
/// [`CycleLedger::total_busy_cycles`] by construction.
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

/// One traced interval, timestamped in simulated busy cycles of the
/// session ledger it was recorded against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Static label (`"lfm"`, `"exact_pass"`, `"recovery.retry"`, …).
    pub name: &'static str,
    /// Ledger busy cycles when the span opened.
    pub start_cycles: u64,
    /// Ledger busy cycles when the span closed.
    pub end_cycles: u64,
}

impl Span {
    /// Busy cycles covered by the span.
    pub fn cycles(&self) -> u64 {
        self.end_cycles.saturating_sub(self.start_cycles)
    }
}

/// A bounded, ring-buffered span recorder.
///
/// Disabled (capacity 0) by default: a disabled tracer's
/// [`start`](SpanTracer::start)/[`record`](SpanTracer::record) are one
/// predictable branch each, so tracing can stay compiled into the hot
/// `LFM` loop at zero practical cost. When enabled, the newest
/// `capacity` spans are kept and older ones are overwritten (the
/// [`dropped`](SpanTracer::dropped) counter says how many).
///
/// # Examples
///
/// ```
/// use pimsim::{CycleLedger, SpanTracer};
///
/// let ledger = CycleLedger::new();
/// let mut tracer = SpanTracer::with_capacity(8);
/// let t0 = tracer.start(&ledger);
/// // ... charge work to the ledger ...
/// tracer.record("exact_pass", t0, &ledger);
/// assert_eq!(tracer.spans().len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTracer {
    capacity: usize,
    ring: Vec<Span>,
    /// Next overwrite position once the ring is full.
    head: usize,
    recorded: u64,
}

impl SpanTracer {
    /// A disabled tracer (the default): every call site is a no-op.
    pub fn disabled() -> SpanTracer {
        SpanTracer::default()
    }

    /// An enabled tracer keeping the newest `capacity` spans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` (use [`SpanTracer::disabled`]).
    pub fn with_capacity(capacity: usize) -> SpanTracer {
        assert!(capacity > 0, "use SpanTracer::disabled() for capacity 0");
        SpanTracer {
            capacity,
            ring: Vec::with_capacity(capacity),
            head: 0,
            recorded: 0,
        }
    }

    /// Whether spans are being kept.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Opens a span: returns the current ledger timestamp (0 when
    /// disabled — the value is only ever consumed by
    /// [`record`](SpanTracer::record), which is then also a no-op).
    #[inline]
    pub fn start(&self, ledger: &CycleLedger) -> u64 {
        if self.capacity == 0 {
            0
        } else {
            ledger.total_busy_cycles()
        }
    }

    /// Closes a span opened at `start` and stores it, overwriting the
    /// oldest span when the ring is full. No-op when disabled.
    #[inline]
    pub fn record(&mut self, name: &'static str, start: u64, ledger: &CycleLedger) {
        if self.capacity == 0 {
            return;
        }
        let span = Span {
            name,
            start_cycles: start,
            end_cycles: ledger.total_busy_cycles(),
        };
        if self.ring.len() < self.capacity {
            self.ring.push(span);
        } else {
            self.ring[self.head] = span;
            self.head = (self.head + 1) % self.capacity;
        }
        self.recorded += 1;
    }

    /// Retained spans, oldest first.
    pub fn spans(&self) -> Vec<Span> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.head..]);
        out.extend_from_slice(&self.ring[..self.head]);
        out
    }

    /// Total spans recorded since creation (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Spans lost to ring overwrite.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.ring.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn disabled_tracer_records_nothing() {
        let ledger = CycleLedger::new();
        let mut tracer = SpanTracer::disabled();
        let t0 = tracer.start(&ledger);
        tracer.record("x", t0, &ledger);
        assert!(!tracer.is_enabled());
        assert!(tracer.spans().is_empty());
        assert_eq!(tracer.recorded(), 0);
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let model = ArrayModel::default();
        let mut ledger = CycleLedger::new();
        let mut tracer = SpanTracer::with_capacity(2);
        for name in ["a", "b", "c"] {
            let t0 = tracer.start(&ledger);
            LogicalOp::RowRead.charge(&model, &mut ledger);
            tracer.record(name, t0, &ledger);
        }
        let spans = tracer.spans();
        assert_eq!(
            spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            vec!["b", "c"]
        );
        assert_eq!(tracer.recorded(), 3);
        assert_eq!(tracer.dropped(), 1);
        // Oldest-first ordering by timestamp.
        assert!(spans[0].start_cycles < spans[1].start_cycles);
        assert_eq!(spans[1].cycles(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity 0")]
    fn zero_capacity_rejected() {
        let _ = SpanTracer::with_capacity(0);
    }
}
