//! The Digital Processing Unit.
//!
//! Paper §IV-A: "A Digital Processing Unit (DPU) is associated with the
//! PIM-Aligner to control the entire process … For each allowed mismatch,
//! DPU's registers store the state (i.e. symbol, low and high)". The DPU
//! owns the embedded match counter ("DPU's embedded counter counts up to
//! eventually compute count_match") and the backtracking register file
//! used by the inexact algorithm.

use mram::array::ArrayModel;

use crate::costs::LogicalOp;
use crate::ledger::CycleLedger;

/// One saved backtracking state (paper: "symbol, low and high", plus the
/// remaining difference budget needed to resume Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BacktrackState {
    /// Read position the state resumes at.
    pub position: u32,
    /// Saved lower bound.
    pub low: u32,
    /// Saved upper bound.
    pub high: u32,
    /// Remaining difference budget.
    pub budget: i8,
    /// The branch symbol rank (0..=3) being explored.
    pub symbol: u8,
}

/// The per-pipeline DPU: interval registers, match counter, and the
/// backtracking register file.
///
/// # Examples
///
/// ```
/// use pimsim::{CycleLedger, Dpu};
///
/// let mut dpu = Dpu::new(mram::array::ArrayModel::default());
/// let mut ledger = CycleLedger::new();
/// let matches = vec![true, false, true, true, false];
/// assert_eq!(dpu.count_matches(&matches, 4, &mut ledger), 3);
/// assert_eq!(dpu.count_matches(&matches, 2, &mut ledger), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Dpu {
    model: ArrayModel,
    low: u32,
    high: u32,
    stack: Vec<BacktrackState>,
}

impl Dpu {
    /// Creates a DPU with cleared registers.
    pub fn new(model: ArrayModel) -> Dpu {
        Dpu {
            model,
            low: 0,
            high: 0,
            stack: Vec::new(),
        }
    }

    /// Initialises the interval registers to `[0, n)` (Algorithm 1:
    /// "index-low and index-high boundaries are initialized to … 0 and
    /// N").
    pub fn init_interval(&mut self, n: u32, ledger: &mut CycleLedger) {
        self.low = 0;
        self.high = n;
        LogicalOp::IndexUpdate.charge(&self.model, ledger);
    }

    /// Current `low` register.
    pub fn low(&self) -> u32 {
        self.low
    }

    /// Current `high` register.
    pub fn high(&self) -> u32 {
        self.high
    }

    /// Writes both interval registers.
    pub fn set_interval(&mut self, low: u32, high: u32, ledger: &mut CycleLedger) {
        self.low = low;
        self.high = high;
        LogicalOp::IndexUpdate.charge(&self.model, ledger);
    }

    /// Whether the search has failed (`low ≥ high`).
    pub fn interval_empty(&self) -> bool {
        self.low >= self.high
    }

    /// Counts the `true` entries among the first `limit` match bits —
    /// the `count_match` computation. Charged as one popcount.
    ///
    /// # Panics
    ///
    /// Panics if `limit > matches.len()`.
    pub fn count_matches(
        &mut self,
        matches: &[bool],
        limit: usize,
        ledger: &mut CycleLedger,
    ) -> u32 {
        assert!(limit <= matches.len(), "popcount limit out of range");
        LogicalOp::Popcount.charge(&self.model, ledger);
        matches[..limit].iter().filter(|&&m| m).count() as u32
    }

    /// Packed form of [`Dpu::count_matches`]: counts the set bits among
    /// the first `limit` positions of a match mask via masked popcount.
    /// Charged as one popcount, identically to the boolean form.
    ///
    /// # Panics
    ///
    /// Panics if `limit > 128`.
    pub fn count_mask_matches(
        &mut self,
        matches: &crate::MatchMask,
        limit: usize,
        ledger: &mut CycleLedger,
    ) -> u32 {
        LogicalOp::Popcount.charge(&self.model, ledger);
        matches.count_prefix(limit)
    }

    /// Pushes a backtracking state (one register-file write).
    pub fn push_state(&mut self, state: BacktrackState, ledger: &mut CycleLedger) {
        LogicalOp::IndexUpdate.charge(&self.model, ledger);
        self.stack.push(state);
    }

    /// Pops the most recent backtracking state, if any.
    pub fn pop_state(&mut self, ledger: &mut CycleLedger) -> Option<BacktrackState> {
        if self.stack.is_empty() {
            return None;
        }
        LogicalOp::IndexUpdate.charge(&self.model, ledger);
        self.stack.pop()
    }

    /// Number of saved backtracking states.
    pub fn stack_depth(&self) -> usize {
        self.stack.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> (Dpu, CycleLedger) {
        (Dpu::new(ArrayModel::default()), CycleLedger::new())
    }

    #[test]
    fn interval_lifecycle() {
        let (mut dpu, mut ledger) = fresh();
        dpu.init_interval(100, &mut ledger);
        assert_eq!((dpu.low(), dpu.high()), (0, 100));
        assert!(!dpu.interval_empty());
        dpu.set_interval(40, 40, &mut ledger);
        assert!(dpu.interval_empty());
    }

    #[test]
    fn count_matches_respects_limit() {
        let (mut dpu, mut ledger) = fresh();
        let m = vec![true, true, false, true, true];
        assert_eq!(dpu.count_matches(&m, 5, &mut ledger), 4);
        assert_eq!(dpu.count_matches(&m, 3, &mut ledger), 2);
        assert_eq!(dpu.count_matches(&m, 0, &mut ledger), 0);
    }

    #[test]
    fn mask_count_agrees_with_boolean_count() {
        let (mut dpu, mut ledger) = fresh();
        let bools: Vec<bool> = (0..128).map(|i| i % 3 == 0 || i > 100).collect();
        let mask = crate::MatchMask::from_bools(&bools);
        for limit in [0usize, 1, 17, 64, 65, 101, 128] {
            assert_eq!(
                dpu.count_mask_matches(&mask, limit, &mut ledger),
                dpu.count_matches(&bools, limit, &mut ledger),
                "limit {limit}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "limit out of range")]
    fn oversized_limit_panics() {
        let (mut dpu, mut ledger) = fresh();
        let _ = dpu.count_matches(&[true], 2, &mut ledger);
    }

    #[test]
    fn backtracking_stack_is_lifo() {
        let (mut dpu, mut ledger) = fresh();
        let s1 = BacktrackState {
            position: 10,
            low: 1,
            high: 5,
            budget: 2,
            symbol: 0,
        };
        let s2 = BacktrackState {
            position: 9,
            low: 2,
            high: 3,
            budget: 1,
            symbol: 3,
        };
        dpu.push_state(s1, &mut ledger);
        dpu.push_state(s2, &mut ledger);
        assert_eq!(dpu.stack_depth(), 2);
        assert_eq!(dpu.pop_state(&mut ledger), Some(s2));
        assert_eq!(dpu.pop_state(&mut ledger), Some(s1));
        assert_eq!(dpu.pop_state(&mut ledger), None);
    }

    #[test]
    fn operations_charge_cycles() {
        let (mut dpu, mut ledger) = fresh();
        dpu.init_interval(10, &mut ledger);
        let _ = dpu.count_matches(&[true, false], 2, &mut ledger);
        assert!(ledger.total_busy_cycles() > 0);
    }
}
