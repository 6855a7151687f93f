//! Fault injection for the platform simulator (DESIGN.md §8).
//!
//! [`FaultInjector`] turns a seeded [`FaultCampaign`] into concrete fault
//! decisions — which match bits misread, which rows suffer a transient
//! burst, which additions drop their carry, which cells are stuck — and
//! counts every injection so the telemetry layer can report what the
//! campaign actually did.
//!
//! The injector is deliberately mechanism-only: *where* each fault class
//! plugs into the `LFM` data path is decided by the index mapper, which
//! owns the sub-arrays.

use mram::faults::FaultCampaign;

use crate::subarray::MatchMask;

/// Longest transient burst, bits (a worst-case triple-row sense glitch).
const MAX_BURST_BITS: usize = 4;

/// Counters of injected faults, one per campaign fault class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Data-zone cells frozen by stuck-at injection at mapping time.
    pub stuck_cells: u64,
    /// Individual `XNOR_Match` bits flipped by sense misreads.
    pub xnor_bit_flips: u64,
    /// Transient row-read burst events.
    pub transient_row_faults: u64,
    /// `IM_ADD` executions with a killed carry chain.
    pub carry_faults: u64,
}

impl FaultCounters {
    /// Adds `other`'s counts into `self`.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.stuck_cells += other.stuck_cells;
        self.xnor_bit_flips += other.xnor_bit_flips;
        self.transient_row_faults += other.transient_row_faults;
        self.carry_faults += other.carry_faults;
    }

    /// Total fault events injected (stuck cells count once each).
    pub fn total(&self) -> u64 {
        self.stuck_cells + self.xnor_bit_flips + self.transient_row_faults + self.carry_faults
    }
}

/// Samples fault decisions from a seeded campaign and counts them.
///
/// Determinism: the decision stream is a pure function of the campaign
/// (including its seed) and the order of sampling calls, so a rebuilt
/// platform replays the identical fault history.
///
/// # Examples
///
/// ```
/// use mram::faults::FaultCampaign;
/// use pimsim::FaultInjector;
///
/// let campaign = FaultCampaign::seeded(3).with_carry_fault_prob(1.0);
/// let mut injector = FaultInjector::new(campaign);
/// // A certain carry fault always yields a kill position.
/// assert!(injector.carry_fault_bit().is_some());
/// assert_eq!(injector.counters().carry_faults, 1);
/// ```
#[derive(Debug, Clone)]
pub struct FaultInjector {
    campaign: FaultCampaign,
    rng: u64,
    counters: FaultCounters,
}

impl FaultInjector {
    /// Creates an injector for `campaign`, seeding the decision stream
    /// from the campaign seed.
    pub fn new(campaign: FaultCampaign) -> FaultInjector {
        // SplitMix64 of the seed guarantees a non-zero xorshift state
        // even for seed 0.
        let mut z = campaign.seed().wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        FaultInjector {
            campaign,
            rng: z | 1,
            counters: FaultCounters::default(),
        }
    }

    /// The campaign driving this injector.
    pub fn campaign(&self) -> &FaultCampaign {
        &self.campaign
    }

    /// Injection counts so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Folds another injector's counts into this one's. The parallel
    /// engine runs each read against its own per-read injector
    /// ([`FaultCampaign::for_read`]) and absorbs the counts back into
    /// the session injector, so session telemetry stays a single total
    /// regardless of how reads were grouped.
    pub fn absorb_counters(&mut self, other: &FaultCounters) {
        self.counters.merge(other);
    }

    /// `true` when any fault class can fire.
    pub fn is_active(&self) -> bool {
        self.campaign.is_active()
    }

    /// One xorshift64 step.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// A uniform draw in `[0, 1)`.
    fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `0..n` (`n > 0`).
    fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Applies per-bit sense misreads to a match vector (probability =
    /// the campaign model's `xnor_misread_prob`). Returns the number of
    /// bits flipped.
    pub fn corrupt_match_bits(&mut self, bits: &mut [bool]) -> u64 {
        let p = self.campaign.model().xnor_misread_prob();
        if p <= 0.0 {
            return 0;
        }
        let mut flips = 0;
        for bit in bits.iter_mut() {
            if self.uniform() < p {
                *bit = !*bit;
                flips += 1;
            }
        }
        self.counters.xnor_bit_flips += flips;
        flips
    }

    /// With the campaign's transient-row rate, flips a short burst of
    /// adjacent bits somewhere in the row. Returns `true` when a burst
    /// fired.
    pub fn transient_row_fault(&mut self, row: &mut [bool]) -> bool {
        let p = self.campaign.transient_row_rate();
        if p <= 0.0 || row.is_empty() || self.uniform() >= p {
            return false;
        }
        let burst = 1 + self.index(MAX_BURST_BITS);
        let start = self.index(row.len());
        for bit in row.iter_mut().skip(start).take(burst) {
            *bit = !*bit;
        }
        self.counters.transient_row_faults += 1;
        true
    }

    /// Mask form of [`FaultInjector::corrupt_match_bits`]: applies
    /// per-bit sense misreads to the first `limit` bits of a packed
    /// match mask. Draws exactly one uniform per bit in ascending bit
    /// order — the identical RNG stream as the boolean form over a
    /// `limit`-length slice — so seeded replays stay bit-identical
    /// across the two representations. Returns the number of bits
    /// flipped.
    ///
    /// # Panics
    ///
    /// Panics if `limit > 128`.
    pub fn corrupt_match_mask(&mut self, mask: &mut MatchMask, limit: usize) -> u64 {
        assert!(limit <= MatchMask::BITS, "misread limit out of range");
        let p = self.campaign.model().xnor_misread_prob();
        if p <= 0.0 {
            return 0;
        }
        let mut flips = 0;
        for i in 0..limit {
            if self.uniform() < p {
                mask.flip(i);
                flips += 1;
            }
        }
        self.counters.xnor_bit_flips += flips;
        flips
    }

    /// Mask form of [`FaultInjector::transient_row_fault`] over the full
    /// 128-bit match vector: same decision stream (one uniform, then —
    /// only when the burst fires — a burst-length draw and a start draw),
    /// so a seeded replay produces the identical fault history whichever
    /// representation the caller uses. Returns `true` when a burst fired.
    pub fn transient_row_mask(&mut self, mask: &mut MatchMask) -> bool {
        let p = self.campaign.transient_row_rate();
        if p <= 0.0 || self.uniform() >= p {
            return false;
        }
        let burst = 1 + self.index(MAX_BURST_BITS);
        let start = self.index(MatchMask::BITS);
        for i in start..(start + burst).min(MatchMask::BITS) {
            mask.flip(i);
        }
        self.counters.transient_row_faults += 1;
        true
    }

    /// With the campaign's carry-fault probability, picks the bit
    /// position (0..32) at which the next `IM_ADD`'s carry chain dies.
    pub fn carry_fault_bit(&mut self) -> Option<usize> {
        let p = self.campaign.carry_fault_prob();
        if p <= 0.0 || self.uniform() >= p {
            return None;
        }
        self.counters.carry_faults += 1;
        Some(self.index(32))
    }

    /// Samples the stuck-at plan for one sub-array's data zone: for each
    /// cell in `rows × cols`, with the campaign's stuck-at rate the cell
    /// is frozen to a random value. Returns `(row, col, value)` triples.
    pub fn stuck_cell_plan(&mut self, rows: usize, cols: usize) -> Vec<(usize, usize, bool)> {
        let rate = self.campaign.stuck_at_rate();
        if rate <= 0.0 {
            return Vec::new();
        }
        let mut plan = Vec::new();
        for row in 0..rows {
            for col in 0..cols {
                if self.uniform() < rate {
                    plan.push((row, col, self.next_u64() & 1 == 1));
                }
            }
        }
        self.counters.stuck_cells += plan.len() as u64;
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mram::faults::FaultModel;

    fn noisy_campaign(seed: u64) -> FaultCampaign {
        FaultCampaign::seeded(seed)
            .with_model(FaultModel::with_probabilities(0.05, 0.0))
            .with_transient_row_rate(0.1)
            .with_carry_fault_prob(0.1)
            .with_stuck_at_rate(0.01)
    }

    #[test]
    fn inactive_campaign_never_fires() {
        let mut injector = FaultInjector::new(FaultCampaign::none());
        let mut bits = vec![true; 128];
        assert_eq!(injector.corrupt_match_bits(&mut bits), 0);
        assert!(!injector.transient_row_fault(&mut bits));
        assert!(injector.carry_fault_bit().is_none());
        assert!(injector.stuck_cell_plan(512, 256).is_empty());
        assert_eq!(injector.counters(), FaultCounters::default());
        assert!(bits.iter().all(|&b| b));
    }

    #[test]
    fn same_seed_replays_identical_decisions() {
        let mut a = FaultInjector::new(noisy_campaign(42));
        let mut b = FaultInjector::new(noisy_campaign(42));
        for _ in 0..50 {
            let mut row_a = vec![false; 128];
            let mut row_b = vec![false; 128];
            assert_eq!(
                a.corrupt_match_bits(&mut row_a),
                b.corrupt_match_bits(&mut row_b)
            );
            assert_eq!(row_a, row_b);
            assert_eq!(
                a.transient_row_fault(&mut row_a),
                b.transient_row_fault(&mut row_b)
            );
            assert_eq!(row_a, row_b);
            assert_eq!(a.carry_fault_bit(), b.carry_fault_bit());
        }
        assert_eq!(a.stuck_cell_plan(388, 256), b.stuck_cell_plan(388, 256));
        assert_eq!(a.counters(), b.counters());
        assert!(a.counters().total() > 0, "noisy campaign must fire");
    }

    #[test]
    fn mask_fault_apis_replay_the_boolean_stream() {
        // The packed-mask fault path must draw the exact RNG stream of
        // the boolean path: same decisions, same flipped bits, same
        // counters — this is what keeps seeded replays representation-
        // independent.
        let mut bool_injector = FaultInjector::new(noisy_campaign(99));
        let mut mask_injector = FaultInjector::new(noisy_campaign(99));
        for round in 0..200usize {
            let mut row = vec![false; 128];
            for i in (round % 5..128).step_by(3) {
                row[i] = true;
            }
            let mut mask = MatchMask::from_bools(&row);
            assert_eq!(
                bool_injector.transient_row_fault(&mut row),
                mask_injector.transient_row_mask(&mut mask),
                "burst decision diverged at round {round}"
            );
            let limit = (round * 37) % 129;
            assert_eq!(
                bool_injector.corrupt_match_bits(&mut row[..limit]),
                mask_injector.corrupt_match_mask(&mut mask, limit),
                "misread count diverged at round {round}"
            );
            assert_eq!(mask.to_bools(), row, "contents diverged at round {round}");
        }
        assert_eq!(bool_injector.counters(), mask_injector.counters());
        assert!(bool_injector.counters().total() > 0, "campaign must fire");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultInjector::new(noisy_campaign(1));
        let mut b = FaultInjector::new(noisy_campaign(2));
        let mut any_difference = false;
        for _ in 0..50 {
            let mut row_a = vec![false; 128];
            let mut row_b = vec![false; 128];
            a.corrupt_match_bits(&mut row_a);
            b.corrupt_match_bits(&mut row_b);
            any_difference |= row_a != row_b;
        }
        assert!(any_difference, "seeds 1 and 2 produced identical streams");
    }

    #[test]
    fn stuck_plan_rate_is_respected() {
        let campaign = FaultCampaign::seeded(5).with_stuck_at_rate(0.01);
        let mut injector = FaultInjector::new(campaign);
        let plan = injector.stuck_cell_plan(388, 256);
        let cells = 388 * 256;
        let expected = cells as f64 * 0.01;
        // Within ±50 % of the expectation (binomial, ~1k expected).
        assert!(
            (plan.len() as f64) > expected * 0.5 && (plan.len() as f64) < expected * 1.5,
            "{} stuck cells for expectation {expected}",
            plan.len()
        );
        assert_eq!(injector.counters().stuck_cells, plan.len() as u64);
        assert!(plan.iter().all(|&(r, c, _)| r < 388 && c < 256));
    }

    #[test]
    fn counters_merge_adds_fields() {
        let mut a = FaultCounters {
            stuck_cells: 1,
            xnor_bit_flips: 2,
            transient_row_faults: 3,
            carry_faults: 4,
        };
        let b = FaultCounters {
            stuck_cells: 10,
            xnor_bit_flips: 20,
            transient_row_faults: 30,
            carry_faults: 40,
        };
        a.merge(&b);
        assert_eq!(a.total(), 110);
    }
}
