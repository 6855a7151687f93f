//! Fault campaigns: from Monte-Carlo margins to misread probabilities,
//! plus the structural fault classes.
//!
//! The paper caps the sensed fan-in at three and thickens the MgO barrier
//! precisely "to avoid logic failure and guarantee the SA output's
//! reliability". This module quantifies what happens when those
//! precautions are *not* enough: it turns a variation level into a
//! per-decision misread probability that the platform simulator can
//! inject into `XNOR_Match`, closing the loop from device variation to
//! alignment accuracy (DESIGN.md §8).

use crate::device::CellParams;
use crate::montecarlo::run;

fn assert_probability(p: f64, what: &str) {
    assert!((0.0..=1.0).contains(&p), "{what} probability out of range");
}

/// A seeded, reproducible fault-injection campaign: one replay seed and
/// one rate for each fault class the platform simulator injects
/// (DESIGN.md §8).
///
/// The four fault classes are:
///
/// * **sense misreads** — per-bit `XNOR_Match` decision errors, derived
///   from Monte-Carlo margins ([`FaultCampaign::from_cell`]) or set
///   explicitly;
/// * **stuck-at cells** — a fraction of MRAM cells frozen to a random
///   value when the tables are mapped (persistent data corruption);
/// * **transient row-read faults** — whole-row sense events that flip a
///   short burst of bits in one `XNOR_Match` read (non-persistent);
/// * **`IM_ADD` carry-chain faults** — an addition whose ripple carry
///   dies at a random bit position.
///
/// All sampling is driven by `seed`, so a campaign replays identically:
/// two platforms built from the same campaign inject the same faults at
/// the same decisions.
///
/// # Examples
///
/// ```
/// use mram::faults::FaultCampaign;
///
/// let quiet = FaultCampaign::none();
/// assert!(!quiet.is_active());
///
/// let noisy = FaultCampaign::seeded(7)
///     .with_xnor_misread_prob(1e-3)
///     .with_transient_row_rate(1e-3)
///     .with_carry_fault_prob(1e-4);
/// assert!(noisy.is_active());
/// assert_eq!(noisy.seed(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultCampaign {
    seed: u64,
    xnor_misread_prob: f64,
    stuck_at_rate: f64,
    transient_row_rate: f64,
    carry_fault_prob: f64,
}

impl FaultCampaign {
    /// A fault-free campaign (every rate zero).
    pub fn none() -> FaultCampaign {
        FaultCampaign::seeded(0)
    }

    /// A fault-free campaign with an explicit replay seed; enable fault
    /// classes with the `with_*` builders.
    pub fn seeded(seed: u64) -> FaultCampaign {
        FaultCampaign {
            seed,
            xnor_misread_prob: 0.0,
            stuck_at_rate: 0.0,
            transient_row_rate: 0.0,
            carry_fault_prob: 0.0,
        }
    }

    /// Runs the Monte-Carlo margin analysis for `cell` (`trials` draws
    /// from `seed`) and takes its sense-misread rate from it: the
    /// `XNOR_Match` decision uses the three-input XOR3 path, whose worst
    /// threshold is the MAJ boundary. The campaign's replay seed is
    /// `seed` too; the structural rates stay zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use mram::device::CellParams;
    /// use mram::faults::FaultCampaign;
    ///
    /// // At the paper's variation the platform is fault-free...
    /// let nominal = FaultCampaign::from_cell(&CellParams::default(), 2_000, 7);
    /// assert_eq!(nominal.xnor_misread_prob(), 0.0);
    ///
    /// // ...but a noisy comparator starts to overlap the XOR3 levels.
    /// let noisy_cell = CellParams::default().with_sense_offset(1.5);
    /// let noisy = FaultCampaign::from_cell(&noisy_cell, 2_000, 7);
    /// assert!(noisy.xnor_misread_prob() > nominal.xnor_misread_prob());
    /// ```
    pub fn from_cell(cell: &CellParams, trials: usize, seed: u64) -> FaultCampaign {
        let report = run(cell, trials, seed);
        let worst = report
            .panel(3)
            .misread_prob
            .iter()
            .copied()
            .fold(0.0f64, f64::max);
        FaultCampaign::seeded(seed).with_xnor_misread_prob(worst)
    }

    /// Sets the probability that one sensed bit of an `XNOR_Match`
    /// vector reads wrong.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is outside `[0, 1]`.
    pub fn with_xnor_misread_prob(mut self, prob: f64) -> FaultCampaign {
        assert_probability(prob, "XNOR misread");
        self.xnor_misread_prob = prob;
        self
    }

    /// Sets the replay seed.
    pub fn with_seed(mut self, seed: u64) -> FaultCampaign {
        self.seed = seed;
        self
    }

    /// Sets the fraction of data-zone cells stuck at a random value.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn with_stuck_at_rate(mut self, rate: f64) -> FaultCampaign {
        assert_probability(rate, "stuck-at");
        self.stuck_at_rate = rate;
        self
    }

    /// Sets the per-row-read probability of a transient burst fault.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn with_transient_row_rate(mut self, rate: f64) -> FaultCampaign {
        assert_probability(rate, "transient row");
        self.transient_row_rate = rate;
        self
    }

    /// Sets the per-`IM_ADD` probability of a carry-chain fault.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is outside `[0, 1]`.
    pub fn with_carry_fault_prob(mut self, prob: f64) -> FaultCampaign {
        assert_probability(prob, "carry fault");
        self.carry_fault_prob = prob;
        self
    }

    /// The replay seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-bit `XNOR_Match` misread probability.
    pub fn xnor_misread_prob(&self) -> f64 {
        self.xnor_misread_prob
    }

    /// The stuck-at cell rate.
    pub fn stuck_at_rate(&self) -> f64 {
        self.stuck_at_rate
    }

    /// The transient row-read fault rate.
    pub fn transient_row_rate(&self) -> f64 {
        self.transient_row_rate
    }

    /// The `IM_ADD` carry-chain fault probability.
    pub fn carry_fault_prob(&self) -> f64 {
        self.carry_fault_prob
    }

    /// Derives the deterministic sub-campaign for one *read*.
    ///
    /// The parallel engine gives every read its own decision stream keyed
    /// by the read's global index (plus the chunk epoch), so the faults a
    /// read sees depend only on the campaign seed and on *which read it
    /// is* — never on how reads were scheduled across worker threads or
    /// interleaved by work stealing. That is what makes seeded-fault SAM
    /// output byte-identical across `--threads` settings.
    ///
    /// There is no identity token: every token re-seeds through a
    /// SplitMix64 finalizer over `(seed, token)`, so no read replays the
    /// base campaign's own stream (the one a sequential session and the
    /// index build draw from). The rates are inherited unchanged — only
    /// the seed differs.
    pub fn for_read(self, token: u64) -> FaultCampaign {
        // The salt is part of the replay contract: every seeded faulted
        // run on record was drawn with it.
        let mut z = self
            .seed
            .wrapping_add(0xd1b5_4a32_d192_ed03)
            .wrapping_add(token.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        self.with_seed(z)
    }

    /// `true` when any fault class can fire (simulators skip every
    /// sampling path for inactive campaigns).
    pub fn is_active(&self) -> bool {
        self.xnor_misread_prob > 0.0
            || self.stuck_at_rate > 0.0
            || self.transient_row_rate > 0.0
            || self.carry_fault_prob > 0.0
    }
}

impl Default for FaultCampaign {
    fn default() -> Self {
        FaultCampaign::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_model_is_fault_free() {
        let c = FaultCampaign::none();
        assert_eq!(c.xnor_misread_prob(), 0.0);
        assert_eq!(c.stuck_at_rate(), 0.0);
        assert_eq!(c.transient_row_rate(), 0.0);
        assert_eq!(c.carry_fault_prob(), 0.0);
    }

    #[test]
    fn paper_sigma_yields_zero_misreads() {
        let c = FaultCampaign::from_cell(&CellParams::default(), 3_000, 11);
        assert!(!c.is_active(), "paper variation must be reliable: {c:?}");
    }

    #[test]
    fn comparator_offset_yields_faults() {
        // The 3-cell level gap is 3 mV; a 1.5 mV absolute offset sigma
        // overlaps adjacent distributions.
        let noisy = CellParams::default().with_sense_offset(1.5);
        let c = FaultCampaign::from_cell(&noisy, 3_000, 11);
        assert!(
            c.xnor_misread_prob() > 0.0,
            "1.5 mV offset must overlap levels"
        );
        assert!(c.is_active());
    }

    #[test]
    fn thick_oxide_restores_reliability() {
        // The paper's fix: raising t_ox scales the resistance levels
        // (and their gaps) exponentially, while the comparator offset is
        // absolute — so the same offset becomes harmless.
        let noisy = CellParams::default().with_sense_offset(1.5);
        let thin = FaultCampaign::from_cell(&noisy, 3_000, 13);
        let thick = FaultCampaign::from_cell(&noisy.with_tox_nm(2.0), 3_000, 13);
        assert!(thin.xnor_misread_prob() > 0.0);
        assert_eq!(
            thick.xnor_misread_prob(),
            0.0,
            "thick oxide must be reliable"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_probability_rejected() {
        let _ = FaultCampaign::none().with_xnor_misread_prob(1.5);
    }

    #[test]
    fn campaign_activity_tracks_every_class() {
        assert!(!FaultCampaign::none().is_active());
        assert!(!FaultCampaign::seeded(99).is_active());
        assert!(FaultCampaign::none()
            .with_xnor_misread_prob(1e-3)
            .is_active());
        assert!(FaultCampaign::none().with_stuck_at_rate(1e-4).is_active());
        assert!(FaultCampaign::none()
            .with_transient_row_rate(1e-4)
            .is_active());
        assert!(FaultCampaign::none()
            .with_carry_fault_prob(1e-4)
            .is_active());
    }

    #[test]
    fn campaign_from_cell_takes_the_worst_three_input_misread() {
        let noisy = CellParams::default().with_sense_offset(1.5);
        let campaign = FaultCampaign::from_cell(&noisy, 2_000, 11);
        let panel = run(&noisy, 2_000, 11).panel(3).misread_prob.clone();
        assert!(panel.iter().all(|&p| p <= campaign.xnor_misread_prob()));
        assert!(panel.contains(&campaign.xnor_misread_prob()));
        assert!(campaign.is_active());
        assert_eq!(campaign.seed(), 11);
        assert_eq!(campaign.stuck_at_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "stuck-at probability out of range")]
    fn campaign_rejects_bad_rate() {
        let _ = FaultCampaign::none().with_stuck_at_rate(-0.1);
    }

    #[test]
    fn read_tokens_get_distinct_decorrelated_seeds() {
        let base = FaultCampaign::seeded(37)
            .with_xnor_misread_prob(1e-3)
            .with_carry_fault_prob(1e-4);
        let mut seeds: Vec<u64> = (0..64).map(|t| base.for_read(t).seed()).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 64, "read seeds must all differ");
        // Token 0 re-seeds too: the per-read stream is never the base
        // campaign's own stream.
        assert_ne!(base.for_read(0).seed(), base.seed());
        // Rates are inherited unchanged; derivation is deterministic.
        let r5 = base.for_read(5);
        assert_eq!(r5.with_seed(base.seed()), base);
        assert_eq!(base.for_read(5), base.for_read(5));
    }
}
