//! Property tests for the margin-derived misread rate and the fault campaign
//! (DESIGN.md §8).
//!
//! The Monte-Carlo misread probability must respond to device variation
//! the way the physics says it should: more comparator offset or more
//! R/TMR spread can only make sensing worse, never better. With a fixed
//! Monte-Carlo seed the gaussian draws are shared across parameter
//! values, so these monotonicity checks are deterministic, not
//! statistical.

use mram::device::CellParams;
use mram::faults::FaultCampaign;
use proptest::prelude::*;

/// Quantized sense-offset levels (mV): coarse enough that adjacent
/// levels differ by many shared Monte-Carlo draws.
fn offset_level() -> impl Strategy<Value = f64> {
    (0u8..6).prop_map(|k| 0.5 * k as f64)
}

/// Quantized variation multiplier on the paper's (2 %, 5 %) sigmas.
fn variation_level() -> impl Strategy<Value = f64> {
    (1u8..6).prop_map(|k| k as f64)
}

const TRIALS: usize = 1_500;
const MC_SEED: u64 = 11;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Misread probability is monotone non-decreasing in the comparator
    /// sense offset.
    #[test]
    fn misread_monotone_in_sense_offset(a in offset_level(), b in offset_level()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let p_lo = FaultCampaign::from_cell(
            &CellParams::default().with_sense_offset(lo), TRIALS, MC_SEED);
        let p_hi = FaultCampaign::from_cell(
            &CellParams::default().with_sense_offset(hi), TRIALS, MC_SEED);
        prop_assert!(
            p_lo.xnor_misread_prob() <= p_hi.xnor_misread_prob(),
            "offset {lo} -> p {}, offset {hi} -> p {}",
            p_lo.xnor_misread_prob(), p_hi.xnor_misread_prob()
        );
    }

    /// Misread probability is monotone non-decreasing in the R/TMR
    /// variation sigmas (scaled together from the paper's nominal pair).
    #[test]
    fn misread_monotone_in_variation_sigma(a in variation_level(), b in variation_level()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        // A sense offset keeps the probabilities off the floor so the
        // comparison is informative at small sigmas.
        let cell = CellParams::default().with_sense_offset(1.0);
        let p_lo = FaultCampaign::from_cell(
            &cell.with_variation(0.02 * lo, 0.05 * lo), TRIALS, MC_SEED);
        let p_hi = FaultCampaign::from_cell(
            &cell.with_variation(0.02 * hi, 0.05 * hi), TRIALS, MC_SEED);
        prop_assert!(
            p_lo.xnor_misread_prob() <= p_hi.xnor_misread_prob(),
            "sigma x{lo} -> p {}, sigma x{hi} -> p {}",
            p_lo.xnor_misread_prob(), p_hi.xnor_misread_prob()
        );
    }

    /// A seeded campaign replays identically: equal seeds and rates give
    /// equal campaigns, which drive equal injector decision streams.
    #[test]
    fn seeded_campaign_replays_identically(
        seed in any::<u64>(),
        xnor in (0u8..4).prop_map(|k| k as f64 * 1e-3),
        transient in (0u8..4).prop_map(|k| k as f64 * 1e-3),
    ) {
        let build = || FaultCampaign::seeded(seed)
            .with_xnor_misread_prob(xnor)
            .with_transient_row_rate(transient)
            .with_carry_fault_prob(1e-4);
        prop_assert_eq!(build(), build());
    }
}

#[test]
fn ideal_model_is_exactly_zero() {
    let ideal = FaultCampaign::none();
    assert_eq!(ideal.xnor_misread_prob(), 0.0);
    assert!(!ideal.is_active());
    // The paper's nominal design point senses fault-free too.
    let nominal = FaultCampaign::from_cell(&CellParams::default(), TRIALS, MC_SEED);
    assert_eq!(nominal.xnor_misread_prob(), 0.0);
}

#[test]
fn offset_eventually_degrades_sensing() {
    // The monotone chain is not vacuous: a large offset must actually
    // produce a nonzero misread probability.
    let noisy = FaultCampaign::from_cell(
        &CellParams::default().with_sense_offset(2.5),
        TRIALS,
        MC_SEED,
    );
    assert!(noisy.xnor_misread_prob() > 0.0);
}
