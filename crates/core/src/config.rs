//! Platform configuration.

use mram::array::{ArrayModel, ChipOrg};
use mram::faults::{FaultCampaign, FaultModel};
use pimsim::pipeline::PipelineParams;

/// The request width of `benchmark/src/trace.rs`'s
/// [`MappedIndex::lfm_batch`](crate::MappedIndex::lfm_batch) probe, which
/// compiles against it. Nothing in the aligner reads it: every read runs
/// the single-read kernel.
pub const DEFAULT_KERNEL_BATCH: usize = 8;

/// The verify-and-recover policy (DESIGN.md §8): what the aligner does
/// when a candidate locus fails online verification against the
/// reference.
///
/// The escalation ladder is: re-run the LFM loop (faults re-draw) up to
/// [`max_retries`](RecoveryPolicy::max_retries) times → escalate the
/// difference budget `z` one step at a time up to
/// [`max_escalated_diffs`](RecoveryPolicy::max_escalated_diffs) → fall
/// back to the fault-free host software path when
/// [`host_fallback`](RecoveryPolicy::host_fallback) is set.
///
/// # Examples
///
/// ```
/// use pim_aligner::RecoveryPolicy;
///
/// assert!(!RecoveryPolicy::disabled().is_enabled());
/// let p = RecoveryPolicy::standard();
/// assert!(p.is_enabled() && p.host_fallback);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Master switch; when `false` the aligner emits raw platform
    /// results with zero verification overhead.
    pub enabled: bool,
    /// Same-budget re-runs before escalating.
    pub max_retries: u32,
    /// Ceiling for the escalated difference budget (clamped to the
    /// [`fmindex::EditBudget`] cap of 8).
    pub max_escalated_diffs: u8,
    /// Whether the final rung falls back to the host software aligner
    /// (FM-index search + Smith–Waterman verification), which is
    /// fault-free by construction.
    pub host_fallback: bool,
}

impl RecoveryPolicy {
    /// No verification, no recovery (the raw platform path).
    pub fn disabled() -> RecoveryPolicy {
        RecoveryPolicy {
            enabled: false,
            max_retries: 0,
            max_escalated_diffs: 0,
            host_fallback: false,
        }
    }

    /// The default active policy: 2 retries, escalate one step past the
    /// configured budget, host fallback on.
    pub fn standard() -> RecoveryPolicy {
        RecoveryPolicy {
            enabled: true,
            max_retries: 2,
            max_escalated_diffs: 3,
            host_fallback: true,
        }
    }

    /// Sets the escalation ceiling.
    ///
    /// # Panics
    ///
    /// Panics if `z > 8` (the [`fmindex::EditBudget`] cap).
    pub fn with_max_escalated_diffs(mut self, z: u8) -> RecoveryPolicy {
        assert!(z <= 8, "difference budget too large");
        self.max_escalated_diffs = z;
        self
    }

    /// Whether recovery is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy::disabled()
    }
}

/// Where `IM_ADD` executes (paper §V, Fig. 6d).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddMethod {
    /// Method-I: the addition runs in the same computational sub-array,
    /// blocking its comparison resources.
    InPlace,
    /// Method-II: the sub-array is duplicated and additions run in the
    /// copy, freeing the original's comparison resources (required for
    /// the Fig. 7 pipeline).
    Mirrored,
}

/// Configuration of a [`Platform`](crate::Platform).
///
/// # Examples
///
/// ```
/// use pim_aligner::{AddMethod, PimAlignerConfig};
///
/// let baseline = PimAlignerConfig::baseline();     // PIM-Aligner-n
/// assert_eq!(baseline.pd(), 1);
/// let pipelined = PimAlignerConfig::pipelined();   // PIM-Aligner-p
/// assert_eq!(pipelined.pd(), 2);
/// assert_eq!(pipelined.method(), AddMethod::Mirrored);
/// ```
#[derive(Debug, Clone)]
pub struct PimAlignerConfig {
    pd: usize,
    method: AddMethod,
    model: ArrayModel,
    chip: ChipOrg,
    pipeline: PipelineParams,
    max_diffs: u8,
    allow_indels: bool,
    exhaustive_inexact: bool,
    fault_campaign: FaultCampaign,
    recovery: RecoveryPolicy,
}

impl PimAlignerConfig {
    /// The paper's baseline configuration, **PIM-Aligner-n**: method-I,
    /// no pipelining.
    pub fn baseline() -> PimAlignerConfig {
        PimAlignerConfig {
            pd: 1,
            method: AddMethod::InPlace,
            model: ArrayModel::default(),
            chip: ChipOrg::default(),
            pipeline: PipelineParams::default(),
            max_diffs: 2,
            allow_indels: true,
            exhaustive_inexact: false,
            fault_campaign: FaultCampaign::none(),
            recovery: RecoveryPolicy::disabled(),
        }
    }

    /// The paper's pipelined configuration, **PIM-Aligner-p**: method-II
    /// with `Pd = 2`.
    pub fn pipelined() -> PimAlignerConfig {
        PimAlignerConfig {
            pd: 2,
            method: AddMethod::Mirrored,
            ..PimAlignerConfig::baseline()
        }
    }

    /// Sets the parallelism degree (Fig. 9c sweeps 1..=4).
    ///
    /// `pd >= 2` requires (and implies) [`AddMethod::Mirrored`].
    ///
    /// # Panics
    ///
    /// Panics if `pd == 0`.
    pub fn with_pd(mut self, pd: usize) -> PimAlignerConfig {
        assert!(pd >= 1, "parallelism degree must be at least 1");
        self.pd = pd;
        if pd >= 2 {
            self.method = AddMethod::Mirrored;
        }
        self
    }

    /// No-op shim pinned by `benchmark/src/trace.rs:84` (ROADMAP 1c).
    pub fn with_kernel_batch(self, _: usize) -> PimAlignerConfig {
        self
    }

    /// No-op shim pinned by `benchmark/src/trace.rs:85` (ROADMAP 3b).
    pub fn with_kernel_simd(self, _: pimsim::SimdPolicy) -> PimAlignerConfig {
        self
    }

    /// Sets the addition method.
    ///
    /// # Panics
    ///
    /// Panics if method-I is requested with `pd >= 2` (the pipeline
    /// needs the mirrored sub-array).
    pub fn with_method(mut self, method: AddMethod) -> PimAlignerConfig {
        assert!(
            !(method == AddMethod::InPlace && self.pd >= 2),
            "method-I cannot pipeline; use Mirrored for Pd >= 2"
        );
        self.method = method;
        self
    }

    /// Sets the array model (device/energy calibration).
    pub fn with_model(mut self, model: ArrayModel) -> PimAlignerConfig {
        self.model = model;
        self
    }

    /// Sets the inexact-stage difference budget `z` (paper input:
    /// "number of mismatches-z"; evaluation uses ≤ 2).
    ///
    /// # Panics
    ///
    /// Panics if `z > 8` (same cap as [`fmindex::EditBudget`]).
    pub fn with_max_diffs(mut self, z: u8) -> PimAlignerConfig {
        assert!(z <= 8, "difference budget too large");
        self.max_diffs = z;
        self
    }

    /// Enables or disables indel handling in the inexact stage.
    pub fn with_indels(mut self, allow: bool) -> PimAlignerConfig {
        self.allow_indels = allow;
        self
    }

    /// Switches the inexact stage between first-accept backtracking (the
    /// default, mirroring the hardware's bounded DPU register file) and
    /// exhaustive edit-neighbourhood enumeration (the oracle mode; can be
    /// orders of magnitude slower on long reads).
    pub fn with_exhaustive_inexact(mut self, exhaustive: bool) -> PimAlignerConfig {
        self.exhaustive_inexact = exhaustive;
        self
    }

    /// Whether the inexact stage enumerates exhaustively.
    pub fn exhaustive_inexact(&self) -> bool {
        self.exhaustive_inexact
    }

    /// Injects sensing faults into the platform's `XNOR_Match`
    /// primitives (DESIGN.md §8 failure-injection extension). Derive the
    /// model from Monte-Carlo margins with
    /// [`FaultModel::from_cell`](mram::faults::FaultModel::from_cell) or
    /// set probabilities explicitly. Shorthand for setting the model of
    /// the [`fault_campaign`](PimAlignerConfig::fault_campaign).
    pub fn with_fault_model(mut self, faults: FaultModel) -> PimAlignerConfig {
        self.fault_campaign = self.fault_campaign.with_model(faults);
        self
    }

    /// Installs a full seeded fault campaign (sense misreads, stuck-at
    /// cells, transient row bursts, `IM_ADD` carry faults).
    pub fn with_fault_campaign(mut self, campaign: FaultCampaign) -> PimAlignerConfig {
        self.fault_campaign = campaign;
        self
    }

    /// Re-seeds the active fault campaign (the CLI's `--fault-seed`).
    pub fn with_fault_seed(mut self, seed: u64) -> PimAlignerConfig {
        self.fault_campaign = self.fault_campaign.with_seed(seed);
        self
    }

    /// Sets the verify-and-recover policy.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> PimAlignerConfig {
        self.recovery = recovery;
        self
    }

    /// The active sensing-fault model (the campaign's sense component).
    pub fn fault_model(&self) -> FaultModel {
        self.fault_campaign.model()
    }

    /// The active fault campaign.
    pub fn fault_campaign(&self) -> FaultCampaign {
        self.fault_campaign
    }

    /// The verify-and-recover policy.
    pub fn recovery(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// The parallelism degree.
    pub fn pd(&self) -> usize {
        self.pd
    }

    /// The addition method.
    pub fn method(&self) -> AddMethod {
        self.method
    }

    /// The array model.
    pub fn model(&self) -> &ArrayModel {
        &self.model
    }

    /// The chip organisation.
    pub fn chip(&self) -> ChipOrg {
        self.chip
    }

    /// The pipeline stage timing.
    pub fn pipeline(&self) -> PipelineParams {
        self.pipeline
    }

    /// The inexact-stage difference budget.
    pub fn max_diffs(&self) -> u8 {
        self.max_diffs
    }

    /// Whether indels are allowed in the inexact stage.
    pub fn allows_indels(&self) -> bool {
        self.allow_indels
    }

    /// The edit budget for the inexact stage.
    pub fn edit_budget(&self) -> fmindex::EditBudget {
        if self.allow_indels {
            fmindex::EditBudget::edits(self.max_diffs)
        } else {
            fmindex::EditBudget::substitutions_only(self.max_diffs)
        }
    }
}

impl Default for PimAlignerConfig {
    fn default() -> Self {
        PimAlignerConfig::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_method_one_unpipelined() {
        let c = PimAlignerConfig::baseline();
        assert_eq!(c.pd(), 1);
        assert_eq!(c.method(), AddMethod::InPlace);
    }

    #[test]
    fn pipelined_is_method_two_pd2() {
        let c = PimAlignerConfig::pipelined();
        assert_eq!(c.pd(), 2);
        assert_eq!(c.method(), AddMethod::Mirrored);
    }

    #[test]
    fn raising_pd_switches_to_mirrored() {
        let c = PimAlignerConfig::baseline().with_pd(3);
        assert_eq!(c.method(), AddMethod::Mirrored);
    }

    #[test]
    #[should_panic(expected = "method-I cannot pipeline")]
    fn in_place_with_pipeline_rejected() {
        let _ = PimAlignerConfig::pipelined().with_method(AddMethod::InPlace);
    }

    #[test]
    fn fault_model_shorthand_updates_campaign() {
        let model = FaultModel::with_probabilities(0.01, 0.0);
        let c = PimAlignerConfig::baseline()
            .with_fault_campaign(FaultCampaign::seeded(5).with_stuck_at_rate(1e-4))
            .with_fault_model(model)
            .with_fault_seed(9);
        assert_eq!(c.fault_model(), model);
        assert_eq!(c.fault_campaign().seed(), 9);
        assert_eq!(c.fault_campaign().stuck_at_rate(), 1e-4);
    }

    #[test]
    fn recovery_defaults_off() {
        assert!(!PimAlignerConfig::baseline().recovery().is_enabled());
        let c = PimAlignerConfig::baseline().with_recovery(RecoveryPolicy::standard());
        assert!(c.recovery().is_enabled());
        assert_eq!(c.recovery().max_retries, 2);
    }

    #[test]
    #[should_panic(expected = "difference budget too large")]
    fn recovery_escalation_capped() {
        let _ = RecoveryPolicy::standard().with_max_escalated_diffs(9);
    }

    #[test]
    fn edit_budget_reflects_settings() {
        let c = PimAlignerConfig::baseline()
            .with_max_diffs(1)
            .with_indels(false);
        assert_eq!(c.edit_budget(), fmindex::EditBudget::substitutions_only(1));
        let c = c.with_indels(true);
        assert_eq!(c.edit_budget(), fmindex::EditBudget::edits(1));
    }
}
