//! The SOT-MRAM bit cell.
//!
//! Substitution note (DESIGN.md §2): the paper extracts cell behaviour from
//! NEGF + LLG simulation; the architecture above it only ever consumes the
//! two resistance states, their variation, and the `t_ox` dependence, so a
//! parametric model calibrated to reproduce the Fig. 5b sense levels is an
//! exact stand-in at the architecture level.
//!
//! Calibration (DESIGN.md §6): `R_P = 1.5 kΩ`, TMR = 100 % (so
//! `R_AP = 3 kΩ`) and `I_sense = 30 µA` give single-cell sense voltages of
//! 45 / 90 mV and three-cell parallel levels of 15 / 18 / 22.5 / 30 mV —
//! matching the x-axes and margins of Fig. 5b. MgO-barrier resistance
//! scales exponentially with thickness; `LAMBDA_NM = 0.2307` makes the
//! paper's `t_ox` 1.5 → 2 nm step produce the reported "~45 mV increase
//! in the \[MAJ\] sense margin".

/// Exponential thickness constant of the MgO barrier (nm per e-fold of
/// resistance). Calibrated so the paper's `t_ox` 1.5 → 2 nm step grows the
/// Monte-Carlo MAJ sense margin by ≈ 45 mV (see `montecarlo` tests).
pub const LAMBDA_NM: f64 = 0.167;

/// Reference MgO thickness the nominal resistances are specified at (nm).
pub const TOX_REF_NM: f64 = 1.5;

/// Static parameters of one SOT-MRAM cell plus its sensing current.
///
/// # Examples
///
/// ```
/// use mram::device::CellParams;
///
/// let cell = CellParams::default();
/// assert_eq!(cell.r_p_ohm(), 1_500.0);
/// assert_eq!(cell.r_ap_ohm(), 3_000.0);
/// // Sense voltage of a single stored '1': I · R_AP = 30 µA · 3 kΩ = 90 mV.
/// assert!((cell.sense_voltage_mv(cell.r_ap_ohm()) - 90.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellParams {
    /// Parallel (data-'0') resistance at `TOX_REF_NM`, in ohms.
    r_p_ohm: f64,
    /// Tunneling magnetoresistance ratio: `R_AP = R_P · (1 + TMR)`.
    tmr: f64,
    /// MgO thickness in nm (scales both resistances exponentially).
    tox_nm: f64,
    /// Sense current in µA.
    i_sense_ua: f64,
    /// Relative σ of the resistance-area product (paper: 2 %).
    sigma_ra: f64,
    /// Relative σ of the TMR (paper: 5 %).
    sigma_tmr: f64,
    /// Absolute input-referred σ of the sense comparator, in mV
    /// (default 0). Unlike the relative resistance σ, this term does
    /// *not* scale with `t_ox` — it is what makes the paper's
    /// thick-oxide reliability fix effective.
    sigma_offset_mv: f64,
}

impl Default for CellParams {
    fn default() -> Self {
        CellParams {
            r_p_ohm: 1_500.0,
            tmr: 1.0,
            tox_nm: TOX_REF_NM,
            i_sense_ua: 30.0,
            sigma_ra: 0.02,
            sigma_tmr: 0.05,
            sigma_offset_mv: 0.0,
        }
    }
}

impl CellParams {
    /// Creates parameters, validating physical plausibility.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive, or a σ is negative.
    pub fn new(r_p_ohm: f64, tmr: f64, tox_nm: f64, i_sense_ua: f64) -> CellParams {
        assert!(r_p_ohm > 0.0, "parallel resistance must be positive");
        assert!(tmr > 0.0, "TMR must be positive");
        assert!(tox_nm > 0.0, "oxide thickness must be positive");
        assert!(i_sense_ua > 0.0, "sense current must be positive");
        CellParams {
            r_p_ohm,
            tmr,
            tox_nm,
            i_sense_ua,
            ..CellParams::default()
        }
    }

    /// Returns a copy with a different MgO thickness — the paper's
    /// reliability knob ("we increased SOT-MRAM cell's tox from 1.5nm to
    /// 2nm").
    ///
    /// # Panics
    ///
    /// Panics if `tox_nm <= 0`.
    pub fn with_tox_nm(mut self, tox_nm: f64) -> CellParams {
        assert!(tox_nm > 0.0, "oxide thickness must be positive");
        self.tox_nm = tox_nm;
        self
    }

    /// Returns a copy with different variation σ values.
    ///
    /// # Panics
    ///
    /// Panics if either σ is negative.
    pub fn with_variation(mut self, sigma_ra: f64, sigma_tmr: f64) -> CellParams {
        assert!(
            sigma_ra >= 0.0 && sigma_tmr >= 0.0,
            "sigma must be non-negative"
        );
        self.sigma_ra = sigma_ra;
        self.sigma_tmr = sigma_tmr;
        self
    }

    /// Returns a copy with an absolute comparator-offset σ (mV).
    ///
    /// # Panics
    ///
    /// Panics if `sigma_mv` is negative.
    pub fn with_sense_offset(mut self, sigma_mv: f64) -> CellParams {
        assert!(sigma_mv >= 0.0, "sigma must be non-negative");
        self.sigma_offset_mv = sigma_mv;
        self
    }

    /// Absolute input-referred comparator σ in mV.
    pub fn sigma_offset_mv(&self) -> f64 {
        self.sigma_offset_mv
    }

    /// Thickness-dependent resistance scale: `exp((t_ox − t_ref)/λ)`.
    pub fn tox_scale(&self) -> f64 {
        ((self.tox_nm - TOX_REF_NM) / LAMBDA_NM).exp()
    }

    /// Parallel-state (data-'0') resistance in ohms at the configured
    /// thickness.
    pub fn r_p_ohm(&self) -> f64 {
        self.r_p_ohm * self.tox_scale()
    }

    /// Anti-parallel-state (data-'1') resistance in ohms.
    pub fn r_ap_ohm(&self) -> f64 {
        self.r_p_ohm() * (1.0 + self.tmr)
    }

    /// The nominal resistance of a cell holding `bit`
    /// (paper §IV-B: parallel = '0' = low, anti-parallel = '1' = high).
    pub fn resistance(&self, bit: bool) -> f64 {
        if bit {
            self.r_ap_ohm()
        } else {
            self.r_p_ohm()
        }
    }

    /// The sense current in µA.
    pub fn i_sense_ua(&self) -> f64 {
        self.i_sense_ua
    }

    /// Relative σ of the RA product.
    pub fn sigma_ra(&self) -> f64 {
        self.sigma_ra
    }

    /// Relative σ of the TMR.
    pub fn sigma_tmr(&self) -> f64 {
        self.sigma_tmr
    }

    /// The MgO thickness in nm.
    pub fn tox_nm(&self) -> f64 {
        self.tox_nm
    }

    /// The sense voltage (mV) developed across a path resistance
    /// (`V = I_sense · R`).
    pub fn sense_voltage_mv(&self, path_ohm: f64) -> f64 {
        self.i_sense_ua * 1e-6 * path_ohm * 1e3
    }

    /// A varied cell resistance given Gaussian deviates `z_ra`, `z_tmr`
    /// (standard-normal): RA variation scales both states; TMR variation
    /// affects only the anti-parallel state.
    pub fn varied_resistance(&self, bit: bool, z_ra: f64, z_tmr: f64) -> f64 {
        let rp = self.r_p_ohm() * (1.0 + self.sigma_ra * z_ra);
        if bit {
            let tmr = self.tmr * (1.0 + self.sigma_tmr * z_tmr);
            rp * (1.0 + tmr)
        } else {
            rp
        }
    }
}

/// Equivalent resistance of cells sensed in parallel on one bit line
/// (paper §IV-B: "the equivalent resistance of such parallel connected
/// cells … compared with three programmable references").
///
/// # Panics
///
/// Panics if `resistances` is empty or contains a non-positive value.
pub fn parallel_resistance(resistances: &[f64]) -> f64 {
    assert!(!resistances.is_empty(), "at least one cell must be sensed");
    let mut conductance = 0.0;
    for &r in resistances {
        assert!(r > 0.0, "cell resistance must be positive");
        conductance += 1.0 / r;
    }
    1.0 / conductance
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_calibration_matches_design_doc() {
        let c = CellParams::default();
        assert_eq!(c.r_p_ohm(), 1_500.0);
        assert_eq!(c.r_ap_ohm(), 3_000.0);
        assert_eq!(c.i_sense_ua(), 30.0);
        assert!((c.sigma_ra() - 0.02).abs() < 1e-12);
        assert!((c.sigma_tmr() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn sense_levels_match_fig5b_axes() {
        let c = CellParams::default();
        // Single cell: 45 / 90 mV.
        assert!((c.sense_voltage_mv(c.r_p_ohm()) - 45.0).abs() < 1e-9);
        assert!((c.sense_voltage_mv(c.r_ap_ohm()) - 90.0).abs() < 1e-9);
        // Three-cell parallel levels: 15 / 18 / 22.5 / 30 mV.
        let rp = c.r_p_ohm();
        let rap = c.r_ap_ohm();
        let v = |cells: &[f64]| c.sense_voltage_mv(parallel_resistance(cells));
        assert!((v(&[rp, rp, rp]) - 15.0).abs() < 1e-9);
        assert!((v(&[rap, rp, rp]) - 18.0).abs() < 1e-9);
        assert!((v(&[rap, rap, rp]) - 22.5).abs() < 1e-9);
        assert!((v(&[rap, rap, rap]) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn tox_increase_scales_resistance_exponentially() {
        let thin = CellParams::default();
        let thick = CellParams::default().with_tox_nm(2.0);
        let factor = thick.r_p_ohm() / thin.r_p_ohm();
        assert!((factor - (0.5f64 / LAMBDA_NM).exp()).abs() < 1e-9);
        // TMR is thickness-independent in this model, so both states
        // scale identically.
        assert!(
            (thick.r_ap_ohm() / thin.r_ap_ohm() - factor).abs() < 1e-9,
            "AP state must scale by the same factor"
        );
    }

    #[test]
    fn tox_step_widens_nominal_maj_gap() {
        // The MAJ decision gap at tox = 1.5 nm is 22.5 − 18 = 4.5 mV;
        // the paper's 1.5 → 2 nm reliability fix must widen it far past
        // the variation spread. The quantitative "+45 mV sense margin"
        // claim is asserted on the Monte-Carlo margin (the paper's
        // metric) in `montecarlo::tests::tox_increase_restores_maj_margin`.
        let gap = |c: &CellParams| {
            let rp = c.r_p_ohm();
            let rap = c.r_ap_ohm();
            c.sense_voltage_mv(parallel_resistance(&[rap, rap, rp]))
                - c.sense_voltage_mv(parallel_resistance(&[rap, rp, rp]))
        };
        let thin = CellParams::default();
        let thick = CellParams::default().with_tox_nm(2.0);
        assert!((gap(&thin) - 4.5).abs() < 1e-9);
        assert!(gap(&thick) > 40.0, "thick-oxide gap {:.1} mV", gap(&thick));
    }

    #[test]
    fn varied_resistance_zero_deviate_is_nominal() {
        let c = CellParams::default();
        assert_eq!(c.varied_resistance(false, 0.0, 0.0), c.r_p_ohm());
        assert_eq!(c.varied_resistance(true, 0.0, 0.0), c.r_ap_ohm());
    }

    #[test]
    fn tmr_variation_affects_only_ap_state() {
        let c = CellParams::default();
        assert_eq!(c.varied_resistance(false, 0.0, 3.0), c.r_p_ohm());
        assert!(c.varied_resistance(true, 0.0, 3.0) > c.r_ap_ohm());
    }

    #[test]
    fn parallel_resistance_of_equal_cells() {
        assert!((parallel_resistance(&[3000.0, 3000.0, 3000.0]) - 1000.0).abs() < 1e-9);
        assert!((parallel_resistance(&[1500.0]) - 1500.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn empty_parallel_panics() {
        let _ = parallel_resistance(&[]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn invalid_params_rejected() {
        let _ = CellParams::new(0.0, 1.0, 1.5, 30.0);
    }
}
