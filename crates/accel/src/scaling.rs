//! Deployment scaling: from one simulated die to a full-genome platform.
//!
//! The laptop-scale experiments map a few hundred kilobases; the paper's
//! target is Hg19, whose stored tables need ~13 GiB (see
//! `fmindex::size_model`). This module does the remaining arithmetic:
//! how many dies of a given capacity hold the tables, and what the
//! resulting board looks like. Because the correlated mapping (paper §V)
//! keeps every `LFM` local to one sub-array, throughput scales with the
//! number of *active pipeline units*, not with the genome size — the
//! scaling laws the per-query O(m) cost implies.

/// A multi-chip deployment sized to hold an index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deployment {
    /// Dies required.
    pub chips: usize,
    /// Total die area, mm².
    pub total_area_mm2: f64,
    /// Total storage capacity, bytes.
    pub total_capacity_bytes: u64,
    /// Capacity headroom factor (capacity / tables).
    pub headroom: f64,
}

/// Sizes a deployment: the smallest whole number of chips whose combined
/// capacity holds `table_bytes`.
///
/// # Panics
///
/// Panics if any argument is zero or non-positive.
///
/// # Examples
///
/// ```
/// use accel::scaling::deployment_for;
///
/// // Hg19 tables (~13 GiB) on 64 MiB computational-MRAM dies:
/// let d = deployment_for(14_000_000_000, 64 << 20, 36.7);
/// assert!(d.chips > 100, "needs a board of dies, got {}", d.chips);
/// assert!(d.headroom >= 1.0);
/// ```
pub fn deployment_for(
    table_bytes: u64,
    chip_capacity_bytes: u64,
    chip_area_mm2: f64,
) -> Deployment {
    assert!(table_bytes > 0, "table size must be positive");
    assert!(chip_capacity_bytes > 0, "chip capacity must be positive");
    assert!(chip_area_mm2 > 0.0, "chip area must be positive");
    let chips = table_bytes.div_ceil(chip_capacity_bytes) as usize;
    let total_capacity_bytes = chips as u64 * chip_capacity_bytes;
    Deployment {
        chips,
        total_area_mm2: chips as f64 * chip_area_mm2,
        total_capacity_bytes,
        headroom: total_capacity_bytes as f64 / table_bytes as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HG19_TABLE_BYTES: u64 = 14_000_000_000; // ~13 GiB, size_model

    #[test]
    fn hg19_on_simulated_dies() {
        // The default simulated die: 2048 × 512×256 sub-arrays = 64 MiB.
        let d = deployment_for(HG19_TABLE_BYTES, 64 << 20, 36.7);
        assert_eq!(d.chips, 209);
        assert!((d.headroom - 1.0).abs() < 0.01);
    }

    #[test]
    fn denser_dies_shrink_the_board() {
        let small = deployment_for(HG19_TABLE_BYTES, 64 << 20, 36.7);
        let dense = deployment_for(HG19_TABLE_BYTES, 1 << 30, 120.0);
        assert!(dense.chips < small.chips / 10);
        assert_eq!(dense.chips, 14);
    }

    #[test]
    fn exact_fit_has_unit_headroom() {
        let d = deployment_for(1 << 30, 1 << 28, 10.0);
        assert_eq!(d.chips, 4);
        assert_eq!(d.headroom, 1.0);
        assert_eq!(d.total_area_mm2, 40.0);
    }

    #[test]
    fn tiny_index_still_needs_one_chip() {
        let d = deployment_for(1, 1 << 20, 5.0);
        assert_eq!(d.chips, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = deployment_for(1, 0, 1.0);
    }
}
