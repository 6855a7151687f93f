//! NVSim-lite: latency, energy and area of the computational sub-array.
//!
//! Substitution note (DESIGN.md §2): the paper feeds device/circuit data
//! into NVSim to obtain per-operation latency/energy and chip area for a
//! given array organisation, then drives a behavioural simulator with
//! those numbers. [`ArrayModel`] plays the NVSim role here: it exposes
//! the cycle time, per-operation energies and an area model, with the
//! constants documented (and justified) in DESIGN.md §6. Every
//! [`ArrayOp`] takes one cycle at word-line granularity; how many of them
//! a multi-bit operation issues, and the behavioural accounting itself,
//! live in the `pimsim` crate.

use crate::device::CellParams;

/// One primitive array operation, at word-line granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayOp {
    /// Activate one row and sense it (memory mode, `C_M`).
    ReadRow,
    /// Drive one row's write word line.
    WriteRow,
    /// Activate three rows and sense with compute references
    /// (AND3/MAJ/OR3/XOR3) — the paper's single-cycle bulk bit-wise op.
    ComputeTriple,
    /// One digital-processing-unit operation (popcount step, register
    /// update, state bookkeeping).
    DpuOp,
}

impl ArrayOp {
    /// All operation kinds.
    pub const ALL: [ArrayOp; 4] = [
        ArrayOp::ReadRow,
        ArrayOp::WriteRow,
        ArrayOp::ComputeTriple,
        ArrayOp::DpuOp,
    ];
}

/// Geometry of one computational sub-array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubArrayGeometry {
    /// Word lines (rows).
    pub rows: usize,
    /// Bit lines (columns).
    pub cols: usize,
}

impl SubArrayGeometry {
    /// The paper's computational sub-array: 512 × 256.
    pub const PAPER: SubArrayGeometry = SubArrayGeometry {
        rows: 512,
        cols: 256,
    };

    /// Total cell count.
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }
}

impl Default for SubArrayGeometry {
    fn default() -> Self {
        SubArrayGeometry::PAPER
    }
}

/// Per-operation latency/energy plus area for one sub-array
/// (NVSim-lite; constants from DESIGN.md §6).
///
/// # Examples
///
/// ```
/// use mram::array::{ArrayModel, ArrayOp};
///
/// let model = ArrayModel::default();
/// assert!(model.energy_pj(ArrayOp::ComputeTriple) > model.energy_pj(ArrayOp::ReadRow));
/// assert!(model.compute_area_overhead() < 0.10);        // paper: <10 % of chip area
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayModel {
    geometry: SubArrayGeometry,
    cell: CellParams,
    /// Memory cycle time in ns.
    cycle_ns: f64,
    /// Energy of a full-row read, pJ.
    read_row_pj: f64,
    /// Energy of a full-row write, pJ.
    write_row_pj: f64,
    /// Energy of a triple-row compute sense, pJ.
    compute_pj: f64,
    /// Energy of one DPU operation, pJ.
    dpu_pj: f64,
    /// Technology feature size in nm (45 nm NCSU PDK class).
    feature_nm: f64,
    /// Cell footprint in F² (2T1R SOT-MRAM).
    cell_f2: f64,
    /// Peripheral area multiplier (decoders, drivers, plain SAs).
    periphery_factor: f64,
    /// Extra area fraction for the reconfigurable-SA compute support
    /// (paper: "less than 10% of chip area").
    compute_overhead: f64,
}

impl Default for ArrayModel {
    fn default() -> Self {
        ArrayModel {
            geometry: SubArrayGeometry::PAPER,
            cell: CellParams::default(),
            cycle_ns: 2.0,
            read_row_pj: 100.0,
            write_row_pj: 150.0,
            compute_pj: 200.0,
            dpu_pj: 50.0,
            feature_nm: 45.0,
            cell_f2: 50.0,
            periphery_factor: 1.25,
            compute_overhead: 0.08,
        }
    }
}

impl ArrayModel {
    /// Builds a model with the paper geometry and a custom cell.
    pub fn with_cell(cell: CellParams) -> ArrayModel {
        ArrayModel {
            cell,
            ..ArrayModel::default()
        }
    }

    /// The sub-array geometry.
    pub fn geometry(&self) -> SubArrayGeometry {
        self.geometry
    }

    /// The underlying cell parameters.
    pub fn cell(&self) -> &CellParams {
        &self.cell
    }

    /// Memory cycle time in ns.
    pub fn cycle_ns(&self) -> f64 {
        self.cycle_ns
    }

    /// Dynamic energy of one operation in pJ.
    pub fn energy_pj(&self, op: ArrayOp) -> f64 {
        match op {
            ArrayOp::ReadRow => self.read_row_pj,
            ArrayOp::WriteRow => self.write_row_pj,
            ArrayOp::ComputeTriple => self.compute_pj,
            ArrayOp::DpuOp => self.dpu_pj,
        }
    }

    /// Area of one sub-array in mm², including periphery and the
    /// compute-support overhead.
    pub fn subarray_area_mm2(&self) -> f64 {
        let f_m = self.feature_nm * 1e-9;
        let cell_m2 = self.cell_f2 * f_m * f_m;
        let core_mm2 = self.geometry.cells() as f64 * cell_m2 * 1e6;
        core_mm2 * self.periphery_factor * (1.0 + self.compute_overhead)
    }

    /// The fraction of area added by compute support (must stay below the
    /// paper's 10 % claim).
    pub fn compute_area_overhead(&self) -> f64 {
        self.compute_overhead
    }
}

/// Chip-level organisation: how many sub-arrays exist and how many
/// independent alignment pipelines are active concurrently.
///
/// # Examples
///
/// ```
/// use mram::array::{ArrayModel, ChipOrg};
///
/// let chip = ChipOrg::default();
/// let area = chip.area_mm2(&ArrayModel::default());
/// assert!(area > 10.0 && area < 100.0); // accelerator-class die
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChipOrg {
    /// Total computational sub-arrays on the die.
    pub subarrays: usize,
    /// Independent read-alignment pipelines active at once (bounded by
    /// power budget, not by sub-array count).
    pub parallel_units: usize,
}

impl Default for ChipOrg {
    /// 2048 sub-arrays (64 MB-class die at 512×256), 144 concurrently
    /// active pipelines — chosen so the simulated platform lands in the
    /// paper's reported power/throughput range (DESIGN.md §6).
    fn default() -> Self {
        ChipOrg {
            subarrays: 2048,
            parallel_units: 144,
        }
    }
}

impl ChipOrg {
    /// Creates an organisation.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero or `parallel_units > subarrays`.
    pub fn new(subarrays: usize, parallel_units: usize) -> ChipOrg {
        assert!(subarrays > 0, "chip needs at least one sub-array");
        assert!(parallel_units > 0, "at least one active pipeline required");
        assert!(
            parallel_units <= subarrays,
            "cannot activate more pipelines than sub-arrays"
        );
        ChipOrg {
            subarrays,
            parallel_units,
        }
    }

    /// Die area in mm² under the given array model.
    pub fn area_mm2(&self, model: &ArrayModel) -> f64 {
        self.subarrays as f64 * model.subarray_area_mm2()
    }

    /// Storage capacity in bytes.
    pub fn capacity_bytes(&self, model: &ArrayModel) -> usize {
        self.subarrays * model.geometry().cells() / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry() {
        let g = SubArrayGeometry::PAPER;
        assert_eq!((g.rows, g.cols), (512, 256));
        assert_eq!(g.cells(), 131_072);
    }

    #[test]
    fn write_costs_more_than_read() {
        let m = ArrayModel::default();
        assert!(m.energy_pj(ArrayOp::WriteRow) > m.energy_pj(ArrayOp::ReadRow));
        assert!(m.energy_pj(ArrayOp::ComputeTriple) > m.energy_pj(ArrayOp::ReadRow));
        assert!(m.energy_pj(ArrayOp::DpuOp) < m.energy_pj(ArrayOp::ReadRow));
    }

    #[test]
    fn compute_overhead_below_ten_percent() {
        // Paper abstract: "incurring a low cost on top of original
        // SOT-MRAM chips (less than 10% of chip area)".
        assert!(ArrayModel::default().compute_area_overhead() < 0.10);
    }

    #[test]
    fn subarray_area_is_sane() {
        let a = ArrayModel::default().subarray_area_mm2();
        // ~0.02 mm² for a 128 Kb sub-array at 45 nm.
        assert!(a > 0.005 && a < 0.05, "sub-array area {a} mm²");
    }

    #[test]
    fn chip_area_and_capacity() {
        let m = ArrayModel::default();
        let chip = ChipOrg::default();
        let area = chip.area_mm2(&m);
        assert!(area > 10.0 && area < 100.0, "die area {area} mm²");
        assert_eq!(chip.capacity_bytes(&m), 2048 * 131_072 / 8);
    }

    #[test]
    #[should_panic(expected = "more pipelines")]
    fn too_many_pipelines_rejected() {
        let _ = ChipOrg::new(4, 8);
    }

    #[test]
    fn custom_cell_preserved() {
        let cell = CellParams::default().with_tox_nm(2.0);
        let m = ArrayModel::with_cell(cell);
        assert_eq!(m.cell().tox_nm(), 2.0);
    }
}
