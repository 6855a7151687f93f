//! SOT-MRAM device, circuit and array substrate.
//!
//! The paper models its bit cell with NEGF + LLG device simulation, its
//! periphery in SPICE (45 nm NCSU PDK), and its arrays in NVSim. None of
//! those tools are available here, so this crate substitutes calibrated
//! analytic models that expose exactly the quantities the architecture
//! consumes (DESIGN.md §2):
//!
//! * [`device`] — the 2T1R SOT-MRAM bit cell: parallel/anti-parallel
//!   resistance, TMR, RA-product variation and the MgO-thickness (`t_ox`)
//!   dependence;
//! * [`sense`] — the reconfigurable sense amplifier of Fig. 4b: four
//!   selectable reference branches (`R_AND3`, `R_MAJ`, `R_OR3`, `R_M`)
//!   realising memory read and single-cycle 3-input AND/MAJ/OR, plus the
//!   XOR3 output stage used for XNOR2 compare and in-memory addition;
//! * [`montecarlo`] — the 10 000-trial variation analysis behind Fig. 5b
//!   (σ(RA) = 2 %, σ(TMR) = 5 %) with sense margins per fan-in;
//! * [`mod@array`] — an NVSim-lite latency/energy/area model for the
//!   512×256 computational sub-array and the chip organisation built
//!   from it.
//!
//! # Examples
//!
//! ```
//! use mram::device::CellParams;
//! use mram::sense::{SenseAmp, SenseMode};
//!
//! let cell = CellParams::default();
//! let sa = SenseAmp::new(&cell);
//! // Three cells storing 1, 0, 1 → MAJ = 1, AND3 = 0, OR3 = 1.
//! let r = [cell.resistance(true), cell.resistance(false), cell.resistance(true)];
//! assert!(sa.evaluate(SenseMode::Maj3, &r));
//! assert!(!sa.evaluate(SenseMode::And3, &r));
//! assert!(sa.evaluate(SenseMode::Or3, &r));
//! ```

#![forbid(unsafe_code)]

pub mod array;
pub mod device;
pub mod faults;
pub mod montecarlo;
pub mod sense;
