//! Comparison-platform models for the evaluation figures.
//!
//! Paper §VI compares PIM-Aligner against eight published accelerators
//! (Darwin, ReCAM, RaceLogic, GPU/Soap3-dp, FPGA, ASIC, AligneR, AlignS)
//! using numbers taken from their publications. Those publications are
//! not reproducible here, so this crate encodes each platform's
//! figures-of-merit as an analytical model **calibrated to the ratios
//! the paper reports** (3.1× over RaceLogic, ~2× over the ASIC, 43.8×
//! over the FPGA, 458× over the GPU in throughput/W; ~9× over the ASIC
//! and 1.9× over AligneR in throughput/W/mm²; AlignS the only platform
//! with a higher throughput/W; PIMs ≈ 0 off-chip memory, ASIC 1 GB) —
//! see DESIGN.md §2 and EXPERIMENTS.md for the per-figure derivation.
//!
//! The two PIM-Aligner rows are **not** in the static catalogue: they
//! come from the simulator (`pim_aligner::PerfReport`) and are appended
//! by the caller via [`Platform::from_measurements`].
//!
//! # Examples
//!
//! ```
//! use accel::{catalog, PlatformClass};
//!
//! let platforms = catalog();
//! assert_eq!(platforms.len(), 8);
//! let race = platforms.iter().find(|p| p.name == "RaceLogic").unwrap();
//! assert_eq!(race.class, PlatformClass::SmithWaterman);
//! assert!(race.throughput_per_watt() > 0.0);
//! ```

#![forbid(unsafe_code)]

mod figures;
mod platform;

pub use figures::{figure_series, Figure};
pub use platform::{catalog, Platform, PlatformClass};
