//! ART-style short-read simulation (paper §VI: "we generated 10 million
//! 100-bps short read queries via ART simulator and align them to the
//! human genome Hg19 … the population variation and genome error rate
//! were set to 0.1% and 0.2%").
//!
//! The real evaluation used Hg19 and the ART simulator; neither is
//! available here, so this crate provides the closest synthetic
//! equivalent (see DESIGN.md §2):
//!
//! * [`genome`] — reference generation: uniform random genomes and
//!   repeat-rich genomes that stress multi-mapping reads;
//! * [`variant`] — a *donor* genome derived from the reference by applying
//!   population variants (SNPs and short indels) at a configurable rate;
//! * [`ReadSimulator`] — samples fixed-length reads from the donor, adds
//!   per-base sequencing errors, attaches Phred qualities, and records
//!   ground truth for accuracy accounting.
//!
//! # Examples
//!
//! ```
//! use readsim::{genome, ReadSimulator, SimProfile};
//!
//! let reference = genome::uniform(10_000, 42);
//! let profile = SimProfile::paper_defaults().read_count(100);
//! let sim = ReadSimulator::new(profile, 7).simulate(&reference);
//! assert_eq!(sim.reads.len(), 100);
//! assert!(sim.reads.iter().all(|r| r.seq.len() == 100));
//! ```

#![forbid(unsafe_code)]

pub mod genome;
pub mod variant;

mod reads;

pub use reads::{ReadSimulator, SimProfile, SimulatedRead, Simulation, Strand};
