//! Paired-end alignment with hybrid rescue (the beyond-paper extensions
//! of DESIGN.md §8 working together).
//!
//! Simulates Illumina-style read pairs, aligns them with insert-size
//! constrained pairing, shows how pairing disambiguates repeats, and
//! rescues a heavily damaged read with seed-and-extend.
//!
//! Run with: `cargo run --release --example paired_end`

use bioseq::{Base, DnaSeq};
use pim_aligner::{
    align_pair, seed_and_extend, AlignSession, PairConstraints, PairOutcome, PimAlignerConfig,
    SeedExtendConfig,
};
use readsim::paired::{simulate_pairs, InsertProfile};
use readsim::{genome, SimProfile};

fn main() {
    // --- Paired-end workload ---
    let reference = genome::uniform(80_000, 777);
    let profile = SimProfile::paper_defaults().read_count(60).read_len(75);
    let insert = InsertProfile {
        mean: 350.0,
        std_dev: 40.0,
    };
    let sim = simulate_pairs(&reference, profile, insert, 778);
    let constraints = PairConstraints::new(150, 600);

    let mut aligner = AlignSession::new(&reference, PimAlignerConfig::pipelined());
    let mut proper = 0usize;
    let mut correct_fragment = 0usize;
    let mut other = 0usize;
    for pair in &sim.pairs {
        match align_pair(&mut aligner, &pair.r1, &pair.r2, constraints) {
            PairOutcome::ProperPair {
                fragment_start,
                fragment_len,
                ..
            } => {
                proper += 1;
                if fragment_start.abs_diff(pair.fragment_start) <= 5
                    && fragment_len.abs_diff(pair.fragment_len) <= 10
                {
                    correct_fragment += 1;
                }
            }
            _ => other += 1,
        }
    }
    println!(
        "paired-end alignment ({} pairs, 350±40 bp inserts):",
        sim.pairs.len()
    );
    println!("  proper pairs        : {proper}");
    println!("  correct fragment    : {correct_fragment}");
    println!("  discordant/partial  : {other}");

    // --- Hybrid rescue of a read beyond the backtracking budget ---
    let template = reference.subseq(40_000..40_100);
    let mut bases = template.into_bases();
    for &p in &[10usize, 30, 50, 95] {
        bases[p] = Base::from_rank((bases[p].rank() + 1) % 4);
    }
    bases.drain(70..76); // a 6-bp deletion on top
    let damaged = DnaSeq::from_bases(bases);
    let direct = aligner.align_read(&damaged);
    println!("\nheavily damaged read (4 substitutions + 6-bp deletion):");
    println!("  two-stage pipeline  : {direct:?}");
    // Seeds must be short enough to fall between damage sites; 12 bp
    // leaves two clean seeds in this read where the default 20 bp has
    // none.
    let rescue = SeedExtendConfig {
        seed_len: 12,
        ..SeedExtendConfig::default()
    };
    match seed_and_extend(&mut aligner, &damaged, rescue) {
        Some(hit) => println!(
            "  seed-and-extend     : position {} score {} cigar {}",
            hit.ref_start, hit.score, hit.alignment.cigar
        ),
        None => println!("  seed-and-extend     : no hit"),
    }

    let report = aligner.report();
    println!(
        "\nplatform totals: {} queries, {:.3e} q/s, {:.1} W",
        report.queries, report.throughput_qps, report.total_power_w
    );
}
