//! Integration: the §III claim that "up to ~70% of short reads should be
//! exactly aligned to the reference genome after stage one" under the
//! paper's workload statistics (100 bp, 0.2 % error, 0.1 % variation).

use bioseq::DnaSeq;
use pim_aligner::{PimAlignerConfig, Platform};
use readsim::{genome, ReadSimulator, SimProfile};

mod support;

#[test]
fn about_seventy_percent_resolve_in_stage_one() {
    let reference = genome::uniform(150_000, 101);
    let profile = SimProfile::paper_defaults().read_count(250).forward_only();
    let sim = ReadSimulator::new(profile, 102).simulate(&reference);
    let reads: Vec<DnaSeq> = sim.reads.iter().map(|r| r.seq.clone()).collect();
    let platform = Platform::new(reference.to_packed(), PimAlignerConfig::baseline());
    let (outcomes, totals) = support::align(&platform, &reads);
    // Expected exact fraction: (1 - per-base error)^(100) with both error
    // sources ≈ 0.997^100 ≈ 0.74; paper says "up to ~70%".
    assert!(
        (0.60..0.85).contains(&totals.exact_fraction()),
        "exact-stage fraction {:.2}",
        totals.exact_fraction()
    );
    // Stage two recovers nearly all the rest at z ≤ 2.
    let mapped = outcomes.iter().filter(|o| o.is_mapped()).count();
    assert!(
        mapped as f64 / reads.len() as f64 > 0.95,
        "two-stage mapping rate {:.2}",
        mapped as f64 / reads.len() as f64
    );
}

#[test]
fn error_free_workload_is_all_exact() {
    let reference = genome::uniform(50_000, 103);
    let profile = SimProfile::paper_defaults()
        .read_count(60)
        .error_rate(0.0)
        .variants(readsim::variant::VariantProfile {
            rate: 0.0,
            ..Default::default()
        })
        .forward_only();
    let sim = ReadSimulator::new(profile, 104).simulate(&reference);
    let reads: Vec<DnaSeq> = sim.reads.iter().map(|r| r.seq.clone()).collect();
    let platform = Platform::new(reference.to_packed(), PimAlignerConfig::baseline());
    let (_, totals) = support::align(&platform, &reads);
    assert_eq!(totals.exact_fraction(), 1.0);
}
