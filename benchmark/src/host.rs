//! What the host did to a measurement.
//!
//! The benchmark runs in a small virtual machine whose two CPUs are shared
//! with other tenants. For minutes at a time the hypervisor withholds a
//! tenth or more of the CPU, and a sample taken then measures the
//! neighbours, not the program: the same binary on the same input reads
//! 58 k or 43 k reads/s, 1.33 or 6.5 ms median latency. The guest kernel
//! counts the withheld time as *steal* in `/proc/stat`, so every timed
//! sample carries the steal that accrued while it ran, and a metric is
//! summarised over its undisturbed samples only — unless too few are left,
//! in which case all are used and the run says so.

use crate::stats::Stat;

/// `/proc/stat` counts in `USER_HZ` ticks, 100 a second on Linux.
const TICKS_PER_S: f64 = 100.0;

/// A sample is undisturbed when the steal that accrued while it ran is at
/// most this share of its duration (of one CPU). Quiet periods show
/// 0.1–0.4 %, disturbed ones 10–20 %.
const STEAL_LIMIT: f64 = 0.02;

/// Steal ticks since boot, summed over CPUs; 0 where the kernel does not
/// report them (then no sample is ever discarded).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            // cpu  user nice system idle iowait irq softirq steal …
            stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// One timed sample and the share of its duration the host withheld.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub stolen: f64,
}

impl Sample {
    /// A sample that ran for `wall_s` while `ticks` of steal accrued.
    pub fn new(value: f64, ticks: u64, wall_s: f64) -> Sample {
        Sample {
            value,
            stolen: ticks as f64 / TICKS_PER_S / wall_s.max(1e-9),
        }
    }

    pub fn undisturbed(&self) -> bool {
        self.stolen <= STEAL_LIMIT
    }
}

/// Summarises `metric`'s undisturbed samples when there are at least
/// `min_clean` of them, all its samples otherwise, and says on stdout when
/// any were disturbed.
pub fn settle(metric: &str, samples: &[Sample], min_clean: usize) -> Stat {
    let clean: Vec<f64> = samples
        .iter()
        .filter(|s| s.undisturbed())
        .map(|s| s.value)
        .collect();
    let disturbed = samples.len() - clean.len();
    if clean.len() >= min_clean.max(1) {
        if disturbed > 0 {
            println!(
                "  host: {metric}: {disturbed} of {} samples left out for steal",
                samples.len()
            );
        }
        Stat::of(&clean)
    } else {
        println!(
            "  host: {metric}: {disturbed} of {} samples saw steal; too few clean ones, all kept",
            samples.len()
        );
        let all: Vec<f64> = samples.iter().map(|s| s.value).collect();
        Stat::of(&all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_a_share_of_the_samples_own_duration() {
        // 3 ticks = 30 ms withheld during a 1.5 s sample: 2 %, the limit.
        assert!(Sample::new(1.0, 3, 1.5).undisturbed());
        assert!(!Sample::new(1.0, 4, 1.5).undisturbed());
        // One tick is already 4 % of a quarter-second window.
        assert!(!Sample::new(1.0, 1, 0.25).undisturbed());
        assert!(Sample::new(1.0, 0, 0.25).undisturbed());
    }

    #[test]
    fn disturbed_samples_are_left_out_only_while_enough_clean_ones_remain() {
        let samples = [
            Sample::new(10.0, 0, 1.0),
            Sample::new(30.0, 50, 1.0),
            Sample::new(12.0, 0, 1.0),
            Sample::new(11.0, 1, 1.0),
        ];
        let stat = settle("m", &samples, 3);
        assert_eq!((stat.median, stat.n), (11.0, 3));
        // Asking for four clean samples: there are only three, so all count.
        let stat = settle("m", &samples, 4);
        assert_eq!((stat.median, stat.n), (11.5, 4));
    }
}
