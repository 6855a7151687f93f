//! Cycle and energy accounting.

use mram::array::{ArrayModel, ArrayOp};

use crate::costs::{Firing, LogicalOp};
use crate::metrics::PrimCounters;
use crate::pipeline::PipelineCounters;

/// A hardware resource class, used to attribute busy cycles for the
/// utilisation figures (Fig. 10b/10c).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The comparison path: `XNOR_Match` sensing plus DPU popcount.
    Compare,
    /// The in-memory adder (`IM_ADD` compute + write-back).
    Adder,
    /// Intra-array memory access: marker/SA reads, index updates, data
    /// staging.
    Memory,
    /// Data transfer in/out of the sub-array group (read loading, result
    /// write-back, method-II copies).
    Transfer,
}

impl Resource {
    /// All resource classes.
    pub const ALL: [Resource; 4] = [
        Resource::Compare,
        Resource::Adder,
        Resource::Memory,
        Resource::Transfer,
    ];

    /// Stable lower-case label used by the metrics JSON emitters.
    pub fn name(self) -> &'static str {
        match self {
            Resource::Compare => "compare",
            Resource::Adder => "adder",
            Resource::Memory => "memory",
            Resource::Transfer => "transfer",
        }
    }
}

/// Host-side hit/miss/eviction totals for the rank-checkpoint cache
/// ([`crate::KernelCache`]). These count *host work avoided*, never
/// simulated cycles: a cache hit still charges the platform exactly the
/// ops a recompute would, so these counters live beside — not inside —
/// the cycle/energy accounting (DESIGN.md §16).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCacheCounters {
    /// Lookups answered from a live entry (compare + marker gather
    /// skipped on the host).
    pub hits: u64,
    /// Lookups that recomputed and installed an entry.
    pub misses: u64,
    /// Installs that displaced a live entry of a different sub-array.
    pub evictions: u64,
}

impl KernelCacheCounters {
    /// Total lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache; `0.0` when the cache
    /// never ran.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Adds another set of totals into this one.
    pub fn merge(&mut self, other: &KernelCacheCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }
}

/// Counts every logical primitive issued to the platform. Busy cycles,
/// their attribution to resource classes, array-primitive counts and
/// dynamic energy are not stored: each is read off the ten counts
/// through the [`costs`](crate::costs) table when asked for, so two
/// ledgers that were issued the same ops are equal whatever order, batch
/// size or thread split issued them.
///
/// Busy cycles are accounted per resource; the *makespan* (wall-clock
/// cycles) is tracked separately by the caller because overlapped
/// execution (the Fig. 7 pipeline) makes it less than the busy-cycle sum.
///
/// # Examples
///
/// ```
/// use mram::array::ArrayModel;
/// use pimsim::costs::LogicalOp;
/// use pimsim::{CycleLedger, Resource};
///
/// let model = ArrayModel::default();
/// let mut ledger = CycleLedger::new();
/// LogicalOp::XnorMatch.charge(&model, &mut ledger);
/// assert_eq!(ledger.busy_cycles(Resource::Compare), 2);
/// assert!(ledger.energy_pj(&model) > 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CycleLedger {
    /// Issued [`LogicalOp`]s — the whole simulated cost state. Bumped by
    /// [`LogicalOp::charge_many`] and nothing else.
    pub(crate) prims: PrimCounters,
    /// Sub-array activation heatmap: `zones[z]` counts activating
    /// operations attributed to zone `z` by the charge sites that know
    /// their target (primary sub-arrays first, then method-II mirrors).
    /// Empty until the first zone note; grows on demand.
    zones: Vec<u64>,
    /// Stage-queue scheduling totals recorded by the batched kernel
    /// path ([`crate::PipelineSim`]); all-zero on the single-read path.
    pipeline: PipelineCounters,
    /// Rank-checkpoint cache totals noted by the kernel call sites;
    /// all-zero when the caller passes no cache.
    kernel_cache: KernelCacheCounters,
    /// Interval steps of the published algorithm taken without an `LFM`
    /// ([`CycleLedger::note_unissued_steps`]): those a seed-table read
    /// stood in for, and alternatives a search saw were empty before
    /// issuing them. No cost hangs on it — the reads are priced as
    /// [`LogicalOp::SeedRead`]s, and an empty alternative costs nothing —
    /// it is what lets a report state the published `LFM` count beside
    /// the issued one.
    unissued_steps: u64,
    /// Seed-table reads whose boundaries the text's short suffixes moved
    /// ([`CycleLedger::note_seed_correction`]), each priced as one
    /// [`LogicalOp::IndexBump`] that stands for no interval step.
    seed_corrections: u64,
}

/// Ledger equality is *simulated-state* equality: primitive counts (and
/// with them cycles and energy), zone heatmap, pipeline totals, unissued
/// steps, seed corrections. The
/// kernel-cache counters are deliberately excluded — they are host-side
/// telemetry (a hit charges the identical ops as the recompute it
/// replaces), and the hit/miss split depends on how the parallel engine
/// partitions reads across per-worker caches, so it is not
/// thread-invariant. Compare [`CycleLedger::kernel_cache_counters`]
/// explicitly where cache traffic itself is under test.
impl PartialEq for CycleLedger {
    fn eq(&self, other: &CycleLedger) -> bool {
        self.prims == other.prims
            && self.zones == other.zones
            && self.pipeline == other.pipeline
            && self.unissued_steps == other.unissued_steps
            && self.seed_corrections == other.seed_corrections
    }
}

impl CycleLedger {
    /// An empty ledger.
    pub fn new() -> CycleLedger {
        CycleLedger::default()
    }

    /// Attributes `n` sub-array activations to `zone` in the activation
    /// heatmap. Called by the charge sites that know which physical
    /// sub-array (or mirror) an operation lands on; the heatmap therefore
    /// covers the zone-attributable subset of
    /// [`PrimCounters::subarray_activations`], never more.
    #[inline]
    pub fn note_zone_many(&mut self, zone: usize, n: u64) {
        if self.zones.len() <= zone {
            self.zones.resize(zone + 1, 0);
        }
        self.zones[zone] += n;
    }

    /// The per-zone activation heatmap (empty when no charge site noted a
    /// zone).
    pub fn zone_activations(&self) -> &[u64] {
        &self.zones
    }

    /// Folds one lock step's stage-queue scheduling totals in (called
    /// once per step with its [`crate::PipelineSim`] counters).
    #[inline]
    pub fn record_pipeline(&mut self, counters: &PipelineCounters) {
        self.pipeline.merge(counters);
    }

    /// Accumulated stage-queue scheduling totals (all-zero unless the
    /// batched kernel path ran).
    pub fn pipeline_counters(&self) -> PipelineCounters {
        self.pipeline
    }

    /// Notes one rank-checkpoint cache hit. Called by the kernel call
    /// site *alongside* the usual logical-op charges — a hit changes
    /// host work only, never what the platform is billed.
    #[inline]
    pub fn note_kernel_cache_hit(&mut self) {
        self.kernel_cache.hits += 1;
    }

    /// Notes one rank-checkpoint cache miss (entry recomputed and
    /// installed).
    #[inline]
    pub fn note_kernel_cache_miss(&mut self) {
        self.kernel_cache.misses += 1;
    }

    /// Notes one eviction (a miss whose install displaced a live entry
    /// of a different sub-array).
    #[inline]
    pub fn note_kernel_cache_eviction(&mut self) {
        self.kernel_cache.evictions += 1;
    }

    /// Accumulated rank-checkpoint cache totals (all-zero when no
    /// caller passed a cache).
    pub fn kernel_cache_counters(&self) -> KernelCacheCounters {
        self.kernel_cache
    }

    /// Notes `steps` interval steps taken without an `LFM` — the first
    /// steps of a descent one seed-table read stood in for, or an
    /// alternative known empty — `2 · steps` `LFM`s as published.
    #[inline]
    pub fn note_unissued_steps(&mut self, steps: u64) {
        self.unissued_steps += steps;
    }

    /// Published interval steps taken without an `LFM` so far.
    pub fn unissued_steps(&self) -> u64 {
        self.unissued_steps
    }

    /// Notes one seed-table read whose boundary a short suffix of the
    /// text moved: the [`LogicalOp::IndexBump`] the caller charged for it
    /// takes the suffix off, and saves no `LFM`.
    #[inline]
    pub fn note_seed_correction(&mut self) {
        self.seed_corrections += 1;
    }

    /// Seed-table reads corrected for a short suffix so far.
    pub fn seed_corrections(&self) -> u64 {
        self.seed_corrections
    }

    /// The per-primitive counters: how many of each [`LogicalOp`] were
    /// issued, and the busy cycles that prices them at.
    pub fn primitives(&self) -> &PrimCounters {
        &self.prims
    }

    /// Busy cycles attributed to one resource.
    pub fn busy_cycles(&self, resource: Resource) -> u64 {
        LogicalOp::ALL
            .iter()
            .filter(|op| op.resource() == resource)
            .map(|&op| self.prims.cycles(op))
            .sum()
    }

    /// Sum of busy cycles over all resources (the sequential-execution
    /// makespan).
    pub fn total_busy_cycles(&self) -> u64 {
        self.prims.total_cycles()
    }

    /// Number of array primitives of kind `op` the issued logical ops
    /// fired, energy-only firings included.
    pub fn op_count(&self, op: ArrayOp) -> u64 {
        LogicalOp::ALL
            .iter()
            .flat_map(|&logical| {
                let issued = self.prims.count(logical);
                logical.expansion().iter().map(move |&firing| match firing {
                    Firing::Busy(fired, n) | Firing::Shadow(fired, n) if fired == op => n * issued,
                    _ => 0,
                })
            })
            .sum()
    }

    /// Per-primitive energy breakdown under `model`, in pJ, in
    /// [`ArrayOp::ALL`] order.
    pub fn energy_breakdown_pj(&self, model: &ArrayModel) -> [(ArrayOp, f64); 4] {
        ArrayOp::ALL.map(|op| (op, model.energy_pj(op) * self.op_count(op) as f64))
    }

    /// Total dynamic energy under `model` in pJ: the sum of
    /// [`CycleLedger::energy_breakdown_pj`].
    pub fn energy_pj(&self, model: &ArrayModel) -> f64 {
        self.energy_breakdown_pj(model)
            .iter()
            .map(|(_, pj)| pj)
            .sum()
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &CycleLedger) {
        self.prims.merge(&other.prims);
        self.pipeline.merge(&other.pipeline);
        self.kernel_cache.merge(&other.kernel_cache);
        self.unissued_steps += other.unissued_steps;
        self.seed_corrections += other.seed_corrections;
        if self.zones.len() < other.zones.len() {
            self.zones.resize(other.zones.len(), 0);
        }
        for (z, n) in other.zones.iter().enumerate() {
            self.zones[z] += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_everything() {
        let model = ArrayModel::default();
        let mut a = CycleLedger::new();
        LogicalOp::XnorMatch.charge_many(&model, &mut a, 3);
        let mut b = CycleLedger::new();
        LogicalOp::XnorMatch.charge_many(&model, &mut b, 5);
        LogicalOp::RowWrite.charge(&model, &mut b);
        a.note_unissued_steps(5);
        b.note_unissued_steps(6);
        b.note_seed_correction();
        a.merge(&b);
        assert_eq!(a.unissued_steps(), 11);
        assert_eq!(a.seed_corrections(), 1);
        assert_eq!(a.busy_cycles(Resource::Compare), 16);
        assert_eq!(a.busy_cycles(Resource::Transfer), 1);
        assert_eq!(a.op_count(ArrayOp::ComputeTriple), 16);
    }

    #[test]
    fn energy_breakdown_sums_to_total() {
        let model = ArrayModel::default();
        let mut l = CycleLedger::new();
        LogicalOp::XnorMatch.charge_many(&model, &mut l, 5);
        LogicalOp::MarkerRead.charge_many(&model, &mut l, 5);
        LogicalOp::ImAdd32.charge_many(&model, &mut l, 3);
        let breakdown = l.energy_breakdown_pj(&model);
        let sum: f64 = breakdown.iter().map(|(_, e)| e).sum();
        assert_eq!(sum.to_bits(), l.energy_pj(&model).to_bits());
        let write = breakdown
            .iter()
            .find(|(op, _)| *op == ArrayOp::WriteRow)
            .unwrap()
            .1;
        // Three adds, 64 energy-only write-driver firings each.
        assert_eq!(write, 192.0 * model.energy_pj(ArrayOp::WriteRow));
    }

    #[test]
    fn zone_notes_grow_and_merge() {
        let mut a = CycleLedger::new();
        assert!(a.zone_activations().is_empty());
        a.note_zone_many(2, 3);
        a.note_zone_many(0, 1);
        assert_eq!(a.zone_activations(), &[1, 0, 3]);
        let mut b = CycleLedger::new();
        b.note_zone_many(4, 7);
        a.merge(&b);
        assert_eq!(a.zone_activations(), &[1, 0, 3, 0, 7]);
        let mut c = CycleLedger::new();
        c.merge(&a);
        assert_eq!(c.zone_activations(), a.zone_activations());
    }

    #[test]
    fn pipeline_counters_record_and_merge() {
        let mut a = CycleLedger::new();
        assert_eq!(a.pipeline_counters(), PipelineCounters::default());
        a.record_pipeline(&PipelineCounters {
            issued: 4,
            makespan_cycles: 245,
            sequential_cycles: 304,
        });
        let mut b = CycleLedger::new();
        b.record_pipeline(&PipelineCounters {
            issued: 2,
            makespan_cycles: 137,
            sequential_cycles: 152,
        });
        a.merge(&b);
        let total = a.pipeline_counters();
        assert_eq!(total.issued, 6);
        assert_eq!(total.makespan_cycles, 245 + 137);
        assert_eq!(total.sequential_cycles, 304 + 152);
        assert_eq!(total.overlap_saved_cycles(), 456 - 382);
    }

    #[test]
    fn kernel_cache_counters_record_and_merge() {
        let mut a = CycleLedger::new();
        assert_eq!(a.kernel_cache_counters(), KernelCacheCounters::default());
        assert_eq!(a.kernel_cache_counters().hit_rate(), 0.0);
        a.note_kernel_cache_miss();
        a.note_kernel_cache_hit();
        a.note_kernel_cache_hit();
        a.note_kernel_cache_eviction();
        let mut b = CycleLedger::new();
        b.note_kernel_cache_hit();
        b.note_kernel_cache_miss();
        a.merge(&b);
        let total = a.kernel_cache_counters();
        assert_eq!(total.hits, 3);
        assert_eq!(total.misses, 2);
        assert_eq!(total.evictions, 1);
        assert_eq!(total.lookups(), 5);
        assert!((total.hit_rate() - 0.6).abs() < 1e-12);
    }
}
