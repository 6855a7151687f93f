//! Cycle and energy accounting.

use mram::array::{ArrayModel, ArrayOp};

use crate::costs::LogicalOp;
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

    fn index(self) -> usize {
        match self {
            Resource::Compare => 0,
            Resource::Adder => 1,
            Resource::Memory => 2,
            Resource::Transfer => 3,
        }
    }

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

/// Accumulates the cycles and dynamic energy of every primitive issued to
/// the platform, attributed to resource classes.
///
/// Busy cycles are accounted per resource; the *makespan* (wall-clock
/// cycles) is tracked separately by the caller because overlapped
/// execution (the Fig. 7 pipeline) makes it less than the busy-cycle sum.
///
/// # Examples
///
/// ```
/// use mram::array::{ArrayModel, ArrayOp};
/// use pimsim::{CycleLedger, Resource};
///
/// let model = ArrayModel::default();
/// let mut ledger = CycleLedger::new();
/// ledger.charge(&model, Resource::Compare, ArrayOp::ComputeTriple, 2);
/// assert_eq!(ledger.busy_cycles(Resource::Compare), 2);
/// assert!(ledger.energy_pj() > 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CycleLedger {
    busy: [u64; 4],
    energy_pj: f64,
    op_counts: [u64; 4],
    prims: PrimCounters,
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
}

/// Ledger equality is *simulated-state* equality: cycles, energy,
/// primitive counts, zone heatmap, pipeline totals. The kernel-cache
/// counters are deliberately excluded — they are host-side telemetry
/// (a hit charges the identical ops as the recompute it replaces), and
/// the hit/miss split depends on how the parallel engine partitions
/// reads across per-worker caches, so it is not thread-invariant.
/// Compare [`CycleLedger::kernel_cache_counters`] explicitly where
/// cache traffic itself is under test.
impl PartialEq for CycleLedger {
    fn eq(&self, other: &CycleLedger) -> bool {
        self.busy == other.busy
            && self.energy_pj == other.energy_pj
            && self.op_counts == other.op_counts
            && self.prims == other.prims
            && self.zones == other.zones
            && self.pipeline == other.pipeline
    }
}

impl CycleLedger {
    /// An empty ledger.
    pub fn new() -> CycleLedger {
        CycleLedger::default()
    }

    /// Charges `count` repetitions of `op` to `resource`, accruing both
    /// cycles and energy from the array model.
    pub fn charge(&mut self, model: &ArrayModel, resource: Resource, op: ArrayOp, count: u64) {
        self.busy[resource.index()] += model.cycles(op) * count;
        self.energy_pj += model.energy_pj(op) * count as f64;
        self.op_counts[op_index(op)] += count;
    }

    /// Charges energy only (e.g. the second write driver firing in the
    /// same cycle as the first).
    pub fn charge_energy_only(&mut self, model: &ArrayModel, op: ArrayOp, count: u64) {
        self.energy_pj += model.energy_pj(op) * count as f64;
        self.op_counts[op_index(op)] += count;
    }

    /// Records one issued logical primitive in the hierarchical
    /// per-primitive counters. Called by [`LogicalOp::charge`]; the
    /// cycle/energy accounting itself still flows through
    /// [`CycleLedger::charge`].
    #[inline]
    pub fn note_op(&mut self, op: LogicalOp) {
        self.prims.note(op);
    }

    /// Records `n` issued logical primitives in one step (the batched
    /// form behind [`LogicalOp::charge_many`]). Integer-exact: equal to
    /// `n` [`CycleLedger::note_op`] calls.
    #[inline]
    pub fn note_op_many(&mut self, op: LogicalOp, n: u64) {
        self.prims.note_many(op, n);
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

    /// Folds one batch's stage-queue scheduling totals in (called once
    /// per `lfm_batch` invocation with the batch's
    /// [`crate::PipelineSim`] counters).
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

    /// The hierarchical per-primitive counters (counts and busy cycles
    /// per [`LogicalOp`]). For any ledger charged exclusively through
    /// logical operations — the entire production path — the counters'
    /// cycle total reconciles with [`CycleLedger::total_busy_cycles`].
    pub fn primitives(&self) -> &PrimCounters {
        &self.prims
    }

    /// Busy cycles attributed to one resource.
    pub fn busy_cycles(&self, resource: Resource) -> u64 {
        self.busy[resource.index()]
    }

    /// Sum of busy cycles over all resources (the sequential-execution
    /// makespan).
    pub fn total_busy_cycles(&self) -> u64 {
        self.busy.iter().sum()
    }

    /// Total dynamic energy in pJ.
    pub fn energy_pj(&self) -> f64 {
        self.energy_pj
    }

    /// Number of primitives of `op` issued.
    pub fn op_count(&self, op: ArrayOp) -> u64 {
        self.op_counts[op_index(op)]
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &CycleLedger) {
        for i in 0..4 {
            self.busy[i] += other.busy[i];
            self.op_counts[i] += other.op_counts[i];
        }
        self.energy_pj += other.energy_pj;
        self.prims.merge(&other.prims);
        self.pipeline.merge(&other.pipeline);
        self.kernel_cache.merge(&other.kernel_cache);
        if self.zones.len() < other.zones.len() {
            self.zones.resize(other.zones.len(), 0);
        }
        for (z, n) in other.zones.iter().enumerate() {
            self.zones[z] += n;
        }
    }

    /// Per-primitive energy breakdown under `model`, in pJ, in
    /// [`ArrayOp::ALL`] order. Sums to [`CycleLedger::energy_pj`] when
    /// every charge used the same model.
    pub fn energy_breakdown_pj(&self, model: &ArrayModel) -> [(ArrayOp, f64); 4] {
        [
            ArrayOp::ReadRow,
            ArrayOp::WriteRow,
            ArrayOp::ComputeTriple,
            ArrayOp::DpuOp,
        ]
        .map(|op| (op, model.energy_pj(op) * self.op_count(op) as f64))
    }
}

fn op_index(op: ArrayOp) -> usize {
    match op {
        ArrayOp::ReadRow => 0,
        ArrayOp::WriteRow => 1,
        ArrayOp::ComputeTriple => 2,
        ArrayOp::DpuOp => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let model = ArrayModel::default();
        let mut l = CycleLedger::new();
        l.charge(&model, Resource::Compare, ArrayOp::ComputeTriple, 2);
        l.charge(&model, Resource::Memory, ArrayOp::ReadRow, 16);
        l.charge(&model, Resource::Adder, ArrayOp::WriteRow, 32);
        assert_eq!(l.busy_cycles(Resource::Compare), 2);
        assert_eq!(l.busy_cycles(Resource::Memory), 16);
        assert_eq!(l.busy_cycles(Resource::Adder), 32);
        assert_eq!(l.total_busy_cycles(), 50);
        let expected = 2.0 * model.energy_pj(ArrayOp::ComputeTriple)
            + 16.0 * model.energy_pj(ArrayOp::ReadRow)
            + 32.0 * model.energy_pj(ArrayOp::WriteRow);
        assert!((l.energy_pj() - expected).abs() < 1e-9);
    }

    #[test]
    fn energy_only_charge_adds_no_cycles() {
        let model = ArrayModel::default();
        let mut l = CycleLedger::new();
        l.charge_energy_only(&model, ArrayOp::WriteRow, 4);
        assert_eq!(l.total_busy_cycles(), 0);
        assert!(l.energy_pj() > 0.0);
        assert_eq!(l.op_count(ArrayOp::WriteRow), 4);
    }

    #[test]
    fn merge_sums_everything() {
        let model = ArrayModel::default();
        let mut a = CycleLedger::new();
        a.charge(&model, Resource::Compare, ArrayOp::ComputeTriple, 3);
        let mut b = CycleLedger::new();
        b.charge(&model, Resource::Compare, ArrayOp::ComputeTriple, 5);
        b.charge(&model, Resource::Transfer, ArrayOp::WriteRow, 1);
        a.merge(&b);
        assert_eq!(a.busy_cycles(Resource::Compare), 8);
        assert_eq!(a.busy_cycles(Resource::Transfer), 1);
        assert_eq!(a.op_count(ArrayOp::ComputeTriple), 8);
    }

    #[test]
    fn energy_breakdown_sums_to_total() {
        let model = ArrayModel::default();
        let mut l = CycleLedger::new();
        l.charge(&model, Resource::Compare, ArrayOp::ComputeTriple, 10);
        l.charge(&model, Resource::Memory, ArrayOp::ReadRow, 5);
        l.charge_energy_only(&model, ArrayOp::WriteRow, 3);
        let breakdown = l.energy_breakdown_pj(&model);
        let sum: f64 = breakdown.iter().map(|(_, e)| e).sum();
        assert!((sum - l.energy_pj()).abs() < 1e-9);
        let write = breakdown
            .iter()
            .find(|(op, _)| *op == ArrayOp::WriteRow)
            .unwrap()
            .1;
        assert!((write - 3.0 * model.energy_pj(ArrayOp::WriteRow)).abs() < 1e-9);
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

    #[test]
    fn op_counts_tracked_per_kind() {
        let model = ArrayModel::default();
        let mut l = CycleLedger::new();
        l.charge(&model, Resource::Memory, ArrayOp::ReadRow, 7);
        l.charge(&model, Resource::Compare, ArrayOp::DpuOp, 9);
        assert_eq!(l.op_count(ArrayOp::ReadRow), 7);
        assert_eq!(l.op_count(ArrayOp::DpuOp), 9);
        assert_eq!(l.op_count(ArrayOp::WriteRow), 0);
    }
}
