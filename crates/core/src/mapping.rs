//! Correlated data partitioning and mapping (paper §V, Fig. 6).
//!
//! "Given a BWT index range, the accessed memory region of MT and BWT
//! could be readily predicted and computation could be localized if we
//! store such correlated region into the same memory sub-array." Each
//! sub-array holds 256 consecutive BWT buckets (rows) *and* the 256
//! marker sets for exactly those buckets (vertical columns), so every
//! `LFM` is fully local: `XNOR_Match`, marker `MEM` and (method-I)
//! `IM_ADD` all happen inside one sub-array.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bioseq::{Base, DnaSeq};
use fmindex::{FmIndex, SaInterval, SeedTable};
use mram::array::ArrayModel;
use mram::faults::FaultCampaign;
use pimsim::costs::LogicalOp;
use pimsim::pipeline::{PipelineParams, PipelineSim};
use pimsim::{
    CycleLedger, Dpu, FaultCounters, FaultInjector, KernelCache, LfmBatch, MatchMask, SubArray,
    SubArrayLayout,
};

use crate::config::{AddMethod, PimAlignerConfig};

/// Process-wide count of [`MappedIndex::build`] invocations. The
/// shared-platform contract — "the index is mapped into sub-arrays
/// *once* and then queried in place" — is asserted against this counter
/// by the integration tests; it has no runtime role.
static BUILD_COUNT: AtomicU64 = AtomicU64::new(0);

/// BWT bases (= Occ buckets × 128) one sub-array covers.
const BASES_PER_SUBARRAY: usize = 256 * SubArrayLayout::BASES_PER_ROW;

/// One request of a batched LFM step: read stream `stream` asks for
/// `LFM(nt, id)` (Algorithm 1 line 9). See [`MappedIndex::lfm_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LfmRequest {
    /// Read stream the request belongs to — indexes the caller's
    /// per-read injector table and names the pipeline stream.
    pub stream: usize,
    /// Query base.
    pub nt: Base,
    /// FM-index position (`0 ..= text_len`).
    pub id: usize,
}

/// Caller-owned scratch for [`MappedIndex::lfm_batch_into`]: the
/// per-sub-array [`LfmBatch`] pool, the request locator table and the
/// stage-queue scheduler, all recycled across calls so the hot batched
/// path allocates nothing per step once warm.
#[derive(Debug)]
pub struct LfmBatchScratch {
    /// Sub-array key of each pool entry; only the first `active` are
    /// live this call.
    keys: Vec<usize>,
    /// One reusable batch per touched sub-array, parallel to `keys`.
    pool: Vec<LfmBatch>,
    /// Live entry count this call.
    active: usize,
    /// Per request: `(pool slot, request index)`, or `(u32::MAX, 0)`
    /// for a boundary checkpoint request.
    locator: Vec<(u32, u32)>,
    /// The Pd stage-queue scheduler, reset each call.
    sim: PipelineSim,
    /// Per request of the last batch, the match bit at its own column if
    /// it was a one-row step's probe (`false` where not asked for).
    bits: Vec<bool>,
    /// The requests, probe flags and sums of a lock-step interval step
    /// ([`MappedIndex::step_batch`]), which builds the first two from the
    /// DPU registers and writes the third back into them.
    requests: Vec<LfmRequest>,
    probes: Vec<bool>,
    sums: Vec<u32>,
}

impl LfmBatchScratch {
    /// Fresh, empty scratch.
    pub fn new() -> LfmBatchScratch {
        LfmBatchScratch {
            keys: Vec::new(),
            pool: Vec::new(),
            active: 0,
            locator: Vec::new(),
            sim: PipelineSim::new(1, PipelineParams::default()),
            bits: Vec::new(),
            requests: Vec::new(),
            probes: Vec::new(),
            sums: Vec::new(),
        }
    }

    /// Rewinds for a new call at degree `pd`.
    fn begin(&mut self, pd: usize, params: PipelineParams) {
        self.active = 0;
        self.locator.clear();
        self.bits.clear();
        self.sim.reset(pd, params);
    }

    /// The pool slot batching sub-array `s`, reusing a retired entry's
    /// capacity when possible. Linear scan: a call touches at most a
    /// handful of sub-arrays.
    fn slot_for(&mut self, s: usize) -> usize {
        match self.keys[..self.active].iter().position(|&k| k == s) {
            Some(t) => t,
            None => {
                if self.active == self.pool.len() {
                    self.pool.push(LfmBatch::new());
                    self.keys.push(s);
                } else {
                    self.pool[self.active].clear();
                    self.keys[self.active] = s;
                }
                self.active += 1;
                self.active - 1
            }
        }
    }
}

impl Default for LfmBatchScratch {
    fn default() -> LfmBatchScratch {
        LfmBatchScratch::new()
    }
}

/// The DPU's reading of one `LFM`'s match mask: the matches before column
/// `within` and, when the `LFM` is a one-row step's `probe`, the match bit
/// at `within` itself. Under an active campaign the reading is taken from
/// this request's own copy of the mask, faulted with what one `LFM` draws
/// (DESIGN.md §8, §15.2): one transient-row decision, then one misread
/// draw per column sensed — the `within` counted and, if probed, that
/// column too. The mask APIs draw the RNG stream of the boolean ones, so
/// seeded replays do not depend on the packing.
fn sense(
    mut mask: MatchMask,
    within: usize,
    probe: bool,
    injector: Option<&mut FaultInjector>,
) -> (u32, bool) {
    if let Some(injector) = injector.filter(|i| i.is_active()) {
        injector.transient_row_mask(&mut mask);
        injector.corrupt_match_mask(&mut mask, within + usize::from(probe));
    }
    (mask.count_prefix(within), probe && mask.get(within))
}

/// Whether `[low, high)` is a single BWT row: what selects the one-`LFM`
/// interval step ([`MappedIndex::step`]), on either path, and nothing else
/// does.
fn one_row(low: u32, high: u32) -> bool {
    high == low + 1
}

/// The FM-index tables distributed across computational sub-arrays.
///
/// Holds the software [`FmIndex`] (the ground truth and the SA source)
/// plus the loaded sub-arrays. The one-time pre-computation/mapping cost
/// is recorded in its own ledger, separate from alignment-time work.
///
/// A built index is **immutable**: every query method takes `&self`, so
/// one index can be shared (behind an `Arc`, see
/// [`Platform`](crate::Platform)) by any number of concurrent alignment
/// sessions. The only mutable alignment-time state — the seeded
/// fault-injection stream — lives in the per-session
/// [`FaultInjector`] that callers thread into [`MappedIndex::lfm`].
///
/// # Examples
///
/// ```
/// use bioseq::DnaSeq;
/// use pim_aligner::{MappedIndex, PimAlignerConfig};
///
/// # fn main() -> Result<(), bioseq::ParseSeqError> {
/// let reference: DnaSeq = "TGCTA".parse()?;
/// let mapped = MappedIndex::build(&reference, &PimAlignerConfig::baseline());
/// assert_eq!(mapped.subarray_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MappedIndex {
    /// Shared, not owned: a platform booted from an artifact maps the
    /// artifact's own index instead of a copy of it.
    index: Arc<FmIndex>,
    /// The interval of every read suffix of up to `k` bases, derived from
    /// `index` here and stored in no artifact; see [`MappedIndex::start`].
    seeds: SeedTable,
    subarrays: Vec<SubArray>,
    /// Mirror sub-arrays for method-II (empty for method-I).
    mirrors: Vec<SubArray>,
    method: AddMethod,
    /// Parallelism degree for the batched path's stage-queue scheduler.
    pd: usize,
    /// Stage timing for the batched path's stage-queue scheduler.
    pipeline: PipelineParams,
    mapping_ledger: CycleLedger,
    /// The fault campaign the index was built under; sessions derive
    /// their alignment-time injectors from it.
    campaign: FaultCampaign,
    /// Faults frozen into the arrays at mapping time (stuck-at cells);
    /// counted once per build, not per session.
    build_counters: FaultCounters,
}

impl MappedIndex {
    /// Builds the FM-index over `reference` (Fig. 2 pre-computation) and
    /// maps BWT + MT into sub-arrays (Fig. 6a partitioning). The bucket
    /// width is fixed at 128, one word line.
    pub fn build(reference: &DnaSeq, config: &PimAlignerConfig) -> MappedIndex {
        let index = FmIndex::builder()
            .bucket_width(SubArrayLayout::BASES_PER_ROW)
            .build(reference);
        MappedIndex::from_index(index, config)
    }

    /// Maps an already-built FM-index — owned, or shared as an
    /// `Arc<FmIndex>` with e.g. the [`fmindex::io`] artifact it was
    /// deserialised from — into sub-arrays, skipping the index
    /// construction itself. The mapping (table loads, mirrors, stuck-cell
    /// injection) is identical to [`MappedIndex::build`], so a loaded
    /// index produces the same sub-array state and mapping ledger as an
    /// in-process build of the same index.
    ///
    /// # Panics
    ///
    /// Panics if the index's bucket width is not 128 (one sub-array word
    /// line) — the mapping's bucket-per-row correspondence requires it.
    pub fn from_index(index: impl Into<Arc<FmIndex>>, config: &PimAlignerConfig) -> MappedIndex {
        let index: Arc<FmIndex> = index.into();
        BUILD_COUNT.fetch_add(1, Ordering::SeqCst);
        assert_eq!(
            index.bucket_width(),
            SubArrayLayout::BASES_PER_ROW,
            "sub-array mapping requires one Occ bucket per word line"
        );
        let mut ledger = CycleLedger::new();
        let model = *config.model();
        let n = index.text_len();
        let subarray_count = n.div_ceil(BASES_PER_SUBARRAY);
        let mut subarrays = Vec::with_capacity(subarray_count);
        let (packed, _sentinel) = index.bwt().to_packed();
        // Marker buckets include the final checkpoint at n/d, one past the
        // last (possibly partial) BWT row.
        let total_marker_buckets = n / SubArrayLayout::BASES_PER_ROW + 1;
        for s in 0..subarray_count {
            let mut sa = SubArray::new(model);
            sa.load_cref_rows(&mut ledger);
            let base_start = s * BASES_PER_SUBARRAY;
            let bwt_buckets = (n - base_start)
                .div_ceil(SubArrayLayout::BASES_PER_ROW)
                .min(256);
            for lb in 0..bwt_buckets {
                let start = base_start + lb * SubArrayLayout::BASES_PER_ROW;
                let count = SubArrayLayout::BASES_PER_ROW.min(n - start);
                let codes = packed.codes(start, count);
                sa.load_bwt_row(lb, &codes, &mut ledger);
            }
            let marker_buckets = (total_marker_buckets - s * 256).min(256);
            for lb in 0..marker_buckets {
                let bucket = s * 256 + lb;
                for base in Base::ALL {
                    sa.store_marker(
                        lb,
                        base,
                        index.marker_table().marker(base, bucket),
                        &mut ledger,
                    );
                }
            }
            subarrays.push(sa);
        }
        let mut mirrors = match config.method() {
            AddMethod::InPlace => Vec::new(),
            AddMethod::Mirrored => {
                // Method-II: "essentially duplicates the number of
                // sub-arrays, where only in-memory addition computation is
                // transferred to a second sub-array".
                let mut mirrors = subarrays.clone();
                for (src, dst) in subarrays.iter().zip(mirrors.iter_mut()) {
                    // Account the duplication as row copies.
                    for row in 0..model.geometry().rows {
                        src.copy_row_to(row, dst, row, &mut ledger);
                    }
                }
                mirrors
            }
        };
        // Stuck-at injection: each physical array (primaries and
        // mirrors alike) draws its own defect plan after its tables are
        // written. The data zones are write-once, so a post-load force
        // is behaviourally a stuck cell. The build-time injector is
        // consumed here; alignment-time fault streams are per-session
        // (see [`MappedIndex::session_injector`]).
        let mut injector = FaultInjector::new(config.fault_campaign());
        let cols = model.geometry().cols;
        for sa in subarrays.iter_mut().chain(mirrors.iter_mut()) {
            for (row, col, value) in injector.stuck_cell_plan(sa.data_zone_rows(), cols) {
                sa.force_bit(row, col, value);
            }
        }
        MappedIndex {
            seeds: SeedTable::derive(&index),
            index,
            subarrays,
            mirrors,
            method: config.method(),
            pd: config.pd(),
            pipeline: config.pipeline(),
            mapping_ledger: ledger,
            campaign: config.fault_campaign(),
            build_counters: injector.counters(),
        }
    }

    /// Process-wide number of [`MappedIndex::build`] invocations so far
    /// (monotone; used by tests asserting the index is built exactly
    /// once per run regardless of worker-thread count).
    pub fn build_count() -> u64 {
        BUILD_COUNT.load(Ordering::SeqCst)
    }

    /// The underlying software index (ground truth, SA storage).
    pub fn index(&self) -> &FmIndex {
        &self.index
    }

    /// Number of primary computational sub-arrays used.
    pub fn subarray_count(&self) -> usize {
        self.subarrays.len()
    }

    /// Total sub-arrays including method-II mirrors.
    pub fn total_subarrays(&self) -> usize {
        self.subarrays.len() + self.mirrors.len()
    }

    /// The one-time mapping cost ledger (pre-computation, excluded from
    /// alignment-time figures as in the paper: "it is just a one-step
    /// computation").
    pub fn mapping_ledger(&self) -> &CycleLedger {
        &self.mapping_ledger
    }

    /// Faults frozen into the arrays when the tables were mapped
    /// (stuck-at cells). One-time build state: telemetry layers count
    /// these once per platform, never per session.
    pub fn build_fault_counters(&self) -> FaultCounters {
        self.build_counters
    }

    /// The fault campaign the index was built under.
    pub fn campaign(&self) -> FaultCampaign {
        self.campaign
    }

    /// A fresh alignment-time fault injector seeded from the campaign
    /// (the stream a sequential session replays).
    pub fn session_injector(&self) -> FaultInjector {
        FaultInjector::new(self.campaign)
    }

    /// A fresh alignment-time injector for globally indexed read
    /// `token`: the batched kernel gives every read its own
    /// decorrelated fault stream so faulted output is invariant to
    /// batch width and worker count ([`FaultCampaign::for_read`]).
    pub fn read_injector(&self, token: u64) -> FaultInjector {
        FaultInjector::new(self.campaign.for_read(token))
    }

    /// `true` when the fault campaign can inject faults.
    pub fn faults_active(&self) -> bool {
        self.campaign.is_active()
    }

    /// Executes the hardware `LFM(MT, nt, id)` procedure (Algorithm 1
    /// line 9) entirely on the mapped sub-arrays:
    ///
    /// 1. `XNOR_Match` of the bucket row against `CRef[nt]`;
    /// 2. DPU popcount of matches before `id` within the bucket;
    /// 3. `MEM` read of the bucket's marker for `nt`;
    /// 4. `IM_ADD` of marker + count (in the mirror for method-II,
    ///    charging the operand transfer).
    ///
    /// The index itself is read-only; the session's `injector` supplies
    /// the alignment-time fault stream (transient bursts, sense
    /// misreads, carry kills) and accumulates the injection counters.
    ///
    /// # Panics
    ///
    /// Panics if `id` exceeds the indexed text length.
    pub fn lfm(
        &self,
        nt: Base,
        id: usize,
        injector: &mut FaultInjector,
        ledger: &mut CycleLedger,
    ) -> u32 {
        self.lfm_cached(nt, id, injector, None, ledger)
    }

    /// [`MappedIndex::lfm`] with an optional rank-checkpoint cache. The
    /// cache memoizes the compare stage — `(sub-array, bucket, nt) →
    /// (post-sentinel match mask, marker)`, both pure functions of the
    /// immutable index — so a hit skips the plane load and the 32-row
    /// marker gather on the host while charging the platform the exact
    /// op sequence a recompute pays (`XNOR_Match`, popcount, marker
    /// `MEM`, in that order). Results, every simulated counter and the
    /// seeded fault stream are byte-identical with and without the
    /// cache, pinned by test.
    ///
    /// A search does not call this: it extends its interval through
    /// [`MappedIndex::step`], which issues one of these per bound, or one
    /// for both when the interval is a single row.
    ///
    /// # Panics
    ///
    /// Panics if `id` exceeds the indexed text length.
    pub fn lfm_cached(
        &self,
        nt: Base,
        id: usize,
        injector: &mut FaultInjector,
        cache: Option<&mut KernelCache>,
        ledger: &mut CycleLedger,
    ) -> u32 {
        self.lfm_probed(nt, id, false, injector, cache, ledger).0
    }

    /// [`MappedIndex::lfm_cached`] that, when `probe`, also returns the
    /// match bit at `id`'s own column — `BWT[id] == nt` — read from the
    /// mask the `LFM` has sensed anyway: post-sentinel, and under a
    /// campaign the same privately faulted copy the count is taken from
    /// (see [`sense`]). Charges and counts as the one `LFM` it is.
    fn lfm_probed(
        &self,
        nt: Base,
        id: usize,
        probe: bool,
        injector: &mut FaultInjector,
        cache: Option<&mut KernelCache>,
        ledger: &mut CycleLedger,
    ) -> (u32, bool) {
        assert!(id <= self.index.text_len(), "LFM index {id} out of range");
        let bucket = id / SubArrayLayout::BASES_PER_ROW;
        let within = id % SubArrayLayout::BASES_PER_ROW;
        let s = bucket / 256;
        let lb = bucket % 256;
        // `id` may equal the text length, landing exactly on a bucket
        // boundary past the last row; the count contribution is then zero
        // and the marker row is the final checkpoint.
        let (count, bit, marker) = if s >= self.subarrays.len() {
            // The checkpoint bucket holds no BWT row to probe: it can be
            // an interval's `high`, never the `low` of a one-row one.
            debug_assert!(!probe, "one-row interval at the boundary checkpoint");
            // Boundary bucket holds no BWT bases; its marker equals the
            // final checkpoint stored in the last sub-array's next column.
            // The builder always allocates the checkpoint bucket because
            // buckets() = n/d + 1 columns fit in 256 only when the text
            // fills sub-arrays exactly; fall back to the software marker
            // (a local MEM read in hardware).
            LogicalOp::MarkerRead.charge(self.subarrays[0].model(), ledger);
            // Heatmap: the checkpoint read activates the final primary
            // sub-array (where the last marker column lives).
            ledger.note_zone_many(self.subarrays.len() - 1, 1);
            (0, false, self.index.marker_table().marker(nt, bucket))
        } else {
            let sub = &self.subarrays[s];
            let cached = cache
                .as_deref()
                .and_then(|c| c.lookup(s as u32, lb, nt.rank()));
            let (matches, marker) = match cached {
                Some((words, marker)) => {
                    // Host work skipped; the platform is billed the
                    // identical charge sequence the recompute pays below
                    // (`XNOR_Match` → popcount → marker `MEM`).
                    ledger.note_kernel_cache_hit();
                    LogicalOp::XnorMatch.charge(sub.model(), ledger);
                    LogicalOp::Popcount.charge(sub.model(), ledger);
                    LogicalOp::MarkerRead.charge(sub.model(), ledger);
                    (MatchMask(words), marker)
                }
                None => {
                    // Stack-allocated packed match mask: the whole
                    // compare stage runs on [u64; 2] words, no heap
                    // traffic per LFM.
                    let mut matches = sub.xnor_match(lb, nt, ledger);
                    // The 2-bit code space cannot represent `$`, so the
                    // sentinel cell is stored with a placeholder code
                    // (T). The DPU knows the sentinel's position and
                    // masks it out of the match vector before counting.
                    let sentinel = self.index.bwt().sentinel_pos();
                    if sentinel / SubArrayLayout::BASES_PER_ROW == bucket {
                        matches.set(sentinel % SubArrayLayout::BASES_PER_ROW, false);
                    }
                    LogicalOp::Popcount.charge(sub.model(), ledger);
                    let marker = sub.read_marker(lb, nt, ledger);
                    if let Some(c) = cache {
                        ledger.note_kernel_cache_miss();
                        if c.insert(s as u32, lb, nt.rank(), matches.0, marker) {
                            ledger.note_kernel_cache_eviction();
                        }
                    }
                    (matches, marker)
                }
            };
            // Heatmap: the XNOR match and the marker read each activate
            // sub-array `s` (the popcount runs in the DPU, not the
            // array).
            ledger.note_zone_many(s, 2);
            // Fault injection (DESIGN.md §8) always corrupts this
            // request's private copy of the mask, never the cached entry.
            let (count, bit) = sense(matches, within, probe, Some(injector));
            (count, bit, marker)
        };
        let carry_fault = injector.carry_fault_bit();
        let sum = match self.method {
            AddMethod::InPlace => {
                let idx = s.min(self.subarrays.len() - 1);
                let sub = &self.subarrays[idx];
                // Heatmap: the in-place add activates the same zone.
                ledger.note_zone_many(idx, 1);
                match carry_fault {
                    Some(k) => sub.im_add32_shared_faulty(marker, count, k, ledger),
                    None => sub.im_add32_shared(marker, count, ledger),
                }
            }
            AddMethod::Mirrored => {
                // Operand transfer into the mirror's write port.
                let idx = s.min(self.mirrors.len() - 1);
                let mirror = &self.mirrors[idx];
                LogicalOp::RowWrite.charge_many(mirror.model(), ledger, 7);
                // Heatmap: mirror zones are indexed after the primaries
                // (7 operand-transfer writes + the add = 8 activations).
                ledger.note_zone_many(self.subarrays.len() + idx, 8);
                match carry_fault {
                    Some(k) => mirror.im_add32_shared_faulty(marker, count, k, ledger),
                    None => mirror.im_add32_shared(marker, count, ledger),
                }
            }
        };
        // The DPU's index registers saturate at N: a sensing fault can
        // inflate the count past the table range, and the controller
        // clamps rather than address outside the mapped region. A no-op
        // under ideal sensing.
        (sum.min(self.index.text_len() as u32), bit)
    }

    /// One backward-search step (Algorithm 1 lines 8–10): extends
    /// `[low, high)` by `nt` and leaves the result in `dpu`'s interval
    /// registers. Returns the `LFM`s issued — every search, exact or
    /// inexact, single-read or lock-step ([`MappedIndex::step_batch`]),
    /// extends its interval here and nowhere else.
    ///
    /// The published step issues `LFM(nt, low)` and `LFM(nt, high)`. When
    /// the interval is one row, `high == low + 1`, the second is
    /// `rank(nt, low + 1) = rank(nt, low) + [BWT[low] == nt]`, and that
    /// bit is column `low % 128` of the mask `LFM(nt, low)` has just
    /// sensed. So the step issues that one `LFM`, and the DPU's counter
    /// makes `high' = low' + bit` from it, saturating at `N` like every
    /// index register: one [`LogicalOp::IndexBump`] beside the step's
    /// usual interval write. The intervals are those of the published
    /// step, at every step of every search; what changes is the count —
    /// an extension beyond the paper (DESIGN.md §8), whose figures
    /// [`PerfReport::as_published`](crate::PerfReport::as_published)
    /// restores. Nothing selects it but the interval itself.
    ///
    /// Under a fault campaign the one `LFM` draws what one `LFM` draws
    /// (DESIGN.md §15.2), the probed column being one more column sensed.
    pub(crate) fn step(
        &self,
        nt: Base,
        (low, high): (u32, u32),
        dpu: &mut Dpu,
        injector: &mut FaultInjector,
        mut cache: Option<&mut KernelCache>,
        ledger: &mut CycleLedger,
    ) -> u64 {
        if one_row(low, high) {
            let (low, bit) = self.lfm_probed(nt, low as usize, true, injector, cache, ledger);
            self.write_one_row(dpu, low, bit, ledger);
            1
        } else {
            let low = self.lfm_cached(nt, low as usize, injector, cache.as_deref_mut(), ledger);
            let high = self.lfm_cached(nt, high as usize, injector, cache, ledger);
            dpu.set_interval(low, high, ledger);
            2
        }
    }

    /// Starts a descent — every search's, and every new substring's of
    /// the inexact stage's bound pass and trim: loads `dpu`'s interval
    /// registers for a backward search of `ahead` (read order, so the
    /// search consumes it from its last base) and returns how many of
    /// those bases the registers already cover.
    ///
    /// As published that is none: `[0, N)`, and `k` interval steps to
    /// follow that depend on the next `k` bases alone. With a seed table
    /// of depth `k > 0` and at least `k` bases ahead, the start issues one
    /// read of the table's level `k` instead ([`MappedIndex::read_seed`]),
    /// writes what it holds into the registers — the interval of those
    /// `k` steps, from the same `LFM`s — and the walk resumes at base
    /// `k + 1`: `Some(k)`. If the entry is empty the published walk would
    /// have failed somewhere in those `k` bases; the registers get
    /// `[0, N)` for a caller that has to know where, and the answer is
    /// `None`. With fewer than `k` bases ahead, or no table, `Some(0)`.
    ///
    /// An extension beyond the paper (DESIGN.md §8): the read is a
    /// [`LogicalOp::SeedRead`] beside the start's usual interval write,
    /// takes a whole `LFM` issue slot in the time model, and the `k` steps
    /// it stood in for are noted on the ledger so that
    /// [`PerfReport::published_lfm_calls`](crate::PerfReport) still counts
    /// them.
    pub(crate) fn start(
        &self,
        ahead: &[Base],
        dpu: &mut Dpu,
        ledger: &mut CycleLedger,
    ) -> Option<usize> {
        let n = self.index.text_len() as u32;
        let k = self.seeds.depth();
        if k == 0 || ahead.len() < k {
            dpu.init_interval(n, ledger);
            return Some(0);
        }
        let (low, high) = self.read_seed(&ahead[ahead.len() - k..], ledger);
        if low >= high {
            dpu.init_interval(n, ledger);
            return None;
        }
        dpu.set_interval(low, high, ledger);
        ledger.note_seeded_steps(k as u64);
        Some(k)
    }

    /// Reads the seed table's entry for `kmer` (read order, `1 ..= k`
    /// bases): the interval that many interval steps from `[0, N)` give.
    /// A `MEM` read of two words, so no fault is drawn on it — like
    /// [`MappedIndex::locate`]'s.
    pub(crate) fn read_seed(&self, kmer: &[Base], ledger: &mut CycleLedger) -> (u32, u32) {
        LogicalOp::SeedRead.charge(self.subarrays[0].model(), ledger);
        self.seeds.interval(kmer)
    }

    /// The seed table derived from the index when it was mapped.
    pub fn seed_table(&self) -> &SeedTable {
        &self.seeds
    }

    /// The interval write of a one-row step: `low` as its `LFM` returned
    /// it, `high` bumped from it by the match bit.
    fn write_one_row(&self, dpu: &mut Dpu, low: u32, bit: bool, ledger: &mut CycleLedger) {
        let n = self.index.text_len() as u32;
        dpu.set_interval(low, (low + u32::from(bit)).min(n), ledger);
        LogicalOp::IndexBump.charge(self.subarrays[0].model(), ledger);
    }

    /// [`MappedIndex::step`] for reads in lock-step through the batched
    /// kernel: each `(stream, nt)` of `steps` extends the interval in
    /// `dpus[stream]` by `nt` and adds the `LFM`s it issued to
    /// `lfm_calls[stream]`. A stream contributes its `low` request then —
    /// unless its interval is one row — its `high` request, in `steps`
    /// order, and the whole step runs as one batch, so plane loads shared
    /// across reads are charged once. Intervals, counts and each stream's
    /// fault draws are those of [`MappedIndex::step`] per read.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step_batch(
        &self,
        steps: &[(usize, Base)],
        dpus: &mut [Dpu],
        lfm_calls: &mut [u64],
        injectors: &mut [FaultInjector],
        cache: Option<&mut KernelCache>,
        ledger: &mut CycleLedger,
        scratch: &mut LfmBatchScratch,
    ) {
        let mut requests = std::mem::take(&mut scratch.requests);
        let mut probes = std::mem::take(&mut scratch.probes);
        let mut sums = std::mem::take(&mut scratch.sums);
        requests.clear();
        probes.clear();
        for &(stream, nt) in steps {
            let (low, high) = (dpus[stream].low(), dpus[stream].high());
            let one_row = one_row(low, high);
            requests.push(LfmRequest {
                stream,
                nt,
                id: low as usize,
            });
            probes.push(one_row);
            if !one_row {
                requests.push(LfmRequest {
                    stream,
                    nt,
                    id: high as usize,
                });
                probes.push(false);
            }
        }
        self.lfm_batch_probed(
            &requests, &probes, injectors, cache, ledger, scratch, &mut sums,
        );
        let mut k = 0;
        for &(stream, _) in steps {
            if probes[k] {
                self.write_one_row(&mut dpus[stream], sums[k], scratch.bits[k], ledger);
                k += 1;
                lfm_calls[stream] += 1;
            } else {
                dpus[stream].set_interval(sums[k], sums[k + 1], ledger);
                k += 2;
                lfm_calls[stream] += 2;
            }
        }
        scratch.requests = requests;
        scratch.probes = probes;
        scratch.sums = sums;
    }

    /// Executes one interleaved batch of `LFM` requests — the batched
    /// kernel path (DESIGN.md §15). Requests are partitioned per
    /// sub-array into [`LfmBatch`]es whose shared compare stage
    /// (`XNOR_Match` plane load, sentinel masking, marker read) is
    /// charged once per distinct `(bucket, nt)` group instead of once
    /// per request; the per-request stages (popcount, fault sensing,
    /// `IM_ADD`) then run in request order, bit-identical to the same
    /// sequence of single [`MappedIndex::lfm`] calls. Issue timing
    /// flows through a [`PipelineSim`] stage-queue scheduler (`Pd` from
    /// the config) whose counters are recorded on `ledger`.
    ///
    /// `injectors` is indexed by request `stream`; pass an empty slice
    /// when the fault campaign is inactive. Per-stream draw order is
    /// request order, so push a read's low request before its high
    /// request to replay the single-read injector stream exactly.
    ///
    /// # Panics
    ///
    /// Panics if any `id` exceeds the indexed text length.
    pub fn lfm_batch(
        &self,
        requests: &[LfmRequest],
        injectors: &mut [FaultInjector],
        ledger: &mut CycleLedger,
    ) -> Vec<u32> {
        let mut scratch = LfmBatchScratch::new();
        let mut sums = Vec::new();
        self.lfm_batch_into(requests, injectors, None, ledger, &mut scratch, &mut sums);
        sums
    }

    /// [`MappedIndex::lfm_batch`] with caller-owned scratch and an
    /// optional rank-checkpoint cache: `scratch` keeps the partition
    /// tables, group masks and scheduler between calls (no per-call
    /// allocation on the hot path) and `sums` is cleared then filled
    /// with one result per request. Lock-step drivers
    /// ([`crate::exact::exact_search_batch`]) reuse one scratch across
    /// every step of a batch. The shared compare stage consults/feeds
    /// `cache` per `(sub-array, bucket, nt)` group (see
    /// [`MappedIndex::lfm_cached`]); sums, charges and fault draws are
    /// byte-identical with and without it.
    pub fn lfm_batch_into(
        &self,
        requests: &[LfmRequest],
        injectors: &mut [FaultInjector],
        cache: Option<&mut KernelCache>,
        ledger: &mut CycleLedger,
        scratch: &mut LfmBatchScratch,
        sums: &mut Vec<u32>,
    ) {
        self.lfm_batch_probed(requests, &[], injectors, cache, ledger, scratch, sums);
    }

    /// [`MappedIndex::lfm_batch_into`] in which request `k` is a one-row
    /// step's probe if `probes[k]` says so (an empty table: no request
    /// is): the match bit at its own column comes back in
    /// `scratch.bits[k]`, as [`MappedIndex::lfm_probed`] returns it.
    #[allow(clippy::too_many_arguments)]
    fn lfm_batch_probed(
        &self,
        requests: &[LfmRequest],
        probes: &[bool],
        injectors: &mut [FaultInjector],
        mut cache: Option<&mut KernelCache>,
        ledger: &mut CycleLedger,
        scratch: &mut LfmBatchScratch,
        sums: &mut Vec<u32>,
    ) {
        debug_assert!(probes.is_empty() || probes.len() == requests.len());
        sums.clear();
        if requests.is_empty() {
            return;
        }
        let text_len = self.index.text_len();
        let model = self.subarrays[0].model();
        scratch.begin(self.pd, self.pipeline);
        // Partition into one batch per touched sub-array; boundary
        // requests (the final checkpoint bucket past the mapped rows)
        // stay unbatched. BASES_PER_ROW and the 256-bucket column count
        // are powers of two, so the bucket math is shift-and-mask.
        let mut boundary = 0u64;
        for req in requests {
            assert!(req.id <= text_len, "LFM index {} out of range", req.id);
            let bucket = req.id / SubArrayLayout::BASES_PER_ROW;
            let s = bucket / 256;
            if s >= self.subarrays.len() {
                boundary += 1;
                scratch.locator.push((u32::MAX, 0));
                continue;
            }
            let slot = scratch.slot_for(s);
            let idx = scratch.pool[slot].push(
                req.stream,
                bucket % 256,
                req.nt,
                req.id % SubArrayLayout::BASES_PER_ROW,
            );
            scratch.locator.push((slot as u32, idx as u32));
        }
        // Boundary checkpoint reads land in the final primary sub-array:
        // one marker read each, plus that request's add activation.
        if boundary > 0 {
            LogicalOp::MarkerRead.charge_many(model, ledger, boundary);
            ledger.note_zone_many(self.subarrays.len() - 1, boundary);
            match self.method {
                AddMethod::InPlace => {
                    ledger.note_zone_many(self.subarrays.len() - 1, boundary);
                }
                AddMethod::Mirrored => {
                    let idx = self.mirrors.len() - 1;
                    LogicalOp::RowWrite.charge_many(model, ledger, 7 * boundary);
                    ledger.note_zone_many(self.subarrays.len() + idx, 8 * boundary);
                }
            }
        }
        // Shared compare stage, once per group per touched sub-array —
        // plus the per-request charges that are a pure function of the
        // partition (one popcount per request, the add-stage activations
        // and method-II operand transfers), folded in with `charge_many`
        // (integer-exact to the per-request charges of the single-read
        // path).
        let sentinel = self.index.bwt().sentinel_pos();
        let sentinel_bucket = sentinel / SubArrayLayout::BASES_PER_ROW;
        for t in 0..scratch.active {
            let s = scratch.keys[t];
            let batch = &mut scratch.pool[t];
            let local_sentinel = (sentinel_bucket / 256 == s).then_some((
                sentinel_bucket % 256,
                sentinel % SubArrayLayout::BASES_PER_ROW,
            ));
            let groups = batch.run_compare(
                &self.subarrays[s],
                local_sentinel,
                cache.as_deref_mut(),
                s as u32,
                ledger,
            );
            let n = batch.len() as u64;
            // Heatmap: one XNOR match + one marker read per group.
            ledger.note_zone_many(s, 2 * groups as u64);
            LogicalOp::Popcount.charge_many(model, ledger, n);
            match self.method {
                AddMethod::InPlace => {
                    ledger.note_zone_many(s.min(self.subarrays.len() - 1), n);
                }
                AddMethod::Mirrored => {
                    let idx = s.min(self.mirrors.len() - 1);
                    LogicalOp::RowWrite.charge_many(model, ledger, 7 * n);
                    ledger.note_zone_many(self.subarrays.len() + idx, 8 * n);
                }
            }
        }
        // Per-request stages in request order: popcount + fault sensing,
        // then the add — with the pipeline scheduler timing each issue
        // (a follower's compare result is already resident, so it skips
        // straight to the addition queue). Disjoint field borrows: the
        // loop reads the partition while driving the scheduler.
        let LfmBatchScratch {
            pool,
            locator,
            sim,
            bits,
            ..
        } = scratch;
        // No injector, no carry draw: a clean ripple add is value-exact
        // to a wrapping add, so all the adds are charged in one step.
        let clean = injectors.is_empty();
        if clean {
            LogicalOp::ImAdd32.charge_many(model, ledger, requests.len() as u64);
        }
        for (k, (req, &(slot, idx))) in requests.iter().zip(locator.iter()).enumerate() {
            let probe = probes.get(k).is_some_and(|&p| p);
            let (count, bit, marker, shares_compare) = if slot == u32::MAX {
                debug_assert!(!probe, "one-row interval at the boundary checkpoint");
                let bucket = req.id / SubArrayLayout::BASES_PER_ROW;
                let marker = self.index.marker_table().marker(req.nt, bucket);
                (0, false, marker, false)
            } else {
                let batch = &pool[slot as usize];
                let i = idx as usize;
                // The group's mask is shared; this request's draws fall
                // on its own copy, as on the single-read path.
                let (count, bit) = sense(
                    *batch.mask(i),
                    batch.within(i),
                    probe,
                    injectors.get_mut(req.stream),
                );
                (count, bit, batch.marker(i), !batch.is_leader(i))
            };
            bits.push(bit);
            // Same draw as the single-read path; returns `None` without
            // consuming the stream when the carry rate is zero, so a
            // present-but-inactive injector stays equivalent to the
            // clean path.
            let carry_fault = injectors
                .get_mut(req.stream)
                .and_then(FaultInjector::carry_fault_bit);
            sim.issue(req.stream, shares_compare);
            // Every sub-array and mirror shares one ArrayModel, so the
            // shared add's charge is position-independent.
            let sum = match carry_fault {
                Some(k) => self.subarrays[0].im_add32_shared_faulty(marker, count, k, ledger),
                None => {
                    if !clean {
                        LogicalOp::ImAdd32.charge(model, ledger);
                    }
                    marker.wrapping_add(count)
                }
            };
            sums.push(sum.min(text_len as u32));
        }
        ledger.record_pipeline(&sim.counters());
    }

    /// Reads suffix-array entries for an interval (`MEM` on the SA
    /// region) and returns the sorted reference positions.
    pub fn locate(&self, interval: SaInterval, ledger: &mut CycleLedger) -> Vec<usize> {
        LogicalOp::SaEntryRead.charge_many(
            self.subarrays[0].model(),
            ledger,
            interval.rows().count() as u64,
        );
        self.index.locate(interval)
    }

    /// The array model in use.
    pub fn model(&self) -> ArrayModel {
        *self.subarrays[0].model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use readsim::genome;

    fn mapped(reference: &DnaSeq, method: AddMethod) -> MappedIndex {
        let config = match method {
            AddMethod::InPlace => PimAlignerConfig::baseline(),
            AddMethod::Mirrored => PimAlignerConfig::pipelined(),
        };
        MappedIndex::build(reference, &config)
    }

    #[test]
    fn subarray_count_scales_with_genome() {
        let small = mapped(&genome::uniform(1_000, 1), AddMethod::InPlace);
        assert_eq!(small.subarray_count(), 1);
        let big = mapped(&genome::uniform(100_000, 1), AddMethod::InPlace);
        assert_eq!(big.subarray_count(), (100_001usize).div_ceil(32_768));
        assert_eq!(big.total_subarrays(), big.subarray_count());
    }

    #[test]
    fn mirrored_doubles_subarrays() {
        let m = mapped(&genome::uniform(40_000, 2), AddMethod::Mirrored);
        assert_eq!(m.total_subarrays(), 2 * m.subarray_count());
    }

    #[test]
    fn hardware_lfm_matches_software_oracle() {
        let reference = genome::uniform(70_000, 3);
        let m = mapped(&reference, AddMethod::InPlace);
        let oracle = m.index().clone();
        let mut injector = m.session_injector();
        let mut ledger = CycleLedger::new();
        // Dense sweep near bucket boundaries plus random interior points.
        let mut ids: Vec<usize> = (0..40).map(|k| k * 1_777 % oracle.text_len()).collect();
        for b in [0usize, 127, 128, 129, 255, 256, 32_767, 32_768, 32_769] {
            if b <= oracle.text_len() {
                ids.push(b);
            }
        }
        ids.push(oracle.text_len());
        for id in ids {
            for base in Base::ALL {
                let hw = m.lfm(base, id, &mut injector, &mut ledger);
                let sw = oracle.marker_table().lfm(oracle.bwt(), base, id);
                assert_eq!(hw, sw, "LFM mismatch at id={id} base={base}");
            }
        }
    }

    #[test]
    fn mirrored_lfm_matches_software_oracle() {
        let reference = genome::uniform(20_000, 4);
        let m = mapped(&reference, AddMethod::Mirrored);
        let oracle = m.index().clone();
        let mut injector = m.session_injector();
        let mut ledger = CycleLedger::new();
        for id in (0..oracle.text_len()).step_by(977) {
            for base in Base::ALL {
                assert_eq!(
                    m.lfm(base, id, &mut injector, &mut ledger),
                    oracle.marker_table().lfm(oracle.bwt(), base, id)
                );
            }
        }
    }

    #[test]
    fn mapping_cost_recorded_separately() {
        let m = mapped(&genome::uniform(5_000, 5), AddMethod::InPlace);
        assert!(m.mapping_ledger().total_busy_cycles() > 0);
    }

    #[test]
    fn locate_charges_sa_reads() {
        let reference: DnaSeq = "TGCTA".parse().unwrap();
        let m = mapped(&reference, AddMethod::InPlace);
        let interval = m.index().backward_search(&"CTA".parse().unwrap()).unwrap();
        let mut ledger = CycleLedger::new();
        assert_eq!(m.locate(interval, &mut ledger), vec![2]);
        assert!(ledger.total_busy_cycles() > 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lfm_past_text_panics() {
        let reference: DnaSeq = "ACGT".parse().unwrap();
        let m = mapped(&reference, AddMethod::InPlace);
        let mut injector = m.session_injector();
        let mut ledger = CycleLedger::new();
        let _ = m.lfm(Base::A, 99, &mut injector, &mut ledger);
    }

    #[test]
    fn build_count_increments_per_build() {
        let before = MappedIndex::build_count();
        let _ = mapped(&genome::uniform(2_000, 6), AddMethod::InPlace);
        assert!(MappedIndex::build_count() > before);
    }

    #[test]
    fn batched_lfm_matches_single_calls_and_saves_plane_loads() {
        // text_len (raw + sentinel) fills exactly two sub-arrays, so
        // `id = n` lands on the final checkpoint bucket (the unbatched
        // boundary path).
        let reference = genome::uniform(65_535, 3);
        let m = mapped(&reference, AddMethod::InPlace);
        let n = m.index().text_len();
        // Three streams: a shared (bucket, base) pair, a second
        // sub-array, and the boundary checkpoint.
        let requests = vec![
            LfmRequest {
                stream: 0,
                nt: Base::A,
                id: 130,
            },
            LfmRequest {
                stream: 1,
                nt: Base::A,
                id: 180,
            },
            LfmRequest {
                stream: 1,
                nt: Base::C,
                id: 33_000,
            },
            LfmRequest {
                stream: 2,
                nt: Base::C,
                id: 33_100,
            },
            LfmRequest {
                stream: 2,
                nt: Base::T,
                id: n,
            },
        ];
        let mut batch_ledger = CycleLedger::new();
        let sums = m.lfm_batch(&requests, &mut [], &mut batch_ledger);
        let mut single_ledger = CycleLedger::new();
        let mut injector = m.session_injector();
        let singles: Vec<u32> = requests
            .iter()
            .map(|r| m.lfm(r.nt, r.id, &mut injector, &mut single_ledger))
            .collect();
        assert_eq!(sums, singles);
        // requests 0 and 1 share one plane load: 3 XNORs, not 4.
        assert_eq!(
            batch_ledger.primitives().count(LogicalOp::XnorMatch),
            3,
            "shared bucket must be loaded once"
        );
        assert_eq!(single_ledger.primitives().count(LogicalOp::XnorMatch), 4);
        assert!(batch_ledger.total_busy_cycles() < single_ledger.total_busy_cycles());
        let pipe = batch_ledger.pipeline_counters();
        assert_eq!(pipe.issued, 5);
        assert!(pipe.makespan_cycles > 0);
        assert_eq!(single_ledger.pipeline_counters().issued, 0);
    }

    #[test]
    fn batched_lfm_replays_per_read_fault_streams() {
        use mram::faults::FaultModel;
        let config = PimAlignerConfig::baseline().with_fault_campaign(
            FaultCampaign::seeded(29)
                .with_model(FaultModel::with_probabilities(0.04, 0.0))
                .with_transient_row_rate(0.15)
                .with_carry_fault_prob(0.1),
        );
        let m = MappedIndex::build(&genome::uniform(40_000, 9), &config);
        // Streams interleaved low/high, sharing bucket 1 across streams.
        let requests = vec![
            LfmRequest {
                stream: 0,
                nt: Base::A,
                id: 140,
            },
            LfmRequest {
                stream: 1,
                nt: Base::A,
                id: 170,
            },
            LfmRequest {
                stream: 0,
                nt: Base::A,
                id: 5_000,
            },
            LfmRequest {
                stream: 1,
                nt: Base::G,
                id: 9_000,
            },
        ];
        let mut injectors = vec![m.read_injector(0), m.read_injector(1)];
        let mut batch_ledger = CycleLedger::new();
        let batched = m.lfm_batch(&requests, &mut injectors, &mut batch_ledger);
        // Oracle: single-read replay per stream in per-stream order.
        let mut oracle = [m.read_injector(0), m.read_injector(1)];
        let mut single_ledger = CycleLedger::new();
        let expected: Vec<u32> = requests
            .iter()
            .map(|r| m.lfm(r.nt, r.id, &mut oracle[r.stream], &mut single_ledger))
            .collect();
        assert_eq!(batched, expected);
        for s in 0..2 {
            assert_eq!(injectors[s].counters(), oracle[s].counters(), "stream {s}");
        }
        assert_eq!(batch_ledger.kernel_cache_counters().lookups(), 0);
        assert_eq!(single_ledger.kernel_cache_counters().lookups(), 0);

        // Cached leg: the same schedule through one rank-checkpoint
        // cache replays sums, fault draws and every simulated charge of
        // the uncached legs — cold (3 groups install) and warm (3 hits).
        let mut cache = KernelCache::new();
        for (hits, misses) in [(0, 3), (3, 0)] {
            let mut cached = vec![m.read_injector(0), m.read_injector(1)];
            let mut ledger = CycleLedger::new();
            let mut sums = Vec::new();
            m.lfm_batch_into(
                &requests,
                &mut cached,
                Some(&mut cache),
                &mut ledger,
                &mut LfmBatchScratch::new(),
                &mut sums,
            );
            assert_eq!(sums, batched);
            assert_eq!(ledger, batch_ledger);
            for s in 0..2 {
                assert_eq!(cached[s].counters(), injectors[s].counters(), "stream {s}");
            }
            let cc = ledger.kernel_cache_counters();
            assert_eq!((cc.hits, cc.misses), (hits, misses));
        }
        let mut cached = [m.read_injector(0), m.read_injector(1)];
        let mut ledger = CycleLedger::new();
        let singles: Vec<u32> = requests
            .iter()
            .map(|r| {
                let injector = &mut cached[r.stream];
                m.lfm_cached(r.nt, r.id, injector, Some(&mut cache), &mut ledger)
            })
            .collect();
        assert_eq!(singles, expected);
        assert_eq!(ledger, single_ledger);
        for s in 0..2 {
            assert_eq!(cached[s].counters(), oracle[s].counters(), "stream {s}");
        }
        assert_eq!(ledger.kernel_cache_counters().hits, 4);
    }

    /// Steps `[low, high)` by `nt` through the single-read entry and,
    /// from the same registers, through the lock-step one; returns the
    /// interval both left in the DPU, the `LFM`s both issued, and the
    /// single-read ledger.
    fn step_both_ways(
        m: &MappedIndex,
        nt: Base,
        (low, high): (u32, u32),
        injectors: &mut [FaultInjector; 2],
    ) -> ((u32, u32), u64, CycleLedger) {
        let [single, batched] = injectors;
        let mut dpu = Dpu::new(m.model());
        let mut ledger = CycleLedger::new();
        let issued = m.step(nt, (low, high), &mut dpu, single, None, &mut ledger);
        let mut dpus = [Dpu::new(m.model())];
        dpus[0].set_interval(low, high, &mut CycleLedger::new());
        let mut lfm_calls = [0];
        let mut batch_ledger = CycleLedger::new();
        m.step_batch(
            &[(0, nt)],
            &mut dpus,
            &mut lfm_calls,
            std::slice::from_mut(batched),
            None,
            &mut batch_ledger,
            &mut LfmBatchScratch::new(),
        );
        let interval = (dpu.low(), dpu.high());
        assert_eq!((dpus[0].low(), dpus[0].high()), interval, "{nt} at {low}");
        assert_eq!(lfm_calls[0], issued, "{nt} at {low}");
        // A one-row step's one `LFM` has nothing to share a plane load
        // with; the pair of a wider step may (one `XNOR_Match` and one
        // marker read when both bounds lie in one bucket).
        for op in LogicalOp::ALL {
            let shareable = matches!(op, LogicalOp::XnorMatch | LogicalOp::MarkerRead);
            if issued == 1 || !shareable {
                assert_eq!(
                    batch_ledger.primitives().count(op),
                    ledger.primitives().count(op),
                    "{op:?}, {nt} at {low}"
                );
            }
        }
        (interval, issued, ledger)
    }

    #[test]
    fn one_row_step_matches_software_oracle_at_the_edges() {
        for method in [AddMethod::InPlace, AddMethod::Mirrored] {
            // Three sub-arrays, the last row partial (70 001 = 546 · 128
            // + 113); and a text that fills two sub-arrays exactly, so
            // that `id = n` is the boundary checkpoint bucket.
            for len in [70_000, 65_535] {
                let m = mapped(&genome::uniform(len, 3), method);
                let oracle = m.index();
                let n = oracle.text_len() as u32;
                let lfm = |nt, id: u32| oracle.marker_table().lfm(oracle.bwt(), nt, id as usize);
                let mut clean = [m.session_injector(), m.session_injector()];
                // The last column of a row (`high` lies in the next
                // bucket, the bit is column 127 of `low`'s mask) and of a
                // sub-array, the first row of the second sub-array, the
                // sentinel's row, the last row of the text.
                let sentinel = oracle.bwt().sentinel_pos() as u32;
                for low in [0, 127, 32_767, 32_768, sentinel, n - 1] {
                    let mut extended = 0;
                    for nt in Base::ALL {
                        let (interval, issued, ledger) =
                            step_both_ways(&m, nt, (low, low + 1), &mut clean);
                        assert_eq!(interval, (lfm(nt, low), lfm(nt, low + 1)), "{nt} at {low}");
                        extended += interval.1 - interval.0;
                        // One published `LFM`, the interval write, the
                        // bump: 74 + 2 + 2 cycles, 76 in the time model.
                        assert_eq!(issued, 1);
                        let prims = ledger.primitives();
                        for op in [
                            LogicalOp::XnorMatch,
                            LogicalOp::Popcount,
                            LogicalOp::MarkerRead,
                            LogicalOp::ImAdd32,
                            LogicalOp::IndexUpdate,
                            LogicalOp::IndexBump,
                        ] {
                            assert_eq!(prims.count(op), 1, "{op:?}");
                        }
                        let transfer = prims.cycles(LogicalOp::RowWrite);
                        assert_eq!(transfer, if method == AddMethod::Mirrored { 7 } else { 0 });
                        assert_eq!(ledger.total_busy_cycles(), 78 + transfer);
                    }
                    // A row holds one symbol: one base extends it, none
                    // if it is the sentinel (stored as a placeholder `T`,
                    // cleared from the mask before the bit is read).
                    assert_eq!(extended, u32::from(low != sentinel), "row {low}");
                }
                // Two rows: the published pair, `high` on the boundary
                // checkpoint when the text ends its sub-array.
                for nt in Base::ALL {
                    let (interval, issued, ledger) = step_both_ways(&m, nt, (n - 2, n), &mut clean);
                    assert_eq!(interval, (lfm(nt, n - 2), lfm(nt, n)), "{nt}");
                    assert_eq!(issued, 2);
                    assert_eq!(ledger.primitives().count(LogicalOp::IndexBump), 0);
                }
            }
        }
    }

    #[test]
    fn one_row_step_draws_what_one_lfm_draws() {
        use mram::faults::FaultModel;
        // Every decision fires, so the counters count the decisions: a
        // misread draw per column sensed, a transient and a carry
        // decision per `LFM`.
        let config = PimAlignerConfig::baseline().with_fault_campaign(
            FaultCampaign::seeded(5)
                .with_model(FaultModel::with_probabilities(1.0, 0.0))
                .with_transient_row_rate(1.0)
                .with_carry_fault_prob(1.0),
        );
        let m = MappedIndex::build(&genome::uniform(40_000, 9), &config);
        for (low, rows) in [(300u32, 1), (33_023, 1), (300, 2), (33_023, 5)] {
            let mut injectors = [m.read_injector(7), m.read_injector(7)];
            let (_, issued, _) = step_both_ways(&m, Base::G, (low, low + rows), &mut injectors);
            let within = |id: u32| u64::from(id) % 128;
            let (lfms, columns) = if rows == 1 {
                // The `within` columns counted, and the probed one.
                (1, within(low) + 1)
            } else {
                (2, within(low) + within(low + rows))
            };
            assert_eq!(issued, lfms);
            for injector in &injectors {
                let drawn = injector.counters();
                assert_eq!(drawn.xnor_bit_flips, columns, "[{low}, +{rows})");
                assert_eq!(drawn.transient_row_faults, lfms, "[{low}, +{rows})");
                assert_eq!(drawn.carry_faults, lfms, "[{low}, +{rows})");
            }
        }
    }
}
