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

use bioseq::{Base, PackedSeq};
use fmindex::{FmIndex, SaInterval, SeedTable};
use mram::array::ArrayModel;
use mram::faults::FaultCampaign;
use pimsim::costs::LogicalOp;
use pimsim::pipeline::{PipelineParams, PipelineSim};
use pimsim::{
    im_add32, CycleLedger, Dpu, FaultCounters, FaultInjector, MatchMask, SubArray, SubArrayLayout,
};

use crate::config::{AddMethod, PimAlignerConfig};

/// Process-wide count of [`MappedIndex::build`] invocations. The
/// shared-platform contract — "the index is mapped into sub-arrays
/// *once* and then queried in place" — is asserted against this counter
/// by the integration tests; it has no runtime role.
static BUILD_COUNT: AtomicU64 = AtomicU64::new(0);

/// BWT bases (= Occ buckets × 128) one sub-array covers.
const BASES_PER_SUBARRAY: usize = 256 * SubArrayLayout::BASES_PER_ROW;

/// One request of [`MappedIndex::lfm_batch`]: read stream `stream` asks
/// for `LFM(nt, id)` (Algorithm 1 line 9). Kept because
/// `benchmark/src/trace.rs` compiles against it.
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

/// Whether `[low, high)` is not empty and lies inside one word line — one
/// Occ bucket: what selects the one-`LFM` interval step
/// ([`MappedIndex::step`]), and nothing else does.
fn one_word_line(low: u32, high: u32) -> bool {
    let row = SubArrayLayout::BASES_PER_ROW as u32;
    high > low && (high - 1) / row == low / row
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
/// let mapped = MappedIndex::build(&reference.to_packed(), &PimAlignerConfig::baseline());
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
    /// Method-II adds in a mirror of each sub-array, one zone index past
    /// the primaries'. A mirror holds no rows: the add reads none.
    method: AddMethod,
    /// Parallelism degree for [`MappedIndex::lfm_batch`]'s scheduler.
    pd: usize,
    /// Stage timing for [`MappedIndex::lfm_batch`]'s scheduler.
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
    pub fn build(reference: &PackedSeq, config: &PimAlignerConfig) -> MappedIndex {
        let index = FmIndex::builder()
            .bucket_width(SubArrayLayout::BASES_PER_ROW)
            .build(reference);
        MappedIndex::from_index(index, config)
    }

    /// Maps an already-built FM-index — owned, or shared as an
    /// `Arc<FmIndex>` with e.g. the [`fmindex::io`] artifact it was
    /// deserialised from — into sub-arrays, skipping the index
    /// construction itself. The mapping (table loads, the mirror copy's
    /// charge, stuck-cell injection) is identical to
    /// [`MappedIndex::build`], so a loaded index produces the same
    /// sub-array state and mapping ledger as an in-process build of the
    /// same index.
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
                let codes = index.bwt().codes(start, count);
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
        // Stuck-at injection: each physical array draws its own defect
        // plan after its tables are written, the primaries first. The
        // data zones are write-once, so a post-load force is
        // behaviourally a stuck cell. The build-time injector, the one
        // stream the campaign's own seed drives, is consumed here;
        // alignment-time fault streams are per read (see
        // [`MappedIndex::read_injector`]).
        let mut injector = FaultInjector::new(config.fault_campaign());
        let cols = model.geometry().cols;
        for sa in &mut subarrays {
            for (row, col, value) in injector.stuck_cell_plan(sa.data_zone_rows(), cols) {
                sa.force_bit(row, col, value);
            }
        }
        if config.method() == AddMethod::Mirrored {
            // Method-II: "essentially duplicates the number of
            // sub-arrays, where only in-memory addition computation is
            // transferred to a second sub-array". The platform pays a row
            // read and a row write for every row of every sub-array, and
            // each mirror draws its own stuck cells. The host keeps
            // neither the copy nor its cells: the add reads no stored row.
            let rows = (model.geometry().rows * subarrays.len()) as u64;
            LogicalOp::RowRead.charge_many(&model, &mut ledger, rows);
            LogicalOp::RowWrite.charge_many(&model, &mut ledger, rows);
            for sa in &subarrays {
                injector.stuck_cell_plan(sa.data_zone_rows(), cols);
            }
        }
        MappedIndex {
            seeds: SeedTable::derive(&index),
            index,
            subarrays,
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

    /// A fresh fault injector seeded from the campaign itself, for
    /// driving [`exact_search`](crate::exact_search) or
    /// [`inexact_search`](crate::inexact_search) by hand. No alignment
    /// draws from it: [`Platform::align_chunk_parallel`](crate::Platform::align_chunk_parallel)
    /// gives every read its own [`MappedIndex::read_injector`].
    pub fn session_injector(&self) -> FaultInjector {
        FaultInjector::new(self.campaign)
    }

    /// A fresh alignment-time injector for globally indexed read
    /// `token`: every aligned read draws from its own decorrelated fault
    /// stream, so faulted output is invariant to the worker count
    /// ([`FaultCampaign::for_read`]).
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
    /// A search does not call this: it extends its interval through
    /// `MappedIndex::step`, which issues one of these per bound, or one
    /// for both when the interval lies inside one word line.
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
        self.lfm_kernel(nt, id, 0, Some(injector), ledger).0
    }

    /// The one `LFM` kernel: every `LFM` of every search is this function
    /// run once. Returns the sum, and the matches in the `span` columns
    /// from `id`'s own on — the `nt`s of `BWT[id .. id + span)`, read from
    /// the mask the `LFM` has sensed anyway: post-sentinel, and under a
    /// campaign the same privately faulted copy the count is taken from
    /// ([`MatchMask::sense`]). A stream's draws are those of its `LFM`s
    /// taken one at a time, in the order they are made (DESIGN.md §15.2).
    fn lfm_kernel(
        &self,
        nt: Base,
        id: usize,
        span: usize,
        mut injector: Option<&mut FaultInjector>,
        ledger: &mut CycleLedger,
    ) -> (u32, u32) {
        assert!(id <= self.index.text_len(), "LFM index {id} out of range");
        let bucket = id / SubArrayLayout::BASES_PER_ROW;
        let within = id % SubArrayLayout::BASES_PER_ROW;
        let s = bucket / 256;
        let lb = bucket % 256;
        // Every sub-array shares one `ArrayModel`.
        let model = self.subarrays[0].model();
        let last = self.subarrays.len() - 1;
        // `id` may equal the text length, landing exactly on a bucket
        // boundary past the last row; the count contribution is then zero
        // and the marker row is the final checkpoint.
        let (count, spanned, marker) = if s > last {
            // The checkpoint bucket holds no BWT row to sense: it can be
            // an interval's `high`, never the `low` of a word-line step.
            debug_assert_eq!(span, 0, "word-line step at the boundary checkpoint");
            // Boundary bucket holds no BWT bases; its marker equals the
            // final checkpoint stored in the last sub-array's next column.
            // The builder always allocates the checkpoint bucket because
            // buckets() = n/d + 1 columns fit in 256 only when the text
            // fills sub-arrays exactly; fall back to the software marker
            // (a local MEM read in hardware).
            LogicalOp::MarkerRead.charge(model, ledger);
            // Heatmap: the checkpoint read activates the final primary
            // sub-array (where the last marker column lives).
            ledger.note_zone_many(last, 1);
            let marker = self.index.marker_table().marker(nt, bucket);
            (0, 0, marker)
        } else {
            let (mask, marker) = self.compare_stage(s, lb, nt, ledger);
            // Heatmap: the XNOR match and the marker read each activate
            // sub-array `s` (the popcount runs in the DPU, not the array).
            ledger.note_zone_many(s, 2);
            LogicalOp::Popcount.charge(model, ledger);
            // Fault injection (DESIGN.md §8) corrupts this `LFM`'s private
            // copy of the mask, never the array.
            let (count, spanned) = mask.sense(within, span, injector.as_deref_mut());
            (count, spanned, marker)
        };
        // `None` without consuming the stream when the carry rate is
        // zero, so an inactive injector is no injector.
        let carry_fault = injector.and_then(FaultInjector::carry_fault_bit);
        let idx = s.min(last);
        match self.method {
            // Heatmap: the in-place add activates the same zone.
            AddMethod::InPlace => ledger.note_zone_many(idx, 1),
            AddMethod::Mirrored => {
                // Operand transfer into the mirror's write port.
                LogicalOp::RowWrite.charge_many(model, ledger, 7);
                // Heatmap: mirror zones are indexed after the primaries
                // (7 operand-transfer writes + the add = 8 activations).
                ledger.note_zone_many(self.subarrays.len() + idx, 8);
            }
        }
        let sum = im_add32(model, marker, count, carry_fault, ledger);
        // The DPU's index registers saturate at N: a sensing fault can
        // inflate the count past the table range, and the controller
        // clamps rather than address outside the mapped region. A no-op
        // under ideal sensing.
        (sum.min(self.index.text_len() as u32), spanned)
    }

    /// The compare stage of `LFM(nt, ·)` on bucket row `lb` of sub-array
    /// `s`: the post-sentinel match mask and the marker. Charges one
    /// `XNOR_Match` and one marker `MEM`.
    fn compare_stage(
        &self,
        s: usize,
        lb: usize,
        nt: Base,
        ledger: &mut CycleLedger,
    ) -> (MatchMask, u32) {
        let sub = &self.subarrays[s];
        // Stack-allocated packed match mask: the whole compare stage runs
        // on [u64; 2] words, no heap traffic per LFM.
        let mut mask = sub.xnor_match(lb, nt, ledger);
        // The 2-bit code space cannot represent `$`, so the sentinel cell
        // is stored with a placeholder code (T). The DPU knows the
        // sentinel's position and masks it out of the match vector before
        // counting.
        let sentinel = self.index.bwt().sentinel_pos();
        if sentinel / SubArrayLayout::BASES_PER_ROW == s * 256 + lb {
            mask.set(sentinel % SubArrayLayout::BASES_PER_ROW, false);
        }
        (mask, sub.read_marker(lb, nt, ledger))
    }

    /// One backward-search step (Algorithm 1 lines 8–10): extends
    /// `[low, high)` by `nt` and leaves the result in `dpu`'s interval
    /// registers. Returns the `LFM`s issued — every search, exact or
    /// inexact, extends its interval here and nowhere else.
    ///
    /// The published step issues `LFM(nt, low)` and `LFM(nt, high)`. When
    /// the interval lies inside one word line — `low` and `high − 1` in
    /// one Occ bucket — the second is `rank(nt, high) = rank(nt, low) +`
    /// the `nt`s of `BWT[low .. high)`, and those are columns
    /// `low % 128 ..= (high − 1) % 128` of the mask `LFM(nt, low)` has
    /// just sensed. So the step issues that one `LFM`, and the DPU's
    /// counter makes `high' = low' + count` from it, saturating at `N`
    /// like every index register: one [`LogicalOp::IndexBump`] beside the
    /// step's usual interval write and, when the span is two columns or
    /// more, one more [`LogicalOp::Popcount`] to count them (one column is
    /// a bit, read as it is sensed). The intervals are those of the
    /// published step, at every step of every search; what changes is the
    /// count — an extension beyond the paper (DESIGN.md §8), whose figures
    /// [`PerfReport::as_published`](crate::PerfReport::as_published)
    /// restores. Nothing selects it but the interval itself.
    ///
    /// Under a fault campaign the one `LFM` draws what one `LFM` draws
    /// (DESIGN.md §15.2), sensing on through `high − 1`'s column.
    pub(crate) fn step(
        &self,
        nt: Base,
        (low, high): (u32, u32),
        dpu: &mut Dpu,
        injector: &mut FaultInjector,
        ledger: &mut CycleLedger,
    ) -> u64 {
        let mut issue = |id: usize, span: usize, ledger: &mut CycleLedger| {
            self.lfm_kernel(nt, id, span, Some(&mut *injector), ledger)
        };
        if one_word_line(low, high) {
            // `low` as its `LFM` returned it, `high` counted on from it
            // over the span — taken before `low` is rebound.
            let span = (high - low) as usize;
            let (low, count) = issue(low as usize, span, ledger);
            let n = self.index.text_len() as u32;
            dpu.set_interval(low, (low + count).min(n), ledger);
            let model = self.subarrays[0].model();
            LogicalOp::IndexBump.charge(model, ledger);
            if span > 1 {
                // On the DPU while the array adds: 16 cycles under 45.
                LogicalOp::Popcount.charge(model, ledger);
            }
            1
        } else {
            let (low, _) = issue(low as usize, 0, ledger);
            let (high, _) = issue(high as usize, 0, ledger);
            dpu.set_interval(low, high, ledger);
            2
        }
    }

    /// The rows of `[low, high)` that hold a base — all but the
    /// sentinel's, whose position the DPU holds and clears from every
    /// match mask. An interval's four extensions split exactly these
    /// between them, a row to the base it holds.
    pub(crate) fn base_rows(&self, (low, high): (u32, u32)) -> u32 {
        let sentinel = self.index.bwt().sentinel_pos() as u32;
        high.saturating_sub(low) - u32::from((low..high).contains(&sentinel))
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
        ledger.note_unissued_steps(k as u64);
        Some(k)
    }

    /// Reads the seed table's entry for `kmer` (read order, `1 ..= k`
    /// bases): the interval that many interval steps from `[0, N)` give.
    /// A `MEM` read of the two boundary words, so no fault is drawn on it
    /// — like [`MappedIndex::locate`]'s. When one of the text's last
    /// `k − 1` suffixes sits on a boundary, the DPU takes it off from the
    /// registers that hold those suffixes: one [`LogicalOp::IndexBump`],
    /// noted as a seed correction.
    pub(crate) fn read_seed(&self, kmer: &[Base], ledger: &mut CycleLedger) -> (u32, u32) {
        let model = self.subarrays[0].model();
        LogicalOp::SeedRead.charge(model, ledger);
        let (interval, corrected) = self.seeds.read(kmer);
        if corrected {
            LogicalOp::IndexBump.charge(model, ledger);
            ledger.note_seed_correction();
        }
        interval
    }

    /// The seed table derived from the index when it was mapped.
    pub fn seed_table(&self) -> &SeedTable {
        &self.seeds
    }

    /// [`MappedIndex::lfm`] once per request, in request order, each
    /// issued to a [`PipelineSim`] stage-queue scheduler at the config's
    /// `Pd`, whose counters are recorded on `ledger`. Kept because
    /// `benchmark/src/trace.rs` compiles against it; until the time model
    /// schedules every issue, it is the one producer of
    /// `breakdown.pipeline`, which alignment runs leave at zero.
    ///
    /// `injectors` is indexed by request `stream`; an empty slice draws no
    /// faults. A stream's draws follow request order.
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
        let mut sim = PipelineSim::new(self.pd, self.pipeline);
        let sums = requests
            .iter()
            .map(|r| {
                let injector = injectors.get_mut(r.stream);
                sim.issue(r.stream);
                self.lfm_kernel(r.nt, r.id, 0, injector, ledger).0
            })
            .collect();
        ledger.record_pipeline(&sim.counters());
        sums
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
    use bioseq::DnaSeq;
    use readsim::genome;

    fn mapped(reference: &DnaSeq, method: AddMethod) -> MappedIndex {
        mapped_under(reference, method, FaultCampaign::none())
    }

    fn mapped_under(reference: &DnaSeq, method: AddMethod, campaign: FaultCampaign) -> MappedIndex {
        let config = match method {
            AddMethod::InPlace => PimAlignerConfig::baseline(),
            AddMethod::Mirrored => PimAlignerConfig::pipelined(),
        };
        MappedIndex::build(
            &reference.to_packed(),
            &config.with_fault_campaign(campaign),
        )
    }

    #[test]
    fn subarray_count_scales_with_genome() {
        let small = mapped(&genome::uniform(1_000, 1), AddMethod::InPlace);
        assert_eq!(small.subarray_count(), 1);
        let big = mapped(&genome::uniform(100_000, 1), AddMethod::InPlace);
        assert_eq!(big.subarray_count(), (100_001usize).div_ceil(32_768));
        // Method-I copies no sub-array.
        assert_eq!(
            big.mapping_ledger().primitives().count(LogicalOp::RowRead),
            0
        );
    }

    #[test]
    fn mirrored_doubles_subarrays() {
        // The hardware copies every row of both sub-arrays, and an add in
        // sub-array 1 activates mirror zone 2 + 1: seven operand writes
        // and the add, beside the compare stage's two activations of
        // zone 1. The host holds no copy.
        let reference = genome::uniform(40_000, 2);
        let m = mapped(&reference, AddMethod::Mirrored);
        let writes = |x: &MappedIndex| x.mapping_ledger().primitives().count(LogicalOp::RowWrite);
        let in_place = writes(&mapped(&reference, AddMethod::InPlace));
        assert_eq!(writes(&m), in_place + 2 * 512);
        assert_eq!(
            m.mapping_ledger().primitives().count(LogicalOp::RowRead),
            2 * 512
        );
        let mut ledger = CycleLedger::new();
        m.lfm(Base::A, 33_000, &mut m.session_injector(), &mut ledger);
        assert_eq!(ledger.zone_activations(), &[0, 2, 0, 8]);
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

    /// Steps `[low, high)` by `nt` from fresh registers; returns the
    /// interval left in the DPU, the `LFM`s issued and the ledger.
    fn step_once(
        m: &MappedIndex,
        nt: Base,
        interval: (u32, u32),
        injector: &mut FaultInjector,
    ) -> ((u32, u32), u64, CycleLedger) {
        let mut dpu = Dpu::new(m.model());
        let mut ledger = CycleLedger::new();
        let issued = m.step(nt, interval, &mut dpu, injector, &mut ledger);
        ((dpu.low(), dpu.high()), issued, ledger)
    }

    #[test]
    fn word_line_step_matches_software_oracle_at_the_edges() {
        for method in [AddMethod::InPlace, AddMethod::Mirrored] {
            // Three sub-arrays, the last row partial (70 001 = 546 · 128
            // + 113); and a text that fills two sub-arrays exactly, so
            // that `high = n` is the boundary checkpoint bucket.
            for len in [70_000, 65_535] {
                let m = mapped(&genome::uniform(len, 3), method);
                let oracle = m.index();
                let n = oracle.text_len() as u32;
                let lfm = |nt, id: u32| oracle.marker_table().lfm(oracle.bwt(), nt, id as usize);
                let mut clean = m.session_injector();
                let sentinel = oracle.bwt().sentinel_pos() as u32;
                let line = |id: u32| id / 128 * 128;
                // `(low, span)`: spans of 1, 2, 64, 127 and 128 columns
                // from column 0, the last ending on the word line's edge;
                // from column 127, one column to the edge and two across
                // it; a sub-array's last column, a span across into the
                // next sub-array and that one's first word line; the
                // sentinel's row and its word line; the text's last row
                // and last word line, `high = n`.
                let cases = [
                    (0, 1),
                    (0, 2),
                    (0, 64),
                    (0, 127),
                    (0, 128),
                    (127, 1),
                    (127, 2),
                    (32_767, 1),
                    (32_700, 100),
                    (32_768, 128),
                    (sentinel, 1),
                    (line(sentinel), (n - line(sentinel)).min(128)),
                    (n - 1, 1),
                    (line(n - 1), n - line(n - 1)),
                ];
                for (low, span) in cases {
                    let high = low + span;
                    let across = line(low) != line(high - 1);
                    let mut extended = 0;
                    for nt in Base::ALL {
                        let (interval, issued, ledger) = step_once(&m, nt, (low, high), &mut clean);
                        let at = format!("{nt} at [{low}, {high})");
                        assert_eq!(interval, (lfm(nt, low), lfm(nt, high)), "{at}");
                        extended += interval.1 - interval.0;
                        let prims = ledger.primitives();
                        // A mirrored add pays a 7-cycle transfer per `LFM`.
                        let transfer = if method == AddMethod::Mirrored { 7 } else { 0 };
                        if across {
                            // The published pair and the interval write,
                            // 74 + 74 + 2 cycles, and no bump.
                            assert_eq!(issued, 2, "{at}");
                            for (op, count) in [
                                (LogicalOp::XnorMatch, 2),
                                (LogicalOp::Popcount, 2),
                                (LogicalOp::MarkerRead, 2),
                                (LogicalOp::ImAdd32, 2),
                                (LogicalOp::IndexUpdate, 1),
                                (LogicalOp::IndexBump, 0),
                            ] {
                                assert_eq!(prims.count(op), count, "{op:?}, {at}");
                            }
                            assert_eq!(prims.cycles(LogicalOp::RowWrite), 2 * transfer, "{at}");
                            assert_eq!(ledger.total_busy_cycles(), 150 + 2 * transfer, "{at}");
                            continue;
                        }
                        // One published `LFM`, the interval write, the
                        // bump: 74 + 2 + 2 cycles, 76 in the time model.
                        // Two columns or more are counted by a second
                        // popcount, in the shadow of the add.
                        assert_eq!(issued, 1, "{at}");
                        let counted = u64::from(span > 1);
                        for (op, count) in [
                            (LogicalOp::XnorMatch, 1),
                            (LogicalOp::Popcount, 1 + counted),
                            (LogicalOp::MarkerRead, 1),
                            (LogicalOp::ImAdd32, 1),
                            (LogicalOp::IndexUpdate, 1),
                            (LogicalOp::IndexBump, 1),
                        ] {
                            assert_eq!(prims.count(op), count, "{op:?}, {at}");
                        }
                        assert_eq!(prims.cycles(LogicalOp::RowWrite), transfer, "{at}");
                        assert_eq!(ledger.total_busy_cycles(), 78 + 16 * counted + transfer);
                    }
                    // The four extensions split the rows that hold a base:
                    // all but the sentinel's (stored as a placeholder `T`,
                    // cleared from the mask before it is counted).
                    let rows = span - u32::from((low..high).contains(&sentinel));
                    assert_eq!(extended, rows, "[{low}, {high})");
                    assert_eq!(m.base_rows((low, high)), rows, "[{low}, {high})");
                }
            }
        }
    }

    #[test]
    fn word_line_step_draws_what_one_lfm_draws() {
        // Every decision fires, so the counters count the decisions: a
        // misread draw per column sensed, a transient and a carry
        // decision per `LFM`.
        let config = PimAlignerConfig::baseline().with_fault_campaign(
            FaultCampaign::seeded(5)
                .with_xnor_misread_prob(1.0)
                .with_transient_row_rate(1.0)
                .with_carry_fault_prob(1.0),
        );
        let m = MappedIndex::build(&genome::uniform(40_000, 9).to_packed(), &config);
        // Inside a word line: one column, two, to the edge, a whole line,
        // and column 127 alone. Across one: from column 127, and from 44.
        let cases = [
            (300u32, 1),
            (300, 2),
            (300, 84),
            (256, 128),
            (33_023, 1),
            (33_023, 5),
            (300, 100),
        ];
        for (low, span) in cases {
            let mut injector = m.read_injector(7);
            let high = low + span;
            let (_, issued, _) = step_once(&m, Base::G, (low, high), &mut injector);
            let within = |id: u32| u64::from(id) % 128;
            let (lfms, columns) = if low / 128 == (high - 1) / 128 {
                // The `within` columns counted, then the span's.
                (1, within(low) + u64::from(span))
            } else {
                (2, within(low) + within(high))
            };
            assert_eq!(issued, lfms);
            let drawn = injector.counters();
            assert_eq!(drawn.xnor_bit_flips, columns, "[{low}, {high})");
            assert_eq!(drawn.transient_row_faults, lfms, "[{low}, {high})");
            assert_eq!(drawn.carry_faults, lfms, "[{low}, {high})");
        }
    }
}
