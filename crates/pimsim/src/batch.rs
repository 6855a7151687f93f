//! The interleaved multi-read LFM batch kernel.
//!
//! A single-read `LFM` step pays one `XNOR_Match` row read and one
//! marker read per call, even when several queued reads interrogate the
//! *same* bucket of the same sub-array in the same step — the plane
//! load produces the full 128-bit match vector either way, and the
//! marker word is a pure function of `(bucket, base)`. [`LfmBatch`]
//! exploits that: it collects R reads' concurrent LFM requests against
//! one sub-array in struct-of-arrays form, deduplicates them into
//! `(bucket, base)` *groups*, and charges/executes the shared compare
//! stage (`XNOR_Match`, sentinel masking, marker read) once per group
//! instead of once per request. Per-request work — the popcount over
//! the request's own prefix, its fault injection, its `IM_ADD` — stays
//! per request, downstream of the shared masks.
//!
//! Fault draw-order contract: the shared compare stage is fault-free
//! plane data (faults model the per-read *sensing* of that data), so
//! the batch applies each request's transient-burst and sense-misread
//! draws to a private copy of its group mask, **in request push order**.
//! A read whose low and high requests were pushed in that order
//! therefore consumes its injector stream in exactly the single-read
//! call sequence, whatever groups the batch formed around it.

use bioseq::Base;

use crate::cache::KernelCache;
use crate::costs::LogicalOp;
use crate::faults::FaultInjector;
use crate::ledger::CycleLedger;
use crate::subarray::{MatchMask, SubArray};

/// A batch of interleaved LFM compare-stage requests against one
/// sub-array, struct-of-arrays: parallel vectors indexed by request.
#[derive(Debug, Clone, Default)]
pub struct LfmBatch {
    /// Read stream each request belongs to (indexes the caller's
    /// per-read injector table).
    streams: Vec<usize>,
    /// Local bucket row of each request.
    buckets: Vec<usize>,
    /// Query base of each request.
    bases: Vec<Base>,
    /// Popcount prefix limit of each request (`id % 128`).
    withins: Vec<usize>,
    /// Group index of each request (filled by
    /// [`LfmBatch::run_compare`]).
    group_of: Vec<usize>,
    /// Whether the request is its group's first occurrence — the one
    /// that physically pays the plane load.
    leaders: Vec<bool>,
    /// Per-group key, in first-occurrence order.
    group_keys: Vec<(usize, Base)>,
    /// Per-group shared match mask (sentinel already cleared).
    masks: Vec<MatchMask>,
    /// Per-group marker word.
    markers: Vec<u32>,
}

impl LfmBatch {
    /// An empty batch.
    pub fn new() -> LfmBatch {
        LfmBatch::default()
    }

    /// Empties the batch for reuse, keeping every vector's capacity (the
    /// hot batched-kernel path recycles one `LfmBatch` per sub-array
    /// across calls instead of reallocating nine vectors each step).
    pub fn clear(&mut self) {
        self.streams.clear();
        self.buckets.clear();
        self.bases.clear();
        self.withins.clear();
        self.group_of.clear();
        self.leaders.clear();
        self.group_keys.clear();
        self.masks.clear();
        self.markers.clear();
    }

    /// Queues one request; returns its request index. Push order is the
    /// fault draw order — push a read's low request before its high
    /// request.
    ///
    /// # Panics
    ///
    /// Panics if `within > 128` or the compare stage already ran.
    pub fn push(&mut self, stream: usize, bucket: usize, base: Base, within: usize) -> usize {
        assert!(within <= MatchMask::BITS, "prefix limit out of range");
        assert!(self.masks.is_empty(), "batch already executed");
        self.streams.push(stream);
        self.buckets.push(bucket);
        self.bases.push(base);
        self.withins.push(within);
        self.streams.len() - 1
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// `true` when no request is queued.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Number of `(bucket, base)` groups formed (0 before
    /// [`LfmBatch::run_compare`]).
    pub fn group_count(&self) -> usize {
        self.group_keys.len()
    }

    /// The read stream of request `i`.
    pub fn stream(&self, i: usize) -> usize {
        self.streams[i]
    }

    /// The prefix limit of request `i`.
    pub fn within(&self, i: usize) -> usize {
        self.withins[i]
    }

    /// Whether request `i` paid its group's plane load (the first
    /// occurrence of its `(bucket, base)` key).
    pub fn is_leader(&self, i: usize) -> bool {
        self.leaders[i]
    }

    /// The shared (clean) match mask of request `i`'s group.
    pub fn mask(&self, i: usize) -> &MatchMask {
        &self.masks[self.group_of[i]]
    }

    /// The marker word of request `i`'s group.
    pub fn marker(&self, i: usize) -> u32 {
        self.markers[self.group_of[i]]
    }

    /// Executes the shared compare stage: deduplicates the queued
    /// requests into `(bucket, base)` groups (first-occurrence order)
    /// and, once per group, charges + performs the `XNOR_Match` plane
    /// load, clears the sentinel column (`sentinel` = the sentinel's
    /// `(bucket, column)` when it lives in this sub-array), and reads
    /// the marker word. Returns the group count.
    ///
    /// `cache` is the optional rank-checkpoint cache, tagged with this
    /// sub-array's global index (`subarray_tag`). A hit skips the plane
    /// load and the 32-row marker gather on the *host* but charges the
    /// platform the exact `XNOR_Match` + marker-read sequence the
    /// recompute pays — masks, markers, every ledger field and the
    /// fault draw order are byte-identical with and without the cache,
    /// pinned by test.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn run_compare(
        &mut self,
        sub: &SubArray,
        sentinel: Option<(usize, usize)>,
        mut cache: Option<&mut KernelCache>,
        subarray_tag: u32,
        ledger: &mut CycleLedger,
    ) -> usize {
        assert!(
            self.masks.is_empty() && self.group_of.is_empty(),
            "batch already executed"
        );
        for i in 0..self.streams.len() {
            let key = (self.buckets[i], self.bases[i]);
            // Batches are small (≤ a few dozen groups); a linear key
            // scan beats hashing here.
            let existing = self.group_keys.iter().position(|&k| k == key);
            let group = match existing {
                Some(g) => g,
                None => {
                    let cached = cache
                        .as_deref()
                        .and_then(|c| c.lookup(subarray_tag, key.0, key.1.rank()));
                    let (mask, marker) = match cached {
                        Some((words, marker)) => {
                            // Same charges, same order, as the miss path
                            // below (XNOR_Match inside xnor_match, then
                            // the marker MEM read) — only host work is
                            // skipped.
                            ledger.note_kernel_cache_hit();
                            LogicalOp::XnorMatch.charge(sub.model(), ledger);
                            LogicalOp::MarkerRead.charge(sub.model(), ledger);
                            (MatchMask(words), marker)
                        }
                        None => {
                            let mut mask = sub.xnor_match(key.0, key.1, ledger);
                            if let Some((bucket, col)) = sentinel {
                                if bucket == key.0 {
                                    mask.set(col, false);
                                }
                            }
                            let marker = sub.read_marker(key.0, key.1, ledger);
                            if let Some(c) = cache.as_deref_mut() {
                                ledger.note_kernel_cache_miss();
                                if c.insert(subarray_tag, key.0, key.1.rank(), mask.0, marker) {
                                    ledger.note_kernel_cache_eviction();
                                }
                            }
                            (mask, marker)
                        }
                    };
                    self.group_keys.push(key);
                    self.masks.push(mask);
                    self.markers.push(marker);
                    self.group_keys.len() - 1
                }
            };
            self.leaders.push(existing.is_none());
            self.group_of.push(group);
        }
        self.group_keys.len()
    }

    /// Per-request count stage over an executed batch: for each request
    /// in push order, charges one popcount and counts the set bits in
    /// its prefix — through a privately faulted copy of the group mask
    /// when the request's injector is active (transient burst first,
    /// then per-bit misreads, exactly the single-read draw order).
    /// `injectors` is indexed by request stream; pass an empty slice
    /// when the campaign is inactive.
    ///
    /// # Panics
    ///
    /// Panics if the compare stage has not run.
    pub fn counts(
        &self,
        sub: &SubArray,
        injectors: &mut [FaultInjector],
        ledger: &mut CycleLedger,
    ) -> Vec<u32> {
        assert_eq!(
            self.group_of.len(),
            self.streams.len(),
            "compare stage has not run"
        );
        (0..self.streams.len())
            .map(|i| {
                LogicalOp::Popcount.charge(sub.model(), ledger);
                let shared = &self.masks[self.group_of[i]];
                match injectors.get_mut(self.streams[i]) {
                    Some(injector) if injector.is_active() => {
                        let mut mask = *shared;
                        injector.transient_row_mask(&mut mask);
                        injector.corrupt_match_mask(&mut mask, self.withins[i]);
                        mask.count_prefix(self.withins[i])
                    }
                    _ => shared.count_prefix(self.withins[i]),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mram::array::ArrayModel;
    use mram::faults::{FaultCampaign, FaultModel};

    /// A sub-array with a few recognisable BWT rows loaded.
    fn loaded_subarray() -> (SubArray, CycleLedger) {
        let mut sub = SubArray::new(ArrayModel::default());
        let mut ledger = CycleLedger::new();
        for bucket in 0..4 {
            let codes: Vec<u8> = (0..128).map(|c| ((c + bucket) % 4) as u8).collect();
            sub.load_bwt_row(bucket, &codes, &mut ledger);
        }
        sub.load_cref_rows(&mut ledger);
        (sub, CycleLedger::new())
    }

    fn bases() -> [Base; 4] {
        [Base::A, Base::C, Base::G, Base::T]
    }

    #[test]
    fn grouped_compare_matches_single_calls() {
        let (sub, mut ledger) = loaded_subarray();
        let mut batch = LfmBatch::new();
        // 8 streams hammering 3 distinct (bucket, base) keys.
        let schedule = [
            (0, 1, Base::A, 17),
            (1, 1, Base::A, 90),
            (2, 2, Base::C, 5),
            (3, 1, Base::A, 128),
            (4, 2, Base::C, 64),
            (5, 3, Base::T, 33),
            (6, 1, Base::A, 1),
            (7, 3, Base::T, 127),
        ];
        for &(s, bucket, base, within) in &schedule {
            batch.push(s, bucket, base, within);
        }
        assert_eq!(batch.run_compare(&sub, None, None, 0, &mut ledger), 3);
        assert_eq!(batch.group_count(), 3);
        let counts = batch.counts(&sub, &mut [], &mut ledger);
        let mut single_ledger = CycleLedger::new();
        for (i, &(s, bucket, base, within)) in schedule.iter().enumerate() {
            assert_eq!(batch.stream(i), s);
            let mask = sub.xnor_match(bucket, base, &mut single_ledger);
            assert_eq!(batch.mask(i), &mask, "request {i}");
            assert_eq!(
                batch.marker(i),
                sub.read_marker(bucket, base, &mut single_ledger)
            );
            assert_eq!(counts[i], mask.count_prefix(within), "request {i}");
        }
        // Leaders are exactly the first occurrences.
        let leaders: Vec<bool> = (0..schedule.len()).map(|i| batch.is_leader(i)).collect();
        assert_eq!(
            leaders,
            [true, false, true, false, false, true, false, false]
        );
        // The plane loads were charged once per group, not per request.
        let prims = ledger.primitives();
        assert_eq!(prims.count(LogicalOp::XnorMatch), 3);
        assert_eq!(prims.count(LogicalOp::MarkerRead), 3);
        assert_eq!(prims.count(LogicalOp::Popcount), 8);
    }

    #[test]
    fn sentinel_cleared_once_for_the_whole_group() {
        let (sub, mut ledger) = loaded_subarray();
        let mut batch = LfmBatch::new();
        batch.push(0, 1, Base::C, 128);
        batch.push(1, 1, Base::C, 128);
        batch.run_compare(&sub, Some((1, 40)), None, 0, &mut ledger);
        assert!(!batch.mask(0).get(40), "sentinel column must read 0");
        let mut reference = sub.xnor_match(1, Base::C, &mut ledger);
        reference.set(40, false);
        assert_eq!(batch.mask(1), &reference);
        // A sentinel in a different bucket leaves the mask untouched.
        let mut other = LfmBatch::new();
        other.push(0, 2, Base::G, 128);
        other.run_compare(&sub, Some((1, 40)), None, 0, &mut ledger);
        assert_eq!(other.mask(0), &sub.xnor_match(2, Base::G, &mut ledger));
    }

    #[test]
    fn per_stream_faults_follow_push_order() {
        // Request order (stream 0 low, stream 0 high interleaved with
        // stream 1) must consume each stream's injector exactly as the
        // equivalent single-read call sequence would.
        let campaign = FaultCampaign::seeded(77)
            .with_model(FaultModel::with_probabilities(0.05, 0.0))
            .with_transient_row_rate(0.2);
        let (sub, mut ledger) = loaded_subarray();
        let mut batch = LfmBatch::new();
        let schedule = [
            (0, 1, Base::A, 100),
            (1, 1, Base::A, 70),
            (0, 2, Base::A, 50),
        ];
        for &(s, bucket, base, within) in &schedule {
            batch.push(s, bucket, base, within);
        }
        batch.run_compare(&sub, None, None, 0, &mut ledger);
        let mut injectors = [
            FaultInjector::new(campaign.for_read(0)),
            FaultInjector::new(campaign.for_read(1)),
        ];
        let batched = batch.counts(&sub, &mut injectors, &mut ledger);

        // Oracle: per-stream single-read replay in the same per-stream
        // order.
        let mut oracle = [
            FaultInjector::new(campaign.for_read(0)),
            FaultInjector::new(campaign.for_read(1)),
        ];
        let mut expected = Vec::new();
        for &(s, bucket, base, within) in &schedule {
            let mut mask = sub.xnor_match(bucket, base, &mut ledger);
            oracle[s].transient_row_mask(&mut mask);
            oracle[s].corrupt_match_mask(&mut mask, within);
            expected.push(mask.count_prefix(within));
        }
        assert_eq!(batched, expected);
        for s in 0..2 {
            assert_eq!(injectors[s].counters(), oracle[s].counters());
        }
    }

    #[test]
    fn cached_compare_is_cycle_and_bit_identical_to_uncached() {
        let (sub, _) = loaded_subarray();
        let schedule = [
            (0, 1, Base::A, 17),
            (1, 2, Base::C, 90),
            (2, 1, Base::A, 128),
            (3, 3, Base::T, 64),
        ];
        let sentinel = Some((1, 40));
        let mut cache = KernelCache::new();
        // Two passes through the same keys: the first misses and
        // installs, the second hits every group.
        for pass in 0..2 {
            let mut plain_ledger = CycleLedger::new();
            let mut plain_batch = LfmBatch::new();
            let mut cached_ledger = CycleLedger::new();
            let mut cached_batch = LfmBatch::new();
            for &(s, bucket, base, within) in &schedule {
                plain_batch.push(s, bucket, base, within);
                cached_batch.push(s, bucket, base, within);
            }
            plain_batch.run_compare(&sub, sentinel, None, 0, &mut plain_ledger);
            cached_batch.run_compare(&sub, sentinel, Some(&mut cache), 0, &mut cached_ledger);
            let plain_counts = plain_batch.counts(&sub, &mut [], &mut plain_ledger);
            let cached_counts = cached_batch.counts(&sub, &mut [], &mut cached_ledger);
            for i in 0..schedule.len() {
                assert_eq!(plain_batch.mask(i), cached_batch.mask(i), "pass {pass}");
                assert_eq!(plain_batch.marker(i), cached_batch.marker(i));
            }
            assert_eq!(plain_counts, cached_counts, "pass {pass}");
            // Every simulated charge — cycles, energy, primitives —
            // is byte-identical; only the host-side cache counters
            // differ between the ledgers.
            assert_eq!(plain_ledger, cached_ledger);
            let cc = cached_ledger.kernel_cache_counters();
            if pass == 0 {
                assert_eq!((cc.hits, cc.misses), (0, 3), "3 distinct groups install");
            } else {
                assert_eq!((cc.hits, cc.misses), (3, 0), "second pass all hits");
            }
            assert_eq!(cc.evictions, 0);
            assert_eq!(plain_ledger.kernel_cache_counters().lookups(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "already executed")]
    fn double_execution_panics() {
        let (sub, mut ledger) = loaded_subarray();
        let mut batch = LfmBatch::new();
        batch.push(0, 0, bases()[0], 10);
        batch.run_compare(&sub, None, None, 0, &mut ledger);
        batch.run_compare(&sub, None, None, 0, &mut ledger);
    }

    #[test]
    #[should_panic(expected = "compare stage has not run")]
    fn counts_before_compare_panics() {
        let (sub, mut ledger) = loaded_subarray();
        let mut batch = LfmBatch::new();
        batch.push(0, 0, bases()[0], 10);
        let _ = batch.counts(&sub, &mut [], &mut ledger);
    }
}
