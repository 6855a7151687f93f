//! Inexact alignment-in-memory (paper Algorithm 2) with DPU-controlled
//! backtracking.
//!
//! "To handle one and two mismatch alignment based on input-z, we exploit
//! an additional control logic (in DPU) to perform bi-directional
//! backtracking. For each allowed mismatch, DPU's registers store the
//! state (i.e. symbol, low and high)." The search is implemented as an
//! explicit DFS over the DPU's backtracking register file — the hardware
//! form of `fmindex`'s recursive Algorithm 2 — and is tested for
//! interval-exact agreement with that software oracle.
//!
//! The DFS issues an `LFM` only for an alternative the answer could need
//! (DESIGN.md §5):
//!
//! * a greedy right-to-left exact pass first cuts the read into disjoint
//!   substrings that do not occur in the reference. Each needs at least
//!   one difference, so `d[i]` — the number of them inside `read[0..=i]`
//!   — bounds from below what aligning that prefix costs, and a state
//!   with fewer differences left than `d[i]` is never created;
//! * a visited state issues only its match continuation and saves itself
//!   in the register file; its insertion, deletion and substitution
//!   children are expanded when the DFS backtracks into that frame, and
//!   only if the bound leaves them a budget;
//! * the four extensions of a frame's interval split its rows, so once
//!   the match continuation and the alternatives issued so far hold them
//!   all, the remaining alternatives are empty and are not issued — at a
//!   one-row frame whose match continued, none is;
//! * first-accept mode searches in rounds of growing budget, from the
//!   number of absent substrings up to `z` ("one and two mismatch …
//!   based on input-z"), so the hit it returns is a minimum-difference
//!   one and a cheap answer is never preceded by the neighbourhood of a
//!   dearer one. When a round fails, the substrings — minimal on the
//!   left only — are trimmed on the right before the next round, which
//!   takes the slack away from the 3' end, where intervals are widest;
//! * the first segment of the bound pass is the pure-match descent every
//!   round starts with, and it is the walk stage 1 has just failed on:
//!   the aligner hands that descent over, the bound pass starts where it
//!   broke, and each round re-creates its frames without issuing an
//!   `LFM`. Beyond the paper, a descent starts from the seed table's
//!   interval for the next `k` bases where it can (`MappedIndex::start`)
//!   and holds no interval for the depths that skipped: a round reads
//!   from the table those of the frames it saves there;
//! * when the descent broke deep in the read, the difference is almost
//!   surely at the break, so first-accept mode tries the break frame's
//!   one-difference alternatives before it pays for the rest of the
//!   bound pass.

use std::collections::HashMap;

use bioseq::{Base, DnaSeq};
use fmindex::{EditBudget, InexactHit, SaInterval};
use pimsim::{BacktrackState, CycleLedger, Dpu, FaultInjector};

use crate::exact::Descent;
use crate::mapping::MappedIndex;

/// Statistics of one inexact search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InexactStats {
    /// `LFM` invocations issued, the lower-bound pass included.
    pub lfm_calls: u64,
    /// Backtracking states explored.
    pub states_explored: u64,
    /// Peak DPU register-file depth: the most deferred frames live at
    /// once.
    pub max_stack_depth: usize,
}

/// One search state: `read[0..=i]` is still to be aligned with `z`
/// differences left, and `[low, high)` is the interval of what has been
/// consumed so far.
#[derive(Debug, Clone, Copy)]
struct Frame {
    i: isize,
    z: i16,
    low: u32,
    high: u32,
}

/// One entry of the DFS stack.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// A state to visit.
    Visit(Frame),
    /// A visited state whose alternatives to the match continuation are
    /// not expanded yet, mirrored by one saved [`BacktrackState`]. Beside
    /// it, the match continuation's interval (if not empty): the deletion
    /// child of `read[i]`'s own base starts from it.
    Deferred(Frame, Option<(u32, u32)>),
}

/// Runs Algorithm 2 on the platform exhaustively: finds **all** SA
/// intervals matching `read` with at most `budget.max_diffs()`
/// differences, driving every interval update through the in-memory
/// `LFM` procedure and the DPU state registers.
///
/// Hits are deduplicated per interval (minimum difference count) and
/// sorted `(diffs, interval)`, matching the software oracle's contract.
///
/// Exhaustive enumeration is the oracle mode; the production alignment
/// path uses [`inexact_search_first`], which mirrors the hardware's
/// bounded backtracking.
pub fn inexact_search(
    mapped: &MappedIndex,
    injector: &mut FaultInjector,
    dpu: &mut Dpu,
    read: &DnaSeq,
    budget: EditBudget,
    ledger: &mut CycleLedger,
) -> (Vec<InexactHit>, InexactStats) {
    inexact_search_from(
        mapped,
        injector,
        dpu,
        read,
        budget,
        true,
        &mut Descent::new(),
        ledger,
    )
}

/// First-accept variant of Algorithm 2: depth-first with the match
/// branch explored first, one round per difference budget from the
/// fewest the read can need up to `budget.max_diffs()`, returning as
/// soon as one full-length interval is found. This is the
/// hardware-faithful production mode — the DPU's small register file
/// bounds the backtracking, and the paper's platform reports hits as
/// they are located rather than enumerating the entire edit
/// neighbourhood.
///
/// The returned hit (if any) is a member of the exhaustive hit set with
/// the minimum difference count of that set: the first one the DFS
/// meets at the smallest budget that has any.
pub fn inexact_search_first(
    mapped: &MappedIndex,
    injector: &mut FaultInjector,
    dpu: &mut Dpu,
    read: &DnaSeq,
    budget: EditBudget,
    ledger: &mut CycleLedger,
) -> (Option<InexactHit>, InexactStats) {
    let (hits, stats) = inexact_search_from(
        mapped,
        injector,
        dpu,
        read,
        budget,
        false,
        &mut Descent::new(),
        ledger,
    );
    (hits.first().copied(), stats)
}

/// Both searches behind one entry that takes the read's match descent:
/// [`inexact_search`] when `exhaustive`, else [`inexact_search_first`]
/// (no hit or one). A `descent` that is not empty is the exact stage's
/// ([`crate::exact::exact_search_recorded`]) for this very read: the
/// search starts where it ends and issues no `LFM`, interval write or
/// fault draw for the bases it covers, so `InexactStats::lfm_calls` is
/// smaller by that stage's count and everything else is the same search.
/// An empty `descent` is filled by the search's own walk.
#[allow(clippy::too_many_arguments)]
pub(crate) fn inexact_search_from(
    mapped: &MappedIndex,
    injector: &mut FaultInjector,
    dpu: &mut Dpu,
    read: &DnaSeq,
    budget: EditBudget,
    exhaustive: bool,
    descent: &mut Descent,
    ledger: &mut CycleLedger,
) -> (Vec<InexactHit>, InexactStats) {
    let mut search = Search::new(mapped, injector, dpu, read, budget, descent, ledger);
    let hits = if exhaustive {
        let mut best: HashMap<SaInterval, u8> = HashMap::new();
        if search.lower_bound().is_some() {
            search.start_round(budget.max_diffs(), Saved::All);
            while let Some(hit) = search.next_hit() {
                best.entry(hit.interval)
                    .and_modify(|least| *least = (*least).min(hit.diffs))
                    .or_insert(hit.diffs);
            }
        }
        sorted_hits(best)
    } else {
        search.first_hit().into_iter().collect()
    };
    (hits, search.stats)
}

/// Which frames of the match descent a round's replay saves in the
/// register file, to expand when the DFS backtracks into them. The break
/// frame is the descent's last: the state whose match did not continue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Saved {
    All,
    /// [`Search::first_hit`] tries the break frame ahead of the round…
    BreakOnly,
    /// …and the round it belongs to leaves it out.
    AllButBreak,
}

/// One search: the platform handles it drives, the read, and the DFS
/// state. The buffers live as long as the search, whatever the number of
/// rounds.
struct Search<'a> {
    mapped: &'a MappedIndex,
    injector: &'a mut FaultInjector,
    dpu: &'a mut Dpu,
    ledger: &'a mut CycleLedger,
    read: &'a DnaSeq,
    budget: EditBudget,
    /// `[0, n)` is the interval of the empty string.
    n: u32,
    /// The disjoint substrings `read[s..e)` absent from the reference,
    /// as `(s, e)`, rightmost first; see [`Search::lower_bound`].
    absent: Vec<(usize, usize)>,
    /// The difference lower bound: how many of `absent` lie inside
    /// `read[0..=i]`.
    d: Vec<i16>,
    /// The pure-match descent from the read's last base — the exact
    /// stage's, or this search's own ([`Search::descent`]): `path[j]` is
    /// the interval of the read's last `j` bases, up to the first one
    /// that does not extend (or the whole read). The caller's buffer.
    path: &'a mut Descent,
    /// Every `Frame` on it satisfies `z >= bound(i)`.
    stack: Vec<Entry>,
    /// The budget of the round in progress.
    round: u8,
    stats: InexactStats,
}

impl<'a> Search<'a> {
    fn new(
        mapped: &'a MappedIndex,
        injector: &'a mut FaultInjector,
        dpu: &'a mut Dpu,
        read: &'a DnaSeq,
        budget: EditBudget,
        path: &'a mut Descent,
        ledger: &'a mut CycleLedger,
    ) -> Search<'a> {
        Search {
            n: mapped.index().text_len() as u32,
            mapped,
            injector,
            dpu,
            ledger,
            read,
            budget,
            absent: Vec::new(),
            d: Vec::new(),
            path,
            stack: Vec::new(),
            round: 0,
            stats: InexactStats::default(),
        }
    }

    /// Extends `[low, high)` backward by `b`, one interval step
    /// ([`MappedIndex::step`]): two `LFM`s, or one on an interval inside
    /// one word line, and the interval write. `None` when nothing in the
    /// reference continues that way.
    fn extend(&mut self, b: Base, low: u32, high: u32) -> Option<(u32, u32)> {
        self.stats.lfm_calls +=
            self.mapped
                .step(b, (low, high), self.dpu, self.injector, None, self.ledger);
        (!self.dpu.interval_empty()).then_some((self.dpu.low(), self.dpu.high()))
    }

    /// Makes the match descent from the read's last base, unless the
    /// exact stage handed its own over: the `LFM`s Algorithm 1 issues,
    /// kept in `path`. Returns the base the descent broke at — extending
    /// by `read[i]` left nothing — or `None` if the whole read matched.
    fn descent(&mut self) -> Option<usize> {
        if self.path.is_empty() {
            self.first_absent_before(self.read.len(), true);
        }
        debug_assert!(self.path.matched() <= self.read.len());
        self.read.len().checked_sub(self.path.matched() + 1)
    }

    /// One greedy right-to-left exact pass (`m` interval steps, so at
    /// most `2·m` `LFM`s, the descent's included) that cuts the read into
    /// the disjoint substrings `absent`, none of which occurs in the
    /// reference, and fills `d` from them. An alignment spends at least
    /// one substitution, insertion or deletion inside each, so
    /// `read[0..=i]` cannot be aligned with fewer than `d[i]` differences,
    /// nor the read with fewer than the number of substrings, which is
    /// returned.
    ///
    /// Returns `None` as soon as more substrings are found than the
    /// budget has differences: the whole read is then out of reach and
    /// the pass stops there.
    ///
    /// Up to its first failure the pass is the match descent of the DFS
    /// itself, so it starts where [`Search::descent`] broke.
    fn lower_bound(&mut self) -> Option<u8> {
        // read[i..end) is the substring being extended leftward, and
        // `broke` the base it turned out absent at.
        let mut end = self.read.len();
        let mut broke = self.descent();
        while let Some(i) = broke {
            if self.absent.len() == self.budget.max_diffs() as usize {
                return None;
            }
            self.absent.push((i, end));
            end = i;
            broke = self.first_absent_before(end, false);
        }
        self.count_absent();
        Some(self.absent.len() as u8)
    }

    /// Starts a descent of `read[..end]` and extends it leftward, keeping
    /// the intervals in `path` if `record`; returns the first base that
    /// does not extend, if one does not. Where the seed table has nothing
    /// for the first `k` bases the walk from `[0, N)` finds which of them
    /// it is.
    fn first_absent_before(&mut self, end: usize, record: bool) -> Option<usize> {
        let ahead = &self.read.as_slice()[..end];
        let depth = self.mapped.start(ahead, self.dpu, self.ledger).unwrap_or(0);
        let mut interval = (self.dpu.low(), self.dpu.high());
        if record {
            self.path.restart(self.n, depth, interval);
        }
        for i in (0..end - depth).rev() {
            interval = match self.extend(self.read[i], interval.0, interval.1) {
                Some(next) => next,
                None => return Some(i),
            };
            if record {
                self.path.push(interval);
            }
        }
        None
    }

    /// Fills `d` from `absent`: a substring `read[s..e)` counts from
    /// `e − 1` on.
    fn count_absent(&mut self) {
        self.d.clear();
        self.d.resize(self.read.len(), 0);
        for &(_, end) in &self.absent {
            self.d[end - 1] = 1;
        }
        let mut inside = 0;
        for slot in &mut self.d {
            inside += *slot;
            *slot = inside;
        }
    }

    /// The length an absent substring is trimmed to, `⌈log₄ n⌉ + 6`: a
    /// string that long which was not taken from the reference occurs in
    /// it by chance about once in 4⁶ times, so what made the substring
    /// absent almost always keeps its first `L` bases absent.
    fn trimmed_len(&self) -> usize {
        let log4 = (u32::BITS - (self.n.max(2) - 1).leading_zeros()).div_ceil(2);
        log4 as usize + 6
    }

    /// Trims the absent substrings on the right. The bound pass extends
    /// leftward, so `read[s..e)` is minimal on the left only, and it
    /// counts in `d` from `e − 1` — the first one from the read's last
    /// base, although what makes it absent is typically next to `s`.
    /// Each substring longer than [`Search::trimmed_len`] is re-tested
    /// as its first `L` bases with one more backward pass (a descent of
    /// `L` bases, at most `2·L` `LFM`s) and, if those are absent too,
    /// replaced by them, which moves its count down to `s + L − 1`: BWA's
    /// `D[]`, without the reverse-text index.
    fn trim(&mut self) {
        let len = self.trimmed_len();
        for k in 0..self.absent.len() {
            let (start, end) = self.absent[k];
            if end - start <= len {
                continue;
            }
            let ahead = &self.read.as_slice()[start..start + len];
            let absent = match self.mapped.start(ahead, self.dpu, self.ledger) {
                // Absent is all the re-test asks: an empty seed entry
                // answers it, wherever in those bases a walk would break.
                None => true,
                Some(depth) => {
                    let mut interval = Some((self.dpu.low(), self.dpu.high()));
                    for i in (start..start + len - depth).rev() {
                        let Some((low, high)) = interval else { break };
                        interval = self.extend(self.read[i], low, high);
                    }
                    interval.is_none()
                }
            };
            if absent {
                self.absent[k].1 = start + len;
            }
        }
        self.count_absent();
    }

    /// The fewest differences aligning `read[0..=i]` can cost.
    fn bound(&self, i: isize) -> i16 {
        if i < 0 {
            0
        } else {
            self.d[i as usize]
        }
    }

    /// Starts a round of the DFS at budget `z` by re-creating the states
    /// of the match descent from `path` — the visits the DFS would begin
    /// with, in its order, none issuing an `LFM` — and saving those
    /// `saved` names as a visit does. A frame at a depth the descent's
    /// seed read skipped has no interval in `path`: if it is saved, it and
    /// its match continuation are read from the seed table's level for
    /// that depth, each level once a round.
    fn start_round(&mut self, z: u8, saved: Saved) {
        debug_assert!(self.stack.is_empty() && self.dpu.stack_depth() == 0);
        self.round = z;
        let z = z as i16;
        let m = self.read.len();
        let matched = self.path.matched();
        // The interval of the frame in hand, if held or read.
        let mut own = Some((0, self.n));
        for depth in 0..m.min(matched + 1) {
            self.stats.states_explored += 1;
            let i = (m - 1 - depth) as isize;
            let continues = depth < matched;
            let mut next = self.path.get(depth + 1);
            let save = match saved {
                Saved::All => true,
                Saved::BreakOnly => !continues,
                Saved::AllButBreak => continues,
            };
            if save && self.affords_an_alternative(i, z) {
                let (low, high) = match own {
                    Some(held) => held,
                    None => self.seeded(depth),
                };
                if continues && next.is_none() {
                    next = Some(self.seeded(depth + 1));
                }
                self.save(Frame { i, z, low, high }, next);
            }
            if !continues {
                return;
            }
            own = next;
        }
        // The whole read matched.
        let (low, high) = own.expect("a descent holds its last interval");
        self.stack.push(Entry::Visit(Frame {
            i: -1,
            z,
            low,
            high,
        }));
    }

    /// The interval of the read's last `depth` bases, read from the seed
    /// table: what the descent's start skipped.
    fn seeded(&mut self, depth: usize) -> (u32, u32) {
        let kmer = &self.read.as_slice()[self.read.len() - depth..];
        self.mapped.read_seed(kmer, self.ledger)
    }

    /// Visits a state with `i >= 0`: issues the match continuation only,
    /// and saves the state if an alternative could still reach a hit.
    fn visit(&mut self, frame: Frame) {
        let matched = self.extend(self.read[frame.i as usize], frame.low, frame.high);
        if self.affords_an_alternative(frame.i, frame.z) {
            self.save(frame, matched);
        }
        if let Some((low, high)) = matched {
            self.stack.push(Entry::Visit(Frame {
                i: frame.i - 1,
                low,
                high,
                ..frame
            }));
        }
    }

    /// Whether a state at `read[i]` with `z` differences left has an
    /// alternative worth saving it for: one spends a difference on
    /// `read[i]` (or before it) and must still afford `read[0..i]`.
    fn affords_an_alternative(&self, i: isize, z: i16) -> bool {
        z > self.bound(i - 1)
    }

    /// Saves a visited state in the register file, beside `matched`, its
    /// match continuation.
    fn save(&mut self, frame: Frame, matched: Option<(u32, u32)>) {
        self.dpu.push_state(
            BacktrackState {
                position: frame.i as u32,
                low: frame.low,
                high: frame.high,
                budget: frame.z as i8,
                symbol: self.read[frame.i as usize].rank() as u8,
            },
            self.ledger,
        );
        self.stats.max_stack_depth = self.stats.max_stack_depth.max(self.dpu.stack_depth());
        self.stack.push(Entry::Deferred(frame, matched));
    }

    /// Backtracks into a deferred frame: its match continuation is
    /// exhausted, so the alternatives are expanded — pushed so that they
    /// pop substitution then deletion per base (`T` first), then the
    /// insertion.
    ///
    /// The four extensions of the frame's interval split its rows that
    /// hold a base ([`MappedIndex::base_rows`]). Once the match
    /// continuation and the alternatives issued so far account for all of
    /// them, the rest are empty: none is issued, and each is noted on the
    /// ledger as a step taken without an `LFM` (DESIGN.md §5). The rule
    /// trusts the registers, as every step does.
    fn expand(&mut self, frame: Frame, matched: Option<(u32, u32)>) {
        let _ = self.dpu.pop_state(self.ledger);
        let current = self.read[frame.i as usize];
        let z = frame.z - 1;
        let indels = self.budget.allows_indels();
        if indels {
            // Insertion in the read: skip read[i] without an LFM step.
            self.stack.push(Entry::Visit(Frame {
                i: frame.i - 1,
                z,
                ..frame
            }));
        }
        // A deletion from the read consumes a reference base only, so
        // all of read[0..=i] is still to pay for.
        let deletions = indels && z >= self.bound(frame.i);
        let rows = |next: Option<(u32, u32)>| next.map_or(0, |(low, high)| high - low);
        let mut left = self
            .mapped
            .base_rows((frame.low, frame.high))
            .saturating_sub(rows(matched));
        for b in Base::ALL {
            let next = if b == current {
                matched
            } else if left == 0 {
                self.ledger.note_unissued_steps(1);
                None
            } else {
                let next = self.extend(b, frame.low, frame.high);
                left = left.saturating_sub(rows(next));
                next
            };
            let Some((low, high)) = next else {
                continue;
            };
            let child = Frame {
                i: frame.i,
                z,
                low,
                high,
            };
            if deletions {
                self.stack.push(Entry::Visit(child));
            }
            if b != current {
                self.stack.push(Entry::Visit(Frame {
                    i: frame.i - 1,
                    ..child
                }));
            }
        }
    }

    /// Runs the round's DFS on to its next full-length interval; `None`
    /// once the round is exhausted, which leaves the register file
    /// empty.
    fn next_hit(&mut self) -> Option<InexactHit> {
        while let Some(entry) = self.stack.pop() {
            match entry {
                Entry::Deferred(frame, matched) => self.expand(frame, matched),
                Entry::Visit(frame) => {
                    self.stats.states_explored += 1;
                    if frame.i >= 0 {
                        self.visit(frame);
                        continue;
                    }
                    return Some(InexactHit {
                        interval: SaInterval::new(frame.low, frame.high),
                        diffs: self.round - frame.z as u8,
                    });
                }
            }
        }
        None
    }

    /// The first hit of the first round that has one, over the budgets
    /// from the bound pass's substring count — fewer differences cannot
    /// align the read — up to the budget asked for.
    ///
    /// A descent that matched more than [`Search::trimmed_len`] bases
    /// before it broke is almost surely at the read's locus, with a
    /// difference where it broke. The break frame's alternatives are then
    /// tried with nothing left to spend, ahead of the rest of the bound
    /// pass: a hit has one difference where the exact stage found none
    /// with zero, so it is a minimum-difference hit, and it is the hit
    /// round 1 meets first — the break frame is the deepest the replay
    /// saves, and with one absent substring the bound is zero left of the
    /// read's last base. On a miss the pass completes and round 1, if
    /// there is one, covers the other frames.
    fn first_hit(&mut self) -> Option<InexactHit> {
        let broke_deep = self.descent().is_some()
            && self.path.matched() > self.trimmed_len()
            && self.budget.max_diffs() > 0;
        if broke_deep {
            // No bound is known yet, and none is needed: the frame
            // itself is saved whatever lies left of it, and its children
            // have nothing left to be pruned from.
            self.d.clear();
            self.d.resize(self.read.len(), 0);
            self.start_round(1, Saved::BreakOnly);
            if let Some(hit) = self.next_hit() {
                return Some(hit);
            }
        }
        let fewest = self.lower_bound()?;
        for z in fewest..=self.budget.max_diffs() {
            let saved = if broke_deep && z == 1 {
                Saved::AllButBreak
            } else {
                Saved::All
            };
            self.start_round(z, saved);
            if let Some(hit) = self.next_hit() {
                // The accepted path's frames are still saved; unwind
                // them so the next search starts on an empty register
                // file.
                while self.dpu.pop_state(self.ledger).is_some() {}
                return Some(hit);
            }
            // From here on rounds have differences to spare, and an
            // untrimmed bound lets them be spent anywhere.
            if z == fewest && z < self.budget.max_diffs() {
                self.trim();
            }
        }
        None
    }
}

/// The oracle's hit contract: one hit per interval, sorted
/// `(diffs, interval)`.
fn sorted_hits(best: HashMap<SaInterval, u8>) -> Vec<InexactHit> {
    let mut hits: Vec<InexactHit> = best
        .into_iter()
        .map(|(interval, diffs)| InexactHit { interval, diffs })
        .collect();
    hits.sort_by_key(|h| (h.diffs, h.interval));
    hits
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::aligner::AlignmentOutcome;
    use crate::config::PimAlignerConfig;
    use crate::exact::exact_search_recorded;
    use pimsim::costs::LogicalOp;
    use proptest::prelude::*;
    use readsim::genome;

    fn setup(reference: &DnaSeq) -> (MappedIndex, FaultInjector, Dpu, CycleLedger) {
        let config = PimAlignerConfig::baseline();
        let mapped = MappedIndex::build(&reference.to_packed(), &config);
        let injector = mapped.session_injector();
        let dpu = Dpu::new(*config.model());
        (mapped, injector, dpu, CycleLedger::new())
    }

    /// The eager DFS this module replaced, kept as the reference the
    /// search is compared against: every visited state issues all eight
    /// `LFM`s (4 bases × 2 bounds) and no state is pruned. Children are
    /// pushed in the order `expand` reproduces.
    fn eager_reference(
        mapped: &MappedIndex,
        injector: &mut FaultInjector,
        read: &DnaSeq,
        budget: EditBudget,
        ledger: &mut CycleLedger,
        first_only: bool,
    ) -> (Vec<InexactHit>, u64) {
        let mut lfm_calls = 0;
        let mut best: HashMap<SaInterval, u8> = HashMap::new();
        let mut stack = vec![Frame {
            i: read.len() as isize - 1,
            z: budget.max_diffs() as i16,
            low: 0,
            high: mapped.index().text_len() as u32,
        }];
        while let Some(frame) = stack.pop() {
            if frame.z < 0 {
                continue;
            }
            if frame.i < 0 {
                let diffs = budget.max_diffs() - frame.z as u8;
                best.entry(SaInterval::new(frame.low, frame.high))
                    .and_modify(|d| *d = (*d).min(diffs))
                    .or_insert(diffs);
                if first_only {
                    break;
                }
                continue;
            }
            if budget.allows_indels() {
                stack.push(Frame {
                    i: frame.i - 1,
                    z: frame.z - 1,
                    ..frame
                });
            }
            let current = read[frame.i as usize];
            let mut match_branch = None;
            for b in Base::ALL {
                let low = mapped.lfm(b, frame.low as usize, injector, ledger);
                let high = mapped.lfm(b, frame.high as usize, injector, ledger);
                lfm_calls += 2;
                if low >= high {
                    continue;
                }
                if budget.allows_indels() {
                    stack.push(Frame {
                        i: frame.i,
                        z: frame.z - 1,
                        low,
                        high,
                    });
                }
                let next = Frame {
                    i: frame.i - 1,
                    z: frame.z,
                    low,
                    high,
                };
                if b == current {
                    match_branch = Some(next);
                } else {
                    stack.push(Frame {
                        z: frame.z - 1,
                        ..next
                    });
                }
            }
            stack.extend(match_branch);
        }
        (sorted_hits(best), lfm_calls)
    }

    pub(crate) fn arb_seq(min: usize, max: usize) -> impl Strategy<Value = DnaSeq> {
        proptest::collection::vec(0u8..4, min..max)
            .prop_map(|v| v.into_iter().map(|r| Base::from_rank(r as usize)).collect())
    }

    /// Poly-A with one island, 1 200 bp: a seed table of three levels in
    /// which most entries are empty, so that a descent's start falls back
    /// to the walk from `[0, N)`. (It was 44 kbp while the table took
    /// `N/64` bytes, and 10 kbp while it held a pair of `u32`s an entry;
    /// with one packed boundary a 3-mer, that length holds five levels.)
    pub(crate) fn island_genome() -> DnaSeq {
        let mut bases = vec![Base::A; 1_200];
        let island: DnaSeq = "CGTTGC".parse().unwrap();
        bases.splice(600..606, island.iter().copied());
        DnaSeq::from_bases(bases)
    }

    /// Reads of [`island_genome`]: across the island, clean and with a
    /// substitution in it; ending in a 3-mer the genome lacks, at the
    /// read's end and where the bound pass starts over; of exactly the
    /// table's depth, present and absent; and shorter than it.
    pub(crate) fn island_reads() -> Vec<DnaSeq> {
        [
            "AAAAACGTTGCAAAAA",
            "AAAAACGATGCAAAAA",
            "AAAAAAAAAAAAAGGG",
            "AAAAAACCAAAAAAAAAACCAAAA",
            "TGC",
            "TTT",
            "GC",
            "GG",
            "A",
        ]
        .iter()
        .map(|read| read.parse().unwrap())
        .collect()
    }

    /// A window of `reference`, at most `len` bases, with every code of
    /// `edits` applied (`code % 3`: substitute, insert, delete; the rest
    /// picks the base and the place), reverse-complemented if asked. At
    /// `len` 16, the generator of
    /// `platform_properties::platform_inexact_equals_software_on_mutated_reads`.
    pub(crate) fn edited_read(
        reference: &DnaSeq,
        start_frac: f64,
        len: usize,
        edits: &[u32],
        reverse: bool,
    ) -> DnaSeq {
        let len = len.min(reference.len());
        let start = ((reference.len() - len) as f64 * start_frac) as usize;
        let mut bases = reference.subseq(start..start + len).into_bases();
        for &code in edits {
            let base = Base::from_rank((code / 3 % 4) as usize);
            let at = (code / 12) as usize % bases.len();
            match code % 3 {
                0 => bases[at] = base,
                1 => bases.insert(at, base),
                _ if bases.len() > 1 => drop(bases.remove(at)),
                _ => {}
            }
        }
        let read = DnaSeq::from_bases(bases);
        if reverse {
            read.reverse_complement()
        } else {
            read
        }
    }

    /// Fewest edits turning `read` into some substring of `reference`
    /// (Sellers' dynamic programme: a free start and end in the
    /// reference).
    fn min_edits_to_any_substring(reference: &DnaSeq, read: &[Base]) -> usize {
        let mut row = vec![0usize; reference.len() + 1];
        for (r, &base) in read.iter().enumerate() {
            let mut diagonal = row[0];
            row[0] = r + 1;
            for j in 1..=reference.len() {
                let substitute = diagonal + usize::from(reference[j - 1] != base);
                diagonal = row[j];
                row[j] = substitute.min(row[j] + 1).min(row[j - 1] + 1);
            }
        }
        row.into_iter().min().expect("row holds column 0")
    }

    /// Checks `d[i]` against Sellers' distance of `read[0..=i]`, for
    /// every `i`.
    fn bound_is_sound(d: &[i16], reference: &DnaSeq, read: &DnaSeq) -> Result<(), TestCaseError> {
        let bases = read.clone().into_bases();
        for (i, &bound) in d.iter().enumerate() {
            let truth = min_edits_to_any_substring(reference, &bases[..=i]);
            prop_assert!(
                bound as usize <= truth,
                "d[{}] = {} but read[0..={}] aligns with {} edits",
                i,
                bound,
                i,
                truth
            );
        }
        Ok(())
    }

    fn budget_of(z: u8, indels: bool) -> EditBudget {
        if indels {
            EditBudget::edits(z)
        } else {
            EditBudget::substitutions_only(z)
        }
    }

    /// The contract of the rounds: the eager DFS's first hit at the
    /// smallest budget that has one, for no more LFMs than those eager
    /// rounds issue; and exhaustively, the eager DFS's hit set.
    fn equals_eager_reference(
        reference: &DnaSeq,
        read: &DnaSeq,
        z: u8,
        indels: bool,
    ) -> Result<(), TestCaseError> {
        let (mapped, mut injector, mut dpu, mut ledger) = setup(reference);
        let budget = |z| budget_of(z, indels);
        let mut eager_first = None;
        let mut eager_rounds_lfm = 0;
        for round in 0..=z {
            let (hits, lfm) = eager_reference(
                &mapped,
                &mut injector,
                read,
                budget(round),
                &mut ledger,
                true,
            );
            eager_rounds_lfm += lfm;
            eager_first = hits.first().copied();
            if eager_first.is_some() {
                break;
            }
        }
        let (first, stats) = inexact_search_first(
            &mapped,
            &mut injector,
            &mut dpu,
            read,
            budget(z),
            &mut ledger,
        );
        prop_assert_eq!(first, eager_first);
        prop_assert!(
            stats.lfm_calls <= eager_rounds_lfm,
            "first-accept issued {} LFMs, the eager rounds {}",
            stats.lfm_calls,
            eager_rounds_lfm
        );
        prop_assert_eq!(dpu.stack_depth(), 0, "register file not unwound");
        let (eager_all, _) =
            eager_reference(&mapped, &mut injector, read, budget(z), &mut ledger, false);
        let (all, _) = inexact_search(
            &mapped,
            &mut injector,
            &mut dpu,
            read,
            budget(z),
            &mut ledger,
        );
        prop_assert_eq!(all, eager_all);
        prop_assert_eq!(dpu.stack_depth(), 0, "register file not unwound");
        Ok(())
    }

    /// The hand-over contract, first-accept and exhaustive: started from
    /// the exact stage's recorded descent, the search returns the hits
    /// and explores the states of the search that walks for itself, and
    /// the two stages together issue and charge — to the bit, the charges
    /// falling in the same order — what that search does alone.
    fn seeded_equals_unseeded(
        reference: &DnaSeq,
        read: &DnaSeq,
        z: u8,
        indels: bool,
    ) -> Result<(), TestCaseError> {
        let (mapped, mut injector, mut dpu, _) = setup(reference);
        let budget = budget_of(z, indels);
        for exhaustive in [false, true] {
            let mut alone = CycleLedger::new();
            let (expected, unseeded) = inexact_search_from(
                &mapped,
                &mut injector,
                &mut dpu,
                read,
                budget,
                exhaustive,
                &mut Descent::new(),
                &mut alone,
            );
            prop_assert_eq!(dpu.stack_depth(), 0, "register file not unwound");

            let mut staged = CycleLedger::new();
            // Stale: the exact stage overwrites it.
            let mut descent = Descent::new();
            descent.restart(7, 2, (7, 7));
            let (interval, exact) = exact_search_recorded(
                &mapped,
                &mut injector,
                &mut dpu,
                read,
                None,
                Some(&mut descent),
                &mut staged,
            );
            // It ends at the last base that extended.
            prop_assert_eq!(
                descent.matched(),
                exact.bases_consumed - usize::from(interval.is_empty())
            );
            let (hits, seeded) = inexact_search_from(
                &mapped,
                &mut injector,
                &mut dpu,
                read,
                budget,
                exhaustive,
                &mut descent,
                &mut staged,
            );
            prop_assert_eq!(dpu.stack_depth(), 0, "register file not unwound");
            prop_assert_eq!(&hits, &expected);
            if !interval.is_empty() {
                // The whole read matched: the hit is the replayed
                // descent's, and round 0 has nothing left to walk.
                prop_assert!(exhaustive || seeded.lfm_calls == 0);
                let whole = InexactHit { interval, diffs: 0 };
                prop_assert_eq!(hits.first(), Some(&whole));
            }
            prop_assert_eq!(
                InexactStats {
                    lfm_calls: seeded.lfm_calls + exact.lfm_calls,
                    ..seeded
                },
                unseeded
            );
            prop_assert!(
                staged == alone,
                "the two stages charge what the one search does"
            );
        }
        Ok(())
    }

    #[test]
    fn seeded_search_on_the_edge_descents() {
        let homopolymer: DnaSeq = "AAAAAAAAAA".parse().unwrap();
        let reference = genome::uniform(3_000, 30);
        let window = reference.subseq(1_000..1_040);
        let substituted = |at: usize| {
            let mut bases = window.clone().into_bases();
            bases[at] = Base::from_rank((bases[at].rank() + 1) % 4);
            DnaSeq::from_bases(bases)
        };
        let cases: [(&DnaSeq, DnaSeq); 8] = [
            // Breaks at the first base tried: no T in the reference.
            (&homopolymer, "AAAAAAAACT".parse().unwrap()),
            // Breaks at the read's last base but one, and at its first.
            (&reference, substituted(38)),
            (&reference, substituted(0)),
            // Never breaks.
            (&reference, window.clone()),
            // The empty and the 1-base reads of `tests/edge_cases.rs`.
            (&reference, DnaSeq::from_bases(Vec::new())),
            (&reference, "G".parse().unwrap()),
            (&homopolymer, "A".parse().unwrap()),
            (&homopolymer, "C".parse().unwrap()),
        ];
        let island = island_genome();
        let island_reads = island_reads();
        let cases = cases
            .iter()
            .map(|(reference, read)| (*reference, read))
            .chain(island_reads.iter().map(|read| (&island, read)));
        for (reference, read) in cases {
            for z in 0..3 {
                for indels in [false, true] {
                    seeded_equals_unseeded(reference, read, z, indels)
                        .unwrap_or_else(|e| panic!("{read} at z = {z}: {e}"));
                }
            }
        }
    }

    #[test]
    fn search_equals_eager_reference_where_seed_entries_are_empty() {
        let island = island_genome();
        for read in &island_reads() {
            for z in 0..3 {
                for indels in [false, true] {
                    equals_eager_reference(&island, read, z, indels)
                        .unwrap_or_else(|e| panic!("{read} at z = {z}: {e}"));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn search_equals_eager_reference_and_never_costs_more(
            reference in arb_seq(20, 200),
            start_frac in 0.0f64..1.0,
            edits in proptest::collection::vec(any::<u32>(), 0..5),
            reverse in any::<bool>(),
            z in 0u8..3,
            indels in any::<bool>(),
        ) {
            let read = edited_read(&reference, start_frac, 16, &edits, reverse);
            equals_eager_reference(&reference, &read, z, indels)?;
        }

        #[test]
        fn seeded_search_is_the_unseeded_search_minus_the_descent(
            reference in arb_seq(200, 20_000),
            start_frac in 0.0f64..1.0,
            len in 16usize..=100,
            edits in proptest::collection::vec(any::<u32>(), 0..5),
            reverse in any::<bool>(),
            z in 0u8..3,
            indels in any::<bool>(),
        ) {
            let read = edited_read(&reference, start_frac, len, &edits, reverse);
            seeded_equals_unseeded(&reference, &read, z, indels)?;
        }

        #[test]
        fn lower_bound_never_exceeds_the_true_edit_distance(
            reference in arb_seq(8, 120),
            read in arb_seq(1, 24),
        ) {
            let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
            let budget = EditBudget::edits(EditBudget::MAX_DIFFS);
            let mut path = Descent::new();
            let mut search = Search::new(
                &mapped, &mut injector, &mut dpu, &read, budget, &mut path, &mut ledger,
            );
            let within_budget = search.lower_bound();
            prop_assert!(search.stats.lfm_calls <= 2 * read.len() as u64);
            match within_budget {
                Some(found) => prop_assert_eq!(found as i16, search.d[read.len() - 1]),
                None => {
                    let truth =
                        min_edits_to_any_substring(&reference, &read.clone().into_bases());
                    prop_assert!(
                        truth > EditBudget::MAX_DIFFS as usize,
                        "rejected at {} edits",
                        truth
                    );
                }
            }
            // A rejecting pass stops early and leaves `d` empty.
            bound_is_sound(&search.d, &reference, &read)?;
        }

        #[test]
        fn trimmed_lower_bound_never_exceeds_the_true_edit_distance(
            reference in arb_seq(200, 2_000),
            start_frac in 0.0f64..1.0,
            len in 30usize..=60,
            edits in proptest::collection::vec(any::<u32>(), 0..4),
        ) {
            // A few edits in a 30–60 bp window leave absent substrings
            // longer than the 10–12 bases they are trimmed to here.
            let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
            let read = edited_read(&reference, start_frac, len, &edits, false);
            let budget = EditBudget::edits(EditBudget::MAX_DIFFS);
            let mut path = Descent::new();
            let mut search = Search::new(
                &mapped, &mut injector, &mut dpu, &read, budget, &mut path, &mut ledger,
            );
            prop_assert!(search.lower_bound().is_some(), "at most 3 edits");
            let untrimmed = search.absent.clone();
            let before = search.stats.lfm_calls;
            search.trim();
            let len = search.trimmed_len();
            prop_assert!((10..=12).contains(&len));
            let long = untrimmed.iter().filter(|(s, e)| e - s > len).count();
            prop_assert!(search.stats.lfm_calls - before <= (2 * len * long) as u64);
            for (was, now) in untrimmed.iter().zip(&search.absent) {
                prop_assert!(*now == *was || *now == (was.0, was.0 + len), "{:?} -> {:?}", was, now);
            }
            bound_is_sound(&search.d, &reference, &read)?;
        }
    }

    proptest! {
        // The eager DFS enumerates the whole neighbourhood of a 40–60 bp
        // read: fewer cases, each several thousand times the work.
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// `search_equals_eager_reference_and_never_costs_more` on reads
        /// whose descent breaks deeper than `trimmed_len()` (12–14 here),
        /// so that the break frame is tried first; on ≤ 200 bp references
        /// that length is 10 of a read's 16 bases and it rarely is.
        #[test]
        fn search_equals_eager_reference_where_the_break_frame_goes_first(
            reference in arb_seq(2_000, 20_000),
            start_frac in 0.0f64..1.0,
            len in 40usize..=60,
            edits in proptest::collection::vec(any::<u32>(), 0..4),
            reverse in any::<bool>(),
            z in 1u8..3,
            indels in any::<bool>(),
        ) {
            let read = edited_read(&reference, start_frac, len, &edits, reverse);
            equals_eager_reference(&reference, &read, z, indels)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The partition rule against the software oracle: backtracking
        /// into any frame `[low, high)` — the sentinel's row inside it or
        /// not — every alternative `expand` resolves without an `LFM` is
        /// empty, and it resolves every one after the last that is not.
        #[test]
        fn alternatives_resolved_without_an_lfm_are_empty(
            reference in arb_seq(20, 3_000),
            at in any::<u32>(),
            rows in 1u32..300,
            current in 0usize..4,
            indels in any::<bool>(),
        ) {
            let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
            let oracle = mapped.index();
            let n = oracle.text_len() as u32;
            let low = at % n;
            let high = (low + rows).min(n);
            let lfm = |b, id: u32| oracle.marker_table().lfm(oracle.bwt(), b, id as usize);
            let child = |b| Some((lfm(b, low), lfm(b, high))).filter(|(l, h)| l < h);
            let current = Base::from_rank(current);
            let read = DnaSeq::from_bases(vec![current]);
            let mut path = Descent::new();
            let budget = budget_of(1, indels);
            let mut search = Search::new(
                &mapped, &mut injector, &mut dpu, &read, budget, &mut path, &mut ledger,
            );
            search.d = vec![0];
            search.save(Frame { i: 0, z: 1, low, high }, child(current));
            let Some(Entry::Deferred(frame, matched)) = search.stack.pop() else {
                unreachable!("a saved frame is deferred")
            };
            search.expand(frame, matched);
            let resolved = search.ledger.unissued_steps() as usize;
            let alternatives: Vec<Base> = Base::ALL.into_iter().filter(|&b| b != current).collect();
            for &b in &alternatives[3 - resolved..] {
                prop_assert_eq!(child(b), None, "{} resolved at [{}, {})", b, low, high);
            }
            let issued = alternatives
                .iter()
                .rposition(|&b| child(b).is_some())
                .map_or(0, |last| last + 1);
            prop_assert_eq!(resolved, 3 - issued);
            // The others were issued, one `LFM` each inside a word line.
            let step = if (high - 1) / 128 == low / 128 { 1 } else { 2 };
            prop_assert_eq!(search.stats.lfm_calls, step * issued as u64);
        }
    }

    /// `reference[50_000..50_100)` with substitutions at `places`.
    fn read_with_substitutions_at(reference: &DnaSeq, places: &[usize]) -> DnaSeq {
        let mut bases = reference.subseq(50_000..50_100).into_bases();
        for &at in places {
            bases[at] = Base::from_rank((bases[at].rank() + 1) % 4);
        }
        DnaSeq::from_bases(bases)
    }

    #[test]
    fn a_failed_round_trims_the_bound_before_the_next() {
        // Substitutions at 2, 3, 4 of 100 at budget 2. Right to left the
        // bound pass sees one absent substring, read[4..100), and counts
        // it at the read's last base: round 1 fails, and round 2 would
        // have a difference to spare over the whole read. The trim
        // re-tests read[4..4+L), finds it absent, and counts it there.
        let reference = genome::uniform(200_000, 28);
        let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
        let read = read_with_substitutions_at(&reference, &[2, 3, 4]);
        let budget = EditBudget::edits(2);
        let mut path = Descent::new();
        let mut search = Search::new(
            &mapped,
            &mut injector,
            &mut dpu,
            &read,
            budget,
            &mut path,
            &mut ledger,
        );
        assert_eq!(search.lower_bound(), Some(1));
        assert_eq!(search.absent, [(4, 100)]);
        assert_eq!(search.path.matched(), 100 - 5, "read[5..100) matched");
        assert_eq!((search.d[98], search.d[99]), (0, 1));
        search.start_round(1, Saved::All);
        assert_eq!(search.next_hit(), None);
        assert_eq!(search.dpu.stack_depth(), 0, "a failed round unwinds itself");

        let len = search.trimmed_len();
        assert_eq!(len, 9 + 6, "⌈log₄ 200 001⌉ = 9");
        let bumps = |search: &Search| search.ledger.primitives().count(LogicalOp::IndexBump);
        let seeded = |search: &Search| search.ledger.unissued_steps();
        let (before, bumps_before) = (search.stats.lfm_calls, bumps(&search));
        let seeded_before = seeded(&search);
        search.trim();
        // One seed read for the first seven bases, then one interval step
        // a base, the published two `LFM`s for the first and one for each
        // of the last seven, which found the interval inside one word
        // line: 9 `LFM`s (10 at the six-level table of `u32` pairs, 14 at
        // the four-level one of `N/64` bytes, 17 while only a one-row
        // interval took one, 25 from `[0, N)`, 30 before that).
        let bumped = bumps(&search) - bumps_before;
        let skipped = seeded(&search) - seeded_before;
        assert_eq!(skipped, mapped.seed_table().depth() as u64);
        assert_eq!(
            search.stats.lfm_calls - before,
            2 * (len as u64 - skipped) - bumped
        );
        assert_eq!((skipped, bumped), (7, 7));
        assert_eq!(search.absent, [(4, 4 + len)]);
        assert_eq!((search.d[4 + len - 2], search.d[4 + len - 1]), (0, 1));
        assert_eq!(search.d[99], 1);
    }

    #[test]
    fn platform_matches_software_oracle_substitutions() {
        let reference = genome::uniform(3_000, 21);
        let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
        let oracle = mapped.index().clone();
        for (start, z) in [(100usize, 0u8), (500, 1), (1_200, 2)] {
            let mut read = reference.subseq(start..start + 24);
            // Mutate z positions.
            for k in 0..z as usize {
                let pos = 5 + 7 * k;
                let b = read[pos];
                let mut bases = read.clone().into_bases();
                bases[pos] = Base::from_rank((b.rank() + 1) % 4);
                read = DnaSeq::from_bases(bases);
            }
            let budget = EditBudget::substitutions_only(z);
            let (hw, _) =
                inexact_search(&mapped, &mut injector, &mut dpu, &read, budget, &mut ledger);
            let sw = oracle.search_inexact(&read, budget);
            assert_eq!(hw, sw, "mismatch at start {start} z {z}");
        }
    }

    #[test]
    fn platform_matches_software_oracle_with_indels() {
        let reference = genome::uniform(1_500, 22);
        let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
        let oracle = mapped.index().clone();
        // Read with one deleted base relative to the reference.
        let mut bases = reference.subseq(300..320).into_bases();
        bases.remove(10);
        let read = DnaSeq::from_bases(bases);
        let budget = EditBudget::edits(1);
        let (hw, _) = inexact_search(&mapped, &mut injector, &mut dpu, &read, budget, &mut ledger);
        let sw = oracle.search_inexact(&read, budget);
        assert_eq!(hw, sw);
        assert!(!hw.is_empty());
    }

    #[test]
    fn stats_grow_with_budget() {
        let reference = genome::uniform(2_000, 23);
        let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
        let read = reference.subseq(700..720);
        let (_, s0) = inexact_search(
            &mapped,
            &mut injector,
            &mut dpu,
            &read,
            EditBudget::substitutions_only(0),
            &mut ledger,
        );
        let (_, s2) = inexact_search(
            &mapped,
            &mut injector,
            &mut dpu,
            &read,
            EditBudget::substitutions_only(2),
            &mut ledger,
        );
        assert!(s2.lfm_calls > s0.lfm_calls);
        assert!(s2.states_explored > s0.states_explored);
        // No budget, no alternative to come back to: nothing is saved.
        assert_eq!(s0.max_stack_depth, 0);
        // With a budget every state of the match path is saved at once.
        assert_eq!(s2.max_stack_depth, read.len());
    }

    #[test]
    fn max_stack_depth_is_the_register_file_occupancy() {
        let reference = genome::uniform(4_000, 27);
        let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
        // One substitution at position 30 of 40: the bound forbids any
        // alternative left of it once it is paid for, so the accepted
        // path holds the 9 frames right of it, the one that paid, and
        // nothing after.
        let mut bases = reference.subseq(1_000..1_040).into_bases();
        bases[30] = Base::from_rank((bases[30].rank() + 1) % 4);
        let read = DnaSeq::from_bases(bases);
        let (hit, stats) = inexact_search_first(
            &mapped,
            &mut injector,
            &mut dpu,
            &read,
            EditBudget::substitutions_only(1),
            &mut ledger,
        );
        assert_eq!(hit.expect("one substitution is in budget").diffs, 1);
        assert_eq!(stats.max_stack_depth, 10);
        assert_eq!(dpu.stack_depth(), 0, "register file not unwound");
    }

    #[test]
    fn first_accept_hit_is_in_exhaustive_set() {
        let reference = genome::uniform(3_000, 25);
        let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
        // One substitution at position 12.
        let mut bases = reference.subseq(900..940).into_bases();
        bases[12] = Base::from_rank((bases[12].rank() + 1) % 4);
        let read = DnaSeq::from_bases(bases);
        let budget = EditBudget::substitutions_only(2);
        let (first, fstats) =
            inexact_search_first(&mapped, &mut injector, &mut dpu, &read, budget, &mut ledger);
        let (all, astats) =
            inexact_search(&mapped, &mut injector, &mut dpu, &read, budget, &mut ledger);
        let first = first.expect("mutated read must map");
        assert!(
            all.iter().any(|h| h.interval == first.interval),
            "first hit must be in the exhaustive set"
        );
        assert!(
            fstats.lfm_calls < astats.lfm_calls,
            "first-accept must prune: {} vs {}",
            fstats.lfm_calls,
            astats.lfm_calls
        );
    }

    #[test]
    fn first_accept_cost_is_linear_in_read_length() {
        // On a clean read the production mode pays the lower-bound pass
        // only — a seed read for the last five bases (the table of 8 001
        // rows has five levels; three while each held `u32` pairs, one at
        // `N/64` bytes), then one `LFM` a base, the interval inside one
        // word line already — and the round replays that descent: 95 LFMs
        // (98 at the three-level table, 102 at the one-level one, 106
        // while only a one-row interval took one; 200 at two a base
        // throughout).
        let reference = genome::uniform(8_000, 26);
        let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
        let read = reference.subseq(2_000..2_100);
        let (hit, stats) = inexact_search_first(
            &mapped,
            &mut injector,
            &mut dpu,
            &read,
            EditBudget::edits(2),
            &mut ledger,
        );
        assert_eq!(hit.expect("a clean read maps").diffs, 0);
        assert!(
            stats.lfm_calls <= read.len() as u64 + 2 * (7 + 2) - 2,
            "first-accept LFM count {} too high",
            stats.lfm_calls
        );
        let bumps = ledger.primitives().count(LogicalOp::IndexBump);
        assert_eq!((ledger.unissued_steps(), bumps), (5, 95));
        assert_eq!(stats.lfm_calls, 95);
        assert_eq!(stats.lfm_calls + bumps + 2 * 5, 2 * read.len() as u64);
    }

    #[test]
    fn cost_classes_by_where_the_differences_fall() {
        // A 100-base read of a 200 kbp genome at the default budget, two
        // edits: whether it maps, and for how many LFMs end to end —
        // stage 1's and stage 2's.
        let reference = genome::uniform(200_000, 28);
        let m = 100;
        let platform = crate::Platform::new(reference.to_packed(), PimAlignerConfig::baseline());
        let cost = |read: DnaSeq, diffs: Option<u8>| {
            let (mut pairs, totals) = platform.align_chunk_parallel(&[read], 1, 0, false).unwrap();
            let outcome = pairs.remove(0).0;
            match (&outcome, diffs) {
                (AlignmentOutcome::Inexact { diffs, .. }, Some(expected)) => {
                    assert_eq!(*diffs, expected)
                }
                (AlignmentOutcome::Unmapped, None) => {}
                _ => panic!("expected {diffs:?} differences, got {outcome:?}"),
            }
            totals.lfm_calls
        };
        // Each ceiling is the count measured with the seed table (four
        // levels here), the word-line step and the partition rule, and a
        // few `LFM`s; beside it, the count with the seed table and the
        // one-row step, with that step alone, and at two `LFM`s a step.
        //
        // Mid-read: stage 1 reads its first four steps, walks to the
        // difference, the break frame pays for it and the rest matches —
        // one `LFM` a base once inside a word line, and none for an
        // alternative of a one-row frame: 99 (105; 113; 206; 100 + 306
        // while stage 2 made the descent again and ran the bound pass to
        // the end first).
        let lfm = cost(read_with_substitutions_at(&reference, &[50]), Some(1));
        assert!(lfm <= m + 2, "mid-read difference: {lfm} LFMs");
        // In the 3' seed, where the interval is still wide: the break is
        // too shallow to be tried first, and round 1 tries the
        // one-difference alternatives of the last bases, reading from the
        // table the frames the descent's start skipped: 317 (400; 416;
        // 606; 18 + 606 before the hand-over).
        let lfm = cost(read_with_substitutions_at(&reference, &[95]), Some(1));
        assert!(lfm <= 320, "3' seed difference: {lfm} LFMs");
        // The wrong strand: the bound pass alone used to cost what both
        // stages may now. Its three absent substrings are about ten bases
        // each, and each starts four bases in: 24 (31; 55; 56).
        let wrong_strand = reference.subseq(50_000..50_100).reverse_complement();
        let lfm = cost(wrong_strand, None);
        assert!(lfm <= 25, "wrong-strand read: {lfm} LFMs");
        // Over budget, all at the 5' end, where the right-to-left pass
        // sees one substring: the break frame, then both rounds to
        // exhaustion, the second on a trimmed bound: 2 642 (3 637; 3 661;
        // 6 058; 52 870 on the untrimmed bound).
        let lfm = cost(read_with_substitutions_at(&reference, &[2, 3, 4]), None);
        assert!(lfm <= 27 * m, "5' over-budget read: {lfm} LFMs");
    }

    #[test]
    fn wrong_strand_read_is_rejected_by_the_bound_pass() {
        let reference = genome::uniform(200_000, 28);
        let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
        let read = reference.subseq(50_000..50_100).reverse_complement();
        let (hit, stats) = inexact_search_first(
            &mapped,
            &mut injector,
            &mut dpu,
            &read,
            EditBudget::edits(2),
            &mut ledger,
        );
        assert_eq!(hit, None);
        assert_eq!(stats.states_explored, 0, "the DFS must not start");
        assert!(
            stats.lfm_calls <= 2 * read.len() as u64,
            "wrong-strand read cost {} LFMs",
            stats.lfm_calls
        );
    }

    #[test]
    fn three_spread_differences_at_z2_are_rejected_by_the_bound_pass() {
        let reference = genome::uniform(8_000, 29);
        let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
        let mut bases = reference.subseq(3_000..3_100).into_bases();
        for at in [25, 50, 75] {
            bases[at] = Base::from_rank((bases[at].rank() + 1) % 4);
        }
        let read = DnaSeq::from_bases(bases);
        let budget = EditBudget::edits(2);
        let (hit, stats) =
            inexact_search_first(&mapped, &mut injector, &mut dpu, &read, budget, &mut ledger);
        assert_eq!(hit, None);
        // The descent breaks 24 bases in, deeper than the 13 a chance
        // match is good for here, so the break frame is tried before the
        // bound pass goes on: its substitution child matches the 24
        // bases to the next difference and dies there. The pass then
        // finds the third substring, and no round starts: the break
        // frame is the one frame ever saved.
        assert_eq!(stats.max_stack_depth, 1, "only the break frame is expanded");
        assert_eq!(dpu.stack_depth(), 0, "register file not unwound");
        assert!(
            stats.states_explored <= 2 * 25 + 8,
            "{} states: the replayed descent, then one child's",
            stats.states_explored
        );
        assert!(
            stats.lfm_calls <= 2 * read.len() as u64 + 2 * 25 + 16,
            "{} LFMs",
            stats.lfm_calls
        );
        // The software oracle, which searches exhaustively, agrees.
        assert!(mapped.index().search_inexact(&read, budget).is_empty());
    }

    #[test]
    fn zero_budget_reduces_to_exact() {
        let reference = genome::uniform(2_000, 24);
        let (mapped, mut injector, mut dpu, mut ledger) = setup(&reference);
        let oracle = mapped.index().clone();
        let read = reference.subseq(100..140);
        let (hits, _) = inexact_search(
            &mapped,
            &mut injector,
            &mut dpu,
            &read,
            EditBudget::substitutions_only(0),
            &mut ledger,
        );
        let exact = oracle.backward_search(&read).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].interval, exact);
        assert_eq!(hits[0].diffs, 0);
    }
}
