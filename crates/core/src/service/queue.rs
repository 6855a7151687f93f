//! The bounded admission queue behind `pimserve` (DESIGN.md §13.2).
//!
//! Admission control is the robustness core of the service: every
//! accepted request charges its payload bytes against an in-flight
//! budget and occupies one slot of a bounded queue. When either limit
//! is hit the request is *shed* — a fast typed rejection with a
//! retry-after hint — instead of growing server memory without bound.
//! The two limits fail differently on purpose: queue depth bounds
//! *latency* (a deep queue is a deadline-miss factory), in-flight bytes
//! bound *memory* (a few giant reads can be worth a thousand small
//! ones).
//!
//! The batch take is work-conserving: [`AdmissionQueue::take_batch`]
//! sleeps only while the queue is empty and then hands out everything
//! queued, up to the batch cap. Batches grow under load because
//! requests arrive while the previous batch aligns — nothing is ever
//! held back to fill one.
//!
//! The queue is generic over the queued item so it unit-tests without a
//! socket in sight; the server queues its pending-request records.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The admission limits and shed hint for a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueLimits {
    /// Maximum queued (admitted, not yet batched) requests.
    pub depth: usize,
    /// Maximum payload bytes admitted but not yet answered.
    pub max_inflight_bytes: usize,
    /// Base of the retry-after hint returned with shed rejections.
    pub retry_after_base_ms: u32,
}

/// Admission verdict for one offered item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Accepted: the item is queued and its bytes are charged until
    /// [`AdmissionQueue::release`].
    Accepted,
    /// Shed: the queue is at its depth limit.
    ShedDepth {
        /// Suggested client backoff.
        retry_after_ms: u32,
    },
    /// Shed: the in-flight byte budget is exhausted.
    ShedBytes {
        /// Suggested client backoff.
        retry_after_ms: u32,
    },
    /// Rejected: the server is draining and admits nothing new.
    Draining,
}

#[derive(Debug)]
struct State<T> {
    /// `(item, cost_bytes, arrival)` — the arrival instant feeds the
    /// watchdog's head-of-queue age probe.
    queue: VecDeque<(T, usize, Instant)>,
    inflight_bytes: usize,
    draining: bool,
    peak_depth: usize,
    peak_inflight_bytes: usize,
}

/// A bounded, drain-aware MPSC admission queue with byte accounting and
/// a work-conserving batch take.
#[derive(Debug)]
pub struct AdmissionQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    limits: QueueLimits,
}

impl<T> AdmissionQueue<T> {
    /// An empty queue with the given limits.
    ///
    /// # Panics
    ///
    /// Panics if `depth` or `max_inflight_bytes` is zero — a zero-size
    /// queue admits nothing and is a configuration error the CLI layer
    /// must reject first.
    pub fn new(limits: QueueLimits) -> AdmissionQueue<T> {
        assert!(limits.depth > 0, "queue depth must be positive");
        assert!(
            limits.max_inflight_bytes > 0,
            "in-flight byte budget must be positive"
        );
        AdmissionQueue {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                inflight_bytes: 0,
                draining: false,
                peak_depth: 0,
                peak_inflight_bytes: 0,
            }),
            ready: Condvar::new(),
            limits,
        }
    }

    /// The state, poisoned or not. Every update a critical section here
    /// makes leaves the state valid — items move whole, and counts are
    /// saturating or checked before they are added — so a poisoned lock
    /// still guards a whole state, and the queue keeps serving instead of
    /// panicking every later caller.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Backoff hint scaled by how saturated admission currently is.
    fn retry_after_ms(&self, s: &State<T>) -> u32 {
        let base = self.limits.retry_after_base_ms.max(1);
        let depth_pressure = (s.queue.len() / self.limits.depth.max(1)) as u32;
        let byte_pressure = (s.inflight_bytes / self.limits.max_inflight_bytes.max(1)) as u32;
        base * (1 + depth_pressure + byte_pressure)
    }

    /// Offers one item costing `cost_bytes` of the in-flight budget.
    /// Anything but [`Admit::Accepted`] means the item was NOT queued
    /// and nothing was charged.
    pub fn offer(&self, item: T, cost_bytes: usize) -> Admit {
        let mut s = self.lock();
        if s.draining {
            return Admit::Draining;
        }
        if s.queue.len() >= self.limits.depth {
            return Admit::ShedDepth {
                retry_after_ms: self.retry_after_ms(&s),
            };
        }
        if s.inflight_bytes.saturating_add(cost_bytes) > self.limits.max_inflight_bytes {
            return Admit::ShedBytes {
                retry_after_ms: self.retry_after_ms(&s),
            };
        }
        s.queue.push_back((item, cost_bytes, Instant::now()));
        s.inflight_bytes += cost_bytes;
        s.peak_depth = s.peak_depth.max(s.queue.len());
        s.peak_inflight_bytes = s.peak_inflight_bytes.max(s.inflight_bytes);
        drop(s);
        self.ready.notify_one();
        Admit::Accepted
    }

    /// Takes the next batch: everything queued, up to `batch_max`
    /// items. Blocks only while the queue is empty, until an item
    /// arrives or drain begins — both notify, so no timer is needed.
    /// Returns `None` exactly once the queue is draining *and* empty —
    /// the batcher's signal to flush and exit.
    pub fn take_batch(&self, batch_max: usize) -> Option<Vec<T>> {
        let mut s = self.lock();
        while s.queue.is_empty() {
            if s.draining {
                return None;
            }
            s = self.ready.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        let n = s.queue.len().min(batch_max.max(1));
        Some(s.queue.drain(..n).map(|(item, _, _)| item).collect())
    }

    /// Returns `cost_bytes` to the in-flight budget once the item's
    /// response has been written.
    pub fn release(&self, cost_bytes: usize) {
        let mut s = self.lock();
        s.inflight_bytes = s.inflight_bytes.saturating_sub(cost_bytes);
    }

    /// Stops admissions; queued items still drain through `take_batch`.
    pub fn begin_drain(&self) {
        self.lock().draining = true;
        self.ready.notify_all();
    }

    /// Currently queued items.
    pub fn depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Currently charged in-flight bytes.
    pub fn inflight_bytes(&self) -> usize {
        self.lock().inflight_bytes
    }

    /// High-water marks `(queue depth, in-flight bytes)` over the
    /// queue's lifetime.
    pub fn peaks(&self) -> (usize, usize) {
        let s = self.lock();
        (s.peak_depth, s.peak_inflight_bytes)
    }

    /// How long the oldest queued item has been waiting (`None` when
    /// empty). The watchdog's stall probe: a head that only ages means
    /// the batcher stopped taking.
    pub fn head_age(&self) -> Option<Duration> {
        let s = self.lock();
        s.queue.front().map(|&(_, _, arrived)| arrived.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::RecvTimeoutError;
    use std::sync::Arc;

    fn limits(depth: usize, bytes: usize) -> QueueLimits {
        QueueLimits {
            depth,
            max_inflight_bytes: bytes,
            retry_after_base_ms: 10,
        }
    }

    #[test]
    fn sheds_at_depth_limit_with_retry_hint() {
        let q = AdmissionQueue::new(limits(2, 1_000));
        assert_eq!(q.offer("a", 1), Admit::Accepted);
        assert_eq!(q.offer("b", 1), Admit::Accepted);
        match q.offer("c", 1) {
            Admit::ShedDepth { retry_after_ms } => {
                assert!(retry_after_ms >= 10, "hint {retry_after_ms}")
            }
            other => panic!("expected depth shed, got {other:?}"),
        }
        assert_eq!(q.depth(), 2, "shed items are never queued");
    }

    #[test]
    fn sheds_at_byte_limit_and_release_restores_budget() {
        let q = AdmissionQueue::new(limits(10, 100));
        assert_eq!(q.offer("big", 80), Admit::Accepted);
        assert!(matches!(q.offer("too-much", 30), Admit::ShedBytes { .. }));
        // A smaller item still fits under the remaining budget.
        assert_eq!(q.offer("small", 20), Admit::Accepted);
        assert_eq!(q.inflight_bytes(), 100);
        // Taking a batch does NOT release bytes — responses do.
        let batch = q.take_batch(10).unwrap();
        assert_eq!(batch, vec!["big", "small"]);
        assert_eq!(q.inflight_bytes(), 100);
        q.release(80);
        q.release(20);
        assert_eq!(q.inflight_bytes(), 0);
        assert_eq!(q.offer("next", 100), Admit::Accepted);
        assert_eq!(q.peaks(), (2, 100));
    }

    #[test]
    fn drain_rejects_new_but_flushes_queued() {
        let q = AdmissionQueue::new(limits(10, 1_000));
        assert_eq!(q.offer(1, 1), Admit::Accepted);
        assert_eq!(q.offer(2, 1), Admit::Accepted);
        q.begin_drain();
        assert_eq!(q.offer(3, 1), Admit::Draining);
        assert_eq!(q.take_batch(1).unwrap(), vec![1]);
        assert_eq!(q.take_batch(8).unwrap(), vec![2]);
        assert_eq!(q.take_batch(8), None, "drained and empty");
        assert_eq!(q.take_batch(8), None, "None is sticky");
    }

    #[test]
    fn a_blocked_take_wakes_on_an_arrival_and_on_drain() {
        // The take waits with no timeout, so only `offer`'s and
        // `begin_drain`'s notifies can end it; a lost one hangs the taker
        // and fails a recv below. The sleeps make a blocked taker the
        // likely case; the assertions hold in any interleaving.
        let q = Arc::new(AdmissionQueue::new(limits(4, 100)));
        let (tx, rx) = std::sync::mpsc::channel();
        let taker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                while let Some(batch) = q.take_batch(4) {
                    tx.send(batch).unwrap();
                }
            })
        };
        let wait = Duration::from_secs(10);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.offer(99, 1), Admit::Accepted);
        assert_eq!(rx.recv_timeout(wait), Ok(vec![99]), "no empty batch");
        std::thread::sleep(Duration::from_millis(20));
        q.begin_drain();
        // The taker returns on `None` and drops its sender.
        assert_eq!(rx.recv_timeout(wait), Err(RecvTimeoutError::Disconnected));
        taker.join().unwrap();
    }

    #[test]
    fn dense_arrivals_coalesce_into_one_batch() {
        // A burst queued before the take must come out as one batch,
        // bounded by batch_max.
        let q = AdmissionQueue::new(limits(64, 10_000));
        for i in 0..10 {
            assert_eq!(q.offer(i, 1), Admit::Accepted);
        }
        let batch = q.take_batch(8).unwrap();
        assert_eq!(batch, (0..8).collect::<Vec<_>>());
        let rest = q.take_batch(8).unwrap();
        assert_eq!(rest, vec![8, 9]);
    }

    #[test]
    fn a_poisoned_queue_keeps_serving() {
        let q = AdmissionQueue::new(limits(4, 100));
        assert_eq!(q.offer("before", 10), Admit::Accepted);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = q.state.lock().expect("not yet poisoned");
            panic!("a panic while the lock is held");
        }));
        assert!(poisoned.is_err() && q.state.is_poisoned());
        assert_eq!(q.offer("after", 10), Admit::Accepted);
        assert_eq!(q.take_batch(8).unwrap(), vec!["before", "after"]);
        q.release(20);
        assert_eq!(q.inflight_bytes(), 0);
        q.begin_drain();
        assert_eq!(q.take_batch(8), None);
    }

    #[test]
    #[should_panic(expected = "depth must be positive")]
    fn zero_depth_is_a_constructor_error() {
        let _ = AdmissionQueue::<u8>::new(limits(0, 1));
    }

    #[test]
    fn head_age_tracks_the_oldest_item() {
        let q = AdmissionQueue::new(limits(4, 100));
        assert_eq!(q.head_age(), None, "empty queue has no head");
        assert_eq!(q.offer("old", 1), Admit::Accepted);
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(q.offer("young", 1), Admit::Accepted);
        let age = q.head_age().expect("head exists");
        assert!(
            age >= Duration::from_millis(10),
            "head age {age:?} must reflect the oldest arrival"
        );
        // Taking the old head resets the age to the younger item.
        assert_eq!(q.take_batch(1).unwrap(), vec!["old"]);
        let younger = q.head_age().expect("one item left");
        assert!(younger < age, "age must drop once the old head is taken");
    }
}
