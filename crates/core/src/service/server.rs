//! The `pimserve` server core: acceptor, connection readers,
//! work-conserving batcher, panic quarantine and graceful drain
//! (DESIGN.md §13.3–13.5).
//!
//! Thread topology (all blocking `std::net`; the vendor tree has no
//! async runtime):
//!
//! * one **acceptor** polls the non-blocking listener and spawns a
//!   reader thread per connection;
//! * each **connection reader** blocks in [`read_frame`], runs
//!   admission control and writes shed/invalid/drain responses inline —
//!   rejection never waits behind alignment work;
//! * one **batcher** owns all alignment state: it takes whatever is
//!   queued, drops queue-expired deadlines, aligns the rest via
//!   [`Platform::align_chunk_parallel`] inside `catch_unwind`, and
//!   writes responses back through each request's connection.
//!
//! A batch that panics is retried read-by-read, each read in its own
//! `catch_unwind` — only the poisoned read is answered with a typed
//! `WorkerPanic`; every other in-flight read still gets its real
//! outcome and the pool keeps serving. Drain (`Drain` opcode or
//! [`ServerHandle::begin_drain`]) stops admissions, flushes everything
//! already accepted, then stops the threads — shutting down the read
//! half of every registered connection wakes its blocked reader;
//! [`ServerHandle::join`] returns a [`ServeSummary`] whose invariant —
//! every accepted request answered exactly once — is pinned by the
//! integration tests.
//!
//! The observability plane ([`super::obs`], DESIGN.md §17) threads
//! through all of it: admission mints a `trace_id` per request, every
//! control-plane decision lands in the rolling-window bucket ring,
//! whose cumulative counts are the lifetime counters, the response
//! path emits per-stage spans (admit/queued/batched/aligned/respond)
//! onto one Chrome-trace track per request, and a **watchdog** thread
//! probes the queue's head-of-queue age to catch a stalled batcher.
//! Everything is wall-clock only — simulated cycle counters and SAM
//! bytes are untouched by the plane.

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bioseq::DnaSeq;
use pimsim::json::Json;
use pimsim::HostSpan;

use crate::metrics::{obs_section, service_section, METRICS_SCHEMA_VERSION};
use crate::parallel::BatchTotals;
use crate::platform::Platform;
use crate::report::{ObsTelemetry, PerfReport, ServiceTelemetry, SlowRequest};
use crate::{AlignmentOutcome, MappedStrand};

use super::obs::{log_kv, ObsState};
use super::protocol::{
    decode_request, encode_response, read_frame, write_frame, AlignRequest, Request, Response,
    ShedReason,
};
use super::queue::{AdmissionQueue, Admit, QueueLimits};
use super::{ServiceConfig, ServiceError};

/// Acceptor poll interval on the non-blocking listener. `std::net` has
/// no way to interrupt a blocking `accept` short of connecting to the
/// listener itself, which can fail; so the listener is non-blocking and
/// the acceptor notices the stop flag within one poll after a drain.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Test-fault hook ids (active only with `ServiceConfig::test_faults`):
/// a read with this id panics inside the batcher's unwind boundary.
const FAULT_PANIC_ID: &str = "__panic__";
/// Prefix for the stall hook: `__stall_ms_50__` sleeps the batcher 50 ms
/// before aligning, letting tests saturate the queue deterministically.
const FAULT_STALL_PREFIX: &str = "__stall_ms_";

/// One admitted request waiting for the batcher. The `t_*_ns` fields
/// are stage timestamps on the obs epoch clock; the batcher fills the
/// later ones as the request moves through its pipeline, and the
/// response path turns them into stage spans + the slow-log entry.
struct Pending {
    req_id: u64,
    /// Observability trace id (monotonic, minted at admission); also
    /// the request's span-track id in the Chrome trace export.
    trace_id: u64,
    read_id: String,
    seq: DnaSeq,
    cost_bytes: usize,
    conn: Arc<ConnWriter>,
    deadline: Option<Instant>,
    /// Frame decoded, admission started.
    t_recv_ns: u64,
    /// Admission decided (queued from here on).
    t_admit_ns: u64,
    /// Taken out of the queue by the batcher.
    t_taken_ns: u64,
    /// Alignment call started (== `t_taken_ns` for queue-expired reads).
    t_align_start_ns: u64,
    /// Alignment call returned.
    t_align_end_ns: u64,
}

/// Serialised response writer for one connection. Cloned into every
/// pending request so the batcher can answer out of order; writes are
/// best-effort (a client that hung up still counts as answered — the
/// server's obligation is to produce the response, not to force the
/// client to read it).
struct ConnWriter {
    stream: Mutex<Arc<TcpStream>>,
}

impl ConnWriter {
    /// Writes one response frame. A writer poisoned by a panic part-way
    /// through a frame may have torn the stream, so its connection is shut
    /// down instead: the client sees it close rather than a garbled frame,
    /// and the responder carries on.
    fn send(&self, resp: &Response) {
        let payload = encode_response(resp);
        match self.stream.lock() {
            Ok(stream) => {
                let _ = write_frame(&mut &**stream, &payload);
            }
            Err(poisoned) => {
                let _ = poisoned.into_inner().shutdown(Shutdown::Both);
            }
        }
    }
}

struct Shared {
    platform: Platform,
    config: ServiceConfig,
    queue: AdmissionQueue<Pending>,
    /// Set once the batcher has flushed everything after drain; tells
    /// the acceptor and watchdog to exit.
    stop: AtomicBool,
    /// Every live connection, for the batcher to shut its read half down
    /// at stop: the stream its reader and writer share, held weakly so a
    /// connection whose reader has returned closes once its last reply is
    /// written, and the reader's thread. The batcher stores `stop` before
    /// it takes this lock and the acceptor loads it under the lock, so a
    /// connection accepted mid-sweep is shut down too.
    conns: Mutex<Vec<(Weak<TcpStream>, JoinHandle<()>)>>,
    /// The observability plane — owns the rolling bucket ring, whose
    /// cumulative counts are the lifetime [`ServiceTelemetry`].
    obs: ObsState,
}

impl Shared {
    /// The queue's high-water marks `(depth, bytes)`.
    fn queue_peaks(&self) -> (u64, u64) {
        let (depth, bytes) = self.queue.peaks();
        (depth as u64, bytes as u64)
    }
}

/// What a completed serving run did, returned by [`ServerHandle::join`].
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Admission/deadline/panic/drain counters for the whole run.
    pub telemetry: ServiceTelemetry,
    /// Drain-time observability summary (ring geometry, watchdog
    /// verdicts, slow-request log).
    pub obs: ObsTelemetry,
    /// The batch performance report over every read actually aligned;
    /// `None` when the run aligned nothing (the simulated report is
    /// undefined at zero queries).
    pub report: Option<PerfReport>,
}

impl ServeSummary {
    /// The final metrics document. With aligned work this is the full
    /// [`PerfReport::to_metrics_json`] (service counters included);
    /// with none, a reduced document that still carries the service
    /// and obs sections — a drain must always account for what it
    /// admitted and observed.
    pub fn metrics_json(&self) -> String {
        match &self.report {
            Some(r) => r.to_metrics_json(),
            None => Json::document(|w| {
                w.key("schema_version").u64(METRICS_SCHEMA_VERSION.into());
                service_section(w, &self.telemetry);
                obs_section(w, &self.obs);
            }),
        }
    }
}

/// A running `pimserve` instance: the listener address plus the handles
/// needed to drain and join it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    batcher: JoinHandle<ServeSummary>,
    acceptor: JoinHandle<()>,
    watchdog: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listener address (useful with port-0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Programmatic graceful drain — the in-process equivalent of the
    /// protocol's `Drain` opcode (and of SIGTERM, which a dependency-free
    /// binary cannot hook; see DESIGN.md §13.5). Idempotent.
    pub fn begin_drain(&self) {
        self.shared.queue.begin_drain();
    }

    /// Waits for the drain to complete and returns the run summary.
    /// Blocks until someone initiates a drain ([`Self::begin_drain`] or
    /// a client `Drain` request).
    ///
    /// # Panics
    ///
    /// Panics if a service thread itself panicked — the batcher's
    /// quarantine should make that impossible, so it is a bug worth
    /// crashing on.
    pub fn join(self) -> ServeSummary {
        let summary = self.batcher.join().expect("batcher thread panicked");
        self.acceptor.join().expect("acceptor thread panicked");
        if let Some(watchdog) = self.watchdog {
            watchdog.join().expect("watchdog thread panicked");
        }
        let conns = std::mem::take(&mut *self.shared.conns.lock().expect("conn registry poisoned"));
        for (_, reader) in conns {
            reader.join().expect("connection thread panicked");
        }
        summary
    }
}

/// Binds the service and starts its threads.
///
/// # Errors
///
/// [`ServiceError::InvalidConfig`] when the configuration fails
/// validation; [`ServiceError::Bind`] when the listener cannot bind.
pub fn serve(
    platform: Platform,
    config: ServiceConfig,
    addr: &str,
) -> Result<ServerHandle, ServiceError> {
    config.validate()?;
    let listener = TcpListener::bind(addr).map_err(|e| ServiceError::Bind {
        addr: addr.to_owned(),
        message: e.to_string(),
    })?;
    let local = listener.local_addr().map_err(|e| ServiceError::Bind {
        addr: addr.to_owned(),
        message: e.to_string(),
    })?;
    listener
        .set_nonblocking(true)
        .map_err(|e| ServiceError::Bind {
            addr: addr.to_owned(),
            message: e.to_string(),
        })?;

    let shared = Arc::new(Shared {
        platform,
        queue: AdmissionQueue::new(QueueLimits {
            depth: config.queue_depth,
            max_inflight_bytes: config.max_inflight_bytes,
            retry_after_base_ms: config.retry_after_base_ms,
        }),
        config,
        stop: AtomicBool::new(false),
        conns: Mutex::new(Vec::new()),
        obs: ObsState::new(config.obs_window_secs, config.watchdog_threshold_ms),
    });

    let batcher = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("pimserve-batcher".into())
            .spawn(move || batcher_loop(&shared))
            .expect("spawn batcher thread")
    };
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("pimserve-acceptor".into())
            .spawn(move || acceptor_loop(&listener, &shared))
            .expect("spawn acceptor thread")
    };
    let watchdog = (config.watchdog_threshold_ms > 0).then(|| {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("pimserve-watchdog".into())
            .spawn(move || watchdog_loop(&shared))
            .expect("spawn watchdog thread")
    });

    Ok(ServerHandle {
        addr: local,
        shared,
        batcher,
        acceptor,
        watchdog,
    })
}

/// Probes the queue's head-of-queue age: a head that only ages past the
/// configured threshold means the batcher stopped taking (stalled,
/// wedged on one batch, or starved). Each crossing opens one stall
/// *episode* — counted once, logged once — and the episode closes when
/// the head drains below the threshold. Exits with the stop flag.
fn watchdog_loop(shared: &Arc<Shared>) {
    let threshold_ms = u64::from(shared.config.watchdog_threshold_ms);
    let poll = Duration::from_millis((threshold_ms / 4).clamp(10, 250));
    let mut in_stall = false;
    while !shared.stop.load(Ordering::Relaxed) {
        std::thread::sleep(poll);
        let age_ms = shared
            .queue
            .head_age()
            .map_or(0, |age| age.as_millis() as u64);
        shared.obs.watchdog_observe(age_ms);
        if age_ms > threshold_ms {
            if !in_stall {
                in_stall = true;
                let stalls = shared.obs.watchdog_stall(age_ms);
                log_kv(
                    "watchdog_stall",
                    &[
                        ("head_age_ms", age_ms.to_string()),
                        ("threshold_ms", threshold_ms.to_string()),
                        ("queue_depth", shared.queue.depth().to_string()),
                        ("stalls", stalls.to_string()),
                    ],
                );
            }
        } else {
            in_stall = false;
        }
    }
}

fn acceptor_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let stream = Arc::new(stream);
                let (conn_shared, conn) = (Arc::clone(shared), Arc::clone(&stream));
                let spawned = std::thread::Builder::new()
                    .name("pimserve-conn".into())
                    .spawn(move || connection_loop(&conn_shared, conn));
                match spawned {
                    Ok(reader) => {
                        let mut conns = shared.conns.lock().expect("conn registry poisoned");
                        reap_finished(&mut conns);
                        // The batcher's sweep may already have run.
                        if shared.stop.load(Ordering::Relaxed) {
                            let _ = stream.shutdown(Shutdown::Read);
                        }
                        conns.push((Arc::downgrade(&stream), reader));
                    }
                    // Out of threads: the unspawned closure is dropped and
                    // the stream with it, so this peer sees a close and
                    // the connections already served keep their acceptor.
                    Err(e) => log_kv("conn_spawn_failed", &[("error", e.to_string())]),
                }
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Joins the connection threads that have already returned — their
/// peers hung up — so the registry holds the live connections, not one
/// handle per connection ever accepted.
fn reap_finished(conns: &mut Vec<(Weak<TcpStream>, JoinHandle<()>)>) {
    for (_, reader) in conns.extract_if(.., |(_, reader)| reader.is_finished()) {
        if reader.join().is_err() {
            log_kv("conn_panicked", &[]);
        }
    }
}

/// Reads frames until the peer hangs up, a frame is malformed, or the
/// batcher shuts the read half down at stop — all three end the
/// blocking [`read_frame`] with EOF or an error.
fn connection_loop(shared: &Arc<Shared>, stream: Arc<TcpStream>) {
    stream.set_nodelay(true).ok();
    let mut reader = &*stream;
    let writer = Arc::new(ConnWriter {
        stream: Mutex::new(Arc::clone(&stream)),
    });
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        handle_request(shared, &writer, &payload);
    }
}

fn handle_request(shared: &Arc<Shared>, writer: &Arc<ConnWriter>, payload: &[u8]) {
    match decode_request(payload) {
        Err(e) => {
            shared.obs.not_admitted(ShedReason::Invalid);
            writer.send(&Response::Invalid {
                req_id: 0,
                message: e.to_string(),
            });
        }
        // Stats/Prom are answered inline by the connection reader: they
        // never enter the admission queue, so they are never shed and
        // stay answerable while the queue is saturated or draining.
        Ok(Request::Stats { req_id }) => {
            let json = shared.obs.stats_json(
                shared.queue_peaks(),
                shared.queue.depth() as u64,
                shared.queue.inflight_bytes() as u64,
            );
            writer.send(&Response::Stats { req_id, json });
        }
        Ok(Request::Prom { req_id }) => {
            let text = shared.obs.prometheus_text(
                shared.queue.depth() as u64,
                shared.queue.inflight_bytes() as u64,
            );
            writer.send(&Response::Prom { req_id, text });
        }
        Ok(Request::Drain { req_id }) => {
            shared.queue.begin_drain();
            log_kv("drain_started", &[("req_id", req_id.to_string())]);
            writer.send(&Response::DrainStarted { req_id });
        }
        Ok(Request::Align(req)) => admit_align(shared, writer, req),
    }
}

fn admit_align(shared: &Arc<Shared>, writer: &Arc<ConnWriter>, req: AlignRequest) {
    let t_recv_ns = shared.obs.now_ns();
    shared.obs.received();
    let seq: DnaSeq = match req.seq.parse() {
        Ok(s) => s,
        Err(e) => {
            shared.obs.not_admitted(ShedReason::Invalid);
            writer.send(&Response::Invalid {
                req_id: req.req_id,
                message: format!("read {:?}: {e}", req.id),
            });
            return;
        }
    };
    if seq.is_empty() {
        shared.obs.not_admitted(ShedReason::Invalid);
        writer.send(&Response::Invalid {
            req_id: req.req_id,
            message: format!("read {:?}: empty sequence", req.id),
        });
        return;
    }
    let deadline_ms = if req.deadline_ms > 0 {
        req.deadline_ms
    } else {
        shared.config.default_deadline_ms
    };
    let deadline =
        (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(u64::from(deadline_ms)));
    let cost_bytes = req.seq.len().max(1);
    let t_admit_ns = shared.obs.now_ns();
    let pending = Pending {
        req_id: req.req_id,
        trace_id: shared.obs.mint_trace_id(),
        read_id: req.id,
        seq,
        cost_bytes,
        conn: Arc::clone(writer),
        deadline,
        t_recv_ns,
        t_admit_ns,
        t_taken_ns: t_admit_ns,
        t_align_start_ns: t_admit_ns,
        t_align_end_ns: t_admit_ns,
    };
    let req_id = pending.req_id;
    match shared.queue.offer(pending, cost_bytes) {
        Admit::Accepted => shared.obs.accepted(
            shared.queue.depth() as u64,
            shared.queue.inflight_bytes() as u64,
        ),
        Admit::ShedDepth { retry_after_ms } => {
            shared.obs.not_admitted(ShedReason::QueueDepth);
            writer.send(&Response::Overloaded {
                req_id,
                retry_after_ms,
                reason: ShedReason::QueueDepth,
            });
        }
        Admit::ShedBytes { retry_after_ms } => {
            shared.obs.not_admitted(ShedReason::InflightBytes);
            writer.send(&Response::Overloaded {
                req_id,
                retry_after_ms,
                reason: ShedReason::InflightBytes,
            });
        }
        Admit::Draining => {
            shared.obs.not_admitted(ShedReason::Draining);
            writer.send(&Response::Draining { req_id });
        }
    }
}

/// Writes one response to an *accepted* request: latency lands in the
/// per-request histogram and the obs bucket ring, the request's bytes
/// return to the budget, the answered-exactly-once counter moves, and
/// the request's five stage spans (admit/queued/batched/aligned/
/// respond) land on its own trace track (`tid == trace_id`).
fn respond(shared: &Shared, totals: &mut BatchTotals, p: Pending, resp: &Response) {
    let late =
        matches!(resp, Response::Aligned { .. }) && p.deadline.is_some_and(|d| Instant::now() > d);
    p.conn.send(resp);
    let t_done_ns = shared.obs.now_ns();
    let total_ns = t_done_ns.saturating_sub(p.t_recv_ns);
    totals.host.per_request.record_ns(total_ns);
    shared.queue.release(p.cost_bytes);
    let entry = SlowRequest {
        trace_id: p.trace_id,
        req_id: p.req_id,
        total_ns,
        admit_ns: p.t_admit_ns.saturating_sub(p.t_recv_ns),
        queued_ns: p.t_taken_ns.saturating_sub(p.t_admit_ns),
        batched_ns: p.t_align_start_ns.saturating_sub(p.t_taken_ns),
        aligned_ns: p.t_align_end_ns.saturating_sub(p.t_align_start_ns),
        respond_ns: t_done_ns.saturating_sub(p.t_align_end_ns),
    };
    shared.obs.response(late, entry);
    let tid = p.trace_id as u32;
    let stages = [
        ("admit", p.t_recv_ns, entry.admit_ns),
        ("queued", p.t_admit_ns, entry.queued_ns),
        ("batched", p.t_taken_ns, entry.batched_ns),
        ("aligned", p.t_align_start_ns, entry.aligned_ns),
        ("respond", p.t_align_end_ns, entry.respond_ns),
    ];
    let spans = stages.map(|(name, start_ns, dur_ns)| HostSpan {
        name,
        tid,
        start_ns,
        dur_ns,
    });
    totals.host.absorb_spans(spans.to_vec(), 0);
}

fn aligned_response(req_id: u64, outcome: &AlignmentOutcome, strand: MappedStrand) -> Response {
    use super::protocol::AlignStatus;
    let status = match outcome {
        AlignmentOutcome::Exact { positions } => AlignStatus::Mapped {
            reverse: strand == MappedStrand::Reverse,
            diffs: 0,
            positions: positions.iter().map(|&p| p as u64).collect(),
        },
        AlignmentOutcome::Inexact { positions, diffs } => AlignStatus::Mapped {
            reverse: strand == MappedStrand::Reverse,
            diffs: *diffs,
            positions: positions.iter().map(|&p| p as u64).collect(),
        },
        AlignmentOutcome::Unmapped => AlignStatus::Unmapped,
    };
    Response::Aligned { req_id, status }
}

fn batcher_loop(shared: &Arc<Shared>) -> ServeSummary {
    let mut totals = BatchTotals::new();
    let mut epoch: u64 = 0;
    while let Some(mut batch) = shared.queue.take_batch(shared.config.batch_max) {
        let t_taken_ns = shared.obs.now_ns();
        for p in &mut batch {
            p.t_taken_ns = t_taken_ns;
        }
        // Opt-in stall hook: lets tests hold the batcher busy while the
        // queue saturates, deterministically.
        if shared.config.test_faults {
            for p in &batch {
                if let Some(ms) = p
                    .read_id
                    .strip_prefix(FAULT_STALL_PREFIX)
                    .and_then(|s| s.trim_end_matches('_').parse::<u64>().ok())
                {
                    std::thread::sleep(Duration::from_millis(ms));
                }
            }
        }
        // Deadline gate: a request that expired while queued never
        // reaches alignment.
        let now = Instant::now();
        let mut live = Vec::with_capacity(batch.len());
        for mut p in batch {
            if p.deadline.is_some_and(|d| d <= now) {
                shared.obs.expired_in_queue();
                let t = shared.obs.now_ns();
                p.t_align_start_ns = t;
                p.t_align_end_ns = t;
                let resp = Response::DeadlineExceeded { req_id: p.req_id };
                respond(shared, &mut totals, p, &resp);
            } else {
                live.push(p);
            }
        }
        if live.is_empty() {
            continue;
        }
        epoch += 1;
        align_batch(shared, &mut totals, live, epoch);
    }
    // Drained and flushed: release the acceptor and watchdog, wake every
    // blocked reader by ending its read half — the write half stays open,
    // so a `DrainStarted` reply still in flight is not cut off — then
    // summarise.
    shared.stop.store(true, Ordering::Relaxed);
    for (conn, _) in shared.conns.lock().expect("conn registry poisoned").iter() {
        if let Some(stream) = conn.upgrade() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
    let telemetry = shared.obs.lifetime(shared.queue_peaks());
    let obs = shared.obs.telemetry();
    let report = (totals.queries > 0).then(|| {
        let mut report = shared.platform.batch_report(&totals);
        report.service = telemetry;
        report.obs = obs.clone();
        report
    });
    ServeSummary {
        telemetry,
        obs,
        report,
    }
}

fn align_batch(shared: &Arc<Shared>, totals: &mut BatchTotals, live: Vec<Pending>, epoch: u64) {
    let mut live = live;
    shared.obs.batch(live.len() as u64);
    let t_start = shared.obs.now_ns();
    for p in &mut live {
        p.t_align_start_ns = t_start;
    }
    let inject_panic =
        shared.config.test_faults && live.iter().any(|p| p.read_id == FAULT_PANIC_ID);
    let seqs: Vec<DnaSeq> = live.iter().map(|p| p.seq.clone()).collect();
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            panic!("injected worker fault");
        }
        shared.platform.align_chunk_parallel(
            &seqs,
            shared.config.threads,
            epoch,
            shared.config.both_strands,
        )
    }));
    let t_end = shared.obs.now_ns();
    for p in &mut live {
        p.t_align_end_ns = t_end;
    }
    match attempt {
        Ok(Ok((outcomes, batch_totals))) => {
            totals.merge(&batch_totals);
            for (p, (outcome, strand)) in live.into_iter().zip(outcomes) {
                let resp = aligned_response(p.req_id, &outcome, strand);
                respond(shared, totals, p, &resp);
            }
        }
        // An AlignError cannot happen here (the batch is non-empty and
        // threads were validated positive), but a typed response beats
        // an unreachable!: treat it like a quarantined batch.
        Ok(Err(_)) | Err(_) => {
            for (index, p) in live.into_iter().enumerate() {
                align_one_quarantined(shared, totals, p, epoch, index);
            }
        }
    }
}

/// Retries read `index` of a panicked batch inside its own unwind
/// boundary, from the fault stream it draws in the batch. Only the read
/// that actually panics is answered with a typed `WorkerPanic`; its
/// neighbours get the outcomes the batch would have given them.
fn align_one_quarantined(
    shared: &Arc<Shared>,
    totals: &mut BatchTotals,
    p: Pending,
    epoch: u64,
    index: usize,
) {
    let mut p = p;
    let inject = shared.config.test_faults && p.read_id == FAULT_PANIC_ID;
    p.t_align_start_ns = shared.obs.now_ns();
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        if inject {
            panic!("injected worker fault");
        }
        let both_strands = shared.config.both_strands;
        shared
            .platform
            .align_read_at(&p.seq, epoch, index, both_strands)
    }));
    p.t_align_end_ns = shared.obs.now_ns();
    let resp = match attempt {
        Ok(((outcome, strand), read_totals)) => {
            totals.merge(&read_totals);
            aligned_response(p.req_id, &outcome, strand)
        }
        Err(_) => {
            shared.obs.panic_quarantined();
            log_kv(
                "panic_quarantined",
                &[
                    ("trace_id", p.trace_id.to_string()),
                    ("req_id", p.req_id.to_string()),
                    ("read_id", format!("{:?}", p.read_id)),
                ],
            );
            Response::WorkerPanic {
                req_id: p.req_id,
                message: format!(
                    "alignment panicked for read {:?}; read quarantined",
                    p.read_id
                ),
            }
        }
    };
    respond(shared, totals, p, &resp);
}

#[cfg(test)]
mod tests {
    use super::super::protocol::Client;
    use super::*;
    use crate::PimAlignerConfig;
    use std::io::{Read, Write};

    fn start() -> ServerHandle {
        let reference: DnaSeq = "TGCTAGCATGAACCTTGGAACGTACGTTAGCATCGATCGGATTACAGATTACAGGG"
            .parse()
            .expect("reference parses");
        let platform = Platform::new(reference.to_packed(), PimAlignerConfig::baseline());
        serve(platform, ServiceConfig::default(), "127.0.0.1:0").expect("serves")
    }

    #[test]
    fn closed_connections_are_reaped_not_kept_until_drain() {
        let handle = start();
        let addr = handle.local_addr().to_string();
        for req_id in 0..200 {
            let mut client = Client::connect(&addr).expect("connects");
            let answer = client
                .align(req_id, "r", "GATTACAGATTACA", 0)
                .expect("answers");
            assert_eq!(answer.req_id(), req_id);
        }
        // Each accept joins the connections that closed before it; only
        // the last few can still be on their way out.
        let held = handle.shared.conns.lock().expect("registry").len();
        assert!(held <= 8, "{held} handles for 200 closed connections");
        handle.begin_drain();
        assert_eq!(handle.join().telemetry.accepted, 200);
    }

    /// Everything `peer` receives until the server closes it, read on a
    /// thread of its own: a peer still open after 30 s fails the test
    /// instead of hanging it.
    fn read_to_close(mut peer: TcpStream) -> Vec<u8> {
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut received = Vec::new();
            tx.send(peer.read_to_end(&mut received).map(|_| received))
        });
        let read = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("closed in 30 s");
        reader.join().expect("reader thread").expect("sent");
        read.expect("reads to the close")
    }

    #[test]
    fn readers_end_on_a_bad_frame_and_at_drain_with_no_timeout() {
        let handle = start();
        let addr = handle.local_addr();
        // A frame over the cap ends its reader, and the peer sees the
        // close then, not when a later accept or the drain reaps it.
        let mut oversized = TcpStream::connect(addr).expect("connects");
        oversized.write_all(&[0xff; 4]).expect("writes");
        assert_eq!(read_to_close(oversized), vec![]);
        // One peer stops two bytes into a length prefix, one never sends:
        // both readers block in a read with no timeout.
        let mut torn = TcpStream::connect(addr).expect("connects");
        torn.write_all(&[0, 0]).expect("writes half a prefix");
        let idle = TcpStream::connect(addr).expect("connects");
        // Accepted in order, so both silent peers are registered by the
        // time this one is answered.
        let mut client = Client::connect(&addr.to_string()).expect("connects");
        let answer = client.align(1, "r", "GATTACAGATTACA", 0).expect("answers");
        assert!(matches!(answer, Response::Aligned { req_id: 1, .. }));
        let ack = client.drain(2).expect("drains");
        assert!(matches!(ack, Some(Response::DrainStarted { req_id: 2 })));
        // Drain wakes both blocked readers, which close their peers.
        assert_eq!([torn, idle].map(read_to_close), [vec![], vec![]]);
        let served = handle.join().telemetry;
        assert_eq!((served.accepted, served.responses), (1, 1));
    }

    #[test]
    fn a_poisoned_writer_closes_its_connection_without_panicking() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connects");
        let (server_side, _) = listener.accept().expect("accepts");
        let writer = ConnWriter {
            stream: Mutex::new(Arc::new(server_side)),
        };
        let torn = catch_unwind(AssertUnwindSafe(|| {
            let _held = writer.stream.lock().expect("not yet poisoned");
            panic!("a panic part-way through a frame");
        }));
        assert!(torn.is_err() && writer.stream.is_poisoned());
        writer.send(&Response::WorkerPanic {
            req_id: 1,
            message: "unsent".into(),
        });
        let received = read_to_close(client);
        assert!(
            received.is_empty(),
            "{} bytes after the poison",
            received.len()
        );
    }
}
