//! Integration: the `pimserve` service core under deliberate abuse.
//!
//! These tests run the real server (`service::serve`) over loopback with
//! the deterministic test-fault hooks enabled and pin the four overload
//! invariants of DESIGN.md §13:
//!
//! 1. a saturated queue sheds with typed `Overloaded` responses and the
//!    in-flight byte budget is never exceeded;
//! 2. a request whose deadline expires in the queue is answered
//!    `DeadlineExceeded` and never reaches the aligner;
//! 3. a read that panics the worker poisons only its own response —
//!    batchmates still get real outcomes and the pool keeps serving;
//! 4. graceful drain answers every accepted request exactly once and
//!    rejects late arrivals with `Draining`.

use std::collections::BTreeMap;
use std::time::Duration;

use bioseq::DnaSeq;
use mram::faults::FaultCampaign;
use pim_aligner::service::protocol::{AlignRequest, AlignStatus, Client, Request, Response};
use pim_aligner::service::{serve, ServerHandle, ServiceConfig};
use pim_aligner::{PimAlignerConfig, Platform};

/// A fixed reference every test aligns against; `READ` maps exactly.
const REFERENCE: &str = "TGCTAGCATGAACCTTGGAACGTACGTTAGCATCGATCGGATTACAGATTACAGGG";
const READ: &str = "GATTACAGATTACA";

fn start_server(config: ServiceConfig) -> ServerHandle {
    let reference: DnaSeq = REFERENCE.parse().expect("reference parses");
    let platform = Platform::new(reference.to_packed(), PimAlignerConfig::baseline());
    serve(platform, config, "127.0.0.1:0").expect("server starts")
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(&handle.local_addr().to_string()).expect("client connects")
}

fn send_align(client: &mut Client, req_id: u64, id: &str, seq: &str, deadline_ms: u32) {
    client
        .send(&Request::Align(AlignRequest {
            req_id,
            deadline_ms,
            id: id.to_owned(),
            seq: seq.to_owned(),
        }))
        .expect("send align");
}

/// Receives until every listed req_id has exactly one response.
fn collect_responses(client: &mut Client, req_ids: &[u64]) -> BTreeMap<u64, Response> {
    let mut got = BTreeMap::new();
    while got.len() < req_ids.len() {
        let resp = client
            .recv()
            .expect("receive response")
            .expect("server closed before answering everything");
        let id = resp.req_id();
        assert!(req_ids.contains(&id), "unsolicited response for {id}");
        assert!(
            got.insert(id, resp).is_none(),
            "request {id} answered twice"
        );
    }
    got
}

/// Stalls the batcher: sends one hook read and waits long enough for the
/// batcher to have taken it into a batch (and begun sleeping), so
/// everything sent afterwards piles up in the admission queue.
fn stall_batcher(client: &mut Client, req_id: u64, ms: u64) {
    send_align(client, req_id, &format!("__stall_ms_{ms}__"), READ, 0);
    std::thread::sleep(Duration::from_millis(40));
}

#[test]
fn saturated_queue_sheds_with_typed_overloaded_and_bounded_bytes() {
    let config = ServiceConfig {
        queue_depth: 4,
        max_inflight_bytes: 4 * READ.len() + 1,
        test_faults: true,
        ..ServiceConfig::default()
    };
    let max_inflight_bytes = config.max_inflight_bytes;
    let handle = start_server(config);
    let mut client = connect(&handle);

    // Hold the batcher busy so the burst below cannot drain.
    stall_batcher(&mut client, 0, 250);

    // Burst well past both limits. The stall read's bytes are still
    // charged (admitted, unanswered), so the byte budget trips first,
    // then the depth limit once shorter reads fill the four slots.
    let burst: Vec<u64> = (1..=12).collect();
    for &id in &burst {
        send_align(&mut client, id, &format!("r{id}"), READ, 0);
    }
    let responses = collect_responses(&mut client, &[&[0u64][..], &burst[..]].concat());

    let mut aligned = 0;
    let mut shed = 0;
    for (&id, resp) in &responses {
        match resp {
            Response::Aligned { .. } => aligned += 1,
            Response::Overloaded { retry_after_ms, .. } => {
                shed += 1;
                assert!(
                    *retry_after_ms > 0,
                    "shed response for {id} carries no retry-after hint"
                );
            }
            other => panic!("request {id}: expected Aligned or Overloaded, got {other:?}"),
        }
    }
    assert!(shed > 0, "burst past the limits must shed something");
    assert!(aligned > 0, "admitted requests must still be served");

    let mut drainer = connect(&handle);
    drainer.drain(99).expect("drain");
    let summary = handle.join();
    assert_eq!(summary.telemetry.shed_total(), shed);
    assert!(
        summary.telemetry.peak_inflight_bytes <= max_inflight_bytes as u64,
        "peak in-flight bytes {} exceeded the budget {}",
        summary.telemetry.peak_inflight_bytes,
        max_inflight_bytes
    );
    assert_eq!(summary.telemetry.accepted, summary.telemetry.responses);
}

#[test]
fn queue_expired_deadline_is_answered_without_reaching_the_aligner() {
    let config = ServiceConfig {
        test_faults: true,
        ..ServiceConfig::default()
    };
    let handle = start_server(config);
    let mut client = connect(&handle);

    // The batcher sleeps 300 ms; the next request's 50 ms deadline
    // expires while it waits in the queue.
    stall_batcher(&mut client, 0, 300);
    send_align(&mut client, 1, "expires-in-queue", READ, 50);

    let responses = collect_responses(&mut client, &[0, 1]);
    assert!(
        matches!(responses[&1], Response::DeadlineExceeded { .. }),
        "expected DeadlineExceeded, got {:?}",
        responses[&1]
    );

    let mut drainer = connect(&handle);
    drainer.drain(99).expect("drain");
    let summary = handle.join();
    assert_eq!(summary.telemetry.expired_in_queue, 1);
    assert_eq!(summary.telemetry.deadline_misses(), 1);
    // Exactly two batches aligned anything: the stall read's and none
    // for the expired request (it never reached the aligner).
    assert_eq!(summary.telemetry.accepted, 2);
    assert_eq!(summary.telemetry.responses, 2);
    let report = summary.report.expect("the stall read was aligned");
    assert_eq!(report.service.expired_in_queue, 1);
}

#[test]
fn panicking_read_poisons_only_its_own_response() {
    let config = ServiceConfig {
        test_faults: true,
        ..ServiceConfig::default()
    };
    let handle = start_server(config);
    let mut client = connect(&handle);

    // Stall so the poisoned read and its three neighbours coalesce into
    // one batch behind the stall.
    stall_batcher(&mut client, 0, 150);
    send_align(&mut client, 1, "good-1", READ, 0);
    send_align(&mut client, 2, "__panic__", READ, 0);
    send_align(&mut client, 3, "good-3", READ, 0);
    send_align(&mut client, 4, "good-4", READ, 0);

    let responses = collect_responses(&mut client, &[0, 1, 2, 3, 4]);
    assert!(
        matches!(responses[&2], Response::WorkerPanic { .. }),
        "poisoned read must get a typed WorkerPanic, got {:?}",
        responses[&2]
    );
    for id in [0u64, 1, 3, 4] {
        assert!(
            matches!(responses[&id], Response::Aligned { .. }),
            "batchmate {id} must still get its real outcome, got {:?}",
            responses[&id]
        );
    }

    // The pool survived the panic: a fresh request still aligns.
    let after = client.align(5, "after-panic", READ, 0).expect("round trip");
    assert!(
        matches!(after, Response::Aligned { .. }),
        "pool must keep serving after a quarantined panic, got {after:?}"
    );

    let mut drainer = connect(&handle);
    drainer.drain(99).expect("drain");
    let summary = handle.join();
    assert_eq!(summary.telemetry.panics_quarantined, 1);
    assert_eq!(summary.telemetry.accepted, summary.telemetry.responses);
}

/// A panicked batch re-aligns its reads one at a time, each from the
/// fault stream it draws in the batch: under a fault campaign every
/// neighbour of the poisoned read gets the answer the same batch gives it
/// when nothing panics.
#[test]
fn quarantined_neighbours_keep_their_fault_streams() {
    let genome = readsim::genome::uniform(20_000, 0x9a7);
    let read = genome.subseq(4_500..4_560).to_string();
    const POISONED: u64 = 6;
    let statuses = |panic: bool| -> Vec<Option<AlignStatus>> {
        let config = PimAlignerConfig::baseline()
            .with_fault_campaign(FaultCampaign::seeded(11).with_xnor_misread_prob(5e-4));
        let service = ServiceConfig {
            test_faults: true,
            both_strands: false,
            ..ServiceConfig::default()
        };
        let platform = Platform::new(genome.to_packed(), config);
        let handle = serve(platform, service, "127.0.0.1:0").expect("server starts");
        let mut client = connect(&handle);
        // All twelve reads wait behind the stall and form one batch.
        stall_batcher(&mut client, 0, 150);
        for req_id in 1..=12 {
            let poisoned = panic && req_id == POISONED;
            send_align(
                &mut client,
                req_id,
                if poisoned { "__panic__" } else { "r" },
                &read,
                0,
            );
        }
        let ids: Vec<u64> = (0..=12).collect();
        let responses = collect_responses(&mut client, &ids);
        connect(&handle).drain(99).expect("drain");
        assert_eq!(handle.join().telemetry.panics_quarantined, u64::from(panic));
        let status = |id| match &responses[&id] {
            Response::Aligned { status, .. } => Some(status.clone()),
            _ => None,
        };
        (1..=12).map(status).collect()
    };
    let (clean, poisoned) = (statuses(false), statuses(true));
    // One read twelve times over: only the fault streams tell them apart.
    assert!(clean.iter().any(|s| *s != clean[0]), "{clean:?}");
    for (req_id, (clean, poisoned)) in (1..).zip(clean.iter().zip(&poisoned)) {
        if req_id == POISONED {
            assert_eq!(poisoned, &None, "a WorkerPanic");
        } else {
            assert_eq!(poisoned, clean, "neighbour {req_id}");
        }
    }
}

#[test]
fn drain_answers_every_accepted_request_exactly_once_and_rejects_late_arrivals() {
    let config = ServiceConfig {
        test_faults: true,
        ..ServiceConfig::default()
    };
    let handle = start_server(config);
    let mut client = connect(&handle);

    // Queue work behind a stall, then drain while it is still in flight.
    stall_batcher(&mut client, 0, 200);
    let queued: Vec<u64> = (1..=5).collect();
    for &id in &queued {
        send_align(&mut client, id, &format!("r{id}"), READ, 0);
    }
    // Admission barrier: frames on one connection are handled in order,
    // so the Stats acknowledgement proves all five aligns were admitted
    // before the drain below closes the door. Anything the batcher
    // answered in the meantime is stashed for the final accounting.
    client.send(&Request::Stats { req_id: 80 }).expect("stats");
    let mut responses = BTreeMap::new();
    loop {
        let resp = client.recv().expect("recv").expect("server open");
        if resp.req_id() == 80 {
            break;
        }
        responses.insert(resp.req_id(), resp);
    }

    let mut late = connect(&handle);
    let ack = late.drain(90).expect("drain").expect("drain acked");
    assert!(matches!(ack, Response::DrainStarted { req_id: 90 }));
    // Admission is closed from the instant of the ack; the flush of the
    // five queued requests is still running.
    send_align(&mut late, 91, "too-late", READ, 0);
    let rejected = late.recv().expect("recv").expect("answered");
    assert!(
        matches!(rejected, Response::Draining { req_id: 91 }),
        "post-drain request must be rejected as Draining, got {rejected:?}"
    );

    // Every request accepted before the drain still gets its answer.
    let expected: Vec<u64> = [&[0u64][..], &queued[..]].concat();
    let remaining: Vec<u64> = expected
        .iter()
        .copied()
        .filter(|id| !responses.contains_key(id))
        .collect();
    responses.extend(collect_responses(&mut client, &remaining));
    for (&id, resp) in &responses {
        assert!(
            matches!(resp, Response::Aligned { .. }),
            "accepted request {id} must be flushed with a real outcome, got {resp:?}"
        );
    }

    let summary = handle.join();
    assert_eq!(summary.telemetry.accepted, 6);
    assert_eq!(
        summary.telemetry.responses, summary.telemetry.accepted,
        "drain must answer every accepted request exactly once"
    );
    assert_eq!(summary.telemetry.rejected_draining, 1);
    let report = summary.report.expect("six reads aligned");
    assert_eq!(report.service.responses, 6);
}

#[test]
fn drain_with_nothing_aligned_still_reports_service_counters() {
    let handle = start_server(ServiceConfig::default());
    let mut client = connect(&handle);
    client.drain(1).expect("drain");
    let summary = handle.join();
    assert!(summary.report.is_none(), "nothing aligned, no perf report");
    let json = summary.metrics_json();
    assert!(json.contains("\"service\""), "reduced document: {json}");
    assert!(json.contains("\"schema_version\""));
}
