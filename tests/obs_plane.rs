//! Integration: the live observability plane over a real server.
//!
//! These tests run `service::serve` on loopback and pin the obs-plane
//! contracts of DESIGN.md §17:
//!
//! 1. a live `Stats` snapshot reconciles **exactly**: the rolling ring's
//!    cumulative aggregate equals the lifetime `service` counters
//!    field-for-field, and (within the first window) so do the windowed
//!    sums — the per-second ring loses nothing;
//! 2. `Stats` and `Prom` are answered inline while the admission queue
//!    is saturated and the batcher is stalled — the exposition path is
//!    never queued and never shed;
//! 3. the watchdog detects a batcher stall deterministically via the
//!    `__stall_ms_N__` hook and counts exactly one episode per
//!    crossing.

use std::time::Duration;

use bench::json::{self, Value};
use bioseq::DnaSeq;
use pim_aligner::service::protocol::{AlignRequest, Client, Request, Response};
use pim_aligner::service::{serve, ServerHandle, ServiceConfig};
use pim_aligner::{PimAlignerConfig, Platform};

const REFERENCE: &str = "TGCTAGCATGAACCTTGGAACGTACGTTAGCATCGATCGGATTACAGATTACAGGG";
const READ: &str = "GATTACAGATTACA";

/// The counters shared by the lifetime telemetry, the ring buckets and
/// every windowed view.
const COUNTERS: [&str; 11] = [
    "received",
    "accepted",
    "shed_queue_full",
    "shed_inflight_bytes",
    "rejected_draining",
    "rejected_invalid",
    "expired_in_queue",
    "late_responses",
    "panics_quarantined",
    "batches",
    "responses",
];

fn start_server(config: ServiceConfig) -> ServerHandle {
    let reference: DnaSeq = REFERENCE.parse().expect("reference parses");
    let platform = Platform::new(reference.to_packed(), PimAlignerConfig::baseline());
    serve(platform, config, "127.0.0.1:0").expect("server starts")
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(&handle.local_addr().to_string()).expect("client connects")
}

fn send_align(client: &mut Client, req_id: u64, id: &str, seq: &str) {
    client
        .send(&Request::Align(AlignRequest {
            req_id,
            deadline_ms: 0,
            id: id.to_owned(),
            seq: seq.to_owned(),
        }))
        .expect("send align");
}

fn as_u64(doc: &Value, path: &str) -> u64 {
    doc.get(path)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("snapshot missing {path}"))
}

#[test]
fn live_stats_snapshot_reconciles_windows_with_lifetime() {
    let handle = start_server(ServiceConfig::default());
    let mut client = connect(&handle);
    const N: u64 = 5;
    for i in 0..N {
        send_align(&mut client, i, &format!("r{i}"), READ);
    }
    for _ in 0..N {
        let resp = client.recv().expect("recv").expect("server open");
        assert!(matches!(resp, Response::Aligned { .. }));
    }
    // The response write precedes the counter update by a few
    // instructions; settle before demanding exact totals.
    std::thread::sleep(Duration::from_millis(100));

    let mut scraper = connect(&handle);
    let snapshot = scraper.stats(900).expect("stats over the wire");
    let doc = json::parse(&snapshot).expect("stats snapshot parses");

    // Exact reconciliation, field for field: lifetime == ring cumulative
    // == the widest window (the whole run fits inside 60 s).
    for name in COUNTERS {
        let lifetime = as_u64(&doc, &format!("service.{name}"));
        let cumulative = as_u64(&doc, &format!("cumulative.{name}"));
        let w60 = as_u64(&doc, &format!("windows.w60.{name}"));
        assert_eq!(cumulative, lifetime, "{name}: ring drifted from lifetime");
        assert_eq!(w60, lifetime, "{name}: 60s window lost events");
    }
    assert_eq!(as_u64(&doc, "service.received"), N);
    assert_eq!(as_u64(&doc, "service.responses"), N);
    assert_eq!(as_u64(&doc, "cumulative.latency.count"), N);
    assert!(as_u64(&doc, "uptime_secs") >= 1);

    // Every answered request is a slow-log candidate; with 5 requests
    // and capacity 16 all of them are present, sorted slowest-first.
    let slow = doc.get("slow").and_then(Value::as_array).expect("slow[]");
    assert_eq!(slow.len(), N as usize);
    let totals: Vec<u64> = slow
        .iter()
        .map(|s| s.get("total_ns").and_then(Value::as_u64).expect("total_ns"))
        .collect();
    assert!(
        totals.windows(2).all(|w| w[0] >= w[1]),
        "not sorted: {totals:?}"
    );
    assert!(totals.iter().all(|&t| t > 0));

    let mut drainer = connect(&handle);
    drainer.drain(999).expect("drain");
    let summary = handle.join();
    // The drain-time obs telemetry agrees with what the wire reported.
    assert_eq!(summary.telemetry.responses, N);
    assert_eq!(summary.obs.slow.len(), N as usize);
    assert_eq!(summary.obs.watchdog_stalls, 0);
    // Trace spans reached the report: five stage spans per request, one
    // Perfetto track (tid) per trace id.
    let report = summary.report.expect("aligned work yields a report");
    assert_eq!(report.host.spans.len(), 5 * N as usize);
    let mut tids: Vec<u32> = report.host.spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    assert_eq!(tids.len(), N as usize, "one track per request");
}

/// The `Stats` snapshot is parsed by `pimbench` (`service.*`) and by
/// dashboards, so its leaf paths are pinned like the metrics document's.
#[test]
fn stats_schema_matches_golden_file() {
    let handle = start_server(ServiceConfig::default());
    let mut client = connect(&handle);
    send_align(&mut client, 0, "r0", READ);
    let resp = client.recv().expect("recv").expect("server open");
    assert!(matches!(resp, Response::Aligned { .. }));
    std::thread::sleep(Duration::from_millis(100));

    let snapshot = connect(&handle).stats(900).expect("stats over the wire");
    let doc = json::parse(&snapshot).expect("stats snapshot parses");
    let actual = doc.schema_paths().join("\n") + "\n";
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/stats_schema.txt");
    let golden = std::fs::read_to_string(golden_path)
        .unwrap_or_else(|e| panic!("cannot read {golden_path}: {e}"));
    connect(&handle).drain(999).expect("drain");
    handle.join();
    assert_eq!(
        actual, golden,
        "Stats snapshot schema drifted from tests/golden/stats_schema.txt.\n\
         If the change is intentional, write the `actual` value above to the\n\
         golden file and update pimbench's `during()`/`scrape()` readers."
    );
}

#[test]
fn stats_and_prom_answer_inline_while_saturated() {
    let config = ServiceConfig {
        queue_depth: 2,
        test_faults: true,
        ..ServiceConfig::default()
    };
    let handle = start_server(config);
    let mut client = connect(&handle);
    // Stall the batcher, then fill the queue behind it.
    send_align(&mut client, 0, "__stall_ms_400__", READ);
    std::thread::sleep(Duration::from_millis(40));
    send_align(&mut client, 1, "q1", READ);
    send_align(&mut client, 2, "q2", READ);
    std::thread::sleep(Duration::from_millis(20));

    // A separate connection gets its Stats and Prom answers immediately
    // even though the align queue is full and the batcher is asleep.
    let mut scraper = connect(&handle);
    let t0 = std::time::Instant::now();
    let snapshot = scraper.stats(900).expect("stats while saturated");
    let prom = scraper.prom(901).expect("prom while saturated");
    assert!(
        t0.elapsed() < Duration::from_millis(300),
        "exposition waited on the stalled batcher"
    );
    let doc = json::parse(&snapshot).expect("snapshot parses");
    assert_eq!(as_u64(&doc, "gauges.queue_depth"), 2, "queue saturated");
    assert_eq!(as_u64(&doc, "service.accepted"), 3);
    assert!(prom.contains("# TYPE pimserve_queue_depth gauge"));
    assert!(prom.contains("pimserve_queue_depth 2"));
    assert!(prom.contains("pimserve_requests_total{outcome=\"accepted\"} 3"));

    for _ in 0..3 {
        client.recv().expect("recv").expect("server open");
    }
    let mut drainer = connect(&handle);
    drainer.drain(999).expect("drain");
    handle.join();
}

#[test]
fn watchdog_detects_a_batcher_stall() {
    let config = ServiceConfig {
        watchdog_threshold_ms: 50,
        test_faults: true,
        ..ServiceConfig::default()
    };
    let handle = start_server(config);
    let mut client = connect(&handle);
    // The stall read is *taken* into a batch and sleeps there; the next
    // request then ages at the head of the queue past the threshold.
    send_align(&mut client, 0, "__stall_ms_400__", READ);
    std::thread::sleep(Duration::from_millis(40));
    send_align(&mut client, 1, "victim", READ);
    for _ in 0..2 {
        client.recv().expect("recv").expect("server open");
    }

    let mut scraper = connect(&handle);
    let snapshot = scraper.stats(900).expect("stats");
    let doc = json::parse(&snapshot).expect("snapshot parses");
    assert!(as_u64(&doc, "watchdog.stalls") >= 1, "stall not detected");
    assert!(as_u64(&doc, "watchdog.max_head_age_ms") >= 50);
    assert_eq!(as_u64(&doc, "watchdog.threshold_ms"), 50);

    let mut drainer = connect(&handle);
    drainer.drain(999).expect("drain");
    let summary = handle.join();
    assert!(summary.obs.watchdog_stalls >= 1);
    // One contiguous stall is one episode, not one count per poll tick.
    assert!(
        summary.obs.watchdog_stalls <= 2,
        "episodes over-counted: {}",
        summary.obs.watchdog_stalls
    );
    assert!(summary.obs.watchdog_max_head_age_ms >= 50);
}
