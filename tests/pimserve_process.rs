//! Integration: the real `pimserve` process over loopback.
//!
//! `tests/obs_plane.rs` and `tests/service_overload.rs` pin the service
//! in-process; this file pins what only the binary adds — boot from a
//! FASTA and from `--index`, the `--port-file` handshake, the wire
//! answers of a live process, and a protocol-initiated drain that exits
//! 0 and writes `--metrics-out`. Every check is a count, so there is no
//! overload phase here: deterministic shedding is pinned by
//! `service_overload::saturated_queue_sheds_with_typed_overloaded_and_bounded_bytes`.

use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use bench::json::{self, Value};
use pim_aligner::service::protocol::{Client, Response};

mod support;
use support::{temp_path, write_temp};

const REFERENCE: &str = "TGCTAGCATGAACCTTGGAACGTACGTTAGCATCGATCGGATTACAGATTACAGGG";
const READ: &str = "GATTACAGATTACA";

/// Requests sent per serve cycle.
const N: u64 = 16;

/// How long a boot or a drain may take before the test gives up.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(30);

/// The counters shared by the lifetime `service` section and the
/// ring-derived `cumulative` section of a `Stats` snapshot.
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

/// A running `pimserve`, killed on drop so a failed assertion never
/// leaves the process behind.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Spawns `pimserve <args> --port-file <fresh path>` and waits for
    /// the port file.
    fn boot(args: &[&str]) -> Server {
        let port_file = temp_path("serve_port.txt");
        let child = Command::new(env!("CARGO_BIN_EXE_pimserve"))
            .args(args)
            .args(["--port-file", port_file.to_str().unwrap()])
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn pimserve");
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let t0 = Instant::now();
        loop {
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                server.addr = addr.trim().to_owned();
                return server;
            }
            if let Some(status) = server.child.try_wait().expect("poll pimserve") {
                panic!("pimserve exited before listening: {status}");
            }
            assert!(
                t0.elapsed() < PROCESS_TIMEOUT,
                "pimserve wrote no port file within {PROCESS_TIMEOUT:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn connect(&self) -> Client {
        Client::connect(&self.addr).expect("client connects")
    }

    /// Sends `Drain` and waits for the process to exit.
    fn drain(mut self) -> ExitStatus {
        self.connect().drain(u64::MAX).expect("drain");
        let t0 = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().expect("poll pimserve") {
                return status;
            }
            assert!(
                t0.elapsed() < PROCESS_TIMEOUT,
                "pimserve did not exit within {PROCESS_TIMEOUT:?} of Drain"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Errors ignored: after a drain the process is already gone.
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

fn as_u64(doc: &Value, path: &str) -> u64 {
    doc.get(path)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing or non-integer {path}"))
}

/// Is `name` a legal Prometheus metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`)?
fn prom_name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// One sample line: `name value` or `name{labels} value` with a finite
/// float value.
fn prom_sample_ok(line: &str) -> bool {
    let Some((metric, value)) = line.rsplit_once(' ') else {
        return false;
    };
    if !value.parse::<f64>().is_ok_and(f64::is_finite) {
        return false;
    }
    match metric.split_once('{') {
        Some((name, labels)) => prom_name_ok(name) && labels.ends_with('}'),
        None => prom_name_ok(metric),
    }
}

/// Text format 0.0.4: only `# HELP` / `# TYPE` comments with a known
/// type, and legal sample lines; at least one of each.
fn assert_prom_well_formed(text: &str) {
    let (mut help, mut types, mut samples) = (0, 0, 0);
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.is_empty()) {
        if let Some(comment) = line.strip_prefix("# ") {
            if comment.starts_with("HELP ") {
                help += 1;
            } else if let Some(rest) = comment.strip_prefix("TYPE ") {
                let kind = rest.split_whitespace().nth(1);
                assert!(
                    matches!(kind, Some("counter" | "gauge" | "histogram" | "summary")),
                    "exposition line {i}: unknown TYPE {kind:?}"
                );
                types += 1;
            } else {
                panic!("exposition line {i}: comment is neither HELP nor TYPE: {line:?}");
            }
        } else {
            assert!(
                prom_sample_ok(line),
                "exposition line {i} malformed: {line:?}"
            );
            samples += 1;
        }
    }
    assert!(
        help > 0 && types > 0 && samples > 0,
        "exposition has {help} HELP, {types} TYPE, {samples} sample line(s)"
    );
}

/// Boots `pimserve <boot_args>`, aligns [`N`] reads one at a time,
/// scrapes `Stats` and `Prom`, drains, and checks the final metrics.
fn serve_cycle(boot_args: &[&str]) {
    let metrics = temp_path("serve_metrics.json");
    let mut args = boot_args.to_vec();
    args.extend_from_slice(&["--metrics-out", metrics.to_str().unwrap()]);
    let server = Server::boot(&args);

    let mut client = server.connect();
    for i in 0..N {
        let resp = client
            .align(i, &format!("r{i}"), READ, 0)
            .expect("align round trip");
        assert!(
            matches!(resp, Response::Aligned { req_id, .. } if req_id == i),
            "request {i} answered {resp:?}"
        );
    }

    // One snapshot is taken under one lock, so the ring-derived
    // aggregate equals the lifetime counters at whatever instant it
    // lands, field for field.
    let mut scraper = server.connect();
    let snapshot = scraper.stats(1 << 32).expect("stats over the wire");
    let doc = json::parse(&snapshot).expect("stats snapshot parses");
    for name in COUNTERS {
        assert_eq!(
            as_u64(&doc, &format!("cumulative.{name}")),
            as_u64(&doc, &format!("service.{name}")),
            "{name}: ring drifted from lifetime"
        );
    }
    assert_eq!(as_u64(&doc, "service.received"), N);
    assert_eq!(as_u64(&doc, "watchdog.stalls"), 0, "watchdog tripped");

    assert_prom_well_formed(&scraper.prom((1 << 32) + 1).expect("prom over the wire"));

    let status = server.drain();
    assert!(status.success(), "pimserve exited {status} after Drain");
    let final_doc = json::parse(&std::fs::read_to_string(&metrics).expect("metrics written"))
        .expect("final metrics JSON parses");
    assert_eq!(as_u64(&final_doc, "service.received"), N);
    assert_eq!(as_u64(&final_doc, "service.responses"), N);
}

#[test]
fn fasta_boot_serves_scrapes_and_drains() {
    let reference = write_temp("serve_ref.fa", &format!(">chrT\n{REFERENCE}\n"));
    serve_cycle(&[reference.to_str().unwrap()]);
}

#[test]
fn index_boot_serves_scrapes_and_drains() {
    let reference = write_temp("serve_ref.fa", &format!(">chrT\n{REFERENCE}\n"));
    let artifact = temp_path("serve.pimx");
    let build = Command::new(env!("CARGO_BIN_EXE_pimalign"))
        .args(["index", "build"])
        .args([&*reference, &*artifact])
        .output()
        .expect("run pimalign index build");
    assert!(
        build.status.success(),
        "index build failed: {}",
        String::from_utf8_lossy(&build.stderr)
    );
    serve_cycle(&["--index", artifact.to_str().unwrap()]);
}
