//! Integration: `pimalign --metrics-out` — the stable JSON metrics document.
//!
//! The schema is a published interface (`pimbench` and external
//! dashboards consume it), so beyond the semantic checks a golden file
//! (`tests/golden/metrics_schema.txt`) pins the exact set of leaf paths.
//! A failing golden test means the schema changed: bump
//! `METRICS_SCHEMA_VERSION`, regenerate the golden file (the failure
//! message says how) and update the consumers.

use std::process::Command;

use bench::json::{self, Value};

mod support;
use support::{temp_path, write_temp};

/// Runs the CLI over a tiny FASTA/FASTQ pair with `--metrics-out` and
/// returns the parsed metrics document.
fn run_with_metrics(extra: &[&str]) -> Value {
    let reference = write_temp(
        "ref.fa",
        ">chrT test\nTGCTAGCATGAACCTTGGAACGTACGTTAGCATCGATCGGATTACAGATTACAGGG\n",
    );
    let reads = write_temp(
        "reads.fq",
        "@exact\nGATTACAGATTACA\n+\nIIIIIIIIIIIIII\n@mismatch\nGGAACGTACGTTAGCATCGAAC\n+\nIIIIIIIIIIIIIIIIIIIIII\n",
    );
    let metrics = temp_path("out.json");
    let mut args = vec![
        reference.to_str().unwrap().to_owned(),
        reads.to_str().unwrap().to_owned(),
        "--metrics-out".to_owned(),
        metrics.to_str().unwrap().to_owned(),
    ];
    args.extend(extra.iter().map(|s| (*s).to_owned()));
    let out = Command::new(env!("CARGO_BIN_EXE_pimalign"))
        .args(&args)
        .output()
        .expect("run pimalign");
    assert!(
        out.status.success(),
        "CLI failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    json::parse(&text).unwrap_or_else(|e| panic!("invalid metrics JSON: {e}\n{text}"))
}

fn as_u64(doc: &Value, path: &str) -> u64 {
    doc.get(path)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing or non-integer {path}"))
}

#[test]
fn metrics_json_is_valid_and_reconciles() {
    let doc = run_with_metrics(&["--pd", "2"]);

    assert_eq!(as_u64(&doc, "schema_version"), 14);

    // v7: the obs section mirrors drain-time observability scalars. A
    // CLI run never starts the service plane, so everything is zero and
    // the slow-request log is empty — but the section (and therefore
    // the schema) is identical for daemon and CLI runs.
    assert_eq!(as_u64(&doc, "obs.watchdog_stalls"), 0);
    assert_eq!(as_u64(&doc, "obs.buckets_retired"), 0);
    assert_eq!(as_u64(&doc, "obs.window_secs"), 0);

    // v13: the rank-checkpoint cache section is gone with the cache.
    assert_eq!(doc.get("breakdown.kernel_cache"), None);
    // v14: recovery always ends in the host fallback, so no read is
    // left unrecoverable and the counter is gone.
    assert_eq!(doc.get("faults.unrecoverable"), None);

    // v4: the index section records how the platform's FM-index came to
    // be. A plain CLI run builds in-process: full SA, not loaded, and the
    // serialisable footprint agrees with the size model.
    assert_eq!(
        doc.get("index.loaded").and_then(Value::as_bool),
        Some(false),
        "a CLI FASTA run builds its index in-process"
    );
    assert_eq!(as_u64(&doc, "index.sa_rate"), 1);
    let actual_bytes = as_u64(&doc, "index.actual_bytes");
    assert!(actual_bytes > 0);
    assert_eq!(actual_bytes, as_u64(&doc, "index.model_bytes"));

    // A CLI run never touches the service plane; the always-on service
    // section must exist and be all-zero so dashboards get one schema
    // for daemon and CLI runs alike.
    assert_eq!(as_u64(&doc, "service.received"), 0);
    assert_eq!(as_u64(&doc, "service.deadline_misses"), 0);

    // The emitted counters reconcile: per-primitive cycles sum to the
    // ledger aggregate, and the report's LFM count matches the
    // breakdown's.
    let total = as_u64(&doc, "breakdown.total_busy_cycles");
    assert_eq!(as_u64(&doc, "breakdown.primitive_cycles_total"), total);
    assert!(total > 0);
    let prims = doc
        .get("breakdown.primitives")
        .and_then(Value::as_array)
        .expect("primitives array");
    assert_eq!(prims.len(), 10);
    let row_sum: u64 = prims
        .iter()
        .map(|p| {
            p.get("busy_cycles")
                .and_then(Value::as_u64)
                .expect("busy_cycles")
        })
        .sum();
    assert_eq!(row_sum, total);
    let resources = doc
        .get("breakdown.resources")
        .and_then(Value::as_array)
        .expect("resources array");
    assert_eq!(resources.len(), 4);
    let resource_sum: u64 = resources
        .iter()
        .map(|r| {
            r.get("busy_cycles")
                .and_then(Value::as_u64)
                .expect("busy_cycles")
        })
        .sum();
    assert_eq!(resource_sum, total);

    assert_eq!(
        as_u64(&doc, "report.lfm_calls"),
        as_u64(&doc, "breakdown.lfm_calls")
    );
    let phase_sum = as_u64(&doc, "breakdown.lfm_by_phase.exact")
        + as_u64(&doc, "breakdown.lfm_by_phase.inexact")
        + as_u64(&doc, "breakdown.lfm_by_phase.recovery_retry")
        + as_u64(&doc, "breakdown.lfm_by_phase.recovery_escalate");
    assert_eq!(phase_sum, as_u64(&doc, "breakdown.lfm_calls"));

    // v8: the published algorithm's count stands beside the issued one,
    // one more `LFM` for every word-line step, and the adder ran once per
    // `LFM` issued.
    let count_of = |name: &str| {
        prims
            .iter()
            .find(|p| p.get("name").and_then(Value::as_str) == Some(name))
            .and_then(|p| p.get("count"))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("no primitives row {name}"))
    };
    // A 57-row text is one word line, so every step issues one `LFM` and
    // one bump; and two for each step a seed-table read stood in for or
    // alternative the inexact search saw was empty without an `LFM`,
    // which the document does not count — nine here. 178 published =
    // 80 + 80 + 2 · 9 (86 + 86 + 2 · 3 with no table, 130 + 48 while only
    // a one-row interval took one `LFM`; the published count never moves).
    let lfm_calls = as_u64(&doc, "report.lfm_calls");
    // v10: the text ends `G$`, and a seed read whose boundary that suffix
    // moves is corrected with one bump more, which stands for no step.
    let corrections = as_u64(&doc, "report.seed_corrections");
    assert_eq!(corrections, 1);
    assert_eq!(count_of("index_bump"), lfm_calls + corrections);
    assert_eq!(as_u64(&doc, "report.published_lfm_calls"), 178);
    assert_eq!(
        lfm_calls + count_of("index_bump") - corrections + 2 * 9,
        178
    );
    assert_eq!(count_of("im_add32"), as_u64(&doc, "report.lfm_calls"));
    // v9: the seed-table read has its row. A 56 bp reference holds a
    // table of two levels with one packed boundary a 2-mer (none while
    // every entry was a pair of u32s), read four times here.
    assert_eq!(count_of("seed_read"), 4);

    // Pipeline occupancy reflects the requested Pd=2 configuration.
    assert_eq!(as_u64(&doc, "breakdown.pipeline.pd"), 2);
    let adder_occ = doc
        .get("breakdown.pipeline.adder_occupancy_pct")
        .and_then(Value::as_f64)
        .expect("adder occupancy");
    assert!(
        (adder_occ - 100.0).abs() < 1e-6,
        "Pd=2 adder binds: {adder_occ}"
    );

    // Primitive names are the stable labels, in table order.
    let names: Vec<&str> = prims
        .iter()
        .map(|p| p.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(
        names,
        [
            "xnor_match",
            "popcount",
            "marker_read",
            "im_add32",
            "index_update",
            "sa_entry_read",
            "row_write",
            "row_read",
            "index_bump",
            "seed_read"
        ]
    );

    assert!(as_u64(&doc, "breakdown.index_build_cycles") > 0);
    assert!(as_u64(&doc, "breakdown.subarray_activations") > 0);

    // v2: the zone heatmap is a *view* of existing sub-array charges —
    // its total can never exceed the activation counter it attributes.
    let zones = as_u64(&doc, "breakdown.heatmap.zones");
    let activations = doc
        .get("breakdown.heatmap.activations")
        .and_then(Value::as_array)
        .expect("heatmap activations array");
    assert_eq!(activations.len() as u64, zones);
    let heat_total: u64 = activations.iter().filter_map(Value::as_u64).sum();
    assert!(heat_total > 0, "an aligning run must touch zones");
    assert!(heat_total <= as_u64(&doc, "breakdown.subarray_activations"));

    // v2: the host section exists, is structurally complete, and its
    // always-on per-read histogram counted both reads.
    assert_eq!(as_u64(&doc, "host.per_read_latency.count"), 2);
    assert!(as_u64(&doc, "host.wall_ns") > 0);
    let workers = doc
        .get("host.workers")
        .and_then(Value::as_array)
        .expect("host workers array");
    let worker_reads: u64 = workers
        .iter()
        .filter_map(|w| w.get("reads").and_then(Value::as_u64))
        .sum();
    assert_eq!(worker_reads, 2, "worker rows must account for every read");
    // No tracing flags were passed, so no host spans were collected —
    // and none were silently dropped.
    assert_eq!(as_u64(&doc, "host.trace_spans"), 0);
    assert_eq!(as_u64(&doc, "host.trace_spans_dropped"), 0);
}

#[test]
fn metrics_schema_matches_golden_file() {
    let doc = run_with_metrics(&[]);
    let actual = doc.schema_paths().join("\n") + "\n";
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/metrics_schema.txt"
    );
    let golden = std::fs::read_to_string(golden_path)
        .unwrap_or_else(|e| panic!("cannot read {golden_path}: {e}"));
    assert_eq!(
        actual, golden,
        "metrics JSON schema drifted from tests/golden/metrics_schema.txt.\n\
         If the change is intentional, bump METRICS_SCHEMA_VERSION, update the\n\
         golden file to the `actual` value above, and update pimbench/dashboards."
    );
}

/// Every section of the document carries every field, whether the run
/// filled it or left it at zero: the breakdown of a synthetic ledger, and
/// service, index and host sections set by hand.
#[test]
fn metrics_document_writes_every_section_field() {
    use pim_aligner_suite::mram::array::ArrayModel;
    use pim_aligner_suite::pim_aligner::{IndexTelemetry, PerfReport, PimAlignerConfig};
    use pim_aligner_suite::pimsim::{costs, CycleLedger, WorkerStats};

    let mut ledger = CycleLedger::new();
    (0..3).for_each(|_| costs::charge_lfm(&ArrayModel::default(), &mut ledger));
    let mut report = PerfReport::from_batch(&PimAlignerConfig::pipelined(), &ledger, 1, 3);
    let quiet = json::parse(&report.to_metrics_json()).expect("document parses");
    let leaf = |doc: &Value, path: &str| doc.get(path).cloned().unwrap_or(Value::Null);
    for (path, value) in [
        ("service.received", Value::Number(0.0)),
        ("service.deadline_misses", Value::Number(0.0)),
        ("index.loaded", Value::Bool(false)),
        ("index.sa_rate", Value::Number(0.0)),
        ("host.workers", Value::Array(Vec::new())),
        ("host.per_read_latency.buckets", Value::Array(Vec::new())),
        (
            "breakdown.primitives.0.name",
            Value::String("xnor_match".into()),
        ),
    ] {
        assert_eq!(leaf(&quiet, path), value, "{path}");
    }
    for path in [
        "breakdown.total_busy_cycles",
        "breakdown.primitive_cycles_total",
        "breakdown.energy_pj",
        "breakdown.subarray_activations",
        "breakdown.im_add_carry_cycles",
        "breakdown.resources.0.busy_cycles",
        "breakdown.lfm_by_phase.exact",
        "breakdown.pipeline.compare_occupancy_pct",
        "breakdown.heatmap.activations",
    ] {
        assert_ne!(leaf(&quiet, path), Value::Null, "missing {path}");
    }

    report.service.received = 12;
    report.service.shed_queue_full = 2;
    report.service.shed_inflight_bytes = 1;
    report.service.expired_in_queue = 1;
    report.service.late_responses = 1;
    report.service.panics_quarantined = 1;
    report.service.peak_queue_depth = 6;
    report.service.peak_inflight_bytes = 4_096;
    report.index = IndexTelemetry {
        loaded: true,
        sa_rate: 8,
        actual_bytes: 123_456,
        model_bytes: 123_400,
    };
    report.host.wall_ns = 2_000;
    report.host.per_read.record_ns(150);
    report.host.per_read.record_ns(900);
    report.host.per_chunk.record_ns(1_800);
    report.host.absorb_worker(WorkerStats {
        worker: 0,
        chunks_claimed: 2,
        steals: 1,
        reads: 2,
        busy_ns: 1_900,
    });
    let doc = json::parse(&report.to_metrics_json()).expect("document parses");
    for (path, value) in [
        ("service.received", 12),
        ("service.shed_queue_full", 2),
        ("service.shed_inflight_bytes", 1),
        ("service.deadline_misses", 2),
        ("service.panics_quarantined", 1),
        ("service.peak_queue_depth", 6),
        ("service.peak_inflight_bytes", 4_096),
        ("index.sa_rate", 8),
        ("index.actual_bytes", 123_456),
        ("index.model_bytes", 123_400),
        ("host.wall_ns", 2_000),
        ("host.per_read_latency.count", 2),
        ("host.per_chunk_latency.count", 1),
        ("host.workers.0.steals", 1),
        ("host.trace_spans", 0),
        ("host.trace_spans_dropped", 0),
    ] {
        assert_eq!(as_u64(&doc, path), value, "{path}");
    }
    assert_eq!(leaf(&doc, "index.loaded"), Value::Bool(true));
    for path in [
        "host.per_read_latency.p99_ns",
        "host.per_read_latency.buckets.0.le_ns",
        "host.workers.0.busy_pct",
    ] {
        assert_ne!(leaf(&doc, path), Value::Null, "missing {path}");
    }
}
