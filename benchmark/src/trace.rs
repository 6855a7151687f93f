//! The traced run: the benchmark's own code calls each layer's public
//! functions with a span around every call, and reports where the time
//! and the work went. Nothing here feeds an end-to-end metric.
//!
//! The run has four parts:
//!
//! 1. **probes** of the layers `pimalign` only reaches through others
//!    (FASTA parse, SA-IS, FM-index build, artifact build and save,
//!    sub-array mapping, the bare compare kernel, the ledger, `lfm`);
//! 2. the untraced run, whole (`e2e::run`): the simulated machine's counts,
//!    the SAM and the wall time the mirror is held against, and the four
//!    user-visible timings that are reported here and not gated;
//! 3. the **mirror**: `pimalign --index`'s loop replayed in-process under
//!    a `run` span — load, boot, then chunk by chunk parse → align → SAM
//!    encode → write. Its SAM must equal the binary's byte for byte;
//! 4. the **stage replay**: forward exact on every read, forward inexact
//!    on the misses, the same two on the reverse complement of what is
//!    still unmapped, and locate — `pimalign`'s order, one span per stage.
//!
//! Probes call only base-name entry points (`lfm`, `lfm_batch`,
//! `exact_search_batch`, `inexact_search_first`, `locate`), never a
//! `_with`, `_into` or `_traced` variant, so those stay free to go.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write as _};
use std::path::Path;
use std::time::Duration;

use bench::json::{self, Value};
use bioseq::{fasta, fastq, Base, DnaSeq};
use fmindex::{FmIndex, SaInterval, SaStorage, Text};
use pim_aligner::service::protocol::{
    decode_request, decode_response, encode_request, encode_response, AlignRequest, AlignStatus,
    Request, Response,
};
use pim_aligner::service::queue::{AdmissionQueue, QueueLimits};
use pim_aligner::{
    exact_search_batch, inexact_search_first, sam, BatchTotals, IndexArtifact, LfmRequest,
    MappedIndex, PimAlignerConfig, ShardedPlatform, DEFAULT_KERNEL_BATCH,
};
use pimsim::costs::LogicalOp;
use pimsim::{CycleLedger, Dpu, SimdPolicy, SubArray, SubArrayLayout};

use crate::e2e::{self, Env, Failure, Outcome};
use crate::gen::{Inputs, Rng, REF_NAME, SERVE_READ_LEN};
use crate::host::settle;
use crate::loadgen::{self, Counts};
use crate::span::{self, Tracer};
use crate::spec::{
    Workload, CLOSED_WINDOW, END_TO_END, LATE_LIMIT_MS, MAX_DIFFS, OPEN_RPS, SA_RATE,
};

/// `pimalign`'s default `--batch-size`.
const CHUNK_READS: usize = 4_096;
/// Iterations of the kernel, ledger and `lfm` probes.
const KERNEL_ITERS: usize = 2_000_000;
const LFM_ITERS: usize = 400_000;
/// Reads the oracle and thread-scaling probes run on, at most.
const PROBE_READS: usize = 8_192;
/// Iterations of the protocol and queue probes.
const SERVICE_ITERS: usize = 200_000;
/// Offered rate of the overload phase, requests per second, and how late
/// a reply may be and still count towards goodput.
const OVERLOAD_RPS: u64 = 40_000;
const OVERLOAD_LATE_LIMIT: Duration = Duration::from_millis(50);
/// `pimserve`'s default `--queue-depth`, which the overload phase is
/// meant to overflow.
const DEFAULT_QUEUE_DEPTH: &str = "256";

fn ratio(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

/// The configuration `pimalign` and `pimserve` run with by default.
fn config() -> PimAlignerConfig {
    PimAlignerConfig::baseline()
        .with_max_diffs(MAX_DIFFS as u8)
        .with_indels(true)
        .with_kernel_batch(DEFAULT_KERNEL_BATCH)
        .with_kernel_simd(SimdPolicy::Auto)
}

fn parse_reads(inputs: &Inputs) -> Result<Vec<DnaSeq>, Failure> {
    inputs
        .reads
        .iter()
        .map(|r| Ok(std::str::from_utf8(&r.seq)?.parse::<DnaSeq>()?))
        .collect()
}

/// Counts of the stage replay.
#[derive(Debug, Default)]
struct Replay {
    exact_searches: u64,
    exact_hits: u64,
    exact_lfm: u64,
    inexact_searches: u64,
    inexact_hits: u64,
    inexact_lfm: u64,
    /// LFM spent in inexact searches that returned nothing.
    inexact_lfm_wasted: u64,
    locates: u64,
    mapped: u64,
}

/// One strand's two stages over `reads`; returns the indices still
/// unmapped. Spans: `exact_span`, `inexact_span`, `mapping.locate`.
fn replay_strand(
    t: &mut Tracer,
    mapped: &MappedIndex,
    reads: &[&DnaSeq],
    exact_span: &'static str,
    inexact_span: &'static str,
    r: &mut Replay,
) -> Vec<usize> {
    let config = config();
    let mut ledger = CycleLedger::new();

    let s = t.begin(exact_span);
    let mut intervals: Vec<SaInterval> = Vec::with_capacity(reads.len());
    for group in reads.chunks(DEFAULT_KERNEL_BATCH) {
        for (interval, stats) in exact_search_batch(mapped, &mut [], group, &mut ledger) {
            r.exact_lfm += stats.lfm_calls;
            intervals.push(interval);
        }
    }
    t.end(s);
    r.exact_searches += reads.len() as u64;

    let s = t.begin("mapping.locate");
    let mut misses = Vec::new();
    for (i, interval) in intervals.iter().enumerate() {
        if interval.is_empty() {
            misses.push(i);
        } else {
            black_box(mapped.locate(*interval, &mut ledger));
            r.locates += 1;
            r.exact_hits += 1;
        }
    }
    t.end(s);

    let mut injector = mapped.session_injector();
    let mut dpu = Dpu::new(mapped.model());
    let s = t.begin(inexact_span);
    let mut hits: Vec<SaInterval> = Vec::new();
    let mut unmapped = Vec::new();
    for &i in &misses {
        let (hit, stats) = inexact_search_first(
            mapped,
            &mut injector,
            &mut dpu,
            reads[i],
            config.edit_budget(),
            &mut ledger,
        );
        r.inexact_lfm += stats.lfm_calls;
        match hit {
            Some(hit) => hits.push(hit.interval),
            None => {
                r.inexact_lfm_wasted += stats.lfm_calls;
                unmapped.push(i);
            }
        }
    }
    t.end(s);
    r.inexact_searches += misses.len() as u64;
    r.inexact_hits += hits.len() as u64;

    let s = t.begin("mapping.locate");
    for interval in &hits {
        black_box(mapped.locate(*interval, &mut ledger));
        r.locates += 1;
    }
    t.end(s);
    r.mapped += (reads.len() - unmapped.len()) as u64;
    unmapped
}

/// Probes of the compare kernel, the ledger and the two `lfm` widths.
fn kernel_probes(t: &mut Tracer, mapped: &MappedIndex, m: &mut BTreeMap<&'static str, f64>) {
    let model = mapped.model();
    let mut rng = Rng::new(0x6b65_726e);
    let mut sub = SubArray::new(model);
    let mut ledger = CycleLedger::new();
    sub.load_cref_rows(&mut ledger);
    let buckets = sub.layout().buckets();
    for bucket in 0..buckets {
        let codes: Vec<u8> = (0..SubArrayLayout::BASES_PER_ROW)
            .map(|_| rng.below(4) as u8)
            .collect();
        sub.load_bwt_row(bucket, &codes, &mut ledger);
    }
    let s = t.begin("pimsim.kernel");
    let mut sink = 0u64;
    for i in 0..KERNEL_ITERS {
        let mask = sub.xnor_match(i % buckets, Base::from_rank(i % 4), &mut ledger);
        sink += u64::from(mask.count_prefix(i * 31 % SubArrayLayout::BASES_PER_ROW));
    }
    black_box(sink);
    let kernel_s = t.end(s);
    m.insert(
        "pimsim.kernel_mlfm_per_s",
        KERNEL_ITERS as f64 / kernel_s / 1e6,
    );

    let s = t.begin("pimsim.ledger_charge");
    for _ in 0..KERNEL_ITERS {
        LogicalOp::XnorMatch.charge(black_box(&model), &mut ledger);
    }
    black_box(ledger.total_busy_cycles());
    let charge_s = t.end(s);
    m.insert(
        "pimsim.ledger_ns_per_charge",
        charge_s * 1e9 / KERNEL_ITERS as f64,
    );

    let text_len = mapped.index().text_len();
    let request = |k: usize| {
        (
            Base::from_rank(k % 4),
            k.wrapping_mul(9_973) % (text_len + 1),
        )
    };
    let mut injector = mapped.session_injector();
    let s = t.begin("mapping.lfm_w1");
    let mut sink = 0u64;
    for k in 0..LFM_ITERS {
        let (nt, id) = request(k);
        sink += u64::from(mapped.lfm(nt, id, &mut injector, &mut ledger));
    }
    black_box(sink);
    let w1_s = t.end(s);
    m.insert("mapping.lfm_w1_mlfm_per_s", LFM_ITERS as f64 / w1_s / 1e6);

    let width = DEFAULT_KERNEL_BATCH;
    let mut requests = Vec::with_capacity(width);
    let s = t.begin("mapping.lfm_w8");
    let mut sink = 0u64;
    for step in 0..LFM_ITERS / width {
        requests.clear();
        for stream in 0..width {
            let (nt, id) = request(step * width + stream);
            requests.push(LfmRequest { stream, nt, id });
        }
        sink += mapped
            .lfm_batch(&requests, &mut [], &mut ledger)
            .iter()
            .map(|&v| u64::from(v))
            .sum::<u64>();
    }
    black_box(sink);
    let w8_s = t.end(s);
    m.insert(
        "mapping.lfm_w8_mlfm_per_s",
        (LFM_ITERS / width * width) as f64 / w8_s / 1e6,
    );
}

/// In-process probes of the wire protocol and the admission queue.
fn service_probes(t: &mut Tracer, read: &str, m: &mut BTreeMap<&'static str, f64>) {
    let request = Request::Align(AlignRequest {
        req_id: 7,
        deadline_ms: 0,
        id: String::new(),
        seq: read.to_owned(),
    });
    let response = Response::Aligned {
        req_id: 7,
        status: AlignStatus::Mapped {
            reverse: false,
            diffs: 0,
            positions: vec![12_345],
        },
    };
    // One request and one response each way per iteration, as a round trip
    // costs the two ends together.
    let s = t.begin("service.protocol_encode");
    for _ in 0..SERVICE_ITERS {
        black_box(encode_request(black_box(&request)));
        black_box(encode_response(black_box(&response)));
    }
    let encode_s = t.end(s);
    let (req_bytes, resp_bytes) = (encode_request(&request), encode_response(&response));
    let s = t.begin("service.protocol_decode");
    for _ in 0..SERVICE_ITERS {
        black_box(decode_request(black_box(&req_bytes)).expect("own encoding decodes"));
        black_box(decode_response(black_box(&resp_bytes)).expect("own encoding decodes"));
    }
    let decode_s = t.end(s);
    m.insert(
        "service.protocol_encode_ns",
        encode_s * 1e9 / SERVICE_ITERS as f64,
    );
    m.insert(
        "service.protocol_decode_ns",
        decode_s * 1e9 / SERVICE_ITERS as f64,
    );

    // Full batches only: a queue holding `batch_max` items hands them over
    // without lingering for more.
    let queue: AdmissionQueue<u64> = AdmissionQueue::new(QueueLimits {
        depth: 256,
        max_inflight_bytes: 8 << 20,
        retry_after_base_ms: 20,
    });
    let cost = read.len();
    let rounds = SERVICE_ITERS / CLOSED_WINDOW;
    let s = t.begin("service.queue_offer_take");
    for round in 0..rounds {
        for i in 0..CLOSED_WINDOW {
            black_box(queue.offer((round * CLOSED_WINDOW + i) as u64, cost));
        }
        let batch = queue
            .take_batch(CLOSED_WINDOW)
            .expect("queue is not draining");
        for _ in &batch {
            queue.release(cost);
        }
        black_box(batch);
    }
    let queue_s = t.end(s);
    m.insert(
        "service.queue_offer_take_ns",
        queue_s * 1e9 / (rounds * CLOSED_WINDOW) as f64,
    );
}

/// Median duration, in ms, of the spans called `stage` in a `pimserve
/// --trace-out` document. The median, because the server's span cap lets
/// in the first few thousand requests of the saturating closed loop, whose
/// queue waits are of another order than the open loop's.
fn stage_median_ms(events: &[Value], stage: &str) -> f64 {
    let mut durs: Vec<f64> = events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some(stage))
        .filter_map(|e| e.get("dur").and_then(Value::as_f64))
        .collect();
    if durs.is_empty() {
        return 0.0;
    }
    durs.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    crate::stats::median(&durs) / 1e3
}

/// The service counters a `Stats` scrape reports, as numbers.
fn scrape(addr: &str) -> Result<Value, Failure> {
    let text = pim_aligner::service::protocol::Client::connect(addr)?.stats(1 << 60)?;
    Ok(json::parse(&text).map_err(|e| format!("Stats reply: {e}"))?)
}

/// `pimserve --trace-out` under the load generator. The order is chosen
/// for the server's span cap (65 536 spans, five a request): a window-1
/// closed loop that doubles as warm-up, then the open loop — so the stage
/// spans and the `Stats` difference describe the phase `open_p50_ms` is
/// measured in — then the saturating closed loop, whose spans are mostly
/// dropped. A second server with the default queue depth takes the
/// overload, which it must shed.
fn service_run(
    env: &Env,
    inputs: &Inputs,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<Counts, Failure> {
    let guard = e2e::start_pimserve(
        env,
        &inputs.dir,
        e2e::SERVE_QUEUE_DEPTH,
        &["--trace-out", "serve_trace.json"],
    )?;
    let reads = e2e::serve_requests(inputs);
    let late_limit = Duration::from_secs_f64(LATE_LIMIT_MS / 1e3);
    let mut counts = Counts::default();

    let w1 = loadgen::closed_loop(guard.addr(), &reads, 1, Duration::from_millis(750))?;
    println!("{}", loadgen::phase_line("closed/w1", w1.counts));
    counts.add(w1.counts);
    m.insert(
        "service.closed_w1_rps",
        settle("service.closed_w1_rps", &w1.rates, 1).median,
    );

    let before = scrape(guard.addr())?;
    let open = loadgen::open_loop(
        guard.addr(),
        &reads,
        OPEN_RPS,
        Duration::from_millis(2_500),
        late_limit,
    )?;
    println!("{}", loadgen::phase_line("open", open.counts));
    println!("{}", open.latency_line());
    counts.add(open.counts);
    m.insert("service.open_p99_ms", open.latency_ms(0.99));
    m.insert("service.open_p999_ms", open.latency_ms(0.999));
    m.insert("service.gen_late_p99_ms", open.late_ms(0.99));
    let after = scrape(guard.addr())?;
    let during = |path: &str| -> Result<f64, Failure> {
        Ok(e2e::num(&after, path)? - e2e::num(&before, path)?)
    };
    let batches = during("service.batches")?;
    m.insert("service.batches", batches);
    m.insert(
        "service.mean_batch_width",
        ratio(during("service.responses")?, batches),
    );
    m.insert(
        "service.shed",
        during("service.shed_queue_full")? + during("service.shed_inflight_bytes")?,
    );

    let closed = loadgen::closed_loop(
        guard.addr(),
        &reads,
        CLOSED_WINDOW,
        Duration::from_millis(1_000),
    )?;
    println!("{}", loadgen::phase_line("closed", closed.counts));
    counts.add(closed.counts);
    m.insert(
        "service.peak_queue_depth",
        e2e::num(&scrape(guard.addr())?, "service.peak_queue_depth")?,
    );
    e2e::drain(guard)?;

    let trace = json::parse(&std::fs::read_to_string(
        inputs.dir.join("serve_trace.json"),
    )?)
    .map_err(|e| format!("serve_trace.json: {e}"))?;
    let events = trace
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("serve_trace.json has no traceEvents")?;
    for (metric, stage) in [
        ("service.stage_queued_ms", "queued"),
        ("service.stage_batched_ms", "batched"),
        ("service.stage_aligned_ms", "aligned"),
        ("service.stage_respond_ms", "respond"),
    ] {
        m.insert(metric, stage_median_ms(events, stage));
    }

    // Overload: shedding is the right answer here, so its refusals are
    // not failures of the run. Goodput is what still came back within the
    // latency a user would accept.
    let guard = e2e::start_pimserve(env, &inputs.dir, DEFAULT_QUEUE_DEPTH, &[])?;
    let overload = loadgen::open_loop(
        guard.addr(),
        &reads,
        OVERLOAD_RPS,
        Duration::from_millis(1_000),
        OVERLOAD_LATE_LIMIT,
    )?;
    println!(
        "{}",
        loadgen::phase_line("overload (shedding expected)", overload.counts)
    );
    m.insert(
        "service.overload_goodput_rps",
        ratio(overload.counts.aligned as f64, overload.elapsed_s),
    );
    e2e::drain(guard)?;
    Ok(counts)
}

/// The simulated machine's exact counts, from the binary's metrics
/// document.
fn sim_metrics(doc: &Value, m: &mut BTreeMap<&'static str, f64>) -> Result<(), Failure> {
    for (metric, path) in [
        ("sim.total_busy_cycles", "breakdown.total_busy_cycles"),
        ("sim.lfm_exact", "breakdown.lfm_by_phase.exact"),
        ("sim.lfm_inexact", "breakdown.lfm_by_phase.inexact"),
        ("sim.subarray_activations", "breakdown.subarray_activations"),
        ("sim.energy_pj", "breakdown.energy_pj"),
        (
            "sim.overlap_saved_cycles",
            "breakdown.pipeline.overlap_saved_cycles",
        ),
    ] {
        m.insert(metric, e2e::num(doc, path)?);
    }
    m.insert(
        "sim.lfm_recovery",
        e2e::num(doc, "breakdown.lfm_by_phase.recovery_retry")?
            + e2e::num(doc, "breakdown.lfm_by_phase.recovery_escalate")?,
    );
    let named = |list: &str, name: &str| -> Result<f64, Failure> {
        doc.get(list)
            .and_then(Value::as_array)
            .and_then(|rows| {
                rows.iter()
                    .find(|r| r.get("name").and_then(Value::as_str) == Some(name))
            })
            .and_then(|r| r.get("busy_cycles"))
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("metrics document has no {list} row {name}").into())
    };
    m.insert(
        "sim.compare_busy_cycles",
        named("breakdown.resources", "compare")?,
    );
    m.insert(
        "sim.adder_busy_cycles",
        named("breakdown.resources", "adder")?,
    );
    for (metric, primitive) in [
        ("sim.cycles.xnor_match", "xnor_match"),
        ("sim.cycles.popcount", "popcount"),
        ("sim.cycles.marker_read", "marker_read"),
        ("sim.cycles.im_add32", "im_add32"),
        ("sim.cycles.index_update", "index_update"),
        ("sim.cycles.sa_entry_read", "sa_entry_read"),
        ("sim.cycles.row_write", "row_write"),
        ("sim.cycles.row_read", "row_read"),
    ] {
        m.insert(metric, named("breakdown.primitives", primitive)?);
    }
    Ok(())
}

/// What the traced run reports: one value per per-layer metric, and the
/// same correctness verdict the untraced run gives.
#[derive(Debug)]
pub struct Traced {
    pub metrics: BTreeMap<&'static str, f64>,
    pub outcome: Outcome,
}

/// Runs one workload traced and writes `trace_<workload>.json`.
pub fn run(
    workload: &Workload,
    inputs: &Inputs,
    seconds: f64,
    env: &Env,
    run_id: u64,
) -> Result<Traced, Failure> {
    let dir: &Path = &inputs.dir;
    let mut t = Tracer::new(run_id);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let config = config();
    m.insert("harness.gen_s", inputs.gen_s);

    // 1. Probes of the set-up layers, in the order an index comes to be.
    let fasta_text = std::fs::read_to_string(dir.join("ref.fa"))?;
    let s = t.begin("bioseq.fasta_parse");
    let records = fasta::parse(&fasta_text)?;
    m.insert("bioseq.fasta_parse_s", t.end(s));
    let reference = records[0].seq().clone();
    drop((records, fasta_text));

    let text = Text::from_reference(&reference);
    let s = t.begin("fmindex.sais");
    black_box(fmindex::suffix_array(&text));
    m.insert("fmindex.sais_s", t.end(s));
    drop(text);

    let s = t.begin("fmindex.build");
    let index = FmIndex::builder()
        .bucket_width(SubArrayLayout::BASES_PER_ROW)
        .sa_storage(SaStorage::Sampled(SA_RATE))
        .build(&reference);
    m.insert("fmindex.build_s", t.end(s));

    let reads = parse_reads(inputs)?;
    let oracle_reads = &reads[..reads.len().min(PROBE_READS)];
    let s = t.begin("fmindex.oracle_search");
    for read in oracle_reads {
        black_box(index.backward_search(read));
    }
    let oracle_s = t.end(s);
    m.insert(
        "fmindex.oracle_reads_per_s",
        oracle_reads.len() as f64 / oracle_s,
    );

    let s = t.begin("artifact.build");
    let built = IndexArtifact::build(REF_NAME, &reference, SA_RATE, 0, 0);
    m.insert("artifact.build_s", t.end(s));
    let s = t.begin("artifact.save");
    built.save_to_path(&dir.join("ref.pimx"))?;
    m.insert("artifact.save_s", t.end(s));
    m.insert(
        "artifact.bytes",
        std::fs::metadata(dir.join("ref.pimx"))?.len() as f64,
    );
    drop(built);

    let s = t.begin("mapping.map");
    let mapped = MappedIndex::from_index(index, &config);
    m.insert("mapping.map_s", t.end(s));
    kernel_probes(&mut t, &mapped, &mut m);
    drop(mapped);

    // 2. The untraced run, whole: the real binaries for `seconds`, as
    // `--trace 0` runs them. It rebuilds the artifact the probe saved
    // (same bytes), checks the SAM, and leaves the last batch repeat's
    // `out.sam` and `metrics.json` behind — every repeat wrote the same.
    let mut outcome = e2e::run(workload, inputs, seconds, env)?;
    for metric in &END_TO_END {
        if let Some(layer_name) = metric.reported_as {
            m.insert(layer_name, outcome.metrics[metric.name].median);
        }
    }
    let child_wall_s = reads.len() as f64 / outcome.metrics["reads_per_s"].median;
    let doc = json::parse(&std::fs::read_to_string(dir.join("metrics.json"))?)
        .map_err(|e| format!("metrics.json: {e}"))?;
    sim_metrics(&doc, &mut m)?;
    let binary_sam = std::fs::read(dir.join("out.sam"))?;

    // 3. The mirror of `pimalign --index`, under the `run` span.
    let both_strands = !workload.single_strand;
    let run = t.begin("run");
    let s = t.begin("artifact.load");
    let artifact = IndexArtifact::load_from_path(&dir.join("ref.pimx"))?;
    m.insert("artifact.load_s", t.end(s));
    let s = t.begin("artifact.boot");
    let platform = ShardedPlatform::from_artifact(&artifact, config.clone(), true);
    m.insert("artifact.boot_s", t.end(s));
    let ref_len = artifact.reference().len();

    let mut reader = fastq::Reader::new(BufReader::new(std::fs::File::open(dir.join("reads.fq"))?));
    let mut out = BufWriter::new(std::fs::File::create(dir.join("trace.sam"))?);
    let s = t.begin("io.write");
    out.write_all(sam::header(REF_NAME, ref_len).as_bytes())?;
    t.end(s);
    let mut totals = BatchTotals::new();
    let mut sam_bytes = sam::header(REF_NAME, ref_len).len();
    let mut epoch = 0u64;
    let mut lines = String::new();
    loop {
        let s = t.begin("bioseq.fastq_chunk");
        let chunk = reader.next_chunk(CHUNK_READS)?;
        t.end(s);
        if chunk.is_empty() {
            break;
        }
        let s = t.begin("bioseq.clone_seqs");
        let seqs: Vec<DnaSeq> = chunk.iter().map(|r| r.seq().clone()).collect();
        t.end(s);
        let s = t.begin("aligner.align_chunk");
        let (pairs, chunk_totals) = platform.align_chunk(&seqs, 1, epoch, both_strands)?;
        totals.merge(&chunk_totals);
        t.end(s);
        let s = t.begin("sam.encode");
        lines.clear();
        for (record, (result, strand)) in chunk.iter().zip(&pairs) {
            let rec = sam::record_for(
                record.id(),
                REF_NAME,
                record.seq(),
                Some(record.quality()),
                result,
                *strand,
            );
            lines.push_str(&rec.to_line());
            lines.push('\n');
        }
        t.end(s);
        let s = t.begin("io.write");
        out.write_all(lines.as_bytes())?;
        t.end(s);
        sam_bytes += lines.len();
        epoch += 1;
    }
    let s = t.begin("io.write");
    out.flush()?;
    drop(out);
    t.end(s);
    let s = t.begin("aligner.report");
    let report = platform.batch_report(&totals);
    std::fs::write(dir.join("trace_metrics.json"), report.to_metrics_json())?;
    t.end(s);
    let run_s = t.end(run);

    let traced_sam = std::fs::read(dir.join("trace.sam"))?;
    if traced_sam != binary_sam {
        outcome.break_identity("the traced SAM differs from the binary's".to_owned());
    }

    // 4. The stages, replayed one at a time in `pimalign`'s order.
    let mapped = platform
        .single_platform()
        .expect("the benchmark builds unsharded artifacts")
        .mapped();
    let mut replay = Replay::default();
    let forward: Vec<&DnaSeq> = reads.iter().collect();
    let unmapped = replay_strand(
        &mut t,
        mapped,
        &forward,
        "exact.forward",
        "inexact.forward",
        &mut replay,
    );
    if both_strands {
        let reversed: Vec<DnaSeq> = unmapped
            .iter()
            .map(|&i| reads[i].reverse_complement())
            .collect();
        let reversed: Vec<&DnaSeq> = reversed.iter().collect();
        replay_strand(
            &mut t,
            mapped,
            &reversed,
            "exact.reverse",
            "inexact.reverse",
            &mut replay,
        );
    }
    if replay.mapped != outcome.mapped as u64 {
        outcome.break_identity(format!(
            "the stage replay mapped {} reads, the binary {}",
            replay.mapped, outcome.mapped
        ));
    }

    // Thread scaling, on a prefix of the reads.
    let subset = &reads[..reads.len().min(PROBE_READS)];
    let single = platform.single_platform().expect("unsharded");
    let s = t.begin("parallel.t1");
    black_box(single.align_chunk_parallel(subset, 1, 0, both_strands)?);
    let t1_s = t.end(s);
    let s = t.begin("parallel.t2");
    let (_, t2_totals) = single.align_chunk_parallel(subset, 2, 0, both_strands)?;
    let t2_s = t.end(s);

    // The service layer: in-process probes, then the daemon itself.
    let request = String::from_utf8(inputs.serve_reads[0].seq.clone())?;
    debug_assert_eq!(request.len(), SERVE_READ_LEN);
    service_probes(&mut t, &request, &mut m);
    let serve_counts = service_run(env, inputs, &mut m)?;
    outcome.attempted += serve_counts.sent + 1;
    outcome.note_requests(serve_counts);

    // Per-layer numbers from the spans and counters gathered above.
    let spans = t.spans();
    let n = reads.len() as f64;
    let fastq_s = span::total_s(spans, "bioseq.fastq_chunk");
    m.insert("bioseq.fastq_parse_s", fastq_s);
    m.insert(
        "bioseq.fastq_mb_per_s",
        ratio(
            std::fs::metadata(dir.join("reads.fq"))?.len() as f64 / 1e6,
            fastq_s,
        ),
    );
    let cache = report.breakdown.kernel_cache;
    m.insert("pimsim.kernel_cache_hits", cache.hits as f64);
    m.insert("pimsim.kernel_cache_misses", cache.misses as f64);
    m.insert("pimsim.kernel_cache_hit_rate", cache.hit_rate());
    let locate_s = span::total_s(spans, "mapping.locate");
    m.insert(
        "mapping.locate_per_s",
        ratio(replay.locates as f64, locate_s),
    );
    let exact_s = span::total_s(spans, "exact.forward") + span::total_s(spans, "exact.reverse");
    m.insert("exact.busy_s", exact_s);
    m.insert(
        "exact.reads_per_s",
        ratio(replay.exact_searches as f64, exact_s),
    );
    m.insert("exact.lfm_calls", replay.exact_lfm as f64);
    m.insert(
        "exact.hit_frac",
        ratio(replay.exact_hits as f64, replay.exact_searches as f64),
    );
    let inexact_s =
        span::total_s(spans, "inexact.forward") + span::total_s(spans, "inexact.reverse");
    m.insert("inexact.busy_s", inexact_s);
    m.insert(
        "inexact.reads_per_s",
        ratio(replay.inexact_searches as f64, inexact_s),
    );
    m.insert(
        "inexact.lfm_per_read",
        ratio(replay.inexact_lfm as f64, replay.inexact_searches as f64),
    );
    m.insert(
        "inexact.hit_frac",
        ratio(replay.inexact_hits as f64, replay.inexact_searches as f64),
    );
    m.insert(
        "inexact.lfm_wasted_frac",
        ratio(replay.inexact_lfm_wasted as f64, replay.inexact_lfm as f64),
    );
    let align_s = span::total_s(spans, "aligner.align_chunk");
    m.insert("aligner.align_s", align_s);
    m.insert(
        "aligner.overhead_s",
        align_s - exact_s - inexact_s - locate_s,
    );
    m.insert(
        "aligner.host_ns_per_lfm",
        ratio(align_s * 1e9, totals.lfm_calls as f64),
    );
    let per_read = &totals.host.per_read;
    m.insert(
        "aligner.per_read_p50_us",
        per_read.quantile_upper_ns(0.5) as f64 / 1e3,
    );
    m.insert(
        "aligner.per_read_p99_us",
        per_read.quantile_upper_ns(0.99) as f64 / 1e3,
    );
    m.insert("parallel.reads_per_s_t1", subset.len() as f64 / t1_s);
    m.insert("parallel.reads_per_s_t2", subset.len() as f64 / t2_s);
    m.insert("parallel.scaling_2_vs_1", t1_s / t2_s);
    m.insert(
        "parallel.load_balance_frac",
        t2_totals.host.mean_busy_fraction(),
    );
    let encode_s = span::total_s(spans, "sam.encode");
    m.insert("sam.encode_s", encode_s);
    m.insert("sam.records_per_s", ratio(n, encode_s));
    m.insert("sam.bytes", sam_bytes as f64);
    let write_s = span::total_s(spans, "io.write");
    m.insert("io.write_s", write_s);
    m.insert("io.write_mb_per_s", ratio(sam_bytes as f64 / 1e6, write_s));
    m.insert(
        "harness.layers_cover_frac",
        span::layers_cover_frac(spans, "run"),
    );
    // The mirror does what the child does plus the spans; what it takes
    // longer is what tracing costs (process start-up counts against it).
    m.insert("harness.trace_overhead_frac", run_s / child_wall_s - 1.0);

    let trace_path = env.out_dir.join(format!("trace_{}.json", workload.name));
    std::fs::write(&trace_path, span::chrome_trace_json(spans))?;
    println!("  trace: {} spans -> {}", spans.len(), trace_path.display());
    Ok(Traced {
        metrics: m,
        outcome,
    })
}
