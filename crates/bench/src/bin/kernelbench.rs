//! `kernelbench` — LFM compare-kernel microbenchmark.
//!
//! ```text
//! kernelbench [--quick] [--out PATH]
//! ```
//!
//! Times the packed bit-plane `XNOR_Match` + prefix-popcount compare
//! stage (DESIGN.md §11) against the boolean-matrix reference kernel it
//! replaced, plus the end-to-end `MappedIndex::lfm` hot path, reporting
//! throughput in Mlfm/s (millions of LFM compare stages per second).
//! Both kernels run the identical logical structure and charge the
//! identical `LogicalOp`s per call, so the ratio isolates the host-side
//! representation change.
//!
//! Results are written as JSON (default `BENCH_kernel.json`) and
//! summarised on stderr; `ci.sh` runs the quick mode and feeds the
//! output to `benchdiff --kind kernel`. Exit status is 1 when the
//! packed kernel fails the ≥5× speedup target in full mode.

use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

use bioseq::Base;
use mram::array::ArrayModel;
use pim_aligner::{LfmBatchScratch, LfmRequest, MappedIndex, PimAlignerConfig};
use pimsim::reference::{packed_compare_stage, reference_compare_stage, BoolSubArray};
use pimsim::{CycleLedger, SubArray, SubArrayLayout};
use readsim::genome;

/// Speedup the packed kernel must reach over the reference in full mode.
const SPEEDUP_FLOOR: f64 = 5.0;

struct KernelTiming {
    wall_ms: f64,
    mlfm_per_s: f64,
}

fn timing(iterations: usize, wall_s: f64) -> KernelTiming {
    KernelTiming {
        wall_ms: wall_s * 1e3,
        mlfm_per_s: iterations as f64 / wall_s / 1e6,
    }
}

/// Deterministic 2-bit codes for bucket `b` (every bucket differs, all
/// four bases occur).
fn bucket_codes(b: usize) -> Vec<u8> {
    (0..SubArrayLayout::BASES_PER_ROW)
        .map(|j| ((j * 7 + b * 13 + 3) % 4) as u8)
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_kernel.json".to_owned());

    let iterations = if quick { 200_000 } else { 2_000_000 };
    eprintln!(
        "kernelbench: {iterations} compare stages per kernel{}",
        if quick { " (quick)" } else { "" }
    );

    // Identical contents in both representations: 256 loaded buckets,
    // full CRef rows.
    let model = ArrayModel::default();
    let mut scratch = CycleLedger::new();
    let mut packed = SubArray::new(model);
    let mut reference = BoolSubArray::new(model);
    packed.load_cref_rows(&mut scratch);
    reference.load_cref_rows(&mut scratch);
    for b in 0..256 {
        let codes = bucket_codes(b);
        packed.load_bwt_row(b, &codes, &mut scratch);
        reference.load_bwt_row(b, &codes, &mut scratch);
    }

    // The iteration schedule (bucket, base, sentinel, prefix limit) is
    // shared by both kernels so they do the same logical work.
    let schedule: Vec<(usize, Base, Option<usize>, usize)> = (0..iterations)
        .map(|i| {
            (
                i % 256,
                Base::from_rank((i / 256) % 4),
                (i % 3 == 0).then_some(i % 128),
                1 + i % SubArrayLayout::BASES_PER_ROW,
            )
        })
        .collect();

    let mut ledger = CycleLedger::new();
    let mut sink = 0u64;
    let t0 = Instant::now();
    for &(bucket, base, sentinel, within) in &schedule {
        sink +=
            packed_compare_stage(&packed, bucket, base, sentinel, within, None, &mut ledger) as u64;
    }
    let packed_t = timing(iterations, t0.elapsed().as_secs_f64());
    black_box(sink);
    let packed_cycles = ledger.total_busy_cycles();

    let mut ledger = CycleLedger::new();
    let mut ref_sink = 0u64;
    let t0 = Instant::now();
    for &(bucket, base, sentinel, within) in &schedule {
        ref_sink += reference_compare_stage(
            &reference,
            bucket,
            base,
            sentinel,
            within,
            None,
            &mut ledger,
        ) as u64;
    }
    let reference_t = timing(iterations, t0.elapsed().as_secs_f64());
    black_box(ref_sink);

    assert_eq!(sink, ref_sink, "kernels disagree on count_match totals");
    assert_eq!(
        packed_cycles,
        ledger.total_busy_cycles(),
        "kernels disagree on charged cycles"
    );

    let speedup = packed_t.mlfm_per_s / reference_t.mlfm_per_s;
    eprintln!(
        "kernelbench: packed    {:.1} ms ({:.2} Mlfm/s)",
        packed_t.wall_ms, packed_t.mlfm_per_s
    );
    eprintln!(
        "kernelbench: reference {:.1} ms ({:.2} Mlfm/s) — packed is {speedup:.1}x faster",
        reference_t.wall_ms, reference_t.mlfm_per_s
    );

    // End-to-end MappedIndex::lfm (marker read + IM_ADD included) on a
    // multi-sub-array index, faults off.
    let e2e_iters = iterations / 10;
    let reference_genome = genome::uniform(100_000, 11);
    let mapped = MappedIndex::build(&reference_genome, &PimAlignerConfig::baseline());
    let mut injector = mapped.session_injector();
    let mut ledger = CycleLedger::new();
    let text_len = mapped.index().text_len();
    let mut e2e_sink = 0u64;
    let t0 = Instant::now();
    for i in 0..e2e_iters {
        let id = (i * 9_973) % (text_len + 1);
        let nt = Base::from_rank(i % 4);
        e2e_sink += mapped.lfm(nt, id, &mut injector, &mut ledger) as u64;
    }
    let e2e_t = timing(e2e_iters, t0.elapsed().as_secs_f64());
    black_box(e2e_sink);
    eprintln!(
        "kernelbench: e2e lfm   {:.1} ms ({:.2} Mlfm/s over {e2e_iters} calls)",
        e2e_t.wall_ms, e2e_t.mlfm_per_s
    );

    // Batched kernel sweep: the same collision-rich request sequence
    // replayed at kernel-batch widths 1/2/4/8. Requests come in groups
    // of eight that share a (bucket, base), so a width-8 batch collapses
    // each call to one plane load; width 1 is the single-read
    // `MappedIndex::lfm` path the batch replaces. Every width must
    // produce identical per-request sums (the oracle), and the width-8
    // wall clock sets `speedup_at_8` for the CI gate.
    let sweep_total = (iterations / 10).max(8_000) / 8 * 8;
    let sweep_req = |k: usize| -> (Base, usize) {
        let bucket = (k / 8) % 128;
        let offset = (k % 8) * 31 % SubArrayLayout::BASES_PER_ROW;
        (
            Base::from_rank((k / 8) % 4),
            bucket * SubArrayLayout::BASES_PER_ROW + offset,
        )
    };
    let mut width_results: Vec<(usize, KernelTiming)> = Vec::new();
    let mut oracle_sums: Option<Vec<u32>> = None;
    let mut single_popcounts = 0u64;
    for &width in &[1usize, 2, 4, 8] {
        let mut ledger = CycleLedger::new();
        let mut sums = Vec::with_capacity(sweep_total);
        let wall_s = if width == 1 {
            let mut injector = mapped.session_injector();
            let t0 = Instant::now();
            for k in 0..sweep_total {
                let (nt, id) = sweep_req(k);
                sums.push(mapped.lfm(nt, id, &mut injector, &mut ledger));
            }
            let wall = t0.elapsed().as_secs_f64();
            single_popcounts = ledger
                .primitives()
                .count(pimsim::costs::LogicalOp::Popcount);
            wall
        } else {
            let mut requests = Vec::with_capacity(width);
            let mut scratch = LfmBatchScratch::new();
            let mut step_sums = Vec::new();
            let t0 = Instant::now();
            for chunk in 0..sweep_total / width {
                requests.clear();
                for s in 0..width {
                    let (nt, id) = sweep_req(chunk * width + s);
                    requests.push(LfmRequest { stream: s, nt, id });
                }
                mapped.lfm_batch_into(
                    &requests,
                    &mut [],
                    None,
                    &mut ledger,
                    &mut scratch,
                    &mut step_sums,
                );
                sums.extend_from_slice(&step_sums);
            }
            t0.elapsed().as_secs_f64()
        };
        match &oracle_sums {
            None => oracle_sums = Some(sums),
            Some(expected) => assert_eq!(
                &sums, expected,
                "batch width {width} disagrees with the single-read kernel"
            ),
        }
        if width > 1 {
            assert_eq!(
                ledger
                    .primitives()
                    .count(pimsim::costs::LogicalOp::Popcount),
                single_popcounts,
                "batch width {width} must charge one Popcount per request"
            );
        }
        let t = timing(sweep_total, wall_s);
        eprintln!(
            "kernelbench: batch={width}  {:.1} ms ({:.2} Mlfm/s over {sweep_total} requests)",
            t.wall_ms, t.mlfm_per_s
        );
        width_results.push((width, t));
    }
    let speedup_at_8 = width_results
        .last()
        .map(|(_, t8)| t8.mlfm_per_s / width_results[0].1.mlfm_per_s)
        .unwrap_or(0.0);
    eprintln!("kernelbench: batch=8 is {speedup_at_8:.2}x the single-read kernel");

    // Pd pipeline scheduler on a mostly-unshared schedule (distinct
    // buckets per stream, so compares cannot collapse into shared
    // groups): with Pd = 2 the next read's compare overlaps the current
    // read's transfer + add, so the scheduled makespan must come in
    // under the serial Pd = 1 issue order for the identical request
    // stream.
    let pipe_calls = 2_048;
    let mapped_pd2 =
        MappedIndex::build(&reference_genome, &PimAlignerConfig::baseline().with_pd(2));
    let mut pipe_makespans = Vec::new();
    for mapped_pd in [&mapped, &mapped_pd2] {
        let mut ledger = CycleLedger::new();
        let mut requests = Vec::with_capacity(8);
        let mut pipe_sink = 0u64;
        for call in 0..pipe_calls {
            requests.clear();
            for s in 0..8usize {
                let bucket = (call * 8 + s) % 128;
                let id = bucket * SubArrayLayout::BASES_PER_ROW + (s * 29 + call) % 256;
                requests.push(LfmRequest {
                    stream: s,
                    nt: Base::from_rank((call + s) % 4),
                    id,
                });
            }
            pipe_sink += mapped_pd
                .lfm_batch(&requests, &mut [], &mut ledger)
                .iter()
                .map(|&c| c as u64)
                .sum::<u64>();
        }
        black_box(pipe_sink);
        pipe_makespans.push(ledger.pipeline_counters());
    }
    let (pd1_pipe, pd2_pipe) = (pipe_makespans[0], pipe_makespans[1]);
    assert_eq!(
        pd1_pipe.issued, pd2_pipe.issued,
        "pd sweep issued different request counts"
    );
    eprintln!(
        "kernelbench: pipeline  pd1 makespan {} cy, pd2 makespan {} cy (saves {})",
        pd1_pipe.makespan_cycles,
        pd2_pipe.makespan_cycles,
        pd2_pipe.overlap_saved_cycles()
    );

    // Hand-rolled JSON: the workspace's vendored serde_json is an
    // offline stub.
    let widths_json = width_results
        .iter()
        .map(|(w, t)| {
            format!(
                "{{ \"batch\": {w}, \"wall_ms\": {:.3}, \"mlfm_per_s\": {:.3} }}",
                t.wall_ms, t.mlfm_per_s
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"iterations\": {iterations},\n  \"quick\": {quick},\n  \
         \"packed\": {{ \"wall_ms\": {:.3}, \"mlfm_per_s\": {:.3} }},\n  \
         \"reference\": {{ \"wall_ms\": {:.3}, \"mlfm_per_s\": {:.3} }},\n  \
         \"speedup_vs_reference\": {speedup:.3},\n  \
         \"e2e_lfm\": {{ \"iterations\": {e2e_iters}, \"wall_ms\": {:.3}, \"mlfm_per_s\": {:.3} }},\n  \
         \"batch\": {{ \"requests\": {sweep_total}, \"widths\": [{widths_json}], \
         \"speedup_at_8\": {speedup_at_8:.3} }},\n  \
         \"pipeline\": {{ \"issued\": {}, \"pd1_makespan_cycles\": {}, \
         \"pd2_makespan_cycles\": {}, \"pd2_overlap_saved_cycles\": {} }}\n}}",
        packed_t.wall_ms,
        packed_t.mlfm_per_s,
        reference_t.wall_ms,
        reference_t.mlfm_per_s,
        e2e_t.wall_ms,
        e2e_t.mlfm_per_s,
        pd1_pipe.issued,
        pd1_pipe.makespan_cycles,
        pd2_pipe.makespan_cycles,
        pd2_pipe.overlap_saved_cycles(),
    );
    let mut file = std::fs::File::create(&out_path)
        .unwrap_or_else(|e| panic!("cannot create {out_path}: {e}"));
    writeln!(file, "{json}").unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("kernelbench: wrote {out_path}");

    if speedup < SPEEDUP_FLOOR && !quick {
        eprintln!("kernelbench: WARNING: speedup {speedup:.2}x below the {SPEEDUP_FLOOR}x target");
        std::process::exit(1);
    }
}
