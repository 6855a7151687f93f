#!/usr/bin/env sh
# Offline CI gate: format, build, test, lint, bench-regression. No
# network access required — all dependencies are vendored (see vendor/).
#
#   ./ci.sh            full gate (debug + release stages)
#   ./ci.sh debug      fmt check, debug tests (+ CLI flake gate x5), clippy
#   ./ci.sh release    release build, bench smokes, benchdiff gates
#                      (parallel, kernel, metrics schema + full-mode
#                      perfdump cmp'd against BENCH_metrics.json, trace, host,
#                      serve: pimserve + loadgen over loopback, obs:
#                      mid-load Stats scrapes + Prometheus exposition,
#                      and the index artifact: build/--index rerun +
#                      indexbench)
#   ./ci.sh gates      re-run only the benchdiff gates against the
#                      artifacts a prior `./ci.sh release` left under
#                      target/ci/ (seconds, not minutes; every gate
#                      also rewrites its target/ci/gate_<kind>.json)
#   ./ci.sh quick      back-compat alias for `debug`
#
# Each step's wall-clock time is printed in a summary at exit (also on
# failure), so slow stages are visible without re-running.
#
# The two stages mirror the GitHub workflow's jobs
# (.github/workflows/ci.yml) so a local `./ci.sh` run reproduces CI
# exactly.

set -eu

cd "$(dirname "$0")"

MODE="${1:-all}"
if [ "$MODE" = "quick" ]; then
    MODE=debug
fi
case "$MODE" in
    all|debug|release|gates) ;;
    *)
        echo "ci: unknown mode '$MODE' (all|debug|release|gates|quick)" >&2
        exit 2
        ;;
esac

# --- step timing + serve-process cleanup ------------------------------

# A pimserve booted by run_serve_cycle; killed by the EXIT trap if a
# failure (or ^C) leaves it running, so no orphaned server survives a
# broken CI run.
SERVE_PID=""

STEP_NAME=""
STEP_START=0
TIMING_LOG=""

step_end() {
    if [ -n "$STEP_NAME" ]; then
        _dur=$(( $(date +%s) - STEP_START ))
        TIMING_LOG="${TIMING_LOG}ci:   ${_dur}s  ${STEP_NAME}\n"
        STEP_NAME=""
    fi
}

step() {
    step_end
    STEP_NAME="$1"
    STEP_START=$(date +%s)
    echo "==> $1"
}

cleanup() {
    _status=$?
    if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "ci: killing orphaned pimserve (pid $SERVE_PID)" >&2
        kill "$SERVE_PID" 2>/dev/null || true
        wait "$SERVE_PID" 2>/dev/null || true
    fi
    step_end
    if [ -n "$TIMING_LOG" ]; then
        echo "ci: step timing ($MODE):"
        printf '%b' "$TIMING_LOG"
    fi
    exit "$_status"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

# Boots pimserve ($3...: its leading arguments), waits for the port
# file, runs a quick loadgen saturation sweep with a protocol-initiated
# graceful drain against it, and requires the server to exit 0.
#   $1  server stderr log file
#   $2  loadgen report output file
run_serve_cycle() {
    _log="$1"
    _out="$2"
    shift 2
    rm -f target/ci/serve_port.txt
    cargo run -q --release --bin pimserve -- "$@" \
        --port-file target/ci/serve_port.txt --queue-depth 64 \
        2> "$_log" &
    SERVE_PID=$!
    for _ in $(seq 1 100); do
        [ -f target/ci/serve_port.txt ] && break
        sleep 0.1
    done
    if [ ! -f target/ci/serve_port.txt ]; then
        echo "ci: pimserve never wrote its port file (log: $_log)" >&2
        cat "$_log" >&2
        exit 1
    fi
    # --prom-out captures the Prometheus exposition scraped over the
    # wire just before drain; loadgen also polls the Stats verb mid-
    # overload, so the report's obs block proves the exposition answers
    # under load.
    cargo run -q --release -p bench --bin loadgen -- \
        --addr "$(cat target/ci/serve_port.txt)" --quick --drain \
        --out "$_out" --prom-out "${_out%.json}_prom.txt"
    # The drain must end the process with exit 0 (set -e trips otherwise).
    wait "$SERVE_PID"
    SERVE_PID=""
}

# --- benchdiff gates --------------------------------------------------
# Each gate reads a fresh target/ci/ artifact, compares it against the
# committed baseline, and writes target/ci/gate_<kind>.json with the
# per-check verdicts. Shared between `release` (right after each smoke
# run) and `gates` (against whatever artifacts already exist).

gate_parallel() {
    cargo run -q --release -p bench --bin benchdiff -- \
        target/ci/BENCH_parallel_smoke.json BENCH_parallel_quick.json \
        --min-ratio 0.25 --min-speedup 4.0 --min-scaling 3.0
}

gate_kernel() {
    cargo run -q --release -p bench --bin benchdiff -- \
        target/ci/BENCH_kernel_smoke.json BENCH_kernel.json \
        --kind kernel --min-ratio 0.25 --min-speedup 5.0
}

gate_metrics() {
    cargo run -q --release -p bench --bin benchdiff -- \
        target/ci/BENCH_metrics_smoke.json BENCH_metrics.json --kind metrics
}

gate_trace() {
    cargo run -q --release -p bench --bin benchdiff -- \
        target/ci/smoke_trace.json --kind trace --workers 2
}

gate_host() {
    cargo run -q --release -p bench --bin benchdiff -- \
        target/ci/BENCH_host_smoke.json BENCH_host.json --kind host
}

gate_serve() {
    cargo run -q --release -p bench --bin benchdiff -- \
        target/ci/BENCH_serve_smoke.json BENCH_serve.json --kind serve
}

gate_index() {
    cargo run -q --release -p bench --bin benchdiff -- \
        target/ci/BENCH_index_smoke.json BENCH_index.json --kind index
}

gate_obs() {
    cargo run -q --release -p bench --bin benchdiff -- \
        target/ci/BENCH_serve_smoke.json target/ci/BENCH_serve_smoke_prom.txt \
        --kind obs
}

if [ "$MODE" = "all" ] || [ "$MODE" = "debug" ]; then
    step "cargo fmt --check"
    cargo fmt --all --check

    # --no-fail-fast: a failing binary must not hide the ones after it.
    step "cargo test (debug)"
    cargo test -q --workspace --no-fail-fast

    # Flake gate: the CLI test binaries share the system temp directory
    # and spawn real processes; five consecutive green runs each.
    step "cargo test x5 (CLI flake gate)"
    for _ in 1 2 3 4 5; do
        cargo test -q --test metrics_json --test cli_sam_output \
            --test index_artifact_cli --test sam_thread_invariance
    done

    # The two named perf lints guard the packed LFM hot path: a
    # reintroduced per-call collect or byte-count loop fails the build.
    step "cargo clippy"
    cargo clippy --workspace --all-targets -- -D warnings \
        -D clippy::needless_collect -D clippy::naive_bytecount
fi

if [ "$MODE" = "all" ] || [ "$MODE" = "release" ]; then
    step "cargo build --release"
    cargo build --release --workspace

    # The smoke report is kept under target/ci/ (uploaded as a CI
    # artifact) and fed to the regression gate below.
    step "parbench smoke (shared-platform parallel engine)"
    mkdir -p target/ci
    cargo run -q --release -p bench --bin parbench -- \
        --quick --out target/ci/BENCH_parallel_smoke.json

    # Gate: the quick run must stay within tolerance of the committed
    # quick-mode baseline. The reads/s floor (0.25x) is a broad tripwire
    # across machine speeds; the index-sharing speedup floor (4x, ~11x
    # measured at baseline) is a same-machine ratio and therefore the
    # strict check. The 8-vs-1 scaling floor (3x) is core-aware: benchdiff
    # caps it by the host's core count, so single-core CI machines only
    # assert non-degradation — see EXPERIMENTS.md for the refresh recipe.
    step "benchdiff regression gate (parallel)"
    gate_parallel

    # Packed-kernel gate: the bit-plane LFM kernel must hold its >= 5x
    # advantage over the boolean reference implementation (same-machine
    # ratio), with a broad Mlfm/s tripwire against the committed
    # baseline, the interleaved-batch speedup floor (>= 2x at width 8)
    # and the Pd = 2 pipeline-overlap makespan check.
    step "kernelbench smoke (packed LFM kernel)"
    cargo run -q --release -p bench --bin kernelbench -- \
        --quick --out target/ci/BENCH_kernel_smoke.json

    step "benchdiff regression gate (kernel)"
    gate_kernel

    # Metrics-schema gate: a quick perfdump must carry the committed
    # baseline's schema (host wall-clock fields ignored) and satisfy the
    # simulated-cycle invariants (reconciliation, phase coverage, the
    # heatmap <= activations bound).
    step "perfdump smoke + benchdiff gate (metrics schema)"
    cargo run -q --release -p bench --bin perfdump -- \
        --quick --out target/ci/BENCH_metrics_smoke.json
    gate_metrics

    # Simulated-count gate: full-mode perfdump is byte-deterministic and
    # takes about a second, so the committed baseline must be exactly
    # what this tree produces. A change that moves a simulated count
    # regenerates BENCH_metrics.json in the same PR.
    step "perfdump full + cmp (committed simulated counts)"
    cargo run -q --release -p bench --bin perfdump -- \
        --out target/ci/BENCH_metrics_full.json
    cmp target/ci/BENCH_metrics_full.json BENCH_metrics.json

    # Host-telemetry gate: pimalign must emit a loadable Chrome trace
    # naming every worker track, and a quick hostbench run must match the
    # committed report's structure while staying self-consistent.
    step "pimalign trace smoke + benchdiff gate (trace)"
    printf '>chrT\nTGCTAGCATGAACCTTGGAACGTACGTTAGCATCGATCGGATTACAGATTACAGGG\n' \
        > target/ci/smoke_ref.fa
    printf '@exact\nGATTACAGATTACA\n+\nIIIIIIIIIIIIII\n@revcomp\nCGTTCCAAGGTTCA\n+\nIIIIIIIIIIIIII\n' \
        > target/ci/smoke_reads.fq
    cargo run -q --release --bin pimalign -- \
        target/ci/smoke_ref.fa target/ci/smoke_reads.fq --threads 2 \
        --metrics-out target/ci/smoke_metrics.json \
        --trace-out target/ci/smoke_trace.json > target/ci/smoke.sam
    gate_trace

    # Index-artifact gate, part 1: serialise the smoke reference and
    # rerun the same reads through `--index` — the warm boot must
    # reproduce the FASTA run's SAM byte-for-byte, and `index inspect`
    # must accept the artifact (checksum + geometry).
    step "pimalign index build + --index rerun (artifact round-trip)"
    cargo run -q --release --bin pimalign -- \
        index build target/ci/smoke_ref.fa target/ci/smoke.pimx
    cargo run -q --release --bin pimalign -- index inspect target/ci/smoke.pimx \
        > target/ci/smoke_inspect.txt
    cargo run -q --release --bin pimalign -- \
        --index target/ci/smoke.pimx target/ci/smoke_reads.fq --threads 2 \
        > target/ci/smoke_index.sam
    cmp target/ci/smoke.sam target/ci/smoke_index.sam

    step "hostbench smoke + benchdiff gate (host telemetry)"
    cargo run -q --release -p bench --bin hostbench -- \
        --quick --out target/ci/BENCH_host_smoke.json
    gate_host

    # Serve gate: a real pimserve process over loopback must come up,
    # survive a quick loadgen saturation sweep (open-loop arrivals,
    # retry-with-backoff clients, an overload phase past the knee), and
    # exit 0 after a protocol-initiated graceful drain with every
    # accepted request answered. benchdiff then checks the structural
    # invariants against the committed BENCH_serve.json.
    step "pimserve smoke + benchdiff gate (serve)"
    cargo run -q --release -p bench --bin loadgen -- \
        --make-ref target/ci/serve_ref.fa --quick
    run_serve_cycle target/ci/serve.log target/ci/BENCH_serve_smoke.json \
        target/ci/serve_ref.fa --metrics-out target/ci/serve_metrics.json
    gate_serve

    # Obs gate: the same serve cycle's live observability plane. The
    # mid-overload Stats scrapes must have landed, every counter must
    # reconcile exactly between the lifetime telemetry and the rolling
    # ring, the 10 s window must show throughput, the watchdog must stay
    # quiet, and the captured Prometheus exposition must be well-formed.
    step "benchdiff regression gate (obs)"
    gate_obs

    # Index-artifact gate, part 2: pimserve must boot warm from a
    # serialised artifact and survive the same loadgen drain cycle.
    step "pimserve --index boot + loadgen drain (artifact warm start)"
    cargo run -q --release --bin pimalign -- \
        index build target/ci/serve_ref.fa target/ci/serve.pimx
    run_serve_cycle target/ci/serve_index.log \
        target/ci/BENCH_serve_index_smoke.json --index target/ci/serve.pimx

    # Index-artifact gate, part 3: the indexbench smoke must hold the
    # load-vs-rebuild speedup (>= 5x at the largest swept genome, a
    # same-machine ratio), sharded-vs-unsharded SAM byte-identity, the
    # size-model reconciliation, and the bytes/bp tripwire against the
    # committed full-sweep baseline.
    step "indexbench smoke + benchdiff gate (index artifact)"
    cargo run -q --release -p bench --bin indexbench -- \
        --quick --out target/ci/BENCH_index_smoke.json
    gate_index

    echo "ci: bench smoke reports kept under target/ci/"
fi

if [ "$MODE" = "gates" ]; then
    for f in BENCH_parallel_smoke.json BENCH_kernel_smoke.json \
        BENCH_metrics_smoke.json smoke_trace.json BENCH_host_smoke.json \
        BENCH_serve_smoke.json BENCH_serve_smoke_prom.txt \
        BENCH_index_smoke.json; do
        if [ ! -f "target/ci/$f" ]; then
            echo "ci: missing target/ci/$f — run ./ci.sh release first" >&2
            exit 1
        fi
    done
    step "benchdiff gate (parallel)"
    gate_parallel
    step "benchdiff gate (kernel)"
    gate_kernel
    step "benchdiff gate (metrics)"
    gate_metrics
    step "benchdiff gate (trace)"
    gate_trace
    step "benchdiff gate (host)"
    gate_host
    step "benchdiff gate (serve)"
    gate_serve
    step "benchdiff gate (obs)"
    gate_obs
    step "benchdiff gate (index)"
    gate_index
fi

echo "ci: all green ($MODE)"
