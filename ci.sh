#!/usr/bin/env sh
# Offline CI gate: format, build, test, lint, release smokes. No network
# access required — all dependencies are vendored (see vendor/).
#
#   ./ci.sh            full gate (debug + release stages)
#   ./ci.sh debug      fmt check, the Rust line count (printed only),
#                      a locked `cargo check` of benchmark/,
#                      debug tests (+ CLI and service flake gate x5),
#                      clippy, rustdoc (private items too) with every
#                      warning denied
#   ./ci.sh release    release build, perfdump cmp'd against
#                      BENCH_metrics.json, the 8 Mbp suffix-array test
#                      tier-1 ignores, the release-binary smoke
#                      (pimalign --threads 2 --trace-out, index build /
#                      inspect / --index rerun + SAM cmp with the full
#                      SA and again at --sa-rate 8), every example,
#                      a self-checking indexbench --quick,
#                      the faultsweep and experiments bins,
#                      and a locked build + test of benchmark/
#
# Counted invariants are `cargo test` assertions, the byte-deterministic
# metrics report is cmp'd against its committed file, and wall-clock is
# measured by pimbench (benchmark/README.md) — never a floor here.
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
case "$MODE" in
    all|debug|release) ;;
    *)
        echo "ci: unknown mode '$MODE' (all|debug|release)" >&2
        exit 2
        ;;
esac

# --- step timing ------------------------------------------------------

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

if [ "$MODE" = "all" ] || [ "$MODE" = "debug" ]; then
    step "cargo fmt --check"
    cargo fmt --all --check

    # ROADMAP item 10's figure, printed so no PR counts it by hand. It
    # only prints: no threshold.
    step "Rust lines outside benchmark/ and vendor/"
    git ls-files '*.rs' | grep -v '^benchmark/\|^vendor/' | xargs cat | wc -l

    # pimbench compiles against this tree's public names: a deletion that
    # takes one of them away fails here, in seconds, and not only in the
    # release stage's build of benchmark/.
    step "benchmark/ check (locked)"
    cargo check --offline --locked --manifest-path benchmark/Cargo.toml

    # The tier-1 command: the root's default members are the whole
    # workspace. --no-fail-fast: a failing binary must not hide the ones
    # after it.
    step "cargo test (debug)"
    cargo test -q --no-fail-fast

    # Flake gate: the CLI test binaries share the system temp directory
    # and spawn real processes, and the service binaries drive drain and
    # batcher stalls through blocking readers and an untimed queue wait;
    # five consecutive green runs each.
    step "cargo test x5 (CLI + service flake gate)"
    for _ in 1 2 3 4 5; do
        cargo test -q --test metrics_json --test cli_sam_output \
            --test index_artifact_cli --test sam_thread_invariance \
            --test pimserve_process --test service_overload --test obs_plane
    done

    # The two named perf lints guard the packed LFM hot path: a
    # reintroduced per-call collect or byte-count loop fails the build.
    step "cargo clippy"
    cargo clippy --workspace --all-targets -- -D warnings \
        -D clippy::needless_collect -D clippy::naive_bytecount

    # The docs name code by intra-doc link, so a deletion that leaves a
    # [`dangling`] reference behind fails here, in private docs as well.
    step "cargo doc (private items, warnings denied)"
    RUSTDOCFLAGS="-D warnings" \
        cargo doc --workspace --no-deps --offline --document-private-items
fi

if [ "$MODE" = "all" ] || [ "$MODE" = "release" ]; then
    step "cargo build --release"
    cargo build --release --workspace
    mkdir -p target/ci

    # Simulated-count gate: perfdump is byte-deterministic and takes
    # about a second, so the committed baseline must be exactly
    # what this tree produces. A change that moves a simulated count
    # regenerates BENCH_metrics.json in the same PR. A failure prints the
    # head of the diff first, so the log names the counter that moved.
    step "perfdump + cmp (committed simulated counts)"
    cargo run -q --release -p bench --bin perfdump -- \
        --out target/ci/BENCH_metrics_full.json
    if ! cmp target/ci/BENCH_metrics_full.json BENCH_metrics.json; then
        diff -u BENCH_metrics.json target/ci/BENCH_metrics_full.json | head -40
        exit 1
    fi

    # SA-IS at the size the naive oracle cannot reach (8 Mbp uniform,
    # 2 Mbp repeat-rich, and the 1 Mbp Fibonacci and period-13 words
    # with the largest key ties and the deepest recursion), checked
    # through BWT inversion: seconds here, minutes in a debug build,
    # hence #[ignore]d for `cargo test`.
    step "large suffix arrays (release-only test)"
    cargo test -q --release -p fmindex --lib -- \
        --ignored large_suffix_arrays_invert_to_their_text

    # Release-binary smoke: the optimised pimalign must align, write its
    # metrics and trace, and reproduce its own SAM byte-for-byte from a
    # serialised artifact that `index inspect` accepts (checksum verified,
    # SA rate and seed table as expected). The documents' contents are
    # asserted by tier-1
    # (tests/cli_sam_output.rs, tests/index_artifact_cli.rs); the files
    # are kept as CI artifacts.
    step "pimalign smoke (trace + artifact round-trip + budget boot)"
    printf '>chrT\nTGCTAGCATGAACCTTGGAACGTACGTTAGCATCGATCGGATTACAGATTACAGGG\n' \
        > target/ci/smoke_ref.fa
    printf '@exact\nGATTACAGATTACA\n+\nIIIIIIIIIIIIII\n@revcomp\nCGTTCCAAGGTTCA\n+\nIIIIIIIIIIIIII\n' \
        > target/ci/smoke_reads.fq
    cargo run -q --release --bin pimalign -- \
        target/ci/smoke_ref.fa target/ci/smoke_reads.fq --threads 2 \
        --metrics-out target/ci/smoke_metrics.json \
        --trace-out target/ci/smoke_trace.json > target/ci/smoke.sam
    cargo run -q --release --bin pimalign -- \
        index build target/ci/smoke_ref.fa target/ci/smoke.pimx
    cargo run -q --release --bin pimalign -- index inspect target/ci/smoke.pimx \
        > target/ci/smoke_inspect.txt
    # The full SA: the rate is read off the SA section, as for a sampled one.
    grep -qx 'sa_rate: 1' target/ci/smoke_inspect.txt
    grep -qx 'sa_value_bits: 32' target/ci/smoke_inspect.txt
    # 57 rows hold a two-level seed table: 17 boundaries of 6 bits.
    grep -qx 'seed_depth: 2' target/ci/smoke_inspect.txt
    grep -qx 'seed_bytes: 13' target/ci/smoke_inspect.txt
    cargo run -q --release --bin pimalign -- \
        --index target/ci/smoke.pimx target/ci/smoke_reads.fq --threads 2 \
        > target/ci/smoke_index.sam
    cmp target/ci/smoke.sam target/ci/smoke_index.sam
    # The same round trip at the benchmark's SA rate, so a release binary
    # writes and reads the sampled section (row bitmap + kept values,
    # each v / 8 in the 3 bits ⌊56/8⌋ = 7 needs), whose bytes must be the
    # ones the size model counts.
    cargo run -q --release --bin pimalign -- \
        index build target/ci/smoke_ref.fa target/ci/smoke_sampled.pimx --sa-rate 8
    cargo run -q --release --bin pimalign -- index inspect target/ci/smoke_sampled.pimx \
        > target/ci/smoke_sampled_inspect.txt
    grep -qx 'sa_rate: 8' target/ci/smoke_sampled_inspect.txt
    grep -qx 'sa_value_bits: 3' target/ci/smoke_sampled_inspect.txt
    _index_bytes=$(sed -n 's/^index_bytes: //p' target/ci/smoke_sampled_inspect.txt)
    _model_bytes=$(sed -n 's/^model_bytes: //p' target/ci/smoke_sampled_inspect.txt)
    if [ -z "$_index_bytes" ] || [ "$_index_bytes" != "$_model_bytes" ]; then
        echo "ci: index_bytes '$_index_bytes' != model_bytes '$_model_bytes'" >&2
        exit 1
    fi
    cargo run -q --release --bin pimalign -- \
        --index target/ci/smoke_sampled.pimx target/ci/smoke_reads.fq --threads 2 \
        > target/ci/smoke_sampled.sam
    cmp target/ci/smoke.sam target/ci/smoke_sampled.sam
    # A cold boot through the shared front end's budget -> rate path: a
    # 200-byte budget samples the SA at rate 2, and the SAM must not move.
    cargo run -q --release --bin pimalign -- --index-memory-budget 200 \
        target/ci/smoke_ref.fa target/ci/smoke_reads.fq \
        > target/ci/smoke_budget.sam 2> target/ci/smoke_budget.err
    grep -q 'index: built, SA rate 2,' target/ci/smoke_budget.err
    cmp target/ci/smoke.sam target/ci/smoke_budget.sam

    # The documented API executes, not just compiles: every example runs —
    # the three that drive Platform::align_chunk_parallel + batch_report
    # (each asserts or panics on a wrong answer), and the table and
    # sub-array walkthroughs (≈ 50 ms apiece once built).
    step "examples (all five)"
    for _example in quickstart resequencing accelerator_survey build_tables subarray_walkthrough; do
        cargo run -q --release --example "$_example" > "target/ci/example_$_example.txt"
    done

    # indexbench exits 1 on its own counted checks: footprint vs size
    # model (<= 0.1 %) and peak RSS <= 5.75 bytes per reference base at
    # the largest swept genome (the u32 suffix array's 4, the 2-bit
    # reference and BWT, the sample bitmap, and the process).
    step "indexbench --quick (self-checking)"
    cargo run -q --release -p bench --bin indexbench -- \
        --quick --out target/ci/BENCH_index_smoke.json

    # The two figure bins run too (≈ 0.1 s each), so a change to the
    # fault or recovery surface, or to the figures, executes them: the
    # fault sweep's table and the paper-figure rows are kept as
    # artifacts to diff against a parent's.
    step "faultsweep + experiments"
    cargo run -q --release -p bench --bin faultsweep > target/ci/faultsweep.txt
    cargo run -q --release -p bench --bin experiments > target/ci/experiments.txt

    # The benchmark is a workspace of its own that pins this tree's API:
    # building and testing it here makes a PR that breaks that API fail
    # locally, and --locked fails rather than rewriting its Cargo.lock.
    step "benchmark/ build + test (locked)"
    cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
    cargo test --release --offline --locked --manifest-path benchmark/Cargo.toml

    echo "ci: smoke outputs kept under target/ci/"
fi

echo "ci: all green ($MODE)"
