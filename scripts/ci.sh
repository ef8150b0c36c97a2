#!/usr/bin/env bash
# One-shot CI gate: configure, build and run the tier-1 test suite.
# This is the acceptance command for every change; the sanitizer sweep
# (scripts/sanitize_check.sh) layers on top of it for pre-merge checks.
#
#   scripts/ci.sh [build-dir] [ctest-args...]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
shift || true

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" "$@"
echo "ci: configure + build + tier-1 tests passed"

# Kill-and-resume smoke test: SIGKILL a journaled fault campaign
# mid-sweep, resume it from the journal, and require byte-identical
# report output to an uninterrupted run (DESIGN.md §11).
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
SMOKE_ENV=(DOPP_WORKLOAD_SCALE=0.05 DOPP_FAULT_WORKLOADS=blackscholes,kmeans DOPP_JOBS=2)

env "${SMOKE_ENV[@]}" "$BUILD_DIR/bench/bench_fault_campaign" \
    > "$SMOKE_DIR/clean.txt"

env "${SMOKE_ENV[@]}" DOPP_JOURNAL="$SMOKE_DIR/journal.jsonl" \
    "$BUILD_DIR/bench/bench_fault_campaign" \
    > "$SMOKE_DIR/killed.txt" 2> /dev/null &
SMOKE_PID=$!
for _ in $(seq 1 200); do
    [ -s "$SMOKE_DIR/journal.jsonl" ] && break
    sleep 0.05
done
kill -9 "$SMOKE_PID" 2> /dev/null || true
wait "$SMOKE_PID" 2> /dev/null || true
[ -s "$SMOKE_DIR/journal.jsonl" ] || {
    echo "ci: smoke test journal empty before kill" >&2
    exit 1
}

env "${SMOKE_ENV[@]}" DOPP_JOURNAL="$SMOKE_DIR/journal.jsonl" \
    "$BUILD_DIR/bench/bench_fault_campaign" > "$SMOKE_DIR/resumed.txt"
diff "$SMOKE_DIR/clean.txt" "$SMOKE_DIR/resumed.txt"
echo "ci: kill-and-resume smoke test passed"

# Campaign-service smoke test (DESIGN.md §16): run a doppd daemon with
# two worker processes, submit the fault campaign as a batch, SIGKILL
# one worker mid-sweep, let the lease protocol reclaim its in-flight
# claim, and require the daemon's results CSV to be byte-identical to
# an uninterrupted serial in-process run of the same batch file.
DAEMON_DIR="$SMOKE_DIR/daemon"
DAEMON_SPOOL="$DAEMON_DIR/root"
mkdir -p "$DAEMON_DIR"
env "${SMOKE_ENV[@]}" DOPP_SPOOL_DUMP="$DAEMON_DIR/batch.jsonl" \
    "$BUILD_DIR/bench/bench_fault_campaign" > /dev/null 2>&1
BATCH_TOTAL="$(wc -l < "$DAEMON_DIR/batch.jsonl")"
"$BUILD_DIR/tools/doppctl" serial --spool-file "$DAEMON_DIR/batch.jsonl" \
    --out "$DAEMON_DIR/serial.csv" > /dev/null 2>&1

"$BUILD_DIR/tools/doppd" --spool "$DAEMON_SPOOL" --workers 2 \
    --lease-ms 1000 --heartbeat-ms 250 --scan-ms 50 \
    --max-runtime-ms 180000 > "$DAEMON_DIR/doppd.log" 2>&1 &
DOPPD_PID=$!
trap 'kill "$DOPPD_PID" 2> /dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
"$BUILD_DIR/tools/doppctl" submit --spool "$DAEMON_SPOOL" \
    --file "$DAEMON_DIR/batch.jsonl" --name smoke 2> /dev/null

# Kill a worker once the sweep is demonstrably mid-flight: at least
# one record journaled, not all of them, and worker heartbeats exist.
VICTIM_PID=""
for _ in $(seq 1 1200); do
    DONE="$(wc -l < "$DAEMON_SPOOL/journal.jsonl" 2> /dev/null || echo 0)"
    if [ "$DONE" -ge 1 ] && [ "$DONE" -lt "$BATCH_TOTAL" ]; then
        WORKER_JSON="$(ls "$DAEMON_SPOOL"/workers/*.json 2> /dev/null |
                           head -1 || true)"
        if [ -n "$WORKER_JSON" ]; then
            VICTIM_PID="$(grep -o '"pid":[0-9]*' "$WORKER_JSON" |
                              head -1 | cut -d: -f2)"
            [ -n "$VICTIM_PID" ] && break
        fi
    fi
    [ "$DONE" -ge "$BATCH_TOTAL" ] && break
    sleep 0.05
done
if [ -n "$VICTIM_PID" ]; then
    kill -9 "$VICTIM_PID" 2> /dev/null || true
    echo "ci: SIGKILLed campaign worker $VICTIM_PID mid-sweep"
else
    echo "ci: warning: sweep drained before a worker could be" \
         "killed; equivalence still checked" >&2
fi

"$BUILD_DIR/tools/doppctl" wait --spool "$DAEMON_SPOOL" --name smoke \
    --timeout-ms 180000 || {
    echo "ci: campaign batch did not complete after worker kill" >&2
    cat "$DAEMON_DIR/doppd.log" >&2
    exit 1
}
"$BUILD_DIR/tools/doppctl" results --spool "$DAEMON_SPOOL" \
    --name smoke > "$DAEMON_DIR/daemon.csv"
diff "$DAEMON_DIR/serial.csv" "$DAEMON_DIR/daemon.csv" || {
    echo "ci: daemon results CSV diverged from the serial run" >&2
    exit 1
}
# The spool client (awaitCampaignResults): the same daemon runs a
# figure bench's sweep for it, and the bench's report must match the
# in-process run byte for byte.
env DOPP_WORKLOAD_SCALE=0.05 "$BUILD_DIR/bench/bench_fig12_offchip_traffic" \
    > "$DAEMON_DIR/fig12_inprocess.txt" 2> /dev/null
env DOPP_WORKLOAD_SCALE=0.05 DOPP_SPOOL="$DAEMON_SPOOL" \
    DOPP_SPOOL_BATCH=fig12 DOPP_SPOOL_TIMEOUT_MS=180000 \
    "$BUILD_DIR/bench/bench_fig12_offchip_traffic" \
    > "$DAEMON_DIR/fig12_spool.txt" 2> /dev/null
diff "$DAEMON_DIR/fig12_inprocess.txt" "$DAEMON_DIR/fig12_spool.txt" || {
    echo "ci: bench_fig12 as a spool client diverged from its" \
         "in-process run" >&2
    exit 1
}
echo "ci: bench_fig12 as a spool client matched its in-process run"
"$BUILD_DIR/tools/doppctl" stop --spool "$DAEMON_SPOOL"
wait "$DOPPD_PID" || {
    echo "ci: doppd exited non-zero" >&2
    cat "$DAEMON_DIR/doppd.log" >&2
    exit 1
}
echo "ci: campaign-service kill-and-recover smoke test passed" \
     "($BATCH_TOTAL configs, 2 workers)"

# Perf-harness smoke: run bench_perf with tiny iteration counts
# (report-only — throughput numbers are not gated) and require its
# JSON schema (the sorted key set) to match the committed
# BENCH_perf.json, so the benchmark trajectory cannot silently drift.
# Throughput is gated by perfbench's interleaved parent-vs-change
# comparison on one host (perfbench/README.md), not by a committed
# absolute number from another host.
"$BUILD_DIR/bench/bench_perf" --smoke --out "$SMOKE_DIR/BENCH_perf.json" \
    > "$SMOKE_DIR/bench_perf.txt"
json_keys() { grep -o '"[A-Za-z0-9_]*":' "$1" | sort -u; }
diff <(json_keys BENCH_perf.json) <(json_keys "$SMOKE_DIR/BENCH_perf.json") || {
    echo "ci: BENCH_perf.json schema drifted from the committed baseline" >&2
    exit 1
}
echo "ci: bench_perf smoke + schema check passed"

# Differential hot-path suite: the optimized structure-of-arrays
# Doppelgänger engine must stay bit-identical to the frozen reference
# implementation kept under tests/. Run it serial and 4-wide so the
# contract holds under the threaded batch runner too.
# HotpathDiff compares every engine-backed organization with its
# ".ref" twin; RefEngineEndToEnd runs bench_fig12's configurations
# through runWorkload on both and compares snapshot, output and CSV
# row; NewOrgs adds the factory-organization registration, counter
# and ref-vs-opt pins. HierarchyDiff holds the optimized MemorySystem
# to the frozen reference hierarchy (DESIGN.md §18), and MemArena
# holds the page-arena MainMemory to a block-map model. The compressed
# baselines (DESIGN.md §17.5): GdishDictModel holds the dictionary
# table to a hash-map model, CompressedOrgPins pins bdi, gdish,
# uniDoppBdi, dedup and approxDedup results, and Bdi pins the size
# kernel to the codec.
# DoppInvariants names planted engine corruptions (the cached data
# slot, DESIGN.md §14.2), BlockSubstitutionError holds the guardrail's
# typed error kernel to the element-wise model, and WorkloadPins pins
# the kernels' outputs, the tiered faulted stack included (§19).
# BlockRun holds block-run accesses (SimArray::getRun/setRun) to the
# per-element loop on every stack, hooks and abort included (§19).
DIFF_SUITES='HotpathDiff|TagPool|NewOrgs|RefEngineEndToEnd|HierarchyDiff|MemArena|GdishDictModel|CompressedOrgPins|Bdi|DoppInvariants|BlockSubstitutionError|WorkloadPins|BlockRun'
DOPP_JOBS=1 ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -j "$(nproc)" -R "$DIFF_SUITES"
DOPP_JOBS=4 ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -j "$(nproc)" -R "$DIFF_SUITES"
echo "ci: differential hot-path suites passed (jobs=1 and jobs=4)"

# Sliced-LLC identity gates (DESIGN.md §15). Two byte-identical diffs:
#  - unsliced vs DOPP_SLICES=1: a single-slice SlicedLlc front end
#    must not perturb any result.
#  - DOPP_SLICES=4 at DOPP_JOBS=1 vs DOPP_JOBS=4: the batch runner,
#    the only parallelism left, must not perturb a sliced sweep.
# slices=1 vs slices=4 is deliberately NOT diffed: slicing genuinely
# changes capacity partitioning and — for the content-indexed
# organizations — the dedup pool structure, so those runs differ by
# design (bench_fig_slices measures by how much).
env DOPP_WORKLOAD_SCALE=0.05 \
    "$BUILD_DIR/bench/bench_fig12_offchip_traffic" \
    > "$SMOKE_DIR/fig12_unsliced.txt"
env DOPP_WORKLOAD_SCALE=0.05 DOPP_SLICES=1 \
    "$BUILD_DIR/bench/bench_fig12_offchip_traffic" \
    > "$SMOKE_DIR/fig12_slice1.txt"
diff "$SMOKE_DIR/fig12_unsliced.txt" "$SMOKE_DIR/fig12_slice1.txt" || {
    echo "ci: bench_fig12 output diverged between unsliced and" \
         "DOPP_SLICES=1" >&2
    exit 1
}
env DOPP_WORKLOAD_SCALE=0.05 DOPP_SLICES=4 DOPP_JOBS=1 \
    "$BUILD_DIR/bench/bench_fig12_offchip_traffic" \
    > "$SMOKE_DIR/fig12_s4j1.txt"
env DOPP_WORKLOAD_SCALE=0.05 DOPP_SLICES=4 DOPP_JOBS=4 \
    "$BUILD_DIR/bench/bench_fig12_offchip_traffic" \
    > "$SMOKE_DIR/fig12_s4j4.txt"
diff "$SMOKE_DIR/fig12_s4j1.txt" "$SMOKE_DIR/fig12_s4j4.txt" || {
    echo "ci: sliced bench_fig12 output diverged between DOPP_JOBS" \
         "1 and 4" >&2
    exit 1
}
echo "ci: sliced-LLC identity gates passed (unsliced == slices=1," \
     "slices=4 jobs=1 == jobs=4)"

# Memory-tier smoke sweep: run the bench_fig_memtier sweep twice at a
# tiny scale — serial and 4-wide — and require byte-identical output,
# so the per-partition fault draws and the cross-tier guardrail stay
# deterministic under the threaded batch runner (DESIGN.md §13).
MEMTIER_ENV=(DOPP_WORKLOAD_SCALE=0.05 DOPP_MEMTIER_WORKLOADS=kmeans)
env "${MEMTIER_ENV[@]}" DOPP_JOBS=1 "$BUILD_DIR/bench/bench_fig_memtier" \
    > "$SMOKE_DIR/memtier_j1.txt"
env "${MEMTIER_ENV[@]}" DOPP_JOBS=4 "$BUILD_DIR/bench/bench_fig_memtier" \
    > "$SMOKE_DIR/memtier_j4.txt"
diff "$SMOKE_DIR/memtier_j1.txt" "$SMOKE_DIR/memtier_j4.txt" || {
    echo "ci: bench_fig_memtier diverged between jobs=1 and jobs=4" >&2
    exit 1
}
echo "ci: memory-tier smoke sweep passed (jobs=1 == jobs=4)"

# Tiered and sliced campaign lines through the spool decoder: dump the
# same sweep on a 4-slice Sandy Bridge LLC as a batch file and run it
# with doppctl serial, which re-parses every line and re-checks its
# stored fingerprint before running it (DESIGN.md §16).
env "${MEMTIER_ENV[@]}" DOPP_SLICES=4 DOPP_SLICE_HASH=sandybridge \
    DOPP_SPOOL_DUMP="$SMOKE_DIR/memtier_batch.jsonl" \
    "$BUILD_DIR/bench/bench_fig_memtier" > /dev/null 2>&1
"$BUILD_DIR/tools/doppctl" serial \
    --spool-file "$SMOKE_DIR/memtier_batch.jsonl" \
    --out "$SMOKE_DIR/memtier_batch.csv" > /dev/null 2>&1 || {
    echo "ci: doppctl serial rejected the tiered, sliced memtier batch" >&2
    exit 1
}
echo "ci: memory-tier batch decoded and ran via doppctl serial" \
     "($(wc -l < "$SMOKE_DIR/memtier_batch.jsonl") configs, 4 slices)"

# Run every stat reader once. Benches and examples read counters out
# of RunResult::stats by name (DESIGN.md §10.2), so a misspelled name
# is a run-time fatal ("stat snapshot has no entry named ..."), not a
# compile error: run each table/figure bench at a tiny scale and each
# example with tiny arguments, and fail on any non-zero exit.
run_reader() {
    local name="$1"
    shift
    env DOPP_WORKLOAD_SCALE=0.05 "$@" > "$SMOKE_DIR/reader.out" 2>&1 || {
        echo "ci: stat reader $name exited non-zero:" >&2
        tail -20 "$SMOKE_DIR/reader.out" >&2
        exit 1
    }
}
READER_BENCHES=(fig02_threshold_similarity fig07_map_space_savings
    fig08_compression_comparison fig09_map_space_error_runtime
    fig10_data_array_error_runtime fig11_energy fig12_offchip_traffic
    fig13_area fig14_unidopp fig_memtier fig_slices table1_config
    table2_approx_footprint table3_hardware_cost sec35_stats ablations)
for b in "${READER_BENCHES[@]}"; do
    run_reader "bench_$b" "$BUILD_DIR/bench/bench_$b"
done
EX="$BUILD_DIR/examples"
run_reader quickstart "$EX/quickstart"
run_reader similarity_explorer "$EX/similarity_explorer"
run_reader image_pipeline "$EX/image_pipeline" 14 0.25
run_reader design_space_explorer "$EX/design_space_explorer" jpeg 0.05
run_reader financial_pricing "$EX/financial_pricing" 0.05
run_reader multiprogram "$EX/multiprogram" kmeans canneal 0.05
run_reader trace_workflow "$EX/trace_workflow" kmeans 0.05 \
    "$SMOKE_DIR/reader.dopptrc"
echo "ci: every stat reader ran (${#READER_BENCHES[@]} benches," \
     "7 examples)"

# Full-scale result gate. The tier-1 suite runs the kernels at small
# scales; perfbench (the benchmark of record, perfbench/README.md)
# holds every run of its three workloads, at full scale and above, to
# stored per-run digests of the snapshot and output. Run its selftest,
# then one short untraced pass per workload, and require the last
# line's JSON to report "correct": true. perfbench builds its own
# Release tree in .bench_build/.
json_correct() {
    python3 - "$1" << 'PY'
import json, sys
sys.exit(0 if json.loads(sys.argv[1]).get("correct") is True else 1)
PY
}
python3 perfbench/run.py --selftest
for wl in fig12-grid miss-bound tiered-writes; do
    last="$(python3 perfbench/run.py --workload "$wl" --seed 0 \
                --seconds 1 --trace 0 | tail -1)"
    json_correct "$last" || {
        echo "ci: perfbench $wl does not match its oracle: $last" >&2
        exit 1
    }
done
echo "ci: perfbench selftest and full-scale oracle passed"
