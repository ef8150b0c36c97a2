#!/usr/bin/env bash
# Build the whole tree under ASan+UBSan and run the tier-1 test suite.
# Any leak, out-of-bounds access or UB in the simulator (including the
# fault-injection/repair paths, which mutate raw metadata on purpose)
# fails this script. Intended for CI and pre-merge checks:
#
#   scripts/sanitize_check.sh [build-dir] [ctest-args...]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-sanitize}"
shift || true

# float-cast-overflow is listed explicitly: GCC's `undefined` group
# does NOT include it, and it is exactly the check that catches an
# out-of-range double-to-u64 conversion in the map function's bypass
# path (a huge declared `lo` used to push `avgHash - lo` past 2^64).
cmake -B "$BUILD_DIR" -S . \
    -DDOPP_SANITIZE="address;undefined;float-cast-overflow" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)"

# halt_on_error so UBSan findings fail the run instead of just logging.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" "$@"

# Re-run the batch-runner suite with a 4-wide pool so the threaded
# work-queue path (not just the jobs=1 serial path) is exercised under
# the sanitizers regardless of the host's core count.
DOPP_JOBS=4 ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -j "$(nproc)" -R 'BatchRunner' "$@"

# Re-run the StatRegistry/observability suite explicitly: it exercises
# the counterFn/formula closures (which capture raw structure pointers)
# and the snapshot export paths end-to-end, exactly where a lifetime
# bug would hide.
DOPP_JOBS=4 ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -j "$(nproc)" \
    -R 'StatRegistry|StatSnapshot|LlcCounters|LlcFactory|SchemaDrift|StatsJsonl' \
    "$@"

# Re-run the campaign-resilience suite with a 4-wide pool: the
# journal appenders, the per-attempt deadline timers and the retry path
# all cross threads, exactly where a data race or a lifetime bug in
# the checkpoint/resume machinery would hide.
DOPP_JOBS=4 ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -j "$(nproc)" -R 'Resilience|Journal' "$@"

# Re-run the memory-tier fault suite explicitly: the per-partition
# fault draws flip raw block bytes, the write-buffer model keeps
# per-partition queues, and the cross-tier guardrail callbacks capture
# pointers across the run — all places where an out-of-bounds flip or
# a lifetime bug would hide from the unsanitized suite.
DOPP_JOBS=4 ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -j "$(nproc)" -R 'MemTier|SimRuntimeAbort' "$@"

# Re-run the map-function edge tests explicitly: the bypass-path
# double-to-u64 clamps, the degenerate map widths and the kernel
# equality sweep are exactly where float-cast-overflow / shift UB
# would reappear.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
    -R 'MapFunction|MapEdgeCases|MapBitsExtremes|MapSpaceSweep|MapTypeSweep|KernelMatchesGeneric' \
    "$@"

# Re-run the differential hot-path suite and the tag-pool fuzzer
# explicitly: the index-pooled tag lists and the SoA directories do
# raw arena indexing on every access, and the fault-injection paths
# flip pointer bits on purpose — exactly where an out-of-bounds index
# or a stale-link dereference would hide from the unsanitized suite.
# The hierarchy oracle and the page-arena suite ride along: slot-indexed
# private caches, backward-shift directory deletion and the page map's
# growth are the same kind of raw indexing (DESIGN.md §18).
DOPP_JOBS=4 ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -j "$(nproc)" \
    -R 'HotpathDiff|TagPool|SetAssocDir|HierarchyDiff|HierarchyInvariants|MemArena' \
    "$@"

# Re-run the B∆I round-trip fuzzer and the dedup/new-organization
# invariant suites explicitly: the fuzzer sweeps adversarial extreme
# deltas through every (k,d) codec structure (shift/sign-extension UB
# territory), and the dedup/gdish/approxDedup metadata-fault stresses
# flip refcounts and list pointers on purpose — exactly where an
# underflow or a stale-entry dereference would hide.
DOPP_JOBS=4 ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -j "$(nproc)" \
    -R 'BdiFuzz|Bdi\.|DedupLlc|GdishDict|GdishLlc|ApproxDedup|UniDoppBdi|NewOrgs' \
    "$@"

# Re-run the campaign-service suite explicitly: the claim store's
# read-check-write cycles, the worker's scan/executor/heartbeat
# threads and the fork-based multi-writer append test are exactly
# where a lock-lifetime bug or a torn cross-process write would hide.
# ASan+UBSan only — the suite forks on purpose (SIGKILL-reclaim and
# concurrent-append tests), which TSan's runtime does not support
# reliably, so it is deliberately left out of the TSan pass below.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
    -R 'Campaign|AppendLogExclusive|ClaimStore|JournalTail' "$@"

# Re-run the sliced-LLC suite on its own: the routed front end and
# the merge closures capturing per-slice counters (DESIGN.md §15).
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
    -R 'Slice|SliceHash|StatMerge' "$@"
echo "sanitize_check: all tests passed under ASan+UBSan"

# Separate TSan pass (thread sanitizer cannot combine with ASan) over
# the threaded surfaces only: the batch runner and resilience suites
# that share the 4-wide pool machinery, the simulator's only
# parallelism.
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S . -DDOPP_SANITIZE="thread" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_DIR" -j "$(nproc)"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
DOPP_JOBS=4 ctest --test-dir "$TSAN_DIR" --output-on-failure \
    -j "$(nproc)" -R 'BatchRunner|Resilience' "$@"
echo "sanitize_check: threaded suites passed under TSan"
