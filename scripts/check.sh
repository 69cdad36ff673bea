#!/usr/bin/env bash
# Tier-1 gate: build, then run the tier1 test label twice — once fully
# serial (UPAQ_THREADS=1) and once at 4 threads — so the determinism suite
# and the pool-dispatched kernel paths are both exercised on every check.
#
# Usage: scripts/check.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "==> tier1, serial (UPAQ_THREADS=1)"
UPAQ_THREADS=1 ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure -j "$JOBS"

echo "==> tier1, parallel (UPAQ_THREADS=4)"
UPAQ_THREADS=4 ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure -j "$JOBS"

# Tracing must never change results: the whole tier-1 label (including the
# determinism suite) has to pass with every span/counter live.
echo "==> tier1, traced (UPAQ_TRACE=1, UPAQ_THREADS=4)"
UPAQ_TRACE=1 UPAQ_THREADS=4 ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure -j "$JOBS"

# Perf smoke: bench_ablation_micro runs a hard equivalence gate (blocked
# GEMM vs a double-precision naive reference) before its benchmarks — a
# nonzero exit fails the check. The timing numbers themselves are
# informational only: this box is shared/virtualised, so wall-clock
# regressions warn but never gate.
echo "==> perf smoke (GEMM equivalence gate hard-fails; timings warn-only)"
UPAQ_THREADS=4 "$BUILD_DIR"/bench/bench_ablation_micro \
  --benchmark_filter='BM_Gemm' --benchmark_min_time=0.05 \
  || { echo "perf smoke FAILED (equivalence gate)"; exit 1; }

# Packed-vs-fp32 ratchet: the whole point of the panel kernels is that the
# integer path beats the float path on the same compressed model. The bench
# recomputes bench_fig4.json; the p50-based ratio must stay above the floor.
# The target on quiet/dedicated hardware is 1.30x — run with
# UPAQ_SPEEDUP_FLOOR=1.30 there. The default floor is calibrated to this
# shared, contended CI box, where the whole-scene ratio swings 1.1-1.4x run
# to run from host noise alone (the whole-scene number also carries the
# never-lowered layers and the non-GEMM pipeline). The ratchet exists to
# catch "quantized slower than fp32 again" step-regressions, not to police
# scheduler noise.
PACKED_SPEEDUP_FLOOR="${UPAQ_SPEEDUP_FLOOR:-1.10}"
# A contention burst on this shared box can sink one whole bench run's
# whole-scene ratio below any useful floor (observed: 1.03 and 1.37 within
# the same hour, per-layer gates green both times). Transient noise passes
# on a retry; a genuine "quantized slower than fp32" regression fails all
# attempts. bench_fig4.json keeps the last attempt's numbers either way.
RATCHET_ATTEMPTS="${UPAQ_RATCHET_ATTEMPTS:-3}"
echo "==> packed-vs-fp32 speedup ratchet (floor ${PACKED_SPEEDUP_FLOOR}x, <= ${RATCHET_ATTEMPTS} attempts)"
SPEEDUP=""
for attempt in $(seq 1 "$RATCHET_ATTEMPTS"); do
  UPAQ_THREADS=1 "$BUILD_DIR"/bench/bench_fig4_speedup > /dev/null
  SPEEDUP="$(sed -n 's/.*"packed_vs_fp32_speedup": \([0-9.]*\).*/\1/p' bench_fig4.json)"
  if [ -z "$SPEEDUP" ]; then
    echo "ratchet FAILED: packed_vs_fp32_speedup missing from bench_fig4.json"
    exit 1
  fi
  if awk -v s="$SPEEDUP" -v f="$PACKED_SPEEDUP_FLOOR" 'BEGIN { exit !(s >= f) }'; then
    break
  fi
  echo "ratchet attempt ${attempt}/${RATCHET_ATTEMPTS}: packed_vs_fp32_speedup=${SPEEDUP} < floor ${PACKED_SPEEDUP_FLOOR}"
done
if ! awk -v s="$SPEEDUP" -v f="$PACKED_SPEEDUP_FLOOR" 'BEGIN { exit !(s >= f) }'; then
  echo "ratchet FAILED: packed_vs_fp32_speedup=${SPEEDUP} < floor ${PACKED_SPEEDUP_FLOOR} after ${RATCHET_ATTEMPTS} attempts"
  exit 1
fi
echo "packed_vs_fp32_speedup=${SPEEDUP} (>= ${PACKED_SPEEDUP_FLOOR})"

# Per-layer floor: the auto-tuner is the only kernel arbiter — nothing
# demotes a layer after it — so every layer it left on the integer path
# must measure >= 1.0x against its own fp32 run in the interleaved sweep.
# A failure names the mis-pinned layers.
INT_MIN="$(sed -n 's/.*"int_speedup_min": \([0-9.]*\).*/\1/p' bench_fig4.json)"
if [ -z "$INT_MIN" ]; then
  echo "per-layer gate FAILED: int_speedup_min missing from bench_fig4.json"
  exit 1
fi
if ! awk -v s="$INT_MIN" 'BEGIN { exit !(s >= 1.0) }'; then
  echo "per-layer gate FAILED: int_speedup_min=${INT_MIN} < 1.0; mis-pinned layers:"
  grep '"kernel":' bench_fig4.json | awk -F'"measured": ' '{ split($2, v, ","); if (v[1] + 0 < 1.0) print "  " $0 }'
  exit 1
fi
echo "int_speedup_min=${INT_MIN} (>= 1.0)"

# Segment-kernel floor: geometric mean of the measured packed-vs-fp32
# speedups over the rows the tuner pinned to the segment kernel (13 of 13
# HCK PointPillars layers on an AVX-512 VNNI host, reading 2.95-3.32x
# there). A build with the segment kernel's pair table switched off reads
# 1.81-1.85x and fails the 2.0 floor. Hosts without AVX-512BW/VNNI run
# only the generic path and need UPAQ_SEGMENT_GEOMEAN_FLOOR set below what
# that host measures.
SEGMENT_GEOMEAN_FLOOR="${UPAQ_SEGMENT_GEOMEAN_FLOOR:-2.0}"
SEGMENT_GEO="$(sed -n 's/.*"segment_geomean_speedup": \([0-9.]*\).*/\1/p' bench_fig4.json)"
if [ -z "$SEGMENT_GEO" ]; then
  echo "segment gate FAILED: segment_geomean_speedup missing from bench_fig4.json"
  exit 1
fi
if ! awk -v s="$SEGMENT_GEO" -v f="$SEGMENT_GEOMEAN_FLOOR" 'BEGIN { exit !(s >= f) }'; then
  echo "segment gate FAILED: segment_geomean_speedup=${SEGMENT_GEO} < floor ${SEGMENT_GEOMEAN_FLOOR}"
  exit 1
fi
echo "segment_geomean_speedup=${SEGMENT_GEO} (>= ${SEGMENT_GEOMEAN_FLOOR})"

# Pattern-sparsity floor: geometric mean of the speedups of the segment
# kernel (which never touches a pruned tap) over the dense int8 panel (which
# multiplies every kernel slot) on bench_fig4's pattern-pruned backbone
# convs, 2 of 9 taps per kernel, plus the requirement that the auto-tuner —
# racing float, segment and int8 panel cold-cache on the same pruned
# weights — pins the segment kernel on at least one of them. Since the
# segment kernel reads its taps in place (no im2col gather, while the int8
# panel still gathers all nine), on an AVX-512 VNNI host the pair-table fast
# path measures 14.3-16.1x and the generic segment path 6.0x (pair table
# switched off in a scratch build), so the 10x floor fails a build that
# lost the fast path as well as a tuner that stopped seeing the sparsity.
# Hosts without AVX-512BW/VNNI run only the generic path and need a floor
# below it via UPAQ_PATTERN_GEOMEAN_FLOOR; such a build has not been
# measured since the implicit GEMM (it read 3.8-4.0x before), so measure
# it there before picking the value. A failing
# attempt reruns the bench (same transient-noise policy as the ratchet
# above); a genuine regression fails every attempt.
PATTERN_GEOMEAN_FLOOR="${UPAQ_PATTERN_GEOMEAN_FLOOR:-10}"
echo "==> pattern-sparsity speedup gate (segment vs int8 panel, geomean floor ${PATTERN_GEOMEAN_FLOOR}x, >= 1 tuner-pinned layer)"
PATTERN_OK=""
for attempt in $(seq 1 "$RATCHET_ATTEMPTS"); do
  if [ "$attempt" -gt 1 ]; then
    UPAQ_THREADS=1 "$BUILD_DIR"/bench/bench_fig4_speedup > /dev/null
  fi
  PATTERN_GEO="$(sed -n 's/.*"pattern_sparse_geomean_speedup": \([0-9.]*\).*/\1/p' bench_fig4.json)"
  PATTERN_PINNED="$(sed -n 's/.*"pattern_segment_pinned_layers": \([0-9]*\).*/\1/p' bench_fig4.json)"
  if [ -z "$PATTERN_GEO" ] || [ -z "$PATTERN_PINNED" ]; then
    echo "pattern gate FAILED: pattern_sparse_geomean_speedup / pattern_segment_pinned_layers missing from bench_fig4.json"
    exit 1
  fi
  if awk -v s="$PATTERN_GEO" -v f="$PATTERN_GEOMEAN_FLOOR" -v p="$PATTERN_PINNED" \
      'BEGIN { exit !(s >= f && p >= 1) }'; then
    PATTERN_OK=1
    break
  fi
  echo "pattern gate attempt ${attempt}/${RATCHET_ATTEMPTS}: geomean=${PATTERN_GEO}, pinned=${PATTERN_PINNED}"
done
if [ -z "$PATTERN_OK" ]; then
  echo "pattern gate FAILED: pattern_sparse_geomean_speedup=${PATTERN_GEO} (floor ${PATTERN_GEOMEAN_FLOOR}) pinned=${PATTERN_PINNED} (need >= 1) after ${RATCHET_ATTEMPTS} attempts"
  exit 1
fi
echo "pattern_sparse_geomean_speedup=${PATTERN_GEO} (>= ${PATTERN_GEOMEAN_FLOOR}), pattern_segment_pinned_layers=${PATTERN_PINNED} (>= 1)"

# Serve smoke: bench_serve --smoke runs the hard equivalence gate first —
# the streaming server draining a fixed scene stream must produce
# detections bitwise identical to the serial detect() loop — and then one
# short low-load open-loop run. A gate mismatch exits non-zero and fails
# the check; the latency/throughput numbers are informational (shared box).
echo "==> serve smoke (serve-vs-serial equivalence gate hard-fails)"
UPAQ_THREADS=4 "$BUILD_DIR"/bench/bench_serve --smoke --out "$BUILD_DIR"/bench_serve_smoke.json \
  || { echo "serve smoke FAILED (equivalence gate)"; exit 1; }

# Scenario smoke: the robustness matrix over every zoo variant (fp32,
# LCK fp32, LCK/HCK packed) across the five scenario families, with the
# critical-object recall gate live — compression dropping pedestrian /
# cyclist / near-range recall more than the margin below fp32 exits
# non-zero and fails the check. mAP and latency numbers are informational.
echo "==> scenario smoke (critical-object recall gate hard-fails)"
UPAQ_THREADS=4 "$BUILD_DIR"/bench/bench_scenarios --smoke --out "$BUILD_DIR"/bench_scenarios_smoke.json \
  || { echo "scenario smoke FAILED (critical recall gate)"; exit 1; }

# Metrics smoke: the always-on obs layer must produce a snapshot that a
# Prometheus scraper would accept. upaq_tool drives a short serve workload
# and writes the exposition; bench_compare re-parses it with the strict
# line-level validator (TYPE declarations, name charset, bucket
# monotonicity, +Inf == _count).
echo "==> metrics smoke (Prometheus exposition must validate)"
UPAQ_THREADS=4 "$BUILD_DIR"/examples/upaq_tool metrics --scenes 8 \
  --out "$BUILD_DIR"/metrics_smoke.prom \
  || { echo "metrics smoke FAILED (snapshot emit)"; exit 1; }
"$BUILD_DIR"/bench/bench_compare --validate-metrics "$BUILD_DIR"/metrics_smoke.prom \
  || { echo "metrics smoke FAILED (exposition validation)"; exit 1; }

# Bench-regression gate: diff the bench outputs this check just produced
# (plus the committed fig4 file the ratchet refreshed above) against the
# committed bench_baseline.json. Latency metrics carry generous relative
# slack for the shared box; the speedup ratchet and critical-recall floors
# are tight absolute bounds. Any metric past its limit — or missing from a
# supplied file — exits non-zero and fails the check.
echo "==> bench-regression gate (vs bench_baseline.json)"
"$BUILD_DIR"/bench/bench_compare --baseline bench_baseline.json \
  --current fig4=bench_fig4.json \
  --current serve="$BUILD_DIR"/bench_serve_smoke.json \
  --current scenarios="$BUILD_DIR"/bench_scenarios_smoke.json \
  || { echo "bench-regression gate FAILED"; exit 1; }

# The packed-integer path does raw bit twiddling (sign extension, packed
# buffers) — run its suites under ASan/UBSan so memory and UB bugs in the
# pack/unpack/GEMM code cannot slip past the plain Release gate. The prof
# suite rides along: its event buffers are touched from every pool worker,
# so it is the natural place for the sanitizers to catch a lifetime bug.
# test_gemm_kernel joins them: the panel packer and workspace arena do raw
# pointer arithmetic over reused blocks, exactly where ASan earns its keep;
# test_qgemm_kernel covers the interleaved int8 panel kernel the same way.
# test_scenarios rides along too: the corruption passes (occlusion shadow
# walk, dropout filter) and the suite's report assembly are fresh code.
# test_autotune joins them: the tuner's cache-eviction / scripted-timer
# paths are exactly the raw-buffer code the sanitizers are here for.
# test_prune rides along: its pattern/mask contracts produce the sparse
# entry lists the segment kernel and its pair tables walk with raw pointers.
# test_nn and test_detectors join with the fused inference epilogue: its
# residual offsets, per-channel term pointers and upsample-into-concat
# placement are raw-buffer arithmetic inside every kernel's output store.
echo "==> qnn + quant + prof + serve + scenarios + gemm/workspace + autotune + prune + nn + detectors suites under UPAQ_SANITIZE=address,undefined"
ASAN_DIR="${BUILD_DIR}-asan"
cmake -B "$ASAN_DIR" -S . -DUPAQ_SANITIZE=address,undefined
cmake --build "$ASAN_DIR" -j "$JOBS" --target test_qnn test_quant test_prof test_obs test_serve test_scenarios test_gemm_kernel test_qgemm_kernel test_autotune test_prune test_nn test_detectors
UPAQ_THREADS=4 ctest --test-dir "$ASAN_DIR" -R 'test_qnn|test_quant|test_gemm_kernel|test_qgemm_kernel|test_scenarios|test_autotune|test_prune|test_nn|test_detectors' --output-on-failure
# The serve pipeline overlaps stages across pool lanes and recycles batch
# slots — ASan watches the slot/workspace lifetimes, and the traced run
# keeps every span live while the stages overlap.
# test_obs rides with them: its histogram shards are hammered from four
# plain threads and the serve integration test overlaps the obs record
# sites with the pipeline, exactly where a lifetime bug would hide.
UPAQ_TRACE=1 UPAQ_THREADS=4 ctest --test-dir "$ASAN_DIR" -R 'test_prof|test_obs|test_serve' --output-on-failure

echo "check.sh: OK (tier1 passed serial, 4-thread, and traced; perf + serve + scenario + metrics smokes, ratchet, recall gate, bench-regression gate, sanitizers green)"
