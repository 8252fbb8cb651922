#!/usr/bin/env bash
# Build and run the robustness-sensitive test binaries under
# AddressSanitizer + UndefinedBehaviorSanitizer (the
# -DLEO_SANITIZE=address preset of the top-level CMakeLists.txt, which
# expands to ASan+UBSan). This is the acceptance gate for src/faults/
# and the fault-injection / sanitization / graceful-degradation path:
# a heap error or UB triggered by corrupted telemetry fails the run.
# csv_test, workloads_test and scenario_test feed hostile text to the
# shared field parsers (src/workloads/fields.hh); scenario_test also
# cuts, bit-flips and line-swaps the shipped traces and a spec. The
# preset's float-cast-overflow check fails the run if any of them
# still reaches a double-to-integer cast. runtime_test and
# service_test feed hostile snapshot bytes to the restore paths:
# controller blobs with an altered observation or estimate, which the
# restore's refit rejects, controller and service blobs cut at every
# offset, and 2000 bit-flipped service blobs. active_sampling_test
# feeds zero, negative, NaN and infinite readings to the
# variance-guided sampler. linalg_test runs both builds
# of the dense kernels (portable and, on an AVX2 host, AVX2) over every
# tile tail, so an out-of-range tail load or store is a report.
# obs_test registers thousands of instruments of each kind in one
# metrics registry, so a cell indexed past its storage is a report.
#
# Usage: tools/run_asan_tests.sh [build-dir]
#   build-dir  defaults to build-asan (kept separate from the plain
#              build so the two configurations never collide)
set -euo pipefail

src_dir=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$src_dir/build-asan"}

cmake -B "$build_dir" -S "$src_dir" \
    -DLEO_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j \
    --target linalg_test robustness_test optimizer_test runtime_test lowrank_test service_test global_test scenario_test simplex_stress_test csv_test workloads_test estimators_test active_sampling_test obs_test

# ASAN/UBSAN_OPTIONS: fail the script on any report. UBSan keeps going
# within a binary so one finding does not mask another, but a
# recovered UBSan report leaves the binary's exit status at 0, so the
# reports are counted from the log instead.
asan="abort_on_error=0 exitcode=66 ${ASAN_OPTIONS:-}"
ubsan="halt_on_error=0 exitcode=66 print_stacktrace=1 ${UBSAN_OPTIONS:-}"
log=$(mktemp)
trap 'rm -f "$log"' EXIT
for t in linalg_test robustness_test optimizer_test runtime_test lowrank_test service_test global_test scenario_test simplex_stress_test csv_test workloads_test estimators_test active_sampling_test obs_test; do
    ASAN_OPTIONS="$asan" UBSAN_OPTIONS="$ubsan" \
        "$build_dir/tests/$t" 2>&1 | tee -a "$log"
done
if grep -q 'runtime error:' "$log"; then
    echo "UBSan reported runtime errors (see above)" >&2
    exit 66
fi

echo "ASan+UBSan run clean: linalg_test + robustness_test + optimizer_test + runtime_test + lowrank_test + service_test + global_test + scenario_test + simplex_stress_test + csv_test + workloads_test + estimators_test + active_sampling_test + obs_test"
