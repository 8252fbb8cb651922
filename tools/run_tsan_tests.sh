#!/usr/bin/env bash
# Build and run the concurrency-sensitive test binaries under
# ThreadSanitizer (the -DLEO_SANITIZE=thread preset of the top-level
# CMakeLists.txt). This is the acceptance gate for src/parallel/ and
# the code that fans fits out on it: the accuracy sweep, the service
# (each tick runs a tenant's performance and power fits, which only
# read its controller, at the same time) and the scenario runner. A
# data race in the pool, the parallel loops or their result-slot
# writes fails the run.
#
# Usage: tools/run_tsan_tests.sh [build-dir]
#   build-dir  defaults to build-tsan (kept separate from the plain
#              build so the two configurations never collide)
set -euo pipefail

src_dir=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$src_dir/build-tsan"}

cmake -B "$build_dir" -S "$src_dir" \
    -DLEO_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j \
    --target parallel_test estimators_test obs_test lowrank_test service_test global_test scenario_test

# TSAN_OPTIONS: fail the script on any report (exitcode) and keep
# going within a binary so one race does not mask another.
for t in parallel_test estimators_test obs_test lowrank_test service_test global_test scenario_test; do
    TSAN_OPTIONS="halt_on_error=0 exitcode=66 ${TSAN_OPTIONS:-}" \
        "$build_dir/tests/$t"
done

echo "TSan run clean: parallel_test + estimators_test + obs_test + lowrank_test + service_test + global_test + scenario_test"
