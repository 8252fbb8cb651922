#!/usr/bin/env bash
# List the leo:: functions that the library archives define and no
# program links. The programs are leo_cli, every example, every bench
# and leo_perfbench; tests are not programs, so code that only a test
# reaches is reported too. The probe builds them at -O0 (nothing is
# inlined away) with -ffunction-sections and links with --gc-sections,
# so each binary keeps exactly the functions it can reach. With
# -fkeep-inline-functions every library file also emits, each in a
# section of its own, every inline function its headers define
# (members defined in a class body included), so an inline member
# that no program reaches is reported like an out-of-line one. A
# function defined in src/*/libleo_*.a that no binary keeps is
# unlinked. std:: template instantiations and lambdas are ignored; so
# are inline and implicit constructors and destructors (weak symbols,
# or local ones in an anonymous namespace), which the compiler emits
# for every class whether or not a program builds one that way; so is
# every entry of the keep list below.
#
# Blind spots: the probe sees a function that the archives emit and
# no binary keeps, and nothing else. It cannot see
#  - a template that no program instantiates (parallelFor, were only
#    tests to call it): nothing emits it;
#  - a virtual override that nothing dispatches to: the vtable keeps
#    it linked;
#  - an inline or file-local constructor or destructor nothing calls
#    (ignored above);
#  - code linked only through a branch that no program input takes,
#    such as a reader for a format no program feeds it.
# Grep the headers you touch for the first three; read the callers
# for the last.
#
# Usage: tools/unlinked_api.sh [build-dir]
#   build-dir  defaults to build-unlinked (its own configuration: the
#              flags differ from every other build)
# Exits 1 and prints the functions when it finds one off the keep
# list, or a keep-list entry that the archives no longer define (so
# the list cannot outlive what it excuses).
set -euo pipefail

src_dir=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$src_dir/build-unlinked"}
jobs=${JOBS:-4}

# Demangled names as nm -C prints them, one per line; the comment
# above each entry is its reason.
keep_list() {
    cat <<'EOF'
# Bounds-checked element access: the tests index through it so an
# out-of-range subscript fails loudly; programs use the unchecked at()
# and operator[].
leo::linalg::Matrix::operator()(unsigned long, unsigned long)
leo::linalg::Vector::operator()(unsigned long)
leo::linalg::Vector::operator()(unsigned long) const
# Matrix literals in the tests ({{1, 2}, {3, 4}}).
leo::linalg::Matrix::Matrix(std::initializer_list<std::initializer_list<double> >)
# The allocation-free EM contract is checked by counting allocations
# inside the EM loop, so the hook has to live where the loop does.
leo::estimators::setAllocationCounter(unsigned long (*)())
# Defaulted out of line; the process-wide tracer is leaked on
# purpose, so only the tests' local tracers are ever destroyed.
leo::obs::Tracer::~Tracer()
# The bit-flip snapshot sweep drives every tenant an accepted mutated
# snapshot brings back, and a flip can change a tenant's id: this is
# the only way to list them.
leo::service::Service::tenantIds() const
# Inline accessors that only tests read, each with its reader.
# robustness_test FaultInjector.DeterministicPerSeed
leo::faults::FaultInjector::readings() const
# lowrank_test LowRankBasis.OrthonormalAndSpanning
leo::linalg::LowRankBasis::entry(unsigned long, unsigned long) const
# linalg_test Workspace.ReusesBuffersByKeyAndShape
leo::linalg::Workspace::allocations() const
# parallel_test ThreadPool.ZeroWorkersRunInline and
# ThreadPool.DefaultConcurrencyPositive
leo::parallel::ThreadPool::concurrency() const
# scenario_test ChangePoint.QuietOnStationaryResiduals
leo::runtime::ChangePointDetector::windowsObserved() const
# obs_test ObsIntegration.ControllerCountersAreInstanceLocal and
# robustness_test RobustPipeline.ZeroFaultControllerBitwiseIdenticalToBare
leo::runtime::EnergyController::samplesRejected() const
# service_test FitCache.EvictsLeastRecentlyUsedDeterministically
leo::service::FitCache::size() const
# service_test ShardQueue.RoundsCapacityAndReportsIt
leo::service::ShardQueue::capacity() const
# telemetry_test Sampler.ObservationsPush
leo::telemetry::Observations::empty() const
EOF
}

probe_flags=(-DCMAKE_BUILD_TYPE=Debug
    -DCMAKE_CXX_FLAGS_DEBUG=-O0
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections -fkeep-inline-functions"
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

mapfile -t benches < <(sed -n 's/^leo_add_bench(\([a-z0-9_]*\)).*/\1/p' \
    "$src_dir/bench/benches.cmake")
mapfile -t examples < <(sed -n 's/^leo_add_example(\([a-z0-9_]*\)).*/\1/p' \
    "$src_dir/examples/CMakeLists.txt")

cmake -S "$src_dir" -B "$build_dir" "${probe_flags[@]}" >/dev/null
cmake --build "$build_dir" -j "$jobs" \
    --target leo_cli "${benches[@]}" "${examples[@]}"
cmake -S "$src_dir/perfbench" -B "$build_dir/perfbench" \
    "${probe_flags[@]}" >/dev/null
cmake --build "$build_dir/perfbench" -j "$jobs" --target leo_perfbench

# Mangled leo:: function symbols (text, weak or local).
leo_functions() {
    nm --defined-only "$@" |
        awk '$2 ~ /^[TtWw]$/ && $3 ~ /^_ZN[KVRO]*3leo/ { print $3 }' |
        sort -u
}

# The ones among them that construct or destroy (Class::Class or
# Class::~Class) and are weak, or local to a file: inline or implicit
# special members.
inline_special_members() {
    nm --defined-only "$@" |
        awk '$2 ~ /^[Wwt]$/ && $3 ~ /^_ZN[KVRO]*3leo/ { print $3 }' |
        sort -u >"$work/candidates"
    c++filt <"$work/candidates" | paste -d ' ' "$work/candidates" - |
        grep -E '::([A-Za-z_][A-Za-z0-9_]*)::~?\1\(' |
        cut -d ' ' -f 1 | sort -u
}

binaries=("$build_dir/tools/leo_cli" "$build_dir/perfbench/leo_perfbench")
for b in "${benches[@]}"; do binaries+=("$build_dir/bench/$b"); done
for e in "${examples[@]}"; do binaries+=("$build_dir/examples/$e"); done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mapfile -t archives < <(find "$build_dir/src" -name 'libleo_*.a' | sort)
leo_functions "${archives[@]}" >"$work/defined"
leo_functions "${binaries[@]}" >"$work/linked"
inline_special_members "${archives[@]}" >"$work/special"
# Demanglers differ on "> >" versus ">>"; compare in one spelling.
keep_list | sed -e '/^#/d' -e '/^$/d' -e 's/> >/>>/g' >"$work/keep"

comm -23 "$work/defined" "$work/linked" | comm -23 - "$work/special" |
    c++filt | sed 's/> >/>>/g' |
    grep -v '{lambda' | sort -u | grep -vxF -f "$work/keep" \
    >"$work/unlinked" || true
c++filt <"$work/defined" | sed 's/> >/>>/g' >"$work/defined_names"
grep -vxF -f "$work/defined_names" "$work/keep" >"$work/stale" || true

status=0
if [ -s "$work/unlinked" ]; then
    echo "unlinked leo:: functions (no program links them):"
    cat "$work/unlinked"
    status=1
fi
if [ -s "$work/stale" ]; then
    echo "keep-list entries that the archives no longer define:"
    cat "$work/stale"
    status=1
fi
[ "$status" -eq 0 ] || exit 1
echo "unlinked_api: every leo:: function in src/ is linked or on the keep list, and every keep-list entry is defined"
