#!/usr/bin/env bash
# List the leo:: functions that the library archives define and no
# program links. The programs are leo_cli, every example, every bench
# and leo_perfbench; tests are not programs, so code that only a test
# reaches is reported too. The probe builds them at -O0 (nothing is
# inlined away) with -ffunction-sections and links with --gc-sections,
# so each binary keeps exactly the functions it can reach. A function
# defined in src/*/libleo_*.a that no binary keeps is unlinked.
# std:: template instantiations and lambdas are ignored; so is every
# entry of the keep list below.
#
# Usage: tools/unlinked_api.sh [build-dir]
#   build-dir  defaults to build-unlinked (its own configuration: the
#              flags differ from every other build)
# Exits 1 and prints the functions when it finds one off the keep list.
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
EOF
}

probe_flags=(-DCMAKE_BUILD_TYPE=Debug
    -DCMAKE_CXX_FLAGS_DEBUG=-O0
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
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

binaries=("$build_dir/tools/leo_cli" "$build_dir/perfbench/leo_perfbench")
for b in "${benches[@]}"; do binaries+=("$build_dir/bench/$b"); done
for e in "${examples[@]}"; do binaries+=("$build_dir/examples/$e"); done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mapfile -t archives < <(find "$build_dir/src" -name 'libleo_*.a' | sort)
leo_functions "${archives[@]}" >"$work/defined"
leo_functions "${binaries[@]}" >"$work/linked"
# Demanglers differ on "> >" versus ">>"; compare in one spelling.
keep_list | sed -e '/^#/d' -e '/^$/d' -e 's/> >/>>/g' >"$work/keep"

comm -23 "$work/defined" "$work/linked" | c++filt | sed 's/> >/>>/g' |
    grep -v '{lambda' | sort -u | grep -vxF -f "$work/keep" \
    >"$work/unlinked" || true

if [ -s "$work/unlinked" ]; then
    echo "unlinked leo:: functions (no program links them):"
    cat "$work/unlinked"
    exit 1
fi
echo "unlinked_api: every leo:: function in src/ is linked or on the keep list"
