#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources into .bench_build/ (the
# first run compiles; later runs only check that the build is current),
# then runs it with the given arguments. Run from the checkout root:
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
# Build output goes to stderr, so the result stays the last stdout line.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build/perfbench"
generator=()
if command -v ninja > /dev/null; then generator=(-G Ninja); fi
if [[ ! -f "$build/build.ninja" && ! -f "$build/Makefile" ]]; then
  cmake -S "$root/perfbench" -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target perfbench -j "$(nproc)" >&2
cd "$root"
exec "$build/perfbench" "$@"
