#!/usr/bin/env bash
# Builds the whole tree under a sanitizer and runs the test suite under it.
#
# Default: AddressSanitizer + UBSan (GMS_ASAN=ON) into build-asan/. The
# fiber layer annotates every lane-stack switch for ASan, so the simulated
# kernels are scanned too.
#
# --ubsan: standalone UndefinedBehaviorSanitizer (GMS_UBSAN=ON) into
# build-ubsan/ — near-native speed, no interceptors; the configuration the
# CI ubsan lane runs.
#
# Both builds keep asserts live: RelWithDebInfo's -DNDEBUG is replaced by
# plain -O2 -g, so the scheduler and carving invariants are checked too.
#
# Usage: ./run_sanitized.sh [--ubsan] [ctest args...]
#   e.g. ./run_sanitized.sh -R validation
#        ./run_sanitized.sh --ubsan -R survey
set -euo pipefail

BUILD_DIR=build-asan
CMAKE_FLAGS=(-DGMS_ASAN=ON)
if [[ "${1:-}" == "--ubsan" ]]; then
  shift
  BUILD_DIR=build-ubsan
  CMAKE_FLAGS=(-DGMS_UBSAN=ON)
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_FLAGS[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g"
cmake --build "$BUILD_DIR" -j "$(nproc)"
# LeakSanitizer is off: it cannot walk the hand-switched fiber stacks and
# reports their (still reachable) allocations as leaks. (Harmless and
# ignored for the UBSan-only build.)
ASAN_OPTIONS=detect_leaks=0 ctest --test-dir "$BUILD_DIR" --output-on-failure "$@"
