#!/usr/bin/env bash
# ThreadSanitizer gate: build the concurrency-sensitive targets with
# -fsanitize=thread and run the thread-pool + robust-pipeline suites,
# two threads inferring on one model (ConcurrentInfer), plus the chaos
# stream. Both CI's tsan job and the local
# `cmake --build build --target tsan` convenience target run exactly
# this script, so the two invocations cannot drift apart.
#
# Usage: tools/ci/run_tsan.sh [build-dir]   (default: build-tsan)
# A relative build dir is taken from the repo root.
set -euo pipefail

cd "$(dirname "$0")/../.."
BUILD_DIR="$(realpath -m "${1:-build-tsan}")"

GENERATOR=()
if command -v ninja >/dev/null 2>&1; then
    GENERATOR=(-G Ninja)
fi

cmake -B "${BUILD_DIR}" -S . "${GENERATOR[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DEDGEPC_TSAN=ON \
    -DEDGEPC_BUILD_BENCH=OFF
cmake --build "${BUILD_DIR}" --target edgepc_tests lidar_stream serve_streams

# halt_on_error: fail the gate on the first unsuppressed race report.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 \
suppressions=$(pwd)/tools/ci/tsan.supp"

ctest --test-dir "${BUILD_DIR}" --output-on-failure \
    -R 'ThreadPool|RobustPipeline|ObsConcurrency|ScratchArena|Serving|Epilogue|FeatureKnn|ConcurrentInfer'

# The chaos stream exercises watchdog + fault injector + degradation
# ladder end to end.
"${BUILD_DIR}/examples/lidar_stream" 16 512 --chaos

# Multi-stream serving under chaos: producer threads vs the dispatcher,
# shared model, breakers and admission all racing on purpose.
"${BUILD_DIR}/examples/serve_streams" --chaos --streams 3 --frames 12 --points 256

echo "tsan gate: OK"
