#!/usr/bin/env bash
# Build the benchmark into .bench_build/perfbench (incrementally) and run it
# in this process's place. Run from the repository root:
#
#   bash perfbench/run.sh --workload tag_cold --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the benchmark's last stdout line is its JSON
# result. A failed build exits non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build/perfbench"

if [[ ! -f "${build}/CMakeCache.txt" ]]; then
  cmake -S "${here}" -B "${build}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "${build}" -j "$(nproc)" >&2

exec "${build}/perfbench" "$@"
