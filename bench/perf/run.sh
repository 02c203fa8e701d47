#!/usr/bin/env bash
# Builds dxbar_perf from the sources of the checkout this script sits in
# (Release, into build-perf/ at the checkout root, the tree the README's
# recipe uses) and runs it with the given arguments.  Build output goes to
# stderr, so the benchmark's one-line result stays the last line of stdout.
#
#   bash bench/perf/run.sh --workload open_ur_8x8 --seed 1 --seconds 15 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/build-perf"

cmake -S "$root/bench/perf" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target dxbar_perf -j 4 >&2
exec "$build/dxbar_perf" "$@"
