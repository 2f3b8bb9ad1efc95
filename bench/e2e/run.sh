#!/usr/bin/env bash
# Builds bench_e2e (Release, into build-bench/ at the repository root)
# and runs one workload:
#
#   bash bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Graph inputs are cached in build-bench/e2e-data/, records and spans
# go to build-bench/e2e-out/ (override with --out-dir DIR). Build output
# goes to build-bench/build.log; stdout carries only the benchmark's
# metric lines and its final JSON result line.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench"
mkdir -p "$build"

if ! {
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
    cmake --build "$build" --target bench_e2e -j "$(nproc)"
} >"$build/build.log" 2>&1; then
  echo "bench_e2e: build failed; last lines of $build/build.log:" >&2
  tail -n 20 "$build/build.log" >&2
  exit 1
fi

# Provenance only; a checkout without git history records "unknown".
sha=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
  sha="$(git -C "$root" rev-parse HEAD)"
fi

# bench_e2e's default --data-dir and --out-dir are relative to the root.
cd "$root"
exec "$build/bench_e2e" --git-sha "$sha" "$@"
