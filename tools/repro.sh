#!/usr/bin/env bash
# tools/repro.sh — runs the README quickstart commands end to end
# against a tiny synthetic graph: generate → CLI query/top-k → boot
# simpush_serve → curl every endpoint → SIGTERM drain → a short
# bench/e2e run. CI executes this on every push (.github/workflows/ci.yml,
# `serve` job), so the documented commands cannot rot.
#
# Usage: tools/repro.sh            (configures+builds ./build if needed)
#        BUILD_DIR=mybuild tools/repro.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
if [[ ! -x "$BUILD_DIR/simpush_cli" || ! -x "$BUILD_DIR/simpush_serve" ]]; then
  echo "== building into $BUILD_DIR"
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD_DIR" -j
fi
CLI="$BUILD_DIR/simpush_cli"
SERVE="$BUILD_DIR/simpush_serve"

WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [[ -n "$SERVE_PID" ]] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== generate a tiny synthetic web-like graph (Chung-Lu, power law)"
"$CLI" generate --kind chunglu --nodes 2000 --edges 16000 --seed 1 \
    --out "$WORK/web.txt"
"$CLI" stats --graph "$WORK/web.txt" | tee "$WORK/stats.txt.out"

echo "== convert to SPG1 binary: stats agree with the edge list"
# Not a byte compare of txt -> spg -> txt: loading renumbers nodes in
# first-appearance order, so the rewritten edge list legitimately differs.
"$CLI" convert --in "$WORK/web.txt" --out "$WORK/web.spg"
"$CLI" stats --graph "$WORK/web.spg" > "$WORK/stats.spg.out"
diff "$WORK/stats.txt.out" "$WORK/stats.spg.out" || {
  echo "simpush_cli stats differs between web.txt and web.spg" >&2; exit 1; }

echo "== an unknown subcommand exits 2 with the usage text"
status=0
"$CLI" index --graph "$WORK/web.txt" 2> "$WORK/usage.err" || status=$?
[[ $status -eq 2 ]] && grep -q "^usage: simpush_cli" "$WORK/usage.err" || {
  echo "simpush_cli index: exit $status, want 2 with usage" >&2; exit 1; }

echo "== single-source SimRank query (CLI)"
"$CLI" query --graph "$WORK/web.txt" --node 42 --epsilon 0.05 --limit 5
# A limit past the positive scores lists each positive score once, no
# zero-score rows, and the header counts the rows printed.
"$CLI" query --graph "$WORK/web.txt" --node 42 --epsilon 0.05 \
    --limit 100000 > "$WORK/query.out"
awk '/^#/ { shown = $6; next } { rows++; if ($2 <= 0) bad++ }
     END { exit !(rows == shown && rows > 0 && bad == 0) }' \
    "$WORK/query.out" || {
  echo "simpush_cli query listed zero scores or miscounted them" >&2; exit 1; }

echo "== top-k query (CLI)"
"$CLI" topk --graph "$WORK/web.txt" --node 42 --k 5 --epsilon 0.05
# The baselines rank with the same selector: a k past the positive
# scores lists no zero-score rows.
"$CLI" topk --graph "$WORK/web.txt" --node 42 --k 100000 --epsilon 0.05 \
    --method probesim > "$WORK/topk.out"
awk '{ rows++; if ($2 <= 0) bad++ } END { exit !(rows > 0 && bad == 0) }' \
    "$WORK/topk.out" || {
  echo "simpush_cli topk --method probesim listed zero scores" >&2; exit 1; }

echo "== integer flags are strict unsigned decimals: a bad value exits 2 naming the flag"
for bad in -1 64MiB; do
  status=0
  timeout 10 "$SERVE" --graph "$WORK/web.txt" --port 0 --cache-bytes "$bad" \
      2> "$WORK/flag.err" || status=$?
  [[ $status -eq 2 ]] && grep -q -- "--cache-bytes" "$WORK/flag.err" || {
    echo "simpush_serve --cache-bytes $bad: exit $status, want 2" >&2; exit 1; }
  status=0
  "$CLI" query --graph "$WORK/web.txt" --node "$bad" \
      2> "$WORK/flag.err" || status=$?
  [[ $status -eq 2 ]] && grep -q -- "--node" "$WORK/flag.err" || {
    echo "simpush_cli --node $bad: exit $status, want 2" >&2; exit 1; }
done

echo "== double flags are whole numbers: trailing text or an empty value exits 2 naming the flag"
for bad in 0.05x ""; do
  status=0
  "$CLI" topk --graph "$WORK/web.txt" --node 42 --k 3 --epsilon "$bad" \
      > /dev/null 2> "$WORK/flag.err" || status=$?
  [[ $status -eq 2 ]] && grep -q -- "--epsilon" "$WORK/flag.err" || {
    echo "simpush_cli topk --epsilon '$bad': exit $status, want 2" >&2; exit 1; }
  status=0
  timeout 10 "$SERVE" --graph "$WORK/web.txt" --port 0 --default-epsilon "$bad" \
      2> "$WORK/flag.err" || status=$?
  [[ $status -eq 2 ]] && grep -q -- "--default-epsilon" "$WORK/flag.err" || {
    echo "simpush_serve --default-epsilon '$bad': exit $status, want 2" >&2
    exit 1; }
done

echo "== a flag with no value, or a stray word in flag position, exits 2 naming it"
for tail in "--epsilon" "stray --epsilon 0.3 --k 3"; do
  named="${tail%% *}"
  status=0
  # shellcheck disable=SC2086  # $tail is split into words on purpose.
  "$CLI" topk --graph "$WORK/web.txt" --node 3 $tail \
      > /dev/null 2> "$WORK/flag.err" || status=$?
  [[ $status -eq 2 ]] && grep -q -- "$named" "$WORK/flag.err" || {
    echo "simpush_cli topk ... $tail: exit $status, want 2 naming $named" >&2
    exit 1; }
done
for tail in "--default-epsilon" "stray --default-epsilon 0.05"; do
  named="${tail%% *}"
  status=0
  # shellcheck disable=SC2086
  timeout 10 "$SERVE" --graph "$WORK/web.txt" --port 0 $tail \
      2> "$WORK/flag.err" || status=$?
  [[ $status -eq 2 ]] && grep -q -- "$named" "$WORK/flag.err" || {
    echo "simpush_serve ... $tail: exit $status, want 2 naming $named" >&2
    exit 1; }
done

echo "== topk rejects an epsilon outside (0,1) for every method: exit 1"
for method in simpush probesim sling prsim; do
  for eps in 0 -1 nan; do
    status=0
    "$CLI" topk --graph "$WORK/web.txt" --node 42 --k 3 --epsilon "$eps" \
        --method "$method" > /dev/null 2> "$WORK/eps.err" || status=$?
    [[ $status -eq 1 ]] && grep -q "epsilon must be in (0,1)" "$WORK/eps.err" || {
      echo "simpush_cli topk --method $method --epsilon $eps: exit $status," \
           "want 1 naming epsilon" >&2; exit 1; }
  done
done

echo "== boot simpush_serve on an ephemeral port (second tenant with its own epsilon)"
"$SERVE" --graph "$WORK/web.txt" --graph "tuned=$WORK/web.txt:eps=0.08" \
    --port 0 --default-epsilon 0.05 --port-file "$WORK/port" &
SERVE_PID=$!
for _ in $(seq 100); do [[ -s "$WORK/port" ]] && break; sleep 0.05; done
PORT="$(cat "$WORK/port")"
for _ in $(seq 100); do
  curl -sf "http://127.0.0.1:$PORT/healthz" > /dev/null && break
  sleep 0.05
done

echo "== POST /v1/query (top-k truncated)"
curl -sf -X POST "http://127.0.0.1:$PORT/v1/query" \
    -d '{"node": 42, "top_k": 5, "with_stats": true}'

echo "== POST /v1/query on the tuned tenant (its own epsilon=0.08)"
curl -sf -X POST "http://127.0.0.1:$PORT/v1/query" \
    -d '{"node": 42, "graph": "tuned", "top_k": 5}' \
    | grep -q '"epsilon":0.08' || {
  echo "tuned tenant did not answer with its own epsilon" >&2; exit 1; }
curl -sf -X POST "http://127.0.0.1:$PORT/v1/query" \
    -d '{"node": 42, "graph": "tuned", "top_k": 5}'

echo "== POST /v1/query with a per-request epsilon override"
curl -sf -X POST "http://127.0.0.1:$PORT/v1/query" \
    -d '{"node": 42, "top_k": 5, "epsilon": 0.1}' \
    | grep -q '"epsilon":0.1' || {
  echo "per-request epsilon override not honored" >&2; exit 1; }

echo "== repeat query is served from the generation-keyed result cache"
curl -sf -X POST "http://127.0.0.1:$PORT/v1/query" \
    -d '{"node": 42, "top_k": 5}' > /dev/null
curl -sf -X POST "http://127.0.0.1:$PORT/v1/query" \
    -d '{"node": 42, "top_k": 5}' \
    | grep -q '"cached":true' || {
  echo "repeat query was not served from the result cache" >&2; exit 1; }

echo "== POST /v1/topk"
curl -sf -X POST "http://127.0.0.1:$PORT/v1/topk" -d '{"node": 42, "k": 5}'

echo "== POST /v1/batch"
curl -sf -X POST "http://127.0.0.1:$PORT/v1/batch" \
    -d '{"nodes": [1, 2, 3], "k": 3}'

echo "== GET /v1/stats"
curl -sf "http://127.0.0.1:$PORT/v1/stats"

echo "== hot swap: stage edge updates on the live graph, then publish"
curl -sf -X POST "http://127.0.0.1:$PORT/v1/graphs/default/edges" \
    -d '{"add": [[1, 2], [2, 3]]}'
curl -sf -X POST "http://127.0.0.1:$PORT/v1/graphs/default/swap"
curl -sf -X POST "http://127.0.0.1:$PORT/v1/query" \
    -d '{"node": 42, "top_k": 3}'

echo "== multi-tenant: create a graph with its own options, query it, delete it"
curl -sf -X POST "http://127.0.0.1:$PORT/v1/graphs" \
    -d '{"name": "toy", "nodes": 3, "edges": [[0, 1], [1, 2], [2, 0]],
         "options": {"epsilon": 0.02}}'
curl -sf "http://127.0.0.1:$PORT/v1/graphs"
curl -sf "http://127.0.0.1:$PORT/v1/graphs/toy" \
    | grep -q '"epsilon":0.02' || {
  echo "per-tenant options missing from stats" >&2; exit 1; }
curl -sf -X POST "http://127.0.0.1:$PORT/v1/query" \
    -d '{"node": 0, "graph": "toy", "top_k": 2}'
curl -sf -X DELETE "http://127.0.0.1:$PORT/v1/graphs/toy"

echo "== graceful drain (SIGTERM; exit 0 after in-flight work finishes)"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""

echo "== closed-loop Zipf load through the serving stack (bench/e2e)"
# Its exit status carries the benchmark's replay and oracle gates.
bash bench/e2e/run.sh --workload query_small_zipf --seed 1 --seconds 2 --trace 0

echo "== record perf trajectory (BENCH_serial.json / BENCH_parallel.json / BENCH_dynamic.json)"
# Every PR re-records machine-readable numbers at the repo root so the
# perf trajectory is part of the history, not terminal scrollback.
SIMPUSH_GIT_SHA="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export SIMPUSH_GIT_SHA
if [[ -x "$BUILD_DIR/bench_micro" ]]; then
  "$BUILD_DIR/bench_micro" --json BENCH_serial.json \
      --benchmark_filter='BM_WalkKernel|BM_DetectMaxLevel|BM_SourcePushStage|BM_GammaStage|BM_FullQuery|BM_QuerySteadyState|BM_LoadEdgeList|BM_ResultCacheHit' \
      --benchmark_min_time=0.2 --benchmark_repetitions=3 \
      --benchmark_report_aggregates_only=false > /dev/null
  echo "   wrote BENCH_serial.json"
fi
if [[ -x "$BUILD_DIR/bench_parallel" ]]; then
  SIMPUSH_BENCH_SCALE=quick "$BUILD_DIR/bench_parallel" \
      --json BENCH_parallel.json > /dev/null
  echo "   wrote BENCH_parallel.json"
fi
if [[ -x "$BUILD_DIR/bench_dynamic_updates" ]]; then
  # Full-vs-delta publish cost across a dirty-fraction sweep on a
  # 1.6M-edge Chung-Lu graph. The asserts pin the delta-generations
  # contract: at <=1% dirty vertices a delta publish always beats a full
  # rebuild, and at the low-dirty end it is >=10x cheaper.
  SIMPUSH_BENCH_SCALE=quick "$BUILD_DIR/bench_dynamic_updates" \
      --sweep-only --json BENCH_dynamic.json > /dev/null
  echo "   wrote BENCH_dynamic.json"
  python3 - <<'EOF'
import json, sys
with open("BENCH_dynamic.json") as f:
    doc = json.load(f)
rows = {r["name"]: r for r in doc["results"]}
# delta_dirty_* rows time DynamicGraph::SnapshotDelta; merge_dirty_* rows
# time PendingEdits::Merge, the path a registry swap runs.
for kind in ("delta", "merge"):
    pairs = []
    for name, row in rows.items():
        if not name.startswith(kind + "_dirty_"):
            continue
        full = rows.get("full_" + name[len(kind) + 1:])
        assert full, f"missing full row for {name}"
        assert row["counters"]["edges"] >= 1_000_000, "sweep graph below 1M edges"
        pairs.append((row["counters"]["dirty_fraction"],
                      full["median_ms"] / row["median_ms"]))
    assert pairs, f"no {kind} rows in BENCH_dynamic.json"
    at_most_1pct = [(f, s) for f, s in pairs if f <= 0.01]
    assert at_most_1pct, f"no {kind} sweep rows at <=1% dirty"
    for frac, speedup in at_most_1pct:
        if speedup <= 1.0:
            sys.exit(f"{kind} publish slower than full at {frac:.2%} dirty: "
                     f"{speedup:.1f}x")
    best = max(s for _, s in at_most_1pct)
    if best < 10.0:
        sys.exit(f"{kind} publish under 10x at <=1% dirty (best {best:.1f}x)")
    print(f"   {kind}-vs-full speedups at <=1% dirty: " +
          ", ".join(f"{s:.1f}x@{f:.2%}" for f, s in sorted(at_most_1pct)))
EOF
fi

echo "repro.sh: all documented commands ran green"
