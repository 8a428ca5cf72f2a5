#!/bin/sh
# Analytics smoke: the store-backed `report` tool must regenerate paper
# figures from records alone. Run the figure drivers against stores, then
# require:
#
#   1. `report --figure fig1` stdout is byte-identical to the driver's,
#      in text mode AND in CSV mode (ONEBIT_CSV=1 / --csv),
#   2. `report --figure` for fig2, fig3 and fig4 is byte-identical to
#      those drivers' stdout (at ONEBIT_EXPERIMENTS=16),
#   3. a partial store (driver capped at one shard per cell) exits 3 and
#      every affected cell carries an explicit "incomplete(...)" marker —
#      partial data is marked, never reported as a final value,
#   4. a capped fig4 driver prints exactly what `report --figure fig4`
#      renders for its store (markers, no RQ2/RQ3 counts),
#   5. `report --trend` across the partial and the complete snapshot marks
#      the partial column explicitly,
#   6. `report --watch --once` renders one dashboard frame over the store,
#   7. `store_stats --json` emits the machine-readable summary.
#
#   scripts/analytics_smoke.sh [BUILD_DIR]
#
# BUILD_DIR defaults to ./build; it must contain the bench_fig* drivers,
# report, and store_stats (built by the default CMake configuration).
set -eu

build=${1:-build}

for tool in bench_fig1_single_bit bench_fig2_same_register \
    bench_fig3_activated_errors bench_fig4_fig5_table3 report store_stats; do
  if [ ! -x "$build/$tool" ]; then
    echo "error: $build/$tool not found or not executable; build first" >&2
    echo "  cmake -B $build -S . && cmake --build $build -j" >&2
    exit 1
  fi
done

tmp=$(mktemp -d "${TMPDIR:-/tmp}/onebit_analytics_smoke.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

export ONEBIT_EXPERIMENTS=${ONEBIT_EXPERIMENTS:-64}
export ONEBIT_PROGRAMS=${ONEBIT_PROGRAMS:-qsort,crc32}

echo "== fig1 driver run against a store"
ONEBIT_STORE="$tmp/fig1.jsonl" \
  "$build/bench_fig1_single_bit" > "$tmp/fig1_driver.txt"

echo "== report --figure fig1: byte-identical to the driver (text)"
"$build/report" --figure fig1 "$tmp/fig1.jsonl" > "$tmp/fig1_report.txt"
diff "$tmp/fig1_driver.txt" "$tmp/fig1_report.txt"

echo "== report --figure fig1: byte-identical to the driver (CSV)"
ONEBIT_STORE="$tmp/fig1.jsonl" ONEBIT_RESUME=1 ONEBIT_CSV=1 \
  "$build/bench_fig1_single_bit" > "$tmp/fig1_driver.csv"
"$build/report" --csv --figure fig1 "$tmp/fig1.jsonl" > "$tmp/fig1_report.csv"
diff "$tmp/fig1_driver.csv" "$tmp/fig1_report.csv"

for pair in fig2:fig2_same_register fig3:fig3_activated_errors \
    fig4:fig4_fig5_table3; do
  id=${pair%%:*}
  echo "== report --figure $id: byte-identical to the driver (text)"
  ONEBIT_EXPERIMENTS=16 ONEBIT_STORE="$tmp/$id.jsonl" \
    "$build/bench_${pair#*:}" > "$tmp/${id}_driver.txt"
  ONEBIT_EXPERIMENTS=16 \
    "$build/report" --figure "$id" "$tmp/$id.jsonl" > "$tmp/${id}_report.txt"
  diff "$tmp/${id}_driver.txt" "$tmp/${id}_report.txt"
done

echo "== capped fig4 driver: stdout equals report --figure fig4 on its store"
ONEBIT_EXPERIMENTS=16 ONEBIT_SHARD_SIZE=8 ONEBIT_MAX_SHARDS=1 \
  ONEBIT_STORE="$tmp/fig4_capped.jsonl" \
  "$build/bench_fig4_fig5_table3" > "$tmp/fig4_capped_driver.txt"
rc=0
ONEBIT_EXPERIMENTS=16 "$build/report" --figure fig4 "$tmp/fig4_capped.jsonl" \
  > "$tmp/fig4_capped_report.txt" || rc=$?
if [ "$rc" != 3 ]; then
  echo "error: report on a capped fig4 store exited $rc, want 3" >&2
  exit 1
fi
diff "$tmp/fig4_capped_driver.txt" "$tmp/fig4_capped_report.txt"
grep -q 'RQ2/RQ3: unavailable' "$tmp/fig4_capped_driver.txt"

echo "== partial store: exit 3 + explicit incomplete markers"
ONEBIT_STORE="$tmp/partial.jsonl" ONEBIT_SHARD_SIZE=8 ONEBIT_MAX_SHARDS=1 \
  "$build/bench_fig1_single_bit" > /dev/null
rc=0
"$build/report" --figure fig1 "$tmp/partial.jsonl" > "$tmp/partial.txt" || rc=$?
if [ "$rc" != 3 ]; then
  echo "error: report on a partial store exited $rc, want 3" >&2
  exit 1
fi
grep -q 'incomplete(' "$tmp/partial.txt"

echo "== trend across the partial and the complete snapshot"
"$build/report" --trend "$tmp/partial.jsonl" "$tmp/fig1.jsonl" \
  > "$tmp/trend.txt"
grep -q 'partial' "$tmp/trend.txt"

echo "== watch dashboard, one frame"
"$build/report" --watch --once "$tmp/fig1.jsonl" > "$tmp/watch.txt"
grep -q 'report --watch' "$tmp/watch.txt"

echo "== store_stats --json"
"$build/store_stats" --json "$tmp/fig1.jsonl" > "$tmp/stats.json"
grep -q '"campaigns"' "$tmp/stats.json"

echo "analytics smoke: OK"
