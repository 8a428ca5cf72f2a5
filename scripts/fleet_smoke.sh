#!/bin/sh
# Fleet smoke: the multi-process campaign fleet must be a pure scheduling
# change. Run a paper figure solo and as a 3-worker fleet whose first worker
# SIGKILLs itself right after its first lease claim (the abandoned lease is
# re-issued at the next epoch), then require:
#
#   0. the fleet's `[fleet]` report line on stderr counts exactly one
#      restart: the killed worker was respawned once and not killed again,
#   1. byte-identical CSV stdout between the solo and fleet runs,
#   2. byte-identical shard records between the solo and fleet stores
#      (sorted + deduplicated: re-run shards are byte-duplicates by the
#      determinism contract),
#   2b. the same CSV and shard-record identity for 2-worker fleets beyond
#      the default knobs: with ONEBIT_PRUNE=1 (whose store must also carry
#      the workers' outcome records) and with ONEBIT_DISPATCH=switch,
#   2c. ONEBIT_FLEET_LEASE_MS=0 is refused with a warning: a 2-worker crc32
#      fleet then writes as many lease and shard records as at the default
#      lease (a zero lease would be dead on arrival, and every shard would
#      run on both workers),
#   3. `report` reads the fleet store and reports every campaign complete,
#   4. `report --figure fig1` regenerates the solo CSV byte-identically
#      from the fleet store's records, and `report --watch --once` renders
#      a dashboard frame over it,
#   5. compaction drops every (superseded) lease, and the compacted store
#      still resumes to the same CSV,
#   6. `fleet_broker --submit` refuses a negative experiment count with
#      exit 2 and leaves the store byte-unchanged,
#   7. the standalone CLI fleet reproduces one solo cell: qsort's
#      read/single cell, submitted with `fleet_broker --submit` under the
#      solo run's seed and shard size, run by two `fleet_worker` processes
#      (the first SIGKILLs itself right after its first claim, via the
#      `--poison` hook), finishes under `fleet_broker --wait`, leaves a
#      store that `store fsck` calls clean, and carries the solo store's
#      shard records for that cell, byte for byte.
#
#   scripts/fleet_smoke.sh [BUILD_DIR]
#
# BUILD_DIR defaults to ./build; it must contain bench_fig1_single_bit,
# report, store, fleet_broker and fleet_worker (built by the default CMake
# configuration).
set -eu

build=${1:-build}

for tool in bench_fig1_single_bit report store fleet_broker fleet_worker; do
  if [ ! -x "$build/$tool" ]; then
    echo "error: $build/$tool not found or not executable; build first" >&2
    echo "  cmake -B $build -S . && cmake --build $build -j" >&2
    exit 1
  fi
done

tmp=$(mktemp -d "${TMPDIR:-/tmp}/onebit_fleet_smoke.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

export ONEBIT_CSV=1
export ONEBIT_EXPERIMENTS=${ONEBIT_EXPERIMENTS:-64}
export ONEBIT_PROGRAMS=${ONEBIT_PROGRAMS:-qsort,crc32}

echo "== solo run (reference)"
ONEBIT_STORE="$tmp/solo.jsonl" \
  "$build/bench_fig1_single_bit" > "$tmp/fig1_solo.csv"

echo "== fleet run: 3 workers, worker 0 SIGKILLed after its first claim"
ONEBIT_STORE="$tmp/fleet.jsonl" \
  ONEBIT_FLEET_WORKERS=3 \
  ONEBIT_FLEET_KILL_AFTER=1 \
  ONEBIT_FLEET_LEASE_MS=2000 \
  "$build/bench_fig1_single_bit" > "$tmp/fig1_fleet.csv" 2> "$tmp/fleet.log"
cat "$tmp/fleet.log"

echo "== the killed worker was respawned exactly once"
grep '^\[fleet\]' "$tmp/fleet.log" | grep -q ' 1 restarts,'

echo "== CSV byte-identity"
diff "$tmp/fig1_solo.csv" "$tmp/fig1_fleet.csv"

echo "== shard-record byte-identity (sorted, deduplicated)"
grep '"kind":"shard"' "$tmp/solo.jsonl" | sort -u > "$tmp/shards_solo.jsonl"
grep '"kind":"shard"' "$tmp/fleet.jsonl" | sort -u > "$tmp/shards_fleet.jsonl"
diff "$tmp/shards_solo.jsonl" "$tmp/shards_fleet.jsonl"

for knob in ONEBIT_PRUNE=1 ONEBIT_DISPATCH=switch; do
  echo "== fleet run: 2 workers, $knob"
  env "$knob" ONEBIT_STORE="$tmp/knob.jsonl" ONEBIT_FLEET_WORKERS=2 \
    "$build/bench_fig1_single_bit" > "$tmp/fig1_knob.csv"
  diff "$tmp/fig1_solo.csv" "$tmp/fig1_knob.csv"
  grep '"kind":"shard"' "$tmp/knob.jsonl" | sort -u > "$tmp/shards_knob.jsonl"
  diff "$tmp/shards_solo.jsonl" "$tmp/shards_knob.jsonl"
  if [ "$knob" = ONEBIT_PRUNE=1 ] &&
     ! grep -q '"kind":"outcome"' "$tmp/knob.jsonl"; then
    echo "error: pruned fleet store carries no outcome records" >&2
    exit 1
  fi
  rm -f "$tmp/knob.jsonl" "$tmp/knob.jsonl.lock"
done

echo "== ONEBIT_FLEET_LEASE_MS=0 is refused: as many lease and shard records"
echo "   as at the default lease"
lease_counts() {  # "LEASES SHARDS" of a 2-worker crc32 fleet under env "$@"
  rm -f "$tmp/lease.jsonl" "$tmp/lease.jsonl.lock"
  env "$@" ONEBIT_PROGRAMS=crc32 ONEBIT_EXPERIMENTS=32 \
    ONEBIT_STORE="$tmp/lease.jsonl" ONEBIT_FLEET_WORKERS=2 \
    "$build/bench_fig1_single_bit" > /dev/null 2> "$tmp/lease.log"
  echo "$(grep -c '"kind":"lease"' "$tmp/lease.jsonl")" \
    "$(grep -c '"kind":"shard"' "$tmp/lease.jsonl")"
}
default_counts=$(lease_counts)
zero_counts=$(lease_counts ONEBIT_FLEET_LEASE_MS=0)
grep -q 'ignoring ONEBIT_FLEET_LEASE_MS=0' "$tmp/lease.log"
echo "lease and shard records: default lease $default_counts," \
  "ONEBIT_FLEET_LEASE_MS=0 $zero_counts"
if [ "$zero_counts" != "$default_counts" ]; then
  echo "error: ONEBIT_FLEET_LEASE_MS=0 changed the fleet's record counts" >&2
  exit 1
fi

echo "== report summary on the fleet store: every campaign complete"
"$build/report" "$tmp/fleet.jsonl" | tee "$tmp/summary.txt"
grep -q '^  0x' "$tmp/summary.txt"
if grep '^  0x' "$tmp/summary.txt" | grep -qv '\[complete\]'; then
  echo "error: report lists an incomplete campaign in the fleet store" >&2
  exit 1
fi

echo "== report --figure fig1 regenerates the solo CSV from the fleet store"
"$build/report" --figure fig1 "$tmp/fleet.jsonl" > "$tmp/fig1_report.csv"
diff "$tmp/fig1_solo.csv" "$tmp/fig1_report.csv"

echo "== report --watch --once renders a dashboard frame"
"$build/report" --watch --once "$tmp/fleet.jsonl" > "$tmp/watch.txt"
grep -q 'report --watch' "$tmp/watch.txt"

echo "== compact: every lease of a finished run is superseded"
"$build/store" compact "$tmp/fleet.jsonl"
if grep -q '"kind":"lease"' "$tmp/fleet.jsonl"; then
  echo "error: compacted store still contains lease records" >&2
  exit 1
fi

echo "== resume from the compacted fleet store matches the solo CSV"
ONEBIT_STORE="$tmp/fleet.jsonl" ONEBIT_RESUME=1 \
  "$build/bench_fig1_single_bit" > "$tmp/fig1_resumed.csv"
diff "$tmp/fig1_solo.csv" "$tmp/fig1_resumed.csv"

echo "== fleet_broker --submit rejects a negative experiment count"
cp "$tmp/fleet.jsonl" "$tmp/before.jsonl"
rc=0
"$build/fleet_broker" "$tmp/fleet.jsonl" --submit qsort read/single -1 \
  2> "$tmp/submit.err" || rc=$?
if [ "$rc" != 2 ]; then
  echo "error: --submit with -1 experiments exited $rc, want 2" >&2
  exit 1
fi
cmp "$tmp/before.jsonl" "$tmp/fleet.jsonl"

echo "== CLI fleet: fleet_broker --submit, two fleet_worker processes, the"
echo "   first SIGKILLed after its first claim"
cell_shards() {  # the sorted shard records of qsort's read/single cell
  grep '"kind":"shard"' "$1" | grep '"workload":"qsort"' |
    grep '"spec":"read/single"' | sort -u
}
cell_shards "$tmp/solo.jsonl" > "$tmp/cli_solo.jsonl"
first=$(head -n 1 "$tmp/cli_solo.jsonl")
seed=$(printf '%s\n' "$first" | sed 's/.*"seed":"\(0x[0-9a-f]*\)".*/\1/')
experiments=$(printf '%s\n' "$first" |
  sed 's/.*"experiments":\([0-9]*\).*/\1/')
shard_size=$(grep '"first":0,' "$tmp/cli_solo.jsonl" |
  sed 's/.*"count":\([0-9]*\).*/\1/')
cli="$tmp/cli.jsonl"
"$build/fleet_broker" "$cli" --submit qsort read/single "$experiments" \
  --seed "$seed" --flip-width 32 --shard-size "$shard_size"
rc=0
"$build/fleet_worker" "$cli" --poison qsort 2> "$tmp/cli_killed.log" || rc=$?
if [ "$rc" != 137 ]; then
  cat "$tmp/cli_killed.log" >&2
  echo "error: the poisoned fleet_worker exited $rc, want 137 (SIGKILL)" >&2
  exit 1
fi
"$build/fleet_worker" "$cli" --poll-ms 10 2> "$tmp/cli_worker.log" &
worker=$!
"$build/fleet_broker" "$cli" --wait --poll-ms 20
wait "$worker"
"$build/store" fsck "$cli"
cell_shards "$cli" > "$tmp/cli_fleet.jsonl"
diff "$tmp/cli_solo.jsonl" "$tmp/cli_fleet.jsonl"

echo "fleet smoke: OK"
