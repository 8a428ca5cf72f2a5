#!/bin/sh
# Knob-matrix equivalence smoke: execution knobs change scheduling and
# speed, never a result. Each group runs a driver under the variants of one
# knob and requires byte-identical CSV stdout (ONEBIT_CSV=1):
#
#   threads    fig1 at ONEBIT_THREADS=1 vs 8 (the suite determinism
#              contract), 64 experiments, all programs
#   snapshots  fig1 with the golden-prefix snapshot cache off
#              (ONEBIT_SNAPSHOT_INTERVAL=0), at interval 1, and at the auto
#              interval; 96 experiments, 4 threads, all programs; and the
#              fig4 grid (8 experiments) off vs auto
#   prune      ONEBIT_PRUNE=0 vs 1 on fig1 and the memory-fault scenario at
#              threads 1 and 8 (64 experiments) and on the fig4 grid (8);
#              a pruned fig1 run must print its "[prune] ...
#              short_circuited=N" summary on stderr, and a pruned fig1 store
#              (4 threads) must hold the same shard records as an unpruned
#              one, plus "outcome" records
#   dispatch   ONEBIT_DISPATCH=switch vs threaded on fig1 at threads 1 and 8
#              (64 experiments) and on the fig4 grid (8)
#
# The fig4 snapshot row, prune and dispatch run on
# ONEBIT_PROGRAMS=qsort,crc32,sha,dijkstra. An empty output fails a
# comparison. Every other ONEBIT_* knob is cleared first, so the caller's
# environment cannot leak into a comparison.
#
#   scripts/knob_matrix.sh [BUILD_DIR]
#
# BUILD_DIR defaults to ./build; it must contain bench_fig1_single_bit,
# bench_fig4_fig5_table3 and bench_scenario_memory_faults.
set -eu

build=${1:-build}

for tool in bench_fig1_single_bit bench_fig4_fig5_table3 \
    bench_scenario_memory_faults; do
  if [ ! -x "$build/$tool" ]; then
    echo "error: $build/$tool not found or not executable; build first" >&2
    echo "  cmake -B $build -S . && cmake --build $build -j" >&2
    exit 1
  fi
done

for knob in $(env | sed -n 's/^\(ONEBIT_[A-Z0-9_]*\)=.*/\1/p'); do
  unset "$knob"
done

tmp=$(mktemp -d "${TMPDIR:-/tmp}/onebit_knob_matrix.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

export ONEBIT_CSV=1

# run OUT DRIVER [KNOB=VALUE ...]: DRIVER's stdout under the knobs into OUT,
# its stderr into OUT.err.
run() {
  out=$1 driver=$2
  shift 2
  if ! env "$@" "$build/bench_$driver" > "$tmp/$out" 2> "$tmp/$out.err"; then
    cat "$tmp/$out.err" >&2
    echo "error: bench_$driver failed under $*" >&2
    exit 1
  fi
}

# same A B: the two outputs must be non-empty and byte-identical.
same() {
  for f in "$1" "$2"; do
    if [ ! -s "$tmp/$f" ]; then
      echo "error: $f is empty" >&2
      exit 1
    fi
  done
  diff "$tmp/$1" "$tmp/$2"
}

echo "== threads: fig1 at 1 vs 8"
run fig1_t1 fig1_single_bit ONEBIT_EXPERIMENTS=64 ONEBIT_THREADS=1
run fig1_t8 fig1_single_bit ONEBIT_EXPERIMENTS=64 ONEBIT_THREADS=8
same fig1_t1 fig1_t8

echo "== snapshots: fig1 cache off vs interval 1 vs auto"
run fig1_snap_off fig1_single_bit ONEBIT_EXPERIMENTS=96 ONEBIT_THREADS=4 \
  ONEBIT_SNAPSHOT_INTERVAL=0
run fig1_snap_i1 fig1_single_bit ONEBIT_EXPERIMENTS=96 ONEBIT_THREADS=4 \
  ONEBIT_SNAPSHOT_INTERVAL=1
run fig1_snap_auto fig1_single_bit ONEBIT_EXPERIMENTS=96 ONEBIT_THREADS=4
same fig1_snap_off fig1_snap_i1
same fig1_snap_off fig1_snap_auto

export ONEBIT_PROGRAMS=qsort,crc32,sha,dijkstra

echo "== snapshots: fig4 grid cache off vs auto"
run fig4_snap_off fig4_fig5_table3 ONEBIT_EXPERIMENTS=8 \
  ONEBIT_SNAPSHOT_INTERVAL=0
run fig4_snap_auto fig4_fig5_table3 ONEBIT_EXPERIMENTS=8
same fig4_snap_off fig4_snap_auto

for t in 1 8; do
  echo "== prune: fig1 and memory faults at $t thread(s), off vs on"
  for p in 0 1; do
    run "fig1_p${p}_t$t" fig1_single_bit ONEBIT_EXPERIMENTS=64 \
      ONEBIT_THREADS=$t ONEBIT_PRUNE=$p
    run "mem_p${p}_t$t" scenario_memory_faults ONEBIT_EXPERIMENTS=64 \
      ONEBIT_THREADS=$t ONEBIT_PRUNE=$p
  done
  same "fig1_p0_t$t" "fig1_p1_t$t"
  same "mem_p0_t$t" "mem_p1_t$t"
  if ! grep -q '^\[prune\] .*short_circuited=[0-9]' "$tmp/fig1_p1_t$t.err"; then
    echo "error: pruned fig1 run printed no [prune] summary line" >&2
    cat "$tmp/fig1_p1_t$t.err" >&2
    exit 1
  fi
done

echo "== prune: fig4 grid, off vs on"
run fig4_p0 fig4_fig5_table3 ONEBIT_EXPERIMENTS=8 ONEBIT_PRUNE=0
run fig4_p1 fig4_fig5_table3 ONEBIT_EXPERIMENTS=8 ONEBIT_PRUNE=1
same fig4_p0 fig4_p1

echo "== prune: fig1 store shard records, off vs on"
for p in 0 1; do
  run "fig1_store_p$p" fig1_single_bit ONEBIT_EXPERIMENTS=64 ONEBIT_THREADS=4 \
    ONEBIT_PRUNE=$p ONEBIT_STORE="$tmp/prune$p.jsonl"
  grep -v '"kind":"outcome"' "$tmp/prune$p.jsonl" | sort > "$tmp/shards$p"
done
same shards0 shards1
grep -q '"kind":"outcome"' "$tmp/prune1.jsonl"

for t in 1 8; do
  echo "== dispatch: fig1 at $t thread(s), switch vs threaded"
  run "fig1_sw_t$t" fig1_single_bit ONEBIT_EXPERIMENTS=64 ONEBIT_THREADS=$t \
    ONEBIT_DISPATCH=switch
  run "fig1_th_t$t" fig1_single_bit ONEBIT_EXPERIMENTS=64 ONEBIT_THREADS=$t \
    ONEBIT_DISPATCH=threaded
  same "fig1_sw_t$t" "fig1_th_t$t"
done

echo "== dispatch: fig4 grid, switch vs threaded"
run fig4_sw fig4_fig5_table3 ONEBIT_EXPERIMENTS=8 ONEBIT_DISPATCH=switch
run fig4_th fig4_fig5_table3 ONEBIT_EXPERIMENTS=8 ONEBIT_DISPATCH=threaded
same fig4_sw fig4_th

echo "knob matrix: OK"
