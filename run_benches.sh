#!/usr/bin/env bash
# Regenerates every paper table/figure with laptop-scale defaults.
# Results land in results/*.txt (+ .csv); see EXPERIMENTS.md.
#
# --smoke: fast subset for per-change checks — the bench_simt engine
# timings (refreshing BENCH_simt.json, the documented smoke trajectory),
# one allocator sweep, the record→replay round trip and the warpagg,
# resilience, corpus and service gates at smoke scale. Every other smoke
# JSON lands in results/<bench>_smoke.json: the committed BENCH_replay,
# BENCH_warpagg, BENCH_resilience and BENCH_service files hold full runs,
# and only the full sweep rewrites them.
#
# bench_simt sweeps -t o+s+h+c+r+x+a+f+b: the 17 device managers its seed
# anchor was measured over (the default selection adds the host family).
#
# --keep-going: record a failing bench and continue with the rest of the
# sweep instead of aborting; prints a failure summary at the end and exits
# non-zero if anything failed. The default stays fail-fast: a missing
# binary or a crashing bench aborts the sweep with a non-zero exit instead
# of silently leaving stale result files behind.
set -euo pipefail

B=build/bench
R=results

SMOKE=0
KEEP_GOING=0
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=1 ;;
    --keep-going) KEEP_GOING=1 ;;
    *) echo "usage: $0 [--smoke] [--keep-going]" >&2; exit 2 ;;
  esac
done

if [[ ! -d "$B" ]]; then
  echo "error: $B not found — build first: cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

BENCHES=(bench_table1 bench_init_registers bench_alloc_size bench_alloc_mixed
         bench_scaling bench_fragmentation bench_oom bench_workgen
         bench_access bench_graph bench_ablation bench_simt bench_survey
         bench_replay bench_warpagg bench_resilience bench_service)
if [[ $SMOKE -eq 1 ]]; then
  BENCHES=(bench_simt bench_alloc_size bench_workgen bench_replay bench_warpagg
           bench_resilience bench_service)
fi
missing=0
for b in "${BENCHES[@]}"; do
  if [[ ! -x "$B/$b" ]]; then
    echo "error: missing bench binary $B/$b" >&2
    missing=1
  fi
done
if [[ $missing -ne 0 ]]; then
  exit 1
fi

mkdir -p "$R"

FAILED=()

# run <outfile> <bench> [args...] — one sweep entry. Fail-fast by default;
# with --keep-going a failure is recorded and the sweep continues.
run() {
  local out="$1" bench="$2"
  shift 2
  echo "+ $B/$bench $* > $out" >&2
  local rc=0
  "$B/$bench" "$@" > "$out" || rc=$?
  if [[ $rc -ne 0 ]]; then
    echo "FAIL (exit $rc): $bench" >&2
    if [[ $KEEP_GOING -ne 1 ]]; then
      exit "$rc"
    fi
    FAILED+=("$bench (exit $rc)")
  fi
}

finish() {
  if [[ ${#FAILED[@]} -gt 0 ]]; then
    echo "" >&2
    echo "=== ${#FAILED[@]} bench(es) failed ===" >&2
    printf ' - %s\n' "${FAILED[@]}" >&2
    exit 1
  fi
  exit 0
}

if [[ $SMOKE -eq 1 ]]; then
  run "$R"/simt.txt            bench_simt       -t o+s+h+c+r+x+a+f+b --json BENCH_simt.json
  run "$R"/smoke_thread_10k.txt bench_alloc_size --threads 10000 --iters 2
  # Record→replay round trip: capture a small reference trace, then replay
  # it against the source allocator plus strangers — including a host-based
  # one, so the smoke sweep crosses the placement column. bench_replay
  # exits non-zero if any replay is non-deterministic.
  run "$R"/smoke_trace.txt     bench_workgen -t ScatterAlloc --max-exp 8 --iters 1 --mem-mb 64 \
                               --trace "$R"/reference.gmtrace
  run "$R"/smoke_replay.txt    bench_replay --trace "$R"/reference.ScatterAlloc.gmtrace \
                               -t ScatterAlloc,Ouro-P-VA,Halloc,HostExtent --json "$R"/replay_smoke.json \
                               --chrome "$R"/reference.chrome.json
  # Warp-aggregation A/B on a representative subset (the full matrix runs in
  # the non-smoke sweep) at the recorded contention point (32 SMs, 32
  # rounds/lane). --smoke also arms the
  # adaptive regression gate: a never-switched convergent cell must add
  # zero collectives (the no-tax contract, checked on a deterministic
  # counter because wall clock is stall-noisy on a throttled host), and a
  # storm cell whose "+W" speedup drops under 0.75x exits non-zero.
  run "$R"/smoke_warpagg.txt   bench_warpagg -t CUDA,Halloc,ScatterAlloc,Ouro-P-VA \
                               --smoke --sms 32 --iters 32 --json "$R"/warpagg_smoke.json
  # Failure-recovery A/B on a representative subset (full matrix in the
  # non-smoke sweep): base vs "+R" stack plus a fault round; exits non-zero
  # if any resilient run leaks an unrecovered allocation failure.
  run "$R"/smoke_resilience.txt bench_resilience -t ScatterAlloc,Halloc,Ouro-P-S \
                               --sms 8 --iters 8 --json "$R"/resilience_smoke.json
  # Adversarial-corpus regression gate: replay every committed trace under
  # its pinned stack and fail on any verdict drift.
  run "$R"/smoke_corpus.txt    bench_replay --corpus results/corpus
  # AllocService smoke (DESIGN.md §13): one 2-device x 4-tenant sweep cell
  # plus the SIGKILL-one-device failover gate — exits non-zero on silent
  # truncation, a missed kill, unrecovered batches, or a same-seed
  # determinism break. The marker log is the failover telemetry CI archives.
  run "$R"/smoke_service.txt   bench_service --smoke --devices 2 --tenants 4 \
                               --json "$R"/service_smoke.json \
                               --trace "$R"/failover_markers.gmtrace
  finish
fi

run "$R"/table1.txt           bench_table1
run "$R"/init_registers.txt   bench_init_registers --iters 3
run "$R"/fig9_thread_10k.txt  bench_alloc_size --threads 10000 --iters 3
run "$R"/fig9_thread_10k_atomics.txt bench_alloc_size --threads 10000 --iters 3 --metric atomics
run "$R"/fig9g_warp_10k.txt   bench_alloc_size --threads 10000 --iters 2 --warp --mem-mb 384
run "$R"/fig9h_mixed.txt      bench_alloc_mixed --threads 10000 --iters 3
run "$R"/fig10_scaling.txt    bench_scaling --max-exp 14 --iters 2
run "$R"/fig11a_fragmentation.txt bench_fragmentation --threads 20000 --iters 4 --json BENCH_fragmentation.json
run "$R"/fig11b_oom.txt       bench_oom --timeout-s 8 --mem-mb 48 --json BENCH_oom.json
run "$R"/fig11c_workgen_small.txt bench_workgen --range 4-64   --max-exp 14 --iters 2
run "$R"/fig11d_workgen_large.txt bench_workgen --range 4-4096 --max-exp 13 --iters 2 --mem-mb 384
run "$R"/fig11e_access.txt    bench_access --threads 16384
run "$R"/fig11fg_graph.txt    bench_graph --scale 32 --threads 100000 --mem-mb 384
run "$R"/ablation.txt         bench_ablation
run "$R"/simt.txt             bench_simt -t o+s+h+c+r+x+a+f+b --json BENCH_simt.json
# Reference allocation trace + deterministic replay (DESIGN.md §9): record a
# mixed-size workgen run, replay it against four managers, and export the
# Chrome-trace / occupancy views of the recording.
run "$R"/trace_ref.txt        bench_workgen -t ScatterAlloc --max-exp 10 --iters 1 --mem-mb 64 \
                              --trace "$R"/reference.gmtrace
run "$R"/replay.txt           bench_replay --trace "$R"/reference.ScatterAlloc.gmtrace \
                              -t ScatterAlloc,Ouro-P-VA,Halloc,XMalloc,HostExtent,HostBuddy,StreamPool \
                              --json BENCH_replay.json \
                              --chrome "$R"/reference.chrome.json --occupancy "$R"/reference.occupancy.csv
# Warp-aggregation A/B over every general-purpose base vs its "+W" stack
# (DESIGN.md §12): wall ms + atomics-per-malloc at the recorded contention
# point. BENCH_warpagg.json is a perf-trajectory file like BENCH_simt.json.
# 9 reps: the speedup is the median of per-rep A/B ratios, and on a
# quota-throttled 1-core host the per-rep spread is wide enough that 5
# reps still let stall-struck tails through (EXPERIMENTS.md).
run "$R"/warpagg.txt          bench_warpagg --sms 32 --iters 32 --reps 9 --json BENCH_warpagg.json
# Failure-recovery A/B over every base manager vs its "+R" resilient stack
# (DESIGN.md §11) at the warp-agg contention point, plus a fault-injected
# round; BENCH_resilience.json is a perf/recovery trajectory file.
run "$R"/resilience.txt       bench_resilience --sms 32 --iters 32 --json BENCH_resilience.json
# Adversarial-corpus regression gate (results/corpus/): replay every
# committed trace under its pinned stack; any verdict drift fails the sweep.
run "$R"/corpus_sweep.txt     bench_replay --corpus results/corpus --json results/corpus_sweep.json
# Multi-device AllocService (DESIGN.md §13): devices x tenants throughput
# sweep plus the forked SIGKILL failover gate (accounting, re-shard, and
# same-seed marker-digest determinism); the surviving marker log lands next
# to the JSON as the archived failover story.
run "$R"/service.txt          bench_service --json BENCH_service.json \
                              --trace "$R"/failover_markers.gmtrace
# Crash-contained verdict matrix over the full registry (+ hostile stubs to
# prove the containment); writes results/survey.json + results/quarantine.json.
run "$R"/survey.txt           bench_survey --deadline-s 20 --retries 1 --hostile
finish
