#!/usr/bin/env bash
# Benchmark runner emitting BENCH_PR{5,6,7,8,9,10}.json at the repo root.
#
# Usage: scripts/bench.sh [--only <name>]
#   --only <name>  run a single benchmark; <name> is one of
#                  campaign_mttr | scheduler_fairness | roofline |
#                  batched_assimilation | pipelined_campaign |
#                  adaptive_degradation
#
# PR5: the fig14-style campaign MTTR sweep on the DES model at paper
# scale: virtual time-to-completion of a 16-cycle supervised assimilation
# campaign versus injected crash count, with the checkpoint recovery line
# (bounded loss per crash: partial attempt + backoff + one restore sweep)
# and without it (a crash restarts the whole campaign from cycle 0).
# Checkpoint overhead is reported explicitly (exposed seconds + ratio).
#
# PR6: the scheduler fairness sweep: aggregate throughput and p99
# campaign latency versus tenant count, with fair-share admission on
# (SLA-gated weighted max-min) and off (equal-split packing).
#
# PR7: kernel-layer roofline (GEMM / eigensolve / conversion).
#
# PR8: D-EnKF batched vs P-EnKF sequential assimilation sweep.
#
# PR9: pipelined vs synchronous checkpointing — the same MTTR sweep's
# PIPE lines: clean-campaign durability overhead cut by cross-cycle
# overlap, with the crash-loss bound preserved.
#
# PR10: online health monitoring — a static (retry-only) vs adaptive
# (failure detector + OST blacklisting + speculative replica reads)
# campaign under OST slowdown storms of growing severity.
set -euo pipefail
cd "$(dirname "$0")/.."

only=""
if [[ "${1:-}" == "--only" ]]; then
  only="${2:?--only needs a benchmark name}"
elif [[ $# -gt 0 ]]; then
  echo "usage: scripts/bench.sh [--only <name>]" >&2
  exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

want() { [[ -z "$only" || "$only" == "$1" ]]; }

# campaign_mttr feeds both BENCH_PR5 (MTTR lines) and BENCH_PR9 (PIPE
# lines); run it once if either is wanted.
run_mttr_bin() {
  if [[ ! -s "$tmp/mttr.txt" ]]; then
    echo "==> campaign_mttr (paper-scale checkpointed-campaign MTTR sweep)"
    cargo run -q --release -p enkf-bench --bin campaign_mttr | tee "$tmp/mttr.txt"
  fi
}

bench_campaign_mttr() {
  local out=BENCH_PR5.json
  run_mttr_bin

  # campaign_mttr prints one machine-readable line per sweep point:
  #   MTTR crashes=2 cycles=16 clean_s=... ckpt_s=... nockpt_s=... \
  #        ckpt_lost_s=... nockpt_lost_s=... nockpt_over_ckpt=... \
  #        ckpt_overhead_s=... ckpt_overhead_ratio=...
  awk '
    $1 == "MTTR" {
      for (i = 2; i <= NF; i++) { split($i, kv, "="); v[kv[1]] = kv[2] }
      printf "    { \"crashes\": %s, \"with_ckpt_s\": %s, \"without_ckpt_s\": %s,",
        v["crashes"], v["ckpt_s"], v["nockpt_s"]
      printf " \"lost_with_ckpt_s\": %s, \"lost_without_ckpt_s\": %s, \"nockpt_over_ckpt\": %s,",
        v["ckpt_lost_s"], v["nockpt_lost_s"], v["nockpt_over_ckpt"]
      printf " \"ckpt_overhead_s\": %s, \"ckpt_overhead_ratio\": %s },\n",
        v["ckpt_overhead_s"], v["ckpt_overhead_ratio"]
    }
  ' "$tmp/mttr.txt" >"$tmp/sweep.txt"
  sed -i '$ s/ },$/ }/' "$tmp/sweep.txt"

  local clean_s cycles ovh_s ovh_ratio
  clean_s=$(awk '$1 == "MTTR" { for (i=2;i<=NF;i++) { split($i,kv,"="); v[kv[1]]=kv[2] } print v["clean_s"]; exit }' "$tmp/mttr.txt")
  cycles=$(awk '$1 == "MTTR" { for (i=2;i<=NF;i++) { split($i,kv,"="); v[kv[1]]=kv[2] } print v["cycles"]; exit }' "$tmp/mttr.txt")
  ovh_s=$(awk '$1 == "MTTR" { for (i=2;i<=NF;i++) { split($i,kv,"="); v[kv[1]]=kv[2] } print v["ckpt_overhead_s"]; exit }' "$tmp/mttr.txt")
  ovh_ratio=$(awk '$1 == "MTTR" { for (i=2;i<=NF;i++) { split($i,kv,"="); v[kv[1]]=kv[2] } print v["ckpt_overhead_ratio"]; exit }' "$tmp/mttr.txt")

  {
    cat <<HEADER
{
  "benchmark": "PR5: durable checkpoint/restart — campaign MTTR sweep (fig14-style)",
  "model": "DES, paper-scale S-EnKF (autotuned at 8000 processors)",
  "cycles": $cycles,
  "clean_campaign_s": $clean_s,
  "clean_ckpt_overhead_s": $ovh_s,
  "clean_ckpt_overhead_ratio": $ovh_ratio,
  "sweep": [
HEADER
    cat "$tmp/sweep.txt"
    cat <<'FOOTER'
  ]
}
FOOTER
  } >"$out"

  echo "wrote $out"
}

bench_pipelined_campaign() {
  local out=BENCH_PR9.json
  run_mttr_bin

  # campaign_mttr also prints one PIPE line per sweep point:
  #   PIPE crashes=2 cycles=16 sync_s=... pipe_s=... sync_overhead_s=... \
  #        pipe_overhead_s=... overhead_cut=... hidden_s=... exposed_s=... \
  #        trace_hidden_frac=... sync_lost_s=... pipe_lost_s=...
  awk '
    $1 == "PIPE" {
      for (i = 2; i <= NF; i++) { split($i, kv, "="); v[kv[1]] = kv[2] }
      printf "    { \"crashes\": %s, \"sync_s\": %s, \"pipelined_s\": %s,",
        v["crashes"], v["sync_s"], v["pipe_s"]
      printf " \"sync_overhead_s\": %s, \"pipelined_overhead_s\": %s, \"overhead_cut\": %s,",
        v["sync_overhead_s"], v["pipe_overhead_s"], v["overhead_cut"]
      printf " \"hidden_s\": %s, \"exposed_s\": %s, \"trace_hidden_fraction\": %s,",
        v["hidden_s"], v["exposed_s"], v["trace_hidden_frac"]
      printf " \"sync_lost_s\": %s, \"pipelined_lost_s\": %s },\n",
        v["sync_lost_s"], v["pipe_lost_s"]
    }
  ' "$tmp/mttr.txt" >"$tmp/pipe_sweep.txt"
  sed -i '$ s/ },$/ }/' "$tmp/pipe_sweep.txt"

  local cycles sync0 pipe0 cut0 hidden0
  cycles=$(awk '$1 == "PIPE" { for (i=2;i<=NF;i++) { split($i,kv,"="); v[kv[1]]=kv[2] } print v["cycles"]; exit }' "$tmp/mttr.txt")
  sync0=$(awk '$1 == "PIPE" { for (i=2;i<=NF;i++) { split($i,kv,"="); v[kv[1]]=kv[2] } print v["sync_overhead_s"]; exit }' "$tmp/mttr.txt")
  pipe0=$(awk '$1 == "PIPE" { for (i=2;i<=NF;i++) { split($i,kv,"="); v[kv[1]]=kv[2] } print v["pipe_overhead_s"]; exit }' "$tmp/mttr.txt")
  cut0=$(awk '$1 == "PIPE" { for (i=2;i<=NF;i++) { split($i,kv,"="); v[kv[1]]=kv[2] } print v["overhead_cut"]; exit }' "$tmp/mttr.txt")
  hidden0=$(awk '$1 == "PIPE" { for (i=2;i<=NF;i++) { split($i,kv,"="); v[kv[1]]=kv[2] } print v["trace_hidden_frac"]; exit }' "$tmp/mttr.txt")

  {
    cat <<HEADER
{
  "benchmark": "PR9: pipelined campaign engine — async checkpointing + cross-cycle overlap",
  "model": "DES, paper-scale S-EnKF (autotuned at 8000 processors), 16-cycle campaign",
  "sync_arm": "every checkpoint sweep on the critical path (PR5 recovery line)",
  "pipelined_arm": "background writer overlaps cycle k commit with cycle k+1; at most one in flight; drain before restore and at campaign end",
  "cycles": $cycles,
  "clean_sync_overhead_s": $sync0,
  "clean_pipelined_overhead_s": $pipe0,
  "clean_overhead_reduction": $cut0,
  "clean_trace_hidden_fraction": $hidden0,
  "sweep": [
HEADER
    cat "$tmp/pipe_sweep.txt"
    cat <<'FOOTER'
  ]
}
FOOTER
  } >"$out"

  echo "wrote $out"
}

bench_scheduler_fairness() {
  local out=BENCH_PR6.json

  echo "==> scheduler_fairness (multi-tenant fair-share admission sweep)"
  cargo run -q --release -p enkf-bench --bin scheduler_fairness | tee "$tmp/sched.txt"

  # scheduler_fairness prints one machine-readable line per sweep point:
  #   SCHED tenants=4 policy=fair jobs=8 completed=8 rejected=0 \
  #         makespan_s=... throughput_cph=... p99_service_s=... p99_over_solo=...
  awk '
    $1 == "SCHED" {
      for (i = 2; i <= NF; i++) { split($i, kv, "="); v[kv[1]] = kv[2] }
      printf "    { \"tenants\": %s, \"policy\": \"%s\", \"jobs\": %s, \"completed\": %s,",
        v["tenants"], v["policy"], v["jobs"], v["completed"]
      printf " \"rejected\": %s, \"makespan_s\": %s, \"throughput_campaigns_per_h\": %s,",
        v["rejected"], v["makespan_s"], v["throughput_cph"]
      printf " \"p99_service_s\": %s, \"p99_over_solo\": %s },\n",
        v["p99_service_s"], v["p99_over_solo"]
    }
  ' "$tmp/sched.txt" >"$tmp/sched_sweep.txt"
  sed -i '$ s/ },$/ }/' "$tmp/sched_sweep.txt"

  local fair4
  fair4=$(awk '$1 == "SCHED" { for (i=2;i<=NF;i++) { split($i,kv,"="); v[kv[1]]=kv[2] }
    if (v["tenants"] == 4 && v["policy"] == "fair") { print v["p99_over_solo"]; exit } }' "$tmp/sched.txt")

  {
    cat <<HEADER
{
  "benchmark": "PR6: multi-tenant campaign scheduler — fairness/SLA sweep",
  "model": "DES capacity planner, paper-scale autotuned S-EnKF campaigns, 4 cycles, 2 jobs/tenant",
  "sla": "2x solo DES prediction per campaign",
  "fair_4_tenant_p99_over_solo": $fair4,
  "sweep": [
HEADER
    cat "$tmp/sched_sweep.txt"
    cat <<'FOOTER'
  ]
}
FOOTER
  } >"$out"

  echo "wrote $out"
}

bench_roofline() {
  local out=BENCH_PR7.json

  echo "==> roofline (kernel-layer GEMM/eigensolve/conversion roofline)"
  cargo run -q --release -p enkf-bench --bin roofline | tee "$tmp/roof.txt"

  # roofline prints one machine-readable line per measurement:
  #   ROOF kind=gemm flavour=nn n=128 legacy_us=... kernel_us=... \
  #        legacy_gflops=... kernel_gflops=... speedup=...
  #   ROOF kind=matvec|convert|eigen|letkf|isa ...
  awk '
    $1 == "ROOF" {
      delete v
      for (i = 2; i <= NF; i++) { split($i, kv, "="); v[kv[1]] = kv[2] }
      if (v["kind"] == "gemm")
        printf "    { \"flavour\": \"%s\", \"n\": %s, \"legacy_gflops\": %s, \"kernel_gflops\": %s, \"speedup\": %s },\n",
          v["flavour"], v["n"], v["legacy_gflops"], v["kernel_gflops"], v["speedup"]
    }
  ' "$tmp/roof.txt" >"$tmp/roof_gemm.txt"
  sed -i '$ s/ },$/ }/' "$tmp/roof_gemm.txt"

  awk '
    $1 == "ROOF" {
      delete v
      for (i = 2; i <= NF; i++) { split($i, kv, "="); v[kv[1]] = kv[2] }
      if (v["kind"] == "eigen")
        printf "    { \"n\": %s, \"serial_us\": %s },\n",
          v["n"], v["serial_us"]
    }
  ' "$tmp/roof.txt" >"$tmp/roof_eigen.txt"
  sed -i '$ s/ },$/ }/' "$tmp/roof_eigen.txt"

  roof_kv() { # roof_kv <kind> <key> [extra filter key=value]
    local f="${3:-}"
    awk -v kind="$1" -v key="$2" -v f="$f" '
      $1 == "ROOF" {
        delete v
        for (i = 2; i <= NF; i++) { split($i, kv, "="); v[kv[1]] = kv[2] }
        if (v["kind"] != kind) next
        if (f != "") { split(f, fkv, "="); if (v[fkv[1]] != fkv[2]) next }
        print v[key]; exit
      }' "$tmp/roof.txt"
  }

  local isa fma threads letkf2 letkf4 mv_speed cv_gbps
  isa=$(roof_kv isa name)
  fma=$(roof_kv isa fma)
  threads=$(roof_kv isa threads)
  letkf2=$(roof_kv letkf time_us case=mesh32x32_stride2)
  letkf4=$(roof_kv letkf time_us case=mesh32x32_stride4)
  mv_speed=$(roof_kv matvec speedup)
  cv_gbps=$(roof_kv convert kernel_gbps)

  {
    cat <<HEADER
{
  "benchmark": "PR7: kernel layer — cache-oblivious GEMM, SIMD microkernels, parallel-ordering eigensolve",
  "isa": "$isa",
  "fma_active": $fma,
  "threads": $threads,
  "letkf_pointwise_us": { "mesh32x32_stride2": $letkf2, "mesh32x32_stride4": $letkf4 },
  "letkf_pointwise_baseline_us": { "mesh32x32_stride2": 10368.689, "source": "BENCH_PR2.json (after)" },
  "matvec_speedup": $mv_speed,
  "convert_kernel_gbps": $cv_gbps,
  "gemm_roofline": [
HEADER
    cat "$tmp/roof_gemm.txt"
    cat <<'MID'
  ],
  "eigensolve_us": [
MID
    cat "$tmp/roof_eigen.txt"
    cat <<'FOOTER'
  ]
}
FOOTER
  } >"$out"

  echo "wrote $out"
}

bench_batched_assimilation() {
  local out=BENCH_PR8.json

  echo "==> batched_assimilation (D-EnKF batched vs P-EnKF sequential sweep)"
  cargo run -q --release -p enkf-bench --bin batched_assimilation | tee "$tmp/batch.txt"

  # batched_assimilation prints one machine-readable line per sweep point:
  #   BATCH stride=3 obs=720000 shards=40 batched_s=... sequential_s=... \
  #         batched_over_sequential=... batched_overlap=...
  awk '
    $1 == "BATCH" {
      for (i = 2; i <= NF; i++) { split($i, kv, "="); v[kv[1]] = kv[2] }
      printf "    { \"obs_stride\": %s, \"observations\": %s, \"shards\": %s,",
        v["stride"], v["obs"], v["shards"]
      printf " \"batched_s\": %s, \"sequential_s\": %s, \"batched_over_sequential\": %s, \"batched_overlap_fraction\": %s },\n",
        v["batched_s"], v["sequential_s"], v["batched_over_sequential"], v["batched_overlap"]
    }
  ' "$tmp/batch.txt" >"$tmp/batch_sweep.txt"
  sed -i '$ s/ },$/ }/' "$tmp/batch_sweep.txt"

  local sparse_ratio
  sparse_ratio=$(awk '$1 == "BATCH" { for (i=2;i<=NF;i++) { split($i,kv,"="); v[kv[1]]=kv[2] } print v["batched_over_sequential"]; exit }' "$tmp/batch.txt")

  {
    cat <<HEADER
{
  "benchmark": "PR8: distributed-array D-EnKF — batched vs sequential assimilation sweep",
  "model": "DES, paper-scale workload on the Tianhe-2-like substrate, equal rank counts per point",
  "batched_arm": "D-EnKF: full-width bar reads, all-to-all observation-block exchange, one covariance-form transform",
  "sequential_arm": "P-EnKF: block reads + point-local analysis (observation-independent by construction)",
  "sparsest_point_batched_over_sequential": $sparse_ratio,
  "sweep": [
HEADER
    cat "$tmp/batch_sweep.txt"
    cat <<'FOOTER'
  ]
}
FOOTER
  } >"$out"

  echo "wrote $out"
}

bench_adaptive_degradation() {
  local out=BENCH_PR10.json

  echo "==> adaptive_degradation (static vs health-monitored campaign under OST storms)"
  cargo run -q --release -p enkf-bench --bin adaptive_degradation | tee "$tmp/adapt.txt"

  # adaptive_degradation prints one machine-readable line per severity:
  #   ADAPT severity=2 cycles=6 static_s=... adaptive_s=... speedup=... \
  #         first_cycle_s=... steady_cycle_s=... blacklisted=2
  awk '
    $1 == "ADAPT" {
      for (i = 2; i <= NF; i++) { split($i, kv, "="); v[kv[1]] = kv[2] }
      printf "    { \"severity\": %s, \"static_s\": %s, \"adaptive_s\": %s, \"speedup\": %s,",
        v["severity"], v["static_s"], v["adaptive_s"], v["speedup"]
      printf " \"adaptive_first_cycle_s\": %s, \"adaptive_steady_cycle_s\": %s, \"blacklisted_osts\": %s },\n",
        v["first_cycle_s"], v["steady_cycle_s"], v["blacklisted"]
    }
  ' "$tmp/adapt.txt" >"$tmp/adapt_sweep.txt"
  sed -i '$ s/ },$/ }/' "$tmp/adapt_sweep.txt"

  local cycles s3
  cycles=$(awk '$1 == "ADAPT" { for (i=2;i<=NF;i++) { split($i,kv,"="); v[kv[1]]=kv[2] } print v["cycles"]; exit }' "$tmp/adapt.txt")
  s3=$(awk '$1 == "ADAPT" { for (i=2;i<=NF;i++) { split($i,kv,"="); v[kv[1]]=kv[2] }
    if (v["severity"] == 3) { print v["speedup"]; exit } }' "$tmp/adapt.txt")

  {
    cat <<HEADER
{
  "benchmark": "PR10: online health monitoring — static vs adaptive degradation under OST storms",
  "model": "DES, paper-scale autotuned S-EnKF, $cycles-cycle campaign, 2 of 6 OSTs slowed by 1+severity",
  "static_arm": "seeded retries + degraded mode, no monitor: every cycle pays the slowed OSTs in full",
  "adaptive_arm": "health monitor carried across cycles: detectors blacklist the hot OSTs at the cycle-0 fold, later cycles reorder and speculate onto healthy replicas",
  "invariants": "severity 0 arms bit-identical (clean monitor is free); severity >= 2 adaptive strictly faster (asserted in-bin)",
  "severity_3_speedup": $s3,
  "sweep": [
HEADER
    cat "$tmp/adapt_sweep.txt"
    cat <<'FOOTER'
  ]
}
FOOTER
  } >"$out"

  echo "wrote $out"
}

ran=0
if want campaign_mttr; then bench_campaign_mttr; ran=1; fi
if want pipelined_campaign; then bench_pipelined_campaign; ran=1; fi
if want scheduler_fairness; then bench_scheduler_fairness; ran=1; fi
if want roofline; then bench_roofline; ran=1; fi
if want batched_assimilation; then bench_batched_assimilation; ran=1; fi
if want adaptive_degradation; then bench_adaptive_degradation; ran=1; fi

if [[ "$ran" -eq 0 ]]; then
  echo "unknown benchmark '$only' (see --only list in the header)" >&2
  exit 2
fi
