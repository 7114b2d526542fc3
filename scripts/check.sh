#!/usr/bin/env bash
# Tier-1 gate, run from anywhere: configure + build + ctest, first in the
# default configuration, then with FEDCAV_SANITIZE=ON (ASan+UBSan), and
# finally with FEDCAV_SANITIZE=thread (TSan) over the concurrency-heavy
# suites (thread pool, obs tracer/registry, server rounds, the
# fault-injection chaos/golden suites — the retry protocol runs on pool
# threads, so TSan coverage there is mandatory — and the comm fabric,
# whose sends copy caller-encoded images from several threads). The plain build also
# replays the kernel, golden and round suites under FEDCAV_TEST_SHARDS=1
# and =4 (shard-determinism gate, DESIGN.md §15); the TSan build replays
# them at the 4-shard fan-out. The tensor/nn kernels are serial (the
# round pool is the only parallelism, DESIGN.md §13), so there is no
# kernel-thread replay. Each configuration gets its own build tree so
# they never thrash one cache.
#
# Usage: scripts/check.sh [extra ctest args...]
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local build_dir="$1"
  local filter="$2"
  shift 2
  local cmake_flags=("$@")
  echo "==> configure ${build_dir} ${cmake_flags[*]:-}"
  cmake -B "${build_dir}" -S "${repo}" "${cmake_flags[@]}" >/dev/null
  echo "==> build ${build_dir}"
  cmake --build "${build_dir}" -j "${jobs}"
  echo "==> ctest ${build_dir}"
  local filter_args=()
  [[ -n "${filter}" ]] && filter_args=(-R "${filter}")
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" \
    "${filter_args[@]}" "${ctest_args[@]}"
}

ctest_args=("$@")

run_config "${repo}/build" ""
# Shard-determinism gate (DESIGN.md §15): replay the golden, chaos-seed,
# and kernel suites with the FEDCAV_TEST_SHARDS hook forcing every round
# through a 1-shard and a 4-shard engine. The goldens and committed
# chaos seeds pin exact values, so a pass proves the shard count is
# invisible to results at suite scale.
shard_filter="Gemm|GemmCrossCheck|Conv2D|ConvBatched|Activation|MaxPool|AvgPool|GlobalAvgPool|Loss|GradCheck|Evaluate|ZooTraining|GoldenRun|ChaosSeeds|RoundEngine|Server|Integration"
for shards in 1 4; do
  echo "==> ctest shard suites, FEDCAV_TEST_SHARDS=${shards} (plain)"
  FEDCAV_TEST_SHARDS="${shards}" ctest --test-dir "${repo}/build" \
    --output-on-failure -j "${jobs}" -R "${shard_filter}" "${ctest_args[@]}"
done
# Cohort-scaling memory gate (replica-pool bound, DESIGN.md §11 + §15):
# smoke runs of the bench enforce that peak round memory does not scale
# with the cohort — single-shard, and sharded with a 4096-client round —
# in both the plain and sanitized builds. The bench also self-gates
# shard-count bit-identity of the emitted CSV and --seed reproducibility.
echo "==> cohort_scale smoke (plain)"
timeout 300 "${repo}/build/bench/cohort_scale" --smoke \
  --out "${repo}/build/BENCH_cohort_smoke.json"
echo "==> cohort_scale smoke --shards 4 (plain)"
timeout 300 "${repo}/build/bench/cohort_scale" --smoke --shards 4 \
  --out "${repo}/build/BENCH_cohort_smoke_sharded.json"
# Time-boxed chaos-search smoke (DESIGN.md §12): a short adaptive search
# over the fault-plan space must find zero invariant violations. The
# budget keeps this inside a few seconds; the full regression corpus is
# replayed by ctest (label: chaos).
echo "==> chaos_search smoke (plain)"
timeout 300 "${repo}/build/tools/chaos_search" --budget 25 --seed 1
# Multi-process federation smoke (DESIGN.md §14/§16): daemon + workers
# over a real Unix socket, then over an authenticated TCP loopback
# (which also exercises the wrong-token fail-fast reject); the watchdog
# timeout turns a protocol hang into a gate failure instead of a wedged
# CI job.
echo "==> multiproc smoke (plain)"
timeout 300 "${repo}/scripts/multiproc_smoke.sh" "${repo}/build"
echo "==> multiproc smoke, tcp (plain)"
timeout 300 "${repo}/scripts/multiproc_smoke.sh" "${repo}/build" 4 2 tcp

run_config "${repo}/build-sanitize" "" -DFEDCAV_SANITIZE=ON
echo "==> cohort_scale smoke (sanitize)"
timeout 600 "${repo}/build-sanitize/bench/cohort_scale" --smoke \
  --out "${repo}/build-sanitize/BENCH_cohort_smoke.json"
echo "==> cohort_scale smoke --shards 4 (sanitize)"
timeout 600 "${repo}/build-sanitize/bench/cohort_scale" --smoke --shards 4 \
  --out "${repo}/build-sanitize/BENCH_cohort_smoke_sharded.json"
echo "==> chaos_search smoke (sanitize)"
timeout 600 "${repo}/build-sanitize/tools/chaos_search" --budget 10 --seed 1
echo "==> multiproc smoke (sanitize)"
timeout 600 "${repo}/scripts/multiproc_smoke.sh" "${repo}/build-sanitize" 2 2
echo "==> multiproc smoke, tcp (sanitize)"
timeout 600 "${repo}/scripts/multiproc_smoke.sh" "${repo}/build-sanitize" 2 2 tcp

run_config "${repo}/build-tsan" \
  "ThreadPool|Obs|CheckpointResume|Server|Integration|Chaos|Faults|GoldenRun|Network|Transport|Crc32" \
  -DFEDCAV_SANITIZE=thread
# Race-check the sharded round engine: the wave pipeline's produce side
# runs on pool workers while the fold side hops threads, so the golden,
# chaos-seed, and server suites replay under TSan at a 4-shard fan-out.
echo "==> ctest shard suites, FEDCAV_TEST_SHARDS=4 (tsan)"
FEDCAV_TEST_SHARDS=4 ctest --test-dir "${repo}/build-tsan" \
  --output-on-failure -j "${jobs}" -R "${shard_filter}" "${ctest_args[@]}"

echo "OK: plain, sanitized, and thread-sanitized tier-1 suites passed"
