#!/usr/bin/env bash
# The full run: every `repro` experiment at 128³ (EXPERIMENTS.md's numbers;
# TDB_GRID=256 for the appendix), then the frozen benchmark's four
# workloads, 20 s each, end to end and traced. Everything lands in out/;
# any failure (a wrong answer included) exits non-zero.
set -euo pipefail
cd "$(dirname "$0")/../.."
rm -rf out && mkdir out
cargo run --release -q -p tdb-bench --bin repro | tee out/repro.txt
mv repro_results.json out/
for workload in cold_scan derive_scan warm_cache mixed_zipf; do
  for trace in 0 1; do
    cargo run --release -q --manifest-path perfbench/Cargo.toml --bin perf -- \
      --workload "$workload" --seed 1 --seconds 20 --trace "$trace" \
      --append out/perf.jsonl 2> "out/perf.$workload.trace$trace.txt" | tail -n 1
  done
done
cp -r .perf_out out/perf_traces
