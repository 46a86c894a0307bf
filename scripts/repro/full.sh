#!/usr/bin/env bash
# The full run: every `repro` experiment at 128³ (EXPERIMENTS.md's numbers;
# TDB_GRID=256 for the appendix), then the frozen benchmark's four
# workloads, 20 s each, end to end and traced, and `warm_cache` once more at
# 60 s: a resident node must not grow with the number of hits it has served,
# so the two `peak_rss_mib` are printed side by side (informational — the
# gate is the MVCC version-count tests). Everything lands in out/; any
# failure (a wrong answer included) exits non-zero.
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
cargo run --release -q --manifest-path perfbench/Cargo.toml --bin perf -- \
  --workload warm_cache --seed 1 --seconds 60 --trace 0 \
  --append out/perf.jsonl 2> out/perf.warm_cache.60s.txt > /dev/null
rss() { # peak_rss_mib of the untraced warm_cache run of $1 seconds
  grep "\"seconds\":$1,.*\"trace\":false,\"workload\":\"warm_cache\"" out/perf.jsonl |
    sed -n 's/.*"peak_rss_mib":{"unit":"MiB","value":\([0-9.]*\)}.*/\1/p'
}
echo "warm_cache peak_rss_mib: $(rss 20) at 20 s, $(rss 60) at 60 s"
cp -r .perf_out out/perf_traces
