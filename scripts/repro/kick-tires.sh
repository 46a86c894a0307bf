#!/usr/bin/env bash
# Kick the tires, in minutes: the must-run list (ci/must-run.txt: the
# tests that pin the invariants ran and passed), every `repro` experiment
# at 32³ (paper tables and figures, sweeps, ablations: each one table,
# printed to out/repro.txt as it is recorded under `tables.<experiment>` of
# out/repro_results.json), then the frozen benchmark's four workloads and
# their traces at 32³. Everything lands in out/; any failure (a wrong
# answer included) exits non-zero.
set -euo pipefail
cd "$(dirname "$0")/../.."
rm -rf out && mkdir out
scripts/ci/must-run.sh | tee out/must-run.txt
TDB_GRID=32 cargo run --release -q -p tdb-bench --bin repro | tee out/repro.txt
mv repro_results.json out/
cargo run --release -q --manifest-path perfbench/Cargo.toml --bin perf -- --smoke | tee out/perf.txt
cp -r .perf_out out/perf_traces
