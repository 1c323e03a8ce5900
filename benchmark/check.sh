#!/usr/bin/env bash
# Build → unit tests → smoke suite → self-compare, for CI to adopt in one
# line. Run from anywhere; everything it writes lands in benchmark/results/.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test --release --quiet

exe="${CARGO_TARGET_DIR:-target}/release/lbe-e2e"
mkdir -p results
# The same code paths on tiny corpora, twice, so compare has two sides.
"$exe" run   --scale smoke --seconds 1 --seed 1 --out results/smoke-a.json
"$exe" run   --scale smoke --seconds 1 --seed 1 --out results/smoke-b.json
"$exe" trace --scale smoke --seconds 1 --seed 1 --out results/smoke-trace.json
# Same code, same seed: every exact metric (sizes, counts) must come out
# bit-equal and no workload's failed share may rise. One run a side gives
# the timing rows no verdict ("too few runs"); that is `--repeat 10`'s job.
"$exe" compare results/smoke-a.json results/smoke-b.json
echo "check.sh: ok"
