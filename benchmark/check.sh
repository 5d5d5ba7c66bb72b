#!/usr/bin/env bash
# The repeatability check of the benchmark itself: a smoke pass (does
# everything run and verify?), then two full sets of the same commit with the
# same seed, then `compare` — which applies every end-to-end metric's bound
# per workload and exits non-zero on a breach. About eight minutes.
#
#   benchmark/check.sh [seed]
#
# Results land in benchmark/out/ (check-a.json, check-b.json, compare.txt).
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
out=benchmark/out
run() { cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- "$@"; }

mkdir -p "$out"
echo "== smoke pass"
run --seed "$seed" --smoke --trace 1 > "$out/smoke.log" 2>&1 || { tail -n 40 "$out/smoke.log"; exit 1; }
grep -E '^== |total wall' "$out/smoke.log"

for set in a b; do
    echo "== full set $set"
    run --seed "$seed" > "$out/check-$set.log" 2>&1 || { tail -n 40 "$out/check-$set.log"; exit 1; }
    cp "$out/results.json" "$out/check-$set.json"
    grep -E '^== |total wall' "$out/check-$set.log"
done

echo "== compare a b"
run compare "$out/check-a.json" "$out/check-b.json" | tee "$out/compare.txt"
