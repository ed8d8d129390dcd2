#!/usr/bin/env bash
# Run every benchmark config in configs/ and collect CSVs under results/,
# using this checkout's own src/ (no install needed).
# Usage: scripts/run_benchmarks.sh [threads]
set -euo pipefail

threads="${1:-1}"
root="$(cd "$(dirname "$0")/.." && pwd)"
outdir="$root/results"
mkdir -p "$outdir"

for cfg in "$root"/configs/*.json; do
    name="$(basename "$cfg" .json)"
    echo "== $name =="
    PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}" python3 -m cpchan.cli run "$cfg" \
        --out "$outdir/$name.csv" --threads "$threads"
done

echo "CSVs written to $outdir"
