#!/usr/bin/env bash
# Run every benchmark config in configs/ and collect CSVs under results/.
# Usage: scripts/run_benchmarks.sh [threads]
set -euo pipefail

threads="${1:-1}"
if (( threads > 1 )); then
    # one BLAS thread per worker process: N workers each running a
    # multithreaded BLAS would oversubscribe the cores
    export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
outdir="$root/results"
mkdir -p "$outdir"

for cfg in "$root"/configs/*.json; do
    name="$(basename "$cfg" .json)"
    echo "== $name =="
    cpchan run "$cfg" --out "$outdir/$name.csv" --threads "$threads"
done

echo "CSVs written to $outdir"
