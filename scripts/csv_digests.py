#!/usr/bin/env python3
"""sha256 of each config's deterministic CSV, for bit-for-bit comparisons.

    python3 scripts/csv_digests.py

Runs every ``configs/*.json`` of this checkout with ``trials`` set to 1
through ``cpchan run --deterministic --threads 2`` (the sweep workers run BLAS
on one thread), using the checkout's own ``src``, and prints one line per
config: its name and the sha256 of the CSV.  The configs and their CSVs are
written to a temporary directory, so ``configs/`` is left untouched.  Run it
in two checkouts and compare the lines to check that a change moves no byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def digest(config: Path, workdir: Path) -> str:
    """sha256 of the deterministic CSV of ``config`` run with one trial."""
    one_trial = workdir / config.name
    one_trial.write_text(json.dumps({**json.loads(config.read_text()), "trials": 1}))
    out = workdir / f"{config.stem}.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    subprocess.run(
        [sys.executable, "-m", "cpchan.cli", "run", str(one_trial), "--out", str(out),
         "--deterministic", "--threads", "2"],
        env=env, check=True, stdout=subprocess.DEVNULL)
    return hashlib.sha256(out.read_bytes()).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted((ROOT / "configs").glob("*.json")):
            print(f"{config.stem} {digest(config, Path(tmp))}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
