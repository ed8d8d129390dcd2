#!/usr/bin/env python3
"""Per-trial comparison of two ``cpchan run`` CSVs of the same config.

    python3 scripts/compare_csvs.py BASE.csv CHANGE.csv

Pairs the trial rows of the two files on (method, sweep value, trial,
``tensor_sha256``); the ``summary:`` rows are left out.  For each (method,
sweep value), in the base file's order, it prints both mean NMSEs over the
trials that have one, the largest per-trial relative NMSE change (signed,
change over base), how many trials moved by less than 1%, and the trials
whose ``estimated_rank`` or ``status`` differs.  When a row of either file
has no partner in the other (or appears twice), it prints that row and exits
with code 1.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

MOVED = 0.01    # a trial whose NMSE changed by less than this share did not move


def read_rows(path: Path) -> dict[tuple, dict]:
    """Trial rows keyed by (method, sweep value, trial, tensor_sha256), in
    file order.  Raises ValueError naming a row whose key repeats."""
    rows = {}
    with open(path, newline="") as f:
        for line, row in enumerate(csv.DictReader(f), start=2):
            if row["method"].startswith("summary:"):
                continue
            key = (row["method"], float(row["sweep_value"]), int(row["trial"]),
                   row["tensor_sha256"])
            if key in rows:
                raise ValueError(f"{path} line {line}: row {describe(key)} appears twice")
            rows[key] = row
    return rows


def describe(key: tuple) -> str:
    method, value, trial, sha = key
    return f"method={method} sweep_value={value!r} trial={trial} tensor_sha256={sha}"


def nmse(row: dict) -> float | None:
    return float(row["nmse"]) if row["nmse"] else None


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


def compare(base: dict[tuple, dict], change: dict[tuple, dict]) -> list[str]:
    """One line per (method, sweep value) of paired rows."""
    groups: dict[tuple, list[tuple]] = {}
    for key in base:
        groups.setdefault(key[:2], []).append(key)
    lines = []
    for (method, value), keys in groups.items():
        b = [nmse(base[k]) for k in keys]
        c = [nmse(change[k]) for k in keys]
        rel = [0.0 if y == x else (y - x) / x if x else float("inf")
               for x, y in zip(b, c) if x is not None and y is not None]
        differs = [k[2] for k in keys
                   if any(base[k][f] != change[k][f] for f in ("estimated_rank", "status"))]
        mb = mean([x for x in b if x is not None])
        mc = mean([y for y in c if y is not None])
        shift = (mc - mb) / mb if mb else float("nan")
        lines.append(
            f"{method} {base[keys[0]]['sweep_variable']}={value:g}  trials {len(keys)}  "
            f"mean {mb:.4g} -> {mc:.4g} ({shift:+.2%})  "
            f"largest rel change {max(rel, key=abs, default=0.0):+.3g}  "
            f"under {MOVED:.0%}: {sum(abs(r) < MOVED for r in rel)}/{len(keys)}  "
            f"rank/status differs: {differs}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", type=Path, help="CSV of the parent")
    p.add_argument("change", type=Path, help="CSV of the change")
    args = p.parse_args(argv)
    try:
        base, change = read_rows(args.base), read_rows(args.change)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    for path, rows, other in ((args.base, base, change), (args.change, change, base)):
        unpaired = next((k for k in rows if k not in other), None)
        if unpaired is not None:
            print(f"{path}: row {describe(unpaired)} has no partner", file=sys.stderr)
            return 1
    print("\n".join(compare(base, change)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
