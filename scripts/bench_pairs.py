#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, alternating which runs first.

    python3 scripts/bench_pairs.py --base ../parent --change . \\
        --workload snr_sweep --seed 7 --pairs 10 [--records runs.json]

Runs ``perfbench/run.py --trace 0`` (the command BENCHMARK.json names) in
each checkout, one run at a time, for ``--pairs`` pairs at one seed: the base
runs first in odd pairs and the change first in even ones, so a drift of the
host's speed falls on both sides alike.  Each run lasts BENCHMARK.json's
``run_seconds`` unless ``--seconds`` is given.  For every end-to-end metric it
then prints each side's median and quartiles (``statistics.quantiles(values,
n=4)``), the change of the median, the number of pairs the change won (by the
metric's ``better`` direction; a tie is no win) and whether the medians lie
further apart than the base's interquartile range.  After each pair, and in
total, it compares the estimates op for op over the op indices both runs
reached: how many ops have identical estimates (NMSE and counts), the largest
relative NMSE difference, and the ops whose ``rank`` differs.  ``--records``
names a JSON file that holds every run's record from ``.perfbench_out/``,
rewritten after each run.  A run that fails stops the script with exit code 1; the file then
ends with an entry naming the failing side, its pair and its exit code (None
after a timeout).  A checkout is any directory holding the repository, e.g. a
``git worktree`` of the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")


def run_once(root: Path, cmd: list[str], workload: str, seed: int) -> dict:
    """One run in checkout ``root``; returns its full record.  Raises
    CalledProcessError or TimeoutExpired if the run fails."""
    subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=1800, check=True)
    record_path = root / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(record_path.read_text())


def save_records(path: Path | None, runs: list[dict]) -> None:
    if path is not None:
        path.write_text(json.dumps(runs))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def op_estimates(record: dict) -> dict[int, list[tuple]]:
    """Per op index, its estimates as (method, SNR, NMSE, counts)."""
    return {op["index"]: [(e["method"], e["snr_db"], e["nmse"], e["counts"])
                          for e in op["estimates"]] for op in record["ops"]}


def compare_ops(base: dict, change: dict) -> dict:
    """Op-for-op comparison of two run records over the op indices both ran."""
    b, c = op_estimates(base), op_estimates(change)
    common = sorted(b.keys() & c.keys())
    out = {"ops": len(common), "identical": 0, "max_rel_nmse": 0.0, "rank_differs": []}
    for i in common:
        out["identical"] += b[i] == c[i]
        if len(b[i]) != len(c[i]):
            out["max_rel_nmse"] = float("inf")
        for (_, _, nb, kb), (_, _, nc, kc) in zip(b[i], c[i]):
            if nb != nc:
                rel = abs(nc - nb) / abs(nb) if nb and nc is not None else float("inf")
                out["max_rel_nmse"] = max(out["max_rel_nmse"], rel)
            if kb.get("rank") != kc.get("rank") and i not in out["rank_differs"]:
                out["rank_differs"].append(i)
    return out


def format_comparison(cmp: dict, where: str = "ops") -> str:
    return (f"{cmp['identical']}/{cmp['ops']} ops identical, largest relative NMSE "
            f"difference {cmp['max_rel_nmse']:.3g}, rank differs on {where} "
            f"{cmp['rank_differs']}")


def report(spec: dict, values: dict[str, dict[str, list[float]]]) -> None:
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        base, change = values["base"][name], values["change"][name]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
        rel = (cm - bm) / abs(bm) if bm else float("nan")
        apart = abs(cm - bm) > b3 - b1
        print(f"{name:22s} base {bm:.5g} [{b1:.5g}, {b3:.5g}]  "
              f"change {cm:.5g} [{c1:.5g}, {c3:.5g}] {m['unit']}  "
              f"{rel:+.1%}  wins {wins}/{len(base)}  "
              f"{'apart' if apart else 'within base IQR'}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", type=Path, required=True, help="checkout of the parent")
    p.add_argument("--change", type=Path, default=Path("."), help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--records", type=Path, default=None, help="write every run's record here")
    args = p.parse_args(argv)

    roots = {"base": args.base.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    cmd = [*spec["command"], "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", "0"]
    values = {side: {m["name"]: [] for m in spec["end_to_end"]} for side in SIDES}
    runs = []
    total = {"ops": 0, "identical": 0, "max_rel_nmse": 0.0, "rank_differs": []}
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        records = {}
        for side in order:
            run = {"side": side, "workload": args.workload, "seed": args.seed,
                   "pair": pair, "sequence": len(runs)}
            try:
                record = run_once(roots[side], cmd, args.workload, args.seed)
            except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
                runs.append({**run, "failed": True,
                             "exit_code": getattr(exc, "returncode", None)})
                save_records(args.records, runs)
                print(f"{side} run of pair {pair} failed: {exc}\n{exc.stderr}",
                      file=sys.stderr)
                return 1
            runs.append({**run, "record": record})
            save_records(args.records, runs)
            records[side] = record
            for name, vals in values[side].items():
                vals.append(record["metrics"][name]["value"])
        cmp = compare_ops(records["base"], records["change"])
        total["ops"] += cmp["ops"]
        total["identical"] += cmp["identical"]
        total["max_rel_nmse"] = max(total["max_rel_nmse"], cmp["max_rel_nmse"])
        total["rank_differs"] += [(pair, i) for i in cmp["rank_differs"]]
        print(f"pair {pair}: " + "  ".join(
            f"{side} latency_s.p50={values[side]['latency_s.p50'][-1]:.4f}" for side in SIDES)
            + f"  {format_comparison(cmp)}", flush=True)
    report(spec, values)
    print("estimates over all pairs: " + format_comparison(total, "(pair, op)"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
