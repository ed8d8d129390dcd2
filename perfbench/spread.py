"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload table1_cs --seeds 1 2 3 4 5

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints for
every end-to-end metric its median and its quartile spread (third minus first
quartile, as ``statistics.quantiles(values, n=4)`` gives them) as a share of
the median, next to the bound that BENCHMARK.json fixes.  Every run lasts
BENCHMARK.json's ``run_seconds``.  A benchmark is steady when every spread is
below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: run failed (exit {proc.returncode})\n{proc.stderr}")
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()),
              flush=True)
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        s = spread(vals)
        print(f"{m['name']:24s} median={statistics.median(vals):.5g} {m['unit']:6s} "
              f"spread={s:.4f} bound={m['bound']}"
              f"{'' if s < m['bound'] / 3 else '  NOT STEADY'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
