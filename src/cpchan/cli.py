"""Command-line entry point: Monte-Carlo sweeps and uniqueness checks.

    cpchan run <config.json> [--out results.csv] [--seed N] [--threads N]
               [--deterministic] [--check-trend]
    cpchan check-uniqueness <config.json> [--seed N]

``check-uniqueness`` reports once per sweep point, on the channel and design
that trial 0 of that point evaluates.  Exit code is nonzero when the
``--check-trend`` assertion fails (including a sweep point whose trials all
failed) or when any point's scene fails the uniqueness check or cannot be
checked.  A config that cannot be read, or holds a bad key or value
(``--seed`` included), is a usage error: one stderr line naming the path
and the key or value, and exit code 2.  The brute-force self-checks
(tensor algebra, k-rank against exhaustive search, FISTA) live in the test
suite, ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace


def _load_config(args):
    """The config ``args`` names, with ``--seed`` applied, or None after one
    stderr line when the file cannot be read or a key or value is bad."""
    from . import bench

    try:
        cfg = bench.load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
    except (OSError, ValueError) as exc:   # json.JSONDecodeError is a ValueError
        print(f"cpchan {args.command}: error: {args.config}: {exc}", file=sys.stderr)
        return None
    return cfg


def _cmd_run(args) -> int:
    from . import bench

    cfg = _load_config(args)
    if cfg is None:
        return 2
    rows = bench.run_sweep(cfg, out_path=args.out, threads=args.threads,
                           deterministic=args.deterministic)
    for r in rows:
        if r.method.startswith("summary:"):
            mean = "none" if r.nmse is None else f"{r.nmse:.4e}"
            print(f"{r.method:28s} {r.sweep_variable}={r.sweep_value:<8g} "
                  f"mean_nmse={mean} mean_runtime={r.runtime_s:.2f}s {r.status}")
    if args.check_trend:
        method = "cpf_regularized" if "cpf_regularized" in cfg.methods else cfg.methods[0]
        if not bench.monotone_trend_ok(rows, method):
            print(f"trend check FAILED for {method}", file=sys.stderr)
            return 1
        print(f"trend check passed for {method}")
    return 0


def _cmd_check_uniqueness(args) -> int:
    from . import bench

    cfg = _load_config(args)
    if cfg is None:
        return 2
    sweep_var = cfg.sweep_variable or "snr_db"
    status = 0
    for p in bench.point_indices(cfg):
        # the scene trial 0 of this point evaluates
        pcfg, channel, design, _, _ = bench.draw_scene(cfg, p, 0)
        label = f"{sweep_var}={getattr(pcfg, sweep_var)}"
        try:
            report = bench.check_uniqueness(design, channel)
        except bench.SCENE_ERRORS as exc:
            print(f"{label}: uniqueness unknown: {exc}", file=sys.stderr)
            status = 1
            continue
        print(f"{label}: {report.summary()}")
        if not report.passed:
            status = 1
    return status


def _thread_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cpchan")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a Monte-Carlo sweep from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="results.csv")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--threads", type=_thread_count, default=1)
    p_run.add_argument("--deterministic", action="store_true",
                       help="zero the runtime column so reruns are byte-identical")
    p_run.add_argument("--check-trend", action="store_true",
                       help="exit nonzero unless mean NMSE is monotone over the sweep")
    p_run.set_defaults(func=_cmd_run)

    p_chk = sub.add_parser("check-uniqueness", help="evaluate identifiability conditions")
    p_chk.add_argument("config")
    p_chk.add_argument("--seed", type=int, default=None)
    p_chk.set_defaults(func=_cmd_check_uniqueness)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
