"""cpchan benchmark: estimator latency and accuracy, end to end and per layer.

Run from the repository root (the source is imported from ``src/``):

    python3 perfbench/run.py --workload table1_cpf --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``table1_cpf``, ``table1_cs``, ``snr_sweep``.
Each is a single-process closed loop with one client and BLAS pinned to one
thread.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is a
separate run that records per-layer spans (spans.py) on every other op and
reports the per-layer metrics, with the tracing overhead measured against the
untraced ops of the same run.  Per-layer times and counts are per traced op.
``setup_s`` is the median, over set-ups taken before and after the timed
loop, of the time a fresh interpreter takes to start and import the benchmark
and cpchan plus one workload set-up.

Earlier lines of standard output carry information (environment record,
per-op results, per-op NMSE, CSV digests, every metric with its unit); the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run also writes that record, with its spans, to
``.perfbench_out/``.  The exit code is 0 only when every op passed its check
and the run-level accuracy checks held.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402  (the clock starts before any import)
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# set-up samples (fresh-interpreter import + workload set-up) taken before and
# after the timed loop; the host's speed drifts over tens of seconds, so
# samples from both ends of the run give a steadier median than a burst
SETUP_REPEATS_BEFORE = SETUP_REPEATS_AFTER = 4
# share of traced op time that no layer span may leave uncovered
UNATTRIBUTED_MAX = 0.01
WORKLOAD_NAMES = ("table1_cpf", "table1_cs", "snr_sweep")
METHODS = ("cpf_regularized", "cs_grid2", "cpf_known_L", "cs_grid1")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- environment record -------------------------------------------------------

def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports; None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in names:
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest(root: Path) -> str:
    """sha256 over src/cpchan/*.py, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "cpchan").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout; None outside a git checkout, where
    ``source_sha256`` alone identifies the code."""
    if not (root / ".git").exists():     # keeps git from finding an enclosing repo
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def import_seconds(root: Path) -> float:
    """Seconds from starting a fresh interpreter to its having imported the
    benchmark and cpchan; the in-process import is one sample only.  The
    child reads the system-wide monotonic clock when its imports are done,
    because waiting for it with a timeout polls in steps of up to 50 ms."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(Path(__file__).resolve().parent)]))
    code = "import workloads, time; print(time.monotonic())"
    t = time.monotonic()
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1]) - t


def setup_sample(root: Path, wl) -> tuple[float, float]:
    """(import seconds, workload set-up seconds) of one set-up."""
    import_s = import_seconds(root)
    t = time.perf_counter()
    wl.setup()
    return import_s, time.perf_counter() - t


def host_reference_ms(np, reps: int = 15) -> float:
    """Median wall time of a fixed 256x256 complex matrix product.  The
    benchmark does not use it as a metric; it shows a slow or contended host
    next to the metrics of the run."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        a @ a
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


def environment(root: Path, np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "loadavg_start": os.getloadavg(),
        "host_ref_ms_start": host_reference_ms(np),
    }


# -- metrics ------------------------------------------------------------------

def nmse_db(values) -> float:
    return 10.0 * math.log10(statistics.fmean(values))


def end_to_end(ops, wall_s: float, setup_s: float) -> dict:
    ok = [op for op in ops if not op.failed]
    nmse = [e.nmse for op in ok for e in op.estimates]
    return {
        "latency_s.p50": (statistics.median(op.seconds for op in ok) if ok else 0.0, "s"),
        "throughput_ops_per_s": (len(ok) / wall_s, "ops/s"),
        "neg_nmse_db": (-nmse_db(nmse) if nmse else 0.0, "dB"),
        "ok_frac": (len(ok) / len(ops), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def per_layer(tracer, ops, true_rank: int) -> dict:
    """Layer metrics of a traced run; times and calls are per traced op."""
    traced = [op for op in ops if op.traced]
    untraced = [op for op in ops if not op.traced]
    n = max(len(traced), 1)
    tot = spans.span_totals(tracer.spans)

    def total(name, key):
        return tot.get(name, {}).get(key, 0.0)

    m = {}
    for name in ("cp_als.als_regularized", "cp_als.als_known_rank",
                 "channel_recovery.estimate_all", "sparse_solver.fista",
                 "cs_baseline.solve_cs", "bench.run_trial"):
        m[f"{name}.s"] = (total(name, "s") / n, "s")
        m[f"{name}.self_s"] = (total(name, "self_s") / n, "s")
    for name in ("tensor_core.compose", "tensor_core.khatri_rao",
                 "training_design.build_design", "sparse_solver.fista"):
        m[f"{name}.calls"] = (total(name, "calls") / n, "count")
    for name in ("tensor_core.compose", "tensor_core.khatri_rao",
                 "channel_recovery.resolve_ambiguity",
                 "channel_recovery.pilot_constrained_polish",
                 "channel_recovery.channel_from_grid", "sparse_solver.top_singular_value",
                 "cs_baseline.assemble_problem", "training_design.build_design",
                 "training_design.check_uniqueness", "measurement.simulate",
                 "channel_sim.sample_channel"):
        m[f"{name}.s"] = (total(name, "s") / n, "s")

    # one ALS sweep makes three Khatri-Rao products
    sweeps = total("tensor_core.khatri_rao", "calls") / 3.0
    als_s = total("cp_als.als_regularized", "s") + total("cp_als.als_known_rank", "s")
    m["cp_als.sweeps"] = (sweeps / n, "count")
    m["cp_als.us_per_sweep"] = (1e6 * als_s / sweeps if sweeps else 0.0, "us")

    # share of estimate_all spent in its direct cp_als / sparse_solver children
    est_idx = {i for i, s in enumerate(tracer.spans)
               if s.name == "channel_recovery.estimate_all"}
    covered = sum(s.duration for s in tracer.spans if s.parent in est_idx
                  and s.name.startswith(("cp_als.", "sparse_solver.")))
    est_s = total("channel_recovery.estimate_all", "s")
    m["channel_recovery.estimate_all.als_fista_frac"] = (covered / est_s if est_s else 0.0,
                                                         "ratio")

    fista = tracer.returns.get("sparse_solver.fista", [])
    iters = sum(it for it, _ in fista)
    m["sparse_solver.fista.iterations"] = (_mean(it for it, _ in fista), "count")
    m["sparse_solver.fista.converged_frac"] = (_mean(float(c) for _, c in fista), "ratio")
    m["sparse_solver.fista.us_per_iter"] = (
        1e6 * total("sparse_solver.fista", "s") / iters if iters else 0.0, "us")
    for op_name in ("sparse_solver.StackedGridOperator", "cs_baseline.PilotKronOperator"):
        calls = s = 0.0
        for kind in ("matvec", "rmatvec"):
            c = total(f"{op_name}.{kind}", "calls")
            m[f"{op_name}.{kind}.calls"] = (c / n, "count")
            calls += c
            s += total(f"{op_name}.{kind}", "s")
        m[f"{op_name}.us_per_call"] = (1e6 * s / calls if calls else 0.0, "us")

    # counts the program returns, from every op of the run
    estimates = [e for op in ops for e in op.estimates if not e.errors]
    cpf = [e.counts for e in estimates if e.method.startswith("cpf")]
    reg = [e.counts for e in estimates if e.method == "cpf_regularized"]
    cs = [e.counts for e in estimates if e.method.startswith("cs")]
    m["cp_als.iterations"] = (_mean(c["als_iterations"] for c in cpf), "count")
    m["cp_als.converged_frac"] = (_mean(float(c["als_converged"]) for c in cpf), "ratio")
    m["cp_als.rank_hit_frac"] = (_mean(float(c["rank"] == true_rank) for c in reg), "ratio")
    m["rank_error.mean"] = (_mean(abs(c["rank"] - true_rank) for c in reg), "paths")
    m["channel_recovery.empty_users"] = (_mean(c["empty_users"] for c in cpf), "count")
    m["cs_baseline.iterations"] = (_mean(c["cs_iterations"] for c in cs), "count")
    m["cs_baseline.refit_columns"] = (_mean(c["refit_columns"] for c in cs), "count")
    for method in METHODS:
        vals = [e.nmse for e in estimates if e.method == method]
        m[f"nmse_db.{method}"] = (nmse_db(vals) if vals else 0.0, "dB")
    m["failed_frac"] = (sum(op.failed for op in ops) / len(ops), "ratio")

    lat_t = [op.seconds for op in traced if not op.failed]
    lat_u = [op.seconds for op in untraced if not op.failed]
    m["trace.overhead_frac"] = (
        statistics.median(lat_t) / statistics.median(lat_u) - 1.0 if lat_t and lat_u else 0.0,
        "ratio")
    # The layer self times of a traced op (every span but the synthetic "op"
    # root) should add up to the untraced op latency times (1 + overhead),
    # i.e. to the traced latency; what they miss is op time no hook covers.
    # On snr_sweep the op root is the bench.run_trial layer itself, so time
    # its hooks miss shows as bench.run_trial.self_s instead.
    layer_s = {op.index: 0.0 for op in traced}
    for s in tracer.spans:
        if s.name != "op" and s.op in layer_s:
            layer_s[s.op] += s.self_s
    lat_t_all = [op.seconds for op in traced]
    m["trace.unattributed_frac"] = (
        1.0 - statistics.median(layer_s.values()) / statistics.median(lat_t_all)
        if traced else 0.0, "ratio")
    m["trace.spans_per_op"] = (len(tracer.spans) / n, "count")
    m["trace.traced_ops"] = (float(len(traced)), "count")
    return m


def trace_errors(metrics) -> list[str]:
    unattributed = metrics["trace.unattributed_frac"][0]
    if unattributed > UNATTRIBUTED_MAX:
        return [f"layer self times leave {unattributed:.2%} of the traced op latency "
                f"uncovered (at most {UNATTRIBUTED_MAX:.0%}); a hook is missing"]
    return []


# -- run ----------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"           # before numpy loads BLAS
    root = Path.cwd()
    src = root / "src"
    if not (src / "cpchan" / "__init__.py").is_file():
        print(f"perfbench: {src}/cpchan not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import cpchan
    import workloads

    import_here_s = time.perf_counter() - T_START
    if Path(cpchan.__file__).resolve().parent != (src / "cpchan").resolve():
        print(f"perfbench: imported cpchan from {cpchan.__file__}, not {src}", file=sys.stderr)
        return 2
    env = environment(root, np)
    if env["blas_threads"] not in (None, 1):
        print(f"perfbench: BLAS runs {env['blas_threads']} threads despite the pinning",
              file=sys.stderr)
        return 2
    print("env", json.dumps(env), flush=True)

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, args.seed, out_dir)
    setup_runs = [setup_sample(root, wl) for _ in range(SETUP_REPEATS_BEFORE)]

    inst = spans.Instrumentation(spans.Tracer()) if args.trace else None
    harness = workloads.Harness(args.seconds, inst, wl.block)
    wl.run(harness)
    wall_s = time.perf_counter() - harness.t0
    ops = harness.ops

    setup_runs += [setup_sample(root, wl) for _ in range(SETUP_REPEATS_AFTER)]
    setup_s = statistics.median(imp + s for imp, s in setup_runs)

    estimates = [e for op in ops for e in op.estimates if not e.errors]
    run_errors = wl.run_errors(estimates)
    if inst is not None:
        run_errors += spans.coverage_errors(inst, wl.name, sum(op.traced for op in ops))
        metrics = per_layer(inst.tracer, ops, workloads.TRUE_RANK)
        run_errors += trace_errors(metrics)
    else:
        metrics = end_to_end(ops, wall_s, setup_s)

    print(f"setup import_here_s={import_here_s:.4f} (import_s, setup_s) samples="
          f"{[(round(i, 4), round(s, 4)) for i, s in setup_runs]}")
    for op in ops:
        status = "FAILED " + "; ".join(op.errors + [x for e in op.estimates for x in e.errors]) \
            if op.failed else "ok"
        nm = " ".join(f"{e.method}@{e.snr_db:g}dB={e.nmse:.4e}"
                      for e in op.estimates if e.nmse is not None)
        print(f"op {op.index} {'traced' if op.traced else 'untraced'} {op.seconds:.4f}s "
              f"{status} {nm}")
    per_op = {m: [e.nmse for e in estimates if e.method == m] for m in wl.methods}
    print("nmse_per_op", json.dumps(per_op))
    for method in wl.methods:
        vals = per_op[method]
        dropped = sum(1 for op in ops for e in op.estimates if e.method == method and e.errors)
        print(f"info nmse_db.{method} = "
              f"{nmse_db(vals) if vals else float('nan'):.4f} dB "
              f"(mean over {len(vals)} estimates; {dropped} failed estimates excluded)")
    if hasattr(wl, "csv_sha256"):
        print("csv_sha256", json.dumps(wl.csv_sha256))
    n_ok = sum(not op.failed for op in ops)
    for name, (value, unit) in metrics.items():
        extra = f" (n={n_ok} ops)" if name == "latency_s.p50" else ""
        print(f"metric {name} = {value:.6g} {unit}{extra}")
    for err in run_errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    env["loadavg_end"] = os.getloadavg()
    env["host_ref_ms_end"] = host_reference_ms(np)
    print("host", json.dumps({k: env[k] for k in ("loadavg_start", "loadavg_end",
                                                  "host_ref_ms_start", "host_ref_ms_end")}))

    failed = sum(op.failed for op in ops)
    correct = failed == 0 and not run_errors
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, args=vars(args), env=env, run_errors=run_errors,
                  setup_runs=setup_runs,
                  ops=[{"index": op.index, "traced": op.traced, "seconds": op.seconds,
                        "errors": op.errors,
                        "estimates": [vars(e) for e in op.estimates]} for op in ops],
                  csv_sha256=getattr(wl, "csv_sha256", None))
    if inst is not None:
        record["spans"] = [s.as_list() for s in inst.tracer.spans]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
