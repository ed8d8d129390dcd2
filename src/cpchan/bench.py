"""Config-driven Monte-Carlo benchmark harness.

A sweep runs ``trials`` independent channel/noise realizations at each sweep
point, feeds the *same* measurement tensor to every requested method, and
writes one CSV row per (method, point, trial) plus per-point summary rows.
Seeding is hierarchical (root seed, point index, trial index), so a config
re-run reproduces every draw; with ``deterministic=True`` the wall-clock
column is zeroed and the CSV is byte-identical across runs.

Config files are JSON; see README for the schema.
"""

from __future__ import annotations

import csv
import hashlib
import json
import multiprocessing
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import channel_recovery, cs_baseline
from .channel_sim import sample_channel
from .cp_als import AlsConfig
from .measurement import simulate
from .sparse_solver import AngleGrid
from .training_design import build_design, check_uniqueness

CSV_SCHEMA_VERSION = "1"

CSV_HEADER = [
    "schema", "method", "sweep_variable", "sweep_value", "trial", "seed",
    "nmse", "nmse_per_user", "runtime_s", "estimated_rank",
    "uniqueness", "tensor_sha256", "status",
]

KNOWN_METHODS = ("cpf_known_L", "cpf_regularized", "cs_grid1", "cs_grid2")

# thread-count variables of the BLAS and OpenMP builds numpy may load; the
# workers of a parallel sweep start with each set to 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# every angle grid is the arrays (n_bs AoAs x n_ms AoDs) oversampled by a
# fixed factor per method
CPF_OVERSAMPLING = 4
CS_OVERSAMPLING = {"cs_grid1": 1, "cs_grid2": 2}


def _is_finite_real(v) -> bool:
    """A finite real number; bools and strings are not numbers here."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and bool(np.isfinite(v))


def _is_count(v) -> bool:
    return _is_finite_real(v) and float(v).is_integer() and v >= 1


@dataclass(frozen=True)
class ExperimentConfig:
    n_bs: int = 64
    n_ms: int = 32
    paths_per_user: tuple[int, ...] = (1, 1, 1, 2, 2, 2, 2, 2)
    m_bs: int = 16
    t_prime: int = 16
    t: int = 4
    snr_db: float | None = 30.0
    sweep_variable: str | None = None        # snr_db | t | m_bs | t_prime
    sweep_values: tuple[float, ...] = ()
    methods: tuple[str, ...] = ("cpf_regularized", "cs_grid1", "cs_grid2")
    trials: int = 50
    seed: int = 0
    # evaluate one channel/design realization with fresh noise per trial
    # (figure-style experiments); False redraws the channel every trial
    fixed_realization: bool = False

    def __post_init__(self):
        for key in ("sweep_values", "methods"):
            object.__setattr__(self, key, tuple(getattr(self, key)))
        v = self.paths_per_user  # the only description of the users
        if not (isinstance(v, (list, tuple)) and v and all(_is_count(n) for n in v)):
            raise ValueError(f"paths_per_user must be a nonempty list of positive "
                             f"integers, got {v!r}")
        object.__setattr__(self, "paths_per_user", tuple(int(n) for n in v))
        for key in ("n_bs", "n_ms", "m_bs", "t_prime", "t", "trials"):
            v = getattr(self, key)
            if not _is_count(v):
                raise ValueError(f"{key} must be a positive integer, got {v!r}")
            object.__setattr__(self, key, int(v))
        if self.t < 2:
            raise ValueError(f"t must be at least 2 for identifiability, got {self.t!r}")
        if self.snr_db is not None and not _is_finite_real(self.snr_db):
            raise ValueError(f"snr_db must be null or a finite number, got {self.snr_db!r}")
        if self.sweep_variable is not None and not self.sweep_values:
            raise ValueError("sweep_values must be nonempty when sweeping")
        if self.sweep_variable not in (None, "snr_db", "t", "m_bs", "t_prime"):
            raise ValueError(f"unknown sweep variable {self.sweep_variable}")
        snr = self.sweep_variable == "snr_db"
        for v in self.sweep_values if self.sweep_variable else ():
            if not (_is_finite_real(v) if snr else _is_count(v)):
                kind = "finite numbers" if snr else "positive integers"
                raise ValueError(f"sweep_values for {self.sweep_variable} must be "
                                 f"{kind}, got {v!r}")
            if self.sweep_variable == "t" and v < 2:
                raise ValueError(f"sweep_values for t must be at least 2 for "
                                 f"identifiability, got {v!r}")
        if not self.methods:
            raise ValueError(f"methods must be nonempty, got {self.methods!r}")
        unknown = set(self.methods) - set(KNOWN_METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")

    @property
    def n_users(self) -> int:
        return len(self.paths_per_user)

    @property
    def total_paths(self) -> int:
        return sum(self.paths_per_user)

    @property
    def grid_cs1(self) -> tuple[int, int]:
        k = CS_OVERSAMPLING["cs_grid1"]
        return (k * self.n_bs, k * self.n_ms)

    @property
    def grid_cs2(self) -> tuple[int, int]:
        k = CS_OVERSAMPLING["cs_grid2"]
        return (k * self.n_bs, k * self.n_ms)

    @property
    def lambda_scale_cs(self) -> float:
        # the joint CS solve keeps the plain universal threshold, which is
        # what gives the baseline its best accuracy
        return 1.0

    def at_point(self, value) -> "ExperimentConfig":
        """Config with the sweep variable pinned to one value."""
        if self.sweep_variable is None:
            return self
        val = float(value) if self.sweep_variable == "snr_db" else int(value)
        return replace(self, **{self.sweep_variable: val})


def config_from_dict(d: dict) -> ExperimentConfig:
    unknown = set(d) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**d)


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        return config_from_dict(json.load(f))


@dataclass(frozen=True)
class ResultRow:
    method: str
    sweep_variable: str
    sweep_value: float
    trial: int
    seed: int
    nmse: float | None
    nmse_per_user: list[float] = field(default_factory=list)
    runtime_s: float = 0.0
    estimated_rank: int = -1
    uniqueness: str = ""
    tensor_sha256: str = ""
    status: str = "ok"

    def to_csv(self, deterministic: bool = False) -> list[str]:
        return [
            CSV_SCHEMA_VERSION,
            self.method,
            self.sweep_variable,
            repr(float(self.sweep_value)),
            str(self.trial),
            str(self.seed),
            "" if self.nmse is None else repr(float(self.nmse)),
            ";".join(repr(float(v)) for v in self.nmse_per_user),
            "0.0" if deterministic else repr(float(self.runtime_s)),
            str(self.estimated_rank),
            self.uniqueness,
            self.tensor_sha256,
            self.status,
        ]


def _trial_seed(root: int, point_idx: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([root, point_idx, trial])


def _pipeline_config(cfg: ExperimentConfig, known_rank: int | None, als_seed: int):
    return channel_recovery.PipelineConfig(
        grid=AngleGrid(CPF_OVERSAMPLING * cfg.n_bs, CPF_OVERSAMPLING * cfg.n_ms),
        als=AlsConfig(seed=als_seed),
        known_rank=known_rank,
    )


def point_indices(cfg: ExperimentConfig) -> range:
    return range(len(cfg.sweep_values)) if cfg.sweep_variable else range(1)


def _point_value(cfg: ExperimentConfig, point_idx: int) -> float:
    if cfg.sweep_variable:
        return float(cfg.sweep_values[point_idx])
    # a noiseless run (snr_db None) is recorded as infinite SNR, not as 0 dB
    return float("inf") if cfg.snr_db is None else float(cfg.snr_db)


def draw_scene(cfg: ExperimentConfig, point_idx: int, trial: int):
    """The scene that trial ``trial`` of sweep point ``point_idx`` evaluates.

    Returns (config pinned to the point, channel, design, noise generator,
    ALS-seed generator).  ``run_trial`` and ``cpchan check-uniqueness`` both
    draw through here, so the CLI checks the scene the trials evaluate.
    """
    pcfg = cfg.at_point(_point_value(cfg, point_idx))
    ss = _trial_seed(cfg.seed, point_idx, trial)
    rng_channel, rng_design, rng_noise, rng_als = (
        np.random.default_rng(s) for s in ss.spawn(4))
    if cfg.fixed_realization:
        # one channel/design draw shared by every sweep point and trial;
        # only the noise (and solver seeding) varies across trials
        fixed = np.random.SeedSequence([cfg.seed, 999_983]).spawn(2)
        rng_channel, rng_design = (np.random.default_rng(s) for s in fixed)
    channel = sample_channel(
        rng_channel, pcfg.n_users, pcfg.paths_per_user, pcfg.n_bs, pcfg.n_ms)
    design = build_design(
        rng_design, pcfg.n_bs, pcfg.n_ms, pcfg.m_bs, pcfg.t_prime, pcfg.t,
        pcfg.paths_per_user)
    return pcfg, channel, design, rng_noise, rng_als


def run_trial(cfg: ExperimentConfig, point_idx: int, trial: int) -> list[ResultRow]:
    """One channel/design/noise realization, all methods on the same tensor."""
    point_value = _point_value(cfg, point_idx)
    sweep_var = cfg.sweep_variable or "snr_db"
    pcfg, channel, design, rng_noise, rng_als = draw_scene(cfg, point_idx, trial)
    als_seed = int(rng_als.integers(2**31))
    meas = simulate(channel, design, pcfg.snr_db, rng_noise)
    tensor_hash = hashlib.sha256(np.ascontiguousarray(meas.y.data).tobytes()).hexdigest()[:16]
    try:
        uniq = "pass" if check_uniqueness(design, channel).passed else "fail"
    except ValueError:
        # the k-rank is not computable for this scene (exhaustive search past
        # its limit); the estimators still run on it
        uniq = "unknown"

    rows = []
    for method in pcfg.methods:
        base = dict(
            method=method, sweep_variable=sweep_var,
            sweep_value=point_value, trial=trial, seed=cfg.seed,
            uniqueness=uniq, tensor_sha256=tensor_hash)
        try:
            if method in ("cpf_known_L", "cpf_regularized"):
                known = pcfg.total_paths if method == "cpf_known_L" else None
                res = channel_recovery.estimate_all(
                    meas, design, _pipeline_config(pcfg, known, als_seed), channel)
                rows.append(ResultRow(
                    nmse=res.nmse_total, nmse_per_user=res.nmse_per_user or [],
                    runtime_s=res.runtime_s, estimated_rank=res.estimated_rank, **base))
            else:
                grid = AngleGrid(*(pcfg.grid_cs1 if method == "cs_grid1" else pcfg.grid_cs2))
                prob = cs_baseline.assemble_problem(meas, design, grid)
                res = cs_baseline.solve_cs(prob, channel_truth=channel)
                rows.append(ResultRow(
                    nmse=res.nmse_total, nmse_per_user=res.nmse_per_user or [],
                    runtime_s=res.runtime_s, estimated_rank=-1, **base))
        except (np.linalg.LinAlgError, ValueError) as exc:
            # numerical failures on degenerate draws are recorded and the sweep
            # continues; any other exception is a programming error and propagates
            rows.append(ResultRow(
                nmse=None, status=f"failed:{type(exc).__name__}: {exc}", **base))
    return rows


def _run_trial_star(args):
    return run_trial(*args)


@contextmanager
def worker_pool(threads: int):
    """Process pool of ``threads`` workers, each running BLAS on one thread.

    N workers each running a multithreaded BLAS would oversubscribe the
    cores.  BLAS reads its thread count when numpy loads, so the workers are
    spawned (a forked worker inherits the parent's loaded BLAS) with the
    BLAS_THREAD_VARS pinned to 1 in their environment; the parent's
    environment is restored on exit.
    """
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(max_workers=threads,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def run_sweep(
    cfg: ExperimentConfig,
    out_path=None,
    threads: int = 1,
    deterministic: bool = False,
) -> list[ResultRow]:
    """Run the full sweep; returns data rows followed by summary rows."""
    points = point_indices(cfg)
    jobs = [(cfg, p, t) for p in points for t in range(cfg.trials)]
    if threads > 1:
        with worker_pool(threads) as pool:
            per_trial = list(pool.map(_run_trial_star, jobs))
    else:
        per_trial = [run_trial(*j) for j in jobs]
    rows: list[ResultRow] = [r for batch in per_trial for r in batch]

    # per-(point, method) summary rows
    summaries = []
    sweep_var = cfg.sweep_variable or "snr_db"
    for p in points:
        value = _point_value(cfg, p)
        for method in cfg.methods:
            at_point = [r for r in rows if r.method == method and r.sweep_value == value]
            sel = [r for r in at_point if r.nmse is not None]
            failed = len(at_point) - len(sel)
            # failed trials are left out of the mean and counted in the status;
            # a point whose trials all failed has no mean
            summaries.append(ResultRow(
                method=f"summary:{method}", sweep_variable=sweep_var,
                sweep_value=value, trial=-1, seed=cfg.seed,
                nmse=float(np.mean([r.nmse for r in sel])) if sel else None,
                nmse_per_user=[],
                runtime_s=float(np.mean([r.runtime_s for r in sel])) if sel else 0.0,
                estimated_rank=-1, uniqueness="", tensor_sha256="",
                status=f"n={len(sel)}" + (f";failed={failed}" if failed else "")))
    rows = rows + summaries
    if out_path is not None:
        write_csv(rows, out_path, deterministic)
    return rows


def write_csv(rows: list[ResultRow], path, deterministic: bool = False) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow(r.to_csv(deterministic))


def mean_nmse_by_point(rows: list[ResultRow], method: str) -> dict[float, float]:
    out = {}
    for r in rows:
        if r.method == f"summary:{method}" and r.nmse is not None:
            out[r.sweep_value] = r.nmse
    return out


def monotone_trend_ok(rows: list[ResultRow], method: str = "cpf_regularized",
                      allowed_inversions: int = 1) -> bool:
    """Mean NMSE non-increasing over ascending sweep values, with slack for
    Monte-Carlo noise at adjacent points.  A point without a mean (every
    trial failed) fails the check."""
    if any(r.method == f"summary:{method}" and r.nmse is None for r in rows):
        return False
    means = mean_nmse_by_point(rows, method)
    values = sorted(means)
    inversions = sum(
        1 for a, b in zip(values, values[1:]) if means[b] > means[a])
    return inversions <= allowed_inversions
