"""The benchmark's workloads and the harness that times their ops.

All three workloads are closed loops with one client: the next op starts only
after the previous one returned.  An *op* is the unit of timing.

* ``table1_cpf``: one ``channel_recovery.estimate_all`` with regularized ALS
  (unknown rank) at the table1 operating point.  ``cp_als`` does most of the
  work and the stacked per-user FISTA the rest; ``cs_baseline`` is idle.
* ``table1_cs``: ``cs_baseline.assemble_problem`` + ``solve_cs`` on the
  128x64 grid for the same measurement draws.  ``sparse_solver``'s FISTA on
  ``PilotKronOperator`` does nearly all the work; ``cp_als`` is idle.
* ``snr_sweep``: ``bench.run_sweep`` over 0/10/20/30 dB with ``cpf_known_L``
  and ``cs_grid1``; one op is one Monte-Carlo trial (``bench.run_trial``),
  so design building, uniqueness checking and simulation sit inside the op.

All three workloads evaluate the channel/design realization that
``ExperimentConfig(seed=0, fixed_realization=True)`` draws, which is the
realization the acceptance test's NMSE bands are calibrated on; the benchmark
seed drives only the noise and ALS seeds of every op.  Accuracy differs by an
order of magnitude between realizations, so a seed-drawn realization would
make the band check meaningless and the accuracy metric a measure of which
realizations a seed happens to draw.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from unittest import mock

import numpy as np

from cpchan import bench, channel_recovery, cs_baseline
from cpchan.channel_sim import sample_channel
from cpchan.measurement import simulate
from cpchan.sparse_solver import AngleGrid
from cpchan.training_design import build_design

import spans

TABLE1 = bench.ExperimentConfig()            # table1 operating point, 30 dB
TRUE_RANK = TABLE1.total_paths               # 13 paths over 8 users
CHANNEL_SHAPE = (TABLE1.n_bs, TABLE1.n_ms)

# mean-NMSE targets at table1 that tests/test_acceptance.py pins; a run's mean
# must lie within a factor BAND of its target
TABLE1_TARGETS = {"cpf_regularized": 2.7e-3, "cs_grid2": 6.7e-3}
BAND = 5.0

SWEEP = replace(
    TABLE1, methods=("cpf_known_L", "cs_grid1"), sweep_variable="snr_db",
    sweep_values=(0.0, 10.0, 20.0, 30.0), trials=1, seed=0, fixed_realization=True)


@dataclass
class Estimate:
    """One method's output within an op, reduced to what the checks need."""

    method: str
    snr_db: float
    nmse: float | None
    errors: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)


@dataclass
class OpRecord:
    index: int
    traced: bool
    seconds: float = 0.0
    estimates: list[Estimate] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.errors) or any(e.errors for e in self.estimates)


def channel_errors(channels) -> list[str]:
    """Every user's channel must be a finite (n_bs, n_ms) matrix."""
    if len(channels) != TABLE1.n_users:
        return [f"{len(channels)} channels for {TABLE1.n_users} users"]
    errors = []
    for u, H in enumerate(channels):
        H = np.asarray(H)
        if H.shape != CHANNEL_SHAPE:
            errors.append(f"user {u}: channel shape {H.shape} != {CHANNEL_SHAPE}")
        elif not np.all(np.isfinite(H)):
            errors.append(f"user {u}: non-finite channel entries")
    return errors


def nmse_errors(nmse) -> list[str]:
    if nmse is None or not math.isfinite(nmse):
        return [f"NMSE {nmse!r} is not a finite number"]
    return []


def cpf_estimate(method: str, snr_db: float, res) -> Estimate:
    counts = {
        "rank": res.estimated_rank,
        "als_iterations": res.als_iterations,
        "als_converged": bool(res.diagnostics.get("als_converged")),
        "empty_users": len(res.resolution.empty_users),
    }
    return Estimate(method, snr_db, res.nmse_total,
                    channel_errors(res.channels) + nmse_errors(res.nmse_total), counts)


def cs_estimate(method: str, snr_db: float, res) -> Estimate:
    counts = {
        "cs_iterations": res.iterations,
        "cs_converged": bool(res.solver_converged),
        "refit_columns": int(sum(len(s) for s in res.supports)),
    }
    return Estimate(method, snr_db, res.nmse_total,
                    channel_errors(res.channels) + nmse_errors(res.nmse_total), counts)


class Harness:
    """Times ops for ``seconds`` seconds and records their checked outputs.

    With an instrumentation, ops alternate between traced and untraced so the
    run measures its own tracing overhead; ``block`` is the number of ops in
    one round of a workload, so traced ops cover every position in a round.
    """

    MIN_OPS = 2

    def __init__(self, seconds: float, inst: spans.Instrumentation | None = None,
                 block: int = 1):
        self.seconds = seconds
        self.inst = inst
        self.block = block
        self.ops: list[OpRecord] = []
        self.t0 = time.perf_counter()

    def more(self) -> bool:
        """Whether to start another op (or round of ops)."""
        return len(self.ops) < self.MIN_OPS or time.perf_counter() - self.t0 < self.seconds

    def is_traced(self, i: int) -> bool:
        if self.inst is None:
            return False
        shift = i // self.block if self.block % 2 == 0 else 0
        return (i + shift) % 2 == 1

    def op(self, call, to_estimates, root: str = "op"):
        """Run ``call()`` as one timed op; ``to_estimates`` turns its return
        value into estimates outside the timed region.  An op that raises is
        recorded as failed and returns None."""
        rec = OpRecord(len(self.ops), self.is_traced(len(self.ops)))
        self.ops.append(rec)
        value = None
        try:
            with self.inst.installed() if rec.traced else contextlib.nullcontext():
                if rec.traced:
                    self.inst.tracer.op = rec.index
                    span = self.inst.tracer.enter(root)
                t = time.perf_counter()
                try:
                    value = call()
                finally:
                    rec.seconds = time.perf_counter() - t
                    if rec.traced:
                        self.inst.tracer.exit(span)
            rec.estimates = to_estimates(value)
        except Exception as exc:  # the op counts as failed; the run goes on
            rec.errors.append(f"{type(exc).__name__}: {exc}")
        return value


def mean_nmse(estimates, method: str) -> float | None:
    vals = [e.nmse for e in estimates if e.method == method and not e.errors]
    return float(np.mean(vals)) if vals else None


class Table1:
    """Shared set-up of the table1 workloads: the pinned realization, and the
    noise and ALS seed of op ``i`` drawn from the benchmark seed."""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        # as bench.run_trial draws the fixed realization for config seed 0
        rng_channel, rng_design = (
            np.random.default_rng(s) for s in np.random.SeedSequence([0, 999_983]).spawn(2))
        cfg = TABLE1
        self.channel = sample_channel(
            rng_channel, cfg.n_users, cfg.paths_per_user, cfg.n_bs, cfg.n_ms)
        self.design = build_design(
            rng_design, cfg.n_bs, cfg.n_ms, cfg.m_bs, cfg.t_prime, cfg.t, cfg.paths_per_user)
        self.inputs(0)   # set-up covers measurement generation too

    def inputs(self, i: int):
        """Measurement and ALS seed of op i, drawn like trial ``seed * 10**6 + i``
        of a bench sweep at config seed 0."""
        ss = np.random.SeedSequence([0, 0, self.seed * 10**6 + i])
        _, _, rng_noise, rng_als = (np.random.default_rng(s) for s in ss.spawn(4))
        als_seed = int(rng_als.integers(2**31))
        return simulate(self.channel, self.design, TABLE1.snr_db, rng_noise), als_seed

    def band_errors(self, estimates, method: str) -> list[str]:
        mean = mean_nmse(estimates, method)
        target = TABLE1_TARGETS[method]
        if mean is None or not target / BAND <= mean <= target * BAND:
            return [f"{method}: mean NMSE {mean!r} outside [{target / BAND:.2e}, "
                    f"{target * BAND:.2e}]"]
        return []


class Table1Cpf(Table1):
    name = spans.CPF
    methods = ("cpf_regularized",)
    block = 1

    def run(self, h: Harness) -> None:
        i = 0
        while h.more():
            meas, als_seed = self.inputs(i)
            pcfg = bench._pipeline_config(TABLE1, None, als_seed)   # as a cpf_regularized trial
            h.op(lambda: channel_recovery.estimate_all(meas, self.design, pcfg, self.channel),
                 lambda res: [cpf_estimate("cpf_regularized", TABLE1.snr_db, res)])
            i += 1

    def run_errors(self, estimates) -> list[str]:
        return self.band_errors(estimates, "cpf_regularized")


class Table1Cs(Table1):
    name = spans.CS
    methods = ("cs_grid2",)
    block = 1

    def run(self, h: Harness) -> None:
        grid = AngleGrid(*TABLE1.grid_cs2)
        i = 0
        while h.more():
            meas, _ = self.inputs(i)

            def call():
                prob = cs_baseline.assemble_problem(meas, self.design, grid)
                return cs_baseline.solve_cs(
                    prob, lambda_scale=TABLE1.lambda_scale_cs, channel_truth=self.channel)

            h.op(call, lambda res: [cs_estimate("cs_grid2", TABLE1.snr_db, res)])
            i += 1

    def run_errors(self, estimates) -> list[str]:
        return self.band_errors(estimates, "cs_grid2")


class SnrSweep:
    """Rounds of ``bench.run_sweep``, one trial per SNR point, each round
    with a deterministic CSV.

    Every trial evaluates the pinned realization: trial ``k`` of a sweep
    point runs as trial ``seed * 10**6 + k`` at config seed 0, as table1's op
    ``k`` does.  ``bench.run_trial`` still draws that realization inside the
    op, so reuse of it across trials (ROADMAP item 5) shows here."""

    name = spans.SWEEP
    methods = SWEEP.methods
    block = len(SWEEP.sweep_values)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.csv_sha256: list[str] = []
        self.captured: dict[str, list] = {"cpf": [], "cs": []}
        self.round = 0

    def setup(self) -> None:
        """Nothing to prepare: trials draw their channel and design inside the op."""

    def _capture(self, kind: str, fn):
        """Observer that keeps the estimator results a trial returns."""
        def observer(*args, **kwargs):
            res = fn(*args, **kwargs)
            self.captured[kind].append(res)
            return res
        return observer

    def to_estimates(self, rows) -> list[Estimate]:
        """Pair a trial's CSV rows with the estimator results it captured; a
        ``failed:<msg>`` row is a failed estimate."""
        out = []
        for row in rows:
            kind = "cpf" if row.method.startswith("cpf") else "cs"
            if row.status != "ok":
                out.append(Estimate(row.method, row.sweep_value, None,
                                    [f"{row.method}: {row.status}"]))
            elif not self.captured[kind]:
                out.append(Estimate(row.method, row.sweep_value, row.nmse,
                                    [f"{row.method}: no estimator result captured"]))
            else:
                make = cpf_estimate if kind == "cpf" else cs_estimate
                est = make(row.method, row.sweep_value, self.captured[kind].pop(0))
                est.nmse = row.nmse
                est.errors += nmse_errors(row.nmse)
                if len(row.nmse_per_user) != TABLE1.n_users:
                    est.errors.append(f"{row.method}: {len(row.nmse_per_user)} per-user NMSEs")
                out.append(est)
        return out

    def run(self, h: Harness) -> None:
        run_trial = bench.run_trial

        def trial(cfg, point_idx, _first_trial):
            self.captured = {"cpf": [], "cs": []}
            trial_idx = self.seed * 10**6 + self.round    # seed and round pick the noise
            rows = h.op(lambda: run_trial(cfg, point_idx, trial_idx), self.to_estimates,
                        root="bench.run_trial")
            return [] if rows is None else rows

        with contextlib.ExitStack() as stack:
            stack.enter_context(mock.patch.object(bench, "run_trial", trial))
            stack.enter_context(mock.patch.object(
                channel_recovery, "estimate_all",
                self._capture("cpf", channel_recovery.estimate_all)))
            stack.enter_context(mock.patch.object(
                cs_baseline, "solve_cs", self._capture("cs", cs_baseline.solve_cs)))
            self.round = 0
            while h.more():
                path = self.workdir / f"{self.name}-{self.seed}-round{self.round}.csv"
                bench.run_sweep(SWEEP, out_path=path, threads=1, deterministic=True)
                self.csv_sha256.append(hashlib.sha256(path.read_bytes()).hexdigest())
                path.unlink()
                self.round += 1

    def run_errors(self, estimates) -> list[str]:
        """cpf_known_L must improve with SNR (one adjacent inversion allowed,
        as in bench.monotone_trend_ok) and beat cs_grid1 at the top SNR."""
        by_point = {}
        for e in estimates:
            if not e.errors:
                by_point.setdefault((e.method, e.snr_db), []).append(e.nmse)
        snrs = sorted(SWEEP.sweep_values)
        means = {key: float(np.mean(v)) for key, v in by_point.items()}
        cpf = [means.get(("cpf_known_L", s)) for s in snrs]
        if None in cpf:
            return ["cpf_known_L: some SNR point has no successful trial"]
        errors = []
        inversions = sum(b > a for a, b in zip(cpf, cpf[1:]))
        if inversions > 1:
            errors.append(f"cpf_known_L mean NMSE rises with SNR {inversions} times: {cpf}")
        cs_top = means.get(("cs_grid1", snrs[-1]))
        if cs_top is None or not cpf[-1] < cs_top:
            errors.append(f"at {snrs[-1]} dB cpf_known_L NMSE {cpf[-1]:.3e} is not below "
                          f"cs_grid1 {cs_top!r}")
        return errors


def make(name: str, seed: int, workdir: Path):
    if name == spans.CPF:
        return Table1Cpf(seed)
    if name == spans.CS:
        return Table1Cs(seed)
    if name == spans.SWEEP:
        return SnrSweep(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
