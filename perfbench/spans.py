"""Span tracing for the benchmark's traced run.

The tracer works from outside the program: it replaces, for the duration of
one op, the module attributes through which cpchan's layers call each other
(``cp_als.compose``, ``channel_recovery.fista``, ``StackedGridOperator.matvec``
and so on) with wrappers that record a span per call.  Every name is looked
up when the tracer is installed, so a renamed public function fails the run
instead of silently zeroing a layer metric, and :func:`coverage_errors`
checks afterwards that each wrapper fired on the workloads that exercise it.

A span is (name, op id, parent, start, end).  Spans are kept in memory; the
caller writes them out when the run ends.  Self time is a span's duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections.abc import Callable
from dataclasses import dataclass
from unittest import mock


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "child_s")

    def __init__(self, name: str, op: int, parent: int, start: float):
        self.name = name
        self.op = op
        self.parent = parent      # index into Tracer.spans, -1 for an op root
        self.start = start
        self.end = start
        self.child_s = 0.0        # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def as_list(self) -> list:
        return [self.name, self.op, self.parent, self.start, self.end]


class Tracer:
    """In-memory span recorder; spans nest through an explicit stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self.returns: dict[str, list] = {}   # span name -> kept return summaries
        self._stack: list[int] = []
        self.op = -1

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.op, parent, time.perf_counter()))
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration


CPF, CS, SWEEP = "table1_cpf", "table1_cs", "snr_sweep"


@dataclass(frozen=True)
class Hook:
    """One wrapped binding: ``module.attr`` is what the calling layer resolves."""

    span: str                 # "<layer>.<public name>"
    module: str
    attr: str                 # dotted for methods, e.g. "StackedGridOperator.matvec"
    fires_on: frozenset[str]  # workloads on which the binding must fire
    keep: Callable | None = None   # summary of the return value to record


def _hook(span, module, attr, *workloads, keep=None):
    return Hook(span, f"cpchan.{module}", attr, frozenset(workloads), keep)


def _fista_counts(result):
    return result.iterations, result.converged


HOOKS = (
    _hook("channel_sim.sample_channel", "bench", "sample_channel", SWEEP),
    _hook("training_design.build_design", "bench", "build_design", SWEEP),
    _hook("measurement.simulate", "bench", "simulate", SWEEP),
    _hook("training_design.check_uniqueness", "bench", "check_uniqueness", SWEEP),
    _hook("channel_recovery.estimate_all", "channel_recovery", "estimate_all", CPF, SWEEP),
    _hook("cp_als.als_regularized", "cp_als", "als_regularized", CPF),
    _hook("cp_als.als_known_rank", "cp_als", "als_known_rank", SWEEP),
    _hook("tensor_core.compose", "cp_als", "compose", CPF, SWEEP),
    _hook("tensor_core.khatri_rao", "cp_als", "khatri_rao", CPF, SWEEP),
    _hook("channel_recovery.resolve_ambiguity", "channel_recovery", "resolve_ambiguity",
          CPF, SWEEP),
    _hook("channel_recovery.pilot_constrained_polish", "channel_recovery",
          "pilot_constrained_polish", CPF, SWEEP),
    _hook("channel_recovery.channel_from_grid", "channel_recovery", "channel_from_grid",
          CPF, SWEEP),
    _hook("sparse_solver.fista", "channel_recovery", "fista", CPF, SWEEP, keep=_fista_counts),
    _hook("sparse_solver.fista", "cs_baseline", "fista", CS, SWEEP, keep=_fista_counts),
    _hook("sparse_solver.top_singular_value", "channel_recovery", "top_singular_value",
          CPF, SWEEP),
    _hook("sparse_solver.top_singular_value", "sparse_solver", "top_singular_value",
          CS, SWEEP),
    _hook("sparse_solver.StackedGridOperator.matvec", "sparse_solver",
          "StackedGridOperator.matvec", CPF, SWEEP),
    _hook("sparse_solver.StackedGridOperator.rmatvec", "sparse_solver",
          "StackedGridOperator.rmatvec", CPF, SWEEP),
    _hook("cs_baseline.assemble_problem", "cs_baseline", "assemble_problem", CS, SWEEP),
    _hook("cs_baseline.solve_cs", "cs_baseline", "solve_cs", CS, SWEEP),
    _hook("cs_baseline.PilotKronOperator.matvec", "cs_baseline",
          "PilotKronOperator.matvec", CS, SWEEP),
    _hook("cs_baseline.PilotKronOperator.rmatvec", "cs_baseline",
          "PilotKronOperator.rmatvec", CS, SWEEP),
)

# layers a workload must leave idle, and hooks that fire exactly once per op
IDLE = {CS: ("cp_als.", "tensor_core.")}
ONCE_PER_OP = {SWEEP: ("training_design.build_design",)}


def resolve(hook: Hook):
    """(owner object, attribute name) of a hook; raises if the name is gone."""
    owner = importlib.import_module(hook.module)
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"trace hook {hook.module}.{hook.attr}: {part} not found")
    if not callable(getattr(owner, name, None)):
        raise LookupError(f"trace hook {hook.module}.{hook.attr} does not resolve to a callable")
    return owner, name


class Instrumentation:
    """Installs the hooks around single ops and counts how often each fired."""

    def __init__(self, tracer: Tracer, hooks=HOOKS):
        self.tracer = tracer
        self.hooks = hooks
        self.fired = {h: 0 for h in hooks}
        self.targets = [resolve(h) for h in hooks]   # resolve up front: fail fast

    def _wrapper(self, hook: Hook, fn):
        tracer = self.tracer
        fired = self.fired
        keep = hook.keep
        kept = tracer.returns.setdefault(hook.span, [])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fired[hook] += 1
            idx = tracer.enter(hook.span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit(idx)
            if keep is not None:
                kept.append(keep(out))
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        with contextlib.ExitStack() as stack:
            for hook, (owner, name) in zip(self.hooks, self.targets):
                wrapper = self._wrapper(hook, getattr(owner, name))
                stack.enter_context(mock.patch.object(owner, name, wrapper))
            yield


def coverage_errors(inst: Instrumentation, workload: str, traced_ops: int) -> list[str]:
    """Hooks that never fired where they must, idle layers that fired, and
    once-per-op hooks that fired another number of times."""
    errors = []
    for hook, count in inst.fired.items():
        if workload in hook.fires_on and count == 0:
            errors.append(f"{hook.span} ({hook.module}.{hook.attr}) never fired on {workload}")
        if count and hook.span.startswith(IDLE.get(workload, ())):
            errors.append(f"{hook.span} fired {count} times on {workload}, which must not use it")
        if hook.span in ONCE_PER_OP.get(workload, ()) and count != traced_ops:
            errors.append(f"{hook.span} fired {count} times in {traced_ops} traced ops")
    return errors


def span_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total seconds and total self seconds."""
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        t = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["s"] += s.duration
        t["self_s"] += s.self_s
    return out
