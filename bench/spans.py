"""Spans recorded from outside the program, and the per-layer metrics built from them.

A :class:`Tracer` wraps the public functions named in :data:`TRACED`. Each
wrapper records one span per call: its name, start, end, parent span, job id
and an amount of work (rows, trials, leaves) where the function has one.
Wrapping replaces every binding of the function object across the
``votefuse.*`` module namespaces, because modules import kernels by name
(``cli`` imports ``banzhaf_exact``, ``fusion`` imports ``optimal_weights``).
Spans stay in memory until the run writes them out.

A span's self time is its duration minus the part of it covered by its child
spans. A module's self time is the sum over its spans; the ``cli`` module's
self time comes from the job span, which is the whole ``cli.main`` call.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

from checks import FIXED_RULES

LAYERS = ("cli", "io", "model", "power", "jury", "wmr", "scoring", "fusion")


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _fuse_variant(args, kwargs):
    rule = _arg(args, kwargs, 1, "rule")
    return "fixed" if rule in FIXED_RULES else rule


def _efficiency_variant(args, kwargs):
    return _arg(args, kwargs, 3, "method", "exact")


def _efficiency_work(args, kwargs, result):
    if _efficiency_variant(args, kwargs) == "exact":
        m, voters = _arg(args, kwargs, 1, "m"), _arg(args, kwargs, 2, "n_voters")
        rankings = math.factorial(m)
        return math.comb(voters + rankings - 1, rankings - 1)
    return _arg(args, kwargs, 5, "trials", 100_000)


@dataclass(frozen=True)
class Traced:
    """One traced function: where it lives, and how to name a call and size its work."""

    module: str
    qualname: str
    variant: Optional[Callable] = None  # (args, kwargs) -> suffix of the span name
    work: Optional[Callable] = None  # (args, kwargs, result) -> units of work

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


#: Every public entry point the per-layer metrics need, by defining module.
TRACED = (
    Traced("io", "load_game"),
    Traced("io", "load_predictions", work=lambda a, k, r: r.n_samples),
    Traced("io", "load_team_structure"),
    Traced("io", "load_cost_matrix"),
    Traced("io", "Report.to_text"),
    Traced("model", "VotingGame.__post_init__"),
    Traced("model", "integer_form"),
    Traced("power", "banzhaf_exact"),
    Traced("power", "shapley_shubik_exact"),
    Traced("power", "power_monte_carlo", work=lambda a, k, r: _arg(a, k, 2, "trials", 100_000)),
    Traced("jury", "group_competence"),
    Traced("jury", "decisiveness_probability"),
    Traced("jury", "indirect_competence"),
    Traced("jury", "competence_monte_carlo",
           work=lambda a, k, r: _arg(a, k, 3, "trials", 100_000)),
    Traced("jury", "optimal_weights"),
    Traced("wmr", "enumerate_unique_wmr"),
    Traced("scoring", "condorcet_efficiency", variant=_efficiency_variant,
           work=_efficiency_work),
    Traced("fusion", "PredictionSet.__post_init__"),
    Traced("fusion", "fuse_dataset", variant=_fuse_variant,
           work=lambda a, k, r: a[0].n_samples),
    Traced("fusion", "fuse_wmr_one_vs_rest"),
    Traced("fusion", "fuse_adaptive_wmr"),
    Traced("fusion", "ValidationIndex.neighbors"),
    Traced("fusion", "confusion_from_predictions"),
)

JOB_SPAN = "cli.main"


@dataclass
class Span:
    sid: int
    parent: int  # -1 for a job span
    name: str
    job: str
    start: float
    end: float = 0.0
    work: float = 0.0

    def to_row(self) -> list:
        return [self.sid, self.parent, self.name, self.job, self.start, self.end, self.work]

    @classmethod
    def from_row(cls, row) -> "Span":
        return cls(*row)


@dataclass
class Tracer:
    """Records spans of one thread of calls; install() patches, uninstall() restores."""

    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)
    job: str = ""

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else -1
        span = Span(len(self.spans), parent, name, self.job, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def run_job(self, job_id: str, fn, *args):
        """Call ``fn(*args)`` inside the job span of ``job_id``."""
        self.job = job_id
        span = self.begin(JOB_SPAN)
        try:
            return fn(*args)
        finally:
            self.end(span)

    def _wrapper(self, spec: Traced, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = spec.name
            if spec.variant is not None:
                name = f"{name}.{spec.variant(args, kwargs)}"
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if spec.work is not None:
                span.work = float(spec.work(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function in TRACED wherever a ``votefuse`` module binds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "votefuse" or name.startswith("votefuse.")) and m is not None]
        for spec in TRACED:
            home = sys.modules[f"votefuse.{spec.module}"]
            owner_name, _, attr = spec.qualname.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrapper(spec, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrapper(spec, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


# ---------------------------------------------------------------- analysis


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = (s.end - s.start) - covered
    return out


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


@dataclass
class NameStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: float = 0.0


def summarize(spans: list[Span]) -> dict[str, NameStats]:
    """Calls, inclusive time, self time and work per span name."""
    selfs = self_times(spans)
    stats: dict[str, NameStats] = defaultdict(NameStats)
    for s in spans:
        st = stats[s.name]
        st.calls += 1
        st.total_s += s.end - s.start
        st.self_s += selfs[s.sid]
        st.work += s.work
    return dict(stats)


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: list[Span], jobs: list[dict]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit).

    A metric whose layer the workload never calls reads 0.
    """
    stats = summarize(spans)
    empty = NameStats()

    def get(name: str) -> NameStats:
        return stats.get(name, empty)

    job_time = get(JOB_SPAN).total_s
    layer_self = defaultdict(float)
    for name, st in stats.items():
        layer_self[module_of(name)] += st.self_s
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (_per(layer_self[layer], job_time), "ratio")

    def ms_per_call(name: str) -> None:
        st = get(name)
        out[f"{name}.ms_per_call"] = (_per(st.total_s * 1e3, st.calls), "ms")

    def calls(name: str) -> None:
        out[f"{name}.calls"] = (float(get(name).calls), "count")

    def rate(name: str, unit: str, metric: str) -> None:
        st = get(name)
        out[f"{name}.{metric}"] = (_per(st.work, st.total_s), unit)

    for name in ("io.load_predictions", "fusion.PredictionSet.__post_init__",
                 "io.Report.to_text", "io.load_game", "model.integer_form",
                 "power.banzhaf_exact", "power.shapley_shubik_exact", "jury.group_competence",
                 "jury.decisiveness_probability", "jury.indirect_competence",
                 "wmr.enumerate_unique_wmr", "scoring.condorcet_efficiency.exact",
                 "fusion.confusion_from_predictions"):
        ms_per_call(name)
    # the issue-facing name for PredictionSet validation
    out["fusion.PredictionSet.validate.ms_per_call"] = out.pop(
        "fusion.PredictionSet.__post_init__.ms_per_call")
    rate("io.load_predictions", "rows/s", "rows_per_s")
    rate("scoring.condorcet_efficiency.exact", "leaves/s", "leaves_per_s")
    for name in ("power.power_monte_carlo", "jury.competence_monte_carlo",
                 "scoring.condorcet_efficiency.monte-carlo"):
        rate(name, "trials/s", "trials_per_s")
    for variant in ("fixed", "wmr", "adaptive-wmr"):
        rate(f"fusion.fuse_dataset.{variant}", "rows/s", "rows_per_s")
    for name in ("model.integer_form", "jury.decisiveness_probability",
                 "wmr.enumerate_unique_wmr", "fusion.fuse_wmr_one_vs_rest",
                 "jury.optimal_weights", "fusion.ValidationIndex.neighbors"):
        calls(name)

    # wasted work, each count per unit of work next to the amount that is useful
    by_id = {s.sid: s for s in spans}
    ovr_weights = sum(1 for s in spans if s.name == "jury.optimal_weights" and s.parent >= 0
                      and by_id[s.parent].name == "fusion.fuse_wmr_one_vs_rest")
    wmr_jobs = sum(1 for j in jobs if j["command"] == "wmr")
    jury_exact_jobs = sum(1 for j in jobs if j["command"] == "jury" and j["method"] == "exact")
    enum_calls = get("wmr.enumerate_unique_wmr").calls
    queries = get("fusion.fuse_adaptive_wmr").calls
    neighbor_calls = get("fusion.ValidationIndex.neighbors").calls
    decisive_calls = get("jury.decisiveness_probability").calls
    out["wmr.enumerate_unique_wmr.calls_per_job"] = (_per(enum_calls, wmr_jobs), "calls/job")
    out["wmr.enumerate_unique_wmr.useful_ratio"] = (_per(wmr_jobs, enum_calls), "ratio")
    out["fusion.ValidationIndex.neighbors.calls_per_query"] = (
        _per(neighbor_calls, queries), "calls/query")
    out["fusion.ValidationIndex.neighbors.useful_ratio"] = (_per(queries, neighbor_calls), "ratio")
    out["jury.optimal_weights.calls_per_wmr_row"] = (
        _per(ovr_weights, get("fusion.fuse_wmr_one_vs_rest").calls), "calls/row")
    out["jury.decisiveness_probability.calls_per_job"] = (
        _per(decisive_calls, jury_exact_jobs), "calls/job")
    out["trace.spans"] = (float(len(spans)), "count")
    return out
