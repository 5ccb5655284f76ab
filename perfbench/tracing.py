"""In-memory span tracer installed around the package's layer boundaries.

Every public function of the layer modules and every public method of the
classes the solver and the closed loop call is replaced by a wrapper that
records one span: name, start, end, parent span and group.  A group is one
request: a closed-loop step, one solve outside a step, one horizon-cost
evaluation, or one terminal-level evaluation; every span opened inside it
shares its id.

Wrappers are installed at every name a caller resolves.  A function imported
into several modules (``step_with_margin`` is bound in ``lgvi``, ``attitude``
and the package root) gets one wrapper that replaces all of those bindings,
so no call is missed and none is counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# Modules whose public functions form the layers, keyed by layer name.
LAYER_MODULES = ("so3", "lgvi", "mpc", "attitude", "terminal", "experiments", "cli", "flat")

# Classes whose public methods are traced, with the module that defines them.
TRACED_CLASSES = (
    ("mpc", "ManifoldSystem"),
    ("mpc", "MpcController"),
    ("attitude", "SpacecraftAttitudeSystem"),
    ("attitude", "AttitudeMpc"),
    ("flat", "DoubleIntegratorSystem"),
    ("terminal", "TerminalDesign"),
    ("experiments", "ExperimentReport"),
)

# Private functions traced because they are a layer boundary all the same.
EXTRA_FUNCTIONS = (("cli", "_write_summary"),)

# A span with one of these names opens a new group unless one is open.
GROUP_STARTS = frozenset(
    {
        "mpc.MpcController.step",
        "mpc.solve_ocp",
        "mpc.horizon_cost",
        "terminal.evaluate_level",
    }
)


class Tracer:
    """Spans kept in flat arrays; one wrapper call appends one span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.group = array("l")
        self.errors: dict[int, str] = {}
        self.returns: dict[str, list] = {}
        self._stack: list[int] = []
        self._group = 0
        self._n_groups = 0

    def __len__(self) -> int:
        return len(self.start)

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_return=None):
        """Return ``fn`` wrapped so that every call records a span."""
        nid = self.name_index(name)
        starts_group = name in GROUP_STARTS
        clock = time.perf_counter
        stack = self._stack
        returns = self.returns.setdefault(name, []) if on_return else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            outer_group = self._group
            if starts_group and outer_group == 0:
                self._n_groups += 1
                self._group = self._n_groups
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.group.append(self._group)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                self.errors[index] = type(err).__name__
                raise
            finally:
                self.end[index] = clock()
                stack.pop()
                self._group = outer_group
            if returns is not None:
                returns.append(on_return(result))
            return result

        return traced

    def arrays(self) -> dict:
        """Copies of the span columns as numpy arrays."""
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
            "parent": np.array(self.parent, dtype=np.int64),
            "group": np.array(self.group, dtype=np.int64),
        }

    def save(self, path) -> None:
        """Write every span as parallel arrays, plus the name table."""
        data = self.arrays()
        for column in ("name_id", "parent", "group"):
            data[column] = data[column].astype(np.int32)
        error_index = np.fromiter(self.errors.keys(), dtype=np.int64, count=len(self.errors))
        error_name = np.array(list(self.errors.values()), dtype=str)
        np.savez(path, names=np.array(self.names, dtype=str), error_index=error_index,
                 error_name=error_name, **data)


class SpanTable:
    """Read-side view of a tracer's spans with durations and self times."""

    def __init__(self, tracer: Tracer):
        data = tracer.arrays()
        self.tracer = tracer
        self.name_id = data["name_id"]
        self.group = data["group"]
        self.parent = data["parent"]
        self.duration = data["end"] - data["start"]
        has_parent = self.parent >= 0
        child_time = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent], minlength=len(self.duration)
        )
        # Children run nested and one after another, so the part of a span
        # they cover is the sum of their durations.
        self.self_time = self.duration - child_time
        self.is_root = ~has_parent

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.tracer._ids[n] for n in names if n in self.tracer._ids]
        return np.isin(self.name_id, ids)

    def layer_mask(self, layer: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.tracer.names) if n.split(".", 1)[0] == layer]
        return np.isin(self.name_id, ids)

    def count(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def groups_with(self, name: str) -> np.ndarray:
        return np.unique(self.group[self.mask(name)])

    def in_groups(self, groups: np.ndarray) -> np.ndarray:
        return np.isin(self.group, groups) & (self.group > 0)

    def errors_of(self, name: str, error: str) -> int:
        wanted = self.tracer._ids.get(name)
        return sum(
            1 for index, kind in self.tracer.errors.items()
            if kind == error and self.name_id[index] == wanted
        )


def _on_return_for(name: str):
    """Values kept from return values, for ratios measured at the boundary."""
    if name == "mpc.solve_ocp":
        return lambda sol: (int(sol.iterations), bool(sol.feasible))
    if name == "terminal.evaluate_level":
        return lambda report: bool(report["passed"])
    return None


def _package_modules(package: str):
    prefix = package + "."
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(prefix))
    ]


def install(tracer: Tracer, package: str = "so3mpc"):
    """Wrap the traced functions and methods; return an undo callable."""
    modules = {name: importlib.import_module(f"{package}.{name}") for name in LAYER_MODULES}
    # Keyed by the id of the original function, which stays alive in its
    # module and in the wrapper's closure.
    wrappers: dict[int, object] = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            wrappers[id(obj)] = tracer.wrap(name, obj, _on_return_for(name))
    for layer, attr in EXTRA_FUNCTIONS:
        obj = getattr(modules[layer], attr)
        wrappers[id(obj)] = tracer.wrap(f"{layer}.{attr}", obj)

    undo: list[tuple[object, str, object]] = []
    for module in _package_modules(package):
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                undo.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    for layer, cls_name in TRACED_CLASSES:
        cls = getattr(modules[layer], cls_name)
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if not inspect.isfunction(fn) or getattr(fn, "__isabstractmethod__", False):
                continue
            wrapped = tracer.wrap(f"{layer}.{cls_name}.{attr}", fn)
            undo.append((cls, attr, raw))
            setattr(cls, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)

    def uninstall():
        for owner, attr, obj in reversed(undo):
            setattr(owner, attr, obj)

    return uninstall


def span_cost_seconds(repeats: int = 20000) -> float:
    """Added cost of one traced call, measured on a wrapped no-op."""

    def noop():
        return None

    best = np.inf
    for _ in range(5):
        wrapped = Tracer().wrap("calibration.noop", noop)
        t0 = time.perf_counter()
        for _ in range(repeats):
            noop()
        plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(repeats):
            wrapped()
        traced = time.perf_counter() - t0
        best = min(best, (traced - plain) / repeats)
    return max(best, 0.0)


IO_SPANS = (
    "experiments.write_trajectory_csv",
    "experiments.write_diagnostics_csv",
    "experiments.write_snapshot_csv",
    "experiments.ExperimentReport.save",
    "terminal.TerminalDesign.save",
    "terminal.TerminalDesign.load",
    "cli._write_summary",
)
STEP = "lgvi.step_with_margin"
SOLVE = "mpc.solve_ocp"
LEVEL = "terminal.evaluate_level"


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def per_layer_metrics(tracer: Tracer, wall_s: float, span_cost_s: float) -> dict:
    """Per-layer counts, busy and self times from one traced run.

    Values are ``(value, unit)`` pairs.  Layers a workload does not run
    report zero.
    """
    t = SpanTable(tracer)
    step = t.mask(STEP)
    solve = t.mask(SOLVE)
    level = t.mask(LEVEL)
    n_solves = int(solve.sum())
    in_solves = t.in_groups(t.groups_with(SOLVE))
    in_levels = t.in_groups(t.groups_with(LEVEL))
    terminal_cost = t.mask(
        "attitude.SpacecraftAttitudeSystem.terminal_cost", "flat.DoubleIntegratorSystem.terminal_cost"
    )
    solve_returns = tracer.returns.get(SOLVE, [])
    level_returns = tracer.returns.get(LEVEL, [])
    sample_evals = int((step & in_levels).sum())
    log = t.mask("so3.log_so3")
    dare = t.mask("terminal.solve_dare")

    def per_solve(mask) -> float:
        return float((mask & in_solves).sum()) / n_solves if n_solves else 0.0

    return {
        "lgvi.step.calls": (int(step.sum()), "count"),
        "lgvi.step.us_p50": (1e6 * _median(t.duration[step]), "us"),
        "lgvi.step.self_s": (float(t.self_time[step].sum()), "s"),
        "lgvi.step.not_solvable": (t.errors_of(STEP, "NotSolvable"), "count"),
        "mpc.solve.calls": (n_solves, "count"),
        "mpc.solve.ms_p50": (1e3 * _median(t.duration[solve]), "ms"),
        "mpc.solve.iters_mean": (
            float(np.mean([r[0] for r in solve_returns])) if solve_returns else 0.0, "count"
        ),
        "mpc.solve.rollouts_mean": (per_solve(terminal_cost), "count"),
        "mpc.solve.lgvi_steps_mean": (per_solve(step), "count"),
        "mpc.solve.self_s": (float(t.self_time[solve].sum()), "s"),
        "mpc.solve.feasible_frac": (
            float(np.mean([r[1] for r in solve_returns])) if solve_returns else 0.0, "ratio"
        ),
        "mpc.horizon_cost.calls": (t.count("mpc.horizon_cost"), "count"),
        "mpc.horizon_cost.busy_s": (float(t.duration[t.mask("mpc.horizon_cost")].sum()), "s"),
        "so3.log_so3.calls": (int(log.sum()), "count"),
        "so3.log_so3.us_p50": (1e6 * _median(t.duration[log]), "us"),
        "so3.exp_so3.calls": (t.count("so3.exp_so3"), "count"),
        "so3.self_s": (float(t.self_time[t.layer_mask("so3")].sum()), "s"),
        "attitude.stage_cost.calls": (t.count("attitude.SpacecraftAttitudeSystem.stage_cost"), "count"),
        "attitude.terminal_cost.calls": (t.count("attitude.SpacecraftAttitudeSystem.terminal_cost"), "count"),
        "attitude.self_s": (float(t.self_time[t.layer_mask("attitude")].sum()), "s"),
        "terminal.solve_dare.ms": (1e3 * _median(t.duration[dare]), "ms"),
        "terminal.evaluate_level.calls": (int(level.sum()), "count"),
        "terminal.evaluate_level.pass_frac": (
            float(np.mean(level_returns)) if level_returns else 0.0, "ratio"
        ),
        "terminal.evaluate_level.busy_s": (float(t.duration[level].sum()), "s"),
        "terminal.sample_evals": (sample_evals, "count"),
        "terminal.sample_eval.us": (
            1e6 * float(t.duration[level].sum()) / sample_evals if sample_evals else 0.0, "us"
        ),
        "cli.io_s": (float(t.duration[t.mask(*IO_SPANS)].sum()), "s"),
        "trace.spans": (len(tracer), "count"),
        "trace.overhead_frac": (len(tracer) * span_cost_s / wall_s if wall_s > 0 else 0.0, "ratio"),
    }


def check_spans(tracer: Tracer) -> list[str]:
    """Consistency of the recorded spans: every span closed inside its
    parent, and self times partition the root spans' durations."""
    t = SpanTable(tracer)
    data = tracer.arrays()
    problems = []
    if np.any(data["end"] < data["start"]):
        problems.append("a span ends before it starts")
    has_parent = t.parent >= 0
    parents = t.parent[has_parent]
    if np.any(data["start"][has_parent] < data["start"][parents]) or np.any(
        data["end"][has_parent] > data["end"][parents]
    ):
        problems.append("a span is not nested inside its parent")
    if np.any(t.self_time < -1e-9):
        problems.append("a span has negative self time")
    root_total = float(t.duration[t.is_root].sum())
    if abs(float(t.self_time.sum()) - root_total) > 1e-6 * max(1.0, root_total):
        problems.append("self times do not add up to the root spans' durations")
    return problems
