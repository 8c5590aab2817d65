"""Span tracer that times calls into batchbandit's public functions from outside.

The tracer replaces module attributes that callers look up at call time
(for example `batchbandit.dp.loss_profile` or `batchbandit.cli.save_strategy`)
with timing wrappers, records spans in memory and puts every original back
on `restore()`.  Nothing inside the package is edited.

A span is `[name, start, end, parent, pass_id, child_s, agg, info]`: the
layer name, perf_counter start and end, the index of the enclosing span,
the workload pass, the time covered by child calls, aggregated hot calls
and config-derived facts needed for computed work counts.  Hot per-row
functions (about 80k calls per minimax_dp pass) are not recorded one by
one; each call adds a count, a total and a self time to the enclosing span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

from batchbandit import core


def _lattice(eps, grid) -> dict:
    return {"epsilon": float(eps), "u_max": float(grid.u_max), "du": float(grid.du)}


# layer name -> (module, attribute path, hot, info extractor over bound arguments)
TARGETS = {
    "core.loss_profile": ("batchbandit.core", "loss_profile", True, None),
    "core.gaussian_kernel": ("batchbandit.core", "gaussian_kernel", True, None),
    "core.convolve": ("batchbandit.core", "convolve_zero_padded", True, None),
    "dp.solve": (
        "batchbandit.dp", "solve_invariant", False,
        lambda a: _lattice(a["config"].epsilon, a["config"].grid),
    ),
    "pde.solve": (
        "batchbandit.pde", "solve_pde", False,
        lambda a: _lattice(a["config"].epsilon, a["config"].grid),
    ),
    "strategy_eval.evaluate": (
        "batchbandit.strategy_eval", "evaluate", False,
        lambda a: _lattice(a["strategy"].epsilon, a["strategy"].grid),
    ),
    "strategy_eval.from_table": (
        "batchbandit.strategy_eval", "EvalStrategy.from_table", False, None,
    ),
    "search.scan": ("batchbandit.search", "scan", False, None),
    "search.refine": ("batchbandit.search", "refine", False, None),
    "search.saddle_check": ("batchbandit.search", "saddle_check", False, None),
    "simulate.bernoulli": (
        "batchbandit.simulate", "simulate_bernoulli", False,
        lambda a: {"replications": a["cfg"].replications, "n_packets": a["cfg"].n_packets},
    ),
    "simulate.gaussian": (
        "batchbandit.simulate", "simulate_gaussian", False,
        lambda a: {"replications": a["replications"], "n_packets": a["n_packets"]},
    ),
    "strategy_io.save": ("batchbandit.strategy_io", "save_strategy", False, None),
    "strategy_io.load": ("batchbandit.strategy_io", "load_strategy", False, None),
    "cli.main": ("batchbandit.cli", "main", False, None),
}

NAME, START, END, PARENT, PASS, CHILD_S, AGG, INFO = range(8)


class Tracer:
    """Wraps the TARGETS while installed; use as a context manager."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.pass_id = None
        self._current = None  # index of the innermost recorded span
        self._stack: list[list[float]] = []  # child-time accumulators, innermost last
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def install(self) -> None:
        for layer, (module_name, path, hot, info) in self.targets.items():
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(layer)
                continue
            if isinstance(raw, classmethod):
                # callers reach a classmethod through its class only
                wrapped = classmethod(self._wrap(layer, raw.__func__, hot, info))
                self._patch(owner, attr, raw, wrapped)
                continue
            wrapped = self._wrap(layer, raw, hot, info)
            # patch every package module that imported the function by name
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "batchbandit" or mod_name.startswith("batchbandit."):
                    for name, value in list(vars(mod).items()):
                        if value is raw:
                            self._patch(mod, name, raw, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, wrapped) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def root(self, name: str, pass_id):
        """Context manager for the span of one workload pass."""
        self.pass_id = pass_id
        return _Root(self, name)

    def _open(self, name: str, info) -> tuple[int, list[float], object]:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._current, self.pass_id, 0.0, {}, info])
        frame = [0.0]
        self._stack.append(frame)
        prev, self._current = self._current, idx
        self.spans[idx][START] = time.perf_counter()
        return idx, frame, prev

    def _close(self, idx: int, frame: list[float], prev) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span[END] = end
        span[CHILD_S] = frame[0]
        self._stack.pop()
        self._current = prev
        if self._stack:
            self._stack[-1][0] += end - span[START]

    def _wrap(self, layer, fn, hot, info):
        tracer = self
        if hot:

            @functools.wraps(fn)
            def hot_wrapper(*args, **kwargs):
                stack = tracer._stack
                frame = [0.0]
                stack.append(frame)
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = time.perf_counter() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += dur
                    if tracer._current is not None:
                        agg = tracer.spans[tracer._current][AGG]
                        entry = agg.get(layer)
                        if entry is None:
                            agg[layer] = [1, dur, dur - frame[0]]
                        else:
                            entry[0] += 1
                            entry[1] += dur
                            entry[2] += dur - frame[0]

            return hot_wrapper

        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            facts = None
            if info is not None and signature is not None:
                try:
                    facts = info(signature.bind(*args, **kwargs).arguments)
                except (TypeError, KeyError, AttributeError):
                    facts = None  # reported as an unknown computed count
            idx, frame, prev = tracer._open(layer, facts)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx, frame, prev)

        return wrapper


class _Root:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.state = self.tracer._open(self.name, None)
        return self

    def __exit__(self, *exc):
        self.tracer._close(*self.state)
        return False


@functools.lru_cache(maxsize=None)
def _sweep_counts(epsilon: float, u_max: float, du: float, with_macs: bool):
    """(rows, cells, convolution MACs) of one backward sweep at this config,
    computed through public core functions; MACs only when asked, since they
    cost one kernel build per distinct transition variance."""
    grid = core.UGrid(u_max, du)
    P = round(1.0 / epsilon)
    rows = sum(K + 1 for K in range(2, P))  # diagonals K = 2 .. P - 1
    macs = 0
    # reads 0 once a refactor removes gaussian_kernel, like any absent layer
    if with_macs and hasattr(core, "gaussian_kernel"):
        taps = {}
        for K in range(2, P):
            for k1 in range(K + 1):
                for action in (1, 2):
                    var = core.transition_variance(epsilon, k1 * epsilon, (K - k1) * epsilon, action)
                    if var not in taps:
                        taps[var] = core.gaussian_kernel(var, grid).size
                    macs += grid.n_points * taps[var]
    return rows, rows * grid.n_points, macs


def _sum_counts(spans, layer: str, with_macs: bool) -> list[int]:
    totals = [0, 0, 0]
    for s in spans:
        if s[NAME] == layer and s[INFO] is not None:
            info = s[INFO]
            counts = _sweep_counts(info["epsilon"], info["u_max"], info["du"], with_macs)
            totals = [a + b for a, b in zip(totals, counts)]
    return totals


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def pass_metrics(spans: list[list], pass_id: int, file_bytes: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass and each module's share of it.

    Layers that were never called (or are absent) read 0.  Work counts named
    `computed` come from the configs the spans saw, not from the program.
    """
    idx = [i for i, s in enumerate(spans) if s[PASS] == pass_id]
    mine = [spans[i] for i in idx]

    def under(i, name):
        p = spans[i][PARENT]
        while p is not None:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    def calls(name):
        return sum(1 for s in mine if s[NAME] == name)

    def busy(name):
        return sum(spans[i][END] - spans[i][START] for i in idx
                   if spans[i][NAME] == name and not under(i, name))

    def self_s(name):
        return sum(s[END] - s[START] - s[CHILD_S] for s in mine if s[NAME] == name)

    def hot(name, k):
        return sum(s[AGG][name][k] for s in mine if name in s[AGG])

    dp_rows, _, dp_macs = _sum_counts(mine, "dp.solve", True)
    ev_rows, _, ev_macs = _sum_counts(mine, "strategy_eval.evaluate", True)
    _, pde_cells, _ = _sum_counts(mine, "pde.solve", False)
    pde_bytes = 16 * pde_cells  # one f64 read of the successor, one f64 write per cell
    rep_steps = sum(s[INFO]["replications"] * s[INFO]["n_packets"] for s in mine
                    if s[NAME].startswith("simulate.") and s[INFO] is not None)
    sim_busy = busy("simulate.bernoulli") + busy("simulate.gaussian")
    pass_s = sum(s[END] - s[START] for s in mine if s[PARENT] is None)

    m = {
        "core.loss_profile.calls": hot("core.loss_profile", 0),
        "core.loss_profile.self_s": hot("core.loss_profile", 2),
        "core.gaussian_kernel.calls": hot("core.gaussian_kernel", 0),
        "core.gaussian_kernel.self_s": hot("core.gaussian_kernel", 2),
        "core.convolve.calls": hot("core.convolve", 0),
        "core.convolve.self_s": hot("core.convolve", 2),
        "core.convolve.computed_macs": dp_macs + ev_macs,
        "dp.solve.calls": calls("dp.solve"),
        "dp.solve.self_s": self_s("dp.solve"),
        "dp.rows": dp_rows,
        "dp.us_per_row": _ratio(busy("dp.solve"), dp_rows, 1e6),
        "pde.solve.calls": calls("pde.solve"),
        "pde.solve.busy_s": busy("pde.solve"),
        "pde.cells": pde_cells,
        "pde.ns_per_cell": _ratio(busy("pde.solve"), pde_cells, 1e9),
        "pde.computed_bytes": pde_bytes,
        "pde.computed_gb_per_s": _ratio(pde_bytes, busy("pde.solve"), 1e-9),
        "strategy_eval.evaluate.calls": calls("strategy_eval.evaluate"),
        "strategy_eval.evaluate.self_s": self_s("strategy_eval.evaluate"),
        "strategy_eval.us_per_row": _ratio(busy("strategy_eval.evaluate"), ev_rows, 1e6),
        "strategy_eval.from_table.busy_s": busy("strategy_eval.from_table"),
        "search.scan.busy_s": busy("search.scan"),
        "search.refine.busy_s": busy("search.refine"),
        "search.refine.evaluations": sum(
            1 for i in idx
            if spans[i][NAME] in ("dp.solve", "pde.solve") and under(i, "search.refine")
        ),
        "search.saddle_check.busy_s": busy("search.saddle_check"),
        "search.self_s": sum(
            self_s(n) for n in ("search.scan", "search.refine", "search.saddle_check")
        ),
        "simulate.bernoulli.busy_s": busy("simulate.bernoulli"),
        "simulate.gaussian.busy_s": busy("simulate.gaussian"),
        "simulate.ns_per_rep_step": _ratio(sim_busy, rep_steps, 1e9),
        "strategy_io.save.busy_s": busy("strategy_io.save"),
        "strategy_io.load.busy_s": busy("strategy_io.load"),
        "strategy_io.file_bytes": file_bytes,
        "cli.self_s": self_s("cli.main"),
    }
    shares = {
        "dp": busy("dp.solve"),
        "pde": busy("pde.solve"),
        "strategy_eval": busy("strategy_eval.evaluate") + busy("strategy_eval.from_table"),
        "simulate": sim_busy,
        "strategy_io": busy("strategy_io.save") + busy("strategy_io.load"),
    }
    return m, {k: _ratio(v, pass_s) for k, v in shares.items()}
