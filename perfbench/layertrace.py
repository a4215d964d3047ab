"""Outside-in layer tracing for the benchmark.

Nothing here touches the program's source.  A :class:`Tracer` installs
timing wrappers on

* scipy's linear-solver and ``quad`` entry points (call
  :meth:`Tracer.install_scipy` before ``plaplab`` is imported, so that its
  ``from``-imports bind the wrappers),
* the public functions in :data:`PLAPLAB_FUNCTIONS`, rebound in every
  ``plaplab.*`` namespace that holds them,
* the ``problem`` argument of ``minimize.minimize_newton``, through a proxy
  that times ``newton_step``, ``gradient`` and ``objective``.

Every wrapped call records a span (id, parent, name, thread, start, end);
spans stay in memory until :meth:`Tracer.layer_metrics` turns them into
the per-layer metrics.  ``plaplab rate`` runs its sweep rows on a thread
pool, so spans and counters are appended under a lock and the parent of a
span opened on a pool thread is the open ``cli.main`` span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

#: scipy linear-algebra entry points: the sparse solve the 2D solver uses,
#: and the banded ones of the 1D solver and of a banded Cholesky Newton
#: solve.  A "solve" returns a solution and is counted as a call, a
#: "factor" only adds its time.  A call is charged to ``solver`` when a 2D
#: solver span encloses it, else to ``ode1d``.
LINEAR_ENTRY_POINTS = {
    "scipy.sparse.linalg": {"spsolve": "solve"},
    "scipy.linalg": {"solve_banded": "solve", "solveh_banded": "solve",
                     "cho_solve_banded": "solve", "cholesky_banded": "factor"},
}

#: (module, function) -> span name; several functions may share a name
PLAPLAB_FUNCTIONS = {
    ("plaplab.cli", "main"): "cli.main",
    ("plaplab.solver", "solve_dirichlet"): "solver.solve_dirichlet",
    ("plaplab.solver", "solve_blowup"): "solver.solve_blowup",
    ("plaplab.minimize", "minimize_newton"): "minimize.minimize_newton",
    ("plaplab.asymptotics", "measure_row"): "asymptotics.measure_row",
    ("plaplab.asymptotics", "fit_rate"): "asymptotics.fit_rate",
    ("plaplab.asymptotics", "verify_comparison"): "asymptotics.verify",
    ("plaplab.asymptotics", "verify_monotone_in_ell"): "asymptotics.verify",
    ("plaplab.asymptotics", "verify_barrier"): "asymptotics.verify",
    ("plaplab.asymptotics", "verify_caccioppoli"): "asymptotics.verify",
    ("plaplab.ode1d", "solve_cross_finite"): "ode1d.solve_cross",
    ("plaplab.ode1d", "solve_cross_large"): "ode1d.solve_cross",
    ("plaplab.ode1d", "solve_large_1d"): "ode1d.solve_large_1d",
    ("plaplab.ode1d", "blowup_radius"): "ode1d.blowup_radius",
    ("plaplab.nonlinearity", "psi_p"): "nonlinearity.psi_p",
    ("plaplab.nonlinearity", "check_a1"): "nonlinearity.check_a1",
    ("plaplab.nonlinearity", "check_a2"): "nonlinearity.check_a2",
    ("plaplab.quadrature", "panel_quad"): "quadrature.panel_quad",
    ("plaplab.quadrature", "integrate_to_infinity"):
        "quadrature.integrate_to_infinity",
    ("plaplab.grid", "lp_norm_gradient"): "grid.lp_norm_gradient",
    ("plaplab.grid", "embed_cross_section"): "grid.embed_cross_section",
}

#: per-layer metrics reported by a traced run, with their units
LAYER_METRICS = {
    "solver.linsolve.calls": "count",
    "solver.linsolve.s": "s",
    "solver.newton_step.calls": "count",
    "solver.newton_step.s": "s",
    "solver.assembly_s": "s",
    "solver.gradient.calls": "count",
    "solver.gradient.s": "s",
    "solver.objective.calls": "count",
    "solver.objective.s": "s",
    "solver.newton_dofs": "count",
    "solver.solve_dirichlet.calls": "count",
    "solver.solve_blowup.calls": "count",
    "minimize.newton_steps": "count",
    "minimize.backtracks": "count",
    "minimize.stages": "count",
    "minimize.self_s": "s",
    "asymptotics.measure_row.calls": "count",
    "asymptotics.floor_resolve.s": "s",
    "asymptotics.fit_rate.s": "s",
    "asymptotics.verify.s": "s",
    "ode1d.solve_cross.calls": "count",
    "ode1d.solve_cross.s": "s",
    "ode1d.solve_large_1d.calls": "count",
    "ode1d.solve_large_1d.s": "s",
    "ode1d.blowup_radius.calls": "count",
    "nonlinearity.psi_p.calls": "count",
    "nonlinearity.psi_p.s": "s",
    "nonlinearity.check_a1.calls": "count",
    "nonlinearity.check_a1.s": "s",
    "nonlinearity.check_a2.s": "s",
    "quadrature.panels": "count",
    "quadrature.panel_quad.s": "s",
    "quadrature.integrate_to_infinity.calls": "count",
    "scipy.quad.calls": "count",
    "grid.lp_norm_gradient.calls": "count",
    "grid.lp_norm_gradient.s": "s",
    "grid.embed_cross_section.s": "s",
    "cli.self_s": "s",
}

#: counters that must be identical between two traced runs of one seed
EXACT_COUNTERS = ("minimize.newton_steps", "solver.linsolve.calls",
                  "quadrature.panels", "nonlinearity.check_a1.calls")


class _ProblemProxy:
    """Stands in for the ``problem`` of one ``minimize_newton`` call.

    Times the three callbacks and counts backtracks: after a Newton step
    the driver evaluates the objective once at the iterate and once per
    line-search trial, so every objective call beyond the second before
    the next gradient is a backtrack.
    """

    def __init__(self, tracer, problem):
        self._tracer = tracer
        self._problem = problem
        self._layer = type(problem).__module__.rsplit(".", 1)[-1]
        self._nfree = int(np.count_nonzero(problem.free))
        self._objective_calls = None
        self.backtracks = 0

    def __getattr__(self, name):
        return getattr(self._problem, name)

    def close_step(self):
        if self._objective_calls is not None:
            self.backtracks += max(0, self._objective_calls - 2)
            self._objective_calls = None

    def newton_step(self, u, eps, grad):
        self.close_step()
        self._objective_calls = 0
        self._tracer.count(f"{self._layer}.newton_dofs", self._nfree)
        with self._tracer.span(f"{self._layer}.newton_step"):
            return self._problem.newton_step(u, eps, grad)

    def gradient(self, u, eps):
        self.close_step()
        with self._tracer.span(f"{self._layer}.gradient"):
            return self._problem.gradient(u, eps)

    def objective(self, u, eps):
        if self._objective_calls is not None:
            self._objective_calls += 1
        with self._tracer.span(f"{self._layer}.objective"):
            return self._problem.objective(u, eps)


class Tracer:
    """Spans and counters recorded by wrappers around the program's calls."""

    def __init__(self):
        self.spans = []        # (id, parent, name, thread, start, end)
        self.counters = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._root = None      # open cli.main span: parent for pool threads
        self._patched = []     # (owner, attribute, original)
        self._originals = {}   # id(wrapper) -> (wrapper, original)

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name):
        return _Span(self, name)

    def count(self, key, n):
        with self._lock:
            self.counters[key] += n

    def wrap(self, name, fn, name_for=None):
        """Wrapper of ``fn`` that records a span per call.

        ``name_for(args, kwargs)`` may pick the span name per call.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name_for(args, kwargs) if name_for else name
            with self.span(label):
                return fn(*args, **kwargs)
        self._originals[id(wrapper)] = (wrapper, fn)
        return wrapper

    def _wrap_linear(self, fn, kind):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1].startswith("linsolve:"):
                return fn(*args, **kwargs)  # nested inside another entry
            with self.span(f"linsolve:{kind}"):
                return fn(*args, **kwargs)
        self._originals[id(wrapper)] = (wrapper, fn)
        return wrapper

    def _wrap_minimize(self, fn):
        @functools.wraps(fn)
        def wrapper(problem, *args, **kwargs):
            proxy = _ProblemProxy(self, problem)
            try:
                with self.span("minimize.minimize_newton"):
                    u, stages, info = fn(proxy, *args, **kwargs)
            finally:
                proxy.close_step()
                self.count("minimize.backtracks", proxy.backtracks)
            self.count("minimize.stages", len(stages))
            return u, stages, info
        self._originals[id(wrapper)] = (wrapper, fn)
        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attribute, wrapper):
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def _rebind_everywhere(self, original, wrapper):
        """Point every loaded ``plaplab.*`` name bound to ``original`` at
        ``wrapper``."""
        for module in _plaplab_modules():
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, wrapper)

    def install_scipy(self):
        """Wrap scipy's linear solvers and ``quad``."""
        for module_name, entries in LINEAR_ENTRY_POINTS.items():
            module = importlib.import_module(module_name)
            for attribute, kind in entries.items():
                original = getattr(module, attribute, None)
                if original is None:
                    continue
                wrapper = self._wrap_linear(original, kind)
                self._patch(module, attribute, wrapper)
                self._rebind_everywhere(original, wrapper)
        integrate = importlib.import_module("scipy.integrate")
        original = integrate.quad
        wrapper = self.wrap("scipy.quad", original)
        self._patch(integrate, "quad", wrapper)
        self._rebind_everywhere(original, wrapper)

    def install_plaplab(self):
        """Wrap the public functions of :data:`PLAPLAB_FUNCTIONS`."""
        for (module_name, attribute), name in PLAPLAB_FUNCTIONS.items():
            original = getattr(importlib.import_module(module_name), attribute)
            if name == "minimize.minimize_newton":
                wrapper = self._wrap_minimize(original)
            elif name == "asymptotics.measure_row":
                wrapper = self.wrap(name, original, _measure_row_name)
            else:
                wrapper = self.wrap(name, original)
            self._rebind_everywhere(original, wrapper)

    def restore(self):
        """Undo every patch, including ``from``-imports of wrappers that
        modules made after installation."""
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()
        for module in _plaplab_modules():
            for attribute, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attribute, entry[1])
        self._originals.clear()

    def write_spans(self, path):
        """Write the spans as JSON lines (id, parent, name, thread, start,
        end), times in seconds from the first span."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for sid, parent, name, thread, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "thread": thread,
                                     "start": start - origin,
                                     "end": end - origin}) + "\n")

    # -- aggregation ---------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics (see :data:`LAYER_METRICS`) from the spans."""
        calls = Counter()
        seconds = defaultdict(float)
        by_id = {}
        children = defaultdict(list)
        for span in self.spans:
            sid, parent, name, _, start, end = span
            by_id[sid] = span
            children[parent].append((start, end))
        for sid, parent, name, _, start, end in self.spans:
            if name.startswith("linsolve:"):
                layer = "solver" if _has_ancestor(by_id, parent, "solver.") \
                    else "ode1d"
                if name == "linsolve:solve":
                    calls[f"{layer}.linsolve"] += 1
                if _has_ancestor(by_id, parent, "solver.newton_step"):
                    seconds["solver.linsolve_in_step"] += end - start
                name = f"{layer}.linsolve"
            else:
                calls[name] += 1
            seconds[name] += end - start

        def self_time(name):
            return sum(end - start - _covered(children[sid], start, end)
                       for sid, _, n, _, start, end in self.spans
                       if n == name)

        c = self.counters
        out = {
            "solver.assembly_s": seconds["solver.newton_step"]
            - seconds["solver.linsolve_in_step"],
            "solver.newton_dofs": c["solver.newton_dofs"],
            "minimize.newton_steps": calls["solver.newton_step"]
            + calls["ode1d.newton_step"],
            "minimize.backtracks": c["minimize.backtracks"],
            "minimize.stages": c["minimize.stages"],
            "minimize.self_s": self_time("minimize.minimize_newton"),
            "asymptotics.measure_row.calls": calls["asymptotics.measure_row"]
            + calls["asymptotics.floor_resolve"],
            "quadrature.panels": calls["quadrature.panel_quad"],
            "cli.self_s": self_time("cli.main"),
        }
        for metric in LAYER_METRICS:
            if metric in out:
                continue
            name, _, field = metric.rpartition(".")
            out[metric] = calls[name] if field == "calls" else seconds[name]
        return out


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack()
        self.sid = next(tracer._ids)
        self.parent = stack[-1][0] if stack else tracer._root
        if self.name == "cli.main" and not stack:
            tracer._root = self.sid
        stack.append((self.sid, self.name))
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack().pop()
        if tracer._root == self.sid:
            tracer._root = None
        with tracer._lock:
            tracer.spans.append((self.sid, self.parent, self.name,
                                 threading.get_ident(), self.start, end))
        return False


def _plaplab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "plaplab"
                                  or name.startswith("plaplab."))]


def _measure_row_name(args, kwargs):
    """``measure_row(spec, ell, ny)`` with ``ny`` other than the sweep's own
    is the doubled-resolution floor re-solve."""
    spec = args[0] if args else kwargs["spec"]
    ny = args[2] if len(args) > 2 else kwargs.get("ny")
    if ny and ny != spec.ny:
        return "asymptotics.floor_resolve"
    return "asymptotics.measure_row"


def _has_ancestor(by_id, sid, prefix):
    while sid is not None and sid in by_id:
        if by_id[sid][2].startswith(prefix):
            return True
        sid = by_id[sid][1]
    return False


def _covered(intervals, start, end):
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total
