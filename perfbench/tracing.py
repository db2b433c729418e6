"""Spans around the calls into each module of photon_resonance.

A traced solve replaces, for its own process only, the names through which
the package's modules call each other: the special functions where
``greens`` and ``nystrom`` look them up, the operator assembly, the row
quadrature and interpolation of a rule, the eigensolves, the root finders
and ``cli.run``.  Every call through a wrapped name records one span
(name, start, end, parent, points) in memory; all spans of one solve carry
the same solve identifier and are written out once the solve has ended.

A name that a later version of the package no longer has is listed in
``Tracer.missing``; the metrics of the layers that need it read ``None``
and the run still finishes.  Untraced solves install nothing.
"""

import functools
import importlib
import json
from time import perf_counter

import numpy as np

# (module of photon_resonance, attribute path, span name)
HOOKS = (
    ("greens", "exp_integral_e1", "specfun.e1"),
    ("greens", "struve_k0", "specfun.struve"),
    ("greens", "_h0", "specfun.bessel"),
    ("nystrom", "_jy0", "specfun.bessel"),
    ("nystrom", "_h0", "specfun.bessel"),
    ("nystrom", "_struve_h0_series", "specfun.struve"),
    ("nystrom", "build_kernel_matrix", "nystrom.build"),
    ("nystrom", "QuadratureRule.row_quadrature", "nystrom.row_quadrature"),
    ("nystrom", "QuadratureRule.interp_matrix", "nystrom.interp"),
    ("eigensolver", "muller_solve", "eigensolver.muller"),
    ("eigensolver", "characteristic_value", "eigensolver.eig"),
    ("eigensolver", "_smallest_eigenpair", "eigensolver.eig"),
    ("boundstates", "solve_bound_state", "boundstates.solve"),
    ("boundstates", "build_bs_operator", "boundstates.build"),
    ("boundstates", "mu_spectrum", "boundstates.eig"),
    ("cli", "run", "cli.run"),
)

# spans recorded from inside another hook rather than from a module name
DERIVED = {"greens.kernel": "nystrom.build", "nystrom.smooth": "nystrom.build",
           "eigensolver.f": "eigensolver.muller"}

SPECFUN = ("specfun.e1", "specfun.bessel", "specfun.struve")

# per-layer metrics: name -> (unit, better, span names it is computed from)
PER_LAYER = {
    "specfun.e1.points": ("count", "lower", ("specfun.e1",)),
    "specfun.e1.s": ("s", "lower", ("specfun.e1",)),
    "specfun.bessel.points": ("count", "lower", ("specfun.bessel",)),
    "specfun.bessel.s": ("s", "lower", ("specfun.bessel",)),
    "specfun.struve.points": ("count", "lower", ("specfun.struve",)),
    "specfun.struve.s": ("s", "lower", ("specfun.struve",)),
    "specfun.calls": ("count", "lower", SPECFUN),
    "greens.kernel.points": ("count", "lower", ("greens.kernel",)),
    "greens.kernel.s": ("s", "lower", ("greens.kernel",)),
    "greens.kernel.self_s": ("s", "lower", ("greens.kernel",) + SPECFUN),
    "nystrom.builds": ("count", "lower", ("nystrom.build",)),
    "nystrom.rules": ("count", "lower", ("nystrom.build",)),
    "nystrom.points_per_build": ("count", "lower", ("nystrom.build", "greens.kernel")),
    "nystrom.build.s": ("s", "lower", ("nystrom.build",)),
    "nystrom.self_s": ("s", "lower", ("nystrom.build", "nystrom.row_quadrature",
                                      "nystrom.interp", "greens.kernel", "nystrom.smooth")),
    "nystrom.row_quadrature.calls": ("count", "lower", ("nystrom.row_quadrature",)),
    "nystrom.row_quadrature.hit_ratio": ("ratio", "higher", ("nystrom.row_quadrature",)),
    "nystrom.row_quadrature.s": ("s", "lower", ("nystrom.row_quadrature",)),
    "nystrom.interp.calls": ("count", "lower", ("nystrom.interp",)),
    "nystrom.interp.s": ("s", "lower", ("nystrom.interp",)),
    "nystrom.smooth.s": ("s", "lower", ("nystrom.smooth",)),
    "eigensolver.roots": ("count", "higher", ("eigensolver.muller",)),
    "eigensolver.f_evals": ("count", "lower", ("eigensolver.f",)),
    "eigensolver.builds_per_root": ("count", "lower", ("nystrom.build", "eigensolver.muller")),
    "eigensolver.eig.calls": ("count", "lower", ("eigensolver.eig",)),
    "eigensolver.eig.s": ("s", "lower", ("eigensolver.eig",)),
    "boundstates.mu_evals": ("count", "lower", ("boundstates.eig", "boundstates.solve")),
    "boundstates.builds_per_root": ("count", "lower", ("boundstates.build", "boundstates.solve")),
    "boundstates.eig.s": ("s", "lower", ("boundstates.eig",)),
    "cli.run.s": ("s", "lower", ("cli.run",)),
}


def _resolve(module, path):
    owner = importlib.import_module(f"photon_resonance.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """In-memory span recorder for one solve; install, run, uninstall."""

    def __init__(self, solve_id):
        self.solve_id = solve_id
        self.spans = []  # [name, start, end, parent index, points, tag]
        self.missing = []  # "module.attribute" names that could not be wrapped
        self._stack = []
        self._saved = []
        self._alive = {}  # rules seen, kept alive so that their ids stay distinct

    # -- recording -------------------------------------------------------

    def call(self, name, fn, args, kwargs, points=0, tag=None, outcome=None):
        stack = self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, points, tag]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            stack.pop()
        if outcome is not None:
            span[5] = outcome(result)
        return result

    def _rule_id(self, rule):
        self._alive[id(rule)] = rule
        return id(rule)

    def _wrapper(self, name, fn):
        call = self.call
        if name in SPECFUN:
            def traced(z, *args, **kwargs):
                return call(name, fn, (z, *args), kwargs, points=int(np.size(z)))
        elif name == "nystrom.row_quadrature":
            def traced(rule, r0, *args, **kwargs):
                return call(name, fn, (rule, r0, *args), kwargs,
                            tag=(self._rule_id(rule), float(r0)))
        elif name == "nystrom.interp":
            def traced(rule, t, *args, **kwargs):
                return call(name, fn, (rule, t, *args), kwargs, points=int(np.size(t)))
        elif name == "nystrom.build":
            def traced(rule, kernel, *args, **kwargs):
                args = list(args)
                if kwargs.get("smooth_kernel") is not None:
                    kwargs["smooth_kernel"] = self._smooth(kwargs["smooth_kernel"])
                elif len(args) > 1 and args[1] is not None:
                    args[1] = self._smooth(args[1])
                return call(name, fn, (rule, self._kernel(kernel), *args), kwargs,
                            tag=self._rule_id(rule))
        elif name == "eigensolver.muller":
            def traced(f, *args, **kwargs):
                def f_traced(w):
                    return call("eigensolver.f", f, (w,), {})
                return call(name, fn, (f_traced, *args), kwargs,
                            outcome=lambda res: bool(res.converged))
        elif name == "boundstates.solve":
            def traced(*args, **kwargs):
                return call(name, fn, args, kwargs, outcome=lambda res: True)
        else:
            def traced(*args, **kwargs):
                return call(name, fn, args, kwargs)
        return functools.wraps(fn)(traced)

    def _kernel(self, kernel):
        def traced(r0, t):
            return self.call("greens.kernel", kernel, (r0, t), {}, points=int(np.size(t)))
        return traced

    def _smooth(self, kernel):
        def traced(r, t):
            return self.call("nystrom.smooth", kernel, (r, t), {},
                             points=int(np.size(r) * np.size(t)))
        return traced

    # -- installing --------------------------------------------------------

    def install(self):
        for module, path, name in HOOKS:
            try:
                owner, attr, fn = _resolve(module, path)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{path}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrapper(name, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        self._alive.clear()

    # -- results -----------------------------------------------------------

    def missing_spans(self):
        """Span names some hook of which could not be installed."""
        lost = {name for module, path, name in HOOKS
                if f"{module}.{path}" in self.missing}
        return lost | {d for d, via in DERIVED.items() if via in lost}

    def layer_metrics(self):
        return layer_metrics(self.spans, self.missing_spans())

    def write(self, path):
        rows = [{"solve": self.solve_id, "name": s[0], "start": s[1], "end": s[2],
                 "parent": s[3], "points": s[4]} for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"solve": self.solve_id, "missing": self.missing, "spans": rows}, fh)


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            covered[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


def layer_metrics(spans, missing=()):
    """Per-layer figures of one traced solve; None where a hook is missing."""
    own = self_times(spans)
    calls, total, self_s, points = {}, {}, {}, {}
    for s, own_s in zip(spans, own):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (s[2] - s[1])
        self_s[name] = self_s.get(name, 0.0) + own_s
        points[name] = points.get(name, 0) + s[4]

    def inside(i, ancestor):
        while spans[i][3] >= 0:
            i = spans[i][3]
            if spans[i][0] == ancestor:
                return True
        return False

    def ratio(num, den):
        return num / den if den else 0.0

    n = calls.get
    quad = [s[5] for s in spans if s[0] == "nystrom.row_quadrature"]
    roots = sum(1 for s in spans if s[0] == "eigensolver.muller" and s[5])
    bound_roots = sum(1 for s in spans if s[0] == "boundstates.solve" and s[5])
    values = {
        "specfun.e1.points": points.get("specfun.e1", 0),
        "specfun.e1.s": total.get("specfun.e1", 0.0),
        "specfun.bessel.points": points.get("specfun.bessel", 0),
        "specfun.bessel.s": total.get("specfun.bessel", 0.0),
        "specfun.struve.points": points.get("specfun.struve", 0),
        "specfun.struve.s": total.get("specfun.struve", 0.0),
        "specfun.calls": sum(n(k, 0) for k in SPECFUN),
        "greens.kernel.points": points.get("greens.kernel", 0),
        "greens.kernel.s": total.get("greens.kernel", 0.0),
        "greens.kernel.self_s": self_s.get("greens.kernel", 0.0),
        "nystrom.builds": n("nystrom.build", 0),
        "nystrom.rules": len({s[5] for s in spans if s[0] == "nystrom.build"}),
        "nystrom.points_per_build": ratio(points.get("greens.kernel", 0), n("nystrom.build", 0)),
        "nystrom.build.s": total.get("nystrom.build", 0.0),
        "nystrom.self_s": self_s.get("nystrom.build", 0.0),
        "nystrom.row_quadrature.calls": len(quad),
        "nystrom.row_quadrature.hit_ratio": 1.0 - ratio(len(set(quad)), len(quad)) if quad else 0.0,
        "nystrom.row_quadrature.s": total.get("nystrom.row_quadrature", 0.0),
        "nystrom.interp.calls": n("nystrom.interp", 0),
        "nystrom.interp.s": total.get("nystrom.interp", 0.0),
        "nystrom.smooth.s": total.get("nystrom.smooth", 0.0),
        "eigensolver.roots": roots,
        "eigensolver.f_evals": n("eigensolver.f", 0),
        # every assembly the root finder caused, the limiting-operator seed included
        "eigensolver.builds_per_root": ratio(
            sum(1 for i, s in enumerate(spans)
                if s[0] == "nystrom.build" and not inside(i, "boundstates.build")), roots),
        "eigensolver.eig.calls": n("eigensolver.eig", 0),
        "eigensolver.eig.s": total.get("eigensolver.eig", 0.0),
        "boundstates.mu_evals": sum(1 for i, s in enumerate(spans)
                                    if s[0] == "boundstates.eig" and inside(i, "boundstates.solve")),
        "boundstates.builds_per_root": ratio(n("boundstates.build", 0), bound_roots),
        "boundstates.eig.s": total.get("boundstates.eig", 0.0),
        "cli.run.s": total.get("cli.run", 0.0),
    }
    return {k: None if set(PER_LAYER[k][2]) & set(missing) else v
            for k, v in values.items()}
