"""Spans around confsphere's public functions, installed from outside.

The tracer replaces each listed function in every ``confsphere.*`` module
namespace that binds it (``from .spectral import synthesize`` makes a copy
per importing module), so calls between modules are recorded as well as
calls from the benchmark.  Spans are kept in memory with their parent span
and written out when the run ends; nothing is written while ops are timed.

Self time of a span is its duration minus the time covered by its direct
child spans.  Spans are strictly nested because the program is single
threaded, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

#: the public functions the per-layer metrics are built from, by module
WRAPPED = {
    "spectral": (
        "quadrature_for_degree",
        "roots_jacobi",
        "circle_basis_matrix",
        "zonal_basis_matrix",
        "synthesize",
        "analyze",
        "min_on_grid",
    ),
    "gjms": ("multiplier_floats", "apply_operator", "green_series_values"),
    "functional": ("neg_power_integral", "functional_value", "gradient", "el_residual"),
    "mobius": ("pullback", "barycenter", "find_center", "recenter"),
    "extremize": ("minimize", "perturbation_sweep"),
    "stability": ("hessian_spectrum",),
    "polyident": ("check_identity_2_1", "check_delta_k_product"),
    "flatcheck": ("flat_energy_identity",),
}

#: functions whose distinct argument keys are counted (redundant rebuilds)
DISTINCT = (
    "spectral.quadrature_for_degree",
    "spectral.circle_basis_matrix",
    "spectral.zonal_basis_matrix",
    "gjms.multiplier_floats",
)

LABELS = tuple(f"{mod}.{name}" for mod, names in WRAPPED.items() for name in names)


def _freeze(value):
    """Hashable key for one argument; arrays are keyed by shape and bytes."""
    if isinstance(value, np.ndarray):
        return ("array", value.shape, value.dtype.str, hash(value.tobytes()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _transform_shape(label, args, kwargs):
    """(coefficients, points) of the matrix-vector product a transform does."""
    if label == "spectral.synthesize":
        u, points = args[0], args[1] if len(args) > 1 else kwargs["points"]
        return u.coeffs.size, int(np.size(points))
    rule = args[1] if len(args) > 1 else kwargs["rule"]
    degree = args[2] if len(args) > 2 else kwargs["degree"]
    coeffs = 2 * degree + 1 if rule.n == 1 else degree + 1
    return coeffs, rule.size


class Tracer:
    """In-memory span recorder, one per process; install() and uninstall() toggle it."""

    def __init__(self):
        # span: (label, parent index, op id, start, end, exception type or None)
        self.spans = []
        self.stack = []
        self.op_id = -1
        self.missing = []
        self.keys = defaultdict(set)
        self.flop = 0
        self.byte = 0
        self.accepted = 0
        self.terminations = Counter()
        self.centers_converged = 0
        self.nonpositive = {}
        self._bindings = []

    # -- installation -------------------------------------------------------

    def install(self):
        """Bind the wrappers; the first call finds every binding, later ones reuse them."""
        if not self._bindings:
            self._find_bindings()
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        return self

    def uninstall(self):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def _find_bindings(self):
        import confsphere  # noqa: F401

        for mod_name in WRAPPED:
            importlib.import_module(f"confsphere.{mod_name}")
        importlib.import_module("confsphere.cli")
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "confsphere"]
        for mod_name, names in WRAPPED.items():
            home = sys.modules[f"confsphere.{mod_name}"]
            for name in names:
                label = f"{mod_name}.{name}"
                original = getattr(home, name, None)
                if original is None:
                    self.missing.append(label)
                    continue
                wrapper = self._wrap(label, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._bindings.append((module, attr, original, wrapper))

    def _wrap(self, label, fn):
        spans, stack = self.spans, self.stack
        signature = None
        if label in DISTINCT:
            signature = inspect.signature(fn)
        keys = self.keys[label]
        transform = label in ("spectral.synthesize", "spectral.analyze")
        functional = label.startswith("functional.")
        from confsphere.errors import NonPositiveFunction

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                keys.add(tuple(_freeze(v) for v in bound.arguments.values()))
            if transform:
                c, p = _transform_shape(label, args, kwargs)
                self.flop += 2 * c * p
                self.byte += 8 * (c * p + c + 2 * p)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            error = None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                if functional and isinstance(exc, NonPositiveFunction):
                    self.nonpositive[id(exc)] = exc
                if label == "extremize.minimize":
                    self.terminations[f"raised_{type(exc).__name__}"] += 1
                raise
            finally:
                spans[index] = (label, parent, self.op_id, start, perf_counter(), error)
                stack.pop()
            if label == "extremize.minimize":
                self.accepted += result.iterations
                self.terminations[result.termination_reason] += 1
            elif label == "mobius.find_center":
                self.centers_converged += bool(result.converged)
            return result

        return wrapper

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict:
        """Additive aggregates; summaries of several processes are summed."""
        calls = Counter()
        total = Counter()
        child = [0.0] * len(self.spans)
        for label, parent, _, start, end, _ in self.spans:
            calls[label] += 1
            total[label] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = Counter()
        for i, (label, _, _, start, end, _) in enumerate(self.spans):
            self_s[label] += (end - start) - child[i]
        return {
            "missing": list(self.missing),
            "calls": dict(calls),
            "total_s": dict(total),
            "self_s": dict(self_s),
            "distinct": {label: len(self.keys[label]) for label in DISTINCT},
            "flop": self.flop,
            "byte": self.byte,
            "accepted": self.accepted,
            "candidates": self._line_search_candidates(),
            "terminations": dict(self.terminations),
            "centers_converged": self.centers_converged,
            "barycenter_in_find_center": self._children_of("mobius.find_center", "mobius.barycenter"),
            "nonpositive_raised": len(self.nonpositive),
        }

    def _children_of(self, parent_label, child_label) -> int:
        spans = self.spans
        return sum(
            1
            for label, parent, *_ in spans
            if label == child_label and parent >= 0 and spans[parent][0] == parent_label
        )

    def _line_search_candidates(self) -> int:
        """Candidate evaluations of the Armijo search, read from span parents.

        ``minimize`` synthesizes directly (not through ``gradient`` or
        ``barycenter``) twice for the initial iterate, once per line-search
        candidate, and once after each ``recenter`` to test the centered
        iterate.  Everything else is a candidate.
        """
        spans = self.spans
        children = defaultdict(list)
        for label, parent, *_ in spans:
            if parent >= 0 and spans[parent][0] == "extremize.minimize":
                children[parent].append(label)
        count = 0
        for labels in children.values():
            direct = 0
            after_recenter = 0
            for prev, label in zip([None] + labels, labels):
                if label == "spectral.synthesize":
                    direct += 1
                    after_recenter += prev == "mobius.recenter"
            count += max(direct - 2 - after_recenter, 0)
        return count

    def write(self, path):
        """Spans as JSON lines: label, parent, op id, start, end (s), exception."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def merge(summaries) -> dict:
    """Sum the additive summaries of several traced processes."""
    out = {"missing": sorted({m for s in summaries for m in s["missing"]})}
    for key in ("calls", "total_s", "self_s", "distinct", "terminations"):
        acc = Counter()
        for s in summaries:
            acc.update(s[key])
        out[key] = dict(acc)
    for key in (
        "flop",
        "byte",
        "accepted",
        "candidates",
        "centers_converged",
        "barycenter_in_find_center",
        "nonpositive_raised",
    ):
        out[key] = sum(s[key] for s in summaries)
    return out
