"""The functional's evaluation as separate layers, and an evaluator that logs its products.

:meth:`confsphere.spectral.Discretization.gate` is the positivity gate,
and :class:`confsphere.functional.Evaluator` holds the value terms and the
gradient kernel of one ``(n, m, degree)`` on that discretization.  The
functions below compose the same float operations from the
discretization's plain arrays, the packed multipliers and q, each looked
up or passed along, layer by layer: they are the reference the gate and
the evaluator are held to bit for bit.  :func:`logging_evaluator` installs
a discretization whose basis products record their operands, so that a
test can count the syntheses of an entry point or of a descent.
"""

import math
import sys
from dataclasses import replace

import numpy as np

from confsphere import functional, spectral
from confsphere.errors import NonPositiveFunction
from confsphere.functional import exponent_q
from confsphere.gjms import packed_multipliers
from confsphere.spectral import POSITIVITY_FLOOR, discretization


def positivity_gate(c, disc, refuse=True):
    """(values, minimum, maximum) of c on the nodes of ``disc``, poles included, once c passes; else raise or None."""
    vals = disc.basis.T.dot(c)
    low, high = float(vals.min()), float(vals.max())
    if low > POSITIVITY_FLOOR * high and low >= sys.float_info.min:
        return vals, low, high
    if refuse:
        raise NonPositiveFunction("function fails the positivity floor")
    return None


def neg_power(vals, q, weights):
    """(u^{-q}, integral u^{-q}) from node values that passed the gate."""
    neg = vals ** (-q)
    return neg, float(weights.dot(neg))


def value_terms(c, vals, p, q, weights):
    """(c, vals, I, p c, E, u^{-q}, integral u^{-q}) of the coefficients c with node values vals."""
    neg, integ = neg_power(vals, q, weights)
    pc = p * c
    e = float(pc.dot(c))
    return c, vals, math.exp((2.0 / q) * math.log(integ)) * e, pc, e, neg, integ


def step_terms(terms, disc, q):
    """Gradient coefficients from :func:`value_terms`."""
    _, vals, _, pc, e, neg, integ = terms[:7]
    pointwise = np.divide(neg, vals)
    pointwise *= -2.0 * integ ** (2.0 / q - 1.0) * e
    pointwise *= disc.rule.weights
    out = disc.basis.dot(pointwise)
    out += pc * (2.0 * integ ** (2.0 / q))
    return out


def layers(n, m, degree):
    """(4x discretization, packed multipliers, q) of one order and degree, looked up afresh."""
    return discretization(n, degree, oversample=4), packed_multipliers(n, m, degree), exponent_q(n, m)


def terms_at_minimum(c, n, m, degree):
    """The terms of c at node minimum one, then k, the grid minimum, twice, as the entry points read them."""
    disc, p, q = layers(n, m, degree)
    vals, k, _ = positivity_gate(c, disc)
    return value_terms(c * (1.0 / k), vals / k, p, q, disc.rule.weights) + (k, k)


def terms_at_maximum(c, n, m, degree, refuse=False):
    """The terms of a descent candidate c at maximum one, then cmax and the node minimum over it.

    Within 1e-3 of the floor, c / cmax is gated a second time; None if either gate fails.
    """
    disc, p, q = layers(n, m, degree)
    if (gated := positivity_gate(c, disc, refuse)) is None:
        return None
    vals, low, cmax = gated
    terms = value_terms(c * (1.0 / cmax), vals / cmax, p, q, disc.rule.weights) + (cmax, low / cmax)
    near_floor = (1.0 + 1e-3) * POSITIVITY_FLOOR
    if low <= near_floor * cmax and positivity_gate(terms[0], disc, refuse) is None:
        return None
    return terms


def volume(c, n, m, degree):
    """(u / k)^{-q} over its integral on the nodes, k the node minimum of c."""
    disc, _, q = layers(n, m, degree)
    vals, k = positivity_gate(c, disc)[:2]
    neg, integ = neg_power(vals / k, q, disc.rule.weights)
    return neg / integ


class _Logged(np.ndarray):
    """A read-only view whose ``dot`` appends (tag, operand, product) to ``log``."""

    def dot(self, other):
        out = np.asarray(self).dot(other)
        self.log.append((self.tag, other, out))
        return out


def _logged(array, tag, log):
    view = array.view(_Logged)
    view.tag, view.log = tag, log
    return view


def logging_evaluator(monkeypatch, n, m, degree, log):
    """Make the 4x discretization of ``(n, degree)`` log its basis products; returns the evaluator on it.

    Every product of the transposed basis, a synthesis on the nodes, poles
    included, appends ("values", c, values) to ``log``.  The discretization is put in place of
    the cached one for the duration of the test, with no evaluator held, so
    every entry point, :func:`~confsphere.spectral.min_on_grid` and the
    descent use it.
    """
    held = discretization(n, degree, oversample=4)
    disc = replace(held, basis_t=_logged(held.basis_t, "values", log), evaluators={})
    monkeypatch.setitem(spectral._cache, (n, degree, 4), disc)
    logged = functional.evaluator(n, m, degree)
    if logged.disc is not disc:
        raise AssertionError(f"the evaluator of {(n, m, degree)} is not on the logging discretization")
    return logged
