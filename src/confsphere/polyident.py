"""Exact verification of the flat Laplacian induction identities.

A tiny sparse multivariate polynomial type with exact coefficients is
enough: the identities are coefficient-linear in the test polynomial, so
exact equality over random low-degree inputs verifies the computational
content completely.  With W = (1 + |x|^2)/2, the two statements are

    Delta(W^{m+1} Delta^m u) + m(m+1) W^{m-1} Delta^m u = W^m Delta^{m+1}(W u)

and the product rule it rests on,

    Delta^k(W u) = k(2k+n-2) Delta^{k-1} u + 2k sum_i x_i Delta^{k-1} d_i u
                  + W Delta^k u.

Both are checked with the integer weight V = 1 + |x|^2 = 2W, multiplied
through exactly: by 2^{m+1},

    Delta(V^{m+1} Delta^m u) + 4m(m+1) V^{m-1} Delta^m u = V^m Delta^{m+1}(V u),

and by 2,

    Delta^k(V u) = 2k(2k+n-2) Delta^{k-1} u + 4k sum_i x_i Delta^{k-1} d_i u
                  + V Delta^k u.

Integer input then stays in Python ints throughout, with no Fraction
arithmetic.  For m = 0 the middle term carries the factor m(m+1) = 0, so
the negative power of V is never formed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple, Union

Monomial = Tuple[int, ...]
Coefficient = Union[int, Fraction]


@dataclass(frozen=True)
class RationalPolynomial:
    """Sparse exact polynomial: map from exponent tuples to coefficients.

    Coefficients are Python ints or Fractions.  Integer input stays integer
    under ``+``, ``-``, ``*``, :func:`partial` and :func:`laplacian`; a
    Fraction enters only through a Fraction coefficient or scale factor.
    """

    num_vars: int
    terms: Dict[Monomial, Coefficient]

    def __post_init__(self):
        clean = {e: c for e, c in self.terms.items() if c != 0}
        object.__setattr__(self, "terms", clean)

    @classmethod
    def constant(cls, num_vars: int, value) -> "RationalPolynomial":
        if not isinstance(value, int):
            value = Fraction(value)
        return cls(num_vars, {(0,) * num_vars: value} if value else {})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "RationalPolynomial":
        e = [0] * num_vars
        e[index] = 1
        return cls(num_vars, {tuple(e): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return RationalPolynomial(self.num_vars, out)

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + other.scaled(-1)

    def scaled(self, factor) -> "RationalPolynomial":
        return RationalPolynomial(self.num_vars, {e: c * factor for e, c in self.terms.items()})

    def __mul__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        out: Dict[Monomial, Coefficient] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return RationalPolynomial(self.num_vars, out)

    def __pow__(self, exponent: int) -> "RationalPolynomial":
        if exponent < 0:
            raise ValueError("only nonnegative integer powers are defined")
        out = RationalPolynomial.constant(self.num_vars, 1)
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))


def partial(p: RationalPolynomial, index: int) -> RationalPolynomial:
    out: Dict[Monomial, Coefficient] = {}
    for e, c in p.terms.items():
        if e[index] == 0:
            continue
        new = list(e)
        new[index] -= 1
        key = tuple(new)
        out[key] = out.get(key, 0) + c * e[index]
    return RationalPolynomial(p.num_vars, out)


def laplacian(p: RationalPolynomial) -> RationalPolynomial:
    out: Dict[Monomial, Coefficient] = {}
    for e, c in p.terms.items():
        for i, k in enumerate(e):
            if k >= 2:  # one pass: c x_i^k contributes c k (k - 1) x_i^{k-2}
                key = e[:i] + (k - 2,) + e[i + 1 :]
                out[key] = out.get(key, 0) + c * k * (k - 1)
    return RationalPolynomial(p.num_vars, out)


def iterated_laplacian(p: RationalPolynomial, k: int) -> RationalPolynomial:
    for _ in range(k):
        p = laplacian(p)
    return p


def one_plus_norm_sq(num_vars: int) -> RationalPolynomial:
    """The integer weight polynomial V = 1 + |x|^2 = 2W."""
    out = {(0,) * num_vars: 1}
    for i in range(num_vars):
        e = [0] * num_vars
        e[i] = 2
        out[tuple(e)] = 1
    return RationalPolynomial(num_vars, out)


def identity_2_1_sides(u: RationalPolynomial, m: int):
    """(lhs, rhs) of the induction identity in V = 2W: 2^{m+1} times its sides in W."""
    if m < 0:
        raise ValueError("m must be a nonnegative integer")
    v = one_plus_norm_sq(u.num_vars)
    delta_m_u = iterated_laplacian(u, m)
    lhs = laplacian(v ** (m + 1) * delta_m_u)
    if m >= 1:
        lhs = lhs + (v ** (m - 1) * delta_m_u).scaled(4 * m * (m + 1))
    return lhs, v**m * iterated_laplacian(v * u, m + 1)


def check_identity_2_1(u: RationalPolynomial, m: int):
    """Exact residual of the induction identity; (True, zero) when it holds.

    The residual in V is scaled back by 1/2^{m+1}, so it is the residual in W.
    """
    lhs, rhs = identity_2_1_sides(u, m)
    residual = (lhs - rhs).scaled(Fraction(1, 2 ** (m + 1)))
    return residual.is_zero, residual


def delta_k_product_sides(u: RationalPolynomial, k: int):
    """(lhs, rhs) of the k-fold product rule for V u = 2 W u: twice its sides for W u."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    n = u.num_vars
    v = one_plus_norm_sq(n)
    lhs = iterated_laplacian(v * u, k)
    rhs = iterated_laplacian(u, k - 1).scaled(2 * k * (2 * k + n - 2))
    cross = RationalPolynomial.constant(n, 0)
    for i in range(n):
        cross = cross + RationalPolynomial.variable(n, i) * iterated_laplacian(partial(u, i), k - 1)
    return lhs, rhs + cross.scaled(4 * k) + v * iterated_laplacian(u, k)


def check_delta_k_product(u: RationalPolynomial, k: int) -> bool:
    """Exact equality of the k-fold Laplacian product rule for W u."""
    lhs, rhs = delta_k_product_sides(u, k)
    return (lhs - rhs).is_zero


def random_polynomial(num_vars: int, degree: int, rng: random.Random) -> RationalPolynomial:
    """Random sparse polynomial of 8 draws with small integer coefficients."""
    terms: Dict[Monomial, int] = {}
    for _ in range(8):
        exps = []
        remaining = degree
        for _ in range(num_vars):
            e = rng.randint(0, remaining)
            exps.append(e)
            remaining -= e
        coeff = rng.randint(-9, 9)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return RationalPolynomial(num_vars, terms)
