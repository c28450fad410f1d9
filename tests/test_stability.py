import math
from fractions import Fraction

import numpy as np
import pytest

from confsphere import stability
from confsphere.errors import ClosedFormMismatch, NotUnstable
from confsphere.functional import functional_value
from confsphere.spectral import constant_function, harmonic_basis_function
from confsphere.stability import (
    h2_eigenvalue_closed,
    h3_eigenvalue_closed,
    hessian_apply,
    hessian_eigenvalue,
    hessian_spectrum,
    instability_witness,
)


def stable_sweep():
    for n in (1, 3, 5):
        for m in range((n + 1) // 2, 9):
            if 2 * m > n:
                yield n, m


def test_neutral_directions_exact():
    # scaling (degree 0) and the Mobius family (degree 1) are eigenvalue
    # zero for every odd n and admissible m
    for n, m in stable_sweep():
        assert hessian_eigenvalue(n, m, 0) == 0
        assert hessian_eigenvalue(n, m, 1) == 0


def test_hessian_apply_constant_is_zero():
    one = constant_function(1, 1.0, 8)
    out = hessian_apply(one, 2)
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_hessian_apply_degree_one_is_zero():
    phi = harmonic_basis_function(1, 1, 8)
    out = hessian_apply(phi, 1)
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_hessian_apply_degree_two_unstable_order():
    phi = harmonic_basis_function(1, 2, 8)
    out = hessian_apply(phi, 3)
    assert np.max(np.abs(out.coeffs - float(Fraction(-315, 16)) * phi.coeffs)) < 1e-15


def test_spectrum_closed_form_values():
    spec13 = hessian_spectrum(1, 3, 8)
    assert spec13.eigenvalues[2] == Fraction(-315, 16)
    assert spec13.eigenvalues[2] == h2_eigenvalue_closed(1, 3)
    spec14 = hessian_spectrum(1, 4, 8)
    assert spec14.eigenvalues[3] == Fraction(-945, 2)
    assert spec14.eigenvalues[3] == h3_eigenvalue_closed(1, 4)


def test_spectrum_stable_cases_nonnegative():
    spec11 = hessian_spectrum(1, 1, 16)
    assert not spec11.has_negative
    assert spec11.eigenvalues[2] == 3
    for n, m in ((3, 2), (3, 3)):
        spec = hessian_spectrum(n, m, 16)
        assert not spec.has_negative
        assert all(v >= 0 for v in spec.eigenvalues)


def test_parity_law_over_sweep():
    for n, m in stable_sweep():
        spec = hessian_spectrum(n, m, 24)
        expect_negative = m >= (n + 5) // 2
        assert spec.has_negative == expect_negative, (n, m)
        assert spec.eigenvalues[0] == 0
        assert spec.eigenvalues[1] == 0


def test_closed_form_cross_check_h2_h3():
    # the parity of m - (n+5)/2 selects which closed formula matches the
    # spectral eigenvalue exactly
    for n, m in stable_sweep():
        gap = m - (n + 5) // 2
        if gap < 0:
            continue
        if gap % 2 == 0:
            assert hessian_eigenvalue(n, m, 2) == h2_eigenvalue_closed(n, m), (n, m)
        else:
            assert hessian_eigenvalue(n, m, 3) == h3_eigenvalue_closed(n, m), (n, m)


@pytest.mark.parametrize("closed,m", [("h2_eigenvalue_closed", 3), ("h3_eigenvalue_closed", 4)])
def test_closed_form_mismatch_is_typed(monkeypatch, closed, m):
    # (1, 3) is checked against the degree-2 formula, (1, 4) against degree 3
    monkeypatch.setattr(stability, closed, lambda n, m: Fraction(1))
    with pytest.raises(ClosedFormMismatch, match="!= closed form 1"):
        hessian_spectrum(1, m, 8)


def test_instability_witness_values():
    deg, val, phi = instability_witness(1, 3)
    assert (deg, val) == (2, Fraction(-315, 16))
    assert phi.degree_of_coeff()[np.argmax(np.abs(phi.coeffs))] == 2
    deg, val, _ = instability_witness(1, 4)
    assert (deg, val) == (3, Fraction(-945, 2))
    deg, val, _ = instability_witness(3, 4)
    assert deg == 2 and val < 0


def test_witness_rejects_stable_orders():
    with pytest.raises(NotUnstable):
        instability_witness(1, 1)
    with pytest.raises(NotUnstable):
        instability_witness(3, 3)
    with pytest.raises(NotUnstable):
        instability_witness(2, 4)


def test_witness_decreases_functional():
    deg, val, phi = instability_witness(1, 3, degree=32)
    one = constant_function(1, 1.0, 32)
    base = functional_value(one, 3)
    perturbed = functional_value(one + phi.scaled(1e-2), 3)
    assert perturbed < base


def test_hessian_functional_consistency():
    # quadratic fit of eps -> I(1 + eps phi_2) against the second-variation
    # prediction mu(S^1)^{(2m-n)/n} mu_2, within 5 percent
    n, m = 1, 3
    phi = harmonic_basis_function(n, 2, 32)
    one = constant_function(n, 1.0, 32)
    base = functional_value(one, m)
    eps = np.array([1e-3, 2e-3, 4e-3, 8e-3])
    gaps = np.array([functional_value(one + phi.scaled(e), m) - base for e in eps])
    fitted = np.polyfit(eps**2, gaps, 1)[0]
    mu2 = float(hessian_eigenvalue(n, m, 2))
    predicted = (2 * math.pi) ** (2 * m - n) * mu2
    assert fitted < 0
    assert abs(fitted - predicted) / abs(predicted) < 0.05


def test_sign_matches_quadratic_behavior_stable():
    # same fit in a stable order has the positive sign of mu_2
    n, m = 1, 1
    phi = harmonic_basis_function(n, 2, 32)
    one = constant_function(n, 1.0, 32)
    base = functional_value(one, m)
    eps = np.array([1e-3, 2e-3, 4e-3])
    gaps = np.array([functional_value(one + phi.scaled(e), m) - base for e in eps])
    fitted = np.polyfit(eps**2, gaps, 1)[0]
    predicted = (2 * math.pi) * float(hessian_eigenvalue(n, m, 2))
    assert fitted > 0
    assert abs(fitted - predicted) / predicted < 0.05
