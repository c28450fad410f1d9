import math

import numpy as np
import pytest

from confsphere import extremize, functional, mobius
from confsphere.extremize import OptimizerConfig, minimize, perturbation_sweep
from confsphere.functional import el_residual, exponent_q, functional_value, gradient, neg_power_integral
from confsphere.geometry import AxisDilation, north_pole, sphere_measure
from confsphere.gjms import packed_multipliers
from confsphere.mobius import barycenter, pullback
from confsphere.spectral import (
    Discretization,
    constant_function,
    harmonic_basis_function,
    min_on_grid,
    random_positive_function,
)


def seeded_start(n, degree, seed, max_degree=None):
    rng = np.random.default_rng(seed)
    return random_positive_function(n, degree, max_degree or degree // 4, rng)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(max_iter=0)
    with pytest.raises(ValueError):
        OptimizerConfig(positivity_floor=1e-2)
    with pytest.raises(ValueError):
        OptimizerConfig(step_init=-1.0)


def test_config_has_no_unused_knobs():
    # the descent is always preconditioned, and it draws no random numbers
    for knob in ("seed", "precondition"):
        with pytest.raises(TypeError):
            OptimizerConfig(**{knob: 0})


def test_minimize_reaches_first_sharp_constant():
    degree = 32
    u0 = (
        constant_function(1, 1.0, degree)
        + harmonic_basis_function(1, 1, degree).scaled(0.4 * math.sqrt(math.pi))
        + harmonic_basis_function(1, 2, degree, component="sin").scaled(0.2 * math.sqrt(math.pi))
    )
    trace = minimize(u0, 1, OptimizerConfig(degree=degree, max_iter=300))
    target = -math.pi**2
    assert abs(trace.values[-1] - target) / abs(target) < 1e-6
    assert el_residual(trace.final, 1) < 1e-5


def test_minimize_reaches_second_sharp_constant():
    trace = minimize(seeded_start(1, 32, 7), 2, OptimizerConfig(degree=32, max_iter=400))
    target = 9 * math.pi**4
    assert abs(trace.values[-1] - target) / target < 1e-5


def test_monotone_trace():
    trace = minimize(seeded_start(1, 32, 3), 1, OptimizerConfig(degree=32, max_iter=200))
    for a, b in zip(trace.values, trace.values[1:]):
        assert b <= a


def test_descent_below_constant_in_unstable_order():
    degree = 32
    base = functional_value(constant_function(1, 1.0, degree), 3)
    u0 = constant_function(1, 1.0, degree) + harmonic_basis_function(1, 2, degree).scaled(0.05)
    trace = minimize(u0, 3, OptimizerConfig(degree=degree, max_iter=12))
    assert trace.best_value <= 1.01 * base  # base < 0: at least 1% below
    for a, b in zip(trace.values, trace.values[1:]):
        assert b <= a


def test_unstable_descent_improves_with_budget():
    degree = 32
    u0 = constant_function(1, 1.0, degree) + harmonic_basis_function(1, 2, degree).scaled(0.05)
    best = []
    for max_iter in (6, 12, 24):
        trace = minimize(u0, 3, OptimizerConfig(degree=degree, max_iter=max_iter))
        best.append(trace.best_value)
    assert best[1] < best[0]
    assert best[2] < best[1]


def test_gauge_invariance_of_result():
    u0 = seeded_start(1, 32, 11, max_degree=6)
    cfg = OptimizerConfig(degree=32, max_iter=300)
    direct = minimize(u0, 1, cfg).values[-1]
    moved = pullback(u0, AxisDilation(north_pole(1), 2.0), 1)
    via_orbit = minimize(moved, 1, cfg).values[-1]
    assert abs(direct - via_orbit) / abs(direct) < 1e-5


def test_truncation_robustness():
    # acceptance degree vs the refined degree used for convergence studies
    from confsphere.spectral import DEFAULT_DEGREE, REFINED_DEGREE

    target = -math.pi**2
    finals = []
    for degree in (DEFAULT_DEGREE, REFINED_DEGREE):
        u0 = seeded_start(1, degree, 5, max_degree=8)
        trace = minimize(u0, 1, OptimizerConfig(degree=degree, max_iter=300))
        finals.append(trace.values[-1])
    assert abs(finals[0] - finals[1]) / abs(target) < 1e-6


def test_positivity_floor_is_respected():
    degree = 32
    u0 = constant_function(1, 1.0, degree) + harmonic_basis_function(1, 2, degree).scaled(0.05)
    cfg = OptimizerConfig(degree=degree, max_iter=400)
    trace = minimize(u0, 3, cfg)
    assert min(trace.min_values) > cfg.positivity_floor * 0.999999
    assert trace.termination_reason in ("max_iterations", "positivity_breakdown", "line_search_stall")


def test_perturbation_sweep_stable_case():
    rows = perturbation_sweep(3, 2, [1e-2], trials=200, seed=0, degree=24)
    assert min(gap for _, _, gap in rows) >= -1e-9


def test_perturbation_sweep_unstable_direction():
    one = constant_function(1, 1.0, 32)
    base = functional_value(one, 3)
    phi = harmonic_basis_function(1, 2, 32)
    gap = functional_value(one + phi.scaled(1e-2), 3) - base
    assert gap < 0


def test_perturbation_sweep_zero_eps():
    rows = perturbation_sweep(1, 1, [0.0], trials=3, seed=1)
    assert all(gap == 0.0 for _, _, gap in rows)


def test_minimize_zonal_reaches_closed_form_constant():
    target = -(15.0 / 16.0) * (2 * math.pi**2) ** (4.0 / 3.0)
    trace = minimize(seeded_start(3, 24, 1, max_degree=6), 2, OptimizerConfig(degree=24, max_iter=300))
    assert abs(trace.values[-1] - target) / abs(target) < 1e-6


@pytest.mark.parametrize("n,m,degree", [(1, 1, 32), (1, 2, 32), (3, 2, 32), (3, 3, 64), (3, 2, 64)])
def test_descent_rows_equal_public_functions(n, m, degree):
    # the last row comes from the node values of the accepted candidate,
    # rescaled to maximum one, not from a fresh synthesis of the final
    # coefficients: the two agree to rounding in the scale of each term
    q = exponent_q(n, m)
    p = packed_multipliers(n, m, degree)
    for max_iter in (3, 40, 200):
        trace = minimize(seeded_start(n, degree, 3), m, OptimizerConfig(degree=degree, max_iter=max_iter))
        final = trace.final
        energy_term = 2.0 * neg_power_integral(final, m) ** (2.0 / q) * p * final.coeffs
        grad_gap = abs(trace.grad_norms[-1] - np.linalg.norm(gradient(final, m).coeffs))
        assert grad_gap <= 1e-14 * np.linalg.norm(energy_term)
        mass = final.coeffs[0] * math.sqrt(sphere_measure(n))
        bary_gap = abs(trace.barycenter_norms[-1] - np.linalg.norm(barycenter(final, np.zeros(n + 1), m)))
        assert bary_gap <= 1e-14 * mass


@pytest.mark.parametrize("n,m,degree,seed", [(1, 1, 32, 11), (3, 2, 32, 1)])
def test_minimize_synthesizes_each_candidate_once(monkeypatch, n, m, degree, seed):
    # outside the gauge, Discretization.values runs once for the start and
    # once per candidate, each followed by its one grid check; the accepted
    # candidate's values feed the gradient and barycenter, so the gate runs
    # only inside recenter
    inside, recentered, values, checks, gates = [], [], [], [], []

    def spy(owner, name, calls, tag):
        real = getattr(owner, name)

        def counted(*args):
            calls.append(tag(args))
            return real(*args)

        monkeypatch.setattr(owner, name, counted)

    def tracked_recenter(*args, real=extremize.recenter):
        inside.append(True)
        try:
            return real(*args)
        finally:
            recentered.append(inside.pop())

    spy(Discretization, "values", values, lambda a: (bool(inside), a[1]))
    spy(Discretization, "grid_minimum", checks, lambda a: (bool(inside), a[1]))
    for owner in (functional, mobius):
        spy(owner, "_positivity_gate", gates, lambda a: bool(inside))
    monkeypatch.setattr(extremize, "recenter", tracked_recenter)

    # a dilated start drifts in the gauge, so recenter runs
    u0 = pullback(seeded_start(n, degree, seed, max_degree=6), AxisDilation(north_pole(n), 2.0), m)
    trace = minimize(u0, m, OptimizerConfig(degree=degree, max_iter=60, gauge_every=5))
    assert recentered and gates and all(gates)
    outer_values = [c for within, c in values if not within]
    outer_checks = [c for within, c in checks if not within]
    assert outer_values[0] is u0.coeffs
    assert len(outer_values) == len(outer_checks) >= 1 + trace.iterations + len(recentered)
    assert all(v is g for v, g in zip(outer_values, outer_checks))


def test_line_search_rejects_a_dip_at_a_pole():
    # Gauss-Jacobi nodes are interior: a zonal candidate can be positive on
    # them and not at t = +-1, where the gate of gradient() also looks
    u0 = random_positive_function(3, 64, 16, np.random.default_rng(1))
    config = OptimizerConfig(degree=64, max_iter=12)
    trace = minimize(u0, 4, config)
    assert min_on_grid(trace.final) > config.positivity_floor
    assert trace.values[-1] < trace.values[0]


def test_line_search_stalls_instead_of_accepting_equal_values():
    # at working precision the Armijo decrease term drops below half an ulp
    # of I; a step that leaves I unchanged is then no longer accepted
    u0 = random_positive_function(3, 32, 8, np.random.default_rng(2))
    trace = minimize(u0, 3, OptimizerConfig(degree=32, max_iter=200))
    assert trace.termination_reason == "line_search_stall"
    assert all(b < a for a, b in zip(trace.values, trace.values[1:]))
