import math

import numpy as np
import pytest

from confsphere.extremize import OptimizerConfig, minimize, perturbation_sweep
from confsphere.functional import el_residual, functional_value, gradient
from confsphere.geometry import AxisDilation, north_pole
from confsphere.mobius import barycenter, pullback
from confsphere.spectral import (
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


@pytest.mark.parametrize("n,m,degree", [(1, 1, 32), (1, 2, 32), (3, 2, 32), (3, 3, 64)])
def test_descent_rows_equal_public_functions(n, m, degree):
    # minimize evaluates gradient and barycenter through one shared kernel;
    # its last row must be exactly what the public functions give
    trace = minimize(seeded_start(n, degree, 3), m, OptimizerConfig(degree=degree, max_iter=40))
    final = trace.final
    assert trace.grad_norms[-1] == np.linalg.norm(gradient(final, m).coeffs)
    assert trace.barycenter_norms[-1] == np.linalg.norm(barycenter(final, np.zeros(n + 1), m))


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
