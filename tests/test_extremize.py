import math
from dataclasses import replace

import numpy as np
import pytest

from confsphere import extremize, functional, mobius
from confsphere.errors import InvalidConfig
from confsphere.extremize import OptimizerConfig, minimize, perturbation_sweep
from confsphere.functional import el_residual, exponent_q, functional_value, gradient, neg_power_integral
from confsphere.geometry import AxisDilation, north_pole
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


def test_minimize_rejects_a_config_of_another_degree():
    # the descent runs at the degree of its start, so a config that names
    # another degree is an error, not a setting that is silently ignored
    u0 = random_positive_function(1, 16, 4, np.random.default_rng(0))
    with pytest.raises(InvalidConfig, match="degree 32"):
        minimize(u0, 1, OptimizerConfig(max_iter=5))
    assert minimize(u0, 1, OptimizerConfig(degree=16, max_iter=5)).final.degree == 16


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
        # the barycenter V(0) lies in the unit ball
        bary_gap = abs(trace.barycenter_norms[-1] - np.linalg.norm(barycenter(final, np.zeros(n + 1), m)))
        assert bary_gap <= 1e-14


@pytest.mark.parametrize("n,m,degree,seed", [(1, 1, 32, 11), (3, 2, 32, 1)])
def test_minimize_synthesizes_each_candidate_once(monkeypatch, n, m, degree, seed):
    # outside the gauge, Discretization.values runs once for the start and
    # once per candidate, each followed by its one grid check; the accepted
    # candidate's values feed the gradient and barycenter, so the gate runs
    # only inside the gauge's find_center and pullback
    # a dilated start drifts in the gauge, so the gauge runs; it is built
    # before the spies, since random_positive_function uses Discretization.values
    u0 = pullback(seeded_start(n, degree, seed, max_degree=6), AxisDilation(north_pole(n), 3.0), m)
    inside, centers, recentered, values, checks, gates = [], [], [], [], [], []

    def spy(owner, name, calls, tag):
        real = getattr(owner, name)

        def counted(*args):
            calls.append(tag(args))
            return real(*args)

        monkeypatch.setattr(owner, name, counted)

    def tracked(name, calls):
        real = getattr(extremize, name)

        def run(*args):
            inside.append(True)
            try:
                return real(*args)
            finally:
                calls.append(inside.pop())

        monkeypatch.setattr(extremize, name, run)

    spy(Discretization, "values", values, lambda a: (bool(inside), a[1]))
    spy(Discretization, "grid_minimum", checks, lambda a: (bool(inside), a[1]))
    for owner in (functional, mobius):
        spy(owner, "_positivity_gate", gates, lambda a: bool(inside))
    tracked("find_center", centers)
    tracked("pullback", recentered)

    trace = minimize(u0, m, OptimizerConfig(degree=degree, max_iter=60, gauge_every=5))
    assert centers and recentered and gates and all(gates)
    outer_values = [c for within, c in values if not within]
    outer_checks = [c for within, c in checks if not within]
    assert outer_values[0] is u0.coeffs
    assert len(outer_values) == len(outer_checks) >= 1 + trace.iterations + len(recentered)
    assert all(v is g for v, g in zip(outer_values, outer_checks))


def test_minimize_takes_v0_once_per_trace_row(monkeypatch):
    # the gauge check's V(0) is the next row's baryNorm unless the pullback
    # is kept.  This draw checks the gauge at steps 10 and 20 and keeps the
    # first pullback: one sum per row, plus one for the iterate it replaced
    summed = []
    real = extremize._ball_moment
    monkeypatch.setattr(extremize, "_ball_moment", lambda disc, neg, a: summed.append(neg) or real(disc, neg, a))
    u0 = random_positive_function(1, 32, 8, np.random.default_rng(3))
    trace = minimize(u0, 1, OptimizerConfig(degree=32, max_iter=300))
    assert len(trace.barycenter_norms) == 26
    # no iterate's u^{-q} is summed twice
    assert len({id(neg) for neg in summed}) == len(summed) == 26 + 1


def test_minimize_pulls_back_by_converged_centers_only(monkeypatch):
    # on this unstable draw the second center stops at the clip radius
    # unconverged; a pullback by it would only be rejected
    centers, pulled = [], []
    real_center, real_pullback = extremize.find_center, extremize.pullback
    monkeypatch.setattr(extremize, "find_center", lambda *a: centers.append(real_center(*a)) or centers[-1])
    monkeypatch.setattr(extremize, "pullback", lambda u, phi, m: pulled.append(phi.center) or real_pullback(u, phi, m))
    u0 = random_positive_function(1, 16, 4, np.random.default_rng(9))
    trace = minimize(u0, 3, OptimizerConfig(degree=16, max_iter=400))
    assert trace.termination_reason == "positivity_breakdown"
    assert [c.converged for c in centers] == [True, False]
    assert len(pulled) == 1 and pulled[0] is centers[0].a


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


def _line_searches(monkeypatch, u0, m, config):
    """Run minimize without the gauge; return the trace and, per iterate,
    (I, slope, first step length, step lengths of the trials made).

    The step lengths are those of the rule under test: the first search
    starts at step_init, each rejected trial halves the step, and after a
    step alpha is accepted with decrease ratio rho the next search starts
    at 2 alpha if rho >= (1 + sigma) / 2 and at alpha otherwise.  Every
    trial's coefficients must equal c - alpha d bit for bit, with d the
    preconditioned gradient at the iterate c.
    """
    events = []

    def spy(owner, name, tag):
        real = getattr(owner, name)

        def logged(*args):
            out = real(*args)
            events.append((tag, args, out))
            return out

        monkeypatch.setattr(owner, name, logged)

    spy(Discretization, "values", "trial")
    spy(extremize, "_step_terms", "iterate")
    trace = minimize(u0, m, replace(config, gauge_every=10**6))
    precond = 1.0 + np.abs(packed_multipliers(u0.n, m, u0.degree))
    threshold = (1.0 + config.armijo_factor) / 2.0
    searches, alpha = [], config.step_init
    for tag, args, out in events[1:]:  # the first synthesis is the start
        if tag == "iterate":
            if searches:
                before, slope, _, trials = searches[-1]
                rho = (before - trace.values[len(searches)]) / (trials[-1] * slope)
                alpha = 2.0 * trials[-1] if rho >= threshold else trials[-1]
            c, direction = args[0][0], out / precond
            searches.append((trace.values[len(searches)], float(out @ direction), alpha, []))
        else:
            trials = searches[-1][3]
            step = trials[-1] * 0.5 if trials else alpha
            assert np.array_equal(args[1], c - step * direction)
            trials.append(step)
    return trace, searches


#: the rounding floor of the line search, relative to |I|
NOISE = 4.0 * 2.0**-52


@pytest.mark.parametrize(
    "n,m,degree,seed,step_init",
    [(1, 1, 32, 1, 1.0), (1, 2, 32, 3, 1.0), (3, 2, 64, 3, 1.0), (3, 3, 64, 7, 1.0), (3, 3, 64, 1, 2.0**-6)],
)
def test_line_search_grows_the_step_only_when_the_ratio_predicts_it(monkeypatch, n, m, degree, seed, step_init):
    u0 = random_positive_function(n, degree, 8, np.random.default_rng(seed))
    config = OptimizerConfig(degree=degree, max_iter=300, step_init=step_init)
    trace, searches = _line_searches(monkeypatch, u0, m, config)
    assert len(searches) == trace.iterations + 1
    # both branches of the rule ran
    starts = [(first, prev[3][-1]) for prev, (_, _, first, trials) in zip(searches, searches[1:]) if trials]
    assert any(first == 2.0 * alpha for first, alpha in starts)
    assert any(first == alpha for first, alpha in starts)


@pytest.mark.parametrize("n,m,degree,seed", [(1, 1, 32, 1), (3, 3, 32, 2), (3, 2, 64, 3)])
def test_line_search_stops_at_the_rounding_floor(monkeypatch, n, m, degree, seed):
    # no trial is made once alpha * slope < 4 ulps of |I|: the last search
    # ends at that floor, short of its 60 halvings, in line_search_stall
    u0 = random_positive_function(n, degree, 8, np.random.default_rng(seed))
    trace, searches = _line_searches(monkeypatch, u0, m, OptimizerConfig(degree=degree, max_iter=300))
    for value, slope, _, trials in searches:
        assert all(alpha * slope >= NOISE * abs(value) for alpha in trials)
    value, slope, first, trials = searches[-1]
    assert trace.termination_reason == "line_search_stall"
    assert len(trials) < 60
    assert (trials[-1] * 0.5 if trials else first) * slope < NOISE * abs(value)


@pytest.mark.parametrize("m,degree,seed", [(3, 16, 9), (3, 32, 4), (4, 16, 7)])
def test_unstable_start_ends_in_positivity_breakdown(m, degree, seed):
    # the rounding floor must not relabel a search whose trials all fell
    # below the positivity floor as a stall
    u0 = random_positive_function(1, degree, degree // 4, np.random.default_rng(seed))
    config = OptimizerConfig(degree=degree, max_iter=400)
    trace = minimize(u0, m, config)
    assert trace.termination_reason == "positivity_breakdown"
    assert min(trace.min_values) > config.positivity_floor


def test_budget_spending_start_reaches_the_gradient_tolerance():
    # this (1,2) start once spent its 400 steps (criterion 02's budget) on
    # 808 syntheses, a doubled trial rejected at nearly every step, and
    # ended 1.2e-5 from 9 pi^4
    target = 9 * math.pi**4
    u0 = random_positive_function(1, 32, 4, np.random.default_rng(144))
    trace = minimize(u0, 2, OptimizerConfig(degree=32, max_iter=400, grad_tol=1e-3 * target))
    assert trace.termination_reason == "gradient_tolerance"
    assert abs(trace.values[-1] - target) / target < 1e-5
