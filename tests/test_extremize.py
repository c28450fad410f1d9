import math

import numpy as np
import pytest

from confsphere import extremize, functional, mobius
from confsphere.errors import InvalidConfig, NonPositiveFunction
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
    random_band_limited,
    random_positive_function,
)


def seeded_start(n, degree, seed, max_degree=None):
    rng = np.random.default_rng(seed)
    return random_positive_function(n, degree, max_degree or degree // 4, rng)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(max_iter=0)
    with pytest.raises(ValueError):
        OptimizerConfig(degree=0)
    with pytest.raises(ValueError):
        OptimizerConfig(grad_tol=0.0)
    # a NaN tolerance compares false both ways, so a run could never meet it
    with pytest.raises(ValueError):
        OptimizerConfig(grad_tol=float("nan"))


def test_config_has_no_unused_knobs():
    # the descent is always preconditioned, and it draws no random numbers;
    # the floor is the gate's, and the first trial, the Armijo factor and
    # the gauge period are constants of the descent
    for knob in ("seed", "precondition", "positivity_floor", "step_init", "armijo_factor", "gauge_every"):
        with pytest.raises(TypeError):
            OptimizerConfig(**{knob: 0})


def test_minimize_rejects_a_config_of_another_degree():
    # the descent runs at the degree of its start, so a config that names
    # another degree is an error, not a setting that is silently ignored
    u0 = random_positive_function(1, 16, 4, np.random.default_rng(0))
    with pytest.raises(InvalidConfig, match="degree 32"):
        minimize(u0, 1, OptimizerConfig(max_iter=5))
    assert minimize(u0, 1, OptimizerConfig(degree=16, max_iter=5)).final.degree == 16


@pytest.mark.parametrize("n,m", [(1, 1), (3, 2)])
@pytest.mark.parametrize("scale", [1e-12, 1e150])
def test_minimize_tests_the_start_at_maximum_one(n, m, scale):
    # the floor is relative to the maximum, so a positive start descends at
    # any scale as it does at scale one, and a constant is a critical point
    config = OptimizerConfig(max_iter=300)
    u0 = random_positive_function(n, 32, 8, np.random.default_rng(1))
    base, scaled = minimize(u0, m, config), minimize(u0.scaled(scale), m, config)
    assert scaled.termination_reason == base.termination_reason
    assert abs(scaled.values[-1] - base.values[-1]) <= 1e-12 * abs(base.values[-1])
    one = functional_value(constant_function(n, 1.0, 32), m)
    assert abs(minimize(constant_function(n, scale, 32), m, config).values[-1] - one) <= 1e-13 * abs(one)
    # a start that is not positive raises the typed error at any scale
    dipped = constant_function(n, 1.0, 32) + harmonic_basis_function(n, 1, 32).scaled(10.0)
    for start in (dipped.scaled(scale), constant_function(n, -scale, 32)):
        with pytest.raises(NonPositiveFunction, match="positivity floor"):
            minimize(start, m, config)


@pytest.mark.parametrize("n,m", [(1, 1), (3, 2)])
def test_minimize_refuses_its_start_with_the_gates_reason(n, m):
    # the start is gated once, as every candidate is, and the gate names its
    # cause: a subnormal minimum, although the minimum over the maximum is 1,
    # or a minimum below the floor
    with pytest.raises(NonPositiveFunction, match="grid minimum 1.000e-310 is not a normal float$"):
        minimize(constant_function(n, 1e-310, 32), m, OptimizerConfig())
    dipped = constant_function(n, 1.0, 32) + harmonic_basis_function(n, 1, 32).scaled(10.0)
    with pytest.raises(NonPositiveFunction, match="is not above 1e-06 times the node maximum") as refused:
        minimize(dipped, m, OptimizerConfig())
    assert "normal float" not in str(refused.value)


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
    trace = minimize(u0, 3, OptimizerConfig(degree=degree, max_iter=400))
    assert min(trace.min_values) > functional.POSITIVITY_FLOOR * 0.999999
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


def _inline_sweep(n, m, epsilons, trials, seed, degree, max_degree):
    """The sweep as a formula on spectral functions, with I(1) taken afresh."""
    rng = np.random.default_rng(seed)
    one = constant_function(n, 1.0, degree)
    base = functional_value(one, m)
    rows = []
    for trial in range(trials):
        phi = random_band_limited(n, degree, max_degree, rng)
        phi = phi.scaled(1.0 / math.sqrt(phi.norm_sq()))
        for eps in epsilons:
            gap = functional_value(one + phi.scaled(eps), m) - base if eps != 0 else 0.0
            rows.append((trial, float(eps), float(gap)))
    return rows


def test_perturbation_sweep_rows_equal_the_inline_formula():
    # I(1) is cached per (n, m, degree): calls interleaved over the orders and
    # degrees of both representations each read their own, and every row is
    # the formula's bit for bit
    extremize._unit_constant.cache_clear()
    epsilons = [1e-2, 0, -3e-2, 0.1]
    calls = [(1, 1, 16), (3, 2, 16), (1, 1, 24), (3, 3, 24), (1, 3, 16), (3, 2, 24), (1, 1, 16), (3, 4, 16)]
    for i, (n, m, degree) in enumerate(calls):
        for max_degree in (None, 1, degree):
            rows = perturbation_sweep(n, m, epsilons, 3, i, degree=degree, max_degree=max_degree)
            want = _inline_sweep(n, m, epsilons, 3, i, degree, max_degree or degree // 2)
            assert [(t, float.hex(e), float.hex(g)) for t, e, g in rows] == [
                (t, float.hex(e), float.hex(g)) for t, e, g in want
            ], (n, m, degree, max_degree)
    assert extremize._unit_constant.cache_info().currsize == len(set(calls))


@pytest.mark.parametrize("degree,max_degree", [(16, 0), (16, -2), (16, 17), (1, None), (0, None)])
def test_perturbation_sweep_refuses_max_degree_outside_1_to_degree(monkeypatch, degree, max_degree):
    # a max_degree below 1 leaves phi zero, 1 / |phi| divides by zero; one
    # above degree was clamped.  Both are refused before I(1) is computed
    extremize._unit_constant.cache_clear()
    monkeypatch.setattr(extremize, "functional_value", lambda *a: pytest.fail("I was computed"))
    with pytest.raises(ValueError, match=rf"max_degree -?\d+ lies outside 1\.\.{degree}"):
        perturbation_sweep(1, 1, [1e-2], 2, 0, degree=degree, max_degree=max_degree)
    assert extremize._unit_constant.cache_info().currsize == 0


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
        # the integral of u^{-q} is J k^{-q}, from J at node minimum one and k
        terms = neg_power_integral(final, m)
        energy_term = 2.0 * (terms[6] * terms[7] ** -q) ** (2.0 / q) * p * final.coeffs
        grad_gap = abs(trace.grad_norms[-1] - np.linalg.norm(gradient(final, m).coeffs))
        assert grad_gap <= 1e-14 * np.linalg.norm(energy_term)
        # the barycenter V(0) lies in the unit ball
        bary_gap = abs(trace.barycenter_norms[-1] - np.linalg.norm(barycenter(final, np.zeros(n + 1), m)))
        assert bary_gap <= 1e-14


@pytest.mark.parametrize("n,m,degree,seed", [(1, 1, 32, 11), (3, 2, 32, 1)])
def test_minimize_synthesizes_each_candidate_once(monkeypatch, n, m, degree, seed):
    # outside the gauge, the one positivity gate runs once for the start and
    # once per candidate, each with one Discretization.values and one grid
    # check; the accepted candidate's values feed the gradient and barycenter
    # a dilated start drifts in the gauge, so the gauge runs; it is built
    # before the spies, since random_positive_function uses Discretization.values
    u0 = pullback(seeded_start(n, degree, seed, max_degree=6), AxisDilation(north_pole(n), 3.0), m)
    inside, centers, recentered, values, checks, gates = [], [], [], [], [], []

    def spy(owner, name, calls, tag):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(tag(args))
            return real(*args, **kwargs)

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
    # find_center gates u through mobius._volume
    for owner in (functional, extremize, mobius):
        spy(owner, "_positivity_gate", gates, lambda a: (bool(inside), a[0]))
    tracked("find_center", centers)
    tracked("pullback", recentered)

    monkeypatch.setattr(extremize, "GAUGE_EVERY", 5)
    trace = minimize(u0, m, OptimizerConfig(degree=degree, max_iter=60))
    assert centers and recentered and any(within for within, _ in gates)
    outer_values = [c for within, c in values if not within]
    outer_checks = [c for within, c in checks if not within]
    outer_gates = [c for within, c in gates if not within]
    assert outer_values[0] is u0.coeffs
    assert len(outer_values) == len(outer_checks) == len(outer_gates) >= 1 + trace.iterations + len(recentered)
    assert all(v is g is c for v, g, c in zip(outer_values, outer_checks, outer_gates))


@pytest.mark.parametrize("n,m,degree,seed", [(1, 1, 32, 11), (3, 2, 32, 1)])
def test_minimize_calls_neg_power_integral_only_to_seek_centers(monkeypatch, n, m, degree, seed):
    # the descent evaluates at maximum one through its own gate and never
    # through the entry points' neg_power_integral, not even to seek a
    # center: find_center gates u once per center sought and takes u^{-q}
    # without the energy terms.  The short descent of the benchmark's
    # self-check seeks none
    u0 = pullback(seeded_start(n, degree, seed, max_degree=6), AxisDilation(north_pole(n), 3.0), m)
    inside, centers, calls, gates = [], [], [], []
    real = functional.neg_power_integral
    monkeypatch.setattr(functional, "neg_power_integral", lambda *a: calls.append(bool(inside)) or real(*a))
    real_gate = mobius._positivity_gate
    monkeypatch.setattr(mobius, "_positivity_gate", lambda *a: gates.append(bool(inside)) or real_gate(*a))
    real_center = extremize.find_center

    def center(*args):
        inside.append(True)
        try:
            return real_center(*args)
        finally:
            centers.append(inside.pop())

    monkeypatch.setattr(extremize, "find_center", center)
    monkeypatch.setattr(extremize, "GAUGE_EVERY", 5)
    minimize(u0, m, OptimizerConfig(degree=degree, max_iter=60))
    assert centers and calls == [] and gates == [True] * len(centers)
    gates.clear()
    minimize(constant_function(1, 1.0, 8), 1, OptimizerConfig(degree=8, max_iter=2))
    assert calls == gates == []


@pytest.mark.parametrize("n,m,degree,seed", [(1, 1, 32, 11), (3, 2, 32, 1), (3, 3, 64, 2)])
def test_min_values_are_the_node_minima_at_maximum_one(monkeypatch, n, m, degree, seed):
    # each row's minU is the gate's node minimum over the maximum, which
    # equals the minimum of the node values _value_terms received; the
    # dilated start recenters, so a pulled-back iterate is covered too
    u0 = pullback(seeded_start(n, degree, seed, max_degree=6), AxisDilation(north_pole(n), 3.0), m)
    minima = {}
    real = extremize._value_terms

    def spy(*args):
        out = real(*args)
        assert float(args[1].max()) == 1.0
        minima.setdefault(out[2], set()).add(float(args[1].min()))
        return out

    monkeypatch.setattr(extremize, "_value_terms", spy)
    recentered = []
    real_pullback = extremize.pullback
    monkeypatch.setattr(extremize, "pullback", lambda *a: recentered.append(a) or real_pullback(*a))
    monkeypatch.setattr(extremize, "GAUGE_EVERY", 5)
    trace = minimize(u0, m, OptimizerConfig(degree=degree, max_iter=60))
    assert recentered and len(trace.min_values) == len(trace.values) > 2
    for value, low in zip(trace.values, trace.min_values):
        assert minima[value] == {low}


def test_minimize_takes_v0_once_per_trace_row(monkeypatch):
    # the gauge check's V(0) is the next row's baryNorm unless the pullback
    # is kept.  This draw checks the gauge at steps 5 and 10, keeps the first
    # pullback and finds no drift at the second: one sum per row, plus one
    # for the iterate the pullback replaced
    summed, centers = [], []
    real, real_center = extremize._ball_moment, extremize.find_center
    monkeypatch.setattr(extremize, "_ball_moment", lambda disc, neg, a: summed.append(neg) or real(disc, neg, a))
    monkeypatch.setattr(extremize, "find_center", lambda *a: centers.append(real_center(*a)) or centers[-1])
    u0 = random_positive_function(1, 32, 8, np.random.default_rng(0))
    monkeypatch.setattr(extremize, "GAUGE_EVERY", 5)
    trace = minimize(u0, 1, OptimizerConfig(degree=32, max_iter=300))
    assert len(trace.barycenter_norms) == 15 and len(centers) == 1
    # no iterate's u^{-q} is summed twice
    assert len({id(neg) for neg in summed}) == len(summed) == 15 + 1


def test_minimize_does_not_recenter_its_last_iterate(monkeypatch):
    # this draw meets the gradient tolerance at step 10, a gauge step, with
    # |V(0)| / q above 0.01; the descent ends there, so no center is sought
    centers = []
    monkeypatch.setattr(extremize, "find_center", lambda *a: centers.append(a))
    u0 = random_positive_function(1, 32, 8, np.random.default_rng(0))
    trace = minimize(u0, 1, OptimizerConfig(degree=32, max_iter=300, grad_tol=1e-3 * math.pi**2))
    assert trace.termination_reason == "gradient_tolerance" and trace.iterations == 10
    assert trace.barycenter_norms[-1] > 0.01 * exponent_q(1, 1)
    assert centers == []


def test_minimize_pulls_back_by_converged_centers_only(monkeypatch):
    # on this unstable draw the second center stops at the clip radius
    # unconverged; a pullback by it would only be rejected.  The run stalls
    # next to the floor, from iterates that all pass the gate at maximum one
    centers, pulled = [], []
    real_center, real_pullback = extremize.find_center, extremize.pullback
    monkeypatch.setattr(extremize, "find_center", lambda *a: centers.append(real_center(*a)) or centers[-1])
    monkeypatch.setattr(extremize, "pullback", lambda u, phi, m: pulled.append(phi.center) or real_pullback(u, phi, m))
    u0 = random_positive_function(1, 16, 4, np.random.default_rng(16))
    trace = minimize(u0, 3, OptimizerConfig(degree=16, max_iter=400))
    assert trace.termination_reason == "line_search_stall"
    assert [c.converged for c in centers] == [True, False]
    assert len(pulled) == 1 and pulled[0] is centers[0].a


@pytest.mark.parametrize("n,m", [(1, 3), (3, 4)])
def test_every_unstable_descent_ends_on_an_iterate_the_gate_passes(n, m):
    # a candidate passes the gate at its own scale and is kept at maximum
    # one, c / cmax, whose synthesis rounds otherwise; next to the floor the
    # two decisions can differ.  Gated only at its own scale, (1,3) s = 3, 7
    # and (3,4) s = 4, 7 ended on an iterate that functional_value refused
    for s in range(1, 11):
        u0 = random_positive_function(n, 32, 8, np.random.default_rng(s))
        trace = minimize(u0, m, OptimizerConfig(degree=32, max_iter=200))
        assert trace.termination_reason in ("positivity_breakdown", "line_search_stall")
        final = functional_value(trace.final, m)
        assert abs(final - trace.values[-1]) <= 1e-6 * abs(trace.values[-1])


def test_line_search_rejects_a_dip_at_a_pole():
    # Gauss-Jacobi nodes are interior: a zonal candidate can be positive on
    # them and not at t = +-1, where the gate of gradient() also looks
    u0 = random_positive_function(3, 64, 16, np.random.default_rng(1))
    trace = minimize(u0, 4, OptimizerConfig(degree=64, max_iter=12))
    assert min_on_grid(trace.final) > functional.POSITIVITY_FLOOR
    assert trace.values[-1] < trace.values[0]


def test_line_search_stalls_instead_of_accepting_equal_values():
    # at working precision the Armijo decrease term drops below half an ulp
    # of I; a step that leaves I unchanged is then no longer accepted
    u0 = random_positive_function(3, 32, 8, np.random.default_rng(2))
    trace = minimize(u0, 3, OptimizerConfig(degree=32, max_iter=200))
    assert trace.termination_reason == "line_search_stall"
    assert all(b < a for a, b in zip(trace.values, trace.values[1:]))


def _descent_events(monkeypatch, u0, m, config):
    """Run minimize and return its trace and, in call order, the events
    ("trial", c, values) of each synthesis, ("floor", c, minimum) of each
    grid check, ("iterate", terms, gradient) of each gradient and
    ("pullback", coefficients, None) of each recenter candidate.  The
    synthesis of a candidate at maximum one, c / cmax, gated again next to
    the floor, is ("regate", c / cmax, values).  Syntheses and checks inside
    find_center and pullback are left out.
    """
    events, inside = [], []

    def spy(owner, name, log):
        real = getattr(owner, name)

        def logged(*args):
            out = real(*args)
            if not inside:
                log(args, out)
            return out

        monkeypatch.setattr(owner, name, logged)

    def gauge(name):
        real = getattr(extremize, name)

        def run(*args):
            inside.append(name)
            try:
                out = real(*args)
            finally:
                inside.pop()
            if name == "pullback":
                events.append(("pullback", out.coeffs, None))
            return out

        monkeypatch.setattr(extremize, name, run)

    def synthesis(a, out):
        last = next((e for e in reversed(events) if e[0] == "trial"), None)
        again = last is not None and np.array_equal(a[1], last[1] * (1.0 / float(last[2].max())))
        events.append(("regate" if again else "trial", a[1], out))

    spy(Discretization, "values", synthesis)
    spy(Discretization, "grid_minimum", lambda a, out: events.append(("floor", a[1], out)))
    spy(extremize, "_step_terms", lambda a, out: events.append(("iterate", a[0], out)))
    gauge("find_center")
    gauge("pullback")
    return minimize(u0, m, config), events


def _one_pair_direction(grad, inv_d, pair):
    """The memoryless BFGS direction H grad, H = V^T (gamma D^-1) V + rho s s^T."""
    if pair is None:
        return grad * inv_d
    s, y = pair
    sy = float(s @ y)
    rho, gamma = 1.0 / sy, sy / float(y @ (y * inv_d))
    a = rho * float(s @ grad)
    r = (gamma * inv_d) * (grad - a * y)
    direction = r + (a - rho * float(y @ r)) * s
    # the two-term recursion is the product with the dense matrix
    v = np.eye(s.size) - rho * np.outer(y, s)
    dense = v.T @ np.diag(gamma * inv_d) @ v @ grad + rho * s * float(s @ grad)
    assert np.linalg.norm(direction - dense) <= 1e-10 * np.linalg.norm(dense)
    return direction


def _line_searches(monkeypatch, u0, m, config):
    """Run minimize; return the trace and, per iterate, (I, slope, first
    step length, step lengths of the trials made, source of the direction).

    The direction is recomputed here from the rule under test: the one-pair
    direction of the last accepted step's (s, y), stored in the scale of the
    new iterate as s = -alpha d / k and y = grad_new - k grad, with k the
    candidate's maximum on the nodes.  The source is "pair", or the reason
    the direction is D^-1 grad: "start", "curvature" (s.y <= 0), "slope"
    (the pair direction's slope is not positive) or "recenter" (a kept
    pullback).  A pair direction's first trial is 1, any other the last
    accepted step length (1 at the start), and each rejected trial
    halves the step.  Every trial's coefficients must equal c - alpha d bit
    for bit at the iterate c.
    """
    trace, events = _descent_events(monkeypatch, u0, m, config)
    inv_d = 1.0 / (1.0 + np.abs(packed_multipliers(u0.n, m, u0.degree)))
    searches, pulled, step, accepted_vals = [], [], 1.0, None
    gauge = False
    for tag, x, out in events[1:]:  # the first synthesis is the start
        if tag == "pullback":
            pulled.append(x)
        elif tag == "trial":
            # the gauge's candidate is no trial of a search
            gauge = any(x is p for p in pulled)
            if gauge:
                continue
            trials = searches[-1][3]
            alpha = trials[-1] * 0.5 if trials else searches[-1][2]
            assert np.array_equal(x, c - alpha * direction)
            trials.append(alpha)
            accepted_vals = out
        elif tag == "iterate":
            pair, source = None, "recenter" if gauge else "start"
            if gauge:
                # the kept pullback replaces the iterate before its search
                searches.pop()
            elif searches:
                alpha = searches[-1][3][-1]
                k = float(accepted_vals.max())
                s, y = direction * (-alpha / k), out - k * grad
                pair, source, step = (s, y), "pair", alpha
                if not float(s @ y) > 0:
                    pair, source = None, "curvature"
            c, grad, gauge = x[0], out, False
            direction = _one_pair_direction(grad, inv_d, pair)
            slope = float(grad @ direction)
            if pair is not None and not slope > 0:
                pair, source = None, "slope"
                direction = _one_pair_direction(grad, inv_d, None)
                slope = float(grad @ direction)
            first = 1.0 if pair is not None else step
            searches.append((trace.values[len(searches)], slope, first, [], source))
    return trace, searches


#: the rounding floor of the line search, relative to |I|
NOISE = 4.0 * 2.0**-52


@pytest.mark.parametrize("n,m,degree,seed", [(1, 1, 32, 1), (1, 2, 32, 3), (3, 2, 64, 3), (3, 3, 64, 7)])
def test_line_search_follows_the_one_pair_direction(monkeypatch, n, m, degree, seed):
    u0 = random_positive_function(n, degree, 8, np.random.default_rng(seed))
    monkeypatch.setattr(extremize, "GAUGE_EVERY", 10**6)
    trace, searches = _line_searches(monkeypatch, u0, m, OptimizerConfig(degree=degree, max_iter=300))
    assert len(searches) == trace.iterations + 1
    assert searches[0][2] == 1.0 and searches[0][4] == "start"
    # the first trial is 1 once a pair is held
    assert sum(source == "pair" for *_, source in searches) >= trace.iterations // 2
    assert all(first == 1.0 for _, _, first, _, source in searches if source == "pair")


def test_a_pair_without_positive_curvature_restarts_from_the_metric(monkeypatch):
    # in the unstable range a step can cross negative curvature, s.y <= 0;
    # the next search then runs along D^-1 grad from the last accepted step
    u0 = random_positive_function(1, 32, 8, np.random.default_rng(4))
    monkeypatch.setattr(extremize, "GAUGE_EVERY", 10**6)
    trace, searches = _line_searches(monkeypatch, u0, 3, OptimizerConfig(degree=32, max_iter=400))
    restarts = [i for i, search in enumerate(searches) if search[4] == "curvature"]
    assert restarts and trace.termination_reason != "max_iterations"
    assert all(searches[i][2] == searches[i - 1][3][-1] for i in restarts)
    assert any(searches[i][2] < 1.0 for i in restarts)


def test_a_kept_recenter_drops_the_pair(monkeypatch):
    # the pullback moves the iterate off the line of the last step, so the
    # pair no longer describes it: the search after it runs along D^-1 grad
    # (checked bit for bit on its trials) from the last accepted step
    u0 = random_positive_function(1, 32, 8, np.random.default_rng(0))
    monkeypatch.setattr(extremize, "GAUGE_EVERY", 5)
    trace, searches = _line_searches(monkeypatch, u0, 1, OptimizerConfig(degree=32, max_iter=300))
    assert len(searches) == trace.iterations + 1
    assert [i for i, search in enumerate(searches) if search[4] == "recenter"] == [5]
    assert searches[4][4] == "pair" and searches[5][2] == searches[4][3][-1]
    assert searches[5][3] and searches[6][4] == "pair"


@pytest.mark.parametrize("n,m,degree,seed", [(1, 1, 32, 1), (3, 3, 32, 2), (3, 2, 64, 3)])
def test_line_search_stops_at_the_rounding_floor(monkeypatch, n, m, degree, seed):
    # no trial is made once alpha * slope < 4 ulps of |I|: the last search
    # ends at that floor, short of its 60 halvings, in line_search_stall
    u0 = random_positive_function(n, degree, 8, np.random.default_rng(seed))
    monkeypatch.setattr(extremize, "GAUGE_EVERY", 10**6)
    trace, searches = _line_searches(monkeypatch, u0, m, OptimizerConfig(degree=degree, max_iter=300))
    for value, slope, _, trials, _ in searches:
        assert all(alpha * slope >= NOISE * abs(value) for alpha in trials)
    value, slope, first, trials, _ = searches[-1]
    assert trace.termination_reason == "line_search_stall"
    assert len(trials) < 60
    assert (trials[-1] * 0.5 if trials else first) * slope < NOISE * abs(value)


@pytest.mark.parametrize("m,degree,seed", [(3, 16, 9), (3, 32, 4), (4, 16, 7), (3, 16, 6), (3, 32, 6)])
def test_unstable_start_is_labelled_by_its_last_search(monkeypatch, m, degree, seed):
    # positivity_breakdown iff the last search made trials and none kept the
    # grid minimum above the floor relative to the maximum, also at maximum
    # one where it was gated again; the rounding floor must not relabel such
    # a search as a stall.  (3, 32, 6) breaks down
    u0 = random_positive_function(1, degree, degree // 4, np.random.default_rng(seed))
    trace, events = _descent_events(monkeypatch, u0, m, OptimizerConfig(degree=degree, max_iter=400))
    last = max(i for i, event in enumerate(events) if event[0] == "iterate")
    pulled = [x for tag, x, _ in events if tag == "pullback"]
    # each grid check follows the synthesis of its candidate, whose maximum it is held to
    checks, gauge = [], False
    for (tag, x, vals), (then, y, low) in zip(events[last:], events[last + 1 :]):
        if then != "floor":
            continue
        assert tag in ("trial", "regate") and x is y
        gauge = any(y is p for p in pulled) if tag == "trial" else gauge
        if gauge:
            continue
        passed = low > functional.POSITIVITY_FLOOR * float(vals.max())
        # a candidate gated again at maximum one passes only if both checks do
        if tag == "regate":
            checks[-1] = checks[-1] and passed
        else:
            checks.append(passed)
    breakdown = bool(checks) and not any(checks)
    assert (trace.termination_reason == "positivity_breakdown") == breakdown
    assert trace.termination_reason in ("positivity_breakdown", "line_search_stall")
    assert min(trace.min_values) > functional.POSITIVITY_FLOOR


def test_budget_spending_start_reaches_the_gradient_tolerance():
    # this (1,2) start once spent its 400 steps (criterion 02's budget) on
    # 808 syntheses, a doubled trial rejected at nearly every step, and
    # ended 1.2e-5 from 9 pi^4
    target = 9 * math.pi**4
    u0 = random_positive_function(1, 32, 4, np.random.default_rng(144))
    trace = minimize(u0, 2, OptimizerConfig(degree=32, max_iter=400, grad_tol=1e-3 * target))
    assert trace.termination_reason == "gradient_tolerance"
    assert abs(trace.values[-1] - target) / target < 1e-5
