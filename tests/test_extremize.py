import math

import numpy as np
import pytest

from confsphere import extremize, functional, mobius, spectral
from confsphere.cli import round_distance
from confsphere.errors import InvalidConfig, NonPositiveFunction
from confsphere.extremize import OptimizerConfig, minimize, perturbation_sweep
from confsphere.functional import Evaluator, el_residual, exponent_q, functional_value, gradient, neg_power_integral
from confsphere.geometry import AxisDilation, north_pole, sphere_measure
from confsphere.gjms import packed_multipliers
from confsphere.mobius import barycenter, pullback
from confsphere.spectral import (
    Discretization,
    constant_function,
    discretization,
    harmonic_basis_function,
    min_on_grid,
    packed_degrees,
    random_band_limited,
    random_positive_function,
)
from confsphere.stability import hessian_eigenvalue
from layered_evaluation import logging_evaluator


def seeded_start(n, degree, seed, max_degree=None):
    rng = np.random.default_rng(seed)
    return random_positive_function(n, degree, max_degree or degree // 4, rng)


def no_gauge(monkeypatch):
    """Make every gauge function of :mod:`confsphere.mobius` fail the test when
    called, after checking that :mod:`confsphere.extremize` holds none of them."""
    held = [name for name, x in vars(extremize).items() if x is mobius or getattr(x, "__module__", None) == mobius.__name__]
    assert held == []
    for name in ("pullback", "barycenter", "find_center", "recenter"):
        monkeypatch.setattr(mobius, name, lambda *a, name=name: pytest.fail(f"minimize called mobius.{name}"))


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
    # an infinite tolerance would end every run before its first step
    with pytest.raises(ValueError, match="grad_tol positive and finite"):
        OptimizerConfig(grad_tol=math.inf)


@pytest.mark.parametrize("field", ["degree", "max_iter"])
@pytest.mark.parametrize("size", [2.5, math.inf, math.nan, 16.0])
def test_config_refuses_a_size_that_is_no_integer(field, size):
    # a float size once passed the check, and range() raised a bare TypeError in minimize
    with pytest.raises(ValueError, match="positive integers"):
        OptimizerConfig(**{field: size})


def test_config_takes_integral_sizes_of_any_integer_type():
    config = OptimizerConfig(degree=np.int64(16), max_iter=np.int32(2))
    u0 = random_positive_function(1, 16, 4, np.random.default_rng(0))
    assert minimize(u0, 1, config).iterations <= 2


def test_config_has_no_unused_knobs():
    # the descent is always preconditioned, and it draws no random numbers;
    # the floor is the gate's, the first trial and the Armijo factor are
    # constants of the descent, and it fixes no Mobius gauge
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
    assert min(trace.min_values) > spectral.POSITIVITY_FLOOR * 0.999999
    assert trace.termination_reason in ("max_iterations", "positivity_breakdown", "line_search_stall")


def test_perturbation_sweep_stable_case():
    rows = perturbation_sweep(3, 2, [1e-2], trials=200, seed=0, degree=24)
    assert min(gap for _, _, gap in rows) >= -1e-9
    # each gap is the exact second variation, eps^2 |S^n|^{2/q} sum_k lam_k
    # phi_k^2 with lam_k = hessian_eigenvalue(n, m, k), up to O(eps^3): the
    # rest is at most 0.1 eps^3 |S^n|^{2/q} sum_k |lam_k| phi_k^2 (measured
    # up to 0.017) at eps = 1e-2 and 1e-3, for both representations
    for (n, m), degree in zip(STABLE_TOLERANCE, (16, 16, 24, 24)):
        lam = np.array([float(hessian_eigenvalue(n, m, k)) for k in range(degree + 1)])[packed_degrees(n, degree)]
        volume = sphere_measure(n) ** (2.0 / exponent_q(n, m))
        for eps in (1e-2, 1e-3):
            rows = perturbation_sweep(n, m, [eps], trials=20, seed=0, degree=degree)
            rng = np.random.default_rng(0)  # the sweep's draws of phi, one per trial
            for _, _, gap in rows:
                phi = random_band_limited(n, degree, degree // 2, rng)
                phi_sq = phi.coeffs * phi.coeffs / phi.norm_sq()
                second = eps**2 * volume * float((lam * phi_sq).sum())
                assert abs(gap - second) <= 0.1 * eps**3 * volume * float((np.abs(lam) * phi_sq).sum()), (n, m, eps)


def test_perturbation_sweep_unstable_direction():
    one = constant_function(1, 1.0, 32)
    base = functional_value(one, 3)
    phi = harmonic_basis_function(1, 2, 32)
    gap = functional_value(one + phi.scaled(1e-2), 3) - base
    assert gap < 0


@pytest.mark.parametrize("eps", [math.inf, -math.inf, math.nan])
def test_perturbation_sweep_refuses_an_eps_that_is_not_finite(eps):
    # 1 + eps phi is not a function; ValueError, as a SpectralFunction of it
    # would raise, and no floating-point warning on the way
    with pytest.raises(ValueError, match="not finite"):
        perturbation_sweep(3, 2, [1e-2, eps], trials=2, seed=0, degree=16)


def test_perturbation_sweep_zero_eps():
    rows = perturbation_sweep(1, 1, [0.0], trials=3, seed=1)
    assert all(gap == 0.0 for _, _, gap in rows)


def _inline_sweep(n, m, epsilons, trials, seed, degree):
    """The sweep as a formula on spectral functions, with I(1) taken afresh and phi on degrees 1..degree // 2."""
    rng = np.random.default_rng(seed)
    one = constant_function(n, 1.0, degree)
    base = functional_value(one, m)
    rows = []
    for trial in range(trials):
        phi = random_band_limited(n, degree, degree // 2, rng)
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
        rows = perturbation_sweep(n, m, epsilons, 3, i, degree=degree)
        want = _inline_sweep(n, m, epsilons, 3, i, degree)
        assert [(t, float.hex(e), float.hex(g)) for t, e, g in rows] == [
            (t, float.hex(e), float.hex(g)) for t, e, g in want
        ], (n, m, degree)
    assert extremize._unit_constant.cache_info().currsize == len(set(calls))


@pytest.mark.parametrize("degree", [1, 0])
def test_perturbation_sweep_refuses_max_degree_outside_1_to_degree(monkeypatch, degree):
    # phi lives on degrees 1..degree // 2: below degree 2 that leaves phi
    # zero, and 1 / |phi| would divide by zero.  It is refused before I(1)
    # is computed
    extremize._unit_constant.cache_clear()
    monkeypatch.setattr(extremize, "functional_value", lambda *a: pytest.fail("I was computed"))
    with pytest.raises(ValueError, match=rf"max_degree 0 lies outside 1\.\.{degree}"):
        perturbation_sweep(1, 1, [1e-2], 2, 0, degree=degree)
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
    # the one positivity gate runs once for the start and once per
    # candidate, each with one synthesis on the nodes, the poles among them
    # on a zonal rule; the accepted candidate's values feed
    # the gradient and barycenter.  A dilated start drifts in the gauge,
    # which the descent leaves alone
    u0 = pullback(seeded_start(n, degree, seed, max_degree=6), AxisDilation(north_pole(n), 3.0), m)
    log, gates = [], []
    logging_evaluator(monkeypatch, n, m, degree, log)
    real = Discretization.gate
    monkeypatch.setattr(Discretization, "gate", lambda self, c, refuse=True: gates.append(c) or real(self, c, refuse))
    no_gauge(monkeypatch)
    trace = minimize(u0, m, OptimizerConfig(degree=degree, max_iter=60))
    values = [c for tag, c, _ in log]
    assert values[0] is u0.coeffs
    assert len(values) == len(gates) >= 1 + trace.iterations
    assert all(v is g for v, g in zip(values, gates))


@pytest.mark.parametrize("n,m,degree,seed", [(1, 1, 32, 11), (3, 2, 32, 1)])
def test_minimize_calls_neg_power_integral_only_to_seek_centers(monkeypatch, n, m, degree, seed):
    # the descent evaluates at maximum one through its own gate and never
    # through the entry points' neg_power_integral, and it seeks no center,
    # not even from a dilated start, nor in the short descent of the
    # benchmark's self-check
    u0 = pullback(seeded_start(n, degree, seed, max_degree=6), AxisDilation(north_pole(n), 3.0), m)
    calls = []
    real = functional.neg_power_integral
    monkeypatch.setattr(functional, "neg_power_integral", lambda *a: calls.append(a) or real(*a))
    no_gauge(monkeypatch)
    minimize(u0, m, OptimizerConfig(degree=degree, max_iter=60))
    minimize(constant_function(1, 1.0, 8), 1, OptimizerConfig(degree=8, max_iter=2))
    assert calls == []


@pytest.mark.parametrize("n,m,degree,seed", [(1, 1, 32, 11), (3, 2, 32, 1), (3, 3, 64, 2)])
def test_min_values_are_the_node_minima_at_maximum_one(monkeypatch, n, m, degree, seed):
    # each row's minU is the gate's node minimum over the maximum, which
    # equals the minimum of the node values at maximum one in the value
    # terms, also from a start pulled back by a dilation
    u0 = pullback(seeded_start(n, degree, seed, max_degree=6), AxisDilation(north_pole(n), 3.0), m)
    minima = {}
    real = Evaluator.terms

    def spy(self, c, vals, k):
        out = real(self, c, vals, k)
        assert float(out[1].max()) == 1.0
        minima.setdefault(out[2], set()).add(float(out[1].min()))
        return out

    monkeypatch.setattr(Evaluator, "terms", spy)
    no_gauge(monkeypatch)
    trace = minimize(u0, m, OptimizerConfig(degree=degree, max_iter=60))
    assert len(trace.min_values) == len(trace.values) > 2
    for value, low in zip(trace.values, trace.min_values):
        assert minima[value] == {low}


#: relative tolerance of a stable descent's final I against I(1), as in the acceptance criteria
STABLE_TOLERANCE = {(1, 1): 1e-6, (1, 2): 1e-5, (3, 2): 1e-6, (3, 3): 1e-6}
STALL, BUDGET = "line_search_stall", "max_iterations"
#: the label of each unstable default descent, s = 1..10, at max_iter=200
UNSTABLE_LABELS = {
    (1, 3): [STALL] * 10,
    (3, 4): [STALL, STALL, BUDGET, STALL, STALL, STALL, STALL, STALL, STALL, STALL],
}


@pytest.mark.parametrize("n,m", [(1, 3), (3, 4)])
def test_every_unstable_descent_ends_on_an_iterate_the_gate_passes(n, m):
    # a candidate passes the gate at its own scale and is kept at maximum
    # one, c / cmax, whose synthesis rounds otherwise; next to the floor the
    # two decisions can differ.  Gated only at its own scale, (1,3) s = 3, 7
    # and (3,4) s = 4, 7 once ended on an iterate that functional_value refused
    for s, label in enumerate(UNSTABLE_LABELS[n, m], start=1):
        u0 = random_positive_function(n, 32, 8, np.random.default_rng(s))
        trace = minimize(u0, m, OptimizerConfig(degree=32, max_iter=200))
        assert trace.termination_reason == label, s
        final = functional_value(trace.final, m)
        assert abs(final - trace.values[-1]) <= 1e-6 * abs(trace.values[-1])


def test_centered_answer_is_round_exactly_in_the_stable_orders():
    # the paper's dichotomy, seen from the reported answer: centered in its
    # Mobius gauge, a stable default descent ends on the round metric
    # (measured max 1.4e-8), an unstable one far from it (measured min 0.34)
    for n, m in [*STABLE_TOLERANCE, *UNSTABLE_LABELS]:
        stable = (n, m) in STABLE_TOLERANCE
        config = OptimizerConfig(degree=32, max_iter=300 if stable else 200)
        for s in range(1, 11):
            u0 = random_positive_function(n, 32, 8, np.random.default_rng(s))
            distance = round_distance(minimize(u0, m, config).final, m)
            if stable:
                assert distance < 1e-7, (n, m, s)
            else:
                assert distance is None or distance > 0.1, (n, m, s)


def test_line_search_rejects_a_dip_at_a_pole():
    # Gauss-Jacobi nodes are interior: a zonal candidate can be positive on
    # them and not at t = +-1, where the gate of gradient() also looks
    u0 = random_positive_function(3, 64, 16, np.random.default_rng(1))
    trace = minimize(u0, 4, OptimizerConfig(degree=64, max_iter=12))
    assert min_on_grid(trace.final) > spectral.POSITIVITY_FLOOR
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
    grid check and ("iterate", terms, gradient) of each gradient.  The
    synthesis of a candidate at maximum one, c / cmax, gated again next to
    the floor, is ("regate", c / cmax, values).  The grid minimum is the
    least of the synthesized node values, the poles among them on a zonal
    rule.  A call into the gauge
    functions of :mod:`confsphere.mobius` fails the test.
    """
    raw = []
    logging_evaluator(monkeypatch, u0.n, m, u0.degree, raw)
    real = Evaluator.gradient

    def gradient_logged(self, terms):
        out = real(self, terms)
        raw.append(("iterate", terms, out))
        return out

    monkeypatch.setattr(Evaluator, "gradient", gradient_logged)
    no_gauge(monkeypatch)
    trace = minimize(u0, m, config)
    events = []
    for tag, x, out in raw:
        if tag == "iterate":
            events.append((tag, x, out))
        else:
            last = next((e for e in reversed(events) if e[0] == "trial"), None)
            again = last is not None and np.array_equal(x, last[1] * (1.0 / float(last[2].max())))
            events.append(("regate" if again else "trial", x, out))
            events.append(("floor", x, float(out.min())))
    return trace, events


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
    the direction is D^-1 grad: "start", "curvature" (s.y <= 0) or "slope"
    (the pair direction's slope is not positive).  A pair direction's first
    trial is 1, any other the last accepted step length (1 at the start),
    and each rejected trial halves the step.  Every trial's coefficients must equal c - alpha d bit
    for bit at the iterate c.
    """
    trace, events = _descent_events(monkeypatch, u0, m, config)
    # D = 2 N0 (1 + |p|), N0 = |u0^{-1}|^2_{L^q} of the start at maximum one,
    # from the start's synthesis, the first event
    q, start = exponent_q(u0.n, m), events[0][2]
    j0 = float(discretization(u0.n, u0.degree, oversample=4).rule.weights.dot((start / float(start.max())) ** -q))
    inv_d = 1.0 / (2.0 * math.exp((2.0 / q) * math.log(j0)) * (1.0 + np.abs(packed_multipliers(u0.n, m, u0.degree))))
    searches, step, accepted_vals = [], 1.0, None
    for tag, x, out in events[1:]:  # the first synthesis is the start
        if tag == "trial":
            trials = searches[-1][3]
            alpha = trials[-1] * 0.5 if trials else searches[-1][2]
            assert np.array_equal(x, c - alpha * direction)
            trials.append(alpha)
            accepted_vals = out
        elif tag == "iterate":
            pair, source = None, "start"
            if searches:
                alpha = searches[-1][3][-1]
                k = float(accepted_vals.max())
                s, y = direction * (-alpha / k), out - k * grad
                pair, source, step = (s, y), "pair", alpha
                if not float(s @ y) > 0:
                    pair, source = None, "curvature"
            c, grad = x[0], out
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
    trace, searches = _line_searches(monkeypatch, u0, 3, OptimizerConfig(degree=32, max_iter=400))
    restarts = [i for i, search in enumerate(searches) if search[4] == "curvature"]
    assert restarts and trace.termination_reason != "max_iterations"
    assert all(searches[i][2] == searches[i - 1][3][-1] for i in restarts)
    assert any(searches[i][2] < 1.0 for i in restarts)


def test_stable_default_descents_accept_their_first_trial(monkeypatch):
    # D = 2 N0 (1 + |p|) has the scale of grad's energy part 2 N p c, so the
    # first search, along D^-1 grad, accepts its unit trial.  In the metric
    # 1 + |p| these 40 descents made 1 to 5 trials in it and 360 steps in all
    steps = 0
    for (n, m), tol in STABLE_TOLERANCE.items():
        target = functional_value(constant_function(n, 1.0, 32), m)
        for s in range(1, 11):
            u0 = random_positive_function(n, 32, 8, np.random.default_rng(s))
            trace, events = _descent_events(monkeypatch, u0, m, OptimizerConfig(degree=32, max_iter=300))
            monkeypatch.undo()
            first, second = [i for i, event in enumerate(events) if event[0] == "iterate"][:2]
            assert [tag for tag, *_ in events[first:second]].count("trial") == 1, (n, m, s)
            assert trace.termination_reason == "line_search_stall"
            assert abs(trace.values[-1] - target) <= tol * abs(target), (n, m, s)
            steps += trace.iterations
    assert steps <= 300


@pytest.mark.parametrize("n,m,degree,seed", [(1, 1, 32, 1), (3, 3, 32, 2), (3, 2, 64, 3)])
def test_line_search_stops_at_the_rounding_floor(monkeypatch, n, m, degree, seed):
    # no trial is made once alpha * slope < 4 ulps of |I|: the last search
    # ends at that floor, short of its 60 halvings, in line_search_stall
    u0 = random_positive_function(n, degree, 8, np.random.default_rng(seed))
    trace, searches = _line_searches(monkeypatch, u0, m, OptimizerConfig(degree=degree, max_iter=300))
    for value, slope, _, trials, _ in searches:
        assert all(alpha * slope >= NOISE * abs(value) for alpha in trials)
    value, slope, first, trials, _ = searches[-1]
    assert trace.termination_reason == "line_search_stall"
    assert len(trials) < 60
    assert (trials[-1] * 0.5 if trials else first) * slope < NOISE * abs(value)


@pytest.mark.parametrize(
    "m,degree,seed", [(3, 16, 9), (3, 32, 4), (4, 16, 7), (3, 16, 6), (3, 32, 6), (3, 16, 7), (4, 16, 5)]
)
def test_unstable_start_is_labelled_by_its_last_search(monkeypatch, m, degree, seed):
    # positivity_breakdown iff the last search made trials and none kept the
    # grid minimum above the floor relative to the maximum, also at maximum
    # one where it was gated again; the rounding floor must not relabel such
    # a search as a stall.  (3, 16, 7) and (4, 16, 5) break down
    u0 = random_positive_function(1, degree, degree // 4, np.random.default_rng(seed))
    trace, events = _descent_events(monkeypatch, u0, m, OptimizerConfig(degree=degree, max_iter=400))
    last = max(i for i, event in enumerate(events) if event[0] == "iterate")
    # each grid check follows the synthesis of its candidate, whose maximum it is held to
    checks = []
    for (tag, x, vals), (then, y, low) in zip(events[last:], events[last + 1 :]):
        if then != "floor":
            continue
        assert tag in ("trial", "regate") and x is y
        passed = low > spectral.POSITIVITY_FLOOR * float(vals.max())
        # a candidate gated again at maximum one passes only if both checks do
        if tag == "regate":
            checks[-1] = checks[-1] and passed
        else:
            checks.append(passed)
    breakdown = bool(checks) and not any(checks)
    assert (trace.termination_reason == "positivity_breakdown") == breakdown
    assert trace.termination_reason in ("positivity_breakdown", "line_search_stall")
    assert min(trace.min_values) > spectral.POSITIVITY_FLOOR


def test_budget_spending_start_reaches_the_gradient_tolerance():
    # this (1,2) start once spent its 400 steps (criterion 02's budget) on
    # 808 syntheses, a doubled trial rejected at nearly every step, and
    # ended 1.2e-5 from 9 pi^4
    target = 9 * math.pi**4
    u0 = random_positive_function(1, 32, 4, np.random.default_rng(144))
    trace = minimize(u0, 2, OptimizerConfig(degree=32, max_iter=400, grad_tol=1e-3 * target))
    assert trace.termination_reason == "gradient_tolerance"
    assert abs(trace.values[-1] - target) / target < 1e-5
