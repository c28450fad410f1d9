import math
import warnings

import numpy as np
import pytest

from confsphere.errors import AxisMismatch, ConfSphereError, NonPositiveFunction
from confsphere.functional import energy_quadratic, exponent_q, functional_value
from confsphere.geometry import (
    AxisDilation,
    BallPoint,
    Rotation,
    axis_dilation_jacobian_t,
    north_pole,
    sphere_surface_area,
)
from confsphere import mobius
from confsphere.mobius import (
    barycenter,
    extremal,
    extremal_values,
    find_center,
    pullback,
    recenter,
)
from confsphere.spectral import (
    SpectralFunction,
    _ball_moment,
    circle_quadrature,
    constant_function,
    harmonic_basis_function,
    random_positive_function,
    synthesize,
)
from pointwise_maps import mobius_apply, mobius_jacobian


def test_pullback_identity_map():
    rng = np.random.default_rng(0)
    u = random_positive_function(1, 32, 8, rng)
    for phi in (AxisDilation(north_pole(1), 1.0), BallPoint(np.zeros(2))):
        same = pullback(u, phi, 1)
        assert np.max(np.abs(same.coeffs - u.coeffs)) < 1e-12


def test_pullback_of_constant_is_extremal():
    lam = 2.5
    phi = AxisDilation(north_pole(1), lam)
    one = constant_function(1, 1.0, 48)
    pulled = pullback(one, phi, 1)
    closed = extremal(1, 1, 48, lam=lam)
    assert np.max(np.abs(pulled.coeffs - closed.coeffs)) < 1e-10


def test_energy_invariance_circle():
    rng = np.random.default_rng(1)
    for m in (1, 2):
        for _ in range(10):
            u = random_positive_function(1, 64, 10, rng)
            lam = float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
            up = pullback(u, AxisDilation(north_pole(1), lam), m)
            e0, e1 = energy_quadratic(u, m), energy_quadratic(up, m)
            assert abs(e1 - e0) / abs(e0) < 1e-7


def test_energy_invariance_zonal():
    rng = np.random.default_rng(2)
    for m in (2, 3):
        for _ in range(5):
            u = random_positive_function(3, 64, 10, rng)
            lam = float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
            up = pullback(u, AxisDilation(u.axis, lam), m)
            e0, e1 = energy_quadratic(u, m), energy_quadratic(up, m)
            assert abs(e1 - e0) / abs(e0) < 1e-7


def test_pullback_invariance_holds_once_padded():
    # at (3, 2), L=64 the invariance of I misses 1e-6 for some u at
    # lambda = 1/4 and 4: the pullback truncates at the degree of its input.
    # Padded to L=128 first, the same pullbacks hold I to 1e-8
    rng = np.random.default_rng(21)
    for lam in (0.25, 4.0):
        for _ in range(20):
            u = random_positive_function(3, 64, 10, rng)
            padded = SpectralFunction(3, np.concatenate([u.coeffs, np.zeros(64)]), u.axis)
            pulled = pullback(padded, AxisDilation(u.axis, lam), 2)
            assert abs(functional_value(pulled, 2) / functional_value(u, 2) - 1.0) < 1e-8


def test_pullback_group_action():
    rng = np.random.default_rng(3)
    u = random_positive_function(1, 64, 10, rng)
    xi = north_pole(1)
    l1, l2 = 1.6, 0.5
    two_step = pullback(pullback(u, AxisDilation(xi, l2), 1), AxisDilation(xi, l1), 1)
    one_step = pullback(u, AxisDilation(xi, l1 * l2), 1)
    diff = np.max(np.abs(two_step.coeffs - one_step.coeffs))
    assert diff < 1e-7


@pytest.mark.parametrize("n,m,works,fails", [(1, 1, 1e14, 1e16), (1, 1, 1e-14, 1e300), (3, 2, 1e-100, 1e-200), (3, 2, 1e100, 1e300)])
def test_pullback_out_of_float_range_is_a_typed_error(n, m, works, fails):
    # on the circle (1 - lam) / (1 + lam) rounds to -1 near lam = 1e16 and
    # the weight is 0 to a negative power; on S^3 the Jacobian underflows
    # to 0 near lam = 1e-200.  No RuntimeWarning either way
    u = random_positive_function(n, 16, 4, np.random.default_rng(0))
    axis = north_pole(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(pullback(u, AxisDilation(axis, works), m).coeffs).all()
        with pytest.raises(ConfSphereError):
            pullback(u, AxisDilation(axis, fails), m)


def _pointwise_pullback(u, phi, m, points):
    """J_phi^{(n-2m)/(2n)}(x) u(phi(x)) at angles, or at axis cosines of u, mapped point by point."""
    n = u.n
    out = []
    for x in points:
        if n == 1:
            zeta = np.array([math.cos(x), math.sin(x)])
        else:
            # a point at axis cosine x, off the axis along the next coordinate
            zeta = x * u.axis + math.sqrt(max((1.0 - x) * (1.0 + x), 0.0)) * np.eye(n + 1)[1]
        image = mobius_apply(phi, zeta)
        at = math.atan2(image[1], image[0]) if n == 1 else float(image @ u.axis)
        weight = mobius_jacobian(phi, zeta) ** ((n - 2 * m) / (2.0 * n))
        out.append(weight * float(synthesize(u, np.array([at]))[0]))
    return np.array(out)


def _pullback_oracle_cases():
    turn = 0.7
    c, s = math.cos(turn), math.sin(turn)
    circle = [
        Rotation(np.array([[c, -s], [s, c]])),
        Rotation(np.array([[c, s], [s, -c]])),  # a reflection, det -1
        BallPoint(np.array([0.2, -0.3])),
        AxisDilation(np.array([math.cos(1.0), math.sin(1.0)]), 2.5),
        AxisDilation(north_pole(1), 0.4),
    ]
    zonal = [AxisDilation(north_pole(3), lam) for lam in (0.4, 2.5)] + [AxisDilation(-north_pole(3), 2.5)]
    return [(1, m, phi) for m in (1, 2) for phi in circle] + [(3, m, phi) for m in (2, 3) for phi in zonal]


@pytest.mark.parametrize("n,m,phi", _pullback_oracle_cases())
def test_pullback_matches_the_pointwise_map(n, m, phi):
    # the pullback off the grid against J^{(n-2m)/(2n)} u o phi from the
    # pointwise Mobius maps: pins the direction of each map and the exponent
    # of its weight; what remains is the truncation at the degree of u and
    # the rounding (measured: 8.3e-14 relative at most)
    rng = np.random.default_rng(31 + n + m)
    u = random_positive_function(n, 64, 6, rng)
    points = rng.uniform(0.0, 2.0 * math.pi, 40) if n == 1 else rng.uniform(-1.0, 1.0, 40)
    expected = _pointwise_pullback(u, phi, m, points)
    err = np.max(np.abs(synthesize(pullback(u, phi, m), points) - expected))
    assert err <= 1e-12 * np.max(np.abs(expected)), err


def test_pullback_axis_mismatch():
    u = random_positive_function(3, 16, 4, np.random.default_rng(4))
    off_axis = np.array([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(AxisMismatch):
        pullback(u, AxisDilation(off_axis, 2.0), 2)


def test_circle_pullback_rejects_a_dilation_of_s3():
    u = random_positive_function(1, 16, 4, np.random.default_rng(4))
    with pytest.raises(AxisMismatch):
        pullback(u, AxisDilation(north_pole(3), 2.0), 1)


def test_circle_pullback_rejects_a_ball_point_of_r4():
    u = random_positive_function(1, 16, 4, np.random.default_rng(4))
    with pytest.raises(AxisMismatch):
        pullback(u, BallPoint(np.array([0.1, 0.2, 0.3, 0.0])), 1)


def test_zonal_pullback_rejects_a_circle_map():
    u = random_positive_function(3, 16, 4, np.random.default_rng(4))
    for phi in (AxisDilation(north_pole(1), 2.0), BallPoint(np.array([0.3, 0.0]))):
        with pytest.raises(AxisMismatch):
            pullback(u, phi, 2)


def test_extremal_rejects_an_axis_of_another_sphere():
    with pytest.raises(AxisMismatch):
        extremal(1, 1, 16, 2.0, axis=north_pole(3))
    with pytest.raises(AxisMismatch):
        extremal(3, 2, 16, 2.0, axis=north_pole(1))


def test_circle_extremal_centres_its_bump_at_the_axis_angle():
    # the circle function carries no axis; the axis only rotates the bump
    base = extremal(1, 2, 16, 2.0)
    turned = extremal(1, 2, 16, 2.0, axis=np.array([0.0, 1.0]))
    assert base.axis is None and turned.axis is None
    theta = np.linspace(0.0, 2.0 * np.pi, 37)
    assert np.allclose(synthesize(turned, theta + np.pi / 2), synthesize(base, theta), atol=1e-12)
    assert not np.allclose(synthesize(turned, theta), synthesize(base, theta), atol=1e-3)


def test_pullback_antipodal_axis_is_inverse_dilation():
    rng = np.random.default_rng(5)
    u = random_positive_function(3, 32, 6, rng)
    lam = 1.7
    a = pullback(u, AxisDilation(-u.axis, lam), 2)
    b = pullback(u, AxisDilation(u.axis, 1.0 / lam), 2)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12


def test_extremal_lam_one_is_constant():
    u = extremal(3, 2, 16, lam=1.0, scale=2.5)
    vals = synthesize(u, np.linspace(-0.99, 0.99, 21))
    assert np.max(np.abs(vals - 2.5)) < 1e-12


def test_extremal_functional_values():
    ext1 = extremal(1, 1, 48, lam=2.0)
    assert abs(functional_value(ext1, 1) + math.pi**2) / math.pi**2 < 1e-8
    ext2 = extremal(1, 2, 48, lam=2.0)
    assert abs(functional_value(ext2, 2) - 9 * math.pi**4) / (9 * math.pi**4) < 1e-6


def test_extremal_shape_at_large_lam():
    # the extremal divided by the Jacobian weight is the constant scale,
    # pointwise, even deep in the concentration regime
    t = np.linspace(-0.999, 0.999, 101)
    for n, m in ((1, 1), (3, 2)):
        lam = 50.0
        vals = extremal_values(n, m, t, lam, scale=1.3)
        jw = axis_dilation_jacobian_t(t, lam, n) ** ((n - 2 * m) / (2.0 * n))
        ratio = vals / jw
        assert np.max(np.abs(ratio - 1.3)) < 1e-8


def test_extremal_positive():
    u = extremal(1, 2, 48, lam=3.0)
    rule = circle_quadrature(512)
    assert np.min(synthesize(u, rule.nodes)) > 0


STABLE_ORDERS = ((1, 1), (1, 2), (3, 2), (3, 3))


def _dense_reference(u, a, m):
    """V(a) on a 32x-oversampled rule: u summed off-grid at the nodes y, then u^{-q} and sigma_{-a}(y).

    On S^n, n >= 3, the rule is the midpoint rule in the polar angle, which
    is spectrally accurate for zonal integrands and needs no eigensolver.
    """
    size = 32 * (2 * u.degree + 2 if u.n == 1 else u.degree + 1)
    theta = (np.arange(size) + 0.5) * (2.0 if u.n == 1 else 1.0) * math.pi / size
    if u.n == 1:
        points, y, x = theta, np.column_stack([np.cos(theta), np.sin(theta)]), np.asarray(a, dtype=float)
        weights = np.full(size, 2.0 * math.pi / size)
    else:
        points, x = np.cos(theta), np.array([a @ u.axis])
        y = points[:, None]
        weights = sphere_surface_area(u.n) * np.sin(theta) ** (u.n - 1) * (math.pi / size)
    mass = weights * synthesize(u, points) ** (-exponent_q(u.n, m))
    x2, yx = float(x @ x), y @ x
    mapped = ((1.0 - x2) * y + (2.0 + 2.0 * yx)[:, None] * x) / (1.0 + x2 + 2.0 * yx)[:, None]
    v = mapped.T @ mass / mass.sum()
    return v if u.n == 1 else float(v[0]) * u.axis


def test_barycenter_of_constant_at_zero():
    one = constant_function(1, 1.0, 16)
    c = barycenter(one, np.zeros(2), 1)
    assert np.max(np.abs(c)) < 1e-12
    one3 = constant_function(3, 1.0, 16)
    c3 = barycenter(one3, np.zeros(4), 2)
    assert np.max(np.abs(c3)) < 1e-12


def test_barycenter_direction_and_dense_oracle():
    # sigma_a with a = 0.5 e1 moves the volume toward e1; verified against
    # the dense reference
    for n, m in ((1, 1), (3, 2)):
        one = constant_function(n, 1.0, 16)
        a = np.zeros(n + 1)
        a[0] = 0.5
        c = barycenter(one, a, m)
        assert c[0] > 0
        assert np.max(np.abs(c - _dense_reference(one, a, m))) < 1e-8


def test_barycenter_requires_positive():
    s = harmonic_basis_function(1, 1, 8, component="sin")
    with pytest.raises(NonPositiveFunction):
        barycenter(s, np.zeros(2), 1)


def test_barycenter_off_axis_ball_point_rejected():
    u = constant_function(3, 1.0, 8)
    with pytest.raises(AxisMismatch):
        barycenter(u, np.array([0.0, 0.5, 0.0, 0.0]), 2)


def test_barycenter_rejects_points_outside_the_open_ball():
    # the circle too, where |a| >= 1 once returned a point
    for n, m in ((1, 1), (3, 2)):
        one = constant_function(n, 1.0, 8)
        for r in (1.0, 2.0):
            a = np.zeros(n + 1)
            a[0] = r
            with pytest.raises(ValueError):
                barycenter(one, a, m)


def test_barycenter_rejects_a_point_of_another_dimension():
    with pytest.raises(AxisMismatch):
        barycenter(constant_function(1, 1.0, 8), np.array([0.1, 0.2, 0.3, 0.0]), 1)
    with pytest.raises(AxisMismatch):
        barycenter(constant_function(3, 1.0, 8), np.array([0.3, 0.0]), 2)


def test_find_center_constant():
    one = constant_function(1, 1.0, 16)
    res = find_center(one, 1)
    assert res.converged and np.max(np.abs(res.a)) < 1e-8


def test_find_center_extremal_circle():
    # recentering the lam = 4 extremal lands at r = (lam-1)/(lam+1) = 0.6
    u = extremal(1, 1, 48, lam=4.0)
    res = find_center(u, 1)
    assert res.converged
    assert abs(res.a[0] - 0.6) < 1e-6 and abs(res.a[1]) < 1e-6
    centered, _ = recenter(u, 1)
    drift = abs(functional_value(centered, 1) - functional_value(u, 1)) / abs(functional_value(u, 1))
    assert drift < 1e-7
    # centered iterate has barycenter at the origin
    assert np.linalg.norm(barycenter(centered, np.zeros(2), 1)) < 1e-7


def test_find_center_extremal_zonal():
    u = extremal(3, 2, 48, lam=4.0)
    res = find_center(u, 2)
    assert res.converged
    assert abs(float(res.a @ u.axis) - 0.6) < 1e-6


def test_find_center_degree_one_perturbation():
    u = constant_function(1, 1.0, 32) + harmonic_basis_function(1, 1, 32).scaled(0.5)
    res = find_center(u, 1)
    assert res.converged and res.residual < 1e-8
    assert np.linalg.norm(_dense_reference(u, res.a, 1)) < 1e-8


def test_find_center_converges_where_the_u_moment_has_no_root():
    # the first moment of u_a itself has no root for these two draws at
    # m = 1; the volume barycenter has one, well inside the ball
    rng = np.random.default_rng(5)
    draws = [random_positive_function(1, 32, 6, rng, amplitude=0.8) for _ in range(5)]
    for u, radius in ((draws[1], 0.74), (draws[4], 0.70)):
        res = find_center(u, 1)
        assert res.converged and res.residual < 1e-8
        assert abs(float(np.linalg.norm(res.a)) - radius) < 0.01


def test_find_center_converges_on_random_starts():
    # 300 starts: the four stable orders, three amplitudes, 25 draws each.
    # At |a*| <= 0.5 the root agrees with the dense reference: within 1e-7
    # up to amplitude 0.8; at 0.95, where u^{-q} (q = 6 at (3, 2)) is most
    # concentrated, within 1e-5, the 4x rule's error for u^{-q}
    rng = np.random.default_rng(11)
    for n, m in STABLE_ORDERS:
        for amplitude in (0.45, 0.8, 0.95):
            for _ in range(25):
                u = random_positive_function(n, 32, 8, rng, amplitude=amplitude)
                res = find_center(u, m)
                assert res.converged and res.iterations <= 10, (n, m, amplitude, res)
                if np.linalg.norm(res.a) <= 0.5:
                    err = np.linalg.norm(_dense_reference(u, res.a, m))
                    assert err < (1e-7 if amplitude < 0.9 else 1e-5), (n, m, amplitude, err)


def _ball_point(u, radius, rng):
    if u.n == 1:
        d = rng.standard_normal(2)
        return radius * d / np.linalg.norm(d)
    return radius * float(rng.choice([-1.0, 1.0])) * u.axis


@pytest.mark.parametrize("n,m", STABLE_ORDERS)
@pytest.mark.parametrize("degree", [32, 64])
def test_node_form_agrees_with_mapped_points(n, m, degree):
    # barycenter sums V(a) over u^{-q} on the 4x nodes; the reference maps
    # the points of a 32x rule
    rng = np.random.default_rng(100 * n + 10 * m + degree)
    for _ in range(3):
        u = random_positive_function(n, degree, 10, rng)
        for radius in (0.1, 0.3, 0.5):
            a = _ball_point(u, radius, rng)
            err = np.max(np.abs(barycenter(u, a, m) - _dense_reference(u, a, m)))
            assert err < 1e-13, (radius, err)


def _real_parts(v):
    """A complex V as the 2-vector (Re V, Im V); a float as a 1-vector."""
    return np.array([v.real, v.imag]) if isinstance(v, complex) else np.array([v])


def _real_jacobian(da, db):
    """dV/d(a_0, a_1) from the Wirtinger pair: dV/da_0 = A + B and dV/da_1 = i (A - B)."""
    return np.column_stack([_real_parts(complex(da + db)), _real_parts(complex(1j * (da - db)))])


@pytest.mark.parametrize("n,m", STABLE_ORDERS)
def test_node_form_jacobian_matches_central_differences(n, m):
    rng = np.random.default_rng(13 + n + m)
    u = random_positive_function(n, 32, 8, rng)
    disc, neg = mobius._volume(u, m)
    dim = 2 if n == 1 else 1
    h = 1e-5
    for radius in (0.0, 0.2, 0.5, 0.9):
        d = rng.standard_normal(dim)
        a = radius * d / np.linalg.norm(d)
        # zonal V and its slope are floats of the float r = a . xi; circle V
        # is complex in the complex a, its Wirtinger pair assembled into the
        # real 2x2 Jacobian
        if n == 1:
            a, steps = complex(*a), (1.0, 1j)
            _, wirtinger = _ball_moment(disc, neg, a, slope=True)
            jac = _real_jacobian(*wirtinger)
        else:
            a, steps = float(a[0]), (1.0,)
            _, jac = _ball_moment(disc, neg, a, slope=True)
        fd = np.column_stack(
            [_real_parts((_ball_moment(disc, neg, a + h * e) - _ball_moment(disc, neg, a - h * e)) / (2 * h)) for e in steps]
        )
        assert np.max(np.abs(jac - fd)) < 1e-6 * np.max(np.abs(jac)), radius


def _array_ball_moment(disc, values, a, slope=False):
    """The zonal V(a) and dV/da summed on (K, 1) arrays of the node coordinates, a of shape (1,).

    The d-dimensional node formula with d = 1, as the zonal kernel ran
    before it took the float r; the reference its float arithmetic keeps.
    """
    y, w = disc.rule.nodes[:, None], disc.rule.weights
    a2 = float(a.dot(a))
    if a2 == 0.0:
        ya, dd, f, v = 0.0, 1.0, values, y
    else:
        ya = y @ a
        dd = (1.0 + a2) + 2.0 * ya
        f = values / dd
        v = (1.0 - a2) * y + (2.0 + 2.0 * ya)[:, None] * a
    c = np.array([w @ (f * v[:, 0])])
    if not slope:
        return c
    g = w * f
    gy = y.T @ g
    jac = -2.0 * (v.T @ ((g / dd)[:, None] * (y + a)))
    jac += 2.0 * (a[:, None] * gy - gy[:, None] * a)
    jac.flat[:: a.size + 1] += float(np.sum(g * (2.0 + 2.0 * ya)))
    return c, jac


def _array_find_center(u, m, tol=1e-8, max_iter=80):
    """find_center's damped Newton loop on :func:`_array_ball_moment`: 1x1 solves and 1-vector norms."""
    disc, neg = mobius._volume(u, m)
    x = np.zeros(1)
    v, jac = _array_ball_moment(disc, neg, x, slope=True)
    res = float(np.linalg.norm(v))
    steps = 0
    while res >= tol and steps < max_iter:
        try:
            step = np.linalg.solve(jac, -v)
        except np.linalg.LinAlgError:
            step = -v
        for _ in range(30):
            cand = x + step
            r = float(np.linalg.norm(cand))
            cand = cand if r < 0.999999 else cand * (0.999999 / r)
            cv, cjac = _array_ball_moment(disc, neg, cand, slope=True)
            cres = float(np.linalg.norm(cv))
            if cres < res:
                break
            step = step / 2.0
        else:
            break
        x, v, jac, res = cand, cv, cjac, cres
        steps += 1
    return float(x[0]) * u.axis, res, steps


def _array_circle_moment(disc, values, a, slope=False):
    """The circle V(a) and its 2x2 Jacobian dV/da on (K, 2) arrays of the nodes (cos th, sin th).

    The real 2-vector formula the circle kernel ran before it took the
    complex a of the unit disk; the reference for that kernel.
    """
    y, w = np.column_stack([disc.points.real, disc.points.imag]), disc.rule.weights
    a2 = float(a.dot(a))
    if a2 == 0.0:
        dd, b, f, v = 1.0, 2.0, values, y
    else:
        ya = y @ a
        dd = (1.0 + a2) + 2.0 * ya
        b = 2.0 + 2.0 * ya
        f = values / dd
        v = (1.0 - a2) * y + np.multiply.outer(b, a)
    c = v.T @ (w * f)
    if not slope:
        return c
    g = w * f
    gy = y.T @ g
    jac = -2.0 * (v.T @ ((g / dd)[:, None] * (y + a)))
    jac += 2.0 * (a[:, None] * gy - gy[:, None] * a)
    jac.flat[::3] += float(np.sum(g * b))
    return c, jac


def _array_circle_find_center(u, m, tol=1e-8, max_iter=80):
    """find_center's damped Newton loop on :func:`_array_circle_moment`: 2x2 solves and 2-norms."""
    disc, neg = mobius._volume(u, m)
    x = np.zeros(2)
    v, jac = _array_circle_moment(disc, neg, x, slope=True)
    res = float(np.linalg.norm(v))
    steps = 0
    while res >= tol and steps < max_iter:
        try:
            step = np.linalg.solve(jac, -v)
        except np.linalg.LinAlgError:
            step = -v
        for _ in range(30):
            cand = x + step
            r = float(np.linalg.norm(cand))
            cand = cand if r < 0.999999 else cand * (0.999999 / r)
            cv, cjac = _array_circle_moment(disc, neg, cand, slope=True)
            cres = float(np.linalg.norm(cv))
            if cres < res:
                break
            step = step / 2.0
        else:
            break
        x, v, jac, res = cand, cv, cjac, cres
        steps += 1
    return x, res, steps


def _circle_gauge_cases():
    """(u, m): the circle starts of the 300-start set, then the L=64 extremals with lambda in 1/4..8."""
    rng = np.random.default_rng(11)
    for n, m in STABLE_ORDERS:
        for amplitude in (0.45, 0.8, 0.95):
            for _ in range(25):
                u = random_positive_function(n, 32, 8, rng, amplitude=amplitude)
                if n == 1:
                    yield u, m
    for m in (1, 2):
        for lam in (0.25, 0.5, 2.0 / 3.0, 1.0, 1.5, 2.0, 4.0, 8.0):
            yield extremal(1, m, 64, lam), m


def test_circle_gauge_matches_the_real_array_formula():
    # the disk kernel sums in another order than the (K, 2) formula: V and
    # the assembled Jacobian agree within 16 eps / (1 - |a|)^2, absolute and
    # relative to the largest entry (measured: 4 and 7.5 eps at most); the
    # Newton solves take the same steps to centers within 1e-14
    eps = 2.0**-52
    cases = 0
    for u, m in _circle_gauge_cases():
        disc, neg = mobius._volume(u, m)
        rng = np.random.default_rng(cases)
        for radius in (0.0, 0.3, 0.6, 0.9, 0.99):
            d = rng.standard_normal(2)
            a = radius * d / np.linalg.norm(d)
            v, wirtinger = _ball_moment(disc, neg, complex(*a), slope=True)
            ref_v, ref_jac = _array_circle_moment(disc, neg, a, slope=True)
            bound = 16.0 * eps / (1.0 - radius) ** 2
            assert np.max(np.abs(_real_parts(v) - ref_v)) <= bound, (cases, radius)
            jac_err = np.max(np.abs(_real_jacobian(*wirtinger) - ref_jac))
            assert jac_err <= bound * np.max(np.abs(ref_jac)), (cases, radius)
            assert _ball_moment(disc, neg, complex(*a)) == v
        res = find_center(u, m)
        a, residual, steps = _array_circle_find_center(u, m)
        assert (res.iterations, res.converged) == (steps, residual < 1e-8), cases
        assert np.max(np.abs(res.a - a)) <= 1e-14, cases
        cases += 1
    assert cases == 150 + 16


def _zonal_gauge_cases():
    """(u, m): the zonal starts of the 300-start set, then the L=64 extremals with lambda in 1/4..8."""
    rng = np.random.default_rng(11)
    for n, m in STABLE_ORDERS:
        for amplitude in (0.45, 0.8, 0.95):
            for _ in range(25):
                # circle draws too, so the zonal ones are those of the set
                u = random_positive_function(n, 32, 8, rng, amplitude=amplitude)
                if n != 1:
                    yield u, m
    for n, m in STABLE_ORDERS[2:]:
        for lam in (0.25, 0.5, 2.0 / 3.0, 1.0, 1.5, 2.0, 4.0, 8.0):
            yield extremal(n, m, 64, lam), m


def test_zonal_gauge_keeps_the_bits_of_the_array_formula():
    # the axis kernel takes sigma_{-a} in closed form, t -> (t + rho) /
    # (1 + rho t): V and dV/dr agree with the (K, 1)-array formula within
    # 16 eps / (1 - |r|)^2, as on the circle, at |r| up to 0.99; V absolute,
    # dV/dr absolute and relative where it exceeds 1 (measured: 1.0 and 8.5
    # eps at most, in units of that factor).  The closed form sums positive
    # terms, where the array formula cancels.  V(0) keeps its bits; the
    # Newton solves take the same steps to centers within 1e-14
    eps = 2.0**-52
    h = float.hex
    cases = 0
    for u, m in _zonal_gauge_cases():
        disc, neg = mobius._volume(u, m)
        for r in (0.0, -0.99, -0.9, -0.6, -0.3, -1e-3, 1e-3, 0.3, 0.6, 0.9, 0.99):
            v, dv = _ball_moment(disc, neg, r, slope=True)
            ref_v, ref_dv = _array_ball_moment(disc, neg, np.array([r]), slope=True)
            ref_v, ref_dv = float(ref_v[0]), float(ref_dv[0, 0])
            bound = 16.0 * eps / (1.0 - abs(r)) ** 2
            assert abs(v - ref_v) <= bound, (cases, r)
            assert abs(dv - ref_dv) <= bound * max(1.0, abs(ref_dv)), (cases, r)
            assert h(_ball_moment(disc, neg, r)) == h(v)
            if r == 0.0:
                assert h(v) == h(ref_v)
        res = find_center(u, m)
        a, residual, steps = _array_find_center(u, m)
        assert (res.iterations, res.converged) == (steps, residual < 1e-8), cases
        assert np.max(np.abs(res.a - a)) <= 1e-14, cases
        cases += 1
    assert cases == 150 + 16


@pytest.mark.parametrize("n,m", STABLE_ORDERS)
def test_moment_at_zero_keeps_its_bits(n, m):
    # V(0), the descent's centroid and the first residual of find_center, is
    # the plain sum w . (f y) over the node coordinates, with or without the
    # slope and at a = -0 too, so a descent that never recenters keeps its bits
    rng = np.random.default_rng(40 + 10 * n + m)
    zero = 0j if n == 1 else 0.0
    for degree in (16, 32, 64):
        u = random_positive_function(n, degree, 8, rng)
        disc, neg = mobius._volume(u, m)
        w = disc.rule.weights
        plain = (w * neg).dot(disc.points) if n == 1 else float(w.dot(neg * disc.points))
        for a in (zero, -zero):
            assert _ball_moment(disc, neg, a) == plain
            assert _ball_moment(disc, neg, a, slope=True)[0] == plain
        if n != 1:
            assert float.hex(plain) == float.hex(float(_array_ball_moment(disc, neg, np.zeros(1))[0]))
        # a tolerance above |V(0)| stops the solve at its start
        assert find_center(u, m, tol=1.0).residual == abs(plain)


@pytest.mark.parametrize("n,m", STABLE_ORDERS)
def test_find_center_undoes_the_dilation(n, m):
    # the dilation of scale lam about e_0 is undone at (lam-1)/(lam+1) e_0
    for lam in (0.5, 2.0 / 3.0, 1.5, 2.0):
        res = find_center(extremal(n, m, 64, lam), m)
        expected = np.zeros(n + 1)
        expected[0] = (lam - 1.0) / (lam + 1.0)
        assert res.converged
        assert np.max(np.abs(res.a - expected)) < 1e-8, (lam, res.a)


def test_functional_invariance_under_pullback():
    rng = np.random.default_rng(7)
    u = random_positive_function(1, 64, 10, rng)
    base = functional_value(u, 1)
    for lam in (0.3, 2.0, 4.0):
        up = pullback(u, AxisDilation(north_pole(1), lam), 1)
        assert abs(functional_value(up, 1) - base) / abs(base) < 1e-6

