import math

import numpy as np
import pytest

from confsphere.errors import AxisMismatch
from confsphere.geometry import (
    AxisDilation,
    BallPoint,
    Rotation,
    north_pole,
    sphere_measure,
    unit_ball_volume,
)
from pointwise_maps import (
    PoleSingularity,
    as_axis_dilation,
    mobius_apply,
    mobius_compose,
    mobius_inverse,
    mobius_jacobian,
    orthonormal_frame,
    south_pole,
    stereographic_inverse,
    stereographic_project,
)


def random_sphere_point(n, rng):
    v = rng.standard_normal(n + 1)
    return v / np.linalg.norm(v)


def test_sphere_measure_odd_dimensions_closed_form():
    # 2 pi^{(n+1)/2} / ((n-1)/2)! for odd n
    for n, expected in ((1, 2 * math.pi), (3, 2 * math.pi**2), (5, math.pi**3)):
        assert abs(sphere_measure(n) - expected) / expected < 1e-14


def test_unit_ball_volume():
    assert abs(unit_ball_volume(1) - 2.0) < 1e-15
    assert abs(unit_ball_volume(2) - math.pi) < 1e-15
    assert abs(unit_ball_volume(3) - 4 * math.pi / 3) < 1e-15


def test_orthonormal_frame_spans_perp():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 5):
        xi = random_sphere_point(n, rng)
        frame = orthonormal_frame(xi)
        assert frame.shape == (n + 1, n)
        assert np.max(np.abs(frame.T @ frame - np.eye(n))) < 1e-12
        assert np.max(np.abs(frame.T @ xi)) < 1e-12


def test_project_antipode_to_origin():
    xi = north_pole(2)
    assert np.max(np.abs(stereographic_project(xi, -xi))) < 1e-15


def test_project_equator_is_unit():
    # t = 0 on the equator, so coordinates keep unit length
    xi = north_pole(2)
    zeta = np.array([0.0, 1.0, 0.0])
    x = stereographic_project(xi, zeta)
    assert abs(np.linalg.norm(x) - 1.0) < 1e-14


def test_projection_round_trip():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        xi = random_sphere_point(n, rng)
        for _ in range(100):
            zeta = random_sphere_point(n, rng)
            if math.acos(min(1.0, max(-1.0, float(xi @ zeta)))) < 1e-3:
                continue
            x = stereographic_project(xi, zeta)
            back = stereographic_inverse(xi, x)
            assert np.max(np.abs(back - zeta)) < 1e-10


def test_projection_pole_raises():
    xi = north_pole(2)
    with pytest.raises(PoleSingularity):
        stereographic_project(xi, xi)


def test_inverse_at_origin_and_infinity():
    xi = north_pole(3)
    assert np.max(np.abs(stereographic_inverse(xi, np.zeros(3)) + xi)) < 1e-15
    far = np.zeros(3)
    far[0] = 1e8
    assert np.max(np.abs(stereographic_inverse(xi, far) - xi)) < 1e-7


def test_inverse_unit_vector_hits_equator():
    xi = north_pole(2)
    p = stereographic_inverse(xi, np.array([1.0, 0.0]))
    assert abs(np.linalg.norm(p) - 1.0) < 1e-12
    assert abs(float(p @ xi)) < 1e-12


def test_mobius_identity_scale():
    rng = np.random.default_rng(2)
    xi = random_sphere_point(2, rng)
    phi = AxisDilation(axis=xi, scale=1.0)
    for _ in range(10):
        zeta = random_sphere_point(2, rng)
        assert np.max(np.abs(mobius_apply(phi, zeta) - zeta)) < 1e-12


def test_mobius_fixes_antipode_and_pole():
    xi = north_pole(2)
    phi = AxisDilation(axis=xi, scale=3.0)
    assert np.max(np.abs(mobius_apply(phi, -xi) + xi)) < 1e-14
    assert np.max(np.abs(mobius_apply(phi, xi) - xi)) < 1e-14


def test_ball_point_matches_axis_dilation():
    # sigma_a restricted to the sphere is the dilation with xi = a/|a|,
    # lambda = (1-|a|)/(1+|a|)
    rng = np.random.default_rng(3)
    a = np.zeros(3)
    a[0] = 0.3
    ball = BallPoint(center=a)
    dil = as_axis_dilation(ball)
    assert abs(dil.scale - 0.7 / 1.3) < 1e-15
    for _ in range(100):
        zeta = random_sphere_point(2, rng)
        assert np.max(np.abs(mobius_apply(ball, zeta) - mobius_apply(dil, zeta))) < 1e-10


def test_jacobian_values():
    xi = north_pole(2)
    rng = np.random.default_rng(4)
    phi1 = AxisDilation(axis=xi, scale=1.0)
    for _ in range(5):
        assert abs(mobius_jacobian(phi1, random_sphere_point(2, rng)) - 1.0) < 1e-14
    lam = 2.5
    phi = AxisDilation(axis=xi, scale=lam)
    # pi_xi = 0 at the antipode, so J = lambda^n there
    assert abs(mobius_jacobian(phi, -xi) - lam**2) < 1e-12


def test_jacobian_integrates_to_measure():
    # pullback of the volume form preserves total measure
    theta = (np.arange(512) + 0.5) * 2 * math.pi / 512
    xi = north_pole(1)
    phi = AxisDilation(axis=xi, scale=2.0)
    vals = [mobius_jacobian(phi, np.array([math.cos(t), math.sin(t)])) for t in theta]
    integral = float(np.sum(vals)) * 2 * math.pi / 512
    assert abs(integral - 2 * math.pi) < 1e-10


def test_group_property_pointwise():
    rng = np.random.default_rng(5)
    xi = random_sphere_point(3, rng)
    l1, l2 = 2.3, 0.4
    prod = AxisDilation(axis=xi, scale=l1 * l2)
    for _ in range(50):
        zeta = random_sphere_point(3, rng)
        seq = mobius_apply(AxisDilation(axis=xi, scale=l1), mobius_apply(AxisDilation(axis=xi, scale=l2), zeta))
        assert np.max(np.abs(seq - mobius_apply(prod, zeta))) < 1e-10


def test_compose():
    xi = north_pole(2)
    assert abs(mobius_compose(AxisDilation(xi, 2.0), AxisDilation(xi, 0.5)).scale - 1.0) < 1e-15
    assert abs(mobius_compose(AxisDilation(xi, 1.0), AxisDilation(xi, 5.0)).scale - 5.0) < 1e-15
    comp = mobius_compose(AxisDilation(xi, 3.0), AxisDilation(xi, 3.0))
    assert comp.scale == 9.0
    rng = np.random.default_rng(6)
    for _ in range(20):
        zeta = random_sphere_point(2, rng)
        seq = mobius_apply(AxisDilation(xi, 3.0), mobius_apply(AxisDilation(xi, 3.0), zeta))
        assert np.max(np.abs(seq - mobius_apply(comp, zeta))) < 1e-12


def test_compose_axis_mismatch():
    with pytest.raises(AxisMismatch):
        mobius_compose(AxisDilation(north_pole(2), 2.0), AxisDilation(south_pole(2), 2.0))


def test_jacobian_cocycle():
    rng = np.random.default_rng(7)
    xi = random_sphere_point(2, rng)
    p1 = AxisDilation(axis=xi, scale=1.7)
    p2 = AxisDilation(axis=xi, scale=0.6)
    comp = mobius_compose(p1, p2)
    for _ in range(30):
        zeta = random_sphere_point(2, rng)
        lhs = mobius_jacobian(comp, zeta)
        rhs = mobius_jacobian(p1, mobius_apply(p2, zeta)) * mobius_jacobian(p2, zeta)
        assert abs(lhs - rhs) / abs(rhs) < 1e-9


def test_sigma_minus_a_inverts_sigma_a():
    rng = np.random.default_rng(8)
    a = np.array([0.4, -0.2, 0.1])
    fwd, back = BallPoint(center=a), BallPoint(center=-a)
    for _ in range(50):
        zeta = random_sphere_point(2, rng)
        assert np.max(np.abs(mobius_apply(back, mobius_apply(fwd, zeta)) - zeta)) < 1e-10


def test_mobius_inverse_round_trip():
    rng = np.random.default_rng(9)
    zeta = random_sphere_point(2, rng)
    phi = AxisDilation(axis=random_sphere_point(2, rng), scale=3.7)
    assert np.max(np.abs(mobius_apply(mobius_inverse(phi), mobius_apply(phi, zeta)) - zeta)) < 1e-10


def test_rotation_validation():
    with pytest.raises(ValueError):
        Rotation(matrix=np.array([[1.0, 0.1], [0.0, 1.0]]))
    rot = Rotation(matrix=np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert abs(mobius_jacobian(rot, north_pole(1)) - 1.0) < 1e-15


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mobius_maps_refuse_non_finite_entries(bad):
    # a NaN norm or orthogonality defect fails "within UNIT_TOL" as a test
    # written "not <= UNIT_TOL": a NaN or infinite entry of the axis, the
    # matrix or the ball point is refused, as is a non-finite scale
    for n in (1, 3):
        axis = north_pole(n)
        axis[-1] = bad
        with pytest.raises(ValueError):
            AxisDilation(axis, 2.0)
        with pytest.raises(ValueError):
            AxisDilation(north_pole(n), bad)
        matrix = np.eye(n + 1)
        matrix[0, 0] = bad
        with pytest.raises(ValueError):
            Rotation(matrix)
        center = np.zeros(n + 1)
        center[-1] = bad
        with pytest.raises(ValueError):
            BallPoint(center)
    assert AxisDilation(np.array([math.cos(0.3), math.sin(0.3)]), 2.0).scale == 2.0
    assert Rotation(np.array([[0.0, -1.0], [1.0, 0.0]])).n == 1
