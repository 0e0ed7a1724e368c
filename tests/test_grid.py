import math
import sys

import pytest
from hypothesis import example, given, strategies as st

from copz import DomainError, Grid
from copz.grid import LINEAR, QUADRATIC, Q_ANTISYMMETRIC, Q_EXP, Q_EXP_NEG, Q_SYMMETRIC

ALL_GRIDS = [
    Grid(LINEAR),
    Grid(QUADRATIC),
    Grid(Q_EXP_NEG, 0.5),
    Grid(Q_EXP, 0.5),
    Grid(Q_SYMMETRIC, 0.5),
    Grid(Q_ANTISYMMETRIC, 0.5),
]


def test_pointwise_values():
    assert Grid(QUADRATIC).x(2.0) == 6.0
    assert Grid(Q_SYMMETRIC, 0.37).x(0.0) == 1.0
    assert Grid(LINEAR).x(3.5) == 3.5


def test_inverse_values():
    assert Grid(QUADRATIC).x_inverse(6.0) == pytest.approx(2.0, rel=1e-14)
    assert Grid(Q_EXP_NEG, 0.5).x_inverse(4.0) == pytest.approx(2.0, rel=1e-14)
    assert Grid(Q_SYMMETRIC, 0.5).x_inverse(1.0) == 0.0


def test_derivative_values():
    assert Grid(QUADRATIC).dx_ds(1.0) == 3.0
    assert Grid(LINEAR).dx_ds(123.4) == 1.0
    assert Grid(Q_SYMMETRIC, 0.5).dx_ds(0.0) == 0.0


def test_forward_difference_values():
    assert Grid(LINEAR).delta_x(7.0) == 1.0
    assert Grid(QUADRATIC).delta_x(2.0) == 6.0
    assert Grid(Q_EXP_NEG, 0.5).delta_x(0.0) == pytest.approx(1.0, rel=1e-15)


def test_half_step_difference():
    g = Grid(QUADRATIC)
    assert g.delta_x_half(2.0) == pytest.approx(g.x_raw(2.5) - g.x_raw(1.5), rel=1e-15)


def test_domain_violations():
    with pytest.raises(DomainError):
        Grid(QUADRATIC).x(-0.75)
    with pytest.raises(DomainError):
        Grid(Q_SYMMETRIC, 0.5).x(-0.5)
    with pytest.raises(DomainError):
        Grid(Q_EXP_NEG, 1.5)
    with pytest.raises(DomainError):
        Grid(QUADRATIC).x_inverse(-1.0)
    with pytest.raises(DomainError):
        Grid(Q_EXP, 0.5).x_inverse(-0.1)
    with pytest.raises(DomainError):
        Grid(Q_SYMMETRIC, 0.5).x_inverse(0.5)


def _domain_points(grid):
    if grid.tag == "quadratic":
        return [-0.45, -0.2, 0.0, 0.7, 3.0, 11.5]
    if grid.tag == "q_symmetric":
        return [0.0, 0.3, 1.0, 2.5, 7.0]
    return [-6.0, -1.3, 0.0, 0.4, 2.0, 9.0]


@pytest.mark.parametrize("grid", ALL_GRIDS, ids=lambda g: g.tag)
def test_round_trip(grid):
    for s in _domain_points(grid):
        X = grid.x(s)
        assert grid.x_inverse(X) == pytest.approx(s, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("grid", ALL_GRIDS, ids=lambda g: g.tag)
def test_monotone_direction(grid):
    pts = _domain_points(grid)
    sign = grid.direction
    for s1, s2 in zip(pts, pts[1:]):
        assert sign * (grid.x(s2) - grid.x(s1)) > 0.0


@pytest.mark.parametrize("grid", ALL_GRIDS, ids=lambda g: g.tag)
def test_derivative_matches_finite_difference(grid):
    h = 1e-5
    for s in _domain_points(grid):
        if not grid.domain_contains(s - h):
            continue
        fd = (grid.x_raw(s + h) - grid.x_raw(s - h)) / (2.0 * h)
        exact = grid.dx_ds(s)
        assert fd == pytest.approx(exact, rel=1e-6, abs=1e-9)


@given(
    st.floats(min_value=-0.49, max_value=20.0),
    st.floats(min_value=0.05, max_value=0.95),
)
@example(s=1.1567377555104551e-07, q=0.875)
@example(s=19.53125, q=0.1)  # one ulp of s is 68 ulps of X here
def test_quadratic_and_symmetric_round_trip_property(s, q):
    gq = Grid(QUADRATIC)
    assert gq.x_inverse(gq.x(s)) == pytest.approx(s, rel=1e-12, abs=1e-9)
    gs = Grid(Q_SYMMETRIC, q)
    sp = abs(s)
    X = gs.x(sp)
    back = gs.x_inverse(X)
    # near s=0 the map is cosh(s ln q): a float X fixes s only to about
    # sqrt(eps)/|ln q|, but the recovered s must reproduce X itself
    abs_tol = 2.0 * math.sqrt(sys.float_info.epsilon) / abs(math.log(q))
    assert back == pytest.approx(sp, rel=1e-9, abs=abs_tol)
    assert abs(gs.x(back) - X) <= 64 * math.ulp(X)


def test_theta_relation():
    g = Grid(Q_SYMMETRIC, 0.4)
    assert math.exp(-2.0 * g.theta) == pytest.approx(0.4, rel=1e-15)
    # cosh profile in s with rate 2*theta
    s = 1.7
    assert g.x(s) == pytest.approx(math.cosh(2.0 * g.theta * s), rel=1e-14)
    ga = Grid(Q_ANTISYMMETRIC, 0.4)
    assert ga.x(s) == pytest.approx(math.sinh(2.0 * ga.theta * s), rel=1e-14)
