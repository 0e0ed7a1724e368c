import random

import pytest

from copz import (
    DomainError,
    WeightMismatchError,
    ZeroProblem,
    connection_residual,
    find_zeros,
    interlace_check,
    make_family,
)
from copz.interlacing import classify_case, same_weight


def test_hahn_shared_weight_detection():
    # the first shape parameter at zero makes the weight N-free
    s5 = make_family("hahn", alpha=0.0, beta=0.7, N=5)
    s6 = make_family("hahn", alpha=0.0, beta=0.7, N=6)
    assert same_weight(s5, s6)
    t5 = make_family("hahn", alpha=1.0, beta=0.7, N=5)
    t6 = make_family("hahn", alpha=1.0, beta=0.7, N=6)
    assert not same_weight(t5, t6)


def test_interlace_example_uniform_weight():
    # one new zero in each of (Y_1, Y_2), ..., (Y_n, x(b)) on an increasing lattice
    rep = interlace_check("hahn", {"alpha": 0.0, "beta": 0.0}, 3, 8)
    assert rep.case == "interior-interlace"
    assert rep.xb == 8.0
    assert rep.zone_counts == (1, 1, 1)
    assert rep.zones_ok
    # Y_4 = x(b): the extra zero appears above the old top zero
    assert rep.zeros_n1[-1] > rep.zeros_n[-1]


def test_interlace_needs_room_for_n_plus_one():
    # N=60 is a valid instance, but its N+1 partner is not
    with pytest.raises(DomainError, match=r"N\+1 <= 60 \(got 60\)"):
        interlace_check("hahn", {"alpha": 0.0, "beta": 0.0}, 3, 60)
    with pytest.raises(DomainError, match=r"N\+1 <= 60 \(got 60\)"):
        connection_residual("hahn", {"alpha": 0.0, "beta": 0.0}, 3, 60)
    assert interlace_check("hahn", {"alpha": 0.0, "beta": 0.0}, 2, 59).zones_ok


def test_interlace_not_applicable_families():
    for kind, params in [
        ("krawtchouk", {"alpha": 0.5}),
        ("hahn", {"alpha": 1.0, "beta": 0.5}),
        ("racah", {"a": 0.5, "alpha": 0.3, "beta": 0.2}),
        ("q_hahn", {"alpha": 0.8, "beta": 0.9, "q": 0.6}),
        ("q_racah", {"a": 0.8, "alpha": 0.3, "beta": 0.9, "q": 0.6}),
    ]:
        with pytest.raises(WeightMismatchError):
            interlace_check(kind, params, 2, 6)


def test_interlace_krawtchouk_empirical_bypass():
    # the weight shape depends on N, but the zero pattern still interlaces
    rep = interlace_check("krawtchouk", {"alpha": 0.5}, 2, 5, check_weight=False)
    assert not rep.weight_shared
    assert rep.xb == 5.0
    assert rep.case == "interior-interlace"
    assert rep.zone_counts == (1, 1)
    assert rep.zones_ok


def test_connection_residual_requires_shared_weight():
    with pytest.raises(WeightMismatchError):
        connection_residual("krawtchouk", {"alpha": 0.5}, 1, 4)


def test_connection_residual_degree_one_closed_reach():
    # degree 1 with uniform weight: eta_1 = (beta+1)/N makes the identity exact
    res = connection_residual("hahn", {"alpha": 0.0, "beta": 0.0}, 1, 4, [0.5, 1.5, 2.5])
    assert res < 1e-10


def test_connection_residual_randomized():
    rng = random.Random(14)
    worst = 0.0
    for _ in range(12):
        beta = rng.uniform(-0.9, 4.0)
        N = rng.randint(5, 20)
        n = rng.randint(1, min(5, N - 1))
        res = connection_residual("hahn", {"alpha": 0.0, "beta": beta}, n, N)
        worst = max(worst, res)
    assert worst < 1e-7


def test_trichotomy_classifier():
    zeros = (1.0, 2.5, 4.0)
    assert classify_case(zeros, 5.0, 0.7, 1.0) == "interior-interlace"
    assert classify_case(zeros, 3.0, 0.7, 1.0) == "split-at-xb"
    assert classify_case(zeros, 5.0, 0.0, 1.0) == "identical"
    assert classify_case(zeros, 5.0, 1e-12, 1.0) == "identical"


def test_a_value_at_x_b_within_the_tolerance_is_the_identical_case():
    # near q = 1 the zeros span less than 1, so the test |P_n(x(b))| <= 1e-10
    # max(scale, 1) is absolute: P_3(x(b)) = 5.7e-11 meets it here, though
    # x(b) lies past every zero.  The identical case compares the two zero
    # sets directly, and they differ
    rep = interlace_check("q_krawtchouk", {"alpha": 0.5, "q": 0.9999}, 3, 10, check_weight=False)
    assert rep.case == "identical"
    assert rep.xb > max(rep.zeros_n)
    assert rep.zone_counts == ()
    assert not rep.zones_ok
    assert max(abs(u - v) for u, v in zip(rep.zeros_n, rep.zeros_n1)) > 1e-8 * max(1.0, rep.xb)


def test_trichotomy_exhaustive_on_random_instances():
    rng = random.Random(8)
    for _ in range(25):
        beta = rng.uniform(-0.9, 3.0)
        N = rng.randint(4, 16)
        n = rng.randint(1, min(5, N - 1))
        rep = interlace_check("hahn", {"alpha": 0.0, "beta": beta}, n, N)
        assert rep.case in ("identical", "interior-interlace", "split-at-xb")
        assert rep.zones_ok


def test_new_polynomial_negative_at_old_top_zero():
    # monic sign consequence on an increasing lattice
    beta, N, n = 0.8, 9, 3
    rep = interlace_check("hahn", {"alpha": 0.0, "beta": beta}, n, N)
    spec_n1 = make_family("hahn", alpha=0.0, beta=beta, N=N + 1)
    zn1 = find_zeros(ZeroProblem(spec_n1, n)).zeros_X_sorted

    def monic(zs, X):
        out = 1.0
        for y in zs:
            out *= X - y
        return out

    assert monic(zn1, rep.zeros_n[-1]) < 0.0


def test_connection_skips_boundary_sample():
    res = connection_residual(
        "hahn", {"alpha": 0.0, "beta": 0.5}, 2, 6, [1.0, 6.0, 3.0]
    )
    assert res < 1e-7


@pytest.mark.parametrize("n", [0, 5, 6])
@pytest.mark.parametrize("call", [interlace_check, connection_residual])
def test_degree_outside_the_cap_is_named_before_the_weight(call, n):
    # krawtchouk's weight shape depends on N: the degree is checked before
    # the weights, so a degree outside 1..N-1 is no weight mismatch
    with pytest.raises(DomainError, match=f"^degree {n} outside 1..4 for krawtchouk$"):
        call("krawtchouk", {"alpha": 0.5}, n, 5)
