import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polynorm import checks as C
from polynorm import kernels as kernels_mod
from polynorm.errors import InvalidParam
from polynorm.kernels import (
    bergman_profile,
    besov_111_bound_constant,
    besov_111_terms,
    besov_inf1_bound_constant,
    deriv_via_kernel,
    dirichlet,
    grid_size,
    second_deriv_via_kernel,
    trig_deriv_via_kernel,
    wiener_bound_constant,
)
from polynorm.measures import DiscreteMeasure, boas_measure
from polynorm.norms import QuadratureConfig, disk_mean, lp_norm, norm_value, sup_norm
from polynorm.poly import AlgebraicPoly, ExponentialSum, TrigPoly, generate
from polynorm.sweep import SweepConfig


def _rand_alg(rng, n):
    return AlgebraicPoly((rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)) / np.sqrt(2))


def _rand_trig(rng, n):
    return TrigPoly((rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)) / np.sqrt(2))


def _trig_z_derivative(t: TrigPoly, xi: complex) -> complex:
    n = t.degree
    return sum(k * t.coefficient(k) * xi ** (k - 1) for k in range(-n, n + 1) if k != 0)


# ------------------------------------------------------------ dirichlet kernel

def test_dirichlet_examples():
    assert dirichlet(3, 1.0) == pytest.approx(3.0)
    assert dirichlet(2, -1.0) == pytest.approx(0.0)
    with pytest.raises(InvalidParam):
        dirichlet(0, 1.0)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=24),
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
)
def test_dirichlet_geometric_identity(n, z):
    lhs = dirichlet(n, z) * (1 - z)
    assert abs(lhs - (1 - z**n)) <= 1e-9 * (1 + abs(z) ** n)


@pytest.mark.parametrize("n", [1, 5, 33, 128])
@pytest.mark.parametrize("xi", [0.8 * np.exp(0.7j), 0.3 - 0.1j, np.exp(1.3j), 1.0])
def test_dirichlet_on_grid_matches_closed_form(n, xi):
    # D_n(w) = (1 - w^n)/(1 - w) at w = conj(xi) u, u on the N-point grid
    N = grid_size(n)
    theta = 2 * np.pi * np.arange(N) / N - np.angle(xi)
    w = abs(xi) * np.exp(1j * theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = (1 - abs(xi) ** n * np.exp(1j * n * theta)) / (1 - w)
    far = np.abs(1 - w) > 0.1
    got = kernels_mod._dirichlet_on_grid(n, complex(xi), N)
    assert np.abs(got - closed)[far].max() <= 1e-13 * n


# -------------------------------------------------------- first derivative rep

def test_deriv_via_kernel_examples():
    assert deriv_via_kernel(AlgebraicPoly([0, 0, 1]), 1.0) == pytest.approx(2.0, abs=1e-12)
    assert deriv_via_kernel(AlgebraicPoly([4.2]), 0.3 + 0.1j) == pytest.approx(0.0, abs=1e-12)


def test_deriv_via_kernel_matches_direct():
    rng = np.random.default_rng(8)
    for trial in range(40):
        n = int(rng.integers(1, 9))
        p = _rand_alg(rng, n)
        # mix of boundary and interior evaluation points
        xi = np.exp(2j * np.pi * rng.random()) * (1.0 if trial % 2 else rng.random())
        direct = p.derivative()(xi)
        got = deriv_via_kernel(p, xi)
        assert abs(got - direct) <= 1e-10 * (1 + abs(direct))


def test_deriv_via_kernel_rejects_outside():
    with pytest.raises(InvalidParam):
        deriv_via_kernel(AlgebraicPoly([0, 1]), 1.5)


def test_kernel_grid_floor_enforced():
    p = AlgebraicPoly([0, 0, 1])
    with pytest.raises(InvalidParam):
        deriv_via_kernel(p, 0.5, grid=8)  # below 4n+8
    with pytest.raises(InvalidParam):
        deriv_via_kernel(p, 0.5, grid=40.0)  # a float, not a grid size


# ------------------------------------------------------- second derivative rep

def test_second_deriv_examples():
    for xi in (0.0, 0.7j, np.exp(1j)):
        assert second_deriv_via_kernel(AlgebraicPoly([0, 0, 1]), xi) == pytest.approx(2.0, abs=1e-11)
    assert second_deriv_via_kernel(AlgebraicPoly([3, 2]), 0.5) == pytest.approx(0.0, abs=1e-12)


def test_second_deriv_matches_direct():
    rng = np.random.default_rng(9)
    xi = 0.5 * np.exp(1j * np.pi / 3)
    for trial in range(30):
        p = _rand_alg(rng, int(rng.integers(2, 9)))
        direct = p.derivative().derivative()(xi)
        got = second_deriv_via_kernel(p, xi)
        assert abs(got - direct) <= 1e-9 * (1 + abs(direct))


# ------------------------------------------------------------- trig kernel rep

def test_trig_kernel_examples():
    assert trig_deriv_via_kernel(TrigPoly([1, 0, 1]), 1.0) == pytest.approx(0.0, abs=1e-12)
    assert trig_deriv_via_kernel(TrigPoly([2.0 + 1j]), np.exp(0.3j)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InvalidParam):
        trig_deriv_via_kernel(TrigPoly([1, 0, 1]), 0.9)


def test_trig_kernel_matches_direct():
    rng = np.random.default_rng(10)
    for trial in range(30):
        n = int(rng.integers(1, 9))
        t = _rand_trig(rng, n)
        xi = complex(np.exp(2j * np.pi * rng.random()))
        direct = _trig_z_derivative(t, xi)
        got = trig_deriv_via_kernel(t, xi)
        assert abs(got - direct) <= 1e-10 * (1 + abs(direct))


def test_trig_kernel_reduces_to_analytic():
    rng = np.random.default_rng(11)
    for trial in range(10):
        n = int(rng.integers(1, 8))
        p = _rand_alg(rng, n)
        t = TrigPoly.from_algebraic(p)
        xi = complex(np.exp(2j * np.pi * rng.random()))
        assert abs(trig_deriv_via_kernel(t, xi) - deriv_via_kernel(p, xi)) < 1e-11 * (
            1 + abs(p.derivative()(xi))
        )


# -------------------------------------------------------- quadrature exactness

def test_doubling_leaves_values_unchanged():
    rng = np.random.default_rng(12)
    for trial in range(15):
        n = int(rng.integers(1, 20))
        p = _rand_alg(rng, n)
        t = _rand_trig(rng, n)
        xi_in = 0.6 * np.exp(2j * np.pi * rng.random())
        xi_on = complex(np.exp(2j * np.pi * rng.random()))
        base = grid_size(n)
        for fn, poly, xi in (
            (deriv_via_kernel, p, xi_in),
            (second_deriv_via_kernel, p, xi_in),
            (trig_deriv_via_kernel, t, xi_on),
        ):
            a = fn(poly, xi, grid=base)
            b = fn(poly, xi, grid=2 * base)
            assert abs(a - b) <= 1e-12 * (1 + abs(a))


def test_sup_bound_chain():
    # |P'(xi)| <= n * sup|P| for unimodular xi, via the kernel representation
    rng = np.random.default_rng(13)
    for trial in range(20):
        n = int(rng.integers(1, 10))
        p = _rand_alg(rng, n)
        xi = complex(np.exp(2j * np.pi * rng.random()))
        assert abs(deriv_via_kernel(p, xi)) <= n * sup_norm(p) * (1 + 1e-9)


# ----------------------------------------------------------- explicit constants

def test_wiener_bound_constant():
    assert wiener_bound_constant(0) == 1.0
    assert wiener_bound_constant(3) == 2.0
    assert wiener_bound_constant(8) == 3.0


_DEGREE_TAKERS = {
    "dirichlet": lambda n: dirichlet(n, 0.5),
    "grid_size": grid_size,
    "wiener": wiener_bound_constant,
    "besov_inf1": besov_inf1_bound_constant,
    "besov_inf1_start": lambda n: besov_inf1_bound_constant(3, start_index=n),
    "besov_111_terms": besov_111_terms,
    "besov_111": besov_111_bound_constant,
    "bergman": lambda n: bergman_profile(n, 1.0).coeffs,
    # the generators take their degree by the same rule
    "gaussian-random": lambda n: generate("gaussian-random", n).coeffs,
    "unimodular-random": lambda n: generate("unimodular-random", n).coeffs,
    "extremal-exp": lambda n: generate("extremal-exp", n).coeffs,
    "lax-extremal": lambda n: generate("lax-extremal", n, rho=1.5).coeffs,
    "roots-outside": lambda n: generate("roots-outside", n, rho=1.5).coeffs,
}


@pytest.mark.parametrize("value", [2.5, 2.0, True], ids=["2.5", "2.0", "True"])
@pytest.mark.parametrize("name", list(_DEGREE_TAKERS))
def test_degree_parameters_refuse_floats_and_bools(name, value):
    # a float or bool degree is refused, not rounded into a constant or a
    # kernel; a numpy integer is still a degree
    take = _DEGREE_TAKERS[name]
    with pytest.raises(InvalidParam):
        take(value)
    assert np.array_equal(take(np.int64(2)), take(2))


_ALG = AlgebraicPoly([1.0, 0.5, 0.25])
_TRIG = TrigPoly([0.5, 1.0, 0.25])
# name -> (a call taking the parameter, a value it accepts)
_REAL_TAKERS = {
    "rel_tol": (lambda v: QuadratureConfig(rel_tol=v), 1e-10),
    "area_rel_tol": (lambda v: QuadratureConfig(area_rel_tol=v), 1e-8),
    "lp_norm power": (lambda v: lp_norm(_TRIG, v), 1.5),
    "norm_value power": (lambda v: norm_value(_TRIG, "lp", v), 1.5),
    "disk_mean power": (lambda v: disk_mean(_ALG, v), 1.5),
    "truncation_tail": (lambda v: DiscreteMeasure([1.0], [0.0], truncation_tail=v), 0.5),
    "measure bandwidth": (lambda v: DiscreteMeasure([1.0], [0.0], bandwidth=v), 1.5),
    "boas lam": (boas_measure, 1.5),
    "expsum bandwidth": (lambda v: ExponentialSum([1.0], [0.5], bandwidth=v), 1.5),
    "lax-extremal rho": (lambda v: generate("lax-extremal", 2, rho=v), 1.5),
    "roots-outside rho": (lambda v: generate("roots-outside", 2, rho=v), 1.5),
    # inf is the sup rung of the ladder, so parse_p is asked for -inf there
    "parse_p": (lambda v: C.parse_p(-v if v == math.inf else v), 1.5),
    "laguerre rho": (lambda v: C.check_laguerre(_ALG, v), 1.5),
    "lax_malik rho": (lambda v: C.check_lax_malik(_ALG, v), 1.5),
    "ankeny_rivlin rho": (lambda v: C.check_ankeny_rivlin(_ALG, v, 2.0), 1.5),
    "ankeny_rivlin radius": (lambda v: C.check_ankeny_rivlin(_ALG, 1.0, v), 1.5),
    "power_identity u": (lambda v: C.check_identity_power(v, 1.5), 1.5),
    "power_identity p": (lambda v: C.check_identity_power(1.5, v), 1.5),
    "chi exponent": (lambda v: C.ChiFunction("x^e", v), 1.5),
    "chi power": (C.ChiFunction.power, 1.5),
    "mate_nevai power": (lambda v: C.mate_nevai_compare(_ALG, v), 0.5),
    "bernstein tol": (lambda v: C.check_bernstein(_TRIG, 2.0, v), 1e-8),
    "malik tol": (lambda v: C.check_malik(_ALG, v), 1e-8),
    "gauss_lucas tol": (lambda v: C.check_gauss_lucas(_ALG, v), 1e-7),
    "power_identity tol": (lambda v: C.check_identity_power(1.5, 1.5, v), 1e-8),
    "logplus tol": (lambda v: C.check_identity_logplus(0.5, v), 1e-8),
    "sweep tol": (lambda v: SweepConfig(tol=v), 1e-8),
    "sweep tol_overrides": (lambda v: SweepConfig(tol_overrides={"malik": v}), 1e-8),
    "sweep bound_scale": (lambda v: SweepConfig(bound_scale=v), 0.5),
    "sweep rho_list": (lambda v: SweepConfig(rho_list=[v]), 1.5),
    "sweep radius_list": (lambda v: SweepConfig(radius_list=[v]), 1.5),
}


@pytest.mark.parametrize("value", [True, np.True_, math.nan, math.inf, "2"],
                         ids=["True", "np.True_", "nan", "inf", "str"])
@pytest.mark.parametrize("name", list(_REAL_TAKERS))
def test_real_parameters_refuse_bools_nonfinite_and_strings(name, value):
    # a bool is not read as 1.0, nor a string as its number, and no real
    # parameter lets NaN or infinity through to a value or a verdict
    take, good = _REAL_TAKERS[name]
    take(good)
    with pytest.raises(InvalidParam):
        take(value)


def test_besov_inf1_bound_constant():
    assert besov_inf1_bound_constant(1) == pytest.approx(1.0)
    assert besov_inf1_bound_constant(2) == pytest.approx(4 / 3)
    assert besov_inf1_bound_constant(3) == pytest.approx(23 / 15)
    # alternate normalization drops the k = 0 term
    assert besov_inf1_bound_constant(3, start_index=1) == pytest.approx(23 / 15 - 1)
    # the sum starts inside 0..n, or it is refused rather than summed
    for start in (-1, 4):
        with pytest.raises(InvalidParam):
            besov_inf1_bound_constant(3, start_index=start)
    assert besov_inf1_bound_constant(3, start_index=3) == 0.0


def test_besov_111_bound_constant():
    assert besov_111_bound_constant(1) == pytest.approx(2.0, rel=1e-14)
    assert besov_111_bound_constant(1) < 8 / math.pi
    terms = besov_111_terms(40)
    assert np.all(terms > 0)
    ratios = terms[1:] / terms[:-1]
    assert np.all(ratios > 1) and np.all(ratios < 1.6)
    assert terms[-1] < 1.0  # every term below 1 keeps the sum below (8/pi) n


def test_besov_111_terms_against_gamma():
    # independent oracle through lgamma
    got = besov_111_terms(20)
    for k in (0, 1, 5, 19):
        expect = math.exp(
            2 * math.lgamma(k + 1.5) - math.lgamma(k + 1) - math.lgamma(k + 2)
        )
        assert got[k] == pytest.approx(expect, rel=1e-13)


def test_bergman_cross_check():
    # the disk quadrature reproduces the closed-form coefficient sums
    rng = np.random.default_rng(14)
    for n in (1, 2, 5, 16):
        u = complex(np.exp(2j * np.pi * rng.random()))
        got = disk_mean(bergman_profile(n, u), 2.0)
        assert got == pytest.approx(float(besov_111_terms(n).sum()), rel=1e-8)
