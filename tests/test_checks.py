import math

import numpy as np
import pytest

from polynorm import checks as C
from polynorm.errors import (
    InvalidParam,
    NotRealValued,
    OnUnitCircle,
    OutOfRange,
    RootInForbiddenRegion,
)
from polynorm.norms import QuadratureConfig, lp_norm, sup_norm
from polynorm.poly import AlgebraicPoly, TrigPoly, from_roots, generate, roots
from polynorm.sweep import SweepConfig


def _rand_trig(rng, n):
    return TrigPoly((rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)) / np.sqrt(2))


def _rand_alg(rng, n):
    return AlgebraicPoly((rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)) / np.sqrt(2))


def _monomial(n):
    c = np.zeros(n + 1, dtype=complex)
    c[-1] = 1.0
    return AlgebraicPoly(c)


def _cos_n(n):
    c = np.zeros(2 * n + 1, dtype=complex)
    c[0] = c[-1] = 0.5
    return TrigPoly(c)


# ------------------------------------------------------------------- bernstein

def test_bernstein_equality_family():
    for n in (1, 4, 9):
        t = generate("extremal-exp", n)
        for p in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, math.inf):
            rep = C.check_bernstein(t, p)
            assert rep.passed
            assert abs(rep.margin) <= 1e-8 * max(rep.bound, 1.0)


def test_bernstein_two_cos_sup():
    rep = C.check_bernstein(TrigPoly([1, 0, 1]), math.inf)
    assert rep.measured == pytest.approx(2.0, rel=1e-10)
    assert rep.bound == pytest.approx(2.0, rel=1e-10)
    assert rep.passed


def test_bernstein_random_sweep():
    rng = np.random.default_rng(41)
    for trial in range(40):
        n = int(rng.integers(1, 17))
        t = _rand_trig(rng, n)
        p = [0.0, 0.5, 1.0, 2.0][trial % 4]
        rep = C.check_bernstein(t, p)
        assert rep.passed, (n, p, rep.measured, rep.bound)


def test_bernstein_degenerate():
    rep = C.check_bernstein(TrigPoly([0.0, 0.0, 0.0]), 2.0)
    assert rep.status == "degenerate" and rep.passed


# ----------------------------------------------------------------- section-3 suite

def test_malik_monomial_equality():
    # |P'| + |Q'| = n exactly for z^n: the objective is flat, so its value
    # comes from the coefficients at angle 0 with no rounding
    for n in range(1, 17):
        rep = C.check_malik(_monomial(n))
        assert rep.passed
        assert rep.margin == 0.0


def test_malik_self_reciprocal():
    n = 6
    c = np.zeros(n + 1, dtype=complex)
    c[0] = c[-1] = 0.5  # (1 + z^n)/2, equal to its reciprocal
    rep = C.check_malik(AlgebraicPoly(c))
    assert rep.passed


def test_malik_random():
    rng = np.random.default_rng(43)
    for trial in range(30):
        rep = C.check_malik(_rand_alg(rng, int(rng.integers(1, 13))))
        assert rep.passed


def test_laguerre_linear_equality():
    rho = 2.0
    rep = C.check_laguerre(AlgebraicPoly([-rho, 1]), rho)
    # rho |P'| = 2 = |Q'| on the circle: additive margin ~ 0
    assert rep.passed
    assert abs(rep.measured) <= 1e-9


def test_laguerre_double_root_on_circle():
    # rho = 1 with a double root on the circle: the max of |P'| - |Q'| is 0,
    # attained where both terms vanish, so it must come from the terms
    # themselves and not from square roots of |P'|^2 and |Q'|^2
    p = from_roots([np.exp(0.3j), np.exp(0.3j), 1.5])
    rep = C.check_laguerre(p, 1.0)
    assert rep.passed
    assert abs(rep.measured) <= 1e-14 * p.degree * sup_norm(p)


def test_laguerre_scale_invariance():
    # a tiny or huge P must not look flat: measured scales with P
    for p, rho in ((from_roots([2.0, -1.5j, 3.0 + 1.0j]), 1.2),
                   (AlgebraicPoly([3.0, 1.0 - 2.0j, 0.5, 0.1j]), 1.0)):
        base = C.check_laguerre(p, rho).measured
        for s in (1e-300, 1e-18, 1e300):
            assert C.check_laguerre(p * s, rho).measured / s == pytest.approx(base, rel=1e-13)


def test_laguerre_generated_family():
    rng = np.random.default_rng(44)
    for rho in (1.0, 1.5, 2.0):
        for trial in range(10):
            p = generate("roots-outside", 4, seed=int(rng.integers(2**31)), rho=rho)
            rep = C.check_laguerre(p, rho)
            assert rep.passed


def test_laguerre_rejects_inside_roots():
    with pytest.raises(RootInForbiddenRegion):
        C.check_laguerre(from_roots([0.5, 3.0]), 1.0)
    with pytest.raises(InvalidParam):
        C.check_laguerre(AlgebraicPoly([-2, 1]), 0.5)
    # a nan rho or radius is refused, not carried into nan reports
    nan = float("nan")
    for check in (lambda: C.check_laguerre(AlgebraicPoly([-2, 1]), nan),
                  lambda: C.check_lax_malik(AlgebraicPoly([-2, 1]), nan),
                  lambda: C.check_ankeny_rivlin(AlgebraicPoly([-2, 1]), nan, 2.0),
                  lambda: C.check_ankeny_rivlin(AlgebraicPoly([-2, 1]), 1.0, nan)):
        with pytest.raises(InvalidParam):
            check()


def test_lax_malik_extremal_equality():
    for n, rho in ((2, 1.0), (5, 1.5), (3, 2.0)):
        rep = C.check_lax_malik(generate("lax-extremal", n, rho=rho), rho)
        assert rep.passed
        assert abs(rep.margin) <= 1e-8 * max(rep.bound, 1.0)


def test_lax_malik_linear_equality():
    rep = C.check_lax_malik(AlgebraicPoly([3, 1]), 3.0)
    assert rep.measured == pytest.approx(1.0, rel=1e-10)
    assert rep.bound == pytest.approx(1.0, rel=1e-10)
    assert rep.passed


def test_ankeny_rivlin_example():
    p = generate("lax-extremal", 2, rho=1.0)  # ((z+1)/2)^2
    rep = C.check_ankeny_rivlin(p, 1.0, 2.0)
    assert rep.measured == pytest.approx(9 / 4, rel=1e-10)
    assert rep.bound == pytest.approx(5 / 2, rel=1e-10)
    assert rep.passed


def test_ankeny_rivlin_radius_to_one():
    p = generate("roots-outside", 5, seed=3, rho=1.2)
    margins = []
    for radius in (2.0, 1.5, 1.1, 1.01):
        rep = C.check_ankeny_rivlin(p, 1.2, radius)
        assert rep.passed
        margins.append(rep.margin / rep.bound)
    assert margins[-1] < margins[0]  # margin shrinks as R -> 1+


def test_svdc_cos_equality():
    for n in (1, 4, 7, 16, 64, 128):
        rep = C.check_svdc(_cos_n(n))
        assert rep.passed
        assert abs(rep.margin) <= 1e-15 * max(1.0, n * n)


def test_svdc_half_cos():
    rep = C.check_svdc(TrigPoly([0.25, 0, 0.25]))  # T = cos x / 2 before normalizing
    assert rep.passed
    assert rep.measured <= rep.bound * (1 + 1e-10)


def test_svdc_rejects_complex():
    with pytest.raises(NotRealValued):
        C.check_svdc(TrigPoly([0, 0, 1.0]))


def test_gauss_lucas_examples():
    rep = C.check_gauss_lucas(AlgebraicPoly([-1, 0, 1]))
    assert rep.passed and rep.measured == 0.0
    rep = C.check_gauss_lucas(from_roots([1, 1, 1]))
    assert rep.passed
    rep = C.check_gauss_lucas(AlgebraicPoly([1, 1]))
    assert rep.status == "degenerate"


def test_gauss_lucas_witness_names_the_worst_root():
    # every derivative root inside the hull: no root is worse than another
    rep = C.check_gauss_lucas(AlgebraicPoly([-1, 0, 1]))
    assert rep.measured == 0.0 and rep.witnesses == [] and "worst_root" not in rep.params
    # the double root of 3(z - 1)^2 splits to 1 -+ 2.6e-8 around the hull {1}
    rep = C.check_gauss_lucas(from_roots([1, 1, 1]))
    assert rep.measured > 0.0
    re, im = rep.params["worst_root"]
    worst = complex(re, im)
    assert abs(abs(worst - 1.0) - rep.measured) <= 1e-15
    derivative_roots = roots(from_roots([1, 1, 1]).derivative()).roots
    assert np.abs(derivative_roots - worst).min() == 0.0
    assert rep.witnesses == [(re, rep.measured)]


def _cross(a, b):
    return (np.conj(a) * b).imag


def _brute_hull_distance(p, pts):
    # 0 when some proper triangle of pts holds p (Caratheodory), else the least
    # distance to any chord [a, b]: the hull's edges are among the chords, and
    # every chord lies in the hull
    pts = np.unique(pts)
    for i, a in enumerate(pts):
        for j in range(i + 1, len(pts)):
            for c in pts[j + 1:]:
                b = pts[j]
                if _cross(b - a, c - a) == 0:
                    continue
                sides = [_cross(b - a, p - a), _cross(c - b, p - b), _cross(a - c, p - c)]
                if min(sides) >= 0 or max(sides) <= 0:
                    return 0.0
    return min(_chord_distance(p, a, b) for a in pts for b in pts)


def _chord_distance(p, a, b):
    if a == b:
        return abs(p - a)
    s = min(1.0, max(0.0, ((p - a) * np.conj(b - a)).real / abs(b - a) ** 2))
    return abs(p - (a + s * (b - a)))


def test_hull_distances_against_brute_force():
    rng = np.random.default_rng(46)
    tilt = np.exp(0.7j)
    cases = [
        rng.standard_normal(9) + 1j * rng.standard_normal(9),  # random
        rng.standard_normal(6) + 0j,  # collinear on the real axis
        (rng.standard_normal(5) + 0.5) * tilt,  # collinear, tilted
        np.array([1 + 1j, 1 + 1j, -2 + 0.5j, -2 + 0.5j, 0.3 - 1j]),  # duplicates
        np.array([0.4 - 0.2j]),  # a single point
    ]
    for pts in cases:
        hull = C._convex_hull(pts)
        scale = float(np.abs(pts).max())
        # points well outside, and points drawn inside (convex combinations)
        outside = 3 * scale * (rng.standard_normal(12) + 1j * rng.standard_normal(12))
        weights = rng.random((8, len(pts)))
        inside = (weights / weights.sum(axis=1, keepdims=True)) @ pts
        w = np.concatenate([outside, inside, pts])
        got = C._hull_distances(w, hull)
        ref = np.array([_brute_hull_distance(p, pts) for p in w])
        assert np.all(np.abs(got - ref) <= 1e-15 * (1 + scale)), (pts, got - ref)
        assert np.all(got[len(outside):] <= 1e-15 * (1 + scale))


def test_gauss_lucas_random():
    rng = np.random.default_rng(45)
    for trial in range(25):
        rep = C.check_gauss_lucas(_rand_alg(rng, 12))
        assert rep.passed


# ------------------------------------------------------------------- embeddings

def test_embedding_examples():
    rep = C.check_embedding(_monomial(5), "wiener")
    assert rep.measured == pytest.approx(1.0) and rep.passed
    rep = C.check_embedding(AlgebraicPoly([1, 2]), "besov111")
    assert rep.measured == 0.0 and rep.passed
    p = generate("unimodular-random", 6, seed=2)
    rep = C.check_embedding(p, "wiener")
    assert rep.measured == pytest.approx(7.0, rel=1e-12)
    assert rep.passed
    with pytest.raises(InvalidParam):
        C.check_embedding(p, "sobolev")


def test_embedding_random_all_kinds():
    rng = np.random.default_rng(46)
    for trial in range(12):
        p = _rand_alg(rng, int(rng.integers(1, 11)))
        for kind in ("wiener", "besovinf1", "besov111"):
            rep = C.check_embedding(p, kind)
            assert rep.passed, (kind, rep.measured, rep.bound)


def test_dominated_derivative():
    rng = np.random.default_rng(47)
    for trial in range(12):
        rep = C.check_dominated_derivative(_rand_alg(rng, int(rng.integers(1, 11))))
        assert rep.passed
    rep = C.check_dominated_derivative(_monomial(7))
    assert abs(rep.margin) <= 1e-8 * rep.bound


# -------------------------------------------------------------------- identities

def test_logplus_identity():
    for v in (0.0, 2.0, 0.5, -1.7 + 0.4j, 0.3j):
        rep = C.check_identity_logplus(v)
        assert rep.passed, (v, rep.measured, rep.bound)
    with pytest.raises(OnUnitCircle):
        C.check_identity_logplus(np.exp(0.4j))


def test_logplus_inside_stops_early(monkeypatch):
    # for |v| < 1 the circle mean is 0, which no relative test can meet; the
    # Mahler measure exp(mean) = 1 can, so the grid stops doubling early
    grids = []
    log = np.log

    def recording(a):  # the integrand sees exactly the points evaluated
        grids.append(a.shape[-1])
        return log(a)

    monkeypatch.setattr(np, "log", recording)
    for v in (0.0, 0.5 + 0.2j, 0.89):
        grids.clear()
        assert C.check_identity_logplus(v).passed
        assert grids and max(grids) <= 1024, (v, grids)


_LIGHT = QuadratureConfig(radial_nodes=32, max_doublings=3)


@pytest.mark.parametrize("v, cfg", [(1.0001, None), (0.9999, None), (1.001, _LIGHT),
                                    (0.999, _LIGHT)])
def test_logplus_refuses_where_its_largest_grid_misses_the_allowance(v, cfg):
    # the N-point rule errs by about rho^N/N, rho = min(|v|, 1/|v|): 2.2e-8 at
    # N = 65536 (default) and 3.4e-8 at N = 8192 (light), over the 1e-8
    # allowance of a true identity
    with pytest.raises(OnUnitCircle, match="too near the unit circle"):
        C.check_identity_logplus(v, cfg=cfg)


@pytest.mark.parametrize("v, cfg", [(1.0002, None), (1.00015, None), (1.003, _LIGHT)])
def test_logplus_passes_near_the_circle_where_its_grid_resolves(v, cfg):
    # rho^N/N is 3.1e-11, 8.2e-10 and 2.7e-15 here, within half the allowance
    assert C.check_identity_logplus(v, cfg=cfg).passed


def test_power_identity():
    rep = C.check_identity_power(0.0, 1.3)
    assert rep.passed and rep.measured == 0.0
    for u, p in ((1.0, 2.0), (2.0, 0.5), (0.3, 3.7)):
        rep = C.check_identity_power(u, p)
        assert rep.passed
        assert rep.params["rhs"] == pytest.approx(u**p)
    with pytest.raises(InvalidParam):
        C.check_identity_power(-1.0, 2.0)
    with pytest.raises(InvalidParam):
        C.check_identity_power(1.0, 0.0)


def test_chi_power_matches_bernstein_p2():
    rng = np.random.default_rng(48)
    t = _rand_trig(rng, 5)
    chi = C.ChiFunction.power(2.0)
    rep = C.check_chi_version(t, chi)
    bern = C.check_bernstein(t, 2.0)
    # chi = x^2 compares the squared 2-norms
    assert rep.measured == pytest.approx(bern.measured**2, rel=1e-9)
    assert rep.bound == pytest.approx(bern.bound**2, rel=1e-9)
    assert rep.passed


def test_chi_sweep():
    rng = np.random.default_rng(49)
    for name in ("x^0.3", "x^2", "log"):
        chi = C.ChiFunction.parse(name)
        for trial in range(10):
            t = _rand_trig(rng, int(rng.integers(1, 9)))
            assert C.check_chi_version(t, chi).passed


def test_chi_log_equality():
    t = generate("extremal-exp", 4)
    rep = C.check_chi_version(t, C.ChiFunction.log())
    assert rep.measured == pytest.approx(4.0, rel=1e-12)
    assert rep.bound == pytest.approx(4.0, rel=1e-12)


def test_chi_requires_hypothesis_flag():
    # x^-1 is decreasing, outside the monotonicity hypothesis
    with pytest.raises(InvalidParam):
        C.check_chi_version(TrigPoly([1, 0, 1]), C.ChiFunction(name="x^-1", exponent=-1.0))


def test_chi_refuses_non_finite_exponents():
    for name in ("x^inf", "x^nan", "x^-inf"):
        with pytest.raises(InvalidParam):
            C.ChiFunction.parse(name)
    with pytest.raises(InvalidParam):
        C.ChiFunction(name="x^inf", exponent=math.inf)


def test_chi_refuses_exponents_that_are_not_numbers():
    # float() would raise a bare ValueError on these; the exponent goes
    # through _require_real instead, in parse and in SweepConfig alike
    for name in ("x^abc", "x^True", "x^", "x^1,5"):
        with pytest.raises(InvalidParam):
            C.ChiFunction.parse(name)
        with pytest.raises(InvalidParam):
            SweepConfig(chi_list=["log", name])


def test_mate_nevai_compare():
    rng = np.random.default_rng(50)
    factor_half = (4 * math.e) ** 2
    rep1 = C.mate_nevai_compare(_rand_alg(rng, 6), 0.5)
    assert rep1.params["factor"] == pytest.approx(factor_half, rel=1e-12)
    assert rep1.passed and rep1.bound <= rep1.params["mate_nevai_bound"]
    rep2 = C.mate_nevai_compare(_rand_alg(rng, 6), 0.999)
    assert rep2.params["factor"] == pytest.approx(4 * math.e, rel=1e-2)
    assert rep2.bound <= rep2.params["mate_nevai_bound"]
    with pytest.raises(InvalidParam):
        C.mate_nevai_compare(_rand_alg(rng, 3), 1.5)


def test_mate_nevai_zero_polynomial_is_degenerate():
    rep = C.mate_nevai_compare(AlgebraicPoly(np.zeros(4)), 0.5)
    assert rep.status == "degenerate" and rep.check_id == "mate_nevai"


def _same_verdict(a, b):
    assert (a.measured, a.bound, a.margin, a.passed) == (b.measured, b.bound, b.margin, b.passed)
    assert a.witnesses == b.witnesses


def test_derivative_bound_aliases():
    # dominated_derivative, chi's log case and mate_nevai are the Bernstein
    # evaluator at p = inf, p = 0 and 0 < p < 1, bit for bit
    rng = np.random.default_rng(52)
    for n in (1, 2, 5, 9, 16):
        p = _rand_alg(rng, n)
        t = _rand_trig(rng, n)
        dom = C.check_dominated_derivative(p)
        _same_verdict(dom, C.check_bernstein(p, "inf"))
        assert dom.witnesses
        _same_verdict(C.check_chi_version(t, C.ChiFunction.log()), C.check_bernstein(t, 0.0))
        power = float(rng.uniform(0.05, 0.95))
        rep = C.mate_nevai_compare(p, power)
        assert rep.measured == lp_norm(p.derivative(), power)
        _same_verdict(rep, C.check_bernstein(p, power))


def test_chi_power_is_the_ladder_rung():
    # chi = x^e compares ||T'||_e^e with (n ||T||_e)^e, bit for bit
    rng = np.random.default_rng(53)
    for n in range(1, 17):
        t = _rand_trig(rng, n)
        for e in (0.3, 2.0):
            rep = C.check_chi_version(t, C.ChiFunction.power(e))
            assert rep.measured == lp_norm(t.derivative(), e) ** e
            assert rep.bound == (n * lp_norm(t, e)) ** e
            assert rep.passed


# ------------------------------------------------------------- scale invariance

def test_scale_invariance_of_verdicts():
    rng = np.random.default_rng(51)
    scales = (3.7, 0.02, -5.0 + 2.0j)
    t = _rand_trig(rng, 6)
    p = _rand_alg(rng, 6)
    preal = generate("roots-outside", 5, seed=8, rho=1.5)
    for c in scales:
        for base, scaled in (
            (C.check_bernstein(t, 1.0), C.check_bernstein(t * c, 1.0)),
            (C.check_malik(p), C.check_malik(p * c)),
            (C.check_embedding(p, "wiener"), C.check_embedding(p * c, "wiener")),
        ):
            assert base.passed == scaled.passed
            if base.bound > 0:
                assert scaled.margin / scaled.bound == pytest.approx(
                    base.margin / base.bound, abs=1e-10
                )
        # rho-exclusion checks keep the known-root provenance under scaling
        ps = AlgebraicPoly(np.asarray(preal.coeffs) * c, known_roots=preal.known_roots)
        base = C.check_lax_malik(preal, 1.5)
        scaled = C.check_lax_malik(ps, 1.5)
        assert base.passed == scaled.passed
        assert scaled.margin / scaled.bound == pytest.approx(base.margin / base.bound, abs=1e-10)
        # additive-form and root-only checks: verdicts survive scaling too
        assert C.check_laguerre(ps, 1.5).passed == C.check_laguerre(preal, 1.5).passed
        assert C.check_gauss_lucas(p * c).passed == C.check_gauss_lucas(p).passed
    treal = _rand_trig(rng, 4)
    treal = TrigPoly(treal.coeffs + np.conj(treal.coeffs[::-1]))  # real-valued
    for c in (2.0, 0.125):
        assert C.check_svdc(treal * c).passed == C.check_svdc(treal).passed


def test_report_serialization_shape():
    rep = C.check_bernstein(TrigPoly([1, 0, 1]), 2.0)
    blob = rep.to_json()
    for key in ("check_id", "digest", "measured", "bound", "margin", "tol", "pass", "status"):
        assert key in blob
    assert blob["pass"] is True


def test_report_margin_and_verdict_follow_its_numbers():
    rep = C.check_bernstein(TrigPoly([1, 0, 1]), 2.0)
    assert rep.passed and rep.margin == rep.bound - rep.measured
    rep.bound = 0.5 * rep.measured
    assert rep.margin == -0.5 * rep.measured and not rep.passed
    rep.bound = rep.measured * (1.0 - 0.5 * rep.tol)  # short of it, within tol
    assert rep.margin < 0.0 and rep.passed
    # the additive-form checks compare against bound + abs_slack
    rep = C.check_laguerre(AlgebraicPoly([-2.0, 1]), 2.0)
    slack = rep.params["abs_slack"]
    rep.bound = rep.measured - 0.5 * slack
    assert rep.passed and rep.to_json()["margin"] == rep.bound - rep.measured
    rep.bound = rep.measured - 2.0 * slack
    assert not rep.passed and rep.to_json()["pass"] is False


def test_report_refuses_non_finite_numbers():
    # a non-finite measured value or bound is an internal error, not a report
    for measured, bound in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
                            (-math.inf, 1.0)):
        with pytest.raises(OutOfRange):
            C._report("malik", [1.0], measured, bound, 1e-9)
    assert C._report("malik", [1.0], 1.0, 2.0, 1e-9).status == "ok"


# ------------------------------------------------------------ typed errors

@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_power_identity_refuses_non_finite_u():
    for u in (math.nan, math.inf):
        with pytest.raises(InvalidParam):
            C.check_identity_power(u, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_power_identity_beyond_float_range_is_out_of_range():
    with pytest.raises(OutOfRange):
        C.check_identity_power(1e200, 3.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_logplus_refuses_nan():
    with pytest.raises(InvalidParam):
        C.check_identity_logplus(complex(math.nan))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_logplus_refuses_infinity():
    with pytest.raises(InvalidParam):
        C.check_identity_logplus(complex(math.inf))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_chi_power_beyond_float_range_is_out_of_range():
    # ||T'||_2 and 5 ||T||_2 are finite near 1e300, their squares are not
    t = _rand_trig(np.random.default_rng(54), 5) * 1e300
    with pytest.raises(OutOfRange):
        C.check_chi_version(t, C.ChiFunction.power(2.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ankeny_rivlin_beyond_float_range_is_out_of_range():
    # the input is finite and valid; its dilation to R = 3 is not finite
    p = from_roots([1.5, -2.0, 1.2j, 3.0, -1.0 - 1.0j]) * 1e306
    with pytest.raises(OutOfRange):
        C.check_ankeny_rivlin(p, 1.0, 3.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ankeny_rivlin_refuses_infinite_radius():
    with pytest.raises(InvalidParam):
        C.check_ankeny_rivlin(from_roots([1.5, -2.0]), 1.0, math.inf)


# ------------------------------------------------------------- batch forms

def _real_trig(rng, n):
    c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return TrigPoly(np.concatenate([np.conj(c[:0:-1]), [c[0].real], c[1:]]))


def _outside(rng, n):
    # roots of modulus 1.2 to 2, so every rho = 1 check accepts it
    return from_roots(rng.uniform(1.2, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n)))


def test_batch_forms_match_single_inputs_around_a_zero_polynomial():
    # every batched check takes a [live, zero, live] group (bernstein also at
    # its p = 0 and p = inf rungs, embedding over mixed kinds, chi over log and
    # powers): the zero input's report is degenerate and every report is the
    # one its single-input form gives
    rng = np.random.default_rng(61)
    n = 5
    zt, za = TrigPoly(np.zeros(2 * n + 1)), AlgebraicPoly(np.zeros(n + 1))
    log, sq, root = (C.ChiFunction.parse(s) for s in ("log", "x^2", "x^0.3"))
    groups = [
        (C.check_bernstein_batch, C.check_bernstein,
         [(_rand_trig(rng, n), 0.0), (zt, 2.0), (_rand_trig(rng, n), math.inf),
          (_rand_trig(rng, n), 0.5), (zt, math.inf), (_rand_trig(rng, n), 2.0)]),
        (C.check_dominated_derivative_batch, C.check_dominated_derivative,
         [(_rand_alg(rng, n),), (za,), (_rand_alg(rng, n),)]),
        (C.mate_nevai_compare_batch, C.mate_nevai_compare,
         [(_rand_alg(rng, n), 0.5), (za, 0.25), (_rand_alg(rng, n), 0.25)]),
        (C.check_chi_version_batch, C.check_chi_version,
         [(_rand_trig(rng, n), sq), (zt, log), (_rand_trig(rng, n), log),
          (_rand_trig(rng, n), root)]),
        (C.check_malik_batch, C.check_malik, [(_rand_alg(rng, n),), (za,), (_rand_alg(rng, n),)]),
        (C.check_laguerre_batch, C.check_laguerre,
         [(_outside(rng, n), 1.0), (za, 1.0), (_outside(rng, n), 1.1)]),
        (C.check_lax_malik_batch, C.check_lax_malik,
         [(_outside(rng, n), 1.0), (za, 1.0), (_outside(rng, n), 1.1)]),
        (C.check_ankeny_rivlin_batch, C.check_ankeny_rivlin,
         [(_outside(rng, n), 1.0, 1.5), (za, 1.0, 2.0), (_outside(rng, n), 1.1, 2.0)]),
        (C.check_svdc_batch, C.check_svdc, [(_real_trig(rng, n),), (zt,), (_real_trig(rng, n),)]),
        (C.check_embedding_batch, C.check_embedding,
         [(_rand_alg(rng, n), "besov111"), (za, "wiener"), (_rand_alg(rng, n), "wiener"),
          (_rand_alg(rng, n), "besovinf1"), (za, "besov111"), (_rand_alg(rng, n), "besov111")]),
    ]
    for batch, single, cases in groups:
        reps = batch(cases)
        assert [r.to_json() for r in reps] == [single(*case).to_json() for case in cases]
        assert [r.status for r in reps] == [
            "degenerate" if case[0].is_zero() else "ok" for case in cases]
