import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polynorm import poly as poly_mod
from polynorm.errors import InvalidParam, OutOfRange, ParseError, ZeroPolynomial
from polynorm.norms import mahler_jensen
from polynorm.poly import (
    AlgebraicPoly,
    ExponentialSum,
    TrigPoly,
    from_roots,
    generate,
    poly_from_json,
    poly_to_json,
    roots,
)


def _rand_alg(rng, n):
    return AlgebraicPoly(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))


# ---------------------------------------------------------------- evaluation

def test_eval_alg_examples():
    assert AlgebraicPoly([1, 1, 1])(1.0) == pytest.approx(3.0)
    assert AlgebraicPoly([0, 0, 1])(1j) == pytest.approx(-1.0)
    assert AlgebraicPoly([-1, 2])(0.5) == pytest.approx(0.0)


def test_eval_trig_examples():
    assert TrigPoly([0, 0, 1])(np.pi / 2) == pytest.approx(1j)          # e^{ix}
    assert TrigPoly([1, 0, 1])(0.0) == pytest.approx(2.0)               # 2cos x
    assert TrigPoly([5.0])(1.234) == pytest.approx(5.0)                 # constant


def test_eval_trig_matches_lift_identity():
    rng = np.random.default_rng(0)
    for n in (1, 4, 9):
        t = TrigPoly(rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1))
        lift = t.to_algebraic()
        xs = rng.uniform(0, 2 * np.pi, 40)
        expect = lift(np.exp(1j * xs)) * np.exp(-1j * n * xs)
        assert np.abs(t(xs) - expect).max() < 1e-13 * (1 + np.abs(expect).max())


# ------------------------------------------------------------- differentiation

def test_derivative_alg_examples():
    assert np.allclose(AlgebraicPoly([0, 0, 1]).derivative().coeffs, [0, 2])
    d = AlgebraicPoly([7.0]).derivative()
    assert d.degree == 0 and d.coeffs[0] == 0
    assert np.allclose(AlgebraicPoly([1, 1, 0, 1]).derivative().coeffs, [1, 0, 3])


def test_derivative_trig_examples():
    n = 3
    t = generate("extremal-exp", n)
    assert np.allclose(t.derivative().coeffs[-1], 1j * n)
    two_cos = TrigPoly([1, 0, 1])
    assert np.allclose(two_cos.derivative().coeffs, [-1j, 0, 1j])  # -2 sin x
    assert TrigPoly([4.0]).derivative().is_zero()


def test_derivative_consistency_analytic():
    # |dT/dx| = |P'(e^{ix})| when T is the analytic embedding of P
    rng = np.random.default_rng(7)
    for n in (1, 5, 12):
        p = _rand_alg(rng, n)
        t = TrigPoly.from_algebraic(p)
        xs = rng.uniform(0, 2 * np.pi, 50)
        lhs = np.abs(t.derivative()(xs))
        rhs = np.abs(p.derivative()(np.exp(1j * xs)))
        assert np.abs(lhs - rhs).max() <= 1e-12 * (1 + rhs.max())


# ------------------------------------------------------------------ reciprocal

def test_reciprocal_examples():
    n = 5
    mono = np.zeros(n + 1)
    mono[-1] = 1.0
    assert np.allclose(AlgebraicPoly(mono).reciprocal().coeffs, [1] + [0] * n)
    rho = 1.7
    assert np.allclose(AlgebraicPoly([-rho, 1]).reciprocal().coeffs, [1, -rho])


def test_reciprocal_modulus_identity_on_circle():
    rng = np.random.default_rng(3)
    for trial in range(100):
        p = _rand_alg(rng, int(rng.integers(1, 12)))
        q = p.reciprocal()
        z = np.exp(2j * np.pi * rng.random(64))
        pv, qv = np.abs(p(z)), np.abs(q(z))
        assert np.abs(pv - qv).max() <= 1e-12 * (1 + pv.max())


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=12,
    )
)
def test_reciprocal_involution(coeffs):
    coeffs = coeffs[:-1] + [coeffs[-1] if coeffs[-1] != 0 else 1.0 + 0j]
    p = AlgebraicPoly(coeffs)
    back = p.reciprocal().reciprocal()
    assert np.array_equal(back.coeffs, p.coeffs)


# ----------------------------------------------------------------------- roots

def test_roots_examples():
    rs = roots(AlgebraicPoly([-1, 0, 1]))
    assert sorted(np.round(rs.roots.real, 9)) == [-1.0, 1.0]
    assert np.abs(rs.roots.imag).max() < 1e-9

    rs = roots(from_roots([2, 2]))
    assert np.abs(rs.roots - 2.0).max() < 1e-6  # double root: sqrt(eps) accuracy
    assert len(rs.roots) == 2

    rs = roots(AlgebraicPoly([1, 0, 0, 1]))  # z^3 + 1
    assert np.abs(rs.roots**3 + 1).max() < 1e-10


def test_roots_zero_polynomial_raises():
    with pytest.raises(ZeroPolynomial):
        roots(AlgebraicPoly([0.0, 0.0]))


def test_roots_origin_factoring():
    rs = roots(AlgebraicPoly([0, 0, 0, 2]))  # 2 z^3
    assert len(rs.roots) == 3 and np.abs(rs.roots).max() == 0.0


def test_roots_extreme_scales():
    # the coefficients are scaled by a power of two before the division by
    # the leading one, which overflowed for subnormal coefficients
    p = AlgebraicPoly([1e-320, 1e-321])
    rs = roots(p).roots
    assert len(rs) == 1 and abs(rs[0] + 10.0) <= 0.1
    assert math.isfinite(mahler_jensen(p)) and mahler_jensen(p) > 0.0
    rng = np.random.default_rng(29)
    for d in (5, 40):
        q = AlgebraicPoly(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1))
        base = roots(q).roots
        for k in (-1000, 1000):
            assert np.array_equal(roots(q * 2.0**k).roots, base)


def test_root_reconstruction_random():
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(2, 33))
        # well separated roots in an annulus
        mods = rng.uniform(0.3, 2.0, n)
        args = rng.uniform(0, 2 * np.pi, n)
        p = AlgebraicPoly(np.asarray(from_roots(mods * np.exp(1j * args)).coeffs))
        rs = roots(p)
        assert rs.residual <= 1e-8
        assert len(rs.roots) == n


@pytest.mark.parametrize("d", [poly_mod._EIGVALS_MAX_DEGREE, poly_mod._EIGVALS_MAX_DEGREE + 1])
def test_root_paths_agree_at_crossover(monkeypatch, d):
    p = _rand_alg(np.random.default_rng(d), d)
    calls = []
    aberth = poly_mod._aberth
    monkeypatch.setattr(poly_mod, "_aberth", lambda w: calls.append(1) or aberth(w))
    by_aberth = d > poly_mod._EIGVALS_MAX_DEGREE
    default = roots(p).roots
    assert len(calls) == by_aberth
    m_default = mahler_jensen(p)
    # the same input through the other path
    monkeypatch.setattr(poly_mod, "_EIGVALS_MAX_DEGREE", d if by_aberth else 0)
    calls.clear()
    other = roots(p).roots
    assert len(calls) == (not by_aberth)
    assert np.abs(np.sort(default) - np.sort(other)).max() <= 1e-10
    assert mahler_jensen(p) == pytest.approx(m_default, rel=1e-12)


def test_roots_rebuild_only_when_residual_read(monkeypatch):
    calls = []
    rebuild = poly_mod._coeffs_from_roots
    monkeypatch.setattr(poly_mod, "_coeffs_from_roots",
                        lambda rts, lead: calls.append(1) or rebuild(rts, lead))
    rs = roots(_rand_alg(np.random.default_rng(3), 12))
    assert calls == []
    assert rs.residual <= 1e-12
    assert rs.residual <= 1e-12
    assert calls == [1]


@pytest.mark.parametrize("n", [32, 64, 128])
def test_roots_residual_on_high_degree_lifts(n):
    lift = generate("gaussian-random", n, seed=n).to_algebraic()
    rs = roots(lift)
    assert len(rs.roots) == 2 * n
    assert rs.residual <= 1e-10


def _monic(p):
    # the w that roots() hands to its solver
    c = p.coeffs[: p.effective_degree + 1]
    return c / c[-1]


def _aberth_step(w, z):
    # one simultaneous Aberth correction of every root of monic w at z
    inner, outer = poly_mod._newton_blocks(w)
    newton = poly_mod._newton_corrections(inner, outer, z)
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, np.inf)
    return newton / (1.0 - newton * (1.0 / diff).sum(axis=1))


@pytest.mark.parametrize("d", [64, 256])
def test_newton_corrections_match_direct_evaluation(d):
    rng = np.random.default_rng(d)
    w = _monic(_rand_alg(rng, d))
    dw = np.arange(1, d + 1) * w[1:]
    angles = 2 * np.pi * rng.random(40)
    z = np.concatenate([r * np.exp(1j * angles) for r in (0.3, 0.9, 1.0, 1.1, 1.4)])
    inner, outer = poly_mod._newton_blocks(w)
    got = poly_mod._newton_corrections(inner, outer, z)
    P = np.polynomial.polynomial
    want = P.polyval(z, w) / P.polyval(z, dw)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("m", [1, 2, 3, 9, 257])
@pytest.mark.parametrize("r", [0.9, 1.0, 1.1])
def test_powers_match_sequential_products(m, r):
    # the doubling table against z^k built one factor at a time; the
    # squarings pass their roundings on, so allow about 450 units at k = 256
    z = r * np.exp(2j * np.pi * np.random.default_rng(m).random(64))
    want = np.empty((m, z.size), dtype=np.complex128)
    want[0] = 1.0
    for k in range(1, m):
        want[k] = want[k - 1] * z
    got = poly_mod._powers(z, m)
    assert got.shape == (m, z.size)
    assert np.all(np.abs(got - want) <= 1e-13 * r ** np.arange(m)[:, None])


@pytest.mark.parametrize("m", [5, 40, 257])
def test_poly_values_column_block_matches_each_column(m):
    # m = 5 takes the Horner branch, m = 40 and 257 (a degree-128 lift) the
    # power table
    rng = np.random.default_rng(m)
    block = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
    z = 1.1 * np.exp(2j * np.pi * rng.random(30))
    got = poly_mod._poly_values(block, z)
    assert got.shape == (30, 2)
    for j in range(2):
        want = np.polynomial.polynomial.polyval(z, block[:, j])
        assert np.abs(got[:, j] - want).max() <= 1e-12 * np.abs(want).max()


def _aberth_inputs():
    for n in (32, 64, 128):
        yield _monic(generate("gaussian-random", n, seed=n).to_algebraic())
    yield _monic(generate("unimodular-random", 100, seed=5))


@pytest.mark.parametrize("w", list(_aberth_inputs()), ids=["n32", "n64", "n128", "unimodular"])
def test_aberth_stops_only_when_every_root_has_converged(w):
    # the stop rule: one more simultaneous correction of all the roots is
    # below tol * (1 + max|z|), however few of them the last sweeps stepped
    z = poly_mod._aberth(w)
    assert np.abs(_aberth_step(w, z)).max() <= 1e-14 * (1.0 + np.abs(z).max())


def test_aberth_sweeps_within_budget_on_gaussian_lifts(monkeypatch):
    # README's 7-24 sweeps for Gaussian lifts of degree 64-256: the rounding
    # of the power table must not cost sweeps or accuracy
    sweeps = []
    newton = poly_mod._newton_corrections
    monkeypatch.setattr(poly_mod, "_newton_corrections",
                        lambda inner, outer, z: sweeps.append(1) or newton(inner, outer, z))
    for n in (32, 64, 128):
        for seed in range(20):
            sweeps.clear()
            rs = roots(generate("gaussian-random", n, seed=seed).to_algebraic())
            assert len(sweeps) <= 24, (n, seed)
            assert rs.residual <= 1e-10, (n, seed)


def test_aberth_steps_only_moving_roots(monkeypatch):
    n = 128
    w = _monic(generate("gaussian-random", n, seed=n).to_algebraic())
    sizes = []
    newton = poly_mod._newton_corrections
    monkeypatch.setattr(poly_mod, "_newton_corrections",
                        lambda inner, outer, z: sizes.append(len(z)) or newton(inner, outer, z))
    poly_mod._aberth(w)
    assert sizes[0] == sizes[-1] == 2 * n
    assert sum(sizes) < 2 * n * len(sizes)


def _leja_order_by_rows(rts):
    # reference: one log-distance row per step instead of one table
    d = len(rts)
    if d <= 2:
        return rts
    picked = np.zeros(d, dtype=bool)
    order = [int(np.argmax(np.abs(rts)))]
    picked[order[0]] = True
    with np.errstate(divide="ignore"):
        logdist = np.log(np.abs(rts - rts[order[0]]))
        for _ in range(1, d):
            logdist[picked] = -np.inf
            order.append(int(np.argmax(logdist)))
            picked[order[-1]] = True
            logdist = logdist + np.log(np.abs(rts - rts[order[-1]]))
    return rts[order]


@pytest.mark.parametrize("d", [1, 3, 8, 17, 64])
def test_leja_order_matches_row_by_row_reference(d):
    rng = np.random.default_rng(d)
    rts = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    rts[: d // 3] = rts[0]  # repeated roots give -inf distances
    assert np.array_equal(poly_mod._leja_order(rts), _leja_order_by_rows(rts))


# -------------------------------------------------------------------- generate

def test_generate_extremal_exp():
    t = generate("extremal-exp", 3)
    assert isinstance(t, TrigPoly)
    expect = np.zeros(7)
    expect[-1] = 1.0
    assert np.array_equal(t.coeffs, expect.astype(complex))


def test_generate_lax_extremal():
    p = generate("lax-extremal", 2, rho=1.0)
    assert np.allclose(p.coeffs, [0.25, 0.5, 0.25])
    assert p.known_roots == (-1.0 + 0j, -1.0 + 0j)
    with pytest.raises(InvalidParam):
        generate("lax-extremal", 2, rho=0.5)


def test_generate_unimodular():
    p = generate("unimodular-random", 4, seed=9)
    assert np.abs(np.abs(p.coeffs) - 1).max() < 1e-14


def test_generate_roots_outside():
    p = generate("roots-outside", 6, seed=4, rho=1.5)
    assert min(abs(r) for r in p.known_roots) >= 1.5
    computed = roots(p)
    assert np.abs(computed.roots).min() >= 1.5 - 1e-8


def test_generate_deterministic():
    a = generate("gaussian-random", 5, seed=123)
    b = generate("gaussian-random", 5, seed=123)
    assert np.array_equal(a.coeffs, b.coeffs)


# ------------------------------------------------------------------------ JSON

def test_json_round_trip():
    rng = np.random.default_rng(2)
    p = _rand_alg(rng, 4)
    t = TrigPoly(rng.standard_normal(7) + 1j * rng.standard_normal(7))
    for poly in (p, t):
        back = poly_from_json(json.loads(json.dumps(poly_to_json(poly))))
        assert type(back) is type(poly)
        assert np.allclose(back.coeffs, poly.coeffs)


def test_json_pairs_equal_the_per_coefficient_floats():
    # the [re, im] pairs come from one float view of the coefficients; they
    # must be the floats, signed zeros and subnormals included, that
    # [float(c.real), float(c.imag)] per coefficient gives, so payloads stay
    # byte-identical
    rng = np.random.default_rng(4)
    special = [0.0, -0.0, 5e-324, -2.5e-320, 1e308, -1.7976931348623157e308, 1.0 / 3.0]
    coeffs = [complex(a, b) for a in special for b in special]
    for poly in (AlgebraicPoly(coeffs), AlgebraicPoly([-0.0]), TrigPoly(coeffs[:7]),
                 _rand_alg(rng, 6)):
        old = [[float(c.real), float(c.imag)] for c in poly.coeffs]
        got = poly_to_json(poly)["coeffs"]
        assert all(type(x) is float for pair in got for x in pair)
        assert json.dumps(got) == json.dumps(old)
        assert [[x.hex() for x in pair] for pair in got] == [[x.hex() for x in pair] for pair in old]


def test_equality_compares_arrays_by_value():
    rng = np.random.default_rng(3)
    p = _rand_alg(rng, 4)
    t = TrigPoly(rng.standard_normal(7) + 1j * rng.standard_normal(7))
    e = ExponentialSum([1.0, 2j, -0.5], [0.25, -1.0, 2.0], bandwidth=3.0)
    for obj in (p, t):
        assert poly_from_json(json.loads(json.dumps(poly_to_json(obj)))) == obj
    terms = [[a.real, a.imag, f] for a, f in zip(e.amplitudes, e.frequencies)]
    assert poly_from_json({"type": "expsum", "bandwidth": 3.0, "terms": terms}) == e
    assert roots(p) == roots(p)
    # a field that differs, a different type, or a different length is unequal
    assert p != AlgebraicPoly(p.coeffs + np.array([0, 0, 1e-15, 0, 0]))
    assert e != ExponentialSum(e.amplitudes, e.frequencies, bandwidth=4.0)
    assert t != p and AlgebraicPoly(t.coeffs) != t
    assert p != AlgebraicPoly(np.append(p.coeffs, 0.0))
    assert roots(p) != roots(AlgebraicPoly(p.coeffs[::-1]))
    # known_roots and the root set's coefficients take no part, as before
    assert from_roots([1.0, 2.0]) == AlgebraicPoly(from_roots([1.0, 2.0]).coeffs)
    for obj in (p, t, e, roots(p)):
        with pytest.raises(TypeError):
            hash(obj)


def test_json_rejects_length_mismatch():
    with pytest.raises(ParseError):
        poly_from_json({"type": "alg", "degree": 3, "coeffs": [[1, 0], [2, 0]]})
    with pytest.raises(ParseError):
        poly_from_json({"type": "trig", "degree": 1, "coeffs": [[1, 0], [2, 0]]})
    with pytest.raises(ParseError):
        poly_from_json({"type": "nope", "degree": 0, "coeffs": [[1, 0]]})
    for kind in ("alg", "trig"):
        with pytest.raises(ParseError):
            poly_from_json({"type": kind, "degree": 0, "coeffs": []})


def test_constructors_refuse_non_finite_numbers():
    bad = (np.inf, -np.inf, np.nan, complex(1.0, np.nan))
    for v in bad:
        with pytest.raises(InvalidParam):
            AlgebraicPoly([v, 1.0])
        with pytest.raises(InvalidParam):
            TrigPoly([1.0, v, 0.0])
        with pytest.raises(InvalidParam):
            ExponentialSum([1.0, v], [0.5, 1.0])
    for f in (np.inf, np.nan):
        with pytest.raises(InvalidParam):
            ExponentialSum([1.0, 2.0], [0.5, f])
        with pytest.raises(InvalidParam):
            ExponentialSum([1.0], [0.5], bandwidth=f)
    # an overflowing product is refused where it is built
    with pytest.raises(InvalidParam):
        with np.errstate(over="ignore"):
            AlgebraicPoly([1.0, 2.0, 3.0]) * 1.7e308
    # the parsers still raise ParseError
    for obj in ({"type": "alg", "degree": 1, "coeffs": [[float("inf"), 0], [1, 0]]},
                {"type": "trig", "degree": 0, "coeffs": [[0, float("nan")]]},
                {"type": "expsum", "terms": [[1, 0, float("inf")]]},
                {"type": "expsum", "bandwidth": float("nan"), "terms": [[1, 0, 0.5]]}):
        with pytest.raises(ParseError):
            poly_from_json(obj)


def test_expsum_validation():
    with pytest.raises(InvalidParam):
        ExponentialSum([1, 1], [2.0, 2.0])  # repeated frequency
    with pytest.raises(InvalidParam):
        ExponentialSum([1], [2.0], bandwidth=1.0)  # bandwidth too small
    f = ExponentialSum([1, 2j], [0.5, -1.25])
    assert f.bandwidth == pytest.approx(1.25)
    assert f(0.3) == pytest.approx(np.exp(0.15j) + 2j * np.exp(-0.375j))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_values_beyond_float_range_are_out_of_range():
    # both branches of the evaluation (power table at 41 coefficients,
    # Horner at 3) and the trig lift raise OutOfRange with no warning, and
    # one overflowing point of an array is enough
    cases = [(AlgebraicPoly(np.ones(41)), 1e8), (AlgebraicPoly([1.0, 2.0, 3.0]), 1e200),
             (AlgebraicPoly(np.ones(41)), np.array([0.5, 1e8])),
             (TrigPoly([1e308, 1e308, 1e308]), 0.0)]
    for p, z in cases:
        with pytest.raises(OutOfRange):
            p(z)
    assert AlgebraicPoly(np.ones(41))(2.0) == 2.0**41 - 1
    assert TrigPoly([1e308, 0.0, 0.0])(0.0) == 1e308
    # a point that is not finite is refused, not evaluated to NaN
    for p, z in [(AlgebraicPoly(np.ones(41)), math.inf), (AlgebraicPoly([1.0, 2.0]), math.nan),
                 (TrigPoly([1.0, 2.0, 3.0]), np.array([0.0, math.inf]))]:
        with pytest.raises(InvalidParam):
            p(z)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dilate_beyond_float_range_is_out_of_range():
    # a finite polynomial whose dilated coefficients overflow, or a radius
    # that is not finite, raises OutOfRange with no overflow warning
    p = AlgebraicPoly([1.0, 0.0, 1e300])
    assert p.dilate(1e3).coeffs[2] == 1e306
    for r in (1e5, math.inf, math.nan):
        with pytest.raises(OutOfRange):
            p.dilate(r)
