import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polynorm import poly as poly_mod
from polynorm.errors import InvalidParam, ParseError, ZeroPolynomial
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


def test_json_rejects_length_mismatch():
    with pytest.raises(ParseError):
        poly_from_json({"type": "alg", "degree": 3, "coeffs": [[1, 0], [2, 0]]})
    with pytest.raises(ParseError):
        poly_from_json({"type": "trig", "degree": 1, "coeffs": [[1, 0], [2, 0]]})
    with pytest.raises(ParseError):
        poly_from_json({"type": "nope", "degree": 0, "coeffs": [[1, 0]]})


def test_expsum_validation():
    with pytest.raises(InvalidParam):
        ExponentialSum([1, 1], [2.0, 2.0])  # repeated frequency
    with pytest.raises(InvalidParam):
        ExponentialSum([1], [2.0], bandwidth=1.0)  # bandwidth too small
    f = ExponentialSum([1, 2j], [0.5, -1.25])
    assert f.bandwidth == pytest.approx(1.25)
    assert f(0.3) == pytest.approx(np.exp(0.15j) + 2j * np.exp(-0.375j))
