import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polynorm.errors import BandwidthExceeded, InvalidParam, ParseError
from polynorm.measures import (
    DiscreteMeasure,
    boas_derivative,
    boas_measure,
    convolve,
    euler_partial_sums,
    riesz_measure,
    riesz_weight_identity,
    riesz_weight_identity_alt,
)
from polynorm.poly import ExponentialSum, TrigPoly, generate


def _rand_trig(rng, n):
    return TrigPoly((rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)) / np.sqrt(2))


def _shift_sum(t, mu, x):
    """The interpolation formula as written: sum of c * t(x + s) over the atoms
    (c, s), evaluating t at every shifted point."""
    xv = np.asarray(x, dtype=np.float64)
    shifted = xv[..., None] + mu.nodes
    return t(shifted.ravel()).reshape(shifted.shape) @ mu.weights


# ------------------------------------------------------------ the 2n-atom rule

def test_riesz_measure_n1():
    mu = riesz_measure(1)
    assert np.allclose(mu.nodes, [np.pi / 2, 3 * np.pi / 2])
    assert np.allclose(mu.weights, [0.5, -0.5])
    assert mu.total_variation == pytest.approx(1.0, abs=1e-15)
    assert mu.truncation_tail == 0.0


def test_riesz_measure_total_variation():
    for n in (1, 2, 3, 17, 64, 128):
        mu = riesz_measure(n)
        assert len(mu.weights) == 2 * n
        assert mu.total_variation == pytest.approx(n, rel=1e-12)


def test_riesz_measure_invalid():
    with pytest.raises(InvalidParam):
        riesz_measure(0)


def test_integer_parameters_refuse_floats_and_bools():
    # a float or bool count is refused, not rounded into a measure or a sum
    calls = [lambda: riesz_measure(2.5), lambda: riesz_measure(True),
             lambda: riesz_weight_identity(2.0), lambda: boas_measure(1.0, 3.0),
             lambda: boas_measure(1.0, True), lambda: euler_partial_sums(2.5),
             lambda: euler_partial_sums(True)]
    for call in calls:
        with pytest.raises(InvalidParam):
            call()
    assert riesz_measure(np.int64(3)) == riesz_measure(3)
    assert euler_partial_sums(np.int64(3))["terms"] == 3


def test_riesz_differentiates_exponential():
    mu = riesz_measure(1)
    t = generate("extremal-exp", 1)  # e^{ix}
    assert convolve(t, mu, 0.0) == pytest.approx(1j, abs=1e-14)


def test_convolve_identity_atom():
    mu = DiscreteMeasure([1.0 + 0j], [0.0])
    rng = np.random.default_rng(1)
    t = _rand_trig(rng, 4)
    xs = rng.uniform(0, 2 * np.pi, 20)
    assert np.abs(convolve(t, mu, xs) - t(xs)).max() < 1e-14


def test_convolve_constant_annihilated():
    # the alternating weights cancel on constants: brute-force weight sum is 0
    for n in (1, 2, 5, 9):
        mu = riesz_measure(n)
        assert abs(mu.weights.sum()) < 1e-12 * n
        t = TrigPoly([2.5 + 1j])
        assert abs(convolve(t, mu, 0.7)) < 1e-12 * n


def test_convolve_matches_shift_sum_trig():
    rng = np.random.default_rng(6)
    for n in (1, 2, 5, 17, 32, 64, 128):
        mu = riesz_measure(n)
        for trial in range(4):
            t = _rand_trig(rng, n)
            xs = rng.uniform(-10.0, 10.0, 64)
            err = np.abs(convolve(t, mu, xs) - _shift_sum(t, mu, xs)).max()
            assert err <= 1e-13 * mu.total_variation * np.abs(t.coeffs).sum()
        assert isinstance(convolve(t, mu, 0.4), complex)


def test_convolve_matches_shift_sum_boas():
    rng = np.random.default_rng(7)
    for lam in (0.5, 2.0, 10.0):
        mu = boas_measure(lam, 401)
        for trial in range(4):
            amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            f = ExponentialSum(amps, rng.uniform(-lam, lam, 8), bandwidth=lam)
            xs = rng.uniform(-8.0, 8.0, 16)
            err = np.abs(convolve(f, mu, xs) - _shift_sum(f, mu, xs)).max()
            assert err <= 1e-13 * mu.total_variation * f.amplitude_sum()
        assert isinstance(convolve(f, mu, 0.4), complex)


def test_convolve_rejects_plain_callable():
    with pytest.raises(InvalidParam):
        convolve(lambda x: np.cos(x), riesz_measure(2), 0.3)


def test_riesz_transform_is_ik():
    # mu_n-hat(k) = ik on |k| <= n: the rule differentiates every frequency it sees
    for n in (1, 2, 17, 64, 128):
        mu = riesz_measure(n)
        k = np.arange(-n, n + 1)
        for freqs in (k, k.astype(np.float64)):  # powers of e^{is}, and one exp per pair
            got = mu.transform(freqs)
            assert np.abs(got - 1j * k).max() <= 1e-12 * n
            # the variation n is attained at the top frequency, so n is sharp
            for top in (got[0], got[-1]):
                assert abs(top) == pytest.approx(mu.total_variation, rel=1e-12)


def test_transform_integer_and_real_frequencies_agree():
    rng = np.random.default_rng(8)
    mu = DiscreteMeasure(rng.standard_normal(9) + 1j * rng.standard_normal(9),
                         rng.uniform(-3.0, 3.0, 9))
    cases = [(mu, k) for k in (np.arange(-12, 13), np.array([0]), np.array([0, 40]),
                               np.arange(5, 9))]
    # the highdeg benchmark's table: 129 rows of powers at 256 nodes
    cases.append((riesz_measure(128), np.arange(-128, 129)))
    for mu, k in cases:
        want = np.exp(1j * np.outer(k, mu.nodes)) @ mu.weights
        assert np.abs(mu.transform(k) - want).max() <= 1e-13 * mu.total_variation


def test_boas_transform_within_tail():
    # |mu-hat(f) - if| on [-lam, lam] is bounded by the dropped variation
    for lam in (0.5, 2.0, 10.0):
        mu = boas_measure(lam, 401)
        f = np.linspace(-lam, lam, 101)
        assert np.abs(mu.transform(f) - 1j * f).max() <= mu.truncation_tail * (1 + 1e-12)


def test_riesz_exactness_random():
    rng = np.random.default_rng(3)
    xs = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    for n in (1, 2, 5, 13, 32, 64):
        mu = riesz_measure(n)
        for trial in range(10):
            t = _rand_trig(rng, n)
            sup_proxy = np.abs(t(xs)).max()
            resid = np.abs(convolve(t, mu, xs) - t.derivative()(xs)).max()
            assert resid <= 1e-9 * n * sup_proxy


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=2 * np.pi),
)
def test_riesz_exactness_property(n, seed, x):
    t = generate("gaussian-random", n, seed=seed)
    mu = riesz_measure(n)
    got = convolve(t, mu, x)
    want = t.derivative()(x)
    scale = float(np.abs(t.coeffs).sum())
    assert abs(got - want) <= 1e-10 * n * max(scale, 1e-6)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=50.0),
    st.integers(min_value=0, max_value=400),
)
def test_boas_tail_law_property(lam, half_k):
    trunc = 2 * half_k + 1
    mu = boas_measure(lam, trunc)
    assert mu.total_variation <= lam + 1e-12 * lam
    assert mu.total_variation + mu.truncation_tail == pytest.approx(lam, rel=1e-12)
    assert mu.truncation_tail <= 8 * lam / (np.pi**2 * trunc)


def test_riesz_exactness_lower_degree():
    # the degree-n rule stays exact on polynomials of degree below n
    rng = np.random.default_rng(4)
    mu = riesz_measure(9)
    t = _rand_trig(rng, 6).to_algebraic()  # degree 12 lift, pad to degree 9 trig
    t9 = TrigPoly(np.concatenate([np.zeros(3), t.coeffs, np.zeros(3)]))
    xs = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    resid = np.abs(convolve(t9, mu, xs) - t9.derivative()(xs)).max()
    assert resid < 1e-10


def test_sharpness_transfer():
    # |T'(x)| <= n * max over the translated node set of |T|
    rng = np.random.default_rng(5)
    for n in (1, 3, 8):
        mu = riesz_measure(n)
        for trial in range(20):
            t = _rand_trig(rng, n)
            for x in rng.uniform(0, 2 * np.pi, 4):
                node_max = np.abs(t(x + mu.nodes)).max()
                assert abs(t.derivative()(x)) <= n * node_max * (1 + 1e-10)


# -------------------------------------------------------- the truncated series

def test_boas_measure_k1():
    mu = boas_measure(1.0, 1)
    assert np.allclose(mu.nodes, [-np.pi / 2, np.pi / 2])
    assert np.allclose(np.abs(mu.weights), [4 / np.pi**2, 4 / np.pi**2])
    assert mu.bandwidth == 1.0


def test_boas_measure_structure():
    lam = 2.3
    mu = boas_measure(lam, 99)
    # atoms only at odd multiples of pi/(2 lam)
    k = mu.nodes * 2 * lam / np.pi
    assert np.allclose(k, np.round(k))
    assert np.all(np.abs(np.round(k).astype(int)) % 2 == 1)
    # variation + tail add to lam exactly, and the tail obeys the 1/K law
    assert mu.total_variation <= lam
    assert mu.total_variation + mu.truncation_tail == pytest.approx(lam, abs=1e-12)
    assert mu.truncation_tail <= 8 * lam / (np.pi**2 * 99)


def test_boas_measure_convergence():
    lam = 1.0
    tvs = [boas_measure(lam, K).total_variation for K in (1, 11, 101, 1001)]
    assert all(b > a for a, b in zip(tvs, tvs[1:]))
    assert tvs[-1] == pytest.approx(lam, abs=1e-3)


def test_boas_measure_invalid():
    with pytest.raises(InvalidParam):
        boas_measure(0.0, 3)
    with pytest.raises(InvalidParam):
        boas_measure(1.0, 4)  # even truncation


def test_boas_derivative_single_frequency():
    lam0 = 0.8
    f = ExponentialSum([1.0], [lam0], bandwidth=1.0)
    approx, bound = boas_derivative(f, 2001)
    xs = np.linspace(-3, 3, 50)
    resid = np.abs(approx(xs) - f.derivative_values(xs)).max()
    assert resid <= bound
    assert bound < 2e-3


def test_boas_derivative_constant():
    f = ExponentialSum([1.0], [0.0], bandwidth=1.0)
    mu = boas_measure(1.0, 401)
    approx, bound = boas_derivative(f, measure=mu)
    assert abs(approx(0.3)) <= bound


def test_boas_derivative_mixture():
    f = ExponentialSum([1.0, 1.0], [1.0, np.pi / 4], bandwidth=1.5)
    approx, bound = boas_derivative(f, 401)
    xs = np.linspace(-5, 5, 100)
    resid = np.abs(approx(xs) - f.derivative_values(xs)).max()
    assert resid <= bound
    assert bound <= 8 * 1.5 / (np.pi**2 * 401) * f.amplitude_sum()


def test_boas_bandwidth_exceeded():
    f = ExponentialSum([1.0], [2.0])
    mu = boas_measure(1.0, 41)
    with pytest.raises(BandwidthExceeded):
        boas_derivative(f, measure=mu)


def test_measure_rejects_non_finite():
    for weights, nodes in (([np.nan], [0.0]), ([1.0], [np.inf]), ([1.0, 1j * np.inf], [0.0, 1.0])):
        with pytest.raises(InvalidParam):
            DiscreteMeasure(weights, nodes)
    with pytest.raises(InvalidParam):
        DiscreteMeasure([1.0], [0.0], truncation_tail=np.nan)


@pytest.mark.parametrize("obj", [
    {},
    {"atoms": 5},
    {"atoms": [[1.0, 2.0]]},
    {"atoms": [[1.0, 0.0, 0.5, 2.0]]},
    {"atoms": [["a", 0.0, 0.5]]},
    {"atoms": [[float("nan"), 0.0, 0.5]]},
    {"atoms": [[1.0, 0.0, float("inf")]]},
    {"atoms": [[1.0, 0.0, 0.5]], "tail": float("nan")},
    [[1.0, 0.0, 0.5]],
])
def test_measure_from_json_rejects_bad_input(obj):
    with pytest.raises(ParseError):
        DiscreteMeasure.from_json(obj)


def test_measure_json_round_trip():
    mu = boas_measure(1.5, 21)
    back = DiscreteMeasure.from_json(mu.to_json())
    assert np.allclose(back.weights, mu.weights)
    assert np.allclose(back.nodes, mu.nodes)
    assert back.truncation_tail == pytest.approx(mu.truncation_tail)


def test_measure_json_keeps_bandwidth_and_equality():
    mu = boas_measure(1.5, 21)
    back = DiscreteMeasure.from_json(json.loads(json.dumps(mu.to_json())))
    assert back == mu and back.bandwidth == 1.5
    assert DiscreteMeasure.from_json(riesz_measure(3).to_json()).bandwidth is None
    f = ExponentialSum([1.0, 0.5j], [1.0, -0.4])
    approx, bound = boas_derivative(f, measure=back)
    ref, ref_bound = boas_derivative(f, measure=mu)
    assert approx(0.3) == ref(0.3) and bound == ref_bound
    assert mu != boas_measure(1.5, 23)
    assert mu != DiscreteMeasure(mu.weights, mu.nodes + 1e-12, mu.truncation_tail, 1.5)
    with pytest.raises(TypeError):
        hash(mu)


@pytest.mark.parametrize("bandwidth", [float("nan"), float("inf"), 0.0, -1.0, "wide"])
def test_measure_refuses_bad_bandwidth(bandwidth):
    obj = {"atoms": [[1.0, 0.0, 0.5]], "tail": 0.0, "bandwidth": bandwidth}
    with pytest.raises(ParseError):
        DiscreteMeasure.from_json(obj)
    if not isinstance(bandwidth, str):
        with pytest.raises(InvalidParam):
            DiscreteMeasure([1.0], [0.5], bandwidth=bandwidth)


# ----------------------------------------------------------- weight identities

def test_weight_identity():
    for n in (1, 2, 7, 50, 128):
        assert riesz_weight_identity(n) == pytest.approx(1.0, rel=1e-12)
        assert riesz_weight_identity_alt(n) == pytest.approx(2.0, rel=1e-12)


def test_euler_partial_sums():
    out = euler_partial_sums(10000)
    assert out["normalized"] == pytest.approx(1.0, abs=2e-4)
    assert out["pi2_over_8_estimate"] == pytest.approx(np.pi**2 / 8, abs=5e-5)
    assert out["pi2_over_6_estimate"] == pytest.approx(np.pi**2 / 6, abs=5e-5)
