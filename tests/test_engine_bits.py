"""The circle engines' exact output bits on seeded inputs, and those of the
disk integrals built on them.

Every value in engine_bits.json is float.hex() of a seeded call of
_circle_means or circle_max, or of besov_111_seminorms, besov_inf1_seminorms
and disk_means(., 2) (the radial-* pins) on seeded algebraic inputs at
n = 1, 4 and 16, under the default and the light QuadratureConfig. Both
engines are tuned for speed from time to time, and a rewrite that only
reorders work must keep every bit. One that changes the arithmetic on
purpose re-records the pins it moves and keeps the old ones as a reference
file, every new value within a stated relative distance of its old pin:
engine_bits_zero_padded.json holds the circle means of the engine that
evaluated each doubling level as one zero-padded FFT, which the grid0-point
FFTs per offset replaced (within 2e-15; the largest move was 9.6e-16), and
engine_bits_fft.json holds the pins that moved when rows at most
poly._DFT_MAX_WIDTH wide left the FFT for one matrix product with a DFT
block (within 2e-15; the largest move was 7.9e-16). The cases cover one row
and many rows, one exponent and one per row (p = 0 included), doubling
budgets 0, 3 and 6, tolerances 1e-8 and 1e-10 with rows that stop at
different levels, and one- and two-term maxima with shared and per-row
weights. The Besov pins hold the dilation and the weighting as well: a
change to the radial rule re-records them under the same rule.

disk_means(., 2) takes no grid and no radial rule: it is the sum
sum_k |c_k|^2/(k + 1) over the coefficients, so its default and light pins
are equal, and they are held to the exact rational value of that sum over
the float inputs instead of to an older engine's pins (which were up to
7e-15 off it). The closed forms, that sum at every even power and the L^2
norm, make no BLAS call, so child processes under other OpenBLAS kernels
must reproduce their bits, where the grid product's bits move.
"""
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from polynorm.norms import (QuadratureConfig, _circle_means, besov_111_seminorms,
                            besov_inf1_seminorms, circle_max, disk_means, lp_norms)
from polynorm.poly import AlgebraicPoly, TrigPoly

from blas_kernels import KERNELS, under_kernel


def _gauss(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _mean_rows():
    """Rows that stop after 0..6 doublings: smooth random rows, rows with a
    root near the circle (slow), and two exact constants."""
    rng = np.random.default_rng(2024)
    rows = list(_gauss(rng, 6, 7))
    for r in (0.9, 0.97, 0.995, 1.02):
        rows.append(np.array([1.0, -r * np.exp(0.3j), 0.2, 0, 0, 0, 0]))
    rows.append(np.array([0, 0, 2.5j, 0, 0, 0, 0]))
    rows.append(np.array([1e-200, 3e-201, 0, 0, 0, 0, 1e-201]))
    return np.array(rows)


def _cases():
    rows = _mean_rows()
    exps = np.array([0.0, 0.25, 0.5, 1.0, 1.3, 2.0, 0.5, 0.0, 0.25, 1.0, 4.0, 0.7])
    for budget in (0, 3, 6):
        for tol in (1e-8, 1e-10):
            yield f"means-one-row-b{budget}-t{tol:g}", lambda budget=budget, tol=tol: [
                v for p in (0.0, 0.5, 1.3) for i in (0, 7, 8)
                for v in _circle_means(rows[i], p, 16, tol, budget)]
            yield f"means-many-scalar-b{budget}-t{tol:g}", lambda budget=budget, tol=tol: [
                v for p in (0.0, 0.25, 1.0) for v in _circle_means(rows, p, 16, tol, budget)]
            yield f"means-many-per-row-b{budget}-t{tol:g}", lambda budget=budget, tol=tol: list(
                _circle_means(rows, exps, 16, tol, budget))

    rng = np.random.default_rng(4242)
    one_term = [_gauss(rng, 5, 1, w) for w in (1, 3, 9, 17)]
    one_term.append(np.array([[[0.0] * 8 + [1.0]], [[0.5] + [0.0] * 7 + [0.5]]]))
    yield "max-one-term", lambda: [v for h in one_term for out in circle_max(h, 32 * h.shape[-1])
                                   for v in out]
    two_term = _gauss(rng, 6, 2, 9)
    two_term[1, 1] = 0.0
    k = np.arange(9)
    zp = np.stack([k * two_term[:, 0], (8 - k) * two_term[:, 0]], axis=1)  # zP', 8P - zP'
    weights = np.stack([rng.uniform(1.0, 2.0, 6), rng.uniform(-1.0, 1.0, 6)], axis=1)
    yield "max-two-term-shared", lambda: [v for out in circle_max(two_term, 288, (1.0, 0.5))
                                          for v in out]
    yield "max-two-term-per-row", lambda: [v for h in (two_term, zp)
                                           for out in circle_max(h, 288, weights) for v in out]

    polys = _radial_inputs()
    radial = {"besov111": besov_111_seminorms, "besovinf1": besov_inf1_seminorms,
              "bergman": lambda ps, cfg: disk_means(ps, 2.0, cfg)}
    for tag, cfg in (("default", None), ("light", QuadratureConfig(radial_nodes=32,
                                                                   max_doublings=3))):
        for name, fn in radial.items():
            yield f"radial-{name}-{tag}", lambda fn=fn, cfg=cfg: [v for ps in polys
                                                                  for v in fn(ps, cfg)]


def _radial_inputs():
    """Four seeded algebraic polynomials at each of n = 1, 4 and 16."""
    rng = np.random.default_rng(11)
    return [[AlgebraicPoly(_gauss(rng, n + 1)) for _ in range(4)] for n in (1, 4, 16)]


EXPECTED = json.loads((Path(__file__).parent / "engine_bits.json").read_text())
ZERO_PADDED = json.loads((Path(__file__).parent / "engine_bits_zero_padded.json").read_text())
FFT = json.loads((Path(__file__).parent / "engine_bits_fft.json").read_text())

CASES = dict(_cases())


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_bits(name):
    assert [float(v).hex() for v in CASES[name]()] == EXPECTED[name]


def _near(old_pins, name):
    new = np.array([float.fromhex(v) for v in EXPECTED[name]])
    old = np.array([float.fromhex(v) for v in old_pins[name]])
    return np.all(np.abs(new - old) <= 2e-15 * np.abs(old))


@pytest.mark.parametrize("name", sorted(ZERO_PADDED))
def test_circle_means_near_zero_padded_pins(name):
    assert _near(ZERO_PADDED, name)


@pytest.mark.parametrize("name", sorted(FFT))
def test_engine_bits_near_fft_pins(name):
    assert _near(FFT, name)


@pytest.mark.parametrize("name", ["radial-bergman-default", "radial-bergman-light"])
def test_bergman_pins_are_the_exact_sums(name):
    # the float inputs are exact rationals, and so is sum |c_k|^2/(k + 1)
    want = [sum((Fraction(c.real) ** 2 + Fraction(c.imag) ** 2) / (k + 1)
                for k, c in enumerate(p.coeffs)) for ps in _radial_inputs() for p in ps]
    got = [Fraction(float.fromhex(v)) for v in EXPECTED[name]]
    assert all(abs(g - w) <= 1e-15 * w for g, w in zip(got, want))


def _closed_form_bits() -> list:
    """float.hex of the closed forms on seeded inputs: L^2 norms of trig and
    algebraic rows at widths 1..33, and disk means at powers 2, 4 and 6,
    every input in one batch call."""
    rng = np.random.default_rng(77)
    trig = [TrigPoly(_gauss(rng, 2 * n + 1)) for n in range(17)]
    alg = [AlgebraicPoly(_gauss(rng, w)) for w in range(1, 34)]
    batches = [[AlgebraicPoly(_gauss(rng, n + 1)) for _ in range(5)] for n in (1, 4, 16, 32)]
    values = lp_norms(trig + alg, [2.0] * (len(trig) + len(alg)))
    for power in (2.0, 4.0, 6.0):
        values += [v for ps in batches for v in disk_means(ps, power)]
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("kernel", KERNELS)
def test_closed_forms_do_not_depend_on_the_blas_kernel(kernel):
    # a grid product (zgemm) rounds differently under Prescott and Haswell;
    # the closed forms make no BLAS call, so their bits must not move
    assert under_kernel(kernel, "test_engine_bits", "_closed_form_bits") == _closed_form_bits()
