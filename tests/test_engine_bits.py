"""The circle engines' exact output bits on seeded inputs.

Every value in engine_bits.json is float.hex() of a seeded call of
_circle_means or circle_max. Both engines are tuned for speed from time to
time, and a rewrite that only reorders work must keep every bit. One that
changes the arithmetic on purpose re-records the pins it moves and keeps
the old ones as a reference file, every new value within a stated relative
distance of its old pin: engine_bits_zero_padded.json holds the circle
means of the engine that evaluated each doubling level as one zero-padded
FFT, which the grid0-point FFTs per offset replaced (within 2e-15; the
largest move was 9.6e-16). The cases cover one row and many rows, one
exponent and one per row (p = 0 included), doubling budgets 0, 3 and 6,
tolerances 1e-8 and 1e-10 with rows that stop at different levels, and
one- and two-term maxima with shared and per-row weights.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from polynorm.norms import _circle_means, circle_max


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


EXPECTED = json.loads((Path(__file__).parent / "engine_bits.json").read_text())
ZERO_PADDED = json.loads((Path(__file__).parent / "engine_bits_zero_padded.json").read_text())

CASES = dict(_cases())


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_bits(name):
    assert [float(v).hex() for v in CASES[name]()] == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(ZERO_PADDED))
def test_circle_means_near_zero_padded_pins(name):
    new = np.array([float.fromhex(v) for v in EXPECTED[name]])
    old = np.array([float.fromhex(v) for v in ZERO_PADDED[name]])
    assert np.all(np.abs(new - old) <= 2e-15 * np.abs(old))
