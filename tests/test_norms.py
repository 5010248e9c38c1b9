import cmath
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polynorm import norms
from polynorm import poly as poly_mod
from polynorm.errors import (InvalidParam, NearCircleRoot, OutOfRange, PolynormError,
                             RootsNotConverged, ZeroPolynomial)
from polynorm.norms import (
    QuadratureConfig,
    _circle_means,
    _grid_candidates,
    _power_sums,
    besov_111_seminorm,
    besov_inf1_seminorm,
    circle_max,
    disk_mean,
    lp_norm,
    mahler_jensen,
    mahler_quadrature,
    sup_norm,
    sup_norm_argmax,
    wiener_norm,
)
from polynorm.poly import (AlgebraicPoly, ExponentialSum, TrigPoly, _grid_values, _real_grid_values,
                           from_roots, generate)

from blas_kernels import KERNELS, under_kernel


def _rand_trig(rng, n):
    return TrigPoly((rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)) / np.sqrt(2))


# ------------------------------------------------------------------- sup norm

def test_sup_examples():
    assert sup_norm(generate("extremal-exp", 6)) == pytest.approx(1.0, abs=1e-12)
    assert sup_norm(TrigPoly([1, 0, 1])) == pytest.approx(2.0, abs=1e-12)
    assert sup_norm(AlgebraicPoly([1, 1, 1])) == pytest.approx(3.0, rel=1e-10)


def _on_circle(p, x):
    """|p| at the angles x by direct evaluation (the power table), for either type."""
    return np.abs(p(x) if isinstance(p, TrigPoly) else p(np.exp(1j * x)))


def test_sup_beats_dense_grid():
    # Szego: |p| >= sup cos(n d) within d of the argmax, so the max over a grid
    # of spacing h is at least sup * cos(n h / 2); the engine must land in
    # between, attain its value at its argmax, and never fall below its own
    # 32(n+1)-point starting grid (up to the rounding of a second evaluation)
    rng = np.random.default_rng(5)
    dense_x = np.arange(2**16) * (2 * np.pi / 2**16)
    for n in (1, 4, 16, 64, 128):
        alg = AlgebraicPoly((rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)) / np.sqrt(2))
        for p in (_rand_trig(rng, n), alg):
            val, x = sup_norm_argmax(p)
            dense = _on_circle(p, dense_x).max()
            assert dense * (1 - 1e-13) <= val <= dense / math.cos(n * np.pi / 2**16) * (1 + 1e-13)
            assert _on_circle(p, np.array([x]))[0] == pytest.approx(val, rel=1e-13)
            grid = 32 * (n + 1)
            assert val >= _on_circle(p, np.arange(grid) * (2 * np.pi / grid)).max() * (1 - 1e-14)


def test_sup_ties_and_flat_tops():
    for n in (1, 3, 16, 64):
        mono = AlgebraicPoly([0.0] * n + [1.0])
        assert sup_norm_argmax(generate("extremal-exp", n)) == (1.0, 0.0)  # |e^{inx}| = 1
        assert sup_norm_argmax(mono) == (1.0, 0.0)  # |z^n| = 1
        # one nonzero lag product: |h|^2 has the exact lags [|c|^2, 0, ...]
        assert sup_norm_argmax(AlgebraicPoly([0.0] * n + [-1.5 + 2j])) == (2.5, 0.0)
        cos_n = TrigPoly([0.5] + [0.0] * (2 * n - 1) + [0.5])  # 2n equal peaks
        val, x = sup_norm_argmax(cos_n)
        assert val == pytest.approx(1.0, abs=1e-15)
        assert abs(math.cos(n * x)) == pytest.approx(val, abs=1e-15)


def test_sup_extreme_scales():
    # squaring 1e200 overflows and squaring 1e-200 underflows unless the
    # coefficients are first scaled by a power of two, which is exact
    rng = np.random.default_rng(41)
    for n in (1, 8, 33):
        t = _rand_trig(rng, n)
        p = AlgebraicPoly(t.coeffs[n:])
        for q in (t, p):
            base = sup_norm(q)
            for k in (-600, 600):
                assert sup_norm(q * 2.0**k) == 2.0**k * base
            for scale in (1e200, 1e-200, 1e300, 1e-300):
                assert sup_norm(q * scale) == pytest.approx(scale * base, rel=1e-14)
        assert besov_inf1_seminorm(p * 1e200) == pytest.approx(1e200 * besov_inf1_seminorm(p), rel=1e-14)


def test_circle_max_rows_are_independent():
    # a stacked row gives exactly its one-row result: each row has its own
    # power-of-two prescale (the 1e-300 rows would underflow beside the
    # 1e300 ones) and its own Newton stop (one row's slow candidates must not
    # keep another row stepping); weights may differ per row
    rng = np.random.default_rng(12)
    scales = [1e-300] * 2 + [1.0] * 24 + [1e300] * 2

    def gauss(scale):
        return scale * (rng.standard_normal(9) + 1j * rng.standard_normal(9))

    one_term = np.array([gauss(s) for s in scales] + [
        [0.0] * 8 + [1.0],  # z^8: flat
        [0.5] + [0.0] * 7 + [0.5],  # e^{4ix} cos(4x): eight tied peaks
        [1.0, 0.05, 0, 0, 0, 0, 1.0, 0, 0],  # six near-equal maxima
    ])[:, None]
    k = np.arange(9)
    two_term = np.array([[k * c, (8 - k) * c] for c in map(gauss, scales)])  # zP', 8P - zP'
    two_weights = np.stack([rng.uniform(1.0, 2.0, len(scales)), -np.ones(len(scales))], axis=1)
    two_weights[::5] = [1.0, 1.0]
    for h, weights, per_row in ((one_term, (1.0,), False), (two_term, two_weights, True)):
        val, x = circle_max(h, 288, weights)
        for r in range(len(h)):
            alone = circle_max(h[r:r + 1], 288, weights[r] if per_row else weights)
            assert (val[r], x[r]) == (alone[0][0], alone[1][0]), r
    # malik (1, 1) rows, and laguerre (rho, -1) rows whose P has every root of
    # modulus >= rho as laguerre requires, reach the same maxima on the
    # engine's default grid as on 32 * 9: 16 (9 + 1) points for positive
    # weights, 32 * 9 itself with a negative one
    rho = two_weights[:, 0]
    lag = np.array([[k * c, (8 - k) * c] for c in (
        s * from_roots(r * rng.uniform(1.0, 3.0, 8) * np.exp(2j * np.pi * rng.random(8))).coeffs
        for s, r in zip(scales, rho))])
    for h, wts in ((two_term, [1.0, 1.0]), (lag, [1.0, 1.0]), (lag, two_weights)):
        scale = np.abs(wts).sum(axis=-1) * np.abs(h).sum(axis=(1, 2))
        default, fixed = circle_max(h, weights=wts)[0], circle_max(h, 288, wts)[0]
        assert np.all(np.abs(default - fixed) <= 1e-14 * scale)
    # the flat and tied rows keep their exact tops
    assert circle_max(one_term, 288)[0][-3:-1].tolist() == [1.0, 1.0]


def _refined_maxima(c, grid):
    """(values, angles) of |h|^2, h(x) = sum_j c_j e^{ijx}, refined from every
    grid-local maximum by Newton steps on the full lag spectrum
    np.convolve(c, conj(c[::-1])) of |h|^2, highest first (ties in grid
    order)."""
    b = np.convolve(c, np.conj(c[::-1]))
    m = np.arange(1 - len(c), len(c))
    f = _grid_values(b, 1 - len(c), grid).real
    x = np.nonzero((f >= np.roll(f, 1)) & (f >= np.roll(f, -1)))[0] * (2 * np.pi / grid)
    for _ in range(30):
        e = np.exp(1j * np.multiply.outer(x, m)) * b
        f1, f2 = (e @ (1j * m)).real, (e @ -(m * m).astype(float)).real
        x = x - np.where(f2 < 0.0, f1 / np.where(f2 < 0.0, f2, -1.0), 0.0)
    f = (np.exp(1j * np.multiply.outer(x, m)) @ b).real
    order = np.argsort(-f, kind="stable")
    return f[order], x[order] % (2 * np.pi)


def _convolve_sup(c, grid):
    """(max of |h|, an angle attaining it) by _refined_maxima."""
    f, x = _refined_maxima(c, grid)
    return math.sqrt(f[0]), x[0]


def test_circle_max_matches_convolve_reference():
    # the half-lag matrix product, its _grid_values grid and the half-length Newton
    # sums give the max of the full np.convolve spectrum to rounding, and
    # |h| at the returned angle is that max. The angle itself is fixed only
    # to about sqrt(eps): |h|^2 changes by (dx)^2 |h''| / 2 < eps |h|^2 there
    rng = np.random.default_rng(13)

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    calls = [gauss(3, 1, width) for width in [*range(1, 34), 64, 128, 257]] + [gauss(1, 1, 257)]
    for h in calls:
        grid = 32 * h.shape[-1]
        val, x = circle_max(h, grid)
        default = circle_max(h)[0]  # 16 (width + 1) points
        for r, c in enumerate(h[:, 0]):
            ref_val, ref_x = _convolve_sup(c, grid)
            at_x = abs(np.polyval(c[::-1], np.exp(1j * x[r])))
            assert val[r] == pytest.approx(ref_val, rel=1e-14, abs=0.0), (h.shape, r)
            assert default[r] == pytest.approx(ref_val, rel=1e-14, abs=0.0), (h.shape, r)
            assert at_x == pytest.approx(ref_val, rel=1e-14, abs=0.0), (h.shape, r)
            assert abs((x[r] - ref_x + np.pi) % (2 * np.pi) - np.pi) <= 1e-7, (h.shape, r)


def _circle_max_bits() -> list:
    """float.hex of circle_max's values and angles on seeded rows at widths
    on both sides of poly._DFT_MAX_WIDTH: one-term rows, two-term rows with
    shared weights and with per-row weights, some negative, each call
    stacked and on a lone row."""
    rng = np.random.default_rng(83)
    out = []
    for width in (1, 2, 9, 17, 33, poly_mod._DFT_MAX_WIDTH, poly_mod._DFT_MAX_WIDTH + 1, 65):
        rows = rng.standard_normal((5, 2, width)) + 1j * rng.standard_normal((5, 2, width))
        per_row = np.stack([rng.uniform(1.0, 2.0, 5), rng.uniform(-1.0, 1.0, 5)], axis=1)
        for h, wts in ((rows[:, :1], (1.0,)), (rows, (1.0, 1.0)), (rows, per_row)):
            lone = wts[:1] if np.ndim(wts) == 2 else wts
            for val, x in (circle_max(h, weights=wts), circle_max(h[:1], weights=lone)):
                out += [float(v).hex() for v in (*val, *x)]
    return out


@pytest.mark.parametrize("kernel", KERNELS)
def test_circle_max_does_not_depend_on_the_blas_kernel(kernel):
    # the grid product (dgemm) rounds differently under Prescott and
    # Haswell, but it only picks the candidates; the lags and the Newton
    # steps make no BLAS call, so the values and angles keep their bits
    assert under_kernel(kernel, "test_norms", "_circle_max_bits") == _circle_max_bits()


@pytest.mark.parametrize("h, grid", [
    (np.ones((1, 1, 3)), 8.0),  # a float grid, once an IndexError
    (np.ones((1, 1, 3)), True),
    (np.ones((1, 1, 3)), 4),  # below 2 width - 1
    (np.zeros((1, 1, 0)), None),  # no coefficient, once numpy's zero-size reduction error
], ids=["float", "bool", "small", "zero_width"])
def test_circle_max_refuses_a_bad_grid_or_an_empty_row(h, grid):
    with pytest.raises(InvalidParam, match="integer"):
        circle_max(h, grid)


def test_circle_max_reaches_dense_grid_maximum_of_laguerre_rows():
    # rho|P'| - |Q'| for P of degree 8 with every root at modulus 1..1.05: a
    # near-zero of Q' close to the circle is a peak of F narrower than a grid
    # spacing, on whose flanks Newton overshoots (so the step bisects its
    # bracket), and two such peaks may share a spacing of 16 (width + 1)
    # points (so a negative weight doubles the grid). Each row's maximum is
    # at least the maximum of a 2^14-point grid
    rng = np.random.default_rng(6)
    n, k = 8, np.arange(9)
    c = np.array([from_roots(rng.uniform(1.0, 1.05, n) * np.exp(2j * np.pi * rng.random(n))).coeffs
                  for _ in range(1000)])
    got = circle_max(np.stack([k * c, (n - k) * c], axis=1), weights=(1.0, -1.0))[0]
    for r in range(0, len(c), 100):
        dense = np.abs(np.fft.fft(c[r:r + 100], 2**14))
        zp = np.abs(np.fft.fft(k * c[r:r + 100], 2**14))
        qp = np.abs(np.fft.fft((n - k) * c[r:r + 100], 2**14))
        floor = (zp - qp).max(axis=1) - 1e-13 * n * dense.max(axis=1)
        assert np.all(got[r:r + 100] >= floor), np.flatnonzero(got[r:r + 100] < floor) + r


def test_circle_max_default_grid_is_the_trig_sup_grid():
    # a trig row of degree n has width 2n + 1, so the default grid of
    # 16 (width + 1) points is the 32 (n + 1) of the trig sup: the same bits
    rng = np.random.default_rng(15)
    for n in [*range(17), 32, 64]:
        h = rng.standard_normal((4, 1, 2 * n + 1)) + 1j * rng.standard_normal((4, 1, 2 * n + 1))
        got, want = circle_max(h), circle_max(h, 32 * (n + 1))
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes(), n


def test_circle_max_stacked_rows_equal_one_row_calls():
    # single-term and two-term rows of several widths, including two-term rows
    # one of whose terms is zero or a single frequency, stacked and alone
    rng = np.random.default_rng(14)
    for width in (1, 2, 9, 33, 257):
        rows = rng.standard_normal((6, 2, width)) + 1j * rng.standard_normal((6, 2, width))
        rows[1, 1] = 0.0
        rows[2, 1] = 0.0
        rows[2, 1, -1] = 3.0
        weights = np.stack([rng.uniform(1.0, 2.0, 6), rng.uniform(-1.0, 1.0, 6)], axis=1)
        grid = 32 * width
        for h, wts in ((rows[:, :1], (1.0,)), (rows, weights)):
            val, x = circle_max(h, grid, wts)
            for r in range(len(h)):
                alone = circle_max(h[r:r + 1], grid, wts if len(wts) == 1 else wts[r])
                assert (val[r], x[r]) == (alone[0][0], alone[1][0]), (width, h.shape, r)


def _grid_candidates_by_definition(vals, least=None):
    # the rule of _grid_candidates, one point at a time: a row whose spread is
    # not finite or at most 1e-14 of its max offers its grid argmax alone;
    # any other row offers each point at least its two (periodic) neighbours,
    # the top quarter's floor and least[r], if given
    rows, cols = [], []
    for r, row in enumerate(vals):
        top = row.max()
        spread = top - row.min()
        if not (math.isfinite(spread) and spread > 1e-14 * max(1.0, abs(top))):
            rows.append(r)
            cols.append(int(np.argmax(row)))
            continue
        floor, n = top - 0.25 * spread, len(row)
        if least is not None:
            floor = max(floor, least[r])
        for j in range(n):
            if row[j] >= floor and row[j] >= row[j - 1] and row[j] >= row[(j + 1) % n]:
                rows.append(r)
                cols.append(j)
    return rows, cols


def _candidate_grids(rng, width):
    # random rows, ties and plateaus (small integers), flat rows (constant,
    # or spread below 1e-14 of the max), and rows holding nan or inf, mixed
    # in one array so that flat rows sit between rows with several candidates
    rows = 12
    yield rng.standard_normal((rows, width))
    ties = rng.integers(0, 3, (rows, width)).astype(float)
    yield ties
    yield np.repeat(rng.standard_normal((rows, (width + 1) // 2)), 2, axis=1)[:, :width]
    mixed = ties.copy()
    mixed[1] = 2.5
    mixed[4] = 1.0 + 1e-16 * rng.standard_normal(width)
    mixed[6, width // 2] = np.nan
    mixed[7, -1] = np.inf
    mixed[9, 0] = -np.inf
    mixed[10] = np.nan
    yield mixed
    yield np.full((3, width), np.nan)


@pytest.mark.parametrize("width", [1, 2, 3, 8, 97, 512])
def test_grid_candidates_follow_their_rule_point_by_point(width):
    rng = np.random.default_rng(width)
    for vals in _candidate_grids(rng, width):
        for v in (vals, vals[:1], np.ascontiguousarray(vals[::-1])):
            with np.errstate(invalid="ignore"):  # inf - inf: a row holding inf is flat
                got, want = _grid_candidates(v), _grid_candidates_by_definition(v)
            assert [x.tolist() for x in got] == list(want)


@pytest.mark.parametrize("width", [1, 2, 3, 8, 97, 512])
def test_grid_candidates_with_a_floor_keep_the_candidates_above_it(width):
    # ratio and slack (one value or one per row) add the floor
    # ratio * (row max) - slack: a row keeps exactly those of today's
    # candidates at or above it, and a flat row its grid argmax
    rng = np.random.default_rng(width + 100)
    for vals in _candidate_grids(rng, width):
        top = vals.max(axis=1)
        for ratio in (0.0, 0.5, 0.92, 1.0):
            for slack in (0.0, 0.1, rng.uniform(0.0, 0.5, len(vals))):
                with np.errstate(invalid="ignore"):  # 0 * inf and inf - inf
                    got = [x.tolist() for x in _grid_candidates(vals, ratio, slack)]
                    want = _grid_candidates_by_definition(vals, ratio * top - slack)
                    today = [x.tolist() for x in _grid_candidates(vals)]
                assert got == list(want)
                assert set(zip(*got)) <= set(zip(*today))


def _apart(x, y):
    """The distance of angles x and y on the circle."""
    return np.abs((x - y + np.pi) % (2 * np.pi) - np.pi)


def _as_near_tie(c, grid, gap):
    """(c, |h| at its top, the top's angle, |h| at the second peak) if the two
    highest maxima of |h|^2, h(x) = sum_j c_j e^{ijx}, differ by gap/4 to
    4 gap relative and the highest sample of the ``grid``-point grid lies at
    a lower peak, away from the top; else None."""
    dx, j = 2 * np.pi / grid, np.arange(len(c))
    f, x = _refined_maxima(c, 64 * len(c))
    far = np.flatnonzero(_apart(x, x[0]) > 1e-6)
    if far.size == 0:
        return None
    samples = np.abs(np.exp(1j * np.multiply.outer(np.arange(grid) * dx, j)) @ c) ** 2
    at_top = _apart(np.argmax(samples) * dx, x[0]) < 2 * dx
    if at_top or not gap / 4 <= 1 - f[far[0]] / f[0] <= 4 * gap:
        return None
    return c, math.sqrt(f[0]), x[0], math.sqrt(f[far[0]])


def _near_tie_row(rng, width, grid, gap):
    """_as_near_tie of a random row of ``width`` coefficients whose lower top
    peak sits on a grid point. A real row makes |h|^2 even, so its top is a
    pair of equal maxima at +-x*; adding i s v, v real, lifts one and lowers
    the other to first order in s; a rotation puts the lower one on a grid
    point."""
    dx, dense, j = 2 * np.pi / grid, 64 * width, np.arange(width)
    for _ in range(200):
        c = rng.standard_normal(width)
        f, x = _refined_maxima(c, dense)
        if _apart(2 * x[0], 0.0) < 4 * dx:
            continue  # +-x* too close to tell apart on the grid
        v = rng.standard_normal(width)
        e = np.exp(1j * x[0] * j)
        tilt = -2 * (np.conj(e @ c) * (e @ v)).imag  # d|h|^2/ds at x*, minus it at -x*
        c = c + 1j * (0.5 * gap * f[0] / tilt) * v
        f, x = _refined_maxima(c, dense)
        far = np.flatnonzero(_apart(x, x[0]) > 1e-6)
        if far.size == 0:
            continue  # the lower peak is gone
        lower = x[far[0]]
        tie = _as_near_tie(c * np.exp(-1j * j * (np.round(lower / dx) * dx - lower)), grid, gap)
        if tie is not None:
            return tie
    raise AssertionError(f"no near tie at width {width}, grid {grid}")


def _extremal_tie_row(width, grid, gap):
    """_as_near_tie of h = 1 + z^m + gap K(x - x_a)/width, m = width - 1 and
    K(x) = sum_j e^{ijx}, if it is one: |1 + z^m|^2 = 2 + 2 cos(mx) has m
    equal peaks, as sharp as Szego's bound allows, one on the grid point 0;
    the bump lifts the peak x_a = 2 pi k/m farthest from the grid."""
    m = width - 1
    k = 1 + np.argmin(np.abs((np.arange(1, m) * grid % m) / m - 0.5))
    c = np.exp(-2j * np.pi * k / m * np.arange(width)) * gap / width
    c[0] += 1.0
    c[m] += 1.0
    return _as_near_tie(c, grid, gap)


@pytest.mark.parametrize("gap", [1e-9, 1e-6, 1e-3])
def test_circle_max_keeps_the_higher_of_two_near_equal_peaks(gap):
    # a single term's candidates are pruned below (grid max) cos((w - 1) dx)
    # (Szego's bound): rows whose highest grid sample lies at a lower peak
    # still return the higher peak of a refined dense evaluation, at every
    # width of both branches of the grid evaluator, on the default grid and
    # a given one of 8 w points: random rows, and rows of peaks as sharp as
    # the bound allows, the higher about half a spacing off the grid; widths
    # 1 and 2 have one peak
    rng = np.random.default_rng(int(-math.log10(gap)))
    sharp = 0
    for width in range(1, 66):
        for grid in (None, 8 * width):
            points = grid or 16 * (width + 1)
            if width < 3:
                c = rng.standard_normal(width) + 1j * rng.standard_normal(width)
                ties = [(c, *_convolve_sup(c, 64 * width), 0.0)]
            else:
                ties = [_near_tie_row(rng, width, points, gap),
                        _extremal_tie_row(width, points, gap)]
                sharp += ties[-1] is not None
            for c, top, at, second in filter(None, ties):
                val, x = circle_max(c[None, None], grid)
                assert val[0] == pytest.approx(top, rel=1e-13, abs=0.0), (width, grid)
                assert top - val[0] < 0.25 * (top - second), (width, grid)
                if width >= 2:
                    assert _apart(x[0], at) <= 1e-6, (width, grid)
    assert sharp >= 100, sharp


# -------------------------------------------------------------------- lp norm

def test_lp_examples():
    t = generate("extremal-exp", 4)
    for p in (0.3, 1.0, 2.0, 3.7):
        assert lp_norm(t, p) == pytest.approx(1.0, rel=1e-12)
    two_cos = TrigPoly([1, 0, 1])
    assert lp_norm(two_cos, 2.0) == pytest.approx(np.sqrt(2), rel=1e-12)
    # |2cos| has zeros on the circle: cusp integrand, so the default doubling
    # budget reaches ~1e-6; a larger budget recovers the closed form 4/pi
    assert lp_norm(two_cos, 1.0) == pytest.approx(4 / np.pi, rel=1e-5)
    big = QuadratureConfig(max_doublings=13)
    assert lp_norm(two_cos, 1.0, big) == pytest.approx(4 / np.pi, rel=1e-9)


def test_lp_rejects_nonpositive_p():
    with pytest.raises(InvalidParam):
        lp_norm(TrigPoly([1, 0, 1]), 0.0)
    with pytest.raises(InvalidParam):
        lp_norm(TrigPoly([1, 0, 1]), -2.0)


def test_lp_refuses_a_subnormal_exponent():
    # p log|T| is subnormal below the smallest normal float, so expm1 lost
    # digits: p = 1e-320 gave 3.000398 for a Mahler measure of 3
    p = AlgebraicPoly([1, 2, 3])
    for power in (1e-320, 5e-324, sys.float_info.min / 2):
        with pytest.raises(InvalidParam):
            lp_norm(p, power)
    assert lp_norm(p, sys.float_info.min) == pytest.approx(3.0, rel=1e-14)


def test_lp_at_a_large_exponent_raises_out_of_range_with_no_warning():
    # |T|^1e7 overflows however the row is scaled by a power of two: the
    # first level that overflows stops the row, and the redone row overflows
    # too, so OutOfRange names the exponent, with no RuntimeWarning on the way
    g = np.random.default_rng(1)
    t = TrigPoly(g.standard_normal(9) + 1j * g.standard_normal(9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lp_norm(t, 1000.0) == pytest.approx(3.9829456, rel=1e-7)
        with pytest.raises(OutOfRange, match=r"1e\+07"):
            lp_norm(t, 1e7)
        with pytest.raises(OutOfRange, match=r"1e\+07"):
            norms.lp_norms([t, t], [1.0, 1e7])


def test_lp_at_a_large_exponent_redoes_the_rows_beyond_the_float_range():
    # scaled by the power of two of its largest coefficient, the row's
    # |T|^1000 overflows, and a constant 0.3 (scaled to 0.6) has 0.6^1455
    # subnormal, short of digits, and 0.6^1500 0; each such row is redone
    # scaled by the power of two nearest its largest sample. References:
    # means on 2^16 points.
    g = np.random.default_rng(1)
    t = TrigPoly((g.standard_normal(9) + 1j * g.standard_normal(9)) / np.sqrt(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lp_norm(t, 500.0) == pytest.approx(2.80436127107, abs=1e-10)
        assert lp_norm(t, 1000.0) == pytest.approx(2.81636785381, abs=1e-10)
        assert lp_norm(t, 2000.0) == pytest.approx(2.82287970705, abs=1e-10)
        assert lp_norm(TrigPoly([0.3]), 1455.0) == lp_norm(TrigPoly([0.3]), 1500.0) == 0.3
        assert lp_norm(AlgebraicPoly([0.5, 0.0, 0.01]), 2000.0) == pytest.approx(
            0.50930161, rel=1e-7)
        # a redone row keeps its value whatever rows share its call
        c = TrigPoly(np.eye(9)[4] * 0.3)
        assert norms.lp_norms([t, c, t], [1000.0, 1500.0, 3.0]) == [
            lp_norm(t, 1000.0), 0.3, lp_norm(t, 3.0)]


def test_lp_rejects_non_polynomial():
    with pytest.raises(InvalidParam):
        lp_norm(ExponentialSum([1.0, 2.0], [0.5, -1.5]), 1.0)
    with pytest.raises(InvalidParam):
        lp_norm(np.array([1.0, 2.0, 3.0]), 2.0)


def test_lp_extreme_scales():
    # |T|^p of 1e200 coefficients overflows and of 1e-200 ones underflows
    # unless the coefficients are first scaled by a power of two, which is exact
    rng = np.random.default_rng(47)
    for t in (TrigPoly([1, 2, 3]), _rand_trig(rng, 7), AlgebraicPoly([0.5, -2j, 1.0, 3.0])):
        for p in (0.25, 1.0, 2.0, 4.0):
            base = lp_norm(t, p)
            for scale in (1e-200, 1e200):
                got = lp_norm(t * scale, p)
                assert math.isfinite(got)
                assert got == pytest.approx(scale * base, rel=1e-14)


def test_even_p_exactness_against_autocorrelation():
    # independent oracle: ||T||_2^2 = sum |a_k|^2 (Parseval) and
    # ||T||_4^4 = sum_m |c_m|^2 with c_m the coefficient autocorrelation
    rng = np.random.default_rng(17)
    for trial in range(25):
        n = int(rng.integers(1, 14))
        t = _rand_trig(rng, n)
        a = t.coeffs
        parseval = math.sqrt(float(np.sum(np.abs(a) ** 2)))
        acf = np.correlate(a, a, mode="full")  # c_m = sum_k a_k conj(a_{k-m})
        fourth = float(np.sum(np.abs(acf) ** 2)) ** 0.25
        assert lp_norm(t, 2.0) == pytest.approx(parseval, rel=1e-12)
        assert lp_norm(t, 4.0) == pytest.approx(fourth, rel=1e-12)


def test_grid_rule_gives_even_powers_one_exact_grid():
    # the exact grid follows the row width: power * n + 1 points for a trig
    # row, power * n/2 + 1 for an algebraic one; the start grid is 16 (n + 1)
    cfg = QuadratureConfig()

    def trig(n):
        return TrigPoly(np.ones(2 * n + 1))

    assert norms._grid_rule(2.0, trig(7), cfg) == (15, 0)
    assert norms._grid_rule(4, trig(0), cfg) == (1, 0)
    assert norms._grid_rule(np.float64(6.0), trig(16), cfg) == (97, 0)
    assert norms._grid_rule(2.0, AlgebraicPoly(np.ones(8)), cfg) == (8, 0)
    assert norms._grid_rule(6, AlgebraicPoly(np.ones(17)), cfg) == (49, 0)
    for power in (1.0, 3.0, 2.5, 0.25, 0.0):
        assert norms._grid_rule(power, trig(7), cfg) == (128, cfg.max_doublings)
    # an exact grid beyond the largest grid that doubling reaches is not built
    assert norms._grid_rule(2e6, trig(16), cfg) == (272, cfg.max_doublings)


# ---------------------------------------------------------- circle means

def _direct_mean(row, kmin, p, grid):
    # the power mean M_p of |T| over the grid, by dense evaluation
    x = np.arange(grid) * (2 * np.pi / grid)
    k = np.arange(len(row)) + kmin
    a = np.abs(np.exp(1j * np.outer(x, k)) @ row)
    return float(np.mean(a**p) ** (1 / p) if p else np.exp(np.mean(np.log(a))))


def test_circle_means_doubling_matches_direct_mean():
    # one doubling adds the half-offset points to the running sum; the result
    # is the mean over the whole 2N-point grid
    rng = np.random.default_rng(3)
    for kmin, width, grid in ((0, 5, 16), (-6, 13, 40), (-2, 5, 8)):
        row = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        for p in (1.3, 0.0):
            got = _circle_means(row, p, grid, 1e-300, 1)[0]
            assert got == pytest.approx(_direct_mean(row, kmin, p, 2 * grid), rel=1e-15)


def test_circle_means_offsets_land_on_the_doubled_grid():
    # a slow row (its root has modulus 0.995) never stops early, so at budget
    # b its value is the mean over all grid0 * 2^b nodes: each level's
    # offsets must fill exactly the points the earlier levels left out
    row = np.array([-0.995 * np.exp(0.3j), 1.0, 0.2j])
    for b in range(7):
        for p in (0.0, 0.5, 1.0, 3.0):
            got = _circle_means(row, p, 16, 1e-300, b)[0]
            assert got == pytest.approx(_direct_mean(row, 0, p, 16 * 2**b), rel=1e-13), (b, p)


@pytest.fixture
def grid_shapes(monkeypatch):
    # (rows, points per row) of every batch of grid values _circle_means
    # evaluates, each one poly._grid_values call over (rows, offsets, grid0)
    # points
    shapes = []

    def recording(c, *args):
        values = _grid_values(c, *args)
        shapes.append((len(values), values[0].size))
        return values

    monkeypatch.setattr(norms, "_grid_values", recording)
    return shapes


def test_circle_max_grid_of_a_single_frequency_is_flat(monkeypatch):
    # the lags of |c e^{ikx}|^2 are exactly (|c|^2, 0, ..., 0), so in either
    # branch of _real_grid_values every grid point of F is exactly |c|^2, and
    # the row's one candidate is its first point
    grids = []

    def recording(b, *args):
        values = _real_grid_values(b, *args)
        grids.append(values)
        return values

    monkeypatch.setattr(norms, "_real_grid_values", recording)
    for width in (1, 2, 9, poly_mod._DFT_MAX_WIDTH, poly_mod._DFT_MAX_WIDTH + 1, 65):
        for k in {0, width // 2, width - 1}:
            h = np.zeros((3, 1, width), dtype=np.complex128)
            h[:, 0, k] = (0.3 - 1.7j, 5.0, 1e-3j)
            grids.clear()
            top, x = circle_max(h)
            (g,) = grids
            assert np.all(g == g[..., :1]), (width, k)
            assert top.tolist() == [abs(0.3 - 1.7j), 5.0, 1e-3] and x.tolist() == [0.0] * 3


def test_circle_means_rows_converge_alone(grid_shapes):
    # a smooth row next to slow rows whose roots nearly touch the circle: each
    # row's value is the one it gets alone, and after the first doubling only
    # the rows still changing are evaluated, at the new points only
    fast = np.array([1.0, 0.3, 0.0])
    slow = [np.array([1.0, -0.995, 0.0]), np.array([0.0, 1.0, 0.995j])]
    rows = np.stack([fast, slow[0], fast * 2j, slow[1]])
    batch = _circle_means(rows, 0.5, 32, 1e-10, 6)
    # the initial grid and the first doubling's offset share one FFT, and the
    # slow rows use the whole budget: grids 64, 128, ..., 2048
    assert grid_shapes == [(4, 64)] + [(2, 32 * 2**d) for d in range(1, 6)]
    for i, row in enumerate(rows):
        assert batch[i] == _circle_means(row, 0.5, 32, 1e-10, 6)[0]


def test_circle_means_exponent_per_row_matches_one_row_calls():
    # numpy's a ** 0.5 and a ** 2.0 take sqrt/square paths that a ** array
    # does not, so each row must equal its one-row call bit for bit
    rng = np.random.default_rng(11)
    exps = [0.0, 0.25, 0.3, 0.5, 1.0, 2.0, 4.0, 0.437, 0.5, 0.0]
    rows = rng.standard_normal((len(exps), 7)) + 1j * rng.standard_normal((len(exps), 7))
    rows[1, 3] = 0.0
    for budget in (0, 6):
        batch = _circle_means(rows, np.array(exps), 32, 1e-10, budget)
        for row, p, got in zip(rows, exps, batch):
            assert got == _circle_means(row, p, 32, 1e-10, budget)[0], (p, budget)


def test_power_sums_at_one_sum_the_moduli_as_they_are():
    # a ** 1.0 is an exact copy, so summing a itself changes no bit, for a
    # whole level and for the two halves of the first FFT batch alike
    rng = np.random.default_rng(13)
    a = np.abs(rng.standard_normal((5, 2, 37)) * 10.0 ** rng.uniform(-5, 5, (5, 2, 37)))
    for view in (a, a[:, :1], a[:, 1:], rng.random((3, 4, 50))):
        assert _power_sums(view, 1.0).tolist() == (view**1.0).sum(axis=(1, 2)).tolist()


def test_lp_norms_equal_lp_norm_bit_for_bit():
    # rows of different kinds, widths, grids and budgets share one call, and
    # zero polynomials come back as 0
    rng = np.random.default_rng(12)
    alg = AlgebraicPoly(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    polys = [_rand_trig(rng, 4), _rand_trig(rng, 4).derivative(), alg, alg.derivative(),
             TrigPoly([0.0, 0.0, 0.0]), _rand_trig(rng, 4) * 1e-200, _rand_trig(rng, 2)]
    powers = [0.25, 0.25, 2.0, 0.7, 1.0, 4, 3.0]
    got = norms.lp_norms(polys, powers)
    assert got == [lp_norm(p, power) for p, power in zip(polys, powers)]
    assert got[4] == 0.0
    with pytest.raises(InvalidParam):
        norms.lp_norms(polys[:2], [1.0, 0.0])
    # one power per polynomial: a missing power once gave a confident 0.0,
    # and an extra one was ignored
    for short, long in ((polys[:2], powers[:1]), (polys[:1], powers[:2])):
        with pytest.raises(InvalidParam):
            norms.lp_norms(short, long)


def test_circle_means_zero_budget_is_one_grid(grid_shapes):
    row = np.array([1.0, -0.97])
    got = _circle_means(row, 0.5, 24, 1e-10, 0)[0]
    assert grid_shapes == [(1, 24)]
    assert got == pytest.approx(_direct_mean(row, 0, 0.5, 24), rel=1e-15)
    with pytest.raises(InvalidParam):
        _circle_means(row, 0.5, 1, 1e-10, 0)


# ----------------------------------------------------------------- mahler norm

def test_mahler_jensen_examples():
    assert mahler_jensen(AlgebraicPoly([-1, 0, 2])) == pytest.approx(2.0, rel=1e-12)
    assert mahler_jensen(AlgebraicPoly([-2, 1])) == pytest.approx(2.0, rel=1e-12)
    p = AlgebraicPoly(np.convolve([-2, 1], [-0.5, 1]))
    assert mahler_jensen(p) == pytest.approx(2.0, rel=1e-10)


def test_mahler_jensen_multiple_root_off_circle():
    # (z - 2)^20 from its coefficients alone, so the twenty-fold root has to
    # be found numerically: M = 2^20.
    p = AlgebraicPoly(np.asarray(from_roots([2.0] * 20).coeffs))
    assert p.known_roots is None
    assert mahler_jensen(p) == pytest.approx(2.0**20, rel=1e-10)


def test_mahler_jensen_zero_raises():
    with pytest.raises(ZeroPolynomial):
        mahler_jensen(AlgebraicPoly([0.0]))


def test_mahler_quadrature_examples():
    assert mahler_quadrature(generate("extremal-exp", 3)) == pytest.approx(1.0, rel=1e-10)
    t = TrigPoly([-1, 0, 2])  # lift 2z^2 - 1, roots at +-1/sqrt2
    assert mahler_quadrature(t) == pytest.approx(mahler_jensen(t), rel=1e-8)
    assert mahler_quadrature(TrigPoly([3.5 + 0j])) == pytest.approx(3.5, rel=1e-12)


def test_mahler_quadrature_near_circle_refuses():
    lift = from_roots([1.0005, -0.3])
    with pytest.raises(NearCircleRoot):
        mahler_quadrature(AlgebraicPoly(np.asarray(lift.coeffs)))


def test_mahler_multiplicativity():
    rng = np.random.default_rng(23)
    for trial in range(30):
        dp, dq = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        p = AlgebraicPoly(rng.standard_normal(dp) + 1j * rng.standard_normal(dp))
        q = AlgebraicPoly(rng.standard_normal(dq) + 1j * rng.standard_normal(dq))
        lhs = mahler_jensen(p * q)
        rhs = mahler_jensen(p) * mahler_jensen(q)
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_mahler_cross_method_random():
    rng = np.random.default_rng(29)
    for trial in range(40):
        n = int(rng.integers(1, 7))
        inside = rng.uniform(0.2, 0.9, n) * np.exp(2j * np.pi * rng.random(n))
        outside = rng.uniform(1.1, 2.5, n) * np.exp(2j * np.pi * rng.random(n))
        t = TrigPoly(np.asarray(from_roots(np.concatenate([inside, outside])).coeffs))
        assert mahler_quadrature(t) == pytest.approx(mahler_jensen(t), rel=1e-6)


def _root_clusters(d):
    """d/4 centres at modulus 0.5..1.5, four roots 1e-3 from each, given by
    coefficients alone: Aberth runs out of its sweeps on these."""
    rng = np.random.default_rng(d)
    centres = rng.uniform(0.5, 1.5, d // 4) * np.exp(2j * np.pi * rng.random(d // 4))
    near = centres[:, None] + 1e-3 * np.exp(2j * np.pi * rng.random((d // 4, 4)))
    return AlgebraicPoly(np.asarray(from_roots(near.ravel()).coeffs))


@pytest.mark.parametrize("d", [48, 64, 128])
@pytest.mark.parametrize("mahler", [mahler_jensen, mahler_quadrature], ids=["jensen", "quadrature"])
def test_mahler_refuses_unconverged_roots(mahler, d):
    # unconverged roots once gave 3341.0 from Jensen at d = 64, where the
    # measure of these float coefficients is 1892.256, and 0.0 from quadrature
    with pytest.raises(RootsNotConverged, match=f"degree {d} .* 200 sweeps"):
        mahler(_root_clusters(d))


def test_log_mean_of_a_zero_sample_raises():
    # z^2 - 1 is exactly 0 at the grid points x = 0 and pi: log|.| is -inf
    # there, and the mean must not come out as exp(-inf) = 0.0
    with pytest.raises(NearCircleRoot, match="exactly 0"):
        _circle_means([[-1, 0, 1]], 0.0, 32, 1e-10, 6)


@pytest.mark.parametrize("power", [1e-12, 1e-6, 1e-4])
def test_tiny_power_mean_of_a_zero_sample_raises(power):
    # a zero sample of z^2 - 1 adds expm1(-inf) = -1 to a sum whose mean is
    # of order p, which takes the norm (1.0000) to 0.0 at 1e-12 and 1e-6 and
    # to 0.038 at 1e-4
    with pytest.raises(NearCircleRoot, match="exactly 0"):
        lp_norm(AlgebraicPoly([-1, 0, 1]), power)


def _within_1e8_or_refused(compute, truth):
    try:
        value = compute()
    except PolynormError:
        return
    assert value == pytest.approx(truth, rel=1e-8)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: the grid does not follow the root distance")
def test_roadmap_item_5_mahler_quadrature_of_a_root_just_outside_the_gate():
    # the root -1.002 lies outside the 1e-3 NearCircleRoot gate, but
    # _grid_rule(0.0) stops at 2048 points: 1.0019917568, 8.2e-6 off M = 1.002
    _within_1e8_or_refused(lambda: mahler_quadrature(AlgebraicPoly([1.002, 1])), 1.002)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: an unconverged mean at small p is not flagged")
def test_roadmap_item_1_lp_norm_at_p_1e3_with_roots_on_the_circle():
    # |z^2 - 1| = 2|sin x|, whose p-th power has the mean
    # 2^p G((p+1)/2) / (sqrt(pi) G(p/2+1)); the grid gives 0.7174 against 1.000411
    p = 1e-3
    mean = 2**p * math.gamma((p + 1) / 2) / (math.sqrt(math.pi) * math.gamma(p / 2 + 1))
    truth = mean ** (1 / p)
    _within_1e8_or_refused(lambda: lp_norm(AlgebraicPoly([-1, 0, 1]), p), truth)


# --------------------------------------------------------- wiener and besov

def test_wiener_examples():
    assert wiener_norm(AlgebraicPoly([1, 1, 1])) == 3.0
    assert wiener_norm(AlgebraicPoly([0, 0, 0, 1])) == 1.0
    p = generate("unimodular-random", 6, seed=1)
    assert wiener_norm(p) == pytest.approx(7.0, rel=1e-12)


def test_besov_111_examples():
    assert besov_111_seminorm(AlgebraicPoly([2, 3])) == 0.0
    assert besov_111_seminorm(AlgebraicPoly([0, 0, 1])) == pytest.approx(2.0, rel=1e-10)
    assert besov_111_seminorm(AlgebraicPoly([0, 0, 0, 1])) == pytest.approx(4.0, rel=1e-10)


def test_besov_111_seminorms_equal_one_input_calls():
    # every dilated row of every input shares one _circle_means call
    rng = np.random.default_rng(13)
    polys = [AlgebraicPoly(rng.standard_normal(6) + 1j * rng.standard_normal(6)) for _ in range(3)]
    polys.insert(1, AlgebraicPoly([1.0, 2.0, 0, 0, 0, 0]))  # p'' = 0
    got = norms.besov_111_seminorms(polys)
    assert got.tolist() == [besov_111_seminorm(p) for p in polys]
    assert got[1] == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_rows_in_batched_calls_are_exactly_zero():
    # the engines take zero rows as they are: a zero input, or an input with a
    # zero derivative, mixed into a batch gives exactly 0, every other row its
    # one-input value bit for bit, and nothing warns
    rng = np.random.default_rng(17)
    n = 5

    def alg():
        return AlgebraicPoly(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))

    zero, const = AlgebraicPoly(np.zeros(n + 1)), AlgebraicPoly([2.5] + [0.0] * n)
    polys = [alg(), zero, alg(), const, alg()]
    vals, xs = norms.sup_norms_argmax(polys)
    assert vals[1] == 0.0 and sup_norm(zero) == 0.0
    for i in (0, 2, 3, 4):
        assert (vals[i], xs[i]) == sup_norm_argmax(polys[i])
    trigs = [_rand_trig(rng, n), TrigPoly(np.zeros(2 * n + 1)), _rand_trig(rng, n)]
    vals, xs = norms.sup_norms_argmax(trigs)
    assert vals[1] == 0.0
    assert [(vals[i], xs[i]) for i in (0, 2)] == [sup_norm_argmax(trigs[i]) for i in (0, 2)]
    got = norms.besov_inf1_seminorms(polys)
    assert got[1] == 0.0 and got[3] == 0.0
    assert got.tolist() == [besov_inf1_seminorm(p) for p in polys]
    assert norms.besov_inf1_seminorms([const, zero, const * 3.0]).tolist() == [0.0, 0.0, 0.0]
    assert norms.besov_inf1_seminorms([]).shape == (0,)
    assert [a.shape for a in norms.sup_norms_argmax([])] == [(0,), (0,)]
    powers = [0.5, 0.5, 3.0, 2.0, 0.5]
    got = norms.lp_norms(polys, powers)
    assert got[1] == 0.0
    assert got == [lp_norm(p, power) for p, power in zip(polys, powers)]


def test_besov_inf1_examples():
    assert besov_inf1_seminorm(AlgebraicPoly([5.0])) == 0.0
    assert besov_inf1_seminorm(AlgebraicPoly([0, 1])) == pytest.approx(1.0, rel=1e-12)
    assert besov_inf1_seminorm(AlgebraicPoly([0, 0, 1])) == pytest.approx(1.0, rel=1e-12)


def test_besov_inf1_against_dense_radial_sup():
    # the same Gauss-Legendre rule in r, with each radial sup taken as the max
    # over 2^14 angles; by the Szego bound of test_sup_beats_dense_grid the
    # engine's sup lies between that max and the max / cos(m h / 2)
    t, w = np.polynomial.legendre.leggauss(64)
    r, w = (t + 1) / 2, w / 2
    xs = np.arange(2**14) * (2 * np.pi / 2**14)
    rng = np.random.default_rng(43)
    for n in (2, 5, 12):
        p = AlgebraicPoly(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
        dp = p.derivative()
        dense = np.array([np.abs(dp(ri * np.exp(1j * xs))).max() for ri in r])
        ref = float(np.sum(w * dense))
        val = besov_inf1_seminorm(p)
        m = n - 1
        assert ref * (1 - 1e-13) <= val <= ref / math.cos(m * np.pi / 2**14) * (1 + 1e-13)


def test_quadrature_config_round_trip():
    cfg = QuadratureConfig(max_doublings=3, rel_tol=1e-9, radial_nodes=16, area_rel_tol=1e-6)
    assert QuadratureConfig.from_json(cfg.to_json()) == cfg
    with pytest.raises(InvalidParam):
        QuadratureConfig.from_json({"nope": 1})
    # the engines choose their own grids: grid_multiplier is an unknown key
    with pytest.raises(InvalidParam):
        QuadratureConfig.from_json({"grid_multiplier": 16})
    with pytest.raises(InvalidParam):
        QuadratureConfig(rel_tol=0.0)


@pytest.mark.parametrize("fields", [
    {"rel_tol": math.nan}, {"area_rel_tol": math.nan}, {"max_doublings": 2.5},
    {"max_doublings": 6.0}, {"radial_nodes": 32.5}, {"max_doublings": True},
    {"radial_nodes": True}])
def test_quadrature_config_refuses_nan_tolerances_and_non_integer_counts(fields):
    # a NaN rel_tol made every circle mean run its whole doubling budget
    with pytest.raises(InvalidParam):
        QuadratureConfig(**fields)
    with pytest.raises(InvalidParam):
        QuadratureConfig.from_json(fields)


def test_disk_mean_monomials():
    # integral of |z^k|^power over the disk (normalized area) is 2/(k*power + 2)
    for k in (0, 1, 3, 6):
        mono = np.zeros(k + 1)
        mono[-1] = 1.0
        assert disk_mean(AlgebraicPoly(mono), 2.0) == pytest.approx(1 / (k + 1), rel=1e-10)
        assert disk_mean(AlgebraicPoly(mono), 1.0) == pytest.approx(2 / (k + 2), rel=1e-10)


def test_disk_mean_even_powers_evaluate_no_grid(grid_shapes):
    # the disk means of |q|^2 and |q|^4 = |q^2|^2 are sum |c_k|^2/(k + 1) over
    # the coefficients of q and q^2, taken from the coefficients with no grid
    rng = np.random.default_rng(19)
    for deg in range(17):
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        c2 = np.convolve(c, c)
        for power, coeffs in ((2, c), (4, c2)):
            got = disk_mean(AlgebraicPoly(c), power)
            want = float(np.sum(np.abs(coeffs) ** 2 / np.arange(1, len(coeffs) + 1)))
            assert got == pytest.approx(want, rel=2e-15), (deg, power)
    assert grid_shapes == []


def _gaussian_integer_powers(c, m):
    """The coefficients of P, P^2, ..., P^m as (re, im) pairs of Python ints,
    for P with the Gaussian-integer coefficients ``c``."""
    powers = [c]
    for _ in range(m - 1):
        q = [(0, 0)] * (len(powers[-1]) + len(c) - 1)
        for i, (x, y) in enumerate(powers[-1]):
            for j, (u, v) in enumerate(c):
                re, im = q[i + j]
                q[i + j] = (re + x * u - y * v, im + x * v + y * u)
        powers.append(q)
    return powers


@pytest.mark.parametrize("n", [1, 16, 63, 64, 200])
def test_even_power_disk_means_and_l2_norms_are_exact(n, grid_shapes):
    # with Gaussian-integer coefficients, the disk mean of |P|^(2m) is the
    # rational sum_k |(P^m)_k|^2/(k + 1) and ||P||_2^2 the integer
    # sum |c_k|^2, so both have exact references in Python ints; a grid rule
    # exact only while m n < 64 missed them by up to 3.6e-8 at n = 200
    rng = np.random.default_rng(n)
    re, im = rng.integers(-9, 10, (2, 2 * n + 1))
    c = [(int(a), int(b)) for a, b in zip(re[:n + 1], im[:n + 1])]
    p = AlgebraicPoly(re[:n + 1] + 1j * im[:n + 1])
    batch = [p, p.reciprocal(), AlgebraicPoly(np.zeros(n + 1)), p * 1e-300]
    for m, q in enumerate(_gaussian_integer_powers(c, 3), start=1):
        want = sum(Fraction(a * a + b * b, k + 1) for k, (a, b) in enumerate(q))
        assert abs(Fraction(disk_mean(p, 2 * m)) - want) <= 1e-15 * want, m
        assert norms.disk_means(batch, 2 * m).tolist() == [disk_mean(x, 2 * m) for x in batch]
    t = TrigPoly(re + 1j * im)
    for x in (p, t):
        squares = int(np.sum(x.coeffs.real.astype(np.int64) ** 2 + x.coeffs.imag.astype(np.int64) ** 2))
        want = Fraction(math.isqrt(squares << 200), 1 << 100)  # sqrt to 2^-100
        assert abs(Fraction(lp_norm(x, 2.0)) - want) <= 1e-15 * want
    mixed = batch + [t, t.derivative(), t * 1e300]
    assert norms.lp_norms(mixed, [2.0] * len(mixed)) == [lp_norm(x, 2) for x in mixed]
    assert grid_shapes == []


def test_disk_mean_refuses_a_power_that_is_not_finite_and_positive():
    p = AlgebraicPoly([1.0, 0.5, -2j])
    for power in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(InvalidParam):
            disk_mean(p, power)
        with pytest.raises(InvalidParam):
            norms.disk_means([p, AlgebraicPoly(np.zeros(3))], power)


def test_disk_and_besov_forms_take_analytic_polynomials_of_one_degree():
    # an analytic TrigPoly is its analytic part; one with a negative
    # frequency has no disk integral (its lift's was returned), and a
    # non-polynomial or a batch of mixed degrees is a typed error, not an
    # AttributeError or numpy's ValueError
    cfg = QuadratureConfig(radial_nodes=8)
    singles = {"disk_mean": lambda q: disk_mean(q, 2.0, cfg),
               "disk_mean 1": lambda q: disk_mean(q, 1.0, cfg),
               "besov_111": lambda q: besov_111_seminorm(q, cfg),
               "besov_inf1": lambda q: besov_inf1_seminorm(q, cfg)}
    batches = {"disk_means": lambda qs: norms.disk_means(qs, 2.0, cfg),
               "besov_111": lambda qs: norms.besov_111_seminorms(qs, cfg),
               "besov_inf1": lambda qs: norms.besov_inf1_seminorms(qs, cfg),
               "sup_norms_argmax": lambda qs: norms.sup_norms_argmax(qs)[0]}
    alg = AlgebraicPoly([2.0, 3.0 - 1j, 0.5, 1j])
    for name, fn in singles.items():
        assert fn(TrigPoly(np.concatenate([np.zeros(3), alg.coeffs]))) == fn(alg), name
        for bad in (TrigPoly([1.0, 2.0, 3.0]), "x", alg.coeffs):
            with pytest.raises(InvalidParam):
                fn(bad)
    mixed = [alg, AlgebraicPoly([1.0, 2.0, 3.0, 4.0, 5.0])]
    for name, fn in batches.items():
        with pytest.raises(InvalidParam):
            fn(mixed)
    for name in ("disk_means", "besov_111", "besov_inf1"):
        with pytest.raises(InvalidParam):
            batches[name]([alg, TrigPoly([1.0, 2.0, 3.0])])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_disk_means_zero_rows_are_exactly_zero():
    # a zero input, or one with a zero second derivative, gives exactly 0 and
    # leaves every other row at its one-input value, bit for bit
    rng = np.random.default_rng(19)
    polys = [AlgebraicPoly(rng.standard_normal(5) + 1j * rng.standard_normal(5)),
             AlgebraicPoly(np.zeros(5)), AlgebraicPoly([1.0, -3.0, 0, 0, 0])]
    for power in (0.5, 1.0, 2.0, 4.0, 6.0):
        got = norms.disk_means(polys, power)
        assert got[1] == 0.0
        assert got.tolist() == [disk_mean(p, power) for p in polys]
    assert norms.besov_111_seminorms(polys).tolist()[1:] == [0.0, 0.0]
    assert norms.disk_means([], 1.0).shape == (0,)


@pytest.mark.parametrize("scale, rel", [(1e306, 1e-13), (1e-310, 1e-10)])
def test_circle_means_extreme_scales(scale, rel):
    # every circle mean scales its own rows, so the disk means of 1e306
    # coefficients do not overflow, and those of subnormal ones keep their
    # digits; the looser bound at 1e-310 is the input's own rounding
    rng = np.random.default_rng(53)
    for n in (3, 6, 10):
        c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        p = AlgebraicPoly(c / (n * n * np.abs(c).max()))  # |p''| stays below 1e306 * n
        for norm in (besov_111_seminorm, lambda q: disk_mean(q, 1.0), mahler_quadrature):
            got = norm(p * scale)
            assert math.isfinite(got) and got > 0.0
            assert got / scale == pytest.approx(norm(p), rel=rel)


def test_disk_means_stay_finite_when_circle_means_overflow():
    # the circle means of p'' exceed the float range near r = 1 while the
    # seminorm, 1e306 times that of p, does not; each input is scaled by its
    # own power of two, and an integral that itself overflows raises
    rng = np.random.default_rng(0)
    p = AlgebraicPoly(rng.standard_normal(11) + 1j * rng.standard_normal(11))
    base = besov_111_seminorm(p)
    assert base == pytest.approx(42.3788, rel=1e-5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = besov_111_seminorm(p * 1e306)
        assert got == pytest.approx(1e306 * base, rel=1e-14)
        assert disk_mean(p * 2.0**900, 1.0) == 2.0**900 * disk_mean(p, 1.0)
        with pytest.raises(OutOfRange):
            disk_mean(p * 1e306, 1.5)


@pytest.mark.parametrize("norm", [
    lambda: lp_norm(TrigPoly(np.full(3, 1.5e308)), 1.0),  # _circle_means, about 2.4e308
    lambda: sup_norm(TrigPoly(np.full(3, 1.5e308))),  # circle_max, 4.5e308
    lambda: wiener_norm(AlgebraicPoly(np.full(3, 1.5e308))),  # 4.5e308
    lambda: AlgebraicPoly(np.full(3, 1.5e308)).wiener(),  # the method itself
], ids=["lp", "sup", "wiener", "wiener_method"])
def test_norm_beyond_float_range_raises(norm):
    # finite coefficients whose norm does not fit in a float: a typed error,
    # not inf, and no overflow warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange):
            norm()


def _dense_disk_mean(coeffs, power, nodes=64, grid=2**16):
    t, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for r, wr in zip((t + 1) / 2, w / 2):
        spec = np.zeros(grid, dtype=np.complex128)
        spec[: len(coeffs)] = coeffs * r ** np.arange(len(coeffs))
        total += wr * r * np.mean(np.abs(np.fft.ifft(spec, norm="forward")) ** power)
    return 2 * total


@pytest.mark.parametrize("seed, n", [(7, 6), (12, 12), (42, 8), (35, 12)])
def test_besov_111_stops_per_radius(seed, n):
    # a radius near a root modulus of p'' converges slowly, and changes of
    # opposite sign at different radii cancel in the total over all radii, so
    # each radius must stop on its own change (a stop on the total is off by
    # 4e-8 to 9e-8 on these inputs)
    rng = np.random.default_rng(seed)
    p = AlgebraicPoly((rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)) / np.sqrt(2))
    ref = _dense_disk_mean(p.derivative().derivative().coeffs, 1.0)
    assert besov_111_seminorm(p) == pytest.approx(ref, rel=1e-8)


# ------------------------------------------------------------------ invariants

@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.01, max_value=50, allow_nan=False),
)
def test_homogeneity(n, seed, scale):
    t = generate("gaussian-random", n, seed=seed)
    for kind, norm in (
        ("sup", sup_norm),
        ("l1.5", lambda q: lp_norm(q, 1.5)),
        ("mahler", mahler_jensen),
    ):
        base = norm(t)
        scaled = norm(t * scale)
        assert scaled == pytest.approx(scale * base, rel=1e-11)


def test_monotonicity_in_p():
    rng = np.random.default_rng(31)
    ladder = [0.0, 0.5, 1.0, 2.0, 4.0, math.inf]
    for trial in range(20):
        n = int(rng.integers(1, 10))
        t = _rand_trig(rng, n)
        vals = []
        for p in ladder:
            if p == 0.0:
                vals.append(mahler_jensen(t))
            elif math.isinf(p):
                vals.append(sup_norm(t))
            else:
                vals.append(lp_norm(t, p))
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi * (1 + 1e-8)


def test_rotation_invariance():
    rng = np.random.default_rng(37)
    for trial in range(10):
        n = int(rng.integers(1, 9))
        t = _rand_trig(rng, n)
        a = float(rng.uniform(0, 2 * np.pi))
        shifted = t.shift(a)
        for p in (0.5, 1.0, 2.0, math.inf):
            if math.isinf(p):
                assert sup_norm(shifted) == pytest.approx(sup_norm(t), rel=1e-8)
            else:
                assert lp_norm(shifted, p) == pytest.approx(lp_norm(t, p), rel=1e-8)
        assert mahler_jensen(shifted) == pytest.approx(mahler_jensen(t), rel=1e-8)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=10**6),
)
def test_rotation_and_reflection_leave_norms_unchanged(n, seed, k):
    # metamorphic relations (ROADMAP item 13): the rotation T(. + a), the
    # reflection conj(T), coefficients conj(c[::-1]), and the reciprocal
    # z^n conj(P(1/conj z)) of the analytic part P have the modulus of the
    # original on the circle, so the sup, the even L^p norms and the Mahler
    # measure agree to rounding; a rotation P(e^{ia} z) also keeps the disk
    # mean of |P|^2, a sum over the coefficients. a = k (sqrt 5 - 1) mod 2 pi
    # is no dyadic multiple of a start grid's spacing, at which a rotation
    # would only permute grid points. Non-even p is left out: its doubling
    # rule can stop early, and a shift moves such a norm by up to about 1e-7
    # (CHANGES.md, FOUND).
    t = generate("gaussian-random", n, seed=seed)
    a = k * (math.sqrt(5.0) - 1.0) % (2 * math.pi)
    alg = t.analytic_part()
    for orig, moved in ((t, t.shift(a)), (t, TrigPoly(np.conj(t.coeffs[::-1]))),
                        (alg, alg.reciprocal())):
        assert sup_norm(moved) == pytest.approx(sup_norm(orig), rel=1e-13)
        for p in (2.0, 4.0):
            assert lp_norm(moved, p) == pytest.approx(lp_norm(orig, p), rel=1e-13)
        assert mahler_jensen(moved) == pytest.approx(mahler_jensen(orig), rel=1e-12)
    rotated = alg.dilate(cmath.exp(1j * a))
    assert disk_mean(rotated, 2.0) == pytest.approx(disk_mean(alg, 2.0), rel=4e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lp_norm_at_tiny_p_tends_to_the_mahler_norm():
    # ||T||_p -> M(T) as p -> 0, and ||T||_p - M(T) is O(p) here, so below
    # p = 1e-8 the two agree to 1e-8; a**p rounds to 1 at such p, so the
    # mean of a**p - 1 has to be summed without forming a**p
    rng = np.random.default_rng(5)
    g, h = rng.standard_normal(9), rng.standard_normal(9)
    t = TrigPoly((g + 1j * h) / np.sqrt(2))
    mahler = mahler_quadrature(t)
    assert mahler == pytest.approx(mahler_jensen(t), rel=1e-12)
    for p in (1e-9, 1e-12, 1e-16):
        assert lp_norm(t, p) == pytest.approx(mahler, rel=1e-9), p
    assert lp_norm(t, 1e-6) == pytest.approx(mahler, rel=1e-6)
