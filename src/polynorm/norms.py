"""The norm ladder against normalized arc measure on the unit circle.

sup, L^p for finite p > 0, the Mahler limit norm at p = 0 (two independent
evaluations), the Wiener coefficient norm, and two Besov-type seminorms on
the disk. Circle integrals use uniform angular grids: the N-point rule is
exact for trigonometric polynomials of degree < N by discrete orthogonality.
The remaining integrals go through one primitive, _circle_means: the power
mean M_p of |p| (M_0 = exp of the mean of log|p|) on many circles at once,
one row of coefficients (and, if need be, one exponent p) each, doubling
each row's grid until that row's M_p changes by at most the relative
tolerance; a doubling evaluates only the new points, as the initial grid
shifted by each of the level's offsets (one batched poly._grid_values call
of that grid's length per level, the initial grid and the first doubling
sharing one), and converged rows drop out of the compacted arrays the loop
carries. _grid_values is the one grid evaluator of the package: rows at
most poly._DFT_MAX_WIDTH wide are one matrix product with a cached DFT
block, wider rows one zero-padded inverse FFT. Two integrals need no
grid: the L^2 norm is Parseval's sqrt(sum |c_k|^2) (_root_sum_squares), and
the disk mean of |p|^(2m) is the Bergman-space sum
sum_k |(p^m)_k|^2/(k + 1) (_bergman_sums), both with no BLAS call. At any
other even integer power, |p|^power is itself a trig polynomial, so an L^p
norm takes one exact grid of power (width - 1)/2 + 1 points and no doubling
(_grid_rule). Any other disk integral is one _radial call: each input's row
dilated to each Gauss-Legendre node in r, and one call of the per-circle
engine (circle mean or max) on them all. Every engine scales each row by a
power of two; a value beyond the float range raises OutOfRange.

Maxima over the circle go through one engine, circle_max: each objective
is a weighted sum of moduli of polynomials with exact coefficients (|p| for
the sup norm and the radial sups, |Re T' + i n Re T| for the svdc check,
|zP'| and |nP - zP'| for the malik and laguerre checks). F is sampled on
the engine's own grid by one _grid_values call on the exact lags of each
|h|^2, with no loop over rows or terms, and grid maxima are refined by
bracketed Newton steps on exact derivatives; a single term steps on the w
nonnegative lags of |h|^2, a sum of w frequencies in place of 2w - 1.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, asdict

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import InvalidParam, NearCircleRoot, ZeroPolynomial
from .poly import (_TWO_PI, AlgebraicPoly, TrigPoly, _grid_values, _in_range, _prescaled,
                   _require_integer, _require_real, _root_arrays, root_array, roots)


@dataclass(frozen=True)
class QuadratureConfig:
    """Knobs for circle and disk quadrature.

    max_doublings:   grid-doubling budget before returning the best value.
    rel_tol:         relative agreement target for circle integrals.
    radial_nodes:    Gauss-Legendre node count for radial integrals.
    area_rel_tol:    relative agreement target for disk-area integrals.

    The engines choose their own grids (_grid_rule, circle_max), and
    max_doublings does not apply to an even integer power, which takes one
    exact grid. None of the four applies to an L^2 norm or to a disk mean at
    an even integer power, which are sums over the coefficients (the largest
    grid that max_doublings reaches still bounds which even powers count as
    exact). from_json refuses an unknown key with InvalidParam.
    """

    max_doublings: int = 6
    rel_tol: float = 1e-10
    radial_nodes: int = 64
    area_rel_tol: float = 1e-8

    def __post_init__(self):
        _require_integer(self.max_doublings, 0, "max_doublings")
        _require_integer(self.radial_nodes, 2, "radial_nodes")
        _require_real(self.rel_tol, "rel_tol", lambda v: v > 0, "> 0")
        _require_real(self.area_rel_tol, "area_rel_tol", lambda v: v > 0, "> 0")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "QuadratureConfig":
        try:
            return cls(**obj)
        except TypeError as exc:
            raise InvalidParam(f"bad quadrature config: {exc}") from exc


DEFAULT_CONFIG = QuadratureConfig()


def _circle_means(rows, p, grid0: int, rel_tol: float, max_doublings: int) -> np.ndarray:
    """For each row c of ``rows``, the circle power mean M_p of |T|,
    T(x) = sum_j c_j e^{ijx}: (mean |T|^p)^(1/p), or exp(mean log|T|) at
    p = 0, by the trapezoid rule on a uniform grid of grid0 points that
    doubles until M_p changes by at most rel_tol relative. ``p`` is one
    exponent for every row, or an array of one exponent per row. As in
    circle_max, a factor e^{ikx} leaves |T| unchanged, and each row is
    divided by its own power of two 2^e (_prescaled), which is exact: M_p,
    p = 0 included, is homogeneous of degree 1, so the row's value is
    multiplied back by 2^e.

    Each row keeps its running sum, so a doubling from N to 2N points
    evaluates only the N new points x = pi (2t + 1)/N. Writing
    t = s + q N/grid0 shows them as the grid0-point grid shifted by the
    N/grid0 offsets theta_s = pi (2s + 1)/N, so a level is one batched
    grid0-point _grid_values call on the coefficients times e^{ij theta_s},
    one row per offset: one matrix product with the cached DFT block for
    rows at most poly._DFT_MAX_WIDTH wide, one FFT per row above. The
    offsets of a level are those of the level before, each
    minus and plus pi/N (the first level has the one offset pi/grid0), so
    the loop carries each row times the twiddles of its last offsets and
    makes the next level's by one broadcast multiply with e^{-+ i pi j/N}
    (_twiddles). Every row with a budget needs the first level, so the
    initial grid and the first level's offset share one call. After that,
    only rows still changing take part: the shifted coefficients, running
    sums, last values and exponents of those rows are carried as compacted
    arrays, cut down only on a level where some row stops. The test is
    applied to each row on its own, because the rule converges at a
    different rate on each circle. A row that runs out of budget keeps its
    last value; one whose value exceeds the float range raises OutOfRange.

    Rows are independent: a row's value is the same, bit for bit, whatever
    other rows and exponents share its call; the rows of each distinct
    exponent are raised to it as one scalar (_each_exponent).
    """
    rows, e = _prescaled(np.atleast_2d(np.ascontiguousarray(rows, dtype=np.complex128)), axis=1)
    width = rows.shape[1]
    if grid0 < width:
        raise InvalidParam(f"grid {grid0} too small for {width} coefficients")
    p = np.asarray(p, dtype=np.float64)
    steps = _twiddles(grid0, width, max_doublings)
    # shifted[r, s]: row r times e^{ij theta} for the s-th offset theta of a
    # level; first the initial grid (theta = 0) and the first level's pi/grid0
    shifted = np.stack([rows, rows * steps[0, 1]], axis=1) if max_doublings else rows[:, None]
    a = np.abs(_grid_values(shifted, 0, grid0))
    sums = _each_exponent(_power_sums, a[:, :1], p)
    value = _each_exponent(_power_means, sums / grid0, p)
    # the rows still changing: their indices, shifted rows, sums, values, exponents
    active, cur = np.arange(len(rows)), value
    for level, step in enumerate(steps):
        if level:
            shifted = (shifted[:, :, None] * step).reshape(len(shifted), -1, width)
            a = np.abs(_grid_values(shifted, 0, grid0))
        else:
            shifted, a = shifted[:, 1:], a[:, 1:]
        sums += _each_exponent(_power_sums, a, p)
        last, cur = cur, _each_exponent(_power_means, sums / (2 * (grid0 << level)), p)
        done = np.abs(cur - last) <= rel_tol * np.maximum(np.abs(cur), 1e-300)
        if done.any():
            value[active] = cur
            keep = ~done
            active, shifted, sums, cur = active[keep], shifted[keep], sums[keep], cur[keep]
            p = p[keep] if p.ndim else p
            if active.size == 0:
                break
    value[active] = cur
    return _scaled_back(value, e[:, 0], "circle mean")


@functools.lru_cache(maxsize=128)
def _twiddles(grid0: int, width: int, max_doublings: int) -> np.ndarray:
    """steps[d] = (e^{-i pi j/N}, e^{i pi j/N}), j < width, for the grid
    N = grid0 2^d of each of the max_doublings levels of _circle_means,
    built once per shape and returned read-only, since every call shares it."""
    grids = grid0 << np.arange(max_doublings)
    steps = np.exp(1j * np.pi * (np.arange(width) * [[-1], [1]]) / grids[:, None, None])
    steps.flags.writeable = False
    return steps


def _scaled_back(x: np.ndarray, e: np.ndarray, what: str) -> np.ndarray:
    """x * 2^e, exact; a value beyond the float range raises OutOfRange (no
    overflow warning escapes)."""
    with np.errstate(over="ignore"):
        return _in_range(np.ldexp(x, e), what)


def _power_sums(a: np.ndarray, p: float) -> np.ndarray:
    """Per row a[r] (of shape (offsets, points)), the sum of a[r]**p, or of
    log(a[r]) at p = 0; at p = 1 a is summed as it is (a**1.0 is an exact
    copy), and below p = 1e-3, where a**p rounds to 1, the sum of
    expm1(p log a[r]) = a[r]**p - 1. A zero sample raises NearCircleRoot
    below p = 1e-3: at p = 0 it adds log 0 = -inf, and above it adds -1 to
    a sum whose mean is of order p, so the norm, that mean to the power 1/p,
    collapses toward 0."""
    if p == 1:
        return a.sum(axis=(1, 2))
    if p < 1e-3 and not a.all():
        raise NearCircleRoot("a circle sample is exactly 0, so the log mean is -inf; "
                             "use mahler_jensen")
    if 0 < p < 1e-3:
        return np.expm1(p * np.log(a)).sum(axis=(1, 2))
    return (a**p if p != 0 else np.log(a)).sum(axis=(1, 2))


def _power_means(mean: np.ndarray, p: float) -> np.ndarray:
    """mean**(1/p), or exp(mean) at p = 0, or exp(log1p(mean)/p) below
    p = 1e-3, where the mean is of a**p - 1 (_power_sums)."""
    if 0 < p < 1e-3:
        return np.exp(np.log1p(mean) / p)
    return mean ** (1.0 / p) if p != 0 else np.exp(mean)


def _each_exponent(fn, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """One value per row of x: fn(x, e) for a 0-d p = e, else fn(x[p == e], e)
    in the rows where p == e, for each distinct exponent e, passed as a
    Python float, because numpy's a ** 0.5 and a ** 2.0 take square-root and
    square paths that a ** array does not."""
    if p.ndim == 0:
        return fn(x, float(p))
    out = np.empty(len(x))
    for e in np.unique(p):
        mask = p == e
        out[mask] = fn(x[mask], float(e))
    return out


def _grid_candidates(vals: np.ndarray):
    """(row, column) of every refinement candidate of periodic functions
    sampled one per row of ``vals`` on a uniform grid, rows ascending and
    columns in grid order.

    The candidates are the grid-local maxima within the top quarter of their
    row's spread: with at least 16 samples per oscillation (circle_max's
    grid), refinement lifts a value by well under 1% of the spread, so only
    near-top maxima can compete.
    A row whose spread is negligible or not finite is flat to working
    precision, and its only candidate is its grid argmax.
    """
    gmax = vals.max(axis=1)
    spread = gmax - vals.min(axis=1)
    flat = ~(np.isfinite(spread) & (spread > 1e-14 * np.maximum(1.0, np.abs(gmax))))
    # a candidate is at least its two neighbours and the top quarter's floor
    wrapped = np.concatenate([vals[:, -1:], vals, vals[:, :1]], axis=1)
    floor = np.maximum(wrapped[:, :-2], wrapped[:, 2:])
    cand = vals >= np.maximum(floor, (gmax - 0.25 * spread)[:, None], out=floor)
    if flat.any():
        cand[flat] = False
        cand[flat, vals[flat].argmax(axis=1)] = True
    return np.divmod(np.flatnonzero(cand), vals.shape[1])


_NEWTON_STEPS = 8


def _with_derivatives(c: np.ndarray, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """c with a last axis of length 3 appended: c, d1 * c and d2 * c, the
    coefficients of a trig polynomial and of its first two derivatives."""
    out = np.empty(c.shape + (3,), dtype=np.complex128)
    out[..., 0] = c
    out[..., 1] = d1 * c
    out[..., 2] = d2 * c
    return out


def circle_max(h, grid: int | None = None, weights=(1.0,)):
    """Per row r, the max over x of F(x) = sum_t w[r, t] |h_t(x)| and an
    angle attaining it, where h[r, t] holds the coefficients c_j of
    h_t(x) = sum_j c_j e^{ijx} (a factor e^{ikx} leaves |h_t| unchanged, so
    trig coefficients can be passed as they are). ``weights`` has shape (T,),
    shared by every row, or (R, T), one set per row. Returns per row
    (max, argmax) as arrays.

    On a given grid a row's result is the same, bit for bit, whatever other
    rows share its call. Each row is first scaled by its own power of two,
    which is exact. One matrix product over a read-only strided window of the
    zero-padded coefficients gives the lags b_m = sum_j c_{j+m} conj(c_j),
    m = 0..width-1, of every |h_t|^2 (exactly [|c|^2, 0, ...] for a single
    frequency: a flat grid, which an FFT autocorrelation would round), and
    the real part of one _grid_values call on b_0, 2 b_1, ..., 2 b_{width-1}
    (the product with a cached DFT block up to poly._DFT_MAX_WIDTH lags, the
    FFT above) gives F on 16 (width + 1) points, over 16 samples per period
    of the top lag, as _grid_candidates needs. A call with a negative weight
    gets 32 width points: a near-zero of a negatively weighted term is a peak of F
    as narrow as the zero is near the circle, which the bandwidth does not
    bound, and two such peaks within one spacing of the coarser grid hid the
    higher (3 of 1000 laguerre rows of degree 8, roots at modulus 1..1.05;
    none at 32 width). A given ``grid`` (at least 2 width - 1) overrides both.

    Each candidate takes Newton steps x <- x - F'/F'' on exact derivatives,
    or half-spacing ascent steps where F'' >= 0, inside a bracket of a maximum
    that starts one spacing either side and shrinks to each iterate by the
    sign of F'. A step out of the bracket, unless rounding-level (1e-13),
    bisects it: on a narrow peak's flanks F'' is small and Newton overshoots.
    A row stops once none of its candidates moves by more than 1e-13; its
    result is its first candidate (in grid order) holding its best iterate,
    read from the run starts with reduceat. A single term, whose weight must
    be positive, steps on |h|^2 = b_0 + 2 Re sum_{m>=1} b_m e^{imx}: the same
    maximizer, width frequencies, no square root. Several terms step on F
    from h_t, h_t' and h_t'' (a term adds no derivative at its zeros): square
    roots of |h_t|^2 would lose half the digits where a term nearly vanishes.
    """
    h, e = _prescaled(np.ascontiguousarray(h, dtype=np.complex128), axis=(1, 2))
    width = h.shape[-1]
    single = h.shape[1] == 1
    w = np.asarray(weights, dtype=np.float64)
    if grid is None:
        grid = 32 * width if (w < 0.0).any() else 16 * (width + 1)
    if grid < 2 * width - 1:
        raise InvalidParam(f"grid {grid} too small for {width} coefficients")
    # the lags sum_j c_{j+m} conj(c_j), m >= 0, of every |h_t|^2
    padded = np.zeros(h.shape[:-1] + (2 * width - 1,), dtype=np.complex128)
    padded[..., :width] = h
    windows = as_strided(padded, h.shape + (width,), padded.strides + padded.strides[-1:],
                         writeable=False)  # windows[..., m, :] = padded[..., m:m + width]
    m = np.arange(width)
    # |h_t|^2 = Re sum_m b_m e^{imx}, b the lags with those of m >= 1 doubled
    b = (windows @ np.conj(h)[..., None])[..., 0] * np.where(m > 0, 2.0, 1.0)
    g = _grid_values(b, 0, grid).real
    vals = g[:, 0] if single else (np.sqrt(np.maximum(g, 0.0)) * w[..., None]).sum(axis=1)
    rows, cols = _grid_candidates(vals)
    dx = _TWO_PI / grid
    x0 = cols * dx
    wk = w[rows].T if w.ndim == 2 else w[:, None]  # (T, candidates) or (T, 1)

    im = 1j * m
    if single:
        coef = _with_derivatives(b[:, 0], im, -(m * m))[rows]

        def objective(x):
            return np.einsum("kj,kjs->sk", np.exp(np.multiply.outer(x, im)), coef).real
    else:
        coef = _with_derivatives(h, im, -(m * m))[rows]

        def objective(x):
            v, v1, v2 = np.einsum("kj,ktjs->stk", np.exp(np.multiply.outer(x, im)), coef)
            terms = np.empty((3,) + v.shape)  # |h_t| and its two derivatives
            a = np.abs(v, out=terms[0])
            inv = 1.0 / np.where(a > 0.0, a, np.inf)
            cv = np.conj(v)
            d1 = np.multiply((cv * v1).real, inv, out=terms[1])
            np.multiply((v1 * np.conj(v1)).real + (cv * v2).real - d1 * d1, inv, out=terms[2])
            return (terms * wk).sum(axis=1)

    x = x0
    lo, hi, half_dx = x0 - dx, x0 + dx, 0.5 * dx
    f, f1, f2 = objective(x)
    top_x, top_f = x.copy(), f.copy()
    # every row has a candidate and rows ascend: row r's run starts at starts[r]
    starts = np.searchsorted(rows, np.arange(len(h)))
    for _ in range(_NEWTON_STEPS):
        np.copyto(lo, x, where=f1 > 0.0)  # [lo, hi] brackets a maximum
        np.copyto(hi, x, where=f1 < 0.0)
        concave = f2 < 0.0
        move = half_dx * np.sign(f1)
        np.divide(-f1, f2, out=move, where=concave)
        x_next = x + move
        bisect = ((x_next <= lo) | (x_next >= hi)) & (np.abs(move) > 1e-13)
        np.copyto(x_next, 0.5 * (lo + hi), where=bisect)
        moving = np.abs(x_next - x) > 1e-13
        if not moving.any():
            break
        if not moving.all():
            # a row none of whose candidates moved keeps its x, so it
            # computes the same step again and stays stopped
            x_next = np.where(np.logical_or.reduceat(moving, starts)[rows], x_next, x)
        x = x_next
        f, f1, f2 = objective(x)
        up = f > top_f
        np.copyto(top_x, x, where=up)
        np.copyto(top_f, f, where=up)

    # per row, the first candidate (in grid order) holding the row's best value
    best = np.maximum.reduceat(top_f, starts)[rows]
    first = np.minimum.reduceat(np.where(top_f == best, np.arange(len(rows)), len(rows)), starts)
    top = w[..., 0] * np.sqrt(np.maximum(top_f[first], 0.0)) if single else top_f[first]
    return _scaled_back(top, e[:, 0, 0], "circle max"), top_x[first] % _TWO_PI


def sup_norm(p) -> float:
    """Max of |p| on the circle: circle_max with the one term p."""
    val, _ = sup_norm_argmax(p)
    return val


def sup_norm_argmax(p):
    """(sup norm, an angle attaining it): sup_norms_argmax of the one row p."""
    val, x = sup_norms_argmax([p])
    return float(val[0]), float(x[0])


def sup_norms_argmax(polys):
    """sup_norm_argmax of each of ``polys``, polynomials of one width, as
    two arrays: one circle_max call, one row per polynomial."""
    for p in polys:
        if not isinstance(p, (TrigPoly, AlgebraicPoly)):
            raise InvalidParam(f"expected a polynomial, got {type(p).__name__}")
    if not polys:
        return np.zeros(0), np.zeros(0)
    return circle_max(_stacked([p.coeffs for p in polys])[:, None])


def _stacked(rows) -> np.ndarray:
    """The coefficient ``rows`` of a batch call as one complex array; rows of
    different widths raise InvalidParam."""
    if len({len(c) for c in rows}) > 1:
        raise InvalidParam("a batch call takes polynomials of one width (one declared degree)")
    return np.array(rows, dtype=np.complex128)


def lp_norm(p, power: float, cfg: QuadratureConfig | None = None) -> float:
    """(integral of |p|^power dm)^(1/power) for finite power > 0: lp_norms of
    the one polynomial p.

    At power 2 this is Parseval's sqrt(sum |c_k|^2), with no grid. For other
    even integer powers the integrand is itself a trig polynomial, of degree
    power*n for a trig p and power*n/2 for an algebraic one, so one grid of
    one point more is exact; otherwise the grid doubles, adding only the new
    points, until successive norms agree to rel_tol (_grid_rule).
    """
    return lp_norms([p], [power], cfg)[0]


def lp_norms(polys, powers, cfg: QuadratureConfig | None = None) -> list:
    """lp_norm of each polys[i] at powers[i], as a list of floats; lists of
    different lengths raise InvalidParam.

    The rows that share their width, initial grid and doubling budget go
    through one _circle_means call, or at power 2 one _root_sum_squares call
    (grid 0), whose rows are independent, so each value is the same, bit for
    bit, as the one lp_norm gives alone. The derivative of an algebraic
    polynomial has a smaller initial grid than the polynomial, and an even
    integer power has its own exact grid and no doublings.
    """
    if len(polys) != len(powers):
        raise InvalidParam(f"{len(polys)} polynomials but {len(powers)} powers")
    cfg = cfg or DEFAULT_CONFIG
    out = [0.0] * len(polys)
    groups: dict = {}
    for i, (p, power) in enumerate(zip(polys, powers)):
        _require_real(power, "the L^p exponent", lambda v: v > 0,
                      "> 0 (the mahler functions cover p = 0)")
        if not isinstance(p, (TrigPoly, AlgebraicPoly)):
            raise InvalidParam(f"expected a polynomial, got {type(p).__name__}")
        rule = (0, 0) if power == 2 else _grid_rule(power, p, cfg)
        groups.setdefault((len(p.coeffs),) + rule, []).append(i)
    for (_, grid0, budget), idx in groups.items():
        rows = np.array([polys[i].coeffs for i in idx])
        if grid0:
            exps = [powers[i] for i in idx]
            exps = float(exps[0]) if len(set(exps)) == 1 else exps
            norms = _circle_means(rows, exps, grid0, cfg.rel_tol, budget)
        else:
            norms = _root_sum_squares(rows)
        for i, norm in zip(idx, norms.tolist()):
            out[i] = norm
    return out


def _root_sum_squares(rows: np.ndarray) -> np.ndarray:
    """Per row c, Parseval's L^2 norm sqrt(sum_k |c_k|^2), taken of the row
    divided by its own power of two (_prescaled) and scaled back: no BLAS
    call, and no other row enters a row's bits."""
    rows, e = _prescaled(rows, axis=1)
    f = rows.view(np.float64)
    return _scaled_back(np.sqrt((f * f).sum(axis=1)), e[:, 0], "L^2 norm")


def _grid_rule(power, p, cfg: QuadratureConfig) -> tuple:
    """(initial grid, doubling budget) of the circle means of |q|^power for
    rows q as wide as p's coefficients, the rule of lp_norms, disk_means and
    mahler_quadrature (power 0): the _exact_grid with budget 0 where there is
    one, else 16 (n + 1) points, n the declared degree, with
    cfg.max_doublings."""
    exact = _exact_grid(power, p, cfg)
    return (exact, 0) if exact else (16 * (p.degree + 1), cfg.max_doublings)


def _exact_grid(power, p, cfg: QuadratureConfig) -> int:
    """At an even integer power > 0, |q|^power, for rows q as wide as p's
    coefficients, is a trig polynomial of degree (power/2)(width - 1), which
    the trapezoid rule integrates exactly on one point more: power * n + 1
    points for a trig row, power * n/2 + 1 for an algebraic one. That grid,
    if no larger than the largest grid doubling reaches from 16 (n + 1)
    points, n the declared degree; else 0. disk_means takes its closed form
    on the same powers."""
    rounded = round(power)
    if rounded == power and rounded > 0 and rounded % 2 == 0:
        exact = int(rounded) // 2 * (len(p.coeffs) - 1) + 1
        if exact <= 16 * (p.degree + 1) << cfg.max_doublings:
            return exact
    return 0


def mahler_jensen(p) -> float:
    """Mahler norm via roots: |leading| * prod max(1, |z_j|).

    Accepts an algebraic polynomial or a trig polynomial (through its lift,
    which has the same Mahler norm since |z^n| = 1 on the circle). Uses root
    provenance attached by generators when available.
    """
    lift, lead = _mahler_lift(p)
    return _jensen(lead, root_array(lift))


def _mahler_jensens(polys) -> list:
    """mahler_jensen of each polynomial of ``polys``, with the roots of those
    without known roots from one poly._root_arrays call."""
    pairs = [_mahler_lift(p) for p in polys]
    return [_jensen(lead, rts)
            for (_, lead), rts in zip(pairs, _root_arrays([lift for lift, _ in pairs]))]


def _mahler_lift(p):
    """(p, or the lift of a TrigPoly p, and its leading coefficient);
    ZeroPolynomial on a zero p."""
    lift = p.to_algebraic() if isinstance(p, TrigPoly) else p
    d_eff = lift.effective_degree
    if d_eff is None:
        raise ZeroPolynomial("mahler norm of the zero polynomial")
    return lift, lift.coeffs[d_eff]


def _jensen(lead, rts: np.ndarray) -> float:
    """|lead| * prod max(1, |z_j|) over the roots ``rts``."""
    log_val = math.log(abs(complex(lead)))
    log_val += float(np.log(np.maximum(1.0, np.abs(rts))).sum())
    return math.exp(log_val)


def mahler_quadrature(p, cfg: QuadratureConfig | None = None) -> float:
    """Mahler norm as exp of the grid-doubled circle mean of log|p|.

    Refuses (NearCircleRoot) when some root of the lift lies within 1e-3 of
    the circle, or a grid sample is exactly 0: the contour-log singularity
    makes plain quadrature unreliable there and the Jensen path is
    authoritative. Roots that do not converge raise RootsNotConverged.
    """
    cfg = cfg or DEFAULT_CONFIG
    lift = p.to_algebraic() if isinstance(p, TrigPoly) else p
    if lift.effective_degree is None:
        raise ZeroPolynomial("mahler norm of the zero polynomial")
    rset = roots(lift)
    if rset.roots.size:
        gap = float(np.abs(np.abs(rset.roots) - 1.0).min())
        if gap < 1e-3:
            raise NearCircleRoot(
                f"a root lies within {gap:.2e} of the unit circle; use mahler_jensen"
            )
    grid0, budget = _grid_rule(0.0, p, cfg)
    return float(_circle_means(p.coeffs, 0.0, grid0, cfg.rel_tol, budget)[0])


def wiener_norm(p: AlgebraicPoly) -> float:
    """Sum of |a_k| over the analytic coefficients (AlgebraicPoly.wiener); a
    sum beyond the float range raises OutOfRange."""
    return _require_algebraic(p).wiener()


@functools.lru_cache(maxsize=8)
def _radial_rule(nodes: int):
    """Gauss-Legendre nodes and weights on [0, 1], built once per node count
    and returned read-only, since every caller shares them."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    r, w = (t + 1.0) / 2.0, w / 2.0
    r.flags.writeable = False
    w.flags.writeable = False
    return r, w


def _radial(coeffs: np.ndarray, nodes: int, per_circle):
    """(r, w, values): the nodes and weights of _radial_rule, and values[i, j],
    per_circle's value on the circle |z| = r[j] for row i of ``coeffs``, from
    one per_circle call on all the dilated rows c_k r^k, one value each."""
    r, w = _radial_rule(nodes)
    rows = coeffs[:, None, :] * r[:, None] ** np.arange(coeffs.shape[1])
    return r, w, per_circle(rows.reshape(-1, coeffs.shape[1])).reshape(len(coeffs), len(r))


def disk_mean(p: AlgebraicPoly, power: float = 1.0,
              cfg: QuadratureConfig | None = None) -> float:
    """integral of |p|^power over the disk against normalized area measure.

    At an even integer power the sum of _bergman_sums over the coefficients,
    with no grid. Otherwise the polar form 2 * int_0^1 r * M(r)^power dr with
    Gauss-Legendre radial nodes, M(r) the power mean M_power of |p| on the
    circle of radius r: one row of _circle_means on the dilated coefficients
    c_k r^k, whose angular grid doubles, adding only the new points, until
    M(r) changes by at most area_rel_tol (_grid_rule).
    """
    return float(disk_means([p], power, cfg)[0])


def disk_means(polys, power: float = 1.0, cfg: QuadratureConfig | None = None) -> np.ndarray:
    """disk_mean of each of ``polys``, algebraic polynomials (or analytic
    TrigPoly, taken as their analytic part) of one declared degree; other
    inputs, or mixed degrees, raise InvalidParam. At an even integer power
    that _exact_grid covers, each value is one row of _bergman_sums; at any
    other, the circle means over every radius of every input come from one
    _radial call of _circle_means, on the grid and budget of _grid_rule.
    ``power`` must be finite and positive; a zero polynomial has disk mean 0.

    Each input is first divided by its own power of two 2^s (_prescaled),
    which is exact, so its circle means stay in range even where those of
    the input would not (a circle mean can exceed the largest coefficient
    by a factor up to the number of coefficients). The integral,
    homogeneous of degree ``power``, is multiplied back by 2^(s power),
    exactly when s power is an integer; one beyond the float range raises
    OutOfRange.
    """
    _require_real(power, "the disk mean's power", lambda v: v > 0, "> 0")
    if not polys:
        return np.zeros(0)
    cfg = cfg or DEFAULT_CONFIG
    polys = [_require_algebraic(p) for p in polys]
    coeffs, s = _prescaled(_stacked([p.coeffs for p in polys]), axis=1)
    if _exact_grid(power, polys[0], cfg):
        m = int(power) // 2
        return _scaled_back(_bergman_sums(coeffs, m), s[:, 0] * (2 * m), "disk mean")
    grid0, budget = _grid_rule(power, polys[0], cfg)
    r, w, means = _radial(coeffs, cfg.radial_nodes, lambda rows: _circle_means(
        rows, power, grid0, cfg.area_rel_tol, budget))
    scale = s[:, 0] * power
    whole = np.floor(scale)
    return _scaled_back(2.0 * (w * r * means**power).sum(axis=1) * 2.0 ** (scale - whole),
                        whole.astype(int), "disk mean")


def _bergman_sums(rows: np.ndarray, m: int) -> np.ndarray:
    """Per row c of P(z) = sum_k c_k z^k, the disk mean of |P|^(2m):
    sum_k |(P^m)_k|^2/(k + 1), as the z^k are orthogonal on the disk with
    mean |z^k|^2 = 1/(k + 1) (the Bergman-space norm). Each of the m - 1
    products by c sums the windows of the zero-padded running power times c
    reversed: no BLAS call, and no other row enters a row's bits. A value
    beyond the float range comes back inf or NaN, for the caller to refuse.
    """
    width = rows.shape[1]
    q = rows
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(m - 1):
            padded = np.zeros((len(q), q.shape[1] + 2 * (width - 1)), dtype=np.complex128)
            padded[:, width - 1:width - 1 + q.shape[1]] = q
            # windows[r, k, i] = padded[r, k + i], so the sum over i of
            # windows[r, k, i] c[r, width - 1 - i] is (q c)_k
            windows = sliding_window_view(padded, width, axis=1)
            q = (windows * rows[:, None, ::-1]).sum(axis=2)
        return ((q.real**2 + q.imag**2) / np.arange(1, q.shape[1] + 1)).sum(axis=1)


def besov_111_seminorm(p: AlgebraicPoly, cfg: QuadratureConfig | None = None) -> float:
    """integral of |p''| over the disk against normalized area measure, for
    p taken as in disk_means."""
    return disk_mean(_require_algebraic(p).derivative().derivative(), 1.0, cfg)


def besov_111_seminorms(polys, cfg: QuadratureConfig | None = None) -> np.ndarray:
    """besov_111_seminorm of each of ``polys``, algebraic polynomials or
    analytic TrigPoly (as in disk_means), through one disk_means call."""
    return disk_means([_require_algebraic(p).derivative().derivative() for p in polys],
                      1.0, cfg)


def besov_inf1_seminorm(p: AlgebraicPoly, cfg: QuadratureConfig | None = None) -> float:
    """int_0^1 sup_{|z|=1} |p'(rz)| dr by Gauss-Legendre in r, with the sup
    taken by the exact engine of sup_norm on dilated coefficients."""
    return float(besov_inf1_seminorms([p], cfg)[0])


def besov_inf1_seminorms(polys, cfg: QuadratureConfig | None = None) -> np.ndarray:
    """besov_inf1_seminorm of each of ``polys``, of one declared degree and
    taken as in disk_means: every radial sup comes from one _radial call."""
    if not polys:
        return np.zeros(0)
    derivs = _stacked([_require_algebraic(p).derivative().coeffs for p in polys])
    _, w, sups = _radial(derivs, (cfg or DEFAULT_CONFIG).radial_nodes,
                         lambda rows: circle_max(rows[:, None])[0])
    return (w * sups).sum(axis=1)


_NORM_KINDS = ("sup", "lp", "mahler", "wiener", "besov111", "besovinf1")


def norm_value(p, kind: str, power: float | None = None,
               cfg: QuadratureConfig | None = None) -> float:
    """The norm of p named by ``kind``, one of _NORM_KINDS; lp is taken at
    ``power``."""
    if kind == "sup":
        return sup_norm(p)
    if kind == "lp":
        return lp_norm(p, power, cfg)
    if kind == "mahler":
        return mahler_jensen(p)
    if kind == "wiener":
        return wiener_norm(p)
    if kind == "besov111":
        return besov_111_seminorm(p, cfg)
    if kind == "besovinf1":
        return besov_inf1_seminorm(p, cfg)
    raise InvalidParam(f"unknown norm kind {kind!r}; choices: {_NORM_KINDS}")


def _require_algebraic(p) -> AlgebraicPoly:
    if isinstance(p, AlgebraicPoly):
        return p
    if isinstance(p, TrigPoly) and not p.has_negative_frequencies():
        return p.analytic_part()
    raise InvalidParam("this norm needs an analytic (algebraic) polynomial")
