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
shifted by each of the level's offsets (one batched FFT of that grid's
length per level, the initial grid and the first doubling sharing one),
and converged rows drop out of the compacted arrays the loop carries. At
an even integer power, |p|^power is itself a trig polynomial, so L^p norms
and disk means alike take one exact grid of power (width - 1)/2 + 1 points
and no doubling (_grid_rule). Area integrals are Gauss-Legendre in the
radius over such rows, each input scaled by its own power of two. Both
engines take coefficient rows as they are and scale each row themselves,
and a value beyond the float range raises OutOfRange.

Maxima over the circle go through one engine, circle_max: each objective
is a weighted sum of moduli of polynomials with exact coefficients (|p| for
the sup norm and the radial sups, |Re T' + i n Re T| for the svdc check,
|zP'| and |nP - zP'| for the malik and laguerre checks). F is sampled on
the engine's own grid by one inverse FFT of the exact lags of each |h|^2,
with no loop over rows or terms, and grid maxima are refined by bracketed
Newton steps on exact derivatives; a single term steps on the w
nonnegative lags of |h|^2, a sum of w frequencies in place of 2w - 1.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, asdict

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InvalidParam, NearCircleRoot, OutOfRange, ZeroPolynomial
from .poly import AlgebraicPoly, TrigPoly, _prescaled, root_array, roots

_TWO_PI = 2.0 * np.pi


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer (a bool is not)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class QuadratureConfig:
    """Knobs for circle and disk quadrature.

    max_doublings:   grid-doubling budget before returning the best value.
    rel_tol:         relative agreement target for circle integrals.
    radial_nodes:    Gauss-Legendre node count for radial integrals.
    area_rel_tol:    relative agreement target for disk-area integrals.

    The engines choose their own grids (_grid_rule, circle_max), and
    max_doublings does not apply to an even integer power, which takes one
    exact grid. from_json refuses an unknown key with InvalidParam.
    """

    max_doublings: int = 6
    rel_tol: float = 1e-10
    radial_nodes: int = 64
    area_rel_tol: float = 1e-8

    def __post_init__(self):
        if not (_is_integer(self.max_doublings) and _is_integer(self.radial_nodes)):
            raise InvalidParam("max_doublings and radial_nodes must be integers")
        if self.max_doublings < 0 or self.radial_nodes < 2:
            raise InvalidParam("bad quadrature configuration")
        if not (self.rel_tol > 0 and self.area_rel_tol > 0):  # also refuses nan
            raise InvalidParam("tolerances must be positive")

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
    grid0-point FFT of the coefficients times e^{ij theta_s}, one transform
    per offset. The offsets of a level are those of the level before, each
    minus and plus pi/N (the first level has the one offset pi/grid0), so
    the loop carries each row times the twiddles of its last offsets and
    makes the next level's by one broadcast multiply with e^{-+ i pi j/N}
    (_twiddles). Every row with a budget needs the first level, so the
    initial grid and the first level's offset share one FFT. After that,
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
    a = np.abs(np.fft.ifft(shifted, grid0, norm="forward"))
    sums = _each_exponent(_power_sums, a[:, :1], p)
    value = _each_exponent(_power_means, sums / grid0, p)
    # the rows still changing: their indices, shifted rows, sums, values, exponents
    active, cur = np.arange(len(rows)), value
    for level, step in enumerate(steps):
        if level:
            shifted = (shifted[:, :, None] * step).reshape(len(shifted), -1, width)
            a = np.abs(np.fft.ifft(shifted, grid0, norm="forward"))
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
        out = np.ldexp(x, e)
    if not np.isfinite(out).all():
        raise OutOfRange(f"{what} exceeds the floating-point range")
    return out


def _power_sums(a: np.ndarray, p: float) -> np.ndarray:
    """Per row a[r] (of shape (offsets, points)), the sum of a[r]**p, or of
    log(a[r]) at p = 0; at p = 1 a is summed as it is (a**1.0 is an exact
    copy), and below p = 1e-3, where a**p rounds to 1, the sum of
    expm1(p log a[r]) = a[r]**p - 1."""
    if p == 1:
        return a.sum(axis=(1, 2))
    if 0 < p < 1e-3:
        with np.errstate(divide="ignore"):  # a = 0 adds expm1(-inf) = -1
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
    frequency: a flat grid, which an FFT autocorrelation would round), and one
    irfft of b gives F on 16 (width + 1) points, over 16 samples per period of
    the top lag, as _grid_candidates needs. A call with a negative weight gets
    32 width points: a near-zero of a negatively weighted term is a peak of F
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
    # half[..., m] = sum_j c_{j+m} conj(c_j), the lags m >= 0 of |h_t|^2
    padded = np.zeros(h.shape[:-1] + (2 * width - 1,), dtype=np.complex128)
    padded[..., :width] = h
    windows = as_strided(padded, h.shape + (width,), padded.strides + padded.strides[-1:],
                         writeable=False)  # windows[..., m, :] = padded[..., m:m + width]
    half = (windows @ np.conj(h)[..., None])[..., 0]
    g = np.fft.irfft(half, grid, norm="forward")
    vals = g[:, 0] if single else (np.sqrt(np.maximum(g, 0.0)) * w[..., None]).sum(axis=1)
    rows, cols = _grid_candidates(vals)
    dx = _TWO_PI / grid
    x0 = cols * dx
    wk = w[rows].T if w.ndim == 2 else w[:, None]  # (T, candidates) or (T, 1)

    m = np.arange(width)
    im = 1j * m
    if single:
        b = half[:, 0] * np.where(m > 0, 2.0, 1.0)  # F = Re sum_m b_m e^{imx}
        coef = _with_derivatives(b, im, -(m * m))[rows]

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
    return circle_max(np.stack([p.coeffs for p in polys])[:, None])


def lp_norm(p, power: float, cfg: QuadratureConfig | None = None) -> float:
    """(integral of |p|^power dm)^(1/power) for finite power > 0: lp_norms of
    the one polynomial p.

    For even integer powers the integrand is itself a trig polynomial, of
    degree power*n for a trig p and power*n/2 for an algebraic one, so one
    grid of one point more is exact; otherwise the grid doubles, adding only
    the new points, until successive norms agree to rel_tol (_grid_rule).
    """
    return lp_norms([p], [power], cfg)[0]


def lp_norms(polys, powers, cfg: QuadratureConfig | None = None) -> list:
    """lp_norm of each polys[i] at powers[i], as a list of floats.

    The rows that share their width, initial grid and doubling budget go
    through one _circle_means call, whose rows are independent, so each value
    is the same, bit for bit, as the one lp_norm gives alone. The derivative
    of an algebraic polynomial has a smaller initial grid than the
    polynomial, and an even integer power has its own exact grid and no
    doublings.
    """
    cfg = cfg or DEFAULT_CONFIG
    out = [0.0] * len(polys)
    groups: dict = {}
    for i, (p, power) in enumerate(zip(polys, powers)):
        if not (power > 0) or not math.isfinite(power):
            raise InvalidParam("lp_norm needs finite p > 0; use the mahler functions for p = 0")
        if not isinstance(p, (TrigPoly, AlgebraicPoly)):
            raise InvalidParam(f"expected a polynomial, got {type(p).__name__}")
        groups.setdefault((len(p.coeffs),) + _grid_rule(power, p, cfg), []).append(i)
    for (_, grid0, budget), idx in groups.items():
        exps = [powers[i] for i in idx]
        exps = float(exps[0]) if len(set(exps)) == 1 else exps
        norms = _circle_means(np.array([polys[i].coeffs for i in idx]), exps, grid0,
                              cfg.rel_tol, budget)
        for i, norm in zip(idx, norms.tolist()):
            out[i] = norm
    return out


def _grid_rule(power, p, cfg: QuadratureConfig) -> tuple:
    """(initial grid, doubling budget) of the circle means of |q|^power for
    rows q as wide as p's coefficients: the rule of lp_norms, disk_means and
    mahler_quadrature (power 0).

    At an even integer power > 0, |q|^power is a trig polynomial of degree
    (power/2)(width - 1), which the trapezoid rule integrates exactly on one
    point more: power * n + 1 points for a trig row, power * n/2 + 1 for an
    algebraic one, with budget 0. A power whose exact grid would exceed the
    largest grid doubling reaches, and any other power, starts at 16 (n + 1)
    points, n the declared degree, with cfg.max_doublings.
    """
    grid0 = 16 * (p.degree + 1)
    rounded = round(power)
    if rounded == power and rounded > 0 and rounded % 2 == 0:
        exact = int(rounded) // 2 * (len(p.coeffs) - 1) + 1
        if exact <= grid0 << cfg.max_doublings:
            return exact, 0
    return grid0, cfg.max_doublings


def mahler_jensen(p) -> float:
    """Mahler norm via roots: |leading| * prod max(1, |z_j|).

    Accepts an algebraic polynomial or a trig polynomial (through its lift,
    which has the same Mahler norm since |z^n| = 1 on the circle). Uses root
    provenance attached by generators when available.
    """
    if isinstance(p, TrigPoly):
        p = p.to_algebraic()
    d_eff = p.effective_degree
    if d_eff is None:
        raise ZeroPolynomial("mahler norm of the zero polynomial")
    log_val = math.log(abs(complex(p.coeffs[d_eff])))
    log_val += float(np.log(np.maximum(1.0, np.abs(root_array(p)))).sum())
    return math.exp(log_val)


def mahler_quadrature(p, cfg: QuadratureConfig | None = None) -> float:
    """Mahler norm as exp of the grid-doubled circle mean of log|p|.

    Refuses (NearCircleRoot) when some root of the lift lies within 1e-3 of
    the circle: the contour-log singularity makes plain quadrature unreliable
    there and the Jensen path is authoritative.
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


def _dilated(coeffs: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Row r holds the coefficients coeffs[k] radii[r]^k of q(radii[r] z)."""
    return coeffs[None, :] * radii[:, None] ** np.arange(len(coeffs))[None, :]


@functools.lru_cache(maxsize=8)
def _radial_rule(nodes: int):
    """Gauss-Legendre nodes and weights on [0, 1], built once per node count
    and returned read-only, since every caller shares them."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    r, w = (t + 1.0) / 2.0, w / 2.0
    r.flags.writeable = False
    w.flags.writeable = False
    return r, w


def disk_mean(p: AlgebraicPoly, power: float = 1.0,
              cfg: QuadratureConfig | None = None) -> float:
    """integral of |p|^power over the disk against normalized area measure.

    Polar form 2 * int_0^1 r * M(r)^power dr with Gauss-Legendre radial
    nodes, M(r) the power mean M_power of |p| on the circle of radius r: one
    row of _circle_means on the dilated coefficients c_k r^k. At an even
    integer power that row takes one exact grid of power * n/2 + 1 points;
    otherwise its angular grid doubles, adding only the new points, until
    M(r) changes by at most area_rel_tol (_grid_rule).
    """
    return float(disk_means([p], power, cfg)[0])


def disk_means(polys, power: float = 1.0, cfg: QuadratureConfig | None = None) -> np.ndarray:
    """disk_mean of each of the algebraic polynomials ``polys``, all of one
    declared degree: the circle means over every radius of every input come
    from one _circle_means call, one row each, on the grid and budget of
    _grid_rule. ``power`` must be finite and positive; a zero polynomial
    has disk mean 0.

    Each input is first divided by its own power of two 2^s (_prescaled),
    which is exact, so its circle means stay in range even where those of
    the input would not (a circle mean can exceed the largest coefficient
    by a factor up to the number of coefficients). The integral,
    homogeneous of degree ``power``, is multiplied back by 2^(s power),
    exactly when s power is an integer; one beyond the float range raises
    OutOfRange.
    """
    if not (power > 0) or not math.isfinite(power):
        raise InvalidParam("disk_mean needs a finite power > 0")
    if not polys:
        return np.zeros(0)
    cfg = cfg or DEFAULT_CONFIG
    r, w = _radial_rule(cfg.radial_nodes)
    coeffs, s = _prescaled(np.array([p.coeffs for p in polys], dtype=np.complex128), axis=1)
    rows = np.concatenate([_dilated(c, r) for c in coeffs])
    grid0, budget = _grid_rule(power, polys[0], cfg)
    means = _circle_means(rows, power, grid0, cfg.area_rel_tol,
                          budget).reshape(len(polys), len(r))
    scale = s[:, 0] * power
    whole = np.floor(scale)
    return _scaled_back(2.0 * (w * r * means**power).sum(axis=1) * 2.0 ** (scale - whole),
                        whole.astype(int), "disk mean")


def besov_111_seminorm(p: AlgebraicPoly, cfg: QuadratureConfig | None = None) -> float:
    """integral of |p''| over the disk against normalized area measure."""
    return disk_mean(p.derivative().derivative(), 1.0, cfg)


def besov_111_seminorms(polys, cfg: QuadratureConfig | None = None) -> np.ndarray:
    """besov_111_seminorm of each of the algebraic polynomials ``polys``, all
    of one declared degree, through one disk_means call."""
    return disk_means([p.derivative().derivative() for p in polys], 1.0, cfg)


def besov_inf1_seminorm(p: AlgebraicPoly, cfg: QuadratureConfig | None = None) -> float:
    """int_0^1 sup_{|z|=1} |p'(rz)| dr by Gauss-Legendre in r, with the sup
    taken by the exact engine of sup_norm on dilated coefficients."""
    return float(besov_inf1_seminorms([p], cfg)[0])


def besov_inf1_seminorms(polys, cfg: QuadratureConfig | None = None) -> np.ndarray:
    """besov_inf1_seminorm of each of the algebraic polynomials ``polys``,
    all of one declared degree: the sups over every radius of every input
    come from one circle_max call, one row each."""
    if not polys:
        return np.zeros(0)
    r, w = _radial_rule((cfg or DEFAULT_CONFIG).radial_nodes)
    derivs = [p.derivative() for p in polys]
    rows = np.concatenate([_dilated(dp.coeffs, r) for dp in derivs])
    sups = circle_max(rows[:, None])[0]
    return (w * sups.reshape(len(polys), len(r))).sum(axis=1)


_NORM_KINDS = ("sup", "lp", "mahler", "wiener", "besov111", "besovinf1")


def norm_value(p, kind: str, power: float | None = None,
               cfg: QuadratureConfig | None = None) -> float:
    """The norm of p named by ``kind``, one of _NORM_KINDS; lp is taken at
    ``power``."""
    if kind == "sup":
        return sup_norm(p)
    if kind == "lp":
        if power is None or not math.isfinite(power) or power <= 0:
            raise InvalidParam("lp requires finite p > 0 (mahler covers p = 0)")
        return lp_norm(p, power, cfg)
    if kind == "mahler":
        return mahler_jensen(p)
    if kind == "wiener":
        return wiener_norm(p)
    if kind == "besov111":
        return besov_111_seminorm(_require_algebraic(p), cfg)
    if kind == "besovinf1":
        return besov_inf1_seminorm(_require_algebraic(p), cfg)
    raise InvalidParam(f"unknown norm kind {kind!r}; choices: {_NORM_KINDS}")


def _require_algebraic(p) -> AlgebraicPoly:
    if isinstance(p, AlgebraicPoly):
        return p
    if isinstance(p, TrigPoly) and not p.has_negative_frequencies():
        return p.analytic_part()
    raise InvalidParam("this norm needs an analytic (algebraic) polynomial")
