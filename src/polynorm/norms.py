"""The norm ladder against normalized arc measure on the unit circle.

sup, L^p for finite p > 0, the Mahler limit norm at p = 0 (two independent
evaluations), the Wiener coefficient norm, and two Besov-type seminorms on
the disk. Circle integrals use uniform angular grids: the N-point rule is
exact for trigonometric polynomials of degree < N by discrete orthogonality.
The remaining integrals go through one primitive, _circle_means: the power
mean M_p of |p| (M_0 = exp of the mean of log|p|) on many circles at once,
one row of coefficients (and, if need be, one exponent p) each, doubling
each row's grid until that row's M_p changes by at most the relative
tolerance;
a doubling evaluates only the new points, and converged rows drop out. Area
integrals are Gauss-Legendre in the radius over such rows.

Maxima over the circle go through one engine, circle_max: each objective
is a weighted sum of moduli of polynomials with exact coefficients (|p| for
the sup norm and the radial sups, |Re T' + i n Re T| for the svdc check,
|zP'| and |nP - zP'| for the malik and laguerre checks). The lags of each
|h|^2 come from one exact matrix product (no loop over rows or terms), F on
the grid from one half-spectrum inverse FFT, and grid maxima are refined by
Newton steps on exact derivatives; a single term steps on the w nonnegative
lags of |h|^2, a sum of w frequencies in place of 2w - 1.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, asdict

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidParam, NearCircleRoot, ZeroPolynomial
from .poly import AlgebraicPoly, TrigPoly, _grid_values, root_array, roots

_TWO_PI = 2.0 * np.pi


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer (a bool is not)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class QuadratureConfig:
    """Knobs for circle and disk quadrature.

    grid_multiplier: initial angular points per unit of (degree + 1).
    max_doublings:   grid-doubling budget before returning the best value.
    rel_tol:         relative agreement target for circle integrals.
    radial_nodes:    Gauss-Legendre node count for radial integrals.
    area_rel_tol:    relative agreement target for disk-area integrals.
    """

    grid_multiplier: int = 16
    max_doublings: int = 6
    rel_tol: float = 1e-10
    radial_nodes: int = 64
    area_rel_tol: float = 1e-8

    def __post_init__(self):
        counts = (self.grid_multiplier, self.max_doublings, self.radial_nodes)
        if not all(map(_is_integer, counts)):
            raise InvalidParam("grid_multiplier, max_doublings and radial_nodes must be integers")
        if self.grid_multiplier < 1 or self.max_doublings < 0 or self.radial_nodes < 2:
            raise InvalidParam("bad quadrature configuration")
        if not (self.rel_tol > 0 and self.area_rel_tol > 0):  # also refuses nan
            raise InvalidParam("tolerances must be positive")

    def initial_grid(self, degree: int) -> int:
        # never below 4*degree + 8, the floor that keeps kernel rules exact
        return max(self.grid_multiplier * (degree + 1), 4 * degree + 8, 16)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "QuadratureConfig":
        try:
            return cls(**obj)
        except TypeError as exc:
            raise InvalidParam(f"bad quadrature config: {exc}") from exc


DEFAULT_CONFIG = QuadratureConfig()


def _circle_means(rows, kmin: int, p, grid0: int, rel_tol: float,
                  max_doublings: int) -> np.ndarray:
    """For each row c of ``rows``, the circle power mean M_p of |T|,
    T(x) = sum_j c_j e^{i(kmin+j)x}: (mean |T|^p)^(1/p), or exp(mean log|T|)
    at p = 0, by the trapezoid rule on a uniform grid of grid0 points that
    doubles until M_p changes by at most rel_tol relative. ``p`` is one
    exponent for every row, or an array of one exponent per row.

    Each row keeps its running sum, so a doubling from N to 2N points
    evaluates only the N new points, which sit half a spacing off the old
    ones: one N-point FFT of the coefficients times e^{i pi k/N}. Only rows
    still changing take part, and the test is applied to each row on its
    own, because the rule converges at a different rate on each circle. A row
    that runs out of budget keeps its last value.

    Rows are independent: a row's value is the same, bit for bit, whatever
    other rows and exponents share its call; the rows of each distinct
    exponent are raised to it as one scalar (_each_exponent).
    """
    rows = np.atleast_2d(rows)
    k = np.arange(rows.shape[1]) + kmin
    p = np.asarray(p, dtype=np.float64)
    sums = _each_exponent(_power_sums, np.abs(_grid_values(rows, kmin, grid0)), p)
    grid = grid0
    value = _each_exponent(_power_means, sums / grid, p)
    active = np.arange(rows.shape[0])
    for _ in range(max_doublings):
        pa = p[active] if p.ndim else p
        a = np.abs(_grid_values(rows[active] * np.exp(1j * np.pi * k / grid), kmin, grid))
        sums[active] += _each_exponent(_power_sums, a, pa)
        grid *= 2
        cur = _each_exponent(_power_means, sums[active] / grid, pa)
        done = np.abs(cur - value[active]) <= rel_tol * np.maximum(np.abs(cur), 1e-300)
        value[active] = cur
        active = active[~done]
        if active.size == 0:
            break
    return value


def _power_sums(a: np.ndarray, p: float) -> np.ndarray:
    """Row sums of a**p, or of log(a) at p = 0."""
    return (a**p if p != 0 else np.log(a)).sum(axis=1)


def _power_means(mean: np.ndarray, p: float) -> np.ndarray:
    """mean**(1/p), or exp(mean) at p = 0."""
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
    row's spread: with at least 16 samples per oscillation, refinement lifts a
    value by well under 1% of the spread, so only near-top maxima can compete.
    A row whose spread is negligible or not finite is flat to working
    precision, and its only candidate is its grid argmax.
    """
    jbest = np.argmax(vals, axis=1)
    gmax = vals[np.arange(vals.shape[0]), jbest]
    spread = gmax - vals.min(axis=1)
    active = np.isfinite(spread) & (spread > 1e-14 * np.maximum(1.0, np.abs(gmax)))
    wrapped = np.concatenate([vals[:, -1:], vals, vals[:, :1]], axis=1)
    cand = (vals >= wrapped[:, :-2]) & (vals >= wrapped[:, 2:])
    cand &= vals >= (gmax - 0.25 * spread)[:, None]
    cand &= active[:, None]
    cand[~active, jbest[~active]] = True
    return np.nonzero(cand)


_NEWTON_STEPS = 8


def circle_max(h, grid: int, weights=(1.0,)):
    """Per row r, the max over x of F(x) = sum_t w[r, t] |h_t(x)| and an
    angle attaining it, where h[r, t] holds the coefficients c_j of
    h_t(x) = sum_j c_j e^{ijx} (a factor e^{ikx} leaves |h_t| unchanged, so
    trig coefficients can be passed as they are). ``weights`` has shape (T,),
    shared by every row, or (R, T), one set per row. Returns per row
    (max, argmax) as arrays.

    Rows are independent: a row's result is the same, bit for bit, whatever
    other rows share its call, so callers may stack the rows of many inputs
    of one width. Each row is first scaled by its own power of two, which is
    exact, so nothing overflows or underflows. |h_t|^2 has the coefficients
    b_m = sum_j c_{j+m} conj(c_j) at lags m >= 0 and conj(b_m) at -m, so one
    matrix product over a sliding window of the coefficients gives the lags
    m = 0..width-1 of every row and term at once. A single-frequency row has
    one nonzero product there, so its b is exactly [|c|^2, 0, ...] and its
    grid is exactly flat; an FFT autocorrelation would round it. One
    half-spectrum inverse FFT (irfft) of b gives F on the uniform ``grid``
    (at least 2 * h.shape[-1] - 1 points). Every candidate of
    _grid_candidates takes Newton steps x <- x - F'/F'' on exact derivatives,
    clipped to one grid spacing around its start, or a half-spacing ascent
    step where F'' >= 0, and the best iterate is kept; a row stops stepping
    once none of its candidates moves by more than 1e-13. A single term,
    whose weight must be positive, steps on |h|^2 = b_0 + 2 Re sum_{m>=1}
    b_m e^{imx}, which has the same maximizer and costs width frequencies
    per step, no square root and no division. Several terms step on F
    itself, evaluated from h_t, h_t' and h_t'' (a term has no derivative at
    its zeros and adds none): square roots of the |h_t|^2 would lose half
    the digits where a term nearly vanishes.
    """
    h, e = _prescaled(np.ascontiguousarray(h, dtype=np.complex128), axis=(1, 2))
    width = h.shape[-1]
    single = h.shape[1] == 1
    w = np.asarray(weights, dtype=np.float64)
    if grid < 2 * width - 1:
        raise InvalidParam(f"grid {grid} too small for {width} coefficients")
    # half[..., m] = sum_j c_{j+m} conj(c_j), the lags m >= 0 of |h_t|^2
    padded = np.concatenate([h, np.zeros_like(h[..., 1:])], axis=-1)
    half = (sliding_window_view(padded, width, axis=-1) @ np.conj(h)[..., None])[..., 0]
    g = np.fft.irfft(half, grid, norm="forward")
    vals = g[:, 0] if single else (np.sqrt(np.maximum(g, 0.0)) * w[..., None]).sum(axis=1)
    rows, cols = _grid_candidates(vals)
    dx = _TWO_PI / grid
    x0 = cols * dx
    wk = w[rows].T if w.ndim == 2 else w[:, None]  # (T, candidates) or (T, 1)

    if single:
        m = np.arange(width)
        b = half[:, 0] * np.where(m > 0, 2.0, 1.0)  # F = Re sum_m b_m e^{imx}
        coef = np.stack([b, 1j * m * b, -(m * m) * b], axis=-1)[rows]

        def objective(x):
            return np.einsum("kj,kjs->sk", np.exp(1j * np.multiply.outer(x, m)), coef).real
    else:
        j = np.arange(width)
        coef = np.stack([h, 1j * j * h, -(j * j) * h], axis=-1)[rows]

        def objective(x):
            v, v1, v2 = np.einsum("kj,ktjs->stk", np.exp(1j * np.multiply.outer(x, j)), coef)
            terms = np.empty((3,) + v.shape)  # |h_t| and its two derivatives
            a = np.abs(v, out=terms[0])
            inv = 1.0 / np.where(a > 0.0, a, np.inf)
            d1 = np.multiply((np.conj(v) * v1).real, inv, out=terms[1])
            np.multiply((v1 * np.conj(v1)).real + (np.conj(v) * v2).real - d1 * d1, inv,
                        out=terms[2])
            return (terms * wk).sum(axis=1)

    x = x0
    f, f1, f2 = objective(x)
    top_x, top_f = x, f
    # every row has a candidate and rows ascend: row r's run starts at starts[r]
    starts = np.searchsorted(rows, np.arange(len(h))) if len(h) > 1 else None
    for _ in range(_NEWTON_STEPS):
        concave = f2 < 0.0
        move = np.where(concave, -f1 / np.where(concave, f2, -1.0), 0.5 * dx * np.sign(f1))
        x_next = np.clip(x + move, x0 - dx, x0 + dx)
        step = np.abs(x_next - x)
        if step.max() <= 1e-13:
            break
        if starts is not None:
            moving = ~(step <= 1e-13)
            if not moving.all():
                # a row none of whose candidates moved keeps its x, so it
                # computes the same step again and stays stopped
                x_next = np.where(np.logical_or.reduceat(moving, starts)[rows], x_next, x)
        x = x_next
        f, f1, f2 = objective(x)
        up = f > top_f
        top_x = np.where(up, x, top_x)
        top_f = np.where(up, f, top_f)

    # per row, the first candidate (in grid order) holding the row's best value
    order = np.lexsort((-top_f, rows))
    first = order[np.unique(rows[order], return_index=True)[1]]
    top = w[..., 0] * np.sqrt(np.maximum(top_f[first], 0.0)) if single else top_f[first]
    return np.ldexp(top, e[:, 0, 0]), top_x[first] % _TWO_PI


def _prescaled(c: np.ndarray, axis=None):
    """(c * 2^-e, e), with e the binary exponent of the largest |Re| or |Im| of
    ``c`` (over ``axis``, kept as length-1 axes; all of ``c`` by default):
    exact, and it brings the largest entry into [1/2, 1), so norms taken of
    the result neither overflow nor underflow before being scaled back by
    2^e. ``c`` must be contiguous in its last axis."""
    e = np.frexp(np.abs(c.view(np.float64)).max(axis=axis, keepdims=True))[1]
    out = np.empty_like(c)
    np.ldexp(c.real, -e, out=out.real)
    np.ldexp(c.imag, -e, out=out.imag)
    return out, e


def sup_norm(p) -> float:
    """Max of |p| on the circle: circle_max with the one term p, on a
    32(n+1)-point grid, n the declared degree.
    """
    val, _ = sup_norm_argmax(p)
    return val


def sup_norm_argmax(p):
    """(sup norm, an angle attaining it): sup_norms_argmax of the one row p."""
    val, x = sup_norms_argmax([p])
    return float(val[0]), float(x[0])


def sup_norms_argmax(polys):
    """sup_norm_argmax of each of ``polys``, polynomials of one kind and
    declared degree n, as two arrays: one circle_max call on the same
    32(n+1)-point grid, one row per polynomial."""
    for p in polys:
        if not isinstance(p, (TrigPoly, AlgebraicPoly)):
            raise InvalidParam(f"expected a polynomial, got {type(p).__name__}")
    return circle_max(np.stack([p.coeffs for p in polys])[:, None], 32 * (polys[0].degree + 1))


def _circle_row(p):
    """(coefficients, lowest frequency) of p on the circle, for _circle_means."""
    if isinstance(p, TrigPoly):
        return p.coeffs, -p.degree
    if isinstance(p, AlgebraicPoly):
        return p.coeffs, 0
    raise InvalidParam(f"expected a polynomial, got {type(p).__name__}")


def lp_norm(p, power: float, cfg: QuadratureConfig | None = None) -> float:
    """(integral of |p|^power dm)^(1/power) for finite power > 0: lp_norms of
    the one polynomial p.

    For even integer powers the integrand is itself a trig polynomial of
    degree power*n, so one grid larger than that is exact; otherwise the
    grid doubles, adding only the new points, until successive norms agree
    to rel_tol. The coefficients are scaled by a power of two first, which
    is exact, so 1e-200 or 1e200 coefficients neither underflow nor overflow.
    """
    return lp_norms([p], [power], cfg)[0]


def lp_norms(polys, powers, cfg: QuadratureConfig | None = None) -> list:
    """lp_norm of each polys[i] at powers[i], as a list of floats.

    Each row is prescaled on its own, and the rows that share their lowest
    frequency, width, initial grid and doubling budget go through one
    _circle_means call, so each value is the same, bit for bit, as the one
    lp_norm gives alone. The derivative of an algebraic polynomial has a
    smaller initial grid than the polynomial, and an even integer power has
    no doublings.
    """
    cfg = cfg or DEFAULT_CONFIG
    out = [0.0] * len(polys)
    groups: dict = {}
    for i, (p, power) in enumerate(zip(polys, powers)):
        if not (power > 0) or not math.isfinite(power):
            raise InvalidParam("lp_norm needs finite p > 0; use the mahler functions for p = 0")
        coeffs, kmin = _circle_row(p)
        n = p.degree
        grid0, budget = cfg.initial_grid(n), cfg.max_doublings
        rounded = round(power)
        if rounded == power and rounded % 2 == 0:
            grid0, budget = max(grid0, int(rounded) * n + 1), 0
        groups.setdefault((kmin, len(coeffs), grid0, budget), []).append(i)
    for (kmin, _, grid0, budget), idx in groups.items():
        rows, e = _prescaled(np.array([polys[i].coeffs for i in idx]), axis=1)
        exps = [powers[i] for i in idx]
        exps = float(exps[0]) if len(set(exps)) == 1 else exps
        norms = np.ldexp(_circle_means(rows, kmin, exps, grid0, cfg.rel_tol, budget), e[:, 0])
        for i, norm in zip(idx, norms.tolist()):
            out[i] = norm
    return out


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
    coeffs, kmin = _circle_row(p)
    return float(_circle_means(coeffs, kmin, 0.0, cfg.initial_grid(p.degree), cfg.rel_tol,
                               cfg.max_doublings)[0])


def wiener_norm(p: AlgebraicPoly) -> float:
    """Sum of |a_k| over the analytic coefficients."""
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
    row of _circle_means on the dilated coefficients c_k r^k, whose angular
    grid doubles, adding only the new points, until M(r) changes by at most
    area_rel_tol (|p|^power along a circle is generally not a trig
    polynomial).
    """
    return float(disk_means([p], power, cfg)[0])


def disk_means(polys, power: float = 1.0, cfg: QuadratureConfig | None = None) -> np.ndarray:
    """disk_mean of each of the algebraic polynomials ``polys``, all of one
    declared degree: the circle means over every radius of every input come
    from one _circle_means call, one row each."""
    cfg = cfg or DEFAULT_CONFIG
    out = np.zeros(len(polys))
    live = [i for i, p in enumerate(polys) if not p.is_zero()]
    if not live:
        return out
    r, w = _radial_rule(cfg.radial_nodes)
    rows = np.concatenate([_dilated(polys[i].coeffs, r) for i in live])
    means = _circle_means(rows, 0, power, cfg.initial_grid(polys[live[0]].degree),
                          cfg.area_rel_tol, cfg.max_doublings).reshape(len(live), len(r))
    for i, m in zip(live, means):
        out[i] = 2.0 * np.sum(w * r * m**power)
    return out


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
    sups = circle_max(rows[:, None], max(32 * len(derivs[0].coeffs), 64))[0]
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
