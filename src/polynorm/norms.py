"""The norm ladder against normalized arc measure on the unit circle.

sup, L^p for finite p > 0, the Mahler limit norm at p = 0 (two independent
evaluations), the Wiener coefficient norm, and two Besov-type seminorms on
the disk. Circle integrals use uniform angular grids: the N-point rule is
exact for trigonometric polynomials of degree < N by discrete orthogonality.
The remaining integrands go through one primitive, _circle_means, which
takes many circles at once, one row of coefficients each, and doubles each
row's grid until that row's value changes by at most the relative tolerance;
a doubling evaluates only the new points, and converged rows drop out. Area
integrals are Gauss-Legendre in the radius over such rows.

Maxima over the circle of polynomial objectives (|p|^2 for the sup norm and
the radial sups, and the pointwise bound of the svdc check) go through one
exact engine, _trig_max: the objective is a real trig polynomial whose
coefficients are known exactly, so grid maxima are refined by Newton steps
on its exact derivatives. circle_max, a bracketing parabolic refiner, serves
the objectives that are not polynomials.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import InvalidParam, NearCircleRoot, ZeroPolynomial
from .poly import AlgebraicPoly, TrigPoly, roots

_TWO_PI = 2.0 * np.pi


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
        if self.grid_multiplier < 1 or self.max_doublings < 0 or self.radial_nodes < 2:
            raise InvalidParam("bad quadrature configuration")
        if self.rel_tol <= 0 or self.area_rel_tol <= 0:
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


@dataclass(frozen=True)
class NormKind:
    """A point on the norm ladder: sup, lp(p), mahler, wiener, besov111, besovinf1."""

    tag: str
    p: float | None = None

    _TAGS = ("sup", "lp", "mahler", "wiener", "besov111", "besovinf1")

    def __post_init__(self):
        if self.tag not in self._TAGS:
            raise InvalidParam(f"unknown norm kind {self.tag!r}; choices: {self._TAGS}")
        if self.tag == "lp":
            if self.p is None or not math.isfinite(self.p) or self.p <= 0:
                raise InvalidParam("lp requires finite p > 0 (mahler covers p = 0)")


def _circle_means(rows, kmin: int, integrand, grid0: int, rel_tol: float,
                  max_doublings: int, finish=None) -> np.ndarray:
    """For each row c of ``rows``, finish(circle mean of integrand(|T|)) with
    T(x) = sum_j c_j e^{i(kmin+j)x}, by the trapezoid rule on a uniform grid
    of grid0 points that doubles until finish(mean) changes by at most
    rel_tol relative (finish defaults to the identity).

    Each row keeps its running sum, so a doubling from N to 2N points
    evaluates only the N new points, which sit half a spacing off the old
    ones: one N-point FFT of the coefficients times e^{i pi k/N}. Only rows
    still changing take part, and the test is applied to each row on its
    own, because the rule converges at a different rate on each circle. A row
    that runs out of budget keeps its last value.
    """
    rows = np.atleast_2d(rows)
    width = rows.shape[1]
    if grid0 < width:
        raise InvalidParam(f"grid {grid0} too small for {width} coefficients")
    k = np.arange(width) + kmin

    def grid_sums(c, grid):
        spec = np.zeros((c.shape[0], grid), dtype=np.complex128)
        spec[:, k % grid] = c
        return integrand(np.abs(np.fft.ifft(spec, norm="forward"))).sum(axis=1)

    finish = finish or (lambda mean: mean)
    sums = grid_sums(rows, grid0)
    grid = grid0
    value = finish(sums / grid)
    active = np.arange(rows.shape[0])
    for _ in range(max_doublings):
        sums[active] += grid_sums(rows[active] * np.exp(1j * np.pi * k / grid), grid)
        grid *= 2
        cur = finish(sums[active] / grid)
        done = np.abs(cur - value[active]) <= rel_tol * np.maximum(np.abs(cur), 1e-300)
        value[active] = cur
        active = active[~done]
        if active.size == 0:
            break
    return value


def _grid_candidates(vals: np.ndarray):
    """Grid maxima and refinement candidates of periodic functions sampled one
    per row of ``vals`` on a uniform grid.

    Returns each row's grid argmax and max, then the (row, column) of every
    grid-local maximum within the top quarter of its row's spread: with at
    least 16 samples per oscillation, refinement lifts a value by well under
    1% of the spread, so only near-top maxima can compete. A row whose spread
    is negligible or not finite is flat to working precision and gets none.
    """
    jbest = np.argmax(vals, axis=1)
    gmax = vals[np.arange(vals.shape[0]), jbest]
    spread = gmax - vals.min(axis=1)
    active = np.isfinite(spread) & (spread > 1e-14 * np.maximum(1.0, np.abs(gmax)))
    cand = (vals >= np.roll(vals, 1, axis=1)) & (vals >= np.roll(vals, -1, axis=1))
    cand &= vals >= (gmax - 0.25 * spread)[:, None]
    cand &= active[:, None]
    rows, cols = np.nonzero(cand)
    return jbest, gmax, rows, cols


def circle_max(f, grid_size: int, xtol: float = 3e-8, max_iter: int = 80):
    """Max of a real 2*pi-periodic function: uniform grid, then bracketed
    successive-parabolic refinement of every near-top grid-local maximum.

    ``f`` must map an ndarray of angles to an ndarray of real values. Each
    lane holds a bracket xl < xm < xr with fm >= fl, fr, and every step moves
    all lanes in lockstep with one vectorized call of ``f``. Polynomial
    objectives use the exact engine of sup_norm instead; this serves the
    objectives that are not polynomials. Returns (max value, argmax angle).
    """
    xs = np.arange(grid_size) * (_TWO_PI / grid_size)
    vals = np.asarray(f(xs), dtype=np.float64)
    jbest, gmax, _, idx = _grid_candidates(vals[None, :])
    jbest, gmax = int(jbest[0]), float(gmax[0])
    if idx.size == 0:
        return gmax, float(xs[jbest])

    h = _TWO_PI / grid_size
    xl, xm, xr = xs[idx] - h, xs[idx], xs[idx] + h
    fl, fm, fr = vals[idx - 1], vals[idx], vals[(idx + 1) % grid_size]
    for it in range(max_iter):
        span = xr - xl
        if span.max() <= xtol:
            break
        d1 = (xm - xl) * (fm - fr)
        d2 = (xm - xr) * (fm - fl)
        denom = 2.0 * (d1 - d2)
        safe = np.where(denom == 0.0, 1.0, denom)
        u = xm - ((xm - xl) * d1 - (xm - xr) * d2) / safe
        mid = np.where((xr - xm) >= (xm - xl), 0.5 * (xm + xr), 0.5 * (xl + xm))
        bad = (denom == 0.0) | ~np.isfinite(u)
        bad |= (u <= xl + 1e-3 * span) | (u >= xr - 1e-3 * span)
        bad |= np.abs(u - xm) < 1e-3 * span
        if it % 2 == 1:  # forced bisection keeps worst-case convergence geometric
            bad |= True
        u = np.where(bad, mid, u)
        fu = np.asarray(f(u), dtype=np.float64)
        better = fu >= fm
        right_side = u >= xm
        new_xl = np.where(better, np.where(right_side, xm, xl), np.where(right_side, xl, u))
        new_fl = np.where(better, np.where(right_side, fm, fl), np.where(right_side, fl, fu))
        new_xr = np.where(better, np.where(right_side, xr, xm), np.where(right_side, u, xr))
        new_fr = np.where(better, np.where(right_side, fr, fm), np.where(right_side, fu, fr))
        xm = np.where(better, u, xm)
        fm = np.where(better, fu, fm)
        xl, fl, xr, fr = new_xl, new_fl, new_xr, new_fr

    jb = int(np.argmax(fm))
    if fm[jb] >= gmax:
        return float(fm[jb]), float(xm[jb] % _TWO_PI)
    return gmax, float(xs[jbest])


_NEWTON_STEPS = 8


def _trig_max(b: np.ndarray, grid: int):
    """Max over the circle of real trig polynomials with exact coefficients.

    Each row of ``b`` (or ``b`` itself, if 1-D) holds b_{-M}..b_M of
    g(x) = sum_m b_m e^{imx}, Hermitian so that g is real. One FFT gives g on
    the uniform ``grid`` (at least 2M+1 points). Every candidate of
    _grid_candidates, or the grid argmax of a flat row, then takes Newton
    steps x <- x - g'/g'' on the exact derivatives, clipped to one grid
    spacing around its start, or a half-spacing ascent step where g'' >= 0.
    Each iterate is evaluated from the coefficients and the best is kept, so
    the returned max is g at the returned angle and never below g at the grid
    argmax. Returns per row (max, argmax) as arrays.
    """
    b = np.atleast_2d(b)
    nrows, width = b.shape
    m = np.arange(width) - (width - 1) // 2
    spec = np.zeros((nrows, grid), dtype=np.complex128)
    spec[:, m % grid] = b
    vals = np.fft.ifft(spec, norm="forward").real
    jbest, _, rows, cols = _grid_candidates(vals)
    flat = np.setdiff1d(np.arange(nrows), rows)
    rows = np.concatenate([rows, flat])
    h = _TWO_PI / grid
    x0 = np.concatenate([cols, jbest[flat]]) * h

    coef = np.stack([b, 1j * m * b, -(m * m) * b], axis=-1)[rows]

    def g_and_derivs(x):
        return np.einsum("kj,kjs->sk", np.exp(1j * np.multiply.outer(x, m)), coef).real

    x = x0
    g, g1, g2 = g_and_derivs(x)
    top_x, top_g = x, g
    for _ in range(_NEWTON_STEPS):
        concave = g2 < 0.0
        move = np.where(concave, -g1 / np.where(concave, g2, -1.0), 0.5 * h * np.sign(g1))
        x_next = np.clip(x + move, x0 - h, x0 + h)
        if np.abs(x_next - x).max() <= 1e-13:
            break
        x = x_next
        g, g1, g2 = g_and_derivs(x)
        up = g > top_g
        top_x = np.where(up, x, top_x)
        top_g = np.where(up, g, top_g)

    # per row, the first candidate (in grid order) holding the row's best value
    order = np.lexsort((-top_g, rows))
    first = order[np.unique(rows[order], return_index=True)[1]]
    return top_g[first], top_x[first] % _TWO_PI


def _abs2_coeffs(c: np.ndarray) -> np.ndarray:
    """Coefficients b_{-M}..b_M of |sum_k c_k e^{ikx}|^2, M = len(c) - 1."""
    return np.convolve(c, np.conj(c[::-1]))


def _prescaled(c: np.ndarray):
    """(c * 2^-e, e), with e the binary exponent of the largest |Re| or |Im| of
    ``c``: exact, and it brings the largest entry into [1/2, 1), so norms
    taken of the result neither overflow nor underflow before being scaled
    back by 2^e."""
    e = int(np.frexp(np.maximum(np.abs(c.real), np.abs(c.imag)).max())[1])
    return np.ldexp(c.real, -e) + 1j * np.ldexp(c.imag, -e), e


def _abs_max(c: np.ndarray, grid: int):
    """Per row of ``c``: max over x of |sum_k c_k e^{ikx}| and an angle attaining it.

    Every row is first scaled by the same power of two, which is exact, so
    squaring neither overflows nor underflows; the result is scaled back.
    """
    c, e = _prescaled(np.atleast_2d(c))
    g, x = _trig_max(np.stack([_abs2_coeffs(row) for row in c]), grid)
    return np.ldexp(np.sqrt(np.maximum(g, 0.0)), e), x


def sup_norm(p) -> float:
    """Max of |p| on the circle: the exact sup engine on |p|^2, which restricted
    to the circle is a trig polynomial of degree 2n (n for an algebraic p)
    with coefficients convolve(c, conj(c[::-1])). Grid-local maxima of a
    32(n+1)-point grid, n the declared degree, take clipped Newton steps on
    its exact derivatives.
    """
    if p.is_zero():
        return 0.0
    val, _ = sup_norm_argmax(p)
    return val


def sup_norm_argmax(p):
    """(sup norm, an angle attaining it)."""
    if not isinstance(p, (TrigPoly, AlgebraicPoly)):
        raise InvalidParam(f"expected a polynomial, got {type(p).__name__}")
    val, x = _abs_max(p.coeffs, 32 * (p.degree + 1))
    return float(val[0]), float(x[0])


def _circle_row(p):
    """(coefficients, lowest frequency) of p on the circle, for _circle_means."""
    if isinstance(p, TrigPoly):
        return p.coeffs, -p.degree
    if isinstance(p, AlgebraicPoly):
        return p.coeffs, 0
    raise InvalidParam(f"expected a polynomial, got {type(p).__name__}")


def lp_norm(p, power: float, cfg: QuadratureConfig | None = None) -> float:
    """(integral of |p|^power dm)^(1/power) for finite power > 0.

    For even integer powers the integrand is itself a trig polynomial of
    degree power*n, so one grid larger than that is exact; otherwise the
    grid doubles, adding only the new points, until successive norms agree
    to rel_tol. The coefficients are scaled by a power of two first, which
    is exact, so 1e-200 or 1e200 coefficients neither underflow nor overflow.
    """
    cfg = cfg or DEFAULT_CONFIG
    if not (power > 0) or not math.isfinite(power):
        raise InvalidParam("lp_norm needs finite p > 0; use the mahler functions for p = 0")
    coeffs, kmin = _circle_row(p)
    if p.is_zero():
        return 0.0
    n = p.degree
    grid0, budget = cfg.initial_grid(n), cfg.max_doublings
    rounded = round(power)
    if rounded == power and rounded % 2 == 0:
        grid0, budget = max(grid0, int(rounded) * n + 1), 0
    row, e = _prescaled(coeffs)
    norm = _circle_means(row, kmin, lambda a: a**power, grid0, cfg.rel_tol, budget,
                         finish=lambda mean: mean ** (1.0 / power))
    return float(np.ldexp(norm[0], e))


def _jensen_from_roots(root_arr: np.ndarray, leading: complex) -> float:
    log_val = math.log(abs(leading))
    if root_arr.size:
        mods = np.abs(np.asarray(root_arr, dtype=np.complex128))
        log_val += float(np.log(np.maximum(1.0, mods)).sum())
    return math.exp(log_val)


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
    leading = complex(p.coeffs[d_eff])
    if p.known_roots is not None and len(p.known_roots) == d_eff:
        return _jensen_from_roots(np.asarray(p.known_roots), leading)
    return _jensen_from_roots(roots(p).roots, leading)


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
    return float(_circle_means(coeffs, kmin, np.log, cfg.initial_grid(p.degree), cfg.rel_tol,
                               cfg.max_doublings, finish=np.exp)[0])


def wiener_norm(p: AlgebraicPoly) -> float:
    """Sum of |a_k| over the analytic coefficients."""
    if isinstance(p, TrigPoly):
        if p.has_negative_frequencies():
            raise InvalidParam("wiener norm is defined for analytic polynomials")
        p = p.analytic_part()
    return p.wiener()


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

    Polar form 2 * int_0^1 r * (angular mean of |p(r e^{i theta})|^power) dr
    with Gauss-Legendre radial nodes. Each node's circle is one row of
    _circle_means on the dilated coefficients c_k r^k: its angular grid
    doubles, adding only the new points, until that row's mean changes by at
    most area_rel_tol (|p|^power along a circle is generally not a trig
    polynomial), and rows that have converged leave the doubling.
    """
    cfg = cfg or DEFAULT_CONFIG
    if p.is_zero():
        return 0.0
    r, w = _radial_rule(cfg.radial_nodes)
    means = _circle_means(_dilated(p.coeffs, r), 0, lambda a: a**power,
                          cfg.initial_grid(p.degree), cfg.area_rel_tol, cfg.max_doublings)
    return float(2.0 * np.sum(w * r * means))


def besov_111_seminorm(p: AlgebraicPoly, cfg: QuadratureConfig | None = None) -> float:
    """integral of |p''| over the disk against normalized area measure."""
    return disk_mean(p.derivative().derivative(), 1.0, cfg)


def _refine_radial_sup(coeffs: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """sup over the circle of |q(radii[r] e^{i theta})| for every radius at once:
    each radius is one row of the exact sup engine, on the dilated coefficients."""
    return _abs_max(_dilated(coeffs, radii), max(32 * len(coeffs), 64))[0]


def besov_inf1_seminorm(p: AlgebraicPoly, cfg: QuadratureConfig | None = None) -> float:
    """int_0^1 sup_{|z|=1} |p'(rz)| dr by Gauss-Legendre in r, with the sup
    taken by the exact engine of sup_norm on dilated coefficients."""
    cfg = cfg or DEFAULT_CONFIG
    dp = p.derivative()
    if dp.is_zero():
        return 0.0
    r, w = _radial_rule(cfg.radial_nodes)
    sups = _refine_radial_sup(dp.coeffs, r)
    return float(np.sum(w * sups))


def norm_value(p, kind: NormKind | str, power: float | None = None,
               cfg: QuadratureConfig | None = None) -> float:
    """Dispatch a norm computation by kind tag."""
    if isinstance(kind, str):
        kind = NormKind(kind, power)
    if kind.tag == "sup":
        return sup_norm(p)
    if kind.tag == "lp":
        return lp_norm(p, kind.p, cfg)
    if kind.tag == "mahler":
        return mahler_jensen(p)
    if kind.tag == "wiener":
        return wiener_norm(p)
    if kind.tag == "besov111":
        return besov_111_seminorm(_require_algebraic(p), cfg)
    if kind.tag == "besovinf1":
        return besov_inf1_seminorm(_require_algebraic(p), cfg)
    raise InvalidParam(f"unknown norm kind {kind.tag!r}")


def _require_algebraic(p) -> AlgebraicPoly:
    if isinstance(p, AlgebraicPoly):
        return p
    if isinstance(p, TrigPoly) and not p.has_negative_frequencies():
        return p.analytic_part()
    raise InvalidParam("this norm needs an analytic (algebraic) polynomial")
