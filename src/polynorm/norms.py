"""The norm ladder against normalized arc measure on the unit circle.

sup, L^p for finite p > 0, the Mahler limit norm at p = 0 (two independent
evaluations), the Wiener coefficient norm, and two Besov-type seminorms on
the disk. Circle integrals use uniform angular grids: the N-point rule is
exact for trigonometric polynomials of degree < N by discrete orthogonality,
and grid doubling with a relative-change stop covers the remaining
integrands. Area integrals are Gauss-Legendre in the radius.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import InvalidParam, NearCircleRoot, ZeroPolynomial
from .poly import AlgebraicPoly, TrigPoly, _poly_values, roots

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


def _doubled_value(value_at, grid0: int, rel_tol: float, max_doublings: int) -> float:
    """Double the grid until two successive values agree to rel_tol.

    Returns the last value if the budget runs out (best effort; the stopping
    rule is sound whenever convergence is geometric).
    """
    prev = value_at(grid0)
    grid = grid0
    for _ in range(max_doublings):
        grid *= 2
        cur = value_at(grid)
        if abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    return prev


def _refine_maxima(f, xl, xm, xr, fl, fm, fr, xtol: float = 3e-8, max_iter: int = 80):
    """Bracketed successive-parabolic refinement of many local maxima at once.

    Each lane holds a bracket xl < xm < xr with fm >= fl, fr; every step moves
    all lanes in lockstep with one vectorized call of ``f``. Returns the
    refined (xm, fm).
    """
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

    return xm, fm


def circle_max(f, grid_size: int, xtol: float = 3e-8, max_iter: int = 80):
    """Max of a real 2*pi-periodic function: uniform grid, then bracketed
    successive-parabolic refinement of every grid-local maximum.

    ``f`` must map an ndarray of angles to an ndarray of real values.
    Returns (max value, argmax angle).
    """
    xs = np.arange(grid_size) * (_TWO_PI / grid_size)
    vals = np.asarray(f(xs), dtype=np.float64)
    jbest = int(np.argmax(vals))
    gmax = float(vals[jbest])
    spread = gmax - float(vals.min())
    if not np.isfinite(spread) or spread <= 1e-14 * max(1.0, abs(gmax)):
        return gmax, float(xs[jbest])

    left = np.roll(vals, 1)
    right = np.roll(vals, -1)
    cand = (vals >= left) & (vals >= right)
    # with >= 16 samples per oscillation, refinement lifts a value by well
    # under 1% of the spread, so only near-top local maxima can compete
    cand &= vals >= gmax - 0.25 * spread
    idx = np.nonzero(cand)[0]
    h = _TWO_PI / grid_size
    xl, xm, xr = xs[idx] - h, xs[idx].copy(), xs[idx] + h
    fl, fm, fr = left[idx].copy(), vals[idx].copy(), right[idx].copy()

    xm, fm = _refine_maxima(f, xl, xm, xr, fl, fm, fr, xtol, max_iter)
    jb = int(np.argmax(fm))
    if fm[jb] >= gmax:
        return float(fm[jb]), float(xm[jb] % _TWO_PI)
    return gmax, float(xs[jbest])


def _as_circle_function(p):
    """(declared degree, vectorized x -> complex values on e^{ix}) for either type."""
    if isinstance(p, TrigPoly):
        return p.degree, p
    if isinstance(p, AlgebraicPoly):
        return p.degree, (lambda x: p(np.exp(1j * np.asarray(x, dtype=np.float64))))
    raise InvalidParam(f"expected a polynomial, got {type(p).__name__}")


def sup_norm(p) -> float:
    """Max of |p| on the circle: 32(n+1)-point grid plus parabolic refinement
    of |p|^2, which restricted to the circle is a trig polynomial of degree 2n.
    The grid density is fixed by the declared degree.
    """
    if p.is_zero():
        return 0.0
    val, _ = sup_norm_argmax(p)
    return val


def sup_norm_argmax(p):
    """(sup norm, an angle attaining it)."""
    n, f = _as_circle_function(p)
    sq = lambda x: np.abs(f(x)) ** 2
    val, x = circle_max(sq, 32 * (n + 1))
    return float(np.sqrt(max(val, 0.0))), x


def _grid_values_for(p, grid: int) -> np.ndarray:
    if isinstance(p, (TrigPoly, AlgebraicPoly)):
        return p.values_on_grid(grid)
    raise InvalidParam(f"expected a polynomial, got {type(p).__name__}")


def lp_norm(p, power: float, cfg: QuadratureConfig | None = None) -> float:
    """(integral of |p|^power dm)^(1/power) for finite power > 0.

    For even integer powers the integrand is itself a trig polynomial of
    degree power*n, so any grid larger than that is exact and no doubling is
    needed; otherwise the grid doubles until successive norms agree.
    """
    cfg = cfg or DEFAULT_CONFIG
    if not (power > 0) or not math.isfinite(power):
        raise InvalidParam("lp_norm needs finite p > 0; use the mahler functions for p = 0")
    if p.is_zero():
        return 0.0
    n = p.degree
    grid0 = cfg.initial_grid(n)

    def norm_at(grid: int) -> float:
        vals = np.abs(_grid_values_for(p, grid))
        return float(np.mean(vals**power) ** (1.0 / power))

    rounded = round(power)
    if rounded == power and rounded % 2 == 0:
        return norm_at(max(grid0, int(rounded) * n + 1))
    return _doubled_value(norm_at, grid0, cfg.rel_tol, cfg.max_doublings)


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
    n = p.degree

    def value_at(grid: int) -> float:
        vals = np.abs(_grid_values_for(p, grid))
        return float(np.exp(np.mean(np.log(vals))))

    return _doubled_value(value_at, cfg.initial_grid(n), cfg.rel_tol, cfg.max_doublings)


def wiener_norm(p: AlgebraicPoly) -> float:
    """Sum of |a_k| over the analytic coefficients."""
    if isinstance(p, TrigPoly):
        if p.has_negative_frequencies():
            raise InvalidParam("wiener norm is defined for analytic polynomials")
        p = p.analytic_part()
    return p.wiener()


def _radial_rule(nodes: int):
    t, w = np.polynomial.legendre.leggauss(nodes)
    return (t + 1.0) / 2.0, w / 2.0


def _batched_circle_values(coeffs: np.ndarray, radii: np.ndarray, grid: int) -> np.ndarray:
    """|row r| values of sum_k coeffs[k] (radii[r] e^{i theta})^k on the angular grid."""
    powers = radii[:, None] ** np.arange(len(coeffs))[None, :]
    c = np.zeros((len(radii), grid), dtype=np.complex128)
    c[:, : len(coeffs)] = coeffs[None, :] * powers
    return np.fft.ifft(c, axis=1) * grid


def disk_mean(p: AlgebraicPoly, power: float = 1.0,
              cfg: QuadratureConfig | None = None) -> float:
    """integral of |p|^power over the disk against normalized area measure.

    Polar form 2 * int_0^1 r * (angular mean of |p(r e^{i theta})|^power) dr
    with Gauss-Legendre radial nodes; the angular grid doubles until the total
    stabilizes (|p|^power along a circle is generally not a trig polynomial).
    """
    cfg = cfg or DEFAULT_CONFIG
    if p.is_zero():
        return 0.0
    r, w = _radial_rule(cfg.radial_nodes)

    def total_at(grid: int) -> float:
        vals = np.abs(_batched_circle_values(p.coeffs, r, grid)) ** power
        return float(2.0 * np.sum(w * r * vals.mean(axis=1)))

    grid0 = cfg.initial_grid(p.degree)
    return _doubled_value(total_at, grid0, cfg.area_rel_tol, cfg.max_doublings)


def besov_111_seminorm(p: AlgebraicPoly, cfg: QuadratureConfig | None = None) -> float:
    """integral of |p''| over the disk against normalized area measure."""
    return disk_mean(p.derivative().derivative(), 1.0, cfg)


def _refine_radial_sup(coeffs: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """sup over the circle of |q(radii[r] e^{i theta})| for every radius at once.

    Grid scan plus pooled lockstep parabolic refinement (same scheme as
    circle_max, tagged by radius so one vector pass serves all rows).
    """
    m = len(coeffs) - 1
    grid = max(32 * (m + 1), 64)
    vals2 = np.abs(_batched_circle_values(coeffs, radii, grid)) ** 2
    sup2 = vals2.max(axis=1)
    spread = sup2 - vals2.min(axis=1)
    active_rows = spread > 1e-14 * np.maximum(1.0, sup2)

    rows_list, cols_list = [], []
    left = np.roll(vals2, 1, axis=1)
    right = np.roll(vals2, -1, axis=1)
    is_max = (vals2 >= left) & (vals2 >= right)
    is_max &= vals2 >= (sup2 - 0.25 * spread)[:, None]  # near-top maxima only
    for row in np.nonzero(active_rows)[0]:
        cols = np.nonzero(is_max[row])[0]
        if len(cols) > 8:  # refine only the strongest peaks; others cannot win
            cols = cols[np.argsort(vals2[row, cols])[-8:]]
        rows_list.append(np.full(len(cols), row))
        cols_list.append(cols)
    if not rows_list:
        return np.sqrt(sup2)
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)

    h = _TWO_PI / grid
    xm = cols * h
    xl, xr = xm - h, xm + h
    fm = vals2[rows, cols]
    fl = vals2[rows, (cols - 1) % grid]
    fr = vals2[rows, (cols + 1) % grid]
    rr = radii[rows]

    def f_at(x):
        return np.abs(_poly_values(coeffs, rr * np.exp(1j * x))) ** 2

    xm, fm = _refine_maxima(f_at, xl, xm, xr, fl, fm, fr)

    np.maximum.at(sup2, rows, fm)
    return np.sqrt(sup2)


def besov_inf1_seminorm(p: AlgebraicPoly, cfg: QuadratureConfig | None = None) -> float:
    """int_0^1 sup_{|z|=1} |p'(rz)| dr by Gauss-Legendre in r, with the sup
    taken by the same refined grid search as sup_norm on dilated coefficients."""
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
