"""Polynomial types and exact arithmetic on the unit circle.

Two coefficient conventions live side by side:

* ``AlgebraicPoly`` stores ``a_0 .. a_n`` for ``P(z) = sum a_k z^k``;
* ``TrigPoly`` stores ``a_{-n} .. a_n`` for ``T(x) = sum a_k exp(ikx)``.

The lift ``Q(z) = z^n T(z)`` identifies the two on ``|z| = 1``: it shares
the coefficient array of ``T`` read as an algebraic polynomial of degree 2n.

The declared degree (length of the coefficient vector) is the bound that
enters inequality constants; the effective degree tracks the actual data.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import InvalidParam, OutOfRange, ParseError, RootsNotConverged, ZeroPolynomial

_TWO_PI = 2.0 * np.pi

# Largest effective degree (after factoring out roots at the origin) whose
# roots come from companion-matrix eigenvalues; Aberth takes over above it.
# With one BLAS thread on a 2-core Xeon (median of three runs over ten random
# polynomials, for three sets of ten), eigvals took 0.45 / 0.56 / 0.63 ms at
# d = 36 / 40 / 42 against 0.62 / 0.64 / 0.66 ms for Aberth and won every
# set, the two were even at d = 43 / 44 (0.65 / 0.68 against 0.66 / 0.67 ms),
# and eigvals lost every set from d = 45 on (0.72 / 0.83 / 0.98 ms against
# 0.66 / 0.74 / 0.73 ms at d = 45 / 48 / 52).
_EIGVALS_MAX_DEGREE = 44


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Evaluate sum coeffs[k] z^k by Horner's scheme (vectorized in z).

    A two-dimensional ``coeffs`` is a block of columns, one polynomial each;
    the result then has a trailing axis with one entry per column.
    """
    zb = z.reshape(z.shape + (1,) * (coeffs.ndim - 1))
    out = np.zeros(z.shape + coeffs.shape[1:], dtype=np.complex128)
    for a in coeffs[::-1]:
        out = out * zb + a
    return out


def _powers(z: np.ndarray, m: int) -> np.ndarray:
    """The (m, len(z)) table of z^k, k = 0..m-1, for a one-dimensional z.

    Built by doubling: once rows 0..k-1 hold z^0..z^(k-1), rows k..2k-1 are
    those rows times z^k (itself z^(k/2) squared), so about log2(m) block
    multiplies fill the table in place of an element-by-element product.
    Row k carries up to about k roundings, as a sequential product does, but
    the squarings pass each one on coherently rather than as a random walk:
    at m = 257 on 128 random angles at each |z| in {0.9, 1, 1.1}, the worst
    entry was 2.3e-14 |z|^k off a 40-digit reference, against 3.3e-15 |z|^k
    for the sequential product.
    """
    pw = np.empty((m, z.size), dtype=np.complex128)
    pw[0] = 1.0
    pw[1:2] = z
    k = 2
    while k < m:
        zk = pw[k // 2] * pw[k // 2]
        np.multiply(pw[: min(k, m - k)], zk, out=pw[k : 2 * k])
        k *= 2
    return pw


def _poly_values(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Horner for short polynomials, a power table (``_powers``) otherwise.

    The power-table route trades memory (len(z) x len(coeffs)) for a handful
    of block ops, which wins once the coefficient loop would dominate; it
    falls back to Horner when the table would be large. It pays for Aberth
    above ``_EIGVALS_MAX_DEGREE``: with Horner alone a ``roots`` call took
    1.8 / 2.9 / 6.5 / 16.4 ms at d = 45 / 64 / 128 / 256, against
    0.7 / 0.9 / 1.6 / 4.2 ms with this branch (one BLAS thread, 2-core Xeon).
    A two-dimensional ``coeffs`` is a block of columns, one polynomial each,
    all evaluated from the same powers of z.
    """
    m = len(coeffs)
    if m <= 8 or z.ndim != 1 or z.size * m > 2_000_000:
        return _horner(coeffs, z)
    return _powers(z, m).T @ coeffs


def _grid_values(coeffs: np.ndarray, kmin: int, grid: int) -> np.ndarray:
    """Values of sum_j coeffs[..., j] e^{i(kmin+j)x} at x = 2*pi*t/grid,
    t = 0..grid-1, for every row of ``coeffs`` (leading axes are batch axes).

    Uses one zero-padded inverse FFT; requires grid >= coeffs.shape[-1] so the
    frequency residues mod grid stay distinct.
    """
    m = coeffs.shape[-1]
    if grid < m:
        raise InvalidParam(f"grid {grid} too small for {m} coefficients")
    c = np.zeros(coeffs.shape[:-1] + (grid,), dtype=np.complex128)
    c[..., (np.arange(m) + kmin) % grid] = coeffs
    return np.fft.ifft(c, norm="forward")


def _prescaled(c: np.ndarray, axis=None):
    """(c * 2^-e, e), with e the binary exponent of the largest |Re| or |Im| of
    ``c`` (over ``axis``, kept as length-1 axes; all of ``c`` by default):
    exact, and it brings the largest entry into [1/2, 1), so norms taken of
    the result neither overflow nor underflow before being scaled back by
    2^e. ``c`` must be contiguous in its last axis."""
    f = c.view(np.float64)
    e = np.frexp(np.abs(f).max(axis=axis, keepdims=True))[1]
    return np.ldexp(f, -e).view(np.complex128), e


def _refuse_nonfinite(name: str, values: np.ndarray) -> None:
    # count_nonzero rather than .all(): every constructor runs this, and the
    # verify sweep builds thousands of polynomials
    if np.count_nonzero(np.isfinite(values)) != values.size:
        raise InvalidParam(f"{name} must be finite (no NaN or infinity)")


def _refuse_overflow(values: np.ndarray) -> None:
    """OutOfRange unless every value (taken at finite points) is finite."""
    if not np.isfinite(values).all():
        raise OutOfRange("polynomial value exceeds the floating-point range")


def _equal_arrays(self, other):
    """``==`` for the frozen array dataclasses: the same type, and every
    compared field equal by value (np.array_equal), where the generated
    equality would compare ndarray tuples and raise."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
               for f in fields(self) if f.compare)


@dataclass(frozen=True)
class AlgebraicPoly:
    """P(z) = sum_{k=0}^{n} coeffs[k] z^k; declared degree n = len(coeffs) - 1.

    Trailing zero coefficients are legal. ``known_roots`` is optional
    provenance set by generators that build the polynomial from its roots;
    it lets root-condition checks avoid the ill-conditioning of numerically
    re-deriving multiple roots.
    """

    coeffs: np.ndarray
    known_roots: tuple | None = field(default=None, compare=False, repr=False)

    __eq__ = _equal_arrays

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.complex128, ndmin=1)
        if c.ndim != 1 or c.size == 0:
            raise InvalidParam("coefficient vector must be one-dimensional and nonempty")
        _refuse_nonfinite("coefficients", c)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def effective_degree(self) -> int | None:
        """Largest k with coeffs[k] != 0, or None for the zero polynomial."""
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[-1]) if nz.size else None

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def __call__(self, z):
        """P(z); a non-finite z raises InvalidParam, and a value beyond the
        float range OutOfRange (no warning escapes)."""
        scalar = np.isscalar(z)
        zv = np.atleast_1d(np.asarray(z, dtype=np.complex128))
        _refuse_nonfinite("evaluation points", zv)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = _poly_values(self.coeffs, zv)
        _refuse_overflow(vals)
        return complex(vals[0]) if scalar else vals.reshape(np.shape(z))

    def derivative(self) -> "AlgebraicPoly":
        """Coefficient k of P' is (k+1) a_{k+1}; declared degree max(0, n-1)."""
        if self.degree == 0:
            return AlgebraicPoly(np.zeros(1))
        k = np.arange(1, self.degree + 1)
        return AlgebraicPoly(k * self.coeffs[1:])

    def reciprocal(self) -> "AlgebraicPoly":
        """Coefficient k of the reciprocal is conj(a_{n-k}), n the declared degree."""
        return AlgebraicPoly(np.conj(self.coeffs[::-1]))

    def dilate(self, r: float) -> "AlgebraicPoly":
        """P_r with P_r(z) = P(rz), i.e. coefficients a_k r^k; a coefficient
        beyond the float range raises OutOfRange (no warning escapes)."""
        with np.errstate(over="ignore", invalid="ignore"):
            c = self.coeffs * (complex(r) ** np.arange(len(self.coeffs)))
        if not np.isfinite(c).all():
            raise OutOfRange("dilated coefficients exceed the floating-point range")
        return AlgebraicPoly(c)

    def values_on_grid(self, grid: int) -> np.ndarray:
        """P(e^{ix}) at the uniform angles x = 2*pi*t/grid."""
        return _grid_values(self.coeffs, 0, grid)

    def __mul__(self, other):
        if isinstance(other, AlgebraicPoly):
            return AlgebraicPoly(np.convolve(self.coeffs, other.coeffs))
        return AlgebraicPoly(self.coeffs * complex(other))

    __rmul__ = __mul__

    def wiener(self) -> float:
        """Sum of |a_k|; a sum beyond the float range raises OutOfRange (no
        overflow warning escapes)."""
        with np.errstate(over="ignore"):
            total = float(np.abs(self.coeffs).sum())
        if not math.isfinite(total):
            raise OutOfRange("Wiener norm exceeds the floating-point range")
        return total


@dataclass(frozen=True)
class TrigPoly:
    """T(x) = sum_{k=-n}^{n} coeffs[n+k] e^{ikx}; length must be odd (2n+1)."""

    coeffs: np.ndarray

    __eq__ = _equal_arrays

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.complex128, ndmin=1)
        if c.ndim != 1 or c.size % 2 == 0:
            raise InvalidParam("trig coefficient vector must have odd length 2n+1")
        _refuse_nonfinite("coefficients", c)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return (len(self.coeffs) - 1) // 2

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def coefficient(self, k: int) -> complex:
        n = self.degree
        if abs(k) > n:
            return 0j
        return complex(self.coeffs[n + k])

    def __call__(self, x):
        """Evaluate via the lift: T(x) = Q(e^{ix}) e^{-inx} with Q(z) = z^n T(z).
        A non-finite x raises InvalidParam, and a value beyond the float range
        OutOfRange (no warning escapes)."""
        scalar = np.isscalar(x)
        xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
        _refuse_nonfinite("evaluation points", xv)
        z = np.exp(1j * xv)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = _poly_values(self.coeffs, z.ravel()).reshape(z.shape) * np.exp(-1j * self.degree * xv)
        _refuse_overflow(vals)
        return complex(vals[0]) if scalar else vals.reshape(np.shape(x))

    def derivative(self) -> "TrigPoly":
        """d/dx: coefficient k becomes i*k*a_k."""
        n = self.degree
        k = np.arange(-n, n + 1)
        return TrigPoly(1j * k * self.coeffs)

    def to_algebraic(self) -> AlgebraicPoly:
        """The lift Q(z) = z^n T(z), an algebraic polynomial of declared degree 2n."""
        return AlgebraicPoly(self.coeffs)

    @classmethod
    def from_algebraic(cls, p: AlgebraicPoly) -> "TrigPoly":
        """Analytic embedding: a_k = p.coeffs[k] for k >= 0, zero for k < 0."""
        n = p.degree
        return cls(np.concatenate([np.zeros(n, dtype=np.complex128), p.coeffs]))

    def analytic_part(self) -> AlgebraicPoly:
        """The k >= 0 coefficients as an algebraic polynomial."""
        return AlgebraicPoly(self.coeffs[self.degree:])

    def has_negative_frequencies(self) -> bool:
        """True when some a_k with k < 0 is nonzero (an exact test)."""
        return bool(self.coeffs[: self.degree].any())

    def is_real_valued(self) -> bool:
        """True when a_{-k} = conj(a_k) up to 1e-12 relative to the largest coefficient."""
        scale = max(float(np.abs(self.coeffs).max()), 1e-300)
        return bool(np.abs(self.coeffs - np.conj(self.coeffs[::-1])).max() <= 1e-12 * scale)

    def shift(self, a: float) -> "TrigPoly":
        """T(. + a): coefficient k picks up the phase e^{ika}."""
        n = self.degree
        k = np.arange(-n, n + 1)
        return TrigPoly(self.coeffs * np.exp(1j * k * a))

    def values_on_grid(self, grid: int) -> np.ndarray:
        return _grid_values(self.coeffs, -self.degree, grid)

    def __mul__(self, other):
        if isinstance(other, TrigPoly):
            return TrigPoly(np.convolve(self.coeffs, other.coeffs))
        return TrigPoly(self.coeffs * complex(other))

    __rmul__ = __mul__


def _exp_sum(x, freqs: np.ndarray, amps: np.ndarray):
    """sum_j amps[j] e^{i freqs[j] x} at each real x (a complex for a scalar x)."""
    vals = np.exp(1j * np.multiply.outer(np.asarray(x, dtype=np.float64), freqs)) @ amps
    return complex(vals) if np.isscalar(x) else vals


@dataclass(frozen=True)
class ExponentialSum:
    """f(x) = sum_j amplitudes[j] e^{i frequencies[j] x} with real frequencies.

    ``bandwidth`` is an upper bound on |frequencies|; it defaults to the max.
    """

    amplitudes: np.ndarray
    frequencies: np.ndarray
    bandwidth: float = None  # type: ignore[assignment]

    __eq__ = _equal_arrays

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.amplitudes, dtype=np.complex128)).copy()
        f = np.atleast_1d(np.asarray(self.frequencies, dtype=np.float64)).copy()
        if a.shape != f.shape or a.ndim != 1 or a.size == 0:
            raise InvalidParam("amplitudes and frequencies must be matching nonempty vectors")
        _refuse_nonfinite("amplitudes", a)
        _refuse_nonfinite("frequencies", f)
        if np.unique(f).size != f.size:
            raise InvalidParam("frequencies must be distinct")
        bw = float(np.abs(f).max()) if self.bandwidth is None else float(self.bandwidth)
        if not math.isfinite(bw):
            raise InvalidParam("bandwidth must be finite (no NaN or infinity)")
        if np.abs(f).max() > bw + 1e-12:
            raise InvalidParam("bandwidth must dominate every |frequency|")
        a.flags.writeable = False
        f.flags.writeable = False
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "bandwidth", bw)

    def __call__(self, x):
        return _exp_sum(x, self.frequencies, self.amplitudes)

    def derivative_values(self, x):
        return _exp_sum(x, self.frequencies, 1j * self.frequencies * self.amplitudes)

    def amplitude_sum(self) -> float:
        return float(np.abs(self.amplitudes).sum())


@dataclass(frozen=True)
class RootSet:
    """All roots of the effective-degree polynomial, with multiplicity.

    ``coeffs`` is the effective-degree coefficient vector the roots belong
    to. ``residual``, the relative max-norm error of rebuilding it as
    leading * prod (z - z_j), is computed on first read and cached: the
    rebuild is an O(d^2) Python loop that the library itself never needs.
    """

    roots: np.ndarray
    coeffs: np.ndarray = field(compare=False, repr=False)

    __eq__ = _equal_arrays

    def __post_init__(self):
        r = np.atleast_1d(np.asarray(self.roots, dtype=np.complex128)).copy()
        r.flags.writeable = False
        object.__setattr__(self, "roots", r)

    @cached_property
    def residual(self) -> float:
        c = self.coeffs
        rebuilt = _coeffs_from_roots(self.roots, c[-1])
        return float(np.abs(rebuilt - c).max() / max(np.abs(c).max(), 1e-300))


def _leja_order(rts: np.ndarray) -> np.ndarray:
    """Order roots so successive partial products stay balanced.

    Start from the largest modulus, then repeatedly take the root whose
    product of distances to the chosen ones is largest (tracked in logs).
    Plain left-to-right multiplication can lose all precision at degree
    beyond ~100; this ordering keeps the product ladder well conditioned.
    Row j of the log-distance table holds log|rts - rts[j]|, computed once.
    """
    d = len(rts)
    if d <= 2:
        return rts
    with np.errstate(divide="ignore"):
        table = np.log(np.abs(rts[None, :] - rts[:, None]))
    picked = np.zeros(d, dtype=bool)
    order = np.empty(d, dtype=np.intp)
    order[0] = int(np.argmax(np.abs(rts)))
    picked[order[0]] = True
    logdist = table[order[0]].copy()
    for i in range(1, d):
        logdist[picked] = -np.inf
        nxt = int(np.argmax(logdist))
        order[i] = nxt
        picked[nxt] = True
        logdist = logdist + table[nxt]
    return rts[order]


def _coeffs_from_roots(rts, leading: complex) -> np.ndarray:
    c = np.array([1.0 + 0j])
    for r in _leja_order(np.asarray(rts, dtype=np.complex128)):
        c = np.convolve(c, np.array([-r, 1.0 + 0j]))
    return c * leading


def from_roots(rts, leading: complex = 1.0) -> AlgebraicPoly:
    """Monomial coefficients of leading * prod (z - z_j), with root provenance."""
    rts = [complex(r) for r in rts]
    return AlgebraicPoly(_coeffs_from_roots(rts, complex(leading)), known_roots=tuple(rts))


def _newton_blocks(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two (d+1) x 2 coefficient blocks ``_newton_corrections`` evaluates.

    For monic p with coefficients ``w``: inside the circle the columns are p
    and p' (the latter padded with a zero). Outside, with u = 1/z and
    q(u) = p(z)/z^d, they are q and d q - u q', whose coefficient k is
    (d - k) q_k.
    """
    d = len(w) - 1
    k = np.arange(d + 1)
    inner = np.zeros((d + 1, 2), dtype=np.complex128)
    inner[:, 0] = w
    inner[:-1, 1] = k[1:] * w[1:]
    outer = np.empty((d + 1, 2), dtype=np.complex128)
    outer[:, 0] = w[::-1]
    outer[:, 1] = (d - k) * w[::-1]
    return inner, outer


def _newton_corrections(inner: np.ndarray, outer: np.ndarray, z: np.ndarray) -> np.ndarray:
    """p(z)/p'(z) for monic p, overflow-safe on both sides of the unit circle.

    ``inner`` and ``outer`` come from ``_newton_blocks``. Direct evaluation is
    bounded for |z| <= 1; outside, p(z) ~ |z|^d overflows at high degree, so
    with u = 1/z the correction is computed as z q(u) / (d q(u) - u q'(u)),
    which only ever evaluates inside the disk. Each side evaluates both of
    its columns from one power matrix.
    """
    out = np.empty_like(z)
    inside = np.abs(z) <= 1.0
    if inside.any():
        v = _poly_values(inner, z[inside])
        out[inside] = v[:, 0] / np.where(v[:, 1] == 0, 1e-300, v[:, 1])
    if not inside.all():
        zo = z[~inside]
        v = _poly_values(outer, 1.0 / zo)
        out[~inside] = zo * v[:, 0] / np.where(v[:, 1] == 0, 1e-300, v[:, 1])
    return out


def _initial_points(w: np.ndarray) -> np.ndarray:
    """Slightly perturbed circles at coefficient-based root-modulus estimates.

    The upper convex hull of (k, log|w_k|) splits the roots into annuli: a
    hull segment from k1 to k2 predicts k2 - k1 roots of modulus about
    (|w_k1|/|w_k2|)^(1/(k2-k1)). Starting every point on one circle at the
    Cauchy bound instead can sit so far out that the far-field contraction
    (about 2/d per step) cannot reach the roots within the iteration budget.
    """
    d = len(w) - 1
    mods = np.abs(w)
    hull: list[tuple[int, float]] = []
    for k in np.nonzero(mods)[0]:
        pt = (int(k), math.log(mods[k]))
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (pt[0] - x1) * (y2 - y1) >= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    radii = np.empty(d)
    pos = 0
    for (k1, y1), (k2, y2) in zip(hull, hull[1:]):
        radii[pos : pos + (k2 - k1)] = math.exp((y1 - y2) / (k2 - k1))
        pos += k2 - k1
    j = np.arange(d)
    angles = 2 * np.pi * (j + 0.35) / d + 1.0 / (d + 3)
    return radii * (1.0 + 0.02 * np.cos(2.7 * j + 0.5)) * np.exp(1j * angles)


def _aberth(w: np.ndarray, tol: float = 1e-14, max_iter: int = 200) -> np.ndarray:
    """Simultaneous (Aberth-Ehrlich) iteration for all roots of a monic polynomial.

    ``w`` holds coefficients a_0..a_{d-1}, 1. Starts on slightly perturbed
    circles at the Newton-polygon modulus estimates. A sweep steps only the
    roots whose last correction exceeded tol * (1 + max|z|); the Aberth sum
    of each of them still runs over every current root. Once no root is
    left moving, the next sweep steps every root, and the loop stops only
    when that sweep's largest correction is below the same bound (any root
    that fails it keeps stepping), so the stop rule is the all-roots one:
    the largest simultaneous correction is below tol * (1 + max|z|). A
    polynomial that has not passed it after max_iter sweeps raises
    RootsNotConverged.
    """
    z = _initial_points(w)
    inner, outer = _newton_blocks(w)
    moving = np.ones(len(z), dtype=bool)
    buf = np.empty((len(z), len(z)), dtype=np.complex128)
    for _ in range(max_iter):
        every = moving.all()
        idx = np.nonzero(moving)[0]
        zs = z[idx]
        newton = _newton_corrections(inner, outer, zs)
        diff = np.subtract(zs[:, None], z, out=buf[: len(idx)])
        diff[np.arange(len(idx)), idx] = np.inf
        s = np.divide(1.0, diff, out=diff).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = newton / (1.0 - newton * s)
        corr = np.where(np.isfinite(corr), corr, newton)
        z[idx] = zs - corr
        step = np.abs(corr)
        bound = tol * (1.0 + np.abs(z).max())
        if every and step.max() <= bound:
            return z
        moving[idx] = step > bound
        if not moving.any():
            moving[:] = True
    raise RootsNotConverged(f"Aberth iteration at degree {len(z)} did not converge in "
                            f"{max_iter} sweeps (last largest correction {step.max():.2e})")


def _companion_roots(w: np.ndarray) -> np.ndarray:
    """Eigenvalues of the companion matrix of a monic polynomial.

    ``w`` holds coefficients a_0..a_{d-1}, 1. The eigenvalue route is
    backward stable for the coefficients (Edelman & Murakami, Math. Comp.
    1995); LAPACK balances the matrix first.
    """
    d = len(w) - 1
    comp = np.zeros((d, d), dtype=np.complex128)
    comp[1:, :-1] = np.eye(d - 1)
    comp[:, -1] = -w[:-1]
    return np.linalg.eigvals(comp)


def roots(p: AlgebraicPoly) -> RootSet:
    """All effective-degree roots with multiplicity.

    Exact zero coefficients at the bottom are factored out as exact roots at
    the origin, and the rest are scaled by a power of two (_prescaled) before
    they are made monic. The remaining roots are companion-matrix eigenvalues
    up to degree ``_EIGVALS_MAX_DEGREE`` and Aberth iterates above it. The
    rebuild residual is left to ``RootSet.residual``, computed only when read.
    Raises ZeroPolynomial on the zero polynomial, and RootsNotConverged when
    Aberth runs out of sweeps; a nonzero constant yields an empty root set.
    """
    d_eff = p.effective_degree
    if d_eff is None:
        raise ZeroPolynomial("the zero polynomial has no root set")
    c = p.coeffs[: d_eff + 1]
    m0 = int(np.nonzero(c)[0][0])  # exact roots at the origin
    work = _prescaled(c[m0:])[0]
    found = np.zeros(d_eff, dtype=np.complex128)
    if len(work) > 1:
        w = work / work[-1]
        solve = _companion_roots if len(w) - 1 <= _EIGVALS_MAX_DEGREE else _aberth
        found[m0:] = solve(w)
    return RootSet(found, c)


def root_array(p: AlgebraicPoly) -> np.ndarray:
    """The roots of p as a complex array: the generator's ``known_roots``
    when they cover the effective degree, else ``roots(p).roots``."""
    if p.known_roots is not None and len(p.known_roots) == p.effective_degree:
        return np.asarray(p.known_roots, dtype=np.complex128)
    return roots(p).roots


_GENERATE_KINDS = (
    "gaussian-random",
    "unimodular-random",
    "extremal-exp",
    "lax-extremal",
    "roots-outside",
)


def generate(kind: str, n: int, seed: int = 0, rho: float | None = None):
    """Deterministic structured/random polynomial families. Random kinds
    draw from np.random.default_rng(seed), so seed is an integer or a
    Generator, which is used as it is.

    kinds:
      gaussian-random   TrigPoly with standard complex gaussian coefficients
      unimodular-random AlgebraicPoly with |a_k| = 1
      extremal-exp      TrigPoly e^{inx}
      lax-extremal      AlgebraicPoly ((z + rho)/(1 + rho))^n, requires rho >= 1
      roots-outside     AlgebraicPoly with all roots of modulus >= rho
    """
    if n < 0:
        raise InvalidParam("degree must be nonnegative")
    rng = np.random.default_rng(seed)
    if kind == "gaussian-random":
        re = rng.standard_normal(2 * n + 1)
        im = rng.standard_normal(2 * n + 1)
        return TrigPoly((re + 1j * im) / np.sqrt(2.0))
    if kind == "unimodular-random":
        return AlgebraicPoly(np.exp(2j * np.pi * rng.random(n + 1)))
    if kind == "extremal-exp":
        c = np.zeros(2 * n + 1, dtype=np.complex128)
        c[-1] = 1.0
        return TrigPoly(c)
    if kind == "lax-extremal":
        if rho is None or rho < 1.0:
            raise InvalidParam("lax-extremal requires rho >= 1")
        return from_roots([-rho] * n, leading=(1.0 + rho) ** (-n))
    if kind == "roots-outside":
        if rho is None or rho <= 0.0:
            raise InvalidParam("roots-outside requires rho > 0")
        moduli = rho * (1.0 + rng.random(n))
        angles = _TWO_PI * rng.random(n)
        lead = np.exp(2j * np.pi * rng.random()) * (0.5 + rng.random())
        return from_roots(moduli * np.exp(1j * angles), leading=lead)
    raise InvalidParam(f"unknown generator kind {kind!r}; choices: {_GENERATE_KINDS}")


# ---------------------------------------------------------------------------
# JSON interchange
#
# {"type": "alg"|"trig", "degree": n, "coeffs": [[re, im], ...]} with coeffs
# ordered a_0..a_n (alg) or a_{-n}..a_n (trig); exponential sums use
# {"type": "expsum", "bandwidth": lam, "terms": [[re, im, freq], ...]}.
# ---------------------------------------------------------------------------


def poly_to_json(p) -> dict:
    if isinstance(p, AlgebraicPoly):
        kind, deg = "alg", p.degree
    elif isinstance(p, TrigPoly):
        kind, deg = "trig", p.degree
    else:
        raise ParseError(f"cannot serialize object of type {type(p).__name__}")
    return {
        "type": kind,
        "degree": deg,
        "coeffs": p.coeffs.view(np.float64).reshape(-1, 2).tolist(),
    }


def _pairs_to_complex(pairs) -> np.ndarray:
    try:
        arr = np.asarray([[float(re), float(im)] for re, im in pairs], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"coefficients must be [re, im] pairs: {exc}") from exc
    return arr.reshape(-1, 2).view(np.complex128)[:, 0]


def poly_from_json(obj: dict):
    """Parse the polynomial interchange format, rejecting length mismatches
    and (through the constructors) non-finite numbers."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ParseError("polynomial JSON must be an object with a 'type' field")
    kind = obj["type"]
    if kind == "expsum":
        return expsum_from_json(obj)
    try:
        degree = int(obj["degree"])
        coeffs = _pairs_to_complex(obj["coeffs"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad polynomial JSON: {exc}") from exc
    if degree < 0:
        raise ParseError("degree must be nonnegative")
    if kind == "alg":
        cls, need, rule = AlgebraicPoly, degree + 1, "degree+1"
    elif kind == "trig":
        cls, need, rule = TrigPoly, 2 * degree + 1, "2*degree+1"
    else:
        raise ParseError(f"unknown polynomial type {kind!r}")
    if len(coeffs) != need:
        raise ParseError(
            f"{kind} coeffs length {len(coeffs)} does not match degree {degree} (need {rule})"
        )
    try:
        return cls(coeffs)
    except InvalidParam as exc:
        raise ParseError(str(exc)) from exc


def expsum_from_json(obj: dict) -> ExponentialSum:
    try:
        terms = obj["terms"]
        amps = np.asarray([complex(t[0], t[1]) for t in terms])
        freqs = np.asarray([float(t[2]) for t in terms])
        bw = obj.get("bandwidth")
        bw = None if bw is None else float(bw)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"bad expsum JSON: {exc}") from exc
    try:
        return ExponentialSum(amps, freqs, bw)
    except InvalidParam as exc:
        raise ParseError(str(exc)) from exc


def _read_json(path):
    """The JSON value in the file at path; ParseError naming the file if it is not JSON."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from exc


def load_poly_file(path):
    """Load a polynomial (or exponential sum) from a JSON file."""
    return poly_from_json(_read_json(path))
