"""Polynomial types and exact arithmetic on the unit circle.

Two coefficient conventions live side by side:

* ``AlgebraicPoly`` stores ``a_0 .. a_n`` for ``P(z) = sum a_k z^k``;
* ``TrigPoly`` stores ``a_{-n} .. a_n`` for ``T(x) = sum a_k exp(ikx)``.

The lift ``Q(z) = z^n T(z)`` identifies the two on ``|z| = 1``: it shares
the coefficient array of ``T`` read as an algebraic polynomial of degree 2n.

The declared degree (length of the coefficient vector) is the bound that
enters inequality constants; the effective degree tracks the actual data.

Root products and root solves each have one group form that the one-input
calls share: _root_products builds the coefficients of a block of root rows
with no BLAS call (from_roots is a block of one), and _root_sets solves a
group of polynomials with one stacked eigenvalue call per degree (roots is
a group of one). Each row or input gets the bits of its own call.
"""
from __future__ import annotations

import cmath
import json
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvalidParam, OutOfRange, ParseError, RootsNotConverged, ZeroPolynomial

_TWO_PI = 2.0 * np.pi

# Largest effective degree (after factoring out roots at the origin) whose
# roots come from companion-matrix eigenvalues; Aberth takes over above it.
# With one BLAS thread on a 2-core Xeon (median of three runs over ten random
# Gaussian polynomials, for three sets of ten at each d = 30..46), eigvals
# won every set up to d = 35 (0.31 / 0.43 ms at d = 30 / 35 against 0.40 /
# 0.45 ms for Aberth), the two were even at d = 36 / 37 (0.45 / 0.47 against
# 0.47 / 0.48 ms), and Aberth won every set from d = 38 on (0.46 / 0.48 /
# 0.52 ms against 0.51 / 0.55 / 0.76 ms at d = 38 / 40 / 46). Keep it above
# 32, the largest lift degree of the default sweep and the ladder.
_EIGVALS_MAX_DEGREE = 37


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


# Largest power table (points x coefficients) that _poly_values builds at
# once; a longer z is evaluated in chunks of at most this many entries.
_TABLE_ENTRIES = 2_000_000


def _poly_values(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] z^k at each point of a one-dimensional z, as
    ``_powers(z, m).T @ coeffs`` (m = len(coeffs)), in chunks of z whose
    tables stay within ``_TABLE_ENTRIES``.

    A two-dimensional ``coeffs`` is a block of columns, one polynomial each,
    all evaluated from the same powers of z; the result then has a trailing
    axis with one entry per column. The one-chunk case returns the product
    itself, with no copy: Aberth's Newton step calls it once per sweep, at
    every moving root.
    """
    m = len(coeffs)
    if z.size * m <= _TABLE_ENTRIES:
        return _powers(z, m).T @ coeffs
    step = max(_TABLE_ENTRIES // m, 1)
    return np.concatenate([_powers(z[i : i + step], m).T @ coeffs
                           for i in range(0, z.size, step)])


# Widest row that _grid_values evaluates by one matrix product with a DFT
# block; wider rows take the FFT. With one BLAS thread on a 2-core Xeon
# (medians of 9, ns per grid point of 16 (n + 1) points, FFT against
# product), 64 rows: width 15 on 240 points 5.0 against 2.1, 33 on 272 6.9
# against 3.4, 41 on 336 4.8 against 4.0, 49 on 400 5.0 against 4.7, 65 on
# 528 5.3 against 6.1, 257 on 2064 11.1 against 23.4; two rows: 15 on 240
# 22.4 against 8.9, 41 on 336 18.8 against 15.6, 49 on 400 17.1 against
# 17.2; a lone row (beside a zero row): 33 on 272 45.6 against 47.9, 41 on
# 336 33.9 against 42.8. Every row of the default sweep, the ladder and
# the embedding workload is at most 33 wide.
_DFT_MAX_WIDTH = 40
# Largest DFT block (width x grid entries, 1 MB) _grid_values builds; a
# longer grid takes the FFT, so the cached blocks stay within 256 MB.
_DFT_MAX_ENTRIES = 1 << 16


@lru_cache(maxsize=256)
def _dft_block(kmin: int, width: int, grid: int) -> np.ndarray:
    """E[j, t] = e^{2 pi i ((kmin + j) t mod grid)/grid}, j < width, t < grid,
    each entry one of the grid roots of unity; built once per shape and
    returned read-only, since every call shares it."""
    unity = np.exp(2j * np.pi * np.arange(grid) / grid)
    block = unity[np.multiply.outer(np.arange(kmin, kmin + width), np.arange(grid)) % grid]
    block.flags.writeable = False
    return block


def _grid_values(coeffs: np.ndarray, kmin: int, grid: int) -> np.ndarray:
    """Values of sum_j coeffs[..., j] e^{i(kmin+j)x} at x = 2*pi*t/grid,
    t = 0..grid-1, for every row of ``coeffs`` (leading axes are batch axes);
    requires grid >= coeffs.shape[-1] so the frequency residues mod grid stay
    distinct.

    Rows at most ``_DFT_MAX_WIDTH`` wide, whose block has at most
    ``_DFT_MAX_ENTRIES`` entries, are one matrix product of the rows, as a
    two-dimensional array, with the cached block (_dft_block); wider rows are
    one zero-padded inverse FFT. A lone row is multiplied beside a zero row:
    numpy sends a one-row product to gemv, whose rounding differs from gemm's,
    and each row must come out the same, bit for bit, whatever rows share
    its call.
    """
    m = coeffs.shape[-1]
    if grid < m:
        raise InvalidParam(f"grid {grid} too small for {m} coefficients")
    if m > _DFT_MAX_WIDTH or m * grid > _DFT_MAX_ENTRIES:
        if kmin % grid == 0:  # numpy pads each row itself: no grid-sized copy of the batch
            return np.fft.ifft(coeffs, grid, norm="forward")
        c = np.zeros(coeffs.shape[:-1] + (grid,), dtype=np.complex128)
        c[..., (np.arange(m) + kmin) % grid] = coeffs
        return np.fft.ifft(c, norm="forward")
    rows = np.ascontiguousarray(np.reshape(coeffs, (-1, m)), dtype=np.complex128)
    count = len(rows)
    if count == 1:
        rows = np.concatenate([rows, np.zeros_like(rows)])
    vals = rows @ _dft_block(kmin % grid, m, grid)
    return vals[:count].reshape(coeffs.shape[:-1] + (grid,))


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


def _in_range(values, what: str):
    """``values`` when every one is finite, else OutOfRange naming ``what``.
    Callers compute ``values`` under np.errstate, so no warning escapes."""
    if not np.isfinite(values).all():
        raise OutOfRange(f"{what} exceeds the floating-point range")
    return values


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer (a bool is not)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _require_integer(value, least: int, what: str) -> None:
    """InvalidParam unless ``value`` is an integer >= least; a float or a
    bool is not an integer, a numpy integer is. Every integer parameter of
    the package (degrees, counts, budgets) goes through this one rule."""
    if not _is_integer(value) or value < least:
        raise InvalidParam(f"{what} must be an integer >= {least}")


def _require_real(value, what: str, ok, rule: str) -> None:
    """InvalidParam unless ``value`` is a finite real number for which
    ok(value) holds, ``rule`` saying so in words. A bool is not a real number
    (numpy's is no numbers.Real either), nor is a string; a numpy float or
    integer is. Every real parameter of the package (exponents, radii,
    tolerances, bandwidths) goes through this one rule."""
    try:
        good = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value) and ok(value))
    except OverflowError:  # an integer beyond the float range
        good = False
    if not good:
        raise InvalidParam(f"{what} must be a finite real number {rule}, got {value!r}")


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
        zv = np.asarray(z, dtype=np.complex128)
        _refuse_nonfinite("evaluation points", zv)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = _in_range(_poly_values(self.coeffs, zv.ravel()), "polynomial value")
        return complex(vals[0]) if scalar else vals.reshape(zv.shape)

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
        """P_r with P_r(z) = P(rz), i.e. coefficients a_k r^k, for a finite
        real or complex r (a bool is neither: InvalidParam); a coefficient
        beyond the float range raises OutOfRange (no warning escapes)."""
        r = _require_number(r, "the dilation radius")
        with np.errstate(over="ignore", invalid="ignore"):
            c = self.coeffs * (r ** np.arange(len(self.coeffs)))
        return AlgebraicPoly(_in_range(c, "a dilated coefficient"))

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
            return _in_range(float(np.abs(self.coeffs).sum()), "Wiener norm")


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
        xv = np.asarray(x, dtype=np.float64)
        _refuse_nonfinite("evaluation points", xv)
        xr = xv.ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            vals = _poly_values(self.coeffs, np.exp(1j * xr)) * np.exp(-1j * self.degree * xr)
        vals = _in_range(vals, "polynomial value")
        return complex(vals[0]) if scalar else vals.reshape(xv.shape)

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
        """T(. + a): coefficient k picks up the phase e^{ika}, for a finite
        real a."""
        _require_real(a, "the shift", lambda v: True, "(an angle in radians)")
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
        if self.bandwidth is not None:
            _require_real(self.bandwidth, "bandwidth", lambda b: b >= 0, ">= 0")
        bw = float(np.abs(f).max()) if self.bandwidth is None else float(self.bandwidth)
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
    """Order the roots of each row (the last axis) so successive partial
    products stay balanced; every row of a block is ordered at once.

    A row starts from its largest modulus, then repeatedly takes the root
    whose product of distances to the chosen ones is largest (tracked in
    logs; the first maximum on a tie). Plain left-to-right multiplication can
    lose all precision at degree beyond ~100; this ordering keeps the product
    ladder well conditioned. Row j of a row's log-distance table holds
    log|rts - rts[j]|, computed once. A root equal to a chosen one is at
    log-distance -inf, so once only such repeats are left, the row takes its
    first root not yet chosen. The tables and the chosen flags of all rows
    are indexed flat (row k's entry j at k * d + j).
    """
    d = rts.shape[-1]
    if d <= 2:
        return rts
    rows = rts.reshape(-1, d)
    base = np.arange(len(rows)) * d
    picked = np.zeros(rows.size, dtype=bool)
    chosen = picked.reshape(rows.shape)
    order = np.empty((d, len(rows)), dtype=np.intp)
    order[0] = np.argmax(np.abs(rows), axis=1)
    picked[base + order[0]] = True
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        table = np.log(np.abs(rows[:, None, :] - rows[:, :, None])).reshape(-1, d)
        logdist = table[base + order[0]]
        for i in range(1, d):
            np.putmask(logdist, chosen, -np.inf)
            nxt = logdist.argmax(axis=1)
            spent = picked[base + nxt]
            if spent.any():
                nxt[spent] = chosen[spent].argmin(axis=1)
            order[i] = nxt
            picked[base + nxt] = True
            logdist += table[base + nxt]
    return rows.ravel()[(base + order).T].reshape(rts.shape)


def _root_products(rows: np.ndarray, leads: np.ndarray) -> np.ndarray:
    """Coefficients of leads[k] * prod_j (z - rows[k, j]) for each row k of a
    (K, d) block of roots, as a (K, d + 1) array.

    Each row's roots are taken in Leja order (_leja_order), and the
    coefficients start from the leading one and take each root r by the
    recurrence c_i <- c_{i-1} - r c_i, in real arithmetic over the real and
    imaginary parts, elementwise over the whole block. So every coefficient
    is a sequence of exactly rounded real products and sums within its own
    row, with no BLAS call and no fused multiply-add: a row's bits depend
    neither on the rows beside it nor on the machine's BLAS kernel. An
    overflow leaves inf or nan, with no warning.
    """
    count, d = rows.shape
    ordered = _leja_order(rows).T
    re = ordered.real[:, :, None]
    # -Im r multiplies the imaginary part into the real one, +Im r the reverse
    im = np.stack([-ordered.imag, ordered.imag], axis=1)[..., None]
    # c[0] real and c[1] imaginary parts; column 0 stays zero (c_{-1})
    c = np.zeros((2, count, d + 2))
    c[0, :, 1], c[1, :, 1] = leads.real, leads.imag
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(d):
            a = c[:, :, 1 : j + 3]
            t = re[j] * a
            t += im[j] * a[::-1]
            np.subtract(c[:, :, : j + 2], t, out=a)
    out = np.empty((count, d + 1), dtype=np.complex128)
    out.real, out.imag = c[0, :, 1:], c[1, :, 1:]
    return out


def _coeffs_from_roots(rts, leading: complex) -> np.ndarray:
    """_root_products of one row."""
    return _root_products(np.asarray(rts, dtype=np.complex128).reshape(1, -1),
                          np.array([leading], dtype=np.complex128))[0]


def _require_number(value, what: str) -> complex:
    """``value`` as a complex, or InvalidParam unless it is a finite real or
    complex number (a bool is neither, nor is a string)."""
    try:
        good = (isinstance(value, numbers.Number) and not isinstance(value, bool)
                and cmath.isfinite(value))
    except OverflowError:  # an integer beyond the float range
        good = False
    if not good:
        raise InvalidParam(f"{what} must be a finite number, got {value!r}")
    return complex(value)


def _from_root_rows(rows: np.ndarray, leads: np.ndarray) -> list:
    """The AlgebraicPoly with root provenance of each row of a (K, d) block
    of finite roots and its leading coefficient, from one _root_products
    call; a coefficient beyond the float range raises OutOfRange."""
    coeffs = _in_range(_root_products(rows, leads), "a coefficient of the root product")
    return [AlgebraicPoly(c, known_roots=tuple(r.tolist())) for c, r in zip(coeffs, rows)]


def from_roots(rts, leading: complex = 1.0) -> AlgebraicPoly:
    """Monomial coefficients of leading * prod (z - z_j), with root provenance.

    Every root and ``leading`` must be a finite number (InvalidParam); a
    coefficient beyond the float range raises OutOfRange (no warning
    escapes)."""
    row = np.array([_require_number(r, "every root") for r in rts], dtype=np.complex128)
    lead = np.array([_require_number(leading, "leading")])
    return _from_root_rows(row.reshape(1, -1), lead)[0]


def _newton_blocks(w: np.ndarray) -> np.ndarray:
    """The (d+1) x 4 coefficient block [p, p', q, d q - u q'] that
    ``_newton_corrections`` evaluates; ``_aberth`` builds it once.

    For monic p with coefficients ``w``, p' is padded with a zero; with
    u = 1/z and q(u) = p(z)/z^d, coefficient k of q is w[d - k] and that of
    d q - u q' is (d - k) q_k.
    """
    d = len(w) - 1
    k = np.arange(d + 1)
    block = np.zeros((d + 1, 4), dtype=np.complex128)
    block[:, 0] = w
    block[:-1, 1] = k[1:] * w[1:]
    block[:, 2] = w[::-1]
    block[:, 3] = (d - k) * w[::-1]
    return block


def _newton_corrections(block: np.ndarray, z: np.ndarray) -> np.ndarray:
    """p(z)/p'(z) for monic p, overflow-safe on both sides of the unit circle.

    ``block`` is the ``_newton_blocks`` block of p. Direct evaluation is
    bounded for |z| <= 1; outside, p(z) ~ |z|^d overflows at high degree, so
    with u = 1/z the correction is computed as z q(u) / (d q(u) - u q'(u)),
    which only ever evaluates inside the disk. One power table of w (w = z
    inside, 1/z outside) times the whole block gives every point all four
    columns, and each point takes the pair for its side.
    """
    inside = np.abs(z) <= 1.0
    w = np.divide(1.0, z, out=z.copy(), where=~inside)
    v = _poly_values(block, w)
    num = np.where(inside, v[:, 0], z * v[:, 2])
    den = np.where(inside, v[:, 1], v[:, 3])
    return num / np.where(den == 0, 1e-300, den)


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


# Rows of the Aberth sum formed at once: at d = 256 the 128 x d buffer
# (0.5 MB) and Newton's power table (1 MB) fit a 2 MB L2 cache together.
_ABERTH_ROWS = 128
# Aberth's relative correction tolerance and its sweep budget.
_ABERTH_TOL = 1e-14
_ABERTH_SWEEPS = 200


def _aberth(w: np.ndarray) -> np.ndarray:
    """Simultaneous (Aberth-Ehrlich) iteration for all roots of a monic polynomial.

    ``w`` holds coefficients a_0..a_{d-1}, 1. Starts on slightly perturbed
    circles at the Newton-polygon modulus estimates. With tol =
    ``_ABERTH_TOL``, a sweep steps only the roots whose last correction
    exceeded tol * (1 + max|z|): their Newton corrections come from one
    power table (``_newton_corrections``), and the Aberth sum of each of
    them still runs over every current root, in blocks of at most
    ``_ABERTH_ROWS`` rows. Once no root is left moving,
    the next sweep steps every root, and the loop stops only when that
    sweep's largest correction is below the same bound (any root that fails
    it keeps stepping), so the stop rule is the all-roots one: the largest
    simultaneous correction is below tol * (1 + max|z|). A polynomial that
    has not passed it after ``_ABERTH_SWEEPS`` sweeps raises
    RootsNotConverged.
    """
    z = _initial_points(w)
    block = _newton_blocks(w)
    moving = np.ones(len(z), dtype=bool)
    rows = min(len(z), _ABERTH_ROWS)
    buf = np.empty((rows, len(z)), dtype=np.complex128)
    for _ in range(_ABERTH_SWEEPS):
        every = moving.all()
        idx = np.nonzero(moving)[0]
        zs = z[idx]
        newton = _newton_corrections(block, zs)
        s = np.empty_like(zs)
        for i in range(0, len(idx), rows):
            blk = idx[i : i + rows]
            diff = np.subtract(zs[i : i + rows, None], z, out=buf[: len(blk)])
            diff[np.arange(len(blk)), blk] = np.inf
            s[i : i + rows] = np.reciprocal(diff, out=diff).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = newton / (1.0 - newton * s)
        corr = np.where(np.isfinite(corr), corr, newton)
        z[idx] = zs - corr
        step = np.abs(corr)
        bound = _ABERTH_TOL * (1.0 + np.abs(z).max())
        if every and step.max() <= bound:
            return z
        moving[idx] = step > bound
        if not moving.any():
            moving[:] = True
    raise RootsNotConverged(f"Aberth iteration at degree {len(z)} did not converge in "
                            f"{_ABERTH_SWEEPS} sweeps (last largest correction {step.max():.2e})")


def _root_sets(polys) -> list:
    """roots(p) of each polynomial of ``polys``, in order.

    The companion matrices of the inputs that share an eigenvalue-path degree
    (up to ``_EIGVALS_MAX_DEGREE``) are stacked and solved by one
    np.linalg.eigvals call, which runs LAPACK on each matrix of the stack as
    on a lone one, so every input gets the bits its own call would; the
    inputs above that degree take Aberth one at a time. The eigenvalue route
    is backward stable for the coefficients (Edelman & Murakami, Math. Comp.
    1995); LAPACK balances each matrix first.
    """
    sets, stacks = [], {}
    for p in polys:
        nonzero = np.flatnonzero(p.coeffs)
        if not nonzero.size:
            raise ZeroPolynomial("the zero polynomial has no root set")
        m0, d_eff = nonzero[0], nonzero[-1]  # m0 exact roots at the origin
        c = p.coeffs[: d_eff + 1]
        found = np.zeros(d_eff, dtype=np.complex128)
        if d_eff - m0 > _EIGVALS_MAX_DEGREE:
            work = _prescaled(c[m0:])[0]
            found[m0:] = _aberth(work / work[-1])
        elif d_eff > m0:
            stacks.setdefault(d_eff - m0, []).append((found[m0:], c[m0:]))
        sets.append((found, c))
    for d, stack in stacks.items():
        work = _prescaled(np.array([c for _, c in stack]), axis=1)[0]
        comp = np.zeros((len(stack), d, d), dtype=np.complex128)
        comp[:, 1:, :-1] = np.eye(d - 1)
        comp[:, :, -1] = -(work[:, :-1] / work[:, -1:])
        for (out, _), vals in zip(stack, np.linalg.eigvals(comp)):
            out[:] = vals
    return [RootSet(found, c) for found, c in sets]


def roots(p: AlgebraicPoly) -> RootSet:
    """All effective-degree roots with multiplicity: _root_sets of one input.

    Exact zero coefficients at the bottom are factored out as exact roots at
    the origin, and the rest are scaled by a power of two (_prescaled) before
    they are made monic. The remaining roots are companion-matrix eigenvalues
    up to degree ``_EIGVALS_MAX_DEGREE`` and Aberth iterates above it. The
    rebuild residual is left to ``RootSet.residual``, computed only when read.
    Raises ZeroPolynomial on the zero polynomial, and RootsNotConverged when
    Aberth runs out of sweeps; a nonzero constant yields an empty root set.
    """
    return _root_sets([p])[0]


def _known_roots(p: AlgebraicPoly):
    """The generator's ``known_roots`` of p as a complex array when they
    cover the effective degree, else None."""
    if p.known_roots is not None and len(p.known_roots) == p.effective_degree:
        return np.asarray(p.known_roots, dtype=np.complex128)
    return None


def root_array(p: AlgebraicPoly) -> np.ndarray:
    """The roots of p as a complex array: the generator's ``known_roots``
    when they cover the effective degree, else ``roots(p).roots``."""
    known = _known_roots(p)
    return roots(p).roots if known is None else known


def _root_arrays(polys) -> list:
    """root_array of each polynomial of ``polys``: known roots where they
    cover, and the others from one _root_sets call."""
    known = [_known_roots(p) for p in polys]
    solved = iter(_root_sets([p for p, k in zip(polys, known) if k is None]))
    return [next(solved).roots if k is None else k for k in known]


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
    _require_integer(n, 0, "degree")
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
        _require_real(rho, "lax-extremal's rho", lambda r: r >= 1, ">= 1")
        return _lax_extremal(n, [rho])[0]
    if kind == "roots-outside":
        _require_real(rho, "roots-outside's rho", lambda r: r > 0, "> 0")
        return _roots_outside(n, [rng], [rho])[0]
    raise InvalidParam(f"unknown generator kind {kind!r}; choices: {_GENERATE_KINDS}")


def _lax_extremal(n: int, rhos) -> list:
    """generate("lax-extremal", n, rho=rho) for each of ``rhos``, from one
    _from_root_rows call; a leading coefficient (1 + rho)^-n that underflows
    to zero raises OutOfRange."""
    leads = np.array([(1.0 + rho) ** (-n) for rho in rhos], dtype=np.complex128)
    if not leads.all():
        raise OutOfRange("lax-extremal's (1 + rho)^n exceeds the floating-point range")
    rows = np.multiply.outer(-np.asarray(rhos, dtype=np.float64), np.ones(n)).astype(np.complex128)
    return _from_root_rows(rows, leads)


def _roots_outside(n: int, rngs, rhos) -> list:
    """generate("roots-outside", n, seed=rng, rho=rho) for each pair of
    ``rngs`` and ``rhos``: each generator draws its roots and leading
    coefficient in generate's order, and one _from_root_rows call makes
    every product."""
    rows = np.empty((len(rngs), n), dtype=np.complex128)
    leads = np.empty(len(rngs), dtype=np.complex128)
    for k, (rng, rho) in enumerate(zip(rngs, rhos)):
        moduli = rho * (1.0 + rng.random(n))
        angles = _TWO_PI * rng.random(n)
        rows[k] = moduli * np.exp(1j * angles)
        leads[k] = np.exp(2j * np.pi * rng.random()) * (0.5 + rng.random())
    return _from_root_rows(rows, leads)


# ---------------------------------------------------------------------------
# JSON interchange
#
# {"type": "alg"|"trig", "degree": n, "coeffs": [[re, im], ...]} with coeffs
# ordered a_0..a_n (alg) or a_{-n}..a_n (trig); exponential sums use
# {"type": "expsum", "bandwidth": lam, "terms": [[re, im, freq], ...]}.
# The degree is an integer >= 0, and every row has exactly its width of
# numbers; anything else is a ParseError.
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


@contextmanager
def _parsing(what: str):
    """Every JSON parser runs in this block: a missing or malformed field,
    and a constructor's InvalidParam (a ValueError), leave it as a
    ParseError about ``what``; a ParseError passes as it is."""
    try:
        yield
    except ParseError:
        raise
    except KeyError as exc:
        raise ParseError(f"bad {what} JSON: missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad {what} JSON: {exc}") from exc


def _json_rows(rows, width: int):
    """(z, a) for a JSON list of rows of exactly ``width`` numbers each: a
    the (len(rows), width) float array, z its first two columns read as
    re + i*im through a view, with no arithmetic, so no number changes by a
    bit. ValueError on a row of another width (``_parsing`` reports it)."""
    a = np.asarray(rows, dtype=np.float64)
    if a.shape[1:] != (width,) and a.shape != (0,):
        raise ValueError(f"every row must be {width} numbers")
    a = a.reshape(-1, width)
    return a[:, :2].view(np.complex128)[:, 0], a


def poly_from_json(obj: dict):
    """Parse the polynomial interchange format, rejecting a degree that is
    not an integer >= 0, length mismatches and (through the constructors)
    non-finite numbers."""
    with _parsing("polynomial"):
        kind = obj["type"]
        if kind == "expsum":
            return expsum_from_json(obj)
        degree = obj["degree"]
        _require_integer(degree, 0, "degree")
        coeffs = _json_rows(obj["coeffs"], 2)[0]
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
        return cls(coeffs)


def expsum_from_json(obj: dict) -> ExponentialSum:
    with _parsing("expsum"):
        amps, terms = _json_rows(obj["terms"], 3)
        return ExponentialSum(amps, terms[:, 2], obj.get("bandwidth"))


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
