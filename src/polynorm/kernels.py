"""Reproducing-kernel integral representations of derivatives, evaluated by
exact discrete quadrature, plus the embedding-constant formulas they yield.

Every integrand below is a Laurent trigonometric polynomial of total degree
at most 3n + 2 in the circle variable, so the uniform N-point rule with
N >= 4n + 8 integrates it exactly by discrete orthogonality. Doubling N must
therefore leave the values unchanged to rounding.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParam
from .poly import AlgebraicPoly, TrigPoly, _horner

_BOUNDARY_TOL = 1e-12


def dirichlet(n: int, z):
    """D_n(z) = sum_{k=0}^{n-1} z^k (n terms), by Horner; vectorized in z."""
    if n < 1:
        raise InvalidParam("dirichlet kernel needs n >= 1")
    out = _horner(np.ones(n), np.asarray(z, dtype=np.complex128))
    return complex(out) if np.isscalar(z) else out


def grid_size(n: int) -> int:
    """Smallest rule the representations below use for degree parameter n."""
    return 4 * n + 8


def _kernel_mean(p, xi: complex, n: int | None, grid: int | None, kernel) -> complex:
    """The mean of p(u) * conj(kernel(u, D_n(conj(xi) u))) over the N-point
    rule: n defaults to max(deg p, 1) and may not be smaller, N defaults to
    the 4n+8 exactness floor and may not drop below it."""
    if n is None:
        n = max(p.degree, 1)
    if n < max(p.degree, 1):
        raise InvalidParam(f"kernel degree parameter {n} below polynomial degree {p.degree}")
    N = grid_size(n) if grid is None else grid
    if N < grid_size(n):
        raise InvalidParam(f"grid {N} below the exactness floor {grid_size(n)}")
    u = np.exp(2j * np.pi * np.arange(N) / N)
    vals = p.values_on_grid(N) * np.conj(kernel(u, dirichlet(n, np.conj(xi) * u)))
    return complex(vals.mean())


def deriv_via_kernel(p: AlgebraicPoly, xi: complex, n: int | None = None,
                     grid: int | None = None) -> complex:
    """P'(xi) = integral of P(u) * conj(u * D_n(conj(xi) u)^2) dm(u), |xi| <= 1."""
    xi = complex(xi)
    if abs(xi) > 1.0 + _BOUNDARY_TOL:
        raise InvalidParam("the first-derivative representation needs |xi| <= 1")
    return _kernel_mean(p, xi, n, grid, lambda u, d: u * d * d)


def second_deriv_via_kernel(p: AlgebraicPoly, xi: complex, n: int | None = None,
                            grid: int | None = None) -> complex:
    """P''(xi) = 2 * integral of P(u) * conj(u^2 * D_n(conj(xi) u)^3) dm(u)."""
    xi = complex(xi)
    if abs(xi) > 1.0 + _BOUNDARY_TOL:
        raise InvalidParam("the second-derivative representation needs |xi| <= 1")
    return 2.0 * _kernel_mean(p, xi, n, grid, lambda u, d: u * u * d * d * d)


def trig_deriv_via_kernel(t: TrigPoly, xi: complex, n: int | None = None,
                          grid: int | None = None) -> complex:
    """The z-derivative sum k a_k xi^(k-1) of a trig polynomial, |xi| = 1,
    as the inner product against the two-sided kernel
    K_xi(u) = u D_n(conj(xi) u)^2 - xi^2 conj(u) conj(D_n(conj(xi) u)^2)."""
    xi = complex(xi)
    if abs(abs(xi) - 1.0) > _BOUNDARY_TOL:
        raise InvalidParam("the trig kernel is defined for unimodular xi only")
    return _kernel_mean(t, xi, n, grid,
                        lambda u, d: u * d**2 - xi * xi * np.conj(u) * np.conj(d**2))


def wiener_bound_constant(n: int) -> float:
    """sqrt(n+1): the Wiener-norm embedding constant at degree n."""
    if n < 0:
        raise InvalidParam("degree must be nonnegative")
    return math.sqrt(n + 1.0)


def besov_inf1_bound_constant(n: int, start_index: int = 0) -> float:
    """sum_{k=start_index}^{n-1} 1/(2k+1); the radial-sup embedding constant.

    The stated constant starts the sum at k = 0 (its derivation begins at the
    constant term); start_index = 1 surfaces the alternate normalization that
    drops the first term, for side-by-side reporting.
    """
    if n < 0:
        raise InvalidParam("degree must be nonnegative")
    return float(sum(1.0 / (2 * k + 1) for k in range(start_index, n)))


def besov_111_terms(n: int) -> np.ndarray:
    """The n terms gamma(k+3/2)^2 / (k! (k+1)!) via the stable recurrence
    term_{k+1} = term_k * (k+3/2)^2 / ((k+1)(k+2)), term_0 = pi/4."""
    if n < 0:
        raise InvalidParam("degree must be nonnegative")
    out = np.empty(n, dtype=np.float64)
    term = math.pi / 4.0
    for k in range(n):
        out[k] = term
        term *= (k + 1.5) ** 2 / ((k + 1.0) * (k + 2.0))
    return out


def besov_111_bound_constant(n: int) -> float:
    """(8/pi) * sum_{k=0}^{n-1} gamma(k+3/2)^2/(k!(k+1)!); strictly below (8/pi) n."""
    return float((8.0 / math.pi) * besov_111_terms(n).sum())


def bergman_profile(n: int, u: complex) -> AlgebraicPoly:
    """The degree n-1 polynomial w -> sum_{k<n} (gamma(k+3/2)/k!) u^k w^k.

    Its squared Bergman norm (normalized-area L^2 on the disk) equals
    sum_{k<n} gamma(k+3/2)^2/(k!(k+1)!) for unimodular u, which cross-checks
    the disk quadrature against besov_111_terms.
    """
    if n < 1:
        raise InvalidParam("n >= 1 required")
    coeffs = np.empty(n, dtype=np.complex128)
    s = math.sqrt(math.pi) / 2.0  # gamma(3/2)
    uu = complex(u)
    upow = 1.0 + 0j
    for k in range(n):
        coeffs[k] = s * upow
        s *= (k + 1.5) / (k + 1.0)
        upow *= uu
    return AlgebraicPoly(coeffs)
