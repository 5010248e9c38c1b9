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
from .poly import AlgebraicPoly, TrigPoly, _grid_values, _require_integer

_BOUNDARY_TOL = 1e-12


def dirichlet(n: int, z):
    """D_n(z) = sum_{k=0}^{n-1} z^k (n terms): AlgebraicPoly(np.ones(n))(z),
    so a scalar z gives a complex and an array of any shape its own shape."""
    _require_integer(n, 1, "degree")
    return AlgebraicPoly(np.ones(n))(z)


def grid_size(n: int) -> int:
    """Smallest rule the representations below use for degree parameter n."""
    _require_integer(n, 0, "degree")
    return 4 * n + 8


def _kernel_mean(p, xi: complex, grid: int | None, kernel) -> complex:
    """The N-point mean of p(u) conj(kernel(u, D_n(conj(xi) u))), n = max(deg p, 1),
    where N defaults to the 4n+8 exactness floor and may not drop below it."""
    n = max(p.degree, 1)
    N = grid_size(n) if grid is None else grid
    _require_integer(N, grid_size(n), "grid (the exactness floor 4n+8)")
    u = np.exp(2j * np.pi * np.arange(N) / N)
    vals = p.values_on_grid(N) * np.conj(kernel(u, _dirichlet_on_grid(n, xi, N)))
    return complex(vals.mean())


def _dirichlet_on_grid(n: int, xi: complex, grid: int) -> np.ndarray:
    """D_n(conj(xi) u) at the grid points u = e^{2 pi i t/grid}: the grid
    values of the coefficients conj(xi)^j, j < n, by one _grid_values call
    (a product with a cached DFT block up to poly._DFT_MAX_WIDTH
    coefficients, an FFT above)."""
    powers = np.ones(n, dtype=np.complex128)
    np.multiply.accumulate(np.full(n - 1, np.conj(xi)), out=powers[1:])
    return _grid_values(powers, 0, grid)


def deriv_via_kernel(p: AlgebraicPoly, xi: complex, grid: int | None = None) -> complex:
    """P'(xi) = integral of P(u) conj(u D_n(conj(xi) u)^2) dm(u), n = max(deg P, 1), |xi| <= 1."""
    xi = complex(xi)
    if abs(xi) > 1.0 + _BOUNDARY_TOL:
        raise InvalidParam("the first-derivative representation needs |xi| <= 1")
    return _kernel_mean(p, xi, grid, lambda u, d: u * d * d)


def second_deriv_via_kernel(p: AlgebraicPoly, xi: complex, grid: int | None = None) -> complex:
    """P''(xi) = 2 * integral of P(u) * conj(u^2 * D_n(conj(xi) u)^3) dm(u),
    |xi| <= 1, with n = max(deg P, 1)."""
    xi = complex(xi)
    if abs(xi) > 1.0 + _BOUNDARY_TOL:
        raise InvalidParam("the second-derivative representation needs |xi| <= 1")
    return 2.0 * _kernel_mean(p, xi, grid, lambda u, d: u * u * d * d * d)


def trig_deriv_via_kernel(t: TrigPoly, xi: complex, grid: int | None = None) -> complex:
    """The z-derivative sum k a_k xi^(k-1) of a trig polynomial, |xi| = 1, as
    the inner product against the two-sided kernel, n = max(deg T, 1),
    K_xi(u) = u D_n(conj(xi) u)^2 - xi^2 conj(u) conj(D_n(conj(xi) u)^2)."""
    xi = complex(xi)
    if abs(abs(xi) - 1.0) > _BOUNDARY_TOL:
        raise InvalidParam("the trig kernel is defined for unimodular xi only")
    return _kernel_mean(t, xi, grid,
                        lambda u, d: u * d**2 - xi * xi * np.conj(u) * np.conj(d**2))


def wiener_bound_constant(n: int) -> float:
    """sqrt(n+1): the Wiener-norm embedding constant at degree n."""
    _require_integer(n, 0, "degree")
    return math.sqrt(n + 1.0)


def besov_inf1_bound_constant(n: int, start_index: int = 0) -> float:
    """sum_{k=start_index}^{n-1} 1/(2k+1); the radial-sup embedding constant.

    The stated constant starts the sum at k = 0 (its derivation begins at the
    constant term); start_index = 1 surfaces the alternate normalization that
    drops the first term, for side-by-side reporting. start_index lies in
    0..n.
    """
    _require_integer(n, 0, "degree")
    _require_integer(start_index, 0, "start_index")
    if start_index > n:
        raise InvalidParam(f"start_index must be at most the degree {n}")
    return float(sum(1.0 / (2 * k + 1) for k in range(start_index, n)))


def besov_111_terms(n: int) -> np.ndarray:
    """The n terms gamma(k+3/2)^2 / (k! (k+1)!) via the stable recurrence
    term_{k+1} = term_k * (k+3/2)^2 / ((k+1)(k+2)), term_0 = pi/4."""
    _require_integer(n, 0, "degree")
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
    disk_mean(., 2), the closed form sum_k |c_k|^2/(k+1), against
    besov_111_terms; the disk quadrature itself is checked at power 1.
    """
    _require_integer(n, 1, "degree")
    coeffs = np.empty(n, dtype=np.complex128)
    s = math.sqrt(math.pi) / 2.0  # gamma(3/2)
    uu = complex(u)
    upow = 1.0 + 0j
    for k in range(n):
        coeffs[k] = s * upow
        s *= (k + 1.5) / (k + 1.0)
        upow *= uu
    return AlgebraicPoly(coeffs)
