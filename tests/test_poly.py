import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polynorm import poly as poly_mod
from polynorm.errors import InvalidParam, OutOfRange, ParseError, ZeroPolynomial
from polynorm.kernels import dirichlet
from polynorm.norms import mahler_jensen
from polynorm.poly import (
    AlgebraicPoly,
    ExponentialSum,
    TrigPoly,
    _grid_values,
    from_roots,
    generate,
    poly_from_json,
    poly_to_json,
    roots,
)

from blas_kernels import KERNELS, under_kernel


def _rand_alg(rng, n):
    return AlgebraicPoly(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))


# ---------------------------------------------------------------- evaluation

def test_eval_alg_examples():
    assert AlgebraicPoly([1, 1, 1])(1.0) == pytest.approx(3.0)
    assert AlgebraicPoly([0, 0, 1])(1j) == pytest.approx(-1.0)
    assert AlgebraicPoly([-1, 2])(0.5) == pytest.approx(0.0)


def test_eval_trig_examples():
    assert TrigPoly([0, 0, 1])(np.pi / 2) == pytest.approx(1j)          # e^{ix}
    assert TrigPoly([1, 0, 1])(0.0) == pytest.approx(2.0)               # 2cos x
    assert TrigPoly([5.0])(1.234) == pytest.approx(5.0)                 # constant


def test_eval_trig_matches_lift_identity():
    rng = np.random.default_rng(0)
    for n in (1, 4, 9):
        t = TrigPoly(rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1))
        lift = t.to_algebraic()
        xs = rng.uniform(0, 2 * np.pi, 40)
        expect = lift(np.exp(1j * xs)) * np.exp(-1j * n * xs)
        assert np.abs(t(xs) - expect).max() < 1e-13 * (1 + np.abs(expect).max())


# ------------------------------------------------------------- differentiation

def test_derivative_alg_examples():
    assert np.allclose(AlgebraicPoly([0, 0, 1]).derivative().coeffs, [0, 2])
    d = AlgebraicPoly([7.0]).derivative()
    assert d.degree == 0 and d.coeffs[0] == 0
    assert np.allclose(AlgebraicPoly([1, 1, 0, 1]).derivative().coeffs, [1, 0, 3])


def test_derivative_trig_examples():
    n = 3
    t = generate("extremal-exp", n)
    assert np.allclose(t.derivative().coeffs[-1], 1j * n)
    two_cos = TrigPoly([1, 0, 1])
    assert np.allclose(two_cos.derivative().coeffs, [-1j, 0, 1j])  # -2 sin x
    assert TrigPoly([4.0]).derivative().is_zero()


def test_derivative_consistency_analytic():
    # |dT/dx| = |P'(e^{ix})| when T is the analytic embedding of P
    rng = np.random.default_rng(7)
    for n in (1, 5, 12):
        p = _rand_alg(rng, n)
        t = TrigPoly.from_algebraic(p)
        xs = rng.uniform(0, 2 * np.pi, 50)
        lhs = np.abs(t.derivative()(xs))
        rhs = np.abs(p.derivative()(np.exp(1j * xs)))
        assert np.abs(lhs - rhs).max() <= 1e-12 * (1 + rhs.max())


# ------------------------------------------------------------------ reciprocal

def test_reciprocal_examples():
    n = 5
    mono = np.zeros(n + 1)
    mono[-1] = 1.0
    assert np.allclose(AlgebraicPoly(mono).reciprocal().coeffs, [1] + [0] * n)
    rho = 1.7
    assert np.allclose(AlgebraicPoly([-rho, 1]).reciprocal().coeffs, [1, -rho])


def test_reciprocal_modulus_identity_on_circle():
    rng = np.random.default_rng(3)
    for trial in range(100):
        p = _rand_alg(rng, int(rng.integers(1, 12)))
        q = p.reciprocal()
        z = np.exp(2j * np.pi * rng.random(64))
        pv, qv = np.abs(p(z)), np.abs(q(z))
        assert np.abs(pv - qv).max() <= 1e-12 * (1 + pv.max())


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=12,
    )
)
def test_reciprocal_involution(coeffs):
    coeffs = coeffs[:-1] + [coeffs[-1] if coeffs[-1] != 0 else 1.0 + 0j]
    p = AlgebraicPoly(coeffs)
    back = p.reciprocal().reciprocal()
    assert np.array_equal(back.coeffs, p.coeffs)


# ----------------------------------------------------------------------- roots

def test_roots_examples():
    rs = roots(AlgebraicPoly([-1, 0, 1]))
    assert sorted(np.round(rs.roots.real, 9)) == [-1.0, 1.0]
    assert np.abs(rs.roots.imag).max() < 1e-9

    rs = roots(from_roots([2, 2]))
    assert np.abs(rs.roots - 2.0).max() < 1e-6  # double root: sqrt(eps) accuracy
    assert len(rs.roots) == 2

    rs = roots(AlgebraicPoly([1, 0, 0, 1]))  # z^3 + 1
    assert np.abs(rs.roots**3 + 1).max() < 1e-10


def test_roots_zero_polynomial_raises():
    with pytest.raises(ZeroPolynomial):
        roots(AlgebraicPoly([0.0, 0.0]))


def test_roots_origin_factoring():
    rs = roots(AlgebraicPoly([0, 0, 0, 2]))  # 2 z^3
    assert len(rs.roots) == 3 and np.abs(rs.roots).max() == 0.0


def test_roots_extreme_scales():
    # the coefficients are scaled by a power of two before the division by
    # the leading one, which overflowed for subnormal coefficients
    p = AlgebraicPoly([1e-320, 1e-321])
    rs = roots(p).roots
    assert len(rs) == 1 and abs(rs[0] + 10.0) <= 0.1
    assert math.isfinite(mahler_jensen(p)) and mahler_jensen(p) > 0.0
    rng = np.random.default_rng(29)
    for d in (5, 40):
        q = AlgebraicPoly(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1))
        base = roots(q).roots
        for k in (-1000, 1000):
            assert np.array_equal(roots(q * 2.0**k).roots, base)


def test_root_reconstruction_random():
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(2, 33))
        # well separated roots in an annulus
        mods = rng.uniform(0.3, 2.0, n)
        args = rng.uniform(0, 2 * np.pi, n)
        p = AlgebraicPoly(np.asarray(from_roots(mods * np.exp(1j * args)).coeffs))
        rs = roots(p)
        assert rs.residual <= 1e-8
        assert len(rs.roots) == n


@pytest.mark.parametrize("d", [poly_mod._EIGVALS_MAX_DEGREE, poly_mod._EIGVALS_MAX_DEGREE + 1])
def test_root_paths_agree_at_crossover(monkeypatch, d):
    p = _rand_alg(np.random.default_rng(d), d)
    calls = []
    aberth = poly_mod._aberth
    monkeypatch.setattr(poly_mod, "_aberth", lambda w: calls.append(1) or aberth(w))
    by_aberth = d > poly_mod._EIGVALS_MAX_DEGREE
    default = roots(p).roots
    assert len(calls) == by_aberth
    m_default = mahler_jensen(p)
    # the same input through the other path
    monkeypatch.setattr(poly_mod, "_EIGVALS_MAX_DEGREE", d if by_aberth else 0)
    calls.clear()
    other = roots(p).roots
    assert len(calls) == (not by_aberth)
    assert np.abs(np.sort(default) - np.sort(other)).max() <= 1e-10
    assert mahler_jensen(p) == pytest.approx(m_default, rel=1e-12)


def test_roots_rebuild_only_when_residual_read(monkeypatch):
    calls = []
    rebuild = poly_mod._coeffs_from_roots
    monkeypatch.setattr(poly_mod, "_coeffs_from_roots",
                        lambda rts, lead: calls.append(1) or rebuild(rts, lead))
    rs = roots(_rand_alg(np.random.default_rng(3), 12))
    assert calls == []
    assert rs.residual <= 1e-12
    assert rs.residual <= 1e-12
    assert calls == [1]


@pytest.mark.parametrize("n", [32, 64, 128])
def test_roots_residual_on_high_degree_lifts(n):
    lift = generate("gaussian-random", n, seed=n).to_algebraic()
    rs = roots(lift)
    assert len(rs.roots) == 2 * n
    assert rs.residual <= 1e-10


def _monic(p):
    # the w that roots() hands to its solver
    c = p.coeffs[: p.effective_degree + 1]
    return c / c[-1]


def _aberth_step(w, z):
    # one simultaneous Aberth correction of every root of monic w at z
    newton = poly_mod._newton_corrections(poly_mod._newton_blocks(w), z)
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, np.inf)
    return newton / (1.0 - newton * (1.0 / diff).sum(axis=1))


@pytest.mark.parametrize("d", [64, 256])
def test_newton_corrections_match_direct_evaluation(d):
    # points on both sides of the circle at once, then all inside, all
    # outside, all on |z| = 1 and a single point: each takes its own pair of
    # columns from the one table
    rng = np.random.default_rng(d)
    w = _monic(_rand_alg(rng, d))
    dw = np.arange(1, d + 1) * w[1:]
    angles = 2 * np.pi * rng.random(40)
    ring = {r: r * np.exp(1j * angles) for r in (0.3, 0.9, 1.0, 1.1, 1.4)}
    point_sets = [np.concatenate(list(ring.values())),
                  np.concatenate([ring[0.3], ring[0.9]]),
                  np.concatenate([ring[1.1], ring[1.4]]),
                  ring[1.0], ring[1.1][:1]]
    block = poly_mod._newton_blocks(w)
    P = np.polynomial.polynomial
    for z in point_sets:
        got = poly_mod._newton_corrections(block, z)
        want = P.polyval(z, w) / P.polyval(z, dw)
        assert got.shape == z.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("m", [1, 2, 3, 9, 257])
@pytest.mark.parametrize("r", [0.9, 1.0, 1.1])
def test_powers_match_sequential_products(m, r):
    # the doubling table against z^k built one factor at a time; the
    # squarings pass their roundings on, so allow about 450 units at k = 256
    z = r * np.exp(2j * np.pi * np.random.default_rng(m).random(64))
    want = np.empty((m, z.size), dtype=np.complex128)
    want[0] = 1.0
    for k in range(1, m):
        want[k] = want[k - 1] * z
    got = poly_mod._powers(z, m)
    assert got.shape == (m, z.size)
    assert np.all(np.abs(got - want) <= 1e-13 * r ** np.arange(m)[:, None])


@pytest.mark.parametrize("m", [5, 40, 257])
def test_poly_values_column_block_matches_each_column(m):
    # one power table serves both columns, from a short polynomial (m = 5)
    # to a degree-128 lift (m = 257)
    rng = np.random.default_rng(m)
    block = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
    z = 1.1 * np.exp(2j * np.pi * rng.random(30))
    got = poly_mod._poly_values(block, z)
    assert got.shape == (30, 2)
    for j in range(2):
        want = np.polynomial.polynomial.polyval(z, block[:, j])
        assert np.abs(got[:, j] - want).max() <= 1e-12 * np.abs(want).max()


def test_poly_values_in_chunks_past_the_table_cap():
    # 65 coefficients at 40 000 points make a table past the cap, so the
    # points are evaluated in chunks
    rng = np.random.default_rng(65)
    c = rng.standard_normal(65) + 1j * rng.standard_normal(65)
    z = rng.uniform(0.5, 1.0, 40_000) * np.exp(2j * np.pi * rng.random(40_000))
    assert z.size * len(c) > poly_mod._TABLE_ENTRIES
    got = poly_mod._poly_values(c, z)
    want = np.polynomial.polynomial.polyval(z, c)
    assert got.shape == z.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_grid_values_rows_match_one_row_calls_bit_for_bit():
    # every width of the product branch and the first of the FFT branch: a
    # row's values do not depend on the rows beside it, in a flat batch or
    # a (rows, offsets) one as _circle_means passes; a lone row is
    # multiplied beside a zero row, since numpy's gemv rounds a one-row
    # product differently from the gemm of a batch
    rng = np.random.default_rng(29)
    for m in range(1, poly_mod._DFT_MAX_WIDTH + 2):
        grid, kmin = 16 * (m + 1), -(m // 2)
        for count in (1, 2, 3, 7, 64, 65):
            c = rng.standard_normal((count, m)) + 1j * rng.standard_normal((count, m))
            batch = _grid_values(c, kmin, grid)
            assert batch.shape == (count, grid)
            for row, got in zip(c, batch):
                assert np.array_equal(got, _grid_values(row, kmin, grid)), (m, count)
            if count % 2 == 0:
                pairs = _grid_values(c.reshape(count // 2, 2, m), kmin, grid)
                assert np.array_equal(pairs.reshape(count, grid), batch), (m, count)


@pytest.mark.parametrize("grid", [8.0, True, np.float64(8.0)])
@pytest.mark.parametrize("coeffs", [[1, 2, 3], [5]])
def test_grid_values_refuse_a_grid_that_is_no_integer(grid, coeffs):
    # one integer rule for every grid: a float grid used to reach numpy as
    # an index (IndexError), and True passed as the grid 1
    for p in (AlgebraicPoly(coeffs), TrigPoly(coeffs)):
        with pytest.raises(InvalidParam, match="integer"):
            p.values_on_grid(grid)


def test_grid_values_branches_match_the_direct_sum():
    # the product (narrow rows, short grids) and the FFT (wide rows, or a
    # block past _DFT_MAX_ENTRIES) both give sum_j c_j e^{i(kmin+j)x} to
    # 1e-14 of sum |c_j|, against a sum of e^{2 pi i ((kmin+j) t mod grid)/grid}
    rng = np.random.default_rng(31)
    wide = poly_mod._DFT_MAX_WIDTH + 1
    for m, grid in ((1, 1), (1, 16), (2, 3), (9, 160), (17, 544), (wide - 1, wide - 1),
                    (wide - 1, 16 * wide), (wide, 16 * (wide + 1)), (65, 528), (129, 1040),
                    (5, poly_mod._DFT_MAX_ENTRIES // 5 + 1)):
        c = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
        for kmin in (0, -(m // 2), 7, -3 * grid - 1):
            k = kmin + np.arange(m)
            e = np.exp(2j * np.pi * (np.multiply.outer(np.arange(grid), k) % grid) / grid)
            want = (e[None] * c[:, None, :]).sum(axis=-1)
            got = _grid_values(c, kmin, grid)
            scale = np.abs(c).sum(axis=1)[:, None]
            assert np.all(np.abs(got - want) <= 1e-14 * scale), (m, grid, kmin)
    with pytest.raises(InvalidParam):
        _grid_values(np.ones(5), 0, 4)


def test_eval_of_an_array_keeps_its_shape_and_bits():
    # an 8 x 16 array of points gives an 8 x 16 result with the same bits as
    # the raveled points, and an empty array an empty result
    rng = np.random.default_rng(16)
    z = 1.05 * np.exp(2j * np.pi * rng.random((8, 16)))
    x = 2 * np.pi * rng.random((8, 16))
    t = TrigPoly(rng.standard_normal(257) + 1j * rng.standard_normal(257))
    for f, pts in [(_rand_alg(rng, 256), z), (t, x), (lambda u: dirichlet(65, u), z)]:
        got = f(pts)
        assert got.shape == (8, 16)
        assert np.array_equal(got, f(pts.ravel()).reshape(8, 16))
        for empty in (np.zeros(0), np.zeros((0, 3))):
            assert f(empty).shape == empty.shape


def _aberth_inputs():
    for n in (32, 64, 128):
        yield _monic(generate("gaussian-random", n, seed=n).to_algebraic())
    yield _monic(generate("unimodular-random", 100, seed=5))


@pytest.mark.parametrize("w", list(_aberth_inputs()), ids=["n32", "n64", "n128", "unimodular"])
def test_aberth_stops_only_when_every_root_has_converged(w):
    # the stop rule: one more simultaneous correction of all the roots is
    # below tol * (1 + max|z|), however few of them the last sweeps stepped
    z = poly_mod._aberth(w)
    assert np.abs(_aberth_step(w, z)).max() <= 1e-14 * (1.0 + np.abs(z).max())


def test_aberth_sweeps_within_budget_on_gaussian_lifts(monkeypatch):
    # README's 7-24 sweeps for Gaussian lifts of degree 64-256: the rounding
    # of the power table must not cost sweeps or accuracy
    sweeps = []
    newton = poly_mod._newton_corrections
    monkeypatch.setattr(poly_mod, "_newton_corrections",
                        lambda block, z: sweeps.append(1) or newton(block, z))
    for n in (32, 64, 128):
        for seed in range(20):
            sweeps.clear()
            rs = roots(generate("gaussian-random", n, seed=seed).to_algebraic())
            assert len(sweeps) <= 24, (n, seed)
            assert rs.residual <= 1e-10, (n, seed)


def test_aberth_builds_one_power_table_per_sweep(monkeypatch):
    # every sweep evaluates its moving roots, inside and outside the circle
    # alike, from a single table of powers
    w = _monic(generate("gaussian-random", 64, seed=64).to_algebraic())
    tables, sweeps, mixed = [], [], []
    powers, newton = poly_mod._powers, poly_mod._newton_corrections
    monkeypatch.setattr(poly_mod, "_powers", lambda z, m: tables.append(1) or powers(z, m))

    def counted(block, z):
        sweeps.append(1)
        mixed.append(0 < np.count_nonzero(np.abs(z) <= 1.0) < len(z))
        return newton(block, z)

    monkeypatch.setattr(poly_mod, "_newton_corrections", counted)
    poly_mod._aberth(w)
    assert any(mixed)
    assert len(tables) == len(sweeps)


def test_aberth_steps_only_moving_roots(monkeypatch):
    n = 128
    w = _monic(generate("gaussian-random", n, seed=n).to_algebraic())
    sizes = []
    newton = poly_mod._newton_corrections
    monkeypatch.setattr(poly_mod, "_newton_corrections",
                        lambda block, z: sizes.append(len(z)) or newton(block, z))
    poly_mod._aberth(w)
    assert sizes[0] == sizes[-1] == 2 * n
    assert sum(sizes) < 2 * n * len(sizes)


def _leja_order_by_rows(rts):
    # reference: one log-distance row per step instead of one table
    d = len(rts)
    if d <= 2:
        return rts
    picked = np.zeros(d, dtype=bool)
    order = [int(np.argmax(np.abs(rts)))]
    picked[order[0]] = True
    with np.errstate(divide="ignore"):
        logdist = np.log(np.abs(rts - rts[order[0]]))
        for _ in range(1, d):
            logdist[picked] = -np.inf
            order.append(int(np.argmax(logdist)))
            picked[order[-1]] = True
            logdist = logdist + np.log(np.abs(rts - rts[order[-1]]))
    return rts[order]


@pytest.mark.parametrize("d", [1, 3, 8, 17, 64])
def test_leja_order_matches_row_by_row_reference(d):
    rng = np.random.default_rng(d)
    rts = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    rts[: d // 3] = rts[0]  # repeated roots give -inf distances
    assert np.array_equal(poly_mod._leja_order(rts), _leja_order_by_rows(rts))


def test_leja_order_takes_every_root_once_beside_repeats():
    # once only repeats of chosen roots are left, every log-distance is -inf;
    # the order takes the first root not yet chosen, not the first index
    # again, so (z - 3)(z - 1)^2(z - 5) keeps both copies of 1
    assert poly_mod._leja_order(np.array([3, 1, 1, 5], dtype=complex)).tolist() == [5, 1, 3, 1]
    assert from_roots([3, 1, 1, 5]).coeffs.tolist() == [15, -38, 32, -10, 1]


def _root_rows(rng, count, d):
    """count rows of d roots at mixed moduli 0.1..10, each row with one root
    repeated three times (d >= 4) and one at the origin (d >= 6)."""
    rows = 10.0 ** rng.uniform(-1, 1, (count, d)) * np.exp(2j * np.pi * rng.random((count, d)))
    if d >= 4:
        rows[:, 1:3] = rows[:, :1]
    if d >= 6:
        rows[:, 5] = 0.0
    return rows


@pytest.mark.parametrize("d", [0, 1, 2, 17, 40])
def test_root_product_rows_match_one_row_calls_bit_for_bit(d):
    # a row of the block product is a sequence of its own exactly rounded real
    # operations, so it has the same bits in a block of any size
    rng = np.random.default_rng(100 + d)
    rows = _root_rows(rng, 13, d)
    leads = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    alone = np.array([poly_mod._coeffs_from_roots(r, lead) for r, lead in zip(rows, leads)])
    for count in (1, 2, 5, 13):
        block = poly_mod._root_products(rows[:count], leads[:count])
        assert np.array_equal(block.view(np.float64), alone[:count].view(np.float64))


@pytest.mark.parametrize("d", [16, 32])
def test_root_product_error_against_a_50_digit_product(d):
    # 30 seeded root sets at moduli 1.5..3: the largest coefficient error
    # over the largest coefficient stays within 1e-15
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(d)
    rows = rng.uniform(1.5, 3.0, (30, d)) * np.exp(2j * np.pi * rng.random((30, d)))
    block = poly_mod._root_products(rows, np.ones(30, dtype=complex))
    with mpmath.workdps(50):
        for row, got in zip(rows, block):
            ref = [mpmath.mpc(1)]
            for r in row:
                r = mpmath.mpc(complex(r))
                ref = [a - r * b for a, b in zip([0] + ref, ref + [0])]
            err = max(abs(mpmath.mpc(complex(g)) - c) for g, c in zip(got, ref))
            assert err <= 1e-15 * max(abs(c) for c in ref)


def _root_product_bits() -> list:
    """float.hex of from_roots, generate("roots-outside") and
    generate("lax-extremal") coefficients on seeded inputs at d = 1..16."""
    rng = np.random.default_rng(71)
    polys = [from_roots(_root_rows(rng, 1, d)[0], leading=complex(rng.standard_normal(), 1.0))
             for d in range(1, 17)]
    polys += [generate("roots-outside", d, seed=d, rho=rho) for d in range(1, 17)
              for rho in (1.0, 1.5)]
    polys += [generate("lax-extremal", d, rho=rho) for d in range(1, 17) for rho in (1.0, 2.0)]
    return [x.hex() for p in polys for x in p.coeffs.view(np.float64).tolist()]


@pytest.mark.parametrize("kernel", KERNELS)
def test_root_products_do_not_depend_on_the_blas_kernel(kernel):
    # the root product makes no BLAS call (np.convolve made one per root)
    assert under_kernel(kernel, "test_poly", "_root_product_bits") == _root_product_bits()


def _companion_eigvals(p):
    """The roots of p by one np.linalg.eigvals call on its own companion
    matrix, prepared as roots() prepares it: the reference for the stacked
    solve, on inputs of the eigenvalue path."""
    c = p.coeffs[: p.effective_degree + 1]
    m0 = int(np.nonzero(c)[0][0])
    w = poly_mod._prescaled(c[m0:])[0]
    w = w / w[-1]
    d = len(w) - 1
    if d == 0:
        return np.zeros(m0, dtype=complex)
    comp = np.zeros((d, d), dtype=np.complex128)
    comp[1:, :-1] = np.eye(d - 1)
    comp[:, -1] = -w[:-1]
    return np.concatenate([np.zeros(m0, dtype=complex), np.linalg.eigvals(comp)])


def test_root_sets_of_a_group_match_one_input_calls():
    # one stacked eigvals per eigenvalue-path degree gives each input the
    # bits of its own call; Aberth serves the degrees above the crossover,
    # and _root_arrays keeps the generators' known roots
    rng = np.random.default_rng(8)
    top = poly_mod._EIGVALS_MAX_DEGREE
    polys = [_rand_alg(rng, d) for d in (2, 4, 8, 16, 16, 16, 2, top, top, top + 1, top + 3)]
    polys += [AlgebraicPoly([0, 0, 1, 2j, 0, 0]), AlgebraicPoly([0, 0, 0, 3.0]),
              AlgebraicPoly([0, 1.5, -1, 0.5j]), AlgebraicPoly([2.0, 0, 0]),
              AlgebraicPoly(np.concatenate([[0.0], _rand_alg(rng, 16).coeffs])),
              from_roots([1.5, -2.0, 1j]), generate("roots-outside", 9, seed=3, rho=1.5)]
    group = poly_mod._root_sets(polys)
    for p, got in zip(polys, group):
        alone = roots(p)
        assert np.array_equal(got.roots, alone.roots)
        assert np.array_equal(got.coeffs, alone.coeffs)
        if 0 < (p.effective_degree or 0) <= top:
            assert np.array_equal(got.roots, _companion_eigvals(p))
    assert [len(s.roots) for s in group[-7:-2]] == [3, 3, 3, 0, 17]
    assert group[-6].roots.tolist() == [0, 0, 0]
    arrays = poly_mod._root_arrays(polys)
    for p, got in zip(polys, arrays):
        known = p.known_roots
        assert np.array_equal(got, roots(p).roots if known is None else np.array(known))
    assert arrays[-2].tolist() == [1.5, -2.0, 1j]
    with pytest.raises(ZeroPolynomial):
        poly_mod._root_sets([polys[0], AlgebraicPoly([0.0, 0.0])])


# -------------------------------------------------------------------- generate

def test_generate_extremal_exp():
    t = generate("extremal-exp", 3)
    assert isinstance(t, TrigPoly)
    expect = np.zeros(7)
    expect[-1] = 1.0
    assert np.array_equal(t.coeffs, expect.astype(complex))


def test_generate_lax_extremal():
    p = generate("lax-extremal", 2, rho=1.0)
    assert np.allclose(p.coeffs, [0.25, 0.5, 0.25])
    assert p.known_roots == (-1.0 + 0j, -1.0 + 0j)
    with pytest.raises(InvalidParam):
        generate("lax-extremal", 2, rho=0.5)


def test_generate_unimodular():
    p = generate("unimodular-random", 4, seed=9)
    assert np.abs(np.abs(p.coeffs) - 1).max() < 1e-14


def test_generate_roots_outside():
    p = generate("roots-outside", 6, seed=4, rho=1.5)
    assert min(abs(r) for r in p.known_roots) >= 1.5
    computed = roots(p)
    assert np.abs(computed.roots).min() >= 1.5 - 1e-8


def test_generate_deterministic():
    a = generate("gaussian-random", 5, seed=123)
    b = generate("gaussian-random", 5, seed=123)
    assert np.array_equal(a.coeffs, b.coeffs)


# ------------------------------------------------------------------------ JSON

def test_json_round_trip():
    rng = np.random.default_rng(2)
    p = _rand_alg(rng, 4)
    t = TrigPoly(rng.standard_normal(7) + 1j * rng.standard_normal(7))
    for poly in (p, t):
        back = poly_from_json(json.loads(json.dumps(poly_to_json(poly))))
        assert type(back) is type(poly)
        assert np.allclose(back.coeffs, poly.coeffs)


def test_json_pairs_equal_the_per_coefficient_floats():
    # the [re, im] pairs come from one float view of the coefficients; they
    # must be the floats, signed zeros and subnormals included, that
    # [float(c.real), float(c.imag)] per coefficient gives, so payloads stay
    # byte-identical
    rng = np.random.default_rng(4)
    special = [0.0, -0.0, 5e-324, -2.5e-320, 1e308, -1.7976931348623157e308, 1.0 / 3.0]
    coeffs = [complex(a, b) for a in special for b in special]
    for poly in (AlgebraicPoly(coeffs), AlgebraicPoly([-0.0]), TrigPoly(coeffs[:7]),
                 _rand_alg(rng, 6)):
        old = [[float(c.real), float(c.imag)] for c in poly.coeffs]
        got = poly_to_json(poly)["coeffs"]
        assert all(type(x) is float for pair in got for x in pair)
        assert json.dumps(got) == json.dumps(old)
        assert [[x.hex() for x in pair] for pair in got] == [[x.hex() for x in pair] for pair in old]


def test_equality_compares_arrays_by_value():
    rng = np.random.default_rng(3)
    p = _rand_alg(rng, 4)
    t = TrigPoly(rng.standard_normal(7) + 1j * rng.standard_normal(7))
    e = ExponentialSum([1.0, 2j, -0.5], [0.25, -1.0, 2.0], bandwidth=3.0)
    for obj in (p, t):
        assert poly_from_json(json.loads(json.dumps(poly_to_json(obj)))) == obj
    terms = [[a.real, a.imag, f] for a, f in zip(e.amplitudes, e.frequencies)]
    assert poly_from_json({"type": "expsum", "bandwidth": 3.0, "terms": terms}) == e
    assert roots(p) == roots(p)
    # a field that differs, a different type, or a different length is unequal
    assert p != AlgebraicPoly(p.coeffs + np.array([0, 0, 1e-15, 0, 0]))
    assert e != ExponentialSum(e.amplitudes, e.frequencies, bandwidth=4.0)
    assert t != p and AlgebraicPoly(t.coeffs) != t
    assert p != AlgebraicPoly(np.append(p.coeffs, 0.0))
    assert roots(p) != roots(AlgebraicPoly(p.coeffs[::-1]))
    # known_roots and the root set's coefficients take no part, as before
    assert from_roots([1.0, 2.0]) == AlgebraicPoly(from_roots([1.0, 2.0]).coeffs)
    for obj in (p, t, e, roots(p)):
        with pytest.raises(TypeError):
            hash(obj)


def test_json_rejects_length_mismatch():
    with pytest.raises(ParseError):
        poly_from_json({"type": "alg", "degree": 3, "coeffs": [[1, 0], [2, 0]]})
    with pytest.raises(ParseError):
        poly_from_json({"type": "trig", "degree": 1, "coeffs": [[1, 0], [2, 0]]})
    with pytest.raises(ParseError):
        poly_from_json({"type": "nope", "degree": 0, "coeffs": [[1, 0]]})
    for kind in ("alg", "trig"):
        with pytest.raises(ParseError):
            poly_from_json({"type": kind, "degree": 0, "coeffs": []})
    # the degree is an integer >= 0 (not a float, bool or string), and every
    # row has exactly its width: 2 numbers a coefficient, 3 an expsum term
    for degree in (1.7, True, "1", -1):
        with pytest.raises(ParseError):
            poly_from_json({"type": "alg", "degree": degree, "coeffs": [[1, 0], [2, 0]]})
    for coeffs in ([[1, 0], [2, 0, 5]], [[1, 0], [2]], [1, 2], [[[1, 0], [2, 0]]]):
        with pytest.raises(ParseError):
            poly_from_json({"type": "alg", "degree": 1, "coeffs": coeffs})
    for terms in ([[1, 0, 1.0, 99]], [[1, 0]], [[1, 0, 1.0], [1, 0]]):
        with pytest.raises(ParseError):
            poly_from_json({"type": "expsum", "terms": terms})
    p = poly_from_json({"type": "trig", "degree": np.int64(1),
                        "coeffs": [[1, 0], [2, -0.0], [0, 3]]})
    assert p == TrigPoly([1, 2, 3j]) and np.signbit(p.coeffs[1].imag)


def test_constructors_refuse_non_finite_numbers():
    bad = (np.inf, -np.inf, np.nan, complex(1.0, np.nan))
    for v in bad:
        with pytest.raises(InvalidParam):
            AlgebraicPoly([v, 1.0])
        with pytest.raises(InvalidParam):
            TrigPoly([1.0, v, 0.0])
        with pytest.raises(InvalidParam):
            ExponentialSum([1.0, v], [0.5, 1.0])
    for f in (np.inf, np.nan):
        with pytest.raises(InvalidParam):
            ExponentialSum([1.0, 2.0], [0.5, f])
        with pytest.raises(InvalidParam):
            ExponentialSum([1.0], [0.5], bandwidth=f)
    # an overflowing product is refused where it is built
    with pytest.raises(InvalidParam):
        with np.errstate(over="ignore"):
            AlgebraicPoly([1.0, 2.0, 3.0]) * 1.7e308
    # the parsers still raise ParseError
    for obj in ({"type": "alg", "degree": 1, "coeffs": [[float("inf"), 0], [1, 0]]},
                {"type": "trig", "degree": 0, "coeffs": [[0, float("nan")]]},
                {"type": "expsum", "terms": [[1, 0, float("inf")]]},
                {"type": "expsum", "bandwidth": float("nan"), "terms": [[1, 0, 0.5]]}):
        with pytest.raises(ParseError):
            poly_from_json(obj)


def test_expsum_validation():
    with pytest.raises(InvalidParam):
        ExponentialSum([1, 1], [2.0, 2.0])  # repeated frequency
    with pytest.raises(InvalidParam):
        ExponentialSum([1], [2.0], bandwidth=1.0)  # bandwidth too small
    f = ExponentialSum([1, 2j], [0.5, -1.25])
    assert f.bandwidth == pytest.approx(1.25)
    assert f(0.3) == pytest.approx(np.exp(0.15j) + 2j * np.exp(-0.375j))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_values_beyond_float_range_are_out_of_range():
    # the power table, at 41 coefficients and at 3, and the trig lift raise
    # OutOfRange with no warning, and one overflowing point of an array is
    # enough
    cases = [(AlgebraicPoly(np.ones(41)), 1e8), (AlgebraicPoly([1.0, 2.0, 3.0]), 1e200),
             (AlgebraicPoly(np.ones(41)), np.array([0.5, 1e8])),
             (TrigPoly([1e308, 1e308, 1e308]), 0.0)]
    for p, z in cases:
        with pytest.raises(OutOfRange):
            p(z)
    assert AlgebraicPoly(np.ones(41))(2.0) == 2.0**41 - 1
    assert TrigPoly([1e308, 0.0, 0.0])(0.0) == 1e308
    # a point that is not finite is refused, not evaluated to NaN
    for p, z in [(AlgebraicPoly(np.ones(41)), math.inf), (AlgebraicPoly([1.0, 2.0]), math.nan),
                 (TrigPoly([1.0, 2.0, 3.0]), np.array([0.0, math.inf]))]:
        with pytest.raises(InvalidParam):
            p(z)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dilate_beyond_float_range_is_out_of_range():
    # a finite polynomial whose dilated coefficients overflow raises
    # OutOfRange with no overflow warning (a radius that is not finite is
    # refused before: test_shift_and_dilate_refuse_bools_and_non_finite)
    p = AlgebraicPoly([1.0, 0.0, 1e300])
    assert p.dilate(1e3).coeffs[2] == 1e306
    for r in (1e5, -1e5, 1e5j):
        with pytest.raises(OutOfRange):
            p.dilate(r)


def test_shift_and_dilate_refuse_bools_and_non_finite():
    # a bool is not an angle or a radius (True would shift by 1 rad and
    # dilate by 1); a complex radius, which rotates, stays allowed
    t, p = TrigPoly([1.0, 2.0, 3j]), AlgebraicPoly([1.0, -2.0, 0.5j])
    for a in (True, False, np.True_, math.inf, math.nan, 1j, "0.5", None):
        with pytest.raises(InvalidParam):
            t.shift(a)
    for r in (True, False, np.True_, math.inf, -math.inf, math.nan, complex(1.0, math.inf),
              complex(math.nan, 0.0), 10**400, "2", None):
        with pytest.raises(InvalidParam):
            p.dilate(r)
    assert t.shift(np.float64(0.5)) == t.shift(0.5)
    assert p.dilate(1j).coeffs.tolist() == [1.0, -2j, -0.5j]
    assert p.dilate(np.int64(2)) == p.dilate(2.0)


@pytest.mark.parametrize("roots_, leading", [([True, 2.0], 1.0), (["1", 2], 1.0),
                                             ([1, 2], True), ([1.0, math.nan], 1.0),
                                             ([complex(1.0, math.inf)], 1.0), ([1, 2], math.inf),
                                             ([10**400], 1.0), ([1, 2], "1")],
                         ids=["bool-root", "string-root", "bool-leading", "nan-root",
                              "inf-root", "inf-leading", "huge-int-root", "string-leading"])
def test_from_roots_refuses_what_is_not_a_finite_number(roots_, leading):
    # the package's input rule: a bool or a string is not a number, and a
    # root or leading coefficient must be finite
    with pytest.raises(InvalidParam):
        from_roots(roots_, leading=leading)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("build", [lambda: from_roots([1e200, 1e200]),
                                   lambda: from_roots([1e200, -1e200, 3.0], leading=1e300),
                                   lambda: generate("roots-outside", 3, seed=1, rho=1e160),
                                   lambda: generate("lax-extremal", 3, rho=1e160)],
                         ids=["from-roots", "from-roots-leading", "roots-outside", "lax-extremal"])
def test_root_products_beyond_float_range_are_out_of_range(build):
    # an overflowing coefficient, or a leading (1 + rho)^-n that underflows
    # to zero, raises OutOfRange with no warning, as dilate does
    with pytest.raises(OutOfRange):
        build()

