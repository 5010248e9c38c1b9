"""Numerical verification of the polynomial inequalities and identities.

Every check returns a structured VerificationReport. Bound checks follow the
rule pass <=> measured <= bound * (1 + tol), except additive-form checks
(bounded by zero) which use an absolute slack recorded in the report, and
identity checks, where measured is the absolute discrepancy |lhs - rhs| and
bound is the allowed discrepancy, so the same rule applies with tol = 0;
``passes`` is that rule.

The derivative bound ||P'||_p <= n ||P||_p is one evaluator,
_derivative_bound, at every rung p of the ladder: bernstein (trig inputs,
every p), dominated_derivative (algebraic inputs, p = inf), mate_nevai
(algebraic inputs, 0 < p < 1) and chi (trig inputs; the log case at p = 0,
x^e at p = e with both sides raised to the power e) are its aliases, each
with its own check id, digest payload and params.

Degenerate inputs (zero polynomial, degree too small) yield a report with
status "degenerate" instead of a verdict; every inequality is vacuous there.

Every check but power_identity has a batch form, and all but gauss_lucas
and the two identities go through _batched: a check's compute returns, per
live input, only the _report keywords (measured, bound, and witnesses or
abs_slack where it has them), and _batched alone joins them to each report's
check id, digest payload, params and tol. gauss_lucas, whose degenerate
inputs are every effective degree below 2 and whose params name the worst
root, builds its reports itself, as logplus does; its roots, like those of
the Mahler rungs p = 0, come from one stacked solve per degree
(poly._root_arrays).
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidParam, NotRealValued, OnUnitCircle, OutOfRange, RootInForbiddenRegion
from .kernels import (
    besov_111_bound_constant,
    besov_inf1_bound_constant,
    wiener_bound_constant,
)
from .norms import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    _circle_means,
    _mahler_jensens,
    besov_111_seminorms,
    besov_inf1_seminorms,
    circle_max,
    lp_norms,
    sup_norms_argmax,
    wiener_norm,
)
from .poly import (AlgebraicPoly, TrigPoly, _refuse_nonfinite, _require_real, _root_arrays,
                   poly_to_json)

DEFAULT_TOL = 1e-8
HULL_TOL = 1e-7


@dataclass
class VerificationReport:
    """Outcome of one inequality/identity check on one input. The margin
    bound - measured and the verdict of ``passes`` are computed from the
    stored numbers and params["abs_slack"] when read, so they follow any
    change of the bound."""

    check_id: str
    digest: str
    measured: float
    bound: float
    tol: float
    status: str = "ok"
    witnesses: list = field(default_factory=list)
    params: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.bound - self.measured

    @property
    def passed(self) -> bool:
        return passes(self.measured, self.bound, self.tol, self.params.get("abs_slack"))

    def to_json(self) -> dict:
        return {
            "check_id": self.check_id,
            "digest": self.digest,
            "measured": self.measured,
            "bound": self.bound,
            "tol": self.tol,
            "pass": self.passed,
            "margin": self.margin,
            "status": self.status,
            "witnesses": [[float(x), float(v)] for x, v in self.witnesses],
            "params": self.params,
        }


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def passes(measured: float, bound: float, tol: float, abs_slack: float | None = None) -> bool:
    """The pass rule: measured <= bound + abs_slack for the additive-form
    checks, which record an absolute slack, else measured <= bound * (1 + tol)."""
    if abs_slack is not None:
        return bool(measured <= bound + abs_slack)
    return bool(measured <= bound * (1.0 + tol))


def _report(check_id, payload, measured, bound, tol, *, abs_slack=None,
            witnesses=(), params=None) -> VerificationReport:
    """An "ok" report; a non-finite measured or bound is an internal error
    (OutOfRange), never a report."""
    measured, bound = float(measured), float(bound)
    if not (math.isfinite(measured) and math.isfinite(bound)):
        raise OutOfRange(f"{check_id}: measured {measured} and bound {bound} must be finite")
    params = dict(params or {})
    if abs_slack is not None:
        params["abs_slack"] = float(abs_slack)
    return VerificationReport(
        check_id=check_id,
        digest=_digest(payload),
        measured=measured,
        bound=bound,
        tol=float(tol),
        witnesses=sorted(witnesses, key=lambda wv: bound - wv[1]),
        params=params,
    )


def _degenerate(check_id, payload, params=None) -> VerificationReport:
    return replace(_report(check_id, payload, 0.0, 0.0, 0.0, params=params), status="degenerate")


def parse_p(p) -> float:
    """p as a float: a real number >= 0, or the sup rung inf, given as
    math.inf or as the string "inf", "infinity" or "sup" in any case."""
    if (isinstance(p, str) and p.lower() in ("inf", "infinity", "sup")
            or isinstance(p, float) and p == math.inf):
        return math.inf
    _require_real(p, "p", lambda v: v >= 0, ">= 0, or inf, 'inf' or 'sup'")
    return float(p)


def _batched(cases, tol, compute) -> list:
    """Reports for ``cases``, a list of (check_id, payload, params, args)
    per input, in order. An input whose polynomial args[0] is zero gets a
    degenerate report; compute(live), given the args of the others, returns
    one dict of _report keywords for each, in one pass over all of them."""
    _require_real(tol, "tol", lambda v: v >= 0, ">= 0")
    live = [args for *_, args in cases if not args[0].is_zero()]
    done = iter(compute(live) if live else ())
    return [_degenerate(cid, payload, params) if args[0].is_zero()
            else _report(cid, payload, tol=tol, params=params, **next(done))
            for cid, payload, params, args in cases]


def _sups(polys) -> list:
    """Sup norms of polynomials of one width, as floats."""
    return [float(v) for v in sup_norms_argmax(polys)[0]]


def _pow(x, e) -> float:
    """x ** e, bit for bit as Python computes it, or inf beyond the float
    range, which _report refuses (OutOfRange)."""
    with np.errstate(over="ignore"):
        return float(np.float64(x) ** e)


def _witnessed(measured, xmax, bounds) -> list:
    """_report keywords of measured values, argmax angles and bounds, each
    witnessed by its (argmax, measured) pair."""
    return [{"measured": float(m), "bound": b, "witnesses": [(float(x), float(m))]}
            for m, x, b in zip(measured, xmax, bounds)]


def _sup_bound(live, image, factor) -> list:
    """_report keywords of sup|image(*args)| <= factor(*args) * sup|args[0]|
    for the ``live`` args, with one circle_max call per norm."""
    measured, xmax = sup_norms_argmax([image(*args) for args in live])
    sups = _sups([args[0] for args in live])
    return _witnessed(measured, xmax, [factor(*args) * s for args, s in zip(live, sups)])


def _rung_norms(args, cfg) -> list:
    """_report keywords measured ||P'||_p and bound n ||P||_p, n the declared
    degree, as floats, for each (P, p) in ``args`` with finite p: at p = 0
    every nonzero P' and P takes the Mahler norm through Jensen from one
    _mahler_jensens call (a zero one takes 0), and every P' and P at p > 0
    goes through one lp_norms call."""
    polys = [t.derivative() for t, _ in args] + [t for t, _ in args]
    powers = [p for _, p in args] * 2
    vals = [0.0] * len(polys)
    mahler = [i for i, p in enumerate(powers) if p == 0 and not polys[i].is_zero()]
    for i, v in zip(mahler, _mahler_jensens([polys[i] for i in mahler])):
        vals[i] = v
    lp = [i for i, p in enumerate(powers) if p > 0]
    for i, v in zip(lp, lp_norms([polys[i] for i in lp], [powers[i] for i in lp], cfg)):
        vals[i] = v
    return [{"measured": vals[i], "bound": t.degree * vals[len(args) + i]}
            for i, (t, _) in enumerate(args)]


def _derivative_bound(cases, tol, cfg) -> list:
    """Reports of ||P'||_p <= n ||P||_p, n the declared degree, for ``cases``
    of one degree whose args are (P, p), P a TrigPoly or an AlgebraicPoly
    (its analytic embedding): p = inf rungs take their sups from one
    circle_max call per norm, and the finite rungs their norms from
    _rung_norms."""
    def compute(live):
        at_inf = [math.isinf(p) for _, p in live]
        norms = iter(_rung_norms([a for a, s in zip(live, at_inf) if not s], cfg))
        sups = iter(_sup_bound([a for a, s in zip(live, at_inf) if s],
                               lambda t, p: t.derivative(), lambda t, p: t.degree))
        return [next(sups) if s else next(norms) for s in at_inf]

    return _batched(cases, tol, compute)


def check_bernstein(t: TrigPoly, p, tol: float = DEFAULT_TOL,
                    cfg: QuadratureConfig | None = None) -> VerificationReport:
    """Derivative norm bound: ||T'||_p <= n ||T||_p, n the declared degree.

    Routes p = 0 through the Mahler (Jensen) norm and p = inf through the
    refined sup norm.
    """
    return check_bernstein_batch([(t, p)], tol, cfg)[0]


def check_bernstein_batch(cases, tol: float = DEFAULT_TOL,
                          cfg: QuadratureConfig | None = None) -> list:
    """check_bernstein of each (t, p) in ``cases``, all t of one degree."""
    cases = [(t, parse_p(p)) for t, p in cases]
    return _derivative_bound([("bernstein",
                               {"op": "bernstein", "p": repr(p), "poly": poly_to_json(t)},
                               {"n": t.degree, "p": p}, (t, p)) for t, p in cases], tol, cfg)


def _derivative_terms(p: AlgebraicPoly) -> np.ndarray:
    """Coefficients of zP'(z) and nP(z) - zP'(z): on the circle their moduli
    are |P'| and |Q'|, Q the reciprocal polynomial."""
    k = np.arange(p.degree + 1)
    return np.stack([k * p.coeffs, (p.degree - k) * p.coeffs])


def check_malik(p: AlgebraicPoly, tol: float = DEFAULT_TOL) -> VerificationReport:
    """|P'(z)| + |Q'(z)| <= n on the circle after normalizing sup|P| to 1,
    Q the reciprocal polynomial."""
    return check_malik_batch([(p,)], tol)[0]


def check_malik_batch(cases, tol: float = DEFAULT_TOL) -> list:
    """check_malik of each (p,) in ``cases``, all p of one degree n, with one
    circle_max call for the sups and one for the maxima."""
    def compute(live):
        polys = [p for p, in live]
        terms = [_derivative_terms(p * (1.0 / s)) for p, s in zip(polys, _sups(polys))]
        val, x = circle_max(np.stack(terms), weights=(1.0, 1.0))
        return _witnessed(val, x, [polys[0].degree] * len(live))

    return _batched([("malik", {"op": "malik", "poly": poly_to_json(p)}, {"n": p.degree}, (p,))
                     for p, in cases], tol, compute)


def _require_rho(cases):
    for _, rho, *_ in cases:
        _require_real(rho, "rho", lambda v: v >= 1, ">= 1")


def _require_roots_outside(live):
    """Reject the ``live`` args (p, rho, ...) where p has a root of modulus
    below rho - 1e-6 (a constant p has none), with the roots of every p from
    one poly._root_arrays call."""
    for (_, rho, *_), rts in zip(live, _root_arrays([p for p, *_ in live])):
        if rts.size:
            lo = float(np.abs(rts).min())
            if lo < rho - 1e-6:
                raise RootInForbiddenRegion(
                    f"root of modulus {lo:.6g} violates the requirement >= {rho:g}")


def check_laguerre(p: AlgebraicPoly, rho: float, tol: float = DEFAULT_TOL) -> VerificationReport:
    """rho |P'(z)| <= |Q'(z)| on the circle for P with all roots of modulus >= rho.

    Additive form: measured is the max of rho|P'| - |Q'|, bounded by zero with
    absolute slack tol * n * sup|P|.
    """
    return check_laguerre_batch([(p, rho)], tol)[0]


def check_laguerre_batch(cases, tol: float = DEFAULT_TOL) -> list:
    """check_laguerre of each (p, rho) in ``cases``, all p of one degree n:
    one circle_max call with weights (rho, -1) per row, and one for the sups."""
    _require_rho(cases)

    def compute(live):
        _require_roots_outside(live)
        polys = [p for p, _ in live]
        val, x = circle_max(np.stack([_derivative_terms(p) for p in polys]),
                            weights=[(rho, -1.0) for _, rho in live])
        return [dict(kw, abs_slack=tol * p.degree * s) for kw, p, s in
                zip(_witnessed(val, x, [0.0] * len(live)), polys, _sups(polys))]

    return _batched([("laguerre", {"op": "laguerre", "rho": rho, "poly": poly_to_json(p)},
                      {"n": p.degree, "rho": rho}, (p, rho)) for p, rho in cases], tol, compute)


def check_lax_malik(p: AlgebraicPoly, rho: float, tol: float = DEFAULT_TOL) -> VerificationReport:
    """||P'||_inf <= n/(1+rho) * ||P||_inf for P with all roots of modulus >= rho."""
    return check_lax_malik_batch([(p, rho)], tol)[0]


def check_lax_malik_batch(cases, tol: float = DEFAULT_TOL) -> list:
    """check_lax_malik of each (p, rho) in ``cases``, all p of one degree, with
    one circle_max call per norm."""
    _require_rho(cases)

    def compute(live):
        _require_roots_outside(live)
        return _sup_bound(live, lambda p, rho: p.derivative(),
                          lambda p, rho: p.degree / (1.0 + rho))

    return _batched([("lax_malik", {"op": "lax_malik", "rho": rho, "poly": poly_to_json(p)},
                      {"n": p.degree, "rho": rho}, (p, rho)) for p, rho in cases], tol, compute)


def check_ankeny_rivlin(p: AlgebraicPoly, rho: float, radius: float,
                        tol: float = DEFAULT_TOL) -> VerificationReport:
    """max_{|z|=R} |P(z)| <= (R^n + rho)/(1 + rho) * ||P||_inf for root-free rho-disk."""
    return check_ankeny_rivlin_batch([(p, rho, radius)], tol)[0]


def check_ankeny_rivlin_batch(cases, tol: float = DEFAULT_TOL) -> list:
    """check_ankeny_rivlin of each (p, rho, radius) in ``cases``, all p of one
    degree, with one circle_max call per norm."""
    _require_rho(cases)
    for *_, radius in cases:
        _require_real(radius, "the growth radius R", lambda v: v > 1, "> 1")

    def compute(live):
        _require_roots_outside(live)
        return _sup_bound(live, lambda p, rho, radius: p.dilate(radius),
                          lambda p, rho, radius: (radius**p.degree + rho) / (1.0 + rho))

    return _batched([("ankeny_rivlin",
                      {"op": "ankeny_rivlin", "rho": rho, "R": radius, "poly": poly_to_json(p)},
                      {"n": p.degree, "rho": rho, "R": radius}, (p, rho, radius))
                     for p, rho, radius in cases], tol, compute)


def check_svdc(t: TrigPoly, tol: float = DEFAULT_TOL) -> VerificationReport:
    """(T')^2 + n^2 T^2 <= n^2 pointwise for real-valued T normalized to sup 1."""
    return check_svdc_batch([(t,)], tol)[0]


def check_svdc_batch(cases, tol: float = DEFAULT_TOL) -> list:
    """check_svdc of each (t,) in ``cases``, all t of one degree n, with one
    circle_max call for the sups and one for the maxima."""
    def compute(live):
        ts = [t for t, in live]
        if not all(t.is_real_valued() for t in ts):
            raise NotRealValued("the pointwise bound needs a real-valued trig polynomial")
        n = ts[0].degree
        rows = []
        for t, s in zip(ts, _sups(ts)):
            tn = t * (1.0 / s)
            # (Re T')^2 + n^2 (Re T)^2 = |Re T' + i n Re T|^2, both parts real
            c_re = (tn.coeffs + np.conj(tn.coeffs[::-1])) / 2.0
            rows.append(1j * np.arange(-n, n + 1) * c_re + 1j * n * c_re)
        val, x = circle_max(np.stack(rows)[:, None])
        return _witnessed([float(v) ** 2 for v in val], x, [float(n * n)] * len(live))

    return _batched([("svdc", {"op": "svdc", "poly": poly_to_json(t)}, {"n": t.degree}, (t,))
                     for t, in cases], tol, compute)


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull of complex points (ccw, no strict-interior
    collinear vertices). Degenerate inputs return 1 or 2 points."""
    pts = sorted(set((float(z.real), float(z.imag)) for z in points))
    if len(pts) <= 2:
        return np.array([complex(*q) for q in pts])

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for q in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], q) <= 0:
            lower.pop()
        lower.append(q)
    upper: list = []
    for q in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], q) <= 0:
            upper.pop()
        upper.append(q)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # all collinear: keep the extreme pair
        hull = [pts[0], pts[-1]]
    return np.array([complex(*q) for q in hull])


def _hull_distances(w: np.ndarray, hull: np.ndarray) -> np.ndarray:
    """Distance from each point p of ``w`` to the hull of _convex_hull, over
    all points and edges [a, b] at once: 0 when Im(conj(b-a)(p-a)) >= 0 on
    every edge of a hull of three or more vertices, else the least distance
    to an edge. Where the projection falls inside an edge that distance is
    |Im(conj(b-a)(p-a))| / |b-a|, exactly 0 for collinear real points such
    as the roots ±(1 - 4e-16) of z^2 - 1 and the derivative root 0, where
    the foot-point difference p - (a + s(b-a)) leaves a rounding error.
    """
    if len(hull) == 1:
        return np.abs(w - hull[0])
    a = hull if len(hull) > 2 else hull[:1]  # two vertices are one segment [a, b]
    b = np.concatenate([hull[1:], hull[:1]])[:len(a)]
    ab = b - a
    pa = w[:, None] - a
    cross = (np.conj(ab) * pa).imag
    s = (pa * np.conj(ab)).real / np.abs(ab) ** 2
    dist = np.where(s <= 0.0, np.abs(pa),
                    np.where(s >= 1.0, np.abs(w[:, None] - b), np.abs(cross) / np.abs(ab)))
    dist = dist.min(axis=1)
    if len(hull) > 2:
        dist[(cross >= 0.0).all(axis=1)] = 0.0
    return dist


def check_gauss_lucas(p: AlgebraicPoly, tol: float = HULL_TOL) -> VerificationReport:
    """Every root of P' lies in the convex hull of the roots of P.

    measured is the largest distance from a derivative root to the hull;
    bound is zero with absolute slack tol * (1 + root scale).
    """
    return check_gauss_lucas_batch([(p,)], tol)[0]


def check_gauss_lucas_batch(cases, tol: float = HULL_TOL) -> list:
    """check_gauss_lucas of each (p,) in ``cases``: an input of effective
    degree below 2 (the zero polynomial included) gets a degenerate report,
    and the roots of the others and of their derivatives come from one
    poly._root_arrays call each."""
    _require_real(tol, "tol", lambda v: v >= 0, ">= 0")
    degenerate = [(p.effective_degree or 0) < 2 for p, in cases]
    live = [p for (p,), skip in zip(cases, degenerate) if not skip]
    found = iter(zip(_root_arrays(live), _root_arrays([p.derivative() for p in live])))
    reports = []
    for (p,), skip in zip(cases, degenerate):
        payload = {"op": "gauss_lucas", "poly": poly_to_json(p)}
        params = {"n": p.degree}
        if skip:
            reports.append(_degenerate("gauss_lucas", payload, params))
            continue
        base, deriv_roots = next(found)
        dists = _hull_distances(deriv_roots, _convex_hull(base))
        measured = float(dists.max())
        slack = tol * (1.0 + float(np.abs(base).max()))
        witnesses = []
        if measured > 0.0:  # when every root is inside, no root is worse than another
            worst = complex(deriv_roots[np.argmax(dists)])
            witnesses = [(worst.real, measured)]
            params["worst_root"] = [worst.real, worst.imag]
        reports.append(_report("gauss_lucas", payload, measured, 0.0, tol, abs_slack=slack,
                               witnesses=witnesses, params=params))
    return reports


# kind -> (its norms of a list of inputs under a cfg, its constant at degree n)
_EMBEDDINGS = {
    "wiener": (lambda polys, cfg: [wiener_norm(p) for p in polys], wiener_bound_constant),
    "besovinf1": (besov_inf1_seminorms, besov_inf1_bound_constant),
    "besov111": (besov_111_seminorms, besov_111_bound_constant),
}
_EMBEDDING_KINDS = tuple(_EMBEDDINGS)


def check_embedding(p: AlgebraicPoly, kind: str, tol: float = DEFAULT_TOL,
                    cfg: QuadratureConfig | None = None) -> VerificationReport:
    """Coefficient/Besov norm <= explicit constant times sup|P| at degree n.

    Constants: sqrt(n+1) for the coefficient-sum norm, sum_{k<n} 1/(2k+1) for
    the radial-sup seminorm, (8/pi) sum_{k<n} gamma(k+3/2)^2/(k!(k+1)!) for
    the second-derivative area seminorm.
    """
    return check_embedding_batch([(p, kind)], tol, cfg)[0]


def check_embedding_batch(cases, tol: float = DEFAULT_TOL,
                          cfg: QuadratureConfig | None = None) -> list:
    """check_embedding of each (p, kind) in ``cases``, all p of one degree:
    one circle_max call for the sups, one for every radial sup of the
    radial-sup seminorms, and one _circle_means call for every circle mean
    of the area seminorms."""
    if any(kind not in _EMBEDDING_KINDS for _, kind in cases):
        raise InvalidParam(f"embedding kind must be one of {_EMBEDDING_KINDS}")

    def compute(live):
        sups = _sups([p for p, _ in live])
        out = [None] * len(live)
        for kind, (norms, const) in _EMBEDDINGS.items():
            idx = [i for i, (_, k) in enumerate(live) if k == kind]
            for i, value in zip(idx, norms([live[i][0] for i in idx], cfg)):
                out[i] = {"measured": value, "bound": const(live[i][0].degree) * sups[i]}
        return out

    return _batched([(f"embedding_{kind}", {"op": f"embedding_{kind}", "poly": poly_to_json(p)},
                      {"n": p.degree, "kind": kind}, (p, kind)) for p, kind in cases], tol, compute)


def check_dominated_derivative(p: AlgebraicPoly, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Term-by-term domination with the canonical majorant sup|P| * z^n:
    |P| <= |F| on the circle and F root-free outside the closed disk force
    |P'| <= |F'| = n sup|P| there."""
    return check_dominated_derivative_batch([(p,)], tol)[0]


def check_dominated_derivative_batch(cases, tol: float = DEFAULT_TOL) -> list:
    """check_dominated_derivative of each (p,) in ``cases``, all p of one
    degree: the derivative-bound evaluator at p = inf."""
    return _derivative_bound([("dominated_derivative",
                               {"op": "dominated_derivative", "poly": poly_to_json(p)},
                               {"n": p.degree}, (p, math.inf)) for p, in cases], tol, None)


def check_identity_logplus(v: complex, tol: float = DEFAULT_TOL,
                           cfg: QuadratureConfig | None = None) -> VerificationReport:
    """Circle mean of log|v + w| equals log+ |v| away from |v| = 1.

    By rotation invariance the inner unimodular factor is fixed to 1. The
    report carries the absolute discrepancy against an allowance of
    tol * (1 + |log+ |v||). On the largest grid, of N = 64 * 2^(max_doublings
    + 4) points, the rule errs by at most -log(1 - rho^N)/N, about rho^N/N,
    rho = min(|v|, 1/|v|), which is infinite at |v| = 1 (a log singularity
    on the contour): OnUnitCircle refuses each v where it exceeds half the
    allowance, |v| within about 1.2e-4 of 1 under the default config.
    """
    return check_identity_logplus_batch([(v,)], tol, cfg)[0]


def check_identity_logplus_batch(cases, tol: float = DEFAULT_TOL,
                                 cfg: QuadratureConfig | None = None) -> list:
    """check_identity_logplus of each (v,) in ``cases``: the rows [v, 1] of
    every v go through one _circle_means call."""
    _require_real(tol, "tol", lambda v: v >= 0, ">= 0")
    cfg = cfg or DEFAULT_CONFIG
    vs = [complex(v) for v, in cases]
    _refuse_nonfinite("v", np.asarray(vs))
    rhs = [max(0.0, math.log(abs(v))) if v else 0.0 for v in vs]
    n_max = 64 << (cfg.max_doublings + 4)
    for v, h in zip(vs, rhs):
        rho = min(abs(v), 1.0 / abs(v)) if v else 0.0
        err = -math.log1p(-rho**n_max) / n_max if rho < 1 else math.inf
        if err > 0.5 * tol * (1.0 + h):
            raise OnUnitCircle(f"|v| = {abs(v):.8g} is too near the unit circle (log "
                               f"singularity): the {n_max}-point rule errs by up to {err:.3g}")
    # stop on the Mahler measure exp(mean) = max(1, |v|), not on the mean
    # itself, which is 0 for |v| < 1 and so never meets a relative test
    rows = np.array([[v, 1.0] for v in vs], dtype=np.complex128).reshape(len(vs), 2)
    means = _circle_means(rows, 0.0, 64, cfg.rel_tol, cfg.max_doublings + 4)
    out = []
    for v, h, mean in zip(vs, rhs, means.tolist()):
        quad = math.log(mean)
        out.append(_report("logplus", {"op": "logplus", "v": [v.real, v.imag]},
                           abs(quad - h), tol * (1.0 + h), 0.0,
                           params={"v_abs": abs(v), "lhs": quad, "rhs": h}))
    return out


_LAGUERRE_NODES, _LAGUERRE_WEIGHTS = np.polynomial.laguerre.laggauss(48)


def check_identity_power(u: float, p: float, tol: float = DEFAULT_TOL) -> VerificationReport:
    """u^p = integral over a > 0 of log+(u/a) p^2 a^(p-1) da.

    Substituting a = u e^(-s) and then t = p s turns the right side into
    u^p * integral of t e^(-t) dt, evaluated by Gauss-Laguerre quadrature.
    """
    _require_real(u, "u", lambda v: v >= 0, ">= 0")
    _require_real(p, "p", lambda v: v > 0, "> 0")
    _require_real(tol, "tol", lambda v: v >= 0, ">= 0")
    rhs = _pow(u, p)
    quad = float(rhs * np.sum(_LAGUERRE_WEIGHTS * _LAGUERRE_NODES))
    return _report("power_identity", {"op": "power_identity", "u": u, "p": p}, abs(quad - rhs),
                   tol * (1.0 + rhs), 0.0, params={"u": u, "p": p, "lhs": quad, "rhs": rhs})


@dataclass(frozen=True)
class ChiFunction:
    """chi: R+ -> R as x^exponent, or log for exponent 0. Each one meets the
    monotonicity hypothesis (chi increasing, differentiable, x chi'(x)
    increasing: x chi'(x) is exponent * x^exponent, or 1 for log)."""

    name: str
    exponent: float

    def __post_init__(self):
        _require_real(self.exponent, "chi's exponent", lambda v: v >= 0, ">= 0")

    @staticmethod
    def power(exponent: float) -> "ChiFunction":
        _require_real(exponent, "a power chi's exponent", lambda v: v > 0, "> 0")
        return ChiFunction(name=f"x^{exponent:g}", exponent=exponent)

    @staticmethod
    def log() -> "ChiFunction":
        return ChiFunction(name="log", exponent=0.0)

    @staticmethod
    def parse(name: str) -> "ChiFunction":
        if not isinstance(name, str):
            raise InvalidParam(f"a chi spec is a string, got {name!r}")
        if name == "log":
            return ChiFunction.log()
        if name.startswith("x^"):
            try:
                exponent = float(name[2:])
            except ValueError:  # not a number: power() refuses the text itself
                exponent = name[2:]
            return ChiFunction.power(exponent)
        raise InvalidParam(f"unknown chi spec {name!r}; use 'log' or 'x^<p>'")


def check_chi_version(t: TrigPoly, chi: ChiFunction, tol: float = DEFAULT_TOL,
                      cfg: QuadratureConfig | None = None) -> VerificationReport:
    """Circle mean of chi(|T'|) <= circle mean of chi(n |T|): for chi = x^e,
    ||T'||_e^e <= (n ||T||_e)^e at rung e of the derivative-bound ladder; for
    log, exp of the means, i.e. the Mahler comparison ||T'||_0 <= n ||T||_0,
    the derivative-bound evaluator at p = 0.
    """
    return check_chi_version_batch([(t, chi)], tol, cfg)[0]


def check_chi_version_batch(cases, tol: float = DEFAULT_TOL,
                            cfg: QuadratureConfig | None = None) -> list:
    """check_chi_version of each (t, chi) in ``cases``, all t of one degree,
    with the L^p norms of every x^e case from one lp_norms call."""
    def compute(live):
        return [{k: _pow(v, e) for k, v in kw.items()} if e else kw
                for (_, e), kw in zip(live, _rung_norms(live, cfg))]

    return _batched([("chi_bound", {"op": "chi", "chi": chi.name, "poly": poly_to_json(t)},
                      {"n": t.degree, "chi": chi.name}, (t, chi.exponent))
                     for t, chi in cases], tol, compute)


def mate_nevai_compare(p: AlgebraicPoly, power: float, tol: float = DEFAULT_TOL,
                       cfg: QuadratureConfig | None = None) -> VerificationReport:
    """||P'||_p <= n ||P||_p for 0 < p < 1, the sharp bound (Arestov, 1981):
    the derivative-bound evaluator at (P, p). The params keep the Mate-Nevai
    factor (4e)^(1/p) and the weaker bound n (4e)^(1/p) ||P||_p it gives."""
    return mate_nevai_compare_batch([(p, power)], tol, cfg)[0]


def mate_nevai_compare_batch(cases, tol: float = DEFAULT_TOL,
                             cfg: QuadratureConfig | None = None) -> list:
    """mate_nevai_compare of each (p, power) in ``cases``, all p of one degree."""
    for _, power in cases:
        _require_real(power, "the Mate-Nevai power p", lambda v: 0 < v < 1, "in (0, 1)")
    reps = _derivative_bound([("mate_nevai",
                               {"op": "mate_nevai", "p": power, "poly": poly_to_json(p)},
                               {"n": p.degree, "p": power,
                                "factor": (4.0 * math.e) ** (1.0 / power)}, (p, power))
                              for p, power in cases], tol, cfg)
    for rep in reps:
        rep.params["mate_nevai_bound"] = rep.params["factor"] * rep.bound
    return reps
