"""Randomized verification sweeps with reproducible seeding and reports.

Each check runs ``trials`` seeded random inputs; the per-trial seed is derived
from the master seed, the check id, and the trial index, so results are
order-independent and two runs with the same config are byte-identical.
Known equality witnesses (one family per check and degree) are appended when
enabled, and a debug bound-scale below 1 turns the sweep into a negative
control that must fail.

Every check is one entry of ``REGISTRY``: a builder that draws the inputs
of a group of trials of one degree, each from its trial's seeded generator,
and an evaluator that checks a list of inputs of one degree. A trial builds
its input once, and the roots-outside checks make a group's root products
as one block (poly._roots_outside). Trials and witness families take one
path: the inputs of one check and degree are built and checked as one
group, and every failing report, from a trial or a family, embeds the input
it checked as JSON.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field, asdict
from typing import Callable

import numpy as np

from . import checks as C
from .errors import InvalidParam
from .norms import QuadratureConfig
from .poly import (AlgebraicPoly, TrigPoly, _is_integer, _lax_extremal, _require_integer,
                   _require_real, _roots_outside, generate, poly_to_json)

DEFAULT_SEED = 0xBE2257


@dataclass
class SweepConfig:
    """What to run: check list, input families, trial counts, seeds, outputs."""

    checks: list = field(default_factory=lambda: list(ALL_CHECKS))
    degrees: list = field(default_factory=lambda: list(range(1, 17)))
    trials: int = 200
    p_list: list = field(default_factory=lambda: [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, math.inf])
    rho_list: list = field(default_factory=lambda: [1.0, 1.5, 2.0])
    radius_list: list = field(default_factory=lambda: [1.5, 2.0, 3.0])
    chi_list: list = field(default_factory=lambda: ["x^0.3", "x^2", "log"])
    seed: int = DEFAULT_SEED
    tol: float = C.DEFAULT_TOL
    tol_overrides: dict = field(default_factory=dict)
    bound_scale: float = 1.0
    include_witness_families: bool = True
    out_jsonl: str | None = None
    out_csv: str | None = None
    quadrature: dict = field(default_factory=dict)

    def __post_init__(self):
        lists = (self.checks, self.degrees, self.p_list, self.rho_list, self.radius_list,
                 self.chi_list)
        if not (all(isinstance(v, (list, tuple)) for v in lists)
                and isinstance(self.tol_overrides, dict)):
            raise InvalidParam("checks, degrees and the *_list fields must be lists, "
                               "and tol_overrides an object")
        self.p_list = [C.parse_p(p) for p in self.p_list]
        if not _is_integer(self.seed):
            raise InvalidParam("seed must be an integer")
        _require_integer(self.trials, 1, "trials")
        if not self.degrees:
            raise InvalidParam("degrees must not be empty")
        for n in self.degrees:
            _require_integer(n, 1, "every degree")
        unknown = [c for c in [*self.checks, *self.tol_overrides] if c not in ALL_CHECKS]
        if unknown:
            raise InvalidParam(f"unknown checks {unknown} in checks or tol_overrides; "
                               f"choices: {list(ALL_CHECKS)}")
        repeated = sorted({c for c in self.checks if self.checks.count(c) > 1})
        if repeated:
            raise InvalidParam(f"checks {repeated} listed more than once")
        _require_real(self.bound_scale, "bound_scale", lambda s: 0 < s <= 1 + 1e-12, "in (0, 1]")
        for rho in self.rho_list:
            _require_real(rho, "every rho_list value", lambda v: v >= 1, ">= 1")
        for radius in self.radius_list:
            _require_real(radius, "every radius_list value", lambda v: v > 1, "> 1")
        for tol in [self.tol, *self.tol_overrides.values()]:
            _require_real(tol, "tol and every tol_overrides value", lambda v: v >= 0, ">= 0")
        for name in self.chi_list:
            C.ChiFunction.parse(name)
        for check_id in self.checks:
            for name in REGISTRY[check_id].lists:
                if not getattr(self, name):
                    raise InvalidParam(f"{name} is empty, but check {check_id!r} reads it")
        self.cfg()  # a bad quadrature dict fails here, not in the sweep

    def to_json(self) -> dict:
        out = asdict(self)
        out["p_list"] = ["inf" if math.isinf(p) else p for p in self.p_list]
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "SweepConfig":
        try:
            return cls(**obj)
        except TypeError as exc:
            raise InvalidParam(f"bad sweep config: {exc}") from exc

    def cfg(self) -> QuadratureConfig:
        return QuadratureConfig.from_json(self.quadrature)


def trial_seed(master: int, check_id: str, index: int) -> int:
    blob = f"{master}:{check_id}:{index}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def _random_alg(rng, n: int) -> AlgebraicPoly:
    re = rng.standard_normal(n + 1)
    im = rng.standard_normal(n + 1)
    return AlgebraicPoly((re + 1j * im) / np.sqrt(2.0))


def _random_real_trig(rng, n: int) -> TrigPoly:
    pos = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    c = np.concatenate([np.conj(pos[::-1]), [rng.standard_normal() + 0j], pos])
    return TrigPoly(c)


def _cycle(values, index):
    return values[index % len(values)]


def _each(build):
    """The group builder that calls build(rng, n, index, sc) once per trial."""
    return lambda rngs, n, indices, sc: [build(rng, n, i, sc) for rng, i in zip(rngs, indices)]


def _build_roots_outside(rngs, n, indices, sc):
    """(p, rho) per trial, p generate("roots-outside", n, rng, rho) with rho
    cycling through rho_list, every product from one block."""
    rhos = [_cycle(sc.rho_list, i) for i in indices]
    return list(zip(_roots_outside(n, rngs, rhos), rhos))


def _build_ankeny_rivlin(rngs, n, indices, sc):
    return [(*args, _cycle(sc.radius_list, i // len(sc.rho_list)))
            for args, i in zip(_build_roots_outside(rngs, n, indices, sc), indices)]


def _build_logplus(rng, n, index, sc):
    mod = rng.uniform(0.0, 0.9) if rng.random() < 0.5 else rng.uniform(1.1, 3.0)
    return (complex(mod * np.exp(2j * np.pi * rng.random())),)


def _build_mate_nevai(rng, n, index, sc):
    power = float(rng.uniform(0.05, 0.95))
    return _random_alg(rng, n), power


def _extremal_exp_family(n, sc):
    t = generate("extremal-exp", n)
    return [(t, p) for p in sc.p_list]


@dataclass(frozen=True)
class CheckSpec:
    """One sweep check.

    build(rngs, n, indices, sc) returns the argument tuples of the trials
    ``indices`` of degree n, in order, each drawn from its own generator of
    ``rngs`` (a trial rebuilt alone, as build([rng], n, [index], sc)[0], gets
    the same bits); evaluate(args_list, tol, qcfg) takes the argument tuples
    of inputs of one degree and returns their reports in order.
    tol is the check's tolerance when tol_overrides has no entry (None: the
    SweepConfig's tol), and lists the SweepConfig lists that build cycles
    through, which must not be empty. A check with equality witnesses names
    their family, and family_inputs(n, sc) returns the argument tuples for
    degree n.
    """

    build: Callable
    evaluate: Callable
    tol: float | None = None
    lists: tuple = ()
    family: str | None = None
    family_inputs: Callable | None = None


# Evaluators look each check function up on the checks module at call time,
# so a function replaced there (a traced wrapper, say) is the one that runs.
# Every check but power_identity takes a whole group through its batch form;
# that one checks one input at a time. The roots-outside checks build each
# group's products as one block; the others build one trial at a time.
REGISTRY = {
    "bernstein": CheckSpec(
        _each(lambda rng, n, i, sc: (generate("gaussian-random", n, seed=rng),
                                     _cycle(sc.p_list, i))),
        lambda a, tol, q: C.check_bernstein_batch(a, tol, q), lists=("p_list",),
        family="extremal-exp", family_inputs=_extremal_exp_family),
    "malik": CheckSpec(
        _each(lambda rng, n, i, sc: (_random_alg(rng, n),)),
        lambda a, tol, q: C.check_malik_batch(a, tol),
        family="monomial", family_inputs=lambda n, sc: [(AlgebraicPoly([0.0] * n + [1.0]),)]),
    "laguerre": CheckSpec(
        _build_roots_outside,
        lambda a, tol, q: C.check_laguerre_batch(a, tol), lists=("rho_list",)),
    "lax_malik": CheckSpec(
        _build_roots_outside,
        lambda a, tol, q: C.check_lax_malik_batch(a, tol), lists=("rho_list",),
        family="lax-extremal",
        family_inputs=lambda n, sc: list(zip(_lax_extremal(n, sc.rho_list), sc.rho_list))),
    "ankeny_rivlin": CheckSpec(
        _build_ankeny_rivlin,
        lambda a, tol, q: C.check_ankeny_rivlin_batch(a, tol),
        lists=("rho_list", "radius_list")),
    "svdc": CheckSpec(
        _each(lambda rng, n, i, sc: (_random_real_trig(rng, n),)),
        lambda a, tol, q: C.check_svdc_batch(a, tol),
        family="cos-n",  # cos(nx)
        family_inputs=lambda n, sc: [(TrigPoly([0.5] + [0.0] * (2 * n - 1) + [0.5]),)]),
    "gauss_lucas": CheckSpec(
        _each(lambda rng, n, i, sc: (_random_alg(rng, max(n, 2)),)),
        lambda a, tol, q: C.check_gauss_lucas_batch(a, tol), tol=C.HULL_TOL),
    "embedding": CheckSpec(
        _each(lambda rng, n, i, sc: (_random_alg(rng, n), _cycle(C._EMBEDDING_KINDS, i))),
        lambda a, tol, q: C.check_embedding_batch(a, tol, q)),
    "dominated_derivative": CheckSpec(
        _each(lambda rng, n, i, sc: (_random_alg(rng, n),)),
        lambda a, tol, q: C.check_dominated_derivative_batch(a, tol)),
    "logplus": CheckSpec(
        _each(_build_logplus),
        lambda a, tol, q: C.check_identity_logplus_batch(a, tol, q)),
    "power_identity": CheckSpec(
        _each(lambda rng, n, i, sc: (float(rng.uniform(0.0, 3.0)),
                                     float(rng.uniform(0.1, 4.0)))),
        lambda a, tol, q: [C.check_identity_power(*x, tol) for x in a]),
    "chi": CheckSpec(
        _each(lambda rng, n, i, sc: (generate("gaussian-random", n, seed=rng),
                                     C.ChiFunction.parse(_cycle(sc.chi_list, i)))),
        lambda a, tol, q: C.check_chi_version_batch(a, tol, q), lists=("chi_list",)),
    "mate_nevai": CheckSpec(_each(_build_mate_nevai),
                            lambda a, tol, q: C.mate_nevai_compare_batch(a, tol, q)),
}

ALL_CHECKS = tuple(REGISTRY)


def _check_tol(check_id: str, sc: SweepConfig) -> float:
    tol = REGISTRY[check_id].tol
    return sc.tol_overrides.get(check_id, sc.tol if tol is None else tol)


def _apply_bound_scale(rep: C.VerificationReport, scale: float) -> C.VerificationReport:
    if scale == 1.0 or rep.status != "ok":
        return rep
    rep.bound = rep.bound * scale
    rep.params["bound_scale"] = scale
    return rep


def _evaluate(check_id: str, args: list, sc: SweepConfig, qcfg: QuadratureConfig,
              profile: dict | None) -> list:
    """The reports of one group: inputs of one check and one degree."""
    t0 = time.perf_counter()
    reports = REGISTRY[check_id].evaluate(args, _check_tol(check_id, sc), qcfg)
    if profile is not None:
        entry = _profile_entry(profile, check_id)
        entry["check_s"] += time.perf_counter() - t0
        entry["groups"] += 1
        entry["reports"] += len(reports)
    return reports


def _profile_entry(profile: dict, check_id: str) -> dict:
    return profile.setdefault(check_id, {"build_s": 0.0, "check_s": 0.0, "groups": 0,
                                         "reports": 0})


def _trials(check_id: str, sc: SweepConfig, profile: dict | None) -> list:
    """(n, args, {trial, seed}) of each trial of one check, in trial order:
    the inputs of each degree are built by one spec.build call, each once,
    from its trial's seeded generator."""
    spec = REGISTRY[check_id]
    t0 = time.perf_counter()
    groups: dict = {}
    for index in range(sc.trials):
        groups.setdefault(_cycle(sc.degrees, index), []).append(index)
    trials = [None] * sc.trials
    for n, indices in groups.items():
        seeds = [trial_seed(sc.seed, check_id, i) for i in indices]
        built = spec.build([np.random.default_rng(s) for s in seeds], n, indices, sc)
        for index, seed, args in zip(indices, seeds, built):
            trials[index] = (n, args, {"trial": index, "seed": seed})
    if profile is not None:
        _profile_entry(profile, check_id)["build_s"] += time.perf_counter() - t0
    return trials


def _checked(check_id: str, inputs: list, sc: SweepConfig, qcfg: QuadratureConfig,
             profile: dict | None) -> list:
    """The reports of ``inputs``, (n, args, params) triples of one check, in
    order: the inputs of each degree are checked as one group, and each
    report gets n and the given params, the bound scale, and, if it fails,
    the polynomial it checked as JSON."""
    groups: dict = {}
    for index, (n, _, _) in enumerate(inputs):
        groups.setdefault(n, []).append(index)
    reports = [None] * len(inputs)
    for indices in groups.values():
        group = _evaluate(check_id, [inputs[i][1] for i in indices], sc, qcfg, profile)
        for index, rep in zip(indices, group):
            reports[index] = rep
    for (n, args, params), rep in zip(inputs, reports):
        rep.params.setdefault("n", n)
        rep.params.update(params)
        _apply_bound_scale(rep, sc.bound_scale)
        # the identity checks take scalars, which their params already record
        if not rep.passed and isinstance(args[0], (AlgebraicPoly, TrigPoly)):
            rep.params["input"] = poly_to_json(args[0])
    return reports


@dataclass
class SweepResult:
    reports: list
    all_passed: bool
    summary: list  # rows (check_id, n, p, trials, min_margin, pass_rate)

    def failures(self) -> list:
        return [r for r in self.reports if not r.passed]


def run_sweep(sc: SweepConfig, profile: dict | None = None) -> SweepResult:
    """Run the sweep: every check's trials in order, then the witness families,
    per degree and check (margin must be ~0).

    Each check's trials are grouped by degree, and each group is checked by
    one evaluate call. If ``profile`` is a dict, it receives per check id the
    wall time spent building inputs and checking them, the group count and
    the report count; the reports do not depend on it.
    """
    qcfg = sc.cfg()
    reports = [rep for check_id in sc.checks
               for rep in _checked(check_id, _trials(check_id, sc, profile), sc, qcfg, profile)]
    for n in sorted(set(sc.degrees)) if sc.include_witness_families else ():
        for check_id, spec in REGISTRY.items():
            if spec.family is not None and check_id in sc.checks:
                family = [(n, args, {"family": spec.family}) for args in spec.family_inputs(n, sc)]
                reports += _checked(check_id, family, sc, qcfg, profile)
    all_passed = all(r.passed for r in reports)
    return SweepResult(reports=reports, all_passed=all_passed, summary=_summarize(reports))


def _summarize(reports) -> list:
    groups: dict = {}
    for r in reports:
        key = (r.check_id, r.params.get("n"), r.params.get("p"))
        groups.setdefault(key, []).append(r)
    rows = []
    for (check_id, n, p), reps in sorted(
        groups.items(), key=lambda kv: (kv[0][0], str(kv[0][1]), str(kv[0][2]))
    ):
        rows.append(
            {
                "check_id": check_id,
                "n": "" if n is None else n,
                "p": "" if p is None else p,
                "trials": len(reps),
                "min_margin": min(r.margin for r in reps),
                "pass_rate": sum(r.passed for r in reps) / len(reps),
            }
        )
    return rows


def write_jsonl(path: str, reports) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for r in reports:
            handle.write(json.dumps(r.to_json(), sort_keys=True) + "\n")


def write_csv(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(
            handle, fieldnames=["check_id", "n", "p", "trials", "min_margin", "pass_rate"]
        )
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
