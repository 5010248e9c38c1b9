"""The four benchmark workloads: inputs from the seed, the timed library calls,
and the correctness oracle that runs outside the timed interval.

A workload hands out one input per index (``make_input``), makes the library
calls for it (``call``, the only timed part), turns the raw output into the
values the oracle reads (``collect``) and checks them (``check``), which
returns how many items the call completed and a message for each that failed.
An item is one report for ``verify`` and one polynomial for the others.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

from polynorm import cli, kernels, measures, norms, poly

LADDER_P = (0.25, 0.5, 1.0, 2.0, 4.0)
BOUND_TOL = 1e-8  # the relative tolerance of the inequality checks
ROUNDING = 1e-12  # relative slack for inequalities that can hold with equality
LANDAU_SLACK = 1e-10  # relative slack for a Mahler measure taken from computed roots


def _gaussian(rng, size):
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2.0)


def _direct_values(coeffs, kmin, x):
    """sum_j coeffs[j] e^{i(kmin+j)x} by an explicit exponential matrix."""
    k = kmin + np.arange(len(coeffs))
    return np.exp(1j * np.multiply.outer(np.asarray(x, dtype=np.float64), k)) @ coeffs


class Workload:
    name = ""
    tag = 0  # mixed into every input seed, so workloads draw different inputs
    degrees = (1,)
    # items per traced phase and second of --seconds: about half the raw rate
    # of the first benchmarked commit, so both phases together take --seconds
    trace_rate = 1.0
    block_calls = 1  # calls per measurement block, a whole number of degree cycles
    reference = ("short_arrays", "interpreter")  # kernels that gauge machine speed

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def rng(self, index: int):
        return np.random.default_rng([self.seed, self.tag, index])

    def degree(self, index: int) -> int:
        return self.degrees[index % len(self.degrees)]

    def warm_up(self):
        inp = self.make_input(0)
        self.check(inp, self.collect(inp, self.call(inp)))

    def trace_blocks(self, seconds: float) -> int:
        """A fixed amount of work for each phase of a traced run, so that its
        counts repeat exactly for a given seed and --seconds."""
        return max(1, round(seconds * self.trace_rate / self.block_calls))

    def collect(self, inp, raw):
        return raw

    def run_failures(self, source: str) -> list:
        """Failures that belong to the whole run rather than to one item;
        ``source`` is a digest of the package sources being measured."""
        return []


class Ladder(Workload):
    """Criterion 5's shape: the p-ladder of T and T' for complex-Gaussian T."""

    name = "ladder"
    tag = 1
    degrees = tuple(range(1, 17))
    trace_rate = 40.0
    block_calls = 32

    def make_input(self, index):
        n = self.degree(index)
        return poly.TrigPoly(_gaussian(self.rng(index), 2 * n + 1))

    def call(self, t):
        out = {}
        for key, x in (("t", t), ("dt", t.derivative())):
            out[key] = ([norms.mahler_jensen(x)] + [norms.lp_norm(x, p) for p in LADDER_P]
                        + [norms.sup_norm(x)])
        return out

    def check(self, t, out):
        n = t.degree
        bad = []
        for rung, (d, b) in enumerate(zip(out["dt"], out["t"])):
            if not d <= n * b * (1 + BOUND_TOL):
                bad.append(f"bernstein rung {rung}: {d!r} > {n} * {b!r}")
        for key, x in (("t", t), ("dt", t.derivative())):
            vals = out[key]
            parseval = math.sqrt(float(np.sum(np.abs(x.coeffs) ** 2)))
            if not abs(vals[4] - parseval) <= 1e-12 * parseval:
                bad.append(f"{key}: lp_norm(2) {vals[4]!r} vs parseval {parseval!r}")
            m = 64 * (n + 1)
            grid_max = float(np.abs(_direct_values(x.coeffs, -n, 2 * np.pi * np.arange(m) / m)).max())
            wiener = float(np.abs(x.coeffs).sum())
            sup = vals[6]
            if not (grid_max <= sup * (1 + ROUNDING) and sup <= wiener * (1 + ROUNDING)):
                bad.append(f"{key}: sup {sup!r} outside [{grid_max!r}, {wiener!r}]")
        return 1, bad


class Embedding(Workload):
    """Criterion 8's shape: embedding seminorms against sup, default quadrature."""

    name = "embedding"
    tag = 2
    degrees = tuple(range(1, 17))
    trace_rate = 32.0
    block_calls = 32

    def make_input(self, index):
        n = self.degree(index)
        rng = self.rng(index)
        p = poly.AlgebraicPoly(_gaussian(rng, n + 1))
        u = complex(np.exp(2j * np.pi * rng.random()))
        return p, u

    def call(self, inp):
        p, u = inp
        return {
            "sup": norms.sup_norm(p),
            "wiener": norms.wiener_norm(p),
            "besovinf1": norms.besov_inf1_seminorm(p),
            "besov111": norms.besov_111_seminorm(p),
            "bergman": norms.disk_mean(kernels.bergman_profile(p.degree, u), 2.0),
        }

    def check(self, inp, out):
        n = inp[0].degree
        consts = {
            "wiener": kernels.wiener_bound_constant(n),
            "besovinf1": kernels.besov_inf1_bound_constant(n),
            "besov111": kernels.besov_111_bound_constant(n),
        }
        bad = []
        for kind, const in consts.items():
            ratio = out[kind] / (const * out["sup"])
            if not ratio <= 1 + BOUND_TOL:
                bad.append(f"{kind}: measured/bound {ratio!r}")
        expect = float(kernels.besov_111_terms(n).sum())
        if not abs(out["bergman"] - expect) <= 1e-8 * expect:
            bad.append(f"bergman disk_mean {out['bergman']!r} vs {expect!r}")
        return 1, bad


class HighDegree(Workload):
    """The ladder's layers plus measures and kernels at 4-16x the degree."""

    name = "highdeg"
    tag = 3
    degrees = (32, 64, 128)
    trace_rate = 12.0
    block_calls = 12
    reference = ("large_arrays",)
    bandwidth = 2.0
    boas_terms = 8
    riesz_x = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    boas_x = np.linspace(-8.0, 8.0, 16)
    xi_in = 0.8 * complex(np.exp(0.7j))
    xi_on = complex(np.exp(1.3j))

    def make_input(self, index):
        n = self.degree(index)
        rng = self.rng(index)
        t = poly.TrigPoly(_gaussian(rng, 2 * n + 1))
        freqs = rng.uniform(-self.bandwidth, self.bandwidth, self.boas_terms)
        while np.unique(freqs).size < freqs.size:
            freqs = rng.uniform(-self.bandwidth, self.bandwidth, self.boas_terms)
        f = poly.ExponentialSum(_gaussian(rng, self.boas_terms), freqs, bandwidth=self.bandwidth)
        return t, f

    def call(self, inp):
        t, f = inp
        n = t.degree
        lift = t.to_algebraic()
        out = {
            "sup": norms.sup_norm(t),
            "l1": norms.lp_norm(t, 1.0),
            "l2": norms.lp_norm(t, 2.0),
            "mahler": norms.mahler_jensen(t),
            "riesz": measures.convolve(t, measures.riesz_measure(n), self.riesz_x),
            "d1": kernels.deriv_via_kernel(lift, self.xi_in),
            "d2": kernels.second_deriv_via_kernel(lift, self.xi_in),
            "dtrig": kernels.trig_deriv_via_kernel(t, self.xi_on),
        }
        approx, out["boas_bound"] = measures.boas_derivative(f)
        out["boas"] = approx(self.boas_x)
        return out

    def check(self, inp, out):
        t, f = inp
        n = t.degree
        c = t.coeffs
        bad = []
        residual = poly.roots(t.to_algebraic()).residual
        if not residual <= 1e-10:
            bad.append(f"roots residual {residual!r}")
        lo = max(abs(c[0]), abs(c[-1]))
        hi = math.sqrt(float(np.sum(np.abs(c) ** 2)))
        if not (lo <= out["mahler"] * (1 + LANDAU_SLACK) and out["mahler"] <= hi * (1 + LANDAU_SLACK)):
            bad.append(f"mahler {out['mahler']!r} outside Landau [{lo!r}, {hi!r}]")
        k = np.arange(-n, n + 1)
        ref = _direct_values(1j * k * c, -n, self.riesz_x)
        resid = float(np.abs(out["riesz"] - ref).max())
        if not resid <= 1e-9 * n * out["sup"]:
            bad.append(f"riesz residual {resid!r}")
        j = np.arange(len(c))
        refs = {
            "d1": np.sum(j[1:] * c[1:] * self.xi_in ** (j[1:] - 1.0)),
            "d2": np.sum(j[2:] * (j[2:] - 1.0) * c[2:] * self.xi_in ** (j[2:] - 2.0)),
            "dtrig": np.sum(k * c * self.xi_on ** (k - 1.0)),
        }
        for key, want in refs.items():
            err = abs(out[key] - want) / (1.0 + abs(want))
            if not err <= 1e-9:
                bad.append(f"{key} kernel vs direct {err!r}")
        fref = (np.exp(1j * np.multiply.outer(self.boas_x, f.frequencies))
                @ (1j * f.frequencies * f.amplitudes))
        boas_resid = float(np.abs(out["boas"] - fref).max())
        if not boas_resid <= out["boas_bound"]:
            bad.append(f"boas residual {boas_resid!r} > bound {out['boas_bound']!r}")
        return 1, bad


class Verify(Workload):
    """``polynorm verify`` with the default sweep config, run in-process."""

    name = "verify"
    witness_tol = 1e-8

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.config = os.path.join(workdir, "sweep.json")
        with open(self.config, "w", encoding="utf-8") as handle:
            json.dump({"seed": seed}, handle)
        self.out = os.path.join(workdir, "report")
        self.digests = []

    def trace_blocks(self, seconds):
        return 1

    def make_input(self, index):
        return self.config

    def call(self, config):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(["verify", config, "--out", self.out])

    def warm_up(self):
        small = os.path.join(self.workdir, "warmup.json")
        with open(small, "w", encoding="utf-8") as handle:
            json.dump({"seed": self.seed, "trials": 1, "include_witness_families": False}, handle)
        self.call(small)

    def collect(self, config, rc):
        try:
            with open(self.out + ".jsonl", "rb") as handle:
                blob = handle.read()
        except OSError:
            blob = b""
        self.digests.append(hashlib.sha256(blob).hexdigest())
        return {"rc": rc, "reports": [json.loads(line) for line in blob.splitlines()]}

    def check(self, config, out):
        reports = out["reports"]
        items = max(1, len(reports))
        if out["rc"] != 0:
            return items, [f"cli exit {out['rc']}"] * items
        bad = []
        for rep in reports:
            slack = rep["params"].get("abs_slack")
            limit = rep["bound"] + slack if slack is not None else rep["bound"] * (1 + rep["tol"])
            if not (rep["pass"] and rep["measured"] <= limit):
                bad.append(f"{rep['check_id']} {rep['digest']}: measured {rep['measured']!r} "
                           f"over {limit!r}")
            elif "family" in rep["params"]:
                rel = abs(rep["margin"]) / max(1.0, rep["bound"])
                if not rel <= self.witness_tol:
                    bad.append(f"{rep['check_id']} witness margin {rel!r}")
        return items, bad

    def run_failures(self, source):
        """Every call of a run, and every run of the same sources and seed in
        this checkout, must write the same JSONL; the first run's digest is
        kept in a file beside the run's work directory."""
        if not self.digests:
            return []
        bad = [f"JSONL digest {d} differs from {self.digests[0]}"
               for d in self.digests[1:] if d != self.digests[0]]
        path = os.path.join(os.path.dirname(self.workdir), "verify_digests.json")
        try:
            with open(path, encoding="utf-8") as handle:
                known = json.load(handle)
        except (OSError, ValueError):
            known = {}
        key = f"{source}:{self.seed}"
        if key not in known:
            known[key] = self.digests[0]
            with open(path + ".tmp", "w", encoding="utf-8") as handle:
                json.dump(known, handle, indent=0, sort_keys=True)
            os.replace(path + ".tmp", path)
        elif known[key] != self.digests[0]:
            bad.append(f"JSONL digest {self.digests[0]} differs from an earlier run's {known[key]}")
        return bad


WORKLOADS = {cls.name: cls for cls in (Verify, Ladder, Embedding, HighDegree)}
