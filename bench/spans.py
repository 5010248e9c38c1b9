"""Span tracing around polynorm's public functions, from outside the package.

``Tracer.install`` replaces each traced function at every place it is bound:
its defining module and every polynorm module that imported it by name. The
benchmark calls through module attributes, and intra-module calls look names
up in module globals, so both are traced. Methods are replaced on their class.
``uninstall`` restores the originals.

Each span records its name, start, end, parent span and item index, kept in
compact in-memory arrays until ``metrics`` aggregates them. A span's self time
is its duration minus the durations of its direct children; calls are strictly
nested on one thread, so that is the time no child span covers. Spans are only
recorded while ``active`` is true, so the benchmark's oracle stays untraced.
"""
from __future__ import annotations

import os
import sys
from array import array
from time import perf_counter

import numpy as np

from polynorm import checks, cli, kernels, measures, norms, poly, sweep

_CHECK_FUNCS = (
    "check_bernstein",
    "check_malik",
    "check_laguerre",
    "check_lax_malik",
    "check_ankeny_rivlin",
    "check_svdc",
    "check_gauss_lucas",
    "check_embedding",
    "check_dominated_derivative",
    "check_identity_logplus",
    "check_identity_power",
    "check_chi_version",
    "mate_nevai_compare",
)


def _grid_points(args, kwargs, result):
    return int(kwargs["grid"] if "grid" in kwargs else args[1])


def _eval_points(args, kwargs, result):
    return int(np.size(args[1]))


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# span name -> (owner, attribute) pairs it covers, and an optional counter
# (args, kwargs, result) -> work done, summed into "<span>.<unit>"
_TARGETS = {
    "poly.values_on_grid": ([(poly.TrigPoly, "values_on_grid"),
                             (poly.AlgebraicPoly, "values_on_grid")], ("points", _grid_points)),
    "poly.eval": ([(poly.TrigPoly, "__call__"),
                   (poly.AlgebraicPoly, "__call__")], ("points", _eval_points)),
    "poly.roots": ([(poly, "roots")], None),
    "poly.from_roots": ([(poly, "from_roots")], None),
    "poly.generate": ([(poly, "generate")], None),
    **{f"norms.{name}": ([(norms, name)], None) for name in (
        "sup_norm", "sup_norm_argmax", "circle_max", "lp_norm", "mahler_jensen",
        "wiener_norm", "disk_mean", "besov_inf1_seminorm", "besov_111_seminorm")},
    "measures.riesz_measure": ([(measures, "riesz_measure")], None),
    "measures.convolve": ([(measures, "convolve")], None),
    "measures.boas_derivative": ([(measures, "boas_derivative")], None),
    **{f"kernels.{name}": ([(kernels, name)], None) for name in (
        "deriv_via_kernel", "second_deriv_via_kernel", "trig_deriv_via_kernel")},
    **{f"checks.{name}": ([(checks, name)], None) for name in _CHECK_FUNCS},
    "sweep.run_sweep": ([(sweep, "run_sweep")], None),
    "sweep.write_jsonl": ([(sweep, "write_jsonl")], ("bytes", _file_bytes)),
    "sweep.write_csv": ([(sweep, "write_csv")], None),
    "cli.main": ([(cli, "main")], None),
}

# the approximation closure boas_derivative returns has no name of its own
BOAS_EVAL = "measures.boas_eval"
SPAN_NAMES = tuple(_TARGETS) + (BOAS_EVAL,)


def per_layer_metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name, (_, counter) in _TARGETS.items():
        if counter is not None:
            units[f"{name}.{counter[0]}"] = "count"
    units["norms.lp_norm.grids_per_call"] = "ratio"
    units["norms.circle_max.evals_per_call"] = "ratio"
    units["trace.overhead_frac"] = "frac"
    return units


class Tracer:
    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = {name: 0 for name in self.names}
        self.active = False
        self.item = -1
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, counter=None, post=None):
        nid = self._ids[name]
        stack = self._stack
        names, parents, items = self.span_name, self.span_parent, self.span_item
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            items.append(self.item)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                self.counts[name] += counter(args, kwargs, result)
            return post(result) if post is not None else result

        traced.__wrapped__ = fn
        return traced

    def _boas_post(self, result):
        approx, bound = result
        return self._wrap(BOAS_EVAL, approx), bound

    def install(self):
        """Patch every binding of each traced function; methods on their class."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "polynorm" or key.startswith("polynorm."))]
        for name, (sites, counter) in _TARGETS.items():
            count = counter[1] if counter is not None else None
            if isinstance(sites[0][0], type):
                for cls, attr in sites:
                    self._patch(cls, attr, self._wrap(name, cls.__dict__[attr], count))
                continue
            owner, attr = sites[0]
            original = getattr(owner, attr)
            post = self._boas_post if name == "measures.boas_derivative" else None
            wrapper = self._wrap(name, original, count, post)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def metrics(self, scale: float = 1.0):
        """(per-layer metrics, inclusive ms per call of each span that ran);
        durations are multiplied by ``scale``, the run's speed factor."""
        name = np.asarray(self.span_name, dtype=np.intp)
        parent = np.asarray(self.span_parent, dtype=np.intp)
        dur = scale * (np.asarray(self.span_end) - np.asarray(self.span_start))
        k = len(self.names)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child_time
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        incl_s = np.bincount(name, weights=dur, minlength=k)

        out = {}
        for i, span in enumerate(self.names):
            out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.self_s"] = float(self_s[i])
        for span, (_, counter) in _TARGETS.items():
            if counter is not None:
                out[f"{span}.{counter[0]}"] = int(self.counts[span])

        def children_per_call(parent_span, child_span):
            pid, cid = self._ids[parent_span], self._ids[child_span]
            direct = has_parent & (name == cid)
            n_children = int(np.count_nonzero(name[parent[direct]] == pid))
            return n_children / int(calls[pid]) if calls[pid] else 0.0

        out["norms.lp_norm.grids_per_call"] = children_per_call("norms.lp_norm", "poly.values_on_grid")
        out["norms.circle_max.evals_per_call"] = children_per_call("norms.circle_max", "poly.eval")
        inclusive_ms = {span: 1e3 * float(incl_s[i]) / int(calls[i])
                        for i, span in enumerate(self.names) if calls[i]}
        return out, inclusive_ms
