"""The benchmark's tracer binds polynorm functions by name; a rename in the
package must fail here, not only in the benchmark's own self-test."""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_tracer_binds_every_traced_name():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    sites = [site for owners, _ in spans._TARGETS.values() for site in owners]
    originals = [getattr(owner, attr) for owner, attr in sites]  # every name resolves
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in zip(sites, originals):
            assert getattr(owner, attr).__wrapped__ is original, attr
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(sites, originals):
        assert getattr(owner, attr) is original, attr
