"""polynorm benchmark.

    python3 bench/run.py --workload {verify,ladder,embedding,highdeg} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/`` directory. One process, one thread: BLAS is pinned to one thread and
POLYNORM_THREADS is removed before numpy is imported. The loop is closed: the
next item starts when the previous one and its oracle are done.

With ``--trace 0`` the workload runs for ``--seconds`` and the end-to-end
metrics are printed; set-up time is the median over fresh processes that each
import, generate inputs and finish one warm-up item. With ``--trace 1`` a fixed
amount of work runs untraced and then traced, and the per-layer metrics are
printed. Times are scaled to a reference machine speed (see measure.py). The
last line of standard output is the JSON result; the line before it holds the
details (environment, raw times, sample counts, digests, failures).
"""
from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("POLYNORM_THREADS", None)

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

import measure  # imports numpy, so only after the thread pins above

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".bench_state"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60.0
E2E_UNITS = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p99": "ms",
    "setup_s": "s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="polynorm benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["verify", "ladder", "embedding", "highdeg"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, finish one warm-up item, print 'ready' and exit")
    args = parser.parse_args(argv)
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "polynorm").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_commit": commit,
        "source_sha256": source_digest(),
        "threads_env": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                         "POLYNORM_THREADS")},
    }


def probe_setup(args) -> tuple:
    """(scaled, raw) seconds from spawning a fresh benchmark process to its
    first timed item, scaled by the machine slowdown sampled around the probe."""
    sample = lambda: statistics.median(measure.slowdown() for _ in range(3))
    slow_before = sample()
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("set-up probe timed out")
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()[-500:]}")
    scale = 2.0 / (slow_before + sample())
    return elapsed * scale, elapsed


def fail_whole_run(res, wl, env) -> None:
    """A run-level failure, such as a changed verify digest, fails every item."""
    run_bad = wl.run_failures(env["source_sha256"])
    if run_bad:
        res["failed"] = res["attempted"]
        res["failures"] = (run_bad + res["failures"])[:20]


def end_to_end(args, wl, env) -> tuple:
    res = measure.run_loop(wl, seconds=args.seconds)
    fail_whole_run(res, wl, env)
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    lat = res["latency_ms"]
    p99, pct = measure.tail_percentile(lat)
    values = {
        "items_per_s": measure.items_per_s(res),
        "item_ms_p50": statistics.median(lat),
        "item_ms_p99": p99,
        "setup_s": statistics.median(s for s, _ in setups),
        "ok_frac": 1.0 - res["failed"] / res["attempted"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_lat = res["raw_latency_ms"]
    detail = {
        "latency_samples": len(lat),
        "tail_percentile": pct,
        "calls": res["calls"],
        "blocks": len(res["block_s"]),
        "speed_samples": res["speed_samples"],
        "speed_scale_median": statistics.median(res["scale"]),
        "wall_s": res["wall_s"],
        "raw": {
            "items_per_s": measure.items_per_s(res, scaled=False),
            "items_per_s_mean": res["attempted"] / sum(res["block_s"]),
            "item_ms_p50": statistics.median(raw_lat),
            "item_ms_p99": measure.tail_percentile(raw_lat)[0],
            "setup_s": statistics.median(r for _, r in setups),
        },
        "setup_samples_s": [s for s, _ in setups],
        "failed_frac": res["failed"] / res["attempted"],
        "failures": res["failures"],
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    return res, metrics, detail


def per_layer(args, wl, env) -> tuple:
    import spans

    blocks = wl.trace_blocks(args.seconds)
    base = measure.run_loop(wl, blocks=blocks)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = measure.run_loop(wl, blocks=blocks, tracer=tracer)
    finally:
        tracer.uninstall()
    scale = statistics.median(traced["scale"])
    values, inclusive_ms = tracer.metrics(scale)
    values["trace.overhead_frac"] = 1.0 - measure.items_per_s(traced) / measure.items_per_s(base)
    units = spans.per_layer_metric_units()
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    res = {
        "attempted": base["attempted"] + traced["attempted"],
        "failed": base["failed"] + traced["failed"],
        "failures": (base["failures"] + traced["failures"])[:20],
    }
    fail_whole_run(res, wl, env)
    detail = {
        "calls_per_phase": base["calls"],
        "items_per_s_untraced": measure.items_per_s(base),
        "items_per_s_traced": measure.items_per_s(traced),
        "speed_scale_median": scale,
        "spans": len(tracer.span_name),
        "inclusive_ms_per_call": inclusive_ms,
        "failures": res["failures"],
    }
    return res, metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polynorm" / "__init__.py").is_file():
        print(f"error: no polynorm sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import polynorm

    if Path(polynorm.__file__).resolve().parent != (SRC / "polynorm").resolve():
        print(f"error: imported polynorm from {polynorm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    STATE_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=STATE_DIR)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.warm_up()
        if args.setup_only:
            print("ready", flush=True)
            return 0
        env = environment()
        if args.trace:
            res, metrics, detail = per_layer(args, wl, env)
        else:
            res, metrics, detail = end_to_end(args, wl, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env,
                  verify_jsonl_sha256=sorted(set(getattr(wl, "digests", []))))
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
