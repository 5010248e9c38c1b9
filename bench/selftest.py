"""Self-test of the benchmark. Run from the repository root:

    python3 bench/selftest.py

It checks that:
  * every workload prints each end-to-end metric of BENCHMARK.json with its
    unit (--trace 0) and each per-layer metric with its unit (--trace 1),
    with no failed item;
  * the oracle can fail: one corrupted measured value per workload makes
    failed_frac > 0;
  * in a directory holding only BENCHMARK.json and the benchmark, the command
    exits non-zero without printing a result.
Exits 0 when every check passes, 1 otherwise.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("POLYNORM_THREADS", None)

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TIMEOUT_S = 180

problems = []


def expect(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        problems.append(what)


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_metrics(workload: str, trace: int) -> None:
    proc = run_bench(ROOT, workload, trace)
    if proc.returncode != 0:
        expect(False, f"{workload} --trace {trace} exits 0: {proc.stderr.strip()[-300:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{workload} --trace {trace}: result has exactly the four keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} --trace {trace}: {result['attempted']} attempted, none failed")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    missing = [m["name"] for m in wanted
               if m["name"] not in got or got[m["name"]].get("unit") != m["unit"]]
    expect(not missing, f"{workload} --trace {trace}: all {len(wanted)} metrics with units"
           + (f" (missing or wrong unit: {missing[:5]})" if missing else ""))
    expect(len(got) == len(wanted), f"{workload} --trace {trace}: no extra metrics")


def corrupt_once(corrupt):
    state = {"done": False}

    def tamper(result):
        if not state["done"]:
            corrupt(result)
            state["done"] = True

    return tamper


def _scale(key, factor):
    def corrupt(result):
        result[key] = result[key] * factor
    return corrupt


def _ladder(result):
    result["dt"][6] *= 1e3  # sup norm of T'


def _verify(result):
    rep = result["reports"][0]
    rep["measured"] = 2.0 * abs(rep["bound"]) + 1.0


CORRUPTIONS = {
    "ladder": _ladder,
    "embedding": _scale("besovinf1", 1e3),
    "highdeg": _scale("mahler", 1e3),
    "verify": _verify,
}


def check_oracle_fails() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import measure
    import workloads

    state = ROOT / ".bench_state"
    state.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=state)
    try:
        for name, corrupt in CORRUPTIONS.items():
            wl = workloads.WORKLOADS[name](7, workdir)
            if name == "verify":  # a short sweep: the oracle path is the same
                with open(wl.config, "w", encoding="utf-8") as handle:
                    json.dump({"seed": 7, "trials": 2}, handle)
            res = measure.run_loop(wl, blocks=1, tamper=corrupt_once(corrupt))
            frac = res["failed"] / res["attempted"]
            expect(0 < frac < 1, f"{name}: one corrupted value gives failed_frac {frac:.4f} > 0")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory() -> None:
    state = ROOT / ".bench_state"
    state.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=state)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, SPEC["workloads"][0]["name"], 0)
        printed = [line for line in proc.stdout.splitlines() if line.startswith("{")]
        expect(proc.returncode != 0 and not printed,
               f"without the sources: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    os.chdir(ROOT)
    for spec in SPEC["workloads"]:
        for trace in (0, 1):
            check_metrics(spec["name"], trace)
    check_oracle_fails()
    check_bare_directory()
    print("self-test " + ("passed" if not problems else f"FAILED: {len(problems)} checks"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
