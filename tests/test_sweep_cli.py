import hashlib
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from polynorm import checks as C
from polynorm import norms
from polynorm import sweep
from polynorm.cli import main
from polynorm.errors import InvalidParam
from polynorm.norms import QuadratureConfig
from polynorm.poly import AlgebraicPoly, TrigPoly, from_roots, poly_from_json, poly_to_json


def _small_config(**overrides):
    base = dict(
        checks=["bernstein", "malik", "svdc", "logplus", "power_identity"],
        degrees=[1, 2, 3],
        trials=6,
        p_list=[0.5, 2.0, math.inf],
    )
    base.update(overrides)
    return sweep.SweepConfig(**base)


# ------------------------------------------------------------------ sweep core

def test_sweep_passes_and_summarizes(tmp_path):
    sc = _small_config()
    res = sweep.run_sweep(sc)
    assert res.all_passed
    assert len(res.reports) > len(sc.checks) * sc.trials  # witness families included
    rows = res.summary
    assert all(set(r) == {"check_id", "n", "p", "trials", "min_margin", "pass_rate"} for r in rows)
    assert all(r["pass_rate"] == 1.0 for r in rows)
    out_jsonl = tmp_path / "rep.jsonl"
    out_csv = tmp_path / "sum.csv"
    sweep.write_jsonl(out_jsonl, res.reports)
    sweep.write_csv(out_csv, res.summary)
    lines = out_jsonl.read_text().strip().splitlines()
    assert len(lines) == len(res.reports)
    assert json.loads(lines[0])["check_id"]


@pytest.mark.parametrize("seed", [0xBE2257, 1, 4242])
def test_default_sweep_reports_only_finite_numbers(seed):
    # _report raises on a non-finite measured value or bound, so the default
    # sweep finishing is the check; every report it made is finite
    res = sweep.run_sweep(sweep.SweepConfig(seed=seed))
    assert res.all_passed
    assert all(math.isfinite(r.measured) and math.isfinite(r.bound) for r in res.reports)


def test_sweep_deterministic_bytes(tmp_path):
    paths = []
    for tag in ("a", "b"):
        sc = _small_config()
        res = sweep.run_sweep(sc)
        path = tmp_path / f"{tag}.jsonl"
        sweep.write_jsonl(path, res.reports)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sweep_negative_control_fails_with_witness():
    sc = _small_config(bound_scale=0.99)
    res = sweep.run_sweep(sc)
    assert not res.all_passed
    fails = res.failures()
    assert fails
    # the equality families must break under a shrunken bound, and failing
    # random trials carry their input polynomial as JSON
    random_fails = [r for r in fails if "input" in r.params]
    family_fails = [r for r in fails if "family" in r.params]
    assert family_fails
    for rep in random_fails:
        assert rep.params["input"]["type"] in ("alg", "trig")
    # the witness families come last, per degree and check, and a failing
    # family record embeds its input like a failing trial
    family_args = [args for n in sorted(set(sc.degrees))
                   for check_id, spec in sweep.REGISTRY.items()
                   if spec.family and check_id in sc.checks
                   for args in spec.family_inputs(n, sc)]
    for rep, args in zip(res.reports[-len(family_args):], family_args):
        assert "family" in rep.params
        if not rep.passed:
            back = poly_from_json(rep.params["input"])
            assert type(back) is type(args[0])
            assert back.degree == args[0].degree
            assert np.array_equal(back.coeffs, args[0].coeffs)


def test_sweep_failing_inputs_replay():
    # every failing random trial embeds the very input it checked
    sc = sweep.SweepConfig(degrees=[1, 2], trials=20, bound_scale=0.99,
                           include_witness_families=False)
    res = sweep.run_sweep(sc)
    trials = [(check_id, i) for check_id in sc.checks for i in range(sc.trials)]
    assert len(res.reports) == len(trials)
    replayed = set()
    for (check_id, i), rep in zip(trials, res.reports):
        if rep.passed:
            continue
        spec = sweep.REGISTRY[check_id]
        seed = rep.params["seed"]
        args = spec.build([np.random.default_rng(seed)], sc.degrees[i % len(sc.degrees)], [i],
                          sc)[0]
        back = poly_from_json(rep.params["input"])
        # the batch form on the input as read and as a big-endian copy, and
        # the per-input form, each name it by the same digest
        for poly in (back, type(back)(back.coeffs.astype(">c16"))):
            again = spec.evaluate([(poly,) + args[1:]], rep.tol, sc.cfg())[0]
            assert (again.measured, again.digest) == (rep.measured, rep.digest), check_id
        single = _one_input(check_id, (back,) + args[1:], rep.tol, sc.cfg())
        assert (single.measured, single.digest) == (rep.measured, rep.digest), check_id
        replayed.add(check_id)
    assert {"malik", "svdc", "mate_nevai"} <= replayed


def _one_input(check_id, args, tol, qcfg):
    """The report of the public per-input check function on one input."""
    fn, takes_cfg = {
        "bernstein": (C.check_bernstein, True), "malik": (C.check_malik, False),
        "laguerre": (C.check_laguerre, False), "lax_malik": (C.check_lax_malik, False),
        "ankeny_rivlin": (C.check_ankeny_rivlin, False), "svdc": (C.check_svdc, False),
        "gauss_lucas": (C.check_gauss_lucas, False), "embedding": (C.check_embedding, True),
        "dominated_derivative": (C.check_dominated_derivative, False),
        "logplus": (C.check_identity_logplus, True),
        "power_identity": (C.check_identity_power, False), "chi": (C.check_chi_version, True),
        "mate_nevai": (C.mate_nevai_compare, True),
    }[check_id]
    return fn(*args, tol, qcfg) if takes_cfg else fn(*args, tol)


def _per_input_reports(sc):
    """The sweep's reports made one input at a time by the public check
    functions: every check's trials in trial order, then the witness
    families by ascending degree and in REGISTRY order."""
    qcfg = sc.cfg()
    expected = []

    def finished(rep, args, n, params):
        # a failing trial or family record embeds the input it checked
        rep.params.setdefault("n", n)
        rep.params.update(params)
        rep = sweep._apply_bound_scale(rep, sc.bound_scale)
        if not rep.passed and isinstance(args[0], (AlgebraicPoly, TrigPoly)):
            rep.params["input"] = poly_to_json(args[0])
        return rep

    for check_id in sc.checks:
        spec = sweep.REGISTRY[check_id]
        for i in range(sc.trials):
            seed_i = sweep.trial_seed(sc.seed, check_id, i)
            n = sc.degrees[i % len(sc.degrees)]
            args = spec.build([np.random.default_rng(seed_i)], n, [i], sc)[0]
            rep = _one_input(check_id, args, sweep._check_tol(check_id, sc), qcfg)
            expected.append(finished(rep, args, n, {"trial": i, "seed": seed_i}))
    for n in sorted(set(sc.degrees)) if sc.include_witness_families else ():
        for check_id, spec in sweep.REGISTRY.items():
            if spec.family and check_id in sc.checks:
                for args in spec.family_inputs(n, sc):
                    rep = _one_input(check_id, args, sweep._check_tol(check_id, sc), qcfg)
                    expected.append(finished(rep, args, n, {"family": spec.family}))
    return expected


def _assert_same_reports(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


@pytest.mark.parametrize("seed", [1, 4242])
@pytest.mark.parametrize("bound_scale", [1.0, 0.99])
def test_sweep_equals_per_input_checks(seed, bound_scale):
    # grouping a degree's trials and witness family changes no byte of any report
    sc = sweep.SweepConfig(trials=40, seed=seed, bound_scale=bound_scale)
    got = sweep.run_sweep(sc).reports
    _assert_same_reports(got, _per_input_reports(sc))
    assert (bound_scale < 1.0) == any(not r.passed for r in got)


@pytest.mark.parametrize("fields", [
    # fewer trials than degrees: degrees 3 and 4 have no trial, but their families
    {"degrees": [1, 2, 3, 4], "trials": 2},
    {"degrees": [1, 2, 3], "trials": 7, "include_witness_families": False},
    # a repeated degree: its trials form one group, and its family comes once
    {"degrees": [2, 3, 2], "trials": 7},
    # failing trial and family records embed their inputs
    {"degrees": [1, 2, 3], "trials": 7, "bound_scale": 0.99},
])
def test_sweep_groups_keep_the_order_and_bytes_of_per_input_checks(fields):
    # checks listed out of REGISTRY order: the families still come in REGISTRY order
    sc = sweep.SweepConfig(checks=["svdc", "gauss_lucas", "lax_malik", "malik", "bernstein",
                                   "power_identity"], p_list=[0.5, 2.0, math.inf], seed=7,
                           **fields)
    got = sweep.run_sweep(sc).reports
    _assert_same_reports(got, _per_input_reports(sc))
    families = [(r.params["n"], r.check_id) for r in got if "family" in r.params]
    if sc.include_witness_families:
        order = list(sweep.REGISTRY)
        assert families == sorted(families, key=lambda f: (f[0], order.index(f[1])))
        assert {n for n, _ in families} == set(sc.degrees)
    else:
        assert not families
    assert (sc.bound_scale < 1.0) == any(not r.passed for r in got)


def test_mate_nevai_uses_sharp_bound():
    # z^4 attains ||P'||_p = n ||P||_p, so a 1% shrink of the sharp bound fails it
    rep = sweep.REGISTRY["mate_nevai"].evaluate([(AlgebraicPoly([0, 0, 0, 0, 1]), 0.5)], 1e-8,
                                                QuadratureConfig())[0]
    assert rep.passed
    assert rep.bound == pytest.approx(4.0, rel=1e-10)
    assert rep.params["mate_nevai_bound"] == pytest.approx(4.0 * (4.0 * math.e) ** 2, rel=1e-10)
    assert not sweep._apply_bound_scale(rep, 0.99).passed


def test_sweep_per_trial_seed_independent_of_order():
    assert sweep.trial_seed(1, "bernstein", 5) != sweep.trial_seed(1, "bernstein", 6)
    assert sweep.trial_seed(1, "bernstein", 5) != sweep.trial_seed(1, "malik", 5)
    assert sweep.trial_seed(1, "bernstein", 5) == sweep.trial_seed(1, "bernstein", 5)


def test_sweep_config_validation_and_round_trip():
    with pytest.raises(InvalidParam):
        sweep.SweepConfig(trials=0)
    with pytest.raises(InvalidParam):
        sweep.SweepConfig(degrees=[0, 1])
    with pytest.raises(InvalidParam):
        sweep.SweepConfig(checks=["nope"])
    sc = _small_config()
    back = sweep.SweepConfig.from_json(json.loads(json.dumps(sc.to_json())))
    assert back == sc


def test_sweep_config_rejects_p_not_at_least_zero():
    # refused when parsed, not deep inside lp_norm during the sweep
    for p in ("nan", float("nan"), "-inf", -0.5):
        with pytest.raises(InvalidParam):
            C.parse_p(p)
        with pytest.raises(InvalidParam):
            sweep.SweepConfig.from_json({"p_list": [p]})
    assert C.parse_p("sup") == C.parse_p("Infinity") == C.parse_p("inf") == math.inf


def test_sweep_config_rejects_bad_rho_radius_tol_and_chi():
    nan, inf = float("nan"), float("inf")
    bad = [{"rho_list": [nan]}, {"rho_list": [0.5]}, {"rho_list": [inf]},
           {"radius_list": [nan]}, {"radius_list": [1.0]}, {"radius_list": [inf]},
           {"tol": nan}, {"tol": -1.0}, {"hull_tol": inf}, {"tol_overrides": {"malik": nan}},
           {"chi_list": ["x^inf"]}, {"chi_list": ["x^nan"]}, {"chi_list": ["x^-1"]}]
    for fields in bad:
        with pytest.raises(InvalidParam):
            sweep.SweepConfig.from_json(fields)
    sweep.SweepConfig.from_json({"rho_list": [1.0], "radius_list": [1.01], "tol": 0.0})


@pytest.mark.parametrize("fields", [
    {"trials": 2.5}, {"trials": True}, {"degrees": [2.5]}, {"degrees": [1, 2.0]},
    {"seed": "x"}, {"seed": 1.5}])
def test_sweep_config_refuses_non_integer_trials_degrees_and_seed(fields):
    with pytest.raises(InvalidParam):
        sweep.SweepConfig.from_json(fields)


@pytest.mark.parametrize("fields", [
    {"p_list": 5}, {"p_list": [[1]]}, {"p_list": [{"p": 1}]}, {"tol_overrides": [1]},
    {"chi_list": [5]}, {"rho_list": 2.0}, {"tol_overrides": {"gauss_lukas": 1e-3}},
    {"checks": ["malik", "malik"]}])
def test_cli_verify_refuses_config_fields_of_the_wrong_type(tmp_path, capsys, fields):
    # a field of the wrong JSON type is bad input (exit 2), not a traceback;
    # so are an override of no check, which would be ignored, and a check
    # listed twice, which would run its trials twice and write each report twice
    cfg_path = tmp_path / "cfg.json"
    out = str(tmp_path / "run")
    cfg_path.write_text(json.dumps({"checks": ["logplus"], "trials": 2, "degrees": [1], **fields}))
    assert main(["verify", str(cfg_path), "--out", out]) == 2
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists(out + ".jsonl")
    with pytest.raises(InvalidParam):
        sweep.SweepConfig.from_json(fields)


@pytest.mark.parametrize("quadrature", [
    {"bogus": 1}, {"rel_tol": math.nan}, {"max_doublings": 2.5}, [16]])
def test_cli_verify_refuses_bad_quadrature_when_read(tmp_path, capsys, quadrature):
    # refused with the rest of the config (exit 2), before any check runs
    cfg_path = tmp_path / "cfg.json"
    out = str(tmp_path / "run")
    cfg_path.write_text(json.dumps({"checks": ["logplus"], "trials": 2, "degrees": [1],
                                    "quadrature": quadrature}))
    assert main(["verify", str(cfg_path), "--out", out]) == 2
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists(out + ".jsonl")


def test_cli_verify_refuses_empty_list_a_check_reads(tmp_path, capsys):
    # an empty list is refused when a selected check cycles through it, and
    # accepted when none does
    cfg_path = tmp_path / "cfg.json"
    out = str(tmp_path / "run")
    for check_id, field in (("laguerre", "rho_list"), ("lax_malik", "rho_list"),
                            ("ankeny_rivlin", "rho_list"), ("ankeny_rivlin", "radius_list"),
                            ("bernstein", "p_list"), ("chi", "chi_list")):
        cfg_path.write_text(json.dumps({"checks": [check_id], field: [], "trials": 2,
                                        "degrees": [1]}))
        assert main(["verify", str(cfg_path), "--out", out]) == 2, (check_id, field)
        assert not os.path.exists(out + ".jsonl")
    cfg_path.write_text(json.dumps({"checks": ["malik"], "rho_list": [], "p_list": [],
                                    "trials": 2, "degrees": [1]}))
    assert main(["verify", str(cfg_path), "--out", out]) == 0
    capsys.readouterr()


def test_sweep_circle_means_calls_do_not_grow_with_trials(monkeypatch):
    # each group stacks its circle means: mapping a per-input check over a
    # group would make the count grow with the trials
    calls = []
    engine = norms._circle_means

    def counted(*args, **kwargs):
        calls.append(1)
        return engine(*args, **kwargs)

    monkeypatch.setattr(norms, "_circle_means", counted)
    monkeypatch.setattr(C, "_circle_means", counted)
    counts = []
    for trials in (7, 28):
        calls.clear()
        sweep.run_sweep(sweep.SweepConfig(
            checks=["bernstein", "chi", "mate_nevai", "logplus", "embedding"], degrees=[4],
            trials=trials))
        counts.append(len(calls))
    assert counts[0] == counts[1]
    assert counts[0] > 0


# ------------------------------------------------------------------------- CLI

def _write_poly(tmp_path, name, poly):
    path = tmp_path / name
    path.write_text(json.dumps(poly_to_json(poly)))
    return str(path)


def test_cli_norm(tmp_path, capsys):
    path = _write_poly(tmp_path, "twocos.json", TrigPoly([1, 0, 1]))
    assert main(["norm", path, "--kind", "lp", "--p", "2"]) == 0
    out = capsys.readouterr().out.strip()
    # 15 significant digits of sqrt(2), %g-style trailing-zero stripping
    assert out == "1.4142135623731"

    assert main(["norm", path, "--kind", "sup"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cli_norm_mahler_and_wiener(tmp_path, capsys):
    lift = _write_poly(tmp_path, "lift.json", TrigPoly([-1, 0, 2]))
    assert main(["norm", lift, "--kind", "mahler"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    from polynorm.poly import AlgebraicPoly

    wpath = _write_poly(tmp_path, "w.json", AlgebraicPoly([1, 1, 1]))
    assert main(["norm", wpath, "--kind", "wiener"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_cli_norm_mahler_exits_2_on_unconverged_roots(tmp_path, capsys):
    # 16 clusters of four roots 1e-3 apart at d = 64: Aberth runs out of sweeps
    rng = np.random.default_rng(64)
    centres = rng.uniform(0.5, 1.5, 16) * np.exp(2j * np.pi * rng.random(16))
    near = centres[:, None] + 1e-3 * np.exp(2j * np.pi * rng.random((16, 4)))
    path = _write_poly(tmp_path, "clusters.json",
                       AlgebraicPoly(np.asarray(from_roots(near.ravel()).coeffs)))
    assert main(["norm", path, "--kind", "mahler"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "did not converge" in captured.err


def test_cli_norm_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "alg", "degree": 2, "coeffs": [[1, 0]]}')
    assert main(["norm", str(bad), "--kind", "sup"]) == 2
    assert "error:" in capsys.readouterr().err
    # a degree that is not an integer is refused, not truncated to one
    bad.write_text('{"type": "alg", "degree": 1.7, "coeffs": [[1, 0], [2, 0]]}')
    assert main(["norm", str(bad), "--kind", "sup"]) == 2
    assert "degree" in capsys.readouterr().err
    # non-finite values are rejected when the file is read, not printed as nan
    nan = tmp_path / "nan.json"
    nan.write_text('{"type": "alg", "degree": 1, "coeffs": [[NaN, 0], [1, 0]]}')
    assert main(["norm", str(nan), "--kind", "sup"]) == 2
    assert "finite" in capsys.readouterr().err
    inf = tmp_path / "inf.json"
    inf.write_text('{"type": "trig", "degree": 0, "coeffs": [[1, -Infinity]]}')
    assert main(["norm", str(inf), "--kind", "sup"]) == 2
    for terms, bandwidth in (("[[1, 0, NaN]]", 2), ("[[Infinity, 0, 1]]", 2), ("[[1, 0, 1]]", "Infinity")):
        expsum = tmp_path / "expsum.json"
        expsum.write_text(f'{{"type": "expsum", "bandwidth": {bandwidth}, "terms": {terms}}}')
        assert main(["diff", str(expsum), "--method", "direct", "--at", "0.5"]) == 2
    assert "finite" in capsys.readouterr().err


def test_cli_norm_names_a_malformed_cfg_file(tmp_path, capsys):
    poly = _write_poly(tmp_path, "p.json", AlgebraicPoly([1, 1]))
    cfg = tmp_path / "quad.json"
    cfg.write_text("{max_doublings: 3}")
    assert main(["norm", poly, "--kind", "lp", "--p", "1", "--cfg", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and "Expecting property name" in err


def test_cli_diff_direct_and_riesz(tmp_path, capsys):
    exp1 = _write_poly(tmp_path, "e1.json", TrigPoly([0, 0, 1]))
    assert main(["diff", exp1, "--method", "direct", "--at", str(np.pi / 2)]) == 0
    out = capsys.readouterr().out
    assert "derivative = -1" in out

    rng = np.random.default_rng(6)
    t = TrigPoly((rng.standard_normal(9) + 1j * rng.standard_normal(9)) / np.sqrt(2))
    tpath = _write_poly(tmp_path, "t.json", t)
    assert main(["diff", tpath, "--method", "riesz", "--at", "0.7"]) == 0
    out = capsys.readouterr().out
    resid = float(out.strip().splitlines()[-1].split("=")[1])
    assert resid < 1e-9

    assert main(["diff", tpath, "--method", "kernel", "--at", "0.7"]) == 0
    out = capsys.readouterr().out
    resid = float(out.strip().splitlines()[-1].split("=")[1])
    assert resid < 1e-10


def test_cli_diff_boas(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(
        json.dumps(
            {
                "type": "expsum",
                "bandwidth": 1.5,
                "terms": [[1, 0, 1.0], [0, 1, -0.6]],
            }
        )
    )
    assert main(["diff", str(path), "--method", "boas", "--at", "0.3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    resid = float(lines[1].split("=")[1])
    bound = float(lines[2].split("=")[1])
    assert resid <= bound


def test_cli_diff_incompatible(tmp_path, capsys):
    # each input type refuses the methods it does not support, naming those it does
    trig = _write_poly(tmp_path, "t.json", TrigPoly([1, 0, 1]))
    alg = _write_poly(tmp_path, "a.json", AlgebraicPoly([1, 2, 3]))
    expsum = tmp_path / "e.json"
    expsum.write_text(json.dumps({"type": "expsum", "bandwidth": 1.5, "terms": [[1, 0, 1.0]]}))
    for path, method, err in (
            (str(expsum), "kernel", "error: exponential sums support methods: direct, boas\n"),
            (trig, "boas", "error: trig polynomials support methods: direct, riesz, kernel\n"),
            (alg, "riesz", "error: algebraic polynomials support methods: direct, kernel\n")):
        assert main(["diff", path, "--method", method, "--at", "0.3"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err)


def test_cli_diff_kernel_on_algebraic_input_at_a_complex_point(tmp_path, capsys):
    p = AlgebraicPoly([0.5 - 1j, 2.0, 0.25j, -1.0])
    path = _write_poly(tmp_path, "a.json", p)
    at = 0.5 + 0.3j
    assert main(["diff", path, "--method", "kernel", "--at", "0.5+0.3j"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split(" = ")[0] for line in lines] == ["derivative", "residual_vs_direct"]
    val = complex(lines[0].split(" = ")[1])
    assert val == pytest.approx(complex(p.derivative()(at)), abs=1e-12)
    assert float(lines[1].split(" = ")[1]) < 1e-12


def test_cli_verify_exit_codes(tmp_path, capsys):
    cfg = {
        "checks": ["bernstein", "malik"],
        "degrees": [1, 2],
        "trials": 4,
        "p_list": [2.0, "inf"],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_prefix = str(tmp_path / "run")
    assert main(["verify", str(cfg_path), "--out", out_prefix]) == 0
    capsys.readouterr()
    assert os.path.exists(out_prefix + ".jsonl")
    assert os.path.exists(out_prefix + ".csv")

    # negative control: shrunken bounds must fail and dump witnesses
    assert (
        main(["verify", str(cfg_path), "--out", out_prefix, "--debug-shrink-bound", "0.99"]) == 1
    )
    err = capsys.readouterr().err
    assert "FAILURES" in err

    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"checks": ["nope"]}')
    assert main(["verify", str(bad_cfg)]) == 2
    capsys.readouterr()


def test_cli_verify_deterministic_output(tmp_path, capsys):
    cfg = {"checks": ["bernstein"], "degrees": [1, 2], "trials": 5, "p_list": [1.0]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    blobs = []
    for tag in ("x", "y"):
        prefix = str(tmp_path / tag)
        assert main(["verify", str(cfg_path), "--out", prefix]) == 0
        capsys.readouterr()
        blobs.append(Path(prefix + ".jsonl").read_bytes())
    assert blobs[0] == blobs[1]


# sha256 of the default sweep's JSONL and CSV at three seeds, and of its
# numbers: the JSONL with every record's digest removed (_numbers_sha256)
DEFAULT_SWEEP_DIGESTS = {
    0xBE2257: ("28e614a5ac70d63f9745eaf985b42f2b2f14126b3fec0df282e5fd37080b403a",
               "a8c61d8b8d6e79884af412fa8e875f21ba648ad104dddd90302761613ad19210",
               "7f764ec2c0e82f7b3cf1b8a4f17aacf4a3157ef1bc5c7a1b06ca7c7477a20979"),
    1: ("b4d44a397ffba54e7bedd3887f319eb223fbea0700ae97a22be377b03063982f",
        "9ea8c9207ecdbd36e8aec3e031f1e8095d0a33c9b88d29159f00d5dad19d8277",
        "c572d8615f4ca0aac882a317937f23026f1b1426c84e28d589028d257e56a407"),
    4242: ("ef95e85e6c6bec1891d88d7228d8d36ec070dd9d8ac7f2e31ed2375bd76a98ef",
           "bd4a14e6f106d9d509a1e6463d6adbb49514623773e899e0a3d6b789edfc645c",
           "5f6d367c2d9e2edf2942098f2eda24e388e2bc362538bf330b0a778c0de28365"),
}


def _numbers_sha256(jsonl: bytes) -> str:
    """sha256 of the JSONL's records with their digest key removed, each
    re-dumped by json.dumps(sort_keys=True) on its own line: it moves only
    when a report's numbers, verdicts or params do, not its input's name."""
    records = [json.loads(line) for line in jsonl.splitlines()]
    for rec in records:
        rec.pop("digest", None)
    text = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(DEFAULT_SWEEP_DIGESTS))
def test_cli_verify_default_sweep_output_is_pinned(tmp_path, capsys, seed):
    """The default sweep's output, byte for byte, as in test_engine_bits.py:
    a change that only reorders or speeds up work keeps every digest, and
    one that moves output on purpose re-records the digests it moves and
    lists the moved reports, with their largest change, in CHANGES.md. A
    change of the report digest's format alone moves the JSONL digest and
    keeps the numbers digest. The digests were recorded under OpenBLAS's
    SkylakeX kernel; the grid product rounds differently under Haswell and
    Prescott, so they hold on SkylakeX only."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": seed}))
    prefix = str(tmp_path / "out")
    assert main(["verify", str(cfg_path), "--out", prefix]) == 0
    capsys.readouterr()
    jsonl, csv = (Path(prefix + ext).read_bytes() for ext in (".jsonl", ".csv"))
    digests = (hashlib.sha256(jsonl).hexdigest(), hashlib.sha256(csv).hexdigest(),
               _numbers_sha256(jsonl))
    assert digests == DEFAULT_SWEEP_DIGESTS[seed]


def test_cli_verify_profile_leaves_outputs_alone(tmp_path, capsys):
    cfg = {"checks": ["bernstein", "malik", "gauss_lucas"], "degrees": [1, 2, 3], "trials": 7,
           "p_list": [1.0, "inf"]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    plain, profiled = str(tmp_path / "plain"), str(tmp_path / "profiled")
    assert main(["verify", str(cfg_path), "--out", plain]) == 0
    profile_path = tmp_path / "profile.json"
    assert main(["verify", str(cfg_path), "--out", profiled, "--profile", str(profile_path)]) == 0
    capsys.readouterr()
    for ext in (".jsonl", ".csv"):
        assert Path(plain + ext).read_bytes() == Path(profiled + ext).read_bytes()
    profile = json.loads(profile_path.read_text())
    assert profile["sweep_s"] > 0.0
    checks = profile["checks"]
    assert set(checks) == {"bernstein", "malik", "gauss_lucas"}
    # one group per degree: its trials with its witness family
    assert [checks[c]["groups"] for c in ("bernstein", "malik", "gauss_lucas")] == [3, 3, 3]
    assert [checks[c]["reports"] for c in ("bernstein", "malik", "gauss_lucas")] == [13, 10, 7]
    assert all(entry["check_s"] > 0.0 and entry["build_s"] > 0.0 for entry in checks.values())


def test_cli_verify_profile_times_the_writes(tmp_path, capsys, monkeypatch):
    # write_s is the wall time of the JSONL and CSV serialization, kept apart
    # from sweep_s, and it goes to the profile only
    writes = {"write_jsonl": sweep.write_jsonl, "write_csv": sweep.write_csv}

    def slow(name):
        def write(*args):
            time.sleep(0.1)
            writes[name](*args)
        return write

    for name in writes:
        monkeypatch.setattr(sweep, name, slow(name))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"checks": ["malik"], "degrees": [2], "trials": 2}))
    profile_path = tmp_path / "profile.json"
    prefix = str(tmp_path / "out")
    assert main(["verify", str(cfg_path), "--out", prefix, "--profile", str(profile_path)]) == 0
    capsys.readouterr()
    profile = json.loads(profile_path.read_text())
    assert set(profile) == {"sweep_s", "write_s", "checks"}
    assert profile["write_s"] >= 0.2
    assert 0.0 < profile["sweep_s"] < profile["write_s"]
    assert b"write_s" not in Path(prefix + ".jsonl").read_bytes()


def test_cli_constants(capsys):
    assert main(["constants", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "= 2" in out  # sqrt(n+1) for n = 3
    assert "1.53333333333333" in out  # 23/15
    assert "1.000000000000" in out  # weight identity to 12 digits
    assert "2.000000000000" in out  # the alternate-prefactor variant
    assert main(["constants", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "besov_111_bound" in out and "= 2" in out
    assert main(["constants", "--n", "0"]) == 2
    capsys.readouterr()


def test_cli_verify_refuses_bad_flags_and_config(tmp_path, capsys):
    # the flags are validated with the config they override: each bad value exits 2
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"checks": ["laguerre", "chi"], "degrees": [1], "trials": 2}))
    out = str(tmp_path / "run")
    for flags in (["--trials", "0"], ["--trials", "-3"], ["--debug-shrink-bound", "5"],
                  ["--tol", "nan"], ["--tol", "-1"], ["--rho", "nan"], ["--rho", "0.5"]):
        assert main(["verify", str(cfg_path), "--out", out, *flags]) == 2, flags
        assert not os.path.exists(out + ".jsonl")
    for fields in ({"rho_list": [float("nan")]}, {"chi_list": ["x^inf"]}):
        cfg_path.write_text(json.dumps({"checks": ["laguerre", "chi"], "degrees": [1],
                                        "trials": 2, **fields}))
        assert main(["verify", str(cfg_path), "--out", out]) == 2, fields
        assert not os.path.exists(out + ".jsonl")
    cfg_path.write_text("[1, 2]")
    assert main(["verify", str(cfg_path), "--out", out]) == 2
    capsys.readouterr()
