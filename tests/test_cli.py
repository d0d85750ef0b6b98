import functools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import confdim.cli as cli
import confdim.modulus as modulus
import confdim.qsmass as qsmass
from confdim.cantor import GapSequence, build_system
from confdim.dimension import mass_distribution_lower_bound, natural_measure
from confdim.qsmaps import QsMap


def run(tmp_path, command, cfg, name="run", seed=None):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / name
    argv = [command, "--config", str(cfg_path), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return cli.main(argv), out


def test_generate_level_dump(tmp_path):
    code, out = run(tmp_path, "generate",
                    {"system": {"c": {"const": 1 / 3}, "depth": 10}})
    assert code == 0
    lines = (out / "levels.csv").read_text().splitlines()
    assert lines[0] == "depth,index,left,right"
    depth10 = [l for l in lines[1:] if l.startswith("10,")]
    assert len(depth10) == 1024
    manifest = json.loads((out / "manifest.json").read_text())
    assert "levels.csv" in manifest["outputs"]


def test_generate_harmonic_length_telescopes(tmp_path):
    code, out = run(tmp_path, "generate",
                    {"system": {"c": "harmonic", "depth": 12}})
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["truncated_length"] == pytest.approx(1 / 13, rel=1e-12)


def test_generate_invalid_gap_exits_2(tmp_path):
    code, _ = run(tmp_path, "generate", {"system": {"c": {"const": 1.2}, "depth": 3}})
    assert code == 2


def test_missing_field_exits_2(tmp_path):
    code, _ = run(tmp_path, "theorem-a", {"depth": 8})
    assert code == 2


def test_unreadable_config_exits_2(tmp_path):
    out = tmp_path / "x"
    code = cli.main(["generate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(out)])
    assert code == 2


def test_dimension_summary_slope(tmp_path):
    code, out = run(tmp_path, "dimension",
                    {"system": {"c": {"const": 1 / 3}, "depth": 10},
                     "epsilons": {"base": 3.0, "k_min": 1, "k_max": 8}})
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["slope"] == pytest.approx(0.6309297535714574, abs=1e-9)
    body = (out / "boxcounts.csv").read_text().splitlines()
    assert body[0] == "epsilon,count"
    assert len(body) == 9


def test_dimension_mass_bound_matches_a_direct_call(tmp_path):
    d = math.log(2) / math.log(3)
    scales = [3.0 ** -k for k in range(1, 8)]
    code, out = run(tmp_path, "dimension",
                    {"system": {"c": {"const": 1 / 3}, "depth": 10},
                     "epsilons": {"base": 3.0, "k_min": 1, "k_max": 8},
                     "mass_bound": {"d": d, "scales": scales}})
    assert code == 0
    got = json.loads((out / "summary.json").read_text())["mass_bound"]
    assert got["passed"] is True
    leaves = build_system(GapSequence.constant(1 / 3, 10), max_depth=10).level(10)
    rep = mass_distribution_lower_bound(natural_measure(leaves), d, scales, geometry=leaves)
    assert got["C_observed"] == rep.C_observed


def test_distort_identity_clean(tmp_path):
    code, out = run(tmp_path, "distort",
                    {"map": {"kind": "identity"}, "n_pairs": 200}, seed=4)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_bounds_hold"]


def test_mass_reports_certificate(tmp_path):
    code, out = run(tmp_path, "mass",
                    {"system": {"c": "harmonic", "depth": 10},
                     "map": {"kind": "identity"}, "d": 0.9})
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    rows = (out / "pi_factors.csv").read_text().splitlines()
    assert rows[0] == "level,p_max,running_product"
    assert len(rows) == 11


MASS14 = {"system": {"c": "harmonic", "depth": 14},
          "map": {"kind": "power", "a": 2}, "d": 0.9}


def test_mass_pi_factors_match_an_independent_build(tmp_path):
    code, out = run(tmp_path, "mass", MASS14)
    assert code == 0
    rows = (out / "pi_factors.csv").read_text().splitlines()[1:]
    got = np.array([[float(v) for v in row.split(",")[1:]] for row in rows])
    system = build_system(GapSequence.harmonic(14), max_depth=14)
    tree = qsmass.build_image_tree(system, QsMap.power(2.0), 14)
    pf = qsmass.pi_factors(qsmass.build_recursive_measure(tree, 0.9))
    assert np.array_equal(got[:, 0], pf.p)
    assert np.array_equal(got[:, 1], pf.running_products)


def test_mass_builds_the_image_tree_once(tmp_path, monkeypatch):
    calls = []
    build = qsmass.build_image_tree

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(qsmass, "build_image_tree", counted)
    monkeypatch.setattr(cli, "build_image_tree", counted, raising=False)
    code, _ = run(tmp_path, "mass", MASS14)
    assert code == 0
    assert len(calls) == 1


def test_mass_outputs_are_deterministic(tmp_path):
    code1, out1 = run(tmp_path, "mass", MASS14, name="m1")
    code2, out2 = run(tmp_path, "mass", MASS14, name="m2")
    assert code1 == 0 and code2 == 0
    manifest = (out1 / "manifest.json").read_bytes()
    assert manifest == (out2 / "manifest.json").read_bytes()
    for name in json.loads(manifest)["outputs"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("command,cfg", [
    ("generate", {"system": {"c": "harmonic", "depth": 25}}),
    ("mass", {"system": {"c": "harmonic", "depth": 25},
              "map": {"kind": "identity"}, "d": 0.9}),
])
def test_over_the_build_cap_exits_5(tmp_path, capsys, command, cfg):
    tracemalloc.start()
    try:
        code, _ = run(tmp_path, command, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 5
    # the cap is checked before any level is allocated
    assert peak < 2 ** 20
    err = capsys.readouterr().err
    # the level, its count and the cap; no advice to stream, which no command can
    assert err == f"resource error: level 25 holds {2 ** 25} intervals > cap {2 ** 24}\n"


def test_path_product_violation_exits_5(tmp_path, capsys, monkeypatch):
    def violated(tree, d):
        raise AssertionError("path-product bound violated beyond tolerance")

    monkeypatch.setattr(qsmass, "build_recursive_measure", violated)
    code, _ = run(tmp_path, "mass", MASS14)
    assert code == 5
    err = capsys.readouterr().err
    assert err == "internal error: path-product bound violated beyond tolerance\n"


def test_modulus_fuglede_result(tmp_path):
    code, out = run(tmp_path, "modulus",
                    {"problem": {"kind": "fuglede", "mu": [1, 1, 1],
                                 "members": [[1, 1, 0], [0, 1, 1]], "p": 2}})
    assert code == 0
    rows = dict(line.split(",") for line in
                (out / "result.csv").read_text().splitlines()[1:])
    assert float(rows["kkt_residual"]) <= 1e-7


def test_modulus_infeasible_exits_2(tmp_path):
    code, _ = run(tmp_path, "modulus",
                  {"problem": {"kind": "discrete",
                               "balls": [[0.0, 0.5]],
                               "sets": [[0.0], [9.0]], "p": 2}})
    assert code == 2


def test_modulus_solver_failure_exits_4(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "KKT_TOL", -1.0)
    code, _ = run(tmp_path, "modulus",
                  {"problem": {"kind": "fuglede", "mu": [1, 1],
                               "members": [[1, 1]], "p": 2}})
    assert code == 4


DISCRETE_RUNS = {"problem": {"kind": "discrete", "p": 2,
                             "balls": [[float(k), 0.5] for k in range(6)],
                             "sets": [[[0.0, 2.0]], [[1.0, 4.0]], [[3.0, 5.0]]]}}


def test_modulus_stopped_solver_exits_4(tmp_path, monkeypatch):
    # a feasible program whose solve stops after one sweep is a solver
    # failure, not a config error
    stopped = functools.partial(modulus._solve_power_program, max_iter=1)
    monkeypatch.setattr(modulus, "_solve_power_program", stopped)
    code, _ = run(tmp_path, "modulus", DISCRETE_RUNS)
    assert code == 4


def test_modulus_duality_gap_gate_exits_4(tmp_path, monkeypatch):
    def wide_gap(problem):
        n = len(problem.balls)
        return modulus.SolveResult(value=1.0, optimizer=np.ones(n), multipliers=np.ones(1),
                                   kkt_residual=0.0, duality_gap_bound=1e-3, iterations=1)

    monkeypatch.setattr(cli, "solve_discrete", wide_gap)
    code, _ = run(tmp_path, "modulus", DISCRETE_RUNS)
    assert code == 4


def test_theorem_a_pipeline_and_determinism(tmp_path):
    cfg = {
        "depth": 10,
        "maps": [{"kind": "identity"}, {"kind": "dyadic_weight", "rho": 2.0}],
        "d_sweep": [0.9],
        "control": {"c": 1 / 3},
    }
    code1, out1 = run(tmp_path, "theorem-a", cfg, name="ta1", seed=9)
    code2, out2 = run(tmp_path, "theorem-a", cfg, name="ta2", seed=9)
    assert code1 == 0 and code2 == 0
    for name in ("lengths.csv", "minkowski.csv", "certificates.csv", "control.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["all_certificates_pass"] is True
    assert summary["control_all_fail"] is True


def test_theorem_b_bounds_hold(tmp_path):
    code, out = run(tmp_path, "theorem-b",
                    {"system": {"c": "harmonic", "depth": 6},
                     "Y": [[0, 0.25], [0.25, 0.25], [0.5, 0.25], [0.75, 0.25]],
                     "cell_width": 3.0 ** -7, "d_sweep": [0.6]})
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_bounds_hold"] is True


def test_theorem_b_atom_fails_scan_exit_3(tmp_path):
    code, _ = run(tmp_path, "theorem-b",
                  {"system": {"c": "harmonic", "depth": 6},
                   "Y": [[0.0, 1.0]],
                   "cell_width": 3.0 ** -7, "d_sweep": [0.6],
                   "atoms": [[0.0, 0.3]]})
    assert code == 3
