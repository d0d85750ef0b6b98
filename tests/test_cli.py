import contextlib
import copy
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import confdim
import confdim.cantor as cantor
import confdim.cli as cli
import confdim.dimension as dimension
import confdim.modulus as modulus
import confdim.qsmaps as qsmaps
import confdim.qsmass as qsmass
from confdim.cantor import GapSequence, build_system
from confdim.dimension import DiscreteMeasure, mass_distribution_lower_bound
from confdim.qsmaps import QsMap


def _env_with_this_package() -> dict:
    """The environment for a child python that imports the confdim under test."""
    src = str(Path(confdim.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run(tmp_path, command, cfg, name="run", seed=None):
    cfg_path = tmp_path / f"{name}.json"
    # JSON has no infinity: an entry of inf is written as 1e400, which overflows to it
    cfg_path.write_text(json.dumps(cfg).replace("Infinity", "1e400"))
    out = tmp_path / name
    argv = [command, "--config", str(cfg_path), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return cli.main(argv), out


def _csv_rows(path):
    with path.open() as fh:
        return list(csv.DictReader(fh))


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


def test_short_uniform_gap_sequence_exits_2(tmp_path, capsys):
    spec = {"kind": "uniform", "gammas": [0.1, 0.1], "n_children": [3, 3], "depth": 4}
    code, _ = run(tmp_path, "generate", {"system": spec})
    assert code == 2
    assert "need at least 4 gap fractions, have 2" in capsys.readouterr().err


def test_missing_gap_file_exits_2_before_any_work(tmp_path, capsys):
    spec = {"c": {"file": str(tmp_path / "missing.txt")}, "depth": 3}
    code, out = run(tmp_path, "generate", {"system": spec})
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read gap file") and err.count("\n") == 1
    assert list(out.iterdir()) == []


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
    rep = mass_distribution_lower_bound(leaves, d, scales)
    assert got["C_observed"] == rep.C_observed


def test_distort_identity_clean(tmp_path):
    code, out = run(tmp_path, "distort",
                    {"map": {"kind": "identity"}, "n_pairs": 200}, seed=4)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_bounds_hold"]


@pytest.mark.parametrize("interval,code", [
    ([0.0, 1e-10], 0), ([0.0, 1e-13], 0), ([1.0, 1.0], 2), ([1.0, 0.0], 2),
], ids=["width-1e-10", "width-1e-13", "empty", "reversed"])
def test_distort_on_a_narrow_or_empty_interval_returns(tmp_path, interval, code):
    # a redraw loop with an absolute threshold spun forever on such intervals,
    # so the run gets its own process and a time limit
    cfg = tmp_path / "distort.json"
    cfg.write_text(json.dumps({"map": {"kind": "identity"}, "n_pairs": 200,
                               "interval": interval}))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "confdim.cli", "distort", "--config",
                           str(cfg), "--out", str(out)],
                          env=_env_with_this_package(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pairs_tested"] == 200 and summary["all_bounds_hold"]
    else:
        assert "field 'interval'" in proc.stderr and list(out.iterdir()) == []


def _per_pair_draws(seed, lo, hi, n):
    """The oracle: `distort`'s samples drawn one pair at a time, each redraw at once."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        b = np.sort(rng.uniform(lo, hi, 4))
        while b[-1] - b[0] < 1e-9 * (hi - lo):
            b = np.sort(rng.uniform(lo, hi, 4))
        a = np.sort(rng.uniform(b[0], b[-1], 2))
        while a[1] - a[0] < 1e-12 * (hi - lo):
            a = np.sort(rng.uniform(b[0], b[-1], 2))
        mid = rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo))
        g = rng.uniform(1e-4, 0.15) * (hi - lo)
        x1 = np.sort(rng.uniform(lo, mid - g / 2, 3))
        x2 = np.sort(rng.uniform(mid + g / 2, hi, 3))
        rows.append((a, np.concatenate([a, b]), x1, x2))
    return [np.array(column) for column in zip(*rows)]


@pytest.mark.parametrize("lo,hi", [(-1.0, 1.0), (0.0, 1.0), (-5.0, 3.0), (0.0, 1e-10),
                                   (0.3, 0.30000001)])
@pytest.mark.parametrize("seed", [0, 4, 17])
def test_distort_draws_equal_the_per_pair_loop_bitwise(lo, hi, seed):
    want = _per_pair_draws(seed, lo, hi, 1000)
    got = cli._distortion_samples(np.random.default_rng(seed), lo, hi, 1000)
    for w, g in zip(want, got, strict=True):
        assert g.tobytes() == w.tobytes()


_ETAS = {"power2": qsmaps.EtaModulus.power(4.2360679777, 2.0),
         "tight": qsmaps.EtaModulus.power(1.5, 1.2),
         "tabulated": qsmaps.EtaModulus.tabulated([0.1, 1.0, 10.0], [0.1, 1.0, 10.0])}


@pytest.mark.parametrize("eta", sorted(_ETAS))
@pytest.mark.parametrize("f", [QsMap.identity(), QsMap.power(2.0), QsMap.power(3.0),
                               QsMap.dyadic_weight(rho=3.0, seed=2)],
                         ids=["identity", "x^2", "x^3", "dyadic"])
def test_array_distortion_checks_equal_one_pair_calls_row_by_row(f, eta):
    eta = _ETAS[eta]
    a, b, x1, x2 = cli._distortion_samples(np.random.default_rng(3), 0.0, 1.0, 300)
    rows = qsmaps.distortion_check(f, a, b, eta), qsmaps.distortion_gap_check(f, x1, x2, eta)
    for i in range(300):
        ones = (qsmaps.distortion_check(f, a[i], b[i], eta),
                qsmaps.distortion_gap_check(f, x1[i], x2[i], eta))
        for row, one in zip(rows, ones):
            got = (row.lower[i], row.ratio[i], row.upper[i], row.ok[i])
            assert got == (one.lower, one.ratio, one.upper, one.ok)


class _Blocks:
    """A stand-in generator whose ``random`` returns the given blocks in turn."""

    def __init__(self, *blocks):
        self.blocks = list(blocks)

    def random(self, shape):
        block = self.blocks.pop(0)
        assert block.shape == shape
        return block.copy()


def test_distort_redraws_a_degenerate_row_whole_after_the_block():
    draws = np.random.default_rng(0).random((7, 14))
    block, first, second = draws[:4], draws[4:6], draws[6:]
    block[1, :4] = 0.5       # B of row 1 is one point
    block[2, 4:6] = 0.25     # A of row 2 is one point
    first[0, 4:6] = 0.75     # and row 1's first redraw is degenerate again
    got = cli._distortion_samples(_Blocks(block, first, second), 0.0, 1.0, 4)
    want = block.copy()
    want[1], want[2] = second[0], first[1]
    assert all(g.tobytes() == w.tobytes() for g, w in
               zip(got, cli._distortion_samples(_Blocks(want), 0.0, 1.0, 4), strict=True))
    a, b, x1, x2 = got
    eta = qsmaps.EtaModulus.power(4.2360679777, 2.0)
    assert np.all(qsmaps.distortion_check(QsMap.power(2.0), a, b, eta).ok)
    assert np.all(qsmaps.distortion_gap_check(QsMap.power(2.0), x1, x2, eta).ok)


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
    tree = qsmass.build_image_tree(system, QsMap.power(2.0))
    p_max = qsmass.build_recursive_measure(tree, 0.9, np.empty(0, dtype=np.intp)).p_max
    assert np.array_equal(got[:, 0], p_max)
    assert np.array_equal(got[:, 1], np.cumprod(p_max))


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


_UNIFORM = {"kind": "uniform", "gammas": [0.1, 0.2, 0.05, 0.1, 0.15, 0.1, 0.2, 0.05, 0.1, 0.1],
            "n_children": [3, 2, 4, 3, 2, 3, 4, 4, 3, 4]}
_MASS_BOUND = {"d": 0.8, "scales": [2.0 ** -k for k in range(1, 11)]}


@pytest.mark.parametrize("command,cfg,depths", [
    ("generate", {"system": {"c": "harmonic"}}, (12, 14)),
    ("dimension", {"system": {"c": {"const": 1 / 3}}, "mass_bound": _MASS_BOUND,
                   "epsilons": {"base": 3.0, "k_min": 1, "k_max": 10}}, (12, 14)),
    ("dimension", {"system": {"c": "harmonic"}, "mass_bound": _MASS_BOUND,
                   "epsilons": {"base": 2.0, "k_min": 1, "k_max": 14}}, (12, 14)),
    ("dimension", {"system": _UNIFORM, "epsilons": [0.1, 0.01, 0.001],
                   "mass_bound": _MASS_BOUND}, (6, 9)),
    ("theorem-b", {"system": {"c": "harmonic"}, "Y": [[0.0, 1.0]]}, (12, 14)),
    ("theorem-b", {"system": {"c": "harmonic"}, "Y": [[0.0, 1.0]],
                   "atoms": [[0.5, 0.01], [0.0, 0.001], [0.99, 0.003]]}, (12, 14)),
], ids=["generate", "dimension-third", "dimension-harmonic", "dimension-uniform", "theorem-b",
        "theorem-b-atoms"])
def test_generated_levels_are_read_in_blocks_with_the_stored_levels_bits(
        tmp_path, capsys, monkeypatch, command, cfg, depths):
    shallow, deep = ({**cfg, "system": {**cfg["system"], "depth": depth}} for depth in depths)
    # the default stores the shallow leaves (2^12, or 432 uniform ones); with a stored
    # count of 2^6 the deepest levels are generated, and read in blocks of 2^6 and 2^8
    code, stored = run(tmp_path, command, shallow, name="stored")
    assert code == 0, capsys.readouterr().err
    monkeypatch.setattr(cantor, "STORED_COUNT", 2 ** 6)
    monkeypatch.setattr(dimension, "SCAN_CHUNK", 2 ** 8)
    monkeypatch.setattr(qsmass, "PAIR_BLOCK", 2 ** 8)
    code, generated = run(tmp_path, command, shallow, name="generated")
    assert code == 0, capsys.readouterr().err
    files = sorted(p.name for p in stored.iterdir())
    assert files == sorted(p.name for p in generated.iterdir())
    for name in files:
        assert (generated / name).read_bytes() == (stored / name).read_bytes(), name
    # the command alone on the deep leaves (2^14, or 20736 uniform ones), without the
    # manifest's 1 MiB hash reads: 38-48 KiB here for theorem-b and generate, 79-81 KiB
    # for dimension, whose mass bound holds about 24 doubles per leaf of a 2^8 block;
    # a whole-level read would add at least one array of the leaves
    leaves = cli._system(deep).level(depths[1]).count
    (tmp_path / "deep").mkdir()
    tracemalloc.start()
    try:
        cli._COMMANDS[command](deep, tmp_path / "deep", 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * leaves, (peak, leaves)


def test_mass_reads_generated_levels_in_blocks_and_at_probes(tmp_path, capsys, monkeypatch):
    # 2^12 leaves below a stored level of 2^6: mass reads the generated levels in
    # blocks and at probed ends only, with the stored levels' bits
    cfg = {"system": {"c": "harmonic", "depth": 12}, "map": {"kind": "power", "a": 2}, "d": 0.9}
    code, stored = run(tmp_path, "mass", cfg, name="stored")
    assert code == 0, capsys.readouterr().err
    monkeypatch.setattr(cantor, "STORED_COUNT", 2 ** 6)
    monkeypatch.setattr(qsmass, "PAIR_BLOCK", 2 ** 8)
    code, generated = run(tmp_path, "mass", cfg, name="generated")
    assert code == 0, capsys.readouterr().err
    for name in json.loads((stored / "manifest.json").read_text())["outputs"]:
        assert (generated / name).read_bytes() == (stored / name).read_bytes(), name


def test_generate_streams_its_rows(tmp_path):
    run(tmp_path, "generate", {"system": {"c": "harmonic", "depth": 4}}, name="warm-up")
    tracemalloc.start()
    try:
        code, out = run(tmp_path, "generate", {"system": {"c": "harmonic", "depth": 16}})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    # 2^17 rows, 5.9 MiB of CSV, would take 45 MiB as a table of Python
    # tuples; one block of 2^16 rows' floats and the leaf left ends take 5.0 MiB
    assert (out / "levels.csv").stat().st_size > 5 * 2 ** 20
    assert peak < 8 * 2 ** 20


def test_a_mass_bound_down_to_1e_10_exits_0_in_under_2_s(tmp_path, capsys):
    # 2^15 candidate windows per scale, however fine the scale
    cfg = {"system": {"c": {"const": 0.7}, "depth": 14}, "epsilons": [0.1],
           "mass_bound": {"d": 0.5, "scales": [0.15 ** k for k in range(3, 12)] + [1e-10]}}
    t0 = time.perf_counter()
    code, out = run(tmp_path, "dimension", cfg)
    elapsed = time.perf_counter() - t0
    assert code == 0, capsys.readouterr().err
    assert "mass_bound" in json.loads((out / "summary.json").read_text())
    assert elapsed < 2.0


@pytest.mark.parametrize("command,cfg", [
    ("distort", {"map": {"kind": "power", "a": 2}, "eta": {"C": math.nan, "K": 2}, "n_pairs": 5}),
    ("theorem-b", {"system": {"c": "harmonic", "depth": 6}, "Y": [[0.0, 1.0]],
                   "atoms": [[math.nan, 0.1]]}),
], ids=["eta-C", "atoms"])
def test_a_nan_literal_in_the_config_exits_2_before_any_work(tmp_path, capsys, command, cfg):
    code, out = run(tmp_path, command, cfg)
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: config is not valid JSON: NaN is not a JSON number\n")
    assert not out.exists()


def test_a_scalar_field_that_overflows_to_infinity_exits_2_naming_it(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"depth": 6, "maps": [{"kind": "identity"}], "M": 1e400}')
    code = cli.main(["theorem-a", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "config error: field 'M': needs a finite number, got inf\n"
    assert list((tmp_path / "out").iterdir()) == []


def test_path_product_violation_exits_5(tmp_path, capsys, monkeypatch):
    def violated(tree, d, keys):
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


def test_modulus_infeasible_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, "modulus",
                  {"problem": {"kind": "discrete",
                               "balls": [[0.0, 0.5]],
                               "sets": [[0.0], [9.0]], "p": 2}})
    assert code == 2
    assert capsys.readouterr().err == "config error: sets [1] meet no fifth-ball\n"


TWO_BALLS = [[0.1, 0.01], [0.5, 0.01]]


@pytest.mark.parametrize("problem,message", [
    ({"balls": TWO_BALLS, "incidence": [[1, 0, 1]]},
     "field 'incidence': needs a nonempty list of rows of 2 numbers, got [[1, 0, 1]]"),
    ({"balls": TWO_BALLS, "incidence": [[1], [1]]},
     "field 'incidence': needs a nonempty list of rows of 2 numbers, got [[1], [1]]"),
    ({"balls": [0.5, 0.1], "sets": [[0.5]]},
     "balls must have shape (n, 2), got (2,)"),
    ({"balls": [0.5, 0.1], "incidence": [[1, 1]]},
     "balls must have shape (n, 2), got (2,)"),
], ids=["extra-column", "one-column", "flat-balls-sets", "flat-balls-incidence"])
def test_modulus_malformed_discrete_config_exits_2(tmp_path, capsys, problem, message):
    code, out = run(tmp_path, "modulus", {"problem": {"kind": "discrete", "p": 2, **problem}})
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (out / "density.csv").exists()


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
    monkeypatch.setattr(modulus, "MAX_ITER", 1)
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
    # a config that still carries the grid width of the rasterized product runs
    code, out = run(tmp_path, "theorem-b",
                    {"system": {"c": "harmonic", "depth": 6},
                     "Y": [[0, 0.25], [0.25, 0.25], [0.5, 0.25], [0.75, 0.25]],
                     "cell_width": 3.0 ** -7, "refine": 3.0, "d_sweep": [0.6]})
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_bounds_hold"] is True


def test_theorem_b_atom_fails_scan_exit_3(tmp_path):
    code, _ = run(tmp_path, "theorem-b",
                  {"system": {"c": "harmonic", "depth": 6},
                   "Y": [[0.0, 1.0]], "d_sweep": [0.6], "atoms": [[0.0, 0.3]]})
    assert code == 3


_Y_ROWS = st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5]),
                             st.just(0.0) | st.floats(1e-3, 10.0)),
                   min_size=1, max_size=6).filter(lambda y: any(w > 0 for _, w in y))


@settings(max_examples=12, deadline=None)
@given(Y=_Y_ROWS, d=st.floats(0.001, 1.0, exclude_max=True))
@example(Y=[(0.0, 0.03125)], d=0.0039)
def test_theorem_b_writes_nu_y_the_fuglede_modulus_of_the_fibers(Y, d):
    cfg = {"system": {"c": "harmonic", "depth": 6}, "Y": Y, "d_sweep": [d]}
    with tempfile.TemporaryDirectory() as tmp:
        code, out = run(Path(tmp), "theorem-b", cfg)
        assert code == 0
        rows = _csv_rows(out / "products.csv")
    nu = math.fsum(w for _, w in Y)
    assert [(float(r["d"]), float(r["value"]), float(r["holder_bound"]), r["bound_ok"])
            for r in rows] == [(d, nu, nu, "1")]
    # the oracle: the rasterized product's modulus, solved at two grid widths
    leaves = build_system(GapSequence.harmonic(6), max_depth=6).level(6)
    for width in (3.0 ** -7, 3.0 ** -8):
        prod = modulus.product_system(leaves, DiscreteMeasure(
            leaves.lefts, leaves.lefts + np.exp(leaves.log_length),
            np.full(leaves.count, 1.0 / leaves.count)), Y, width, p=1.0 + d)
        assert modulus.solve_fuglede(prod).value == pytest.approx(nu, rel=1e-9, abs=0.0)


THEOREM_A6 = {"depth": 6, "maps": [{"kind": "identity"}], "d_sweep": [0.9]}
THEOREM_B6 = {"system": {"c": "harmonic", "depth": 6}, "Y": [[0.0, 1.0]], "d_sweep": [0.6]}


@pytest.mark.parametrize("command,cfg,field", [
    ("theorem-a", {**THEOREM_A6, "control": 0.3}, "control"),
    ("theorem-a", {**THEOREM_A6, "control": [0.3]}, "control"),
    ("theorem-b", {**THEOREM_B6, "atoms": [0.1, 0.2]}, "atoms"),
    ("theorem-b", {**THEOREM_B6, "atoms": [[0.1, 0.2, 0.3]]}, "atoms"),
    ("theorem-b", {**THEOREM_B6, "Y": [[0.0]]}, "Y"),
], ids=["control-number", "control-list", "atoms-flat", "atoms-three-columns", "Y-one-column"])
def test_malformed_control_or_atoms_exits_2_before_any_work(tmp_path, capsys,
                                                           command, cfg, field):
    code, out = run(tmp_path, command, cfg)
    assert code == 2
    assert f"field '{field}'" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_theorem_b_atoms_that_pass_the_scan_keep_a_probability_measure(tmp_path, capsys):
    # the atoms once raised the total mass above 1; renormalized, lambda_E stays a
    # probability measure and the product modulus is nu(Y) = 1 exactly
    cfg = {**THEOREM_B6, "atoms": [[0.26, 0.001], [0.5, 0.0]]}
    code, out = run(tmp_path, "theorem-b", cfg)
    assert code == 0, capsys.readouterr().err
    assert [float(row["value"]) for row in _csv_rows(out / "products.csv")] == [1.0]


HARMONIC6 = {"c": "harmonic", "depth": 6}
UNIFORM2 = {"kind": "uniform", "gammas": [0.1, 0.1], "n_children": [3, 3], "depth": 2}
FUGLEDE2 = {"kind": "fuglede", "mu": [1, 1], "members": [[1, 1]], "p": 2}


@pytest.mark.parametrize("command,cfg,field", [
    ("theorem-a", {**THEOREM_A6, "tail_window": 0}, "tail_window"),
    ("theorem-a", {**THEOREM_A6, "d_sweep": [1.0]}, "d_sweep"),
    ("theorem-a", {**THEOREM_A6, "maps": {"kind": "identity"}}, "maps"),
    ("theorem-a", {**THEOREM_A6, "minkowski_points": [10, 20000]}, "minkowski_points"),
    ("dimension", {"system": HARMONIC6, "epsilons": [0.1], "mass_bound": {"d": 0.9}}, "scales"),
    ("mass", {"system": HARMONIC6, "map": {"kind": "identity"}, "d": "x"}, "d"),
    ("distort", {"map": {"kind": "identity"}, "n_pairs": -5}, "n_pairs"),
    ("mass", {"system": UNIFORM2, "map": {"kind": "identity"}, "d": 0.5}, "system"),
    ("distort", {"map": {"kind": "dyadic_weight"}, "eta": "identity"}, "interval"),
    # X1 and X2 shared a point after rounding: exit 5, "must be separated"
    ("distort", {"map": {"kind": "identity"}, "n_pairs": 200,
                 "interval": [1.0, 1.0000000000000004]}, "interval"),
    ("generate", {"system": {"c": "harmonic", "depth": 3.7}}, "depth"),
    ("modulus", {"problem": {**FUGLEDE2, "mu": [-1, 1]}}, "mu"),
    ("modulus", {"problem": {"kind": "discrete", "p": 2, "balls": TWO_BALLS, "sets": []}},
     "sets"),
    ("modulus", {"problem": {**FUGLEDE2, "members": [[1, 1, 1]]}}, "members"),
    ("modulus", {"problem": {"kind": "discrete", "p": 2, "balls": TWO_BALLS,
                             "incidence": [[1]]}}, "incidence"),
    ("modulus", {"problem": {**FUGLEDE2, "p": 1}}, "p"),
    # leaves below double resolution are points under the identity map
    ("mass", {"system": {"c": {"const": 0.999}, "depth": 5}, "map": {"kind": "identity"},
              "d": 0.9}, "system"),
    ("theorem-a", {**THEOREM_A6, "depth": 5, "c": {"const": 0.999}}, "c"),
    ("theorem-a", {"depth": 14, "maps": [{"kind": "power", "a": 2}], "d_sweep": [0.9],
                   "control": {"c": 0.9}}, "control"),
    # array entries that overflow to infinity once wrote inf values and passed
    ("theorem-b", {**THEOREM_B6, "Y": [[0.0, math.inf]]}, "Y"),
    ("theorem-b", {**THEOREM_B6, "atoms": [[math.inf, 0.1]]}, "atoms"),
    ("modulus", {"problem": {"kind": "discrete", "p": 2, "balls": [[0.1, 0.01], [math.inf, 0.01]],
                             "sets": [[0.1]]}}, "balls"),
    ("modulus", {"problem": {"kind": "discrete", "p": 2, "balls": TWO_BALLS,
                             "sets": [[0.1], [[0.0, math.inf]]]}}, "sets"),
    ("modulus", {"problem": {**FUGLEDE2, "mu": [1, math.inf]}}, "mu"),
    ("modulus", {"problem": {**FUGLEDE2, "members": [[1, math.inf]]}}, "members"),
    ("modulus", {"problem": {"kind": "discrete", "p": 2, "balls": TWO_BALLS,
                             "incidence": [[1, -math.inf]]}}, "incidence"),
], ids=["tail-window-0", "d-sweep-1", "maps-object",
        "minkowski-point-too-long", "mass-bound-without-scales", "d-string",
        "n-pairs-negative", "mass-uniform-system", "dyadic-default-interval",
        "interval-a-few-ulps", "depth-3.7",
        "negative-mu", "no-sets", "member-cell-count", "incidence-one-column", "p-1",
        "mass-identity-point-leaves", "theorem-a-identity-point-leaves",
        "theorem-a-control-point-leaves", "Y-overflow", "atoms-overflow", "balls-overflow",
        "sets-overflow", "mu-overflow", "members-overflow", "incidence-overflow"])
def test_config_faults_found_mid_run_exit_2_naming_the_field_before_any_work(
        tmp_path, capsys, command, cfg, field):
    code, out = run(tmp_path, command, cfg)
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"field '{field}'" in err
    assert list(out.iterdir()) == []


def test_the_identity_leaf_check_passes_harmonic_sets_a_block_at_a_time():
    with_identity = [QsMap.power(2.0), QsMap.identity()]
    for depth in (14, 22):
        system = build_system(GapSequence.harmonic(depth), max_depth=depth)
        tracemalloc.start()
        try:
            assert cli._resolved(system, "system", with_identity) is system
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few block temporaries, never an array of the 2^22 leaves
        assert peak < 4 * 8 * qsmass.PAIR_BLOCK
    for c, depth in ((0.999, 5), (0.9, 14)):
        points = build_system(GapSequence.constant(c, depth), max_depth=depth)
        with pytest.raises(cli.ConfigError, match=f"field 'x': .* depth {depth} is below"):
            cli._resolved(points, "x", with_identity)
        # other maps meet such leaves in the measure, after the reading step
        assert cli._resolved(points, "x", [QsMap.power(2.0)]) is points


@pytest.mark.parametrize("error", [ValueError, TypeError, KeyError])
def test_a_library_fault_in_the_run_step_exits_5(tmp_path, capsys, monkeypatch, error):
    def broken(system, qsmap, d):
        raise error("broken certificate")

    monkeypatch.setattr(qsmass, "certificate", broken)
    code, _ = run(tmp_path, "mass", MASS14)
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and "broken certificate" in err
    assert err.count("\n") == 1


# small configs that run to exit 0; a key that is no command names its command
# in _COMMAND_OF
_FUZZ_BASES = {
    "generate": {"system": {"c": "harmonic", "depth": 4}, "seed": 1},
    "uniform": {"system": {"kind": "uniform", "gammas": [0.1, 0.2], "n_children": [3, 2],
                           "depth": 2}},
    "dimension": {"system": {"c": {"const": 1 / 3}, "depth": 5},
                  "epsilons": {"base": 3.0, "k_min": 1, "k_max": 4},
                  "mass_bound": {"d": 0.6, "scales": [0.1, 0.01]}},
    "distort": {"map": {"kind": "power", "a": 2, "eta": {"C": 4.3, "K": 2}},
                "interval": [0.0, 1.0], "n_pairs": 5},
    "dyadic": {"map": {"kind": "dyadic_weight", "rho": 2.0, "weight_depth": 3, "seed": 1},
               "eta": {"ts": [0.1, 1.0, 10.0], "etas": [0.1, 1.0, 10.0]},
               "interval": [0.0, 1.0], "n_pairs": 5},
    "mass": {"system": {"c": "harmonic", "depth": 5}, "map": {"kind": "identity"}, "d": 0.9},
    "fuglede": {"problem": {"kind": "fuglede", "mu": [1, 1, 1],
                            "members": [[1, 1, 0], [0, 1, 1]], "p": 2}},
    "discrete": {"problem": {"kind": "discrete", "p": 2, "delta": 1.0,
                             "balls": [[0.0, 0.5], [2.0, 0.5], [4.0, 0.5]],
                             "sets": [[0.05], [[1.95, 4.05]]]}},
    "incidence": {"problem": {"kind": "discrete", "p": 2, "balls": TWO_BALLS,
                              "incidence": [[1, 0], [1, 1]]}},
    "theorem-a": {"depth": 4, "minkowski_n": 20, "minkowski_points": [5, 20], "tail_window": 10,
                  "M": 1.0, "c": "harmonic", "maps": [{"kind": "power", "a": 2, "label": "sq"}],
                  "d_sweep": [0.9], "control": {"c": 0.3}},
    "theorem-b": {"system": {"c": "harmonic", "depth": 4}, "Y": [[0.0, 1.0]],
                  "d_sweep": [0.6], "eps_list": [0.2],
                  "scan_slack": 0.3, "atoms": [[0.5, 0.0]]},
}
_COMMAND_OF = {"uniform": "generate", "dyadic": "distort", "fuglede": "modulus",
               "discrete": "modulus", "incidence": "modulus"}

# small, so that a depth read as its integer part stays cheap
_NON_INTEGER = st.floats(0.1, 3.9).filter(lambda v: not v.is_integer())
_NOT_NATURAL = st.integers(max_value=-1) | _NON_INTEGER
_NOT_COUNT = st.integers(max_value=0) | _NON_INTEGER
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_NOT_POSITIVE = st.floats(max_value=0.0) | _NON_FINITE
_NOT_FRACTION = st.floats().filter(lambda v: not 0.0 < v < 1.0)
_BAD_GAPS = st.sampled_from(["bogus", {"const": 1.5}, {"const": -0.1}, {"const": "0.3"},
                             {"values": [0.5, 1.0, 0.1, 0.1, 0.1]}, {"x": 1},
                             {"file": "no-such-gap-file.txt"}])


def _text_but(*valid):
    return st.text(max_size=8).filter(lambda t: t not in valid)


# (base config, path of the field, the JSON types it accepts, required, values
# of an accepted type that are out of range)
_FUZZ_FIELDS = [
    ("generate", ("system",), {"object"}, True, st.nothing()),
    ("generate", ("system", "depth"), {"number"}, True, _NOT_NATURAL),
    ("generate", ("system", "c"), {"string", "object"}, True, _BAD_GAPS),
    ("generate", ("system", "kind"), {"string"}, False,
     _text_but("middle_interval", "uniform")),
    ("generate", ("system", "length"), {"number"}, False, st.integers(max_value=3)),
    ("generate", ("seed",), {"number"}, False, _NOT_NATURAL),
    ("uniform", ("system", "gammas"), {"list"}, True,
     st.sampled_from([[0.6, 0.9], ["x", 0.1], [0.1], [1.2, 0.1]])),
    ("uniform", ("system", "n_children"), {"list"}, True,
     st.sampled_from([[1, 2], [2.5, 2], [3], [3, "2"]])),
    ("dimension", ("epsilons",), {"list", "object"}, True,
     st.just([]) | st.lists(_NOT_POSITIVE, min_size=1, max_size=3)
     | st.sampled_from([{"base": 0, "k_max": 2}, {"base": 3.0, "k_max": 2.5}, {"base": 3.0},
                        {"base": 0.5, "k_max": 2000}, {"base": 3.0, "k_max": 2000},
                        {"base": 3.0, "k_min": 5, "k_max": 2}])),
    ("dimension", ("mass_bound",), {"object"}, False, st.nothing()),
    ("dimension", ("mass_bound", "d"), {"number"}, True,
     st.floats().filter(lambda v: not 0.0 < v <= 1.0)),
    ("dimension", ("mass_bound", "scales"), {"list"}, True,
     st.just([]) | st.lists(_NOT_POSITIVE, min_size=1, max_size=3)),
    ("distort", ("map",), {"object"}, True, st.nothing()),
    ("distort", ("map", "kind"), {"string"}, True,
     _text_but("identity", "power", "dyadic_weight")),
    ("distort", ("map", "a"), {"number"}, True, _NOT_POSITIVE),
    ("distort", ("map", "eta"), {"string", "object", "null"}, True, _text_but("identity")),
    ("distort", ("map", "eta", "C"), {"number"}, True, st.floats(max_value=0.0)),
    ("distort", ("map", "eta", "K"), {"number"}, True, st.floats(max_value=0.99)),
    ("distort", ("interval",), {"list"}, False,
     st.sampled_from([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0, 2.0], [0.0], [-1e308, 1e308]])),
    ("distort", ("n_pairs",), {"number"}, False, _NOT_COUNT),
    ("dyadic", ("map", "rho"), {"number"}, False, st.floats(max_value=0.99)),
    ("dyadic", ("map", "weight_depth"), {"number"}, False,
     _NOT_NATURAL | st.integers(cantor.MEMORY_CAP.bit_length(), 2 ** 70)
     | st.sampled_from([30, 40, 1e300])),
    ("dyadic", ("map", "seed"), {"number"}, False, _NOT_NATURAL),
    ("dyadic", ("eta",), {"string", "object", "null"}, False, _text_but("identity")),
    ("dyadic", ("eta", "ts"), {"list"}, True,
     st.sampled_from([[1.0, 0.1, 10.0], [-1.0, 1.0, 2.0]])),
    ("dyadic", ("eta", "etas"), {"list"}, True, st.sampled_from([[1.0], [1.0, 0.5, 0.1]])),
    ("dyadic", ("interval",), {"list"}, False, st.sampled_from([[-1.0, 1.0], [0.5, 1.5]])),
    ("mass", ("system",), {"object"}, True, st.nothing()),
    ("mass", ("system", "depth"), {"number"}, True, _NOT_COUNT),
    ("mass", ("map",), {"object"}, True, st.nothing()),
    ("mass", ("d",), {"number"}, True, _NOT_FRACTION),
    ("fuglede", ("problem",), {"object"}, True, st.nothing()),
    ("fuglede", ("problem", "kind"), {"string"}, True, _text_but("fuglede", "discrete")),
    ("fuglede", ("problem", "p"), {"number"}, True, st.floats(max_value=1.0)),
    ("fuglede", ("problem", "mu"), {"list"}, True,
     st.sampled_from([[-1, 1, 1], [[1, 1, 1]], [0, 0, 0], [1, 1]])),
    ("fuglede", ("problem", "members"), {"list"}, True,
     st.sampled_from([[[1, 1]], [[0, 0, 0]], [[-1, 2, 0]], [1, 1, 1]])),
    ("discrete", ("problem", "balls"), {"list"}, True,
     st.sampled_from([[0.5, 0.1], [[0.0, 0.5, 1.0]], [], [[0.0, 0.5], [0.1, 0.5]]])),
    ("discrete", ("problem", "sets"), {"list"}, True,
     st.sampled_from([[[9.0]], [[[[0.0]]]], [], [[[0.0, 1.0, 2.0]]]])),
    ("discrete", ("problem", "delta"), {"number", "null"}, False, st.floats(max_value=0.99)),
    ("discrete", ("problem", "p"), {"number"}, True, st.floats(max_value=1.0)),
    ("incidence", ("problem", "incidence"), {"list"}, True,
     st.sampled_from([[[1, 0, 1]], [[0, 0]], [], [[1], [1]]])),
    ("theorem-a", ("depth",), {"number"}, False, _NOT_COUNT),
    ("theorem-a", ("minkowski_n",), {"number"}, False, _NOT_COUNT),
    ("theorem-a", ("minkowski_points",), {"list"}, False,
     st.just([]) | st.lists(st.integers(21, 10 ** 6) | st.integers(max_value=0), min_size=1,
                            max_size=3)),
    ("theorem-a", ("tail_window",), {"number"}, False, _NOT_COUNT),
    ("theorem-a", ("M",), {"number"}, False, _NON_FINITE),
    ("theorem-a", ("c",), {"string", "object"}, False, _BAD_GAPS),
    ("theorem-a", ("maps",), {"list"}, True, st.sampled_from([[5], [{"a": 2}], []])),
    ("theorem-a", ("maps", 0, "a"), {"number"}, True, _NOT_POSITIVE),
    ("theorem-a", ("maps", 0, "label"), {"string"}, False,
     st.tuples(st.text(max_size=3), st.sampled_from(',"\r\n'), st.text(max_size=3)).map(
         "".join)),
    ("theorem-a", ("d_sweep",), {"list"}, False,
     st.just([]) | st.lists(_NOT_FRACTION, min_size=1, max_size=3)),
    ("theorem-a", ("control",), {"object", "null"}, False, st.nothing()),
    ("theorem-a", ("control", "c"), {"number"}, False,
     st.floats().filter(lambda v: not 0.0 <= v < 1.0)),
    ("theorem-b", ("system",), {"object"}, True, st.nothing()),
    ("theorem-b", ("Y",), {"list"}, True,
     st.sampled_from([[[0.0]], [[0.0, -1.0]], [[0.0, 0.0]], [], [0.0, 1.0]])),
    ("theorem-b", ("d_sweep",), {"list"}, False,
     st.just([]) | st.lists(_NOT_FRACTION, min_size=1, max_size=3)),
    ("theorem-b", ("eps_list",), {"list"}, False,
     st.just([]) | st.lists(_NON_FINITE, min_size=1, max_size=3)),
    ("theorem-b", ("scan_slack",), {"number"}, False, _NON_FINITE),
    ("theorem-b", ("atoms",), {"list"}, False,
     st.sampled_from([[[0.1, -0.5]], [0.1, 0.2], [[0.1, 0.2, 0.3]], []])),
]

_JSON_TYPES = {
    "string": st.text(max_size=8),
    "null": st.none(),
    "boolean": st.booleans(),
    "number": st.integers(-10, 10) | st.floats(allow_nan=False),
    "list": st.lists(st.integers(0, 3), max_size=3),
    "object": st.dictionaries(st.sampled_from(["x", "kind", "c"]), st.integers(0, 3), max_size=2),
}
_DROP = object()


def _mutated(base, path, value):
    """A copy of the base config with the field at `path` set to `value`, or dropped."""
    cfg = copy.deepcopy(_FUZZ_BASES[base])
    *parents, key = path
    owner = functools.reduce(lambda node, k: node[k], parents, cfg)
    if value is _DROP:
        del owner[key]
    else:
        owner[key] = value
    return cfg


def _run_quietly(command, cfg):
    """Run in a fresh directory: exit code, stderr, and the files written."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg_path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(cfg_path), "--out", str(out)])
        files = sorted(p.name for p in out.iterdir()) if out.exists() else []
    return code, err.getvalue(), files


@pytest.mark.parametrize("base", sorted(_FUZZ_BASES))
def test_fuzz_bases_run(base):
    code, err, files = _run_quietly(_COMMAND_OF.get(base, base), _FUZZ_BASES[base])
    assert code == 0, err
    assert "manifest.json" in files


@pytest.mark.parametrize("base,path,types,required,bad", _FUZZ_FIELDS,
                         ids=[f"{f[0]}-{'.'.join(map(str, f[1]))}" for f in _FUZZ_FIELDS])
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_broken_config_field_exits_2_before_any_work(base, path, types, required, bad,
                                                           data):
    wrong = st.one_of(*(s for name, s in _JSON_TYPES.items() if name not in types))
    value = data.draw((st.just(_DROP) if required else st.nothing()) | wrong | bad)
    code, err, files = _run_quietly(_COMMAND_OF.get(base, base), _mutated(base, path, value))
    assert code == 2, err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert files == []


def test_runtime_loads_no_test_only_package():
    # scipy and hypothesis serve the tests only; the package itself needs numpy
    code = "import sys, confdim, confdim.cli; print(*sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=_env_with_this_package(),
                         capture_output=True, text=True, check=True).stdout.split()
    assert "numpy" in out
    assert not {m.split(".")[0] for m in out} & {"scipy", "hypothesis", "pytest"}
