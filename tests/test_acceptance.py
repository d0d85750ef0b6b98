"""End-to-end acceptance battery.

Each test prints one PASS/FAIL line for its criterion; the assertions carry
the stated tolerances.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import LinearConstraint, minimize

import confdim.cli as cli
from confdim.cantor import (
    GapSequence,
    IntervalLevel,
    build_system,
    closed_form_minkowski,
    truncated_length,
)
from confdim.dimension import box_count
from confdim.modulus import (
    _solve_power_program,
    dmod_vanishing_witness,
    holder_lower_bound,
    product_system,
    solve_fuglede,
    vitali_disjointify,
)
from confdim.qsmaps import EtaModulus, QsMap, distortion_check, distortion_gap_check
from confdim.qsmass import (
    build_image_tree,
    build_recursive_measure,
    certificate,
)

POWER2_C = 2.0 + math.sqrt(5.0) + 1e-9  # calibrated gauge constant for a = 2


def report(num, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_box_count_slopes():
    t0 = time.time()
    thirds = build_system(GapSequence.constant(1 / 3, 12), max_depth=12)
    r1 = box_count(thirds.level(12), [3.0 ** -k for k in range(1, 11)])
    halves = build_system(GapSequence.constant(1 / 2, 12), max_depth=12)
    r2 = box_count(halves.level(12), [4.0 ** -k for k in range(1, 11)])
    elapsed = time.time() - t0
    target = math.log(2) / math.log(3)
    ok = (abs(r1.fitted_slope - target) <= 0.02
          and abs(r2.fitted_slope - 0.5) <= 0.02
          and elapsed < 5.0)
    report(1, ok, f"slopes {r1.fitted_slope:.5f} (target {target:.5f}), "
                  f"{r2.fitted_slope:.5f} (target 0.5), {elapsed:.2f}s")


def test_criterion_2_theorem_a_pipeline():
    t0 = time.time()
    system = build_system(GapSequence.harmonic(14), max_depth=14)
    lengths_ok = all(
        abs(truncated_length(system, n) - 1.0 / (n + 1)) <= 1e-12 / (n + 1)
        for n in range(15)
    )
    mink = closed_form_minkowski(GapSequence.harmonic(10000), 10000)
    mink_ok = 0.9985 <= mink <= 0.999

    maps = {
        "identity": QsMap.identity(),
        "power 1.5": QsMap.power(1.5),
        "power 2": QsMap.power(2.0),
        "dyadic rho=2": QsMap.dyadic_weight(rho=2.0, seed=0),
    }
    certs_ok = True
    spans = {}
    for name, qsmap in maps.items():
        rep = certificate(system, qsmap, 0.9)
        tops = rep.level_growth[8:15]
        spans[name] = float(np.max(tops) / np.min(tops))
        certs_ok &= rep.passed and spans[name] < 2.0

    control = build_system(GapSequence.constant(1 / 3, 14), max_depth=14)
    crep = certificate(control, QsMap.identity(), 0.9)
    growth = crep.level_growth
    control_ok = (not crep.passed) and bool(np.all(growth[1:] / growth[:-1] >= 1.3))
    elapsed = time.time() - t0
    ok = lengths_ok and mink_ok and certs_ok and control_ok and elapsed < 120.0
    report(2, ok, f"lengths exact={lengths_ok}, minkowski={mink:.6f}, "
                  f"C_growth spans={ {k: round(v, 3) for k, v in spans.items()} }, "
                  f"control fails={control_ok}, {elapsed:.1f}s")


def test_criterion_3_measure_machinery():
    system = build_system(GapSequence.harmonic(14), max_depth=14)
    tree = build_image_tree(system, QsMap.power(1.5))
    # every level's masses with the measure's own bits: the measure stores no
    # level whole, so level n is read at every leaf of the measure on the tree
    # cut at depth n, which splits it with the same bits
    masses = [np.ones(1)] + [build_recursive_measure(tree[:n + 1], 0.9, np.arange(2 ** n))
                             .masses[0] for n in range(1, 15)]
    conserved = len(masses) == 15 and all(
        np.array_equal(masses[n][0::2] + masses[n][1::2], masses[n - 1])
        for n in range(1, 15)
    )
    # path product of p_i = (dl + gap + dr)^d / (dl^d + dr^d), formed from the tree
    bounded = True
    prod = np.array([1.0])
    for n in range(1, 15):
        lv = tree[n]
        dl, dr = lv.diams[0::2], lv.diams[1::2]
        gap = lv.lefts[1::2] - lv.rights[0::2]
        prod = np.repeat(prod * (dl + gap + dr) ** 0.9
                         / (dl ** 0.9 + dr ** 0.9), 2)
        bounded &= bool(np.all(masses[n] / lv.diams ** 0.9 <= prod * (1 + 1e-9)))
    small = build_system(GapSequence.constant(0.01, 8), max_depth=8)
    stree = build_image_tree(small, QsMap.identity())
    p_max = build_recursive_measure(stree, 0.9, np.empty(0, dtype=np.intp)).p_max
    oracle = 1.0 / (2.0 * 0.495 ** 0.9)
    pi_ok = bool(np.all(np.abs(p_max - oracle) <= 1e-4))
    ok = conserved and bounded and pi_ok
    report(3, ok, f"conservation exact={conserved}, path bound={bounded}, "
                  f"p_i={p_max[0]:.6f} vs oracle {oracle:.6f}")


def test_criterion_4_distortion_lemmas():
    eta = EtaModulus.power(POWER2_C, 2.0)
    f = QsMap.power(2.0, eta=eta)
    rng = np.random.default_rng(42)
    diam_viol = gap_viol = 0
    for _ in range(10000):
        b = np.sort(rng.uniform(-1, 1, 4))
        while b[-1] - b[0] < 1e-6:
            b = np.sort(rng.uniform(-1, 1, 4))
        a = np.sort(rng.uniform(b[0], b[-1], 2))
        while a[1] - a[0] < 1e-9:
            a = np.sort(rng.uniform(b[0], b[-1], 2))
        if not distortion_check(f, a, np.concatenate([a, b]), eta).ok:
            diam_viol += 1
        mid = rng.uniform(-0.6, 0.6)
        g = rng.uniform(1e-4, 0.3)
        x1 = np.sort(rng.uniform(-1, mid - g / 2, 3))
        x2 = np.sort(rng.uniform(mid + g / 2, 1, 3))
        if not distortion_gap_check(f, x1, x2, eta).ok:
            gap_viol += 1
    ok = diam_viol == 0 and gap_viol == 0
    report(4, ok, f"diameter bound violations={diam_viol}, "
                  f"gap bound violations={gap_viol} over 10^4 pairs each")


def _oracle(w, A, p, rng):
    obj = lambda x: float(np.sum(w * np.abs(x) ** p))
    con = LinearConstraint(A, lb=1.0)
    best = math.inf
    for _ in range(3):
        x0 = rng.uniform(0.5, 1.5, A.shape[1])
        r = minimize(obj, x0, constraints=[con], bounds=[(0, None)] * A.shape[1],
                     method="SLSQP", options={"maxiter": 600, "ftol": 1e-14})
        if r.success:
            best = min(best, float(r.fun))
    return best


def test_criterion_5_solver_oracle_equivalence():
    rng = np.random.default_rng(777)
    worst_val = worst_kkt = 0.0
    for trial in range(100):
        p = float(rng.choice([1.5, 2.0, 3.0]))
        n = int(rng.integers(2, 21))
        m = int(rng.integers(1, 12))
        A = (rng.random((m, n)) < 0.45).astype(float)
        for i in np.where(A.sum(axis=1) == 0)[0]:
            A[i, rng.integers(0, n)] = 1.0
        # first 50 play the discrete role (unit weights), last 50 the Fuglede
        # role (positive cell measures)
        w = np.ones(n) if trial < 50 else rng.uniform(0.1, 2.0, n)
        res = _solve_power_program(w, A, p)
        worst_val = max(worst_val, abs(res.value - _oracle(w, A, p, rng)))
        worst_kkt = max(worst_kkt, res.kkt_residual)
    ok = worst_val <= 1e-6 and worst_kkt <= 1e-7
    report(5, ok, f"max |value - oracle| = {worst_val:.2e}, "
                  f"max KKT residual = {worst_kkt:.2e} over 100 instances")


def test_criterion_6_symmetric_closed_forms():
    worst_k = worst_g = 0.0
    for p in (1.5, 2.0, 3.0):
        for k in (1, 2, 5, 13, 20):
            res = _solve_power_program(np.ones(k), np.ones((1, k)), p)
            worst_k = max(worst_k, abs(res.value - k ** (1 - p)))
        for n, m in ((2, 3), (5, 4), (7, 7)):
            A = np.kron(np.eye(n), np.ones((1, m)))
            res = _solve_power_program(np.ones(n * m), A, p)
            worst_g = max(worst_g, abs(res.value - n * m ** (1 - p)))
    ok = worst_k <= 1e-9 and worst_g <= 1e-8
    report(6, ok, f"one-set error {worst_k:.2e} (tol 1e-9), "
                  f"separable error {worst_g:.2e} (tol 1e-8)")


def test_criterion_7_holder_product_bound():
    t0 = time.time()
    system = build_system(GapSequence.harmonic(6), max_depth=6)
    leaves = system.level(6)
    Y = [(k / 4, 0.25) for k in range(4)]
    details = []
    ok = True
    for d in (0.5, 0.6, 0.8):
        coarse = solve_fuglede(product_system(leaves, Y, 3.0 ** -7, 1 + d))
        fine = solve_fuglede(product_system(leaves, Y, 3.0 ** -8, 1 + d))
        bound = holder_lower_bound(product_system(leaves, Y, 3.0 ** -7, 1 + d), d)
        stable = abs(fine.value - coarse.value) <= 0.05 * coarse.value
        ok &= coarse.value >= 1.0 - 1e-3 and coarse.value >= bound - 1e-3 and stable
        details.append(f"d={d}: {coarse.value:.6f}/{fine.value:.6f}")
    elapsed = time.time() - t0
    ok &= elapsed < 180.0
    report(7, ok, f"{'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_8_vanishing_discrete_modulus():
    values = {}
    for k in (6, 10, 14):
        n = 2 ** k
        level = IntervalLevel(depth=k, lefts=np.arange(n) / n,
                              log_length=-k * math.log(2), branching=2)
        w = dmod_vanishing_witness(level, None, t=1.0, q=2.0, eps_target=1e-4)
        values[k] = w.value
        assert w.admissible_ok
    ok = (all(abs(values[k] - 2.0 ** -k) <= 1e-12 for k in values)
          and values[14] < 1e-4)
    report(8, ok, f"values {{k: v}} = { {k: f'{v:.3e}' for k, v in values.items()} }")


def test_criterion_9_vitali_property():
    rng = np.random.default_rng(2718)
    ok = True
    for _ in range(100):
        n = int(rng.integers(3, 60))
        balls = np.column_stack([rng.uniform(0, 20, n), rng.uniform(0.01, 1.5, n)])
        idx = vitali_disjointify(balls)
        sel = balls[idx]
        for i in range(len(sel)):
            for j in range(i + 1, len(sel)):
                ok &= abs(sel[i, 0] - sel[j, 0]) > sel[i, 1] + sel[j, 1]
        pts = np.concatenate([rng.uniform(c - r, c + r, max(1, 10000 // n))
                              for c, r in balls])
        covered = np.zeros(len(pts), dtype=bool)
        for c, r in sel:
            covered |= np.abs(pts - c) <= 5 * r
        ok &= bool(covered.all())
    report(9, ok, "100 families: selected disjoint, sampled points in 5x dilates")


def test_criterion_10_theorem_a_determinism(tmp_path):
    cfg = {
        "depth": 12,
        "maps": [{"kind": "identity"}, {"kind": "power", "a": 1.5},
                 {"kind": "dyadic_weight", "rho": 2.0}],
        "d_sweep": [0.9],
        "control": {"c": 1 / 3},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main(["theorem-a", "--config", str(cfg_path),
                         "--out", str(out), "--seed", "123"])
        assert code == 0
        outs.append(out)
    csvs = sorted(p.name for p in outs[0].glob("*.csv"))
    ok = bool(csvs) and all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in csvs
    )
    report(10, ok, f"byte-identical CSVs: {csvs}")
