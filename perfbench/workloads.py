"""Workload inputs, made from the workload seed, and their output checks.

Each workload is a list of `Call`s that one child process runs in order.
A call names a `confdim` command, the config it reads, and a check that
reads the call's output directory and returns the problems it found (an
empty list when the output is correct).  Checks use closed forms where they
exist and otherwise values recorded in `references.json` on the commit that
defined the benchmark (see `record_references.py`).

Scale "full" is the measured size; "minimal" is the self-test size.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCES = Path(__file__).with_name("references.json")

# relative tolerances against the recorded reference values: loose
# enough for ulp-level changes of summation order, tight enough to catch a
# different measure or a different optimum
MASS_RTOL = 1e-6
MODULUS_RTOL = 1e-6
CLOSED_FORM_ATOL = 1e-9  # product value vs nu(Y)
CLOSED_FORM_RTOL = 1e-9  # single-set modulus vs k^(1-p)
KKT_TOL = 1e-7
GAP_RTOL = 1e-6

README_THEOREM_B = {
    "system": {"c": "harmonic", "depth": 6},
    "Y": [[0.0, 0.25], [0.25, 0.25], [0.5, 0.25], [0.75, 0.25]],
    "cell_width": 0.0004572473708276177,
    "d_sweep": [0.5, 0.6, 0.8],
}


@dataclass
class Call:
    command: str
    config: dict
    check: Callable[[Path], list]

    def argv(self, config_path: Path, out: Path) -> list:
        return [self.command, "--config", str(config_path), "--out", str(out)]


def _summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text())


def _rows(path: Path) -> list:
    with path.open() as fh:
        return list(csv.DictReader(fh))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _flags(summary: dict, *keys) -> list:
    return [f"{k} is {summary.get(k)!r}" for k in keys if summary.get(k) is not True]


# ---------------------------------------------------------------------------
# deep-mass: one deep `mass` call, memory-bound tree building


MASS_D = (0.85, 0.875, 0.9, 0.925, 0.95)


def mass_key(depth: int, d: float) -> str:
    return f"{depth}:{d}"


def mass_config(depth: int, d: float) -> dict:
    return {"system": {"c": "harmonic", "depth": depth},
            "map": {"kind": "power", "a": 2}, "d": d}


def _check_mass(ref: dict):
    def check(out: Path) -> list:
        s = _summary(out)
        bad = _flags(s, "passed")
        for key in ("C_growth", "worst_ball_ratio"):
            if _rel(s[key], ref[key]) > MASS_RTOL:
                bad.append(f"{key} {s[key]!r} differs from reference {ref[key]!r}")
        return bad
    return check


def deep_mass(rng: random.Random, scale: str, refs: dict) -> list:
    depth = 22 if scale == "full" else 12
    d = rng.choice(MASS_D)
    return [Call("mass", mass_config(depth, d),
                 _check_mass(refs["mass"][mass_key(depth, d)]))]


# ---------------------------------------------------------------------------
# modulus-batch: 100 discrete modulus programs and one theorem-b in one child


# Balls are level 9 and 10 (512 and 1024 balls).  With level 11 as well, a
# child took about 25 s, so a run held one child, and the p90 latency of
# single unrepeated calls spread by 0.32 of its median over ten runs.
MODULUS_CLASSES = [(k, p, coupled) for k in (9, 10) for p in (1.5, 2.0, 3.0)
                   for coupled in (False, True)]
# The 12 * 8 = 96 pool programs are fixed so that their values can be checked
# against references; the seed orders the batch and makes the closed-form
# programs.  Drawing a seeded subset of a larger pool instead made the batch
# cost differ from seed to seed by more than the run-to-run noise.
POOL_PER_CLASS = 8
CLOSED_FORM_PROGRAMS = 4
RUN_BLOCK = 16          # local runs stay inside blocks of this many balls


def harmonic_balls(depth: int) -> np.ndarray:
    """(center, radius) of the level-`depth` intervals of the harmonic system.

    Built here rather than by confdim so that the inputs do not depend on
    the code under test.
    """
    lefts, length = np.array([0.0]), 1.0
    for i in range(depth):
        child = length * (1.0 - 1.0 / (i + 2)) / 2.0
        lefts = np.column_stack([lefts, lefts + length - child]).ravel()
        length = child
    return np.column_stack([lefts + length / 2.0, np.full(len(lefts), length / 2.0)])


def _program(balls: np.ndarray, p: float, sets: list) -> dict:
    return {"problem": {"kind": "discrete", "p": p, "balls": balls.tolist(), "sets": sets}}


def pool_program(k: int, p: float, coupled: bool, i: int):
    """Program i of a class: id and config.  Fixed, so it has a reference."""
    rng = np.random.default_rng([k, int(10 * p), int(coupled), i])
    balls = harmonic_balls(k)
    c = balls[:, 0]
    n = len(c)
    sets = []
    for _ in range(int(rng.integers(300, 601))):
        # a "curve" through a run of neighbouring leaves; scattered extra
        # leaves couple all runs into one component
        length = int(rng.integers(2, 7))
        j = int(rng.integers(0, n // RUN_BLOCK)) * RUN_BLOCK \
            + int(rng.integers(0, RUN_BLOCK - length + 1))
        s = [[c[j], c[j + length - 1]]]
        if coupled:
            s += [[c[t], c[t]] for t in rng.integers(0, n, size=int(rng.integers(1, 3)))]
        sets.append([[float(a), float(b)] for a, b in s])
    pid = f"k{k}-p{p}-{'coupled' if coupled else 'local'}-{i}"
    return pid, _program(balls, p, sets)


def _check_modulus(expected: float, rtol: float):
    def check(out: Path) -> list:
        s = _summary(out)
        bad = []
        if not s["kkt_residual"] <= KKT_TOL:
            bad.append(f"KKT residual {s['kkt_residual']!r} above {KKT_TOL}")
        gap = s.get("duality_gap_bound")
        if gap is None or not 0.0 <= gap <= GAP_RTOL * s["value"]:
            bad.append(f"duality gap {gap!r} missing or above {GAP_RTOL} relative")
        if _rel(s["value"], expected) > rtol:
            bad.append(f"value {s['value']!r} differs from {expected!r}")
        return bad
    return check


def _check_theorem_b(out: Path) -> list:
    """Fibers lie on disjoint rows, so each product value is nu(Y) = 1."""
    bad = _flags(_summary(out), "all_bounds_hold")
    for row in _rows(out / "products.csv"):
        if abs(float(row["value"]) - 1.0) > CLOSED_FORM_ATOL:
            bad.append(f"product value {row['value']} at d={row['d']} is not nu(Y) = 1")
    return bad


def modulus_batch(rng: random.Random, scale: str, refs: dict) -> list:
    classes = MODULUS_CLASSES if scale == "full" else MODULUS_CLASSES[:6]
    per_class = POOL_PER_CLASS if scale == "full" else 1
    n_closed = CLOSED_FORM_PROGRAMS if scale == "full" else 2
    calls = []
    for k, p, coupled in classes:
        for i in range(per_class):
            pid, cfg = pool_program(k, p, coupled, i)
            calls.append(Call("modulus", cfg, _check_modulus(refs["modulus"][pid], MODULUS_RTOL)))
    # one set through `run` consecutive balls: the optimum puts 1/run on each
    balls = harmonic_balls(9)
    c = balls[:, 0]
    for _ in range(n_closed):
        run = rng.randint(2, 64)
        j = rng.randrange(len(c) - run + 1)
        p = rng.choice((1.5, 2.0, 3.0))
        cfg = _program(balls, p, [[[float(c[j]), float(c[j + run - 1])]]])
        calls.append(Call("modulus", cfg, _check_modulus(run ** (1.0 - p), CLOSED_FORM_RTOL)))
    rng.shuffle(calls)
    # the Fuglede path, and the only `dimension` work (window_mass) measured
    return calls + [Call("theorem-b", README_THEOREM_B, _check_theorem_b)]


WORKLOADS = {
    "deep-mass": deep_mass,
    "modulus-batch": modulus_batch,
}


def make(name: str, seed: int, scale: str = "full") -> list:
    refs = json.loads(REFERENCES.read_text())
    return WORKLOADS[name](random.Random(seed), scale, refs)
