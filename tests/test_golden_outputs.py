"""Every README config and every CI config that runs in under a second keeps its output bits.

Each run's manifest maps its output files to their sha256; the table below
holds the first 16 hex digits of each, one table per SIMD target of numpy's
float64 power (`test_qsmass._power_target`), since pow rounds differently with
and without AVX-512.  Both tables come from numpy 2.4 on x86-64, the baseline
one under NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR".  A change
that moves an output's bits edits its entries here.
"""

import json

import numpy as np
import pytest

import confdim.cli as cli
from test_qsmass import _power_target

_POWER2 = {"kind": "power", "a": 2, "eta": {"C": 4.2360679777, "K": 2}}
_TB4 = {"system": {"c": "harmonic", "depth": 6},
        "Y": [[0.0, 0.25], [0.25, 0.25], [0.5, 0.25], [0.75, 0.25]],
        "d_sweep": [0.5, 0.6, 0.8]}
_TA14 = {"depth": 14, "d_sweep": [0.8, 0.9, 0.95],
         "maps": [{"kind": "identity"}, _POWER2, {"kind": "dyadic_weight", "rho": 2.0}],
         "control": {"c": 0.3333333333333333}}

# name: (command, config); a table entry of None is a config that exits 2
GOLDEN_CONFIGS = {
    "dimension-third": ("dimension", {"system": {"c": {"const": 0.3333333333333333}, "depth": 12},
                                      "epsilons": {"base": 3.0, "k_min": 1, "k_max": 10}}),
    "theorem-a": ("theorem-a", _TA14),
    "theorem-b": ("theorem-b", _TB4),
    "mass-identity-10": ("mass", {"system": {"c": "harmonic", "depth": 10},
                                  "map": {"kind": "identity"}, "d": 0.9}),
    "mass-power-18": ("mass", {"system": {"c": "harmonic", "depth": 18},
                               "map": {"kind": "power", "a": 2}, "d": 0.9}),
    "generate-uniform": ("generate", {"system": {"kind": "uniform", "gammas": [0.1, 0.2, 0.05],
                                                 "n_children": [3, 2, 4], "depth": 3}}),
    "theorem-b-cell-width": ("theorem-b", {**_TB4, "cell_width": 0.0004572473708276177}),
    "modulus-discrete": ("modulus", {"problem": {
        "kind": "discrete", "p": 2, "balls": [[0.0, 0.5], [2.0, 0.5], [4.0, 0.5]],
        "sets": [[0.05], [[1.95, 4.05]]]}}),
    "mass-dyadic-8": ("mass", {"system": {"c": "harmonic", "depth": 8}, "d": 0.9,
                               "map": {"kind": "dyadic_weight", "rho": 2.0, "weight_depth": 8,
                                       "seed": 1}}),
    "theorem-a-low-d": ("theorem-a", {"depth": 14, "d_sweep": [0.3, 0.5, 0.7],
                                      "maps": [{"kind": "identity"}, {"kind": "power", "a": 2},
                                               {"kind": "dyadic_weight", "rho": 2.0}]}),
    "distort-power2": ("distort", {"map": _POWER2}),
    "theorem-b-128-rows": ("theorem-b", {"system": {"c": "harmonic", "depth": 6},
                                         "Y": [[k / 128, 1 / 128] for k in range(128)],
                                         "cell_width": 0.0004572473708276177,
                                         "d_sweep": [0.5, 0.6, 0.8]}),
    "dimension-fine": ("dimension", {"system": {"c": {"const": 0.7}, "depth": 14},
                                     "epsilons": [0.1], "mass_bound": {
                                         "d": 0.5,
                                         "scales": [0.15 ** k for k in range(3, 12)] + [1e-10]}}),
    # the deep CI runs that finish in under a second
    "theorem-b-24": ("theorem-b", {"system": {"c": "harmonic", "depth": 24}, "Y": [[0.0, 1.0]]}),
    "dimension-22": ("dimension", {"system": {"c": "harmonic", "depth": 22},
                                   "epsilons": [0.1, 0.01, 0.001]}),
    "mass-identity-22": ("mass", {"system": {"c": "harmonic", "depth": 22},
                                  "map": {"kind": "identity"}, "d": 0.9}),
    # config errors
    "theorem-b-bad-y": ("theorem-b", {"system": {"c": "harmonic", "depth": 6}, "Y": [[0.0]],
                                      "cell_width": 0.0004572473708276177}),
    "mass-deep-weights": ("mass", {"system": {"c": "harmonic", "depth": 8}, "d": 0.9,
                                   "map": {"kind": "dyadic_weight", "weight_depth": 40}}),
    "mass-point-leaves": ("mass", {"system": {"c": {"const": 0.999}, "depth": 5},
                                   "map": {"kind": "identity"}, "d": 0.9}),
}

GOLDEN_OUTPUTS = {
    "X86_V4": {
        "dimension-third": {
            "boxcounts.csv": "e39bf3eee08c3951",
            "summary.json": "a47c5002c2e095ff",
        },
        "theorem-a": {
            "certificates.csv": "5285b8c784bfffc5",
            "control.csv": "7882acbe455e9217",
            "lengths.csv": "f3c7c81f2031dd54",
            "minkowski.csv": "069da961f2d84efa",
            "summary.json": "3d0b8b72c81677f9",
        },
        "theorem-b": {
            "growth_scan.csv": "a794a30fcde1ede8",
            "products.csv": "0c04dc05d0ecd971",
            "summary.json": "ffa211ecbdcc5347",
        },
        "mass-identity-10": {
            "growth.csv": "302d1e58833c65e1",
            "pi_factors.csv": "fefdcf9430a0ab51",
            "summary.json": "e6f1ae8637e4c617",
        },
        "mass-power-18": {
            "growth.csv": "38708b494cc6b3b4",
            "pi_factors.csv": "d969fcd15e8d4116",
            "summary.json": "0203ce5b317d7214",
        },
        "generate-uniform": {"levels.csv": "f303d4b29eaa771b", "summary.json": "7b57397bb78ad4c0"},
        "theorem-b-cell-width": {
            "growth_scan.csv": "a794a30fcde1ede8",
            "products.csv": "0c04dc05d0ecd971",
            "summary.json": "ffa211ecbdcc5347",
        },
        "modulus-discrete": {
            "density.csv": "c780461dfbe63a99",
            "result.csv": "03818981ee563218",
            "summary.json": "75a6cdaeaa39de78",
        },
        "mass-dyadic-8": {
            "growth.csv": "e081c9b5391db946",
            "pi_factors.csv": "8bfe315d2b2cfcc2",
            "summary.json": "445ba1bca865e19a",
        },
        "theorem-a-low-d": {
            "certificates.csv": "8fd17a1f4df03c87",
            "lengths.csv": "f3c7c81f2031dd54",
            "minkowski.csv": "069da961f2d84efa",
            "summary.json": "5c6b49b7f5f7a125",
        },
        "distort-power2": {"results.csv": "ea2e746c4cd93857", "summary.json": "331c12dcdf44f8fc"},
        "theorem-b-128-rows": {
            "growth_scan.csv": "a794a30fcde1ede8",
            "products.csv": "0c04dc05d0ecd971",
            "summary.json": "ffa211ecbdcc5347",
        },
        "dimension-fine": {
            "boxcounts.csv": "5abf2185c25ef06a",
            "summary.json": "a42afe27ff77f7fe",
        },
        "theorem-b-24": {
            "growth_scan.csv": "a9afa1c8ea6656f4",
            "products.csv": "0c04dc05d0ecd971",
            "summary.json": "509d4e120be6a1c5",
        },
        "dimension-22": {"boxcounts.csv": "67ae16225b0885ab", "summary.json": "b71e20447e3f8672"},
        "mass-identity-22": {
            "growth.csv": "315459bc7c5c810e",
            "pi_factors.csv": "f37663af333f670b",
            "summary.json": "c8237d36777131b3",
        },
        "theorem-b-bad-y": None,
        "mass-deep-weights": None,
        "mass-point-leaves": None,
    },
    "baseline(X86_V2)": {
        "dimension-third": {
            "boxcounts.csv": "e39bf3eee08c3951",
            "summary.json": "a47c5002c2e095ff",
        },
        "theorem-a": {
            "certificates.csv": "52127cc35c096910",
            "control.csv": "36656473dda58de4",
            "lengths.csv": "d60d7db0fc1df39e",
            "minkowski.csv": "069da961f2d84efa",
            "summary.json": "3d0b8b72c81677f9",
        },
        "theorem-b": {
            "growth_scan.csv": "a794a30fcde1ede8",
            "products.csv": "0c04dc05d0ecd971",
            "summary.json": "ffa211ecbdcc5347",
        },
        "mass-identity-10": {
            "growth.csv": "4dd93c60eed99b60",
            "pi_factors.csv": "11af98c4eaa3c65d",
            "summary.json": "df50480d300f885b",
        },
        "mass-power-18": {
            "growth.csv": "1a73b073c02dd83e",
            "pi_factors.csv": "4e3558e9cee651f1",
            "summary.json": "93b26865bd23639c",
        },
        "generate-uniform": {"levels.csv": "ef6cde8052f664f1", "summary.json": "7b57397bb78ad4c0"},
        "theorem-b-cell-width": {
            "growth_scan.csv": "a794a30fcde1ede8",
            "products.csv": "0c04dc05d0ecd971",
            "summary.json": "ffa211ecbdcc5347",
        },
        "modulus-discrete": {
            "density.csv": "c780461dfbe63a99",
            "result.csv": "03818981ee563218",
            "summary.json": "75a6cdaeaa39de78",
        },
        "mass-dyadic-8": {
            "growth.csv": "706d4ac210c0c0e5",
            "pi_factors.csv": "4331c059bb444315",
            "summary.json": "381004726dc34590",
        },
        "theorem-a-low-d": {
            "certificates.csv": "a23d6ddb94f20ef4",
            "lengths.csv": "d60d7db0fc1df39e",
            "minkowski.csv": "069da961f2d84efa",
            "summary.json": "5c6b49b7f5f7a125",
        },
        "distort-power2": {"results.csv": "ea2e746c4cd93857", "summary.json": "331c12dcdf44f8fc"},
        "theorem-b-128-rows": {
            "growth_scan.csv": "a794a30fcde1ede8",
            "products.csv": "0c04dc05d0ecd971",
            "summary.json": "ffa211ecbdcc5347",
        },
        "dimension-fine": {
            "boxcounts.csv": "5abf2185c25ef06a",
            "summary.json": "a42afe27ff77f7fe",
        },
        "theorem-b-24": {
            "growth_scan.csv": "a9afa1c8ea6656f4",
            "products.csv": "0c04dc05d0ecd971",
            "summary.json": "509d4e120be6a1c5",
        },
        "dimension-22": {"boxcounts.csv": "67ae16225b0885ab", "summary.json": "b71e20447e3f8672"},
        "mass-identity-22": {
            "growth.csv": "87106851b0e3abb2",
            "pi_factors.csv": "c556e8543a9b2d73",
            "summary.json": "f7d535c50fd05a76",
        },
        "theorem-b-bad-y": None,
        "mass-deep-weights": None,
        "mass-point-leaves": None,
    },
}


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.3.0",
                    reason="no output bits are recorded for numpy before 2.3")
@pytest.mark.parametrize("name", list(GOLDEN_CONFIGS))
def test_readme_and_ci_configs_keep_their_recorded_output_bits(tmp_path, name):
    target = _power_target()
    assert target in GOLDEN_OUTPUTS, f"no output bits are recorded for power on {target}"
    want = GOLDEN_OUTPUTS[target][name]
    command, cfg = GOLDEN_CONFIGS[name]
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(tmp_path / "cfg.json"), "--out", str(out)])
    if want is None:  # a config error: exit 2 and no file
        assert (code, list(out.iterdir())) == (cli.EXIT_CONFIG, [])
        return
    assert code == cli.EXIT_OK
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert {k: v[:16] for k, v in outputs.items()} == want
