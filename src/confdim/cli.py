"""Command-line pipelines over the library modules.

Each subcommand reads a JSON config, writes CSV outputs plus a JSON summary
into the output directory, and leaves a manifest with the input hash so a
run can be reproduced.  Exit codes: 0 success, 2 config error, 3 growth or
hypothesis scan failure, 4 solver non-convergence, 5 resource or internal
error (a level above the build cap, a violated internal invariant).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from confdim.cantor import (
    CantorSystem,
    GapSequence,
    GapSequenceError,
    build_system,
    closed_form_minkowski,
    minimality_criterion,
    truncated_length,
)
from confdim.dimension import (
    DiscreteMeasure,
    box_count,
    mass_distribution_lower_bound,
    natural_measure,
)
from confdim.modulus import (
    DiscreteModulusProblem,
    MeasureSystem,
    NonConvergenceError,
    holder_lower_bound,
    product_system,
    solve_discrete,
    solve_fuglede,
)
from confdim.qsmaps import (
    EtaModulus,
    QsMap,
    distortion_check,
    distortion_gap_check,
    qs_ratio_check,
    random_triples,
)
from confdim.qsmass import certificate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SCAN = 3
EXIT_SOLVER = 4
EXIT_INTERNAL = 5

KKT_TOL = 1e-7
GAP_RTOL = 1e-6  # duality gap bound relative to the value

_VERSION = "0.1.0"


class ConfigError(ValueError):
    pass


class ScanError(RuntimeError):
    pass


class SolverError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# config parsing


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing config field {key!r}")
    return cfg[key]


def _gap_sequence(spec: dict) -> GapSequence:
    if not isinstance(spec, dict):
        raise ConfigError("system spec must be an object")
    kind = spec.get("kind", "middle_interval")
    depth = int(_require(spec, "depth"))
    length = int(spec.get("length", depth))
    if length < depth:
        raise ConfigError(f"length {length} shorter than depth {depth}")
    try:
        if kind == "uniform":
            gammas = _require(spec, "gammas")
            ns = _require(spec, "n_children")
            return GapSequence.uniform(gammas, ns)
        c = _require(spec, "c")
        if c == "harmonic":
            return GapSequence.harmonic(length)
        if isinstance(c, dict) and "const" in c:
            return GapSequence.constant(float(c["const"]), length)
        if isinstance(c, dict) and "values" in c:
            return GapSequence(values=tuple(float(v) for v in c["values"]))
        if isinstance(c, dict) and "file" in c:
            try:
                vals = np.loadtxt(c["file"], dtype=float, ndmin=1)
            except OSError as exc:
                raise ConfigError(f"cannot read gap file: {exc}") from exc
            return GapSequence(values=tuple(vals))
        raise ConfigError(f"unrecognized gap spec for field 'c': {c!r}")
    except GapSequenceError as exc:
        raise ConfigError(f"invalid field 'c': {exc}") from exc


def _build(spec: dict) -> CantorSystem:
    gaps = _gap_sequence(spec)
    depth = int(_require(spec, "depth"))
    return build_system(gaps, max_depth=depth)


def _eta(spec) -> EtaModulus:
    if spec is None or spec == "identity":
        return EtaModulus.identity()
    if not isinstance(spec, dict):
        raise ConfigError("eta spec must be 'identity' or an object")
    if "ts" in spec:
        return EtaModulus.tabulated(spec["ts"], spec["etas"])
    return EtaModulus.power(float(_require(spec, "C")), float(_require(spec, "K")))


def _qs_map(spec: dict, seed: int) -> QsMap:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("map spec must be an object with field 'kind'")
    kind = spec["kind"]
    eta = _eta(spec.get("eta")) if "eta" in spec else None
    if kind == "identity":
        return QsMap.identity()
    if kind == "power":
        return QsMap.power(float(_require(spec, "a")), eta=eta)
    if kind == "dyadic_weight":
        return QsMap.dyadic_weight(
            rho=float(spec.get("rho", 2.0)),
            depth=int(spec.get("weight_depth", 8)),
            seed=int(spec.get("seed", seed)),
            eta=eta,
        )
    raise ConfigError(f"unknown map kind {kind!r}")


def _load_config(path: str) -> tuple:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    return cfg, raw


# ---------------------------------------------------------------------------
# output helpers


def _write_csv(path: Path, header, rows):
    """Rows hold Python scalars, so `str` gives a float's shortest repr."""
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _write_summary(path: Path, record: dict):
    path.write_text(json.dumps(record, indent=2, sort_keys=True, default=_json_default) + "\n")


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, np.bool_):
        return bool(o)
    raise TypeError(f"not JSON serializable: {type(o)}")


def _write_manifest(outdir: Path, command: str, config_raw: bytes, filenames):
    digest = {}
    for name in sorted(filenames):
        digest[name] = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
    manifest = {
        "command": command,
        "version": _VERSION,
        "config_sha256": hashlib.sha256(config_raw).hexdigest(),
        "outputs": digest,
    }
    _write_summary(outdir / "manifest.json", manifest)


def _check_solve(res, where: str = "") -> None:
    """Accept a solve only with a small KKT residual and duality gap."""
    if res.kkt_residual > KKT_TOL:
        raise SolverError(f"KKT residual {res.kkt_residual:.3g} above {KKT_TOL:g}{where}")
    if res.duality_gap_bound > GAP_RTOL * res.value:
        raise SolverError(
            f"duality gap {res.duality_gap_bound:.3g} above {GAP_RTOL:g} of the "
            f"value {res.value:.6g}{where}"
        )


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(cfg: dict, outdir: Path, seed: int) -> list:
    system = _build(_require(cfg, "system"))
    rows = []
    for level in system.levels:
        rows.extend((level.depth, j, left, right) for j, (left, right)
                    in enumerate(zip(level.lefts.tolist(), level.rights.tolist())))
    _write_csv(outdir / "levels.csv", ["depth", "index", "left", "right"], rows)
    summary = {
        "depth": system.max_depth,
        "leaf_count": system.level(system.max_depth).count,
        "truncated_length": truncated_length(system, system.max_depth),
    }
    _write_summary(outdir / "summary.json", summary)
    return ["levels.csv", "summary.json"]


def cmd_dimension(cfg: dict, outdir: Path, seed: int) -> list:
    system = _build(_require(cfg, "system"))
    leaves = system.level(system.max_depth)
    eps_spec = _require(cfg, "epsilons")
    if isinstance(eps_spec, dict):
        base = float(_require(eps_spec, "base"))
        eps = [base ** -k for k in range(int(eps_spec.get("k_min", 1)),
                                         int(_require(eps_spec, "k_max")) + 1)]
    else:
        eps = [float(e) for e in eps_spec]
    res = box_count(leaves, eps)
    _write_csv(outdir / "boxcounts.csv", ["epsilon", "count"],
               list(zip(res.scales.tolist(), res.counts.tolist())))
    summary = {"slope": res.fitted_slope, "residual": res.residual}

    if "mass_bound" in cfg:
        mb = cfg["mass_bound"]
        report = mass_distribution_lower_bound(
            natural_measure(leaves),
            float(_require(mb, "d")),
            [float(s) for s in _require(mb, "scales")],
        )
        summary["mass_bound"] = {
            "d": report.d,
            "C_observed": report.C_observed,
            "slope": report.slope,
            "passed": report.passed,
        }
    _write_summary(outdir / "summary.json", summary)
    return ["boxcounts.csv", "summary.json"]


def cmd_distort(cfg: dict, outdir: Path, seed: int) -> list:
    qsmap = _qs_map(_require(cfg, "map"), seed)
    eta = _eta(cfg.get("eta")) if "eta" in cfg else qsmap.eta
    if eta is None:
        raise ConfigError("missing config field 'eta' and the map claims none")
    lo, hi = cfg.get("interval", [-1.0, 1.0])
    if not 0.0 < hi - lo < math.inf:
        raise ConfigError(f"field 'interval' needs 0 < hi - lo < inf, got {[lo, hi]!r}")
    n = int(cfg.get("n_pairs", 10000))

    triple_violation = qs_ratio_check(qsmap, random_triples(lo, hi, n, seed=seed), eta)
    rng = np.random.default_rng(seed)
    diam_viol = gap_viol = 0
    for _ in range(n):
        b = np.sort(rng.uniform(lo, hi, 4))
        while b[-1] - b[0] < 1e-9 * (hi - lo):
            b = np.sort(rng.uniform(lo, hi, 4))
        a = np.sort(rng.uniform(b[0], b[-1], 2))
        while a[1] - a[0] < 1e-12 * (hi - lo):
            a = np.sort(rng.uniform(b[0], b[-1], 2))
        if not distortion_check(qsmap, a, np.concatenate([a, b]), eta).ok:
            diam_viol += 1
        mid = rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo))
        g = rng.uniform(1e-4, 0.15) * (hi - lo)
        x1 = np.sort(rng.uniform(lo, mid - g / 2, 3))
        x2 = np.sort(rng.uniform(mid + g / 2, hi, 3))
        if not distortion_gap_check(qsmap, x1, x2, eta).ok:
            gap_viol += 1
    rows = [
        ("triple_max_violation_ratio", triple_violation),
        ("diameter_bound_violations", diam_viol),
        ("gap_bound_violations", gap_viol),
        ("pairs_tested", n),
    ]
    _write_csv(outdir / "results.csv", ["variable", "value"], rows)
    _write_summary(outdir / "summary.json", {
        "triple_max_violation_ratio": triple_violation,
        "diameter_bound_violations": diam_viol,
        "gap_bound_violations": gap_viol,
        "pairs_tested": n,
        "all_bounds_hold": bool(
            triple_violation <= 1.0 and diam_viol == 0 and gap_viol == 0
        ),
    })
    return ["results.csv", "summary.json"]


def cmd_mass(cfg: dict, outdir: Path, seed: int) -> list:
    system = _build(_require(cfg, "system"))
    qsmap = _qs_map(_require(cfg, "map"), seed)
    d = float(_require(cfg, "d"))
    report = certificate(system, qsmap, d)
    p_max = report.p_max
    rows = list(zip(range(1, len(p_max) + 1), p_max.tolist(), np.cumprod(p_max).tolist()))
    _write_csv(outdir / "pi_factors.csv", ["level", "p_max", "running_product"], rows)
    _write_csv(outdir / "growth.csv", ["depth", "C_growth"],
               list(enumerate(report.level_growth.tolist())))
    _write_summary(outdir / "summary.json", {
        "d": d,
        "passed": report.passed,
        "C_growth": report.C_growth,
        "growth_ok": report.growth_ok,
        "interval_ok": report.interval_ok,
        "ball_ok": report.ball_ok,
        "worst_ball_ratio": report.worst_ball_ratio,
    })
    return ["pi_factors.csv", "growth.csv", "summary.json"]


def cmd_modulus(cfg: dict, outdir: Path, seed: int) -> list:
    prob = _require(cfg, "problem")
    kind = _require(prob, "kind")
    if kind == "fuglede":
        system = MeasureSystem(
            mu=np.asarray(_require(prob, "mu"), dtype=float),
            members=[np.asarray(m, dtype=float) for m in _require(prob, "members")],
            p=float(_require(prob, "p")),
        )
        res = solve_fuglede(system)
    elif kind == "discrete":
        balls, p, delta = _require(prob, "balls"), float(_require(prob, "p")), prob.get("delta")
        if "incidence" in prob:
            problem = DiscreteModulusProblem(balls=balls, p=p, delta=delta,
                                             incidence=prob["incidence"])
        else:
            problem = DiscreteModulusProblem.from_intervals_1d(
                balls, _require(prob, "sets"), p=p, delta=delta)
        res = solve_discrete(problem)
    else:
        raise ConfigError(f"unknown problem kind {kind!r}")
    _check_solve(res)
    rows = [
        ("value", res.value),
        ("kkt_residual", res.kkt_residual),
        ("duality_gap_bound", res.duality_gap_bound),
        ("iterations", res.iterations),
    ]
    _write_csv(outdir / "result.csv", ["variable", "value"], rows)
    _write_csv(outdir / "density.csv", ["index", "weight"],
               list(enumerate(res.optimizer.tolist())))
    _write_summary(outdir / "summary.json", {
        "value": res.value,
        "kkt_residual": res.kkt_residual,
        "duality_gap_bound": res.duality_gap_bound,
        "iterations": res.iterations,
    })
    return ["result.csv", "density.csv", "summary.json"]


def cmd_theorem_a(cfg: dict, outdir: Path, seed: int) -> list:
    control = cfg.get("control")
    if control is not None and not isinstance(control, dict):
        raise ConfigError(f"field 'control' must be an object, got {control!r}")
    depth = int(cfg.get("depth", 14))
    length = int(cfg.get("minkowski_n", 10000))
    gaps = _gap_sequence({"c": cfg.get("c", "harmonic"),
                          "depth": depth, "length": max(depth, length)})
    system = build_system(GapSequence(values=gaps.values[:depth]), max_depth=depth)

    length_rows = [(n, truncated_length(system, n)) for n in range(depth + 1)]
    _write_csv(outdir / "lengths.csv", ["depth", "truncated_length"], length_rows)

    ns = [int(n) for n in cfg.get("minkowski_points", [10, 100, 1000, length])]
    mink_rows = [(n, closed_form_minkowski(gaps, n)) for n in ns]
    _write_csv(outdir / "minkowski.csv", ["n", "dimension"], mink_rows)

    mreport = minimality_criterion(gaps, M=float(cfg.get("M", 1.0)),
                                   tail_window=min(len(gaps), int(cfg.get("tail_window", 1000))))

    d_sweep = [float(d) for d in cfg.get("d_sweep", [0.8, 0.9, 0.95])]
    map_specs = _require(cfg, "maps")
    cert_rows = []
    all_pass = True
    for mi, mspec in enumerate(map_specs):
        qsmap = _qs_map(mspec, seed)
        label = mspec.get("label", f"{mspec['kind']}_{mi}")
        for d in d_sweep:
            rep = certificate(system, qsmap, d)
            all_pass &= rep.passed
            cert_rows.append((label, d, int(rep.passed), rep.C_growth,
                              int(rep.growth_ok), int(rep.interval_ok), int(rep.ball_ok)))
    _write_csv(outdir / "certificates.csv",
               ["map", "d", "passed", "C_growth", "growth_ok", "interval_ok", "ball_ok"],
               cert_rows)

    control_rows = []
    if control is not None:
        csys = build_system(GapSequence.constant(float(control.get("c", 1 / 3)), depth),
                            max_depth=depth)
        for d in d_sweep:
            rep = certificate(csys, QsMap.identity(), d)
            growth = rep.level_growth
            rate = float(np.min(growth[1:] / growth[:-1]))
            control_rows.append((d, int(rep.passed), rep.C_growth, rate))
        _write_csv(outdir / "control.csv",
                   ["d", "passed", "C_growth", "min_level_ratio"], control_rows)

    _write_summary(outdir / "summary.json", {
        "depth": depth,
        "final_truncated_length": length_rows[-1][1],
        "minkowski_tail": mink_rows[-1][1],
        "minimality": {
            "product_limit_estimate": mreport.product_limit_estimate,
            "ratio_ok": mreport.ratio_ok,
            "satisfied_at_finite_scale": mreport.satisfied_at_finite_scale,
        },
        "all_certificates_pass": bool(all_pass),
        "control_all_fail": bool(all(row[1] == 0 for row in control_rows))
        if control_rows else None,
    })
    files = ["lengths.csv", "minkowski.csv", "certificates.csv", "summary.json"]
    if control_rows:
        files.append("control.csv")
    return files


def _growth_scan(measure: DiscreteMeasure, leaves, eps_list, slack: float):
    """Two-sided slope test of window masses around points of the set."""
    centers = (leaves.lefts + leaves.rights) / 2.0
    if len(centers) > 128:
        centers = centers[:: len(centers) // 128 + 1]
    diam = float(np.max(leaves.rights) - np.min(leaves.lefts))
    min_len = float(np.exp(leaves.log_length))
    n_scales = max(3, int(math.log2(diam / min_len)))
    radii = [diam * 2.0 ** (-k) for k in range(1, n_scales + 1)]
    upper, lower = [], []
    for r in radii:
        masses = measure.window_masses(centers - r, centers + r)
        upper.append(float(np.max(masses)))
        lower.append(float(np.min(masses[masses > 0])))
    logr = np.log(radii)
    up_slope = float(np.polyfit(logr, np.log(upper), 1)[0])
    lo_slope = float(np.polyfit(logr, np.log(lower), 1)[0])
    results = []
    for eps in eps_list:
        up_ok = up_slope >= (1.0 - eps) - slack
        lo_ok = lo_slope <= (1.0 + eps) + slack
        results.append({"eps": eps, "upper_slope": up_slope, "lower_slope": lo_slope,
                        "upper_ok": bool(up_ok), "lower_ok": bool(lo_ok),
                        "ok": bool(up_ok and lo_ok)})
    return results


def _pairs(cfg: dict, key: str, pair: str) -> np.ndarray:
    """The config field `key` as an (n, 2) float array of `pair` rows."""
    spec = _require(cfg, key)
    try:
        arr = np.asarray(spec, dtype=float)
    except (ValueError, TypeError):
        arr = np.empty(0)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ConfigError(f"field {key!r} must be a list of {pair} pairs, got {spec!r}")
    return arr


def cmd_theorem_b(cfg: dict, outdir: Path, seed: int) -> list:
    atoms = _pairs(cfg, "atoms", "[x, mass]") if "atoms" in cfg else None
    Y = _pairs(cfg, "Y", "[y, weight]")
    d_sweep = [float(d) for d in cfg.get("d_sweep", [0.5, 0.6, 0.8])]
    eps_list = [float(e) for e in cfg.get("eps_list", [0.2])]
    slack = float(cfg.get("scan_slack", 0.3))
    cell = float(_require(cfg, "cell_width"))
    refine = float(cfg.get("refine", 3.0))
    for name, value in (("cell_width", cell), ("refine", refine)):
        if not 0.0 < value < math.inf:
            raise ConfigError(f"field {name!r} needs 0 < value < inf, got {value!r}")
    system = _build(_require(cfg, "system"))
    leaves = system.level(system.max_depth)
    measure = natural_measure(leaves)
    if atoms is not None:
        measure = DiscreteMeasure(
            lefts=np.concatenate([measure.lefts, atoms[:, 0]]),
            rights=np.concatenate([measure.rights, atoms[:, 0]]),
            masses=np.concatenate([measure.masses, atoms[:, 1]]),
        )

    scan = _growth_scan(measure, leaves, eps_list, slack=slack)
    _write_csv(outdir / "growth_scan.csv",
               ["eps", "upper_slope", "lower_slope", "upper_ok", "lower_ok"],
               [(r["eps"], r["upper_slope"], r["lower_slope"],
                 int(r["upper_ok"]), int(r["lower_ok"])) for r in scan])
    if not all(r["ok"] for r in scan):
        bad = [r for r in scan if not r["ok"]][0]
        raise ScanError(
            f"natural-measure growth scan failed at eps={bad['eps']}: "
            f"slopes ({bad['upper_slope']:.3f}, {bad['lower_slope']:.3f})"
        )

    rows = []
    all_ok = True
    for d in d_sweep:
        for width in (cell, cell / refine):
            sysd = product_system(leaves, measure, Y, width, p=1.0 + d)
            res = solve_fuglede(sysd)
            _check_solve(res, f" at d={d}")
            bound = holder_lower_bound(sysd, d)
            ok = res.value >= bound - 1e-3
            all_ok &= ok
            rows.append((d, width, res.value, bound, res.kkt_residual, int(ok)))
    _write_csv(outdir / "products.csv",
               ["d", "cell_width", "value", "holder_bound", "kkt_residual", "bound_ok"],
               rows)
    _write_summary(outdir / "summary.json", {
        "growth_scan": scan,
        "all_bounds_hold": bool(all_ok),
        "d_sweep": d_sweep,
    })
    return ["growth_scan.csv", "products.csv", "summary.json"]


_COMMANDS = {
    "generate": cmd_generate,
    "dimension": cmd_dimension,
    "distort": cmd_distort,
    "mass": cmd_mass,
    "modulus": cmd_modulus,
    "theorem-a": cmd_theorem_a,
    "theorem-b": cmd_theorem_b,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="confdim",
        description="Numerical experiments on Cantor systems, quasisymmetric "
                    "distortion and modulus problems.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    args = parser.parse_args(argv)

    try:
        cfg, raw = _load_config(args.config)
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        files = _COMMANDS[args.command](cfg, outdir, seed)
        _write_manifest(outdir, args.command, raw, files)
    except (ValueError, KeyError, TypeError) as exc:  # ConfigError, GapSequenceError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ScanError as exc:
        print(f"scan failure: {exc}", file=sys.stderr)
        return EXIT_SCAN
    except (SolverError, NonConvergenceError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError as exc:
        print(f"resource error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INTERNAL
    except AssertionError as exc:
        print(f"internal error: {str(exc) or 'assertion failed'}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
