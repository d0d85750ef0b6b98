"""Command-line pipelines over the library modules.

Each subcommand reads a JSON config, writes CSV outputs plus a JSON summary
into the output directory, and leaves a manifest with the input hash so a
run can be reproduced.  It first reads every config field it uses and builds
its library inputs; a failure there is a config error and writes no file.
Exit codes: 0 success, 2 config error (or a modulus set that meets no ball),
3 growth or hypothesis scan failure, 4 solver non-convergence, 5 resource or
internal error (any library failure once the config is read).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from confdim import cantor, dimension, modulus, qsmaps, qsmass
from confdim.modulus import solve_discrete  # called as cli.solve_discrete, so it can be replaced

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SCAN = 3
EXIT_SOLVER = 4
EXIT_INTERNAL = 5

KKT_TOL = 1e-7
GAP_RTOL = 1e-6  # duality gap bound relative to the value

_VERSION = "0.1.0"


class ConfigError(Exception):
    pass


class ScanError(RuntimeError):
    pass


class SolverError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# config reading


@contextmanager
def _reading():
    """A command's reading step: the errors a bad field raises become a ConfigError."""
    try:
        yield
    except (ValueError, TypeError, LookupError, OSError, ArithmeticError) as exc:
        raise ConfigError(str(exc)) from exc


_REQUIRED = object()


def _field(cfg: dict, key: str, convert, default=_REQUIRED):
    """`convert` of cfg[key], or of the default; a failure names the field."""
    value = cfg.get(key, default)
    if value is _REQUIRED:
        raise ConfigError(f"missing config field {key!r}")
    try:
        return convert(value)
    except (ValueError, TypeError, ArithmeticError) as exc:
        raise ConfigError(f"field {key!r}: {exc}") from exc


def _typed(kind, name: str, convert):
    """A reader of JSON values of the type `kind`, never a boolean, through `convert`."""
    def read(value):
        if isinstance(value, bool) or not isinstance(value, kind):
            raise TypeError(f"expected {name}, got {value!r}")
        return convert(value)
    return read


def _checked(convert, ok, need: str):
    """A reader: `convert`, then the range check `ok` on its result."""
    def read(value):
        out = convert(value)
        if not ok(out):
            raise ValueError(f"needs {need}, got {value!r}")
        return out
    return read


def _integer(value) -> int:
    if int(_number(value)) != value:
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _list_of(convert):
    return lambda value: [convert(v) for v in _list(value)]


def _nonempty(convert):
    return _checked(convert, len, "a nonempty list")


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _one_of(*names):
    return _checked(lambda v: v, lambda v: v in names, f"one of {', '.join(map(repr, names))}")


_number = _checked(_typed((int, float), "a number", float), math.isfinite, "a finite number")
_object = _typed(dict, "an object", lambda v: v)
_list = _typed(list, "a list", lambda v: v)
# an entry may overflow to inf in JSON; a Python loop over the entries costs
# less than numpy reductions on the small arrays of `sets`, read by the thousand
_array = _checked(_typed(list, "a list", lambda v: np.asarray(v, dtype=float)),
                  lambda a: all(map(math.isfinite, a.flat)), "finite numbers")
_POSITIVE = _checked(_number, lambda v: 0.0 < v, "0 < value")
_FRACTION = _checked(_number, lambda v: 0.0 < v < 1.0, "0 < value < 1")
_NATURAL = _checked(_integer, lambda n: n >= 0, "an integer >= 0")
_COUNT = _checked(_integer, lambda n: n >= 1, "an integer >= 1")
_VECTOR = _checked(_array, lambda a: a.ndim == 1, "a list of numbers")
_MEASURE = _checked(_VECTOR, lambda a: np.all(a >= 0) and np.sum(a) > 0,
                    "nonnegative numbers with a positive sum")
_PAIRS = _checked(_array, lambda a: a.ndim == 2 and a.shape[1] == 2, "a list of pairs")
# a name that goes into a CSV field unquoted
_LABEL = _checked(_typed(str, "a string", lambda v: v), lambda v: not set(v) & set(',"\r\n'),
                  "a string without a comma, a double quote, CR or LF")
_SET = _checked(_array, lambda s: s.ndim == 1 or s.ndim == 2 and s.shape[1] == 2,
                "a list of points or of [lo, hi] intervals")


def _gaps(c, length: int) -> cantor.GapSequence:
    """Middle-interval gaps: "harmonic", {"const": x}, {"values": [...]} or {"file": path}."""
    if c == "harmonic":
        return cantor.GapSequence.harmonic(length)
    if isinstance(c, dict) and "const" in c:
        return cantor.GapSequence.constant(_field(c, "const", _number), length)
    if isinstance(c, dict) and "values" in c:
        return cantor.GapSequence(values=tuple(_field(c, "values", _list_of(_number))))
    if isinstance(c, dict) and "file" in c:
        try:
            vals = np.loadtxt(c["file"], dtype=float, ndmin=1)
        except OSError as exc:
            raise ConfigError(f"cannot read gap file: {exc}") from exc
        return cantor.GapSequence(values=tuple(vals))
    raise ValueError(f"unrecognized gap spec {c!r}")


def _system(cfg: dict) -> cantor.CantorSystem:
    """The `system` field, built to its `depth`."""
    spec = _field(cfg, "system", _object)
    depth = _field(spec, "depth", _NATURAL)
    if _field(spec, "kind", _one_of(cantor.MIDDLE_INTERVAL, cantor.UNIFORM),
              cantor.MIDDLE_INTERVAL) == cantor.UNIFORM:
        gammas = _field(spec, "gammas", _list_of(_number))
        gaps = _field(spec, "n_children",
                      lambda ns: cantor.GapSequence.uniform(gammas, _list_of(_integer)(ns)))
    else:
        length = _field(spec, "length", _checked(_integer, lambda n: n >= depth,
                                                 f"an integer >= depth {depth}"), depth)
        gaps = _field(spec, "c", lambda c: _gaps(c, length))
    return cantor.build_system(gaps, max_depth=depth)


def _resolved(system: cantor.CantorSystem, key: str, maps) -> cantor.CantorSystem:
    """``system``, unless one of ``maps`` is the identity and a leaf rounds to a point.

    Only the identity's image leaves are known here: they are the domain leaves.
    """
    leaves = system.level(system.max_depth)
    if any(qsmap.kind == "identity" for qsmap in maps):
        for _, x in leaves.blocks(qsmass.PAIR_BLOCK):
            if np.any(x + np.exp(leaves.log_length) <= x):
                raise ConfigError(f"field {key!r}: under the identity map, a leaf at depth "
                                  f"{leaves.depth} is below double resolution")
    return system


def _eta(spec) -> qsmaps.EtaModulus:
    """An eta spec: "identity" (or null), {"C", "K"} or {"ts", "etas"}."""
    if spec is None or spec == "identity":
        return qsmaps.EtaModulus.identity()
    spec = _object(spec)
    if "ts" in spec:
        ts = _field(spec, "ts", _list_of(_number))
        return qsmaps.EtaModulus.tabulated(ts, _field(spec, "etas", _checked(
            _list_of(_number), lambda e: len(e) == len(ts), f"{len(ts)} values, one per t")))
    return qsmaps.EtaModulus.power(_field(spec, "C", _number), _field(spec, "K", _number))


def _qs_map(spec, seed: int) -> qsmaps.QsMap:
    """A map spec: identity, power (`a`) or dyadic_weight (`rho`, `weight_depth`, `seed`)."""
    spec = _object(spec)
    kind = _field(spec, "kind", _one_of("identity", "power", "dyadic_weight"))
    eta = _field(spec, "eta", _eta) if "eta" in spec else None
    if kind == "identity":
        return qsmaps.QsMap.identity()
    if kind == "power":
        return qsmaps.QsMap.power(_field(spec, "a", _POSITIVE), eta=eta)
    rho = _field(spec, "rho", _checked(_POSITIVE, lambda r: r >= 1, "rho >= 1"), 2.0)
    depth = _field(spec, "weight_depth", _checked(
        _NATURAL, lambda n: n < cantor.MEMORY_CAP.bit_length(),  # 2 ** n <= MEMORY_CAP
        f"2 ** weight_depth <= {cantor.MEMORY_CAP}"), 8)
    return qsmaps.QsMap.dyadic_weight(rho=rho, depth=depth,
                                      seed=_field(spec, "seed", _NATURAL, seed), eta=eta)


def _no_constant(name: str):
    """Reject `json`'s NaN, Infinity and -Infinity literals, which JSON does not have."""
    raise ValueError(f"{name} is not a JSON number")


def _load_config(path: str) -> tuple:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(raw, parse_constant=_no_constant)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, _no_constant
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    return cfg, raw


# ---------------------------------------------------------------------------
# output helpers


def _write_csv(path: Path, header, rows):
    """Rows hold Python scalars, so `str` gives a float's shortest repr; written as they come."""
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def _write_summary(path: Path, record: dict):
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(2 ** 20), b""):  # 1 MiB at a time
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(outdir: Path, command: str, config_raw: bytes, filenames):
    _write_summary(outdir / "manifest.json", {
        "command": command,
        "version": _VERSION,
        "config_sha256": hashlib.sha256(config_raw).hexdigest(),
        "outputs": {name: _sha256(outdir / name) for name in filenames},
    })


def _check_solve(res, where: str) -> None:
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
    with _reading():
        system = _system(cfg)
    def rows():
        for lv in system.levels:
            for i, x in lv.blocks(cantor.STORED_COUNT):
                yield from zip([lv.depth] * len(x), range(i, i + len(x)), x.tolist(),
                               (x + np.exp(lv.log_length)).tolist())
    _write_csv(outdir / "levels.csv", ["depth", "index", "left", "right"], rows())
    _write_summary(outdir / "summary.json", {
        "depth": system.max_depth,
        "leaf_count": system.level(system.max_depth).count,
        "truncated_length": cantor.truncated_length(system, system.max_depth),
    })
    return ["levels.csv", "summary.json"]


def _epsilons(spec) -> list:
    """A list of box sizes, or {"base", "k_min", "k_max"} for base^-k."""
    if isinstance(spec, dict):
        base = _field(spec, "base", _POSITIVE)
        ks = range(_field(spec, "k_min", _integer, 1), _field(spec, "k_max", _integer) + 1)
        spec = [base ** -k for k in ks]
    return _nonempty(_list_of(_POSITIVE))(spec)


def cmd_dimension(cfg: dict, outdir: Path, seed: int) -> list:
    with _reading():
        system = _system(cfg)
        leaves = system.level(system.max_depth)
        eps = _field(cfg, "epsilons", _epsilons)
        mb = _field(cfg, "mass_bound", _object) if "mass_bound" in cfg else None
        if mb is not None:
            d = _field(mb, "d", _checked(_number, lambda v: 0.0 < v <= 1.0, "0 < value <= 1"))
            scales = _field(mb, "scales", _nonempty(_list_of(_POSITIVE)))
            _resolved(system, "system", [qsmaps.QsMap.identity()])  # leaves of width > 0
    res = dimension.box_count(leaves, eps)
    _write_csv(outdir / "boxcounts.csv", ["epsilon", "count"],
               list(zip(res.scales.tolist(), res.counts.tolist())))
    summary = {"slope": res.fitted_slope, "residual": res.residual}

    if mb is not None:
        report = dimension.mass_distribution_lower_bound(leaves, d, scales)
        summary["mass_bound"] = {k: getattr(report, k)
                                 for k in ("d", "C_observed", "slope", "passed")}
    _write_summary(outdir / "summary.json", summary)
    return ["boxcounts.csv", "summary.json"]


# the narrowest gap between a gap row's X1 and X2, as a share of the interval
_GAP_MIN = 1e-4


def _uniform(low, high, u):
    """``Generator.uniform(low, high)``'s formula, so its bits, on its unit draws ``u``."""
    return low + (high - low) * u


def _distortion_samples(rng, lo: float, hi: float, n: int) -> tuple:
    """n diameter rows (A, B), B holding A, and n gap rows (X1, X2).

    A row is 14 unit draws in the per-pair order (B, A, the gap's center and
    width, X1, X2); a row whose B or A is too narrow is redrawn whole after the block.
    """
    w = hi - lo
    u, bad = np.empty((n, 14)), np.ones(n, dtype=bool)
    while np.any(bad):
        u[bad] = rng.random((int(np.sum(bad)), 14))
        b = np.sort(_uniform(lo, hi, u[:, :4]), axis=1)
        a = np.sort(_uniform(b[:, :1], b[:, 3:], u[:, 4:6]), axis=1)
        bad = (b[:, 3] - b[:, 0] < 1e-9 * w) | (a[:, 1] - a[:, 0] < 1e-12 * w)
    mid = _uniform(lo + 0.2 * w, hi - 0.2 * w, u[:, 6:7])
    g = _uniform(_GAP_MIN, 0.15, u[:, 7:8]) * w
    x1 = np.sort(_uniform(lo, mid - g / 2, u[:, 8:11]), axis=1)
    x2 = np.sort(_uniform(mid + g / 2, hi, u[:, 11:]), axis=1)
    return a, np.concatenate([a, b], axis=1), x1, x2


def cmd_distort(cfg: dict, outdir: Path, seed: int) -> list:
    with _reading():
        qsmap = _field(cfg, "map", lambda spec: _qs_map(spec, seed))
        eta = _field(cfg, "eta", _eta) if "eta" in cfg else qsmap.eta
        if eta is None:
            raise ConfigError("missing config field 'eta' and the map claims none")
        dlo, dhi = qsmap.domain
        # the narrowest gap spans 8 float spacings, so X1 and X2 stay apart once rounded
        lo, hi = _field(cfg, "interval", _checked(
            _list_of(_number),
            lambda v: len(v) == 2 and dlo <= v[0] and v[1] <= dhi and 0.0 < v[1] - v[0] < math.inf
            and _GAP_MIN * (v[1] - v[0]) >= 8 * np.spacing(max(abs(v[0]), abs(v[1]))),
            f"[lo, hi] inside the map's domain [{dlo}, {dhi}] with 0 < hi - lo < inf and "
            f"{_GAP_MIN:g} (hi - lo) at least 8 float spacings at the interval"),
            [-1.0, 1.0])
        n = _field(cfg, "n_pairs", _COUNT, 10000)

    triple_violation = qsmaps.qs_ratio_check(qsmap, qsmaps.random_triples(lo, hi, n, seed), eta)
    a, b, x1, x2 = _distortion_samples(np.random.default_rng(seed), lo, hi, n)
    diam_viol = n - int(np.sum(qsmaps.distortion_check(qsmap, a, b, eta).ok))
    gap_viol = n - int(np.sum(qsmaps.distortion_gap_check(qsmap, x1, x2, eta).ok))
    summary = {"triple_max_violation_ratio": triple_violation,
               "diameter_bound_violations": diam_viol, "gap_bound_violations": gap_viol,
               "pairs_tested": n}
    _write_csv(outdir / "results.csv", ["variable", "value"], list(summary.items()))
    summary["all_bounds_hold"] = bool(triple_violation <= 1.0 and diam_viol == 0
                                      and gap_viol == 0)
    _write_summary(outdir / "summary.json", summary)
    return ["results.csv", "summary.json"]


def cmd_mass(cfg: dict, outdir: Path, seed: int) -> list:
    with _reading():
        system = _system(cfg)
        if system.gaps.kind != cantor.MIDDLE_INTERVAL or system.max_depth < 1:
            raise ConfigError("field 'system': the certificate needs a middle-interval "
                              "(binary) system of depth >= 1")
        qsmap = _field(cfg, "map", lambda spec: _qs_map(spec, seed))
        d = _field(cfg, "d", _FRACTION)
        _resolved(system, "system", [qsmap])
    report = qsmass.certificate(system, qsmap, d)
    p_max = report.p_max
    rows = list(zip(range(1, len(p_max) + 1), p_max.tolist(), np.cumprod(p_max).tolist()))
    _write_csv(outdir / "pi_factors.csv", ["level", "p_max", "running_product"], rows)
    _write_csv(outdir / "growth.csv", ["depth", "C_growth"],
               list(enumerate(report.level_growth.tolist())))
    _write_summary(outdir / "summary.json", {"d": d, **{k: getattr(report, k) for k in (
        "passed", "C_growth", "growth_ok", "interval_ok", "ball_ok", "worst_ball_ratio")}})
    return ["pi_factors.csv", "growth.csv", "summary.json"]


def cmd_modulus(cfg: dict, outdir: Path, seed: int) -> list:
    with _reading():
        prob = _field(cfg, "problem", _object)
        kind = _field(prob, "kind", _one_of("fuglede", "discrete"))
        p = _field(prob, "p", _checked(_number, lambda v: 1.0 < v, "1 < value"))
        if kind == "fuglede":
            mu = _field(prob, "mu", _MEASURE)
            members = _field(prob, "members", _checked(
                _list_of(_MEASURE), lambda ms: all(len(lam) == len(mu) for lam in ms),
                f"members of {len(mu)} cells"))
            problem = modulus.MeasureSystem(mu=mu, members=members, p=p)
        else:
            balls = _field(prob, "balls", _array)
            delta = _field(prob, "delta", _optional(_number), None)
            if "incidence" in prob:
                incidence = _field(prob, "incidence", _checked(
                    _array, lambda a: a.size and a.ndim == 2 and a.shape[1] == len(balls),
                    f"a nonempty list of rows of {len(balls)} numbers"))
                problem = modulus.DiscreteModulusProblem(
                    balls=balls, p=p, delta=delta, incidence=incidence)
            else:
                problem = modulus.DiscreteModulusProblem.from_intervals_1d(
                    balls, _field(prob, "sets", _nonempty(_list_of(_SET))),
                    p=p, delta=delta)
    res = modulus.solve_fuglede(problem) if kind == "fuglede" else solve_discrete(problem)
    _check_solve(res, "")
    summary = {k: getattr(res, k)
               for k in ("value", "kkt_residual", "duality_gap_bound", "iterations")}
    _write_csv(outdir / "result.csv", ["variable", "value"], list(summary.items()))
    _write_csv(outdir / "density.csv", ["index", "weight"],
               list(enumerate(res.optimizer.tolist())))
    _write_summary(outdir / "summary.json", summary)
    return ["result.csv", "density.csv", "summary.json"]


def cmd_theorem_a(cfg: dict, outdir: Path, seed: int) -> list:
    with _reading():
        control = _field(cfg, "control", _optional(_object), None)
        depth = _field(cfg, "depth", _COUNT, 14)
        length = max(depth, _field(cfg, "minkowski_n", _COUNT, 10000))
        gaps = _field(cfg, "c", lambda c: _gaps(c, length), "harmonic")
        system = cantor.build_system(cantor.GapSequence(values=gaps.values[:depth]),
                                     max_depth=depth)
        mink_rows = _field(cfg, "minkowski_points", lambda ns: [
            (n, cantor.closed_form_minkowski(gaps, n))
            for n in _nonempty(_list_of(_integer))(ns)],
            [10, 100, 1000, length])
        M = _field(cfg, "M", _number, 1.0)
        tail_window = min(len(gaps), _field(cfg, "tail_window", _COUNT, 1000))
        d_sweep = _field(cfg, "d_sweep", _nonempty(_list_of(_FRACTION)), [0.8, 0.9, 0.95])
        maps = _field(cfg, "maps", _nonempty(_list_of(lambda spec: _qs_map(spec, seed))))
        labels = [_field(spec, "label", _LABEL, f"{spec['kind']}_{i}")
                  for i, spec in enumerate(cfg["maps"])]
        _resolved(system, "c", maps)
        if control is not None:
            csys = _resolved(cantor.build_system(_field(
                control, "c", lambda c: cantor.GapSequence.constant(_number(c), depth), 1 / 3),
                max_depth=depth), "control", [qsmaps.QsMap.identity()])

    length_rows = [(n, cantor.truncated_length(system, n)) for n in range(depth + 1)]
    _write_csv(outdir / "lengths.csv", ["depth", "truncated_length"], length_rows)
    _write_csv(outdir / "minkowski.csv", ["n", "dimension"], mink_rows)

    mreport = cantor.minimality_criterion(gaps, M=M, tail_window=tail_window)

    cert_rows = []
    for label, qsmap in zip(labels, maps):
        for d in d_sweep:
            rep = qsmass.certificate(system, qsmap, d)
            cert_rows.append((label, d, int(rep.passed), rep.C_growth,
                              int(rep.growth_ok), int(rep.interval_ok), int(rep.ball_ok)))
    _write_csv(outdir / "certificates.csv",
               ["map", "d", "passed", "C_growth", "growth_ok", "interval_ok", "ball_ok"],
               cert_rows)

    control_rows = []
    if control is not None:
        for d in d_sweep:
            rep = qsmass.certificate(csys, qsmaps.QsMap.identity(), d)
            rate = float(np.min(rep.level_growth[1:] / rep.level_growth[:-1]))
            control_rows.append((d, int(rep.passed), rep.C_growth, rate))
        _write_csv(outdir / "control.csv",
                   ["d", "passed", "C_growth", "min_level_ratio"], control_rows)

    _write_summary(outdir / "summary.json", {
        "depth": depth,
        "final_truncated_length": length_rows[-1][1],
        "minkowski_tail": mink_rows[-1][1],
        "minimality": {k: getattr(mreport, k) for k in (
            "product_limit_estimate", "ratio_ok", "satisfied_at_finite_scale")},
        "all_certificates_pass": all(row[2] for row in cert_rows),
        "control_all_fail": bool(all(row[1] == 0 for row in control_rows))
        if control_rows else None,
    })
    files = ["lengths.csv", "minkowski.csv", "certificates.csv", "summary.json"]
    if control_rows:
        files.append("control.csv")
    return files


def _growth_scan(leaves: cantor.IntervalLevel, mass: float, atoms, eps_list, slack: float):
    """Two-sided slope test of window masses around at most 128 leaf centers, for
    ``mass`` on every leaf plus ``atoms``; the windows read the leaf ends they probe."""
    image, n = qsmaps.ImageLevel(qsmaps.QsMap.identity(), leaves), leaves.count
    at = np.arange(0, n, n // 128 + 1 if n > 128 else 1)
    centers = (image.lefts[at] + image.rights[at]) / 2.0
    diam = float(image.rights[n - 1] - image.lefts[0])
    n_scales = max(3, int(math.log2(diam / float(np.exp(leaves.log_length)))))
    radii = [diam * 2.0 ** (-k) for k in range(1, n_scales + 1)]
    upper, lower = [], []
    for r in radii:
        x0s, x1s = centers - r, centers + r
        masses = (dimension.locate_windows(image.lefts, image.rights, x0s, x1s).equal_masses(mass)
                  + atoms.window_masses(x0s, x1s))
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


def cmd_theorem_b(cfg: dict, outdir: Path, seed: int) -> list:
    with _reading():
        Y = _field(cfg, "Y", _checked(
            _PAIRS, lambda y: np.all(y[:, 1] >= 0) and np.sum(y[:, 1]) > 0,
            "[y, weight] pairs, weights >= 0 with a positive sum"))
        d_sweep = _field(cfg, "d_sweep", _nonempty(_list_of(_FRACTION)), [0.5, 0.6, 0.8])
        eps_list = _field(cfg, "eps_list", _nonempty(_list_of(_number)), [0.2])
        slack = _field(cfg, "scan_slack", _number, 0.3)
        system = _system(cfg)
        leaves = _resolved(system, "system", [qsmaps.QsMap.identity()]).level(system.max_depth)
        atoms = (_field(cfg, "atoms", _checked(_PAIRS, lambda a: np.all(a[:, 1] >= 0),
                                               "[x, mass] pairs, masses >= 0"))
                 if "atoms" in cfg else np.empty((0, 2)))
        # lambda_E stays a probability measure; growth slopes do not see the scale
        total = math.fsum([1.0, *atoms[:, 1]])
        atoms = dimension.DiscreteMeasure(lefts=atoms[:, 0], rights=atoms[:, 0],
                                          masses=atoms[:, 1] / total)

    scan = _growth_scan(leaves, 1.0 / leaves.count / total, atoms, eps_list, slack=slack)
    _write_csv(outdir / "growth_scan.csv",
               ["eps", "upper_slope", "lower_slope", "upper_ok", "lower_ok"],
               [(r["eps"], r["upper_slope"], r["lower_slope"],
                 int(r["upper_ok"]), int(r["lower_ok"])) for r in scan])
    bad = [r for r in scan if not r["ok"]]
    if bad:
        raise ScanError(f"natural-measure growth scan failed at eps={bad[0]['eps']}: "
                        f"slopes ({bad[0]['upper_slope']:.3f}, {bad[0]['lower_slope']:.3f})")

    # fibers on disjoint rows: row w's program, min w sum lam rho^p with sum lam rho >= 1, is
    # w lam_E(E)^(-d) = w (lam_E is a probability measure), so the modulus is nu(Y) at every d
    nu = math.fsum(Y[:, 1])
    rows = [(d, nu, nu, 1) for d in d_sweep]
    _write_csv(outdir / "products.csv", ["d", "value", "holder_bound", "bound_ok"], rows)
    _write_summary(outdir / "summary.json", {
        "growth_scan": scan,
        "all_bounds_hold": True,
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
    if args.seed is not None and args.seed < 0:
        parser.error(f"argument --seed: must be >= 0, got {args.seed}")

    try:
        cfg, raw = _load_config(args.config)
        seed = _field(cfg, "seed", _NATURAL, 0) if args.seed is None else args.seed
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        files = _COMMANDS[args.command](cfg, outdir, seed)
        _write_manifest(outdir, args.command, raw, files)
    except (ConfigError, cantor.GapSequenceError, modulus.InfeasibleError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ScanError as exc:
        print(f"scan failure: {exc}", file=sys.stderr)
        return EXIT_SCAN
    except (SolverError, modulus.NonConvergenceError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError as exc:
        print(f"resource error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INTERNAL
    except (AssertionError, ValueError, TypeError, LookupError) as exc:
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
