"""confdim benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; confdim is imported from ./src.
The workload's configs are made from --seed (see workloads.py).  Each
child process imports confdim and runs the workload's CLI calls once
through `confdim.cli.main`.  Children run back to back until --seconds have
passed (the last one starts only if it is likely to end in time); before
them, SETUP_PROBES children only start up, to measure setup.

--trace 0 reports the end-to-end metrics of untraced children.  --trace 1
alternates traced and untraced children and reports per-layer metrics from
the traced ones (spans.py), with the tracing overhead against the untraced
ones.  Every call's output is checked; the last stdout line is the JSON
result.  Exit code 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
SETUP_PROBES = 5
BLAS_THREADS = 1
RUN_BUDGET_S = 170.0  # every child is killed past this point of the run
COVERAGE_MIN_PCT = 90.0  # root spans must cover this share of traced wall

# per-layer metrics: self-time shares and call counts per traced span, then
# the computed counts (sizes of arrays, repeat exactly for identical inputs)
SELF_PCT = [spans.span_name(layer, attr) for layer, _, attr, _ in spans.TARGETS]
CALL_COUNTS = [
    "cantor.build_system", "qsmaps.push_intervals", "dimension.window_mass",
    "qsmass.build_image_tree", "qsmass.certificate", "modulus.solve_discrete", "cli.main",
]
COMPUTED = spans.COMPUTED_COUNTS + ["cli.bytes_written", "qsmass.tree_builds_per_mass"]
UNITS = {"cantor.bytes_built": "B", "qsmaps.push_intervals.bytes": "B",
         "cli.bytes_written": "B", "modulus.kkt_max": "1", "modulus.gap_max": "1",
         "qsmass.tree_builds_per_mass": "builds/call"}
# floats that are telemetry rather than counts: not required to repeat
NOT_REPEATED = {"modulus.kkt_max", "modulus.gap_max"}
# sizes read off arrays and files rather than measured: labelled "computed"
SIZES = {"cantor.intervals_built", "cantor.bytes_built", "qsmaps.push_intervals.bytes",
         "qsmass.nodes_massed", "modulus.raster_cells", "modulus.program_nnz",
         "cli.bytes_written"}


class HarnessError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    """Spawns children for one workload and collects what they report."""

    def __init__(self, root: Path, work: Path, calls: list, deadline: float):
        self.root, self.work, self.calls, self.deadline = root, work, calls, deadline
        self.env = _child_env(root)
        self.configs = []
        inputs = work / "inputs"
        inputs.mkdir(parents=True)
        for i, call in enumerate(calls):
            path = inputs / f"call{i}.json"
            path.write_text(json.dumps(call.config, sort_keys=True))
            self.configs.append(path)
        self.n = 0

    def inputs_digest(self) -> str:
        h = hashlib.sha256()
        for call, path in zip(self.calls, self.configs):
            h.update(f"{call.command}\n".encode())
            h.update(path.read_bytes())
        return h.hexdigest()

    def child(self, setup_only: bool = False, traced: bool = False) -> dict:
        """Run one child; returns its report with checks applied."""
        d = self.work / f"child{self.n}"
        self.n += 1
        d.mkdir()
        plan = {"calls": [{"config": str(cfg), "argv": call.argv(cfg, d / f"out{i}")}
                          for i, (call, cfg) in enumerate(zip(self.calls, self.configs))]}
        (d / "plan.json").write_text(json.dumps(plan))
        argv = [sys.executable, str(CHILD), str(d / "plan.json"), str(d / "result.json")]
        if setup_only:
            argv.append("--setup-only")
        if traced:
            argv += ["--trace", str(d / "spans.npz")]
        with open(d / "log.txt", "wb") as log:
            spawn = time.monotonic()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.root)
        try:
            while True:
                pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > self.deadline:
                    proc.kill()
                    _, status, ru = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.01)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            proc.returncode = -1  # reaped here, not by subprocess
        report = {"rc": os.waitstatus_to_exitcode(status), "rss_mb": ru.ru_maxrss / 1024.0,
                  "duration_s": time.monotonic() - spawn,
                  "failures": [], "failed_calls": len(self.calls)}
        try:
            result = json.loads((d / "result.json").read_text())
        except (OSError, ValueError):
            result = None
        if report["rc"] != 0 or result is None:
            tail = (d / "log.txt").read_text(errors="replace")[-2000:]
            report["failures"] = [f"child exited {report['rc']}: {tail}"]
            shutil.rmtree(d)
            return report
        if not Path(result["confdim"]).resolve().is_relative_to(self.root / "src"):
            raise HarnessError(f"child imported confdim from {result['confdim']}, not ./src")
        report["setup_s"] = result["ready"] - spawn
        if not setup_only:
            records = result["calls"]
            report["latency_s"] = [t1 - t0 for t0, t1, _ in records]
            report["wall_s"] = records[-1][1] - records[0][0]
            report["cpu_s"] = result["cpu_s"]
            report["ok_calls"] = 0
            report["bytes_written"] = 0
            for i, (call, (_, _, rc)) in enumerate(zip(self.calls, records)):
                out = d / f"out{i}"
                problems = [f"exit code {rc}"] if rc != 0 else _run_check(call, out)
                report["failures"] += [f"call {i} ({call.command}): {p}" for p in problems]
                report["ok_calls"] += not problems
                report["bytes_written"] += sum(f.stat().st_size for f in out.glob("*"))
            report["failed_calls"] = len(self.calls) - report["ok_calls"]
            if traced:
                with np.load(d / "spans.npz") as sp:
                    report["layers"] = _layer_metrics(dict(sp), report, self.calls)
        shutil.rmtree(d)
        return report


def _run_check(call, out: Path) -> list:
    try:
        return call.check(out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def _layer_metrics(sp, report: dict, calls: list) -> dict:
    wall = report["wall_s"]
    own = spans.self_times(sp)
    m = {"self_s": {n: own.get(n, (0.0, 0))[0] for n in SELF_PCT}}
    m["self_pct"] = {n: 100.0 * s / wall for n, s in m["self_s"].items()}
    m["calls"] = {n: own.get(n, (0.0, 0))[1] for n in SELF_PCT}
    counts = {n: v if n in NOT_REPEATED else int(v)
              for n, v in zip(sp["count_names"].tolist(), sp["count_values"].tolist())}
    counts["cli.bytes_written"] = report["bytes_written"]
    n_mass = sum(c.command == "mass" for c in calls)
    counts["qsmass.tree_builds_per_mass"] = (
        m["calls"]["qsmass.build_image_tree"] / n_mass if n_mass else 0)
    m["computed"] = counts
    m["coverage_pct"] = 100.0 * spans.root_seconds(sp) / wall
    return m


def _median(xs) -> float:
    return float(statistics.median(xs))


def end_to_end(setups: list, children: list) -> dict:
    """End-to-end metrics of one run: medians over its untraced children.

    A call's latency is its median over the children; the call quantiles are
    taken over the workload's calls.
    """
    wall = _median([c["wall_s"] for c in children])
    per_call = np.median([c["latency_s"] for c in children], axis=0)
    ok_per_child = sum(c["ok_calls"] for c in children) / len(children)
    return {
        "wall_s": (wall, "s"),
        "cpu_s": (_median([c["cpu_s"] for c in children]), "s"),
        "peak_rss_mb": (_median([c["rss_mb"] for c in children]), "MB"),
        "setup_s": (_median(setups), "s"),
        "calls_per_s": (ok_per_child / wall, "1/s"),
        "call_p50_ms": (1e3 * float(np.quantile(per_call, 0.5)), "ms"),
        "call_p90_ms": (1e3 * float(np.quantile(per_call, 0.9)), "ms"),
    }


def per_layer(traced: list, untraced: list, problems: list) -> tuple:
    """Per-layer metrics (medians over traced children) and the table."""
    layers = [c["layers"] for c in traced]
    first = layers[0]
    for other in layers[1:]:
        for group in ("calls", "computed"):
            for name, value in first[group].items():
                if name not in NOT_REPEATED and other[group][name] != value:
                    problems.append(f"{name} did not repeat: {value} vs {other[group][name]}")
    out = {}
    for n in SELF_PCT:
        out[f"{n}.self_pct"] = (_median([x["self_pct"][n] for x in layers]), "%")
    for n in CALL_COUNTS:
        out[f"{n}.calls"] = (first["calls"][n], "count")
    for n in COMPUTED:
        out[n] = (first["computed"][n], UNITS.get(n, "count"))
    traced_wall = _median([c["wall_s"] for c in traced])
    untraced_wall = _median([c["wall_s"] for c in untraced])
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_pct"] = (100.0 * (traced_wall - untraced_wall) / untraced_wall, "%")
    coverage = _median([x["coverage_pct"] for x in layers])
    out["trace.coverage_pct"] = (coverage, "%")
    if coverage < COVERAGE_MIN_PCT:
        problems.append(f"root spans cover {coverage:.1f}% of traced wall time")
    table = {n: {"self_s": _median([x["self_s"][n] for x in layers]),
                 "self_pct": out[f"{n}.self_pct"][0], "calls": first["calls"][n]}
             for n in SELF_PCT}
    return out, table


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def metadata(root: Path, args, runner: Runner) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "inputs_sha256": runner.inputs_digest(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": BLAS_THREADS, "src_lines": src_lines(root),
        "machine": platform.machine(),
    }


def measure(args, root: Path, work: Path) -> dict:
    start = time.monotonic()
    calls = workloads.make(args.workload, args.seed, args.scale)
    runner = Runner(root, work, calls, start + RUN_BUDGET_S)
    meta = metadata(root, args, runner)

    probes = [runner.child(setup_only=True) for _ in range(SETUP_PROBES)]
    problems = [f"setup probe: {f}" for r in probes for f in r["failures"][:1]]
    children, traced, crashed = [], [], []
    durations = []
    t0 = time.monotonic()
    while not problems:
        # in a traced run, traced and untraced children alternate, traced first
        is_traced = args.trace == 1 and len(traced) <= len(children)
        report = runner.child(traced=is_traced)
        if "wall_s" not in report:
            crashed.append(report)
            break
        (traced if is_traced else children).append(report)
        durations.append(report["duration_s"])
        # stop before a child that would likely end past --seconds
        done = time.monotonic() - t0 + _median(durations) > args.seconds
        enough = children and (args.trace == 0 or len(traced) >= 2)
        if (done and enough) or time.monotonic() > runner.deadline:
            break

    measured = children + traced + crashed
    if not children or (args.trace == 1 and len(traced) < 2):
        problems.append("too few children finished")
        metrics, table = {}, {}
    elif args.trace == 0:
        setups = [r["setup_s"] for r in probes + children]
        metrics, table = end_to_end(setups, children), {}
    else:
        metrics, table = per_layer(traced, children, problems)
    return {
        "meta": meta, "metrics": metrics, "layers": table,
        "attempted": max(1, len(calls) * len(measured)),
        "failed": sum(r["failed_calls"] for r in measured),
        "failures": [f for r in measured for f in r["failures"]], "problems": problems,
        "samples": {"setup": len(probes) + len(children), "children": len(children),
                    "traced_children": len(traced), "calls_per_child": len(calls),
                    "calls_beyond_p90": len(calls) // 10},
        "children_wall_s": [c["wall_s"] for c in children],
        "wall_s": time.monotonic() - start,
    }


def report_lines(res: dict) -> list:
    lines = [f"meta {json.dumps(res['meta'], sort_keys=True)}",
             f"samples {json.dumps(res['samples'], sort_keys=True)}",
             f"error_rate {res['failed'] / res['attempted']:.6g} "
             f"({res['failed']} failed of {res['attempted']} calls)"]
    for name, (value, unit) in res["metrics"].items():
        computed = " (computed)" if name in SIZES else ""
        shown = value if isinstance(value, int) else f"{value:.6g}"
        lines.append(f"{name} {shown} {unit}{computed}")
    if res["layers"]:
        lines.append(f"{'span':42s} {'self_s':>10s} {'self_%':>7s} {'calls':>8s}")
        for name, row in sorted(res["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"{name:42s} {row['self_s']:10.4f} {row['self_pct']:7.2f} "
                         f"{row['calls']:8d}")
    lines += [f"FAILED {f}" for f in res["failures"][:10]]
    lines += [f"PROBLEM {p}" for p in res["problems"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "minimal"), default="full",
                        help="input size; 'minimal' is for the harness self-test")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the running child is killed and reaped, work removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd().resolve()
    if not (root / "src" / "confdim" / "cli.py").is_file():
        print("perfbench: run from a confdim checkout (no src/confdim/cli.py here)",
              file=sys.stderr)
        return 2
    work_root = HERE / "_work"
    work = work_root / f"{args.workload}-trace{args.trace}-{os.getpid()}"
    try:
        res = measure(args, root, work)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (work_root / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=1, sort_keys=True) + "\n")
    for line in report_lines(res):
        print(line)
    result = {
        "correct": res["failed"] == 0 and not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res["metrics"].items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
