"""Record the reference values that the output checks compare against.

    python3 perfbench/record_references.py

Run from the root of a checkout of the commit whose outputs are the
reference.  Runs every deep-mass config and every program of the modulus
pool through `confdim.cli.main` and writes perfbench/references.json.
Takes about a minute and 1 GB of memory.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

# one BLAS thread, as in the benchmark's children; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402


def _summary(cli, command: str, cfg: dict, work: Path) -> dict:
    config = work / "config.json"
    config.write_text(json.dumps(cfg, sort_keys=True))
    rc = cli.main([command, "--config", str(config), "--out", str(work / "out")])
    if rc != 0:
        raise SystemExit(f"{command} exited {rc} on {cfg}")
    return json.loads((work / "out" / "summary.json").read_text())


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import confdim.cli as cli

    work = Path(__file__).resolve().parent / "_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    refs = {"mass": {}, "modulus": {}}
    try:
        for depth in (12, 22):
            for d in workloads.MASS_D:
                s = _summary(cli, "mass", workloads.mass_config(depth, d), work)
                refs["mass"][workloads.mass_key(depth, d)] = {
                    "C_growth": s["C_growth"], "worst_ball_ratio": s["worst_ball_ratio"]}
        for k, p, coupled in workloads.MODULUS_CLASSES:
            for i in range(workloads.POOL_PER_CLASS):
                pid, cfg = workloads.pool_program(k, p, coupled, i)
                refs["modulus"][pid] = _summary(cli, "modulus", cfg, work)["value"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
