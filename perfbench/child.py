"""One benchmark child: import confdim, then run a plan of CLI calls.

    python3 perfbench/child.py <plan.json> <result.json> [--setup-only] [--trace <spans.npz>]

The plan lists `confdim` argument vectors and the config files they read.
The child stamps `time.monotonic()` once it is ready (interpreter up,
confdim imported, configs read), then calls `confdim.cli.main` for each
entry and records its exit code and start/end stamps.  The monotonic clock
is shared by all processes, so the parent can subtract its spawn stamp.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv) -> int:
    plan_path, result_path = argv[0], argv[1]
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    import confdim.cli

    with open(plan_path) as fh:
        plan = json.load(fh)
    for call in plan["calls"]:
        with open(call["config"], "rb") as fh:
            fh.read()
    ready = time.monotonic()
    result = {"ready": ready, "confdim": confdim.cli.__file__, "calls": []}

    tracer = None
    if spans_path is not None:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    if not setup_only:
        records = result["calls"]
        cpu0 = _cpu_seconds()
        for i, call in enumerate(plan["calls"]):
            if tracer is not None:
                tracer.run_id = i
            t0 = time.monotonic()
            rc = confdim.cli.main(call["argv"])
            records.append([t0, time.monotonic(), rc])
        result["cpu_s"] = _cpu_seconds() - cpu0
        if tracer is not None:
            tracer.save(spans_path)

    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
