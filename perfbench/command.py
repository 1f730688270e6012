"""One cold benchmark command, run in a fresh interpreter by ``run.py``.

Usage::

    python3 perfbench/command.py --workload NAME --seed N --spawn T \
        [--trace 0|1] [--smoke]

``--spawn`` is the ``time.monotonic()`` reading the parent took just
before starting this process (CLOCK_MONOTONIC is system-wide, so the
two clocks agree).  The command imports the program, runs the
workload, renders its artifact into ``artifact.txt`` and writes what it
measured to ``result.json``, both in its working directory.  With
``--trace 1`` the span tracer is installed after the imports and taken
out again once the artifact is checked.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
import traceback

import workloads


class Command:
    """What one command reports: operations, stage times and counts."""

    def __init__(self) -> None:
        self.ops = []
        self.setup_end = None
        self.measurements = 0
        #: Simulated ACTs of this input: pinned in ``workloads.py`` and
        #: checked against the bender layer's own count when traced.
        self.acts = 0

    def op(self, kind: str, name: str, ok: bool, detail: str = "") -> None:
        """Record one operation (a preflight, a check or the command)."""
        self.ops.append(
            {"kind": kind, "name": name, "ok": bool(ok), "detail": detail[:300]}
        )

    def setup_done(self) -> None:
        self.setup_end = time.monotonic()

    def artifact(self, text: str) -> None:
        with open("artifact.txt", "a", encoding="utf-8") as handle:
            handle.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawn", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    params = workload.smoke if args.smoke else workload.full

    for name in ("repro.cli",) + workload.imports:
        importlib.import_module(name)
    imported = time.monotonic()

    tracer = None
    if args.trace:
        import tracer as tracing

        os.mkdir("workers")
        tracer = tracing.Tracer(worker_dir=os.path.abspath("workers"))
        tracer.install()
        tracer.begin_root(args.spawn)
        tracer.add_span("import", args.spawn, imported)

    cmd = Command()
    completed = False
    try:
        workload.run(cmd, params, args.seed)
        completed = True
    except Exception as exc:  # noqa: BLE001 - reported as a failed command
        traceback.print_exc()
        cmd.op("command", args.workload, False, repr(exc))
    else:
        cmd.op("command", args.workload, True)
    done = time.monotonic()
    tracer_imported = "tracer" in sys.modules

    result = {
        "spawn": args.spawn,
        "imported": imported,
        "setup_end": cmd.setup_end,
        "done": done,
        "ops": cmd.ops,
        "measurements": cmd.measurements,
        "acts": cmd.acts,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.end_root(done)
        tracer.merge_workers()
        layers = tracer.layer_metrics()
        result["layers"] = layers
        result["self_sum_s"] = sum(
            value for key, value in layers.items()
            if key.endswith(".self_s")
        ) + layers["trace.unattributed_s"]
        result["root_s"] = tracer.root_s
        cmd.op("check", "bender_acts_pin", layers["bender.acts"] == cmd.acts,
               f"traced {layers['bender.acts']} vs pinned {cmd.acts}")
    from tracer import wrappers_installed

    result["tracer_imported"] = tracer_imported
    result["wrappers_left"] = wrappers_installed()
    with open("result.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0 if completed else 1


if __name__ == "__main__":
    sys.exit(main())
