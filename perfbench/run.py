"""Cold-command benchmark of the characterization toolkit.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table2-all --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) as a closed loop with one
client: each command is a fresh interpreter (``command.py``), timed from
process start to its rendered, checked artifact, and the next starts
only when it has exited.  Commands keep starting while the next one is
expected to end inside ``--seconds``.  Every command gets its own
scratch directory (inside the checkout, under ``.perfbench_scratch``)
as cwd, ``HOME``, ``XDG_CACHE_HOME`` and ``TMPDIR``, removed afterwards,
so nothing a command caches on disk survives into the next.

``--trace 0`` prints the end-to-end metrics, each the median over the
run's commands.  On a shared host, other tenants can slow a command by
up to half, in swings of seconds and drifts over minutes, in CPU time
as much as in wall time, so every time and rate is scaled to a
reference host speed: while a command runs, a thread of this process
times a short fixed probe loop every ``SAMPLE_INTERVAL_S``, and the
command's values are divided (rates multiplied) by the mean of its
probes over ``PROBE_REFERENCE_MS``.  Only probes taken while the
command runs track the swings; probes taken between commands barely
correlate with the commands' times.  The values as measured are
printed beside them.  The metrics:

* ``setup_s``: process start until the modules are calibrated and
  preflighted (``mitigate``: the eval chips built and the device
  protections checked);
* ``command_s``: process start until the artifact is rendered and its
  checks have run;
* ``cpu_s``: user plus system CPU of the command, reaped pool workers
  included;
* ``peak_rss_mb``: the largest max-RSS of the command and its children;
* ``measurements_per_s``: results per wall second after setup (one die x
  pattern x tAggON x trial cell; one mitigation point on ``mitigate``;
  one ACmin search on ``honest-anchor``);
* ``sim_acts_per_s``: ACTs the bender layer simulates per wall second of
  the command.  The count is a pinned property of the workload input,
  which every traced command checks against the ACTs it observes; on
  the characterization workloads only the preflight probes run the
  bender layer.

``--trace 1`` alternates untraced and traced commands and prints the
per-layer metrics (medians over the traced commands, wall time as
measured), plus ``trace.overhead_s``, the traced minus the untraced
median command time (both scaled to the reference host speed).  ``--smoke`` runs shrunken workloads in seconds.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Operations are preflights,
correctness checks and commands; a module whose preflight fails is a
failed operation even though the command goes on, unless its failure
is a known one (``workloads.KNOWN_PREFLIGHT_FAILURES``), which is
printed as expected.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_scratch")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: A command that runs longer than this is killed and counted failed.
COMMAND_TIMEOUT_S = 150.0

#: End-to-end metrics (name, unit), as listed in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("command_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("measurements_per_s", "1/s"),
    ("sim_acts_per_s", "1/s"),
)


def _per_layer_units():
    import tracer

    units = {f"{layer}.self_s": "s" for layer in tracer.LAYERS}
    units.update({name: "count" for name in tracer.COUNTERS})
    units.update({
        "calibration.cpu_s": "s",
        "engine.wait_s": "s",
        "engine.child_cpu_s": "s",
        "journal.bytes": "B",
        "export.bytes": "B",
        "stacked.useful_ratio": "ratio",
        "trace.overhead_s": "s",
        "trace.unattributed_s": "s",
    })
    return units


#: Counters that must repeat exactly between traced commands of a run.
REPEATING = (
    "stacked.builds", "rng.streams", "engine.shards", "sink.rows", "bender.acts",
)


def host_record():
    """What explains a noisy set: cores, load, speed, versions, revision."""
    record = {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "git_head": _git_head(),
    }
    for package in ("numpy", "scipy"):
        try:
            record[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            record[package] = None
    return record


#: Typical :func:`probe_ms` (ms) taken beside a running command on a
#: 2.1 GHz x86 VM with 2 vCPUs.  Times are reported at that speed; see
#: ``end_to_end``.
PROBE_REFERENCE_MS = 3.3

#: Seconds between two probes while a command runs.  A probe takes
#: about 3 ms, so it uses a few percent of one core.
SAMPLE_INTERVAL_S = 0.1


def probe_ms() -> float:
    """CPU ms of a fixed pure-Python loop: how fast the host runs now.

    Other tenants of a shared host slow it by up to half, in swings of
    seconds, and CPU time slows with wall time (it is not steal time,
    so CPU time alone does not fix it).  The probe's own thread CPU time
    is what is timed, so a probe that waits for a core (the pool
    workers of ``table2-all`` use both) does not read slow.
    """
    began = time.thread_time()
    total = 0
    for i in range(50_000):
        total += i * i
    return (time.thread_time() - began) * 1000.0


class SpeedSampler(threading.Thread):
    """Probes the host's speed every :data:`SAMPLE_INTERVAL_S` until stopped."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples = []
        self._stop_event = threading.Event()

    def run(self) -> None:
        while True:
            self.samples.append(probe_ms())
            if self._stop_event.wait(SAMPLE_INTERVAL_S):
                return

    def stop(self) -> None:
        self._stop_event.set()
        self.join()

    def host_factor(self) -> float:
        """Mean probe over the reference: above 1 on a slower host."""
        return statistics.mean(self.samples) / PROBE_REFERENCE_MS


def _git_head():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return None


def run_command(workload: str, seed: int, trace: bool, smoke: bool) -> dict:
    """One cold command in a fresh scratch directory; returns its record."""
    os.makedirs(SCRATCH, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="cmd-", dir=SCRATCH)
    env = dict(os.environ)
    env.update(
        HOME=scratch, XDG_CACHE_HOME=scratch, TMPDIR=scratch, PYTHONPATH=SRC
    )
    sampler = SpeedSampler()
    sampler.start()
    try:
        with open(os.path.join(scratch, "stderr.txt"), "wb") as stderr:
            spawn = time.monotonic()
            argv = [
                sys.executable, os.path.join(HERE, "command.py"),
                "--workload", workload, "--seed", str(seed),
                "--spawn", repr(spawn), "--trace", str(int(trace)),
            ] + (["--smoke"] if smoke else [])
            # Its own session, so a kill reaches the pool workers too.
            proc = subprocess.Popen(
                argv, cwd=scratch, env=env, stdout=subprocess.DEVNULL,
                stderr=stderr, start_new_session=True,
            )
            try:
                status, usage = _wait(proc)
            except BaseException:
                _kill(proc)
                raise
        sampler.stop()
        record = {"trace": trace, "status": status, "host_factor": sampler.host_factor()}
        if usage is not None:
            record["cpu_s"] = usage.ru_utime + usage.ru_stime
            record["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        try:
            with open(os.path.join(scratch, "result.json"), encoding="utf-8") as handle:
                record.update(json.load(handle))
        except (OSError, ValueError):
            record["ops"] = []
        if status != 0:
            with open(os.path.join(scratch, "stderr.txt"), encoding="utf-8",
                      errors="replace") as handle:
                sys.stderr.write(handle.read()[-4000:])
        return record
    finally:
        sampler.stop()
        shutil.rmtree(scratch, ignore_errors=True)


def _wait(proc):
    """Reap ``proc`` with its rusage (children it reaped included)."""
    deadline = time.monotonic() + COMMAND_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            _kill(proc)
            sys.stderr.write(f"command killed after {COMMAND_TIMEOUT_S:g} s\n")
            return -9, None
        time.sleep(0.005)


def _kill(proc) -> None:
    """Kill a command's whole process group and reap the command."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    if proc.returncode is None:
        _, status, _ = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)


def end_to_end(record: dict, normalize: bool = True) -> dict:
    """One untraced command's end-to-end values.

    Times and rates are scaled to the reference host speed by the
    command's ``host_factor`` (the mean of the probes taken while it
    ran, over :data:`PROBE_REFERENCE_MS`); ``normalize=False`` gives
    the values as measured.
    """
    spawn, done, setup = record["spawn"], record["done"], record["setup_end"]
    factor = record["host_factor"] if normalize else 1.0
    return {
        "setup_s": (setup - spawn) / factor,
        "command_s": (done - spawn) / factor,
        "cpu_s": record["cpu_s"] / factor,
        "peak_rss_mb": record["peak_rss_mb"],
        "measurements_per_s": record["measurements"] / (done - setup) * factor,
        "sim_acts_per_s": record["acts"] / (done - spawn) * factor,
    }


def _ok(record: dict) -> bool:
    return record["status"] == 0 and "done" in record and record["setup_end"] is not None


def _tail_percentile(values):
    """(pct, value) for the highest percentile with >= 10 samples beyond it."""
    for pct in (99, 95, 90):
        if len(values) * (100 - pct) / 100.0 >= 10:
            return pct, statistics.quantiles(values, n=100)[pct - 1]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cold-command benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken workloads that run in seconds")
    args = parser.parse_args(argv)
    # A terminated run still kills the command it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"error: no program sources under {SRC}\n")
        return 2
    for tree in (SRC, HERE):
        compileall.compile_dir(tree, quiet=1)
    host = host_record()

    records = []
    durations = []
    start = time.monotonic()
    try:
        while True:
            trace = bool(args.trace) and len(records) % 2 == 1
            began = time.monotonic()
            record = run_command(args.workload, args.seed, trace, args.smoke)
            records.append(record)
            durations.append(time.monotonic() - began)
            enough = len(records) >= (2 if args.trace else 1)
            expected = statistics.median(durations)
            if enough and time.monotonic() - start + expected > args.seconds:
                break
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    host["loadavg_after"] = list(os.getloadavg())

    ops = [op for record in records for op in record.get("ops", [])]
    attempted = len(ops) + sum(1 for r in records if not r["ops"])
    failed = sum(1 for op in ops if not op["ok"]) + sum(1 for r in records if not r["ops"])
    done = [r for r in records if _ok(r)]
    correct = len(done) == len(records) and all(
        op["ok"] for op in ops if op["kind"] in ("check", "command")
    )
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(
        f"workload {args.workload} seed {args.seed}{' (smoke)' if args.smoke else ''}: "
        f"{len(records)} command(s) in {time.monotonic() - start:.1f} s"
    )
    for index, record in enumerate(records):
        if _ok(record):
            values = end_to_end(record, normalize=False)
            print(
                f"command {index}{' traced' if record['trace'] else ''}: "
                f"setup {values['setup_s']:.3f} s, command {values['command_s']:.3f} s, "
                f"cpu {values['cpu_s']:.3f} s wall/CPU as measured, "
                f"host factor {record['host_factor']:.4f}"
            )
        else:
            print(f"command {index}: failed with status {record['status']}")
    for op in ops:
        if not op["ok"]:
            print(f"failed {op['kind']} {op['name']}: {op['detail']}")
        elif op["kind"] == "preflight" and op["detail"]:
            print(f"expected preflight {op['name']}: {op['detail']}")

    metrics = {}
    checks = []
    untraced = [end_to_end(r) for r in done if not r["trace"]]
    untraced_raw = [end_to_end(r, normalize=False) for r in done if not r["trace"]]
    if not args.trace:
        for name, unit in END_TO_END:
            values = [v[name] for v in untraced]
            if not values:
                continue
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            raw = statistics.median(v[name] for v in untraced_raw)
            line = (
                f"{name}: {metrics[name]['value']:.6g} {unit} (median of "
                f"{len(values)}; as measured {raw:.6g} {unit})"
            )
            tail = _tail_percentile(values)
            if tail is not None:
                line += f", p{tail[0]} {tail[1]:.6g} {unit}"
            print(line)
    else:
        traced = [r for r in done if r["trace"]]
        units = _per_layer_units()
        for name, unit in units.items():
            if name == "trace.overhead_s":
                continue
            values = [r["layers"][name] for r in traced]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
        if traced and untraced:
            metrics["trace.overhead_s"] = {
                "value": statistics.median(end_to_end(r)["command_s"] for r in traced)
                - statistics.median(v["command_s"] for v in untraced),
                "unit": "s",
            }
        # Layer self times plus the unattributed time must add up to
        # the traced command, and work counters must repeat exactly.
        checks += [
            abs(r["self_sum_s"] - (r["done"] - r["spawn"])) < 1e-6 for r in traced
        ]
        repeat = {tuple(r["layers"][c] for c in REPEATING) for r in traced}
        checks.append(len(repeat) <= 1)
        print(f"traced commands: {len(traced)}; work counters repeat: {len(repeat) <= 1}")
        for name in sorted(metrics):
            print(f"{name}: {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    # An untraced command never imports the tracer; none leaves a wrapper.
    checks.append(all(
        r.get("wrappers_left") == 0 and (r["trace"] or not r.get("tracer_imported"))
        for r in done
    ))
    attempted += len(checks)
    failed += checks.count(False)
    correct = correct and all(checks)
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if done else 1


if __name__ == "__main__":
    sys.exit(main())
