"""Per-layer span tracer installed from outside the program.

The benchmark never edits ``src/``: a traced command wraps the function
at each layer boundary (the table in :data:`TARGETS`) with a span
recorder, runs the workload, and takes every wrapper out again.  A
span's *self time* is its wall time minus the wall time of its direct
child spans, so the self times of all layers plus the root's own
(unattributed) time add up to the traced command exactly.

Work counters are recorded at the same boundaries.  Per-activation
functions (tracker observers, ``Bank.precharge``) are never wrapped;
activations are counted from each ``SoftMCSession.run`` result.

Forked pool workers inherit the wrappers.  A fork hook resets the
worker's copy of the tracer, and every time a worker's outermost span
closes it writes its cumulative counters to ``worker_dir``, where the
parent merges them.  Worker span time runs concurrently with the
parent's engine span, so it is kept out of the self-time sum.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Marker attribute every wrapper carries (hygiene checks look for it).
WRAPPER_MARK = "__perfbench_span__"

#: Layers whose outermost span also records CPU (parent) and reaped
#: child CPU, for ``calibration.cpu_s`` and ``engine.wait_s`` /
#: ``engine.child_cpu_s``.
CPU_LAYERS = ("calibration", "engine")


@dataclass(frozen=True)
class Target:
    """One wrapped boundary: ``path`` is ``module:Qual.name``.

    ``count`` names a counter bumped on every call, failed ones too.
    ``pre(args, kwargs)`` runs before the call and its value reaches
    ``post(tracer, state, args, kwargs, result)``, which runs after a
    successful return and records counters taken from the result.
    """

    layer: str
    path: str
    count: Optional[str] = None
    pre: Optional[Callable] = None
    post: Optional[Callable] = None


def _stacked_post(tracer, _state, args, kwargs, _result):
    # A die's cell draw is named by (module, die, bank, rows, data
    # pattern, footprint); calibration and the engine draw the same
    # cells and differ only by a threshold scale, so both count once.
    from repro.core import stacked

    bound = inspect.signature(stacked.build_stacked_die).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    chip = a["chip"]
    tracer.add("stacked.builds")
    tracer.note(
        "stacked.distinct",
        repr((chip.module_key, chip.die_index, a["bank"], a["selection"],
              a["data_pattern"], tuple(a["offsets"]))),
    )


def _shard_post(tracer, _state, _args, _kwargs, result):
    tracer.add("engine.shards")
    tracer.note("engine.workers", str(os.getpid()))


def _mitigation_shard_post(tracer, state, args, kwargs, result):
    _shard_post(tracer, state, args, kwargs, result)
    tracer.add("mitigation.points", len(result))


def _journal_pre(args, _kwargs):
    try:
        return os.path.getsize(args[0].path)
    except OSError:
        return 0


def _journal_record_post(tracer, before, args, _kwargs, _result):
    tracer.add("journal.records")
    tracer.add("journal.bytes", os.path.getsize(args[0].path) - before)


def _sink_flush_pre(args, _kwargs):
    return args[0].n_rows, args[0].n_batches


def _sink_flush_post(tracer, before, args, _kwargs, _result):
    sink = args[0]
    tracer.add("sink.rows", sink.n_rows - before[0])
    tracer.add("sink.batches", sink.n_batches - before[1])


def _query_pre(args, _kwargs):
    return args[0].n_measurements


def _query_post(tracer, before, args, _kwargs, _result):
    tracer.add("query.rows", args[0].n_measurements - before)


def _protected_post(tracer, _state, args, kwargs, _result):
    mitigation = kwargs.get("mitigation", args[3] if len(args) > 3 else None)
    if mitigation is not None:
        tracer.add("mitigation.protected_runs")


def _export_post(tracer, _state, _args, _kwargs, result):
    tracer.add("export.bytes", result.n_bytes)


def _bender_post(tracer, _state, _args, _kwargs, result):
    tracer.add("bender.acts", result.activations)


def _honest_post(tracer, _state, _args, _kwargs, result):
    tracer.add("honest.searches")
    tracer.add("honest.probes", result.probes)


#: Layer boundaries, named after the modules they sit in.
TARGETS: Tuple[Target, ...] = (
    Target("calibration", "repro.disturb.calibration:calibrate_module",
           count="calibration.modules"),
    Target("preflight", "repro.backend.preflight:run_preflight",
           count="preflight.modules"),
    Target("stacked", "repro.core.stacked:build_stacked_die", post=_stacked_post),
    Target("rng", "repro.rng:stream", count="rng.streams"),
    Target("weights", "repro.core.acmin:_role_weights",
           count="weights.calls"),
    Target("analysis", "repro.core.acmin:DieSweepAnalyzer.analyze",
           count="analysis.calls"),
    Target("analysis", "repro.core.acmin:DieSweepAnalyzer.analyze_trials",
           count="analysis.calls"),
    Target("census", "repro.core.acmin:DieAnalysis.census",
           count="census.calls"),
    Target("engine", "repro.core.engine:SweepEngine.run"),
    Target("engine", "repro.core.engine:run_plan"),
    Target("engine", "repro.core.engine:ShardRunner.run", post=_shard_post),
    Target("journal", "repro.core.checkpoint:CheckpointJournal.start"),
    Target("journal", "repro.core.checkpoint:CheckpointJournal.record",
           pre=_journal_pre, post=_journal_record_post),
    Target("journal", "repro.core.checkpoint:CheckpointJournal.load"),
    Target("sink", "repro.core.flipdb:FlipSink.accept"),
    Target("sink", "repro.core.flipdb:FlipSink.flush",
           pre=_sink_flush_pre, post=_sink_flush_post),
    Target("sink", "repro.core.flipdb:FlipSink.close"),
    Target("export", "repro.core.flipdb:BitflipDatabase.export_shards",
           post=_export_post),
    Target("query", "repro.analysis.streaming:PopulationStats.consume",
           pre=_query_pre, post=_query_post),
    Target("digest", "repro.validate.invariants:results_digest",
           count="digest.calls"),
    Target("digest", "repro.validate.invariants:mitigation_results_digest",
           count="digest.calls"),
    Target("digest", "repro.core.flipdb:BitflipDatabase.results_digest",
           count="digest.calls"),
    Target("render", "repro.analysis.tables:format_table"),
    Target("render", "repro.analysis.tables:table2_rows"),
    Target("render", "repro.analysis.tables:mitigation_table_rows"),
    Target("render", "repro.analysis.tables:mitigation_strength_series"),
    Target("render", "repro.analysis.figures:fig4_series"),
    Target("render", "repro.analysis.ascii_plot:ascii_line_plot"),
    Target("mitigation", "repro.mitigations.campaign:MitigationShardRunner.run",
           post=_mitigation_shard_post),
    Target("mitigation", "repro.mitigations.evaluator:MitigationEvaluator.run",
           post=_protected_post),
    Target("bender", "repro.bender.softmc:SoftMCSession.run",
           count="bender.programs", post=_bender_post),
    Target("honest", "repro.core.honest:measure_location_honest",
           post=_honest_post),
)

#: Every layer a traced command reports, in table order.
LAYERS: Tuple[str, ...] = (
    "import", "calibration", "preflight", "stacked", "rng", "weights",
    "analysis", "census", "engine", "journal", "sink", "export", "query",
    "digest", "render", "mitigation", "bender", "honest",
)


def _resolve(path: str) -> Tuple[Any, str]:
    """``module:Qual.name`` -> (owner object, attribute name)."""
    module_name, qualname = path.split(":")
    owner: Any = importlib.import_module(module_name)
    *parents, name = qualname.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if isinstance(owner, type) and name not in vars(owner):
        raise AttributeError(f"{path}: not defined on the class itself")
    return owner, name


def _program_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and module is not None
    ]


class Tracer:
    """Span and counter recorder over a set of wrapped boundaries."""

    def __init__(
        self,
        targets: Tuple[Target, ...] = TARGETS,
        worker_dir: Optional[str] = None,
    ) -> None:
        self._targets = targets
        self._worker_dir = worker_dir
        self._patched: List[Tuple[Any, str, Any]] = []
        self._originals: Dict[int, Any] = {}
        self._installed = False
        self._fork_hook = False
        self._reset(os.getpid())

    # ------------------------------------------------------------- state

    def _reset(self, owner_pid: int) -> None:
        self._owner_pid = owner_pid
        self._main_thread = threading.get_ident()
        self._stack: List[list] = []
        self._depth: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.inclusive: Dict[str, Dict[str, float]] = {}
        self.counters: Dict[str, int] = {}
        self.notes: Dict[str, set] = {}
        self.unattributed_s = 0.0
        self.root_s = 0.0

    def add(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def note(self, name: str, key: str) -> None:
        self.notes.setdefault(name, set()).add(key)

    # ----------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every target (and every program module's alias of it)."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._reset(os.getpid())
        wrapped: Dict[int, Any] = {}
        for target in self._targets:
            owner, name = _resolve(target.path)
            original = vars(owner)[name]
            wrapper = self._wrap(target, original)
            wrapped[id(original)] = wrapper
            self._originals[id(wrapper)] = original
            self._patch(owner, name, wrapper, original)
        # ``from x import f`` copies bind the original in other modules.
        for module in _program_modules():
            for name, value in list(vars(module).items()):
                wrapper = wrapped.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._patch(module, name, wrapper, value)
        self._patch(os, "fsync", self._wrap_fsync(os.fsync), os.fsync)
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self._after_fork)
            self._fork_hook = True
        self._installed = True

    def uninstall(self) -> None:
        """Restore every patched attribute to its original object."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        # Modules imported while installed may have copied a wrapper.
        for module in _program_modules():
            for name, value in list(vars(module).items()):
                if getattr(value, WRAPPER_MARK, False):
                    setattr(module, name, self._originals[id(value)])
        self._originals.clear()
        self._installed = False

    def _patch(self, owner: Any, name: str, wrapper: Any, original: Any) -> None:
        self._patched.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _wrap(self, target: Target, original: Callable) -> Callable:
        tracer = self
        layer, count = target.layer, target.count
        pre, post = target.pre, target.post

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if count is not None:
                tracer.add(count)
            state = pre(args, kwargs) if pre is not None else None
            if threading.get_ident() != tracer._main_thread:
                result = original(*args, **kwargs)
            else:
                tracer._enter(layer)
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    tracer._exit(layer)
                    tracer.add(f"{layer}.failed")
                    raise
                tracer._exit(layer)
            if post is not None:
                post(tracer, state, args, kwargs, result)
            return result

        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    def _wrap_fsync(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def fsync(fd):
            if tracer._depth.get("journal"):
                tracer.add("journal.fsyncs")
            return original(fd)

        setattr(fsync, WRAPPER_MARK, True)
        self._originals[id(fsync)] = original
        return fsync

    # ------------------------------------------------------------- spans

    def _enter(self, layer: str) -> None:
        depth = self._depth.get(layer, 0)
        self._depth[layer] = depth + 1
        cpu = None
        if depth == 0 and layer in CPU_LAYERS:
            cpu = (time.process_time(), _children_cpu())
        self._stack.append([layer, time.monotonic(), 0.0, cpu])

    def _exit(self, layer: str) -> None:
        now = time.monotonic()
        _, start, child, cpu = self._stack.pop()
        duration = now - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - child
        if self._stack:
            self._stack[-1][2] += duration
        self._depth[layer] -= 1
        if cpu is not None:
            totals = self.inclusive.setdefault(
                layer, {"wall_s": 0.0, "cpu_s": 0.0, "child_cpu_s": 0.0}
            )
            totals["wall_s"] += duration
            totals["cpu_s"] += time.process_time() - cpu[0]
            totals["child_cpu_s"] += _children_cpu() - cpu[1]
        if not self._stack and os.getpid() != self._owner_pid:
            self._flush_worker()

    def begin_root(self, start: float) -> None:
        """Open the root span at ``start`` (the command's process start)."""
        self._stack.append(["command", start, 0.0, None])

    def add_span(self, layer: str, start: float, end: float) -> None:
        """Record an already-finished child span of the open span."""
        self.self_s[layer] = self.self_s.get(layer, 0.0) + end - start
        self._stack[-1][2] += end - start

    def end_root(self, end: float) -> None:
        """Close the root span; its self time is the unattributed time."""
        if len(self._stack) != 1 or self._stack[0][0] != "command":
            raise RuntimeError(f"unbalanced spans at command end: {self._stack}")
        _, start, child, _ = self._stack.pop()
        self.root_s = end - start
        self.unattributed_s = self.root_s - child

    # ----------------------------------------------------------- workers

    def _after_fork(self) -> None:
        if self._installed:
            self._reset(self._owner_pid)

    def _flush_worker(self) -> None:
        if self._worker_dir is None:
            return
        path = os.path.join(self._worker_dir, f"worker-{os.getpid()}.json")
        payload = {
            "counters": self.counters,
            "notes": {k: sorted(v) for k, v in self.notes.items()},
        }
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(path + ".tmp", path)

    def merge_workers(self) -> None:
        """Fold the pool workers' counters into this tracer."""
        if self._worker_dir is None:
            return
        for name in sorted(os.listdir(self._worker_dir)):
            if not (name.startswith("worker-") and name.endswith(".json")):
                continue
            with open(os.path.join(self._worker_dir, name), encoding="utf-8") as handle:
                payload = json.load(handle)
            for key, value in payload["counters"].items():
                self.add(key, value)
            for key, values in payload["notes"].items():
                self.notes.setdefault(key, set()).update(values)

    # ----------------------------------------------------------- results

    def layer_metrics(self) -> Dict[str, float]:
        """The per-layer table: self times, CPU splits and counters."""
        counters = self.counters
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        calibration = self.inclusive.get("calibration", {})
        out["calibration.cpu_s"] = calibration.get("cpu_s", 0.0)
        engine = self.inclusive.get("engine", {})
        out["engine.wait_s"] = engine.get("wall_s", 0.0) - engine.get("cpu_s", 0.0)
        out["engine.child_cpu_s"] = engine.get("child_cpu_s", 0.0)
        builds = counters.get("stacked.builds", 0)
        distinct = len(self.notes.get("stacked.distinct", ()))
        out["stacked.distinct"] = distinct
        out["stacked.useful_ratio"] = distinct / builds if builds else 1.0
        out["engine.workers"] = len(self.notes.get("engine.workers", ()))
        for name in COUNTERS:
            if name not in out:
                out[name] = counters.get(name, 0)
        out["trace.unattributed_s"] = self.unattributed_s
        return out


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


#: Work counters reported per traced command (all exact integers).
COUNTERS: Tuple[str, ...] = (
    "calibration.modules", "preflight.modules", "preflight.failed",
    "stacked.builds", "stacked.distinct", "rng.streams", "weights.calls",
    "analysis.calls", "census.calls", "engine.shards", "engine.workers",
    "journal.records", "journal.bytes", "journal.fsyncs", "sink.rows",
    "sink.batches", "export.bytes", "query.rows", "digest.calls",
    "mitigation.points", "mitigation.protected_runs", "bender.programs",
    "bender.acts", "honest.searches", "honest.probes",
)


def wrappers_installed() -> int:
    """Count wrapper objects reachable from the program's modules."""
    count = 0
    for module in _program_modules():
        for value in list(vars(module).values()):
            if getattr(value, WRAPPER_MARK, False):
                count += 1
            elif isinstance(value, type):
                count += sum(
                    1 for attr in vars(value).values()
                    if getattr(attr, WRAPPER_MARK, False)
                )
    if getattr(os.fsync, WRAPPER_MARK, False):
        count += 1
    return count
