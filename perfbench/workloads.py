"""The benchmark's workloads: inputs, timed loops, output checks and metrics.

Every workload runs through the public API only.  Inline workloads drive
``run_lifecycle`` and time it from outside with ``on_iteration``
timestamps; the served workload runs an in-process ``ServeDaemon`` and
drives it as a closed loop of client threads.  The benchmark seed draws the
generated data; each workload's iteration plan and developer edits are
fixed, so runs of different seeds do the same kinds of work on different
data.
"""

from __future__ import annotations

import gc
import os
import pickle
import resource
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.execution.clock import SimulatedCostModel
from repro.execution.equivalence import canonical_lifecycle
from repro.experiments import run_lifecycle
from repro.optimizer.oep import NodeState
from repro.service import daemon as daemon_module
from repro.service.client import ServiceClient, assert_payloads_equivalent, inline_reference
from repro.service.daemon import ServeDaemon
from repro.systems import HelixSystem
from repro.workloads.base import get_workload
from repro.workloads.iterations import build_iteration_plan

import checks
from probes import Probes
from spans import Tracer, layer_rows, unattributed
from summary import median, tail_percentile

clock = time.perf_counter

#: ``run_lifecycle``'s default seed: the plan and edits every run replays.
SHAPE_SEED = 7

#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5

#: The served workload's client threads, one tenant each, and its fleet size.
TENANTS = ("a", "b")
WORKERS = 2

#: Served trace runs alternate untraced and traced windows, this many in all.
TRACE_WINDOWS = 4

#: Worker artifact-plane counters reach the coordinator with a heartbeat
#: (every 0.5 s by default); wait this long before reading them.
HEARTBEAT_SETTLE_S = 1.0

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("lifecycle_s", "s"),
    ("cold_iteration_s", "s"),
    ("warm_iteration_p50_s", "s"),
    ("warm_iteration_tail_s", "s"),
    ("cpu_s", "s"),
    ("rss_peak_mb", "MB"),
    ("storage_bytes", "bytes"),
    ("cache_peak_bytes", "bytes"),
]

PER_LAYER: List[Tuple[str, str]] = [
    ("core.compile_s", "s"),
    ("core.signatures_s", "s"),
    ("optimizer.oep_s", "s"),
    ("optimizer.omp_decide_s", "s"),
    ("optimizer.loaded_nodes", "count"),
    ("optimizer.computed_nodes", "count"),
    ("optimizer.pruned_nodes", "count"),
    ("optimizer.reuse_ratio", "ratio"),
    ("optimizer.materialized_nodes", "count"),
    ("storage.put_s", "s"),
    ("storage.put_count", "count"),
    ("storage.bytes_written", "bytes"),
    ("storage.encode_s", "s"),
    ("storage.load_s", "s"),
    ("storage.load_count", "count"),
    ("storage.bytes_read", "bytes"),
    ("storage.decode_s", "s"),
    ("storage.codec_share", "ratio"),
    ("execution.execute_s", "s"),
    ("execution.self_s", "s"),
    ("execution.compute_s", "s"),
    ("execution.size_estimate_s", "s"),
    ("execution.payload_encode_s", "s"),
    ("execution.payload_bytes", "bytes"),
    ("execution.tasks", "count"),
    ("execution.wait_s", "s"),
    ("plane.fetch_bytes", "bytes"),
    ("plane.cache_hit_ratio", "ratio"),
    ("plane.cross_session_hits", "count"),
    ("plane.peer_fetches", "count"),
    ("plane.peer_fetch_failures", "count"),
    ("service.admission_s", "s"),
    ("service.first_progress_s", "s"),
    ("unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]

#: Per-layer metrics only a served workload has: there is no payload, wire,
#: artifact plane or admission when a lifecycle runs inline.
SERVED_ONLY: Set[str] = {
    "execution.payload_encode_s",
    "execution.payload_bytes",
    "execution.tasks",
    "execution.wait_s",
    "plane.fetch_bytes",
    "plane.cache_hit_ratio",
    "plane.cross_session_hits",
    "plane.peer_fetches",
    "plane.peer_fetch_failures",
    "service.admission_s",
    "service.first_progress_s",
}


@dataclass
class Op:
    """One timed operation: a lifecycle, or one served submission."""

    op_id: str
    wall_s: float
    iteration_s: List[float]
    views: List[Dict[str, Any]]
    cache_peak_bytes: int
    cpu_s: float = 0.0
    admission_s: Optional[float] = None
    first_progress_s: Optional[float] = None
    traced: bool = False


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    note: str = ""


@dataclass
class Result:
    """What one benchmark run measured."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    end_to_end: Dict[str, Metric] = field(default_factory=dict)
    per_layer: Dict[str, Metric] = field(default_factory=dict)
    table: List[str] = field(default_factory=list)
    spans: Optional[Tracer] = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


# ---------------------------------------------------------------------- helpers
def _cpu_self_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_cpu_s(pid: int) -> float:
    """CPU seconds of a live child, read from ``/proc`` (0 where unavailable)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _child(task: str, workload: str, seed: int) -> Any:
    """Run ``child.py`` in a fresh interpreter and return what it pickled."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
    done = subprocess.run(
        [sys.executable, script, task, workload, str(seed)],
        capture_output=True, timeout=120, check=True,
    )
    return pickle.loads(done.stdout)


def probe_setup(workload: str, seed: int) -> List[float]:
    """Set-up seconds measured in fresh interpreters, one per probe."""
    return [_child("setup", workload, seed) for _ in range(SETUP_PROBES)]


def reference_outputs(workload: str, seed: int) -> Any:
    """The workload's reference outputs for ``seed``, computed in a fresh
    interpreter so that its memory stays out of this process's peak RSS."""
    return _child("reference", workload, seed)


def node_counts(views: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Optimizer outcome counts of one lifecycle, from its canonical views."""
    totals = {"loaded": 0, "computed": 0, "pruned": 0, "materialized": 0}
    warm_loaded = warm_computed = 0
    for index, view in enumerate(views):
        states = list(view["node_states"].values())
        loaded = states.count(NodeState.LOAD.value)
        computed = states.count(NodeState.COMPUTE.value)
        totals["loaded"] += loaded
        totals["computed"] += computed
        totals["pruned"] += states.count(NodeState.PRUNE.value)
        totals["materialized"] += len(view["materialized_nodes"])
        if index > 0:
            warm_loaded += loaded
            warm_computed += computed
    warm = warm_loaded + warm_computed
    totals["reuse_ratio"] = warm_loaded / warm if warm else 0.0
    return totals


def end_to_end_metrics(
    ops: Sequence[Op], setup: Sequence[float], cpu_s: Sequence[float], rss_mb: float
) -> Dict[str, Metric]:
    warm = [seconds for op in ops for seconds in op.iteration_s[1:]]
    tail_p, tail = tail_percentile(warm)
    n = len(ops)
    return {
        "setup_s": Metric(median(setup), "s", len(setup)),
        "lifecycle_s": Metric(median([op.wall_s for op in ops]), "s", n),
        "cold_iteration_s": Metric(median([op.iteration_s[0] for op in ops]), "s", n),
        "warm_iteration_p50_s": Metric(median(warm), "s", len(warm)),
        "warm_iteration_tail_s": Metric(tail, "s", len(warm), f"p{tail_p}"),
        "cpu_s": Metric(median(cpu_s), "s", len(cpu_s)),
        "rss_peak_mb": Metric(rss_mb, "MB", 1),
        "storage_bytes": Metric(
            median([op.views[-1]["storage_bytes"] for op in ops]), "bytes", n
        ),
        "cache_peak_bytes": Metric(median([op.cache_peak_bytes for op in ops]), "bytes", n),
    }


def layer_values(op: Op, tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced operation (served-only ones for served ops)."""
    spans = tracer.for_op(op.op_id)
    rows = layer_rows(spans)

    def total(name: str) -> float:
        return rows[name].total_s if name in rows else 0.0

    def calls(name: str) -> int:
        return rows[name].calls if name in rows else 0

    def summed(name: str, attr: str) -> float:
        return float(sum(s.attrs.get(attr, 0) for s in spans if s.name == name))

    counts = node_counts(op.views)
    values = {
        "core.compile_s": total("core.compile"),
        "core.signatures_s": total("core.signatures"),
        "optimizer.oep_s": total("optimizer.oep"),
        "optimizer.omp_decide_s": total("optimizer.omp_decide"),
        "optimizer.loaded_nodes": counts["loaded"],
        "optimizer.computed_nodes": counts["computed"],
        "optimizer.pruned_nodes": counts["pruned"],
        "optimizer.reuse_ratio": counts["reuse_ratio"],
        "optimizer.materialized_nodes": counts["materialized"],
        "storage.put_s": total("storage.put"),
        "storage.put_count": calls("storage.put"),
        "storage.bytes_written": summed("storage.put", "bytes"),
        "storage.encode_s": total("storage.encode"),
        "storage.load_s": total("storage.load"),
        "storage.load_count": calls("storage.load"),
        "storage.bytes_read": summed("storage.load", "bytes"),
        "storage.decode_s": total("storage.decode"),
        "storage.codec_share": (total("storage.encode") + total("storage.decode")) / op.wall_s,
        "execution.execute_s": total("execution.execute"),
        "execution.self_s": rows["execution.execute"].self_s if "execution.execute" in rows else 0.0,
        "execution.compute_s": total("execution.compute"),
        "execution.size_estimate_s": total("execution.size_estimate"),
        "unattributed_s": unattributed(op.wall_s, spans),
        "trace.wall_s": op.wall_s,
    }
    if op.admission_s is not None:
        values.update({
            "execution.payload_encode_s": total("execution.payload_encode"),
            "execution.payload_bytes": summed("execution.payload_encode", "bytes"),
            "execution.tasks": calls("execution.payload_encode"),
            "execution.wait_s": total("execution.wait"),
            "service.admission_s": op.admission_s,
            "service.first_progress_s": op.first_progress_s,
        })
    return values


def per_layer_metrics(
    traced: Sequence[Op], untraced: Sequence[Op], tracer: Tracer,
    plane: Optional[Dict[str, float]] = None,
) -> Dict[str, Metric]:
    """Medians over the traced operations, in :data:`PER_LAYER` order.

    Metrics that do not apply to the workload (:data:`SERVED_ONLY` inline)
    are left out.
    """
    units = dict(PER_LAYER)
    rows = [layer_values(op, tracer) for op in traced]
    metrics = {
        name: Metric(median([row[name] for row in rows]), units[name], len(rows))
        for name in rows[0]
    }
    for name, value in (plane or {}).items():
        metrics[name] = Metric(value, units[name], len(traced))
    overhead = median([op.wall_s for op in traced]) - median([op.wall_s for op in untraced])
    metrics["trace.overhead_s"] = Metric(overhead, "s", len(traced) + len(untraced))
    return {name: metrics[name] for name, _ in PER_LAYER if name in metrics}


def layer_table(ops: Sequence[Op], tracer: Tracer) -> List[str]:
    """Self-time table over the traced operations, with an unattributed row."""
    wall = sum(op.wall_s for op in ops)
    spans = [span for op in ops for span in tracer.for_op(op.op_id)]
    rows = layer_rows([span for span in spans if not span.detached])
    detached = layer_rows([span for span in spans if span.detached])
    lines = [f"{'layer':<28}{'calls':>8}{'total_s':>12}{'self_s':>12}{'share':>8}"]
    for name, row in sorted(rows.items(), key=lambda item: -item[1].self_s):
        lines.append(
            f"{name:<28}{row.calls:>8}{row.total_s:>12.4f}{row.self_s:>12.4f}"
            f"{row.self_s / wall:>8.1%}"
        )
    rest = wall - sum(row.self_s for row in rows.values())
    lines.append(f"{'unattributed':<28}{'':>8}{'':>12}{rest:>12.4f}{rest / wall:>8.1%}")
    lines.append(f"{'wall (sum of ops)':<28}{len(ops):>8}{wall:>12.4f}{wall:>12.4f}{1:>8.1%}")
    for name, row in detached.items():
        lines.append(
            f"{name + ' (concurrent)':<28}{row.calls:>8}{row.total_s:>12.4f}{'-':>12}{'-':>8}"
        )
    return lines


def _until(seconds: float, started: float, last: Optional[float]) -> bool:
    """Start another operation only if it is expected to end in time."""
    return last is None or clock() - started + last <= seconds


# ---------------------------------------------------------------------- inline
@dataclass
class InlineWorkload:
    """One lifecycle at a time on the inline executor, in this process."""

    name: str
    workload: str
    policy: str
    scale: float
    #: Per-layer metrics this workload cannot measure.
    absent = SERVED_ONLY

    def system(self, seed: int) -> HelixSystem:
        factory = {"opt": HelixSystem.opt, "nm": HelixSystem.never_materialize}[self.policy]
        return factory(seed=seed)

    def workload_for(self, seed: int):
        """The workload with its data drawn from ``seed``."""
        data_seed = seed

        class SeededData(type(get_workload(self.workload))):
            def initial_config(self, scale: float = 1.0, seed: int = 0):
                return super().initial_config(scale=scale, seed=data_seed)

        return SeededData()

    def set_up(self, seed: int, started: float) -> Tuple[float, Callable[[], None]]:
        self.system(seed)
        self.workload_for(seed)
        return clock() - started, lambda: None

    def reference(self, seed: int) -> List[Dict[str, str]]:
        """Output digests of a never-materialize run under the simulated cost model."""
        result = run_lifecycle(
            HelixSystem.never_materialize(seed=seed, cost_model=SimulatedCostModel()),
            self.workload_for(seed), seed=SHAPE_SEED, scale=self.scale,
        )
        return checks.output_digests(canonical_lifecycle(result.iterations))

    def _lifecycle(self, system, workload, op_id: str, tracer: Optional[Tracer]) -> Op:
        marks: List[float] = []
        gc.collect()
        cpu = _cpu_self_s()
        started = clock()
        with tracer.bind(op_id) if tracer is not None else nullcontext():
            result = run_lifecycle(
                system, workload, seed=SHAPE_SEED, scale=self.scale,
                on_iteration=lambda spec, stats: marks.append(clock()),
            )
        cpu = _cpu_self_s() - cpu
        edges = [started] + marks
        return Op(
            op_id=op_id,
            wall_s=marks[-1] - started,
            iteration_s=[b - a for a, b in zip(edges, edges[1:])],
            views=canonical_lifecycle(result.iterations),
            cache_peak_bytes=max(stats.peak_memory_bytes for stats in result.iterations),
            cpu_s=cpu,
            traced=tracer is not None,
        )

    def run(self, seed: int, seconds: float, trace: bool) -> Result:
        out = Result()
        setup = [] if trace else probe_setup(self.name, seed)
        reference = reference_outputs(self.name, seed)
        workload = self.workload_for(seed)
        system = self.system(seed)
        tracer = Tracer() if trace else None
        probes = Probes(tracer) if trace else None
        ops: List[Op] = []
        started, last = clock(), None
        while _until(seconds, started, last) or (trace and out.attempted < 2):
            # Trace runs alternate untraced and traced lifecycles so that the
            # tracing overhead is measured under the same conditions.
            traced = trace and out.attempted % 2 == 1
            out.attempted += 1
            op_started = clock()
            try:
                if traced:
                    probes.install()
                try:
                    op = self._lifecycle(system, workload, f"lc{out.attempted}",
                                         tracer if traced else None)
                finally:
                    if traced:
                        probes.uninstall()
            except Exception as exc:  # noqa: BLE001 - counted and reported
                out.fail(f"lifecycle {out.attempted}: {type(exc).__name__}: {exc}")
            else:
                mismatch = checks.output_mismatch(reference, checks.output_digests(op.views))
                if mismatch is not None:
                    out.fail(f"lifecycle {out.attempted}: {mismatch}")
                else:
                    ops.append(op)
            last = clock() - op_started
        untraced = [op for op in ops if not op.traced]
        traced_ops = [op for op in ops if op.traced]
        if untraced and not trace:
            out.end_to_end = end_to_end_metrics(
                untraced, setup, [op.cpu_s for op in untraced], _rss_self_mb()
            )
        if traced_ops:
            out.per_layer = per_layer_metrics(traced_ops, untraced, tracer)
            out.table = layer_table(traced_ops, tracer)
            out.spans = tracer
        return out


# ---------------------------------------------------------------------- served
@dataclass
class ServedWorkload:
    """A closed loop of client threads against an in-process ``ServeDaemon``.

    :data:`TENANTS` client threads share a fleet of :data:`WORKERS` local
    workers.  A spec carries one seed for its data, plan and edits (the
    runner draws edits from ``seed + 1``).  To vary only the data, each run
    searches, from a start derived from the benchmark seed, for the first
    spec seed that samples :attr:`plan` and the same edits as the first
    seed that samples it.  The plan has no L/I step, whose extra random
    choice would make that search slow.

    With :attr:`worker_cache` off, each worker's artifact cache holds a
    single byte's budget and peer transfer is disabled, so every input a
    task needs is streamed from the coordinator: the artifact plane's miss
    path.
    """

    name: str
    workload: str
    scale: float
    plan: Tuple[str, ...]
    worker_cache: bool = True
    #: Per-layer metrics this workload cannot measure.
    absent = frozenset()

    def _kinds(self, spec_seed: int) -> Tuple[str, ...]:
        domain = get_workload(self.workload).domain
        return tuple(
            spec.kind for spec in build_iteration_plan(domain, len(self.plan), seed=spec_seed)
        )

    def _edits(self, spec_seed: int) -> List[Any]:
        """The configs a spec seed's edits produce, with the data seed left out."""
        workload = get_workload(self.workload)
        rng = np.random.default_rng(spec_seed + 1)
        config = workload.initial_config(scale=self.scale, seed=0)
        edits = []
        for spec in build_iteration_plan(workload.domain, len(self.plan), seed=spec_seed):
            config = workload.apply_iteration(config, spec, rng)
            edits.append(config)
        return edits

    def _first_seed(self, start: int, edits: Optional[List[Any]]) -> int:
        for candidate in range(start, start + 10_000_000):
            if self._kinds(candidate) == self.plan and (
                edits is None or self._edits(candidate) == edits
            ):
                return candidate
        raise RuntimeError(f"no spec seed from {start} samples plan {self.plan}")

    def spec_for(self, seed: int) -> Dict[str, Any]:
        """The spec one benchmark seed submits: fixed plan and edits, its own data."""
        edits = self._edits(self._first_seed(0, None))
        return {
            "workload": self.workload, "scale": self.scale, "iterations": len(self.plan),
            "seed": self._first_seed(seed * 1_000_003, edits),
        }

    def daemon(self) -> ServeDaemon:
        return ServeDaemon(
            max_workers=WORKERS, max_concurrent_runs=len(TENANTS),
            peer_fetch=self.worker_cache, worker_cache_bytes=None if self.worker_cache else 1,
        )

    def set_up(self, seed: int, started: float) -> Tuple[float, Callable[[], None]]:
        daemon = self.daemon()
        daemon.start()
        return clock() - started, daemon.stop

    def reference(self, seed: int) -> Dict[str, Any]:
        """The payload the spec of ``seed`` produces inline."""
        return inline_reference(self.spec_for(seed))

    def _fleet_cpu_s(self, daemon: ServeDaemon) -> float:
        return _cpu_self_s() + sum(_proc_cpu_s(pid) for pid in daemon.worker_pids().values())

    def _closed_loop(
        self, daemon, spec, reference, seconds: float, out: Result, window: int,
        tracer: Optional[Tracer], probes: Optional[Probes], peaks: Dict[str, int],
    ) -> Tuple[List[Op], float]:
        """Each tenant submits, waits for its result, and submits again.

        Returns the operations whose payloads passed the output check and
        the fleet's CPU seconds per completed submission.  The payloads are
        checked after the CPU reading, so the check's own work is not
        counted as the program's.
        """
        done: List[Tuple[Op, Dict[str, Any]]] = []
        lock = threading.Lock()
        started = clock()
        cpu = self._fleet_cpu_s(daemon)

        def client(tenant: str) -> None:
            service = ServiceClient(daemon.address)
            last, count = None, 0
            while _until(seconds, started, last):
                count += 1
                op_id = f"{tenant}{window}.{count}"
                if probes is not None:
                    probes.tenant_ops[tenant] = op_id
                progress: List[float] = []
                t0 = clock()
                with lock:
                    out.attempted += 1
                try:
                    with tracer.bind(op_id) if tracer is not None else nullcontext():
                        with tracer.span("service.submit") if tracer is not None else nullcontext():
                            handle = service.submit(dict(spec, tenant=tenant))
                    admitted = clock()
                    payload = handle.result(
                        on_event=lambda kind, info: progress.append(clock())
                    )
                    finished = clock()
                except Exception as exc:  # noqa: BLE001 - counted and reported
                    with lock:
                        out.fail(f"submission {op_id}: {type(exc).__name__}: {exc}")
                else:
                    edges = [t0] + progress
                    with lock:
                        done.append((Op(
                            op_id=op_id,
                            wall_s=finished - t0,
                            iteration_s=[b - a for a, b in zip(edges, edges[1:])],
                            views=payload["iterations"],
                            cache_peak_bytes=peaks[tenant],
                            admission_s=admitted - t0,
                            first_progress_s=progress[0] - t0,
                            traced=tracer is not None,
                        ), payload))
                last = clock() - t0

        threads = [
            threading.Thread(target=client, args=(tenant,), name=f"bench-client-{tenant}")
            for tenant in TENANTS
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cpu = self._fleet_cpu_s(daemon) - cpu
        ops = []
        for op, payload in done:
            try:
                assert_payloads_equivalent(payload, reference)
            except Exception as exc:  # noqa: BLE001 - counted and reported
                out.fail(f"submission {op.op_id}: {type(exc).__name__}: {exc}")
            else:
                ops.append(op)
        return ops, cpu / max(len(done), 1)

    def run(self, seed: int, seconds: float, trace: bool) -> Result:
        """One untraced window, or :data:`TRACE_WINDOWS` alternating
        untraced and traced windows so that drift over the run falls on
        both sides of the tracing overhead alike."""
        out = Result()
        setup = [] if trace else probe_setup(self.name, seed)
        spec = self.spec_for(seed)
        reference = reference_outputs(self.name, seed)

        # A pass-through that keeps each run's peak cache residency, which
        # the served payload does not carry; it times nothing.
        peaks: Dict[str, int] = {}
        run_spec = daemon_module.run_spec

        def keep_peak(spec_, executor="inline", on_iteration=None):
            peak = [0]

            def observe(it, stats):
                peak[0] = max(peak[0], stats.peak_memory_bytes)
                if on_iteration is not None:
                    on_iteration(it, stats)

            payload = run_spec(spec_, executor=executor, on_iteration=observe)
            peaks[spec_["tenant"]] = peak[0]
            return payload

        tracer = Tracer() if trace else None
        probes = Probes(tracer) if trace else None
        windows = TRACE_WINDOWS if trace else 1
        untraced: List[Op] = []
        traced: List[Op] = []
        plane: Dict[str, float] = {}
        daemon_module.run_spec = keep_peak
        daemon = self.daemon()
        try:
            daemon.start()
            for window in range(windows):
                traced_window = window % 2 == 1
                if traced_window:
                    time.sleep(HEARTBEAT_SETTLE_S)
                    before = daemon.stats()["artifact_plane"]
                    probes.install()
                try:
                    ops, cpu = self._closed_loop(
                        daemon, spec, reference, seconds / windows, out, window,
                        tracer if traced_window else None,
                        probes if traced_window else None, peaks,
                    )
                finally:
                    if traced_window:
                        probes.uninstall()
                if traced_window:
                    time.sleep(HEARTBEAT_SETTLE_S)
                    after = daemon.stats()["artifact_plane"]
                    for name in PLANE_COUNTERS:
                        plane[name] = plane.get(name, 0) + after.get(name, 0) - before.get(name, 0)
                    traced.extend(ops)
                else:
                    untraced.extend(ops)
            rss = _rss_self_mb() + max(
                (_proc_peak_rss_mb(pid) for pid in daemon.worker_pids().values()), default=0.0
            )
        finally:
            daemon.stop()
            daemon_module.run_spec = run_spec
        if untraced and not trace:
            out.end_to_end = end_to_end_metrics(untraced, setup, [cpu], rss)
        if traced and untraced:
            out.per_layer = per_layer_metrics(
                traced, untraced, tracer, plane_metrics(plane, len(traced))
            )
            out.table = layer_table(traced, tracer)
            out.spans = tracer
        return out


#: ``artifact_plane_stats()`` counters the plane metrics are made of.
PLANE_COUNTERS = (
    "fetch_bytes_served", "cache_hits", "cache_misses", "cross_session_hits",
    "peer_fetches", "peer_fetch_failures",
)


def plane_metrics(deltas: Dict[str, float], ops: int) -> Dict[str, float]:
    """Artifact-plane metrics per submission from counter deltas over ``ops`` submissions."""
    hits, misses = deltas["cache_hits"], deltas["cache_misses"]
    return {
        "plane.fetch_bytes": deltas["fetch_bytes_served"] / ops,
        "plane.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "plane.cross_session_hits": deltas["cross_session_hits"] / ops,
        "plane.peer_fetches": deltas["peer_fetches"] / ops,
        "plane.peer_fetch_failures": deltas["peer_fetch_failures"] / ops,
    }


WORKLOADS: Dict[str, Any] = {
    "census-inline": InlineWorkload("census-inline", "census", "opt", scale=0.5),
    "mnist-nm": InlineWorkload("mnist-nm", "mnist", "nm", scale=4.0),
    "census-served": ServedWorkload(
        "census-served", "census", scale=0.25,
        plan=("DPR", "PPR", "PPR", "DPR", "PPR", "PPR", "DPR"),
    ),
    "census-served-nocache": ServedWorkload(
        "census-served-nocache", "census", scale=0.25,
        plan=("DPR", "PPR", "PPR", "DPR", "PPR", "PPR", "DPR"), worker_cache=False,
    ),
}
