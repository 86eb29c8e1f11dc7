"""Timing wrappers around the public calls into each layer of ``repro``.

:class:`Probes` patches the program from the outside -- class attributes
and module-level names -- so the traced run needs no change to the
program, and :meth:`Probes.uninstall` restores every original.  Span names
follow the package layout (``core``, ``optimizer``, ``storage``,
``execution``, ``systems``, ``workloads``, ``service``).

Only coordinator-side work is visible: out-of-process workers are forked
before the probes are installed, so a served task's compute appears as one
detached ``execution.compute`` interval from submit to completion.
"""

from __future__ import annotations

import functools
import sys
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from spans import Span, Tracer


def _subclasses(base: type) -> List[type]:
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


class Probes:
    """Install and remove the benchmark's timing wrappers."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: Served runs: tenant -> operation id of its in-flight submission,
        #: so the daemon's runner thread attributes its spans correctly.
        self.tenant_ops: Dict[str, str] = {}
        self._undo: List[Tuple[Any, str, Any]] = []
        self._submitted: Dict[Tuple[int, str], Tuple[float, Optional[str]]] = {}
        self._submitted_lock = threading.Lock()

    # ------------------------------------------------------------------ patching
    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _patch_methods(self, base: type, name: str, make: Callable[[Any], Any]) -> None:
        """Wrap ``name`` on ``base`` and on every subclass that defines its own."""
        for cls in _subclasses(base):
            if name in cls.__dict__:
                self._set(cls, name, make(cls.__dict__[name]))

    def _patch_global(self, module_name: str, name: str, make: Callable[[Any], Any]) -> None:
        module = sys.modules[module_name]
        self._set(module, name, make(getattr(module, name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------ wrappers
    def _timed(self, name: str, after: Optional[Callable[..., None]] = None):
        tracer = self.tracer

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                top = tracer.current()
                if top is not None and top.name == name:
                    return fn(*args, **kwargs)  # super() call of the same layer
                span = tracer.start(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.finish(span)
                if after is not None:
                    after(span, args, result)
                return result

            return wrapper

        return make

    def install(self) -> "Probes":
        import repro.workloads  # noqa: F401 - defines every operator subclass
        from repro.core.operators import Operator
        from repro.core.workflow import Workflow
        from repro.execution.engine import ExecutionEngine
        from repro.execution.executors import Executor
        from repro.optimizer.omp import MaterializationPolicy
        from repro.storage.store import MaterializationStore
        from repro.systems.helix import HelixSystem
        from repro.workloads.base import Workload

        tracer = self.tracer

        def _bytes(span: Span, args: Tuple[Any, ...], result: Any) -> None:
            span.attrs["bytes"] = len(result)

        def _put_bytes(span: Span, args: Tuple[Any, ...], result: Any) -> None:
            span.attrs["bytes"] = result.record.size_bytes

        def _load_bytes(span: Span, args: Tuple[Any, ...], result: Any) -> None:
            record = args[0].catalog.get(args[1])
            span.attrs["bytes"] = record.size_bytes if record is not None else 0

        self._patch_methods(Workload, "build", self._timed("workloads.build"))
        self._patch_methods(Workflow, "compile", self._timed("core.compile"))
        self._patch_global("repro.systems.helix", "compute_node_signatures",
                           self._timed("core.signatures"))
        self._patch_global("repro.systems.helix", "solve_oep", self._timed("optimizer.oep"))
        self._patch_methods(MaterializationPolicy, "decide", self._timed("optimizer.omp_decide"))
        self._patch_methods(ExecutionEngine, "execute", self._timed("execution.execute"))
        self._patch_methods(Operator, "run", self._timed("execution.compute"))
        self._patch_global("repro.execution.engine", "estimate_size_bytes",
                           self._timed("execution.size_estimate"))
        self._patch_global("repro.execution.engine", "serialize",
                           self._timed("execution.payload_encode", _bytes))
        self._patch_methods(MaterializationStore, "put", self._timed("storage.put", _put_bytes))
        self._patch_methods(MaterializationStore, "load", self._timed("storage.load", _load_bytes))
        self._patch_global("repro.storage.store", "serialize", self._timed("storage.encode", _bytes))
        self._patch_global("repro.storage.store", "deserialize", self._timed("storage.decode"))

        def make_iteration(fn):
            @functools.wraps(fn)
            def run_iteration(system, workflow, iteration, *args, **kwargs):
                span = tracer.start("systems.run_iteration", iteration=iteration)
                try:
                    return fn(system, workflow, iteration, *args, **kwargs)
                finally:
                    tracer.finish(span)

            return run_iteration

        self._patch_methods(HelixSystem, "run_iteration", make_iteration)

        wait = self._timed("execution.wait")

        def make_next_completion(fn):
            waited = wait(fn)

            @functools.wraps(fn)
            def next_completion(executor):
                if not executor.out_of_process:
                    return fn(executor)
                completion = waited(executor)
                with self._submitted_lock:
                    submitted = self._submitted.pop((id(executor), completion[0]), None)
                if submitted is not None:
                    tracer.record_interval(
                        "execution.compute", submitted[0], tracer.clock(), submitted[1]
                    )
                return completion

            return next_completion

        def make_submit_payload(fn):
            @functools.wraps(fn)
            def submit_payload(executor, key, payload):
                with self._submitted_lock:
                    self._submitted[(id(executor), key)] = (tracer.clock(), tracer.current_op())
                return fn(executor, key, payload)

            return submit_payload

        def make_submit(fn):
            @functools.wraps(fn)
            def submit(executor, key, task):
                if executor.synchronous:
                    return fn(executor, key, task)
                parent = tracer.current()

                def adopted():
                    with tracer.adopt(parent):
                        return task()

                return fn(executor, key, adopted)

            return submit

        self._patch_methods(Executor, "next_completion", make_next_completion)
        self._patch_methods(Executor, "submit_payload", make_submit_payload)
        self._patch_methods(Executor, "submit", make_submit)

        def make_run_spec(fn):
            @functools.wraps(fn)
            def run_spec(spec, *args, **kwargs):
                with tracer.bind(self.tenant_ops.get(spec.get("tenant"), "unknown")):
                    with tracer.span("service.run"):
                        return fn(spec, *args, **kwargs)

            return run_spec

        self._patch_global("repro.service.daemon", "run_spec", make_run_spec)
        return self
