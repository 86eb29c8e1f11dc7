"""System interface: how the compared systems execute workflow iterations.

The evaluation compares Helix (with three materialization policies) against
re-implementations of KeystoneML's and DeepDive's reuse behaviour on the same
execution substrate, so that measured differences reflect the reuse policies
rather than unrelated engineering differences.  Every system implements
:meth:`System.run_iteration`, which takes the workflow for the current
iteration and returns the :class:`~repro.execution.tracker.RunStats` observed
while executing it.

All systems share the same execution substrate, so executor selection is a
system-level toggle (:meth:`System.configure_executor`): the reuse policies
stay untouched and only the task-dispatch strategy underneath them changes —
``"inline"`` (reference), ``"thread"`` (latency-bound parallelism),
``"process"`` (CPU-bound parallelism) or ``"distributed"`` (multi-worker
dispatch over sockets).

Worker-pool ownership (also documented in ``docs/executors.md``): executors
whose startup is expensive (``"process"``, ``"distributed"``) are
**auto-pooled** when configured by name — the system builds one executor
instance on first use, reuses it across every lifecycle iteration (engines
drain it between runs instead of destroying it), and owns its final
``shutdown`` (:meth:`System.close_executor`, also invoked when the executor
is reconfigured, and usable via ``with system: ...``).  A ready
:class:`Executor` *instance* passed to :meth:`System.configure_executor` is
caller-owned: the system never shuts it down.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence

from ..core.workflow import Workflow
from ..exceptions import ExecutionError
from ..execution.engine import ExecutionEngine, create_engine
from ..execution.executors import Executor, create_executor, resolve_executor_name
from ..execution.tracker import RunStats

__all__ = ["System", "AUTO_POOLED_EXECUTORS"]

#: Name-configured executor strategies whose worker pools are expensive
#: enough to start that the System keeps one owned instance alive across
#: lifecycle iterations instead of paying one pool fork per iteration.
AUTO_POOLED_EXECUTORS = ("process", "distributed")


class System(ABC):
    """A workflow-execution system participating in the comparison."""

    #: Display name used in benchmark output.
    name: str = "system"

    #: Which executor strategy iterations run on — a canonical name
    #: ("inline"|"thread"|"process") or a ready :class:`Executor` instance
    #: shared across iterations.
    executor_name: str | Executor = "inline"

    #: Worker count for pool-backed executors (None = library default).
    max_workers: Optional[int] = None

    #: Remote worker addresses ("host:port") for the distributed executor's
    #: address-configured mode (None = spawn workers locally).
    workers: Optional[Sequence[str]] = None

    #: System-owned executor instance backing a name-configured auto-pooled
    #: strategy (see :data:`AUTO_POOLED_EXECUTORS`); built lazily on first
    #: engine construction and closed by :meth:`close_executor`.
    _owned_executor: Optional[Executor] = None

    # ------------------------------------------------------------------ executor selection
    def configure_executor(
        self,
        executor: str | Executor = "inline",
        max_workers: Optional[int] = None,
        workers: Optional[Sequence[str]] = None,
    ) -> "System":
        """Select the executor strategy used by :meth:`run_iteration`.

        Parameters
        ----------
        executor:
            An executor name (``"inline"``, ``"thread"``, ``"process"``,
            ``"distributed"``) or a ready :class:`Executor` instance.
        max_workers:
            Worker count for pool-backed strategies; ``None`` uses the
            library default.  Rejected when ``executor`` is an instance
            (the instance already carries its own worker count).
        workers:
            Remote worker addresses (``"host:port"``) for the distributed
            executor's address-configured mode (pre-started ``python -m
            repro.execution.worker`` processes).  Only valid with
            ``executor="distributed"``; rejected for other names and for
            instances.

        Returns
        -------
        ``self``, for chaining.

        Raises
        ------
        ExecutionError
            On an unknown executor name or worker address, when
            ``max_workers``/``workers`` is combined with an executor
            instance, or when ``workers`` is combined with a
            non-distributed name.

        Pool ownership: the auto-pooled names (:data:`AUTO_POOLED_EXECUTORS`)
        give this system an owned instance that is reused across lifecycle
        iterations and closed by :meth:`close_executor`.  Passing a ready
        instance instead keeps its worker pools alive across iterations (the
        per-iteration engines only drain it) but leaves ownership with the
        caller, who runs the final ``executor.shutdown()``.  Reconfiguring
        always closes a previously-owned pool first.
        """
        if isinstance(executor, Executor):
            if max_workers is not None:
                raise ExecutionError(
                    "max_workers cannot be combined with an executor instance; "
                    "configure the instance's own max_workers instead"
                )
            if workers is not None:
                raise ExecutionError(
                    "workers cannot be combined with an executor instance; "
                    "configure the instance's own workers instead"
                )
            self.close_executor()
            self.executor_name = executor
        else:
            name = resolve_executor_name(executor)
            if workers is not None and name != "distributed":
                raise ExecutionError(
                    f'workers=["host:port", ...] is only valid with '
                    f'executor="distributed", not {name!r}'
                )
            if (
                name == self.executor_name
                and max_workers == self.max_workers
                and self._same_workers(workers)
            ):
                return self  # no-op: keep an owned pool warm across calls
            self.close_executor()
            self.executor_name = name
        self.max_workers = max_workers
        self.workers = list(workers) if workers is not None else None
        return self

    def _same_workers(self, workers: Optional[Sequence[str]]) -> bool:
        left = list(self.workers) if self.workers is not None else None
        right = list(workers) if workers is not None else None
        return left == right

    @property
    def owned_executor(self) -> Optional[Executor]:
        """The system-owned pool behind an auto-pooled name, if one is live.

        ``None`` until the first iteration builds it (and again after
        :meth:`close_executor`), and always ``None`` for non-pooled names or
        caller-supplied instances.  Useful for introspection — e.g. a
        distributed pool's ``worker_pids()``/``address`` — without touching
        the pool's lifetime, which stays with the system.
        """
        return self._owned_executor

    def close_executor(self) -> "System":
        """Shut down the system-owned executor pool, if one exists.

        Only touches pools the system itself built for a name-configured
        auto-pooled strategy; a caller-supplied :class:`Executor` instance is
        never closed here.  Safe to call repeatedly; returns ``self``.
        """
        owned = self._owned_executor
        if owned is not None:
            self._owned_executor = None
            owned.shutdown()
        return self

    def __enter__(self) -> "System":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close_executor()

    def _create_engine(self, **kwargs) -> ExecutionEngine:
        """Build the configured engine with system-provided components.

        Name-configured auto-pooled strategies (:data:`AUTO_POOLED_EXECUTORS`)
        resolve to a lazily-built, system-owned executor instance here, so
        every iteration's engine drains the same warm pool instead of forking
        a fresh one (engines treat any executor *instance* as externally
        owned and call ``finish_run`` rather than ``shutdown``).
        """
        spec = self.executor_name
        if isinstance(spec, str) and spec in AUTO_POOLED_EXECUTORS:
            if self._owned_executor is None:
                self._owned_executor = create_executor(
                    spec, max_workers=self.max_workers, workers=self.workers
                )
            return create_engine(self._owned_executor, **kwargs)
        return create_engine(
            spec, max_workers=self.max_workers, workers=self.workers, **kwargs
        )

    @abstractmethod
    def run_iteration(
        self,
        workflow: Workflow,
        iteration: int,
        iteration_type: str = "",
    ) -> RunStats:
        """Execute one iteration of the workflow and return its statistics."""

    @abstractmethod
    def reset(self) -> None:
        """Discard all cross-iteration state (stores, statistics, signatures)."""

    def supports(self, workload_name: str) -> bool:
        """Whether the system supports a workload (Table 2 support matrix)."""
        del workload_name
        return True

    def storage_bytes(self) -> int:
        """Bytes of intermediate results currently persisted by the system."""
        return 0
