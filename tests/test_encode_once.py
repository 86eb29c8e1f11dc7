"""Encode once: the coordinator never re-encodes a value it received as bytes.

An out-of-process worker replies with its computed value's serialized
bytes.  The engine keeps them next to the decoded value and reuses them for
the child tasks' payloads (as :class:`EncodedValue` placeholders) and for
the store write.  These tests watch the two coordinator-side encoders the
per-layer benchmark attributes — ``repro.execution.engine.serialize``
(task payloads) and ``repro.storage.store.serialize`` (store writes) —
over a real census lifecycle, and check that no worker-computed value
ever reaches either of them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set

import pytest

import repro.execution.engine as engine_module
import repro.storage.store as store_module
from repro.core.operators import Operator, RunContext
from repro.execution.clock import SimulatedCostModel
from repro.execution.engine import ExecutionEngine
from repro.execution.executors import DistributedExecutor
from repro.execution.equivalence import assert_equivalent_runs
from repro.experiments.runner import run_lifecycle
from repro.storage.serialization import ArtifactRef, EncodedValue
from repro.systems.helix import HelixSystem


def _census(executor=None):
    """A 3-iteration census lifecycle on ``executor`` (a name or an instance)."""
    system = HelixSystem.opt(cost_model=SimulatedCostModel(), seed=0)
    if isinstance(executor, str):
        return run_lifecycle(
            system, "census", n_iterations=3, scale=0.25, executor=executor, max_workers=2
        )
    if executor is not None:
        system.configure_executor(executor)
    return run_lifecycle(system, "census", n_iterations=3, scale=0.25)


@pytest.mark.parametrize("executor", ["process", "distributed", "distributed-refs"])
def test_coordinator_never_encodes_a_worker_computed_value(executor, monkeypatch):
    fleet = None
    if executor == "distributed-refs":
        # Store-resident inputs ship as ArtifactRefs (the served path).
        executor = fleet = DistributedExecutor(max_workers=2, fetch_inputs=True)
    # Every value a worker computed or the coordinator loaded, kept alive so
    # ids stay unique, and each computed value's reply bytes by node name
    # (a name completes once per run).
    alive: List[Any] = []
    computed_ids: Set[int] = set()
    loaded_ids: Set[int] = set()
    reply_bytes: Dict[str, bytes] = {}
    parents_of: Dict[str, List[str]] = {}
    payload_inputs: List[Any] = []
    shipped_encoded = []
    store_encoded: List[Any] = []

    original_charged = ExecutionEngine._charged_result

    def recording_charged(self, dag, name, outcome, shipped_input_sizes):
        if name in shipped_input_sizes:
            value, _measured, blob = outcome
            alive.append(value)
            computed_ids.add(id(value))
            reply_bytes[name] = blob
        return original_charged(self, dag, name, outcome, shipped_input_sizes)

    original_load = ExecutionEngine._load_node

    def recording_load(self, name, signature):
        value, charged = original_load(self, name, signature)
        alive.append(value)
        loaded_ids.add(id(value))
        return value, charged

    original_build = ExecutionEngine._build_process_payload

    def recording_build(self, dag, name, signatures, use_refs=False):
        parents_of[name] = list(dag.node(name).parents)
        return original_build(self, dag, name, signatures, use_refs=use_refs)

    original_payload_encode = engine_module.serialize

    def payload_encode(payload):
        name, operator, inputs, context = payload
        assert isinstance(operator, Operator) and isinstance(context, RunContext)
        for parent, value in zip(parents_of[name], inputs):
            payload_inputs.append(value)
            if isinstance(value, EncodedValue):
                # The placeholder wraps the very bytes the parent's reply
                # carried: no decode + encode round trip in between.
                assert value.blob is reply_bytes[parent]
                shipped_encoded.append(parent)
        return original_payload_encode(payload)

    original_store_encode = store_module.serialize

    def store_encode(value):
        store_encoded.append(value)
        return original_store_encode(value)

    monkeypatch.setattr(ExecutionEngine, "_charged_result", recording_charged)
    monkeypatch.setattr(ExecutionEngine, "_load_node", recording_load)
    monkeypatch.setattr(ExecutionEngine, "_build_process_payload", recording_build)
    monkeypatch.setattr(engine_module, "serialize", payload_encode)
    monkeypatch.setattr(store_module, "serialize", store_encode)

    try:
        result = _census(executor)
    finally:
        if fleet is not None:
            fleet.shutdown()

    assert computed_ids, "no task ran out of process"
    assert shipped_encoded, "no child payload carried its parent as bytes"
    assert not [v for v in payload_inputs if id(v) in computed_ids]
    # Every COMPUTE ran on a worker, so every store write reused reply bytes.
    assert store_encoded == []
    # Task inputs are placeholders, or values the coordinator itself loaded
    # from its store (LOAD tasks run in-process); with refs enabled the
    # loaded ones ship as ArtifactRefs too.
    shipped_loaded = [v for v in payload_inputs if id(v) in loaded_ids]
    assert all(
        isinstance(v, (EncodedValue, ArtifactRef)) or id(v) in loaded_ids
        for v in payload_inputs
    )
    if fleet is not None:
        assert not shipped_loaded

    monkeypatch.undo()
    reference = _census()
    assert len(reference.iterations) == len(result.iterations)
    for inline_stats, candidate_stats in zip(reference.iterations, result.iterations):
        assert_equivalent_runs(inline_stats, candidate_stats, include_times=False)
