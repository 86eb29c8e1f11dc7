"""Cross-cutting property-based tests on core invariants (hypothesis)."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dag import Node, WorkflowDAG
from repro.core.signatures import compute_node_signatures, diff_signatures
from repro.optimizer.oep import NodeState, plan_run_time, solve_oep
from repro.optimizer.omp import cumulative_run_time
from repro.optimizer.pruning import eviction_schedule, out_of_scope_after
from repro.storage.canonical import (
    CANONICAL_MAGIC,
    decode,
    encode,
    encode_segments,
)
from repro.storage.serialization import deserialize, serialize

from conftest import ConstOperator, SumOperator


@st.composite
def random_dags(draw):
    """Random DAGs with 2-8 nodes, returning (parents list, per-node tags)."""
    n = draw(st.integers(2, 8))
    parents = []
    for i in range(n):
        parents.append([j for j in range(i) if draw(st.booleans())])
    tags = [draw(st.integers(0, 3)) for _ in range(n)]
    return parents, tags


def _build(parents, tags):
    nodes = []
    for i, deps in enumerate(parents):
        operator = SumOperator(offset=float(tags[i])) if deps else ConstOperator(tags[i], tag=str(tags[i]))
        nodes.append(
            Node.create(f"n{i}", operator, parents=[f"n{j}" for j in deps], is_output=(i == len(parents) - 1))
        )
    return WorkflowDAG(nodes)


class TestDAGProperties:
    @given(random_dags())
    @settings(max_examples=60, deadline=None)
    def test_topological_order_respects_all_edges(self, spec):
        dag = _build(*spec)
        order = {name: i for i, name in enumerate(dag.topological_order())}
        for parent, child in dag.edges:
            assert order[parent] < order[child]

    @given(random_dags())
    @settings(max_examples=60, deadline=None)
    def test_ancestors_descendants_are_inverse(self, spec):
        dag = _build(*spec)
        for name in dag.node_names:
            for ancestor in dag.ancestors(name):
                assert name in dag.descendants(ancestor)

    @given(random_dags())
    @settings(max_examples=60, deadline=None)
    def test_slicing_keeps_output_cone_closed(self, spec):
        dag = _build(*spec)
        sliced = dag.sliced_to_outputs()
        for name in sliced.node_names:
            for parent in sliced.parents(name):
                assert parent in sliced

    @given(random_dags())
    @settings(max_examples=60, deadline=None)
    def test_eviction_schedule_is_a_partition(self, spec):
        dag = _build(*spec)
        order = list(dag.topological_order())
        schedule = eviction_schedule(dag, order)
        evicted = sorted(name for names in schedule.values() for name in names)
        assert evicted == sorted(order)
        # No node is evicted before its own execution.
        positions = {name: i for i, name in enumerate(order)}
        for name, after in out_of_scope_after(dag, order).items():
            assert after >= positions[name]


class TestSignatureProperties:
    @given(random_dags())
    @settings(max_examples=60, deadline=None)
    def test_signatures_are_deterministic_and_unique_per_structure(self, spec):
        dag1 = _build(*spec)
        dag2 = _build(*spec)
        assert compute_node_signatures(dag1) == compute_node_signatures(dag2)

    @given(random_dags())
    @settings(max_examples=60, deadline=None)
    def test_self_diff_has_no_original_nodes(self, spec):
        dag = _build(*spec)
        signatures = compute_node_signatures(dag)
        diff = diff_signatures(signatures, signatures)
        assert diff.original == frozenset()
        assert diff.reusable == frozenset(signatures)


class TestPlanProperties:
    @given(
        random_dags(),
        st.lists(st.floats(0.1, 5.0), min_size=8, max_size=8),
        st.lists(st.floats(0.05, 5.0), min_size=8, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_optimal_plan_never_beats_or_loses_to_infeasible_bounds(self, spec, computes, loads):
        parents, tags = spec
        dag = _build(parents, tags)
        compute = {f"n{i}": computes[i] for i in range(len(parents))}
        load = {f"n{i}": loads[i] for i in range(len(parents))}
        forced = [dag.node_names[-1]]
        plan = solve_oep(dag, compute, load, forced_compute=forced)
        # Lower bound: the forced node's own compute time.  Upper bound: computing everything.
        assert plan.estimated_time >= compute[forced[0]] - 1e-9
        assert plan.estimated_time <= sum(compute.values()) + 1e-9
        assert plan.estimated_time == pytest.approx(plan_run_time(plan.states, compute, load))

    @given(random_dags(), st.floats(0.1, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_cumulative_runtime_monotone_in_ancestry(self, spec, unit_cost):
        dag = _build(*spec)
        times = {name: unit_cost for name in dag.node_names}
        for name in dag.node_names:
            own = cumulative_run_time(name, dag, times)
            for child in dag.children(name):
                assert cumulative_run_time(child, dag, times) >= own - 1e-9


#: Scalars the canonical encoder gives a dedicated type tag; hashable, so
#: they double as set elements (dict keys stay text, as in real payloads).
_canonical_scalars = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
    st.booleans(),
    st.none(),
)

#: Recursive canonical values: every container family the wire carries.
_canonical_values = st.recursive(
    _canonical_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=5),
        st.sets(_canonical_scalars, max_size=5),
        st.frozensets(_canonical_scalars, max_size=5),
    ),
    max_leaves=20,
)


class TestSerializationProperties:
    @given(
        st.recursive(
            st.one_of(st.integers(-1000, 1000), st.floats(allow_nan=False, allow_infinity=False),
                      st.text(max_size=20), st.booleans(), st.none()),
            lambda children: st.one_of(
                st.lists(children, max_size=5),
                st.dictionaries(st.text(max_size=5), children, max_size=5),
            ),
            max_leaves=20,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_serialize_round_trip(self, value):
        assert deserialize(serialize(value)) == value


#: Values encoded in a fresh interpreter to pin cross-process bit equality.
#: Deliberately hash-order sensitive (string-keyed dicts, sets) and layout
#: sensitive (C- and F-ordered arrays): the classic sources of drift.
_CROSS_PROCESS_CORPUS = [
    {"gamma": 1, "alpha": [2.5, None], "beta": {"nested": (True, b"x")}},
    {f"key{i}": i for i in range(40)},
    {"swapped", "order", "of", "a", "set"},
    frozenset(range(-5, 20)),
    [(-(2**70), 2**70), "unicode: é中ﬁ", b"\x00\xff" * 30],
    np.arange(24, dtype=np.float64).reshape(4, 6),
    np.asfortranarray(np.arange(24, dtype=np.int32).reshape(4, 6)),
    np.array(3.5, dtype=np.float32),
    np.float64(2.25),
]

#: Child-process encoder: reads a pickled value list on stdin, writes the
#: canonical encoding of each back on stdout.
_CHILD_ENCODER = (
    "import pickle, sys\n"
    "from repro.storage.canonical import encode\n"
    "corpus = pickle.loads(sys.stdin.buffer.read())\n"
    "sys.stdout.buffer.write(pickle.dumps([encode(v) for v in corpus]))\n"
)


class TestCanonicalDeterminism:
    """The bit-equality contract of :mod:`repro.storage.canonical`."""

    @given(_canonical_values)
    @settings(max_examples=80, deadline=None)
    def test_encode_is_deterministic_and_segments_join_to_encode(self, value):
        packed = encode(value)
        assert packed == encode(value)
        assert packed[:2] == CANONICAL_MAGIC
        assert b"".join(bytes(s) for s in encode_segments(value)) == packed

    @given(_canonical_values)
    @settings(max_examples=80, deadline=None)
    def test_decode_inverts_encode_and_reencode_is_a_fixpoint(self, value):
        packed = encode(value)
        decoded = decode(packed)
        assert decoded == value
        assert encode(decoded) == packed

    @given(st.dictionaries(st.text(max_size=8), _canonical_scalars, min_size=2, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_dict_insertion_order_never_reaches_the_wire(self, mapping):
        reversed_insertion = dict(reversed(list(mapping.items())))
        assert reversed_insertion == mapping
        assert encode(reversed_insertion) == encode(mapping)
        shuffled = dict(sorted(mapping.items(), key=lambda kv: encode(kv[1])))
        assert encode(shuffled) == encode(mapping)

    def test_encoding_is_bit_identical_across_a_process_boundary(self):
        """A fresh interpreter — with a *different* string hash seed, so any
        hash-order dependence in dict/set encoding would show — produces the
        exact bytes this process produces."""
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "8675309"
        child = subprocess.run(
            [sys.executable, "-c", _CHILD_ENCODER],
            input=pickle.dumps(_CROSS_PROCESS_CORPUS),
            stdout=subprocess.PIPE,
            env=env,
            check=True,
        )
        remote = pickle.loads(child.stdout)
        local = [encode(value) for value in _CROSS_PROCESS_CORPUS]
        assert len(remote) == len(local)
        for index, (theirs, ours) in enumerate(zip(remote, local)):
            assert theirs == ours, (
                f"corpus[{index}] encodes differently across processes"
            )

    def test_numpy_round_trip_preserves_dtype_layout_and_bits(self):
        for array in (
            np.arange(24, dtype=np.float64).reshape(4, 6),
            np.asfortranarray(np.arange(24, dtype=np.int16).reshape(6, 4)),
            np.array([], dtype=np.complex128),
            np.array(7, dtype=np.uint8),
        ):
            packed = encode(array)
            decoded = decode(packed)
            assert decoded.dtype == array.dtype
            assert decoded.shape == array.shape
            assert np.array_equal(decoded, array)
            assert decoded.flags["F_CONTIGUOUS"] == array.flags["F_CONTIGUOUS"]
            assert encode(decoded) == packed

    def test_large_arrays_travel_as_zero_copy_buffers(self):
        """The acceptance bar for the zero-copy path: a big array's bytes
        appear in ``encode_segments`` as an out-of-band memoryview sharing
        the array's memory, and ``decode(copy_buffers=False)`` hands back a
        read-only view into the payload instead of a copy."""
        array = np.arange(4096, dtype=np.float64)
        segments = encode_segments(array)
        shared = [
            segment
            for segment in segments
            if isinstance(segment, memoryview)
            and np.shares_memory(np.frombuffer(segment, dtype=np.uint8), array)
        ]
        assert shared, "no out-of-band segment shares the array's memory"

        payload = encode(array)
        view = decode(payload, copy_buffers=False)
        assert np.array_equal(view, array)
        assert not view.flags.writeable
        assert np.shares_memory(view, np.frombuffer(payload, dtype=np.uint8))

        copied = decode(payload)
        assert copied.flags.writeable
        assert not np.shares_memory(copied, np.frombuffer(payload, dtype=np.uint8))


class TestArtifactEncodingFixpoint:
    """``serialize(deserialize(b)) == b`` for real workflow artifacts.

    Out-of-process executors reuse a worker's reply bytes for child payloads
    and store writes instead of encoding the decoded value again, which is
    only sound when every artifact's encoding is a fixpoint — including
    values that ride the pickle fallback.  Hypothesis values above cover the
    codec's type set; this checks every node value a real lifecycle of each
    built-in workload produces.
    """

    @pytest.mark.parametrize("workload_name", ["census", "genomics", "mnist", "nlp"])
    def test_every_node_value_encodes_to_a_fixpoint(self, workload_name, monkeypatch):
        from repro.execution.cache import OperatorCache
        from repro.execution.clock import SimulatedCostModel
        from repro.experiments.runner import run_lifecycle
        from repro.systems.helix import HelixSystem

        checked = []
        original_put = OperatorCache.put

        def checking_put(cache, name, value, *args, **kwargs):
            packed = serialize(value)
            assert serialize(deserialize(packed)) == packed, (
                f"{workload_name}:{name} ({type(value).__name__}) does not "
                f"re-encode to the bytes it was decoded from"
            )
            checked.append(name)
            return original_put(cache, name, value, *args, **kwargs)

        monkeypatch.setattr(OperatorCache, "put", checking_put)
        run_lifecycle(
            HelixSystem.opt(cost_model=SimulatedCostModel(), seed=0),
            workload_name,
            n_iterations=2,
            scale=0.25,
        )
        assert checked
