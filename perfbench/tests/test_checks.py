"""The output check, and the metric names BENCHMARK.json promises."""

import copy
import json

from repro.execution.equivalence import canonical_lifecycle
from repro.experiments import run_lifecycle
from repro.systems import HelixSystem

import checks
import env
import workloads


def _digests(seed):
    result = run_lifecycle(HelixSystem.opt(seed=seed), "census", n_iterations=2,
                           seed=seed, scale=0.1)
    return checks.output_digests(canonical_lifecycle(result.iterations))


def test_output_check_catches_a_corrupted_digest():
    reference = _digests(3)
    assert checks.output_mismatch(reference, _digests(3)) is None
    corrupted = copy.deepcopy(reference)
    name = sorted(corrupted[1])[0]
    corrupted[1][name] = "0" * 64
    message = checks.output_mismatch(reference, corrupted)
    assert message is not None and name in message and "iteration 1" in message


def test_output_check_catches_missing_iterations_and_outputs():
    reference = [{"a": "1", "b": "2"}, {"a": "3"}]
    assert checks.output_mismatch(reference, reference[:1]) is not None
    assert checks.output_mismatch(reference, [{"a": "1"}, {"a": "3"}]) is not None


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == workloads.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == workloads.PER_LAYER


def _op(**served):
    view = {"node_states": {"n": "compute"}, "materialized_nodes": [], "outputs": {}}
    return workloads.Op(op_id="op", wall_s=1.0, iteration_s=[1.0], views=[view],
                        cache_peak_bytes=1, **served)


def test_inline_metrics_plus_absent_ones_are_every_per_layer_metric():
    from spans import Tracer

    names = set(workloads.per_layer_metrics([_op()], [_op()], Tracer()))
    assert not names & workloads.SERVED_ONLY
    assert names | workloads.SERVED_ONLY == {name for name, _ in workloads.PER_LAYER}
    assert workloads.WORKLOADS["mnist-nm"].absent == workloads.SERVED_ONLY


def test_served_ops_measure_every_per_layer_metric():
    from spans import Tracer

    op = _op(admission_s=0.1, first_progress_s=0.2)
    plane = workloads.plane_metrics(
        {name: 1 for name in workloads.PLANE_COUNTERS}, ops=1
    )
    names = set(workloads.per_layer_metrics([op], [op], Tracer(), plane))
    assert names == {name for name, _ in workloads.PER_LAYER}
    assert not workloads.WORKLOADS["census-served"].absent
