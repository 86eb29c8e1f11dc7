"""The timing wrappers against the real program: spans appear, originals return."""

import pytest

from repro.core.workflow import Workflow
from repro.experiments import run_lifecycle
from repro.storage import store as store_module
from repro.systems import HelixSystem

from probes import Probes
from spans import Tracer, layer_rows, self_times, unattributed


def test_traced_lifecycle_covers_the_layers_and_partitions_wall_time():
    tracer = Tracer()
    probes = Probes(tracer)
    originals = (Workflow.compile, store_module.serialize, store_module.deserialize)
    marks = []
    probes.install()
    try:
        with tracer.bind("lc"):
            start = tracer.clock()
            run_lifecycle(HelixSystem.opt(seed=1), "census", n_iterations=3, seed=1,
                          scale=0.1, on_iteration=lambda spec, stats: marks.append(tracer.clock()))
    finally:
        probes.uninstall()
    assert (Workflow.compile, store_module.serialize, store_module.deserialize) == originals

    spans = tracer.for_op("lc")
    rows = layer_rows(spans)
    for name in ("systems.run_iteration", "core.compile", "core.signatures", "optimizer.oep",
                 "optimizer.omp_decide", "execution.execute", "execution.compute",
                 "execution.size_estimate", "storage.put", "storage.encode"):
        assert rows[name].calls > 0, name
    assert rows["systems.run_iteration"].calls == 3
    assert all(span.op == "lc" and span.end >= span.start for span in spans)
    assert sum(s.attrs["bytes"] for s in spans if s.name == "storage.put") > 0

    wall = marks[-1] - start
    rest = unattributed(wall, spans)
    assert rest >= 0
    assert sum(self_times(spans).values()) + rest == pytest.approx(wall)
