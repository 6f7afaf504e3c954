"""Property tests: the verifier's contract over the whole model zoo.

Two invariants the static-analysis subsystem promises:

1. every zoo graph verifies clean at small, medium, and very large batch
   sizes (the symbolic-batch rules scale, they are not pinned to the
   batch the graph was built at), raw and optimized;
2. the verifier's *inferred* output specs equal the shapes the executor
   actually produces.
"""

import numpy as np
import pytest

from repro.analysis import (
    check_equivalence,
    inferred_output_specs,
    verify_graph,
)
from repro.graph import execute, optimize
from repro.graph.tensor import TensorSpec
from repro.models import MODEL_ORDER, build_model
from repro.workloads import QueryGenerator

BATCHES = (1, 64, 16384)


@pytest.mark.parametrize("name", MODEL_ORDER)
@pytest.mark.parametrize("batch", BATCHES)
def test_zoo_graph_verifies_clean(name, batch):
    graph = build_model(name).build_graph(batch)
    report = verify_graph(graph)
    assert report.clean, f"{name}@{batch}:\n{report.render_text()}"


@pytest.mark.parametrize("name", MODEL_ORDER)
@pytest.mark.parametrize("batch", BATCHES)
def test_optimized_zoo_graph_verifies_and_is_equivalent(name, batch):
    graph = build_model(name).build_graph(batch)
    optimized = optimize(graph)  # optimize() itself asserts both checks
    assert verify_graph(optimized).ok
    assert check_equivalence(graph, optimized).clean


@pytest.mark.parametrize("name", MODEL_ORDER)
def test_inferred_specs_match_executor_lazy(name):
    model = build_model(name)
    batch = 4
    graph = model.build_graph(batch)
    feeds = QueryGenerator(model, seed=7).generate(batch)
    outputs = execute(graph, feeds)
    inferred = inferred_output_specs(graph)
    assert set(inferred) == set(outputs)
    for out, spec in inferred.items():
        assert TensorSpec.like(outputs[out]) == spec, out


@pytest.mark.parametrize("name", MODEL_ORDER)
def test_inferred_specs_scale_with_batch(name):
    """Leading output dims follow the batch; trailing dims are fixed."""
    model = build_model(name)
    shapes = {}
    for batch in (2, 8):
        specs = inferred_output_specs(model.build_graph(batch))
        shapes[batch] = {out: spec.shape for out, spec in specs.items()}
    assert set(shapes[2]) == set(shapes[8])
    for out in shapes[2]:
        lo, hi = shapes[2][out], shapes[8][out]
        assert lo[0] == 2 and hi[0] == 8
        assert lo[1:] == hi[1:]
