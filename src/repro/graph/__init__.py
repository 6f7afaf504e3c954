"""Operator graph IR: tensor specs, graphs, builder, functional executor."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.graph.builder": ("GraphBuilder",),
    "repro.graph.executor": ("ExecutionTrace", "execute", "execute_traced"),
    "repro.graph.graph": ("Graph", "GraphError", "Node"),
    "repro.graph.passes": (
        "DEFAULT_PASSES", "BufferPlan", "fuse_elementwise_chains",
        "fuse_fc_activations", "group_sls_into_concat", "optimize",
        "plan_buffers", "working_set_stream",
    ),
    "repro.graph.tensor": ("TensorSpec",),
})

__all__ = [
    "TensorSpec",
    "Graph",
    "GraphError",
    "Node",
    "GraphBuilder",
    "execute",
    "execute_traced",
    "ExecutionTrace",
    "optimize",
    "fuse_fc_activations",
    "group_sls_into_concat",
    "fuse_elementwise_chains",
    "DEFAULT_PASSES",
    "BufferPlan",
    "plan_buffers",
    "working_set_stream",
]
