"""Spec-mode sweeps, the profile caches, and the buffer-reuse planner.

A grid sweep stacks every (model, batch) table and evaluates each
platform once; a cell-by-cell sweep evaluates one-cell stacks. Both run
the same evaluator, and padding must never leak between cells, so the
two must agree bit for bit (``==``, not approx).
"""

import pytest

from repro.core import SpeedupStudy
from repro.graph import plan_buffers, execute
from repro.hw import PLATFORM_ORDER
from repro.models import MODEL_ORDER, build_model
from repro.ops import materialization_count, reset_materialization_count
from repro.runtime import InferenceSession, clear_graph_cache, graph_cache_stats
from repro.runtime import specmode
from repro.workloads import QueryGenerator
from repro import telemetry


class TestBitIdentity:
    """Grid (stacked) and cell-by-cell sweeps agree exactly."""

    def test_sweep_spec_mode_matches_serial(self):
        models = {n: build_model(n) for n in MODEL_ORDER}
        serial = SpeedupStudy(models=models, batch_sizes=[1, 64]).run(
            profile_mode="numeric"
        )
        spec = SpeedupStudy(models=models, batch_sizes=[1, 64]).run()
        assert list(serial.profiles) == list(spec.profiles)
        for key, num in serial.profiles.items():
            got = spec.profiles[key]
            assert got.compute_seconds == num.compute_seconds
            assert got.data_comm_seconds == num.data_comm_seconds
            assert got.op_time_by_kind == num.op_time_by_kind
            if num.events is not None:
                assert got.events.as_dict() == num.events.as_dict()

    def test_sweep_rejects_unknown_profile_mode(self):
        with pytest.raises(ValueError):
            SpeedupStudy(
                models={"ncf": build_model("ncf")}, batch_sizes=[1]
            ).run(profile_mode="tensor")

    @pytest.mark.parametrize("kwargs,match", [
        (dict(models={}), "at least one model"),
        (dict(platform_names=[]), "broadwell baseline"),
        (dict(batch_sizes=[]), "at least one batch size"),
        (dict(batch_sizes=[16, 1, 16]), "duplicate batch sizes"),
    ])
    def test_sweep_rejects_bad_grid(self, kwargs, match):
        fields = {"models": {"ncf": build_model("ncf")}, **kwargs}
        with pytest.raises(ValueError, match=match):
            SpeedupStudy(**fields)

    @pytest.mark.parametrize("batch", [0, -3])
    def test_profile_rejects_batch_below_one(self, batch):
        session = InferenceSession(build_model("ncf"), "t4")
        with pytest.raises(ValueError, match="batch size must be >= 1"):
            session.profile(batch)


class TestNoTensorData:
    def test_spec_sweep_materializes_nothing(self):
        clear_graph_cache()
        specmode.clear_spec_caches()
        reset_materialization_count()
        models = {n: build_model(n) for n in MODEL_ORDER}
        specmode.profile_spec_sweep(models, list(PLATFORM_ORDER), [1, 64])
        assert materialization_count() == 0


class TestSpecCaches:
    def test_profile_shares_one_table_across_platforms(self):
        clear_graph_cache()
        specmode.clear_spec_caches()
        model = build_model("rm1")
        for platform in PLATFORM_ORDER:
            InferenceSession(model, platform).profile(16)
        stats = specmode.spec_cache_stats()
        assert (stats["misses"], stats["hits"]) == (1, len(PLATFORM_ORDER) - 1)
        # Every profile still looks its graph up once.
        graphs = graph_cache_stats()
        assert (graphs.misses, graphs.hits) == (1, len(PLATFORM_ORDER) - 1)
        table = specmode.get_workload_table(model, 16)
        assert table.stacked() is table.stacked()

    def test_table_cache_hit_on_equivalent_model(self):
        specmode.clear_spec_caches()
        specmode.get_workload_table(build_model("ncf"), 16)
        before = specmode.spec_cache_stats()
        specmode.get_workload_table(build_model("ncf"), 16)
        after = specmode.spec_cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_repeat_sweep_returns_memoized_profiles(self):
        specmode.clear_spec_caches()
        models = {n: build_model(n) for n in ("ncf", "rm1")}
        first = specmode.profile_spec_sweep(models, ["broadwell"], [1, 64])
        # Fresh-but-equivalent model objects hit the table cache, which
        # keys the sweep memo: identical profile objects come back.
        rebuilt = {n: build_model(n) for n in ("ncf", "rm1")}
        second = specmode.profile_spec_sweep(rebuilt, ["broadwell"], [1, 64])
        assert list(first) == list(second)
        for key in first:
            assert first[key] is second[key]
        assert specmode.spec_cache_stats()["sweep_entries"] == 1

    def test_new_platform_extends_existing_entry(self):
        specmode.clear_spec_caches()
        models = {"ncf": build_model("ncf")}
        specmode.profile_spec_sweep(models, ["broadwell"], [1])
        specmode.profile_spec_sweep(models, ["broadwell", "t4"], [1])
        assert specmode.spec_cache_stats()["sweep_entries"] == 1

    def test_clear_resets(self):
        models = {"ncf": build_model("ncf")}
        specmode.profile_spec_sweep(models, ["broadwell"], [1])
        specmode.clear_spec_caches()
        stats = specmode.spec_cache_stats()
        assert stats["size"] == 0
        assert stats["sweep_entries"] == 0


class TestBufferPlan:
    @pytest.mark.parametrize("name", MODEL_ORDER)
    def test_peak_matches_executor(self, name):
        model = build_model(name)
        graph = model.build_graph(8)
        plan = plan_buffers(graph)
        feeds = QueryGenerator(model, seed=3).generate(8)
        with telemetry.capture() as (_, registry):
            execute(graph, feeds)
        observed = [
            m["value"]
            for m in registry.snapshot()
            if m["name"] == "executor.peak_live_bytes"
        ]
        assert observed, "executor did not record peak_live_bytes"
        assert int(observed[0]) == plan.peak_live_bytes

    @pytest.mark.parametrize("name", MODEL_ORDER)
    def test_reuse_never_exceeds_naive(self, name):
        graph = build_model(name).build_graph(16)
        plan = plan_buffers(graph)
        assert 0 < plan.peak_live_bytes <= plan.naive_bytes
        assert plan.slot_count <= len(graph)
        assert 0.0 <= plan.reuse_fraction < 1.0
        assert len(plan.timeline) == len(graph)
        assert len(plan.assignments) == len(graph)

    def test_slots_are_reused_across_lifetimes(self):
        # A deep FC chain keeps at most two intermediates alive, so the
        # planner must ping-pong between a bounded set of slots instead
        # of opening one per node.
        from repro.graph import GraphBuilder
        from repro.ops import FC

        b = GraphBuilder("deep")
        x = b.input("x", (4, 32))
        h = x
        for i in range(10):
            h = b.apply(FC(32, 32, f"fc{i}"), h)
        b.output(h)
        plan = plan_buffers(b.build())
        assert plan.slot_count <= 2
        assert plan.arena_bytes <= 2 * 4 * 32 * 4

    def test_working_set_stream_footprint(self):
        from repro.graph import working_set_stream

        graph = build_model("rm1").build_graph(8)
        stream = working_set_stream(graph)
        assert stream.footprint_bytes == plan_buffers(graph).peak_live_bytes
        assert not stream.is_write
