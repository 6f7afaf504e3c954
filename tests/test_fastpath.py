"""Tests for the profiling fast path.

Covers lazy parameter materialization, the process-level shared graph
cache and the one-process sweep, plus the stable seeding that replaces
salted ``hash()``:

* ``seed_for`` / ``rng_for`` are content digests, cross-checked against
  pinned values (they must survive interpreter restarts and any
  ``PYTHONHASHSEED``);
* ``profile()`` materializes zero parameter arrays;
* lazy ``run()`` is bit-identical to eager construction for every zoo
  model;
* sweeps run in one process and refuse ``workers > 1``.
"""

import numpy as np
import pytest

from repro.core import SpeedupStudy
from repro.models import MODEL_FACTORIES, MODEL_ORDER, build_model
from repro.models.ncf import NCF
from repro.ops import (
    FC,
    LazyParam,
    eager_params,
    materialization_count,
    reset_materialization_count,
)
from repro.ops.initializers import rng_for, seed_for
from repro.runtime import (
    InferenceSession,
    bypass_graph_cache,
    clear_graph_cache,
    graph_cache_stats,
)
from repro.runtime.scheduler import ServiceTimeModel
from repro.telemetry.histogram import StreamingHistogram
from repro.workloads import QueryGenerator


class TestStableSeeding:
    """seed_for/rng_for must be process-stable content digests."""

    # Pinned digests: regenerating these from a different interpreter
    # (or a different PYTHONHASHSEED) must give identical values.
    PINNED = {
        ("embedding", 0, 1_000_000, 64): 15855867408537143983,
        ("fc", 512, 256): 6397750586504459111,
        (): 16476032584258269876,
    }

    def test_pinned_digests(self):
        for key, expected in self.PINNED.items():
            assert seed_for(*key) == expected

    def test_pinned_draws(self):
        draws = rng_for("golden", "check").standard_normal(3)
        np.testing.assert_allclose(
            draws,
            [0.8890005886017494, 0.009267219764785993, -0.45565763724315794],
            rtol=0,
            atol=0,
        )

    def test_distinct_keys_distinct_seeds(self):
        assert seed_for("a", 1) != seed_for("a", 2)
        assert seed_for("a", 1) != seed_for("a", "1x")

    def test_repeatable(self):
        assert seed_for("m", "fc", 0) == seed_for("m", "fc", 0)
        a = rng_for("m", "fc", 0).standard_normal(4)
        b = rng_for("m", "fc", 0).standard_normal(4)
        np.testing.assert_array_equal(a, b)


class TestLazyParams:
    def test_lazy_until_first_access(self):
        p = LazyParam((4, 3), "xavier_uniform", ("t", 3, 4))
        assert not p.is_materialized
        before = materialization_count()
        value = p.materialize()
        assert p.is_materialized
        assert materialization_count() == before + 1
        assert value.shape == (4, 3)
        # Second access returns the cached array without re-counting.
        assert p.materialize() is value
        assert materialization_count() == before + 1

    def test_spec_and_nbytes_do_not_materialize(self):
        p = LazyParam((128, 64), "scaled_normal", ("t", 128, 64))
        assert p.nbytes == 128 * 64 * 4
        assert p.spec.shape == (128, 64)
        assert not p.is_materialized

    def test_adopted_array_is_the_array(self):
        arr = np.ones((2, 5), dtype=np.float32)
        p = LazyParam.from_array(arr)
        assert p.materialize() is arr

    def test_unknown_init_rejected(self):
        with pytest.raises(ValueError):
            LazyParam((2, 2), "nonsense", ("k",))

    def test_profile_materializes_nothing(self):
        models = {name: build_model(name) for name in MODEL_ORDER}
        clear_graph_cache()
        reset_materialization_count()
        SpeedupStudy(models=models, batch_sizes=[1, 64]).run(
            profile_mode="numeric"
        )
        assert materialization_count() == 0

    def test_parameter_bytes_spec_based(self):
        fc = FC(64, 32, seed_key="t/fc")
        before = materialization_count()
        assert fc.parameter_bytes == (32 * 64 + 32) * 4
        assert materialization_count() == before

    @pytest.mark.parametrize("name", MODEL_ORDER)
    def test_lazy_run_matches_eager(self, name):
        feeds = QueryGenerator(build_model(name), seed=7).generate(4)
        lazy_out = InferenceSession(build_model(name), "broadwell").run(feeds)
        with eager_params(), bypass_graph_cache():
            eager_out = InferenceSession(build_model(name), "broadwell").run(feeds)
        assert lazy_out.keys() == eager_out.keys()
        for key in lazy_out:
            np.testing.assert_array_equal(lazy_out[key], eager_out[key])


class TestGraphCache:
    def test_sessions_share_one_graph(self):
        model = build_model("rm1")
        clear_graph_cache()
        cpu = InferenceSession(model, "broadwell")
        gpu = InferenceSession(model, "t4")
        assert cpu.graph(16) is gpu.graph(16)
        stats = graph_cache_stats()
        assert stats.misses == 1
        assert stats.hits >= 1

    def test_equivalent_models_share(self):
        clear_graph_cache()
        g1 = InferenceSession(build_model("ncf"), "broadwell").graph(8)
        g2 = InferenceSession(build_model("ncf"), "cascade_lake").graph(8)
        assert g1 is g2

    def test_same_name_different_config_do_not_alias(self):
        clear_graph_cache()
        default = InferenceSession(NCF(), "broadwell").graph(8)
        narrow = InferenceSession(NCF(mf_dim=32), "broadwell").graph(8)
        assert default is not narrow

    def test_bypass_builds_fresh(self):
        model = build_model("wnd")
        session = InferenceSession(model, "broadwell")
        cached = session.graph(4)
        with bypass_graph_cache():
            assert session.graph(4) is not cached
        assert session.graph(4) is cached


class TestSweep:
    def test_workers_above_one_rejected(self):
        study = SpeedupStudy(models={"ncf": build_model("ncf")}, batch_sizes=[1])
        with pytest.raises(ValueError, match="one process"):
            study.run(workers=2)

    def test_zoo_factories_rebuild_identical_signatures(self):
        # Ledger fingerprints identify a model by its structural
        # signature; every factory must rebuild to an identical one.
        for name, factory in MODEL_FACTORIES.items():
            assert factory().graph_signature() == factory().graph_signature(), name


class TestObserveMany:
    def test_matches_looped_observe(self):
        rng = np.random.default_rng(11)
        values = rng.exponential(0.01, size=500)
        looped = StreamingHistogram(exact_cap=0)
        batched = StreamingHistogram(exact_cap=0)
        for v in values:
            looped.observe(float(v))
        batched.observe_many(values)
        assert batched.count == looped.count
        assert batched.total == pytest.approx(looped.total)
        assert batched._counts == looped._counts
        for q in (50, 95, 99):
            assert batched.quantile(q) == pytest.approx(looped.quantile(q))

    def test_exact_mode_preserved(self):
        hist = StreamingHistogram(exact_cap=100)
        hist.observe_many([0.001, 0.002, 0.003])
        assert hist.is_exact
        assert hist.quantile(50) == pytest.approx(0.002)
        hist.observe_many(np.full(200, 0.004))
        assert not hist.is_exact

    def test_empty_is_noop(self):
        hist = StreamingHistogram()
        hist.observe_many([])
        assert hist.count == 0

    def test_rejects_bad_values(self):
        hist = StreamingHistogram()
        with pytest.raises(ValueError):
            hist.observe_many([0.1, -0.2])
        with pytest.raises(ValueError):
            hist.observe_many([0.1, float("nan")])


class TestServiceTimeKnots:
    def test_precomputed_log_interpolation(self):
        import math

        sweep = SpeedupStudy(
            models={"ncf": build_model("ncf")}, batch_sizes=[1, 16, 256]
        ).run()
        model = ServiceTimeModel(sweep, "ncf", "broadwell")
        t1 = sweep.total_seconds("ncf", "broadwell", 1)
        t16 = sweep.total_seconds("ncf", "broadwell", 16)
        # Knot hits are exact; interior points interpolate in log-batch.
        assert model.seconds(16) == pytest.approx(t16)
        frac = (math.log(4) - math.log(1)) / (math.log(16) - math.log(1))
        assert model.seconds(4) == pytest.approx(t1 * (1 - frac) + t16 * frac)
