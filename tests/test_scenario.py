"""Tests for the serving ``Scenario`` and the input boundaries around it.

``Scenario`` validates a serving operating point once, at
construction; the schedulers share one run-argument check; the CLI
rejects non-positive counts at argparse and maps the remaining user
errors to a one-line exit 2.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.cli import build_parser, main
from repro.monitor import run_monitored_scenario
from repro.monitor.scenario import Scenario
from repro.resilience import Replica, ResiliencePolicy, ResilientScheduler
from repro.runtime import BatchingPolicy, InferenceSession, ServiceTimeModel
from repro.models import build_model


@pytest.fixture(scope="module")
def mixed():
    return Scenario("rm1", "t4", "mixed", fallback="gtx1080ti", queries=300,
                    seed=7)


class TestValidation:
    @pytest.mark.parametrize("kwargs,match", [
        (dict(model="bert"), "unknown model"),
        (dict(platform="tpu"), "unknown platform"),
        (dict(fallback="tpu"), "unknown platform"),
        (dict(scenario="meteor"), "unknown scenario"),
    ])
    def test_unknown_names(self, kwargs, match):
        fields = {"model": "rm1", "platform": "t4", **kwargs}
        with pytest.raises(KeyError, match=match):
            Scenario(**fields)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(batch_size=0), "batch_size"),
        (dict(queries=2.5), "queries"),
        (dict(queries=True), "queries"),
        (dict(qps=-1.0), "qps"),
        (dict(qps=float("nan")), "qps"),
        (dict(deadline_s=0.0), "deadline_s"),
        (dict(window_s=float("inf")), "window_s"),
        (dict(sharding="diagonal"), "sharding"),
        (dict(overrides={"shards": 0}), "shards"),
    ])
    def test_bad_values(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            Scenario("rm2", "broadwell", **kwargs)

    def test_fallback_none_means_no_standby(self):
        sc = Scenario("rm1", "t4", fallback="None")
        assert sc.fallback is None
        assert sc.platforms == ["t4"]
        policy = sc.policies()
        assert policy.hedge is None and policy.breaker is None

    def test_shard_setup_parsed_once(self):
        sc = Scenario("rm2", "broadwell", "shard_slowdown",
                      overrides={"shards": 2, "sharding": "table"})
        assert sc.is_shard
        assert (sc.shards, sc.sharding) == (2, "table")
        assert sc.layout().num_shards == 2
        assert not Scenario("rm2", "broadwell", "slowdown").is_shard


class TestAssembly:
    def test_calibration_recipe(self):
        session = InferenceSession(build_model("rm2"), "broadwell")
        stm = ServiceTimeModel.calibrate(session, 64)
        direct = ServiceTimeModel.from_profiles(
            [session.profile(b) for b in (1, 16, 64, 128)]
        )
        for batch in (1, 7, 16, 40, 64, 100, 128):
            assert stm.seconds(batch) == direct.seconds(batch)

    def test_policy_set_follows_the_fleet(self, mixed):
        full = mixed.policies()
        assert None not in (full.retry, full.hedge, full.breaker,
                            full.shed, full.degrade)
        assert mixed.deadline == full.shed.deadline_s
        # Non-DLRM models have no degraded variant to fall back to.
        assert Scenario("wnd", "t4").policies().degrade is None
        fleet = mixed.fleet(ResiliencePolicy(retry=full.retry))
        assert [r.name for r in fleet] == ["t4", "gtx1080ti"]
        assert fleet[0].degraded_model is None
        assert mixed.fleet(full)[0].degraded_model is mixed.degraded_model

    def test_run_matches_public_constructors(self, mixed):
        """The Scenario run is the resilient engine, nothing more."""
        full = mixed.policies()
        ms = mixed.run()
        by_hand = ResilientScheduler(
            mixed.fleet(full), BatchingPolicy(max_batch=64),
            resilience=full, fault_plan=mixed.fault_plan(), seed=7,
        ).run(mixed.arrival_qps, 300)
        assert np.array_equal(ms.result.latencies_s, by_hand.latencies_s)
        assert ms.result.fault_counts == by_hand.fault_counts
        assert ms.fault_windows()

    def test_sinks_are_observational(self, mixed):
        bare = mixed.run()
        observed = mixed.run(timeseries=mixed.timeseries(), spans=True)
        assert np.array_equal(bare.result.latencies_s,
                              observed.result.latencies_s)
        assert observed.tracer.sorted_spans()
        assert not telemetry.enabled()

    def test_healthy_run_has_no_faults(self, mixed):
        ms = mixed.run(ResiliencePolicy.none(), faults=False)
        assert ms.fault_windows() == []
        assert ms.result.replica_batches.keys() == {"t4"}

    def test_matches_run_monitored_scenario(self):
        sc = Scenario("rm2", "broadwell", "shard_slowdown", queries=300)
        ms = sc.run(timeseries=sc.timeseries())
        legacy = run_monitored_scenario(
            "rm2", "broadwell", "shard_slowdown", queries=300
        )
        assert np.array_equal(ms.result.latencies_s,
                              legacy.result.latencies_s)
        assert ms.fault_windows() == legacy.fault_windows()

    def test_record_carries_the_load(self, mixed):
        ms = mixed.run()
        record = ms.record("resilience")
        assert record.scalars["arrival_qps"] == mixed.arrival_qps
        assert record.fingerprint.model == "rm1"
        assert record.kind == "resilience"


class TestRunBoundary:
    @pytest.fixture(scope="class")
    def stm(self):
        return ServiceTimeModel.calibrate(
            InferenceSession(build_model("rm1"), "t4"), 64
        )

    def test_resilient_rejects_fractional_queries(self, stm):
        scheduler = ResilientScheduler([Replica("t4", stm)], BatchingPolicy())
        with pytest.raises(ValueError, match="integer"):
            scheduler.run(100, 2.5)

    def test_infinite_batch_timeout_rejected(self, stm):
        with pytest.raises(ValueError, match="finite"):
            BatchingPolicy(batch_timeout_s=float("inf"))
        # A policy that slipped past __post_init__ is re-checked by run.
        policy = BatchingPolicy()
        object.__setattr__(policy, "batch_timeout_s", float("inf"))
        scheduler = ResilientScheduler([Replica("t4", stm)], policy)
        with pytest.raises(ValueError, match="finite"):
            scheduler.run(100, 10)


_AT_LEAST_ONE = "must be >= 1"

_USAGE_ERRORS = [
    pytest.param([command, flag, "0"], _AT_LEAST_ONE, id=f"{flag}-{command}")
    for flag in ("--queries", "--batch-size")
    for command in ("resilience", "monitor", "explain", "shard")
] + [
    pytest.param(["characterize", "rm1", "--batch", "0"], _AT_LEAST_ONE,
                 id="--batch-characterize"),
    pytest.param(["topdown", "--batch", "0"], _AT_LEAST_ONE,
                 id="--batch-topdown"),
    pytest.param(["breakdown", "rm1", "--batch", "-1"], _AT_LEAST_ONE,
                 id="--batch-breakdown"),
    pytest.param(["sweep", "--models", "ncf", "--batches", "0"],
                 _AT_LEAST_ONE, id="--batches-sweep"),
    pytest.param(["optimal", "--batches", "16", "0"], _AT_LEAST_ONE,
                 id="--batches-optimal"),
    pytest.param(["verify", "--batches", "0"], _AT_LEAST_ONE,
                 id="--batches-verify"),
    pytest.param(["sweep", "--batches"], "expected at least one argument",
                 id="--batches-empty-sweep"),
    pytest.param(["optimal", "--batches"], "expected at least one argument",
                 id="--batches-empty-optimal"),
]


class TestCliUserErrors:
    @pytest.mark.parametrize("argv,message", _USAGE_ERRORS)
    def test_non_positive_counts_are_usage_errors(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and message in err

    def test_zero_queries_still_disables_characterization_runs(self):
        for command in ("trace", "metrics", "record"):
            assert build_parser().parse_args([command, "--queries", "0"]
                                             ).queries == 0

    def test_unknown_model_is_one_line(self, user_error):
        assert user_error(["monitor", "--model", "bert"]).startswith(
            "error: unknown model"
        )

    def test_bad_value_is_one_line(self, user_error):
        assert user_error(["explain", "--qps", "-5"]).startswith(
            "error: qps must be"
        )

    def test_duplicate_batches_is_one_line(self, user_error):
        assert user_error(
            ["sweep", "--models", "ncf", "--batches", "16", "16"]
        ).startswith("error: duplicate batch sizes")


class TestScenarioNames:
    def test_name_table_matches_the_scenario_table(self):
        """The CLI's numpy-free name lists are the SCENARIOS table's keys,
        in table order, split the way the serving commands split them."""
        from repro.monitor.names import (
            REPLICA_SCENARIO_NAMES,
            SCENARIO_NAMES,
            SHARD_SCENARIO_NAMES,
        )
        from repro.monitor.scenario import (
            SCENARIOS,
            replica_scenario_names,
            shard_scenario_names,
        )

        assert SCENARIO_NAMES == tuple(SCENARIOS)
        assert REPLICA_SCENARIO_NAMES == replica_scenario_names()
        assert SHARD_SCENARIO_NAMES == shard_scenario_names()
