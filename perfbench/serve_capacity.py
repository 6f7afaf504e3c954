"""serve_capacity: DeepRecSys-style capacity planning on the plain scheduler.

For each of the 8 zoo models x 4 platforms: calibrate a
``ServiceTimeModel`` from cold profiles, then search the highest arrival
rate whose p99 meets the SLA with ``QueryScheduler.max_load_under_sla``
(no faults, no sinks). This is the plain batching loop, which
``serve_explain`` bypasses.
"""

from __future__ import annotations

import random
import time
from typing import List, Tuple

from checks import Checks, PassResult, digest

from repro import build_all_models
from repro.hw import PLATFORMS
from repro.runtime import (
    BatchingPolicy,
    InferenceSession,
    QueryScheduler,
    ServiceTimeModel,
    clear_graph_cache,
    get_graph,
    graph_cache_stats,
)

MAX_BATCH = 64
QUERIES = 2000
PERCENTILE = 99.0
#: Arrival-rate grid as fractions of the server's best-case capacity
#: (the default grid of ``max_load_under_sla``, passed explicitly so
#: the check can replay it).
GRID = (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95)
KNOTS = (1, MAX_BATCH // 4, MAX_BATCH, 2 * MAX_BATCH)


class State:
    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.policy = BatchingPolicy(max_batch=MAX_BATCH)
        # One arrival-process seed per (model, platform) search.
        self.cases: List[Tuple[str, object, str, int]] = [
            (name, model, platform, rng.randrange(2**31))
            for name, model in build_all_models().items()
            for platform in PLATFORMS
        ]


def setup(seed: int) -> State:
    return State(seed)


def _calibrate(model, platform: str, rec, build: bool) -> ServiceTimeModel:
    """``build``: the model's graphs are not cached yet (its first
    platform), so a traced pass times their builds on their own."""
    with rec.span("scheduler.calibration", metric="scheduler.calibration_ms",
                  model=model.name, platform=platform):
        session = InferenceSession(model, platform)
        if rec.enabled:
            layer = "uarch" if PLATFORMS[platform].kind == "cpu" else "gpusim"
            for batch in KNOTS if build else ():
                with rec.span("graph.build", metric="graph.build_ms"):
                    get_graph(model, batch)
            profiles = []
            for batch in KNOTS:
                with rec.span(f"{layer}.cell", metric=f"{layer}.cell_us"):
                    profiles.append(session.profile(batch))
        else:
            profiles = [session.profile(b) for b in KNOTS]
        return ServiceTimeModel.from_profiles(profiles)


def _sla(stm: ServiceTimeModel) -> float:
    """The batching timeout plus one full batch's service time."""
    return BatchingPolicy().batch_timeout_s + stm.seconds(MAX_BATCH)


def run_pass(state: State, rec) -> PassResult:
    checks = Checks()
    clear_graph_cache()
    t_calibrate = t_search = 0.0
    searches = []
    for name, model, platform, seed in state.cases:
        first = not searches or searches[-1][0] != name
        t0 = time.perf_counter()
        stm = _calibrate(model, platform, rec, build=first)
        t1 = time.perf_counter()
        peak = MAX_BATCH / stm.seconds(MAX_BATCH)
        grid = [peak * f for f in GRID]
        sla = _sla(stm)
        with rec.span("scheduler.run", metric="scheduler.run_ms",
                      model=name, platform=platform):
            capacity = QueryScheduler(stm, state.policy, seed=seed).max_load_under_sla(
                sla, PERCENTILE, num_queries=QUERIES, qps_grid=grid)
        t2 = time.perf_counter()
        t_calibrate += t1 - t0
        t_search += t2 - t1
        rec.sample("scheduler.plain_query_us",
                   (t2 - t1) / (QUERIES * len(grid)) * 1e6)
        searches.append((name, platform, seed, stm, grid, sla, capacity))
    rec.count("graph.graphs_built", graph_cache_stats().misses)

    # Replay each search run by run on a scheduler with the same seed:
    # the capacity must be the highest grid rate whose run meets the SLA.
    batches = 0
    outputs = []
    for name, platform, seed, stm, grid, sla, capacity in searches:
        twin = QueryScheduler(stm, state.policy, seed=seed)
        results = [twin.run(qps, QUERIES) for qps in grid]
        met = [qps for qps, r in zip(grid, results) if r.meets_sla(sla, PERCENTILE)]
        checks.check(bool(met) and capacity == max(met),
                     f"{name}/{platform}: capacity {capacity} is not the highest "
                     "grid rate meeting the SLA")
        batches += sum(len(r.batch_sizes) for r in results)
        outputs.append([name, platform, capacity, sla,
                        [[r.p99, len(r.batch_sizes)] for r in results]])
    rec.count("scheduler.batches", batches)

    queries = QUERIES * len(GRID) * len(state.cases)
    return PassResult(
        primary=queries / (t_calibrate + t_search),
        secondary=queries / t_search,
        wall_s=t_calibrate + t_search,
        checks=checks,
        digest=digest(outputs),
    )
