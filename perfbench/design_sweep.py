"""design_sweep: cold profiling of seeded DLRM variants plus the zoo.

Every model is profiled on 4 platforms x the 8 paper batch sizes in
numeric mode, then in spec mode, each from empty graph and spec caches.
TopDown reports run on both CPUs at batch 16 and the paper-claim
ledger runs on the zoo. No cell repeats, so graph build, ``uarch``,
``gpusim`` and ``runtime.specmode`` do almost all the work.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Dict, List

from checks import Checks, PassResult, digest

from repro import InferenceSession, SpeedupStudy, build_all_models, collect_report
from repro.core import PAPER_CLAIMS, evaluate_claims
from repro.hw import PLATFORMS, cpu_platforms
from repro.models import build_model, dlrm_variant
from repro.ops import materialization_count
from repro.runtime import clear_graph_cache, get_graph, graph_cache_stats, specmode
from repro.workloads import paper_batch_sizes

#: Each variant factor cycles through its levels, so every seed uses
#: each level the same number of times; the seed only decides which
#: levels meet in one model. That keeps the total work of a pass nearly
#: the same for every seed while the models differ.
VARIANTS = 8
BASES = ("rm1", "rm2", "rm3")
TABLES = (4, 12, 24, 40)
LOOKUPS = (4, 20, 80, 120)
EMBEDDING_DIMS = (16, 32, 64)
FC_SCALES = (0.5, 1.0, 2.0)
REPORT_BATCH = 16
#: The spec sweep is a fifth of the numeric one; timing it twice, each
#: time from empty caches, gives it a run-to-run spread like the rest.
SPEC_REPEATS = 2


def _column(rng: random.Random, levels, n: int) -> list:
    column = [levels[i % len(levels)] for i in range(n)]
    rng.shuffle(column)
    return column


def make_variants(seed: int) -> Dict[str, object]:
    rng = random.Random(seed)
    bases = _column(rng, BASES, VARIANTS)
    tables = _column(rng, TABLES, VARIANTS)
    lookups = _column(rng, LOOKUPS, VARIANTS)
    dims = _column(rng, EMBEDDING_DIMS, VARIANTS)
    scales = _column(rng, FC_SCALES, VARIANTS)
    variants = {}
    for i in range(VARIANTS):
        base = build_model(bases[i])
        cfg = base.config
        bottom = tuple(max(8, int(w * scales[i])) for w in cfg.bottom_mlp[:-1])
        top = tuple(max(8, int(w * scales[i])) for w in cfg.top_mlp[:-1])
        model = dlrm_variant(
            base, f"v{i:02d}",
            num_tables=tables[i],
            lookups_per_table=lookups[i],
            embedding_dim=dims[i],
            bottom_mlp=bottom + (dims[i],),
            top_mlp=top + (cfg.top_mlp[-1],),
        )
        variants[model.name] = model
    return variants


class State:
    def __init__(self, seed: int) -> None:
        self.models = dict(build_all_models())
        self.models.update(make_variants(seed))
        self.platforms = list(PLATFORMS)
        self.cpus = list(cpu_platforms())
        self.batches = paper_batch_sizes()
        self.cells = len(self.models) * len(self.platforms) * len(self.batches)


def setup(seed: int) -> State:
    return State(seed)


def _cold() -> int:
    """Empty the graph and spec caches; returns graphs built since the
    previous call."""
    built = graph_cache_stats().misses
    clear_graph_cache()
    specmode.clear_spec_caches()
    return built


def _build_graphs(state: State, rec) -> None:
    for model in state.models.values():
        for batch in state.batches:
            with rec.span("graph.build", metric="graph.build_ms",
                          model=model.name, batch=batch):
                get_graph(model, batch)


def _numeric(state: State, rec) -> Dict:
    if not rec.enabled:
        return _study(state).run(workers=1, profile_mode="numeric").profiles
    # Traced: the same cells, one InferenceSession.profile call at a
    # time, with each graph built (and timed) before its first use.
    profiles = {}
    with rec.span("core.sweep_numeric"):
        _build_graphs(state, rec)
        for name, model in state.models.items():
            for platform in state.platforms:
                session = InferenceSession(model, platform)
                layer = "uarch" if PLATFORMS[platform].kind == "cpu" else "gpusim"
                for batch in state.batches:
                    with rec.span(f"{layer}.cell", metric=f"{layer}.cell_us",
                                  model=name, platform=platform, batch=batch):
                        profiles[(name, platform, batch)] = session.profile(batch)
    return profiles


def _study(state: State) -> SpeedupStudy:
    return SpeedupStudy(models=state.models, platform_names=state.platforms,
                        batch_sizes=state.batches)


def _spec(state: State, rec) -> Dict:
    if not rec.enabled:
        return _study(state).run(profile_mode="spec").profiles
    with rec.span("core.sweep_spec"):
        _build_graphs(state, rec)
        with rec.span("specmode.cold", metric="specmode.cold_cell_us",
                      per=state.cells):
            profiles = _study(state).run(profile_mode="spec").profiles
    rec.count("specmode.table_misses", specmode.spec_cache_stats()["misses"])
    return profiles


def _memo_hit(state: State, rec) -> None:
    """Repeat the sweep the cold pass just evaluated: every table and the
    evaluation come from the spec caches. Timed on its own, never as part
    of an end-to-end arm."""
    hits = specmode.spec_cache_stats()["hits"]
    with rec.span("specmode.memo_hit", metric="specmode.memo_hit_cell_us",
                  per=state.cells):
        _study(state).run(profile_mode="spec")
    rec.count("specmode.memo_hits", specmode.spec_cache_stats()["hits"] - hits)


def _reports(state: State, rec) -> List:
    reports = []
    for cpu in state.cpus:
        for name, model in state.models.items():
            with rec.span("core.report", metric="core.report_ms",
                          model=name, platform=cpu):
                reports.append(collect_report(model, cpu, REPORT_BATCH))
    return reports


def _key(profile) -> tuple:
    return (profile.compute_seconds, profile.data_comm_seconds,
            profile.op_time_by_kind)


def run_pass(state: State, rec) -> PassResult:
    checks = Checks()
    materialized = materialization_count()
    graphs = 0

    _cold()
    t0 = time.perf_counter()
    numeric = _numeric(state, rec)
    t_numeric = time.perf_counter() - t0
    graphs += _cold()

    t_spec = 0.0
    for repeat in range(SPEC_REPEATS):
        t0 = time.perf_counter()
        spec = _spec(state, rec)
        t_spec += time.perf_counter() - t0
        if rec.enabled and repeat == 0:
            _memo_hit(state, rec)
        graphs += _cold()

    t0 = time.perf_counter()
    reports = _reports(state, rec)
    t_reports = time.perf_counter() - t0
    graphs += _cold()

    t0 = time.perf_counter()
    with rec.span("core.claims", metric="core.claims_s"):
        claims = evaluate_claims()
    t_claims = time.perf_counter() - t0
    graphs += _cold()
    rec.count("graph.graphs_built", graphs)

    checks.check(len(numeric) == state.cells, "numeric sweep missed cells")
    for cell in sorted(numeric):
        checks.check(cell in spec and _key(numeric[cell]) == _key(spec[cell]),
                     f"numeric != spec profile at {cell}")
    checks.check(materialization_count() == materialized,
                 "profiling materialized parameter arrays")
    held = sum(1 for c in claims if c.passed)
    checks.check(len(claims) == len(PAPER_CLAIMS) and held == len(claims),
                 f"claims held {held}/{len(PAPER_CLAIMS)}")
    rec.count("core.claims_held", held)

    out = digest([
        [[list(cell), _key(numeric[cell])] for cell in sorted(numeric)],
        [[r.model, r.platform, dataclasses.asdict(r.events),
          dataclasses.asdict(r.topdown)]
         for r in reports],
        [[c.claim.claim_id, c.passed, c.measured] for c in claims],
    ])
    return PassResult(
        primary=state.cells / t_numeric,
        secondary=state.cells * SPEC_REPEATS / t_spec,
        wall_s=t_numeric + t_spec + t_reports + t_claims,
        checks=checks,
        digest=out,
    )
