"""Golden digests of the analytical cost models' profiles.

Every case below is reduced to a ``repr``-exact list of the profile
fields that reach results (PMU events, per-op cycles and stalls, per-op
seconds, GPU device parts, transfers) and pinned by SHA-256. Any change
to the cost arithmetic, however small, moves a digest; a refactor of
the evaluators must leave every digest where it is.

After an intentional model change, each failing case's assertion
message carries its new digest; paste it into ``GOLDEN``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest

from repro.graph import optimize
from repro.hw import BROADWELL, PLATFORM_ORDER, PLATFORMS
from repro.models import MODEL_ORDER, build_model, dlrm_variant
from repro.gpusim import GpuModel
from repro.runtime import InferenceProfile, InferenceSession, profile_spans
from repro.runtime.graph_cache import get_graph
from repro.uarch import (
    DEFAULT_CONSTANTS,
    CpuModel,
    MulticoreModel,
    NmpSystem,
)

BATCHES = (1, 16, 256, 4096)


def _num(x) -> str:
    return repr(float(x))


def _op_seconds(raw, kind: str):
    """Per-op seconds, read the way trace spans read them."""
    profile = InferenceProfile(
        model_name="", platform_name="", platform_kind=kind, batch_size=1,
        compute_seconds=0.0, data_comm_seconds=0.0, op_time_by_kind={},
        raw=raw,
    )
    return [_num(s.attrs["seconds"]) for s in profile_spans(profile)]


def _events(events):
    return [
        (f.name, _num(getattr(events, f.name)))
        for f in dataclasses.fields(events)
    ]


def _cpu_fields(raw):
    ops = [
        (
            op.node_name,
            op.op_kind,
            _num(op.cycles),
            _num(op.execution_cycles),
            _num(op.memory_stall_cycles),
            _num(op.frontend_stall_cycles),
            _num(op.bad_speculation_cycles),
            _num(op.core_bound_cycles),
            _events(op.events),
        )
        for op in raw.op_profiles
    ]
    return [
        _events(raw.events),
        ops,
        _op_seconds(raw, "cpu"),
        _num(raw.compute_seconds),
        _num(raw.data_load_seconds),
    ]


def _gpu_fields(raw):
    ops = [
        (
            op.node_name,
            op.op_kind,
            op.device.op_kind,
            int(op.device.kernel_count),
            _num(op.device.launch_seconds),
            _num(op.device.compute_seconds),
            _num(op.device.memory_seconds),
        )
        for op in raw.op_profiles
    ]
    transfer = raw.transfer
    return [
        ops,
        _op_seconds(raw, "gpu"),
        (
            int(transfer.num_transfers),
            int(transfer.total_bytes),
            _num(transfer.seconds),
        ),
        _num(raw.sync_seconds),
        _num(raw.compute_seconds),
    ]


def _raw_fields(raw, kind: str):
    return _cpu_fields(raw) if kind == "cpu" else _gpu_fields(raw)


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _input_bytes(model, batch):
    return [d.spec.nbytes for d in model.input_descriptions(batch)]


def _zoo_raw(model_name: str):
    """Unoptimized graphs through the public session API."""
    model = build_model(model_name)
    rows = []
    for platform in PLATFORM_ORDER:
        session = InferenceSession(model, platform)
        for batch in BATCHES:
            profile = session.profile(batch)
            rows.append(
                [
                    platform,
                    batch,
                    _num(profile.compute_seconds),
                    _num(profile.data_comm_seconds),
                    sorted(
                        (k, _num(v)) for k, v in profile.op_time_by_kind.items()
                    ),
                    _raw_fields(profile.raw, profile.platform_kind),
                ]
            )
    return rows


def _zoo_optimized(model_name: str):
    """Optimized graphs through the CPU/GPU models directly."""
    model = build_model(model_name)
    rows = []
    for platform in PLATFORM_ORDER:
        spec = PLATFORMS[platform]
        for batch in BATCHES:
            graph = optimize(get_graph(model, batch))
            tensor_bytes = _input_bytes(model, batch)
            if spec.kind == "cpu":
                raw = CpuModel(spec).profile_graph(
                    graph, input_bytes=sum(tensor_bytes)
                )
            else:
                raw = GpuModel(spec).profile_graph(
                    graph, input_tensor_bytes=tensor_bytes
                )
            rows.append(
                [
                    platform,
                    batch,
                    sorted((k, _num(v)) for k, v in raw.time_by_kind().items()),
                    _raw_fields(raw, spec.kind),
                ]
            )
    return rows


def _nmp():
    system = NmpSystem(BROADWELL)
    rows = []
    for name in ("rm1", "rm2", "wnd"):
        graph = get_graph(build_model(name), 256)
        rows.append(
            [
                name,
                _cpu_fields(system.profile_graph(graph, input_bytes=4096)),
                _num(system.speedup(graph)),
            ]
        )
    return rows


def _multicore():
    graph = get_graph(build_model("rm2"), 256)
    return [
        (p.cores, _num(p.throughput), _num(p.efficiency), p.bandwidth_saturated)
        for p in MulticoreModel(BROADWELL).scaling_curve(graph)
    ]


def _constants():
    constants = dataclasses.replace(
        DEFAULT_CONSTANTS,
        gather_mlp_base=1.3,
        prefetch_coverage=0.6,
        dram_congestion_threshold=0.4,
        icache_miss_penalty=20.0,
        cpu_dispatch_us=2.5,
    )
    rows = []
    for name in ("rm2", "din", "wnd"):
        model = build_model(name)
        for platform in ("broadwell", "cascade_lake"):
            session = InferenceSession(model, platform, constants=constants)
            for batch in (16, 1024):
                rows.append(
                    [name, platform, batch,
                     _cpu_fields(session.profile(batch).raw)]
                )
    return rows


def _variants():
    rows = []
    for seed in (3, 11, 2020):
        rng = random.Random(seed)
        base = build_model(rng.choice(("rm1", "rm2", "rm3")))
        dim = rng.choice((16, 32, 64))
        model = dlrm_variant(
            base,
            f"g{seed}",
            num_tables=rng.choice((4, 12, 24, 40)),
            lookups_per_table=rng.choice((4, 20, 80, 120)),
            embedding_dim=dim,
            bottom_mlp=base.config.bottom_mlp[:-1] + (dim,),
        )
        for platform in PLATFORM_ORDER:
            session = InferenceSession(model, platform)
            for batch in (8, 512):
                profile = session.profile(batch)
                rows.append(
                    [model.name, platform, batch,
                     _raw_fields(profile.raw, profile.platform_kind)]
                )
    return rows


CASES = {
    **{f"raw:{m}": (lambda m=m: _zoo_raw(m)) for m in MODEL_ORDER},
    **{f"optimized:{m}": (lambda m=m: _zoo_optimized(m)) for m in MODEL_ORDER},
    "nmp": _nmp,
    "multicore": _multicore,
    "constants": _constants,
    "variants": _variants,
}

GOLDEN = {
    "raw:ncf": "18063d310a7c24bf7abbaf976c703ad7045c2b74b3e92bb5258ffadbe66a3264",
    "raw:rm1": "75a2047bce49a6d5dfe98b9a1b13884960e2a9f38566a6102eb0d481107c4934",
    "raw:rm2": "559c360cf7200963714c891067cfb3f8ac9277fc816ffe7fd7a13a665b47ccd4",
    "raw:rm3": "44b73f8ca55e8c27fcf390fb46e6539fae16a799e57f6bc7699fec5e40fd9734",
    "raw:wnd": "5024fd2d9b6ff44d7b6e93be0cc4eda3546565f8963a98586f24830072461a3c",
    "raw:mtwnd": "9eefb03433b4b2e74661e8c2b091189231a1456c58be5f2481355bf4e7c7459d",
    "raw:din": "8fbdb1d150d9ba51ab3e4e0c757b1927d5d7c26b73e89e4a02abcd6517357ddc",
    "raw:dien": "8b9ae1ac0dc0a82fd78aeafd6dc174ec13e7203d40e7b851c6cc1460560048e0",
    "optimized:ncf": "515b2bd34f64f0ec3d589f4601b0a85f208ae019e164fbc79d0e5ec559f46dfd",
    "optimized:rm1": "6b9f1e7e7486e4e2e1472a5bfa7dd45df7ddb84a27ed3addfe7b62e178f323c9",
    "optimized:rm2": "1be0dbbdd93fbf7d39099ff1c387085f3c4bfcefdbb04d461025c7f3beb8d554",
    "optimized:rm3": "3cb58ccbf3e9880fb24289f920ef52c6f1cb6a6df336a83e722ceadc10cdd15e",
    "optimized:wnd": "de5eebee078ae130e3cd083c0c6c4af4220ca83d5b04de0fe54cc3e2e732542c",
    "optimized:mtwnd": "ebbad40cf9ab18cd908cd09db8085af844f1d5b55b3ab73f26f1c2661de10e8a",
    "optimized:din": "c1f0b4e109a57fc58ad8a765b903170e4c6257a121f206a86576788350c2baff",
    "optimized:dien": "cc68acf0a39370e2a7addb685bd7c25783b69fdbb0265e3ec8f8d5384a6bc07b",
    "nmp": "9d51823835293d97559eed217527c3d2afabfce19e6e642a3e36d4a9fc3c13fc",
    "multicore": "cfa3e579ade990a2c84395be38b72e8afcaa09508f278968cf2eb263db875e20",
    "constants": "829e6dc35578c4cc4ea2fe511363c2c3c3808ed719abc0069af83a7e25f99bcf",
    "variants": "5b22f442711b7cdf6fc6e706f71b2a9dd428cac2ca2adfc63745bafd2719b7dc",
}


@pytest.mark.parametrize("case", list(CASES))
def test_profile_golden(case):
    digest = _digest(CASES[case]())
    assert digest == GOLDEN[case], f"{case}: {digest}"
