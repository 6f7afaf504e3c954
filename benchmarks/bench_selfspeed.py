"""Self-speed benchmark: wall-clock of the repo's own hot path.

Measures the full (model x platform x batch) sweep four ways —

* ``eager_serial``   — eager parameter materialization, no shared graph
  cache, cell by cell: the pre-fast-path behavior.
* ``lazy_serial``    — lazy parameters + process-level graph cache, cell
  by cell (``profile_mode="numeric"``, the reference).
* ``spec_cold``      — the default stacked grid from empty caches:
  builds workload tables from verifier-inferred specs, never
  allocating tensor data.
* ``spec_memo_hit``  — the same sweep again: a sweep-memo hit that
  returns the memoized profiles, not a faster evaluation.

and writes the results (plus derived speedups) to ``BENCH_sweep.json``
at the repo root, seeding the performance trajectory across PRs.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_selfspeed.py [--smoke]

with ``--check`` to enforce the regression gates (no tensor is
materialized by the grid, and the memo hit is at least 5x over the
lazy serial sweep), or as a pytest bench target (smoke mode)::

    PYTHONPATH=src python -m pytest benchmarks/bench_selfspeed.py -q
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time
from typing import Dict, List, Optional

from repro.core import SpeedupStudy
from repro.models import build_model
from repro.ops import eager_params, materialization_count
from repro.runtime import bypass_graph_cache, clear_graph_cache
from repro.runtime import specmode

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_sweep.json"

SMOKE_MODELS = ["rm1", "dien"]
SMOKE_BATCHES = [1, 64]

#: ``--check`` gate: the memo hit must beat the lazy serial sweep by 5x
#: on any grid (the committed full-grid number is far higher; 5x keeps
#: the gate robust to timer noise on loaded CI hosts).
SPEC_MIN_SPEEDUP = 5.0


def _study(model_names: List[str], batches: List[int]) -> SpeedupStudy:
    models = {name: build_model(name) for name in model_names}
    return SpeedupStudy(models=models, batch_sizes=batches)


def _time_arm(fn, *, cold: bool = True) -> float:
    if cold:
        clear_graph_cache()
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_bench(
    smoke: bool = False,
    output: Optional[pathlib.Path] = DEFAULT_OUTPUT,
) -> Dict:
    from repro.models import MODEL_ORDER
    from repro.workloads import paper_batch_sizes

    model_names = SMOKE_MODELS if smoke else list(MODEL_ORDER)
    batches = SMOKE_BATCHES if smoke else paper_batch_sizes()

    arms: Dict[str, float] = {}

    def eager_serial():
        with eager_params(), bypass_graph_cache():
            _study(model_names, batches).run(profile_mode="numeric")

    arms["eager_serial_s"] = _time_arm(eager_serial)

    before = materialization_count()
    arms["lazy_serial_s"] = _time_arm(
        lambda: _study(model_names, batches).run(profile_mode="numeric")
    )
    lazy_materializations = materialization_count() - before

    # The grid: cold builds the workload tables from verifier specs;
    # the repeat is a sweep-memo hit.
    specmode.clear_spec_caches()
    before = materialization_count()
    arms["spec_cold_s"] = _time_arm(lambda: _study(model_names, batches).run())
    arms["spec_memo_hit_s"] = _time_arm(
        lambda: _study(model_names, batches).run(), cold=False
    )
    spec_materializations = materialization_count() - before

    result = {
        "benchmark": "full_sweep_selfspeed",
        "smoke": smoke,
        "models": model_names,
        "batch_sizes": batches,
        "cells": len(model_names) * 4 * len(batches),
        "lazy_materializations": lazy_materializations,
        "spec_materializations": spec_materializations,
        "arms": {k: round(v, 4) for k, v in arms.items()},
        "speedups": {
            "lazy_serial_vs_eager": round(
                arms["eager_serial_s"] / arms["lazy_serial_s"], 2
            ),
            "spec_cold_vs_lazy_serial": round(
                arms["lazy_serial_s"] / arms["spec_cold_s"], 2
            ),
            "spec_memo_hit_vs_lazy_serial": round(
                arms["lazy_serial_s"] / arms["spec_memo_hit_s"], 2
            ),
        },
    }
    if output is not None:
        output.write_text(json.dumps(result, indent=2) + "\n")
    return result


def check_result(result: Dict) -> List[str]:
    """Return a list of human-readable gate failures (empty = pass)."""
    failures: List[str] = []
    if result["spec_materializations"] != 0:
        failures.append(
            f"spec mode materialized {result['spec_materializations']} tensors"
        )
    spec_speedup = result["speedups"]["spec_memo_hit_vs_lazy_serial"]
    if spec_speedup < SPEC_MIN_SPEEDUP:
        failures.append(
            f"spec memo hit only {spec_speedup}x over lazy serial "
            f"(gate: >= {SPEC_MIN_SPEEDUP}x)"
        )
    return failures


def test_selfspeed_smoke(write_output):
    """Smoke bench: the lazy fast path profiles without materializing."""
    result = run_bench(smoke=True, output=None)
    assert result["lazy_materializations"] == 0
    assert result["spec_materializations"] == 0
    assert result["arms"]["lazy_serial_s"] > 0
    assert result["arms"]["spec_memo_hit_s"] > 0
    write_output(
        "selfspeed_smoke",
        json.dumps(result, indent=2),
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny config for CI")
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 unless the speed gates hold (see module docstring)",
    )
    parser.add_argument(
        "-o", "--output", default=str(DEFAULT_OUTPUT),
        help="result JSON path (default BENCH_sweep.json at repo root)",
    )
    args = parser.parse_args()
    result = run_bench(
        smoke=args.smoke,
        output=pathlib.Path(args.output),
    )
    print(json.dumps(result, indent=2))
    if args.check:
        failures = check_result(result)
        for failure in failures:
            print(f"CHECK FAILED: {failure}")
        if failures:
            return 1
        print("CHECK PASSED")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
