"""One fresh interpreter running one workload's passes.

Started by ``run.py``; not meant to be run by hand. It times its own
set-up from the moment the parent spawned it, runs passes until its
budget is spent, and writes one JSON document to ``--out``. After
set-up and after every pass it times the host-speed kernel
(``hostspeed.py``), which scales each pass to the nominal host.

Passes run one at a time, each library call after the previous one
returned (a closed loop with one caller, no pools). A workload module
may define ``warmup(state)``: it runs after set-up is timed and before
the first pass, untimed, to pay first-touch costs a long-running caller
pays once.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402  (after the path set-up above)
import spans  # noqa: E402


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's perf_counter() just before the spawn")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    module = importlib.import_module(args.workload)
    state = module.setup(args.seed)
    setup_s = time.perf_counter() - args.spawned_at
    recorder = spans.Recorder() if args.traced else None
    passes = []
    failures = []
    ops = 0
    digests = set()
    indices = []
    error = None
    t_start = time.perf_counter()
    try:
        if hasattr(module, "warmup"):
            warm = module.warmup(state)
            ops += warm.checks.ops
            failures.extend(warm.checks.failures)
        indices.append(hostspeed.index())
        t_start = time.perf_counter()
        while True:
            index = len(passes)
            # Traced runs alternate untraced and traced passes, so the
            # two sides see the same drift.
            traced = recorder is not None and index % 2 == 1
            rec = recorder if traced else spans.NULL
            if traced:
                recorder.run_id = index
            gc.collect()
            result = module.run_pass(state, rec)
            indices.append(hostspeed.index())
            # Neighbours change the host's speed within seconds, so each
            # pass is scaled by the index measured on either side of it,
            # unless it measured its own reference.
            scale = result.scale or (
                2 * hostspeed.NOMINAL_S / (indices[-2] + indices[-1]))
            ops += result.checks.ops
            failures.extend(result.checks.failures)
            digests.add(result.digest)
            passes.append({
                "primary": result.primary,
                "secondary": result.secondary,
                "wall_s": result.wall_s,
                "scale": scale,
                "traced": traced,
            })
            elapsed = time.perf_counter() - t_start
            mean_wall = elapsed / len(passes)
            enough = len(passes) >= (2 if recorder is not None else 1)
            if enough and elapsed + mean_wall > args.budget:
                break
    except Exception:  # report, don't crash: the runner marks the run incorrect
        error = traceback.format_exc()

    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "host_index_s": spans.median(indices) if indices else 0.0,
        "peak_rss_mb": _peak_rss_mb(),
        "passes": passes,
        "ops": ops,
        "failures": failures[:20],
        "failed": len(failures),
        "digests": sorted(digests),
        "error": error,
    }
    if recorder is not None:
        doc["samples"] = recorder.samples
        doc["counts"] = recorder.counts
        doc["self_time"] = spans.self_time_by_name(recorder.spans)
        doc["span_count"] = len(recorder.spans)
        if args.trace_out:
            trace = spans.chrome_trace(recorder.spans, t_start)
            Path(args.trace_out).write_text(json.dumps(trace))
    Path(args.out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
