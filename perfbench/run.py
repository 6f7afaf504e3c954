"""Repo benchmark: one workload, one seed, timed end to end or per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload design_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --list

``--trace 0`` starts three fresh worker interpreters one after another,
each with a third of ``--seconds``, and reports the end-to-end metrics:
medians over the workers' set-ups and timed passes, with host times
scaled to a nominal host (``hostspeed.py`` says why). ``--trace 1``
starts one worker that alternates untraced and traced passes and
reports the per-layer metrics, the tracing overhead, and writes a
Chrome trace under ``.perfbench_out/``. ``--list`` prints every metric
with its unit and, for the workload-specific throughputs, what they
measure on each workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The benchmark
exits non-zero without that line when the program under test is
missing or a worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402  (after the path set-up above)
import spans  # noqa: E402

WORKERS = 3
#: Every run must end within 180 s; leave room for the final report.
RUN_DEADLINE_S = 170.0


def _load(path: Path) -> Dict:
    return json.loads(path.read_text())


def _env() -> Dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _spawn_worker(args, index: int, budget: float, deadline: float) -> Dict:
    out = OUT / f"worker-{os.getpid()}-{index}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--budget", repr(budget), "--traced", str(args.trace),
           "--out", str(out)]
    if args.trace:
        cmd += ["--trace-out", str(_trace_path(args))]
    # Set-up is an interpreter start plus imports, so it scales by the
    # reference interpreter start (hostspeed.spawn_index) taken just
    # before it.
    reference = hostspeed.spawn_index(_env())
    spawned_at = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)],
                            cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker {index} overran the run deadline")
    finally:
        # Also reached on SIGTERM (see main): leave no worker behind.
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or not out.is_file():
        raise RuntimeError(f"worker {index} exited {proc.returncode}")
    doc = _load(out)
    doc["setup_scale"] = hostspeed.SPAWN_NOMINAL_S / reference
    out.unlink()
    return doc


def _trace_path(args) -> Path:
    return OUT / f"trace-{args.workload}-seed{args.seed}.json"


def _metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def _end_to_end(docs: List[Dict], scaled: bool) -> Dict[str, float]:
    """Medians over workers (set-up, memory) and timed passes (the rest);
    ``scaled`` converts host times to the nominal host (hostspeed.py)."""
    passes = [(p, p["scale"] if scaled else 1.0)
              for d in docs for p in d["passes"]]
    setup = [d["setup_s"] * (d["setup_scale"] if scaled else 1.0) for d in docs]
    return {
        "setup_s": spans.median(setup),
        "peak_rss_mb": spans.median([d["peak_rss_mb"] for d in docs]),
        "pass_s": spans.median([p["wall_s"] * s for p, s in passes]),
        "primary_per_s": spans.median([p["primary"] / s for p, s in passes]),
        "secondary_per_s": spans.median([p["secondary"] / s for p, s in passes]),
    }


def _per_layer(spec: Dict, doc: Dict) -> Dict:
    samples = doc["samples"]
    counts = doc["counts"]
    walls = {False: [], True: []}
    for p in doc["passes"]:
        walls[p["traced"]].append(p["wall_s"] * p["scale"])
    untraced = walls[False]
    traced = walls[True] or untraced
    trace = {
        "trace.overhead_s": spans.median(traced) - spans.median(untraced),
        "trace.overhead_ratio": spans.median(traced) / spans.median(untraced),
        "trace.spans": doc["span_count"],
        "host.index_ms": doc["host_index_s"] * 1e3,
    }
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        base, _, stat = name.rpartition(".")
        if name in trace:
            value = trace[name]
        elif stat in ("p50", "tail", "n"):
            # A layer this workload does not cross has no samples: 0, n=0.
            series = samples.get(base, [])
            if stat == "n":
                value = len(series)
            elif not series:
                value = 0.0
            else:
                value = spans.median(series) if stat == "p50" else spans.tail(series)
        else:
            value = counts.get(name, 0)
        metrics[name] = _metric(value, m["unit"])
    return metrics


def _list(spec: Dict, design: Dict) -> None:
    print("end-to-end metrics (--trace 0):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<34} {m['unit']:<8} {m['better']} is better, "
              f"bound {m['bound']}")
        for w in design["workloads"]:
            meaning = w["metrics"].get(m["name"])
            if meaning:
                print(f"      {w['name']:<15} {meaning}")
    print("per-layer metrics (--trace 1):")
    for m in spec["per_layer"]:
        print(f"  {m['name']:<34} {m['unit']}")


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print every metric with its unit and exit")
    args = parser.parse_args()
    t_begin = time.perf_counter()

    spec = _load(ROOT / "BENCHMARK.json")
    design = _load(HERE / "design.json")
    if args.list:
        _list(spec, design)
        return 0
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names or args.seed is None or not args.seconds:
        parser.error(f"need --workload (one of {names}), --seed and --seconds")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    deadline = t_begin + RUN_DEADLINE_S
    # Untimed: compile the package once, so bytecode caching (where the
    # interpreter writes it) never lands in a measured set-up.
    warm = subprocess.run([sys.executable, "-c", "import repro.cli"],
                          cwd=ROOT, env=_env(), timeout=60)
    if warm.returncode != 0:
        print("perfbench: the program does not import", file=sys.stderr)
        return 1

    workers = 1 if args.trace else WORKERS
    docs = []
    try:
        for i in range(workers):
            docs.append(_spawn_worker(args, i, args.seconds / workers, deadline))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    errors = [d["error"] for d in docs if d["error"]]
    for error in errors:
        print(error, file=sys.stderr)
    if any(not d["passes"] for d in docs):
        print("perfbench: a worker completed no pass", file=sys.stderr)
        return 1
    failures = [f for d in docs for f in d["failures"]]
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    digests = sorted({h for d in docs for h in d["digests"]})
    attempted = sum(d["ops"] for d in docs) + len(errors)
    failed = sum(d["failed"] for d in docs) + len(errors)
    correct = failed == 0 and len(digests) == 1

    if args.trace:
        metrics = _per_layer(spec, docs[0])
        print(f"chrome trace: {_trace_path(args).relative_to(ROOT)}")
        for name, entry in sorted(docs[0]["self_time"].items()):
            print(f"span {name:<34} n={entry['n']:<6} total {entry['total_s']:.4f} s"
                  f"  self {entry['self_s']:.4f} s")
    else:
        values = _end_to_end(docs, scaled=True)
        raw = _end_to_end(docs, scaled=False)
        metrics = {m["name"]: _metric(values[m["name"]], m["unit"])
                   for m in spec["end_to_end"]}
    workload = next(w for w in design["workloads"] if w["name"] == args.workload)
    for name, entry in metrics.items():
        meaning = workload["metrics"].get(name, "")
        unscaled = "" if args.trace else f"(raw {raw[name]:<10.6g})"
        print(f"{name:<34} {entry['value']:<12.6g} {unscaled:<17} "
              f"{entry['unit']:<6} {meaning}")
    timed = sum(len(d["passes"]) for d in docs)
    print(f"workload {args.workload} seed {args.seed}: {timed} timed passes, "
          f"digest {' '.join(digests)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
