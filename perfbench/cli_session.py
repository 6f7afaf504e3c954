"""cli_session: the user/CI command sequence, one fresh interpreter each.

The in-process workloads pay import once, so import cost and CLI
assembly show only here; the ``monitor`` and ``ledger`` layers are
measured only here too. Commands run one at a time, each waiting for
the previous one to exit.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

import hostspeed
from checks import Checks, PassResult, digest
from spans import median

from repro.core import PAPER_CLAIMS
from repro.hw import PLATFORMS
from repro.models import MODEL_ORDER

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
COMMAND_TIMEOUT_S = 120
#: One probe per interpreter: the import alone, timed by the child.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import {module}; "
                "print(time.perf_counter() - t)")
IMPORT_PROBES = 2

_SMOKE = ["--queries", "1200", "--seed", "2020", "--slowdown-multiplier", "5.0"]


class State:
    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        # The seed picks the characterized cell; every other command
        # keeps its CI arguments, whose gates and baselines are fixed.
        self.model = rng.choice(MODEL_ORDER)
        self.platform = rng.choice(list(PLATFORMS))
        self.batch = rng.choice([1, 16, 64, 256])
        self.workdir = OUT / f"cli-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def commands(self) -> List[Tuple[str, List[str]]]:
        out = str(self.workdir)
        ledger = f"{out}/run-ledger"
        return [
            ("models", ["models"]),
            ("characterize", ["characterize", self.model, "--platform",
                              self.platform, "--batch", str(self.batch)]),
            ("sweep", ["sweep"]),
            ("claims", ["claims"]),
            ("explain", ["explain", "--model", "rm1", "--platform", "t4",
                         "--scenario", "slowdown", *_SMOKE, "--what-if", "all",
                         "--report", f"{out}/explain.html",
                         "--expect-fault-attribution"]),
            ("monitor", ["monitor", "--model", "rm1", "--platform", "t4",
                         "--scenario", "slowdown", *_SMOKE,
                         "--rules", "ci/burnrate.toml",
                         "--report", f"{out}/monitor.html",
                         "--expect-fault-alert"]),
            ("shard", ["shard", "--model", "rm2", "--platform", "broadwell",
                       "--scenario", "shard_slowdown", "--seed", "2020",
                       "--expect-locality-win", "--record-dir",
                       f"{out}/shard-ledger", "--split"]),
            ("record", ["record", "--platforms", "broadwell", "cascade_lake",
                        "--batch-size", "64", "--queries", "300",
                        "--seed", "2020", "--out", ledger]),
            ("diff", ["diff", ledger, "--against", "baselines",
                      "--fail-on-regression"]),
            ("check", ["check", "--rules", "ci/slo.toml", ledger]),
        ]


def setup(seed: int) -> State:
    return State(seed)


def _run(state: State, argv: List[str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, env=state.env, capture_output=True,
                          text=True, timeout=COMMAND_TIMEOUT_S)


def _import_probes(state: State, rec) -> None:
    for module, metric in (("repro", "import.repro_s"),
                           ("repro.cli", "import.repro_cli_s")):
        for _ in range(IMPORT_PROBES):
            with rec.span(metric[:-2], module=module):
                proc = _run(state, [sys.executable, "-c",
                                    IMPORT_PROBE.format(module=module)])
            if proc.returncode == 0:
                rec.sample(metric, float(proc.stdout.strip()))


def run_pass(state: State, rec) -> PassResult:
    checks = Checks()
    shutil.rmtree(state.workdir, ignore_errors=True)
    state.workdir.mkdir(parents=True)
    outputs = []
    walls = []
    # The pass scales by a reference interpreter start after each
    # command, off the clock (hostspeed.py says why not the kernel).
    references = []
    try:
        for name, args in state.commands():
            t0 = time.perf_counter()
            with rec.span(f"cli.{name}", metric=f"cli.{name}_s"):
                proc = _run(state, [sys.executable, "-m", "repro", *args])
            walls.append(time.perf_counter() - t0)
            references.append(hostspeed.spawn_index(state.env))
            checks.check(proc.returncode == 0,
                         f"repro {name} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-300:]}")
            outputs.append([name, proc.returncode,
                            proc.stdout.replace(str(state.workdir), "<out>")])
        listed = outputs[0][2]
        checks.check(all(re.search(rf"\b{m}\b", listed) for m in MODEL_ORDER),
                     "repro models does not list every zoo model")
        held = len(re.findall(r"^PASS\b", outputs[3][2], re.M))
        checks.check(held == len(PAPER_CLAIMS),
                     f"repro claims held {held}/{len(PAPER_CLAIMS)}")
        ledger = (state.workdir / "run-ledger" / "ledger.jsonl").read_bytes()
        outputs.append(["ledger.jsonl", ledger.decode()])
        if rec.enabled:
            _import_probes(state, rec)
    finally:
        shutil.rmtree(state.workdir, ignore_errors=True)
    wall = sum(walls)
    return PassResult(
        primary=len(walls) / wall,
        secondary=1.0 / median(walls),
        wall_s=wall,
        checks=checks,
        digest=digest(outputs),
        scale=hostspeed.SPAWN_NOMINAL_S / median(references),
    )
