"""Golden CLI outputs: byte-level pins for the serving commands.

Each case runs ``repro.cli.main`` in-process and pins the SHA-256 of
its stdout (temporary paths normalized to ``<TMP>``), its exit code,
and the bytes of every file it writes (ledgers, reports, simulated-time
traces). The digests are the behavioural spec for refactors of the
serving-command plumbing: any change to a table, a record or a report
shows up here.

``trace`` in characterization mode reports host wall time in its
"hottest spans" rows, so only its ``scheduler:`` summary line is
pinned and its files are not.

To re-pin after an intended output change, run
``PYTHONPATH=src python tests/test_cli_golden.py`` and paste the
printed table over ``GOLDEN``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
from typing import Dict, List, Tuple

import pytest

from repro.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
_RESILIENCE = ["resilience", "--model", "rm1", "--queries", "300",
               "--seed", "7", "--scenario", "mixed"]
#: The CI smoke argv of ``monitor`` / ``explain``, at 600 queries.
_SMOKE = ["--model", "rm1", "--platform", "t4", "--scenario", "slowdown",
          "--queries", "600", "--seed", "2020", "--slowdown-multiplier", "5.0"]
_MONITOR = ["monitor", *_SMOKE, "--rules", str(ROOT / "ci" / "burnrate.toml"),
            "--report", "{tmp}/monitor.html", "--expect-fault-alert"]
_EXPLAIN = ["explain", *_SMOKE, "--what-if", "all",
            "--report", "{tmp}/explain.html", "--expect-fault-attribution"]
_SHARD = ["shard", "--model", "rm2", "--platform", "broadwell",
          "--scenario", "shard_slowdown", "--seed", "2020",
          "--expect-locality-win", "--record-dir", "{tmp}/shard", "--split"]

#: name -> (argv, whether every output byte is pinned).
CASES: Dict[str, Tuple[List[str], bool]] = {
    "resilience": (_RESILIENCE, True),
    "resilience_no_fallback": ([*_RESILIENCE, "--fallback", "none"], True),
    "resilience_recorded": (
        [*_RESILIENCE, "--record-dir", "{tmp}/ledger",
         "--trace", "{tmp}/resilience.trace.json"], True,
    ),
    "monitor_text": (_MONITOR, True),
    "monitor_json": ([*_MONITOR, "--format", "json"], True),
    "monitor_recorded": ([*_MONITOR, "--record-dir", "{tmp}/ledger"], True),
    "explain_text": (_EXPLAIN, True),
    "explain_json": ([*_EXPLAIN, "--format", "json"], True),
    "explain_recorded": ([*_EXPLAIN, "--record-dir", "{tmp}/ledger"], True),
    "shard_text": (_SHARD, True),
    "shard_json": ([*_SHARD, "--format", "json"], True),
    "trace_scheduler": (
        ["trace", "--scheduler", "-o", "{tmp}/scheduler.trace.json"], True,
    ),
    "trace_resilience": (
        ["trace", "--resilience", "-o", "{tmp}/resilience.trace.json"], True,
    ),
    "trace_characterization": (["trace", "-o", "{tmp}/c.trace.json"], False),
    "metrics_json": (["metrics", "--format", "json"], True),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def observe(name: str, tmp: pathlib.Path) -> dict:
    """Run one case; return its exit code and output digests."""
    argv, full = CASES[name]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([a.replace("{tmp}", str(tmp)) for a in argv])
    out = buf.getvalue().replace(str(tmp), "<TMP>")
    if not full:
        out = "\n".join(
            line for line in out.splitlines() if line.startswith("scheduler:")
        )
        return {"exit": code, "stdout": _sha(out.encode())}
    files = {
        str(p.relative_to(tmp)): _sha(
            p.read_bytes().replace(str(tmp).encode(), b"<TMP>")
        )
        for p in sorted(tmp.rglob("*")) if p.is_file()
    }
    return {"exit": code, "stdout": _sha(out.encode()), "files": files}


GOLDEN: Dict[str, dict] = {'explain_json': {'exit': 0,
                  'files': {'explain.html': '84359e98dbecf6f4bb14c4cdb8ff817a153a3390d6be3923fd6abb07960a546b'},
                  'stdout': '78e5f7afcf5929e96d0e4cbac3593c38e05a053ce615944c83bd2ab22cddab3e'},
 'explain_recorded': {'exit': 0,
                      'files': {'explain.html': '84359e98dbecf6f4bb14c4cdb8ff817a153a3390d6be3923fd6abb07960a546b',
                                'ledger/ledger.jsonl': '16c5a32a14bcdf0ef8fd5178ed4f57cfcd521dc2567f702067ebaf1a9e91a0e0'},
                      'stdout': '694f8aa69623c8e87c7e2138e721a50447a10caf03641286903922e6b51cd7f1'},
 'explain_text': {'exit': 0,
                  'files': {'explain.html': '84359e98dbecf6f4bb14c4cdb8ff817a153a3390d6be3923fd6abb07960a546b'},
                  'stdout': '3c01f438c173138abffb6dbbc217afeba0528ac6764bc58ffc595d211aa43065'},
 'metrics_json': {'exit': 0,
                  'files': {},
                  'stdout': '7fb5b93305db019a695a8811202cc12f35247c63a72f16cb6d83f9f5d2a0569d'},
 'monitor_json': {'exit': 0,
                  'files': {'monitor.html': 'f8928195ab8c73abab2f2c946c54c9bccade36588e0b8d76d324a6217b3e8676'},
                  'stdout': '144f307f9d5697d756a5f3e856cb0dfeae2817b340fe742b9ab4a885702f308f'},
 'monitor_recorded': {'exit': 0,
                      'files': {'ledger/ledger.jsonl': '1e9eaec025c8db0a0afba89295e1aba46fb7c420785b829829bb04c5d361989f',
                                'monitor.html': 'f8928195ab8c73abab2f2c946c54c9bccade36588e0b8d76d324a6217b3e8676'},
                      'stdout': '65ecef3f456c568a453caaecaca17b9d6e44611551cb761722557277e9794d48'},
 'monitor_text': {'exit': 0,
                  'files': {'monitor.html': 'f8928195ab8c73abab2f2c946c54c9bccade36588e0b8d76d324a6217b3e8676'},
                  'stdout': 'd62dc0bbe3916a1848e1ba87e5740c2ef31916f0e614965880eee0aa655929d5'},
 'resilience': {'exit': 0,
                'files': {},
                'stdout': '38b8f6b5d7c207f592147f69d2246261a34917b57b84230e7be34c4fae1c6393'},
 'resilience_no_fallback': {'exit': 0,
                            'files': {},
                            'stdout': 'fcb869d151e91a8b0e81eae9a7392b18ef90400271028829218b1278a6010477'},
 'resilience_recorded': {'exit': 0,
                         'files': {'ledger/ledger.jsonl': '806db00f626dbb53fce4998d8d6af1e0ece0c68a3865c10ca603aee3c2cadc74',
                                   'resilience.trace.json': 'b4a70d87656abc8e05a717c3ecea04ccc664dcd27f00ea296086c57b5d87b19d'},
                         'stdout': '57225f252f1277514a3e37c9d12f940ac3ef26c78355872f82e8df01a1147239'},
 'shard_json': {'exit': 0,
                'files': {'shard/rm2_broadwell+shard-blind4_b64.json': '2fc779e1a4c4c1470855373b1c205c11c92ec7cdb2ada62259d851dd0c500dd3',
                          'shard/rm2_broadwell+shard-blindh4_b64.json': '4ca241ee3f9ab64a7ab2e829d630a227e59456dfa13d3ae4cd6d1bca20679a73',
                          'shard/rm2_broadwell+shard-loc4_b64.json': '81c0337bbdef3aa3192216e293959fc43a500e2783ca377685fad94b16a6aea1',
                          'shard/rm2_broadwell+shard-locp4_b64.json': '9e62571552a6a2216dac131c053f9fea78dd483fc16cd51052785484a8d7a004',
                          'shard/rm2_broadwell+shard-single1_b64.json': '444213a1acb5a652edca7071d12619ca0ed846b74e2885289b158d662ab9af31'},
                'stdout': '4ddc83bca3b16a8bb61b08e54da12667ccf91ae5fb49df10a0dc31bac176a8a4'},
 'shard_text': {'exit': 0,
                'files': {'shard/rm2_broadwell+shard-blind4_b64.json': '2fc779e1a4c4c1470855373b1c205c11c92ec7cdb2ada62259d851dd0c500dd3',
                          'shard/rm2_broadwell+shard-blindh4_b64.json': '4ca241ee3f9ab64a7ab2e829d630a227e59456dfa13d3ae4cd6d1bca20679a73',
                          'shard/rm2_broadwell+shard-loc4_b64.json': '81c0337bbdef3aa3192216e293959fc43a500e2783ca377685fad94b16a6aea1',
                          'shard/rm2_broadwell+shard-locp4_b64.json': '9e62571552a6a2216dac131c053f9fea78dd483fc16cd51052785484a8d7a004',
                          'shard/rm2_broadwell+shard-single1_b64.json': '444213a1acb5a652edca7071d12619ca0ed846b74e2885289b158d662ab9af31'},
                'stdout': '571cdfaeacd4c6f2eb0adeb3806f183722a8e406bebb08a319ef42200c8f1447'},
 'trace_characterization': {'exit': 0,
                            'stdout': '6d55ec974a6b8476b314d94fc529214dc1472b6d7a158940c1a44430c7d09ba4'},
 'trace_resilience': {'exit': 0,
                      'files': {'resilience.trace.json': '4be20062cc8ff14c36b3d20a8075b39489ff958dfef1cf58003cacd756387778'},
                      'stdout': '82ece30779924f65e4f381c363235b62ba9dfe20f6eabda028808b1c9fd83b75'},
 'trace_scheduler': {'exit': 0,
                     'files': {'scheduler.trace.json': 'e1a07e5224cbb3f24f0c3d11ef95159d89b007c20cc82a11470edc07b33b5b7a'},
                     'stdout': 'e344a1377675602fd1ea645c1b6728a39c06e07a9d0c933f90a9aa49b6e81343'}}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_pinned(name, tmp_path):
    assert observe(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":  # pragma: no cover - re-pin helper
    import pprint
    import tempfile

    table = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as d:
            table[case] = observe(case, pathlib.Path(d))
    pprint.pprint(table, width=100)
