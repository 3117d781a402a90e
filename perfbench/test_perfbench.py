"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

They run real requests against src/ and take about ten seconds.
"""

import importlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import reference
import run
from trace_launcher import Tracer
from workloads import WORKLOADS, Request, requests

HERE = Path(__file__).resolve().parent

# cheap requests that still reach every counter: casimirs (skipped
# centrality checks, symmetrization), dressed and undressed contractions,
# both rank routes and the Jacobi check on load
SAMPLE = {
    "casimirs:Ha:4", "casimirs:IHa:3", "verify-copy:QHa:5",
    "contract:boson_example", "contract:IHa:6", "validate:so9",
    "count-bb:weyl_quesne5", "count-bb1:weyl_quesne5", "mc:so9",
}

EXACT = ("enveloping.pbw_cache_entries", "enveloping.symmetrized_terms",
         "casimir_gen.ucheck_skipped")


def _sample(seed):
    return [r for w in WORKLOADS for r in requests(w, seed, run.DATA_DIR)
            if r.id in SAMPLE]


@pytest.fixture(scope="module")
def prepared():
    run.OUT.mkdir(parents=True, exist_ok=True)
    run.prepare()


def test_counters_repeat_exactly_across_traced_runs(prepared, tmp_path):
    sample = _sample(seed=3)
    assert {r.id for r in sample} == SAMPLE
    counts = []
    for rep in range(2):
        spans_dir = tmp_path / str(rep)
        spans_dir.mkdir()
        check = run.Checker(reference.load())
        outcomes = run.run_pass(sample, check, time.perf_counter() + 300,
                                spans_dir)
        assert not any(check.failures.values()), dict(check.failures)
        metrics, absent = run.layer_metrics(outcomes, spans_dir)
        assert absent == []
        counts.append({k: v for k, (v, _unit) in metrics.items()
                       if k.endswith(".calls") or k in EXACT})
    assert counts[0] == counts[1]
    assert counts[0]["casimir_gen.ucheck_skipped"] == 1
    assert counts[0]["virtual_copy.verify.calls"] == 2 * 2 + 1 + 2 * 3
    assert counts[0]["enveloping.symmetrized_terms"] > 0
    assert counts[0]["enveloping.pbw_cache_entries"] > 0


def test_tampered_reference_is_a_failure(prepared):
    table = reference.load()
    request = next(r for r in _sample(seed=3) if r.id == "count-bb:weyl_quesne5")
    outcome = run.run_request(request, time.perf_counter() + 60)
    assert run.Checker(table)(request, outcome) is None
    tampered = dict(table)
    tampered[request.id] = {"exit": 0,
                            "result": {"count": table[request.id]["result"]
                                       ["count"] + 1}}
    check = run.Checker(tampered)
    assert check(request, outcome) == "result differs from the reference"
    assert check.failures[request.id]


def test_reference_ignores_added_keys_only():
    doc = {"N": 4, "casimirs": [{"l": 1, "degree": 4,
                                 "coefficient": ["x"] * 100}]}
    recorded = reference.digest(doc)
    assert "$sha256" in recorded["casimirs"][0]["coefficient"]
    grown = json.loads(json.dumps(doc))
    grown["casimirs"][0]["checked"] = False
    assert reference.matches(recorded, grown)
    changed = json.loads(json.dumps(doc))
    changed["casimirs"][0]["coefficient"][50] = "y"
    assert not reference.matches(recorded, changed)
    assert not reference.matches({"count": 1}, {"count": True})
    assert not reference.matches([1, 2], [1, 2, 3])


def test_stdout_must_repeat_across_passes():
    request = Request("count:x", ("count",))
    check = run.Checker({"count:x": {"exit": 0, "result": {"count": 1}}})
    first = run.Outcome("count:x", 0, b'{"count": 1}\n', 0.1, 0.1, 1.0)
    again = run.Outcome("count:x", 0, b'{"count":1}\n', 0.1, 0.1, 1.0)
    assert check(request, first) is None
    assert check(request, again) == "stdout differs from an earlier pass"


def test_missing_names_are_absent_not_a_crash(tmp_path, monkeypatch):
    package = tmp_path / "fakecas"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "enveloping.py").write_text(
        "def u_mul(a, b):\n    return a * b\n")
    (package / "catalog.py").write_text(
        "from .enveloping import u_mul\n\n"
        "def build(x):\n    return u_mul(x, x)\n")
    (package / "cli.py").write_text(
        "from .catalog import build\n\n"
        "def main(argv):\n    return build(3)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    tracer = Tracer()
    modules = tracer.install(importlib.import_module("fakecas"))
    assert modules["cli"].main([]) == 9
    assert [s[0] for s in tracer.spans] == ["cli.main", "catalog.build",
                                            "enveloping.u_mul"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1]
    assert "linalg.rank" in tracer.absent
    assert "lie_core.validate" in tracer.absent
    assert "enveloping.u_mul" not in tracer.absent
    assert tracer.pbw_cache_entries() is None


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "trace_launcher.py",
                 "reference.py", "reference.json"):
        (bench / name).write_bytes((HERE / name).read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "copy-verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
