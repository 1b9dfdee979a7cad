"""Self-test of the benchmark driver at ``--smoke`` sizes.

    python3 -m pytest benchmarks/e2e/test_smoke.py

Not part of the repo's tier-1 suite (``testpaths = ["tests"]``): it
checks the benchmark against its own declaration in ``BENCHMARK.json``,
not the product.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _smoke(tmp_path, trace: int) -> list[dict]:
    out = tmp_path / f"smoke-{trace}.json"
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace",
         str(trace), "--json", str(out)],
        cwd=REPO, check=True, timeout=170,
    )
    return json.loads(out.read_text())["runs"]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return {trace: _smoke(tmp, trace) for trace in (0, 1)}


def test_declared_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert SPEC["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_emits_exactly_what_is_declared(runs, trace, section):
    assert [r["workload"] for r in runs[trace]] == [
        w["name"] for w in SPEC["workloads"]
    ]
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for run in runs[trace]:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        emitted = {n: m["unit"] for n, m in run["metrics"].items()}
        assert emitted == declared, run["workload"]
        assert run["environment"]["nproc"] >= 1
        assert run["environment"]["seed"] == run["seed"]


def test_end_to_end_metrics_are_never_zero(runs):
    for run in runs[0]:
        for name, metric in run["metrics"].items():
            assert metric["value"] > 0, (run["workload"], name)


def test_span_parents_resolve(runs):
    for workload in (w["name"] for w in SPEC["workloads"]):
        path = HERE / "out" / f"trace-{workload}.jsonl"
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert spans, workload
        ids = {span["id"] for span in spans}
        for span in spans:
            assert span["end"] >= span["start"]
            assert span["parent"] is None or (
                span["parent"] in ids and span["parent"] < span["id"]
            ), (workload, span)
