"""The benchmark's own tests, on smoke sizes of each workload.

    python3 -m pytest bench -q
"""
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import worker  # puts the checkout's src/ first on sys.path
import run
import workloads
from family import SEED, family

ROOT = worker.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _cli(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=170)


def _same_system(a, b):
    return (a.worlds == b.worlds and a.agents == b.agents and a.valuation == b.valuation
            and a.relations == b.relations)


def test_family_reproduces_acceptance_7():
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    from genlib import random_interpreted_system, random_pattern

    rng = random.Random(SEED)
    reference = []
    for _ in range(60):
        m = random_interpreted_system(rng, max_agents=3, max_atoms_per_agent=2)
        reference.append((m, random_pattern(rng, m.agents, max_graphs=8)))
    for (m, p, _), (ref_m, ref_p) in zip(family(SEED, 60), reference):
        assert _same_system(m, ref_m) and p == ref_p

    # at SEED the history items are acceptance 7's first systems within the cap
    expected = [(m, p) for m, p in reference
                if len(m.worlds) * len(p.graphs) ** workloads.ROUNDS <= workloads.MAX_LAST_ROUND]
    items = workloads.history_setup(SEED, "full", None)
    assert len(items) == workloads.HISTORY["full"] <= len(expected)
    for (m, p, _), (ref_m, ref_p) in zip(items, expected):
        assert _same_system(m, ref_m) and p == ref_p


def test_other_seeds_keep_the_shapes():
    at_seed = workloads.history_setup(SEED, "full", None)
    other = workloads.history_setup(12345, "full", None)
    assert [m.shape for m in other] == [m.shape for m in at_seed]
    assert any(not _same_system(a.model, b.model) for a, b in zip(other, at_seed))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_pass_checks_every_verdict(name):
    record = worker.run_pass(name, 7, "smoke", "plain")
    assert record["failures"] == []
    assert record["failed"] == 0 and record["attempted"] > 10
    assert len(record["item_s"]) > 0 and record["wall_s"] > 0


def test_traced_smoke_reports_every_per_layer_metric():
    seen = set()
    for name in run.WORKLOADS:
        layers = worker.run_pass(name, 7, "smoke", "traced")["layers"]
        assert layers["trace.coverage"] >= 0.9, name
        seen |= {k for k, v in layers.items() if v}
    missing = {m["name"] for m in SPEC["per_layer"]} - seen - {"trace.overhead_s"}
    assert not missing


def test_corrupted_expected_answer_counts_as_failure(monkeypatch):
    real = workloads.rung_size
    monkeypatch.setattr(workloads, "rung_size", lambda k: real(k) + (k == 2))
    record = worker.run_pass("snapshot_ladder", 7, "smoke", "plain")
    # |rung 2|, |lazy induced product 2| and |minimize(rung 2)|
    assert record["failed"] == 3
    result = run.result_line({}, [record])
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] == 3 / record["attempted"]


def test_exception_counts_as_failure(monkeypatch):
    real = workloads.update_equivalent_on
    calls = []

    def flaky(*args):
        calls.append(1)
        if len(calls) == 5:
            raise RuntimeError("injected")
        return real(*args)

    monkeypatch.setattr(workloads, "update_equivalent_on", flaky)
    record = worker.run_pass("pattern_search", 7, "smoke", "plain")
    assert record["failed"] == 1
    assert "injected" in record["failures"][0]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_declared_metrics(trace):
    proc = _cli("--workload", "pattern_search", "--seed", "3", "--seconds", "0",
                "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert "environment: " in proc.stdout


def test_world_cap_below_ladder_is_refused():
    env = dict(os.environ, EPIUPDATE_MAX_WORLDS="20000")
    proc = _cli("--workload", "history_family", "--seed", "1", "--seconds", "1", env=env)
    assert proc.returncode != 0
    assert "26244" in proc.stderr and proc.stdout == ""


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli("--workload", "pattern_search", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
