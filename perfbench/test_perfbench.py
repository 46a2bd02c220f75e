"""Tests of the benchmark itself: output checks, exact counts, the contract file.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from minsimplex import cli  # noqa: E402

SEED = 7
COUNTS = [m for m in run.PER_LAYER if run.unit(m) == "count"]
PINNED = {
    "enumerate": {
        "geometry.candidates": 49191, "geometry.rank_tests": 19634, "geometry.simplexes": 10429,
        "exactla.rank_calls": 22509, "constructions.rank_tests": 2875,
    },
    "circuits": {
        "geometry.candidates": 2431, "geometry.rank_tests": 2431, "geometry.simplexes": 924,
        "matroid.enumerate_calls": 7, "matroid.candidates": 21429, "matroid.rank_tests": 19915,
        "matroid.circuits": 11202, "exactla.rank_calls": 22420, "exactla.nullspace_calls": 11202,
        "stoichiometry.reactions_calls": 2,
    },
    "search": {
        "search.canonical_calls": 130, "search.witnesses": 4,
        "search.families": 9267, "search.masks": 3 << 20,
    },
}


def traced_pass(commands):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        wall, _, results = run.run_pass(cli.main, commands, tracer)
    return wall, tracing.layer_metrics(tracer), results


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def two_passes(request, tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp(request.param))
    commands = workloads.generate(request.param, SEED, workdir)
    return request.param, [traced_pass(commands) for _ in range(2)]


def test_outputs_pass_their_checks(two_passes):
    _, passes = two_passes
    for _, _, results in passes:
        assert run.check_pass(results) == []


def test_counts_repeat_exactly(two_passes):
    name, passes = two_passes
    first, second = ({m: metrics[m] for m in COUNTS} for _, metrics, _ in passes)
    assert first == second
    assert {m: first[m] for m in PINNED[name]} == PINNED[name]
    untouched = set(COUNTS) - set(PINNED[name])
    assert all(first[m] == 0 for m in untouched)


def test_self_times_add_up_to_the_pass(two_passes):
    _, passes = two_passes
    layers = sorted(set(tracing.SELF_TIME.values()))
    for wall, metrics, _ in passes:
        assert sum(metrics[m] for m in layers) == pytest.approx(wall, abs=1e-6)
        assert all(metrics[m] >= 0 for m in layers)


def _bump(match: re.Match) -> str:
    return match.group(1) + str(int(match.group(2)) + 1)


def _corrupt(argv: list[str], out: str) -> str:
    """A copy of a right output with one value changed, which its check must catch."""
    if "--project" in argv:
        return out.replace("match: yes", "match: NO")
    if argv[0] == "react":
        return out.replace(" -> ", " + CO2 -> ", 1)
    pattern = {
        ("construct", False): r"(enumerated )(\d+)",
        ("verify", False): r"(== )(\d+)",
        ("simplexes", False): r"(total: )(\d+)",
        ("simplexes", True): r'("total": )(\d+)' if "--points" in argv
        else r'("coefficients": \[\s*)(-?\d+)',
        ("search", False): r"( = )(\d+)",
        ("search", True): r'("minimum": ")(\d+)',
    }[argv[0], "--format" in argv]
    corrupted = re.sub(pattern, _bump, out, count=1)
    assert corrupted != out, argv
    return corrupted


def test_checks_reject_wrong_outputs(two_passes):
    _, passes = two_passes
    for cmd, code, out, err in passes[0][2]:
        wrong = _corrupt(cmd.argv, out)
        assert len(run.check_pass([(cmd, code, wrong, err)])) == 1, cmd.argv


def test_failing_command_is_counted_and_the_run_goes_on(tmp_path):
    missing = str(tmp_path / "missing.json")
    commands = [
        workloads.Command(["simplexes", "--points", missing], lambda out: None),
        workloads.Command(["search", "4", "2", "--linear"], lambda out: "wrong on purpose"),
        workloads.Command(["search", "4", "2", "--linear"], lambda out: None),
    ]
    runner = run.Runner(cli.main, commands)
    runner.run()
    assert runner.attempted == 3
    assert len(runner.failures) == 2


def test_probe_samples_while_it_runs_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Probe() as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(probe.rates) >= 5
    assert 0 < probe.spent < 0.2
    assert probe.scale() == pytest.approx(speed.NOMINAL_S * statistics.fmean(probe.rates))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with speed.Probe() as short:
        pass
    assert len(short.rates) == 1 and short.spent == 0


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit(m["name"])
    assert all(m["bound"] <= spec["end_to_end"][0]["bound"] for m in spec["end_to_end"])
    assert spec["end_to_end"][0]["name"] == "setup_s"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
