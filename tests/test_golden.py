"""Golden CLI outputs: exact stdout, exit code and stderr of fixed commands.

Each case runs `minsimplex.cli.main` inside a temporary directory holding
the small input files below and compares stdout byte for byte with
`tests/golden/<case>.out`, and each file the command writes there byte
for byte with the file of that name in `tests/golden/<case>/` (a case
with no such directory writes none). A change that means to alter an
output regenerates the files with `PYTHONPATH=src python tests/test_golden.py`
and shows the diff in review.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from minsimplex.cli import main

from support import run_python

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

INPUTS = {
    # five points in the plane with a collinear triple
    "plane.csv": "0,0\n1,0\n2,0\n0,1\n1,2\n",
    # eight points of R^3 on the plane z = x + y: three on a line, the rest scattered
    "flat.json": json.dumps({"dimension": 3, "points": [
        [0, 0, 0], [1, 0, 1], [2, 0, 2], [0, 1, 1],
        [1, 1, 2], ["1/2", 3, "7/2"], [-1, 2, 1], [3, -1, 2],
    ]}),
    # a loop, a parallel pair and four more vectors in R^3
    "vecs.json": json.dumps({"dimension": 3, "vectors": [
        [1, 0, 0], [0, 0, 0], [2, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, "1/2"], [1, 2, 3],
    ]}),
    # no zero vector and no parallel pair: admissible for --project; the
    # "labels" key is ignored like any other key that is not read
    "admissible.json": json.dumps({"dimension": 3, "vectors": [
        [1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 2, 3], [2, 1, "1/2"],
    ], "labels": ["a", "b", "c", "d", "e", "f"]}),
    # vectors 0 and 2 are parallel, but the zero vector at 3 is reported first
    "zero.json": json.dumps({"dimension": 2, "vectors": [[1, 2], [0, 1], [2, 4], [0, 0]]}),
    # two parallel pairs, (0, 4) and (1, 3); the first in index order is reported
    "parallel.json": json.dumps({"dimension": 3, "vectors": [
        [1, 2, 0], [0, 1, 1], [3, 1, 0], [0, -2, -2], [2, 4, 0],
    ]}),
    "species.txt": "CH4\nO2\nCO2\nH2O\nCO\nH2\n",
    # 2-linear: edges meet in at most one vertex
    "h.json": json.dumps({"n": 7, "edges": [[0, 1, 2, 3], [3, 4, 5], [5, 6, 0]]}),
}

SIMPLEXES = ["simplexes"]

# (case, argv, exit code, stderr)
CASES = [
    ("points-text", SIMPLEXES + ["--points", "plane.csv"], 0, ""),
    ("points-json", SIMPLEXES + ["--points", "plane.csv", "--format", "json"], 0, ""),
    ("points-csv", SIMPLEXES + ["--points", "plane.csv", "--format", "csv"], 0, ""),
    ("flat-text", SIMPLEXES + ["--points", "flat.json"], 0, ""),
    ("flat-json", SIMPLEXES + ["--points", "flat.json", "--format", "json"], 0, ""),
    ("flat-csv", SIMPLEXES + ["--points", "flat.json", "--format", "csv"], 0, ""),
    ("vectors-text", SIMPLEXES + ["--vectors", "vecs.json"], 0, ""),
    ("vectors-json", SIMPLEXES + ["--vectors", "vecs.json", "--format", "json"], 0, ""),
    ("vectors-csv", SIMPLEXES + ["--vectors", "vecs.json", "--format", "csv"], 0, ""),
    ("project-text", SIMPLEXES + ["--vectors", "admissible.json", "--project"], 0, ""),
    ("project-json",
     SIMPLEXES + ["--vectors", "admissible.json", "--project", "--format", "json"], 0, ""),
    ("project-zero", SIMPLEXES + ["--vectors", "zero.json", "--project"], 3,
     "invariant violation: zero vector at index 3 cannot be projected\n"),
    ("project-parallel", SIMPLEXES + ["--vectors", "parallel.json", "--project"], 3,
     "invariant violation: parallel vectors at indices 0 and 4\n"),
    ("construct-parallel-pairs-10", ["construct", "parallel-pairs", "10"], 0, ""),
    ("construct-parallel-pairs-11", ["construct", "parallel-pairs", "11"], 0, ""),
    ("construct-inplane-generic-3-9", ["construct", "inplane-generic", "3", "9"], 0, ""),
    ("construct-cone-2-7", ["construct", "cone", "2", "7"], 0, ""),
    ("construct-two-lines-7", ["construct", "two-lines", "7"], 0, ""),
    ("construct-two-disjoint-edges-2-3", ["construct", "two-disjoint-edges", "2", "3"], 0, ""),
    ("verify-constructions", ["verify", "--suite", "constructions"], 0, ""),
    ("verify-sperner", ["verify", "--suite", "sperner"], 0, ""),
    ("react-report-text", ["react", "species.txt", "--report"], 0, ""),
    ("react-report-json", ["react", "species.txt", "--report", "--format", "json"], 0, ""),
    ("sperner-deficit-text", ["sperner", "--hypergraph", "h.json", "-k", "3", "--deficit"], 0, ""),
    ("sperner-deficit-json",
     ["sperner", "--hypergraph", "h.json", "-k", "3", "--deficit", "--format", "json"], 0, ""),
    ("search-6-2-free-text", ["search", "6", "2", "--free", "--workers", "1"], 0, ""),
    ("search-6-2-free-json",
     ["search", "6", "2", "--free", "--workers", "1", "--format", "json"], 0, ""),
    # text on stdout, the JSON SearchResult in the file
    ("search-6-2-free-out",
     ["search", "6", "2", "--free", "--workers", "1", "--out", "result.json"], 0, ""),
    ("search-6-3-free-json",
     ["search", "6", "3", "--free", "--workers", "1", "--format", "json"], 0, ""),
    ("search-7-2-linear-json", ["search", "7", "2", "--linear", "--format", "json"], 0, ""),
    ("search-6-3-linear-text", ["search", "6", "3", "--linear"], 0, ""),
    ("search-7-3-linear-json", ["search", "7", "3", "--linear", "--format", "json"], 0, ""),
    # two witness classes
    ("search-8-5-linear-text", ["search", "8", "5", "--linear"], 0, ""),
    ("verify-s-small", ["verify", "--suite", "s-small"], 0, ""),
]


def _write_inputs(directory) -> None:
    for name, text in INPUTS.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _golden_path(case: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{case}.out")


def _written(directory) -> dict[str, bytes]:
    """The bytes of each file in directory that is not one of the inputs."""
    out = {}
    for name in sorted(set(os.listdir(directory)) - set(INPUTS)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _golden_files(case: str) -> dict[str, bytes]:
    directory = os.path.join(GOLDEN_DIR, case)
    return _written(directory) if os.path.isdir(directory) else {}


@pytest.mark.parametrize("case,argv,code,err", CASES, ids=[c[0] for c in CASES])
def test_golden_output(case, argv, code, err, tmp_path, monkeypatch, capsys):
    _write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    got_code = main(argv)
    captured = capsys.readouterr()
    with open(_golden_path(case), encoding="utf-8") as fh:
        assert captured.out == fh.read()
    assert (got_code, captured.err) == (code, err)
    assert _written(tmp_path) == _golden_files(case)


def test_search_out_writes_the_json_stdout():
    with open(_golden_path("search-6-2-free-json"), "rb") as fh:
        assert _golden_files("search-6-2-free-out") == {"result.json": fh.read()}
    with open(_golden_path("search-6-2-free-text"), "rb") as fh, \
            open(_golden_path("search-6-2-free-out"), "rb") as out:
        assert out.read() == fh.read()


@pytest.mark.parametrize("points", ["plane.csv", "flat.json"])
def test_counts_only_json_is_the_head_of_the_full_json(points, tmp_path, monkeypatch, capsys):
    # counts-only output comes from the hyperplane count, the full one from the scan
    # (flat.json has a collinear triple, so its count falls back to the scan too)
    _write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    argv = ["simplexes", "--points", points, "--format", "json"]
    assert main(argv) == 0
    full = json.loads(capsys.readouterr().out)
    assert main(argv + ["--counts-only"]) == 0
    out = capsys.readouterr().out
    del full["simplexes"]
    assert out == json.dumps(full, indent=1, sort_keys=True) + "\n"


def _assert_new_interpreter_matches_golden(case, argv, tmp_path, env=None):
    proc = run_python(
        f"import sys; from minsimplex.cli import main; sys.exit(main({argv!r}))",
        cwd=tmp_path, env=env,
    )
    with open(_golden_path(case), encoding="utf-8") as fh:
        assert proc.stdout == fh.read()
    assert (proc.returncode, proc.stderr) == (0, "")


def test_free_search_with_worker_processes(tmp_path):
    # --workers is accepted and ignored; a new interpreter has not imported
    # numpy before the search starts.
    argv = ["search", "6", "3", "--free", "--workers", "2", "--format", "json"]
    _assert_new_interpreter_matches_golden("search-6-3-free-json", argv, tmp_path)


def test_free_search_is_exact_with_one_blas_thread(tmp_path):
    # the scores are exact, so one explicit BLAS and OpenMP thread gives the
    # golden bytes
    argv = ["search", "6", "3", "--free", "--format", "json"]
    env = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    _assert_new_interpreter_matches_golden("search-6-3-free-json", argv, tmp_path, env)


_BLAS_THREADS_AFTER_SEARCH = """
import contextlib, io, os
from minsimplex.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["search", "7", "2", "--free"]) == 0
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(os.environ["OPENBLAS_NUM_THREADS"], tasks)
"""


def test_cli_runs_free_search_on_one_blas_thread(tmp_path):
    # the variable is removed, not inherited: an in-process main sets it in
    # this test process's own environment
    proc = run_python(_BLAS_THREADS_AFTER_SEARCH, cwd=tmp_path, env={"OPENBLAS_NUM_THREADS": None})
    assert (proc.returncode, proc.stderr) == (0, "")
    value, tasks = proc.stdout.split()
    assert value == "1"
    if tasks == "None":
        pytest.skip("no /proc/self/task to count the threads")
    assert tasks == "1"


def test_cli_keeps_a_preset_blas_thread_count(tmp_path):
    proc = run_python(_BLAS_THREADS_AFTER_SEARCH, cwd=tmp_path, env={"OPENBLAS_NUM_THREADS": "2"})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split()[0] == "2"
    # the scores are exact, so two BLAS threads print the same bytes
    argv = ["search", "6", "3", "--free", "--format", "json"]
    env = {"OPENBLAS_NUM_THREADS": "2"}
    _assert_new_interpreter_matches_golden("search-6-3-free-json", argv, tmp_path, env)


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for case, argv, _, _ in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            _write_inputs(tmp)
            cwd = os.getcwd()
            os.chdir(tmp)
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    main(argv)
            finally:
                os.chdir(cwd)
            files = _written(tmp)
        with open(_golden_path(case), "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())
        print(f"wrote {_golden_path(case)}", file=sys.stderr)
        directory = os.path.join(GOLDEN_DIR, case)
        if files:
            os.makedirs(directory, exist_ok=True)
        for name, data in files.items():
            with open(os.path.join(directory, name), "wb") as fh:
                fh.write(data)
            print(f"wrote {os.path.join(directory, name)}", file=sys.stderr)
