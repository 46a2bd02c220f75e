import itertools
import json
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from minsimplex import cli, extremal, geometry, hypergraph, matroid
from minsimplex.cli import main
from minsimplex.errors import InputError, InvariantError
from minsimplex.exactla import vector_to_json

from support import random_deficient_rows, random_set_family, run_python


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_points(tmp_path, name="pts.json"):
    path = tmp_path / name
    pts = [[str(t), str(t * t), "0"] for t in range(1, 9)]
    path.write_text(json.dumps({"dimension": 3, "points": pts}))
    return str(path)


def test_simplexes_points(tmp_path, capsys):
    path = write_points(tmp_path)
    code, out, _ = run(capsys, "simplexes", "--points", path)
    assert code == 0
    assert "size 4: 70" in out and "total: 70" in out


def test_simplexes_json_and_csv(tmp_path, capsys):
    path = write_points(tmp_path)
    code, out, _ = run(capsys, "simplexes", "--points", path, "--format", "json",
                       "--counts-only")
    assert code == 0
    obj = json.loads(out)
    assert obj["counts"] == {"4": 70}
    assert "simplexes" not in obj
    code, out, _ = run(capsys, "simplexes", "--points", path, "--format", "csv")
    assert code == 0
    assert out.splitlines()[:2] == ["size,count", "4,70"]


def test_simplexes_empty_file_exit_2(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("")
    code, _, err = run(capsys, "simplexes", "--points", str(path))
    assert code == 2
    assert "input error" in err


_POINTS = ("simplexes", "--points")
_VECTORS = ("simplexes", "--vectors")
_HYPERGRAPH = ("sperner", "-k", "2", "--hypergraph")
_REACT = ("react",)


@pytest.mark.parametrize("argv, text", [
    (_POINTS, '{"dimension": "x", "points": [[1]]}'),
    (_POINTS, '{"dimension": 2.5, "points": [[1, 2]]}'),
    (_POINTS, '{"dimension": true, "points": [[1]]}'),
    (_POINTS, '{"dimension": 1, "points": [1, 2]}'),
    (_POINTS, '{"dimension": 1, "points": [[true], [2]]}'),
    (_POINTS, '[[1], [2]]'),
    (_POINTS, '{"dimension": 1, "points": [[1]'),
    (_VECTORS, '{"dimension": "x", "vectors": [[1]]}'),
    (_VECTORS, '{"dimension": 2.5, "vectors": [[1, 2]]}'),
    (_VECTORS, '{"dimension": true, "vectors": [[1]]}'),
    (_VECTORS, '{"dimension": 2, "vectors": [1, 2]}'),
    (_VECTORS, '{"vectors": [[1]]}'),
    (_VECTORS, '[[1, 0]]'),
    (_VECTORS, '{"dimension": 2,'),
    (_HYPERGRAPH, '{"n": "x", "edges": [[0, 1]]}'),
    (_HYPERGRAPH, '{"n": 2.5, "edges": [[0, 1]]}'),
    (_HYPERGRAPH, '{"n": true, "edges": [[0]]}'),
    (_HYPERGRAPH, '{"n": 3, "edges": [[0, 1.5]]}'),
    (_HYPERGRAPH, '{"n": 3, "edges": [0, 1]}'),
    (_HYPERGRAPH, '[[0, 1]]'),
    (_HYPERGRAPH, '{"n": 3'),
    (_REACT, '[{"name": "a", "composition": [1.5, 0]}, {"name": "b", "composition": [3, 0]}]'),
    (_REACT, '[{"name": "a", "composition": ["x"]}]'),
    (_REACT, '[{"name": "a", "composition": [true, 1]}]'),
    (_REACT, '[{"name": "a", "composition": 5}]'),
    (_REACT, '[1, 2]'),
    (_REACT, '[{"formula": 5}]'),
    (_REACT, '[{"formula": "H2O"'),
    (_VECTORS, '{"dimension": 1, "vectors": [["x"], [2]]}'),
    (_POINTS, '{"dimension": 1, "points": [[1], [2], ["1/0"]]}'),
    (_VECTORS, '{"dimension": 1, "vectors": [[1], [0.5]]}'),
    (_POINTS, '{"dimension": 1, "vectors": [[1], [2]]}'),
    (_REACT, '[{"name": "a", "composition": [1, 0]}, {"name": "b", "composition": [1]}]'),
    (_HYPERGRAPH, '{"n": -2, "edges": []}'),
    (_REACT, '[{"name": "hydrogen", "formula": "H2"}, {"name": "mystery", "composition": [0, 2]}]'),
    pytest.param(_REACT, '[{"formula": "C' + "9" * 5000 + 'H4"}]', id="count-of-5000-digits"),
    pytest.param(_REACT, '[{"formula": "(CH2)' + "9" * 5000 + '"}]', id="group-multiplier-of-5000-digits"),
    (_HYPERGRAPH, '{"n": 3, "edges": [[0, 5]]}'),
    (_HYPERGRAPH, '{"n": 3, "edges": [[0, 0]]}'),
    (_HYPERGRAPH, '{"n": 3, "edges": [[]]}'),
    (_REACT, '[{"name": 5, "formula": "H2"}, {"formula": "H"}]'),
    (_REACT, '[{"name": 5, "composition": [1]}, {"composition": [2]}]'),
    pytest.param(("react", "--universe", "H,O,H"), '[{"formula": "H2O"}]', id="universe-repeats-a-symbol"),
    pytest.param(("react", "--universe", "H,,O"), '[{"formula": "H2O"}]', id="universe-with-an-empty-symbol"),
    pytest.param(_REACT, '[{"name": "a", "composition": [1, -1]}, {"name": "b", "composition": [2, 0]}]',
                 id="negative-atom-count"),
    pytest.param(_REACT, '[{"name": "a", "composition": [0, 0]}, {"name": "b", "composition": [2, 0]}]',
                 id="all-zero-composition"),
])
def test_malformed_input_exit_2(tmp_path, capsys, argv, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert err.startswith("input error:")
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("argv, name, data", [
    (_REACT, "species.txt", b"\xff\xfeH2O\n"),
    (_POINTS, "pts.csv", b"1,\xff\n"),
    (_POINTS, "pts.json", b'{"dimension": 2, "points": [[1, 2], [3]]}'),
    (_POINTS, "pts.csv", b"1,2\n3\n"),
    (_VECTORS, "vecs.json", b'{"dimension": 2, "vectors": [[1, 2], [3]]}'),
    (_POINTS, "pts.json", b'{"dimension": -1, "points": []}'),
    (_VECTORS, "vecs.json", b'{"dimension": -1, "vectors": []}'),
])
def test_undecodable_ragged_or_negative_dimension_input_exit_2(tmp_path, capsys, argv, name, data):
    # text that is not UTF-8, rows of different lengths, and a negative dimension
    path = tmp_path / name
    path.write_bytes(data)
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert err.startswith("input error:")
    assert "Traceback" not in err and out == ""


def test_simplexes_duplicate_points_exit_3(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"dimension": 1, "points": [["1"], ["1"]]}))
    code, _, err = run(capsys, "simplexes", "--points", str(path))
    assert code == 3
    assert "duplicate points" in err


def test_simplexes_points_with_project_exit_2(tmp_path, capsys):
    # --project projects vectors; on points it used to be ignored
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"dimension": 5, "points": [[0] * 5, [1, 1, 0, 0, 0], [2, 2, 0, 0, 0]]}))
    code, out, err = run(capsys, "simplexes", "--points", str(path), "--project")
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "--vectors" in err


def test_simplexes_vectors_with_projection(tmp_path, capsys):
    path = tmp_path / "vecs.json"
    path.write_text(json.dumps({"dimension": 2, "vectors": [[1, 0], [0, 1], [1, 1]]}))
    code, out, _ = run(capsys, "simplexes", "--vectors", str(path), "--project",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["match"] is True
    assert obj["circuits"]["total"] == obj["projected"]["total"] == 1


def test_simplexes_project_refuses_before_the_scan(tmp_path, capsys, monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("circuit scan called")

    monkeypatch.setattr(matroid, "circuit_supports", scan)
    monkeypatch.setattr(matroid, "enumerate_circuits", scan)
    monkeypatch.setattr(matroid, "_scan", scan)  # the count's own scan
    refusals = {
        "zero vector at index 2 cannot be projected": (3, [[1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 1]]),
        "parallel vectors at indices 0 and 4": (3, [[1, 2, 0], [0, 1, 1], [0, -2, -2], [3, 0, 1], [-2, -4, 0]]),
        "a configuration in R^0 cannot be projected": (0, []),
    }
    for message, (dimension, vectors) in refusals.items():
        path = tmp_path / "refused.json"
        path.write_text(json.dumps({"dimension": dimension, "vectors": vectors}))
        for fmt in (("text",), ("json",), ("json", "--counts-only")):
            code, out, err = run(capsys, "simplexes", "--vectors", str(path), "--project", "--format", *fmt)
            assert (code, out, err) == (3, "", f"invariant violation: {message}\n")


@pytest.mark.parametrize("labels", [["a", "b", "c", "d"], ["a", "a"], [1, 2, 3, 4], 5, None])
def test_a_labels_key_changes_no_output(tmp_path, capsys, labels):
    # rows are named by their indices; a "labels" key, well-formed or not, is
    # ignored like any other key that is not read
    files = {
        "--points": {"dimension": 2, "points": [[0, 0], [1, 0], [2, 0], [0, 1]]},
        "--vectors": {"dimension": 3, "vectors": [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]},
    }
    path = tmp_path / "rows.json"
    for option, obj in files.items():
        for project in ((), ("--project",)) if option == "--vectors" else ((),):
            for fmt in (("text",), ("csv",), ("json",), ("json", "--counts-only")):
                if project and fmt == ("csv",):
                    continue
                argv = ("simplexes", option, str(path), *project, "--format", *fmt)
                path.write_text(json.dumps(obj))
                plain = run(capsys, *argv)
                path.write_text(json.dumps(dict(obj, labels=labels)))
                assert run(capsys, *argv) == plain
                assert plain[0] == 0 and plain[1]


def test_simplexes_vectors_computes_coefficients_only_when_printed(tmp_path, capsys, monkeypatch):
    path = tmp_path / "vecs.json"
    path.write_text(json.dumps({"dimension": 3, "vectors": [
        [1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 2, 3], [2, 1, "1/2"],
    ]}))
    calls, kernels = [], []
    enumerate_circuits, nullspace_basis = matroid.enumerate_circuits, matroid.nullspace_basis
    monkeypatch.setattr(matroid, "enumerate_circuits",
                        lambda cfg: calls.append(cfg) or enumerate_circuits(cfg))
    monkeypatch.setattr(matroid, "nullspace_basis",
                        lambda rows: kernels.append(rows) or nullspace_basis(rows))
    outputs, enumerations = {}, {}
    for project in ((), ("--project",)):
        for fmt in (("text",), ("csv",), ("json", "--counts-only"), ("json",)):
            if project and fmt == ("csv",):  # refused: --project has no csv form
                continue
            calls.clear()
            code, out, _ = run(capsys, "simplexes", "--vectors", str(path), *project, "--format", *fmt)
            assert code == 0
            outputs[project + fmt], enumerations[project + fmt] = out, len(calls)
    # coefficients only in the two modes that print them, and those come
    # from the scan itself, not from a kernel per circuit
    full = json.loads(outputs[("json",)])
    assert full["total"] == 13
    assert enumerations == {mode: 1 if mode[-1] == "json" else 0 for mode in outputs}
    assert kernels == []
    counts_only = json.loads(outputs[("json", "--counts-only")])
    assert counts_only == {k: v for k, v in full.items() if k != "circuits"}
    projected = json.loads(outputs[("--project", "json")])
    assert projected["circuits"] == full and projected["match"]


def test_simplexes_vectors_counts_make_no_scan_under_the_hypothesis(tmp_path, capsys, monkeypatch):
    # no two of these vectors are parallel, and four of them lie on the plane z = 0
    path = tmp_path / "vecs.json"
    path.write_text(json.dumps({"dimension": 3, "vectors": [
        [1, 0, 0], [0, 1, 0], [1, 1, 0], [2, -1, 0], [0, 0, 1], [1, 2, 3], [2, 1, "1/2"],
    ]}))

    def scan(*args, **kwargs):
        raise AssertionError("circuit scan called")

    monkeypatch.setattr(matroid, "circuit_supports", scan)
    code, out, _ = run(capsys, "simplexes", "--vectors", str(path), "--format", "json")
    full = json.loads(out)  # the listing, from the scan with coefficients
    assert code == 0 and full["total"] == len(full["circuits"]) == 26
    monkeypatch.setattr(matroid, "_scan", scan)  # the count's own scan
    counts = {int(size): count for size, count in full["counts"].items()}
    assert counts == {3: 4, 4: 22}
    outputs = {}
    for fmt in (("text",), ("csv",), ("json", "--counts-only")):
        code, outputs[fmt], _ = run(capsys, "simplexes", "--vectors", str(path), "--format", *fmt)
        assert code == 0
    assert outputs[("text",)] == "size 3: 4\nsize 4: 22\ntotal: 26\n"
    assert outputs[("csv",)] == "size,count\n3,4\n4,22\n"
    counts_only = json.loads(outputs[("json", "--counts-only")])
    assert counts_only == {k: v for k, v in full.items() if k != "circuits"}


def test_construct_self_check(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "construct", "parallel-pairs", "10")
    assert code == 0
    assert "expected 106, enumerated 106" in out
    sidecar = json.loads((tmp_path / "parallel-pairs-10.counts.json").read_text())
    assert sidecar["agree"] is True
    config = json.loads((tmp_path / "parallel-pairs-10.json").read_text())
    assert config["dimension"] == 3 and len(config["points"]) == 10


def test_construct_parallel_pairs_counts_from_one_walk(tmp_path, capsys, monkeypatch):
    # the build is a formula; the count takes the one walk and checks the closed form
    walks, walk = [], matroid.hyperplane_walk

    def recording(*args, **kwargs):
        walks.append((args[1], False))
        yield from walk(*args, **kwargs)
        walks[-1] = (args[1], True)

    def scan(*args, **kwargs):
        raise AssertionError("circuit scan called")

    monkeypatch.setattr(matroid, "hyperplane_walk", recording)
    monkeypatch.setattr(matroid, "circuit_supports", scan)
    monkeypatch.setattr(matroid, "_scan", scan)  # the count's own scan
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "construct", "parallel-pairs", "30")
    assert code == 0 and "expected 23401, enumerated 23401" in out
    assert walks == [(4, True)]  # one walk of the lift in R^4, read to its end


def test_construct_cone(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "construct", "cone", "3", "9")
    assert code == 0
    assert "expected 70, enumerated 70" in out


def test_construct_two_disjoint_edges(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "construct", "two-disjoint-edges", "2", "3")
    assert code == 0
    assert "expected 2/5, enumerated 2/5" in out


def test_construct_wrong_arity_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "construct", "cone", "9")
    assert code == 2
    assert "two integers" in err


@pytest.mark.parametrize("argv, message", [
    (("two-disjoint-edges", "3"), "two-disjoint-edges takes two integers: k n"),
    (("parallel-pairs", "8", "9"), "parallel-pairs takes a single integer n"),
])
def test_construct_wrong_arity_names_the_parameters(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "construct", *argv) == (2, "", f"input error: {message}\n")
    assert not list(tmp_path.iterdir())


def test_construct_two_lines(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "construct", "two-lines", "8")
    assert code == 0
    assert "expected 31, enumerated 31" in out


def test_construct_infeasible_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "construct", "parallel-pairs", "5")
    assert code == 2
    assert "n >= 6" in err
    code, _, err = run(capsys, "construct", "inplane-generic", "3", "-1")
    assert code == 2
    assert "n >= 0" in err
    with pytest.raises(InputError, match="n >= 0"):
        extremal.expected_count(extremal.ConstructionId("inplane-generic", d=3), -1)
    assert not list(tmp_path.iterdir())
    code, out, _ = run(capsys, "construct", "inplane-generic", "3", "0")
    assert code == 0
    assert "expected 0, enumerated 0" in out


def test_construct_two_disjoint_edges_refuses_level_1(tmp_path, capsys):
    # at k = 1 the closed form counts each cross pair twice (2/5 at n = 3, where the sum is 1)
    code, out, err = run(capsys, "construct", "two-disjoint-edges", "1", "3",
                         "--out", str(tmp_path / "tde"))
    assert (code, out) == (2, "")
    assert err == "input error: two-disjoint-edges needs a level k >= 2\n"
    assert not list(tmp_path.iterdir())


# (kind, the box of its parameter lists), 198 runs in all
_CONSTRUCT_BOX = (
    ("inplane-generic", [(d, n) for d in range(6) for n in range(10)]),
    ("cone", [(d, n) for d in range(6) for n in range(10)]),
    ("parallel-pairs", [(n,) for n in range(12)]),
    ("two-lines", [(n,) for n in range(12)]),
    ("two-disjoint-edges", [(k, n) for k in range(6) for n in range(9)]),
)


@pytest.mark.parametrize("kind, box", _CONSTRUCT_BOX, ids=[kind for kind, _ in _CONSTRUCT_BOX])
def test_construct_box_sweep_computes_or_refuses(tmp_path, capsys, kind, box):
    # every accepted parameter list meets its closed form; the rest are input errors
    for params in box:
        argv = ["construct", kind, *map(str, params), "--out", str(tmp_path / "c")]
        code, out, err = run(capsys, *argv)
        assert code in (0, 2), (argv, code, err)
        if code == 2:
            assert out == "" and err.startswith("input error: "), (argv, out, err)
            continue
        head = out.splitlines()[0]
        expected, enumerated = head.split(": expected ")[1].split(", enumerated ")
        assert expected == enumerated, (argv, head)


_REFUSALS = {2: "input error: ", 3: "invariant violation: "}


def _sweep(capsys, runs) -> Counter:
    """Exit codes of cli.main over the argument lists `runs`. An uncaught
    exception, which would end the command in a traceback, fails the test;
    so does any exit other than 0, 2 and 3 (README's success, input error
    and invariant violation), a refusal without its message, or a json
    document that does not parse."""
    codes = Counter()
    for argv in runs:
        code, out, err = run(capsys, *argv)
        assert code in (0, 2, 3), (argv, code, err)
        if code:
            assert err.startswith(_REFUSALS[code]), (argv, err)
        elif "json" in argv:
            json.loads(out)
        codes[code] += 1
    return codes


def test_simplexes_box_sweep_exits_cleanly(tmp_path, capsys):
    # points and vectors with entries in {-1, 0, 1}: duplicate points, loops,
    # parallel pairs, R^0 and the empty set all meet every output form
    rng = random.Random(2601)
    runs = []
    for key in ("points", "vectors"):
        for dim in range(4):
            for n in range(6):
                for seed in range(2):
                    rows = [[rng.choice((-1, 0, 1)) for _ in range(dim)] for _ in range(n)]
                    path = tmp_path / f"{key}-{dim}-{n}-{seed}.json"
                    path.write_text(json.dumps({"dimension": dim, key: rows}))
                    for form in (["text"], ["json"], ["csv"], ["json", "--counts-only"]):
                        for project in ([], ["--project"]):
                            runs.append(["simplexes", f"--{key}", str(path), "--format", *form, *project])
    codes = _sweep(capsys, runs)
    assert set(codes) == {0, 2, 3}, codes


def test_search_box_sweep_exits_cleanly(capsys, monkeypatch):
    monkeypatch.delenv("MINSIMPLEX_BUDGET_BITS", raising=False)
    runs = [
        ["search", str(n), str(k), flavor, "--format", form]
        for n in range(7) for k in range(5)
        for flavor in ("--linear", "--free") for form in ("text", "json", "csv")
    ]
    codes = _sweep(capsys, runs)
    assert set(codes) == {0, 2}, codes


def test_sperner_box_sweep_exits_cleanly(tmp_path, capsys):
    # empty, full-edge and one-pair hypergraphs; an empty edge (n = 0) and a
    # pair on fewer than 2 vertices are refused
    runs = []
    for n in range(5):
        for name, edges in (("empty", []), ("full", [list(range(n))]), ("pair", [[0, 1]])):
            path = tmp_path / f"{name}-{n}.json"
            path.write_text(json.dumps({"n": n, "edges": edges}))
            for k in range(n + 2):
                for options in ([], ["--counts-only"], ["--deficit"], ["--counts-only", "--deficit"]):
                    for form in ("text", "json", "csv"):
                        runs.append(["sperner", "--hypergraph", str(path), "-k", str(k),
                                     "--format", form, *options])
    codes = _sweep(capsys, runs)
    assert set(codes) == {0, 2}, codes


# species files for the react sweep: empty, all-zero, negative and repeated
# species, an element outside a universe, an isomer pair, and files with
# reactions and without
_SPECIES_FILES = {
    "empty.txt": "",
    "empty.json": "[]",
    "one.txt": "H2O\n",
    "water.txt": "H2\nO2\nH2O\n",
    "isomers.json": '[{"name": "ethanol", "formula": "C2H6O"}, {"name": "ether", "formula": "C2H6O"}]',
    "zero.json": '[{"name": "z", "composition": [0, 0]}, {"name": "w", "composition": [1, 0]}]',
    "negative.json": '[{"name": "a", "composition": [1, -1]}, {"name": "b", "composition": [1, 1]}]',
    "outside.txt": "H2\nO2\nNaCl\n",
    "repeated.txt": "H2O\nH2\nH2O\n",
    "raw.json": '[{"name": "a", "composition": [1, 0]}, {"name": "b", "composition": [0, 1]}, '
                '{"name": "ab", "composition": [1, 1]}]',
}


def test_react_box_sweep_exits_cleanly(tmp_path, capsys):
    # NaCl lies outside --universe H,O,C
    runs = []
    for name, text in _SPECIES_FILES.items():
        path = tmp_path / name
        path.write_text(text)
        for universe in ([], ["--universe", "H,O,C"]):
            for form in ("text", "json"):
                for report in ([], ["--report"]):
                    runs.append(["react", str(path), "--format", form, *universe, *report])
    codes = _sweep(capsys, runs)
    assert set(codes) == {0, 2}, codes


def test_verify_box_sweep_exits_cleanly(capsys):
    # csv is the s-small value table; the other suites refuse it
    runs = [["verify", "--suite", suite, "--format", form]
            for suite in ("constructions", "sperner", "s-small") for form in ("text", "csv")]
    codes = _sweep(capsys, runs)
    assert codes == Counter({0: 4, 2: 2}), codes


def test_search_free(capsys):
    code, out, _ = run(capsys, "search", "5", "2", "--free", "--workers", "1")
    assert code == 0
    assert "s'(5,2) = 2/5" in out
    assert "agrees" in out


def test_search_linear_lemma(capsys):
    code, out, _ = run(capsys, "search", "4", "3", "--linear", "--workers", "1")
    assert code == 0
    assert "s(4,3) = 1/4" in out


def test_search_budget_exit_4(capsys):
    # C(9,2) = 36 k-sets: past the default budget 2^25, within int64 masks
    code, _, err = run(capsys, "search", "9", "2", "--free")
    assert code == 4
    assert "budget" in err


def test_search_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("MINSIMPLEX_BUDGET_BITS", "10")
    code, _, err = run(capsys, "search", "6", "2", "--free", "--workers", "1")
    assert code == 4
    monkeypatch.setenv("MINSIMPLEX_BUDGET_BITS", "15")
    code, out, _ = run(capsys, "search", "6", "2", "--free", "--workers", "1")
    assert code == 0


def test_search_negative_budget_exit_2(capsys, monkeypatch):
    # refused before either search starts, by option or by environment
    for flavor in ("--linear", "--free"):
        code, _, err = run(capsys, "search", "3", "2", flavor, "--budget", "-1")
        assert code == 2
        assert "budget" in err
    monkeypatch.setenv("MINSIMPLEX_BUDGET_BITS", "-1")
    for flavor in ("--linear", "--free"):
        code, _, err = run(capsys, "search", "3", "2", flavor)
        assert code == 2
        assert "budget" in err


def test_search_budget_env_that_is_no_integer_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("MINSIMPLEX_BUDGET_BITS", "abc")
    message = "input error: MINSIMPLEX_BUDGET_BITS must be an integer, got 'abc'\n"
    assert run(capsys, "search", "5", "2", "--free") == (2, "", message)


@pytest.mark.parametrize("form", ["text", "csv", "json"])
def test_search_out_writes_the_json_result_beside_any_format(tmp_path, capsys, monkeypatch, form):
    # stdout is the same with and without --out, and the file is the json stdout
    monkeypatch.chdir(tmp_path)
    argv = ("search", "6", "2", "--free", "--workers", "1")
    plain = run(capsys, *argv, "--format", form)
    assert plain[0] == 0
    assert run(capsys, *argv, "--format", form, "--out", "result.json") == plain
    code, json_out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert (tmp_path / "result.json").read_text(encoding="utf-8") == json_out


def test_search_csv(capsys):
    code, out, _ = run(capsys, "search", "5", "2", "--free", "--format", "csv",
                       "--workers", "1")
    assert code == 0
    assert out.splitlines() == ["n,k,flavor,minimum,approx", "5,2,s_prime,2/5,0.400000"]


def test_verify_s_small_csv(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "s-small", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,s,s_prime,closed_form"
    assert lines[1] == "3,2,1/3,1/3,1/3"
    assert lines[-1].startswith("5,4,1/5,1/5")


def test_search_json_deterministic(tmp_path, capsys):
    code, out1, _ = run(capsys, "search", "5", "2", "--free", "--format", "json",
                        "--workers", "1")
    code2, out2, _ = run(capsys, "search", "5", "2", "--free", "--format", "json",
                         "--workers", "2")
    assert code == code2 == 0
    assert out1 == out2


def test_search_free_output_ignores_workers(capsys):
    outputs = []
    for workers in (["--workers", "1"], ["--workers", "2"], []):
        code, out, _ = run(capsys, "search", "6", "3", "--free", "--format", "json", *workers)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_react_water(tmp_path, capsys):
    path = tmp_path / "species.txt"
    path.write_text("H2\nO2\nH2O\n")
    code, out, _ = run(capsys, "react", str(path))
    assert code == 0
    assert out.strip() == "2 H2 + O2 -> 2 H2O"


def test_react_single_species_empty(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("H2O\n")
    code, out, _ = run(capsys, "react", str(path))
    assert code == 0
    assert out.strip() == ""


@pytest.mark.parametrize("name, text", [("species.txt", ""), ("species.json", "[]")])
def test_react_refuses_an_empty_species_file(tmp_path, capsys, name, text):
    # an empty JSON list used to print "species: 0, rank: 0, ..." at exit 0
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "react", str(path), "--report")
    assert (code, out, err) == (2, "", f"input error: {path}: no species found\n")


@pytest.mark.parametrize("name, text, first, second, species", [
    pytest.param("species.json", '[{"name": "a", "composition": [1]}, {"name": "a", "composition": [2]}]',
                 0, 1, "a", id="json-names"),
    pytest.param("species.txt", "H2O\nH2\n# again\nH2O\n", 0, 2, "H2O", id="text-formulas"),
    pytest.param("species.json", '[{"name": "H2O", "formula": "H2O2"}, {"formula": "H2O"}]',
                 0, 1, "H2O", id="formula-repeats-a-name"),
])
def test_react_refuses_a_repeated_species_name(tmp_path, capsys, name, text, first, second, species):
    # two species of one name printed "2 a -> a" and "H2O -> H2O" at exit 0; the
    # last file repeats an explicit name as a formula-derived one
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "react", str(path))
    message = f"input error: {path}: species {first} and {second} are both named {species!r}\n"
    assert (code, out, err) == (2, "", message)


def test_react_bad_formula_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("H2*\n")
    code, _, err = run(capsys, "react", str(path))
    assert code == 2
    assert "position 2" in err


@pytest.mark.parametrize("name, text, options, located", [
    pytest.param("species.txt", '# not JSON\nH2\n{"a": 1}\n', (),
                 "formula 1: unexpected character '{' (position 0)", id="text-formula"),
    pytest.param("species.txt", "H2\nO2\nNaCl\n", ("--universe", "H,O"),
                 "formula 2: unknown element 'Na' in 'NaCl'; universe is ['H', 'O']",
                 id="text-unknown-element"),
    pytest.param("species.json", '[{"formula": "H2"}, {"formula": "H2)"}]', (),
                 "record 1: unmatched ')' (position 2)", id="json-formula"),
    pytest.param("species.json", '[{"formula": "H2"}, {"formula": "NaCl"}]', ("--universe", "H"),
                 "record 1: unknown element 'Na' in 'NaCl'; universe is ['H']",
                 id="json-unknown-element"),
    pytest.param("species.json", '[{"formula": "H2"}, {"name": "a", "composition": [1, -1]}]', (),
                 "record 1: negative atom count in a: (1, -1)", id="json-negative-atom-count"),
    pytest.param("species.json", '[{"name": "z", "composition": [0]}, {"formula": "H2"}]', (),
                 "record 0: species 'z' has an all-zero composition", id="json-all-zero-composition"),
    pytest.param("species.json", _SPECIES_FILES["raw.json"], ("--universe", "H,O,C"),
                 "record 0: composition of 'a' has 2 atom counts; universe ['H', 'O', 'C'] has 3",
                 id="json-composition-narrower-than-the-universe"),
    pytest.param("species.json", '[{"name": "h", "formula": "H2"}, {"name": "m", "composition": [0, 2]}]',
                 (), "record 1: composition of 'm' has 2 atom counts; universe ['H'] has 1",
                 id="json-composition-wider-than-the-formulas-universe"),
])
def test_react_names_the_file_and_position_of_a_bad_species(
    tmp_path, capsys, name, text, options, located
):
    # a formula error used to name neither the file nor the formula, and a
    # refused composition exited 3 as an invariant violation
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "react", str(path), *options)
    assert (code, out, err) == (2, "", f"input error: {path}: {located}\n")


def test_react_runs_compositions_as_wide_as_the_universe(tmp_path, capsys):
    path = tmp_path / "raw.json"
    path.write_text(_SPECIES_FILES["raw.json"])
    code, out, err = run(capsys, "react", str(path), "--universe", "H,O", "--report", "--format", "json")
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert [r["equation"] for r in obj["reactions"]] == ["a + b -> ab"]
    assert obj["report"]["atom_kinds"] == 2


def test_react_json_with_report(tmp_path, capsys):
    path = tmp_path / "species.txt"
    path.write_text("H2\nO2\nH2O\n")
    code, out, _ = run(capsys, "react", str(path), "--format", "json", "--report")
    assert code == 0
    obj = json.loads(out)
    assert obj["reactions"][0]["equation"] == "2 H2 + O2 -> 2 H2O"
    assert obj["report"]["counts_by_size"] == {"3": 1}


def test_sperner_command(tmp_path, capsys):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"n": 6, "edges": [[0, 1, 2], [3, 4, 5]]}))
    code, out, _ = run(capsys, "sperner", "--hypergraph", str(path), "-k", "2",
                       "--deficit", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["sperner"] is True
    assert obj["yblm_sum"] == "2/5"


def test_sperner_deficit_requires_linearity(tmp_path, capsys):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"n": 5, "edges": [[0, 1, 2], [0, 1, 3]]}))
    code, _, err = run(capsys, "sperner", "--hypergraph", str(path), "-k", "3",
                       "--deficit")
    assert code == 3
    assert "not 2-linear" in err


def test_sperner_deficit_refuses_before_it_lists_e0(tmp_path, capsys, monkeypatch):
    # E0_5 of 40 vertices is C(40, 5) = 658,008 candidates; the refusals come first,
    # k's range before linearity
    def listed(*args):
        raise AssertionError("E0 listed")

    monkeypatch.setattr(hypergraph, "_empty_section", listed)
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"n": 40, "edges": [[0, 1, 2, 3], [0, 1, 2, 4]]}))
    code, out, err = run(capsys, "sperner", "--hypergraph", str(path), "-k", "4", "--deficit")
    assert (code, out) == (3, "")
    assert err == ("invariant violation: hypergraph is not 3-linear: "
                   "edges (0, 1, 2, 3) and (0, 1, 2, 4) share 3 vertices\n")
    code, out, err = run(capsys, "sperner", "--hypergraph", str(path), "-k", "41", "--deficit")
    assert (code, out, err) == (2, "", "input error: k must be in 1..40, got 41\n")


def test_deficit_refusals_come_in_order_before_any_count(tmp_path, capsys, monkeypatch):
    # k out of range, then k < 2, then the first non-linear pair: the same message
    # from semi_simplex_deficit, from the report and from `sperner --deficit`, with
    # no edge size read and no family listed. At k = 1 every edge pair shares
    # k - 1 = 0 vertices, so the k < 2 refusal must come before linearity.
    def counted(*args):
        raise AssertionError("counted before a refusal")

    for name in ("linear_edge_counts", "k_section", "_empty_section"):
        monkeypatch.setattr(hypergraph, name, counted)
    h = hypergraph.Hypergraph(5, ((0, 1, 2), (0, 1, 3)))
    path = tmp_path / "h.json"
    path.write_text(json.dumps(h.to_json_obj()))
    refusals = [
        (6, InputError, 2, "input error: k must be in 1..5, got 6"),
        (1, InputError, 2, "input error: deficit needs k >= 2"),
        (3, InvariantError, 3, "invariant violation: hypergraph is not 2-linear: "
                               "edges (0, 1, 2) and (0, 1, 3) share 2 vertices"),
    ]
    for k, error, code, message in refusals:
        text = message.split(": ", 1)[1]
        with pytest.raises(error) as exc:
            hypergraph.semi_simplex_deficit(h, k)
        assert str(exc.value) == text
        with pytest.raises(error) as exc:
            hypergraph.semi_simplexes(h, k).deficit
        assert str(exc.value) == text
        argv = ("sperner", "--hypergraph", str(path), "-k", str(k), "--deficit")
        for form in ("text", "json"):
            assert run(capsys, *argv, "--format", form) == (code, "", message + "\n"), (k, form)


def test_one_linearity_test_per_question(tmp_path, capsys, monkeypatch):
    # a `sperner --deficit` command, a linear verify_witness and each report of the
    # sperner suite decide (k-1)-linearity once, on their one report, which the
    # counts, the deficit and the witness check all read
    h = hypergraph.from_point_set(extremal.construct(extremal.ConstructionId("parallel-pairs"), 14))
    path = tmp_path / "h.json"
    path.write_text(json.dumps(h.to_json_obj()))
    result = extremal.brute_force_s(6, 2, True)
    calls = []
    first_violation = hypergraph.first_linearity_violation

    def counted(*args):
        calls.append(args)
        return first_violation(*args)

    monkeypatch.setattr(hypergraph, "first_linearity_violation", counted)
    argv = ("sperner", "--hypergraph", str(path), "-k", "4", "--deficit")
    for form in ((), ("--format", "json"), ("--format", "json", "--counts-only")):
        calls.clear()
        code, out, _ = run(capsys, *argv, *form)
        assert (code, len(calls)) == (0, 1), form
        assert "deficit" in out
    calls.clear()
    assert extremal.verify_witness(result, result.witnesses[0])
    assert len(calls) == 1
    calls.clear()
    code, out, _ = run(capsys, "verify", "--suite", "sperner")
    assert (code, len(calls)) == (0, 14)
    assert out.endswith("14/14 checks passed\n")


def test_counts_only_commands_list_no_family(tmp_path, capsys, monkeypatch):
    # text, csv and --counts-only json read the counts, which list neither E_k nor
    # E0_{k+1} on a (k-1)-linear hypergraph; so does the constructions suite, whose
    # two-disjoint-edges checks read the YBLM sum. Their output is the same with
    # both listings refused.
    h = hypergraph.from_point_set(extremal.construct(extremal.ConstructionId("parallel-pairs"), 14))
    report = hypergraph.semi_simplexes(h, 4)
    sizes = (len(report.sections), len(report.empty_sections))
    path = tmp_path / "h.json"
    path.write_text(json.dumps(h.to_json_obj()))
    base = ("sperner", "--hypergraph", str(path), "-k", "4")
    commands = [base, base + ("--format", "csv"), base + ("--format", "json", "--counts-only")]
    commands += [argv + ("--deficit",) for argv in commands]
    want = {argv: run(capsys, *argv) for argv in commands}
    want["verify"] = run(capsys, "verify", "--suite", "constructions")

    def listed(*args):
        raise AssertionError("a family listed")

    monkeypatch.setattr(hypergraph, "k_section", listed)
    monkeypatch.setattr(hypergraph, "_empty_section", listed)
    for argv in commands:
        assert run(capsys, *argv) == want[argv], argv
    assert run(capsys, "verify", "--suite", "constructions") == want["verify"]
    assert want[base][1].splitlines()[:2] == [f"size 4: {sizes[0]}", f"size 5: {sizes[1]}"]
    assert json.loads(want[commands[2]][1])["counts"] == {"4": sizes[0], "5": sizes[1]}
    assert want[commands[4]][0] == 2  # csv has no deficit column
    assert [code for code, _, _ in want.values()].count(0) == len(want) - 1
    assert want["verify"][1].endswith("48/48 checks passed\n")


@pytest.mark.parametrize("argv", [
    ("sperner", "--hypergraph", "missing.json", "-k", "2", "--deficit", "--format", "csv"),
    ("verify", "--suite", "constructions", "--format", "csv"),
    ("verify", "--suite", "sperner", "--format", "csv"),
    ("simplexes", "--vectors", "missing.json", "--project", "--format", "csv"),
])
def test_format_combinations_that_would_drop_output_exit_2(tmp_path, capsys, monkeypatch, argv):
    # csv has no deficit column and no form of a pass/fail report or of a
    # projection comparison; refused before the input file is read or a check runs
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "csv" in err


def test_sperner_json_equals_json_dumps_on_seeded_hypergraphs(tmp_path, capsys):
    # E_k and E0_{k+1} are written from the listing templates; on stdout and in
    # the --out file, with and without the counts, against json.dumps of the
    # dict form. The first two hypergraphs have E_3 = [] and E0_3 = [].
    rng = random.Random(2024)
    Hypergraph = hypergraph.Hypergraph
    hypergraphs = [(3, Hypergraph(5, ((0, 1), (2, 3)))), (2, Hypergraph(4, ((0, 1, 2, 3),)))]
    for trial in range(30):
        k = rng.randint(2, 4)
        n = rng.randint(k + 1, 9)
        if trial % 2:
            hypergraphs.append((k, Hypergraph(n, random_set_family(rng, n))))
        else:
            hypergraphs.append((k, hypergraph.random_linear_hypergraph(rng, n, k)))
    seen = Counter()
    for k, h in hypergraphs:
        path = tmp_path / "h.json"
        path.write_text(json.dumps(h.to_json_obj()))
        report = hypergraph.semi_simplexes(h, k)
        total = hypergraph.yblm_sum(report.family, h.n)
        want = {
            "n": h.n,
            "k": k,
            "counts": {str(k): len(report.sections), str(k + 1): len(report.empty_sections)},
            "total": len(report.family),
            "sections": [list(s) for s in report.sections],
            "empty_sections": [list(s) for s in report.empty_sections],
            "sperner": True,
            "yblm_sum": f"{total.numerator}/{total.denominator}",
        }
        argv = ("sperner", "--hypergraph", str(path), "-k", str(k), "--format", "json")
        if hypergraph.is_q_linear(h, k - 1):
            deficit = hypergraph.semi_simplex_deficit(h, k)
            _listed(capsys, tmp_path, argv + ("--deficit",),
                    dict(want, deficit=f"{deficit.numerator}/{deficit.denominator}"))
            seen["linear"] += 1
        else:
            seen["not linear"] += 1
        _listed(capsys, tmp_path, argv, want)
        del want["sections"], want["empty_sections"]
        _listed(capsys, tmp_path, argv + ("--counts-only",), want)
        seen["no section"] += not report.sections
        seen["no empty section"] += not report.empty_sections
    assert all(seen[key] for key in ("linear", "not linear", "no section", "no empty section")), seen


def test_verify_s_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "s-small")
    assert code == 0
    assert "FAIL" not in out
    # --workers belongs to `search` only
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "s-small", "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_verify_constructions(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "constructions")
    assert code == 0
    assert "FAIL" not in out and "PASS" in out


def test_verify_sperner(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "sperner")
    assert code == 0
    assert "FAIL" not in out


def test_simplexes_out_file(tmp_path, capsys):
    path = write_points(tmp_path)
    out_file = tmp_path / "report.txt"
    code, printed, _ = run(capsys, "simplexes", "--points", path, "--out", str(out_file))
    assert code == 0
    assert "total: 70" in out_file.read_text()


def test_output_byte_identical_across_runs(tmp_path, capsys):
    path = write_points(tmp_path)
    _, out1, _ = run(capsys, "simplexes", "--points", path, "--format", "json")
    _, out2, _ = run(capsys, "simplexes", "--points", path, "--format", "json")
    assert out1 == out2


def test_cli_import_does_not_import_numpy():
    # only the free search uses numpy; every other command skips its import
    proc = run_python("import minsimplex.cli, sys; assert 'numpy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def _loaded_modules(imports: str) -> set[str]:
    proc = run_python(f"import sys, {imports}; print(' '.join(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every cold command pays for what importing cli loads; dataclasses alone pulls in
    # inspect, ast, dis and tokenize. A new interpreter, since pytest imports dataclasses,
    # compared with one importing stdlib modules cli needs, so a site hook cannot fail it
    added = _loaded_modules("minsimplex.cli") - _loaded_modules("argparse, csv, fractions, json")
    assert not {"dataclasses", "inspect"} & added, sorted(added)


# per subcommand: --help, each required argument left out, an unknown option,
# an extra positional, a bad choice, a non-int where an int is due, a valid call
_PARSER_CASES = {
    "simplexes": [
        ["--help"], [], ["--points", "p.json", "--zz"], ["--points", "p.json", "extra"],
        ["--points", "p.json", "--vectors", "v.json"], ["--points", "p.json", "--format", "xml"],
        ["--vectors", "v.json", "--project", "--counts-only", "--format", "json", "--out", "o"],
    ],
    "construct": [
        ["--help"], [], ["cone"], ["cone", "3", "9", "--zz"], ["cone", "3", "9", "--out", "c", "extra"],
        ["bad", "3"], ["cone", "x"], ["cone", "3", "x"], ["cone", "3", "9", "--out", "c"],
    ],
    "search": [
        ["--help"], [], ["7"], ["7", "2"], ["7", "2", "--free", "--zz"], ["7", "2", "--free", "extra"],
        ["7", "2", "--free", "--linear"], ["7", "2", "--free", "--format", "xml"],
        ["x", "2", "--free"], ["7", "2", "--linear", "--budget", "q"], ["7", "2", "--free", "--workers", "q"],
        ["7", "2", "--linear", "--budget", "20", "--workers", "2", "--format", "json", "--out", "o"],
    ],
    "react": [
        ["--help"], [], ["s.txt", "--zz"], ["s.txt", "more"], ["s.txt", "--format", "csv"],
        ["s.txt", "--universe", "H,O", "--report", "--format", "json", "--out", "o"],
    ],
    "sperner": [
        ["--help"], [], ["-k", "3"], ["--hypergraph", "h.json"], ["--hypergraph", "h.json", "-k", "3", "--zz"],
        ["--hypergraph", "h.json", "-k", "3", "extra"], ["--hypergraph", "h.json", "-k", "3", "--format", "xml"],
        ["--hypergraph", "h.json", "-k", "x"],
        ["--hypergraph", "h.json", "-k", "3", "--deficit", "--counts-only", "--format", "csv", "--out", "o"],
    ],
    "verify": [
        ["--help"], [], ["--format", "csv"], ["--suite", "s-small", "--zz"], ["--suite", "s-small", "extra"],
        ["--suite", "bad"], ["--suite", "s-small", "--workers", "2"], ["--suite", "s-small", "--format", "csv"],
    ],
}


def _parsed(capsys, parser, argv):
    """(exit code, stdout, stderr, Namespace or None) of parser.parse_args(argv)."""
    try:
        args, code = parser.parse_args(argv), 0
    except SystemExit as exc:
        args, code = None, exc.code
    out, err = capsys.readouterr()
    return code, out, err, args


@pytest.mark.parametrize("command", list(_PARSER_CASES))
def test_a_commands_own_parser_parses_as_the_full_one(capsys, command):
    # both builds in one interpreter, so argparse's wording, which differs
    # between Python versions, is the same on both sides
    for rest in _PARSER_CASES[command]:
        argv = [command, *rest]
        want = _parsed(capsys, cli.build_parser(), argv)
        assert _parsed(capsys, cli.build_parser(command), argv) == want, argv
    # the valid call comes last in each list
    assert want[0] == 0 and want[3].command == command


@pytest.mark.parametrize("argv, command", [
    ([], None), (["--help"], None), (["bogus"], None), (["-h", "search"], None),
    (["search", "--help"], "search"), (["verify", "--suite", "bogus"], "verify"),
])
def test_main_builds_the_full_parser_unless_argv_names_a_command(capsys, monkeypatch, argv, command):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda *a: built.append(a) or real(*a))
    with pytest.raises(SystemExit):
        main(argv)
    capsys.readouterr()
    assert built == [(command,)]


def test_simplexes_json_output_equals_json_dumps(tmp_path, capsys):
    # parallel pairs, n = 20: as points, and lifted to vectors with coefficients
    ps = extremal.construct(extremal.ConstructionId("parallel-pairs"), 20)
    points, vectors = tmp_path / "pts.json", tmp_path / "vecs.json"
    points.write_text(json.dumps(ps.to_json_obj()))
    cfg = ps.lift
    vectors.write_text(json.dumps(
        {"dimension": cfg.dimension, "vectors": [vector_to_json(v) for v in cfg.vectors]}
    ))
    report = geometry.enumerate_affine_simplexes(ps)
    circuits = matroid.enumerate_circuits(cfg)
    want_points = {
        "dimension": ps.dimension,
        "point_count": len(ps),
        "counts": {str(k): v for k, v in report.counts.items()},
        "total": report.total,
        "simplexes": [list(m) for m in report.supports],
    }
    want_vectors = {
        "dimension": cfg.dimension,
        "vector_count": len(cfg),
        "counts": {str(k): v for k, v in report.counts.items()},
        "total": len(circuits),
        "circuits": [
            {"members": list(m), "coefficients": list(c)} for m, c in circuits
        ],
    }
    for argv, want in (
        (("--points", str(points)), want_points),
        (("--vectors", str(vectors)), want_vectors),
    ):
        code, out, _ = run(capsys, "simplexes", *argv, "--format", "json")
        assert code == 0
        assert out == json.dumps(want, indent=1, sort_keys=True) + "\n"


def _listing_rows(rng, kind: str, dim: int) -> list[list[Fraction]]:
    """Seeded vectors for the listing test, by kind."""
    if kind == "independent":  # triangular with a nonzero diagonal
        return [
            [Fraction(0)] * r + [Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 4))]
            + [Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 9)) for _ in range(dim - r - 1)]
            for r in range(rng.randint(0, dim))
        ]
    span = 10**30 if kind == "huge" else 4
    rows = random_deficient_rows(rng, rng.randint(2, 7), dim, span)
    if kind == "integer":
        rows = [[Fraction(x.numerator) for x in row] for row in rows]
    # loops, and parallel pairs with an integer or a rational ratio
    rows.insert(rng.randint(0, len(rows)), [Fraction(0)] * dim)
    ratio = Fraction(rng.choice((-3, -1, 2)), rng.choice((1, 1, 7)))
    rows.append([ratio * x for x in rng.choice(rows)])
    return rows


def test_simplexes_vectors_json_listing_equals_json_dumps_on_seeded_configurations(
    tmp_path, capsys
):
    # The listing of circuits with coefficients, on stdout and in the --out file,
    # against json.dumps of its dict form.
    rng = random.Random(2020)
    seen = Counter()
    for trial in range(24):
        kind = ("integer", "rational", "huge", "independent")[trial % 4]
        dim = rng.randint(1, 4)
        rows = _listing_rows(rng, kind, dim)
        cfg = matroid.VectorConfiguration(dim, tuple(tuple(r) for r in rows))
        path, out_file = tmp_path / f"v{trial}.json", tmp_path / f"v{trial}.out.json"
        path.write_text(json.dumps(
            {"dimension": dim, "vectors": [vector_to_json(v) for v in cfg.vectors]}
        ))
        circuits = matroid.enumerate_circuits(cfg)
        counts = Counter(len(m) for m, _ in circuits)
        dict_form = {
            "dimension": dim,
            "vector_count": len(rows),
            "counts": {str(size): count for size, count in counts.items()},
            "total": len(circuits),
            "circuits": [
                {"members": list(m), "coefficients": list(c)} for m, c in circuits
            ],
        }
        want = json.dumps(dict_form, indent=1, sort_keys=True) + "\n"
        code, out, _ = run(capsys, "simplexes", "--vectors", str(path), "--format", "json")
        assert (code, out) == (0, want), (kind, rows)
        code, out, _ = run(capsys, "simplexes", "--vectors", str(path), "--format", "json",
                           "--out", str(out_file))
        assert (code, out, out_file.read_text()) == (0, "", want)
        seen[kind] += 1
        seen["loop"] += any(c == (1,) for _, c in circuits)
        seen["parallel pair"] += any(len(m) == 2 for m, _ in circuits)
        seen["no circuit"] += '"circuits": []' in want
    assert all(seen[k] for k in ("loop", "parallel pair", "no circuit")), seen


def _listed(capsys, tmp_path, argv, want):
    """The command's output on stdout and in an --out file, each against
    json.dumps(want, indent=1, sort_keys=True)."""
    text = json.dumps(want, indent=1, sort_keys=True) + "\n"
    assert run(capsys, *argv) == (0, text, ""), argv
    out_file = tmp_path / "listing.out"
    assert run(capsys, *argv, "--out", str(out_file)) == (0, "", "")
    assert out_file.read_text() == text
    return text


def _random_grid_points(rng, d):
    """Distinct points of a small grid, so that collinear triples and coplanar
    quadruples are common; or d + 1 - j affinely independent points, with no
    simplex."""
    if rng.random() < 0.2:
        basis = [[int(r == c) for c in range(d)] for r in range(d)]
        return rng.sample([[0] * d] + basis, d + 1 - rng.randint(0, d))
    grid = list(itertools.product(range(5 if d == 1 else 3), repeat=d))
    return [list(p) for p in rng.sample(grid, rng.randint(1, min(len(grid), 9)))]


def test_listings_equal_json_dumps_on_seeded_point_sets_and_projections(tmp_path, capsys):
    # simplexes --points and --vectors --project, whose lists of simplexes and
    # circuits are written from one template per record size and spliced into
    # the rest of the document, at the top level and one level deeper.
    rng = random.Random(2023)
    seen = Counter()
    for trial in range(40):
        d = rng.randint(1, 3)
        points = _random_grid_points(rng, d)
        path = tmp_path / "pts.json"
        path.write_text(json.dumps({"dimension": d, "points": points}))
        ps = geometry.load_points(str(path))
        supports = geometry.enumerate_affine_simplexes(ps).supports
        want = {
            "dimension": d,
            "point_count": len(points),
            "counts": {str(size): count for size, count in Counter(map(len, supports)).items()},
            "total": len(supports),
            "simplexes": [list(m) for m in supports],
        }
        text = _listed(capsys, tmp_path, ("simplexes", "--points", str(path), "--format", "json"), want)
        seen["mixed sizes"] += len(want["counts"]) > 1
        seen["no simplex"] += '"simplexes": []' in text
        # the same points as vectors: (1, p) times a nonzero rational each
        scales = [Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 7)) for _ in points]
        vectors = [[f * x for x in [1, *p]] for f, p in zip(scales, points)]
        path = tmp_path / "vecs.json"
        path.write_text(json.dumps({"dimension": d + 1, "vectors": [vector_to_json(v) for v in vectors]}))
        cfg = matroid.load_vectors(str(path))
        circuits = matroid.enumerate_circuits(cfg)
        assert [m for m, _ in circuits] == list(supports)
        circuits_form = {
            "dimension": d + 1,
            "vector_count": len(vectors),
            "counts": want["counts"],
            "total": len(circuits),
            "circuits": [
                {"members": list(m), "coefficients": list(c)} for m, c in circuits
            ],
        }
        argv = ("simplexes", "--vectors", str(path), "--project", "--format", "json")
        _listed(capsys, tmp_path, argv, {"circuits": circuits_form, "projected": want, "match": True})
        del circuits_form["circuits"], want["simplexes"]
        _listed(capsys, tmp_path, argv + ("--counts-only",),
                {"circuits": circuits_form, "projected": want, "match": True})
    assert seen["mixed sizes"] and seen["no simplex"], seen


def test_integers_beyond_the_digit_limit(tmp_path, capsys):
    # A 5000-digit string entry is refused like the same JSON integer (exit 2).
    # 900-digit vectors in R^5 are read, and their circuit's ~4500-digit
    # coefficients are written: the listing lifts the interpreter's digit limit
    # for its own ints only.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    path = tmp_path / "long.json"
    for entry in ("9" * 5000, "1/" + "7" * 5000):
        path.write_text(json.dumps({"dimension": 2, "vectors": [[entry, 1], [1, 2]]}))
        for out in ((), ("--out", str(tmp_path / "long.out"))):
            code, printed, err = run(capsys, "simplexes", "--vectors", str(path), "--format", "json", *out)
            assert (code, printed) == (2, "") and err.startswith("input error:"), err
            assert "Exceeds the limit" in err or not limit
    assert not (tmp_path / "long.out").exists()
    rng = random.Random(900)
    vectors = [[str(rng.randint(10**899, 10**900)) for _ in range(5)] for _ in range(6)]
    path.write_text(json.dumps({"dimension": 5, "vectors": vectors}))
    assert run(capsys, "simplexes", "--vectors", str(path)) == (0, "size 6: 1\ntotal: 1\n", "")
    cfg = matroid.load_vectors(str(path))
    [(members, coefficients)] = matroid.enumerate_circuits(cfg)
    assert max(map(abs, coefficients)) > 10**4300
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        want = json.dumps({
            "dimension": 5, "vector_count": 6, "counts": {"6": 1}, "total": 1,
            "circuits": [{"members": list(members), "coefficients": list(coefficients)}],
        }, indent=1, sort_keys=True) + "\n"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    out_file = tmp_path / "big.out"
    assert run(capsys, "simplexes", "--vectors", str(path), "--format", "json") == (0, want, "")
    assert run(capsys, "simplexes", "--vectors", str(path), "--format", "json",
               "--out", str(out_file)) == (0, "", "")
    assert out_file.read_text() == want
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    Its descriptor is a file of the test's own, which the CLI may redirect."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv", [
    ("search", "5", "2", "--free", "--format", "json"),
    ("construct", "parallel-pairs", "10"),
])
def test_closed_stdout_exits_1_without_a_message(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
        code = main(list(argv))
        monkeypatch.undo()
    assert code == 1
    assert capsys.readouterr().err == ""
    # a missing input file is still an input error
    code, out, err = run(capsys, "simplexes", "--points", str(tmp_path / "missing.json"))
    assert (code, out) == (2, "") and err.startswith("input error:")

