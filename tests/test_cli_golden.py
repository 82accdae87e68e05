"""Golden CLI reports: fixed argv lists replayed through `jspec.cli.main`.

Each case in data/verify_golden.json records the exit code, stdout and the
`--report` JSON text of one `verify` or `witness` call, so a refactor of the
suites or the CLI is checked byte for byte against recorded output rather
than only against a second run of itself.  Map files are kept in the same
JSON file under "maps" and written to a temporary directory; an argv entry
"@name" stands for the path of map "name", and "@report" for the report
path.

The "file_cases" replay the commands that read projection and tuple files
(`lattice`, `map-apply`, `poly`, `classify`, `member`), including matrices
the checked entry point must reject, and also record stderr.  Their input
files are fixed JSON text under "files", named like the maps.

Re-record (only when a report change is intended):

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest

from jspec.cli import main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "verify_golden.json")

# Every case also writes a report; see replay().
ARGVS = [
    ["verify", "--suite", "pairs", "--n", "3", "--trials", "10"],
    ["verify", "--suite", "pairs", "--n", "4", "--trials", "10",
     "--seed", "5"],
    ["verify", "--suite", "pairs", "--n", "3", "--trials", "10", "--d", "3"],
    ["verify", "--suite", "lemma41", "--n", "3", "--trials", "10"],
    ["verify", "--suite", "lemma41", "--n", "2", "--trials", "10",
     "--seed", "4"],
    ["verify", "--suite", "lemma31", "--n", "3", "--trials", "10"],
    ["verify", "--suite", "lemma31", "--n", "4", "--trials", "10",
     "--seed", "9"],
    ["verify", "--suite", "det-auto", "--n", "3", "--trials", "10"],
    ["verify", "--suite", "det-auto", "--n", "4", "--trials", "5", "--d", "5"],
    ["verify", "--suite", "morphism", "--n", "3", "--trials", "10"],
    ["verify", "--suite", "morphism", "--n", "3", "--trials", "5",
     "--map", "@flip3"],
    ["verify", "--suite", "morphism", "--n", "3", "--trials", "5",
     "--map", "@wild3"],
    ["verify", "--suite", "rank-join", "--n", "3", "--trials", "10",
     "--map", "@flip3"],
    ["verify", "--suite", "rank-join", "--n", "3", "--k", "2",
     "--trials", "10", "--map", "@wild3"],
    ["verify", "--suite", "extension", "--n", "3", "--trials", "10",
     "--map", "@flip3"],
    ["verify", "--suite", "extension", "--n", "3", "--trials", "10",
     "--map", "@wild3"],
    ["verify", "--suite", "map-preserve", "--n", "3", "--trials", "10",
     "--map", "@flip3"],
    ["verify", "--suite", "map-preserve", "--n", "3", "--k", "3",
     "--trials", "10", "--map", "@flip3"],
    ["verify", "--suite", "map-preserve", "--n", "3", "--k", "3",
     "--trials", "5", "--map", "@unitary3"],
    ["verify", "--suite", "rank-one-k", "--n", "4", "--k", "2",
     "--trials", "10"],
    ["verify", "--suite", "rank-one-k", "--n", "3", "--trials", "5",
     "--map", "@flip3"],
    ["verify", "--suite", "rank-one-k", "--n", "3", "--k", "3",
     "--trials", "5", "--map", "@unitary3"],
    ["verify", "--suite", "lemma31", "--n", "3", "--trials", "10", "--d", "7"],
    ["verify", "--suite", "rank-one-k", "--n", "5", "--k", "3",
     "--trials", "5"],
    ["verify", "--suite", "map-preserve", "--n", "3", "--k", "4",
     "--trials", "3", "--map", "@flip3"],
    ["verify", "--suite", "lemma41", "--n", "3", "--k", "2"],
    ["verify", "--suite", "map-preserve", "--n", "3"],
    ["verify", "--suite", "rank-one-k", "--n", "3", "--k", "4",
     "--trials", "5"],
    ["verify", "--suite", "rank-one-k", "--n", "4", "--k", "2",
     "--map", "@flip3"],
    ["witness", "--kind", "flip-triple", "--budget", "10"],
    ["witness", "--kind", "flip-triple", "--budget", "10", "--n", "4",
     "--seed", "3"],
    ["witness", "--kind", "flip-rank-one", "--budget", "10"],
    ["witness", "--kind", "flip-rank-one", "--budget", "5",
     "--map", "@unitary3", "--expect", "absent"],
    ["witness", "--kind", "flip-triple", "--budget", "3",
     "--map", "@unitary3"],
    ["verify", "--suite", "extension", "--n", "3", "--trials", "200",
     "--seed", "7", "--map", "@wild3"],
]

# Each case reads the files named in FILES; see replay().
FILE_ARGVS = [
    ["lattice", "--op", "meet", "--p", "@plane12", "--q", "@plane_tilted"],
    ["lattice", "--op", "meet", "--p", "@line_r", "--q", "@line_11"],
    ["lattice", "--op", "join", "--p", "@line_r", "--q", "@line_11"],
    ["lattice", "--op", "join", "--p", "@plane_tilted", "--q", "@axis3"],
    ["lattice", "--op", "rank", "--p", "@plane_tilted"],
    ["lattice", "--op", "rank", "--p", "@line_dependent"],
    ["lattice", "--op", "leq", "--p", "@line_r", "--q", "@plane12"],
    ["lattice", "--op", "leq", "--p", "@plane12", "--q", "@line_r"],
    ["lattice", "--op", "orth", "--p", "@axis3", "--q", "@plane12"],
    ["lattice", "--op", "orth", "--p", "@line_11", "--q", "@line_r"],
    ["map-apply", "--map", "@rot3", "--p", "@plane_tilted"],
    ["map-apply", "--map", "@antirot3", "--p", "@plane_tilted"],
    ["map-apply", "--map", "@flip3", "--p", "@line_r"],
    ["map-apply", "--map", "@wild3", "--p", "@plane_tilted"],
    ["poly", "--tuple", "@lines_spanning"],
    ["poly", "--tuple", "@mixed"],
    ["classify", "--tuple", "@lines_spanning"],
    ["classify", "--tuple", "@lines_coplanar"],
    ["classify", "--tuple", "@mixed"],
    ["member", "--tuple", "@mixed", "--point", "1,1,1"],
    ["member", "--tuple", "@lines_spanning", "--point", "1,1,0"],
    ["member", "--tuple", "@mixed", "--point=-1,r,i"],
    ["lattice", "--op", "rank", "--p", "@not_square"],
    ["lattice", "--op", "rank", "--p", "@not_hermitian"],
    ["lattice", "--op", "rank", "--p", "@not_idempotent"],
    ["poly", "--tuple", "@tuple_not_idempotent"],
]


def _matrix(rows: list) -> dict:
    return {"d": 2, "rows": rows}


def _files() -> dict:
    """Projection, tuple and map files over d = 2, as fixed JSON text."""
    plane12 = {"matrix": _matrix([["1", "0", "0"], ["0", "1", "0"],
                                  ["0", "0", "0"]])}
    line_r = {"span": _matrix([["1"], ["r"], ["0"]])}
    line_11 = {"matrix": _matrix([["1/2", "1/2", "0"], ["1/2", "1/2", "0"],
                                  ["0", "0", "0"]])}
    axis3 = {"span": _matrix([["0"], ["0"], ["1"]])}
    rot = _matrix([["3/5", "4/5", "0"], ["-4/5", "3/5", "0"],
                   ["0", "0", "i"]])
    return {
        "plane12": plane12,
        "plane_tilted": {"span": _matrix([["1", "0"], ["0", "1"],
                                          ["i", "1"]])},
        "line_r": line_r,
        "line_11": line_11,
        "axis3": axis3,
        "line_dependent": {"span": _matrix([["1", "2"], ["1", "2"],
                                            ["0", "0"]])},
        "rot3": {"kind": "unitary", "U": rot},
        "antirot3": {"kind": "anti-unitary", "U": rot},
        "lines_spanning": {"projections": [
            line_11, {"span": _matrix([["0"], ["1"], ["0"]])},
            {"span": _matrix([["1"], ["r"], ["1"]])}]},
        "lines_coplanar": {"projections": [
            line_11, line_r, {"span": _matrix([["0"], ["1"], ["0"]])}]},
        "mixed": {"projections": [
            {"span": _matrix([["1", "0"], ["r", "0"], ["0", "1"]])},
            line_11, {"span": _matrix([["1"], ["0"], ["i"]])}]},
        "not_square": {"matrix": _matrix([["1", "0", "0"],
                                          ["0", "1", "0"]])},
        "not_hermitian": {"matrix": _matrix([["0", "1"], ["0", "0"]])},
        "not_idempotent": {"matrix": _matrix([["2", "0"], ["0", "2"]])},
        "tuple_not_idempotent": {"projections": [
            plane12, {"matrix": _matrix([["1", "0", "0"], ["0", "1", "0"],
                                         ["0", "0", "2"]])}]},
    }


def _maps() -> dict:
    from jspec.exactla import Matrix
    from jspec.maps import make_induced, make_unitary_conj, map_to_json
    from jspec.scalar import Automorphism, FieldContext

    k = FieldContext(2)
    one, zero = k.one, k.zero
    wild = Matrix([[one, one, zero], [zero, one, zero], [zero, zero, k.i]], k)
    return {
        "flip3": map_to_json(make_induced(Automorphism.FLIP,
                                          Matrix.identity(3, k))),
        "wild3": map_to_json(make_induced(Automorphism.ID, wild)),
        "unitary3": map_to_json(make_unitary_conj(Matrix.identity(3, k))),
    }


def replay(argv: list, maps: dict, tmp: str) -> dict:
    """Run one case; returns its exit code, stdout, stderr and report text."""
    paths = {"report": os.path.join(tmp, "report.json")}
    for name, payload in maps.items():
        paths[name] = os.path.join(tmp, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
    if os.path.exists(paths["report"]):
        os.remove(paths["report"])
    full = [paths[a[1:]] if a.startswith("@") else a
            for a in argv + ["--report", "@report"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(full)
    report = None
    if os.path.exists(paths["report"]):
        with open(paths["report"], encoding="utf-8") as handle:
            report = handle.read()
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "report": report}


def _load() -> dict:
    with open(DATA, encoding="utf-8") as handle:
        return json.load(handle)


GOLDEN = {"maps": {}, "cases": [], "files": {}, "file_cases": [],
          **(_load() if os.path.exists(DATA) else {})}


@pytest.mark.parametrize("case", GOLDEN["cases"],
                         ids=lambda c: " ".join(c["argv"]))
def test_cli_report_matches_golden(case, tmp_path):
    got = replay(case["argv"], GOLDEN["maps"], str(tmp_path))
    assert got["exit"] == case["exit"]
    assert got["stdout"] == case["stdout"]
    assert got["report"] == case["report"]


@pytest.mark.parametrize("case", GOLDEN["file_cases"],
                         ids=lambda c: " ".join(c["argv"]))
def test_cli_file_command_matches_golden(case, tmp_path):
    got = replay(case["argv"], {**GOLDEN["maps"], **GOLDEN["files"]},
                 str(tmp_path))
    assert got == case


def test_golden_covers_every_case():
    assert [c["argv"] for c in GOLDEN["cases"]] == ARGVS
    assert [c["argv"] for c in GOLDEN["file_cases"]] == FILE_ARGVS


if __name__ == "__main__":
    maps, files = _maps(), _files()
    with tempfile.TemporaryDirectory() as tmp:
        cases = [replay(argv, maps, tmp) for argv in ARGVS]
        file_cases = [replay(argv, {**maps, **files}, tmp)
                      for argv in FILE_ARGVS]
    for case in cases:
        del case["stderr"]
    with open(DATA, "w", encoding="utf-8") as handle:
        json.dump({"maps": maps, "cases": cases, "files": files,
                   "file_cases": file_cases}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(cases) + len(file_cases)} cases to {DATA}",
          file=sys.stderr)
