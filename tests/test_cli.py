"""Command-line behavior: output text, exit codes, determinism."""

import json
import random
import time

import pytest

from jspec.cli import main
from jspec.exactla import Matrix, matrix_to_json
from jspec.lattice import projection_from_json, rank_one
from jspec.polyalg import parse_poly
from jspec.scalar import QUOTE_LIMIT, FieldContext
from jspec.spectrum import tuple_to_json
from jspec.verify import TrialConfig, random_projection

K = FieldContext(2)


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def basis_tuple_file(tmp_path, name="t.json"):
    projs = [rank_one([K.one if t == j else K.zero for t in range(3)])
             for j in range(3)]
    return write(tmp_path / name, tuple_to_json(projs))


def projection_file(tmp_path, p, name):
    from jspec.lattice import projection_to_json
    return write(tmp_path / name, projection_to_json(p))


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- simple subcommands -------------------------------------------------------------


def test_poly_prints_axes_product(tmp_path, capsys):
    code, out, _ = run(capsys, ["poly", "--tuple",
                                basis_tuple_file(tmp_path)])
    assert code == 0
    assert out.strip() == "c1*c2*c3"
    assert parse_poly(out.strip(), 3, K) == \
        parse_poly("c3*c2*c1", 3, K)


def test_classify_tokens(tmp_path, capsys):
    code, out, _ = run(capsys, ["classify", "--tuple",
                                basis_tuple_file(tmp_path)])
    assert (code, out.strip()) == (0, "coordinate-hyperplanes")
    planar = [rank_one([K.one, K.elem(j), K.zero]) for j in range(3)]
    code, out, _ = run(capsys, ["classify", "--tuple",
                                write(tmp_path / "p.json",
                                      tuple_to_json(planar))])
    assert (code, out.strip()) == (0, "full")
    pair = [rank_one([K.one, K.zero, K.zero]).join(
                rank_one([K.zero, K.one, K.zero])),
            rank_one([K.zero, K.one, K.one])]
    code, out, _ = run(capsys, ["classify", "--tuple",
                                write(tmp_path / "q.json",
                                      tuple_to_json(pair))])
    assert (code, out.strip()) == (0, "hypersurface")


def test_classify_builds_the_pencil_once(tmp_path, capsys, monkeypatch):
    import jspec.cli
    import jspec.spectrum

    calls = []
    build = jspec.spectrum.pencil_poly

    def counted(projs):
        calls.append(len(projs))
        return build(projs)

    # cli imports the name, so both bindings are replaced
    monkeypatch.setattr(jspec.spectrum, "pencil_poly", counted)
    monkeypatch.setattr(jspec.cli, "pencil_poly", counted)
    code, out, _ = run(capsys, ["classify", "--tuple",
                                basis_tuple_file(tmp_path)])
    assert (code, out.strip()) == (0, "coordinate-hyperplanes")
    assert calls == [3]


def test_member_answers(tmp_path, capsys):
    t = basis_tuple_file(tmp_path)
    code, out, _ = run(capsys, ["member", "--tuple", t,
                                "--point", "1,1,-2"])
    assert (code, out.strip()) == (0, "not-in-spectrum")
    code, out, _ = run(capsys, ["member", "--tuple", t,
                                "--point", "0,1+i,r"])
    assert (code, out.strip()) == (0, "in-spectrum")
    code, _, err = run(capsys, ["member", "--tuple", t, "--point", "1,1"])
    assert code == 2 and "error" in err
    code, _, err = run(capsys, ["member", "--tuple", t,
                                "--point", "1,1,bogus"])
    assert code == 2 and "usage error" in err


@pytest.mark.parametrize("point", ["-1,1,1", "-i,1,r", "-r,0,-1"])
def test_point_may_start_with_a_minus(point, tmp_path, capsys):
    path = basis_tuple_file(tmp_path)
    split = run(capsys, ["member", "--tuple", path, "--point", point])
    attached = run(capsys, ["member", "--tuple", path, f"--point={point}"])
    assert split == attached
    assert split[0] == 0


def test_lattice_operations(tmp_path, capsys):
    p = rank_one([K.one, K.zero, K.zero]).join(
        rank_one([K.zero, K.one, K.zero]))
    q = rank_one([K.zero, K.one, K.zero]).join(
        rank_one([K.zero, K.zero, K.one]))
    pf = projection_file(tmp_path, p, "p.json")
    qf = projection_file(tmp_path, q, "q.json")
    code, out, _ = run(capsys, ["lattice", "--op", "meet",
                                "--p", pf, "--q", qf])
    assert code == 0
    meet = projection_from_json(json.loads(out), K)
    assert meet == rank_one([K.zero, K.one, K.zero])
    code, out, _ = run(capsys, ["lattice", "--op", "rank", "--p", pf])
    assert (code, out.strip()) == (0, "2")
    code, out, _ = run(capsys, ["lattice", "--op", "leq",
                                "--p", qf, "--q", qf])
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(capsys, ["lattice", "--op", "orth",
                                "--p", pf, "--q", qf])
    assert (code, out.strip()) == (0, "false")
    code, _, err = run(capsys, ["lattice", "--op", "join", "--p", pf])
    assert code == 2 and "needs --q" in err
    code, _, err = run(capsys, ["lattice", "--op", "rank",
                                "--p", pf, "--q", qf])
    assert code == 2


def test_map_apply(tmp_path, capsys):
    mf = write(tmp_path / "m.json",
               {"kind": "induced", "f": "flip",
                "B": matrix_to_json(Matrix.identity(2, K))})
    pf = projection_file(tmp_path, rank_one([K.one, K.sqrt_d]), "p.json")
    code, out, _ = run(capsys, ["map-apply", "--map", mf, "--p", pf])
    assert code == 0
    assert projection_from_json(json.loads(out), K) == \
        rank_one([K.one, -K.sqrt_d])


# -- verify and witness ------------------------------------------------------------


def test_verify_pairs_passes(tmp_path, capsys):
    argv = ["verify", "--suite", "pairs", "--n", "3",
            "--trials", "30", "--seed", "1",
            "--report", str(tmp_path / "r.json")]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out.strip().splitlines()[-1] == "passed 30/30"
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["passed"] is True and report["suite"] == "pairs"


def test_verify_is_byte_deterministic(capsys):
    argv = ["verify", "--suite", "lemma31", "--n", "3", "--trials", "10"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_verify_suite_defaults_and_errors(tmp_path, capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "lemma41",
                                "--n", "3", "--trials", "20"])
    assert code == 0 and "suite: rank-one-classification" in out
    code, _, err = run(capsys, ["verify", "--suite", "lemma41",
                                "--n", "3", "--k", "2"])
    assert code == 2 and "k = n" in err
    code, _, err = run(capsys, ["verify", "--suite", "map-preserve"])
    assert code == 2 and "needs --map" in err
    code, _, err = run(capsys, ["verify", "--suite", "nope"])
    assert code == 2


def test_verify_map_suites(tmp_path, capsys):
    mf = write(tmp_path / "m.json",
               {"kind": "induced", "f": "flip",
                "B": matrix_to_json(Matrix.identity(3, K))})
    code, out, _ = run(capsys, ["verify", "--suite", "map-preserve",
                                "--n", "3", "--trials", "15",
                                "--map", mf])
    assert code == 0
    assert "counters: incomparable=0 preserved=15 shrunk-strictly=0" in out
    code, out, _ = run(capsys, ["verify", "--suite", "map-preserve",
                                "--n", "3", "--k", "3", "--trials", "15",
                                "--map", mf,
                                "--report", str(tmp_path / "r.json")])
    assert code == 1
    assert "failed" in out.strip().splitlines()[-1]
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["passed"] is False
    assert report["violations"]
    code, out, _ = run(capsys, ["verify", "--suite", "extension",
                                "--n", "3", "--trials", "10", "--map", mf])
    assert code == 0
    code, out, _ = run(capsys, ["verify", "--suite", "rank-join",
                                "--n", "3", "--trials", "10", "--map", mf])
    assert code == 0


def test_verify_rank_one_k_dispatch(tmp_path, capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "rank-one-k",
                                "--n", "4", "--k", "2", "--trials", "10"])
    assert code == 0 and "suite: small-rank-one-fullness" in out
    mf = write(tmp_path / "m.json",
               {"kind": "induced", "f": "flip",
                "B": matrix_to_json(Matrix.identity(4, K))})
    code, _, err = run(capsys, ["verify", "--suite", "rank-one-k",
                                "--n", "4", "--k", "2", "--trials", "10",
                                "--map", mf])
    assert code == 2 and "drop --map" in err
    code, _, err = run(capsys, ["verify", "--suite", "rank-one-k",
                                "--n", "3", "--k", "4", "--trials", "5"])
    assert code == 2 and "needs --map" in err


@pytest.mark.parametrize("suite", ["pairs", "lemma41", "lemma31",
                                   "det-auto"])
def test_verify_rejects_a_map_the_suite_ignores(suite, tmp_path, capsys):
    mf = write(tmp_path / "m.json",
               {"kind": "induced", "f": "flip",
                "B": matrix_to_json(Matrix.identity(3, K))})
    code, out, err = run(capsys, ["verify", "--suite", suite, "--n", "3",
                                  "--trials", "1", "--map", mf])
    assert code == 2 and "drop --map" in err and out == ""


def test_witness_flip_found_and_expect_flag(tmp_path, capsys):
    argv = ["witness", "--kind", "flip-triple", "--budget", "10",
            "--report", str(tmp_path / "w.json")]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert "witness: map induced(flip)" in out
    report = json.loads((tmp_path / "w.json").read_text())
    assert report["witness"]["squarefree"] != \
        report["witness"]["squarefree-image"]
    code, _, _ = run(capsys, argv + ["--expect", "absent"])
    assert code == 1


def test_witness_absent_for_unitary_override(tmp_path, capsys):
    mf = write(tmp_path / "u.json",
               {"kind": "unitary",
                "U": matrix_to_json(Matrix.identity(3, K))})
    argv = ["witness", "--kind", "flip-rank-one", "--budget", "5",
            "--map", mf, "--expect", "absent"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out.strip() == "no witness within budget 5"


def test_witness_rejects_negative_budget(capsys):
    code, out, err = run(capsys, ["witness", "--kind", "flip-triple",
                                  "--budget", "-5", "--expect", "absent"])
    assert code == 2 and "--budget" in err and out == ""


def test_huge_d_fails_fast(tmp_path, capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, ["poly", "--tuple", basis_tuple_file(tmp_path),
                                "--d", "1000000000000000003"])
    assert code == 2 and "at most" in err and "got 1000000000000000003" in err
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("where", ["file", "flag"])
def test_long_d_is_named_by_its_digit_count(where, tmp_path, capsys):
    """A 4000-digit d, a file's "d" or --d, is quoted as its digit count."""
    d = "7" * 4000
    if where == "file":
        argv = ["poly", "--tuple", write(tmp_path / "d.json", {"projections": [
            {"span": {"d": int(d), "rows": [["1"], ["0"]]}}]})]
    else:
        argv = ["poly", "--tuple", basis_tuple_file(tmp_path), "--d", d]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "an integer of 4000 digits" in err
    assert len(err.encode()) < 200


LONG = "x" * 5000


@pytest.mark.parametrize("argv", [
    ["poly", "--tuple", "@t", "--d", LONG],
    ["verify", "--suite", "pairs", "--n", LONG],
    ["verify", "--suite", LONG],
    [LONG],
    ["witness", "--kind", LONG],
    ["lattice", "--op", LONG, "--p", "@t"],
    ["poly", "--tuple", "@t", "--" + LONG],
    ["poly", "--tuple", "@" + LONG],
], ids=["--d", "--n", "--suite", "command", "--kind", "--op", "option",
        "--tuple"])
def test_long_bad_argument_is_quoted_in_part(argv, tmp_path, capsys):
    """A 5000-character bad value is quoted to at most QUOTE_LIMIT
    characters; the message after argparse's usage lines stays short."""
    t = basis_tuple_file(tmp_path)
    argv = [t if a == "@t" else str(tmp_path / a[1:]) if a[0] == "@" else a
            for a in argv]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert "x" * (QUOTE_LIMIT + 1) not in err
    assert len(err[err.index("error: "):].encode()) < 300


def test_boolean_d_in_a_file_is_not_an_integer(tmp_path, capsys):
    path = write(tmp_path / "d.json", {"projections": [
        {"span": {"d": True, "rows": [["1"], ["0"]]}}]})
    code, out, err = run(capsys, ["poly", "--tuple", path])
    assert (code, out, err) == (2, "", 'error: "d" must be an integer\n')


def test_huge_n_fails_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, ["verify", "--suite", "pairs", "--n", "30",
                                  "--trials", "1"])
    assert code == 2 and "at most" in err and out == ""
    code, _, err = run(capsys, ["witness", "--kind", "flip-rank-one",
                                "--n", "12"])
    assert code == 2 and "k must be at most" in err
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("option, argv", [
    ("--point", ["member", "--tuple", "@t", "--point", "--"]),
    ("--point", ["member", "--tuple", "@t", "--point=--"]),
    ("--tuple", ["member", "--tuple=--", "--point=1,1,1"]),
    ("--tuple", ["poly", "--tuple=--"]),
    ("--tuple", ["classify", "--tuple=--"]),
    ("--p", ["lattice", "--op", "rank", "--p=--"]),
    ("--q", ["lattice", "--op", "meet", "--p", "@p", "--q=--"]),
    ("--map", ["map-apply", "--map=--", "--p", "@p"]),
    ("--p", ["map-apply", "--map", "@m", "--p=--"]),
    ("--map", ["verify", "--suite", "extension", "--trials", "1",
               "--map=--"]),
    ("--map", ["witness", "--kind", "flip-triple", "--budget", "1",
               "--map=--"]),
    ("--report", ["poly", "--tuple", "@t", "--report=--"]),
    ("--report", ["classify", "--tuple", "@t", "--report=--"]),
    ("--report", ["member", "--tuple", "@t", "--point=1,1,1",
                  "--report=--"]),
    ("--report", ["lattice", "--op", "rank", "--p", "@p", "--report=--"]),
    ("--report", ["map-apply", "--map", "@m", "--p", "@p", "--report=--"]),
    ("--report", ["verify", "--suite", "pairs", "--trials", "1",
                  "--report=--"]),
    ("--report", ["witness", "--kind", "flip-triple", "--budget", "1",
                  "--report=--"]),
])
def test_dropped_double_dash_value_is_a_usage_error(option, argv, tmp_path,
                                                    capsys):
    # argparse drops a "--" value and would hand the command an empty list
    files = {"@t": basis_tuple_file(tmp_path),
             "@p": projection_file(tmp_path, rank_one([K.one, K.zero, K.zero]),
                                   "p.json"),
             "@m": write(tmp_path / "m.json", {
                 "kind": "unitary",
                 "U": matrix_to_json(Matrix.identity(3, K))})}
    code, out, err = run(capsys, [files.get(a, a) for a in argv])
    assert (code, out) == (2, "")
    assert err == \
        f"usage error: argument {option}: expected a value, got '--'\n"


@pytest.mark.parametrize("argv", [["poly", "--tuple"],
                                  ["lattice", "--op", "rank", "--p"]])
def test_deeply_nested_json_is_an_input_error(argv, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    start = time.perf_counter()
    code, out, err = run(capsys, argv + [str(deep)])
    assert code == 2 and "too deeply" in err and out == ""
    assert time.perf_counter() - start < 5


def test_oversized_literal_message_is_short(tmp_path, capsys):
    """A literal past the int-string limit is named by its digit count and
    position, and quoted only in part."""
    literal = "7" * 5000
    path = write(tmp_path / "big.json", {"projections": [
        {"span": {"d": 2, "rows": [["1"], [f"1 + {literal}*i"]]}}]})
    code, out, err = run(capsys, ["poly", "--tuple", path])
    assert code == 2 and out == ""
    assert "integer literal of 5000 digits too long at position 4" in err
    assert len(err.encode()) < 300


@pytest.mark.parametrize("command", ["poly", "classify", "member"])
def test_oversized_tuple_fails_fast(command, tmp_path, capsys):
    # k = 11 rank-one lines in K^2, and a dense triple in K^13: the pencil
    # would need C(12, 10) terms or 2^13 subset states.
    long = [rank_one([K.one, K.elem(j)]) for j in range(11)]
    wide = [rank_one([K.elem(j + t * t) for t in range(13)])
            for j in range(3)]
    start = time.perf_counter()
    for projs, bound in ((long, "k must be at most 10"),
                         (wide, "n must be at most 12")):
        path = write(tmp_path / f"{len(projs)}.json", tuple_to_json(projs))
        point = ["--point", ",".join("1" * len(projs))]
        argv = [command, "--tuple", path] + (point if command == "member"
                                             else [])
        code, out, err = run(capsys, argv)
        assert code == 2 and bound in err and out == ""
    assert time.perf_counter() - start < 5


def test_oversized_files_fail_before_anything_is_built(tmp_path, capsys,
                                                       monkeypatch):
    # n = 200: building the projections or checking U*U = I takes tens of
    # seconds; the sizes are read from the JSON first.
    n = 200
    zeros = {"d": 2, "rows": [["0"] * n for _ in range(n)]}
    eye = {"d": 2, "rows": [["1" if i == j else "0" for j in range(n)]
                            for i in range(n)]}
    tuple_path = write(tmp_path / "t.json",
                       {"projections": [{"matrix": zeros}, {"span": zeros}]})
    maps = [write(tmp_path / "u.json", {"kind": "unitary", "U": eye}),
            write(tmp_path / "b.json", {"kind": "induced", "f": "flip",
                                        "B": eye})]

    def never(*args):
        raise AssertionError("built before the size check")

    monkeypatch.setattr("jspec.cli.tuple_from_json", never)
    monkeypatch.setattr("jspec.cli.map_from_json", never)
    start = time.perf_counter()
    for command in ("poly", "classify"):
        code, out, err = run(capsys, [command, "--tuple", tuple_path])
        assert (code, out) == (2, "")
        assert "dimension n must be at most 12, got 200" in err
    for path in maps:
        for argv in (["verify", "--suite", "extension", "--trials", "1"],
                     ["witness", "--kind", "flip-triple", "--budget", "1"]):
            code, out, err = run(capsys, argv + ["--map", path])
            assert (code, out, err) == \
                (2, "", "error: map on K^200 applied to K^3\n")
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("form", ["matrix", "span"])
def test_oversized_projection_fails_before_it_is_built(form, tmp_path,
                                                       capsys):
    # n = 200: `lattice --op rank` on the zero matrix form ran 13 s before
    # printing 0; n is read from the JSON first.
    n = 200
    big = write(tmp_path / "big.json",
                {form: {"d": 2, "rows": [["0"] * n for _ in range(n)]}})
    small = projection_file(tmp_path, rank_one([K.one, K.zero, K.zero]),
                            "small.json")
    unitary = write(tmp_path / "u.json", {
        "kind": "unitary", "U": matrix_to_json(Matrix.identity(3, K))})
    for argv in (["lattice", "--op", "rank", "--p", big],
                 ["lattice", "--op", "meet", "--p", small, "--q", big],
                 ["map-apply", "--p", big, "--map", unitary]):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == (f"usage error: {big}: dimension n must be at most 12, "
                       "got 200\n")
        assert time.perf_counter() - start < 5


@pytest.mark.parametrize("argv", [["poly"], ["classify"],
                                  ["member", "--point", "1,1"]])
def test_projections_on_k0_are_an_input_error(argv, tmp_path, capsys):
    # the pencil of an empty matrix is the constant 1: no point lies in its
    # zero set, which is no hypersurface
    empty = {"d": 2, "rows": []}
    path = write(tmp_path / "k0.json",
                 {"projections": [{"matrix": empty}, {"span": empty}]})
    code, out, err = run(capsys, [argv[0], "--tuple", path] + argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: projections on K^0: dimension n must be at least 1\n"


def test_default_k_error_names_the_default(capsys):
    code, out, err = run(capsys, ["witness", "--kind", "flip-rank-one",
                                  "--n", "12"])
    assert (code, out) == (2, "")
    assert err == ("usage error: tuple length k must be at most 10, got 13 "
                   "(the --kind flip-rank-one default; pass --k)\n")
    code, _, err = run(capsys, ["verify", "--suite", "lemma41", "--n", "12"])
    assert code == 2 and "got 12 (the --suite lemma41 default; pass --k)" \
        in err
    code, _, err = run(capsys, ["witness", "--kind", "flip-rank-one",
                                "--n", "12", "--k", "13"])
    assert (code, err) == \
        (2, "error: tuple length k must be at most 10, got 13\n")


@pytest.mark.parametrize("point", ["1,2", "1,x,1"])
def test_bad_point_fails_before_the_pencil(point, tmp_path, capsys):
    # the pencil of this dense triple in K^12 takes seconds
    cfg = TrialConfig(n=12, k=3)
    rng = random.Random(12)
    projs = [random_projection(cfg, rank, rng) for rank in (4, 6, 8)]
    path = write(tmp_path / "t.json", tuple_to_json(projs))
    start = time.perf_counter()
    code, out, err = run(capsys, ["member", "--tuple", path,
                                  "--point", point])
    assert code == 2 and "bad --point value" in err and out == ""
    assert time.perf_counter() - start < 3


def test_d_mismatch_is_an_input_error(tmp_path, capsys):
    t = basis_tuple_file(tmp_path)
    code, _, err = run(capsys, ["poly", "--tuple", t, "--d", "3"])
    assert code == 2 and "d=" in err


def test_missing_file_and_bad_json(tmp_path, capsys):
    code, _, err = run(capsys, ["poly", "--tuple",
                                str(tmp_path / "absent.json")])
    assert code == 2 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, ["poly", "--tuple", str(bad)])
    assert code == 2 and "not valid JSON" in err


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["lattice", "--op", "spin", "--p", "x"]) == 2
