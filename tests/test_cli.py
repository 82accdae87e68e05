"""Command-line behavior: output text, exit codes, determinism."""

import json
import time

import pytest

from jspec.cli import main
from jspec.exactla import Matrix, matrix_to_json
from jspec.lattice import projection_from_json, rank_one
from jspec.polyalg import parse_poly
from jspec.scalar import FieldContext
from jspec.spectrum import tuple_to_json

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
    assert code == 2 and "at most" in err
    assert time.perf_counter() - start < 5


def test_huge_n_fails_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, ["verify", "--suite", "pairs", "--n", "30",
                                  "--trials", "1"])
    assert code == 2 and "at most" in err and out == ""
    code, _, err = run(capsys, ["witness", "--kind", "flip-rank-one",
                                "--n", "12"])
    assert code == 2 and "k must be at most" in err
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("argv", [["poly", "--tuple"],
                                  ["lattice", "--op", "rank", "--p"]])
def test_deeply_nested_json_is_an_input_error(argv, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    start = time.perf_counter()
    code, out, err = run(capsys, argv + [str(deep)])
    assert code == 2 and "too deeply" in err and out == ""
    assert time.perf_counter() - start < 5


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
