"""Hostile text and JSON: parsers raise only ParseError, the CLI only exits.

Whatever a user passes on the command line or in a file, `cli.main` must
return 0, 1 or 2 and never let an exception escape; the parsers behind it
must reject bad text with a positioned `ParseError` and nothing else.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from jspec.cli import main
from jspec.lattice import projection_to_json, rank_one
from jspec.polyalg import parse_poly
from jspec.scalar import (
    ALL_AUTOMORPHISMS,
    FieldContext,
    ParseError,
    parse_scalar,
)

K = FieldContext(2)

# The characters of both grammars, look-alike digits, and the CLI's ','.
GRAMMAR = st.text(alphabet="0123456789/+-*()^ircx²٣ ,", max_size=20)
any_text = st.one_of(GRAMMAR, st.text(max_size=20))

json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
cell = st.one_of(GRAMMAR, st.sampled_from(["0", "1", "1/2", "r", "i"]),
                 json_value)
matrix = st.one_of(
    st.fixed_dictionaries(
        {"rows": st.lists(st.lists(cell, min_size=1, max_size=3),
                          max_size=3)},
        optional={"d": st.one_of(st.just(2), json_value)}),
    json_value)
projection = st.one_of(st.builds(lambda m: {"matrix": m}, matrix),
                       st.builds(lambda m: {"span": m}, matrix),
                       json_value)
tuple_form = st.one_of(
    st.builds(lambda ps: {"projections": ps},
              st.lists(projection, max_size=3)),
    json_value)
map_form = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.one_of(st.sampled_from(["unitary", "anti-unitary",
                                            "induced"]), json_value)},
        optional={"U": matrix, "B": matrix,
                  "f": st.one_of(st.sampled_from(
                      [f.value for f in ALL_AUTOMORPHISMS]), json_value)}),
    json_value)

FUZZ = settings(max_examples=150, deadline=None)


@given(any_text)
@settings(max_examples=200, deadline=None)
def test_parsers_raise_only_parse_error(text):
    for parse in (lambda t: parse_scalar(t, K), lambda t: parse_poly(t, 3, K)):
        try:
            parse(text)
        except ParseError as err:
            assert 0 <= err.pos <= len(text)


def run_main(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A fuzzed-file path and a valid 3-tuple and projection on K^3."""
    tmp = tmp_path_factory.mktemp("fuzz")
    axes = [rank_one([K.one if t == j else K.zero for t in range(3)])
            for j in range(3)]
    paths = {"fuzz": str(tmp / "fuzz.json"), "tuple": str(tmp / "t.json"),
             "p": str(tmp / "p.json")}
    with open(paths["tuple"], "w", encoding="utf-8") as handle:
        json.dump({"projections": [projection_to_json(p) for p in axes]},
                  handle)
    with open(paths["p"], "w", encoding="utf-8") as handle:
        json.dump(projection_to_json(axes[0]), handle)
    return paths


def write(path: str, payload: object) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path


@FUZZ
@given(text=GRAMMAR)
@example("--")
def test_member_point_text_only_exits(files, text):
    assert run_main(["member", "--tuple", files["tuple"],
                     f"--point={text}"]) in (0, 1, 2)


@FUZZ
@given(payload=tuple_form, command=st.sampled_from(["poly", "classify",
                                                    "member"]))
def test_tuple_files_only_exit(files, payload, command):
    argv = [command, "--tuple", write(files["fuzz"], payload)]
    if command == "member":
        argv.append("--point=1,1")
    assert run_main(argv) in (0, 1, 2)


@FUZZ
@given(payload=projection, op=st.sampled_from(["rank", "join", "leq"]))
def test_projection_files_only_exit(files, payload, op):
    argv = ["lattice", "--op", op, "--p", write(files["fuzz"], payload)]
    if op != "rank":
        argv += ["--q", files["p"]]
    assert run_main(argv) in (0, 1, 2)


@FUZZ
@given(payload=map_form)
def test_map_files_only_exit(files, payload):
    assert run_main(["map-apply", "--map", write(files["fuzz"], payload),
                     "--p", files["p"]]) in (0, 1, 2)

