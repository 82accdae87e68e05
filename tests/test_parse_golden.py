"""Golden parse outcomes: a fixed corpus replayed through both text grammars.

For each string, data/parse_golden.json records what `parse_scalar` and
`parse_poly` (3 variables) make of it: the formatted value, the
`ParseError` message and position, or the name of any other exception.
A change to the parsers is checked against these recorded outcomes rather
than against a second run of itself.

Re-record (only when a parse change is intended):

    PYTHONPATH=src python tests/test_parse_golden.py
"""

import json
import os
import random
import sys

import pytest

from jspec.polyalg import format_poly, parse_poly
from jspec.scalar import FieldContext, ParseError, format_scalar, parse_scalar

K = FieldContext(2)
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "parse_golden.json")

GRAMMARS = {
    "scalar": (lambda text: parse_scalar(text, K), format_scalar),
    "poly": (lambda text: parse_poly(text, 3, K), format_poly),
}

# The strings tests/test_scalar.py and tests/test_polyalg.py parse or
# expect from the formatters.
FIXED = [
    "0", "1/2 + 1/2*i", "3 - 2*r", "r*i", "i*r", "-i", "2r",
    "  - 7/2  +  3 r i ", "1+1", "1/2+1/2*i", "3-2*r", "-r*i", "-r+i",
    "5/3*r*i", "", "1 +", "i*i", "r r", "1/0", "3..5", "2 **i", "x", "1 2",
    "c1*c2*c3", "2/3*c1*c2+(1/2-1/3*r)*c1*c3+1/2*c2*c3", "-c1^2 + i*c2",
    "r*i*c1", "c1*c1", "c4", "c1^", "(1+i", "c1+", "c0", "c1**c2", "1//2",
    "c2^2-c1", "-1/2",
]
# Whitespace and '/', non-ASCII digits, a literal past int()'s default
# 4300-digit limit.
EDGES = ["1/ 0", "1/x", "c  2", "c1 ^ 2", "²", "٣", "7" * 5000]
ALPHABET = "0123456789/+-*()^ircx²٣ "


def corpus() -> list:
    rng = random.Random(20260401)
    rand = ["".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 10)))
            for _ in range(800)]
    return FIXED + EDGES + rand


def outcome(grammar: str, text: str) -> dict:
    parse, fmt = GRAMMARS[grammar]
    try:
        value = parse(text)
    except ParseError as err:
        suffix = f" at position {err.pos}: {err.text!r}"
        message = str(err)
        assert message.endswith(suffix), message
        return {"error": message[:-len(suffix)], "pos": err.pos}
    except Exception as err:  # recorded, not handled
        return {"raises": type(err).__name__}
    return {"value": fmt(value)}


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _moved(message: str, pos: int, text: str) -> tuple:
    """The error the shared literal rules report where the old code gave
    (message, pos) on text.

    The poly grammar's "expected an integer after '/'" became the one
    "expected an integer", reported past the whitespace after '/' as the
    scalar grammar did; "division by zero literal" points at the zero
    literal in both grammars (the scalar grammar used to point just past
    the '/').
    """
    if message == "expected an integer after '/'":
        return "expected an integer", _skip_ws(text, pos + 1)
    if message == "division by zero literal":
        return message, _skip_ws(text, pos)
    return message, pos


def expected_now(text: str, old: dict) -> dict:
    """The recorded outcome as the shared parser core must now give it.

    Returns {"error": None} where only "some ParseError" is required.
    """
    if "٣" in text or "raises" in old:
        # Only ASCII digits are digits, so U+0663 is rejected wherever it
        # stands; a bare ValueError from int() (a digit such as U+00B2, a
        # literal past the int-string limit) is now a positioned ParseError.
        return {"error": None}
    if "value" in old:
        return old
    message, pos = _moved(old["error"], old["pos"], text)
    return {"error": message, "pos": pos}


def _load() -> dict:
    with open(DATA, encoding="utf-8") as handle:
        return json.load(handle)


GOLDEN = _load() if os.path.exists(DATA) else {"cases": []}


@pytest.mark.parametrize("grammar", sorted(GRAMMARS))
def test_parse_outcomes_match_golden(grammar):
    mismatches = []
    for case in GOLDEN["cases"]:
        text = case["text"]
        want = expected_now(text, case[grammar])
        got = outcome(grammar, text)
        if want == {"error": None}:
            ok = set(got) == {"error", "pos"}
        else:
            ok = got == want
        if not ok:
            mismatches.append((text[:40], case[grammar], got))
    assert not mismatches, mismatches[:10]


def test_golden_covers_the_corpus():
    assert [c["text"] for c in GOLDEN["cases"]] == corpus()


if __name__ == "__main__":
    cases = [{"text": text, **{g: outcome(g, text) for g in sorted(GRAMMARS)}}
             for text in corpus()]
    with open(DATA, "w", encoding="utf-8") as handle:
        json.dump({"cases": cases}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(cases)} strings to {DATA}", file=sys.stderr)
