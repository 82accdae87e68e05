"""Command-line front end: files and flags in, deterministic text out.

Exit codes: 0 when the request succeeds (and, for verify/witness, the
checked expectation holds), 1 when a checked property fails or a witness
outcome contradicts --expect, 2 for usage and input errors.  All randomness
flows from --seed, so identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Callable, NamedTuple, Optional

from jspec.exactla import Matrix
from jspec.lattice import Projection, projection_from_json, projection_to_json
from jspec.maps import ProjectionMap, make_induced, map_from_json
from jspec.polyalg import format_poly
from jspec.scalar import (
    QUOTE_LIMIT,
    Automorphism,
    FieldContext,
    ParseError,
    _quote_text,
    parse_scalar,
)
from jspec.spectrum import (
    classify_rank_one_tuple,
    pencil_poly,
    tuple_from_json,
)
from jspec.verify import (
    MAX_K,
    MAX_N,
    TrialConfig,
    VerificationReport,
    check_det_automorphism,
    check_extension_consistency,
    check_map_morphism,
    check_map_preservation,
    check_pair_equivalences,
    check_rank_join_preservation,
    check_rank_one_classification,
    check_rank_one_map_k_preservation,
    check_small_rank_one_fullness,
    check_two_projection_sum_identity,
    find_spectrum_witness,
)

DEFAULT_SEED = 1


class UsageError(ValueError):
    """Bad flags or inconsistent inputs; reported with exit code 2."""


class _ArgumentParser(argparse.ArgumentParser):
    """An argparse parser whose errors quote at most QUOTE_LIMIT characters
    of each word, so a long bad argument is not echoed whole."""

    def error(self, message: str):
        super().error(re.sub(r"\S+", lambda word: _quote_text(word[0]),
                             message))


def _load_json(path: str) -> object:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        # a path that cannot be opened may be any text: quote its end
        err.filename = _quote_text(path, max(len(path) - QUOTE_LIMIT, 0))
        raise UsageError(f"cannot read {err.filename}: {err}") from err
    except json.JSONDecodeError as err:
        raise UsageError(f"{path} is not valid JSON: {err}") from err
    except RecursionError as err:
        raise UsageError(f"{path} nests JSON too deeply to read") from err


def _rows_in(obj: object, key: str) -> int:
    """Row count of the unparsed matrix form obj[key], 0 if it has none."""
    form = obj.get(key) if isinstance(obj, dict) else None
    rows = form.get("rows") if isinstance(form, dict) else None
    return len(rows) if isinstance(rows, list) else 0


def _check_n(path: str, forms: list) -> None:
    """Raise unless every unparsed projection form has n <= MAX_N.

    n is read from the JSON, as building a projection costs n^3.
    """
    n = max((max(_rows_in(p, "matrix"), _rows_in(p, "span"))
             for p in forms), default=0)
    if n > MAX_N:
        raise UsageError(f"{path}: dimension n must be at most {MAX_N}, "
                         f"got {n}")


def _load_tuple(path: str, ctx: FieldContext) -> list[Projection]:
    """A tuple small enough for the pencil's exponential subset DP."""
    obj = _load_json(path)
    items = obj.get("projections") if isinstance(obj, dict) else None
    if isinstance(items, list):
        _check_n(path, items)
        if len(items) > MAX_K:
            raise UsageError(f"{path}: tuple length k must be at most "
                             f"{MAX_K}, got {len(items)}")
    return tuple_from_json(obj, ctx)


def _load_projection(path: str, ctx: FieldContext) -> Projection:
    obj = _load_json(path)
    _check_n(path, [obj])
    return projection_from_json(obj, ctx)


def _load_map(path: str, ctx: FieldContext, n: int) -> ProjectionMap:
    """A map on K^n, its size read from the JSON, as building it costs n^3."""
    obj = _load_json(path)
    key = "B" if isinstance(obj, dict) and obj.get("kind") == "induced" else "U"
    size = _rows_in(obj, key)
    if size not in (0, n):
        raise ValueError(f"map on K^{size} applied to K^{n}")
    return map_from_json(obj, ctx)


def _tuple_length(args, default: int, source: str) -> int:
    """--k, or the default of --suite or --kind, which the error then names."""
    if args.k is None and args.n <= MAX_N and default > MAX_K:
        raise UsageError(f"tuple length k must be at most {MAX_K}, got "
                         f"{default} (the {source} default; pass --k)")
    return default if args.k is None else args.k


def _parse_point(text: str, ctx: FieldContext) -> list:
    return [parse_scalar(part.strip(), ctx) for part in text.split(",")]


def _print_projection(p: Projection) -> None:
    print(json.dumps(projection_to_json(p), sort_keys=True, indent=2))


def _write_report(path: Optional[str], payload: dict) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, sort_keys=True, indent=2))
        handle.write("\n")


# -- subcommand handlers -----------------------------------------------------------


def _cmd_poly(args) -> int:
    ctx = FieldContext(args.d)
    spectrum = pencil_poly(_load_tuple(args.tuple, ctx))
    print(format_poly(spectrum.pencil))
    return 0


def _cmd_classify(args) -> int:
    ctx = FieldContext(args.d)
    projs = _load_tuple(args.tuple, ctx)
    if len(projs) == projs[0].n and all(p.rank == 1 for p in projs):
        # builds the pencil itself and answers "full" when it vanishes
        print(classify_rank_one_tuple(projs).value)
    elif pencil_poly(projs).is_full():
        print("full")
    else:
        print("hypersurface")
    return 0


def _cmd_member(args) -> int:
    ctx = FieldContext(args.d)
    projs = _load_tuple(args.tuple, ctx)
    try:
        point = _parse_point(args.point, ctx)
    except ParseError as err:
        raise UsageError(f"bad --point value: {err}") from err
    if len(point) != len(projs):  # checked before the exponential pencil
        raise UsageError(f"bad --point value: {len(point)} coordinates for "
                         f"a tuple of {len(projs)} projections")
    spectrum = pencil_poly(projs)
    print("in-spectrum" if spectrum.member(point) else "not-in-spectrum")
    return 0


def _cmd_lattice(args) -> int:
    ctx = FieldContext(args.d)
    p = _load_projection(args.p, ctx)
    if args.op == "rank":
        if args.q is not None:
            raise UsageError("--op rank takes only --p")
        print(p.rank)
        return 0
    if args.q is None:
        raise UsageError(f"--op {args.op} needs --q")
    q = _load_projection(args.q, ctx)
    if args.op == "meet":
        _print_projection(p.meet(q))
    elif args.op == "join":
        _print_projection(p.join(q))
    elif args.op == "leq":
        print("true" if p.leq(q) else "false")
    else:
        print("true" if p.is_orthogonal_to(q) else "false")
    return 0


def _cmd_map_apply(args) -> int:
    ctx = FieldContext(args.d)
    p = _load_projection(args.p, ctx)
    _print_projection(_load_map(args.map, ctx, p.n).apply(p))
    return 0


class Suite(NamedTuple):
    """One `verify --suite` choice."""

    default_k: Callable[[int], int]  # tuple length for dimension n
    maps: str  # whether --map is "none", "optional" or "required"
    run: Callable[[TrialConfig, Optional[ProjectionMap]], VerificationReport]


# The runners look the check functions up when called, so a caller that
# rebinds a module name (a tracer, a test double) is seen here too.
VERIFY_SUITES = {
    "pairs": Suite(lambda n: 2, "none",
                   lambda cfg, m: check_pair_equivalences(cfg)),
    "lemma41": Suite(lambda n: n, "none",
                     lambda cfg, m: check_rank_one_classification(cfg)),
    "lemma31": Suite(lambda n: 2, "none",
                     lambda cfg, m: check_two_projection_sum_identity(cfg)),
    "det-auto": Suite(lambda n: 2, "none",
                      lambda cfg, m: check_det_automorphism(cfg)),
    "morphism": Suite(lambda n: 2, "optional",
                      lambda cfg, m: check_map_morphism(cfg, m)),
    "rank-join": Suite(lambda n: n, "required",
                       lambda cfg, m: check_rank_join_preservation(m, cfg)),
    "extension": Suite(lambda n: 2, "required",
                       lambda cfg, m: check_extension_consistency(m, cfg)),
    "map-preserve": Suite(lambda n: 2, "required",
                          lambda cfg, m: check_map_preservation(m, cfg)),
    "rank-one-k": Suite(
        lambda n: n + 1, "required",
        lambda cfg, m: check_rank_one_map_k_preservation(m, cfg)),
}
# rank-one-k with k < n: such tuples always have full spectrum, so the suite
# checks that instead, with no map.
_SHORT_RANK_ONE = VERIFY_SUITES["rank-one-k"]._replace(
    maps="none", run=lambda cfg, m: check_small_rank_one_fullness(cfg))


def _cmd_verify(args) -> int:
    suite, name = VERIFY_SUITES[args.suite], f"suite {args.suite}"
    k = _tuple_length(args, suite.default_k(args.n), f"--suite {args.suite}")
    cfg = TrialConfig(n=args.n, k=k, trials=args.trials, seed=args.seed,
                      d=args.d)
    if args.suite == "rank-one-k":
        name += " with k < n" if k < args.n else " with k >= n"
        suite = _SHORT_RANK_ONE if k < args.n else suite
    m = None if args.map is None else _load_map(args.map, cfg.ctx, cfg.n)
    if suite.maps == "none" and m is not None:
        raise UsageError(f"{name} takes no map; drop --map")
    if suite.maps == "required" and m is None:
        raise UsageError(f"{name} needs --map")
    report = suite.run(cfg, m)
    print(report.render())
    _write_report(args.report, report.to_json())
    return 0 if report.passed else 1


def _cmd_witness(args) -> int:
    if args.budget < 0:
        raise UsageError(f"--budget must be nonnegative, got {args.budget}")
    rank_one_only = args.kind == "flip-rank-one"
    k = _tuple_length(args, args.n + 1 if rank_one_only else 3,
                      f"--kind {args.kind}")
    cfg = TrialConfig(n=args.n, k=k, seed=args.seed, d=args.d)
    if args.map is not None:
        m = _load_map(args.map, cfg.ctx, cfg.n)
    else:
        m = make_induced(Automorphism.FLIP, Matrix.identity(cfg.n, cfg.ctx))
    witness = find_spectrum_witness(m, cfg, args.budget,
                                    rank_one_only=rank_one_only)
    if witness is None:
        print(f"no witness within budget {args.budget}")
    else:
        print(witness.render())
    _write_report(args.report, {
        "kind": args.kind,
        "budget": args.budget,
        "config": cfg.as_dict(),
        "witness": None if witness is None else witness.to_json()})
    found = witness is not None
    return 0 if found == (args.expect == "found") else 1


# -- parser -----------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--d", type=int, default=2,
                     help="squarefree field parameter (default 2)")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help=f"base seed for all randomness "
                          f"(default {DEFAULT_SEED})")
    sub.add_argument("--report", metavar="PATH",
                     help="also write a JSON report file")


@functools.cache  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="jspec",
        description="exact joint spectra of projection tuples over Q(i, sqrt d)")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("poly", help="print the pencil polynomial")
    sub.add_argument("--tuple", required=True, metavar="FILE")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_poly)

    sub = subs.add_parser("classify",
                          help="full / coordinate-hyperplanes / hypersurface")
    sub.add_argument("--tuple", required=True, metavar="FILE")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_classify)

    sub = subs.add_parser("member", help="test a point against the spectrum")
    sub.add_argument("--tuple", required=True, metavar="FILE")
    sub.add_argument("--point", required=True,
                     help="comma-separated scalars, e.g. \"1,1,-2\"")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_member)

    sub = subs.add_parser("lattice", help="meet/join/rank/leq/orth")
    sub.add_argument("--op", required=True,
                     choices=("meet", "join", "rank", "leq", "orth"))
    sub.add_argument("--p", required=True, metavar="FILE")
    sub.add_argument("--q", metavar="FILE")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_lattice)

    sub = subs.add_parser("map-apply", help="apply a map file to a projection")
    sub.add_argument("--map", required=True, metavar="FILE")
    sub.add_argument("--p", required=True, metavar="FILE")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_map_apply)

    sub = subs.add_parser("verify", help="run one seeded check suite")
    sub.add_argument("--suite", required=True, choices=tuple(VERIFY_SUITES))
    sub.add_argument("--n", type=int, default=3, help="dimension (default 3)")
    sub.add_argument("--k", type=int, default=None,
                     help="tuple length (suite-dependent default)")
    sub.add_argument("--trials", type=int, default=100)
    sub.add_argument("--map", metavar="FILE",
                     help="map file for the map-driven suites")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_verify)

    sub = subs.add_parser("witness",
                          help="search for a spectrum-changing tuple")
    sub.add_argument("--kind", required=True,
                     choices=("flip-triple", "flip-rank-one"))
    sub.add_argument("--budget", type=int, default=1000)
    sub.add_argument("--n", type=int, default=3)
    sub.add_argument("--k", type=int, default=None)
    sub.add_argument("--map", metavar="FILE",
                     help="override the default induced flip map")
    sub.add_argument("--expect", choices=("found", "absent"),
                     default="found",
                     help="exit 0 only on this outcome (default found)")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_witness)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    for j in reversed(range(len(argv) - 1)):
        if argv[j] == "--point":  # argparse takes "-1,1" for an option
            argv[j:j + 2] = [f"--point={argv[j + 1]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        dropped = [name for name, value in vars(args).items() if value == []]
        if dropped:  # argparse stores a "--" value ("--p=--") as []
            raise UsageError(f"argument --{dropped[0]}: expected a value, "
                             "got '--'")
        return args.handler(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
