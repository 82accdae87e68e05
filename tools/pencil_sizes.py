"""Time the pencil, its subset DP and its squarefree part.

    python3 tools/pencil_sizes.py [CASE ...]

With case names, only those cases run, in the order of CASES.  Run from the
root of a jspec source tree; the program is imported from its ``src``
directory, the reference from ``tests`` and the reference loop from
``benchmarks``.  Each case is built as the benchmark's `pencil` workload
builds its triples (`verify.random_projection` with a fixed seed), and
each way is timed
REPEAT times, the ways taking turns.  One timing runs a way over the
case's tuples as many times as fill MIN_TIMING_S (at least once, counted
after one untimed warm-up pass; a way timed only once gets one pass and
no warm-up), and the row gives the seconds per pass, so that a
millisecond pencil is not read off a single call.  The host's speed drifts
by up to about 2x over minutes, so each timing is also bracketed by runs
of the fixed reference loop of `benchmarks/run.py` and scaled, as that
benchmark scales its items, by REFERENCE_S over the mean of the loop's two
times: the ``scaled_*`` figures read as if measured at one fixed speed,
so rows taken minutes apart, or on two trees, can be compared.  The ways:

- ``reference``: the `MultiPoly` subset DP of `tests/reference_pencil.py`,
  which `spectrum.pencil_poly` ran before its DP became fraction-free;
- ``per_projection``: `spectrum.pencil_poly` on the same `Projection`
  objects every pass, so after the warm-up each member's matrix, and
  with it g_l P_l (`Matrix.scaled`), is already built: the revisit path;
- ``fresh``: `spectrum.pencil_poly` on new `Projection` objects built from
  the same bases for every call, so each pass builds every matrix
  (`exactla.projection_onto`) again, as the suites do for the
  projections they draw.

Both pencil ways take the closed form when the ranks add up to at most
n + 1, and else scale each P_l by its Gram determinant g_l for the DP.

One common denominator D for every P_l was timed as a third way and
rejected; its numbers are in `BENCH_8.json`.  The reference takes minutes
on the largest cases, so those (``repeat`` below REPEAT) skip it, and time
only ``sf``, in one timing of one pass.

The subset DP alone is then timed on the rows of g_l P_l that P_l's
matrix keeps (`Matrix.scaled`, read by `gram_forms` of
`tests/reference_pencil.py`), in two layouts taking turns:

- ``packed``: `spectrum._packed_dp`;
- ``dict``: `dict_dp` of `tests/reference_pencil.py`, each state a dict
  of monomials; `spectrum` ran it as its second layout until the Gram
  scale made the packed layout the only one.

Each row gives the slot width ``w`` of every tuple and the path that
`pencil_poly` takes for it: ``closed form`` when the ranks add up to at
most n + 1, else ``packed``.  The layouts are timed on the ``packed``
tuples only, since `pencil_poly` runs no DP for the others; on a
closed-form tuple each layout runs once, untimed, for the checks below.

The squarefree part of each pencil is then timed the same way, two ways
taking turns:

- ``sf_gcd_loop``: `polyalg._squarefree_part_by_gcds`, the multivariate
  GCDs with the partial derivatives;
- ``sf``: `polyalg.squarefree_part`, which first tries the squarefreeness
  certificate on two fixed lines and runs the GCD loop only when it fails.

The ``pool`` case is one pass over the 24 triples of the `pencil` workload;
the others are single tuples: two at a large d, one with k = 4, n = k = 10
rank-one lines (the `lemma41` shape), 9 lines on K^10 (pencil 0) and 10
lines on K^9 (the `rank-one-k` shapes), n = 12 at ranks (9, 9, 9), and two
at d = 2 whose pencils have a repeated factor, so that the certificate
fails and ``sf`` runs the GCD loop (``n6_repeated``, ranks (5, 5, 5), and
``n7_repeated``, ranks (6, 6, 6)).  Each case prints one JSON line with
the median and minimum seconds per pass of each way, raw and scaled, and
its passes per timing, the number of pencil terms, how many pencils the certificate
proves squarefree, the total degree of the pencils and of their
squarefree parts, and digests of the printed pencils and squarefree
parts.  The ways must agree, the packed and dict layouts must agree on
the same entries, and the pencil rescaled from the packed layout must
equal `pencil_poly`'s.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import sys
from math import ceil
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"),
                os.path.join(ROOT, "benchmarks")]

from jspec import polyalg, spectrum  # noqa: E402
from jspec.lattice import Projection  # noqa: E402
from jspec.polyalg import format_poly  # noqa: E402
from jspec.scalar import FieldContext  # noqa: E402
from jspec.verify import TrialConfig, random_projection  # noqa: E402
from reference_pencil import dict_dp, gram_forms  # noqa: E402
from reference_pencil import pencil_poly as reference  # noqa: E402
from run import REFERENCE_S, reference_loop  # noqa: E402

REPEAT = 5
MIN_TIMING_S = 0.2  # a timing repeats its pass until it lasts this long
# name: (d, [(n, ranks, seed), ...], repeat)
CASES = {
    "pool": (2, [(6, (2, 3, 4), 1000 + i) for i in range(16)]
             + [(7, (2, 4, 6), 2000 + i) for i in range(8)], REPEAT),
    "n8": (2, [(8, (3, 5, 6), 8)], REPEAT),
    "n10": (2, [(10, (3, 6, 8), 10)], REPEAT),
    "n8_large_d": (999999937, [(8, (7, 7, 7), 8)], REPEAT),
    "n8_k4": (2, [(8, (2, 4, 5, 6), 84)], REPEAT),
    "n7_large_d": (999999937, [(7, (2, 4, 6), 7)], REPEAT),
    "n10_rank_one": (2, [(10, (1,) * 10, 10)], 3),
    "n10_k9_rank_one": (2, [(10, (1,) * 9, 109)], 3),
    "n9_k10_rank_one": (2, [(9, (1,) * 10, 910)], 3),
    "n12": (2, [(12, (9, 9, 9), 12)], 3),
    "n6_repeated": (2, [(6, (5, 5, 5), 6)], REPEAT),
    "n7_repeated": (2, [(7, (6, 6, 6), 7)], REPEAT),
}


WAYS = {
    "reference": lambda projs: reference(projs).pencil,
    "per_projection": lambda projs: spectrum.pencil_poly(projs).pencil,
    "fresh": lambda projs: spectrum.pencil_poly(
        [Projection(p.basis) for p in projs]).pencil,
}

# Each input holds one tuple's forms g_l P_l, their slot width w, the g_l
# ("scales"), ranks and d.
LAYOUTS = {
    "packed": lambda x: spectrum._packed_dp(x["forms"], x["ranks"], x["d"],
                                            x["w"]),
    "dict": lambda x: dict_dp(x["forms"], x["d"]),
}

SF_WAYS = {
    "sf_gcd_loop": polyalg._squarefree_part_by_gcds,
    "sf": polyalg.squarefree_part,
}


def timed(ways: dict, inputs: list, repeat: int) -> tuple[dict, dict]:
    """Outputs of each way on the inputs, and its median and minimum time.

    With more than one timing, the untimed warm-up pass of each way sets
    its number of passes per timing; one timing is one pass.  The times
    are per pass, in wall seconds and scaled to the reference speed.
    """
    results, passes = {}, {way: 1 for way in ways}
    for way, fn in ways.items():
        if repeat > 1:
            start = perf_counter()
            results[way] = [fn(x) for x in inputs]
            passes[way] = ceil(MIN_TIMING_S / (perf_counter() - start))
    times = {way: [] for way in ways}
    scaled = {way: [] for way in ways}
    before = reference_loop()
    for _ in range(repeat):
        for way, fn in ways.items():
            start = perf_counter()
            for _ in range(passes[way]):
                results[way] = [fn(x) for x in inputs]
            elapsed = (perf_counter() - start) / passes[way]
            after = reference_loop()
            times[way].append(elapsed)
            scaled[way].append(elapsed * 2 * REFERENCE_S / (before + after))
            before = after
    return results, {way: {"median_s": round(statistics.median(times[way]), 6),
                           "min_s": round(min(times[way]), 6),
                           "scaled_median_s": round(
                               statistics.median(scaled[way]), 6),
                           "scaled_min_s": round(min(scaled[way]), 6),
                           "passes": passes[way]}
                     for way in ways}


def digest(polys: list) -> str:
    text = "\n".join(format_poly(p) for p in polys)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in CASES]
    if unknown:
        raise SystemExit(f"unknown cases {unknown}; known: {list(CASES)}")
    for name, (d, specs, repeat) in CASES.items():
        if names and name not in names:
            continue
        tuples = []
        for n, ranks, seed in specs:
            cfg = TrialConfig(n=n, k=len(ranks), d=d)
            rng = random.Random(seed)
            tuples.append([random_projection(cfg, r, rng) for r in ranks])
        row = {"case": name, "d": d, "tuples": len(tuples), "repeat": repeat}
        ways = WAYS if repeat == REPEAT else {
            way: fn for way, fn in WAYS.items() if way != "reference"}
        results, times = timed(ways, tuples, repeat)
        row.update(times)
        if any(pencils != results["per_projection"]
               for pencils in results.values()):
            raise SystemExit(f"{name}: the pencils differ")
        dps = []
        for projs in tuples:
            forms, scales = gram_forms(projs)
            dps.append({"ranks": [p.rank for p in projs], "d": d,
                        "forms": forms, "scales": scales,
                        "w": spectrum._slot_width(forms, d)})
        row["w"] = [x["w"] for x in dps]
        row["path"] = ["closed form"
                       if sum(x["ranks"]) <= len(x["forms"][0]) + 1
                       else "packed" for x in dps]
        on_dp = [i for i, path in enumerate(row["path"]) if path == "packed"]
        layouts = {way: {i: fn(x) for i, x in enumerate(dps) if i not in on_dp}
                   for way, fn in LAYOUTS.items()}
        if on_dp:
            outs, times = timed(LAYOUTS, [dps[i] for i in on_dp], repeat)
            row.update(times)
            for way, out in outs.items():
                layouts[way].update(zip(on_dp, out))
        if layouts["packed"] != layouts["dict"]:
            raise SystemExit(f"{name}: the packed and dict layouts differ")
        ctx = FieldContext(d)
        if results["per_projection"] != [
                spectrum._rescaled(layouts["packed"][i], x["scales"],
                                   len(x["forms"][0]), ctx)
                for i, x in enumerate(dps)]:
            raise SystemExit(f"{name}: pencil_poly and packed differ")
        pencils = [p for p in results["per_projection"] if p]
        row["terms"] = sum(len(p.terms) for p in results["per_projection"])
        row["digest"] = digest(results["per_projection"])
        # The n = 12 pencil is not certified, so `sf` runs the GCD loop,
        # for a minute and a half: the large cases time `sf` in one timing
        # of one pass.
        sf_ways = SF_WAYS if repeat == REPEAT else {"sf": SF_WAYS["sf"]}
        sfs, times = timed(sf_ways, pencils, repeat if repeat == REPEAT else 1)
        row.update(times)
        if sfs.get("sf_gcd_loop", sfs["sf"]) != sfs["sf"]:
            raise SystemExit(f"{name}: the squarefree parts differ")
        row["certified"] = sum(polyalg._certified_squarefree(
            polyalg.canonicalize(p)) for p in pencils)
        row["degree"] = [p.total_degree() for p in pencils]
        row["sf_degree"] = [p.total_degree() for p in sfs["sf"]]
        row["sf_digest"] = digest(sfs["sf"])
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
