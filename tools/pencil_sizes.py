"""Time the pencil determinant two ways and its squarefree part two ways.

    python3 tools/pencil_sizes.py

Run from the root of a jspec source tree; the program is imported from its
``src`` directory and the reference from ``tests``.  Each case is built as
the benchmark's `pencil` workload builds its triples
(`verify.random_projection` with a fixed seed), and each way is timed
REPEAT times, the two ways taking turns:

- ``reference``: the `MultiPoly` subset DP of `tests/reference_pencil.py`,
  which `spectrum.pencil_poly` ran before its DP became fraction-free;
- ``per_projection``: `spectrum.pencil_poly`, which scales each P_l by its
  own D_l.

One common denominator D for every P_l was timed as a third way and
rejected; its numbers are in `BENCH_8.json`.

The squarefree part of each pencil is then timed the same way, two ways
taking turns:

- ``sf_gcd_loop``: `polyalg._squarefree_part_by_gcds`, the multivariate
  GCDs with the partial derivatives;
- ``sf``: `polyalg.squarefree_part`, which first tries the squarefreeness
  certificate on two fixed lines and runs the GCD loop only when it fails.

The ``pool`` case is one pass over the 24 triples of the `pencil` workload;
the others are single tuples, one at a large d and one with k = 4.  Each
case prints one JSON line with the median and minimum wall seconds of each
way, the number of pencil terms, how many pencils the certificate proves
squarefree, the total degree of the pencils and of their squarefree parts,
and digests of the printed pencils and squarefree parts; the ways must
agree.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from jspec import polyalg, spectrum  # noqa: E402
from jspec.polyalg import format_poly  # noqa: E402
from jspec.verify import TrialConfig, random_projection  # noqa: E402
from reference_pencil import pencil_poly as reference  # noqa: E402

REPEAT = 5
# name: (d, [(n, ranks, seed), ...])
CASES = {
    "pool": (2, [(6, (2, 3, 4), 1000 + i) for i in range(16)]
             + [(7, (2, 4, 6), 2000 + i) for i in range(8)]),
    "n8": (2, [(8, (3, 5, 6), 8)]),
    "n10": (2, [(10, (3, 6, 8), 10)]),
    "n8_large_d": (999999937, [(8, (7, 7, 7), 8)]),
    "n8_k4": (2, [(8, (2, 4, 5, 6), 84)]),
}


WAYS = {
    "reference": lambda projs: reference(projs).pencil,
    "per_projection": lambda projs: spectrum.pencil_poly(projs).pencil,
}

SF_WAYS = {
    "sf_gcd_loop": polyalg._squarefree_part_by_gcds,
    "sf": polyalg.squarefree_part,
}


def timed(ways: dict, inputs: list) -> tuple[dict, dict]:
    """Outputs of each way on the inputs, and its median and minimum time."""
    results, times = {}, {way: [] for way in ways}
    for _ in range(REPEAT):
        for way, fn in ways.items():
            start = perf_counter()
            results[way] = [fn(x) for x in inputs]
            times[way].append(perf_counter() - start)
    return results, {way: {"median_s": round(statistics.median(seconds), 4),
                           "min_s": round(min(seconds), 4)}
                     for way, seconds in times.items()}


def digest(polys: list) -> str:
    text = "\n".join(format_poly(p) for p in polys)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main() -> int:
    for name, (d, specs) in CASES.items():
        tuples = []
        for n, ranks, seed in specs:
            cfg = TrialConfig(n=n, k=len(ranks), d=d)
            rng = random.Random(seed)
            tuples.append([random_projection(cfg, r, rng) for r in ranks])
        row = {"case": name, "d": d, "tuples": len(tuples)}
        results, times = timed(WAYS, tuples)
        row.update(times)
        if results["reference"] != results["per_projection"]:
            raise SystemExit(f"{name}: the two pencils differ")
        pencils = [p for p in results["per_projection"] if p]
        row["terms"] = sum(len(p.terms) for p in results["per_projection"])
        row["digest"] = digest(results["per_projection"])
        sfs, times = timed(SF_WAYS, pencils)
        row.update(times)
        if sfs["sf"] != sfs["sf_gcd_loop"]:
            raise SystemExit(f"{name}: the squarefree parts differ")
        row["certified"] = sum(polyalg._certified_squarefree(
            polyalg.canonicalize(p)) for p in pencils)
        row["degree"] = [p.total_degree() for p in pencils]
        row["sf_degree"] = [p.total_degree() for p in sfs["sf"]]
        row["sf_digest"] = digest(sfs["sf"])
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
