"""Time the pencil determinant three ways on fixed projection tuples.

    python3 tools/pencil_sizes.py

Run from the root of a jspec source tree; the program is imported from its
``src`` directory and the reference from ``tests``.  Each case is built as
the benchmark's `pencil` workload builds its triples
(`verify.random_projection` with a fixed seed), and each way is timed
REPEAT times, the three ways taking turns:

- ``reference``: the `MultiPoly` subset DP of `tests/reference_pencil.py`,
  which `spectrum.pencil_poly` ran before its DP became fraction-free;
- ``common_d``: the integer DP with every P_l scaled by one common
  denominator D;
- ``per_projection``: `spectrum.pencil_poly`, which scales each P_l by its
  own D_l.

The ``pool`` case is one pass over the 24 triples of the `pencil` workload;
the others are single tuples, one at a large d.  Each case prints one JSON
line with the median and minimum wall seconds of each way, the number of
pencil terms and a digest of the printed pencil; the three ways must agree.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import sys
from fractions import Fraction
from math import lcm
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from jspec import spectrum  # noqa: E402
from jspec.polyalg import MultiPoly, format_poly  # noqa: E402
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
}


def common_d(projs) -> MultiPoly:
    """The pencil with every P_l scaled by the lcm D of all denominators."""
    k, n, ctx = spectrum._check_tuple(projs)
    forms = [[[x.integer_form() for x in row] for row in p.matrix.rows]
             for p in projs]
    den = lcm(*(x[4] for rows in forms for row in rows for x in row))
    terms = {alpha: ctx.elem(*v) for alpha, v in
             spectrum._integer_pencil(forms, [den] * k, ctx.d).items()}
    return MultiPoly(k, terms, ctx) * ctx.elem(Fraction(1, den ** n))


WAYS = {
    "reference": lambda projs: reference(projs).pencil,
    "common_d": common_d,
    "per_projection": lambda projs: spectrum.pencil_poly(projs).pencil,
}


def main() -> int:
    for name, (d, specs) in CASES.items():
        tuples = []
        for n, ranks, seed in specs:
            cfg = TrialConfig(n=n, k=len(ranks), d=d)
            rng = random.Random(seed)
            tuples.append([random_projection(cfg, r, rng) for r in ranks])
        row = {"case": name, "d": d, "tuples": len(tuples)}
        results, times = {}, {way: [] for way in WAYS}
        for _ in range(REPEAT):
            for way, fn in WAYS.items():
                start = perf_counter()
                results[way] = [fn(projs) for projs in tuples]
                times[way].append(perf_counter() - start)
        for way, seconds in times.items():
            row[way] = {"median_s": round(statistics.median(seconds), 4),
                        "min_s": round(min(seconds), 4)}
        if not results["reference"] == results["common_d"] \
                == results["per_projection"]:
            raise SystemExit(f"{name}: the three pencils differ")
        text = "\n".join(format_poly(p) for p in results["per_projection"])
        row["terms"] = sum(len(p.terms) for p in results["per_projection"])
        row["digest"] = hashlib.sha256(text.encode()).hexdigest()[:16]
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
