"""Reference pencils: the subset DP over `MultiPoly`s of `FieldElem`s, and
the Leibniz expansion.

`pencil_poly` is the pencil determinant jspec computed before its DP moved
to integer coefficients: `spectrum.pencil_poly` now scales each P_l by the
lcm D_l of its own entry denominators, runs the DP on Z[i, sqrt d], and
rescales at the end.  `pencil_poly_leibniz` expands the determinant over all
n! permutations.  Both are kept as oracles for the differential tests in
`tests/test_spectrum.py` and `tests/test_acceptance.py` and are not used by
the package itself.
"""

from __future__ import annotations

from itertools import permutations
from typing import Sequence

from jspec.lattice import Projection
from jspec.polyalg import MultiPoly
from jspec.spectrum import JointSpectrum, _check_tuple


def pencil_poly(projs: Sequence[Projection]) -> JointSpectrum:
    """Joint spectrum via the symbolic determinant of c1*P1 + ... + ck*Pk.

    Dynamic programming over columns: the state after j columns maps each
    j-subset of rows to the signed sum of its partial products, so work stays
    at 2^n states instead of n! permutation terms.
    """
    k, n, ctx = _check_tuple(projs)
    zero = MultiPoly.zero(k, ctx)
    entry: list[list[MultiPoly]] = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {}
            for l, p in enumerate(projs):
                coef = p.matrix[i, j]
                if coef:
                    terms[tuple(1 if m == l else 0 for m in range(k))] = coef
            row.append(MultiPoly(k, terms, ctx))
        entry.append(row)
    states: dict[int, MultiPoly] = {0: MultiPoly.const(k, 1, ctx)}
    for j in range(n):
        nxt: dict[int, MultiPoly] = {}
        for mask, acc in states.items():
            for r in range(n):
                bit = 1 << r
                if mask & bit:
                    continue
                e = entry[r][j]
                if e.is_zero():
                    continue
                term = acc * e
                if bin(mask >> (r + 1)).count("1") % 2:
                    term = -term
                cur = nxt.get(mask | bit)
                nxt[mask | bit] = term if cur is None else cur + term
        states = {m: p for m, p in nxt.items() if not p.is_zero()}
        if not states:
            break
    pencil = states.get((1 << n) - 1, zero)
    return JointSpectrum(k, n, pencil)


def pencil_poly_leibniz(projs: Sequence[Projection]) -> MultiPoly:
    """Pencil polynomial by raw permutation expansion."""
    k, n, ctx = _check_tuple(projs)
    entry = [[MultiPoly(k, {
        tuple(1 if m == l else 0 for m in range(k)): p.matrix[i, j]
        for l, p in enumerate(projs) if p.matrix[i, j]}, ctx)
        for j in range(n)] for i in range(n)]
    total = MultiPoly.zero(k, ctx)
    for perm in permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n)
                         if perm[a] > perm[b])
        term = MultiPoly.const(k, -1 if inversions % 2 else 1, ctx)
        for i in range(n):
            term = term * entry[i][perm[i]]
        total = total + term
    return total
