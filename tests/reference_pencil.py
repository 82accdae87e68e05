"""Reference pencils: the subset DP over `MultiPoly`s of `FieldElem`s, the
subset DP over dicts of integer monomials, and the Leibniz expansion.

`pencil_poly` is the pencil determinant jspec computed before its DP moved
to integer coefficients: `spectrum.pencil_poly` now scales each P_l by its
Gram determinant g_l, which makes g_l P_l integral, runs the DP on
Z[i, sqrt d], and rescales at the end.  `dict_dp` runs that DP with each
state a dict of monomials, on the same integral forms as `spectrum`'s
packed DP: for each member the rows of M_l = s_l P_l, entries as 4-int
tuples.  It was `spectrum`'s second layout, picked by a cost model for
wide slots, until the Gram-determinant scale made the packed layout the
faster one on every timed case.  `gram_forms` reads the forms
`spectrum.pencil_poly` runs on, s_l = g_l, from each member's matrix
(`Matrix.scaled`); `lcm_forms` scales each P_l by the lcm of its entry
denominators instead, so a DP on its forms shares nothing with
`pencil_poly`'s but the rescaling formula.  `pencil_poly_leibniz`
expands the determinant over all n! permutations.  All of them are kept
for the differential tests in `tests/test_spectrum.py`,
`tests/test_acceptance.py` and `tools/pencil_sizes.py`, and are not used
by the package itself.
"""

from __future__ import annotations

from itertools import permutations
from typing import Sequence

from jspec.lattice import Projection
from jspec.polyalg import MultiPoly
from jspec.scalar import _integral
from jspec.spectrum import Coefficients, JointSpectrum, _check_tuple


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


def dict_dp(forms: Sequence[Sequence[Sequence[tuple]]],
            d: int) -> Coefficients:
    """The subset DP with each state a dict {monomial: (A, B, C, E)}.

    `forms` holds the rows of the M_l, as for `spectrum._packed_dp`, and k
    is their number.  A monomial c^alpha is one int key with alpha_l in
    bits width*l and up, so multiplying by c_l adds 1 << width*l.
    """
    k, n = len(forms), len(forms[0])
    width = n.bit_length()  # exponents are at most n < 2**width
    cells = [[[(1 << (width * l), *rows[r][j])
               for l, rows in enumerate(forms) if any(rows[r][j])]
              for j in range(n)] for r in range(n)]
    states: dict[int, dict[int, tuple[int, int, int, int]]] = {
        0: {0: (1, 0, 0, 0)}}
    for j in range(n):
        nxt: dict[int, dict[int, tuple[int, int, int, int]]] = {}
        for mask, acc in states.items():
            for r in range(n):
                bit = 1 << r
                if mask & bit or not cells[r][j]:
                    continue
                negate = (mask >> (r + 1)).bit_count() & 1
                out = nxt.setdefault(mask | bit, {})
                for shift, a2, b2, c2, e2 in cells[r][j]:
                    if negate:
                        a2, b2, c2, e2 = -a2, -b2, -c2, -e2
                    for key, (a1, b1, c1, e1) in acc.items():
                        # FieldElem.__mul__'s product, without the reduction
                        a = a1 * a2 - c1 * c2 + d * (b1 * b2 - e1 * e2)
                        b = a1 * b2 + b1 * a2 - c1 * e2 - e1 * c2
                        c = a1 * c2 + c1 * a2 + d * (b1 * e2 + e1 * b2)
                        e = a1 * e2 + b1 * c2 + c1 * b2 + e1 * a2
                        key += shift
                        cur = out.get(key)
                        if cur is not None:
                            a += cur[0]
                            b += cur[1]
                            c += cur[2]
                            e += cur[3]
                        out[key] = (a, b, c, e)
        states = {}
        for mask, poly in nxt.items():
            poly = {key: v for key, v in poly.items() if any(v)}
            if poly:
                states[mask] = poly
        if not states:
            break
    low = (1 << width) - 1
    return {tuple((key >> (width * l)) & low for l in range(k)): v
            for key, v in states.get((1 << n) - 1, {}).items()}


def gram_forms(projs: Sequence[Projection]) -> tuple[list, list[tuple]]:
    """The forms `spectrum.pencil_poly` runs its DP on, and the g_l.

    The rows of each g_l P_l, and g_l, come from the integral form that
    P_l's matrix keeps (`Matrix.scaled`).
    """
    scales, forms = zip(*(p.matrix.scaled for p in projs))
    return list(forms), list(scales)


def lcm_forms(projs: Sequence[Projection]) -> tuple[list, list[tuple]]:
    """`gram_forms` with s_l = D_l in place of g_l.

    D_l is the lcm of the denominators of P_l's entries, read from its
    matrix, so D_l P_l is integral.  Returns the rows of every D_l P_l,
    which `_packed_dp` and `dict_dp` read, and the D_l as 4-int tuples for
    `spectrum._rescaled`.
    """
    forms, scales = [], []
    for p in projs:
        den, ints = _integral([x for row in p.matrix.rows for x in row])
        forms.append([ints[i:i + p.n] for i in range(0, len(ints), p.n)])
        scales.append((den, 0, 0, 0))
    return forms, scales
