"""Session-wide invariant: every projection matrix the tests build is one.

Projection trusts the basis it is given and builds its matrix, unchecked,
on the first read of `.matrix`.  While the tests run, that first build is
wrapped, so each projection matrix built anywhere (the library, the suites,
the CLI) is re-checked to be Hermitian and idempotent, with the basis size
equal to its rank.

The checks run on plain ints: the entries' integer forms over one common
denominator D, so that M = D P lies in Z[i, sqrt d].  No Matrix or FieldElem
operation runs, so the check neither builds matrices the library would not
build nor adds calls to what a traced benchmark round counts.
"""

from math import lcm

import pytest

from jspec.lattice import Projection


def _mul(x, y, d):
    a1, b1, c1, e1 = x
    a2, b2, c2, e2 = y
    return (a1 * a2 - c1 * c2 + d * (b1 * b2 - e1 * e2),
            a1 * b2 + b1 * a2 - c1 * e2 - e1 * c2,
            a1 * c2 + c1 * a2 + d * (b1 * e2 + e1 * b2),
            a1 * e2 + b1 * c2 + c1 * b2 + e1 * a2)


def check_projection_matrix(m, rank):
    """Assert m is Hermitian and idempotent, of rank `rank`."""
    forms = [[x.integer_form() for x in row] for row in m.rows]
    n, d = m.nrows, m.ctx.d
    assert m.ncols == n, "projection matrix is not square"
    assert all(forms[i][j] == (a, b, -c, -e, den)
               for j, row in enumerate(forms)
               for i, (a, b, c, e, den) in enumerate(row)), \
        "projection matrix is not Hermitian"
    den = lcm(1, *(x[4] for row in forms for x in row))
    ints = [[tuple(v * (den // x[4]) for v in x[:4]) for x in row]
            for row in forms]
    for i in range(n):
        for j in range(n):
            acc = [0, 0, 0, 0]
            for k in range(n):
                for t, v in enumerate(_mul(ints[i][k], ints[k][j], d)):
                    acc[t] += v
            # (D P)^2 = D (D P) iff P^2 = P
            assert acc == [den * v for v in ints[i][j]], \
                "projection matrix is not idempotent"
    # a Hermitian idempotent's rank is its trace
    trace = [sum(ints[i][i][t] for i in range(n)) for t in range(4)]
    assert trace == [den * rank, 0, 0, 0], "basis size differs from the rank"


@pytest.fixture(scope="session", autouse=True)
def every_projection_is_checked():
    build = Projection.matrix

    def checked(self):
        fresh = self._matrix is None
        m = build.fget(self)
        if fresh:
            check_projection_matrix(m, self.rank)
        return m

    Projection.matrix = property(checked)
    yield
    Projection.matrix = build
