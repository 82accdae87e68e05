"""Session-wide invariant: every Projection the tests build is one.

Projection trusts the basis it is given and runs no check.  While the tests
run, its constructor is wrapped so that each projection built anywhere (the
library, the suites, the CLI) is re-checked to be Hermitian and idempotent,
with the basis size equal to the rank of its matrix.
"""

import pytest

from jspec.lattice import Projection


@pytest.fixture(scope="session", autouse=True)
def every_projection_is_checked():
    build = Projection.__init__

    def checked(self, basis):
        build(self, basis)
        m = self.matrix
        assert m.conj_transpose() == m, "projection matrix is not Hermitian"
        assert m * m == m, "projection matrix is not idempotent"
        assert self.rank == m.rank(), "basis size differs from the rank"

    Projection.__init__ = checked
    yield
    Projection.__init__ = build
