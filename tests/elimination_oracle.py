"""The elimination route for H_*(L(W)): the oracle for the Ext table of
``elliptica.quillen.DGLComplex``.

The hook here is the shared ``GradedComplex._betti_of``: the exact ranks of
the delta matrices, with their d.d checks, in every degree of every Quillen
model, quadratic or not, so the Lie basis of every degree asked for is
enumerated.  Inside ``elimination_route()`` it is ``DGLComplex._betti_of``,
under the one memo of ``GradedComplex.betti``, so a complex read there
must be fresh.
"""
import contextlib

import pytest

from elliptica.graded import GradedComplex
from elliptica.quillen import DGLComplex


@contextlib.contextmanager
def elimination_route():
    """Read every Quillen homology dimension by elimination, inside the
    block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DGLComplex, "_betti_of", GradedComplex._betti_of)
        yield


def elimination_table(model, top: int) -> dict[int, int]:
    """dim H_i(L(W)) for 1 <= i <= top, by elimination."""
    with elimination_route():
        cx = model.complex()
        return {i: cx.betti(i) for i in range(1, top + 1)}
