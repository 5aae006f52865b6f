"""The eigensolver seam: every eigendecomposition the package makes goes through ``np.linalg.eigh`` or through
``qcore._eigh2``, the closed-form 2 x 2 solver that ``qcore._eighs`` takes in eigh's place when d = 2 (it hands the rare
matrix of r / 2 = 0 or subnormal on to eigh, which then sees it too). Tests count decompositions, or inject faults into
them, by wrapping both."""

import numpy as np

from twotime import qcore

SOLVERS = ((np.linalg, "eigh"), (qcore, "_eigh2"))


def wrap_solvers(patch, wrap):
    """Replace each solver by ``wrap(solver)`` on the MonkeyPatch ``patch``."""
    for owner, name in SOLVERS:
        patch.setattr(owner, name, wrap(getattr(owner, name)))


def count_decompositions(patch):
    """The list that receives the stack shape of every eigendecomposition, in call order, from now on."""
    shapes = []
    wrap_solvers(patch, lambda solver: lambda a: shapes.append(np.shape(a)) or solver(a))
    return shapes


def faulty_solvers(patch, fault):
    """Pass every decomposition (values, vectors) through ``fault``, which edits it in place, from now on."""
    def wrap(solver):
        def faulty(a):
            values, vectors = solver(a)
            fault(values, vectors)
            return values, vectors
        return faulty
    wrap_solvers(patch, wrap)
