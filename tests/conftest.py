from fractions import Fraction

import pytest

from supersym.liealg import SymmetricPair, algebra_from_matrices, catalog, defining_matrices


def diagonal_pair(name, keep=None):
    """(g + g, swap) realized on V + V: q_X = diag(X, -X) and h_X = diag(X, X),
    so q inherits the parity mix of g (both parities in q and in h).  With
    ``keep``, g is the subalgebra spanned by those catalog basis vectors."""
    mats, parities, _ = defining_matrices(name)
    letters = catalog(name)[0].names
    chosen = [i for i, x in enumerate(letters) if keep is None or x in keep]
    mats = [mats[i] for i in chosen]
    parities = [parities[i] for i in chosen]
    n = len(mats[0])

    def block(x, s):
        top = [list(row) + [0] * n for row in x]
        bottom = [[0] * n + [s * v for v in row] for row in x]
        return top + bottom

    names = [f"{side}_{letters[i]}" for side in "qh" for i in chosen]
    mats2 = [block(x, -1) for x in mats] + [block(x, 1) for x in mats]
    alg = algebra_from_matrices(names, parities + parities, mats2)
    return SymmetricPair(alg, range(len(mats), 2 * len(mats)))


def rescaled_pair(name, scales):
    """A catalog pair in the basis e_i -> s_i e_i: the same algebra with
    structure constants that are not all +-1, 0 or +-2."""
    mats, parities, _ = defining_matrices(name)
    _, pair = catalog(name)
    scaled = [[[Fraction(s) * v for v in row] for row in x] for s, x in zip(scales, mats)]
    alg = algebra_from_matrices(pair.algebra.names, parities, scaled)
    return SymmetricPair(alg, pair.h_indices)


ORACLE_PAIRS = {
    "osp12": lambda: catalog("osp12")[1],
    "gl11": lambda: catalog("gl11")[1],
    "heisenberg_super": lambda: catalog("heisenberg_super")[1],
    "diag-gl11": lambda: diagonal_pair("gl11"),
    "osp12-rescaled": lambda: rescaled_pair("osp12", [2, Fraction(-1, 3), Fraction(3, 2), -1, 5]),
}


@pytest.fixture(params=sorted(ORACLE_PAIRS))
def oracle_pair(request):
    """Symmetric pairs on which the library's fast routes are diffed
    against their defining permutation sums."""
    return ORACLE_PAIRS[request.param]()
