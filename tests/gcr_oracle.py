"""The two first-defect searches of a generalized CR structure, entry by entry, as an oracle.

Each entry of J^2 + 1, and of J^T G J - G over the split pairing
G = [[0, 1], [1, 0]] in h x h blocks, is summed on its own in one
Accumulator, in row-major order, and the first nonzero one is the witness.
`courantkit.gcr` reads the same entries a row at a time, through the one
vector-matrix product `linalg.vec_mat`; both must return the same entry and
the same value on every J.
"""

from courantkit.ring import Accumulator


def square_plus_one(sig, M):
    """First nonzero entry of M^2 + 1 as ((i, j), value), or None."""
    n = len(M)
    for i in range(n):
        for j in range(n):
            acc = Accumulator(sig)
            if i == j:
                acc.add(sig.one())
            for k in range(n):
                if M[i][k].terms and M[k][j].terms:
                    acc.add_product(M[i][k], M[k][j])
            e = acc.elem()
            if e.terms:
                return ((i, j), e)
    return None


def orthogonality_defect(sig, h, J):
    """First nonzero entry of J^T G J - G as ((i, j), value), or None.

    Entry (i, j) of J^T G J is sum_a J[a][i] J[h+a][j] + J[h+a][i] J[a][j].
    """
    for i in range(2 * h):
        for j in range(2 * h):
            acc = Accumulator(sig)
            if abs(i - j) == h:
                acc.add(sig.one(), -1)
            for a in range(h):
                if J[a][i].terms and J[h + a][j].terms:
                    acc.add_product(J[a][i], J[h + a][j])
                if J[h + a][i].terms and J[a][j].terms:
                    acc.add_product(J[h + a][i], J[a][j])
            e = acc.elem()
            if e.terms:
                return ((i, j), e)
    return None
