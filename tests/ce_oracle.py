"""Independent cochain-rank oracle for constant-coefficient algebroids.

Builds the dense differential matrices over plain Fractions with itertools
and computes ranks by straightforward Gaussian elimination.  Shares no code
with the library implementation: combinations are enumerated directly and
the differential is assembled entry by entry from the structure constants.
"""

from fractions import Fraction
from itertools import combinations


def _const(e) -> Fraction:
    if not e.terms:
        return Fraction(0)
    ((key, v),) = e.terms.items()
    if any(key):
        raise ValueError("oracle handles constant structure functions only")
    if v.im != 0:
        raise ValueError("oracle handles rational structure constants only")
    return v.re


def _structure_tables(alg):
    r, s = alg.rank, alg.rank_v
    c = {}
    for (i, j), vec in alg.structure.items():
        for k in range(r):
            val = _const(vec[k])
            if val:
                c[(i, j, k)] = val
                c[(j, i, k)] = -val
    theta = [
        [[_const(alg.theta[i][a][b]) for b in range(s)] for a in range(s)]
        for i in range(r)
    ]
    return c, theta


def _rank(rows) -> int:
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rows and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def differential_matrix(alg, k: int):
    """Matrix of d: C^k -> C^{k+1} in the combination basis, rows = inputs."""
    r, s = alg.rank, alg.rank_v
    c, theta = _structure_tables(alg)
    dom = [(I, b) for I in combinations(range(r), k) for b in range(s)]
    cod = [(J, b) for J in combinations(range(r), k + 1) for b in range(s)]
    index = {key: m for m, key in enumerate(cod)}
    rows = []
    for I, b in dom:
        row = [Fraction(0)] * len(cod)
        for J in combinations(range(r), k + 1):
            for pos, i in enumerate(J):
                rest = J[:pos] + J[pos + 1 :]
                if rest != I:
                    continue
                sgn = (-1) ** pos
                for a in range(s):
                    val = theta[i][b][a]
                    if val:
                        row[index[(J, a)]] += sgn * val
            for p in range(k + 1):
                for q in range(p + 1, k + 1):
                    rest = tuple(x for m, x in enumerate(J) if m not in (p, q))
                    sgn = (-1) ** (p + q)
                    for l in range(r):
                        coeff = c.get((J[p], J[q], l))
                        if not coeff:
                            continue
                        if l in rest:
                            continue
                        merged = tuple(sorted(rest + (l,)))
                        if merged != I:
                            continue
                        swaps = sum(1 for x in rest if x < l)
                        row[index[(J, b)]] += sgn * coeff * (-1) ** swaps
        rows.append(row)
    return rows, len(dom), len(cod)


def betti(alg) -> list:
    """Cohomology dimensions in degrees 0..rank by the rank-nullity count."""
    r = alg.rank
    dims = []
    ranks = []
    sizes = []
    for k in range(r + 1):
        rows, ndom, _ = differential_matrix(alg, k)
        sizes.append(ndom)
        ranks.append(_rank(rows) if rows else 0)
    for k in range(r + 1):
        prev = ranks[k - 1] if k else 0
        dims.append(sizes[k] - ranks[k] - prev)
    return dims


def invariant_dimension(alg) -> int:
    """dim of module vectors killed by every action matrix (degree-zero kernel)."""
    rows, _, _ = differential_matrix(alg, 0)
    return alg.rank_v - (_rank(rows) if rows else 0)
