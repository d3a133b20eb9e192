"""The graded Schouten bracket summed term by term with plain ring arithmetic, as an oracle.

The closed frame formula of `courantkit.schouten`, summed on its own: every
product v (e_i.w) and (v w) c_ij^k is multiplied grade by grade with
`RingElem.__mul__` and added into a table, multi-index -> grade -> RingElem,
with `RingElem.__add__`; e_i.w is formed afresh for every pair of terms and
v w for every pair, whether or not a structure function meets it.  No
`collect` and no FScalar arithmetic is used; the checked constructors build
the result.  `schouten.schouten` sums the same terms through
`Multivector.collect`; the two agree on every presentation, whether or not
it satisfies the axioms.  `termwise_jacobi_residuals` adds 2 lam ^ e into
the table of [lam, lam] the same way, for the residuals of `check-jacobi`.
"""

from itertools import combinations

from courantkit.exterior import (
    FScalar,
    Multivector,
    contract_front_multi,
    contract_rear_multi,
    insert_index,
    merge_indices,
)
from courantkit.schouten import SchoutenError


def _times(x: dict, y: dict) -> dict:
    """Grade -> RingElem product of two grade -> RingElem maps."""
    out = {}
    for g1, e1 in x.items():
        for g2, e2 in y.items():
            p = e1 * e2
            out[g1 + g2] = out[g1 + g2] + p if g1 + g2 in out else p
    return out


def _add(table, K, sign, parts):
    row = table.setdefault(K, {})
    for g, e in parts.items():
        e = e if sign == 1 else e * sign
        row[g] = row[g] + e if g in row else e


def _multivector(alg, degree, table):
    terms = {K: FScalar(alg.sig, row) for K, row in table.items()}
    return Multivector(alg.sig, alg.rank, degree, terms)


def _schouten_table(alg, P, Q):
    """Multi-index -> grade -> RingElem table of [P, Q]."""
    if any(M.sig != alg.sig or M.rank != alg.rank for M in (P, Q)):
        raise SchoutenError("multivectors do not live on this algebroid")
    if alg.rank_v != 1:
        raise SchoutenError("graded bracket requires a rank-one module")
    swap = -1 if ((P.degree - 1) * (Q.degree - 1)) % 2 else 1
    table = {}

    def acted(I, v, J, w, sign):
        # sign * v [e_I, w] ^ e_J
        for i in I:
            rest, s = contract_rear_multi((i,), I)
            hit = merge_indices(rest, J)
            if hit is not None:
                _add(table, hit[0], sign * s * hit[1], _times(v.parts, alg.act_graded(i, w).parts))

    for I, v in P.terms.items():
        for J, w in Q.terms.items():
            acted(I, v, J, w, 1)
            acted(J, w, I, v, -swap)
            vw = _times(v.parts, w.parts)
            for i in I:
                I_rest, si = contract_front_multi((i,), I)
                for j in J:
                    J_rest, sj = contract_front_multi((j,), J)
                    hit = merge_indices(I_rest, J_rest)
                    if hit is None:
                        continue
                    for k, c in enumerate(alg.frame_bracket(i, j)):
                        top = insert_index(k, hit[0])
                        if top is not None and not c.is_zero():
                            _add(table, top[0], si * sj * hit[1] * top[1], _times(vw, {0: c}))
    return table


def termwise_schouten(alg, P, Q):
    return _multivector(alg, max(P.degree + Q.degree - 1, 0), _schouten_table(alg, P, Q))


def termwise_jacobi_residuals(alg, lam, e):
    """([lam,lam] + 2 lam^e, [lam,e]), the wedge summed term by term into the same table."""
    square = _schouten_table(alg, lam, lam)
    for I, v in lam.terms.items():
        for J, w in e.terms.items():
            hit = merge_indices(I, J)
            if hit is not None:
                _add(square, hit[0], 2 * hit[1], _times(v.parts, w.parts))
    return _multivector(alg, 3, square), termwise_schouten(alg, lam, e)


def mixed_multivector(rng, alg, degree, grades=(-2, -1, 0, 1, 2)):
    """About half the degree-p frame monomials, each with two or three distinct grades."""
    complex_ok = alg.sig.mode == "gaussian"
    terms = {}
    for I in combinations(range(alg.rank), degree):
        if rng.randint(0, 1):
            pool = list(grades)
            parts = {}
            for _ in range(rng.randint(2, 3)):
                g = pool.pop(rng.randint(0, len(pool) - 1))
                parts[g] = rng.ring_elem(alg.sig, max_degree=1, terms=2, complex_ok=complex_ok)
            terms[I] = FScalar(alg.sig, parts)
    return Multivector(alg.sig, alg.rank, degree, terms)
