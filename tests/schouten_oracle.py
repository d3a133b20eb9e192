"""The graded Schouten bracket as a collect over FScalar products, as an oracle.

The closed frame formula of `courantkit.schouten`, summed term by term: every
product v (e_i.w) and (v w) c_ij^k is formed as an FScalar and merged through
`FScalar.__add__` in `Multivector.collect`, with e_i.w formed afresh for every
pair of terms and v w for every pair, whether or not a structure function
meets it.  `schouten.schouten` sums the same terms in place; the two agree on
every presentation, whether or not it satisfies the axioms.
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


def collect_schouten(alg, P, Q):
    if any(M.sig != alg.sig or M.rank != alg.rank for M in (P, Q)):
        raise SchoutenError("multivectors do not live on this algebroid")
    if alg.rank_v != 1:
        raise SchoutenError("graded bracket requires a rank-one module")
    swap = -1 if ((P.degree - 1) * (Q.degree - 1)) % 2 else 1

    def acted(I, v, J, w, sign):
        # sign * v [e_I, w] ^ e_J
        for i in I:
            rest, s = contract_rear_multi((i,), I)
            hit = merge_indices(rest, J)
            if hit is not None:
                a = alg.act_graded(i, w)
                if a:
                    yield hit[0], sign * s * hit[1], v * a

    def items():
        for I, v in P.terms.items():
            for J, w in Q.terms.items():
                yield from acted(I, v, J, w, 1)
                yield from acted(J, w, I, v, -swap)
                vw = v * w
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
                                yield top[0], si * sj * hit[1] * top[1], vw * c

    return P.collect(max(P.degree + Q.degree - 1, 0), items())


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
