"""Graded Schouten calculus and the structures it detects.

Multivectors carry graded coefficients (powers of the module frame), so a
skew bracket beta: module-valued covectors -> sections appears as a grade -1
bivector, and the ordinary Poisson case is the grade-0 shadow.  Frame section
e_i acts on a graded function w through the anchor plus the grade times the
connection scalar (e_i.w, `Algebroid.act_graded`).  On frame monomials e_I,
e_J of degrees p, q with graded coefficients v, w the bracket is the closed
formula (Marle 1997), positions a, b counted from 0:

    [v e_I, w e_J] = v [e_I, w] ^ e_J - (-1)^((p-1)(q-1)) w [e_J, v] ^ e_I
                     + v w sum_{a,b} (-1)^(a+b) [e_{i_a}, e_{j_b}] ^ e_{I-i_a} ^ e_{J-j_b}
    [e_I, w] = sum_a (-1)^(p-1-a) (e_{i_a}.w) e_{I-i_a}

(-1)^(p-1-a) and (-1)^a are the signs of rear and front contraction by
e_{i_a}; each wedge contributes the shuffle sign of its merged indices.

`schouten` hands the formula to one `Multivector.collect` as items
(K, sign, v, e_i.w) and (K, sign, v w, c_ij^k): collect multiplies their
parts grade by grade and sums every product in place, in one
`ring.Accumulator` slotted by (multi-index, grade), like every other
alternating sum.  e_i.w is read from a table of frame actions keyed by
(i, id(w)) and computed on its first read; v w is formed only for a pair of
terms that meets a nonzero structure function.  A call has a table of its
own unless its caller passes one, and the caller may pass more items for
the same collect, so a residual is one collect too: `check_jacobi_pair`
sums [lam,lam] with the items of 2 lam^e, and its two brackets share one
table, so each e_i.w of a verdict is computed once; `twisted_defect` sums
[P,P] with the items of -2 times the twist cube.

The formula uses only the skew c_ij^k, so swapping the two terms gives
[w e_J, v e_I] = -(-1)^((p-1)(q-1)) [v e_I, w e_J], term by term.  For
[P, P] with p even that is +[v e_I, w e_J]: the square visits each
unordered pair of terms once, with the sign doubled off the diagonal.

An independent operator identity (insertion operators and the differential)
is used by the tests as an oracle, so the combinatorial signs here are checked
against the calculus rather than against themselves; the same formula summed
term by term with plain ring arithmetic (tests/schouten_oracle.py) checks the
sums.

Every function here takes graded objects only: a module section is a grade-1
`FScalar`, a covector a degree-1 `FForm` (`aform_to_fform` is the one bridge
from `AForm`), and a wrong kind or degree raises `SchoutenError`, never a zero.
"""

from __future__ import annotations

from itertools import chain

from .algebroid import Algebroid
from .courant import CourantPresentation, CSection
from .exterior import (
    FForm,
    FScalar,
    Multivector,
    _fscalar,
    aform_to_fform,
    breve_contract,
    contract_front_multi,
    contract_rear_multi,
    insert_index,
    iota,
    merge_indices,
    pair_eval,
    wedge,
)
from .ring import coerce_elem


class SchoutenError(ValueError):
    pass


def schouten(
    alg: Algebroid, P: Multivector, Q: Multivector, *, actions: dict | None = None, plus=()
) -> Multivector:
    """Graded Schouten bracket of multivectors: the closed formula, in one collect.

    actions is the table of frame actions e_i.w, keyed by (i, id(w)): by
    default one of this call's own, or one that a caller shares between
    brackets on operands that outlive it, so that no id is reused while it is
    read.  plus holds more (K, sign, x, y) items of the bracket's degree,
    summed in the same collect.
    """
    if any(M.sig != alg.sig or M.rank != alg.rank for M in (P, Q)):
        raise SchoutenError("multivectors do not live on this algebroid")
    if alg.rank_v != 1:
        raise SchoutenError("graded bracket requires a rank-one module")
    sig = alg.sig
    swap = -1 if ((P.degree - 1) * (Q.degree - 1)) % 2 else 1
    if actions is None:
        actions = {}

    def acted(I, v, J, w, sign):
        # sign * v [e_I, w] ^ e_J
        for i in I:
            rest, s = contract_rear_multi((i,), I)
            hit = merge_indices(rest, J)
            if hit is not None:
                a = actions.get((i, id(w)))
                if a is None:
                    a = actions[i, id(w)] = alg.act_graded(i, w)
                if a:
                    yield hit[0], sign * s * hit[1], v, a

    terms = list(P.terms.items())
    if P is Q and swap == -1:
        # [P, P] of even degree: each unordered pair of terms once (see above)
        pairs = (
            (s, t, 2 if b else 1) for a, s in enumerate(terms) for b, t in enumerate(terms[a:])
        )
    else:
        pairs = ((s, t, 1) for s in terms for t in Q.terms.items())

    def items():
        for (I, v), (J, w), m in pairs:
            yield from acted(I, v, J, w, m)
            yield from acted(J, w, I, v, -swap * m)
            vw = None
            for i in I:
                I_rest, si = contract_front_multi((i,), I)
                for j in J:
                    if i == j:
                        continue
                    # c_ij^k, read from the stored half of the skew table
                    cs = alg.structure.get((i, j) if i < j else (j, i))
                    if cs is None:
                        continue
                    J_rest, sj = contract_front_multi((j,), J)
                    hit = merge_indices(I_rest, J_rest)
                    if hit is None:
                        continue
                    sign = m * si * sj * hit[1] * (1 if i < j else -1)
                    for k, c in enumerate(cs):
                        if not c.terms:
                            continue
                        top = insert_index(k, hit[0])
                        if top is None:
                            continue
                        if vw is None:
                            vw = v * w
                        yield top[0], sign * top[1], vw, _fscalar(sig, {0: c})

    return P.collect(max(P.degree + Q.degree - 1, 0), chain(items(), plus))


# -- skew maps and their structures -------------------------------------------


def tilde(P: Multivector, alpha: FForm) -> Multivector:
    """The map induced by a bivector on covectors: alpha -> -breve(alpha) P."""
    return -breve_contract(alpha, P)


def bivector_from_matrix(alg: Algebroid, rows) -> Multivector:
    """Antisymmetric coefficient matrix -> grade -1 bivector sum_{a<b} m[a][b] e_a^e_b."""
    terms = {}
    for a in range(alg.rank):
        for b in range(a + 1, alg.rank):
            c = coerce_elem(alg.sig, rows[a][b])
            if not c.is_zero():
                terms[(a, b)] = FScalar(alg.sig, {-1: c})
    return Multivector(alg.sig, alg.rank, 2, terms)


def graph_sections(C: CourantPresentation, P: Multivector) -> list:
    """Generators of the graph subbundle: tilde(u f^i) + u f^i for each i."""
    alg = C.alg
    if alg.rank_v != 1:
        raise SchoutenError("graph construction requires a rank-one module")
    out = []
    for i in range(alg.rank):
        cov = FForm.covector_frame(alg.sig, alg.rank, i, grade=1)
        t = tilde(P, cov)
        if t.pure_grade() not in (0, None) or t.degree != 1:
            raise SchoutenError("bivector must map module covectors to sections")
        if t.pure_grade() is None:
            raise SchoutenError("graph generator has mixed grade")
        coeffs = t.section_coeffs() if not t.is_zero() else alg.zero_section()
        out.append(CSection.from_coordinates(alg, coeffs + alg.frame_section(i)))
    return out


def is_poisson(alg: Algebroid, P: Multivector) -> bool:
    return schouten(alg, P, P).is_zero()


def _twist_cube_items(C: CourantPresentation, P: Multivector, sign: int):
    """The (K, sign, v, h) items of sign times the twist cube, for one collect."""
    alg = C.alg
    if alg.rank_v != 1:
        raise SchoutenError("twisted analysis requires a rank-one module")
    if P.degree != 2:
        raise SchoutenError("expected a bivector")
    tmap = [
        tilde(P, FForm.covector_frame(alg.sig, alg.rank, m, grade=0))
        for m in range(alg.rank)
    ]
    for (i, j, k), h in aform_to_fform(C.twist).terms.items():
        for K, v in wedge(wedge(tmap[i], tmap[j]), tmap[k]).terms.items():
            yield K, sign, v, h


def twist_cube(C: CourantPresentation, P: Multivector) -> Multivector:
    """Triple contraction of the twist through the bivector's covector map.

    Each twist term u h f^{ijk} contributes h u * t_i ^ t_j ^ t_k where
    t_m = tilde(P, f^m); the module factor rides along as a grade shift.
    """
    return Multivector.zero(C.alg.sig, C.alg.rank, 3).collect(3, _twist_cube_items(C, P, 1))


def twisted_defect(C: CourantPresentation, P: Multivector) -> Multivector:
    """[P,P] - 2 * twist cube, summed in one collect; zero exactly for a twisted structure."""
    return schouten(C.alg, P, P, plus=_twist_cube_items(C, P, -2))


def is_twisted_poisson(C: CourantPresentation, P: Multivector) -> bool:
    return twisted_defect(C, P).is_zero()


# -- brackets induced on module covectors and module sections ------------------


def _d_function(alg: Algebroid, c: FScalar) -> FForm:
    """d of a graded function, as a degree-1 graded form."""
    if not isinstance(c, FScalar):
        raise SchoutenError("expected a graded function (FScalar)")
    return alg.d_graded(FForm(alg.sig, alg.rank, 0, {(): c}))


def induced_bracket(C: CourantPresentation, P: Multivector, xi: FForm, eta: FForm) -> FForm:
    """Bracket on module-valued 1-forms induced by the bivector.

    iota_{P~(xi)} d(eta) - iota_{P~(eta)} d(xi) + d(P(xi, eta)), with P~ = tilde.
    """
    if any(not isinstance(a, FForm) or a.degree != 1 for a in (xi, eta)):
        raise SchoutenError("expected two graded 1-forms")
    alg = C.alg
    t1 = iota(tilde(P, xi), alg.d_graded(eta))
    t2 = iota(tilde(P, eta), alg.d_graded(xi))
    return t1 - t2 + _d_function(alg, pair_eval(wedge(xi, eta), P))


def v_bracket(alg: Algebroid, P: Multivector, v: FScalar, w: FScalar) -> FScalar:
    """Bracket on module sections: <dv ^ dw, P>."""
    return pair_eval(wedge(_d_function(alg, v), _d_function(alg, w)), P)


def v_jacobiator(alg: Algebroid, P: Multivector, v: FScalar, w: FScalar, z: FScalar) -> FScalar:
    """Cyclic sum {v,{w,z}} + {w,{z,v}} + {z,{v,w}}."""
    total = FScalar.zero(alg.sig)
    for a, b, c in ((v, w, z), (w, z, v), (z, v, w)):
        total = total + v_bracket(alg, P, a, v_bracket(alg, P, b, c))
    return total


def hamiltonian_section(alg: Algebroid, P: Multivector, v: FScalar) -> Multivector:
    """Section attached to a module section by the bivector: tilde(P, dv)."""
    return tilde(P, _d_function(alg, v))


# -- Jacobi pairs ---------------------------------------------------------------


def check_jacobi_pair(alg: Algebroid, lam: Multivector, e: Multivector) -> dict:
    """Verdict on [lam,lam] = -2 lam^e and [lam,e] = 0, with a nondegeneracy report.

    Each residual is one collect: [lam,lam] with the items of 2 lam^e, and
    [lam,e].  The two brackets read one table of frame actions e_i.w, so each
    e_i.w on a term of lam is computed once per verdict; lam and e outlive
    the table, so its (i, id(w)) keys stay unique.
    The pair is reported nondegenerate when lam ^ e does not vanish.
    """
    if lam.degree != 2 or e.degree != 1:
        raise SchoutenError("expected a bivector and a vector")
    top = wedge(lam, e)
    actions: dict = {}
    doubled = ((K, 2, c, None) for K, c in top.terms.items())
    r1 = schouten(alg, lam, lam, actions=actions, plus=doubled)
    r2 = schouten(alg, lam, e, actions=actions)
    return {
        "square_ok": r1.is_zero(),
        "square_residual": r1,
        "e_ok": r2.is_zero(),
        "e_residual": r2,
        "nondegenerate": not top.is_zero(),
        "ok": r1.is_zero() and r2.is_zero(),
    }


def jacobi_gauge(alg: Algebroid, lam: Multivector, e: Multivector, f) -> tuple:
    """Rescale the trivializing section: (lam, e) -> (f lam, f e - breve(df) lam)."""
    f = coerce_elem(alg.sig, f)
    if f.is_zero():
        raise SchoutenError("gauge factor must not vanish identically")
    fs = FScalar.of(f)
    return lam.scale(fs), e.scale(fs) - breve_contract(_d_function(alg, fs), lam)
