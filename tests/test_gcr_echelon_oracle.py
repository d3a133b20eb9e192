"""check-gcr's two shortcuts against the full computations they replace.

validate_gcr reads rank [G; conj(G)] as rank E + rank R, E the echelon of
the generator matrix G that the Dirac checks make and R the residuals of
conj(E)'s rows reduced against E, and it reads orthogonality off whether G J
is antisymmetric once J^2 = -1 (gcr.validate_gcr's docstring).  Here:

* the rank equals that of the stacked 2m-row matrix [G; conj(G)] from rref,
  and that of [G(p); conj(G(p))] by Fraction elimination at two seeded
  rational points off the reported `excluded` list (point_oracle);
* the orthogonality verdict and witness equal orthogonality_defect's;
* check-gcr eliminates no stacked matrix, and makes no J^T G J product on a
  J with J^2 = -1 and G J antisymmetric.

The inputs are seeded symplectic structures, the pull-back of dx^dy + dz^dw
along a triangular automorphism of R^4 whose last component has one
imaginary term; the catalog's five GCR structures; and mutated J: one entry
changed, so J^2 != -1, and P J P^-1 for a P that does not preserve the
pairing, so J^2 = -1 and J is not orthogonal.
"""

from fractions import Fraction

import pytest

from courantkit import catalog, gcr, linalg
from courantkit.catalog import tangent_algebroid_over
from courantkit.courant import CourantPresentation
from courantkit.exterior import AForm
from courantkit.gcr import (
    GCRStructure,
    cr_to_gcr,
    j_square_defect,
    orthogonality_defect,
    symplectic_gcr,
    validate_gcr,
)
from courantkit.ring import GR_I, RingSignature
from courantkit.sampling import SplitMix
from point_oracle import field_rank, points

R4 = RingSignature(("x", "y", "z", "w"))
SYMPLECTIC_SEEDS = range(6)


def _term(rng, variables, degree, coeff=1):
    """c * (a monomial of the given degree in the given coordinates of R4)."""
    key = [0] * 4
    for _ in range(degree):
        key[rng.choice(variables)] += 1
    c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3, 5)), rng.choice((1, 1, 2, 3)))
    return R4.monomial(key, coeff=c) * coeff


def _symplectic(seed: int) -> GCRStructure:
    """symplectic_gcr of the pull-back of dx^dy + dz^dw along phi = (x,
    y + p1(x), z + p2(x, y), w + p3(x, y, z)), with one imaginary term in p3.

    phi has unit Jacobian, so the form has constant Pfaffian and its matrix
    has a polynomial inverse; the real part of phi is a real automorphism."""
    rng = SplitMix(seed)
    x, y, z, w = (R4.coord(c) for c in R4.coords)
    p1 = _term(rng, [0], 2)
    p2 = _term(rng, [0, 1], 2)
    p3 = _term(rng, [0, 1, 2], 2) + _term(rng, [0, 1, 2], 1, R4.const(GR_I))
    phi = [x, y + p1, z + p2, w + p3]
    jac = [[f.partial(c) for c in R4.coords] for f in phi]
    o, n = R4.one(), R4.zero()
    w0 = [[n, o, n, n], [-o, n, n, n], [n, n, n, o], [n, n, -o, n]]
    W = linalg.mat_mul(R4, [list(col) for col in zip(*jac)], linalg.mat_mul(R4, w0, jac))
    C = CourantPresentation(tangent_algebroid_over(R4))
    omega = AForm(R4, 4, 1, 2, {(a, b): (W[a][b],) for a in range(4) for b in range(a + 1, 4) if W[a][b].terms})
    return symplectic_gcr(C, omega)


def _catalog_structures():
    for name in catalog.names():
        p = catalog.load(name)
        if p.get("gcr") is not None:
            yield name, p["gcr"]
        elif p.get("distribution") is not None:
            yield name, cr_to_gcr(p["courant"], p["distribution"], p["j_matrix"])


def _structures():
    out = [(f"symplectic-{seed}", _symplectic(seed)) for seed in SYMPLECTIC_SEEDS]
    out += list(_catalog_structures())
    assert len(out) == len(SYMPLECTIC_SEEDS) + 5
    return out


def _conjugated(S: GCRStructure) -> GCRStructure:
    """P J P^-1 for P = 1 + x1 E_01 (x1 the first coordinate): J^2 = -1, and
    P does not preserve the split pairing."""
    sig = S.hb.C.alg.sig
    n = len(S.j)
    t = sig.coord(sig.coords[0])
    P, Pinv = linalg.identity(sig, n), linalg.identity(sig, n)
    P[0][1], Pinv[0][1] = t, -t
    return GCRStructure(S.hb, linalg.mat_mul(sig, linalg.mat_mul(sig, P, S.j), Pinv))


def _bumped(S: GCRStructure) -> GCRStructure:
    """J with one entry changed by 1, so J^2 != -1."""
    J = [list(row) for row in S.j]
    J[0][-1] = J[0][-1] + 1
    return GCRStructure(S.hb, J)


def _stacked(gens) -> list:
    G = [g.coordinates() for g in gens]
    return G + [[x.conjugate() for x in row] for row in G]


@pytest.mark.parametrize("name,S", _structures(), ids=lambda v: v if isinstance(v, str) else "")
def test_conjugate_span_rank_matches_the_stacked_rref_and_points(name, S):
    rep = validate_gcr(S)
    assert not rep.get("dirac_skipped"), name
    if name.startswith("symplectic"):
        assert rep["ok"], name
    sig = S.hb.C.alg.sig
    stacked = _stacked(rep["l_generators"])
    want = rep["conjugate_span_rank"]
    assert linalg.rank(sig, stacked)[0] == want
    for pt in points(sig, rep["excluded"], len(name)):
        assert field_rank(stacked, pt) == want, (name, pt)


@pytest.mark.parametrize("name,S", _structures(), ids=lambda v: v if isinstance(v, str) else "")
def test_conjugate_residuals_vanish_in_the_pivot_columns(name, S):
    # the ranks add because each residual is zero where E has a pivot
    sig = S.hb.C.alg.sig
    ech = linalg.rref(sig, [g.coordinates() for g in validate_gcr(S)["l_generators"]])
    residuals = [ech.reduce([x.conjugate() for x in row], list(ech.excluded))[1] for row in ech.rows[: ech.rank]]
    assert all(not res[c].terms for res in residuals for c in ech.pivots)
    rank_r = linalg.rank(sig, [res for res in residuals if any(res)])[0] if any(map(any, residuals)) else 0
    assert ech.rank + rank_r == linalg.rank(sig, _stacked(validate_gcr(S)["l_generators"]))[0]


def _orthogonality_report(S) -> dict:
    """validate_gcr's orthogonality fields, from orthogonality_defect."""
    orth = orthogonality_defect(S)
    out = {"orthogonal_ok": orth is None}
    if orth is not None:
        out["orthogonal_witness"] = {"entry": list(orth[0]), "value": str(orth[1])}
    return out


def test_orthogonality_shortcut_matches_the_product():
    seen = {"bumped": 0, "not_orthogonal": 0, "orthogonal": 0}
    for name, S in _structures():
        for kind, T in (("orthogonal", S), ("bumped", _bumped(S)), ("not_orthogonal", _conjugated(S))):
            rep = validate_gcr(T)
            want = _orthogonality_report(T)
            assert {k: rep[k] for k in want} == want, (name, kind)
            assert ("orthogonal_witness" in rep) == ("orthogonal_witness" in want)
            square = j_square_defect(T)
            if kind == "bumped":
                assert square is not None, name
            else:
                assert square is None and gcr._gj_antisymmetric(T) == want["orthogonal_ok"], (name, kind)
                assert want["orthogonal_ok"] == (kind == "orthogonal"), (name, kind)
            seen[kind] += 1
    assert min(seen.values()) == len(SYMPLECTIC_SEEDS) + 5, seen


def test_check_gcr_stacks_no_conjugates_and_multiplies_no_gram_product(monkeypatch):
    calls, products = [], []
    real_rref, real_defect = linalg.rref, gcr.orthogonality_defect
    monkeypatch.setattr(linalg, "rref", lambda sig, M: calls.append([list(r) for r in M]) or real_rref(sig, M))
    monkeypatch.setattr(gcr, "orthogonality_defect", lambda S: products.append(1) or real_defect(S))
    for name, S in _structures():
        calls.clear()
        products.clear()
        rep = validate_gcr(S)
        stacked = _stacked(rep["l_generators"])
        assert stacked not in calls, name
        # the eigenspace's nullspace, G and the residuals, at most
        assert len(calls) <= 3, (name, len(calls))
        assert products == [], name
        # a J that is not orthogonal does compute the product, for its witness
        validate_gcr(_conjugated(S))
        assert products == [1], name
