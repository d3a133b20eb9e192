from fractions import Fraction

import pytest

from courantkit import catalog
from courantkit.dirac import is_lagrangian
from courantkit.gcr import (
    Distribution,
    GCRError,
    compose_jacobi,
    cr_to_gcr,
    decompose_jacobi,
    extract_bivector,
    full_distribution,
    j_square_defect,
    l_generators,
    orthogonality_defect,
    parallel_trivializations,
    symplectic_gcr,
    tangent_restriction,
    validate_gcr,
)
from courantkit.schouten import check_jacobi_pair, is_poisson, schouten


def cr_payload(name):
    p = catalog.load(name)
    S = cr_to_gcr(p["courant"], p["distribution"], p["j_matrix"])
    return p, S


def test_levi_flat_structure_is_valid():
    p, S = cr_payload("cr-levi-flat-r3")
    rep = validate_gcr(S)
    assert rep["ok"]
    assert rep["j_square_ok"] and rep["orthogonal_ok"]
    assert rep["lagrangian_ok"] and rep["involutive_ok"]
    assert rep["intersection_ok"]
    # L spans a lagrangian: h eigenvectors plus the annihilator covector
    gens = l_generators(S)
    assert len(gens) == 3
    ok, _ = is_lagrangian(p["courant"], gens)
    assert ok


def test_levi_flat_conjugate_intersection_rank():
    # rank(L + conj L) = rank + h, so L meets conj L exactly in the annihilator
    _, S = cr_payload("cr-levi-flat-r3")
    rep = validate_gcr(S)
    assert rep["conjugate_span_rank"] == 3 + 2


def test_non_involutive_control_fails_with_witness():
    p, S = cr_payload("cr-control-r5")
    rep = validate_gcr(S)
    assert not rep["ok"]
    assert rep["j_square_ok"] and rep["orthogonal_ok"]
    assert not rep["involutive_ok"]
    w = rep["dirac_report"]["involutive_witness"]
    assert w["pair"] == [0, 1]
    # direct confirmation: the projected bracket leaves the complexified plane
    gens = l_generators(S)
    got = p["courant"].bracket(gens[0], gens[1])
    assert any(not c.is_zero() for c in got.x)


def test_full_complex_structure_is_valid():
    _, S = cr_payload("cr-complex-r2")
    rep = validate_gcr(S)
    assert rep["ok"]
    assert rep["involutive_ok"] and rep["lagrangian_ok"]


def test_symplectic_structure_validates_and_extracts_poisson():
    p = catalog.load("symplectic-r2")
    S = p["gcr"]
    rep = validate_gcr(S)
    assert rep["ok"]
    P = extract_bivector(S)
    assert is_poisson(p["algebroid"], P)


def test_j_square_witness_on_broken_matrix():
    p = catalog.load("cr-levi-flat-r3")
    sig = p["algebroid"].sig
    o, z = sig.one(), sig.zero()
    broken = [[z, -o], [o, o]]  # bottom-right entry spoils J^2 = -1
    with pytest.raises(GCRError):
        cr_to_gcr(p["courant"], p["distribution"], broken)


def test_validate_reports_j_square_failure():
    from courantkit.gcr import GCRStructure, build_H_bundle

    p = catalog.load("cr-levi-flat-r3")
    sig = p["algebroid"].sig
    o, z = sig.one(), sig.zero()
    hb = build_H_bundle(p["courant"], p["distribution"])
    # 4x4 block acting on H* (+) H that is not a complex structure
    J = [[z, z, o, z], [z, z, z, o], [o, z, z, z], [z, o, z, z]]
    rep = validate_gcr(GCRStructure(hb, J))
    assert not rep["ok"]
    assert not rep["j_square_ok"]
    assert "entry" in rep["j_square_witness"]
    assert rep.get("dirac_skipped")


def test_validate_reports_orthogonality_failure():
    from courantkit.gcr import GCRStructure, build_H_bundle

    C = catalog.standard_courant(1)
    sig = C.alg.sig
    hb = build_H_bundle(C, full_distribution(C.alg))
    two = sig.const(2)
    neg_half = sig.const(Fraction(-1, 2))
    J = [[sig.zero(), two], [neg_half, sig.zero()]]
    assert j_square_defect(GCRStructure(hb, J)) is None
    rep = validate_gcr(GCRStructure(hb, J))
    assert not rep["ok"]
    assert rep["j_square_ok"]
    assert not rep["orthogonal_ok"]
    assert "entry" in rep["orthogonal_witness"]
    assert rep.get("dirac_skipped")
    assert orthogonality_defect(GCRStructure(hb, J)) is not None


def test_distribution_rejects_singular_frame():
    alg = catalog.load("cr-levi-flat-r3")["algebroid"]
    sig = alg.sig
    o, z = sig.one(), sig.zero()
    singular = [[o, z, z], [o, z, z], [z, z, o]]
    with pytest.raises(GCRError):
        Distribution(alg, singular, 2)


def test_distribution_dual_rows_are_dual():
    p = catalog.load("cr-control-r5")
    dist = p["distribution"]
    alg = p["algebroid"]
    for a in range(alg.rank):
        dual = dist.dual_row(a)
        for b in range(alg.rank):
            acc = alg.sig.zero()
            for k in range(alg.rank):
                acc = acc + dual[k] * dist.frame[b][k]
            want = alg.sig.one() if a == b else alg.sig.zero()
            assert acc == want


def test_contact_bivector_decomposes_into_jacobi_pair():
    p = catalog.load("contact-r3")
    S = p["gcr"]
    rep = validate_gcr(S)
    assert rep["ok"]
    P = extract_bivector(S)
    alg = p["algebroid"]
    parts = decompose_jacobi(alg, P)
    assert parts["lambda"].equals(p["jacobi"]["lambda"])
    assert parts["e"].equals(p["jacobi"]["e"])
    rep = check_jacobi_pair(parts["tangent"], parts["lambda"], parts["e"])
    assert rep["ok"] and rep["nondegenerate"]
    # the suspension-weighted square closes: [P,P] = 0 upstairs
    assert schouten(alg, P, P).is_zero()
    assert compose_jacobi(alg, parts["lambda"], parts["e"]).equals(P)


def test_tangent_restriction_guards():
    assert tangent_restriction(catalog.load("contact-r3")["algebroid"]).rank == 3
    with pytest.raises(GCRError):
        tangent_restriction(catalog.load("tangent-r3")["algebroid"])


@pytest.mark.parametrize(
    "extra",
    [
        None,
        {(0, 3): ["1", "0", "0", "0"]},  # [e_0, e_3] != 0
        {(1, 2): ["0", "0", "0", "x"]},  # c_12^3 != 0
    ],
)
def test_tangent_restriction_splits_the_structure_functions(extra):
    # e_0 = d/dx, e_1 = d/dy + x d/dz, e_2 = d/dz, so [e_0, e_1] = e_2, and
    # e_3 is the suspension direction: anchor-central
    from courantkit.algebroid import Algebroid
    from courantkit.exterior import FScalar, Multivector
    from courantkit.ring import RingSignature

    sig = RingSignature(("x", "y", "z"))
    anchor = [["1", "0", "0"], ["0", "1", "x"], ["0", "0", "1"], ["0", "0", "0"]]
    structure = {(0, 1): ["0", "0", "1", "0"], **(extra or {})}
    alg = Algebroid(sig, 4, 1, anchor, structure)
    if extra is not None:
        with pytest.raises(GCRError, match="suspension direction does not split off"):
            tangent_restriction(alg)
        return
    tangent = tangent_restriction(alg)
    assert tangent.rank == 3
    assert tangent.structure == {(0, 1): (sig.zero(), sig.zero(), sig.one())}
    x, y = sig.coord("x"), sig.coord("y")
    terms = {(0, 1): sig.one(), (1, 2): y, (0, 3): x, (2, 3): -sig.one()}
    P = Multivector(sig, 4, 2, {I: FScalar(sig, {-1: c}) for I, c in terms.items()})
    parts = decompose_jacobi(alg, P)
    assert parts["tangent"].structure == tangent.structure
    assert compose_jacobi(alg, parts["lambda"], parts["e"]).equals(P)


def test_decompose_requires_grade_minus_one():
    from courantkit.exterior import FScalar, Multivector

    alg = catalog.load("contact-r3")["algebroid"]
    sig = alg.sig
    P = Multivector(sig, alg.rank, 2, {(0, 1): FScalar.of(sig.one())})
    with pytest.raises(GCRError):
        decompose_jacobi(alg, P)


def test_parallel_trivializations():
    p = catalog.load("symplectic-r2")
    P = extract_bivector(p["gcr"])
    sols = parallel_trivializations(p["algebroid"], P)
    assert sols  # constants trivialize a symplectic structure
    q = catalog.load("contact-r3")
    Pq = extract_bivector(q["gcr"])
    assert parallel_trivializations(q["algebroid"], Pq) == []


def test_cr_to_gcr_block_shape():
    p, S = cr_payload("cr-levi-flat-r3")
    h = 2
    sig = p["algebroid"].sig
    for i in range(h):
        for j in range(h):
            # lower-right block carries -J^T
            assert S.j[h + i][h + j] == -S.j[j][i]
            # off-diagonal blocks vanish
            assert S.j[i][h + j] == sig.zero()
            assert S.j[h + i][j] == sig.zero()


# -- the reduced pairing is split by construction --------------------------------


def _catalog_structures():
    """Every GCR structure of the catalog: embedded blocks and complex-structure fixtures."""
    for name in catalog.names():
        p = catalog.load(name)
        if p.get("gcr") is not None:
            yield name, p["gcr"]
        elif p.get("distribution") is not None:
            yield name, cr_to_gcr(p["courant"], p["distribution"], p["j_matrix"])


def _split_form(sig, h):
    o, z = sig.one(), sig.zero()
    return [[o if abs(i - j) == h else z for j in range(2 * h)] for i in range(2 * h)]


def _twisted_frame_bundle():
    """Rank-2 distribution in the tangent presentation of R^3 over Q(i) with a
    Laurent exponential, framed by a non-identity unimodular matrix."""
    from courantkit import linalg
    from courantkit.catalog import tangent_algebroid_over
    from courantkit.courant import CourantPresentation
    from courantkit.gcr import HBundle
    from courantkit.ring import ExpGen, RingSignature

    sig = RingSignature(("x", "y", "z"), (ExpGen("E", (Fraction(1), Fraction(-2), Fraction(0))),))
    p = sig.parse
    lower = [["1", "0", "0"], ["z", "1", "0"], ["i*E^-1", "x", "1"]]
    upper = [["1", "x*E", "i"], ["0", "1", "(2-i)*y"], ["0", "0", "1"]]
    frame = linalg.mat_mul(sig, [[p(c) for c in r] for r in lower], [[p(c) for c in r] for r in upper])
    alg = tangent_algebroid_over(sig)
    return HBundle(CourantPresentation(alg), Distribution(alg, frame, 2))


def _gram_orthogonality_defect(S):
    """First nonzero entry of J^T G J - G with G built from the pairing itself."""
    n = 2 * S.hb.h
    G = S.hb.pairing_matrix()
    for i in range(n):
        for j in range(n):
            acc = -G[i][j]
            for p in range(n):
                for q in range(n):
                    acc = acc + S.j[p][i] * G[p][q] * S.j[q][j]
            if not acc.is_zero():
                return ((i, j), acc)
    return None


def test_reduced_pairing_is_split_on_every_catalog_structure():
    names = []
    for name, S in _catalog_structures():
        assert S.hb.pairing_matrix() == _split_form(S.hb.C.alg.sig, S.hb.h), name
        names.append(name)
    assert len(names) == 5


def test_reduced_pairing_is_split_on_a_gaussian_exponential_frame():
    from courantkit.gcr import GCRStructure
    from courantkit.sampling import SplitMix

    hb = _twisted_frame_bundle()
    sig = hb.C.alg.sig
    assert any(not x.is_constant() for row in hb.dist.frame for x in row)
    assert hb.pairing_matrix() == _split_form(sig, 2)
    # the block formula gives the same witness as J^T G J - G over the Gram matrix
    o, z = sig.one(), sig.zero()
    structures = [cr_to_gcr(hb.C, hb.dist, [[z, -o], [o, z]])]
    rng = SplitMix(23)
    for _ in range(6):
        J = [[rng.ring_elem(sig, max_degree=1, terms=2, complex_ok=True) for _ in range(4)] for _ in range(4)]
        structures.append(GCRStructure(hb, J))
    assert orthogonality_defect(structures[0]) is None
    for S in structures:
        assert orthogonality_defect(S) == _gram_orthogonality_defect(S)
    assert sum(orthogonality_defect(S) is not None for S in structures) >= 5


def test_validation_builds_no_gram_matrix(monkeypatch):
    from courantkit.gcr import HBundle

    def refuse(self):
        raise AssertionError("Gram matrix built")

    monkeypatch.setattr(HBundle, "pairing_matrix", refuse)
    for _, S in _catalog_structures():
        validate_gcr(S)


def test_validation_reports_the_checked_generators():
    _, S = cr_payload("cr-levi-flat-r3")
    rep = validate_gcr(S)
    assert [g.coordinates() for g in rep["l_generators"]] == [
        g.coordinates() for g in l_generators(S)
    ]
    assert set(rep["dirac_report"]["involutive_excluded"]) <= set(rep["excluded"])


def test_first_defects_match_the_entry_by_entry_oracle():
    # seeded broken J for h = 1..3 over Q(i)[x, y, z], and the h x h blocks
    # that cr_to_gcr checks; the row-at-a-time searches give the oracle's
    # witness, entry and value.  Admissible J are A (+) -A^T with A = S D S^-1
    # (S unit lower triangular, D = diag(+-i)); the broken ones are
    #   located: iI (+) -iI plus d at (p, q), p and q in one block, where
    #            J^2 + 1 is zero except at (p, q);
    #   perturbed: an admissible J plus d at one entry;
    #   not_orthogonal: A (+) -B^T with B^2 = -1 and B != A, so J^2 = -1;
    #   dense: every entry drawn.
    import gcr_oracle
    from courantkit import linalg
    from courantkit.catalog import tangent_algebroid_over
    from courantkit.courant import CourantPresentation
    from courantkit.gcr import GCRStructure, HBundle, _square_plus_one
    from courantkit.ring import GR_I, RingSignature
    from courantkit.sampling import SplitMix

    sig = RingSignature(("x", "y", "z"))
    alg = tangent_algebroid_over(sig)
    C = CourantPresentation(alg)
    rng = SplitMix(401)
    z, ii = sig.zero(), sig.const(GR_I)

    def draw():
        e = z
        while not e.terms:
            e = rng.ring_elem(sig, max_degree=1, terms=2, complex_ok=True)
        return e

    def square_root_of_minus_one(h):
        S = [[sig.one() if a == b else draw() if b < a else z for b in range(h)] for a in range(h)]
        D = [[(ii if rng.randint(0, 1) else -ii) if a == b else z for b in range(h)] for a in range(h)]
        return linalg.mat_mul(sig, linalg.mat_mul(sig, S, D), linalg.invert(sig, S))

    def block(A, B):
        h = len(A)
        return [list(A[a]) + [z] * h for a in range(h)] + [[z] * h + [-x for x in col] for col in zip(*B)]

    kinds = dict.fromkeys(("located", "perturbed", "not_orthogonal", "dense"), 0)
    square, orthogonal = set(), set()
    for h in (1, 2, 3):
        hb = HBundle(C, Distribution(alg, linalg.identity(sig, 3), h))
        for _ in range(24):
            kind = tuple(kinds)[rng.randint(0, 3)]
            A = square_root_of_minus_one(h)
            if kind == "located":
                J = block(linalg.identity(sig, h), linalg.identity(sig, h))
                J = [[ii * x for x in row] for row in J]
                offset = h * rng.randint(0, 1)
                p, q = offset + rng.randint(0, h - 1), offset + rng.randint(0, h - 1)
                J[p][q] = J[p][q] + draw()
            elif kind == "perturbed":
                J = block(A, A)
                p, q = rng.randint(0, 2 * h - 1), rng.randint(0, 2 * h - 1)
                J[p][q] = J[p][q] + draw()
            elif kind == "not_orthogonal":
                B = A
                while B == A:
                    B = square_root_of_minus_one(h)
                J = block(A, B)
            else:
                J = [[draw() if rng.randint(0, 2) else z for _ in range(2 * h)] for _ in range(2 * h)]
            kinds[kind] += 1
            S = GCRStructure(hb, J)
            got_sq, got_orth = j_square_defect(S), orthogonality_defect(S)
            assert got_sq == gcr_oracle.square_plus_one(sig, S.j)
            assert got_orth == gcr_oracle.orthogonality_defect(sig, h, S.j)
            top = [row[:h] for row in J[:h]]
            assert _square_plus_one(sig, top) == gcr_oracle.square_plus_one(sig, top)
            assert _square_plus_one(sig, A) is None
            if kind == "located":
                assert got_sq[0] == (p, q)
            if kind == "not_orthogonal":
                assert got_sq is None and got_orth is not None
            square.add(None if got_sq is None else got_sq[0])
            orthogonal.add(None if got_orth is None else got_orth[0])
    assert min(kinds.values()) >= 10, kinds
    # the first nonzero entry lands in many places, not only at (0, 0)
    assert len(square) >= 10 and len(orthogonal) >= 10, (square, orthogonal)


def test_check_gcr_add_product_counts(monkeypatch, tmp_path):
    # Accumulator.add_product calls of a whole check-gcr run, a deterministic
    # count.  Each elimination step makes one product per nonzero entry of
    # its two rows outside the pivot column: two fewer than forming the
    # pivot column too, which always cancels (83 and 32 products that way).
    import contextlib
    import io as _stdio
    import json

    from courantkit import cli, io, linalg
    from courantkit.ring import Accumulator

    products, steps = [], []
    real_product, real_step = Accumulator.add_product, linalg._eliminate
    monkeypatch.setattr(
        Accumulator, "add_product", lambda s, *a: products.append(1) or real_product(s, *a)
    )

    def step(row, prow, col, excluded):
        assert row[col].terms and prow[col].terms
        before = len(products)
        out = real_step(row, prow, col, excluded)
        full = sum(bool(e.terms) for e in row) + sum(bool(e.terms) for e in prow)
        steps.append((len(products) - before, full))
        return out

    monkeypatch.setattr(linalg, "_eliminate", step)
    for name, code, want, nsteps in (("cr-control-r5", 1, 57, 13), ("symplectic-r2", 0, 24, 4)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(io.definition_to_json(catalog.load(name))))
        products.clear()
        steps.clear()
        with contextlib.redirect_stdout(_stdio.StringIO()):
            assert cli.main(["check-gcr", "--defs", str(path)]) == code
        assert len(products) == want
        assert len(steps) == nsteps and all(made == full - 2 for made, full in steps), steps


def test_eigenspace_rows_subtract_i_on_the_diagonal_only(monkeypatch):
    from courantkit import gcr

    seen = []
    real = gcr.linalg.nullspace
    monkeypatch.setattr(gcr.linalg, "nullspace", lambda sig, rows: seen.append(rows) or real(sig, rows))
    structures = [catalog.load(name)["gcr"] for name in ("symplectic-r2", "contact-r3")]
    structures += [cr_payload(name)[1] for name in ("cr-control-r5", "cr-complex-r2")]
    for S in structures:
        seen.clear()
        l_generators(S)
        (rows,) = seen
        ii = S.hb.C.alg.sig.parse("i")
        for a, row in enumerate(rows):
            for b, e in enumerate(row):
                if a == b:
                    assert e == S.j[a][a] - ii
                else:
                    assert e is S.j[a][b]
