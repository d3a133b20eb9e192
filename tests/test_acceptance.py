"""End-to-end acceptance checks.

One test per numbered criterion; each prints a single verdict line.  Every
comparison is exact — no tolerances anywhere.
"""

import json
import math
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import ce_oracle
from calculus_oracle import termwise_derivation
from courantkit import catalog
from courantkit.courant import CSection
from courantkit.dirac import intersect_with_A, is_dirac, is_lagrangian
from courantkit.exterior import (
    AForm,
    FForm,
    FScalar,
    Multivector,
    contract,
    iota,
    pair_eval,
    wedge,
)
from courantkit.gcr import cr_to_gcr, decompose_jacobi, extract_bivector, validate_gcr
from courantkit.sampling import SplitMix
from courantkit.schouten import (
    check_jacobi_pair,
    hamiltonian_section,
    induced_bracket,
    jacobi_gauge,
    schouten,
    v_bracket,
    v_jacobiator,
)

CLI = [sys.executable, "-m", "courantkit"]


def report(n, label):
    print(f"criterion {n:02d}: PASS — {label}")


def rand_vector(rng, alg):
    return [rng.ring_elem(alg.sig, max_degree=1, terms=1) for _ in range(alg.rank)]


def rand_vform(rng, alg, degree):
    terms = {}
    for I in combinations(range(alg.rank), degree):
        if rng.randint(0, 1):
            vec = tuple(
                rng.ring_elem(alg.sig, max_degree=1, terms=1)
                for _ in range(alg.rank_v)
            )
            if any(not c.is_zero() for c in vec):
                terms[I] = vec
    return AForm(alg.sig, alg.rank, alg.rank_v, degree, terms)


def rand_csection(rng, C):
    alg = C.alg
    return CSection(alg, rand_vector(rng, alg), rand_vform(rng, alg, 1))


def test_c01_cartan_identities_200_triples():
    rng = SplitMix(2026)
    total = 0
    for name in ("e1m-r2", "tangent-r3"):
        alg = catalog.load(name)["algebroid"]
        for _ in range(100):
            X, Y = rand_vector(rng, alg), rand_vector(rng, alg)
            k = rng.randint(1, alg.rank - 1)
            w = rand_vform(rng, alg, k)
            w0 = rand_vform(rng, alg, 0)
            XY = alg.bracket(X, Y)

            def iX(u, m=X):
                return contract(m, u)

            def iY(u, m=Y):
                return contract(m, u)

            # [i_X, i_Y] = 0
            assert (iX(iY(w)) + iY(iX(w))).is_zero()
            # [d, i_X] = L_X  (plus its degree-zero instance, where i_X w vanishes)
            assert (alg.d(iX(w)) + iX(alg.d(w))).equals(alg.lie(X, w))
            assert iX(alg.d(w0)).equals(alg.lie(X, w0))
            # [L_X, i_Y] = i_[X,Y]
            lhs = contract(Y, alg.lie(X, w))
            assert (alg.lie(X, iY(w)) - lhs).equals(contract(XY, w))
            # [d, d] = 0
            assert alg.d(alg.d(w)).is_zero()
            # [L_X, d] = 0
            assert alg.lie(X, alg.d(w)).equals(alg.d(alg.lie(X, w)))
            # [L_X, L_Y] = L_[X,Y]
            assert (alg.lie(X, alg.lie(Y, w)) - alg.lie(Y, alg.lie(X, w))).equals(
                alg.lie(XY, w)
            )
            total += 1
    assert total >= 200
    report(1, f"six Cartan identities on {total} random (X, Y, form) triples")


def test_c02_d_squared_zero_across_catalog():
    # d^2 is the curvature of the module leg, so the sweep covers every entry
    # whose presentation is a flat algebroid; the lone exclusion must be the
    # deliberate curvature control, whose d^2 = F != 0 by construction.
    rng = SplitMix(202)
    eligible, skipped = [], []
    for name in catalog.names():
        alg = catalog.load(name)["algebroid"]
        (eligible if alg.validate()["flat_ok"] else skipped).append(name)
    assert skipped == ["curvature-control-r2"]
    per = math.ceil(200 / len(eligible))
    total = 0
    for name in eligible:
        alg = catalog.load(name)["algebroid"]
        for _ in range(per):
            k = rng.randint(0, max(alg.rank - 1, 0))
            w = rand_vform(rng, alg, k)
            assert alg.d(alg.d(w)).is_zero(), name
            total += 1
    assert total >= 200
    report(2, f"d^2 = 0 on {total} random module-valued forms over {len(eligible)} flat presentations")


def test_c03_axiom_suite_with_nonclosed_control():
    rng = SplitMix(33)
    presentations = [
        catalog.load("standard-r3-twisted")["courant"],
        catalog.e1m(2),
    ]
    for C in presentations:
        frame = C.full_frame()
        for a in frame:
            for b in frame:
                for c in frame:
                    defect = C.jacobiator(a, b, c)
                    assert defect.equals(C.jacobiator_expected(a, b, c))
                    assert defect.is_zero()
        for _ in range(100):
            a, b, c = (rand_csection(rng, C) for _ in range(3))
            assert C.jacobiator(a, b, c).is_zero()  # AV-1
            assert all(x.is_zero() for x in C.anchor_defect(a, b))  # AV-2
            assert C.symmetric_defect(a).is_zero()  # AV-3
            assert all(x.is_zero() for x in C.invariance_defect(a, b, c))  # AV-4

    control = catalog.load("nonclosed-r4")["courant"]
    frame = control.full_frame()
    broken = 0
    for a in frame:
        for b in frame:
            for c in frame:
                defect = control.jacobiator(a, b, c)
                assert defect.equals(control.jacobiator_expected(a, b, c))
                broken += not defect.is_zero()
    assert broken > 0
    report(3, "axioms on closed presentations; control defect = twist insertion on all 64 frame triples")


def test_c04_gauge_suite_50_betas():
    rng = SplitMix(44)
    C = catalog.load("standard-r3-twisted")["courant"]
    alg = C.alg
    for _ in range(50):
        beta = rand_vform(rng, alg, 2)
        C2 = C.change_splitting(beta)
        assert C2.twist.equals(C.twist - alg.d(beta))
        e1, e2 = rand_csection(rng, C), rand_csection(rng, C)
        lhs = C.bracket(C.transport(e1, beta), C.transport(e2, beta))
        assert lhs.equals(C.transport(C2.bracket(e1, e2), beta))

    half = Fraction(1, 2)
    for _ in range(50):
        sigma = [
            AForm(
                alg.sig,
                alg.rank,
                1,
                1,
                {
                    (j,): (rng.ring_elem(alg.sig, max_degree=1, terms=1),)
                    for j in range(alg.rank)
                },
            )
            for _ in range(alg.rank)
        ]
        _, beta = C.isotropize(sigma)
        corrected = [
            CSection(alg, C.frame_section(i).x, contract(C.frame_section(i).x, beta))
            for i in range(alg.rank)
        ]
        for a in corrected:
            for b in corrected:
                assert all(c.is_zero() for c in C.pairing(a, b))
        for i in range(alg.rank):
            for j in range(i + 1, alg.rank):
                want = tuple(
                    (u - v) * half
                    for u, v in zip(sigma[i].coefficient((j,)), sigma[j].coefficient((i,)))
                )
                assert beta.coefficient((i, j)) == want
    report(4, "50 splitting shifts: H' = H - d(beta), transport intertwines; isotropize exact on all frame pairs")


def test_c05_point_cohomology_against_oracle():
    fixtures = ("point-abelian2", "point-sl2", "point-heisenberg", "point-heisenberg-mod")
    betti = {n: catalog.load(n)["algebroid"].ce_cohomology() for n in fixtures}
    assert betti["point-sl2"][3] == 1
    assert (betti["point-abelian2"] + [0, 0])[3] == 0
    for name in fixtures:
        alg = catalog.load(name)["algebroid"]
        assert betti[name] == ce_oracle.betti(alg), name
        assert betti[name][0] == ce_oracle.invariant_dimension(alg), name
    report(5, "H^3(sl2) = 1, H^3(abelian) = 0, H^0 = invariants; all ranks match the brute-force oracle")


def test_c06_dirac_suite():
    p = catalog.load("dirac-graph-r2")
    ok, _ = is_dirac(p["courant"], p["subbundles"]["graph"])
    assert ok

    q = catalog.load("dirac-nonclosed-r3")
    lag, _ = is_lagrangian(q["courant"], q["subbundles"]["graph"])
    ok, rep = is_dirac(q["courant"], q["subbundles"]["graph"])
    assert lag and not ok and not rep["involutive"]

    c = catalog.load("contact-r3")
    ok, _ = is_dirac(c["courant"], c["subbundles"]["graph"])
    assert ok
    assert intersect_with_A(c["courant"], c["subbundles"]["graph"]) == 0
    report(6, "dx^dy graph Dirac; z dx^dy Lagrangian non-involutive; contact graph Dirac meeting A in 0")


def test_c07_cr_suite_both_directions():
    p = catalog.load("cr-levi-flat-r3")
    S = cr_to_gcr(p["courant"], p["distribution"], p["j_matrix"])
    rep = validate_gcr(S)
    assert rep["ok"] and rep["involutive_ok"]

    q = catalog.load("cr-control-r5")
    S = cr_to_gcr(q["courant"], q["distribution"], q["j_matrix"])
    rep = validate_gcr(S)
    assert not rep["ok"] and not rep["involutive_ok"]
    witness = rep["dirac_report"]["involutive_witness"]
    assert witness["pair"] == [0, 1]
    assert any(r != "0" for r in witness["residual"])
    report(7, "Levi-flat structure accepted; non-involutive control rejected with a bracket witness")


def test_c08_schouten_suite_100_triples():
    rng = SplitMix(88)
    alg = catalog.load("tangent-r3")["algebroid"]
    d = alg.d_graded
    neg = FScalar.of(alg.sig.const(-1))

    def rand_hmv(deg, grades=(-1, 0, 1)):
        terms = {}
        for I in combinations(range(alg.rank), deg):
            if rng.randint(0, 1):
                e = rng.ring_elem(alg.sig, max_degree=1, terms=1)
                if not e.is_zero():
                    terms[I] = FScalar(alg.sig, {rng.choice(grades): e})
        return Multivector(alg.sig, alg.rank, deg, terms)

    def rand_hform(deg):
        terms = {}
        for I in combinations(range(alg.rank), deg):
            if rng.randint(0, 1):
                e = rng.ring_elem(alg.sig, max_degree=1, terms=1)
                if not e.is_zero():
                    terms[I] = FScalar(alg.sig, {rng.choice((-1, 0, 1)): e})
        return FForm(alg.sig, alg.rank, deg, terms)

    def sgn_scale(P, flip):
        return P.scale(neg) if flip else P

    total = 0
    for _ in range(100):
        p, q, r = rng.randint(1, 2), rng.randint(1, 2), 1
        P, Q, R = rand_hmv(p), rand_hmv(q), rand_hmv(r)
        # (i) graded antisymmetry
        assert schouten(alg, P, Q).equals(
            sgn_scale(schouten(alg, Q, P), ((p - 1) * (q - 1)) % 2 == 0)
        )
        # (ii) wedge Leibniz
        lhs = schouten(alg, P, wedge(Q, R))
        rhs = wedge(schouten(alg, P, Q), R) + sgn_scale(
            wedge(Q, schouten(alg, P, R)), ((p - 1) * q) % 2 == 1
        )
        assert lhs.equals(rhs)
        # (iii) graded Jacobi
        lhs = schouten(alg, P, schouten(alg, Q, R))
        rhs = schouten(alg, schouten(alg, P, Q), R) + sgn_scale(
            schouten(alg, Q, schouten(alg, P, R)), ((p - 1) * (q - 1)) % 2 == 1
        )
        assert lhs.equals(rhs)
        # (iv) degree-one reduction to the algebroid bracket, and (v) the scalar
        # rule: [X, g] is the anchor derivation applied to g
        def flat_coeffs(M):
            return [
                M.terms.get((i,), FScalar.zero(alg.sig)).get(0)
                for i in range(alg.rank)
            ]

        g = Multivector(
            alg.sig, alg.rank, 0, {(): FScalar.of(rng.ring_elem(alg.sig, 1, 1))}
        )
        X, Y = rand_hmv(1, grades=(0,)), rand_hmv(1, grades=(0,))
        XY = alg.bracket(flat_coeffs(X), flat_coeffs(Y))
        assert schouten(alg, X, Y).equals(
            Multivector(alg.sig, alg.rank, 1, {(i,): FScalar.of(c) for i, c in enumerate(XY)})
        )
        acted = termwise_derivation(
            alg.anchor_vector(flat_coeffs(X)), g.terms.get((), FScalar.zero(alg.sig)).get(0)
        )
        assert schouten(alg, X, g).equals(
            Multivector(alg.sig, alg.rank, 0, {(): FScalar.of(acted)})
        )
        # operator oracle: iota_{[P,Q]} = -[[iota_Q, d], iota_P]
        k = rng.randint(max(p + q - 1, 0), alg.rank)
        w = rand_hform(k)

        def inner(u, Q=Q, q=q):
            a = iota(Q, d(u))
            b = d(iota(Q, u))
            return a - b if q % 2 == 0 else a + b

        rhs = inner(iota(P, w))
        back = iota(P, inner(w))
        rhs = rhs - back if ((1 - q) * p) % 2 == 0 else rhs + back
        assert iota(schouten(alg, P, Q), w).equals(rhs.scale(neg))
        total += 1
    assert total >= 100
    report(8, f"five graded bracket identities + operator oracle on {total} homogeneous triples")


def test_c09_contact_pipeline_and_gauge():
    rng = SplitMix(99)
    p = catalog.load("contact-r3")
    S = p["gcr"]
    assert validate_gcr(S)["ok"]
    alg = p["algebroid"]
    P = extract_bivector(S)
    # every coefficient carries the inverse-unit weight: P = e^{-t}(Lam + dt ^ E)
    assert all(w.pure_grade() == -1 for w in P.terms.values())
    parts = decompose_jacobi(alg, P)
    lam, e = parts["lambda"], parts["e"]
    assert lam.equals(p["jacobi"]["lambda"])
    assert e.equals(p["jacobi"]["e"])
    rep = check_jacobi_pair(parts["tangent"], lam, e)
    assert rep["square_ok"] and rep["e_ok"] and rep["nondegenerate"]
    assert schouten(alg, P, P).is_zero()
    tangent = parts["tangent"]
    sig = tangent.sig
    for _ in range(20):
        g = rng.ring_elem(sig, max_degree=1, terms=2)
        f = sig.const(rng.randint(1, 4)) + g * g  # positive + square: never vanishes
        lf, ef = jacobi_gauge(tangent, lam, e, f)
        assert check_jacobi_pair(tangent, lf, ef)["ok"]
    report(9, "contact bivector splits into the Jacobi pair; [P,P] = 0; 20 gauge rescalings preserved")


def test_c10_induced_brackets_100_samples():
    rng = SplitMix(1010)
    total = 0
    for name in ("symplectic-r2", "contact-r3"):
        p = catalog.load(name)
        C = p["courant"]
        P = extract_bivector(p["gcr"])
        alg = C.alg
        sig = alg.sig
        neg = FScalar.of(sig.const(-1))

        def rand_cov():
            terms = {}
            for i in range(alg.rank):
                if rng.randint(0, 1):
                    e = rng.ring_elem(sig, max_degree=1, terms=1)
                    if not e.is_zero():
                        terms[(i,)] = FScalar(sig, {1: e})
            return FForm(sig, alg.rank, 1, terms)

        def rand_sec():
            return FScalar(sig, {1: rng.ring_elem(sig, max_degree=2, terms=2)})

        for _ in range(50):
            xi, eta, zeta = rand_cov(), rand_cov(), rand_cov()
            assert induced_bracket(C, P, xi, eta).equals(
                induced_bracket(C, P, eta, xi).scale(neg)
            )
            j = induced_bracket(C, P, xi, induced_bracket(C, P, eta, zeta))
            j = j + induced_bracket(C, P, eta, induced_bracket(C, P, zeta, xi))
            j = j + induced_bracket(C, P, zeta, induced_bracket(C, P, xi, eta))
            assert j.is_zero()

            v, w, z = rand_sec(), rand_sec(), rand_sec()
            f = rng.ring_elem(sig, max_degree=1, terms=1)
            assert v_bracket(alg, P, v + w, z) == v_bracket(alg, P, v, z) + v_bracket(
                alg, P, w, z
            )
            assert v_bracket(alg, P, v, w) == -v_bracket(alg, P, w, v)
            Xv = hamiltonian_section(alg, P, v)
            df = alg.d_graded(FForm(sig, alg.rank, 0, {(): FScalar.of(f)}))
            lhs = v_bracket(alg, P, v, w * FScalar.of(f))
            rhs = v_bracket(alg, P, v, w) * FScalar.of(f) + w * pair_eval(df, Xv)
            assert lhs == rhs
            assert v_jacobiator(alg, P, v, w, z).is_zero()
            total += 1
    assert total >= 100
    report(10, f"covector-bracket antisymmetry + Jacobi and section-bracket bullets on {total} samples")


def test_c11_cli_reports_byte_identical():
    def run(args, stdin):
        return subprocess.run(
            CLI + args, input=stdin, capture_output=True, text=True, timeout=240
        )

    built = {
        name: run(["catalog", "build", name], None).stdout
        for name in ("standard-r3-twisted", "contact-r3", "dirac-nonclosed-r3", "point-sl2")
    }
    invocations = [
        (["check-axioms", "--samples", "6"], built["standard-r3-twisted"]),
        (["check-gcr"], built["contact-r3"]),
        (["check-dirac"], built["dirac-nonclosed-r3"]),
        (["validate"], built["standard-r3-twisted"]),
        (["cohomology", "--defs", "-", "--k", "3"], built["point-sl2"]),
        (["check-jacobi"], built["contact-r3"]),
    ]
    for args, stdin in invocations:
        first = run(args, stdin)
        second = run(args, stdin)
        assert first.stdout == second.stdout, args
        assert first.returncode == second.returncode, args
        json.loads(first.stdout)  # every report is well-formed JSON
    report(11, f"{len(invocations)} CLI invocations repeated byte-identically")
