"""The three workloads: seeded inputs, how each verdict runs, and its known answer.

Every case is one verdict.  Inputs are generated by the oracle from a seeded
``random.Random``; the known answer comes from the construction (closed forms
are exact differentials, Poisson bivectors come from h*grad(C)), from a
theorem (the anchor, symmetric-part and invariance axioms hold for any twist,
and the Leibniz defect equals the dH insertion), from the oracle's own exact
computation, or from the catalog's hand-written expected verdicts.

``run_case`` calls the program for one verdict; ``check_case`` compares its
output with the known answer and returns None or the reason for a failure.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracle
from oracle import GQ, Poly, Ring

# Verdicts of each kind in one round.  A round takes 20-35 seconds on a 2-core
# sandbox, to average over the host's slow spells; subbundle-elimination, the
# noisiest, gets the longest round.  Every round holds well over 100 verdicts,
# so more than ten lie beyond p90.  The kinds differ in
# cost; the counts put p50 and p90 inside one kind's spread rather than on the
# gap between two kinds, where they would jump from run to run.
AXIOM_MIX = {"twisted-r3": 12, "e1-r2": 12, "twisted-r4": 108, "twisted-r4-control": 108}
AXIOM_SAMPLES = 1
SUBBUNDLE_MIX = {"graph": 70, "graph-control": 110, "symplectic-gc": 50}  # plus 5 catalog entries
GRADED_MIX = {"poisson": 120, "contact-gauge": 240, "control": 120}

CATALOG_GCR = ("contact-r3", "cr-complex-r2", "cr-control-r5", "cr-levi-flat-r3", "symplectic-r2")


@dataclass
class Case:
    name: str
    kind: str
    path: str
    argv: list | None = None  # None: library call (axiom-sweep)
    verify_seed: int = 0
    expect: dict = field(default_factory=dict)


# -- random inputs ----------------------------------------------------------------


@dataclass
class Draw:
    """The two random streams of one case.

    `shape` picks monomials, indices, denominators and sample sections.  It is
    seeded by the case's kind and number alone, so every seed gets the same mix
    of shapes and a round costs nearly the same from seed to seed.  `value` is
    the workload seed's stream and picks the numerators.
    """

    shape: random.Random
    value: random.Random


def rand_coef(draw: Draw) -> Fraction:
    return Fraction(draw.value.choice((-3, -2, -1, 1, 2, 3, 5)), draw.shape.choice((1, 1, 2, 3)))


def rand_poly(draw: Draw, ring: Ring, variables, degrees) -> Poly:
    """One term per entry of `degrees`: distinct monomials of exactly that degree."""
    terms = {}
    for deg in degrees:
        while True:
            mono = [0] * ring.nvars
            for _ in range(deg):
                mono[draw.shape.choice(variables)] += 1
            if tuple(mono) not in terms:
                break
        terms[tuple(mono)] = GQ(rand_coef(draw))
    return Poly(ring, terms)


def write_doc(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    return path


def identity_rows(n: int) -> list:
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


def tangent_doc(name: str, ring: Ring, mode: str) -> dict:
    n = len(ring.coords)
    return {"name": name, "ring": ring.json_doc(mode), "rankA": n, "anchor": identity_rows(n)}


def _key(I) -> str:
    return ",".join(str(i + 1) for i in I)


# -- axiom-sweep ----------------------------------------------------------------------

R2 = Ring(("x", "y"))
R3 = Ring(("x", "y", "z"))
R4 = Ring(("x", "y", "z", "w"))


def _twisted_r3(draw, workdir, name) -> Case:
    """Twisted tangent R^3: a top-degree twist is closed."""
    h = rand_poly(draw, R3, range(3), (2, 1, 0))
    doc = tangent_doc(name, R3, "rational")
    doc["H"] = {"degree": 3, "terms": {"1,2,3": [h.to_str()]}}
    return _axiom_case(draw, workdir, doc, "twisted-r3", closed=True, top=None)


def _e1_r2(draw, workdir, name) -> Case:
    """E^1-type frame over R^2: an extra leg with zero anchor acts on V by a constant."""
    h = rand_poly(draw, R2, range(2), (2, 1, 0))
    doc = {
        "name": name,
        "ring": R2.json_doc("rational"),
        "rankA": 3,
        "anchor": [["1", "0"], ["0", "1"], ["0", "0"]],
        "module": {"rankV": 1, "action": [[["0"]], [["0"]], [[oracle.frac_text(rand_coef(draw))]]]},
        "H": {"degree": 3, "terms": {"1,2,3": [h.to_str()]}},
    }
    if not oracle.is_closed(R2, {(0, 1, 2): h}, 3, rank=3):
        raise oracle.OracleError("a top-degree twist must be closed")
    return _axiom_case(draw, workdir, doc, "e1-r2", closed=True, top=None)


def _twisted_r4(draw, workdir, name, control=False) -> Case:
    """Twisted tangent R^4, closed when no coefficient has its complementary coordinate."""
    comps = {}
    for I in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        comps[I] = rand_poly(draw, R4, list(I), (2,))
    if control:
        I = draw.shape.choice(sorted(comps))
        comp = next(k for k in range(4) if k not in I)
        comps[I] = comps[I] + R4.var(R4.coords[comp]) * rand_poly(draw, R4, range(4), (1,))
    dh = oracle.d_form(R4, comps, 3)
    closed = not dh
    if closed == control:
        raise oracle.OracleError("twist construction does not match its label")
    doc = tangent_doc(name, R4, "rational")
    doc["H"] = {"degree": 3, "terms": {_key(I): [p.to_str()] for I, p in sorted(comps.items())}}
    if control:
        doc["allow_nonclosed"] = True
    top = dh.get((0, 1, 2, 3), R4.zero())
    kind = "twisted-r4-control" if control else "twisted-r4"
    return _axiom_case(draw, workdir, doc, kind, closed=closed, top=top)


AXIOM_MAKERS = {
    "twisted-r3": _twisted_r3,
    "e1-r2": _e1_r2,
    "twisted-r4": _twisted_r4,
    "twisted-r4-control": lambda draw, workdir, name: _twisted_r4(draw, workdir, name, control=True),
}


def _build(rng, workdir, makers, mix) -> list:
    """Cases in the counts of `mix`, shuffled so that slow spells hit every kind alike."""
    cases = [
        makers[kind](Draw(random.Random(f"{kind}:{n}"), rng), workdir, f"{kind}-{n}")
        for kind, count in mix.items()
        for n in range(count)
    ]
    rng.shuffle(cases)
    return cases


def build_axiom_sweep(rng: random.Random, workdir: str) -> list:
    """Rational-mode presentations for CourantPresentation.verify without frame sweep."""
    return _build(rng, workdir, AXIOM_MAKERS, AXIOM_MIX)


def _axiom_case(draw, workdir, doc, kind, closed, top) -> Case:
    path = write_doc(workdir, doc["name"], doc)
    return Case(
        doc["name"], kind, path, None, draw.shape.randrange(1 << 30),
        {"closed": closed, "top": top, "coords": tuple(doc["ring"]["coords"])},
    )


def check_axiom(case: Case, rep: dict):
    ax = rep["axioms"]
    alg = rep["algebroid"]
    if not (alg["jacobi_ok"] and alg["anchor_ok"] and alg["flat_ok"]):
        return "algebroid axioms reported broken"
    if rep["closed_twist"] != case.expect["closed"]:
        return f"closed_twist {rep['closed_twist']} but the oracle says {case.expect['closed']}"
    for k in ("anchor", "symmetric_part", "invariance"):
        if not ax[k]["holds"]:
            return f"{k} axiom reported broken; it holds for any twist"
    if not ax["leibniz"]["defect_matches_insertion"]:
        return "Leibniz defect differs from the dH insertion"
    # The defect is i_X i_Y i_Z dH: nonzero exactly when dH and X^Y^Z are.
    ring = Ring(case.expect["coords"])
    top = case.expect["top"]
    expected_holds = True
    if top is not None and not top.is_zero():
        for triple in ax["leibniz"]["random_triples"]:
            xs = [[ring.parse(c) for c in sec["x"]] for sec in triple]
            minors = (
                oracle.det3([[row[j] for j in cols] for row in xs])
                for cols in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
            )
            if any(not m.is_zero() for m in minors):
                expected_holds = False
    if ax["leibniz"]["holds"] != expected_holds:
        return f"leibniz holds={ax['leibniz']['holds']}, oracle insertion says {expected_holds}"
    if rep["ok"] != expected_holds:
        return "overall verdict disagrees with the axioms"
    return None


# -- subbundle-elimination ------------------------------------------------------------


def _section_doc(vec, r: int) -> dict:
    return {
        "x": [c.to_str() for c in vec[:r]],
        "xi": {"degree": 1, "terms": {str(k + 1): [c.to_str()] for k, c in enumerate(vec[r:]) if not c.is_zero()}},
    }


def _graph(draw, workdir, name, control=False) -> Case:
    """Graph of a closed 2-form d(alpha) on R^3, or of a non-closed control."""
    omega = {}
    while not omega:  # an exact alpha has d(alpha) = 0; draw again
        alpha = {(k,): rand_poly(draw, R3, range(3), (2,)) for k in range(3)}
        omega = oracle.d_form(R3, alpha, 1)
    if control:
        I = draw.shape.choice(((0, 1), (0, 2), (1, 2)))
        k = next(k for k in range(3) if k not in I)
        omega[I] = omega.get(I, R3.zero()) + R3.var(R3.coords[k]) * rand_coef(draw)
    if oracle.is_closed(R3, omega, 2) == control:
        raise oracle.OracleError("two-form construction does not match its label")
    W = [[R3.zero()] * 3 for _ in range(3)]
    for (a, b), w in omega.items():
        W[a][b], W[b][a] = w, -w
    gens = [[R3.const(1 if j == i else 0) for j in range(3)] + W[i] for i in range(3)]
    # unimodular mixing keeps the span but gives elimination real work
    for a, b in ((1, 0), (2, 1), (0, 2)):
        p = rand_poly(draw, R3, range(3), (1,))
        gens[a] = [u + p * v for u, v in zip(gens[a], gens[b])]
    doc = tangent_doc(name, R3, "rational")
    doc["subbundles"] = {"graph": [_section_doc(g, 3) for g in gens]}
    path = write_doc(workdir, name, doc)
    expect = {
        "code": 1 if control else 0,
        "verdicts": {"graph.lagrangian": True, "graph.involutive": not control,
                     "graph.projection_closed": True},
        "gens": gens,
    }
    kind = "graph-control" if control else "graph"
    return Case(name, kind, path, ["check-dirac", "--defs", path], expect=expect)


def _catalog_gcr(workdir, name) -> Case:
    """A catalog entry with its hand-written expected verdicts."""
    from courantkit import catalog, io

    payload = catalog.load(name)
    path = write_doc(workdir, name, io.definition_to_json(payload))
    exp = payload["expected"]
    verdicts = {"involutive": exp["involutive"]} if "involutive" in exp else {}
    return Case(name, "catalog-gcr", path, ["check-gcr", "--defs", path],
                expect={"code": 0 if exp["gcr_ok"] else 1, "verdicts": verdicts})


def build_subbundle_elimination(rng: random.Random, workdir: str) -> list:
    """Graph subbundles on R^3, symplectic structures on R^4, the catalog's gcr entries."""
    makers = {
        "graph": _graph,
        "graph-control": lambda draw, workdir, name: _graph(draw, workdir, name, control=True),
        "symplectic-gc": _symplectic_case,
    }
    cases = _build(rng, workdir, makers, SUBBUNDLE_MIX)
    return cases + [_catalog_gcr(workdir, name) for name in CATALOG_GCR]


def _symplectic_case(draw, workdir: str, name: str) -> Case:
    """Pull-back of dx^dy + dz^dw along a triangular polynomial automorphism.

    phi = (x, y + p1(x), z + p2(x,y), w + p3(x,y,z)) has unit Jacobian, so the
    pulled-back form has constant Pfaffian and its matrix inverse is polynomial.
    p3 has one imaginary term: the real part is the pull-back along a real
    automorphism, hence nondegenerate, so L + conj(L) is the whole double.
    """
    r4 = R4
    p1 = rand_poly(draw, r4, [0], (2,))
    p2 = rand_poly(draw, r4, [0, 1], (2,))
    p3 = rand_poly(draw, r4, [0, 1, 2], (2,)) + rand_poly(draw, r4, [0, 1, 2], (1,)) * GQ(0, 1)
    phi = [r4.var("x"), r4.var("y") + p1, r4.var("z") + p2, r4.var("w") + p3]
    J = [[phi[k].partial(j) for j in range(4)] for k in range(4)]
    W0 = [[r4.const(v) for v in row] for row in ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))]
    W = oracle.mat_mul(r4, oracle.transpose(J), oracle.mat_mul(r4, W0, J))
    B = oracle.transpose(W)  # B[a][b] is the e^a coefficient of i_{e_b} omega
    Jinv = oracle.unipotent_lower_inverse(r4, J)
    Binv = oracle.mat_mul(r4, Jinv, oracle.mat_mul(r4, W0, oracle.transpose(Jinv)))
    eye = oracle.mat_mul(r4, B, Binv)
    if any(eye[i][j] != r4.const(1 if i == j else 0) for i in range(4) for j in range(4)):
        raise oracle.OracleError("symplectic inverse check failed")
    z = r4.zero()
    j = [[z] * 8 for _ in range(8)]
    for a in range(4):
        for b in range(4):
            j[a][4 + b] = -Binv[a][b]
            j[4 + a][b] = B[a][b]
    doc = tangent_doc(name, r4, "gaussian")
    doc["gcr"] = {"h": 4, "frame": identity_rows(4), "j": [[c.to_str() for c in row] for row in j]}
    path = write_doc(workdir, name, doc)
    names = ("j_square", "orthogonal", "lagrangian", "involutive", "conjugate_intersection")
    return Case(name, "symplectic-gc", path, ["check-gcr", "--defs", path],
                expect={"code": 0, "verdicts": {v: True for v in names}, "B": B})


def _points(rng: random.Random, ring: Ring, excluded, count: int) -> list:
    """Seeded rational points at which no excluded factor vanishes."""
    polys = [ring.parse(e) for e in excluded]
    out = []
    while len(out) < count:
        pt = [Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for _ in ring.coords]
        if all(p.evaluate(pt) for p in polys):
            out.append(pt)
    return out


def _check_cli_verdicts(case: Case, code: int, report: dict):
    if code != case.expect["code"]:
        return f"exit code {code}, expected {case.expect['code']}"
    got = {v["name"]: v["pass"] for v in report["verdicts"]}
    for name, want in case.expect["verdicts"].items():
        if got.get(name) != want:
            return f"verdict {name} is {got.get(name)}, expected {want}"
    return None


def check_subbundle(case: Case, code: int, report: dict, rng: random.Random):
    bad = _check_cli_verdicts(case, code, report)
    if bad or case.kind == "catalog-gcr":
        return bad
    if case.kind == "symplectic-gc":
        span = next(v for v in report["verdicts"] if v["name"] == "conjugate_intersection")
        want = 0
        for pt in _points(rng, R4, report["details"]["excluded"], 2):
            vals = [[c.evaluate(pt) for c in row] for row in case.expect["B"]]
            want = max(want, 4 + oracle.rank([[v + v.conj() for v in row] for row in vals]))
        if span["residual"]["span_rank"] != want:
            return f"span_rank {span['residual']['span_rank']}, point elimination gives {want}"
        return None
    det = report["details"]["graph"]
    lag = next(v for v in report["verdicts"] if v["name"] == "graph.lagrangian")
    rank_l = rank_xi = 0
    for pt in _points(rng, R3, det["excluded"], 2):
        vals = [[c.evaluate(pt) for c in g] for g in case.expect["gens"]]
        rank_l = max(rank_l, oracle.rank(vals))
        rank_xi = max(rank_xi, oracle.rank([row[3:] for row in vals]))
    if lag["residual"]["rank"] != rank_l:
        return f"rank {lag['residual']['rank']}, point elimination gives {rank_l}"
    if det["intersect_A"] != rank_l - rank_xi:
        return f"intersect_A {det['intersect_A']}, point elimination gives {rank_l - rank_xi}"
    return None


# -- graded-brackets ------------------------------------------------------------------


def _bivector_doc(v) -> dict:
    """Bivector of the vector field v on R^3: v1 dy^dz + v2 dz^dx + v3 dx^dy, dualized."""
    comps = {"2,3": v[0], "1,3": -v[1], "1,2": v[2]}
    return {"degree": 2, "terms": {k: {"0": p.to_str()} for k, p in comps.items() if not p.is_zero()}}


EMPTY_E = json.dumps({"degree": 1, "terms": {}})


def _graded_ring(draw) -> Ring:
    return Ring(("x", "y", "z"), [("E", [rand_coef(draw) for _ in range(3)])])


def _graded_scalar(draw, ring, degrees) -> Poly:
    """A random coefficient times E or 1/E."""
    return rand_poly(draw, ring, range(3), degrees) * ring.var("E", draw.shape.choice((-1, 1)))


def _poisson(draw, workdir, name) -> Case:
    """v = h grad C gives v . curl v = 0: Poisson for every h and C."""
    ring = _graded_ring(draw)
    h = _graded_scalar(draw, ring, (1, 0))
    C = rand_poly(draw, ring, range(3), (2, 1, 1))
    v = [h * C.partial(k) for k in range(3)]
    if not oracle.helicity(ring, v).is_zero() or all(c.is_zero() for c in v):
        raise oracle.OracleError("Poisson construction failed")
    return _jacobi_case(workdir, name, "poisson", ring, _bivector_doc(v), EMPTY_E, True)


def _control(draw, workdir, name) -> Case:
    """v = h^2 (-y, x, 1) has v . curl v = 2 h^4: never Poisson."""
    ring = _graded_ring(draw)
    g = _graded_scalar(draw, ring, (1, 0))
    x, y = ring.var("x"), ring.var("y")
    v = [-(g * g) * y, g * g * x, g * g]
    if oracle.helicity(ring, v).is_zero():
        raise oracle.OracleError("control construction failed")
    return _jacobi_case(workdir, name, "control", ring, _bivector_doc(v), EMPTY_E, False)


def _contact_gauge(draw, workdir, name) -> Case:
    """The contact pair dx^dy - y dy^dz with Reeb field dz, rescaled by a nonvanishing f."""
    from courantkit import io
    from courantkit.schouten import jacobi_gauge

    ring = _graded_ring(draw)
    q = rand_poly(draw, ring, range(3), (1,))
    f = (ring.const(draw.value.randint(1, 4)) + q * q) * ring.var("E", draw.shape.choice((-1, 1)))
    doc = tangent_doc(name, ring, "rational")
    alg = io.definition_from_json(doc)["algebroid"]
    lam = io.multivector_from_json(alg.sig, 3, {"degree": 2, "terms": {"1,2": {"0": "1"}, "2,3": {"0": "-y"}}}, "$")
    reeb = io.multivector_from_json(alg.sig, 3, {"degree": 1, "terms": {"3": {"0": "1"}}}, "$")
    lf, ef = jacobi_gauge(alg, lam, reeb, alg.sig.parse(f.to_str()))
    return _jacobi_case(workdir, name, "contact-gauge", ring, io.multivector_to_json(lf),
                        json.dumps(io.multivector_to_json(ef)), True, doc)


def build_graded_brackets(rng: random.Random, workdir: str) -> list:
    """check-jacobi on Poisson bivectors h*grad(C), non-Poisson controls, gauged contact pairs."""
    makers = {"poisson": _poisson, "control": _control, "contact-gauge": _contact_gauge}
    return _build(rng, workdir, makers, GRADED_MIX)


def _jacobi_case(workdir, name, kind, ring, lam_doc, e_json, jacobi, doc=None) -> Case:
    path = write_doc(workdir, name, doc or tangent_doc(name, ring, "rational"))
    argv = ["check-jacobi", "--defs", path, "--lambda", json.dumps(lam_doc), "--e", e_json]
    return Case(name, kind, path, argv,
                expect={"code": 0 if jacobi else 1, "verdicts": {"square": jacobi, "e_compat": True}})


# -- running one case -------------------------------------------------------------------


def run_case(case: Case):
    """Call the program for one verdict; returns its raw output."""
    if case.argv is None:
        from courantkit import io

        with open(case.path, encoding="utf-8") as fh:
            payload = io.loads_definition(fh.read())
        return payload["courant"].verify(case.verify_seed, samples=AXIOM_SAMPLES, frame_sweep=False)
    from courantkit import cli

    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(case.argv)
    return code, out.getvalue(), err.getvalue()


def check_case(workload: str, case: Case, output, rng: random.Random):
    if case.argv is None:
        return check_axiom(case, output)
    code, out, err = output
    if code == 2 or err:
        return f"exit code {code}: {err.strip()[:200]}"
    report = json.loads(out)
    if workload == "subbundle-elimination":
        return check_subbundle(case, code, report, rng)
    return _check_cli_verdicts(case, code, report)


BUILDERS = {
    "axiom-sweep": build_axiom_sweep,
    "subbundle-elimination": build_subbundle_elimination,
    "graded-brackets": build_graded_brackets,
}
