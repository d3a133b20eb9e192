"""Built-in fixtures: concrete presentations with frozen expected verdicts.

Every entry is constructed from scratch on each build and carries the
verdicts its checkers are expected to produce, so the registry doubles as a
self-consistency gate: a fixture whose fresh run disagrees with its metadata
is a bug, not an input error.

The suspension fixtures use a single exponential ring generator with
derivative equal to itself; quotient invariance is imposed by construction
(forms are suspended and reduced through explicit degree bookkeeping),
rather than checked dynamically.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .algebroid import Algebroid
from .courant import CourantPresentation
from .dirac import graph_two_form
from .exterior import AForm, FScalar, Multivector
from .gcr import Distribution, full_distribution, symplectic_gcr, tangent_restriction
from .ring import ExpGen, RingError, RingSignature


class CatalogError(ValueError):
    pass


_COORD_NAMES = ("x", "y", "z", "w")


def _coords(n: int) -> tuple:
    if n <= len(_COORD_NAMES):
        return _COORD_NAMES[:n]
    return tuple(f"x{i + 1}" for i in range(n))


def tangent_algebroid(coords) -> Algebroid:
    """Tangent presentation: identity anchor, zero brackets, trivial module."""
    return tangent_algebroid_over(RingSignature(tuple(coords)))


def standard_courant(n: int) -> CourantPresentation:
    """Untwisted presentation over the tangent algebroid of n coordinates."""
    if n < 1:
        raise CatalogError("dimension must be positive")
    return CourantPresentation(tangent_algebroid(_coords(n)))


def e1m(n: int) -> CourantPresentation:
    """Tangent-plus-line presentation whose module is acted on by the extra leg.

    Frame: coordinate directions then one central direction with zero anchor
    whose module action is the identity.  All structure functions vanish on
    this frame; the interesting data is the module connection.
    """
    if n < 1:
        raise CatalogError("dimension must be positive")
    sig = RingSignature(_coords(n))
    o, z = sig.one(), sig.zero()
    anchor = linalg.identity(sig, n) + [[z] * n]
    theta = [[[z]] for _ in range(n)] + [[[o]]]
    alg = Algebroid(sig, n + 1, 1, anchor, {}, theta)
    return CourantPresentation(alg)


# -- suspension --------------------------------------------------------------


def suspended_tangent(alg: Algebroid) -> Algebroid:
    """Tangent presentation with one extra coordinate carrying its exponential.

    For a rank r = n+1 presentation over n coordinates this produces the
    rank-r tangent algebroid over n+1 coordinates whose ring contains a unit
    with derivative equal to itself in the new direction.
    """
    n = alg.sig.ncoords
    if alg.rank != n + 1:
        raise CatalogError("suspension expects one extra frame direction")
    coords = alg.sig.coords + ("t",)
    row = tuple(Fraction(1) if i == n else Fraction(0) for i in range(n + 1))
    sig = RingSignature(coords, (ExpGen("Et", row),))
    return tangent_algebroid_over(sig)


def tangent_algebroid_over(sig: RingSignature) -> Algebroid:
    """Tangent presentation over the coordinates of a given ring."""
    n = sig.ncoords
    return Algebroid(sig, n, 1, linalg.identity(sig, n), {}, [[[sig.zero()]] for _ in range(n)])


def suspend_form(alg: Algebroid, sus: Algebroid, w: AForm) -> AForm:
    """The paper's suspension: a module-valued form to an invariant plain form.

    Each coefficient is taken to weight one in the unit of the suspension; the
    inverse is `reduce_form`.  The module of sus has rank one and Theta = 0,
    so its module-valued forms are the plain forms, and d on them has no
    connection term.
    """
    ssig = sus.sig
    unit = ssig.exp_gen(ssig.exps[0].name)
    terms = {I: (vec[0].embed(ssig) * unit,) for I, vec in w.terms.items()}
    return AForm(ssig, sus.rank, 1, w.degree, terms)


def reduce_form(alg: Algebroid, sus: Algebroid, w: AForm) -> AForm:
    """Invariant plain form back to a module-valued form; rejects non-invariant input.

    Invariance means every coefficient is exactly weight one in the unit and
    free of the suspension coordinate.
    """
    ssig = sus.sig
    unit = ssig.exp_gen(ssig.exps[0].name)
    try:
        terms = {I: ((vec[0] / unit).embed(alg.sig),) for I, vec in w.terms.items()}
    except RingError:
        raise CatalogError("form is not invariant of weight one") from None
    return AForm(alg.sig, alg.rank, 1, w.degree, terms)


def contact_r3() -> dict:
    """The contact fixture: graph subbundle, structure matrix, and Jacobi pair.

    The two-form arises by differentiating (unit times contact form) upstairs
    and reducing; its graph is the distinguished subbundle, the associated
    orthogonal structure produces the bivector, and splitting off the extra
    leg leaves the plane pair.
    """
    C = e1m(3)
    alg = C.alg
    sus = suspended_tangent(alg)
    ssig = sus.sig
    y_up = ssig.coord("y")
    unit = ssig.exp_gen("Et")
    eta = AForm(ssig, 4, 1, 1, {(2,): (ssig.one(),), (0,): (-y_up,)})
    omega = sus.d(eta.scale(unit))
    if not sus.d(omega).is_zero():
        raise CatalogError("suspension two-form failed to close")
    beta = reduce_form(alg, sus, omega)
    graph = graph_two_form(C, beta)
    structure = symplectic_gcr(C, beta)
    tangent = tangent_restriction(alg)
    sig = alg.sig
    y = sig.coord("y")
    lam = Multivector(sig, 3, 2, {(0, 1): FScalar.of(sig.one()), (1, 2): FScalar.of(-y)})
    reeb = Multivector(sig, 3, 1, {(2,): FScalar.of(sig.one())})
    return {
        "courant": C,
        "algebroid": alg,
        "two_form": beta,
        "subbundles": {"graph": graph},
        "gcr": structure,
        "jacobi": {"algebroid": tangent, "lambda": lam, "e": reeb},
        "expected": {
            "axioms_ok": True,
            "dirac": {"graph": True},
            "intersect_a": {"graph": 0},
            "gcr_ok": True,
            "jacobi_ok": True,
        },
    }


# -- almost-complex fixtures --------------------------------------------------


def _cr_entry(alg: Algebroid, distribution: Distribution, j_matrix, expected: dict) -> dict:
    """Distribution-plus-rotation fixture over a tangent algebroid."""
    return {
        "courant": CourantPresentation(alg),
        "algebroid": alg,
        "distribution": distribution,
        "j_matrix": j_matrix,
        "expected": expected,
    }


def cr_levi_flat_r3() -> dict:
    alg = tangent_algebroid(_coords(3))
    s = alg.sig
    o, z = s.one(), s.zero()
    dist = Distribution(alg, linalg.identity(s, 3), 2)
    return _cr_entry(alg, dist, [[z, -o], [o, z]], {"gcr_ok": True})


def cr_control_r5() -> dict:
    alg = tangent_algebroid(_coords(5))
    s = alg.sig
    o, z = s.one(), s.zero()
    x1 = s.coord("x1")
    frame = [
        [o, z, z, z, z],
        [z, o, z, z, z],
        [z, z, o, z, z],
        [z, z, z, o, x1],
        [z, z, z, z, o],
    ]
    j = [
        [z, -o, z, z],
        [o, z, z, z],
        [z, z, z, -o],
        [z, z, o, z],
    ]
    return _cr_entry(
        alg, Distribution(alg, frame, 4), j, {"gcr_ok": False, "involutive": False}
    )


def cr_complex_r2() -> dict:
    alg = tangent_algebroid(_coords(2))
    o, z = alg.sig.one(), alg.sig.zero()
    return _cr_entry(alg, full_distribution(alg), [[z, -o], [o, z]], {"gcr_ok": True})


def symplectic_r2() -> dict:
    C = standard_courant(2)
    sig = C.alg.sig
    omega = AForm(sig, 2, 1, 2, {(0, 1): (sig.one(),)})
    return {
        "courant": C,
        "algebroid": C.alg,
        "two_form": omega,
        "gcr": symplectic_gcr(C, omega),
        "expected": {"axioms_ok": True, "gcr_ok": True, "poisson": True},
    }


# -- graph subbundles ----------------------------------------------------------


def dirac_graph_r2() -> dict:
    C = standard_courant(2)
    sig = C.alg.sig
    omega = AForm(sig, 2, 1, 2, {(0, 1): (sig.one(),)})
    return {
        "courant": C,
        "algebroid": C.alg,
        "two_form": omega,
        "subbundles": {"graph": graph_two_form(C, omega)},
        "expected": {
            "axioms_ok": True,
            "dirac": {"graph": True},
            "lagrangian": {"graph": True},
        },
    }


def dirac_nonclosed_r3() -> dict:
    C = standard_courant(3)
    sig = C.alg.sig
    zc = sig.coord("z")
    omega = AForm(sig, 3, 1, 2, {(0, 1): (zc,)})
    return {
        "courant": C,
        "algebroid": C.alg,
        "two_form": omega,
        "subbundles": {"graph": graph_two_form(C, omega)},
        "expected": {
            "axioms_ok": True,
            "dirac": {"graph": False},
            "lagrangian": {"graph": True},
            "involutive": {"graph": False},
        },
    }


# -- point fixtures --------------------------------------------------------------


def _point_sig() -> RingSignature:
    return RingSignature((), (), mode="rational")


def _point_algebroid(rank: int, structure: dict, theta_scalars) -> Algebroid:
    sig = _point_sig()
    anchor = [[] for _ in range(rank)]
    struct = {
        key: tuple(sig.const(c) for c in vec) for key, vec in structure.items()
    }
    theta = [[[sig.const(t)]] for t in theta_scalars]
    return Algebroid(sig, rank, 1, anchor, struct, theta)


def _point_entry(rank: int, structure: dict, theta_scalars, expected: dict) -> dict:
    """Constant-coefficient fixture with its frozen cohomology table."""
    return {"algebroid": _point_algebroid(rank, structure, theta_scalars), "expected": expected}


def curvature_control_r2() -> dict:
    """Non-flat module connection: the validator must flag it."""
    sig = RingSignature(_coords(2))
    o, z = sig.one(), sig.zero()
    x = sig.coord("x")
    alg = Algebroid(
        sig, 2, 1, [[o, z], [z, o]], {}, [[[z]], [[x]]]
    )
    return {
        "algebroid": alg,
        "expected": {"valid": False, "flat_ok": False},
    }


def nonclosed_r4() -> dict:
    """Top-coefficient twist with one live derivative: the first axiom must fail."""
    alg = tangent_algebroid(_coords(4))
    sig = alg.sig
    w = sig.coord("w")
    twist = AForm(sig, 4, 1, 3, {(0, 1, 2): (w,)})
    C = CourantPresentation(alg, twist, allow_nonclosed=True)
    return {
        "courant": C,
        "algebroid": alg,
        "expected": {"axioms_ok": False, "closed_twist": False},
    }


def standard_r3_twisted() -> dict:
    alg = tangent_algebroid(_coords(3))
    sig = alg.sig
    x = sig.coord("x")
    twist = AForm(sig, 3, 1, 3, {(0, 1, 2): (x,)})
    return {
        "courant": CourantPresentation(alg, twist),
        "algebroid": alg,
        "expected": {"axioms_ok": True, "closed_twist": True},
    }


# -- registry --------------------------------------------------------------------


def _courant_entry(C: CourantPresentation) -> dict:
    return {
        "courant": C,
        "algebroid": C.alg,
        "expected": {"axioms_ok": True},
    }


_BUILDERS = {
    "tangent-r2": lambda: _courant_entry(standard_courant(2)),
    "tangent-r3": lambda: _courant_entry(standard_courant(3)),
    "standard-r3-twisted": standard_r3_twisted,
    "nonclosed-r4": nonclosed_r4,
    "e1m-r1": lambda: _courant_entry(e1m(1)),
    "e1m-r2": lambda: _courant_entry(e1m(2)),
    "e1m-r3": lambda: _courant_entry(e1m(3)),
    "contact-r3": contact_r3,
    "symplectic-r2": symplectic_r2,
    "dirac-graph-r2": dirac_graph_r2,
    "dirac-nonclosed-r3": dirac_nonclosed_r3,
    "curvature-control-r2": curvature_control_r2,
    "cr-levi-flat-r3": cr_levi_flat_r3,
    "cr-control-r5": cr_control_r5,
    "cr-complex-r2": cr_complex_r2,
    "point-abelian2": lambda: _point_entry(
        2, {}, (0, 0), {"betti": [1, 2, 1], "h3": 0, "invariants": 1}
    ),
    "point-sl2": lambda: _point_entry(
        3,
        {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)},
        (0, 0, 0),
        {"betti": [1, 0, 0, 1], "h3": 1, "invariants": 1},
    ),
    "point-heisenberg": lambda: _point_entry(
        3, {(0, 1): (0, 0, 1)}, (0, 0, 0), {"betti": [1, 2, 2, 1], "h3": 1, "invariants": 1}
    ),
    "point-heisenberg-mod": lambda: _point_entry(
        3, {(0, 1): (0, 0, 1)}, (1, 0, 0), {"betti": [0, 0, 0, 0], "h3": 0, "invariants": 0}
    ),
}


def names() -> list:
    return sorted(_BUILDERS)


def load(name: str) -> dict:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise CatalogError(f"unknown catalog entry {name!r}")
    payload = dict(builder())
    payload.setdefault("name", name)
    return payload
