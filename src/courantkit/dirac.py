"""Subbundle analysis: isotropy, maximal isotropy and bracket closure.

Subbundles are presented by finite generator lists of sections.  Rank and
membership verdicts are generic (valid away from the recorded excluded locus),
which matches how such structures degenerate in examples: a graph of a
bivector may drop rank along a hypersurface while still being a structure on
the open complement.

The projection closure reduces pi[[g_i, g_j]], i < j, the tangent parts of
the brackets the Dirac closure makes: pi[[X + xi, Y + eta]] = [X, Y], since
in the frame expansion of the courant module docstring T_ab has a section
part only when a, b < r, and there it is the `Algebroid.bracket` formula,
with no twist, Theta or axiom term.  So check-dirac brackets each pair once.

The rank of the intersection with A, the sections with no form part, needs no
basis.  Write G for the m x n coordinate matrix of m generators and G_xi for
its form columns.  Over the fraction field:

- K = {c : c G_xi = 0} has dimension m - rank G_xi;
- c G = 0 forces c G_xi = 0, so ker(c -> c G) lies inside K, with dimension
  m - rank G;
- L meet A is K G, the combinations whose form part cancels, so its
  dimension is dim K - dim ker(c -> c G) = rank G - rank G_xi.

The same count holds at each point p, for the matrices G(p) and G_xi(p).
anchor_intersection builds a basis of K G from a nullspace basis of K, and
tests use it as an independent count.

check-dirac eliminates G once and reads every other rank and membership off
its echelon E (linalg.rref: Gauss-Jordan, the r tangent columns first, then
the form columns).  Each row of E is zero before its pivot, and each pivot
column is zero in every other row.  Off the locus of G's excluded factors,
E = T G for an invertible m x m matrix T: each step of rref scales a row by
1/w for a stripped factor w, or replaces it by (p row - c prow) / w for a
pivot p, with determinant p / w, or swaps two rows, and every such p and w
is one of G's excluded factors or vanishes nowhere.  Three facts follow.

1. X comes free.  Write X for the tangent block of G.  The rows of E whose
   pivot lies in one of the first r columns, cut to those columns, form a
   reduced echelon of X: cutting to the first r columns maps the row space
   of E = T G onto that of X, the other rows of E vanish there, and the cut
   rows keep their pivots and their zero pivot columns.  The projection
   closure reduces against this view, which keeps G's excluded factors, so X
   is never eliminated.
2. Involutive implies projection-closed.  pi is linear: if [[g_i, g_j]] =
   sum_k c_k g_k over the fraction field, then pi[[g_i, g_j]] = sum_k c_k
   pi(g_k).  Involutivity brackets every pair i < j that the projection
   closure reads, so when it holds the projection closure holds too, off the
   involutive locus, and check-dirac reduces no projection.  The reductions
   run only when involutivity fails.
3. rank G_xi from E_xi.  E_xi, the form columns of E, is T G_xi, so it has
   the rank of G_xi at every point off G's locus and over the fraction
   field.  check-dirac eliminates E_xi in place of G_xi; its rows are
   sparser, since T has undone the mixing of the generators.

So check-dirac makes two eliminations per generator list, of G and of E_xi,
and intersect_A = rank G - rank E_xi holds wherever no factor of either
echelon vanishes: the report lists G's factors, E_xi's and those of the
reductions.  check-gcr reads the span of L and its conjugate off the same
echelon (gcr.validate_gcr).  Each locus is a list of canonical factor texts
that linalg notes, each once: the reductions against one echelon note theirs
in one list, and linalg.merged_locus merges the verdicts' lists.
"""

from __future__ import annotations

from .algebroid import _shown
from .courant import CourantPresentation, CSection
from .exterior import AForm, contract
from . import linalg


class DiracError(ValueError):
    pass


def coordinates_matrix(gens) -> list:
    return [g.coordinates() for g in gens]


def is_isotropic(C: CourantPresentation, gens) -> tuple:
    """(verdict, witness): witness names the first nonvanishing pairing."""
    for i, g1 in enumerate(gens):
        for j in range(i, len(gens)):
            shown = _shown(C.pairing(g1, gens[j]))
            if shown is not None:
                return False, {"pair": [i, j], "value": shown}
    return True, None


def is_lagrangian(C: CourantPresentation, gens) -> tuple:
    """(verdict, report) for maximal isotropy.

    With a rank-one module the pairing is a split form on a rank-2r bundle, so
    maximal isotropic means isotropic of generic rank r.
    """
    return _lagrangian(C, gens)[:2]


def _lagrangian(C: CourantPresentation, gens) -> tuple:
    """is_lagrangian's (verdict, report), plus the echelon of the generator
    coordinates; another module rank is refused before any elimination."""
    if C.alg.rank_v != 1:
        raise DiracError("maximal-isotropy test requires a rank-one module")
    ech = linalg.rref(C.alg.sig, coordinates_matrix(gens))
    iso, witness = is_isotropic(C, gens)
    report = {
        "isotropic": iso,
        "rank": ech.rank,
        "expected_rank": C.alg.rank,
        "excluded": ech.excluded,
    }
    if witness:
        report["pairing_witness"] = witness
    return iso and ech.rank == C.alg.rank, report, ech


def perp(C: CourantPresentation, gens) -> list:
    """Basis of the pairing-orthogonal subbundle (rank-one module only)."""
    alg = C.alg
    if alg.rank_v != 1:
        raise DiracError("orthogonal complement requires a rank-one module")
    r = alg.rank
    # <v, w> in coordinates: x-part of v against xi-part of w and vice versa
    rows = [row[r:] + row[:r] for row in coordinates_matrix(gens)]
    basis, _ = linalg.nullspace(alg.sig, rows)
    return [CSection.from_coordinates(alg, vec) for vec in basis]


def _closure(C: CourantPresentation, gens, ech, isotropic: bool) -> tuple:
    """({closed, witness, excluded}, brackets) on the echelon ech of the
    generator coordinates; brackets maps each bracketed pair (i, j) to
    [[g_i, g_j]].

    isotropic is the verdict of is_isotropic on gens.  Ordered pairs (i, j),
    i != j, are bracketed in lexicographic order, except that an isotropic
    list skips every pair with j < i: [[g_j, g_i]] = D<g_i, g_j> - [[g_i, g_j]]
    in every presentation (see the courant module docstring), which is
    -[[g_i, g_j]] when the pairing vanishes, and reducing the negated vector
    gives the same verdict, the negated residual and the same excluded
    factors.  Since (i, j) comes before (j, i), the first failing pair, its
    witness and the first-seen order of the excluded factors are those of
    the full loop.
    """
    n = len(gens)
    pairs = [(i, j) for i in range(n) for j in range(i + 1 if isotropic else 0, n) if i != j]
    witness = None
    closed = True
    # every reduce notes its factors in one locus that starts as ech.excluded
    locus = list(ech.excluded)
    brackets = {}
    for i, j in pairs:
        b = brackets[i, j] = C.bracket(gens[i], gens[j])
        ok, residual = ech.reduce(b.coordinates(), locus)
        if not ok and witness is None:
            closed = False
            witness = {
                "pair": [i, j],
                "bracket": b.describe(),
                "residual": CSection.from_coordinates(C.alg, residual).describe(),
            }
    return {"closed": closed, "witness": witness, "excluded": locus if pairs else []}, brackets


def is_dirac(C: CourantPresentation, gens) -> tuple:
    """(verdict, report): maximal isotropy plus bracket closure.

    The rank and the closure check share one echelon of the generators.
    """
    return _dirac(C, gens)[:2]


def _dirac(C: CourantPresentation, gens) -> tuple:
    """is_dirac's (verdict, report), plus the echelon of the generator
    coordinates and the closure's brackets."""
    lag, report, ech = _lagrangian(C, gens)
    closure, brackets = _closure(C, gens, ech, report["isotropic"])
    report.update(
        {
            "lagrangian": lag,
            "involutive": closure["closed"],
            "involutive_witness": closure["witness"],
            "involutive_excluded": closure["excluded"],
        }
    )
    return lag and closure["closed"], report, ech, brackets


def _check_dirac(C: CourantPresentation, gens) -> tuple:
    """check-dirac on one generator list: (is_dirac's report, the projection
    closure, intersect_A, the merged excluded locus), from one echelon of G
    and one of its form columns; see the module docstring."""
    _, report, ech, brackets = _dirac(C, gens)
    if report["involutive"]:
        proj = {"closed": True, "excluded": report["involutive_excluded"]}
    else:
        proj = _projection_closure(C, gens, ech, lambda i, j: brackets[i, j].x)
    rank_a, excluded_a = _intersect_rank(C, ech)
    excluded = linalg.merged_locus(
        ech.excluded, report["involutive_excluded"], excluded_a, proj["excluded"]
    )
    return report, proj, rank_a, excluded


def graph_two_form(C: CourantPresentation, B: AForm) -> list:
    """Graph generators e_i + i_{e_i} B of a module-valued 2-form."""
    if not isinstance(B, AForm) or B.degree != 2:
        raise DiracError("graph requires a module-valued 2-form")
    alg = C.alg
    return [
        CSection(alg, X, contract(X, B)) for X in map(alg.frame_section, range(alg.rank))
    ]


def anchor_intersection(C: CourantPresentation, gens) -> tuple:
    """Generic rank of (span of gens) meet A, with a basis of section parts
    and the merged excluded locus."""
    alg = C.alg
    r, s = alg.rank, alg.rank_v
    form_cols = [g.coordinates()[r : r + r * s] for g in gens]
    combos, excluded = linalg.nullspace(alg.sig, [list(col) for col in zip(*form_cols)])
    vectors = []
    xs = [g.x for g in gens]
    for c in combos:
        vec = linalg.vec_mat(c, xs, r)
        if any(x.terms for x in vec):
            vectors.append(vec)
    rk, exc2 = linalg.rank(alg.sig, vectors)
    return rk, vectors, linalg.merged_locus(excluded, exc2)


def intersect_with_A(C: CourantPresentation, gens) -> int:
    """Generic rank of the intersection with the image of the splitting."""
    return _intersect_rank(C, linalg.rref(C.alg.sig, coordinates_matrix(gens)))[0]


def _intersect_rank(C: CourantPresentation, ech) -> tuple:
    """(rank G - rank E_xi, the excluded factors of E_xi's echelon)
    for the echelon ech = E of the generator coordinates G, E_xi being the
    form columns of its nonzero rows; see the module docstring."""
    r = C.alg.rank
    rank_xi, excluded = linalg.rank(C.alg.sig, [row[r:] for row in ech.rows[: ech.rank]])
    return ech.rank - rank_xi, excluded


def projection_closure(C: CourantPresentation, gens) -> dict:
    """Whether the projected section parts close under the anchor bracket.

    Projections of generator brackets are checked for membership in the span
    of projected generators; the first failure is returned as a witness.
    """
    ech = linalg.rref(C.alg.sig, coordinates_matrix(gens))
    return _projection_closure(C, gens, ech, lambda i, j: C.alg.bracket(gens[i].x, gens[j].x))


def _tangent_view(ech, r: int) -> linalg.Echelon:
    """The rows of ech whose pivot lies in one of the first r columns, cut to
    those columns, with ech's excluded factors: a reduced echelon of the
    first r columns of the eliminated matrix (module docstring, fact 1)."""
    k = sum(c < r for c in ech.pivots)
    return linalg.Echelon(ech.sig, [row[:r] for row in ech.rows[:k]], ech.pivots[:k], ech.excluded)


def _projection_closure(C: CourantPresentation, gens, ech, tangent) -> dict:
    """projection_closure with pi[[g_i, g_j]] read as tangent(i, j), reduced
    against the tangent view of the echelon ech of the generator
    coordinates."""
    pairs = [(i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))]
    if not pairs:
        return {"closed": True, "excluded": []}
    view = _tangent_view(ech, C.alg.rank)
    # every reduce notes its factors in one locus that starts as ech.excluded
    locus = list(ech.excluded)
    out = {"closed": True}
    for i, j in pairs:
        ok, residual = view.reduce(tangent(i, j), locus)
        if not ok:
            out = {
                "closed": False,
                "witness": {"pair": [i, j], "residual": [r.to_str() for r in residual]},
            }
            break
    out["excluded"] = sorted(locus)
    return out

