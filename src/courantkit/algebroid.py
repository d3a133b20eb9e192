"""Finitely presented Lie algebroids with a flat module representation.

A presentation fixes a coefficient ring, a frame e_1..e_r, an anchor matrix
(each frame section maps to a combination of coordinate derivations), frame
structure functions [e_i, e_j] = sum_k c_ij^k e_k, and connection matrices
Theta_i describing the action on a module frame u_1..u_s:

    nabla_{e_i} u_b = sum_c Theta_i[b][c] u_c.

Sections are plain lists of rank ring elements.  The connection matrix along
a section X, sum_i X_i Theta_i, is formed in one place, `_connection`.

Nothing forces the axioms to hold: `validate` reports Jacobi, anchor-morphism
and curvature defects exactly, so broken presentations are first-class test
subjects rather than constructor errors.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .exterior import (
    AForm,
    FForm,
    FScalar,
    _fscalar,
    insert_index,
    merge_indices,
)
from .ring import Accumulator, RingElem, RingSignature, coerce_elem
from . import linalg


class AlgebroidError(ValueError):
    pass


# Largest cochain space, C(rank, j) * rank_v, that one cohomology query builds:
# d_k is a dense matrix between two such spaces.
MAX_COCHAINS = 500


class CochainLimitError(AlgebroidError):
    pass


# Largest rankA that validate sweeps: the Jacobi check alone takes C(rank, 3)
# frame triples, each built from brackets whose cost grows with the rank.
MAX_VALIDATE_RANK = 12


class RankLimitError(AlgebroidError):
    pass


# Largest module rank rankV that io reads: without an explicit action the
# constructor builds rankA zero matrices of rankV x rankV entries.
MAX_MODULE_RANK = 16


def _shown(defect):
    """Report form of a list or matrix of ring elements: the entries as
    strings, or None when every entry is zero."""
    matrix = bool(defect) and isinstance(defect[0], list)
    rows = defect if matrix else [defect]
    if not any(x.terms for row in rows for x in row):
        return None
    shown = [[str(x) for x in row] for row in rows]
    return shown if matrix else shown[0]


class Algebroid:
    __slots__ = ("sig", "rank", "rank_v", "anchor", "structure", "theta")

    def __init__(self, sig: RingSignature, rank: int, rank_v: int, anchor, structure, theta=None):
        if rank < 1 or rank_v < 1:
            raise AlgebroidError("rank and module rank must be positive")
        anchor = [[coerce_elem(sig, x) for x in row] for row in anchor]
        if len(anchor) != rank or any(len(r) != sig.ncoords for r in anchor):
            raise AlgebroidError("anchor must be rank x ncoords")
        table = {}
        for key, coeffs in dict(structure or {}).items():
            i, j = key
            if not (0 <= i < rank and 0 <= j < rank):
                raise AlgebroidError(f"structure key {key} out of range")
            if i >= j:
                raise AlgebroidError("structure table keys must have i < j")
            vec = tuple(coerce_elem(sig, x) for x in coeffs)
            if len(vec) != rank:
                raise AlgebroidError("structure coefficients must have length rank")
            if any(not x.is_zero() for x in vec):
                table[(i, j)] = vec
        if theta is None:
            theta = [
                [[sig.zero()] * rank_v for _ in range(rank_v)] for _ in range(rank)
            ]
        theta = [
            [[coerce_elem(sig, x) for x in row] for row in mat] for mat in theta
        ]
        if len(theta) != rank or any(
            len(m) != rank_v or any(len(r) != rank_v for r in m) for m in theta
        ):
            raise AlgebroidError("theta must be rank matrices of shape rank_v x rank_v")
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "rank_v", rank_v)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "structure", table)
        object.__setattr__(self, "theta", theta)

    def __setattr__(self, name, value):
        raise AttributeError("Algebroid is immutable")

    # -- basic frame data ------------------------------------------------------

    def zero_section(self) -> list:
        return [self.sig.zero()] * self.rank

    def frame_section(self, i: int) -> list:
        out = self.zero_section()
        out[i] = self.sig.one()
        return out

    def frame_bracket(self, i: int, j: int) -> list:
        if i == j:
            return self.zero_section()
        if i < j:
            vec = self.structure.get((i, j))
            return list(vec) if vec else self.zero_section()
        vec = self.structure.get((j, i))
        return [-x for x in vec] if vec else self.zero_section()

    def _connection(self, X) -> list:
        """The connection matrix along the section X: sum_i X_i Theta_i."""
        return [
            linalg.vec_mat(X, [th[b] for th in self.theta], self.rank_v)
            for b in range(self.rank_v)
        ]

    def theta_scalar(self, i: int) -> RingElem:
        if self.rank_v != 1:
            raise AlgebroidError("scalar connection requires a rank-one module")
        return self.theta[i][0][0]

    # -- anchor and bracket ----------------------------------------------------

    def anchor_vector(self, X) -> list:
        """Coordinate-derivation coefficients of the anchored section."""
        return linalg.vec_mat(X, self.anchor, self.sig.ncoords)

    def commutator(self, v, w, extra=None, sign=-1) -> list:
        """[v, w] of two coordinate derivations as a coefficient vector, plus
        sign * extra if given."""
        acc = Accumulator(self.sig)
        for m in range(self.sig.ncoords):
            acc.add_derivation(v, w[m], 1, m)
            acc.add_derivation(w, v[m], -1, m)
            if extra is not None:
                acc.add(extra[m], sign, m)
        return acc.vector(self.sig.ncoords)

    def bracket(self, X, Y) -> list:
        """Section bracket with the anchor-Leibniz terms.

        The sum is one Accumulator, slot k for entry k; each stored c_ij^k
        (i < j) enters once for X_i Y_j and once, negated, for X_j Y_i.
        """
        sig = self.sig
        X = [coerce_elem(sig, x) for x in X]
        Y = [coerce_elem(sig, y) for y in Y]
        ax, ay = self.anchor_vector(X), self.anchor_vector(Y)
        acc = Accumulator(sig)
        for k, (x, y) in enumerate(zip(X, Y)):
            acc.add_derivation(ax, y, 1, k)
            acc.add_derivation(ay, x, -1, k)
        for (i, j), cs in self.structure.items():
            for a, b, sign in ((i, j, 1), (j, i, -1)):
                if X[a].terms and Y[b].terms:
                    xy = X[a] * Y[b]
                    for k, c in enumerate(cs):
                        acc.add_product(xy, c, sign, k)
        return acc.vector(len(X))

    def nabla(self, X, v) -> list:
        """Module connection along a section: nabla_X of a width-rank_v vector."""
        X = [coerce_elem(self.sig, x) for x in X]
        v = [coerce_elem(self.sig, w) for w in v]
        ax = self.anchor_vector(X)
        return linalg.vec_mat(v, self._connection(X), self.rank_v, ax)

    def act_module(self, i: int, vec):
        """Frame section i on a module vector: anchor derivative plus theta_i.

        Returns None when the result vanishes.
        """
        out = linalg.vec_mat(vec, self.theta[i], len(vec), self.anchor[i])
        return tuple(out) if any(x.terms for x in out) else None

    def act_graded(self, i: int, w: FScalar) -> FScalar:
        """Frame section i on a graded function: anchor derivative plus grade * theta_i.

        Each grade is one slot of one Accumulator, holding the derivative and
        the grade * theta_i term.
        """
        th, row = self.theta_scalar(i), self.anchor[i]
        acc = Accumulator(self.sig)
        for g, elem in w.parts.items():
            acc.add_derivation(row, elem, 1, g)
            if g:
                acc.add_product(elem, th, g, g)
        return _fscalar(self.sig, acc.elems())

    # -- differential and Lie derivative ----------------------------------------

    def zero_form(self, degree: int) -> AForm:
        return AForm.zero(self.sig, self.rank, self.rank_v, degree)

    def _koszul(self, w, act):
        """Koszul differential of w.

        act(i, c) is frame section i acting on one coefficient c, falsy when
        the result vanishes; it is the only part that differs between d and
        d_graded.
        """

        def items():
            for I, coeff in w.terms.items():
                for i in range(self.rank):
                    hit = insert_index(i, I)
                    if hit is not None:
                        a = act(i, coeff)
                        if a:
                            yield hit[0], hit[1], a, None
                for pos, k in enumerate(I):
                    rest = I[:pos] + I[pos + 1 :]
                    for (p, q), svec in self.structure.items():
                        c = svec[k]
                        if c.is_zero():
                            continue
                        hit = merge_indices((p, q), rest)
                        if hit is not None:
                            # -c_pq^k f^p ^ f^q replaces f^k at position pos
                            sign = -hit[1] if pos % 2 else hit[1]
                            yield hit[0], -sign, coeff, w._scalar(c)

        return w.collect(w.degree + 1, items())

    def d(self, w: AForm) -> AForm:
        """Koszul differential of a module-valued form, with the connection term."""
        if (w.sig, w.rank, w.rank_v) != (self.sig, self.rank, self.rank_v):
            raise AlgebroidError("form does not live on this algebroid")
        return self._koszul(w, self.act_module)

    def d_v(self, coeffs) -> AForm:
        """Differential of a module-valued function given as a width vector."""
        if not isinstance(coeffs, (tuple, list)):
            coeffs = (coeffs,)
        if len(coeffs) != self.rank_v:
            raise AlgebroidError("module vector has the wrong width")
        return self.d(AForm(self.sig, self.rank, self.rank_v, 0, {(): tuple(coeffs)}))

    def d_graded(self, w: FForm) -> FForm:
        """Differential on graded forms; grade k feels k copies of the connection."""
        if self.rank_v != 1:
            raise AlgebroidError("graded calculus requires a rank-one module")
        return self._koszul(w, self.act_graded)

    def lie(self, X, w: AForm) -> AForm:
        """Lie derivative along a section, built directly from the presentation.

        Independent of `d`, so the Cartan relation [d, iota_X] = L_X is a real
        consistency check rather than a definition.
        """
        if (w.sig, w.rank, w.rank_v) != (self.sig, self.rank, self.rank_v):
            raise AlgebroidError("form does not live on this algebroid")
        X = [coerce_elem(self.sig, x) for x in X]
        ax = self.anchor_vector(X)
        # L_X f^k = sum_j (a(e_j) X_k - sum_i X_i c_ij^k) f^j, one Accumulator
        # slotted by (k, j); each stored c_ij^k (i < j) enters at j and,
        # negated, at i
        acc = Accumulator(self.sig)
        for j, row in enumerate(self.anchor):
            for k, xk in enumerate(X):
                acc.add_derivation(row, xk, 1, (k, j))
        for (i, j), cs in self.structure.items():
            for k, c in enumerate(cs):
                acc.add_product(X[i], c, -1, (k, j))
                acc.add_product(X[j], c, 1, (k, i))
        cov = [{} for _ in X]
        for (k, j), g in acc.elems().items():
            cov[k][j] = g
        xtheta = self._connection(X)

        def items():
            for I, vec in w.terms.items():
                fn = linalg.vec_mat(vec, xtheta, len(vec), ax)
                if any(not x.is_zero() for x in fn):
                    yield I, 1, tuple(fn), None
                for pos, k in enumerate(I):
                    rest = I[:pos] + I[pos + 1 :]
                    for j, g in cov[k].items():
                        hit = insert_index(j, rest)
                        if hit is not None:
                            yield hit[0], -hit[1] if pos % 2 else hit[1], vec, w._scalar(g)

        return w.collect(w.degree, items())

    # -- validation -------------------------------------------------------------
    # Each defect is one Accumulator of signed terms: validate builds no
    # RingElem sum and, for i < j < k, no negated structure vector.

    def jacobi_defect(self, i: int, j: int, k: int) -> list:
        # frame sections have constant coefficients, so an inner bracket is
        # frame_bracket exactly; [e_j, [e_k, e_i]] enters as -[e_j, [e_i, e_k]],
        # and [e_a, 0] = 0 is not formed
        acc = Accumulator(self.sig)
        for a, b, c, sign in ((i, j, k, 1), (j, i, k, -1), (k, i, j, 1)):
            inner = self.frame_bracket(b, c)
            if any(inner):
                for m, t in enumerate(self.bracket(self.frame_section(a), inner)):
                    acc.add(t, sign, m)
        return acc.vector(self.rank)

    def anchor_defect(self, i: int, j: int) -> list:
        """[a(e_i), a(e_j)] - a([e_i, e_j]) as a coordinate-derivation vector."""
        br = self.anchor_vector(self.frame_bracket(i, j))
        return self.commutator(self.anchor[i], self.anchor[j], br)

    def curvature(self, i: int, j: int) -> list:
        """R(e_i, e_j) on the module frame, as a rank_v x rank_v matrix:
        a(e_i) Theta_j - a(e_j) Theta_i - Theta_[e_i,e_j] + Theta_j Theta_i - Theta_i Theta_j."""
        ti, tj = self.theta[i], self.theta[j]
        tij = self._connection(self.frame_bracket(i, j))
        n = self.rank_v
        acc = Accumulator(self.sig)
        for b in range(n):
            for c in range(n):
                at = (b, c)
                if tj[b][c].terms:
                    acc.add_derivation(self.anchor[i], tj[b][c], 1, at)
                if ti[b][c].terms:
                    acc.add_derivation(self.anchor[j], ti[b][c], -1, at)
                acc.add(tij[b][c], -1, at)
                for d in range(n):
                    if tj[b][d].terms and ti[d][c].terms:
                        acc.add_product(tj[b][d], ti[d][c], 1, at)
                    if ti[b][d].terms and tj[d][c].terms:
                        acc.add_product(ti[b][d], tj[d][c], -1, at)
        return [[acc.elem((b, c)) for c in range(n)] for b in range(n)]

    def validate(self) -> dict:
        """Exact defect report for Jacobi, anchor morphism and flatness.

        Raises RankLimitError, before any work, when rank exceeds
        MAX_VALIDATE_RANK.
        """
        if self.rank > MAX_VALIDATE_RANK:
            raise RankLimitError(
                f"validation at rankA {self.rank} is over the limit of {MAX_VALIDATE_RANK}"
            )

        def sweep(arity, defect):
            found = ((idx, _shown(defect(*idx))) for idx in combinations(range(self.rank), arity))
            return [(idx, shown) for idx, shown in found if shown is not None]

        jac = sweep(3, self.jacobi_defect)
        anc = sweep(2, self.anchor_defect)
        curv = sweep(2, self.curvature)
        return {
            "jacobi_ok": not jac,
            "anchor_ok": not anc,
            "flat_ok": not curv,
            "jacobi_defects": jac,
            "anchor_defects": anc,
            "curvature_defects": curv,
        }

    # -- frame changes ------------------------------------------------------------

    def change_frame(self, M) -> "Algebroid":
        """Presentation in the frame e'_i = sum_j M[i][j] e_j (M invertible)."""
        s = self.sig
        M = linalg.coerce_matrix(s, M)
        Minv = linalg.invert(s, M)
        anchor = linalg.mat_mul(s, M, self.anchor) if s.ncoords else [[] for _ in range(self.rank)]
        # brackets re-expressed in the primed frame: coefficients br . Minv
        structure = {
            (i, j): linalg.vec_mat(self.bracket(M[i], M[j]), Minv, self.rank)
            for i in range(self.rank)
            for j in range(i + 1, self.rank)
        }
        theta = [self._connection(row) for row in M]
        return Algebroid(s, self.rank, self.rank_v, anchor, structure, theta)

    # -- cohomology over a point ---------------------------------------------------

    def _require_point(self):
        if self.sig.ncoords or self.sig.nexps:
            raise AlgebroidError("cohomology requires a presentation over a point")

    def _point_basis(self, degree: int) -> list:
        return [
            (I, b)
            for I in combinations(range(self.rank), degree)
            for b in range(self.rank_v)
        ]

    def _point_dim(self, degree: int) -> int:
        return comb(self.rank, degree) * self.rank_v if degree >= 0 else 0

    def _point_rank(self, degree: int) -> int:
        """Rank of d from degree to degree + 1 over a point (0 outside 0..rank-1)."""
        if not 0 <= degree < self.rank:
            return 0
        basis = self._point_basis(degree)
        target = {pair: idx for idx, pair in enumerate(self._point_basis(degree + 1))}
        rows = [[self.sig.zero()] * len(basis) for _ in target]
        for col, (I, b) in enumerate(basis):
            vec = [self.sig.zero()] * self.rank_v
            vec[b] = self.sig.one()
            dw = self.d(AForm(self.sig, self.rank, self.rank_v, degree, {I: tuple(vec)}))
            for J, w in dw.terms.items():
                for c in range(self.rank_v):
                    if not w[c].is_zero():
                        rows[target[(J, c)]][col] = w[c]
        return linalg.rank(self.sig, rows)[0]

    def ce_cohomology(self) -> list:
        """Betti numbers of the module-valued complex over a point, every degree."""
        self._require_point()
        ranks = [self._point_rank(deg) for deg in range(-1, self.rank + 1)]
        return [
            self._point_dim(deg) - ranks[deg + 1] - ranks[deg] for deg in range(self.rank + 1)
        ]

    def cohomology_dim(self, k: int) -> int:
        """dim H^k over a point, from the ranks of d_{k-1} and d_k alone.

        Raises CochainLimitError when a cochain space of degree k-1, k or k+1
        has more than MAX_COCHAINS basis elements.
        """
        self._require_point()
        size = max(self._point_dim(j) for j in (k - 1, k, k + 1))
        if size > MAX_COCHAINS:
            raise CochainLimitError(
                f"degree-{k} cohomology needs {size} cochains, over the limit of {MAX_COCHAINS}"
            )
        return self._point_dim(k) - self._point_rank(k) - self._point_rank(k - 1)

    # -- parallel sections ----------------------------------------------------------

    def parallel_sections(self, max_degree: int = 2) -> list:
        """Module sections with vanishing differential, polynomial up to a bound.

        The differential can raise polynomial degree, so the cut-off is applied
        to the unknowns only; every output is exactly parallel.
        """

        def image(b, mono):
            vec = [self.sig.zero()] * self.rank_v
            vec[b] = mono
            for I, w in self.d_v(vec).terms.items():
                for c, e in enumerate(w):
                    yield (I, c), e

        return linalg.polynomial_kernel(self.sig, max_degree, self.rank_v, image)
