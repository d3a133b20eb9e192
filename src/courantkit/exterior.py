"""Sparse exterior algebra over a fixed frame.

Forms and multivector fields are stored as maps from strictly increasing
multi-indices to exact coefficients.  One alternating core (index checks,
sum, negation, scaling, wedge, equality, conjugation and one contraction
loop) serves two coefficient kinds:

* module vectors, in AForm: a tuple of ring elements per term, one entry per
  module frame vector (a 1-tuple for plain scalar forms);
* graded scalars (FScalar), in FForm and Multivector: finite Laurent sums in
  the module frame after a rank-one trivialization, the grade counting the
  power of the frame section.

`contract` inserts a plain section (a list of rank ring elements, like
`CSection.x`) into an AForm, so the Courant path builds no multivector;
`iota` and `breve_contract` are the graded contractions.

Sign conventions are pinned by the duality pairing

    <a_1 ^ ... ^ a_p , X_1 ^ ... ^ X_q> = det(a_i(X_j))  if p == q else 0,

from which the two contraction operators are derived:

    <xi, iota(P) omega-style>:   <xi, P ^ Q> = <iota_P xi, Q>   (front insertion)
    <xi ^ eta, P> = <xi, breve(eta) P>                          (rear insertion)

so iota_X is the usual interior product eating the first covector factor and
breve(alpha) contracts a multivector from the right.
"""

from __future__ import annotations

from fractions import Fraction

from .ring import GaussRat, RingElem, RingSignature, coerce_elem


class ExteriorError(ValueError):
    pass


# -- index bookkeeping --------------------------------------------------------


def merge_indices(I: tuple, J: tuple):
    """Merge two strictly increasing tuples; None if they collide.

    Returns (merged, sign) with sign the parity of the shuffle.
    """
    out = []
    sign = 1
    a, b = 0, 0
    while a < len(I) and b < len(J):
        if I[a] == J[b]:
            return None
        if I[a] < J[b]:
            out.append(I[a])
            a += 1
        else:
            # J[b] jumps over the remaining len(I) - a entries of I
            if (len(I) - a) % 2:
                sign = -sign
            out.append(J[b])
            b += 1
    out.extend(I[a:])
    out.extend(J[b:])
    return tuple(out), sign


def insert_index(i: int, I: tuple):
    """Sign and result of e_i ^ e_I (i prepended, then sorted in)."""
    return merge_indices((i,), I)


def contract_front_multi(S: tuple, I: tuple):
    """Iterated front contraction by e_S, innermost factor first.

    Removing an index at position m carries the sign (-1)^m; None if S is not
    contained in I.
    """
    sign = 1
    for s in S:
        if s not in I:
            return None
        m = I.index(s)
        if m % 2:
            sign = -sign
        I = I[:m] + I[m + 1 :]
    return I, sign


def contract_rear_multi(S: tuple, I: tuple):
    """Iterated rear contraction by the covector monomial S, last factor first.

    Removing an index at position m carries the sign (-1)^(len - 1 - m).
    """
    sign = 1
    for s in reversed(S):
        if s not in I:
            return None
        m = I.index(s)
        if (len(I) - 1 - m) % 2:
            sign = -sign
        I = I[:m] + I[m + 1 :]
    return I, sign


def _check_index(I: tuple, rank: int):
    if any(not isinstance(i, int) or i < 0 or i >= rank for i in I):
        raise ExteriorError(f"frame index out of range in {I}")
    if any(I[k] >= I[k + 1] for k in range(len(I) - 1)):
        raise ExteriorError(f"multi-index {I} is not strictly increasing")


# -- graded coefficients ------------------------------------------------------


class FScalar:
    """Finite Laurent sum over the trivialized module frame.

    Grade k holds the coefficient of the k-th power of the frame section; the
    grade-zero part is an ordinary function.
    """

    __slots__ = ("sig", "parts")

    def __init__(self, sig: RingSignature, parts: dict):
        clean = {}
        for k, elem in parts.items():
            if not isinstance(k, int):
                raise ExteriorError("grades must be integers")
            elem = coerce_elem(sig, elem)
            if not elem.is_zero():
                clean[k] = elem
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "parts", clean)

    def __setattr__(self, name, value):
        raise AttributeError("FScalar is immutable")

    @staticmethod
    def zero(sig: RingSignature) -> "FScalar":
        return FScalar(sig, {})

    @staticmethod
    def of(elem: RingElem, grade: int = 0) -> "FScalar":
        return FScalar(elem.sig, {grade: elem})

    @staticmethod
    def coerce(sig: RingSignature, value) -> "FScalar":
        if isinstance(value, FScalar):
            if value.sig != sig:
                raise ExteriorError("graded coefficient from a different ring")
            return value
        return FScalar(sig, {0: coerce_elem(sig, value)})

    def is_zero(self) -> bool:
        return not self.parts

    def __bool__(self):
        return bool(self.parts)

    def get(self, k: int) -> RingElem:
        return self.parts.get(k, self.sig.zero())

    def grades(self):
        return sorted(self.parts)

    def pure_grade(self) -> int | None:
        """The single grade present, 0 for the zero element, None if mixed."""
        if not self.parts:
            return 0
        if len(self.parts) == 1:
            return next(iter(self.parts))
        return None

    def grade_zero_elem(self) -> RingElem:
        if any(k != 0 for k in self.parts):
            raise ExteriorError("coefficient has nonzero grades")
        return self.get(0)

    def __add__(self, other):
        other = FScalar.coerce(self.sig, other)
        parts = dict(self.parts)
        for k, e in other.parts.items():
            s = parts.get(k, self.sig.zero()) + e
            if s.is_zero():
                parts.pop(k, None)
            else:
                parts[k] = s
        return FScalar(self.sig, parts)

    __radd__ = __add__

    def __neg__(self):
        return FScalar(self.sig, {k: -e for k, e in self.parts.items()})

    def __sub__(self, other):
        return self + (-FScalar.coerce(self.sig, other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat, RingElem, str)):
            other = FScalar.coerce(self.sig, other)
        if not isinstance(other, FScalar):
            return NotImplemented
        out: dict = {}
        for k1, e1 in self.parts.items():
            for k2, e2 in other.parts.items():
                k = k1 + k2
                s = out.get(k, self.sig.zero()) + e1 * e2
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
        return FScalar(self.sig, out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "FScalar":
        return FScalar(self.sig, {g + k: e for g, e in self.parts.items()})

    def conjugate(self) -> "FScalar":
        return FScalar(self.sig, {k: e.conjugate() for k, e in self.parts.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussRat, RingElem, str)):
            other = FScalar.coerce(self.sig, other)
        if not isinstance(other, FScalar):
            return NotImplemented
        return self.sig == other.sig and self.parts == other.parts

    def to_str(self, frame_name: str = "u") -> str:
        if not self.parts:
            return "0"
        bits = []
        for k in sorted(self.parts):
            e = self.parts[k]
            if k == 0:
                bits.append(f"({e})")
            else:
                bits.append(f"({e})*{frame_name}^{k}")
        return " + ".join(bits)

    def __repr__(self):
        return f"FScalar({self.to_str()})"


def _fscalar(sig: RingSignature, parts: dict) -> FScalar:
    """Unchecked constructor: every grade an int, every part a nonzero RingElem over sig."""
    s = object.__new__(FScalar)
    object.__setattr__(s, "sig", sig)
    object.__setattr__(s, "parts", parts)
    return s


# -- the alternating core ------------------------------------------------------


class _Alternating:
    """Sparse alternating object: strictly increasing multi-index -> coefficient.

    Subclasses fix the coefficient kind through the hooks _coeff (coerce one
    coefficient, None when it is zero), _zero_coeff, _plus, _neg, _prod,
    _conj, _scalar (a scalar as a coefficient) and _coeff_str, and through
    _like, which builds an object of the same kind and frame.  The Koszul
    loop and the Lie derivative in the algebroid module work through the same
    hooks, so they never see the coefficient format.
    """

    __slots__ = ("sig", "rank", "degree", "terms")

    def _set(self, sig, rank, degree, terms):
        if terms and not 0 <= degree <= rank:
            raise ExteriorError(f"degree {degree} out of range for rank {rank}")
        clean = {}
        for I, c in terms.items():
            I = tuple(I)
            _check_index(I, rank)
            if len(I) != degree:
                raise ExteriorError("term degree does not match form degree")
            c = self._coeff(sig, c)
            if c is not None:
                clean[I] = c
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _frame(self) -> tuple:
        return (self.sig, self.rank)

    def _compat(self, other):
        if type(self) is not type(other):
            raise ExteriorError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self._frame() != other._frame():
            raise ExteriorError("objects live over different frames")

    def _product_like(self, other):
        """Builder for a wedge product with other (after the frame check)."""
        return self._like

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, I):
        c = self.terms.get(tuple(I))
        return self._zero_coeff() if c is None else c

    def __add__(self, other):
        self._compat(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        if self.degree != other.degree:
            raise ExteriorError("cannot add forms of different degree")
        items = [(I, 1, c) for w in (self, other) for I, c in w.terms.items()]
        return self.collect(self.degree, items)

    add = __add__

    def __neg__(self):
        return self._like(self.degree, {I: self._neg(c) for I, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = self._scalar(c)
        return self._like(self.degree, {I: self._prod(v, c) for I, v in self.terms.items()})

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def wedge(self, other):
        _Alternating._compat(self, other)
        like = self._product_like(other)
        deg = self.degree + other.degree
        if deg > self.rank:
            return like(0, {})

        def items():
            for I, u in self.terms.items():
                for J, w in other.terms.items():
                    hit = merge_indices(I, J)
                    if hit is not None:
                        yield hit[0], hit[1], self._prod(u, w)

        return self.collect(deg, items(), like)

    def collect(self, degree, items, like=None):
        """Object of this kind and frame summing sign * c over (index, sign, c) items."""
        out: dict = {}
        for K, sign, c in items:
            if sign < 0:
                c = self._neg(c)
            cur = out.get(K)
            out[K] = c if cur is None else self._plus(cur, c)
        return (like or self._like)(degree, out)

    def conjugate(self):
        return self._like(self.degree, {I: self._conj(c) for I, c in self.terms.items()})

    def equals(self, other) -> bool:
        self._compat(other)
        if not self.terms and not other.terms:
            return True
        return self.degree == other.degree and self.terms == other.terms

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return self.equals(other)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def to_str(self, covector=None, sep="^") -> str:
        """Sum of coefficient * monomial, the basis named by covector + index."""
        if not self.terms:
            return "0"
        letter = covector or self._letter
        return " + ".join(
            f"{self._coeff_str(c)}*{sep.join(f'{letter}{i + 1}' for i in I) or '1'}"
            for I, c in self.sorted_terms()
        )

    def __repr__(self):
        return f"{type(self).__name__}[deg={self.degree}]({self.to_str()})"


# -- module-valued forms ------------------------------------------------------


class AForm(_Alternating):
    """Alternating form on the frame with module-vector (or scalar) values.

    Each coefficient is a tuple of ring elements, one per module frame vector
    (width rank_v), or a 1-tuple for a plain scalar form.  vvalued
    distinguishes the two; a wedge of two module-valued forms is rejected
    since the module carries no product.
    """

    __slots__ = ("rank_v", "vvalued")
    _letter = "dx"

    @staticmethod
    def _plus(a: tuple, b: tuple) -> tuple:
        return tuple(x + y for x, y in zip(a, b))

    @staticmethod
    def _neg(a: tuple) -> tuple:
        return tuple(-x for x in a)

    @staticmethod
    def _prod(u: tuple, w: tuple) -> tuple:
        """Product of two coefficient vectors of which at most one is wider than 1."""
        return tuple(x * y for x in u for y in w)

    @staticmethod
    def _conj(a: tuple) -> tuple:
        return tuple(x.conjugate() for x in a)

    def __init__(self, sig, rank, rank_v, vvalued, degree, terms):
        object.__setattr__(self, "rank_v", rank_v)
        object.__setattr__(self, "vvalued", vvalued)
        self._set(sig, rank, degree, terms)

    @staticmethod
    def zero(sig, rank, rank_v, vvalued, degree) -> "AForm":
        return AForm(sig, rank, rank_v, vvalued, degree, {})

    @property
    def width(self) -> int:
        return self.rank_v if self.vvalued else 1

    def _coeff(self, sig, vec):
        vec = tuple(coerce_elem(sig, x) for x in vec)
        if len(vec) != self.width:
            raise ExteriorError(f"coefficient vector has {len(vec)} entries, expected {self.width}")
        return vec if any(not x.is_zero() for x in vec) else None

    def _zero_coeff(self) -> tuple:
        return (self.sig.zero(),) * self.width

    def _scalar(self, c) -> tuple:
        return (c if isinstance(c, RingElem) else coerce_elem(self.sig, c),)

    @staticmethod
    def _coeff_str(vec) -> str:
        return f"({','.join(str(x) for x in vec)})"

    def _like(self, degree, terms, vvalued=None) -> "AForm":
        vvalued = self.vvalued if vvalued is None else vvalued
        return AForm(self.sig, self.rank, self.rank_v, vvalued, degree, terms)

    def _frame(self) -> tuple:
        return (self.sig, self.rank, self.rank_v)

    def _compat(self, other):
        super()._compat(other)
        if self.vvalued != other.vvalued:
            raise ExteriorError("cannot mix scalar and module-valued forms")

    def _product_like(self, other):
        if self.vvalued and other.vvalued:
            raise ExteriorError("cannot wedge two module-valued forms")
        return lambda degree, terms: self._like(degree, terms, self.vvalued or other.vvalued)

    def __repr__(self):
        kind = "V" if self.vvalued else "scalar"
        return f"AForm[{kind},deg={self.degree}]({self.to_str()})"


def _aform(sig, rank, rank_v, vvalued, degree, terms) -> AForm:
    """Unchecked constructor for terms that are canonical by construction.

    Every index is a strictly increasing tuple of degree frame indices below
    rank, and every coefficient is a tuple of the form's width over sig with a
    nonzero entry.
    """
    w = object.__new__(AForm)
    for name, value in (
        ("sig", sig), ("rank", rank), ("degree", degree), ("terms", terms),
        ("rank_v", rank_v), ("vvalued", vvalued),
    ):
        object.__setattr__(w, name, value)
    return w


# -- graded forms and multivectors ----------------------------------------------


class _Graded(_Alternating):
    """FScalar coefficients: FForm and Multivector."""

    __slots__ = ()
    _plus = staticmethod(FScalar.__add__)
    _neg = staticmethod(FScalar.__neg__)
    _prod = staticmethod(FScalar.__mul__)
    _conj = staticmethod(FScalar.conjugate)

    def __init__(self, sig, rank, degree, terms):
        self._set(sig, rank, degree, terms)

    @classmethod
    def zero(cls, sig, rank, degree):
        return cls(sig, rank, degree, {})

    @staticmethod
    def _coeff(sig, c):
        c = FScalar.coerce(sig, c)
        return c if c else None

    def _scalar(self, c) -> FScalar:
        return FScalar.coerce(self.sig, c)

    @staticmethod
    def _coeff_str(c) -> str:
        return f"[{c.to_str()}]"

    def _like(self, degree, terms):
        return type(self)(self.sig, self.rank, degree, terms)

    def _zero_coeff(self) -> FScalar:
        return FScalar.zero(self.sig)

    def pure_grade(self) -> int | None:
        """The single grade of all coefficients, 0 for zero, None if mixed."""
        grades = {c.pure_grade() for c in self.terms.values()}
        if None in grades or len(grades) > 1:
            return None
        return grades.pop() if grades else 0


class Multivector(_Graded):
    """Graded-coefficient multivector field over the frame."""

    _letter = "e"

    def section_coeffs(self) -> list:
        """Plain ring coefficients of a degree-one, grade-zero multivector."""
        if self.degree != 1:
            raise ExteriorError("not a degree-one multivector")
        out = [self.sig.zero()] * self.rank
        for (i,), c in self.terms.items():
            out[i] = c.grade_zero_elem()
        return out


def _multivector(sig, rank, degree, terms) -> Multivector:
    """Unchecked constructor: strictly increasing degree-long indices below rank, nonzero FScalars."""
    P = object.__new__(Multivector)
    for name, value in (("sig", sig), ("rank", rank), ("degree", degree), ("terms", terms)):
        object.__setattr__(P, name, value)
    return P


class FForm(_Graded):
    """Graded-coefficient alternating form over the frame."""

    _letter = "f"

    @staticmethod
    def covector_frame(sig, rank, k, grade=0) -> "FForm":
        return FForm(sig, rank, 1, {(k,): FScalar(sig, {grade: sig.one()})})


# -- conversions --------------------------------------------------------------


def aform_to_fform(w: AForm, grade: int | None = None) -> FForm:
    """View an AForm as a graded form after a rank-one trivialization.

    Module-valued forms sit in grade +1 by default, scalar forms in grade 0.
    """
    if w.vvalued:
        if w.rank_v != 1:
            raise ExteriorError("trivialization requires a rank-one module")
        g = 1 if grade is None else grade
    else:
        g = 0 if grade is None else grade
    return FForm(
        w.sig,
        w.rank,
        w.degree,
        {I: FScalar(w.sig, {g: vec[0]}) for I, vec in w.terms.items()},
    )


def fform_to_aform(w: FForm, rank_v: int = 1, vvalued: bool = True) -> AForm:
    grade = 1 if vvalued else 0
    terms = {}
    for I, c in w.terms.items():
        if set(c.grades()) - {grade}:
            raise ExteriorError("graded form is not homogeneous of the expected grade")
        terms[I] = (c.get(grade),)
    return AForm(w.sig, w.rank, rank_v, vvalued, w.degree, terms)


# -- the four spec operations -------------------------------------------------


def wedge(a, b):
    """Graded-commutative product; at most one AForm factor may be module-valued."""
    if type(a) is type(b) and isinstance(a, _Alternating):
        return a.wedge(b)
    raise ExteriorError("wedge requires two forms or two multivectors of one kind")


def _contraction(pairs, target: _Alternating, degree: int, remove) -> _Alternating:
    """Sum over pairs (S, c) and target terms (I, v) of sign * v * c at remove(S, I).

    remove(S, I) drops the indices S from I and returns (rest, sign), or None
    when S is not contained in I; front or rear removal is the only difference
    between the three contractions below.
    """

    def items():
        for S, c in pairs:
            for I, v in target.terms.items():
                hit = remove(S, I)
                if hit is not None:
                    yield hit[0], hit[1], target._prod(v, c)

    return target.collect(degree, items())


def contract(X, w: AForm) -> AForm:
    """Interior product of a plain section X = sum_i X[i] e_i into an AForm.

    X is a list of rank ring elements, like `CSection.x`; `iota` takes multivectors.
    """
    if isinstance(X, _Alternating) or len(X) != w.rank:
        raise ExteriorError(f"contraction direction must be a plain section of length {w.rank}")
    pairs = [((i,), (c,)) for i, c in enumerate(X) if not c.is_zero()]
    return _contraction(pairs, w, max(w.degree - 1, 0), contract_front_multi)


def iota(P: Multivector, w: FForm) -> FForm:
    """Interior product of a graded multivector into a graded form.

    Derived from the duality pairing: <xi, P ^ Q> = <iota(P) xi, Q>, hence
    iota of a decomposable contracts its first factor innermost.
    """
    return _contraction(P.terms.items(), w, max(w.degree - P.degree, 0), contract_front_multi)


def breve_contract(alpha: FForm, P: Multivector) -> Multivector:
    """Rear contraction of a multivector by a form: <xi ^ alpha, P> = <xi, breve(alpha) P>."""
    degree = max(P.degree - alpha.degree, 0)
    return _contraction(alpha.terms.items(), P, degree, contract_rear_multi)


def pair_eval(w, P: Multivector) -> FScalar:
    """Determinant pairing of a degree-p form with a degree-q multivector.

    Zero unless p == q; on increasing basis monomials the pairing is the
    Kronecker delta, so the sparse evaluation is a diagonal sum.
    """
    if isinstance(w, AForm):
        w = aform_to_fform(w)
    if w.sig != P.sig or w.rank != P.rank:
        raise ExteriorError("pairing across different frames")
    total = FScalar.zero(w.sig)
    if w.degree != P.degree:
        return total
    for I, c in w.terms.items():
        v = P.terms.get(I)
        if v is not None:
            total = total + c * v
    return total
