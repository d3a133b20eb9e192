"""Sparse exterior algebra over a fixed frame.

Forms and multivector fields are stored as maps from strictly increasing
multi-indices to exact coefficients.  One alternating core (index checks,
sums, products, equality and one contraction loop) serves two coefficient
kinds, each coefficient seen as its parts, a map from slot to ring element:

* module vectors, in AForm: a tuple of rank_v ring elements per term, one
  entry per module frame vector; the slot of an entry is its module
  component b;
* graded scalars (FScalar), in FForm and Multivector: finite Laurent sums in
  the module frame after a rank-one trivialization; the slot of a part is its
  grade, the power of the frame section.

Two coefficients multiply part by part at slot s1 + s2; for module vectors
this holds because the other factor of a contraction, a scaling or d is a
plain scalar, whose one slot is 0, and module vectors do not wedge.  A plain
scalar form is a grade-0 FForm.  Every sum of signed products (sum,
scaling, wedge, the contractions, d, the Lie derivative, the Schouten
bracket) is one `_Alternating.collect`: every product goes straight into
one `ring.Accumulator`, at the slot (index, part slot), and the result is
built once, unchecked.  FScalar arithmetic and `pair_eval` share its kernel,
`_sum_parts`; negation and conjugation map the parts.

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

from .ring import Accumulator, GaussRat, RingElem, RingSignature, coerce_elem


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
            if value.sig is not sig and value.sig != sig:
                raise ExteriorError("graded coefficient from a different ring")
            return value
        return FScalar(sig, {0: coerce_elem(sig, value)})

    def is_zero(self) -> bool:
        return not self.parts

    def __bool__(self):
        return bool(self.parts)

    def get(self, k: int) -> RingElem:
        return self.parts.get(k, self.sig.zero())

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
        return _fsum(self.sig, ((1, self, None), (1, other, None)))

    __radd__ = __add__

    def __neg__(self):
        return _fscalar(self.sig, {k: -e for k, e in self.parts.items()})

    def __sub__(self, other):
        return self + (-FScalar.coerce(self.sig, other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat, RingElem, str)):
            other = FScalar.coerce(self.sig, other)
        if not isinstance(other, FScalar):
            return NotImplemented
        return _fsum(self.sig, ((1, self, other),))

    __rmul__ = __mul__

    def conjugate(self) -> "FScalar":
        return _fscalar(self.sig, {k: e.conjugate() for k, e in self.parts.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussRat, RingElem, str)):
            other = FScalar.coerce(self.sig, other)
        if not isinstance(other, FScalar):
            return NotImplemented
        return self.sig == other.sig and self.parts == other.parts

    def to_str(self) -> str:
        if not self.parts:
            return "0"
        bits = []
        for k in sorted(self.parts):
            e = self.parts[k]
            if k == 0:
                bits.append(f"({e})")
            else:
                bits.append(f"({e})*u^{k}")
        return " + ".join(bits)

    def __repr__(self):
        return f"FScalar({self.to_str()})"


def _fscalar(sig: RingSignature, parts: dict) -> FScalar:
    """Unchecked constructor: every grade an int, every part a nonzero RingElem over sig."""
    s = object.__new__(FScalar)
    object.__setattr__(s, "sig", sig)
    object.__setattr__(s, "parts", parts)
    return s


def _graded_parts(c: FScalar):
    return c.parts.items()


def _fsum(sig: RingSignature, items) -> FScalar:
    """The FScalar summing sign * x * y over (sign, x, y) items of FScalars (y None: x alone)."""
    summed = _sum_parts(sig, (((), s, x, y) for s, x, y in items), _graded_parts)
    return _fscalar(sig, summed.get((), {}))


# -- the summation kernel ----------------------------------------------------------


def _sum_parts(sig: RingSignature, items, parts) -> dict:
    """K -> {slot: nonzero RingElem}: the sum of sign * x * y over (K, sign, x, y) items.

    parts(c) yields the (slot, RingElem) pairs of a coefficient c, afresh
    for each part of x; y None stands for 1.  Every product goes into one
    Accumulator at (K, s1 + s2); an index whose parts all cancel is dropped.
    """
    acc = Accumulator(sig)
    for K, sign, x, y in items:
        for s1, e1 in parts(x):
            if e1.terms:
                if y is None:
                    acc.add(e1, sign, (K, s1))
                else:
                    for s2, e2 in parts(y):
                        acc.add_product(e2, e1, sign, (K, s1 + s2))
    out: dict = {}
    for (K, s), e in acc.elems().items():
        row = out.get(K)
        if row is None:
            row = out[K] = {}
        row[s] = e
    return out


# -- the alternating core ------------------------------------------------------


class _Alternating:
    """Sparse alternating object: strictly increasing multi-index -> coefficient.

    Subclasses fix the coefficient kind through the hooks _coeff (coerce one
    outside coefficient, None when it is zero), _zero_coeff, _scalar (a
    scalar as a coefficient), _coeff_str, _parts (the (slot, RingElem) pairs
    of a coefficient), _from_parts (the coefficient with given parts) and
    _build (an unchecked object of the same kind and frame).  Every sum of
    signed products is one `collect` over (index, sign, x, y) items; the
    Koszul loop, the Lie derivative and the Schouten bracket hand their items
    to it as well, so they never see the coefficient format.
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
        items = [(I, 1, c, None) for w in (self, other) for I, c in w.terms.items()]
        return self.collect(self.degree, items)

    def _map(self, f):
        """This object with f applied to every part; f maps nonzero to nonzero."""
        parts, build = self._parts, self._from_parts
        terms = {I: build({s: f(e) for s, e in parts(c)}) for I, c in self.terms.items()}
        return self._build(self.degree, terms)

    def __neg__(self):
        return self._map(RingElem.__neg__)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = self._scalar(c)
        return self.collect(self.degree, ((I, 1, v, c) for I, v in self.terms.items()))

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def collect(self, degree, items):
        """Object of this kind and frame summing sign * x * y over (index, sign, x, y) items.

        x and y are coefficients, y None for x alone; they multiply part by
        part (`_sum_parts`), and the result is built once, unchecked.
        """
        build = self._from_parts
        summed = _sum_parts(self.sig, items, self._parts)
        return self._build(degree, {K: build(p) for K, p in summed.items()})

    def conjugate(self):
        return self._map(RingElem.conjugate)

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

    def to_str(self) -> str:
        """Sum of coefficient * monomial, the basis named by _letter + index."""
        if not self.terms:
            return "0"
        return " + ".join(
            f"{self._coeff_str(c)}*{'^'.join(f'{self._letter}{i + 1}' for i in I) or '1'}"
            for I, c in self.sorted_terms()
        )

    def __repr__(self):
        return f"{type(self).__name__}[deg={self.degree}]({self.to_str()})"


# -- module-valued forms ------------------------------------------------------


class AForm(_Alternating):
    """Alternating form on the frame with values in the module.

    Each coefficient is a tuple of rank_v ring elements, one per module frame
    vector.  There is no wedge, since the module carries no product; a plain
    scalar form is a grade-0 FForm.
    """

    __slots__ = ("rank_v",)
    _letter = "dx"

    _parts = staticmethod(enumerate)

    def __init__(self, sig, rank, rank_v, degree, terms):
        object.__setattr__(self, "rank_v", rank_v)
        self._set(sig, rank, degree, terms)

    @staticmethod
    def zero(sig, rank, rank_v, degree) -> "AForm":
        return AForm(sig, rank, rank_v, degree, {})

    def _coeff(self, sig, vec):
        vec = tuple(coerce_elem(sig, x) for x in vec)
        if len(vec) != self.rank_v:
            raise ExteriorError(f"coefficient vector has {len(vec)} entries, not {self.rank_v}")
        return vec if any(not x.is_zero() for x in vec) else None

    def _zero_coeff(self) -> tuple:
        return (self.sig.zero(),) * self.rank_v

    def _scalar(self, c) -> tuple:
        return (c if isinstance(c, RingElem) else coerce_elem(self.sig, c),)

    @staticmethod
    def _coeff_str(vec) -> str:
        return f"({','.join(str(x) for x in vec)})"

    def _from_parts(self, parts: dict) -> tuple:
        zero = self.sig.zero()
        return tuple(parts.get(b, zero) for b in range(self.rank_v))

    def _build(self, degree, terms) -> "AForm":
        return _aform(self.sig, self.rank, self.rank_v, degree, terms)

    def _frame(self) -> tuple:
        return (self.sig, self.rank, self.rank_v)


def _unchecked(cls, sig, rank, degree, terms, **more):
    """Unchecked constructor for terms that are canonical by construction.

    Every index is a strictly increasing tuple of degree frame indices below
    rank, and every coefficient is nonzero and over sig: a tuple of rank_v
    entries with a nonzero one, or an FScalar with nonzero parts.
    """
    w = object.__new__(cls)
    for name, value in (("sig", sig), ("rank", rank), ("degree", degree), ("terms", terms)):
        object.__setattr__(w, name, value)
    for name, value in more.items():
        object.__setattr__(w, name, value)
    return w


def _aform(sig, rank, rank_v, degree, terms) -> AForm:
    return _unchecked(AForm, sig, rank, degree, terms, rank_v=rank_v)


# -- graded forms and multivectors ----------------------------------------------


class _Graded(_Alternating):
    """FScalar coefficients: FForm and Multivector."""

    __slots__ = ()
    _parts = staticmethod(_graded_parts)

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

    def _from_parts(self, parts: dict) -> FScalar:
        return _fscalar(self.sig, parts)

    def _build(self, degree, terms):
        return _unchecked(type(self), self.sig, self.rank, degree, terms)

    def _zero_coeff(self) -> FScalar:
        return FScalar.zero(self.sig)

    def wedge(self, other):
        self._compat(other)
        deg = self.degree + other.degree
        if deg > self.rank:
            return self.collect(0, ())

        def items():
            for I, u in self.terms.items():
                for J, w in other.terms.items():
                    hit = merge_indices(I, J)
                    if hit is not None:
                        yield hit[0], hit[1], u, w

        return self.collect(deg, items())

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


class FForm(_Graded):
    """Graded-coefficient alternating form over the frame."""

    _letter = "f"

    @staticmethod
    def covector_frame(sig, rank, k, grade=0) -> "FForm":
        return FForm(sig, rank, 1, {(k,): FScalar(sig, {grade: sig.one()})})


# -- conversions --------------------------------------------------------------


def aform_to_fform(w: AForm) -> FForm:
    """View an AForm as a graded form after a rank-one trivialization.

    The module values sit in grade +1.
    """
    if w.rank_v != 1:
        raise ExteriorError("trivialization requires a rank-one module")
    return FForm(
        w.sig,
        w.rank,
        w.degree,
        {I: FScalar(w.sig, {1: vec[0]}) for I, vec in w.terms.items()},
    )


# -- the four spec operations -------------------------------------------------


def wedge(a, b):
    """Graded-commutative product of two graded forms or two multivectors (an AForm has none)."""
    if type(a) is type(b) and isinstance(a, _Graded):
        return a.wedge(b)
    raise ExteriorError("wedge requires two graded forms or two multivectors")


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
                    yield hit[0], hit[1], v, c

    return target.collect(degree, items())


def contract(X, w: AForm) -> AForm:
    """Interior product of a plain section X = sum_i X[i] e_i into an AForm.

    X is a list of rank ring elements, like `CSection.x`; `iota` takes multivectors.
    """
    if not isinstance(w, AForm):
        raise ExteriorError("contract takes a plain section and a module-valued form")
    if isinstance(X, _Alternating) or len(X) != w.rank:
        raise ExteriorError(f"contraction direction must be a plain section of length {w.rank}")
    pairs = [((i,), (c,)) for i, c in enumerate(X) if not c.is_zero()]
    return _contraction(pairs, w, max(w.degree - 1, 0), contract_front_multi)


def iota(P: Multivector, w: FForm) -> FForm:
    """Interior product of a graded multivector into a graded form.

    Derived from the duality pairing: <xi, P ^ Q> = <iota(P) xi, Q>, hence
    iota of a decomposable contracts its first factor innermost.
    """
    if not (isinstance(P, Multivector) and isinstance(w, FForm)):
        raise ExteriorError("iota takes a multivector and a graded form")
    return _contraction(P.terms.items(), w, max(w.degree - P.degree, 0), contract_front_multi)


def breve_contract(alpha: FForm, P: Multivector) -> Multivector:
    """Rear contraction of a multivector by a form: <xi ^ alpha, P> = <xi, breve(alpha) P>."""
    if not (isinstance(alpha, FForm) and isinstance(P, Multivector)):
        raise ExteriorError("breve_contract takes a graded form and a multivector")
    degree = max(P.degree - alpha.degree, 0)
    return _contraction(alpha.terms.items(), P, degree, contract_rear_multi)


def pair_eval(w, P: Multivector) -> FScalar:
    """Determinant pairing of a degree-p form with a degree-q multivector.

    Zero unless p == q; on increasing basis monomials the pairing is the
    Kronecker delta, so the sparse evaluation is a diagonal sum.
    """
    if not isinstance(w, FForm):
        raise ExteriorError("pairing takes a graded form")
    if w.sig != P.sig or w.rank != P.rank:
        raise ExteriorError("pairing across different frames")
    if w.degree != P.degree:
        return FScalar.zero(w.sig)
    return _fsum(w.sig, ((1, c, P.terms[I]) for I, c in w.terms.items() if I in P.terms))
