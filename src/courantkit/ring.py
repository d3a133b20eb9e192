"""Exact coefficient arithmetic.

The coefficient ring is a polynomial ring over the Gaussian rationals in a
finite set of coordinates, extended by formal exponential generators with
Laurent (integer, possibly negative) exponents.  Each exponential generator E
carries a constant derivative row (c_1, ..., c_n) declaring dE/dx_j = c_j * E,
which makes partial derivatives close on the ring.  All arithmetic is exact;
no floats ever appear.

Elements are kept in canonical form: a sparse map from monomials to nonzero
Gaussian-rational coefficients.  Equality is therefore literal dict equality.
A monomial key is one flat tuple of exponents, the coordinates first and then
the exponential generators.  This module owns that format: other modules build
elements through the signature (const, coord, exp_gen, monomial, parse) and
move them between rings with RingElem.embed.

A coefficient, GaussRat, is one canonical integer triple (a + b*i)/d with
d > 0 and gcd(a, b, d) = 1, in rational and Gaussian rings alike.  Its
arithmetic uses only int, with one gcd per result at most; Fraction appears
only where rationals enter or leave (the constructor, re and im).

Every sum of products is built in an Accumulator, and so is every vector of
such sums: the coordinates of a bracket, the entries of an eliminated row or
of a matrix product, the parts of an exterior object.  An Accumulator is a
sparse vector of sums, one slot per name that a term lands on.  A slot keeps
a raw triple per monomial, a (a + b*i)/d with d > 0 that may be unreduced or
zero, adds products into it in place, and reduces each coefficient once when
it is read, as a canonical RingElem.  Two kernels go from raw triples to the
final form in one step.  add_derivation adds sum_j v_j * df/dx_j from the
triples of f, with no partial derivative built on the way; it is the one
derivative loop, and RingElem.partial is it along a unit vector.  primitive
reads slots 0..n-1 as a row divided by its rational content and common
monomial, each coefficient built once over d = 1; it is the one content and
monomial strip, and normalize_row adds a row to an Accumulator and reads it.
canonical_factors reads one element through it as the canonical factors of
its zero set, the form in which an excluded locus lists it.
Callers see only RingElems: the keys, the triples and the slot storage stay
inside this module.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add as _add, sub as _sub


class RingError(ValueError):
    pass


class SignatureMismatch(RingError):
    pass


class ParseError(RingError):
    """Raised on malformed ring-element text; carries the character offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos
        self.message = message


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise RingError(f"expected an exact rational, got {type(x).__name__}")


def _ratio_str(n: int, d: int) -> str:
    g = math.gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


class GaussRat:
    """A Gaussian rational (a + b*i)/d, held as three ints.

    The triple is canonical: d > 0 and gcd(a, b, d) = 1, so zero is (0, 0, 1)
    and equal values have equal triples.  Equality and hashing are therefore
    integer comparisons, and RingElem equality stays dict equality.  Arithmetic
    uses only int: a product of two real values multiplies a and d alone, a
    result over d = 1 needs no gcd, and any other result is brought back to
    canonical form with one math.gcd(a, b, d).  re and im give the two parts as
    Fractions.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if re.__class__ is int and im.__class__ is int:
            a, b, d = re, im, 1
        else:
            re, im = _as_fraction(re), _as_fraction(im)
            d = math.lcm(re.denominator, im.denominator)
            # over the least common denominator of two reduced fractions the
            # triple is already canonical
            a = re.numerator * (d // re.denominator)
            b = im.numerator * (d // im.denominator)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def coerce(x) -> "GaussRat":
        g = _operand(x)
        if g is None:
            raise RingError(f"cannot coerce {type(x).__name__} to a Gaussian rational")
        return g

    def __reduce__(self):
        return _gr, (self._a, self._b, self._d)

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    # + - * return NotImplemented for an operand that is not an exact scalar,
    # so that a RingElem operand answers through its reflected method.

    def __add__(self, other):
        if other.__class__ is not GaussRat:
            other = _operand(other)
            if other is None:
                return NotImplemented
        d1, d2 = self._d, other._d
        return _reduced(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else other - self

    def __neg__(self):
        return _gr(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if other.__class__ is not GaussRat:
            other = _operand(other)
            if other is None:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        if not (b1 or b2):
            return _reduced(a1 * a2, 0, self._d * other._d)
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussRat":
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _reduced(d * a, -d * b, n)

    def __truediv__(self, other):
        return self * GaussRat.coerce(other).inverse()

    def __rtruediv__(self, other):
        return GaussRat.coerce(other) * self.inverse()

    def conjugate(self) -> "GaussRat":
        return _gr(self._a, -self._b, self._d)

    def __eq__(self, other):
        if other.__class__ is not GaussRat:
            other = _operand(other)
            if other is None:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def to_str(self) -> str:
        a, b, d = self._a, self._b, self._d
        if not b:
            return _ratio_str(a, d)
        if b == d:
            ipart = "i"
        elif b == -d:
            ipart = "-i"
        else:
            ipart = f"{_ratio_str(b, d)}*i"
        if not a:
            return ipart
        if ipart.startswith("-"):
            return f"{_ratio_str(a, d)}-{ipart[1:]}"
        return f"{_ratio_str(a, d)}+{ipart}"

    def __repr__(self):
        return f"GaussRat({self.to_str()})"


# Exact scalars that coerce to GaussRat.  Fraction comes last: it is an ABC, so
# testing it costs an abc.__instancecheck__ call.
_SCALARS = (int, GaussRat, Fraction)

# The slots are written only here and in __init__; __setattr__ refuses the rest.
_set_a, _set_b, _set_d = GaussRat._a.__set__, GaussRat._b.__set__, GaussRat._d.__set__


def _operand(x):
    """x as a GaussRat, or None when it is not an exact scalar."""
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRat(x)
    return None


def _gr(a: int, b: int, d: int) -> GaussRat:
    """Unchecked constructor for a triple that is canonical by construction."""
    g = object.__new__(GaussRat)
    _set_a(g, a)
    _set_b(g, b)
    _set_d(g, d)
    return g


def _reduced(a: int, b: int, d: int) -> GaussRat:
    """The canonical form of (a + b*i)/d for d > 0."""
    if d != 1:
        g = math.gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _gr(a, b, d)


GR_ONE = GaussRat(1)
GR_I = GaussRat(0, 1)


@dataclass(frozen=True)
class ExpGen:
    """Formal exponential generator with constant derivative row."""

    name: str
    row: tuple[Fraction, ...]


@dataclass(frozen=True)
class RingSignature:
    """Names the coordinates and exponential generators of a coefficient ring.

    mode selects the scalar field used by the parser and validators:
    "gaussian" admits the imaginary unit, "rational" rejects it.  The mode is
    deliberately excluded from equality so that real and complexified views of
    the same ring interoperate.
    """

    coords: tuple[str, ...]
    exps: tuple[ExpGen, ...] = ()
    # mode excluded from comparisons: same generators -> same ring
    mode: str = field(default="gaussian", compare=False)
    # generator names in monomial-key order: coordinates, then exponentials
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    # the zero and unit elements, shared: elements are immutable
    _zero: "RingElem" = field(init=False, repr=False, compare=False)
    _one: "RingElem" = field(init=False, repr=False, compare=False)
    # the coordinates x_1..x_n as elements, for canonical_factors
    _variables: tuple = field(init=False, repr=False, compare=False)
    # generator name -> its place in a monomial key, for the parser
    _index: dict = field(init=False, repr=False, compare=False)
    # per coordinate x_j, the rates of the exponential generators along it:
    # ((key place, numerator), ...) over one common denominator, so that
    # d(E^n)/dx_j = (sum of n * numerator / denominator) * E^n
    _rates: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("gaussian", "rational"):
            raise RingError(f"unknown scalar mode {self.mode!r}")
        names = self.coords + tuple(e.name for e in self.exps)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {nm: k for k, nm in enumerate(names)})
        object.__setattr__(self, "_zero", _elem(self, {}))
        object.__setattr__(self, "_one", _elem(self, {(0,) * len(names): GR_ONE}))
        object.__setattr__(self, "_variables", tuple(map(self._generator, range(len(self.coords)))))
        if len(set(names)) != len(names):
            raise RingError("coordinate/exponential names must be distinct")
        for nm in names:
            # one whole word token, as the parser reads names
            if _TOKENS.match(nm).group(_WORD) != nm or not (nm[0].isalpha() or nm[0] == "_"):
                raise RingError(f"invalid generator name {nm!r}")
            if nm == "i":
                raise RingError("'i' is reserved for the imaginary unit")
        for e in self.exps:
            if len(e.row) != len(self.coords):
                raise RingError(
                    f"derivative row of {e.name!r} must have {len(self.coords)} entries"
                )
        rates = []
        for j in range(len(self.coords)):
            live = [(len(self.coords) + m, e.row[j]) for m, e in enumerate(self.exps) if e.row[j]]
            den = math.lcm(*(q.denominator for _, q in live))
            rates.append((tuple((p, q.numerator * (den // q.denominator)) for p, q in live), den))
        object.__setattr__(self, "_rates", tuple(rates))

    def __deepcopy__(self, memo):
        # immutable: a deep copy of an element keeps its signature object,
        # which element arithmetic compares by identity first
        return self

    @property
    def ncoords(self) -> int:
        return len(self.coords)

    @property
    def nexps(self) -> int:
        return len(self.exps)

    def coord_index(self, name: str) -> int:
        if 0 <= (j := self._index.get(name, -1)) < len(self.coords):
            return j
        raise RingError(f"unknown coordinate {name!r}")

    def zero(self) -> "RingElem":
        return self._zero

    def one(self) -> "RingElem":
        return self._one

    def const(self, c) -> "RingElem":
        c = GaussRat.coerce(c)
        return _elem(self, {(0,) * len(self.names): c} if c else {})

    def monomial(self, cdeg, edeg=None, coeff=1) -> "RingElem":
        """coeff * x^cdeg * E^edeg, checked like any outside input; edeg
        defaults to no exponential part."""
        edeg = (0,) * self.nexps if edeg is None else tuple(edeg)
        return RingElem(self, {tuple(cdeg) + edeg: coeff})

    def _generator(self, j: int) -> "RingElem":
        return _elem(self, {tuple(int(k == j) for k in range(len(self.names))): GR_ONE})

    def coord(self, name: str) -> "RingElem":
        return self._generator(self.coord_index(name))

    def exp_gen(self, name: str) -> "RingElem":
        if (j := self._index.get(name, -1)) >= len(self.coords):
            return self._generator(j)
        raise RingError(f"unknown exponential generator {name!r}")

    def parse(self, text: str) -> "RingElem":
        """The element a ring text denotes, or a ParseError with its position.

        Exactly "0" and "1", the commonest entries of identity anchors, frames
        and sparse matrices, return the shared zero() and one() without
        scanning; every other text goes through the token parser.
        """
        if text == "0":
            return self._zero
        if text == "1":
            return self._one
        terms, m = _read(self, _TOKENS.scanner(text).match, 0)
        if m.lastindex != _END:
            raise ParseError(f"unexpected character {text[_at(m)]!r}", _at(m))
        return _raw_elem(self, terms)

    def monomial_str(self, key) -> str:
        return "*".join(
            name if d == 1 else f"{name}^{d}" for name, d in zip(self.names, key) if d
        )


class RingElem:
    """Sparse exact element of the coefficient ring attached to a signature.

    terms maps monomial keys to nonzero Gaussian rationals.  A key is one flat
    tuple of exponents: the coordinates, then the exponential generators.  Only
    this module builds or takes one apart.  The constructor checks outside
    input (key arity, integer exponents, nonnegative coordinate exponents,
    exact coefficients); arithmetic results skip the checks via _elem.
    """

    __slots__ = ("sig", "terms")

    def __init__(self, sig: RingSignature, terms: dict):
        nvars, nc = len(sig.names), sig.ncoords
        clean = {}
        for key, coeff in terms.items():
            key = tuple(key)
            if len(key) != nvars:
                raise RingError("monomial arity does not match signature")
            if not all(isinstance(d, int) for d in key):
                raise RingError("monomial exponents must be integers")
            if any(d < 0 for d in key[:nc]):
                raise RingError("coordinate exponents must be nonnegative")
            coeff = GaussRat.coerce(coeff)
            if coeff:
                clean[key] = coeff
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("RingElem is immutable")

    def __reduce__(self):
        return _elem, (self.sig, self.terms)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        if not self.terms:
            return True
        if len(self.terms) != 1:
            return False
        return not any(next(iter(self.terms)))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "RingElem"):
        if self.sig is not other.sig and self.sig != other.sig:
            raise SignatureMismatch("ring elements come from different signatures")

    # The arithmetic methods test other.__class__ before _SCALARS, whose
    # Fraction check is slow for the common case, another RingElem.

    def __add__(self, other):
        if other.__class__ is not RingElem:
            if isinstance(other, _SCALARS):
                other = self.sig.const(other)
            elif not isinstance(other, RingElem):
                return NotImplemented
        self._check(other)
        if not other.terms:
            return self
        if not self.terms and other.sig is self.sig:
            return other
        terms = dict(self.terms)
        for key, c in other.terms.items():
            _accumulate(terms, key, c)
        return _elem(self.sig, terms)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not RingElem:
            if isinstance(other, _SCALARS):
                other = self.sig.const(other)
            elif not isinstance(other, RingElem):
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _elem(self.sig, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if other.__class__ is not RingElem:
            if isinstance(other, _SCALARS):
                c = GaussRat.coerce(other)
                if not c:
                    return self.sig.zero()
                return _elem(self.sig, {k: v * c for k, v in self.terms.items()})
            if not isinstance(other, RingElem):
                return NotImplemented
        self._check(other)
        if not self.terms:
            return self
        if not other.terms and other.sig is self.sig:
            return other
        out: dict = {}
        for k1, a in self.terms.items():
            for k2, b in other.terms.items():
                _accumulate(out, tuple(map(_add, k1, k2)), a * b)
        return _elem(self.sig, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            return self * GaussRat.coerce(other).inverse()
        if isinstance(other, RingElem):
            return self * other.unit_inverse()
        return NotImplemented

    def unit_inverse(self) -> "RingElem":
        """Inverse of a unit: one term, no coordinate part (Laurent monomial)."""
        if len(self.terms) != 1:
            raise RingError("only single-term elements are invertible")
        ((key, c),) = self.terms.items()
        if any(key[: self.sig.ncoords]):
            raise RingError("coordinate monomials are not invertible")
        return _elem(self.sig, {tuple(-d for d in key): c.inverse()})

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise RingError("exponents must be integers")
        return _power(self, n, lambda e: e)

    def __eq__(self, other):
        if other.__class__ is not RingElem:
            if isinstance(other, _SCALARS):
                other = self.sig.const(other)
            elif not isinstance(other, RingElem):
                return NotImplemented
        return (self.sig is other.sig or self.sig == other.sig) and self.terms == other.terms

    # -- calculus -----------------------------------------------------------

    def partial(self, var: str) -> "RingElem":
        """Exact partial derivative with respect to a coordinate: the
        derivation with unit coefficient vector at var (Accumulator.add_derivation)."""
        sig = self.sig
        v = [sig.zero()] * sig.ncoords
        v[sig.coord_index(var)] = sig.one()
        acc = Accumulator(sig)
        acc.add_derivation(v, self)
        return acc.elem()

    def conjugate(self) -> "RingElem":
        return _elem(self.sig, {k: c.conjugate() for k, c in self.terms.items()})

    def embed(self, target: RingSignature) -> "RingElem":
        """The same element over another signature, generators matched by name.

        Raises RingError when the element uses a generator the target lacks.
        """
        where = target._index
        moves = []
        for j, name in enumerate(self.sig.names):
            if any(key[j] for key in self.terms):
                if name not in where:
                    raise RingError(f"generator {name!r} is not in the target ring")
                moves.append((j, where[name]))
        out = {}
        for key, c in self.terms.items():
            new = [0] * len(where)
            for j, k in moves:
                new[k] = key[j]
            out[tuple(new)] = c
        return RingElem(target, out)

    # -- exact division -----------------------------------------------------

    def _min_key(self) -> tuple:
        """Componentwise minimum of the exponent keys of a nonzero element."""
        return tuple(map(min, zip(*self.terms)))

    def exact_div(self, g: "RingElem"):
        """Return self/g if g divides exactly, else None.

        A unit g (one term, no coordinate part) always divides: the quotient
        is the one product self * g.unit_inverse(), with no division loop.
        """
        self._check(g)
        if g.is_zero():
            raise ZeroDivisionError("division by zero ring element")
        if self.is_zero():
            return self.sig.zero()
        nc = self.sig.ncoords
        if len(g.terms) == 1 and not any(next(iter(g.terms))[:nc]):
            return self * g.unit_inverse()
        return self._divide(g)

    def _divide(self, g: "RingElem"):
        """exact_div for nonzero self and g by the division loop."""
        nc = self.sig.ncoords
        mf, mg = self._min_key(), g._min_key()
        if any(a < b for a, b in zip(mf[:nc], mg[:nc])):
            return None
        # classic multivariate division with lex order on exponents made >= 0;
        # the quotient and remainder are accumulated in place
        rem = {tuple(map(_sub, k, mf)): c for k, c in self.terms.items()}
        g0 = [(tuple(map(_sub, k, mg)), c) for k, c in g.terms.items()]
        glead, gc = max(g0)
        shift = tuple(map(_sub, mf, mg))
        quot: dict = {}
        while rem:
            rlead = max(rem)
            if any(a < b for a, b in zip(rlead, glead)):
                return None
            step = tuple(map(_sub, rlead, glead))
            t = rem[rlead] / gc
            quot[tuple(map(_add, step, shift))] = t
            for k, c in g0:
                _accumulate(rem, tuple(map(_add, k, step)), -(t * c))
        return _elem(self.sig, quot)

    # -- display ------------------------------------------------------------

    def to_str(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for key in sorted(self.terms, reverse=True):
            c = self.terms[key]
            mono = self.sig.monomial_str(key)
            cs = c.to_str()
            if not mono:
                chunks.append(cs)
            elif cs == "1":
                chunks.append(mono)
            elif cs == "-1":
                chunks.append(f"-{mono}")
            else:
                if ("+" in cs[1:]) or ("-" in cs[1:]):
                    cs = f"({cs})"
                chunks.append(f"{cs}*{mono}")
        out = chunks[0]
        for ch in chunks[1:]:
            if ch.startswith("-"):
                out += f" - {ch[1:]}"
            else:
                out += f" + {ch}"
        return out

    __str__ = to_str

    def __repr__(self):
        return f"RingElem({self.to_str()})"


_set_sig, _set_terms = RingElem.sig.__set__, RingElem.terms.__set__


def _elem(sig: RingSignature, terms: dict) -> RingElem:
    """Unchecked constructor for results that are canonical by construction."""
    e = object.__new__(RingElem)
    _set_sig(e, sig)
    _set_terms(e, terms)
    return e


def _power(base: RingElem, n: int, check) -> RingElem:
    """base**n by repeated squaring; every product passes through check."""
    if n < 0:
        base, n = base.unit_inverse(), -n
    out = base.sig.one()
    while n:
        if n & 1:
            out = check(out * base)
        n >>= 1
        if n:
            base = check(base * base)
    return out


def _accumulate(terms: dict, key, c):
    # One canonical GaussRat into a term map, reduced at every step: the
    # single product, sum and division loops of RingElem and the sampler's
    # draws use it.  A sum of
    # several products goes through Accumulator instead, which keeps raw
    # triples and reduces once per output term.  c is stored as it comes on
    # the first write to a key, so it must be nonzero.  Every caller passes a
    # term of a canonical element (no zero coefficients) or a product of
    # nonzero scalars, which is nonzero because Q(i) is a field.
    s = terms.get(key)
    if s is None:
        terms[key] = c
        return
    s = s + c
    if s:
        terms[key] = s
    else:
        del terms[key]


class Accumulator:
    """A mutable vector of sums of ring elements and products over one signature.

    Each sum sits in a slot named by a hashable at, 0 by default.
    add_product(x, y, sign, at) adds sign*x*y to slot at, add(x, sign, at)
    adds sign*x and add_derivation(v, f, sign, at) adds sign times the
    coordinate derivation with coefficient vector v applied to f; an empty
    operand adds nothing and reaches no slot, but an operand from another
    signature is still refused.  elem(at) returns one slot as a canonical
    RingElem, the shared zero where nothing landed; elems() maps each nonzero
    slot to its sum, in the order the slots were first reached; vector(n)
    lists slots 0..n-1 and primitive(n) lists them as a primitive row.  The
    sums may go on after any of them.  Which slots get storage, and how, is
    known only here.

    A slot first reached by add(x) with sign 1 holds x itself until a second
    term lands, so a sum of one element is never re-reduced.  Otherwise a
    slot maps each monomial key to a list [a, b, d] of ints standing for
    (a + b*i)/d with d > 0, not necessarily in lowest terms and possibly zero.
    Equal denominators add numerators only, others cross-multiply.  Reading a
    slot brings each coefficient to its canonical triple with at most one gcd
    and drops the zeros, so a sum of many products builds no intermediate
    RingElem or GaussRat; primitive brings a whole row to its final form in
    one step, with no per-coefficient gcd.
    """

    __slots__ = ("sig", "_slots")

    def __init__(self, sig: RingSignature):
        self.sig = sig
        self._slots: dict = {}

    def add(self, x: RingElem, sign: int = 1, at=0) -> None:
        if x.sig is not self.sig and x.sig != self.sig:
            raise SignatureMismatch("ring elements come from different signatures")
        if not x.terms:
            return
        slots = self._slots
        if sign == 1 and at not in slots:
            slots[at] = x
        else:
            self.add_product(self.sig.one(), x, sign, at)

    def add_product(self, x: RingElem, y: RingElem, sign: int = 1, at=0) -> None:
        sig = self.sig
        if x.sig is not sig and x.sig != sig or y.sig is not sig and y.sig != sig:
            raise SignatureMismatch("ring elements come from different signatures")
        if not (x.terms and y.terms):
            return
        slots = self._slots
        terms = slots.get(at)
        if terms is None:
            terms = slots[at] = {}
        elif terms.__class__ is RingElem:
            terms = slots[at] = {k: [c._a, c._b, c._d] for k, c in terms.terms.items()}
        ys = y.terms.items()
        for k1, c1 in x.terms.items():
            a1, b1, d1 = c1._a * sign, c1._b * sign, c1._d
            shift = any(k1)
            for k2, c2 in ys:
                key = tuple(map(_add, k1, k2)) if shift else k2
                a2, b2 = c2._a, c2._b
                if b1 or b2:
                    a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
                else:
                    a, b = a1 * a2, 0
                d = d1 * c2._d
                s = terms.get(key)
                if s is None:
                    terms[key] = [a, b, d]
                elif s[2] == d:
                    s[0] += a
                    s[1] += b
                else:
                    sd = s[2]
                    s[0] = s[0] * d + a * sd
                    s[1] = s[1] * d + b * sd
                    s[2] = sd * d

    def add_derivation(self, v, f: RingElem, sign: int = 1, at=0) -> None:
        """Add sign * sum_j v[j] * df/dx_j, v a vector of ring elements over the
        coordinates.

        Along x_j a term c x^k E^n gives c k_j x^(k - e_j) E^n, and c times
        the rate of E^n, sum_m n_m row_m[j], at its own key.  Those are kept
        as raw triples, one per term and rule, and multiplied by v[j] into
        the slot: no partial derivative is built as a RingElem or GaussRat.
        """
        sig = self.sig
        for x in (f, *v):
            if x.sig is not sig and x.sig != sig:
                raise SignatureMismatch("ring elements come from different signatures")
        if not f.terms:
            return
        fs, slots, terms = f.terms.items(), self._slots, None
        for j, (vj, (rates, den)) in enumerate(zip(v, sig._rates)):
            if not vj.terms:
                continue
            part = []
            for key, c in fs:
                e = key[j]
                if e:
                    part.append((key[:j] + (e - 1,) + key[j + 1 :], c._a * e, c._b * e, c._d))
                if rates:
                    n = 0
                    for p, q in rates:
                        n += key[p] * q
                    if n:
                        part.append((key, c._a * n, c._b * n, c._d * den))
            if not part:
                continue
            if terms is None:
                terms = slots.get(at)
                if terms is None:
                    terms = slots[at] = {}
                elif terms.__class__ is RingElem:
                    terms = slots[at] = {k: [c._a, c._b, c._d] for k, c in terms.terms.items()}
            # v[j] times the derivative, filed as add_product files products
            for k1, c1 in vj.terms.items():
                a1, b1, d1 = c1._a * sign, c1._b * sign, c1._d
                shift = any(k1)
                for k2, a2, b2, d2 in part:
                    key = tuple(map(_add, k1, k2)) if shift else k2
                    a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2
                    s = terms.get(key)
                    if s is None:
                        terms[key] = [a, b, d]
                    elif s[2] == d:
                        s[0] += a
                        s[1] += b
                    else:
                        sd = s[2]
                        s[0] = s[0] * d + a * sd
                        s[1] = s[1] * d + b * sd
                        s[2] = sd * d

    def _read(self, s) -> RingElem:
        if s.__class__ is RingElem:
            return s
        terms = {key: _reduced(a, b, d) for key, (a, b, d) in s.items() if a or b}
        return _elem(self.sig, terms) if terms else self.sig.zero()

    def elem(self, at=0) -> RingElem:
        s = self._slots.get(at)
        return self.sig.zero() if s is None else self._read(s)

    def elems(self) -> dict:
        out = {}
        for at, s in self._slots.items():
            e = self._read(s)
            if e.terms:
                out[at] = e
        return out

    def vector(self, n: int) -> list:
        zero, slots = self.sig.zero(), self._slots
        return [zero if (s := slots.get(at)) is None else self._read(s) for at in range(n)]

    def primitive(self, n: int) -> tuple:
        """Slots 0..n-1 divided by their rational content and common monomial.

        The row read is the one row of Gaussian integers with content 1 that
        is a positive rational multiple of the sums, with the componentwise
        least monomial divided out.  One pass over the slots drops the zero
        sums and collects the keys, the numerators and the denominators other
        than 1; only when there is such a denominator are the raw triples put
        over the lcm of all of them.  The numerators are then divided by their
        gcd, so each coefficient is built once, over d = 1, with no gcd of its
        own, and a slot held as one element already in that form is returned
        as it is.  Returns (row, witness): the witness is the stripped
        coordinate monomial, or None when there is none, since only
        coordinate monomials can vanish.
        """
        sig, slots = self.sig, self._slots
        live = []  # (at, slot, its nonzero raw terms (key, a, b, d))
        keys, nums, dens = [], [], []  # denominators other than 1 only
        key_, num_, den_ = keys.append, nums.append, dens.append
        for at in range(n):
            s = slots.get(at)
            if s is None:
                continue
            ts = []
            if s.__class__ is RingElem:
                for k, c in s.terms.items():
                    a, b, d = c._a, c._b, c._d
                    ts.append((k, a, b, d))
                    key_(k)
                    num_(a)
                    if b:
                        num_(b)
                    if d != 1:
                        den_(d)
            else:
                for k, (a, b, d) in s.items():
                    if a or b:
                        ts.append((k, a, b, d))
                        key_(k)
                        num_(a)
                        if b:
                            num_(b)
                        if d != 1:
                            den_(d)
                if not ts:
                    continue
            live.append((at, s, ts))
        row = [sig.zero()] * n
        if not live:
            return row, None
        if dens:
            den = math.lcm(*dens)
            live = [
                (at, None, [(k, a * (den // d), b * (den // d), 1) for k, a, b, d in ts])
                for at, _, ts in live
            ]
            nums = [x for _, _, ts in live for _, a, b, _ in ts for x in (a, b)]
        g = math.gcd(*nums)
        common = tuple(map(min, zip(*keys)))
        shift = any(common)
        for at, s, ts in live:
            if shift:
                row[at] = _elem(sig, {
                    tuple(map(_sub, k, common)): _gr(a // g, b // g, 1) for k, a, b, _ in ts
                })
            elif g == 1 and s.__class__ is RingElem:
                row[at] = s  # held, and already in final form
            else:
                row[at] = _elem(sig, {k: _gr(a // g, b // g, 1) for k, a, b, _ in ts})
        cdeg = common[: sig.ncoords]
        witness = _elem(sig, {cdeg + (0,) * sig.nexps: GR_ONE}) if any(cdeg) else None
        return row, witness


def normalize_row(row: list) -> tuple:
    """Divide a row by its rational content and common monomial: each entry
    added at its index, then Accumulator.primitive.  Returns (row, witness)."""
    if not row:
        return row, None
    acc = Accumulator(row[0].sig)
    for k, e in enumerate(row):
        acc.add(e, 1, k)
    return acc.primitive(len(row))


def canonical_factors(f: RingElem) -> tuple:
    """The canonical factors of f: elements whose zero sets on real points
    together make up f's, one text per zero set up to units and constants.

    The exponential generators and the nonzero constants are units, so they
    vanish nowhere.  normalize_row divides f by its rational content, which
    leaves Gaussian-integer coefficients with gcd 1, and by its least
    monomial; the cofactor is that row entry times the one unit among 1, i, -1
    and -i that puts its leading coefficient, at the greatest monomial key, in
    the first quadrant (real part > 0, imaginary part >= 0).  The coordinate
    part x^k of the least monomial vanishes where some x_j with k_j > 0 does,
    so each such x_j is a factor of its own.  Returns those coordinates, in
    coordinate order, then the cofactor unless it is a constant.  So f and
    u * c * m * f have the same cofactor for a unit u, a constant c and a
    monomial m, and the canonical factors of a canonical factor are itself.
    """
    sig, terms = f.sig, f.terms
    if len(terms) < 2:
        return tuple(v for v, k in zip(sig._variables, next(iter(terms))) if k) if terms else ()
    (g,), witness = normalize_row([f])
    out = () if witness is None else tuple(v for v, k in zip(sig._variables, next(iter(witness.terms))) if k)
    lead = g.terms[max(g.terms)]
    a, b = lead._a, lead._b
    if a > 0 and b >= 0:
        return out + (g,)
    # times the unit p + q*i, -i, -1 or i, that turns the leading coefficient
    # into the first quadrant; g's coefficients are over d = 1
    p, q = (0, -1) if a <= 0 < b else (-1, 0) if a < 0 else (0, 1)
    return out + (_elem(sig, {k: _gr(p * c._a - q * c._b, p * c._b + q * c._a, 1) for k, c in g.terms.items()}),)


def coerce_elem(sig: RingSignature, value) -> RingElem:
    """Accept a RingElem, an exact scalar, or parseable text."""
    if isinstance(value, RingElem):
        if value.sig is not sig and value.sig != sig:
            raise SignatureMismatch("ring element from a different signature")
        return value
    if isinstance(value, _SCALARS):
        return sig.const(value)
    if isinstance(value, str):
        return sig.parse(value)
    raise RingError(f"cannot interpret {type(value).__name__} as a ring element")


# -- text syntax -------------------------------------------------------------
#
#   expr   := term (('+' | '-') term)*
#   term   := ['-'] factor (('*' | '/') factor)*
#   factor := atom ['^' ['-'] digits]
#   atom   := digits ['/' digits] | 'i' | name | '(' expr ')'
#
# Multiplication is always explicit.  '/' admits exact rationals and unit
# (Laurent-monomial) divisors only.  'i' is rejected for rational-mode rings.
# Input budgets: '^' takes exponents up to MAX_EXPONENT in absolute value, no
# value built while reading (sums, products, the squares inside a power) may
# exceed MAX_TERMS terms, a literal has at most MAX_LITERAL_DIGITS digits and
# parentheses nest at most MAX_NESTING deep (the parser recurses once per
# level); a breach is a ParseError at the operator, literal or '('.  io reads
# the rationals of a document under the same MAX_LITERAL_DIGITS.
#
# One pattern reads a token after any whitespace; its group says which: digits
# (_NUMW when a word character follows), a word, + - * / ^ ( ), another
# character or the end.  \d, \w and \s are str.isdecimal, isalnum-or-'_' and
# isspace, for non-ASCII text too; digits run as far as str.isdigit goes, so
# a run that a digit such as '²' continues cannot be read by int().

MAX_EXPONENT = 64
MAX_TERMS = 200
MAX_LITERAL_DIGITS = 4300
MAX_NESTING = 100

_TOKENS = re.compile(r"\s*(?:(\d+)(?=(\w)?)|(\w+)|(\+)|(-)|(\*)|(/)|(\^)|(\()|(\))|(\S)|(\Z))")
_NUM, _NUMW, _WORD, _PLUS, _MINUS, _TIMES, _DIV, _POW, _OPEN, _CLOSE, _OTHER, _END = range(1, 13)
_TOO_LONG = f"expression exceeds the limit of {MAX_TERMS} terms"
_TOO_DEEP = f"parentheses nest deeper than the limit of {MAX_NESTING}"


def _at(m) -> int:
    g = m.lastindex
    return m.start(_NUM if g == _NUMW else g)


def _literal(m, what: str):
    """The int of the digit run at token m, or None when m starts none."""
    g = m.lastindex
    if g == _NUM or g == _NUMW and not m[2].isdigit():
        if len(m[1]) <= MAX_LITERAL_DIGITS:
            try:
                return int(m[1])
            except ValueError:  # a lower integer-conversion limit of the runtime
                pass
    elif g != _NUMW and not (g == _WORD and m[3][0].isdigit()):
        return None
    raise ParseError(f"{what} has too many digits", _at(m))


def _budget(value: RingElem, at: int) -> RingElem:
    if len(value.terms) > MAX_TERMS:
        raise ParseError(_TOO_LONG, at)
    return value


def _raw_elem(sig: RingSignature, terms: dict) -> RingElem:
    """The element of the parser's raw terms key -> [a, b, d], all nonzero."""
    terms = {key: _reduced(a, b, d) for key, (a, b, d) in terms.items()}
    return _elem(sig, terms) if terms else sig.zero()


def _read(sig: RingSignature, nxt, depth: int):
    """Read an expr from the tokens nxt() returns: its terms, key -> [a, b, d]
    nonzero, and the token after it.  A product of atoms is one triple
    (a + b*i)/d and one exponent list; a parenthesised sum, or a power other
    than of a name, is a RingElem factor sub.  Each term goes into one dict,
    and each coefficient is reduced once, when the caller builds the element."""
    index, terms, sign = sig._index, {}, 1
    g = (m := nxt()).lastindex
    while True:
        while g == _MINUS:
            sign, g = -sign, (m := nxt()).lastindex
        a, b, d, key, poly, op = sign, 0, 1, [0] * len(index), None, None
        while True:
            # a factor: (p + q*i)/r times generator j to the e, or sub
            p, q, r, j, e, sub, ahead = 1, 0, 1, -1, 1, None, None
            if g == _WORD and (w := m[3]) in index:
                j, g = index[w], (m := nxt()).lastindex
            elif g == _WORD and w == "i" and sig.mode != "rational":
                p, q, g = 0, 1, (m := nxt()).lastindex
            elif g == _NUM or g == _NUMW:
                p, num = _literal(m, "number"), m
                g = (m := nxt()).lastindex
                if g == _DIV and (r := _literal(ahead := nxt(), "denominator")):
                    g, ahead = (m := nxt()).lastindex, None
                elif r == 0:
                    raise ParseError("zero denominator", num.end())
                r = r or 1
            elif g == _OPEN:
                if depth == MAX_NESTING:
                    raise ParseError(_TOO_DEEP, m.start(g))
                sub, m = _read(sig, nxt, depth + 1)
                if m.lastindex != _CLOSE:
                    raise ParseError("expected ')'", _at(m))
                sub, g = _raw_elem(sig, sub), (m := nxt()).lastindex
            elif g == _WORD and w == "i":
                raise ParseError("imaginary unit not allowed in a rational ring", m.start(g))
            elif g == _WORD and (w[0].isalpha() or w[0] == "_"):
                raise ParseError(f"unknown name {w!r}", m.start(g))
            else:
                _literal(m, "number")  # raises on a digit such as '²'
                raise ParseError("expected a number, name or '('", _at(m))
            if g == _POW:
                at, g = m.start(g), (m := nxt()).lastindex
                m = nxt() if g == _MINUS else m
                n = _literal(m, "exponent")
                if n is None:
                    raise ParseError("expected exponent", _at(m))
                n, g = -n if g == _MINUS else n, (m := nxt()).lastindex
                if abs(n) > MAX_EXPONENT:
                    raise ParseError(f"exponent {n} exceeds the limit of {MAX_EXPONENT}", at)
                if j >= sig.ncoords or j >= 0 <= n:
                    e = n
                else:  # numbers, i, sums and coordinates to negative powers
                    base = sub if sub is not None else (
                        sig._generator(j) if j >= 0 else sig.const(_reduced(p, q, r)))
                    try:
                        sub = _power(base, n, lambda v: _budget(v, at))
                    except RingError as exc:  # no unit to invert, or the budget's error at '^'
                        raise ParseError(getattr(exc, "message", str(exc)), at) from None
                    p, q, r, j = 1, 0, 1, -1
            if op == _DIV:  # by a unit, one term with no coordinate part: times its inverse
                nc = sig.ncoords
                if sub is not None and len(sub.terms) == 1 and not any(next(iter(sub.terms))[:nc]):
                    ((k, c),) = sub.terms.items()
                    p, q, r, key, sub = c._a, c._b, c._d, list(map(_sub, key, k)), None
                if sub is not None or not (p or q) or 0 <= j < nc and e:
                    raise ParseError("division only by rationals or units", _at(opm))
                p, q, r, e = r * p, -r * q, p * p + q * q, -e
            if sub is None:
                if q:
                    a, b = a * p - b * q, a * q + b * p
                elif p != 1:
                    a, b = a * p, b * p
                d *= r
                if j >= 0:
                    key[j] += e
            elif poly is None:
                poly = sub
            elif a or b:
                poly = _budget(poly * sub, _at(opm))
            if g != _TIMES and g != _DIV:
                break
            # a '/' the rational literal did not take has its divisor read already
            op, opm, g = g, m, (m := ahead or nxt()).lastindex
        if a or b:
            if poly is None:
                _file(terms, tuple(key), a, b, d)
            else:
                for k, c in poly.terms.items():
                    p, q = c._a, c._b
                    _file(terms, tuple(map(_add, k, key)), a * p - b * q, a * q + b * p, d * c._d)
            if len(terms) > MAX_TERMS:  # a first term has at most MAX_TERMS
                raise ParseError(_TOO_LONG, _at(sum_op))
        if g != _PLUS and g != _MINUS:
            return terms, m
        sign, sum_op, g = 1 if g == _PLUS else -1, m, (m := nxt()).lastindex


def _file(terms: dict, key: tuple, a: int, b: int, d: int) -> None:
    """Add (a + b*i)/d at key; a key whose sum is zero leaves the dict."""
    s = terms.get(key)
    if s is None:
        terms[key] = [a, b, d]
    elif s[2] == d:
        s[0], s[1] = s[0] + a, s[1] + b
    else:
        s[0], s[1], s[2] = s[0] * d + a * s[2], s[1] * d + b * s[2], s[2] * d
    if s is not None and not (s[0] or s[1]):
        del terms[key]
