"""Independent exact arithmetic for the benchmark's known answers.

Nothing here imports courantkit.  Polynomials are sparse maps from exponent
tuples (coordinates first, then exponential generators, whose exponents may be
negative) to Gaussian rationals built on ``fractions.Fraction``.  The module
writes ring expressions in the program's grammar, reads the expressions the
program reports, evaluates them at rational points and eliminates plain
matrices of Gaussian rationals, so each verdict can be confirmed without
trusting the code under test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


class OracleError(ValueError):
    pass


class GQ:
    """Gaussian rational re + im*i with Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        o = _gq(o)
        return GQ(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = _gq(o)
        return GQ(self.re - o.re, self.im - o.im)

    def __rsub__(self, o):
        return _gq(o) - self

    def __neg__(self):
        return GQ(-self.re, -self.im)

    def __mul__(self, o):
        o = _gq(o)
        return GQ(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return GQ(self.re / n, -self.im / n)

    def conj(self):
        return GQ(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, o):
        o = _gq(o)
        return self.re == o.re and self.im == o.im

    def __repr__(self):
        return f"GQ({self.re}, {self.im})"


def _gq(x) -> GQ:
    return x if isinstance(x, GQ) else GQ(x)


def frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class Ring:
    """Coordinate names plus exponential generators ``(name, rates)``.

    A generator E with rates (c_1..c_n) satisfies dE/dx_j = c_j * E.
    """

    def __init__(self, coords, exps=()):
        self.coords = tuple(coords)
        self.exps = tuple((name, tuple(Fraction(c) for c in row)) for name, row in exps)
        for _, row in self.exps:
            if len(row) != len(self.coords):
                raise OracleError("rate row length must match the coordinates")
        self.names = self.coords + tuple(name for name, _ in self.exps)
        self.nvars = len(self.names)

    def zero(self) -> "Poly":
        return Poly(self, {})

    def const(self, c) -> "Poly":
        c = _gq(c)
        return Poly(self, {(0,) * self.nvars: c} if c else {})

    def var(self, name: str, power: int = 1) -> "Poly":
        k = self.names.index(name)
        if power < 0 and k < len(self.coords):
            raise OracleError("coordinates take no negative powers")
        mono = tuple(power if j == k else 0 for j in range(self.nvars))
        return Poly(self, {mono: GQ(1)})

    def json_doc(self, mode: str) -> dict:
        doc = {"coords": list(self.coords), "mode": mode}
        if self.exps:
            doc["exps"] = [
                {"name": name, "row": [frac_text(c) for c in row]} for name, row in self.exps
            ]
        return doc

    def parse(self, text: str) -> "Poly":
        return _Parser(self, text).run()


class Poly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}

    def _lift(self, o) -> "Poly":
        return o if isinstance(o, Poly) else self.ring.const(o)

    def __add__(self, o):
        o = self._lift(o)
        out = dict(self.terms)
        for m, c in o.terms.items():
            out[m] = out[m] + c if m in out else c
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, o):
        return self + (-self._lift(o))

    def __rsub__(self, o):
        return self._lift(o) - self

    def __mul__(self, o):
        o = self._lift(o)
        out: dict = {}
        for m1, a in self.terms.items():
            for m2, b in o.terms.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                out[m] = out[m] + a * b if m in out else a * b
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = self.ring.const(1)
        for _ in range(n):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, o):
        return isinstance(o, Poly) and (self - o).is_zero()

    def conj(self) -> "Poly":
        return Poly(self.ring, {m: c.conj() for m, c in self.terms.items()})

    def has_exps(self) -> bool:
        n = len(self.ring.coords)
        return any(any(m[n:]) for m in self.terms)

    def partial(self, j: int) -> "Poly":
        """d/dx_j, with the exponential rule dE/dx_j = rate_j * E."""
        n = len(self.ring.coords)
        out: dict = {}

        def put(m, c):
            if c:
                out[m] = out[m] + c if m in out else c

        for m, c in self.terms.items():
            if m[j]:
                put(m[:j] + (m[j] - 1,) + m[j + 1:], c * m[j])
            for k, (_, row) in enumerate(self.ring.exps):
                if m[n + k] and row[j]:
                    put(m, c * (m[n + k] * row[j]))
        return Poly(self.ring, out)

    def evaluate(self, point) -> GQ:
        """Value at a rational point; exponential generators have no rational value."""
        if self.has_exps():
            raise OracleError("cannot evaluate an exponential generator at a rational point")
        total = GQ(0)
        for m, c in self.terms.items():
            v = Fraction(1)
            for x, e in zip(point, m):
                if e:
                    v *= Fraction(x) ** e
            total = total + c * v
        return total

    def to_str(self) -> str:
        """The element in the program's expression grammar."""
        if not self.terms:
            return "0"
        chunks = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.ring.names, m)
                if e
            )
            if c.im == 0:
                sign = "-" if c.re < 0 else "+"
                coef = frac_text(abs(c.re))
            else:
                sign = "+"
                re = frac_text(c.re)
                im = frac_text(abs(c.im))
                coef = f"({re} {'-' if c.im < 0 else '+'} {im}*i)"
            if mono and coef == "1":
                body = mono
            elif mono:
                body = f"{coef}*{mono}"
            else:
                body = coef
            chunks.append((sign, body))
        text = ("-" if chunks[0][0] == "-" else "") + chunks[0][1]
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"Poly({self.to_str()})"


# -- reading the program's expressions -----------------------------------------


class _Parser:
    """expr := term (('+'|'-') term)*;  term := ['-'] factor (('*'|'/') factor)*;
    factor := atom ['^' ['-'] digits];  atom := digits | 'i' | name | '(' expr ')'."""

    def __init__(self, ring: Ring, text: str):
        self.ring = ring
        self.text = text
        self.pos = 0

    def run(self) -> Poly:
        value = self.expr()
        if self.peek():
            raise OracleError(f"trailing text in {self.text!r}")
        return value

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> Poly:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Poly:
        negate = False
        while self.peek() == "-":
            self.pos += 1
            negate = not negate
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.factor()
            value = value * rhs if op == "*" else value * _unit_inverse(rhs)
        return -value if negate else value

    def factor(self) -> Poly:
        value = self.atom()
        if self.peek() == "^":
            self.pos += 1
            negative = self.peek() == "-"
            if negative:
                self.pos += 1
            n = self.digits()
            value = _unit_inverse(value) ** n if negative else value**n
        return value

    def digits(self) -> int:
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise OracleError(f"expected digits in {self.text!r}")
        return int(self.text[start:self.pos])

    def atom(self) -> Poly:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.expr()
            if self.peek() != ")":
                raise OracleError(f"unbalanced parenthesis in {self.text!r}")
            self.pos += 1
            return value
        if ch.isdigit():
            return self.ring.const(self.digits())
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        name = self.text[start:self.pos]
        if name == "i":
            return self.ring.const(GQ(0, 1))
        if name in self.ring.names:
            return self.ring.var(name)
        raise OracleError(f"unknown name {name!r} in {self.text!r}")


def _unit_inverse(p: Poly) -> Poly:
    n = len(p.ring.coords)
    if len(p.terms) != 1:
        raise OracleError("division by a non-unit")
    (m, c), = p.terms.items()
    if any(m[:n]):
        raise OracleError("division by a coordinate monomial")
    return Poly(p.ring, {tuple(-e for e in m): c.inverse()})


# -- differential forms in coordinates ----------------------------------------


def d_form(ring: Ring, comps: dict, degree: int) -> dict:
    """Exterior derivative of a coordinate form {increasing index tuple: Poly}.

    (dw)_J = sum_m (-1)^m d/dx_{J_m} w_{J without J_m}.
    """
    n = len(ring.coords)
    out = {}
    for J in combinations(range(n), degree + 1):
        acc = ring.zero()
        for m, j in enumerate(J):
            w = comps.get(J[:m] + J[m + 1:])
            if w is not None:
                dw = w.partial(j)
                acc = acc + dw if m % 2 == 0 else acc - dw
        if not acc.is_zero():
            out[J] = acc
    return out


def is_closed(ring: Ring, comps: dict, degree: int, rank: int | None = None) -> bool:
    """Closedness on the coordinate frame; forms of top degree on a rank-r frame are closed."""
    if rank is not None and degree >= rank:
        return True
    return not d_form(ring, comps, degree)


def det3(m) -> Poly:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def helicity(ring: Ring, v) -> Poly:
    """v . curl v on R^3: the single component of [Pi, Pi] for the bivector of v."""
    d = [[v[a].partial(b) for b in range(3)] for a in range(3)]
    curl = [d[2][1] - d[1][2], d[0][2] - d[2][0], d[1][0] - d[0][1]]
    return v[0] * curl[0] + v[1] * curl[1] + v[2] * curl[2]


# -- elimination over the Gaussian rationals -------------------------------------


def rank(rows) -> int:
    """Rank of a matrix of Gaussian rationals by plain Gauss elimination."""
    m = [[_gq(x) for x in row] for row in rows]
    if not m:
        return 0
    r = 0
    ncols = len(m[0])
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][col].inverse()
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def unipotent_lower_inverse(ring: Ring, L) -> list:
    """Inverse of a lower-triangular matrix with unit diagonal, exactly in the ring."""
    n = len(L)
    inv = [[ring.const(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            acc = ring.zero()
            for k in range(j, i):
                acc = acc + L[i][k] * inv[k][j]
            inv[i][j] = -acc
    return inv


def mat_mul(ring: Ring, A, B) -> list:
    return [
        [sum((A[i][k] * B[k][j] for k in range(len(B))), ring.zero()) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def transpose(A) -> list:
    return [list(col) for col in zip(*A)]
