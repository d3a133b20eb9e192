"""The character-level ring-text parser, kept as an oracle for `RingSignature.parse`.

It reads the grammar of `courantkit.ring` one character at a time, with
`str.isspace`, `str.isdigit` and `str.isalnum` deciding what a space, a digit
and a name are, and builds a RingElem for every atom, product and sum with the
checked ring arithmetic.  `RingSignature.parse` reads tokens and builds each
product of atoms from integers; on every text the two give the same element,
or a ParseError with the same message and position.
"""

from fractions import Fraction

from courantkit.ring import (
    GR_I,
    MAX_EXPONENT,
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    MAX_TERMS,
    ParseError,
    RingElem,
    RingError,
    RingSignature,
    _power,
)


def parse(sig: RingSignature, text: str) -> RingElem:
    return _Parser(sig, text).run()


class _Parser:
    def __init__(self, sig: RingSignature, text: str):
        self.sig = sig
        self.text = text
        self.pos = 0
        self.depth = 0

    def run(self) -> RingElem:
        value = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected character {self.text[self.pos]!r}", self.pos)
        return value

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> RingElem:
        value = self.term()
        while True:
            ch = self.peek()
            at = self.pos
            if ch == "+":
                self.pos += 1
                value = self.budget(value + self.term(), at)
            elif ch == "-":
                self.pos += 1
                value = self.budget(value - self.term(), at)
            else:
                return value

    def term(self) -> RingElem:
        negate = False
        while self.peek() == "-":
            self.pos += 1
            negate = not negate
        value = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                at = self.pos
                self.pos += 1
                value = self.budget(value * self.factor(), at)
            elif ch == "/":
                at = self.pos
                self.pos += 1
                rhs = self.factor()
                try:
                    value = value / rhs
                except RingError:
                    raise ParseError("division only by rationals or units", at) from None
            else:
                break
        return -value if negate else value

    def factor(self) -> RingElem:
        value = self.atom()
        if self.peek() == "^":
            at = self.pos
            self.pos += 1
            n = self.signed_int()
            if abs(n) > MAX_EXPONENT:
                raise ParseError(f"exponent {n} exceeds the limit of {MAX_EXPONENT}", at)
            try:
                value = _power(value, n, lambda e: self.budget(e, at))
            except ParseError:
                raise
            except RingError as exc:
                raise ParseError(str(exc), at) from None
        return value

    def budget(self, value: RingElem, at: int) -> RingElem:
        if len(value.terms) > MAX_TERMS:
            raise ParseError(f"expression exceeds the limit of {MAX_TERMS} terms", at)
        return value

    def signed_int(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.digits("exponent")
        return -digits if self.text[start] == "-" else digits

    def digits(self, what: str) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"expected {what}", start)
        if self.pos - start <= MAX_LITERAL_DIGITS:
            try:
                return int(self.text[start : self.pos])
            except ValueError:  # a lower integer-conversion limit of the runtime
                pass
        raise ParseError(f"{what} has too many digits", start)

    def atom(self) -> RingElem:
        ch = self.peek()
        at = self.pos
        if ch == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than the limit of {MAX_NESTING}", at)
            self.depth += 1
            self.pos += 1
            value = self.expr()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            self.depth -= 1
            return value
        if ch.isdigit():
            num = self.digits("number")
            save = self.pos
            if self.peek() == "/":
                self.pos += 1
                if self.peek().isdigit():
                    den = self.digits("denominator")
                    if den == 0:
                        raise ParseError("zero denominator", save)
                    return self.sig.const(Fraction(num, den))
                self.pos = save  # a '/' belonging to the enclosing term
            return self.sig.const(num)
        if ch.isalpha() or ch == "_":
            name = self.name()
            if name == "i":
                if self.sig.mode == "rational":
                    raise ParseError("imaginary unit not allowed in a rational ring", at)
                return self.sig.const(GR_I)
            try:
                return self.sig.coord(name)
            except RingError:
                pass
            try:
                return self.sig.exp_gen(name)
            except RingError:
                raise ParseError(f"unknown name {name!r}", at) from None
        raise ParseError("expected a number, name or '('", at)

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]
