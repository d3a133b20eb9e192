import math
import random
import sys
from fractions import Fraction

import pytest

from courantkit.ring import (
    Accumulator,
    ExpGen,
    GaussRat,
    ParseError,
    RingElem,
    RingError,
    RingSignature,
    SignatureMismatch,
    normalize_row,
)
from courantkit.sampling import SplitMix

from sampling_oracle import fraction_ring_elem


SIG = RingSignature(("x", "y"), (ExpGen("Et", (Fraction(0), Fraction(1))),))


def test_gauss_rat_field_ops():
    a = GaussRat(Fraction(1, 2), Fraction(-3))
    b = GaussRat(Fraction(2), Fraction(1, 5))
    assert (a * b) * a.inverse() == b * (a * a.inverse())
    assert a * a.inverse() == GaussRat(1, 0)
    assert (a + b) - b == a
    assert a.conjugate().conjugate() == a
    # |a|^2 = a * conj(a) is real
    assert (a * a.conjugate()).im == 0


def test_constants_and_generators():
    one = SIG.one()
    x = SIG.coord("x")
    u = SIG.exp_gen("Et")
    assert one.is_constant() and one.terms == {(0, 0, 0): GaussRat(1, 0)}
    assert not x.is_constant()
    assert (x * SIG.zero()).is_zero()
    assert u.partial("y") == u  # derivative row (0, 1)
    assert u.partial("x").is_zero()


def test_arithmetic_random_laws():
    rng = SplitMix(11)
    for _ in range(60):
        a = rng.ring_elem(SIG, max_degree=2, terms=3, complex_ok=True)
        b = rng.ring_elem(SIG, max_degree=2, terms=3, complex_ok=True)
        c = rng.ring_elem(SIG, max_degree=1, terms=2, complex_ok=True)
        assert (a + b) == b + a
        assert (a * b) == b * a
        assert (a + b) * c == a * c + b * c
        assert (a - a).is_zero()


def test_partial_is_a_derivation():
    rng = SplitMix(5)
    for _ in range(40):
        a = rng.ring_elem(SIG, max_degree=2, terms=3)
        b = rng.ring_elem(SIG, max_degree=2, terms=3)
        for var in ("x", "y"):
            lhs = (a * b).partial(var)
            rhs = a.partial(var) * b + a * b.partial(var)
            assert lhs == rhs


def test_partials_commute_with_exponentials():
    # mixed partials agree even through the exponential generator
    rng = SplitMix(9)
    for _ in range(30):
        a = rng.ring_elem(SIG, max_degree=3, terms=4)
        assert a.partial("x").partial("y") == a.partial("y").partial("x")


def test_conjugate_is_ring_involution():
    rng = SplitMix(2)
    for _ in range(30):
        a = rng.ring_elem(SIG, max_degree=2, terms=3, complex_ok=True)
        b = rng.ring_elem(SIG, max_degree=2, terms=3, complex_ok=True)
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_exact_div():
    x, y = SIG.coord("x"), SIG.coord("y")
    u = SIG.exp_gen("Et")
    f = (x + y) * (x * x - y * u) * SIG.const(Fraction(3, 7))
    g = x + y
    q = f.exact_div(g)
    assert q is not None and q * g == f
    assert (x * x + SIG.one()).exact_div(x + y) is None
    with pytest.raises(ZeroDivisionError):
        f.exact_div(SIG.zero())


def test_exact_div_round_trip_gaussian_laurent():
    rng = SplitMix(41)
    u = SIG.exp_gen("Et")
    checked = 0
    for k in range(40):
        f = rng.ring_elem(SIG, max_degree=3, terms=4, complex_ok=True)
        g = rng.ring_elem(SIG, max_degree=2, terms=3, complex_ok=True) * u ** (k % 5 - 2)
        if g.is_zero():
            continue
        assert (f * g).exact_div(g) == f
        if len(g.terms) > 1:
            # g is no unit, so it cannot divide f*g + 1
            assert (f * g + SIG.one()).exact_div(g) is None
        checked += 1
    assert checked >= 30
    # a Laurent quotient with negative exponential and i in the coefficients
    x = SIG.coord("x")
    g = x * u + SIG.const(GaussRat(0, 1))
    q = SIG.parse("(2-i)*x^2*Et^-3 + 1/3*y")
    assert (q * g).exact_div(g) == q


def test_exact_div_by_a_unit_is_the_division_loop():
    # a unit g, c * Et^n, divides by one product with g.unit_inverse(); the
    # quotient equals the division loop's on seeded Gaussian elements,
    # Laurent in Et
    rng = SplitMix(43)
    u = SIG.exp_gen("Et")
    seen = {"gaussian": 0, "laurent": 0}
    for k in range(60):
        f = rng.ring_elem(SIG, max_degree=3, terms=4, complex_ok=True) * u ** (k % 3 - 1)
        c = GaussRat(Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 6)), rng.randint(-2, 2))
        g = SIG.monomial((0, 0), (k % 7 - 3,), c)
        q = f.exact_div(g)
        assert q == f._divide(g)
        assert q * g == f
        seen["gaussian"] += bool(c._b)
        seen["laurent"] += any(key[-1] < 0 for key in g.terms)
    assert seen["gaussian"] >= 10 and seen["laurent"] >= 10, seen
    assert SIG.zero().exact_div(u) == SIG.zero()


def test_parse_budgets():
    from courantkit.ring import MAX_EXPONENT, MAX_TERMS

    x, y = SIG.coord("x"), SIG.coord("y")
    assert SIG.parse(f"x^{MAX_EXPONENT}") == x ** MAX_EXPONENT
    assert SIG.parse(f"Et^-{MAX_EXPONENT}") == SIG.exp_gen("Et") ** -MAX_EXPONENT
    for text in (f"x^{MAX_EXPONENT + 1}", f"(x+1)^-{MAX_EXPONENT + 1}"):
        with pytest.raises(ParseError, match="exponent"):
            SIG.parse(text)
    monos = [f"x^{a}*y^{b}" for a in range(MAX_EXPONENT) for b in range(MAX_EXPONENT)]
    at_limit = " + ".join(monos[:MAX_TERMS])
    assert len(SIG.parse(at_limit).terms) == MAX_TERMS
    with pytest.raises(ParseError, match="terms"):
        SIG.parse(f"{at_limit} + {monos[MAX_TERMS]}")
    with pytest.raises(ParseError, match="too many digits"):
        SIG.parse("1" * 5000 + "*x")
    # intermediate squares count too, and powers equal repeated products
    with pytest.raises(ParseError, match="terms"):
        SIG.parse("(x+y+1)^30")
    p = x + y * SIG.exp_gen("Et") + SIG.one()
    acc = SIG.one()
    for n in range(8):
        assert SIG.parse(f"(x+y*Et+1)^{n}") == acc == p**n
        acc = acc * p


def test_parenthesis_nesting_budget():
    from courantkit.ring import MAX_NESTING

    x = SIG.coord("x")
    assert SIG.parse("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == x
    # nesting that closes before the next group opens does not add up
    assert SIG.parse(" + ".join(["(" * MAX_NESTING + "x" + ")" * MAX_NESTING] * 3)) == 3 * x
    for depth, lead in ((MAX_NESTING + 1, "1 + "), (400, ""), (20000, "x*")):
        with pytest.raises(ParseError, match="nest deeper") as ex:
            SIG.parse(lead + "(" * depth + "x" + ")" * depth)
        # the error sits at the first '(' beyond the budget
        assert ex.value.pos == len(lead) + MAX_NESTING


def test_literal_digit_budget_does_not_follow_the_runtime_limit():
    from courantkit.ring import MAX_LITERAL_DIGITS

    assert SIG.parse("1" * MAX_LITERAL_DIGITS) == SIG.const(int("1" * MAX_LITERAL_DIGITS))
    with pytest.raises(ParseError, match="too many digits"):
        SIG.parse("1" * (MAX_LITERAL_DIGITS + 1))
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # no runtime limit: the budget still holds
    try:
        with pytest.raises(ParseError, match="too many digits"):
            SIG.parse("1" * (MAX_LITERAL_DIGITS + 1))
        sys.set_int_max_str_digits(640)  # a lower runtime limit is a parse error too
        with pytest.raises(ParseError, match="too many digits"):
            SIG.parse("1" * 1000)
    finally:
        sys.set_int_max_str_digits(old)


def test_parse_round_trip_random():
    rng = SplitMix(31)
    for _ in range(80):
        a = rng.ring_elem(SIG, max_degree=3, terms=4, complex_ok=True)
        assert SIG.parse(a.to_str()) == a


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        SIG.parse("x + * y")
    assert "position 4" in str(e.value)
    with pytest.raises(ParseError):
        SIG.parse("x + q")  # unknown name
    with pytest.raises(ParseError):
        SIG.parse("(x + y")  # unbalanced


def test_rational_mode_rejects_imaginary():
    rat = RingSignature(("x",), (), mode="rational")
    with pytest.raises(ParseError):
        rat.parse("i*x")
    # gaussian mode accepts it
    gau = RingSignature(("x",))
    assert [c.im for c in gau.parse("i*x").terms.values()] == [1]


def test_signature_name_rules():
    with pytest.raises(RingError):
        RingSignature(("x", "x"))
    with pytest.raises(RingError):
        RingSignature(("i",))
    with pytest.raises(RingError):
        RingSignature(("x",), (ExpGen("E", (Fraction(1), Fraction(0))),))  # row too long
    # a name is one whole word as the parser reads it, starting with a letter or _
    for bad in ("x-y", "x y", " x", "x ", "2x", "²", "x*y", "", "x(", "E^2"):
        with pytest.raises(RingError, match="invalid generator name"):
            RingSignature((bad, "y"))
        with pytest.raises(RingError, match="invalid generator name"):
            RingSignature(("y",), (ExpGen(bad, (Fraction(1),)),))
    for good in ("x²", "_t", "éa", "x_1", "Et"):
        sig = RingSignature((good, "y"))
        assert sig.parse(f"2*{good}*y") == sig.coord(good) * sig.coord("y") * 2


def test_signature_mismatch():
    other = RingSignature(("z",))
    with pytest.raises(SignatureMismatch):
        SIG.coord("x") + other.coord("z")


def test_mode_excluded_from_equality():
    # real and complexified views of the same generators interoperate
    a = RingSignature(("x",), (), mode="rational")
    b = RingSignature(("x",), (), mode="gaussian")
    assert a == b
    assert a.coord("x") + b.coord("x") == b.const(2) * a.coord("x")


# -- the monomial format and the helpers that keep it inside the ring ------------


def test_checked_constructor_rejects_malformed_keys():
    assert RingElem(SIG, {(1, 2, -1): Fraction(1, 2), (0, 0, 0): 0}) == SIG.parse("1/2*x*y^2*Et^-1")
    with pytest.raises(RingError):
        RingElem(SIG, {(1, 0): 1})  # wrong arity
    with pytest.raises(RingError):
        RingElem(SIG, {((1, 0), (0,)): 1})  # a (coordinates, exponentials) pair
    with pytest.raises(RingError):
        RingElem(SIG, {(-1, 0, 0): 1})  # negative coordinate exponent
    with pytest.raises(RingError):
        RingElem(SIG, {(0, 0, 0): 0.5})  # inexact coefficient


def test_signature_monomial():
    assert SIG.monomial((1, 2)) == SIG.parse("x*y^2")
    assert SIG.monomial([0, 1], (-1,), GaussRat(0, 2)) == SIG.parse("2*i*y*Et^-1")
    with pytest.raises(RingError):
        SIG.monomial((1,))


def test_embed_round_trip_and_missing_generator():
    row_t, row_y = (Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1), Fraction(0))
    big = RingSignature(("t", "y", "x"), (ExpGen("F", row_t), ExpGen("Et", row_y)))
    rng = SplitMix(7)
    for _ in range(20):
        a = rng.ring_elem(SIG, max_degree=3, terms=4, complex_ok=True)
        up = a.embed(big)
        assert up == big.parse(a.to_str())
        assert up.embed(SIG) == a
    with pytest.raises(RingError):
        (big.coord("x") * big.coord("t")).embed(SIG)
    with pytest.raises(RingError):
        SIG.exp_gen("Et").embed(RingSignature(("x", "y")))
    assert SIG.coord("x").embed(RingSignature(("x", "y"))) == RingSignature(("x", "y")).coord("x")


def test_normalize_row_strips_content_and_common_monomial():
    row = [
        SIG.parse("(3/2+3/4*i)*x^2*y*Et^-1"),
        SIG.parse("9/4*x^3*Et"),
        SIG.zero(),
        SIG.parse("3/8*i*x^2*y^2*Et^-1"),
    ]
    out, witness = normalize_row(row)
    assert out == [SIG.parse("(4+2*i)*y"), SIG.parse("6*x*Et^2"), SIG.zero(), SIG.parse("i*y^2")]
    assert witness == SIG.parse("x^2")
    # the stripped factor times the normalised row gives the row back
    factor = SIG.parse("3/8*x^2*Et^-1")
    assert [factor * e for e in out] == row
    # an exponential common factor is stripped but cannot vanish: no witness
    out, witness = normalize_row([SIG.parse("x*Et"), SIG.parse("y*Et^2")])
    assert out == [SIG.parse("x"), SIG.parse("y*Et")] and witness is None
    # already normal rows come back unchanged
    row = [SIG.parse("x + 2"), SIG.parse("3*i*y")]
    assert normalize_row(row) == (row, None)
    assert normalize_row([SIG.zero()]) == ([SIG.zero()], None)


# -- the scalar: Gaussian rationals as canonical integer triples -----------------


def _draw_part(rng):
    """A zero, an integer or a small fraction."""
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-10**6, 10**6)
    return Fraction(rng.randint(-12, 12), rng.randint(1, 12))


def _assert_canonical(g, re, im):
    """g is (re + im*i) as the triple (a + b*i)/d with d > 0 and gcd(a, b, d) = 1."""
    a, b, d = g._a, g._b, g._d
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (g.re, g.im) == (re, im)
    # equal values have equal triples and equal hashes, however they were built
    fresh = GaussRat(re, im)
    assert g == fresh and (a, b, d) == (fresh._a, fresh._b, fresh._d)
    assert hash(g) == hash(fresh)


def test_gauss_rat_matches_a_fraction_pair_reference():
    rng = random.Random(8)
    checked = 0
    for _ in range(400):
        p = (Fraction(_draw_part(rng)), Fraction(_draw_part(rng)))
        q = (Fraction(_draw_part(rng)), Fraction(_draw_part(rng)))
        x, y = GaussRat(*p), GaussRat(*q)
        prod = (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])
        cases = [
            (x + y, (p[0] + q[0], p[1] + q[1])),
            (x - y, (p[0] - q[0], p[1] - q[1])),
            (x * y, prod),
            (x.conjugate(), (p[0], -p[1])),
            (-x, (-p[0], -p[1])),
            ((x + y) - y, p),
            (x * p[0] + 0, (p[0] * p[0], p[1] * p[0])),
            (1 - y, (1 - q[0], -q[1])),
        ]
        norm = q[0] * q[0] + q[1] * q[1]
        if norm:
            cases.append((y.inverse(), (q[0] / norm, -q[1] / norm)))
            cases.append(((x * y) / y, p))
            cases.append((x / y, ((p[0] * q[0] + p[1] * q[1]) / norm, (p[1] * q[0] - p[0] * q[1]) / norm)))
        else:
            with pytest.raises(ZeroDivisionError):
                y.inverse()
            with pytest.raises(ZeroDivisionError):
                x / y
        for got, (re, im) in cases:
            _assert_canonical(got, re, im)
            checked += 1
        if not p[1]:
            assert x == p[0] and GaussRat.coerce(p[0]) == x
        assert bool(x) == any(p) and x.is_zero() == (not any(p))
    assert checked >= 2000


def test_gauss_rat_text_and_immutability():
    assert GaussRat(Fraction(-6, 4), Fraction(3, 2)).to_str() == "-3/2+3/2*i"
    assert GaussRat(Fraction(2, 4), -1).to_str() == "1/2-i"
    assert GaussRat(0, Fraction(-1, 3)).to_str() == "-1/3*i"
    assert GaussRat(Fraction(10, 4)).to_str() == "5/2"
    with pytest.raises(AttributeError):
        GaussRat(1).re = Fraction(2)
    with pytest.raises(AttributeError):
        GaussRat(1)._a = 2


def test_zero_operands_match_the_general_sum_and_product():
    rng = SplitMix(17)
    rational = RingSignature(SIG.coords, SIG.exps, mode="rational")
    for _ in range(30):
        x = rng.ring_elem(SIG, max_degree=2, terms=3, complex_ok=True)
        x = x * SIG.exp_gen("Et") ** rng.randint(-2, 2)
        # the general loop's answers, built term by term
        plus = RingElem(SIG, dict(x.terms))
        results = []
        for zero in (SIG.zero(), 0, Fraction(0), GaussRat(0)):
            results += [(x + zero, plus), (x * zero, SIG.zero())]
            if not isinstance(zero, GaussRat):  # GaussRat takes no RingElem operand
                results += [(zero + x, plus), (zero * x, SIG.zero())]
        for got, want in results:
            assert isinstance(got, RingElem) and got.sig is SIG
            assert got == want and got.terms == want.terms
        # an equal signature of another mode keeps the left operand's signature
        zero = rational.zero()
        assert (zero + x).sig is rational and zero + x == plus
        assert (x * zero).sig is SIG and (x * zero).is_zero()


def test_normalize_row_leaves_gaussian_integers_of_content_one():
    rng = random.Random(12)
    for _ in range(150):
        row = [
            sum(
                (
                    SIG.monomial((rng.randint(1, 2), rng.randint(0, 2)), (rng.randint(-1, 1),),
                                 GaussRat(_draw_part(rng), _draw_part(rng)))
                    for _ in range(rng.randint(1, 3))
                ),
                SIG.zero(),
            )
            for _ in range(rng.randint(1, 3))
        ]
        parts = [q for e in row for c in e.terms.values() for q in (c.re, c.im) if q]
        if not parts:
            continue
        out, witness = normalize_row(row)
        # the reference content from the Fraction parts
        content = Fraction(
            math.gcd(*(q.numerator for q in parts)), math.lcm(*(q.denominator for q in parts))
        )
        out_parts = [q for e in out for c in e.terms.values() for q in (c.re, c.im) if q]
        assert all(q.denominator == 1 for q in out_parts)
        assert math.gcd(*(q.numerator for q in out_parts)) == 1
        common = tuple(map(min, zip(*(k for e in row for k in e.terms))))
        factor = RingElem(SIG, {common: content})
        assert [factor * e for e in out] == row
        assert witness == (RingElem(SIG, {common[:2] + (0,): 1}) if any(common[:2]) else None)


def test_gauss_rat_with_a_ring_element_operand_in_both_orders():
    rng = SplitMix(23)
    for _ in range(20):
        x = rng.ring_elem(SIG, max_degree=2, terms=3, complex_ok=True)
        for c in (GaussRat(2), GaussRat(Fraction(-1, 3), 5), GaussRat(0)):
            k = SIG.const(c)
            for got, want in (
                (c + x, k + x), (x + c, x + k),
                (c - x, k - x), (x - c, x - k),
                (c * x, k * x), (x * c, x * k),
            ):
                assert isinstance(got, RingElem) and got.sig is SIG
                assert got == want
    x = SIG.parse("x + i*y")
    assert GaussRat(2) * x == 2 * x == Fraction(2) * x
    assert GaussRat(2) - x == 2 - x
    assert GaussRat.__add__(GaussRat(1), "1") is NotImplemented
    with pytest.raises(TypeError):
        GaussRat(1) + "1"
    with pytest.raises(RingError):  # RingElem has no __rtruediv__
        GaussRat(1) / x


def test_copy_deepcopy_and_pickle_round_trip():
    import copy
    import pickle

    x = SIG.parse("(1/2+i)*x^2*Et^-1 - 3*y + 7")
    scalars = [GaussRat(Fraction(-6, 4), Fraction(3, 2)), GaussRat(0), GaussRat(5)]

    def via_pickle(v):
        return pickle.loads(pickle.dumps(v))

    for clone in (copy.copy, copy.deepcopy, via_pickle):
        for g in scalars:
            h = clone(g)
            assert h.__class__ is GaussRat and h == g and hash(h) == hash(g)
            assert (h._a, h._b, h._d) == (g._a, g._b, g._d)
        y = clone(x)
        assert y.__class__ is RingElem and y == x and y.to_str() == x.to_str()
        if clone is via_pickle:
            # a new signature, equal to the old one and shared by one pickle's elements
            a, b = clone([x, x * x])
            assert a.sig == SIG and a.sig is b.sig and b == x * x
        else:
            assert y.sig is SIG
        with pytest.raises(AttributeError):
            y.terms = {}
    assert copy.deepcopy([x, SIG.zero()])[1].sig is SIG


# -- the accumulator: sums of products reduced once per output term ----------------


def _draw_elem(rng, sig, complex_ok):
    """Up to four terms over sig with denominators from 1 to 12, an exponential
    exponent from -2 to 2 and, when complex_ok, imaginary parts."""
    out = sig.zero()
    for _ in range(rng.randint(0, 4)):
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        im = Fraction(rng.randint(-9, 9), rng.randint(1, 12)) if complex_ok else 0
        out = out + sig.monomial((rng.randint(0, 2), rng.randint(0, 1)), (rng.randint(-2, 2),),
                                 GaussRat(re, im))
    return out


def _assert_canonical_elem(e, sig):
    assert e.__class__ is RingElem and e.sig is sig
    for c in e.terms.values():
        assert c._d > 0 and math.gcd(c._a, c._b, c._d) == 1 and (c._a or c._b)


def test_accumulator_matches_ring_sums_and_products():
    # each slot of one Accumulator is its own RingElem sum
    rng = random.Random(29)
    rational = RingSignature(SIG.coords, SIG.exps, mode="rational")
    cancelled = held = dropped = 0
    for sig, complex_ok in ((rational, False), (SIG, True)):
        empty = Accumulator(sig)
        assert empty.elem().is_zero() and empty.elems() == {}
        assert empty.vector(3) == [sig.zero()] * 3
        _assert_canonical_elem(empty.elem(), sig)
        for _ in range(200):
            acc, want, reached, first = Accumulator(sig), {}, [], {}
            parts = []
            for _ in range(rng.randint(1, 8)):
                at = rng.randrange(4)
                x, y = _draw_elem(rng, sig, complex_ok), _draw_elem(rng, sig, complex_ok)
                sign = rng.choice((1, -1))
                if rng.randrange(3):
                    acc.add_product(x, y, sign, at)
                    term = x * y
                else:
                    acc.add(x, sign, at)
                    term = x
                if term.terms and at not in reached:
                    reached.append(at)
                    first[at] = term is x and sign == 1
                elif term.terms and first[at]:
                    held += 1  # a second term lands on a slot that holds its first
                old = want.get(at, sig.zero())
                want[at] = old + term if sign > 0 else old - term
                parts.append((at, term, -sign))
                if reached and not rng.randrange(5):
                    # cancel a whole slot, which keeps its place
                    at = rng.choice(reached)
                    acc.add(want[at], -1, at)
                    parts.append((at, want[at], 1))
                    want[at] = sig.zero()
            for at in range(5):
                got = acc.elem(at)
                assert got == want.get(at, sig.zero())
                _assert_canonical_elem(got, sig)
            assert acc.vector(5) == [want.get(at, sig.zero()) for at in range(5)]
            assert acc.vector(5)[4] is sig.zero()
            # nonzero slots in first-reached order; a cancelled one is dropped
            assert list(acc.elems().items()) == [(at, want[at]) for at in reached if want[at]]
            dropped += sum(not want[at] for at in reached)
            # the sums go on after elem(); taking back every part cancels them
            for at, term, sign in parts:
                acc.add(term, sign, at)
            assert acc.elems() == {}
            for at in range(5):
                got = acc.elem(at)
                assert got.is_zero() and got.terms == {}
                _assert_canonical_elem(got, sig)
            cancelled += sum(bool(w) for w in want.values())
    assert cancelled > 300 and held > 50 and dropped > 5


def test_accumulator_cancels_term_by_term_and_keeps_its_signature():
    x, y = SIG.parse("1/2*x*Et - 1/3*y"), SIG.parse("(2/3+i)*x + 5/6*Et^-1")
    acc = Accumulator(SIG)
    acc.add_product(x, y)
    acc.add_product(y, x, -1)
    assert acc.elem().is_zero()
    # mixed denominators that cancel only in part
    acc.add(SIG.parse("1/4*x + 1/6*y"))
    acc.add(SIG.parse("-1/4*x + 1/3*y"))
    got = acc.elem()
    assert got == SIG.parse("1/2*y")
    _assert_canonical_elem(got, SIG)
    other = RingSignature(("x", "z"))
    with pytest.raises(SignatureMismatch):
        Accumulator(SIG).add(other.coord("x"))
    with pytest.raises(SignatureMismatch):
        Accumulator(SIG).add_product(x, other.coord("z"))
    # an empty operand adds nothing, but is still checked
    for op in (
        lambda a: a.add(other.zero()),
        lambda a: a.add(other.zero(), -1, 3),
        lambda a: a.add_product(SIG.zero(), other.coord("z"), 1, 2),
        lambda a: a.add_product(other.zero(), x),
        lambda a: a.add_product(x, other.zero(), -1, "slot"),
    ):
        with pytest.raises(SignatureMismatch):
            op(Accumulator(SIG))
    acc = Accumulator(SIG)
    acc.add(SIG.zero(), 1, 1)
    acc.add_product(x, SIG.zero(), 1, 2)
    assert acc.elems() == {} and acc.vector(3) == [SIG.zero()] * 3


def test_accumulator_holds_a_first_element_until_a_second_term_lands():
    x, y = SIG.parse("1/2*x*Et - 1/3*y"), SIG.parse("(2/3+i)*x + 5/6*Et^-1")
    before = dict(x.terms)
    acc = Accumulator(SIG)
    acc.add(x, 1, "a")
    assert acc.elem("a") is x and acc.elems() == {"a": x}
    acc.add_product(y, y, 1, "a")
    acc.add(y, -1, "b")
    assert acc.elem("a") == x + y * y and acc.elem("b") == -y
    assert x.terms == before  # the held element is copied, never changed
    acc.add(x, -1, "a")
    assert acc.elem("a") == y * y
    assert list(acc.elems()) == ["a", "b"]


def test_signature_holds_one_unit_and_add_is_a_product_by_it():
    rng = random.Random(31)
    one = SIG.one()
    assert one is SIG.one()
    assert one == SIG.const(1) and one.terms == {(0, 0, 0): GaussRat(1)}
    for _ in range(50):
        x = _draw_elem(rng, SIG, True)
        sign = rng.choice((1, -1))
        added, product = Accumulator(SIG), Accumulator(SIG)
        added.add(x, sign)
        product.add_product(one, x, sign)
        assert added.elem() == product.elem() == (x if sign > 0 else -x)


def test_partial_multiplies_by_exponents_and_fractional_rates():
    sig = RingSignature(
        ("x", "y"),
        (ExpGen("E", (Fraction(3, 4), Fraction(-2, 3))), ExpGen("F", (Fraction(0), Fraction(5)))),
    )
    f = sig.parse("(1/2+i)*x^3*E^-2*F + 7/5*y*E")
    assert f.partial("x") == sig.parse(
        "(3/2+3*i)*x^2*E^-2*F - (3/4+3/2*i)*x^3*E^-2*F + 21/20*y*E"
    )
    assert f.partial("y") == sig.parse("(19/6+19/3*i)*x^3*E^-2*F + 7/5*E - 14/15*y*E")
    for var in sig.coords:
        _assert_canonical_elem(f.partial(var), sig)


def test_ring_elem_draws_match_the_fraction_oracle():
    # the same elements from the same stream, and the stream left in the same state
    rings = (
        (RingSignature(("x", "y", "z"), mode="rational"), False),
        (RingSignature(("x", "y")), True),
        (SIG, True),
        (RingSignature(("x",), (ExpGen("E", (Fraction(1, 2),)), ExpGen("F", (Fraction(-3),)))), True),
        (RingSignature((), (ExpGen("E", ()),)), False),
    )
    drawn = 0
    for seed in range(12):
        for sig, complex_ok in rings:
            ours, theirs = SplitMix(seed), SplitMix(seed)
            for max_degree, terms in ((2, 2), (3, 4), (0, 3), (1, 1)):
                got = ours.ring_elem(sig, max_degree=max_degree, terms=terms, complex_ok=complex_ok)
                want = fraction_ring_elem(theirs, sig, max_degree, terms, complex_ok)
                assert got == want and ours.state == theirs.state
                _assert_canonical_elem(got, sig)
                drawn += bool(got.terms)
    assert drawn > 200
