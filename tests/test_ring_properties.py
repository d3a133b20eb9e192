"""Property tests: the field axioms of GaussRat, the commutative-ring axioms
plus the Leibniz rule of partial for RingElem, the Accumulator against
RingElem sums and products, add_derivation and primitive against the
term-by-term oracle (tests/calculus_oracle.py), and parse as the inverse of
to_str, on small random elements.

hypothesis is a test-only dependency; without it this module is skipped.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from courantkit.ring import (  # noqa: E402
    Accumulator,
    ExpGen,
    GaussRat,
    RingElem,
    RingSignature,
    normalize_row,
)

from calculus_oracle import (  # noqa: E402
    content_normalize_row,
    termwise_derivation,
    termwise_partial,
)

SIG = RingSignature(("x", "y"), (ExpGen("Et", (Fraction(0), Fraction(-2, 3))),))
ZERO, ONE = GaussRat(0), GaussRat(1)

parts = st.one_of(
    st.just(0),
    st.integers(-40, 40),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)
scalars = st.builds(GaussRat, parts, parts)
keys = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2))
elements = st.dictionaries(keys, scalars, max_size=3).map(lambda t: RingElem(SIG, t))

properties = settings(max_examples=60, deadline=None)


def _canonical(e: RingElem) -> bool:
    return all(e.terms.values())


@properties
@given(scalars, scalars, scalars)
def test_gauss_rat_field_axioms(a, b, c):
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a
    assert a + (-a) == ZERO and a - b == a + (-b)
    if a:
        assert a * a.inverse() == ONE and (b / a) * a == b
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@properties
@given(elements, elements, elements)
def test_ring_elem_commutative_ring_axioms(a, b, c):
    zero, one = SIG.zero(), SIG.one()
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and zero + a == a and a * one == a
    assert (a * zero).is_zero() and (zero * a).is_zero()
    assert (a - a).is_zero() and a - b == a + (-b)
    for e in (a + b, a - b, a * b, a * c + b):
        assert _canonical(e)


@properties
@given(elements, elements)
def test_partial_is_a_derivation(a, b):
    for var in SIG.coords:
        assert (a * b).partial(var) == a.partial(var) * b + a * b.partial(var)
        assert (a + b).partial(var) == a.partial(var) + b.partial(var)
        assert _canonical((a * b).partial(var))


@properties
@given(
    st.lists(
        st.tuples(elements, elements, st.sampled_from((1, -1)), st.booleans(), st.integers(0, 2)),
        max_size=8,
    )
)
def test_accumulator_is_the_ring_sum_of_its_products(ops):
    # slot by slot, in one Accumulator
    acc, want, reached = Accumulator(SIG), {}, []
    for x, y, sign, product, at in ops:
        if product:
            acc.add_product(x, y, sign, at)
            term = x * y
        else:
            acc.add(x, sign, at)
            term = x
        if term.terms and at not in reached:
            reached.append(at)
        old = want.get(at, SIG.zero())
        want[at] = old + term if sign > 0 else old - term
    for at in range(4):
        got = acc.elem(at)
        assert got == want.get(at, SIG.zero()) and _canonical(got)
        assert all(c == GaussRat(c.re, c.im) and c._d > 0 for c in got.terms.values())
    assert acc.vector(4) == [want.get(at, SIG.zero()) for at in range(4)]
    assert list(acc.elems().items()) == [(at, want[at]) for at in reached if want[at]]


@properties
@given(
    st.lists(elements, min_size=2, max_size=2),
    elements,
    st.integers(-3, 3),
    st.sampled_from(("empty", "held", "raw")),
    elements,
)
def test_add_derivation_is_the_termwise_derivation(v, f, sign, kind, before):
    # on an empty, a held and a raw slot
    acc = Accumulator(SIG)
    if kind == "held":
        acc.add(before, 1, "s")
    elif kind == "raw":
        acc.add_product(SIG.one(), before, 1, "s")
    else:
        before = SIG.zero()
    acc.add_derivation(v, f, sign, "s")
    got = acc.elem("s")
    assert got == before + termwise_derivation(v, f) * sign and _canonical(got)
    for var in SIG.coords:
        assert f.partial(var) == termwise_partial(f, var)


@properties
@given(st.lists(st.tuples(elements, elements), min_size=1, max_size=4))
def test_primitive_is_the_content_normalization(pairs):
    # each entry x + x*y, summed raw where y is nonzero and held otherwise
    acc = Accumulator(SIG)
    for k, (x, y) in enumerate(pairs):
        acc.add(x, 1, k)
        acc.add_product(x, y, 1, k)
    sums = acc.vector(len(pairs))
    want = content_normalize_row(sums)
    assert acc.primitive(len(pairs)) == want
    assert normalize_row(sums) == want


@properties
@given(elements)
def test_parse_reads_back_what_to_str_writes(e):
    assert SIG.parse(e.to_str()) == e
