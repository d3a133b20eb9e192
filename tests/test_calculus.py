"""The two one-step kernels of ring.Accumulator against the term-by-term oracle.

add_derivation is checked against sums of v_j * df/dx_j built with
RingElem arithmetic from tests/calculus_oracle.py, on every kind of slot it
can land on; primitive and normalize_row against the content-and-monomial
division of the same module.  The program's derivatives all go through
add_derivation, so no default command calls RingElem.partial.
"""

import contextlib
import io as _stdio
import json
import math
from fractions import Fraction

import pytest

from courantkit import catalog, cli, io
from courantkit.ring import (
    Accumulator,
    ExpGen,
    RingElem,
    RingSignature,
    SignatureMismatch,
    normalize_row,
)
from courantkit.sampling import SplitMix

from calculus_oracle import content_normalize_row, termwise_derivation, termwise_partial

# Q(i) with two exponential generators, one of them constant along x
GSIG = RingSignature(
    ("x", "y"),
    (ExpGen("E", (Fraction(3, 4), Fraction(-2, 3))), ExpGen("F", (Fraction(0), Fraction(5)))),
)
# Q with one exponential generator and three coordinates
RSIG = RingSignature(("x", "y", "z"), (ExpGen("Et", (Fraction(1), Fraction(0), Fraction(-1, 2))),),
                     mode="rational")
PLAIN = RingSignature(("x", "y"), mode="rational")
RINGS = ((GSIG, True), (RSIG, False), (PLAIN, False))


def _elem(rng, sig, complex_ok, terms=3):
    """A drawn element, a third of the time zero, sometimes scaled by a fraction."""
    if rng.randint(0, 2) == 0:
        return sig.zero()
    e = rng.ring_elem(sig, max_degree=3, terms=terms, complex_ok=complex_ok)
    if rng.randint(0, 2) == 0:
        e = e * Fraction(rng.randint(1, 9), rng.randint(1, 8))
    return e


def _assert_canonical(e, sig):
    assert e.__class__ is RingElem and e.sig == sig
    for c in e.terms.values():
        assert c._d > 0 and math.gcd(c._a, c._b, c._d) == 1 and (c._a or c._b)


def test_add_derivation_matches_the_termwise_derivation():
    # each slot kind: empty, holding an element, and raw
    rng = SplitMix(181)
    kinds = {"empty": 0, "held": 0, "raw": 0}
    for sig, complex_ok in RINGS:
        for _ in range(120):
            v = [_elem(rng, sig, complex_ok, 2) for _ in range(sig.ncoords)]
            f = _elem(rng, sig, complex_ok)
            sign = rng.choice((1, -1, 2, -3))
            at = rng.choice((0, 3, "s", (1, 2)))
            kind = rng.choice(tuple(kinds))
            acc, before = Accumulator(sig), sig.zero()
            acc.add(_elem(rng, sig, complex_ok), 1, "other")
            other = acc.elem("other")
            if kind == "held":
                before = rng.ring_elem(sig, terms=2, complex_ok=complex_ok)
                acc.add(before, 1, at)
            elif kind == "raw":
                x, y = _elem(rng, sig, complex_ok, 2), _elem(rng, sig, complex_ok, 2)
                acc.add_product(x, y, -1, at)
                before = -(x * y)
            kinds[kind] += 1
            acc.add_derivation(v, f, sign, at)
            want = before + termwise_derivation(v, f) * sign
            got = acc.elem(at)
            assert got == want, (sig, v, f, sign, kind)
            _assert_canonical(got, sig)
            assert acc.elem("other") == other
    assert min(kinds.values()) > 80


def test_derivation_and_partial_match_the_oracle():
    rng = SplitMix(182)
    for sig, complex_ok in RINGS:
        for _ in range(60):
            f = _elem(rng, sig, complex_ok)
            v = [_elem(rng, sig, complex_ok, 2) for _ in range(sig.ncoords)]
            acc = Accumulator(sig)
            acc.add_derivation(v, f)
            assert acc.elem() == termwise_derivation(v, f)
            for var in sig.coords:
                got = f.partial(var)
                assert got == termwise_partial(f, var)
                _assert_canonical(got, sig)


def test_add_derivation_refuses_other_signatures_even_when_empty():
    acc = Accumulator(GSIG)
    other = RingSignature(("x", "z"))
    v = [GSIG.one(), GSIG.zero()]
    with pytest.raises(SignatureMismatch):
        acc.add_derivation(v, other.coord("x"))
    with pytest.raises(SignatureMismatch):
        acc.add_derivation(v, other.zero())
    with pytest.raises(SignatureMismatch):
        acc.add_derivation([GSIG.one(), other.zero()], GSIG.coord("x"))
    # a constant, or a zero vector, adds nothing and reaches no slot
    acc.add_derivation(v, GSIG.const(3), 1, "c")
    acc.add_derivation([GSIG.zero()] * 2, GSIG.coord("x"), 1, "z")
    assert acc.elems() == {}


def _row(rng, sig, complex_ok, n):
    """An Accumulator whose slots 0..n-1 were reached by adds, products and
    derivations, some cancelling, and slots past n that primitive must ignore."""
    acc = Accumulator(sig)
    for k in range(n + 1):
        for _ in range(rng.randint(0, 2)):
            op = rng.randint(0, 3)
            x = _elem(rng, sig, complex_ok)
            if op == 0:
                acc.add(x, rng.choice((1, -1)), k)
            elif op == 1:
                acc.add_product(x, _elem(rng, sig, complex_ok, 2), rng.choice((1, -2)), k)
            elif op == 2:
                acc.add_derivation([_elem(rng, sig, complex_ok, 1) for _ in sig.coords], x, 1, k)
            else:  # a sum that cancels exactly
                acc.add(x, 1, k)
                acc.add(x, -1, k)
    return acc


def test_primitive_and_normalize_row_match_content_normalization():
    rng = SplitMix(183)
    stripped = witnessed = 0
    for sig, complex_ok in RINGS:
        for _ in range(150):
            n = rng.randint(1, 5)
            acc = _row(rng, sig, complex_ok, n)
            sums = acc.vector(n)
            want, witness = content_normalize_row(sums)
            got, got_witness = acc.primitive(n)
            assert got == want and got_witness == witness
            assert normalize_row(sums) == (want, witness)
            assert acc.vector(n) == sums  # reading changes no slot
            for e in got:
                _assert_canonical(e, sig)
                assert all(c._d == 1 for c in e.terms.values())
            live = [c for e in got for c in e.terms.values()]
            if live:
                assert math.gcd(*(p for c in live for p in (c._a, c._b))) == 1
                stripped += got != sums
                witnessed += witness is not None
    assert stripped > 100 and witnessed > 30


def test_primitive_of_an_empty_row_and_of_a_row_in_final_form():
    acc = Accumulator(GSIG)
    assert acc.primitive(3) == ([GSIG.zero()] * 3, None)
    x, y = GSIG.parse("2*x + i*y"), GSIG.parse("3*E - 1")
    acc.add(x, 1, 0)
    acc.add(y, 1, 2)
    row, witness = acc.primitive(3)
    assert row[0] is x and row[1].is_zero() and row[2] is y and witness is None
    assert normalize_row([]) == ([], None)
    assert normalize_row([GSIG.zero()]) == ([GSIG.zero()], None)


def _cli(argv) -> tuple:
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _counting(monkeypatch, cls, name) -> list:
    calls = []
    real = getattr(cls, name)

    def wrapped(self, *args):
        calls.append(None)
        return real(self, *args)

    monkeypatch.setattr(cls, name, wrapped)
    return calls


def test_no_command_calls_partial(monkeypatch, tmp_path):
    # every derivative of verify, check-jacobi and check-dirac is summed by
    # Accumulator.add_derivation; none builds a partial derivative element
    path = tmp_path / "contact-r3.json"
    path.write_text(json.dumps(io.definition_to_json(catalog.load("contact-r3"))))
    C = catalog.load("cr-control-r5")["courant"]
    derivations = _counting(monkeypatch, Accumulator, "add_derivation")
    partials = _counting(monkeypatch, RingElem, "partial")
    assert C.verify()["ok"]
    for command in ("check-jacobi", "check-dirac"):
        code, out = _cli([command, "--defs", str(path)])
        assert code == 0 and json.loads(out)["ok"]
    assert len(derivations) > 1000 and partials == []
