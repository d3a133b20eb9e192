"""SplitMix.ring_elem drawn with Fraction coefficients and checked RingElem sums, as an oracle.

Each term draws its coordinate exponents, its exponential exponents and then
its coefficient from the stream in that order; the coefficient is
Fraction(a, d) plus, when complex_ok and one draw in three says so, a
Fraction imaginary part; the terms are summed with RingElem addition.
`courantkit.sampling` builds the same terms from ints; the two must draw the
same elements and leave the stream in the same state.
"""

from fractions import Fraction

from courantkit.ring import GaussRat


def _fraction(rng) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 2))


def fraction_ring_elem(rng, sig, max_degree=2, terms=2, complex_ok=False):
    out = sig.zero()
    for _ in range(terms):
        cpow = [0] * sig.ncoords
        for _ in range(rng.randint(0, max_degree)):
            if sig.ncoords:
                cpow[rng.randint(0, sig.ncoords - 1)] += 1
        epow = tuple(
            rng.randint(-1, 1) if rng.randint(0, 3) == 0 else 0 for _ in range(sig.nexps)
        )
        re = _fraction(rng)
        im = _fraction(rng) if complex_ok and rng.randint(0, 2) == 0 else Fraction(0)
        coeff = GaussRat(re, im)
        if coeff.is_zero():
            continue
        out = out + sig.monomial(cpow, epow, coeff)
    return out
