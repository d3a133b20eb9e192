"""Ranks of polynomial matrices at rational points, by Fraction elimination.

The generic rank verdicts of `linalg` hold off the zero set of the factors a
report lists as `excluded`.  These helpers pick seeded rational points off that
set and rank the matrix there with plain Fraction arithmetic, sharing no code
with the program's elimination.  A matrix over Q(i) is ranked through its real
form [[A, -B], [B, A]], whose rank is twice that of A + iB.

A point gives one value per coordinate and then one nonzero value per
exponential generator.  The ring's arithmetic treats an exponential generator
as a formal unit, so an identity the elimination makes is one of Laurent
polynomials in both kinds of generator, and holds wherever the exponential
generators take nonzero values, tied to the coordinates or not.
"""

from fractions import Fraction

from ce_oracle import _rank as fraction_rank
from courantkit.sampling import SplitMix


def value(elem, point) -> tuple:
    """(re, im) of a ring element at a rational point, summed term by term."""
    re = im = Fraction(0)
    for key, c in elem.terms.items():
        if len(key) != len(point):
            raise ValueError("a point gives one value per generator")
        m = Fraction(1)
        for x, k in zip(point, key):
            m *= x**k
        re += c.re * m
        im += c.im * m
    return re, im


def field_rank(rows, point) -> int:
    """Rank over Q(i) of a polynomial matrix at a point, by Fraction elimination."""
    vals = [[value(c, point) for c in row] for row in rows]
    real = [[v[0] for v in row] + [-v[1] for v in row] for row in vals]
    real += [[v[1] for v in row] + [v[0] for v in row] for row in vals]
    rk = fraction_rank(real)
    assert rk % 2 == 0
    return rk // 2


def points(sig, excluded, seed: int, count: int = 2) -> list:
    """Seeded rational points at which no excluded factor vanishes."""
    factors = [sig.parse(e) for e in excluded]
    rng = SplitMix(seed)
    out = []
    while len(out) < count:
        pt = [Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(sig.ncoords)]
        pt += [Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 7)) for _ in sig.exps]
        if all(value(f, pt) != (0, 0) for f in factors):
            out.append(pt)
    return out
