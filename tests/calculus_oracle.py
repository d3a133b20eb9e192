"""Partial derivatives and row normalisation term by term, as an oracle.

`termwise_partial` differentiates one term at a time and files each
coefficient, reduced to a canonical GaussRat, into a term map; a derivation
is then a RingElem sum of products v_j * df/dx_j.  `content_normalize_row`
finds a row's rational content as the gcd of the canonical numerators over
the lcm of the canonical denominators, and multiplies each coefficient by its
inverse.  `courantkit.ring` does both in one step from raw integer triples
(`Accumulator.add_derivation` and `Accumulator.primitive`); the two must
agree on every input.
"""

import math
from operator import sub

from courantkit.ring import GR_ONE, GaussRat, RingElem


def _file(terms: dict, key, c: GaussRat) -> None:
    s = terms.get(key)
    s = c if s is None else s + c
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


def termwise_partial(f: RingElem, var: str) -> RingElem:
    """df/dvar: each exponent times the term, and each exponential generator's
    exponent times its rate along var times the term at its own key."""
    sig = f.sig
    j = sig.coord_index(var)
    out: dict = {}
    for key, c in f.terms.items():
        d = key[j]
        if d:
            _file(out, key[:j] + (d - 1,) + key[j + 1 :], c * d)
        for m, e in enumerate(sig.exps):
            n = key[sig.ncoords + m]
            if n and e.row[j]:
                _file(out, key, c * GaussRat(n * e.row[j]))
    return RingElem(sig, out)


def termwise_derivation(v, f: RingElem) -> RingElem:
    """sum_j v[j] * df/dx_j with RingElem arithmetic."""
    out = f.sig.zero()
    for vj, name in zip(v, f.sig.coords):
        out = out + vj * termwise_partial(f, name)
    return out


def content_normalize_row(row: list) -> tuple:
    """(row divided by its rational content and common monomial, witness)."""
    live = [e for e in row if e.terms]
    if not live:
        return row, None
    sig = live[0].sig
    common = tuple(map(min, zip(*(k for e in live for k in e.terms))))
    num, den = 0, 1
    for e in live:
        for c in e.terms.values():
            num = math.gcd(num, c._a, c._b)
            den = math.lcm(den, c._d)
    inv = GaussRat(den) / GaussRat(num)
    out = [RingElem(sig, {tuple(map(sub, k, common)): c * inv for k, c in e.terms.items()}) for e in row]
    cdeg = common[: sig.ncoords]
    witness = RingElem(sig, {cdeg + (0,) * sig.nexps: GR_ONE}) if any(cdeg) else None
    return out, witness
