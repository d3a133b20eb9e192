"""Deterministic sampling for verification sweeps.

A fixed splitmix64 stream keeps reports byte-identical across platforms and
interpreter versions; the standard library generator makes no such promise
across versions, and reproducibility of the emitted reports is part of the
contract here.
"""

from __future__ import annotations

from .ring import RingElem, RingSignature, _accumulate, _elem, _reduced

_MASK = (1 << 64) - 1


class SplitMix:
    """splitmix64: tiny, seedable, stable across platforms."""

    __slots__ = ("state",)

    def __init__(self, seed: int = 0):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform on [lo, hi] (rejection-free modulo bias is irrelevant here)."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        if not seq:
            raise ValueError("choice from empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def ring_elem(
        self,
        sig: RingSignature,
        max_degree: int = 2,
        terms: int = 2,
        complex_ok: bool = False,
    ) -> RingElem:
        """Small sparse polynomial (unit exponential factors allowed).

        Each drawn term is a coefficient (a/d + (b/e)*i), a in [-3, 3] and d in
        [1, 2], with an imaginary part only when complex_ok and one draw in
        three says so, on a monomial of coordinate degree up to max_degree.
        Terms on one monomial are summed; a zero coefficient is skipped.
        """
        out: dict = {}
        for _ in range(terms):
            key = [0] * len(sig.names)
            budget = self.randint(0, max_degree)
            for _ in range(budget):
                if sig.ncoords:
                    key[self.randint(0, sig.ncoords - 1)] += 1
            for m in range(sig.ncoords, len(key)):
                key[m] = self.randint(-1, 1) if self.randint(0, 3) == 0 else 0
            a, d = self.randint(-3, 3), self.randint(1, 2)
            b, e = 0, 1
            if complex_ok and self.randint(0, 2) == 0:
                b, e = self.randint(-3, 3), self.randint(1, 2)
            if a or b:
                _accumulate(out, tuple(key), _reduced(a * e, b * d, d * e))
        return _elem(sig, out) if out else sig.zero()

    def coeff_vector(self, sig: RingSignature, n: int, **kw) -> list:
        return [self.ring_elem(sig, **kw) for _ in range(n)]
