"""Deterministic sampling for verification sweeps.

A fixed splitmix64 stream keeps reports byte-identical across platforms and
interpreter versions; the standard library generator makes no such promise
across versions, and reproducibility of the emitted reports is part of the
contract here.
"""

from __future__ import annotations

from fractions import Fraction

from .ring import GaussRat, RingElem, RingSignature

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

    def fraction(self, max_num: int = 3, max_den: int = 2) -> Fraction:
        return Fraction(self.randint(-max_num, max_num), self.randint(1, max_den))

    def gauss(self, complex_ok: bool = False) -> GaussRat:
        re = self.fraction()
        im = self.fraction() if complex_ok and self.randint(0, 2) == 0 else Fraction(0)
        return GaussRat(re, im)

    def ring_elem(
        self,
        sig: RingSignature,
        max_degree: int = 2,
        terms: int = 2,
        complex_ok: bool = False,
    ) -> RingElem:
        """Small sparse polynomial (unit exponential factors allowed)."""
        out = sig.zero()
        for _ in range(terms):
            cpow = [0] * sig.ncoords
            budget = self.randint(0, max_degree)
            for _ in range(budget):
                if sig.ncoords:
                    cpow[self.randint(0, sig.ncoords - 1)] += 1
            epow = tuple(
                self.randint(-1, 1) if self.randint(0, 3) == 0 else 0
                for _ in range(sig.nexps)
            )
            coeff = self.gauss(complex_ok)
            if coeff.is_zero():
                continue
            out = out + sig.monomial(cpow, epow, coeff)
        return out

    def coeff_vector(self, sig: RingSignature, n: int, **kw) -> list:
        return [self.ring_elem(sig, **kw) for _ in range(n)]
