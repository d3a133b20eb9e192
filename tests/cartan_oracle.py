"""The Courant bracket from the Cartan formula, as an oracle for the tensor path.

    [[X+xi, Y+eta]] = [X,Y] + L_X eta - i_Y d xi + i_X i_Y H

built from the public `Algebroid.bracket`, `Algebroid.lie`, `Algebroid.d`
and `contract`.  `CourantPresentation.bracket` expands over the frame
structure tensor instead; the two agree for every presentation, whether or
not it satisfies the axioms.
"""

from fractions import Fraction
from itertools import combinations

from courantkit.algebroid import Algebroid
from courantkit.courant import CourantPresentation, CSection
from courantkit.exterior import AForm, contract
from courantkit.ring import ExpGen, RingSignature
from courantkit.sampling import SplitMix


def cartan_bracket(C, e1, e2):
    alg = C.alg
    x = alg.bracket(e1.x, e2.x)
    xi = alg.lie(e1.x, e2.xi)
    xi = xi - contract(e2.x, alg.d(e1.xi))
    xi = xi + contract(e1.x, contract(e2.x, C.twist))
    return CSection(alg, x, xi)


def sparse(section) -> dict:
    """Coordinates of a section as {index: nonzero entry}, the format of a tensor row."""
    return {k: c for k, c in enumerate(section.coordinates()) if not c.is_zero()}


def tensor_mismatches(C, tensor) -> list:
    """Frame pairs (a, b) where tensor[a][b] differs from the oracle's [[E_a, E_b]].

    A pair absent from tensor[a] stands for a zero bracket.
    """
    frame = C.full_frame()
    return [
        (a, b)
        for a, ea in enumerate(frame)
        for b, eb in enumerate(frame)
        if tensor[a].get(b, {}) != sparse(cartan_bracket(C, ea, eb))
    ]


# -- random presentations that need not satisfy any axiom -------------------------

# Q(i) with one exponential generator E, dE/dx = E and dE/dy = -E/2.
SIG = RingSignature(("x", "y"), (ExpGen("E", (Fraction(1), Fraction(-1, 2))),))


def _elem(rng, sig):
    return rng.ring_elem(sig, max_degree=1, terms=2, complex_ok=True)


def random_presentation(seed: int, rank: int, rank_v: int = 2):
    """Function-valued anchor, structure functions, Theta and twist, all drawn at random."""
    rng = SplitMix(seed)
    el = lambda: _elem(rng, SIG)  # noqa: E731
    anchor = [[el() for _ in SIG.coords] for _ in range(rank)]
    structure = {
        (i, j): [el() for _ in range(rank)] for i in range(rank) for j in range(i + 1, rank)
    }
    theta = [[[el() for _ in range(rank_v)] for _ in range(rank_v)] for _ in range(rank)]
    alg = Algebroid(SIG, rank, rank_v, anchor, structure, theta)
    twist = {
        I: tuple(el() for _ in range(rank_v)) for I in combinations(range(rank), 3)
    }
    H = AForm(SIG, rank, rank_v, 3, twist)
    return CourantPresentation(alg, H, allow_nonclosed=True)


def random_section(rng, C):
    """Every coordinate drawn, about a third of them zero."""
    n = C.alg.rank * (1 + C.alg.rank_v)
    return CSection.from_coordinates(
        C.alg,
        [C.alg.sig.zero() if rng.randint(0, 2) == 0 else _elem(rng, C.alg.sig) for _ in range(n)],
    )
