"""Module-valued calculus on rank-two modules.

The connection term of u_b f^I is sum_c Theta_i[b][c] u_c; with one module
vector the transposition of Theta cannot show, so these fixtures use rank 2.
"""

from itertools import combinations

import ce_oracle
import pytest
from courantkit.algebroid import Algebroid, AlgebroidError
from courantkit.exterior import AForm
from courantkit.ring import RingSignature
from courantkit.sampling import SplitMix

POINT = RingSignature((), (), mode="rational")


def _mat(sig, rows):
    return [[sig.const(c) for c in row] for row in rows]


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


def _point_algebroid(rank, structure, thetas):
    sig = POINT
    struct = {key: tuple(sig.const(c) for c in vec) for key, vec in structure.items()}
    theta = [_mat(sig, t) for t in thetas]
    return Algebroid(sig, rank, 2, [[] for _ in range(rank)], struct, theta)


def _flat(alg):
    v = alg.validate()
    return v["jacobi_ok"] and v["anchor_ok"] and v["flat_ok"]


def test_sl2_on_its_standard_representation_is_acyclic():
    # [E,F] = H, [E,H] = -2E, [F,H] = 2F acting on Q^2 through the transposed
    # standard matrices; Whitehead's lemma: a nontrivial irreducible module
    # has no cohomology.
    E, F, H = [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]]
    alg = _point_algebroid(
        3,
        {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)},
        [_transpose(E), _transpose(F), _transpose(H)],
    )
    assert _flat(alg)
    assert alg.ce_cohomology() == [0, 0, 0, 0]
    assert ce_oracle.betti(alg) == [0, 0, 0, 0]


def test_abelian2_with_a_jordan_block_leg():
    alg = _point_algebroid(2, {}, [[[0, 1], [0, 0]], [[0, 0], [0, 0]]])
    assert _flat(alg)
    assert alg.ce_cohomology() == [1, 2, 1]
    assert ce_oracle.betti(alg) == [1, 2, 1]
    assert ce_oracle.invariant_dimension(alg) == 1


def test_d_squared_zero_on_rank_two_module_over_the_plane():
    sig = RingSignature(("x", "y"))
    o, z = sig.one(), sig.zero()
    alg = Algebroid(
        sig,
        2,
        2,
        [[o, z], [z, o]],
        {},
        [_mat(sig, [[0, 1], [0, 0]]), _mat(sig, [[2, 1], [0, 2]])],
    )
    assert _flat(alg)
    rng = SplitMix(313)
    nonzero = 0
    for _ in range(10):
        for degree in (0, 1):
            terms = {}
            for I in combinations(range(2), degree):
                vec = tuple(rng.ring_elem(sig, max_degree=2, terms=2) for _ in range(2))
                if any(not c.is_zero() for c in vec):
                    terms[I] = vec
            w = AForm(sig, 2, 2, degree, terms)
            dw = alg.d(w)
            nonzero += not dw.is_zero()
            assert alg.d(dw).is_zero()
    assert nonzero >= 10


def test_d_and_lie_refuse_a_form_of_another_module_rank():
    # Theta_0 sends u_0 to u_1, so a one-wide form read on this module would
    # lose the u_1 component and give d u_0 = 0 and L_{e_0} u_0 = 0: it is
    # refused instead
    alg = _point_algebroid(2, {}, [[[0, 1], [0, 0]], [[0, 0], [0, 0]]])
    one, zero = POINT.one(), POINT.zero()
    u0 = AForm(POINT, 2, 2, 0, {(): (one, zero)})
    assert not alg.d(u0).is_zero() and not alg.lie([one, zero], u0).is_zero()
    narrow = AForm(POINT, 2, 1, 0, {(): (one,)})
    with pytest.raises(AlgebroidError, match="does not live on this algebroid"):
        alg.d(narrow)
    with pytest.raises(AlgebroidError, match="does not live on this algebroid"):
        alg.lie([one, zero], narrow)
