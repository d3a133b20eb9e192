"""Property test: the tensor bracket equals the Cartan formula on drawn sections.

Over `e1m-r3`, whose extra leg acts on the module (Theta != 0),
`cr-control-r5`, the largest catalog frame, and a random presentation with
function-valued anchor, structure functions and Theta over Q(i) with an
exponential generator, which fails `validate`.  hypothesis is a test-only
dependency; without it this module is skipped.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from cartan_oracle import cartan_bracket, random_presentation  # noqa: E402
from courantkit import catalog  # noqa: E402
from courantkit.courant import CSection  # noqa: E402
from courantkit.ring import GaussRat, RingElem  # noqa: E402

PRESENTATIONS = {name: catalog.load(name)["courant"] for name in ("e1m-r3", "cr-control-r5")}
PRESENTATIONS["random-r3"] = random_presentation(1, 3)

parts = st.one_of(st.just(0), st.integers(-6, 6), st.fractions(-4, 4, max_denominator=5))
scalars = st.builds(GaussRat, parts, parts)


def sections(C):
    sig, n = C.alg.sig, C.alg.rank * (1 + C.alg.rank_v)
    keys = st.tuples(*[st.integers(0, 2)] * sig.ncoords, *[st.integers(-1, 1)] * sig.nexps)
    elems = st.dictionaries(keys, scalars, max_size=2).map(lambda t: RingElem(sig, t))
    return st.lists(elems, min_size=n, max_size=n).map(
        lambda coords: CSection.from_coordinates(C.alg, coords)
    )


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_tensor_bracket_equals_cartan_formula(name):
    C = PRESENTATIONS[name]

    @settings(max_examples=40, deadline=None)
    @given(sections(C), sections(C))
    def check(e1, e2):
        assert C.bracket(e1, e2).equals(cartan_bracket(C, e1, e2))

    check()
