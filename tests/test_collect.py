"""`_Alternating.collect`, the one sum behind every alternating object.

collect is checked against a reference that sums each item with plain
`RingElem` + and * into a table, multi-index -> slot -> RingElem, and builds
the result with the checked constructors.  The kernel pins show that no sum
made inside collect goes through `RingElem.__add__` or `RingElem.__mul__`.
"""

from itertools import combinations

from courantkit import catalog
from courantkit.exterior import (
    AForm,
    FForm,
    FScalar,
    Multivector,
    _Alternating,
    aform_to_fform,
    breve_contract,
    contract,
    iota,
    wedge,
)
from courantkit.ring import RingElem
from courantkit.sampling import SplitMix
from courantkit.schouten import schouten

from cartan_oracle import SIG
from schouten_oracle import mixed_multivector


def _pairs(c):
    """(slot, RingElem) pairs of a coefficient: module component or grade."""
    return c.parts.items() if isinstance(c, FScalar) else enumerate(c)


def reference_collect(template, degree, items):
    """sign * x * y summed item by item with RingElem + and *, slots s1 + s2."""
    sig = template.sig
    table = {}
    for K, sign, x, y in items:
        row = table.setdefault(K, {})
        for s1, e1 in _pairs(x):
            for s2, e2 in [(0, sig.one())] if y is None else _pairs(y):
                p = e1 * e2
                row[s1 + s2] = row.get(s1 + s2, sig.zero()) + (p if sign > 0 else -p)
    if isinstance(template, AForm):
        terms = {
            K: tuple(row.get(b, sig.zero()) for b in range(template.rank_v))
            for K, row in table.items()
        }
        return AForm(sig, template.rank, template.rank_v, degree, terms)
    terms = {K: FScalar(sig, row) for K, row in table.items()}
    return type(template)(sig, template.rank, degree, terms)


def _items(rng, rank, degree, draw_x, draw_y):
    """Items on a pool of a few indices, with an exactly cancelling pair now and then."""
    pool = list(combinations(range(rank), degree))[:3]
    out = []
    for _ in range(rng.randint(4, 12)):
        K, sign = rng.choice(pool), rng.choice((1, -1))
        x, y = draw_x(), draw_y()
        out.append((K, sign, x, y))
        if rng.randint(0, 3) == 0:
            out.append((K, -sign, x, y))
    return out


def _agrees(template, degree, items):
    got = template.collect(degree, items)
    assert got.equals(reference_collect(template, degree, items))
    assert type(got) is type(template) and got.degree == degree
    # canonical: no index with a zero coefficient, no zero part
    for c in got.terms.values():
        parts = [e for _, e in _pairs(c)]
        assert any(e.terms for e in parts)
        if isinstance(c, FScalar):
            assert all(e.terms for e in parts)
    return got


def test_collect_equals_the_reference_on_module_valued_forms():
    # rank_v = 2 over Q(i) with an exponential generator: module vectors times
    # scalars on either side, and module vectors alone
    rng = SplitMix(211)
    rank, rank_v = 3, 2
    el = lambda: rng.ring_elem(SIG, max_degree=1, terms=2, complex_ok=True)  # noqa: E731
    vec = lambda: (el(), el())  # noqa: E731
    scal = lambda: (el(),)  # noqa: E731
    module = AForm.zero(SIG, rank, rank_v, 0)
    nonzero = 0
    for _ in range(67):
        degree = rng.randint(0, rank)
        for template, draw_x, draw_y in (
            (module, vec, scal),
            (module, scal, vec),
            (module, vec, lambda: None),
        ):
            got = _agrees(template, degree, _items(rng, rank, degree, draw_x, draw_y))
            nonzero += not got.is_zero()
    assert nonzero > 150


def test_collect_equals_the_reference_on_graded_forms_and_multivectors():
    alg = catalog.load("e1m-r3")["algebroid"]
    rng = SplitMix(223)

    def mixed():
        # two or three distinct grades from -2..2, two-term Q(i) parts
        pool, parts = [-2, -1, 0, 1, 2], {}
        for _ in range(rng.randint(2, 3)):
            g = pool.pop(rng.randint(0, len(pool) - 1))
            parts[g] = rng.ring_elem(alg.sig, max_degree=1, terms=2, complex_ok=True)
        return FScalar(alg.sig, parts)

    nonzero = 0
    for _ in range(40):
        degree = rng.randint(0, alg.rank)
        for template in (FForm.zero(alg.sig, alg.rank, 0), Multivector.zero(alg.sig, alg.rank, 0)):
            for draw_y in (mixed, lambda: None):
                got = _agrees(template, degree, _items(rng, alg.rank, degree, mixed, draw_y))
                nonzero += not got.is_zero()
    assert nonzero > 100


def _catalog_calls(monkeypatch):
    """Counts of RingElem + and * made inside collect, and of collect calls."""
    counts = {"add": 0, "mul": 0, "collect": 0}
    depth = [0]
    real_collect = _Alternating.collect
    real_add, real_mul = RingElem.__add__, RingElem.__mul__

    def collect(self, *args):
        counts["collect"] += 1
        depth[0] += 1
        try:
            return real_collect(self, *args)
        finally:
            depth[0] -= 1

    def add(self, other):
        counts["add"] += depth[0] > 0
        return real_add(self, other)

    def mul(self, other):
        counts["mul"] += depth[0] > 0
        return real_mul(self, other)

    monkeypatch.setattr(_Alternating, "collect", collect)
    monkeypatch.setattr(RingElem, "__add__", add)
    monkeypatch.setattr(RingElem, "__mul__", mul)
    return counts


def test_collect_makes_no_ring_sum_or_product_on_catalog_entries(monkeypatch):
    # d, contract and lie on module-valued forms of every catalog algebroid;
    # d_graded, wedge, iota, breve_contract and schouten on the rank-one ones,
    # where a plain scalar form is a grade-0 FForm
    rng = SplitMix(227)
    inputs = []
    for name in catalog.names():
        alg = catalog.load(name)["algebroid"]
        el = lambda: rng.ring_elem(alg.sig, max_degree=2, terms=3)  # noqa: E731

        def form(degree, alg=alg, el=el):
            terms = {
                I: tuple(el() for _ in range(alg.rank_v))
                for I in combinations(range(alg.rank), degree)
            }
            return AForm(alg.sig, alg.rank, alg.rank_v, degree, terms)

        X = [el() for _ in range(alg.rank)]
        s1 = FForm(alg.sig, alg.rank, 1, {(i,): FScalar.of(el()) for i in range(alg.rank)})
        inputs.append((alg, X, form(1), form(min(2, alg.rank)), s1))
    counts = _catalog_calls(monkeypatch)
    ops = nonzero = 0
    for alg, X, w1, w2, s1 in inputs:
        calls = [
            lambda: alg.d(w1), lambda: alg.d(w2),
            lambda: contract(X, w1), lambda: contract(X, w2),
            lambda: alg.lie(X, w2),
        ]
        if alg.rank_v == 1:
            P = mixed_multivector(rng, alg, min(2, alg.rank))
            Q = mixed_multivector(rng, alg, 1)
            f = FForm(alg.sig, alg.rank, 1, mixed_multivector(rng, alg, 1).terms)
            calls += [
                lambda: alg.d_graded(s1), lambda: wedge(s1, aform_to_fform(w1)),
                lambda: wedge(aform_to_fform(w2), s1),
                lambda: alg.d_graded(f), lambda: wedge(P, Q), lambda: iota(Q, f),
                lambda: breve_contract(f, P), lambda: schouten(alg, P, Q),
                lambda: schouten(alg, P, P),
            ]
        for call in calls:
            before = counts["collect"]
            nonzero += not call().is_zero()
            assert counts["collect"] > before  # every operation sums in collect
            ops += 1
    assert ops > 200 and nonzero > 150
    assert (counts["add"], counts["mul"]) == (0, 0)
