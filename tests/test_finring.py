import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ringlattice import dsl, extension as ex, finring as fr
from ringlattice.checks import doubled_ring
from ringlattice.verify import brute_force_subrings

from oracles import (SMALL_RINGS, assert_ring_axioms, block_subring_unit,
                     span_adjoin, span_subring_closure, unit_scan_decomposition,
                     brute_force_ideals, einsum_from_struct, frontier_join_closure, isin_conductor_pair,
                     isin_ideal_of, isin_subring, largest_common_ideal,
                     loop_is_field, loop_power, loop_subring_unit, small_ring,
                     struct_product_ring)


def test_zmod4_shape():
    R = fr.zmod(4)
    assert R.size == 4
    assert R.orders == (4,)
    assert R.a(3, 2) == 1 and R.m(3, 3) == 1
    assert R.elem_str(3) == "3"


def test_zmod_rejects_degenerate_modulus():
    with pytest.raises(fr.RingError):
        fr.zmod(1)
    with pytest.raises(fr.RingError):
        fr.zmod(0)


def test_size_cap_enforced():
    with pytest.raises(fr.SizeCapError):
        fr.zmod(5000)
    with pytest.raises(fr.SizeCapError):
        fr.zmod(100, size_cap=64)


def test_size_caps_are_checked_before_any_table_is_built(monkeypatch):
    # F2[x]/(x^40) has 2^40 elements and F2 + F2^13 has 2^14: both exceed
    # the cap before a structure array reaches from_struct
    F2 = fr.gf(2)
    monkeypatch.setattr(fr.FiniteRing, "from_struct",
                        lambda *args, **kwargs: pytest.fail("from_struct was called"))
    with pytest.raises(fr.SizeCapError, match="exceeds cap 4096$"):
        fr.quotient_by_relations(F2, [fr.resolve_relation(F2, [((("x", 40),), 1)])])
    with pytest.raises(fr.SizeCapError, match="exceeds cap 4096$"):
        fr.idealization(F2, (2,) * 13)


def test_product_of_two_f2():
    P = fr.product_ring([fr.gf(2), fr.gf(2)])
    assert P.size == 4
    dec = fr.primitive_idempotents(P)
    assert len(dec.idempotents) == 2
    assert sorted(len(m) for m in dec.maximal_ideals) == [2, 2]


def test_zmod6_idempotents_by_scan():
    R = fr.zmod(6)
    # independent scan of e^2 = e (element i of zmod(6) is the integer i)
    expected = sorted(e for e in range(6) if (e * e) % 6 == e and e not in (0, 1))
    assert expected == [3, 4]
    dec = fr.primitive_idempotents(R)
    assert dec.idempotents == [3, 4]
    assert sorted(len(f) for f in dec.factors) == [2, 3]


def test_idealization_is_truncated_polynomial_ring():
    # F2[x,y]/(x,y)^2 built two ways must be isomorphic
    F2 = fr.gf(2)
    A = fr.idealization(F2, (2, 2))
    B = fr.quotient_by_relations(
        F2,
        [fr.resolve_relation(F2, [((("x", 2),), 1)]),
         fr.resolve_relation(F2, [((("y", 2),), 1)]),
         fr.resolve_relation(F2, [((("x", 1), ("y", 1)), 1)])])
    assert A.size == 8 and B.size == 8
    assert fr.rings_isomorphic(A, B)


def test_idealization_rejects_bad_action():
    # action matrix that is not compatible with the ring relations: t^2 = 0
    # but the matrix squares to the identity
    F2 = fr.gf(2)
    Rt = fr.quotient_by_relations(F2, [fr.resolve_relation(F2, [((("t", 2),), 1)])])
    with pytest.raises(fr.RingError, match="action"):
        fr.idealization(Rt, (2,), action={"t": [[1]]})
    # the zero action is fine: t acts as 0 on the module
    ok = fr.idealization(Rt, (2,), action={"t": [[0]]})
    assert ok.size == 8
    # above 512 elements the generator-level check is just as exact: t acts
    # by a matrix A with A^2 != 0 (m1 -> m2 -> m3) on an 8-generator module
    A = np.zeros((8, 8), dtype=int)
    A[0, 1] = A[1, 2] = 1
    with pytest.raises(fr.RingError, match="action"):
        fr.idealization(Rt, (2,) * 8, action={"t": A})
    A[1, 2] = 0  # now A^2 = 0
    assert fr.idealization(Rt, (2,) * 8, action={"t": A}).size == 1024


def test_quotient_relations_collapse_detected():
    F2 = fr.gf(2)
    rels = [fr.resolve_relation(F2, [((("x", 2),), 1)]),              # x^2 = 0
            fr.resolve_relation(F2, [((("x", 2),), 1), ((), 1)])]     # x^2 = 1
    with pytest.raises(fr.InconsistentRelationsError, match="1 = 0"):
        fr.quotient_by_relations(F2, rels)


def test_quotient_needs_monic_power_rule():
    F2 = fr.gf(2)
    with pytest.raises(fr.InconsistentRelationsError, match="monic power"):
        fr.quotient_by_relations(
            F2, [fr.resolve_relation(F2, [((("x", 1), ("y", 1)), 1)])])


def test_gf_least_irreducible_is_reproducible():
    assert fr.least_irreducible(2, 2) == (1, 1)          # x^2 + x + 1
    assert fr.least_irreducible(2, 3) == (1, 1, 0)       # x^3 + x + 1
    assert fr.least_irreducible(3, 2) == (1, 0)          # x^2 + 1
    F9a, F9b = fr.gf(3, 2), fr.gf(3, 2)
    assert np.array_equal(F9a.mul, F9b.mul) and np.array_equal(F9a.add, F9b.add)


def test_gf_is_field():
    for p, k in [(2, 1), (2, 2), (2, 3), (3, 2), (5, 1)]:
        assert fr.is_field(fr.gf(p, k))
    with pytest.raises(fr.RingError):
        fr.gf(4)
    with pytest.raises(fr.RingError):
        fr.gf(2, 0)


# every GF(p^k) with p^k <= 729
GF_UPTO_729 = tuple((p, k) for p in range(2, 730) if fr.prime_factors(p) == [p]
                    for k in range(1, 10) if p ** k <= 729)


def test_least_irreducible_against_sympy():
    # a third oracle: sympy decides irreducibility of each candidate f, and
    # the field's x satisfies the chosen f
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def irreducible(low, p):
        f = x ** len(low) + sum(c * x ** i for i, c in enumerate(low))
        return sympy.Poly(f, x, modulus=p).is_irreducible

    for p, k in GF_UPTO_729:
        if k == 1:
            continue
        low = fr.least_irreducible(p, k)
        assert irreducible(low, p), (p, k)
        for hi_first in itertools.product(range(p), repeat=k):
            if hi_first == tuple(reversed(low)):
                break
            assert not irreducible(tuple(reversed(hi_first)), p), (p, k, hi_first)
        F = fr.gf(p, k)
        value = F.zero
        for i, c in enumerate(list(low) + [1]):
            value = F.a(value, F.times(c, F.power(F.varmap["x"], i)))
        assert value == F.zero, (p, k)


@st.composite
def _struct_build(draw):
    """A thunk building a ring from structure constants: zmod(2..12), a
    field of at most 729 elements, the SMALL_RINGS quotient or
    idealization, or an idealization over F2, Z4 or F2[t]/(t^2) with random
    module orders and action (ill-defined data included)."""
    kind = draw(st.sampled_from(["zmod", "gf", "small", "idealization"]))
    if kind == "zmod":
        n = draw(st.integers(2, 12))
        return lambda: fr.zmod(n)
    if kind == "gf":
        pk = draw(st.sampled_from(GF_UPTO_729))
        return lambda: fr.gf(*pk)
    if kind == "small":
        name = draw(st.sampled_from(["F2[x]/(x^3)", "F2+F2^2"]))
        return lambda: small_ring.__wrapped__(name)    # each side builds its own
    base = draw(st.sampled_from(["F2", "Z4", "F2[t]/(t^2)"]))
    orders = tuple(draw(st.lists(st.sampled_from([2, 4]), min_size=1, max_size=3)))
    action = draw(st.lists(st.lists(st.integers(0, 3), min_size=len(orders),
                                    max_size=len(orders)),
                           min_size=len(orders), max_size=len(orders)))

    def build():
        if base == "F2[t]/(t^2)":
            F2 = fr.gf(2)
            R = fr.quotient_by_relations(F2, [fr.resolve_relation(F2, [((("t", 2),), 1)])])
            return fr.idealization(R, orders, action={"t": action})
        return fr.idealization(fr.gf(2) if base == "F2" else fr.zmod(4), orders)
    return build


def _built(build):
    try:
        return build()
    except fr.RingError as exc:
        return exc


@settings(max_examples=80, deadline=None)
@given(_struct_build())
@example(lambda: fr.gf(3, 6))
@example(lambda: fr.gf(2, 9))
def test_struct_tables_match_the_einsum_build(build):
    R = _built(build)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fr.FiniteRing, "from_struct", classmethod(einsum_from_struct))
        ref = _built(build)
    if isinstance(ref, Exception):
        assert type(R) is type(ref) and str(R) == str(ref)
        return
    for table in ("add", "mul", "neg", "coeffs"):
        assert np.array_equal(getattr(R, table), getattr(ref, table)), table
    assert (R.zero, R.one, R.orders, R.varmap, R.monomials) == \
        (ref.zero, ref.one, ref.orders, ref.varmap, ref.monomials)
    assert [R.elem_str(i) for i in range(R.size)] == \
        [ref.elem_str(i) for i in range(ref.size)]


def test_struct_build_holds_only_its_tables():
    # GF(2^10) has two 4 MiB tables; the einsum build traced about 168 MiB
    fr.least_irreducible(2, 10)     # the sieve is cached, outside the trace
    tracemalloc.start()
    try:
        fr.gf(2, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


FIELDS = tuple((2, n) for n in range(1, 7)) + tuple((3, n) for n in range(1, 5))


@functools.lru_cache(maxsize=None)
def _field(p, n):
    return fr.gf(p, n)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from(SMALL_RINGS).map(small_ring),
                 st.sampled_from(FIELDS).map(lambda pn: _field(*pn))),
       st.integers(2, 250), st.data())
def test_power_map_matches_the_loop(R, k, data):
    x = np.arange(R.size, dtype=np.int32)
    for e in (0, 1, k):
        assert R.power(x, e).tolist() == [loop_power(R, y, e) for y in range(R.size)]
    y = data.draw(st.integers(0, R.size - 1))
    assert R.power(y, k) == loop_power(R, y, k)
    assert type(R.power(y, k)) is int


def test_is_field_matches_the_loop():
    rings = ([small_ring(name) for name in SMALL_RINGS]
             + [fr.zmod(n) for n in range(2, 13)]
             + [_field(p, n) for p, n in FIELDS] + [fr.gf(5, 2), fr.gf(7)])
    verdicts = [fr.is_field(R) for R in rings]
    assert verdicts == [loop_is_field(R) for R in rings]
    assert True in verdicts and False in verdicts


def test_maximal_ideals_examples():
    assert fr.maximal_ideals(fr.gf(2, 2)) == [frozenset({0})]
    assert fr.maximal_ideals(fr.zmod(4)) == [frozenset({0, 2})]
    P = fr.product_ring([fr.gf(2), fr.gf(2)])
    ms = fr.maximal_ideals(P)
    assert len(ms) == 2 and all(len(m) == 2 for m in ms)


def test_residue_field_examples():
    R4 = fr.zmod(4)
    k, proj = fr.residue_field(R4, [0, 2])
    assert k.size == 2 and fr.is_field(k)
    assert proj[0] == proj[2] and proj[1] == proj[3]

    R6 = fr.zmod(6)
    ideal2 = R6.ideal_closure(np.arange(6), [2])
    k2, _ = fr.residue_field(R6, ideal2)
    assert k2.size == 2

    with pytest.raises(fr.RingError):
        fr.residue_field(fr.zmod(8), [0, 4])  # (4) is not maximal in Z/8


def test_quotient_ring_sizes_and_zero_ideal():
    R = fr.idealization(fr.gf(2), (2, 2))  # F2[x,y]/(x,y)^2
    x = R.varmap["m1"]
    ideal_x = R.ideal_closure(np.arange(R.size), [x])
    Q, _ = fr.quotient_ring(R, ideal_x)
    assert Q.size == R.size // len(ideal_x)
    # F2[y]/(y^2) comparison
    F2 = fr.gf(2)
    Ry = fr.quotient_by_relations(F2, [fr.resolve_relation(F2, [((("y", 2),), 1)])])
    assert fr.rings_isomorphic(Q, Ry)

    Q0, proj = fr.quotient_ring(R, [R.zero])
    assert Q0.size == R.size
    with pytest.raises(fr.RingError):
        fr.quotient_ring(R, np.arange(R.size))


def test_additive_invariants_and_basis():
    P = fr.product_ring([fr.zmod(4), fr.zmod(2)])
    basis = P.abelian_basis()
    assert sorted(o for _, o in basis) == [2, 4]


def test_subset_ring_roundtrip():
    R = fr.zmod(6)
    # e = 4 is idempotent; 4*R = {0, 2, 4} is a ring with unit 4 (iso Z/3)
    sub, old = R.subset_ring([0, 2, 4], 4)
    assert sub.size == 3
    assert fr.is_field(sub)
    assert fr.rings_isomorphic(sub, fr.zmod(3))
    # 2 is in the closed subset {0, 2, 4} but is not its identity
    with pytest.raises(fr.RingError):
        R.subset_ring([0, 2, 4], 2)


def test_conductor_against_ideal_scan():
    # quotient path: largest ideal of S inside a subring, vs direct scan
    F2 = fr.gf(2)
    S = fr.quotient_by_relations(F2, [fr.resolve_relation(F2, [((("x", 3),), 1)])])
    x = S.varmap["x"]
    base = S.subring_closure([S.m(x, x)])  # F2[x^2] inside F2[x]/(x^3)
    base_set = frozenset(int(b) for b in base.tolist())
    cond = ex.conductor_pair(S, base_set, frozenset(range(S.size)))
    assert cond == largest_common_ideal(S, base_set)


@st.composite
def small_ring_text(draw):
    """DSL text declaring a small ring R: zmod, gf, a product of two zmod
    rings, or a truncated polynomial ring over a prime field."""
    kind = draw(st.sampled_from(["zmod", "gf", "product", "trunc"]))
    if kind == "zmod":
        return f"ring R = zmod({draw(st.integers(2, 16))})"
    if kind == "gf":
        p, k = draw(st.sampled_from([2, 3])), draw(st.integers(1, 3))
        return f"ring R = gf({p}, {k})"
    if kind == "product":
        n = draw(st.integers(2, 8))
        m = draw(st.integers(2, 4))
        return f"ring A = zmod({n})\nring B = zmod({m})\nring R = product(A, B)"
    p = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(2, 3))
    return f"ring F = gf({p})\nring R = quotient(F, [x^{d}])"


def _build_ring(text):
    rings, _ = dsl.build(dsl.parse_spec(text))
    return rings["R"]


@settings(max_examples=40, deadline=None)
@given(small_ring_text())
def test_constructed_rings_satisfy_structure_invariants(text):
    R = _build_ring(text)
    dec = fr.primitive_idempotents(R)
    # orthogonal idempotents summing to one, factor count = |Max(R)|
    assert len(dec.idempotents) == len(fr.maximal_ideals(R))
    for M in dec.maximal_ideals:
        k, _ = fr.residue_field(R, R.arr(M))
        assert fr.is_field(k)
    # determinism: rebuilding gives identical tables
    R2 = _build_ring(text)
    assert np.array_equal(R.mul, R2.mul) and np.array_equal(R.add, R2.add)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_RINGS),
       st.sets(st.integers(0, 7), max_size=3),
       st.sets(st.integers(0, 7), max_size=2))
def test_closure_is_idempotent_and_minimal(name, seed, within_seed):
    R = small_ring(name)
    subrings = brute_force_subrings(R, {R.zero, R.one})
    c1 = R.subring_closure(seed)
    assert R.is_subring(c1)
    assert np.array_equal(c1, R.subring_closure(c1))
    over_seed = [T for T in subrings if seed <= T]
    assert frozenset(c1.tolist()) == frozenset.intersection(*over_seed)

    for within in (np.arange(R.size), R.subring_closure(within_seed)):
        ideals = brute_force_ideals(R, within.tolist())
        assert R.all_ideals(within) == ideals
        gens = seed & frozenset(within.tolist())
        ideal = R.ideal_closure(within, gens)
        assert R.is_ideal_of(within, ideal)
        assert frozenset(ideal.tolist()) == frozenset.intersection(
            *[I for I in ideals if gens <= I])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.sets(st.integers(0, 7), max_size=2),
       st.sets(st.integers(0, 7), max_size=3))
def test_closure_from_a_closed_set_is_the_closure_of_the_union(name, under, seed):
    _assert_closed_start_is_the_union(small_ring(name), under, seed)


def test_closure_from_a_closed_set_on_f2_to_the_4():
    # over T = F2[(1,1,0,0)], s = (1,0,1,0) needs T*s, which no power of s
    # and no element of T gives: the start must multiply by T too
    R = fr.product_ring([fr.gf(2)] * 4)
    for t, s in itertools.product(range(R.size), repeat=2):
        _assert_closed_start_is_the_union(R, {t}, {s})


def _assert_closed_start_is_the_union(R, under, seed):
    # a closure that starts from a subring T (an ideal a) equals the
    # closure of seed and T (seed and a) from {0}
    T = R.subring_closure(under)
    assert np.array_equal(R.subring_closure(seed, over=frozenset(T.tolist())),
                          R.subring_closure(seed | set(T.tolist())))
    a = R.ideal_closure(np.arange(R.size), under)
    assert np.array_equal(R.additive_closure(seed, start=a),
                          R.additive_closure(seed | set(a.tolist())))


def test_all_ideals_closes_one_principal_ideal_per_associate_class(monkeypatch):
    # (g) = (u*g) for a unit u: a field closes (0) and (1), Z/12 one ideal
    # per associate class (six), and F2^4, whose only unit is 1, all 16
    closures, closure = [0], fr.FiniteRing.ideal_closure

    def counting_closure(self, within, gens):
        closures[0] += 1
        return closure(self, within, gens)

    monkeypatch.setattr(fr.FiniteRing, "ideal_closure", counting_closure)
    for R, count in ((fr.gf(2, 4), 2), (fr.zmod(12), 6),
                     (fr.product_ring([fr.gf(2)] * 4), 16)):
        closures[0] = 0
        assert len(R.all_ideals(np.arange(R.size))) == closures[0] == count


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_RINGS),
       st.data())
def test_derived_rings_satisfy_ring_axioms(name, data):
    # rings built from tables are checked only for zero, negatives and the
    # unit; the remaining axioms must hold by construction on every route
    R = small_ring(name)
    everything = np.arange(R.size)
    dec = fr.primitive_idempotents(R)
    e = data.draw(st.sampled_from(dec.idempotents))
    sub, _ = R.subset_ring(np.unique(R.mul[e]), e)
    assert_ring_axioms(sub)

    ideals = [I for I in R.all_ideals(everything) if len(I) < R.size]
    ideal = data.draw(st.sampled_from(ideals))
    quo, _ = fr.quotient_ring(R, R.arr(ideal))
    assert_ring_axioms(quo)
    quo_struct, _ = fr.as_struct_ring(quo)
    assert_ring_axioms(quo_struct)

    M = data.draw(st.sampled_from(fr.maximal_ideals(R)))
    field, _ = fr.residue_field(R, R.arr(M))
    assert_ring_axioms(field)

    seed = data.draw(st.sets(st.integers(0, R.size - 1), max_size=2))
    assert_ring_axioms(doubled_ring(R, R.subring_closure(seed)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.sets(st.integers(0, 7), max_size=3),
       st.integers(0, 7))
def test_adjoin_is_the_memoised_closure(name, lo, s):
    R = small_ring(name)
    lo = frozenset(lo)
    T = R.adjoin(lo, s)
    assert T == frozenset(R.subring_closure(sorted(lo) + [s]).tolist())
    assert R.adjoin(lo, s) is T
    # equal subrings are one object, whatever (lo, s) produced them
    assert R.adjoin(T, s) is T


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.sets(st.integers(0, 7), max_size=2),
       st.sets(st.integers(0, 7), max_size=2))
def test_ideals_inside_the_base_come_from_the_conductor(name, seed, more):
    # an ideal of the top inside the base lies in the conductor, and the
    # ideals generated by conductor elements are the ideals inside it
    R = small_ring(name)
    base = frozenset(R.subring_closure(seed).tolist())
    for top in (np.arange(R.size, dtype=np.int32),
                R.subring_closure(sorted(seed | more))):
        cond = ex.conductor_pair(R, base, top)
        assert R.all_ideals(top, gens=cond) == \
            [I for I in R.all_ideals(top) if I <= base]


def _reference_join_closure(atoms, join):
    """(found, facts) of the plain frontier loop, with the facts of every
    incomparable pair it joins, in order."""
    facts = {}

    def recording(x, a):
        y = join(x, a)
        if not (x <= a or a <= x):
            facts[(x, a)] = y
        return y

    return frontier_join_closure(atoms, recording, fr.IDEAL_LIMIT, "ref"), facts


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.sets(st.integers(0, 7), max_size=2))
def test_join_closure_joins_each_open_pair_once(name, seed):
    # on the ideal lattices of the ring and of a generated subring, join runs
    # on no comparable and no repeated pair, and the closure and its facts
    # are the plain loop's
    R = small_ring(name)
    for within in (np.arange(R.size), R.subring_closure(seed)):
        principal = {frozenset(R.ideal_closure(within, [g]).tolist())
                     for g in within.tolist()}
        seen = set()

        def join(x, a):
            return frozenset(R.additive_closure(x | a).tolist())

        def strict_join(x, a):
            assert not (x <= a or a <= x) and (x, a) not in seen
            seen.add((x, a))
            return join(x, a)

        found, joins = fr.join_closure(principal, strict_join, fr.IDEAL_LIMIT,
                                       "ideal enumeration")
        ref_found, ref_joins = _reference_join_closure(principal, join)
        assert found == ref_found == set(R.all_ideals(within))
        assert list(joins.items()) == list(ref_joins.items())


def test_submodules_of_the_idealization_are_the_subspaces():
    # F2 + F2^4 over F2: the F2-submodules of N = F2^4 are its 67 subspaces
    S = fr.idealization(fr.gf(2), (2, 2, 2, 2))
    base = ex.prime_subring(S)
    N = frozenset(S.ideal_closure(np.arange(S.size), [
        s for s in range(S.size) if S.m(s, s) == S.zero]).tolist())
    subs = S.all_ideals(base, gens=N)
    assert len(N) == 16 and len(subs) == 67
    assert [len(V) for V in subs].count(4) == 35
    assert all(V <= N and frozenset(S.additive_closure(sorted(V)).tolist()) == V
               for V in subs)
    cyclic = {frozenset(S.ideal_closure(base, [v]).tolist()) for v in N}
    assert set(subs) == frontier_join_closure(
        cyclic, lambda x, y: frozenset(S.additive_closure(x | y).tolist()),
        fr.IDEAL_LIMIT, "submodule enumeration")


def test_product_names_are_component_tuples():
    F4, Z4 = fr.gf(2, 2), fr.zmod(4)
    P = fr.product_ring([F4, Z4])
    for a in range(F4.size):
        for b in range(Z4.size):
            assert P.elem_str(fr.product_element(P, [a, b])) == \
                f"({F4.elem_str(a)}, {Z4.elem_str(b)})"


@st.composite
def _product_factors(draw):
    """(factors, reference factors, whether every factor is struct-built):
    one to three SMALL_RINGS rings, nested products of two of them and
    quotient_rings of one, at most 128 elements in all; the products among
    the reference factors are struct_product_rings."""
    factors, refs, struct = [], [], True
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["small", "quotient", "nested"]))
        if kind == "nested":
            names = [draw(st.sampled_from(SMALL_RINGS)) for _ in range(2)]
            factors.append(fr.product_ring([small_ring(n) for n in names]))
            refs.append(struct_product_ring(
                [small_ring(n, struct_product_ring) for n in names]))
            continue
        name = draw(st.sampled_from(SMALL_RINGS))
        R = small_ring(name)
        if kind == "quotient":
            ideal = draw(st.sampled_from(R.all_ideals(np.arange(R.size))[1:-1]))
            R, _ = fr.quotient_ring(R, R.arr(ideal))
            struct = False
        factors.append(R)
        refs.append(R if kind == "quotient" else small_ring(name, struct_product_ring))
    assume(math.prod(f.size for f in factors) <= 128)
    return factors, refs, struct


@settings(max_examples=60, deadline=None)
@given(_product_factors())
@example(([small_ring("F2xF4"), small_ring("F2[x]/(x^3)")],
          [small_ring("F2xF4", struct_product_ring),
           small_ring("F2[x]/(x^3)")], True))
def test_product_matches_the_struct_constant_product(case):
    # names match the reference's, so the tables must agree under the
    # relabelling by names; for struct factors the indexing is the same
    factors, refs, struct = case
    P, ref = fr.product_ring(factors), struct_product_ring(refs)
    names = [P.elem_str(i) for i in range(P.size)]
    ref_names = [ref.elem_str(i) for i in range(ref.size)]
    assert len(set(names)) == P.size and sorted(names) == sorted(ref_names)
    pos = {name: i for i, name in enumerate(ref_names)}
    phi = np.array([pos[name] for name in names])
    assert np.array_equal(ref.add[np.ix_(phi, phi)], phi[P.add])
    assert np.array_equal(ref.mul[np.ix_(phi, phi)], phi[P.mul])
    assert np.array_equal(ref.neg[phi], phi[P.neg])
    assert (phi[P.zero], phi[P.one]) == (ref.zero, ref.one)
    if struct:
        assert names == ref_names
    assert P.label == ref.label
    assert_ring_axioms(P)


def test_product_element_round_trips():
    factors = [fr.gf(2, 2), fr.zmod(3), small_ring("F2+F2^2")]
    P = fr.product_ring(factors)
    sizes = [f.size for f in factors]
    tuples = list(itertools.product(*map(range, sizes)))
    index = [fr.product_element(P, t) for t in tuples]
    assert sorted(index) == list(range(P.size))
    assert [tuple(map(int, np.unravel_index(x, sizes))) for x in index] == tuples
    for t in tuples[::7]:
        for u in tuples[::5]:
            x, y = fr.product_element(P, t), fr.product_element(P, u)
            assert P.a(x, y) == fr.product_element(
                P, [f.a(a, b) for f, a, b in zip(factors, t, u)])
            assert P.m(x, y) == fr.product_element(
                P, [f.m(a, b) for f, a, b in zip(factors, t, u)])


def test_rings_isomorphic_on_products():
    F2, F4 = fr.gf(2), fr.gf(2, 2)
    F2xF2 = fr.product_ring([F2, F2])
    assert not fr.rings_isomorphic(fr.zmod(4), F2xF2)
    assert not fr.rings_isomorphic(F4, F2xF2)
    assert fr.rings_isomorphic(fr.product_ring([F2, F4]),
                               fr.product_ring([F4, F2]))


def test_generator_constructors_reject_a_product_base(monkeypatch):
    # a product has no monomial basis, nor has a quotient cut down by an
    # extra relation (F2[x]/(x^3, x^2)); the message names both causes, and
    # the check comes before any conversion
    P = fr.product_ring([fr.gf(2), fr.gf(2)])
    F2 = fr.gf(2)
    Q = fr.quotient_by_relations(F2, [fr.resolve_relation(F2, [((("x", 3),), 1)]),
                                      fr.resolve_relation(F2, [((("x", 2),), 1)])])
    assert Q.size == 4 and Q.monomials is None

    def no_conversion(ring):
        raise AssertionError("as_struct_ring called")

    monkeypatch.setattr(fr, "as_struct_ring", no_conversion)
    cause = "a product, or a quotient with relations beyond the power rules"
    for R in (P, Q):
        with pytest.raises(fr.RingError, match=f"quotient base must expose .*{cause}"):
            fr.quotient_by_relations(R, [fr.resolve_relation(R, [((("y", 2),), 1)])])
        with pytest.raises(fr.RingError, match=f"idealization base must expose .*{cause}"):
            fr.idealization(R, (2,))


@st.composite
def _membership_case(draw):
    """(ring, subring, candidate): the candidate is a subring, an ideal of
    the subring or an additive group holding 1, with up to two indices
    toggled, so closed and non-closed sets and sets missing 0 or 1 all
    occur."""
    R = small_ring(draw(st.sampled_from(SMALL_RINGS)))
    idx = st.integers(0, R.size - 1)
    within = R.subring_closure(draw(st.sets(idx, max_size=2)))
    seed = sorted(draw(st.sets(idx, max_size=3)))
    closed = draw(st.sampled_from([
        R.subring_closure(seed),
        R.ideal_closure(within, seed),
        R.additive_closure(seed + [R.one]),
    ]))
    toggled = frozenset(closed.tolist()) ^ draw(st.sets(idx, max_size=2))
    return R, within, toggled


_TRUNC = small_ring("F2[x]/(x^3)")


@settings(max_examples=150, deadline=None)
@given(_membership_case())
# {0, x, 1, 1 + x} holds 1 and is closed under + but not under *, a case
# the toggled draws reach only rarely
@example((_TRUNC, _TRUNC.subring_closure([]), frozenset({0, 2, 4, 6})))
def test_mask_membership_matches_isin(case):
    R, within, cand = case
    assert R.is_subring(cand) == isin_subring(R, cand)
    assert R.is_ideal_of(within, cand) == isin_ideal_of(R, within, cand)
    hi = R.subring_closure(sorted(cand | frozenset(within.tolist())))
    assert ex.conductor_pair(R, within, hi) == isin_conductor_pair(R, within, hi)


def test_indices_outside_the_ring_are_rejected():
    # numpy would wrap -1 and fail late on 7, 8 and 9; the ring rejects them
    S = fr.product_ring([fr.gf(2), fr.gf(2)])
    with pytest.raises(fr.RingError, match="outside"):
        ex.Extension(S, [0, -1], [0, 1, 2, -1])
    with pytest.raises(fr.RingError, match="outside"):
        ex.Extension(S, [0, 3], [0, 3, 7, 8])
    with pytest.raises(fr.RingError, match="outside"):
        S.is_subring([0, -1])
    with pytest.raises(fr.RingError, match="outside"):
        S.is_subring([0, 3, 9])


def test_arr_is_memoised_for_frozensets():
    S = fr.zmod(6)
    X = frozenset({4, 0, 2})
    a = S.arr(X)
    assert a.tolist() == [0, 2, 4] and a.dtype == np.int32
    assert S.arr(frozenset({0, 2, 4})) is a
    with pytest.raises(ValueError):
        a[0] = 1
    assert S.arr([4, 2, 2, 0]).tolist() == [0, 2, 4]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.sets(st.integers(0, 7), max_size=3))
def test_subring_unit_matches_loop(name, seed):
    R = small_ring(name)
    T = R.subring_closure(seed)
    assert block_subring_unit(R, T) == loop_subring_unit(R, T) == R.one
    # each factor e*T is a ring whose unit is e, not the unit of R
    for e in fr.primitive_idempotents(R, T).idempotents:
        eT = np.unique(R.mul[e, T])
        assert block_subring_unit(R, eT) == loop_subring_unit(R, eT) == e
    # a maximal ideal has a unit only when an idempotent generates it
    for M in fr.maximal_ideals(R, T):
        assert _unit_or_error(block_subring_unit, R, M) == \
            _unit_or_error(loop_subring_unit, R, M)


def _unit_or_error(subring_unit, R, X):
    try:
        return subring_unit(R, X)
    except fr.RingError as exc:
        return str(exc)


def _decomposition_unit(R, X):
    """The sum of the primitive idempotents of X, which the decomposition
    accepts only when it acts as 1 on X; None when it raises."""
    try:
        return fr._decomposition(R, frozenset(R.arr(X).tolist()))[0]
    except fr.RingError:
        return None


def _block_unit(R, X):
    try:
        return block_subring_unit(R, X)
    except fr.RingError:
        return None


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.sets(st.integers(0, 7), max_size=3))
def test_decomposition_unit_matches_the_block_compare(name, seed):
    # every subring has a unit, and of its ideals exactly those with an
    # identity of their own pass; the two tests agree on all of them
    R = small_ring(name)
    T = R.subring_closure(seed)
    assert _decomposition_unit(R, T) == _block_unit(R, T) == R.one
    for I in R.all_ideals(T):
        assert _decomposition_unit(R, I) == _block_unit(R, I)


def test_decomposition_unit_matches_the_block_compare_on_the_catalog():
    from ringlattice import verify
    for _, E in verify.build_catalog_analyses():
        S = E.ambient
        for T in E.lattice().nodes:
            assert _decomposition_unit(S, T) == _block_unit(S, T) == S.one


def test_a_non_unital_ideal_has_no_decomposition():
    # (x) = {0, x, x^2, x + x^2} in F2[x]/(x^3) is closed but has no 1
    R = small_ring("F2[x]/(x^3)")
    x = R.varmap["x"]
    ideal = R.ideal_closure(np.arange(R.size), [x])
    assert len(ideal) == 4
    with pytest.raises(fr.RingError, match="do not sum to 1"):
        fr.maximal_ideals(R, ideal)
    with pytest.raises(fr.RingError, match="no unique multiplicative identity"):
        block_subring_unit(R, ideal)


# -- the polynomial span and the nilradical route against the earlier scans


def _assert_closures_match_the_span_route(E):
    """Every lo[s] over a node lo, one s per coset, and the closure from
    scratch, against the multiplier closure."""
    S, L = E.ambient, E.lattice()
    assert np.array_equal(S.subring_closure([]), span_subring_closure(S, []))
    for lo in L.nodes:
        for s in ex.coset_leaders(S, lo, E.top):
            got = S.subring_closure([s], over=lo)
            assert np.array_equal(got, span_subring_closure(S, [s], over=lo))
            assert S.adjoin(lo, s) == span_adjoin(S, lo, s)
    top = sorted(E.top)
    assert np.array_equal(S.subring_closure(top), span_subring_closure(S, top))


def _assert_decompositions_match_the_unit_scan(E):
    S = E.ambient
    for T in E.lattice().nodes:
        dec = fr.primitive_idempotents(S, T)
        assert (dec.idempotents, dec.maximal_ideals) == unit_scan_decomposition(S, T)


def test_polynomial_span_matches_the_span_closure(reference_extensions):
    for E in reference_extensions:
        _assert_closures_match_the_span_route(E)


def test_decompositions_match_the_unit_scan(reference_extensions):
    for E in reference_extensions:
        _assert_decompositions_match_the_unit_scan(E)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.sets(st.integers(0, 7), max_size=3),
       st.lists(st.integers(0, 7), max_size=3))
def test_polynomial_span_matches_the_span_closure_on_small_rings(name, under, seed):
    R = small_ring(name)
    E = ex.Extension(R, R.subring_closure(under))
    _assert_closures_match_the_span_route(E)
    _assert_decompositions_match_the_unit_scan(E)
    assert np.array_equal(R.subring_closure(seed), span_subring_closure(R, seed))
    assert np.array_equal(R.subring_closure(seed, over=E.base),
                          span_subring_closure(R, seed, over=E.base))


def test_nilpotent_mask_matches_the_powers(reference_extensions):
    # x is nilpotent iff its powers reach 0 before they repeat
    for S in {id(E.ambient): E.ambient for E in reference_extensions}.values():
        mask = S.nilpotent_mask()
        assert S.nilpotent_mask() is mask
        for x in range(S.size):
            seen, y = set(), x
            while y not in seen and y != S.zero:
                seen.add(y)
                y = S.m(y, x)
            assert mask[x] == (y == S.zero)
