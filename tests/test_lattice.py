import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringlattice import catalog as cat
from ringlattice import dsl
from ringlattice import finring as fr
from ringlattice import extension as ex
from ringlattice import verify
from ringlattice import lattice as lt
from ringlattice.lattice import ExtensionLattice, LatticeError, decide_intervals

from oracles import (SMALL_RINGS, assert_lattice_axioms,
                     bitset_lattice_tables, chain_label_sets_by_enumeration,
                     closure_enumeration, closure_lattice_tables,
                     constructor_interval, distributive_by_definition,
                     list_distributive_law_scan,
                     list_modular_law_scan, loop_check_catenarian,
                     loop_complements, loop_covering_pair_criterion,
                     loop_forbidden_exhaustive, loop_length2_rule,
                     loop_levels_from, memo_without, record_computes,
                     slice_interval_agreement, slice_routes, small_ring)


def _law_triple(L, modular=False):
    """The first failing triple of L's distributive (or modular) law scan,
    by the kernel on L as a stack of one, or None."""
    row = L._stack().law_scan(modular)[0]
    return None if row[0] < 0 else tuple(row.tolist())


def _criterion(L):
    """The covering-pair route on L as a stack of one: (ok, witness), the
    witness at the first failing pair t < u."""
    t, u, lo, hi, size = L._stack().criterion()[0].tolist()
    if t < 0:
        return True, None
    return False, {"pair": [t, u], "interval": [lo, hi], "size": size}


def _swept(L):
    """The first M3 or N5 sublattice of L by the 5-subset sweep (at most 16
    nodes), or None; its node-by-node guard must pass."""
    kind, nodes, code = L._stack().sweep()
    assert code[0] == 0
    return lt._sublattice(kind[0], nodes[0])


@pytest.fixture(scope="module")
def chain16():
    # F2 in F16: a 3-chain of subfields
    S = fr.gf(2, 4)
    return ex.Extension(S, ex.prime_subring(S), name="E7")


@pytest.fixture(scope="module")
def bool64():
    S = fr.gf(2, 6)
    return ex.Extension(S, ex.prime_subring(S), name="E8")


def test_chain_verdict(chain16):
    L = chain16.lattice()
    v = L.verdict()
    assert len(L.nodes) == 3
    assert v.chained and v.distributive and v.catenarian
    assert v.length == 2
    assert not v.boolean_lattice      # middle node has no complement
    assert v.witness is None
    assert L.verdict() is v           # computed once per lattice


def test_two_node_lattice(e1):
    L = e1.lattice()
    v = L.verdict()
    assert v.catenarian and v.length == 1 and v.distributive


def test_diamond_detection(e4):
    L = e4.lattice()
    v = L.verdict()
    assert not v.distributive and v.modular
    assert v.witness["kind"] == "M3"
    o, a, b, c, i = v.witness["nodes"]
    assert o == 0 and i == len(L.nodes) - 1
    assert not v.boolean_lattice
    # complements of one atom are the two other atoms (non-unique)
    atom = L.atoms()[0]
    comps = L.complements(atom)
    assert len(comps) == 2 and atom not in comps


def test_pentagon_and_catenarity(e10):
    L = e10.lattice()
    v = L.verdict()
    assert not v.catenarian
    assert not v.distributive and not v.modular
    wit = L.forbidden_sublattice()
    assert wit["kind"] == "N5"
    o, a, b, c, i = wit["nodes"]
    assert L.leq[o, a] and L.leq[a, b] and L.leq[b, i]
    assert not L.leq[a, c] and not L.leq[c, a]


def test_boolean_b2(bool64):
    L = bool64.lattice()
    v = L.verdict()
    assert len(L.nodes) == 4 and v.length == 2
    assert v.boolean_lattice and v.is_b2 and v.distributive
    # complement of F4 is F8
    f4 = next(i for i, n in enumerate(L.nodes) if len(n) == 4)
    comps = L.complements(f4)
    assert [len(L.nodes[c]) for c in comps] == [8]


def test_law_scan_matches_set_oracle(e4, e5, e10, chain16):
    for E in (e4, e5, e10, chain16):
        L = E.lattice()
        assert (_law_triple(L) is None) == \
            distributive_by_definition(L.nodes)


def test_covering_pair_criterion_agreement(e4, e5, e10):
    for E in (e4, e5, e10):
        L = E.lattice()
        dist, _ = L.check_distributive()   # raises if the three routes disagree
        assert dist == (_law_triple(L) is None)


def test_interval_sublattice(e5, bool64):
    L5 = e5.lattice()
    # [t-closure, S] is a 2-chain
    t = e5.decomposition().t
    sub = L5.interval(L5.index[t], L5.top)
    assert len(sub.nodes) == 2 and sub.is_chain()
    # whole interval is the lattice itself, memos included
    full = L5.interval(0, L5.top)
    assert full is L5 and full.nodes == L5.nodes
    # [F2, F8] inside the divisor lattice of 6 is a 2-chain
    L8 = bool64.lattice()
    f8 = next(i for i, n in enumerate(L8.nodes) if len(n) == 8)
    sub8 = L8.interval(0, f8)
    assert len(sub8.nodes) == 2
    with pytest.raises(LatticeError):
        L8.interval(f8, next(i for i, n in enumerate(L8.nodes) if len(n) == 4))
    for piece in (sub, full, sub8):
        assert_lattice_axioms(piece)
    # every sub-interval of the two-ladder is a lattice as well
    for a, b in np.argwhere(L5.leq).tolist():
        assert_lattice_axioms(L5.interval(a, b))


def test_loewy_series_shapes(e4, e5, chain16):
    L7 = chain16.lattice()
    assert L7.loewy_series() == [0, 1, 2]      # whole chain
    L4 = e4.lattice()
    assert L4.loewy_series() == [0, L4.top]    # socle is the join of all atoms
    L5 = e5.lattice()
    series = L5.loewy_series()
    assert series[0] == 0 and series[-1] == L5.top
    assert all(L5.leq[a, b] for a, b in zip(series, series[1:]))


def test_pinch_points_match_the_definition(e5, big_lattices):
    for E in [e5] + big_lattices:
        L = E.lattice()
        pinch = L.pinch_points()
        assert L.pinch_points() is pinch           # computed once
        for t in range(L.n):
            direct = all(L.leq[t, u] or L.leq[u, t] for u in range(L.n))
            assert pinch[t] == direct
            assert L.is_pinched_at([t]) is direct
        # a sliced interval has its own pinch points
        sub = L.interval(L.atoms()[0], L.top)
        assert sub.pinch_points().shape == (sub.n,)
        assert sub.pinch_points()[0] and sub.pinch_points()[-1]


def test_pinched(e5, chain16):
    L7 = chain16.lattice()
    assert L7.is_pinched_at([])
    assert L7.is_pinched_at([1])
    L5 = e5.lattice()
    t_idx = L5.index[e5.decomposition().t]
    assert not L5.is_pinched_at([t_idx])
    with pytest.raises(LatticeError):
        L5.is_pinched_at([1, 2])  # incomparable chain members rejected


def test_length2_rule(e4, e10, bool64, chain16):
    ok4, wit4 = e4.lattice().check_length2_rule()
    assert not ok4 and wit4["size"] == 5
    assert bool64.lattice().check_length2_rule()[0]
    assert chain16.lattice().check_length2_rule()[0]
    # the prime ring below F2 + F4*x spans a 5-node length-2 interval
    ok10, wit10 = e10.lattice().check_length2_rule()
    assert not ok10 and wit10["size"] == 5


def test_catenarian_witness(e10):
    ok, wit = e10.lattice().check_catenarian()
    assert not ok and "edge" in wit


def test_maximal_chains_enumeration(e5):
    L = e5.lattice()
    chains = L.maximal_chains(0, L.top)
    assert len(chains) == 3                     # two-ladder shape
    assert all(len(c) == 4 for c in chains)     # all of length 3


def _sets(*nodes):
    return [frozenset(n) for n in nodes]


_MALFORMED = [
    # no bottom: {0, 1} and {0, 2} are both minimal
    (_sets({0, 1}, {0, 2}, {0, 1, 2}), "no global bottom/top"),
    # an order lattice (a square) whose meet {0} is not the intersection {0, 1}
    (_sets({0}, {0, 1, 2}, {0, 1, 3}, {0, 1, 2, 3}),
     "intersection of nodes escapes"),
    # {0, 1} and {0, 2} lie below two incomparable nodes and the top
    (_sets({0}, {0, 1}, {0, 2}, {0, 1, 2, 3}, {0, 1, 2, 4}, {0, 1, 2, 3, 4}),
     "no least common upper bound"),
]


def test_lattice_axioms_guard():
    # each construction guard on its own node set (plain index sets), with
    # the message of the bitset builder
    for nodes, message in _MALFORMED:
        with pytest.raises(LatticeError, match=message):
            ExtensionLattice(nodes)
        with pytest.raises(LatticeError, match=message):
            bitset_lattice_tables(nodes)
    # a lattice in order, but the generated subring of a | b is the top
    square = _sets({0}, {0, 1}, {0, 2}, {0, 1, 2}, {0, 1, 2, 3})
    a, b, ab, top = square[1], square[2], square[3], square[4]
    L = ExtensionLattice(square, {(a, b): ab})
    assert L.join[1, 2] == 3
    assert_lattice_axioms(L)
    with pytest.raises(LatticeError, match="join of nodes escapes"):
        ExtensionLattice(square, {(a, b): top})
    # no fact for the incomparable join-irreducible pair (a, b)
    with pytest.raises(LatticeError, match="join facts miss"):
        ExtensionLattice(square, {})


def test_join_facts_cover_a_join_irreducible_non_atom():
    # a pentagon: {0, 1, 2} covers only {0, 1}, so it is join-irreducible
    # without being an atom, and it is incomparable with {0, 3}
    pentagon = _sets({0}, {0, 1}, {0, 3}, {0, 1, 2}, {0, 1, 2, 3})
    a, c, b, top = pentagon[1], pentagon[2], pentagon[3], pentagon[4]
    with pytest.raises(LatticeError, match="join facts miss a join-irreducible"):
        ExtensionLattice(pentagon, {(a, c): top})
    L = ExtensionLattice(pentagon, {(a, c): top, (b, c): top})
    assert L.join[2, 3] == L.top
    # {0, 1, 3} covers only the atom {0, 1}; the one missing fact pairs it
    # with {0, 1, 2}, which is neither an atom nor join-irreducible
    nodes = _sets({0}, {0, 1}, {0, 2}, {0, 1, 2}, {0, 1, 3}, {0, 1, 2, 3})
    a, b, ab, c, top = nodes[1], nodes[2], nodes[3], nodes[4], nodes[5]
    facts = {(a, b): ab, (b, c): top}
    with pytest.raises(LatticeError, match="join facts miss a join-irreducible"):
        ExtensionLattice(nodes, facts)
    assert ExtensionLattice(nodes, facts | {(ab, c): top}).join[3, 4] == 5


def test_verify_axioms_rejects_a_broken_table(e5):
    # the axiom scan is a test oracle: the build's guards make it hold
    L = ex.enumerate_interval(e5)
    assert_lattice_axioms(L)
    L.join[1, 2] = L.join[2, 1] = L.top if L.join[1, 2] != L.top else 0
    with pytest.raises(AssertionError):
        assert_lattice_axioms(L)


def _tamper_meet_idempotence(L):
    atom = L.atoms()[0]
    L.meet[atom, atom] = L.bottom


def _tamper_absorption(L):
    # atom ^ (atom v top) = atom ^ top must be the atom
    atom = L.atoms()[0]
    L.meet[atom, L.top] = L.meet[L.top, atom] = L.bottom


def _tamper_join_order(L):
    # bottom <= atom, so bottom v atom must be the atom; the one-sided entry
    # keeps idempotence and both absorption laws intact
    L.join[L.bottom, L.atoms()[0]] = L.top


@pytest.mark.parametrize("tamper, message", [
    (_tamper_meet_idempotence, "meet not idempotent"),
    (_tamper_absorption, "absorption fails for meet over join"),
    (_tamper_join_order, "join table inconsistent with order"),
])
def test_lattice_axiom_oracle_rejects_tampered_tables(e5, tamper, message):
    L = ex.enumerate_interval(e5)
    tamper(L)
    with pytest.raises(AssertionError, match=message):
        assert_lattice_axioms(L)


@pytest.fixture(scope="module")
def big_lattices():
    # Pi5 (52 subrings of F2^5) and the 67 subrings F2 + V of F2 + F2^4
    out = []
    for S in (fr.product_ring([fr.gf(2)] * 5),
              fr.idealization(fr.gf(2), (2, 2, 2, 2))):
        out.append(ex.Extension(S, ex.prime_subring(S)))
    return out


def _assert_same_tables(L, tables):
    leq, covers, meet, join = tables
    assert np.array_equal(L.leq, leq)
    assert np.array_equal(L.covers, covers)
    assert np.array_equal(L.meet, meet)
    assert np.array_equal(L.join, join)


def _assert_tables_match(E):
    L = E.lattice()
    assert_lattice_axioms(L)
    _assert_same_tables(L, closure_lattice_tables(E.ambient, L.nodes))
    _assert_same_tables(L, bitset_lattice_tables(L.nodes))


def test_order_tables_match_closure_tables(big_lattices):
    assert [len(E.lattice()) for E in big_lattices] == [52, 67]
    for E in big_lattices:
        _assert_tables_match(E)


def test_order_tables_match_the_bitset_build(catalog_extensions):
    # Pi6 (203 nodes) is where the closure tables are too slow to compare
    S = fr.product_ring([fr.gf(2)] * 6)
    pi6 = ex.Extension(S, ex.prime_subring(S))
    for E in catalog_extensions + [pi6]:
        L = E.lattice()
        _assert_same_tables(L, bitset_lattice_tables(L.nodes))
    assert len(pi6.lattice()) == 203


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.sets(st.integers(0, 7), max_size=2))
def test_order_tables_match_closure_tables_on_small_rings(name, seed):
    R = small_ring(name)
    _assert_tables_match(ex.Extension(R, R.subring_closure(seed)))


def test_lattice_build_runs_no_closures(monkeypatch, big_lattices):
    # the tables come from the order and an interval is sliced out of its
    # parent's tables; only the enumeration closes subsets, and each of its
    # closures runs the polynomial span
    closures, spans, per_build = [0], [0], []
    closure, build = fr.FiniteRing.subring_closure, ExtensionLattice.__init__
    span = fr.FiniteRing._adjoin_powers

    def counting_closure(self, seed, **kw):
        closures[0] += 1
        return closure(self, seed, **kw)

    def counting_span(self, *args):
        spans[0] += 1
        return span(self, *args)

    def counting_build(self, *args, **kwargs):
        before = closures[0]
        build(self, *args, **kwargs)
        per_build.append(closures[0] - before)

    monkeypatch.setattr(fr.FiniteRing, "subring_closure", counting_closure)
    monkeypatch.setattr(fr.FiniteRing, "_adjoin_powers", counting_span)
    monkeypatch.setattr(ExtensionLattice, "__init__", counting_build)
    E = big_lattices[0]
    # the fixture ring is shared, so empty its adjoin memo first
    monkeypatch.setattr(E.ambient, "_cache", memo_without(E.ambient, "adjoin"))
    L = ex.enumerate_interval(E)
    assert closures[0] > 0 and per_build == [0]
    # the base is interned already, so every closure adjoins one element
    assert spans[0] == closures[0]
    enumerated = closures[0]
    sub = L.interval(1, L.top)
    assert closures[0] == enumerated and spans[0] == enumerated
    assert per_build == [0] and len(sub) > 2
    assert L.interval(0, L.top) is L


def test_second_enumeration_runs_no_closures(monkeypatch):
    # every base[s] and x[s] of the first enumeration is memoised on the ring
    S = fr.product_ring([fr.gf(2)] * 4)
    base = ex.prime_subring(S)
    first = ex.enumerate_interval(ex.Extension(S, base))
    closures = [0]
    closure = fr.FiniteRing.subring_closure

    def counting_closure(self, seed, **kw):
        closures[0] += 1
        return closure(self, seed, **kw)

    monkeypatch.setattr(fr.FiniteRing, "subring_closure", counting_closure)
    second = ex.enumerate_interval(ex.Extension(S, base))
    assert closures[0] == 0
    assert second.nodes == first.nodes and len(first) == 15
    assert np.array_equal(second.join, first.join)


@pytest.fixture(scope="module")
def catalog_extensions():
    return [dsl.build_extension(inst.spec) for inst in cat.CATALOG]


def _captured_enumeration(E):
    """(nodes, joins) that enumerate_interval(E) hands to ExtensionLattice."""
    seen, build = [], ExtensionLattice.__init__

    def capturing_build(self, nodes, joins=None):
        seen.append((nodes, joins))
        build(self, nodes, joins)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExtensionLattice, "__init__", capturing_build)
        ex.enumerate_interval(E)
    (nodes, joins), = seen
    return nodes, joins


def _assert_enumeration_matches_closures(E):
    nodes, joins = _captured_enumeration(E)
    ref_nodes, ref_joins = closure_enumeration(E)
    assert nodes == ref_nodes
    # the same facts, recorded in the same order
    assert list(joins.items()) == list(ref_joins.items())
    S = E.ambient
    for (x, a), j in joins.items():
        assert j == frozenset(S.subring_closure(sorted(x | a)).tolist())


def test_enumeration_matches_closure_oracle(catalog_extensions, big_lattices):
    for E in catalog_extensions + big_lattices:
        _assert_enumeration_matches_closures(E)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.sets(st.integers(0, 7), max_size=2))
def test_enumeration_matches_closure_oracle_on_small_rings(name, seed):
    R = small_ring(name)
    _assert_enumeration_matches_closures(ex.Extension(R, R.subring_closure(seed)))


def test_enumeration_derives_most_joins(monkeypatch):
    # a fresh Pi5, so its adjoin memo starts empty
    S = fr.product_ring([fr.gf(2)] * 5)
    E = ex.Extension(S, ex.prime_subring(S))
    closures, closure = [0], fr.FiniteRing.subring_closure

    def counting_closure(self, seed, **kw):
        closures[0] += 1
        return closure(self, seed, **kw)

    monkeypatch.setattr(fr.FiniteRing, "subring_closure", counting_closure)
    _, joins = _captured_enumeration(E)
    assert 0 < closures[0] < len(joins)


def _assert_scans_match_listing(L):
    """Both first-failure scans give the listing oracles' triple; returns
    whether L is distributive."""
    witness = _law_triple(L)
    assert witness == list_distributive_law_scan(L)
    assert _law_triple(L, modular=True) == list_modular_law_scan(L)
    return witness is None


def test_law_scans_match_listing_oracles(catalog_extensions, big_lattices):
    verdicts = {_assert_scans_match_listing(E.lattice())
                for E in catalog_extensions}
    for E in big_lattices:
        L = E.lattice()
        for a, b in np.argwhere(L.leq).tolist():
            verdicts.add(_assert_scans_match_listing(L.interval(a, b)))
    assert verdicts == {True, False}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.sets(st.integers(0, 7), max_size=2))
def test_law_scans_match_listing_oracles_on_small_rings(name, seed):
    R = small_ring(name)
    L = ex.Extension(R, R.subring_closure(seed)).lattice()
    for a, b in np.argwhere(L.leq).tolist():
        _assert_scans_match_listing(L.interval(a, b))


def test_law_scan_memory_is_bounded():
    # Pi6 has 203 nodes: 8.4 M triples, 3.58 M of them failing
    S = fr.product_ring([fr.gf(2)] * 6)
    L = ex.Extension(S, ex.prime_subring(S)).lattice()
    tracemalloc.start()
    try:
        witness = _law_triple(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness is not None and peak < 16 << 20


def test_covers_and_decomposition_decompose_each_subring_once(
        monkeypatch, big_lattices):
    # the primitive decomposition of a subring is memoised on its ring, so
    # every cover and every sub-extension of the decomposition reuses it
    S = big_lattices[0].ambient
    monkeypatch.setattr(S, "_cache", memo_without(S, "decomposition"))
    decomposed, decompose = [], fr._primitive_decomposition

    def counting_decompose(ring, T):
        decomposed.append((ring, T.tobytes()))
        return decompose(ring, T)

    monkeypatch.setattr(fr, "_primitive_decomposition", counting_decompose)
    E = ex.Extension(S, big_lattices[0].base)
    ex.cover_types(E)
    E.decomposition()
    keys = [(id(ring), T) for ring, T in decomposed]
    assert len(keys) == len(set(keys))
    nodes = {S.arr(T).tobytes() for T in E.lattice().nodes}
    assert {T for ring, T in decomposed if ring is S} >= nodes


def test_every_set_is_converted_and_decomposed_once_per_ring(monkeypatch):
    # a fresh Pi5, so its memos start empty; the lists keep every ring
    # alive, so no id is reused
    S = fr.product_ring([fr.gf(2)] * 5)
    calls, built, arr = [0], [], fr.FiniteRing.arr

    def counting_arr(ring, X):
        if isinstance(X, frozenset):
            calls[0] += 1
            if ("arr", X) not in ring._cache:
                built.append((ring, X))
        return arr(ring, X)

    decomposed, decompose = [], fr._primitive_decomposition

    def counting_decompose(ring, T):
        decomposed.append((ring, T.tobytes()))
        return decompose(ring, T)

    monkeypatch.setattr(fr.FiniteRing, "arr", counting_arr)
    monkeypatch.setattr(fr, "_primitive_decomposition", counting_decompose)
    E = ex.Extension(S, ex.prime_subring(S), name="Pi5")
    ex.cover_types(E)
    E.decomposition()
    E.flags()
    assert all(verify.run_check(name, E).status != "fail"
               for name in sorted(verify.CHECKS))
    built_keys = [(id(ring), X) for ring, X in built]
    assert len(built_keys) == len(set(built_keys))
    decomposed_keys = [(id(ring), T) for ring, T in decomposed]
    assert len(decomposed_keys) == len(set(decomposed_keys))
    nodes = E.lattice().nodes
    assert {X for ring, X in built if ring is S} >= set(nodes)
    assert {T for ring, T in decomposed if ring is S} >= \
        {S.arr(T).tobytes() for T in nodes}
    assert calls[0] > 10 * len(built)


def test_no_quotient_ring_for_decomposed_or_ramified_covers(
        monkeypatch, big_lattices, e3, e5):
    # maximality of the conductor and the inert case (M in Max(hi)) are
    # read off the memoised maximal ideals: no cover builds a quotient ring,
    # the inert covers of E3, E5 and gf(5, 4) included
    G5_4 = fr.gf(5, 4)
    inert = [e3, e5, ex.Extension(G5_4, ex.prime_subring(G5_4))]
    quotients, quotient = [0], fr.quotient_of_subring

    def counting_quotient(*args, **kwargs):
        quotients[0] += 1
        return quotient(*args, **kwargs)

    monkeypatch.setattr(fr, "quotient_of_subring", counting_quotient)
    seen = set()
    for E in big_lattices + inert:
        L = E.lattice()
        for i, j in np.argwhere(L.covers).tolist():
            seen.add(ex.classify_minimal_pair(E.ambient, L.nodes[i], L.nodes[j],
                                              assume_minimal=True))
    assert seen == set(ex.MinimalType)
    assert quotients[0] == 0


def test_memoised_decomposition_hands_out_fresh_results(big_lattices):
    E = big_lattices[0]
    S, T = E.ambient, E.ambient.arr(E.lattice().nodes[-2])
    first = fr.maximal_ideals(S, T)
    expected = list(first)
    first.clear()
    assert fr.maximal_ideals(S, T) == expected
    dec = fr.primitive_idempotents(S, T)
    dec.idempotents.append(S.zero)
    dec.maximal_ideals.pop()
    with pytest.raises(ValueError):
        dec.factors[0][0] = S.one          # shared arrays are read-only
    again = fr.primitive_idempotents(S, T)
    assert len(again.idempotents) == len(again.maximal_ideals) == len(expected)
    assert sorted(again.maximal_ideals, key=sorted) == expected
    base = E.max_ideals_base()
    base.append(frozenset())
    assert frozenset() not in E.max_ideals_base()


def test_memo_hit_still_checks_the_unit(big_lattices):
    E = big_lattices[0]
    S = E.ambient
    dec = fr.primitive_idempotents(S, E.top, unit=S.one)
    assert len(dec.idempotents) == 5
    with pytest.raises(fr.RingError, match="do not sum to 1"):
        fr.primitive_idempotents(S, E.top, unit=dec.idempotents[0])
    # a subring's own unit is the sum of its primitive idempotents
    e = dec.idempotents[0]
    eS = np.unique(S.mul[e, S.arr(E.top)])
    assert fr.primitive_idempotents(S, eS).idempotents == [e]
    with pytest.raises(fr.RingError, match="do not sum to 1"):
        fr.primitive_idempotents(S, eS, unit=S.one)


def _label_kinds(E):
    """The fold's two labels (minimal type, contracted conductor) and the
    cover itself, which gives every maximal chain its own label set."""
    S, L = E.ambient, E.lattice()
    types = ex.cover_types(E)
    return {
        "type": lambda u, v: types[(u, v)].value,
        "conductor": lambda u, v: ex.conductor_pair(S, L.nodes[u], L.nodes[v]) & E.base,
        "cover": lambda u, v: (u, v),
    }


def _assert_fold_matches_enumeration(E):
    L = E.lattice()
    for kind, label in _label_kinds(E).items():
        calls = []

        def counting(u, v):
            calls.append((u, v))
            return label(u, v)

        folded = L.chain_label_sets(counting)
        # one label per cover
        assert sorted(calls) == sorted(map(tuple, np.argwhere(L.covers).tolist()))
        enumerated = chain_label_sets_by_enumeration(L, label)
        assert set(folded) == set(enumerated), kind
        for key, chain in folded.items():
            assert chain[0] == L.bottom and chain[-1] == L.top
            assert all(L.covers[u, v] for u, v in zip(chain, chain[1:]))
            assert frozenset(label(u, v) for u, v in zip(chain, chain[1:])) == key
            assert chain in enumerated[key]
    return folded


def test_chain_label_sets_match_chain_enumeration(big_lattices):
    for E in big_lattices:
        by_cover = _assert_fold_matches_enumeration(E)
        # with the cover as label, each maximal chain is its own label set
        L = E.lattice()
        assert len(by_cover) == len(L.maximal_chains(0, L.top))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.sets(st.integers(0, 7), max_size=2))
def test_chain_label_sets_match_chain_enumeration_on_small_rings(name, seed):
    R = small_ring(name)
    E = ex.Extension(R, R.subring_closure(seed))
    if not E.trivial:
        _assert_fold_matches_enumeration(E)


def test_decomposition_builds_no_sub_extensions(monkeypatch, big_lattices):
    # the pair predicates take (S, lo, hi): no Extension per node, so no
    # is_subring re-check of nodes that are already lattice nodes
    built, init = [0], ex.Extension.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    S = big_lattices[0].ambient
    E = ex.Extension(S, big_lattices[0].base)
    E.lattice()
    monkeypatch.setattr(ex.Extension, "__init__", counting_init)
    d = E.decomposition()
    assert built[0] == 0
    # F2^5 over F2 is seminormal and infra-integral
    assert d.plus == E.base and d.t == d.u == d.cosub == E.top


def test_levels_match_the_per_node_walk(e5, e10, big_lattices):
    # the frontier pass against the per-node walk, from every start node of
    # E5, Pi5 and V4, and of the pentagon E10, where the longest and the
    # shortest cover path from the bottom to the top differ
    for E in (e5, e10, *big_lattices):
        L = E.lattice()
        for a in range(L.n):
            got = L.levels_from(a)
            assert got.dtype == np.int32
            assert np.array_equal(got, loop_levels_from(L, a)), (a, got)


def test_length2_table_matches_the_level_rows(reference_extensions):
    # the pairs at longest-chain distance 2, read off the cover paths and
    # the interval sizes, against the per-node walk's level-2 nodes, with
    # their middle nodes, on every curated lattice, P5, V4, Pi6 and the
    # lattices of the random-40 suite
    randoms = [dsl.build_extension(inst.spec)
               for inst in verify.generate_random_instances(0, 40)]
    pairs = 0
    for E in reference_extensions + randoms:
        L = E.lattice()
        lower, upper, inner, middle = L.length2_intervals()
        want = [(v, w) for v in range(L.n)
                for w in np.flatnonzero(loop_levels_from(L, v) == 2).tolist()]
        assert list(zip(lower.tolist(), upper.tolist())) == want
        ends = np.cumsum(inner).tolist()
        for (v, w), start, end in zip(want, [0] + ends, ends):
            assert middle[start:end].tolist() == L.interval_nodes(v, w)[1:-1]
        pairs += len(want)
    assert pairs > 1000


def test_sub_analysis_takes_the_parent_interval(monkeypatch, big_lattices):
    # every ring between two nodes is a node: a sub-analysis enumerates nothing
    enumerate_interval, calls = ex.enumerate_interval, [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return enumerate_interval(*args, **kwargs)

    E = big_lattices[0]
    a = ex.Extension(E.ambient, E.base, name="P5")
    L = a.lattice()
    pairs = [(v, int(w)) for v in range(len(L.nodes))
             for w in np.flatnonzero(L.levels_from(v) == 2)]
    monkeypatch.setattr(ex, "enumerate_interval", counting)
    subs = [a.sub(L.nodes[v], L.nodes[w]).lattice() for v, w in pairs]
    assert calls[0] == 0 and len(pairs) > 0
    for (v, w), sub in zip(pairs, subs):
        fresh = enumerate_interval(ex.Extension(E.ambient, L.nodes[v], L.nodes[w]))
        assert sub.nodes == fresh.nodes
        assert np.array_equal(sub.join, fresh.join)


def _assert_sliced_intervals_match(L):
    """Every interval of L against the constructor-built one, and its
    whole-array checks against their loop forms; returns the outcomes."""
    seen = set()
    for a, b in np.argwhere(L.leq).tolist():
        sub, ref = L.interval(a, b), constructor_interval(L, a, b)
        assert L.interval(a, b) is sub
        assert sub.nodes == ref.nodes and sub.index == ref.index
        for table in ("leq", "covers", "meet", "join"):
            got, want = getattr(sub, table), getattr(ref, table)
            assert got.dtype == want.dtype and np.array_equal(got, want), table
        assert sub.verdict() == ref.verdict()
        cat_ = sub.check_catenarian()
        crit = _criterion(sub)
        mod = _law_triple(sub, modular=True)
        comps = [sub.complements(t) for t in range(len(sub))]
        assert cat_ == loop_check_catenarian(sub)
        assert crit == loop_covering_pair_criterion(sub)
        assert mod == list_modular_law_scan(sub)
        assert comps == [loop_complements(sub, t) for t in range(len(sub))]
        seen |= {("catenarian", cat_[0]), ("covering pair", crit[0]),
                 ("modular", mod is None), ("complemented", all(comps))}
    return seen


def test_sliced_intervals_match_the_constructor(e4, e5, e6, e10, big_lattices):
    # E10 holds the pentagon, the only non-catenarian intervals here
    seen = set()
    for E in (e4, e5, e6, e10, *big_lattices):
        seen |= _assert_sliced_intervals_match(E.lattice())
    assert seen == {(check, ok) for check in ("catenarian", "covering pair",
                                              "modular", "complemented")
                    for ok in (True, False)}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.sets(st.integers(0, 7), max_size=2))
def test_sliced_intervals_match_the_constructor_on_small_rings(name, seed):
    R = small_ring(name)
    _assert_sliced_intervals_match(
        ex.Extension(R, R.subring_closure(seed)).lattice())


def test_interval_rejects_a_selection_that_is_not_closed(e4):
    # a tampered join that leaves [0, a] for an atom a is caught by the slice
    L = constructor_interval(e4.lattice(), 0, e4.lattice().top)
    a, b = L.atoms()[:2]
    L.join[0, a] = L.join[a, 0] = b
    with pytest.raises(LatticeError, match="not closed"):
        L.interval(0, a)


def _assert_sweeps_match_the_loop(L):
    """The exhaustive 5-subset sweep and the length-2 rule of every interval
    of at most 16 nodes against their loop forms; returns the outcomes."""
    seen = set()
    for a, b in np.argwhere(L.leq).tolist():
        if L.interval_size(a, b) <= 16:
            sub = L.interval(a, b)
            swept = _swept(sub)
            assert swept == loop_forbidden_exhaustive(sub)
            assert sub.check_length2_rule() == loop_length2_rule(sub)
            seen.add(None if swept is None else swept["kind"])
    return seen


def test_exhaustive_sweep_matches_the_loop(reference_extensions, e10):
    # every catalog instance, Pi5, V4, Pi6, E10 and a pentagon of sets
    seen = set()
    for E in reference_extensions + [e10]:
        seen |= _assert_sweeps_match_the_loop(E.lattice())
    pentagon = ExtensionLattice(_sets({0}, {0, 1}, {0, 3}, {0, 1, 2}, {0, 1, 2, 3}))
    seen |= _assert_sweeps_match_the_loop(pentagon)
    assert seen == {None, "M3", "N5"}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.sets(st.integers(0, 7), max_size=2))
def test_exhaustive_sweep_matches_the_loop_on_small_rings(name, seed):
    R = small_ring(name)
    _assert_sweeps_match_the_loop(ex.Extension(R, R.subring_closure(seed)).lattice())


def test_length2_rule_matches_the_loop(reference_extensions):
    seen = set()
    for E in reference_extensions:
        L = E.lattice()
        got = L.check_length2_rule()
        assert got == loop_length2_rule(L)
        seen.add(got[0])
    assert seen == {True, False}


def test_verdict_runs_one_modular_scan(monkeypatch, big_lattices):
    # the verdict, check_distributive and the forbidden sublattice read the
    # one verdict row, whose kernel run holds the lattice's only modular scan
    computed = record_computes(monkeypatch)
    modular_scans, law_scan = [0], lt._Stack.law_scan

    def counting_scan(stack, modular):
        modular_scans[0] += modular
        return law_scan(stack, modular)
    monkeypatch.setattr(lt._Stack, "law_scan", counting_scan)

    def rows(L):
        return sum(memo is L._cache and key == ("_verdicts",)
                   for memo, key in computed)

    for E in big_lattices:
        L = constructor_interval(E.lattice(), 0, E.lattice().top)
        modular_scans[0] = 0
        v = L.verdict()
        assert rows(L) == 1 and modular_scans[0] == 1
        tri, mod = list_modular_law_scan(L), L._verdicts().mod[0]
        assert (None if mod[0] < 0 else tuple(mod.tolist())) == tri
        assert v.modular == (tri is None)
        L.check_distributive(), L.forbidden_sublattice()
        assert rows(L) == 1 and modular_scans[0] == 1


def test_slices_take_their_levels_from_the_parent(big_lattices):
    # a slice [a, b] cut after levels_from(a) reads its levels off the
    # parent's; they equal the walk on the slice itself
    for E in big_lattices:
        L = constructor_interval(E.lattice(), 0, E.lattice().top)
        for a, b in np.argwhere(L.leq).tolist():
            L.levels_from(a)
            sub = L.interval(a, b)
            assert ("levels_from", 0) in sub._cache
            assert np.array_equal(sub.levels_from(0), loop_levels_from(sub, 0))


def _assert_kernel_matches_the_slices(L):
    """Every comparable pair of L through one decide_intervals call against
    the earlier per-slice routes and the slice's own verdict; every row
    carries the Boolean and B2 verdicts.  Returns the verdicts seen."""
    i, j = np.nonzero(L.leq)
    found = decide_intervals([(L, i, j)])
    assert found.boolean.shape == found.is_b2.shape == i.shape
    assert found.boolean.dtype == found.is_b2.dtype == bool
    seen = set()
    for k, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
        sub = L.interval(a, b)
        dist, witness, boolean, is_b2 = slice_routes(sub)
        assert found.error(k) is None
        assert (found.distributive[k], found.boolean[k], found.is_b2[k]) == \
            (dist, boolean, is_b2), (a, b)
        assert found.witness(k) == witness
        assert sub.check_distributive() == (dist, witness)
        v = sub.verdict()
        assert (v.distributive, v.modular, v.boolean_lattice, v.is_b2, v.witness) == \
            (found.distributive[k], found.mod[k, 0] < 0, found.boolean[k],
             found.is_b2[k], found.witness(k)), (a, b)
        seen.add((dist, boolean, is_b2))
    return seen


def test_interval_kernel_matches_the_slices(reference_extensions):
    # every catalog instance, Pi5, V4 and Pi6
    seen = set()
    for E in reference_extensions:
        seen |= _assert_kernel_matches_the_slices(E.lattice())
    assert seen == {(True, True, True), (True, True, False), (True, False, False),
                    (False, False, False)}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.sets(st.integers(0, 7), max_size=2))
def test_interval_kernel_matches_the_slices_on_small_rings(name, seed):
    R = small_ring(name)
    _assert_kernel_matches_the_slices(ex.Extension(R, R.subring_closure(seed)).lattice())


def test_no_interval_gives_zero_rows(reference_extensions):
    # with no request, or requests of no interval, every field has zero
    # rows and the dtype and trailing shape of a decided stack
    L = reference_extensions[0].lattice()
    want = decide_intervals([(L, [0], [L.top])])
    for requests in ([], [(L, [], [])]):
        found = decide_intervals(requests)
        for field in fields(lt.IntervalVerdicts):
            got, like = getattr(found, field.name), getattr(want, field.name)
            assert got.shape == (0,) + like.shape[1:] and got.dtype == like.dtype, field.name


def _tampered_v4(where):
    """V4 = F2 + F2^4 over F2 with a lattice built afresh and one table
    entry changed by ``where(L)``, which returns the top t of the interval
    [0, t] the change is in; returns the extension, the lattice and t."""
    S = fr.idealization(fr.gf(2), (2, 2, 2, 2))
    E = ex.Extension(S, ex.prime_subring(S), name="V4")
    L = constructor_interval(E.lattice(), 0, E.lattice().top)
    top = where(L)
    E._cache["lattice"] = L
    return E, L, top


def _escape(L):
    # the join of two atoms a, b set to a third atom c leaves [0, a v b]
    a, b, c = L.atoms()[:3]
    top = int(L.join[a, b])
    L.join[a, b] = L.join[b, a] = c
    return top


def _diamond(L):
    # inside the 5-node interval [0, a v b], the meet of two atoms set to
    # one of them: the interval stays closed, and its routes part
    a, b = L.atoms()[:2]
    L.meet[a, b] = L.meet[b, a] = a
    return int(L.join[a, b])


@pytest.mark.parametrize("where", [_escape, _diamond])
def test_a_tampered_interval_raises_as_its_slice(where):
    _, L, top = _tampered_v4(where)
    i, j = np.nonzero(L.leq)
    found = decide_intervals([(L, i, j)])
    k = int(np.flatnonzero((i == 0) & (j == top))[0])
    with pytest.raises(LatticeError) as want:
        slice_routes(L.interval(0, top))
    assert str(found.error(k)) == str(want.value)
    with pytest.raises(LatticeError) as got:
        found.check(k)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("where", [_escape, _diamond])
def test_interval_sample_reports_as_the_slices(where):
    got_E, want_E = _tampered_v4(where)[0], _tampered_v4(where)[0]
    try:
        want = slice_interval_agreement([want_E], 1000, 0)
    except LatticeError as exc:
        with pytest.raises(LatticeError) as got:
            verify.random_interval_agreement([got_E], count=1000, seed=0)
        assert str(got.value) == str(exc)
        return
    assert verify.random_interval_agreement([got_E], count=1000, seed=0) == want
    assert want[1] is not None
