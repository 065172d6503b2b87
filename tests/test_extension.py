from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringlattice import catalog as cat
from ringlattice import dsl
from ringlattice import finring as fr
from ringlattice import extension as ex
from ringlattice import verify
from ringlattice.checks import doubled_ring

from ringlattice.verify import brute_force_subrings

from oracles import (SMALL_RINGS, corner_localization, every_s_is_minimal_pair,
                     every_s_is_simple, every_s_monogenic_subrings,
                     largest_common_ideal, loop_closed_pair,
                     quotient_route_is_inert, small_ring)


# -- interval enumeration against the exhaustive subset oracle ----------

def test_e1_interval_matches_subset_oracle(e1):
    oracle = brute_force_subrings(e1.ambient, e1.base)
    assert e1.lattice().nodes == oracle
    assert len(oracle) == 2


def test_e4_interval_matches_subset_oracle(e4):
    oracle = brute_force_subrings(e4.ambient, e4.base)
    assert e4.lattice().nodes == oracle
    assert len(oracle) == 5


def test_e5_interval_matches_subset_oracle(e5):
    oracle = brute_force_subrings(e5.ambient, e5.base)
    assert e5.lattice().nodes == oracle
    assert len(oracle) == 6


def test_node_limit_guard(e5):
    fresh = ex.Extension(e5.ambient, e5.base)
    with pytest.raises(fr.RingError, match="node limit|nodes"):
        ex.enumerate_interval(fresh, node_limit=3)


def test_cached_lattice_honours_the_node_limit():
    # the limit raises the same error whether or not the lattice is cached
    S = fr.product_ring([fr.gf(2)] * 4)
    msg = "interval enumeration exceeded 3 nodes"
    with pytest.raises(fr.RingError, match=msg):
        ex.Extension(S, ex.prime_subring(S)).lattice(node_limit=3)
    E = ex.Extension(S, ex.prime_subring(S))
    L = E.lattice()
    assert len(L.nodes) == 15
    with pytest.raises(fr.RingError, match=msg):
        E.lattice(node_limit=3)
    assert E.lattice(node_limit=15) is L


# -- generated subrings --------------------------------------------------

def test_generated_subring_reaches_field(F4):
    prime = ex.prime_subring(F4)
    assert len(prime) == 2
    gen = ex.generated_subring(F4, prime, [F4.varmap["x"]])
    assert len(gen) == 4


def test_generated_subring_empty_is_base(e5):
    assert ex.generated_subring(e5.ambient, e5.base, []) == e5.base


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.sets(st.integers(0, 7), max_size=2),
       st.lists(st.integers(0, 7), max_size=3))
def test_generated_subring_fold_is_one_closure(name, seed, elems):
    # adjoining the elements one at a time reaches the one-shot closure
    R = small_ring(name)
    base = frozenset(R.subring_closure(seed).tolist())
    gen = ex.generated_subring(R, base, elems)
    assert gen == frozenset(R.subring_closure(sorted(base) + elems).tolist())


def _doubled(E):
    """base(+)top <= top(+)top, the doubled extension of
    idealization_transfer, on a fresh ring."""
    n = len(E.top)
    pos = {x: i for i, x in enumerate(sorted(E.top))}
    return ex.Extension(doubled_ring(E.ambient, E.top),
                        [pos[r] * n + i for r in sorted(E.base) for i in range(n)])


def _assert_monogenic_matches_every_s(E):
    # the same generators, least ones included, in the same order
    assert list(ex.monogenic_subrings(E).items()) == \
        list(every_s_monogenic_subrings(E).items())


def test_monogenic_subrings_match_the_every_s_loop():
    for inst in cat.CATALOG:
        E = dsl.build_extension(inst.spec)
        _assert_monogenic_matches_every_s(E)
        if len(E.top) <= 16:
            _assert_monogenic_matches_every_s(_doubled(E))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.sets(st.integers(0, 7), max_size=2))
def test_monogenic_subrings_match_the_every_s_loop_on_small_rings(name, seed):
    R = small_ring(name)
    E = ex.Extension(R, R.subring_closure(seed))
    _assert_monogenic_matches_every_s(E)
    _assert_monogenic_matches_every_s(_doubled(E))


def test_monogenic_subrings_close_one_s_per_coset(monkeypatch, e5):
    # lo[s + b] = lo[s] for b in lo: a fresh ring runs one closure from the
    # base per coset of the base in top - base, and the base's own closure
    S = fr.gf(2, 6)
    closures, closure = {"over": 0, "scratch": 0}, fr.FiniteRing.subring_closure

    def counting_closure(self, seed, **kw):
        closures["over" if kw.get("over") is not None else "scratch"] += 1
        return closure(self, seed, **kw)

    for E in (ex.Extension(S, ex.prime_subring(S)), _doubled(e5)):
        monkeypatch.setattr(fr.FiniteRing, "subring_closure", counting_closure)
        gens = ex.monogenic_subrings(E)
        monkeypatch.undo()
        assert closures == {"over": len(E.top) // len(E.base) - 1, "scratch": 1}
        assert gens == every_s_monogenic_subrings(E)
        closures.update(over=0, scratch=0)


def test_generated_subring_e5_seminormalization(e5):
    # adjoining (x, 0) to the prime ring gives the seminormalization
    S = e5.ambient
    Rx, K4 = S.factors
    x0 = fr.product_element(S, [Rx.varmap["x"], K4.zero])
    gen = ex.generated_subring(S, e5.base, [x0])
    assert gen == e5.decomposition().plus


# -- conductor -----------------------------------------------------------

def test_conductor_trivial_extension(e5):
    assert ex.conductor_pair(e5.ambient, e5.top, e5.top) == e5.top


def test_conductor_e1_is_zero_ideal(e1):
    # z*S <= R forces z in R, and 1 is excluded since S != R
    assert ex.conductor(e1) == frozenset({e1.ambient.zero})


def test_conductor_e2_is_zero(e2):
    assert ex.conductor(e2) == frozenset({e2.ambient.zero})


def test_conductor_is_largest_common_ideal(e1, e4, e5):
    for E in (e1, e4, e5):
        assert ex.conductor(E) == largest_common_ideal(E.ambient, E.base)


# -- support, localization, fibers ---------------------------------------

def test_support_trivial_is_empty(e5):
    triv = ex.Extension(e5.ambient, e5.top, e5.top)
    assert ex.support_profile(triv).msupp == []


def test_support_e5_crucial(e5):
    prof = e5.profile()
    assert len(prof.msupp) == 1
    assert prof.crucial == prof.msupp[0]


def test_support_e9_two_ideals(e9):
    prof = e9.profile()
    assert len(prof.msupp) == 2
    assert prof.crucial is None


def test_localize_e9_gives_the_two_minimal_pieces(e9):
    sizes = set()
    for M in e9.profile().msupp:
        loc = e9.localized(M)
        sizes.add((len(loc.base), len(loc.top), len(loc.lattice().nodes)))
    assert sizes == {(2, 4, 2)}
    # one factor is a field (inert leg), the other is not (ramified leg)
    kinds = set()
    for M in e9.profile().msupp:
        loc = e9.localized(M)
        kinds.add(ex.classify_minimal(loc).value)
    assert kinds == {"inert", "ramified"}


def test_localize_local_base_is_identity_shape(e1):
    M = e1.max_ideals_base()[0]
    loc = e1.localized(M)
    assert len(loc.top) == len(e1.top) and len(loc.base) == len(e1.base)


def test_localized_local_base_full_top_is_the_extension(e1, e5):
    # a local base has the primitive idempotent 1: R_M = R and S_M = S
    M = e1.max_ideals_base()[0]
    assert e1.localized(M) is e1
    copy = ex.localize_at(e1, M)
    assert (copy.base, copy.top) == (e1.base, e1.top)
    assert copy.lattice().nodes == e1.lattice().nodes
    with pytest.raises(fr.RingError, match="not a maximal ideal"):
        e1.localized(e1.base)
    # a proper top still goes through the re-indexed ring
    part = ex.Extension(e5.ambient, e5.base, e5.decomposition().t)
    M5 = part.max_ideals_base()[0]
    loc = part.localized(M5)
    assert loc is not part and len(loc.top) == len(part.top)


def _assert_localizations_match_corners(E):
    # top/(1 - e)top over the base's image is the corner e*top over e*base
    for M in E.max_ideals_base():
        loc, corner = ex.localize_at(E, M), corner_localization(E, M)
        assert (len(loc.base), len(loc.top)) == (len(corner.base), len(corner.top))
        L, C = loc.lattice(), corner.lattice()
        assert len(L.nodes) == len(C.nodes)
        assert replace(L.verdict(), witness=None) == replace(C.verdict(), witness=None)
        assert fr.rings_isomorphic(loc.ambient, corner.ambient)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.sets(st.integers(0, 7), max_size=2))
def test_localization_matches_corner_on_small_rings(name, seed):
    R = small_ring(name)
    _assert_localizations_match_corners(ex.Extension(R, R.subring_closure(seed)))


def test_localization_matches_corner(e5, e6):
    for E in (e5, e6, ex.Extension(e5.ambient, e5.base, e5.decomposition().t)):
        _assert_localizations_match_corners(E)


def test_fibers_examples(e1, e2, e6):
    f1 = ex.fibers(e1)
    assert [len(v) for v in f1.values()] == [1]
    f2 = ex.fibers(e2)
    assert [len(v) for v in f2.values()] == [2]
    f6 = ex.fibers(e6)
    assert [len(v) for v in f6.values()] == [2]


def test_residual_extension_degrees(e1, e3, e5):
    # the residue-field extension at Q is (base + Q)/Q <= top/Q
    S = e3.ambient
    res = ex.quotient_extension(S, e3.base, e3.top, [S.zero])
    assert len(res.base) == 2 and res.ambient.size == 4
    assert fr.is_field(res.ambient)
    Q = e1.max_ideals_top()[0]
    res = ex.quotient_extension(e1.ambient, e1.base, e1.top, Q)
    assert len(res.base) == 2 and res.ambient.size == 2
    assert fr.is_field(res.ambient)
    # E5: the maximal ideal over the F4 factor has residue F4
    degs = sorted(ex.residual_degrees(e5.ambient, e5.base, e5.top))
    assert degs == [(2, 2), (2, 4)]


# -- minimal classification ----------------------------------------------

def test_classify_minimal_types(e1, e2, e3):
    assert ex.classify_minimal(e1) is ex.MinimalType.RAMIFIED
    assert ex.classify_minimal(e2) is ex.MinimalType.DECOMPOSED
    assert ex.classify_minimal(e3) is ex.MinimalType.INERT


def test_classify_non_minimal_is_none(e4):
    assert ex.classify_minimal(e4) is None


def test_classify_requires_proper_extension(e5):
    triv = ex.Extension(e5.ambient, e5.top, e5.top)
    with pytest.raises(fr.RingError):
        ex.classify_minimal(triv)


def test_cover_types_match_paper_diagram(e5):
    # nodes sorted by size: 0=k, 1=UxU?, order fixed by element sets;
    # check the multiset of (|lo|,|hi|,type) edges of the 6-node lattice
    L = e5.lattice()
    types = ex.cover_types(e5)
    edges = sorted((len(L.nodes[i]), len(L.nodes[j]), t.value)
                   for (i, j), t in types.items())
    assert edges == [
        (2, 4, "decomposed"),   # k -> k x k
        (2, 4, "ramified"),     # k -> k + (kx x 0)
        (4, 8, "decomposed"),   # seminormalization -> t-closure
        (4, 8, "inert"),        # k x k -> k x K
        (4, 8, "ramified"),     # k x k -> t-closure
        (8, 16, "inert"),       # t-closure -> S
        (8, 16, "ramified"),    # k x K -> S
    ]


def test_classify_agrees_with_definitional_minimality(e4, e5, e6):
    # every cover of the enumerated lattice must pass the independent
    # monogenic minimality search, and every non-cover must fail it
    for E in (e4, e5, e6):
        L = E.lattice()
        for i in range(len(L.nodes)):
            for j in range(len(L.nodes)):
                if i == j or not L.leq[i, j]:
                    continue
                is_cover = bool(L.covers[i, j])
                assert ex.is_minimal_pair(E.ambient, L.nodes[i], L.nodes[j]) == is_cover


def test_minimal_and_simple_agree_with_the_every_s_loop(e4, e5):
    # on every comparable node pair, one s per coset decides both
    # predicates as closing lo[s] for every s does, and both sides occur
    S = fr.idealization(fr.gf(2), (2, 2, 2, 2))
    v4 = ex.Extension(S, ex.prime_subring(S))
    seen = set()
    for E in (e4, e5, v4):
        S, nodes = E.ambient, E.lattice().nodes
        for lo in nodes:
            for hi in nodes:
                if not lo <= hi:
                    continue
                minimal = ex.is_minimal_pair(S, lo, hi)
                simple = ex.is_simple(ex.Extension(S, lo, hi))
                assert minimal == every_s_is_minimal_pair(S, lo, hi)
                assert simple == every_s_is_simple(S, lo, hi)
                seen.add((minimal, simple))
    assert seen == {(False, False), (True, True), (False, True)}


def test_closure_predicates_match_the_element_loop(e4, e5, e6):
    # seminormal (r = 0), u-closed (r = 1) and t-closed (r in lo) on every
    # comparable node pair, V4 = F2 + F2^4 over F2 included
    V = fr.idealization(fr.gf(2), (2, 2, 2, 2))
    seen = set()
    for E in (e4, e5, e6, ex.Extension(V, ex.prime_subring(V))):
        S, L = E.ambient, E.lattice()
        for i, j in np.argwhere(L.leq).tolist():
            lo, hi = L.nodes[i], L.nodes[j]
            got = (ex.is_seminormal(S, lo, hi), ex.is_u_closed(S, lo, hi),
                   ex.is_t_closed(S, lo, hi))
            assert got == (loop_closed_pair(S, lo, hi, [S.zero]),
                           loop_closed_pair(S, lo, hi, [S.one]),
                           loop_closed_pair(S, lo, hi, sorted(lo))), (E.name, i, j)
            seen.add(got)
    # each predicate is seen both true and false
    assert all({got[k] for got in seen} == {True, False} for k in range(3))


PAIR_FACTS = {"conductor": ex.conductor_pair, "seminormal": ex.is_seminormal,
              "u_closed": ex.is_u_closed, "t_closed": ex.is_t_closed,
              "infra_integral": ex.is_infra_integral_pair,
              "subintegral": ex.is_subintegral_pair}


class _NoMemo(dict):
    """A pair-fact memo that stores nothing, so every call scans."""

    def __setitem__(self, key, value):
        pass


def _assert_pair_facts_memoised(E):
    S, L = E.ambient, E.lattice()
    pairs = [(L.nodes[i], L.nodes[j]) for i, j in np.argwhere(L.leq).tolist()]
    memo, S._pair_facts = S._pair_facts, _NoMemo()
    try:
        fresh = [{k: f(S, lo, hi) for k, f in PAIR_FACTS.items()}
                 for lo, hi in pairs]
    finally:
        S._pair_facts = memo
    for (lo, hi), want in zip(pairs, fresh):
        got = {k: f(S, lo, hi) for k, f in PAIR_FACTS.items()}
        assert got == want
        for kind, value in got.items():
            assert memo[(kind, lo, hi)] is value
        assert ex.conductor_pair(S, lo, hi) is got["conductor"]
    return {(k, v) for facts in fresh for k, v in facts.items()
            if k != "conductor"}


def test_pair_facts_are_memoised_and_equal_fresh_scans():
    seen = set()
    for _, a in verify.build_catalog_analyses():
        seen |= _assert_pair_facts_memoised(a)
    assert seen == {(k, v) for k in PAIR_FACTS if k != "conductor"
                    for v in (True, False)}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.sets(st.integers(0, 7), max_size=2))
def test_pair_facts_are_memoised_and_equal_fresh_scans_on_small_rings(name, seed):
    R = small_ring(name)
    _assert_pair_facts_memoised(ex.Extension(R, R.subring_closure(seed)))


def test_inert_covers_agree_with_the_quotient_route():
    # on every cover of every catalog instance, M = (lo : hi) in Max(hi)
    # decides the inert case exactly when hi/M is a field over a 2-node
    # residue interval
    seen = {True: 0, False: 0}
    for inst, a in verify.build_catalog_analyses():
        nodes = a.lattice().nodes
        for (i, j), t in ex.cover_types(a).items():
            inert = quotient_route_is_inert(a.ambient, nodes[i], nodes[j])
            assert (t is ex.MinimalType.INERT) == inert, (inst.name, i, j)
            seen[inert] += 1
    assert seen[True] > 0 and seen[False] > 0


# -- flags ----------------------------------------------------------------

def test_flags_e4(e4):
    f = e4.flags()
    assert f.subintegral and f.infra_integral
    assert not f.arithmetic and not f.chained
    assert f.delta
    assert not f.seminormal


def test_flags_e2(e2):
    f = e2.flags()
    assert f.seminormal and f.infra_integral
    assert not f.i_extension
    assert not f.subintegral


def test_flags_e5(e5):
    f = e5.flags()
    assert not f.subintegral and not f.seminormal and not f.u_closed
    assert f.simple is True
    assert f.branched is True


def test_flags_trivial_extension(e5):
    triv = ex.Extension(e5.ambient, e5.top, e5.top)
    f = triv.flags()
    assert f.trivial
    assert f.subintegral is None and f.chained is None and f.delta is None


def test_chained_implies_flags_consistency(e3):
    f = e3.flags()
    assert f.t_closed and f.chained and f.simple


# -- canonical decomposition ----------------------------------------------

def test_decomposition_e5_matches_expected_sets(e5):
    S = e5.ambient
    Rx, K4 = S.factors
    d = e5.decomposition()
    x0 = fr.product_element(S, [Rx.varmap["x"], K4.zero])
    plus_expected = frozenset(S.subring_closure(sorted(e5.base) + [x0]).tolist())
    assert d.plus == plus_expected
    u_expected = frozenset(fr.product_element(S, [a, b])
                           for a in [Rx.zero, Rx.one] for b in [K4.zero, K4.one])
    assert d.u == u_expected
    t_expected = frozenset(fr.product_element(S, [a, b])
                           for a in range(4) for b in [K4.zero, K4.one])
    assert d.t == t_expected
    # co-subintegral closure is k x K
    cosub_expected = frozenset(fr.product_element(S, [a, b])
                               for a in [Rx.zero, Rx.one] for b in range(4))
    assert d.cosub == cosub_expected


def test_decomposition_field_extension_all_base(e3):
    d = e3.decomposition()
    assert d.plus == e3.base and d.t == e3.base and d.u == e3.base


def test_decomposition_chain_containments(e4, e5, e6):
    for E in (e4, e5, e6):
        d = E.decomposition()
        assert E.base <= d.plus <= d.t <= E.top
        assert d.u <= d.t


def test_decomposition_e6_u_is_product(e6):
    S = e6.ambient
    Rt, RX = S.factors
    R2 = frozenset(fr.product_element(S, [a, b]) for a in range(4) for b in range(4))
    assert e6.decomposition().u == R2


# -- splitters and chains ---------------------------------------------------

def test_splitter_extremes(e9):
    assert ex.splitter(e9, []) == e9.base
    assert ex.splitter(e9, e9.profile().msupp) == e9.top


def test_splitter_e9_middle(e9):
    S = e9.ambient
    F4f, Rxf = S.factors
    ms = e9.profile().msupp
    mids = {ex.splitter(e9, [m]) for m in ms}
    f4xf2 = frozenset(fr.product_element(S, [a, b])
                      for a in range(4) for b in [Rxf.zero, Rxf.one])
    f2xrx = frozenset(fr.product_element(S, [a, b])
                      for a in [F4f.zero, F4f.one] for b in range(4))
    assert mids == {f4xf2, f2xrx}


def test_pinched_and_complements_extension_surface(e5):
    d = e5.decomposition()
    assert not ex.is_pinched_at(e5, [d.t])
    assert ex.is_pinched_at(e5, [])
    assert ex.complements(e5, e5.base) == [e5.top]
    assert ex.complements(e5, d.t) == []            # meets V only down to u
    assert ex.complements(e5, d.plus) == [d.cosub]  # the opposite ladder corner
    with pytest.raises(fr.RingError):
        ex.is_pinched_at(e5, [frozenset({0})])


# -- property tests ----------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(0, 15), max_size=4))
def test_monogenic_join_closure_invariant(gens):
    # the interval of any generated extension contains base and top and
    # every node is a subring containing the base
    S = fr.product_ring([fr.zmod(4), fr.zmod(2), fr.zmod(2)])
    sub = S.subring_closure(list(gens))
    E = ex.Extension(S, frozenset(sub.tolist()))
    L = E.lattice()
    assert L.nodes[0] == E.base and L.nodes[-1] == E.top
    for node in L.nodes:
        assert E.base <= node
        assert S.is_subring(node)
