import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ringlattice import dsl, extension as ex, finring as fr
from ringlattice.checks import doubled_ring

from oracles import (SMALL_RINGS, assert_ring_axioms, brute_force_ideals,
                     brute_force_subrings, isin_conductor_pair, isin_ideal_of,
                     isin_subring, largest_common_ideal, loop_subring_unit,
                     small_ring)


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
    assert fr.zmod(12).additive_invariants() == (12,)
    P = fr.product_ring([fr.zmod(4), fr.zmod(2)])
    assert P.additive_invariants() == (4, 2)
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
        k, _ = fr.residue_field(R, fr.as_index_array(M))
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
    quo, _ = fr.quotient_ring(R, fr.as_index_array(ideal))
    assert_ring_axioms(quo)
    quo_struct, _ = fr.as_struct_ring(quo)
    assert_ring_axioms(quo_struct)

    M = data.draw(st.sampled_from(fr.maximal_ideals(R)))
    field, _ = fr.residue_field(R, fr.as_index_array(M))
    assert_ring_axioms(field)

    seed = data.draw(st.sets(st.integers(0, R.size - 1), max_size=2))
    assert_ring_axioms(doubled_ring(R, R.subring_closure(seed)))


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


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.sets(st.integers(0, 7), max_size=3))
def test_subring_unit_matches_loop(name, seed):
    R = small_ring(name)
    T = R.subring_closure(seed)
    assert fr.subring_unit(R, T) == loop_subring_unit(R, T) == R.one
    # each factor e*T is a ring whose unit is e, not the unit of R
    for e in fr.primitive_idempotents(R, T).idempotents:
        eT = np.unique(R.mul[e, T])
        assert fr.subring_unit(R, eT) == loop_subring_unit(R, eT) == e
    # a maximal ideal has a unit only when an idempotent generates it
    for M in fr.maximal_ideals(R, T):
        assert _unit_or_error(fr.subring_unit, R, M) == \
            _unit_or_error(loop_subring_unit, R, M)


def _unit_or_error(subring_unit, R, X):
    try:
        return subring_unit(R, X)
    except fr.RingError as exc:
        return str(exc)
