import collections
import io
import itertools

import numpy as np
import pytest

from ringlattice import checks, cli, dsl, verify
from ringlattice import extension as ex
from ringlattice import finring as fr
from ringlattice import lattice as lt

from hypothesis import given, settings, strategies as st

from oracles import (PAIR_FACT_KINDS, SMALL_RINGS, closure_principal_ideal,
                     closure_product_inside, doubled_ring_tables, memo_without,
                     pairwise_b2_structure_cases, record_computes, small_ring)


def analysis_of(name):
    from ringlattice import catalog as cat
    E = dsl.build_extension(cat.BY_NAME[name].spec)
    E.name = name
    return E


@pytest.fixture(scope="module")
def a5():
    return analysis_of("E5")


@pytest.fixture(scope="module")
def a4():
    return analysis_of("E4")


def test_unknown_check_id_raises(a4):
    with pytest.raises(KeyError, match="unknown check id"):
        verify.run_check("no_such_check", a4)


def test_subintegral_arithmetic_check_negative_side(a4):
    # both sides false on the diamond: not distributive, not arithmetic
    r = verify.run_check("subintegral_distributive_iff_arithmetic", a4)
    assert r.status == "pass" and r.side == "lhs_false"


def test_length_formula_on_the_flagship(a5):
    r = verify.run_check("length_formula_local", a5)
    assert r.status == "pass"
    # the numbers behind it: 3 = 1 + 1 + 2 - 1
    L, d = a5.lattice(), a5.decomposition()
    assert L.length == 3
    assert int(L.levels_from(0)[L.index[d.plus]]) == 1
    assert int(L.levels_from(L.index[d.t])[L.top]) == 1
    assert len(a5.max_ideals_top()) == 2


def test_count_formula_on_the_flagship(a5):
    r = verify.run_check("count_formula_local", a5)
    assert r.status == "pass"


def test_checks_not_applicable_on_trivial_extension(a5):
    triv = ex.Extension(a5.ambient, a5.top, a5.top, name="trivial")
    for name in ["chain_type_profile", "fiber_bound", "branched_characterization",
                 "localization_equivalence", "count_formula_local"]:
        r = verify.run_check(name, triv)
        assert r.status == "n/a", name


def test_fiber_bound_contrapositive():
    a13 = analysis_of("E13")
    r = verify.run_check("fiber_bound", a13)
    assert r.status == "n/a"            # not distributive: implication untested
    assert max(len(v) for v in ex.fibers(a13).values()) == 3


def test_branched_characterization_covers_both_sides():
    a16 = analysis_of("E16")
    r = verify.run_check("branched_characterization", a16)
    assert r.status == "pass" and r.side == "lhs_false"
    a5 = analysis_of("E5")
    r5 = verify.run_check("branched_characterization", a5)
    assert r5.status == "pass" and r5.side == "lhs_true"


def test_splitter_ladder_applicable_exactly_on_crossed_case(a5):
    r = verify.run_check("branched_splitter_ladder", a5)
    assert r.status == "pass"
    a12 = analysis_of("E12")
    r12 = verify.run_check("branched_splitter_ladder", a12)
    assert r12.status == "n/a"          # pinched case


def test_module_correspondence_on_idealization_instances(a4):
    r = verify.run_check("module_lattice_correspondence", a4)
    assert r.status == "pass" and r.side == "lhs_false"
    a1 = analysis_of("E1")
    assert verify.run_check("module_lattice_correspondence", a1).status == "pass"


def test_u_elementary_check():
    a = analysis_of("E6u")
    r = verify.run_check("one_generator_idempotent_like_fibers", a)
    assert r.status == "pass"


def test_galois_check_only_on_fields(a5):
    assert verify.run_check("field_interval_is_divisor_lattice",
                            a5).status == "n/a"
    a8 = analysis_of("E8")
    assert verify.run_check("field_interval_is_divisor_lattice",
                            a8).status == "pass"


def test_failed_check_carries_witness(a5):
    # feed a check an extension violating its conclusion through a doctored
    # analysis: the diamond is subintegral and non-distributive, so the
    # locally-minimal implication check must stay n/a, while an artificial
    # pass-through on E13 (fibers of size 3) trips the fiber bound only if
    # we force the distributive flag; instead verify that genuine failures
    # surface as fail with a witness by breaking an expectation
    from ringlattice import catalog as cat
    inst = cat.BY_NAME["E4"]
    a = dsl.build_extension(inst.spec)
    broken = cat.Expectation("node_count", 6, "DERIVED")
    res = verify.expectation_results(
        cat.CatalogInstance("E4", "", inst.spec, (broken,)), a)
    assert res[0].status == "fail"
    assert res[0].witness == {"expected": 6, "measured": 5, "tag": "DERIVED"}


@pytest.mark.parametrize("fixture", ["e1", "e4", "e5"])
def test_doubled_ring_matches_elementwise_definition(fixture, request):
    E = request.getfixturevalue(fixture)
    # the top, and the base as a proper subring whose indices are re-mapped
    for T in (E.top, E.base):
        big = checks.doubled_ring(E.ambient, sorted(T))
        add, mul, one = doubled_ring_tables(E.ambient, T)
        assert np.array_equal(big.add, add)
        assert np.array_equal(big.mul, mul)
        assert big.one == one and big.size == len(T) ** 2


def _partition_analysis(n):
    # F2^n over F2: its subrings are the Bell(n) Boolean subalgebras
    spec = ("ring F2 = gf(2)\nring S = product(" + ", ".join(["F2"] * n)
            + f")\next P{n} = extension(S, base=[])\n")
    return dsl.build_extension(spec)


@pytest.fixture(scope="module")
def p5():
    return _partition_analysis(5)


def test_full_suite_on_pi6_is_exhaustive():
    # 203 nodes and 2,700 maximal chains: the path checks fold over the
    # Hasse diagram, so no check stops at a cap
    a = _partition_analysis(6)
    assert len(a.lattice().nodes) == 203
    results = {cid: verify.run_check(cid, a) for cid in sorted(verify.CHECKS)}
    failed = {cid: r.witness for cid, r in results.items() if r.status == "fail"}
    assert failed == {}
    for cid in ("chain_type_profile", "isotopic_chain_suffices",
                "support_via_chain_conductors", "cover_minimality_consistency",
                "b2_structure_cases"):
        assert results[cid].status == "pass", cid


def test_zero_ideal_builds_no_quotient(monkeypatch, p5, a5):
    # S/{0} is the extension itself; the only ideal of F2^5 inside the
    # base F2 is {0}
    quotient = fr.quotient_of_subring
    calls = []

    def counting(S, subring, ideal, label=None):
        calls.append(len(ideal))
        return quotient(S, subring, ideal, label)

    monkeypatch.setattr(fr, "quotient_of_subring", counting)
    assert verify.run_check("shared_ideal_quotient_equivalence", p5).status == "pass"
    assert calls == []
    assert verify.run_check("quotient_transfer", a5).status == "pass"
    assert calls and 1 not in calls


@pytest.mark.parametrize("name", ["GF64", "G3_4"])
def test_quotient_by_zero_builds_no_ring(monkeypatch, name):
    # on a field hi/{0} is hi: the b2 cases and the residue fields read the
    # interval already held, and no check quotients by {0}
    a = analysis_of(name) if name == "G3_4" else dsl.build_extension(
        "ring S = gf(2, 6)\next GF64 = extension(S, base=[])\n")
    quotient, sizes = fr.quotient_of_subring, []

    def counting(S, subring, ideal, label=None):
        sizes.append(len(ideal))
        return quotient(S, subring, ideal, label)

    monkeypatch.setattr(fr, "quotient_of_subring", counting)
    status = {check: verify.run_check(check, a).status for check in verify.CHECKS}
    assert status["b2_structure_cases"] == "pass"
    assert status["t_closed_residual_distributivity"] == "pass"
    assert "fail" not in status.values() and 1 not in sizes


def _length2_objects(a):
    """The length-2 pairs (v, w) of a's lattice that left a sub-extension
    in a's memo or an ("interval", v, w) slice in its lattice's memo."""
    L = a.lattice()
    pairs = {(v, w) for v in range(L.n) for w in np.flatnonzero(L.levels_from(v) == 2).tolist()}
    subs = {(L.index[key[1]], L.index[key[2]]) for key in a._cache
            if isinstance(key, tuple) and key[0] == "sub"}
    slices = {key[1:] for key in L._cache if isinstance(key, tuple) and key[0] == "interval"}
    return (subs | slices) & pairs


def test_b2_cases_on_v4_prove_and_build_nothing(monkeypatch):
    # the lhs comes from the interval kernel and R+ from the pair facts, so
    # no length-2 pair builds a lattice, a slice or a sub-extension
    from ringlattice.lattice import ExtensionLattice
    S = fr.idealization(fr.gf(2), (2, 2, 2, 2))
    a = ex.Extension(S, ex.prime_subring(S), name="V4")
    a.lattice()
    counts = {"is_subring": 0, "__init__": 0}

    def counting(owner, attr):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[attr] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)

    counting(fr.FiniteRing, "is_subring")
    counting(ExtensionLattice, "__init__")
    assert verify.run_check("b2_structure_cases", a).status == "pass"
    assert counts == {"is_subring": 0, "__init__": 0}
    assert _length2_objects(a) == set()


def test_no_length2_pair_leaves_an_object_on_pi5():
    # after all 61 checks, b2_structure_cases included
    S = fr.product_ring([fr.gf(2)] * 5)
    a = ex.Extension(S, ex.prime_subring(S), name="Pi5")
    for name in sorted(verify.CHECKS):
        assert verify.run_check(name, a).status != "fail", name
    assert _length2_objects(a) == set()


def test_no_memo_key_is_computed_twice(monkeypatch):
    # analyze, every check and the interval sample on fresh Pi5 and V4 =
    # F2 + F2^4 compute each key of each ring, extension and lattice memo
    # once; the routes run once per lattice or slice (its verdict row) and
    # once per stack of the interval sample, each with its one modular scan
    computed = record_computes(monkeypatch)
    runs, decide, law_scan = collections.Counter(), lt._decide, lt._Stack.law_scan

    def counting_decide(stack):
        runs["kernel"] += 1
        return decide(stack)

    def counting_scan(stack, modular):
        runs["modular scan"] += modular
        return law_scan(stack, modular)

    monkeypatch.setattr(lt, "_decide", counting_decide)
    monkeypatch.setattr(lt._Stack, "law_scan", counting_scan)
    for S in (fr.product_ring([fr.gf(2)] * 5), fr.idealization(fr.gf(2), (2, 2, 2, 2))):
        E = ex.Extension(S, ex.prime_subring(S), name="fresh")
        cli._print_analysis(E, io.StringIO())
        cli._analysis_doc(E)
        cli.dot_export(E)
        for name in sorted(verify.CHECKS):
            assert verify.run_check(name, E).status != "fail", name
        assert verify.random_interval_agreement([E], count=200, seed=0) == (200, None)
    counts = collections.Counter((id(memo), key) for memo, key in computed)
    assert [key for key, count in counts.items() if count > 1] == []
    kinds = {key[0] if isinstance(key, tuple) else key for _, key in computed}
    assert kinds >= {
        "arr", "adjoin", "decomposition", "nilpotent_mask", "conductor",
        "spectral", "closed",                                       # rings
        "lattice", "flags", "decomp", "profile", "cover_types", "sub",
        "loc",                                                      # extensions
        "levels_from", "interval", "_verdicts", "_order_rows",
        "verdict", "pinch_points"}                                  # lattices
    # a kernel run is a verdict row of a lattice or a slice, or a stack of
    # decide_intervals; slices have rows too
    rows = [id(memo) for memo, key in computed if key == ("_verdicts",)]
    assert len(rows) < runs["kernel"] == runs["modular scan"]
    # one row per lattice or slice, and every verdict read off its row
    assert len(rows) == len(set(rows))
    assert {id(memo) for memo, key in computed if key == ("verdict",)} <= set(rows)
    slices = {id(memo[key]._cache) for memo, key in computed
              if isinstance(key, tuple) and key[0] == "interval"}
    assert slices & set(rows)


def _assert_b2_routes_agree(E, monkeypatch):
    """The b2 check against the per-pair check on a fresh extension of the
    same ring with an empty pair-fact memo; returns the status."""
    got = verify.run_check("b2_structure_cases", E)
    fresh = ex.Extension(E.ambient, E.base, E.top)
    with monkeypatch.context() as m:
        m.setattr(E.ambient, "_cache", memo_without(E.ambient, *PAIR_FACT_KINDS))
        want = pairwise_b2_structure_cases(fresh)
    assert (got.status, got.witness) == (want.status, want.witness), E.name
    return got.status


def test_b2_cases_match_the_pairwise_check(monkeypatch, reference_extensions):
    seen = {_assert_b2_routes_agree(E, monkeypatch) for E in reference_extensions}
    assert seen == {"pass", "n/a"}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.sets(st.integers(0, 7), max_size=2))
def test_b2_cases_match_the_pairwise_check_on_small_rings(name, seed):
    R = small_ring(name)
    with pytest.MonkeyPatch.context() as m:
        _assert_b2_routes_agree(ex.Extension(R, R.subring_closure(seed)), m)


def test_b2_cases_fail_alike_on_a_tampered_fact(monkeypatch):
    # [F2, F64] is Boolean (subfields of degree 1, 2, 3, 6) and t-closed with
    # conductor 0; a tampered t-closed fact empties its case list
    def gf64():
        E = dsl.build_extension("ring S = gf(2, 6)\next GF64 = extension(S, base=[])\n")
        L, S = E.lattice(), E.ambient
        closed = ex.is_seminormal(S, E.base, E.top), ex.is_u_closed(S, E.base, E.top)
        monkeypatch.setitem(S._cache, ("closed", E.base, E.top), (*closed, False))
        return E, L
    E, L = gf64()
    got = verify.run_check("b2_structure_cases", E)
    want = pairwise_b2_structure_cases(gf64()[0])
    assert got.status == want.status == "fail"
    assert got.witness == want.witness == {"interval": [0, L.top], "b2": True,
                                           "cases": False}


def test_b2_cases_group_the_conductors_per_lower_node(monkeypatch):
    # V4: one grouped conductor call per lower node with a level-2 upper,
    # and no support profile per pair
    S = fr.idealization(fr.gf(2), (2, 2, 2, 2))
    a = ex.Extension(S, ex.prime_subring(S), name="V4")
    L = a.lattice()
    lower = [v for v in range(L.n) if (L.levels_from(v) == 2).any()]
    calls = {"cover_conductors": 0, "support_profile": 0}

    def counting(name):
        original = getattr(ex, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(ex, name, wrapper)

    for name in calls:
        counting(name)
    assert verify.run_check("b2_structure_cases", a).status == "pass"
    assert calls == {"cover_conductors": len(lower), "support_profile": 0}
    assert len(lower) == 51


def test_chain_type_profile_reports_a_real_chain(monkeypatch, p5):
    # every cover of F2^5 over F2 is decomposed; one tampered cover makes
    # the chains through it disagree with "seminormal infra-integral"
    L, types = p5.lattice(), ex.cover_types(p5)
    assert {t.value for t in types.values()} == {"decomposed"}
    assert verify.run_check("chain_type_profile", p5).status == "pass"
    cover = (0, L.atoms()[0])
    monkeypatch.setitem(types, cover, ex.MinimalType.INERT)
    r = verify.run_check("chain_type_profile", p5)
    assert r.status == "fail" and r.witness["rule"] == 1
    chain = r.witness["chain"]
    assert chain in L.maximal_chains(0, L.top)
    steps = list(zip(chain, chain[1:]))
    assert cover in steps
    assert r.witness["types"] == sorted({types[s].value for s in steps}) \
        == ["decomposed", "inert"]


def test_cover_minimality_reads_the_cover_types(monkeypatch, p5):
    # cover_types already classified every cover; the check does not
    # classify again
    assert ex.cover_types(p5)
    calls = [0]
    classify = ex.classify_minimal_pair

    def counting(*args, **kwargs):
        calls[0] += 1
        return classify(*args, **kwargs)

    monkeypatch.setattr(ex, "classify_minimal_pair", counting)
    assert verify.run_check("cover_minimality_consistency", p5).status == "pass"
    assert calls[0] == 0


def test_module_check_joins_each_submodule_pair_once(monkeypatch):
    # V4 = F2 + F2^4 over F2: the 67 submodules come from all_ideals, which
    # skips comparable pairs and derives most joins by associativity from
    # every recorded decomposition
    S = fr.idealization(fr.gf(2), (2, 2, 2, 2))
    a = ex.Extension(S, ex.prime_subring(S), name="V4")
    for M in a.profile().msupp:
        a.localized(M).lattice().verdict()
    closures, closure = [0], fr.FiniteRing.additive_closure

    def counting_closure(self, seed, **kw):
        closures[0] += 1
        return closure(self, seed, **kw)

    monkeypatch.setattr(fr.FiniteRing, "additive_closure", counting_closure)
    r = verify.run_check("module_lattice_correspondence", a)
    assert r.status == "pass" and len(a.lattice().nodes) == 67
    # 226 joins and one closure per submodule mapped to its ring
    assert closures[0] == 293


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.sets(st.integers(0, 7), max_size=2))
def test_ideal_tests_on_products_match_the_closures(name, seed):
    # an ideal M holds PQ iff it holds every product pq, and the ideal (m)
    # of a subring is m times the subring: the tests of
    # two_atom_composite_profile, classify_minimal_pair and
    # chain_ring_quadratic_distributive against the closure routes
    R = small_ring(name)
    base = R.subring_closure(seed)
    ideals = [R.arr(I) for I in R.all_ideals(base)]
    for P, Q, M in itertools.product(ideals, repeat=3):
        assert R.mask(M)[R.mul[np.ix_(P, Q)]].all() == closure_product_inside(R, P, Q, M)
    for m in base.tolist():
        assert np.array_equal(np.unique(R.mul[m, base]), closure_principal_ideal(R, base, m))


def _census_extension(*blocks):
    # a product of local blocks over its prime subring; GR is the Galois
    # ring GR(4, 2) = Z4[y]/(y^2 + y + 1)
    spec = ("ring F2 = gf(2)\nring Z4 = zmod(4)\nring F4 = gf(2, 2)\n"
            "ring F2x = quotient(F2, [x^2])\n"
            "ring GR = quotient(Z4, [y^2 + y + 1])\n"
            f"ring S = product({', '.join(blocks)})\n"
            "ext C = extension(S, base=[])\n")
    return dsl.build_extension(spec)


@pytest.mark.parametrize("blocks, pair", [(("F2x", "GR"), (4, 10)),
                                          (("GR", "Z4"), (2, 7))])
def test_branched_chained_lower_rule_applies(blocks, pair):
    # no catalog instance meets the rule's hypotheses; these sub-extensions
    # of F2[x]/(x^2) x GR(4, 2) and GR(4, 2) x Z4 do
    E = _census_extension(*blocks)
    L = E.lattice()
    sub = E.sub(L.nodes[pair[0]], L.nodes[pair[1]])
    r = verify.run_check("branched_chained_lower_rule", sub)
    assert r.status == "pass" and r.side == "lhs_true", r.reason


def test_branched_characterization_on_f4_times_gr42():
    # the interval is not distributive and not pinched at the t-closure;
    # its splitter ladder fails the partition (nodes 4 and 5 are missed),
    # so the split case does not hold either
    E = _census_extension("F4", "GR")
    L = E.lattice()
    r = verify.run_check("branched_characterization",
                         E.sub(L.nodes[0], L.nodes[9]))
    assert r.status == "pass" and r.side == "lhs_false", r.witness


_BRANCHED_CHECKS = ("branched_characterization", "branched_splitter_ladder",
                    "branched_splitter_consistency", "count_formula_local",
                    "pinched_iff_single_u_support")


@pytest.mark.parametrize("blocks", [("F4", "GR"), ("F2x", "GR")])
def test_branched_checks_hold_on_every_pair(blocks):
    # every comparable pair V < W of [prime subring, S]
    E = _census_extension(*blocks)
    L = E.lattice()
    fails = [(v, w, name) for v, w in np.argwhere(L.leq).tolist() if v != w
             for name in _BRANCHED_CHECKS
             if verify.run_check(name, E.sub(L.nodes[v], L.nodes[w])).status == "fail"]
    assert fails == []
