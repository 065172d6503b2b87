"""Acceptance suite: the exit criteria of the build.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run) and enforces its stated time budget.
All comparisons are exact; there are no tolerances anywhere.
"""

import hashlib
import time

import pytest

from ringlattice import dsl, verify, catalog as cat
from ringlattice import extension as ex
from ringlattice import finring as fr
from ringlattice.lattice import SUBINTERVAL_SAMPLE_SEED


def _report(name, ok, budget, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name}: {detail} [{elapsed:.2f}s / budget {budget:.0f}s]")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.2f}s)"


def _build(name):
    return dsl.build_extension(cat.BY_NAME[name].spec)


def test_criterion_1_flagship_reproduction():
    t0 = time.time()
    E = _build("E5")
    S = E.ambient
    Rx, K4 = S.factors
    L = E.lattice()
    d = E.decomposition()

    ok = len(L.nodes) == 6
    # exact element sets of the three closures
    x0 = fr.product_element(S, [Rx.varmap["x"], K4.zero])
    plus_expected = frozenset(S.subring_closure(sorted(E.base) + [x0]).tolist())
    t_expected = frozenset(fr.product_element(S, [a, b])
                           for a in range(4) for b in [K4.zero, K4.one])
    u_expected = frozenset(fr.product_element(S, [a, b])
                           for a in [Rx.zero, Rx.one] for b in [K4.zero, K4.one])
    ok &= d.plus == plus_expected and d.t == t_expected and d.u == u_expected
    ok &= L.verdict().distributive
    edges = sorted((len(L.nodes[i]), len(L.nodes[j]), t.value)
                   for (i, j), t in ex.cover_types(E).items())
    ok &= edges == [(2, 4, "decomposed"), (2, 4, "ramified"),
                    (4, 8, "decomposed"), (4, 8, "inert"), (4, 8, "ramified"),
                    (8, 16, "inert"), (8, 16, "ramified")]
    _report("criterion 1 (flagship 6-node reproduction)", ok, 1.0,
            time.time() - t0,
            f"nodes={len(L.nodes)}, closures exact, edges={len(edges)}")


def test_criterion_2_counting_formulas_on_flagship():
    t0 = time.time()
    E = _build("E5")
    L = E.lattice()
    d = E.decomposition()
    l_lower = int(L.levels_from(0)[L.index[d.plus]])
    l_upper = int(L.levels_from(L.index[d.t])[L.top])
    max_s = len(E.max_ideals_top())
    length_ok = (L.length == 3 and l_lower == 1 and l_upper == 1 and max_s == 2
                 and L.length == l_lower + l_upper + max_s - 1)

    usub = ex.Extension(E.ambient, d.u, E.top)
    supp_us = ex.support_profile(usub).msupp
    ut_supp = ex.support_profile(ex.Extension(E.ambient, d.u, d.t)).msupp
    other = [m for m in supp_us if m not in ut_supp]
    V = ex.splitter(usub, [other[0]])
    n_upper = L.interval_size(L.index[d.t], L.top)
    l_ut = int(L.levels_from(L.index[d.u])[L.index[d.t]])
    n_uv = L.interval_size(L.index[d.u], L.index[V])
    count_ok = (len(L.nodes) == 6 and l_lower == 1 and n_upper == 2
                and l_ut == 1 and n_uv == 2
                and len(L.nodes) == l_lower + n_upper + l_ut * n_uv + 1)
    _report("criterion 2 (length 3 = 1+1+2-1, count 6 = 1+2+1*2+1)",
            length_ok and count_ok, 1.0, time.time() - t0,
            f"length={L.length}, count={len(L.nodes)}")


def test_criterion_3_doubled_ring_reproduction():
    t0 = time.time()
    E = _build("E6")
    S = E.ambient
    Rt, RX = S.factors
    d = E.decomposition()
    R2 = frozenset(fr.product_element(S, [a, b])
                   for a in range(4) for b in range(4))
    u_ok = d.u == R2
    plus_of_u = ex.canonical_decomposition(
        ex.Extension(S, E.base, R2)).plus
    c1 = ex.classify_minimal_pair(S, E.base, plus_of_u)
    c2 = ex.classify_minimal_pair(S, plus_of_u, R2)
    c3 = ex.classify_minimal_pair(S, R2, E.top)
    types_ok = (c1 is ex.MinimalType.RAMIFIED
                and c2 is ex.MinimalType.DECOMPOSED
                and c3 is ex.MinimalType.RAMIFIED)
    fib = ex.fibers(E)
    fiber_ok = [len(v) for v in fib.values()] == [2]
    _report("criterion 3 (doubled non-reduced ring: u-closure, chain types, "
            "fiber)", u_ok and types_ok and fiber_ok, 5.0, time.time() - t0,
            f"u=R^2:{u_ok}, types r/d/r:{types_ok}, fiber2:{fiber_ok}")


def test_criterion_4_diamond_detection():
    t0 = time.time()
    E = _build("E4")
    L = E.lattice()
    v = L.verdict()
    f = E.flags()
    wit = L.forbidden_sublattice()
    ok = (len(L.nodes) == 5 and v.length == 2
          and wit is not None and wit["kind"] == "M3"
          and not v.distributive and f.subintegral and not f.arithmetic)
    _report("criterion 4 (diamond: 5 nodes, M3 witness, subintegral "
            "non-arithmetic)", ok, 1.0, time.time() - t0,
            f"nodes={len(L.nodes)}, witness={wit and wit['kind']}")


def test_criterion_5_pentagon_non_catenarity():
    t0 = time.time()
    E = _build("E10")
    v = E.lattice().verdict()
    ok = not v.catenarian and not v.distributive
    _report("criterion 5 (pentagon instance: non-catenarian, "
            "non-distributive)", ok, 1.0, time.time() - t0,
            f"catenarian={v.catenarian}, distributive={v.distributive}")


def test_criterion_6_distributivity_route_agreement():
    t0 = time.time()
    pairs = verify.build_catalog_analyses()
    for _, a in pairs:
        a.L.check_distributive()      # raises if the three routes disagree
    done, bad = verify.random_interval_agreement(
        [a for _, a in pairs], count=1000, seed=SUBINTERVAL_SAMPLE_SEED)
    ok = done >= 1000 and bad is None
    _report("criterion 6 (route agreement on catalog + 1000 seeded "
            "sub-intervals)", ok, 60.0, time.time() - t0,
            f"instances={len(pairs)}, intervals={done}, disagreement={bad}")


def test_criterion_7_galois_divisor_lattices():
    t0 = time.time()
    checked = 0
    for p in (2, 3):
        for n in range(1, 7):
            S = fr.gf(p, n)
            E = ex.Extension(S, ex.prime_subring(S), name=f"gf({p},{n})")
            a = verify.Analysis(E.name, E)
            L = a.L
            divs = fr.divisors(n)
            assert len(L.nodes) == len(divs), (p, n)
            by_size = {len(T): i for i, T in enumerate(L.nodes)}
            for d1 in divs:
                # independent Frobenius oracle for each subfield
                fixed = frozenset(x for x in range(S.size)
                                  if S.power(x, p ** d1) == x)
                assert L.nodes[by_size[p ** d1]] == fixed, (p, n, d1)
                for d2 in divs:
                    assert bool(L.leq[by_size[p ** d1], by_size[p ** d2]]) \
                        == (d2 % d1 == 0), (p, n, d1, d2)
            v = L.verdict()
            assert v.distributive, (p, n)
            assert v.boolean_lattice == fr.is_squarefree(n), (p, n)
            checked += 1
    _report("criterion 7 (field towers are divisor lattices; Boolean iff "
            "squarefree degree)", checked == 12, 10.0, time.time() - t0,
            f"{checked} fields checked")


def test_criterion_8_localization_product_formulas():
    t0 = time.time()
    multi = 0
    for inst in cat.CATALOG:
        E = dsl.build_extension(inst.spec)
        a = verify.Analysis(inst.name, E)
        ms = a.profile.msupp
        if len(ms) < 2:
            continue
        multi += 1
        count, length = 1, 0
        for M in ms:
            loc = a.loc(M)
            count *= len(loc.nodes)
            length += loc.L.length
        assert count == len(a.nodes), inst.name
        assert length == a.L.length, inst.name
    _report("criterion 8 (localization product/sum formulas on multi-factor "
            "instances)", multi >= 2, 30.0, time.time() - t0,
            f"{multi} multi-factor instances")


def test_criterion_9_full_suite_green():
    t0 = time.time()
    rep = verify.run_catalog()
    elapsed = time.time() - t0
    fails = [(r.instance, r.check) for r in rep.results if r.status == "fail"]
    counts_ok = all("applicable" in s for s in rep.checks_summary.values())
    flagged = rep.zero_applicable
    ok = rep.failures == 0 and not fails and counts_ok
    _report("criterion 9 (full theorem suite green, coverage accounted)",
            ok, 300.0, elapsed,
            f"{rep.meta['instances']} instances, {rep.meta['pass']} pass, "
            f"{rep.failures} fail, zero-applicable={flagged}")
    # the report bytes are the behavioural contract (same as verify --all --json)
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == \
        "093fd922c5c56abd492f1d2e8b1de2f2d63730bbdd2de09621bee1b8060f2e8f"
    # so are the seeded random instances with the sub-interval stress
    # (verify RND_ --random 10 --seed 3 --intervals 200 --json)
    rnd = verify.run_catalog(pattern="RND_", random_count=10, random_seed=3,
                             interval_samples=200)
    assert hashlib.sha256(rnd.to_json().encode()).hexdigest() == \
        "3ee46561ade632792577c3bd9000067a8dfef60254813455b6f7b8fdd55f53a1"
