"""Named structural checks run by the verification harness.

Every check evaluates the two sides of a characterization (or the
hypothesis and conclusion of an implication) by independent computations
and compares them.  Hypotheses unmet produce an ``n/a`` result with the
reason; failures carry a minimal witness.  For iff-shaped checks the
``side`` field records which side of the equivalence the instance
exercised, so the harness can report one-sided coverage.

Each check takes the :class:`~ringlattice.extension.Extension` itself and
reads its cached lattice, flags and closures; sub-extensions, localizations
and quotients come from its methods (``sub``, ``localized``, ``quotient``),
memoised on the ambient ring, so each is one object however it is reached.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import extension as ex
from . import finring as fr
from .lattice import LatticeError, decide_intervals
from .verify import CheckResult, check


def _na(reason):
    return CheckResult("", "", "n/a", reason=reason)


def _iff(lhs, rhs, witness):
    status = "pass" if bool(lhs) == bool(rhs) else "fail"
    return CheckResult("", "", status,
                       witness=None if status == "pass" else witness,
                       side="lhs_true" if lhs else "lhs_false")


def _implies(hyp_ok, conclusion, witness, reason="hypotheses not satisfied"):
    if not hyp_ok:
        return _na(reason)
    return CheckResult("", "", "pass" if conclusion else "fail",
                       witness=None if conclusion else witness)


def _proper(a: ex.Extension):
    return not a.trivial


def _pinched_at_t(a: ex.Extension):
    """The interval is pinched at the t-closure (trivially so when the
    t-closure is an endpoint)."""
    d, L = a.decomposition(), a.lattice()
    return d.t in (a.base, a.top) or L.is_pinched_at([L.index[d.t]])


def _type_sets(a: ex.Extension):
    """{set of minimal types: one witness chain} over every maximal chain."""
    types = ex.cover_types(a)
    return a.lattice().chain_label_sets(lambda u, v: types[(u, v)].value)


# ----------------------------------------------------------------------
# minimal-extension structure along chains (folds over the Hasse diagram:
# each reports on every maximal chain without enumerating them)

@check("chain_type_profile",
       "closure predicates match the set of minimal types along every "
       "maximal chain (ramified <-> subintegral, decomposed <-> seminormal "
       "infra-integral, both <-> infra-integral, inert <-> t-closed)")
def chain_type_profile(a):
    if not _proper(a):
        return _na("trivial extension")
    f = a.flags()
    for types, chain in _type_sets(a).items():
        rules = [
            (f.subintegral, types <= {"ramified"}),
            (f.seminormal and f.infra_integral, types <= {"decomposed"}),
            (f.infra_integral, types <= {"ramified", "decomposed"}),
            (f.t_closed, types <= {"inert"}),
        ]
        for k, (flag, chain_side) in enumerate(rules):
            if bool(flag) != chain_side:
                return CheckResult("", "", "fail", witness={
                    "chain": chain, "types": sorted(types), "rule": k})
        if (types <= {"ramified"} or types <= {"inert"}) and not f.i_extension:
            return CheckResult("", "", "fail", witness={
                "chain": chain, "types": sorted(types),
                "rule": "isotopic chains force an i-extension"})
    return CheckResult("", "", "pass")


@check("isotopic_chain_suffices",
       "all covering pairs share one minimal type iff some maximal chain "
       "is monotype")
def isotopic_chain_suffices(a):
    if not _proper(a):
        return _na("trivial extension")
    all_types = {t.value for t in ex.cover_types(a).values()}
    exists_monotype = any(len(types) == 1 for types in _type_sets(a))
    return _iff(len(all_types) == 1, exists_monotype,
                {"cover_types": sorted(all_types)})


@check("support_via_chain_conductors",
       "the support equals the set of contracted step conductors along any "
       "maximal chain")
def support_via_chain_conductors(a):
    if not _proper(a):
        return _na("trivial extension")
    msupp = set(a.profile().msupp)
    L = a.lattice()

    def contracted_conductor(u, v):
        return ex.conductor_pair(a.ambient, L.nodes[u], L.nodes[v]) & a.base

    for contracted, chain in L.chain_label_sets(contracted_conductor).items():
        if contracted != msupp:
            return CheckResult("", "", "fail", witness={
                "chain": chain,
                "contracted_sizes": sorted(len(c) for c in contracted),
                "msupp_sizes": sorted(len(m) for m in msupp)})
    return CheckResult("", "", "pass")


@check("cover_minimality_consistency",
       "lattice covers are exactly the pairs passing the definitional "
       "no-intermediate-ring search, and the type classifier agrees with it")
def cover_minimality_consistency(a):
    if not _proper(a):
        return _na("trivial extension")
    # cover_types classified every cover (raising unless exactly one type
    # pattern holds), so its keys are the classified pairs
    L, classified = a.lattice(), {}
    for i, j in ex.cover_types(a):
        classified.setdefault(i, []).append(j)
    for i, ups, minimal in ex.minimal_uppers(a):
        typed = np.zeros(L.n, dtype=bool)
        typed[classified.get(i, [])] = True
        bad = np.flatnonzero(minimal != typed[ups])
        if bad.size:
            j = int(ups[bad[0]])
            return CheckResult("", "", "fail",
                               witness={"pair": [i, j], "cover": bool(L.covers[i, j]),
                                        "definitional": bool(minimal[bad[0]])})
    return CheckResult("", "", "pass")


@check("i_extension_iff_no_decomposed_part",
       "injective spectrum map iff seminormalization equals t-closure")
def i_extension_iff_no_decomposed_part(a):
    if not _proper(a):
        return _na("trivial extension")
    d = a.decomposition()
    return _iff(a.flags().i_extension, d.plus == d.t,
                {"plus_size": len(d.plus), "t_size": len(d.t)})


@check("u_closed_iff_i_extension",
       "the idempotent-style element condition for the whole extension "
       "matches injectivity of the spectrum map")
def u_closed_iff_i_extension(a):
    if not _proper(a):
        return _na("trivial extension")
    return _iff(a.flags().u_closed, a.flags().i_extension, {})


@check("canonical_diagram_types",
       "base <= u-meet-plus is subintegral, u-meet-plus <= u is seminormal "
       "infra-integral, u <= t is subintegral, t <= top is t-closed")
def canonical_diagram_types(a):
    if not _proper(a):
        return _na("trivial extension")
    d = a.decomposition()
    mid = d.u & d.plus
    S = a.ambient
    checks = [
        ("base<=u^plus subintegral", ex.is_subintegral_pair(S, a.base, mid)),
        ("u^plus<=u seminormal", ex.is_seminormal(S, mid, d.u)),
        ("u^plus<=u infra-integral", ex.is_infra_integral_pair(S, mid, d.u)),
        ("u<=t subintegral", ex.is_subintegral_pair(S, d.u, d.t)),
        ("t<=top t-closed", ex.is_t_closed(S, d.t, a.top)),
    ]
    bad = [name for name, ok in checks if not ok]
    return CheckResult("", "", "pass" if not bad else "fail",
                       witness={"failed": bad} if bad else None)


@check("u_closure_from_t_closure",
       "the u-closure is the least ring over which the t-closure is "
       "subintegral; for infra-integral extensions it is the least ring "
       "over which the whole top is subintegral")
def u_closure_from_t_closure(a):
    if not _proper(a):
        return _na("trivial extension")
    d = a.decomposition()
    if d.t == a.base:
        inner = a.base
    else:
        inner = a.sub(a.base, d.t).decomposition().cosub
    if inner != d.u:
        return CheckResult("", "", "fail",
                           witness={"u_size": len(d.u),
                                    "cosub_in_t_size": inner and len(inner)})
    if a.flags().infra_integral and d.cosub != d.u:
        return CheckResult("", "", "fail",
                           witness={"u_size": len(d.u),
                                    "cosub_size": d.cosub and len(d.cosub)})
    return CheckResult("", "", "pass")


# ----------------------------------------------------------------------
# transfer rules

@check("localization_equivalence",
       "distributive iff every localization at a support ideal is "
       "distributive (independent enumeration per localization)")
def localization_equivalence(a):
    if not _proper(a):
        return _na("trivial extension")
    locs = {tuple(sorted(M)): a.localized(M).lattice().verdict().distributive
            for M in a.profile().msupp}
    return _iff(a.lattice().verdict().distributive, all(locs.values()),
                {"local_verdicts": {str(k[:3]) + "...": v
                                    for k, v in locs.items()}})


@check("shared_ideal_quotient_equivalence",
       "distributive iff the quotient modulo any (equivalently some) common "
       "ideal is distributive")
def shared_ideal_quotient_equivalence(a):
    if not _proper(a):
        return _na("trivial extension")
    # an ideal of the top inside the base lies in the conductor
    shared = a.ambient.all_ideals(a.top, gens=ex.conductor(a))
    dist = a.lattice().verdict().distributive
    verdicts = [a.quotient(I).lattice().verdict().distributive for I in shared]
    ok = all(v == dist for v in verdicts)
    return CheckResult("", "", "pass" if ok else "fail",
                       witness=None if ok else {"verdicts": verdicts,
                                                "full": dist},
                       side="lhs_true" if dist else "lhs_false")


@check("quotient_transfer",
       "a distributive extension stays distributive modulo any ideal of the "
       "top ring (contracted to the base on the left)")
def quotient_transfer(a):
    if not _proper(a) or not a.lattice().verdict().distributive:
        return _na("extension not distributive")
    for J in a.ambient.all_ideals(a.top):
        if J == a.top:        # top/top is no ring
            continue
        if not a.quotient(J).lattice().verdict().distributive:
            return CheckResult("", "", "fail",
                               witness={"ideal_size": len(J)})
    return CheckResult("", "", "pass")


@check("product_transfer",
       "when the base contains every primitive idempotent of the top ring, "
       "distributivity holds iff it holds on each factor")
def product_transfer(a):
    if not _proper(a):
        return _na("trivial extension")
    dec_top = a.top_decomposition()
    if len(dec_top.idempotents) < 2 or \
            not all(e in a.base for e in dec_top.idempotents):
        return _na("base does not decompose along the top ring's factors")
    # the top's primitive idempotents are then the base's own, so each
    # factor is the localization at a maximal ideal of the base
    verdicts = [a.localized(M).lattice().verdict().distributive
                for M in a.base_decomposition().maximal_ideals]
    return _iff(a.lattice().verdict().distributive, all(verdicts),
                {"factor_verdicts": verdicts})


def doubled_ring(S, top):
    """The idealization T(+)T of the subring ``top`` = T of S, with
    (r1,m1)(r2,m2) = (r1r2, r1m2 + r2m1).  The pair (r, m) has index
    i(r)*n + i(m), where i is the position in sorted ``top``."""
    top = S.arr(top)
    n = top.size
    pos = np.full(S.size, -1, dtype=np.int32)
    pos[top] = np.arange(n, dtype=np.int32)
    tadd = pos[S.add[np.ix_(top, top)]]
    tmul = pos[S.mul[np.ix_(top, top)]]
    # axes (r1, m1, r2, m2) flatten to row (r1, m1), column (r2, m2)
    r1, m1, r2, m2 = np.ix_(*[np.arange(n)] * 4)
    mul = tmul[r1, r2] * n + tadd[tmul[r1, m2], tmul[r2, m1]]
    m = n * n
    one = int(pos[S.one]) * n + int(pos[S.zero])
    return fr.FiniteRing.from_tables(
        fr.componentwise(tadd, tadd), mul.reshape(m, m), one,
        label=f"{S.label}(+)M", size_cap=max(m, S.size_cap))


@check("idealization_transfer",
       "distributivity is preserved and reflected by gluing a square-zero "
       "copy of the top ring onto both sides")
def idealization_transfer(a):
    if not _proper(a):
        return _na("trivial extension")
    n = len(a.top)
    if n > 16:
        return _na("top ring too large for the doubled construction")
    big = doubled_ring(a.ambient, a.top)
    pos = {x: i for i, x in enumerate(sorted(a.top))}
    base = frozenset(pos[r] * n + i for r in sorted(a.base) for i in range(n))
    doubled = ex.Extension(big, base, name=a.name + "(+)M")
    dist = doubled.lattice().verdict().distributive
    return _iff(a.lattice().verdict().distributive, dist,
                {"doubled_verdict": dist})


# ----------------------------------------------------------------------
# lattice criteria

@check("b2_iff_length2_card4",
       "Boolean of length 2 iff length 2 with exactly 4 nodes")
def b2_iff_length2_card4(a):
    if not _proper(a):
        return _na("trivial extension")
    L = a.lattice()
    v = L.verdict()
    lhs = v.boolean_lattice and v.length == 2
    rhs = v.length == 2 and len(L.nodes) == 4
    return _iff(lhs, rhs, {"length": v.length, "nodes": len(L.nodes)})


@check("distributive_implies_catenarian",
       "a distributive interval is catenarian (and finite)")
def distributive_implies_catenarian(a):
    if not _proper(a):
        return _na("trivial extension")
    v = a.lattice().verdict()
    return _implies(v.distributive, v.catenarian,
                    {"catenarian": v.catenarian},
                    reason="extension not distributive")


@check("catenarian_length2_rule",
       "a catenarian interval is distributive iff every length-2 "
       "subinterval has at most 4 nodes")
def catenarian_length2_rule(a):
    if not _proper(a):
        return _na("trivial extension")
    L = a.lattice()
    v = L.verdict()
    if not v.catenarian:
        return _na("extension not catenarian")
    ok, wit = L.check_length2_rule()   # internally asserted against verdict
    return _iff(v.distributive, ok, {"rule_witness": wit})


@check("length2_card_rule",
       "a length-2 extension is distributive iff it has at most 4 nodes")
def length2_card_rule(a):
    if not _proper(a):
        return _na("trivial extension")
    L = a.lattice()
    if L.length != 2:
        return _na("length is not 2")
    return _iff(L.verdict().distributive, len(L.nodes) <= 4,
                {"nodes": len(L.nodes)})


@check("covering_pair_criterion",
       "the three distributivity routes (law scan, forbidden sublattice, "
       "covering-pair intervals) agree")
def covering_pair_criterion(a):
    dist, wit = a.lattice().check_distributive()   # raises on route disagreement
    return CheckResult("", "", "pass",
                       side="lhs_true" if dist else "lhs_false")


@check("hereditary_distributivity",
       "distributive iff every subinterval is distributive")
def hereditary_distributivity(a):
    if not _proper(a):
        return _na("trivial extension")
    L = a.lattice()
    n = len(L.nodes)
    dist = L.verdict().distributive
    if n > 40:
        return _na("too many nodes for the full subinterval sweep")
    # every comparable pair, in (i, j) order, in one kernel call
    i, j = np.nonzero(L.leq)
    found = decide_intervals([(L, i, j)])
    sub_ok = found.distributive
    bad = ~sub_ok if dist else (i == 0) & (j == n - 1) & sub_ok
    stop = np.flatnonzero(bad | (found.code > 0))
    if stop.size:
        k = int(stop[0])
        found.check(k)
        return CheckResult("", "", "fail", witness={"interval": [int(i[k]), int(j[k])]})
    return CheckResult("", "", "pass",
                       side="lhs_true" if dist else "lhs_false")


@check("pinched_segment_rule",
       "an interval pinched at a chain is distributive iff every segment "
       "between consecutive chain members is distributive")
def pinched_segment_rule(a):
    if not _proper(a):
        return _na("trivial extension")
    L = a.lattice()
    candidates = [[t] for t in range(1, len(L.nodes) - 1)]
    loewy = [t for t in L.loewy_series() if t not in (0, L.top)]
    if loewy:
        candidates.append(loewy)
    tested = 0
    for chain in candidates:
        try:
            pinched = L.is_pinched_at(chain)
        except LatticeError:
            continue
        if not pinched:
            continue
        tested += 1
        pts = [0] + list(chain) + [L.top]
        segs = [L.interval(u, v).check_distributive()[0]
                for u, v in zip(pts, pts[1:])]
        if L.verdict().distributive != all(segs):
            return CheckResult("", "", "fail",
                               witness={"chain": list(chain), "segments": segs})
    if tested == 0:
        return _na("no pinch chain found")
    return CheckResult("", "", "pass",
                       side="lhs_true" if L.verdict().distributive else "lhs_false")


@check("loewy_boolean_steps",
       "an interval pinched at its Loewy series is distributive iff every "
       "Loewy step is Boolean")
def loewy_boolean_steps(a):
    if not _proper(a):
        return _na("trivial extension")
    L = a.lattice()
    series = L.loewy_series()
    interior = [t for t in series if t not in (0, L.top)]
    if interior and not L.is_pinched_at(interior):
        return _na("not pinched at the Loewy series")
    steps = [L.interval(u, v).verdict().boolean_lattice
             for u, v in zip(series, series[1:])]
    return _iff(L.verdict().distributive, all(steps), {"steps": steps})


@check("atom_join_is_simple",
       "in a distributive interval the join of distinct atoms is generated "
       "by the sum of their generators")
def atom_join_is_simple(a):
    if not _proper(a) or not a.lattice().verdict().distributive:
        return _na("extension not distributive")
    L = a.lattice()
    atoms = L.atoms()
    if len(atoms) < 2:
        return _na("fewer than two atoms")
    S = a.ambient
    gens = {}
    for t in atoms:
        gens[t] = min(L.nodes[t] - a.base)
    for combo in itertools.chain.from_iterable(
            itertools.combinations(atoms, r) for r in range(2, len(atoms) + 1)):
        join = combo[0]
        for t in combo[1:]:
            join = int(L.join[join, t])
        s = S.zero
        for t in combo:
            s = S.a(s, gens[t])
        gen = S.adjoin(a.base, s)
        if gen != L.nodes[join]:
            return CheckResult("", "", "fail",
                               witness={"atoms": list(combo),
                                        "join_size": len(L.nodes[join]),
                                        "generated_size": len(gen)})
    return CheckResult("", "", "pass")


@check("chained_implies_simple",
       "a chained extension is generated by one element")
def chained_implies_simple(a):
    if not _proper(a):
        return _na("trivial extension")
    return _implies(a.lattice().verdict().chained, a.flags().simple, {},
                    reason="extension not chained")


@check("arithmetic_implies_distributive",
       "locally chained extensions are distributive")
def arithmetic_implies_distributive(a):
    if not _proper(a):
        return _na("trivial extension")
    dist = a.lattice().verdict().distributive
    return _implies(a.flags().arithmetic, dist, {"distributive": dist},
                    reason="extension not arithmetic")


@check("locally_minimal_implies_distributive",
       "locally minimal extensions are distributive")
def locally_minimal_implies_distributive(a):
    if not _proper(a):
        return _na("trivial extension")
    dist = a.lattice().verdict().distributive
    return _implies(a.flags().locally_minimal, dist, {"distributive": dist},
                    reason="extension not locally minimal")


@check("two_atom_composite_profile",
       "two minimal steps compose to a 4-node square when their crucial "
       "ideals differ; over a shared crucial ideal, inert plus non-inert "
       "breaks catenarity while two non-inert steps give an infra-integral "
       "catenarian composite of length 2 or 3 decided by the ideal product")
def two_atom_composite_profile(a):
    if not _proper(a):
        return _na("trivial extension")
    L = a.lattice()
    atoms = L.atoms()
    if len(atoms) < 2:
        return _na("fewer than two atoms")
    S, base = a.ambient, a.base
    cond = {t: ex.conductor_pair(S, base, L.nodes[t]) for t in atoms}
    over = {t: [Q for Q in fr.maximal_ideals(S, L.nodes[t])
                if Q & base == cond[t]] for t in atoms}
    lev, skipped = L.levels_from(0), L.level_skips().any(axis=0)

    def catenarian(j):
        # [0, j] is catenarian iff no level-skipping cover ends inside it
        return not (skipped & L.leq[:, j]).any()

    for t, u in itertools.combinations(atoms, 2):
        j = int(L.join[t, u])
        M, N = cond[t], cond[u]
        typ_t = ex.cover_types(a)[(0, t)]
        typ_u = ex.cover_types(a)[(0, u)]
        if M != N:
            size = L.interval_size(0, j)
            if size != 4:
                return CheckResult("", "", "fail", witness={
                    "atoms": [t, u], "case": "distinct crucial ideals",
                    "interval_size": size})
            continue
        inert_t = typ_t is ex.MinimalType.INERT
        inert_u = typ_u is ex.MinimalType.INERT
        if inert_t != inert_u:
            if catenarian(j):
                return CheckResult("", "", "fail", witness={
                    "atoms": [t, u], "case": "inert vs non-inert",
                    "catenarian": True})
            continue
        if inert_t and inert_u:
            continue  # no claim for two inert steps over one ideal
        cat_ok = catenarian(j)
        infra = ex.is_infra_integral_pair(S, base, L.nodes[j])
        if not cat_ok or not infra:
            return CheckResult("", "", "fail", witness={
                "atoms": [t, u], "case": "two non-inert",
                "catenarian": cat_ok, "infra_integral": infra})
        # M is closed under addition, so it holds the product ideal PQ iff
        # it holds every product pq
        in_M = S.mask(M)
        prod_in = any(in_M[S.mul[np.ix_(S.arr(P), S.arr(Q))]].all()
                      for P in over[t] for Q in over[u])
        want = 2 if prod_in else 3
        if lev[j] != want:
            return CheckResult("", "", "fail", witness={
                "atoms": [t, u], "case": "two non-inert",
                "product_inside": prod_in, "length": int(lev[j]),
                "expected": want})
    return CheckResult("", "", "pass")


@check("b2_structure_cases",
       "a length-2 subinterval is Boolean-of-length-2 exactly when it has "
       "two-point support, or is infra-integral crucial with a proper "
       "seminormalization and conductor equal to the crucial ideal, or is "
       "t-closed crucial with a 4-node residue-field interval")
def b2_structure_cases(a):
    if not _proper(a):
        return _na("trivial extension")
    L, S = a.lattice(), a.ambient
    lower, upper, inner, middle = L.length2_intervals()
    if not lower.size:
        return _na("no length-2 subinterval")
    # every length-2 interval [V, W] at once: the lhs from one kernel call,
    # and the supports, conductors and pair facts from one grouped fill
    # each; the cases read a conductor only at one-point support.  The
    # pairs are decided per lower node V, in order, and the failed guards
    # of V's conductors and facts are raised when V is reached, so no
    # guard of a later V hides the verdict of an earlier pair
    found = decide_intervals([(L, lower, upper)])
    Vs = [L.nodes[v] for v in lower.tolist()]
    Ws = [L.nodes[w] for w in upper.tolist()]
    msupps = ex.msupp_of_pairs(S, [(V, V, W) for V, W in zip(Vs, Ws)])
    one = [k for k, msupp in enumerate(msupps) if len(msupp) == 1]
    conds = dict(zip(one, ex.cover_conductors(S, [(Vs[k], Ws[k]) for k in one])))
    facts, failed = _plus_inside(a, lower, upper, inner, middle, one)
    starts = np.flatnonzero(np.diff(lower, prepend=-1)).tolist()
    for start, end in zip(starts, starts[1:] + [lower.size]):
        ex.raise_failed([conds[k] for k in range(start, end) if k in conds])
        ex.raise_failed(failed.get(int(lower[start]), ()))
        for k in range(start, end):
            found.check(k)
            lhs = bool(found.boolean[k])
            rhs = _b2_cases(a, Vs[k], Ws[k], conds.get(k), msupps[k], facts.get(k))
            if lhs != rhs:
                return CheckResult("", "", "fail", witness={
                    "interval": [int(lower[k]), int(upper[k])], "b2": lhs, "cases": rhs})
    return CheckResult("", "", "pass")


def _plus_inside(a, lower, upper, inner, middle, one):
    """({k: (infra-integral, R+ strictly inside, t-closed)} for the
    length-2 intervals [V, W] = [lower[k], upper[k]] with k in ``one``,
    those with one-point support, and {v: [failed guard]} for the lower
    nodes v whose facts failed the contraction guard), from one grouped
    pair-fact fill over every lower node.  R+ of [V, W] is its greatest
    node subintegral over V, and every middle node of a length-2 interval
    covers V, so R+ is W when W is subintegral over V, else the one
    subintegral middle node, else V; two subintegral middle nodes raise
    the canonical decomposition's uniqueness guard.  A failed guard is
    returned in place of the triple and raised when its pair is reached.
    Each V asks for the spectral facts of V over itself, over the middle
    nodes of its intervals and over their tops, and for the closed facts
    of its tops."""
    L, S = a.lattice(), a.ambient
    low, up, ends = lower.tolist(), upper.tolist(), np.cumsum(inner).tolist()
    mids = {k: middle[ends[k] - inner[k]:ends[k]].tolist() for k in one}
    groups, keys = [], []
    for v, ks in itertools.groupby(one, key=low.__getitem__):
        ks, V = list(ks), L.nodes[v]
        over = [L.nodes[x] for x in [v, *sorted({x for k in ks for x in mids[k]}),
                                     *(up[k] for k in ks)]]
        keys += [("spectral", V, X) for X in over] + [("closed", V, L.nodes[up[k]]) for k in ks]
        groups.append((v, ks, over))
    facts = dict(zip(keys, ex.pair_facts(S, keys)))
    out, failed = {}, {}
    for v, ks, over in groups:
        V = L.nodes[v]
        spectral = {X: facts[("spectral", V, X)] for X in over}
        guards = [f for f in spectral.values() if isinstance(f, Exception)]
        if guards:
            failed[v] = guards[:1]
            continue
        for k in ks:
            W = L.nodes[up[k]]
            infra, sub_w = spectral[W]
            kept = sum(spectral[L.nodes[x]][1] for x in mids[k])
            plus = 1 if sub_w else kept if kept else int(spectral[V][1])
            if infra and plus != 1:
                out[k] = ex.uniqueness_violation("seminormalization (greatest subintegral)",
                                                 plus, greatest=True)
            else:
                out[k] = (infra, infra and not sub_w and kept == 1,
                          facts[("closed", V, W)][2])
    return out, failed


def _b2_cases(a, V, W, cond, msupp, facts):
    """The three cases for [V, W], given MSupp_V(W/V) and, for one-point
    support, its conductor and its facts from :func:`_plus_inside`."""
    if len(msupp) != 1:
        return len(msupp) == 2
    if isinstance(facts, Exception):
        raise facts
    S, M = a.ambient, msupp[0]
    infra, plus_inside, t_closed = facts
    rhs = bool(infra and plus_inside and cond == M)
    if not rhs and cond == M and t_closed:
        # residue interval must have exactly 4 subfields: W/M is a field
        # iff M is maximal in W
        rhs = M in fr.maximal_ideals(S, W) and \
            len(a.sub(V, W).quotient(M).lattice().nodes) == 4
    return rhs


# ----------------------------------------------------------------------
# isotype families over a local base

@check("local_atoms_distinct_types",
       "over a local base, a distributive infra-integral extension has no "
       "two distinct minimal subextensions of the same type")
def local_atoms_distinct_types(a):
    if not _proper(a):
        return _na("trivial extension")
    if not (a.flags().infra_integral and a.lattice().verdict().distributive
            and len(a.max_ideals_base()) == 1):
        return _na("needs a distributive infra-integral extension over a local base")
    types = [ex.cover_types(a)[(0, t)].value for t in a.lattice().atoms()]
    ok = len(types) == len(set(types))
    return CheckResult("", "", "pass" if ok else "fail",
                       witness=None if ok else {"atom_types": types})


@check("subintegral_distributive_iff_arithmetic",
       "a subintegral extension is distributive iff it is locally chained")
def subintegral_distributive_iff_arithmetic(a):
    if not _proper(a) or not a.flags().subintegral:
        return _na("extension not subintegral")
    return _iff(a.lattice().verdict().distributive, a.flags().arithmetic,
                {"arithmetic": a.flags().arithmetic})


@check("seminormal_infra_iff_locally_minimal",
       "a seminormal infra-integral extension is distributive iff it is "
       "locally minimal")
def seminormal_infra_iff_locally_minimal(a):
    if not _proper(a) or not (a.flags().seminormal and a.flags().infra_integral):
        return _na("extension not seminormal infra-integral")
    return _iff(a.lattice().verdict().distributive, a.flags().locally_minimal,
                {"locally_minimal": a.flags().locally_minimal})


@check("t_closed_residual_distributivity",
       "a t-closed extension is distributive iff all its residue-field "
       "extensions are distributive")
def t_closed_residual_distributivity(a):
    if not _proper(a) or not a.flags().t_closed:
        return _na("extension not t-closed")
    res = [a.quotient(Q).lattice().verdict().distributive for Q in a.max_ideals_top()]
    return _iff(a.lattice().verdict().distributive, all(res), {"residual_verdicts": res})


@check("module_lattice_correspondence",
       "when the top splits as base plus a square-zero ideal, intermediate "
       "rings correspond to submodules, and distributivity says every "
       "localized submodule lattice is a chain")
def module_lattice_correspondence(a):
    if not _proper(a):
        return _na("trivial extension")
    S = a.ambient
    sq_zero = [s for s in sorted(a.top) if S.m(s, s) == S.zero]
    N = frozenset(S.ideal_closure(a.top, sq_zero).tolist())
    Na = S.arr(N)
    prods = S.mul[np.ix_(Na, Na)]
    if (prods != S.zero).any() or \
            (a.base & N) != {S.zero} or \
            len(a.base) * len(N) != len(a.top):
        return _na("top is not base plus a square-zero complement")
    subs = S.all_ideals(a.base, gens=N)
    mapped = {frozenset(S.additive_closure(sorted(a.base | V)).tolist())
              for V in subs}
    nodes = a.lattice().nodes
    if mapped != set(nodes):
        return CheckResult("", "", "fail",
                           witness={"submodules": len(subs), "nodes": len(nodes)})
    # distributive iff every localized submodule lattice is a chain:
    # equivalently, localized at each base ideal, the interval is a chain
    chains = all(a.localized(M).lattice().verdict().chained for M in a.profile().msupp)
    return _iff(a.lattice().verdict().distributive, chains, {"localized_chains": chains})


# ----------------------------------------------------------------------
# unbranched / branched structure over a local base

def _locally_unbranched(a):
    return all(len(a.localized(M).max_ideals_top()) == 1 for M in a.profile().msupp)


@check("unbranched_characterization",
       "a locally unbranched extension is distributive iff at every support "
       "ideal the localized interval has a chained lower closure part, a "
       "distributive upper part, and is pinched at the local t-closure")
def unbranched_characterization(a):
    if not _proper(a):
        return _na("trivial extension")
    if not _locally_unbranched(a):
        return _na("extension branches at some support ideal")
    for M in a.profile().msupp:
        loc = a.localized(M)
        L = loc.lattice()
        d = loc.decomposition()
        t_idx = L.index[d.t]
        lower = (d.t == loc.base) or L.interval(0, t_idx).is_chain()
        upper = L.interval(t_idx, L.top).check_distributive()[0]
        pinched = _pinched_at_t(loc)
        rhs = lower and upper and pinched
        if L.verdict().distributive != rhs:
            return CheckResult("", "", "fail", witness={
                "ideal_size": len(M), "lower_chain": lower,
                "upper_distributive": upper, "pinched": pinched,
                "local_distributive": L.verdict().distributive})
    dist = a.lattice().verdict().distributive
    return CheckResult("", "", "pass", side="lhs_true" if dist else "lhs_false")


@check("unbranched_locally_minimal_step_arithmetic",
       "a distributive locally unbranched extension whose t-closure sits "
       "locally minimally under the top is locally chained")
def unbranched_locally_minimal_step_arithmetic(a):
    if not _proper(a):
        return _na("trivial extension")
    d = a.decomposition()
    hyp = (a.lattice().verdict().distributive and _locally_unbranched(a)
           and (d.t == a.top
                or a.sub(d.t, a.top).flags().locally_minimal))
    return _implies(hyp, a.flags().arithmetic,
                    {"arithmetic": a.flags().arithmetic},
                    reason="needs distributive locally unbranched with locally "
                           "minimal upper step")


@check("branched_infra_pinch_partition",
       "an infra-integral branched extension with chained lower part and a "
       "two-point top spectrum splits as the lower interval plus the "
       "u-closure interval, pinched at their meet")
def branched_infra_pinch_partition(a):
    if not _proper(a):
        return _na("trivial extension")
    d = a.decomposition()
    L = a.lattice()
    if not (a.flags().infra_integral and a.flags().branched
            and len(a.max_ideals_top()) == 2
            and L.interval(0, L.index[d.plus]).is_chain()):
        return _na("needs infra-integral branched with chained lower part and "
                   "two maximal ideals on top")
    lower = set(L.interval_nodes(0, L.index[d.plus]))
    upper = set(L.interval_nodes(L.index[d.u], L.top))
    partition_ok = (lower | upper == set(range(len(L.nodes)))
                    and not (lower & upper))
    mid = L.index[d.u & d.plus]
    pinched = (mid in (0, L.top)) or L.is_pinched_at([mid])
    ok = partition_ok and pinched
    return CheckResult("", "", "pass" if ok else "fail",
                       witness=None if ok else {"partition": partition_ok,
                                                "pinched": pinched})


@check("branched_infra_characterization",
       "an infra-integral branched extension with a proper lower closure is "
       "distributive iff the lower part is a chain, the top has exactly two "
       "maximal ideals, and joining with the u-closure is an order "
       "isomorphism onto the upper interval")
def branched_infra_characterization(a):
    if not _proper(a):
        return _na("trivial extension")
    d = a.decomposition()
    if not (a.flags().infra_integral and a.flags().branched and d.plus != a.base):
        return _na("needs infra-integral branched with nontrivial lower closure")
    L = a.lattice()
    cond1 = L.interval(0, L.index[d.plus]).is_chain()
    cond2 = len(a.max_ideals_top()) == 2
    mid = L.index[d.u & d.plus]
    u_idx = L.index[d.u]
    dom = L.interval_nodes(mid, L.index[d.plus])
    rng = L.interval_nodes(u_idx, L.top)
    images = [int(L.join[u_idx, t]) for t in dom]
    cond3 = (sorted(set(images)) == sorted(rng)
             and len(set(images)) == len(dom)
             and all(bool(L.leq[x, y]) == bool(L.leq[images[i], images[j]])
                     for i, x in enumerate(dom)
                     for j, y in enumerate(dom)))
    rhs = cond1 and cond2 and cond3
    res = _iff(L.verdict().distributive, rhs,
               {"lower_chain": cond1, "two_max": cond2, "join_iso": cond3})
    if res.status == "fail" or not L.verdict().distributive:
        return res
    # consequence: single u-level support with chained top part, or a chain
    usub = a.sub(d.u, a.top)
    single = len(usub.profile().msupp) == 1 and \
        L.interval(u_idx, L.top).is_chain()
    chain_all = L.verdict().chained and d.u == a.top
    if not (single or chain_all):
        return CheckResult("", "", "fail",
                           witness={"usupp": len(usub.profile().msupp),
                                    "upper_chain": L.interval(u_idx, L.top).is_chain()})
    return res


@check("branched_infra_loewy_shape",
       "a distributive infra-integral branched non-chained extension has "
       "the two-ladder shape, and its Loewy series climbs the lower chain "
       "then the u-closure translates")
def branched_infra_loewy_shape(a):
    if not _proper(a):
        return _na("trivial extension")
    d = a.decomposition()
    L = a.lattice()
    v = L.verdict()
    if not (v.distributive and a.flags().infra_integral
            and a.flags().branched and not v.chained):
        return _na("needs distributive infra-integral branched, not chained")
    lower = L.interval_nodes(0, L.index[d.plus])
    upper = L.interval_nodes(L.index[d.u], L.top)
    partition_ok = (set(lower) | set(upper) == set(range(len(L.nodes)))
                    and not (set(lower) & set(upper)))
    u_idx = L.index[d.u]
    translates = sorted({int(L.join[u_idx, t]) for t in lower})
    if not partition_ok or translates != sorted(upper):
        return CheckResult("", "", "fail",
                           witness={"partition": partition_ok})
    chain = sorted(lower, key=lambda t: len(L.nodes[t]))
    mid = L.index[d.u & d.plus]
    k = chain.index(mid)
    expected = chain[:k + 1] + [int(L.join[u_idx, t]) for t in chain[k + 1:]]
    got = L.loewy_series()
    ok = got == expected
    return CheckResult("", "", "pass" if ok else "fail",
                       witness=None if ok else {"loewy": got,
                                                "expected": expected})


@check("seminormal_branched_rule",
       "a seminormal branched extension is distributive iff the part above "
       "the t-closure is distributive and nothing lies strictly between the "
       "base and the t-closure")
def seminormal_branched_rule(a):
    if not _proper(a):
        return _na("trivial extension")
    if not (a.flags().seminormal and a.flags().branched):
        return _na("extension not seminormal branched")
    L = a.lattice()
    d = a.decomposition()
    t_idx = L.index[d.t]
    upper_dist = L.interval(t_idx, L.top).check_distributive()[0]
    shape = set(L.interval_nodes(t_idx, L.top)) | {0} == set(range(len(L.nodes)))
    return _iff(L.verdict().distributive, upper_dist and shape,
                {"upper_distributive": upper_dist, "no_side_nodes": shape})


@check("splitter_existence",
       "for every support subset there is exactly one intermediate ring "
       "splitting the support there, with the complementary splitter as its "
       "unique lattice complement, and localization separates the interval")
def splitter_existence(a):
    if not _proper(a):
        return _na("trivial extension")
    ms = a.profile().msupp
    L = a.lattice()
    if ex.splitter(a, []) != a.base or ex.splitter(a, ms) != a.top:
        return CheckResult("", "", "fail", witness={"case": "endpoints"})
    for r in range(1, len(ms)):
        for X in itertools.combinations(ms, r):
            T = ex.splitter(a, list(X))
            rest = [m for m in ms if m not in X]
            To = ex.splitter(a, rest)
            comps = L.complements(L.index[T])
            if comps != [L.index[To]]:
                return CheckResult("", "", "fail", witness={
                    "X_sizes": [len(m) for m in X],
                    "complements": comps})
    # the localization map separates intermediate rings and fills the product
    S = a.ambient
    dec = a.base_decomposition()
    idems = [e for e, M in zip(dec.idempotents, dec.maximal_ideals) if M in ms]
    seen = set()
    for T in L.nodes:
        key = tuple(tuple(np.unique(S.mul[e, S.arr(T)]).tolist())
                    for e in idems)
        if key in seen:
            return CheckResult("", "", "fail",
                               witness={"case": "localization map not injective"})
        seen.add(key)
    expected = 1
    for M in ms:
        expected *= len(a.localized(M).lattice().nodes)
    if len(L.nodes) != expected:
        return CheckResult("", "", "fail",
                           witness={"nodes": len(L.nodes), "product": expected})
    return CheckResult("", "", "pass")


@check("split_complement_distributivity",
       "an extension split at an intermediate ring is distributive iff both "
       "complementary legs under the base are distributive")
def split_complement_distributivity(a):
    if not _proper(a):
        return _na("trivial extension")
    ms = a.profile().msupp
    if len(ms) < 2:
        return _na("support too small to split")
    L = a.lattice()
    for r in range(1, len(ms)):
        for X in itertools.combinations(ms, r):
            T = ex.splitter(a, list(X))
            To = ex.splitter(a, [m for m in ms if m not in X])
            left = L.interval(0, L.index[T]).check_distributive()[0]
            right = L.interval(0, L.index[To]).check_distributive()[0]
            if L.verdict().distributive != (left and right):
                return CheckResult("", "", "fail", witness={
                    "legs": [left, right],
                    "full": L.verdict().distributive})
    return CheckResult("", "", "pass",
                       side="lhs_true" if L.verdict().distributive else "lhs_false")


@check("branched_chained_lower_rule",
       "a branched extension with proper closures and chained lower "
       "interval is distributive iff the upper interval is distributive and "
       "the whole interval is pinched at the t-closure")
def branched_chained_lower_rule(a):
    if not _proper(a):
        return _na("trivial extension")
    d = a.decomposition()
    L = a.lattice()
    t_idx = L.index[d.t]
    if not (a.flags().branched and d.plus not in (a.base, a.top)
            and d.t not in (a.base, a.top)
            and L.interval(0, t_idx).is_chain()):
        return _na("needs branched with proper closures and chained lower part")
    upper = L.interval(t_idx, L.top).check_distributive()[0]
    pinched = L.is_pinched_at([t_idx])
    return _iff(L.verdict().distributive, upper and pinched,
                {"upper": upper, "pinched": pinched})


@check("pinch_lifts_from_lower_part",
       "in a distributive branched extension, pinching of the lower part at "
       "the seminormalization lifts to pinching at the t-closure")
def pinch_lifts_from_lower_part(a):
    if not _proper(a):
        return _na("trivial extension")
    L = a.lattice()
    if not (L.verdict().distributive and a.flags().branched):
        return _na("needs a distributive branched extension")
    d = a.decomposition()
    lowerL = L.interval(0, L.index[d.t])
    if d.plus in (a.base, d.t):
        lower_pinched = True
    else:
        lower_pinched = lowerL.is_pinched_at([lowerL.index[d.plus]])
    if not lower_pinched:
        return _na("lower part not pinched at the seminormalization")
    pinched = _pinched_at_t(a)
    return CheckResult("", "", "pass" if pinched else "fail",
                       witness=None if pinched else {"pinched": False})


@check("branched_characterization",
       "a branched extension is distributive iff both closure parts are "
       "distributive, the top and the u-closure have exactly two maximal "
       "ideals, and the interval is either pinched at the t-closure or "
       "carries the splitter ladder structure")
def branched_characterization(a):
    if not _proper(a) or not a.flags().branched:
        return _na("extension not branched")
    L = a.lattice()
    d = a.decomposition()
    t_idx = L.index[d.t]
    two_max = (len(a.max_ideals_top()) == 2
               and len(fr.maximal_ideals(a.ambient, d.u)) == 2)
    lower_dist = L.interval(0, t_idx).check_distributive()[0]
    upper_dist = L.interval(t_idx, L.top).check_distributive()[0]
    pinched = _pinched_at_t(a)
    case2 = not pinched and _splitter_ladder(a) is None
    rhs = two_max and lower_dist and upper_dist and (pinched or case2)
    return _iff(L.verdict().distributive, rhs,
                {"two_max": two_max, "lower": lower_dist, "upper": upper_dist,
                 "pinched": pinched, "split_case": case2})


@check("branched_splitter_ladder",
       "in the non-pinched distributive branched case the splitter ladder "
       "exists: the splitter above the off-support ideal is the "
       "co-subintegral closure of its own square, both ladders are chains "
       "of equal length, crossing back with the t-closure, and the interval "
       "partitions into the two closure parts plus the rungs")
def branched_splitter_ladder(a):
    if not _proper(a) or not a.flags().branched:
        return _na("extension not branched")
    if not a.lattice().verdict().distributive:
        return _na("extension not distributive")
    if _pinched_at_t(a):
        return _na("pinched at the t-closure (ladder case not exercised)")
    witness = _splitter_ladder(a)
    return CheckResult("", "", "pass" if witness is None else "fail", witness=witness)


def _splitter_ladder(a):
    """The witness of the first splitter-ladder condition that the branched
    extension ``a``, not pinched at its t-closure, fails, or None when it
    carries the ladder: the u-supports of [u, t] and [u, S] are 1 and 2
    points, an ideal separates them, the splitter V is the co-subintegral
    closure of [u, V v t], the ladders [V, V v t] and [u, t] are chains of
    equal length whose rungs meet t, and the closure parts and rungs
    partition the interval."""
    L, d = a.lattice(), a.decomposition()
    t_idx = L.index[d.t]
    usub = a.sub(d.u, a.top)
    ut = a.sub(d.u, d.t)
    if len(ut.profile().msupp) != 1 or len(usub.profile().msupp) != 2:
        return {"usupp_t": len(ut.profile().msupp),
                "usupp_top": len(usub.profile().msupp)}
    M = ut.profile().msupp[0]
    others = [m for m in usub.profile().msupp if m != M]
    if len(others) != 1:
        return {"case": "support ideals do not separate"}
    V = ex.splitter(usub, [others[0]])
    W = L.nodes[L.join[L.index[V], t_idx]]
    wsub = a.sub(d.u, W)
    if wsub.decomposition().cosub != V:
        return {"case": "splitter is not the co-subintegral closure of the "
                        "crossed square"}
    vw = L.interval_nodes(L.index[V], L.index[W])
    utn = L.interval_nodes(L.index[d.u], t_idx)
    chain_vw = L.interval(L.index[V], L.index[W]).is_chain()
    chain_ut = L.interval(L.index[d.u], t_idx).is_chain()
    if not (chain_vw and chain_ut and len(vw) == len(utn)):
        return {"ladders": [len(vw), len(utn)], "chains": [chain_vw, chain_ut]}
    # rungs: V_i cap t = U_i, and the partition of the whole interval
    vw_sorted = sorted(vw, key=lambda i: len(L.nodes[i]))
    ut_sorted = sorted(utn, key=lambda i: len(L.nodes[i]))
    for vi, ui in zip(vw_sorted, ut_sorted):
        if int(L.meet[vi, t_idx]) != ui:
            return {"rung": [vi, ui]}
    parts = set(L.interval_nodes(0, L.index[d.plus])) | \
        set(L.interval_nodes(t_idx, L.top))
    for vi in vw_sorted[:-1]:
        parts |= set(L.interval_nodes(int(L.meet[vi, t_idx]), vi))
    if parts != set(range(len(L.nodes))):
        return {"covered": len(parts), "nodes": len(L.nodes)}
    return None


@check("branched_splitter_consistency",
       "non-pinched distributive branched: the t-closure has two maximal "
       "ideals, and when the support above it has two points, the "
       "co-subintegral closure of the off-support splitter crosses back to "
       "the u-closure")
def branched_splitter_consistency(a):
    if not (_proper(a) and a.flags().branched
            and a.lattice().verdict().distributive):
        return _na("needs a distributive branched extension")
    d = a.decomposition()
    if _pinched_at_t(a):
        return _na("pinched at the t-closure")
    maxT = fr.maximal_ideals(a.ambient, d.t)
    if len(maxT) != 2:
        return CheckResult("", "", "fail", witness={"max_t": len(maxT)})
    tsub = a.sub(d.t, a.top)
    if len(tsub.profile().msupp) != 2:
        return CheckResult("", "", "pass")
    ut = a.sub(d.u, d.t)
    M = ut.profile().msupp[0]
    over = [N for N in maxT if N & d.u == M]
    prime_n = [N for N in maxT if N not in over]
    if len(prime_n) != 1:
        return CheckResult("", "", "fail", witness={"case": "no unique off ideal"})
    Wp = ex.splitter(tsub, [prime_n[0]])
    wsub = a.sub(a.base, Wp)
    V = wsub.decomposition().cosub
    if V is None or (V & d.t) != d.u:
        return CheckResult("", "", "fail",
                           witness={"case": "cosub does not cross back to u"})
    return CheckResult("", "", "pass")


@check("pinched_iff_single_u_support",
       "a distributive branched extension with distinct u- and t-closures "
       "is pinched at the t-closure iff the u-closure supports the top at "
       "exactly one ideal")
def pinched_iff_single_u_support(a):
    if not _proper(a) or not (a.flags().branched and a.lattice().verdict().distributive):
        return _na("needs a distributive branched extension")
    d = a.decomposition()
    if d.u == d.t:
        return _na("u-closure equals t-closure")
    pinched = _pinched_at_t(a)
    usub = a.sub(d.u, a.top)
    return _iff(pinched, len(usub.profile().msupp) == 1,
                {"u_support": len(usub.profile().msupp)})


@check("split_i_extension_cosub",
       "an i-extension with proper t-closure, two-point support and split "
       "closure parts has a co-subintegral closure over which the base is "
       "t-closed; distributivity of the upper part transfers to it")
def split_i_extension_cosub(a):
    if not _proper(a):
        return _na("trivial extension")
    d = a.decomposition()
    if not (a.flags().i_extension and d.t not in (a.base, a.top)
            and len(a.profile().msupp) == 2):
        return _na("needs an i-extension with proper t-closure and two-point "
                   "support")
    lowsupp = set(ex.msupp_of_pair(a, a.base, d.t))
    upsupp = set(ex.msupp_of_pair(a, d.t, a.top))
    if lowsupp & upsupp:
        return _na("not split at the t-closure")
    cosub = d.cosub
    if cosub is None:
        return CheckResult("", "", "fail", witness={"case": "no co-subintegral "
                                                            "closure"})
    if not ex.is_t_closed(a.ambient, a.base, cosub):
        return CheckResult("", "", "fail",
                           witness={"case": "base not t-closed in cosub"})
    L = a.lattice()
    upper = L.interval(L.index[d.t], L.top).check_distributive()[0]
    if upper:
        lower = L.interval(0, L.index[cosub]).check_distributive()[0]
        if not lower:
            return CheckResult("", "", "fail",
                               witness={"case": "distributivity did not transfer"})
    return CheckResult("", "", "pass")


# ----------------------------------------------------------------------
# fibers

@check("fiber_bound",
       "a distributive extension has at most two maximal ideals of the top "
       "over each maximal ideal of the base")
def fiber_bound(a):
    if not _proper(a):
        return _na("trivial extension")
    sizes = sorted(len(v) for v in ex.fibers(a).values())
    return _implies(a.lattice().verdict().distributive,
                    all(s <= 2 for s in sizes), {"fiber_sizes": sizes},
                    reason="extension not distributive")


@check("fiber_bound_blocks_decomposed_towers",
       "when all fibers have at most two points there is no one-ideal tower "
       "of two decomposed covers")
def fiber_bound_blocks_decomposed_towers(a):
    if not _proper(a):
        return _na("trivial extension")
    if any(len(v) > 2 for v in ex.fibers(a).values()):
        return _na("a fiber has more than two points")
    L = a.lattice()
    for (i, j), t1 in ex.cover_types(a).items():
        if t1 is not ex.MinimalType.DECOMPOSED:
            continue
        for (j2, k), t2 in ex.cover_types(a).items():
            if j2 != j or t2 is not ex.MinimalType.DECOMPOSED:
                continue
            if len(ex.msupp_of_pair(a, L.nodes[i], L.nodes[k])) == 1:
                return CheckResult("", "", "fail",
                                   witness={"tower": [i, j, k]})
    return CheckResult("", "", "pass")


@check("fiber_bound_locally_minimal_legs",
       "when all fibers have at most two points, the seminormal-infra legs "
       "of the closure diagram are locally minimal")
def fiber_bound_locally_minimal_legs(a):
    if not _proper(a):
        return _na("trivial extension")
    if any(len(v) > 2 for v in ex.fibers(a).values()):
        return _na("a fiber has more than two points")
    d = a.decomposition()
    usub = a.sub(a.base, d.u)
    V = usub.decomposition().plus
    leg1 = V == d.u or a.sub(V, d.u).flags().locally_minimal
    leg2 = d.plus == d.t or a.sub(d.plus, d.t).flags().locally_minimal
    ok = leg1 and leg2
    return CheckResult("", "", "pass" if ok else "fail",
                       witness=None if ok else {"legs": [leg1, leg2]})


@check("seminormal_fiber_converse",
       "a seminormal infra-integral extension with locally maximal conductor "
       "and two-point fibers is distributive and locally minimal decomposed")
def seminormal_fiber_converse(a):
    if not _proper(a):
        return _na("trivial extension")
    if not (a.flags().seminormal and a.flags().infra_integral):
        return _na("extension not seminormal infra-integral")
    if any(len(v) > 2 for v in ex.fibers(a).values()):
        return _na("a fiber has more than two points")
    # locally maximal conductor: each localized conductor is the local
    # maximal ideal or everything
    for M in a.profile().msupp:
        loc = a.localized(M)
        cond = ex.conductor(loc)
        maxi = loc.max_ideals_base()
        if cond != loc.base and cond not in maxi:
            return _na("conductor not locally maximal")
    dist = a.lattice().verdict().distributive
    if not dist or not a.flags().locally_minimal:
        return CheckResult("", "", "fail",
                           witness={"distributive": dist,
                                    "locally_minimal": a.flags().locally_minimal})
    for M in a.profile().msupp:
        loc = a.localized(M)
        if ex.classify_minimal(loc) is not ex.MinimalType.DECOMPOSED:
            return CheckResult("", "", "fail",
                               witness={"case": "local step not decomposed"})
    return CheckResult("", "", "pass")


@check("one_generator_idempotent_like_fibers",
       "an extension generated by one element with idempotent-style "
       "relations has fibers of at most two points and top/conductor "
       "isomorphic to a doubled base/conductor")
def one_generator_idempotent_like_fibers(a):
    if not _proper(a):
        return _na("trivial extension")
    S = a.ambient
    if ex.idempotent_style_generator(a) is None:
        return _na("no single idempotent-style generator")
    sizes = sorted(len(v) for v in ex.fibers(a).values())
    if any(s > 2 for s in sizes):
        return CheckResult("", "", "fail", witness={"fiber_sizes": sizes})
    # the conductor lies in the base, so base/I is the base's image in top/I
    Q = a.quotient(a.profile().conductor)
    SI, RI = (Q.ambient.subset_ring(T, Q.ambient.one)[0] for T in (Q.top, Q.base))
    doubled = fr.product_ring([RI, RI], size_cap=max(S.size_cap, RI.size ** 2))
    ok = fr.rings_isomorphic(SI, doubled)
    return CheckResult("", "", "pass" if ok else "fail",
                       witness=None if ok else {"case": "top/conductor not a "
                                                        "doubled base/conductor"})


# ----------------------------------------------------------------------
# counting

@check("support_product_formulas",
       "node count multiplies and length adds over independently enumerated "
       "localizations at the support")
def support_product_formulas(a):
    if not _proper(a):
        return _na("trivial extension")
    ms = a.profile().msupp
    count = 1
    length = 0
    for M in ms:
        loc = a.localized(M).lattice()
        count *= len(loc.nodes)
        length += loc.length
    L = a.lattice()
    ok = count == len(L.nodes) and length == L.length
    return CheckResult("", "", "pass" if ok else "fail",
                       witness=None if ok else {
                           "nodes": len(L.nodes), "product": count,
                           "length": L.length, "sum": length})


@check("length_formula_local",
       "over a local base, the length of a distributive interval is the "
       "lower closure length plus the upper closure length plus the number "
       "of top maximal ideals minus one")
def length_formula_local(a):
    if not _proper(a):
        return _na("trivial extension")
    L = a.lattice()
    if not (L.verdict().distributive and len(a.max_ideals_base()) == 1):
        return _na("needs a distributive extension over a local base")
    d = a.decomposition()
    lhs = L.length
    rhs = (int(L.levels_from(0)[L.index[d.plus]])
           + int(L.levels_from(L.index[d.t])[L.top])
           + len(a.max_ideals_top()) - 1)
    ok = lhs == rhs
    return CheckResult("", "", "pass" if ok else "fail",
                       witness=None if ok else {"length": lhs, "formula": rhs})


@check("count_formula_local",
       "over a local base, the node count of a distributive interval "
       "follows the closure-part case formulas (with the splitter ladder "
       "term in the crossed case)")
def count_formula_local(a):
    if not _proper(a):
        return _na("trivial extension")
    L = a.lattice()
    if not (L.verdict().distributive and len(a.max_ideals_base()) == 1):
        return _na("needs a distributive extension over a local base")
    d = a.decomposition()
    max_u = fr.maximal_ideals(a.ambient, d.u)
    ut = a.sub(d.u, d.t)
    supp_ut = ut.profile().msupp
    if len(max_u) > 2 or len(supp_ut) > 1:
        return CheckResult("", "", "fail",
                           witness={"max_u": len(max_u),
                                    "supp_ut": len(supp_ut)})
    l_lower = int(L.levels_from(0)[L.index[d.plus]])
    n_upper = L.interval_size(L.index[d.t], L.top)
    total = len(L.nodes)
    if len(supp_ut) == 0:
        lam = 0 if d.plus == d.t else 1
        want = l_lower + n_upper + lam
        case = "merged"
    elif len(max_u) == 2:
        usub = a.sub(d.u, a.top)
        supp_us = usub.profile().msupp
        M = supp_ut[0]
        others = [m for m in supp_us if m != M]
        l_ut = int(L.levels_from(L.index[d.u])[L.index[d.t]])
        if len(supp_us) == 2:
            V = ex.splitter(usub, [others[0]])
            n_uv = L.interval_size(L.index[d.u], L.index[V])
            want = l_lower + n_upper + l_ut * n_uv + 1
            case = "crossed"
        else:
            want = l_lower + n_upper + l_ut + 1
            case = "pinched-crossed"
    else:
        want = l_lower + n_upper
        case = "local-u"
    ok = total == want
    return CheckResult("", "", "pass" if ok else "fail",
                       witness=None if ok else {"nodes": total,
                                                "formula": want, "case": case},
                       side=None)


# ----------------------------------------------------------------------
# fields and delta closure

@check("field_interval_is_divisor_lattice",
       "the subring interval of a finite field extension is the divisor "
       "lattice of the degree: distributive always, Boolean iff the degree "
       "is squarefree, nodes matching the power-map fixed subfields")
def field_interval_is_divisor_lattice(a):
    if not _proper(a):
        return _na("trivial extension")
    S = a.ambient
    if not fr.is_field(S) or len(a.top) != S.size:
        return _na("top ring is not a field")
    q = len(a.base)
    # independent construction: fixed points of x -> x^(q^d)
    fixed = fr.power_fixed_sets(S, q)
    if fixed is None:
        return CheckResult("", "", "fail",
                           witness={"case": "size not a base power"})
    divs = list(fixed)
    n = divs[-1]
    L = a.lattice()
    if len(L.nodes) != len(divs):
        return CheckResult("", "", "fail",
                           witness={"nodes": len(L.nodes), "divisors": len(divs)})
    by_size = {}
    for i, node in enumerate(L.nodes):
        by_size.setdefault(len(node), []).append(i)
    for d in divs:
        if len(by_size.get(q ** d, [])) != 1:
            return CheckResult("", "", "fail",
                               witness={"case": f"no unique node of size q^{d}"})
        if fixed[d] != L.nodes[by_size[q ** d][0]]:
            return CheckResult("", "", "fail",
                               witness={"case": f"power-map subfield mismatch "
                                                f"at degree {d}"})
    for d1 in divs:
        for d2 in divs:
            i, j = by_size[q ** d1][0], by_size[q ** d2][0]
            if bool(L.leq[i, j]) != (d2 % d1 == 0):
                return CheckResult("", "", "fail",
                                   witness={"case": "order mismatch",
                                            "degrees": [d1, d2]})
    if not L.verdict().distributive:
        return CheckResult("", "", "fail", witness={"case": "not distributive"})
    if L.verdict().boolean_lattice != fr.is_squarefree(n):
        return CheckResult("", "", "fail",
                           witness={"boolean": L.verdict().boolean_lattice,
                                    "squarefree": fr.is_squarefree(n)})
    return CheckResult("", "", "pass")


@check("delta_iff_upper_part_arithmetic",
       "a distributive extension has an addition-closed interval iff the "
       "part above the t-closure is locally chained")
def delta_iff_upper_part_arithmetic(a):
    if not _proper(a) or not a.lattice().verdict().distributive:
        return _na("extension not distributive")
    d = a.decomposition()
    upper_arith = d.t == a.top or a.sub(d.t, a.top).flags().arithmetic
    return _iff(a.flags().delta, upper_arith, {"upper_arithmetic": upper_arith})


@check("distributive_infra_is_delta",
       "a distributive infra-integral extension has an addition-closed "
       "interval")
def distributive_infra_is_delta(a):
    if not _proper(a):
        return _na("trivial extension")
    return _implies(a.lattice().verdict().distributive
                    and a.flags().infra_integral,
                    a.flags().delta, {"delta": a.flags().delta},
                    reason="needs a distributive infra-integral extension")


@check("u_closed_delta_equivalences",
       "for u-closed extensions: distributive+addition-closed, "
       "arithmetic+addition-closed and distributive+arithmetic coincide")
def u_closed_delta_equivalences(a):
    if not _proper(a) or not a.flags().u_closed:
        return _na("extension not u-closed")
    f, dist = a.flags(), a.lattice().verdict().distributive
    v1 = dist and f.delta
    v2 = f.arithmetic and f.delta
    v3 = dist and f.arithmetic
    ok = v1 == v2 == v3
    return CheckResult("", "", "pass" if ok else "fail",
                       witness=None if ok else {"triple": [v1, v2, v3]},
                       side="lhs_true" if v1 else "lhs_false")


@check("seminormal_delta_rule",
       "a seminormal addition-closed extension over a local base is "
       "distributive iff nothing lies strictly between the base and the "
       "t-closure")
def seminormal_delta_rule(a):
    if not _proper(a):
        return _na("trivial extension")
    if not (a.flags().seminormal and a.flags().delta
            and len(a.max_ideals_base()) == 1):
        return _na("needs a seminormal addition-closed extension over a "
                   "local base")
    L = a.lattice()
    d = a.decomposition()
    shape = set(L.interval_nodes(L.index[d.t], L.top)) | {0} == \
        set(range(len(L.nodes)))
    return _iff(L.verdict().distributive, shape, {"no_side_nodes": shape})


@check("chain_ring_quadratic_distributive",
       "one quadratic generator over a local ring with principal maximal "
       "ideal yields a distributive interval")
def chain_ring_quadratic_distributive(a):
    if not _proper(a):
        return _na("trivial extension")
    S = a.ambient
    maxR = a.max_ideals_base()
    if len(maxR) != 1:
        return _na("base not local")
    M, base = S.arr(maxR[0]), S.arr(a.base)
    # the ideal (m) of the base is m * base, closed under addition
    principal = any(np.array_equal(np.unique(S.mul[m, base]), M) for m in M.tolist())
    if not principal:
        return _na("maximal ideal of the base not principal")
    base_list = sorted(a.base)
    quad = None
    # base[s] and whether s^2 lies in base + base*s are the same for every
    # s in a coset s + base
    for s in ex.coset_leaders(S, a.base, a.top):
        if S.adjoin(a.base, s) != a.top:
            continue
        lin_span = S.additive_closure(
            base_list + [S.m(s, r) for r in base_list])
        if S.m(s, s) in set(lin_span.tolist()):
            quad = s
            break
    if quad is None:
        return _na("no quadratic generator")
    dist = a.lattice().verdict().distributive
    return CheckResult("", "", "pass" if dist else "fail",
                       witness=None if dist else {"distributive": False})
