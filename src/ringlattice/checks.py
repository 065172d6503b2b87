"""Named structural checks run by the verification harness.

Every check evaluates the two sides of a characterization (or the
hypothesis and conclusion of an implication) by independent computations
and compares them.  Hypotheses unmet produce an ``n/a`` result with the
reason; failures carry a minimal witness.  For iff-shaped checks the
``side`` field records which side of the equivalence the instance
exercised, so the harness can report one-sided coverage.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import extension as ex
from . import finring as fr
from .lattice import LatticeError
from .verify import Analysis, CheckResult, check


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


def _proper(a: Analysis):
    return not a.E.trivial


def _pinched_at_t(a: Analysis):
    """The interval is pinched at the t-closure (trivially so when the
    t-closure is an endpoint)."""
    d, L = a.decomp, a.L
    return d.t in (a.E.base, a.E.top) or L.is_pinched_at([L.index[d.t]])


def _type_sets(a: Analysis):
    """{set of minimal types: one witness chain} over every maximal chain."""
    types = a.cover_types
    return a.L.chain_label_sets(lambda u, v: types[(u, v)].value)


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
    f = a.flags
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
    all_types = {t.value for t in a.cover_types.values()}
    exists_monotype = any(len(types) == 1 for types in _type_sets(a))
    return _iff(len(all_types) == 1, exists_monotype,
                {"cover_types": sorted(all_types)})


@check("support_via_chain_conductors",
       "the support equals the set of contracted step conductors along any "
       "maximal chain")
def support_via_chain_conductors(a):
    if not _proper(a):
        return _na("trivial extension")
    msupp = set(a.profile.msupp)

    def contracted_conductor(u, v):
        return ex.conductor_pair(a.S, a.nodes[u], a.nodes[v]) & a.E.base

    for contracted, chain in a.L.chain_label_sets(contracted_conductor).items():
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
    L = a.L
    # cover_types classified every cover (raising unless exactly one type
    # pattern holds), so its keys are the classified pairs
    classified = a.cover_types
    for i, j in np.argwhere(L.leq & ~np.eye(len(L), dtype=bool)).tolist():
        minimal = ex.is_minimal_pair(a.S, L.nodes[i], L.nodes[j])
        if minimal != ((i, j) in classified):
            return CheckResult("", "", "fail",
                               witness={"pair": [i, j], "cover": bool(L.covers[i, j]),
                                        "definitional": minimal})
    return CheckResult("", "", "pass")


@check("i_extension_iff_no_decomposed_part",
       "injective spectrum map iff seminormalization equals t-closure")
def i_extension_iff_no_decomposed_part(a):
    if not _proper(a):
        return _na("trivial extension")
    d = a.decomp
    return _iff(a.flags.i_extension, d.plus == d.t,
                {"plus_size": len(d.plus), "t_size": len(d.t)})


@check("u_closed_iff_i_extension",
       "the idempotent-style element condition for the whole extension "
       "matches injectivity of the spectrum map")
def u_closed_iff_i_extension(a):
    if not _proper(a):
        return _na("trivial extension")
    return _iff(a.flags.u_closed, a.flags.i_extension, {})


@check("canonical_diagram_types",
       "base <= u-meet-plus is subintegral, u-meet-plus <= u is seminormal "
       "infra-integral, u <= t is subintegral, t <= top is t-closed")
def canonical_diagram_types(a):
    if not _proper(a):
        return _na("trivial extension")
    d = a.decomp
    mid = d.u & d.plus
    S = a.S
    checks = [
        ("base<=u^plus subintegral", ex.is_subintegral_pair(S, a.E.base, mid)),
        ("u^plus<=u seminormal", ex.is_seminormal(S, mid, d.u)),
        ("u^plus<=u infra-integral", ex.is_infra_integral_pair(S, mid, d.u)),
        ("u<=t subintegral", ex.is_subintegral_pair(S, d.u, d.t)),
        ("t<=top t-closed", ex.is_t_closed(S, d.t, a.E.top)),
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
    d = a.decomp
    if d.t == a.E.base:
        inner = a.E.base
    else:
        inner = a.sub(a.E.base, d.t).decomp.cosub
    if inner != d.u:
        return CheckResult("", "", "fail",
                           witness={"u_size": len(d.u),
                                    "cosub_in_t_size": inner and len(inner)})
    if a.flags.infra_integral and d.cosub != d.u:
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
    locs = {tuple(sorted(M)): a.loc(M).verdict.distributive
            for M in a.profile.msupp}
    return _iff(a.verdict.distributive, all(locs.values()),
                {"local_verdicts": {str(k[:3]) + "...": v
                                    for k, v in locs.items()}})


@check("shared_ideal_quotient_equivalence",
       "distributive iff the quotient modulo any (equivalently some) common "
       "ideal is distributive")
def shared_ideal_quotient_equivalence(a):
    if not _proper(a):
        return _na("trivial extension")
    # an ideal of the top inside the base lies in the conductor
    shared = a.S.all_ideals(a.E.top, gens=ex.conductor(a.E))
    # the quotient by {0} is the extension itself
    verdicts = [a.verdict.distributive if len(I) == 1 else
                ex.quotient_extension(a.S, a.E.base, a.E.top, I)
                .lattice().verdict().distributive for I in shared]
    ok = all(v == a.verdict.distributive for v in verdicts)
    return CheckResult("", "", "pass" if ok else "fail",
                       witness=None if ok else {"verdicts": verdicts,
                                                "full": a.verdict.distributive},
                       side="lhs_true" if a.verdict.distributive else "lhs_false")


@check("quotient_transfer",
       "a distributive extension stays distributive modulo any ideal of the "
       "top ring (contracted to the base on the left)")
def quotient_transfer(a):
    if not _proper(a) or not a.verdict.distributive:
        return _na("extension not distributive")
    for J in a.S.all_ideals(a.E.top):
        # top/{0} is the extension itself, top/top is no ring
        if len(J) == 1 or J == a.E.top:
            continue
        sub = ex.quotient_extension(a.S, a.E.base, a.E.top, J)
        if not sub.lattice().verdict().distributive:
            return CheckResult("", "", "fail",
                               witness={"ideal_size": len(J)})
    return CheckResult("", "", "pass")


@check("product_transfer",
       "when the base contains every primitive idempotent of the top ring, "
       "distributivity holds iff it holds on each factor")
def product_transfer(a):
    if not _proper(a):
        return _na("trivial extension")
    dec_top = a.E.top_decomposition()
    if len(dec_top.idempotents) < 2 or \
            not all(e in a.E.base for e in dec_top.idempotents):
        return _na("base does not decompose along the top ring's factors")
    # the top's primitive idempotents are then the base's own, so each
    # factor is the localization at a maximal ideal of the base
    verdicts = [a.loc(M).verdict.distributive
                for M in a.E.base_decomposition().maximal_ideals]
    return _iff(a.verdict.distributive, all(verdicts),
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
        label=f"{S.label}(+)M", kind="derived", size_cap=max(m, S.size_cap))


@check("idealization_transfer",
       "distributivity is preserved and reflected by gluing a square-zero "
       "copy of the top ring onto both sides")
def idealization_transfer(a):
    if not _proper(a):
        return _na("trivial extension")
    n = len(a.E.top)
    if n > 16:
        return _na("top ring too large for the doubled construction")
    big = doubled_ring(a.S, a.E.top)
    pos = {x: i for i, x in enumerate(sorted(a.E.top))}
    base = frozenset(pos[r] * n + i for r in sorted(a.E.base) for i in range(n))
    sub = Analysis(a.name + "(+)M", ex.Extension(big, base))
    return _iff(a.verdict.distributive, sub.verdict.distributive,
                {"doubled_verdict": sub.verdict.distributive})


# ----------------------------------------------------------------------
# lattice criteria

@check("b2_iff_length2_card4",
       "Boolean of length 2 iff length 2 with exactly 4 nodes")
def b2_iff_length2_card4(a):
    if not _proper(a):
        return _na("trivial extension")
    v = a.verdict
    lhs = v.boolean_lattice and v.length == 2
    rhs = v.length == 2 and len(a.nodes) == 4
    return _iff(lhs, rhs, {"length": v.length, "nodes": len(a.nodes)})


@check("distributive_implies_catenarian",
       "a distributive interval is catenarian (and finite)")
def distributive_implies_catenarian(a):
    if not _proper(a):
        return _na("trivial extension")
    v = a.verdict
    return _implies(v.distributive, v.catenarian,
                    {"catenarian": v.catenarian},
                    reason="extension not distributive")


@check("catenarian_length2_rule",
       "a catenarian interval is distributive iff every length-2 "
       "subinterval has at most 4 nodes")
def catenarian_length2_rule(a):
    if not _proper(a):
        return _na("trivial extension")
    v = a.verdict
    if not v.catenarian:
        return _na("extension not catenarian")
    ok, wit = a.L.check_length2_rule()   # internally asserted against verdict
    return _iff(v.distributive, ok, {"rule_witness": wit})


@check("length2_card_rule",
       "a length-2 extension is distributive iff it has at most 4 nodes")
def length2_card_rule(a):
    if not _proper(a):
        return _na("trivial extension")
    if a.L.length != 2:
        return _na("length is not 2")
    return _iff(a.verdict.distributive, len(a.nodes) <= 4,
                {"nodes": len(a.nodes)})


@check("covering_pair_criterion",
       "the three distributivity routes (law scan, forbidden sublattice, "
       "covering-pair intervals) agree")
def covering_pair_criterion(a):
    dist, wit = a.L.check_distributive()   # raises on route disagreement
    return CheckResult("", "", "pass",
                       side="lhs_true" if dist else "lhs_false")


@check("hereditary_distributivity",
       "distributive iff every subinterval is distributive")
def hereditary_distributivity(a):
    if not _proper(a):
        return _na("trivial extension")
    L = a.L
    n = len(L.nodes)
    dist = a.verdict.distributive
    if n > 40:
        return _na("too many nodes for the full subinterval sweep")
    for i in range(n):
        for j in range(n):
            if not L.leq[i, j]:
                continue
            sub_ok, _ = L.interval(i, j).check_distributive()
            if dist and not sub_ok:
                return CheckResult("", "", "fail",
                                   witness={"interval": [i, j]})
            if not dist and (i, j) == (0, n - 1) and sub_ok:
                return CheckResult("", "", "fail",
                                   witness={"interval": [i, j]})
    return CheckResult("", "", "pass",
                       side="lhs_true" if dist else "lhs_false")


@check("pinched_segment_rule",
       "an interval pinched at a chain is distributive iff every segment "
       "between consecutive chain members is distributive")
def pinched_segment_rule(a):
    if not _proper(a):
        return _na("trivial extension")
    L = a.L
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
        if a.verdict.distributive != all(segs):
            return CheckResult("", "", "fail",
                               witness={"chain": list(chain), "segments": segs})
    if tested == 0:
        return _na("no pinch chain found")
    return CheckResult("", "", "pass",
                       side="lhs_true" if a.verdict.distributive else "lhs_false")


@check("loewy_boolean_steps",
       "an interval pinched at its Loewy series is distributive iff every "
       "Loewy step is Boolean")
def loewy_boolean_steps(a):
    if not _proper(a):
        return _na("trivial extension")
    L = a.L
    series = L.loewy_series()
    interior = [t for t in series if t not in (0, L.top)]
    if interior and not L.is_pinched_at(interior):
        return _na("not pinched at the Loewy series")
    steps = [L.interval(u, v).check_boolean()[0]
             for u, v in zip(series, series[1:])]
    return _iff(a.verdict.distributive, all(steps), {"steps": steps})


@check("atom_join_is_simple",
       "in a distributive interval the join of distinct atoms is generated "
       "by the sum of their generators")
def atom_join_is_simple(a):
    if not _proper(a) or not a.verdict.distributive:
        return _na("extension not distributive")
    L = a.L
    atoms = L.atoms()
    if len(atoms) < 2:
        return _na("fewer than two atoms")
    S = a.S
    gens = {}
    for t in atoms:
        gens[t] = min(a.nodes[t] - a.E.base)
    for combo in itertools.chain.from_iterable(
            itertools.combinations(atoms, r) for r in range(2, len(atoms) + 1)):
        join = combo[0]
        for t in combo[1:]:
            join = int(L.join[join, t])
        s = S.zero
        for t in combo:
            s = S.a(s, gens[t])
        gen = S.adjoin(a.E.base, s)
        if gen != a.nodes[join]:
            return CheckResult("", "", "fail",
                               witness={"atoms": list(combo),
                                        "join_size": len(a.nodes[join]),
                                        "generated_size": len(gen)})
    return CheckResult("", "", "pass")


@check("chained_implies_simple",
       "a chained extension is generated by one element")
def chained_implies_simple(a):
    if not _proper(a):
        return _na("trivial extension")
    return _implies(a.verdict.chained, a.flags.simple, {},
                    reason="extension not chained")


@check("arithmetic_implies_distributive",
       "locally chained extensions are distributive")
def arithmetic_implies_distributive(a):
    if not _proper(a):
        return _na("trivial extension")
    return _implies(a.flags.arithmetic, a.verdict.distributive,
                    {"distributive": a.verdict.distributive},
                    reason="extension not arithmetic")


@check("locally_minimal_implies_distributive",
       "locally minimal extensions are distributive")
def locally_minimal_implies_distributive(a):
    if not _proper(a):
        return _na("trivial extension")
    return _implies(a.flags.locally_minimal, a.verdict.distributive,
                    {"distributive": a.verdict.distributive},
                    reason="extension not locally minimal")


@check("two_atom_composite_profile",
       "two minimal steps compose to a 4-node square when their crucial "
       "ideals differ; over a shared crucial ideal, inert plus non-inert "
       "breaks catenarity while two non-inert steps give an infra-integral "
       "catenarian composite of length 2 or 3 decided by the ideal product")
def two_atom_composite_profile(a):
    if not _proper(a):
        return _na("trivial extension")
    L = a.L
    atoms = L.atoms()
    if len(atoms) < 2:
        return _na("fewer than two atoms")
    S, base = a.S, a.E.base
    cond = {t: ex.conductor_pair(S, base, a.nodes[t]) for t in atoms}
    over = {t: [Q for Q in fr.maximal_ideals(S, a.nodes[t])
                if Q & base == cond[t]] for t in atoms}
    for t, u in itertools.combinations(atoms, 2):
        j = int(L.join[t, u])
        M, N = cond[t], cond[u]
        typ_t = a.cover_types[(0, t)]
        typ_u = a.cover_types[(0, u)]
        sub = L.interval(0, j)
        if M != N:
            if len(sub.nodes) != 4:
                return CheckResult("", "", "fail", witness={
                    "atoms": [t, u], "case": "distinct crucial ideals",
                    "interval_size": len(sub.nodes)})
            continue
        inert_t = typ_t is ex.MinimalType.INERT
        inert_u = typ_u is ex.MinimalType.INERT
        if inert_t != inert_u:
            if sub.check_catenarian()[0]:
                return CheckResult("", "", "fail", witness={
                    "atoms": [t, u], "case": "inert vs non-inert",
                    "catenarian": True})
            continue
        if inert_t and inert_u:
            continue  # no claim for two inert steps over one ideal
        cat_ok = sub.check_catenarian()[0]
        infra = ex.is_infra_integral_pair(S, base, a.nodes[j])
        if not cat_ok or not infra:
            return CheckResult("", "", "fail", witness={
                "atoms": [t, u], "case": "two non-inert",
                "catenarian": cat_ok, "infra_integral": infra})
        in_M = S.mask(M)
        prod_in = False
        for P in over[t]:
            for Q in over[u]:
                span = S.additive_closure(
                    np.unique(S.mul[np.ix_(S.arr(P), S.arr(Q))]))
                if in_M[span].all():
                    prod_in = True
        want = 2 if prod_in else 3
        if sub.length != want:
            return CheckResult("", "", "fail", witness={
                "atoms": [t, u], "case": "two non-inert",
                "product_inside": prod_in, "length": sub.length,
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
    L = a.L
    pairs = []
    for v in range(len(L.nodes)):
        lev = L.levels_from(v)
        pairs.extend((v, int(w)) for w in np.flatnonzero(lev == 2))
    if not pairs:
        return _na("no length-2 subinterval")
    S = a.S
    for v, w in pairs:
        V, W = a.nodes[v], a.nodes[w]
        pa = a.sub(V, W)
        lhs = pa.L.check_boolean()[0]
        prof = pa.profile
        cond = prof.conductor
        rhs = False
        if len(prof.msupp) == 2:
            rhs = True
        elif len(prof.msupp) == 1:
            M = prof.crucial
            if ex.is_infra_integral_pair(S, V, W):
                plus = pa.decomp.plus
                if plus not in (V, W) and cond == M:
                    rhs = True
            if not rhs and cond == M and ex.is_t_closed(S, V, W):
                # residue interval must have exactly 4 subfields
                res = ex.quotient_extension(S, V, W, M)
                rhs = fr.is_field(res.ambient) and len(res.lattice().nodes) == 4
        if lhs != rhs:
            return CheckResult("", "", "fail", witness={
                "interval": [v, w], "b2": lhs, "cases": rhs})
    return CheckResult("", "", "pass")


# ----------------------------------------------------------------------
# isotype families over a local base

@check("local_atoms_distinct_types",
       "over a local base, a distributive infra-integral extension has no "
       "two distinct minimal subextensions of the same type")
def local_atoms_distinct_types(a):
    if not _proper(a):
        return _na("trivial extension")
    if not (a.flags.infra_integral and a.verdict.distributive
            and len(a.E.max_ideals_base()) == 1):
        return _na("needs a distributive infra-integral extension over a local base")
    types = [a.cover_types[(0, t)].value for t in a.L.atoms()]
    ok = len(types) == len(set(types))
    return CheckResult("", "", "pass" if ok else "fail",
                       witness=None if ok else {"atom_types": types})


@check("subintegral_distributive_iff_arithmetic",
       "a subintegral extension is distributive iff it is locally chained")
def subintegral_distributive_iff_arithmetic(a):
    if not _proper(a) or not a.flags.subintegral:
        return _na("extension not subintegral")
    return _iff(a.verdict.distributive, a.flags.arithmetic,
                {"arithmetic": a.flags.arithmetic})


@check("seminormal_infra_iff_locally_minimal",
       "a seminormal infra-integral extension is distributive iff it is "
       "locally minimal")
def seminormal_infra_iff_locally_minimal(a):
    if not _proper(a) or not (a.flags.seminormal and a.flags.infra_integral):
        return _na("extension not seminormal infra-integral")
    return _iff(a.verdict.distributive, a.flags.locally_minimal,
                {"locally_minimal": a.flags.locally_minimal})


@check("t_closed_residual_distributivity",
       "a t-closed extension is distributive iff all its residue-field "
       "extensions are distributive")
def t_closed_residual_distributivity(a):
    if not _proper(a) or not a.flags.t_closed:
        return _na("extension not t-closed")
    res = [ex.quotient_extension(a.S, a.E.base, a.E.top, Q)
           .lattice().verdict().distributive for Q in a.E.max_ideals_top()]
    return _iff(a.verdict.distributive, all(res), {"residual_verdicts": res})


@check("module_lattice_correspondence",
       "when the top splits as base plus a square-zero ideal, intermediate "
       "rings correspond to submodules, and distributivity says every "
       "localized submodule lattice is a chain")
def module_lattice_correspondence(a):
    if not _proper(a):
        return _na("trivial extension")
    S = a.S
    sq_zero = [s for s in sorted(a.E.top) if S.m(s, s) == S.zero]
    N = frozenset(S.ideal_closure(a.E.top, sq_zero).tolist())
    Na = S.arr(N)
    prods = S.mul[np.ix_(Na, Na)]
    if (prods != S.zero).any() or \
            (a.E.base & N) != {S.zero} or \
            len(a.E.base) * len(N) != len(a.E.top):
        return _na("top is not base plus a square-zero complement")
    subs = S.all_ideals(a.E.base, gens=N)
    mapped = {frozenset(S.additive_closure(sorted(a.E.base | V)).tolist())
              for V in subs}
    if mapped != set(a.nodes):
        return CheckResult("", "", "fail",
                           witness={"submodules": len(subs),
                                    "nodes": len(a.nodes)})
    # distributive iff every localized submodule lattice is a chain:
    # equivalently, localized at each base ideal, the interval is a chain
    chains = all(a.loc(M).verdict.chained for M in a.profile.msupp)
    return _iff(a.verdict.distributive, chains, {"localized_chains": chains})


# ----------------------------------------------------------------------
# unbranched / branched structure over a local base

def _locally_unbranched(a):
    return all(len(a.loc(M).E.max_ideals_top()) == 1 for M in a.profile.msupp)


@check("unbranched_characterization",
       "a locally unbranched extension is distributive iff at every support "
       "ideal the localized interval has a chained lower closure part, a "
       "distributive upper part, and is pinched at the local t-closure")
def unbranched_characterization(a):
    if not _proper(a):
        return _na("trivial extension")
    if not _locally_unbranched(a):
        return _na("extension branches at some support ideal")
    for M in a.profile.msupp:
        loc = a.loc(M)
        L = loc.L
        d = loc.decomp
        t_idx = L.index[d.t]
        lower = (d.t == loc.E.base) or L.interval(0, t_idx).is_chain()
        upper = L.interval(t_idx, L.top).check_distributive()[0]
        pinched = _pinched_at_t(loc)
        rhs = lower and upper and pinched
        if loc.verdict.distributive != rhs:
            return CheckResult("", "", "fail", witness={
                "ideal_size": len(M), "lower_chain": lower,
                "upper_distributive": upper, "pinched": pinched,
                "local_distributive": loc.verdict.distributive})
    return CheckResult("", "", "pass",
                       side="lhs_true" if a.verdict.distributive else "lhs_false")


@check("unbranched_locally_minimal_step_arithmetic",
       "a distributive locally unbranched extension whose t-closure sits "
       "locally minimally under the top is locally chained")
def unbranched_locally_minimal_step_arithmetic(a):
    if not _proper(a):
        return _na("trivial extension")
    d = a.decomp
    hyp = (a.verdict.distributive and _locally_unbranched(a)
           and (d.t == a.E.top
                or a.sub(d.t, a.E.top).flags.locally_minimal))
    return _implies(hyp, a.flags.arithmetic,
                    {"arithmetic": a.flags.arithmetic},
                    reason="needs distributive locally unbranched with locally "
                           "minimal upper step")


@check("branched_infra_pinch_partition",
       "an infra-integral branched extension with chained lower part and a "
       "two-point top spectrum splits as the lower interval plus the "
       "u-closure interval, pinched at their meet")
def branched_infra_pinch_partition(a):
    if not _proper(a):
        return _na("trivial extension")
    d = a.decomp
    L = a.L
    if not (a.flags.infra_integral and a.flags.branched
            and len(a.E.max_ideals_top()) == 2
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
    d = a.decomp
    if not (a.flags.infra_integral and a.flags.branched and d.plus != a.E.base):
        return _na("needs infra-integral branched with nontrivial lower closure")
    L = a.L
    cond1 = L.interval(0, L.index[d.plus]).is_chain()
    cond2 = len(a.E.max_ideals_top()) == 2
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
    res = _iff(a.verdict.distributive, rhs,
               {"lower_chain": cond1, "two_max": cond2, "join_iso": cond3})
    if res.status == "fail" or not a.verdict.distributive:
        return res
    # consequence: single u-level support with chained top part, or a chain
    usub = a.sub(d.u, a.E.top)
    single = len(usub.profile.msupp) == 1 and \
        L.interval(u_idx, L.top).is_chain()
    chain_all = a.verdict.chained and d.u == a.E.top
    if not (single or chain_all):
        return CheckResult("", "", "fail",
                           witness={"usupp": len(usub.profile.msupp),
                                    "upper_chain": L.interval(u_idx, L.top).is_chain()})
    return res


@check("branched_infra_loewy_shape",
       "a distributive infra-integral branched non-chained extension has "
       "the two-ladder shape, and its Loewy series climbs the lower chain "
       "then the u-closure translates")
def branched_infra_loewy_shape(a):
    if not _proper(a):
        return _na("trivial extension")
    d = a.decomp
    if not (a.verdict.distributive and a.flags.infra_integral
            and a.flags.branched and not a.verdict.chained):
        return _na("needs distributive infra-integral branched, not chained")
    L = a.L
    lower = L.interval_nodes(0, L.index[d.plus])
    upper = L.interval_nodes(L.index[d.u], L.top)
    partition_ok = (set(lower) | set(upper) == set(range(len(L.nodes)))
                    and not (set(lower) & set(upper)))
    u_idx = L.index[d.u]
    translates = sorted({int(L.join[u_idx, t]) for t in lower})
    if not partition_ok or translates != sorted(upper):
        return CheckResult("", "", "fail",
                           witness={"partition": partition_ok})
    chain = sorted(lower, key=lambda t: len(a.nodes[t]))
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
    if not (a.flags.seminormal and a.flags.branched):
        return _na("extension not seminormal branched")
    L = a.L
    d = a.decomp
    t_idx = L.index[d.t]
    upper_dist = L.interval(t_idx, L.top).check_distributive()[0]
    shape = set(L.interval_nodes(t_idx, L.top)) | {0} == set(range(len(L.nodes)))
    return _iff(a.verdict.distributive, upper_dist and shape,
                {"upper_distributive": upper_dist, "no_side_nodes": shape})


@check("splitter_existence",
       "for every support subset there is exactly one intermediate ring "
       "splitting the support there, with the complementary splitter as its "
       "unique lattice complement, and localization separates the interval")
def splitter_existence(a):
    if not _proper(a):
        return _na("trivial extension")
    ms = a.profile.msupp
    L = a.L
    if ex.splitter(a.E, []) != a.E.base or ex.splitter(a.E, ms) != a.E.top:
        return CheckResult("", "", "fail", witness={"case": "endpoints"})
    for r in range(1, len(ms)):
        for X in itertools.combinations(ms, r):
            T = ex.splitter(a.E, list(X))
            rest = [m for m in ms if m not in X]
            To = ex.splitter(a.E, rest)
            comps = L.complements(L.index[T])
            if comps != [L.index[To]]:
                return CheckResult("", "", "fail", witness={
                    "X_sizes": [len(m) for m in X],
                    "complements": comps})
    # the localization map separates intermediate rings and fills the product
    S = a.S
    dec = a.E.base_decomposition()
    idems = [e for e, M in zip(dec.idempotents, dec.maximal_ideals) if M in ms]
    seen = set()
    for T in a.nodes:
        key = tuple(tuple(np.unique(S.mul[e, S.arr(T)]).tolist())
                    for e in idems)
        if key in seen:
            return CheckResult("", "", "fail",
                               witness={"case": "localization map not injective"})
        seen.add(key)
    expected = 1
    for M in ms:
        expected *= len(a.loc(M).nodes)
    if len(a.nodes) != expected:
        return CheckResult("", "", "fail",
                           witness={"nodes": len(a.nodes), "product": expected})
    return CheckResult("", "", "pass")


@check("split_complement_distributivity",
       "an extension split at an intermediate ring is distributive iff both "
       "complementary legs under the base are distributive")
def split_complement_distributivity(a):
    if not _proper(a):
        return _na("trivial extension")
    ms = a.profile.msupp
    if len(ms) < 2:
        return _na("support too small to split")
    L = a.L
    for r in range(1, len(ms)):
        for X in itertools.combinations(ms, r):
            T = ex.splitter(a.E, list(X))
            To = ex.splitter(a.E, [m for m in ms if m not in X])
            left = L.interval(0, L.index[T]).check_distributive()[0]
            right = L.interval(0, L.index[To]).check_distributive()[0]
            if a.verdict.distributive != (left and right):
                return CheckResult("", "", "fail", witness={
                    "legs": [left, right],
                    "full": a.verdict.distributive})
    return CheckResult("", "", "pass",
                       side="lhs_true" if a.verdict.distributive else "lhs_false")


@check("branched_chained_lower_rule",
       "a branched extension with proper closures and chained lower "
       "interval is distributive iff the upper interval is distributive and "
       "the whole interval is pinched at the t-closure")
def branched_chained_lower_rule(a):
    if not _proper(a):
        return _na("trivial extension")
    d = a.decomp
    if not (a.flags.branched and d.plus not in (a.E.base, a.E.top)
            and d.t not in (a.E.base, a.E.top)
            and a.L.interval(0, a.L.index[d.t]).is_chain()):
        return _na("needs branched with proper closures and chained lower part")
    L = a.L
    t_idx = L.index[d.t]
    upper = L.interval(t_idx, L.top).check_distributive()[0]
    pinched = L.is_pinched_at([t_idx])
    return _iff(a.verdict.distributive, upper and pinched,
                {"upper": upper, "pinched": pinched})


@check("pinch_lifts_from_lower_part",
       "in a distributive branched extension, pinching of the lower part at "
       "the seminormalization lifts to pinching at the t-closure")
def pinch_lifts_from_lower_part(a):
    if not _proper(a):
        return _na("trivial extension")
    if not (a.verdict.distributive and a.flags.branched):
        return _na("needs a distributive branched extension")
    d = a.decomp
    L = a.L
    lowerL = L.interval(0, L.index[d.t])
    if d.plus in (a.E.base, d.t):
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
    if not _proper(a) or not a.flags.branched:
        return _na("extension not branched")
    L = a.L
    d = a.decomp
    t_idx = L.index[d.t]
    two_max = (len(a.E.max_ideals_top()) == 2
               and len(fr.maximal_ideals(a.S, d.u)) == 2)
    lower_dist = L.interval(0, t_idx).check_distributive()[0]
    upper_dist = L.interval(t_idx, L.top).check_distributive()[0]
    pinched = _pinched_at_t(a)
    case2 = False
    if not pinched:
        usub = a.sub(d.u, a.E.top)
        ut = a.sub(d.u, d.t)
        case2 = (len(ut.profile.msupp) == 1
                 and len(usub.profile.msupp) == 2)
    rhs = two_max and lower_dist and upper_dist and (pinched or case2)
    return _iff(a.verdict.distributive, rhs,
                {"two_max": two_max, "lower": lower_dist, "upper": upper_dist,
                 "pinched": pinched, "split_case": case2})


@check("branched_splitter_ladder",
       "in the non-pinched distributive branched case the splitter ladder "
       "exists: the splitter above the off-support ideal is the "
       "co-subintegral closure of its own square, both ladders are chains "
       "of equal length, crossing back with the t-closure, and the interval "
       "partitions into the two closure parts plus the rungs")
def branched_splitter_ladder(a):
    if not _proper(a) or not a.flags.branched:
        return _na("extension not branched")
    if not a.verdict.distributive:
        return _na("extension not distributive")
    L = a.L
    d = a.decomp
    t_idx = L.index[d.t]
    if _pinched_at_t(a):
        return _na("pinched at the t-closure (ladder case not exercised)")
    usub = a.sub(d.u, a.E.top)
    ut = a.sub(d.u, d.t)
    if len(ut.profile.msupp) != 1 or len(usub.profile.msupp) != 2:
        return CheckResult("", "", "fail", witness={
            "usupp_t": len(ut.profile.msupp),
            "usupp_top": len(usub.profile.msupp)})
    M = ut.profile.msupp[0]
    others = [m for m in usub.profile.msupp if m != M]
    if len(others) != 1:
        return CheckResult("", "", "fail",
                           witness={"case": "support ideals do not separate"})
    V = ex.splitter(usub.E, [others[0]])
    W = a.nodes[L.join[L.index[V], t_idx]]
    wsub = a.sub(d.u, W)
    if wsub.decomp.cosub != V:
        return CheckResult("", "", "fail",
                           witness={"case": "splitter is not the co-subintegral "
                                            "closure of the crossed square"})
    vw = L.interval_nodes(L.index[V], L.index[W])
    utn = L.interval_nodes(L.index[d.u], t_idx)
    chain_vw = L.interval(L.index[V], L.index[W]).is_chain()
    chain_ut = L.interval(L.index[d.u], t_idx).is_chain()
    if not (chain_vw and chain_ut and len(vw) == len(utn)):
        return CheckResult("", "", "fail", witness={
            "ladders": [len(vw), len(utn)],
            "chains": [chain_vw, chain_ut]})
    # rungs: V_i cap t = U_i, and the partition of the whole interval
    vw_sorted = sorted(vw, key=lambda i: len(a.nodes[i]))
    ut_sorted = sorted(utn, key=lambda i: len(a.nodes[i]))
    for vi, ui in zip(vw_sorted, ut_sorted):
        if int(L.meet[vi, t_idx]) != ui:
            return CheckResult("", "", "fail",
                               witness={"rung": [vi, ui]})
    parts = set(L.interval_nodes(0, L.index[d.plus])) | \
        set(L.interval_nodes(t_idx, L.top))
    for vi in vw_sorted[:-1]:
        parts |= set(L.interval_nodes(int(L.meet[vi, t_idx]), vi))
    ok = parts == set(range(len(L.nodes)))
    return CheckResult("", "", "pass" if ok else "fail",
                       witness=None if ok else {"covered": len(parts),
                                                "nodes": len(L.nodes)})


@check("branched_splitter_consistency",
       "non-pinched distributive branched: the t-closure has two maximal "
       "ideals, and when the support above it has two points, the "
       "co-subintegral closure of the off-support splitter crosses back to "
       "the u-closure")
def branched_splitter_consistency(a):
    if not _proper(a) or not a.flags.branched or not a.verdict.distributive:
        return _na("needs a distributive branched extension")
    d = a.decomp
    if _pinched_at_t(a):
        return _na("pinched at the t-closure")
    maxT = fr.maximal_ideals(a.S, d.t)
    if len(maxT) != 2:
        return CheckResult("", "", "fail", witness={"max_t": len(maxT)})
    tsub = a.sub(d.t, a.E.top)
    if len(tsub.profile.msupp) != 2:
        return CheckResult("", "", "pass")
    ut = a.sub(d.u, d.t)
    M = ut.profile.msupp[0]
    over = [N for N in maxT if N & d.u == M]
    prime_n = [N for N in maxT if N not in over]
    if len(prime_n) != 1:
        return CheckResult("", "", "fail", witness={"case": "no unique off ideal"})
    Wp = ex.splitter(tsub.E, [prime_n[0]])
    wsub = a.sub(a.E.base, Wp)
    V = wsub.decomp.cosub
    if V is None or (V & d.t) != d.u:
        return CheckResult("", "", "fail",
                           witness={"case": "cosub does not cross back to u"})
    return CheckResult("", "", "pass")


@check("pinched_iff_single_u_support",
       "a distributive branched extension with distinct u- and t-closures "
       "is pinched at the t-closure iff the u-closure supports the top at "
       "exactly one ideal")
def pinched_iff_single_u_support(a):
    if not _proper(a) or not (a.flags.branched and a.verdict.distributive):
        return _na("needs a distributive branched extension")
    d = a.decomp
    if d.u == d.t:
        return _na("u-closure equals t-closure")
    pinched = _pinched_at_t(a)
    usub = a.sub(d.u, a.E.top)
    return _iff(pinched, len(usub.profile.msupp) == 1,
                {"u_support": len(usub.profile.msupp)})


@check("split_i_extension_cosub",
       "an i-extension with proper t-closure, two-point support and split "
       "closure parts has a co-subintegral closure over which the base is "
       "t-closed; distributivity of the upper part transfers to it")
def split_i_extension_cosub(a):
    if not _proper(a):
        return _na("trivial extension")
    d = a.decomp
    if not (a.flags.i_extension and d.t not in (a.E.base, a.E.top)
            and len(a.profile.msupp) == 2):
        return _na("needs an i-extension with proper t-closure and two-point "
                   "support")
    lowsupp = set(ex.msupp_of_pair(a.E, a.E.base, d.t))
    upsupp = set(ex.msupp_of_pair(a.E, d.t, a.E.top))
    if lowsupp & upsupp:
        return _na("not split at the t-closure")
    cosub = d.cosub
    if cosub is None:
        return CheckResult("", "", "fail", witness={"case": "no co-subintegral "
                                                            "closure"})
    if not ex.is_t_closed(a.S, a.E.base, cosub):
        return CheckResult("", "", "fail",
                           witness={"case": "base not t-closed in cosub"})
    L = a.L
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
    sizes = sorted(len(v) for v in a.fibers.values())
    return _implies(a.verdict.distributive, all(s <= 2 for s in sizes),
                    {"fiber_sizes": sizes},
                    reason="extension not distributive")


@check("fiber_bound_blocks_decomposed_towers",
       "when all fibers have at most two points there is no one-ideal tower "
       "of two decomposed covers")
def fiber_bound_blocks_decomposed_towers(a):
    if not _proper(a):
        return _na("trivial extension")
    if any(len(v) > 2 for v in a.fibers.values()):
        return _na("a fiber has more than two points")
    L = a.L
    for (i, j), t1 in a.cover_types.items():
        if t1 is not ex.MinimalType.DECOMPOSED:
            continue
        for (j2, k), t2 in a.cover_types.items():
            if j2 != j or t2 is not ex.MinimalType.DECOMPOSED:
                continue
            if len(ex.msupp_of_pair(a.E, a.nodes[i], a.nodes[k])) == 1:
                return CheckResult("", "", "fail",
                                   witness={"tower": [i, j, k]})
    return CheckResult("", "", "pass")


@check("fiber_bound_locally_minimal_legs",
       "when all fibers have at most two points, the seminormal-infra legs "
       "of the closure diagram are locally minimal")
def fiber_bound_locally_minimal_legs(a):
    if not _proper(a):
        return _na("trivial extension")
    if any(len(v) > 2 for v in a.fibers.values()):
        return _na("a fiber has more than two points")
    d = a.decomp
    usub = a.sub(a.E.base, d.u)
    V = usub.decomp.plus
    leg1 = V == d.u or a.sub(V, d.u).flags.locally_minimal
    leg2 = d.plus == d.t or a.sub(d.plus, d.t).flags.locally_minimal
    ok = leg1 and leg2
    return CheckResult("", "", "pass" if ok else "fail",
                       witness=None if ok else {"legs": [leg1, leg2]})


@check("seminormal_fiber_converse",
       "a seminormal infra-integral extension with locally maximal conductor "
       "and two-point fibers is distributive and locally minimal decomposed")
def seminormal_fiber_converse(a):
    if not _proper(a):
        return _na("trivial extension")
    if not (a.flags.seminormal and a.flags.infra_integral):
        return _na("extension not seminormal infra-integral")
    if any(len(v) > 2 for v in a.fibers.values()):
        return _na("a fiber has more than two points")
    # locally maximal conductor: each localized conductor is the local
    # maximal ideal or everything
    for M in a.profile.msupp:
        loc = a.loc(M)
        cond = ex.conductor(loc.E)
        maxi = loc.E.max_ideals_base()
        if cond != loc.E.base and cond not in maxi:
            return _na("conductor not locally maximal")
    if not a.verdict.distributive or not a.flags.locally_minimal:
        return CheckResult("", "", "fail",
                           witness={"distributive": a.verdict.distributive,
                                    "locally_minimal": a.flags.locally_minimal})
    for M in a.profile.msupp:
        loc = a.loc(M)
        if ex.classify_minimal(loc.E) is not ex.MinimalType.DECOMPOSED:
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
    S, E = a.S, a.E
    if ex.idempotent_style_generator(E) is None:
        return _na("no single idempotent-style generator")
    sizes = sorted(len(v) for v in a.fibers.values())
    if any(s > 2 for s in sizes):
        return CheckResult("", "", "fail", witness={"fiber_sizes": sizes})
    I = a.profile.conductor
    SI, _ = fr.quotient_of_subring(S, E.top, I)
    RI, _ = fr.quotient_of_subring(S, E.base, I)
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
    ms = a.profile.msupp
    count = 1
    length = 0
    for M in ms:
        loc = a.loc(M)
        count *= len(loc.nodes)
        length += loc.L.length
    ok = count == len(a.nodes) and length == a.L.length
    return CheckResult("", "", "pass" if ok else "fail",
                       witness=None if ok else {
                           "nodes": len(a.nodes), "product": count,
                           "length": a.L.length, "sum": length})


@check("length_formula_local",
       "over a local base, the length of a distributive interval is the "
       "lower closure length plus the upper closure length plus the number "
       "of top maximal ideals minus one")
def length_formula_local(a):
    if not _proper(a):
        return _na("trivial extension")
    if not (a.verdict.distributive and len(a.E.max_ideals_base()) == 1):
        return _na("needs a distributive extension over a local base")
    L = a.L
    d = a.decomp
    lhs = L.length
    rhs = (int(L.levels_from(0)[L.index[d.plus]])
           + int(L.levels_from(L.index[d.t])[L.top])
           + len(a.E.max_ideals_top()) - 1)
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
    if not (a.verdict.distributive and len(a.E.max_ideals_base()) == 1):
        return _na("needs a distributive extension over a local base")
    L = a.L
    d = a.decomp
    max_u = fr.maximal_ideals(a.S, d.u)
    ut = a.sub(d.u, d.t)
    supp_ut = ut.profile.msupp
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
        usub = a.sub(d.u, a.E.top)
        supp_us = usub.profile.msupp
        M = supp_ut[0]
        others = [m for m in supp_us if m != M]
        l_ut = int(L.levels_from(L.index[d.u])[L.index[d.t]])
        if len(supp_us) == 2:
            V = ex.splitter(usub.E, [others[0]])
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
    S = a.S
    if not fr.is_field(S) or len(a.E.top) != S.size:
        return _na("top ring is not a field")
    q = len(a.E.base)
    # independent construction: fixed points of x -> x^(q^d)
    fixed = fr.power_fixed_sets(S, q)
    if fixed is None:
        return CheckResult("", "", "fail",
                           witness={"case": "size not a base power"})
    divs = list(fixed)
    n = divs[-1]
    if len(a.nodes) != len(divs):
        return CheckResult("", "", "fail",
                           witness={"nodes": len(a.nodes), "divisors": len(divs)})
    by_size = {}
    for i, node in enumerate(a.nodes):
        by_size.setdefault(len(node), []).append(i)
    for d in divs:
        if len(by_size.get(q ** d, [])) != 1:
            return CheckResult("", "", "fail",
                               witness={"case": f"no unique node of size q^{d}"})
        if fixed[d] != a.nodes[by_size[q ** d][0]]:
            return CheckResult("", "", "fail",
                               witness={"case": f"power-map subfield mismatch "
                                                f"at degree {d}"})
    L = a.L
    for d1 in divs:
        for d2 in divs:
            i, j = by_size[q ** d1][0], by_size[q ** d2][0]
            if bool(L.leq[i, j]) != (d2 % d1 == 0):
                return CheckResult("", "", "fail",
                                   witness={"case": "order mismatch",
                                            "degrees": [d1, d2]})
    if not a.verdict.distributive:
        return CheckResult("", "", "fail", witness={"case": "not distributive"})
    if a.verdict.boolean_lattice != fr.is_squarefree(n):
        return CheckResult("", "", "fail",
                           witness={"boolean": a.verdict.boolean_lattice,
                                    "squarefree": fr.is_squarefree(n)})
    return CheckResult("", "", "pass")


@check("delta_iff_upper_part_arithmetic",
       "a distributive extension has an addition-closed interval iff the "
       "part above the t-closure is locally chained")
def delta_iff_upper_part_arithmetic(a):
    if not _proper(a) or not a.verdict.distributive:
        return _na("extension not distributive")
    d = a.decomp
    upper_arith = d.t == a.E.top or a.sub(d.t, a.E.top).flags.arithmetic
    return _iff(a.flags.delta, upper_arith, {"upper_arithmetic": upper_arith})


@check("distributive_infra_is_delta",
       "a distributive infra-integral extension has an addition-closed "
       "interval")
def distributive_infra_is_delta(a):
    if not _proper(a):
        return _na("trivial extension")
    return _implies(a.verdict.distributive and a.flags.infra_integral,
                    a.flags.delta, {"delta": a.flags.delta},
                    reason="needs a distributive infra-integral extension")


@check("u_closed_delta_equivalences",
       "for u-closed extensions: distributive+addition-closed, "
       "arithmetic+addition-closed and distributive+arithmetic coincide")
def u_closed_delta_equivalences(a):
    if not _proper(a) or not a.flags.u_closed:
        return _na("extension not u-closed")
    f = a.flags
    v1 = a.verdict.distributive and f.delta
    v2 = f.arithmetic and f.delta
    v3 = a.verdict.distributive and f.arithmetic
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
    if not (a.flags.seminormal and a.flags.delta
            and len(a.E.max_ideals_base()) == 1):
        return _na("needs a seminormal addition-closed extension over a "
                   "local base")
    L = a.L
    d = a.decomp
    shape = set(L.interval_nodes(L.index[d.t], L.top)) | {0} == \
        set(range(len(L.nodes)))
    return _iff(a.verdict.distributive, shape, {"no_side_nodes": shape})


@check("chain_ring_quadratic_distributive",
       "one quadratic generator over a local ring with principal maximal "
       "ideal yields a distributive interval")
def chain_ring_quadratic_distributive(a):
    if not _proper(a):
        return _na("trivial extension")
    S, E = a.S, a.E
    maxR = a.E.max_ideals_base()
    if len(maxR) != 1:
        return _na("base not local")
    M = S.arr(maxR[0])
    principal = any(
        np.array_equal(S.ideal_closure(E.base, [m]), M)
        for m in M.tolist())
    if not principal:
        return _na("maximal ideal of the base not principal")
    base_list = sorted(E.base)
    quad = None
    for s in sorted(E.top - E.base):
        if S.adjoin(E.base, s) != E.top:
            continue
        lin_span = S.additive_closure(
            base_list + [S.m(s, r) for r in base_list])
        if S.m(s, s) in set(lin_span.tolist()):
            quad = s
            break
    if quad is None:
        return _na("no quadratic generator")
    return CheckResult("", "", "pass" if a.verdict.distributive else "fail",
                       witness=None if a.verdict.distributive else
                       {"distributive": False})
