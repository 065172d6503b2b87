"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's closure-based enumeration and
criterion shortcuts: ideals are found by scanning all subsets against the
operation tables (subrings by ``verify.brute_force_subrings``, the same scan
that ``--regen-expectations`` uses), so the main code paths are checked
against a different computation.  The ``isin_*`` and ``loop_*`` functions are the
earlier np.isin and Python-loop versions of the membership kernels, the
power map and the field test, kept as references for the mask and
vectorised ones; maximal-chain enumeration is the reference for the
Hasse-diagram fold; the corner e*top is the reference for the localization
as a quotient; the residue quotient hi/M is the reference for the inert
test.  ``frontier_join_closure`` is the earlier join closure, one join
per (element, atom) pair with no shortcut; ``closure_enumeration``,
``list_distributive_law_scan`` and ``list_modular_law_scan`` are the
earlier interval enumeration, with one closure per join, and the law scans
that list every failing triple; they are the references for the join
shortcuts and the first-failure scans.  ``struct_product_ring`` is the
earlier direct product, assembled from the factors' structure constants;
it is the reference for ``product_ring``'s tables, indices and names.
``einsum_from_struct`` is the earlier ``FiniteRing.from_struct`` table
build (coefficient-vector sums and an ``einsum`` over them), the reference
for the digit-wise fold.  ``loop_closed_pair`` is the element loop behind
the seminormal, u-closed and t-closed predicates, and
``residual_degrees``, ``spectrum_infra_integral`` and
``spectrum_subintegral`` the earlier per-pair spectrum tests; they are the
references for the grouped decomposition facts.  ``span_subring_closure``
and ``span_adjoin`` are the earlier ``FiniteRing.subring_closure`` and
``FiniteRing.adjoin`` (multiplier closures by ``_span_closure``), the
references for the polynomial span; ``scratch_adjoin`` is one such closure
of lo and s from {0} with no memo; ``every_s_monogenic_subrings``, ``every_s_is_minimal_pair`` and
``every_s_is_simple`` close lo[s] with it for every s in hi - lo, the
references for the closures that start from lo and take one s per coset.
``closure_product_inside`` and ``closure_principal_ideal`` are the
earlier product-ideal and principal-ideal tests, each by a closure (the
additive span of the products, the ideal closure of one generator); they
are the references for the tests on the products themselves.
``block_subring_unit`` is the earlier unit test of a subring, a compare of
the whole |T| x |T| block of products, the reference for the
decomposition's one-row test.  ``constructor_interval`` builds an interval
by the lattice constructor, the reference for the interval gathered from
its parent's tables by the interval kernel; ``loop_check_catenarian``,
``loop_covering_pair_criterion``, ``loop_forbidden_exhaustive``,
``loop_length2_rule`` and ``loop_complements`` are the earlier loop forms
of the whole-array checks, and ``list_modular_law_scan`` (the
per-row loop) is the reference for the blocked modular scan.
``loop_levels_from`` is the earlier per-node walk behind
``ExtensionLattice.levels_from``, the reference for its frontier pass.
``scan_conductor_pair`` is the earlier per-pair conductor scan,
``unit_scan_decomposition`` the earlier primitive idempotents and maximal
ideals (pairwise refinement and a unit scan), and ``loop_is_delta`` the
earlier pair loop behind the delta flag; they are the references for the
grouped cover conductors, the nilradical route and the size test.
``pairwise_b2_structure_cases`` is the earlier b2 check, one
sub-extension, support profile and decomposition per length-2 pair, the
reference for the pass per lower node.  ``slice_routes`` is the earlier
per-slice distributivity and Boolean verdict (each route on its own,
with ``loop_is_m3``/``loop_is_n5`` as the node-by-node shape tests)
and ``slice_interval_agreement`` the earlier per-draw interval sample;
they are the references for the stacked interval kernel.
``bitset_lattice_tables`` is the earlier table build (int bitsets and a
loop over the node pairs), the reference for the array build from the
membership product.
``small_ring`` builds the tiny rings they run on.  ``memo_without`` and
``record_computes`` are the tests' view of the one memo per object: a
copy of a memo without some kinds of key, and a log of every key a memo
computes.
"""

import functools
import itertools
import math

import numpy as np

from ringlattice import finring as fr
from ringlattice.extension import (DEFAULT_NODE_LIMIT, Extension,
                                   TheoremViolation, monogenic_subrings,
                                   quotient_extension)
from ringlattice.lattice import ExtensionLattice, LatticeError


SMALL_RINGS = ("F2[x]/(x^3)", "F2xF4", "F2+F2^2", "Z4xZ2")
# the kinds of key of a ring's memo that hold pair facts
PAIR_FACT_KINDS = ("conductor", "spectral", "closed")


def memo_without(obj, *kinds, memo=fr.Memo):
    """A ``memo`` (a Memo class) holding the entries of obj's memo whose
    key kind is not one of ``kinds``."""
    return memo((k, v) for k, v in obj._cache.items() if k[0] not in kinds)


def record_computes(monkeypatch):
    """The list that every Memo appends (memo, key) to each time it
    computes a key, from now until the monkeypatch is undone."""
    computed = []
    fetch, fetch_group = fr.Memo.fetch, fr.Memo.fetch_group

    def recording_fetch(memo, key, compute, *args):
        def recorded(*args):
            computed.append((memo, key))
            return compute(*args)
        return fetch(memo, key, recorded, *args)

    def recording_fetch_group(memo, keys, compute):
        def recorded(missing):
            computed.extend((memo, key) for key in missing)
            return compute(missing)
        return fetch_group(memo, keys, recorded)

    monkeypatch.setattr(fr.Memo, "fetch", recording_fetch)
    monkeypatch.setattr(fr.Memo, "fetch_group", recording_fetch_group)
    return computed


@functools.lru_cache(maxsize=None)
def small_ring(name, product=fr.product_ring):
    """One of the SMALL_RINGS (8 elements each), built once; the two
    products are built by ``product``."""
    F2 = fr.gf(2)
    return {
        "F2[x]/(x^3)": lambda: fr.quotient_by_relations(
            F2, [fr.resolve_relation(F2, [((("x", 3),), 1)])]),
        "F2xF4": lambda: product([F2, fr.gf(2, 2)]),
        "F2+F2^2": lambda: fr.idealization(F2, (2, 2)),
        "Z4xZ2": lambda: product([fr.zmod(4), fr.zmod(2)]),
    }[name]()


def struct_product_ring(rings, size_cap=fr.DEFAULT_SIZE_CAP, label=None):
    """The direct product from structure constants: each factor through
    ``as_struct_ring``, the generators' products filled block by block into
    one k x k x k tensor, then ``from_struct``.  A product element is named
    by the tuple of its factors' names, each factor's index read off its
    block of coefficients."""
    if not rings:
        raise fr.RingError("product needs at least one factor")
    structs = [fr.as_struct_ring(r)[0] for r in rings]
    orders = [o for r in structs for o in r.orders]
    k = len(orders)
    struct = np.zeros((k, k, k), dtype=np.int64)
    one_vec = np.zeros(k, dtype=np.int64)
    off = 0
    for r in structs:
        kf = len(r.orders)
        eye = np.eye(kf, dtype=np.int64)
        for i in range(kf):
            for j in range(kf):
                prod_idx = r.mul[fr.vec_index(r, eye[i]), fr.vec_index(r, eye[j])]
                struct[off + i, off + j, off:off + kf] = r.coeffs[prod_idx]
        one_vec[off:off + kf] = r.coeffs[r.one]
        off += kf
    lab = label or "product(" + ", ".join(r.label for r in structs) + ")"
    P = fr.FiniteRing.from_struct(orders, struct, one_vec, label=lab,
                                  size_cap=size_cap)
    P.factors = structs
    columns, off = [], 0
    for fac in structs:
        kf = len(fac.orders)
        idx = P.coeffs[:, off:off + kf] @ fr.mixed_radix(fac.orders)
        columns.append([fac.elem_str(j) for j in idx.tolist()])
        off += kf
    P.elem_names = ["(" + ", ".join(parts) + ")" for parts in zip(*columns)]
    return P


def einsum_from_struct(cls, orders, struct, one_vec, *, label,
                       varmap=None, monomials=None, size_cap=fr.DEFAULT_SIZE_CAP):
    """FiniteRing.from_struct with the earlier tables: addition encoded from
    the n x n x k sums of coefficient vectors, multiplication by an
    ``einsum`` over them in chunks of rows, and the negatives encoded from
    the negated vectors (checked against from_tables' own)."""
    orders = tuple(int(c) for c in orders)
    if not orders or any(c < 2 for c in orders):
        raise fr.RingError(f"additive generator orders must all be >= 2, got {orders}")
    k, size = len(orders), math.prod(orders)
    if size > size_cap:
        raise fr.SizeCapError(f"ring size {size} exceeds cap {size_cap}")
    ordv = np.array(orders, dtype=np.int64)
    struct = np.asarray(struct, dtype=np.int64).reshape(k, k, k) % ordv
    one_vec = np.asarray(one_vec, dtype=np.int64).reshape(k) % ordv
    cls._validate_struct(orders, struct, one_vec)

    radix = fr.mixed_radix(orders)
    coeffs = np.indices(orders).reshape(k, size).T.astype(np.int64)

    def encode(vecs):
        return (np.asarray(vecs, dtype=np.int64) % ordv) @ radix

    add = encode(coeffs[:, None, :] + coeffs[None, :, :]).astype(np.int32)
    xe = np.einsum('xi,ijv->xjv', coeffs, struct) % ordv
    mul = np.empty((size, size), dtype=np.int32)
    chunk = max(1, (1 << 22) // max(1, size * k))
    for lo in range(0, size, chunk):
        hi = min(size, lo + chunk)
        mul[lo:hi] = encode(np.einsum('yj,xjv->xyv', coeffs, xe[lo:hi]) % ordv)
    ring = cls.from_tables(add, mul, int(encode(one_vec)), label=label,
                           size_cap=size_cap)
    assert ring.zero == 0 and np.array_equal(ring.neg, encode(-coeffs))
    ring.orders, ring.coeffs = orders, coeffs
    ring.varmap, ring.monomials = dict(varmap or {}), monomials
    return ring


def loop_closed_pair(S, lo, hi, rs):
    """Whether no b in hi - lo and r in rs have b^2 - rb and b^3 - rb^2 in
    lo, by a Python loop over the elements (rs = [0] is seminormality,
    [1] u-closedness and lo t-closedness of lo in hi)."""
    for b in sorted(hi - lo):
        b2 = S.m(b, b)
        b3 = S.m(b2, b)
        for r in rs:
            if S.sub(b2, S.m(r, b)) in lo and S.sub(b3, S.m(r, b2)) in lo:
                return False
    return True


def residual_degrees(S, lo, hi):
    """(|kappa_lo(Q cap lo)|, |kappa_hi(Q)|) for each Q in Max(hi), by
    frozenset intersections."""
    return [(len(lo) // len(Q & lo), len(hi) // len(Q))
            for Q in fr.maximal_ideals(S, hi)]


def spectrum_infra_integral(S, lo, hi):
    """The earlier per-pair infra-integral test: every residual extension
    has equal size, |lo / (Q & lo)| = |hi / Q| for Q in Max(hi)."""
    return all(a == b for a, b in residual_degrees(S, lo, hi))


def spectrum_subintegral(S, lo, hi):
    """The earlier per-pair subintegral test: infra-integral, and the
    contractions Q & lo of the maximal ideals of hi are the maximal ideals
    of lo, each once (each contraction must be maximal)."""
    max_lo = fr.maximal_ideals(S, lo)
    contractions = [Q & lo for Q in fr.maximal_ideals(S, hi)]
    if any(P not in max_lo for P in contractions):
        raise TheoremViolation("contraction of a maximal ideal is not maximal")
    return sorted(contractions, key=sorted) == max_lo and \
        spectrum_infra_integral(S, lo, hi)


def isin_subring(S, subset):
    """FiniteRing.is_subring by np.isin membership (the reference for the
    mask version)."""
    s = S.arr(subset)
    if S.one not in set(s.tolist()):
        return False
    return bool(np.isin(S.add[np.ix_(s, s)], s).all()
                and np.isin(S.mul[np.ix_(s, s)], s).all())


def isin_ideal_of(S, within, subset):
    """FiniteRing.is_ideal_of by np.isin membership."""
    within = S.arr(within)
    s = S.arr(subset)
    if S.zero not in set(s.tolist()):
        return False
    if not np.isin(s, within).all():
        return False
    if not np.isin(S.add[np.ix_(s, s)], s).all():
        return False
    if not np.isin(S.neg[s], s).all():
        return False
    return bool(np.isin(S.mul[np.ix_(s, within)], s).all())


def isin_conductor_pair(S, lo, hi):
    """extension.conductor_pair by np.isin membership."""
    lo_arr, hi_arr = S.arr(lo), S.arr(hi)
    keep = np.isin(S.mul[np.ix_(lo_arr, hi_arr)], lo_arr).all(axis=1)
    cond = frozenset(int(z) for z, ok in zip(lo_arr.tolist(), keep) if ok)
    if not isin_ideal_of(S, lo_arr, S.arr(cond)) or \
            not isin_ideal_of(S, hi_arr, S.arr(cond)):
        raise TheoremViolation("conductor is not an ideal of both rings")
    return cond


def scan_conductor_pair(S, lo, hi):
    """The earlier extension.conductor_pair: one scan of lo*hi per pair and
    an is_ideal_of guard of its own; the reference for the conductors of a
    lower ring under all of its covers at once."""
    lo_arr = S.arr(lo)
    cond = frozenset(lo_arr[S.mask(lo)[S.mul[np.ix_(lo_arr, S.arr(hi))]]
                            .all(axis=1)].tolist())
    if not S.is_ideal_of(hi, cond):
        raise TheoremViolation("conductor is not an ideal of both rings")
    return cond


def unit_scan_decomposition(S, T):
    """(primitive idempotents, maximal ideals) of the subring T by the
    earlier scans: the idempotents refined pair by pair in Python, and the
    maximal ideal of each e*T as its non-units (the elements with no
    inverse in e*T); the reference for the one-count primitive test and
    the nilradical route."""
    T = S.arr(T)
    idems = [e for e in T.tolist() if e != S.zero and S.mul[e, e] == e]
    prim = sorted(e for e in idems
                  if not any(g != e and S.mul[g, e] == g for g in idems))
    maxideals = []
    for e in prim:
        fac = np.unique(S.mul[e, T])
        inv = (S.mul[np.ix_(fac, fac)] == e).any(axis=1)
        non_unit = S.mask(fac[~inv])
        maxideals.append(frozenset(T[non_unit[S.mul[e, T]]].tolist()))
    return prim, maxideals


def loop_is_delta(E):
    """The earlier extension.is_delta: for each incomparable pair of nodes,
    whether T + U is closed under products."""
    S, L = E.ambient, E.lattice()
    arrs = [S.arr(t) for t in L.nodes]
    for i in range(len(arrs)):
        for j in range(i + 1, len(arrs)):
            if L.leq[i, j] or L.leq[j, i]:
                continue
            in_tu = S.mask(S.add[np.ix_(arrs[i], arrs[j])])
            tu = np.flatnonzero(in_tu)
            if not in_tu[S.mul[np.ix_(tu, tu)]].all():
                return False
    return True


def closure_product_inside(S, P, Q, M):
    """Whether the ideal M holds the product ideal PQ: the additive span of
    every product pq (P, Q, M index arrays), inside M."""
    return bool(S.mask(M)[S.additive_closure(np.unique(S.mul[np.ix_(P, Q)]))].all())


def closure_principal_ideal(S, base, m):
    """The ideal (m) of the subring ``base``, by the ideal closure."""
    return S.ideal_closure(base, [m])


def block_subring_unit(S, T):
    """The multiplicative identity of the closed subset T by comparing the
    whole |T| x |T| block of products with T; RingError unless exactly one
    element acts as 1 on T.  The reference for the decomposition's one-row
    test that the sum of the primitive idempotents acts as 1."""
    T = S.arr(T)
    units = T[(S.mul[np.ix_(T, T)] == T).all(axis=1)]
    if units.size != 1:
        raise fr.RingError("subset has no unique multiplicative identity")
    return int(units[0])


def loop_subring_unit(S, T):
    """block_subring_unit by a double loop over T."""
    tl = S.arr(T).tolist()
    units = [u for u in tl if all(S.mul[u, x] == x for x in tl)]
    if len(units) != 1:
        raise fr.RingError("subset has no unique multiplicative identity")
    return units[0]


def loop_power(S, x, k):
    """FiniteRing.power by k multiplications of one element."""
    r = S.one
    for _ in range(k):
        r = int(S.mul[r, x])
    return r


def loop_is_field(R):
    """finring.is_field by a Python loop over the nonzero elements."""
    nonzero = [x for x in range(R.size) if x != R.zero]
    if not nonzero:
        return False
    return all((R.mul[x, nonzero] == R.one).any() for x in nonzero)


def quotient_route_is_inert(S, lo, hi):
    """Whether the minimal pair lo < hi is inert by the quotient route: with
    M = (lo : hi), hi/M is a field and [lo/M, hi/M] has two nodes (the
    reference for reading the inert case off Max(hi))."""
    res = quotient_extension(S, lo, hi, isin_conductor_pair(S, lo, hi))
    return loop_is_field(res.ambient) and len(res.lattice().nodes) == 2


def _ideal_subsets(S, pool, within):
    """Every subset of ``pool`` that is an ideal of the subring ``within``,
    by exhaustive subset scan over the operation tables."""
    within = np.array(sorted(within), dtype=np.int32)
    rest = sorted(set(pool) - {S.zero})
    assert len(rest) <= 16, "oracle only meant for tiny rings"
    out = []
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            cand = np.array(sorted((S.zero,) + combo), dtype=np.int32)
            if np.isin(S.add[np.ix_(cand, cand)], cand).all() and \
                    np.isin(S.mul[np.ix_(cand, within)], cand).all():
                out.append(frozenset(int(x) for x in cand))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def brute_force_ideals(S, within):
    """Every ideal of the subring ``within``, by exhaustive subset scan."""
    return _ideal_subsets(S, within, within)


def largest_common_ideal(S, base):
    """The largest ideal of S contained in base, by scanning the subsets
    of base (ideals inside base are closed under sums, so it is unique)."""
    return max(_ideal_subsets(S, base, range(S.size)), key=len)


def corner_localization(E, M):
    """The localization of E at the maximal ideal M of its base as the
    corner e*base <= e*top, with e the primitive idempotent of M, on e*top
    re-indexed by ``subset_ring`` (the reference for ``localize_at``)."""
    S = E.ambient
    dec = E.base_decomposition()
    e = dec.idempotents[dec.maximal_ideals.index(frozenset(M))]
    ring, old = S.subset_ring(np.unique(S.mul[e, S.arr(E.top)]), e)
    pos = {x: i for i, x in enumerate(old.tolist())}
    return Extension(ring, {pos[x] for x in S.mul[e, S.arr(E.base)].tolist()})


def chain_label_sets_by_enumeration(L, label):
    """{set of labels: every maximal chain carrying it}, by enumerating the
    maximal chains from the bottom to the top (the reference for
    ``ExtensionLattice.chain_label_sets``)."""
    out = {}
    for chain in L.maximal_chains(0, L.top):
        key = frozenset(label(u, v) for u, v in zip(chain, chain[1:]))
        out.setdefault(key, []).append(chain)
    return out


def distributive_by_definition(nodes):
    """Triple scan over frozensets with set ops only (no tables)."""
    nodes = list(nodes)

    def join(a, b):
        cands = [c for c in nodes if a <= c and b <= c]
        best = min(cands, key=len)
        assert all(best <= c for c in cands)
        return best

    for x in nodes:
        for y in nodes:
            for z in nodes:
                lhs = x & join(y, z)
                rhs = join(x & y, x & z)
                if lhs != rhs:
                    return False
    return True


def frontier_join_closure(atoms, join, limit, what) -> set:
    """Every join of a non-empty set of ``atoms`` under the binary
    ``join``, by joining the atoms onto every newly found element: one
    ``join`` call per (element, atom) pair, comparable pairs included.
    Raises RingError once more than ``limit`` elements are found."""
    atoms = list(set(atoms))
    found, frontier = set(atoms), atoms
    while frontier:
        fresh = []
        for x in frontier:
            if len(found) > limit:
                raise fr.RingError(f"{what} exceeded {limit} nodes; "
                                   "raise the limit to continue")
            for a in atoms:
                y = join(x, a)
                if y not in found:
                    found.add(y)
                    fresh.append(y)
        frontier = fresh
    return found


def closure_enumeration(E, node_limit=DEFAULT_NODE_LIMIT):
    """(nodes, joins) of the interval [base, top] with every incomparable
    (node, monogenic subring) join found by a closure (the reference for
    ``extension.enumerate_interval``, which derives most of them)."""
    S = E.ambient
    gens = monogenic_subrings(E)
    joins = {}

    def join_of(x, a):
        if x <= a:
            return a
        if a <= x:
            return x
        j = joins[(x, a)] = S.adjoin(x, gens[a])
        return j

    nodes = frontier_join_closure(gens, join_of, node_limit,
                                  "interval enumeration")
    return nodes, joins


def span_subring_closure(S, seed, over=None):
    """The earlier FiniteRing.subring_closure: the span of 1 (or of the
    subring ``over``) and the seed, closed under ``over`` and the seed as
    multipliers by ``FiniteRing._span_closure``; the reference for the
    polynomial span."""
    seed = np.array(list(seed), dtype=np.int32)
    if over is None:
        return S._span_closure(np.append(seed, S.one), seed)
    T = S.arr(over)
    return S._span_closure(seed, np.concatenate([T, seed]), start=T)


def span_adjoin(S, lo, s):
    """The earlier FiniteRing.adjoin without its memo: s closed over the
    subring lo by span_subring_closure."""
    return frozenset(span_subring_closure(S, [s], over=frozenset(lo)).tolist())


def scratch_adjoin(S, lo, s):
    """lo[s] as one closure of lo and s from {0} by span_subring_closure,
    without the memo."""
    return frozenset(span_subring_closure(S, sorted(lo) + [s]).tolist())


def every_s_monogenic_subrings(E):
    """{base[s]: least such s} with one closure per s in top - base; the
    base maps to its least element."""
    gens = {E.base: min(E.base)}
    for s in sorted(E.top - E.base):
        gens.setdefault(scratch_adjoin(E.ambient, E.base, s), s)
    return gens


def every_s_is_minimal_pair(S, lo, hi):
    """No s in hi - lo with lo < lo[s] < hi, closing lo[s] for every s."""
    return lo != hi and all(scratch_adjoin(S, lo, s) == hi
                            for s in sorted(hi - lo))


def every_s_is_simple(S, lo, hi):
    """Some s in hi - lo with lo[s] = hi, closing lo[s] for every s."""
    return any(scratch_adjoin(S, lo, s) == hi for s in sorted(hi - lo))


def list_distributive_law_scan(L):
    """The distributive law scan of the interval kernel by listing every
    failing triple of each block of rows with np.argwhere."""
    n, meet, join = L.n, L.meet, L.join
    chunk = max(1, (1 << 23) // max(1, n * n))
    for lo in range(0, n, chunk):
        blk = slice(lo, min(n, lo + chunk))
        lhs = meet[blk][:, join]
        rhs = join[meet[blk][:, :, None], meet[blk][:, None, :]]
        bad = np.argwhere(lhs != rhs)
        if bad.size:
            x, y, z = bad[0]
            return int(x) + lo, int(y), int(z)
    return None


def list_modular_law_scan(L):
    """ExtensionLattice.modular_law_scan by listing every failing pair of
    each row with np.argwhere."""
    n, meet, join, leq = L.n, L.meet, L.join, L.leq
    for x in range(n):
        zs = np.flatnonzero(leq[x])
        lhs = join[x, meet[:, zs]]          # y, z
        rhs = meet[join[x][:, None], zs[None, :]]
        bad = np.argwhere(lhs != rhs)
        if bad.size:
            y, zi = bad[0]
            return int(x), int(y), int(zs[zi])
    return None


def constructor_interval(L, a, b):
    """ExtensionLattice.interval by the constructor: the nodes of [a, b]
    with their tables rebuilt from inclusion."""
    if not L.leq[a, b]:
        raise LatticeError("interval endpoints are not comparable")
    return ExtensionLattice([L.nodes[v] for v in L.interval_nodes(a, b)])


def loop_levels_from(L, a):
    """ExtensionLattice.levels_from by walking the nodes above a in index
    order (a topological order, as nodes sort by size), each one level above
    its highest cover predecessor in [a, top]."""
    lev = np.full(L.n, -1, dtype=np.int32)
    lev[a] = 0
    for v in np.flatnonzero(L.leq[a]).tolist():
        if v == a:
            continue
        preds = np.flatnonzero(L.covers[:, v] & (L.leq[a] != 0))
        best = max((int(lev[u]) for u in preds if lev[u] >= 0), default=-1)
        if best >= 0:
            lev[v] = best + 1
    return lev


def loop_check_catenarian(L):
    """ExtensionLattice.check_catenarian by walking the covers of every
    up-set [a, top] against the longest-path levels from a."""
    for a in range(L.n):
        lev = L.levels_from(a)
        up = lev >= 0
        for u in np.flatnonzero(up):
            for v in np.flatnonzero(L.covers[u]):
                if up[v] and lev[v] != lev[u] + 1:
                    return False, {"interval": [int(a), int(v)],
                                   "edge": [int(u), int(v)],
                                   "levels": [int(lev[u]), int(lev[v])]}
    return True, None


def loop_covering_pair_criterion(L):
    """The interval kernel's covering-pair route by a loop over the pairs
    t < u, counting the nodes of [t ^ u, t v u] for each flagged pair."""
    n, meet, join, covers = L.n, L.meet, L.join, L.covers
    for t in range(n):
        for u in range(t + 1, n):
            m = int(meet[t, u])
            j = int(join[t, u])
            down_ok = covers[m, t] and covers[m, u]
            up_ok = covers[t, j] and covers[u, j]
            if (down_ok or up_ok) and L.interval_size(m, j) != 4:
                return False, {"pair": [t, u], "interval": [m, j],
                               "size": L.interval_size(m, j)}
    return True, None


def loop_forbidden_exhaustive(L):
    """The interval kernel's 5-subset sweep as a Python loop over every
    5-subset, its closure under meet and join, and every permutation of a
    closed one (M3 tested before N5)."""
    for sub in itertools.combinations(range(L.n), 5):
        closed = all(L.meet[u, v] in sub and L.join[u, v] in sub
                     for u, v in itertools.combinations(sub, 2))
        if not closed:
            continue
        for perm in itertools.permutations(sub):
            o, a, b, c, i = perm
            if loop_is_m3(L, o, a, b, c, i):
                return {"kind": "M3", "nodes": [o, a, b, c, i]}
            if loop_is_n5(L, o, a, b, c, i):
                return {"kind": "N5", "nodes": [o, a, b, c, i]}
    return None


def loop_is_m3(L, o, a, b, c, i):
    """Whether (o, a, b, c, i) is an M3 of L, one table lookup at a time."""
    mids = (a, b, c)
    if len({o, a, b, c, i}) != 5:
        return False
    for u, v in itertools.combinations(mids, 2):
        if L.meet[u, v] != o or L.join[u, v] != i:
            return False
    return all(L.leq[o, m] and L.leq[m, i] for m in mids)


def loop_is_n5(L, o, a, b, c, i):
    """Whether (o, a, b, c, i) is an N5 of L with o < a < b < i."""
    if len({o, a, b, c, i}) != 5:
        return False
    if not (L.leq[o, a] and L.leq[a, b] and L.leq[b, i]):
        return False
    if L.leq[a, c] or L.leq[c, a] or L.leq[b, c] or L.leq[c, b]:
        return False
    return (L.meet[a, c] == o and L.meet[b, c] == o
            and L.join[a, c] == i and L.join[b, c] == i)


def loop_length2_rule(L):
    """The earlier loop of ExtensionLattice.check_length2_rule: the first
    level-2 pair [a, b] with more than 4 nodes, two interval_size calls per
    pair; returns (ok, witness)."""
    for a in range(L.n):
        for b in np.flatnonzero(L.levels_from(a) == 2).tolist():
            if L.interval_size(a, b) > 4:
                return False, {"interval": [a, b], "size": L.interval_size(a, b)}
    return True, None


def loop_complements(L, t):
    """ExtensionLattice.complements by a loop over the nodes."""
    return [int(v) for v in range(L.n)
            if L.meet[t, v] == 0 and L.join[t, v] == L.n - 1]


def closure_lattice_tables(S, nodes):
    """(leq, covers, meet, join) of the subrings ``nodes`` of S by the
    element-wise definitions: inclusion, covers with no node strictly
    between, meet the node equal to the intersection, join the node equal
    to the generated subring.  Node order as in ExtensionLattice."""
    nodes = sorted(nodes, key=lambda s: (len(s), sorted(s)))
    index = {s: i for i, s in enumerate(nodes)}
    n = len(nodes)
    leq = np.array([[a <= b for b in nodes] for a in nodes], dtype=bool)
    covers = np.zeros((n, n), dtype=bool)
    meet = np.empty((n, n), dtype=np.int32)
    join = np.empty((n, n), dtype=np.int32)
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            covers[i, j] = a < b and not any(a < c < b for c in nodes)
            meet[i, j] = index[a & b]
            join[i, j] = index[frozenset(S.subring_closure(sorted(a | b)).tolist())]
    return leq, covers, meet, join


def bitset_lattice_tables(nodes):
    """(leq, covers, meet, join) of ``nodes`` by the earlier
    ExtensionLattice build, with the same LatticeError guards: each node an
    int bitset of its elements, an upper-set and a lower-set bitmask of
    node indices from a loop over the node pairs, the join the lowest node
    above both and the meet the highest node below both, one pair at a
    time.  Node order as in ExtensionLattice."""
    nodes = sorted(nodes, key=lambda s: (len(s), sorted(s)))
    n = len(nodes)
    bits = [sum(1 << x for x in s) for s in nodes]
    up = [1 << i for i in range(n)]
    down = list(up)
    for j, b in enumerate(bits):
        for i in range(j):
            if bits[i] & b == bits[i]:
                up[i] |= 1 << j
                down[j] |= 1 << i
    everything = (1 << n) - 1
    if up[0] != everything or down[n - 1] != everything:
        raise LatticeError("node set has no global bottom/top")
    leq = np.array([[up[i] >> j & 1 for j in range(n)] for i in range(n)],
                   dtype=bool).reshape(n, n)
    lt = leq & ~np.eye(n, dtype=bool)
    covers = lt & ~(lt @ lt)
    meet = np.empty((n, n), dtype=np.int32)
    join = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        for j in range(i, n):
            if up[i] >> j & 1:
                m, v = i, j
            else:
                above = up[i] & up[j]
                v = (above & -above).bit_length() - 1
                if up[v] != above:
                    raise LatticeError("nodes have no least common upper bound")
                m = (down[i] & down[j]).bit_length() - 1
                if bits[m] != bits[i] & bits[j]:
                    raise LatticeError("intersection of nodes escapes the node set")
            meet[i, j] = meet[j, i] = m
            join[i, j] = join[j, i] = v
    return leq, covers, meet, join


def assert_lattice_axioms(L):
    """Exhaustive scan of the lattice axioms on the tables of the
    ExtensionLattice L: idempotence, absorption, consistency with the order
    and associativity (the triple scan one block of rows at a time)."""
    n, meet, join, leq = L.n, L.meet, L.join, L.leq
    idx = np.arange(n)
    assert (meet[idx, idx] == idx).all(), "meet not idempotent"
    assert (join[idx, idx] == idx).all(), "join not idempotent"
    # absorption: x ^ (x v y) = x and x v (x ^ y) = x
    assert (meet[idx[:, None], join] == idx[:, None]).all(), \
        "absorption fails for meet over join"
    assert (join[idx[:, None], meet] == idx[:, None]).all(), \
        "absorption fails for join over meet"
    # order consistency: x <= y iff x ^ y = x iff x v y = y
    assert np.array_equal(leq, meet == idx[:, None]), \
        "meet table inconsistent with order"
    assert np.array_equal(leq, join == idx[None, :]), \
        "join table inconsistent with order"
    chunk = max(1, (1 << 23) // max(1, n * n))
    for lo in range(0, n, chunk):
        blk = slice(lo, min(n, lo + chunk))
        assert np.array_equal(meet[meet[blk]], meet[blk][:, meet]), \
            "meet not associative"
        assert np.array_equal(join[join[blk]], join[blk][:, join]), \
            "join not associative"


def assert_ring_axioms(R):
    """Exhaustive element-level scan of the commutative-ring axioms on the
    tables of R: both operations commutative and associative, additive
    inverses, multiplication distributive over addition, and zero and one
    acting as identities.  O(n^3); one row of the triple scan at a time."""
    n, add, mul = R.size, R.add, R.mul
    idx = np.arange(n)
    assert np.array_equal(add[R.zero], idx), "zero is not an additive identity"
    assert np.array_equal(mul[R.one], idx), "one is not a multiplicative identity"
    assert np.array_equal(add, add.T), "addition not commutative"
    assert np.array_equal(mul, mul.T), "multiplication not commutative"
    assert (add[idx, R.neg] == R.zero).all(), "neg is not an additive inverse"
    for x in range(n):
        # (x+y)+z = x+(y+z), (xy)z = x(yz), x(y+z) = xy + xz for all y, z
        assert np.array_equal(add[add[x]], add[x][add]), f"+ not associative at {x}"
        assert np.array_equal(mul[mul[x]], mul[x][mul]), f"* not associative at {x}"
        assert np.array_equal(mul[x][add], add[np.ix_(mul[x], mul[x])]), \
            f"* does not distribute over + at {x}"


def doubled_ring_tables(S, top):
    """(add, mul, one) of the idealization T(+)T of the subring ``top`` by
    the element-wise definition (r1,m1)(r2,m2) = (r1r2, r1m2 + r2m1); the
    pair (r, m) has index i(r)*n + i(m), i the position in sorted ``top``."""
    top = sorted(int(x) for x in top)
    n = len(top)
    pos = {x: i for i, x in enumerate(top)}
    pairs = list(itertools.product(top, top))
    add = np.empty((n * n, n * n), dtype=np.int32)
    mul = np.empty((n * n, n * n), dtype=np.int32)
    for i, (r1, m1) in enumerate(pairs):
        for j, (r2, m2) in enumerate(pairs):
            add[i, j] = pos[S.a(r1, r2)] * n + pos[S.a(m1, m2)]
            mul[i, j] = pos[S.m(r1, r2)] * n + pos[S.a(S.m(r1, m2), S.m(r2, m1))]
    return add, mul, pos[S.one] * n + pos[S.zero]


def pairwise_b2_structure_cases(a):
    """The earlier checks.b2_structure_cases: one sub-extension, one full
    support profile and one decomposition per length-2 pair; the reference
    for the pass per lower node."""
    from ringlattice import extension as ex
    from ringlattice.verify import CheckResult
    if a.trivial:
        return CheckResult("", "", "n/a", reason="trivial extension")
    L = a.lattice()
    pairs = []
    for v in range(len(L.nodes)):
        lev = L.levels_from(v)
        pairs.extend((v, int(w)) for w in np.flatnonzero(lev == 2))
    if not pairs:
        return CheckResult("", "", "n/a", reason="no length-2 subinterval")
    S = a.ambient
    for v, w in pairs:
        V, W = L.nodes[v], L.nodes[w]
        pa = a.sub(V, W)
        lhs = pa.lattice().verdict().boolean_lattice
        prof = pa.profile()
        cond = prof.conductor
        rhs = False
        if len(prof.msupp) == 2:
            rhs = True
        elif len(prof.msupp) == 1:
            M = prof.crucial
            if ex.is_infra_integral_pair(S, V, W):
                plus = pa.decomposition().plus
                if plus not in (V, W) and cond == M:
                    rhs = True
            if not rhs and cond == M and ex.is_t_closed(S, V, W):
                rhs = M in fr.maximal_ideals(S, W) and \
                    len(pa.quotient(M).lattice().nodes) == 4
        if lhs != rhs:
            return CheckResult("", "", "fail", witness={
                "interval": [v, w], "b2": lhs, "cases": rhs})
    return CheckResult("", "", "pass")


def slice_routes(L):
    """The earlier distributivity and Boolean verdict of one lattice, each
    route on its own: the listing law scans, the constructive witness, the
    loop 5-subset sweep (at most 16 nodes) and the loop covering-pair
    criterion, with their agreement guards; returns
    (distributive, witness, boolean, is_b2).  The reference for the
    stacked interval kernel."""
    meet, join = L.meet, L.join
    tri, mod = list_distributive_law_scan(L), list_modular_law_scan(L)
    witness = None
    if mod is not None:
        x, y, z = mod
        o, i = int(meet[y, z]), int(join[x, y])
        nodes = [o, int(join[x, o]), int(meet[i, z]), int(y), i]
        if not loop_is_n5(L, *nodes):
            raise LatticeError("pentagon construction failed on a modular-law violation")
        witness = {"kind": "N5", "nodes": nodes}
    elif tri is not None:
        x, y, z = tri
        o = join[join[meet[x, y], meet[y, z]], meet[z, x]]
        i = meet[meet[join[x, y], join[y, z]], join[z, x]]
        nodes = [int(v) for v in (o, join[meet[x, i], o], join[meet[y, i], o],
                                  join[meet[z, i], o], i)]
        if not loop_is_m3(L, *nodes):
            raise LatticeError("diamond construction failed on a distributive-law violation")
        witness = {"kind": "M3", "nodes": nodes}
    if L.n <= 16 and (witness is None) != (loop_forbidden_exhaustive(L) is None):
        raise LatticeError("forbidden-sublattice routes disagree")
    crit_ok, crit_wit = loop_covering_pair_criterion(L)
    law_ok = tri is None
    if law_ok != (witness is None) or law_ok != crit_ok:
        raise LatticeError(
            f"distributivity routes disagree: law={law_ok} "
            f"sublattice={'none' if witness is None else witness['kind']} "
            f"criterion={crit_ok}")
    if not law_ok:
        witness["law_triple"] = list(tri)
        witness["covering_pair"] = crit_wit
    boolean = law_ok and all(loop_complements(L, t) for t in range(L.n))
    is_b2 = L.n == 4 and L.length == 2
    if is_b2 and not boolean:
        raise LatticeError("4-node length-2 lattice must be Boolean")
    return law_ok, witness, boolean, is_b2


def slice_interval_agreement(extensions, count, seed):
    """The earlier verify.random_interval_agreement: each draw slices its
    interval and runs check_distributive on the slice, in draw order."""
    import random
    rng = random.Random(seed)
    pool = [a for a in extensions if len(a.lattice().nodes) >= 2]
    done = 0
    while pool and done < count:
        a = rng.choice(pool)
        L = a.lattice()
        i = rng.randrange(len(L.nodes))
        j = rng.choice(np.flatnonzero(L.leq[i]).tolist())
        sub = L.interval(i, j)
        try:
            sub.check_distributive()
        except LatticeError as exc:
            return done, {"instance": a.name, "interval": [i, j], "error": str(exc)}
        done += 1
    return done, None
