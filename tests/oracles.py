"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's closure-based enumeration and
criterion shortcuts: subrings and ideals are found by scanning all subsets
against the operation tables, so the main code paths are checked against a
different computation.  The ``isin_*`` and ``loop_*`` functions are the
earlier np.isin and Python-loop versions of the membership kernels, kept as
references for the mask and vectorised ones.  ``small_ring`` builds the
tiny rings they run on.
"""

import functools
import itertools

import numpy as np

from ringlattice import finring as fr
from ringlattice.extension import TheoremViolation


SMALL_RINGS = ("F2[x]/(x^3)", "F2xF4", "F2+F2^2", "Z4xZ2")


@functools.lru_cache(maxsize=None)
def small_ring(name):
    """One of the SMALL_RINGS (8 elements each), built once."""
    F2 = fr.gf(2)
    return {
        "F2[x]/(x^3)": lambda: fr.quotient_by_relations(
            F2, [fr.resolve_relation(F2, [((("x", 3),), 1)])]),
        "F2xF4": lambda: fr.product_ring([F2, fr.gf(2, 2)]),
        "F2+F2^2": lambda: fr.idealization(F2, (2, 2)),
        "Z4xZ2": lambda: fr.product_ring([fr.zmod(4), fr.zmod(2)]),
    }[name]()


def isin_subring(S, subset):
    """FiniteRing.is_subring by np.isin membership (the reference for the
    mask version)."""
    s = fr.as_index_array(subset)
    if S.one not in set(s.tolist()):
        return False
    return bool(np.isin(S.add[np.ix_(s, s)], s).all()
                and np.isin(S.mul[np.ix_(s, s)], s).all())


def isin_ideal_of(S, within, subset):
    """FiniteRing.is_ideal_of by np.isin membership."""
    within = fr.as_index_array(within)
    s = fr.as_index_array(subset)
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
    lo_arr, hi_arr = fr.as_index_array(lo), fr.as_index_array(hi)
    keep = np.isin(S.mul[np.ix_(lo_arr, hi_arr)], lo_arr).all(axis=1)
    cond = frozenset(int(z) for z, ok in zip(lo_arr.tolist(), keep) if ok)
    if not isin_ideal_of(S, lo_arr, fr.as_index_array(cond)) or \
            not isin_ideal_of(S, hi_arr, fr.as_index_array(cond)):
        raise TheoremViolation("conductor is not an ideal of both rings")
    return cond


def loop_subring_unit(S, T):
    """finring.subring_unit by a double loop over T."""
    T = fr.as_index_array(T)
    tl = T.tolist()
    units = [u for u in tl if all(S.mul[u, x] == x for x in tl)]
    if len(units) != 1:
        raise fr.RingError("subset has no unique multiplicative identity")
    return units[0]


def brute_force_subrings(S, base):
    """Every subring of S containing base, by exhaustive subset scan.
    Only usable when |S - base| is small (2^k subsets)."""
    base = frozenset(base)
    rest = sorted(set(range(S.size)) - base)
    assert len(rest) <= 16, "oracle only meant for tiny ambient rings"
    out = []
    base_arr = sorted(base)
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            cand = np.array(base_arr + list(combo), dtype=np.int32)
            cand.sort()
            if np.isin(S.add[np.ix_(cand, cand)], cand).all() and \
                    np.isin(S.mul[np.ix_(cand, cand)], cand).all():
                out.append(frozenset(int(x) for x in cand))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


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
