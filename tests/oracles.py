"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's closure-based enumeration and
criterion shortcuts: subrings and ideals are found by scanning all subsets
against the operation tables, so the main code paths are checked against a
different computation.
"""

import itertools

import numpy as np

from ringlattice import finring as fr


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
