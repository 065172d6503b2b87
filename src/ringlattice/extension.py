"""Ring extensions R <= S inside a fixed ambient finite ring.

An :class:`Extension` is a pair of nested unital subrings (``base``,
``top``) of an ambient :class:`~ringlattice.finring.FiniteRing`; the usual
case is ``top`` = the whole ambient ring.  This module provides the
interval enumeration, conductor and support machinery, minimal-extension
classification and the canonical closure operations (seminormalization,
t-closure, u-closure, co-subintegral closure), plus splitters and
complements.  Every derived extension on a new ring is a quotient
(:func:`quotient_extension`): the localization at a maximal ideal M of the
base, the residue-field extensions and the transfers modulo a shared ideal.

All predicates are computed from their element-level or spectrum-level
definitions by exhaustive scans; closure operations filter the enumerated
interval and assert the uniqueness of their extremum instead of trusting
it, so a wrong uniqueness claim surfaces as a :class:`TheoremViolation`.

Every lazy result has one home: the extension's memo holds its lattice,
flags, decomposition, support, cover types and derived extensions, and
the ambient ring's memo holds the pair facts by (kind, lo, hi), so they
are shared by every extension on that ring.
"""

from __future__ import annotations

from dataclasses import dataclass
import enum
import itertools

import numpy as np

from . import finring as fr
from .lattice import ExtensionLattice

DEFAULT_NODE_LIMIT = 100000


class TheoremViolation(Exception):
    """A structural guarantee asserted by the theory failed on an instance.
    Either the implementation or the instance data is wrong; never ignored."""


class MinimalType(enum.Enum):
    INERT = "inert"
    DECOMPOSED = "decomposed"
    RAMIFIED = "ramified"

    def short(self):
        return {"inert": "i", "decomposed": "d", "ramified": "r"}[self.value]


@dataclass
class SupportProfile:
    """Maximal ideals of the base where the extension is non-trivial."""
    msupp: list[frozenset]
    crucial: frozenset | None
    conductor: frozenset


@dataclass
class CanonicalDecomposition:
    """The canonical closure subrings of an extension (element sets)."""
    plus: frozenset      # seminormalization: greatest subintegral subring
    t: frozenset         # t-closure: greatest infra-integral subring
    u: frozenset         # u-closure: least T with T <= S u-closed
    cosub: frozenset | None  # least T with T <= S subintegral, when unique


@dataclass
class ExtensionFlags:
    """Predicate flags of an extension; all None for the trivial R = S case."""
    trivial: bool
    subintegral: bool | None = None
    seminormal: bool | None = None
    infra_integral: bool | None = None
    t_closed: bool | None = None
    u_closed: bool | None = None
    i_extension: bool | None = None
    simple: bool | None = None
    chained: bool | None = None
    branched: bool | None = None
    arithmetic: bool | None = None
    locally_minimal: bool | None = None
    delta: bool | None = None

    def as_dict(self):
        return {k: v for k, v in self.__dict__.items()}


class Extension:
    """A pair base <= top of unital subrings of a fixed ambient ring.

    Derived data (interval lattice, support, closures, localizations) is
    computed lazily, each a key of the instance's one memo (``_cache``, a
    :class:`~ringlattice.finring.Memo`); everything is immutable after
    construction.
    """

    def __init__(self, ambient: fr.FiniteRing, base, top=None, name=None):
        self.ambient = ambient
        self.base = frozenset(int(x) for x in base)
        self.top = frozenset(int(x) for x in top) if top is not None \
            else frozenset(range(ambient.size))
        self.name = name
        if not self.base <= self.top:
            raise fr.RingError("base is not contained in top")
        if not ambient.is_subring(self.base):
            raise fr.RingError("base is not a unital subring of the ambient ring")
        # arr rejects indices outside the ring, so a top of full size is it
        if len(ambient.arr(self.top)) != ambient.size and \
                not ambient.is_subring(self.top):
            raise fr.RingError("top is not a unital subring of the ambient ring")
        self._cache = fr.Memo()

    def __repr__(self):
        nm = f"{self.name}: " if self.name else ""
        return (f"Extension({nm}{len(self.base)} <= {len(self.top)} "
                f"in {self.ambient.label})")

    @property
    def trivial(self):
        return self.base == self.top

    # cached heavy analyses -------------------------------------------

    def lattice(self, node_limit=DEFAULT_NODE_LIMIT) -> ExtensionLattice:
        L = self._cache.fetch("lattice", enumerate_interval, self, node_limit)
        # a cached lattice answers to the limit it would be enumerated under
        fr.check_limit(len(L.nodes), node_limit, "interval enumeration")
        return L

    def base_decomposition(self) -> fr.LocalFactorDecomposition:
        return fr.primitive_idempotents(self.ambient, self.base,
                                        unit=self.ambient.one)

    def top_decomposition(self) -> fr.LocalFactorDecomposition:
        return fr.primitive_idempotents(self.ambient, self.top,
                                        unit=self.ambient.one)

    def max_ideals_base(self) -> list[frozenset]:
        return fr.maximal_ideals(self.ambient, self.base)

    def max_ideals_top(self) -> list[frozenset]:
        return fr.maximal_ideals(self.ambient, self.top)

    def profile(self) -> SupportProfile:
        return self._cache.fetch("profile", support_profile, self)

    def flags(self) -> ExtensionFlags:
        return self._cache.fetch("flags", extension_flags, self)

    def decomposition(self) -> CanonicalDecomposition:
        return self._cache.fetch("decomp", canonical_decomposition, self)

    def localized(self, M) -> "Extension":
        """The localization at the maximal ideal M of the base.  A local
        base has the primitive idempotent 1, so when the top is the whole
        ambient ring the localization is this extension itself (sharing its
        cached lattice and flags)."""
        M = frozenset(M)

        def localize(E):
            if E.base_decomposition().maximal_ideals == [M] and \
                    len(E.top) == E.ambient.size:
                return E
            return localize_at(E, M)
        return self._cache.fetch(("loc", M), localize, self)

    def sub(self, lo, hi) -> "Extension":
        """The extension lo <= hi for two comparable nodes of the interval,
        cached.  Nodes are unital subrings, so the constructor's subring
        scans are skipped, and every ring between them is a node, so its
        lattice is the interval [lo, hi] sliced out of this one."""
        def between(parent):
            L = parent.lattice()
            i, j = L.index[frozenset(lo)], L.index[frozenset(hi)]
            E = Extension.__new__(Extension)
            E.ambient, E.base, E.top = parent.ambient, L.nodes[i], L.nodes[j]
            E.name = f"{parent.name}[sub]"
            E._cache = fr.Memo(lattice=L.interval(i, j))
            return E
        return self._cache.fetch(("sub", frozenset(lo), frozenset(hi)), between, self)

    def quotient(self, I) -> "Extension":
        """(base + I)/I <= top/I for an ideal I of the top.  The quotient
        by {0} is this extension itself; any other ideal gets a fresh
        quotient ring."""
        if len(I) == 1:
            return self
        Q = quotient_extension(self.ambient, self.base, self.top, I)
        Q.name = f"{self.name}/I"
        return Q


# ----------------------------------------------------------------------
# subring generation and interval enumeration

def prime_subring(S: fr.FiniteRing) -> frozenset:
    """The smallest unital subring of S."""
    return frozenset(S.subring_closure([]).tolist())


def generated_subring(S: fr.FiniteRing, base, elems) -> frozenset:
    """Smallest subring of S containing the subring ``base`` and ``elems``:
    adjoin them one at a time."""
    T = frozenset(base)
    for e in elems:
        T = S.adjoin(T, int(e))
    return T


def coset_leaders(S: fr.FiniteRing, lo, hi) -> list[int]:
    """The least element of each coset s + lo in hi - lo, ascending.  For b
    in lo, s and s + b generate each other over lo, so lo[s + b] = lo[s]
    and one s per coset reaches every lo[s]."""
    h = S.arr(hi)
    return fr.orbit_leaders(S.add, h[~S.mask(lo)[h]], S.arr(lo))


def monogenic_subrings(E: Extension) -> dict[frozenset, int]:
    """{base[s]: least such s} over s in top; the base maps to its least
    element."""
    S = E.ambient
    gens = {E.base: min(E.base)}
    for s in coset_leaders(S, E.base, E.top):
        gens.setdefault(S.adjoin(E.base, s), s)
    return gens


def enumerate_interval(E: Extension, node_limit=DEFAULT_NODE_LIMIT) -> ExtensionLattice:
    """The complete lattice [base, top]: every intermediate ring is a join
    of monogenic ones, so the node set is the join-closure of
    {base[s] : s in top} and the enumeration is exhaustive.  Every node x
    contains the base, so its join with base[s] is x[s]."""
    S = E.ambient
    gens = monogenic_subrings(E)
    nodes, joins = fr.join_closure(gens, lambda x, a: S.adjoin(x, gens[a]),
                                   node_limit, "interval enumeration")
    if E.top not in nodes:
        raise TheoremViolation("join closure failed to reach the top ring")
    # the facts hold every incomparable (node, monogenic subring) join, and
    # every join-irreducible node is monogenic
    return ExtensionLattice(nodes, joins)


def idempotent_style_generator(E: Extension) -> int | None:
    """The least s with base[s] = top and s^2 - s, s^3 - s^2 in the base,
    or None."""
    S = E.ambient
    for s in sorted(E.top - E.base):
        s2 = S.m(s, s)
        if S.sub(s2, s) in E.base and S.sub(S.m(s2, s), s2) in E.base and \
                S.adjoin(E.base, s) == E.top:
            return s
    return None


# ----------------------------------------------------------------------
# conductor, support, localization, fibers, residues

def cover_conductors(S: fr.FiniteRing, lo, his) -> list[frozenset]:
    """(lo : hi) = {z in lo : z*hi <= lo} for each ring hi of ``his`` over
    the subring lo, the largest common ideal, memoised on S by
    ("conductor", lo, hi); the missing ones are computed together.  One
    gather of lo*S marks the products that leave lo, and one float32
    product with the membership rows of the his counts them per (z, hi):
    the conductor is where the count is 0.  As cond <= lo <= hi, an ideal
    of hi is an ideal of lo, so only the hi side is checked."""
    lo = frozenset(lo)
    return S._cache.fetch_group([("conductor", lo, frozenset(hi)) for hi in his],
                                lambda keys: _conductors(S, lo, [hi for _, _, hi in keys]))


def _conductors(S: fr.FiniteRing, lo, his) -> list[frozenset]:
    """The conductors of cover_conductors, each checked to be an ideal of
    its upper ring; blocks of rows of lo of about 2^18 products bound the
    memory."""
    lo_arr = S.arr(lo)
    in_lo = S.mask(lo_arr)
    upper = _member_rows(S, his)
    weights = upper.T.astype(np.float32)
    cond = np.zeros_like(upper)
    for blk in fr.row_blocks(lo_arr.size, upper.size):
        leaving = (~in_lo[S.mul[lo_arr[blk]]]).astype(np.float32) @ weights
        cond[:, lo_arr[blk]] = (leaving == 0).T
    if not _rows_are_ideals(S, lo_arr, cond, upper):
        raise TheoremViolation("conductor is not an ideal of both rings")
    return [frozenset(np.flatnonzero(row).tolist()) for row in cond]


def _member_rows(S: fr.FiniteRing, sets) -> np.ndarray:
    """Boolean membership rows, len(sets) x S.size, of the element sets."""
    rows = np.zeros((len(sets), S.size), dtype=bool)
    for row, T in zip(rows, sets):
        row[S.arr(T)] = True
    return rows


def _rows_are_ideals(S: fr.FiniteRing, lo_arr, sets, rings) -> bool:
    """Whether each boolean row of ``sets``, a subset of the subring with
    index array lo_arr, is an ideal of the subring in the same row of
    ``rings``: it holds 0, lies in that ring and holds the sums of its
    elements and their products with the ring.  The closure tests run for
    all rows at once over lo's sums and products, in blocks of rows."""
    if not sets[:, S.zero].all() or (sets & ~rings).any():
        return False
    local = sets[:, lo_arr]
    for blk in fr.row_blocks(lo_arr.size, rings.size):
        elems, mine = lo_arr[blk], local[:, blk, None]
        if (mine & local[:, None, :] & ~sets[:, S.add[elems[:, None], lo_arr]]).any() or \
                (mine & rings[:, None, :] & ~sets[:, S.mul[elems]]).any():
            return False
    return True


def conductor_pair(S: fr.FiniteRing, lo, hi) -> frozenset:
    """(lo : hi) for subrings lo <= hi: cover_conductors with one upper
    ring."""
    return cover_conductors(S, lo, [hi])[0]


def conductor(E: Extension) -> frozenset:
    return conductor_pair(E.ambient, E.base, E.top)


def support_profile(E: Extension) -> SupportProfile:
    """MSupp(top/base); for integral finite extensions Supp = MSupp."""
    msupp = msupp_of_pair(E, E.base, E.top)
    crucial = msupp[0] if len(msupp) == 1 else None
    return SupportProfile(msupp=msupp, crucial=crucial, conductor=conductor(E))


def quotient_extension(S: fr.FiniteRing, lo, hi, I) -> Extension:
    """(lo + I)/I <= hi/I for subrings lo <= hi of S and an ideal I of hi,
    on the ring quotient_of_subring(S, hi, I)."""
    ring, proj = fr.quotient_of_subring(S, hi, I)
    return Extension(ring, frozenset(proj[S.arr(lo)].tolist()))


def localize_at(E: Extension, M) -> Extension:
    """The localization of the extension at a maximal ideal M of the base.
    With e the primitive idempotent of the base attached to M, the finite
    (Artinian) localization is top/(1 - e)top over the image of the base."""
    S = E.ambient
    dec = E.base_decomposition()
    try:
        e = dec.idempotents[dec.maximal_ideals.index(frozenset(M))]
    except ValueError:
        raise fr.RingError("not a maximal ideal of the base ring") from None
    loc = quotient_extension(S, E.base, E.top,
                             S.mul[S.sub(S.one, e), S.arr(E.top)])
    loc.name = (E.name or "E") + "@loc"
    return loc


def msupp_of_pair(E: Extension, lo, hi) -> list[frozenset]:
    """MSupp_base(hi/lo) for base <= lo <= hi <= top, as ideals of base."""
    return msupp_of_pairs(E.ambient, E.base, lo, [hi])[0]


def msupp_of_pairs(S: fr.FiniteRing, base, lo, his) -> list[list[frozenset]]:
    """MSupp_base(hi/lo) for each ring hi of ``his`` over lo, base <= lo,
    as sorted lists of maximal ideals of base: the M_e, e a primitive
    idempotent of base, with |e*lo| != |e*hi|.  x -> e*x is additive with
    kernel {x : e*x = 0}, so |e*T| = |T| / |T & kernel|: one count of
    every kernel in every ring, as one float32 product."""
    dec = fr.primitive_idempotents(S, base, unit=S.one)
    rows = _member_rows(S, [lo, *his]).astype(np.float32)
    kernel = (S.mul[dec.idempotents] == S.zero).astype(np.float32)
    inside = kernel @ rows.T                        # |T & kernel of e|
    size = rows.sum(axis=1)
    moved = (size[1:] * inside[:, :1] != size[0] * inside[:, 1:]).T.tolist()
    return [sorted((M for M, m in zip(dec.maximal_ideals, row) if m), key=sorted)
            for row in moved]


def fibers(E: Extension) -> dict[frozenset, list[frozenset]]:
    """For each maximal ideal P of the base, the maximal ideals of the top
    contracting to it; the fibers cover Max(top)."""
    out = {P: [] for P in E.max_ideals_base()}
    for Q, P in spectrum_map(E.ambient, E.base, E.top):
        out[P].append(Q)
    return out


# ----------------------------------------------------------------------
# minimal extensions

def is_minimal_pair(S: fr.FiniteRing, lo, hi) -> bool:
    """Definitional minimality by monogenic search: no s with
    lo < lo[s] < hi.  (If every lo[s] = hi for s outside lo, any strictly
    intermediate ring would contain such an lo[s].)"""
    return lo != hi and all(S.adjoin(lo, s) == hi
                            for s in coset_leaders(S, lo, hi))


def classify_minimal_pair(S: fr.FiniteRing, lo, hi, assume_minimal=False):
    """The minimal-extension type of lo < hi, or None when not minimal.

    Decision data: the conductor M = (lo:hi) must be maximal in lo; then
      inert       M maximal in hi (M is an ideal of both rings, so the field
                  step lo/M < hi/M is minimal as lo < hi is; Ferrand-Olivier);
      decomposed  two maximal ideals of hi meet lo in M, trivial residues;
      ramified    unique M' with M'^2 <= M < M', dim 2, trivial residue.
    Exactly one case must hold; anything else raises, it is never guessed.
    """
    if not assume_minimal and not is_minimal_pair(S, lo, hi):
        return None
    if lo == hi:
        return None
    M = conductor_pair(S, lo, hi)
    if M not in fr.maximal_ideals(S, lo):
        raise TheoremViolation("conductor of a minimal extension is not maximal")
    q = len(lo) // len(M)
    max_hi = fr.maximal_ideals(S, hi)
    over = [Q for Q in max_hi if Q & lo == M]

    cases = []
    if M in max_hi:
        cases.append(MinimalType.INERT)
    if len(over) == 2:
        Q1, Q2 = over
        if Q1 & Q2 == M and \
                len(hi) // len(Q1) == q and len(hi) // len(Q2) == q:
            cases.append(MinimalType.DECOMPOSED)
    if len(over) == 1:
        # M is closed under addition, so it holds M'^2 iff it holds every
        # product of two elements of M'
        Qp = S.arr(over[0])
        sq_in_M = bool(S.mask(M)[S.mul[np.ix_(Qp, Qp)]].all())
        if sq_in_M and M < over[0] and \
                len(hi) // len(M) == q * q and len(hi) // len(over[0]) == q:
            cases.append(MinimalType.RAMIFIED)
    if len(cases) != 1:
        raise TheoremViolation(
            f"minimal extension matches {len(cases)} of the three type patterns")
    return cases[0]


def classify_minimal(E: Extension):
    """Type of the whole extension when minimal, else None (pre: base != top)."""
    if E.trivial:
        raise fr.RingError("classify_minimal needs a proper extension")
    return classify_minimal_pair(E.ambient, E.base, E.top)


def cover_types(E: Extension) -> dict[tuple[int, int], MinimalType]:
    """Minimal type of every Hasse edge of the enumerated interval; the
    conductors of each lower node under all of its covers are computed
    together first."""
    def classify(E):
        S, L = E.ambient, E.lattice()
        edges = np.argwhere(L.covers).tolist()
        for i, group in itertools.groupby(edges, key=lambda edge: edge[0]):
            cover_conductors(S, L.nodes[i], [L.nodes[j] for _, j in group])
        return {(i, j): classify_minimal_pair(S, L.nodes[i], L.nodes[j],
                                              assume_minimal=True)
                for i, j in edges}
    return E._cache.fetch("cover_types", classify, E)


# ----------------------------------------------------------------------
# element-level closure predicates (pairs of nested subrings)

def _segment_ranks(counts):
    """0, 1, ..., c - 1 for each count c, concatenated."""
    counts = np.asarray(counts, dtype=np.intp)
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _common_counts(A, ia, B, ib):
    """|A[ia[k]] & B[ib[k]]| for each k, for boolean rows A and B, in blocks
    of about 2^18 entries."""
    out = np.empty(len(ia), dtype=np.int64)
    for blk in fr.row_blocks(len(ia), A.shape[1]):
        out[blk] = np.count_nonzero(A[ia[blk]] & B[ib[blk]], axis=1)
    return out


def _runs(weights, limit=1 << 13):
    """Consecutive slices of the items with about ``limit`` total weight
    each (at least one item each)."""
    total = np.cumsum(weights)
    out, start = [], 0
    while start < total.size:
        reach = (total[start - 1] if start else 0) + limit
        end = max(start + 1, int(np.searchsorted(total, reach, side="right")))
        out.append(slice(start, end))
        start = end
    return out


def _closed_facts(S: fr.FiniteRing, rings, rows, lo, hi) -> np.ndarray:
    """The seminormal, u-closed and t-closed facts (3 x pairs) of the pairs
    (rings[lo[k]], rings[hi[k]]), with ``rows`` the membership rows of
    ``rings``: lo is closed in hi for r when no b in hi - lo has b(b - r)
    and b^2(b - r) in lo, for r = 0, for r = 1 and for every r in lo.
    Each (kind, pair, r) meets every b of its pair, in runs of about 2^13
    (r, b) entries, which keep the dozen index arrays of a run small."""
    lo, hi = np.asarray(lo, dtype=np.intp), np.asarray(hi, dtype=np.intp)
    pairs = lo.size
    b_pair, b = np.nonzero(rows[hi] & ~rows[lo])
    t_pair, t_r = np.nonzero(rows[lo])
    # the r of each (kind, pair) slot, kind-major
    slot = np.concatenate([np.arange(pairs), pairs + np.arange(pairs), 2 * pairs + t_pair])
    r = np.concatenate([np.full(pairs, S.zero), np.full(pairs, S.one), t_r])
    nb = np.bincount(b_pair, minlength=pairs)
    r_pair = slot % pairs
    per_r, b_first = nb[r_pair], (np.cumsum(nb) - nb)[r_pair]
    member = rows.ravel()
    hits = np.zeros(3 * pairs)
    for run in _runs(per_r):
        counts = per_r[run]
        owner = np.repeat(slot[run], counts)
        bb = b[np.repeat(b_first[run], counts) + _segment_ranks(counts)]
        c = S.mul[bb, S.add[bb, S.neg[np.repeat(r[run], counts)]]]
        base = lo[owner % pairs] * S.size
        bad = member[base + c] & member[base + S.mul[c, bb]]
        hits += np.bincount(owner, weights=bad, minlength=3 * pairs)
    return (hits == 0).reshape(3, pairs)


def _spectral_facts(S: fr.FiniteRing, rings, rows, lo, hi) -> np.ndarray:
    """The infra-integral and subintegral facts (2 x pairs) of the pairs
    (rings[lo[k]], rings[hi[k]]), with ``rows`` the membership rows of
    ``rings``.  The maximal ideal of a ring T at its primitive idempotent e
    is {x in T : e*x nilpotent}.  A maximal ideal Q of hi contracts to the
    maximal ideal P of lo iff |Q & P| = |Q & lo| = |P|, and each Q must
    contract to exactly one P.  The pair is infra-integral iff
    |lo / (Q & lo)| = |hi / Q| for every Q, and subintegral iff moreover
    every P is the contraction of exactly one Q.  The intersections are
    counted over every (Q, P) of every pair at once."""
    lo, hi = np.asarray(lo, dtype=np.intp), np.asarray(hi, dtype=np.intp)
    pairs = lo.size
    idems = [fr.primitive_idempotents(S, T).idempotents for T in rings]
    count = np.array([len(es) for es in idems], dtype=np.intp)
    first = np.cumsum(count) - count
    ideals = rows[np.repeat(np.arange(len(rings)), count)] & \
        S.nilpotent_mask()[S.mul[np.concatenate(idems)]]
    size_ideal, size_ring = ideals.sum(axis=1), rows.sum(axis=1)
    nq, np_ = count[hi], count[lo]
    q_pair, p_pair = np.repeat(np.arange(pairs), nq), np.repeat(np.arange(pairs), np_)
    q = first[hi][q_pair] + _segment_ranks(nq)
    p = first[lo][p_pair] + _segment_ranks(np_)
    q_lo = _common_counts(ideals, q, rows, lo[q_pair])
    # every (Q, P) of a pair: Q entry qe and P entry pe
    combos = nq * np_
    c_pair, rank = np.repeat(np.arange(pairs), combos), _segment_ranks(combos)
    qe = (np.cumsum(nq) - nq)[c_pair] + rank // np_[c_pair]
    pe = (np.cumsum(np_) - np_)[c_pair] + rank % np_[c_pair]
    common = _common_counts(ideals, q[qe], ideals, p[pe])
    match = (common == q_lo[qe]) & (common == size_ideal[p[pe]])
    if (np.bincount(qe, weights=match, minlength=q.size) != 1).any():
        raise TheoremViolation("contraction of a maximal ideal is not maximal")
    per_p = np.bincount(pe, weights=match, minlength=p.size)
    residual = size_ring[lo[q_pair]] * size_ideal[q] == size_ring[hi[q_pair]] * q_lo
    infra = np.bincount(q_pair, weights=~residual, minlength=pairs) == 0
    bijective = np.bincount(p_pair, weights=per_p != 1, minlength=pairs) == 0
    return np.array([infra, infra & bijective])


def pair_facts(S: fr.FiniteRing, keys) -> list[tuple]:
    """The facts of each key (kind, lo, hi) of ``keys``, memoised on S:
    kind "spectral" is (infra-integral, subintegral) and "closed" is
    (seminormal, u-closed, t-closed) of the pair lo <= hi.  The missing
    keys are computed together: their rings get one membership row each,
    and each kernel runs once over all of its pairs."""
    return S._cache.fetch_group(keys, lambda missing: _kernel_facts(S, missing))


def _kernel_facts(S: fr.FiniteRing, keys) -> list[tuple]:
    index = {}
    for _, lo, hi in keys:
        index.setdefault(lo, len(index))
        index.setdefault(hi, len(index))
    rings = list(index)
    rows = _member_rows(S, rings)
    out = {}
    for kind, kernel in (("spectral", _spectral_facts), ("closed", _closed_facts)):
        mine = [key for key in keys if key[0] == kind]
        if mine:
            values = kernel(S, rings, rows, [index[lo] for _, lo, _ in mine],
                            [index[hi] for _, _, hi in mine])
            out.update(zip(mine, zip(*values.tolist())))
    return [out[key] for key in keys]


def fill_decomposition_facts(S: fr.FiniteRing, lo, intervals):
    """The pair facts the canonical decomposition of [lo, hi] reads, for
    each (hi, nodes of [lo, hi]) of ``intervals``, in one grouped fill
    (:func:`pair_facts`): "spectral" over lo (lo, T), and "spectral" and
    "closed" under hi (T, hi), for every node T."""
    pair_facts(S, [key for hi, nodes in intervals for T in nodes
                   for key in (("spectral", lo, T), ("spectral", T, hi), ("closed", T, hi))])


def _pair_fact(S: fr.FiniteRing, kind, lo, hi) -> tuple:
    return pair_facts(S, [(kind, frozenset(lo), frozenset(hi))])[0]


def is_seminormal(S: fr.FiniteRing, lo, hi) -> bool:
    """No b in hi-lo with b^2, b^3 in lo (r = 0)."""
    return _pair_fact(S, "closed", lo, hi)[0]


def is_u_closed(S: fr.FiniteRing, lo, hi) -> bool:
    """No b in hi-lo with b^2-b, b^3-b^2 in lo (r = 1)."""
    return _pair_fact(S, "closed", lo, hi)[1]


def is_t_closed(S: fr.FiniteRing, lo, hi) -> bool:
    """No b in hi-lo and r in lo with b^2-rb, b^3-rb^2 in lo."""
    return _pair_fact(S, "closed", lo, hi)[2]


def spectrum_map(S: fr.FiniteRing, lo, hi) -> list[tuple[frozenset, frozenset]]:
    """(Q, Q cap lo) for Q in Max(hi); contractions are maximal."""
    maxR = fr.maximal_ideals(S, lo)
    out = []
    for Q in fr.maximal_ideals(S, hi):
        P = Q & lo
        if P not in maxR:
            raise TheoremViolation("contraction of a maximal ideal is not maximal")
        out.append((Q, P))
    return out


def is_infra_integral_pair(S: fr.FiniteRing, lo, hi) -> bool:
    """All residual extensions are isomorphisms (finite fields: equal size)."""
    return _pair_fact(S, "spectral", lo, hi)[0]


def is_subintegral_pair(S: fr.FiniteRing, lo, hi) -> bool:
    """Infra-integral with bijective spectrum map."""
    return _pair_fact(S, "spectral", lo, hi)[1]


def is_i_extension_pair(S: fr.FiniteRing, lo, hi) -> bool:
    contractions = [P for _, P in spectrum_map(S, lo, hi)]
    return len(set(contractions)) == len(contractions)


def is_simple(E: Extension) -> bool:
    S = E.ambient
    return any(S.adjoin(E.base, s) == E.top
               for s in coset_leaders(S, E.base, E.top))


def is_locally_minimal(E: Extension) -> bool:
    for M in E.profile().msupp:
        loc = E.localized(M)
        if not is_minimal_pair(loc.ambient, loc.base, loc.top):
            return False
    return True


def is_arithmetic(E: Extension) -> bool:
    """Chained after localization at every support prime."""
    for M in E.profile().msupp:
        loc = E.localized(M)
        if not loc.lattice().is_chain():
            return False
    return True


def is_delta(E: Extension) -> bool:
    """The node set is closed under addition.  T + U is an additive group
    of |T||U|/|T & U| elements inside T v U, and a subring holding T + U
    holds T v U, so T + U is a subring iff |T||U| = |T & U||T v U|.  The
    table meet is the intersection (checked by the lattice constructor)
    and the table join the generated subring, so this is one test over
    the tables, in blocks of rows of about 2^18 pairs."""
    L = E.lattice()
    size = np.array([len(T) for T in L.nodes], dtype=np.int64)
    return not any((size[blk, None] * size != size[L.meet[blk]] * size[L.join[blk]]).any()
                   for blk in fr.row_blocks(L.n, L.n))


def extension_flags(E: Extension) -> ExtensionFlags:
    """All predicate flags; the trivial extension gets a dedicated verdict
    (every flag None) because the underlying statements quantify over
    proper extensions.  The closure and spectral flags come from the
    grouped fill that the canonical decomposition reads as well."""
    if E.trivial:
        return ExtensionFlags(trivial=True)
    S = E.ambient
    fill_decomposition_facts(S, E.base, [(E.top, E.lattice().nodes)])
    base_local = len(E.max_ideals_base()) == 1
    return ExtensionFlags(
        trivial=False,
        subintegral=is_subintegral_pair(S, E.base, E.top),
        seminormal=is_seminormal(S, E.base, E.top),
        infra_integral=is_infra_integral_pair(S, E.base, E.top),
        t_closed=is_t_closed(S, E.base, E.top),
        u_closed=is_u_closed(S, E.base, E.top),
        i_extension=is_i_extension_pair(S, E.base, E.top),
        simple=is_simple(E),
        chained=E.lattice().is_chain(),
        branched=bool(base_local and len(E.max_ideals_top()) > 1),
        arithmetic=is_arithmetic(E),
        locally_minimal=is_locally_minimal(E),
        delta=is_delta(E),
    )


# ----------------------------------------------------------------------
# canonical decomposition and splitters

def _extremes(L, keeps, greatest):
    """For each boolean mask row of ``keeps``, the nodes of the mask with no
    other kept node strictly above them (``greatest``) or below them,
    ascending: the order is reflexive, so such a node has exactly one kept
    node at or above (below) it, itself.  The counts for all rows are one
    float32 product per block of about 2^18 order entries."""
    order = L.leq if greatest else L.leq.T
    weights = keeps.T.astype(np.float32)
    ends = np.empty(keeps.shape, dtype=bool)
    for blk in fr.row_blocks(L.n, L.n):
        ends[:, blk] = (order[blk].astype(np.float32) @ weights == 1).T
    ends &= keeps
    out = [[] for _ in range(len(keeps))]
    for row, node in zip(*(ix.tolist() for ix in np.nonzero(ends))):
        out[row].append(node)
    return out


def uniqueness_violation(what, found, greatest):
    """The TheoremViolation of an extremum that is not unique: ``found``
    maximal (``greatest``) or minimal nodes."""
    which = ("greatest", "maximal") if greatest else ("least", "minimal")
    return TheoremViolation(f"{what}: expected a unique {which[0]} element, "
                            f"found {found} {which[1]} ones")


def _unique(L, ends, what, greatest):
    if len(ends) != 1:
        raise uniqueness_violation(what, len(ends), greatest)
    return L.nodes[ends[0]]


def canonical_decomposition(E: Extension) -> CanonicalDecomposition:
    """Seminormalization, t-closure, u-closure and (when it exists) the
    co-subintegral closure, computed by filtering the enumerated interval
    with the definitional predicates and taking the asserted-unique
    extremum.  Both definitional characterizations of the seminormalization
    and the t-closure are computed and must agree; the product identity
    u * plus = t is verified."""
    S = E.ambient
    L = E.lattice()
    nodes = L.nodes
    n = len(nodes)
    facts = pair_facts(S, [("spectral", E.base, T) for T in nodes]
                       + [(kind, T, E.top) for kind in ("spectral", "closed") for T in nodes])
    infra_over, sub_over = zip(*facts[:n])
    _, sub_under = zip(*facts[n:2 * n])
    seminormal, u_closed, t_closed = zip(*facts[2 * n:])
    over = np.array([sub_over, infra_over])
    under = np.array([seminormal, t_closed, u_closed, sub_under])
    greatest, least = _extremes(L, over, True), _extremes(L, under, False)

    plus = _unique(L, greatest[0], "seminormalization (greatest subintegral)", True)
    plus2 = _unique(L, least[0], "seminormalization (least seminormal)", False)
    if plus != plus2:
        raise TheoremViolation("the two characterizations of the "
                               "seminormalization disagree")

    t = _unique(L, greatest[1], "t-closure (greatest infra-integral)", True)
    t2 = _unique(L, least[1], "t-closure (least t-closed)", False)
    if t != t2:
        raise TheoremViolation("the two characterizations of the t-closure disagree")

    u = _unique(L, least[2], "u-closure (least u-closed)", False)

    minima = least[3]
    cosub = nodes[minima[0]] if len(minima) == 1 else None

    prod = nodes[L.join[L.index[u], L.index[plus]]]
    if prod != t:
        raise TheoremViolation("u-closure times seminormalization is not the t-closure")
    if over[1, -1] and cosub != u:
        raise TheoremViolation("infra-integral extension: u-closure differs from "
                               "the co-subintegral closure")
    return CanonicalDecomposition(plus=plus, t=t, u=u, cosub=cosub)


def is_pinched_at(E: Extension, chain) -> bool:
    """True iff every intermediate ring is comparable to every member of
    ``chain`` (subring element sets strictly between base and top)."""
    L = E.lattice()
    ids = []
    for T in chain:
        T = frozenset(T)
        if T not in L.index:
            raise fr.RingError("chain member is not an intermediate ring")
        ids.append(L.index[T])
    return L.is_pinched_at(ids)


def complements(E: Extension, T) -> list[frozenset]:
    """All V with T intersect V = base and T join V = top."""
    L = E.lattice()
    T = frozenset(T)
    if T not in L.index:
        raise fr.RingError("T is not an intermediate ring")
    return [L.nodes[v] for v in L.complements(L.index[T])]


def splitter(E: Extension, X) -> frozenset:
    """The unique T with MSupp(T/base) = X and MSupp(top/T) = msupp - X.
    Existence for integral extensions is guaranteed; absence raises."""
    X = sorted((frozenset(m) for m in X), key=sorted)
    msupp = E.profile().msupp
    if any(m not in msupp for m in X):
        raise fr.RingError("X is not a subset of the support")
    rest = sorted((m for m in msupp if m not in X), key=sorted)
    L = E.lattice()
    hits = [T for T in L.nodes
            if msupp_of_pair(E, E.base, T) == X
            and msupp_of_pair(E, T, E.top) == rest]
    if len(hits) != 1:
        raise TheoremViolation(
            f"splitter at {len(X)} support ideals: expected exactly one, "
            f"found {len(hits)}")
    return hits[0]
