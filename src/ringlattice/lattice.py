"""Finite-lattice analytics for intervals of intermediate rings.

An :class:`ExtensionLattice` stores the complete node set of an interval
[R,S] of subrings, the order matrix, the Hasse diagram and full meet/join
tables.  The distributivity verdict is computed by three independent
routes that must agree (triple law scan, forbidden-sublattice witness
search, covering-pair interval criterion); disagreement raises, it is
never papered over.  The routes run as array tests over stacks of
intervals (:func:`decide_intervals`), whose tables one routine,
:func:`_gather`, restricts from a lattice and renumbers; it also cuts the
sub-intervals (:meth:`ExtensionLattice.interval`).  The kernel runs one
way: every row carries every verdict, the complement test and the B2
guard included.  A lattice's own verdicts are one row of it, on itself as
a stack of one, and :meth:`ExtensionLattice.verdict` reads them off that
row.  The tables never change after construction, so that row, the
packed order rows, levels, pinch points and sub-intervals are computed
once per lattice, each a key of its one memo (``_cache``, a
:class:`~ringlattice.finring.Memo`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
import functools
import itertools

import numpy as np

from .finring import Memo, memoised, row_blocks

SUBINTERVAL_SAMPLE_SEED = 0xD15717B
# Exhaustive 5-subset forbidden-sublattice sweep only below this node count;
# the constructive witness from a failing triple is used at every size and
# the law scan is always the ground truth.
_FIVE_SUBSET_CAP = 16


def _first_true(bad):
    """The index tuple of the first True entry of ``bad`` in C order (what
    ``np.argwhere(bad)[0]`` gives, without listing every True), or None."""
    k = int(bad.argmax(axis=None))
    if not bad.flat[k]:
        return None
    return tuple(int(i) for i in np.unravel_index(k, bad.shape))


def _lowest_bits(words):
    """Index of the lowest set bit of each row of little-endian uint64
    words (the last axis); every row has a bit set."""
    rows = words.reshape(-1, words.shape[-1])
    k = (rows != 0).argmax(axis=1)
    w = rows[np.arange(k.size), k]
    return (64 * k + np.bitwise_count(w ^ (w - 1)) - 1).reshape(words.shape[:-1])


def _bit_rows(rows):
    """Each row of a bool matrix as little-endian uint64 words."""
    n, width = rows.shape
    out = np.zeros((n, -(-width // 64) * 8), dtype=np.uint8)
    out[:, :-(-width // 8)] = np.packbits(rows, axis=1, bitorder="little")
    return out.view("<u8")


@functools.lru_cache(maxsize=None)
def _five_subsets(n):
    """All 5-subsets of range(n), n <= 16, in itertools.combinations order:
    the member rows; the flat table index u*n + v (below 256) of each of
    their 10 member pairs and of the 3 pairs of their middle members; and
    their members as bits of an int32."""
    subs = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(n), 5)), dtype=np.uint8).reshape(-1, 5)
    u, v = (subs[:, list(k)] for k in zip(*itertools.combinations(range(5), 2)))
    _, p, q, r, _ = subs.T
    middle = np.stack([p * n + q, p * n + r, q * n + r], axis=1)
    bits = (np.int32(1) << subs.astype(np.int32)).sum(axis=1, dtype=np.int32)
    return subs, u * n + v, middle, bits


class LatticeError(Exception):
    """Internal lattice inconsistency (enumeration or analytics bug)."""


@dataclass
class LatticeVerdict:
    distributive: bool
    modular: bool
    boolean_lattice: bool
    catenarian: bool
    chained: bool
    length: int
    is_b2: bool
    witness: dict | None


class ExtensionLattice:
    """The lattice of an interval of subrings.

    nodes: frozensets of ambient element indices, sorted by (size, element
    tuple), so node 0 is the bottom and node n-1 the top.  ``leq`` is the
    full order matrix, ``covers`` the Hasse edges, ``meet``/``join`` the
    binary operation tables.

    The tables are read off the inclusion order alone, as whole arrays.
    With B the 0/1 membership matrix of the nodes, ``B @ B.T`` counts
    |i & j|, so i <= j iff |i & j| = |i|.  Nodes are sorted by size, so
    the join of i and j is the lowest node above both and the meet the
    highest node below both: lowest set bits of packed up-set and
    reversed down-set rows.  The constructor raises :class:`LatticeError`
    unless the join is the least common upper bound and the meet is the
    intersection, so the meet is also the greatest common lower bound.
    These guards, with the bottom/top check, are the only runtime check:
    idempotence, absorption, agreement with the order and associativity
    are theorems of a poset with all least upper and greatest lower
    bounds, so they hold by construction (the tests scan them on every
    lattice they build).

    joins: optional facts ``{(a, b): generated subring of a | b}`` from the
    caller.  Each must equal the table join, and they must cover every
    incomparable (node, join-irreducible node) pair.  Every node is a join
    of join-irreducible ones, so the facts then prove that the table join
    is the generated subring for every pair.  Without facts the join is
    the least upper bound in the node set only.  A sub-interval of a
    checked lattice is not built here but gathered from its tables by the
    interval kernel (:meth:`interval`).

    The order verdicts (:meth:`verdict`) are read off this lattice's one
    row of the interval kernel, which raises its first failed guard;
    :meth:`check_distributive` reads the same row.
    """

    def __init__(self, nodes, joins=None):
        self.nodes = sorted(nodes, key=lambda s: (len(s), sorted(s)))
        self.index = {s: i for i, s in enumerate(self.nodes)}
        n = self.n = len(self.nodes)
        elements = np.fromiter(itertools.chain.from_iterable(self.nodes),
                               dtype=np.intp)
        width = int(elements.max(initial=0)) + 1
        # float32 sums of 0/1 products are exact below 2**24; the ring size
        # cap (4096) and the node limit (100,000) keep width and n below it
        if max(width, n) >= 1 << 24:
            raise LatticeError("node set too large for exact float32 counts")
        member = np.zeros((n, width), dtype=np.float32)
        member[np.arange(n).repeat([len(s) for s in self.nodes]), elements] = 1
        common = member @ member.T                 # |i & j|
        size = common.diagonal()
        leq = self.leq = common == size[:, None]
        if not (leq[0] & leq[:, -1]).all():
            raise LatticeError("node set has no global bottom/top")
        order = leq.astype(np.float32)
        # j covers i iff [i, j] has two nodes; above[i, j] counts the nodes
        # above both i and j
        self.covers, above = order @ order == 2, order @ order.T
        del order                      # frees 4 n^2 bytes before the blocks
        self._cache = Memo()
        # the up-set rows, and the down-set rows reversed: the highest node
        # below both i and j is the lowest bit of their reversed rows' AND
        words = np.stack([self._order_rows()[0], _bit_rows(leq.T[:, ::-1])])
        meet = self.meet = np.empty((n, n), dtype=np.int32)
        join = self.join = np.empty((n, n), dtype=np.int32)
        # blocks of rows of the upper triangle, at most 2**16 words each
        for blk in row_blocks(n, words[0].nbytes):
            tri = slice(blk.start, None)
            low = _lowest_bits(words[:, blk, None] & words[:, None, tri])
            v, m = low[0], n - 1 - low[1]
            # the nodes above v lie above i and j, and m lies inside both,
            # so equal counts make v the least upper bound and m = i & j
            if (above.diagonal()[v] != above[blk, tri]).any():
                raise LatticeError("nodes have no least common upper bound")
            if (size[m] != common[blk, tri]).any():
                raise LatticeError("intersection of nodes escapes the node set")
            join[blk, tri], meet[blk, tri] = v, m
            join[tri, blk], meet[tri, blk] = v.T, m.T
        if joins is not None:
            self._check_join_facts(joins)

    def _check_join_facts(self, joins):
        """Every fact equals the table join, and the facts cover every
        incomparable (node, join-irreducible node) pair."""
        get = self.index.get
        facts = np.array([(get(a, -1), get(b, -1), get(v, -1))
                          for (a, b), v in joins.items()], dtype=np.intp)
        i, j, k = facts.reshape(-1, 3).T
        if (facts < 0).any() or (self.join[i, j] != k).any():
            raise LatticeError("join of nodes escapes the node set")
        free = ~(self.leq | self.leq.T)
        free[i, j] = free[j, i] = False
        # a node is join-irreducible iff it covers exactly one node
        if (free & (self.covers.sum(axis=0) == 1)).any():
            raise LatticeError("join facts miss a join-irreducible node")

    # ------------------------------------------------------------------
    # basics

    def __len__(self):
        return self.n

    @property
    def bottom(self):
        return 0

    @property
    def top(self):
        return self.n - 1

    def atoms(self):
        return [int(v) for v in np.flatnonzero(self.covers[0])]

    def is_chain(self):
        return bool(self.pinch_points().all())

    @memoised
    def levels_from(self, a):
        """Longest-path level of every node above ``a`` (-1 below/incomparable).
        Within any interval [a,b] these are the longest-chain lengths from a."""
        lev = np.full(self.n, -1, dtype=np.int32)
        # reach holds the ends of the cover paths of k steps from a; the
        # last k at which a node is reached is its longest-path level
        reach = np.zeros(self.n, dtype=bool)
        reach[a] = True
        k = 0
        while reach.any():
            lev[reach] = k
            reach = self.covers[reach].any(axis=0)
            k += 1
        return lev

    @property
    def length(self):
        return int(self.levels_from(0)[self.n - 1])

    def interval_size(self, a, b):
        return int(np.count_nonzero(self.leq[a] & self.leq[:, b]))

    def interval_nodes(self, a, b):
        return [int(v) for v in np.flatnonzero(self.leq[a] & self.leq[:, b])]

    @memoised
    def _order_rows(self):
        """Bit rows of the nodes above and of the nodes below each node:
        shape (2, n, words).  Computed once."""
        return np.stack([_bit_rows(self.leq), _bit_rows(self.leq.T)])

    def interval(self, a, b):
        """The sublattice [a, b], built once per (a, b); [bottom, top] is
        this lattice itself, with its memos.  Its nodes and tables are
        gathered from this lattice's by the interval kernel
        (:func:`_gather`); a table entry outside the interval raises."""
        a, b = int(a), int(b)
        if (a, b) == (0, self.n - 1):
            return self

        def cut():
            (_, _, sel, tables, unclosed), = _gather(self, np.array([a]), np.array([b]))
            if unclosed[0]:
                raise LatticeError(_ERRORS[_CLOSURE])
            sel = sel[0]
            sub = object.__new__(ExtensionLattice)
            sub.nodes = [self.nodes[v] for v in sel.tolist()]
            sub.index = {s: i for i, s in enumerate(sub.nodes)}
            sub.n = len(sub.nodes)
            sub.meet, sub.join, sub.leq, sub.covers = (t[0] for t in tables)
            sub._cache = Memo()
            # a longest path from a to a node of [a, b] stays inside [a, b]
            if ("levels_from", a) in self._cache:
                sub._cache[("levels_from", 0)] = self._cache[("levels_from", a)][sel]
            return sub
        return self._cache.fetch(("interval", a, b), cut)

    # ------------------------------------------------------------------
    # catenarity and length

    @memoised
    def level_skips(self):
        """Bool per cover u < v: the levels from the bottom do not rise by 1
        along it.  [0, j] is catenarian iff no such cover ends at a node
        <= j, since its levels from the bottom are this lattice's.
        Computed once."""
        lev = self.levels_from(0)
        return self.covers & (lev[None, :] != lev[:, None] + 1)

    def check_catenarian(self):
        """True iff all maximal chains between any two comparable nodes have
        equal length, that is iff the levels from the bottom rise by 1 along
        every cover (they are then a rank function, and every maximal chain
        of [a, b] has lev[b] - lev[a] steps).  Witness: the first cover in
        node order that skips a level, with the interval from the bottom."""
        hit = _first_true(self.level_skips())
        if hit is None:
            return True, None
        u, v = hit
        lev = self.levels_from(0)
        return False, {"interval": [0, v], "edge": [u, v],
                       "levels": [int(lev[u]), int(lev[v])]}

    def chain_label_sets(self, label):
        """{set of labels: one witness chain} over all maximal chains from
        the bottom to the top, where ``label(u, v)`` labels the cover u < v.

        One pass over the Hasse diagram in node order, which is topological
        because nodes sort by size.  Each node keeps the label sets that its
        paths from the bottom reach, each with a back-pointer to the
        (node, label set) it was first reached from; ``label`` runs once per
        cover.  Exact on every lattice, in time linear in the covers times
        the number of distinct label sets."""
        reach = [{} for _ in range(self.n)]
        reach[0][frozenset()] = None
        for u, v in np.argwhere(self.covers).tolist():
            lab = label(u, v)
            for state in reach[u]:
                reach[v].setdefault(state | {lab}, (u, state))
        out = {}
        for state, back in reach[self.top].items():
            chain = [self.top]
            while back is not None:
                v, s = back
                chain.append(v)
                back = reach[v][s]
            out[state] = chain[::-1]
        return out

    def maximal_chains(self, a, b, cap=100000):
        """All maximal chains from a to b (lists of node ids); the
        brute-force reference for :meth:`chain_label_sets`."""
        out = []
        stack = [[a]]
        while stack:
            chain = stack.pop()
            u = chain[-1]
            if u == b:
                out.append(chain)
                if len(out) > cap:
                    raise LatticeError("maximal chain enumeration cap exceeded")
                continue
            nxt = np.flatnonzero(self.covers[u] & self.leq[:, b])
            for v in nxt.tolist():
                stack.append(chain + [int(v)])
        return out

    # ------------------------------------------------------------------
    # distributivity: three independent routes, run by the interval kernel
    # on this lattice as a stack of one

    def _stack(self):
        return _Stack(self.meet[None], self.join[None], self.leq[None], self.covers[None])

    @memoised
    def _verdicts(self):
        """This lattice's row of the interval kernel: the law scans, the
        forbidden sublattice, the covering-pair criterion, the complement
        test and the first failed guard.  Computed once: the tables never
        change after construction."""
        return _decide(self._stack())

    def forbidden_sublattice(self):
        """An M3 or N5 sublattice certificate, or None: the one
        :meth:`check_distributive` constructs from a failing law triple (the
        classical recipes), so it exists iff the law scan fails; on at most
        16 nodes an exhaustive 5-subset sweep has agreed with it."""
        dist, witness = self.check_distributive()
        return None if dist else {"kind": witness["kind"], "nodes": witness["nodes"]}

    def check_distributive(self):
        """Distributivity by three independent routes; they must agree.
        Raises the first failed guard of this lattice's row."""
        found = self._verdicts()
        found.check(0)
        return bool(found.distributive[0]), found.witness(0)

    # ------------------------------------------------------------------
    # Boolean / complements / Loewy / pinched

    def complements(self, t):
        """All v with t ^ v = bottom and t v v = top."""
        return np.flatnonzero((self.meet[t] == 0)
                              & (self.join[t] == self.n - 1)).tolist()

    def loewy_series(self):
        """Iterated socles: S_0 = bottom, S_{i+1} = join of the atoms of
        [S_i, top]; strictly increasing, ends at the top node."""
        series = [0]
        while series[-1] != self.n - 1:
            cur = series[-1]
            socle = cur
            for v in np.flatnonzero(self.covers[cur]).tolist():
                socle = int(self.join[socle, v])
            if socle == cur:
                raise LatticeError("Loewy series stalled")
            series.append(socle)
        return series

    @memoised
    def pinch_points(self):
        """Bool per node: comparable with every node.  Computed once."""
        return (self.leq | self.leq.T).all(axis=1)

    def is_pinched_at(self, chain):
        """True iff every node is comparable to every member of ``chain``
        (a totally ordered subset of the open interval)."""
        for a, b in itertools.combinations(chain, 2):
            if not (self.leq[a, b] or self.leq[b, a]):
                raise LatticeError("pinch chain is not totally ordered")
        pinch = self.pinch_points()
        return all(pinch[t] for t in chain)

    def check_length2_rule(self):
        """Every comparable pair at longest-chain distance 2 spans at most 4
        nodes.  Together with catenarity this must reproduce the
        distributivity verdict, which is asserted."""
        ok, wit = True, None
        for a in range(self.n):
            # the sizes of [a, b] for all level-2 nodes b, in one gather
            ups = np.flatnonzero(self.levels_from(a) == 2)
            big = ups[(self.leq[a] & self.leq[:, ups].T).sum(axis=1) > 4]
            if big.size:
                b = int(big[0])
                ok, wit = False, {"interval": [a, b], "size": self.interval_size(a, b)}
                break
        cat, _ = self.check_catenarian()
        dist, _ = self.check_distributive()
        if (cat and ok) != dist:
            raise LatticeError("length-2 rule plus catenarity disagrees with "
                               "the distributivity verdict")
        return ok, wit

    @memoised
    def verdict(self) -> LatticeVerdict:
        """All order verdicts, computed once: read off this lattice's
        kernel row, whose first failed guard it raises, with catenarity and
        the chain test from the levels.  A distributive lattice is modular
        and catenarian, so the witness is check_distributive's or None."""
        found = self._verdicts()
        found.check(0)
        dist, modular = bool(found.distributive[0]), bool(found.mod[0, 0] < 0)
        cat, _ = self.check_catenarian()
        chained = self.is_chain()
        if dist and not modular:
            raise LatticeError("distributive lattice reported non-modular")
        if dist and not cat:
            raise LatticeError("distributive lattice reported non-catenarian")
        if chained and not dist:
            raise LatticeError("chain reported non-distributive")
        return LatticeVerdict(
            distributive=dist, modular=modular,
            boolean_lattice=bool(found.boolean[0]), catenarian=cat,
            chained=chained, length=self.length, is_b2=bool(found.is_b2[0]),
            witness=found.witness(0))


# ----------------------------------------------------------------------
# the interval kernel: the three distributivity routes over stacks of
# intervals

# the guards of the kernel, in the order they run; an interval reports the
# first one it fails
_CLOSURE, _PENTAGON, _DIAMOND, _SWEEP_M3, _SWEEP_N5, _SWEEP, _ROUTES, _BOOLEAN = range(1, 9)
_ERRORS = {
    _CLOSURE: "interval is not closed under meet and join",
    _PENTAGON: "pentagon construction failed on a modular-law violation",
    _DIAMOND: "diamond construction failed on a distributive-law violation",
    _SWEEP_M3: "exhaustive sweep: closed 5-subset is not an M3",
    _SWEEP_N5: "exhaustive sweep: closed 5-subset is not an N5",
    _SWEEP: "forbidden-sublattice routes disagree",
    _ROUTES: "distributivity routes disagree: law={} sublattice={} criterion={}",
    _BOOLEAN: "4-node length-2 lattice must be Boolean",
}
_KINDS = ("none", "M3", "N5")


def _sublattice(kind, nodes):
    return None if not kind else {"kind": _KINDS[kind], "nodes": nodes.tolist()}


def _fail(code, where, guard):
    """Record ``guard`` for the intervals of ``where`` that passed so far."""
    code[where & (code == 0)] = guard


def _distinct(*nodes):
    ranked = np.sort(np.stack(nodes), axis=0)
    return (ranked[1:] != ranked[:-1]).all(axis=0)


class _Stack:
    """K intervals of m nodes each, as local tables of shape (K, m, m) with
    the nodes in sort order (0 the bottom, m - 1 the top): the input of the
    distributivity routes, which run as array tests over the whole stack.
    A lattice is a stack of one."""

    def __init__(self, meet, join, leq, covers):
        self.meet, self.join, self.leq, self.covers = meet, join, leq, covers
        self.k, self.m = meet.shape[:2]

    def law_scan(self, modular):
        """The first failing triple (x, y, z) of each interval in (x, y, z)
        order, a row of -1 where none: of the distributive law
        x ^ (y v z) = (x ^ y) v (x ^ z), or with ``modular`` of the modular
        law x v (y ^ z) = (x v y) ^ z for x <= z.  Blocks of about 2^18
        triples bound the memory: whole intervals while one fits, else
        blocks of rows of one interval up to its first failing block."""
        m, cols = self.m, np.arange(self.m)
        out = np.full((self.k, 3), -1, dtype=np.intp)
        for kb in row_blocks(self.k, m ** 3):
            meet, join = self.meet[kb], self.join[kb]
            k = np.arange(len(meet))[:, None, None, None]
            for rows in row_blocks(m, m * m):
                x = cols[rows, None, None]
                if modular:
                    jx = join[:, rows, :, None]
                    bad = (join[k, x, meet[:, None]] != meet[k, jx, cols]) \
                        & self.leq[kb][:, rows, None, :]
                else:
                    mx = meet[:, rows]
                    bad = meet[k, x, join[:, None]] != join[k, mx[..., None], mx[:, :, None, :]]
                flat = bad.reshape(len(bad), -1)
                hit = np.flatnonzero(flat.any(axis=1))
                if hit.size:
                    at = np.unravel_index(flat[hit].argmax(axis=1), bad.shape[1:])
                    out[kb.start + hit] = np.stack(at, axis=1) + (rows.start, 0, 0)
                    if len(bad) == 1:
                        break
        return out

    def _is_m3(self, k, o, a, b, c, i):
        """Whether (o, a, b, c, i) of interval k is an M3: each pair of
        middle nodes meets in o and joins to i."""
        u, v, mids = np.array([a, a, b]), np.array([b, c, c]), np.array([a, b, c])
        return (_distinct(o, a, b, c, i) & (self.meet[k, u, v] == o).all(axis=0)
                & (self.join[k, u, v] == i).all(axis=0)
                & self.leq[k, o, mids].all(axis=0) & self.leq[k, mids, i].all(axis=0))

    def _is_n5(self, k, o, a, b, c, i):
        """Whether (o, a, b, c, i) of interval k is an N5: o < a < b < i
        and c apart from a and b, meeting them in o and joining them to i."""
        leq, ab = self.leq, np.array([a, b])
        return (_distinct(o, a, b, c, i)
                & leq[k, np.array([o, a, b]), np.array([a, b, i])].all(axis=0)
                & ~leq[k, np.array([a, c, b, c]), np.array([c, a, c, b])].any(axis=0)
                & (self.meet[k, ab, c] == o).all(axis=0) & (self.join[k, ab, c] == i).all(axis=0))

    def constructive(self, mod, law):
        """The forbidden sublattice of each interval built from its first
        failing law triples (the classical recipes): an N5 from the modular
        triple ``mod``, else an M3 from the distributive triple ``law``.
        Returns (kind, nodes, code): kind 2 for N5, 1 for M3, 0 for none,
        the nodes as (o, a, b, c, i), and the guard of a construction that
        fails its node-by-node test."""
        meet, join = self.meet, self.join
        kind = np.zeros(self.k, dtype=np.int8)
        nodes = np.full((self.k, 5), -1, dtype=np.intp)
        code = np.zeros(self.k, dtype=np.int8)
        has_mod, has_law = mod[:, 0] >= 0, law[:, 0] >= 0
        if not (has_mod | has_law).any():
            return kind, nodes, code
        k = np.flatnonzero(has_mod)
        if k.size:
            x, y, z = mod[k].T
            o, i = meet[k, y, z], join[k, x, y]
            a, b = join[k, x, o], meet[k, i, z]
            kind[k], nodes[k] = 2, np.stack([o, a, b, y, i], axis=1)
            code[k[~self._is_n5(k, o, a, b, y, i)]] = _PENTAGON
        k = np.flatnonzero(~has_mod & has_law)
        if k.size:
            x, y, z = law[k].T
            o = join[k, join[k, meet[k, x, y], meet[k, y, z]], meet[k, z, x]]
            i = meet[k, meet[k, join[k, x, y], join[k, y, z]], join[k, z, x]]
            a, b, c = (join[k, meet[k, t, i], o] for t in (x, y, z))
            kind[k], nodes[k] = 1, np.stack([o, a, b, c, i], axis=1)
            code[k[~self._is_m3(k, o, a, b, c, i)]] = _DIAMOND
        return kind, nodes, code

    def sweep(self):
        """The first M3 or N5 sublattice of each interval by a sweep over
        every 5-subset (at most 16 nodes), as the first (subset in
        combinations order, permutation) that fits, M3 before N5;
        independent of the law scans.  Nodes are sorted by size, so x <= y
        only for x before y, and a 5-subset closed under meet and join has
        its least member o first and its greatest i last.  A permutation
        that fits puts o first and i last, so one fits iff at most one pair
        of the three middle members is comparable: none is the M3
        (o, p, q, r, i) in node order, one, a <= b, is the N5
        (o, a, b, c, i).  The closure and middle tests run over blocks of
        intervals and of 5-subsets at once; the shape found is checked again
        node by node.  Returns (kind, nodes, code) as :meth:`constructive`."""
        kind = np.zeros(self.k, dtype=np.int8)
        nodes = np.full((self.k, 5), -1, dtype=np.intp)
        code = np.zeros(self.k, dtype=np.int8)
        if self.m < 5:
            return kind, nodes, code
        subsets, pairs, middle, member_bits = _five_subsets(self.m)
        meet, join, leq = (t.reshape(self.k, -1) for t in (self.meet, self.join, self.leq))
        first = np.full(self.k, -1, dtype=np.intp)
        for kb in row_blocks(self.k, 10 * min(len(subsets), 1024)):
            found = first[kb]
            for lo in range(0, len(subsets), 1024):
                blk = slice(lo, lo + 1024)
                bits = member_bits[blk, None]
                closed = ((bits >> meet[kb][:, pairs[blk]]) & (bits >> join[kb][:, pairs[blk]])
                          & 1).all(axis=2)
                hit = closed & (leq[kb][:, middle[blk]].sum(axis=2) <= 1)
                at = hit.argmax(axis=1)
                new = hit[np.arange(len(hit)), at] & (found < 0)
                found[new] = lo + at[new]
                if (found >= 0).all():
                    break
        k = np.flatnonzero(first >= 0)
        if k.size:
            o, p, q, r, i = subsets[first[k]].T.astype(np.intp)
            pq, pr, qr = self.leq[k, np.array([p, p, q]), np.array([q, r, r])]
            # the comparable middle pair, if any, is (a, b); c is the third
            a = np.where(qr & ~pq & ~pr, q, p)
            b = np.where(pq, q, np.where(pr | qr, r, q))
            c = np.where(pq, r, np.where(pr, q, np.where(qr, p, r)))
            n5 = pq | pr | qr
            kind[k], nodes[k] = np.where(n5, 2, 1), np.stack([o, a, b, c, i], axis=1)
            for shape, test, guard in ((n5, self._is_n5, _SWEEP_N5), (~n5, self._is_m3, _SWEEP_M3)):
                if shape.any():
                    at = k[shape]
                    code[at[~test(at, *(x[shape] for x in (o, a, b, c, i)))]] = guard
        return kind, nodes, code

    def criterion(self):
        """Covering-pair route: for t < u, if t ^ u is covered by both, or
        both are covered by t v u, then [t ^ u, t v u] must have 4 nodes.
        The first failing pair of each interval in C order, as
        (t, u, t ^ u, t v u, size), a row of -1 where none.  The interval
        sizes are counted for the flagged pairs only, in blocks of about
        2^16 entries, up to the block where every interval has failed."""
        m, covers = self.m, self.covers
        rows = np.arange(m)[:, None]
        k = np.arange(self.k)[:, None, None]
        # below[k, t, u]: t covers t^u; above[k, t, u]: tvu covers t (both
        # are symmetric in t, u)
        below, above = covers[k, self.meet, rows], covers[k, rows, self.join]
        swap = (0, 2, 1)
        flagged = (below & below.transpose(swap)) | (above & above.transpose(swap))
        k, t, u = np.nonzero(flagged & (rows < np.arange(m)))
        out = np.full((self.k, 5), -1, dtype=np.intp)
        cols = np.arange(m)
        for blk in row_blocks(t.size, 4 * m):          # 2^16 / m pairs each
            kk, tt, uu = k[blk], t[blk], u[blk]
            lo, hi = self.meet[kk, tt, uu], self.join[kk, tt, uu]
            inside = self.leq[kk[:, None], lo[:, None], cols] \
                & self.leq[kk[:, None], cols, hi[:, None]]
            size = inside.sum(axis=1)
            bad = np.flatnonzero(size != 4)
            if bad.size:
                # the first failing pair of each interval in this block
                first = bad[np.r_[True, kk[bad][1:] != kk[bad][:-1]]]
                first = first[out[kk[first], 0] < 0]
                out[kk[first]] = np.stack([tt[first], uu[first], lo[first], hi[first],
                                           size[first]], axis=1)
                if (out[:, 0] >= 0).all():
                    break
        return out

    def complemented(self):
        """Whether every node of each interval has a complement."""
        return ((self.meet == 0) & (self.join == self.m - 1)).any(axis=2).all(axis=1)

    def is_b2(self):
        """Whether each interval has 4 nodes and length 2: with 4 nodes it
        is a chain unless its two middle nodes are incomparable."""
        if self.m != 4:
            return np.zeros(self.k, dtype=bool)
        return ~self.leq[:, 1, 2]


@dataclass
class IntervalVerdicts:
    """The verdicts of a stack of intervals, one row per interval.

    ``distributive`` is the law scan's verdict, and ``law`` its first
    failing triple; ``mod`` the modular scan's first failing triple;
    ``kind`` and ``nodes`` the constructed forbidden sublattice (kind 1 for
    M3, 2 for N5, 0 for none); ``pair`` the criterion's first failing pair
    as (t, u, t ^ u, t v u, size); rows of -1 where a route found nothing;
    ``boolean`` distributive and complemented, and ``is_b2`` 4 nodes of
    length 2.  ``code`` holds the first guard each interval failed, 0 if
    none; :meth:`error` gives it as the :class:`LatticeError` the slice's
    own routes raise."""
    distributive: np.ndarray
    law: np.ndarray
    mod: np.ndarray
    kind: np.ndarray
    nodes: np.ndarray
    pair: np.ndarray
    code: np.ndarray
    boolean: np.ndarray
    is_b2: np.ndarray

    def error(self, k):
        """The LatticeError of interval k's failed guard, or None."""
        code = int(self.code[k])
        if code == _ROUTES:
            return LatticeError(_ERRORS[code].format(
                bool(self.distributive[k]), _KINDS[self.kind[k]], bool(self.pair[k, 0] < 0)))
        return LatticeError(_ERRORS[code]) if code else None

    def unclosed(self, k):
        """Whether interval k is not closed under meet and join."""
        return self.code[k] == _CLOSURE

    def check(self, k):
        """Raise interval k's failed guard, if any."""
        exc = self.error(k)
        if exc is not None:
            raise exc

    def witness(self, k):
        """check_distributive's witness for interval k: the forbidden
        sublattice, the law triple and the failing covering pair."""
        if self.distributive[k]:
            return None
        witness = _sublattice(self.kind[k], self.nodes[k])
        witness["law_triple"] = self.law[k].tolist()
        t, u, lo, hi, size = self.pair[k].tolist()
        if t >= 0:
            witness["covering_pair"] = {"pair": [t, u], "interval": [lo, hi], "size": size}
        return witness


def _decide(stack):
    """The three routes, the complement test and their guards on one
    stack; a B2 that is not Boolean fails the last guard."""
    law, mod = stack.law_scan(modular=False), stack.law_scan(modular=True)
    kind, nodes, code = stack.constructive(mod, law)
    if stack.m <= _FIVE_SUBSET_CAP:
        swept, _, swept_code = stack.sweep()
        code = np.where(code == 0, swept_code, code)
        _fail(code, (kind > 0) != (swept > 0), _SWEEP)
    pair = stack.criterion()
    law_ok = law[:, 0] < 0
    _fail(code, (law_ok != (kind == 0)) | (law_ok != (pair[:, 0] < 0)), _ROUTES)
    boolean, is_b2 = law_ok & stack.complemented(), stack.is_b2()
    _fail(code, is_b2 & ~boolean, _BOOLEAN)
    return IntervalVerdicts(law_ok, law, mod, kind, nodes, pair, code, boolean, is_b2)


def _gather(L, a, b):
    """The intervals [a_k, b_k] of L grouped by node count m, in blocks of
    intervals: for each group, (m, the positions k, the nodes of each
    interval, ascending, of shape (K, m), their local meet, join, leq and
    covers of shape (K, m, m), and which of them are not closed under meet
    and join).  This is the one place where L's tables are restricted to
    intervals and renumbered, for :meth:`ExtensionLattice.interval` and
    :func:`decide_intervals` alike: an entry's local index is its rank
    among its interval's nodes, and an entry outside its interval is read
    as the bottom, so the routes still run, and the interval's closure
    guard fails."""
    up, down = L._order_rows()
    for blk in row_blocks(a.size, up.shape[1]):
        # the nodes of each interval: the set bits of a's up-set row AND
        # b's down-set row, unpacked only in their nonzero words; a and b
        # are among them iff a <= b
        words = up[a[blk]] & down[b[blk]]
        k, w = np.nonzero(words)
        bits = np.unpackbits(words[k, w].view(np.uint8).reshape(-1, 8), axis=1,
                             bitorder="little")
        row, bit = np.nonzero(bits)
        members = 64 * w[row] + bit
        counts = np.bincount(k[row], minlength=len(words))
        del words, k, w, bits, row, bit    # frees the unpacking before the gathers
        low, high = counts.min(), counts.max()
        if not low:
            raise LatticeError("interval endpoints are not comparable")
        index = np.arange(blk.start, blk.start + counts.size)
        if low == high:
            groups = [(index, members.reshape(counts.size, -1))]
        else:
            starts = np.cumsum(counts) - counts
            order = np.argsort(counts, kind="stable")
            groups = [(index[at], members[starts[at, None] + np.arange(counts[at[0]])])
                      for at in np.split(order, np.flatnonzero(np.diff(counts[order])) + 1)]
        for ks, sel in groups:
            m = sel.shape[1]
            block = sel[:, :, None], sel[:, None, :]
            want = np.array([L.meet[block], L.join[block]])
            if len(sel) == 1:
                # one interval: its nodes' positions, no key search
                pos = np.full(L.n, -1, dtype=np.int32)
                pos[sel[0]] = np.arange(m)
                local = pos[want]
                inside = local >= 0
            else:
                # keys number the nodes of every interval apart, ascending:
                # interval k's node v is k n + v
                offset = np.arange(len(sel))[:, None] * L.n
                keys = (offset + sel).ravel()
                want += offset[:, :, None]
                at = np.searchsorted(keys, want)
                inside = keys[np.minimum(at, keys.size - 1)] == want
                local = at % m
            meet, join = np.where(inside, local, 0).astype(np.int32, copy=False)
            yield m, ks, sel, (meet, join, L.leq[block], L.covers[block]), \
                ~inside.all(axis=(0, 2, 3))


def decide_intervals(requests):
    """Decide the intervals [a_k, b_k] of each (lattice, a, b) of
    ``requests`` by the kernel that gives each lattice its own row
    (:meth:`ExtensionLattice.verdict`): the three distributivity routes,
    the complement test and their guards.

    The intervals of every request are grouped by node count, their local
    tables gathered from their lattice in one step, and each group, across
    requests, is one stack for the routes.  Returns one
    :class:`IntervalVerdicts` over all intervals in request order; each row
    equals what the interval's own slice gives, and a failed guard is
    recorded in its row, not raised."""
    parts, total = {}, 0
    for L, a, b in requests:
        a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
        if a.size:
            for m, ks, _, tables, open_ in _gather(L, a, b):
                parts.setdefault(m, []).append((total + ks, tables, open_))
        total += a.size
    found = []
    for group in parts.values():
        pos, tables, open_ = zip(*group)
        tables = [np.concatenate(t) for t in zip(*tables)]
        verdicts = _decide(_Stack(*tables))
        verdicts.code[np.concatenate(open_)] = _CLOSURE
        found.append((np.concatenate(pos), verdicts))
    out = {}
    for field in fields(IntervalVerdicts):
        first = getattr(found[0][1], field.name)
        out[field.name] = value = np.empty((total,) + first.shape[1:], dtype=first.dtype)
        for pos, v in found:
            value[pos] = getattr(v, field.name)
    return IntervalVerdicts(**out)
