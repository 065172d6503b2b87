"""Finite-lattice analytics for intervals of intermediate rings.

An :class:`ExtensionLattice` stores the complete node set of an interval
[R,S] of subrings, the order matrix, the Hasse diagram and full meet/join
tables.  The distributivity verdict is computed by three independent
routes that must agree (triple law scan, forbidden-sublattice witness
search, covering-pair interval criterion); disagreement raises, it is
never papered over.  The tables never change after construction, so the
verdicts, levels, pinch points and sub-intervals are computed once per
lattice, each a key of its one memo (``_cache``, a
:class:`~ringlattice.finring.Memo`).
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _up_down_words(leq):
    """Bit rows (little-endian uint64) of the nodes above each node and,
    reversed, of the nodes below it: shape (2, n, words)."""
    n = len(leq)
    bits = np.zeros((2, n, -(-n // 64) * 64), dtype=bool)
    bits[0, :, :n], bits[1, :, :n] = leq, leq.T[:, ::-1]
    return np.packbits(bits, axis=-1, bitorder="little").view("<u8")


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
    checked lattice is not built here but sliced out of its tables
    (:meth:`interval`).
    """

    def __init__(self, nodes, joins=None, ambient=None):
        self.ambient = ambient
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
        words = _up_down_words(leq)
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
        self._cache = Memo()

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

    def interval(self, a, b):
        """The sublattice [a, b], built once per (a, b); [bottom, top] is
        this lattice itself, with its memos.  An interval is convex and
        closed under meet and join, and its nodes keep their sort order,
        so its order, covers and tables are this lattice's restricted to
        its nodes and renumbered; an entry that falls outside the
        selection raises."""
        a, b = int(a), int(b)
        if (a, b) == (0, self.n - 1):
            return self

        def cut():
            if not self.leq[a, b]:
                raise LatticeError("interval endpoints are not comparable")
            sel = np.flatnonzero(self.leq[a] & self.leq[:, b])
            sub = self._restricted(sel)
            # a longest path from a to a node of [a, b] stays inside [a, b]
            if ("levels_from", a) in self._cache:
                sub._cache[("levels_from", 0)] = self._cache[("levels_from", a)][sel]
            return sub
        return self._cache.fetch(("interval", a, b), cut)

    def _restricted(self, sel):
        """The sublattice on the ascending node indices ``sel``."""
        pos = np.full(self.n, -1, dtype=np.int32)
        pos[sel] = np.arange(sel.size, dtype=np.int32)
        block = sel[:, None], sel
        meet, join = pos[self.meet[block]], pos[self.join[block]]
        if (meet < 0).any() or (join < 0).any():
            raise LatticeError("interval is not closed under meet and join")
        sub = object.__new__(ExtensionLattice)
        sub.ambient = self.ambient
        sub.nodes = [self.nodes[v] for v in sel.tolist()]
        sub.index = {s: i for i, s in enumerate(sub.nodes)}
        sub.n = len(sub.nodes)
        sub.leq, sub.covers = self.leq[block], self.covers[block]
        sub.meet, sub.join = meet, join
        sub._cache = Memo()
        return sub

    # ------------------------------------------------------------------
    # catenarity and length

    def check_catenarian(self):
        """True iff all maximal chains between any two comparable nodes have
        equal length, that is iff the levels from the bottom rise by 1 along
        every cover (they are then a rank function, and every maximal chain
        of [a, b] has lev[b] - lev[a] steps).  Witness: the first cover in
        node order that skips a level, with the interval from the bottom."""
        lev = self.levels_from(0)
        hit = _first_true(self.covers & (lev[None, :] != lev[:, None] + 1))
        if hit is None:
            return True, None
        u, v = hit
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
    # distributivity: three independent routes

    def distributive_law_scan(self):
        """Full triple scan of x ^ (y v z) = (x ^ y) v (x ^ z); returns the
        first failing triple in (x, y, z) order, or None.  This is the
        ground-truth route.  Blocks of rows of about 2^18 triples bound the
        memory, and the scan stops at the first block that fails."""
        n, meet, join = self.n, self.meet, self.join
        for blk in row_blocks(n, n * n):
            lhs = meet[blk][:, join]
            rhs = join[meet[blk][:, :, None], meet[blk][:, None, :]]
            hit = _first_true(lhs != rhs)
            if hit is not None:
                x, y, z = hit
                return x + blk.start, y, z
        return None

    @memoised
    def modular_law_scan(self):
        """First failing triple (x, y, z) in (x, y, z) order with x <= z but
        x v (y ^ z) != (x v y) ^ z, or None, in blocks of rows as in the
        distributive scan.  Computed once: the forbidden sublattice route
        and the modularity verdict both read it."""
        n, meet, join, leq = self.n, self.meet, self.join, self.leq
        cols = np.arange(n)
        for blk in row_blocks(n, n * n):
            lhs = join[blk][:, meet]
            rhs = meet[join[blk][:, :, None], cols]
            hit = _first_true((lhs != rhs) & leq[blk][:, None, :])
            if hit is not None:
                x, y, z = hit
                return x + blk.start, y, z
        return None

    def _is_m3(self, o, a, b, c, i):
        mids = (a, b, c)
        if len({o, a, b, c, i}) != 5:
            return False
        for u, v in itertools.combinations(mids, 2):
            if self.meet[u, v] != o or self.join[u, v] != i:
                return False
        return all(self.leq[o, m] and self.leq[m, i] for m in mids)

    def _is_n5(self, o, a, b, c, i):
        if len({o, a, b, c, i}) != 5:
            return False
        if not (self.leq[o, a] and self.leq[a, b] and self.leq[b, i]):
            return False
        if self.leq[a, c] or self.leq[c, a] or self.leq[b, c] or self.leq[c, b]:
            return False
        return (self.meet[a, c] == o and self.meet[b, c] == o
                and self.join[a, c] == i and self.join[b, c] == i)

    def forbidden_sublattice(self):
        """An M3 or N5 sublattice certificate, or None.

        Constructed from a failing law triple (the classical recipes), so it
        exists iff the law scan fails; for very small lattices an exhaustive
        5-subset sweep is run as well and must agree.
        """
        return self._forbidden(self.distributive_law_scan())

    def _forbidden(self, tri):
        """forbidden_sublattice given ``tri``, the distributive law scan's
        result."""
        witness = self._forbidden_constructive(tri)
        if self.n <= _FIVE_SUBSET_CAP:
            swept = self._forbidden_exhaustive()
            if (witness is None) != (swept is None):
                raise LatticeError("forbidden-sublattice routes disagree")
        return witness

    def _forbidden_constructive(self, tri):
        meet, join = self.meet, self.join
        mod = self.modular_law_scan()
        if mod is not None:
            x, y, z = mod
            o = int(meet[y, z])
            a = int(join[x, meet[y, z]])
            b = int(meet[join[x, y], z])
            i = int(join[x, y])
            if not self._is_n5(o, a, b, y, i):
                raise LatticeError("pentagon construction failed on a modular-law violation")
            return {"kind": "N5", "nodes": [o, a, b, int(y), i]}
        if tri is None:
            return None
        x, y, z = tri
        o = join[join[meet[x, y], meet[y, z]], meet[z, x]]
        i = meet[meet[join[x, y], join[y, z]], join[z, x]]
        a = join[meet[x, i], o]
        b = join[meet[y, i], o]
        c = join[meet[z, i], o]
        if not self._is_m3(int(o), int(a), int(b), int(c), int(i)):
            raise LatticeError("diamond construction failed on a distributive-law violation")
        return {"kind": "M3", "nodes": [int(o), int(a), int(b), int(c), int(i)]}

    def _forbidden_exhaustive(self):
        """The first M3 or N5 sublattice by a sweep over every 5-subset, as
        the first (subset in combinations order, permutation) that fits,
        M3 before N5; independent of the law scans.  Nodes are sorted by
        size, so x <= y only for x before y, and a 5-subset closed under
        meet and join has its least member o first and its greatest i
        last.  A permutation that fits puts o first and i last, so one
        fits iff at most one pair of the three middle members is
        comparable: none is the M3 (o, p, q, r, i) in node order, one,
        a <= b, is the N5 (o, a, b, c, i).  The closure and middle tests
        run over blocks of 5-subsets at once (n <= 16, the sweep cap); the
        shape found is checked again node by node."""
        meet, join, leq = self.meet.ravel(), self.join.ravel(), self.leq.ravel()
        subsets, pairs, middle, member_bits = _five_subsets(self.n)
        for lo in range(0, len(subsets), 1024):
            blk = slice(lo, lo + 1024)
            bits = member_bits[blk, None]
            closed = ((bits >> meet[pairs[blk]]) & (bits >> join[pairs[blk]]) & 1).all(axis=1)
            hit = _first_true(closed & (leq[middle[blk]].sum(axis=1) <= 1))
            if hit is not None:
                break
        else:
            return None
        o, p, q, r, i = subsets[lo + hit[0]].tolist()
        leq = self.leq
        if leq[p, q]:
            nodes = [o, p, q, r, i]
        elif leq[p, r]:
            nodes = [o, p, r, q, i]
        elif leq[q, r]:
            nodes = [o, q, r, p, i]
        else:
            nodes = [o, p, q, r, i]
            if not self._is_m3(*nodes):
                raise LatticeError("exhaustive sweep: closed 5-subset is not an M3")
            return {"kind": "M3", "nodes": nodes}
        if not self._is_n5(*nodes):
            raise LatticeError("exhaustive sweep: closed 5-subset is not an N5")
        return {"kind": "N5", "nodes": nodes}

    def covering_pair_criterion(self):
        """Covering-pair route: for T != U, if T^U is covered by both, or
        both cover to TvU, then |[T^U, TvU]| must be 4.  Returns
        (ok, witness), the witness at the first failing pair t < u.  The
        interval sizes are counted for the flagged pairs only, in C order
        and in blocks of about 2^16 entries, up to the first block with a
        failing pair."""
        meet, join, covers, leq = self.meet, self.join, self.covers, self.leq
        # below[t, u]: t covers t^u; above[t, u]: tvu covers t (both tables
        # are symmetric)
        rows = np.arange(self.n)[:, None]
        below, above = covers[meet, rows], covers[rows, join]
        t, u = np.nonzero((below & below.T) | (above & above.T))
        upper = t < u
        t, u = t[upper], u[upper]
        for blk in row_blocks(t.size, 4 * self.n):   # 2^16 / n pairs each
            m, j = meet[t[blk], u[blk]], join[t[blk], u[blk]]
            sizes = (leq[m] & leq[:, j].T).sum(axis=1)
            k = int(np.argmax(sizes != 4))
            if sizes[k] != 4:
                return False, {"pair": [int(t[blk][k]), int(u[blk][k])],
                               "interval": [int(m[k]), int(j[k])],
                               "size": int(sizes[k])}
        return True, None

    @memoised
    def check_distributive(self):
        """Distributivity by three independent routes; they must agree.
        Computed once: the tables never change after construction."""
        tri = self.distributive_law_scan()
        law_ok = tri is None
        witness = self._forbidden(tri)
        crit_ok, crit_wit = self.covering_pair_criterion()
        if law_ok != (witness is None) or law_ok != crit_ok:
            raise LatticeError(
                f"distributivity routes disagree: law={law_ok} "
                f"sublattice={'none' if witness is None else witness['kind']} "
                f"criterion={crit_ok}")
        if law_ok:
            return True, None
        witness = dict(witness)
        witness["law_triple"] = list(tri)
        if not crit_ok:
            witness["covering_pair"] = crit_wit
        return False, witness

    def check_modular(self):
        tri = self.modular_law_scan()
        if tri is None:
            return True, None
        return False, {"law_triple": list(tri)}

    # ------------------------------------------------------------------
    # Boolean / complements / Loewy / pinched

    def complements(self, t):
        """All v with t ^ v = bottom and t v v = top."""
        return np.flatnonzero((self.meet[t] == 0)
                              & (self.join[t] == self.n - 1)).tolist()

    def check_boolean(self):
        dist, _ = self.check_distributive()
        boolean = bool(dist) and bool(
            ((self.meet == 0) & (self.join == self.n - 1)).any(axis=1).all())
        is_b2 = self.n == 4 and self.length == 2
        if is_b2 and not boolean:
            raise LatticeError("4-node length-2 lattice must be Boolean")
        return boolean, is_b2

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
        """All order verdicts, computed once (like check_distributive)."""
        dist, wit = self.check_distributive()
        modular, mwit = self.check_modular()
        boolean, is_b2 = self.check_boolean()
        cat, cwit = self.check_catenarian()
        chained = self.is_chain()
        if dist and not modular:
            raise LatticeError("distributive lattice reported non-modular")
        if dist and not cat:
            raise LatticeError("distributive lattice reported non-catenarian")
        if chained and not dist:
            raise LatticeError("chain reported non-distributive")
        witness = wit if not dist else (cwit if not cat else None)
        if witness is None and not modular:
            witness = mwit
        return LatticeVerdict(
            distributive=bool(dist), modular=bool(modular),
            boolean_lattice=bool(boolean), catenarian=bool(cat),
            chained=bool(chained), length=self.length, is_b2=bool(is_b2),
            witness=witness)
