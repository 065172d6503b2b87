"""Finite-lattice analytics for intervals of intermediate rings.

An :class:`ExtensionLattice` stores the complete node set of an interval
[R,S] of subrings, the order matrix, the Hasse diagram and full meet/join
tables.  The distributivity verdict is computed by three independent
routes that must agree (triple law scan, forbidden-sublattice witness
search, covering-pair interval criterion); disagreement raises, it is
never papered over.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools

import numpy as np

SUBINTERVAL_SAMPLE_SEED = 0xD15717B
# Exhaustive 5-subset forbidden-sublattice sweep only below this node count;
# the constructive witness from a failing triple is used at every size and
# the law scan is always the ground truth.
_FIVE_SUBSET_CAP = 16


def _bitset(indices):
    """The int with bit x set for every x in ``indices``."""
    b = 0
    for x in indices:
        b |= 1 << x
    return b


def _bit_rows(masks, n):
    """The n x n bool matrix whose row i holds the bits of masks[i]."""
    width = (n + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks),
                        dtype=np.uint8).reshape(n, width)
    return np.unpackbits(raw, axis=1, count=n, bitorder="little").astype(bool)


def _first_true(bad):
    """The index tuple of the first True entry of ``bad`` in C order (what
    ``np.argwhere(bad)[0]`` gives, without listing every True), or None."""
    k = int(bad.argmax(axis=None))
    if not bad.flat[k]:
        return None
    return tuple(int(i) for i in np.unravel_index(k, bad.shape))


def _tables(bits, up, down):
    """meet/join tables (lists of rows) from the upper and lower sets.
    Nodes are sorted by size, so the lowest common upper bound is the least
    one if any is, and the highest common lower bound is the intersection
    if that is a node; both are checked."""
    n = len(bits)
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        ui, di, bi = up[i], down[i], bits[i]
        for j in range(i, n):
            if ui >> j & 1:
                m, v = i, j
            else:
                above = ui & up[j]
                v = (above & -above).bit_length() - 1
                if up[v] != above:
                    raise LatticeError("nodes have no least common upper bound")
                m = (di & down[j]).bit_length() - 1
                if bits[m] != bi & bits[j]:
                    raise LatticeError("intersection of nodes escapes the node set")
            meet[i][j] = meet[j][i] = m
            join[i][j] = join[j][i] = v
    return meet, join


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

    The tables are read off the inclusion order alone.  Each node is held
    once as an int bitset of its elements and gets an upper-set and a
    lower-set mask of node indices.  Nodes are sorted by size, so the join
    of i and j is the lowest node above both and the meet the highest node
    below both.  The constructor raises :class:`LatticeError` unless the
    join is the least common upper bound and the meet is the intersection
    of the two nodes, so the meet is also the greatest common lower bound.
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
        bits = [_bitset(s) for s in self.nodes]
        # up[i] / down[i]: the nodes above / below node i, as index bitsets;
        # a node lies only inside itself and larger nodes, which sort later
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
        self.leq = _bit_rows(up, n)
        lt = self.leq & ~np.eye(n, dtype=bool)
        self.covers = lt & ~(lt @ lt)
        meet, join = _tables(bits, up, down)
        if joins is not None:
            self._check_join_facts(joins, join, up, down)
        self.meet = np.array(meet, dtype=np.int32).reshape(n, n)
        self.join = np.array(join, dtype=np.int32).reshape(n, n)
        self._clear_memos()

    def _clear_memos(self):
        self._levels = {}
        self._intervals = {}
        self._distributive = None
        self._verdict = None

    def _check_join_facts(self, joins, join, up, down):
        """Every fact equals the table join, and the facts cover every
        incomparable (node, join-irreducible node) pair."""
        index, nodes = self.index, self.nodes
        for (a, b), v in joins.items():
            i, j, k = index.get(a), index.get(b), index.get(v)
            if k is None or i is None or j is None or join[i][j] != k:
                raise LatticeError("join of nodes escapes the node set")
        for j in range(1, self.n):
            # j is join-irreducible iff the largest node below it lies above
            # every node below it
            below = down[j] ^ (1 << j)
            if down[below.bit_length() - 1] != below:
                continue
            comparable = up[j] | down[j]
            for i in range(self.n):
                if not comparable >> i & 1 and (nodes[i], nodes[j]) not in joins \
                        and (nodes[j], nodes[i]) not in joins:
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
        return bool((self.leq | self.leq.T).all())

    def levels_from(self, a):
        """Longest-path level of every node above ``a`` (-1 below/incomparable).
        Within any interval [a,b] these are the longest-chain lengths from a."""
        if a in self._levels:
            return self._levels[a]
        lev = np.full(self.n, -1, dtype=np.int32)
        lev[a] = 0
        # nodes sort by size, so index order is a topological order
        for v in np.flatnonzero(self.leq[a]).tolist():
            if v == a:
                continue
            preds = np.flatnonzero(self.covers[:, v] & (self.leq[a] != 0))
            best = max((int(lev[u]) for u in preds if lev[u] >= 0), default=-1)
            if best >= 0:
                lev[v] = best + 1
        self._levels[a] = lev
        return lev

    @property
    def length(self):
        return int(self.levels_from(0)[self.n - 1])

    def interval_size(self, a, b):
        return int(np.count_nonzero(self.leq[a] & self.leq[:, b]))

    def interval_nodes(self, a, b):
        return [int(v) for v in np.flatnonzero(self.leq[a] & self.leq[:, b])]

    def interval(self, a, b):
        """The sublattice [a, b], built once per (a, b).  An interval is
        convex and closed under meet and join, and its nodes keep their
        sort order, so its order, covers and tables are this lattice's
        restricted to its nodes and renumbered; an entry that falls
        outside the selection raises."""
        key = (int(a), int(b))
        sub = self._intervals.get(key)
        if sub is None:
            if not self.leq[key]:
                raise LatticeError("interval endpoints are not comparable")
            sub = self._intervals[key] = self._restricted(
                np.flatnonzero(self.leq[a] & self.leq[:, b]))
        return sub

    def _restricted(self, sel):
        """The sublattice on the ascending node indices ``sel``."""
        pos = np.full(self.n, -1, dtype=np.int32)
        pos[sel] = np.arange(sel.size, dtype=np.int32)
        block = np.ix_(sel, sel)
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
        sub._clear_memos()
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
        chunk = max(1, (1 << 18) // max(1, n * n))
        for lo in range(0, n, chunk):
            blk = slice(lo, min(n, lo + chunk))
            lhs = meet[blk][:, join]
            rhs = join[meet[blk][:, :, None], meet[blk][:, None, :]]
            hit = _first_true(lhs != rhs)
            if hit is not None:
                x, y, z = hit
                return x + lo, y, z
        return None

    def modular_law_scan(self):
        """First failing triple (x, y, z) in (x, y, z) order with x <= z but
        x v (y ^ z) != (x v y) ^ z, or None; blocks of rows as in the
        distributive scan."""
        n, meet, join, leq = self.n, self.meet, self.join, self.leq
        chunk = max(1, (1 << 18) // max(1, n * n))
        cols = np.arange(n)
        for lo in range(0, n, chunk):
            blk = slice(lo, min(n, lo + chunk))
            lhs = join[blk][:, meet]
            rhs = meet[join[blk][:, :, None], cols]
            hit = _first_true((lhs != rhs) & leq[blk][:, None, :])
            if hit is not None:
                x, y, z = hit
                return x + lo, y, z
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
        for sub in itertools.combinations(range(self.n), 5):
            closed = all(self.meet[u, v] in sub and self.join[u, v] in sub
                         for u, v in itertools.combinations(sub, 2))
            if not closed:
                continue
            for perm in itertools.permutations(sub):
                o, a, b, c, i = perm
                if self._is_m3(o, a, b, c, i):
                    return {"kind": "M3", "nodes": [o, a, b, c, i]}
                if self._is_n5(o, a, b, c, i):
                    return {"kind": "N5", "nodes": [o, a, b, c, i]}
        return None

    def covering_pair_criterion(self):
        """Covering-pair route: for T != U, if T^U is covered by both, or
        both cover to TvU, then |[T^U, TvU]| must be 4.  Returns
        (ok, witness), the witness at the first failing pair t < u."""
        meet, join, covers = self.meet, self.join, self.covers
        rows = np.arange(self.n)[:, None]
        cols = rows.T
        flagged = (covers[meet, rows] & covers[meet, cols]) | \
            (covers[rows, join] & covers[cols, join])
        # |[m, j]| for every pair of nodes, as a product of 0/1 matrices
        order = self.leq.astype(np.float32)
        sizes = (order @ order)[meet, join]
        hit = _first_true(np.triu(flagged, 1) & (sizes != 4))
        if hit is None:
            return True, None
        t, u = hit
        return False, {"pair": [t, u],
                       "interval": [int(meet[t, u]), int(join[t, u])],
                       "size": int(sizes[t, u])}

    def check_distributive(self):
        """Distributivity by three independent routes; they must agree.
        Computed once: the tables never change after construction."""
        if self._distributive is None:
            self._distributive = self._distributive_routes()
        return self._distributive

    def _distributive_routes(self):
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
        complemented = ((self.meet == 0) & (self.join == self.n - 1)).any(axis=1)
        boolean = bool(dist and complemented.all())
        is_b2 = self.length == 2 and self.n == 4
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

    def is_pinched_at(self, chain):
        """True iff every node is comparable to every member of ``chain``
        (a totally ordered subset of the open interval)."""
        for a, b in itertools.combinations(chain, 2):
            if not (self.leq[a, b] or self.leq[b, a]):
                raise LatticeError("pinch chain is not totally ordered")
        comp = self.leq | self.leq.T
        return all(comp[t].all() for t in chain)

    def check_length2_rule(self):
        """Every comparable pair at longest-chain distance 2 spans at most 4
        nodes.  Together with catenarity this must reproduce the
        distributivity verdict, which is asserted."""
        ok, wit = True, None
        for a in range(self.n):
            lev = self.levels_from(a)
            for b in np.flatnonzero(lev == 2).tolist():
                if self.interval_size(a, int(b)) > 4:
                    ok, wit = False, {"interval": [a, int(b)],
                                      "size": self.interval_size(a, int(b))}
                    break
            if not ok:
                break
        cat, _ = self.check_catenarian()
        dist, _ = self.check_distributive()
        if (cat and ok) != dist:
            raise LatticeError("length-2 rule plus catenarity disagrees with "
                               "the distributivity verdict")
        return ok, wit

    def verdict(self) -> LatticeVerdict:
        """All order verdicts, computed once (like check_distributive)."""
        if self._verdict is None:
            self._verdict = self._compute_verdict()
        return self._verdict

    def _compute_verdict(self) -> LatticeVerdict:
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
