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

# Exhaustive associativity scans of the meet/join tables up to this many
# nodes; sampled above (fixed seed, recorded in reports).
EXHAUSTIVE_LATTICE_CAP = 512
SUBINTERVAL_SAMPLE_SEED = 0xD15717B
# Exhaustive 5-subset forbidden-sublattice sweep only below this node count;
# the constructive witness from a failing triple is used at every size and
# the law scan is always the ground truth.
_FIVE_SUBSET_CAP = 16


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
    binary operation tables (meet = intersection, join = generated subring,
    both guaranteed to land in the node set).
    """

    def __init__(self, nodes, join_of, ambient=None, verify=True):
        self.ambient = ambient
        self.nodes = sorted(nodes, key=lambda s: (len(s), sorted(s)))
        self.index = {s: i for i, s in enumerate(self.nodes)}
        n = self.n = len(self.nodes)
        self.leq = np.zeros((n, n), dtype=bool)
        for i, a in enumerate(self.nodes):
            for j, b in enumerate(self.nodes):
                self.leq[i, j] = a <= b
        if not self.leq[0].all() or not self.leq[:, n - 1].all():
            raise LatticeError("node set has no global bottom/top")
        lt = self.leq & ~np.eye(n, dtype=bool)
        self.covers = lt & ~(lt @ lt)
        self.meet = np.empty((n, n), dtype=np.int32)
        self.join = np.empty((n, n), dtype=np.int32)
        for i, a in enumerate(self.nodes):
            for j in range(i, n):
                m = a & self.nodes[j]
                if m not in self.index:
                    raise LatticeError("intersection of nodes escapes the node set")
                self.meet[i, j] = self.meet[j, i] = self.index[m]
                if self.leq[i, j]:
                    jj = j
                elif self.leq[j, i]:
                    jj = i
                else:
                    v = join_of(a, self.nodes[j])
                    if v not in self.index:
                        raise LatticeError("join of nodes escapes the node set")
                    jj = self.index[v]
                self.join[i, j] = self.join[j, i] = jj
        self._levels = {}
        self._distributive = None
        self._verdict = None
        if verify:
            self.verify_axioms()

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

    def verify_axioms(self):
        """Lattice axioms on the tables: idempotence, absorption and
        consistency with the order everywhere; associativity exhaustively up
        to EXHAUSTIVE_LATTICE_CAP nodes, seeded-sampled above."""
        n, meet, join, leq = self.n, self.meet, self.join, self.leq
        rng_idx = np.arange(n)
        if not (meet[rng_idx, rng_idx] == rng_idx).all():
            raise LatticeError("meet not idempotent")
        if not (join[rng_idx, rng_idx] == rng_idx).all():
            raise LatticeError("join not idempotent")
        # absorption: x ^ (x v y) = x and x v (x ^ y) = x
        if not (meet[rng_idx[:, None], join] == rng_idx[:, None]).all():
            raise LatticeError("absorption fails for meet over join")
        if not (join[rng_idx[:, None], meet] == rng_idx[:, None]).all():
            raise LatticeError("absorption fails for join over meet")
        # order consistency: x <= y iff x ^ y = x iff x v y = y
        if not np.array_equal(leq, meet == rng_idx[:, None]):
            raise LatticeError("meet table inconsistent with order")
        if not np.array_equal(leq, join == rng_idx[None, :]):
            raise LatticeError("join table inconsistent with order")
        if n <= EXHAUSTIVE_LATTICE_CAP:
            chunk = max(1, (1 << 23) // max(1, n * n))
            for lo in range(0, n, chunk):
                blk = slice(lo, min(n, lo + chunk))
                if not np.array_equal(meet[meet[blk]], meet[blk][:, meet]):
                    raise LatticeError("meet not associative")
                if not np.array_equal(join[join[blk]], join[blk][:, join]):
                    raise LatticeError("join not associative")
        else:
            rng = np.random.default_rng(SUBINTERVAL_SAMPLE_SEED)
            xs, ys, zs = rng.integers(0, n, size=(3, 20000))
            if not np.array_equal(meet[meet[xs, ys], zs], meet[xs, meet[ys, zs]]):
                raise LatticeError("meet not associative (sampled)")
            if not np.array_equal(join[join[xs, ys], zs], join[xs, join[ys, zs]]):
                raise LatticeError("join not associative (sampled)")

    def atoms(self):
        return [int(v) for v in np.flatnonzero(self.covers[0])]

    def coatoms(self):
        return [int(v) for v in np.flatnonzero(self.covers[:, self.n - 1])]

    def is_chain(self):
        return bool((self.leq | self.leq.T).all())

    def levels_from(self, a):
        """Longest-path level of every node above ``a`` (-1 below/incomparable).
        Within any interval [a,b] these are the longest-chain lengths from a."""
        if a in self._levels:
            return self._levels[a]
        n = self.n
        lev = np.full(n, -1, dtype=np.int32)
        lev[a] = 0
        order = sorted(np.flatnonzero(self.leq[a]).tolist(),
                       key=lambda v: int(self.leq[:, v].sum()))
        for v in order:
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
        """The sublattice [a, b] as a fresh ExtensionLattice."""
        if not self.leq[a, b]:
            raise LatticeError("interval endpoints are not comparable")
        sel = [self.nodes[v] for v in self.interval_nodes(a, b)]

        def join_of(x, y):
            return self.nodes[self.join[self.index[x], self.index[y]]]

        return ExtensionLattice(sel, join_of, ambient=self.ambient, verify=False)

    # ------------------------------------------------------------------
    # catenarity and length

    def check_catenarian(self):
        """True iff all maximal chains between any two comparable nodes have
        equal length.  Witness: an interval with a cover edge skipping a
        longest-path level."""
        for a in range(self.n):
            lev = self.levels_from(a)
            up = lev >= 0
            for u in np.flatnonzero(up):
                for v in np.flatnonzero(self.covers[u]):
                    if up[v] and lev[v] != lev[u] + 1:
                        return False, {"interval": [int(a), int(v)],
                                       "edge": [int(u), int(v)],
                                       "levels": [int(lev[u]), int(lev[v])]}
        return True, None

    def maximal_chains(self, a, b, cap=100000):
        """All maximal chains from a to b (lists of node ids)."""
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
        """Full triple scan of x ^ (y v z) = (x ^ y) v (x ^ z); returns a
        failing triple or None.  This is the ground-truth route."""
        n, meet, join = self.n, self.meet, self.join
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

    def modular_law_scan(self):
        """Failing triple (x, y, z) with x <= z but x v (y ^ z) != (x v y) ^ z."""
        n, meet, join, leq = self.n, self.meet, self.join, self.leq
        for x in range(n):
            zs = np.flatnonzero(leq[x])
            lhs = join[x, meet[:, zs]]          # y, z
            rhs = meet[join[x][:, None], zs[None, :]]
            bad = np.argwhere(lhs != rhs)
            if bad.size:
                y, zi = bad[0]
                return int(x), int(y), int(zs[zi])
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
        witness = self._forbidden_constructive()
        if self.n <= _FIVE_SUBSET_CAP:
            swept = self._forbidden_exhaustive()
            if (witness is None) != (swept is None):
                raise LatticeError("forbidden-sublattice routes disagree")
        return witness

    def _forbidden_constructive(self):
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
        tri = self.distributive_law_scan()
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
        (ok, witness)."""
        n, meet, join, covers = self.n, self.meet, self.join, self.covers
        for t in range(n):
            for u in range(t + 1, n):
                m = int(meet[t, u])
                j = int(join[t, u])
                down_ok = covers[m, t] and covers[m, u]
                up_ok = covers[t, j] and covers[u, j]
                if (down_ok or up_ok) and self.interval_size(m, j) != 4:
                    return False, {"pair": [t, u], "interval": [m, j],
                                   "size": self.interval_size(m, j)}
        return True, None

    def check_distributive(self):
        """Distributivity by three independent routes; they must agree.
        Computed once: the tables never change after construction."""
        if self._distributive is None:
            self._distributive = self._distributive_routes()
        return self._distributive

    def _distributive_routes(self):
        tri = self.distributive_law_scan()
        law_ok = tri is None
        witness = self.forbidden_sublattice()
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
        return [int(v) for v in range(self.n)
                if self.meet[t, v] == 0 and self.join[t, v] == self.n - 1]

    def check_boolean(self):
        dist, _ = self.check_distributive()
        complemented = all(self.complements(t) for t in range(self.n))
        boolean = bool(dist and complemented)
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
