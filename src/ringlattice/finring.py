"""Exact arithmetic and structure theory for finite commutative unital rings.

A ring is a set of canonically indexed elements ``0..n-1`` together with
complete addition and multiplication tables, and every ring is made by
:meth:`FiniteRing.from_tables`.  Rings defined by generators (``zmod`` /
``gf`` / ``quotient_by_relations`` / ``idealization``) get their tables from
additive structure constants (:meth:`FiniteRing.from_struct`); products,
quotients, subset rings, localizations and doubled rings from the tables of
the rings they come from.  Everything is exact integer arithmetic.

Subrings and ideals are frozensets of element indices, so equality is set
equality and all orderings in the package are reproducible.  The ring owns
the one conversion to a working array: :meth:`FiniteRing.arr` memoises each
set's sorted int32 index array, and :func:`primitive_idempotents` memoises
each subring's decomposition (with Max of the subring) by the set itself.

Every per-object memo in the package is a :class:`Memo`: a ring, an
extension and a lattice each keep one, ``_cache``, and each result they
memoise is a key of it, computed on first use (:meth:`Memo.fetch`, the
:func:`memoised` methods) or with the other missing keys of its group
(:meth:`Memo.fetch_group`).
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import itertools
import math

import numpy as np

# Ring axioms are checked once, exactly, on the additive generators by
# from_struct: multiplication is the bilinear extension of the structure
# constants, and two multilinear maps agree iff they agree on generators, so
# the check covers every element at every size.  Every other ring is a
# closed subset, quotient or product of rings built that way and inherits
# the axioms, so from_tables checks just what its arguments can break
# (zero, negatives, unit).
DEFAULT_SIZE_CAP = 4096
IDEAL_LIMIT = 100000   # most ideals all_ideals enumerates before it raises


class RingError(Exception):
    """Invalid ring construction or operation."""


class SizeCapError(RingError):
    """Construction would exceed the configured element-count cap."""


class InconsistentRelationsError(RingError):
    """Quotient relations collapse the ring (e.g. force 1 = 0) or are malformed."""


def _index_vector(xs) -> np.ndarray:
    """int32 array of the indices in ``xs``, in iteration order."""
    if isinstance(xs, np.ndarray):
        return xs.astype(np.int32, copy=False)
    return np.fromiter(xs, dtype=np.int32)


def mixed_radix(sizes) -> np.ndarray:
    """Weights of the mixed-radix index over ``sizes``, the first digit most
    significant and the last fastest."""
    radix = np.ones(len(sizes), dtype=np.int64)
    for i in range(len(sizes) - 2, -1, -1):
        radix[i] = radix[i + 1] * sizes[i + 1]
    return radix


def componentwise(table, fac_table):
    """The table of a product of two rings from one table of each: the pair
    (x, y) has index x * len(fac_table) + y."""
    m, n = len(table), len(fac_table)
    return (table[:, None, :, None] * n
            + fac_table[None, :, None, :]).reshape(m * n, m * n)


def orbit_leaders(table, pool, group) -> list[int]:
    """The least element of each orbit {table[x, g] : g in group} that
    meets the ascending index array ``pool``, in ascending order.  The
    orbits must partition the elements: ``group`` a subgroup under addition
    (the cosets x + group) or the units under multiplication (the classes
    x*units)."""
    seen = np.zeros(len(table), dtype=bool)
    leaders = []
    for x in pool.tolist():
        if not seen[x]:
            leaders.append(x)
            seen[table[x, group]] = True
    return leaders


def check_limit(count, limit, what):
    """RingError when an enumeration of ``what`` holds more than ``limit``
    elements."""
    if count > limit:
        raise RingError(f"{what} exceeded {limit} nodes; "
                        "raise the limit to continue")


def join_closure(atoms, join, limit, what) -> tuple[set, dict]:
    """(found, joins): every join of the frozenset ``atoms``, found by
    joining the atoms onto each newly found element, and
    ``joins[(x, a)] = x v a`` for each incomparable found x and atom a, in
    the order met.  ``join`` must be the join of a closure system (subrings,
    ideals, submodules): comparable sets join to the larger one, and x v a
    is derived by associativity where it can be.  Every decomposition
    x = p v b met is recorded, and x v a = (p v a) v b, with p v a known
    because p met every atom before x did; when (p v a) v b is not known
    yet either, the decompositions of p v a are tried the same way once
    more.  ``join`` runs only on the pairs these rules leave open.  Raises
    RingError past ``limit`` elements."""
    atoms = list(set(atoms))
    found, frontier = set(atoms), atoms
    joins, parts = {}, {}

    def known(x, a):
        if x <= a:
            return a
        if a <= x:
            return x
        return joins.get((x, a))

    def derived(x, a):
        for p, b in parts.get(x, ()):
            pa = known(p, a)
            y = known(pa, b)
            if y is None:
                for q, c in parts.get(pa, ()):
                    qb = known(q, b)        # None while q is being joined
                    if qb is not None:
                        y = known(qb, c)
                        if y is not None:
                            break
            if y is not None:
                return y
        return None

    while frontier:
        fresh = []
        for x in frontier:
            check_limit(len(found), limit, what)
            for a in atoms:
                if x <= a or a <= x:
                    continue
                y = derived(x, a)
                if y is None:
                    y = join(x, a)
                pair = (x, a)
                joins[pair] = y
                parts.setdefault(y, []).append(pair)
                if y not in found:
                    found.add(y)
                    fresh.append(y)
        frontier = fresh
    return found, joins


_ABSENT = object()


class Memo(dict):
    """The cache of one object: each key's value is computed once, on
    first use, and kept for the life of the object."""

    def fetch(self, key, compute, *args):
        """The value of ``key``, computed as compute(*args) on first use."""
        value = self.get(key, _ABSENT)
        if value is _ABSENT:
            value = self[key] = compute(*args)
        return value

    def fetch_group(self, keys, compute):
        """The values of ``keys``, in order.  The keys not held yet are
        computed together by one call compute(missing), which returns
        their values in the order of ``missing`` (each key once)."""
        values = [self.get(key, _ABSENT) for key in keys]
        missing = [key for key, value in zip(keys, values) if value is _ABSENT]
        if missing:
            missing = list(dict.fromkeys(missing))
            found = dict(zip(missing, compute(missing), strict=True))
            for key, value in found.items():
                self[key] = value
            values = [found.get(key, value) for key, value in zip(keys, values)]
        return values


def memoised(method):
    """``method`` of an object with a :class:`Memo` ``_cache``, computed
    once per object and arguments, under the key (method name, *args)."""
    name = method.__name__

    @functools.wraps(method)
    def cached(self, *args):
        # a hit is read here; a miss is computed through fetch
        key = (name, *args)
        value = self._cache.get(key, _ABSENT)
        if value is _ABSENT:
            value = self._cache.fetch(key, method, self, *args)
        return value
    return cached


def row_blocks(rows, width):
    """Slices of ``rows`` rows of about 2^18 entries of ``width`` each."""
    step = max(1, (1 << 18) // max(1, width))
    return [slice(i, i + step) for i in range(0, rows, step)]


def segment_ranks(counts) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, concatenated."""
    counts = np.asarray(counts, dtype=np.intp)
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def bit_rows(rows) -> np.ndarray:
    """Each row of a bool matrix as little-endian uint64 words."""
    n, width = rows.shape
    out = np.zeros((n, -(-width // 64) * 8), dtype=np.uint8)
    out[:, :-(-width // 8)] = np.packbits(rows, axis=1, bitorder="little")
    return out.view("<u8")


class FiniteRing:
    """A finite commutative unital ring with full operation tables.

    Attributes:
        size: number of elements; elements are the indices ``range(size)``.
        add, mul: ``size x size`` int32 operation tables.
        neg: length-``size`` additive-inverse table.
        zero, one: element indices of the identities.
        orders, coeffs, monomials: for a ring built by from_struct, the
            additive orders of its k generators, the ``size x k``
            coefficient vectors of its elements and the monomial (tuple of
            (var, exp) pairs) each generator stands for; ``None`` for every
            other ring, products included.
        varmap: algebra generators usable in element expressions.
        label: human-readable construction description.
    """

    def __init__(self, *, add, mul, neg, zero, one, label,
                 elem_names=None, size_cap=DEFAULT_SIZE_CAP):
        self.size = len(add)
        self.add = add
        self.mul = mul
        self.neg = neg
        self.zero = int(zero)
        self.one = int(one)
        self.label = label
        self.orders = self.coeffs = self.monomials = None   # see from_struct
        self.varmap = {}
        self.factors = None             # component rings of a product
        self.elem_names = elem_names    # given for derived rings, else built by elem_str
        self.size_cap = size_cap
        # ("arr", X) -> X's index array; ("decomposition", T) -> the
        # primitive decomposition of the subring T; ("adjoin", lo, s) ->
        # lo[s]; ("nilpotent_mask",); ("conductor" | "spectral" | "closed",
        # lo, hi) -> the pair facts of lo <= hi (extension.cover_conductors,
        # extension.pair_facts)
        self._cache = Memo()
        # each subring once (interning), and each other set adjoin was given
        # -> the subring it generates
        self._subrings = {}

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_struct(cls, orders, struct, one_vec, *, label,
                    varmap=None, monomials=None, size_cap=DEFAULT_SIZE_CAP):
        """Build a ring from additive structure constants.

        ``orders`` lists the orders of the additive generators (the additive
        group is the direct sum of the corresponding cyclic groups);
        ``struct[i][j]`` is the coefficient vector of the product of
        generators i and j; multiplication is its bilinear extension;
        ``one_vec`` is the coefficient vector of the multiplicative identity.
        The ring axioms are verified exactly on the generators; the tables
        then go through :meth:`from_tables`.
        """
        orders = tuple(int(c) for c in orders)
        if not orders or any(c < 2 for c in orders):
            raise RingError(f"additive generator orders must all be >= 2, got {orders}")
        k = len(orders)
        size = math.prod(orders)
        if size > size_cap:
            raise SizeCapError(f"ring size {size} exceeds cap {size_cap}")
        ordv = np.array(orders, dtype=np.int64)
        struct = np.asarray(struct, dtype=np.int64).reshape(k, k, k) % ordv
        one_vec = np.asarray(one_vec, dtype=np.int64).reshape(k) % ordv

        cls._validate_struct(orders, struct, one_vec)

        # the additive group is the product of the cyclic groups Z/o, in the
        # mixed-radix index over the orders (first digit most significant)
        add = np.zeros((1, 1), dtype=np.int32)
        for o in orders:
            z = np.arange(o, dtype=np.int32)
            add = componentwise(add, (z[:, None] + z) % o)
        radix = mixed_radix(orders)
        coeffs = np.indices(orders).reshape(k, size).T.astype(np.int64)
        # xe[j, x] = x * e_j.  Digit by digit from the last, the row of
        # y = d*r_j + t (t < r_j) is the row of y - r_j plus xe[j], since
        # (d e_j + t) x = ((d - 1) e_j + t) x + e_j x
        xe = ((np.einsum('xi,ijv->jxv', coeffs, struct) % ordv) @ radix).astype(np.int32)
        mul = np.zeros((size, size), dtype=np.int32)
        for j in range(k - 1, -1, -1):
            r = int(radix[j])
            for d in range(1, orders[j]):
                mul[d * r:(d + 1) * r] = add[mul[(d - 1) * r:d * r], xe[j]]

        ring = cls.from_tables(add, mul, int(one_vec @ radix), label=label,
                               size_cap=size_cap)
        ring.orders, ring.coeffs = orders, coeffs
        ring.varmap, ring.monomials = dict(varmap or {}), monomials
        return ring

    @classmethod
    def from_tables(cls, add, mul, one, *, label, elem_names=None,
                    size_cap=DEFAULT_SIZE_CAP):
        """Build a ring directly from operation tables.

        The tables must come from structure constants proved on their
        generators (:meth:`from_struct`) or from validated rings: a closed
        subset of one re-indexed (:meth:`subset_ring`), a quotient by an
        ideal (:func:`quotient_of_subring`), the square-zero doubling of
        one, or a product of several (:func:`product_ring`).
        Such tables inherit associativity, commutativity and
        distributivity; only the additive identity, the negatives and the
        given ``one`` are checked here.
        """
        add = np.asarray(add, dtype=np.int32)
        mul = np.asarray(mul, dtype=np.int32)
        size = add.shape[0]
        if size > size_cap:
            raise SizeCapError(f"ring size {size} exceeds cap {size_cap}")
        idx = np.arange(size, dtype=np.int32)
        zeros = np.flatnonzero((add == idx).all(axis=1))
        if zeros.size != 1:
            raise RingError("addition table has no unique identity")
        zero = int(zeros[0])
        inv_rows = (add == zero)
        if not (inv_rows.sum(axis=1) == 1).all():
            raise RingError("addition table is not a group table")
        neg = inv_rows.argmax(axis=1).astype(np.int32)
        if not np.array_equal(mul[one], idx):
            raise RingError("identity law fails")
        return cls(add=add, mul=mul, neg=neg, zero=zero, one=int(one),
                   label=label, elem_names=elem_names, size_cap=size_cap)

    @staticmethod
    def _validate_struct(orders, struct, one_vec):
        """Generator-level ring axioms; exact for the bilinear extension."""
        k = len(orders)
        ordv = np.array(orders, dtype=np.int64)
        if not np.array_equal(struct, struct.transpose(1, 0, 2)):
            raise RingError("structure constants are not commutative")
        # well-definedness: orders[i] * (e_i e_j) must vanish
        if ((struct * ordv[:, None, None]) % ordv).any():
            raise RingError("structure constants incompatible with generator orders")

        def vec_mul(u, v):
            return np.einsum('i,j,ijv->v', u, v, struct) % ordv

        eye = np.eye(k, dtype=np.int64)
        for j in range(k):
            if not np.array_equal(vec_mul(one_vec, eye[j]), eye[j] % ordv):
                raise RingError("proposed identity does not act as 1 on generators")
        for i in range(k):
            for j in range(k):
                for l in range(k):
                    if not np.array_equal(vec_mul(struct[i, j], eye[l]),
                                          vec_mul(eye[i], struct[j, l])):
                        raise RingError(
                            f"multiplication not associative on generators ({i},{j},{l})")

    # ------------------------------------------------------------------
    # basic queries

    def __len__(self):
        return self.size

    def __repr__(self):
        return f"FiniteRing({self.label}, {self.size} elements)"

    def elements(self):
        return range(self.size)

    def a(self, x, y):
        return int(self.add[x, y])

    def m(self, x, y):
        return int(self.mul[x, y])

    def sub(self, x, y):
        return int(self.add[x, self.neg[y]])

    def power(self, x, k):
        """x^k, elementwise for an index array x (repeated squaring)."""
        r, b = np.full(np.shape(x), self.one, dtype=np.int32), np.asarray(x)
        while k:
            if k & 1:
                r = self.mul[r, b]
            b = self.mul[b, b]
            k >>= 1
        return int(r) if r.ndim == 0 else r

    @memoised
    def nilpotent_mask(self) -> np.ndarray:
        """Boolean mask of the nilpotent elements, computed once: x is
        nilpotent iff x^size = 0, because the ideals (x^k) fall strictly
        until they reach 0."""
        mask = self.power(np.arange(self.size, dtype=np.int32), self.size) == self.zero
        mask.flags.writeable = False
        return mask

    def times(self, c, x):
        """c*x for a non-negative integer c (binary addition)."""
        r, b = self.zero, x
        while c:
            if c & 1:
                r = int(self.add[r, b])
            b = int(self.add[b, b])
            c >>= 1
        return r

    def additive_order(self, x):
        o, y = 1, x
        while y != self.zero:
            y = int(self.add[y, x])
            o += 1
        return o

    def int_elem(self, c):
        """The image of the integer c under Z -> R."""
        if c >= 0:
            return self.times(c, self.one)
        return int(self.neg[self.times(-c, self.one)])

    def elem_str(self, i):
        """The name of element i; the ring names all its elements at the
        first call."""
        if self.elem_names is None:
            self.elem_names = self._element_names()
        return self.elem_names[int(i)]

    def _element_names(self) -> list[str]:
        """Component tuples for products, polynomial expressions for rings
        with monomial generators, ``#i`` otherwise."""
        if self.factors is not None:
            comps = np.unravel_index(np.arange(self.size),
                                     [fac.size for fac in self.factors])
            columns = [[fac.elem_str(j) for j in idx.tolist()]
                       for fac, idx in zip(self.factors, comps)]
            return ["(" + ", ".join(parts) + ")" for parts in zip(*columns)]
        if self.coeffs is None or self.monomials is None:
            return [f"#{i}" for i in range(self.size)]
        mstrs = ["*".join(f"{v}^{e}" if e > 1 else v for v, e in mono)
                 for mono in self.monomials]
        names = []
        for row in self.coeffs.tolist():
            terms = []
            for c, mstr in zip(row, mstrs):
                if c == 0:
                    continue
                if not mstr:
                    terms.append(str(c))
                elif c == 1:
                    terms.append(mstr)
                else:
                    terms.append(f"{c}*{mstr}")
            names.append(" + ".join(terms) if terms else "0")
        return names

    # ------------------------------------------------------------------
    # subset machinery: closures over element-index sets
    #
    # Subgroups and ideals are the smallest additive subgroup containing a
    # generator set and closed under x -> x*m for every m in a multiplier
    # set (none for subgroups, the ambient subring for ideals).  The span
    # of generators g_i is closed under a multiplier m as soon as every
    # g_i*m lies in it, because (sum c_i g_i)*m = sum c_i (g_i m); so
    # _span_closure only ever multiplies generators, never the span.
    #
    # A subring is built one element at a time: T[s] is the polynomial
    # span T + T*s + T*s^2 + ... of the ring T so far (_adjoin_powers), and
    # the prime subring is the additive span of 1.  A closure may start
    # from a set that is already closed, never from one that is not: an
    # ideal join a v b starts from a, and lo[s] starts from the subring lo.
    # lo[s] depends only on the coset s + lo, so callers close one s per
    # coset (orbit_leaders), and the principal ideals of all_ideals need
    # one generator per class g*units.

    def _with_cosets(self, span, inside, g) -> np.ndarray:
        """span + <g> for the subgroup ``span`` (an index array whose mask
        ``inside`` is updated in place): the union of the cosets
        k*g + span up to the first k*g inside the span."""
        cosets = [span]
        c = g
        while not inside[c]:
            coset = self.add[c, span]
            inside[coset] = True
            cosets.append(coset)
            c = self.add[c, g]
        return np.concatenate(cosets)

    def _span_closure(self, gens, mults=(), start=None) -> np.ndarray:
        """The closure described above, as a sorted index array, starting
        from the closed index array ``start`` (default {0}); each new
        generator adds its cosets, then queues its products."""
        if start is None:
            start = np.array([self.zero], dtype=np.int32)
        inside = self.mask(start)
        span = start
        mults = _index_vector(mults)
        pending = [_index_vector(gens)]
        while pending:
            cand = pending[-1]
            cand = cand[~inside[cand]]
            if cand.size == 0:
                pending.pop()
                continue
            g = cand[0]
            pending[-1] = cand[1:]
            span = self._with_cosets(span, inside, g)
            if mults.size:
                pending.append(self.mul[g, mults])
        return np.flatnonzero(inside).astype(np.int32)

    def _adjoin_powers(self, T, inside, s) -> np.ndarray:
        """T[s] for the subring with index array T (mask ``inside``, updated
        in place) and an s outside it, as a sorted index array: the sum of
        the groups T*s^k, which stops at the first k with T*s^k inside it.
        Then the span times s lies in the span, so it is closed under s and
        T, holds 1 and is the least subring holding T and s.  A sum of two
        groups is the union of the cosets of one by the other's elements."""
        span, p = T, s
        while True:
            layer = self.mul[p, T]
            fresh = layer[~inside[layer]]
            if fresh.size == 0:
                return span
            inside[self.add[fresh[:, None], span]] = True
            span = inside.nonzero()[0]
            p = self.mul[p, s]

    def additive_closure(self, seed, start=None) -> np.ndarray:
        """Subgroup of (R,+) generated by ``seed`` and the subgroup
        ``start`` (no multipliers)."""
        return self._span_closure(
            seed, start=None if start is None else self.arr(start))

    def subring_closure(self, seed, over=None) -> np.ndarray:
        """Smallest unital subring containing ``seed`` and the subring
        ``over`` (default the prime subring, the additive span of 1): the
        seed elements outside the ring so far are adjoined one at a time,
        each as a polynomial span."""
        if over is None:
            inside = np.zeros(self.size, dtype=bool)
            inside[self.zero] = True
            T = self._with_cosets(np.array([self.zero], dtype=np.int32),
                                  inside, self.one)
        else:
            T = self.arr(over)
            inside = self.mask(T)
        seed = _index_vector(list(seed))
        while True:
            seed = seed[~inside[seed]]
            if seed.size == 0:
                return np.flatnonzero(inside).astype(np.int32)
            T = self._adjoin_powers(T, inside, seed[0])

    @memoised
    def adjoin(self, lo, s) -> frozenset:
        """lo[s], the subring generated by the frozenset ``lo`` and the
        element ``s``: the polynomial span of s over the subring that lo
        generates, which is closed (once) when lo is not an interned
        subring.  Memoised on the ring by (lo, s); equal results are one
        shared frozenset."""
        base = self._subrings.get(lo)
        if base is None:
            base = self._subrings[lo] = self._intern(self.subring_closure(sorted(lo)))
        return self._intern(self.subring_closure([s], over=base))

    def _intern(self, closed) -> frozenset:
        """The shared frozenset of the subring with index array ``closed``."""
        T = frozenset(closed.tolist())
        return self._subrings.setdefault(T, T)

    def arr(self, X) -> np.ndarray:
        """The sorted, read-only int32 index array of the element set X;
        memoised on the ring when X is a frozenset.  Raises RingError for an
        index outside ``range(size)``."""
        if isinstance(X, frozenset):
            return self._cache.fetch(("arr", X), self._index_array, X)
        return self._index_array(X)

    def _index_array(self, X) -> np.ndarray:
        a = np.unique(X if isinstance(X, np.ndarray) else np.fromiter(X, dtype=np.int64))
        if a.size and (a[0] < 0 or a[-1] >= self.size):
            raise RingError(f"element index outside 0..{self.size - 1}")
        a = a.astype(np.int32)
        a.flags.writeable = False
        return a

    def mask(self, subset) -> np.ndarray:
        """Length-``size`` boolean membership mask of a frozenset or an
        index array, so a membership test is the gather ``mask[X]``
        instead of a sort."""
        inside = np.zeros(self.size, dtype=bool)
        inside[self.arr(subset) if isinstance(subset, frozenset)
               else _index_vector(subset)] = True
        return inside

    def is_subring(self, subset) -> bool:
        s = self.arr(subset)
        inside = self.mask(s)
        if not inside[self.one]:
            return False
        return bool(inside[self.add[np.ix_(s, s)]].all()
                    and inside[self.mul[np.ix_(s, s)]].all())

    def ideal_closure(self, within, gens) -> np.ndarray:
        """Ideal of the subring ``within`` generated by ``gens`` (multipliers
        ``within``)."""
        return self._span_closure(gens, self.arr(within))

    def is_ideal_of(self, within, subset) -> bool:
        within = self.arr(within)
        s = self.arr(subset)
        inside = self.mask(s)
        if not inside[self.zero]:
            return False
        if not self.mask(within)[s].all():
            return False
        # a finite set holding 0 and closed under + is a subgroup, so it
        # holds the negatives too
        if not inside[self.add[np.ix_(s, s)]].all():
            return False
        return bool(inside[self.mul[np.ix_(s, within)]].all())

    def all_ideals(self, within, gens=None) -> list[frozenset]:
        """Every ideal of the subring ``within`` generated by elements of
        ``gens`` (default: all of ``within``): join-closure of their
        principal ideals (every ideal is a finite sum of principal ones).
        When ``gens`` is an ideal, these are the ideals inside it; for
        ``gens`` outside ``within``, they are the ``within``-submodules
        generated by elements of ``gens``."""
        # (g) = (u*g) for a unit u of within, so one g per class g*units
        units = frozenset(self.arr(within).tolist()).difference(
            *maximal_ideals(self, within))
        pool = orbit_leaders(self.mul, self.arr(within if gens is None else gens),
                             self.arr(units))
        found, _ = join_closure(
            {frozenset(self.ideal_closure(within, [g]).tolist()) for g in pool},
            lambda a, b: frozenset(self.additive_closure(b, start=a).tolist()),
            IDEAL_LIMIT, "ideal enumeration")
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def subset_ring(self, subset, unit, label=None):
        """Re-index a closed subset as a standalone ring with the given unit.
        Returns (ring, old-index array new->old)."""
        s = self.arr(subset)
        pos = np.full(self.size, -1, dtype=np.int32)
        pos[s] = np.arange(s.size, dtype=np.int32)
        if pos[unit] < 0:
            raise RingError("unit not in subset")
        add = pos[self.add[np.ix_(s, s)]]
        mul = pos[self.mul[np.ix_(s, s)]]
        if (add < 0).any() or (mul < 0).any():
            raise RingError("subset is not closed under the ring operations")
        names = [self.elem_str(int(x)) for x in s.tolist()]
        ring = FiniteRing.from_tables(
            add, mul, int(pos[unit]),
            label=label or f"{self.label}|{s.size}",
            elem_names=names, size_cap=self.size_cap)
        return ring, s

    # ------------------------------------------------------------------
    # additive group structure

    def abelian_basis(self) -> list[tuple[int, int]]:
        """A direct-sum basis of the additive group as (element, order) pairs.

        Greedy per prime component: repeatedly adjoin the largest-order
        element whose cyclic span meets the current span trivially.  The
        order product is asserted to reach the group size, so a failure of
        the strategy cannot pass silently.
        """
        n = self.size
        basis = []
        for p in prime_factors(n):
            pe = p ** padic_val(n, p)
            comp = [x for x in range(n) if self.times(pe, x) == self.zero]
            span_set = {self.zero}
            orders = {x: self.additive_order(x) for x in comp}
            while len(span_set) < len(comp):
                chosen = None
                for x in sorted((x for x in comp if x not in span_set),
                                key=lambda x: (-orders[x], x)):
                    cyc = {self.zero}
                    y = x
                    while y != self.zero:
                        cyc.add(y)
                        y = int(self.add[y, x])
                    if len(cyc & span_set) == 1:
                        chosen = x
                        break
                if chosen is None:
                    raise RingError("abelian basis construction failed")
                basis.append((chosen, orders[chosen]))
                span_set = set(self.additive_closure(
                    list(span_set) + [chosen]).tolist())
        total = math.prod(o for _, o in basis) if basis else 1
        if total != n:
            raise RingError("abelian basis does not span the group")
        return basis


# ----------------------------------------------------------------------
# small number-theory helpers

def prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def padic_val(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def is_squarefree(n):
    return all(n % (p * p) != 0 for p in prime_factors(n))


def vec_index(ring, vec):
    """Element index of a coefficient vector in a struct-built ring."""
    return int((np.asarray(vec, dtype=np.int64) % np.array(ring.orders, dtype=np.int64))
               @ mixed_radix(ring.orders))


# ----------------------------------------------------------------------
# named constructors

def zmod(n, size_cap=DEFAULT_SIZE_CAP):
    """The ring of integers modulo n."""
    if n < 2:
        raise RingError(f"modulus must be >= 2, got {n}")
    return FiniteRing.from_struct(
        (n,), np.array([[[1]]]), [1], label=f"zmod({n})",
        varmap={}, monomials=[()], size_cap=size_cap)


def _poly_rem(f_low, f_deg, g_low, g_deg, p):
    """Remainder of the monic x^f_deg + f_low by the monic x^g_deg + g_low."""
    rem = list(f_low) + [1]
    g = list(g_low) + [1]
    for d in range(f_deg, g_deg - 1, -1):
        c = rem[d]
        if c:
            for i in range(g_deg + 1):
                rem[d - g_deg + i] = (rem[d - g_deg + i] - c * g[i]) % p
    return rem[:g_deg]


@functools.lru_cache(maxsize=None)
def _irreducibles_upto(p, maxdeg):
    """Monic irreducibles over F_p up to maxdeg as low-coefficient tuples
    (constant term first), listed per degree in lex order on
    (c_{d-1}, ..., c_0)."""
    irr = {d: [] for d in range(1, maxdeg + 1)}
    for d in range(1, maxdeg + 1):
        for hi_first in itertools.product(range(p), repeat=d):
            low = tuple(reversed(hi_first))
            ok = True
            for e in range(1, d // 2 + 1):
                for g in irr[e]:
                    if not any(_poly_rem(low, d, g, e, p)):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                irr[d].append(low)
    return irr


def least_irreducible(p, k):
    """Lexicographically least monic irreducible of degree k over F_p
    (lex on the coefficient tuple from degree k-1 down to the constant)."""
    return _irreducibles_upto(p, k)[k][0]


def is_prime(p) -> bool:
    """Whether the integer p is a prime, by trial division up to its
    square root."""
    return p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))


def gf(p, k=1, size_cap=DEFAULT_SIZE_CAP):
    """The finite field with p^k elements, as F_p[x]/(f) for the
    lexicographically least monic irreducible f of degree k (sieve), built
    by :func:`quotient_by_relations`."""
    if not is_prime(p):
        raise RingError(f"gf characteristic must be prime, got {p}")
    if k < 1:
        raise RingError(f"gf degree must be >= 1, got {k}")
    if k == 1:
        r = zmod(p, size_cap)
        r.label = f"gf({p})"
        return r
    base = zmod(p, size_cap)
    f = [((("x", k),), 1)] + [((("x", i),) if i else (), c)
                             for i, c in enumerate(least_irreducible(p, k)) if c]
    ring = quotient_by_relations(base, [resolve_relation(base, f)],
                                 size_cap=size_cap, label=f"gf({p},{k})")
    return ring


def as_struct_ring(ring):
    """An equivalent structure-constant ring plus the index map new->old.
    Identity (with an identity map) for rings already built from generators."""
    if ring.coeffs is not None:
        return ring, np.arange(ring.size, dtype=np.int32)
    basis = ring.abelian_basis()
    gens = [g for g, _ in basis]
    orders = [o for _, o in basis]
    k = len(gens)
    radix = mixed_radix(orders)
    size = math.prod(orders)
    old_of_new = np.empty(size, dtype=np.int32)
    coords = {}
    for vec in itertools.product(*(range(o) for o in orders)):
        x = ring.zero
        for c, g in zip(vec, gens):
            x = int(ring.add[x, ring.times(c, g)])
        new_idx = int(np.array(vec, dtype=np.int64) @ radix)
        old_of_new[new_idx] = x
        coords[x] = vec
    if len(coords) != ring.size:
        raise RingError("abelian basis failed to reach every element")
    struct = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            struct[i, j] = coords[int(ring.mul[gens[i], gens[j]])]
    pos = {int(x): i for i, x in enumerate(old_of_new.tolist())}
    out = FiniteRing.from_struct(
        orders, struct, coords[ring.one], label=ring.label,
        size_cap=ring.size_cap)
    out.elem_names = [ring.elem_str(o) for o in old_of_new.tolist()]
    out.varmap = {name: pos[idx] for name, idx in ring.varmap.items()}
    return out, old_of_new


def product_ring(rings, size_cap=DEFAULT_SIZE_CAP, label=None):
    """Direct product of finitely many rings.  The tuple (x_1, ..., x_m) has
    the mixed-radix index over the factor sizes, the first factor most
    significant, and the tables are the factors' tables componentwise.  A
    product of rings is a ring, so from_tables' checks are all it needs."""
    if not rings:
        raise RingError("product needs at least one factor")
    size = math.prod(r.size for r in rings)
    if size > size_cap:
        raise SizeCapError(f"product size {size} exceeds cap {size_cap}")

    add = mul = np.zeros((1, 1), dtype=np.int32)
    one = 0
    for r in rings:
        add, mul = componentwise(add, r.add), componentwise(mul, r.mul)
        one = one * r.size + r.one
    lab = label or "product(" + ", ".join(r.label for r in rings) + ")"
    ring = FiniteRing.from_tables(add, mul, one, label=lab, size_cap=size_cap)
    ring.factors = list(rings)
    return ring


def product_element(prod, comps):
    """Index of the tuple (c_0, ..., c_m) in the product ring."""
    if len(comps) != len(prod.factors):
        raise RingError("component count mismatch")
    return int(np.ravel_multi_index(comps, [fac.size for fac in prod.factors]))


# ----------------------------------------------------------------------
# polynomial quotients R[x_1..x_m]/(relations)

@dataclass(frozen=True)
class Poly:
    """Polynomial in adjoined variables over a base ring: sorted tuple of
    (monomial, coefficient-element-index); monomial = tuple of (var, exp)."""
    terms: tuple


def poly_from_dict(R, d):
    return Poly(tuple(sorted((m, c) for m, c in d.items() if c != R.zero)))


def poly_add(R, a, b):
    d = dict(a.terms)
    for m, c in b.terms:
        d[m] = int(R.add[d.get(m, R.zero), c])
    return poly_from_dict(R, d)


def mono_mul(m1, m2):
    d = {}
    for v, e in itertools.chain(m1, m2):
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def poly_mul(R, a, b):
    d = {}
    for m1, c1 in a.terms:
        for m2, c2 in b.terms:
            m = mono_mul(m1, m2)
            d[m] = int(R.add[d.get(m, R.zero), R.mul[c1, c2]])
    return poly_from_dict(R, d)


def mono_deg(m):
    return sum(e for _, e in m)


def resolve_relation(base, raw):
    """Turn a raw relation (iterable of (monomial, int coeff), monomials may
    mention base-ring variables) into a Poly over ``base`` in the new
    variables only."""
    d = {}
    for mono, c in raw:
        coeff = base.int_elem(int(c))
        new_part = []
        for v, e in mono:
            if v in base.varmap:
                for _ in range(e):
                    coeff = int(base.mul[coeff, base.varmap[v]])
            else:
                new_part.append((v, e))
        key = tuple(sorted(new_part))
        d[key] = int(base.add[d.get(key, base.zero), coeff])
    return poly_from_dict(base, d)


def quotient_by_relations(R, relations, size_cap=DEFAULT_SIZE_CAP, label=None):
    """Build R[vars]/(relations).

    Each adjoined variable must come with a monic power relation x^d + tail
    where the tail has total degree < d; this keeps the quotient finite and
    the monomial rewriting terminating.  Remaining relations are imposed as
    an ideal quotient of the truncated ring; a collapse of 1 to 0 is
    detected and reported, never silently accepted.

    ``relations``: list of Poly over R (see :func:`resolve_relation`).
    """
    if R.monomials is None:
        raise RingError("quotient base must expose a monomial basis; a product, "
                        "or a quotient with relations beyond the power rules, "
                        "has none")
    newvars = sorted({v for rel in relations for m, _ in rel.terms for v, _ in m})
    if not newvars:
        raise InconsistentRelationsError("quotient relations adjoin no new variable")
    clash = [v for v in newvars if v in R.varmap]
    if clash:
        raise InconsistentRelationsError(
            f"variable name(s) {', '.join(clash)} already used by the base ring")

    power_rule = {}
    extra = []
    for rel in relations:
        if not rel.terms:
            continue
        mono, coeff = max(rel.terms, key=lambda t: (mono_deg(t[0]), t[0]))
        if (len(mono) == 1 and mono[0][0] not in power_rule and coeff == R.one
                and all(mono_deg(m) < mono_deg(mono) for m, _ in rel.terms if m != mono)):
            v, d = mono[0]
            rest = {m: int(R.neg[c]) for m, c in rel.terms if m != mono}
            power_rule[v] = (d, poly_from_dict(R, rest))
        else:
            extra.append(rel)
    missing = [v for v in newvars if v not in power_rule]
    if missing:
        raise InconsistentRelationsError(
            f"no monic power relation for variable(s) {', '.join(missing)}: each "
            "adjoined variable needs a relation led by x^d with unit coefficient "
            "and lower-degree tail")

    degs = {v: power_rule[v][0] for v in newvars}
    # the truncated ring has |R| ** (number of monomials) elements; |R| >= 2,
    # so more monomials than the cap has bits exceed it
    count = math.prod(degs.values())
    if R.size ** min(count, size_cap.bit_length()) > size_cap:
        raise SizeCapError(
            f"truncated quotient size {R.size}^{count} exceeds cap {size_cap}")

    def reduce_poly(poly):
        # rewrite monomials with an exponent >= d_v; tails drop total degree
        while True:
            hit = None
            for m, c in poly.terms:
                for v, e in m:
                    if e >= degs[v]:
                        hit = (m, c, v, e)
                        break
                if hit:
                    break
            if hit is None:
                return poly
            m, c, v, e = hit
            d, tail = power_rule[v]
            rest = tuple(sorted([(w, f) for w, f in m if w != v] +
                                ([(v, e - d)] if e > d else [])))
            repl = poly_mul(R, Poly(((rest, c),)), tail)
            poly = poly_add(R, Poly(tuple(t for t in poly.terms if t[0] != m)), repl)

    monos = [tuple((v, e) for v, e in zip(newvars, exps) if e)
             for exps in itertools.product(*(range(degs[v]) for v in newvars))]
    monos.sort(key=lambda m: (mono_deg(m), m))
    mono_pos = {m: i for i, m in enumerate(monos)}
    kR = len(R.orders)
    kA = len(monos) * kR
    orders = [o for _ in monos for o in R.orders]

    def poly_to_vec(poly):
        vec = np.zeros(kA, dtype=np.int64)
        for m, c in poly.terms:
            vec[mono_pos[m] * kR:(mono_pos[m] + 1) * kR] += R.coeffs[c]
        return vec

    eyeR = np.eye(kR, dtype=np.int64)
    base_gen_elem = [vec_index(R, eyeR[b]) for b in range(kR)]
    struct = np.zeros((kA, kA, kA), dtype=np.int64)
    for i in range(kA):
        mi, bi = divmod(i, kR)
        for j in range(i, kA):
            mj, bj = divmod(j, kR)
            prod = poly_mul(R,
                            Poly(((monos[mi], base_gen_elem[bi]),)),
                            Poly(((monos[mj], base_gen_elem[bj]),)))
            vec = poly_to_vec(reduce_poly(prod))
            struct[i, j] = vec
            struct[j, i] = vec
    one_vec = np.zeros(kA, dtype=np.int64)
    one_vec[:kR] = R.coeffs[R.one]

    base_monos = R.monomials
    new_monomials = [mono_mul(m, tuple(base_monos[b]))
                     for m in monos for b in range(kR)]
    lab = label or f"{R.label}[{','.join(newvars)}]/(rels)"
    trunc = FiniteRing.from_struct(
        orders, struct, one_vec, label=lab,
        monomials=new_monomials, size_cap=size_cap)
    trunc.varmap = {}
    for name, idx in R.varmap.items():
        vec = np.zeros(kA, dtype=np.int64)
        vec[:kR] = R.coeffs[idx]
        trunc.varmap[name] = vec_index(trunc, vec)
    for v in newvars:
        red = reduce_poly(Poly(((((v, 1),), R.one),)))
        trunc.varmap[v] = vec_index(trunc, poly_to_vec(red))

    if not extra:
        return trunc
    everything = np.arange(trunc.size, dtype=np.int32)
    gens = [vec_index(trunc, poly_to_vec(reduce_poly(rel))) for rel in extra]
    ideal = trunc.ideal_closure(everything, gens)
    if trunc.one in set(ideal.tolist()):
        raise InconsistentRelationsError("relations force 1 = 0")
    if ideal.size == 1:
        return trunc
    quo, proj = quotient_of_subring(trunc, everything, ideal, label=lab)
    quo.varmap = {name: int(proj[idx]) for name, idx in trunc.varmap.items()}
    out, old_of_new = as_struct_ring(quo)
    pos = {int(x): i for i, x in enumerate(old_of_new.tolist())}
    out.varmap = {name: pos[idx] for name, idx in quo.varmap.items()}
    out.label = lab
    return out


def idealization(R, module_orders, action=None, size_cap=DEFAULT_SIZE_CAP,
                 label=None):
    """The idealization R(+)M: pairs (r, m) with (r,m)(s,n) = (rs, rn+sm).

    ``module_orders`` is the cyclic decomposition of the additive group of M.
    ``action`` maps each algebra variable of R to a kM x kM integer matrix
    (row j = image of module generator j over the module generators); the
    action of 1 is forced and the action of basis monomials is composed from
    the variables.  Ill-defined or non-associative action data is rejected by
    the generator-level axiom verification.
    """
    if R.monomials is None:
        raise RingError("idealization base must expose a monomial basis; a product, "
                        "or a quotient with relations beyond the power rules, "
                        "has none")
    module_orders = tuple(int(o) for o in module_orders)
    if not module_orders or any(o < 2 for o in module_orders):
        raise RingError("module generator orders must all be >= 2")
    kR, kM = len(R.orders), len(module_orders)
    action = {k: np.asarray(v, dtype=np.int64) for k, v in (action or {}).items()}
    for name, mat in action.items():
        if name not in R.varmap:
            raise RingError(f"action names unknown variable {name!r}")
        if mat.shape != (kM, kM):
            raise RingError(f"action matrix for {name!r} must be {kM}x{kM}")
    missing = [v for v in R.varmap if v not in action]
    if missing:
        raise RingError(
            f"idealization action missing for variable(s) {', '.join(missing)}")

    size = R.size * math.prod(module_orders)
    if size > size_cap:
        raise SizeCapError(f"ring size {size} exceeds cap {size_cap}")
    modv = np.array(module_orders, dtype=np.int64)

    def mono_action(mono):
        mat = np.eye(kM, dtype=np.int64)
        for v, e in mono:
            for _ in range(e):
                mat = (mat @ action[v]) % modv[None, :]
        return mat % modv[None, :]

    orders = R.orders + module_orders
    k = kR + kM
    struct = np.zeros((k, k, k), dtype=np.int64)
    eyeR = np.eye(kR, dtype=np.int64)
    for i in range(kR):
        for j in range(kR):
            prod = R.mul[vec_index(R, eyeR[i]), vec_index(R, eyeR[j])]
            struct[i, j, :kR] = R.coeffs[prod]
    for i in range(kR):
        mat = mono_action(tuple(R.monomials[i]))
        for j in range(kM):
            struct[i, kR + j, kR:] = mat[j]
            struct[kR + j, i, kR:] = mat[j]
    one_vec = np.zeros(k, dtype=np.int64)
    one_vec[:kR] = R.coeffs[R.one]
    lab = label or f"idealization({R.label}, module{list(module_orders)})"
    monos = [tuple(m) for m in R.monomials] + [((f"m{j+1}", 1),) for j in range(kM)]
    try:
        ring = FiniteRing.from_struct(
            orders, struct, one_vec, label=lab,
            monomials=monos, size_cap=size_cap)
    except SizeCapError:
        raise
    except RingError as exc:
        raise RingError(f"non-associative or ill-defined module action: {exc}") from exc
    ring.varmap = dict(R.varmap)
    for j in range(kM):
        vec = np.zeros(k, dtype=np.int64)
        vec[kR + j] = 1
        ring.varmap[f"m{j+1}"] = vec_index(ring, vec)
    return ring


# ----------------------------------------------------------------------
# quotients, residues, local structure

def quotient_of_subring(S, subring, ideal, label=None):
    """Quotient of a subring of S by one of its ideals.

    Returns (quotient ring, projection array: ambient index -> class index,
    -1 off the subring).
    """
    if not S.is_ideal_of(subring, ideal):
        raise RingError("quotient by a set that is not an ideal of the subring")
    subring, ideal = S.arr(subring), S.arr(ideal)
    if ideal.size == subring.size:
        raise RingError("quotient by the whole ring")
    proj = np.full(S.size, -1, dtype=np.int32)
    reps = []
    for x in subring.tolist():
        if proj[x] >= 0:
            continue
        cls = np.unique(S.add[x, ideal])
        proj[cls] = len(reps)
        reps.append(int(cls.min()))
    reps = np.array(reps, dtype=np.int32)
    m = reps.size
    add = proj[S.add[np.ix_(reps, reps)]]
    mul = proj[S.mul[np.ix_(reps, reps)]]
    units = [i for i in range(m) if np.array_equal(mul[i], np.arange(m, dtype=np.int32))]
    if len(units) != 1:
        raise RingError("quotient has no unique identity")
    names = [f"[{S.elem_str(int(r))}]" for r in reps.tolist()]
    quo = FiniteRing.from_tables(
        add, mul, units[0], label=label or f"{S.label}/I",
        elem_names=names, size_cap=S.size_cap)
    return quo, proj


def quotient_ring(R, ideal, label=None):
    """R/I for an ideal of the full ring; returns (ring, projection array)."""
    return quotient_of_subring(R, np.arange(R.size, dtype=np.int32), ideal,
                               label=label or f"{R.label}/I")


@dataclass
class LocalFactorDecomposition:
    """Primitive idempotent decomposition of a finite commutative ring
    (restricted to a subring when one is given)."""
    idempotents: list[int]
    factors: list[np.ndarray]           # element sets e*T
    maximal_ideals: list[frozenset]     # maximal ideal of T attached to each


def primitive_idempotents(S, subring=None, unit=None) -> LocalFactorDecomposition:
    """Complete orthogonal set of primitive idempotents of a subring, found
    by exhaustive scan of e^2 = e refined by mutual multiplication; the
    factor count equals |Max| of the subring.  Every call gets fresh lists;
    a given ``unit`` must be the sum."""
    total, prim, factors, maxideals, _ = _decomposition(S, subring)
    if unit is not None and total != unit:
        raise RingError("primitive idempotents do not sum to 1")
    return LocalFactorDecomposition(list(prim), list(factors), list(maxideals))


def _decomposition(S, T):
    """The memo entry of the subring T (None for S itself), keyed by its
    frozenset: each subring is decomposed once per ring."""
    if not isinstance(T, frozenset):
        T = frozenset(range(S.size) if T is None else S.arr(T).tolist())
    return S._cache.fetch(("decomposition", T),
                          lambda: _primitive_decomposition(S, S.arr(T)))


def _primitive_decomposition(S, T):
    """(sum, primitive idempotents, factors e*T, maximal ideals, the same
    ideals sorted) of the subring with index array T; the factor arrays are
    read-only because they are shared.

    An idempotent e is primitive iff the only idempotents g with g*e = g
    are 0 and e: one count over the idempotents, in blocks of rows of about
    2^18 products.  The sum of the primitive idempotents must be the unit
    of T; an identity is unique when it exists, so that is one row: the
    sum acts as 1 on T.  Each e*T is finite and local, so its maximal
    ideal is its nilradical and M_e = {x in T : e*x nilpotent}."""
    idems = T[S.mul[T, T] == T]
    below = np.zeros(idems.size, dtype=np.int64)
    for blk in row_blocks(idems.size, idems.size):
        rows = idems[blk]
        below += (S.mul[rows[:, None], idems] == rows[:, None]).sum(axis=0)
    prim = idems[below == 2]
    products = S.mul[prim[:, None], prim]
    if (products[~np.eye(prim.size, dtype=bool)] != S.zero).any():
        raise RingError("primitive idempotents are not orthogonal")
    acc = S.zero
    for e in prim.tolist():
        acc = int(S.add[acc, e])
    if not np.array_equal(S.mul[acc, T], T):
        raise RingError("primitive idempotents do not sum to 1")
    corners = S.mul[prim[:, None], T]
    in_factor = np.zeros((prim.size, S.size), dtype=bool)
    in_factor[np.arange(prim.size)[:, None], corners] = True
    factors, maxideals = [], []
    for row, nil in zip(in_factor, S.nilpotent_mask()[corners]):
        fac = np.flatnonzero(row).astype(np.int32)
        fac.flags.writeable = False
        factors.append(fac)
        maxideals.append(frozenset(T[nil].tolist()))
    return acc, prim.tolist(), factors, maxideals, sorted(maxideals, key=sorted)


def maximal_ideals(S, subring=None) -> list[frozenset]:
    """All maximal ideals of a subring (= Spec for finite rings), sorted."""
    return list(_decomposition(S, subring)[4])


def residue_field(S, M, subring=None, label=None):
    """(kappa(M), projection) for a maximal ideal M of a subring."""
    T = subring if subring is not None else np.arange(S.size, dtype=np.int32)
    fld, proj = quotient_of_subring(S, T, M, label=label)
    if not is_field(fld):
        raise RingError("quotient is not a field: ideal not maximal")
    return fld, proj


def is_field(R) -> bool:
    """Every nonzero row of mul contains one (the zero row only in 0 = 1)."""
    return int((R.mul == R.one).any(axis=1).sum()) == R.size - 1


def power_fixed_sets(S, q) -> dict[int, frozenset] | None:
    """{d: fixed points of x -> x^(q^d)} over the divisors d of the n with
    |S| = q^n, or None when there is no such n."""
    n = round(math.log(S.size, q))
    if q ** n != S.size:
        return None
    x = np.arange(S.size, dtype=np.int32)
    return {d: frozenset(np.flatnonzero(S.power(x, q ** d) == x).tolist())
            for d in divisors(n)}


def rings_isomorphic(A, B) -> bool:
    """Exhaustive ring-isomorphism test via additive bases (desk scale)."""
    if A.size != B.size:
        return False
    if A.additive_order(A.one) != B.additive_order(B.one):
        return False
    b_order = {x: B.additive_order(x) for x in range(B.size)}
    # the multiset of element orders determines a finite abelian group
    if sorted(map(A.additive_order, range(A.size))) != sorted(b_order.values()):
        return False
    basis = A.abelian_basis()

    def consistent(phi):
        for x in phi:
            for y in phi:
                p = int(A.mul[x, y])
                if p in phi and phi[p] != int(B.mul[phi[x], phi[y]]):
                    return False
        return True

    def search(i, phi):
        if i == len(basis):
            return len(phi) == A.size and phi[A.one] == B.one
        g, o = basis[i]
        for im in range(B.size):
            if b_order[im] != o:
                continue
            new = dict(phi)
            ag, bg = A.zero, B.zero
            ok = True
            for _ in range(1, o):
                ag, bg = int(A.add[ag, g]), int(B.add[bg, im])
                for x, y in list(phi.items()):
                    xa, yb = int(A.add[x, ag]), int(B.add[y, bg])
                    if xa in new or yb in set(new.values()):
                        ok = False
                        break
                    new[xa] = yb
                if not ok:
                    break
            if not ok or not consistent(new):
                continue
            if search(i + 1, new):
                return True
        return False

    return bool(search(0, {A.zero: B.zero}))
