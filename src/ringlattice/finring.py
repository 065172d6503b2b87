"""Exact arithmetic and structure theory for finite commutative unital rings.

A ring is a set of canonically indexed elements ``0..n-1`` together with
complete addition and multiplication tables.  Rings are built either from
additive structure constants (:meth:`FiniteRing.from_struct`, used by all
the named constructors ``zmod`` / ``gf`` / ``product_ring`` /
``quotient_by_relations`` / ``idealization``) or directly from tables
(:meth:`FiniteRing.from_tables`, used for quotients, subset rings and
localizations of rings built from structure constants).  Everything is
exact integer arithmetic.

Subrings and ideals are plain sorted element-index sets (frozensets at the
API level, numpy int32 arrays at the working level), so equality is set
equality and all orderings in the package are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import itertools
import math

import numpy as np

# Ring axioms are checked once, exactly, on the additive generators by
# from_struct: multiplication is the bilinear extension of the structure
# constants, and two multilinear maps agree iff they agree on generators, so
# the check covers every element at every size.  from_tables only builds
# closed subsets and quotients of rings built that way, which inherit the
# axioms; it checks just what its arguments can break (zero, negatives, unit).
DEFAULT_SIZE_CAP = 4096


class RingError(Exception):
    """Invalid ring construction or operation."""


class SizeCapError(RingError):
    """Construction would exceed the configured element-count cap."""


class InconsistentRelationsError(RingError):
    """Quotient relations collapse the ring (e.g. force 1 = 0) or are malformed."""


def as_index_array(xs) -> np.ndarray:
    """Canonical sorted unique int32 array from any iterable of indices."""
    if isinstance(xs, np.ndarray):
        return np.unique(xs).astype(np.int32)
    xs = list(xs)
    if not xs:
        return np.empty(0, np.int32)
    return np.unique(np.array(xs, dtype=np.int32))


def _index_vector(xs) -> np.ndarray:
    """int32 array of the indices in ``xs``, in iteration order."""
    if isinstance(xs, np.ndarray):
        return xs.astype(np.int32, copy=False)
    return np.fromiter(xs, dtype=np.int32)


def join_closure(atoms, join, limit, what) -> set:
    """Every join of a non-empty set of ``atoms`` under the binary
    ``join``.  Each such join is an atom joined onto a smaller one, so
    joining the atoms onto every newly found element reaches all of them.
    Raises RingError once more than ``limit`` elements are found."""
    atoms = list(set(atoms))
    found, frontier = set(atoms), atoms
    while frontier:
        fresh = []
        for x in frontier:
            if len(found) > limit:
                raise RingError(f"{what} exceeded {limit} nodes; "
                                "raise the limit to continue")
            for a in atoms:
                y = join(x, a)
                if y not in found:
                    found.add(y)
                    fresh.append(y)
        frontier = fresh
    return found


class FiniteRing:
    """A finite commutative unital ring with full operation tables.

    Attributes:
        size: number of elements; elements are the indices ``range(size)``.
        add, mul: ``size x size`` int32 operation tables.
        neg: length-``size`` additive-inverse table.
        zero, one: element indices of the identities.
        orders: additive orders of the construction generators (struct path)
            or invariant factors of the additive group (derived rings).
        coeffs: ``size x k`` coefficient vectors over the construction
            generators; ``None`` for table-derived rings.
        varmap: algebra generators usable in element expressions.
        label: human-readable construction description.
    """

    def __init__(self, *, size, add, mul, neg, zero, one, label, kind,
                 orders=None, coeffs=None, varmap=None, monomials=None,
                 factors=None, elem_names=None, size_cap=DEFAULT_SIZE_CAP):
        self.size = int(size)
        if self.size > size_cap:
            raise SizeCapError(f"ring size {size} exceeds cap {size_cap}")
        self.add = add
        self.mul = mul
        self.neg = neg
        self.zero = int(zero)
        self.one = int(one)
        self.label = label
        self.kind = kind
        self.orders = tuple(orders) if orders is not None else None
        self.coeffs = coeffs
        self.varmap = dict(varmap) if varmap else {}
        # per construction generator: tuple of (var, exp) pairs describing the
        # monomial it represents; () is the unit basis element
        self.monomials = monomials
        self.factors = factors          # component rings of a product
        self.elem_names = elem_names    # explicit element names (derived rings)
        self.size_cap = size_cap
        # subring index bytes -> primitive decomposition (primitive_idempotents)
        self._decompositions = {}

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_struct(cls, orders, struct, one_vec, *, label, kind,
                    varmap=None, monomials=None, factors=None,
                    size_cap=DEFAULT_SIZE_CAP):
        """Build a ring from additive structure constants.

        ``orders`` lists the orders of the additive generators (the additive
        group is the direct sum of the corresponding cyclic groups);
        ``struct[i][j]`` is the coefficient vector of the product of
        generators i and j; multiplication is its bilinear extension;
        ``one_vec`` is the coefficient vector of the multiplicative identity.
        The ring axioms are verified exactly on the generators.
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

        # mixed-radix indexing: index = coeffs . radix, last coordinate fastest
        radix = np.ones(k, dtype=np.int64)
        for i in range(k - 2, -1, -1):
            radix[i] = radix[i + 1] * orders[i + 1]
        coeffs = np.indices(orders).reshape(k, size).T.astype(np.int64)

        def encode(vecs):
            return (np.asarray(vecs, dtype=np.int64) % ordv) @ radix

        add = encode(coeffs[:, None, :] + coeffs[None, :, :]).astype(np.int32)
        neg = encode(-coeffs).astype(np.int32)
        # x * e_j for every x and j, then extend bilinearly in y
        xe = np.einsum('xi,ijv->xjv', coeffs, struct) % ordv
        mul = np.empty((size, size), dtype=np.int32)
        chunk = max(1, (1 << 22) // max(1, size * k))
        for lo in range(0, size, chunk):
            hi = min(size, lo + chunk)
            block = np.einsum('yj,xjv->xyv', coeffs, xe[lo:hi]) % ordv
            mul[lo:hi] = encode(block)
        one = int(encode(one_vec[None, :])[0])

        return cls(size=size, add=add, mul=mul, neg=neg, zero=0, one=one,
                   label=label, kind=kind, orders=orders, coeffs=coeffs,
                   varmap=varmap, monomials=monomials, factors=factors,
                   size_cap=size_cap)

    @classmethod
    def from_tables(cls, add, mul, one, *, label, kind, elem_names=None,
                    size_cap=DEFAULT_SIZE_CAP):
        """Build a ring directly from operation tables.

        The tables must come from a validated ring: a closed subset of it
        re-indexed (:meth:`subset_ring`), a quotient by an ideal
        (:func:`quotient_of_subring`), or the square-zero doubling of one.
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
        ring = cls(size=size, add=add, mul=mul, neg=neg, zero=zero, one=int(one),
                   label=label, kind=kind, elem_names=elem_names, size_cap=size_cap)
        ring.orders = ring.additive_invariants()
        return ring

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
        r = self.one
        for _ in range(k):
            r = int(self.mul[r, x])
        return r

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
        i = int(i)
        if self.elem_names is not None:
            return self.elem_names[i]
        if self.factors is not None:
            parts = []
            off = 0
            for fac in self.factors:
                kf = len(fac.orders)
                vec = self.coeffs[i][off:off + kf]
                parts.append(fac.elem_str(vec_index(fac, vec)))
                off += kf
            return "(" + ", ".join(parts) + ")"
        if self.coeffs is not None and self.monomials is not None:
            terms = []
            for c, mono in zip(self.coeffs[i], self.monomials):
                if c == 0:
                    continue
                mstr = "*".join(f"{v}^{e}" if e > 1 else v for v, e in mono)
                if not mstr:
                    terms.append(str(int(c)))
                elif c == 1:
                    terms.append(mstr)
                else:
                    terms.append(f"{int(c)}*{mstr}")
            return " + ".join(terms) if terms else "0"
        return f"#{i}"

    def radix(self):
        k = len(self.orders)
        radix = np.ones(k, dtype=np.int64)
        for i in range(k - 2, -1, -1):
            radix[i] = radix[i + 1] * self.orders[i + 1]
        return radix

    # ------------------------------------------------------------------
    # subset machinery: closures over element-index sets
    #
    # Subgroups, ideals and subrings are all one thing: the smallest
    # additive subgroup containing a generator set and closed under
    # x -> x*m for every m in a multiplier set (none for subgroups, the
    # ambient subring for ideals, the seed itself for subrings).  The span
    # of generators g_i is closed under a multiplier m as soon as every
    # g_i*m lies in it, because (sum c_i g_i)*m = sum c_i (g_i m); so
    # _span_closure only ever multiplies generators, never the span.

    def _span_closure(self, gens, mults=()) -> np.ndarray:
        """The closure described above, as a sorted index array; each new
        generator adds its cosets, then queues its products."""
        inside = np.zeros(self.size, dtype=bool)
        inside[self.zero] = True
        span = np.array([self.zero], dtype=np.int32)
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
            # span + <g> is the union of the cosets k*g + span
            cosets = [span]
            c = g
            while not inside[c]:
                coset = self.add[c, span]
                inside[coset] = True
                cosets.append(coset)
                c = self.add[c, g]
            span = np.concatenate(cosets)
            if mults.size:
                pending.append(self.mul[g, mults])
        return np.flatnonzero(inside).astype(np.int32)

    def additive_closure(self, seed) -> np.ndarray:
        """Subgroup of (R,+) generated by ``seed`` (no multipliers)."""
        return self._span_closure(seed)

    def subring_closure(self, seed) -> np.ndarray:
        """Smallest unital subring containing ``seed``: the span of 1 and
        the seed, closed under the seed as multipliers, holds every monomial
        in the seed."""
        seed = list(seed)
        return self._span_closure(seed + [self.one], seed)

    def mask(self, subset) -> np.ndarray:
        """Length-``size`` boolean membership mask of an index set, so a
        membership test is the gather ``mask[X]`` instead of a sort."""
        inside = np.zeros(self.size, dtype=bool)
        inside[_index_vector(subset)] = True
        return inside

    def is_subring(self, subset) -> bool:
        s = as_index_array(subset)
        inside = self.mask(s)
        if not inside[self.one]:
            return False
        return bool(inside[self.add[np.ix_(s, s)]].all()
                    and inside[self.mul[np.ix_(s, s)]].all())

    def ideal_closure(self, within, gens) -> np.ndarray:
        """Ideal of the subring ``within`` generated by ``gens`` (multipliers
        ``within``)."""
        return self._span_closure(gens, within)

    def is_ideal_of(self, within, subset) -> bool:
        within = as_index_array(within)
        s = as_index_array(subset)
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

    def all_ideals(self, within, limit=100000) -> list[frozenset]:
        """Every ideal of the subring ``within``: join-closure of the
        principal ideals (every ideal is a finite sum of principal ones)."""
        within = as_index_array(within)
        found = join_closure(
            {frozenset(self.ideal_closure(within, [g]).tolist()) for g in within},
            lambda a, b: frozenset(self.additive_closure(a | b).tolist()),
            limit, "ideal enumeration")
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def idempotents_in(self, subset) -> list[int]:
        s = as_index_array(subset)
        return [int(e) for e in s.tolist() if self.mul[e, e] == e]

    def subset_ring(self, subset, unit, label=None):
        """Re-index a closed subset as a standalone ring with the given unit.
        Returns (ring, old-index array new->old)."""
        s = as_index_array(subset)
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
            kind="derived", elem_names=names, size_cap=self.size_cap)
        return ring, s

    # ------------------------------------------------------------------
    # additive group structure

    def additive_invariants(self, subset=None) -> tuple[int, ...]:
        """Invariant factors of the additive group (largest first), from
        kernel counts of multiplication by prime powers."""
        s = as_index_array(subset) if subset is not None \
            else np.arange(self.size, dtype=np.int32)
        n = s.size
        per_prime = {}
        for p in prime_factors(n):
            exps = []
            prev = 0
            j = 1
            while True:
                kills = sum(1 for x in s.tolist() if self.times(p ** j, int(x)) == self.zero)
                lam = round(math.log(kills, p))
                if lam - prev == 0:
                    break
                exps.append(lam - prev)
                prev = lam
                j += 1
            counts = []
            for i in range(len(exps)):
                nxt = exps[i + 1] if i + 1 < len(exps) else 0
                counts += [i + 1] * (exps[i] - nxt)
            per_prime[p] = sorted((p ** e for e in counts), reverse=True)
        width = max((len(v) for v in per_prime.values()), default=0)
        invs = []
        for i in range(width):
            f = 1
            for lst in per_prime.values():
                if i < len(lst):
                    f *= lst[i]
            invs.append(f)
        return tuple(invs)

    def abelian_basis(self, subset=None) -> list[tuple[int, int]]:
        """A direct-sum basis of the additive group as (element, order) pairs.

        Greedy per prime component: repeatedly adjoin the largest-order
        element whose cyclic span meets the current span trivially.  The
        order product is asserted to reach the group size, so a failure of
        the strategy cannot pass silently.
        """
        s = as_index_array(subset) if subset is not None \
            else np.arange(self.size, dtype=np.int32)
        n = s.size
        basis = []
        for p in prime_factors(n):
            pe = p ** padic_val(n, p)
            comp = [int(x) for x in s.tolist() if self.times(pe, int(x)) == self.zero]
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
               @ ring.radix())


# ----------------------------------------------------------------------
# named constructors

def zmod(n, size_cap=DEFAULT_SIZE_CAP):
    """The ring of integers modulo n."""
    if n < 2:
        raise RingError(f"modulus must be >= 2, got {n}")
    return FiniteRing.from_struct(
        (n,), np.array([[[1]]]), [1], label=f"zmod({n})", kind="zmod",
        varmap={}, monomials=[()], size_cap=size_cap)


def _poly_mul_mod(a, b, f, p):
    """Product of coefficient lists a, b over F_p reduced mod monic f."""
    k = len(f) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] = (prod[i + j] + ca * cb) % p
    for d in range(len(prod) - 1, k - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for i in range(k):
                prod[d - k + i] = (prod[d - k + i] - c * f[i]) % p
    prod = prod[:k] + [0] * max(0, k - len(prod))
    return [c % p for c in prod[:k]]


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


@lru_cache(maxsize=None)
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


def gf(p, k=1, size_cap=DEFAULT_SIZE_CAP):
    """The finite field with p^k elements, as F_p[x]/(f) for the
    lexicographically least monic irreducible f of degree k (sieve)."""
    if p < 2 or any(p % q == 0 for q in range(2, p)):
        raise RingError(f"gf characteristic must be prime, got {p}")
    if k < 1:
        raise RingError(f"gf degree must be >= 1, got {k}")
    if k == 1:
        r = zmod(p, size_cap)
        r.label = f"gf({p})"
        r.kind = "gf"
        return r
    f = list(least_irreducible(p, k)) + [1]
    basis = [[1 if i == j else 0 for i in range(k)] for j in range(k)]
    struct = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            struct[i, j] = _poly_mul_mod(basis[i], basis[j], f, p)
    monomials = [() if j == 0 else (("x", j),) for j in range(k)]
    ring = FiniteRing.from_struct(
        (p,) * k, struct, basis[0], label=f"gf({p},{k})", kind="gf",
        monomials=monomials, size_cap=size_cap)
    ring.varmap = {"x": vec_index(ring, basis[1])}
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
    radix = np.ones(k, dtype=np.int64)
    for i in range(k - 2, -1, -1):
        radix[i] = radix[i + 1] * orders[i + 1]
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
        orders, struct, coords[ring.one], label=ring.label, kind=ring.kind,
        size_cap=ring.size_cap)
    out.elem_names = [ring.elem_names[int(o)] if ring.elem_names is not None
                      else f"#{int(o)}" for o in old_of_new]
    out.varmap = {name: pos[idx] for name, idx in ring.varmap.items()}
    return out, old_of_new


def product_ring(rings, size_cap=DEFAULT_SIZE_CAP, label=None):
    """Direct product of finitely many rings."""
    if not rings:
        raise RingError("product needs at least one factor")
    structs = [as_struct_ring(r)[0] for r in rings]
    size = math.prod(r.size for r in structs)
    if size > size_cap:
        raise SizeCapError(f"product size {size} exceeds cap {size_cap}")
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
                prod_idx = r.mul[vec_index(r, eye[i]), vec_index(r, eye[j])]
                struct[off + i, off + j, off:off + kf] = r.coeffs[prod_idx]
        one_vec[off:off + kf] = r.coeffs[r.one]
        off += kf
    lab = label or "product(" + ", ".join(r.label for r in structs) + ")"
    return FiniteRing.from_struct(orders, struct, one_vec, label=lab,
                                  kind="product", factors=structs,
                                  size_cap=size_cap)


def embed_in_product(prod, which, elem):
    """Index in the product of the element that is ``elem`` in factor
    ``which`` and 0 elsewhere."""
    vec = np.zeros(len(prod.orders), dtype=np.int64)
    off = 0
    for i, fac in enumerate(prod.factors):
        kf = len(fac.orders)
        if i == which:
            vec[off:off + kf] = fac.coeffs[elem]
        off += kf
    return vec_index(prod, vec)


def product_element(prod, comps):
    """Index of the tuple (c_0, ..., c_m) in the product ring."""
    if len(comps) != len(prod.factors):
        raise RingError("component count mismatch")
    x = prod.zero
    for i, c in enumerate(comps):
        x = int(prod.add[x, embed_in_product(prod, i, c)])
    return x


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
    Rs, _ = as_struct_ring(R)
    if Rs.monomials is None:
        raise RingError("quotient base must expose a monomial basis "
                        "(build it with zmod/gf/quotient)")
    newvars = sorted({v for rel in relations for m, _ in rel.terms for v, _ in m})
    if not newvars:
        raise InconsistentRelationsError("quotient relations adjoin no new variable")
    clash = [v for v in newvars if v in Rs.varmap]
    if clash:
        raise InconsistentRelationsError(
            f"variable name(s) {', '.join(clash)} already used by the base ring")

    power_rule = {}
    extra = []
    for rel in relations:
        if not rel.terms:
            continue
        mono, coeff = max(rel.terms, key=lambda t: (mono_deg(t[0]), t[0]))
        if (len(mono) == 1 and mono[0][0] not in power_rule and coeff == Rs.one
                and all(mono_deg(m) < mono_deg(mono) for m, _ in rel.terms if m != mono)):
            v, d = mono[0]
            rest = {m: int(Rs.neg[c]) for m, c in rel.terms if m != mono}
            power_rule[v] = (d, poly_from_dict(Rs, rest))
        else:
            extra.append(rel)
    missing = [v for v in newvars if v not in power_rule]
    if missing:
        raise InconsistentRelationsError(
            f"no monic power relation for variable(s) {', '.join(missing)}: each "
            "adjoined variable needs a relation led by x^d with unit coefficient "
            "and lower-degree tail")

    degs = {v: power_rule[v][0] for v in newvars}
    if math.prod(degs.values()) * Rs.size > size_cap:
        raise SizeCapError(
            f"truncated quotient size {math.prod(degs.values()) * Rs.size} "
            f"exceeds cap {size_cap}")

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
            repl = poly_mul(Rs, Poly(((rest, c),)), tail)
            poly = poly_add(Rs, Poly(tuple(t for t in poly.terms if t[0] != m)), repl)

    monos = [tuple((v, e) for v, e in zip(newvars, exps) if e)
             for exps in itertools.product(*(range(degs[v]) for v in newvars))]
    monos.sort(key=lambda m: (mono_deg(m), m))
    mono_pos = {m: i for i, m in enumerate(monos)}
    kR = len(Rs.orders)
    kA = len(monos) * kR
    orders = [o for _ in monos for o in Rs.orders]

    def poly_to_vec(poly):
        vec = np.zeros(kA, dtype=np.int64)
        for m, c in poly.terms:
            vec[mono_pos[m] * kR:(mono_pos[m] + 1) * kR] += Rs.coeffs[c]
        return vec

    eyeR = np.eye(kR, dtype=np.int64)
    base_gen_elem = [vec_index(Rs, eyeR[b]) for b in range(kR)]
    struct = np.zeros((kA, kA, kA), dtype=np.int64)
    for i in range(kA):
        mi, bi = divmod(i, kR)
        for j in range(i, kA):
            mj, bj = divmod(j, kR)
            prod = poly_mul(Rs,
                            Poly(((monos[mi], base_gen_elem[bi]),)),
                            Poly(((monos[mj], base_gen_elem[bj]),)))
            vec = poly_to_vec(reduce_poly(prod))
            struct[i, j] = vec
            struct[j, i] = vec
    one_vec = np.zeros(kA, dtype=np.int64)
    one_vec[:kR] = Rs.coeffs[Rs.one]

    base_monos = Rs.monomials
    new_monomials = [mono_mul(m, tuple(base_monos[b]))
                     for m in monos for b in range(kR)]
    lab = label or f"{Rs.label}[{','.join(newvars)}]/(rels)"
    trunc = FiniteRing.from_struct(
        orders, struct, one_vec, label=lab, kind="quotient",
        monomials=new_monomials, size_cap=size_cap)
    trunc.varmap = {}
    for name, idx in Rs.varmap.items():
        vec = np.zeros(kA, dtype=np.int64)
        vec[:kR] = Rs.coeffs[idx]
        trunc.varmap[name] = vec_index(trunc, vec)
    for v in newvars:
        red = reduce_poly(Poly(((((v, 1),), Rs.one),)))
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
    out.kind = "quotient"
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
    Rs, _ = as_struct_ring(R)
    if Rs.monomials is None:
        raise RingError("idealization base must expose a monomial basis "
                        "(build it with zmod/gf/quotient)")
    module_orders = tuple(int(o) for o in module_orders)
    if not module_orders or any(o < 2 for o in module_orders):
        raise RingError("module generator orders must all be >= 2")
    kR, kM = len(Rs.orders), len(module_orders)
    action = {k: np.asarray(v, dtype=np.int64) for k, v in (action or {}).items()}
    for name, mat in action.items():
        if name not in Rs.varmap:
            raise RingError(f"action names unknown variable {name!r}")
        if mat.shape != (kM, kM):
            raise RingError(f"action matrix for {name!r} must be {kM}x{kM}")
    missing = [v for v in Rs.varmap if v not in action]
    if missing:
        raise RingError(
            f"idealization action missing for variable(s) {', '.join(missing)}")

    modv = np.array(module_orders, dtype=np.int64)

    def mono_action(mono):
        mat = np.eye(kM, dtype=np.int64)
        for v, e in mono:
            for _ in range(e):
                mat = (mat @ action[v]) % modv[None, :]
        return mat % modv[None, :]

    orders = Rs.orders + module_orders
    k = kR + kM
    struct = np.zeros((k, k, k), dtype=np.int64)
    eyeR = np.eye(kR, dtype=np.int64)
    for i in range(kR):
        for j in range(kR):
            prod = Rs.mul[vec_index(Rs, eyeR[i]), vec_index(Rs, eyeR[j])]
            struct[i, j, :kR] = Rs.coeffs[prod]
    for i in range(kR):
        mat = mono_action(tuple(Rs.monomials[i]))
        for j in range(kM):
            struct[i, kR + j, kR:] = mat[j]
            struct[kR + j, i, kR:] = mat[j]
    one_vec = np.zeros(k, dtype=np.int64)
    one_vec[:kR] = Rs.coeffs[Rs.one]
    lab = label or f"idealization({Rs.label}, module{list(module_orders)})"
    monos = [tuple(m) for m in Rs.monomials] + [((f"m{j+1}", 1),) for j in range(kM)]
    try:
        ring = FiniteRing.from_struct(
            orders, struct, one_vec, label=lab, kind="idealization",
            monomials=monos, size_cap=size_cap)
    except SizeCapError:
        raise
    except RingError as exc:
        raise RingError(f"non-associative or ill-defined module action: {exc}") from exc
    ring.varmap = dict(Rs.varmap)
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
    subring = as_index_array(subring)
    ideal = as_index_array(ideal)
    if not S.is_ideal_of(subring, ideal):
        raise RingError("quotient by a set that is not an ideal of the subring")
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
        add, mul, units[0], label=label or f"{S.label}/I", kind="quotient",
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


def subring_unit(S, T):
    """The multiplicative identity of the closed subset T; RingError unless
    exactly one element acts as 1 on T."""
    T = as_index_array(T)
    units = T[(S.mul[np.ix_(T, T)] == T).all(axis=1)]
    if units.size != 1:
        raise RingError("subset has no unique multiplicative identity")
    return int(units[0])


def primitive_idempotents(S, subring=None, unit=None) -> LocalFactorDecomposition:
    """Complete orthogonal set of primitive idempotents of a subring, found
    by exhaustive scan of e^2 = e refined by mutual multiplication; the
    factor count equals |Max| of the subring.  Each subring is decomposed
    once per ring (memoised on S by its index set); every call gets fresh
    lists and checks the sum against its own ``unit``."""
    T = as_index_array(subring) if subring is not None \
        else np.arange(S.size, dtype=np.int32)
    if unit is None:
        unit = S.one if subring is None else subring_unit(S, T)
    key = T.tobytes()
    dec = S._decompositions.get(key)
    if dec is None:
        dec = S._decompositions[key] = _primitive_decomposition(S, T)
    total, prim, factors, maxideals = dec
    if total != unit:
        raise RingError("primitive idempotents do not sum to 1")
    return LocalFactorDecomposition(list(prim), list(factors), list(maxideals))


def _primitive_decomposition(S, T):
    """(sum, primitive idempotents, factors e*T, maximal ideals) of the
    subring T; the factor arrays are read-only because they are shared."""
    idems = [e for e in S.idempotents_in(T) if e != S.zero]
    prim = sorted(e for e in idems
                  if not any(g != e and S.mul[g, e] == g for g in idems))
    acc = S.zero
    for i, e in enumerate(prim):
        acc = int(S.add[acc, e])
        for f in prim[i + 1:]:
            if S.mul[e, f] != S.zero:
                raise RingError("primitive idempotents are not orthogonal")
    factors, maxideals = [], []
    for e in prim:
        fac = np.unique(S.mul[e, T])
        fac.flags.writeable = False
        # the maximal ideal of e*T is its non-units; M = {x : e*x in it}
        inv = (S.mul[np.ix_(fac, fac)] == e).any(axis=1)
        non_unit = S.mask(fac[~inv])
        factors.append(fac)
        maxideals.append(frozenset(T[non_unit[S.mul[e, T]]].tolist()))
    return acc, prim, factors, maxideals


def maximal_ideals(S, subring=None) -> list[frozenset]:
    """All maximal ideals of a subring (= Spec for finite rings), sorted."""
    dec = primitive_idempotents(S, subring)
    return sorted(dec.maximal_ideals, key=sorted)


def residue_field(S, M, subring=None, label=None):
    """(kappa(M), projection) for a maximal ideal M of a subring."""
    T = as_index_array(subring) if subring is not None \
        else np.arange(S.size, dtype=np.int32)
    fld, proj = quotient_of_subring(S, T, as_index_array(M), label=label)
    if not is_field(fld):
        raise RingError("quotient is not a field: ideal not maximal")
    return fld, proj


def is_field(R) -> bool:
    nonzero = [x for x in range(R.size) if x != R.zero]
    if not nonzero:
        return False
    return all((R.mul[x, nonzero] == R.one).any() for x in nonzero)


def is_local(S, subring=None) -> bool:
    return len(primitive_idempotents(S, subring).idempotents) == 1


def rings_isomorphic(A, B) -> bool:
    """Exhaustive ring-isomorphism test via additive bases (desk scale)."""
    if A.size != B.size:
        return False
    if A.additive_invariants() != B.additive_invariants():
        return False
    if A.additive_order(A.one) != B.additive_order(B.one):
        return False
    basis = A.abelian_basis()
    b_order = {x: B.additive_order(x) for x in range(B.size)}

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
