"""Ring extensions R <= S inside a fixed ambient finite ring.

An :class:`Extension` is a pair of nested unital subrings (``base``,
``top``) of an ambient :class:`~ringlattice.finring.FiniteRing`; the usual
case is ``top`` = the whole ambient ring.  This module provides the
interval enumeration, conductor and support machinery, localization by
primitive idempotents, minimal-extension classification and the canonical
closure operations (seminormalization, t-closure, u-closure,
co-subintegral closure), plus splitters and complements.

All predicates are computed from their element-level or spectrum-level
definitions by exhaustive scans; closure operations filter the enumerated
interval and assert the uniqueness of their extremum instead of trusting
it, so a wrong uniqueness claim surfaces as a :class:`TheoremViolation`.
"""

from __future__ import annotations

from dataclasses import dataclass
import enum

import numpy as np

from . import finring as fr
from .finring import as_index_array
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
    computed lazily and cached on the instance; everything is immutable
    after construction.
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
        if len(self.top) != ambient.size and not ambient.is_subring(self.top):
            raise fr.RingError("top is not a unital subring of the ambient ring")
        self._cache = {}

    def __repr__(self):
        nm = f"{self.name}: " if self.name else ""
        return (f"Extension({nm}{len(self.base)} <= {len(self.top)} "
                f"in {self.ambient.label})")

    @property
    def base_arr(self):
        if "base_arr" not in self._cache:
            self._cache["base_arr"] = as_index_array(self.base)
        return self._cache["base_arr"]

    @property
    def top_arr(self):
        if "top_arr" not in self._cache:
            self._cache["top_arr"] = as_index_array(self.top)
        return self._cache["top_arr"]

    @property
    def trivial(self):
        return self.base == self.top

    def sub(self, lo, hi):
        """The subextension lo <= hi (frozensets of ambient indices)."""
        return Extension(self.ambient, lo, hi)

    # cached heavy analyses -------------------------------------------

    def lattice(self, node_limit=DEFAULT_NODE_LIMIT) -> ExtensionLattice:
        if "lattice" not in self._cache:
            self._cache["lattice"] = enumerate_interval(self, node_limit)
        return self._cache["lattice"]

    def base_decomposition(self) -> fr.LocalFactorDecomposition:
        return fr.primitive_idempotents(self.ambient, self.base_arr,
                                        unit=self.ambient.one)

    def top_decomposition(self) -> fr.LocalFactorDecomposition:
        return fr.primitive_idempotents(self.ambient, self.top_arr,
                                        unit=self.ambient.one)

    def max_ideals_base(self) -> list[frozenset]:
        return sorted(self.base_decomposition().maximal_ideals, key=sorted)

    def max_ideals_top(self) -> list[frozenset]:
        return sorted(self.top_decomposition().maximal_ideals, key=sorted)

    def profile(self) -> SupportProfile:
        if "profile" not in self._cache:
            self._cache["profile"] = support_profile(self)
        return self._cache["profile"]

    def flags(self) -> ExtensionFlags:
        if "flags" not in self._cache:
            self._cache["flags"] = extension_flags(self)
        return self._cache["flags"]

    def decomposition(self) -> CanonicalDecomposition:
        if "decomp" not in self._cache:
            self._cache["decomp"] = canonical_decomposition(self)
        return self._cache["decomp"]

    def localized(self, M) -> "Extension":
        """The localization at the maximal ideal M of the base.  A local
        base has the primitive idempotent 1, so when the top is the whole
        ambient ring the localization is this extension itself (sharing its
        cached lattice and flags)."""
        key = ("loc", M)
        if key not in self._cache:
            dec = self.base_decomposition()
            if dec.maximal_ideals == [frozenset(M)] and \
                    len(self.top) == self.ambient.size:
                self._cache[key] = self
            else:
                self._cache[key] = localize_at(self, M)
        return self._cache[key]


# ----------------------------------------------------------------------
# subring generation and interval enumeration

def prime_subring(S: fr.FiniteRing) -> frozenset:
    """The smallest unital subring of S."""
    return frozenset(S.subring_closure([]).tolist())


def generated_subring(S: fr.FiniteRing, base, elems) -> frozenset:
    """Smallest subring of S containing base and elems (closure to fixpoint)."""
    return frozenset(S.subring_closure(list(base) + [int(e) for e in elems]).tolist())


def monogenic_subrings(E: Extension) -> list[frozenset]:
    """All base[s] for s in top, deduplicated, base included."""
    S = E.ambient
    base_list = sorted(E.base)
    seen = {E.base}
    for s in sorted(E.top - E.base):
        T = frozenset(S.subring_closure(base_list + [s]).tolist())
        seen.add(T)
    return sorted(seen, key=lambda t: (len(t), sorted(t)))


def enumerate_interval(E: Extension, node_limit=DEFAULT_NODE_LIMIT) -> ExtensionLattice:
    """The complete lattice [base, top]: every intermediate ring is a join
    of monogenic ones, so the node set is the join-closure of
    {base[s] : s in top} and the enumeration is exhaustive."""
    S = E.ambient
    join_memo = {}

    def join_of(a, b):
        if a <= b:
            return b
        if b <= a:
            return a
        j = join_memo.get((a, b))
        if j is None:
            j = frozenset(S.subring_closure(a | b).tolist())
            join_memo[(a, b)] = join_memo[(b, a)] = j
        return j

    nodes = fr.join_closure(monogenic_subrings(E), join_of, node_limit,
                            "interval enumeration")
    if E.top not in nodes:
        raise TheoremViolation("join closure failed to reach the top ring")
    # the memo holds every incomparable (node, monogenic subring) join, and
    # every join-irreducible node is monogenic
    return ExtensionLattice(nodes, join_memo, ambient=S)


def maximal_chain(E: Extension) -> list[frozenset]:
    """A deterministic maximal chain from base to top: at each step adjoin
    the element giving the smallest monogenic extension (which is then a
    minimal step), ties broken by element index."""
    S = E.ambient
    chain = [E.base]
    cur = E.base
    while cur != E.top:
        best = None
        for s in sorted(E.top - cur):
            T = frozenset(S.subring_closure(sorted(cur) + [s]).tolist())
            if best is None or len(T) < len(best) or \
                    (len(T) == len(best) and sorted(T) < sorted(best)):
                best = T
        chain.append(best)
        cur = best
    return chain


# ----------------------------------------------------------------------
# conductor, support, localization, fibers, residues

def conductor_pair(S: fr.FiniteRing, lo, hi) -> frozenset:
    """(lo : hi) = {z in lo : z*hi <= lo}, the largest common ideal."""
    lo_arr, hi_arr = as_index_array(lo), as_index_array(hi)
    cond = lo_arr[S.mask(lo_arr)[S.mul[np.ix_(lo_arr, hi_arr)]].all(axis=1)]
    if not S.is_ideal_of(lo_arr, cond) or not S.is_ideal_of(hi_arr, cond):
        raise TheoremViolation("conductor is not an ideal of both rings")
    return frozenset(cond.tolist())


def conductor(E: Extension) -> frozenset:
    return conductor_pair(E.ambient, E.base, E.top)


def support_profile(E: Extension) -> SupportProfile:
    """MSupp(top/base) via localization by the primitive idempotents of the
    base; for integral finite extensions Supp = MSupp."""
    S = E.ambient
    dec = E.base_decomposition()
    msupp = []
    for e, M in zip(dec.idempotents, dec.maximal_ideals):
        eR = np.unique(S.mul[e, E.base_arr])
        eS = np.unique(S.mul[e, E.top_arr])
        if eR.size != eS.size:
            msupp.append(M)
    msupp.sort(key=sorted)
    crucial = msupp[0] if len(msupp) == 1 else None
    return SupportProfile(msupp=msupp, crucial=crucial, conductor=conductor(E))


def localize_at(E: Extension, M) -> Extension:
    """The localization of the extension at a maximal ideal M of the base,
    realized as multiplication by the primitive idempotent attached to M
    (for Artinian rings this is the classical localization).  Returns a
    fresh extension on the re-indexed ring e*top."""
    S = E.ambient
    dec = E.base_decomposition()
    try:
        i = dec.maximal_ideals.index(frozenset(M))
    except ValueError:
        raise fr.RingError("not a maximal ideal of the base ring") from None
    e = dec.idempotents[i]
    eS = np.unique(S.mul[e, E.top_arr])
    eR = np.unique(S.mul[e, E.base_arr])
    ring, old = S.subset_ring(eS, e, label=f"({S.label})_loc")
    pos = {int(x): i for i, x in enumerate(old.tolist())}
    base = frozenset(pos[int(x)] for x in eR.tolist())
    return Extension(ring, base, name=(E.name or "E") + "@loc")


def msupp_of_pair(E: Extension, lo, hi) -> list[frozenset]:
    """MSupp_base(hi/lo) for base <= lo <= hi <= top, as ideals of base."""
    S = E.ambient
    dec = E.base_decomposition()
    lo_arr, hi_arr = as_index_array(lo), as_index_array(hi)
    out = []
    for e, M in zip(dec.idempotents, dec.maximal_ideals):
        if np.unique(S.mul[e, lo_arr]).size != np.unique(S.mul[e, hi_arr]).size:
            out.append(M)
    return sorted(out, key=sorted)


def fibers(E: Extension) -> dict[frozenset, list[frozenset]]:
    """For each maximal ideal P of the base, the maximal ideals of the top
    contracting to it; the fibers cover Max(top)."""
    maxR = E.max_ideals_base()
    maxS = E.max_ideals_top()
    out = {P: [] for P in maxR}
    for Q in maxS:
        P = frozenset(Q) & E.base
        if P not in out:
            raise TheoremViolation("contraction of a maximal ideal is not maximal "
                                   "(extension not integral?)")
        out[P].append(Q)
    if sum(len(v) for v in out.values()) != len(maxS):
        raise TheoremViolation("fibers do not cover Max(top)")
    return out


def residual_extension(E: Extension, Q):
    """(kappa_base(Q cap base), kappa_top(Q), embedding array) for Q maximal
    in the top ring; both are finite fields."""
    S = E.ambient
    Q = frozenset(Q)
    if Q not in E.max_ideals_top():
        raise fr.RingError("Q is not a maximal ideal of the top ring")
    P = Q & E.base
    kR, projR = fr.residue_field(S, as_index_array(P), E.base_arr,
                                 label="kappa(base)")
    kS, projS = fr.residue_field(S, as_index_array(Q), E.top_arr,
                                 label="kappa(top)")
    embed = np.full(kR.size, -1, dtype=np.int32)
    for x in sorted(E.base):
        embed[projR[x]] = projS[x]
    if (embed < 0).any() or len(set(embed.tolist())) != kR.size:
        raise TheoremViolation("residual embedding is not well-defined/injective")
    return kR, kS, embed


def residual_degrees(E: Extension) -> list[tuple[int, int]]:
    """(|kappa_base(QcapR)|, |kappa_top(Q)|) for each Q in Max(top)."""
    S = E.ambient
    out = []
    for Q in E.max_ideals_top():
        P = Q & E.base
        out.append((len(E.base) // len(P), len(E.top) // len(Q)))
    return out


# ----------------------------------------------------------------------
# minimal extensions

def is_minimal_pair(S: fr.FiniteRing, lo, hi) -> bool:
    """Definitional minimality by monogenic search: no s with
    lo < lo[s] < hi.  (If every lo[s] = hi for s outside lo, any strictly
    intermediate ring would contain such an lo[s].)"""
    lo, hi = frozenset(lo), frozenset(hi)
    if lo == hi:
        return False
    lo_list = sorted(lo)
    for s in sorted(hi - lo):
        T = frozenset(S.subring_closure(lo_list + [s]).tolist())
        if T != hi:
            return False
    return True


def classify_minimal_pair(S: fr.FiniteRing, lo, hi, assume_minimal=False):
    """The minimal-extension type of lo < hi, or None when not minimal.

    Decision data: the conductor M = (lo:hi) must be maximal in lo; then
      inert       M maximal in hi with minimal residue-field step;
      decomposed  two maximal ideals of hi meet lo in M, trivial residues;
      ramified    unique M' with M'^2 <= M < M', dim 2, trivial residue.
    Exactly one case must hold; anything else raises, it is never guessed.
    """
    lo, hi = frozenset(lo), frozenset(hi)
    if not assume_minimal and not is_minimal_pair(S, lo, hi):
        return None
    if lo == hi:
        return None
    lo_arr, hi_arr = as_index_array(lo), as_index_array(hi)
    M = conductor_pair(S, lo, hi)
    M_arr = as_index_array(M)
    if M not in fr.maximal_ideals(S, lo_arr):
        raise TheoremViolation("conductor of a minimal extension is not maximal")
    q = len(lo) // len(M)
    max_hi = fr.maximal_ideals(S, hi_arr)
    over = [Q for Q in max_hi if Q & lo == M]

    cases = []
    if M in max_hi:
        kS, projS = fr.quotient_of_subring(S, hi_arr, M_arr)
        if fr.is_field(kS):
            img = frozenset(int(projS[x]) for x in lo)
            sub = Extension(kS, img)
            if len(sub.lattice().nodes) == 2:
                cases.append(MinimalType.INERT)
    if len(over) == 2:
        Q1, Q2 = over
        if Q1 & Q2 == M and \
                len(hi) // len(Q1) == q and len(hi) // len(Q2) == q:
            cases.append(MinimalType.DECOMPOSED)
    if len(over) == 1:
        Qp = as_index_array(over[0])
        sq = S.additive_closure(np.unique(S.mul[np.ix_(Qp, Qp)]))
        sq_in_M = bool(S.mask(M_arr)[sq].all())
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
    """Minimal type of every Hasse edge of the enumerated interval."""
    key = "cover_types"
    if key in E._cache:
        return E._cache[key]
    L = E.lattice()
    out = {}
    for i, j in np.argwhere(L.covers).tolist():
        out[(int(i), int(j))] = classify_minimal_pair(
            E.ambient, L.nodes[i], L.nodes[j], assume_minimal=True)
    E._cache[key] = out
    return out


# ----------------------------------------------------------------------
# element-level closure predicates (pairs of nested subrings)

def _outside(S: fr.FiniteRing, lo, hi):
    """(membership mask of lo, the elements of hi - lo)."""
    hi_arr = as_index_array(hi)
    in_lo = S.mask(as_index_array(lo))
    return in_lo, hi_arr[~in_lo[hi_arr]]


def is_seminormal(S: fr.FiniteRing, lo, hi) -> bool:
    """No b in hi-lo with b^2, b^3 in lo."""
    in_lo, out = _outside(S, lo, hi)
    b2 = S.mul[out, out]
    b3 = S.mul[b2, out]
    return not (in_lo[b2] & in_lo[b3]).any()


def is_u_closed(S: fr.FiniteRing, lo, hi) -> bool:
    """No b in hi-lo with b^2-b, b^3-b^2 in lo."""
    in_lo, out = _outside(S, lo, hi)
    b2 = S.mul[out, out]
    b3 = S.mul[b2, out]
    c1 = S.add[b2, S.neg[out]]
    c2 = S.add[b3, S.neg[b2]]
    return not (in_lo[c1] & in_lo[c2]).any()


def is_t_closed(S: fr.FiniteRing, lo, hi) -> bool:
    """No b in hi-lo and r in lo with b^2-rb, b^3-rb^2 in lo."""
    in_lo, out = _outside(S, lo, hi)
    if out.size == 0:
        return True
    b2 = S.mul[out, out]
    b3 = S.mul[b2, out]
    for r in np.flatnonzero(in_lo).tolist():
        rb = S.mul[r, out]
        rb2 = S.mul[r, b2]
        c1 = S.add[b2, S.neg[rb]]
        c2 = S.add[b3, S.neg[rb2]]
        if (in_lo[c1] & in_lo[c2]).any():
            return False
    return True


def spectrum_map(E: Extension) -> list[tuple[frozenset, frozenset]]:
    """(Q, Q cap base) for Q in Max(top); contractions are maximal."""
    out = []
    maxR = E.max_ideals_base()
    for Q in E.max_ideals_top():
        P = frozenset(Q) & E.base
        if P not in maxR:
            raise TheoremViolation("contraction of a maximal ideal is not maximal")
        out.append((Q, P))
    return out


def is_infra_integral_pair(E: Extension) -> bool:
    """All residual extensions are isomorphisms (finite fields: equal size)."""
    return all(a == b for a, b in residual_degrees(E))


def is_subintegral_pair(E: Extension) -> bool:
    """Infra-integral with bijective spectrum map."""
    sm = spectrum_map(E)
    contractions = [P for _, P in sm]
    bijective = (len(set(contractions)) == len(contractions)
                 and set(contractions) == set(E.max_ideals_base()))
    return bijective and is_infra_integral_pair(E)


def is_i_extension_pair(E: Extension) -> bool:
    sm = spectrum_map(E)
    contractions = [P for _, P in sm]
    return len(set(contractions)) == len(contractions)


def is_simple(E: Extension) -> bool:
    S = E.ambient
    base_list = sorted(E.base)
    return any(
        frozenset(S.subring_closure(base_list + [s]).tolist()) == E.top
        for s in sorted(E.top - E.base))


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
    """The node set is closed under addition: T + U is again a subring."""
    S = E.ambient
    L = E.lattice()
    arrs = [as_index_array(t) for t in L.nodes]
    for i in range(len(arrs)):
        for j in range(i + 1, len(arrs)):
            if L.leq[i, j] or L.leq[j, i]:
                continue
            tu = np.unique(S.add[np.ix_(arrs[i], arrs[j])])
            if not S.mask(tu)[S.mul[np.ix_(tu, tu)]].all():
                return False
    return True


def extension_flags(E: Extension) -> ExtensionFlags:
    """All predicate flags; the trivial extension gets a dedicated verdict
    (every flag None) because the underlying statements quantify over
    proper extensions."""
    if E.trivial:
        return ExtensionFlags(trivial=True)
    S = E.ambient
    base_local = len(E.max_ideals_base()) == 1
    return ExtensionFlags(
        trivial=False,
        subintegral=is_subintegral_pair(E),
        seminormal=is_seminormal(S, E.base, E.top),
        infra_integral=is_infra_integral_pair(E),
        t_closed=is_t_closed(S, E.base, E.top),
        u_closed=is_u_closed(S, E.base, E.top),
        i_extension=is_i_extension_pair(E),
        simple=is_simple(E),
        chained=E.lattice().is_chain(),
        branched=bool(base_local and len(E.max_ideals_top()) > 1),
        arithmetic=is_arithmetic(E),
        locally_minimal=is_locally_minimal(E),
        delta=is_delta(E),
    )


# ----------------------------------------------------------------------
# canonical decomposition and splitters

def _unique_max(E, candidates, what):
    maxima = [T for T in candidates
              if not any(T < U for U in candidates)]
    if len(maxima) != 1:
        raise TheoremViolation(
            f"{what}: expected a unique greatest element, found {len(maxima)} "
            f"maximal ones")
    return maxima[0]


def _unique_min(E, candidates, what):
    minima = [T for T in candidates
              if not any(U < T for U in candidates)]
    if len(minima) != 1:
        raise TheoremViolation(
            f"{what}: expected a unique least element, found {len(minima)} "
            f"minimal ones")
    return minima[0]


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

    sub_over_base = [T for T in nodes if is_subintegral_pair(E.sub(E.base, T))]
    plus = _unique_max(E, sub_over_base, "seminormalization (greatest subintegral)")
    semi_under_top = [T for T in nodes if is_seminormal(S, T, E.top)]
    plus2 = _unique_min(E, semi_under_top, "seminormalization (least seminormal)")
    if plus != plus2:
        raise TheoremViolation("the two characterizations of the "
                               "seminormalization disagree")

    infra_over_base = [T for T in nodes if is_infra_integral_pair(E.sub(E.base, T))]
    t = _unique_max(E, infra_over_base, "t-closure (greatest infra-integral)")
    tcl_under_top = [T for T in nodes if is_t_closed(S, T, E.top)]
    t2 = _unique_min(E, tcl_under_top, "t-closure (least t-closed)")
    if t != t2:
        raise TheoremViolation("the two characterizations of the t-closure disagree")

    ucl_under_top = [T for T in nodes if is_u_closed(S, T, E.top)]
    u = _unique_min(E, ucl_under_top, "u-closure (least u-closed)")

    sub_under_top = [T for T in nodes if is_subintegral_pair(E.sub(T, E.top))]
    minima = [T for T in sub_under_top if not any(U < T for U in sub_under_top)]
    cosub = minima[0] if len(minima) == 1 else None

    prod = nodes[L.join[L.index[u], L.index[plus]]]
    if prod != t:
        raise TheoremViolation("u-closure times seminormalization is not the t-closure")
    if is_infra_integral_pair(E) and cosub != u:
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
