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
"""

from __future__ import annotations

from dataclasses import dataclass
import enum

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
        # arr rejects indices outside the ring, so a top of full size is it
        if len(ambient.arr(self.top)) != ambient.size and \
                not ambient.is_subring(self.top):
            raise fr.RingError("top is not a unital subring of the ambient ring")
        self._cache = {}

    def __repr__(self):
        nm = f"{self.name}: " if self.name else ""
        return (f"Extension({nm}{len(self.base)} <= {len(self.top)} "
                f"in {self.ambient.label})")

    @property
    def trivial(self):
        return self.base == self.top

    # cached heavy analyses -------------------------------------------

    def lattice(self, node_limit=DEFAULT_NODE_LIMIT) -> ExtensionLattice:
        L = self._cache.get("lattice")
        if L is None:
            L = self._cache["lattice"] = enumerate_interval(self, node_limit)
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
    """Smallest subring of S containing the subring ``base`` and ``elems``:
    adjoin them one at a time."""
    T = frozenset(base)
    for e in elems:
        T = S.adjoin(T, int(e))
    return T


def monogenic_subrings(E: Extension) -> dict[frozenset, int]:
    """{base[s]: least such s} over s in top; the base maps to its least
    element."""
    S = E.ambient
    gens = {E.base: min(E.base)}
    for s in sorted(E.top - E.base):
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
    return ExtensionLattice(nodes, joins, ambient=S)


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

def conductor_pair(S: fr.FiniteRing, lo, hi) -> frozenset:
    """(lo : hi) = {z in lo : z*hi <= lo}, the largest common ideal."""
    lo_arr = S.arr(lo)
    cond = frozenset(lo_arr[S.mask(lo)[S.mul[np.ix_(lo_arr, S.arr(hi))]]
                            .all(axis=1)].tolist())
    if not S.is_ideal_of(lo, cond) or not S.is_ideal_of(hi, cond):
        raise TheoremViolation("conductor is not an ideal of both rings")
    return cond


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
    S = E.ambient
    dec = E.base_decomposition()
    lo_arr, hi_arr = S.arr(lo), S.arr(hi)
    out = []
    for e, M in zip(dec.idempotents, dec.maximal_ideals):
        if np.unique(S.mul[e, lo_arr]).size != np.unique(S.mul[e, hi_arr]).size:
            out.append(M)
    return sorted(out, key=sorted)


def fibers(E: Extension) -> dict[frozenset, list[frozenset]]:
    """For each maximal ideal P of the base, the maximal ideals of the top
    contracting to it; the fibers cover Max(top)."""
    out = {P: [] for P in E.max_ideals_base()}
    for Q, P in spectrum_map(E.ambient, E.base, E.top):
        out[P].append(Q)
    return out


def residual_degrees(S: fr.FiniteRing, lo, hi) -> list[tuple[int, int]]:
    """(|kappa_lo(Q cap lo)|, |kappa_hi(Q)|) for each Q in Max(hi)."""
    return [(len(lo) // len(Q & lo), len(hi) // len(Q))
            for Q in fr.maximal_ideals(S, hi)]


# ----------------------------------------------------------------------
# minimal extensions

def is_minimal_pair(S: fr.FiniteRing, lo, hi) -> bool:
    """Definitional minimality by monogenic search: no s with
    lo < lo[s] < hi.  (If every lo[s] = hi for s outside lo, any strictly
    intermediate ring would contain such an lo[s].)"""
    return lo != hi and all(S.adjoin(lo, s) == hi for s in sorted(hi - lo))


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
        Qp = S.arr(over[0])
        sq = S.additive_closure(np.unique(S.mul[np.ix_(Qp, Qp)]))
        sq_in_M = bool(S.mask(M)[sq].all())
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

def _closed_for(S: fr.FiniteRing, lo, hi, rs) -> bool:
    """No b in hi-lo and r in rs with c = b^2-rb = b(b-r) and
    b^3-rb^2 = bc in lo; the r are taken in blocks of about 2^18 (r, b)
    pairs, stopping at the first hit."""
    in_lo, hi_arr = S.mask(lo), S.arr(hi)
    out = hi_arr[~in_lo[hi_arr]]
    step = max(1, (1 << 18) // max(1, out.size))
    for i in range(0, len(rs), step):
        c = S.mul[out, S.add[out, S.neg[rs[i:i + step, None]]]]
        if (in_lo[c] & in_lo[S.mul[c, out]]).any():
            return False
    return True


def is_seminormal(S: fr.FiniteRing, lo, hi) -> bool:
    """No b in hi-lo with b^2, b^3 in lo (r = 0)."""
    return _closed_for(S, lo, hi, np.array([S.zero]))


def is_u_closed(S: fr.FiniteRing, lo, hi) -> bool:
    """No b in hi-lo with b^2-b, b^3-b^2 in lo (r = 1)."""
    return _closed_for(S, lo, hi, np.array([S.one]))


def is_t_closed(S: fr.FiniteRing, lo, hi) -> bool:
    """No b in hi-lo and r in lo with b^2-rb, b^3-rb^2 in lo."""
    return _closed_for(S, lo, hi, S.arr(lo))


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
    return all(a == b for a, b in residual_degrees(S, lo, hi))


def is_subintegral_pair(S: fr.FiniteRing, lo, hi) -> bool:
    """Infra-integral with bijective spectrum map."""
    contractions = sorted((P for _, P in spectrum_map(S, lo, hi)), key=sorted)
    return contractions == fr.maximal_ideals(S, lo) and \
        is_infra_integral_pair(S, lo, hi)


def is_i_extension_pair(S: fr.FiniteRing, lo, hi) -> bool:
    contractions = [P for _, P in spectrum_map(S, lo, hi)]
    return len(set(contractions)) == len(contractions)


def is_simple(E: Extension) -> bool:
    S = E.ambient
    return any(S.adjoin(E.base, s) == E.top for s in sorted(E.top - E.base))


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
    arrs = [S.arr(t) for t in L.nodes]
    for i in range(len(arrs)):
        for j in range(i + 1, len(arrs)):
            if L.leq[i, j] or L.leq[j, i]:
                continue
            in_tu = S.mask(S.add[np.ix_(arrs[i], arrs[j])])
            tu = np.flatnonzero(in_tu)
            if not in_tu[S.mul[np.ix_(tu, tu)]].all():
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

def _unique_max(candidates, what):
    maxima = [T for T in candidates
              if not any(T < U for U in candidates)]
    if len(maxima) != 1:
        raise TheoremViolation(
            f"{what}: expected a unique greatest element, found {len(maxima)} "
            f"maximal ones")
    return maxima[0]


def _unique_min(candidates, what):
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

    sub_over_base = [T for T in nodes if is_subintegral_pair(S, E.base, T)]
    plus = _unique_max(sub_over_base, "seminormalization (greatest subintegral)")
    semi_under_top = [T for T in nodes if is_seminormal(S, T, E.top)]
    plus2 = _unique_min(semi_under_top, "seminormalization (least seminormal)")
    if plus != plus2:
        raise TheoremViolation("the two characterizations of the "
                               "seminormalization disagree")

    infra_over_base = [T for T in nodes if is_infra_integral_pair(S, E.base, T)]
    t = _unique_max(infra_over_base, "t-closure (greatest infra-integral)")
    tcl_under_top = [T for T in nodes if is_t_closed(S, T, E.top)]
    t2 = _unique_min(tcl_under_top, "t-closure (least t-closed)")
    if t != t2:
        raise TheoremViolation("the two characterizations of the t-closure disagree")

    ucl_under_top = [T for T in nodes if is_u_closed(S, T, E.top)]
    u = _unique_min(ucl_under_top, "u-closure (least u-closed)")

    sub_under_top = [T for T in nodes if is_subintegral_pair(S, T, E.top)]
    minima = [T for T in sub_under_top if not any(U < T for U in sub_under_top)]
    cosub = minima[0] if len(minima) == 1 else None

    prod = nodes[L.join[L.index[u], L.index[plus]]]
    if prod != t:
        raise TheoremViolation("u-closure times seminormalization is not the t-closure")
    if is_infra_integral_pair(S, E.base, E.top) and cosub != u:
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
