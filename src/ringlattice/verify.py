"""Theorem-verification harness.

Each named check pairs two independently computed sides of a structural
statement and reports pass / fail / n-a (hypotheses unmet) per catalog
instance.  ``n/a`` is a first-class status: the report counts applicable
instances per check and flags checks that never fired, so coverage gaps
are visible instead of silently green.  Failures always carry a witness.

A check takes one :class:`~ringlattice.extension.Extension`.  Its lattice,
flags, decomposition, support and cover types are computed lazily and
cached on it, as are the derived extensions the checks move between
(``sub``, ``localized``; ``quotient`` builds a fresh ring), so every check
on an instance shares one cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import itertools
import json
import random
import time

import numpy as np

from . import catalog as cat
from . import dsl
from . import extension as ex
from . import finring as fr
from .lattice import ExtensionLattice, LatticeError, SUBINTERVAL_SAMPLE_SEED, decide_intervals


@dataclass
class CheckResult:
    check: str
    instance: str
    status: str                 # pass | fail | n/a
    witness: dict | None = None
    reason: str | None = None   # for n/a
    side: str | None = None     # lhs_true / lhs_false for iff-shaped checks
    elapsed_ms: float = 0.0

    def as_dict(self, timings=False):
        d = {"instance": self.instance, "check": self.check, "status": self.status}
        if self.witness is not None:
            d["witness"] = self.witness
        if self.reason is not None:
            d["reason"] = self.reason
        if self.side is not None:
            d["side"] = self.side
        if timings:
            d["elapsed_ms"] = round(self.elapsed_ms, 3)
        return d


def Analysis(name, E: ex.Extension, node_limit=ex.DEFAULT_NODE_LIMIT):
    """E under ``name``.  The benchmark's child process (perfbench/child.py)
    still builds its inputs through this name; it goes when the benchmark
    is redefined (ROADMAP item 4).  Only the default node limit is known."""
    if node_limit != ex.DEFAULT_NODE_LIMIT:
        raise ValueError(f"node_limit must be {ex.DEFAULT_NODE_LIMIT}, "
                         f"got {node_limit}")
    E.name = name
    return E


# ----------------------------------------------------------------------
# measurement registry (catalog expectations)

def _edge_profile(a: ex.Extension):
    L = a.lattice()
    return sorted([len(L.nodes[i]), len(L.nodes[j]), t.value]
                  for (i, j), t in ex.cover_types(a).items())


def _closure_chain_types(a: ex.Extension):
    """Types along base <= plus-of-u <= u <= top (only when this is a chain
    of covers); used by the doubled-ring instances."""
    d = a.decomposition()
    u_sub = a.sub(a.base, d.u)
    plus_u = u_sub.decomposition().plus
    chain = [a.base, plus_u, d.u, a.top]
    out = []
    for lo, hi in zip(chain, chain[1:]):
        t = ex.classify_minimal_pair(a.ambient, lo, hi)
        out.append(t.value if t else None)
    return out


def _u_elementary(a: ex.Extension):
    return ex.idempotent_style_generator(a) is not None


def _splitter_sizes(a: ex.Extension):
    ms = a.profile().msupp
    if len(ms) <= 1:
        return []
    return sorted(len(ex.splitter(a, [M])) for M in ms)


# the measures of the lattice alone; --regen-expectations reads them off
# the oracle lattice
LATTICE_MEASURES = {
    "node_count": lambda L: len(L.nodes),
    "length": lambda L: L.length,
    "distributive": lambda L: L.verdict().distributive,
    "chained": lambda L: L.verdict().chained,
    "modular": lambda L: L.verdict().modular,
    "catenarian": lambda L: L.verdict().catenarian,
    "boolean": lambda L: L.verdict().boolean_lattice,
    "is_b2": lambda L: L.verdict().is_b2,
    "atom_count": lambda L: len(L.atoms()),
    "witness_kind": lambda L: (L.forbidden_sublattice() or {}).get("kind"),
}


def _of_lattice(measure):
    return lambda a: measure(a.lattice())


MEASURES = {
    **{name: _of_lattice(measure) for name, measure in LATTICE_MEASURES.items()},
    "minimal_type": lambda a: (lambda t: t.value if t else None)(
        ex.classify_minimal(a)),
    "conductor_size": lambda a: len(a.profile().conductor),
    "msupp_size": lambda a: len(a.profile().msupp),
    "fiber_sizes": lambda a: sorted(len(v) for v in ex.fibers(a).values()),
    "max_top_count": lambda a: len(a.max_ideals_top()),
    "plus_size": lambda a: len(a.decomposition().plus),
    "t_size": lambda a: len(a.decomposition().t),
    "u_size": lambda a: len(a.decomposition().u),
    "cosub_size": lambda a: (a.decomposition().cosub
                             and len(a.decomposition().cosub)),
    "subintegral": lambda a: a.flags().subintegral,
    "seminormal": lambda a: a.flags().seminormal,
    "infra_integral": lambda a: a.flags().infra_integral,
    "t_closed": lambda a: a.flags().t_closed,
    "u_closed": lambda a: a.flags().u_closed,
    "i_extension": lambda a: a.flags().i_extension,
    "simple": lambda a: a.flags().simple,
    "arithmetic": lambda a: a.flags().arithmetic,
    "locally_minimal": lambda a: a.flags().locally_minimal,
    "delta": lambda a: a.flags().delta,
    "branched": lambda a: a.flags().branched,
    "edge_profile": _edge_profile,
    "loewy_sizes": lambda a: [len(a.lattice().nodes[i])
                              for i in a.lattice().loewy_series()],
    "u_elementary": _u_elementary,
    "closure_chain_types": _closure_chain_types,
    "splitter_sizes": _splitter_sizes,
}


def _canon(v):
    if isinstance(v, (list, tuple)):
        return [_canon(x) for x in v]
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.bool_,)):
        return bool(v)
    return v


# ----------------------------------------------------------------------
# check registry

CHECKS = {}


def check(name, doc):
    def deco(fn):
        fn.check_name = name
        fn.check_doc = doc
        CHECKS[name] = fn
        return fn
    return deco


def run_check(name, E: ex.Extension) -> CheckResult:
    """Run one named check on E, reported under its name (or "adhoc");
    unknown names raise KeyError."""
    from . import checks  # noqa: F401  (registers the checks)
    if name not in CHECKS:
        raise KeyError(f"unknown check id {name!r}; known: {sorted(CHECKS)}")
    instance = E.name or "adhoc"
    t0 = time.perf_counter()
    try:
        res = CHECKS[name](E)
    except (ex.TheoremViolation, LatticeError, fr.RingError) as exc:
        res = CheckResult(name, instance, "fail",
                          witness={"error": type(exc).__name__, "detail": str(exc)})
    res.check = name
    res.instance = instance
    res.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return res


# ----------------------------------------------------------------------
# brute-force oracles for --regen-expectations

def brute_force_subrings(S, base):
    """Exhaustive subset scan; the independent enumeration oracle."""
    base = frozenset(base)
    rest = sorted(set(range(S.size)) - base)
    if len(rest) > 16:
        raise fr.RingError("subset oracle infeasible at this size")
    base_list = sorted(base)
    out = []
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            cand = np.array(base_list + list(combo), dtype=np.int32)
            cand.sort()
            if np.isin(S.add[np.ix_(cand, cand)], cand).all() and \
                    np.isin(S.mul[np.ix_(cand, cand)], cand).all():
                out.append(frozenset(int(x) for x in cand))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def frobenius_subfields(S, base):
    """For a field ambient: every subfield containing the base, as the fixed
    sets of the power maps x -> x^(q^d).  Independent of the closure code."""
    if not fr.is_field(S):
        raise fr.RingError("Frobenius oracle needs a field")
    fixed = fr.power_fixed_sets(S, len(base))
    if fixed is None:
        raise fr.RingError("ambient size is not a power of the base size")
    return sorted(set(fixed.values()), key=lambda s: (len(s), sorted(s)))


def oracle_lattice(a: ex.Extension):
    """The lattice of a's interval on an independent node set (Frobenius
    fixed subfields or subset scan), every incomparable join closed
    directly.  Returns (lattice, oracle_name), or (None, None) when no
    oracle applies at this size."""
    S = a.ambient
    small = len(a.top) - len(a.base) <= 16
    if fr.is_field(S) and not small:
        nodes = frobenius_subfields(S, a.base)
        oracle = "frobenius-fixed-subfields"
    elif small:
        nodes = brute_force_subrings(S, a.base)
        oracle = "subset-scan"
    else:
        return None, None
    joins = {(x, y): frozenset(S.subring_closure(list(x | y)).tolist())
             for x, y in itertools.combinations(nodes, 2)
             if not (x <= y or y <= x)}
    return ExtensionLattice(nodes, joins), oracle


def regen_expectation(expect, a: ex.Extension, lattice):
    """Recompute a DERIVED expectation from an independent oracle; a lattice
    measure is read off ``lattice``, the result of oracle_lattice(a).
    Returns (value, oracle_name) or (None, None) when no oracle applies."""
    S = a.ambient
    small = len(a.top) - len(a.base) <= 16
    if expect.measure in LATTICE_MEASURES:
        L, oracle = lattice
        if L is None:
            return None, None
        return LATTICE_MEASURES[expect.measure](L), oracle
    if expect.measure == "locally_minimal":
        vals = []
        for M in a.profile().msupp:
            loc = a.localized(M)
            if len(loc.top) - len(loc.base) > 16:
                return None, None
            vals.append(len(brute_force_subrings(loc.ambient, loc.base)) == 2)
        return all(vals), "localized subset-scan"
    if expect.measure in ("conductor_size",):
        best = frozenset([S.zero])
        for ideal in S.all_ideals(frozenset(range(S.size))):
            if ideal <= a.base and len(ideal) > len(best):
                best = ideal
        return len(best), "ideal-scan"
    if small and expect.measure in ("subintegral", "seminormal",
                                    "infra_integral", "u_closed", "t_closed",
                                    "i_extension", "u_elementary"):
        # element-level predicates recomputed over the oracle node set have
        # no separate route; fall back to direct definition scans (already
        # independent of the lattice machinery)
        return _canon(MEASURES[expect.measure](a)), "definition-scan"
    return None, None


# ----------------------------------------------------------------------
# random instance generation

_BLOCKS = [
    "zmod(2)", "zmod(3)", "zmod(4)", "zmod(9)", "gf(2, 2)", "gf(3, 2)",
    "quotient(gf2, [w^2])", "quotient(gf3, [w^2])",
    "idealization(gf2, module([2]))",
]


def generate_random_instances(seed, count, size_budget=64):
    """Seed-deterministic random extensions: products of small local blocks
    with a random generated base.  Returns CatalogInstance values whose spec
    round-trips through the DSL."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        while True:
            nblocks = rng.choice([1, 1, 2, 2, 3])
            blocks = [rng.choice(_BLOCKS) for _ in range(nblocks)]
            lines = ["ring gf2 = gf(2)", "ring gf3 = gf(3)"]
            names = []
            for j, b in enumerate(blocks):
                names.append(f"B{j}")
                lines.append(f"ring B{j} = {b}")
            if len(names) == 1:
                lines.append(f"ring S = quotient({names[0]}, [z^2])"
                             if rng.random() < 0.3 else
                             f"ring S = product({names[0]}, gf2)")
            else:
                lines.append("ring S = product(" + ", ".join(names) + ")")
            probe = "\n".join(lines) + f"\next X = extension(S, base=[])\n"
            try:
                E0 = dsl.build_extension(probe, size_cap=size_budget)
            except fr.RingError:
                continue
            S = E0.ambient
            ngens = rng.choice([0, 1, 1, 2])
            gens = sorted(rng.sample(range(S.size), ngens)) if ngens else []
            exprs = [S.elem_str(g) for g in gens]
            base_list = "[" + ", ".join(exprs) + "]"
            name = f"RND_{seed}_{i}"
            text = "\n".join(lines) + f"\next {name} = extension(S, base={base_list})\n"
            try:
                E = dsl.build_extension(text, size_cap=size_budget)
            except fr.RingError:
                continue
            # keep lattices small enough for the full check suite
            try:
                L = E.lattice(node_limit=220)
            except fr.RingError:
                continue
            out.append(cat.CatalogInstance(
                name, "random stress instance", text,
                ()))
            break
    return out


# ----------------------------------------------------------------------
# random sub-interval agreement stress (fixed default seed)

def random_interval_agreement(extensions, count=1000, seed=SUBINTERVAL_SAMPLE_SEED):
    """Draw random sub-intervals across the given extensions and confirm the
    three distributivity routes agree on each; returns (count_checked,
    first_disagreement_or_None).  Without an extension of two or more nodes
    nothing is drawn and the count is 0.

    All ``count`` draws are made first (the random sequence does not depend
    on the verdicts), and the distinct intervals are decided together by
    :func:`~ringlattice.lattice.decide_intervals`, stacked by node count
    across the extensions.  The draws are then read in order: the first
    whose routes disagree is the disagreement, with the count before it,
    and an interval that is not closed under meet and join raises, as its
    slice would."""
    rng = random.Random(seed)
    pool = [a for a in extensions if len(a.lattice().nodes) >= 2]
    draws, distinct, ups = [], {}, {}
    while pool and len(draws) < count:
        a = rng.choice(pool)
        L = a.lattice()
        i = rng.randrange(len(L.nodes))
        if (a, i) not in ups:
            ups[a, i] = np.flatnonzero(L.leq[i]).tolist()
        j = rng.choice(ups[a, i])
        draws.append(distinct.setdefault((a, i, j), len(distinct)))
    if not draws:
        return 0, None
    by_lattice = {}
    for a, i, j in distinct:
        by_lattice.setdefault(a, []).append((i, j))
    found = decide_intervals([(a.lattice(), *zip(*pairs)) for a, pairs in by_lattice.items()])
    # the row of each distinct interval in the kernel's request order
    row = dict(zip(((a, i, j) for a, pairs in by_lattice.items() for i, j in pairs),
                   range(len(distinct))))
    keys = list(distinct)
    for done, d in enumerate(draws):
        a, i, j = keys[d]
        exc = found.error(row[a, i, j])
        if exc is not None:
            if found.unclosed(row[a, i, j]):
                raise exc
            return done, {"instance": a.name, "interval": [i, j], "error": str(exc)}
    return len(draws), None


# ----------------------------------------------------------------------
# harness

@dataclass
class Report:
    results: list
    checks_summary: dict
    zero_applicable: list
    failures: int
    meta: dict

    def to_json(self, timings=False):
        doc = {
            "meta": self.meta,
            "results": [r.as_dict(timings) for r in self.results],
            "checks": self.checks_summary,
            "zero_applicable": self.zero_applicable,
            "failures": self.failures,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def summary_text(self):
        lines = []
        w = max((len(r.check) for r in self.results), default=10) + 2
        cur = None
        for r in self.results:
            if r.instance != cur:
                cur = r.instance
                lines.append(f"-- {cur}")
            extra = ""
            if r.status == "n/a" and r.reason:
                extra = f"  ({r.reason})"
            if r.status == "fail" and r.witness:
                extra = f"  {r.witness}"
            lines.append(f"   {r.check:<{w}} {r.status}{extra}")
        lines.append("")
        lines.append(f"{self.meta['instances']} instances, "
                     f"{self.meta['checks']} checks, "
                     f"{self.meta['pass']} pass, {self.failures} fail, "
                     f"{self.meta['na']} n/a")
        if self.zero_applicable:
            lines.append("checks with zero applicable instances: "
                         + ", ".join(self.zero_applicable))
        return "\n".join(lines) + "\n"


def build_catalog_analyses(pattern=None, size_cap=None, random_count=0,
                           random_seed=0):
    """(instance, extension) pairs, each extension named after its
    instance."""
    instances = list(cat.CATALOG)
    if random_count:
        instances += generate_random_instances(random_seed, random_count)
    if pattern:
        instances = [i for i in instances if pattern in i.name]
    out = []
    for inst in instances:
        E = dsl.build_extension(inst.spec, size_cap=size_cap)
        E.name = inst.name
        out.append((inst, E))
    return out


def run_catalog(pattern=None, size_cap=None, random_count=0, random_seed=0,
                interval_samples=0) -> Report:
    """Run every known check on every matching instance; deterministic
    ordering (instance, then check)."""
    from . import checks  # noqa: F401
    pairs = build_catalog_analyses(pattern, size_cap, random_count, random_seed)
    results = []
    for inst, a in pairs:
        for name in sorted(CHECKS):
            results.append(run_check(name, a))
        results.extend(expectation_results(inst, a))
    if interval_samples:
        done, bad = random_interval_agreement([a for _, a in pairs],
                                              count=interval_samples)
        # no instance with two nodes: nothing was sampled, so not a pass
        status = "fail" if bad else "pass" if done else "n/a"
        results.append(CheckResult(
            "random_interval_route_agreement", "(all)", status, witness=bad,
            reason={"fail": None, "pass": f"{done} intervals sampled",
                    "n/a": "no instance has two or more intermediate rings"}
            [status]))
    results.sort(key=lambda r: (r.instance, r.check))
    summary = {}
    for r in results:
        s = summary.setdefault(r.check, {"applicable": 0, "pass": 0,
                                         "fail": 0, "na": 0,
                                         "lhs_true": 0, "lhs_false": 0})
        if r.status == "n/a":
            s["na"] += 1
        else:
            s["applicable"] += 1
            s["pass" if r.status == "pass" else "fail"] += 1
            if r.side in ("lhs_true", "lhs_false"):
                s[r.side] += 1
    zero = sorted(name for name, s in summary.items() if s["applicable"] == 0)
    failures = sum(1 for r in results if r.status == "fail")
    meta = {
        "instances": len(pairs),
        "checks": len(CHECKS),
        "pass": sum(1 for r in results if r.status == "pass"),
        "na": sum(1 for r in results if r.status == "n/a"),
        "random_count": random_count,
        "random_seed": random_seed,
        "interval_samples": interval_samples,
        "interval_seed": SUBINTERVAL_SAMPLE_SEED,
    }
    return Report(results, summary, zero, failures, meta)


def expectation_results(inst: cat.CatalogInstance, a: ex.Extension):
    out = []
    for e in inst.expectations:
        t0 = time.perf_counter()
        got = _canon(MEASURES[e.measure](a))
        want = _canon(e.value)
        ok = got == want
        out.append(CheckResult(
            f"expected:{e.measure}", inst.name,
            "pass" if ok else "fail",
            witness=None if ok else {"expected": want, "measured": got,
                                     "tag": e.tag},
            elapsed_ms=(time.perf_counter() - t0) * 1000.0))
    return out


def regen_report(pattern=None, size_cap=None):
    """Recompute every DERIVED expectation from its oracle; returns a list of
    dicts and the count of disagreements."""
    pairs = build_catalog_analyses(pattern, size_cap)
    rows = []
    bad = 0
    for inst, a in pairs:
        derived = [e for e in inst.expectations if e.tag == "DERIVED"]
        lattice = (oracle_lattice(a)
                   if any(e.measure in LATTICE_MEASURES for e in derived)
                   else (None, None))
        for e in derived:
            val, oracle = regen_expectation(e, a, lattice)
            if oracle is None:
                rows.append({"instance": inst.name, "measure": e.measure,
                             "stored": _canon(e.value), "oracle": None,
                             "status": "no-oracle-at-this-size"})
                continue
            ok = _canon(val) == _canon(e.value)
            if not ok:
                bad += 1
            rows.append({"instance": inst.name, "measure": e.measure,
                         "stored": _canon(e.value), "derived": _canon(val),
                         "oracle": oracle, "status": "ok" if ok else "MISMATCH"})
    return rows, bad
