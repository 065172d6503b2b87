"""Span recorder for the traced benchmark run.

``install`` wraps public functions of each ringlattice module at their
module or class attribute, so the package itself is not edited.  Every call
to a wrapped function records one span: its name, start, end, parent span
and an optional note computed from the call (a result size or an argument
key).  Spans stay in memory; ``layer_metrics`` folds them into the
per-layer metrics and ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.notes = []
        self._stack = []

    def wrap(self, owner, attr, name, note=None):
        """Replace ``owner.attr`` by a recording wrapper.  ``name`` is a span
        name or a function of the call's arguments; classmethods and
        staticmethods are re-wrapped as such."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        names, start, end, parent, notes, stack = (
            self.names, self.start, self.end, self.parent, self.notes, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name(args) if callable(name) else name)
            parent.append(stack[-1] if stack else -1)
            notes.append(None)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    notes[i] = note(args, result)
                return result
            finally:
                end[i] = clock()
                stack.pop()

        setattr(owner, attr, kind(traced) if kind else traced)

    def self_times(self):
        """Each span's duration minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def dump(self, path):
        table = sorted(set(self.names))
        ids = {n: k for k, n in enumerate(table)}
        rows = [[ids[n], s, e, p] for n, s, e, p in
                zip(self.names, self.start, self.end, self.parent)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": table, "spans": rows,
                       "columns": ["name", "start", "end", "parent"]}, fh)


def _seed_key(args, result):
    ring, seed = args[0], args[1]
    return ring, frozenset(int(x) for x in seed)


def _self_key(args, result):
    return args[0]


def _node_count(args, result):
    return len(result.nodes)


def _size(args, result):
    return len(result)


def _arg_nodes(args, result):
    return len(args[1])


def install(tracer):
    """Wrap the layer boundaries of ringlattice; returns the check ids."""
    from ringlattice import checks  # noqa: F401  (registers the checks)
    from ringlattice import cli, dsl, extension as ex, finring as fr, verify as vf
    from ringlattice.lattice import ExtensionLattice

    w = tracer.wrap
    R = fr.FiniteRing
    w(R, "subring_closure", "finring.subring_closure", _seed_key)
    w(R, "additive_closure", "finring.additive_closure")
    w(R, "all_ideals", "finring.all_ideals", _size)
    w(R, "ideal_closure", "finring.ideal_closure")
    w(R, "from_tables", "finring.construct")
    w(R, "from_struct", "finring.construct")
    w(R, "subset_ring", "finring.derived")
    for f in ("quotient_of_subring", "quotient_ring", "idealization",
              "product_ring", "quotient_by_relations"):
        w(fr, f, "finring.derived")
    w(R, "is_subring", "finring.membership")
    w(R, "is_ideal_of", "finring.membership")
    w(fr, "primitive_idempotents", "finring.primitive_idempotents")

    w(ex, "enumerate_interval", "extension.enumerate_interval", _node_count)
    w(ex, "extension_flags", "extension.flags")
    w(ex, "canonical_decomposition", "extension.decomposition")
    w(ex, "cover_types", "extension.cover_types")
    w(ex, "support_profile", "extension.support")
    w(ex, "localize_at", "extension.localize")
    w(ex, "classify_minimal_pair", "extension.classify_minimal_pair")

    L = ExtensionLattice
    w(L, "__init__", "lattice.build", _arg_nodes)
    w(L, "verdict", "lattice.verdict", _self_key)
    w(L, "check_distributive", "lattice.distributive")
    w(L, "maximal_chains", "lattice.chains")
    w(L, "interval", "lattice.interval")

    w(vf, "run_check", lambda args: "checks." + args[0])
    w(vf, "expectation_results", "verify.expectations")
    w(vf, "random_interval_agreement", "verify.random_interval_agreement")
    w(dsl, "build_extension", "dsl.build_extension")
    w(cli, "_analysis_doc", "cli.analysis_doc")
    w(cli, "node_label", "cli.node_label")
    return sorted(vf.CHECKS)


def layer_metrics(tracer, check_ids, wall_s):
    """Per-layer metrics: call counts, self times (span minus child spans),
    inclusive times where the table says ``.s``, and the work counts.
    ``wall_s`` is the traced run's wall time; ``trace.outside_s`` is the
    part of it that no top-level span covers."""
    dur, own = tracer.self_times()
    calls, self_s, incl = {}, {}, {}
    for n, d, o in zip(tracer.names, dur, own):
        calls[n] = calls.get(n, 0) + 1
        self_s[n] = self_s.get(n, 0.0) + o
        incl[n] = incl.get(n, 0.0) + d

    def notes_of(name):
        return [v for n, v in zip(tracer.names, tracer.notes) if n == name]

    def distinct_ratio(name):
        keys = notes_of(name)
        return len(set(keys)) / len(keys) if keys else 0.0

    # closures run inside an interval enumeration, at any depth below it
    inside = [False] * len(tracer.names)
    closures = 0
    for i, (n, p) in enumerate(zip(tracer.names, tracer.parent)):
        if p >= 0:
            inside[i] = inside[p] or tracer.names[p] == "extension.enumerate_interval"
        if inside[i] and n == "finring.subring_closure":
            closures += 1

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for name, fields in [
            ("finring.subring_closure", ("calls", "self_s")),
            ("finring.additive_closure", ("calls", "self_s")),
            ("finring.all_ideals", ("calls", "self_s")),
            ("finring.ideal_closure", ("calls", "self_s")),
            ("finring.construct", ("calls", "self_s")),
            ("finring.derived", ("self_s",)),
            ("finring.membership", ("self_s",)),
            ("finring.primitive_idempotents", ("calls", "self_s")),
            ("extension.enumerate_interval", ("calls", "self_s")),
            ("extension.flags", ("self_s",)),
            ("extension.decomposition", ("self_s",)),
            ("extension.cover_types", ("self_s",)),
            ("extension.support", ("self_s",)),
            ("extension.localize", ("self_s",)),
            ("extension.classify_minimal_pair", ("calls", "self_s")),
            ("lattice.build", ("calls", "self_s")),
            ("lattice.verdict", ("calls", "self_s")),
            ("lattice.distributive", ("self_s",)),
            ("lattice.chains", ("self_s",)),
            ("lattice.interval", ("calls", "self_s")),
            ("cli.analysis_doc", ("self_s",)),
            ("cli.node_label", ("calls", "self_s"))]:
        for f in fields:
            if f == "calls":
                put(f"{name}.calls", calls.get(name, 0), "count")
            else:
                put(f"{name}.self_s", self_s.get(name, 0.0), "s")
    put("finring.subring_closure.distinct_ratio",
        distinct_ratio("finring.subring_closure"), "ratio")
    put("finring.all_ideals.ideals", sum(notes_of("finring.all_ideals")), "count")
    put("extension.enumerate_interval.nodes",
        sum(notes_of("extension.enumerate_interval")), "count")
    put("extension.enumerate_interval.closures", closures, "count")
    put("lattice.build.nodes_max", max(notes_of("lattice.build"), default=0), "count")
    put("lattice.verdict.distinct_ratio", distinct_ratio("lattice.verdict"), "ratio")
    for cid in check_ids:
        put(f"checks.{cid}.s", incl.get("checks." + cid, 0.0), "s")
    for name in ("verify.expectations", "verify.random_interval_agreement"):
        put(f"{name}.s", incl.get(name, 0.0), "s")
    put("dsl.build_extension.calls", calls.get("dsl.build_extension", 0), "count")
    put("dsl.build_extension.s", incl.get("dsl.build_extension", 0.0), "s")
    put("trace.spans", len(tracer.names), "count")
    put("trace.spans_self_s", sum(own), "s")
    top = sum(d for d, p in zip(dur, tracer.parent) if p < 0)
    put("trace.wall_s", wall_s, "s")
    put("trace.outside_s", wall_s - top, "s")
    return m


def nesting_faults(tracer, wall_s):
    """Messages for spans that break the nesting the self times rely on: a
    span whose children outlast it (negative self time), or top-level spans
    that cover more than the wall time.  Without such faults the self times
    and ``trace.outside_s`` add up to ``trace.wall_s``."""
    dur, own = tracer.self_times()
    faults = [f"span {tracer.names[i]} has self time {o:.3g} s"
              for i, o in enumerate(own) if o < -1e-6][:5]
    top = sum(d for d, p in zip(dur, tracer.parent) if p < 0)
    if top > wall_s:
        faults.append(f"top-level spans cover {top:.3f} s of a {wall_s:.3f} s run")
    return faults
