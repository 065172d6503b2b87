"""Command-line interface: analyze instance specs, run the verification
harness, export Hasse diagrams (DOT) and structured results (JSON).

Flag values fall back to environment variables (``RINGLATTICE_CAP``,
``RINGLATTICE_SEED``) and then to built-in defaults; an explicit flag always
wins.  Identical inputs produce byte-identical outputs (timing data is only
emitted under ``--timings``).
"""

from __future__ import annotations

import json
import os
import sys

import click
import numpy as np

from . import catalog as cat
from . import dsl
from . import extension as ex
from . import finring as fr
from . import verify as vf
from .lattice import LatticeError

_INPUT_ERRORS = (dsl.DslError, fr.RingError, ex.TheoremViolation, LatticeError)


def _env_default(name, fallback):
    val = os.environ.get(name)
    if val is None:
        return fallback
    try:
        return int(val)
    except ValueError:
        raise click.UsageError(f"environment variable {name} must be an integer")


def node_label(E: ex.Extension, T: frozenset) -> str:
    """Canonical description: a generator list of the subring over the base,
    found greedily (smallest elements first)."""
    if T == E.base:
        return "R"
    S = E.ambient
    gens = []
    cur = E.base
    for s in sorted(T):
        if s in cur:
            continue
        gens.append(s)
        cur = S.adjoin(cur, s)
        if cur == T:
            break
    # drop redundant generators
    for g in list(gens):
        rest = [h for h in gens if h != g]
        if ex.generated_subring(S, E.base, rest) == T:
            gens = rest
    return "R[" + ", ".join(S.elem_str(g) for g in gens) + "]"


def _analysis_doc(a: vf.Analysis):
    E, L = a.E, a.L
    v = a.verdict
    d = a.decomp
    labels = [node_label(E, T) for T in L.nodes]
    covers = [{"lower": int(i), "upper": int(j),
               "type": a.cover_types[(int(i), int(j))].value}
              for i, j in sorted(map(tuple, np.argwhere(L.covers).tolist()))]
    flags = {k: val for k, val in a.flags.as_dict().items()}
    doc = {
        "extension": {
            "name": a.name,
            "ambient": E.ambient.label,
            "base_size": len(E.base),
            "top_size": len(E.top),
        },
        "lattice": {
            "node_count": len(L.nodes),
            "length": L.length,
            "nodes": [{"id": i, "size": len(T), "label": labels[i],
                       "elements": [E.ambient.elem_str(x) for x in sorted(T)]}
                      for i, T in enumerate(L.nodes)],
            "covers": covers,
            "atoms": L.atoms(),
            "loewy_series": L.loewy_series(),
            "verdict": {
                "distributive": v.distributive,
                "modular": v.modular,
                "boolean": v.boolean_lattice,
                "catenarian": v.catenarian,
                "chained": v.chained,
                "is_b2": v.is_b2,
                "length": v.length,
                "witness": v.witness,
            },
        },
        "flags": flags,
        "decomposition": {
            "seminormalization": L.index[d.plus],
            "t_closure": L.index[d.t],
            "u_closure": L.index[d.u],
            "co_subintegral_closure":
                None if d.cosub is None else L.index[d.cosub],
        },
        "support": {
            "msupp_sizes": sorted(len(m) for m in a.profile.msupp),
            "crucial": a.profile.crucial is not None,
            "conductor_size": len(a.profile.conductor),
            "fiber_sizes": sorted(len(v) for v in a.fibers.values()),
        },
        "minimal_type": (lambda t: t.value if t else None)(
            ex.classify_minimal(E)) if not E.trivial else None,
    }
    return doc


def _dot_escape(s):
    return s.replace("\\", "\\\\").replace('"', '\\"')


def dot_export(a: vf.Analysis) -> str:
    """Hasse diagram as a DOT digraph; node labels are canonical generator
    descriptions, edge labels the minimal type (i/d/r)."""
    E, L = a.E, a.L
    lines = ["digraph lattice {", "  rankdir=BT;",
             '  node [shape=box, fontname="monospace"];']
    for i, T in enumerate(L.nodes):
        label = node_label(E, T)
        if i == len(L.nodes) - 1 and len(E.top) == E.ambient.size:
            label += " = S"
        lines.append(f'  n{i} [label="{_dot_escape(label)}\\n({len(T)} elems)"];')
    for i, j in sorted(map(tuple, np.argwhere(L.covers).tolist())):
        t = a.cover_types[(int(i), int(j))]
        lines.append(f'  n{i} -> n{j} [label="{t.short()}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _print_analysis(a: vf.Analysis, out):
    E, L, v = a.E, a.L, a.verdict
    d = a.decomp
    click.echo(f"extension {a.name}: |R| = {len(E.base)}, |S| = {len(E.top)} "
               f"in {E.ambient.label}", file=out)
    click.echo(f"lattice: {len(L.nodes)} nodes, length {L.length}", file=out)
    labels = [node_label(E, T) for T in L.nodes]
    for i, T in enumerate(L.nodes):
        marks = []
        if T == d.plus:
            marks.append("seminormalization")
        if T == d.t:
            marks.append("t-closure")
        if T == d.u:
            marks.append("u-closure")
        if d.cosub is not None and T == d.cosub:
            marks.append("co-subintegral closure")
        mark = ("   <- " + ", ".join(marks)) if marks else ""
        click.echo(f"  [{i:2d}] {labels[i]} ({len(T)} elems){mark}", file=out)
    click.echo("covers: " + ", ".join(
        f"{i}->{j}({a.cover_types[(i, j)].short()})"
        for (i, j) in sorted(a.cover_types)), file=out)
    click.echo(f"atoms: {L.atoms()}  loewy: {L.loewy_series()}", file=out)
    flag_str = ", ".join(f"{k}={val}" for k, val in a.flags.as_dict().items()
                         if k != "trivial")
    click.echo("flags: " + flag_str, file=out)
    verdict_bits = [f"{'NOT ' if not v.distributive else ''}distributive",
                    f"{'NOT ' if not v.catenarian else ''}catenarian",
                    f"{'NOT ' if not v.modular else ''}modular"]
    if v.chained:
        verdict_bits.append("chained")
    if v.boolean_lattice:
        verdict_bits.append("boolean" + (" (B2)" if v.is_b2 else ""))
    click.echo("verdict: " + ", ".join(verdict_bits), file=out)
    if v.witness:
        click.echo(f"witness: {v.witness}", file=out)
    mt = ex.classify_minimal(E) if not E.trivial else None
    if mt:
        click.echo(f"minimal extension of type: {mt.value}", file=out)


@click.group()
def main():
    """Finite commutative ring extensions and their intermediate-ring
    lattices."""


@main.command()
@click.argument("specfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--dot", "dot_path", type=click.Path(dir_okay=False),
              help="write the Hasse diagram in DOT format")
@click.option("--json", "json_path", type=click.Path(dir_okay=False),
              help="write the full structured result as JSON")
@click.option("--cap", type=int, default=None,
              help="element-count cap (default: RINGLATTICE_CAP or 4096)")
def analyze(specfile, dot_path, json_path, cap):
    """Build the extension declared in SPECFILE and report its lattice."""
    cap = cap if cap is not None else _env_default("RINGLATTICE_CAP",
                                                   fr.DEFAULT_SIZE_CAP)
    try:
        text = open(specfile, encoding="utf-8").read()
        E = dsl.build_extension(text, size_cap=cap)
        a = vf.Analysis(E.name or "instance", E)
        _print_analysis(a, None)
        if dot_path:
            with open(dot_path, "w", encoding="utf-8") as fh:
                fh.write(dot_export(a))
        if json_path:
            with open(json_path, "w", encoding="utf-8") as fh:
                json.dump(_analysis_doc(a), fh, indent=2, sort_keys=True)
                fh.write("\n")
    except _INPUT_ERRORS as exc:
        raise click.ClickException(str(exc))


@main.command(name="verify")
@click.argument("pattern", required=False)
@click.option("--all", "run_all", is_flag=True, help="run the whole catalog")
@click.option("--random", "random_count", type=int, default=0,
              help="add this many seed-deterministic random instances")
@click.option("--seed", type=int, default=None,
              help="seed for the random instances (default: RINGLATTICE_SEED or 0)")
@click.option("--intervals", type=int, default=0,
              help="sample this many random sub-intervals for the "
                   "distributivity route agreement stress")
@click.option("--json", "json_path", type=click.Path(dir_okay=False),
              help="write the machine-readable report")
@click.option("--timings", is_flag=True, help="include elapsed_ms in the report")
@click.option("--cap", type=int, default=None)
@click.option("--regen-expectations", is_flag=True,
              help="recompute DERIVED catalog expectations from the "
                   "brute-force oracles and compare")
def verify_cmd(pattern, run_all, random_count, seed, intervals, json_path,
               timings, cap, regen_expectations):
    """Run the theorem-verification suite; exit status 0 iff no failures."""
    cap = cap if cap is not None else _env_default("RINGLATTICE_CAP",
                                                   fr.DEFAULT_SIZE_CAP)
    seed = seed if seed is not None else _env_default("RINGLATTICE_SEED", 0)
    if seed < 0:
        raise click.UsageError(f"seed must be a non-negative integer, got {seed}")
    try:
        if regen_expectations:
            rows, bad = vf.regen_report(pattern=None if run_all else pattern,
                                        size_cap=cap)
            for row in rows:
                click.echo(f"{row['instance']:>6} {row['measure']:<22} "
                           f"stored={row['stored']!r:<18} "
                           f"{row.get('oracle') or '-':<28} {row['status']}")
            click.echo(f"{len(rows)} derived expectations, {bad} mismatches")
            sys.exit(1 if bad else 0)
        rep = vf.run_catalog(pattern=None if run_all else pattern,
                             size_cap=cap,
                             random_count=random_count, random_seed=seed,
                             interval_samples=intervals)
    except _INPUT_ERRORS as exc:
        raise click.ClickException(str(exc))
    click.echo(rep.summary_text(), nl=False)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(rep.to_json(timings=timings))
    sys.exit(1 if rep.failures else 0)


@main.group()
def catalog():
    """Catalog utilities."""


@catalog.command(name="list")
def catalog_list():
    """List the curated instances."""
    for inst in cat.CATALOG:
        click.echo(f"{inst.name:>6}  {inst.description}  "
                   f"[{len(inst.expectations)} expectations]")


if __name__ == "__main__":
    main()
