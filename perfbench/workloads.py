"""Workload plans for the ringlattice benchmark.

A plan is plain JSON handed to a fresh child process (``child.py``): the
instance specs to verify, the sub-interval sample, and the specs to analyze.
Random instances are generated here, so the program under test only ever
receives DSL text.

Expectations tagged ``KNOWN`` are hand-written mathematical facts, not
values produced by the program:

* the subrings of F2^n over F2 are the Boolean subalgebras, one per
  partition of n points, so there are Bell(n) of them (52, 203) and the
  lattice has length n - 1;
* the subrings of the idealization F2 + F2^4 over F2 are F2 + V for the
  67 subspaces V of F2^4 (1 + 15 + 35 + 15 + 1), a modular,
  non-distributive lattice of length 4;
* the subfields of GF(5^4) are GF(5) < GF(25) < GF(625), a chain of 3
  nodes and length 2, distributive.
"""

from __future__ import annotations

WORKLOADS = ("catalog", "lattices")

SIZE_CAP = 4096        # explicit, so RINGLATTICE_CAP cannot change the work
CATALOG_RANDOM = 20
# The random instances are generated with rings of at most 8 elements.  With
# the generator's default budget of 64 a draw of 20 holds 1 to 5 proper
# extensions with a 16-element top ring, each about 1.5 s in
# idealization_transfer, which moved verify_s by about 20 % from seed to
# seed.  The curated instances measure that 16-element case.
RANDOM_SIZE_BUDGET = 8
INTERVALS = 1000
LEFT_OUT = ("G3_6",)   # 60 s of checks and 10 s of analyze: see record.json

P5 = ("ring F2 = gf(2)\nring S = product(F2, F2, F2, F2, F2)\n"
      "ext P5 = extension(S, base=[])\n")
P6 = ("ring F2 = gf(2)\nring S = product(F2, F2, F2, F2, F2, F2)\n"
      "ext P6 = extension(S, base=[])\n")
V4 = ("ring F2 = gf(2)\nring S = idealization(F2, module([2, 2, 2, 2]))\n"
      "ext V4 = extension(S, base=[])\n")
# the closure kernels on one large field, in place of G3_6's analyze report
G5_4 = "ring S = gf(5, 4)\next G5_4 = extension(S, base=[])\n"


def _known(**values):
    return [[measure, value, "KNOWN"] for measure, value in values.items()]


def _item(name, spec, expect=(), group="fixed", checks=True, known=None):
    return {"name": name, "spec": spec, "expect": list(expect),
            "group": group, "checks": checks, "known": known or {}}


def plan(workload, seed):
    """The JSON plan of ``workload`` for ``seed``.  ``verify`` items run the
    full check suite (unless ``checks`` is false) and their expectations;
    ``group`` says whether their report digest depends on the seed.
    ``analyze`` items run the analyze path; ``known`` holds exact values
    their report must show."""
    from ringlattice import catalog, verify

    if workload == "catalog":
        curated = [i for i in catalog.CATALOG if i.name not in LEFT_OUT]
        randoms = verify.generate_random_instances(
            seed, CATALOG_RANDOM, size_budget=RANDOM_SIZE_BUDGET)
        return {
            "verify": [_item(i.name, i.spec,
                             [[e.measure, e.value, e.tag] for e in i.expectations])
                       for i in curated]
                      + [_item(i.name, i.spec, group="seeded") for i in randoms],
            "intervals": {"count": INTERVALS, "seed": seed},
            "analyze": [_item(i.name, i.spec) for i in curated]
                       + [_item("G5_4", G5_4, known={"node_count": 3, "length": 2,
                                                      "distributive": True})],
        }
    if workload == "lattices":
        return {
            "verify": [
                _item("P5", P5, _known(node_count=52, length=4)),
                _item("V4", V4, _known(node_count=67, length=4, modular=True,
                                       distributive=False)),
                # only a sampling ground for the intervals: its full check
                # suite exceeds the maximal-chain cap (see record.json)
                _item("P6", P6, _known(node_count=203, length=5), checks=False),
            ],
            "intervals": {"count": INTERVALS, "seed": seed},
            "analyze": [_item("P6", P6, known={"node_count": 203, "length": 5})],
        }
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
