"""One benchmark run of one workload plan, in a fresh process.

``run.py`` starts this script with the plan as JSON on standard input and
the spawn time (``time.monotonic``) in ``PERFBENCH_T0``.  The child builds
every input (set-up), then runs two parts, each as one block:

* verify: every check and expectation on each verify instance, then the
  sub-interval sample;
* analyze: the report document of ``ringlattice analyze --json`` for each
  analyze instance.

The last line of standard output is one JSON object of measurements,
failures and output digests.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback


def _digest(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
    return h.hexdigest()


def main():
    t0 = float(os.environ["PERFBENCH_T0"])
    job = json.load(sys.stdin)
    plan = job["plan"]
    tracer = check_ids = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer()
        check_ids = spans.install(tracer)

    from ringlattice import catalog as cat, checks, cli, dsl, verify as vf  # noqa: F401
    from ringlattice.extension import DEFAULT_NODE_LIMIT

    out = {"attempted": 0, "failed": 0, "failures": []}
    rows = {"fixed": [], "seeded": []}
    docs = []

    def fail(what, detail, count=1):
        out["failed"] += count
        if len(out["failures"]) < 20:
            out["failures"].append(f"{what}: {detail}")

    def build(item):
        E = dsl.build_extension(item["spec"], size_cap=job["size_cap"])
        return vf.Analysis(item["name"], E, node_limit=DEFAULT_NODE_LIMIT)

    # set-up: every input built, each analysis from its own Extension
    verify_items = [(item, build(item)) for item in plan["verify"]]
    analyze_items = [(item, build(item)) for item in plan["analyze"]]
    out["setup_s"] = time.monotonic() - t0

    def record(item, results):
        out["attempted"] += len(results)
        for r in results:
            if r.status == "fail":
                fail(f"{r.instance}/{r.check}", r.witness)
        rows[item["group"]].extend(json.dumps(r.as_dict(), sort_keys=True)
                                   for r in results)

    def expectations(item, a):
        inst = cat.CatalogInstance(item["name"], "", item["spec"], tuple(
            cat.Expectation(m, v, tag) for m, v, tag in item["expect"]))
        record(item, vf.expectation_results(inst, a))

    def intervals():
        iv = plan["intervals"]
        out["attempted"] += iv["count"]
        done, bad = vf.random_interval_agreement(
            [a for _, a in verify_items], count=iv["count"], seed=iv["seed"])
        if bad or done != iv["count"]:
            fail("intervals", bad, iv["count"] - done)
        rows["fixed"].append(json.dumps({"intervals": done, "disagreement": bad}))

    def analyze(item, a):
        out["attempted"] += 1
        doc = cli._analysis_doc(a)
        docs.append(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        lat = doc["lattice"]
        seen = {"node_count": lat["node_count"], "length": lat["length"],
                "distributive": lat["verdict"]["distributive"]}
        wrong = {k: (v, seen[k]) for k, v in item["known"].items() if seen[k] != v}
        if wrong:
            fail(f"analyze {item['name']}", f"(known, reported): {wrong}")

    verify_steps = []
    for item, a in verify_items:
        if item["checks"]:
            verify_steps += [(item["name"], lambda a=a, n=name, i=item:
                              record(i, [vf.run_check(n, a)]))
                             for name in sorted(vf.CHECKS)]
        verify_steps.append((item["name"], lambda a=a, i=item: expectations(i, a)))
    verify_steps.append(("intervals", intervals))
    analyze_steps = [(item["name"], lambda a=a, i=item: analyze(i, a))
                     for item, a in analyze_items]

    for part, steps in (("verify_s", verify_steps), ("analyze_s", analyze_steps)):
        t = time.perf_counter()
        for name, run in steps:
            try:
                run()
            except Exception:
                fail(f"{part} step on {name}", traceback.format_exc(limit=3))
        out[part] = time.perf_counter() - t
    out["wall_s"] = time.monotonic() - t0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["digests"] = {f"verify.{g}": _digest(r) for g, r in rows.items() if r}
    out["digests"]["analyze"] = _digest(docs)

    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer, check_ids, out["wall_s"])
        for msg in spans.nesting_faults(tracer, out["wall_s"]):
            fail("trace", msg)
        if job["spans_path"]:
            tracer.dump(job["spans_path"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
