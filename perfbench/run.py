"""ringlattice benchmark: one workload, one seed, fresh processes.

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 60 --trace 0

Run from the root of a source checkout (``src/ringlattice`` must exist).
Every measurement comes from a fresh child process (``child.py``) with a
pinned environment, so peak memory and the lazy caches belong to that run.

``--trace 0`` starts runs while another one fits in ``--seconds`` (at least
one) and reports the median of each end-to-end metric over them.
``--trace 1`` makes pairs of one untraced and one traced run while another
pair fits (at least one) and reports the median of each per-layer metric
over the traced runs (see ``spans.py``), with the tracing overhead: the
median over the pairs of traced minus untraced wall time.

Every run is checked: a ``fail`` verdict, an exception, a wrong known value
or a report digest that differs from ``record.json`` counts as a failed
operation.  Human-readable lines go first; the last line of standard output
is the JSON result.  The exit status is 1 when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BUDGET_S = 170.0          # a run must end within 180 s
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
              "PYTHONPATH": str(SRC)}
END_TO_END = (("setup_s", "s"), ("verify_s", "s"), ("analyze_s", "s"),
              ("peak_rss_mb", "MiB"))


def environment():
    from importlib.metadata import version
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "click": version("click"), "nproc": os.cpu_count(), "cpu": cpu}


class Runner:
    def __init__(self, workload, seed, plan, size_cap, deadline):
        self.base = {"plan": plan, "size_cap": size_cap, "spans_path": None}
        self.name = f"{workload}-seed{seed}"
        self.deadline = deadline
        self.failures = []

    def spawn(self, trace=False):
        """One fresh child; returns its measurements or None when it crashed
        or ran out of time (recorded in ``failures``)."""
        job = dict(self.base, trace=trace)
        if trace:
            OUT.mkdir(exist_ok=True)
            job["spans_path"] = str(OUT / f"{self.name}-spans.json")
        env = dict(os.environ, PERFBENCH_T0=repr(time.monotonic()))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py")], input=json.dumps(job),
                capture_output=True, text=True, env=env, cwd=ROOT,
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.failures.append("child run exceeded the time budget")
            return None
        if proc.returncode != 0:
            self.failures.append(f"child exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-2000:]}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])


def check_digests(run, expected, seed):
    """Digest mismatches of one run, as messages.  The seed-dependent digest
    is known only for the seeds recorded in record.json."""
    bad = []
    for key, got in run["digests"].items():
        want = expected.get(key)
        if isinstance(want, dict):
            want = want.get(str(seed))
            if want is None:
                continue
        if got != want:
            bad.append(f"{key} digest {got} != recorded {want}")
    return bad


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ringlattice" / "__init__.py").is_file():
        sys.exit(f"no ringlattice sources under {SRC}: run from a source checkout")

    t_begin = time.monotonic()
    for k in [k for k in os.environ if k.startswith("RINGLATTICE_")]:
        del os.environ[k]
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; known: {workloads.WORKLOADS}")
    plan = workloads.plan(args.workload, args.seed)
    record = json.loads((HERE / "record.json").read_text(encoding="utf-8"))
    expected = record["digests"][args.workload]
    runner = Runner(args.workload, args.seed, plan, workloads.SIZE_CAP,
                    t_begin + BUDGET_S)

    # one unit is a run, or an untraced and a traced run; units go on while
    # another one fits
    unit = (False, True) if args.trace else (False,)
    full, longest = [], 0.0
    while True:
        t = time.monotonic()
        runs = [runner.spawn(trace=trace) for trace in unit]
        full += runs
        now = time.monotonic()
        longest = max(longest, now - t)
        if None in runs or now + longest - t_begin > args.seconds or \
                now + 1.5 * longest > runner.deadline:
            break

    ok_runs = [r for r in full if r is not None]
    attempted = sum(r["attempted"] for r in ok_runs) or 1
    failed = sum(r["failed"] for r in ok_runs) + len(runner.failures)
    messages = list(runner.failures)
    for r in ok_runs:
        messages += r["failures"]
        mismatches = check_digests(r, expected, args.seed)
        failed += len(mismatches)
        messages += mismatches

    metrics = {}
    if runner.failures:
        pass
    elif args.trace:
        traced = [r["layers"] for r in ok_runs[1::2]]
        metrics = {name: {"value": statistics.median(t[name]["value"] for t in traced),
                          "unit": m["unit"]} for name, m in traced[0].items()}
        metrics["trace.overhead_s"] = {"value": statistics.median(
            t["wall_s"] - p["wall_s"] for p, t in zip(ok_runs[::2], ok_runs[1::2])),
            "unit": "s"}
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in ok_runs),
                          "unit": unit} for name, unit in END_TO_END}

    env = environment()
    for name, m in metrics.items():
        print(f"{args.workload:<9} {name:<48} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:<9} {'failed_ratio':<48} {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    print(f"{args.workload:<9} runs: {len(full)}, environment: {json.dumps(env)}")
    for msg in messages[:20]:
        print(f"FAILED {msg}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{runner.name}-trace{args.trace}.json").write_text(json.dumps(
        {"environment": env, "runs": full, "metrics": metrics,
         "failures": messages}, indent=1), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
