"""weilcalc benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload verify-all --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout; weilcalc is imported from
`src/weilcalc` of that checkout and from nowhere else.  Workloads:
verify-all, taylor-lift, render (see workloads.py).

With `--trace 0` the run sets up the workload several times (set-up is
importing weilcalc, building the inputs and filling the lazy caches),
then runs passes until `--seconds` have elapsed and prints the
end-to-end metrics.  With `--trace 1` it sets up once and runs passes
with spans around the calls into each module for `--seconds`, then
passes without them for as long again, and prints the per-layer
metrics; the final JSON holds those BENCHMARK.json declares, which
every workload produces.

Every pass is checked; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The exit
code is 0 when every check passed, 1 when one failed, 2 when the
checkout holds no weilcalc sources.  Reports and request files go to a
temporary directory inside the checkout that is removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

# modules weilcalc imports, loaded before set-up is timed so that set-up
# pays for weilcalc alone
import concurrent.futures.thread  # noqa: F401
import dataclasses  # noqa: F401
import datetime  # noqa: F401
import fractions  # noqa: F401
import hashlib  # noqa: F401
import itertools  # noqa: F401

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = (
    "errors", "_monomials", "scalars", "exprs", "programs", "algebra", "functor",
    "strongdiff", "prolong", "jets", "functional", "reports", "cli",
)
SETUP_REPEATS = 9
clock = time.perf_counter

SPANS = (
    "programs.evaluate.float",
    "programs.evaluate.algebra",
    "programs.evaluate.expr",
    "programs.evaluate_dual",
    "programs.jacobian_oracle",
    "exprs.simplify",
    "exprs.format_expr",
    "exprs.node_from_json",
    "algebra.mul",
    "algebra.analytic",
    "algebra.construct",
    "algebra.make_hom",
    "functor.lift",
    "functor.lift_program",
    "functor.transform",
    "strongdiff.bracket_value",
    "strongdiff.bracket",
    "strongdiff.k_map",
    "strongdiff.make_S",
    "prolong.field_prolong",
    "prolong.ProlongedField.value_at",
    "jets.jet_compose",
    "jets.jet_invert",
    "jets.flow_frame_oracle",
    "jets.g_field_prolong",
    "jets.make_triple",
    "functional.functional_bracket",
    "functional.functional_field_prolong",
    "functional.g_functional",
)

# spans each workload's set-up and passes are known to open; a traced run
# that misses one of them has lost a patch and fails its sanity check
EXPECTED = {
    "verify-all": set(SPANS) - {
        "programs.evaluate.expr", "exprs.format_expr", "exprs.node_from_json", "exprs.simplify",
    },
    "taylor-lift": {
        "programs.evaluate.algebra", "algebra.mul", "algebra.analytic",
        "algebra.construct", "functor.lift",
    },
    "render": {
        "programs.evaluate.algebra", "programs.evaluate.float", "exprs.simplify",
        "exprs.format_expr", "exprs.node_from_json", "algebra.mul", "algebra.analytic",
        "algebra.construct", "algebra.make_hom", "functor.lift_program",
        "strongdiff.bracket", "strongdiff.make_S", "jets.jet_compose", "jets.jet_invert",
        "jets.g_field_prolong", "jets.make_triple", "functional.functional_bracket",
    },
}


def unit_of(name):
    if name.endswith(".calls") or name.endswith("_built") or name.endswith("_evaluated"):
        return "count"
    if name.endswith("_s") or name.startswith("cli.suite_s."):
        return "s"
    if ".us_per_" in name:
        return "us"
    return "ratio"


def percentile(values, q):
    """q-th percentile (0 < q < 100) by the inclusive quantile method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def import_weilcalc():
    """Import weilcalc afresh from the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "weilcalc" or n.startswith("weilcalc.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("weilcalc")
    if Path(pkg.__file__).resolve().parent != SRC / "weilcalc":
        raise RuntimeError("weilcalc imported from %s, not from the checkout" % pkg.__file__)
    return types.SimpleNamespace(
        package=pkg, **{m: importlib.import_module("weilcalc." + m) for m in MODULES}
    )


def environment():
    """Where the numbers come from; printed beside the metrics, not in them."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    lines = 0
    for path in sorted((SRC / "weilcalc").glob("*.py")):
        with open(path, "rb") as fh:
            lines += sum(1 for _ in fh)
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "weilcalc_lines": lines,
    }


class Measured:
    """Passes of one workload and the verdicts of their checks."""

    def __init__(self):
        self.walls = []
        self.latencies = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, wl, seconds, paused):
        start = clock()
        while True:
            wall, lat, items = wl.run_pass()
            self.walls.append(wall)
            self.latencies.extend(lat)
            self.items += items
            attempted, failed, errors = wl.check(paused)
            self.attempted += attempted
            self.failed += failed
            self.errors.extend(errors)
            if clock() - start >= seconds:
                return self


def end_to_end(name, seed, seconds, tmpdir):
    cls = workloads.WORKLOADS[name]
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = clock()
        wc = import_weilcalc()
        wl = cls()
        wl.setup(wc, seed, tmpdir)
        setups.append(clock() - t0)
    m = Measured().run(wl, seconds, contextlib.nullcontext)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(m.walls),
        "items_per_s": m.items / sum(m.walls),
        "item_p50_ms": percentile(m.latencies, 50) * 1e3,
        "item_p90_ms": percentile(m.latencies, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms",
             "item_p90_ms": "ms", "peak_rss_mb": "MB"}
    info = {
        "passes": len(m.walls),
        "latency_samples": len(m.latencies),
        "failed_ratio": m.failed / max(m.attempted, 1),
        "setup_runs_s": setups,
    }
    return m, {k: (v, units[k]) for k, v in metrics.items()}, info


def layer_metrics(setup_trace, pass_trace, passes, traced_wall):
    """Per-layer metrics: set-up plus the average traced pass."""
    (s_stats, s_counts), (p_stats, p_counts) = setup_trace, pass_trace
    stats = {}
    for name in set(s_stats) | set(p_stats):
        a = s_stats.get(name, [0, 0.0, 0.0])
        b = p_stats.get(name, [0, 0.0, 0.0])
        stats[name] = [a[i] + b[i] / passes for i in range(3)]
    counts = {}
    for name in set(s_counts) | set(p_counts):
        counts[name] = s_counts.get(name, 0) + p_counts.get(name, 0) / passes
    out = {}
    for name in SPANS:
        if name in stats:
            out[name + ".calls"] = stats[name][0]
            out[name + ".self_s"] = stats[name][2]
    if "scalars.apply_primitive" in counts:
        out["scalars.apply_primitive.calls"] = counts["scalars.apply_primitive"]
    for name in ("programs.nodes_evaluated", "exprs.nodes_built"):
        if name in counts:
            out[name] = counts[name]
    if "programs.evaluate.float" in stats:
        nodes = counts.get("programs.evaluate.float.nodes", 0)
        if nodes:
            out["programs.evaluate.float.us_per_node"] = stats["programs.evaluate.float"][2] / nodes * 1e6
    if "algebra.mul" in stats and counts.get("algebra.mul.nnz"):
        out["algebra.mul.us_per_nnz"] = stats["algebra.mul"][2] / counts["algebra.mul.nnz"] * 1e6
    if "algebra.construct" in stats:
        out["algebra.construct.distinct_ratio"] = counts.get("algebra.construct.distinct", 0) / stats["algebra.construct"][0]
    # an oracle's cost is mostly the evaluations it makes, which are child
    # spans, so its share of a pass is taken from its inclusive time
    for name in ("programs.jacobian_oracle", "jets.flow_frame_oracle"):
        if name in p_stats:
            out[name + ".share"] = p_stats[name][1] / passes / traced_wall
    return out


def all_layer_names():
    """Every per-layer metric a traced run can report, bar cli.suite_s.*."""
    return [s + suffix for s in SPANS for suffix in (".calls", ".self_s")] + [
        "scalars.apply_primitive.calls", "programs.nodes_evaluated", "exprs.nodes_built",
        "programs.evaluate.float.us_per_node", "algebra.mul.us_per_nnz",
        "algebra.construct.distinct_ratio", "programs.jacobian_oracle.share",
        "jets.flow_frame_oracle.share", "trace.overhead_ratio",
    ]


def traced(name, seed, seconds, tmpdir):
    cls = workloads.WORKLOADS[name]
    wc = import_weilcalc()
    tracer = tracing.Tracer()
    patches = tracing.Patches()
    wl = cls()
    problems = []
    try:
        patches.install(tracer, wc)
        wl.setup(wc, seed, tmpdir)
        setup_trace = tracer.take()
        m = Measured().run(wl, seconds, tracer.paused)
        pass_trace = tracer.take()
    finally:
        patches.restore()
    left = tracing.Patches.leftovers()
    if left:
        problems.append("still patched after the traced run: %s" % ", ".join(left))
    ref = Measured().run(wl, seconds, contextlib.nullcontext)
    extra, suite_errors = wl.suite_times() if hasattr(wl, "suite_times") else ({}, [])
    problems.extend(suite_errors)
    passes = len(m.walls)
    traced_wall = statistics.median(m.walls)
    metrics = layer_metrics(setup_trace, pass_trace, passes, traced_wall)
    metrics.update(extra)
    metrics["trace.overhead_ratio"] = traced_wall / statistics.median(ref.walls)

    # sanity: self times inside the passes cannot exceed the passes' wall time
    self_sum = sum(st[2] for st in pass_trace[0].values())
    if self_sum > sum(m.walls) * (1 + 1e-9):
        problems.append("span self times %.6f s exceed pass wall %.6f s" % (self_sum, sum(m.walls)))
    seen = set(setup_trace[0]) | set(pass_trace[0])
    missing = sorted(EXPECTED[name] - seen)
    if missing:
        problems.append("spans expected but not recorded: %s" % ", ".join(missing))
    if patches.missing:
        problems.append("functions not found: %s" % ", ".join(patches.missing))
    info = {
        "passes": passes,
        "reference_passes": len(ref.walls),
        "self_s_in_passes": self_sum,
        "pass_wall_s": sum(m.walls),
        "absent": [n for n in all_layer_names() if n not in metrics],
        "failed_ratio": (m.failed + ref.failed) / max(m.attempted + ref.attempted, 1),
    }
    m.attempted += ref.attempted
    m.failed += ref.failed
    m.errors.extend(ref.errors + problems)
    return m, {k: (v, unit_of(k)) for k, v in metrics.items()}, info


def declared(trace):
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weilcalc" / "__init__.py").is_file():
        print("error: no weilcalc sources under %s" % SRC, file=sys.stderr)
        return 2
    names = declared(args.trace)
    sys.dont_write_bytecode = True
    # compile weilcalc from source on every import, whatever caches exist
    sys.pycache_prefix = str(ROOT / ".perfbench-nopyc")
    print("env " + json.dumps(environment(), sort_keys=True))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmpdir:
        run = traced if args.trace else end_to_end
        m, metrics, info = run(args.workload, args.seed, args.seconds, tmpdir)
    for key, (value, unit) in sorted(metrics.items()):
        print("metric %-48s %.6g %s" % (key, value, unit))
    print("info " + json.dumps(info, sort_keys=True))
    for err in m.errors[:20]:
        print("check failed: " + err)
    missing = [n for n in names if n not in metrics]
    if missing:
        m.errors.append("declared metrics not measured: %s" % ", ".join(missing))
        print("check failed: " + m.errors[-1])
    correct = not m.errors and m.failed == 0
    result = {
        "correct": correct,
        "attempted": max(int(m.attempted), 1),
        "failed": int(m.failed),
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names if n in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
