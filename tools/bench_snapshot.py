"""Snapshot of a checkout's benchmark numbers, written to one JSON file.

    python3 tools/bench_snapshot.py --out BENCH_31.json
    python3 tools/bench_snapshot.py --root ../parent --out BENCH_30.json
    python3 tools/bench_snapshot.py --diff BENCH_30.json BENCH_31.json

For each workload that BENCHMARK.json of the checkout at --root declares,
the script runs that checkout's `perfbench/run.py` as a subprocess, one run
at a time: RUNS runs of SECONDS s with `--trace 0`, of which it keeps the
median of each end-to-end metric (and every run's value), and one run with
`--trace 1`, of which it keeps the `metric` lines.  It also keeps the `env`
line of the first run, whose `weilcalc_lines` is `cat src/weilcalc/*.py |
wc -l`, each unit's entry of one `weilcalc verify --suite all --seed 7
--profile` run (its `wall_s` and, where the checkout counts them, its work
counters: tape compiles, ops compiled and run, algebra products, product
compiles and oracle calls), and the wall time and test count of
the tier-1 run (`python -m pytest -q --continue-on-collection-errors`
with src on the path).  RUNS
and SECONDS are fixed so that every BENCH file is measured the same way.
Before and after numbers of a change come from two snapshots taken on the
same machine, one after the other; `--diff OLD NEW` prints, for each
workload and end-to-end metric both hold, the two medians, the relative
change and each side's quartiles of its stored run values, and marks the
row `unresolved` when the medians differ by no more than the wider of the
two interquartile ranges: a change inside the runs' own spread reads the
machine, not the code.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
RUNS = 5
SECONDS = 5.0
# the outcomes pytest counts tests under; "warnings" and "deselected" are not tests
OUTCOMES = ("passed", "failed", "skipped", "xfailed", "xpassed", "error", "errors")
# runs the checkout's command line, as the installed `weilcalc` script does
VERIFY = "import sys; from weilcalc.cli import main; sys.exit(main())"
# the last line of pytest -q: "559 passed, 2 skipped in 13.35s"
SUMMARY = re.compile(r"^=*\s*((?:\d+ \w+(?:, )?)+) in [\d.]+s")


def parse_run(text: str) -> dict:
    """The parts of one `perfbench/run.py` output: the `env` object, the
    `metric` lines as {name: {"value", "unit"}}, and the final JSON line."""
    env, metrics = None, {}
    for line in text.splitlines():
        if line.startswith("env "):
            env = json.loads(line[4:])
        elif line.startswith("metric "):
            name, value, unit = line[7:].split()
            metrics[name] = {"value": float(value), "unit": unit}
    last = text.strip().splitlines()[-1]
    return {"env": env, "metrics": metrics, "result": json.loads(last)}


def parse_pytest_summary(text: str) -> dict:
    """{outcome: count} from the summary line of a pytest -q run."""
    for line in reversed(text.strip().splitlines()):
        match = SUMMARY.match(line.strip())
        if match:
            return {kind: int(n) for n, kind in (part.split() for part in match.group(1).split(", "))}
    raise ValueError("no pytest summary line in the output")


def end_to_end_summary(results: list) -> dict:
    """Per end-to-end metric of several runs' final JSON lines: the median,
    the unit and every run's value, in run order."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        out[name] = {"median": statistics.median(values), "unit": results[0]["metrics"][name]["unit"], "values": values}
    return out


def _run(cmd, root: Path, **env) -> str:
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, env={**os.environ, **env})
    if proc.returncode not in (0, 1):
        raise RuntimeError("%s exited with %d:\n%s" % (" ".join(cmd), proc.returncode, proc.stderr))
    return proc.stdout


def profile_units(root: Path) -> list:
    """The unit entries of one `verify --suite all --seed SEED --profile`
    run of the checkout, in report order."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "profile.json"
        verify = ["verify", "--suite", "all", "--seed", str(SEED), "--profile", str(out)]
        _run([sys.executable, "-c", VERIFY] + verify, root, PYTHONPATH=_src_path(root))
        return json.loads(out.read_text(encoding="utf-8"))


def _src_path(root: Path) -> str:
    """PYTHONPATH with the checkout's src first."""
    return os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))


def snapshot(root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    bench = [sys.executable, "perfbench/run.py", "--seed", str(SEED), "--seconds", str(SECONDS)]
    env, workloads = None, {}
    for workload in (w["name"] for w in spec["workloads"]):
        plain = [parse_run(_run(bench + ["--workload", workload, "--trace", "0"], root)) for _ in range(RUNS)]
        traced = parse_run(_run(bench + ["--workload", workload, "--trace", "1"], root))
        env = env or plain[0]["env"]
        workloads[workload] = {
            "correct": all(p["result"]["correct"] for p in plain + [traced]),
            "end_to_end": end_to_end_summary([p["result"] for p in plain]),
            "trace": traced["metrics"],
        }
    units = profile_units(root)
    start = time.perf_counter()
    tests = _run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"],
        root,
        PYTHONPATH=_src_path(root),
    )
    wall = time.perf_counter() - start
    outcomes = parse_pytest_summary(tests)
    return {
        "seed": SEED,
        "runs": RUNS,
        "seconds": SECONDS,
        "env": env,
        "workloads": workloads,
        "verify_profile": units,
        "tier1": {"wall_s": round(wall, 3), "tests": sum(outcomes.get(k, 0) for k in OUTCOMES), "outcomes": outcomes},
    }


def quartiles(values) -> tuple:
    """(first, third) quartile of a metric's run values, interpolated
    between the sorted values as numpy's default percentile is."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def diff_rows(old: dict, new: dict) -> list:
    """(workload, metric, unit, old median, new median, relative change,
    old quartiles, new quartiles, resolved) for each end-to-end metric of
    each workload that both snapshots hold, in the old snapshot's order;
    the change is NaN where the old median is 0, and a row is resolved when
    the medians differ by more than the wider interquartile range."""
    rows = []
    for workload, before in old["workloads"].items():
        after = new["workloads"].get(workload, {}).get("end_to_end", {})
        for name, metric in before["end_to_end"].items():
            if name in after:
                a, b = metric["median"], after[name]["median"]
                qa, qb = quartiles(metric["values"]), quartiles(after[name]["values"])
                spread = max(qa[1] - qa[0], qb[1] - qb[0])
                change = (b - a) / a if a else float("nan")
                rows.append((workload, name, metric["unit"], a, b, change, qa, qb, abs(b - a) > spread))
    return rows


def format_diff(rows) -> str:
    lines = ["%-12s %-12s %12s %12s %8s  %-5s %-21s %-21s %s" % (
        "workload", "metric", "old", "new", "change", "unit", "old_q1..q3", "new_q1..q3", "spread")]
    for workload, name, unit, a, b, change, qa, qb, resolved in rows:
        lines.append("%-12s %-12s %12.6g %12.6g %+7.1f%%  %-5s %-21s %-21s %s" % (
            workload, name, a, b, 100 * change, unit, "%.6g..%.6g" % qa, "%.6g..%.6g" % qb,
            "resolved" if resolved else "unresolved"))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", help="the JSON file to write, e.g. BENCH_31.json")
    action.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"), help="compare two snapshot files")
    parser.add_argument("--root", default=str(ROOT), help="the checkout to measure (default: this one)")
    args = parser.parse_args(argv)
    if args.diff:
        old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.diff)
        print(format_diff(diff_rows(old, new)))
        return 0
    out = snapshot(Path(args.root).resolve())
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
