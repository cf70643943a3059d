"""Snapshot of a checkout's benchmark numbers, written to one JSON file.

    python3 tools/bench_snapshot.py --parent ../parent --out BENCH_36.json
    python3 tools/bench_snapshot.py --diff BENCH_36.json
    python3 tools/bench_snapshot.py --out BENCH_31.json
    python3 tools/bench_snapshot.py --diff BENCH_30.json BENCH_31.json

For each workload that BENCHMARK.json of the checkout at --root declares,
the script runs that checkout's `perfbench/run.py` as a subprocess, one run
at a time: RUNS runs of SECONDS s with `--trace 0`, of which it keeps the
median of each end-to-end metric (and every run's value), and one run with
`--trace 1`, of which it keeps the `metric` lines.  Just before each
`--trace 0` run it times a fixed pure-Python loop and a fixed numpy loop in
its own interpreter and keeps both times with the run, so that files from
different sessions can be read against the speed of the machine at the
time.  It also keeps the `env` line of the first run, whose
`weilcalc_lines` is `cat src/weilcalc/*.py | wc -l`; a stamp of its own
making, the checkout's `git rev-parse HEAD`, whether `git status` shows
any change, and a sha256 of `git diff HEAD`; each unit's entry of one
`weilcalc verify --suite all --seed 7 --profile` run (its `wall_s` and,
where the checkout counts them, its work counters: tape compiles, ops
compiled and run, algebra products, product compiles and oracle calls);
and the wall time and test count of the tier-1 run (`python -m pytest -q
--continue-on-collection-errors` with src on the path).  RUNS and SECONDS
are fixed so that every BENCH file is measured the same way.

With `--parent ROOT` the file holds two such snapshots, "parent" of the
checkout at ROOT and "change" of the one at --root, measured in one
session: for each workload the two run alternately, RUNS times each, and
each pair starts on the other side from the pair before (`order` lists
the runs as made).  Its "diff" holds the end-to-end rows that `--diff`
prints.

`--diff OLD NEW`, or `--diff FILE` of a two-sided file, prints, for each
workload and end-to-end metric both sides hold, the two medians, the
relative change and each side's quartiles of its stored run values, and
marks the row `unresolved` when the medians differ by no more than the
wider of the two interquartile ranges: a change inside the runs' own
spread reads the machine, not the code.  For a two-sided file each row
also shows the pairs the change won (pair i is the i-th run of each side;
"won" follows the metric's `better` in the BENCHMARK.json of --root, and
a tie counts for neither side), and rows whose change median is worse
than the parent's by more than the metric's `bound` come first, marked
`OVER-BOUND`: the rows a benchmark gate would refuse.  Two more tables
follow for a two-sided file: each work counter of the `verify_profile`
units (every integer field), summed over the units of each side as an
exact integer, with `DIFFERS` where the sides differ; then each traced
`trace` metric that both sides hold for a workload.  The counters do not
depend on the machine, so a change in them is the code's.  Each side's
stamp goes to stderr, so the tables on stdout keep their shape: its
commit and dirty flag, `env.weilcalc_lines`, and the tier-1 test count
and wall time, which show what a change did to the code's size and tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
RUNS = 5
SECONDS = 5.0
SIDES = ("parent", "change")
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


def stamp(root: Path) -> dict:
    """The checkout's commit, whether `git status` shows any change (an
    untracked file too), and a sha256 of `git diff HEAD`; all None outside
    a git checkout."""

    def git(*args):
        proc = subprocess.run(["git", *args], cwd=root, capture_output=True)
        return proc.stdout if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    if head is None:
        return {"commit": None, "dirty": None, "diff_sha256": None}
    return {
        "commit": head.decode().strip(),
        "dirty": bool(git("status", "--porcelain").strip()),
        "diff_sha256": hashlib.sha256(git("diff", "HEAD")).hexdigest(),
    }


def calibrate() -> dict:
    """Seconds this interpreter takes for a fixed pure-Python loop and for a
    fixed numpy loop."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    python_s = time.perf_counter() - start
    a = np.linspace(0.0, 1.0, 4096)
    start = time.perf_counter()
    for _ in range(300):
        a = np.sin(a) + a * 0.5
    return {"python_s": round(python_s, 6), "numpy_s": round(time.perf_counter() - start, 6)}


def _bench(workload: str, trace: int) -> list:
    return [sys.executable, "perfbench/run.py", "--seed", str(SEED), "--seconds", str(SECONDS),
            "--workload", workload, "--trace", str(trace)]


def timed_run(root: Path, workload: str) -> tuple:
    """(calibration, parsed output) of one `--trace 0` run, calibrated just before."""
    calibration = calibrate()
    return calibration, parse_run(_run(_bench(workload, 0), root))


def _workloads(root: Path) -> list:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [w["name"] for w in spec["workloads"]]


def _side(root: Path, mark: dict, runs: dict) -> dict:
    """One checkout's document from its stamp and its timed runs per
    workload; the traced runs, the profile and tier-1 run here."""
    workloads = {}
    for workload, timed in runs.items():
        plain = [p for _, p in timed]
        traced = parse_run(_run(_bench(workload, 1), root))
        workloads[workload] = {
            "correct": all(p["result"]["correct"] for p in plain + [traced]),
            "end_to_end": end_to_end_summary([p["result"] for p in plain]),
            "calibration": [c for c, _ in timed],
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
        "stamp": mark,
        "env": next(iter(runs.values()))[0][1]["env"],
        "workloads": workloads,
        "verify_profile": units,
        "tier1": {"wall_s": round(wall, 3), "tests": sum(outcomes.get(k, 0) for k in OUTCOMES), "outcomes": outcomes},
    }


def snapshot(root: Path) -> dict:
    mark = stamp(root)
    return _side(root, mark, {w: [timed_run(root, w) for _ in range(RUNS)] for w in _workloads(root)})


def paired_snapshot(parent: Path, change: Path) -> dict:
    """Both checkouts, their timed runs alternating; the workloads are the change's."""
    roots = dict(zip(SIDES, (parent, change)))
    marks = {side: stamp(root) for side, root in roots.items()}
    runs = {side: {} for side in SIDES}
    order = []
    for workload in _workloads(change):
        for i in range(RUNS):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                order.append([workload, side])
                runs[side].setdefault(workload, []).append(timed_run(roots[side], workload))
    doc = {side: _side(roots[side], marks[side], runs[side]) for side in SIDES}
    doc["order"] = order
    rows = diff_rows(doc["parent"], doc["change"])
    doc["diff"] = [
        {"workload": w, "metric": m, "unit": u, "parent": a, "change": b,
         "relative": None if math.isnan(c) else c, "parent_q": qa, "change_q": qb, "resolved": r,
         "won": won, "pairs": pairs, "over_bound": over}
        for (w, m, u, a, b, c, qa, qb, r), (won, pairs, over)
        in zip(rows, verdicts(doc["parent"], doc["change"], rows, metric_specs(change)))
    ]
    return doc


def metric_specs(root: Path) -> dict:
    """{name: declaration} of the end-to-end metrics in BENCHMARK.json at root."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def verdicts(parent: dict, change: dict, rows, specs: dict) -> list:
    """(pairs the change won, pairs, over bound) for each diff row of a
    two-sided file.  Pair i is the i-th run of each side; the change wins
    it when its value is better by the metric's `better`.  Over bound: the
    change's median is worse than the parent's by more than `bound` times
    the parent's.  None for what the metric's declaration does not say."""
    out = []
    for workload, name, *_ in rows:
        before, after = (side["workloads"][workload]["end_to_end"][name] for side in (parent, change))
        spec = specs.get(name, {})
        sign = {"lower": 1, "higher": -1}.get(spec.get("better"))
        pairs = list(zip(before["values"], after["values"]))
        if sign is None:
            out.append((None, len(pairs), None))
            continue
        worse = sign * (after["median"] - before["median"])
        bound = spec.get("bound")
        out.append((sum(sign * (b - a) < 0 for a, b in pairs), len(pairs),
                    None if bound is None else worse > bound * abs(before["median"])))
    return out


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


def format_diff(rows, verdicts=None) -> str:
    """The rows as a table; given the verdicts of a two-sided file, each
    row also shows the pairs won, and the rows over bound come first."""
    head = "%-12s %-12s %12s %12s %8s  %-5s %-21s %-21s %s" % (
        "workload", "metric", "old", "new", "change", "unit", "old_q1..q3", "new_q1..q3", "spread")
    lines = []
    for k, (workload, name, unit, a, b, change, qa, qb, resolved) in enumerate(rows):
        line = "%-12s %-12s %12.6g %12.6g %+7.1f%%  %-5s %-21s %-21s %s" % (
            workload, name, a, b, 100 * change, unit, "%.6g..%.6g" % qa, "%.6g..%.6g" % qb,
            "resolved" if resolved else "unresolved")
        over = False
        if verdicts is not None:
            won, pairs, over = verdicts[k]
            line = "%-120s %5s %s" % (line, "-" if won is None else "%d/%d" % (won, pairs),
                                      "OVER-BOUND" if over else "")
        lines.append((not over, line.rstrip()))
    if verdicts is not None:
        head = "%-120s %5s %s" % (head, "won", "bound")
    lines.sort(key=lambda item: item[0])  # stable: the rows over bound first, the rest in order
    return "\n".join([head] + [line for _, line in lines])


def counter_rows(old: dict, new: dict) -> list:
    """(counter, old total, new total) for each integer field of the
    `verify_profile` units, summed over each side's units, in the order the
    old side's units name them first; None for a side without the field."""

    def totals(doc):
        out = {}
        for unit in doc.get("verify_profile", []):
            for key, value in unit.items():
                if type(value) is int:
                    out[key] = out.get(key, 0) + value
        return out

    before, after = totals(old), totals(new)
    return [(k, before.get(k), after.get(k)) for k in list(before) + [k for k in after if k not in before]]


def trace_rows(old: dict, new: dict) -> list:
    """(workload, metric, unit, old value, new value) for each traced metric
    that both sides hold for a workload, in the old side's order."""
    rows = []
    for workload, before in old["workloads"].items():
        after = new["workloads"].get(workload, {}).get("trace", {})
        for name, metric in before.get("trace", {}).items():
            if name in after:
                rows.append((workload, name, metric["unit"], metric["value"], after[name]["value"]))
    return rows


def format_counters(counters, traces) -> str:
    """The counter rows, each differing one marked, then the trace rows;
    a table with no rows is left out."""
    lines = []
    if counters:
        lines += ["", "%-24s %14s %14s" % ("counter", "old", "new")]
        for name, a, b in counters:
            line = "%-24s %14s %14s %s" % (name, "-" if a is None else a, "-" if b is None else b,
                                           "DIFFERS" if a != b else "")
            lines.append(line.rstrip())
    if traces:
        lines += ["", "%-12s %-42s %12s %12s %8s  %s" % ("workload", "trace", "old", "new", "change", "unit")]
        for workload, name, unit, a, b in traces:
            change = 100 * (b - a) / a if a else float("nan")
            lines.append("%-12s %-42s %12.6g %12.6g %+7.1f%%  %s" % (workload, name, a, b, change, unit))
    return "\n".join(lines)


def stamp_rows(doc: dict) -> list:
    """(side, commit, dirty, weilcalc_lines, tier-1 tests, tier-1 wall_s)
    of each side of a two-sided file; None for what a side does not hold."""
    rows = []
    for side in SIDES:
        stamp, env, tier1 = (doc[side].get(key) or {} for key in ("stamp", "env", "tier1"))
        rows.append((side, stamp.get("commit"), stamp.get("dirty"), env.get("weilcalc_lines"),
                     tier1.get("tests"), tier1.get("wall_s")))
    return rows


def format_stamps(rows) -> str:
    """The stamp rows as a table, "-" for what a side does not hold."""
    line = "%-8s %-40s %-5s %14s %11s %12s"
    head = line % ("side", "commit", "dirty", "weilcalc_lines", "tier1_tests", "tier1_wall_s")
    return "\n".join([head] + [line % tuple("-" if v is None else v for v in row) for row in rows])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", help="the JSON file to write, e.g. BENCH_36.json")
    action.add_argument("--diff", nargs="+", metavar="FILE", help="compare OLD NEW, or the two sides of one file")
    parser.add_argument("--root", default=str(ROOT), help="the checkout to measure (default: this one)")
    parser.add_argument("--parent", help="also measure this checkout, alternating with --root")
    args = parser.parse_args(argv)
    if args.diff:
        if len(args.diff) > 2:
            parser.error("--diff takes one two-sided file or two files")
        docs = [json.loads(Path(p).read_text(encoding="utf-8")) for p in args.diff]
        if len(docs) == 1 and not all(side in docs[0] for side in SIDES):
            parser.error("a single --diff file must hold both sides, as --parent writes")
        if len(docs) == 2:
            print(format_diff(diff_rows(*docs)))
            return 0
        old, new = (docs[0][side] for side in SIDES)
        rows = diff_rows(old, new)
        print(format_diff(rows, verdicts(old, new, rows, metric_specs(Path(args.root)))))
        tables = format_counters(counter_rows(old, new), trace_rows(old, new))
        if tables:
            print(tables)
        stamps = stamp_rows(docs[0])
        if any(v is not None for row in stamps for v in row[1:]):
            print(format_stamps(stamps), file=sys.stderr)
        return 0
    root = Path(args.root).resolve()
    out = snapshot(root) if args.parent is None else paired_snapshot(Path(args.parent).resolve(), root)
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
