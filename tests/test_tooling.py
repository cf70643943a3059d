"""The test configuration itself: a failing test must not end the session;
every package module imports on its own, without an import cycle; every
name the benchmark's span tracer wraps still exists; verify-all still
opens every span the benchmark expects of it; and tools/bench_snapshot.py
reads run.py's and pytest's output into its document, compares two
such documents, and measures a parent and a change alternately into one
file, each side with its own git stamp."""

import hashlib
import importlib.util
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "weilcalc"

# a Hypothesis test that fails, then tests that must still run and report
PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after_one():
    pass


def test_after_two():
    pass


def test_after_three():
    pass
'''


def test_a_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    # Hypothesis's failure report imports a module that warns on import;
    # the warning filters must not turn that into an internal error
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path,  # Hypothesis keeps its example database in .hypothesis/ here
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 3 passed" in out, out
    assert run.returncode == 1


# registers the package without running its __init__, so the named module
# is the first one imported and its own imports decide the order
FIRST_IMPORT = """
import importlib, sys, types
pkg = types.ModuleType("weilcalc")
pkg.__path__ = [sys.argv[1]]
sys.modules["weilcalc"] = pkg
importlib.import_module("weilcalc." + sys.argv[2])
"""


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"))
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    run = subprocess.run(
        [sys.executable, "-c", FIRST_IMPORT, str(PACKAGE), module],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr


def _perfbench(stem):
    # perfbench is a directory of scripts, not a package: load by path
    spec = importlib.util.spec_from_file_location("perfbench_" + stem, ROOT / "perfbench" / (stem + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _perfbench("tracing")


def test_every_name_the_span_tracer_wraps_resolves_in_the_package():
    # a renamed or deleted traced function fails here, not only in a
    # traced benchmark run
    tracing = _tracing()
    missing = []
    for mod_name, path, _ in tracing.TARGETS:
        owner = importlib.import_module("weilcalc." + mod_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append("%s.%s" % (mod_name, path))
    exprs = importlib.import_module("weilcalc.exprs")
    missing += [name for name in tracing.EXPR_NODES if not isinstance(getattr(exprs, name, None), type)]
    assert missing == []


def test_the_span_tracer_counts_every_structure_nonzero_of_an_element_product(monkeypatch):
    # the benchmark's algebra.mul.us_per_nnz divides by this count, whatever
    # share of the structure entries the product kernel visits
    import weilcalc as wc
    from weilcalc.algebra import AlgebraElement
    from weilcalc.exprs import Var, prim

    tracing = _tracing()
    element_products = []
    plain_mul = AlgebraElement.__mul__

    def counted(self, other):
        if isinstance(other, AlgebraElement):
            element_products.append(1)
        return plain_mul(self, other)

    monkeypatch.setattr(AlgebraElement, "__mul__", counted)
    monkeypatch.setattr(AlgebraElement, "__rmul__", counted)
    a = wc.algebra.make_basic("truncated", 1, 3)
    f = wc.programs.Program(2, [prim("sin", Var(0)) * Var(1) + Var(0) ** 3, prim("exp", Var(0) * Var(1))])
    coords = [AlgebraElement(a, [0.3, 1.0, 0.0, 0.0]), AlgebraElement(a, [0.5, 0.2, 1.0, 0.0])]
    point = wc.functor.WeilPoint(a, coords)
    tracer, patches = tracing.Tracer(), tracing.Patches()
    patches.install(tracer, wc)
    try:
        wc.functor.lift(a, f)(point)
    finally:
        patches.restore()
    _, counts = tracer.take()
    assert counts["algebra.mul.nnz"] > 0
    assert counts["algebra.mul.nnz"] == len(element_products) * len(a.nonzeros())
    assert tracing.Patches.leftovers() == []


def test_the_span_tracer_counts_one_node_per_raw_constructor_call():
    # the render workload's exprs.nodes_built per pass counts the calls of
    # each node class's __init__, four of which are one shared method
    import weilcalc as wc
    from weilcalc.exprs import Add, Const, Div, IntPow, Mul, Neg, Prim, Sub, Var, format_expr

    tracing = _tracing()
    assert tracing.EXPR_NODES == ("Var", "Const", "Neg", "Add", "Sub", "Mul", "Div", "IntPow", "Prim")

    def build():
        x, c = Var(0), Const(2.0)
        return [x, c, Neg(x), Add(x, c), Sub(x, c), Mul(x, c), Div(x, c), IntPow(x, 3), Prim("sin", x)]

    tracer, patches = tracing.Tracer(), tracing.Patches()
    patches.install(tracer, wc)
    try:
        built = build()
    finally:
        patches.restore()
    _, counts = tracer.take()
    assert counts["exprs.nodes_built"] == 9
    assert tracing.Patches.leftovers() == []
    after = build()
    assert [type(n).__name__ for n in after] == list(tracing.EXPR_NODES)
    assert [format_expr(n) for n in after] == [format_expr(n) for n in built] == [
        "x0", "2", "-x0", "x0 + 2", "x0 - 2", "x0*2", "x0/2", "x0^3", "sin(x0)",
    ]


def test_a_verify_all_run_opens_every_span_the_benchmark_expects(monkeypatch, capsys):
    # a refactor that moves a traced function out of verify-all fails here,
    # not only in a traced benchmark run
    import weilcalc as wc
    from test_reach import clear_memoized
    from weilcalc import cli

    tracing = _tracing()
    # run.py imports its sibling scripts by name
    monkeypatch.setitem(sys.modules, "tracing", tracing)
    monkeypatch.setitem(sys.modules, "workloads", _perfbench("workloads"))
    expected = _perfbench("run").EXPECTED["verify-all"]
    tracer, patches = tracing.Tracer(), tracing.Patches()
    clear_memoized()  # so the memoized constructors run again, traced
    patches.install(tracer, wc)
    try:
        code = cli.main(["verify", "--suite", "all", "--seed", "7", "--samples", "1"])
    finally:
        patches.restore()
        clear_memoized()  # nothing built under the tracer outlives the test
    stats, _ = tracer.take()
    assert code == 0, capsys.readouterr().out
    assert sorted(expected - set(stats)) == []
    assert patches.missing == []
    assert tracing.Patches.leftovers() == []


def _bench_snapshot():
    spec = importlib.util.spec_from_file_location("bench_snapshot", ROOT / "tools" / "bench_snapshot.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _canned_run(wall, trace):
    """The output of one perfbench/run.py run, cut down to two metrics."""
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": 45.5, "unit": "MB"}}
    lines = [
        'env {"commit": "abc", "nproc": 2, "python": "3.11.7", "weilcalc_lines": 5099}',
        "metric %-48s %.6g %s" % ("algebra.mul.calls" if trace else "wall_s", wall, "count" if trace else "s"),
        'info {"passes": 9}',
        json.dumps({"correct": True, "attempted": 180, "failed": 0, "metrics": metrics}),
    ]
    return "\n".join(lines) + "\n"


def test_the_bench_snapshot_reads_canned_runs_into_one_document(tmp_path, monkeypatch):
    # the subprocess calls are replaced by canned output: no benchmark starts
    snap = _bench_snapshot()
    assert snap.parse_pytest_summary("....\n559 passed in 13.35s\n") == {"passed": 559}
    assert snap.parse_pytest_summary("F.\n=== 1 failed, 2 passed, 3 warnings in 1.00s ===\n") == {
        "failed": 1, "passed": 2, "warnings": 3,
    }
    with pytest.raises(ValueError):
        snap.parse_pytest_summary("no summary here\n")
    one = snap.parse_run(_canned_run(0.125, False))
    assert one["env"]["weilcalc_lines"] == 5099
    assert one["metrics"] == {"wall_s": {"value": 0.125, "unit": "s"}}
    assert one["result"]["metrics"]["peak_rss_mb"]["value"] == 45.5

    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "verify-all"}]}))
    walls = iter([0.3, 0.1, 0.2])
    calls = []

    profile = [
        {"suite": "sigma", "label": "S", "samples": 2, "wall_s": 0.004,
         "tape_compiles": 0, "ops_compiled": 0, "ops_run": 0},
        {"suite": "bracket", "label": "dims 1-3", "samples": 3, "wall_s": 0.008,
         "tape_compiles": 3, "ops_compiled": 207, "ops_run": 3064},
    ]

    def fake_run(cmd, root, **env):
        calls.append(cmd)
        if "pytest" in cmd:
            return "..F\n1 failed, 558 passed, 2 skipped, 4 warnings, 3 deselected in 13.35s\n"
        if "verify" in cmd:
            assert env["PYTHONPATH"].startswith(str(tmp_path / "src"))
            Path(cmd[-1]).write_text(json.dumps(profile, indent=1) + "\n")
            return "pass sigma ...\noverall: pass (2/2 units)\n"
        return _canned_run(next(walls) if cmd[-1] == "0" else 7.0, cmd[-1] == "1")

    monkeypatch.setattr(snap, "_run", fake_run)
    monkeypatch.setattr(snap, "RUNS", 3)
    monkeypatch.setattr(snap, "SECONDS", 0.5)
    doc = snap.snapshot(tmp_path)
    assert len(calls) == 6 and calls[0][1:] == [
        "perfbench/run.py", "--seed", "7", "--seconds", "0.5", "--workload", "verify-all", "--trace", "0",
    ]
    assert calls[4][3:-1] == ["verify", "--suite", "all", "--seed", "7", "--profile"]
    assert doc["verify_profile"] == profile
    wl = doc["workloads"]["verify-all"]
    assert wl["end_to_end"]["wall_s"] == {"median": 0.2, "unit": "s", "values": [0.3, 0.1, 0.2]}
    assert wl["trace"] == {"algebra.mul.calls": {"value": 7.0, "unit": "count"}}
    assert wl["correct"] is True
    assert doc["env"]["commit"] == "abc" and doc["env"]["weilcalc_lines"] == 5099
    assert doc["runs"] == 3 and doc["seconds"] == 0.5
    # warnings and deselected tests are counted in outcomes, not in tests
    assert doc["tier1"]["tests"] == 561 and doc["tier1"]["outcomes"]["warnings"] == 4


def _canned_snapshot(runs):
    """A snapshot document cut down to end-to-end run values,
    {workload: {metric: one value or a list of run values}}."""
    units = {"wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}

    def metric(name, values):
        values = values if isinstance(values, list) else [values]
        return {"median": statistics.median(values), "unit": units[name], "values": values}

    return {"workloads": {
        w: {"end_to_end": {m: metric(m, v) for m, v in ms.items()}} for w, ms in runs.items()
    }}


def test_the_bench_snapshot_diff_prints_both_medians_and_the_change(capsys, tmp_path):
    snap = _bench_snapshot()
    # wall_s moves by more than either side's interquartile range, so it
    # resolves; items_per_s moves by less than the old side's, so it does not
    old = _canned_snapshot({
        "verify-all": {
            "wall_s": [0.09, 0.1, 0.1, 0.11, 0.2],
            "items_per_s": [40000.0, 50000.0, 50000.0, 70000.0, 80000.0],
            "peak_rss_mb": 0.0,
        },
        "render": {"wall_s": 0.04},
    })
    # a metric or workload that only one side holds gets no row
    new = _canned_snapshot({
        "verify-all": {
            "wall_s": [0.09, 0.085, 0.08, 0.085, 0.09],
            "items_per_s": [55000.0, 60000.0, 60000.0, 60000.0, 65000.0],
            "peak_rss_mb": 48.0,
        },
        "taylor-lift": {"wall_s": 0.07},
    })
    rows = snap.diff_rows(old, new)
    assert [r[:5] for r in rows] == [
        ("verify-all", "wall_s", "s", 0.1, 0.085),
        ("verify-all", "items_per_s", "1/s", 50000.0, 60000.0),
        ("verify-all", "peak_rss_mb", "MB", 0.0, 48.0),
    ]
    assert rows[0][5] == pytest.approx(-0.15) and rows[1][5] == pytest.approx(0.2) and math.isnan(rows[2][5])
    assert [r[6:] for r in rows] == [
        ((0.1, 0.11), (0.085, 0.09), True),
        ((50000.0, 70000.0), (60000.0, 60000.0), False),
        ((0.0, 0.0), (48.0, 48.0), True),
    ]
    paths = []
    for name, doc in (("old.json", old), ("new.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    assert snap.main(["--diff"] + [str(p) for p in paths]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["workload", "metric", "old", "new", "change", "unit", "old_q1..q3", "new_q1..q3", "spread"]
    assert out[1].split() == ["verify-all", "wall_s", "0.1", "0.085", "-15.0%", "s", "0.1..0.11", "0.085..0.09", "resolved"]
    assert out[2].split() == [
        "verify-all", "items_per_s", "50000", "60000", "+20.0%", "1/s", "50000..70000", "60000..60000", "unresolved",
    ]
    assert out[3].split() == ["verify-all", "peak_rss_mb", "0", "48", "+nan%", "MB", "0..0", "48..48", "resolved"]
    assert len(out) == 4


def _git_checkout(path, files):
    """A git repository at path whose one commit holds files."""
    path.mkdir()
    for name, text in files.items():
        (path / name).write_text(text)
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run(
            ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
             "-c", "commit.gpgsign=false", *args],
            cwd=path, check=True, capture_output=True,
        )
    return path


def test_the_paired_snapshot_alternates_the_sides_and_stamps_each(tmp_path, monkeypatch, capsys):
    # the benchmark subprocesses are replaced by canned output; git runs for real
    snap = _bench_snapshot()
    spec = json.dumps({"workloads": [{"name": "verify-all"}, {"name": "render"}]})
    parent = _git_checkout(tmp_path / "parent", {"BENCHMARK.json": spec})
    change = _git_checkout(tmp_path / "change", {"BENCHMARK.json": spec})
    (change / "BENCHMARK.json").write_text(spec + "\n")  # an uncommitted edit
    plain = []
    base = {"parent": 0.3, "change": 0.2}

    def fake_run(cmd, root, **env):
        if "pytest" in cmd:
            return "3 passed in 1.00s\n"
        if "verify" in cmd:
            Path(cmd[-1]).write_text("[]\n")
            return ""
        if cmd[-1] == "0":
            plain.append([cmd[-3], root.name])
            return _canned_run(base[root.name] + 0.01 * sum(p[1] == root.name for p in plain), False)
        return _canned_run(7.0, True)

    monkeypatch.setattr(snap, "_run", fake_run)
    monkeypatch.setattr(snap, "RUNS", 3)
    doc = snap.paired_snapshot(parent, change)
    # each pair starts on the other side from the pair before
    pairs = ["parent", "change", "change", "parent", "parent", "change"]
    assert plain == doc["order"] == [[w, s] for w in ("verify-all", "render") for s in pairs]
    for side, root in (("parent", parent), ("change", change)):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True).stdout.strip()
        diff = subprocess.run(["git", "diff", "HEAD"], cwd=root, capture_output=True).stdout
        assert doc[side]["stamp"] == {
            "commit": head, "dirty": side == "change", "diff_sha256": hashlib.sha256(diff).hexdigest(),
        }
        wl = doc[side]["workloads"]["verify-all"]
        assert wl["end_to_end"]["wall_s"]["values"] == pytest.approx([base[side] + 0.01 * k for k in (1, 2, 3)])
        assert len(wl["calibration"]) == 3
        assert all(c["python_s"] > 0 and c["numpy_s"] > 0 for c in wl["calibration"])
        assert doc[side]["tier1"]["tests"] == 3
    assert doc["parent"]["stamp"]["diff_sha256"] == hashlib.sha256(b"").hexdigest()
    row = doc["diff"][0]
    assert (row["workload"], row["metric"], row["resolved"]) == ("verify-all", "wall_s", True)
    assert (row["parent"], row["change"]) == pytest.approx((0.32, 0.22))

    # --diff reads both sides out of the one file
    path = tmp_path / "BENCH_pair.json"
    path.write_text(json.dumps(doc))
    assert snap.main(["--diff", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    # with this checkout's BENCHMARK.json, which says lower wall_s is better
    assert out[1].split() == [
        "verify-all", "wall_s", "0.32", "0.22", "-31.2%", "s", "0.315..0.325", "0.215..0.225", "resolved", "3/3",
    ]
    # the end-to-end table, then the traced metrics both sides hold; the
    # profiles are empty, so no counter table
    assert out.index("") == 1 + len(doc["diff"]) == 5
    assert out[6].split()[:2] == ["workload", "trace"]
    assert [line.split()[:4] for line in out[7:]] == [
        ["verify-all", "algebra.mul.calls", "7", "7"], ["render", "algebra.mul.calls", "7", "7"],
    ]
    # the change's BENCHMARK.json declares no end-to-end metric: no verdict
    assert (row["won"], row["pairs"], row["over_bound"]) == (None, 3, None)
    # a one-sided file has nothing to compare
    (tmp_path / "one.json").write_text(json.dumps(doc["change"]))
    with pytest.raises(SystemExit):
        snap.main(["--diff", str(tmp_path / "one.json")])


def test_the_bench_snapshot_diff_of_a_two_sided_file_gives_the_pipelines_verdict(tmp_path, capsys):
    snap = _bench_snapshot()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "items_per_s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    ]}))
    parent = _canned_snapshot({
        "taylor-lift": {"wall_s": [0.10, 0.12, 0.11, 0.10, 0.13], "items_per_s": [100.0, 90.0, 95.0, 99.0, 80.0],
                        "peak_rss_mb": [40.0, 40.0, 40.0, 40.0, 40.0]},
        "render": {"wall_s": [0.05, 0.05, 0.05]},
    })
    change = _canned_snapshot({
        # four pairs won, one tied: a tie counts for neither side
        "taylor-lift": {"wall_s": [0.08, 0.12, 0.09, 0.08, 0.10], "items_per_s": [110.0, 80.0, 95.0, 100.0, 90.0],
                        "peak_rss_mb": [40.0, 40.0, 40.0, 40.0, 40.0]},
        # worse by 30% against a bound of 25%
        "render": {"wall_s": [0.065, 0.065, 0.06]},
    })
    doc = {"parent": parent, "change": change}
    rows = snap.diff_rows(parent, change)
    got = snap.verdicts(parent, change, rows, snap.metric_specs(tmp_path))
    assert [(r[0], r[1]) + v for r, v in zip(rows, got)] == [
        ("taylor-lift", "wall_s", 4, 5, False),
        ("taylor-lift", "items_per_s", 3, 5, False),
        ("taylor-lift", "peak_rss_mb", 0, 5, False),
        ("render", "wall_s", 0, 3, True),
    ]
    # a metric BENCHMARK.json does not declare gets no verdict
    assert snap.verdicts(parent, change, rows[:1], {}) == [(None, 5, None)]
    path = tmp_path / "BENCH_pair.json"
    path.write_text(json.dumps(doc))
    assert snap.main(["--diff", str(path), "--root", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split()[-2:] == ["won", "bound"]
    # the row over bound comes first, then the others in order
    assert out[1].split()[:2] == ["render", "wall_s"] and out[1].split()[-2:] == ["0/3", "OVER-BOUND"]
    assert [line.split()[1] for line in out[2:]] == ["wall_s", "items_per_s", "peak_rss_mb"]
    assert [line.split()[-1] for line in out[2:]] == ["4/5", "3/5", "0/5"]


def test_the_bench_snapshot_diff_of_a_two_sided_file_sums_the_exact_counters(tmp_path, capsys):
    snap = _bench_snapshot()

    def side(products, compiles, traced):
        doc = _canned_snapshot({"taylor-lift": {"wall_s": [0.03, 0.03, 0.03]}, "render": {"wall_s": 0.05}})
        doc["verify_profile"] = [
            {"suite": "sigma", "label": "S", "samples": 25, "wall_s": 0.0137, "algebra_products": 0,
             "product_compiles": compiles[0]},
            {"suite": "bracket", "label": "dims 1-3", "samples": 1200, "wall_s": 0.028,
             "algebra_products": products, "product_compiles": compiles[1]},
        ]
        doc["workloads"]["taylor-lift"]["trace"] = {
            name: {"value": value, "unit": unit} for name, (value, unit) in traced.items()
        }
        return doc

    parent = side(2_303_000_000_001, (1, 8), {"algebra.analytic.calls": (768.0, "count"),
                                              "algebra.analytic.self_s": (0.0199, "s"),
                                              "algebra.mul.calls": (4352.0, "count")})
    # one more product than the parent, the compiles moved between units:
    # the totals, not the units, are compared; a metric one side lacks is left out
    change = side(2_303_000_000_002, (0, 9), {"algebra.analytic.calls": (768.0, "count"),
                                              "algebra.analytic.self_s": (0.0108, "s")})
    assert snap.counter_rows(parent, change) == [
        ("samples", 1225, 1225), ("algebra_products", 2_303_000_000_001, 2_303_000_000_002),
        ("product_compiles", 9, 9),
    ]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [{"name": "wall_s", "better": "lower"}]}))
    path = tmp_path / "BENCH_pair.json"
    path.write_text(json.dumps({"parent": parent, "change": change}))
    assert snap.main(["--diff", str(path), "--root", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    first = out.index("")
    assert [line.split()[:2] for line in out[1:first]] == [["taylor-lift", "wall_s"], ["render", "wall_s"]]
    counters = out[first + 1:]
    assert counters[0].split() == ["counter", "old", "new"]
    # exact integers, with no rounding, and the differing row marked
    assert [line.split() for line in counters[1:4]] == [
        ["samples", "1225", "1225"],
        ["algebra_products", "2303000000001", "2303000000002", "DIFFERS"],
        ["product_compiles", "9", "9"],
    ]
    assert counters[4] == ""
    assert counters[5].split() == ["workload", "trace", "old", "new", "change", "unit"]
    assert [line.split() for line in counters[6:]] == [
        ["taylor-lift", "algebra.analytic.calls", "768", "768", "+0.0%", "count"],
        ["taylor-lift", "algebra.analytic.self_s", "0.0199", "0.0108", "-45.7%", "s"],
    ]
    # a file without profiles or traces prints the end-to-end table alone
    for doc in (parent, change):
        del doc["verify_profile"]
        for wl in doc["workloads"].values():
            wl.pop("trace", None)
    path.write_text(json.dumps({"parent": parent, "change": change}))
    assert snap.main(["--diff", str(path), "--root", str(tmp_path)]) == 0
    assert "" not in capsys.readouterr().out.splitlines()


def test_the_bench_snapshot_diff_of_a_two_sided_file_prints_each_sides_stamp(tmp_path, capsys):
    # the stamps go to stderr, so the tables on stdout keep their shape
    snap = _bench_snapshot()
    parent = _canned_snapshot({"verify-all": {"wall_s": [0.12, 0.12, 0.12]}})
    change = _canned_snapshot({"verify-all": {"wall_s": [0.12, 0.11, 0.12]}})
    parent.update(stamp={"commit": "a" * 40, "dirty": False, "diff_sha256": "0" * 64},
                  env={"weilcalc_lines": 5511}, tier1={"wall_s": 52.8, "tests": 631, "outcomes": {"passed": 631}})
    # a side may lack what an older snapshot did not record
    change.update(stamp={"commit": "b" * 40, "dirty": True, "diff_sha256": "1" * 64}, env={"weilcalc_lines": 5491})
    path = tmp_path / "BENCH_pair.json"
    path.write_text(json.dumps({"parent": parent, "change": change}))
    assert snap.main(["--diff", str(path)]) == 0
    captured = capsys.readouterr()
    assert [line.split() for line in captured.out.splitlines()[1:]] == [
        ["verify-all", "wall_s", "0.12", "0.12", "+0.0%", "s", "0.12..0.12", "0.115..0.12", "unresolved", "1/3"],
    ]
    assert [line.split() for line in captured.err.splitlines()] == [
        ["side", "commit", "dirty", "weilcalc_lines", "tier1_tests", "tier1_wall_s"],
        ["parent", "a" * 40, "False", "5511", "631", "52.8"],
        ["change", "b" * 40, "True", "5491", "-", "-"],
    ]
    # a file whose sides hold no stamp prints none
    for side in (parent, change):
        for key in ("stamp", "env", "tier1"):
            side.pop(key, None)
    path.write_text(json.dumps({"parent": parent, "change": change}))
    assert snap.main(["--diff", str(path)]) == 0
    assert capsys.readouterr().err == ""
