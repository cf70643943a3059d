"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


def test_self_time_on_nested_spans():
    # A [0,10] holds B [1,5] (which holds C [2,4]) and B [6,7]
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 2, 4, 5, 6, 7, 10]))
    tracer.begin("A")
    tracer.begin("B")
    tracer.begin("C")
    tracer.end()
    tracer.end()
    tracer.begin("B")
    tracer.end()
    tracer.end()
    stats, _ = tracer.take()
    assert stats["A"] == [1, 10, 5]
    assert stats["B"] == [2, 5, 3]
    assert stats["C"] == [1, 2, 2]
    assert sum(s[2] for s in stats.values()) == 10


def test_excluded_time_leaves_self_time_of_the_open_span():
    tracer = tracing.Tracer(clock=FakeClock([0, 10]))
    tracer.begin("A")
    tracer.exclude(4)
    tracer.end()
    stats, _ = tracer.take()
    assert stats["A"] == [1, 10, 6]


def test_recursive_calls_fold_into_the_outer_span():
    tracer = tracing.Tracer()
    calls = []

    def fact(n):
        calls.append(n)
        return 1 if n <= 1 else n * wrapped(n - 1)

    wrapped = tracing._span(tracer, "fact", fact)
    assert wrapped(5) == 120
    stats, _ = tracer.take()
    assert stats["fact"][0] == 1 and len(calls) == 5


def test_paused_tracer_records_nothing():
    tracer = tracing.Tracer()
    f = tracing._span(tracer, "f", lambda: 1)
    with tracer.paused():
        f()
    assert tracer.take() == ({}, {})


def test_rendering_parser_matches_the_evaluator():
    wc = run.import_weilcalc()
    ex = wc.exprs
    x0, x1 = ex.Var(0), ex.Var(1)
    e = ex.Const(-0.5) * ex.intpow(x0, 3) - ex.neg(x1) / (ex.Const(2.0) + ex.prim("sin", x0 * x1))
    e = e + ex.intpow(x1 - x0, -2) * ex.prim("exp", -x1)
    at = {"x0": 0.3, "x1": -0.7}
    want = wc.programs.evaluate(wc.programs.Program(2, [e]), [0.3, -0.7])[0]
    got = workloads.eval_rendering(ex.format_expr(e), at)
    assert math.isclose(got, want, rel_tol=1e-12)
    got = workloads.eval_rendering(ex.format_expr(ex.simplify(e)), at)
    assert math.isclose(got, want, rel_tol=1e-9)
    with pytest.raises(ValueError):
        workloads.eval_rendering("__import__('os')", at)


def test_verify_gate_counts_missing_and_changed_units(tmp_path):
    total = sum(n for _, _, n in workloads.VERIFY_UNITS)
    doc = {
        "suites": [
            {"suite": s, "algebra": l, "samples": n, "status": "pass"}
            for s, l, n in workloads.VERIFY_UNITS
        ]
    }
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert workloads.check_verify_report(0, str(path)) == (total, 0, [])
    doc["suites"][1]["samples"] = 600  # bracket dims 1-3 checking less
    doc["suites"][7]["status"] = "fail"
    del doc["suites"][-1]
    path.write_text(json.dumps(doc))
    attempted, failed, errors = workloads.check_verify_report(1, str(path))
    assert attempted == total
    assert failed == 1200 + 100 + 20
    assert errors
    assert workloads.check_verify_report(0, str(tmp_path / "missing.json"))[1] == total


def test_gate_fires_on_a_perturbed_evaluator(monkeypatch, capsys):
    original = run.import_weilcalc

    def perturbed():
        wc = original()
        inner = wc.functor.evaluate
        left = [1]

        def evaluate(prog, args):
            out = inner(prog, args)
            if left[0]:
                left[0] -= 1
                out[0] = out[0] + 1e-3
            return out

        wc.functor.evaluate = evaluate
        return wc

    monkeypatch.setattr(run, "import_weilcalc", perturbed)
    rc = run.main(["--workload", "taylor-lift", "--seed", "3", "--seconds", "0.1", "--trace", "0"])
    out = capsys.readouterr().out
    result = last_json(out)
    info = json.loads([l for l in out.splitlines() if l.startswith("info ")][0][5:])
    assert rc != 0
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert info["failed_ratio"] > 0


def test_traced_run_restores_every_patch_and_reports_declared_metrics(monkeypatch, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    used = []
    original = run.import_weilcalc

    def recording():
        used.append(original())
        return used[-1]

    monkeypatch.setattr(run, "import_weilcalc", recording)
    for name in ("taylor-lift", "render"):
        rc = run.main(["--workload", name, "--seed", "5", "--seconds", "0.1", "--trace", "1"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert tracing.Patches.leftovers() == []
        wc = used[-1]
        assert wc.algebra.AlgebraElement.__mul__ is wc.algebra.AlgebraElement.__rmul__
        assert wc.functor.evaluate is wc.programs.evaluate
        assert wc.package.lift is wc.functor.lift
        result = last_json(out)
        assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
        for m in spec["per_layer"]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"] == run.unit_of(m["name"])


def test_runs_leave_no_files_in_the_checkout(capsys):
    def listing():
        found = set()
        for base, dirs, files in os.walk(ROOT):
            dirs[:] = [d for d in dirs if d not in (".git", ".pytest_cache", "__pycache__")]
            found.update(os.path.join(base, f) for f in files)
            found.update(os.path.join(base, d) for d in dirs)
        return found

    before = listing()
    for trace in ("0", "1"):
        rc = run.main(["--workload", "render", "--seed", "9", "--seconds", "0.1", "--trace", trace])
        assert rc == 0, capsys.readouterr().out
    assert listing() == before


def test_end_to_end_metrics_match_the_declaration(capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rc = run.main(["--workload", "render", "--seed", "7", "--seconds", "0.1", "--trace", "0"])
    result = last_json(capsys.readouterr().out)
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "render", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
