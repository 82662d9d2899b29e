"""Tests of the benchmark itself (not of halfharm).

    PYTHONPATH=src python3 -m pytest -q bench

They run in seconds: no test runs a whole workload.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, rebind  # noqa: E402

from halfharm import certificates, competitors  # noqa: E402
from halfharm.certificates import CertificateReport  # noqa: E402
from halfharm.errors import NumericalFailure  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------- the contract file


def test_benchmark_json_names_match_what_the_benchmark_reports():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert len(per_layer) == len(set(per_layer))
    assert set(per_layer) == set(layers.metrics(Tracer("t"))) | set(layers.RUN_LEVEL)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"} == set(bounds)
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_recorded_tolerances_are_no_looser_than_the_certificates():
    reference = workloads.load_reference()
    assert len(reference) == 20
    for ref in reference:
        for field in ("closed", "oracle"):
            tol = ref[f"{field}_tol"]
            assert 0 < tol <= ref["tolerance"]
            assert tol <= workloads.DRIFT_REL * max(1.0, abs(ref[field])) * (1 + 1e-12)


# ---------------------------------------------------------------- output gate


def _reports_from(reference, **perturb):
    return [CertificateReport.from_values(r["name"], r["closed"] + perturb.get(r["name"], 0.0),
                                          r["oracle"], r["tolerance"])
            for r in reference]


def test_recorded_battery_passes_the_gate():
    reference = workloads.load_reference()
    ledger = workloads.Ledger()
    ledger.attempt("battery", len(reference),
                   lambda: workloads.check_battery(_reports_from(reference), reference))
    assert (ledger.attempted, ledger.failed) == (20, 0)


def test_a_drifted_certificate_is_a_failed_operation():
    reference = workloads.load_reference()
    target = reference[13]  # higher-degree-energy-deficit: its verdict still passes
    drift = 10 * target["closed_tol"]
    reports = _reports_from(reference, **{target["name"]: drift})
    assert all(r.verdict == "pass" for r in reports)
    ledger = workloads.Ledger()
    ledger.attempt("battery", len(reference), lambda: workloads.check_battery(reports, reference))
    assert (ledger.attempted, ledger.failed) == (20, 1)
    assert target["name"] in ledger.failures[0]


def test_a_missing_certificate_is_a_failed_operation():
    reference = workloads.load_reference()
    checks = workloads.check_battery(_reports_from(reference)[1:], reference)
    assert [ok for _, ok, _ in checks].count(False) == 1


def test_a_perturbed_output_raises_fail_frac(monkeypatch):
    real = competitors.profile_energy
    monkeypatch.setattr(competitors, "profile_energy", lambda g: real(g) * (1.0 + 1e-3))
    ledger = workloads.Ledger()
    ledger.attempt("delta", 2, lambda: workloads._delta_checks(0.4))
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert "profile_energy" in ledger.failures[0]


def test_a_raised_numerical_failure_fails_every_output_of_the_call(monkeypatch):
    def broken(delta):
        raise NumericalFailure("budget inversion residual exceeds target")

    monkeypatch.setattr(competitors, "optimal_profile", broken)
    ledger = workloads.Ledger()
    ledger.attempt("delta", 2, lambda: workloads._delta_checks(0.4))
    assert (ledger.attempted, ledger.failed) == (2, 2)
    assert "NumericalFailure" in ledger.failures[0]


def test_fail_frac_counts_failed_over_attempted():
    traced = {"pid": 2, "wall_s": 1.1, "attempted": 10, "failed": 1,
              "layers": layers.metrics(Tracer("t"))}
    plain = {"pid": 1, "wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0, "attempted": 10, "failed": 0}
    m = {"plain": [plain], "traced": [traced], "setups": [0.5] * 5}
    result = run.summarize(types.SimpleNamespace(trace=1), m)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (20, 1)
    assert result["metrics"]["fail_frac"]["value"] == pytest.approx(0.05)
    assert result["metrics"]["trace.overhead_frac"]["value"] == pytest.approx(0.1)
    assert [m["name"] for m in SPEC["per_layer"]] == list(result["metrics"])


# ---------------------------------------------------------------- cold repetitions


def test_repetitions_sharing_a_process_are_rejected():
    ok = {"pid": 1, "warm": []}
    run.check_cold([ok, {"pid": 2, "warm": []}])
    with pytest.raises(run.BenchError):
        run.check_cold([ok, {"pid": 1, "warm": []}])
    with pytest.raises(run.BenchError):
        run.check_cold([{"pid": os.getpid(), "warm": []}])


def test_warm_tables_at_timing_start_are_rejected():
    with pytest.raises(run.BenchError):
        run.check_cold([{"pid": 1, "warm": ["halfharm.certificates._f2_block"]}])


def test_warm_caches_sees_a_memoized_certificate_table():
    certificates._polar_rows.cache_clear()
    try:
        assert "halfharm.certificates._polar_rows" not in rep.warm_caches()
        certificates._polar_rows()
        assert "halfharm.certificates._polar_rows" in rep.warm_caches()
    finally:
        certificates._polar_rows.cache_clear()


def test_warm_caches_looks_through_trace_wrappers(monkeypatch):
    rows = certificates._polar_rows
    rows.cache_clear()
    try:
        rows()
        monkeypatch.setattr(certificates, "_polar_rows", Tracer("t").wrap("rows", rows))
        assert "halfharm.certificates._polar_rows" in rep.warm_caches()
    finally:
        rows.cache_clear()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_repetition_is_a_fresh_process_with_cold_tables(workload):
    runner = run.Runner(workload, 7, run.child_env(os.environ, os.cpu_count() or 1))
    first, setup = runner.spawn("--setup-only")
    second, _ = runner.spawn("--setup-only")
    assert first["pid"] != second["pid"]
    assert os.getpid() not in (first["pid"], second["pid"])
    assert first["warm"] == [] and second["warm"] == []
    assert 0 < setup < 60


# ---------------------------------------------------------------- arguments and environment


@pytest.mark.parametrize("argv", [
    ["--workload", "nope", "--seed", "1", "--seconds", "5", "--trace", "0"],
    ["--workload", "battery", "--seed", "-1", "--seconds", "5", "--trace", "0"],
    ["--workload", "battery", "--seed", "1.5", "--seconds", "5", "--trace", "0"],
    ["--workload", "battery", "--seed", "x", "--seconds", "5", "--trace", "0"],
    ["--workload", "battery", "--seed", "1", "--seconds", "0", "--trace", "0"],
    ["--workload", "battery", "--seed", "1", "--seconds", "100000", "--trace", "0"],
    ["--workload", "battery", "--seed", "1", "--seconds", "5", "--trace", "2"],
])
def test_bad_arguments_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        run.parse_args(argv)
    assert exc.value.code == 2


def test_thread_counts_are_capped_at_the_cpu_count():
    env = run.child_env({"HALFHARM_THREADS": "10000", "OPENBLAS_NUM_THREADS": "1",
                         "OMP_NUM_THREADS": "many"}, cpus=2)
    assert env["HALFHARM_THREADS"] == "2"
    assert env["OPENBLAS_NUM_THREADS"] == "1"
    assert env["OMP_NUM_THREADS"] == "many"
    assert env["PYTHONPATH"].split(os.pathsep)[0] == str(ROOT / "src")


def test_repetition_count_is_bounded():
    assert 1 <= run.MAX_REPS <= 50
    assert run.HARD_LIMIT_S < 180


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "battery", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------- tracer


def test_self_time_excludes_children_and_inclusive_counts_outermost_only():
    tracer = Tracer("t")

    def leaf():
        time.sleep(0.02)

    traced_leaf = tracer.wrap("leaf", leaf)

    def outer(depth):
        time.sleep(0.01)
        traced_leaf()
        if depth:
            traced_outer(depth - 1)

    traced_outer = tracer.wrap("outer", outer)
    traced_outer(1)
    o, lf = tracer.stat("outer"), tracer.stat("leaf")
    assert (o.calls, lf.calls) == (2, 2)
    assert lf.self_s == pytest.approx(lf.inclusive_s)
    assert o.self_s == pytest.approx(o.inclusive_s - lf.inclusive_s, abs=2e-3)
    assert o.inclusive_s == pytest.approx(0.06, abs=0.02)
    spans = list(tracer.spans)
    rows = [spans[i:i + 6] for i in range(0, len(spans), 6)]
    by_id = {r[0]: r for r in rows}
    for span_id, name, parent, _thread, start, end in rows:
        assert end >= start
        if parent:
            assert by_id[parent][4] <= start and end <= by_id[parent][5]


def test_a_cache_hit_is_a_near_zero_span(tmp_path):
    import functools

    @functools.lru_cache(maxsize=1)
    def table():
        time.sleep(0.05)
        return 1

    tracer = Tracer("t")
    traced = tracer.wrap("table", table)
    traced()
    first = tracer.stat("table").inclusive_s
    traced()
    assert tracer.stat("table").calls == 2
    assert tracer.stat("table").inclusive_s - first < 1e-3
    tracer.write(tmp_path / "t.npz")
    import numpy as np

    saved = np.load(tmp_path / "t.npz")
    assert list(saved["names"]) == ["table"] and len(saved["id"]) == 2


def test_rebind_reaches_every_module_that_imported_the_name(monkeypatch):
    def original():
        return 1

    for name in ("halfharm._bench_a", "halfharm._bench_b"):
        module = types.ModuleType(name)
        module.target = original
        monkeypatch.setitem(sys.modules, name, module)
    tracer = Tracer("t")
    rebind("halfharm._bench_a", "target", lambda fn: tracer.wrap("target", fn))
    assert sys.modules["halfharm._bench_b"].target() == 1
    assert sys.modules["halfharm._bench_a"].target is sys.modules["halfharm._bench_b"].target
    assert tracer.stat("target").calls == 1


def test_halfspace_inputs_depend_on_the_seed_but_not_their_geometry():
    a, b = workloads.halfspace_inputs(1), workloads.halfspace_inputs(2)
    assert a["u1"](0.1 + 0.1j) != b["u1"](0.1 + 0.1j)
    assert a["R"] == b["R"]
    assert a["sum"].far_radius == b["sum"].far_radius
