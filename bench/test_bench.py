"""The benchmark's own tests: count determinism, contract and checks.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import functools
import json
import shutil
import signal
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import tracing
import workloads
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Counts that do not depend on the machine: gates for quadrature changes.
DETERMINISTIC = (
    "correlation.integrand.calls",
    "correlation.quad.outer_panels",
    "correlation.quad.cap_panels",
    "correlation.quad.max_depth",
    "correlation.fourier_sin_integral.calls",
)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def kkbec():
    return worker.import_kkbec()


def test_traced_counts_repeat_at_the_same_seed():
    runs = []
    for _ in range(2):
        proc = _bench("--workload", "corr-near", "--seed", "7", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["attempted"] > 0
        runs.append({name: result["metrics"][name]["value"] for name in DETERMINISTIC})
    assert runs[0] == runs[1]
    assert runs[0]["correlation.integrand.calls"] > 0


def test_benchmark_json_lists_what_the_benchmark_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER]
    assert {m["name"] for m in doc["end_to_end"]} == {
        "req_per_s", "req_ms_p50", "req_ms_p90", "peak_rss_mb", "setup_s"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "corr-near", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_run_too_short_for_a_p90_is_an_error():
    proc = _bench("--workload", "corr-near", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "a p90 needs" in proc.stderr


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_streams_repeat_per_seed_and_differ_across_seeds(name):
    def first(seed):
        stream = workloads.requests(name, seed)
        return [next(stream) for _ in range(40)]

    assert first(3) == first(3)
    assert first(3) != first(4)


def test_checks_reject_a_perturbed_correlator(kkbec):
    refs = workloads.load_refs(workloads.ensure_refs(ROOT, "corr-near"))
    req = workloads.warmup_request("corr-near")
    outcome = workloads.execute(req, kkbec)
    assert workloads.check(req, outcome, refs) is None
    *head, row = outcome.text.strip().split("\n")
    cells = row.split(",")
    cells[3] = repr(float(cells[3]) * (1.0 + 1e-6))
    bad = replace(outcome, text="\n".join([*head, ",".join(cells)]) + "\n")
    assert "D_numeric" in workloads.check(req, bad, refs)
    assert workloads.check(req, replace(outcome, code=4), refs) == "exit code 4"


def test_checks_reject_a_bdg_check_that_skips_or_misses_momenta(kkbec):
    refs = workloads.load_refs(workloads.ensure_refs(ROOT, "oracle-cli"))
    req = workloads.warmup_request("oracle-cli")
    outcome = workloads.execute(req, kkbec)
    assert workloads.check(req, outcome, refs) is None
    worst, stable, spectra = outcome.value
    skipped = replace(outcome, value=(worst, stable, spectra[:-1]))
    assert "solved momenta" in workloads.check(req, skipped, refs)
    momentum, e_sq = spectra[3]
    off = [*spectra[:3], (momentum, e_sq * (1.0 + 1e-6)), *spectra[4:]]
    assert "E^2 off" in workloads.check(req, replace(outcome, value=(worst, stable, off)), refs)


def test_request_past_its_deadline_fails_without_stalling(kkbec):
    refs = workloads.load_refs(workloads.ensure_refs(ROOT, "corr-near"))
    server = worker.Server(kkbec, refs, deadline_s=0.2)
    # s = 0.3 costs about 17 s a row at the seed
    slow = workloads._correlation_request("corr-near", 0.3, 0, 1)
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        server.serve(slow)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert server.failed == 1 and "deadline" in server.failures[0]
    assert server.latencies_ms[0] < 2000.0


@pytest.mark.xfail(strict=True, reason=(
    "known defect: for about 1 seed in 1000 oracle-check exits 5 although the "
    "closed forms are right to ~1e-9; this N=11 set near the U' = -0.5 edge has "
    "max_rel_err 1.06e-9 against the 1e-9 pass threshold"))
def test_oracle_check_passes_at_a_random_seed(kkbec):
    req = workloads.Request("oracle-check",
                            ("oracle-check", "--cases", "8", "--seed", "2186642200"), 0, 0.0)
    assert workloads.check(req, workloads.execute(req, kkbec), None) is None


def test_a_removed_function_is_reported_absent(kkbec, monkeypatch):
    monkeypatch.delattr(kkbec.correlation, "bessel_k1")
    monkeypatch.delattr(kkbec.correlation, "fourier_sin_integral")
    tracer = tracing.Tracer(kkbec)
    tracer.install()
    tracer.uninstall()
    metrics, absent = tracer.metrics(out_bytes=0, overhead_frac=0.0)
    assert "correlation.bessel_k1.calls" in absent
    assert "correlation.quad.max_depth" in absent
    assert "model.validate.calls" not in absent
    assert [name for name, _, _ in tracing.PER_LAYER] == list(metrics)


def test_cap_panels_counts_the_refinements_that_reached_the_cap(kkbec, monkeypatch):
    correlation = kkbec.correlation
    cap = 4
    monkeypatch.setattr(correlation, "QuadConfig",
                        functools.partial(correlation.QuadConfig, max_depth=cap))
    refine, depths = correlation._adaptive_panel, Counter()

    def counted(f, a, b, cfg, depth=0):
        depths[depth] += 1
        return refine(f, a, b, cfg, depth)

    monkeypatch.setattr(correlation, "_adaptive_panel", counted)
    query = correlation.CorrelationQuery(1.5, 0, kkbec.model.normalized_params(1e-3, 9))
    tracer = tracing.Tracer(kkbec)
    tracer.install()
    try:
        correlation.numeric_corr(query)
    finally:
        tracer.uninstall()
    metrics, _ = tracer.metrics(out_bytes=0, overhead_frac=0.0)
    assert depths[cap] > 0 and depths[cap + 1] == 0
    assert metrics["correlation.quad.cap_panels"]["value"] == depths[cap]
    assert metrics["correlation.quad.max_depth"]["value"] == cap
    assert metrics["correlation.quad.outer_panels"]["value"] == depths[0]
