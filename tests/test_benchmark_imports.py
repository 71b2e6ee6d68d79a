"""Benchmark-drift smoke: every bench module must stay importable.

Benchmarks are not part of the tier-1 run (they are slow), so an API
rename can silently strand them.  Importing each module catches stale
imports and signature drift cheaply; CI runs the same check as a
dedicated job.
"""

import importlib
import importlib.util
import os
import pathlib

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
BENCH_MODULES = sorted(BENCH_DIR.glob("bench_*.py")) + [
    BENCH_DIR / "failover_drill.py"
]


def test_bench_modules_discovered():
    assert len(BENCH_MODULES) >= 11  # D1..D11 at time of writing


@pytest.mark.parametrize("path", BENCH_MODULES, ids=lambda p: p.stem)
def test_bench_module_imports(path):
    pytest.importorskip("pytest_benchmark", reason="bench deps not installed")
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)


def test_ci_gate_fails_when_src_outgrows_its_ceiling(monkeypatch):
    pytest.importorskip("pytest_benchmark", reason="bench deps not installed")
    # ci_gate defaults these at import; keep them out of the other tests.
    for knob, default in (
        ("D8_BATCH_SLICES", "16"), ("D8_STALL_JOBS", "16"), ("D12_RECORDS", "1000")
    ):
        monkeypatch.setenv(knob, os.environ.get(knob, default))
    ci_gate = importlib.import_module("benchmarks.ci_gate")
    failures: list = []
    ci_gate.check_src_lines(ci_gate.SRC_LINES_CEILING, failures)
    assert failures == []
    ci_gate.check_src_lines(ci_gate.SRC_LINES_CEILING + 1, failures)
    assert len(failures) == 1 and "SRC_LINES_CEILING" in failures[0]
    assert ci_gate.count_src_lines() <= ci_gate.SRC_LINES_CEILING
