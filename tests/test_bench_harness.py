"""The benchmark's own self-tests, run against this checkout's library.

They patch library functions by name, so a library change that drops or
renames one of those names fails here rather than in the next benchmark run.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_tests_pass():
    proc = subprocess.run(
        [sys.executable, "benchmarks/test_benchmarks.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
