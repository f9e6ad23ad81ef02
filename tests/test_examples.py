"""Smoke tests: every shipped example must run and produce its output.

Run as subprocesses with a tiny workload scale so the whole module stays
fast; these guard the public API the examples demonstrate.
"""

import os
import pathlib
import subprocess
import sys


EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

SMALL_ENV = {
    **os.environ,
    "REPRO_SCALE": "0.005",
    "REPRO_REQUESTS": "1200",
    "REPRO_CLIENTS": "8",
}


def run_example(name, args=(), timeout=240):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=SMALL_ENV,
        cwd=str(EXAMPLES.parent),
    )


class TestExamples:
    def test_quickstart(self):
        proc = run_example("quickstart.py")
        assert proc.returncode == 0, proc.stderr
        assert "aggregate hit rate" in proc.stdout
        assert "protocol invariants OK" in proc.stdout

    def test_webserver_comparison(self):
        proc = run_example("webserver_comparison.py")
        assert proc.returncode == 0, proc.stderr
        assert "press" in proc.stdout
        assert "cc-kmc" in proc.stdout
        assert "vs PRESS" in proc.stdout

    def test_custom_service(self):
        proc = run_example("custom_service.py")
        assert proc.returncode == 0, proc.stderr
        assert "segment hit rate" in proc.stdout

    def test_scalability(self):
        proc = run_example("scalability.py")
        assert proc.returncode == 0, proc.stderr
        assert "Figure 6b: CC-KMC scalability" in proc.stdout
        assert "speedup 4 -> 32 nodes" in proc.stdout

    def test_shared_workspace(self):
        proc = run_example("shared_workspace.py")
        assert proc.returncode == 0, proc.stderr
        assert "dirty blocks remaining:       0" in proc.stdout
        assert "protocol invariants OK" in proc.stdout
