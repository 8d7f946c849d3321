"""The benchmark's traced runs: the tracer finds every library function it
wraps, since a deleted or renamed function would leave its per-layer metrics
null, each workload's traced run ends in a strict-JSON result, and the
solver workloads call the validation layer through the wrapped names."""

import json
import subprocess
import sys

import pytest

from conftest import TESTS

RUN = TESTS.parent / "perfbench" / "run.py"


def test_every_traced_function_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(TESTS.parent / "perfbench"))
    import run
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    run.instrument(tracer, workloads.import_library())
    tracer.uninstall()
    values = run.layer_values(tracer)
    assert [name for name, value in values.items() if value is None] == []


def reject(constant):
    raise ValueError(f"{constant} is not strict JSON")


@pytest.mark.parametrize("workload", ["tm_decide", "selftest", "sat_search"])
def test_traced_run_ends_in_a_correct_result(workload):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "701", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line for line in lines if " absent " in line or line.startswith("MISMATCH")] == []
    result = json.loads(lines[-1], parse_constant=reject)
    assert result["correct"] is True and result["failed"] == 0
    if workload != "sat_search":
        # a caller that bypassed the wrapped names would read 0 here
        metrics = result["metrics"]
        layer = ["check_s", "prune_s", "compute_B_s", "B_size"]
        assert [m for m in layer if not metrics[f"validation.{m}"]["value"] > 0] == []
