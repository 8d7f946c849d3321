"""The benchmark's tracer finds every library function it wraps: a deleted or
renamed function would leave its per-layer metrics null in a traced run."""

from conftest import TESTS


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
