"""The benchmark's tracer (``perfbench/tracing.py``) patches program
attributes by name.  Installing and removing its hooks must keep working
when those names move, or only the traced benchmark run would notice."""

import pathlib

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


def test_tracer_and_counter_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    targets = [t for ts in tracing.SPAN_TARGETS.values() for t in ts]
    before = [owner.__dict__[attr] for owner, attr in targets]
    with tracing.Tracer().installed():
        pass
    with tracing.Counter().installed():
        pass
    assert [owner.__dict__[attr] for owner, attr in targets] == before
