from pathlib import Path

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def test_every_traced_name_exists(monkeypatch):
    # The tracer looks up each library name it wraps with vars(owner)[name],
    # so a deleted or renamed entry point raises KeyError here.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer
    from workloads import instrument

    with Tracer() as tr:
        instrument(tr)
