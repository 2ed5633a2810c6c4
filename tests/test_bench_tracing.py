"""The benchmark's traced run can still wrap every function it names.

``bench/tracing.py`` looks its targets up by name, so renaming one of them
in ``src/`` would otherwise only show in the slow ``bench/test_run.py``.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _lookup(mod_name, cls_name, attr):
    module = importlib.import_module(mod_name)
    if cls_name is None:
        return getattr(module, attr)
    return getattr(module, cls_name).__dict__[attr]


def test_every_target_wrapped_and_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    originals = [_lookup(mod, cls, attr) for mod, cls, attr, *_ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, cls, attr, *_), orig in zip(tracing.TARGETS, originals):
            wrapped = _lookup(mod, cls, attr)
            assert wrapped is not orig and wrapped.__wrapped__ is orig, (mod, attr)
    finally:
        tracer.uninstall()
    for (mod, cls, attr, *_), orig in zip(tracing.TARGETS, originals):
        assert _lookup(mod, cls, attr) is orig, (mod, attr)
