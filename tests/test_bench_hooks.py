"""The benchmark tracer installs and uninstalls on the live package.

``perfbench/tracing.py`` wraps every name in its ``HOOKS`` table when a run
is traced (``perfbench/run.py --trace 1``).  The table is not empty, each
name resolves to a callable, and installing a ``Tracer`` here wraps each of
them, so deleting or renaming a hooked name (for example
``Subgroup.meet``, ``scalars.radical``, ``scalars.split_idempotents`` or
``lie.CosetBasis.coords``) fails this test instead of the traced run.
"""

import importlib
import importlib.util

from conftest import ROOT


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing_install", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(hook):
    owner = importlib.import_module(f"filterlab.{hook.module}")
    if "." in hook.attr:
        cls, meth = hook.attr.split(".")
        return getattr(owner, cls).__dict__[meth]
    return getattr(owner, hook.attr)


def test_tracer_installs_and_uninstalls_every_hook():
    tracing = _tracing()
    assert tracing.HOOKS
    before = [_current(hook) for hook in tracing.HOOKS]
    assert all(callable(fn) for fn in before)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        installed = [_current(hook) for hook in tracing.HOOKS]
    finally:
        tracer.uninstall()
    for hook, orig, wrapped in zip(tracing.HOOKS, before, installed):
        assert wrapped is not orig and wrapped.__wrapped__ is orig, hook.name
    assert [_current(hook) for hook in tracing.HOOKS] == before
