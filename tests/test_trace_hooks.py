"""The benchmark tracer's hook table names live filterlab functions: a hooked
function that is deleted or renamed would crash ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util

from conftest import ROOT


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.HOOKS


def test_every_hook_resolves():
    hooks = _hooks()
    assert hooks
    for hook in hooks:
        target = importlib.import_module(f"filterlab.{hook.module}")
        for part in hook.attr.split("."):
            assert hasattr(target, part), f"{hook.name}: filterlab.{hook.module}.{hook.attr}"
            target = getattr(target, part)
        assert callable(target), hook.name
