"""Every function the benchmark's tracer hooks still exists under its name.

The tracer in perfbench/ wraps trunco functions by (module, attribute); a
missing target fails the whole benchmark.  Resolving the targets here,
without installing any hook, makes a rename or deletion fail tier-1 first.
"""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves():
    tracer = _load_tracer()
    assert tracer.HOOKS
    for mod_name, attr, layer in tracer.HOOKS:
        module = importlib.import_module("trunco." + mod_name)
        _, _, target = tracer._resolve(module, attr)
        assert callable(target), (mod_name, attr, layer)
        assert not hasattr(target, "__wrapped_layer__"), (mod_name, attr)
