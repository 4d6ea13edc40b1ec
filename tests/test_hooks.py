"""Every function the benchmark's tracer hooks still exists under its name,
and still takes the arguments the tracer reads.

The tracer in perfbench/ wraps trunco functions by (module, attribute); a
missing target fails the whole benchmark, and so does a target whose
arguments no longer fit the tracer's readers (the distinct-argument keys
and the cell count).  Resolving the targets here, without installing any
hook, makes a rename, a deletion or a signature change fail tier-1 first.
"""

import importlib
import importlib.util
import inspect
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


def test_hooked_arguments_fit_the_tracer_readers():
    tracer = _load_tracer()
    readers = dict(tracer.DISTINCT_KEYS)
    readers["linalg.row_echelon"] = tracer.Tracer()._note("linalg.row_echelon")
    checked = set()
    for mod_name, attr, layer in tracer.HOOKS:
        if layer not in readers:
            continue
        module = importlib.import_module("trunco." + mod_name)
        _, _, target = tracer._resolve(module, attr)
        read = list(inspect.signature(readers[layer]).parameters)
        taken = list(inspect.signature(target).parameters)
        # the target accepts what the reader reads, and the reader every
        # argument a caller may pass the target
        inspect.signature(target).bind(*read)
        inspect.signature(readers[layer]).bind(*taken)
        checked.add(layer)
    assert checked == set(readers)
