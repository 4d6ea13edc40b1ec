"""Per-layer spans recorded from outside the program.

`install()` wraps the public functions of each trunco module in place and
returns a Tracer.  Every call into a wrapped function becomes a span: layer,
parent span, start, end.  Spans stay in memory; `summary()` reduces them to
per-layer calls, total time and self time, and `dump()` writes them out.

A layer's total time counts only its outermost spans, so recursion through
the same layer is not counted twice.  Self time is a span's duration minus
the durations of its direct children.
"""

import functools
import json
import sys
import time

# (module, attribute, layer).  Several attributes may feed one layer.
HOOKS = (
    ("engine", "multiplicity", "engine"),
    ("engine", "multiplicity_table", "engine"),
    ("trunc_weights", "find_twisting_word", "trunc_weights.find_twisting_word"),
    ("trunc_weights", "n_dot", "trunc_weights.n_dot"),
    ("kl", "block_descriptor", "kl.block_descriptor"),
    ("kl", "kl_polynomial", "kl.kl_polynomial"),
    ("kl", "base_multiplicity", "kl.base_multiplicity"),
    ("kl", "integral_weyl_group", "kl.integral_weyl_group"),
    ("characters", "PartitionCache.count", "characters.partition_count"),
    ("characters", "verma_character", "characters.verma_character"),
    ("characters", "decompose_in_block", "characters.decompose_in_block"),
    ("root_datum", "RootDatum.root_coords", "root_datum.root_coords"),
    ("root_datum", "ReflectionGroup.elements", "root_datum.elements"),
    ("oracle", "verma_decomposition", "oracle.verma_decomposition"),
    ("oracle", "TruncatedModule.__init__", "oracle.module_build"),
    ("oracle", "simple_character", "oracle.simple_character"),
    ("oracle", "TruncatedModule.generator_matrix", "oracle.generator_matrix"),
    ("linalg", "row_echelon", "linalg.row_echelon"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in HOOKS))

# Layers whose distinct arguments are counted: the key identifies the
# argument up to equality (datum by Cartan matrix, weight by value).
DISTINCT_KEYS = {
    "kl.block_descriptor": lambda datum, lam0: (datum.key, lam0),
    "trunc_weights.find_twisting_word": lambda datum, mu: (datum.key, mu),
}


class Tracer:
    def __init__(self):
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.spans = []              # [layer id, parent index, start, end, outer]
        self.stack = []
        self.active = [0] * len(LAYERS)
        self.distinct = {name: set() for name in DISTINCT_KEYS}
        self.cells = 0               # rows x columns passed to row_echelon
        self.module_dim = 0          # weight-space dimensions built
        self.origin = time.perf_counter()

    def wrap(self, layer, fn):
        layer_id = self.layer_ids[layer]
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter
        note = self._note(layer)
        counts_dim = layer == "oracle.module_build"

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if note is not None:
                note(*args, **kwargs)
            index = len(spans)
            span = [layer_id, stack[-1] if stack else -1, 0.0, 0.0,
                    active[layer_id] == 0]
            spans.append(span)
            stack.append(index)
            active[layer_id] += 1
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                active[layer_id] -= 1
                stack.pop()
            if counts_dim:
                self.module_dim += sum(len(b) for b in args[0].spaces.values())
            return result

        hooked.__wrapped_layer__ = layer
        return hooked

    def _note(self, layer):
        if layer in DISTINCT_KEYS:
            seen, key = self.distinct[layer], DISTINCT_KEYS[layer]
            return lambda *args, **kwargs: seen.add(key(*args, **kwargs))
        if layer == "linalg.row_echelon":
            def count_cells(mat):
                if mat:
                    self.cells += len(mat) * len(mat[0])
            return count_cells
        return None

    def summary(self):
        """Per-layer calls, s, self_s (and extras), plus top-level time."""
        n = len(LAYERS)
        calls, total, self_time = [0] * n, [0.0] * n, [0.0] * n
        child_time = [0.0] * len(self.spans)
        top = 0.0
        # children end before their parents, so one reverse pass suffices
        for index in range(len(self.spans) - 1, -1, -1):
            layer_id, parent, start, end, outer = self.spans[index]
            duration = end - start
            calls[layer_id] += 1
            if outer:
                total[layer_id] += duration
            self_time[layer_id] += duration - child_time[index]
            if parent < 0:
                top += duration
            else:
                child_time[parent] += duration
        out = {}
        for i, name in enumerate(LAYERS):
            out[name + ".calls"] = calls[i]
            out[name + ".s"] = total[i]
            out[name + ".self_s"] = self_time[i]
        for name, seen in self.distinct.items():
            count = out[name + ".calls"]
            out[name + ".distinct_frac"] = len(seen) / count if count else 0.0
        out["linalg.row_echelon.cells"] = self.cells
        out["oracle.module_dim"] = self.module_dim
        return out, top

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"layers": LAYERS,
                       "fields": ["layer", "parent", "start_s", "end_s"],
                       "spans": [[s[0], s[1], round(s[2] - self.origin, 7),
                                  round(s[3] - self.origin, 7)]
                                 for s in self.spans]}, fh)


def _resolve(module, attr):
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    if name not in vars(owner):
        raise AttributeError("hook target %s.%s is missing"
                             % (module.__name__, attr))
    return owner, name, vars(owner)[name]


def install():
    """Wrap every hook target and rebind every trunco namespace that holds
    one by name (engine imports find_twisting_word and n_dot, oracle imports
    verma_character and decompose_in_block, the package re-exports most).
    Raises if a target is missing or an original survives anywhere."""
    import importlib
    import trunco  # noqa: F401  loads every submodule
    tracer = Tracer()
    namespaces = [m for name, m in sys.modules.items()
                  if name == "trunco" or name.startswith("trunco.")]
    originals = {}
    for mod_name, attr, layer in HOOKS:
        module = importlib.import_module("trunco." + mod_name)
        owner, name, original = _resolve(module, attr)
        if hasattr(original, "__wrapped_layer__"):
            raise RuntimeError("hooks installed twice")
        hooked = tracer.wrap(layer, original)
        setattr(owner, name, hooked)
        originals[id(original)] = (mod_name, attr)
        if isinstance(owner, type):
            continue
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, hooked)
    for ns in namespaces:
        for key, value in vars(ns).items():
            if id(value) in originals:
                raise RuntimeError("%s.%s still binds the unhooked %s.%s"
                                   % ((ns.__name__, key) + originals[id(value)]))
    return tracer
