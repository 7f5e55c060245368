"""Layer spans recorded from outside the library.

``Tracer.install`` wraps the public functions of each ``dualsvd`` module
and patches the wrapper into every ``dualsvd`` module namespace that bound
the original (``sym_eig``, for example, is bound in both ``realspec`` and
``spectral``).  Nothing under ``src/`` changes.

Each call opens a span whose parent is the innermost open span.  Spans are
folded into per-name totals as they close: call count, self time (duration
minus the time covered by child spans) and, per parent name, the number of
calls made from that parent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# Public functions of each layer, by module of definition.
TARGETS = {
    "linalg": ("gram_schmidt", "extend_orthonormal", "form", "t_form",
               "star_form", "structure_residual"),
    "realspec": ("sym_eig", "skew_block_diag"),
    "spectral": ("t_spectral", "star_spectral"),
    "svd": ("split_subspaces", "svd_invertible", "svd", "t_polar", "pinv_t"),
    "laguerre": ("classify_transform",),
    "fileformat": ("dumps", "loads", "parse_matrix", "matrix_to_obj",
                   "obj_to_matrix"),
    "cli": ("build_result", "cmd_decompose", "cmd_check", "main"),
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.from_parent = defaultdict(int)  # "parent>child" -> calls
        self._stack: list = []  # open spans: [name, seconds covered by children]
        self._patches: list = []  # (namespace, attribute, original, wrapper)

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        frame = [name, 0.0]
        stack = self._stack
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            parent = stack[-1] if stack else None
            self.calls[name] += 1
            self.self_s[name] += dur - frame[1]
            if parent is not None:
                parent[1] += dur
                self.from_parent[parent[0] + ">" + name] += 1

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self):
        if not self._patches:
            self._patches = list(self._find_patches())
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)

    def _find_patches(self):
        mods = {m: importlib.import_module("dualsvd." + m) for m in TARGETS}
        namespaces = [
            mod for name, mod in sys.modules.items()
            if name == "dualsvd" or name.startswith("dualsvd.")
        ]
        for modname, names in TARGETS.items():
            for fname in names:
                original = getattr(mods[modname], fname)
                wrapper = self._wrap(modname + "." + fname, original)
                for ns in namespaces:
                    for attr, val in vars(ns).items():
                        if val is original:
                            yield ns, attr, original, wrapper

    def dump(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "from_parent": dict(self.from_parent),
        }

    def merge(self, doc: dict):
        for k, v in doc["calls"].items():
            self.calls[k] += v
        for k, v in doc["self_s"].items():
            self.self_s[k] += v
        for k, v in doc["from_parent"].items():
            self.from_parent[k] += v
