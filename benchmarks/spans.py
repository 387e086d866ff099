"""Per-layer tracing of homsuper, installed from outside the package.

`Tracer.install` wraps the public functions of the traced modules, plus
the heavy methods listed in METHODS, and rebinds every homsuper module
namespace that holds one of the originals (`isoclinism` and `cli` import
`center` and friends by name, so patching `core` alone would miss their
calls).  Each call made while the tracer is on records a span: function,
parent span, start and end.  Spans stay in memory until `metrics` turns
them into counts and self times; a span's self time is its duration minus
the time its child spans cover.

Only wrapped callables own time.  Field arithmetic and the helpers in
UNTRACED are not wrapped (they run millions of times per second), so
their cost lands in the self time of the wrapped caller.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

MODULES = ("linalg", "core", "factorset", "isoclinism", "fileio", "cli")

#: Methods that do the polynomial work, traced as `<module>.<method>`.
METHODS = {
    "linalg": {
        "Matrix": ("rref", "rank", "nullspace", "solve", "is_invertible",
                   "inverse", "det", "charpoly", "matvec", "__matmul__",
                   "from_rows", "from_columns"),
        "Subspace": ("from_vectors", "intersect", "complement_in",
                     "coordinates_of", "contains_vector"),
    },
    "core": {
        "HomLieSuperalgebra": ("bracket",),
        "GradedSubspace": ("from_vectors", "from_subspace", "intersect",
                           "complement_in", "to_subspace"),
        "EvenLinearMap": ("compose", "inverse"),
    },
}

#: Per-scalar and per-vector helpers, called from the innermost loops.
UNTRACED = {"linalg": ("vec", "zero_vec", "basis_vec", "vec_add", "vec_sub",
                       "vec_scale", "vec_is_zero"),
            "core": ("koszul_sign",)}

#: fileio functions, grouped into the read side and the write side.
FILEIO_GROUPS = {
    "load": ("parse_field", "matrix_from_lists", "algebra_from_dict",
             "load_algebra", "factorset_from_dict", "load_factorset",
             "witness_from_dict", "load_witness"),
    "save": ("matrix_to_lists", "algebra_to_dict", "factorset_to_dict",
             "witness_to_dict", "dumps_canonical", "save_json"),
}

SEARCH = "isoclinism.iso_search"
CANDIDATES = ("linalg.is_invertible", "core.is_isomorphism")

#: Per-function metrics reported by name (calls and self time).
REPORTED = (
    "isoclinism.iso_search", "isoclinism.stem_decompose",
    "isoclinism.fingerprint", "isoclinism.verify_isoclinism",
    "core.center", "core.derived", "core.bracket", "core.check_axioms",
    "core.check_hom_jacobi", "core.is_isomorphism", "linalg.rref",
    "linalg.inverse", "linalg.charpoly", "factorset.factor_set_from_complement",
    "factorset.validate_factor_set", "factorset.extend", "cli.main",
)


class Tracer:
    """Spans of the traced calls, recorded only while `on` is true."""

    def __init__(self):
        self.names = []
        self.fid = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.on = False
        self.search_depth = 0
        self.candidates = 0
        self.hits = 0
        self.bytes_out = 0
        self._restore = []

    # -- installation -----------------------------------------------------

    def install(self):
        mods = {m: sys.modules[f"homsuper.{m}"] for m in MODULES}
        originals = {}
        for short, mod in mods.items():
            skip = UNTRACED.get(short, ())
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and name not in skip):
                    originals[id(obj)] = (obj, self._wrap(f"{short}.{name}", obj))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    label = f"{short}.{meth.strip('_')}"
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self._wrap(label, raw.__func__))
                    else:
                        new = self._wrap(label, raw)
                    self._restore.append((cls, meth, raw))
                    setattr(cls, meth, new)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "homsuper"
                                   or mod_name.startswith("homsuper.")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def uninstall(self):
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()

    def _wrap(self, label: str, fn):
        if label in self.names:
            raise ValueError(f"duplicate traced name {label}")
        fid = len(self.names)
        self.names.append(label)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter
        tracer = self
        search = label == SEARCH
        candidate = label in CANDIDATES
        serializer = label == "fileio.dumps_canonical"

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if candidate and tracer.search_depth:
                tracer.candidates += 1
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            if search:
                tracer.search_depth += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if search:
                    tracer.search_depth -= 1
            if search:
                tracer.hits += result is not None
            elif serializer:
                tracer.bytes_out += len(result.encode("utf-8"))
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- results ----------------------------------------------------------

    def metrics(self, traced_seconds: float) -> dict:
        """Counts and self times of the recorded spans.

        traced_seconds is the summed wall time of the traced requests; the
        `<module>.self_share` metrics are module self time over it.
        """
        n = len(self.fid)
        fid, parent, start, end = self.fid, self.parent, self.start, self.end
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        k = len(self.names)
        calls = [0] * k
        self_s = [0.0] * k
        total = [0.0] * k
        group_of = {}
        for group, fns in FILEIO_GROUPS.items():
            for fn in fns:
                if f"fileio.{fn}" in self.names:
                    group_of[self.names.index(f"fileio.{fn}")] = group
        outer = {g: 0 for g in FILEIO_GROUPS}
        for i in range(n):
            f = fid[i]
            dur = end[i] - start[i]
            calls[f] += 1
            self_s[f] += dur - child[i]
            total[f] += dur
            g = group_of.get(f)
            if g is not None and (parent[i] < 0 or group_of.get(fid[parent[i]]) != g):
                outer[g] += 1
        out = {}
        idx = {name: i for i, name in enumerate(self.names)}
        for name in REPORTED:
            out[f"{name}.calls"] = (calls[idx[name]], "count")
            out[f"{name}.self_s"] = (self_s[idx[name]], "s")
        for module in MODULES:
            s = sum(self_s[i] for i, name in enumerate(self.names)
                    if name.startswith(module + "."))
            out[f"{module}.self_s"] = (s, "s")
            out[f"{module}.self_share"] = (s / traced_seconds if traced_seconds else 0.0, "ratio")
        for group in FILEIO_GROUPS:
            members = [i for i, g in group_of.items() if g == group]
            out[f"fileio.{group}.calls"] = (outer[group], "count")
            out[f"fileio.{group}.self_s"] = (sum(self_s[i] for i in members), "s")
        out["fileio.bytes_out"] = (self.bytes_out, "bytes")
        out[f"{SEARCH}.total_s"] = (total[idx[SEARCH]], "s")
        out[f"{SEARCH}.share"] = (total[idx[SEARCH]] / traced_seconds if traced_seconds else 0.0, "ratio")
        out[f"{SEARCH}.candidates"] = (self.candidates, "count")
        out[f"{SEARCH}.hit_ratio"] = (self.hits / self.candidates if self.candidates else 0.0, "ratio")
        out["trace.spans"] = (n, "count")
        return out
