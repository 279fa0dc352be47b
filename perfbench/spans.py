"""Outside-in tracing: spans around calls into galmod's public functions.

``Tracer.install`` replaces each traced function at every binding site:
the defining module and every module that imported it by name.  Methods
are replaced on their class.  Each wrapper records a span; a span's self
time is its duration minus the time covered by the spans it encloses, so
the self times of all spans add up to the time spent inside galmod.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

TRACED = {
    "fp_linalg": (
        "rref", "mat_pow", "Echelon.add", "Subspace.contains",
        "Subspace.contains_space", "span", "sub_intersect", "sub_sum",
        "kernel_matrix", "preimage", "solve", "solve_in_space",
    ),
    "gmod": ("make_module", "jordan_type", "fixed_points", "is_invariant", "free_complement"),
    "datum": ("validate", "exceptional_search", "i_via_theorem3"),
    "decompose": ("decompose", "verify", "corollary3_check"),
    "synth": ("synthesize",),
    "local_fields": (
        "_poly_mulmod", "LocalTower.mul", "LocalTower.inv", "LocalTower.galois",
        "LocalTower.norm", "LocalTower.class_of", "make_tower", "build_datum",
    ),
    "invariants": ("submodule_subfield_identity",),
    "sweep": ("run_instance",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
RREF_BUCKETS = ("w_le32", "w33_64", "w_gt64", "p2", "podd")


def _rref_buckets(a, p: int) -> tuple[str, str]:
    cols = a.shape[1]
    width = "w_le32" if cols <= 32 else "w33_64" if cols <= 64 else "w_gt64"
    return width, "p2" if p == 2 else "podd"


class Tracer:
    """Span statistics and counters for one traced process."""

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.rref_calls = dict.fromkeys(RREF_BUCKETS, 0)
        self.rref_self_s = dict.fromkeys(RREF_BUCKETS, 0.0)
        self.rref_cells = 0
        self.matmuls = 0
        self.max_dim = 0
        self.echelon_grew = 0
        self.build_datum_s: dict[tuple, float] = {}
        # time enclosed by child spans, one entry per open span; the
        # bottom entry is a sink for the outermost spans
        self._enclosed = [0.0]

    def install(self):
        """Wrap every traced function wherever it is bound: methods on their
        class, functions in every loaded module that holds them (galmod's
        own modules, the package, and the benchmark's)."""
        wrappers = {}
        for modname, names in TRACED.items():
            module = importlib.import_module(f"galmod.{modname}")
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                wrapper = self._wrap(f"{modname}.{qualname}", getattr(owner, attr))
                if owner_name:
                    setattr(owner, attr, wrapper)
                else:
                    wrappers[id(wrapper.__wrapped__)] = wrapper
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", {})
            for key, value in list(namespace.items()):
                if id(value) in wrappers:
                    namespace[key] = wrappers[id(value)]

    def _wrap(self, name: str, fn):
        observe = {
            "fp_linalg.rref": self._count_rref,
            "fp_linalg.mat_pow": self._count_mat_pow,
            "fp_linalg.Echelon.add": self._count_echelon_add,
            "local_fields.build_datum": self._time_tower,
        }.get(name)
        enclosed = self._enclosed

        def close(t0, args, out):
            duration = perf_counter() - t0
            own = duration - enclosed.pop()
            enclosed[-1] += duration
            self.calls[name] += 1
            self.self_s[name] += own
            if observe is not None:
                observe(args, out, own, duration)

        def wrapper(*args, **kwargs):
            enclosed.append(0.0)
            t0 = perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                close(t0, args, out)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_rref(self, args, out, own, duration):
        a, p = args
        rows, cols = a.shape
        self.rref_cells += rows * cols
        for bucket in _rref_buckets(a, p):
            self.rref_calls[bucket] += 1
            self.rref_self_s[bucket] += own

    def _count_mat_pow(self, args, out, own, duration):
        a, k, _ = args
        self.matmuls += k.bit_length() + bin(k).count("1")
        self.max_dim = max(self.max_dim, a.shape[0])

    def _count_echelon_add(self, args, out, own, duration):
        self.echelon_grew += bool(out)

    def _time_tower(self, args, out, own, duration):
        t = args[0]
        key = (t.p, t.kind, t.n)
        self.build_datum_s[key] = self.build_datum_s.get(key, 0.0) + duration

    def metrics(self) -> dict:
        """Per-layer metrics as name -> (value, unit), all spans included."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for bucket in RREF_BUCKETS:
            out[f"fp_linalg.rref.{bucket}.calls"] = (self.rref_calls[bucket], "count")
            out[f"fp_linalg.rref.{bucket}.self_s"] = (self.rref_self_s[bucket], "s")
        out["fp_linalg.rref.cells"] = (self.rref_cells, "count")
        out["fp_linalg.mat_pow.matmuls"] = (self.matmuls, "count")
        out["fp_linalg.mat_pow.max_dim"] = (self.max_dim, "rows")
        adds = self.calls["fp_linalg.Echelon.add"]
        out["fp_linalg.Echelon.add.grew_ratio"] = (self.echelon_grew / adds if adds else 0.0, "ratio")
        return out
