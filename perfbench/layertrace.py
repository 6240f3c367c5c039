"""Per-layer tracing of arquiver, applied from outside the package.

`Tracer.install()` wraps the public functions of each layer module and
rebinds every name in every `arquiver` module that refers to the original
function, so calls through `from .repmod import decompose` are seen too.
Each wrapped call records a span (name, start, end, parent span) in flat
in-memory arrays; aggregation and the span dump happen after the timed work.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = {
    "exactlin": ("rref", "solve", "kernel_basis", "inverse", "multiply"),
    "quivalg": ("build_algebra", "opposite", "t2_of"),
    "repmod": ("hom_basis", "decompose", "isomorphism", "projective_cover", "kernel", "cokernel"),
    "homalg": ("syzygy", "cosyzygy", "transpose", "ar_translate", "stable_hom_proj", "ext"),
    "morphcat": ("to_t2_module", "from_t2_module", "is_gp_in_h", "mimo"),
    "arsubcat": (
        "gorenstein_profile",
        "indec_pool",
        "verify_ar_duality",
        "classify_gp_census",
        "check_tau_is_syzygy",
    ),
    "cli": ("load_manifest", "cmd_verify"),
}

# Every row reduction of the GF(p) kernel, bucketed by the cell count of the
# matrix it reduces.
CELL_BUCKETS = (
    (64, "exactlin.cells_le64"),
    (4096, "exactlin.cells_65_4096"),
    (float("inf"), "exactlin.cells_gt4096"),
)

# How `decompose` certified each summand, keyed by a phrase of its evidence.
ROUTES = (
    ("dimension 1", "end_dim_1"),
    ("exhaustive", "exhaustive"),
    ("randomized", "randomized"),
)

COUNTED = ("exactlin.Matrix.calls", "quivalg.reduce_path.calls")


def span_names():
    names = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
    return names + [name for _, name in CELL_BUCKETS]


def _rebind(orig, wrapper):
    for name, mod in list(sys.modules.items()):
        if name == "arquiver" or name.startswith("arquiver."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)


class Tracer:
    def __init__(self):
        self.names = span_names()
        self._id = {name: i for i, name in enumerate(self.names)}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = Counter()
        self._decompose_inputs = set()

    def _wrap(self, fn, name_of, observe=None):
        kind, parent, start, end, stack = self.kind, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(kind)
            kind.append(name_of(args))
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _count(self, owner, attr, key):
        orig = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)

        setattr(owner, attr, counted)

    def _observe_decompose(self, args, cert):
        m = args[0]
        self._decompose_inputs.add(
            (m.algebra, m.dims, tuple((k, v.a.tobytes()) for k, v in sorted(m.arrow_maps.items())))
        )
        for evidence in cert.indecomposability_evidence:
            for phrase, route in ROUTES:
                if phrase in evidence:
                    self.counts[f"repmod.decompose.route.{route}"] += 1

    def _observe_isomorphism(self, args, iso):
        if iso is None:
            self.counts["repmod.isomorphism.negative"] += 1

    def install(self):
        import importlib

        import arquiver.cli  # noqa: F401 - loads every layer before rebinding
        from arquiver import _gfkernel
        from arquiver.exactlin import Matrix
        from arquiver.quivalg import BoundQuiverAlgebra

        observers = {
            "repmod.decompose": self._observe_decompose,
            "repmod.isomorphism": self._observe_isomorphism,
        }
        for layer, fns in LAYERS.items():
            mod = importlib.import_module(f"arquiver.{layer}")
            for fn in fns:
                name = f"{layer}.{fn}"
                nid = self._id[name]
                orig = getattr(mod, fn)
                _rebind(orig, self._wrap(orig, lambda args, nid=nid: nid, observers.get(name)))

        bucket_ids = [(limit, self._id[name]) for limit, name in CELL_BUCKETS]

        def bucket(args):
            cells = args[0].shape[0] * args[0].shape[1]
            for limit, nid in bucket_ids:
                if cells <= limit:
                    return nid

        _rebind(_gfkernel.rref, self._wrap(_gfkernel.rref, bucket))
        self._count(Matrix, "__init__", "exactlin.Matrix.calls")
        self._count(BoundQuiverAlgebra, "reduce_path", "quivalg.reduce_path.calls")

    def summary(self):
        """Raw per-process aggregates: {span name: [calls, inclusive s]},
        {layer: self s} and the counters, all summable across processes."""
        kind = np.frombuffer(self.kind, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        n = len(self.names)
        calls = np.bincount(kind, minlength=n)
        incl = np.bincount(kind, weights=dur, minlength=n)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = np.bincount(kind, weights=dur - child, minlength=n)
        spans = {name: [int(calls[i]), float(incl[i])] for i, name in enumerate(self.names)}
        self_s = Counter()
        for i, name in enumerate(self.names):
            self_s[name.split(".")[0]] += float(own[i])
        counts = dict(self.counts)
        counts["repmod.decompose.distinct"] = len(self._decompose_inputs)
        return {"spans": spans, "self_s": dict(self_s), "counts": counts}

    def dump(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            kind=np.frombuffer(self.kind, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def layer_metrics(summaries):
    """Merge per-process summaries into the per-layer metrics, by name."""
    spans, self_s, counts = Counter(), Counter(), Counter()
    calls = Counter()
    for s in summaries:
        for name, (c, t) in s["spans"].items():
            calls[name] += c
            spans[name] += t
        self_s.update(s["self_s"])
        counts.update(s["counts"])
    out = {}
    for name in span_names():
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.s"] = (spans[name], "s")
    for key in COUNTED:
        out[key] = (counts[key], "count")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    dec = calls["repmod.decompose"]
    iso = calls["repmod.isomorphism"]
    out["repmod.decompose.distinct_share"] = (
        counts["repmod.decompose.distinct"] / dec if dec else 0.0,
        "share",
    )
    out["repmod.isomorphism.negative_share"] = (
        counts["repmod.isomorphism.negative"] / iso if iso else 0.0,
        "share",
    )
    for _, route in ROUTES:
        key = f"repmod.decompose.route.{route}"
        out[key] = (counts[key], "count")
    layers = list(LAYERS)
    return dict(sorted(out.items(), key=lambda item: layers.index(item[0].split(".")[0])))
