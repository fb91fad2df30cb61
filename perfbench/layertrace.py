"""Layer-by-layer tracing of varchenko from outside the package.

Tracer.install() replaces every public function of the eight layer modules
with a wrapper that records a span (layer, function, parent span, start,
end, note).  Modules import names directly (``from .geometry import
enumerate_chambers`` in cli and harness, ``feasible_strict`` in geometry,
``factored_eval`` in harness), and modules call their own functions through
their globals, so each wrapper is bound under every name, in every loaded
varchenko module, that referred to the original.  uninstall() restores them.

Spans are kept in memory, one list per traced pass, and written out at the
end of the run.  A span's layer self time is its duration minus the time
covered by descendant spans of other layers.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = ("feasibility", "geometry", "matrix", "exactalg", "families",
          "closedform", "harness", "cli")


def _note_feasible(args, kwargs, result):
    system = args[0] if args else kwargs["system"]
    return (len(system), result is None)


def _note_det(args, kwargs, result):
    return len(args[0] if args else kwargs["entries"])


def _note_len(args, kwargs, result):
    return len(result)


# What a span records beyond its times, per (layer, function).
_NOTES = {
    ("feasibility", "feasible_strict"): _note_feasible,
    ("matrix", "det_mod"): _note_det,
    ("geometry", "relevant_edges"): _note_len,
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or not callable(obj) or isinstance(obj, type):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self.passes: list[list[list]] = []
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, fn, layer: str, fname: str):
        stack = self._stack
        clock = time.perf_counter_ns
        note = _NOTES.get((layer, fname))
        tracer = self

        def wrapper(*args, **kwargs):
            spans = tracer._spans
            rec = [layer, fname, stack[-1] if stack else -1, clock(), 0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                stack.pop()
                rec[4] = clock()
            if note is not None:
                rec[5] = note(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"varchenko.{layer}"]
            for fname, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(fn, layer, fname))
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "varchenko" or n.startswith("varchenko.")]
        for module in loaded:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in self._patches:
            setattr(module, attr, original)
        self._patches.clear()

    def begin_pass(self) -> None:
        self._spans = []
        self.passes.append(self._spans)

    def dump(self) -> dict:
        """All spans, times in ns from the start of their pass."""
        out = []
        for spans in self.passes:
            base = spans[0][3] if spans else 0
            out.append([[s[0], s[1], s[2], s[3] - base, s[4] - base, s[5]] for s in spans])
        return {"fields": ["layer", "function", "parent", "start_ns", "end_ns", "note"],
                "passes": out}


def pass_metrics(spans: list[list]) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced pass, and any span whose children
    add up to more than the span itself."""
    n = len(spans)
    dur = [s[4] - s[3] for s in spans]
    foreign = [0] * n
    children = [0] * n
    fm_children = [0] * n
    for i in range(n - 1, -1, -1):
        layer, _, parent = spans[i][0], spans[i][1], spans[i][2]
        if parent < 0:
            continue
        children[parent] += dur[i]
        if spans[parent][0] == layer:
            foreign[parent] += foreign[i]
        else:
            foreign[parent] += dur[i]
        if layer == "feasibility":
            fm_children[parent] += 1
    bad = [f"{spans[i][0]}.{spans[i][1]} span {i}: children {children[i]} ns > {dur[i]} ns"
           for i in range(n) if children[i] > dur[i]]

    calls = defaultdict(int)
    layer_s = defaultdict(int)
    layer_self = defaultdict(int)
    fn_calls = defaultdict(int)
    fn_s = defaultdict(int)
    fn_self = defaultdict(int)
    for i, (layer, fname, parent, _, _, _) in enumerate(spans):
        key = (layer, fname)
        calls[layer] += 1
        fn_calls[key] += 1
        if parent < 0 or spans[parent][0] != layer:
            layer_s[layer] += dur[i]
            layer_self[layer] += dur[i] - foreign[i]
        if parent < 0 or (spans[parent][0], spans[parent][1]) != key:
            fn_s[key] += dur[i]
            fn_self[key] += dur[i] - foreign[i]

    def idx(layer, fname):
        return [i for i, s in enumerate(spans) if s[0] == layer and s[1] == fname]

    ns = 1e-9
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.s"] = layer_s[layer] * ns
        m[f"{layer}.self_s"] = layer_self[layer] * ns

    fm = [s[5] for s in spans if s[0] == "feasibility" and isinstance(s[5], tuple)]
    m["feasibility.infeasible_frac"] = _ratio(sum(1 for _, none in fm if none), len(fm))
    m["feasibility.rows_mean"] = _ratio(sum(rows for rows, _ in fm), len(fm))

    enum = idx("geometry", "enumerate_chambers")
    m["geometry.enumerate_chambers.s"] = fn_s["geometry", "enumerate_chambers"] * ns
    m["geometry.enumerate_chambers.fm_calls"] = sum(fm_children[i] for i in enum)

    faces = idx("geometry", "face_of")
    m["geometry.face_of.calls"] = len(faces)
    m["geometry.face_scan.s"] = fn_s["geometry", "face_of"] * ns
    m["geometry.face_scan.fm_per_face"] = _ratio(sum(fm_children[i] for i in faces), len(faces))
    m["geometry.face_scan.facet_fastpath_frac"] = _ratio(
        sum(1 for i in faces if fm_children[i] == 1), len(faces))
    m["geometry.face_scan.empty_frac"] = _ratio(
        sum(1 for i in faces if spans[i][5] == "EmptyFaceError"), len(faces))
    m["geometry.face_of.self_s"] = fn_self["geometry", "face_of"] * ns
    m["geometry.canonical_edge.calls"] = fn_calls["geometry", "canonical_edge"]
    m["geometry.canonical_edge.s"] = fn_s["geometry", "canonical_edge"] * ns
    m["geometry.multiplicity.s"] = fn_s["geometry", "multiplicity"] * ns
    m["geometry.relevant_edges.count"] = sum(
        spans[i][5] for i in idx("geometry", "relevant_edges") if isinstance(spans[i][5], int))

    dets = [spans[i][5] for i in idx("matrix", "det_mod") if isinstance(spans[i][5], int)]
    m["matrix.varchenko_matrix_eval.s"] = fn_s["matrix", "varchenko_matrix_eval"] * ns
    m["matrix.det_mod.s"] = fn_s["matrix", "det_mod"] * ns
    m["matrix.det_mod.calls"] = fn_calls["matrix", "det_mod"]
    m["matrix.det_mod.n_max"] = max(dets, default=0)
    m["matrix.det_mod.n3_sum"] = sum(k ** 3 for k in dets)
    m["matrix.det_mod.small_frac"] = _ratio(sum(1 for k in dets if k < 48), len(dets))

    m["harness.verify_identity.self_s"] = fn_self["harness", "verify_identity"] * ns
    m["harness.parse_arrangement_file.s"] = fn_s["harness", "parse_arrangement_file"] * ns
    m["exactalg.factored_eval.s"] = fn_s["exactalg", "factored_eval"] * ns
    m["closedform.formula.s"] = sum(
        v for (layer, fname), v in fn_s.items()
        if layer == "closedform" and fname.startswith("formula_")) * ns
    m["families.build_family.s"] = fn_s["families", "build_family"] * ns
    m["cli.main.self_s"] = fn_self["cli", "main"] * ns
    m["trace.spans"] = n
    return m, bad


def _ratio(num, den) -> float:
    return num / den if den else 0.0
