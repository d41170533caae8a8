"""Per-layer spans, recorded by wrapping each layer's public functions at the
sites where ``hypstab`` imports them.  Nothing under ``src/`` is edited.

Spans (layer, start, end, parent, op id) are kept in memory and written out
once at the end.  A layer's self time is the total duration of its spans
minus the part covered by their direct children.  A wrap point that no
longer exists makes its layer ``None`` instead of failing the run.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# (layer, module, attribute): the binding the caller actually looks up.
WRAP_POINTS = (
    ("report", "hypstab.cli", "analyze"),
    ("scan", "hypstab.report", "scan_singular_points"),
    ("local", "hypstab.report", "analyze_point"),
    ("criteria", "hypstab.report", "combined_verdict"),
    ("search", "hypstab.report", "search_destabilization"),
    ("transform", "hypstab.search", "apply_linear_change"),
    ("membership", "hypstab.search", "membership"),
    ("torus", "hypstab.search", "torus_destabilize"),
    ("verify", "hypstab.search", "verify_certificate"),
    ("simplex", "hypstab.torus", "solve_lp"),
    # Crosscheck calls these two through the module, as library functions.
    ("torus", "hypstab.torus", "torus_destabilize"),
    ("oracle", "hypstab.torus", "enumerate_weight_oracle"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count(layer: str, counts: dict, args, kwargs, result) -> None:
    """Work counters taken at the layer boundary."""
    counts["calls"] += 1
    if layer == "scan":
        f, h = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "height_bound")
        counts["points_found"] += len(result.points)
        counts["grid_points"] += (2 * h + 1) ** (f.n + 1)
    elif layer == "search":
        counts["frames"] += result.frames_tried
        counts["certificates"] += (result.strict is not None) + (result.nonstrict is not None)
    elif layer == "transform":
        counts["terms_out"] += len(result.terms)
    elif layer == "torus":
        counts["feasible"] += bool(result.feasible)
        counts["support"] += len(_arg(args, kwargs, 0, "f").terms)
    elif layer == "simplex":
        A = _arg(args, kwargs, 0, "A")
        counts["cells"] += len(A) * (len(A[0]) if len(A) else 0)
    elif layer == "oracle":
        f, bound = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "bound")
        side = 2 * bound + 1
        leading = side if result is None else result.r[0] + bound + 1
        counts["box_points"] += leading * side ** (f.n - 1)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        self.missing: set[str] = set()
        # Gauge readings taken inside the traced pass, kept apart so that a
        # signal handler never writes into ``spans`` (whose slots wrappers
        # reserve before filling them).
        self.readings: list[tuple] = []
        self._stack: list[int] = []
        self._op = None
        self._saved: list[tuple] = []

    def _wrap(self, layer: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts[layer]

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent, self._op)
            _count(layer, counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for layer, module_name, attr in WRAP_POINTS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.add(layer)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(layer, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def reading(self, start: float, end: float) -> None:
        """A gauge reading that interrupted the innermost open span."""
        self.readings.append(("gauge", start, end, self._stack[-1] if self._stack else None, self._op))

    @contextmanager
    def op(self, op_id: int):
        """Root span of one operation; its self time is the CLI and harness
        work outside every wrapped layer."""
        self._op = op_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = ("op", start, end, None, op_id)
            self._op = None

    def self_times(self) -> dict[str, float]:
        spans = self.spans + self.readings
        child = [0.0] * len(spans)
        for layer, start, end, parent, _ in spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (layer, start, end, _, _), covered in zip(spans, child):
            out[layer] += end - start - covered
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for layer, start, end, parent, op in self.spans + self.readings:
                fh.write(json.dumps([layer, start, end, parent, op]) + "\n")

    def layer_metrics(self, traced_wall: float) -> dict[str, float | None]:
        """Every per-layer metric; a layer with a missing wrap point is None."""
        selfs, c = self.self_times(), self.counts

        def ok(*layers):
            return not (set(layers) & self.missing)

        def ratio(num, den):
            return num / den if den else 0.0

        m: dict[str, float | None] = {}

        def put(layers, name, value):
            m[name] = value if ok(*layers) else None

        for layer in ("scan", "local", "criteria", "report", "search", "transform",
                      "membership", "torus", "simplex", "verify", "oracle"):
            put([layer], f"{layer}.self_s", selfs.get(layer, 0.0))
        for layer in ("scan", "local", "criteria", "transform", "membership", "torus",
                      "verify", "oracle"):
            put([layer], f"{layer}.calls", c[layer]["calls"])
        put(["scan"], "scan.points_found", c["scan"]["points_found"])
        put(["scan"], "scan.grid_points", c["scan"]["grid_points"])
        put(["search"], "search.frames", c["search"]["frames"])
        put(["search"], "search.certificates", c["search"]["certificates"])
        put(["search"], "search.useful_ratio",
            ratio(c["search"]["certificates"], c["search"]["frames"]))
        put(["transform"], "transform.terms_out", c["transform"]["terms_out"])
        put(["torus"], "torus.feasible_share", ratio(c["torus"]["feasible"], c["torus"]["calls"]))
        put(["torus"], "torus.support_mean", ratio(c["torus"]["support"], c["torus"]["calls"]))
        put(["simplex"], "simplex.solves", c["simplex"]["calls"])
        put(["simplex", "torus"], "simplex.solves_per_torus_call",
            ratio(c["simplex"]["calls"], c["torus"]["calls"]))
        put(["simplex"], "simplex.cells", c["simplex"]["cells"])
        put(["oracle"], "oracle.box_points", c["oracle"]["box_points"])
        put(["scan"], "scan.share", ratio(selfs.get("scan", 0.0), traced_wall))
        put(["simplex"], "simplex.share", ratio(selfs.get("simplex", 0.0), traced_wall))
        layered = sum(v for k, v in selfs.items() if k not in ("op", "gauge"))
        m["op.self_s"] = selfs.get("op", 0.0)
        m["trace.layer_share"] = ratio(layered, traced_wall)
        m["trace.wall_s"] = traced_wall
        return m
