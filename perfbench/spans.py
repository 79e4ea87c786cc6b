"""In-memory spans around calls into shellball's public functions.

A `Tracer` replaces each function named in `TRACED` by a wrapper in every
``shellball`` module namespace that holds it, so calls from other modules
and from inside the defining module are both seen.  It also wraps the
`SimplicialComplex.faces_by_size` method.  Each call becomes one span:
(request, parent span, name, start, end), where the request is the corpus
instance being run.  Work counters are recorded at the same wrappers.
Nothing inside ``src/`` is changed; `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter_ns

# The public functions timed per layer (module of src/shellball).  Leaf
# helpers called once per face or per facet pair (facet_leq, mask_of,
# is_boundary_face, ...) are left out on purpose: a wrapper there would
# cost more than the work it times.  `duality` is not on any workload path.
TRACED = {
    "cli": ("main",),
    "bounds": ("check_conjecture",),
    "paths": ("enumerate_facets", "path_complex", "shelling_order", "random_shelling_orders"),
    "polarization": ("power_ideal_complex",),
    "complexes": (
        "boundary_complex",
        "f_vector",
        "minimal_inside_faces",
        "minimal_nonfaces",
        "multiplicity",
        "smallest_nonface_size",
    ),
    "shelling": ("verify_shelling", "verify_ball"),
    "homology": ("hochster_betti_table",),
    "exactrank": ("rank_int_columns", "rank_gf2_columns"),
}
LAYERS = tuple(TRACED)


def _count_rank(name):
    def count(tracer, args, kwargs, result):
        columns = args[0] if args else kwargs["columns"]
        tracer.add(f"exactrank.{name}.calls", 1)
        tracer.add(f"exactrank.{name}.columns", len(columns))

    return count


def _count_subsets(tracer, args, kwargs, result):
    cx = args[0] if args else kwargs["cx"]
    tracer.add("homology.subsets", 2 ** len(cx.used_vertices) - 1)


def _count_facets(tracer, args, kwargs, result):
    tracer.add("paths.facets", len(result))


def _count_steps(tracer, args, kwargs, result):
    tracer.add("shelling.steps", len(result.steps))
    tracer.add("shelling.glued_ridges", sum(len(step.glued) for step in result.steps))


COUNTERS = {
    "exactrank.rank_int_columns": _count_rank("rank_int_columns"),
    "exactrank.rank_gf2_columns": _count_rank("rank_gf2_columns"),
    "homology.hochster_betti_table": _count_subsets,
    "paths.enumerate_facets": _count_facets,
    "shelling.verify_shelling": _count_steps,
}


class Tracer:
    """Records spans and counters for one traced pass; single-threaded."""

    def __init__(self):
        self.request: str | None = None
        self.spans: list[tuple] = []  # (request, parent index, name, start_ns, end_ns)
        self.counts: Counter = Counter()  # counter name -> value
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def add(self, counter: str, value: int) -> None:
        self.counts[counter] += value

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (self.request, parent, name, start, end)

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def _wrap_faces_by_size(self, fn):
        @functools.wraps(fn)
        def traced(cx):
            fresh = cx._faces is None
            levels = self.call("complexes.faces_by_size", fn, (cx,), {})
            if fresh:
                self.add("complexes.faces_materialised", sum(len(s) for s in levels.values()))
            return levels

        return traced

    def install(self) -> None:
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "shellball" or key.startswith("shellball."))
        ]
        for layer, names in TRACED.items():
            home = sys.modules[f"shellball.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        cls = sys.modules["shellball.complexes"].SimplicialComplex
        original = cls.faces_by_size
        self._patched.append((cls, "faces_by_size", original))
        cls.faces_by_size = self._wrap_faces_by_size(original)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> Counter:
        """Seconds per span name, each span's duration minus its children's."""
        child = [0] * len(self.spans)
        for _req, parent, _name, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (_req, _parent, name, start, end) in enumerate(self.spans):
            out[name] += (end - start - child[i]) / 1e9
        return out

    def layer_self_times(self) -> dict[str, float]:
        per_name = self.self_times()
        return {
            layer: sum(s for name, s in per_name.items() if name.split(".")[0] == layer)
            for layer in LAYERS
        }

    def calls(self, request: str | None = None) -> Counter:
        """Span count per name, for one request or all of them."""
        return Counter(
            span[2] for span in self.spans if request is None or span[0] == request
        )

    def dump(self, path, label: str) -> None:
        """Append the spans as JSON lines: label, request, span, parent, name, start, end (ns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as fh:
            for i, (req, parent, name, start, end) in enumerate(self.spans):
                fh.write(json.dumps([label, req, i, parent, name, start, end]) + "\n")
