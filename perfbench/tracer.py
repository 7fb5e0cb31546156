"""Outside-in layer trace for the benchmark.

Spans are recorded by wrappers that replace module attributes of the
package for the duration of a traced phase.  The package's own code looks
those attributes up at call time (`complexgen.build_filtration(...)`, or a
module-global name such as `min_enclosing_ball` inside complexgen), so every
call through one of the sites below opens a span; nothing under src/ is
edited.  Sites are named `<layer>.<function>`, and geometry sites carry the
calling module after an `@`, so the same kernel can be split by caller.

Spans are kept in memory as [name, start, end, parent, op] and written out
once, at the end of the run.
"""

from __future__ import annotations

import importlib
import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

# Counter hooks map (args, kwargs, result) to counter increments.
def _simplices(args, kwargs, fc):
    return {"complexgen.simplices": len(fc)}


def _columns(args, kwargs, lows):
    return {"homology.columns": len(lows)}


def _pairs(args, kwargs, pd):
    return {"homology.pairs": len(pd.pairs)}


def _face_accepts(args, kwargs, accepted):
    return {"oracle.face_accepts": int(bool(accepted))}


def _claims(args, kwargs, claims):
    return {"verify.claims": len(claims),
            "verify.claims_failed": sum(1 for c in claims if c.status == "FAIL")}


# (module, attribute, span name, counter hook).  Geometry is wrapped where
# its callers import it, never inside geometry itself, so its internal calls
# stay in its own self time.
SITES = [
    ("construct", "build_validated", "construct.build_validated", None),
    ("verify", "build_validated", "construct.build_validated", None),
    ("complexgen", "enumerate_mosaic", "complexgen.enumerate", None),
    ("complexgen", "build_filtration", "complexgen.build_filtration", _simplices),
    ("complexgen", "radius_value", "complexgen.radius_value", None),
    ("complexgen", "criticality_check", "complexgen.criticality_check", None),
    ("complexgen", "pick_thresholds", "complexgen.pick_thresholds", None),
    ("complexgen", "min_enclosing_ball", "geometry.min_enclosing_ball@complexgen", None),
    ("complexgen", "circumsphere", "geometry.circumsphere@complexgen", None),
    ("complexgen", "barycentric_interior", "geometry.barycentric_interior@complexgen", None),
    ("complexgen", "is_empty_sphere", "geometry.is_empty_sphere@complexgen", None),
    ("oracle", "min_enclosing_ball", "geometry.min_enclosing_ball@oracle", None),
    ("verify", "circumsphere", "geometry.circumsphere@verify", None),
    ("verify", "affine_distance", "geometry.affine_distance@verify", None),
    ("homology", "reduce", "homology.reduce", _pairs),
    ("homology", "reduce_columns", "homology.reduce_columns", _columns),
    ("homology", "betti_profile", "homology.betti_profile", None),
    ("homology", "betti_at", "homology.betti_at", None),
    ("homology", "betti_of_subcomplex", "homology.betti_of_subcomplex", None),
    ("homology", "save_diagram", "homology.save_diagram", None),
    ("oracle", "cech", "oracle.cech", None),
    ("oracle", "cech_betti", "oracle.cech_betti", None),
    ("oracle", "cech_equals_alpha_betti", "oracle.cech_equals_alpha_betti", None),
    ("oracle", "enumeration_matches_oracle", "oracle.enumeration_matches_oracle", None),
    ("oracle", "delaunay_face_test", "oracle.delaunay_face_test", _face_accepts),
    ("oracle", "solve_lp_max", "lp.solve_lp_max", None),
    ("verify", "verify_betti_3d", "verify.verify_betti_3d", _claims),
    ("verify", "verify_betti_even", "verify.verify_betti_even", _claims),
    ("verify", "verify_betti_odd", "verify.verify_betti_odd", _claims),
    ("verify", "verify_suspension", "verify.verify_suspension", _claims),
    ("verify", "verify_radius_formulas", "verify.verify_radius_formulas", _claims),
    ("verify", "verify_hypotheses", "verify.verify_hypotheses", _claims),
]

LAYERS = ("cli", "construct", "complexgen", "geometry", "homology", "oracle", "lp",
          "verify", "bench")
GEOMETRY_SITES = sorted({name.split(".", 1)[1] for _, _, name, _ in SITES
                         if name.startswith("geometry.")})
GEOMETRY_FUNCS = sorted({site.split("@")[0] for site in GEOMETRY_SITES})
ROOT_SPAN = "bench.op"


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span and counter store for one process.

    `install()` swaps the wrappers in and returns a callable that restores
    the original attributes; `op(i)` opens the root span of operation i.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters = defaultdict(lambda: defaultdict(int))
        self.stack = [-1]
        self.current_op = -1

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        watch_rss = name == "homology.reduce"

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1], self.current_op]
            stack.append(len(spans))
            spans.append(span)
            rss0 = _maxrss_mb() if watch_rss else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            counts = self.counters[self.current_op]
            if watch_rss:
                counts["homology.rss_growth_mb"] = max(counts["homology.rss_growth_mb"],
                                                       _maxrss_mb() - rss0)
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    counts[key] += value
            return result

        return wrapper

    def install(self):
        saved = []
        for mod_name, attr, name, hook in SITES:
            mod = importlib.import_module(f"extremal_cech.{mod_name}")
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original, hook))

        def restore():
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

        return restore

    def open_span(self, name, parent=None):
        """Open a span by hand (for work the benchmark itself drives)."""
        span = [name, time.perf_counter(), 0.0,
                self.stack[-1] if parent is None else parent, self.current_op]
        self.spans.append(span)
        return len(self.spans) - 1

    def close_span(self, sid):
        self.spans[sid][2] = time.perf_counter()

    @contextmanager
    def op(self, index):
        """Root span of operation `index`; spans opened inside carry its id."""
        self.current_op = index
        sid = self.open_span(ROOT_SPAN, parent=-1)
        self.stack.append(sid)
        try:
            yield
        finally:
            self.stack.pop()
            self.close_span(sid)
            self.current_op = -1

    def merge(self, spans, counters, parent):
        """Adopt spans recorded by a child process under span `parent` of the
        current op.  Both processes read the same monotonic clock."""
        base = len(self.spans)
        for name, start, end, par, _ in spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par,
                               self.current_op])
        counts = self.counters[self.current_op]
        for key, value in counters.items():
            if key == "homology.rss_growth_mb":
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value

    def dump(self):
        return {"spans": self.spans,
                "counters": {str(op): dict(c) for op, c in self.counters.items()}}


# ---------------------------------------------------------------------------
# derived tables


def self_times(spans):
    """Self time per span: its duration minus the time its children cover.
    Children never overlap, since one client runs one call at a time."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def per_op(spans):
    """Per op id: {span name: [calls, self seconds, inclusive seconds]} plus
    the root span's wall time."""
    selfs = self_times(spans)
    tables: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    walls: dict[int, float] = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        if op < 0:
            continue
        row = tables[op][name]
        row[0] += 1
        row[1] += selfs[i]
        row[2] += end - start
        if name == ROOT_SPAN:
            walls[op] = end - start
    return tables, walls


def layer_of(name):
    return "bench" if name == ROOT_SPAN else name.split(".", 1)[0]


def self_table(tables, walls):
    """Median per-op self time by span name, and its share of the op."""
    rows = {}
    names = sorted({n for t in tables.values() for n in t})
    for name in names:
        selfs = [tables[op][name][1] if name in tables[op] else 0.0 for op in walls]
        calls = [tables[op][name][0] if name in tables[op] else 0 for op in walls]
        rows[name] = {"layer": layer_of(name), "calls": statistics.median(calls),
                      "self_s": statistics.median(selfs)}
    wall = statistics.median(walls.values())
    for row in rows.values():
        row["self_frac"] = row["self_s"] / wall if wall else 0.0
    return rows
