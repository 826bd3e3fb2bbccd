"""Per-layer spans and counters, recorded from outside the polylat package.

``Tracer.install`` replaces each instrumented function at every module
attribute that binds it (``latticecore`` imports ``det``, ``shell`` imports
``det as _det``, the package re-exports most names), and wraps the rule
engine methods on their classes.  Rule firings are timed from the
timestamps of ``RuleBase.trace_hooks`` calls.  ``uninstall`` puts every
original back.

A span's self time is its duration minus the time of its child spans.  A
call into a span of the same name as the innermost open span (``isomorphic``
calling ``isomorphism``) joins that span instead of opening a new one.
"""

from __future__ import annotations

import math
import os
import sys
from collections import defaultdict
from time import perf_counter

# rule id -> short name in ``rules.<name>.s``; other rules add to rules.other.s
RULE_NAMES = {
    "FACETS, AFFINE_HULL : POINTS": "facets_from_points",
    "VERTICES : POINTS, FACETS, AFFINE_HULL": "vertices_from_points",
    "VERTICES : FACETS, AFFINE_HULL": "vertices_from_facets",
    "VERTICES_IN_FACETS : VERTICES, FACETS": "incidence",
    "HASSE_DIAGRAM : VERTICES_IN_FACETS": "hasse_diagram",
    "F_VECTOR, F2_VECTOR : HASSE_DIAGRAM": "f_vectors",
    "GRAPH, DUAL_GRAPH : HASSE_DIAGRAM, VERTICES_IN_FACETS": "graphs",
    "LATTICE_POINTS : VERTICES, FACETS, AFFINE_HULL, BOUNDED":
        "lattice_points",
    "H_STAR_VECTOR : VERTICES, FACETS, DIM, AMBIENT_DIM": "h_star",
    "HILBERT_BASIS : POINTS": "hilbert_basis",
    "HILBERT_BASIS : VERTICES": "hilbert_basis",
    "SMOOTH : HASSE_DIAGRAM, VERTICES, DIM, AMBIENT_DIM": "smooth",
}


class _Frame:
    __slots__ = ("name", "child", "extra")

    def __init__(self, name):
        self.name = name
        self.child = 0.0
        self.extra = None


# -- counters read from arguments and results --------------------------------

def _dd(tracer, frame, args, result):
    tracer.stats["geomcore.dd.rays_out"] += len(result[0])


def _incidence(tracer, frame, args, result):
    vertices, facets = args[0], args[1]
    tracer.stats["geomcore.incidence.pairs"] += vertices.n_rows * facets.n_rows


def _hasse(tracer, frame, args, result):
    tracer.stats["geomcore.hasse.faces"] += len(result.nodes)
    tracer.stats["geomcore.hasse.covers"] += len(result.edges)


def _box(tracer, frame, args, result):
    vertices = args[0]
    scanned = 1
    for j in range(1, vertices.n_cols):
        vals = [row[j] for row in vertices.rows]
        scanned *= max(0, math.floor(max(vals)) - math.ceil(min(vals)) + 1)
    tracer.stats["latticecore.box.scanned"] += scanned
    tracer.stats["latticecore.box.kept"] += result.n_rows


def _triangulation(tracer, frame, args, result):
    tracer.stats["latticecore.triangulation.simplices"] += len(result)


def _parallelepiped(tracer, frame, args, result):
    tracer.stats["latticecore.parallelepiped.points"] += len(result)
    parent = tracer.stack[-1] if tracer.stack else None
    if parent is not None and parent.name == "latticecore.hilbert":
        if parent.extra is None:
            parent.extra = set()
        parent.extra.update(x for x in result if any(x))


def _hilbert(tracer, frame, args, result):
    from polylat.exactmath import primitive_rational
    gens = {primitive_rational(row) for row in args[0].rows}
    candidates = gens | (frame.extra or set())
    tracer.stats["latticecore.hilbert.candidates"] += len(candidates)
    tracer.stats["latticecore.hilbert.basis"] += result.n_rows


def _plan(tracer, frame, args, result):
    from polylat.ruleengine import RuleSpec
    tracer.stats["ruleengine.plan.rules_scheduled"] += sum(
        isinstance(e, RuleSpec) for e in result.entries)


def _file_bytes(index):
    def count(tracer, frame, args, result):
        tracer.stats["objectfile.bytes"] += os.path.getsize(args[index])
    return count


# (module, attribute, span name, counter)
FUNCTION_SPANS = (
    ("geomcore", "double_description", "geomcore.dd", _dd),
    ("geomcore", "facets_from_points", "geomcore.hull", None),
    ("geomcore", "vertices_from_facets", "geomcore.hull", None),
    ("geomcore", "affine_hull_from_facets", "geomcore.hull", None),
    ("geomcore", "extreme_points_in_input_order", "geomcore.extreme_points",
     None),
    ("geomcore", "incidence", "geomcore.incidence", _incidence),
    ("geomcore", "hasse_diagram", "geomcore.hasse", _hasse),
    ("geomcore", "f_vector", "geomcore.f2", None),
    ("geomcore", "f2_vector", "geomcore.f2", None),
    ("geomcore", "skeleton_graphs", "geomcore.skeleton", None),
    ("latticecore", "lattice_points", "latticecore.box", _box),
    ("latticecore", "ehrhart_counts", "latticecore.ehrhart", None),
    ("latticecore", "h_star", "latticecore.ehrhart", None),
    ("latticecore", "placing_triangulation", "latticecore.triangulation",
     _triangulation),
    ("latticecore", "parallelepiped_points", "latticecore.parallelepiped",
     _parallelepiped),
    ("latticecore", "hilbert_basis", "latticecore.hilbert", _hilbert),
    ("latticecore", "smooth", "latticecore.smooth", None),
    ("latticecore", "caratheodory_witness_scan", "latticecore.witness_scan",
     None),
    ("exactmath", "det", "exactmath.det", None),
    ("exactmath", "lin_solve", "exactmath.lin_solve", None),
    ("exactmath", "rank", "exactmath.rank", None),
    ("exactmath", "hermite_normal_form", "exactmath.hnf", None),
    ("graphiso", "isomorphism", "graphiso.isomorphism", None),
    ("graphiso", "isomorphic", "graphiso.isomorphism", None),
    ("objectfile", "save_object", "objectfile.save", _file_bytes(1)),
    ("objectfile", "load_object", "objectfile.load", _file_bytes(0)),
    ("shell", "parse", "shell.parse", None),
    ("shell", "eval_text", "shell.eval", None),
)


class Tracer:
    """Aggregated spans: ``<span>.calls``, ``<span>.self_s`` and counters."""

    def __init__(self):
        self.stats = defaultdict(float)
        self.stack: list[_Frame] = []
        self.active = False
        self._restore = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, count=None, start=None, error=None):
        tracer = self
        stats = self.stats

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not tracer.active or (stack and stack[-1].name == name):
                return fn(*args, **kwargs)
            frame = _Frame(name)
            stack.append(frame)
            t0 = perf_counter()
            if start is not None:
                start(frame, t0)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if error is not None and isinstance(exc, error[0]):
                    stats[error[1]] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stats[name + ".calls"] += 1
                stats[name + ".self_s"] += dt - frame.child
                if stack:
                    stack[-1].child += dt
            if count is not None:
                count(tracer, frame, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, count):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                count(tracer, args)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, original, wrapper):
        """Point every polylat module attribute bound to ``original`` at
        ``wrapper``; returns how many bindings were replaced."""
        sites = 0
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "polylat" and not mod_name.startswith("polylat."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))
                    sites += 1
        return sites

    def _wrap_method(self, cls, attr, wrapper):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    # -- rule firings --------------------------------------------------------

    @staticmethod
    def _apply_start(frame, t0):
        frame.extra = [t0, 0.0]  # last rule end, child time at that moment

    def _on_rule(self, rule, obj):
        if not self.active or not self.stack:
            return
        frame = self.stack[-1]
        if frame.name != "ruleengine.apply":
            return
        now = perf_counter()
        last, child_mark = frame.extra
        interval = now - last
        own = interval - (frame.child - child_mark)
        self.stats["rules.fired"] += 1
        self.stats["rules.self_s"] += own
        self.stats["rules." + RULE_NAMES.get(rule.id, "other") + ".s"] += interval
        frame.child += own  # the rule body is not the engine's own time
        frame.extra = [now, frame.child]

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        import polylat
        from polylat import errors
        from polylat.geomcore import _int_rank
        from polylat.ruleengine import ComputationObject, Schedule

        for mod_name, attr, span, count in FUNCTION_SPANS:
            original = getattr(sys.modules["polylat." + mod_name], attr)
            if not self._rebind(original, self._span(span, original, count)):
                raise RuntimeError(f"no binding of {mod_name}.{attr} found")

        def rank_test(tracer, args):
            if tracer.stack and tracer.stack[-1].name == "geomcore.dd":
                tracer.stats["geomcore.dd.rank_tests"] += 1

        self._rebind(_int_rank, self._counter(_int_rank, rank_test))

        def cache_hit(tracer, args):
            obj, key = args[0], args[1]
            if key in obj:
                tracer.stats["ruleengine.cache_hits"] += 1

        def cast(tracer, args):
            tracer.stats["ruleengine.cast.calls"] += 1

        self._wrap_method(ComputationObject, "request", self._counter(
            ComputationObject.request, cache_hit))
        self._wrap_method(ComputationObject, "_perform_cast", self._counter(
            ComputationObject._perform_cast, cast))
        self._wrap_method(ComputationObject, "get_schedule", self._span(
            "ruleengine.plan", ComputationObject.get_schedule, _plan))
        self._wrap_method(Schedule, "apply", self._span(
            "ruleengine.apply", Schedule.apply, start=self._apply_start,
            error=(errors.RuleBodyError, "rules.failed")))
        hooks = polylat.DEFAULT_RULEBASE.trace_hooks
        hooks.append(self._on_rule)
        self._restore.append((hooks, None, self._on_rule))

    def uninstall(self):
        while self._restore:
            target, attr, original = self._restore.pop()
            if attr is None:
                target.remove(original)
            else:
                setattr(target, attr, original)
