"""Exact rational polytope workbench.

Rule-driven properties over exact-rational polytope objects: convex hull
conversion by double description, face lattices, lattice point counts,
h*-vectors, reflexivity/smoothness tests, Hilbert bases of pointed cones,
graph isomorphism utilities, and a small interactive shell.
"""

from .errors import PolylatError
from .exactmath import (
    All,
    Matrix,
    Vector,
    all_subsets_of_k,
    det,
    hermite_normal_form,
    lin_solve,
    minor,
    primitive,
    rank,
)
from .geomcore import (
    HasseDiagram,
    IncidenceMatrix,
    cross,
    cube,
    from_points,
)
from .graphiso import Graph, isomorphic, isomorphism
from .latticecore import caratheodory_witness_scan, hilbert_basis
from .objectfile import load_object, save_object
from .ruleengine import ComputationObject, RuleBase, RuleSpec, Schedule
from .rules import DEFAULT_RULEBASE, fresh_rulebase
from .shell import eval_text, repl, run_script

__version__ = "0.1.0"

__all__ = [
    "All",
    "ComputationObject",
    "DEFAULT_RULEBASE",
    "Graph",
    "HasseDiagram",
    "IncidenceMatrix",
    "Matrix",
    "PolylatError",
    "RuleBase",
    "RuleSpec",
    "Schedule",
    "Vector",
    "all_subsets_of_k",
    "caratheodory_witness_scan",
    "cross",
    "cube",
    "det",
    "eval_text",
    "fresh_rulebase",
    "from_points",
    "hermite_normal_form",
    "hilbert_basis",
    "isomorphic",
    "isomorphism",
    "lin_solve",
    "load_object",
    "minor",
    "primitive",
    "rank",
    "repl",
    "run_script",
    "save_object",
]
