"""Plain-text object files: save/load a property store bit-exactly.

Format: sections separated by blank lines.  A section is a line naming a
property key followed by its value lines.  The first section must be
CLASS.  '#' starts a comment; comment-only lines are skipped.  Booleans
are 1/0, rationals p/q, vectors one space-separated line, matrices one row
per line (a zero-row matrix is the single line ``empty <cols>``).
Incidence sections start with the vertex count, Hasse sections with node
and edge counts.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ObjectFileError, PolylatError
from .exactmath import Matrix, Vector
from .geomcore import HasseDiagram, IncidenceMatrix
from .graphiso import Graph
from .ruleengine import ComputationObject, Kind, RuleBase


def _fmt_rows(m: Matrix) -> list[str]:
    if m.n_rows == 0:
        return [f"empty {m.n_cols}"]
    return [" ".join(str(x) for x in row) for row in m.rows]


def _fmt_set(s) -> str:
    return "{" + " ".join(str(v) for v in sorted(s)) + "}"


def serialize_value(kind: Kind, value) -> list[str]:
    if kind is Kind.BOOL:
        return ["1" if value else "0"]
    if kind is Kind.INT:
        return [str(value)]
    if kind is Kind.VECTOR:
        return [" ".join(str(x) for x in value.entries)]
    if kind is Kind.MATRIX:
        return _fmt_rows(value)
    if kind is Kind.INCIDENCE:
        return [str(value.n_vertices)] + [_fmt_set(r) for r in value.rows]
    if kind is Kind.GRAPH:
        return [_fmt_set(nbrs) for nbrs in value.adjacency()] or ["empty"]
    if kind is Kind.HASSE:
        lines = [f"{len(value.nodes)} {len(value.edges)} {value.n_vertices}"]
        for verts, dim in value.nodes:
            lines.append(f"{dim}: " + " ".join(str(v) for v in sorted(verts)))
        for a, b in sorted(value.edges):
            lines.append(f"{a} {b}")
        return lines
    raise ObjectFileError("?", f"cannot serialize kind {kind}")


def _parse_set(text: str, section: str) -> frozenset[int]:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ObjectFileError(section, f"expected {{...}} row, got {text!r}")
    inner = text[1:-1].split()
    return frozenset(int(v) for v in inner)


def parse_value(kind: Kind, lines: list[str], section: str):
    try:
        if kind is Kind.BOOL:
            (line,) = lines
            if line not in ("0", "1"):
                raise ValueError(f"boolean must be 0 or 1, got {line!r}")
            return line == "1"
        if kind is Kind.INT:
            (line,) = lines
            return int(line)
        if kind is Kind.VECTOR:
            (line,) = lines
            return Vector(Fraction(t) for t in line.split())
        if kind is Kind.MATRIX:
            if len(lines) == 1 and lines[0].startswith("empty"):
                return Matrix([], n_cols=int(lines[0].split()[1]))
            return Matrix([[Fraction(t) for t in line.split()]
                           for line in lines])
        if kind is Kind.INCIDENCE:
            n = int(lines[0])
            rows = tuple(_parse_set(line, section) for line in lines[1:])
            return IncidenceMatrix(rows, n)
        if kind is Kind.GRAPH:
            if lines == ["empty"]:
                return Graph(0)
            return Graph.from_adjacency(
                [sorted(_parse_set(line, section)) for line in lines])
        if kind is Kind.HASSE:
            n_nodes, n_edges, n_vertices = map(int, lines[0].split())
            nodes = []
            for line in lines[1:1 + n_nodes]:
                dim_part, _, verts_part = line.partition(":")
                nodes.append((frozenset(int(v) for v in verts_part.split()),
                              int(dim_part)))
            edges = [tuple(map(int, line.split()))
                     for line in lines[1 + n_nodes:1 + n_nodes + n_edges]]
            return HasseDiagram(nodes, edges, n_vertices)
    except ObjectFileError:
        raise
    except Exception as exc:
        raise ObjectFileError(section, str(exc)) from exc
    raise ObjectFileError(section, f"cannot parse kind {kind}")


def save_object(obj: ComputationObject, path: str):
    """Write every stored property; CLASS section first."""
    chunks = ["# object file", "", "CLASS", obj.class_tag, ""]
    for key, value in obj.store_items():
        kind = obj.rulebase.property_spec(key).kind
        chunks.append(key)
        chunks.extend(serialize_value(kind, value))
        chunks.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(chunks))


def _sections(text: str):
    name = None
    lines: list[str] = []
    for raw in text.splitlines():
        if raw.strip().startswith("#"):
            continue  # comment-only line, not a terminator
        if "#" in raw:
            raw = raw[:raw.index("#")]
        content = raw.strip()
        if not content:
            if name is not None:
                yield name, lines
                name, lines = None, []
            continue
        if name is None:
            name = content
            lines = []
        else:
            lines.append(content)
    if name is not None:
        yield name, lines


def load_object(path: str, rulebase: RuleBase | None = None) -> ComputationObject:
    """Restore an object; every stored property loads without recomputation.

    The object is born in the root class and cast to the file's CLASS the
    way a request casts it, so a file cannot claim a class whose
    preconditions fail or cannot be derived.
    """
    if rulebase is None:
        from .rules import DEFAULT_RULEBASE
        rulebase = DEFAULT_RULEBASE
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    obj = None
    for name, lines in _sections(text):
        if obj is None:
            if name != "CLASS":
                raise ObjectFileError(name, "first section must be CLASS")
            if len(lines) != 1:
                raise ObjectFileError(name, "CLASS needs exactly one line")
            cls = lines[0]
            rulebase.class_spec(cls)  # unknown class raises here
            obj = ComputationObject(rulebase, rulebase.ancestors(cls)[-1])
            continue
        spec = rulebase.property_spec(name)  # unknown key raises here
        obj.take(name, parse_value(spec.kind, lines, name))
    if obj is None:
        raise ObjectFileError("CLASS", "file has no sections")
    try:
        obj.cast_if_needed(cls)
    except PolylatError as exc:  # refused, or not derivable from the file
        raise ObjectFileError("CLASS", str(exc)) from exc
    return obj
