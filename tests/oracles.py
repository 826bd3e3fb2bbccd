"""Slow reference implementations and helpers that only tests use.

The oracles share no code with the fraction-free elimination kernel in
``polylat.exactmath``: they work on ``Fraction`` entries by textbook
cofactor expansion, Cramer's rule and Gauss-Jordan elimination.  The
Ehrhart oracle counts the lattice points of each dilate by scanning its
bounding box.  The face-lattice oracle closes the facet vertex sets under
intersection and finds covers by inclusion.

The rest are helpers that read values through the public API: graph,
schedule and Hilbert-basis checks, and the shell unparser behind the
grammar round-trip test.
"""

import itertools
import math
from fractions import Fraction
from math import gcd

from polylat.exactmath import Matrix, Vector
from polylat.ruleengine import RuleSpec
from polylat.shell import (
    Access,
    Assign,
    BinOp,
    Call,
    ExprStmt,
    Foreach,
    Heredoc,
    If,
    Index,
    Neg,
    Num,
    Print,
    RangeExpr,
    Str,
    Var,
)


def cofactor_det(rows):
    """Independent determinant oracle: textbook cofactor expansion."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        sub = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * Fraction(rows[0][j]) * cofactor_det(sub)
    return total


def cramer_solve(rows, b):
    """Independent solve oracle for square nonsingular systems."""
    d = cofactor_det(rows)
    assert d != 0
    n = len(rows)
    out = []
    for k in range(n):
        cols = [r[:] for r in rows]
        for i in range(n):
            cols[i] = list(cols[i])
            cols[i][k] = b[i]
        out.append(cofactor_det(cols) / d)
    return out


def gauss_jordan(rows):
    """Reduced row echelon form over Fractions: (nonzero rows, pivots)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0),
                         None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:len(pivots)], pivots


def gauss_jordan_solve(rows, b, n_cols):
    """Unique solution of rows . x = b as a list of Fractions, else None."""
    if not rows:
        return [] if n_cols == 0 else None
    reduced, pivots = gauss_jordan([list(r) + [bv] for r, bv in zip(rows, b)])
    if pivots != list(range(n_cols)):
        return None
    return [row[-1] for row in reduced]


def _primitive(v):
    """Primitive integer multiple of a nonzero rational vector, same
    direction."""
    v = [Fraction(x) for x in v]
    m = 1
    for x in v:
        m = m * x.denominator // gcd(m, x.denominator)
    ints = [int(x * m) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def canonical_basis(rows):
    """Primitive RREF rows of the span, sorted."""
    reduced, _ = gauss_jordan(rows)
    return sorted(_primitive(r) for r in reduced)


def kernel_basis(rows, width):
    """Primitive integer kernel basis read off the RREF, sorted."""
    reduced, pivots = gauss_jordan(rows)
    kernel = []
    for fc in (c for c in range(width) if c not in pivots):
        y = [Fraction(0)] * width
        y[fc] = Fraction(1)
        for r, p in enumerate(pivots):
            y[p] = -reduced[r][fc]
        kernel.append(_primitive(y))
    return sorted(kernel)


def boxscan_parallelepiped(gens):
    """Scan the bounding box of the half-open parallelepiped and keep the
    points with coefficients in [0, 1)."""
    width = len(gens[0])
    lo = [sum(min(g[j], 0) for g in gens) for j in range(width)]
    hi = [sum(max(g[j], 0) for g in gens) for j in range(width)]
    gt = [[g[j] for g in gens] for j in range(width)]
    out = []
    for x in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        lam = gauss_jordan_solve(gt, x, len(gens))
        if lam is not None and all(0 <= c < 1 for c in lam):
            out.append(tuple(x))
    return sorted(out)


def boxscan_ehrhart_counts(vertices, facets, k_max):
    """Lattice point counts of kP for k = 0 .. k_max, P given by its
    homogeneous vertex rows (1, v) and facet rows (b, a) meaning
    b + a.x >= 0: every integer point of the bounding box of kP is tested
    against the facet rows, each scaled to integers."""
    verts = [[Fraction(x) for x in v] for v in vertices]
    rows = []
    for f in facets:
        f = [Fraction(x) for x in f]
        m = math.lcm(*(x.denominator for x in f))
        rows.append([int(x * m) for x in f])
    d = len(verts[0]) - 1
    counts = []
    for k in range(k_max + 1):
        box = [range(math.ceil(k * min(v[j] for v in verts)),
                     math.floor(k * max(v[j] for v in verts)) + 1)
               for j in range(1, d + 1)]
        counts.append(sum(
            all(k * f[0] + sum(a * b for a, b in zip(f[1:], xs)) >= 0
                for f in rows)
            for xs in itertools.product(*box)))
    return tuple(counts)


def brute_force_face_lattice(facet_sets, n_vertices):
    """Face lattice from facet vertex sets, by brute force.

    The faces are every intersection of facet vertex sets, the full vertex
    set (the empty intersection) included.  H covers G when G < H and no
    face lies strictly between them; a face's dimension is the length of
    the longest cover chain up from the bottom face, which gets -1.
    Returns nodes (vertex set, dimension) ordered by dimension, then by
    sorted vertex list, the cover edges as id pairs, the f-vector, the
    f2-matrix, and the adjacency rows of the vertex-edge graph and of the
    facet-ridge graph (facets numbered like ``facet_sets``).
    """
    faces = {frozenset(range(n_vertices))}
    todo = list(faces)
    while todo:
        face = todo.pop()
        for r in facet_sets:
            if face & r not in faces:
                faces.add(face & r)
                todo.append(face & r)
    covers = {}
    for g in faces:
        up = [h for h in faces if g < h]
        covers[g] = [h for h in up if not any(k < h for k in up)]
    dim = {}
    for h in sorted(faces, key=len):
        dim[h] = max((dim[g] for g in faces if h in covers[g]),
                     default=-2) + 1
    nodes = sorted(((f, dim[f]) for f in faces),
                   key=lambda node: (node[1], sorted(node[0])))
    ids = {f: i for i, (f, _) in enumerate(nodes)}
    edges = {(ids[g], ids[h]) for g in faces for h in covers[g]}
    d = nodes[-1][1]
    proper = [f for f in faces if 0 <= dim[f] < d]
    f2 = [[0] * d for _ in range(d)]
    for g in proper:
        for h in proper:
            if g <= h or h < g:
                f2[dim[g]][dim[h]] += 1
    graph = [set() for _ in range(n_vertices)]
    for f in faces:
        if dim[f] == 1:
            u, v = sorted(f)
            graph[u].add(v)
            graph[v].add(u)
    dual = [{j for j, s in enumerate(facet_sets)
             if j != i and dim[r & s] == d - 2}
            for i, r in enumerate(facet_sets)]
    return {"nodes": nodes, "edges": edges,
            "f_vector": [f2[i][i] for i in range(d)], "f2_vector": f2,
            "graph": graph, "dual_graph": dual}


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product."""
    assert a.n_cols == b.n_rows
    return Matrix([[sum((x * y for x, y in zip(row, col)), Fraction(0))
                    for col in zip(*b.rows)] for row in a.rows],
                  n_cols=b.n_cols)


def identity_matrix(n: int) -> Matrix:
    return Matrix([[int(i == j) for j in range(n)] for i in range(n)])


def mat_vec(m: Matrix, v: Vector) -> Vector:
    """Matrix times column vector."""
    assert m.n_cols == len(v)
    return Vector(sum((a * b for a, b in zip(row, v.entries)), Fraction(0))
                  for row in m.rows)


def zero_matrix(m: int, n: int) -> Matrix:
    return Matrix([[0] * n for _ in range(m)], n_cols=n)


def n_interior_from_hstar(hstar: Vector) -> int:
    """The top h*-coefficient counts the interior lattice points."""
    return int(hstar.entries[-1])


def n_live_nodes(g) -> int:
    """Nodes of a graph that are not marked deleted."""
    h = g.copy()
    h.squeeze()
    return h.n_nodes


def delete_node(g, u: int):
    """Mark node u of g deleted and detach its edges.  The package deletes
    nodes only by contracting edges; this reaches into the deletion marks."""
    for w in g.neighbors(u):
        g._adj[w].discard(u)
    g._adj[u] = set()
    g._deleted.add(u)


def total_weight(schedule) -> int:
    """Sum of the weights of a schedule's rules; cast steps weigh nothing."""
    return sum(e.weight for e in schedule.entries if isinstance(e, RuleSpec))


def reducible_pairs(basis, facets, equations):
    """Pairs (x, y) of distinct basis rows with x - y in the cone given by
    facets (>= 0) and equations (== 0); a Hilbert basis has none."""
    def in_cone(z):
        return (all(sum(a * b for a, b in zip(e, z)) == 0 for e in equations)
                and all(sum(a * b for a, b in zip(f, z)) >= 0 for f in facets))

    return [(x, y) for x in basis for y in basis
            if y != x and in_cone([a - b for a, b in zip(x, y)])]


# shell unparser: parse(unparse(stmts)) == stmts is the grammar round trip

def unparse_expr(node, heredocs: list) -> str:
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Str):
        body = (node.value.replace("\\", "\\\\").replace('"', '\\"')
                .replace("\n", "\\n").replace("\t", "\\t"))
        return f'"{body}"'
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Heredoc):
        heredocs.append(node)
        return '<<"."'
    if isinstance(node, Call):
        parts = [unparse_expr(a, heredocs) for a in node.args]
        parts += [f"{k}={unparse_expr(v, heredocs)}" for k, v in node.kwargs]
        return f"{node.name}({', '.join(parts)})"
    if isinstance(node, Access):
        base = f"{unparse_expr(node.obj, heredocs)}.{node.name}"
        if node.args is None:
            return base
        return base + "(" + ", ".join(unparse_expr(a, heredocs)
                                      for a in node.args) + ")"
    if isinstance(node, Index):
        return (f"{unparse_expr(node.obj, heredocs)}"
                f"[{unparse_expr(node.index, heredocs)}]")
    if isinstance(node, BinOp):
        return (f"{unparse_expr(node.left, heredocs)} {node.op} "
                f"{unparse_expr(node.right, heredocs)}")
    if isinstance(node, Neg):
        return f"-{unparse_expr(node.operand, heredocs)}"
    if isinstance(node, RangeExpr):
        return (f"{unparse_expr(node.low, heredocs)}.."
                f"{unparse_expr(node.high, heredocs)}")
    raise AssertionError(node)


def unparse_stmt(stmt, indent: str = "") -> str:
    heredocs: list[Heredoc] = []

    def finish(line: str) -> str:
        chunks = [indent + line]
        for h in heredocs:
            chunks.extend(h.rows)
            chunks.append(".")
        return "\n".join(chunks)

    if isinstance(stmt, Assign):
        return finish(f"{stmt.name} = {unparse_expr(stmt.expr, heredocs)}")
    if isinstance(stmt, Print):
        return finish("print " + ", ".join(unparse_expr(e, heredocs)
                                           for e in stmt.exprs))
    if isinstance(stmt, ExprStmt):
        return finish(unparse_expr(stmt.expr, heredocs))
    if isinstance(stmt, Foreach):
        head = (f"foreach {stmt.var} in "
                f"{unparse_expr(stmt.iterable, heredocs)} {{")
        body = [unparse_stmt(s, indent + "  ") for s in stmt.body]
        return "\n".join([finish(head)] + body + [indent + "}"])
    if isinstance(stmt, If):
        head = f"if {unparse_expr(stmt.cond, heredocs)} {{"
        body = [unparse_stmt(s, indent + "  ") for s in stmt.body]
        return "\n".join([finish(head)] + body + [indent + "}"])
    raise AssertionError(stmt)


def unparse(stmts) -> str:
    return "\n".join(unparse_stmt(s) for s in stmts)
