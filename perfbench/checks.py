"""Answer oracles written in the benchmark's own exact arithmetic.

Nothing here calls into polylat.  Each check takes plain Python values
(integer tuples, Fractions, lists) and returns ``None`` when the answer is
acceptable, or a short message naming the first violated property.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, gcd


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def _reduce(rows):
    """Reduced row echelon form over Fraction; returns (rows, pivot columns)."""
    work = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    width = len(work[0]) if work else 0
    for c in range(width):
        p = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


def rank(rows) -> int:
    return len(_reduce(rows)[1]) if rows else 0


def int_det(rows) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def combination(coeffs, rows):
    """sum_i coeffs[i] * rows[i], exactly."""
    out = [Fraction(0)] * len(rows[0])
    for c, row in zip(coeffs, rows):
        for j, x in enumerate(row):
            out[j] += c * x
    return out


def in_cone(x, generators) -> bool:
    """x is a nonnegative combination of the generators (Caratheodory).

    Every conic combination reduces to one over linearly independent
    generators; those extend to a basis of the span, so it suffices to try
    each independent subset of size rank(generators).
    """
    r = rank(generators)
    if rank(list(generators) + [x]) != r:
        return False
    for subset in itertools.combinations(generators, r):
        if rank(subset) != r:
            continue
        # solve sum lambda_i s_i = x: rows of the augmented transpose
        aug = [[s[c] for s in subset] + [x[c]] for c in range(len(x))]
        reduced, pivots = _reduce(aug)
        if r in pivots:
            continue
        lam = [Fraction(0)] * r
        for row, c in zip(reduced, pivots):
            lam[c] = row[-1]
        if all(v >= 0 for v in lam):
            return True
    return False


def primitive(v) -> tuple[int, ...]:
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    return tuple(int(x) // g for x in v)


def lex_extreme(points, directions, grading=None):
    """Points that maximise (c.x, x) for some direction c.

    For points these are vertices of their convex hull.  With ``grading``
    the points are rays, compared after scaling to grading value 1; the
    maximisers are then extreme rays of their cone.
    """
    out = set()
    for c in directions:
        def key(p):
            s = Fraction(1) if grading is None else Fraction(
                1, sum(a * b for a, b in zip(grading, p)))
            q = tuple(s * x for x in p)
            return (sum(a * b for a, b in zip(c, q)), q)
        out.add(tuple(max(points, key=key)))
    return out


# ---------------------------------------------------------------------------
# closed forms for the fixed polytopes
# ---------------------------------------------------------------------------

def cube_f_vector(d):
    return [comb(d, k) * 2 ** (d - k) for k in range(d)]


def cross_f_vector(d):
    return [2 ** (k + 1) * comb(d, k + 1) for k in range(d)]


def h_star_from_counts(counts, d):
    return [sum((-1) ** (j - i) * comb(d + 1, j - i) * counts[i]
                for i in range(j + 1)) for j in range(d + 1)]


def cube_ehrhart(d, k):
    """Lattice points of k[-1,1]^d."""
    return (2 * k + 1) ** d


def cross_ehrhart(d, k):
    """Lattice points of k conv(+-e_i): sum_i 2^i C(d,i) C(k,i)."""
    return sum(2 ** i * comb(d, i) * comb(k, i) for i in range(d + 1))


def lattice_literals(kind, d):
    """Every lattice-invariant answer of cube(d) / cross(d), in closed form."""
    ehr = cube_ehrhart if kind == "cube" else cross_ehrhart
    hs = h_star_from_counts([ehr(d, k) for k in range(d + 1)], d)
    return {
        "H_STAR_VECTOR": hs,
        "LATTICE_VOLUME": sum(hs),
        "N_LATTICE_POINTS": ehr(d, 1),
        "N_INTERIOR_LATTICE_POINTS": 1,
        "REFLEXIVE": True,
        "SMOOTH": kind == "cube",
    }


# ---------------------------------------------------------------------------
# combinatorial checks
# ---------------------------------------------------------------------------

def check_f_vector(f, dim, n_points=None):
    f = [int(x) for x in f]
    if len(f) != dim:
        return f"f-vector length {len(f)} != dim {dim}"
    if sum((-1) ** i * x for i, x in enumerate(f)) != 1 - (-1) ** dim:
        return f"Euler-Poincare fails for {f}"
    if dim and f[0] < dim + 1:
        return f"only {f[0]} vertices in dimension {dim}"
    if n_points is not None and f[0] > n_points:
        return f"{f[0]} vertices from {n_points} points"
    return None


def check_graph(adjacency, n_nodes, n_edges, min_degree):
    """Node and edge counts, minimum degree (Balinski) and connectivity."""
    if len(adjacency) != n_nodes:
        return f"{len(adjacency)} nodes, expected {n_nodes}"
    edges = sum(len(a) for a in adjacency)
    if edges != 2 * n_edges:
        return f"{edges // 2} edges, expected {n_edges}"
    if adjacency and min(len(a) for a in adjacency) < min_degree:
        return f"a node has degree below {min_degree}"
    seen, todo = {0}, [0]
    while todo:
        for v in adjacency[todo.pop()]:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    if n_nodes and len(seen) != n_nodes:
        return "graph is not connected"
    return None


def check_schedule(lines, known, target):
    """Each rule's sources are known when it runs, and the target is made."""
    have = set(known)
    for line in lines:
        if line.startswith("(cast to"):
            continue
        targets, _, sources = line.partition(" : ")
        needed = {s.strip() for s in sources.split(",") if s.strip()}
        if not needed <= have:
            return f"rule [{line}] runs before {sorted(needed - have)}"
        have |= {t.strip() for t in targets.split(",")}
    if target not in have:
        return f"schedule never produces {target}"
    return None


# ---------------------------------------------------------------------------
# the witness scan
# ---------------------------------------------------------------------------

def witness_expectation(m, k):
    """Lexicographic k-subsets of m's rows with a nonsingular minor."""
    subsets = list(itertools.combinations(range(len(m)), k))
    return [s for s in subsets if int_det([m[i] for i in s]) != 0], len(subsets)


def check_witness(m, x, lines, n_subsets=None):
    """``lines`` are (subset, y) pairs in scan order; y^T B = x for each."""
    k = len(x)
    nonsingular, total = witness_expectation(m, k)
    if n_subsets is not None and n_subsets != total:
        return f"{n_subsets} subsets scanned, expected {total}"
    if [tuple(s) for s, _ in lines] != nonsingular:
        return (f"{len(lines)} solutions, expected one for each of "
                f"{len(nonsingular)} nonsingular minors")
    for s, y in lines:
        if combination(y, [m[i] for i in s]) != [Fraction(v) for v in x]:
            return f"y^T B != x for subset {tuple(s)}"
    return None


def witness_counts(ys):
    """(solutions, integral, with a negative entry, nonnegative integral)."""
    integral = [all(v.denominator == 1 for v in y) for y in ys]
    negative = [any(v < 0 for v in y) for y in ys]
    return (len(ys), sum(integral), sum(negative),
            sum(i and not n for i, n in zip(integral, negative)))
