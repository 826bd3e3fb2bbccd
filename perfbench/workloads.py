"""The three request workloads and the oracle that checks each answer.

A workload is a sequence of rounds.  Round ``i`` of seed ``s`` is built
from ``random.Random(f"{workload}:{s}:{i}")`` alone, before any of its
requests is timed.  Every round has the same request kinds in the same
order; only the random content changes from round to round.

A request is one user-level call: ``run`` is timed, ``check`` is not.
``run`` builds a fresh object and asks for one property, or evaluates one
shell statement block; ``check`` returns ``None`` or a failure message.
"""

from __future__ import annotations

import io
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable

import polylat

import checks

HULL_KEYS = ("VERTICES", "F_VECTOR", "GRAPH", "DUAL_GRAPH")
LATTICE_KEYS = ("H_STAR_VECTOR", "LATTICE_VOLUME", "N_LATTICE_POINTS",
                "N_INTERIOR_LATTICE_POINTS", "REFLEXIVE", "SMOOTH")

# the paper's cone C: ten generators that are their own Hilbert basis, and
# the witness vector x of the integral Caratheodory scan
PAPER_M = ((0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0),
           (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1), (1, 0, 2, 1, 1, 2),
           (1, 2, 0, 2, 1, 1), (1, 1, 2, 0, 2, 1), (1, 1, 1, 2, 0, 2),
           (1, 2, 1, 1, 2, 0))
PAPER_X = (9, 13, 13, 13, 13, 13)
PAPER_SCAN = (210, 185, 120, 160, 0)  # subsets, solutions, integral,
#                                       negative entry, nonnegative integral


@dataclass
class Request:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    inputs: object = None  # the generated data, for the input digest


def _directions(rng, width, n=8):
    return [tuple(rng.randint(-1000, 1000) for _ in range(width))
            for _ in range(n)]


def _key_request(label, make, key, check, inputs=None):
    """Time ``make().request(key)``; the check gets (object, value)."""
    def run():
        obj = make()
        return obj, obj.request(key)
    return Request(f"{label}.{key}", run, lambda out: check(*out), inputs)


# ---------------------------------------------------------------------------
# hull-face-lattice
# ---------------------------------------------------------------------------

def _check_hull(obj, key, value, dim, points=None, f_known=None,
                extremes=None):
    if key == "VERTICES":
        rows = [tuple(r) for r in value.rows]
        if len(set(rows)) != len(rows):
            return "duplicate vertex rows"
        if points is None:  # the cube: exactly the +-1 sign vectors
            want = {(1,) + s for s in itertools.product((-1, 1), repeat=dim)}
            return None if set(rows) == want else "cube vertices differ"
        if not set(rows) <= set(points):
            return "a vertex is not an input point"
        if not extremes <= set(rows):
            return "an extreme input point is missing from VERTICES"
        if len(rows) < dim + 1:
            return f"{len(rows)} vertices in dimension {dim}"
        return None
    f = [int(x) for x in obj.request("F_VECTOR")]  # cached face lattice
    msg = checks.check_f_vector(f, dim, None if points is None
                                else len(set(points)))
    if msg is None and f_known is not None and f != f_known:
        msg = f"f-vector {f}, expected {f_known}"
    if msg is None and key == "GRAPH":
        msg = checks.check_graph(value.adjacency(), f[0], f[1], dim)
    if msg is None and key == "DUAL_GRAPH":
        msg = checks.check_graph(value.adjacency(), f[-1], f[-2], dim)
    return msg


def _fixed_hull(kind, d, key):
    make = polylat.cube if kind == "cube" else polylat.cross
    f_known = (checks.cube_f_vector(d) if kind == "cube"
               else checks.cross_f_vector(d))
    return _key_request(f"{kind}({d})", lambda: make(d), key,
                        lambda obj, v: _check_hull(obj, key, v, d,
                                                   f_known=f_known))


def _random_hull(rng, d, n_points, key):
    """Integer points near the sphere of radius 20 (nearly all of them
    vertices, so the cost varies little between seeds), three redundant
    points inside and one exact duplicate row."""
    pts = []
    while len(pts) < n_points:
        v = [rng.gauss(0, 1) for _ in range(d)]
        norm = math.sqrt(sum(x * x for x in v))
        p = (1,) + tuple(round(20 * x / norm) for x in v)
        if p not in pts:
            pts.append(p)
    pts += [(1,) + tuple(rng.randint(-6, 6) for _ in range(d))
            for _ in range(3)]
    pts.append(pts[rng.randrange(n_points)])
    dirs = _directions(rng, d + 1)

    def check(obj, value):
        extremes = checks.lex_extreme(pts, dirs)
        return _check_hull(obj, key, value, checks.rank(pts) - 1, pts,
                           extremes=extremes)

    return _key_request(f"random{d}d[{len(pts)}]",
                        lambda: polylat.from_points(polylat.Matrix(pts)),
                        key, check, pts)


def hull_round(rng):
    """cube(5..7) born from facets, cross(5..6) born from vertices, and
    random point sets: 14 points in 4-d, 10 points in 5-d."""
    reqs = [_fixed_hull("cube", d, key) for d in (5, 6) for key in HULL_KEYS]
    reqs.append(_fixed_hull("cube", 7, "F_VECTOR"))
    reqs += [_fixed_hull("cross", d, key) for d in (5, 6)
             for key in HULL_KEYS[1:]]  # VERTICES is the cross's input
    # weights put the median request among the 4-d F_VECTOR, GRAPH and
    # DUAL_GRAPH requests, which cost about the same
    weights = {4: (2, 4, 4, 4), 5: (1, 2, 2, 2)}
    for d, n_points in ((4, 14), (5, 10)):
        reqs += [_random_hull(rng, d, n_points, key)
                 for key, w in zip(HULL_KEYS, weights[d]) for _ in range(w)]
    return reqs


# ---------------------------------------------------------------------------
# lattice-invariants
# ---------------------------------------------------------------------------

def _own_lattice_points(obj, pts):
    """Lattice points of conv(pts) counted with the object's facets, after
    checking each facet: valid on every point, tight on a hyperplane."""
    d = len(pts[0]) - 1
    facets = [tuple(int(x) for x in f) for f in obj.request("FACETS").rows]
    for f in facets:
        values = [sum(a * b for a, b in zip(f, p)) for p in pts]
        if min(values) < 0:
            raise ValueError("a facet cuts off an input point")
        if checks.rank([p for p, v in zip(pts, values) if v == 0]) != d:
            raise ValueError("a facet is not tight on a hyperplane")
    boxes = [range(min(p[j] for p in pts), max(p[j] for p in pts) + 1)
             for j in range(1, d + 1)]
    inside = interior = 0
    for xs in itertools.product(*boxes):
        values = [f[0] + sum(a * b for a, b in zip(f[1:], xs)) for f in facets]
        if min(values) >= 0:
            inside += 1
            interior += min(values) > 0
    return inside, interior


def _check_lattice_random(obj, key, value, pts):
    d = len(pts[0]) - 1
    try:
        n_all, n_int = _own_lattice_points(obj, pts)
    except ValueError as exc:
        return str(exc)
    if key == "H_STAR_VECTOR":
        hs = [int(x) for x in value]
        if len(hs) != d + 1 or hs[0] != 1 or min(hs) < 0:
            return f"malformed h* {hs}"
        if hs[1] != n_all - d - 1:
            return f"h*_1 = {hs[1]}, but N - d - 1 = {n_all - d - 1}"
        if hs[-1] != n_int:
            return f"h*_d = {hs[-1]} but {n_int} interior points"
        if sum(hs) != obj.request("LATTICE_VOLUME"):
            return "sum of h* differs from LATTICE_VOLUME"
    elif key == "LATTICE_VOLUME":
        if value != sum(int(x) for x in obj.request("H_STAR_VECTOR")):
            return "LATTICE_VOLUME differs from the sum of h*"
        if value < n_all - d:
            return f"volume {value} below N - d = {n_all - d}"
    elif key == "N_LATTICE_POINTS":
        if value != n_all or value < len(set(pts)):
            return f"{value} lattice points, counted {n_all}"
    elif key == "N_INTERIOR_LATTICE_POINTS":
        if value != n_int:
            return f"{value} interior points, counted {n_int}"
    elif key == "REFLEXIVE":
        if value and n_int != 1:
            return f"reflexive with {n_int} interior points"
    elif key == "SMOOTH":
        if value and any(len(a) != d
                         for a in obj.request("GRAPH").adjacency()):
            return "smooth but not simple"
    return None


def _fixed_lattice(kind, d, key):
    make = polylat.cube if kind == "cube" else polylat.cross
    want = checks.lattice_literals(kind, d)[key]

    def check(obj, value):
        got = [int(x) for x in value] if key == "H_STAR_VECTOR" else value
        return None if got == want else f"{got}, expected {want}"

    return _key_request(f"{kind}({d})", lambda: make(d), key, check)


def _lattice_points(rng, d, n_extra):
    """0, every e_i, -(1, ..., 1) and random points of {-1, 0, 1}^d: the
    bounding box is always [-1, 1]^d, so box enumeration costs the same
    for every seed."""
    pts = [(1,) + (0,) * d, (1,) + (-1,) * d]
    pts += [(1,) + tuple(int(i == j) for j in range(d)) for i in range(d)]
    pts += [(1,) + tuple(rng.randint(-1, 1) for _ in range(d))
            for _ in range(n_extra)]
    return pts


def _random_lattice(rng, d, n_extra, key):
    pts = _lattice_points(rng, d, n_extra)
    return _key_request(
        f"lattice{d}d[{n_extra}]",
        lambda: polylat.from_points(polylat.Matrix(pts)), key,
        lambda obj, v: _check_lattice_random(obj, key, v, pts), pts)


def _check_hilbert(value, gens, paper):
    basis = [tuple(int(x) for x in row) for row in value.rows]
    if any(x.denominator != 1 for row in value.rows for x in row):
        return "non-integral Hilbert basis element"
    if paper:
        return (None if sorted(basis) == sorted(PAPER_M)
                else "cone C's Hilbert basis is not its ten generators")
    hb = set(basis)
    if len(hb) != len(basis) or any(checks.primitive(x) != x for x in hb):
        return "duplicate or non-primitive Hilbert basis element"
    # positive on every generator: height for cones over polytopes, else
    # the coordinate sum of nonnegative generators
    grading = ((1,) + (0,) * (len(gens[0]) - 1) if all(g[0] > 0 for g in gens)
               else (1,) * len(gens[0]))
    dirs = _directions(Random(repr(gens)), len(gens[0]))
    if not {checks.primitive(g)
            for g in checks.lex_extreme(gens, dirs, grading)} <= hb:
        return "an extreme ray generator is missing"
    for x in basis:
        if not checks.in_cone(x, gens):
            return f"{x} is not in the cone"
    for y, z in itertools.combinations_with_replacement(basis, 2):
        if tuple(a + b for a, b in zip(y, z)) in hb:
            return "a Hilbert basis element is a sum of two others"
    return None


def _hilbert(label, gens, paper=False):
    return _key_request(label, lambda: polylat.from_points(
        polylat.Matrix(gens)), "HILBERT_BASIS",
        lambda obj, v: _check_hilbert(v, gens, paper), gens)


def _check_scan(report, m, x, paper):
    lines = [(l.subset, list(l.solution)) for l in report.lines]
    msg = checks.check_witness(m, x, lines, report.n_subsets)
    if msg is None and paper:
        got = (report.n_subsets,) + checks.witness_counts(
            [y for _, y in lines])
        if got != PAPER_SCAN:
            msg = f"paper scan gives {got}, expected {PAPER_SCAN}"
    return msg


def _scan(label, m, x, paper=False):
    return Request(
        label,
        lambda: polylat.caratheodory_witness_scan(polylat.Matrix(m),
                                                  polylat.Vector(x)),
        lambda report: _check_scan(report, m, x, paper), (m, x))


def _random_scan_input(rng, n_rows=10):
    m = tuple(tuple(rng.randint(-3, 3) for _ in range(6))
              for _ in range(n_rows))
    x = tuple(rng.randint(-9, 9) for _ in range(6))
    return m, x


def lattice_round(rng):
    """cross(3..5), cube(3..4) and random lattice polytopes in 3-5-d that
    contain 0 and every e_i; Hilbert bases of cone C and of cones over
    random 3-d and 4-d lattice polytopes; witness scans of the paper's
    matrix and of a random 8x6."""
    reqs = [_fixed_lattice(kind, d, key)
            for kind, d in (("cross", 3), ("cross", 4), ("cube", 3),
                            ("cube", 4))
            for key in LATTICE_KEYS]
    reqs += [_fixed_lattice("cross", 5, key) for key in LATTICE_KEYS
             if key != "LATTICE_VOLUME"]  # same work as H_STAR_VECTOR
    for d, n_extra in ((3, 3), (4, 2)):
        reqs += [_random_lattice(rng, d, n_extra, key)
                 for key in LATTICE_KEYS]
    reqs += [_random_lattice(rng, 5, 2, key)  # h* of these takes ~1 s
             for key in LATTICE_KEYS[2:]]
    reqs.append(_hilbert("coneC", PAPER_M, paper=True))
    # cones over random lattice polytopes: 3-d ones span 4-d cones, 4-d
    # ones 5-d cones
    reqs += [_hilbert("cone4d", _lattice_points(rng, 3, 8)) for _ in range(3)]
    reqs += [_hilbert("cone5d", _lattice_points(rng, 4, 3)) for _ in range(2)]
    reqs.append(_scan("scan(M)", PAPER_M, PAPER_X, paper=True))
    reqs.append(_scan("scan(random)", *_random_scan_input(rng, 8)))
    return reqs


# ---------------------------------------------------------------------------
# shell-session
# ---------------------------------------------------------------------------

def _heredoc(rows):
    return '<<"."\n' + "\n".join(" ".join(str(x) for x in r)
                                 for r in rows) + "\n."


def _parse_vector(text):
    return [Fraction(t) for t in text.split()]


class ShellSession:
    """One persistent shell environment; each request is a statement block
    evaluated by ``eval_text``, or a shipped script run by ``run_script``."""

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir
        self.env = polylat.shell.Environment()

    def _block(self, label, text, check):
        env = self.env

        def run():
            env.out = io.StringIO()
            polylat.eval_text(text, env)
            return env.out.getvalue()

        return Request(label, run, check, text)

    def _script(self, name, check):
        path = os.path.join(self.root, "scripts", name)

        def run():
            out = io.StringIO()
            status = polylat.run_script(path, out=out)
            return status, out.getvalue()

        return Request(f"script {name}", run, lambda res: (
            f"exit status {res[0]}" if res[0] else check(res[1])))

    def _polytope_blocks(self, rng, i):
        env = self.env
        d = rng.choice((2, 3))
        pts = [(1,) + tuple(rng.randint(-3, 3) for _ in range(d))
               for _ in range(rng.randint(d + 3, d + 6))]
        shuffled = pts[:]
        rng.shuffle(shuffled)
        dim = checks.rank(pts) - 1
        path = os.path.join(self.workdir, f"P{i}.poly")
        p, q, r = f"P{i}", f"Q{i}", f"R{i}"
        first = {}

        def check_f(out):
            first["f"] = out
            return checks.check_f_vector(_parse_vector(out), dim,
                                         len(set(pts)))

        def check_reread(out):
            return None if out == first.get("f") else "cached F_VECTOR differs"

        def check_roundtrip(out):
            a, b = env.vars[p], env.vars[q]
            if (a.class_tag, a.store_items()) != (b.class_tag, b.store_items()):
                return "object file round trip changed the object"
            return None if out == first.get("f") else "loaded F_VECTOR differs"

        def check_iso(out):
            ga, gb = env.vars[p].get("GRAPH"), env.vars[r].get("GRAPH")
            if sorted(map(len, ga.adjacency())) != sorted(map(len,
                                                              gb.adjacency())):
                return "shuffled birth has another degree sequence"
            return None if out == "1\n" else f"isomorphic printed {out!r}"

        return [
            self._block(f"{p} schedule",
                        f"A = {_heredoc(pts)}\n{p} = polytope(points=A)\n"
                        f'print {p}.get_schedule("F_VECTOR")',
                        lambda out: checks.check_schedule(
                            out.splitlines(), {"POINTS"}, "F_VECTOR")),
            self._block(f"{p}.F_VECTOR", f"print {p}.F_VECTOR", check_f),
            self._block(f"{p}.F_VECTOR cached", f"print {p}.F_VECTOR",
                        check_reread),
            self._block(f"{p} save/load",
                        f'save({p}, "{path}")\n{q} = load("{path}")\n'
                        f"print {q}.F_VECTOR", check_roundtrip),
            self._block(f"{p} isomorphic",
                        f"A = {_heredoc(shuffled)}\n{r} = polytope(points=A)\n"
                        f"print isomorphic({p}.GRAPH.ADJACENCY, "
                        f"{r}.GRAPH.ADJACENCY)", check_iso),
        ]

    def _scan_block(self, label, m, x):
        text = (f"M = {_heredoc(m)}\n"
                f"x = vector({', '.join(map(str, x))})\n"
                "n_sub = 0\n"
                "foreach s in all_subsets_of_k(6, 0..9) {\n"
                "  n_sub = n_sub + 1\n"
                "  B = minor(M, s, All)\n"
                "  if det(B) {\n"
                "    y = lin_solve(transpose(B), x)\n"
                '    print s, ":", y\n'
                "  }\n"
                "}\n"
                "print n_sub")

        def check(out):
            *body, total = out.splitlines()
            lines = []
            for line in body:
                subset, _, y = line.partition(":")
                lines.append((tuple(int(t) for t in subset.strip("{}").split()),
                              _parse_vector(y)))
            return checks.check_witness(m, x, lines, int(total))

        return self._block(label, text, check)

    @staticmethod
    def _check_cube_session(out):
        lines = out.splitlines()
        for literal in ("8 12 6", "1 23 23 1"):
            if literal not in lines:
                return f"cube session does not print {literal!r}"
        return None

    @staticmethod
    def _check_witness_script(out):
        lines = out.splitlines()
        n = len(PAPER_M)
        basis = {tuple(int(t) for t in line.split()) for line in lines[:n]}
        if basis != set(PAPER_M):
            return "cone C's Hilbert basis is not its ten generators"
        nonsingular, _ = checks.witness_expectation(PAPER_M, 6)
        ys = [_parse_vector(line)
              for line in lines[n:n + len(nonsingular)]]
        msg = checks.check_witness(PAPER_M, PAPER_X, list(zip(nonsingular, ys)))
        if msg:
            return msg
        counts = checks.witness_counts(ys)
        tail = lines[n + len(nonsingular):n + len(nonsingular) + 5]
        want = [f"{counts[0]} nonsingular subsets",
                f"{counts[1]} integral solutions",
                f"{counts[2]} solutions with a negative coefficient",
                f"{counts[3]} nonnegative integral representations "
                "(must be 0)", "1"]
        if tail != want or counts != PAPER_SCAN[1:]:
            return f"witness script summary {tail}"
        return None

    def round(self, rng):
        """Small 2-3-d polytopes through schedule, request, cached re-read,
        save/load and isomorphism; a witness scan of a random 10x6 matrix;
        both shipped scripts (witness_scan.pol scans the paper's M, x)."""
        reqs = []
        for i in range(8):
            reqs += self._polytope_blocks(rng, i)
        reqs.append(self._scan_block("scan block(random)",
                                     *_random_scan_input(rng)))
        reqs.append(self._script("cube_session.pol", self._check_cube_session))
        reqs.append(self._script("witness_scan.pol",
                                 self._check_witness_script))
        return reqs  # session order: each object is used after its birth


class Workload:
    """Rounds of one workload for one seed."""

    def __init__(self, name, seed, root, workdir):
        self.name = name
        self.seed = seed
        if name == "shell-session":
            session = ShellSession(root, workdir)
            self._round = session.round
        else:
            self._round = {"hull-face-lattice": hull_round,
                           "lattice-invariants": lattice_round}[name]

    def round(self, index):
        return self._round(Random(f"{self.name}:{self.seed}:{index}"))


WORKLOADS = ("hull-face-lattice", "lattice-invariants", "shell-session")

# count metrics that must be nonzero in a traced run of each workload
MUST_FIRE = {
    "hull-face-lattice": (
        "geomcore.dd.calls", "geomcore.dd.rays_out", "geomcore.dd.rank_tests",
        "geomcore.incidence.pairs", "geomcore.hasse.faces",
        "geomcore.hasse.covers", "geomcore.hull.calls",
        "geomcore.extreme_points.calls", "geomcore.f2.calls",
        "geomcore.skeleton.calls", "ruleengine.plan.calls",
        "ruleengine.plan.rules_scheduled", "rules.fired"),
    "lattice-invariants": (
        "latticecore.box.calls", "latticecore.box.scanned",
        "latticecore.box.kept", "latticecore.triangulation.simplices",
        "latticecore.parallelepiped.points", "latticecore.hilbert.candidates",
        "latticecore.hilbert.basis", "exactmath.det.calls",
        "exactmath.lin_solve.calls", "exactmath.rank.calls",
        "exactmath.hnf.calls", "latticecore.ehrhart.calls",
        "latticecore.smooth.calls", "latticecore.witness_scan.calls",
        "geomcore.dd.calls", "ruleengine.cast.calls",
        "ruleengine.plan.calls", "rules.fired"),
    "shell-session": (
        "exactmath.det.calls", "exactmath.lin_solve.calls",
        "graphiso.isomorphism.calls", "objectfile.bytes",
        "ruleengine.cache_hits", "ruleengine.cast.calls",
        "ruleengine.plan.calls", "rules.fired", "latticecore.hilbert.basis",
        "geomcore.dd.calls", "shell.parse.calls", "shell.eval.calls",
        "objectfile.save.calls", "objectfile.load.calls"),
}
