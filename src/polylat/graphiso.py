"""Finite simple undirected graphs: isomorphism, edge contraction, squeeze.

Graphs keep their nodes consecutively numbered.  ``contract_edge`` only
*marks* the absorbed node as deleted; ``squeeze`` renumbers the survivors
and makes the graph valid again for isomorphism testing.  This two-phase
workflow lets several contractions share one renumbering.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from .errors import BudgetExceededError, PolylatError


class Graph:
    """Simple undirected graph on nodes 0..n-1 with deletion marks."""

    def __init__(self, n: int = 0, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("node count must be >= 0")
        self._adj: list[set[int]] = [set() for _ in range(n)]
        self._deleted: set[int] = set()
        for u, v in edges:
            self.add_edge(u, v)

    @classmethod
    def from_adjacency(cls, adjacency: Sequence[Iterable[int]]) -> "Graph":
        g = cls(len(adjacency))
        for u, nbrs in enumerate(adjacency):
            for v in nbrs:
                g.add_edge(u, v)
        return g

    @property
    def n_nodes(self) -> int:
        """Total slots, deleted or not."""
        return len(self._adj)

    def is_squeezed(self) -> bool:
        return not self._deleted

    def neighbors(self, u: int) -> frozenset[int]:
        self._check_live(u)
        return frozenset(self._adj[u])

    def degree(self, u: int) -> int:
        self._check_live(u)
        return len(self._adj[u])

    def degree_multiset(self) -> Counter:
        return Counter(len(self._adj[u]) for u in self._live())

    def edges(self) -> list[tuple[int, int]]:
        return sorted((u, v) for u in self._live() for v in self._adj[u]
                      if u < v)

    def n_edges(self) -> int:
        return len(self.edges())

    def add_edge(self, u: int, v: int):
        self._check_live(u)
        self._check_live(v)
        if u == v:
            raise PolylatError("loops are not allowed")
        self._adj[u].add(v)
        self._adj[v].add(u)

    def contract_edge(self, u: int, v: int):
        """Merge v into u along the edge {u, v}; v is marked deleted.

        Duplicate edges and the would-be loop are dropped.
        """
        self._check_live(u)
        self._check_live(v)
        if u == v or v not in self._adj[u]:
            raise PolylatError(f"no edge {{{u}, {v}}} to contract")
        for w in self._adj[v]:
            self._adj[w].discard(v)
            if w != u:
                self._adj[w].add(u)
                self._adj[u].add(w)
        self._adj[v] = set()
        self._deleted.add(v)

    def squeeze(self):
        """Drop deleted nodes and renumber survivors, keeping their order."""
        if not self._deleted:
            return
        live = self._live()
        renum = {old: new for new, old in enumerate(live)}
        self._adj = [{renum[w] for w in self._adj[old]} for old in live]
        self._deleted = set()

    def copy(self) -> "Graph":
        g = Graph(len(self._adj))
        g._adj = [set(s) for s in self._adj]
        g._deleted = set(self._deleted)
        return g

    def adjacency(self) -> tuple[frozenset[int], ...]:
        """Adjacency rows of a squeezed graph."""
        if self._deleted:
            raise PolylatError("graph has deleted nodes; squeeze() first")
        return tuple(frozenset(s) for s in self._adj)

    def _live(self) -> list[int]:
        return [u for u in range(len(self._adj)) if u not in self._deleted]

    def _check_live(self, u: int):
        if not 0 <= u < len(self._adj):
            raise PolylatError(f"node {u} out of range")
        if u in self._deleted:
            raise PolylatError(f"node {u} is deleted")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self._adj == other._adj
                and self._deleted == other._deleted)

    def __repr__(self) -> str:
        return (f"Graph(n={self.n_nodes}, edges={self.n_edges()}"
                + (f", deleted={len(self._deleted)}" if self._deleted else "")
                + ")")

    def __str__(self) -> str:
        lines = []
        for u in range(len(self._adj)):
            if u in self._deleted:
                lines.append("(deleted)")
            else:
                lines.append("{" + " ".join(str(v) for v in sorted(self._adj[u]))
                             + "}")
        return "\n".join(lines)


def _refine(adj1, adj2, c1, c2):
    """Synchronized color refinement on both graphs.

    Identical (color, sorted neighbor-color multiset) signatures get the
    same fresh id in both graphs, so histograms stay directly comparable.
    """
    n = len(adj1)
    while True:
        table: dict[tuple, int] = {}
        new1 = [0] * n
        new2 = [0] * n
        for colors, adj, new in ((c1, adj1, new1), (c2, adj2, new2)):
            for u in range(n):
                sig = (colors[u],
                       tuple(sorted(Counter(colors[v] for v in adj[u]).items())))
                new[u] = table.setdefault(sig, len(table))
        if new1 == c1 and new2 == c2:
            return c1, c2
        c1, c2 = new1, new2


def _mapping_if_discrete(adj1, adj2, c1, c2):
    if Counter(c1) != Counter(c2):
        return None
    pos2 = {}
    for u, c in enumerate(c2):
        if c in pos2:
            return None  # non-singleton class
        pos2[c] = u
    mapping = [pos2.get(c, -1) for c in c1]
    if -1 in mapping:
        return None
    for u in range(len(adj1)):
        if {mapping[v] for v in adj1[u]} != adj2[mapping[u]]:
            return None
    return mapping


def isomorphism(g1: Graph, g2: Graph, budget: int = 200_000) -> list[int] | None:
    """An explicit isomorphism g1 -> g2, or None if there is none.

    Color refinement first, then individualization/backtracking on the
    refined partition.  ``budget`` caps the number of search nodes; running
    out raises instead of guessing.
    """
    if not (g1.is_squeezed() and g2.is_squeezed()):
        raise PolylatError("isomorphic() needs squeezed graphs")
    n = g1.n_nodes
    if n != g2.n_nodes or g1.n_edges() != g2.n_edges():
        return None
    if n == 0:
        return []
    if g1.degree_multiset() != g2.degree_multiset():
        return None
    adj1 = [set(s) for s in g1.adjacency()]
    adj2 = [set(s) for s in g2.adjacency()]

    spent = [0]

    def search(c1, c2):
        spent[0] += 1
        if spent[0] > budget:
            raise BudgetExceededError(
                f"isomorphism search exceeded {budget} nodes")
        c1, c2 = _refine(adj1, adj2, list(c1), list(c2))
        if Counter(c1) != Counter(c2):
            return None
        mapping = _mapping_if_discrete(adj1, adj2, c1, c2)
        if mapping is not None:
            return mapping
        # branch on a smallest non-singleton color class
        counts = Counter(c1)
        color = min((c for c, k in counts.items() if k > 1),
                    key=lambda c: (counts[c], c))
        u = next(i for i in range(n) if c1[i] == color)
        fresh = max(max(c1), max(c2)) + 1
        for v in range(n):
            if c2[v] != color:
                continue
            b1 = list(c1)
            b2 = list(c2)
            b1[u] = fresh
            b2[v] = fresh
            found = search(b1, b2)
            if found is not None:
                return found
        return None

    init1 = [0] * n
    init2 = [0] * n
    return search(init1, init2)


def isomorphic(g1: Graph, g2: Graph, budget: int = 200_000) -> bool:
    """True iff an adjacency-preserving bijection between the graphs exists."""
    return isomorphism(g1, g2, budget=budget) is not None
