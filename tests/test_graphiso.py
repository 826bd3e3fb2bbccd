import itertools
import random

import pytest

from polylat.errors import BudgetExceededError, PolylatError
from polylat.graphiso import Graph, isomorphic, isomorphism

from oracles import delete_node, n_live_nodes


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def hypercube(d):
    g = Graph(2 ** d)
    for u in range(2 ** d):
        for b in range(d):
            v = u ^ (1 << b)
            if u < v:
                g.add_edge(u, v)
    return g


def permuted(g, perm):
    h = Graph(g.n_nodes)
    for u, v in g.edges():
        h.add_edge(perm[u], perm[v])
    return h


class TestIsomorphic:
    def test_c4_vs_path4(self):
        assert not isomorphic(cycle(4), path(4))

    def test_random_relabeling(self):
        rng = random.Random(11)
        for trial in range(10):
            n = rng.randint(1, 12)
            g = Graph(n)
            for u, v in itertools.combinations(range(n), 2):
                if rng.random() < 0.4:
                    g.add_edge(u, v)
            perm = list(range(n))
            rng.shuffle(perm)
            h = permuted(g, perm)
            m = isomorphism(g, h)
            assert m is not None
            for u, v in g.edges():
                assert m[v] in h.neighbors(m[u])

    def test_reflexive_and_symmetric(self):
        rng = random.Random(5)
        graphs = [cycle(5), path(6), hypercube(3)]
        for g in graphs:
            assert isomorphic(g, g)
        for g, h in itertools.combinations(graphs, 2):
            assert isomorphic(g, h) == isomorphic(h, g)

    def test_regular_but_not_isomorphic(self):
        # C6 vs two triangles: both 2-regular on 6 nodes
        two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0),
                                  (3, 4), (4, 5), (5, 3)])
        assert not isomorphic(cycle(6), two_triangles)

    def test_different_degree_multisets_rejected_fast(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        h = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert not isomorphic(g, h)

    def test_hypercubes(self):
        rng = random.Random(2)
        q5 = hypercube(5)
        perm = list(range(32))
        rng.shuffle(perm)
        assert isomorphic(q5, permuted(q5, perm))
        assert not isomorphic(q5, cycle(32))

    def test_budget_hard_failure(self):
        with pytest.raises(BudgetExceededError):
            isomorphic(hypercube(4), hypercube(4), budget=1)

    def test_unsqueezed_rejected(self):
        g = path(3)
        g.contract_edge(0, 1)
        with pytest.raises(PolylatError):
            isomorphic(g, path(2))

    def test_empty_graphs(self):
        assert isomorphic(Graph(0), Graph(0))
        assert isomorphic(Graph(3), Graph(3))
        assert not isomorphic(Graph(3), Graph(2))


class TestContractSqueeze:
    def test_path_contract(self):
        g = path(3)  # a-b-c
        g.contract_edge(0, 1)
        assert not g.is_squeezed()
        assert n_live_nodes(g) == 2
        g.squeeze()
        assert g.adjacency() == (frozenset({1}), frozenset({0}))

    def test_triangle_contract(self):
        g = cycle(3)
        g.contract_edge(0, 1)
        g.squeeze()
        assert g.n_nodes == 2
        assert g.edges() == [(0, 1)]  # no parallel edges, no loop

    def test_contract_keeps_first_node(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        g.contract_edge(1, 2)
        assert 1 in g.neighbors(0) and 3 in g.neighbors(1)
        with pytest.raises(PolylatError):
            g.neighbors(2)

    def test_missing_edge_is_error(self):
        g = path(4)
        with pytest.raises(PolylatError):
            g.contract_edge(0, 2)

    def test_deleted_endpoint_is_error(self):
        g = cycle(4)
        g.contract_edge(0, 1)
        with pytest.raises(PolylatError):
            g.contract_edge(1, 2)

    def test_live_count_drops_by_one(self):
        rng = random.Random(31)
        g = hypercube(3)
        for _ in range(4):
            u, v = rng.choice(g.edges())
            before = n_live_nodes(g)
            g.contract_edge(u, v)
            assert n_live_nodes(g) == before - 1
            for a, b in g.edges():
                assert a != b

    def test_squeeze_identity_when_clean(self):
        g = cycle(5)
        h = g.copy()
        g.squeeze()
        assert g == h

    def test_squeeze_everything(self):
        g = path(2)
        g.contract_edge(0, 1)
        delete_node(g, 0)
        g.squeeze()
        assert g.n_nodes == 0

    def test_squeeze_preserves_relative_order(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        g.contract_edge(1, 2)  # node 2 deleted
        g.squeeze()
        # old 0,1,3,4 -> new 0,1,2,3
        assert g.adjacency() == (frozenset({1, 3}), frozenset({0, 2}),
                                 frozenset({1, 3}), frozenset({0, 2}))

    def test_copy_is_independent(self):
        g = cycle(4)
        h = g.copy()
        h.contract_edge(0, 1)
        assert n_live_nodes(g) == 4
        assert n_live_nodes(h) == 3
