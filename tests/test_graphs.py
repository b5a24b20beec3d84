"""Tests for graphs, edge ideals and the dependent-set counting formulas."""
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gotzmann import monomials
from gotzmann.combinatorics import binomial
from gotzmann.complexes import f_vector, stanley_reisner_complex
from gotzmann.graphs import (
    Graph,
    count_dependent_triples,
    dependent_triples_through,
    dependent_triples_through_closed_form,
    edge_ideal,
    edge_pairs,
    hilbert_edge_ideal_deg3,
    is_star,
    non_edge_count,
)
from gotzmann.monomials import Monomial, MonomialIdeal, hilbert_ideal
from oracles import independent_sets_of_size

STAR7 = Graph.from_edge_list(7, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6)])
TRIANGLE = Graph.from_edge_list(3, [(1, 2), (1, 3), (2, 3)])
TWO_K2 = Graph.from_edge_list(4, [(1, 2), (3, 4)])


def random_graphs(max_n=8):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(0, (1 << len(edge_pairs(n))) - 1).map(
            lambda mask: Graph.from_edge_mask(n, mask)
        )
    )


class TestGraph:
    def test_rejects_loops_and_bad_vertices(self):
        with pytest.raises(ValueError):
            Graph.from_edge_list(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph.from_edge_list(3, [(1, 4)])
        with pytest.raises(ValueError, match="at least one vertex"):
            Graph(0, frozenset())

    def test_mask_round_trip(self):
        pairs = edge_pairs(4)
        g = Graph.from_edge_mask(4, 0b101)
        assert g.sorted_edges() == sorted([pairs[0], pairs[2]])
        with pytest.raises(ValueError):
            Graph.from_edge_mask(4, 1 << 6)

    def test_deleting_every_vertex_rejected(self):
        with pytest.raises(ValueError, match="cannot delete every vertex"):
            TRIANGLE.delete_vertices({1, 2, 3})

    def test_degree_and_neighbors(self):
        assert STAR7.degree(1) == 5
        assert STAR7.degree(7) == 0
        assert STAR7.neighbors(1) == frozenset({2, 3, 4, 5, 6})


class TestEdgeIdeal:
    def test_star_generators(self):
        i = edge_ideal(STAR7)
        assert i.ambient_vars == 7 and i.generation_degree == 2
        assert {g.support for g in i.generators} == {
            frozenset({1, v}) for v in (2, 3, 4, 5, 6)
        }

    def test_edgeless_gives_zero_ideal(self):
        i = edge_ideal(Graph.from_edge_list(3, []))
        assert i.is_zero and i.generation_degree == 2

    def test_equals_normalized_construction(self):
        for n in range(1, 5):
            for mask in range(1 << len(edge_pairs(n))):
                g = Graph.from_edge_mask(n, mask)
                gens = [Monomial.squarefree(n, e) for e in g.edges]
                assert edge_ideal(g) == MonomialIdeal.from_generators(n, gens, degree=2)

    def test_triangle(self):
        i = edge_ideal(TRIANGLE)
        assert {g.support for g in i.generators} == {
            frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})
        }

    def test_exponent_cap_before_dense_vectors(self, monkeypatch):
        # with the cap lowered to 4: 16 * 4 = 64 exponents admit one edge on 64 vertices
        # or two on 32, and no more
        monkeypatch.setattr(monomials, "MAX_DEGREE_MONOMIALS", 4)
        assert len(edge_ideal(Graph.from_edge_list(64, [(1, 2)])).generators) == 1
        assert len(edge_ideal(Graph.from_edge_list(32, [(1, 2), (1, 3)])).generators) == 2
        for g in (Graph.from_edge_list(65, [(1, 2)]), Graph.from_edge_list(33, [(1, 2), (1, 3)])):
            with pytest.raises(ValueError, match="more than 64 exponents in all"):
                edge_ideal(g)


class TestIsStar:
    def test_figure_star_with_isolated_vertex(self):
        assert is_star(STAR7)

    def test_triangle_is_not(self):
        assert not is_star(TRIANGLE)

    def test_two_disjoint_edges_is_not(self):
        assert not is_star(TWO_K2)

    def test_degenerate_stars(self):
        assert is_star(Graph.from_edge_list(3, []))
        assert is_star(Graph.from_edge_list(4, [(2, 3)]))

    def test_some_vertex_on_every_edge_for_every_small_graph(self):
        # all 33,867 labeled graphs on 1..6 vertices, against the literal rule: some vertex has degree e
        for n in range(1, 7):
            for mask in range(1 << binomial(n, 2)):
                g = Graph.from_edge_mask(n, mask)
                degrees = Counter(v for e in g.edges for v in e)
                assert is_star(g) == any(degrees[v] == len(g.edges) for v in range(1, n + 1)), (n, mask)

    def test_long_path_at_once(self):
        path = Graph.from_edge_list(3000, [(v, v + 1) for v in range(1, 3000)])
        started = time.perf_counter()
        assert not is_star(path)
        assert time.perf_counter() - started < 0.1


class TestDependentTriples:
    def test_triangle(self):
        assert count_dependent_triples(TRIANGLE) == 1

    def test_star(self):
        assert count_dependent_triples(STAR7) == 15

    def test_two_k2(self):
        assert count_dependent_triples(TWO_K2) == 4

    def test_through_vertex_star_center(self):
        assert dependent_triples_through(STAR7, 1) == 15
        assert dependent_triples_through_closed_form(STAR7, 1) == 15

    def test_through_isolated_vertex(self):
        # triples through x7 are dependent exactly when the other two
        # vertices form an edge
        assert dependent_triples_through(STAR7, 7) == 5
        assert dependent_triples_through_closed_form(STAR7, 7) == 5

    def test_through_vertex_outside_the_graph(self):
        with pytest.raises(ValueError, match=r"vertex 0 outside 1\.\.3"):
            dependent_triples_through(TRIANGLE, 0)

    def test_through_triangle_vertex(self):
        for v in (1, 2, 3):
            assert dependent_triples_through(TRIANGLE, v) == 1

    @given(random_graphs(max_n=7))
    @settings(max_examples=80, deadline=None)
    def test_closed_form_equals_enumeration(self, g):
        for v in range(1, g.vertex_count + 1):
            assert dependent_triples_through(g, v) == \
                dependent_triples_through_closed_form(g, v)

    @given(random_graphs(max_n=7))
    @settings(max_examples=80, deadline=None)
    def test_partition_identity(self, g):
        # t = t_v + t_H, where H deletes v
        t = count_dependent_triples(g)
        for v in range(1, g.vertex_count + 1):
            t_v = dependent_triples_through(g, v)
            if g.vertex_count == 1:
                t_h = 0
            else:
                t_h = count_dependent_triples(g.delete_vertices({v}))
            assert t == t_v + t_h


class TestNonEdgeCount:
    def test_star(self):
        assert non_edge_count(STAR7) == 16

    def test_complete_graph(self):
        k4 = Graph.from_edge_mask(4, (1 << 6) - 1)
        assert non_edge_count(k4) == 0

    def test_edgeless(self):
        assert non_edge_count(Graph.from_edge_list(5, [])) == 10

    @given(random_graphs(max_n=7))
    @settings(max_examples=50, deadline=None)
    def test_equals_f1_of_independence_complex(self, g):
        expected = independent_sets_of_size(g.vertex_count, set(g.edges), 2)
        assert non_edge_count(g) == expected


class TestDegreeThreeHilbert:
    def test_examples(self):
        assert hilbert_edge_ideal_deg3(STAR7) == 25
        assert hilbert_edge_ideal_deg3(TRIANGLE) == 7
        assert hilbert_edge_ideal_deg3(TWO_K2) == 8

    def test_exhaustive_small(self):
        for n in range(1, 5):
            for mask in range(1 << len(edge_pairs(n))):
                g = Graph.from_edge_mask(n, mask)
                assert hilbert_edge_ideal_deg3(g) == hilbert_ideal(edge_ideal(g), 3)

    @given(random_graphs(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration(self, g):
        assert hilbert_edge_ideal_deg3(g) == hilbert_ideal(edge_ideal(g), 3)


class TestIndependenceComplex:
    @given(random_graphs(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_faces_are_independent_sets(self, g):
        complex_ = stanley_reisner_complex(edge_ideal(g))
        fv = f_vector(complex_)
        for size in range(1, g.vertex_count + 1):
            expected = independent_sets_of_size(g.vertex_count, set(g.edges), size)
            assert fv.face_count(size) == expected

    def test_star_f_vector(self):
        fv = f_vector(stanley_reisner_complex(edge_ideal(STAR7)))
        assert fv.counts == (7, 16, 20, 15, 6, 1)
        assert fv.counts[1] == binomial(7, 2) - 5
        assert fv.counts[2] == binomial(7, 3) - 15
