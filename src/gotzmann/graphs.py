"""Simple graphs, edge ideals, star detection and dependent-set counts."""
from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from typing import Iterable

from .combinatorics import _Value, binomial
from .monomials import Monomial, MonomialIdeal, _cap


def edge_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The C(n, 2) possible edges in a fixed order, for the bitmask encoding."""
    return tuple(combinations(range(1, n + 1), 2))


class Graph(_Value, namedtuple("Graph", "vertex_count edges")):
    """Simple undirected graph on vertices 1..vertex_count.

    Isolated vertices matter: Hilbert functions of the edge ideal depend on
    the ambient variable count, so the vertex count is always explicit.
    """

    __slots__ = ()

    def __new__(cls, vertex_count: int, edges: frozenset[frozenset[int]]) -> Graph:
        if vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        for edge in edges:
            if len(edge) != 2:
                raise ValueError("edges must join two distinct vertices")
            for v in edge:
                if not 1 <= v <= vertex_count:
                    raise ValueError(f"vertex {v} outside 1..{vertex_count}")
        return tuple.__new__(cls, (vertex_count, edges))

    @classmethod
    def from_edge_list(cls, n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
        return cls(n, frozenset(frozenset(p) for p in pairs))

    @classmethod
    def from_edge_mask(cls, n: int, mask: int) -> Graph:
        """Decode the dense encoding: bit i selects edge_pairs(n)[i]."""
        pairs = edge_pairs(n)
        if not 0 <= mask < 1 << len(pairs):
            raise ValueError("edge mask out of range")
        return cls.from_edge_list(
            n, (p for i, p in enumerate(pairs) if mask >> i & 1)
        )

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(u for e in self.edges if v in e for u in e if u != v)

    def is_edge(self, u: int, v: int) -> bool:
        return frozenset((u, v)) in self.edges

    def delete_vertices(self, removed: Iterable[int]) -> Graph:
        """Induced subgraph on the remaining vertices, relabeled to 1..m."""
        gone = set(removed)
        keep = [v for v in range(1, self.vertex_count + 1) if v not in gone]
        if not keep:
            raise ValueError("cannot delete every vertex")
        relabel = {v: i + 1 for i, v in enumerate(keep)}
        edges = [
            (relabel[min(e)], relabel[max(e)])
            for e in self.edges
            if not e & gone
        ]
        return Graph.from_edge_list(len(keep), edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted((min(e), max(e)) for e in self.edges)


def edge_ideal(g: Graph) -> MonomialIdeal:
    """The square-free quadratic ideal with one generator x_u * x_v per edge.

    Distinct edges give distinct degree-2 generators, so they are already minimal.
    """
    n = g.vertex_count
    _cap(g.edge_count, n, "the edge ideal")  # before any dense exponent vector is built
    return MonomialIdeal._make((n, 2, frozenset(Monomial.squarefree(n, e) for e in g.edges)))


def is_star(g: Graph) -> bool:
    """True iff one vertex lies on every edge: the edges have a common vertex.

    Read literally this makes the edgeless graph a star (no edge to miss a vertex)
    and every single-edge graph a star; the theorem verifier relies on both.
    """
    return not g.edges or bool(frozenset.intersection(*g.edges))


def count_dependent_triples(g: Graph) -> int:
    """3-element vertex sets containing at least one edge, by enumeration."""
    count = 0
    for a, b, c in combinations(range(1, g.vertex_count + 1), 3):
        if g.is_edge(a, b) or g.is_edge(a, c) or g.is_edge(b, c):
            count += 1
    return count


def dependent_triples_through(g: Graph, v: int) -> int:
    """Dependent triples containing v, by direct enumeration."""
    if not 1 <= v <= g.vertex_count:
        raise ValueError(f"vertex {v} outside 1..{g.vertex_count}")
    others = [u for u in range(1, g.vertex_count + 1) if u != v]
    count = 0
    for a, b in combinations(others, 2):
        if g.is_edge(a, b) or g.is_edge(v, a) or g.is_edge(v, b):
            count += 1
    return count


def dependent_triples_through_closed_form(g: Graph, v: int) -> int:
    """Closed form C(d, 2) + d(n - d - 1) + |E(G minus N[v])| for the same count."""
    d = g.degree(v)
    n = g.vertex_count
    closed = {v} | g.neighbors(v)
    leftover_edges = sum(1 for e in g.edges if e.isdisjoint(closed))
    return binomial(d, 2) + d * (n - d - 1) + leftover_edges


def non_edge_count(g: Graph) -> int:
    """C(n, 2) - |E|; this is f_1 of the independence complex."""
    return binomial(g.vertex_count, 2) - g.edge_count


def hilbert_edge_ideal_deg3(g: Graph) -> int:
    """H(I(G), 3) = 2e + t: two x_i^2 x_j per edge plus one square-free
    monomial per dependent triple."""
    return 2 * g.edge_count + count_dependent_triples(g)
