"""Fixtures shared by the test modules."""
import pytest

from gotzmann import certifier
from gotzmann.graphs import Graph, edge_ideal


@pytest.fixture
def uncached_tables(monkeypatch):
    """_tables built afresh on every call for one test.  It is the verifier's one snapshot of
    the edge tables, cached by n, free and the pseudo-powers, so a test that patches
    _edge_tables would otherwise read the snapshot of the true ones, or leave its own behind."""
    monkeypatch.setattr(certifier, "_tables", certifier._tables.__wrapped__)


@pytest.fixture
def shared_cubic_multiple(monkeypatch, uncached_tables):
    """The verifier's degree_part listing x1^2*x3, a multiple of edge 13 alone, in place of
    x1^2*x2 among the degree-3 multiples of edge 12 on four vertices: the part keeps its n
    members, 2 of them not square-free, but shares one of those with edge 13."""
    true_part, edge_12 = certifier.degree_part, edge_ideal(Graph.from_edge_list(4, [(1, 2)]))
    x1_x1_x2, x1_x1_x3 = 2 + (1 << 2), 2 + (1 << 4)  # exponent of x_{i+1} at bit 2i, as packed for degree 3

    def degree_part(ideal, k):
        part = true_part(ideal, k)
        return part - {x1_x1_x2} | {x1_x1_x3} if (ideal, k) == (edge_12, 3) else part

    monkeypatch.setattr(certifier, "degree_part", degree_part)
