"""Fixtures shared by the test modules."""
import pytest

from gotzmann import certifier


@pytest.fixture
def uncached_tables(monkeypatch):
    """_tables built afresh on every call for one test.  It is the verifier's one snapshot of
    the edge tables, cached by n, free and the pseudo-powers, so a test that patches
    _edge_tables would otherwise read the snapshot of the true ones, or leave its own behind."""
    monkeypatch.setattr(certifier, "_tables", certifier._tables.__wrapped__)
