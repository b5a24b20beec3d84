"""The value contract of the package's result and input classes.

Each is an immutable tuple-backed value: pickle and copy give back an equal value of
the same class, a field cannot be assigned, it equals neither a bare tuple nor a value
of another class holding the same fields, and its repr names the class and its fields.
"""
import copy
import pickle
from collections import namedtuple

import pytest

from gotzmann import (
    FVector,
    GotzmannReport,
    Graph,
    MacaulayRep,
    Monomial,
    MonomialIdeal,
    SimplicialComplex,
    StarTheoremSummary,
    VertexCountRecord,
)
from gotzmann.combinatorics import _Value

RECORD = VertexCountRecord(2, 2, 2, 2, 1, 0.25)
RECORD_REPR = "VertexCountRecord(n=2, graphs=2, stars=2, gotzmann=2, representatives=1, seconds=0.25)"
VALUES = [
    (MacaulayRep((3, 1)), "MacaulayRep(coefficients=(3, 1))"),
    (Monomial((1, 0)), "Monomial(exponents=(1, 0))"),
    (MonomialIdeal(2, 1, frozenset({Monomial((1, 0))})),
     "MonomialIdeal(ambient_vars=2, generation_degree=1, generators=frozenset({Monomial(exponents=(1, 0))}))"),
    (Graph(3, frozenset({frozenset({1, 2})})), "Graph(vertex_count=3, edges=frozenset({frozenset({1, 2})}))"),
    (SimplicialComplex(2, frozenset({0, 1, 2})), "SimplicialComplex(ground_size=2, faces=frozenset({0, 1, 2}))"),
    (FVector((2, 1)), "FVector(counts=(2, 1))"),
    (GotzmannReport(degree_d=2, h_quotient_d=23, h_quotient_d1=59, macaulay_bound=59, square_free_check=True),
     "GotzmannReport(degree_d=2, h_quotient_d=23, h_quotient_d1=59, macaulay_bound=59, square_free_check=True)"),
    (RECORD, RECORD_REPR),
    (StarTheoremSummary(2, 3, 3, 3, 0, 0.5, (RECORD,)),
     "StarTheoremSummary(max_vertices=2, graphs_checked=3, stars_found=3, gotzmann_found=3, mismatches=0, "
     f"wall_time_seconds=0.5, per_n=({RECORD_REPR},))"),
]


def fields(value) -> tuple:
    return tuple(getattr(value, name) for name in value._fields)


@pytest.mark.parametrize("value, text", VALUES, ids=[type(value).__name__ for value, _ in VALUES])
def test_value_contract(value, text):
    copies = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies + [copy.copy(value), copy.deepcopy(value)]:
        assert type(other) is type(value) and other == value and not other != value
        assert fields(other) == fields(value) and hash(other) == hash(value)
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    name = type(value).__name__
    base = namedtuple(name, value._fields)
    twin = type(name, (_Value, base), {})(*fields(value))  # another value class: same name, fields, values
    for other in (fields(value), twin):
        assert value != other and other != value
        assert not (value == other or other == value)
    # a plain namedtuple's own tuple comparison answers first when it is the left operand
    assert value != base(*fields(value)) and not value == base(*fields(value))
    assert repr(value) == text


@pytest.mark.parametrize("value", [value for value, _ in VALUES], ids=[type(value).__name__ for value, _ in VALUES])
def test_value_shape(value):
    # one shape for every class: a _Value namedtuple with no instance dict, iterating its fields
    assert _Value in type(value).__mro__ and tuple in type(value).__mro__
    assert not hasattr(value, "__dict__")
    assert tuple(value) == fields(value) and len(value) == len(value._fields)


def test_classes_with_equal_fields_differ():
    assert MacaulayRep((3, 1)) != FVector((3, 1)) and FVector((3, 1)) != MacaulayRep((3, 1))
    assert Monomial((1, 0)) != ((1, 0),) and MacaulayRep((1, 0)) != Monomial((1, 0))
    assert len({MacaulayRep((3, 1)), FVector((3, 1)), ((3, 1),)}) == 3
