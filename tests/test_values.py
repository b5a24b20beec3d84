"""The value contract of the package's result and input classes.

Each is an immutable tuple-backed value: pickle and copy give back an equal value of
the same class, a field cannot be assigned, it equals neither a bare tuple nor a value
of another class holding the same fields, and its repr names the class and its fields.
"""
import copy
import pickle
import re
from collections import namedtuple
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from gotzmann.complexes import ideal_of_complex
from gotzmann.fileformats import InputFormatError, parse_ideal
from gotzmann.graphs import edge_ideal
from gotzmann.monomials import lex_segment_ideal
from oracles import all_monomials

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


def assert_fully_checked(n, degree, generators):
    """Builders that make valid values by construction skip the checks of __new__ through
    _make; the full constructors must accept the fields of what they build, rebuilding it equal."""
    rebuilt = MonomialIdeal(n, degree, frozenset(Monomial(g.exponents) for g in generators))
    assert rebuilt.generators == generators and all(type(g.exponents) is tuple for g in generators)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_made_values_pass_the_full_constructors(data):
    n = data.draw(st.integers(1, 4))
    # an ideal file: one degree or several, repeated generators, a declared degree or none
    degrees = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True))
    pool = [e for d in degrees for e in all_monomials(n, d)]
    exponents = data.draw(st.lists(st.sampled_from(pool), max_size=8))
    declared = data.draw(st.sampled_from([None, 1, 2, 3]))
    lines = [f"{n}" if declared is None else f"{n} {declared}"]
    lines += [" ".join(f"{i}:{e}" for i, e in enumerate(g, 1) if e) for g in exponents]
    try:
        expected = MonomialIdeal.from_generators(n, map(Monomial, exponents), degree=declared)
    except ValueError as exc:  # the same message, but for the zero ideal's, which names line 1
        with pytest.raises(InputFormatError, match=re.escape(str(exc)) if exponents else "line 1: zero ideal"):
            parse_ideal("\n".join(lines) + "\n")
    else:
        parsed = parse_ideal("\n".join(lines) + "\n")
        assert parsed == expected
        assert_fully_checked(*parsed)
    pairs = data.draw(st.lists(st.sampled_from(list(combinations(range(1, n + 2), 2))), max_size=6))
    assert_fully_checked(*edge_ideal(Graph.from_edge_list(n + 1, pairs)))
    d = degrees[0]
    assert_fully_checked(*lex_segment_ideal(n, d, data.draw(st.integers(0, len(all_monomials(n, d))))))
    faces = data.draw(st.lists(st.sets(st.integers(1, n)), max_size=4))
    assert_fully_checked(n, None, ideal_of_complex(SimplicialComplex.from_faces(n, faces)))
