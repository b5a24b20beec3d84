"""Tests for the plain-text ideal, graph and complex file formats."""
import pytest

from gotzmann.fileformats import (
    InputFormatError,
    format_complex,
    format_graph,
    format_ideal,
    parse_complex,
    parse_graph,
    parse_ideal,
)
from gotzmann.graphs import Graph
from gotzmann.monomials import Monomial, MonomialIdeal


class TestIdealFiles:
    def test_parse_basic(self):
        ideal = parse_ideal("4\n1:1 2:1 3:1\n1:1 4:1\n")
        assert ideal.ambient_vars == 4
        assert {g.exponents for g in ideal.generators} == {
            (1, 1, 1, 0), (1, 0, 0, 1)
        }

    def test_comments_and_blank_lines(self):
        ideal = parse_ideal("# a star\n3\n\n1:1 2:1\n# trailing\n1:1 3:1\n")
        assert len(ideal.generators) == 2

    def test_header_degree_for_zero_ideal(self):
        ideal = parse_ideal("5 2\n")
        assert ideal.is_zero and ideal.generation_degree == 2
        with pytest.raises(InputFormatError):
            parse_ideal("5\n")

    def test_round_trip(self):
        ideal = MonomialIdeal.from_generators(
            3, [Monomial((2, 0, 0)), Monomial((1, 1, 0))]
        )
        assert parse_ideal(format_ideal(ideal)) == ideal

    def test_errors_name_the_line(self):
        with pytest.raises(InputFormatError, match="line 2"):
            parse_ideal("3\n1:x\n")
        with pytest.raises(InputFormatError, match="line 2"):
            parse_ideal("3\n4:1\n")
        with pytest.raises(InputFormatError, match="line 1"):
            parse_ideal("zero\n1:1\n")

    def test_header_with_extra_fields_names_the_line(self):
        with pytest.raises(InputFormatError, match="line 2"):
            parse_ideal("# comment\n3 2 1\n1:2\n")
        with pytest.raises(InputFormatError, match="line 1: generation degree"):
            parse_ideal("3 0\n")


class TestGraphFiles:
    def test_parse_basic(self):
        g = parse_graph("7\n1 2\n1 3\n1 4\n1 5\n1 6\n")
        assert g.vertex_count == 7 and g.edge_count == 5

    def test_round_trip(self):
        g = Graph.from_edge_list(4, [(1, 2), (3, 4)])
        assert parse_graph(format_graph(g)) == g

    def test_errors(self):
        with pytest.raises(InputFormatError, match="line 2"):
            parse_graph("3\n1 1\n")
        with pytest.raises(InputFormatError, match="line 2"):
            parse_graph("3\n1 4\n")
        with pytest.raises(InputFormatError, match="line 3"):
            parse_graph("3\n1 2\n1 2 3\n")
        with pytest.raises(InputFormatError, match="line 1"):
            parse_graph("")

    def test_header_with_extra_fields_names_the_line(self):
        with pytest.raises(InputFormatError, match="line 1"):
            parse_graph("3 1 2\n")


class TestComplexFiles:
    def test_parse_basic(self):
        c = parse_complex("4\n2 3 4\n1 2\n1 3\n")
        assert c.ground_size == 4
        assert c.dimension == 2

    def test_non_maximal_lines_absorbed(self):
        c = parse_complex("3\n1 2\n1\n")
        assert c.facets == frozenset({frozenset({1, 2})})

    def test_format_is_byte_stable(self):
        c = parse_complex("4\n1 3\n2 3 4\n1 2\n1\n")
        assert format_complex(c) == "4\n1 2\n1 3\n2 3 4\n"

    def test_round_trip(self):
        c = parse_complex("4\n2 3 4\n1 2\n1 3\n")
        assert parse_complex(format_complex(c)) == c

    def test_errors(self):
        with pytest.raises(InputFormatError, match="line 2"):
            parse_complex("3\n1 5\n")
        with pytest.raises(InputFormatError, match="line 2"):
            parse_complex("3\n1 1\n")
        with pytest.raises(InputFormatError, match="line 1"):
            parse_complex("3\n")

    def test_header_with_extra_fields_names_the_line(self):
        with pytest.raises(InputFormatError, match="line 1"):
            parse_complex("3 1 2\n1 2\n")
