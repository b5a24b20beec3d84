"""Tests for the plain-text ideal, graph and complex file formats."""
import sys
import time

import pytest

from gotzmann import monomials
from gotzmann.complexes import MAX_COMPLEX_FACES, stanley_reisner_complex
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

    def test_mixed_degree_header_has_no_degree(self):
        ideal = MonomialIdeal.from_generators(4, [Monomial((1, 1, 1, 0)), Monomial((1, 0, 0, 1))])
        assert format_ideal(ideal) == "4\n1:1 2:1 3:1\n1:1 4:1\n"
        assert parse_ideal(format_ideal(ideal)) == ideal

    def test_errors_name_the_line(self):
        with pytest.raises(InputFormatError, match="line 2"):
            parse_ideal("3\n1:x\n")
        with pytest.raises(InputFormatError, match="line 2"):
            parse_ideal("3\n4:1\n")
        with pytest.raises(InputFormatError, match="line 1"):
            parse_ideal("zero\n1:1\n")
        with pytest.raises(InputFormatError, match="line 2: exponent must be positive in '1:0'"):
            parse_ideal("3\n1:0\n")
        with pytest.raises(InputFormatError, match="line 1: variable count must be in 1.."):
            parse_ideal(f"{sys.maxsize + 1}\n1:1\n")

    def test_header_with_extra_fields_names_the_line(self):
        with pytest.raises(InputFormatError, match="line 2"):
            parse_ideal("# comment\n3 2 1\n1:2\n")
        with pytest.raises(InputFormatError, match="line 1: generation degree"):
            parse_ideal("3 0\n")

    def test_exponent_cap_before_dense_vectors(self, monkeypatch):
        # with the cap lowered to 4: 16 * 4 = 64 exponents admit one generator over
        # 64 variables or two over 32, and no more
        monkeypatch.setattr(monomials, "MAX_DEGREE_MONOMIALS", 4)
        assert len(parse_ideal("64\n1:1\n").generators) == 1
        assert len(parse_ideal("32\n1:1\n2:1\n").generators) == 2
        for text in ("65\n1:1\n", "33\n1:1\n2:1\n"):
            with pytest.raises(ValueError, match="more than 64 exponents in all"):
                parse_ideal(text)


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
        with pytest.raises(InputFormatError, match="line 1: vertex count must be in 1.."):
            parse_graph(f"{sys.maxsize + 1}\n1 2\n")
        with pytest.raises(InputFormatError, match="line 2: vertices must be integers"):
            parse_graph("3\n1 x\n")

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

    def test_complex_of_the_empty_face_refused(self):
        # the Stanley-Reisner complex of (x1, x2, x3) is {∅}: its one facet is empty
        variables = [Monomial.squarefree(3, [v]) for v in (1, 2, 3)]
        c = stanley_reisner_complex(MonomialIdeal.from_generators(3, variables))
        assert c.faces == {0}
        with pytest.raises(ValueError, match="empty facet"):
            format_complex(c)

    def test_errors(self):
        with pytest.raises(InputFormatError, match="line 2"):
            parse_complex("3\n1 5\n")
        with pytest.raises(InputFormatError, match="line 2"):
            parse_complex("3\n1 1\n")
        with pytest.raises(InputFormatError, match="line 1"):
            parse_complex("3\n")
        with pytest.raises(InputFormatError, match="line 1: ground size must be in 1.."):
            parse_complex(f"{sys.maxsize + 1}\n1 2\n")
        with pytest.raises(InputFormatError, match="line 3: vertices must be integers"):
            parse_complex("3\n1 2\n2 y\n")

    def test_header_with_extra_fields_names_the_line(self):
        with pytest.raises(InputFormatError, match="line 1"):
            parse_complex("3 1 2\n1 2\n")

    def test_huge_ground_set_round_trips_at_once(self):
        # facets are found among the vertices of the faces, not all 10^6 of the ground set
        started = time.perf_counter()
        text = "1000000\n1 1000000\n3\n"
        assert format_complex(parse_complex(text)) == text
        assert time.perf_counter() - started < 0.5

    def test_oversized_facet_refused_before_faces_are_built(self):
        assert 1 << 18 > MAX_COMPLEX_FACES
        started = time.perf_counter()
        with pytest.raises(InputFormatError, match="faces"):
            parse_complex("18\n" + " ".join(map(str, range(1, 19))) + "\n")
        assert time.perf_counter() - started < 0.5

    def test_face_bound_sums_over_facets(self):
        # 6 disjoint facets of 14 vertices each: no facet alone passes the cap, their closure does
        facets = [range(v, v + 14) for v in range(1, 85, 14)]
        assert 1 << 14 <= MAX_COMPLEX_FACES < 6 * ((1 << 14) - 1)
        with pytest.raises(InputFormatError, match="faces"):
            parse_complex("84\n" + "".join(" ".join(map(str, f)) + "\n" for f in facets))
        # 17 overlapping facets of 12 vertices: 17 * 2^12 subsets face by face, 36,864 faces
        facets = [range(v, v + 12) for v in range(1, 18)]
        complex_ = parse_complex("28\n" + "".join(" ".join(map(str, f)) + "\n" for f in facets))
        assert len(complex_.faces) == 36864
