"""Plain-text file formats for ideals, graphs and complexes.

All three formats share the same skeleton: the first non-comment line
declares the ambient size, every following non-empty line is one item, and
lines starting with ``#`` are comments.  Variables and vertices are
1-indexed.
"""
from __future__ import annotations

import sys
from itertools import compress

from .complexes import SimplicialComplex
from .graphs import Graph
from .monomials import Monomial, MonomialIdeal, _cap, _cap_degree


class InputFormatError(ValueError):
    """Malformed input file; the message names the offending line."""


def _read(text: str, *names: str) -> tuple[list[int], list[tuple[int, list[str]]]]:
    """The header integers, one per name (trailing ones optional), and each later data line
    as (line number, fields); blank lines and lines starting with # are skipped."""
    lines = [(lineno, fields) for lineno, raw in enumerate(text.splitlines(), start=1)
             if (fields := raw.split()) and not fields[0].startswith("#")]
    if not lines:
        raise InputFormatError(f"line 1: missing {names[0]} header")
    lineno, fields = lines[0]
    if len(fields) > len(names):
        raise InputFormatError(
            f"line {lineno}: header takes at most {len(names)} field(s), got {' '.join(fields)!r}"
        )
    values = []
    for name, field in zip(names, fields):
        try:
            values.append(int(field))
        except ValueError:
            raise InputFormatError(f"line {lineno}: {name} must be an integer, got {field!r}") from None
        if not 1 <= values[-1] <= sys.maxsize:  # a count past sys.maxsize cannot size a list
            raise InputFormatError(f"line {lineno}: {name} must be in 1..{sys.maxsize}")
    return values, lines[1:]


def _vertices(lineno: int, fields: list[str], n: int) -> list[int]:
    """A data line's fields as distinct vertices in 1..n."""
    try:
        vertices = [int(f) for f in fields]
    except ValueError:
        raise InputFormatError(f"line {lineno}: vertices must be integers") from None
    for v in vertices:
        if not 1 <= v <= n:
            raise InputFormatError(f"line {lineno}: vertex {v} outside 1..{n}")
    if len(set(vertices)) != len(vertices):
        raise InputFormatError(f"line {lineno}: repeated vertex")
    return vertices


def parse_ideal(text: str, listed: int | None = None) -> MonomialIdeal:
    """Parse an ideal file.

    Line 1 is the variable count n, optionally followed by the generation
    degree (needed only for the zero ideal).  Each following line is one
    generator as space-separated ``var:exp`` tokens, e.g. ``1:1 2:1`` for
    x1*x2.  A caller that will list the degree-``listed`` monomials for each
    generator has a nonzero ideal refused by that listing's cap first.
    """
    (n, *degree), rest = _read(text, "variable count", "generation degree")
    declared_degree = degree[0] if degree else None
    _cap(len(rest), n, "the ideal file")  # before any dense exponent vector is built
    if rest and listed is not None:  # and so is the caller's listing
        _cap_degree(n, listed)

    exponents = set()
    for lineno, fields in rest:
        exps = [0] * n
        for token in fields:
            var_s, _, exp_s = token.partition(":")
            try:
                var, exp = int(var_s), int(exp_s)
            except ValueError:
                raise InputFormatError(
                    f"line {lineno}: bad token {token!r}, expected var:exp"
                ) from None
            if not 1 <= var <= n:
                raise InputFormatError(f"line {lineno}: variable x{var} outside 1..{n}")
            if exp < 1:
                raise InputFormatError(f"line {lineno}: exponent must be positive in {token!r}")
            exps[var - 1] += exp
        exponents.add(tuple(exps))

    if not exponents and declared_degree is None:
        raise InputFormatError(
            "line 1: zero ideal needs an explicit generation degree in the header"
        )
    degrees = set(map(sum, exponents))
    if len(degrees) == 1 and declared_degree in {None, *degrees}:
        # positive exponents, n slots, one positive degree: distinct, so minimal
        return MonomialIdeal._make((n, *degrees, frozenset(Monomial._make((e,)) for e in exponents)))
    try:
        return MonomialIdeal.from_generators(n, map(Monomial, exponents), degree=declared_degree)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None


def format_ideal(ideal: MonomialIdeal) -> str:
    if ideal.is_equigenerated:
        header = f"{ideal.ambient_vars} {ideal.generation_degree}"
    else:
        header = str(ideal.ambient_vars)
    lines = [header]
    for g in ideal.sorted_generators():
        # compress drops the zero exponents before any is formatted
        lines.append(" ".join(f"{i}:{e}" for i, e in compress(enumerate(g.exponents, 1), g.exponents)))
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    """Parse a graph file: line 1 = vertex count, each following line ``u v``."""
    (n,), rest = _read(text, "vertex count")
    edges = []
    for lineno, fields in rest:
        if len(fields) != 2:
            raise InputFormatError(f"line {lineno}: expected two vertices, got {' '.join(fields)!r}")
        edges.append(_vertices(lineno, fields, n))
    return Graph.from_edge_list(n, edges)


def format_graph(g: Graph) -> str:
    lines = [str(g.vertex_count)]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def parse_complex(text: str) -> SimplicialComplex:
    """Parse a complex file: line 1 = ground size, each following line one facet."""
    (n,), rest = _read(text, "ground size")
    facets = [_vertices(lineno, fields, n) for lineno, fields in rest]
    if not facets:
        raise InputFormatError("line 1: complex file lists no facets")
    try:
        return SimplicialComplex.from_faces(n, facets)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None


def format_complex(complex_: SimplicialComplex) -> str:
    """The complex file of a complex, facets sorted.  ValueError for the complex {∅}:
    its one facet is empty, and an empty facet would be a blank line, which is skipped."""
    if complex_.faces == {0}:
        raise ValueError("the complex {∅} has an empty facet, which a complex file cannot hold")
    lines = [str(complex_.ground_size)]
    for facet in sorted(sorted(f) for f in complex_.facets):
        lines.append(" ".join(str(v) for v in facet))
    return "\n".join(lines) + "\n"
