"""Plain-text file formats for ideals, graphs and complexes.

All three formats share the same skeleton: the first non-comment line
declares the ambient size, every following non-empty line is one item, and
lines starting with ``#`` are comments.  Variables and vertices are
1-indexed.
"""
from __future__ import annotations

from .complexes import SimplicialComplex
from .graphs import Graph
from .monomials import Monomial, MonomialIdeal


class InputFormatError(ValueError):
    """Malformed input file; the message names the offending line."""


def _data_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((lineno, line))
    return out


def _parse_header(
    lines: list[tuple[int, str]], *names: str
) -> tuple[list[int], list[tuple[int, str]]]:
    """Header integers, one per name (trailing ones optional), and the lines after it."""
    if not lines:
        raise InputFormatError(f"line 1: missing {names[0]} header")
    lineno, line = lines[0]
    fields = line.split()
    if len(fields) > len(names):
        raise InputFormatError(
            f"line {lineno}: header takes at most {len(names)} field(s), got {line!r}"
        )
    values = []
    for name, field in zip(names, fields):
        try:
            values.append(int(field))
        except ValueError:
            raise InputFormatError(f"line {lineno}: {name} must be an integer, got {field!r}") from None
        if values[-1] < 1:
            raise InputFormatError(f"line {lineno}: {name} must be positive")
    return values, lines[1:]


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse an ideal file.

    Line 1 is the variable count n, optionally followed by the generation
    degree (needed only for the zero ideal).  Each following line is one
    generator as space-separated ``var:exp`` tokens, e.g. ``1:1 2:1`` for
    x1*x2.
    """
    lines = _data_lines(text)
    (n, *degree), rest = _parse_header(lines, "variable count", "generation degree")
    declared_degree = degree[0] if degree else None

    generators = []
    for lineno, line in rest:
        exps = [0] * n
        for token in line.split():
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
        if sum(exps) == 0:
            raise InputFormatError(f"line {lineno}: empty generator")
        generators.append(Monomial(tuple(exps)))

    if not generators and declared_degree is None:
        raise InputFormatError(
            "line 1: zero ideal needs an explicit generation degree in the header"
        )
    try:
        return MonomialIdeal.from_generators(n, generators, degree=declared_degree)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None


def format_ideal(ideal: MonomialIdeal) -> str:
    if ideal.is_equigenerated:
        header = f"{ideal.ambient_vars} {ideal.generation_degree}"
    else:
        header = str(ideal.ambient_vars)
    lines = [header]
    for g in ideal.sorted_generators():
        lines.append(
            " ".join(f"{i + 1}:{e}" for i, e in enumerate(g.exponents) if e)
        )
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    """Parse a graph file: line 1 = vertex count, each following line ``u v``."""
    lines = _data_lines(text)
    (n,), rest = _parse_header(lines, "vertex count")
    edges = []
    for lineno, line in rest:
        fields = line.split()
        if len(fields) != 2:
            raise InputFormatError(f"line {lineno}: expected two vertices, got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise InputFormatError(f"line {lineno}: vertices must be integers") from None
        if u == v:
            raise InputFormatError(f"line {lineno}: loop at vertex {u} not allowed")
        if not (1 <= u <= n and 1 <= v <= n):
            raise InputFormatError(f"line {lineno}: edge {u} {v} outside 1..{n}")
        edges.append((u, v))
    return Graph.from_edge_list(n, edges)


def format_graph(g: Graph) -> str:
    lines = [str(g.vertex_count)]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def parse_complex(text: str) -> SimplicialComplex:
    """Parse a complex file: line 1 = ground size, each following line one facet."""
    lines = _data_lines(text)
    (n,), rest = _parse_header(lines, "ground size")
    facets = []
    for lineno, line in rest:
        try:
            vertices = [int(f) for f in line.split()]
        except ValueError:
            raise InputFormatError(f"line {lineno}: vertices must be integers") from None
        for v in vertices:
            if not 1 <= v <= n:
                raise InputFormatError(f"line {lineno}: vertex {v} outside 1..{n}")
        if len(set(vertices)) != len(vertices):
            raise InputFormatError(f"line {lineno}: repeated vertex in facet")
        facets.append(vertices)
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
