"""Independent brute-force oracles used to freeze expected values.

Nothing here shares code with the package under test: monomials are built
from itertools, divisibility and face checks are spelled out from scratch.
"""
from __future__ import annotations

from itertools import combinations, combinations_with_replacement


def all_monomials(n: int, k: int) -> list[tuple[int, ...]]:
    """Degree-k exponent vectors in n variables via multiset enumeration."""
    out = []
    for combo in combinations_with_replacement(range(n), k):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def count_in_ideal(gens: list[tuple[int, ...]], n: int, k: int) -> int:
    """Degree-k monomials divisible by at least one generator.

    This is the all-monomials reference for H(I, k): it scans every degree-k
    monomial of the ring and tests it against every generator, while the
    package builds I_k from the generators' multiples instead.
    """
    return sum(
        1 for m in all_monomials(n, k) if any(divides(g, m) for g in gens)
    )


def pascal_triangle(rows: int) -> list[list[int]]:
    tri = [[1]]
    for _ in range(rows - 1):
        prev = tri[-1]
        tri.append(
            [1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1]
        )
    return tri


def independent_sets_of_size(n: int, edges: set[frozenset[int]], size: int) -> int:
    """Vertex sets of the given size containing no edge."""
    count = 0
    for combo in combinations(range(1, n + 1), size):
        if not any(e <= set(combo) for e in edges):
            count += 1
    return count


def stanley_reisner_faces(n: int, supports: list[set[int]]) -> set[frozenset[int]]:
    """Subsets of 1..n, of every size, containing no support: each tested
    against every support, with no growth from smaller faces."""
    return {
        frozenset(combo)
        for size in range(n + 1)
        for combo in combinations(range(1, n + 1), size)
        if not any(sup <= set(combo) for sup in supports)
    }


def vertex_mask(vertices) -> int:
    """The int with bit v - 1 set for each vertex v of the set."""
    return sum(1 << (v - 1) for v in set(vertices))


def colex_first(universe: int, size: int, count: int) -> list[tuple[int, ...]]:
    """The first ``count`` size-subsets of 1..universe in colexicographic
    order: all of them, sorted by their reversed tuples."""
    return sorted(
        combinations(range(1, universe + 1), size), key=lambda s: s[::-1]
    )[:count]


def minimal_under(items, le) -> set:
    """Distinct items x such that no other item y has le(y, x), by all pairs."""
    distinct = set(items)
    return {
        x for x in distinct
        if not any(y != x and le(y, x) for y in distinct)
    }
