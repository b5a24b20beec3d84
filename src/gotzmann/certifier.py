"""The Gotzmann certifier and the exhaustive star-graph theorem verifier.

The certifier reads H(P/I, d+1) and f_d from one enumeration of I_{d+1}.  The verifier
checks one graph per orbit of relabelings fixing vertices 1 and 2, weighted by orbit size;
cached bitsets of degree-3 multiples make H(I, 3) a popcount.  Closed forms cross-check.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .combinatorics import binomial, kruskal_katona_pseudopower, macaulay_pseudopower
from .fileformats import format_graph
from .graphs import Graph, edge_ideal, edge_pairs
from .monomials import MonomialIdeal, degree_part, hilbert_ring, packed_monomials, packing


@dataclass(frozen=True, kw_only=True)
class GotzmannReport:
    """Certifier output: the two Hilbert values and the Macaulay bound.

    ``square_free_check`` holds f_d == f_{d-1}^(d) for square-free ideals and
    None otherwise; it is an implication witness (Gotzmann implies true), not
    an equivalence.
    """

    degree_d: int
    h_quotient_d: int
    h_quotient_d1: int
    macaulay_bound: int
    square_free_check: bool | None = None

    def __post_init__(self) -> None:
        if self.h_quotient_d1 > self.macaulay_bound:
            raise AssertionError(
                "Macaulay bound violated: arithmetic bug in the enumeration"
            )

    @property
    def is_gotzmann(self) -> bool:
        """The verdict: H(P/I, d+1) meets the Macaulay bound."""
        return self.h_quotient_d1 == self.macaulay_bound


def certify(ideal: MonomialIdeal) -> GotzmannReport:
    """Decide whether an equigenerated ideal is Gotzmann.

    An ideal generated in degree d is Gotzmann exactly when H(P/I, d+1)
    meets the Macaulay pseudo-power bound H(P/I, d)^<d>.  The zero ideal is
    accepted and always certifies Gotzmann.  I_d is the generators; for a
    square-free ideal, the d- and (d+1)-sets that are not faces are the
    generators and the square-free part of I_{d+1}.
    """
    if not ideal.is_equigenerated:
        raise ValueError("Gotzmann certification needs an equigenerated ideal")
    n, d = ideal.ambient_vars, ideal.generation_degree
    top = degree_part(ideal, d + 1)
    h_d = hilbert_ring(n, d) - len(ideal.generators)
    h_d1 = hilbert_ring(n, d + 1) - len(top)
    bound = macaulay_pseudopower(h_d, d)
    square_free_check = None
    if ideal.is_squarefree:
        f_prev = binomial(n, d) - len(ideal.generators)
        _, high = packing(n, d + 1)
        f_top = binomial(n, d + 1) - sum(1 for m in top if not m & high)
        square_free_check = f_top == kruskal_katona_pseudopower(f_prev, d)
    return GotzmannReport(
        degree_d=d,
        h_quotient_d=h_d,
        h_quotient_d1=h_d1,
        macaulay_bound=bound,
        square_free_check=square_free_check,
    )


def gotzmann_value_deg2(n: int, m: int) -> int:
    """H(I, 3) of a Gotzmann ideal generated in degree two with H(I, 2) = m <= n.

    Equals mn + m/2 - m^2/2, always an integer since m(2n + 1 - m) is even.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    if not 0 <= m <= n:
        raise ValueError(f"closed form requires 0 <= m <= n, got m={m}, n={n}")
    numerator = m * (2 * n + 1 - m)
    if numerator % 2 != 0:
        raise ArithmeticError(f"m(2n + 1 - m) = {numerator} is odd")
    return numerator // 2


def check_edge_bound(g: Graph) -> bool:
    """Necessary condition for a Gotzmann edge ideal: fewer edges than vertices."""
    return g.edge_count < g.vertex_count


class StarTheoremMismatch(AssertionError):
    """A graph violated the star characterization; carries the counterexample."""

    def __init__(self, message: str, graph: Graph):
        super().__init__(message)
        self.graph = graph


@dataclass(frozen=True)
class StarTheoremSummary:
    """Aggregated result of the exhaustive labeled-graph verification.  ``mismatches``
    is always 0, since every failure raises StarTheoremMismatch instead of being
    counted; it stays because ``--machine`` output and bench/ read it."""

    max_vertices: int
    graphs_checked: int
    stars_found: int
    gotzmann_found: int
    mismatches: int
    wall_time_seconds: float


@lru_cache(maxsize=None)
def _edge_tables(n: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """Per edge of edge_pairs(n), the degree-3 part of its own edge ideal as a
    bitset over degree_monomials(n, 3) and its vertex mask; and the bitset of
    the square-free cubics, which are the 3-subsets."""
    w, high = packing(n, 3)
    bits = {m: 1 << i for i, m in enumerate(packed_monomials(n, 3, w))}
    edges = tuple((sum(bits[m] for m in degree_part(edge_ideal(Graph.from_edge_list(n, [p])), 3)),
                   sum(1 << v for v in p)) for p in edge_pairs(n))
    return edges, sum(bit for m, bit in bits.items() if not m & high)


@lru_cache(maxsize=None)
def _subset_table(edges: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """Per subset of the (multiples, vertex mask) edges, indexed by its mask
    over them: the OR of their multiples and the AND of their vertex masks.
    Keyed by the edges themselves, so it follows whatever _edge_tables holds."""
    table = [(0, -1)]
    for multiples, vertices in edges:
        table += [(m | multiples, v & vertices) for m, v in table]
    return tuple(table)


@lru_cache(maxsize=None)
def _bounds(n: int, macaulay: Callable, kk: Callable) -> tuple[tuple[int, int], ...]:
    """Per edge count e on n vertices, the Macaulay bound on H(P/I, 3) and the
    Kruskal-Katona bound on f_2; keyed by the pseudo-powers too, so a patched one counts."""
    return tuple((macaulay(binomial(n + 1, 2) - e, 2), kk(binomial(n, 2) - e, 2))
                 for e in range(binomial(n, 2) + 1))


@lru_cache(maxsize=None)
def _representatives(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(free, ((fixed, weight), ...)): one edge mask per orbit of the relabelings fixing
    vertex 1, then vertex 2, with the orbit size.  N(1) becomes {2..k+1}, in C(n-1, k) ways;
    with j = max(k, 1), N(2) within 3..n becomes {3..a+2} u {j+2..j+b+1}, in C(j-1, a)
    C(n-1-j, b) ways.  The C(n-2, 2) edges among 3..n, last in edge_pairs(n), stay free."""
    if n == 1:
        return 0, ((0, 1),)
    bit = {p: 1 << i for i, p in enumerate(edge_pairs(n))}
    return binomial(n - 2, 2), tuple(
        (sum(bit[1, v] for v in range(2, k + 2))
         | sum(bit[2, v] for v in (*range(3, a + 3), *range(j + 2, j + b + 2))),
         binomial(n - 1, k) * binomial(j - 1, a) * binomial(n - 1 - j, b))
        for k in range(n) for j in [max(k, 1)] for a in range(j) for b in range(n - j))


def _check_block(n: int, fixed: int, free: int) -> tuple[int, int, int]:
    """(checked, stars, gotzmann) over the 2^free masks fixed | f << (C(n, 2) - free), the free
    edges being the last of edge_pairs(n): fixed edges fold into one OR and AND, each mask
    is one entry per half-table of the free edges; a failure raises StarTheoremMismatch."""
    edges, squarefree = _edge_tables(n)
    shift = len(edges) - free
    if not 0 <= shift <= len(edges) or fixed < 0 or fixed >> shift:
        raise ValueError("edge mask out of range")
    fixed_multiples, fixed_common = 0, -1
    for multiples, vertices in (edge for i, edge in enumerate(edges[:shift]) if fixed >> i & 1):
        fixed_multiples, fixed_common = fixed_multiples | multiples, fixed_common & vertices
    half = shift + free // 2
    low = [(m, v, lo.bit_count(), lo) for lo, (m, v) in enumerate(_subset_table(edges[shift:half]))]
    bounds = _bounds(n, macaulay_pseudopower, kruskal_katona_pseudopower)[fixed.bit_count():]
    ring3, stars, gotzmann = binomial(n + 2, 3), 0, 0
    for hi, (high_multiples, high_common) in enumerate(_subset_table(edges[half:])):
        high_multiples, high_common = high_multiples | fixed_multiples, high_common & fixed_common
        row_bounds = bounds[hi.bit_count():]
        for low_multiples, low_common, low_e, lo in low:
            multiples, common = low_multiples | high_multiples, low_common & high_common
            h3 = ring3 - multiples.bit_count()
            macaulay, kk = row_bounds[low_e]
            # Only a star (e <= 1 included: the AND of none is -1) or h3 at the bound goes on.
            if common or h3 >= macaulay:
                mask = fixed | lo << shift | hi << half
                if h3 > macaulay:
                    raise ArithmeticError(f"H(P/I,3) = {h3} > Macaulay bound {macaulay} (n={n}, mask {mask})")
                star, gotz, e = common != 0, h3 == macaulay, mask.bit_count()
                stars, gotzmann = stars + star, gotzmann + gotz
                f2 = binomial(n, 3) - (multiples & squarefree).bit_count()
                if gotz != star or gotz and (e >= n or f2 != kk):
                    g = Graph.from_edge_mask(n, mask)
                    raise StarTheoremMismatch(f"counterexample on {n} vertices (edge mask {mask}): "
                                              f"is_gotzmann={gotz}, is_star={star}, e={e}, f_2={f2} against "
                                              f"the Kruskal-Katona bound {kk}\n{format_graph(g)}", g)
    return 1 << free, stars, gotzmann


def verify_star_theorem(max_vertices: int, workers: int = 1) -> StarTheoremSummary:
    """Exhaustively verify, over every labeled graph on 1..max_vertices
    vertices, that the edge ideal is Gotzmann exactly for star graphs.

    Relabeling vertices changes neither the Hilbert function nor star-ness, so each n
    checks the blocks of _representatives(n), weighted by orbit size: every count is
    labeled.  A Gotzmann instance also needs e < n and f_d = f_{d-1}^(d) (Kruskal-Katona),
    or StarTheoremMismatch carries the graph.  Weights not summing to 2^C(n, 2), or other
    than 1 + C(n, 2) + n(2^(n-1) - n) stars on n vertices, raise ArithmeticError.
    max_vertices outside 1..9, and workers != 1 (kept for callers passing 1), raise ValueError.
    """
    if not 1 <= max_vertices <= 9 or workers != 1:
        raise ValueError(f"max_vertices must be in 1..9 and workers 1, not {max_vertices} and {workers}")
    start_time = time.perf_counter()
    totals = [0, 0, 0]  # labeled graphs, stars, Gotzmann
    for n in range(1, max_vertices + 1):
        free, representatives = _representatives(n)
        counts = [0, 0, 0]
        for fixed, weight in representatives:
            counts = [c + weight * b for c, b in zip(counts, _check_block(n, fixed, free))]
        if counts[0] != 1 << binomial(n, 2):
            raise ArithmeticError(f"orbit weights cover {counts[0]} graphs on {n} vertices, not 2^C(n, 2)")
        if counts[1] != 1 + binomial(n, 2) + n * (2 ** (n - 1) - n):
            raise ArithmeticError(f"{counts[1]} labeled stars found on {n} vertices")
        totals = [t + c for t, c in zip(totals, counts)]
    return StarTheoremSummary(max_vertices, *totals, 0, time.perf_counter() - start_time)
