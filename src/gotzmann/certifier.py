"""The Gotzmann certifier and the exhaustive star-graph theorem verifier.

The certifier reads H(P/I, d+1) and f_d from one enumeration of I_{d+1}.  The
verifier runs through every edge mask, ORing the cached bitsets of degree-3
multiples of its low and high edge halves, so H(I, 3) is a popcount.  Closed
forms are cross-checks.
"""
from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from functools import lru_cache

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
    """Aggregated result of the exhaustive labeled-graph verification."""

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


def _check_mask_range(args: tuple[int, int, int]) -> tuple[int, int, int, tuple[int, int, str] | None]:
    """Worker: check the edge masks [start, stop) on n vertices in increasing
    order, each from one entry of the subset tables of the low and the high
    half of the edges.  Returns (checked, stars, gotzmann, first failure as
    (n, mask, reason))."""
    n, start, stop = args
    edges, squarefree = _edge_tables(n)
    if not 0 <= start <= stop <= 1 << len(edges):
        raise ValueError("edge mask out of range")
    half = len(edges) // 2
    low, high = _subset_table(edges[:half]), _subset_table(edges[half:])
    low_bits = (1 << half) - 1
    ring3, faces3 = binomial(n + 2, 3), binomial(n, 3)
    stars = gotzmann = 0
    failure = None
    bounds: dict[int, tuple[int, int]] = {}  # per edge count: Macaulay and KK bounds
    for mask in range(start, stop):
        low_multiples, low_common = low[mask & low_bits]
        high_multiples, high_common = high[mask >> half]
        multiples, common = low_multiples | high_multiples, low_common & high_common
        e, h3 = mask.bit_count(), ring3 - multiples.bit_count()
        macaulay, kk = bounds.get(e) or bounds.setdefault(e, (
            macaulay_pseudopower(binomial(n + 1, 2) - e, 2),
            kruskal_katona_pseudopower(binomial(n, 2) - e, 2)))
        if h3 > macaulay:
            raise ArithmeticError(f"H(P/I,3) = {h3} > Macaulay bound {macaulay} (n={n}, mask {mask})")
        # The AND of no vertex masks is every vertex, so e <= 1 is a star.
        star, gotz = common != 0, h3 == macaulay
        if star or gotz:
            stars += star
            gotzmann += gotz
            f2 = faces3 - (multiples & squarefree).bit_count()
            if failure is None and (gotz != star or gotz and (e >= n or f2 != kk)):
                failure = (n, mask, f"is_gotzmann={gotz}, is_star={star}, e={e}, "
                                    f"f_2={f2} against the Kruskal-Katona bound {kk}")
    return stop - start, stars, gotzmann, failure


def verify_star_theorem(max_vertices: int, workers: int = 1) -> StarTheoremSummary:
    """Exhaustively verify, over every labeled graph on 1..max_vertices
    vertices, that the edge ideal is Gotzmann exactly for star graphs.

    Also checks on every Gotzmann instance that e < n and that f_d =
    f_{d-1}^(d) (Kruskal-Katona).  A violation raises StarTheoremMismatch
    carrying the graph, so a normal return reports zero mismatches; a star
    count on n vertices other than 1 + C(n, 2) + n(2^(n-1) - n) raises
    ArithmeticError.  max_vertices > 8 (2^36 graphs, about 8 hours on one core) and
    workers > CPU count raise ValueError.
    """
    if not 1 <= max_vertices <= 8:
        raise ValueError("max_vertices must be in 1..8")
    cpus = os.cpu_count() or 1
    if not 1 <= workers <= cpus:
        raise ValueError(f"workers must be in 1..{cpus} (the CPU count)")
    start_time = time.perf_counter()

    jobs = []
    for n in range(1, max_vertices + 1):
        total = 1 << len(edge_pairs(n))
        jobs.extend((n, total * i // workers, total * (i + 1) // workers) for i in range(workers))

    if workers == 1:
        results = list(map(_check_mask_range, jobs))
    else:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_check_mask_range, jobs, chunksize=1)

    failure = next(filter(None, (r[3] for r in results)), None)
    if failure is not None:
        n, mask, reason = failure
        g = Graph.from_edge_mask(n, mask)
        raise StarTheoremMismatch(f"counterexample on {n} vertices (edge mask {mask}): "
                                  f"{reason}\n{format_graph(g)}", g)
    for n in range(1, max_vertices + 1):
        stars = sum(r[1] for job, r in zip(jobs, results) if job[0] == n)
        if stars != 1 + binomial(n, 2) + n * (2 ** (n - 1) - n):
            raise ArithmeticError(f"{stars} labeled stars found on {n} vertices")

    return StarTheoremSummary(
        max_vertices=max_vertices,
        graphs_checked=sum(r[0] for r in results),
        stars_found=sum(r[1] for r in results),
        gotzmann_found=sum(r[2] for r in results),
        mismatches=0,
        wall_time_seconds=time.perf_counter() - start_time,
    )
