"""The Gotzmann certifier and the exhaustive star-graph theorem verifier.

The certifier recomputes every Hilbert value from scratch via monomial
enumeration; the degree-two closed forms in this module are cross-checks,
never sources of truth.
"""
from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass

from .combinatorics import kruskal_katona_pseudopower, macaulay_pseudopower
from .complexes import squarefree_face_count
from .fileformats import format_graph
from .graphs import Graph, edge_ideal, edge_pairs, is_star
from .monomials import MonomialIdeal, hilbert_quotient


@dataclass(frozen=True)
class GotzmannReport:
    """Certifier output: the two Hilbert values, the Macaulay bound, verdict.

    ``square_free_check`` holds f_d == f_{d-1}^(d) for square-free ideals and
    None otherwise; it is an implication witness (Gotzmann implies true), not
    an equivalence.
    """

    degree_d: int
    h_quotient_d: int
    h_quotient_d1: int
    macaulay_bound: int
    is_gotzmann: bool
    square_free_check: bool | None = None

    def __post_init__(self) -> None:
        if self.h_quotient_d1 > self.macaulay_bound:
            raise AssertionError(
                "Macaulay bound violated: arithmetic bug in the enumeration"
            )
        if self.is_gotzmann != (self.h_quotient_d1 == self.macaulay_bound):
            raise AssertionError("verdict inconsistent with its own fields")


def certify(ideal: MonomialIdeal) -> GotzmannReport:
    """Decide whether an equigenerated ideal is Gotzmann.

    An ideal generated in degree d is Gotzmann exactly when H(P/I, d+1)
    meets the Macaulay pseudo-power bound H(P/I, d)^<d>.  The zero ideal is
    accepted and always certifies Gotzmann.
    """
    if not ideal.is_equigenerated:
        raise ValueError("Gotzmann certification needs an equigenerated ideal")
    d = ideal.generation_degree
    h_d = hilbert_quotient(ideal, d)
    h_d1 = hilbert_quotient(ideal, d + 1)
    bound = macaulay_pseudopower(h_d, d)
    square_free_check = None
    if ideal.is_squarefree:
        f_prev = squarefree_face_count(ideal, d)
        f_top = squarefree_face_count(ideal, d + 1)
        square_free_check = f_top == kruskal_katona_pseudopower(f_prev, d)
    return GotzmannReport(
        degree_d=d,
        h_quotient_d=h_d,
        h_quotient_d1=h_d1,
        macaulay_bound=bound,
        is_gotzmann=h_d1 == bound,
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


def _check_graph(g: Graph) -> tuple[bool, bool, str | None]:
    """Check one graph; returns (is_star, is_gotzmann, failure description)."""
    report = certify(edge_ideal(g))
    star = is_star(g)
    if report.is_gotzmann != star:
        return star, report.is_gotzmann, (
            f"certifier says is_gotzmann={report.is_gotzmann} "
            f"but is_star={star}"
        )
    if report.is_gotzmann:
        if not check_edge_bound(g):
            return star, True, (
                f"Gotzmann edge ideal with e={g.edge_count} >= n={g.vertex_count}"
            )
        if report.square_free_check is not True:
            return star, True, "Gotzmann square-free ideal fails f_d = f_(d-1)^(d)"
    return star, report.is_gotzmann, None


def _check_mask_range(args: tuple[int, int, int]) -> tuple[int, int, int, tuple[int, int, str] | None]:
    """Worker: check masks [start, stop) on n vertices.

    Returns (checked, stars, gotzmann, first failure as (n, mask, reason)).
    Counts are merged commutatively, so any partition of the mask space
    yields the same summary.
    """
    n, start, stop = args
    checked = stars = gotzmann = 0
    failure = None
    for mask in range(start, stop):
        g = Graph.from_edge_mask(n, mask)
        star, gotz, reason = _check_graph(g)
        checked += 1
        stars += star
        gotzmann += gotz
        if reason is not None and failure is None:
            failure = (n, mask, reason)
    return checked, stars, gotzmann, failure


def verify_star_theorem(max_vertices: int, workers: int = 1) -> StarTheoremSummary:
    """Exhaustively verify, over every labeled graph on 1..max_vertices
    vertices, that the edge ideal is Gotzmann exactly for star graphs.

    Also asserts on every Gotzmann instance that e < n and that the
    square-free Kruskal-Katona equality f_d = f_{d-1}^(d) holds.  Any
    violation raises StarTheoremMismatch carrying the offending graph; a
    normal return therefore always reports zero mismatches.  max_vertices > 7
    (hours of enumeration) and workers > CPU count raise ValueError up front.
    """
    if not 1 <= max_vertices <= 7:
        raise ValueError("max_vertices must be in 1..7")
    cpus = os.cpu_count() or 1
    if not 1 <= workers <= cpus:
        raise ValueError(f"workers must be in 1..{cpus} (the CPU count)")
    start_time = time.perf_counter()
    checked = stars = gotzmann = 0
    failure: tuple[int, int, str] | None = None

    jobs = []
    for n in range(1, max_vertices + 1):
        total = 1 << len(edge_pairs(n))
        step = (total + workers - 1) // workers
        jobs.extend((n, lo, min(lo + step, total)) for lo in range(0, total, step))

    if workers == 1:
        results = map(_check_mask_range, jobs)
    else:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_check_mask_range, jobs)

    for part_checked, part_stars, part_gotz, part_failure in results:
        checked += part_checked
        stars += part_stars
        gotzmann += part_gotz
        if part_failure is not None and failure is None:
            failure = part_failure

    if failure is not None:
        n, mask, reason = failure
        g = Graph.from_edge_mask(n, mask)
        raise StarTheoremMismatch(
            f"counterexample on {n} vertices (edge mask {mask}): {reason}\n"
            f"{format_graph(g)}",
            g,
        )

    return StarTheoremSummary(
        max_vertices=max_vertices,
        graphs_checked=checked,
        stars_found=stars,
        gotzmann_found=gotzmann,
        mismatches=0,
        wall_time_seconds=time.perf_counter() - start_time,
    )
