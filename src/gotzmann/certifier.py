"""The Gotzmann certifier and the exhaustive star-graph theorem verifier.

The certifier reads H(P/I, d+1) and f_d from one enumeration of I_{d+1}.  The verifier makes one
kernel call per vertex count n, over one block of graphs per class of a stabilizer chain fixing
vertices 1..depth (depth min(max(2, n - 5), 4), so at most 15 free edges), weighted by class size.
H(I, 3) = 2e + t, with t the 3-sets holding an edge, as x_i^2 x_j is a multiple of the edge ij
alone; the edge tables, read off the enumeration of I_3, are checked against it once per n.  So
bitsets of 3-sets make t, and with it H(P/I, 3) and f_2, a popcount, and one cached snapshot per
n holds them with the bounds and the lane and subset tables of the free edges; the 2^free graphs of
a block share one int, a guard-bit field each, so one subtraction tests them all against the
Macaulay bound; only those at it, and stars, reach the scalar checks.
"""
from __future__ import annotations

import time
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, product
from math import prod

from .combinatorics import _Value, binomial, kruskal_katona_pseudopower, macaulay_pseudopower
from .graphs import Graph, edge_ideal, edge_pairs
from .monomials import MonomialIdeal, degree_part, hilbert_ring, packed_monomials, packing

MAX_VERTICES = 10  # the largest max_vertices verify_star_theorem takes, and so its caches' bound


class GotzmannReport(_Value, namedtuple(
        "GotzmannReport", "degree_d h_quotient_d h_quotient_d1 macaulay_bound square_free_check")):
    """Certifier output: the two Hilbert values and the Macaulay bound, built by keyword only.

    ``square_free_check`` holds f_d == f_{d-1}^(d) for square-free ideals and
    None otherwise; it is an implication witness (Gotzmann implies true), not
    an equivalence.
    """

    __slots__ = ()

    def __new__(cls, *, degree_d: int, h_quotient_d: int, h_quotient_d1: int, macaulay_bound: int,
                square_free_check: bool | None = None) -> GotzmannReport:
        if h_quotient_d1 > macaulay_bound:
            raise ArithmeticError("Macaulay bound violated: arithmetic bug in the enumeration")
        return tuple.__new__(cls, (degree_d, h_quotient_d, h_quotient_d1, macaulay_bound, square_free_check))

    def __getnewargs_ex__(self) -> tuple[tuple, dict]:
        return (), self._asdict()

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
    return GotzmannReport(degree_d=d, h_quotient_d=h_d, h_quotient_d1=h_d1, macaulay_bound=bound,
                          square_free_check=square_free_check)


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


class VertexCountRecord(_Value, namedtuple("VertexCountRecord", "n graphs stars gotzmann representatives seconds")):
    """Labeled counts on n vertices, the blocks checked and the seconds of their kernel call."""

    __slots__ = ()


class StarTheoremSummary(_Value, namedtuple(
        "StarTheoremSummary", "max_vertices graphs_checked stars_found gotzmann_found mismatches "
        "wall_time_seconds per_n", defaults=((),))):
    """Aggregated result of the exhaustive labeled-graph verification.  ``mismatches``
    is always 0, since every failure raises StarTheoremMismatch instead of being
    counted; it stays because ``--machine`` output and bench/ read it.  ``per_n`` holds
    one VertexCountRecord per vertex count."""

    __slots__ = ()


def _edge_tables(n: int) -> tuple[tuple[int, int], ...]:
    """Per edge of edge_pairs(n), the 3-sets holding it as a bitset, bit i for the i-th square-free
    cubic of packed_monomials(n, 3, w), and its vertex mask (bit v - 1 for vertex v), read off the
    degree-3 part of its own edge ideal.  Unless that part is the n - 2 3-sets and 2 others, x_i^2 x_j
    and x_i x_j^2, in no other edge's part, so that H(I, 3) = 2e + t, ArithmeticError."""
    w, high = packing(n, 3)
    bits = {m: 1 << i for i, m in enumerate(m for m in packed_monomials(n, 3, w) if not m & high)}
    edges, taken = [], set()  # the non-square-free members of the parts so far
    for p in edge_pairs(n):
        part = degree_part(edge_ideal(Graph.from_edge_list(n, [p])), 3)
        others = {m for m in part if m & high}
        if len(part) != n or len(others) != 2 or not taken.isdisjoint(others):
            raise ArithmeticError(f"I_3 of the edge {p} on {n} vertices is not its {n - 2} 3-sets "
                                  "and 2 multiples of it alone")
        taken |= others
        edges.append((sum(bits[m] for m in part - others), sum(1 << v - 1 for v in p)))
    return tuple(edges)


def _subset_table(edges: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """Per subset of the (3-sets, vertex mask) edges, indexed by its mask
    over them: the OR of their 3-sets and the AND of their vertex masks."""
    table = [(0, -1)]
    for triples, vertices in edges:
        table += [(t | triples, v & vertices) for t, v in table]
    return tuple(table)


@lru_cache(maxsize=MAX_VERTICES)
def _representatives(n: int, depth: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(free, ((fixed, weight), ...)): one edge mask per class of a stabilizer chain fixing
    vertices 1..depth in turn, with the class size.  The vertices after the fixed ones form
    blocks of consecutive vertices; the lowest unfixed vertex v leaves its block, and a
    relabeling within the blocks moves N(v) among the later vertices to a prefix of each block,
    in the product of C(|block|, a) ways, and splits each block there.  The C(n - depth, 2)
    edges among depth+1..n, last in edge_pairs(n), stay free."""
    level = [(0, 1, (n,))]  # (fixed, weight, sizes of the blocks of vertices v..n, in order)
    for v in range(1, min(depth, n) + 1):
        offset = binomial(n, 2) - binomial(n - v + 1, 2) - v - 1  # edge (v, u) is bit offset + u
        chained = []
        for fixed, weight, (first, *sizes) in level:
            sizes = (first - 1, *sizes)  # v leaves the first block
            starts = tuple(accumulate(sizes, initial=v + 1))
            for prefixes in product(*(range(size + 1) for size in sizes)):
                chained.append((
                    fixed | sum((1 << a) - 1 << offset + start for start, a in zip(starts, prefixes)),
                    weight * prod(map(binomial, sizes, prefixes)),
                    tuple(part for size, a in zip(sizes, prefixes) for part in (a, size - a) if part)))
        level = chained
    return binomial(max(n - depth, 0), 2), tuple((fixed, weight) for fixed, weight, _ in level)


@lru_cache(maxsize=MAX_VERTICES)
def _tables(n: int, free: int, macaulay, kk) -> tuple:
    """The one snapshot _check_blocks reads for the last ``free`` edges of edge_pairs(n), keyed by the
    pseudo-powers too, so it follows a patched one; a run keys one per n.  With t the 3-sets holding an
    edge, H(P/I, 3) = C(n+2, 3) - 2e - t >= M(e) exactly when t + M(e) + 2e - (C(n+2, 3) - C(n, 3)) <= C(n, 3).
    In order: _edge_tables(n); per edge count e, the Macaulay bound M(e) on H(P/I, 3) and the
    Kruskal-Katona bound on f_2.  Lane L, one per subset of the free edges, owns the w-bit field at bit
    L*w of an int, whose top bit is its guard.  Then w; ``ones``, a 1 in each field; per edge count e0,
    M(e) + 2e - (C(n+2, 3) - C(n, 3)) at e = e0 + |L|, clamped to 0..C(n, 3) + 1, in each field; per set
    of free edges holding some 3-sets, (those 3-sets as a bitset, a 1 in each lane holding one of the
    edges); per vertex v, (1 << v - 1, the guard bits of the lanes whose edges all hold v); and the
    _subset_table of the free edges, whose last entry ORs all their 3-sets."""
    every_edge = _edge_tables(n)
    edges = every_edge[binomial(n, 2) - free:]
    bounds = tuple((macaulay(binomial(n + 1, 2) - e, 2), kk(binomial(n, 2) - e, 2))
                   for e in range(binomial(n, 2) + 1))
    triangles, cubic, lanes = binomial(n, 3), binomial(n + 2, 3) - binomial(n, 3), _subset_table(edges)
    w = (2 * triangles + 1).bit_length() + 1  # a count plus a clamped bound stays below the guard
    # Clamped to 0..triangles + 1, a bound gives every t in 0..triangles the same verdict.
    ones, mac = 1, [min(max(macaulay + 2 * e - cubic, 0), triangles + 1) for e, (macaulay, _) in enumerate(bounds)]
    planes, stars = [(lanes[-1][0], 0)], [1] * n
    for k, (triples, vertices) in enumerate(edges):  # lanes 2^k..2^(k+1)-1 add free edge k
        width, holders = w << k, ones << (w << k)
        mac = [a | b << width for a, b in zip(mac, mac[1:])]
        planes = [part for group, p in planes for part in ((group & ~triples, p | p << width),
                                                         (group & triples, p | p << width | holders)) if part[0]]
        stars = [s | s << width if vertices >> v & 1 else s for v, s in enumerate(stars)]
        ones |= holders
    stars = tuple((1 << v, s << w - 1) for v, s in enumerate(stars))
    return every_edge, bounds, w, ones, tuple(mac), tuple(planes), stars, lanes


def _check_blocks(n: int, free: int, blocks) -> tuple[int, int, int]:
    """(checked, stars, gotzmann), weighted, over the blocks ((fixed, weight), ...), a block
    being the 2^free masks fixed | f << (C(n, 2) - free), the free edges being the last of
    edge_pairs(n); a failure raises StarTheoremMismatch, and free outside 0..min(C(n, 2), 15)
    ValueError, before any table is read: 15 is the most free edges verify_star_theorem leaves.
    Each call makes one cache lookup, _tables(n, free, ...), for every edge, bound and lane.

    The fixed edges fold into one OR and AND, and every subset L of the free edges is a lane of
    _tables.  With F the fixed edges, H(P/I, 3) >= M(|F| + |L|) exactly when
    u = (the lane bound at |F| + |L|) + #(3-sets holding an edge of L, none of F)
    <= base = C(n, 3) - t(F), so one subtraction, (guard + base in each field) - u, keeps the
    guard bits of those lanes, and no field borrows from the next.  The star lanes, whose edges all
    hold a vertex that every edge of F holds, are OR'ed in.  These candidates, every Gotzmann or star
    mask, go through the scalar checks lowest mask first, where one popcount gives t, and so both
    H(P/I, 3) and f_2 = C(n, 3) - t; any other lane is a non-star below its bound."""
    shift = binomial(n, 2) - free
    if not 0 <= shift <= binomial(n, 2):
        raise ValueError("edge mask out of range")
    if free > 15:  # the tables hold 2^free lanes
        raise ValueError(f"at most 15 free edges, not {free}")
    edges, bounds, w, ones, mac, planes, vertex_stars, lanes = _tables(
        n, free, macaulay_pseudopower, kruskal_katona_pseudopower)
    guard = ones << w - 1
    ring3, triangles, checked, stars, gotzmann = binomial(n + 2, 3), binomial(n, 3), 0, 0, 0
    for fixed, weight in blocks:
        if fixed < 0 or fixed >> shift:
            raise ValueError("edge mask out of range")
        fixed_triples, fixed_common, rest = 0, -1, fixed
        while rest:
            triples, vertices = edges[(rest & -rest).bit_length() - 1]
            fixed_triples, fixed_common, rest = fixed_triples | triples, fixed_common & vertices, rest & rest - 1
        checked += weight << free
        e0, base = fixed.bit_count(), triangles - fixed_triples.bit_count()
        u = mac[e0]
        for group, plane in planes:
            u += (group & ~fixed_triples).bit_count() * plane
        candidates = (guard | base * ones) - u & guard
        for vertex, star_lanes in vertex_stars:
            if fixed_common & vertex:
                candidates |= star_lanes
        while candidates:
            lo = (candidates & -candidates).bit_length() // w - 1
            candidates &= candidates - 1
            lane_triples, lane_common = lanes[lo]
            t, common, e = (lane_triples | fixed_triples).bit_count(), lane_common & fixed_common, e0 + lo.bit_count()
            h3, f2, (macaulay, kk) = ring3 - 2 * e - t, triangles - t, bounds[e]
            mask = fixed | lo << shift
            if h3 > macaulay:
                raise ArithmeticError(f"H(P/I,3) = {h3} > Macaulay bound {macaulay} (n={n}, mask {mask})")
            star, gotz = common != 0, h3 == macaulay
            stars, gotzmann = stars + star * weight, gotzmann + gotz * weight
            if gotz != star or gotz and (e >= n or f2 != kk):
                raise StarTheoremMismatch(f"counterexample on {n} vertices (edge mask {mask}): "
                                          f"is_gotzmann={gotz}, is_star={star}, e={e}, f_2={f2} against "
                                          f"the Kruskal-Katona bound {kk}", Graph.from_edge_mask(n, mask))
    return checked, stars, gotzmann


def verify_star_theorem(max_vertices: int, workers: int = 1) -> StarTheoremSummary:
    """Exhaustively verify, over every labeled graph on 1..max_vertices
    vertices, that the edge ideal is Gotzmann exactly for star graphs.

    Relabeling vertices changes neither the Hilbert function nor star-ness, so each n
    makes one _check_blocks call over _representatives(n, depth), weighted by class size:
    every count is labeled.  The depth is min(max(2, n - 5), 4), leaving at most 15 free edges,
    every one a lane of _tables.  A Gotzmann instance also needs e < n and
    f_d = f_{d-1}^(d) (Kruskal-Katona), or StarTheoremMismatch carries the graph.  Weights
    not summing to 2^C(n, 2), or other than 1 + C(n, 2) + n(2^(n-1) - n) stars on n
    vertices, raise ArithmeticError.  max_vertices outside 1..MAX_VERTICES, and workers != 1
    (kept for callers passing 1), raise ValueError.  A second run rebuilds no blocks or tables.
    """
    if not 1 <= max_vertices <= MAX_VERTICES:
        raise ValueError(f"max_vertices must be in 1..{MAX_VERTICES}, not {max_vertices}")
    if workers != 1:
        raise ValueError(f"workers must be 1, not {workers}")
    start_time = time.perf_counter()
    per_n = []
    for n in range(1, max_vertices + 1):
        # 10 free edges up to n = 9, faster than 15; depth 5 at n = 10 builds 2,764,672 blocks (777 MB)
        free, representatives = _representatives(n, min(max(2, n - 5), 4))
        started = time.perf_counter()
        graphs, stars, gotzmann = _check_blocks(n, free, representatives)
        seconds = time.perf_counter() - started
        if graphs != 1 << binomial(n, 2):
            raise ArithmeticError(f"orbit weights cover {graphs} graphs on {n} vertices, not 2^C(n, 2)")
        if stars != 1 + binomial(n, 2) + n * (2 ** (n - 1) - n):
            raise ArithmeticError(f"{stars} labeled stars found on {n} vertices")
        per_n.append(VertexCountRecord(n, graphs, stars, gotzmann, len(representatives), seconds))
    return StarTheoremSummary(max_vertices, sum(r.graphs for r in per_n), sum(r.stars for r in per_n),
                              sum(r.gotzmann for r in per_n), 0, time.perf_counter() - start_time, tuple(per_n))
