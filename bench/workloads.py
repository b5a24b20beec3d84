"""Workloads of the gotzmann benchmark: seeded inputs, timed passes, exact
checks and traced replays.

Every workload runs complete passes over a fixed item set until the next
pass would overrun the time budget (at least one pass).  The program is
reached only through public functions of ``gotzmann.{graphs, monomials,
complexes, combinatorics, certifier, fileformats}``, and only with
benchmark-generated ideal-file text or integers.

Untraced runs give the end-to-end numbers.  Traced runs wrap each public
call in a span recorded here, in the benchmark's own code; spans never nest,
so a span's self time is its duration.  Every ``REFERENCE_STRIDE``-th item of
a traced run is also run untraced, in alternating order, and the ratio of
the two timings is the tracing overhead.
"""
from __future__ import annotations

import random
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement
from math import comb
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from gotzmann import (  # noqa: E402
    certifier,
    combinatorics,
    complexes,
    fileformats,
    graphs,
    monomials,
)

perf_counter = time.perf_counter

WORKLOADS = ("census", "ideals", "macaulay")

# One span per public call the benchmark makes; every traced run reports a
# share for each, 0 for the ones its workload never calls.
SPANS = (
    "graphs.from_edge_mask",
    "graphs.edge_ideal",
    "fileformats.parse_ideal",
    "monomials.hilbert_quotient_d",
    "monomials.hilbert_quotient_d1",
    "combinatorics.macaulay_rep",
    "combinatorics.macaulay_pseudopower",
    "complexes.squarefree_face_count",
    "combinatorics.kruskal_katona_pseudopower",
    "certifier.certify",
    "complexes.stanley_reisner_complex",
    "complexes.f_vector",
    "complexes.is_valid_f_vector",
    "complexes.compressed_complex",
    "complexes.ideal_of_complex",
    "graphs.is_star",
)

# The spans that replay certify's stages next to one whole certify call.
CERTIFY_STAGES = (
    "monomials.hilbert_quotient_d",
    "monomials.hilbert_quotient_d1",
    "combinatorics.macaulay_pseudopower",
    "complexes.squarefree_face_count",
    "combinatorics.kruskal_katona_pseudopower",
)

REFERENCE_STRIDE = 4


@dataclass(frozen=True)
class Size:
    """Input sizes; FULL is the benchmark, TINY keeps the tests fast."""

    census_vertices: int
    ideals_per_cell: int
    macaulay_per_cell: int
    # Decades of a: 10**k <= a < 10**(k + 1) for k below the cap, at d = 1
    # and at d > 1.  The d = 1 cap is lower because macaulay_rep's base
    # search takes a steps there.
    macaulay_decades: tuple[int, int]


FULL = Size(census_vertices=6, ideals_per_cell=8, macaulay_per_cell=6,
            macaulay_decades=(6, 12))
TINY = Size(census_vertices=4, ideals_per_cell=1, macaulay_per_cell=1,
            macaulay_decades=(3, 3))


class Untraced:
    """Calls straight through; the span interface without recording."""

    def __call__(self, name, fn, *args):
        return fn(*args)

    def work(self, name: str, count: int) -> None:
        pass


class Tracer(Untraced):
    """Self time and call count per span, and computed work counts."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, int] = defaultdict(int)

    def __call__(self, name, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        self.self_s[name] += perf_counter() - t0
        self.calls[name] += 1
        return out

    def work(self, name: str, count: int) -> None:
        self.counts[name] += count


UNTRACED = Untraced()


# ---------------------------------------------------------------- inputs


def census_inputs(max_vertices: int) -> list[tuple[int, int]]:
    """Every labeled graph on 1..max_vertices vertices as (n, edge mask)."""
    return [
        (n, mask)
        for n in range(1, max_vertices + 1)
        for mask in range(1 << comb(n, 2))
    ]


def census_star_count(max_vertices: int) -> int:
    """Labeled stars on n <= max_vertices: 1 + C(n,2) + n(2^(n-1) - n) each."""
    return sum(
        1 + comb(n, 2) + n * (2 ** (n - 1) - n)
        for n in range(1, max_vertices + 1)
    )


def star_mask(n: int, mask: int) -> bool:
    """Some vertex lies on every edge; the edgeless graph counts as a star."""
    edges = [
        set(p)
        for i, p in enumerate(combinations(range(1, n + 1), 2))
        if mask >> i & 1
    ]
    return not edges or bool(set.intersection(*edges))


@dataclass(frozen=True)
class IdealItem:
    """One ideal file and what parsing it must give back."""

    kind: str
    n: int
    d: int
    generators: frozenset[tuple[int, ...]]
    text: str

    @property
    def squarefree(self) -> bool:
        return all(max(e) <= 1 for e in self.generators)


# (kind, variables, degree) cells; every cell gets the same item count.
IDEAL_CELLS = (
    [("lex", n, d) for d in range(1, 5) for n in range(2, 7)]
    + [("mixed", n, d) for d in range(2, 5) for n in range(3, 7)]
    + [("squarefree", n, d) for d in range(2, 5) for n in range(8, 12)]
)
MIXED_MAX_GENERATORS = 20
SQUAREFREE_MAX_GENERATORS = 60


def _stratified(rng: random.Random, lo: int, hi: int, j: int, per_cell: int) -> int:
    """The j-th of per_cell draws from lo..hi, one from each equal slice."""
    return lo + min(hi - lo, int((j + rng.random()) * (hi - lo + 1) / per_cell))


def _exponents(n: int, variables: tuple[int, ...]) -> tuple[int, ...]:
    exps = [0] * n
    for v in variables:
        exps[v] += 1
    return tuple(exps)


def _ideal_item(rng: random.Random, kind: str, n: int, d: int, j: int,
                per_cell: int) -> IdealItem:
    if kind == "lex":
        # combinations_with_replacement yields degree-d monomials in
        # lex-descending order (x1 > ... > xn); a proper initial segment.
        lex = [_exponents(n, c) for c in combinations_with_replacement(range(n), d)]
        gens = lex[:_stratified(rng, 1, len(lex) - 1, j, per_cell)]
    elif kind == "mixed":
        pool = [_exponents(n, c) for c in combinations_with_replacement(range(n), d)]
        count = _stratified(rng, 1, min(MIXED_MAX_GENERATORS, len(pool)), j, per_cell)
        first = rng.choice([e for e in pool if max(e) > 1])
        pool.remove(first)
        gens = [first] + rng.sample(pool, count - 1)
    else:
        pool = [_exponents(n, c) for c in combinations(range(n), d)]
        count = _stratified(rng, 1, min(SQUAREFREE_MAX_GENERATORS, len(pool)), j, per_cell)
        gens = rng.sample(pool, count)
    rng.shuffle(gens)
    lines = [f"# {kind} ideal, n={n}, d={d}", f"{n} {d}"]
    lines += [" ".join(f"{i + 1}:{e}" for i, e in enumerate(g) if e) for g in gens]
    return IdealItem(kind, n, d, frozenset(gens), "\n".join(lines) + "\n")


def ideal_inputs(seed: int, per_cell: int) -> list[IdealItem]:
    """Stratified ideal files: per_cell items in every IDEAL_CELLS cell, shuffled."""
    rng = random.Random(f"ideals:{seed}")
    items = [
        _ideal_item(rng, kind, n, d, j, per_cell)
        for kind, n, d in IDEAL_CELLS
        for j in range(per_cell)
    ]
    rng.shuffle(items)
    return items


def macaulay_cells(size: Size) -> list[tuple[int, int]]:
    """(d, decade) cells: d in 1..8, decade k meaning 10**k <= a < 10**(k+1)."""
    low, high = size.macaulay_decades
    return [(d, k) for d in range(1, 9) for k in range(low if d == 1 else high)]


def macaulay_inputs(seed: int, size: Size) -> list[tuple[int, int]]:
    """Stratified (a, d) pairs, log-uniform within equal slices of each decade."""
    rng = random.Random(f"macaulay:{seed}")
    r = size.macaulay_per_cell
    items = []
    for d, k in macaulay_cells(size):
        for j in range(r):
            a = int(10 ** (k + (j + rng.random()) / r))
            items.append((min(max(a, 10 ** k), 10 ** (k + 1) - 1), d))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------- chains
#
# A chain makes one item's public calls through ``span``; the same code runs
# untraced (end to end, overhead reference) and traced.


def _report_fields(report) -> tuple:
    return (
        report.degree_d,
        report.h_quotient_d,
        report.h_quotient_d1,
        report.macaulay_bound,
        report.is_gotzmann,
        report.square_free_check,
    )


def certify_stages(span, ideal) -> tuple:
    """Replay certify's stages with public calls; returns the fields it reports."""
    d = ideal.generation_degree
    n = ideal.ambient_vars
    h_d = span("monomials.hilbert_quotient_d", monomials.hilbert_quotient, ideal, d)
    h_d1 = span("monomials.hilbert_quotient_d1", monomials.hilbert_quotient, ideal, d + 1)
    span.work("monomials.hilbert_quotient.monomials", comb(n + d - 1, d) + comb(n + d, d + 1))
    bound = span("combinatorics.macaulay_pseudopower", combinatorics.macaulay_pseudopower, h_d, d)
    square_free_check = None
    if ideal.is_squarefree:
        count = complexes.squarefree_face_count
        f_prev = span("complexes.squarefree_face_count", count, ideal, d)
        f_top = span("complexes.squarefree_face_count", count, ideal, d + 1)
        span.work("complexes.squarefree_face_count.subsets", comb(n, d) + comb(n, d + 1))
        square_free_check = f_top == span(
            "combinatorics.kruskal_katona_pseudopower",
            combinatorics.kruskal_katona_pseudopower, f_prev, d,
        )
    return (d, h_d, h_d1, bound, h_d1 == bound, square_free_check)


def replay_and_certify(span, ideal, replay_first: bool) -> tuple:
    """The replayed stages and one whole certify call.  Callers alternate
    the order over items, so neither side always finds the caches that the
    other filled, and certifier.overhead_s is not biased."""
    if replay_first:
        stages = certify_stages(span, ideal)
        return stages, span("certifier.certify", certifier.certify, ideal)
    report = span("certifier.certify", certifier.certify, ideal)
    return certify_stages(span, ideal), report


def census_chain(span, item):
    """The verifier's per-graph stage chain, plus one whole certify call."""
    n, mask = item
    g = span("graphs.from_edge_mask", graphs.Graph.from_edge_mask, n, mask)
    ideal = span("graphs.edge_ideal", graphs.edge_ideal, g)
    stages, report = replay_and_certify(span, ideal, replay_first=mask % 2 == 0)
    star = span("graphs.is_star", graphs.is_star, g)
    return stages, star, report


def check_census(item, out) -> str | None:
    stages, star, report = out
    if stages != _report_fields(report):
        return "replayed stages disagree with certify's report"
    if star != star_mask(*item):
        return "is_star disagrees with the edge mask"
    if report.is_gotzmann != star:
        return "Gotzmann verdict differs from star-ness"
    if report.is_gotzmann and report.square_free_check is not True:
        return "Gotzmann edge ideal fails f_d = f_(d-1)^(d)"
    return None


def ideal_chain(span, item: IdealItem, replay: bool = False):
    """parse_ideal, certify and, for square-free ideals, the f-vector round trip."""
    ideal = span("fileformats.parse_ideal", fileformats.parse_ideal, item.text)
    if replay:
        stages, report = replay_and_certify(
            span, ideal, replay_first=len(item.generators) % 2 == 0
        )
    else:
        stages, report = None, span("certifier.certify", certifier.certify, ideal)
    faces = None
    if ideal.is_squarefree:
        sr = span("complexes.stanley_reisner_complex", complexes.stanley_reisner_complex, ideal)
        fv = span("complexes.f_vector", complexes.f_vector, sr)
        valid = span("complexes.is_valid_f_vector", complexes.is_valid_f_vector, fv)
        compressed = span("complexes.compressed_complex", complexes.compressed_complex, fv)
        fv_compressed = span("complexes.f_vector", complexes.f_vector, compressed)
        back = span("complexes.ideal_of_complex", complexes.ideal_of_complex, sr)
        faces = (fv, valid, fv_compressed, back)
    return ideal, stages, report, faces


def check_ideal(item: IdealItem, out) -> str | None:
    ideal, stages, report, faces = out
    n, d, g = item.n, item.d, len(item.generators)
    if (
        ideal.ambient_vars != n
        or ideal.generation_degree != d
        or {m.exponents for m in ideal.generators} != item.generators
    ):
        return "parse_ideal returned another ideal"
    if report.degree_d != d or report.h_quotient_d != comb(n + d - 1, d) - g:
        return "H(P/I, d) differs from C(n+d-1, d) minus the generator count"
    if stages is not None and stages != _report_fields(report):
        return "replayed stages disagree with certify's report"
    if item.kind == "lex" and not report.is_gotzmann:
        return "lex segment not certified Gotzmann"
    if (report.square_free_check is None) == item.squarefree:
        return "square_free_check set for the wrong kind of ideal"
    if not item.squarefree:
        return None
    if report.is_gotzmann and report.square_free_check is not True:
        return "Gotzmann square-free ideal fails f_d = f_(d-1)^(d)"
    if faces is None:
        return "square-free ideal skipped the f-vector path"
    fv, valid, fv_compressed, back = faces
    if valid is not True:
        return "f-vector of a complex fails Kruskal-Katona"
    if fv_compressed != fv:
        return "compressed complex has another f-vector"
    if back != ideal.generators:
        return "ideal_of_complex(stanley_reisner_complex(I)) != generators of I"
    if fv.face_count(d) != comb(n, d) - g:
        return "f_(d-1) differs from C(n, d) minus the generator count"
    return None


def macaulay_chain(span, item):
    a, d = item
    rep = span("combinatorics.macaulay_rep", combinatorics.macaulay_rep, a, d)
    power = span("combinatorics.macaulay_pseudopower", combinatorics.macaulay_pseudopower, a, d)
    kk = span("combinatorics.kruskal_katona_pseudopower",
              combinatorics.kruskal_katona_pseudopower, a, d)
    return rep, power, kk


def check_macaulay(item, out) -> str | None:
    a, d = item
    rep, power, kk = out
    b = rep.coefficients
    if rep.degree != d or len(b) != d:
        return "representation has the wrong degree"
    if rep.value() != a:
        return "rep.value() != a"
    if any(hi <= lo for hi, lo in zip(b, b[1:])):
        return "coefficients not strictly decreasing"
    remainder = a
    for bi, i in zip(b, range(d, 0, -1)):
        if not comb(bi, i) <= remainder < comb(bi + 1, i):
            return f"greedy choice b_{i} = {bi} not maximal"
        remainder -= comb(bi, i)
    if remainder:
        return "binomials do not sum to a"
    if power != sum(comb(bi + 1, i + 1) for bi, i in zip(b, range(d, 0, -1))):
        return "Macaulay pseudo-power differs from its representation"
    if kk != sum(comb(bi, i + 1) for bi, i in zip(b, range(d, 0, -1))):
        return "Kruskal-Katona pseudo-power differs from its representation"
    return None


# ---------------------------------------------------------------- runners


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    first_error: str | None = None
    pass_s: list[float] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if self.first_error is None:
            self.first_error = message


def _passes(seconds: float, run_pass) -> None:
    """Run complete passes until the next, as long as the last, would overrun."""
    start = perf_counter()
    while True:
        t0 = perf_counter()
        run_pass()
        now = perf_counter()
        if now - start + (now - t0) > seconds:
            return


def _item(span, chain, check, item, tally: Tally) -> float:
    """Run and check one item; returns the time spent in the program."""
    tally.attempted += 1
    t0 = perf_counter()
    try:
        out = chain(span, item)
    except Exception:  # a failed operation counts as a wrong output
        dt = perf_counter() - t0
        tally.fail(1, f"{item!r}: {traceback.format_exc()}")
        return dt
    dt = perf_counter() - t0
    try:
        error = check(item, out)
    except Exception:  # an output the check cannot even read is wrong
        error = traceback.format_exc()
    if error is not None:
        tally.fail(1, f"{item!r}: {error}")
    return dt


def time_items(items, chain, check, seconds: float, host: HostSpeed):
    """Untraced passes; returns the tally and each item's median latency."""
    tally = Tally()
    samples: list[list[float]] = [[] for _ in items]

    def run_pass():
        total = 0.0
        for i, item in enumerate(items):
            host.sample_if_due()
            dt = _item(UNTRACED, chain, check, item, tally)
            samples[i].append(dt)
            total += dt
        tally.pass_s.append(total)

    _passes(seconds, run_pass)
    return tally, [statistics.median(s) for s in samples]


def trace_items(items, chain, check, seconds: float):
    """Traced passes; returns the tally, the tracer and the overhead ratio."""
    tally = Tally()
    tracer = Tracer()
    reference = {"untraced": 0.0, "traced": 0.0}

    def untraced_s(item) -> float:
        t0 = perf_counter()
        try:
            chain(UNTRACED, item)
        except Exception:  # the traced run of the item records the failure
            pass
        return perf_counter() - t0

    def run_pass():
        total = 0.0
        for i, item in enumerate(items):
            if i % REFERENCE_STRIDE:
                total += _item(tracer, chain, check, item, tally)
                continue
            if i // REFERENCE_STRIDE % 2:
                reference["untraced"] += untraced_s(item)
                dt = _item(tracer, chain, check, item, tally)
            else:
                dt = _item(tracer, chain, check, item, tally)
                reference["untraced"] += untraced_s(item)
            reference["traced"] += dt
            total += dt
        tally.pass_s.append(total)

    _passes(seconds, run_pass)
    return tally, tracer, reference["traced"] / reference["untraced"]


# ---------------------------------------------------------------- metrics


@dataclass
class Outcome:
    """What one run measured; metrics map name -> (value, unit)."""

    tally: Tally
    metrics: dict[str, tuple[float, str]]
    details: dict


ITEM_NAMES = {"census": "graph", "ideals": "ideal", "macaulay": "eval"}


def _end_to_end(workload: str, raw_wall_s: float, items_per_pass: int,
                scale: float) -> dict:
    """Pass time and rate, scaled by the host-speed factor, and the raw pass time."""
    wall_s = raw_wall_s * scale
    rate = items_per_pass / wall_s
    return {
        "wall_s": (wall_s, "s"),
        "items_per_s": (rate, "1/s"),
        f"{ITEM_NAMES[workload]}s_per_s": (rate, "1/s"),
        "raw_wall_s": (raw_wall_s, "s"),
    }


def _latency(per_item_s: list[float]) -> tuple[dict, dict]:
    """Median and tail of per-item latency; the tail is the highest
    percentile with at least 10 samples beyond it."""
    xs = sorted(per_item_s)
    n = len(xs)
    metrics = {"latency_p50_ms": (statistics.median(xs) * 1e3, "ms")}
    info = {"samples": n, "tail_percentile": None}
    if n > 10:
        metrics["latency_tail_ms"] = (xs[n - 11] * 1e3, "ms")
        info["tail_percentile"] = 100 * (n - 10) / n
    return metrics, info


def _layers(tracer: Tracer, passes: int) -> tuple[dict, dict]:
    """Per-pass self time, calls and share of every span.

    Shares are of the pipeline: every span that is not a replayed certify
    stage, certify itself included.  The replayed stages and
    certifier.overhead_s (certify minus its replayed stages) split
    certify's share.
    """
    self_s = {name: tracer.self_s.get(name, 0.0) / passes for name in SPANS}
    certified = tracer.calls.get("certifier.certify", 0) > 0
    inside = sum(self_s[name] for name in CERTIFY_STAGES) if certified else 0.0
    pipeline = sum(self_s.values()) - inside
    overhead = self_s["certifier.certify"] - inside
    metrics = {"certifier.overhead_s": (overhead, "s"),
               "certifier.overhead.share": (overhead / pipeline, "ratio")}
    for name in SPANS:
        metrics[f"{name}.self_s"] = (self_s[name], "s")
        metrics[f"{name}.calls"] = (tracer.calls.get(name, 0) // passes, "count")
        metrics[f"{name}.share"] = (self_s[name] / pipeline, "ratio")
    for name, count in sorted(tracer.counts.items()):
        metrics[name] = (count // passes, "count")
    return metrics, {"pipeline_s": pipeline}


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: Size = FULL) -> Outcome:
    """Generate the workload's inputs from the seed, run it and check it."""
    if workload == "census" and not trace:
        # One long verifier call already spans the host's speed changes, and
        # the reference block cannot run inside it: census times stay raw.
        tally, graphs_total, counts = census_passes(size.census_vertices, seconds)
        metrics = _end_to_end(workload, statistics.median(tally.pass_s), graphs_total, 1.0)
        details = {"items_per_pass": graphs_total, "census": counts}
        return _finish(tally, metrics, details, workload)

    if workload == "census":
        items = census_inputs(size.census_vertices)
        chain, check = census_chain, check_census
    elif workload == "ideals":
        items = ideal_inputs(seed, size.ideals_per_cell)
        check = check_ideal
        chain = (lambda span, item: ideal_chain(span, item, replay=True)) if trace else ideal_chain
    elif workload == "macaulay":
        items = macaulay_inputs(seed, size)
        chain, check = macaulay_chain, check_macaulay
    else:
        raise ValueError(f"unknown workload {workload!r}")

    details: dict = {"items_per_pass": len(items)}
    if trace:
        tally, tracer, ratio = trace_items(items, chain, check, seconds)
        metrics, info = _layers(tracer, len(tally.pass_s))
        metrics["trace.overhead_ratio"] = (ratio, "ratio")
        details.update(info, reference_stride=REFERENCE_STRIDE)
    else:
        host = HostSpeed()
        tally, per_item = time_items(items, chain, check, seconds, host)
        scale = host.scale()
        # A pass at each item's median speed: steadier than the median pass
        # under the bursts of a shared host.
        metrics = _end_to_end(workload, sum(per_item), len(items), scale)
        latency, info = _latency([t * scale for t in per_item])
        metrics.update(latency)
        metrics["reference_block_s"] = (REFERENCE_S / scale, "s")
        details.update(latency=info, reference_blocks=len(host.samples))
    return _finish(tally, metrics, details, workload)


def _finish(tally: Tally, metrics: dict, details: dict, workload: str) -> Outcome:
    metrics["error_rate"] = (tally.failed / tally.attempted, "ratio")
    details.update(item=ITEM_NAMES[workload], passes=len(tally.pass_s), pass_s=tally.pass_s)
    return Outcome(tally, metrics, details)


def census_passes(max_vertices: int, seconds: float) -> tuple[Tally, int, dict]:
    """Untraced census: whole verify_star_theorem calls, checked by their
    counts; returns the tally, the graphs per pass and the last counts."""
    graphs_total = sum(1 << comb(n, 2) for n in range(1, max_vertices + 1))
    stars = census_star_count(max_vertices)
    expected = (graphs_total, stars, stars, 0)
    tally = Tally()
    seen: dict = {}

    def run_pass():
        tally.attempted += graphs_total
        t0 = perf_counter()
        try:
            summary = certifier.verify_star_theorem(max_vertices, workers=1)
        except Exception:  # a mismatch or a crash fails the whole pass
            tally.pass_s.append(perf_counter() - t0)
            tally.fail(graphs_total, traceback.format_exc())
            return
        tally.pass_s.append(perf_counter() - t0)
        counts = (summary.graphs_checked, summary.stars_found,
                  summary.gotzmann_found, summary.mismatches)
        seen.update(zip(("graphs_checked", "stars_found", "gotzmann_found", "mismatches"), counts))
        if counts != expected:
            # Only the totals are observable, so no graph of the pass counts.
            tally.fail(graphs_total, f"census counts {counts}, expected {expected}")

    _passes(seconds, run_pass)
    return tally, graphs_total, seen
