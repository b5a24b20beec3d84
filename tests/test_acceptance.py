"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Each test prints one ``ACCEPTANCE CRITERION n: PASS`` line on success (run
pytest with ``-s`` to see them as they happen).  The heavyweight criteria
share a single exhaustive census of all labeled graphs on up to six
vertices.
"""
import random
import time
from dataclasses import dataclass
from itertools import combinations

import pytest

from gotzmann.certifier import (
    _check_block,
    certify,
    gotzmann_value_deg2,
    verify_star_theorem,
)
from gotzmann.cli import main
from gotzmann.combinatorics import (
    binomial,
    kruskal_katona_pseudopower,
    macaulay_pseudopower,
    macaulay_rep,
)
from gotzmann.complexes import (
    FVector,
    compressed_complex,
    f_vector,
    is_valid_f_vector,
    stanley_reisner_complex,
)
from gotzmann.graphs import (
    Graph,
    dependent_triples_through,
    dependent_triples_through_closed_form,
    edge_ideal,
    edge_pairs,
    hilbert_edge_ideal_deg3,
    is_star,
)
from gotzmann.monomials import hilbert_ideal, hilbert_quotient, hilbert_ring, lex_segment_ideal
from oracles import independent_sets_of_size

CENSUS_MAX_VERTICES = 6
RNG_SEED = 20260823


def passline(number: int, detail: str) -> None:
    print(f"\nACCEPTANCE CRITERION {number}: PASS ({detail})")


@dataclass(frozen=True)
class CensusRecord:
    n: int
    edges: int
    star: bool
    gotzmann: bool
    square_free_check: bool
    independence_f_vector: tuple[int, ...]


@pytest.fixture(scope="module")
def census():
    """Certify every labeled graph on 1..6 vertices, once for the whole suite,
    and cross-check the verifier's kernel on each graph alone."""
    records = []
    for n in range(1, CENSUS_MAX_VERTICES + 1):
        for mask in range(1 << len(edge_pairs(n))):
            g = Graph.from_edge_mask(n, mask)
            ideal = edge_ideal(g)
            report = certify(ideal)
            star = is_star(g)  # once per graph: the kernel check and the record share it
            assert _check_block(n, mask, 0) == (1, star, report.is_gotzmann)
            # one face growth per graph; a count per size would regrow the levels
            counts = f_vector(stanley_reisner_complex(ideal)).counts
            records.append(
                CensusRecord(
                    n=n,
                    edges=g.edge_count,
                    star=star,
                    gotzmann=report.is_gotzmann,
                    square_free_check=report.square_free_check,
                    independence_f_vector=counts,
                )
            )
    return records


@pytest.fixture(scope="module")
def random_graph_sample():
    """200 seeded random graphs on up to 8 vertices plus exhaustive n <= 5."""
    rng = random.Random(RNG_SEED)
    sample = []
    for _ in range(200):
        n = rng.randint(1, 8)
        mask = rng.randrange(1 << len(edge_pairs(n)))
        sample.append(Graph.from_edge_mask(n, mask))
    for n in range(1, 6):
        for mask in range(1 << len(edge_pairs(n))):
            sample.append(Graph.from_edge_mask(n, mask))
    return sample


def test_criterion_1_star_theorem_exhaustive(capsys):
    """Gotzmann iff star over every labeled graph on up to six vertices."""
    started = time.perf_counter()
    summary = verify_star_theorem(CENSUS_MAX_VERTICES, workers=1)
    elapsed = time.perf_counter() - started
    expected_graphs = sum(
        2 ** binomial(n, 2) for n in range(1, CENSUS_MAX_VERTICES + 1)
    )
    assert summary.graphs_checked == expected_graphs
    assert summary.mismatches == 0
    assert summary.stars_found == summary.gotzmann_found
    # labeled stars on n vertices: edgeless, single edges, and a centre
    # joined to at least two of the other n - 1 vertices
    assert summary.stars_found == sum(
        1 + binomial(n, 2) + n * (2 ** (n - 1) - n)
        for n in range(1, CENSUS_MAX_VERTICES + 1)
    ) == 271
    assert elapsed < 60.0

    # the same run must be reachable through the CLI
    code = main(["verify-star-theorem", "--max-vertices", "3", "--machine"])
    out = capsys.readouterr().out
    assert code == 0
    assert "mismatches=0" in out
    passline(1, f"{summary.graphs_checked} graphs, 0 mismatches, {elapsed:.1f}s")


def test_criterion_2_paper_example(tmp_path, capsys):
    """The worked example: f-vector (4,5,1) and H(P/I,3) = 15, exactly."""
    path = tmp_path / "example.ideal"
    path.write_text("4\n1:1 2:1 3:1\n1:1 4:1\n")

    code = main(["fvector", "--ideal", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "4 5 1\n"

    code = main(["hilbert", "--ideal", str(path), "--degree", "3", "--machine"])
    out = capsys.readouterr().out
    assert code == 0
    assert "h_quotient=15" in out
    passline(2, "f-vector 4 5 1 and H(P/I,3)=15")


def test_criterion_3_degree_three_closed_form(random_graph_sample):
    """2e + t equals the degree-3 enumeration oracle on every sampled graph."""
    for g in random_graph_sample:
        assert hilbert_edge_ideal_deg3(g) == hilbert_ideal(edge_ideal(g), 3)
    passline(3, f"{len(random_graph_sample)} graphs, exact")


def test_criterion_4_quadratic_closed_form():
    """Certifier verdict iff H(I,3) = mn + m/2 - m^2/2, exhaustively on n <= 5."""
    checked = 0
    for n in range(1, 6):
        for mask in range(1 << len(edge_pairs(n))):
            g = Graph.from_edge_mask(n, mask)
            m = g.edge_count
            if m > n:
                continue
            ideal = edge_ideal(g)
            closed_form_hit = hilbert_ideal(ideal, 3) == gotzmann_value_deg2(n, m)
            assert certify(ideal).is_gotzmann == closed_form_hit
            checked += 1
    passline(4, f"{checked} square-free quadratic ideals, exact")


def test_criterion_5_edge_bound(census):
    """Every Gotzmann edge ideal in the census has e <= n - 1."""
    gotzmann_records = [r for r in census if r.gotzmann]
    assert gotzmann_records
    for r in gotzmann_records:
        assert r.edges <= r.n - 1
    passline(5, f"{len(gotzmann_records)} Gotzmann ideals, 0 exceptions")


def test_criterion_6_squarefree_kk_equality(census):
    """Every certified-Gotzmann square-free ideal satisfies f_d = f_(d-1)^(d)."""
    checked = 0
    for r in census:
        if r.gotzmann:
            assert r.square_free_check is True
            checked += 1
    # the criterion-4 family (e <= n <= 5 edge ideals) is a subset of the
    # census, so it is covered by the loop above
    passline(6, f"{checked} Gotzmann square-free ideals, 0 exceptions")


def test_criterion_7_macaulay_arithmetic():
    """Round-trip for a <= 10000, d <= 6; uniqueness for a <= 200, d <= 4."""
    cases = 0
    for d in range(1, 7):
        for a in range(10_001):
            rep = macaulay_rep(a, d)
            assert len(rep.coefficients) == d
            assert rep.value() == a
            cases += 1

    unique_cases = 0
    for d in range(1, 5):
        for a in range(201):
            bound = d
            while binomial(bound, d) <= a:
                bound += 1
            matches = [
                tuple(reversed(asc))
                for asc in combinations(range(bound), d)
                if sum(
                    binomial(b, i)
                    for b, i in zip(reversed(asc), range(d, 0, -1))
                ) == a
            ]
            assert matches == [macaulay_rep(a, d).coefficients]
            unique_cases += 1
    passline(7, f"{cases} round-trips, {unique_cases} uniqueness checks")


def test_criterion_8_lex_segments_are_gotzmann():
    """Every lex-segment ideal with n <= 5, d <= 3 certifies Gotzmann."""
    checked = 0
    for n in range(1, 6):
        for d in range(1, 4):
            for count in range(hilbert_ring(n, d) + 1):
                assert certify(lex_segment_ideal(n, d, count)).is_gotzmann
                checked += 1
    passline(8, f"{checked} lex segments, all Gotzmann")


def test_criterion_9_kruskal_katona_round_trip(census):
    """Independence-complex f-vectors are valid and compressible, exactly."""
    distinct = {r.independence_f_vector for r in census}
    nonempty = [fv for fv in distinct if fv]
    assert nonempty
    for counts in nonempty:
        fv = FVector(counts)
        assert is_valid_f_vector(fv)
        assert f_vector(compressed_complex(fv)).counts == counts

    # integrity check: the census face counts agree with an independent
    # itertools count of independent sets on a spot-check sample
    for n, mask in [(4, 0), (4, 0b101), (5, 0b1010101), (6, 0b111)]:
        g = Graph.from_edge_mask(n, mask)
        fv = f_vector(stanley_reisner_complex(edge_ideal(g)))
        counts = [
            independent_sets_of_size(n, set(g.edges), size) for size in range(1, n + 1)
        ]
        while counts and counts[-1] == 0:
            counts.pop()
        assert fv.counts == tuple(counts)
    passline(9, f"{len(nonempty)} distinct f-vectors round-tripped")


def test_criterion_10_dependent_triple_closed_form(random_graph_sample):
    """t_v closed form equals triple enumeration for every vertex."""
    vertices = 0
    for g in random_graph_sample:
        for v in range(1, g.vertex_count + 1):
            assert dependent_triples_through(g, v) == \
                dependent_triples_through_closed_form(g, v)
            vertices += 1
    passline(10, f"{vertices} vertex checks, exact")


def test_macaulay_bound_soundness(census):
    """Safety net behind several criteria: H(P/I,d+1) never beats the bound."""
    # GotzmannReport enforces the bound at construction, so reaching here
    # with a full census means no violation occurred; spot-check the
    # arithmetic once more on the worked star example
    star = Graph.from_edge_list(7, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6)])
    ideal = edge_ideal(star)
    h2 = hilbert_quotient(ideal, 2)
    assert hilbert_quotient(ideal, 3) <= macaulay_pseudopower(h2, 2)
    assert kruskal_katona_pseudopower(16, 2) == 20
    assert len(census) == sum(2 ** binomial(n, 2) for n in range(1, 7))
