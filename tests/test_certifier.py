"""Tests for the Gotzmann certifier, closed forms and the theorem verifier."""
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gotzmann import certifier
from gotzmann.certifier import (
    GotzmannReport,
    StarTheoremMismatch,
    _check_mask_range,
    _edge_tables,
    _subset_table,
    certify,
    check_edge_bound,
    gotzmann_value_deg2,
    verify_star_theorem,
)
from gotzmann.combinatorics import kruskal_katona_pseudopower
from gotzmann.graphs import Graph, edge_ideal, edge_pairs
from gotzmann.monomials import (
    Monomial,
    MonomialIdeal,
    degree_monomials,
    hilbert_ideal,
    lex_segment_ideal,
)
from oracles import stanley_reisner_faces

STAR7 = Graph.from_edge_list(7, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6)])
TRIANGLE = Graph.from_edge_list(3, [(1, 2), (1, 3), (2, 3)])


class TestCertify:
    def test_star_is_gotzmann(self):
        report = certify(edge_ideal(STAR7))
        assert report.is_gotzmann
        assert report.h_quotient_d == 23
        assert report.h_quotient_d1 == 59
        assert report.macaulay_bound == 59
        assert report.square_free_check is True

    def test_triangle_is_not(self):
        report = certify(edge_ideal(TRIANGLE))
        assert not report.is_gotzmann
        assert report.h_quotient_d1 < report.macaulay_bound

    def test_lex_segment_is_gotzmann(self):
        report = certify(lex_segment_ideal(3, 2, 2))
        assert report.is_gotzmann
        # non-square-free input leaves the f-vector check unset
        assert report.square_free_check is None

    def test_zero_ideal_is_gotzmann(self):
        z = MonomialIdeal.from_generators(5, [], degree=2)
        assert certify(z).is_gotzmann

    def test_rejects_mixed_degrees(self):
        mixed = MonomialIdeal.from_generators(
            4, [Monomial((1, 1, 1, 0)), Monomial((1, 0, 0, 1))]
        )
        with pytest.raises(ValueError):
            certify(mixed)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_square_free_check_matches_oracle(self, data):
        n = data.draw(st.integers(1, 6))
        d = data.draw(st.integers(1, min(n, 3)))
        supports = data.draw(st.lists(
            st.sampled_from(list(combinations(range(1, n + 1), d))), unique=True
        ))
        ideal = MonomialIdeal.from_generators(
            n, [Monomial.squarefree(n, s) for s in supports], degree=d
        )
        faces = stanley_reisner_faces(n, [set(s) for s in supports])
        f_prev = sum(len(f) == d for f in faces)
        f_top = sum(len(f) == d + 1 for f in faces)
        assert certify(ideal).square_free_check == (
            f_top == kruskal_katona_pseudopower(f_prev, d)
        )

    def test_report_consistency_enforced(self):
        with pytest.raises(AssertionError, match="Macaulay bound violated"):
            GotzmannReport(degree_d=2, h_quotient_d=10, h_quotient_d1=12,
                           macaulay_bound=11)

    def test_positional_call_refused(self):
        # the old field order put is_gotzmann fifth; it must not land in
        # square_free_check
        with pytest.raises(TypeError):
            GotzmannReport(2, 10, 11, 11, False)


class TestDegreeTwoClosedForm:
    def test_star_value(self):
        assert gotzmann_value_deg2(7, 5) == 25

    def test_zero_ideal(self):
        assert gotzmann_value_deg2(9, 0) == 0

    def test_path_value(self):
        assert gotzmann_value_deg2(3, 2) == 5

    def test_lemma_hypothesis_enforced(self):
        with pytest.raises(ValueError):
            gotzmann_value_deg2(3, 4)

    @given(st.integers(1, 40), st.data())
    @settings(max_examples=100)
    def test_always_integer(self, n, data):
        m = data.draw(st.integers(0, n))
        value = gotzmann_value_deg2(n, m)
        assert 2 * value == m * (2 * n + 1 - m)

    def test_equivalence_with_certifier(self):
        # degree-two square-free ideals with at most n generators: verdict
        # iff H(I,3) hits the closed form (exhaustive n <= 4; the n <= 5
        # sweep is acceptance criterion 4)
        for n in range(2, 5):
            for mask in range(1 << len(edge_pairs(n))):
                g = Graph.from_edge_mask(n, mask)
                if g.edge_count > n:
                    continue
                ideal = edge_ideal(g)
                closed = gotzmann_value_deg2(n, g.edge_count)
                assert certify(ideal).is_gotzmann == (
                    hilbert_ideal(ideal, 3) == closed
                )

    @given(st.integers(2, 5), st.integers(2, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_non_squarefree_quadratic_sample(self, n, d, data):
        # the closed form only applies in degree two; sample degree-two
        # ideals with repeated variables allowed
        from oracles import all_monomials

        pool = all_monomials(n, 2)
        gens = data.draw(
            st.lists(st.sampled_from(pool), min_size=0, max_size=n, unique=True)
        )
        ideal = MonomialIdeal.from_generators(
            n, [Monomial(g) for g in gens], degree=2
        )
        m = hilbert_ideal(ideal, 2)
        if m <= n:
            closed = gotzmann_value_deg2(n, m)
            assert certify(ideal).is_gotzmann == (hilbert_ideal(ideal, 3) == closed)


class TestEdgeBound:
    def test_examples(self):
        assert not check_edge_bound(TRIANGLE)
        assert check_edge_bound(STAR7)
        k4 = Graph.from_edge_mask(4, (1 << 6) - 1)
        assert not check_edge_bound(k4)


class TestVerifyStarTheorem:
    def test_single_vertex(self):
        summary = verify_star_theorem(1)
        assert summary.graphs_checked == 1
        assert summary.stars_found == 1
        assert summary.gotzmann_found == 1
        assert summary.mismatches == 0

    def test_up_to_three_vertices(self):
        summary = verify_star_theorem(3)
        # 1 + 2 + 8 labeled graphs; on three vertices everything except
        # the triangle is a star
        assert summary.graphs_checked == 11
        assert summary.stars_found == 1 + 2 + 7
        assert summary.gotzmann_found == summary.stars_found
        assert summary.mismatches == 0

    def test_up_to_four_vertices(self):
        summary = verify_star_theorem(4)
        assert summary.graphs_checked == 11 + 64
        # hand census on 4 vertices: edgeless + 6 single edges + 12 paths
        # on three vertices + 4 claws = 23
        assert summary.stars_found == 10 + 23
        assert summary.gotzmann_found == summary.stars_found
        assert summary.mismatches == 0

    def test_workers_agree_with_single_thread(self):
        for max_vertices in (4, 5):
            serial = verify_star_theorem(max_vertices)
            parallel = verify_star_theorem(max_vertices, workers=2)
            assert (
                serial.graphs_checked,
                serial.stars_found,
                serial.gotzmann_found,
                serial.mismatches,
            ) == (
                parallel.graphs_checked,
                parallel.stars_found,
                parallel.gotzmann_found,
                parallel.mismatches,
            )

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_star_theorem(0)
        with pytest.raises(ValueError):
            verify_star_theorem(9)
        with pytest.raises(ValueError):
            verify_star_theorem(3, workers=0)

    def test_wrong_table_entry_reports_its_graph(self, monkeypatch):
        # Count x3^3, which no edge ideal contains, as a multiple of x1*x2 on
        # four vertices: every star through edge 12 turns non-Gotzmann, and
        # the single edge 12 (mask 1) is the lowest such mask.
        cached = certifier._edge_tables
        edges, squarefree = cached(4)
        (multiples, vertices), *rest = edges
        wrong = multiples | 1 << degree_monomials(4, 3).index((0, 0, 3, 0))
        monkeypatch.setattr(
            certifier, "_edge_tables",
            lambda n: (((wrong, vertices), *rest), squarefree) if n == 4 else cached(n),
        )
        with pytest.raises(StarTheoremMismatch) as info:
            verify_star_theorem(4)
        assert info.value.graph == Graph.from_edge_mask(4, 1)
        assert "is_gotzmann=False, is_star=True" in str(info.value)

    def test_star_count_is_checked_per_vertex_count(self, monkeypatch):
        def one_star_too_many(job):
            checked, stars, gotz, failure = _check_mask_range(job)
            return checked, stars + (job[0] == 3), gotz + (job[0] == 3), failure

        monkeypatch.setattr(certifier, "_check_mask_range", one_star_too_many)
        with pytest.raises(ArithmeticError, match="on 3 vertices"):
            verify_star_theorem(4)


class TestCheckMaskRange:
    def test_any_range_equals_its_single_masks(self):
        singles = [_check_mask_range((5, m, m + 1)) for m in range(3, 1000)]
        assert _check_mask_range((5, 3, 1000)) == (
            997,
            sum(r[1] for r in singles),
            sum(r[2] for r in singles),
            None,
        )
        assert _check_mask_range((5, 5, 5)) == (0, 0, 0, None)

    def test_uneven_ranges_sum_to_the_whole_run(self):
        # cut points that are no powers of two, as W equal ranges give for W = 3
        total = 1 << len(edge_pairs(6))
        parts = [_check_mask_range((6, lo, hi))
                 for lo, hi in ((0, 1000), (1000, 21845), (21845, total))]
        whole = _check_mask_range((6, 0, total))
        # 1 + C(6, 2) + 6(2^5 - 6) = 172 labeled stars, each Gotzmann
        assert whole == (total, 172, 172, None)
        assert tuple(sum(r[i] for r in parts) for i in range(3)) + (None,) == whole

    def test_out_of_range_masks(self):
        with pytest.raises(ValueError):
            _check_mask_range((3, 0, 9))
        with pytest.raises(ValueError):
            _check_mask_range((3, 2, 1))


class TestSubsetTable:
    def test_entries_equal_a_direct_or_and(self):
        for n in range(1, 6):
            edges, _ = _edge_tables(n)
            table = _subset_table(edges)
            assert len(table) == 1 << len(edges)
            for mask, (multiples, common) in enumerate(table):
                chosen = [edges[i] for i in range(len(edges)) if mask >> i & 1]
                expected_multiples, expected_common = 0, -1
                for m, v in chosen:
                    expected_multiples |= m
                    expected_common &= v
                assert (multiples, common) == (expected_multiples, expected_common)
