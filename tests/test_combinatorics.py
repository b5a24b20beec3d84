"""Tests for binomials, Macaulay representations and pseudo-powers."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gotzmann import combinatorics
from gotzmann.combinatorics import (
    MAX_BASE_STEPS,
    MacaulayRep,
    binomial,
    kruskal_katona_pseudopower,
    macaulay_pseudopower,
    macaulay_rep,
)
from oracles import pascal_triangle


class TestBinomial:
    def test_small_case(self):
        assert binomial(3, 2) == 3

    def test_zero_below_diagonal(self):
        assert binomial(2, 3) == 0

    def test_against_pascal_triangle(self):
        tri = pascal_triangle(61)
        for p in range(61):
            for q in range(p + 1):
                assert binomial(p, q) == tri[p][q]
        assert binomial(9, 3) == tri[9][3] == 84

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(3, -2)

    def test_no_overflow(self):
        # well beyond 64 bits
        assert binomial(200, 100) % 2 == 0
        assert binomial(200, 100) > 2**127

    def test_pascal_identity_range(self):
        # C(i, j) + C(i, j+1) = C(i+1, j+1), used to simplify pseudo-powers
        for i in range(61):
            for j in range(i):
                assert binomial(i, j) + binomial(i, j + 1) == binomial(i + 1, j + 1)


class TestMacaulayRep:
    def test_greedy_example(self):
        assert macaulay_rep(5, 2).coefficients == (3, 2)
        assert binomial(3, 2) + binomial(2, 1) == 5

    def test_zero_padding(self):
        assert macaulay_rep(0, 3).coefficients == (2, 1, 0)
        assert macaulay_rep(0, 3).value() == 0

    def test_terms_pair_each_coefficient_with_its_index(self):
        rep = macaulay_rep(23, 2)
        assert rep.terms == ((7, 2), (2, 1))
        assert sum(binomial(b, i) for b, i in rep.terms) == rep.value() == 23
        assert macaulay_rep(0, 3).terms == ((2, 3), (1, 2), (0, 1))

    def test_lemma_shaped_example(self):
        # 23 = C(7,2) + C(2,1), the H(P/I,2) value of the 7-vertex star
        assert macaulay_rep(23, 2).coefficients == (7, 2)

    def test_invariants_rejected(self):
        with pytest.raises(ValueError, match="at least one coefficient"):
            MacaulayRep(())
        with pytest.raises(ValueError, match="strictly decreasing"):
            MacaulayRep((2, 2))
        with pytest.raises(ValueError, match="non-negative"):
            MacaulayRep((-1,))
        with pytest.raises(ValueError):
            macaulay_rep(-1, 2)
        with pytest.raises(ValueError):
            macaulay_rep(5, 0)

    @given(st.integers(0, 10_000), st.integers(1, 6))
    @settings(max_examples=300)
    def test_round_trip(self, a, d):
        rep = macaulay_rep(a, d)
        assert len(rep.coefficients) == d
        assert rep.degree == d
        assert rep.value() == a

    def test_uniqueness_small(self):
        # every strictly decreasing coefficient tuple evaluating to a
        # must be the greedy one (a <= 60, d <= 3 here; the full a <= 200,
        # d <= 4 sweep lives in the acceptance suite)
        from itertools import combinations

        for d in range(1, 4):
            for a in range(61):
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


class TestBaseSearchCap:
    # b_d is searched from d - 1 upward and gets cap // d of the cap's steps,
    # so C(d + cap // d, d) is the least a refused.
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_both_sides_of_a_small_cap(self, monkeypatch, d):
        monkeypatch.setattr(combinatorics, "MAX_BASE_STEPS", 50)
        limit = binomial(d + 50 // d, d)
        assert macaulay_rep(limit - 1, d).coefficients[0] == d + 50 // d - 1
        with pytest.raises(ValueError, match="more than 50 steps"):
            macaulay_rep(limit, d)
        with pytest.raises(ValueError):
            macaulay_pseudopower(limit, d)
        with pytest.raises(ValueError):
            kruskal_katona_pseudopower(limit, d)

    def test_degree_counts_against_the_cap(self, monkeypatch):
        # each of the d coefficients takes a step: with the cap lowered to 50, d = 50 is
        # accepted and d = 51 refused, whatever a
        monkeypatch.setattr(combinatorics, "MAX_BASE_STEPS", 50)
        assert macaulay_rep(0, 50).coefficients == tuple(range(49, -1, -1))
        assert (macaulay_pseudopower(1, 50), kruskal_katona_pseudopower(1, 50)) == (1, 0)
        for f in (macaulay_rep, macaulay_pseudopower, kruskal_katona_pseudopower):
            with pytest.raises(ValueError, match=r"^d must be in 1\.\.50, not 51$"):
                f(0, 51)

    def test_real_cap_refuses_without_searching(self):
        with pytest.raises(ValueError):
            macaulay_rep(MAX_BASE_STEPS + 1, 1)
        with pytest.raises(ValueError):
            macaulay_rep(10 ** 12, 1)
        with pytest.raises(ValueError):
            macaulay_rep(binomial(4 + MAX_BASE_STEPS, 4), 4)

    def test_benchmark_range_accepted(self):
        # a < 10^6 at d = 1 and a < 10^12 at d = 2..8
        assert macaulay_rep(10 ** 6 - 1, 1).value() == 10 ** 6 - 1
        for d in range(2, 9):
            assert macaulay_rep(10 ** 12 - 1, d).value() == 10 ** 12 - 1

    def test_short_a_at_huge_degree(self):
        # a < 2^min(d, cap // d) needs no binomial C(d + cap // d, d) to be accepted
        rep = macaulay_rep(5, 100_000)
        assert rep.value() == 5
        assert rep.coefficients[:2] == (100_000, 99_999)


class TestPseudoPowers:
    def test_macaulay_examples(self):
        assert macaulay_pseudopower(0, 2) == 0
        assert macaulay_pseudopower(5, 2) == binomial(4, 3) + binomial(3, 2) == 7
        assert macaulay_pseudopower(23, 2) == binomial(8, 3) + binomial(3, 2) == 59

    def test_kruskal_katona_examples(self):
        assert kruskal_katona_pseudopower(0, 2) == 0
        assert kruskal_katona_pseudopower(5, 2) == 2
        # 16 = C(6,2) + C(1,1), so 16^(2) = C(6,3) + C(1,2) = 20
        assert kruskal_katona_pseudopower(16, 2) == 20

    @given(st.integers(0, 2_000), st.integers(1, 6))
    @settings(max_examples=200)
    def test_monotonicity(self, a, d):
        assert macaulay_pseudopower(a, d) <= macaulay_pseudopower(a + 1, d)
        assert kruskal_katona_pseudopower(a, d) <= kruskal_katona_pseudopower(a + 1, d)

    @given(st.integers(0, 2_000), st.integers(1, 6))
    @settings(max_examples=200)
    def test_kk_below_macaulay(self, a, d):
        assert kruskal_katona_pseudopower(a, d) <= macaulay_pseudopower(a, d)
