"""Tests for monomials, ideals and the enumeration-based Hilbert functions."""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gotzmann import monomials
from gotzmann.combinatorics import binomial, macaulay_pseudopower
from gotzmann.monomials import (
    Monomial,
    MonomialIdeal,
    contains,
    degree_part,
    hilbert_ideal,
    hilbert_quotient,
    hilbert_ring,
    lex_segment_ideal,
    packed_monomials,
    packing,
)
from oracles import all_monomials, count_in_ideal, divides, minimal_under


def ideal(n, *gens, degree=None):
    return MonomialIdeal.from_generators(
        n, [Monomial(g) for g in gens], degree=degree
    )


PAPER_EXAMPLE = ideal(4, (1, 1, 1, 0), (1, 0, 0, 1))
STAR7 = ideal(
    7,
    (1, 1, 0, 0, 0, 0, 0),
    (1, 0, 1, 0, 0, 0, 0),
    (1, 0, 0, 1, 0, 0, 0),
    (1, 0, 0, 0, 1, 0, 0),
    (1, 0, 0, 0, 0, 1, 0),
)


class TestMonomial:
    def test_degree_and_squarefree(self):
        m = Monomial((2, 0, 1))
        assert m.degree == 3
        assert not m.is_squarefree
        assert Monomial((1, 1, 0)).is_squarefree

    def test_cached_degree_leaves_equality_and_hash_alone(self):
        read, fresh = Monomial((2, 0, 1)), Monomial((2, 0, 1))
        assert read.degree == 3
        assert read == fresh and hash(read) == hash(fresh)
        assert read != Monomial((1, 1, 1))  # same degree, other exponents

    def test_support_is_one_indexed(self):
        assert Monomial((0, 1, 2)).support == frozenset({2, 3})

    def test_squarefree_constructor(self):
        assert Monomial.squarefree(4, [1, 4]).exponents == (1, 0, 0, 1)
        with pytest.raises(ValueError):
            Monomial.squarefree(3, [4])
        with pytest.raises(ValueError):
            Monomial.squarefree(3, [2, 2])

    def test_divides(self):
        assert Monomial((1, 1, 0)).divides(Monomial((1, 1, 1)))
        assert not Monomial((1, 1, 0)).divides(Monomial((1, 0, 1)))

    def test_str(self):
        assert str(Monomial((2, 1, 0))) == "x1^2*x2"

    def test_str_of_the_unit(self):
        assert str(Monomial((0, 0))) == "1"


@pytest.mark.parametrize("build, message", [
    (lambda: Monomial(()), "monomial needs at least one variable slot"),
    (lambda: Monomial((1, -1)), "exponents must be non-negative"),
    (lambda: Monomial((1, 0)).divides(Monomial((1, 0, 0))), "monomials live over different variable counts"),
    (lambda: MonomialIdeal(0, 1, frozenset()), "need at least one ambient variable"),
    (lambda: MonomialIdeal(2, 0, frozenset()), "generation degree must be positive"),
    (lambda: MonomialIdeal(2, None, frozenset({Monomial((0, 0))})), "the unit monomial cannot be a generator"),
    (lambda: MonomialIdeal(2, 2, frozenset({Monomial((1, 0))})), "generator x1 has degree 1, expected 2"),
    (lambda: hilbert_ring(0, 1), "need at least one variable$"),
    (lambda: hilbert_ring(2, -1), "degree must be non-negative"),
    (lambda: degree_part(PAPER_EXAMPLE, -1), "degree must be non-negative"),
], ids=["no variables", "negative exponent", "divides across variable counts", "ideal without variables",
        "generation degree 0", "unit generator", "generator of the wrong degree", "ring without variables",
        "ring in negative degree", "degree part in negative degree"])
def test_refusals(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def exponent_lists(max_size):
    """A variable count n <= 4 and non-zero exponent vectors over n variables, of mixed degrees."""
    return st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(*[st.integers(0, 3)] * n).filter(any), min_size=1, max_size=max_size)))


class TestMonomialIdeal:
    def test_normalization_removes_redundant(self):
        i = ideal(3, (1, 1, 0), (1, 1, 1))
        assert len(i.generators) == 1
        assert i.generation_degree == 2

    def test_mixed_degrees_allowed(self):
        assert not PAPER_EXAMPLE.is_equigenerated

    def test_zero_ideal_needs_degree(self):
        with pytest.raises(ValueError):
            MonomialIdeal.from_generators(3, [])
        z = MonomialIdeal.from_generators(3, [], degree=2)
        assert z.is_zero and z.generation_degree == 2

    def test_wrong_declared_degree(self):
        with pytest.raises(ValueError):
            ideal(3, (1, 1, 0), degree=3)

    def test_direct_construction_rejects_redundant_generator(self):
        x1, x1x2 = Monomial((1, 0, 0)), Monomial((1, 1, 0))
        with pytest.raises(ValueError, match="redundant"):
            MonomialIdeal(3, None, frozenset({x1, x1x2}))

    @given(exponent_lists(max_size=25))
    @settings(max_examples=200)
    def test_minimal_generators_match_oracle(self, drawn):
        n, vectors = drawn
        kept = MonomialIdeal.from_generators(n, map(Monomial, vectors)).generators
        assert {g.exponents for g in kept} == minimal_under(vectors, divides)

    @given(exponent_lists(max_size=6))
    @settings(max_examples=200)
    def test_direct_construction_needs_an_antichain(self, drawn):
        n, vectors = drawn
        gens = frozenset(map(Monomial, vectors))
        if minimal_under(vectors, divides) == set(vectors):
            assert MonomialIdeal(n, None, gens).generators == gens
        else:
            with pytest.raises(ValueError, match="redundant"):
                MonomialIdeal(n, None, gens)

    def test_generator_outside_ambient(self):
        with pytest.raises(ValueError):
            MonomialIdeal.from_generators(2, [Monomial((1, 1, 0))])


class TestHilbertRing:
    def test_constants(self):
        for n in (1, 3, 7):
            assert hilbert_ring(n, 0) == 1

    def test_against_enumeration(self):
        for n in range(1, 8):
            for k in range(6):
                assert hilbert_ring(n, k) == len(all_monomials(n, k))
        assert hilbert_ring(7, 2) == 28
        assert hilbert_ring(7, 3) == 84

    def test_bit_bound(self):
        # H(P, k) = C(N, r) <= N^r for N = n + k - 1 and r = min(n - 1, k), so for r >= 1 it has
        # at most r * N.bit_length() bits; at r = 0 it is 1
        for n in range(1, 61):
            for k in range(61):
                big, r = n + k - 1, min(n - 1, k)
                assert hilbert_ring(n, k).bit_length() <= max(1, r * big.bit_length())

    def test_both_sides_of_a_small_bit_cap(self, monkeypatch):
        # with 20 bits allowed, N = n + k - 1 = 31 passes at r = 4 and N = 32 is refused
        monkeypatch.setattr(monomials, "MAX_HILBERT_BITS", 20)
        assert (hilbert_ring(5, 27), hilbert_ring(28, 4)) == (binomial(31, 4), binomial(31, 4))
        for n, k in ((5, 28), (29, 4)):
            with pytest.raises(ValueError, match=f"^H\\(P, {k}\\) in {n} variables could have 24 bits, more than 20$"):
                hilbert_ring(n, k)
        with pytest.raises(ValueError, match="more than 20$"):
            hilbert_quotient(ideal(5, (1, 0, 0, 0, 0)), 28)

    def test_lex_descending_order(self):
        # two bits per exponent: x1^2 = 2, x1 * x2 = 1 + (1 << 2), x3^2 = 2 << 4
        ms = packed_monomials(3, 2, 2)
        assert ms == (2, 1 | 1 << 2, 1 | 1 << 4, 2 << 2, 1 << 2 | 1 << 4, 2 << 4)

    def test_order_matches_oracle(self):
        # the certifier's bitsets and lex segments both rest on this order
        for n in range(1, 8):
            for k in range(6):
                w = max(1, k.bit_length())
                expected = tuple(sum(e << w * i for i, e in enumerate(m)) for m in all_monomials(n, k))
                assert packed_monomials(n, k, w) == expected, (n, k)

    def test_enumeration_cap_both_sides(self, monkeypatch):
        # with the cap lowered to 15: C(6, 4) = 15 quartics in 3 variables are
        # listed, C(7, 5) = 21 quintics are refused
        monkeypatch.setattr(monomials, "MAX_DEGREE_MONOMIALS", 15)
        packed_monomials.cache_clear()
        assert len(packed_monomials(3, 4, 3)) == 15
        with pytest.raises(ValueError, match="more than 15 monomials"):
            packed_monomials(3, 5, 3)

    def test_exponent_cap_both_sides(self, monkeypatch):
        # with the cap lowered to 64: 32 linear monomials of 32 exponents fill the
        # 16 * 64 = 1024 exponents, 33 of 33 pass them
        monkeypatch.setattr(monomials, "MAX_DEGREE_MONOMIALS", 64)
        packed_monomials.cache_clear()
        assert len(packed_monomials(32, 1, 1)) == 32
        with pytest.raises(ValueError, match="1024 exponents in all"):
            packed_monomials(33, 1, 1)


class TestHilbertIdeal:
    @pytest.mark.parametrize("cap, n, k, exponents, message", [
        # products of 2 * 16 bits take 68 bytes each, so 160 of them fill 640 * 17 = 10880 bytes:
        # 80 generators of degree 39999 times the 2 linear monomials fill them, 81 pass them
        (17, 2, 40000, [(a, 39999 - a) for a in range(81)],
         "I_40000 has 162 products g * m of 32 bits, about 11016 bytes as a set, more than 10880"),
        # x1^39999 times the 2 linear monomials and 158 generators of degree 40000 fill them; 159 pass them
        (17, 2, 40000, [(39999, 0)] + [(a, 40000 - a) for a in range(159)],
         "I_40000 has 161 products g * m of 32 bits, about 10948 bytes as a set, more than 10880"),
        # products of 128 * 2 bits take 96 bytes each: 60 quadrics fill 640 * 9 = 5760 bytes, 61 pass them
        (9, 128, 2, [tuple(int(v in (i, i + 1)) for v in range(128)) for i in range(61)],
         "I_2 has 61 products g * m of 256 bits, about 5856 bytes as a set, more than 5760"),
    ], ids=["one degree", "two degrees", "wide"])
    def test_product_cap_both_sides(self, monkeypatch, cap, n, k, exponents, message):
        *under, last = map(Monomial, exponents)
        expected = hilbert_ideal(MonomialIdeal.from_generators(n, under), k)
        monkeypatch.setattr(monomials, "MAX_DEGREE_MONOMIALS", cap)
        assert hilbert_ideal(MonomialIdeal.from_generators(n, under), k) == expected
        with pytest.raises(ValueError, match=fr"^{re.escape(message)}$"):
            hilbert_ideal(MonomialIdeal.from_generators(n, [*under, last]), k)

    def test_listing_cap_is_applied_before_the_product_cap(self, monkeypatch):
        # 16 quintics times the 6 quadrics take 96 * 65 bytes, past 640 * 3; the 6 quadrics pass the listing cap first
        monkeypatch.setattr(monomials, "MAX_DEGREE_MONOMIALS", 3)
        packed_monomials.cache_clear()
        quintics = [Monomial(e) for e in all_monomials(3, 5)[:16]]
        with pytest.raises(ValueError, match="degree 2 in 3 variables has more than 3 monomials"):
            hilbert_ideal(MonomialIdeal.from_generators(3, quintics), 7)

    def test_paper_example(self):
        assert hilbert_ideal(PAPER_EXAMPLE, 3) == 5
        assert hilbert_quotient(PAPER_EXAMPLE, 3) == 15

    def test_below_generation_degree(self):
        assert hilbert_ideal(STAR7, 1) == 0
        assert hilbert_ideal(PAPER_EXAMPLE, 1) == 0

    def test_star_value(self):
        assert hilbert_ideal(STAR7, 3) == 25
        assert hilbert_quotient(STAR7, 2) == 23

    def test_zero_ideal_quotient(self):
        z = MonomialIdeal.from_generators(7, [], degree=2)
        assert hilbert_quotient(z, 2) == 28

    def test_generator_count_in_generation_degree(self):
        assert hilbert_ideal(STAR7, 2) == 5

    @given(
        st.integers(2, 4),
        st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_independent_oracle(self, n, degrees, data):
        pool = [m for d in degrees for m in all_monomials(n, d)]
        gens = data.draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=5, unique=True)
        )
        i = MonomialIdeal.from_generators(n, [Monomial(g) for g in gens])
        for k in range(max(degrees) + 3):
            assert hilbert_ideal(i, k) == count_in_ideal(gens, n, k)

    @given(st.integers(2, 4), st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_macaulay_bound_holds(self, n, d, data):
        pool = all_monomials(n, d)
        gens = data.draw(
            st.lists(st.sampled_from(pool), min_size=0, max_size=6, unique=True)
        )
        i = MonomialIdeal.from_generators(n, [Monomial(g) for g in gens], degree=d)
        h_d = hilbert_quotient(i, d)
        assert hilbert_quotient(i, d + 1) <= macaulay_pseudopower(h_d, d)

    def test_monotone_in_generators(self):
        base = ideal(4, (1, 1, 0, 0))
        bigger = ideal(4, (1, 1, 0, 0), (0, 0, 1, 1))
        for k in range(2, 6):
            assert hilbert_ideal(base, k) <= hilbert_ideal(bigger, k)


# The packed field width is max(1, k.bit_length()): it changes between 1 and 2,
# 3 and 4, 7 and 8, and at k = 1, 3 and 7 a pure power x_i^k fills its field.
WIDTH_BOUNDARIES = (1, 2, 3, 4, 7, 8)


class TestPackedEnumeration:
    def test_layout(self):
        # k = 2 packs two bits per variable: x1 * x2 = 1 + 4, x2^2 = 2 << 2
        assert packing(2, 2) == (2, 0b1010)
        assert degree_part(ideal(2, (0, 1)), 2) == {5, 8}

    @pytest.mark.parametrize("k", WIDTH_BOUNDARIES)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pure_powers(self, n, k):
        for d in range(1, k + 1):
            powers = [tuple(d * (j == i) for j in range(n)) for i in range(n)]
            for gens in ([powers[0]], [powers[-1]], powers):
                i = ideal(n, *gens)
                assert hilbert_ideal(i, k) == count_in_ideal(gens, n, k), (gens, k)

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_mixed_degrees(self, n, data):
        pool = [m for d in range(1, 5) for m in all_monomials(n, d)]
        gens = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
        i = MonomialIdeal.from_generators(n, [Monomial(g) for g in gens])
        for k in WIDTH_BOUNDARIES:
            assert hilbert_ideal(i, k) == count_in_ideal(gens, n, k)

    @pytest.mark.parametrize("k", WIDTH_BOUNDARIES)
    def test_squarefree_mask(self, k):
        n = max(k, 2)
        gens = [(1,) + (0,) * (n - 1), (0, 2) + (0,) * (n - 2), (0,) * (n - 1) + (1,)]
        expected = sum(
            1 for m in all_monomials(n, k)
            if max(m) <= 1 and any(divides(g, m) for g in gens)
        )
        _, high = packing(n, k)
        assert sum(1 for m in degree_part(ideal(n, *gens), k) if not m & high) == expected


class TestLexSegment:
    def test_first_two_of_degree_two(self):
        i = lex_segment_ideal(3, 2, 2)
        assert {g.exponents for g in i.generators} == {(2, 0, 0), (1, 1, 0)}

    def test_empty_segment(self):
        i = lex_segment_ideal(3, 2, 0)
        assert i.is_zero and i.generation_degree == 2

    def test_full_segment(self):
        i = lex_segment_ideal(3, 2, 6)
        assert hilbert_quotient(i, 2) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lex_segment_ideal(3, 2, 7)
        with pytest.raises(ValueError):
            lex_segment_ideal(3, 2, -1)

    def test_segments_are_prefixes_of_the_lex_order(self):
        for n in range(1, 6):
            for d in range(1, 4):
                pool = all_monomials(n, d)
                for count in range(len(pool) + 1):
                    gens = lex_segment_ideal(n, d, count).sorted_generators()
                    assert [g.exponents for g in gens] == pool[:count], (n, d, count)

    def test_cap_counts_the_segment(self, monkeypatch):
        # with the cap lowered to 4: four of the 10 quadrics in 4 variables are listed,
        # five are refused; 16 * 4 = 64 exponents admit one quadric in 64 variables
        monkeypatch.setattr(monomials, "MAX_DEGREE_MONOMIALS", 4)
        assert len(lex_segment_ideal(4, 2, 4).generators) == 4
        with pytest.raises(ValueError, match="more than 4 monomials"):
            lex_segment_ideal(4, 2, 5)
        assert len(lex_segment_ideal(64, 2, 1).generators) == 1
        with pytest.raises(ValueError, match="64 exponents in all"):
            lex_segment_ideal(65, 2, 1)

    def test_segments_meet_macaulay_bound(self):
        # the Gotzmann property of lex segments, small sweep; the full
        # n <= 5, d <= 3 sweep is in the acceptance suite
        for n in (2, 3):
            for d in (1, 2):
                for count in range(hilbert_ring(n, d) + 1):
                    i = lex_segment_ideal(n, d, count)
                    h_d = hilbert_quotient(i, d)
                    assert hilbert_quotient(i, d + 1) == macaulay_pseudopower(h_d, d)


class TestContains:
    def test_divisibility(self):
        i = ideal(3, (1, 1, 0))
        assert contains(i, Monomial((1, 1, 1)))
        assert not contains(i, Monomial((1, 0, 1)))

    def test_paper_example_membership(self):
        assert contains(PAPER_EXAMPLE, Monomial((1, 1, 0, 1)))

    def test_wrong_ambient(self):
        with pytest.raises(ValueError):
            contains(PAPER_EXAMPLE, Monomial((1, 1)))
