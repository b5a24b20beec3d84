"""Tests for the Gotzmann certifier, closed forms and the theorem verifier."""
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gotzmann import certifier
from gotzmann.certifier import (
    GotzmannReport,
    StarTheoremMismatch,
    _check_blocks,
    _edge_tables,
    _representatives,
    _subset_table,
    _tables,
    certify,
    check_edge_bound,
    gotzmann_value_deg2,
    verify_star_theorem,
)
from gotzmann.combinatorics import binomial, kruskal_katona_pseudopower, macaulay_pseudopower
from gotzmann.graphs import Graph, edge_ideal, edge_pairs, is_star
from gotzmann.monomials import (
    Monomial,
    MonomialIdeal,
    hilbert_ideal,
    hilbert_quotient,
    lex_segment_ideal,
)
from oracles import all_monomials, stanley_reisner_faces, vertex_mask

STAR7 = Graph.from_edge_list(7, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6)])
TRIANGLE = Graph.from_edge_list(3, [(1, 2), (1, 3), (2, 3)])


@pytest.fixture
def uncached_tables(monkeypatch):
    """_tables built afresh on every call for one test: its cache is keyed by n, free and the
    pseudo-powers, not by the edge tables, so a test that patches _edge_tables would otherwise
    read the tables of the true ones, or leave its own behind."""
    monkeypatch.setattr(certifier, "_tables", certifier._tables.__wrapped__)


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
        with pytest.raises(ArithmeticError, match="Macaulay bound violated"):
            GotzmannReport(degree_d=2, h_quotient_d=10, h_quotient_d1=12,
                           macaulay_bound=11)

    def test_positional_call_refused(self):
        # the old field order put is_gotzmann fifth; it must not land in
        # square_free_check
        with pytest.raises(TypeError):
            GotzmannReport(2, 10, 11, 11, False)


@st.composite
def equigenerated_ideals(draw):
    """A lex segment or a random ideal generated in degree d <= 3 on n <= 5 variables."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    pool = all_monomials(n, d)
    if draw(st.booleans()):
        return lex_segment_ideal(n, d, draw(st.integers(0, len(pool))))
    generators = draw(st.lists(st.sampled_from(pool), unique=True, max_size=6))
    return MonomialIdeal.from_generators(n, [Monomial(g) for g in generators], degree=d)


class TestGotzmannPersistence:
    """Gotzmann's persistence theorem (1978; Bruns-Herzog, Thm 4.3.3): if I is generated in
    degree <= d and H(P/I, d+1) = H(P/I, d)^<d>, then H(P/I, d+2) = H(P/I, d+1)^<d+1>.
    Macaulay's theorem bounds H(P/I, d+2) by the same pseudo-power for any ideal."""

    @staticmethod
    def next_degree(ideal):
        """(H(P/I, d+2), H(P/I, d+1)^<d+1>) for an ideal generated in degree d."""
        d = ideal.generation_degree
        return (hilbert_quotient(ideal, d + 2),
                macaulay_pseudopower(hilbert_quotient(ideal, d + 1), d + 1))

    @given(equigenerated_ideals())
    @example(lex_segment_ideal(5, 3, 17))
    @example(MonomialIdeal.from_generators(4, [Monomial((1, 1, 0, 0)), Monomial((1, 0, 1, 0))], degree=2))
    @settings(max_examples=120, deadline=None)
    def test_every_gotzmann_verdict_persists(self, ideal):
        h_next, bound = self.next_degree(ideal)
        assert h_next <= bound
        if certify(ideal).is_gotzmann:
            assert h_next == bound

    def test_star_edge_ideals_persist(self):
        persisted = 0
        for n in range(1, 7):
            for mask in range(1 << binomial(n, 2)):
                g = Graph.from_edge_mask(n, mask)
                if is_star(g):
                    ideal = edge_ideal(g)
                    assert certify(ideal).is_gotzmann
                    h_next, bound = self.next_degree(ideal)
                    persisted += h_next == bound
        assert persisted == 271  # the labeled stars on 1..6 vertices


class TestDegreeTwoClosedForm:
    def test_star_value(self):
        assert gotzmann_value_deg2(7, 5) == 25

    def test_zero_ideal(self):
        assert gotzmann_value_deg2(9, 0) == 0

    def test_path_value(self):
        assert gotzmann_value_deg2(3, 2) == 5

    def test_needs_a_variable(self):
        with pytest.raises(ValueError, match="need at least one variable"):
            gotzmann_value_deg2(0, 0)

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

    def test_per_vertex_count_record(self):
        summary = verify_star_theorem(7)
        stars = [1 + binomial(n, 2) + n * (2 ** (n - 1) - n) for n in range(1, 8)]
        assert [record[:5] for record in summary.per_n] == [
            (n, 1 << binomial(n, 2), s, s, blocks)
            for n, s, blocks in zip(range(1, 8), stars, (1, 2, 6, 13, 24, 40, 62))
        ]
        assert all(0 <= record.seconds <= summary.wall_time_seconds for record in summary.per_n)
        assert (summary.graphs_checked, summary.stars_found) == (
            sum(r.graphs for r in summary.per_n), sum(r.stars for r in summary.per_n))
        # bench/ and --machine read the older fields; per_n only trails them
        assert list(summary._fields) == [
            "max_vertices", "graphs_checked", "stars_found", "gotzmann_found", "mismatches",
            "wall_time_seconds", "per_n"]

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="^max_vertices must be in 1..10, not 0$"):
            verify_star_theorem(0)
        with pytest.raises(ValueError, match="^max_vertices must be in 1..10, not 11$"):
            verify_star_theorem(11)
        with pytest.raises(ValueError, match="^workers must be 1, not 0$"):
            verify_star_theorem(3, workers=0)
        with pytest.raises(ValueError, match="^workers must be 1, not 2$"):
            verify_star_theorem(3, workers=2)

    @pytest.mark.usefixtures("uncached_tables")
    def test_wrong_table_entry_reports_its_graph(self, monkeypatch):
        # Count x3^3, which no edge ideal contains, as a multiple of x1*x2 on
        # four vertices: every star through edge 12 turns non-Gotzmann, and
        # the single edge 12 (mask 1) is the lowest such mask.
        cached = certifier._edge_tables
        edges, squarefree = cached(4)
        (multiples, vertices), *rest = edges
        wrong = multiples | 1 << all_monomials(4, 3).index((0, 0, 3, 0))
        monkeypatch.setattr(
            certifier, "_edge_tables",
            lambda n: (((wrong, vertices), *rest), squarefree) if n == 4 else cached(n),
        )
        with pytest.raises(StarTheoremMismatch) as info:
            verify_star_theorem(4)
        assert info.value.graph == Graph.from_edge_mask(4, 1)
        assert "is_gotzmann=False, is_star=True" in str(info.value)

    def test_a_second_run_builds_no_tables(self):
        verify_star_theorem(8)
        built = certifier._tables.cache_info().currsize
        verify_star_theorem(8)
        assert certifier._tables.cache_info().currsize == built

    @pytest.mark.usefixtures("uncached_tables")
    def test_lane_tables_follow_a_patched_edge_table(self, monkeypatch):
        # As above, but on (3, 4), the last edge at n = 4 and a lane edge, once the lane
        # tables of the true table have been built: the single edge 34 (mask 32) is reported.
        verify_star_theorem(4)
        cached = certifier._edge_tables
        edges, squarefree = cached(4)
        *rest, (multiples, vertices) = edges
        wrong = multiples | 1 << all_monomials(4, 3).index((3, 0, 0, 0))
        monkeypatch.setattr(
            certifier, "_edge_tables",
            lambda n: ((*rest, (wrong, vertices)), squarefree) if n == 4 else cached(n),
        )
        with pytest.raises(StarTheoremMismatch) as info:
            verify_star_theorem(4)
        assert info.value.graph == Graph.from_edge_mask(4, 1 << 5)

    def test_h3_above_the_macaulay_bound_is_an_arithmetic_error(self, monkeypatch):
        # one less than every bound: each Gotzmann graph now exceeds it, the lowest mask first
        true_bound = certifier.macaulay_pseudopower
        monkeypatch.setattr(certifier, "macaulay_pseudopower", lambda a, d: true_bound(a, d) - 1)
        with pytest.raises(ArithmeticError, match=r"H\(P/I,3\) = 1 > Macaulay bound 0 \(n=1, mask 0\)"):
            verify_star_theorem(4)
        with pytest.raises(ArithmeticError, match=r"= 26 > Macaulay bound 25 \(n=5, mask 12\)"):
            _check_blocks(5, 6, ((0b1100, 1),))

    def test_star_count_is_checked_per_vertex_count(self, monkeypatch):
        def one_star_too_many(n, free, blocks):
            checked, stars, gotz = _check_blocks(n, free, blocks)
            return checked, stars + (n == 3), gotz + (n == 3)

        monkeypatch.setattr(certifier, "_check_blocks", one_star_too_many)
        with pytest.raises(ArithmeticError, match="on 3 vertices"):
            verify_star_theorem(4)


# every depth, one past n too, up to n = 7 (at most 25,510 representatives); then depth <= 4
# at n = 8 and depth <= 3 at n = 9 and 10 (depth 4 at n = 10 has its own test)
CHAIN_DEPTHS = [(n, depth) for n in range(1, 11) for depth in range(n + 2)
                if depth <= (n + 1 if n <= 7 else 4 if n == 8 else 3)]


class TestOrbitReduction:
    def test_representative_counts_and_orbit_sum_identity(self):
        for n, depth in CHAIN_DEPTHS:
            free, representatives = _representatives(n, depth)
            assert free == binomial(max(n - depth, 0), 2)  # the edges among depth+1..n
            assert sum(weight << free for _, weight in representatives) == 1 << binomial(n, 2)
            assert all(0 <= fixed < 1 << binomial(n, 2) - free for fixed, _ in representatives)
        counts = {n: len(_representatives(n, 2)[1]) for n in range(1, 10)}
        assert (counts[1], counts[2]) == (1, 2)  # every mask is its own representative
        assert [counts[n] for n in (6, 7, 8, 9)] == [40, 62, 91, 128]
        assert len(_representatives(9, 3)[1]) == 2360
        assert len(_representatives(10, 3)[1]) == 4480

    def test_depth_four_at_ten_vertices(self):
        free, representatives = _representatives(10, 4)
        assert (free, len(representatives)) == (15, 125416)
        assert sum(weight << free for _, weight in representatives) == 1 << 45

    def test_depth_zero_and_one(self):
        # depth 0 is the labeled loop; depth 1 moves N(1) to {2..k+1}, in C(n-1, k) ways
        assert _representatives(5, 0) == (10, ((0, 1),))
        assert _representatives(5, 1) == (6, tuple(((1 << k) - 1, binomial(4, k)) for k in range(5)))

    def test_depth_two_keeps_the_closed_form_order(self):
        # N(1) = {2..k+1}; N(2) within 3..n = {3..a+2} u {j+2..j+b+1}, j = max(k, 1), in
        # C(j-1, a) C(n-1-j, b) ways, ascending in (k, a, b): the order patched-table tests rely on
        for n in range(2, 10):
            bit = {p: 1 << i for i, p in enumerate(edge_pairs(n))}
            closed_form = tuple(
                (sum(bit[1, v] for v in range(2, k + 2))
                 | sum(bit[2, v] for v in (*range(3, a + 3), *range(j + 2, j + b + 2))),
                 binomial(n - 1, k) * binomial(j - 1, a) * binomial(n - 1 - j, b))
                for k in range(n) for j in [max(k, 1)] for a in range(j) for b in range(n - j))
            assert _representatives(n, 2) == (binomial(n - 2, 2), closed_form)

    def test_weighted_counts_equal_the_labeled_loop(self):
        # every depth up to n = 6, and the verifier's depth 2 at n = 7
        for n, depth in [*((n, depth) for n in range(1, 7) for depth in range(n + 1)), (7, 2)]:
            free, representatives = _representatives(n, depth)
            assert _check_blocks(n, free, representatives) == _check_blocks(n, binomial(n, 2), ((0, 1),))

    def test_wrong_weight_breaks_the_orbit_sum(self, monkeypatch):
        cached = certifier._representatives

        def one_weight_too_many(n, depth):
            free, ((fixed, weight), *rest) = cached(n, depth)
            return free, ((fixed, weight + (n == 4)), *rest)

        monkeypatch.setattr(certifier, "_representatives", one_weight_too_many)
        with pytest.raises(ArithmeticError, match="orbit weights cover .* on 4 vertices"):
            verify_star_theorem(5)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_relabeling_keeps_the_report_and_star_ness(self, data):
        # the premise of the orbit reduction
        n = data.draw(st.integers(1, 7))
        g = Graph.from_edge_mask(n, data.draw(st.integers(0, (1 << binomial(n, 2)) - 1)))
        image = data.draw(st.permutations(range(1, n + 1)))
        relabeled = Graph.from_edge_list(n, [(image[u - 1], image[v - 1]) for u, v in g.sorted_edges()])
        assert certify(edge_ideal(relabeled)) == certify(edge_ideal(g))
        assert is_star(relabeled) == is_star(g)


def check_one(n, fixed, free):
    """_check_blocks over the one block fixed, with weight 1."""
    return _check_blocks(n, free, ((fixed, 1),))


@st.composite
def blocks(draw):
    """(n, fixed, free) for a one-block _check_blocks call with n <= 6."""
    n = draw(st.integers(1, 6))
    free = draw(st.integers(0, binomial(n, 2)))
    return n, draw(st.integers(0, (1 << binomial(n, 2) - free) - 1)), free


@st.composite
def weighted_blocks(draw):
    """(n, free, ((fixed, weight), ...)) for a _check_blocks call with n <= 6, maybe no blocks."""
    n = draw(st.integers(1, 6))
    free = draw(st.integers(0, min(binomial(n, 2), 8)))
    fixed = st.integers(0, (1 << binomial(n, 2) - free) - 1)
    return n, free, tuple(draw(st.lists(st.tuples(fixed, st.integers(0, 10**6)), max_size=5)))


class TestCheckBlock:
    def test_any_block_equals_its_single_masks(self):
        # n = 5: ten edges, the last four free
        for fixed in (0, 1, 0b100101, 0b111111):
            singles = [check_one(5, fixed | f << 6, 0) for f in range(16)]
            assert all(r[0] == 1 for r in singles)
            assert check_one(5, fixed, 4) == (
                16, sum(r[1] for r in singles), sum(r[2] for r in singles)
            )
        assert check_one(5, 0, 0) == (1, 1, 1)  # the edgeless graph

    @given(weighted_blocks())
    @example((4, 3, ()))  # no blocks: (0, 0, 0)
    @example((6, 6, ((0, 40), (0b101, 3), (0, 1))))  # a block may repeat
    @settings(max_examples=40, deadline=None)
    def test_blocks_sum_their_weighted_single_block_results(self, call):
        n, free, weighted = call
        expected = [0, 0, 0]
        for fixed, weight in weighted:
            expected = [e + weight * c for e, c in zip(expected, check_one(n, fixed, free))]
        assert _check_blocks(n, free, weighted) == tuple(expected)

    @given(blocks())
    @example((6, 0, 15))  # 12 lane edges, 3 high edges
    @example((6, 1, 14))
    @example((6, 0b10, 13))
    @example((5, 0b1011001, 0))  # one lane
    @settings(max_examples=25, deadline=None)
    def test_a_block_equals_the_sum_of_its_single_masks(self, block):
        n, fixed, free = block
        shift = binomial(n, 2) - free
        singles = [check_one(n, fixed | f << shift, 0) for f in range(1 << free)]
        assert check_one(n, fixed, free) == tuple(map(sum, zip(*singles)))

    def test_blocks_sum_to_the_whole_run(self):
        # fixing the first three edges in all eight ways splits the labeled loop
        total = binomial(6, 2)
        parts = [check_one(6, fixed, total - 3) for fixed in range(8)]
        whole = check_one(6, 0, total)
        # 1 + C(6, 2) + 6(2^5 - 6) = 172 labeled stars, each Gotzmann
        assert whole == (1 << total, 172, 172)
        assert tuple(sum(r[i] for r in parts) for i in range(3)) == whole

    def test_out_of_range_masks(self):
        for fixed, free in ((0, 4), (0, -1), (1 << 3, 0), (1 << 2, 1), (-1, 0)):
            with pytest.raises(ValueError):
                check_one(3, fixed, free)
        with pytest.raises(ValueError):  # a bad block after a good one
            _check_blocks(3, 1, ((0, 1), (1 << 2, 1)))


class TestSubsetTable:
    def test_vertex_v_is_bit_v_minus_1(self):
        # as in complexes: the edges' vertex masks and the keys of the star lanes, each lane's
        # guard bit set for vertex v when every low edge of the lane holds v
        n = 5
        edges, _ = _edge_tables(n)
        pairs = edge_pairs(n)
        assert [vertices for _, vertices in edges] == list(map(vertex_mask, pairs))
        _, w, _, _, _, stars, _, _ = _tables(n, len(edges), macaulay_pseudopower, kruskal_katona_pseudopower)
        assert stars == tuple(
            (vertex_mask({v}), sum(1 << lane * w + w - 1 for lane in range(1 << len(pairs))
                                   if all(v in pairs[i] for i in range(len(pairs)) if lane >> i & 1)))
            for v in range(1, n + 1))

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
