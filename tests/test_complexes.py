"""Tests for complexes, the Stanley-Reisner correspondence and f-vectors."""
import random
import time
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gotzmann import complexes
from gotzmann.complexes import (
    MAX_COMPLEX_FACES,
    FVector,
    SimplicialComplex,
    colex_subsets,
    compressed_complex,
    f_vector,
    hilbert_stanley_reisner,
    ideal_of_complex,
    is_valid_f_vector,
    squarefree_face_count,
    stanley_reisner_complex,
)
from gotzmann.monomials import (
    Monomial,
    MonomialIdeal,
    hilbert_quotient,
)
from oracles import colex_first, minimal_under, stanley_reisner_faces, vertex_mask

def sf_ideal(n, *supports):
    return MonomialIdeal.from_generators(
        n, [Monomial.squarefree(n, s) for s in supports]
    )


PAPER_EXAMPLE = sf_ideal(4, (1, 2, 3), (1, 4))


def random_squarefree_ideals(max_n=5):
    """Hypothesis strategy: a non-zero square-free ideal on up to max_n vars."""
    def build(data):
        n = data.draw(st.integers(2, max_n))
        supports = [
            c for size in range(1, n + 1)
            for c in combinations(range(1, n + 1), size)
        ]
        chosen = data.draw(
            st.lists(st.sampled_from(supports), min_size=1, max_size=6, unique=True)
        )
        return sf_ideal(n, *chosen)
    return build


class TestSimplicialComplex:
    # faces are vertex masks: bit v - 1 stands for vertex v
    def test_facets_must_be_incomparable(self):
        # the facets {1} and {1, 2} given as faces: {1, 2} lacks {2}
        with pytest.raises(ValueError, match=r"face \(1, 2\) lacks its subface without 1"):
            SimplicialComplex(3, frozenset({0, 0b001, 0b011}))

    @pytest.mark.parametrize("faces", [set(), {0b001}])
    def test_empty_face_required(self, faces):
        with pytest.raises(ValueError, match="empty face"):
            SimplicialComplex(3, frozenset(faces))

    def test_subfaces_required(self):
        with pytest.raises(ValueError, match="lacks its subface"):
            SimplicialComplex(3, frozenset({0, 0b001, 0b010, 0b011, 0b100, 0b111}))

    @pytest.mark.parametrize(
        "faces, message",
        [
            ({0, -1}, "face mask -1 outside"),
            ({0, 0b1000}, "face mask 8 outside"),
            ({0, 0b001, 0b010, 0b100, 0b101, 0b110, 0b111}, r"face \(1, 2, 3\) lacks its subface without 3"),
        ],
        ids=["negative mask", "bit at ground size", "missing subface"],
    )
    def test_bad_masks_rejected(self, faces, message):
        with pytest.raises(ValueError, match=message):
            SimplicialComplex(3, frozenset(faces))

    def test_masks_accepted(self):
        c = SimplicialComplex(3, frozenset({0, 0b001, 0b010, 0b011, 0b100}))
        assert c.facets == frozenset({frozenset({1, 2}), frozenset({3})})
        assert c.is_face({2, 1}) and not c.is_face({1, 3})

    def test_from_faces_extracts_maximal(self):
        c = SimplicialComplex.from_faces(3, [{1}, {1, 2}, {3}])
        assert c.facets == frozenset({frozenset({1, 2}), frozenset({3})})

    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.frozensets(st.integers(1, n), max_size=n), max_size=6))))
    @example((3, []))  # {∅}: its one facet is the empty face
    @settings(max_examples=150, deadline=None)
    def test_facets_match_oracle(self, drawn):
        n, facets = drawn
        c = SimplicialComplex.from_faces(n, facets)
        faces = [frozenset(v for v in range(1, n + 1) if f >> v - 1 & 1) for f in c.faces]
        assert c.facets == minimal_under(faces, frozenset.__ge__)

    def test_facets_of_many_points_at_once(self):
        c = SimplicialComplex.from_faces(2000, [[v] for v in range(1, 2001)])
        started = time.perf_counter()
        assert c.facets == frozenset(frozenset({v}) for v in range(1, 2001))
        assert time.perf_counter() - started < 0.1

    def test_empty_ground_set_rejected(self):
        with pytest.raises(ValueError, match="ground set must be non-empty"):
            SimplicialComplex(0, frozenset({0}))

    def test_vertex_range_checked(self):
        with pytest.raises(ValueError):
            SimplicialComplex.from_faces(2, [{3}])

    @pytest.mark.parametrize(
        "ground_size, faces, message",
        [(0, [{1}], "ground set must be non-empty"), (2, [{1}, {1, 3}], "face mask 5 outside vertices 1..2")],
        ids=["empty ground set", "vertex past ground set"],
    )
    def test_from_faces_checks_ground_set(self, ground_size, faces, message):
        with pytest.raises(ValueError, match=message):
            SimplicialComplex.from_faces(ground_size, faces)

    def test_faces_and_dimension(self):
        c = SimplicialComplex.from_faces(3, [{1, 2, 3}])
        assert c.dimension == 2
        assert len(c.faces) == 8  # includes the empty face
        assert c.is_face({1, 3})
        assert not SimplicialComplex.from_faces(3, [{1, 2}]).is_face({1, 3})


    def test_face_cap_refuses_before_building(self):
        started = time.perf_counter()
        with pytest.raises(ValueError, match=f"more than {MAX_COMPLEX_FACES} faces"):
            SimplicialComplex.from_faces(30, [range(1, 31)])
        assert time.perf_counter() - started < 0.5

    def test_face_cap_admits_one_facet_of_exactly_the_cap(self):
        assert MAX_COMPLEX_FACES == 1 << 16
        assert len(SimplicialComplex.from_faces(16, [range(1, 17)]).faces) == 1 << 16

    def test_face_cap_counts_shared_subsets_once(self):
        # the 4,096 faces of the 12-simplex: 3^12 subsets counted face by face, 2^12 in the closure
        simplex = [[v for v in range(1, 13) if mask >> v - 1 & 1] for mask in range(1 << 12)]
        assert len(SimplicialComplex.from_faces(12, simplex).faces) == 1 << 12

    def test_face_cap_refuses_a_large_union(self):
        # each facet alone is exactly the cap; together 2^17 - 1 faces
        with pytest.raises(ValueError, match=f"more than {MAX_COMPLEX_FACES} faces"):
            SimplicialComplex.from_faces(32, [range(1, 17), range(17, 33)])

    def test_face_cap_both_sides(self, monkeypatch):
        monkeypatch.setattr(complexes, "MAX_COMPLEX_FACES", 16)
        assert len(SimplicialComplex.from_faces(5, [range(1, 5)]).faces) == 16
        with pytest.raises(ValueError, match="more than 16 faces"):
            SimplicialComplex.from_faces(5, [range(1, 5), [5]])  # 2^4 + 2^1 subsets


class TestStanleyReisner:
    def test_paper_example_facets(self):
        c = stanley_reisner_complex(PAPER_EXAMPLE)
        assert c.facets == frozenset(
            {frozenset({2, 3, 4}), frozenset({1, 2}), frozenset({1, 3})}
        )

    def test_zero_ideal_gives_full_simplex(self):
        z = MonomialIdeal.from_generators(4, [], degree=2)
        c = stanley_reisner_complex(z)
        assert c.facets == frozenset({frozenset({1, 2, 3, 4})})

    def test_smallest_edge_ideal(self):
        c = stanley_reisner_complex(sf_ideal(2, (1, 2)))
        assert c.facets == frozenset({frozenset({1}), frozenset({2})})

    def test_rejects_non_squarefree(self):
        i = MonomialIdeal.from_generators(2, [Monomial((2, 0))])
        with pytest.raises(ValueError):
            stanley_reisner_complex(i)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_faces_match_oracle(self, data):
        # the indicator's faces and every level of _face_levels, up to 2^10 vertex sets
        i = random_squarefree_ideals(max_n=10)(data)
        n = i.ambient_vars
        expected = stanley_reisner_faces(n, [g.support for g in i.generators])
        assert stanley_reisner_complex(i).faces == set(map(vertex_mask, expected))
        for k in range(n + 2):
            assert squarefree_face_count(i, k) == sum(len(f) == k for f in expected)

    def test_face_cap_is_inclusive(self, monkeypatch):
        # the zero ideal on n variables has 2^n faces
        monkeypatch.setattr(complexes, "MAX_COMPLEX_FACES", 16)
        zero = MonomialIdeal.from_generators(4, [], degree=2)
        assert len(stanley_reisner_complex(zero).faces) == 16
        with pytest.raises(ValueError, match="more than 16 faces"):
            stanley_reisner_complex(MonomialIdeal.from_generators(5, [], degree=2))

    def test_face_cap_counts_the_faces_grown(self):
        # 1 + 30 + 434 + 4,032 + 27,027 faces on up to four vertices, then
        # 139,230 on five
        wide = sf_ideal(30, (1, 2))
        assert squarefree_face_count(wide, 4) == 27_027
        with pytest.raises(ValueError, match=f"more than {MAX_COMPLEX_FACES} faces"):
            squarefree_face_count(wide, 5)
        with pytest.raises(ValueError, match="faces"):
            stanley_reisner_complex(wide)

    def test_face_cap_refuses_before_listing(self, monkeypatch):
        # C(5000, 2) - 1, about 12.5 million, sets of size 2 are faces: refused from the count
        for name in ("_colex_masks", "_extensions"):
            monkeypatch.setattr(complexes, name, lambda *args: pytest.fail("listed before the cap check"))
        wide = sf_ideal(5000, (1, 2))
        started = time.perf_counter()
        with pytest.raises(ValueError, match=f"more than {MAX_COMPLEX_FACES} faces"):
            stanley_reisner_complex(wide)
        assert time.perf_counter() - started < 0.5

    @pytest.mark.parametrize("n", [2, 17])  # the indicator's side of the face cap, and the levels'
    def test_non_squarefree_refused_on_both_paths(self, n):
        cube = MonomialIdeal.from_generators(n, [Monomial((300,) + (0,) * (n - 1))])
        with pytest.raises(ValueError, match="ideal must be square-free"):
            stanley_reisner_complex(cube)

    def test_zero_ideal_at_the_cap_and_past_it(self, monkeypatch):
        # 2^16 sets fit under the cap and are read off the indicator; 2^17 are refused from the count
        for name in ("_colex_masks", "_extensions"):
            monkeypatch.setattr(complexes, name, lambda *args: pytest.fail("listed or grown"))
        assert len(stanley_reisner_complex(MonomialIdeal.from_generators(16, [], degree=2)).faces) == 65_536
        with pytest.raises(ValueError, match="more than 65536 faces"):
            stanley_reisner_complex(MonomialIdeal.from_generators(17, [], degree=2))

    def test_faces_grown_past_the_indicator(self):
        # 17 variables, past the 2^16 sets the indicator holds: every cubic but x1*x2*x3 leaves
        # the 154 sets of size at most 2, and {1, 2, 3}
        cubics = [c for c in combinations(range(1, 18), 3) if c != (1, 2, 3)]
        ideal = sf_ideal(17, *cubics)
        expected = [(1, 2, 3), *(f for k in range(3) for f in combinations(range(1, 18), k))]
        c = stanley_reisner_complex(ideal)
        assert c.faces == set(map(vertex_mask, expected))
        assert f_vector(c).counts == (17, 136, 1)
        assert [squarefree_face_count(ideal, k) for k in range(5)] == [1, 17, 136, 1, 0]
        assert ideal_of_complex(c) == ideal.generators

    def test_whole_ground_set_in_ideal(self):
        # the ideal of all variables leaves only the empty face
        c = stanley_reisner_complex(sf_ideal(2, (1,), (2,)))
        assert c.facets == frozenset({frozenset()})
        assert c.dimension == -1
        assert f_vector(c).counts == ()


def benchmark_sized_ideals(count=24, seed=9):
    """Seeded square-free equigenerated ideals at the sizes the ideals
    benchmark draws: 8-11 variables, degree 2-4, up to 60 generators."""
    rng = random.Random(seed)
    for _ in range(count):
        n, d = rng.randint(8, 11), rng.randint(2, 4)
        pool = list(combinations(range(1, n + 1), d))
        supports = rng.sample(pool, rng.randint(1, min(60, len(pool))))
        yield sf_ideal(n, *supports)


@pytest.mark.parametrize("ideal", benchmark_sized_ideals())
def test_benchmark_sized_round_trip(ideal):
    supports = [g.support for g in ideal.generators]
    expected = stanley_reisner_faces(ideal.ambient_vars, supports)
    c = stanley_reisner_complex(ideal)
    assert c.faces == set(map(vertex_mask, expected))
    assert ideal_of_complex(c) == ideal.generators


@pytest.mark.parametrize("ideal", benchmark_sized_ideals())
def test_benchmark_sized_faces_without_growing(ideal, monkeypatch):
    # at 8-11 variables every face is read off the indicator: no level is listed or grown
    for name in ("_colex_masks", "_extensions"):
        monkeypatch.setattr(complexes, name, lambda *args: pytest.fail("faces listed or grown"))
    expected = stanley_reisner_faces(ideal.ambient_vars, [g.support for g in ideal.generators])
    assert stanley_reisner_complex(ideal).faces == set(map(vertex_mask, expected))


class TestIdealOfComplex:
    def test_paper_example_round_trip(self):
        c = stanley_reisner_complex(PAPER_EXAMPLE)
        assert ideal_of_complex(c) == PAPER_EXAMPLE.generators

    def test_full_simplex(self):
        c = SimplicialComplex.from_faces(3, [{1, 2, 3}])
        assert ideal_of_complex(c) == frozenset()

    def test_two_points(self):
        c = SimplicialComplex.from_faces(2, [{1}, {2}])
        assert ideal_of_complex(c) == frozenset({Monomial((1, 1))})

    def test_wide_listing_refused_before_it_is_built(self):
        # 99,999 minimal non-faces of 10^5 exponents each: refused after 168 masks, before any tuple
        started = time.perf_counter()
        with pytest.raises(ValueError, match="minimal non-faces"):
            ideal_of_complex(SimplicialComplex.from_faces(10**5, [[1]]))
        assert time.perf_counter() - started < 2

    def test_wide_listing_under_the_cap(self):
        # 2,999 monomials of 3,000 exponents: about 9 million, under the 16 * 2^20 cap
        generators = ideal_of_complex(SimplicialComplex.from_faces(3000, [[1]]))
        assert len(generators) == 2999
        assert Monomial.squarefree(3000, [2]) in generators

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_on_drawn_faces(self, data):
        n = data.draw(st.integers(1, 5))
        drawn = data.draw(st.lists(
            st.frozensets(st.integers(1, n), max_size=n), max_size=6
        ))
        c = SimplicialComplex.from_faces(n, drawn)
        closure = {frozenset()} | {
            frozenset(sub) for f in drawn
            for size in range(len(f) + 1) for sub in combinations(sorted(f), size)
        }
        assert c.faces == set(map(vertex_mask, closure))
        non_faces = [
            s for size in range(1, n + 1)
            for s in map(frozenset, combinations(range(1, n + 1), size))
            if not any(s <= f for f in drawn)
        ]
        expected = {
            tuple(int(v in s) for v in range(1, n + 1))
            for s in minimal_under(non_faces, frozenset.__le__)
        }
        assert {m.exponents for m in ideal_of_complex(c)} == expected

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_bijection_on_random_ideals(self, data):
        i = random_squarefree_ideals()(data)
        assert ideal_of_complex(stanley_reisner_complex(i)) == i.generators


class TestFVector:
    def test_paper_example(self):
        fv = f_vector(stanley_reisner_complex(PAPER_EXAMPLE))
        assert fv.counts == (4, 5, 1)

    def test_full_simplex_on_three(self):
        fv = f_vector(SimplicialComplex.from_faces(3, [{1, 2, 3}]))
        assert fv.counts == (3, 3, 1)

    def test_star_independence_complex(self):
        star = sf_ideal(7, (1, 2), (1, 3), (1, 4), (1, 5), (1, 6))
        fv = f_vector(stanley_reisner_complex(star))
        assert fv.counts[:3] == (7, 16, 20)
        # higher entries: all independent sets avoid x1, i.e. subsets of
        # {x2..x7}, plus those containing x1 (only {x1} and {x1, x7})
        assert fv.counts == (7, 16, 20, 15, 6, 1)

    def test_entries_positive(self):
        with pytest.raises(ValueError):
            FVector((3, 0, 1))

    def test_face_count_helper(self):
        fv = FVector((4, 5, 1))
        assert fv.face_count(1) == 4
        assert fv.face_count(3) == 1
        assert fv.face_count(4) == 0
        with pytest.raises(ValueError):
            fv.face_count(0)

    def test_squarefree_face_count_matches(self):
        fv = f_vector(stanley_reisner_complex(PAPER_EXAMPLE))
        for size in range(1, 5):
            assert squarefree_face_count(PAPER_EXAMPLE, size) == fv.face_count(size)


class TestHilbertStanleyReisner:
    def test_paper_example_degree_three(self):
        assert hilbert_stanley_reisner(FVector((4, 5, 1)), 3) == 15

    def test_degree_zero_is_one(self):
        assert hilbert_stanley_reisner(FVector((4, 5, 1)), 0) == 1
        assert hilbert_stanley_reisner(FVector((2,)), 0) == 1

    def test_degree_one_counts_vertices(self):
        assert hilbert_stanley_reisner(FVector((4, 5, 1)), 1) == 4

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="degree must be non-negative"):
            hilbert_stanley_reisner(FVector((4, 5, 1)), -1)

    @given(st.data(), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_enumeration(self, data, k):
        i = random_squarefree_ideals()(data)
        fv = f_vector(stanley_reisner_complex(i))
        assert hilbert_stanley_reisner(fv, k) == hilbert_quotient(i, k)


class TestKruskalKatona:
    def test_paper_example_valid(self):
        assert is_valid_f_vector(FVector((4, 5, 1)))

    def test_invalid_vector(self):
        assert not is_valid_f_vector(FVector((3, 3, 2)))
        # exhaustive cross-check: no complex on 3 vertices has f-vector (3,3,2)
        seen = set()
        supports = [
            c for size in range(1, 4) for c in combinations((1, 2, 3), size)
        ]
        for count in range(1 << len(supports)):
            faces = [
                set(supports[i]) for i in range(len(supports)) if count >> i & 1
            ]
            closed = all(
                set(sub) in [set(f) for f in faces]
                for f in faces
                for sub in combinations(sorted(f), len(f) - 1)
                if len(f) > 1
            )
            if faces and closed:
                seen.add(f_vector(SimplicialComplex.from_faces(3, faces)).counts)
        assert (3, 3, 2) not in seen
        assert (3, 3, 1) in seen

    def test_single_entry_valid(self):
        assert is_valid_f_vector(FVector((5,)))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_real_complexes_pass(self, data):
        i = random_squarefree_ideals()(data)
        c = stanley_reisner_complex(i)
        fv = f_vector(c)
        if fv.counts:
            assert is_valid_f_vector(fv)


class TestCompressedComplex:
    def test_colex_order(self):
        assert colex_subsets(4, 2) == [
            (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)
        ]

    def test_paper_example_round_trip(self):
        fv = FVector((4, 5, 1))
        assert f_vector(compressed_complex(fv)).counts == fv.counts

    def test_isolated_vertices(self):
        c = compressed_complex(FVector((4,)))
        assert c.facets == frozenset(frozenset({v}) for v in (1, 2, 3, 4))

    def test_forced_triangle(self):
        c = compressed_complex(FVector((3, 3, 1)))
        assert c.facets == frozenset({frozenset({1, 2, 3})})

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            compressed_complex(FVector((3, 3, 2)))
        with pytest.raises(ValueError, match="empty f-vector"):
            compressed_complex(FVector(()))

    def test_face_cap_refuses_before_listing(self):
        started = time.perf_counter()
        with pytest.raises(ValueError, match=f"has 1000001 faces, more than {MAX_COMPLEX_FACES} faces"):
            compressed_complex(FVector((10 ** 6,)))
        assert time.perf_counter() - started < 0.5

    def test_face_cap_both_sides(self, monkeypatch):
        monkeypatch.setattr(complexes, "MAX_COMPLEX_FACES", 16)
        assert len(compressed_complex(FVector((4, 6, 4, 1))).faces) == 16
        assert len(compressed_complex(FVector((15,))).faces) == 16
        with pytest.raises(ValueError, match="has 17 faces, more than 16 faces"):
            compressed_complex(FVector((16,)))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_faces_match_colex_oracle(self, data):
        fv = f_vector(stanley_reisner_complex(random_squarefree_ideals(max_n=7)(data)))
        if fv.counts:
            expected = {0} | {
                vertex_mask(s)
                for i, f_i in enumerate(fv.counts)
                for s in colex_first(fv.counts[0], i + 1, f_i)
            }
            assert compressed_complex(fv).faces == expected

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_on_real_f_vectors(self, data):
        i = random_squarefree_ideals()(data)
        fv = f_vector(stanley_reisner_complex(i))
        if fv.counts:
            assert f_vector(compressed_complex(fv)).counts == fv.counts


def assert_fully_checked(c):
    """The builders skip the constructor's checks; the full check must accept their output."""
    rebuilt = SimplicialComplex(c.ground_size, c.faces)
    assert rebuilt == c and hash(rebuilt) == hash(c)


class TestBuildersAreClosed:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_stanley_reisner_complex(self, data):
        assert_fully_checked(stanley_reisner_complex(random_squarefree_ideals(max_n=7)(data)))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_compressed_complex(self, data):
        fv = f_vector(stanley_reisner_complex(random_squarefree_ideals(max_n=7)(data)))
        if fv.counts:
            assert_fully_checked(compressed_complex(fv))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_from_faces(self, data):
        n = data.draw(st.integers(1, 7))
        drawn = data.draw(st.lists(st.frozensets(st.integers(1, n), max_size=n), max_size=6))
        assert_fully_checked(SimplicialComplex.from_faces(n, drawn))
