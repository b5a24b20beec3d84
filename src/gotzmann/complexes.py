"""Simplicial complexes, the Stanley-Reisner correspondence and f-vectors.

Complexes are stored by their facets; faces are enumerated on demand.  Ground
sets in this package stay small (about ten vertices), so enumeration is cheap
and the facet representation is canonical.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .combinatorics import binomial, kruskal_katona_pseudopower, minimal_elements
from .monomials import Monomial, MonomialIdeal


def _maximal_faces(faces: Iterable[frozenset[int]]) -> list[frozenset[int]]:
    """The distinct faces contained in no other face."""
    return minimal_elements(faces, lambda f: -len(f), frozenset.__gt__)


@dataclass(frozen=True)
class SimplicialComplex:
    """A downward-closed set family on vertices 1..ground_size, given by facets.

    The complex consisting of only the empty face is represented by the single
    facet frozenset(); a complex with no faces at all is rejected.
    """

    ground_size: int
    facets: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        if self.ground_size < 1:
            raise ValueError("ground set must be non-empty")
        if not self.facets:
            raise ValueError("complex must contain at least the empty face")
        for facet in self.facets:
            for v in facet:
                if not 1 <= v <= self.ground_size:
                    raise ValueError(f"vertex {v} outside 1..{self.ground_size}")
        if len(_maximal_faces(self.facets)) != len(self.facets):
            raise ValueError("facets must be pairwise incomparable")

    @classmethod
    def from_faces(
        cls, ground_size: int, faces: Iterable[Iterable[int]]
    ) -> SimplicialComplex:
        """Build a complex from any face list by extracting the maximal ones."""
        face_sets = [frozenset(), *map(frozenset, faces)]
        return cls(ground_size, frozenset(_maximal_faces(face_sets)))

    @property
    def dimension(self) -> int:
        """Largest face dimension; -1 for the complex with only the empty face."""
        return max(len(f) for f in self.facets) - 1

    def faces(self) -> frozenset[frozenset[int]]:
        """All faces, including the empty face."""
        out: set[frozenset[int]] = set()
        for facet in self.facets:
            members = sorted(facet)
            for size in range(len(members) + 1):
                out.update(frozenset(c) for c in combinations(members, size))
        return frozenset(out)

    def is_face(self, vertices: Iterable[int]) -> bool:
        s = frozenset(vertices)
        return any(s <= facet for facet in self.facets)


@dataclass(frozen=True)
class FVector:
    """Face counts (f_0, ..., f_dim); f_i counts faces on i + 1 vertices.

    Trailing zeros are never stored, so every stored entry is positive.  The
    empty tuple belongs to the complex with only the empty face.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 1 for c in self.counts):
            raise ValueError("f-vector entries must be positive")

    def face_count(self, size: int) -> int:
        """Faces on exactly ``size`` vertices; 0 beyond the stored range.

        Centralizes the dimension-vs-size off-by-one: f_{size-1} counts the
        size-element faces.
        """
        if size < 1:
            raise ValueError("face size must be positive")
        if size > len(self.counts):
            return 0
        return self.counts[size - 1]

    def __iter__(self):
        return iter(self.counts)

    def __len__(self) -> int:
        return len(self.counts)


def _independent_sets(
    ideal: MonomialIdeal, sizes: Iterable[int]
) -> Iterator[frozenset[int]]:
    """Vertex sets of the given sizes that contain no generator's support."""
    if not ideal.is_squarefree:
        raise ValueError("ideal must be square-free")
    supports = [g.support for g in ideal.generators]
    for size in sizes:
        for combo in combinations(range(1, ideal.ambient_vars + 1), size):
            s = frozenset(combo)
            if not any(sup <= s for sup in supports):
                yield s


def squarefree_face_count(ideal: MonomialIdeal, size: int) -> int:
    """Number of size-element vertex sets whose product lies outside the ideal.

    This is entry f_{size-1} of the Stanley-Reisner complex's f-vector,
    computed without materializing the complex.
    """
    return sum(1 for _ in _independent_sets(ideal, (size,)))


def stanley_reisner_complex(ideal: MonomialIdeal) -> SimplicialComplex:
    """Faces are the vertex sets whose square-free product is not in the ideal."""
    n = ideal.ambient_vars
    return SimplicialComplex.from_faces(n, _independent_sets(ideal, range(n + 1)))


def ideal_of_complex(complex_: SimplicialComplex) -> frozenset[Monomial]:
    """Minimal non-faces, as square-free monomials.

    Returned as a raw generator set, not a MonomialIdeal: the minimal
    non-faces of an arbitrary complex need not all have the same degree.
    """
    n = complex_.ground_size
    face_set = complex_.faces()
    non_faces = (
        s for size in range(1, n + 1)
        for s in map(frozenset, combinations(range(1, n + 1), size))
        if s not in face_set
    )
    return frozenset(
        Monomial.squarefree(n, s)
        for s in minimal_elements(non_faces, len, frozenset.__lt__)
    )


def f_vector(complex_: SimplicialComplex) -> FVector:
    """Exact face counts by dimension, by enumerating subsets of the facets."""
    counts = Counter(len(face) for face in complex_.faces())
    return FVector(tuple(counts[size] for size in range(1, complex_.dimension + 2)))


def hilbert_stanley_reisner(fv: FVector, k: int) -> int:
    """Hilbert function of the Stanley-Reisner ring from the f-vector.

    Equals 1 at k = 0 and sum_i f_i * C(k - 1, i) for k > 0.
    """
    if k < 0:
        raise ValueError("degree must be non-negative")
    if k == 0:
        return 1
    return sum(f * binomial(k - 1, i) for i, f in enumerate(fv.counts))


def is_valid_f_vector(fv: FVector) -> bool:
    """Kruskal-Katona test: 0 < f_{k+1} <= f_k^(k+1) for every consecutive pair."""
    for k in range(len(fv.counts) - 1):
        if not 0 < fv.counts[k + 1] <= kruskal_katona_pseudopower(fv.counts[k], k + 1):
            return False
    return True


def colex_subsets(universe: int, size: int) -> list[tuple[int, ...]]:
    """All size-subsets of 1..universe in colexicographic order."""
    return sorted(
        combinations(range(1, universe + 1), size),
        key=lambda s: tuple(reversed(s)),
    )


def compressed_complex(fv: FVector) -> SimplicialComplex:
    """The compressed complex realizing a valid f-vector.

    Its i-dimensional faces are the first f_i (i+1)-subsets in colexicographic
    order; validity of the f-vector guarantees downward closure.
    """
    if not is_valid_f_vector(fv):
        raise ValueError("not a valid f-vector")
    if not fv.counts:
        raise ValueError("empty f-vector has no compressed complex")
    ground = fv.counts[0]
    faces: list[frozenset[int]] = []
    for i, f_i in enumerate(fv.counts):
        faces.extend(frozenset(s) for s in colex_subsets(ground, i + 1)[:f_i])
    return SimplicialComplex.from_faces(ground, faces)
