"""Simplicial complexes, the Stanley-Reisner correspondence and f-vectors.

Complexes are stored as their full face sets; facets are derived when asked
for.  Ground sets in this package stay small (about ten vertices), so every
face fits in memory and the face set is canonical.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, takewhile
from typing import Iterable, Iterator

from .combinatorics import binomial, kruskal_katona_pseudopower, minimal_elements
from .monomials import Monomial, MonomialIdeal


def _subsets(vertices: Iterable[int], sizes: Iterable[int]) -> Iterator[frozenset[int]]:
    """The subsets of ``vertices`` with the given sizes, smallest sizes first."""
    return (frozenset(c) for size in sizes for c in combinations(vertices, size))


def _maximal_faces(faces: Iterable[frozenset[int]]) -> list[frozenset[int]]:
    """The distinct faces contained in no other face."""
    return minimal_elements(faces, lambda f: -len(f), frozenset.__gt__)


@dataclass(frozen=True)
class SimplicialComplex:
    """A downward-closed set family on vertices 1..ground_size, stored as all
    of its faces.

    The empty face is always present; the complex consisting of only the empty
    face is frozenset({frozenset()}).
    """

    ground_size: int
    faces: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        if self.ground_size < 1:
            raise ValueError("ground set must be non-empty")
        if frozenset() not in self.faces:
            raise ValueError("complex must contain the empty face")
        # Closed under removing one vertex means downward closed, by induction.
        for face in self.faces:
            for v in face:
                if not 1 <= v <= self.ground_size:
                    raise ValueError(f"vertex {v} outside 1..{self.ground_size}")
                if face - {v} not in self.faces:
                    raise ValueError(f"face {sorted(face)} lacks its subface without {v}")

    @classmethod
    def from_faces(
        cls, ground_size: int, faces: Iterable[Iterable[int]]
    ) -> SimplicialComplex:
        """Build the smallest complex containing the given faces: all their subsets."""
        closure = {frozenset()}
        for face in map(frozenset, faces):
            if face not in closure:
                closure.update(_subsets(face, range(len(face) + 1)))
        return cls(ground_size, frozenset(closure))

    @property
    def facets(self) -> frozenset[frozenset[int]]:
        """The faces contained in no other face."""
        return frozenset(_maximal_faces(self.faces))

    @property
    def dimension(self) -> int:
        """Largest face dimension; -1 for the complex with only the empty face."""
        return max(map(len, self.faces)) - 1

    def is_face(self, vertices: Iterable[int]) -> bool:
        return frozenset(vertices) in self.faces


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
    for s in _subsets(range(1, ideal.ambient_vars + 1), sizes):
        if not any(sup <= s for sup in supports):
            yield s


def squarefree_face_count(ideal: MonomialIdeal, size: int) -> int:
    """Number of size-element vertex sets whose product lies outside the ideal.

    This is entry f_{size-1} of the Stanley-Reisner complex's f-vector,
    computed without materializing the complex.
    """
    return sum(1 for _ in _independent_sets(ideal, (size,)))


def stanley_reisner_complex(ideal: MonomialIdeal) -> SimplicialComplex:
    """Faces: vertex sets whose square-free product is not in the ideal, up to the first empty size."""
    n = ideal.ambient_vars
    levels = (frozenset(_independent_sets(ideal, (size,))) for size in range(n + 1))
    return SimplicialComplex(n, frozenset().union(*takewhile(bool, levels)))


def ideal_of_complex(complex_: SimplicialComplex) -> frozenset[Monomial]:
    """Minimal non-faces, as square-free monomials.

    A non-face is minimal exactly when removing any one vertex gives a face.
    Returned as a raw generator set, not a MonomialIdeal: the minimal
    non-faces of an arbitrary complex need not all have the same degree.
    """
    n = complex_.ground_size
    faces = complex_.faces
    return frozenset(
        Monomial.squarefree(n, s)
        for s in _subsets(range(1, n + 1), range(1, n + 1))
        if s not in faces and all(s - {v} in faces for v in s)
    )


def f_vector(complex_: SimplicialComplex) -> FVector:
    """Exact face counts by dimension, counted over the stored faces."""
    counts = Counter(map(len, complex_.faces))
    return FVector(tuple(counts[size] for size in range(1, max(counts) + 1)))


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
    order.  By Kruskal-Katona, validity of the f-vector makes this family
    downward closed; the SimplicialComplex constructor checks that it is.
    """
    if not is_valid_f_vector(fv):
        raise ValueError("not a valid f-vector")
    if not fv.counts:
        raise ValueError("empty f-vector has no compressed complex")
    ground = fv.counts[0]
    faces = {frozenset()}
    for i, f_i in enumerate(fv.counts):
        faces.update(map(frozenset, colex_subsets(ground, i + 1)[:f_i]))
    return SimplicialComplex(ground, frozenset(faces))
