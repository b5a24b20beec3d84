"""Simplicial complexes, the Stanley-Reisner correspondence and f-vectors.

Complexes are stored as their full face sets; facets are derived when asked
for.  Every face is held in memory, so a complex may have at most
MAX_COMPLEX_FACES faces: complex files larger than that are refused when
parsed, and Stanley-Reisner complexes while their faces are grown.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Collection, Iterable, Iterator

from .combinatorics import binomial, kruskal_katona_pseudopower, minimal_elements
from .monomials import Monomial, MonomialIdeal

MAX_COMPLEX_FACES = 1 << 16  # cap on the faces a complex may hold in memory


def _extensions(family: Collection[frozenset[int]], n: int) -> Iterator[frozenset[int]]:
    """The subsets of 1..n, one vertex larger than some member, whose one-vertex
    deletions all lie in ``family``; each is grown once, from itself minus its max."""
    for s in family:
        for v in range(max(s, default=0) + 1, n + 1):
            if all(s - {u} | {v} in family for u in s):
                yield s | {v}


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
                for size in range(1, len(face) + 1):
                    closure.update(map(frozenset, combinations(face, size)))
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


def _face_levels(ideal: MonomialIdeal) -> Iterator[frozenset[frozenset[int]]]:
    """The Stanley-Reisner faces by size, from {∅} to the last size with any;
    ValueError once there are more than MAX_COMPLEX_FACES of them."""
    if not ideal.is_squarefree:
        raise ValueError("ideal must be square-free")
    supports = {g.support for g in ideal.generators}
    level, total = frozenset({frozenset()}), 1
    while level:
        yield level
        # A set whose one-vertex deletions are faces contains a support only if it is one.
        grown = (s for s in _extensions(level, ideal.ambient_vars) if s not in supports)
        level = frozenset(islice(grown, MAX_COMPLEX_FACES - total + 1))  # at most one past the cap
        total += len(level)
        if total > MAX_COMPLEX_FACES:
            raise ValueError(f"Stanley-Reisner complex has more than {MAX_COMPLEX_FACES} faces")


def squarefree_face_count(ideal: MonomialIdeal, size: int) -> int:
    """Number of size-element vertex sets whose product lies outside the ideal.

    This is entry f_{size-1} of the Stanley-Reisner complex's f-vector,
    computed from the faces of at most that size.
    """
    return len(next(islice(_face_levels(ideal), size, None), ()))


def stanley_reisner_complex(ideal: MonomialIdeal) -> SimplicialComplex:
    """Faces: vertex sets whose square-free product is not in the ideal."""
    return SimplicialComplex(ideal.ambient_vars, frozenset().union(*_face_levels(ideal)))


def ideal_of_complex(complex_: SimplicialComplex) -> frozenset[Monomial]:
    """Minimal non-faces, as square-free monomials.

    A non-face is minimal exactly when removing any one vertex gives a face,
    so these are the extensions of the faces that are not faces.  Returned
    as a raw generator set, not a MonomialIdeal: the minimal non-faces of an
    arbitrary complex need not all have the same degree.
    """
    n = complex_.ground_size
    return frozenset(
        Monomial.squarefree(n, s)
        for s in _extensions(complex_.faces, n)
        if s not in complex_.faces
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
