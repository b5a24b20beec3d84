"""Simplicial complexes, the Stanley-Reisner correspondence and f-vectors.

A complex is stored as its full face set of int vertex masks (bit v - 1 is vertex v, so colex
order of k-subsets is numeric order), with at most MAX_COMPLEX_FACES faces: from_faces refuses
faces whose subsets pass it, and compressed_complex an f-vector whose faces do.  Stanley-Reisner
faces are read off one 2^n-bit indicator when all 2^n vertex sets fit under the cap, and are
otherwise grown size by size and refused past it.
"""
from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache, reduce
from itertools import compress, islice
from typing import Iterable, Iterator

from .combinatorics import _Value, binomial, kruskal_katona_pseudopower
from .monomials import Monomial, MonomialIdeal, _listed

MAX_COMPLEX_FACES = 1 << 16  # cap on the faces a complex may hold in memory
_SWAP_DIGITS = bytes.maketrans(b"01\0\1", b"\0\1" b"01")  # the digits 0 and 1 <-> the bytes 0 and 1


@lru_cache(maxsize=MAX_COMPLEX_FACES)  # as many masks as one complex may hold
def _bits(mask: int) -> tuple[int, ...]:
    """The one-bit masks of ``mask``, lowest first, one step per bit set."""
    bits = []
    while mask:
        bits.append(mask & -mask)
        mask &= mask - 1
    return tuple(bits)


def _mask(vertices: Iterable[int]) -> int:
    """Bit v - 1 for each vertex v; a vertex below 1 is a negative shift, a ValueError."""
    return sum({1 << v - 1 for v in vertices})


def _vertices(mask: int) -> tuple[int, ...]:
    return tuple(b.bit_length() for b in _bits(mask))


def _supports(ideal: MonomialIdeal) -> frozenset[int]:
    """The generators' vertex masks, each read off its exponents; ValueError unless square-free."""
    if not ideal.is_squarefree:
        raise ValueError("ideal must be square-free")
    return frozenset(int(bytes(g.exponents[::-1]).translate(_SWAP_DIGITS), 2) for g in ideal.generators)


@lru_cache(maxsize=MAX_COMPLEX_FACES.bit_length())  # one entry per n with 2^n within the cap
def _holders(n: int) -> dict[int, int]:
    """Vertex bit b = 1 << v -> the 2^n-bit indicator of the sets s with s & b (2^v zeros, then 2^v
    ones, repeated by one geometric-sum division); key 0 -> the indicator of all 2^n sets."""
    full = (1 << (1 << n)) - 1
    return {0: full} | {1 << v: full // ((1 << (2 << v)) - 1) * ((1 << (1 << v)) - 1 << (1 << v)) for v in range(n)}


def _extensions(family: frozenset[int], n: int, exclude: frozenset[int]) -> Iterator[int]:
    """The masks t over n vertices outside ``exclude`` (one lookup, so tested first) whose
    one-vertex deletions all lie in ``family``, each grown once, from t minus its top bit."""
    for s in family:
        bits = _bits(s)
        for v in range(s.bit_length(), n):
            t = s | 1 << v
            if t not in exclude and family.issuperset(map(t.__xor__, bits)):
                yield t


class SimplicialComplex(_Value, namedtuple("SimplicialComplex", "ground_size faces")):
    """A downward-closed set family on vertices 1..ground_size, stored as all of its faces as
    vertex masks; the empty face 0 is always present.  Builders whose faces are closed and in
    range by construction call _make, which skips the check of __new__."""

    __slots__ = ()

    def __new__(cls, ground_size: int, faces: frozenset[int]) -> SimplicialComplex:
        if ground_size < 1:
            raise ValueError("ground set must be non-empty")
        if 0 not in faces:
            raise ValueError("complex must contain the empty face")
        # Closed under removing one vertex means downward closed, by induction.
        for face in faces:
            if not 0 <= face < 1 << ground_size:
                raise ValueError(f"face mask {face} outside vertices 1..{ground_size}")
            for b in _bits(face):
                if face ^ b not in faces:
                    raise ValueError(f"face {_vertices(face)} lacks its subface without {b.bit_length()}")
        return tuple.__new__(cls, (ground_size, faces))

    @classmethod
    def from_faces(cls, ground_size: int, faces: Iterable[Iterable[int]]) -> SimplicialComplex:
        """Build the smallest complex containing the given faces: all their subsets.  Faces are
        expanded largest first, skipping any already in the closure; ValueError before expanding
        a face with more than MAX_COMPLEX_FACES subsets, and once the closure passes that cap."""
        if ground_size < 1:
            raise ValueError("ground set must be non-empty")
        masks = list(map(_mask, faces))
        if (top := max(masks, default=0)) >> ground_size:
            raise ValueError(f"face mask {top} outside vertices 1..{ground_size}")
        closure = {0}
        for face in sorted(masks, key=int.bit_count, reverse=True):
            if face in closure:
                continue
            if (subsets := 1 << face.bit_count()) > MAX_COMPLEX_FACES:
                raise ValueError(f"a face with {subsets} subsets gives more than {MAX_COMPLEX_FACES} faces")
            sub = face
            while sub:  # every submask of the face, down to the empty face
                closure.add(sub)
                sub = (sub - 1) & face
            if len(closure) > MAX_COMPLEX_FACES:
                raise ValueError(f"the closure of the faces has more than {MAX_COMPLEX_FACES} faces")
        return cls._make((ground_size, frozenset(closure)))

    @property
    def facets(self) -> frozenset[frozenset[int]]:
        """The faces in no other face: in a downward-closed complex, those that are no face less one vertex."""
        covered = {f ^ b for f in self.faces for b in _bits(f)}
        return frozenset(map(frozenset, map(_vertices, self.faces - covered)))

    @property
    def dimension(self) -> int:
        """Largest face dimension; -1 for the complex with only the empty face."""
        return max(map(int.bit_count, self.faces)) - 1

    def is_face(self, vertices: Iterable[int]) -> bool:
        return _mask(vertices) in self.faces


class FVector(_Value, namedtuple("FVector", "counts")):
    """Face counts (f_0, ..., f_dim); f_i counts faces on i + 1 vertices.

    Trailing zeros are never stored, so every stored entry is positive.  The empty tuple belongs
    to the complex with only the empty face.
    """

    __slots__ = ()

    def __new__(cls, counts: tuple[int, ...]) -> FVector:
        if any(c < 1 for c in counts):
            raise ValueError("f-vector entries must be positive")
        return tuple.__new__(cls, (counts,))

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


def _face_levels(ideal: MonomialIdeal) -> Iterator[frozenset[int]]:
    """The Stanley-Reisner faces by size, from {∅} to the last size with any; ValueError once
    there are more than MAX_COMPLEX_FACES of them.  Every set smaller than the smallest support
    s is a face, so the sizes up to s are counted and checked first; then every level grows from {∅}."""
    supports = _supports(ideal)
    n = ideal.ambient_vars
    s = min(map(int.bit_count, supports), default=n + 1)
    total = -sum(t.bit_count() == s for t in supports)
    for k in range(min(s, n) + 1):  # stops at the first size past the cap, however large s is
        if (total := total + binomial(n, k)) > MAX_COMPLEX_FACES:
            raise ValueError(f"Stanley-Reisner complex has more than {MAX_COMPLEX_FACES} faces")
    level, total = frozenset({0}), 1
    while level:
        yield level
        # A set whose one-vertex deletions are faces holds a support only if it is one; take one past the cap at most.
        level = frozenset(islice(_extensions(level, n, supports), MAX_COMPLEX_FACES - total + 1))
        if (total := total + len(level)) > MAX_COMPLEX_FACES:
            raise ValueError(f"Stanley-Reisner complex has more than {MAX_COMPLEX_FACES} faces")


def squarefree_face_count(ideal: MonomialIdeal, size: int) -> int:
    """Number of size-element vertex sets whose product lies outside the ideal.

    This is entry f_{size-1} of the Stanley-Reisner complex's f-vector,
    computed from the faces of at most that size.
    """
    return len(next(islice(_face_levels(ideal), size, None), ()))


def stanley_reisner_complex(ideal: MonomialIdeal) -> SimplicialComplex:
    """Faces: vertex sets whose square-free product is not in the ideal: the bits outside the OR over
    the generators of the AND of their vertices' _holders, or the _face_levels once 2^n passes the cap."""
    n = ideal.ambient_vars
    if n >= MAX_COMPLEX_FACES.bit_length():  # 2^n > the cap, read off n so no 2^n-bit int is built
        return SimplicialComplex._make((n, frozenset().union(*_face_levels(ideal))))
    holders = _holders(n)
    above = (reduce(int.__and__, map(holders.__getitem__, _bits(m)), holders[0]) for m in _supports(ideal))
    faces = f"{holders[0] ^ reduce(int.__or__, above, 0):0{1 << n}b}"[::-1].encode().translate(_SWAP_DIGITS)
    return SimplicialComplex._make((n, frozenset(compress(range(1 << n), faces))))  # bit s set: s is a face


def ideal_of_complex(complex_: SimplicialComplex) -> frozenset[Monomial]:
    """Minimal non-faces, as square-free monomials: the extensions of the faces that are not faces,
    as a non-face is minimal when each one-vertex deletion is a face.  A raw generator set, not a
    MonomialIdeal, as their degrees may differ; ValueError, by _listed, past monomials._cap."""
    n, faces = complex_.ground_size, complex_.faces
    masks = _listed(_extensions(faces, n, faces), n, "the list of minimal non-faces so far")
    # exponent v - 1 is bit v - 1 of s: its n binary digits, reversed, as bytes 0 and 1
    return frozenset(Monomial._make((tuple(f"{s:0{n}b}"[::-1].encode().translate(_SWAP_DIGITS)),)) for s in masks)


def f_vector(complex_: SimplicialComplex) -> FVector:
    """Exact face counts by dimension, counted over the stored faces."""
    counts = Counter(map(int.bit_count, complex_.faces))
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
    """Kruskal-Katona test: f_{k+1} <= f_k^(k+1) for every consecutive pair."""
    c = fv.counts
    return all(c[k + 1] <= kruskal_katona_pseudopower(c[k], k + 1) for k in range(len(c) - 1))


def _colex_masks(size: int) -> Iterator[int]:
    """Every mask of ``size`` bits in increasing (so colex) order, by Gosper's step."""
    mask = (1 << size) - 1
    while True:
        yield mask
        high = mask + (low := mask & -mask)
        mask = high | ((mask ^ high) >> 2) // low


def colex_subsets(universe: int, size: int) -> list[tuple[int, ...]]:
    """All size-subsets of 1..universe in colexicographic order."""
    return list(map(_vertices, islice(_colex_masks(size), binomial(universe, size))))


def compressed_complex(fv: FVector) -> SimplicialComplex:
    """The compressed complex realizing a valid f-vector.

    Its i-dimensional faces are the first f_i (i+1)-subsets in colexicographic
    order.  By Kruskal-Katona, validity of the f-vector makes this family
    downward closed, so the constructor's closure check is skipped; a test checks it.
    """
    if not is_valid_f_vector(fv):
        raise ValueError("not a valid f-vector")
    if not fv.counts:
        raise ValueError("empty f-vector has no compressed complex")
    if (total := 1 + sum(fv.counts)) > MAX_COMPLEX_FACES:
        raise ValueError(f"the compressed complex has {total} faces, more than {MAX_COMPLEX_FACES} faces")
    faces = {0}
    for i, f_i in enumerate(fv.counts):
        faces.update(islice(_colex_masks(i + 1), f_i))
    return SimplicialComplex._make((fv.counts[0], frozenset(faces)))
