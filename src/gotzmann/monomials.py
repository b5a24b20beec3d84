"""Monomials, equigenerated monomial ideals and brute-force Hilbert functions.

Hilbert values are computed by exhaustive enumeration: the degree-k part
I_k is listed as the set of degree-k multiples of the generators, each packed
into one int.  That enumeration is deliberately the single source of truth:
every closed form elsewhere in the package is cross-checked against it.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import groupby, islice
from operator import attrgetter, lshift
from typing import Iterable, Iterator

from .combinatorics import _Value, binomial

MAX_DEGREE_MONOMIALS = 1 << 20  # cap on the monomials one call lists: 10^7 tuples take about 1 GB
MAX_HILBERT_BITS = 1 << 20  # cap on a bound on the bits of H(P, k); 315,653 digits print in about 2 s


class Monomial(_Value, namedtuple("Monomial", "exponents")):
    """A monomial as its exponent vector; position i holds the exponent of x_{i+1}."""

    __slots__ = ()

    def __new__(cls, exponents: tuple[int, ...]) -> Monomial:
        if not exponents:
            raise ValueError("monomial needs at least one variable slot")
        if min(exponents) < 0:
            raise ValueError("exponents must be non-negative")
        return tuple.__new__(cls, (exponents,))

    @classmethod
    def squarefree(cls, n: int, variables: Iterable[int]) -> Monomial:
        """Build the square-free monomial on the given 1-indexed variables."""
        exps = [0] * n
        for v in variables:
            if not 1 <= v <= n:
                raise ValueError(f"variable x{v} outside 1..{n}")
            if exps[v - 1]:
                raise ValueError(f"variable x{v} repeated")
            exps[v - 1] = 1
        return cls(tuple(exps))

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def is_squarefree(self) -> bool:
        return max(self.exponents) <= 1

    @property
    def support(self) -> frozenset[int]:
        """1-indexed variables appearing with positive exponent."""
        return frozenset(i + 1 for i, e in enumerate(self.exponents) if e)

    def divides(self, other: Monomial) -> bool:
        if len(self.exponents) != len(other.exponents):
            raise ValueError("monomials live over different variable counts")
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __str__(self) -> str:
        if self.degree == 0:
            return "1"
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts)


def _minimal_generators(generators: Iterable[Monomial]) -> list[Monomial]:
    """The distinct generators that no other generator divides, lowest degree first; a
    divisor has lower degree, so each is compared only with those kept from lower degrees."""
    by_degree = attrgetter("degree")
    kept: list[Monomial] = []
    for _, group in groupby(sorted(set(generators), key=by_degree), by_degree):
        kept.extend([g for g in group if not any(k.divides(g) for k in kept)])
    return kept


class MonomialIdeal(_Value, namedtuple("MonomialIdeal", "ambient_vars generation_degree generators")):
    """A monomial ideal given by a minimal generating set.

    The ideals this package certifies are equigenerated (all generators of
    one degree), and for those ``generation_degree`` is set; it is also set
    explicitly for the zero ideal so the Gotzmann certifier knows which
    degrees to compare.  Mixed-degree square-free ideals (minimal non-faces
    of a complex, for instance) are allowed with generation_degree = None.
    Builders of ideals valid by construction call _make, which skips the checks of __new__.
    """

    __slots__ = ()

    def __new__(cls, ambient_vars: int, generation_degree: int | None,
                generators: frozenset[Monomial]) -> MonomialIdeal:
        if ambient_vars < 1:
            raise ValueError("need at least one ambient variable")
        d = generation_degree
        if d is not None and d < 1:
            raise ValueError("generation degree must be positive")
        for g in generators:
            if len(g.exponents) != ambient_vars:
                raise ValueError("generator over wrong number of variables")
            if g.degree == 0:
                raise ValueError("the unit monomial cannot be a generator")
            if d is not None and g.degree != d:
                raise ValueError(f"generator {g} has degree {g.degree}, expected {d}")
        if d is None:  # distinct monomials of one degree never divide each other
            if redundant := generators.difference(_minimal_generators(generators)):
                raise ValueError(f"generator {min(map(str, redundant))} is redundant")
        return tuple.__new__(cls, (ambient_vars, d, generators))

    @classmethod
    def from_generators(
        cls,
        ambient_vars: int,
        generators: Iterable[Monomial],
        degree: int | None = None,
    ) -> MonomialIdeal:
        """Normalize a generator list into a minimal one and build the ideal.

        Duplicates and generators divisible by another generator are dropped.
        A common degree is recorded when all surviving generators share one;
        the zero ideal requires an explicit degree.
        """
        minimal = frozenset(_minimal_generators(generators))
        degrees = {g.degree for g in minimal}
        if not degrees and degree is None:
            raise ValueError("zero ideal needs an explicit generation degree")
        if degrees and degree is not None and degrees != {degree}:
            raise ValueError("declared degree disagrees with generators")
        if len(degrees) == 1:
            (degree,) = degrees
        return cls(ambient_vars, degree, minimal)

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_equigenerated(self) -> bool:
        return self.generation_degree is not None

    @property
    def is_squarefree(self) -> bool:
        return all(g.is_squarefree for g in self.generators)

    def sorted_generators(self) -> list[Monomial]:
        """Generators in descending lexicographic order (x1 largest)."""
        return sorted(self.generators, key=lambda m: m.exponents, reverse=True)


def hilbert_ring(n: int, k: int) -> int:
    """H(P, k) = C(n + k - 1, n - 1): all monomials of degree k in n variables; ValueError when its
    bit bound min(n - 1, k) * (n + k - 1).bit_length() (C(N, r) <= N^r) passes MAX_HILBERT_BITS."""
    if n < 1:
        raise ValueError("need at least one variable")
    if k < 0:
        raise ValueError("degree must be non-negative")
    if (bits := min(n - 1, k) * (n + k - 1).bit_length()) > MAX_HILBERT_BITS:
        raise ValueError(f"H(P, {k}) in {n} variables could have {bits} bits, more than {MAX_HILBERT_BITS}")
    return binomial(n + k - 1, n - 1)


def _pack(exponents: tuple[int, ...], w: int) -> int:
    return sum(map(lshift, exponents, range(0, w * len(exponents), w)))


def packing(n: int, k: int) -> tuple[int, int]:
    """Width w of the fields of degree-k exponent vectors over n variables packed into ints
    (x_{i+1} at bit w * i; no exponent exceeds k, so g * m packs to g + m), and the mask of
    each field's bits but its lowest, which a packed vector misses iff it is square-free.
    A 1 in each field is the geometric sum (2^(wn) - 1) / (2^w - 1), in time linear in n."""
    w = max(1, k.bit_length())
    return w, ((1 << w) - 2) * (((1 << w * n) - 1) // ((1 << w) - 1))


def _cap(count: int, n: int, what: str) -> None:
    """Refuse to list ``count`` monomials over n variables: more than MAX_DEGREE_MONOMIALS of
    them, or more than 16 * MAX_DEGREE_MONOMIALS exponents in all, raise ValueError."""
    if count > MAX_DEGREE_MONOMIALS:
        raise ValueError(f"{what} has more than {MAX_DEGREE_MONOMIALS} monomials")
    if count * n > 16 * MAX_DEGREE_MONOMIALS:
        raise ValueError(f"{what} has {count} monomials of {n} exponents, "
                         f"more than {16 * MAX_DEGREE_MONOMIALS} exponents in all")


def _listed(items: Iterable[int], n: int, what: str) -> list[int]:
    """The items, to be monomials over n variables, refused by _cap before one past its exponent bound."""
    listed = list(islice(items, 16 * MAX_DEGREE_MONOMIALS // n + 1))
    _cap(len(listed), n, what)
    return listed


def _cap_degree(n: int, j: int) -> int:
    """The number of monomials of degree j in n variables, once _cap lets them be listed."""
    _cap(count := hilbert_ring(n, j), n, f"degree {j} in {n} variables")
    return count


@lru_cache(maxsize=32)  # above the 18 listings of the benchmark's ideals workload
def packed_monomials(n: int, j: int, w: int) -> tuple[int, ...]:
    """All exponent vectors of degree j in n variables, lex-descending (x1 > ... > xn), each
    packed with fields of w bits; refused by _cap_degree before any is listed."""
    _cap_degree(n, j)
    return tuple(_pack(e, w) for e in _lex_descending(n, j))


def degree_part(ideal: MonomialIdeal, k: int) -> set[int]:
    """I_k as exponent vectors packed as by packing(n, k): the products g * m over the
    generators g of degree at most k and the monomials m of degree k - deg g; ValueError, after
    _cap_degree and before any listing, when they would take past 640 * MAX_DEGREE_MONOMIALS bytes."""
    if k < 0:
        raise ValueError("degree must be non-negative")
    n, _, generators = ideal
    w, _ = packing(n, k)
    packed: dict[int, list[int]] = {}  # k - deg g -> those g, packed; keys in generator order, as the caps run
    for g in generators:
        if (j := k - g.degree) >= 0:
            packed.setdefault(j, []).append(_pack(g.exponents, w))
    products = sum(_cap_degree(n, j) * len(ps) for j, ps in packed.items())
    size = products * (n * w // 8 + 64)  # bytes for each: its digits, its int header and its set slot
    if size > 640 * MAX_DEGREE_MONOMIALS:
        raise ValueError(f"I_{k} has {products} products g * m of {n * w} bits, about {size} bytes "
                         f"as a set, more than {640 * MAX_DEGREE_MONOMIALS}")
    return {p + m for j, ps in packed.items() for m in packed_monomials(n, j, w) for p in ps}


def hilbert_ideal(ideal: MonomialIdeal, k: int) -> int:
    """H(I, k) by enumeration: the size of I_k."""
    return len(degree_part(ideal, k))


def hilbert_quotient(ideal: MonomialIdeal, k: int) -> int:
    """H(P/I, k) = H(P, k) - H(I, k)."""
    return hilbert_ring(ideal.ambient_vars, k) - hilbert_ideal(ideal, k)


def _lex_descending(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """The exponent vectors of degree d in n variables, lex-descending, each made from the one
    before in O(n) whatever d: the last positive exponent before x_n gives one to the next."""
    e = [d] + [0] * (n - 1)
    i = 0 if n > 1 and d else -1  # the last position before n - 1 with a positive exponent
    yield tuple(e)
    while i >= 0:
        e[i] -= 1
        tail, e[-1] = e[-1], 0
        e[i + 1] = tail + 1  # positions i + 1 .. n - 2 held 0
        i = min(i + 1, n - 2)
        while i >= 0 and not e[i]:  # steps back only over positions it stepped forward over
            i -= 1
        yield tuple(e)


def lex_segment_ideal(n: int, d: int, count: int) -> MonomialIdeal:
    """Ideal generated by the first ``count`` degree-d monomials in lex order, listed no
    further; the cap is applied to those ``count``, so its work does not depend on d."""
    if n < 1 or d < 1 or count < 0:
        raise ValueError(f"need n >= 1, d >= 1 and count >= 0, not {n}, {d} and {count}")
    _cap(count, n, f"the lex segment of degree {d} in {n} variables")
    gens = [Monomial(e) for e in islice(_lex_descending(n, d), count)]
    if len(gens) < count:  # the listing ran out: len(gens) is all C(n + d - 1, d) of them
        raise ValueError(f"segment size {count} out of range 0..{len(gens)} for n={n}, d={d}")
    return MonomialIdeal._make((n, d, frozenset(gens)))  # distinct, of one degree d >= 1: minimal


def contains(ideal: MonomialIdeal, m: Monomial) -> bool:
    """Membership test for monomials: true iff some generator divides m."""
    if len(m.exponents) != ideal.ambient_vars:
        raise ValueError("monomial over wrong number of variables")
    return any(g.divides(m) for g in ideal.generators)
