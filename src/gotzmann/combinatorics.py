"""Exact binomial coefficients, Macaulay representations and pseudo-powers.

Everything here is arbitrary-precision integer arithmetic; these functions
are the bedrock for every Hilbert-function bound in the rest of the package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby, repeat
from typing import Callable, Iterable

MAX_BASE_STEPS = 10 ** 7  # cap on the steps _largest_base takes for b_d


def binomial(p: int, q: int) -> int:
    """Binomial coefficient C(p, q), with the convention C(p, q) = 0 for p < q."""
    if p < 0 or q < 0:
        raise ValueError("binomial arguments must be non-negative")
    if p < q:
        return 0
    return math.comb(p, q)


@dataclass(frozen=True)
class MacaulayRep:
    """The decomposition a = C(b_d, d) + C(b_{d-1}, d-1) + ... + C(b_1, 1).

    Coefficients are stored largest index first and are strictly decreasing:
    b_d > b_{d-1} > ... > b_1 >= 0.  Every representation has exactly
    ``degree`` entries; when the greedy remainder hits zero early, the forced
    zero terms b_i = i - 1 are kept explicitly so that a = 0 is well-defined
    and downstream arithmetic never special-cases short representations.
    """

    degree: int
    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be positive")
        if len(self.coefficients) != self.degree:
            raise ValueError("expected exactly one coefficient per degree")
        for hi, lo in zip(self.coefficients, self.coefficients[1:]):
            if hi <= lo:
                raise ValueError("coefficients must be strictly decreasing")
        if self.coefficients[-1] < 0:
            raise ValueError("coefficients must be non-negative")

    def value(self) -> int:
        """Evaluate the representation back to the integer it encodes."""
        return sum(
            binomial(b, i)
            for b, i in zip(self.coefficients, range(self.degree, 0, -1))
        )


def _largest_base(a: int, i: int) -> int:
    """Largest b with C(b, i) <= a.  For a = 0 this is the forced b = i - 1."""
    b = i - 1
    while binomial(b + 1, i) <= a:
        b += 1
    return b


def macaulay_rep(a: int, d: int) -> MacaulayRep:
    """Greedy Macaulay representation of a at degree d.

    b_d is the largest b with C(b, d) <= a; recurse on the remainder at
    degree d - 1.  Strict decrease of the coefficients is automatic for the
    greedy choice, but is checked anyway via the MacaulayRep invariants.
    """
    if a < 0:
        raise ValueError("a must be non-negative")
    if d < 1:
        raise ValueError("d must be positive")
    # b_d takes b_d - d + 1 steps, more than the cap exactly when C(d + cap, d)
    # <= a.  That binomial is at least 2^min(d, cap), so a shorter a is accepted
    # without building it.
    if a.bit_length() > min(d, MAX_BASE_STEPS) and binomial(d + MAX_BASE_STEPS, d) <= a:
        raise ValueError(
            f"a = {a} at d = {d} needs more than {MAX_BASE_STEPS} steps for b_{d}"
        )
    coefficients = []
    remainder = a
    for i in range(d, 0, -1):
        b = _largest_base(remainder, i)
        coefficients.append(b)
        remainder -= binomial(b, i)
    if remainder != 0:
        raise ArithmeticError(f"greedy Macaulay remainder {remainder} is not zero")
    return MacaulayRep(d, tuple(coefficients))


def macaulay_pseudopower(a: int, d: int) -> int:
    """a^<d>: increment top and bottom of every binomial in the representation.

    Upper-bounds the growth of quotient Hilbert functions from degree d to
    degree d + 1.
    """
    rep = macaulay_rep(a, d)
    return sum(
        binomial(b + 1, i + 1)
        for b, i in zip(rep.coefficients, range(d, 0, -1))
    )


def kruskal_katona_pseudopower(a: int, d: int) -> int:
    """a^(d): increment only the bottom of every binomial in the representation.

    Upper-bounds the growth of f-vectors of simplicial complexes.
    """
    rep = macaulay_rep(a, d)
    return sum(
        binomial(b, i + 1)
        for b, i in zip(rep.coefficients, range(d, 0, -1))
    )


def minimal_elements(items: Iterable, rank: Callable, below: Callable) -> list:
    """The distinct items that no other item lies below, lowest rank first.

    Needs below(a, b) to imply rank(a) < rank(b) for distinct a, b: each item
    is compared only with those kept from lower ranks, never within its rank.
    """
    kept: list = []
    for _, group in groupby(sorted(set(items), key=rank), key=rank):
        kept.extend([x for x in group if not any(map(below, kept, repeat(x)))])
    return kept
