"""Exact binomial coefficients, Macaulay representations and pseudo-powers.

Everything here is arbitrary-precision integer arithmetic; these functions
are the bedrock for every Hilbert-function bound in the rest of the package.
"""
from __future__ import annotations

from collections import namedtuple
from math import comb as binomial  # C(p, q), 0 for p < q; refuses negative or non-int
from typing import Iterator

MAX_BASE_STEPS = 10 ** 7  # cap on the steps _largest_base takes over all coefficients


class _Value:
    """First base of a tuple-backed value class, before its namedtuple: a value equals only a
    value of its own class, not a bare tuple or another class's value with the same fields."""

    __slots__ = ()
    __hash__ = tuple.__hash__
    __ne__ = object.__ne__  # the inverse of __eq__; tuple's would compare the fields

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)


class MacaulayRep(_Value, namedtuple("MacaulayRep", "coefficients")):
    """The decomposition a = C(b_d, d) + C(b_{d-1}, d-1) + ... + C(b_1, 1).

    Coefficients are stored largest index first and are strictly decreasing:
    b_d > b_{d-1} > ... > b_1 >= 0.  The degree d is the number of
    coefficients; when the greedy remainder hits zero early, the forced
    zero terms b_i = i - 1 are kept explicitly so that a = 0 is well-defined
    and downstream arithmetic never special-cases short representations.
    """

    __slots__ = ()

    def __new__(cls, coefficients: tuple[int, ...]) -> MacaulayRep:
        if not coefficients:
            raise ValueError("need at least one coefficient")
        for hi, lo in zip(coefficients, coefficients[1:]):
            if hi <= lo:
                raise ValueError("coefficients must be strictly decreasing")
        if coefficients[-1] < 0:
            raise ValueError("coefficients must be non-negative")
        return tuple.__new__(cls, (coefficients,))

    @property
    def degree(self) -> int:
        return len(self.coefficients)

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        """The pairs (b_i, i), largest index first: a is the sum of C(b_i, i) over them."""
        return tuple(zip(self.coefficients, range(self.degree, 0, -1)))

    def value(self) -> int:
        """Evaluate the representation back to the integer it encodes."""
        return sum(binomial(b, i) for b, i in self.terms)


def _largest_base(a: int, i: int) -> int:
    """Largest b with C(b, i) <= a.  For a = 0 this is the forced b = i - 1."""
    b = i - 1
    while binomial(b + 1, i) <= a:
        b += 1
    return b


def _greedy_terms(a: int, d: int) -> Iterator[tuple[int, int]]:
    """The greedy pairs (b_i, i) of a at degree d, largest i first, up to the one leaving remainder
    0: every later b_i is the forced i - 1, and C(i - 1, i) = C(i, i + 1) = C(i - 1, i + 1) = 0
    adds nothing to a or to either pseudo-power."""
    if a < 0:
        raise ValueError("a must be non-negative")
    if not 1 <= d <= MAX_BASE_STEPS:  # macaulay_rep lists all d coefficients
        raise ValueError(f"d must be in 1..{MAX_BASE_STEPS}, not {d}")
    # b_i takes b_i - i + 1 steps, and b_i <= b_d - (d - i), so no coefficient
    # takes more than b_d's b_d - d + 1.  Capping b_d at cap = MAX_BASE_STEPS // d
    # caps the whole search; b_d passes it exactly when C(d + cap, d) <= a.  That
    # binomial is at least 2^min(d, cap), so a shorter a is accepted without it.
    cap = MAX_BASE_STEPS // d
    if a.bit_length() > min(d, cap) and binomial(d + cap, d) <= a:
        raise ValueError(
            f"a of {a.bit_length()} bits at d = {d} could take more than {MAX_BASE_STEPS} steps in total"
        )
    remainder = a
    for i in range(d, 0, -1):
        if not remainder:
            return
        b = _largest_base(remainder, i)
        yield b, i
        remainder -= binomial(b, i)
    if remainder != 0:
        raise ArithmeticError(f"greedy Macaulay remainder {remainder} is not zero")


def macaulay_rep(a: int, d: int) -> MacaulayRep:
    """Greedy Macaulay representation of a at degree d.

    b_d is the largest b with C(b, d) <= a; recurse on the remainder at
    degree d - 1, and once it is zero append the forced b_i = i - 1.  Strict
    decrease of the coefficients is automatic for the greedy choice, but is
    checked anyway via the MacaulayRep invariants.
    """
    coefficients = [b for b, _ in _greedy_terms(a, d)]
    coefficients.extend(range(d - len(coefficients) - 1, -1, -1))
    return MacaulayRep(tuple(coefficients))


def macaulay_pseudopower(a: int, d: int) -> int:
    """a^<d>: increment top and bottom of every binomial in the representation.

    Upper-bounds the growth of quotient Hilbert functions from degree d to
    degree d + 1.
    """
    return sum(binomial(b + 1, i + 1) for b, i in _greedy_terms(a, d))


def kruskal_katona_pseudopower(a: int, d: int) -> int:
    """a^(d): increment only the bottom of every binomial in the representation.

    Upper-bounds the growth of f-vectors of simplicial complexes.
    """
    return sum(binomial(b, i + 1) for b, i in _greedy_terms(a, d))
