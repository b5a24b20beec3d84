"""Exact binomial coefficients, Macaulay representations and pseudo-powers.

Everything here is arbitrary-precision integer arithmetic; these functions
are the bedrock for every Hilbert-function bound in the rest of the package.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb as binomial  # C(p, q), 0 for p < q; refuses negative or non-int

MAX_BASE_STEPS = 10 ** 7  # cap on the steps _largest_base takes over all coefficients


@dataclass(frozen=True)
class MacaulayRep:
    """The decomposition a = C(b_d, d) + C(b_{d-1}, d-1) + ... + C(b_1, 1).

    Coefficients are stored largest index first and are strictly decreasing:
    b_d > b_{d-1} > ... > b_1 >= 0.  The degree d is the number of
    coefficients; when the greedy remainder hits zero early, the forced
    zero terms b_i = i - 1 are kept explicitly so that a = 0 is well-defined
    and downstream arithmetic never special-cases short representations.
    """

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("need at least one coefficient")
        for hi, lo in zip(self.coefficients, self.coefficients[1:]):
            if hi <= lo:
                raise ValueError("coefficients must be strictly decreasing")
        if self.coefficients[-1] < 0:
            raise ValueError("coefficients must be non-negative")

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


def macaulay_rep(a: int, d: int) -> MacaulayRep:
    """Greedy Macaulay representation of a at degree d.

    b_d is the largest b with C(b, d) <= a; recurse on the remainder at
    degree d - 1.  Strict decrease of the coefficients is automatic for the
    greedy choice, but is checked anyway via the MacaulayRep invariants.
    """
    if a < 0:
        raise ValueError("a must be non-negative")
    if not 1 <= d <= MAX_BASE_STEPS:  # each of the d coefficients evaluates a binomial at least once
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
    coefficients = []
    remainder = a
    for i in range(d, 0, -1):
        b = _largest_base(remainder, i)
        coefficients.append(b)
        remainder -= binomial(b, i)
    if remainder != 0:
        raise ArithmeticError(f"greedy Macaulay remainder {remainder} is not zero")
    return MacaulayRep(tuple(coefficients))


def macaulay_pseudopower(a: int, d: int) -> int:
    """a^<d>: increment top and bottom of every binomial in the representation.

    Upper-bounds the growth of quotient Hilbert functions from degree d to
    degree d + 1.
    """
    return sum(binomial(b + 1, i + 1) for b, i in macaulay_rep(a, d).terms)


def kruskal_katona_pseudopower(a: int, d: int) -> int:
    """a^(d): increment only the bottom of every binomial in the representation.

    Upper-bounds the growth of f-vectors of simplicial complexes.
    """
    return sum(binomial(b, i + 1) for b, i in macaulay_rep(a, d).terms)
