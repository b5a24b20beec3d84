"""Exact Hilbert-function combinatorics of monomial ideals.

Macaulay representations and pseudo-powers, brute-force Hilbert functions,
Stanley-Reisner complexes with Kruskal-Katona checks, edge ideals of simple
graphs, and a Gotzmann certifier with an exhaustive star-graph theorem
verifier.
"""
from .certifier import (
    GotzmannReport,
    StarTheoremMismatch,
    StarTheoremSummary,
    VertexCountRecord,
    certify,
    check_edge_bound,
    gotzmann_value_deg2,
    verify_star_theorem,
)
from .combinatorics import (
    MacaulayRep,
    binomial,
    kruskal_katona_pseudopower,
    macaulay_pseudopower,
    macaulay_rep,
)
from .complexes import (
    FVector,
    SimplicialComplex,
    compressed_complex,
    f_vector,
    hilbert_stanley_reisner,
    ideal_of_complex,
    is_valid_f_vector,
    stanley_reisner_complex,
)
from .graphs import (
    Graph,
    count_dependent_triples,
    dependent_triples_through,
    edge_ideal,
    hilbert_edge_ideal_deg3,
    is_star,
    non_edge_count,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    contains,
    hilbert_ideal,
    hilbert_quotient,
    hilbert_ring,
    lex_segment_ideal,
)

__all__ = [
    "GotzmannReport",
    "StarTheoremMismatch",
    "StarTheoremSummary",
    "VertexCountRecord",
    "certify",
    "check_edge_bound",
    "gotzmann_value_deg2",
    "verify_star_theorem",
    "MacaulayRep",
    "binomial",
    "kruskal_katona_pseudopower",
    "macaulay_pseudopower",
    "macaulay_rep",
    "FVector",
    "SimplicialComplex",
    "compressed_complex",
    "f_vector",
    "hilbert_stanley_reisner",
    "ideal_of_complex",
    "is_valid_f_vector",
    "stanley_reisner_complex",
    "Graph",
    "count_dependent_triples",
    "dependent_triples_through",
    "edge_ideal",
    "hilbert_edge_ideal_deg3",
    "is_star",
    "non_edge_count",
    "Monomial",
    "MonomialIdeal",
    "contains",
    "hilbert_ideal",
    "hilbert_quotient",
    "hilbert_ring",
    "lex_segment_ideal",
]

__version__ = "0.1.0"
