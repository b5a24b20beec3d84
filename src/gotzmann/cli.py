"""Command-line frontend.

Exit codes: 0 for success and true verdicts, 1 for false verdicts (not Gotzmann,
theorem mismatch), 2 for malformed input, 3 for a failed internal check.  Machine
mode emits one ``key=value`` pair per line and is byte-stable across runs.
"""
from __future__ import annotations

import argparse
import sys
from decimal import Decimal
from pathlib import Path

from . import certifier, combinatorics, complexes, fileformats, graphs, monomials


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _row(label: str, value) -> None:
    """One human report line; every label is padded to the same width."""
    print(f"{label:<21} {value}")


def _read(path: str) -> str:
    return Path(path).read_text()


def _cmd_macaulay_rep(args) -> int:
    rep = combinatorics.macaulay_rep(args.a, args.d)
    if args.machine:
        print(f"a={args.a}")
        print(f"d={args.d}")
        print("coefficients=" + " ".join(str(b) for b in rep.coefficients))
    else:
        print(f"{args.a} = " + " + ".join(f"C({b},{i})" for b, i in rep.terms))
    return 0


def _cmd_pseudopower(args) -> int:
    if args.macaulay:
        value = combinatorics.macaulay_pseudopower(args.a, args.d)
    else:
        value = combinatorics.kruskal_katona_pseudopower(args.a, args.d)
    print(f"value={value}" if args.machine else value)
    return 0


def _cmd_hilbert(args) -> int:
    ideal = fileformats.parse_ideal(_read(args.ideal))
    k = args.degree
    h_ideal = monomials.hilbert_ideal(ideal, k)  # first: a refused listing skips H(P, k)
    h_ring = monomials.hilbert_ring(ideal.ambient_vars, k)
    h_quotient = h_ring - h_ideal
    # Decimal prints ints past the digit limit of str(), which stays on so that an overlong
    # integer in a file or argv is refused at once
    if args.machine:
        print(f"degree={k}")
        print(f"h_ring={Decimal(h_ring)}")
        print(f"h_ideal={h_ideal}")
        print(f"h_quotient={Decimal(h_quotient)}")
    else:
        print(f"H(P, {k})   = {Decimal(h_ring)}")
        print(f"H(I, {k})   = {h_ideal}")
        print(f"H(P/I, {k}) = {Decimal(h_quotient)}")
    return 0


def _cmd_fvector(args) -> int:
    if args.ideal:
        ideal = fileformats.parse_ideal(_read(args.ideal))
        complex_ = complexes.stanley_reisner_complex(ideal)
    else:
        complex_ = fileformats.parse_complex(_read(args.complex))
    fv = complexes.f_vector(complex_)
    if args.machine:
        for i, f in enumerate(fv.counts):
            print(f"f_{i}={f}")
    else:
        print(" ".join(str(f) for f in fv.counts))
    return 0


def _print_report(report: certifier.GotzmannReport, machine: bool) -> None:
    if machine:  # the fields in order, square_free_check only when set, then the verdict
        for name, value in (*report._asdict().items(), ("is_gotzmann", report.is_gotzmann)):
            if value is not None:
                print(f"{name}={_bool(value) if isinstance(value, bool) else value}")
    else:
        d = report.degree_d
        _row("generation degree d:", d)
        _row(f"H(P/I, {d}):", report.h_quotient_d)
        _row(f"H(P/I, {d + 1}):", report.h_quotient_d1)
        _row("Macaulay bound:", report.macaulay_bound)
        if report.square_free_check is not None:
            _row("square-free f-check:", "pass" if report.square_free_check else "FAIL")
        _row("verdict:", "GOTZMANN" if report.is_gotzmann else "not Gotzmann")


def _cmd_gotzmann(args) -> int:
    if args.ideal:  # certify lists the degree-1 monomials for each generator
        ideal = fileformats.parse_ideal(_read(args.ideal), listed=1)
    else:
        g = fileformats.parse_graph(_read(args.graph))
        ideal = graphs.edge_ideal(g)
    report = certifier.certify(ideal)
    _print_report(report, args.machine)
    return 0 if report.is_gotzmann else 1


def _cmd_verify(args) -> int:
    summary = certifier.verify_star_theorem(args.max_vertices)
    if args.machine:  # the first five fields; the wall time and per_n vary from run to run
        for name, value in zip(summary._fields[:5], summary):
            print(f"{name}={value}")
    else:
        _row("vertex range:", f"1..{summary.max_vertices}")
        _row("graphs checked:", summary.graphs_checked)
        _row("stars found:", summary.stars_found)
        _row("Gotzmann edge ideals:", summary.gotzmann_found)
        _row("mismatches:", summary.mismatches)
        _row("wall time:", f"{summary.wall_time_seconds:.2f} s")
        row = "{:>3} {:>15} {:>6} {:>9} {:>15} {:>9}"
        print(row.format("n", "graphs", "stars", "Gotzmann", "representatives", "seconds"))
        for n, graphs, stars, gotzmann, representatives, seconds in summary.per_n:
            print(row.format(n, graphs, stars, gotzmann, representatives, f"{seconds:.4f}"))
    return 0


def _cmd_lex_ideal(args) -> int:
    ideal = monomials.lex_segment_ideal(args.n, args.d, args.count)
    sys.stdout.write(fileformats.format_ideal(ideal))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gotzmann",
        description="Exact Hilbert-function combinatorics of monomial ideals: "
        "Macaulay representations, Stanley-Reisner f-vectors, edge ideals "
        "and a Gotzmann certifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    machine_parent = argparse.ArgumentParser(add_help=False)
    machine_parent.add_argument(
        "--machine", action="store_true",
        help="emit one key=value pair per line",
    )

    p = sub.add_parser(
        "macaulay-rep", parents=[machine_parent],
        help="Macaulay representation of A at degree D",
    )
    p.add_argument("a", type=int, metavar="A")
    p.add_argument("d", type=int, metavar="D")
    p.set_defaults(func=_cmd_macaulay_rep)

    p = sub.add_parser(
        "pseudopower", parents=[machine_parent],
        help="Macaulay or Kruskal-Katona pseudo-power of A at degree D",
    )
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--macaulay", action="store_true",
                      help="A^<D>: top and bottom incremented")
    kind.add_argument("--kk", action="store_true",
                      help="A^(D): only bottoms incremented")
    p.add_argument("a", type=int, metavar="A")
    p.add_argument("d", type=int, metavar="D")
    p.set_defaults(func=_cmd_pseudopower)

    p = sub.add_parser(
        "hilbert", parents=[machine_parent],
        help="Hilbert values of an ideal file at one degree",
    )
    p.add_argument("--ideal", required=True, metavar="FILE")
    p.add_argument("--degree", required=True, type=int, metavar="K")
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser(
        "fvector", parents=[machine_parent],
        help="f-vector of a complex file, or of the Stanley-Reisner complex "
        "of a square-free ideal file",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--ideal", metavar="FILE")
    src.add_argument("--complex", metavar="FILE")
    p.set_defaults(func=_cmd_fvector)

    p = sub.add_parser(
        "gotzmann", parents=[machine_parent],
        help="certify an ideal file, or the edge ideal of a graph file; "
        "exit 0 if Gotzmann, 1 otherwise",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--ideal", metavar="FILE")
    src.add_argument("--graph", metavar="FILE")
    p.set_defaults(func=_cmd_gotzmann)

    p = sub.add_parser(
        "verify-star-theorem", parents=[machine_parent],
        help="exhaustively check, on all labeled graphs up to N vertices, "
        "that edge ideals are Gotzmann exactly for stars",
    )
    p.add_argument("--max-vertices", required=True, type=int, metavar="N")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "lex-ideal",
        help="emit the lex-segment ideal of COUNT degree-D monomials in N "
        "variables, in the ideal file format",
    )
    p.add_argument("n", type=int, metavar="N")
    p.add_argument("d", type=int, metavar="D")
    p.add_argument("count", type=int, metavar="COUNT")
    p.set_defaults(func=_cmd_lex_ideal)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except certifier.StarTheoremMismatch as exc:
        print(f"MISMATCH: {exc}", fileformats.format_graph(exc.graph), sep="\n", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
