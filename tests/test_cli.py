"""End-to-end tests of the command-line interface."""
import argparse
import os
import subprocess
import sys
import time
from decimal import Decimal
from itertools import combinations
from pathlib import Path

import pytest

from gotzmann import certifier
from gotzmann.cli import _build_parser, main
from gotzmann.combinatorics import binomial
from gotzmann.fileformats import format_ideal
from gotzmann.monomials import lex_segment_ideal

PAPER_EXAMPLE_IDEAL = "4\n1:1 2:1 3:1\n1:1 4:1\n"
STAR7_GRAPH = "7\n1 2\n1 3\n1 4\n1 5\n1 6\n"
TRIANGLE_GRAPH = "3\n1 2\n1 3\n2 3\n"
WIDE_IDEAL = "1000\n1:1 2:1\n"
CUBES_322 = "322\n" + "".join(f"{v}:3\n" for v in range(1, 323))
SRC = Path(__file__).parents[1] / "src"


@pytest.fixture
def write(tmp_path):
    def _write(name, content):
        path = tmp_path / name
        path.write_text(content)
        return str(path)
    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_limited(*argv, limit=1 << 30):
    """The CLI in a child process whose address space is capped at ``limit`` bytes, 1 GiB by
    default, so that dense allocation there ends in MemoryError rather than in the host running
    out of memory; returns the exit code, the output, the errors and the child's wall time."""
    child = (f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
             "from gotzmann.cli import main; sys.exit(main(sys.argv[1:]))")
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - started


class TestMacaulayRep:
    def test_human(self, capsys):
        code, out, _ = run(capsys, "macaulay-rep", "23", "2")
        assert code == 0
        assert out == "23 = C(7,2) + C(2,1)\n"

    def test_machine(self, capsys):
        code, out, _ = run(capsys, "macaulay-rep", "23", "2", "--machine")
        assert code == 0
        assert out == "a=23\nd=2\ncoefficients=7 2\n"

    def test_bad_input(self, capsys):
        code, _, err = run(capsys, "macaulay-rep", "-5", "2")
        assert code == 2
        assert "error:" in err

    def test_base_search_cap_both_sides(self, capsys):
        # at d = 1 the base search takes a steps; the cap is 10^7
        code, out, _ = run(capsys, "macaulay-rep", "10000000", "1", "--machine")
        assert (code, out) == (0, "a=10000000\nd=1\ncoefficients=10000000\n")
        started = time.perf_counter()
        code, out, err = run(capsys, "macaulay-rep", "10000001", "1")
        assert (code, out) == (2, "")
        assert "more than 10000000 steps" in err
        code, _, err = run(capsys, "macaulay-rep", "1000000000000", "1")
        assert code == 2
        assert time.perf_counter() - started < 1.0

    def test_huge_degree_is_prompt(self, capsys):
        started = time.perf_counter()
        code, out, _ = run(capsys, "macaulay-rep", "5", "100000", "--machine")
        assert code == 0
        assert out.startswith("a=5\nd=100000\ncoefficients=100000 99999 ")
        # a < 2^min(d, cap // d) is accepted without building the guard binomial
        assert time.perf_counter() - started < 0.5

    def test_cap_bounds_the_whole_search(self, capsys):
        # C(10^7 + 2, 2) - 1 has coefficients 10^7 + 1 and 10^7: about 2 * 10^7
        # steps in all, so b_2 gets only 10^7 // 2 of them
        started = time.perf_counter()
        code, out, err = run(capsys, "macaulay-rep", "50000015000000", "2")
        assert time.perf_counter() - started < 0.5
        assert (code, out) == (2, "")
        assert "more than 10000000 steps in total" in err


class TestPseudopower:
    def test_macaulay(self, capsys):
        code, out, _ = run(capsys, "pseudopower", "--macaulay", "23", "2")
        assert (code, out) == (0, "59\n")

    def test_kruskal_katona(self, capsys):
        code, out, _ = run(capsys, "pseudopower", "--kk", "16", "2")
        assert (code, out) == (0, "20\n")

    def test_machine(self, capsys):
        code, out, _ = run(capsys, "pseudopower", "--macaulay", "5", "2", "--machine")
        assert (code, out) == (0, "value=7\n")

    @pytest.mark.parametrize("kind", ["--macaulay", "--kk"])
    def test_base_search_cap(self, capsys, kind):
        code, out, err = run(capsys, "pseudopower", kind, "1000000000000", "1")
        assert (code, out) == (2, "")
        assert "steps" in err

    @pytest.mark.parametrize("kind, value", [("--macaulay", "1"), ("--kk", "0")])
    def test_work_stops_at_the_last_nonzero_term(self, kind, value):
        # 1 = C(d, d): every later term is C(i - 1, i), which adds nothing, so the work must
        # not grow with the d - 1 forced coefficients
        code, out, err, seconds = run_limited("pseudopower", kind, "1", "3000000", limit=1 << 28)
        assert (code, out) == (0, value + "\n"), err
        assert seconds < 1.0


class TestHilbert:
    def test_paper_example(self, capsys, write):
        path = write("ex.ideal", PAPER_EXAMPLE_IDEAL)
        code, out, _ = run(capsys, "hilbert", "--ideal", path, "--degree", "3", "--machine")
        assert code == 0
        assert "h_ideal=5" in out and "h_quotient=15" in out

    def test_human_output(self, capsys, write):
        path = write("ex.ideal", PAPER_EXAMPLE_IDEAL)
        code, out, _ = run(capsys, "hilbert", "--ideal", path, "--degree", "3")
        assert code == 0
        assert "H(P/I, 3) = 15" in out

    def test_enumeration_cap_both_sides(self, capsys, write):
        # I_k lists the degree k - 2 and k - 3 monomials in 4 variables: about
        # 1.7 * 10^5 at k = 100, and more than 2^20 at k = 400
        path = write("ex.ideal", PAPER_EXAMPLE_IDEAL)
        code, out, _ = run(capsys, "hilbert", "--ideal", path, "--degree", "100", "--machine")
        assert code == 0
        assert "h_quotient=5350" in out
        started = time.perf_counter()
        code, out, err = run(capsys, "hilbert", "--ideal", path, "--degree", "400")
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (2, "")
        assert "more than 1048576" in err

    def test_exponent_cap_on_a_wide_ideal(self, capsys, write):
        # I_3 of x1*x2 on 1,000 variables lists 1,000 linear monomials of 1,000
        # exponents; I_4 would list 500,500 quadratic ones, 5 * 10^8 exponents
        path = write("wide.ideal", WIDE_IDEAL)
        code, out, _ = run(capsys, "hilbert", "--ideal", path, "--degree", "3", "--machine")
        assert (code, out) == (0, "degree=3\nh_ring=167167000\nh_ideal=1000\nh_quotient=167166000\n")
        started = time.perf_counter()
        code, out, err = run(capsys, "hilbert", "--ideal", path, "--degree", "4")
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (2, "")
        assert "more than 16777216 exponents in all" in err

    def test_wide_products_under_the_bound(self, capsys, write):
        # x_i^3 on 322 variables: I_4 is the 103,684 products g * x_j (I_5 is refused, in TestExitCodes)
        path = write("cubes.ideal", CUBES_322)
        code, out, _ = run(capsys, "hilbert", "--ideal", path, "--degree", "4")
        assert (code, out) == (0, "H(P, 4)   = 456326325\nH(I, 4)   = 103684\nH(P/I, 4) = 456222641\n")

    def test_exact_values_past_the_digit_limit(self, capsys, write):
        # H(P, 10^4) over 10^4 variables is C(19999, 9999), 6,019 digits, past the 4,300
        # that str() converts by default; a 5,000-digit exponent is still refused as input
        path = write("power.ideal", "10000\n1:10000\n")
        code, out, _ = run(capsys, "hilbert", "--ideal", path, "--degree", "10000", "--machine")
        assert code == 0
        values = dict(line.split("=") for line in out.splitlines())
        assert len(values["h_ring"]) == 6019 and Decimal(values["h_ring"]) == binomial(19999, 9999)
        assert values["h_ideal"] == "1" and Decimal(values["h_quotient"]) == binomial(19999, 9999) - 1
        path = write("long.ideal", "2\n1:" + "9" * 5000 + "\n")
        code, out, err = run(capsys, "hilbert", "--ideal", path, "--degree", "2")
        assert (code, out) == (2, "")
        assert "line 2: bad token" in err

    def test_malformed_file(self, capsys, write):
        path = write("bad.ideal", "4\n9:1\n")
        code, _, err = run(capsys, "hilbert", "--ideal", path, "--degree", "3")
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "hilbert", "--ideal", str(tmp_path / "nope"), "--degree", "2"
        )
        assert code == 2

    def test_header_degree_disagreeing_with_generators(self, capsys, write):
        path = write("bad.ideal", "3 2\n1:1\n")
        code, out, err = run(capsys, "hilbert", "--ideal", path, "--degree", "3")
        assert (code, out) == (2, "")
        assert "declared degree disagrees with generators" in err


class TestFvector:
    def test_from_ideal(self, capsys, write):
        path = write("ex.ideal", PAPER_EXAMPLE_IDEAL)
        code, out, _ = run(capsys, "fvector", "--ideal", path)
        assert (code, out) == (0, "4 5 1\n")

    def test_from_complex(self, capsys, write):
        path = write("ex.cpx", "4\n2 3 4\n1 2\n1 3\n")
        code, out, _ = run(capsys, "fvector", "--complex", path)
        assert (code, out) == (0, "4 5 1\n")

    def test_oversized_complex_is_refused(self, capsys, write):
        path = write("big.cpx", "18\n" + " ".join(map(str, range(1, 19))) + "\n")
        code, _, err = run(capsys, "fvector", "--complex", path)
        assert code == 2
        assert "faces" in err

    def test_oversized_stanley_reisner_complex_is_refused(self, capsys, write):
        # one quadric on 30 variables leaves 2^30 - 2^28 faces
        path = write("wide.ideal", "30\n1:1 2:1\n")
        started = time.perf_counter()
        code, out, err = run(capsys, "fvector", "--ideal", path)
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (2, "")
        assert "more than 65536 faces" in err

    def test_machine(self, capsys, write):
        path = write("ex.ideal", PAPER_EXAMPLE_IDEAL)
        code, out, _ = run(capsys, "fvector", "--ideal", path, "--machine")
        assert (code, out) == (0, "f_0=4\nf_1=5\nf_2=1\n")

    def test_non_squarefree_rejected(self, capsys, write):
        path = write("sq.ideal", "2\n1:2\n")
        code, _, err = run(capsys, "fvector", "--ideal", path)
        assert code == 2


class TestGotzmann:
    def test_star_graph(self, capsys, write):
        path = write("star.graph", STAR7_GRAPH)
        code, out, _ = run(capsys, "gotzmann", "--graph", path, "--machine")
        assert code == 0
        assert "is_gotzmann=true" in out
        assert "macaulay_bound=59" in out
        assert "square_free_check=true" in out

    def test_triangle_exit_code(self, capsys, write):
        path = write("tri.graph", TRIANGLE_GRAPH)
        code, out, _ = run(capsys, "gotzmann", "--graph", path)
        assert code == 1
        assert "not Gotzmann" in out

    def test_ideal_input(self, capsys, write):
        path = write("lex.ideal", "3 2\n1:2\n1:1 2:1\n")
        code, out, _ = run(capsys, "gotzmann", "--ideal", path)
        assert code == 0
        assert "GOTZMANN" in out

    def test_wide_ideals(self, capsys, write):
        # a quadric on 1,000 variables is certified; on 10^6, I_3 would list 10^6
        # linear monomials of 10^6 exponents each, and is refused at once
        code, out, _ = run(capsys, "gotzmann", "--ideal", write("wide.ideal", WIDE_IDEAL), "--machine")
        assert code == 0
        assert out.endswith("square_free_check=true\nis_gotzmann=true\n")
        path = write("huge.ideal", "1000000\n1:1 2:1\n")
        started = time.perf_counter()
        code, out, err = run(capsys, "gotzmann", "--ideal", path)
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (2, "")
        assert "exponents in all" in err

    def test_degree_one_cap_is_the_certifiers_alone(self, capsys, write):
        # certify would list 4,097 linear monomials of 4,097 exponents for each generator, so
        # the file is refused unread; hilbert at degree 1 lists nothing and accepts it
        path = write("wide.ideal", "4097\n1:1 2:1\n")
        code, out, err = run(capsys, "gotzmann", "--ideal", path)
        assert (code, out) == (2, "")
        assert err == ("error: degree 1 in 4097 variables has 4097 monomials of 4097 exponents, "
                       "more than 16777216 exponents in all\n")
        code, out, _ = run(capsys, "hilbert", "--ideal", path, "--degree", "1", "--machine")
        assert (code, out) == (0, "degree=1\nh_ring=4097\nh_ideal=0\nh_quotient=4097\n")

    def test_human_shows_bound_next_to_value(self, capsys, write):
        path = write("star.graph", STAR7_GRAPH)
        code, out, _ = run(capsys, "gotzmann", "--graph", path)
        assert code == 0
        assert "Macaulay bound" in out and "59" in out

    def test_human_report_golden(self, capsys, write):
        path = write("star.graph", STAR7_GRAPH)
        code, out, _ = run(capsys, "gotzmann", "--graph", path)
        assert code == 0
        assert out == (
            "generation degree d:  2\n"
            "H(P/I, 2):            23\n"
            "H(P/I, 3):            59\n"
            "Macaulay bound:       59\n"
            "square-free f-check:  pass\n"
            "verdict:              GOTZMANN\n"
        )

    def test_graph_header_with_edge_fields_is_refused(self, capsys, write):
        path = write("flat.graph", "3 1 2\n")
        code, out, err = run(capsys, "gotzmann", "--graph", path)
        assert code == 2
        assert out == "" and "line 1" in err

    def test_machine_output_stable(self, capsys, write):
        path = write("star.graph", STAR7_GRAPH)
        _, first, _ = run(capsys, "gotzmann", "--graph", path, "--machine")
        _, second, _ = run(capsys, "gotzmann", "--graph", path, "--machine")
        assert first == second


class TestVerify:
    def test_small_run(self, capsys):
        code, out, _ = run(
            capsys, "verify-star-theorem", "--max-vertices", "3", "--machine"
        )
        assert code == 0
        assert "graphs_checked=11" in out
        assert "mismatches=0" in out

    def test_machine_output_stable(self, capsys):
        _, first, _ = run(
            capsys, "verify-star-theorem", "--max-vertices", "3", "--machine"
        )
        _, second, _ = run(
            capsys, "verify-star-theorem", "--max-vertices", "3", "--machine"
        )
        assert first == second

    def test_machine_bytes_pinned(self, capsys):
        # the exact stdout every change to the kernel or its tables must keep
        code, out, _ = run(
            capsys, "verify-star-theorem", "--max-vertices", "6", "--machine"
        )
        assert code == 0
        assert out == (
            "max_vertices=6\ngraphs_checked=33867\nstars_found=271\n"
            "gotzmann_found=271\nmismatches=0\n"
        )

    @pytest.mark.parametrize("n", [7, 8, 9])  # N = 8 and 9 are the first runs at depths 3 and 4, about 1 s
    def test_machine_bytes_pinned_beyond_six(self, capsys, n):
        # labeled counts, though the verifier checks one graph per orbit
        graphs, stars = {7: (2131019, 692), 8: (270566475, 1681), 9: (68990043211, 3941)}[n]
        code, out, _ = run(
            capsys, "verify-star-theorem", "--max-vertices", str(n), "--machine"
        )
        assert code == 0
        assert out == (
            f"max_vertices={n}\ngraphs_checked={graphs}\nstars_found={stars}\n"
            f"gotzmann_found={stars}\nmismatches=0\n"
        )

    def test_refuses_hours_long_vertex_count(self, capsys):
        started = time.perf_counter()
        code, out, err = run(capsys, "verify-star-theorem", "--max-vertices", "11")
        assert time.perf_counter() - started < 1.0  # refused before any work
        assert (code, out) == (2, "")
        assert "max_vertices must be in 1..10" in err

    def test_refuses_an_empty_vertex_range(self, capsys):
        code, out, err = run(capsys, "verify-star-theorem", "--max-vertices", "0")
        assert (code, out, err) == (2, "", "error: max_vertices must be in 1..10, not 0\n")

    def test_human_mentions_wall_time(self, capsys):
        code, out, _ = run(capsys, "verify-star-theorem", "--max-vertices", "2")
        assert code == 0
        assert "wall time" in out

    def test_human_prints_one_row_per_vertex_count(self, capsys):
        code, out, _ = run(capsys, "verify-star-theorem", "--max-vertices", "6")
        assert code == 0
        header, *rows = out.splitlines()[6:]
        assert header.split() == ["n", "graphs", "stars", "Gotzmann", "representatives", "seconds"]
        # n, labeled graphs, stars, Gotzmann, blocks checked; the seconds vary
        assert [row.split()[:5] for row in rows] == [
            [str(n), str(1 << binomial(n, 2)), *[str(1 + binomial(n, 2) + n * (2 ** (n - 1) - n))] * 2,
             str(blocks)]
            for n, blocks in zip(range(1, 7), (1, 2, 6, 13, 24, 40))
        ]


class TestExitCodes:
    """Exit 1 is a false verdict, a theorem mismatch among them; exit 3 is a failed internal check."""

    @pytest.mark.usefixtures("uncached_tables")
    @pytest.mark.parametrize("argv", [["verify-star-theorem", "--max-vertices", "4"],
                                      ["gotzmann", "--graph", "star.graph"]])
    def test_macaulay_bound_violation_exits_3(self, capsys, monkeypatch, tmp_path, argv):
        # one less than every Macaulay bound: each Gotzmann ideal now exceeds it
        true_bound = certifier.macaulay_pseudopower
        monkeypatch.setattr(certifier, "macaulay_pseudopower", lambda a, d: true_bound(a, d) - 1)
        (tmp_path / "star.graph").write_text(STAR7_GRAPH)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("internal error: ") and "Macaulay bound" in err

    @pytest.mark.parametrize("argv", [["hilbert", "--ideal", "big", "--degree", "2"],
                                      ["gotzmann", "--ideal", "big"], ["gotzmann", "--graph", "big"],
                                      ["fvector", "--complex", "big"]])
    def test_header_past_an_index_exits_2(self, capsys, tmp_path, argv):
        # a count that no list can have is malformed input, not a failed internal check
        (tmp_path / "big").write_text(f"{sys.maxsize + 1}\n1 2\n")
        argv = [str(tmp_path / a) if a == "big" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1: ") and f"must be in 1..{sys.maxsize}" in err

    @pytest.mark.parametrize("argv, content, message", [
        (["hilbert", "--ideal", "big", "--degree", "2"], "1000000000\n1:1\n", "exponents in all"),
        (["gotzmann", "--ideal", "big"], "1000000000\n1:1\n", "exponents in all"),
        (["gotzmann", "--graph", "big"], "1000000000\n1 2\n", "exponents in all"),
        (["hilbert", "--ideal", "big", "--degree", str(10 ** 18)], "100000\n1:1 2:1\n",
         "could have 5999940 bits, more than 1048576"),
        (["macaulay-rep", "0", str(10 ** 12)], None, "d must be in 1..10000000"),
        (["hilbert", "--ideal", "big", "--degree", str(10 ** 18)], f"100000\n1:{10 ** 18}\n",
         "could have 5999940 bits, more than 1048576"),
        (["gotzmann", "--ideal", "big"], "4000000\n" + "".join(f"{v}:1 {v + 1}:1\n" for v in (1, 3, 5, 7)),
         "degree 1 in 4000000 variables has more than 1048576 monomials"),
        (["fvector", "--ideal", "big"], "10000000000 2\n", "more than 65536 faces"),
        pytest.param(["hilbert", "--ideal", "big", "--degree", "12"], format_ideal(lex_segment_ideal(16, 6, 500)),
                     "I_12 has 27132000 products g * m of 64 bits, about 1953504000 bytes as a set, "
                     "more than 671088640", id="products of lex-ideal 16 6 500"),
        # refused from the products' count, before the 52,003 quadrics of 322 exponents are listed
        pytest.param(["hilbert", "--ideal", "big", "--degree", "5"], CUBES_322,
                     "I_5 has 16744966 products g * m of 966 bits, about 3081073744 bytes as a set, "
                     "more than 671088640", id="products of 322 cubes"),
        # one facet {10^10}: refused from its size and top vertex, before its 10^10-bit mask is built
        (["fvector", "--complex", "big"], "10000000000\n10000000000\n",
         "could take 20000000000 mask bits in all, more than 1073741824"),
    ])
    def test_oversized_input_exits_2_in_bounded_memory(self, tmp_path, argv, content, message):
        # each of these once built 10^9 or more list entries, or computed a binomial of
        # millions of digits, before it was refused
        if content is not None:
            (tmp_path / "big").write_text(content)
        argv = [str(tmp_path / a) if a == "big" else a for a in argv]
        code, out, err, seconds = run_limited(*argv)
        assert (code, out) == (2, ""), err
        assert err.startswith("error: ") and message in err
        assert seconds < 1.0

    @pytest.mark.usefixtures("uncached_tables")
    def test_theorem_mismatch_exits_1_with_its_graph(self, capsys, monkeypatch):
        # the patched table of TestVerifyStarTheorem::test_wrong_table_entry_reports_its_graph
        # in test_certifier.py: the 3-set {1, 3, 4} counted as one holding x1*x2 on four vertices
        cached = certifier._edge_tables
        (triples, vertices), *rest = cached(4)
        wrong = triples | 1 << list(combinations(range(1, 5), 3)).index((1, 3, 4))
        monkeypatch.setattr(certifier, "_edge_tables", lambda n: ((wrong, vertices), *rest) if n == 4 else cached(n))
        code, out, err = run(capsys, "verify-star-theorem", "--max-vertices", "4")
        assert (code, out) == (1, "")
        assert err == ("MISMATCH: counterexample on 4 vertices (edge mask 1): is_gotzmann=False, "
                       "is_star=True, e=1, f_2=1 against the Kruskal-Katona bound 2\n4\n1 2\n\n")

    @pytest.mark.usefixtures("shared_cubic_multiple")
    def test_broken_degree_three_identity_exits_3(self, capsys):
        code, out, err = run(capsys, "verify-star-theorem", "--max-vertices", "4")
        assert (code, out) == (3, "")
        assert err == ("internal error: I_3 of the edge (1, 3) on 4 vertices is not its 2 3-sets "
                       "and 2 multiples of it alone\n")


MACHINE_ARGS = {
    "macaulay-rep": ["23", "2"],
    "pseudopower": ["--kk", "16", "2"],
    "hilbert": ["--ideal", "ex.ideal", "--degree", "3"],
    "fvector": ["--ideal", "ex.ideal"],
    "gotzmann": ["--graph", "star.graph"],
    "verify-star-theorem": ["--max-vertices", "3"],
}


class TestMachineFlag:
    def test_every_machine_subcommand_is_covered(self):
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        takes_machine = {name for name, p in sub.choices.items()
                         if "--machine" in p._option_string_actions}
        assert takes_machine == set(MACHINE_ARGS)

    @pytest.mark.parametrize("command", sorted(MACHINE_ARGS))
    def test_flag_changes_output(self, capsys, monkeypatch, tmp_path, command):
        (tmp_path / "ex.ideal").write_text(PAPER_EXAMPLE_IDEAL)
        (tmp_path / "star.graph").write_text(STAR7_GRAPH)
        monkeypatch.chdir(tmp_path)
        argv = [command, *MACHINE_ARGS[command]]
        code, out, _ = run(capsys, *argv)
        machine_code, machine_out, _ = run(capsys, *argv, "--machine")
        assert code == machine_code == 0
        assert machine_out != out


class TestLexIdeal:
    def test_round_trips_through_gotzmann(self, capsys, write, tmp_path):
        code, out, _ = run(capsys, "lex-ideal", "3", "2", "2")
        assert code == 0
        path = tmp_path / "seg.ideal"
        path.write_text(out)
        code, out, _ = run(capsys, "gotzmann", "--ideal", str(path), "--machine")
        assert code == 0
        assert "is_gotzmann=true" in out

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "lex-ideal", "3", "2", "99")
        assert code == 2
        assert "out of range" in err

    def test_enumeration_cap_both_sides(self, capsys):
        # the cap counts the segment, not the C(27, 14) > 2 * 10^7 monomials of its degree
        code, out, _ = run(capsys, "lex-ideal", "14", "3", "1")
        assert (code, out) == (0, "14 3\n1:3\n")
        code, out, _ = run(capsys, "lex-ideal", "14", "14", "1")
        assert (code, out) == (0, "14 14\n1:14\n")
        started = time.perf_counter()
        code, out, err = run(capsys, "lex-ideal", "14", "14", str((1 << 20) + 1))
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (2, "")
        assert "more than 1048576 monomials" in err

    def test_work_does_not_grow_with_the_degree(self, capsys):
        # each monomial is made from the one before in O(n), so a huge degree costs nothing
        started = time.perf_counter()
        code, out, _ = run(capsys, "lex-ideal", "2", "1000000000", "1")
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (0, "2 1000000000\n1:1000000000\n")
        # 1024 monomials of 16384 exponents sit at the exponent cap; listing them through
        # multisets of size 1000 made about 1.7 * 10^10 comparisons
        started = time.perf_counter()
        code, out, _ = run(capsys, "lex-ideal", "16384", "1000", "1024")
        assert time.perf_counter() - started < 10.0
        assert code == 0
        lines = out.splitlines()
        assert lines[:3] == ["16384 1000", "1:1000", "1:999 2:1"]
        assert (len(lines), lines[-1]) == (1025, "1:999 1024:1")

    def test_wide_segment(self, capsys):
        code, out, _ = run(capsys, "lex-ideal", "1000", "1", "1")
        assert (code, out) == (0, "1000 1\n1:1\n")
        # one of the 500,500 quadrics on 1,000 variables
        code, out, _ = run(capsys, "lex-ideal", "1000", "2", "1")
        assert (code, out) == (0, "1000 2\n1:2\n")
