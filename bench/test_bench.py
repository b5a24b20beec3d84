"""Tests of the benchmark itself: seeded inputs, exact checks, tiny runs.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import run
import workloads as w
from gotzmann import certifier, combinatorics

SPEC = json.loads(run.SPEC.read_text())


def test_same_seed_gives_same_inputs():
    assert w.ideal_inputs(7, 2) == w.ideal_inputs(7, 2)
    assert w.ideal_inputs(7, 2) != w.ideal_inputs(8, 2)
    assert w.macaulay_inputs(7, w.FULL) == w.macaulay_inputs(7, w.FULL)
    assert w.macaulay_inputs(7, w.FULL) != w.macaulay_inputs(8, w.FULL)


def test_inputs_are_stratified():
    ideals = Counter((i.kind, i.n, i.d) for i in w.ideal_inputs(3, 2))
    assert set(ideals) == set(w.IDEAL_CELLS)
    assert set(ideals.values()) == {2}
    cells = Counter((d, len(str(a)) - 1) for a, d in w.macaulay_inputs(3, w.FULL))
    assert set(cells) == set(w.macaulay_cells(w.FULL))
    assert set(cells.values()) == {w.FULL.macaulay_per_cell}
    assert max(a for a, d in w.macaulay_inputs(3, w.FULL) if d == 1) < 10**6


def test_ideal_files_hold_their_generators():
    for item in w.ideal_inputs(5, 1):
        out = w.ideal_chain(w.UNTRACED, item)
        assert w.check_ideal(item, out) is None
        if item.kind != "lex":
            assert item.squarefree == (item.kind == "squarefree")


def test_census_star_formula_matches_enumeration():
    assert w.census_star_count(6) == 271
    assert len(w.census_inputs(6)) == 33867
    assert sum(w.star_mask(n, mask) for n, mask in w.census_inputs(5)) == w.census_star_count(5)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", w.WORKLOADS)
def test_tiny_run_is_correct(workload, trace):
    outcome = w.run(workload, seed=1, seconds=0, trace=trace, size=w.TINY)
    assert outcome.tally.attempted > 0
    assert outcome.tally.failed == 0, outcome.tally.first_error
    assert outcome.metrics["error_rate"][0] == 0
    listed = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    measured_by_run_py = set() if trace else {"setup_s", "peak_rss_mb"}
    assert listed - measured_by_run_py <= set(outcome.metrics)


def _wrong_power(real):
    return lambda a, d: real(a, d) + 1


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", w.WORKLOADS)
def test_injected_wrong_result_raises_error_rate(monkeypatch, workload, trace):
    monkeypatch.setattr(certifier, "macaulay_pseudopower",
                        _wrong_power(certifier.macaulay_pseudopower))
    monkeypatch.setattr(combinatorics, "macaulay_pseudopower",
                        _wrong_power(combinatorics.macaulay_pseudopower))
    outcome = w.run(workload, seed=1, seconds=0, trace=trace, size=w.TINY)
    assert outcome.tally.failed > 0
    assert outcome.metrics["error_rate"][0] > 0


def test_cli_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
