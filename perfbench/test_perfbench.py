"""Tests of the benchmark's own generators, references and output.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import corpus
import knot_pool
import orbit_ref
import pace
import run
import workloads
from xctangle import (
    bracket_oracle,
    builtin_uqsl2,
    framing_formula,
    lift,
    long_knot_scalar,
    orbit,
    parse_diagram,
    zeval,
)
from xctangle.acceptance import load_golden
from xctangle.randomgen import random_diagram


def code_line(g) -> str:
    sign = g.chord_sign
    return " ".join(f"{k}{v}{'+' if sign[v] > 0 else '-'}"
                    for k, v in g.events[0])


def test_braid_closure_convention():
    g = corpus.braid_closure([1, -2, 1, 2])
    assert code_line(g) == "O1+ U2- U4+ U1+ O3+ O4+ O2- U3+"


@pytest.mark.parametrize("k,name", [(3, "trefoil-right"), (-3, "trefoil-left")])
def test_torus_trefoils_match_golden(k, name):
    g = corpus.torus_knot(k)
    want_bracket, want_scalar = load_golden()[name]
    assert str(bracket_oracle(g)) == want_bracket
    assert str(long_knot_scalar(zeval(lift(g), builtin_uqsl2()))) == want_scalar


def test_non_knot_closure_is_rejected():
    with pytest.raises(ValueError):
        corpus.braid_closure([1, 1])


def test_knots_corpus_is_seeded_and_covers_every_crossing_count():
    a, b = corpus.knots_corpus(7), corpus.knots_corpus(7)
    assert [n for n, _ in a] == [n for n, _ in b]
    assert [g for _, g in a] == [g for _, g in b]
    assert [n for n, _ in a] != [n for n, _ in corpus.knots_corpus(8)]
    assert len(a) >= 100
    assert {len(g.chords) for _, g in a} == set(range(3, 10))


def test_orbit_picks_follow_the_cost_strata():
    pool = corpus.load_orbit_pool()
    picks = corpus.pick_orbits(3, pool)
    assert picks == corpus.pick_orbits(3, pool)
    ranked = sorted(pool, key=lambda e: (e["seconds"], e["id"]))
    ranks = [ranked.index(e) for e in picks]
    cheap, dear = corpus.ORBIT_CHEAP, corpus.ORBIT_CHEAP_POOL
    assert len(set(ranks[:cheap])) == cheap
    assert all(r < dear for r in ranks[:cheap])
    assert corpus.pick_orbits(4, pool)[cheap:] == picks[cheap:]
    size = (len(pool) - dear) // corpus.ORBIT_DEAR
    assert [(r - dear) // size for r in ranks[cheap:]] == list(
        range(corpus.ORBIT_DEAR))


def test_orbit_pool_matches_reference_and_library():
    entry = min(corpus.load_orbit_pool(), key=lambda e: e["work"])
    d = parse_diagram(entry["diagram"])
    members, truncated, work = orbit_ref.reference_orbit(
        d, corpus.ORBIT_DEPTH, corpus.ORBIT_SIZE)
    assert (members, truncated, work) == (
        entry["members"], entry["truncated"], entry["work"])
    res = orbit(d, corpus.ORBIT_DEPTH, corpus.ORBIT_SIZE)
    assert (len(res.keys), res.truncated) == (members, truncated)


def test_framing_reference_agrees_with_library():
    rng = random.Random(5)
    for _ in range(50):
        d = random_diagram(rng, n=1, max_chords=3, max_diamonds=3)
        assert workloads.framing_reference(d) == framing_formula(d)


def test_knot_picks_keep_the_verdict_share():
    pool = corpus.load_knot_pool()
    shares = set()
    for seed in range(1, 6):
        picks = corpus.pick_knots(seed, pool)
        assert picks == corpus.pick_knots(seed, pool)
        assert len({e["id"] for e in picks}) == len(picks)
        shares.add(sum(e["verdict"] == "nonscalar" for e in picks))
    assert len(shares) == 1 and shares.pop() > 0


def test_knot_pool_verdicts_match_library():
    algebra = builtin_uqsl2()
    pool = corpus.load_knot_pool()
    assert [e["word"] for e in pool] == [
        e["word"] for e in corpus.braid_pool(corpus.KNOT_POOL_SEED)]
    for e in [e for e in pool if e["crossings"] == 4][:40]:
        g = corpus.braid_closure(e["word"])
        assert knot_pool.verdict(g, algebra) == e["verdict"]


def test_only_the_expected_refusal_leaves_outputs_correct():
    refusals = workloads.EXPECTED_REFUSALS
    assert run.outputs_correct([None, "nonscalar"], refusals["knots"])
    for workload in ("knots", "certify", "calculus"):
        for cause in ("wrong bracket", "raised KeyError"):
            assert not run.outputs_correct([None, cause], refusals[workload])
    assert not run.outputs_correct(["nonscalar"], refusals["certify"])
    assert not run.outputs_correct(["nonscalar"], refusals["calculus"])


def test_an_item_that_raises_makes_the_run_incorrect(monkeypatch, capsys):
    def fine(tr):
        return None

    def crash(tr):
        raise KeyError("boom")

    monkeypatch.setitem(workloads.WORKLOADS, "calculus",
                        lambda seed, algebra: [("fine", fine),
                                               ("crash", crash)])
    assert run.main(["--workload", "calculus", "--seed", "1",
                     "--seconds", "0", "--trace", "0"]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert out["correct"] is False
    assert (out["attempted"], out["failed"]) == (2, 1)


def test_pace_removes_sampling_and_scales_to_nominal():
    p = pace.Pace()
    p.starts = [1.0, 2.0, 3.0, 9.0]
    p.seconds = [2 * pace.NOMINAL_S] * 3 + [pace.NOMINAL_S]
    assert p.paused(0.5, 3.5) == 3 * 2 * pace.NOMINAL_S
    # the sample at 9.0 is outside the window, so the pace is half nominal
    assert p.scale(1.5, 2.5) == 0.5
    assert p.nominal(1.5, 2.5) == (1.0 - 2 * pace.NOMINAL_S) * 0.5


def test_pace_samples_while_running():
    with pace.Pace() as p:
        while len(p.starts) < 3:
            pace.reference_chunk()
    assert len(p.starts) == len(p.seconds) >= 3
    assert all(t > 0 for t in p.seconds)


def bench(trace: int) -> dict:
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calculus",
         "--seed", "2", "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0
    return out


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_of_its_group(trace, group):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    out = bench(trace)
    assert set(out["metrics"]) == {m["name"] for m in spec[group]}
    units = {m["name"]: m["unit"] for m in spec[group]}
    assert all(v["unit"] == units[k] for k, v in out["metrics"].items())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "knots",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert res.returncode != 0
    assert res.stdout == ""
