"""
Tests of the benchmark itself: every workload runs and passes its checks at
small size, the metrics are the ones BENCHMARK.json declares, and each
answer check rejects a corrupted answer.

    python3 -m pytest -q bench
"""
import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest

import run
import workloads
from dehncover.core import Slope, TorusKnot
from dehncover.hyperbolic import AuditReport
from dehncover.sfscover import CoverDecision, decide_cover

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_small_run_is_correct_and_reports_declared_metrics(name, trace):
    result = run.run(name, seed=7, seconds=0, trace=trace, size="small")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_inputs_repeat_for_a_seed():
    assert workloads.exceptional_inputs(5, "full") == workloads.exceptional_inputs(5, "full")
    assert workloads.verify_inputs(5, "small") == workloads.verify_inputs(5, "small")
    assert workloads.generic_inputs(5, "small") != workloads.generic_inputs(6, "small")


def test_exceptional_check_rejects_wrong_degree():
    K = TorusKnot(2, 3)
    inp = workloads.exceptional_inputs(1, "small")
    results = workloads.exceptional_round(inp, workloads.Clock())
    assert workloads.exceptional_check(inp, results) == []
    idx = next(i for i, (_K, a, b, _d) in enumerate(results)
               if K == _K and (a, b) == (Slope(5, 1), Slope(20, 3)))
    dec = results[idx][3]
    cert = dec.certificate
    wrong = dataclasses.replace(cert, total_degree=2 * cert.total_degree,
                                fiberwise_degree=2 * cert.fiberwise_degree)
    results[idx] = results[idx][:3] + (dataclasses.replace(dec, certificate=wrong),)
    errors = workloads.exceptional_check(inp, results)
    assert any("20/3" in e for e in errors)


def test_exceptional_check_rejects_a_missed_known_cover():
    inp = workloads.exceptional_inputs(1, "small")
    results = workloads.exceptional_round(inp, workloads.Clock())
    idx = next(i for i, (K, a, b, _d) in enumerate(results)
               if (K.r, K.s, a, b) == (2, 3, Slope(9, 1), Slope(9, 2)))
    results[idx] = results[idx][:3] + (CoverDecision(False, reason="h1-divisibility"),)
    assert workloads.exceptional_check(inp, results)


def test_exceptional_check_counts_a_raising_op_as_wrong():
    inp = workloads.exceptional_inputs(1, "small")
    results = workloads.exceptional_round(inp, workloads.Clock())
    idx = next(i for i, (K, a, b, _d) in enumerate(results)
               if (K.r, K.s, a, b) == (2, 3, Slope(5, 1), Slope(20, 3)))
    results[idx] = results[idx][:3] + (workloads.FAILED,)
    assert any("must cover in degree 12" in e for e in workloads.exceptional_check(inp, results))


def test_a_raising_op_makes_the_run_incorrect(monkeypatch):
    def broken(K, a, b):
        raise RuntimeError("broken")

    monkeypatch.setattr(workloads.sfscover, "decide_cover", broken)
    result = run.run("generic-scan", seed=7, seconds=0, trace=False, size="small")
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_generic_check_rejects_flipped_decision():
    inp = workloads.generic_inputs(1, "small")
    results = workloads.generic_round(inp, workloads.Clock())
    assert workloads.generic_check(inp, results) == []
    K = TorusKnot(4, 7)
    cover = decide_cover(K, Slope(105, 4), Slope(21, 1))
    assert cover.covers
    flipped_yes = [(K, Slope(105, 4), Slope(21, 1), CoverDecision(False, reason="gcd-condition"))]
    assert workloads.generic_check(inp, flipped_yes)
    K, a, b, dec = next(r for r in results if not r[3].covers)
    assert workloads.generic_check(inp, [(K, a, b, cover)])


def test_verify_check_rejects_wrong_degree_and_unclean_pair():
    pairs = workloads.verify_inputs(1, "small")
    results = workloads.verify_round(pairs, workloads.Clock())
    assert workloads.verify_check(pairs, results) == []
    base, n, rep, witnesses = next(r for r in results if r[1] >= 2 and r[3])
    orders, w = next(iter(witnesses.items()))
    wrong = {orders: dataclasses.replace(w)}
    object.__setattr__(wrong[orders], "degree", n + 1)
    assert workloads.verify_check(pairs, [(base, n, rep, wrong)])
    unclean = dataclasses.replace(rep, table_only=((7, 7, 7),))
    assert workloads.verify_check(pairs, [(base, n, unclean, witnesses)])


@pytest.fixture(scope="module")
def census_run(tmp_path_factory):
    inp = workloads.census_inputs(3, "small", str(tmp_path_factory.mktemp("census")))
    results = workloads.census_round(inp, workloads.Clock())
    assert workloads.census_check(inp, results) == []
    return inp, results


def test_census_makeup(census_run):
    inp, _ = census_run
    assert {p.kind for p in inp.planted} == set(workloads.census_gen.PLANT_KINDS)
    assert sum(r.thin for r in inp.records) == len(inp.records) // workloads.census_gen.THIN_EVERY
    assert all(1e-3 <= r.im <= 8.0 for r in inp.records)


def _drop_row(results, pick):
    out = list(results)
    for i, rep in enumerate(out[1:], 1):
        rows = list(rep.rows)
        for j, row in enumerate(rows):
            if pick(rep, row):
                del rows[j]
                out[i] = AuditReport(rep.knot, tuple(rows))
                return out
    raise AssertionError("no row to drop")


def test_census_check_rejects_dropped_short_slope(census_run):
    inp, results = census_run
    bad = _drop_row(results, lambda rep, row: row.cover_slope == "*")
    assert any("missing" in e for e in workloads.census_check(inp, bad))


def test_census_check_rejects_missed_planted_match(census_run):
    inp, results = census_run
    pl = next(p for p in inp.planted if p.survives)
    cover, base = "%d/%d" % pl.cover, "%d/%d" % pl.base
    bad = _drop_row(results, lambda rep, row: rep.knot == pl.record
                    and (row.cover_slope, row.base_slope) == (cover, base))
    assert any("missed" in e for e in workloads.census_check(inp, bad))
