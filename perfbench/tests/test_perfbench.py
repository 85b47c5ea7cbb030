"""Tests of the benchmark itself: statistics, self time, failure counting,
seeded generators and the tracer's installation.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""
import itertools
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import stats, tracer  # noqa: E402
from perfbench.run import END_TO_END, TRACE_METRICS  # noqa: E402
from perfbench.worker import run_phase  # noqa: E402
from perfbench.workloads import (FOCK_SCALE, ROUND_TRIP_SHAPES, UNIT_PAIRS,  # noqa: E402
                                 WORKLOADS, CheckFailed, Context, Workload,
                                 blocks, require)


# -- tail percentile -----------------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    t = stats.tail([float(i) for i in range(1, 101)])
    assert t == {"value": 90.0, "percentile": 90.0, "beyond": 10, "samples": 100}


def test_tail_order_does_not_matter():
    values = [float(i) for i in range(1, 51)]
    assert stats.tail(values[::-1]) == stats.tail(values)
    assert stats.tail(values)["value"] == 40.0


def test_tail_with_few_samples_stays_at_or_above_median():
    t = stats.tail([float(i) for i in range(1, 16)])
    assert t["value"] == 8.0 == stats.median(range(1, 16))
    assert t["beyond"] == 7 and t["samples"] == 15
    t = stats.tail([float(i) for i in range(1, 21)])
    assert t["value"] == 11.0 >= stats.median(range(1, 21))
    assert t["beyond"] == 9


def test_tail_of_one_sample():
    assert stats.tail([2.5]) == {"value": 2.5, "percentile": 100.0, "beyond": 0, "samples": 1}
    with pytest.raises(ValueError):
        stats.tail([])


# -- self time -------------------------------------------------------------


def _span(name, start, end, parent, op=0):
    return [name, start, end, parent, op]


def test_self_time_subtracts_children():
    spans = [
        _span("op", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("op", 0.0, 10.0, None),
        _span("a", 1.0, 6.0, 0),
        _span("b", 4.0, 8.0, 0),
        _span("c", 9.0, 12.0, 0),   # runs past its parent: clipped
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_layer_metrics_are_per_operation():
    spans = [
        _span("op", 0.0, 4.0, None, 0),
        _span("fockeng.ladder", 1.0, 2.0, 0, 0),
        _span("op", 4.0, 8.0, None, 1),
        _span("fockeng.ladder", 5.0, 5.5, 2, 1),
        _span("fockeng.ladder", 6.0, 6.5, 2, 1),
    ]
    metrics = tracer.layer_metrics(spans, {"phasealg.exact_mul": 10}, operations=2)
    assert metrics["fockeng.ladder.calls"] == {"value": 1.5, "unit": "count/op"}
    assert metrics["fockeng.ladder.self_s"]["value"] == pytest.approx(1.0)
    assert metrics["phasealg.exact_mul.calls"]["value"] == 5.0
    assert metrics["landau.self_s"]["value"] == 0.0
    assert len(metrics) == len(tracer.LAYER_METRICS)


def test_wrapped_calls_nest_under_the_operation():
    tr = tracer.Tracer()
    inner = tr.wrap("inner", lambda x: x + 1)
    outer = tr.wrap("outer", lambda x: inner(x) * 2)
    assert tr.operation(7, outer, 1) == 4
    names = [(s[0], s[3], s[4]) for s in tr.spans]
    assert names == [("op", None, 7), ("outer", 0, 7), ("inner", 1, 7)]
    assert all(s[2] >= s[1] for s in tr.spans)


# -- failures are counted, never dropped -------------------------------------


def _fake_run(ctx, inp):
    if inp["kind"] == "raises":
        raise RuntimeError("operation blew up")
    return inp["kind"]


def _fake_check(ctx, inp, out):
    require(out == "good", f"bad output {out!r}")


FAKE = Workload(
    name="fake", why="test", warmup={"kind": "good"}, run=_fake_run, check=_fake_check,
    block=lambda rng: [{"kind": "good"}, {"kind": "raises"}, {"kind": "wrong"},
                       {"kind": "good"}],
)


def test_failing_operations_raise_fail_rate(tmp_path):
    ctx = Context(riaho=None, workdir=tmp_path)
    result = run_phase(FAKE, ctx, blocks(FAKE, seed=1), seconds=0.0)
    assert len(result["samples"]) == 4          # one whole block, nothing dropped
    assert [f["op"] for f in result["failures"]] == [1, 2]
    assert "operation blew up" in result["failures"][0]["error"]
    assert "CheckFailed" in result["failures"][1]["error"]
    assert len(result["failures"]) / len(result["samples"]) == 0.5


def test_require_raises_check_failed():
    with pytest.raises(CheckFailed):
        require(False, "no")


# -- seeded generators ---------------------------------------------------------


def _first_blocks(workload, seed, n=3):
    return list(itertools.islice(blocks(workload, seed), n))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    workload = WORKLOADS[name]
    assert _first_blocks(workload, 5) == _first_blocks(workload, 5)


@pytest.mark.parametrize("name", ["exact-algebra", "fock-scale", "datasets"])
def test_other_seed_other_inputs(name):
    workload = WORKLOADS[name]
    assert _first_blocks(workload, 5) != _first_blocks(workload, 6)


def test_blocks_hold_every_input_class_once():
    for block in _first_blocks(FOCK_SCALE, 3):
        assert sorted((i["truncation"], i["nmax"]) for i in block) == [
            (t, n) for t in (18, 20, 22) for n in (3, 4)]
    for block in _first_blocks(WORKLOADS["exact-algebra"], 3):
        assert sorted(tuple(i["units"]) for i in block) == sorted(UNIT_PAIRS)
        for inp in block:
            shapes = sorted(tuple(sorted(term[:4], reverse=True)) for term in inp["poly"])
            assert shapes == sorted(ROUND_TRIP_SHAPES)
    for block in _first_blocks(WORKLOADS["datasets"], 3):
        assert [i["format"] for i in block] == ["csv", "json"]


# -- the tracer on riaho ---------------------------------------------------------


def test_tracer_installs_on_riaho_and_restores_it(tmp_path):
    import riaho.cli
    import riaho.landau
    originals = (riaho.landau.landau_to_g, riaho.cli._SUITE_BUILDERS["landau"])
    tr = tracer.Tracer()
    tr.install(tracer.riaho_hooks())
    try:
        assert riaho.landau.landau_to_g is not originals[0]
        rc = tr.operation(0, riaho.cli.main, ["verify", "landau", "--outdir", str(tmp_path)])
    finally:
        tr.uninstall()
    assert rc == 0
    assert (riaho.landau.landau_to_g, riaho.cli._SUITE_BUILDERS["landau"]) == originals
    metrics = tracer.layer_metrics(tr.spans, tr.counters, operations=1)
    assert metrics["cli.suite.landau.s"]["value"] > 0
    assert metrics["landau.self_s"]["value"] > 0
    assert metrics["cli.suite.landau.failed"]["value"] == 0
    assert metrics["cli.report_json.self_s"]["value"] > 0


# -- BENCHMARK.json ----------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (name, unit) for name, unit, _, _ in tracer.LAYER_METRICS] + list(TRACE_METRICS)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
