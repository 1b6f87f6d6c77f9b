"""perflab's own checks.  Run from the repository root::

    python -m pytest perflab/tests -q
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import perflab  # noqa: E402 - puts src/ on the path
from perflab import compare, layers, reference, registry, runner, trace  # noqa: E402
from perflab.workloads import WORKLOAD_CLASSES  # noqa: E402

from repro.storage.relation import Relation  # noqa: E402
from repro.storage.schema import Schema  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- the registry and BENCHMARK.json ---------------------------------------------------


def test_names_units_and_counts():
    names = [w.name for w in registry.WORKLOADS]
    names += [m.name for m in registry.END_TO_END] + [m.name for m in registry.PER_LAYER]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m.unit) for m in registry.END_TO_END + registry.PER_LAYER)
    assert 2 <= len(registry.WORKLOADS) <= 8
    assert len(registry.END_TO_END) <= 16
    assert len(registry.PER_LAYER) == 77 <= 128
    assert tuple(w.name for w in registry.WORKLOADS) == registry.ALL
    assert set(WORKLOAD_CLASSES) == set(registry.ALL)
    assert all(0 < m.bound <= 0.25 for m in registry.END_TO_END)
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in registry.WORKLOADS)


def test_every_per_layer_metric_declares_what_it_moves():
    for metric in registry.PER_LAYER:
        assert metric.better in ("lower", "higher")
        assert metric.kind in ("share", "count", "micro", "info")
        if metric.moves == "none":
            assert metric.on == ()
        else:
            assert metric.moves in registry.END_TO_END_BY_NAME, metric.name
            assert metric.on and set(metric.on) <= set(registry.ALL), metric.name


def test_benchmark_json_lists_the_registry():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert document["paths"] == ["perflab"]
    assert document["command"] == ["python3", "-m", "perflab"]
    assert document["workloads"] == [{"name": w.name, "why": w.why} for w in registry.WORKLOADS]
    assert document["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in registry.END_TO_END
    ]
    assert document["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in registry.PER_LAYER
    ]
    setup = registry.END_TO_END_BY_NAME["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in registry.END_TO_END)


def test_every_traced_layer_has_a_share_metric():
    traced_layers = {layer for _, _, layer, _, _ in trace.span_targets()}
    traced_layers |= set(trace.OPERATOR_LAYERS.values()) | {trace.DEFAULT_OPERATOR_LAYER}
    assert traced_layers == set(layers.SHARE_LAYERS.values())
    assert set(layers.SHARE_LAYERS) | {"harness.driver.share"} == {
        m.name for m in registry.PER_LAYER if m.kind == "share"
    }


# -- the tracer ---------------------------------------------------------------------------


def test_install_uninstall_restores_identical_objects():
    from repro.core import system
    from repro.engine.iterators import Operator

    tracer = trace.Tracer()
    before = {
        (owner, attribute): vars(owner)[attribute]
        for owner, attribute, *_ in trace.span_targets() + trace.count_targets()
    }
    before.update({(Operator, method): vars(Operator)[method] for method in trace.OPERATOR_METHODS})
    imported_by_name = system.parse_query
    tracer.install()
    try:
        patched = tracer.patched
        assert {(owner, attribute) for owner, attribute, _ in patched} >= set(before)
        for owner, attribute, original in patched:
            assert vars(owner)[attribute] is not original
            assert vars(owner)[attribute].__wrapped__ is original
        assert system.parse_query is not imported_by_name
    finally:
        tracer.uninstall()
    assert tracer.patched == []
    for (owner, attribute), original in before.items():
        assert vars(owner)[attribute] is original
    for owner, attribute, original in patched:
        assert vars(owner)[attribute] is original
    assert system.parse_query is imported_by_name


def test_self_time_arithmetic_on_nested_spans():
    spans = [
        [0, -1, 0, "a", "root", 0, 100, 0],
        [1, 0, 0, "b", "child", 10, 40, 0],
        [2, 1, 0, "c", "grandchild", 20, 30, 0],
        [3, 0, 0, "b", "second child", 50, 70, 0],
        [4, -1, 1, "a", "next op", 200, 260, 0],
    ]
    assert trace.self_times(spans) == {0: 50, 1: 20, 2: 10, 3: 20, 4: 60}
    totals = trace.layer_self_ns(spans)
    assert totals == {(0, "a"): 50, (0, "b"): 40, (0, "c"): 10, (1, "a"): 60}
    assert sum(v for (op, _), v in totals.items() if op == 0) == 100


# -- the reference evaluator ----------------------------------------------------------------


def test_reference_join_and_order_independent_digest():
    left = Relation.from_values("l", Schema.of("k:int", "v:str"), [(1, "a"), (2, "b"), (2, "c")])
    right = Relation.from_values("r", Schema.of("k:int", "w:float"), [(2, 0.5), (2, 1.5), (3, 9.0)])
    query = reference.JoinQuery("q", ("l", "r"), (("l", "k", "r", "k"),))
    answer = reference.evaluate(query, {"l": left, "r": right})
    assert answer.cardinality == 4
    names = ["r.w", "l.v", "r.k", "l.k"]
    rows = [(1.5, "c", 2, 2), (0.5, "b", 2, 2), (1.5, "b", 2, 2), (0.5, "c", 2, 2)]
    assert reference.multiset_digest(names, rows) == answer
    assert reference.multiset_digest(names, rows[:3] + rows[:1]) != answer
    assert reference.evaluate(query, {"l": left, "r": right}) == answer


# -- compare ------------------------------------------------------------------------------------


def test_compare_verdicts_and_ratio_text():
    lower = registry.EndToEnd("m", "ku", "lower", 0.10, "")
    assert compare.ratio_text(3.0, 0.0) == "n/a"
    assert compare.ratio_text(3.0, 2.0) == "1.5000x of 2"
    assert compare.verdict(lower, [10.0], [10.9], [], None) == "ok"
    assert compare.verdict(lower, [10.0], [11.1], [], None) == "worse"
    assert compare.verdict(lower, [10.0], [10.5], [], 0.2) == "unresolved"
    assert compare.verdict(lower, [8.0, 10.0, 12.0, 14.0], [11.0], [], None) == "unresolved"
    assert compare.verdict(lower, [0.0], [0.0], [], None) == "ok"
    assert compare.verdict(lower, [0.0], [1.0], [], None) == "n/a"
    parent = [10.0 + 0.01 * i for i in range(10)]
    change = [9.5] * 10
    assert compare.verdict(lower, parent, change, list(zip(parent, change)), None) == "better"
    assert compare.verdict(lower, parent, change, list(zip(parent, change))[:9], None) == "ok"


# -- every workload, end to end and traced, at a tenth of the scale ---------------------------


def test_every_workload_runs_clean_at_small_scale(monkeypatch, tmp_path):
    monkeypatch.setattr(runner, "OUT_DIR", tmp_path)
    monkeypatch.setattr(layers, "MICRO_SECONDS", 0.005)
    started = time.perf_counter()
    for name in registry.ALL:
        for traced in (False, True):
            report = runner.run(
                runner.RunConfig(name, seed=7, ops=2, scale_factor=0.1, trace=traced)
            )
            result = report["result"]
            assert result["correct"] and result["failed"] == 0, report["failures"]
            assert result["attempted"] == (4 if traced else 2)  # traced: 2 bare + 2 traced
            expected = registry.PER_LAYER if traced else registry.END_TO_END
            assert list(result["metrics"]) == [m.name for m in expected]
            assert all(m["unit"] == e.unit for m, e in zip(result["metrics"].values(), expected))
            if traced:
                shares = sum(
                    m["value"] for n, m in result["metrics"].items() if n.endswith(".share")
                )
                assert abs(shares - 100.0) < 1e-6
                events = json.loads((tmp_path / f"trace-{name}.json").read_text())["traceEvents"]
                assert events and {"name", "cat", "ph", "ts", "dur"} <= set(events[0])
            else:
                assert all(m["value"] > 0 for m in result["metrics"].values())
    assert time.perf_counter() - started < 30.0
    assert perflab.OUT_DIR.name == "out"
