"""Unit self-tests of the rpq benchmark's parts: statistics, tracer, inputs, compare."""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

import compare
from layers import Layer, LayerTracer
from metrics import CLASS_METRICS, InsufficientSamples, Metric, percentile
from workloads import WORKLOADS, Stopwatch


def test_percentile_refuses_samples_without_ten_beyond_it():
    with pytest.raises(InsufficientSamples):
        percentile([1.0] * 199, 0.95)
    with pytest.raises(InsufficientSamples):
        percentile([1.0] * 19, 0.50)
    assert percentile([float(value) for value in range(200)], 0.95) == pytest.approx(189.05)
    assert percentile([float(value) for value in range(21)], 0.50) == 10.0


def test_tracer_rebinds_every_alias_and_restores_them():
    import repro.core.safety
    import repro.service.cache

    original = repro.core.safety.analyze_safety
    layer = Layer("safety", {"repro.core.safety:analyze_safety": "adhoc-queries"})
    with LayerTracer((layer,)) as tracer:
        assert repro.service.cache.analyze_safety is not original
        assert repro.service.cache.analyze_safety is repro.core.safety.analyze_safety
        tracer.active = True
        spec = repro.bioaid_specification()
        repro.core.safety.is_safe_query(spec, "_* f1_fork _*")
        tracer.active = False
    assert repro.service.cache.analyze_safety is original
    assert repro.core.safety.analyze_safety is original
    assert tracer.target_calls() == {"safety:analyze_safety": 1}
    assert tracer.layer_totals()["safety"][1] > 0


def test_tracer_reports_missing_targets_as_unmapped():
    layer = Layer(
        "gone",
        {"repro.core.safety:no_such_function": "hot-serve", "repro.no_such_module:f": "hot-serve"},
    )
    with LayerTracer((layer,)) as tracer:
        pass
    assert set(tracer.unmapped) == set(layer.serves)
    assert tracer.target_calls() == {}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_a_different_seed_gives_different_inputs(name, tmp_path):
    def first_requests(seed: int) -> list:
        workload = WORKLOADS[name](seed, tmp_path / f"seed-{seed}")
        try:
            workload.setup(Stopwatch())
            ops = workload.ops()
            keys = [key for _, key, _ in itertools.islice(ops, workload.cycle)]
            ops.close()
            return keys
        finally:
            workload.close()

    assert first_requests(1) == first_requests(1)
    assert first_requests(1) != first_requests(2)


def write_results(path: Path, values: list[float], metric: str = "p50_ms") -> str:
    records = [
        {"workload": "hot-serve", "metrics": {metric: {"value": value, "unit": "ms"}}}
        for value in values
    ]
    path.write_text(json.dumps({"records": records}))
    return str(path)


@pytest.mark.parametrize(
    ("parent", "change", "label"),
    [
        ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0], [8.0] * 10, "improved"),
        ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0], [13.0] * 10, "worse"),
        ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0], [10.05] * 10, "unchanged"),
        ([5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0], [10.0] * 10, "unresolved"),
    ],
)
def test_compare_labels_rows(tmp_path, parent, change, label, capsys):
    old = write_results(tmp_path / "parent.json", parent)
    new = write_results(tmp_path / "change.json", change)
    status = compare.main(["compare", old, "--", new])
    row = capsys.readouterr().out.splitlines()[1]
    assert row.split()[-1] == label
    assert status == (1 if label == "worse" else 0)


def test_error_rate_is_compared_absolutely():
    metric = CLASS_METRICS["error_rate"]
    assert compare.verdict([0.0] * 10, [0.001] * 10, metric, metric.bound)[0] == "worse"
    assert compare.verdict([0.0] * 10, [0.0] * 10, metric, metric.bound)[0] == "unchanged"
    ops = Metric("ops_per_s", "ops/s", "higher")
    assert compare.verdict([100.0] * 10, [70.0] * 10, ops, 0.2)[0] == "worse"
