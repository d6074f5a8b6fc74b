"""Offline comparison of rpq result files: parent runs against change runs.

    python3 benchmarks/rpq/run.py compare PARENT.json... -- CHANGE.json...
    python3 benchmarks/rpq/run.py summarize RESULT.json...

Each file is a ``--json`` output of ``run.py``.  Runs pair up in the order
given (the i-th parent run with the i-th change run), so alternate which side
runs first when producing them.  Per workload and metric, ``compare``
reports both sides' medians and quartiles and labels the row:

* ``improved``: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  range;
* ``worse``: the change's median is worse than the parent's by more than the
  metric's bound (``BENCHMARK.json`` for the end-to-end metrics, the
  request-class bounds of ``metrics.py`` otherwise; ``error_rate`` is
  absolute, bound 0);
* ``unresolved``: not worse, but the parent's own spread (interquartile range
  over median) exceeds the bound, and not every change run beats every
  parent run;
* ``unchanged``: otherwise.

The exit code is 1 when any row is worse.  ``summarize`` prints, as JSON,
each metric's median, quartiles, spread and run count (the form of
``baseline.json``).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from metrics import CLASS_METRICS, END_TO_END, Metric

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
WIN_SHARE = 0.9
#: Metrics whose bound is an absolute difference rather than a share.
ABSOLUTE = {"error_rate"}

Series = dict[tuple[str, str], list[float]]


def known_metrics() -> dict[str, tuple[Metric, float]]:
    """Every comparable metric with its bound."""
    bounds = {
        entry["name"]: entry["bound"]
        for entry in json.loads(BENCHMARK.read_text())["end_to_end"]
    }
    catalogue = {metric.name: (metric, bounds[metric.name]) for metric in END_TO_END}
    catalogue.update((name, (metric, metric.bound)) for name, metric in CLASS_METRICS.items())
    return catalogue


def load(paths: list[str]) -> Series:
    """``(workload, metric) -> values`` in file order; refused percentiles
    and metrics without a direction (per-layer ones) are skipped."""
    known = known_metrics()
    series: Series = {}
    for path in paths:
        for record in json.loads(Path(path).read_text())["records"]:
            for name, entry in record["metrics"].items():
                if name in known and entry.get("value") is not None:
                    series.setdefault((record["workload"], name), []).append(entry["value"])
    return series


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def spread(values: list[float], absolute: bool) -> float:
    first, median, third = quartiles(values)
    if absolute:
        return third - first
    return (third - first) / abs(median) if median else 0.0


def verdict(
    parent: list[float], change: list[float], metric: Metric, bound: float
) -> tuple[str, float, str]:
    """The row label, the change's worsening (share or absolute), and wins."""
    absolute = metric.name in ABSOLUTE
    sign = 1.0 if metric.better == "lower" else -1.0
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    worse_by = (change_median - parent_median) * sign
    if not absolute:
        worse_by = worse_by / abs(parent_median) if parent_median else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for old, new in pairs if (new - old) * sign < 0)
    first, _, third = quartiles(parent)
    beats_spread = abs(change_median - parent_median) > third - first
    all_better = all((new - old) * sign < 0 for old in parent for new in change)
    if pairs and wins >= WIN_SHARE * len(pairs) and beats_spread and worse_by < 0:
        label = "improved"
    elif worse_by > bound:
        label = "worse"
    elif spread(parent, absolute) > bound and not all_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return label, worse_by, f"{wins}/{len(pairs)}"


def _stats(values: list[float]) -> str:
    first, median, third = quartiles(values)
    return f"{median:.5g} [{first:.5g}, {third:.5g}]"


def compare(parent_paths: list[str], change_paths: list[str]) -> int:
    known = known_metrics()
    parent, change = load(parent_paths), load(change_paths)
    print(
        f"{'workload':15s} {'metric':22s} {'unit':8s} {'parent median [q1, q3]':34s} "
        f"{'change median [q1, q3]':34s} {'worse by':>9s} {'wins':>6s} {'bound':>6s}  label"
    )
    worse = 0
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        metric, bound = known[name]
        label, worse_by, wins = verdict(parent[key], change[key], metric, bound)
        worse += label == "worse"
        shown = f"{worse_by:+.4f}" if name in ABSOLUTE else f"{worse_by:+.1%}"
        print(
            f"{workload:15s} {name:22s} {metric.unit:8s} {_stats(parent[key]):34s} "
            f"{_stats(change[key]):34s} {shown:>9s} {wins:>6s} {bound:>6.2f}  {label}"
        )
    for key in sorted(set(parent) ^ set(change)):
        print(f"{key[0]:15s} {key[1]:22s} present on one side only")
    return 1 if worse else 0


def summarize(paths: list[str]) -> int:
    summary: dict[str, dict[str, dict[str, float]]] = {}
    for (workload, name), values in sorted(load(paths).items()):
        first, median, third = quartiles(values)
        summary.setdefault(workload, {})[name] = {
            "median": median,
            "q1": first,
            "q3": third,
            "spread": spread(values, name in ABSOLUTE),
            "runs": len(values),
        }
    print(json.dumps(summary, indent=1))
    return 0


def main(argv: list[str]) -> int:
    command, arguments = argv[0], argv[1:]
    if command == "summarize":
        if not arguments:
            print("usage: run.py summarize RESULT.json...", file=sys.stderr)
            return 2
        return summarize(arguments)
    if "--" not in arguments:
        print("usage: run.py compare PARENT.json... -- CHANGE.json...", file=sys.stderr)
        return 2
    split = arguments.index("--")
    parent_paths, change_paths = arguments[:split], arguments[split + 1:]
    if not parent_paths or not change_paths:
        print("usage: run.py compare PARENT.json... -- CHANGE.json...", file=sys.stderr)
        return 2
    return compare(parent_paths, change_paths)
