"""Trajectory gating: compare a benchmark run against the stored trajectory.

The stored trajectory (committed under ``benchmarks/trajectory/``) is the
last blessed ``repro-bench-trajectory/1`` document.  :func:`compare` checks a
fresh run against it with noise-tolerant thresholds:

* **median regression** — a scenario fails when its median latency grew by
  more than ``max_regression``× *after normalizing both documents by their
  calibration loop* (a fixed pure-Python busy loop timed alongside every
  run), so a slower CI runner shifts both sides equally, and only when the
  absolute growth clears ``min_significant_s`` (microsecond noise never
  gates);
* **checksum drift** — a scenario whose result-count checksum changed
  answers differently, which is a correctness regression however fast it
  ran (refresh the trajectory deliberately when the workload itself
  changed);
* **invariants** — the catalog's declared cross-scenario relations
  (backward < forward, warm restart ≥ 3.5x, ...) must hold in the *current*
  results, independent of history.

A missing trajectory file bootstraps: the current results are written as the
new baseline and the gate passes (first run of a new repo or a new suite).
Malformed trajectory JSON is a clean one-line :class:`TrajectoryError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.bench.scenarios import SCHEMA, Invariant
from repro.errors import ReproError

__all__ = [
    "GateReport",
    "TrajectoryError",
    "compare",
    "load_trajectory",
    "write_trajectory",
]

#: A scenario regresses when its normalized median grows past this factor...
DEFAULT_MAX_REGRESSION = 3.0
#: ...and the absolute growth exceeds this floor (seconds).
MIN_SIGNIFICANT_S = 0.005
#: Improvements beyond this factor are called out in the report.
IMPROVEMENT_FACTOR = 1.5


class TrajectoryError(ReproError):
    """A trajectory document that cannot be read or compared."""


@dataclass
class Verdict:
    """One line of the gate report."""

    subject: str  # scenario or invariant id
    status: str  # ok | improved | regressed | checksum-drift | invariant-failed
    #             | new | not-run | skipped
    message: str
    failing: bool = False


@dataclass
class GateReport:
    verdicts: list[Verdict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not any(verdict.failing for verdict in self.verdicts)

    @property
    def failures(self) -> list[Verdict]:
        return [verdict for verdict in self.verdicts if verdict.failing]

    def render(self) -> str:
        lines = []
        for verdict in self.verdicts:
            marker = "FAIL" if verdict.failing else "ok  "
            lines.append(f"{marker}  {verdict.subject:<32} {verdict.status:<16} {verdict.message}")
        summary = (
            f"gate: {'PASS' if self.passed else 'FAIL'} "
            f"({len(self.failures)} failing, {len(self.verdicts)} checks)"
        )
        return "\n".join([*lines, summary])


def load_trajectory(path: str | Path) -> dict[str, Any]:
    """Read and validate one trajectory document (clean one-line errors)."""
    path = Path(path)
    try:
        document = json.loads(path.read_text())
    except OSError as error:
        raise TrajectoryError(
            f"cannot read trajectory {path}: {error.strerror or error}"
        ) from error
    except json.JSONDecodeError as error:
        raise TrajectoryError(f"trajectory {path} is not valid JSON ({error})") from error
    if not isinstance(document, dict) or document.get("schema") != SCHEMA:
        raise TrajectoryError(
            f"trajectory {path} has schema {document.get('schema') if isinstance(document, dict) else None!r}; "
            f"expected {SCHEMA!r} (refresh it with 'repro bench run --suite ci --json {path}')"
        )
    entries = document.get("scenarios")
    if not isinstance(entries, list) or not all(
        isinstance(entry, dict) and entry.get("id") for entry in entries
    ):
        raise TrajectoryError(f"trajectory {path} has a malformed 'scenarios' table")
    return document


def write_trajectory(document: Mapping[str, Any], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def _by_id(document: Mapping[str, Any]) -> dict[str, dict[str, Any]]:
    return {entry["id"]: entry for entry in document.get("scenarios", [])}


def _normalizer(baseline: Mapping[str, Any], current: Mapping[str, Any]) -> float:
    """current-to-baseline machine-speed ratio from the calibration loops."""
    base = baseline.get("calibration_s") or 0.0
    cur = current.get("calibration_s") or 0.0
    if base > 0 and cur > 0:
        return cur / base
    return 1.0


def compare(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    *,
    invariants: Sequence[Invariant] = (),
    max_regression: float = DEFAULT_MAX_REGRESSION,
    min_significant_s: float = MIN_SIGNIFICANT_S,
) -> GateReport:
    """Gate ``current`` against ``baseline`` (see module notes for the rules)."""
    report = GateReport()
    if baseline.get("scale") != current.get("scale"):
        report.verdicts.append(
            Verdict(
                "trajectory",
                "invariant-failed",
                f"scale mismatch: baseline ran at {baseline.get('scale')!r}, "
                f"current at {current.get('scale')!r} — medians are not comparable "
                "(refresh the trajectory at the current scale)",
                failing=True,
            )
        )
        return report

    speed = _normalizer(baseline, current)
    base_entries, current_entries = _by_id(baseline), _by_id(current)

    for scenario_id, entry in current_entries.items():
        base = base_entries.get(scenario_id)
        if base is None:
            report.verdicts.append(
                Verdict(scenario_id, "new", "no baseline yet; will gate after the next refresh")
            )
            continue
        if base.get("checksum") and entry.get("checksum") != base.get("checksum"):
            report.verdicts.append(
                Verdict(
                    scenario_id,
                    "checksum-drift",
                    f"results changed: {base.get('checksum')} -> {entry.get('checksum')} "
                    "(correctness drift, or an intentional workload change — "
                    "refresh the trajectory if the latter)",
                    failing=True,
                )
            )
            continue
        base_median = float(base.get("median_s") or 0.0)
        current_median = float(entry.get("median_s") or 0.0)
        expected = base_median * speed  # what the baseline predicts on THIS machine
        if expected <= 0.0:
            report.verdicts.append(Verdict(scenario_id, "ok", "baseline median is zero; skipped"))
            continue
        ratio = current_median / expected
        detail = (
            f"median {current_median * 1000:.1f} ms vs baseline "
            f"{base_median * 1000:.1f} ms (x{speed:.2f} machine) = {ratio:.2f}x"
        )
        if ratio > max_regression and (current_median - expected) > min_significant_s:
            report.verdicts.append(
                Verdict(
                    scenario_id,
                    "regressed",
                    f"{detail}; limit {max_regression:.2f}x",
                    failing=True,
                )
            )
        elif ratio < 1.0 / IMPROVEMENT_FACTOR:
            report.verdicts.append(Verdict(scenario_id, "improved", detail))
        else:
            report.verdicts.append(Verdict(scenario_id, "ok", detail))

    for scenario_id in base_entries:
        if scenario_id not in current_entries:
            report.verdicts.append(
                Verdict(scenario_id, "not-run", "in the trajectory but not in this run")
            )

    if current.get("scale") == "smoke":
        if invariants:
            report.verdicts.append(
                Verdict("invariants", "skipped", "smoke-scale timings carry no signal")
            )
        return report

    for invariant in invariants:
        fast = current_entries.get(invariant.fast)
        slow = current_entries.get(invariant.slow)
        if fast is None or slow is None:
            missing = invariant.fast if fast is None else invariant.slow
            report.verdicts.append(
                Verdict(invariant.id, "skipped", f"scenario {missing!r} not in this run")
            )
            continue
        fast_median = float(fast.get("median_s") or 0.0)
        slow_median = float(slow.get("median_s") or 0.0)
        achieved = slow_median / fast_median if fast_median > 0 else float("inf")
        detail = (
            f"{invariant.slow} {slow_median * 1000:.1f} ms vs {invariant.fast} "
            f"{fast_median * 1000:.1f} ms = {achieved:.2f}x (need >= {invariant.factor:.2f}x)"
        )
        if achieved >= invariant.factor:
            report.verdicts.append(Verdict(invariant.id, "ok", detail))
        else:
            message = detail if not invariant.note else f"{detail}; {invariant.note}"
            report.verdicts.append(
                Verdict(invariant.id, "invariant-failed", message, failing=True)
            )
    return report
