"""Set-up, timed windows, answer check and metrics of one workload.

A window is a closed loop: one client thread sends the next operation only
after the previous one returned, with no think time.  Each call is timed
around the call alone, so benchmark-side work between calls (drawing the
next request, recording answers) is neither latency nor throughput.  A
window lasts ``seconds`` and is extended, operation by operation, until the
pooled p95 has enough samples and the oracle prefix is complete; it always
ends on a workload cycle boundary.

Times are normalized to a reference host speed.  On a shared host the speed
of a core drifts by tens of percent over seconds while other tenants load
its sibling hardware threads, which would swamp most changes a program
makes.  So a fixed integer loop (the probe) is timed every
``PROBE_INTERVAL_S`` between operations, and each latency is scaled by
``REFERENCE_PROBE_S`` over the median probe time within ``PROBE_SPAN_S`` of
it, raised to ``PROBE_EXPONENT``: the result reads as seconds on a host where
the probe takes ``REFERENCE_PROBE_S``.  Set-up is scaled by probes taken
around it.  Raw wall-clock values are kept in each record under ``raw``.
"""

from __future__ import annotations

import bisect
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections.abc import Hashable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from layers import LayerTracer
from metrics import CLASS_METRICS, PER_LAYER, InsufficientSamples, percentile, required_samples
from workloads import (
    WORKLOADS,
    Op,
    OpFailed,
    Stopwatch,
    Workload,
    answer_of,
    answers_digest,
    check_answers,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED = HERE / "expected.json"

#: In-process set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Operations a window needs so that its pooled p95 can be reported.
MIN_OPS = required_samples(0.95)
#: A window never runs longer than this, enough samples or not.
MAX_WINDOW_S = 120.0
#: Error messages kept per run.
MAX_ERRORS = 10

#: The probe is a register-only integer loop: it touches no data, so the
#: program's cache footprint cannot change what it measures.  (A probe over
#: a table runs cache-cold after each operation and would couple the
#: normalization to the program's memory use.)
PROBE_ITERATIONS = 20_000
REFERENCE_PROBE_S = 0.001
PROBE_INTERVAL_S = 0.05
PROBE_SPAN_S = 0.25
#: Interpreter-heavy code slows more than the integer loop when a sibling
#: thread is busy: on a 2-vCPU x86-64 VM, 40 runs of the four workloads
#: spread least across seeds with exponents of 1.2 to 1.4 (1.0 left a
#: tenth of the slowdown in busy periods).
PROBE_EXPONENT = 1.3
#: Probes taken before and after each set-up.
SETUP_PROBES = 3


def probe() -> float:
    """Seconds one run of the calibration kernel takes now."""
    start = time.perf_counter()
    total = 0
    for value in range(PROBE_ITERATIONS):
        total += value * value
    return time.perf_counter() - start


def speed_factor(probe_s: float) -> float:
    """The factor that scales a time measured while the probe took
    ``probe_s`` to the reference host."""
    return (REFERENCE_PROBE_S / probe_s) ** PROBE_EXPONENT


class SpeedTrack:
    """Probe times by when they were taken, for scaling nearby latencies."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self, now: float) -> None:
        self.times.append(now)
        self.durations.append(probe())

    def due(self, now: float) -> bool:
        return not self.times or now - self.times[-1] >= PROBE_INTERVAL_S

    def factor(self, at: float) -> float:
        """The speed factor of the median probe near ``at``."""
        low = bisect.bisect_left(self.times, at - PROBE_SPAN_S)
        high = bisect.bisect_right(self.times, at + PROBE_SPAN_S)
        if low == high:
            nearest = min(range(len(self.times)), key=lambda index: abs(self.times[index] - at))
            low, high = nearest, nearest + 1
        return speed_factor(statistics.median(self.durations[low:high]))


@dataclass
class Window:
    """One timed window: per operation its class, start and raw seconds,
    and (once closed) its normalized seconds."""

    samples: list[tuple[str, float, float]] = field(default_factory=list)
    normalized: list[float] = field(default_factory=list)
    speed: SpeedTrack = field(default_factory=SpeedTrack)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0

    def close(self) -> None:
        self.normalized = [
            seconds * self.speed.factor(started) for _, started, seconds in self.samples
        ]

    def latencies(self, kinds: tuple[str, ...] | None = None) -> list[float]:
        """Normalized latencies of the given request classes (default: all)."""
        return [
            value
            for (kind, _, _), value in zip(self.samples, self.normalized)
            if kinds is None or kind in kinds
        ]

    def raw(self) -> list[float]:
        return [seconds for _, _, seconds in self.samples]

    def request_s(self) -> float:
        return sum(self.normalized)


class Recorder:
    """Answers across a run's windows: every repeat of a request must get
    the first answer again, and the first ``check_limit`` distinct query
    requests are kept for the oracle."""

    def __init__(self, check_limit: int) -> None:
        self.check_limit = check_limit
        self.fingerprints: dict[Hashable, int] = {}
        self.checked: list[tuple[Any, Hashable]] = []
        self.inconsistent = 0
        self.errors: list[str] = []

    def full(self) -> bool:
        return len(self.checked) >= self.check_limit

    def record(self, kind: str, key: Hashable, answer: Hashable) -> bool:
        """Keep a first answer (for the oracle while the prefix is open);
        return whether a repeated request got its first answer again."""
        fingerprint = hash(answer)
        first = self.fingerprints.get(key)
        if first is None:
            self.fingerprints[key] = fingerprint
            if kind != "ingest" and not self.full():
                self.checked.append((key, answer))
            return True
        if first != fingerprint:
            self.inconsistent += 1
            return False
        return True

    def error(self, message: str) -> None:
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)


def run_window(
    workload: Workload,
    recorder: Recorder,
    seconds: float,
    tracer: LayerTracer | None = None,
) -> Window:
    window = Window()
    ops: Iterator[Op] = workload.ops()
    clock = time.perf_counter
    gc.collect()
    start = clock()
    window.speed.sample(start)
    try:
        for kind, key, call in ops:
            if tracer is not None:
                tracer.request_id = window.attempted
                tracer.active = True
            began = clock()
            try:
                result: Any = call()
            except Exception as error:  # a failing operation is counted, not fatal
                result = error
            elapsed = clock() - began
            if tracer is not None:
                tracer.active = False
            window.attempted += 1
            window.samples.append((kind, began, elapsed))
            try:
                answer = answer_of(kind, result)
            except OpFailed as error:
                window.failed += 1
                recorder.error(f"{kind}: {error}")
            else:
                if not recorder.record(kind, key, answer):
                    window.failed += 1
                    recorder.error(f"{kind}: answer differs from an earlier answer to it")
            now = clock()
            if window.speed.due(now):
                window.speed.sample(now)
            if window.attempted % workload.cycle == 0:
                wall = now - start
                enough = window.attempted >= MIN_OPS and recorder.full()
                if wall >= MAX_WINDOW_S or (wall >= seconds and enough):
                    break
    finally:
        ops.close()
    window.wall_s = clock() - start
    window.speed.sample(clock())
    window.close()
    return window


def timed_setup(workload: Workload) -> tuple[float, float]:
    """Set the workload up; returns its program-side seconds, raw and
    normalized by probes taken just before and after."""
    probes = [probe() for _ in range(SETUP_PROBES)]
    program = Stopwatch()
    workload.setup(program)
    probes += [probe() for _ in range(SETUP_PROBES)]
    return program.seconds, program.seconds * speed_factor(statistics.median(probes))


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def git_commit() -> str:
    """The checkout's commit read from its own ``.git`` directory (nothing
    outside the checkout is consulted), or ``"unknown"``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(f" {ref}"):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _value(value: float | None, unit: str, samples: int) -> dict[str, Any]:
    return {"value": value, "unit": unit, "samples": samples}


def latency_metrics(prefix: str, values: list[float]) -> dict[str, dict[str, Any]]:
    """``<prefix>p50_ms`` and ``<prefix>p95_ms``, or a refusal per percentile."""
    result: dict[str, dict[str, Any]] = {}
    for quantile, suffix in ((0.50, "p50_ms"), (0.95, "p95_ms")):
        name = f"{prefix}{suffix}"
        try:
            result[name] = _value(percentile(values, quantile) * 1000, "ms", len(values))
        except InsufficientSamples as refusal:
            result[name] = {**_value(None, "ms", len(values)), "refused": str(refusal)}
    return result


def _delta(before: dict[str, float], after: dict[str, float], name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: LayerTracer,
    window: Window,
    untraced: Window,
    before: dict[str, float],
    after: dict[str, float],
) -> dict[str, dict[str, Any]]:
    ops = window.attempted
    # Span times are raw wall time, so shares are of the raw request time.
    request_s = sum(window.raw())
    values: dict[str, float] = {}
    attributed = 0.0
    for layer, (calls, self_s) in tracer.layer_totals().items():
        attributed += self_s
        values[f"{layer}.calls_per_op"] = calls / ops
        values[f"{layer}.self_ms_per_op"] = self_s * 1000 / ops
        values[f"{layer}.self_share"] = _ratio(self_s, request_s)
    delta = {name: _delta(before, after, name) for name in after}
    values["cache.hit_ratio"] = _ratio(delta["hits"], delta["hits"] + delta["misses"])
    values["cache.evictions_per_op"] = delta["evictions"] / ops
    values["cache.builds_per_op"] = delta["builds"] / ops
    values["store.hit_ratio"] = _ratio(
        delta["store_hits"], delta["store_hits"] + delta["store_misses"]
    )
    values["store.kb_written_per_op"] = delta.get("store_bytes", 0.0) / 1024 / ops
    for layer, pairs in tracer.pair_totals().items():
        values[f"{layer}.pairs_per_op"] = pairs / ops
    untraced_rate = untraced.attempted / untraced.request_s()
    values["trace.overhead"] = 1 - (ops / window.request_s()) / untraced_rate
    values["trace.unattributed_share"] = 1 - _ratio(attributed, request_s)
    return {
        metric.name: _value(values[metric.name], metric.unit, ops) for metric in PER_LAYER
    }


def provenance(seed: int, seconds: float) -> dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
        "duration_s": seconds,
    }


def expected_digest(name: str) -> str | None:
    try:
        return json.loads(EXPECTED.read_text()).get(name)
    except FileNotFoundError:
        return None


def measure(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict[str, Any]:
    """Run one workload end to end and return its result record."""
    factory = WORKLOADS[name]
    setup_times: list[tuple[float, float]] = []
    workload: Workload | None = None
    try:
        for _ in range(1 if trace else SETUPS):
            if workload is not None:
                workload.close()
                workload = None
                gc.collect()
            workload = factory(seed, out_dir / f"work-{name}-{os.getpid()}")
            setup_times.append(timed_setup(workload))
        assert workload is not None
        recorder = Recorder(workload.check_limit)
        before = workload.counters()
        window = run_window(workload, recorder, seconds)
        after = workload.counters()
        rss = peak_rss_mb()
        layers: dict[str, dict[str, Any]] = {}
        tracer = None
        traced = Window()
        if trace:
            traced_before = workload.counters()
            with LayerTracer() as tracer:
                traced = run_window(workload, recorder, seconds, tracer)
            layers = layer_metrics(tracer, traced, window, traced_before, workload.counters())
        mismatches = check_answers(workload.runs, recorder.checked, seed)
        digest = answers_digest(recorder.checked)
        delta = {key: _delta(before, after, key) for key in after}
        extra = workload.extra_metrics(delta)
    finally:
        if workload is not None:
            workload.close()

    for mismatch in mismatches:
        recorder.error(mismatch)
    attempted = window.attempted + traced.attempted
    failed = window.failed + traced.failed + len(mismatches)
    expected = expected_digest(name) if seed == 0 and recorder.full() else None
    digest_ok = expected is None or expected == digest
    if not digest_ok:
        recorder.error(f"answers_digest {digest} differs from expected.json {expected}")

    metrics: dict[str, dict[str, Any]] = {
        "setup_s": _value(
            statistics.median(normalized for _, normalized in setup_times), "s", len(setup_times)
        ),
        "ops_per_s": _value(window.attempted / window.request_s(), "ops/s", window.attempted),
        **latency_metrics("", window.latencies()),
        "peak_rss_mb": _value(rss, "MB", 1),
    }
    for prefix, kinds in factory.classes.items():
        metrics.update(latency_metrics(f"{prefix}_", window.latencies(kinds)))
    metrics["error_rate"] = _value(failed / attempted, "fraction", attempted)
    for metric_name, value in extra.items():
        unit = CLASS_METRICS[metric_name].unit
        metrics[metric_name] = _value(value, unit, int(delta["runs_ingested"]))
    raw = window.raw()
    raw_metrics = {
        "setup_s": statistics.median(seconds for seconds, _ in setup_times),
        "ops_per_s": window.attempted / sum(raw),
        **{name: entry["value"] for name, entry in latency_metrics("", raw).items()},
        "probe_ms_median": statistics.median(window.speed.durations) * 1000,
    }

    record: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": not mismatches and digest_ok and not recorder.inconsistent,
        "attempted": attempted,
        "failed": failed,
        "errors": recorder.errors,
        "window_s": window.wall_s,
        "checked": len(recorder.checked),
        "answers_digest": digest,
        "expected_digest": expected,
        "metrics": metrics,
        "raw": raw_metrics,
        "provenance": provenance(seed, seconds),
    }
    if tracer is not None:
        trace_file = out_dir / f"trace-{name}-seed{seed}.json"
        tracer.write_chrome_trace(trace_file, {"workload": name, "seed": seed})
        record.update(
            layers=layers,
            traced_window_s=traced.wall_s,
            unmapped=tracer.unmapped,
            target_calls=tracer.target_calls(),
            trace_file=str(trace_file.relative_to(ROOT)),
        )
    return record


def report(record: dict[str, Any]) -> str:
    """The human-readable report of one record."""
    lines = [
        f"== {record['workload']}: seed {record['seed']}, window {record['window_s']:.1f} s, "
        f"{record['attempted']} operations, {record['failed']} failed"
    ]
    sections = [record["metrics"]]
    if record["trace"]:
        sections.append(record["layers"])
    for section in sections:
        for name, entry in section.items():
            if entry.get("refused"):
                lines.append(f"  {name:28s} refused: {entry['refused']}")
            else:
                value = f"{entry['value']:.6g}"
                lines.append(f"  {name:28s} {value:>12s} {entry['unit']:9s} n={entry['samples']}")
    expected = record["expected_digest"]
    if expected is None:
        verdict = "no expected digest"
    elif expected == record["answers_digest"]:
        verdict = "matches expected.json"
    else:
        verdict = f"expected.json has {expected}"
    lines.append(
        f"  answers_digest {record['answers_digest']} over {record['checked']} oracle-checked "
        f"requests ({verdict})"
    )
    if record["trace"]:
        lines.append(f"  trace written to {record['trace_file']}")
        for target, reason in record["unmapped"].items():
            lines.append(f"  unmapped layer target {target}: {reason}")
    lines.extend(f"  error: {message}" for message in record["errors"])
    return "\n".join(lines)
