"""Run the rpq benchmark: closed-loop service workloads with oracle-checked answers.

Usage (from the repository root)::

    python3 benchmarks/rpq/run.py [--workload NAME]... [--seed N] [--seconds S]
                                  [--trace [0|1]] [--json PATH]
    python3 benchmarks/rpq/run.py compare PARENT.json... -- CHANGE.json...
    python3 benchmarks/rpq/run.py summarize RESULT.json...

Without ``--workload`` every workload runs.  Each workload runs in its own
fresh Python process, one after another, with ``PYTHONHASHSEED`` set from
the seed, so one seed also fixes set and dict iteration order inside the
program.  The report names every metric with its unit and sample count;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or the
per-layer metrics with ``--trace 1``).  The exit code is 1 when an answer
disagrees with the oracle or with ``expected.json``, and 2, with no result
line, when the benchmark cannot run or measure.  See ``README.md`` in this
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("hot-serve", "adhoc-queries", "heavy-allpairs", "store-cycle")


def fail(message: str) -> None:
    print(f"run.py: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def check_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program source at {SRC.relative_to(ROOT)}/repro; run from a full checkout")


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and refuse any other
    ``repro`` (an installed copy would measure the wrong code)."""
    check_source()
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        fail(f"imported repro from {repro.__file__}, not from {SRC}")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=WORKLOAD_NAMES,
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=0, help="request-stream seed (default 0)")
    parser.add_argument(
        "--seconds", "--duration", dest="seconds", type=float, default=30.0,
        help="length of each timed window in seconds (default 30)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="1: add a traced window and report per-layer metrics",
    )
    parser.add_argument("--json", type=Path, help="write the result records to this file")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_child(name: str, args: argparse.Namespace) -> dict:
    """Run one workload in a fresh interpreter, echo its report, and return
    its result record."""
    OUT.mkdir(parents=True, exist_ok=True)
    record_file = OUT / f"record-{name}-{os.getpid()}.json"
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--json", str(record_file),
    ]
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
    # Two windows (traced runs) of up to 120 s each, plus set-up and checks.
    timeout = 2 * max(args.seconds, 120) + 120
    try:
        try:
            completed = subprocess.run(
                command, env=env, stdout=subprocess.PIPE, text=True, check=False, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            fail(f"workload {name} did not finish within {timeout:.0f} s")
        print(completed.stdout, end="", flush=True)
        if completed.returncode != 0 or not record_file.is_file():
            fail(f"workload {name} exited with code {completed.returncode}")
        return json.loads(record_file.read_text())
    finally:
        record_file.unlink(missing_ok=True)


def child(args: argparse.Namespace) -> int:
    import_program()
    import runner

    record = runner.measure(args.workload[0], args.seed, args.seconds, bool(args.trace), OUT)
    print(runner.report(record), flush=True)
    args.json.write_text(json.dumps(record))
    return 0


def main(argv: list[str]) -> int:
    if argv and argv[0] in ("compare", "summarize"):
        import compare

        return compare.main(argv)
    args = parse_args(argv)
    if os.environ.get("REPRO_KERNEL"):
        fail("REPRO_KERNEL is set; the benchmark measures production defaults only")
    if args.child:
        return child(args)
    check_source()
    from metrics import last_line

    names = args.workload or list(WORKLOAD_NAMES)
    records = [run_child(name, args) for name in names]
    lines = [last_line(record) for record in records]
    refused = [
        f"{record['workload']}.{name}"
        for record, line in zip(records, lines)
        for name, value in line["metrics"].items()
        if value["value"] is None
    ]
    if refused:
        fail(f"too few samples for {', '.join(refused)}; use a longer --seconds")
    if len(records) == 1:
        summary = lines[0]
    else:
        summary = {
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {
                f"{record['workload']}.{name}": value
                for record, line in zip(records, lines)
                for name, value in line["metrics"].items()
            },
        }
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps({"benchmark": "rpq", "records": records}, indent=1))
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
