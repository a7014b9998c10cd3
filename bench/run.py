"""procfair benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload audit-large --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark imports procfair from the
checkout's ``src/``, writes seeded inputs under ``bench/.work/``, calls
``procfair.cli.main`` and public library functions back to back in this one
process (a closed loop with one client), checks every output against
``oracle.py``, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (see README.md); with
``--trace 1`` they are the per-layer ones of ``tracing.PER_LAYER``, and the
spans are written to ``bench/results/``. All times are reference seconds
(``refclock.py``); the line before the result carries the raw figures.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one thread: numpy must not start a BLAS pool

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from types import ModuleType  # noqa: E402

import oracle  # noqa: E402
import refclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "rows_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Record:
    op: workloads.Op
    raw: float  # wall seconds
    ref: float  # reference seconds
    status: str  # "ok", "failed" or "wrong"
    reason: str = ""


def import_procfair() -> ModuleType:
    """Import procfair afresh from this checkout's src/, dropping any earlier import."""
    if not (SRC / "procfair" / "__init__.py").is_file():
        raise BenchError(f"no procfair package under {SRC}; run from the root of a procfair checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "procfair" or n.startswith("procfair.")]:
        del sys.modules[name]
    pkg = importlib.import_module("procfair")
    importlib.import_module("procfair.cli")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"procfair imported from {pkg.__file__}, not from {SRC}")
    return pkg


def judge(op: workloads.Op, result: object, stderr: str) -> tuple[str, str]:
    if isinstance(result, BaseException):
        return "failed", f"{type(result).__name__}: {result}"
    try:
        op.check(result, stderr)
    except oracle.OpFailed as exc:
        return "failed", str(exc)
    except oracle.WrongOutput as exc:
        return "wrong", str(exc)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        return "wrong", f"malformed output: {type(exc).__name__}: {exc}"
    return "ok", ""


def call_op(op: workloads.Op, clock=time.perf_counter) -> tuple[object, float, str]:
    """(result or exception, raw seconds on ``clock``, captured stderr) of one call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        start = clock()
        try:
            result = op.call()
        except (Exception, SystemExit) as exc:  # an op that crashes is a failed op
            result = exc
        raw = clock() - start
    return result, raw, err.getvalue()


def run_batch(batch: list[workloads.Op], sampler: refclock.Sampler, recorder=None,
              first_index: int = 0) -> list[Record]:
    """Time one batch inside one sampling window, then check its outputs."""
    for op in batch:
        if op.out is not None:
            op.out.unlink(missing_ok=True)
    gc.collect()
    done = []
    with sampler.window():
        for i, op in enumerate(batch):
            if recorder is not None:
                recorder.op = first_index + i
            done.append((op, *call_op(op, sampler.now)))
    scale = sampler.scale()
    return [Record(op, raw, raw * scale, *judge(op, result, stderr)) for op, result, raw, stderr in done]


def measure(workload: workloads.Workload, seconds: float, sampler: refclock.Sampler,
            recorder=None) -> tuple[list[Record], int]:
    """Whole rounds until ``seconds`` of wall time have passed (at least one)."""
    records: list[Record] = []
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for batch in workload.batches:
            records += run_batch(batch, sampler, recorder, len(records))
        rounds += 1
    return records, rounds


def setup(name: str, seed: int, workdir: Path, sampler: refclock.Sampler, sizes: dict | None = None):
    """Set up SETUP_REPEATS times; return the last workload and each set-up's
    (raw, reference) seconds.

    A set-up is: import procfair, write the seeded inputs, run one untimed
    warm-up op (the round's first). Building the ops and their expected
    outputs happens in between and is not timed.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        with sampler.window():
            start = sampler.now()
            pkg = import_procfair()
            raw = sampler.now() - start
            workload = workloads.build(name, seed, pkg, workdir, sizes)
            start = sampler.now()
            workload.write_inputs()
            warmup = workload.ops[0]
            result, _, stderr = call_op(warmup)
            raw += sampler.now() - start
        times.append((raw, raw * sampler.scale()))
        status, reason = judge(warmup, result, stderr)
        if status == "wrong":
            raise BenchError(f"warm-up op {warmup.label} gave a wrong output: {reason}")
    return workload, times


def end_to_end(records: list[Record], setup_times) -> tuple[dict, dict]:
    """(reference metrics, raw figures) of the untraced phase."""
    done = [r for r in records if r.status == "ok"]
    if not done:
        raise BenchError("no op completed")

    def figures(t: str) -> dict:
        busy = sum(getattr(r, t) for r in records)
        return {
            "setup_s": statistics.median(s[0 if t == "raw" else 1] for s in setup_times),
            "op_p50_s": statistics.median(getattr(r, t) for r in done),
            "ops_per_s": len(done) / busy,
            "rows_per_s": sum(r.op.rows for r in done) / busy,
        }

    metrics = figures("ref")
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, figures("raw")


def run(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detail line)."""
    workdir = BENCH_DIR / ".work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        sampler = refclock.Sampler()
        workload, setup_times = setup(name, seed, workdir, sampler, sizes)
        detail = {"workload": name, "seed": seed, "ops_per_round": len(workload.ops)}
        checked: list[Record] = []  # ops outside the measured rounds: checked, not counted
        if not trace:
            records, rounds = measure(workload, seconds, sampler)
            metrics, raw = end_to_end(records, setup_times)
            units = E2E_UNITS
            by_label: dict[str, list[float]] = {}
            for r in records:
                by_label.setdefault(r.op.label, []).append(r.ref)
            detail.update(rounds=rounds, raw=raw,
                          op_ref_s={label: statistics.median(v) for label, v in by_label.items()})
        else:
            untraced, r1 = measure(workload, seconds / 2, sampler)
            spans = tracing.SpanRecorder()
            with tracing.installed(spans):
                traced, r2 = measure(workload, seconds / 2, sampler, spans)
            # Allocation pass, untimed and unsampled: the first op of each kind under tracemalloc.
            alloc = tracing.AllocRecorder()
            firsts = list({op.kind: op for op in reversed(workload.ops)}.values())[::-1]
            tracemalloc.start()
            try:
                with tracing.installed(alloc):
                    for op in firsts:
                        result, raw, stderr = call_op(op)
                        checked.append(Record(op, raw, raw, *judge(op, result, stderr)))
            finally:
                tracemalloc.stop()
            metrics = tracing.layer_metrics(untraced, traced, r2, spans.spans, sampler.pauses, alloc.peaks)
            units = {m: u for m, u, _ in tracing.PER_LAYER}
            records = untraced + traced
            detail.update(rounds=[r1, r2], spans=write_spans(name, seed, traced, spans.spans))
        wrong = [f"{r.op.label}: {r.reason}" for r in records + checked if r.status == "wrong"]
        detail.update(wrong=wrong[:5],
                      failures=sorted({f"{r.op.label}: {r.reason}" for r in records if r.status == "failed"}))
        result = {
            "correct": not wrong,
            "attempted": len(records),
            "failed": sum(r.status != "ok" for r in records),
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        }
        return result, detail
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def write_spans(name: str, seed: int, traced: list[Record], spans) -> str:
    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{name}-seed{seed}.jsonl"
    with path.open("w", encoding="utf-8") as f:
        for i, r in enumerate(traced):
            f.write(json.dumps({"op": i, "label": r.op.label, "raw_s": r.raw, "ref_s": r.ref}) + "\n")
        for op, span, start, end, parent, work in spans:
            f.write(json.dumps({"op": op, "span": span, "start": start, "end": end,
                                "parent": parent, "work": work}) + "\n")
    return str(path.relative_to(ROOT))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")
    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
