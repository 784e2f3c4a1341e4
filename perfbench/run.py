"""normality-lab benchmark: one workload per process, one closed-loop client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload orbit-digits --seed 1 --seconds 24 --trace 0

Each op is one in-process call of ``normality_lab.cli.main(argv)`` writing
its CSV or JSON to a file, with sequential ops and the library's default
thread pool as the only concurrency.  Every op's output is checked.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.

``--trace 0`` runs ops for ``--seconds`` and reports the end-to-end metrics.
Their times are CPU time of the process, all threads included.  The library
computes and writes to the page cache, and its pool threads share one GIL,
so on an unshared machine an op's CPU time is close to its wall time; CPU
time leaves out the time a shared VM's host takes the CPU away (steal),
which varies from minute to minute.
``--trace 1`` runs a fixed number of op cycles instead, each op once traced
and once untraced, so that its per-layer sums compare across commits; it
reports the per-layer metrics and writes every span to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import signal
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import probes
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUT_DIR = ROOT / ".perfbench-out"

DEFAULT_SEED = 1
DIGEST_OPS = 400           # ops per workload with a recorded digest
OP_LIMIT_S = 15.0          # an op running longer counts as failed
# setup_s is the median of this many child starts, half of them made before
# the op loop and half after, so that it spans the run
SETUP_REPEATS = 6
# the traced run covers whole cycles holding at least this many ops, each
# op run once traced and once untraced for the overhead comparison
TRACED_OPS = 24
# op_s.tail is this percentile while at least ten ops lie beyond it
TAIL_PERCENTILES = (0.9, 0.75, 0.5)


class OpTimeout(BaseException):
    """Raised in the op by SIGALRM; a BaseException so no handler in the
    library swallows it."""


def _alarm(signum, frame):
    raise OpTimeout()


@dataclass(frozen=True)
class Result:
    op: workloads.Op
    seconds: float        # CPU time of the process, all threads
    ok: bool
    units: int            # work units completed; 0 unless ok
    size: int             # output bytes
    digest: Optional[str]  # sha256 of the output


class Harness:
    """Runs ops, checks their outputs and keeps one record per op."""

    def __init__(self, workload: str, seed: int, cli_main,
                 workdir: Path, limit: float = OP_LIMIT_S):
        self.workload = workload
        self.seed = seed
        self.main = cli_main
        self.workdir = workdir
        self.limit = limit
        digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.digests = digests.get(workload, []) if seed == DEFAULT_SEED else []
        self.records: list = []
        self.unexpected: list = []   # failures that make the run incorrect

    def run(self, op, main=None) -> Result:
        """Run one counted op; any failure makes the run incorrect."""
        result, error = self._execute(op, main)
        if error is not None:
            self.unexpected.append((op, error))
            print(f"op {op.index} {op.kind} failed: {_describe(error)}",
                  file=sys.stderr)
        self.records.append(result)
        return result

    def probe_defect(self, main=None) -> Optional[str]:
        """Run one op of the workload's known defect, outside the counted
        ops; returns a line saying whether the defect still reproduces, or
        None if the workload has no known defect."""
        defect = workloads.KNOWN_DEFECTS.get(self.workload)
        if defect is None:
            return None
        op = workloads.defect_op(self.workload, self.seed)
        _, error = self._execute(op, main)
        what = f"{op.kind} at length {op.expect['length']}"
        if error is None:
            return (f"known defect at {defect.where} no longer reproduces: "
                    f"{what} passes its output check")
        if not _raised(error, defect):
            self.unexpected.append((op, error))
            print(f"{what} failed: {_describe(error)}", file=sys.stderr)
            return f"{what} fails otherwise than the known defect"
        return (f"known defect reproduces: {what} raises {defect.error} in "
                f"{defect.raised_in} ({defect.where}); not a counted op")

    def _execute(self, op, main=None) -> tuple:
        """(Result, error): error is None, a message or the exception."""
        path = self.workdir / f"op{op.index}.{op.fmt}"
        argv = [*op.argv, "--format", op.fmt, "--out", str(path)]
        error = None
        old = signal.signal(signal.SIGALRM, _alarm)
        start = time.process_time()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.limit)
            code = (main or self.main)(argv)
            if code != 0:
                error = f"exit code {code}"
        except OpTimeout:
            error = f"exceeded the {self.limit:g} s limit"
        except Exception as exc:  # a crashing op is a result to report
            error = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        seconds = time.process_time() - start
        units, size, digest = 0, 0, None
        if error is None:
            try:
                data = path.read_bytes()
                size, digest = len(data), hashlib.sha256(data).hexdigest()
                units = workloads.check(op, data.decode("utf-8"))
                self._check_digest(op, digest)
            except (workloads.CheckFailed, OSError, UnicodeDecodeError) as exc:
                error = f"output check: {exc!r}"
        path.unlink(missing_ok=True)
        if error is not None:
            units = 0
        return Result(op, seconds, error is None, units, size, digest), error

    def _check_digest(self, op, digest: str) -> None:
        want = (self.digests[op.index] if 0 <= op.index < len(self.digests)
                else None)
        if want is not None and digest != want:
            raise workloads.CheckFailed("output differs from the recorded digest")


def _raised(error, defect) -> bool:
    """Whether `error` is the defect's exception, raised in its function."""
    if not isinstance(error, Exception):
        return False
    frames = traceback.extract_tb(error.__traceback__)
    return (type(error).__name__ == defect.error and bool(frames)
            and frames[-1].name == defect.raised_in)


def _describe(error) -> str:
    if isinstance(error, Exception):
        return "".join(traceback.format_exception(error)).strip()
    return str(error)


def percentile(sorted_values: list, p: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def latency(records: list) -> tuple:
    """(p50, tail, tail percentile); a failed op ranks above every
    successful one, as it misses any latency limit."""
    times = sorted(r.seconds if r.ok else math.inf for r in records)
    n = len(times)
    tail_p = next((p for p in TAIL_PERCENTILES
                   if n - math.ceil(p * n) >= 10), 0.5)
    return percentile(times, 0.5), percentile(times, tail_p), tail_p


def _setup_samples(n: int) -> list:
    return [probes.setup_seconds(ROOT) for _ in range(n)]


def end_to_end(harness: Harness, seconds: float) -> dict:
    setup = _setup_samples(SETUP_REPEATS // 2)
    defect = harness.probe_defect()
    if defect:
        print(defect)
    start, cpu_start = time.perf_counter(), time.process_time()
    for op in workloads.ops(harness.workload, harness.seed):
        if time.perf_counter() - start >= seconds:
            break
        harness.run(op)
    else:
        print("perfbench: the op stream ran out of fresh inputs",
              file=sys.stderr)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    records = harness.records
    p50, tail, tail_p = latency(records)
    units = sum(r.units for r in records)
    print(f"{len(records)} ops; op_s.tail is p{tail_p * 100:g}; throughput "
          f"in {workloads.WORKLOADS[harness.workload].unit}/s over "
          f"{cpu:.2f} s of CPU time ({wall:.2f} s of wall time)")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += _setup_samples(SETUP_REPEATS - len(setup))
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_s.p50": (p50, "s"),
        "op_s.tail": (tail, "s"),
        "throughput": (units / cpu, "units/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def traced(harness: Harness) -> dict:
    from normality_lab import cli, experiments

    rec = spans.Recorder()
    root_main = rec.wrap("cli.main", cli.main)
    cycle = len(workloads.WORKLOADS[harness.workload].cycle)
    seed = harness.seed
    stream = workloads.ops(harness.workload, seed)
    times = {True: [], False: []}
    output_bytes = 0
    for i in range(math.ceil(TRACED_OPS / cycle) * cycle):
        op = next(stream)
        # each op also runs untraced, first in every other cycle of its
        # kind, so that trace.overhead compares the same inputs
        order = (True, False) if (i % cycle + i // cycle) % 2 == 0 \
            else (False, True)
        digests = set()
        for on in order:
            if on:
                spans.install(rec)
                rec.op = op.index
            try:
                result = harness.run(op, root_main if on else None)
            finally:
                rec.restore()
            times[on].append(result.seconds)
            output_bytes += result.size if on else 0
            digests.add(result.digest)
        if len(digests) > 1:
            harness.unexpected.append((op, "traced output differs"))
    spans.install(rec)
    rec.op = -1
    try:
        defect = harness.probe_defect(root_main)
    finally:
        rec.restore()
    if defect:
        print(defect)
    bad = spans.digits_violations(rec.spans)
    if bad:
        harness.unexpected.append(("digits", f"certified != count: {bad[:3]}"))
    metrics = spans.layer_metrics(rec.spans)
    metrics["cli.output_bytes"] = output_bytes
    metrics["experiments.pool_workers"] = experiments.pool_size()
    metrics["sampling.word.s"] = probes.word_seconds(
        spans.word_streams(rec.spans))
    metrics["trace.overhead"] = (statistics.median(times[True])
                                 / statistics.median(times[False]) - 1.0)
    metrics.update(probes.scaling_exponents(seed))
    for module, s in probes.import_seconds(ROOT).items():
        metrics[f"setup.import.{module}_s"] = s
    OUT_DIR.mkdir(exist_ok=True)
    rec.write(OUT_DIR / f"spans-{harness.workload}-{seed}.jsonl")
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: (metrics[m["name"]], m["unit"]) for m in units}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "normality_lab" / "cli.py").is_file():
        print(f"perfbench: no normality_lab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    from normality_lab import cli

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        harness = Harness(args.workload, args.seed, cli.main,
                          Path(tmp))
        if args.trace:
            metrics = traced(harness)
        else:
            metrics = end_to_end(harness, args.seconds)
    failed = sum(1 for r in harness.records if not r.ok)
    result = {
        "correct": not harness.unexpected,
        "attempted": len(harness.records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
