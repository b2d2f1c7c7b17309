"""The nomfol benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``
there and nowhere else.  One process, one thread, a closed loop: each op
starts when the previous one has finished and been checked.

``--trace 0`` sets up seven times (import plus corpus generation; the median
is ``setup_s``), then makes whole passes over the corpus until the ops
themselves have taken ``--seconds``.  Checks run between ops, outside the
op timer.

Times in the ``--trace 0`` metrics are reference seconds.  The speed of a
shared VM drifts by a quarter or more over seconds and minutes, and it
moves every Python workload alike.  So a short bare loop samples the
machine's speed after every ``CALIBRATE_EVERY`` seconds of op time and
after each set-up, outside the op timer.  Each measured time is scaled,
by the speed sampled around it, to the time it would take on a machine
that runs the loop at ``REFERENCE_RATE``.  A change to the
library moves the scaled times as it moves the raw ones, since the loop
does not touch the library.  The raw figures are on the detail line.

``--trace 1`` sets up once and makes four passes over the corpus:
untraced, traced, traced, untraced.  The first pass checks every output;
the later passes reuse those verdicts, so the checks are never traced and
a traced pass must repeat the untraced answers exactly.  The per-layer
counts and self times come from the first traced pass.  Spans go to
``.perfbench-out/``.

The second-to-last line of output carries machine info, the bare-loop
rates sampled, the raw timings, exact op counts and the digest; the last
line is the result.  The exit code is 1 when an
output fails its check, 2 when there is no library to measure.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, load_library  # noqa: E402

SETUP_REPEATS = 7
CALIBRATION_LOOP = 20_000      # about 2 ms
CALIBRATE_EVERY = 0.05         # seconds of op time between samples
REFERENCE_RATE = 10_000_000    # loop iterations per second, about a 2-core
                               # Xeon VM's usual speed under Python 3.11
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919   # for confirming a claim on inputs it was not tuned on
OUT_DIR = ROOT / ".perfbench-out"


def declared_metrics(trace: int) -> dict[str, str]:
    """Name to unit of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu}


def bare_loop_rate() -> float:
    """Iterations per second of a fixed bare loop, as the machine runs now."""
    start = time.perf_counter()
    s = 0
    for i in range(CALIBRATION_LOOP):
        s += i * i % 7
    return CALIBRATION_LOOP / (time.perf_counter() - start)


class ReferenceClock:
    """Scales measured times to a machine running at ``REFERENCE_RATE``.

    Times are grouped in windows between two bare-loop samples.  One
    sample can be hit by an interrupt, so a window is scaled by the
    running median of five samples around each of its two ends.
    """

    def __init__(self):
        self.rates = [bare_loop_rate()]
        self.windows: list[list[float]] = []
        self.pending: list[float] = []
        self.since = 0.0

    def add(self, seconds: float) -> None:
        self.pending.append(seconds)
        self.since += seconds
        if self.since >= CALIBRATE_EVERY:
            self.sample()

    def sample(self) -> None:
        """Close the open window."""
        self.rates.append(bare_loop_rate())
        self.windows.append(self.pending)
        self.pending = []
        self.since = 0.0

    def scaled(self) -> list[float]:
        """Every time added, in order, in reference seconds."""
        if self.pending:
            self.sample()
        r = self.rates
        smooth = [statistics.median(r[max(0, i - 2):i + 3]) for i in range(len(r))]
        return [t * (smooth[w] + smooth[w + 1]) / 2 / REFERENCE_RATE
                for w, times in enumerate(self.windows) for t in times]

    def rate_summary(self) -> dict:
        return {"median": statistics.median(self.rates), "min": min(self.rates),
                "max": max(self.rates), "samples": len(self.rates)}


def set_up(workload, seed: int, repeats: int):
    """Import the library and build the corpus, ``repeats`` times.

    Returns the corpus and each set-up's time in reference seconds."""
    clock = ReferenceClock()
    for _ in range(repeats):
        start = time.perf_counter()
        lib = load_library()
        ops = workload.build(lib, seed)
        clock.add(time.perf_counter() - start)
        clock.sample()
    src = (ROOT / "src").resolve()
    if Path(lib.cli.__file__).resolve().parent.parent != src:
        raise ImportError(f"nomfol was imported from {lib.cli.__file__}, not {src}")
    return ops, clock.scaled()


@dataclass(frozen=True)
class Verdict:
    answer: str     # the op's output as text, hashed into the digest
    why: str        # what failed; empty when the output passed its check
    decided: bool   # the op gave a definite answer


class Checker:
    """Runs ops and checks their outputs.

    An op whose answer repeats the answer already verified for the same
    corpus entry reuses that verdict: the library is deterministic, so
    only a changed output needs checking again.
    """

    def __init__(self, workload, ops):
        self.workload, self.ops = workload, ops
        self.verified: dict = {}

    def attempt(self, i: int) -> tuple[float, Verdict]:
        """Run op i (cycling through the corpus) and check it."""
        w, op = self.workload, self.ops[i % len(self.ops)]
        start = time.perf_counter()
        try:
            result = w.run(op)
        except Exception:   # an op that raises is a failed op, not a crash
            return time.perf_counter() - start, Verdict("raised", traceback.format_exc(), False)
        seconds = time.perf_counter() - start
        try:
            key = (i % len(self.ops), w.answer(op, result))
            if key not in self.verified:
                why, decided = w.verify(op, result)
                self.verified[key] = Verdict(key[1], why, decided)
            return seconds, self.verified[key]
        except Exception:
            return seconds, Verdict("check raised", traceback.format_exc(), False)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def report_failure(verdict: Verdict, index: int) -> None:
    print(f"op {index}: {verdict.why}", file=sys.stderr)


def timed_run(workload, ops, seconds: float):
    checker = Checker(workload, ops)
    latencies, digest = [], hashlib.sha256()
    decided = failed = 0
    busy = 0.0
    # checks run outside the op timer, so bound the wall time as well
    wall_limit = time.perf_counter() + 3 * seconds + 30
    gc.collect()
    clock = ReferenceClock()
    while busy < seconds and time.perf_counter() < wall_limit:
        for _ in ops:   # whole passes, so every run weighs each op alike
            i = len(latencies)
            took, verdict = checker.attempt(i)
            latencies.append(took)
            clock.add(took)
            busy += took
            digest.update(verdict.answer.encode() + b"\0")
            decided += verdict.decided
            if verdict.why:
                failed += 1
                report_failure(verdict, i)
    n = len(latencies)
    ordered, raw = sorted(clock.scaled()), sorted(latencies)
    metrics = {
        "ops_per_s": (n / sum(ordered), "1/s"),
        "op_p50_ms": (1e3 * percentile(ordered, 0.5), "ms"),
        "op_p90_ms": (1e3 * percentile(ordered, 0.9), "ms"),
        "decided_share": (decided / n, "share"),
        "passed_share": ((n - failed) / n, "share"),
    }
    detail = {"ops": n, "busy_s": busy, "decided": decided, "failed": failed,
              "beyond_p90": n - math.ceil(0.9 * n), "corpus_ops": len(ops),
              "raw_ops_per_s": n / busy,
              "raw_op_p50_ms": 1e3 * percentile(raw, 0.5),
              "raw_op_p90_ms": 1e3 * percentile(raw, 0.9),
              "loop_rate_per_s": clock.rate_summary(),
              "digest": digest.hexdigest()}
    return n, failed, metrics, detail


def one_pass(checker, tracer=None):
    """One pass over the corpus: the ops' own time, failures, answer digest."""
    digest, failed, busy = hashlib.sha256(), 0, 0.0
    for i in range(len(checker.ops)):
        if tracer is not None:
            tracer.op = i
        took, verdict = checker.attempt(i)
        busy += took
        digest.update(verdict.answer.encode() + b"\0")
        if verdict.why:
            failed += 1
            report_failure(verdict, i)
    return busy, failed, digest.hexdigest()


def traced_pass(workload, checker):
    tracer = Tracer(workload.lib)
    tracer.install()
    try:
        gc.collect()
        return tracer, one_pass(checker, tracer)
    finally:
        tracer.uninstall()


def traced_run(workload, ops, label: str):
    # Passes in the order untraced, traced, traced, untraced, so that a
    # steady drift in machine speed weighs on both kinds alike.  The first
    # pass checks every output; the others reuse its verdicts, which are
    # keyed by answer, so the checks never run under the tracer.
    checker = Checker(workload, ops)
    rates = [bare_loop_rate()]
    gc.collect()
    plain_1 = one_pass(checker)
    tracer, traced_1 = traced_pass(workload, checker)
    repeat, traced_2 = traced_pass(workload, checker)
    gc.collect()
    plain_2 = one_pass(checker)
    rates.append(bare_loop_rate())
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{label}.csv")
    metrics = {key: (value, "s" if key.endswith("_s") else "count")
               for key, value in tracer.metrics().items()}
    plain_s, traced_s = plain_1[0] + plain_2[0], traced_1[0] + traced_2[0]
    metrics["trace.overhead_share"] = ((traced_s - plain_s) / plain_s, "share")
    passes = (plain_1, traced_1, traced_2, plain_2)
    failed = sum(p[1] for p in passes)
    digests = [p[2] for p in passes]
    if len(set(digests)) != 1:
        print("traced and untraced passes gave different answers", file=sys.stderr)
        failed += 1
    detail = {"ops": len(ops), "pass_op_s": [p[0] for p in passes],
              "digest": digests[0], "traced_digest": digests[1],
              "counts_repeat": tracer.counts == repeat.counts,
              "loop_rate_per_s": rates,
              "spans": len(tracer.spans)}
    return 4 * len(ops), failed, metrics, detail


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        ops, setups = set_up(workload, args.seed,
                             1 if args.trace else SETUP_REPEATS)
    except ImportError as e:
        print(f"perfbench: cannot import nomfol from {ROOT / 'src'}: {e}",
              file=sys.stderr)
        return 2
    if args.trace:
        attempted, failed, metrics, detail = traced_run(
            workload, ops, f"{args.workload}-seed{args.seed}")
    else:
        attempted, failed, metrics, detail = timed_run(workload, ops, args.seconds)
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        detail["setup_samples_s"] = setups
    declared = declared_metrics(args.trace)
    wrong = [k for k, u in declared.items() if k not in metrics or metrics[k][1] != u]
    if wrong:
        raise KeyError(f"metrics missing or in another unit than BENCHMARK.json: {wrong}")
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  machine=machine())
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": u}
                    for k, u in declared.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
