"""End-to-end and per-layer benchmark of the echtoric command line.

    python3 bench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Run it from a source checkout: the package is imported from the
checkout's `src` directory, never from an installed copy, and the run
fails when that directory is missing.  One closed-loop client issues the
workload's requests one after another by calling `echtoric.cli.main`
in this process with stdout captured.  That times the real CLI path
without paying interpreter start-up on every request; start-up is
measured on its own as `setup_s`, inside the same `--seconds`.  The
request list runs in whole passes; the first is a warm-up, and no pass
starts that would end after `--seconds`.  Each request's latency is its
median over the timed passes; throughput is the request count over the
sum of those medians.

End-to-end times are calibrated.  On a shared host the same code runs
up to twice as fast at one moment as at another, as neighbours come and
go (on a 2-vCPU cloud VM the calibration loop took from 0.87 to 1.74 ms
within one minute), and that swing is larger than any bound a change
could be held to.  So each request, and each fresh interpreter of
`setup_s`, is timed between two runs of a fixed stdlib loop
(`calibration`), and its wall time t is reported as t * CALIBRATION_S / c,
where c is the mean of the two loop times: the time it would take on a
machine where the loop takes CALIBRATION_S.  The loop touches no code of
the package, so on a steady machine a change to the package moves these
times in proportion to wall time.  Per-layer times are as measured.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates plain
passes with traced passes (see spans.py) and reports per-layer self
times and work counts, and the tracing overhead.

The first pass checks every report against its workload's check,
outside the timed region.  Every later pass, traced or not, must repeat
each report byte for byte, and the traced calls must return what the
report says.  The last stdout line is the JSON result; the line before
it holds sample counts, the digest of all reports and the work counts.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# a percentile is reported only with at least this many samples above it
MIN_TAIL = 10
SETUP_RUNS = 9
# a time measured while the calibration loop takes c is reported as
# time * CALIBRATION_S / c
CALIBRATION_S = 1e-3
CALIBRATION_TERMS = 200

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import echtoric.cli
echtoric.cli.build_parser()
print(time.perf_counter() - t, echtoric.cli.__file__)
"""


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile, refused without MIN_TAIL samples above."""
    xs = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(xs)))
    if len(xs) - rank < MIN_TAIL:
        raise ValueError(f"p{q} of {len(xs)} samples leaves fewer than "
                         f"{MIN_TAIL} above it")
    return xs[rank - 1]


def calibration() -> float:
    """Seconds of a fixed loop of stdlib Fraction arithmetic."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, CALIBRATION_TERMS):
        total += Fraction(1, i) * Fraction(i % 7 + 1, 3)
    return time.perf_counter() - start


def calibrated(elapsed: float, before: float, after: float) -> float:
    """elapsed as measured between calibration loops of before and after."""
    return elapsed * 2 * CALIBRATION_S / (before + after)


def passes_until(deadline: float, run_pass, least: int) -> list:
    """Results of run_pass(), at least `least` of them, then more while the
    next one, taking as long as the last, still ends before `deadline`."""
    results = []
    while True:
        start = time.perf_counter()
        results.append(run_pass())
        end = time.perf_counter()
        if len(results) >= least and end + (end - start) > deadline:
            return results


def measure_setup() -> list[float]:
    """Calibrated seconds a fresh interpreter spends importing the CLI and
    building its parser."""
    expected = (SRC / "echtoric" / "cli.py").resolve()
    times = []
    for i in range(SETUP_RUNS + 1):
        before = calibration()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                             capture_output=True, text=True, timeout=120,
                             check=True).stdout.split()
        after = calibration()
        if Path(out[1]).resolve() != expected:
            raise RuntimeError(f"a fresh interpreter imported {out[1]}")
        if i:  # the first run only fills the bytecode cache
            times.append(calibrated(float(out[0]), before, after))
    return times


class Client:
    """Issues a workload's requests through the CLI and checks the outputs."""

    def __init__(self, main, requests) -> None:
        self.main = main
        self.requests = requests
        self.outputs: list[str] = []  # per request, from the first pass
        self.bad: set[int] = set()  # requests whose first report failed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # why the run is not correct

    def call(self, argv) -> tuple[int, str, float]:
        out, err = io.StringIO(), io.StringIO()
        sys.stdout, sys.stderr = out, err
        start = time.perf_counter()
        try:
            code = self.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash fails the request, not the run
            code = -1
            err.write(repr(exc))
        finally:
            elapsed = time.perf_counter() - start
            sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
        return code, out.getvalue(), elapsed

    def judge(self, i: int, code: int, text: str) -> None:
        """Count request i as attempted, and as failed if its output is off."""
        self.attempted += 1
        if len(self.outputs) == i:  # first pass
            self.outputs.append(text)
            problem = self.check(i, code, text)
            if problem:
                self.bad.add(i)
        elif text != self.outputs[i]:
            problem = "report differs from the first pass"
        else:
            problem = "same report as a failed first pass" \
                if i in self.bad else None
        if problem:
            self.fail(i, problem)

    def check(self, i: int, code: int, text: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            self.requests[i].check(json.loads(text))
        except Exception as exc:  # a malformed report fails like a wrong one
            return f"{type(exc).__name__}: {exc}"
        return None

    def fail(self, i: int, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            argv = " ".join(self.requests[i].argv)
            self.problems.append(f"request {i} ({argv}): {problem}")

    def run_pass(self, calibrate: bool = True) -> list[float]:
        """Seconds per request of one plain pass, calibrated or as measured."""
        latencies = []
        after = calibration() if calibrate else 0.0
        for i, req in enumerate(self.requests):
            gc.collect()  # each request starts from a clean heap, as a CLI run
            before = after
            code, text, elapsed = self.call(req.argv)
            if calibrate:
                after = calibration()
                elapsed = calibrated(elapsed, before, after)
            latencies.append(elapsed)
            self.judge(i, code, text)
        return latencies

    def traced_pass(self, tracer) -> float:
        """Busy seconds of one traced pass; spans accumulate in tracer."""
        busy = 0.0
        for i, req in enumerate(self.requests):
            gc.collect()
            root = len(tracer.spans)
            code, text, elapsed = tracer.request(
                i, lambda: self.call(req.argv))
            busy += elapsed
            failed = self.failed
            self.judge(i, code, text)
            if self.failed == failed:
                problem = parity(json.loads(text), tracer.spans, root)
                if problem:
                    self.fail(i, f"traced call disagrees on {problem}")
        return busy

    def digest(self) -> str:
        h = hashlib.sha256()
        for text in self.outputs:
            h.update(text.encode())
        return h.hexdigest()


def parity(report: dict, spans, root: int) -> str | None:
    """Compare what the CLI's own library calls returned with its report."""
    cmd = report["command"]
    for s in spans[root + 1:]:
        if s.parent != root:
            continue
        c = s.counts or {}
        if s.layer == "weights" and cmd == "weights":
            if c["nodes"] != report["weight_count"] + \
                    (report["domain_type"] == "convex"):
                return "the weight count"
        elif s.name == "decide_packing" and cmd == "embed":
            if c["moves"] != len(report["trace"]) - 1:
                return "the reduction length"
        elif s.layer == "capacities" and cmd == "caps":
            if (c["K"], c["certified"]) != (report["k"], report["certified"]):
                return "the capacity horizon or certification"
        elif s.layer == "latticepaths":
            if c["k"] != report["oracle"]["k_max"]:
                return "the oracle horizon"
        elif s.layer == "blowups":
            if c["vertices"] != len(report["approx_boundary"]):
                return "the approximation vertices"
    return None


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(client: Client, deadline: float) -> tuple[dict, dict]:
    setup = measure_setup()
    # the first pass checks the reports and warms up; it is not timed
    passes = passes_until(deadline, client.run_pass, 3)[1:]
    per_request = [statistics.median(t) for t in zip(*passes)]
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "throughput_rps": metric(len(per_request) / sum(per_request), "1/s"),
        "latency_p50_ms": metric(1000 * percentile(per_request, 50), "ms"),
        "latency_p90_ms": metric(1000 * percentile(per_request, 90), "ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "MB"),
    }
    samples = {"setup_s": len(setup), "throughput_rps": len(per_request),
               "latency_p50_ms": len(per_request),
               "latency_p90_ms": len(per_request), "peak_rss_mb": 1}
    return metrics, {"passes": len(passes), "samples": samples}


LAYER_UNITS = {"busy_s": "s", "decide_s": "s", "scale_s": "s",
               "concave_s": "s", "convex_s": "s", "overhead_s": "s",
               "bytes": "bytes", "certified_frac": "ratio",
               "maxplus_cells": "computed-cells",
               "minplus_cells": "computed-cells"}


def per_layer(client: Client, deadline: float, package) -> tuple[dict, dict]:
    from spans import Tracer, install, layer_metrics, uninstall

    budget = getattr(sys.modules[package.__name__ + ".capacities"],
                     "default_sub_budget", None)
    rows: list[dict] = []
    overheads: list[float] = []
    missing: list[str] = []

    def pair() -> None:
        nonlocal missing
        plain = sum(client.run_pass(calibrate=False))
        tracer = Tracer()
        undo, missing = install(tracer, package)
        try:
            traced = client.traced_pass(tracer)
        finally:
            uninstall(undo)
        overheads.append(traced - plain)
        rows.append(layer_metrics(tracer.spans, budget))

    client.run_pass(calibrate=False)  # checks the reports and warms up
    passes_until(deadline, pair, 1)
    counts = {k: v for k, v in rows[0].items() if isinstance(v, int)}
    if any({k: row[k] for k in counts} != counts for row in rows[1:]):
        client.problems.append("work counts differ between traced passes")
    metrics = {}
    for key in rows[0]:
        value = statistics.median(r[key] for r in rows)
        suffix = key.split(".", 1)[1]
        metrics[key] = metric(value, LAYER_UNITS.get(suffix, "count"))
    metrics["trace.overhead_s"] = metric(statistics.median(overheads), "s")
    busy = {k: v["value"] for k, v in metrics.items() if k.endswith(".busy_s")}
    total = sum(busy.values()) or 1.0
    detail = {"passes": len(rows), "work_counts": counts,
              "layer_share": {k.split(".")[0]: round(v / total, 4)
                              for k, v in sorted(busy.items())},
              "unwrapped_entry_points": missing}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "echtoric" / "__init__.py").is_file():
        print(f"bench: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("TDE_MAX_NODES", None)  # the default node guard applies
    import echtoric
    import echtoric.cli
    home_pkg = (SRC / "echtoric").resolve()
    if Path(echtoric.__file__).resolve().parent != home_pkg:
        print(f"bench: imported {echtoric.__file__}, not the checkout's",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + args.seconds
    workload = WORKLOADS[args.workload](args.seed)
    client = Client(echtoric.cli.main, workload.requests)
    home = os.getcwd()
    # a terminated run unwinds like an interrupted one, through the
    # finally below that removes its scratch directory
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    work = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        for name, text in workload.files.items():
            Path(work, name).write_text(text, encoding="utf-8")
        os.chdir(work)  # reports name their inputs by relative path
        if args.trace:
            metrics, detail = per_layer(client, deadline, echtoric)
        else:
            metrics, detail = end_to_end(client, deadline)
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)

    detail.update(workload=workload.name, seed=args.seed,
                  requests=len(workload.requests),
                  report_sha256=client.digest(), problems=client.problems)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": not client.problems,
                      "attempted": client.attempted,
                      "failed": client.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
