"""Benchmark of the fewshot package: one workload, one seed, one run.

    python3 perfbench/run.py --workload train-regression-5w5s --seed 1 \
        --seconds 55 --trace 0

Run from the repository root; the package is imported from ``src/`` of
the same checkout.  With ``--trace 0`` the run measures the end-to-end
metrics with tracing off; with ``--trace 1`` it alternates untraced and
traced units and reports the per-layer metrics.  ``BENCHMARK.json`` at
the repository root names the workloads and the metrics with their
units.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the full record (environment, failed share, checks, raw times).
See README.md beside this file for the workloads and the metrics.
"""

from __future__ import annotations

import os
import sys

# numpy reads these when it loads: one BLAS thread, one process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import time
from pathlib import Path

from probe import NOMINAL_S, Probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SPEC = ROOT / "BENCHMARK.json"


def import_package():
    """Import fewshot from this checkout's src/, never from elsewhere."""
    init = SRC / "fewshot" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a fewshot checkout")
    sys.path.insert(0, str(SRC))
    import fewshot
    if Path(fewshot.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported fewshot from {fewshot.__file__}, not {init}")
    return fewshot


def spec() -> dict:
    """BENCHMARK.json: the workloads and the metrics with their units."""
    return json.loads(SPEC.read_text())


def traced_layers(per_layer: list[dict]) -> list[str]:
    """The functions traced: every ``<layer>`` with a ``<layer>.calls`` metric."""
    return [m["name"][:-len(".calls")] for m in per_layer
            if m["name"].endswith(".calls")]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def midmean(values) -> float:
    """Mean of the middle half: a quarter of outliers at either end moves it little."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


class Run:
    """State of one benchmark run: counts, problems found, metrics."""

    def __init__(self, wl, workload, seed: int, sizes):
        self.wl = wl
        self.w = workload
        self.seed = seed
        self.sizes = sizes
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.metrics: dict[str, float] = {}
        self.extra: dict = {}
        self.host = Probe()

    def unit(self, state):
        """One unit; returns a ``workloads.Unit``, or None if it raised."""
        episodes = self.sizes.train_episodes
        self.attempted += episodes
        try:
            return self.wl.run_unit(self.w, self.seed, state, self.sizes, self.host)
        except self.wl.UnitFailed as exc:
            self.failed += episodes - exc.completed
            self.problems.append(f"unit raised {exc}")
            return None

    def gate(self) -> None:
        reference = json.loads(REFERENCE.read_text())
        got = self.wl.gate_answer(self.w)
        self.problems += self.wl.gate_mismatches(got, reference[self.w.name])

    def timed(self, seconds: float) -> None:
        """End-to-end metrics, tracing off.

        The host's speed drifts (see probe.py), so every time is scaled by
        ``probe.NOMINAL_S`` over the probe's median time sampled while the
        unit it belongs to ran: the reported times are what the host takes
        at its nominal speed.  Each unit gives a throughput (its episodes
        over its scaled wall time) and a p50 and p90 of its scaled
        per-episode latencies; the run reports the interquartile mean of
        each over its units, so a few units slowed by other tenants of the
        host do not move the result, and a p90 that falls on a knee of the
        latency distribution, high in some units and low in others, is
        averaged rather than picked.  The raw values are in the record.
        The timed set-ups are spread over the run: set-up ``i`` of ``n``
        runs before the first unit that starts after ``i / (n - 1)`` of
        the loop time, and those still due run after the loop; a set-up is
        scaled by the probe of the unit before it.
        """
        wl, sizes = self.wl, self.sizes
        repeats = sizes.setups
        marks = [seconds * i / max(repeats - 1, 1) for i in range(repeats)]
        setup_times: list[tuple[float, float]] = []   # (raw seconds, probe seconds)
        state = None
        probes = [self.host.seconds()]   # before the loop, then one per unit

        def setups_due(loop_s: float):
            nonlocal state
            while len(setup_times) < repeats and marks[len(setup_times)] <= loop_s:
                start = time.perf_counter()
                state = wl.setup(self.seed)
                setup_times.append((time.perf_counter() - start, probes[-1]))

        def unit_figures(unit_s: float, samples: list[float], scale: float):
            ms = [1000.0 * s * scale for s in samples]
            return sizes.train_episodes / (unit_s * scale), statistics.median(ms), p90(ms)

        first = None
        scaled: list[tuple[float, float, float]] = []   # per unit: (1/s, p50, p90)
        raw: list[tuple[float, float, float]] = []
        loop_s = 0.0
        while True:
            setups_due(loop_s)
            out = self.unit(state)
            if out is None:
                break
            if first is None:
                first = out
                self.problems += wl.answer_checks(out.history)
            elif out.history != first.history:
                self.problems.append("a unit's history differs from the first unit's")
            probes.append(out.probe_s)
            scaled.append(unit_figures(out.wall_s, out.samples, NOMINAL_S / out.probe_s))
            raw.append(unit_figures(out.wall_s, out.samples, 1.0))
            loop_s += out.wall_s
            if loop_s * (len(scaled) + 1) / len(scaled) > seconds:
                break
        setups_due(math.inf)
        if first is None:
            raise SystemExit("error: the first unit failed; no metric to report: "
                             + "; ".join(self.problems))

        def midmeans(figures):
            rate, p50, tail = (midmean(column) for column in zip(*figures))
            return {"episodes_per_s": rate, "episode_ms_p50": p50, "episode_ms_p90": tail}

        self.metrics = {
            "setup_s": statistics.median(s * NOMINAL_S / p for s, p in setup_times),
            **midmeans(scaled),
            "peak_rss_mb": peak_rss_mb(),
            "val_accuracy_pct": 100.0 * wl.best_val_accuracy(first.history),
            "test_accuracy_pct": wl.test_report(
                self.w, self.seed, state, first.params, sizes).mean_accuracy,
        }
        self.extra.update(
            units=len(scaled), latency_samples_per_unit=sizes.train_episodes,
            setup_repeats=repeats, loop_s=loop_s,
            probe_median_s=statistics.median(probes),
            probe_min_s=min(probes), probe_max_s=max(probes),
            raw={"setup_s": statistics.median(s for s, _ in setup_times),
                 **midmeans(raw)})
        self.gate()

    def traced(self, layers: list[str]) -> None:
        """Per-layer metrics, with untraced and traced units alternating.

        Each of ``sizes.overhead_pairs`` pairs runs one unit untraced and
        one traced, and each unit's time is scaled to the host's nominal
        speed by its own probe samples, as in ``timed``.  The first traced
        unit also traces a set-up before it and a test evaluation after it;
        its spans are the per-layer metrics, their times scaled by that
        unit's probe.  The tracing overhead is the median over pairs of
        traced over untraced time.
        """
        from spans import Tracer, patched
        wl, sizes = self.wl, self.sizes
        observe = wl.observers()
        state = wl.setup(self.seed)
        first = None
        report = missing = None
        untraced: list[float] = []     # nominal seconds per unit
        traced: list[float] = []
        raw_ratios: list[float] = []
        for _ in range(sizes.overhead_pairs):
            out = self.unit(state)
            tracer = Tracer()
            wrappers = {target: (lambda name, fn: tracer.wrap(name, fn, observe.get(name)))
                        for target in layers}
            with patched(wrappers) as not_found:
                traced_state = wl.setup(self.seed) if report is None else state
                traced_out = self.unit(traced_state)
                if report is None and traced_out is not None:
                    wl.test_report(self.w, self.seed, traced_state, traced_out.params, sizes)

            if out is None or traced_out is None:
                raise SystemExit("error: a unit failed; no metric to report: "
                                 + "; ".join(self.problems))
            if first is None:
                first = out.history
                self.problems += wl.answer_checks(first)
            if out.history != first or traced_out.history != first:
                self.problems.append("a traced or untraced unit's history differs "
                                     "from the first unit's")
            untraced.append(out.wall_s * NOMINAL_S / out.probe_s)
            traced.append(traced_out.wall_s * NOMINAL_S / traced_out.probe_s)
            raw_ratios.append(traced_out.wall_s / out.wall_s)
            if report is None:
                report, missing = tracer, not_found
                scale = NOMINAL_S / traced_out.probe_s

        self.problems += [f"traced layer {m} not found" for m in missing]
        self.problems += self.self_check(report)
        self.notes += wl.baseline_notes(self.w, report)

        metrics = {}
        for name in layers:
            metrics[f"{name}.calls"] = report.calls[name]
            metrics[f"{name}.s"] = report.seconds[name] * scale
            metrics[f"{name}.self_s"] = report.self_seconds[name] * scale
        backward_calls = report.calls["autodiff.backward"]
        episodes = sizes.train_episodes
        metrics.update({
            "encoder.embed_np.columns": report.counters["embed_np_columns"],
            "encoder.reembed_ratio": wl.reembed_ratio(report),
            "linalg.cholesky.failed": report.raised["linalg.cholesky"],
            "autodiff.tape_nodes": (report.counters["tape_nodes"] / backward_calls
                                    if backward_calls else 0.0),
            "tracing.episodes_per_s": episodes / statistics.median(traced),
            "tracing.untraced_episodes_per_s": episodes / statistics.median(untraced),
            "tracing.overhead_ratio": statistics.median(
                t / u for t, u in zip(traced, untraced)),
        })
        self.metrics = metrics
        self.extra.update(overhead_pairs=len(traced),
                          raw={"tracing.overhead_ratio": statistics.median(raw_ratios)})
        self.gate()

    def self_check(self, tracer) -> list[str]:
        """Traced call counts against what the workload implies."""
        exact, nonzero, zero = self.wl.expected_counts(self.w, self.sizes)
        problems = []
        for name, want in exact.items():
            if tracer.calls[name] != want:
                problems.append(f"self-check: {name} called {tracer.calls[name]} "
                                f"times, workload implies {want}")
        for name in sorted(nonzero):
            if tracer.calls[name] == 0:
                problems.append(f"self-check: {name} was never called")
        for name in sorted(zero):
            if tracer.calls[name] != 0:
                problems.append(f"self-check: {name} called {tracer.calls[name]} "
                                f"times, expected none")
        return problems


def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, sizes=None):
    """One benchmark run; returns (result line dict, full record dict)."""
    import workloads as wl
    declared = spec()
    why = {d["name"]: d["why"] for d in declared["workloads"]}[workload_name]
    w = wl.WORKLOADS[workload_name]
    bench = Run(wl, w, seed, sizes if sizes is not None else wl.FULL)
    if trace:
        bench.traced(traced_layers(declared["per_layer"]))
        wanted = declared["per_layer"]
    else:
        bench.timed(seconds)
        wanted = declared["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in bench.metrics]
    if missing:
        raise SystemExit(f"error: BENCHMARK.json names metrics this run does not "
                         f"compute: {missing}")
    metrics = {m["name"]: {"value": float(bench.metrics[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        bench.problems.append("a metric is not finite")
    result = {"correct": not bench.problems, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    record = {"workload": w.name, "why": why, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment(seed),
              "failed_share": bench.failed / bench.attempted,
              "problems": bench.problems, "notes": bench.notes,
              **bench.extra, "metrics": metrics}
    return result, record


def format_table(record: dict) -> str:
    lines = [f"workload {record['workload']}  seed {record['seed']}  "
             f"trace {record['trace']}"]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    lines.append(f"  {'failed_share':<40} {record['failed_share']:>14.6g} share")
    for problem in record["problems"]:
        lines.append(f"  FAILED CHECK: {problem}")
    for note in record["notes"]:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    import workloads
    names = [d["name"] for d in spec()["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"workload {args.workload!r} has no definition in workloads.py")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(format_table(record))
    print(json.dumps({"record": record}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
