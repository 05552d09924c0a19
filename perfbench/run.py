"""Benchmark of nfa2crn, measured from outside through its public API.

    python3 perfbench/run.py --workload example-exact --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; the program is imported from the
checkout's ``src``.  The benchmark builds its inputs from ``--seed`` (see
``workloads.py``), sets them up several times, then calls the program in one
process until ``--seconds`` have passed, after at least one full pass over the
workload.  Every run is checked against the set-automaton oracle.

With ``--trace 0`` it reports the end-to-end metrics: runs verified per second,
median wall time per run, set-up time and peak resident memory.  With
``--trace 1`` it runs one untraced pass, then at least two traced passes, and
reports per-layer time, call counts and solver counters per pass; the solver
counters of every traced pass must be identical, or the result is marked
incorrect.  Spans are written to ``.perfbench/spans-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; failed / attempted is
the fail ratio.  Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
# set-up is repeated at least this often and for at least this long
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
MIN_TRACED_PASSES = 2


def load_program():
    src = ROOT / "src"
    if not (src / "nfa2crn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nfa2crn sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import nfa2crn

    if Path(nfa2crn.__file__).resolve().parent != src / "nfa2crn":
        sys.exit(f"perfbench: imported nfa2crn from {nfa2crn.__file__}, not from {src}")


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


class Runner:
    """Calls the program one unit at a time and checks every run it makes."""

    def __init__(self):
        from nfa2crn import pipeline, simulate
        from workloads import oracle_failure

        self.pipeline = pipeline
        self.errors = (pipeline.StageError, simulate.IntegratorFault)
        self.oracle_failure = oracle_failure
        self.attempted = 0
        self.failed = 0

    def _report(self, manifest) -> dict | None:
        try:
            return self.pipeline.run_end_to_end(manifest).report
        except self.errors as exc:
            log(f"run raised {exc!r}")
            return None

    def execute(self, unit) -> tuple[float, int]:
        """Run one unit; returns its wall time and the number of runs that verified."""
        start = time.perf_counter()
        try:
            if unit.single:
                reports = [self.pipeline.run_end_to_end(unit.manifests[0]).report]
            else:
                reports = self.pipeline.corpus_reports(unit.manifests, processes=None)
            elapsed = time.perf_counter() - start
        except self.errors as exc:
            elapsed = time.perf_counter() - start
            log(f"unit raised {exc!r}; running its runs one by one to find the failures")
            reports = [self._report(m) for m in unit.manifests]
        ok = 0
        for manifest, report in zip(unit.manifests, reports, strict=True):
            self.attempted += 1
            why = self.oracle_failure(manifest, report)
            if why is None:
                ok += 1
                continue
            self.failed += 1
            log(f"FAIL automaton={json.dumps(manifest.nfa.to_json_dict())} "
                f"word={list(manifest.word)} seed={manifest.seed}: {why}")
        return elapsed, ok


def end_to_end(runner, units, seconds, setup_times) -> dict:
    samples = []  # (wall seconds, runs verified, runs) per unit call
    start = time.perf_counter()
    # one full pass, then more units while the next is expected to end in time
    for i in itertools.count():
        k = i % len(units)
        if i >= len(units) and \
                time.perf_counter() - start + samples[i - len(units)][0] > seconds:
            break
        elapsed, ok = runner.execute(units[k])
        samples.append((elapsed, ok, len(units[k].manifests)))
    wall = sum(s[0] for s in samples)
    return {
        "runs_per_s": (sum(s[1] for s in samples) / wall, "1/s"),
        # one run_end_to_end call on long-word-piecewise; on the corpus
        # workloads, whose runs are not timed singly, a corpus call's wall time per run
        "run_p50_s": (statistics.median(s[0] / s[2] for s in samples), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(runner, units, seconds, setup_tracer, spans_path) -> tuple[dict, bool]:
    from tracing import Tracer, layer_totals

    start = time.perf_counter()
    untraced = sum(runner.execute(unit)[0] for unit in units)
    passes: list[tuple[Tracer, float]] = []
    while len(passes) < MIN_TRACED_PASSES or time.perf_counter() - start < seconds:
        with Tracer() as tracer:
            wall = sum(runner.execute(unit)[0] for unit in units)
        passes.append((tracer, wall))

    # the solver counters must repeat exactly, or later changes cannot cite them
    first = passes[0][0].solves
    deterministic = all(tracer.solves == first for tracer, _ in passes[1:])
    if not deterministic:
        log("solver counters differ between traced passes of the same inputs")

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w") as fh:
        setup_tracer.write(fh, "setup")
        for k, (tracer, _) in enumerate(passes):
            tracer.write(fh, k)

    totals = [layer_totals(tracer.spans) for tracer, _ in passes]

    def busy(name):
        return statistics.median(t[0].get(name, 0.0) for t in totals)

    calls = totals[0][1]
    nfev = sum(n for n, _ in first)
    steps = sum(s for _, s in first)
    # RK45 spends 2 evaluations starting up and 6 on every attempted step
    rejected = sum((n - 2) // 6 - s for n, s in first)
    setup_busy, setup_calls, _ = layer_totals(setup_tracer.spans)
    metrics = {
        "simulate.integrate.s": (busy("simulate.integrate"), "s"),
        "simulate.integrate.calls": (len(first), "count"),
        "simulate.integrate.nfev": (nfev, "count"),
        "simulate.integrate.steps": (steps, "count"),
        "simulate.integrate.rejected": (rejected, "count"),
        "simulate.integrate.us_per_eval": (busy("simulate.integrate") / nfev * 1e6, "us"),
        "simulate.integrate.warnings": (passes[0][0].runtime_warnings, "count"),
        "analysis.plan_parameters.s": (setup_busy.get("analysis.plan_parameters", 0.0), "s"),
        "analysis.plan_parameters.calls": (setup_calls["analysis.plan_parameters"], "count"),
        "analysis.check_constraints.s": (busy("analysis.check_constraints"), "s"),
        "translate.translate.s": (busy("translate.translate"), "s"),
        "perturb.perturb_rates.s": (busy("perturb.perturb_rates"), "s"),
        "perturb.perturb_initial.s": (busy("perturb.perturb_initial"), "s"),
        "signals.encode.s": (busy("signals.encode"), "s"),
        "signals.validate.s": (busy("signals.validate"), "s"),
        "simulate.decide.s": (busy("simulate.decide"), "s"),
        "simulate.check_phi.s": (busy("simulate.check_phi"), "s"),
        "simulate.check_phi.calls": (calls["simulate.check_phi"], "count"),
        "pipeline.run_end_to_end.self_s": (statistics.median(t[2] for t in totals), "s"),
        "pipeline.corpus_reports.s": (busy("pipeline.corpus_reports"), "s"),
        "trace.overhead": (statistics.median(w for _, w in passes) / untraced - 1, "ratio"),
    }
    return metrics, deterministic


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import numpy
    import scipy
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    build = workloads.WORKLOADS[args.workload]
    runs_dir = OUT_DIR / "runs"

    setup_times = []
    if args.trace:
        with Tracer() as setup_tracer:
            workload = build(args.seed, ROOT, runs_dir)
    else:
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            start = time.perf_counter()
            workload = build(args.seed, ROOT, runs_dir)
            setup_times.append(time.perf_counter() - start)
    log(f"workload {args.workload} seed {args.seed}: "
        f"{json.dumps(workloads.properties(workload))}")
    log(f"nproc {os.cpu_count()} python {platform.python_version()} "
        f"numpy {numpy.__version__} scipy {scipy.__version__}")

    runner = Runner()
    try:
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, deterministic = per_layer(runner, workload.units, args.seconds,
                                               setup_tracer, spans_path)
        else:
            metrics = end_to_end(runner, workload.units, args.seconds, setup_times)
            deterministic = True
    finally:
        shutil.rmtree(runs_dir, ignore_errors=True)

    log(f"fail_ratio {runner.failed}/{runner.attempted}")
    for name, (value, unit) in metrics.items():
        log(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0 and deterministic,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
