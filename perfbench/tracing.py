"""Spans and solver counters recorded from outside the program.

The tracer replaces, for the duration of a traced pass, the names that
``nfa2crn.pipeline`` imports (and ``plan_parameters``, which the benchmark's
set-up calls) with wrappers that record a span per call: name, start, end,
run id and parent.  It also wraps the ``solve_ivp`` that ``nfa2crn.simulate``
calls, to read ``nfev`` and the accepted step count of every integration, and
counts the ``RuntimeWarning``s raised inside ``integrate``.  Spans are kept in
memory and written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import time
import warnings
from collections import Counter, defaultdict

from nfa2crn import analysis, pipeline, simulate

# the layers a run passes through, as ``nfa2crn.pipeline`` imports them
PIPELINE_NAMES = ("translate", "encode", "validate", "perturb_rates", "perturb_initial",
                  "integrate", "decide", "check_phi", "check_constraints",
                  "run_end_to_end", "corpus_reports")

RUN_SPAN = "pipeline.run_end_to_end"
INTEGRATE_SPAN = "simulate.integrate"


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records spans while installed; ``with Tracer() as tr:`` installs it."""

    def __init__(self):
        # [name, start, end, run id, parent span index]; end is None while open
        self.spans: list[list] = []
        # (nfev, accepted steps) of every solve_ivp call
        self.solves: list[tuple[int, int]] = []
        self.runtime_warnings = 0
        self._stack: list[int] = []
        self._runs = 0
        self._run: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, module, name: str, wrapper_factory) -> None:
        original = getattr(module, name)
        self._saved.append((module, name, original))
        setattr(module, name, wrapper_factory(original))

    def __enter__(self) -> "Tracer":
        for name in PIPELINE_NAMES:
            self._patch(pipeline, name, self._spanned)
        self._patch(analysis, "plan_parameters", self._spanned)
        self._patch(simulate, "solve_ivp", self._counted)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _spanned(self, fn):
        name = span_name(fn)
        call = functools.partial(self._counting_warnings, fn) if name == INTEGRATE_SPAN else fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_run = self._run
            if name == RUN_SPAN:
                self._runs += 1
                self._run = self._runs
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, self._run, parent])
            self._stack.append(len(self.spans) - 1)
            try:
                return call(*args, **kwargs)
            finally:
                self.spans[self._stack.pop()][2] = time.perf_counter()
                self._run = outer_run

        return wrapper

    def _counting_warnings(self, fn, *args, **kwargs):
        # count every RuntimeWarning, then show each one as the program would
        # have: counting must not hide them.  They are shown only once the
        # recording context has ended, since inside it showing one records it.
        caught: list = []
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                return fn(*args, **kwargs)
        finally:
            self.runtime_warnings += sum(issubclass(w.category, RuntimeWarning) for w in caught)
            for w in caught:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)

    def _counted(self, solve_ivp):
        @functools.wraps(solve_ivp)
        def wrapper(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            self.solves.append((int(sol.nfev), len(sol.t) - 1))
            return sol

        return wrapper

    def write(self, fh, pass_index: int) -> None:
        for name, start, end, run_id, parent in self.spans:
            fh.write(json.dumps({"pass": pass_index, "name": name, "start": start, "end": end,
                                 "run": run_id, "parent": parent}) + "\n")


def layer_totals(spans: list[list]) -> tuple[dict[str, float], Counter, float]:
    """Busy seconds and call count per span name, and the runs' self time.

    A run's self time is its duration minus the time its child spans cover;
    children of one span never overlap, since the program is single-threaded.
    """
    busy: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    child_time: dict[int, float] = defaultdict(float)
    for name, start, end, _run, parent in spans:
        busy[name] += end - start
        calls[name] += 1
        if parent is not None:
            child_time[parent] += end - start
    run_self = sum(end - start - child_time[i]
                   for i, (name, start, end, _r, _p) in enumerate(spans) if name == RUN_SPAN)
    return busy, calls, run_self
