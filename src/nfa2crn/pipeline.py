"""End-to-end runs: compile, encode, perturb, integrate, decide, verify.

A manifest fixes everything a run depends on (automaton, word, parameters,
adversaries, tolerances, seed), and the report it produces embeds the full
parameter set, the constraint slack table, the per-state verdicts versus the
set-automaton oracle, block-boundary level checks, maintenance margins
certified for every time past the decision horizon, and conservation
statistics.  Identical manifests give byte-identical reports.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from multiprocessing import get_context
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .analysis import HIGH_THRESHOLD, LOW_THRESHOLD, ConstraintReport, ParameterSet, check_constraints
from .brn import Brn, ConcState
from .nfa import Nfa, extended_transition
from .perturb import ObservationScheme, PerturbationProfile, perturb_initial, perturb_rates
from .signals import InputSignal, SignalSpec, encode, validate
from .simulate import (
    Decision,
    IntegratorFault,
    SimConfig,
    Trace,
    check_phi,  # not called here: perfbench's tracer patches every PIPELINE_NAMES name on this module
    decide,
    integrate,
    phi_slack,
)
from .translate import state_species_name, translate

__all__ = [
    "StageError",
    "RunManifest",
    "RunResult",
    "run_end_to_end",
    "random_nfa",
    "all_words",
    "corpus_reports",
    "EXAMPLE_NFA_TEXT",
]

# three-state automaton over {0,1} accepting exactly the strings whose
# second-to-last symbol is 1; the standard small compile target
EXAMPLE_NFA_TEXT = """\
states: A B C
alphabet: 0 1
initial: A
accepting: C
trans: A 0 A
trans: A 1 A
trans: A 1 B
trans: B 0 C
trans: B 1 C
"""


@dataclass(frozen=True)
class RunManifest:
    """Everything one verification run depends on."""

    nfa: Nfa
    word: tuple[str, ...]
    params: ParameterSet
    profile: PerturbationProfile = PerturbationProfile()
    scheme: ObservationScheme = ObservationScheme()
    initial_mode: str = "exact"  # exact | random | worst-case-signed
    seed: int = 0
    rel_tol: float = 1e-8
    abs_tol: float = 1e-11
    nfa_path: str | None = None
    out_dir: str | None = None

    def sim_config(self) -> SimConfig:
        """The run's integration: to the decision time (the tail past it is certified, not integrated)."""
        return SimConfig(t_end=(3 * len(self.word) + 1) * self.params.tau, rel_tol=self.rel_tol,
                         abs_tol=self.abs_tol)

    def to_json_dict(self) -> dict:
        return {
            "nfa": self.nfa.to_json_dict(),
            "nfa_path": self.nfa_path,
            "word": list(self.word),
            "params": self.params.to_json_dict(),
            "profile": self.profile.to_json_dict(),
            "scheme": self.scheme.to_json_dict(),
            "initial_mode": self.initial_mode,
            "seed": self.seed,
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
        }


@dataclass
class RunResult:
    manifest: RunManifest
    trace: Trace  # keeps the run's steps only when returned or written
    decision: Decision
    report: dict

    @property
    def verified(self) -> bool:
        return bool(self.report["verified"])


class StageError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


@contextmanager
def _stage(name: str):
    try:
        yield
    except (StageError, IntegratorFault):
        # integrator faults keep their type (they map to a distinct exit code)
        raise
    except Exception as exc:
        raise StageError(f"stage {name!r} failed: {exc}") from exc


def run_end_to_end(manifest: RunManifest) -> RunResult:
    """Compile, encode, perturb, integrate, decide, and verify one run.

    The report's ``verified`` flag is true only when every per-state verdict
    matches membership in the reachable set, nothing is undetermined, the
    block-boundary levels hold at every prefix, and the margins are
    certified to stay clear of the thresholds at every time past the
    decision horizon (see ``_verify``).  The result's trace
    keeps the run's steps, so it reads any time, and the report is read
    from it: at a kept time the trace reads the solver's own state.
    """
    return _run_all([manifest], traces=True)[0]


@dataclass
class _Setup:
    """A run's compiled, encoded and perturbed inputs, ready to integrate."""

    manifest: RunManifest
    signal: InputSignal
    brn: Brn
    x0: ConcState
    sim: SimConfig


def _once(shared: dict, key, make):
    """``make()``, called only for a key not in ``shared`` yet, as what runs with that key share."""
    if key not in shared:
        shared[key] = make()
    return shared[key]


def _setup(manifest: RunManifest, shared: dict) -> _Setup:
    """Set one run up; runs set up with one ``shared`` share each network they have in common."""
    params = manifest.params
    with _stage("compile"):
        translation = _once(shared, (manifest.nfa, params), lambda: translate(manifest.nfa, params.rates))
    with _stage("encode"):
        signal = encode(SignalSpec(word=manifest.word, epsilon=params.epsilon, tau=params.tau))
    with _stage("perturb"):
        profile = manifest.profile
        if profile.mode == "sinusoid" and profile.omega <= 0:
            profile = replace(profile, omega=2 * math.pi / params.tau)
        sim = manifest.sim_config()
        # only the piecewise law reads t_end (its knots span it)
        t_end = sim.t_end if profile.mode == "piecewise" else None
        brn = _once(shared, (manifest.nfa, params, profile, t_end),
                    lambda: perturb_rates(translation.brn, profile, t_end=t_end))
        if manifest.initial_mode == "exact":
            x0 = translation.initial
        else:
            x0 = perturb_initial(translation.initial, params.epsilon,
                                 mode=manifest.initial_mode, seed=manifest.seed)
    return _Setup(manifest, signal, brn, x0, sim)


def _run_all(manifests: Sequence[RunManifest], traces: bool = False) -> list[RunResult]:
    """Run manifests with two ``integrate`` calls at most, so that their word tries integrate together.

    Runs whose trace is returned (``traces``) or written (``out_dir``) keep
    their steps and integrate together.  The others keep only what their
    reports check (see ``Trace``), so a corpus's memory grows with its
    runs' checks, not with their steps.  Every report reads its run's trace.
    Networks, constraint reports and signal checks are made once per
    distinct input and shared.
    """
    shared: dict = {}
    setups = [_setup(m, shared) for m in manifests]
    keeps = [traces or bool(s.manifest.out_dir) for s in setups]
    with _stage("integrate"):
        kept = iter(_integrate([s for s, keep in zip(setups, keeps) if keep], steps=True))
        others = iter(_integrate([s for s, keep in zip(setups, keeps) if not keep], steps=False))
    results = []
    for s, keep in zip(setups, keeps):
        constraints = _once(shared, s.manifest.params, lambda: check_constraints(s.manifest.params))
        # the encoder's signal is piecewise linear between the corners and thirds
        # that validate's grid always holds, so checking that grid alone is exact
        admissible = _once(shared, s.signal.spec, lambda: validate(s.signal, s.signal.spec, samples_per_phase=1).admissible)
        results.append(_verify(s, next(kept if keep else others), constraints, admissible))
    return results


def _integrate(setups: Sequence[_Setup], steps: bool) -> list[Trace]:
    """``integrate`` the runs together, keeping their ``steps`` or not."""
    return integrate([s.brn for s in setups], [s.x0 for s in setups], [s.signal for s in setups],
                     [s.sim for s in setups], steps)


def _verify(setup: _Setup, trace: Trace, constraints: ConstraintReport, admissible: bool) -> RunResult:
    """Decide, check and report one integrated run from its trace; write the trace too if asked."""
    manifest, sig_spec, x0 = setup.manifest, setup.signal.spec, setup.x0
    params, nfa, word = manifest.params, manifest.nfa, manifest.word
    with _stage("decide"):
        decision = decide(trace, nfa, sig_spec, manifest.scheme)

    target = extended_transition(nfa, nfa.initial, word)
    oracle_accepts = bool(target & nfa.accepting)
    expected = {q: ("in-set" if q in target else "not-in-set") for q in nfa.states}
    verdicts_match = decision.verdicts == expected

    slacks = [phi_slack(trace, nfa, word[:k], params.gamma, params.tau) for k in range(len(word) + 1)]
    phi = [{"prefix": list(word[:k]), "t": 3 * k * params.tau, "holds": slack >= 0, "slack": slack}
           for k, slack in enumerate(slacks)]
    phi_all = all(entry["holds"] for entry in phi)

    # From 3n tau on the inputs are 0, so each state moves only under its
    # majority pair: Y' = Y Yb (k4u Y - k4d Yb), with Y + Yb = p and both
    # rates within delta of k4.  A state above p (k4 + delta) / (2 k4) never
    # falls and one below p (k4 - delta) / (2 k4) never rises, so wherever
    # that sign condition holds at t_dec the state there is the worst one
    # over every later time, under every admissible rate adversary.
    t0 = sig_spec.decision_time
    k4, delta = params.k4, max(params.delta, manifest.profile.delta)
    level = dict(zip(trace.names, trace.state_at(t0).tolist()))
    sign_slack = {}
    high_margin = low_margin = math.inf
    totals = {a: x0[a] + x0[b] for a, b in trace.deviation}
    for q in nfa.states:
        name = state_species_name(q)
        y, p = level[name], totals[name]
        if q in target:
            sign_slack[q] = y - p * (k4 + delta) / (2 * k4)
            high_margin = min(high_margin, y - (HIGH_THRESHOLD + params.eta))
        else:
            sign_slack[q] = p * (k4 - delta) / (2 * k4) - y
            low_margin = min(low_margin, (LOW_THRESHOLD - params.eta) - y)
    certified = all(slack > 0 for slack in sign_slack.values())
    maintenance_ok = certified and high_margin > 0 and low_margin > 0

    totals_ok = all(1 - params.epsilon - 1e-12 <= c0 <= 1 + 2 * params.epsilon + 1e-12
                    for c0 in totals.values())

    verified = (verdicts_match and not decision.undetermined and phi_all
                and maintenance_ok and admissible)
    report = {
        "manifest": manifest.to_json_dict(),
        "constraints": constraints.to_json_dict(),
        "oracle": {
            "reachable": sorted(target, key=nfa.states.index),
            "accepts": oracle_accepts,
        },
        "decision": decision.to_json_dict(),
        "verdicts_match": verdicts_match,
        "accept_matches": (decision.accept is not None and decision.accept == oracle_accepts),
        "phi": phi,
        "phi_all": phi_all,
        "maintenance": {
            "high_margin": None if high_margin == math.inf else high_margin,
            "low_margin": None if low_margin == math.inf else low_margin,
            "sign_slack": sign_slack,
            "certified": certified,
            "ok": maintenance_ok,
        },
        "conservation": {
            "max_deviation": max([0.0, *trace.deviation.values()]),
            "totals": totals,
            "band_ok": totals_ok,
        },
        "signal_admissible": admissible,
        "verified": verified,
    }

    if manifest.out_dir:
        out = Path(manifest.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
        with open(out / "trace.csv", "w", newline="") as fh:
            trace.write_csv(fh)

    return RunResult(manifest=manifest, trace=trace, decision=decision, report=report)


def random_nfa(rng: np.random.Generator, max_states: int = 4, max_symbols: int = 2,
               edge_prob: float = 0.35) -> Nfa:
    """Random automaton with at least one initial state and one transition."""
    q = int(rng.integers(1, max_states + 1))
    s = int(rng.integers(1, max_symbols + 1))
    states = tuple(f"q{i}" for i in range(q))
    alphabet = tuple("0123456789"[:s])
    transitions = set()
    for src in states:
        for sym in alphabet:
            for dst in states:
                if rng.random() < edge_prob:
                    transitions.add((src, sym, dst))
    if not transitions:
        transitions.add((states[0], alphabet[0], states[-1]))
    initial = {states[i] for i in range(q) if rng.random() < 0.5} or {states[0]}
    accepting = {states[i] for i in range(q) if rng.random() < 0.5}
    return Nfa(states, alphabet, frozenset(transitions), frozenset(initial), frozenset(accepting))


def all_words(alphabet: Sequence[str], max_len: int) -> list[tuple[str, ...]]:
    """Every word over the alphabet up to the given length, shortest first."""
    words: list[tuple[str, ...]] = [()]
    frontier: list[tuple[str, ...]] = [()]
    for _ in range(max_len):
        frontier = [w + (a,) for w in frontier for a in alphabet]
        words.extend(frontier)
    return words


def _run_reports(manifests: Sequence[RunManifest]) -> list[dict]:
    """Reports of manifests in their order, from one ``_run_all``: the runs integrate together."""
    return [result.report for result in _run_all(manifests)]


def corpus_reports(manifests: Iterable[RunManifest], processes: int | None = None) -> list[dict]:
    """Run many manifests, optionally across a worker pool; reports come back in input order.

    The manifests are integrated in one ``integrate`` call: every group's
    word trie level by level, every distinct symbol block once, and each
    level of all the networks in one batch (see ``simulate.integrate``); a
    group is the manifests that differ only in their word.  A run keeps only
    what its report checks, so the batch needs no bound.  The manifests are
    ordered by group, in input order within a group, so each group is
    contiguous; a pool gives each worker one contiguous slice of that order
    to integrate as one batch.  Every report is the one ``run_end_to_end``
    gives for its manifest alone.
    """
    manifests = list(manifests)
    groups: dict[RunManifest, int] = {}
    keys = [groups.setdefault(replace(m, word=()), len(groups)) for m in manifests]
    order = sorted(range(len(manifests)), key=keys.__getitem__)
    ordered = [manifests[i] for i in order]
    if processes and processes > 1 and len(ordered) > 1:
        size = -(-len(ordered) // processes)
        slices = [ordered[k:k + size] for k in range(0, len(ordered), size)]
        with ProcessPoolExecutor(max_workers=len(slices),
                                 mp_context=get_context("spawn")) as pool:
            results = [r for part in pool.map(_run_reports, slices) for r in part]
    else:
        results = _run_reports(ordered)
    reports: list = [None] * len(manifests)
    for i, report in zip(order, results):
        reports[i] = report
    return reports
