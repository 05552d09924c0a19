"""End-to-end runs: compile, encode, perturb, integrate, decide, verify.

A manifest fixes everything a run depends on (automaton, word, parameters,
adversaries, tolerances, seed), and the report it produces embeds the full
parameter set, the constraint slack table, the per-state verdicts versus the
set-automaton oracle, block-boundary level checks, maintenance margins past
the decision horizon, and conservation statistics.  Identical manifests give
byte-identical reports.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import groupby
from multiprocessing import get_context
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .analysis import HIGH_THRESHOLD, LOW_THRESHOLD, ParameterSet, check_constraints
from .brn import Brn, ConcState
from .nfa import Nfa, accepts, extended_transition
from .perturb import ObservationScheme, PerturbationProfile, perturb_initial, perturb_rates
from .signals import InputSignal, SignalSpec, encode, validate
from .simulate import (
    Decision,
    IntegratorFault,
    SimConfig,
    Trace,
    check_phi,
    conservation_deviation,
    decide,
    integrate,
)
from .translate import (
    TranslationOutput,
    dual_portal_species_name,
    dual_state_species_name,
    portal_species_name,
    state_species_name,
    translate,
)

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
    extra_phases: float = 1.0  # horizon beyond the decision time, in phases
    nfa_path: str | None = None
    out_dir: str | None = None

    def sim_config(self) -> SimConfig:
        n = len(self.word)
        t_end = (3 * n + 1 + self.extra_phases) * self.params.tau
        return SimConfig(t_end=t_end, rel_tol=self.rel_tol, abs_tol=self.abs_tol)

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
            "extra_phases": self.extra_phases,
        }


@dataclass
class RunResult:
    manifest: RunManifest
    translation: TranslationOutput
    trace: Trace
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
    block-boundary levels hold at every prefix, and the margins past the
    decision horizon stay clear of the thresholds.
    """
    return _run_all([manifest])[0]


@dataclass
class _Setup:
    """A run's compiled, encoded and perturbed inputs, ready to integrate."""

    manifest: RunManifest
    translation: TranslationOutput
    sig_spec: SignalSpec
    signal: InputSignal
    brn: Brn
    x0: ConcState
    sim: SimConfig


def _setup(manifest: RunManifest) -> _Setup:
    params = manifest.params
    with _stage("compile"):
        translation = translate(manifest.nfa, params.rates)
    with _stage("encode"):
        sig_spec = SignalSpec(word=manifest.word, epsilon=params.epsilon, tau=params.tau)
        signal = encode(sig_spec)
    with _stage("perturb"):
        profile = manifest.profile
        if profile.mode == "sinusoid" and profile.omega <= 0:
            profile = replace(profile, omega=2 * math.pi / params.tau)
        sim = manifest.sim_config()
        brn = perturb_rates(translation.brn, profile, t_end=sim.t_end)
        if manifest.initial_mode == "exact":
            x0 = translation.initial
        else:
            x0 = perturb_initial(translation.initial, params.epsilon,
                                 mode=manifest.initial_mode, seed=manifest.seed)
    return _Setup(manifest, translation, sig_spec, signal, brn, x0, sim)


def _run_all(manifests: Sequence[RunManifest]) -> list[RunResult]:
    """Run manifests with one ``integrate`` call, so that their word tries integrate together."""
    setups = [_setup(m) for m in manifests]
    with _stage("integrate"):
        traces = integrate([s.brn for s in setups], [s.x0 for s in setups],
                           [s.signal for s in setups], [s.sim for s in setups])
    return [_verify(s, trace) for s, trace in zip(setups, traces)]


def _verify(setup: _Setup, trace: Trace) -> RunResult:
    """Decide, check and report one integrated run."""
    manifest, sig_spec, x0 = setup.manifest, setup.sig_spec, setup.x0
    params = manifest.params
    nfa = manifest.nfa
    n = len(manifest.word)
    tau = params.tau
    with _stage("decide"):
        decision = decide(trace, nfa, sig_spec, manifest.scheme)

    target = extended_transition(nfa, nfa.initial, manifest.word)
    oracle_accepts = accepts(nfa, manifest.word)
    expected = {q: ("in-set" if q in target else "not-in-set") for q in nfa.states}
    verdicts_match = decision.verdicts == expected

    phi = []
    for k in range(n + 1):
        prefix = manifest.word[:k]
        phi.append({
            "prefix": list(prefix),
            "t": 3 * k * tau,
            "holds": bool(check_phi(trace, nfa, prefix, params.gamma, tau)),
        })
    phi_all = all(entry["holds"] for entry in phi)

    # margins against the worst admissible observation over the whole
    # maintenance window [ (3n+1) tau, t_end ]
    t0 = sig_spec.decision_time
    window = trace.times >= t0 - 1e-12
    high_margin = math.inf
    low_margin = math.inf
    for q in nfa.states:
        col = trace.column(state_species_name(q))[window]
        if q in target:
            high_margin = min(high_margin, float(np.min(col) - (HIGH_THRESHOLD + params.eta)))
        else:
            low_margin = min(low_margin, float((LOW_THRESHOLD - params.eta) - np.max(col)))
    maintenance_ok = (high_margin == math.inf or high_margin > 0) and \
                     (low_margin == math.inf or low_margin > 0)

    pairs = [(state_species_name(q), dual_state_species_name(q)) for q in nfa.states]
    pairs += [(portal_species_name(q), dual_portal_species_name(q)) for q in nfa.states]
    dev, totals = conservation_deviation(trace, x0, pairs)
    totals_ok = all(1 - params.epsilon - 1e-12 <= c0 <= 1 + 2 * params.epsilon + 1e-12
                    for c0 in totals.values())

    # the encoder's signal is piecewise linear between the corners and thirds
    # that validate's grid always holds, so checking that grid alone is exact
    signal_report = validate(setup.signal, sig_spec, samples_per_phase=1)

    verified = (verdicts_match and not decision.undetermined and phi_all
                and maintenance_ok and signal_report.admissible)
    report = {
        "manifest": manifest.to_json_dict(),
        "constraints": check_constraints(params).to_json_dict(),
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
            "window": [t0, trace.t_end],
            "high_margin": None if high_margin == math.inf else high_margin,
            "low_margin": None if low_margin == math.inf else low_margin,
            "ok": maintenance_ok,
        },
        "conservation": {
            "max_deviation": dev,
            "totals": totals,
            "band_ok": totals_ok,
        },
        "signal_admissible": signal_report.admissible,
        "verified": verified,
    }

    if manifest.out_dir:
        out = Path(manifest.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
        with open(out / "trace.csv", "w", newline="") as fh:
            trace.write_csv(fh)

    return RunResult(manifest=manifest, translation=setup.translation, trace=trace,
                     decision=decision, report=report)


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


def _packs(sizes: Sequence[int]) -> list[list[int]]:
    """Groups of the given sizes placed in packs no larger than the largest group.

    Largest first, each group goes into the first pack it fits in; returns
    each pack's group indices, in the order they were placed.
    """
    budget = max(sizes, default=0)
    packs: list[list[int]] = []
    loads: list[int] = []
    for g in sorted(range(len(sizes)), key=lambda g: -sizes[g]):
        p = next((p for p, load in enumerate(loads) if load + sizes[g] <= budget), len(packs))
        if p == len(packs):
            packs.append([])
            loads.append(0)
        packs[p].append(g)
        loads[p] += sizes[g]
    return packs


def _run_reports(manifests: Sequence[RunManifest]) -> list[dict]:
    """Reports of manifests in their order, one ``_run_all`` per pack of groups.

    A group is a stretch of manifests that differ only in their word; its
    size is its runs times its network's free species.  Groups are packed
    into batches no larger than the largest group (see ``_packs``), so a
    pack holds about the memory that group alone does, and the runs of a
    pack integrate together, across their networks.
    """
    groups = [list(group) for _, group in groupby(manifests, key=lambda m: replace(m, word=()))]
    reports: list[list[dict]] = [[] for _ in groups]
    for pack in _packs([len(group) * 4 * group[0].nfa.num_states for group in groups]):
        # keep the reports alone, so a pack's traces are freed before the next pack runs
        packed = iter([result.report for result in _run_all([m for g in pack for m in groups[g]])])
        for g in pack:
            reports[g] = [next(packed) for _ in groups[g]]
    return [report for group in reports for report in group]


def corpus_reports(manifests: Iterable[RunManifest], processes: int | None = None) -> list[dict]:
    """Run many manifests, optionally across a worker pool; reports come back in input order.

    Manifests that differ only in their word form a group.  Groups are
    packed into batches no larger than the largest group, and each pack is
    integrated in one ``integrate`` call: every group's word trie level by
    level, every distinct symbol block once, the levels of all the pack's
    networks in one batch (see ``simulate.integrate``).  The manifests are
    ordered by group, in input order within a group, so each group is
    contiguous; a pool gives each worker one contiguous slice of that order
    to pack.  Every report is the one ``run_end_to_end`` gives for its
    manifest alone.
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
