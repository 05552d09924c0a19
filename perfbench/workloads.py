"""Workloads of the nfa2crn benchmark and the oracle that checks their runs.

Each workload is built from the workload seed alone.  Building one is the
set-up the benchmark times: parse the automata, plan parameters once per
distinct transition count ``d``, and build the run manifests.  A workload is
a list of units; a unit is one call into the program, either
``corpus_reports`` over many manifests or ``run_end_to_end`` on one.

Why these three (each stresses some modules and leaves others idle):

* ``example-exact``: every word of length <= 4 over the second-to-last-one
  automaton, unperturbed.  One network, constant rates, and symbol blocks that
  are heavily shared between words, so batching, prefix sharing and the drift
  kernel show here and the planner does not.
* ``random-perturbed``: the manifests ``nfa2crn verify-corpus --perturbed``
  builds (example automaton plus random automata, words of length <= 3,
  sinusoid rates, worst-case readout and initial state), with the random
  automata drawn by ``random_nfa`` until there is one of every size, so that
  the corpus costs about the same for every seed.  Many networks and
  several ``d`` values, so the planner moves set-up time; rates vary with time
  and sharing is possible only within one automaton.
* ``long-word-piecewise``: single ``run_end_to_end`` calls as ``nfa2crn run
  --out`` makes them, on random 12-symbol words over a fourth-from-last-one
  automaton (d = 9) under the piecewise adversary with random initial states.
  Words share few prefixes, so batching is bypassed; it measures latency, long
  horizons and the piecewise rate path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nfa2crn import analysis, nfa as nfa_mod
from nfa2crn.perturb import ObservationScheme, PerturbationProfile
from nfa2crn.pipeline import EXAMPLE_NFA_TEXT, RunManifest, all_words, random_nfa

# planning bands of `nfa2crn verify-corpus`
CORPUS_PLAN = dict(epsilon=1e-5, eta=0.05, delta=1e-3)
# planning bands and tolerances of `nfa2crn run`
RUN_PLAN = dict(epsilon=1e-4, eta=0.05, delta=1e-3)
RUN_TOLERANCES = dict(rel_tol=1e-7, abs_tol=1e-10)

EXAMPLE_NFA_PATH = Path("tests") / "data" / "second_to_last_one.nfa"
EXACT_MAX_WORD_LEN = 4
# beside the example, one random automaton of every size up to these, so
# that every seed runs the same mix of network sizes
PERTURBED_MAX_STATES = 4
PERTURBED_MAX_SYMBOLS = 2
PERTURBED_MAX_WORD_LEN = 3
LONG_WORD_LEN = 12
LONG_WORDS_PER_PASS = 3

# accepts binary words whose fourth-from-last symbol is 1
FOURTH_FROM_LAST_ONE = """\
states: A0 A1 A2 A3 A4
alphabet: 0 1
initial: A0
accepting: A4
trans: A0 0 A0
trans: A0 1 A0
trans: A0 1 A1
""" + "".join(f"trans: A{i} {x} A{i + 1}\n" for i in (1, 2, 3) for x in "01")


@dataclass
class Unit:
    """One call into the program: ``corpus_reports`` or one ``run_end_to_end``."""

    manifests: list[RunManifest]
    single: bool = False


@dataclass
class Workload:
    units: list[Unit]

    @property
    def manifests(self) -> list[RunManifest]:
        return [m for u in self.units for m in u.manifests]


class _Planner:
    """Plans once per distinct ``d``, as ``verify-corpus`` does."""

    def __init__(self, bands: dict):
        self.bands = bands
        self.plans: dict[int, analysis.ParameterSet] = {}

    def __call__(self, d: int) -> analysis.ParameterSet:
        if d not in self.plans:
            result = analysis.plan_parameters(d, **self.bands)
            if not result.feasible:
                raise RuntimeError(f"planning failed for d={d}: {result.message}")
            self.plans[d] = result.params
        return self.plans[d]


def example_exact(seed: int, root: Path, out_dir: Path) -> Workload:
    nfa = nfa_mod.load_nfa(root / EXAMPLE_NFA_PATH)
    plan = _Planner(CORPUS_PLAN)
    params = plan(nfa.num_transitions)
    words = all_words(nfa.alphabet, EXACT_MAX_WORD_LEN)
    # the seed only orders the corpus; every word is run each pass
    order = np.random.default_rng(seed).permutation(len(words))
    manifests = [RunManifest(nfa=nfa, word=words[i], params=params) for i in order]
    return Workload([Unit(manifests)])


def random_perturbed(seed: int, root: Path, out_dir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    by_size: dict[tuple[int, int], nfa_mod.Nfa] = {}
    while len(by_size) < PERTURBED_MAX_STATES * PERTURBED_MAX_SYMBOLS:
        nfa = random_nfa(rng, PERTURBED_MAX_STATES, PERTURBED_MAX_SYMBOLS)
        by_size.setdefault((nfa.num_states, nfa.num_symbols), nfa)
    nfas = [nfa_mod.parse_nfa(EXAMPLE_NFA_TEXT)] + [by_size[k] for k in sorted(by_size)]
    plan = _Planner(CORPUS_PLAN)
    manifests = []
    for i, nfa in enumerate(nfas):
        params = plan(nfa.num_transitions)
        profile = PerturbationProfile(delta=params.delta, mode="sinusoid",
                                      omega=2 * math.pi / params.tau, seed=seed + i)
        scheme = ObservationScheme(eta=params.eta, mode="worst-case")
        for word in all_words(nfa.alphabet, PERTURBED_MAX_WORD_LEN):
            manifests.append(RunManifest(nfa=nfa, word=word, params=params, profile=profile,
                                         scheme=scheme, initial_mode="worst-case-signed",
                                         seed=seed + i))
    return Workload([Unit(manifests)])


def long_word_piecewise(seed: int, root: Path, out_dir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    nfa = nfa_mod.parse_nfa(FOURTH_FROM_LAST_ONE)
    plan = _Planner(RUN_PLAN)
    params = plan(nfa.num_transitions)
    units = []
    for k in range(LONG_WORDS_PER_PASS):
        word = tuple(str(b) for b in rng.integers(0, 2, LONG_WORD_LEN))
        run_seed = int(rng.integers(0, 2**31))
        profile = PerturbationProfile(delta=params.delta, mode="piecewise",
                                      omega=2 * math.pi / params.tau, seed=run_seed)
        scheme = ObservationScheme(eta=params.eta, mode="worst-case", seed=run_seed)
        units.append(Unit([RunManifest(
            nfa=nfa, word=word, params=params, profile=profile, scheme=scheme,
            initial_mode="random", seed=run_seed, out_dir=str(out_dir / f"run{k}"),
            **RUN_TOLERANCES,
        )], single=True))
    return Workload(units)


WORKLOADS = {
    "example-exact": example_exact,
    "random-perturbed": random_perturbed,
    "long-word-piecewise": long_word_piecewise,
}


def properties(workload: Workload) -> dict:
    """The input properties the workloads were chosen for, measured on the inputs."""
    manifests = workload.manifests
    blocks, distinct = 0, set()
    for m in manifests:
        # a symbol block can be shared only between runs whose trajectory up
        # to it is the same: same network, rate adversary and initial state
        start = m.seed if m.initial_mode == "random" else None
        for k in range(1, len(m.word) + 1):
            blocks += 1
            distinct.add((m.nfa, m.params, m.profile, m.initial_mode, start, m.word[:k]))
    modes = sorted({m.profile.mode for m in manifests})
    return {
        "runs_per_pass": len(manifests),
        "automata": len({m.nfa for m in manifests}),
        "distinct_d": sorted({m.nfa.num_transitions for m in manifests}),
        "phases_per_run": round(float(np.mean(
            [m.sim_config().t_end / m.params.tau for m in manifests])), 3),
        "symbol_blocks": blocks,
        "distinct_blocks": len(distinct),
        "repeated_block_share": round(1 - len(distinct) / blocks, 4) if blocks else 0.0,
        "rates": "constant" if modes == ["none"] else "time-varying (" + ", ".join(modes) + ")",
    }


def oracle_failure(manifest: RunManifest, report: dict | None) -> str | None:
    """Why a run is wrong, judged against the set automaton; None if it is right.

    Compares the verdicts, the acceptance call and ``phi_all``, not report
    bytes, so a change that moves trajectories by rounding stays measurable.
    """
    if report is None:
        return "raised"
    nfa, word = manifest.nfa, manifest.word
    reach = nfa_mod.extended_transition(nfa, nfa.initial, word)
    expected = {q: ("in-set" if q in reach else "not-in-set") for q in nfa.states}
    decision = report["decision"]
    if decision["verdicts"] != expected:
        return f"verdicts {decision['verdicts']} != oracle {expected}"
    accept = nfa_mod.accepts(nfa, word)
    if decision["accept"] is not accept:
        return f"accept {decision['accept']!r} != oracle {accept}"
    if report["phi_all"] is not True:
        return "block-boundary levels (phi) fail"
    if report["verified"] is not True:
        return "report not verified"
    return None
