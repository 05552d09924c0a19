"""Phased input signals and their admissibility validation.

A word of length n is delivered over 3n phases of duration tau: each symbol
occupies a reset/symbol/copy triple of phases, and after phase 3n the signal
is silent.  Admissibility bounds every input concentration below 1+eps at all
times, below eps at phase boundaries and on all non-present species, and
requires the one present species to exceed 1-eps across the middle third of
its phase.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .translate import COPY_SPECIES, RESET_SPECIES, input_species_name

__all__ = [
    "SignalSpec",
    "InputSignal",
    "MappingSignal",
    "Violation",
    "AdmissibilityReport",
    "encode",
    "validate",
    "phase_role",
]


@dataclass(frozen=True)
class SignalSpec:
    """Word, tolerance and phase duration of an input signal; its waveform is the trapezoid."""

    word: tuple[str, ...]
    epsilon: float
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))
        if not 0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 1/2)")
        if not self.tau > 0:
            raise ValueError("tau must be positive")

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def num_phases(self) -> int:
        return 3 * len(self.word)

    @property
    def decision_time(self) -> float:
        return (self.num_phases + 1) * self.tau

    def to_json_dict(self) -> dict:
        return {
            "word": list(self.word),
            "epsilon": self.epsilon,
            "tau": self.tau,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SignalSpec":
        if data.get("shape", "trapezoid") != "trapezoid":
            raise ValueError(f"unknown waveform shape {data['shape']!r}")
        return cls(tuple(data["word"]), data["epsilon"], data["tau"])


def phase_role(k: int, word_length: int) -> str:
    """Role of phase k: 'reset', 'symbol', 'copy', or 'silent'."""
    if k >= 3 * word_length:
        return "silent"
    return ("reset", "symbol", "copy")[k % 3]


def _scheduled(k: int, spec: SignalSpec) -> tuple[int, str]:
    """The condition that requires a species in input phase k, and that species."""
    i, role = divmod(k, 3)
    if role == 1:
        return 6, input_species_name(spec.word[i])
    return (5, RESET_SPECIES) if role == 0 else (7, COPY_SPECIES)


def _trapezoid(local: np.ndarray) -> np.ndarray:
    # unit trapezoid on [0,1): ramp up over the first third, hold 1, ramp down
    return np.clip(np.minimum(3.0 * local, 3.0 * (1.0 - local)), 0.0, 1.0)


class InputSignal:
    """Closed-form trapezoidal encoding of a word; pure and immutable.

    Phase k carries the one species ``_scheduled`` names for it: X_r, the
    symbol's species and X_c in turn.  That species ramps 0 to 1 over the
    first third of the phase, holds 1 over the middle third, and ramps back
    down; every other species is zero, and unknown species are zero
    throughout.
    """

    def __init__(self, spec: SignalSpec):
        self.spec = spec
        # per species, whether it is present in phase k; the last entry is
        # False and stands for every phase outside the table
        schedule = [_scheduled(k, spec)[1] for k in range(spec.num_phases)]
        self._present = {name: np.array([*(s == name for s in schedule), False])
                         for name in dict.fromkeys([RESET_SPECIES, COPY_SPECIES, *schedule])}

    def input_species(self) -> tuple[str, ...]:
        """X_r, X_c, then the symbols' species in order of first use."""
        return tuple(self._present)

    def concentration(self, name: str, t):
        """The species' level at t: a float for a scalar t, else an array."""
        present = self._present.get(name)
        tau = self.spec.tau
        t_arr = np.asarray(t, dtype=float)
        out = np.zeros_like(t_arr)
        if present is not None:
            k = np.floor_divide(t_arr, tau).astype(int)
            on = present[np.minimum(np.maximum(k, -1), len(present) - 1)] & (t_arr >= 0)
            if on.any():
                local = t_arr[on] / tau - k[on]
                out[on] = _trapezoid(local)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def critical_times(self) -> np.ndarray:
        """Corner points of the waveforms (includes all analytic extrema): every phase's ends and thirds."""
        tau = self.spec.tau
        return np.array(sorted({t for k in range(self.spec.num_phases)
                                for t in (k * tau, k * tau + tau / 3, k * tau + 2 * tau / 3, (k + 1) * tau)}))

    def write_csv(self, fileobj, times) -> None:
        times = np.asarray(times, dtype=float)
        names = list(self._present)
        cols = [self.concentration(n, times) for n in names]
        writer = csv.writer(fileobj)
        writer.writerow(["t", *names])
        for i, t in enumerate(times):
            writer.writerow([repr(float(t)), *(repr(float(c[i])) for c in cols)])

    def to_json_dict(self) -> dict:
        return self.spec.to_json_dict()

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "InputSignal":
        return encode(SignalSpec.from_json_dict(data))


def encode(spec: SignalSpec) -> InputSignal:
    """Build the trapezoidal encoding of a word: ``InputSignal(spec)``.

    The empty word yields an identically-zero (vacuously admissible) signal
    with no declared species beyond the reset/copy pair.
    """
    return InputSignal(spec)


class MappingSignal:
    """Signal defined by explicit per-species callables (test/validator fixture)."""

    def __init__(self, funcs: Mapping[str, Callable], critical: Sequence[float] = ()):
        self._funcs = dict(funcs)
        self._critical = np.asarray(sorted(critical), dtype=float)

    def input_species(self) -> tuple[str, ...]:
        return tuple(self._funcs)

    def concentration(self, name: str, t):
        f = self._funcs.get(name)
        t_arr = np.asarray(t, dtype=float)
        if f is None:
            out = np.zeros_like(t_arr)
        else:
            out = np.asarray(f(t_arr), dtype=float)
            out = np.broadcast_to(out, t_arr.shape).copy() if out.shape != t_arr.shape else out
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def critical_times(self) -> np.ndarray:
        return self._critical


@dataclass(frozen=True)
class Violation:
    condition: int
    phase: int
    species: str
    time: float
    value: float

    def __str__(self):
        return (
            f"condition ({self.condition}) violated in phase {self.phase} "
            f"by {self.species} at t={self.time:.6g} (value {self.value:.6g})"
        )


@dataclass
class AdmissibilityReport:
    admissible: bool
    violations: list[Violation]
    phases_checked: int
    samples_per_phase: int

    def conditions_violated(self) -> set[int]:
        return {v.condition for v in self.violations}

    def __str__(self):
        if self.admissible:
            return f"admissible ({self.phases_checked} phases checked)"
        lines = [f"NOT admissible ({len(self.violations)} violations):"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


def validate(signal, spec: SignalSpec, *, species: Iterable[str] | None = None,
             samples_per_phase: int = 1000) -> AdmissibilityReport:
    """Check the eight admissibility conditions by dense sampling.

    The grid per phase is ``samples_per_phase`` uniform points plus the phase
    and third boundaries plus any signal-declared critical times, so
    closed-form waveform extrema are always sampled exactly.  All phase grids
    are built at once and each species is evaluated once over all of them.
    Each condition is one mask over the per-(species, phase) reductions of
    that sweep, and the violations are named from the same arrays: the time
    of a peak or of a sag is looked up only in the phases that fail.
    Violations are report content, not errors.
    """
    eps, tau = spec.epsilon, spec.tau
    if species is None:
        species = signal.input_species()
    names = list(dict.fromkeys([*species, RESET_SPECIES, COPY_SPECIES]))
    critical = np.asarray(signal.critical_times(), dtype=float)
    last_phase = spec.num_phases  # one silent phase is checked for condition (8)

    # every phase's grid as one row: the uniform samples, the thirds and the
    # signal's corners inside the phase, padded with copies of the phase
    # start; sorted and flattened without repeats, phase k owns
    # grid[bounds[k]:bounds[k + 1]], from k tau to (k + 1) tau
    k = np.arange(last_phase + 1)
    t0, t1 = k * tau, (k + 1) * tau
    owner, c = np.nonzero((critical >= t0[:, None]) & (critical <= t1[:, None]))
    slot = np.arange(len(owner)) - np.searchsorted(owner, owner)  # a corner's place among its phase's
    extra = np.repeat(t0[:, None], 2 + (slot.max() + 1 if len(slot) else 0), axis=1)
    extra[:, 0], extra[:, 1] = t0 + tau / 3, t0 + 2 * tau / 3
    extra[owner, 2 + slot] = critical[c]
    rows = np.concatenate([np.linspace(t0, t1, samples_per_phase + 1, axis=1), extra], axis=1)
    rows.sort(axis=1)
    keep = np.ones(rows.shape, dtype=bool)
    keep[:, 1:] = rows[:, 1:] != rows[:, :-1]
    grid = rows[keep]
    mid = np.flatnonzero(((rows >= (t0 + tau / 3)[:, None]) & (rows <= (t0 + 2 * tau / 3)[:, None]))[keep])
    bounds = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    # phase k's middle third is mid[mid_bounds[k]:mid_bounds[k + 1]], never empty: it holds the thirds
    mid_bounds = np.searchsorted(mid, bounds)
    del rows, keep

    # per species and phase: the peak, the lowest middle-third value, the value at the start
    values = np.empty((len(names), len(grid)))
    for j, name in enumerate(names):
        values[j] = signal.concentration(name, grid)
    peak = np.maximum.reduceat(values, bounds[:-1], axis=1)
    mid_low = np.minimum.reduceat(values[:, mid], mid_bounds[:-1], axis=1)
    first = values[:, bounds[:-1]]

    present = peak >= eps
    high = peak >= 1 + eps                                    # (1)
    raised = first >= eps                                     # (2) at the phase start
    late = values[:, -1] >= eps                               # (2) at the end of the last phase
    crowded = present & (np.cumsum(present, axis=0) > 1)      # (3) each present species after the first
    sags = present & (mid_low <= 1 - eps)                     # (4)
    schedule = [_scheduled(p, spec) for p in range(last_phase)]
    missing = np.array([needed not in names or not present[names.index(needed), p]
                        for p, (_, needed) in enumerate(schedule)] + [False])  # (5)-(7)
    stray = present[:, last_phase]                            # (8)
    failing = (high | raised | crowded | sags).any(axis=0) | missing
    failing[last_phase] |= late.any() or stray.any()

    def time_of(pick, j: int, cells: np.ndarray) -> float:
        """The grid time at which ``pick`` (argmax or argmin) finds species j's value among the cells."""
        return float(grid[cells[pick(values[j, cells])]])

    violations: list[Violation] = []
    for p in np.flatnonzero(failing).tolist():
        start, cells = p * tau, np.arange(bounds[p], bounds[p + 1])
        mid_cells = mid[mid_bounds[p]:mid_bounds[p + 1]]
        for j, name in enumerate(names):
            if high[j, p]:
                violations.append(Violation(1, p, name, time_of(np.argmax, j, cells), float(peak[j, p])))
            if raised[j, p]:
                violations.append(Violation(2, p, name, float(start), float(first[j, p])))
            if p == last_phase and late[j]:
                violations.append(Violation(2, p + 1, name, float((p + 1) * tau), float(values[j, -1])))
            if sags[j, p]:
                violations.append(Violation(4, p, name, time_of(np.argmin, j, mid_cells),
                                            float(mid_low[j, p])))
        for j in np.flatnonzero(crowded[:, p]).tolist():
            violations.append(Violation(3, p, names[j], time_of(np.argmax, j, cells), float(peak[j, p])))
        if missing[p]:
            cond, needed = schedule[p]
            violations.append(Violation(cond, p, needed, float(start + tau / 2),
                                        float(signal.concentration(needed, start + tau / 2))))
        if p == last_phase:
            for j in np.flatnonzero(stray).tolist():
                violations.append(Violation(8, p, names[j], float(start + tau / 2), float(peak[j, p])))

    return AdmissibilityReport(
        admissible=not violations,
        violations=violations,
        phases_checked=last_phase + 1,
        samples_per_phase=samples_per_phase,
    )
