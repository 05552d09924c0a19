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
    "SampledSignal",
    "Violation",
    "AdmissibilityReport",
    "encode",
    "validate",
    "phase_role",
]


@dataclass(frozen=True)
class SignalSpec:
    """Word, tolerance, phase duration, and waveform family of an input signal."""

    word: tuple[str, ...]
    epsilon: float
    tau: float
    shape: str = "trapezoid"

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))
        if not 0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 1/2)")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if self.shape != "trapezoid":
            raise ValueError(f"unknown waveform shape {self.shape!r}")

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def num_phases(self) -> int:
        return 3 * len(self.word)

    @property
    def input_duration(self) -> float:
        return self.num_phases * self.tau

    @property
    def decision_time(self) -> float:
        return (self.num_phases + 1) * self.tau

    def to_json_dict(self) -> dict:
        return {
            "word": list(self.word),
            "epsilon": self.epsilon,
            "tau": self.tau,
            "shape": self.shape,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SignalSpec":
        return cls(tuple(data["word"]), data["epsilon"], data["tau"], data.get("shape", "trapezoid"))


def phase_role(k: int, word_length: int) -> str:
    """Role of phase k: 'reset', 'symbol', 'copy', or 'silent'."""
    if k >= 3 * word_length:
        return "silent"
    return ("reset", "symbol", "copy")[k % 3]


def _trapezoid(local: np.ndarray) -> np.ndarray:
    # unit trapezoid on [0,1): ramp up over the first third, hold 1, ramp down
    return np.clip(np.minimum(3.0 * local, 3.0 * (1.0 - local)), 0.0, 1.0)


class InputSignal:
    """Closed-form trapezoidal encoding of a word; pure and immutable.

    Each species ramps 0 to 1 over the first third of each phase where it is
    present, holds 1 over the middle third, and ramps back down.  Unknown
    species evaluate to zero.
    """

    def __init__(self, spec: SignalSpec, present_phases: Mapping[str, tuple[int, ...]]):
        self.spec = spec
        self._phases = {name: frozenset(ph) for name, ph in present_phases.items()}
        # per species, whether it is present in phase k; the last entry is
        # False and stands for every phase outside the table
        self._present = {}
        for name, ph in self._phases.items():
            table = np.zeros(max(ph, default=-1) + 2, dtype=bool)
            table[[k for k in ph if k >= 0]] = True
            self._present[name] = table

    def input_species(self) -> tuple[str, ...]:
        return tuple(self._phases)

    def concentration(self, name: str, t):
        t_arr = np.asarray(t, dtype=float)
        out = np.zeros_like(t_arr)
        if self._phases.get(name):
            tau = self.spec.tau
            k = np.floor_divide(t_arr, tau).astype(int)
            present = self._present[name]
            on = present[np.minimum(np.maximum(k, -1), len(present) - 1)] & (t_arr >= 0)
            if on.any():
                local = t_arr[on] / tau - k[on]
                out[on] = _trapezoid(local)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def scalar_evaluator(self, name: str):
        """Plain-float evaluator for one species (hot path for integrators)."""
        phases = self._phases.get(name)
        tau = self.spec.tau
        if not phases:
            return lambda t: 0.0

        def value(t: float, tau: float = tau, ph: frozenset = phases) -> float:
            if t < 0.0:
                return 0.0
            k = int(t // tau)
            if k not in ph:
                return 0.0
            local = t / tau - k
            v = min(3.0 * local, 3.0 * (1.0 - local), 1.0)
            return v if v > 0.0 else 0.0

        return value

    def critical_times(self) -> np.ndarray:
        """Corner points of the waveforms (includes all analytic extrema)."""
        tau = self.spec.tau
        pts = set()
        for phases in self._phases.values():
            for k in phases:
                pts.update((k * tau, k * tau + tau / 3, k * tau + 2 * tau / 3, (k + 1) * tau))
        return np.array(sorted(pts))

    def sample(self, times) -> dict[str, np.ndarray]:
        times = np.asarray(times, dtype=float)
        return {name: self.concentration(name, times) for name in self._phases}

    def write_csv(self, fileobj, times) -> None:
        times = np.asarray(times, dtype=float)
        names = list(self._phases)
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
    """Build the trapezoidal encoding of a word.

    The empty word yields an identically-zero (vacuously admissible) signal
    with no declared species beyond the reset/copy pair.
    """
    phases: dict[str, list[int]] = {RESET_SPECIES: [], COPY_SPECIES: []}
    for i, a in enumerate(spec.word):
        phases[RESET_SPECIES].append(3 * i)
        phases.setdefault(input_species_name(a), []).append(3 * i + 1)
        phases[COPY_SPECIES].append(3 * i + 2)
    return InputSignal(spec, {n: tuple(p) for n, p in phases.items()})


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


class SampledSignal:
    """Signal reloaded from a sampled table; linear interpolation between rows."""

    def __init__(self, times: Sequence[float], columns: Mapping[str, Sequence[float]]):
        self.times = np.asarray(times, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        self.columns = {n: np.asarray(v, dtype=float) for n, v in columns.items()}

    @classmethod
    def from_csv(cls, fileobj) -> "SampledSignal":
        reader = csv.reader(fileobj)
        header = next(reader)
        if not header or header[0] != "t":
            raise ValueError("signal CSV must start with a 't' column")
        rows = [[float(v) for v in row] for row in reader if row]
        data = np.asarray(rows)
        return cls(data[:, 0], {n: data[:, j + 1] for j, n in enumerate(header[1:])})

    def input_species(self) -> tuple[str, ...]:
        return tuple(self.columns)

    def concentration(self, name: str, t):
        col = self.columns.get(name)
        t_arr = np.asarray(t, dtype=float)
        if col is None:
            out = np.zeros_like(t_arr)
        else:
            out = np.interp(t_arr, self.times, col, left=0.0, right=0.0)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def critical_times(self) -> np.ndarray:
        return self.times


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


def _scheduled(k: int, spec: SignalSpec) -> tuple[int, str]:
    """The condition that requires a species in input phase k, and that species."""
    i, role = divmod(k, 3)
    if role == 1:
        return 6, input_species_name(spec.word[i])
    return (5, RESET_SPECIES) if role == 0 else (7, COPY_SPECIES)


def _phase_violations(signal, spec: SignalSpec, names: Sequence[str], k: int,
                      grid: np.ndarray, mid: np.ndarray) -> list[Violation]:
    """The violations of phase k, sampled on its grid (``mid``: the middle third)."""
    eps, tau = spec.epsilon, spec.tau
    t0, t1 = k * tau, (k + 1) * tau
    violations: list[Violation] = []
    peaks: list[tuple[str, float, float]] = []  # species present, time and value of its peak
    for name in names:
        vals = np.asarray(signal.concentration(name, grid), dtype=float)
        hi = int(np.argmax(vals))
        if vals[hi] >= 1 + eps:
            violations.append(Violation(1, k, name, float(grid[hi]), float(vals[hi])))
        if vals[0] >= eps:
            violations.append(Violation(2, k, name, float(t0), float(vals[0])))
        if k == 3 * spec.length and vals[-1] >= eps:
            violations.append(Violation(2, k + 1, name, float(t1), float(vals[-1])))
        if vals[hi] >= eps:
            peaks.append((name, float(grid[hi]), float(vals[hi])))
            lo = int(np.argmin(np.where(mid, vals, np.inf)))
            if vals[lo] <= 1 - eps:
                violations.append(Violation(4, k, name, float(grid[lo]), float(vals[lo])))
    for name, t_peak, v_peak in peaks[1:]:
        violations.append(Violation(3, k, name, t_peak, v_peak))
    if k < 3 * spec.length:
        cond, needed = _scheduled(k, spec)
        if needed not in [name for name, _, _ in peaks]:
            violations.append(Violation(cond, k, needed, float(t0 + tau / 2),
                                        float(signal.concentration(needed, t0 + tau / 2))))
    else:
        for name, _, v_peak in peaks:
            violations.append(Violation(8, k, name, float(t0 + tau / 2), v_peak))
    return violations


def validate(signal, spec: SignalSpec, *, species: Iterable[str] | None = None,
             samples_per_phase: int = 1000) -> AdmissibilityReport:
    """Check the eight admissibility conditions by dense sampling.

    The grid per phase is ``samples_per_phase`` uniform points plus the phase
    and third boundaries plus any signal-declared critical times, so
    closed-form waveform extrema are always sampled exactly.  All phase grids
    are built at once and each species is evaluated once over all of them;
    per-phase extrema come from one reduction, and only the phases that
    fail are sampled again to name their violations.  Violations are report
    content, not errors.
    """
    eps, tau, n = spec.epsilon, spec.tau, spec.length
    if species is None:
        species = signal.input_species()
    names = list(dict.fromkeys([*species, RESET_SPECIES, COPY_SPECIES]))
    row = {name: j for j, name in enumerate(names)}
    critical = np.asarray(signal.critical_times(), dtype=float) if hasattr(signal, "critical_times") else np.array([])
    last_phase = 3 * n  # one silent phase is checked for condition (8)

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
    mid = ((rows >= (t0 + tau / 3)[:, None]) & (rows <= (t0 + 2 * tau / 3)[:, None]))[keep]
    bounds = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    starts = bounds[:-1]
    mid_starts = np.searchsorted(np.flatnonzero(mid), starts)  # every phase has its thirds in mid
    del rows, keep

    # per species and phase: the peak, the lowest middle-third value, and the value at the start
    peak, mid_low, first = (np.empty((len(names), last_phase + 1)) for _ in range(3))
    end = np.empty(len(names))
    for j, name in enumerate(names):
        vals = np.asarray(signal.concentration(name, grid), dtype=float)
        peak[j] = np.maximum.reduceat(vals, starts)
        mid_low[j] = np.minimum.reduceat(vals[mid], mid_starts)
        first[j] = vals[starts]
        end[j] = vals[-1]
    present = peak >= eps
    failing = ((peak >= 1 + eps) | (first >= eps) | (present & (mid_low <= 1 - eps))).any(axis=0)
    failing |= present.sum(axis=0) > 1
    failing[last_phase] |= present[:, last_phase].any() or (end >= eps).any()
    for p in range(last_phase):
        needed = _scheduled(p, spec)[1]
        failing[p] |= needed not in row or not present[row[needed], p]

    violations: list[Violation] = []
    for p in np.flatnonzero(failing).tolist():
        violations += _phase_violations(signal, spec, names, p, grid[bounds[p]:bounds[p + 1]],
                                        mid[bounds[p]:bounds[p + 1]])

    return AdmissibilityReport(
        admissible=not violations,
        violations=violations,
        phases_checked=last_phase + 1,
        samples_per_phase=samples_per_phase,
    )
