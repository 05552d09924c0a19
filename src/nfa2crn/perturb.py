"""Adversarial perturbations: rate constants, initial state, and observation.

The rate adversary replaces each constant k by a continuous k*(t) confined to
the band |k*(t) - k| <= delta and strictly positive; the initial-state
adversary moves every concentration by less than eps in max-norm; the
observation adversary reports values within eta of the truth, optionally
steered toward the nearest decision threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .analysis import HIGH_THRESHOLD, LOW_THRESHOLD
from .brn import (
    Brn,
    ConcState,
    OffsetRate,
    PiecewiseLinearRate,
    Reaction,
    SinusoidRate,
)

__all__ = [
    "ADVERSARY_MODES",
    "OBSERVATION_MODES",
    "PerturbationProfile",
    "ObservationScheme",
    "perturb_rates",
    "perturb_initial",
    "observe",
]

ADVERSARY_MODES = ("none", "offset", "sinusoid", "piecewise")
OBSERVATION_MODES = ("none", "worst-case", "uniform")


@dataclass(frozen=True)
class PerturbationProfile:
    """Rate-constant adversary: mode, band width, and reproducibility seed.

    ``omega`` (sinusoid angular frequency) defaults to one oscillation per
    phase when built through the pipeline; per-reaction phases and piecewise
    offsets are drawn from the seed, so a profile is reproducible.
    """

    delta: float = 0.0
    mode: str = "none"
    omega: float = 0.0  # sinusoid frequency; <= 0 means resolve to one cycle per phase
    sign: float = 1.0
    seed: int = 0
    knots: int = 33

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.mode not in ADVERSARY_MODES:
            raise ValueError(f"unknown adversary mode {self.mode!r}")
        if abs(self.sign) != 1.0:
            raise ValueError("sign must be +1 or -1")
        if self.knots < 2:
            raise ValueError("piecewise adversary needs at least two knots")

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "mode": self.mode,
            "omega": self.omega,
            "sign": self.sign,
            "seed": self.seed,
            "knots": self.knots,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PerturbationProfile":
        return cls(**dict(data))


def perturb_rates(brn: Brn, profile: PerturbationProfile, *, t_end: float | None = None) -> Brn:
    """Replace each reaction's rate per the profile; stoichiometry is untouched.

    Requires delta below every nominal rate constant so the perturbed rates
    stay positive.  The piecewise adversary needs ``t_end`` to lay out its
    knot grid.
    """
    if profile.mode == "none" or profile.delta == 0.0:
        return brn
    delta = profile.delta
    k_min = min(r.rate.nominal for r in brn.reactions)
    if delta >= k_min:
        raise ValueError(f"delta={delta} >= smallest rate constant {k_min}; k*(t) could reach 0")
    rng = np.random.default_rng(profile.seed)
    new_reactions = []
    for rxn in brn.reactions:
        k = rxn.rate.nominal
        if profile.mode == "offset":
            rate = OffsetRate(k, profile.sign * delta)
        elif profile.mode == "sinusoid":
            if profile.omega <= 0:
                raise ValueError("sinusoid adversary needs a resolved omega > 0")
            rate = SinusoidRate(k, delta, profile.omega, phase=float(rng.uniform(0, 2 * math.pi)))
        else:
            if t_end is None:
                raise ValueError("piecewise adversary needs t_end to place its knots")
            times = np.linspace(0.0, float(t_end), profile.knots)
            offsets = rng.uniform(-delta, delta, size=profile.knots)
            rate = PiecewiseLinearRate(k, tuple(times), tuple(offsets))
        new_reactions.append(Reaction(rxn.reactants, rxn.products, rate))
    return Brn(brn.species, tuple(new_reactions))


def perturb_initial(x0: ConcState, epsilon: float, mode: str = "random",
                    seed: int = 0) -> ConcState:
    """Move every concentration by strictly less than ``epsilon`` (max-norm).

    ``random`` draws uniform offsets; ``worst-case-signed`` pushes each entry
    toward the wrong side of its nearest decision level (entries at or above
    1/2 go down, the rest go up).  Entries are clamped at zero, which can only
    shrink the distance.
    """
    if not 0 <= epsilon < 0.5:
        raise ValueError("epsilon must lie in [0, 1/2)")
    step = epsilon * (1.0 - 1e-9)
    if mode == "random":
        rng = np.random.default_rng(seed)
        offsets = rng.uniform(-step, step, size=len(x0.values))
    elif mode == "worst-case-signed":
        offsets = np.where(x0.values >= 0.5, -step, step)
    else:
        raise ValueError(f"unknown initial-perturbation mode {mode!r}")
    return ConcState(x0.names, np.maximum(x0.values + offsets, 0.0))


@dataclass(frozen=True)
class ObservationScheme:
    """Readout model: band width eta and how the adversary uses it."""

    eta: float = 0.0
    mode: str = "none"
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.eta < 0.5:
            raise ValueError("eta must lie in [0, 1/2)")
        if self.mode not in OBSERVATION_MODES:
            raise ValueError(f"unknown observation mode {self.mode!r}")

    def to_json_dict(self) -> dict:
        return {"eta": self.eta, "mode": self.mode, "seed": self.seed}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ObservationScheme":
        return cls(**dict(data))


def observe(values, scheme: ObservationScheme):
    """Apply the observation adversary to one value or an array of values.

    ``worst-case`` moves each reading by the full eta toward the nearer of
    the decision thresholds 1/3 and 2/3 (ties break downward), which is the
    most hostile admissible readout for threshold comparisons.  Results are
    clamped at zero; the band |observed - true| <= eta always holds.
    """
    arr = np.asarray(values, dtype=float)
    scalar = np.isscalar(values) or arr.ndim == 0
    if scheme.mode == "none" or scheme.eta == 0.0:
        out = arr.copy()
    elif scheme.mode == "uniform":
        rng = np.random.default_rng(scheme.seed)
        out = arr + rng.uniform(-scheme.eta, scheme.eta, size=arr.shape)
    else:
        toward_low = np.abs(arr - LOW_THRESHOLD) <= np.abs(arr - HIGH_THRESHOLD)
        target = np.where(toward_low, LOW_THRESHOLD, HIGH_THRESHOLD)
        out = arr + np.sign(target - arr) * scheme.eta
        out = np.where(target == arr, arr - scheme.eta, out)
    out = np.maximum(out, 0.0)
    shift = np.clip(out - arr, -scheme.eta, scheme.eta)
    out = arr + shift
    return float(out) if scalar else out
