"""Closed-form dynamics, phase bounds, constraint checking, and planning.

Two one-dimensional cubic systems govern the majority dynamics of each state
species: a "decay" variant (loss term -c*u) whose basin above the unstable
equilibrium restores high values, and a "growth" variant (gain term +c*ub)
whose lower basin restores low values.  Their equilibria and exact travel
times between levels, together with linear-drive bounds for the reset,
compute, and copy phases, combine into an inequality system over
(epsilon, eta, delta, tau, gamma, gamma*, k1..k4).  That system is written
once, as a lazy walk over its inequalities in report order: the checker
records every entry with its intermediates, and the planner screens each
point of a fixed grid with the same walk, stopping at the point's first
failing inequality, to find a feasible, comfortably slack point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = [
    "AmParams",
    "EquilibriumSet",
    "ParameterSet",
    "PhaseBound",
    "ConstraintCheck",
    "ConstraintReport",
    "PlanResult",
    "PHASES",
    "HIGH_THRESHOLD",
    "LOW_THRESHOLD",
    "am_drift_coefficients",
    "am_drift",
    "am_equilibria",
    "am_travel_time",
    "copy_solution",
    "copy_upper_bound",
    "copy_lower_bound",
    "phase_bounds",
    "check_constraints",
    "plan_parameters",
]

VARIANTS = ("decay", "growth")
PHASES = ("reset", "compute-high", "compute-low", "copy-high", "copy-low", "am-high", "am-low")
COPY_RATE_CHOICES = ("actual", "printed")
# the readout: a state is in the set above the upper threshold, out below the lower
HIGH_THRESHOLD = 2.0 / 3.0
LOW_THRESHOLD = 1.0 / 3.0


@dataclass(frozen=True)
class AmParams:
    """Coefficients of the cubic majority drift: strengths a, b, leak c, total p."""

    a: float
    b: float
    c: float
    p: float

    def __post_init__(self):
        for name in ("a", "b", "c", "p"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


def am_drift_coefficients(params: AmParams, variant: str) -> np.ndarray:
    """Cubic polynomial coefficients (descending powers) of du/dt.

    Both variants share the cubic part; the growth variant adds the constant
    c*p, i.e. growth-drift(u) = decay-drift(u) + c*p.
    """
    a, b, c, p = params.a, params.b, params.c, params.p
    const = c * p if variant == "growth" else 0.0
    return np.array([-(a + b), p * (a + 2 * b), -(b * p * p + c), const])


def am_drift(params: AmParams, variant: str, u) -> float | np.ndarray:
    """du/dt of the chosen variant at level(s) u."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return np.polyval(am_drift_coefficients(params, variant), u)


@dataclass(frozen=True)
class EquilibriumSet:
    """The three equilibria of one variant, ordered, with stability tags."""

    variant: str
    e1: float
    e2: float
    e3: float
    disc_root: float
    params: AmParams
    stability: tuple[str, str, str] = ("stable", "unstable", "stable")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.e1, self.e2, self.e3)

    def drift_derivative(self, u: float) -> float:
        coeffs = am_drift_coefficients(self.params, self.variant)
        return float(np.polyval(np.polyder(coeffs), u))


def am_equilibria(params: AmParams, variant: str) -> EquilibriumSet:
    """Equilibria of the chosen variant.

    decay:  0,  (p(a+2b)-A)/(2(a+b)),  (p(a+2b)+A)/(2(a+b)),  A = sqrt(p^2 a^2 - 4c(a+b))
    growth: (bp-A*)/(2(a+b)),  (bp+A*)/(2(a+b)),  p,          A* = sqrt(p^2 b^2 - 4c(a+b))

    Requires the discriminant condition c < p^2 a^2 / (4(a+b)) (decay) resp.
    c < p^2 b^2 / (4(a+b)) (growth); otherwise the outer equilibria merge and
    a ValueError is raised.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    a, b, c, p = params.a, params.b, params.c, params.p
    lead = p * a if variant == "decay" else p * b
    disc = lead * lead - 4 * c * (a + b)
    if disc <= 0:
        raise ValueError(
            f"discriminant condition violated for {variant}: need c < {lead * lead / (4 * (a + b)):.6g}, got c = {c:.6g}"
        )
    root = math.sqrt(disc)
    if variant == "decay":
        e1 = 0.0
        e2 = (p * (a + 2 * b) - root) / (2 * (a + b))
        e3 = (p * (a + 2 * b) + root) / (2 * (a + b))
    else:
        e1 = (b * p - root) / (2 * (a + b))
        e2 = (b * p + root) / (2 * (a + b))
        e3 = p
    return EquilibriumSet(variant, e1, e2, e3, root, params)


def am_travel_time(eq: EquilibriumSet, u1: float, u2: float) -> float:
    """Exact time for the majority drift to move from level u1 to level u2.

    decay: requires E3 > u2 >= u1 > E2 (upward travel in the high basin).
    growth: requires E1 < u2 <= u1 < E2 (downward travel in the low basin).
    Obtained by separating variables and integrating the partial-fraction
    expansion of 1/drift between the two levels.
    """
    A = eq.disc_root
    p = eq.params.p
    if eq.variant == "decay":
        if not (eq.e2 < u1 <= u2 < eq.e3):
            raise ValueError(f"need E2 < u1 <= u2 < E3, got E2={eq.e2:.6g}, u1={u1:.6g}, u2={u2:.6g}, E3={eq.e3:.6g}")
        if u1 == u2:
            return 0.0
        term3 = math.log(u2 * (eq.e3 - u1) / (u1 * (eq.e3 - u2))) / eq.e3
        term2 = math.log(u1 * (u2 - eq.e2) / (u2 * (u1 - eq.e2))) / eq.e2
        return (term3 + term2) / A
    if not (eq.e1 < u2 <= u1 < eq.e2):
        raise ValueError(f"need E1 < u2 <= u1 < E2, got E1={eq.e1:.6g}, u2={u2:.6g}, u1={u1:.6g}, E2={eq.e2:.6g}")
    if u1 == u2:
        return 0.0
    term1 = math.log((p - u2) * (u1 - eq.e1) / ((p - u1) * (u2 - eq.e1))) / (p - eq.e1)
    term2 = math.log((p - u1) * (eq.e2 - u2) / ((p - u2) * (eq.e2 - u1))) / (p - eq.e2)
    return (term1 + term2) / A


def copy_solution(u0: float, a: float, b: float, p: float, t: float) -> float:
    """Exact solution of the linear drive du/dt = a*(p-u) - b*u after time t."""
    if a < 0 or b < 0 or a + b == 0:
        raise ValueError("need a, b >= 0 with a + b > 0")
    if p <= 0:
        raise ValueError("p must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    decay = math.exp(-(a + b) * t)
    return u0 * decay + (a * p / (a + b)) * (1.0 - decay)


def copy_upper_bound(a: float, b: float, p: float, t: float) -> float:
    """Initial-condition-free upper bound p*(a/b + e^(-b t)); needs b > 0."""
    if b <= 0:
        raise ValueError("upper bound needs b > 0")
    return p * (a / b + math.exp(-b * t))


def copy_lower_bound(a: float, b: float, p: float, t: float) -> float:
    """Initial-condition-free lower bound p - b/a - e^(-a t); needs a > 0.

    Valid whenever a*(p-1) <= b (in particular for p <= 1), which covers the
    regimes the phase bounds use it in.
    """
    if a <= 0:
        raise ValueError("lower bound needs a > 0")
    return p - b / a - math.exp(-a * t)


@dataclass(frozen=True)
class ParameterSet:
    """Everything the constraint system quantifies over.

    gamma is the level the state species must clear (resp. stay under) at
    block boundaries; gamma_star is the tighter level the majority dynamics
    restore within one phase.  d is the transition count of the automaton the
    set was planned for.
    """

    epsilon: float
    eta: float
    delta: float
    tau: float
    gamma: float
    gamma_star: float
    k1: float
    k2: float
    k3: float
    k4: float
    d: int

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        for name in ("k1", "k2", "k3", "k4"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.d < 0:
            raise ValueError("d must be nonnegative")

    @property
    def rates(self) -> dict[str, float]:
        return {"k1": self.k1, "k2": self.k2, "k3": self.k3, "k4": self.k4}

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "eta": self.eta,
            "delta": self.delta,
            "tau": self.tau,
            "gamma": self.gamma,
            "gamma_star": self.gamma_star,
            "k1": self.k1,
            "k2": self.k2,
            "k3": self.k3,
            "k4": self.k4,
            "d": self.d,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ParameterSet":
        return cls(**{k: (int(v) if k == "d" else float(v)) for k, v in data.items()})

    def dumps(self, **kwargs) -> str:
        kwargs.setdefault("indent", 2)
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_json_dict(), **kwargs)


def _conc_cap(params: ParameterSet, p_policy: str) -> float:
    # conserved totals lie in [1-eps, 1+2eps]; either band edge can bind
    if p_policy == "upper":
        return 1.0 + 2.0 * params.epsilon
    if p_policy == "lower":
        return 1.0 - params.epsilon
    raise ValueError(f"unknown p policy {p_policy!r}")


def _decay_declarations(params: ParameterSet, p: float) -> AmParams:
    return AmParams(a=params.k4 - params.delta, b=params.k4 + params.delta,
                    c=2 * params.epsilon * (params.k2 + params.delta), p=p)


def _growth_declarations(params: ParameterSet, p: float) -> AmParams:
    return AmParams(a=params.k4 + params.delta, b=params.k4 - params.delta,
                    c=2 * params.epsilon * (params.k2 + params.delta), p=p)


def _copy_pump_rate(params: ParameterSet, copy_rate: str) -> float:
    if copy_rate not in COPY_RATE_CHOICES:
        raise ValueError(f"copy_rate must be one of {COPY_RATE_CHOICES}")
    # "actual" uses the copy family's own constant k2; "printed" uses k3 as
    # the source text's copy-phase bounds do.
    return params.k2 if copy_rate == "actual" else params.k3


@dataclass(frozen=True)
class PhaseBound:
    """One phase bound evaluated at concrete parameters.

    ``value`` bounds ``observable`` from ``direction`` at time ``at`` within
    the phase; ``constants`` carries every intermediate so a simulated trace
    can be compared against the same quantities.
    """

    phase: str
    observable: str
    direction: str
    value: float
    at: str
    constants: dict[str, float]
    hypotheses: dict[str, bool]

    @property
    def hypotheses_ok(self) -> bool:
        return all(self.hypotheses.values())

    def holds_for(self, measured: float) -> bool:
        if self.direction == "upper":
            return measured <= self.value
        return measured >= self.value


def _reset_constants(params: ParameterSet) -> tuple[float, float]:
    a = 2 * params.d * (params.k1 + params.delta) * params.epsilon
    b = (params.k3 - params.delta) * (1 - params.epsilon)
    return a, b


def _reset_bound_value(params: ParameterSet) -> float:
    a, b = _reset_constants(params)
    if b <= 0:
        return math.inf
    return 2 * (a / b + math.exp(-b * params.tau / 3)) + a * params.tau


def _compute_high_constants(params: ParameterSet, y0: float) -> tuple[float, float]:
    alpha = (params.k1 - params.delta) * (1 - params.epsilon) * y0
    beta = (params.k3 + params.delta) * params.epsilon
    return alpha, beta


def _compute_high_bound_value(params: ParameterSet, y0: float) -> float:
    alpha, beta = _compute_high_constants(params, y0)
    if alpha <= 0:
        return -math.inf
    return (1 - params.epsilon - beta / alpha - math.exp(-alpha * params.tau / 3)
            - 2 * beta * params.tau)


def _copy_high_constants(params: ParameterSet, z0: float, copy_rate: str) -> tuple[float, float, float]:
    kc = _copy_pump_rate(params, copy_rate)
    eps, dl, tau = params.epsilon, params.delta, params.tau
    z_loss = 2 * eps * (params.k3 + dl) * tau
    alpha = (kc - dl) * (1 - eps) * (z0 - z_loss)
    beta = ((kc + dl) * (1 + 2 * eps) * (1 + 2 * eps + z_loss - z0)
            + 4 * (params.k4 + dl))
    return alpha, beta, z_loss


def _copy_high_bound_value(params: ParameterSet, z0: float, copy_rate: str) -> float:
    alpha, beta, _ = _copy_high_constants(params, z0, copy_rate)
    return (alpha / (alpha + beta)) * (1 - params.epsilon - math.exp(-(alpha + beta) * params.tau / 3))


def _copy_low_constants(params: ParameterSet, z0: float, copy_rate: str) -> tuple[float, float, float]:
    kc = _copy_pump_rate(params, copy_rate)
    eps, dl, tau = params.epsilon, params.delta, params.tau
    z_gain = 4 * params.d * (params.k1 + dl) * eps * tau
    alpha = (kc + dl) * (1 + 2 * eps) * (z0 + z_gain) + 4 * (params.k4 + dl)
    beta = (kc - dl) * (1 - eps) * (1 - eps - z0 - z_gain)
    return alpha, beta, z_gain


def _copy_low_bound_value(params: ParameterSet, z0: float, copy_rate: str) -> float:
    alpha, beta, _ = _copy_low_constants(params, z0, copy_rate)
    return (2.0 / (alpha + beta)) * (beta * math.exp(-(alpha + beta) * params.tau / 3) + alpha)


def phase_bounds(params: ParameterSet, phase: str, *, z0: float | None = None,
                 y0: float | None = None, p: float | None = None,
                 copy_rate: str = "actual") -> PhaseBound:
    """Evaluate one phase's guaranteed bound at the given parameters.

    Defaults chain the bounds exactly as the inductive argument does: the
    compute-high bound assumes sources restored to 1-gamma*, the copy-high
    bound takes the compute-high output as its z floor, and the copy-low
    bound takes the reset output as its z ceiling.  Pass explicit z0/y0 to
    evaluate a bound against a custom single-phase setup, or p to pin the
    conserved total (default is the worst admissible 1+2*eps).
    """
    if phase not in PHASES:
        raise ValueError(f"unknown phase {phase!r}; expected one of {PHASES}")
    eps, dl, tau = params.epsilon, params.delta, params.tau
    p_val = p if p is not None else 1 + 2 * eps

    if phase == "reset":
        a, b = _reset_constants(params)
        value = _reset_bound_value(params)
        return PhaseBound(
            phase, "z_q", "upper", value, "phase-end",
            {"a": a, "b": b, "p": p_val, "tau": tau},
            {"drain-positive": b > 0},
        )

    if phase == "compute-high":
        y0_val = y0 if y0 is not None else 1 - params.gamma_star
        alpha, beta = _compute_high_constants(params, y0_val)
        decl = _decay_declarations(params, p_val)
        try:
            e2 = am_equilibria(decl, "decay").e2
            source_holds = y0_val >= e2
        except ValueError:
            e2, source_holds = float("nan"), False
        value = _compute_high_bound_value(params, y0_val)
        return PhaseBound(
            phase, "z_q", "lower", value, "phase-end",
            {"alpha": alpha, "beta": beta, "y0": y0_val, "E2": e2, "p": p_val},
            {"pump-positive": alpha > 0, "source-stays-high": source_holds},
        )

    if phase == "compute-low":
        y0_val = y0 if y0 is not None else params.gamma_star
        z0_val = z0 if z0 is not None else _reset_bound_value(params)
        decl = _growth_declarations(params, p_val)
        try:
            e2 = am_equilibria(decl, "growth").e2
            source_holds = y0_val <= e2
        except ValueError:
            e2, source_holds = float("nan"), False
        value = z0_val + 4 * params.d * (params.k1 + dl) * y0_val * tau
        return PhaseBound(
            phase, "z_q", "upper", value, "phase-end",
            {"y0": y0_val, "z0": z0_val, "E2*": e2, "p": p_val},
            {"source-stays-low": source_holds},
        )

    if phase == "copy-high":
        z0_val = z0 if z0 is not None else _compute_high_bound_value(params, 1 - params.gamma_star)
        alpha, beta, z_loss = _copy_high_constants(params, z0_val, copy_rate)
        value = _copy_high_bound_value(params, z0_val, copy_rate)
        return PhaseBound(
            phase, "y_q", "lower", value, "two-thirds",
            {"alpha": alpha, "beta": beta, "z0": z0_val, "z_loss": z_loss, "p": p_val},
            {"pump-positive": alpha > 0},
        )

    if phase == "copy-low":
        z0_val = z0 if z0 is not None else _reset_bound_value(params)
        alpha, beta, z_gain = _copy_low_constants(params, z0_val, copy_rate)
        value = _copy_low_bound_value(params, z0_val, copy_rate)
        return PhaseBound(
            phase, "y_q", "upper", value, "two-thirds",
            {"alpha": alpha, "beta": beta, "z0": z0_val, "z_gain": z_gain, "p": p_val},
            {"drain-positive": beta > 0},
        )

    if phase == "am-high":
        decl = _decay_declarations(params, p_val)
        y1 = y0 if y0 is not None else 1 - params.gamma
        y2 = 1 - params.gamma_star
        eq = am_equilibria(decl, "decay")
        window = eq.e2 < y1 <= y2 < eq.e3
        travel = am_travel_time(eq, y1, y2) if window else float("inf")
        return PhaseBound(
            phase, "y_q", "lower", y2, "phase-end",
            {"y1": y1, "E2": eq.e2, "E3": eq.e3, "travel_time": travel, "p": p_val},
            {"window": window, "phase-long-enough": travel <= tau},
        )

    decl = _growth_declarations(params, p_val)
    y1 = y0 if y0 is not None else params.gamma
    y2 = params.gamma_star
    eq = am_equilibria(decl, "growth")
    window = eq.e1 < y2 <= y1 < eq.e2
    travel = am_travel_time(eq, y1, y2) if window else float("inf")
    return PhaseBound(
        "am-low", "y_q", "upper", y2, "phase-end",
        {"y1": y1, "E1*": eq.e1, "E2*": eq.e2, "travel_time": travel, "p": p_val},
        {"window": window, "phase-long-enough": travel <= tau},
    )


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    satisfied: bool
    slack: float
    description: str
    details: dict[str, float] = field(default_factory=dict)


@dataclass
class ConstraintReport:
    params: ParameterSet
    checks: list[ConstraintCheck]
    p_policy: str
    copy_rate: str

    @property
    def passed(self) -> bool:
        return all(c.satisfied for c in self.checks)

    @property
    def min_slack(self) -> float:
        return min((c.slack for c in self.checks), default=float("inf"))

    def binding(self) -> ConstraintCheck:
        return min(self.checks, key=lambda c: c.slack)

    def failing(self) -> list[ConstraintCheck]:
        return [c for c in self.checks if not c.satisfied]

    def table(self) -> str:
        width = max(len(c.name) for c in self.checks)
        lines = [f"{'constraint':<{width}}  status  slack"]
        for c in self.checks:
            status = "ok" if c.satisfied else "FAIL"
            lines.append(f"{c.name:<{width}}  {status:<6}  {c.slack:+.6g}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_json_dict(),
            "p_policy": self.p_policy,
            "copy_rate": self.copy_rate,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "satisfied": c.satisfied,
                    "slack": c.slack,
                    "description": c.description,
                    "details": c.details,
                }
                for c in self.checks
            ],
        }


def _checks(params: ParameterSet, p_policy: str, copy_rate: str):
    """The inequality system as one lazy walk, in report order.

    Yields ``(name, slack, description, strict, details)`` per inequality and
    receives that entry's verdict back.  An entry whose expression needs an
    earlier one to hold (rates and epsilon in range, a discriminant, a basin
    window, a positive copy pump or portal drain) is yielded as skipped, with
    slack -inf, when that verdict was false.  A caller that stops at the first
    failing entry evaluates nothing past it.
    """
    eps, eta, dl, tau = params.epsilon, params.eta, params.delta, params.tau
    gamma, gstar = params.gamma, params.gamma_star
    p = _conc_cap(params, p_policy)
    skipped = float("-inf")

    yield "epsilon-range", min(eps, 0.5 - eps), "0 < epsilon < 1/2", True, {}
    yield "eta-range", min(eta, 0.5 - eta), "0 < eta < 1/2", True, {}
    rates_ok = yield ("rates-exceed-delta", min(params.k1, params.k2, params.k3, params.k4) - dl,
                      "every rate constant exceeds delta", True, {})
    yield "gamma-range", 0.5 - gamma, "gamma < 1/2", True, {}
    yield "base-case", gamma - eps, "gamma >= epsilon (initial levels within gamma)", False, {}
    yield ("gamma-star-window", min(gstar - eps, gamma - gstar),
           "epsilon < gamma* < gamma", True, {})
    yield ("decision-high", (1 - gamma) - (HIGH_THRESHOLD + eta),
           "1 - gamma >= 2/3 + eta (high readings clear the upper threshold)", False, {})
    yield ("decision-low", (LOW_THRESHOLD - eta) - gamma,
           "gamma <= 1/3 - eta (low readings stay under the lower threshold)", False, {})

    if not rates_ok or not 0 < eps < 0.5:
        for name in ("majority-discriminant-decay", "majority-discriminant-growth",
                     "restore-high-window", "restore-high-travel",
                     "restore-low-window", "restore-low-travel",
                     "portal-fill-level", "copy-high-pump", "copy-high-threshold",
                     "copy-low-drain", "copy-low-threshold"):
            yield name, skipped, "skipped: rates or epsilon out of range", False, {}
        return

    decay_decl = _decay_declarations(params, p)
    growth_decl = _growth_declarations(params, p)
    disc_decay = p * p * decay_decl.a ** 2 / (4 * (decay_decl.a + decay_decl.b)) - decay_decl.c
    disc_growth = p * p * growth_decl.b ** 2 / (4 * (growth_decl.a + growth_decl.b)) - growth_decl.c
    decay_ok = yield ("majority-discriminant-decay", disc_decay,
                      "copy leak below the decay-variant bifurcation level", True,
                      {"c": decay_decl.c})
    growth_ok = yield ("majority-discriminant-growth", disc_growth,
                       "copy leak below the growth-variant bifurcation level", True,
                       {"c": growth_decl.c})

    if decay_ok:
        eq = am_equilibria(decay_decl, "decay")
        # travel runs up from u1 to u2, and down from gamma to gamma* below
        u1, u2 = 1 - gamma, 1 - gstar
        window = yield ("restore-high-window", min(u1 - eq.e2, eq.e3 - u2, u2 - u1),
                        "1-gamma and 1-gamma* inside the high basin (E2, E3)", True,
                        {"E2": eq.e2, "E3": eq.e3})
        if window:
            t_up = am_travel_time(eq, u1, u2)
            yield ("restore-high-travel", tau - t_up,
                   "one phase restores a high state from 1-gamma to 1-gamma*", False,
                   {"travel_time": t_up})
        else:
            yield "restore-high-travel", skipped, "skipped: window violated", False, {}
    else:
        yield "restore-high-window", skipped, "skipped: discriminant violated", False, {}
        yield "restore-high-travel", skipped, "skipped: discriminant violated", False, {}

    if growth_ok:
        eq = am_equilibria(growth_decl, "growth")
        window = yield ("restore-low-window", min(gstar - eq.e1, eq.e2 - gamma, gamma - gstar),
                        "gamma* and gamma inside the low basin (E1*, E2*)", True,
                        {"E1": eq.e1, "E2": eq.e2})
        if window:
            t_down = am_travel_time(eq, gamma, gstar)
            yield ("restore-low-travel", tau - t_down,
                   "one phase restores a low state from gamma to gamma*", False,
                   {"travel_time": t_down})
        else:
            yield "restore-low-travel", skipped, "skipped: window violated", False, {}
    else:
        yield "restore-low-window", skipped, "skipped: discriminant violated", False, {}
        yield "restore-low-travel", skipped, "skipped: discriminant violated", False, {}

    # high chain: compute fills the portal, then the copy phase must lift y past 1-gamma
    z0_hi = _compute_high_bound_value(params, 1 - gstar)
    yield ("portal-fill-level", z0_hi, "compute phase leaves the target portal filled",
           True, {"z0": z0_hi})
    alpha_hi, beta_hi, z_loss = _copy_high_constants(params, z0_hi, copy_rate)
    pump_ok = yield ("copy-high-pump", alpha_hi, "portal stays high enough to pump during copy",
                     True, {"alpha": alpha_hi, "beta": beta_hi, "z_loss": z_loss})
    if pump_ok:
        rhs = beta_hi / (alpha_hi + beta_hi) + eps + math.exp(-(alpha_hi + beta_hi) * tau / 3)
        yield ("copy-high-threshold", gamma - rhs,
               "copy phase lifts a filled portal's state species to 1-gamma", False,
               {"alpha": alpha_hi, "beta": beta_hi, "rhs": rhs})
    else:
        yield "copy-high-threshold", skipped, "skipped: copy pump not positive", False, {}

    # low chain: reset empties the portal, then the copy phase must keep y under gamma
    z0_lo = _reset_bound_value(params)
    alpha_lo, beta_lo, z_gain = _copy_low_constants(params, z0_lo, copy_rate)
    drain_ok = yield ("copy-low-drain", beta_lo, "emptied portal keeps the down-copy dominant",
                      True, {"z0": z0_lo, "alpha": alpha_lo, "beta": beta_lo, "z_gain": z_gain})
    if drain_ok:
        bound = _copy_low_bound_value(params, z0_lo, copy_rate)
        yield ("copy-low-threshold", gamma - bound,
               "copy phase keeps an emptied portal's state species under gamma", False,
               {"alpha": alpha_lo, "beta": beta_lo, "bound": bound})
    else:
        yield "copy-low-threshold", skipped, "skipped: portal drain not positive", False, {}


def _verdicts(params: ParameterSet, p_policy: str, copy_rate: str):
    """Drive the walk: each entry with its verdict, which is sent back to the walk."""
    walk = _checks(params, p_policy, copy_rate)
    entry = next(walk)
    while True:
        _, slack, _, strict, _ = entry
        ok = slack > 0 if strict else slack >= 0
        yield entry, ok
        try:
            entry = walk.send(ok)
        except StopIteration:
            return


def _holds(params: ParameterSet, p_policy: str) -> bool:
    """Whether the whole system holds, stopping at the first failing entry."""
    return all(ok for _, ok in _verdicts(params, p_policy, "actual"))


def check_constraints(params: ParameterSet, *, p_policy: str = "upper",
                      copy_rate: str = "actual") -> ConstraintReport:
    """Evaluate the full inequality system with intermediates and slacks.

    Conserved totals are pinned to the admissible band edge selected by
    ``p_policy`` ("upper" = 1+2eps, the default; "lower" = 1-eps).  Overall
    pass means every inequality holds; each entry carries a signed slack
    (nonnegative iff satisfied) so a planner can see what binds.  The report
    records every entry of the same walk the planner's screen stops early on.
    """
    checks = [ConstraintCheck(name, bool(ok), float(slack), description,
                              {k: float(v) for k, v in details.items()})
              for (name, slack, description, _, details), ok in _verdicts(params, p_policy, copy_rate)]
    return ConstraintReport(params=params, checks=checks, p_policy=p_policy, copy_rate=copy_rate)


@dataclass
class PlanResult:
    feasible: bool
    params: ParameterSet | None
    report: ConstraintReport | None
    message: str
    binding: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "params": self.params.to_json_dict() if self.params else None,
            "report": self.report.to_json_dict() if self.report else None,
            "message": self.message,
            "binding": self.binding,
        }


# grid of dimensionless products scanned by the planner; tau scales the rates
_G_STAR_FRACTIONS = (0.05, 0.08, 0.12, 0.18, 0.28, 0.42, 0.03)
_K4_TAU = (4.0, 5.0, 6.5, 8.5, 11.0, 14.0)
_K2_OVER_K4 = (55.0, 75.0, 100.0, 140.0, 200.0, 40.0)
_K3_TAU = (14.0, 18.0, 24.0, 30.0)
_K1_TAU = (5.0, 7.0, 10.0, 14.0, 19.0)

_LEAK_GUARD_FRACTION = 0.5


def _leak_ok(params: ParameterSet) -> bool:
    # trace-safety guard: while a low state feeds a compute phase, the portal
    # gain before the majority dynamics drain the source must stay small
    leak = params.d * (params.k1 + params.delta) * params.gamma_star / (params.k4 - params.delta)
    return leak <= _LEAK_GUARD_FRACTION * params.gamma


def _diagnosis(params: ParameterSet) -> tuple[float, str, str]:
    """A failing candidate's minimum slack, the constraint it fails on, and the policy of the report showing it.

    The slacks are those ``check_constraints`` reports, from the same full
    walk, without building the report: the upper band edge's if it fails,
    else the lower's if it fails, else the upper's, failing the leak guard.
    """
    slacks = {}
    for policy in ("upper", "lower"):
        verdicts = list(_verdicts(params, policy, "actual"))
        slacks[policy] = [(name, float(slack)) for (name, slack, *_), _ in verdicts]
        if not all(ok for _, ok in verdicts):
            return _min_slack(slacks[policy]), min(slacks[policy], key=lambda e: e[1])[0], policy
    return _min_slack(slacks["upper"]), "compute-leak-guard", "upper"


def _min_slack(slacks: list[tuple[str, float]]) -> float:
    """``ConstraintReport.min_slack`` of a report with these slacks."""
    return min((slack for _, slack in slacks), default=float("inf"))


def plan_parameters(d: int, epsilon: float, eta: float, delta: float,
                    tau_budget: float | None = None) -> PlanResult:
    """Search for a ParameterSet that passes the full constraint system.

    gamma is pinned just under 1/3 - eta; gamma* and the four rate constants
    are scanned over a fixed grid of dimensionless products (rates scale as
    1/tau, so tau defaults to 1 or to the given budget, which must be
    positive).  The first candidate in deterministic grid order that passes
    the leak guard and the system at both band edges wins; the constraint
    walk stops each candidate at its first failing inequality, and only the
    winner gets a full report.  Infeasible inputs, an empty grid included,
    produce a result naming the binding constraint instead of a guess, with
    the report of the candidate of largest minimum slack when there is one.
    """
    if not 0 < epsilon < 0.5:
        return PlanResult(False, None, None, f"epsilon={epsilon} outside (0, 1/2)", "epsilon-range")
    if not 0 < eta < 0.5:
        return PlanResult(False, None, None, f"eta={eta} outside (0, 1/2)", "eta-range")
    if delta < 0:
        return PlanResult(False, None, None, f"delta={delta} negative", "delta-range")
    if tau_budget is not None and not tau_budget > 0:
        return PlanResult(False, None, None, f"tau budget={tau_budget} not positive", "tau-range")
    gamma_cap = LOW_THRESHOLD - eta
    if gamma_cap <= epsilon:
        return PlanResult(
            False, None, None,
            f"no admissible gamma: need epsilon <= gamma <= 1/3 - eta, but 1/3 - eta = {gamma_cap:.6g} <= epsilon = {epsilon:.6g}",
            "decision-low",
        )
    gamma = gamma_cap - min(3e-3, (gamma_cap - epsilon) / 10)

    gstars = [frac * gamma for frac in _G_STAR_FRACTIONS if frac * gamma > 1.5 * epsilon]
    if not gstars:
        return PlanResult(
            False, None, None,
            f"no gamma* on the search grid exceeds 1.5 epsilon = {1.5 * epsilon:.6g}",
            "gamma-star-window",
        )
    tau0 = min(1.0, tau_budget) if tau_budget is not None else 1.0
    k4s_by_tau = [(tau, [k4t / tau for k4t in _K4_TAU if k4t / tau > 2 * delta])
                  for tau in (tau0, tau0 / 5, tau0 / 25)]
    if not any(k4s for _, k4s in k4s_by_tau):
        return PlanResult(
            False, None, None,
            f"no k4 on the search grid exceeds 2 delta = {2 * delta:.6g}",
            "rates-exceed-delta",
        )

    def grid():
        for tau, k4s in k4s_by_tau:
            for gstar in gstars:
                for k4 in k4s:
                    for ratio in _K2_OVER_K4:
                        for k3t in _K3_TAU:
                            for k1t in _K1_TAU:
                                yield ParameterSet(
                                    epsilon=epsilon, eta=eta, delta=delta, tau=tau,
                                    gamma=gamma, gamma_star=gstar,
                                    k1=k1t / tau, k2=ratio * k4, k3=k3t / tau, k4=k4, d=d,
                                )

    # feasibility is a conjunction of pure predicates: cheapest first
    for params in grid():
        if _leak_ok(params) and _holds(params, "upper") and _holds(params, "lower"):
            return PlanResult(True, params, check_constraints(params, p_policy="upper"),
                              "feasible parameter set found", None)

    # every candidate fails: rank them by the slacks of full walks to name the
    # closest one's binding constraint, and report that one alone
    best: tuple[float, ParameterSet, str, str] | None = None
    for params in grid():
        min_slack, binding, policy = _diagnosis(params)
        if best is None or min_slack > best[0]:
            best = (min_slack, params, binding, policy)
    _, params, binding, policy = best
    return PlanResult(
        False, None, check_constraints(params, p_policy=policy),
        "no feasible parameter set on the search grid; "
        f"closest candidate fails at constraint {binding!r}",
        binding,
    )
