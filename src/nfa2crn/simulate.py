"""Integration of the driven mass-action system and threshold decisions.

Input species are held to the signal rather than integrated: they appear only
as catalysts, so their own drift is identically zero and clamping eliminates
accumulation error.  The remaining species integrate under an adaptive
explicit Runge-Kutta 5(4) scheme with dense output; paired species (a value
and its dual) have exactly opposite drifts at every state, so their sums are
conserved to rounding by construction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import OdeSolution, solve_ivp

from .brn import Brn, ConcState, ConstantRate, OffsetRate, PiecewiseLinearRate, SinusoidRate
from .nfa import Nfa, extended_transition
from .perturb import ObservationScheme, observe
from .signals import SignalSpec
from .translate import state_species_name

__all__ = [
    "SimConfig",
    "Trace",
    "BlockPath",
    "Decision",
    "IntegratorFault",
    "integrate",
    "integrate_fixed_step",
    "decide",
    "check_phi",
    "state_levels",
    "conservation_deviation",
]

HIGH_THRESHOLD = 2.0 / 3.0
LOW_THRESHOLD = 1.0 / 3.0


class IntegratorFault(RuntimeError):
    """Integration failed (step-size underflow or negative excursion)."""

    def __init__(self, message: str, time: float | None = None, state=None):
        super().__init__(message)
        self.time = time
        self.state = state


@dataclass(frozen=True)
class SimConfig:
    """Integrator tolerances and output layout for one run."""

    t_end: float
    rel_tol: float = 1e-7
    abs_tol: float = 1e-10
    max_step: float | None = None
    sample_stride: float | None = None

    def __post_init__(self):
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")


class _CompiledNetwork:
    """Index arrays for fast mass-action drift, with inputs clamped to a signal."""

    def __init__(self, brn: Brn, signal):
        names = brn.species_names
        n = len(names)
        index = {nm: i for i, nm in enumerate(names)}
        self.driven_names = [s.name for s in brn.species if s.is_input]
        self.driven_idx = np.array([index[nm] for nm in self.driven_names], dtype=int)
        self.driven_fns = _driven_evaluators(signal, self.driven_names)
        driven_set = set(self.driven_idx.tolist())
        self.free_idx = np.array([i for i in range(n) if i not in driven_set], dtype=int)
        self.n_species = n
        self._x = np.empty(n + 1)
        self._x[-1] = 1.0
        self._driven = list(zip(self.driven_idx.tolist(), self.driven_fns))

        width = max((sum(r.reactants.values()) for r in brn.reactions), default=1)
        slots = np.full((len(brn.reactions), max(width, 1)), n, dtype=int)  # n = sentinel slot holding 1.0
        for j, rxn in enumerate(brn.reactions):
            pos = 0
            for nm, count in rxn.reactants.items():
                for _ in range(count):
                    slots[j, pos] = index[nm]
                    pos += 1
        self.slots = slots

        free_pos = {sp: k for k, sp in enumerate(self.free_idx.tolist())}
        stoich = np.zeros((len(self.free_idx), len(brn.reactions)))
        for j, rxn in enumerate(brn.reactions):
            for nm in rxn.species_names:
                d = rxn.products.get(nm, 0) - rxn.reactants.get(nm, 0)
                i = index[nm]
                if d and i in free_pos:
                    stoich[free_pos[i], j] = d
        self.stoich = stoich

        base = np.empty(len(brn.reactions))
        sin_rows, sin_amp, sin_omega, sin_phase = [], [], [], []
        pwl_by_grid: dict[tuple[float, ...], list[tuple[int, tuple[float, ...]]]] = {}
        generic: list[tuple[int, object]] = []
        for j, rxn in enumerate(brn.reactions):
            law = rxn.rate
            if isinstance(law, ConstantRate):
                base[j] = law.nominal
            elif isinstance(law, OffsetRate):
                base[j] = law.nominal + law.offset
            elif isinstance(law, SinusoidRate):
                base[j] = law.nominal
                sin_rows.append(j)
                sin_amp.append(law.amplitude)
                sin_omega.append(law.omega)
                sin_phase.append(law.phase)
            elif isinstance(law, PiecewiseLinearRate):
                base[j] = law.nominal
                pwl_by_grid.setdefault(law.times, []).append((j, law.offsets))
            else:
                base[j] = 0.0
                generic.append((j, law))
        self.k_base = base
        self.sin_rows = np.array(sin_rows, dtype=int)
        self.sin_amp = np.array(sin_amp)
        self.sin_omega = np.array(sin_omega)
        self.sin_phase = np.array(sin_phase)
        # rows sharing one knot grid take one search and one lerp per evaluation;
        # the lerp is np.interp's formula, so the rates are the same to the bit
        self.pwl_groups = []
        for times, members in pwl_by_grid.items():
            knots = np.asarray(times)
            offsets = np.array([off for _, off in members])
            slopes = np.diff(offsets, axis=1) / np.diff(knots)
            self.pwl_groups.append((np.array([j for j, _ in members]), knots, offsets, slopes))
        self.generic = generic
        self.k_static = not (len(sin_rows) or pwl_by_grid or generic)

    def rates_at(self, t: float) -> np.ndarray:
        if self.k_static:
            return self.k_base
        k = self.k_base.copy()
        if self.sin_rows.size:
            k[self.sin_rows] += self.sin_amp * np.sin(self.sin_omega * t + self.sin_phase)
        for rows, knots, offsets, slopes in self.pwl_groups:
            i = int(np.searchsorted(knots, t, side="right")) - 1
            if i < 0:
                k[rows] += offsets[:, 0]
            elif i >= len(knots) - 1:
                k[rows] += offsets[:, -1]
            else:
                k[rows] += slopes[:, i] * (t - knots[i]) + offsets[:, i]
        for j, law in self.generic:
            k[j] = law.value(t)
        return k

    def drift(self, t: float, y: np.ndarray) -> np.ndarray:
        """Mass-action drift of the free species at time t, inputs read from the signal."""
        x = self._x
        x[self.free_idx] = y
        for pos, fn in self._driven:
            x[pos] = fn(t)
        return self.stoich @ (self.rates_at(t) * x[self.slots].prod(axis=1))

    def sampled_values(self, signal, t_grid: np.ndarray, free_vals: np.ndarray) -> np.ndarray:
        """Full sample table: free species from the integrator, inputs from the signal."""
        values = np.empty((len(t_grid), self.n_species))
        values[:, self.free_idx] = free_vals
        for pos, nm in zip(self.driven_idx, self.driven_names):
            values[:, pos] = np.asarray(signal.concentration(nm, t_grid), dtype=float)
        return values


def _driven_evaluators(signal, names: Sequence[str]):
    fns = []
    for nm in names:
        if hasattr(signal, "scalar_evaluator"):
            fns.append(signal.scalar_evaluator(nm))
        else:
            fns.append(lambda t, nm=nm: float(signal.concentration(nm, t)))
    return fns


@dataclass
class Trace:
    """Integrated concentrations with a dense evaluator.

    ``values`` holds the sampled grid (rows: times, columns: species);
    ``value``/``state_at`` evaluate anywhere inside the integrated range with
    the solver's dense interpolant, with inputs reproduced from the signal.
    """

    names: tuple[str, ...]
    times: np.ndarray
    values: np.ndarray
    t_end: float

    _free_idx: np.ndarray = None
    _driven_idx: np.ndarray = None
    _dense = None
    _driven_fns: list = None

    def __post_init__(self):
        self._index = {nm: i for i, nm in enumerate(self.names)}

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self._index[name]]

    def state_at(self, t: float) -> np.ndarray:
        if not 0 <= t <= self.t_end + 1e-12:
            raise ValueError(f"t={t} outside trace range [0, {self.t_end}]")
        out = np.empty(len(self.names))
        free_vals = np.maximum(self._dense(min(t, self.t_end)), 0.0)
        out[self._free_idx] = free_vals
        for pos, fn in zip(self._driven_idx, self._driven_fns):
            out[pos] = fn(min(t, self.t_end))
        return out

    def value(self, name: str, t) -> float | np.ndarray:
        i = self._index[name]
        if np.isscalar(t):
            return float(self.state_at(float(t))[i])
        return np.array([self.state_at(float(tt))[i] for tt in np.asarray(t, dtype=float)])

    def write_csv(self, fileobj) -> None:
        writer = csv.writer(fileobj)
        writer.writerow(["t", *self.names])
        for i, t in enumerate(self.times):
            writer.writerow([repr(float(t)), *(repr(float(v)) for v in self.values[i])])

    def write_long_csv(self, fileobj) -> None:
        """Long-format (t, species, value) rows for external plotting tools."""
        writer = csv.writer(fileobj)
        writer.writerow(["t", "species", "value"])
        for j, name in enumerate(self.names):
            for i, t in enumerate(self.times):
                writer.writerow([repr(float(t)), name, repr(float(self.values[i, j]))])


def trace_from_csv(fileobj) -> Trace:
    """Reload a trace CSV; values interpolate linearly between sampled rows."""
    reader = csv.reader(fileobj)
    header = next(reader)
    if not header or header[0] != "t":
        raise ValueError("trace CSV must start with a 't' column")
    rows = [[float(v) for v in row] for row in reader if row]
    data = np.asarray(rows)
    if data.size == 0:
        raise ValueError("trace CSV has no rows")
    times, values = data[:, 0], data[:, 1:]
    from scipy.interpolate import interp1d

    dense = interp1d(times, values.T, kind="linear", bounds_error=False,
                     fill_value=(values[0], values[-1]))
    trace = Trace(names=tuple(header[1:]), times=times, values=values, t_end=float(times[-1]))
    trace._free_idx = np.arange(len(header) - 1)
    trace._driven_idx = np.array([], dtype=int)
    trace._dense = dense
    trace._driven_fns = []
    return trace


class BlockPath:
    """Integrated symbol blocks along the current branch of a corpus's word trie.

    A word's input is a sequence of reset/symbol/copy blocks of ``3 tau``
    each, so up to ``3k tau`` a run's trajectory depends only on the network
    and its rate laws, the initial state, the tolerances, ``tau`` and the
    first ``k`` symbols.  ``integrate`` keeps here, for block ``i`` of the
    run it last integrated, the dense-output segments over
    ``[3i tau, 3(i+1) tau]`` and the state at the block's end.  A later run
    with the same context starts from the last block boundary its word shares
    with that run; the blocks past it are dropped.  A stored block is exactly
    what the run would compute itself, so its report does not change.
    """

    def __init__(self):
        self._context = None
        self._blocks: list[tuple[str, list, list, np.ndarray]] = []

    def resume(self, context: tuple, word: Sequence[str]) -> list[tuple[str, list, list, np.ndarray]]:
        """The stored blocks that a run with this context and word begins with."""
        if context != self._context:
            self._context = context
            self._blocks = []
        k = 0
        while k < min(len(self._blocks), len(word)) and self._blocks[k][0] == word[k]:
            k += 1
        del self._blocks[k:]
        return list(self._blocks)

    def extend(self, symbol: str, ts: list, interpolants: list, y_end: np.ndarray) -> None:
        """Store the next block of the branch: its segments and its end state."""
        self._blocks.append((symbol, ts, interpolants, y_end))


def integrate(brn: Brn, x0: ConcState, signal, config: SimConfig, *,
              block_path: BlockPath | None = None) -> Trace:
    """Integrate the driven system from x0 over [0, t_end].

    Species of input kind are clamped to the signal at all times (their
    entries in x0 are ignored); everything else follows the mass-action
    drift.  The solver restarts at every corner of the signal
    (``critical_times()``), so no step straddles a kink and each piece picks
    a fresh step size; the pieces' dense outputs are stitched into one.
    Given a ``block_path`` and a word signal, whole symbol blocks already
    integrated for an earlier word with the same prefix are reused, and the
    new ones are stored.  Raises IntegratorFault on solver failure or on a
    negative excursion beyond ten times the absolute tolerance; smaller
    excursions are clamped to zero in the outputs.
    """
    net = _CompiledNetwork(brn, signal)
    spec = getattr(signal, "spec", None)
    tau = getattr(spec, "tau", None)
    max_step = config.max_step
    if max_step is None:
        max_step = tau / 3.0 if tau else np.inf
    y = np.asarray(x0.values, dtype=float)[net.free_idx]

    ts: list[float] = [0.0]
    interpolants: list = []
    t = 0.0
    shared = block_path is not None and spec is not None
    if shared:
        # only blocks that end within [0, t_end] are shared
        word = spec.word[:sum(3 * i * tau <= config.t_end for i in range(1, spec.length + 1))]
        context = (brn, y.tobytes(), config.rel_tol, config.abs_tol, max_step, tau)
        blocks = block_path.resume(context, word)
        for _symbol, block_ts, block_interpolants, y_end in blocks:
            ts.extend(block_ts)
            interpolants.extend(block_interpolants)
            y = y_end
        n_blocks = len(blocks)
        t = 3 * n_blocks * tau
        block_start = len(interpolants)

    corners = np.asarray(signal.critical_times(), dtype=float)
    for t_next in [*corners[(corners > t) & (corners < config.t_end)].tolist(), config.t_end]:
        sol = solve_ivp(
            net.drift, (t, t_next), y, method="RK45",
            rtol=config.rel_tol, atol=config.abs_tol,
            max_step=max_step, dense_output=True,
        )
        if not sol.success:
            raise IntegratorFault(f"integration failed: {sol.message}",
                                  time=float(sol.t[-1]) if len(sol.t) else t)
        floor = float(np.min(sol.y, initial=0.0))
        if floor < -10.0 * config.abs_tol:
            j = np.unravel_index(np.argmin(sol.y), sol.y.shape)
            raise IntegratorFault(
                f"negative concentration {floor:.3e} beyond fault threshold",
                time=float(sol.t[j[1]]), state=sol.y[:, j[1]].copy(),
            )
        ts.extend(sol.sol.ts[1:].tolist())
        interpolants.extend(sol.sol.interpolants)
        y = sol.y[:, -1]
        t = t_next
        if shared and n_blocks < len(word) and t == 3 * (n_blocks + 1) * tau:
            block_path.extend(word[n_blocks], ts[block_start + 1:], interpolants[block_start:], y)
            n_blocks += 1
            block_start = len(interpolants)
    dense = OdeSolution(ts, interpolants)

    stride = config.sample_stride if config.sample_stride else config.t_end / 400.0
    n_samples = max(int(round(config.t_end / stride)), 1)
    t_grid = np.linspace(0.0, config.t_end, n_samples + 1)
    values = net.sampled_values(signal, t_grid, np.maximum(dense(t_grid).T, 0.0))

    trace = Trace(names=brn.species_names, times=t_grid, values=values, t_end=config.t_end)
    trace._free_idx = net.free_idx
    trace._driven_idx = net.driven_idx
    trace._dense = dense
    trace._driven_fns = net.driven_fns
    return trace


def integrate_fixed_step(brn: Brn, x0: ConcState, signal, config: SimConfig,
                         h: float) -> Trace:
    """Classical fixed-step fourth-order Runge-Kutta cross-check integrator."""
    net = _CompiledNetwork(brn, signal)
    rhs = net.drift

    n_steps = max(int(math.ceil(config.t_end / h)), 1)
    h = config.t_end / n_steps
    stride = config.sample_stride if config.sample_stride else config.t_end / 400.0
    keep_every = max(int(round(stride / h)), 1)

    y = np.asarray(x0.values, dtype=float)[net.free_idx]
    ts = [0.0]
    ys = [y.copy()]
    t = 0.0
    for step in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = (step + 1) * h
        if (step + 1) % keep_every == 0 or step == n_steps - 1:
            ts.append(t)
            ys.append(y.copy())

    t_grid = np.asarray(ts)
    free_vals = np.maximum(np.asarray(ys), 0.0)
    values = net.sampled_values(signal, t_grid, free_vals)

    from scipy.interpolate import interp1d

    dense = interp1d(t_grid, free_vals.T, kind="cubic" if len(t_grid) > 3 else "linear",
                     bounds_error=False, fill_value=(free_vals[0], free_vals[-1]))
    trace = Trace(names=brn.species_names, times=t_grid, values=values, t_end=config.t_end)
    trace._free_idx = net.free_idx
    trace._driven_idx = net.driven_idx
    trace._dense = dense
    trace._driven_fns = net.driven_fns
    return trace


@dataclass
class Decision:
    """Per-state verdicts at the decision time plus the acceptance call.

    ``accept`` is True iff some accepting state reads above the upper
    threshold, False iff that is ruled out, and None while any accepting
    state sits in the undetermined band.
    """

    verdicts: dict[str, str]
    observed: dict[str, float]
    t_dec: float
    accept: bool | None

    @property
    def undetermined(self) -> bool:
        return any(v == "undetermined" for v in self.verdicts.values())

    def to_json_dict(self) -> dict:
        return {
            "t_dec": self.t_dec,
            "verdicts": dict(self.verdicts),
            "observed": {q: float(v) for q, v in self.observed.items()},
            "accept": "undetermined" if self.accept is None else bool(self.accept),
        }


def decide(trace: Trace, nfa: Nfa, spec: SignalSpec, scheme: ObservationScheme,
           t: float | None = None) -> Decision:
    """Read the state species at time t (default: the decision horizon).

    A state is called in-set when its observed level exceeds 2/3 and out of
    the set when it is below 1/3; anything in between is surfaced as
    undetermined, never coerced.
    """
    horizon = spec.decision_time
    t_dec = horizon if t is None else float(t)
    if t_dec < horizon - 1e-9:
        raise ValueError(f"decision time {t_dec} is before the horizon {horizon}")
    if t_dec > trace.t_end + 1e-9:
        raise ValueError(f"decision time {t_dec} beyond trace end {trace.t_end}")

    raw = np.array([trace.value(state_species_name(q), t_dec) for q in nfa.states])
    hat = np.atleast_1d(observe(raw, scheme))
    verdicts: dict[str, str] = {}
    observed: dict[str, float] = {}
    for q, v in zip(nfa.states, hat):
        observed[q] = float(v)
        if v > HIGH_THRESHOLD:
            verdicts[q] = "in-set"
        elif v < LOW_THRESHOLD:
            verdicts[q] = "not-in-set"
        else:
            verdicts[q] = "undetermined"
    acc_verdicts = [verdicts[q] for q in nfa.states if q in nfa.accepting]
    if any(v == "in-set" for v in acc_verdicts):
        accept: bool | None = True
    elif any(v == "undetermined" for v in acc_verdicts):
        accept = None
    else:
        accept = False
    return Decision(verdicts=verdicts, observed=observed, t_dec=t_dec, accept=accept)


def check_phi(trace: Trace, nfa: Nfa, prefix: Sequence[str], gamma: float,
              tau: float) -> bool:
    """Block-boundary levels: reached states at or above 1-gamma, others at or below gamma."""
    if not 0 < gamma < 0.5:
        raise ValueError("gamma must lie in (0, 1/2)")
    target = extended_transition(nfa, nfa.initial, tuple(prefix))
    t = 3 * len(prefix) * tau
    for q in nfa.states:
        y = trace.value(state_species_name(q), t)
        if q in target:
            if y < 1 - gamma:
                return False
        elif y > gamma:
            return False
    return True


def state_levels(trace: Trace, nfa: Nfa, t: float) -> dict[str, float]:
    """Raw (unobserved) state-species levels at time t."""
    return {q: float(trace.value(state_species_name(q), t)) for q in nfa.states}


def conservation_deviation(trace: Trace, x0: ConcState, pairs: Sequence[tuple[str, str]]):
    """Max deviation of paired sums from their initial totals over the sampled grid.

    Returns (max deviation, dict of initial totals keyed by the pair's first
    name).
    """
    totals = {}
    worst = 0.0
    for a, b in pairs:
        c0 = x0[a] + x0[b]
        totals[a] = c0
        dev = np.max(np.abs(trace.column(a) + trace.column(b) - c0))
        worst = max(worst, float(dev))
    return worst, totals
