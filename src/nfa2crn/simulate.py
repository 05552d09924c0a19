"""Integration of the driven mass-action system and threshold decisions.

Input species are held to the signal rather than integrated: they appear only
as catalysts, so their own drift is identically zero and clamping eliminates
accumulation error.  The remaining species integrate under an adaptive
explicit Runge-Kutta 5(4) scheme; paired species (a value and its dual) have
exactly opposite drifts at every state, so their sums are conserved to
rounding by construction.  A run's dense output is a table of the solver's
steps (``DenseTable``): the sample grid, the decision and the block-boundary
checks each read any set of times with one search and one vectorised quartic
per symbol block.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .analysis import HIGH_THRESHOLD, LOW_THRESHOLD
from .brn import Brn, ConcState, MassActionKernel
from .nfa import Nfa, extended_transition
from .perturb import ObservationScheme, observe
from .signals import SignalSpec
from .translate import state_species_name

__all__ = [
    "SimConfig",
    "Trace",
    "DenseTable",
    "BlockPath",
    "Decision",
    "IntegratorFault",
    "integrate",
    "integrate_fixed_step",
    "decide",
    "check_phi",
    "conservation_deviation",
]

# a run's sample grid: t_end split into this many equal intervals
SAMPLE_INTERVALS = 400


class IntegratorFault(RuntimeError):
    """Integration failed (step-size underflow or negative excursion)."""

    def __init__(self, message: str, time: float | None = None, state=None):
        super().__init__(message)
        self.time = time
        self.state = state


@dataclass(frozen=True)
class SimConfig:
    """Integration horizon and tolerances for one run."""

    t_end: float
    rel_tol: float = 1e-7
    abs_tol: float = 1e-10

    def __post_init__(self):
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")


class _CompiledNetwork:
    """The network's ``MassActionKernel`` with its inputs clamped to a signal.

    The kernel's buffer holds the free species first, then the inputs, so a
    drift copies the state in with one slice and fills the inputs from the
    signal's scalar evaluators; the free species' drift is the first rows of
    the kernel's stoichiometry times its fluxes.
    """

    def __init__(self, brn: Brn, signal):
        names = brn.species_names
        index = {nm: i for i, nm in enumerate(names)}
        self.signal = signal
        self.driven_names = [s.name for s in brn.species if s.is_input]
        self.driven_idx = np.array([index[nm] for nm in self.driven_names], dtype=int)
        self.driven_fns = _driven_evaluators(signal, self.driven_names)
        driven_set = set(self.driven_idx.tolist())
        self.free_idx = np.array([i for i in range(len(names)) if i not in driven_set], dtype=int)
        self.n_species = len(names)
        self._n_free = n_free = len(self.free_idx)
        self.kernel = MassActionKernel(brn, [names[i] for i in self.free_idx.tolist()] + self.driven_names)
        self._x = self.kernel.buffer()
        self._driven = [(n_free + k, fn) for k, fn in enumerate(self.driven_fns)]
        self.stoich = self.kernel.stoich[:n_free]

    def drift(self, t: float, y: np.ndarray) -> np.ndarray:
        """Mass-action drift of the free species at time t, inputs read from the signal."""
        x = self._x
        x[:self._n_free] = y
        for pos, fn in self._driven:
            x[pos] = fn(t)
        return self.stoich @ self.kernel.fluxes(t, x)

    def states(self, t: np.ndarray, free_vals: np.ndarray) -> np.ndarray:
        """Full states at the times t, one row per time: free species given, inputs from the signal."""
        values = np.empty((len(t), self.n_species))
        values[:, self.free_idx] = free_vals
        if len(t) == 1:
            # one time: the drift's scalar evaluators, which give the same values cheaper
            values[0, self.driven_idx] = [fn(t[0]) for fn in self.driven_fns]
            return values
        for pos, nm in zip(self.driven_idx, self.driven_names):
            values[:, pos] = np.asarray(self.signal.concentration(nm, t), dtype=float)
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

    ``values`` holds the sampled grid (rows: times, columns: species).
    ``_dense`` maps a 1-D array of times inside ``[0, t_end]`` to the states
    there, one row per time (the solver's ``DenseTable`` for ``integrate``);
    ``value``/``state_at`` read through it with one call per request.
    """

    names: tuple[str, ...]
    times: np.ndarray
    values: np.ndarray
    t_end: float
    _dense: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        self._index = {nm: i for i, nm in enumerate(self.names)}

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self._index[name]]

    def _states(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        outside = ~((t >= 0) & (t <= self.t_end + 1e-12))
        if outside.any():
            raise ValueError(f"t={t[outside][0]} outside trace range [0, {self.t_end}]")
        return self._dense(np.minimum(t, self.t_end))

    def state_at(self, t: float) -> np.ndarray:
        return self._states(t)[0]

    def value(self, name: str, t) -> float | np.ndarray:
        col = self._states(t)[:, self._index[name]]
        return float(col[0]) if np.isscalar(t) else col

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

    rows_at = interp1d(times, values, axis=0, kind="linear", bounds_error=False,
                       fill_value=(values[0], values[-1]))
    return Trace(names=tuple(header[1:]), times=times, values=values, t_end=float(times[-1]),
                 _dense=lambda t: np.maximum(rows_at(t), 0.0))


# a run of solver steps, packed: their end times, start states and quartic coefficients
_Steps = tuple[np.ndarray, np.ndarray, np.ndarray]


def _packed(pieces: Sequence[_Steps]) -> _Steps:
    """Consecutive pieces joined into one run of steps."""
    return tuple(np.concatenate(part) for part in zip(*pieces))


class DenseTable:
    """A run's dense output: its RK 5(4) steps packed into arrays.

    Step ``i`` runs from ``ts[i]`` to ``ts[i + 1]``; its interpolant is
    scipy's quartic ``y_old + h (Q @ [x, x^2, x^3, x^4])`` with ``h`` the
    step length and ``x = (t - ts[i]) / h``.  A time on a step boundary
    reads the step ending there, and a time outside ``[ts[0], ts[-1]]`` the
    first or last step, as with scipy's ``OdeSolution``.  The step
    boundaries form one array, so any set of times finds its steps with one
    search.  ``y_old`` and ``Q`` stay in the segments they were packed in
    (one per symbol block, and the tail), so a run never holds its steps
    twice; each segment a set of times touches takes one vectorised
    quartic.  Calling the table gives full states: integrated species
    clamped at zero, inputs filled in by ``fill(t, free_values)``.
    """

    def __init__(self, segments: Sequence[_Steps], fill):
        self.ts = np.concatenate([[0.0], *(ends for ends, _, _ in segments)])
        self._segments = segments
        self._first_step = np.cumsum([0, *(len(ends) for ends, _, _ in segments)])
        self._fill = fill

    def free(self, t: np.ndarray) -> np.ndarray:
        """The integrated species at the times t, one row per time, as the solver left them."""
        i = np.minimum(np.maximum(np.searchsorted(self.ts, t, side="left") - 1, 0), len(self.ts) - 2)
        t_old = self.ts[i]
        h = self.ts[i + 1] - t_old
        x = (t - t_old) / h
        _, y_old, Q = self._segments[0]
        powers = np.cumprod(np.repeat(x[:, None], Q.shape[2], axis=1), axis=1)
        segment = np.searchsorted(self._first_step, i, side="right") - 1
        out = np.empty((len(t), y_old.shape[1]))
        for s in set(segment.tolist()):
            rows = segment == s
            _, y_old, Q = self._segments[s]
            k = i[rows] - self._first_step[s]
            out[rows] = h[rows, None] * np.einsum("kij,kj->ki", Q[k], powers[rows]) + y_old[k]
        return out

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return self._fill(t, np.maximum(self.free(t), 0.0))


class BlockPath:
    """Integrated symbol blocks along the current branch of a corpus's word trie.

    A word's input is a sequence of reset/symbol/copy blocks of ``3 tau``
    each, so up to ``3k tau`` a run's trajectory depends only on the network
    and its rate laws, the initial state, the tolerances, ``tau`` and the
    first ``k`` symbols.  ``integrate`` keeps here, for block ``i`` of the
    run it last integrated, the packed solver steps over
    ``[3i tau, 3(i+1) tau]`` and the state at the block's end.  A later run
    with the same context starts from the last block boundary its word shares
    with that run; the blocks past it are dropped.  A stored block is exactly
    what the run would compute itself, so its report does not change.
    """

    def __init__(self):
        self._context = None
        self._blocks: list[tuple[str, _Steps, np.ndarray]] = []

    def resume(self, context: tuple, word: Sequence[str]) -> list[tuple[str, _Steps, np.ndarray]]:
        """The stored blocks that a run with this context and word begins with."""
        if context != self._context:
            self._context = context
            self._blocks = []
        k = 0
        while k < min(len(self._blocks), len(word)) and self._blocks[k][0] == word[k]:
            k += 1
        del self._blocks[k:]
        return list(self._blocks)

    def extend(self, symbol: str, steps: _Steps, y_end: np.ndarray) -> None:
        """Store the next block of the branch: its packed steps and its end state."""
        self._blocks.append((symbol, steps, y_end))


def integrate(brn: Brn, x0: ConcState, signal, config: SimConfig, *,
              block_path: BlockPath | None = None) -> Trace:
    """Integrate the driven system from x0 over [0, t_end].

    Species of input kind are clamped to the signal at all times (their
    entries in x0 are ignored); everything else follows the mass-action
    drift.  The solver restarts at every corner of the signal
    (``critical_times()``), so no step straddles a kink and each piece picks
    a fresh step size.  Each piece's steps are packed into arrays right
    after its solve, and scipy's per-step interpolants are dropped; the
    pieces of each symbol block, and of the tail, are joined as it ends,
    and together they form the run's ``DenseTable``.
    A step is at most ``tau/3`` long when the signal has a spec, and the
    trace samples ``SAMPLE_INTERVALS + 1`` evenly spaced times.
    Given a ``block_path`` and a word signal, whole symbol blocks already
    integrated for an earlier word with the same prefix are reused, and the
    new ones are stored.  Raises IntegratorFault on solver failure or on a
    negative excursion beyond ten times the absolute tolerance; smaller
    excursions are clamped to zero in the outputs.
    """
    net = _CompiledNetwork(brn, signal)
    spec = getattr(signal, "spec", None)
    tau = getattr(spec, "tau", None)
    max_step = tau / 3.0 if tau else np.inf
    y = np.asarray(x0.values, dtype=float)[net.free_idx]

    segments: list[_Steps] = []  # one per symbol block, then the tail
    pieces: list[_Steps] = []  # the solver pieces of the segment being integrated
    t = 0.0
    # only blocks that end within [0, t_end] are blocks; the rest is the tail
    word = () if spec is None else \
        spec.word[:sum(3 * i * tau <= config.t_end for i in range(1, spec.length + 1))]
    n_blocks = 0
    shared = block_path is not None and spec is not None
    if shared:
        context = (brn, y.tobytes(), config.rel_tol, config.abs_tol, tau)
        blocks = block_path.resume(context, word)
        for _symbol, steps, y_end in blocks:
            segments.append(steps)
            y = y_end
        n_blocks = len(blocks)
        t = 3 * n_blocks * tau

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
        # the step ends and start states are sol's own; only Q lives in the interpolants
        pieces.append((sol.t[1:], sol.y[:, :-1].T, np.array([step.Q for step in sol.sol.interpolants])))
        y = sol.y[:, -1]
        t = t_next
        if n_blocks < len(word) and t == 3 * (n_blocks + 1) * tau:
            segments.append(_packed(pieces))
            pieces = []
            if shared:
                block_path.extend(word[n_blocks], segments[-1], y)
            n_blocks += 1
    if pieces:
        segments.append(_packed(pieces))
    dense = DenseTable(segments, net.states)

    t_grid = np.linspace(0.0, config.t_end, SAMPLE_INTERVALS + 1)
    return Trace(names=brn.species_names, times=t_grid, values=dense(t_grid),
                 t_end=config.t_end, _dense=dense)


def integrate_fixed_step(brn: Brn, x0: ConcState, signal, config: SimConfig,
                         h: float) -> Trace:
    """Classical fixed-step fourth-order Runge-Kutta cross-check integrator."""
    net = _CompiledNetwork(brn, signal)
    rhs = net.drift

    n_steps = max(int(math.ceil(config.t_end / h)), 1)
    h = config.t_end / n_steps
    stride = config.t_end / SAMPLE_INTERVALS
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
    from scipy.interpolate import interp1d

    free_at = interp1d(t_grid, free_vals, axis=0, kind="cubic" if len(t_grid) > 3 else "linear",
                       bounds_error=False, fill_value=(free_vals[0], free_vals[-1]))
    return Trace(names=brn.species_names, times=t_grid, values=net.states(t_grid, free_vals),
                 t_end=config.t_end, _dense=lambda t: net.states(t, np.maximum(free_at(t), 0.0)))


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

    hat = np.atleast_1d(observe(_levels(trace, nfa, t_dec), scheme))
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
    for q, y in zip(nfa.states, _levels(trace, nfa, 3 * len(prefix) * tau)):
        if q in target:
            if y < 1 - gamma:
                return False
        elif y > gamma:
            return False
    return True


def _levels(trace: Trace, nfa: Nfa, t: float) -> np.ndarray:
    """Raw state-species levels at time t, in the automaton's state order, from one evaluation."""
    return trace.state_at(t)[[trace._index[state_species_name(q)] for q in nfa.states]]


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
