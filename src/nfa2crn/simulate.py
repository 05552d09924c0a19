"""Integration of the driven mass-action system and threshold decisions.

Input species are held to the signal rather than integrated: they appear only
as catalysts, so their own drift is identically zero and clamping eliminates
accumulation error.  The remaining species integrate under ``solve_ivp``, a
Dormand-Prince 5(4) pair with scipy's RK45 tableau, error norm and step-size
controller, written for columns: it advances B independent problems in
lockstep, each with its own time, step size and accept/reject decision.
Every sum it forms (stage sums, the stoichiometry's accumulate, the error
norm) has a fixed order, so a column's result is the same to the bit
whatever B is and wherever the column sits in the batch.  Paired species (a
value and its dual) have exactly opposite drifts at every state, so their
sums are conserved to rounding by construction.

The solver restarts at every corner of the signal, so no step straddles a
kink, and at most ``tau/3`` is taken at once.  Between two corners an encoded
input is linear in t, so each piece's drift is compiled once: constant inputs
are written once per piece, and what depends on time alone (a ramp, the
rates) is computed for all six stages of a step at once.  A signal is read
only through its ``concentration``; every run on a network shares one layout
of it and its kernel.  ``integrate`` takes one run or many.  A word's input
is a chain of symbol blocks of ``3 tau``, so runs with the same tolerances
and ``tau`` integrate their word tries level by level: every distinct block
of level k in one batch, then every tail in one batch.  A batch holds
columns of any networks: each column carries its network, its free species
padded with zeros to the widest column's, and its error norm runs over its
own species, so its arithmetic is the one it has alone.  Blocks are shared
only within one network.  A run's dense output is a table of its solver
steps (``DenseTable``): the sample grid, the decision and the block-boundary
checks each read any set of times with one search and one vectorised
quartic per symbol block.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .analysis import HIGH_THRESHOLD, LOW_THRESHOLD
from .brn import Brn, ConcState, MassActionKernel, column_drift
from .nfa import Nfa, extended_transition
from .perturb import ObservationScheme, observe
from .signals import InputSignal, SignalSpec
from .translate import state_species_name

__all__ = [
    "SimConfig",
    "Trace",
    "SolverStats",
    "DenseTable",
    "Solution",
    "Decision",
    "IntegratorFault",
    "solve_ivp",
    "integrate",
    "integrate_fixed_step",
    "decide",
    "check_phi",
    "conservation_deviation",
]

# a run's sample grid: t_end split into this many equal intervals
SAMPLE_INTERVALS = 400

# Dormand-Prince 5(4), as in scipy's RK45: nodes, stage weights (row s
# combines stages 0..s-1), the fifth-order weights, the error weights and
# the quartic dense-output matrix
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = ((),
      (1 / 5,),
      (3 / 40, 9 / 40),
      (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5
# A step's sums run over a stack of its start state and stages 0 to 6.  Rows
# 0-4 of the table weigh the stack for the states of stages 1-5, row 5 for
# the new state and row 6 for the error estimate; row 7 holds the stages'
# nodes.  Scaled by the step h, the state's own weight goes back to 1.
_TABLE = np.array([[0.0, *w, *[0.0] * (7 - len(w))] for w in [*_A[1:], _B, _E, _C[1:] + (1.0,)]])


class IntegratorFault(RuntimeError):
    """Integration failed: step-size underflow, a non-finite state or error norm, or a negative excursion."""

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
        if not 0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")


# a run of solver steps, packed: their end times, start states and quartic coefficients
_Steps = tuple[np.ndarray, np.ndarray, np.ndarray]


def _weighted_sum(weights: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """The sum of ``weights[j] * stack[j]`` over the first ``len(weights)`` entries, in order.

    The weights have shape (entries, columns, 1).  A reduction over the
    outer axis adds the terms one after another, the order the short sums
    are written out in.
    """
    terms = stack[:len(weights)] * weights
    if len(terms) == 2:
        return terms[0] + terms[1]
    return np.add.reduce(terms, axis=0)


@dataclass
class Solution:
    """What one ``solve_ivp`` call integrated.

    ``steps[b]`` holds column b's accepted steps, packed: their end times,
    start states and quartic coefficients; ``y_end[b]`` is its end state and
    ``rejected[b]`` counts its rejected steps.  ``nfev`` counts six drift
    evaluations per attempted column-step plus the two start-up calls, which
    evaluate every column at once; so ``(nfev - 2) // 6 - (len(t) - 1)`` is
    the number of rejected column-steps, as for one scipy RK45 solve.
    """

    t0: np.ndarray
    steps: list[_Steps]
    y_end: list[np.ndarray]
    rejected: np.ndarray
    nfev: int

    @property
    def t(self) -> np.ndarray:
        """The first column's start, then every accepted step's end, column after column."""
        return np.concatenate([self.t0[:1], *(ends for ends, _, _ in self.steps)])


def solve_ivp(drift, t0, t1, y0, *, rtol: float, atol: float, max_step: float = np.inf,
              widths: Sequence[int] | None = None) -> Solution:
    """Integrate B columns, column b from ``t0[b]`` to ``t1[b]`` starting at ``y0[b]``.

    Column b's own species are the first ``widths[b]`` of its row (default:
    all); the rest pad it to the batch's width, with a drift of exactly 0.
    Its error norms run over its own species, and its steps, end state and
    fault state are cut back to them.

    ``drift.select(columns)`` returns the drift of those columns (an index
    array into the batch) as ``f``: ``f.at(times)`` takes a table of times,
    one row per evaluation to come and one time per column, and ``f(i, y)``
    evaluates at row i, with one row of ``y`` per column.  When
    ``drift.needs_t`` is false, ``f.at`` is never called and ``f`` takes
    any row.  An iteration's six stages are one table.  Each column
    starts with scipy's initial-step rule and then follows RK45's controller
    on its own, in Python floats: a step is at most ``max_step`` long and
    ends exactly at its column's ``t1``; once a column arrives, it leaves the
    batch.  The stages, the drift and the error norm are array operations
    over the columns still running.  Raises IntegratorFault, with the time
    and state, on step-size underflow, a non-finite state or error norm, or
    a state below ``-10 * atol``.
    """
    y = np.array(y0, dtype=float)
    n_cols, n = y.shape
    own = [n] * n_cols if widths is None else list(widths)
    width = own  # the widths of the columns still running
    t, t_bound = np.asarray(t0, dtype=float).tolist(), np.asarray(t1, dtype=float).tolist()
    if not np.isfinite(y).all():
        b = int(np.flatnonzero(~np.isfinite(y).all(axis=1))[0])
        raise IntegratorFault("non-finite state", time=t[b], state=y[b, :width[b]].copy())
    needs_t = drift.needs_t
    cols = list(range(n_cols))  # the columns still running, in batch order
    log = []  # per lockstep iteration: the columns, step ends and stacks of its accepted steps
    rejections = np.zeros(n_cols, dtype=int)
    y_end = np.empty((n_cols, n))
    attempts = 0
    with np.errstate(all="ignore"):  # every non-finite result is raised as a fault below
        fun = drift.select(np.array(cols))
        if needs_t:
            fun.at(np.array([t]))
        f = fun(0, y)
        h_abs = _initial_step(fun, needs_t, t, t_bound, y, f, rtol, atol, max_step, width)
        rejected = [False] * n_cols  # the column's current step was rejected before
        while cols:
            t_new, h = [], []
            for i, ti in enumerate(t):
                min_step = 10 * (math.nextafter(ti, math.inf) - ti)
                if rejected[i] and h_abs[i] < min_step:
                    raise IntegratorFault(f"step size {h_abs[i]:.3e} below the spacing of times",
                                          time=ti, state=y[i, :width[i]].copy())
                t_new.append(min(ti + min(max(h_abs[i], min_step), max_step), t_bound[i]))
                h.append(t_new[i] - ti)
            # the table times each column's step: (row, stack entry, column, 1)
            weights = np.multiply.outer(_TABLE, np.array(h))[..., None]
            weights[:6, 0] = 1.0
            if needs_t:
                # stage s is at t + c_s h; the last one at t + h
                fun.at(np.array(t) + weights[7, 1:7, :, 0])
            stack = np.empty((8, len(cols), n))
            stack[0] = y
            stack[1] = f
            for s in range(1, 6):
                stack[s + 1] = fun(s - 1, _weighted_sum(weights[s - 1, :s + 1], stack))
            y_new = _weighted_sum(weights[5, :7], stack)
            stack[7] = fun(5, y_new)
            err = _weighted_sum(weights[6, 1:], stack[1:])
            scale = np.maximum(np.abs(y), np.abs(y_new))
            scale *= rtol
            scale += atol
            err /= scale
            attempts += len(cols)
            accepted, done = [], []
            for i, square_sum in enumerate(_square_sums(err, width)):
                norm = math.sqrt(square_sum / width[i])
                if not norm < math.inf:
                    state = y[i] if not np.isfinite(y[i]).all() else y_new[i]
                    kind = "state" if not np.isfinite(state).all() else "error norm"
                    raise IntegratorFault(f"non-finite {kind}", time=t[i], state=state[:width[i]].copy())
                grow = SAFETY * norm ** _ERROR_EXPONENT if norm else math.inf
                if norm < 1:
                    # after a rejection, a step may not grow
                    h_abs[i] = h[i] * min(1.0 if rejected[i] else MAX_FACTOR, grow)
                    rejected[i] = False
                    t[i] = t_new[i]
                    accepted.append(i)
                    if t_new[i] == t_bound[i]:
                        done.append(i)
                else:
                    h_abs[i] = h[i] * max(MIN_FACTOR, grow)
                    rejected[i] = True
                    rejections[cols[i]] += 1
            if len(accepted) == len(cols):
                log.append((cols, t_new, stack))
                y, f = y_new, stack[7]
            elif accepted:
                k = np.array(accepted)
                log.append(([cols[i] for i in accepted], [t_new[i] for i in accepted], stack[:, k]))
                # f is a row of a logged stack, so it is replaced, not written into
                f = f.copy()
                y[k], f[k] = y_new[k], stack[7, k]
            if done:
                y_end[[cols[i] for i in done]] = y[done]
                keep = [i for i in range(len(cols)) if i not in set(done)]
                y, f = y[keep], f[keep]
                cols, t, t_bound, h_abs, rejected, width = (
                    [v[i] for i in keep] for v in (cols, t, t_bound, h_abs, rejected, width))
                if cols:
                    fun = drift.select(np.array(cols))
    y_end = [row[:w] for row, w in zip(y_end, own)]
    if not np.isfinite(np.concatenate(y_end)).all():
        b = next(b for b, row in enumerate(y_end) if not np.isfinite(row).all())
        raise IntegratorFault("non-finite state", time=float(t1[b]), state=y_end[b].copy())
    steps = _pack(log, own)
    floor = min(min(float(y_old.min()) for _, y_old, _ in steps), min(float(row.min()) for row in y_end))
    if floor < -10.0 * atol:
        for b, (ends, y_old, _) in enumerate(steps):
            states = np.concatenate([y_old, y_end[b][None]])
            if states.min() == floor:
                i = int(np.argmin(states.min(axis=1)))
                raise IntegratorFault(f"negative concentration {floor:.3e} beyond fault threshold",
                                      time=float(np.concatenate([[t0[b]], ends])[i]),
                                      state=states[i].copy())
    return Solution(t0=np.array(t0, dtype=float), steps=steps, y_end=y_end,
                    rejected=rejections, nfev=2 + 6 * attempts)


def _initial_step(fun, needs_t, t0: list, t_bound: list, y0, f0, rtol, atol, max_step, width: list) -> list:
    """scipy's ``select_initial_step`` for every column (one more drift evaluation for all)."""
    scale = atol + np.abs(y0) * rtol
    h0, d1 = [], []
    for i, (y_sum, f_sum) in enumerate(zip(_square_sums(y0 / scale, width), _square_sums(f0 / scale, width))):
        d0, d1_i = math.sqrt(y_sum / width[i]), math.sqrt(f_sum / width[i])
        h0.append(min(1e-6 if d0 < 1e-5 or d1_i < 1e-5 else 0.01 * d0 / d1_i, t_bound[i] - t0[i]))
        d1.append(d1_i)
    h0_col = np.array(h0)[:, None]
    if needs_t:
        fun.at(np.array(t0)[None] + h0_col.T)
    f1 = fun(0, y0 + h0_col * f0)
    h_abs = []
    for i, diff_sum in enumerate(_square_sums((f1 - f0) / scale, width)):
        d2 = math.sqrt(diff_sum / width[i]) / h0[i]
        if d1[i] <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0[i] * 1e-3)
        else:
            h1 = (0.01 / max(d1[i], d2)) ** (1 / 5)
        h_abs.append(min(100 * h0[i], h1, t_bound[i] - t0[i], max_step))
    return h_abs


def _square_sums(x: np.ndarray, width: list[int]) -> list[float]:
    """Each row's sum of squares over its first ``width[i]`` entries.

    Zeros past a row's width would change numpy's pairwise grouping of the
    sum, so rows of equal width are reduced together, each over its own.
    """
    squares = x * x
    if min(width) == x.shape[1]:
        return np.add.reduce(squares, axis=1).tolist()
    sums = [0.0] * len(width)
    for w in set(width):
        rows = [i for i, wi in enumerate(width) if wi == w]
        for i, total in zip(rows, np.add.reduce(squares[rows, :w], axis=1).tolist()):
            sums[i] = total
    return sums


def _pack(log, width: list[int]) -> list[_Steps]:
    """Each column's accepted steps from the iteration log, with their quartic coefficients, cut to its width."""
    n_cols = len(width)
    ends = np.fromiter(chain.from_iterable(e for _, e, _ in log), dtype=float)
    stacks = np.concatenate([stack for _, _, stack in log], axis=1)
    # scipy's Q = K.T @ P, summed in stage order into one array
    Q = stacks[1, :, :, None] * _P[0]
    for s in range(1, len(_P)):
        Q += stacks[s + 1, :, :, None] * _P[s]
    if n_cols == 1:
        w = width[0]
        return [(ends, stacks[0, :, :w].copy(), Q if w == stacks.shape[2] else Q[:, :w].copy())]
    cols = np.fromiter(chain.from_iterable(c for c, _, _ in log), dtype=int)
    order = np.argsort(cols, kind="stable")
    bounds = np.cumsum(np.bincount(cols, minlength=n_cols))[:-1]
    steps = list(zip(*(np.split(a[order], bounds) for a in (ends, stacks[0], Q))))
    if min(width) == stacks.shape[2]:
        return steps
    # narrower columns keep copies of their own species, not views of the padded stack
    return [(e, y_old[:, :w].copy(), q[:, :w].copy()) for (e, y_old, q), w in zip(steps, width)]


class _CompiledNetwork:
    """A network laid out for integration: free species first, then the inputs.

    The kernel's buffer holds the free species, then the inputs, then the
    1.0 pad, and its drift covers the free species.  The layout holds no
    signal, so every run on the network shares it; a ``_Piece`` is the
    drift of many columns, of any networks, between two corners.
    """

    def __init__(self, brn: Brn):
        names = brn.species_names
        self.driven_names = [s.name for s in brn.species if s.is_input]
        self.driven_idx = np.array([brn.index_of(nm) for nm in self.driven_names], dtype=int)
        driven_set = set(self.driven_idx.tolist())
        self.free_idx = np.array([i for i in range(len(names)) if i not in driven_set], dtype=int)
        self.n_species = len(names)
        self.n_free = len(self.free_idx)
        self.kernel = MassActionKernel(brn, [names[i] for i in self.free_idx.tolist()] + self.driven_names,
                                       rows=self.n_free)

    def states(self, signal, t: np.ndarray, free_vals: np.ndarray) -> np.ndarray:
        """Full states at the times t, one row per time: free species given, inputs from the signal."""
        values = np.empty((len(t), self.n_species))
        values[:, self.free_idx] = free_vals
        # one time reads the signal's float path, which gives the same values cheaper
        at = float(t[0]) if len(t) == 1 else t
        for pos, nm in zip(self.driven_idx, self.driven_names):
            values[:, pos] = signal.concentration(nm, at)
        return values


class _Piece:
    """The drift of B columns over one piece each, for ``solve_ivp``.

    Column c runs network ``nets[c]`` over ``[a[c], b[c]]``, with no corner
    of its signal inside; ``ends`` holds an encoded column's inputs at a and
    b, shape (B, 2, inputs), padded with zeros to the most inputs of any
    column.  A column's row holds its free species, padded with zeros to
    the most of any column (``rows``); see ``brn.column_drift``.

    An encoded input is linear between two corners: ``u(t) = u(a) + slope (t - a)``.
    A piece with no ramp writes its inputs once per selection of columns.
    Another kind of signal runs alone and reads its species from the signal.
    """

    def __init__(self, nets: Sequence[_CompiledNetwork], signals, a, b, ends):
        self.nets = list(nets)
        self.rows = max(net.n_free for net in self.nets)
        self.a = np.asarray(a, dtype=float)
        if ends is None:
            self.signals = list(signals)
            self.held = max(len(net.driven_names) for net in self.nets)
            self.ramp = False
        else:
            self.signals = None
            self.held = ends.shape[2]
            self.u0 = ends[:, 0]
            self.slope = (ends[:, 1] - ends[:, 0]) / (np.asarray(b, dtype=float) - self.a)[:, None]
            self.ramp = bool(self.slope.any())
        self.needs_t = self.ramp or self.signals is not None or \
            not all(net.kernel.k_static for net in self.nets)

    def select(self, cols: np.ndarray) -> "_Selection":
        """The drift of the columns ``cols``."""
        return _Selection(self, cols)


class _Selection:
    """The drift of some columns of a piece, evaluated at the rows of a table of times.

    ``at(times)`` takes one row of times per evaluation to come, one time
    per column, and computes what depends on time alone for every row at
    once: the rates and the inputs.  ``f(i, y)`` is then the drift at row i,
    with one row of y per column.
    """

    def __init__(self, piece: _Piece, cols: np.ndarray):
        self.rows = piece.rows
        self.rates, self.drift = column_drift([piece.nets[c].kernel for c in cols], self.rows, piece.held)
        self.x = np.empty((len(cols), self.rows + piece.held + 1))
        self.x[:, -1] = 1.0
        self.shape = (len(cols), self.rows)
        self.rate = self.inputs = self.ramp = self.signal = None
        if piece.signals is not None:
            (c,) = cols
            self.signal = piece.signals[c], piece.nets[c].driven_names
        else:
            self.x[:, self.rows:-1] = piece.u0[cols]
            if piece.ramp:
                self.ramp = piece.slope[cols], piece.a[cols], piece.u0[cols]

    def at(self, times: np.ndarray) -> None:
        if self.rates is not None:
            self.rate = self.rates(times)
        if self.ramp is not None:
            slope, a, u0 = self.ramp
            self.inputs = slope * (times - a)[..., None] + u0
        elif self.signal is not None:
            signal, names = self.signal
            self.inputs = np.array([[[signal.concentration(nm, float(t)) for nm in names]] for t in times[:, 0]])

    def __call__(self, i: int, y: np.ndarray) -> np.ndarray:
        x = self.x
        x[:, :self.rows] = y
        if self.inputs is not None:
            x[:, self.rows:-1] = self.inputs[i]
        return self.drift(x, None if self.rate is None else self.rate[i]).reshape(self.shape)


@dataclass(frozen=True)
class SolverStats:
    """What integrating one run cost: solver pieces, drift evaluations, steps, and the smallest step.

    A run integrated in a batch counts the pieces and steps of its own
    trajectory, including blocks it shares with other runs, and for each
    piece the two start-up evaluations; so the counts are those of the run
    alone.
    """

    pieces: int = 0
    nfev: int = 0
    accepted: int = 0
    rejected: int = 0
    min_step: float = math.inf

    def __add__(self, other: "SolverStats") -> "SolverStats":
        return SolverStats(self.pieces + other.pieces, self.nfev + other.nfev,
                           self.accepted + other.accepted, self.rejected + other.rejected,
                           min(self.min_step, other.min_step))


@dataclass
class Trace:
    """Integrated concentrations with a dense evaluator.

    ``values`` holds the sampled grid (rows: times, columns: species).
    ``_dense`` maps a 1-D array of times inside ``[0, t_end]`` to the states
    there, one row per time (the solver's ``DenseTable`` for ``integrate``);
    ``value``/``state_at`` read through it with one call per request.
    ``stats`` is the adaptive solver's cost (None for other traces).
    """

    names: tuple[str, ...]
    times: np.ndarray
    values: np.ndarray
    t_end: float
    _dense: Callable[[np.ndarray], np.ndarray]
    stats: SolverStats | None = None

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


def _packed(pieces: Sequence[_Steps]) -> _Steps:
    """Consecutive pieces joined into one run of steps."""
    if len(pieces) == 1:
        return pieces[0]
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
    twice and runs share the blocks they have in common; each segment a set
    of times touches takes one vectorised quartic.  Calling the table gives
    full states: integrated species clamped at zero, inputs filled in by
    ``fill(t, free_values)``.
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


@dataclass
class _Column:
    """One column of a segment batch: its network, signal, start state and piece boundaries."""

    net: _CompiledNetwork
    signal: object
    y0: np.ndarray
    bounds: np.ndarray  # the segment's start, the signal's corners inside it, its end


def _integrate_segments(columns: Sequence[_Column], rtol: float, atol: float,
                        max_step: float) -> list[tuple[_Steps, np.ndarray, SolverStats]]:
    """Integrate each column over its own pieces; round r takes every column's r-th piece in one call.

    Returns, per column, its packed steps, its end state and what they cost.
    """
    encoded = all(isinstance(col.signal, InputSignal) for col in columns)
    held = max(len(col.net.driven_names) for col in columns)
    inputs = []  # an encoded column's inputs at its piece boundaries: (boundaries, inputs), zero-padded
    for col in columns if encoded else ():
        values = np.zeros((len(col.bounds), held))
        for j, nm in enumerate(col.net.driven_names):
            values[:, j] = col.signal.concentration(nm, col.bounds)
        inputs.append(values)
    y = np.zeros((len(columns), max(col.net.n_free for col in columns)))
    for c, col in enumerate(columns):
        y[c, :col.net.n_free] = col.y0
    pieces: list[list[_Steps]] = [[] for _ in columns]
    stats = [SolverStats() for _ in columns]
    for r in range(max(len(col.bounds) for col in columns) - 1):
        live = [c for c, col in enumerate(columns) if len(col.bounds) - 1 > r]
        a = np.array([columns[c].bounds[r] for c in live])
        b = np.array([columns[c].bounds[r + 1] for c in live])
        ends = np.array([inputs[c][r:r + 2] for c in live]) if encoded else None
        drift = _Piece([columns[c].net for c in live], [columns[c].signal for c in live], a, b, ends)
        sol = solve_ivp(drift, a, b, y[live, :drift.rows], rtol=rtol, atol=atol, max_step=max_step,
                        widths=[columns[c].net.n_free for c in live])
        for i, c in enumerate(live):
            y[c, :len(sol.y_end[i])] = sol.y_end[i]
            steps = sol.steps[i]
            pieces[c].append(steps)
            accepted, rejected = len(steps[0]), int(sol.rejected[i])
            stats[c] += SolverStats(1, 2 + 6 * (accepted + rejected), accepted, rejected,
                                    float(np.diff(steps[0], prepend=a[i]).min()))
    return [(_packed(p), y[c, :col.net.n_free], stats[c]) for c, (col, p) in enumerate(zip(columns, pieces))]


def _bounds(corners: np.ndarray, a: float, b: float) -> np.ndarray:
    """A segment's piece boundaries: its start, the corners strictly inside, its end."""
    return np.concatenate([[a], corners[(corners > a) & (corners < b)], [b]])


def integrate(brn, x0, signal, config):
    """Integrate the driven system from x0 over [0, t_end], for one run or many.

    Given a network, an initial state, a signal and a ``SimConfig``, returns
    the run's ``Trace``.  Given four equally long lists instead (one entry
    per run), integrates the runs together and returns their traces in
    order; each is the one its run gives alone, to the bit.

    Species of input kind are clamped to the signal at all times (their
    entries in x0 are ignored); everything else follows the mass-action
    drift.  The solver restarts at every corner of the signal
    (``critical_times()``), so no step straddles a kink and each piece picks
    a fresh step size; a step is at most ``tau/3`` long when the signal has
    a spec.  A run's trajectory is a chain of segments: the symbol blocks of
    its word that end by ``t_end``, then the tail.  Runs with the same
    tolerances and ``tau`` integrate together whatever their networks: runs
    on one network share every block whose word prefix and free initial
    state they share, each level of their word tries is one batch of
    distinct blocks, and their distinct tails are one batch.  The
    trace samples ``SAMPLE_INTERVALS + 1`` evenly spaced times.  Raises
    IntegratorFault as ``solve_ivp`` does; negative excursions within ten
    times the absolute tolerance are clamped to zero in the outputs.
    """
    if isinstance(config, SimConfig):
        return _integrate_runs([(brn, x0, signal, config)])[0]
    return _integrate_runs(list(zip(brn, x0, signal, config, strict=True)))


@dataclass
class _Plan:
    """How one run's trajectory splits into segments: its symbol blocks, then its tail.

    A block's key is the run's origin (its batch and free initial state) and
    the word prefix up to it; the tail's key adds what else the tail
    depends on.  Runs share every segment whose key they share.
    """

    net: _CompiledNetwork
    signal: object
    corners: np.ndarray
    origin: tuple
    y0: np.ndarray
    blocks: tuple  # the symbols whose blocks end by t_end
    tail: tuple | None  # the tail's key; None when the last block ends at t_end
    tau: float | None
    t_end: float

    def segments(self) -> list[tuple]:
        """Each segment's key, its parent's key (None for the first), start and end."""
        out, parent = [], None
        for k in range(1, len(self.blocks) + 1):
            key = (self.origin, self.blocks[:k])
            out.append((key, parent, 3 * (k - 1) * self.tau, 3 * k * self.tau))
            parent = key
        if self.tail is not None:
            start = 3 * len(self.blocks) * self.tau if parent else 0.0
            out.append((self.tail, parent, start, self.t_end))
        return out


def _integrate_runs(runs) -> list[Trace]:
    nets: list[tuple[Brn, _CompiledNetwork]] = []  # one layout per distinct network
    plans: list[_Plan] = []
    batches: dict[tuple, list[_Plan]] = {}  # tolerances and tau -> runs, of any networks
    for r, (brn, x0, signal, config) in enumerate(runs):
        g = next((g for g, (other, _) in enumerate(nets) if other == brn), len(nets))
        if g == len(nets):
            nets.append((brn, _CompiledNetwork(brn)))
        net = nets[g][1]
        spec = signal.spec if isinstance(signal, InputSignal) else None
        tau = spec.tau if spec is not None else None
        # only blocks that end within [0, t_end] are blocks; the rest is the tail
        blocks = () if spec is None else \
            spec.word[:sum(3 * i * tau <= config.t_end for i in range(1, spec.length + 1))]
        y0 = np.asarray(x0.values, dtype=float)[net.free_idx]
        # another kind of signal runs in a batch of its own
        batch = (config.rel_tol, config.abs_tol, tau, None if spec is not None else r)
        # blocks are shared only within one network
        origin = (g, batch, y0.tobytes())
        # a tail depends on the rest of the word too
        tail = (origin, blocks, spec.word if spec is not None else None, config.t_end) \
            if 3 * len(blocks) * (tau or 0.0) < config.t_end else None
        plans.append(_Plan(net, signal, np.asarray(signal.critical_times(), dtype=float), origin,
                           y0, blocks, tail, tau, config.t_end))
        batches.setdefault(batch, []).append(plans[-1])

    segments: dict[tuple, tuple[_Steps, np.ndarray, SolverStats]] = {}
    for (rtol, atol, tau, _), members in batches.items():
        # the word trie level by level: the distinct blocks of level k, each
        # from its parent's end state; then the distinct tails.  A batch maps
        # a segment key to its first run, parent, start and end.
        depth = max(len(plan.blocks) for plan in members)
        levels: list[dict] = [{} for _ in range(depth + 1)]
        for plan in members:
            for key, parent, a, b in plan.segments():
                k = len(key[1]) - 1 if len(key) == 2 else depth
                levels[k].setdefault(key, (plan, parent, a, b))
        for batch in levels:
            if batch:
                columns = [_Column(plan.net, plan.signal, segments[parent][1] if parent else plan.y0,
                                   _bounds(plan.corners, a, b))
                           for plan, parent, a, b in batch.values()]
                segments.update(zip(batch, _integrate_segments(
                    columns, rtol, atol, tau / 3.0 if tau else np.inf)))

    traces = []
    for (brn, _, _, config), plan in zip(runs, plans):
        parts = [segments[key] for key, _, _, _ in plan.segments()]
        stats = SolverStats()
        for _, _, cost in parts:
            stats += cost
        dense = DenseTable([steps for steps, _, _ in parts], partial(plan.net.states, plan.signal))
        t_grid = np.linspace(0.0, config.t_end, SAMPLE_INTERVALS + 1)
        traces.append(Trace(names=brn.species_names, times=t_grid, values=dense(t_grid),
                            t_end=config.t_end, _dense=dense, stats=stats))
    return traces


def integrate_fixed_step(brn: Brn, x0: ConcState, signal, config: SimConfig,
                         h: float) -> Trace:
    """Classical fixed-step fourth-order Runge-Kutta cross-check integrator."""
    net = _CompiledNetwork(brn)
    nf, drift, x = net.n_free, net.kernel.drift(), net.kernel.buffer()

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        x[:nf] = y
        x[nf:net.n_species] = [signal.concentration(nm, t) for nm in net.driven_names]
        return drift(t, x)

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
    return Trace(names=brn.species_names, times=t_grid, values=net.states(signal, t_grid, free_vals),
                 t_end=config.t_end, _dense=lambda t: net.states(signal, t, np.maximum(free_at(t), 0.0)))


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
