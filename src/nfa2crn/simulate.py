"""Integration of the driven mass-action system and threshold decisions.

Input species are held to the signal rather than integrated: they appear only
as catalysts, so their own drift is identically zero and clamping eliminates
accumulation error.  The remaining species integrate under ``solve_ivp``, a
Dormand-Prince 5(4) pair with scipy's RK45 tableau, error norm and step-size
controller, written for columns: it advances B independent problems in
lockstep, each with its own time, step size and accept/reject decision.
Every sum it forms (stage sums, the stoichiometry's accumulate, the error
norm) has a fixed order, so a column's result is the same to the bit
whatever B is and wherever the column sits in the batch.  A network's
conserved pairs are read from its stoichiometry: two species whose net
effects are opposite in every reaction have exactly opposite drifts at every
state, so their sum is conserved to rounding by construction.

The solver restarts at every corner of the signal, so no step straddles a
kink, and at most ``tau/3`` is taken at once.  Between two corners an encoded
input is linear in t, so a batch of segments compiles its drift once and each
round of pieces selects its columns from it: constant inputs are written once
per piece, and what depends on time alone (a ramp, the rates) is computed for
all six stages of a step at once.  A signal is read
only through its ``concentration``; every run on a network shares one layout
of it and its kernel.  ``integrate`` takes one run or many.  A word's input
is a chain of symbol blocks of ``3 tau``, so runs with the same tolerances
and ``tau`` integrate their word tries level by level: every distinct block
of level k in one batch, then every tail in one batch.  A batch holds
columns of any networks: each column carries its network, its free species
padded with zeros to the widest column's, and its error norm runs over its
own species, so its arithmetic is the one it has alone.  Blocks are shared
only within one network.

Every run gives one ``Trace``.  It holds the states where the solver stops
anyway: the start, the end of each symbol block and the end of the run, as
the solver left them.  It also holds each conserved pair's largest drift over
the run's step start states and its end state, and what the run cost.  The
stepper hands each iteration's accepted steps to a consumer as it makes
them, and each ``integrate`` call chooses whether its runs keep their steps.
A run that keeps them gets a table of its solver steps (``DenseTable``), and
its trace reads any time: one search and one vectorised quartic per symbol
block.  A run that does not keep them has its pair drift folded in batches
soon after its steps are accepted, so it holds neither its steps nor a
sample grid.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .analysis import HIGH_THRESHOLD, LOW_THRESHOLD
from .brn import Brn, ColumnDrift, MassActionKernel
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
    "decide",
    "check_phi",
    "phi_slack",
]

# a trace's sample grid: t_end split into this many equal intervals
SAMPLE_INTERVALS = 400
# a batch folds the start states it holds into its pair maxima once they are about this many
_PENDING_STEPS = 64

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

    ``ends[b]`` holds column b's accepted step ends, ``y_end[b]`` its end
    state and ``rejected[b]`` the number of its rejected steps; the steps
    themselves went to the call's consumer.  ``nfev`` counts six drift
    evaluations per attempted column-step plus the two start-up calls, which
    evaluate every column at once; so ``(nfev - 2) // 6 - (len(t) - 1)`` is
    the number of rejected column-steps, as for one scipy RK45 solve.
    """

    t0: np.ndarray
    ends: list[np.ndarray]
    y_end: list[np.ndarray]
    rejected: np.ndarray
    nfev: int

    @property
    def t(self) -> np.ndarray:
        """The first column's start, then every accepted step's end, column after column."""
        return np.concatenate([self.t0[:1], *self.ends])


def solve_ivp(drift, t0, t1, y0, *, rtol: float, atol: float, max_step: float = np.inf,
              widths: Sequence[int] | None = None, consumer) -> Solution:
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
    over the columns still running.

    Each iteration hands its accepted steps to ``consumer(rows, cols, t_old,
    t_new, stack)``: their rows in ``stack`` (the start states, then the
    seven stages, of the columns running; padded), their columns, start
    times and end times: a ``_StepLog`` keeps them, ``_Readings`` folds
    their start states into pair maxima.  Raises IntegratorFault, with
    the time and state, on step-size underflow, a non-finite state or error
    norm, or a state below ``-10 * atol`` (the lowest one, once every column
    arrived).
    """
    y = np.array(y0, dtype=float)
    n_cols, n = y.shape
    own = [n] * n_cols if widths is None else list(widths)
    width = own  # the widths of the columns still running
    groups = _width_groups(width, n)
    t, t_bound = np.asarray(t0, dtype=float).tolist(), np.asarray(t1, dtype=float).tolist()
    if not np.isfinite(y).all():
        b = int(np.flatnonzero(~np.isfinite(y).all(axis=1))[0])
        raise IntegratorFault("non-finite state", time=t[b], state=y[b, :width[b]].copy())
    needs_t = drift.needs_t
    cols = list(range(n_cols))  # the columns still running, in batch order
    ends = []  # per lockstep iteration: the columns and ends of its accepted steps
    floor = -10.0 * atol
    lowest: dict[int, tuple] = {}  # per column, its first lowest state below the floor: value, time, state
    if y.min() < floor:
        _note_lowest(lowest, y, cols, t, width, floor)
    rejections = np.zeros(n_cols, dtype=int)
    y_end = np.empty((n_cols, n))
    attempts = 0
    with np.errstate(all="ignore"):  # every non-finite result is raised as a fault below
        fun = drift.select(np.array(cols))
        if needs_t:
            fun.at(np.array([t]))
        f = fun(0, y)
        h_abs = _initial_step(fun, needs_t, t, t_bound, y, f, rtol, atol, max_step, width, groups)
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
            t_old = t.copy()
            accepted, done = [], []
            for i, square_sum in enumerate(_square_sums(err, groups)):
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
                consumer(accepted, cols, t_old, t_new, stack)
                ends.append((cols, t_new))
                y, f = y_new, stack[7]
                if y.min() < floor:
                    _note_lowest(lowest, y, cols, t_new, width, floor)
            elif accepted:
                k = np.array(accepted)
                moved, starts, arrivals = ([v[i] for i in accepted] for v in (cols, t_old, t_new))
                consumer(accepted, moved, starts, arrivals, stack)
                ends.append((moved, arrivals))
                # f is a row of a kept stack, so it is replaced, not written into
                f = f.copy()
                y[k], f[k] = y_new[k], stack[7, k]
                if y[k].min() < floor:
                    _note_lowest(lowest, y[k], moved, arrivals, [width[i] for i in accepted], floor)
            if done:
                y_end[[cols[i] for i in done]] = y[done]
                keep = [i for i in range(len(cols)) if i not in set(done)]
                y, f = y[keep], f[keep]
                cols, t, t_bound, h_abs, rejected, width = (
                    [v[i] for i in keep] for v in (cols, t, t_bound, h_abs, rejected, width))
                if cols:
                    fun = drift.select(np.array(cols))
                    groups = _width_groups(width, n)
    y_end = [row[:w] for row, w in zip(y_end, own)]
    if not np.isfinite(np.concatenate(y_end)).all():
        b = next(b for b, row in enumerate(y_end) if not np.isfinite(row).all())
        raise IntegratorFault("non-finite state", time=float(t1[b]), state=y_end[b].copy())
    if lowest:
        value = min(v for v, _, _ in lowest.values())
        _, time, state = lowest[min(c for c, (v, _, _) in lowest.items() if v == value)]
        raise IntegratorFault(f"negative concentration {value:.3e} beyond fault threshold", time=time, state=state)
    ends = _by_column([c for c, _ in ends], np.fromiter(chain.from_iterable(e for _, e in ends), dtype=float),
                      n_cols)
    return Solution(t0=np.array(t0, dtype=float), ends=ends, y_end=y_end, rejected=rejections,
                    nfev=2 + 6 * attempts)


def _note_lowest(lowest: dict, states: np.ndarray, cols: list, times: list, width: list, floor: float) -> None:
    """Keep each column's first state whose lowest value is below ``floor`` and below all it had before."""
    for row, c, t, w in zip(states, cols, times, width):
        value = float(row[:w].min())
        if value < floor and (c not in lowest or value < lowest[c][0]):
            lowest[c] = (value, t, row[:w].copy())


def _initial_step(fun, needs_t, t0: list, t_bound: list, y0, f0, rtol, atol, max_step, width: list,
                  groups) -> list:
    """scipy's ``select_initial_step`` for every column (one more drift evaluation for all)."""
    scale = atol + np.abs(y0) * rtol
    h0, d1 = [], []
    for i, (y_sum, f_sum) in enumerate(zip(_square_sums(y0 / scale, groups), _square_sums(f0 / scale, groups))):
        d0, d1_i = math.sqrt(y_sum / width[i]), math.sqrt(f_sum / width[i])
        h0.append(min(1e-6 if d0 < 1e-5 or d1_i < 1e-5 else 0.01 * d0 / d1_i, t_bound[i] - t0[i]))
        d1.append(d1_i)
    h0_col = np.array(h0)[:, None]
    if needs_t:
        fun.at(np.array(t0)[None] + h0_col.T)
    f1 = fun(0, y0 + h0_col * f0)
    h_abs = []
    for i, diff_sum in enumerate(_square_sums((f1 - f0) / scale, groups)):
        d2 = math.sqrt(diff_sum / width[i]) / h0[i]
        if d1[i] <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0[i] * 1e-3)
        else:
            h1 = (0.01 / max(d1[i], d2)) ** (1 / 5)
        h_abs.append(min(100 * h0[i], h1, t_bound[i] - t0[i], max_step))
    return h_abs


def _width_groups(width: list[int], n: int) -> list[tuple[int, np.ndarray]] | None:
    """The rows of each width, for ``_square_sums``; None when every row is ``n`` wide."""
    if min(width) == n:
        return None
    return [(w, np.flatnonzero(np.array(width) == w)) for w in set(width)]


def _square_sums(x: np.ndarray, groups: list[tuple[int, np.ndarray]] | None) -> list[float]:
    """Each row's sum of squares over its own width (see ``_width_groups``).

    Zeros past a row's width would change numpy's pairwise grouping of the
    sum, so rows of equal width are reduced together, each over its own.
    """
    squares = x * x
    if groups is None:
        return np.add.reduce(squares, axis=1).tolist()
    sums = np.empty(len(x))
    for w, rows in groups:
        sums[rows] = np.add.reduce(squares[rows, :w], axis=1)
    return sums.tolist()


def _by_column(cols: list[list[int]], rows: np.ndarray, n_cols: int) -> list[np.ndarray]:
    """Rows logged iteration by iteration, one per column in ``cols``, split per column in order."""
    if n_cols == 1:
        return [rows]
    owner = np.fromiter(chain.from_iterable(cols), dtype=int)
    order = np.argsort(owner, kind="stable")
    return np.split(rows[order], np.cumsum(np.bincount(owner, minlength=n_cols))[:-1])


def _quartic(stages: np.ndarray) -> np.ndarray:
    """scipy's dense output ``Q = K.T @ P`` of steps' seven stages (7, steps, n), summed in stage order."""
    Q = stages[0, :, :, None] * _P[0]
    for s in range(1, len(_P)):
        Q += stages[s, :, :, None] * _P[s]
    return Q


def _interpolate(h: np.ndarray, x: np.ndarray, y_old: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """scipy's quartic ``y_old + h (Q @ [x, x^2, x^3, x^4])``, one row per step and time."""
    powers = np.cumprod(np.repeat(x[:, None], Q.shape[2], axis=1), axis=1)
    return h[:, None] * np.einsum("kij,kj->ki", Q, powers) + y_old


class _StepLog:
    """A ``solve_ivp`` consumer that keeps every accepted step, for a ``DenseTable``."""

    def __init__(self):
        self.cols, self.stacks = [], []

    def __call__(self, rows, cols, t_old, t_new, stack):
        self.cols.append(cols)
        self.stacks.append(stack if len(rows) == stack.shape[1] else stack[:, rows])

    def steps(self, ends: list[np.ndarray], width: list[int]) -> list[_Steps]:
        """Each column's steps, packed, with their quartic coefficients; cut to its width, as copies."""
        stacks = np.concatenate(self.stacks, axis=1)
        y_old = _by_column(self.cols, stacks[0], len(width))
        Q = _by_column(self.cols, _quartic(stacks[1:]), len(width))
        return [(e, y[:, :w].copy() if len(width) == 1 or w < y.shape[1] else y,
                 q if w == q.shape[1] else q[:, :w].copy()) for e, y, q, w in zip(ends, y_old, Q, width)]


class _CompiledNetwork:
    """A network laid out for integration: free species first, then the inputs.

    The kernel's buffer holds the free species, then the inputs, then the
    1.0 pad, and its drift covers the free species.  The layout holds no
    signal, so every run on the network shares it; a ``_Piece`` is the
    drift of many columns, of any networks, between two corners.  ``pairs``
    are its conserved pairs: the positions i < j of two free species whose
    net effects are exact negatives in every reaction, and not all zero.
    """

    def __init__(self, brn: Brn):
        names = brn.species_names
        self.driven_names = [s.name for s in brn.species if s.is_input]
        self.driven_idx = np.array([brn.index_of(nm) for nm in self.driven_names], dtype=int)
        driven_set = set(self.driven_idx.tolist())
        self.free_idx = np.array([i for i in range(len(names)) if i not in driven_set], dtype=int)
        self.free_names = [names[i] for i in self.free_idx.tolist()]
        self.n_species = len(names)
        self.n_free = len(self.free_idx)
        self.kernel = MassActionKernel(brn, self.free_names + self.driven_names, rows=self.n_free)
        rows = self.kernel.stoich[:self.n_free]
        opposite, rows = (-rows).tolist(), rows.tolist()
        self.pairs = [(i, j) for i, row in enumerate(opposite) if any(row)
                      for j in range(i + 1, self.n_free) if rows[j] == row]

    def states(self, signal, t: np.ndarray, free_vals: np.ndarray) -> np.ndarray:
        """Full states at the times t, one row per time: free species given, inputs from the signal."""
        values = np.empty((len(t), self.n_species))
        values[:, self.free_idx] = free_vals
        for pos, nm in zip(self.driven_idx, self.driven_names):
            values[:, pos] = signal.concentration(nm, t)
        return values


class _Piece:
    """The drift of B columns over one piece each, for ``solve_ivp``.

    Column c runs from ``a[c]`` to its signal's next corner or its
    segment's end; ``drift`` is the columns' compiled ``ColumnDrift``, a
    row its free species padded to ``drift.rows``.  An encoded input is
    linear between two corners, ``u(t) = u0 + slope (t - a)``, one row of
    ``u0`` and ``slope`` per column, padded to ``drift``'s held species; a
    piece with no ramp writes its inputs into its buffer once.  Another
    kind of signal runs alone, read at every evaluation: ``signal`` is the
    signal and the names of its inputs.

    ``select(cols)`` is the piece of some of its columns.  ``at(times)``
    takes one row of times per evaluation to come, one time per column, and
    computes what depends on time alone for every row at once: the rates
    and the inputs.  ``f(i, y)`` is then the drift at row i, with one row
    of y per column.
    """

    def __init__(self, drift: ColumnDrift, a: np.ndarray, u0=None, slope=None, signal=None):
        self.drift, self.a, self.u0, self.slope, self.signal = drift, a, u0, slope, signal
        self.rows = drift.rows
        self.ramp = slope is not None and bool(slope.any())
        self.needs_t = self.ramp or signal is not None or drift.rates is not None
        self.x = np.ones((drift.n_cols, drift.width))  # the last column is the 1.0 pad
        if u0 is not None:
            self.x[:, self.rows:-1] = u0
        self.rate = self.inputs = None

    def select(self, cols: np.ndarray) -> "_Piece":
        if len(cols) == self.drift.n_cols:
            return self
        return _Piece(self.drift.select(cols), self.a[cols], self.u0[cols], self.slope[cols])

    def at(self, times: np.ndarray) -> None:
        if self.drift.rates is not None:
            self.rate = self.drift.rates(times)
        if self.ramp:
            self.inputs = self.slope * (times - self.a)[..., None] + self.u0
        elif self.signal is not None:
            signal, names = self.signal
            self.inputs = np.array([[[signal.concentration(nm, float(t)) for nm in names]] for t in times[:, 0]])

    def __call__(self, i: int, y: np.ndarray) -> np.ndarray:
        x = self.x
        x[:, :self.rows] = y
        if self.inputs is not None:
            x[:, self.rows:-1] = self.inputs[i]
        return self.drift.drift(x, None if self.rate is None else self.rate[i]).reshape(-1, self.rows)


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
    """One integrated run: its kept states, its conserved pairs' drift and its cost, and its steps if kept.

    ``points`` maps the run's start, the end of each of its symbol blocks
    and its end to the full state there: the solver's own start and segment
    end states, clamped at zero, inputs filled in from the signal.
    ``deviation`` maps each conserved pair (a, b) of the network to the
    largest ``|a + b - c0|`` over the start state of every step and the end
    state, c0 being the pair's initial total.  ``stats`` is the adaptive
    solver's cost (None for other traces).

    A run that keeps its steps also has ``_dense``, which maps a 1-D array
    of times inside ``[0, t_end]`` to the states there, one row per time
    (the solver's ``DenseTable`` for ``integrate``), and ``values``, its
    states on the sample grid ``times`` (rows: times, columns: species);
    for other runs the three are None.  ``state_at`` reads a kept time from
    ``points`` and any other time through ``_dense``, as ``value`` reads
    every time, with one call per request.
    """

    names: tuple[str, ...]
    times: np.ndarray | None
    values: np.ndarray | None
    t_end: float
    _dense: Callable[[np.ndarray], np.ndarray] | None
    stats: SolverStats | None = None
    points: dict[float, np.ndarray] = field(default_factory=dict)
    deviation: dict[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self):
        self._index = {nm: i for i, nm in enumerate(self.names)}

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self._index[name]]

    def _states(self, t) -> np.ndarray:
        if self._dense is None:
            raise ValueError(f"t={t} is not a kept time")
        return self._dense(_in_range(np.atleast_1d(np.asarray(t, dtype=float)), self.t_end))

    def state_at(self, t: float) -> np.ndarray:
        state = self.points.get(float(t))
        return self._states(t)[0] if state is None else state

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


def _in_range(t: np.ndarray, t_end: float) -> np.ndarray:
    """The times t clamped to ``t_end``; raises ValueError for one outside ``[0, t_end]`` beyond rounding."""
    outside = ~((t >= 0) & (t <= t_end + 1e-12))
    if outside.any():
        raise ValueError(f"t={t[outside][0]} outside trace range [0, {t_end}]")
    return np.minimum(t, t_end)


def trace_from_csv(fileobj) -> Trace:
    """Reload a trace CSV; values interpolate linearly between sampled rows.

    Raises ValueError, naming the first bad data row (1 is the first after
    the header), for a non-finite cell or a ``t`` not above the row before.
    """
    reader = csv.reader(fileobj)
    header = next(reader)
    if not header or header[0] != "t":
        raise ValueError("trace CSV must start with a 't' column")
    rows = [[float(v) for v in row] for row in reader if row]
    data = np.asarray(rows)
    if data.size == 0:
        raise ValueError("trace CSV has no rows")
    times, values = data[:, 0], data[:, 1:]
    bad = ~np.isfinite(data).all(axis=1)
    bad[1:] |= ~(np.diff(times) > 0)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"trace CSV row {row + 1}: "
                         + ("a non-finite cell" if not np.isfinite(data[row]).all() else
                            f"t={times[row]!r} does not increase past the row before"))
    # np.interp holds the first and the last row outside the sampled times
    return Trace(names=tuple(header[1:]), times=times, values=values, t_end=float(times[-1]),
                 _dense=lambda t: np.maximum(np.column_stack([np.interp(t, times, v) for v in values.T]), 0.0))


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
        segment = np.searchsorted(self._first_step, i, side="right") - 1
        out = np.empty((len(t), self._segments[0][1].shape[1]))
        for s in set(segment.tolist()):
            rows = segment == s
            _, y_old, Q = self._segments[s]
            k = i[rows] - self._first_step[s]
            out[rows] = _interpolate(h[rows], x[rows], y_old[k], Q[k])
        return out

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return self._fill(t, np.maximum(self.free(t), 0.0))


@dataclass
class _Column:
    """One column of a segment batch: its network, signal, start state and piece boundaries, and
    the free initial state of its runs, whose pair totals its drift is measured from."""

    net: _CompiledNetwork
    signal: object
    y0: np.ndarray
    bounds: np.ndarray  # the segment's start, the signal's corners inside it, its end
    initial: np.ndarray


def _integrate_segments(columns: Sequence[_Column], rtol: float, atol: float, max_step: float,
                        steps: bool) -> list[tuple[_Steps | None, np.ndarray, SolverStats, np.ndarray]]:
    """Integrate each column over its own pieces; round r takes every column's r-th piece in one call.

    The columns' drift is compiled once, and each round selects its columns
    from it.  Each call's steps go to a ``_Readings``, which folds them into
    the columns' pair maxima, or, when the columns keep their ``steps``, to a
    fresh ``_StepLog``, and the ``_Readings`` folds each column's packed
    start states once.  Returns, per column, its packed steps (None unless
    kept), its end state, what they cost and its pairs' maxima (in the order
    of ``net.pairs``).
    """
    encoded = all(isinstance(col.signal, InputSignal) for col in columns)
    held = max(len(col.net.driven_names) for col in columns)
    inputs = []  # an encoded column's inputs at its piece boundaries: (boundaries, inputs), zero-padded
    for col in columns if encoded else ():
        values = np.zeros((len(col.bounds), held))
        for j, nm in enumerate(col.net.driven_names):
            values[:, j] = col.signal.concentration(nm, col.bounds)
        inputs.append(values)
    rows = max(col.net.n_free for col in columns)
    y = np.zeros((len(columns), rows))
    for c, col in enumerate(columns):
        y[c, :col.net.n_free] = col.y0
    compiled = ColumnDrift.compile([col.net.kernel for col in columns], rows, held)
    readings = _Readings(columns)
    pieces: list[list[_Steps]] = [[] for _ in columns]
    stats = [SolverStats() for _ in columns]
    for r in range(max(len(col.bounds) for col in columns) - 1):
        live = [c for c, col in enumerate(columns) if len(col.bounds) - 1 > r]
        a = np.array([columns[c].bounds[r] for c in live])
        b = np.array([columns[c].bounds[r + 1] for c in live])
        drift = compiled.select(np.array(live))
        if encoded:
            ends = np.array([inputs[c][r:r + 2] for c in live])
            piece = _Piece(drift, a, ends[:, 0], (ends[:, 1] - ends[:, 0]) / (b - a)[:, None])
        else:
            (c,) = live
            piece = _Piece(drift, a, signal=(columns[c].signal, columns[c].net.driven_names))
        readings.live = live
        widths = [columns[c].net.n_free for c in live]
        consumer = _StepLog() if steps else readings
        sol = solve_ivp(piece, a, b, y[live], rtol=rtol, atol=atol, max_step=max_step,
                        widths=widths, consumer=consumer)
        if steps:
            for c, logged in zip(live, consumer.steps(sol.ends, widths)):
                pieces[c].append(logged)
        for i, c in enumerate(live):
            y[c, :len(sol.y_end[i])] = sol.y_end[i]
            accepted, rejected = len(sol.ends[i]), int(sol.rejected[i])
            stats[c] += SolverStats(1, 2 + 6 * (accepted + rejected), accepted, rejected,
                                    float(np.diff(sol.ends[i], prepend=a[i]).min()))
    packed = [_packed(p) if p else None for p in pieces]
    if steps:
        for c, (_, starts, _) in enumerate(packed):
            readings.deviate(starts, np.full(len(starts), c))
    readings.close(y)
    return [(segment, y[c, :col.net.n_free], stats[c], readings.deviation[c, :len(col.net.pairs)])
            for c, (col, segment) in enumerate(zip(columns, packed))]


def _bounds(corners: np.ndarray, a: float, b: float) -> np.ndarray:
    """A segment's piece boundaries: its start, the corners strictly inside, its end."""
    return np.concatenate([[a], corners[(corners > a) & (corners < b)], [b]])


class _Readings:
    """A ``solve_ivp`` consumer: the conserved pairs' largest drift in each segment of one batch.

    Column c is a segment of the runs that share its network and free
    initial state, so ``deviation[c]``, each pair's largest ``|a + b - c0|``
    over its steps' start states and its end state, holds for every run
    that takes it.  The start states of the accepted steps wait, across the
    batch's pieces, until they hold ``_PENDING_STEPS`` rows or the batch
    ends (``close``), and are then read together, so an iteration adds no
    array operation.  Every call of a batch pads its rows to one width, and
    ``live`` maps the current call's columns to segments.
    """

    def __init__(self, columns: Sequence[_Column]):
        slots = max([1, *(len(col.net.pairs) for col in columns)])
        # each pair's species in its column's row and its initial total; padding reads species 0, never read back
        self.pairs = np.zeros((2, len(columns), slots), dtype=int)
        self.c0 = np.zeros((len(columns), slots))
        for c, col in enumerate(columns):
            for m, (i, j) in enumerate(col.net.pairs):
                self.pairs[:, c, m] = i, j
                self.c0[c, m] = col.initial[i] + col.initial[j]
        self.deviation = np.full(self.c0.shape, -math.inf)
        self.live: list[int] = []
        self.starts, self.rows, self.owner, self.held = [], [], [], 0

    def __call__(self, rows, cols, t_old, t_new, stack):
        self.starts.append(stack[0])
        self.rows.extend(self.held + i for i in rows)
        self.owner.extend(self.live[c] for c in cols)
        self.held += stack.shape[1]
        if self.held >= _PENDING_STEPS:
            self.flush()

    def flush(self) -> None:
        """Fold the start states held into their segments' pair maxima."""
        if self.starts:
            y = self.starts[0] if len(self.starts) == 1 else np.concatenate(self.starts)
            self.deviate(y[self.rows], np.array(self.owner))
            self.starts, self.rows, self.owner, self.held = [], [], [], 0

    def deviate(self, y: np.ndarray, owner: np.ndarray) -> None:
        """Fold the pair deviations of some states (one row each: integrated species, padded) into their segments'."""
        a, b = self.pairs[:, owner]
        row = np.arange(len(owner))[:, None]
        np.maximum.at(self.deviation, owner, np.abs(y[row, a] + y[row, b] - self.c0[owner]))

    def close(self, y_end: np.ndarray) -> None:
        """Fold in what is still held and each segment's end state (one row each, padded)."""
        self.flush()
        self.deviate(y_end, np.arange(len(y_end)))


def integrate(brn, x0, signal, config, steps=True):
    """Integrate the driven system from x0 over [0, t_end], for one run or many.

    Given a network, an initial state, a signal and a ``SimConfig``, returns
    the run's ``Trace``.  Given four equally long lists instead (one entry
    per run), integrates the runs together and returns their traces in
    order; each is the one its run gives alone, to the bit.  Every trace
    holds the run's states at its start, at the end of each of its symbol
    blocks and at its end, its network's conserved pairs' maxima and its
    cost.  With ``steps`` (the default) each run also keeps its steps, so
    its trace reads any time and samples ``SAMPLE_INTERVALS + 1`` evenly
    spaced times; without, no run keeps its steps and the pair maxima are
    folded as the steps are accepted.

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
    distinct blocks, and their distinct tails are one batch.  Raises
    IntegratorFault as ``solve_ivp`` does; negative excursions within ten
    times the absolute tolerance are clamped to zero in the outputs.
    """
    if isinstance(config, SimConfig):
        return _integrate_runs([(brn, x0, signal, config)], steps)[0]
    return _integrate_runs(list(zip(brn, x0, signal, config, strict=True)), steps)


@dataclass
class _Plan:
    """How one run's trajectory splits into segments: its symbol blocks, then its tail.

    A block's key is the run's origin (its network, batch and free initial
    state) and the word prefix up to it; the tail's key adds what else the
    tail depends on.  Runs share every segment whose key they share.
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


def _integrate_runs(runs, steps: bool) -> list[Trace]:
    nets: list[tuple[Brn, _CompiledNetwork]] = []  # one layout per distinct network
    plans: list[_Plan] = []
    batches: dict[tuple, list[int]] = {}  # tolerances and tau -> runs, of any networks
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
        # blocks are shared only within one network, and from one initial state (their pair maxima start from it)
        origin = (g, batch, y0.tobytes())
        # a tail depends on the rest of the word too
        tail = (origin, blocks, spec.word if spec is not None else None, config.t_end) \
            if 3 * len(blocks) * (tau or 0.0) < config.t_end else None
        plans.append(_Plan(net, signal, np.asarray(signal.critical_times(), dtype=float), origin,
                           y0, blocks, tail, tau, config.t_end))
        batches.setdefault(batch, []).append(r)

    # a segment's packed steps (None unless kept), end state, cost and pair maxima
    segments: dict[tuple, tuple[_Steps | None, np.ndarray, SolverStats, np.ndarray]] = {}
    for (rtol, atol, tau, _), members in batches.items():
        # the word trie level by level: the distinct blocks of level k, each
        # from its parent's end state; then the distinct tails.  A batch maps
        # a segment key to its first run's plan, its parent, start and end.
        depth = max(len(plans[r].blocks) for r in members)
        levels: list[dict] = [{} for _ in range(depth + 1)]
        for r in members:
            for key, parent, a, b in plans[r].segments():
                levels[len(key[1]) - 1 if len(key) == 2 else depth].setdefault(key, (plans[r], parent, a, b))
        for batch in levels:
            if batch:
                columns = [_Column(plan.net, plan.signal, segments[parent][1] if parent else plan.y0,
                                   _bounds(plan.corners, a, b), plan.y0)
                           for plan, parent, a, b in batch.values()]
                segments.update(zip(batch, _integrate_segments(
                    columns, rtol, atol, tau / 3.0 if tau else np.inf, steps)))

    out = []
    for (brn, _, _, config), plan in zip(runs, plans):
        run_segments = plan.segments()
        packed, ends, costs, maxima = zip(*(segments[key] for key, *_ in run_segments))
        fill = partial(plan.net.states, plan.signal)
        # the start and each segment's end, as the solver left them
        times = np.array([0.0, *(b for *_, b in run_segments)])
        points = dict(zip(times.tolist(), fill(times, np.maximum(np.vstack([plan.y0, *ends]), 0.0))))
        names = plan.net.free_names
        deviation = {(names[i], names[j]): v for (i, j), v in zip(plan.net.pairs, np.max(maxima, axis=0).tolist())}
        dense = DenseTable(packed, fill) if steps else None
        t_grid = np.linspace(0.0, config.t_end, SAMPLE_INTERVALS + 1) if steps else None
        out.append(Trace(brn.species_names, t_grid, None if dense is None else dense(t_grid), config.t_end, dense,
                         sum(costs, SolverStats()), points, deviation))
    return out


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
    return phi_slack(trace, nfa, prefix, gamma, tau) >= 0


def phi_slack(trace: Trace, nfa: Nfa, prefix: Sequence[str], gamma: float, tau: float) -> float:
    """How far the block-boundary levels clear ``check_phi``'s bounds: the least of ``y - (1 - gamma)``
    over the reached states and ``gamma - y`` over the others (negative where one fails)."""
    if not 0 < gamma < 0.5:
        raise ValueError("gamma must lie in (0, 1/2)")
    target = extended_transition(nfa, nfa.initial, tuple(prefix))
    return min(float(y - (1 - gamma)) if q in target else float(gamma - y)
               for q, y in zip(nfa.states, _levels(trace, nfa, 3 * len(prefix) * tau)))


def _levels(trace: Trace, nfa: Nfa, t: float) -> np.ndarray:
    """Raw state-species levels at time t, in the automaton's state order, from one evaluation."""
    return trace.state_at(t)[[trace._index[state_species_name(q)] for q in nfa.states]]

