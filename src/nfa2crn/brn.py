"""Reaction networks with deterministic mass-action semantics.

A network is a list of species plus a list of reactions; each reaction carries
a reactant vector, a product vector, and a rate that is either a positive
constant or a strictly positive continuous function of time.  The drift of the
induced ODE system is the rate-weighted sum of net-effect vectors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "SPECIES_KINDS",
    "INPUT_KINDS",
    "Species",
    "RateLaw",
    "ConstantRate",
    "OffsetRate",
    "SinusoidRate",
    "PiecewiseLinearRate",
    "Reaction",
    "Brn",
    "ConcState",
    "net_effect",
    "catalysts",
    "MassActionKernel",
    "column_drift",
    "reaction_rate",
    "vector_field",
    "input_species_catalytic",
]

SPECIES_KINDS = (
    "state",
    "portal",
    "dual-state",
    "dual-portal",
    "input-symbol",
    "input-reset",
    "input-copy",
    "plain",
)
INPUT_KINDS = frozenset({"input-symbol", "input-reset", "input-copy"})


@dataclass(frozen=True)
class Species:
    name: str
    kind: str = "plain"

    def __post_init__(self):
        if self.kind not in SPECIES_KINDS:
            raise ValueError(f"unknown species kind {self.kind!r}")

    @property
    def is_input(self) -> bool:
        return self.kind in INPUT_KINDS


class RateLaw:
    """Rate coefficient of a reaction, evaluable at any time >= 0."""

    nominal: float

    def value(self, t):
        raise NotImplementedError

    @property
    def is_constant(self) -> bool:
        return False

    def to_json_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantRate(RateLaw):
    nominal: float

    def __post_init__(self):
        if not self.nominal > 0:
            raise ValueError("rate constant must be positive")

    def value(self, t):
        return self.nominal

    @property
    def is_constant(self) -> bool:
        return True

    def to_json_dict(self) -> dict:
        return {"type": "constant", "k": self.nominal}


@dataclass(frozen=True)
class OffsetRate(RateLaw):
    """k + offset, held constant in time (a band-edge adversary)."""

    nominal: float
    offset: float

    def __post_init__(self):
        if not self.nominal + self.offset > 0:
            raise ValueError("offset rate must stay positive")

    def value(self, t):
        return self.nominal + self.offset

    def to_json_dict(self) -> dict:
        return {"type": "offset", "k": self.nominal, "offset": self.offset}


@dataclass(frozen=True)
class SinusoidRate(RateLaw):
    """k + amplitude * sin(omega * t + phase)."""

    nominal: float
    amplitude: float
    omega: float
    phase: float = 0.0

    def __post_init__(self):
        if not self.nominal - abs(self.amplitude) > 0:
            raise ValueError("sinusoid rate must stay positive")

    def value(self, t):
        return self.nominal + self.amplitude * np.sin(self.omega * t + self.phase)

    def to_json_dict(self) -> dict:
        return {
            "type": "sinusoid",
            "k": self.nominal,
            "amplitude": self.amplitude,
            "omega": self.omega,
            "phase": self.phase,
        }


@dataclass(frozen=True)
class PiecewiseLinearRate(RateLaw):
    """k + interp(t) over an offset table, flat beyond the last knot."""

    nominal: float
    times: tuple[float, ...]
    offsets: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) != len(self.offsets) or len(self.times) < 2:
            raise ValueError("need matching times/offsets with at least two knots")
        if any(t2 <= t1 for t1, t2 in zip(self.times, self.times[1:])):
            raise ValueError("knot times must be strictly increasing")
        if not self.nominal + min(self.offsets) > 0:
            raise ValueError("piecewise rate must stay positive")

    def value(self, t):
        return self.nominal + np.interp(t, self.times, self.offsets)

    def to_json_dict(self) -> dict:
        return {
            "type": "piecewise",
            "k": self.nominal,
            "times": list(self.times),
            "offsets": list(self.offsets),
        }


def rate_law_from_json(data: Mapping) -> RateLaw:
    kind = data["type"]
    if kind == "constant":
        return ConstantRate(data["k"])
    if kind == "offset":
        return OffsetRate(data["k"], data["offset"])
    if kind == "sinusoid":
        return SinusoidRate(data["k"], data["amplitude"], data["omega"], data.get("phase", 0.0))
    if kind == "piecewise":
        return PiecewiseLinearRate(data["k"], tuple(data["times"]), tuple(data["offsets"]))
    raise ValueError(f"unknown rate law type {kind!r}")


def _as_count_map(m: Mapping[str, int]) -> dict[str, int]:
    out = {}
    for name, count in m.items():
        c = int(count)
        if c < 0:
            raise ValueError("stoichiometric counts must be nonnegative")
        if c > 0:
            out[name] = c
    return out


@dataclass(frozen=True)
class Reaction:
    """reactants -> products with a constant or time-varying rate coefficient.

    The net effect must be nonzero: a reaction that changes nothing is
    rejected at construction.
    """

    reactants: Mapping[str, int]
    products: Mapping[str, int]
    rate: RateLaw

    def __post_init__(self):
        object.__setattr__(self, "reactants", _as_count_map(self.reactants))
        object.__setattr__(self, "products", _as_count_map(self.products))
        if self.reactants == self.products:
            raise ValueError("reaction must have a nonzero net effect")

    @classmethod
    def with_constant_rate(cls, reactants, products, k: float) -> "Reaction":
        return cls(reactants, products, ConstantRate(float(k)))

    @property
    def species_names(self) -> set[str]:
        return set(self.reactants) | set(self.products)

    def pretty(self, rate_label: str | None = None) -> str:
        def side(counts: Mapping[str, int]) -> str:
            if not counts:
                return "0"
            return " + ".join(
                (f"{c}{name}" if c > 1 else name) for name, c in sorted(counts.items())
            )

        label = rate_label if rate_label is not None else f"{self.rate.value(0.0):g}"
        return f"{side(self.reactants)} ->{{{label}}} {side(self.products)}"

    def to_json_dict(self) -> dict:
        out = {
            "reactants": dict(sorted(self.reactants.items())),
            "products": dict(sorted(self.products.items())),
        }
        if self.rate.is_constant:
            out["k"] = self.rate.nominal
        else:
            out["rate"] = self.rate.to_json_dict()
        return out


def net_effect(rxn: Reaction) -> dict[str, int]:
    """Product counts minus reactant counts, as a sparse map (zero entries dropped)."""
    out = dict(rxn.products)
    for name, count in rxn.reactants.items():
        out[name] = out.get(name, 0) - count
    return {name: d for name, d in out.items() if d}


def catalysts(rxn: Reaction) -> set[str]:
    """Species consumed and produced in equal nonzero counts."""
    return {
        name
        for name in rxn.species_names
        if rxn.reactants.get(name, 0) == rxn.products.get(name, 0) > 0
    }


@dataclass(frozen=True)
class Brn:
    """A reaction network: ordered species plus reactions over them."""

    species: tuple[Species, ...]
    reactions: tuple[Reaction, ...]

    def __post_init__(self):
        names = [s.name for s in self.species]
        if len(set(names)) != len(names):
            raise ValueError("species names must be unique")
        declared = set(names)
        for rxn in self.reactions:
            missing = rxn.species_names - declared
            if missing:
                raise ValueError(f"reaction mentions undeclared species {sorted(missing)[0]!r}")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    @property
    def species_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.species)

    @property
    def time_dependent(self) -> bool:
        return any(not r.rate.is_constant for r in self.reactions)

    def index_of(self, name: str) -> int:
        return self._index[name]

    def input_species(self) -> tuple[Species, ...]:
        return tuple(s for s in self.species if s.is_input)

    def pretty(self, rate_labels: Sequence[str] | None = None) -> str:
        labels = rate_labels if rate_labels is not None else [None] * len(self.reactions)
        return "\n".join(r.pretty(lbl) for r, lbl in zip(self.reactions, labels))

    def to_json_dict(self) -> dict:
        return {
            "species": [{"name": s.name, "kind": s.kind} for s in self.species],
            "reactions": [r.to_json_dict() for r in self.reactions],
            "time_dependent": self.time_dependent,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Brn":
        species = tuple(Species(s["name"], s.get("kind", "plain")) for s in data["species"])
        reactions = []
        for r in data["reactions"]:
            if "rate" in r:
                rate = rate_law_from_json(r["rate"])
            else:
                rate = ConstantRate(float(r["k"]))
            reactions.append(Reaction(r["reactants"], r["products"], rate))
        return cls(species, tuple(reactions))

    def dumps(self, **kwargs) -> str:
        kwargs.setdefault("indent", 2)
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_json_dict(), **kwargs)

    @classmethod
    def loads(cls, text: str) -> "Brn":
        return cls.from_json_dict(json.loads(text))


@dataclass
class ConcState:
    """Concentration vector indexed consistently with a network's species order."""

    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.names),):
            raise ValueError("state vector length must match species count")
        if np.any(self.values < 0):
            raise ValueError("concentrations must be nonnegative")
        self._index = {n: i for i, n in enumerate(self.names)}

    def __getitem__(self, name: str) -> float:
        return float(self.values[self._index[name]])

    def replace(self, **updates: float) -> "ConcState":
        vals = self.values.copy()
        for name, v in updates.items():
            vals[self._index[name]] = v
        return ConcState(self.names, vals)

    def copy(self) -> "ConcState":
        return ConcState(self.names, self.values.copy())

    def to_json_dict(self) -> dict:
        return {n: float(v) for n, v in zip(self.names, self.values)}


class MassActionKernel:
    """A network's mass-action drift as arrays: the one place it is computed.

    A state buffer holds the species in ``order`` (default: the network's),
    then a 1.0 that pads monomials shorter than the longest; see ``buffer``.
    The drift covers the first ``rows`` buffer species (default: all); the
    others are held.  ``stoich`` has one row per buffer species and one
    column per reaction, its net effect.

    The kernel is compiled per nonzero entry of ``stoich``, in reaction
    order: an entry's weight is its reaction's factors multiplied in order,
    times the reaction's rate, times the entry's coefficient, ``((f1 f2) f3
    k) c``, and a species' rate of change adds the weights of its entries in
    reaction order (``bincount`` adds each bin's weights in the order given).
    ``fluxes`` reads the same tables: a reaction's flux is the weight of its
    first entry before the coefficient, so the fluxes of an all-ones buffer
    are the rates (every reaction has an entry among the drift's rows when
    the held species are catalysts only, as a network's inputs are).

    Rates are evaluated for a table of times, one row per evaluation to
    come.  Constant and offset rates are one number per entry.  Sinusoid
    rates add ``amp * sin(omega t + phase)`` once per reaction (zero
    amplitude on the other reactions), read by its entries; piecewise rates
    sharing one knot grid take one search per time and one lerp per entry.
    A rate law of another kind raises ``TypeError``.

    ``column_drift`` lays the entries of one kernel per column side by side,
    kernels of any networks, so a column's weights and sums are those it has
    alone whatever the batch holds: a column's result does not depend on the
    batch's size or on its position (a BLAS product's summation order
    would).
    """

    def __init__(self, brn: Brn, order: Sequence[str] | None = None, rows: int | None = None):
        order = brn.species_names if order is None else tuple(order)
        pos = {nm: b for b, nm in enumerate(order)}
        n, n_rxn = len(order), len(brn.reactions)
        self.n_species = n
        self.rows = n if rows is None else rows
        self.n_reactions = n_rxn

        width = max([sum(r.reactants.values()) for r in brn.reactions], default=1)
        slots = np.full((max(width, 1), n_rxn), n, dtype=int)
        self.stoich = np.zeros((n, n_rxn))
        for j, rxn in enumerate(brn.reactions):
            k = 0
            for nm, count in rxn.reactants.items():
                for _ in range(count):
                    slots[k, j] = pos[nm]
                    k += 1
            for nm, d in net_effect(rxn).items():
                self.stoich[pos[nm], j] = d

        self.k_base = np.empty(n_rxn)
        sinusoid = np.zeros((3, n_rxn))  # amp, omega, phase
        pwl_by_grid: dict[tuple[float, ...], list[tuple[int, tuple[float, ...]]]] = {}
        for j, rxn in enumerate(brn.reactions):
            law = rxn.rate
            if isinstance(law, ConstantRate):
                self.k_base[j] = law.nominal
            elif isinstance(law, OffsetRate):
                self.k_base[j] = law.nominal + law.offset
            elif isinstance(law, SinusoidRate):
                self.k_base[j] = law.nominal
                sinusoid[:, j] = law.amplitude, law.omega, law.phase
            elif isinstance(law, PiecewiseLinearRate):
                self.k_base[j] = law.nominal
                pwl_by_grid.setdefault(law.times, []).append((j, law.offsets))
            else:
                raise TypeError(f"no mass-action kernel for rate law {type(law).__name__}")
        self.sinusoid = sinusoid if sinusoid[0].any() else None

        # every entry of the drift's rows in reaction order: its factors, species, coefficient and reaction
        reaction, species = np.nonzero(self.stoich.T)
        reaction, species = reaction[species < self.rows], species[species < self.rows]
        self._entries = _Entries(slots[:, reaction], species, self.stoich[species, reaction], reaction,
                                 self.k_base[reaction])
        # each reaction's first entry, whose weight is the reaction's flux
        self._first = np.flatnonzero(np.diff(reaction, prepend=-1))
        # per knot grid: the entries it rates (None for all), its knots, and per
        # entry a table whose row i serves the times with i knots at or before
        # them: its left knot, slope and offset.  The first and last rows are
        # flat (slope 0).  The lerp is np.interp's formula, so the rates are
        # the same to the bit
        self.grids = []
        for times, members in pwl_by_grid.items():
            member = np.full(n_rxn, -1)
            member[[j for j, _ in members]] = np.arange(len(members))
            at = np.flatnonzero(member[reaction] >= 0)
            offsets = np.array([off for _, off in members]).T[:, member[reaction[at]]]
            flat = np.zeros((1, len(at)))
            self.grids.append((
                None if len(at) == len(reaction) else at, np.array(times), np.array([times[0], *times]),
                np.concatenate([flat, np.diff(offsets, axis=0) / np.diff(times)[:, None], flat]),
                np.concatenate([offsets[:1], offsets])))
        self.k_static = self.sinusoid is None and not self.grids
        self._compiled: dict[tuple, tuple] = {}  # homogeneous batches by size and layout

    def buffer(self, values=None) -> np.ndarray:
        """A state buffer: ``values`` in buffer order (uninitialised if None), then the 1.0 pad."""
        x = np.empty(self.n_species + 1)
        if values is not None:
            x[:-1] = values
        x[-1] = 1.0
        return x

    def fluxes(self, t: float, x: np.ndarray) -> np.ndarray:
        """Each reaction's rate at time t times its monomial over the buffer x: its first entry's weight."""
        if len(self._first) != self.n_reactions:
            raise ValueError("a reaction changes only held species, so the drift's entries hold no flux for it")
        rates, weights, _ = _compile([self], self.rows, self.n_species - self.rows)
        return _at(t, rates, weights)(x)[self._first]

    def drift(self) -> Callable:
        """The drift ``f(t, x)`` of one buffer at a time: the rates of change of the first ``rows`` species."""
        rates, drift = column_drift([self], self.rows, self.n_species - self.rows)
        return lambda t, x: _at(t, rates, drift)(x)


def _at(t: float, rates: Callable | None, weights: Callable) -> Callable:
    """``weights`` of one buffer with the rates at time t."""
    rate = None if rates is None else rates(np.array([[t]], dtype=float))[0]
    return lambda x: weights(x, rate)


@dataclass(frozen=True)
class _Entries:
    """A kernel's entries: factor slots (one row per factor), species, coefficient, reaction and constant rate."""

    factors: np.ndarray
    species: np.ndarray
    coef: np.ndarray
    reaction: np.ndarray
    k: np.ndarray


def column_drift(kernels: Sequence[MassActionKernel], rows: int, held: int) -> tuple[Callable | None, Callable]:
    """The drift of one buffer per kernel, stacked, as ``(rates, drift)``.

    Column c's buffer holds the first ``kernels[c].rows`` species, then
    zeros up to ``rows``, then its other species up to ``held``, then the
    1.0 pad: x has shape (B, rows + held + 1).  ``rates(times)`` takes one
    row of times per evaluation to come, one time per column, and gives each
    entry's rate in every row; it is None when every kernel's rates are
    constant.  ``drift(x, rate)`` takes one row of ``rates(times)`` (None
    without it) and returns the rates of change of each column's ``rows``
    leading species, flat, column after column; padding species have no
    entries, so their rates are exactly 0.  A batch of one kernel is
    compiled once per size and layout.
    """
    kernel = kernels[0]
    if any(k is not kernel for k in kernels):
        rates, _, drift = _compile(kernels, rows, held)
        return rates, drift
    key = (len(kernels), rows, held)
    if key not in kernel._compiled:
        rates, _, drift = _compile(kernels, rows, held)
        kernel._compiled[key] = rates, drift
    return kernel._compiled[key]


def _compile(kernels: Sequence[MassActionKernel], rows: int,
             held: int) -> tuple[Callable | None, Callable, Callable]:
    """Every column's entries as ``(rates, weights, drift)``.

    ``weights(x, rate)`` is each entry's monomial times its rate, and
    ``drift(x, rate)`` sums the weights times their coefficients into species.
    """
    width = rows + held + 1
    entries = [k._entries for k in kernels]
    counts = [len(e.species) for e in entries]
    starts = np.cumsum([0, *counts])
    n_factors = max(len(e.factors) for e in entries)
    factors = np.full((n_factors, starts[-1]), width - 1)
    for c, (kernel, e) in enumerate(zip(kernels, entries)):
        # a kernel's buffer position in the stacked layout: leading rows, held species, pad
        place = np.concatenate([np.arange(kernel.rows), rows + np.arange(kernel.n_species - kernel.rows),
                                [width - 1]]) + c * width
        factors[:len(e.factors), starts[c]:starts[c + 1]] = place[e.factors]
    first, rest = factors[0], factors[1:]
    k = np.concatenate([e.k for e in entries])
    rates = None if all(kernel.k_static for kernel in kernels) else _rates(kernels, entries)

    coef = np.concatenate([e.coef for e in entries])
    bins = np.concatenate([e.species + c * rows for c, e in enumerate(entries)])
    length = len(kernels) * rows

    def weights(x, rate):
        flat = x.ravel()
        w = flat[first]
        for slots in rest:
            w *= flat[slots]
        w *= k if rate is None else rate
        return w

    def drift(x, rate):
        w = weights(x, rate)
        w *= coef
        return np.bincount(bins, w, minlength=length)
    return rates, weights, drift


def _rates(kernels: Sequence[MassActionKernel], entries: Sequence[_Entries]) -> Callable:
    """Each entry's rate in every row of times: sinusoid rates evaluated once per reaction, lerps per entry."""
    counts = [k.n_reactions for k in kernels]
    starts = np.cumsum([0, *counts])
    reading = np.concatenate([e.reaction + starts[c] for c, e in enumerate(entries)])
    k_entry = np.concatenate([e.k for e in entries])
    sinusoid = None
    if any(k.sinusoid is not None for k in kernels):
        # a rate with no sinusoid term is exact: k + 0 sin(0 t + 0) = k
        sinusoid = (np.concatenate([k.k_base for k in kernels]), np.repeat(np.arange(len(kernels)), counts),
                    *np.concatenate([np.zeros((3, n)) if k.sinusoid is None else k.sinusoid
                                     for k, n in zip(kernels, counts)], axis=1))
    entry_starts = np.cumsum([0, *(len(e.k) for e in entries)])
    grids = []  # per kernel and knot grid: its columns (None for all), their entries in the batch, the tables
    for kernel in dict.fromkeys(kernels):
        cols = [c for c, other in enumerate(kernels) if other is kernel]
        every = len(cols) == len(kernels)
        for at, knots, lefts, slopes, offsets in kernel.grids:
            # a grid that rates every entry of every column adds to all of them in order
            spots = None if at is None and every else \
                (entry_starts[cols][:, None] + (np.arange(len(kernel._entries.k)) if at is None else at)).ravel()
            grids.append((spots, None if every else np.array(cols), knots, lefts, slopes, offsets))

    def rates(times):
        if sinusoid is None:
            k = k_entry
        else:
            k_base, column, amp, omega, phase = sinusoid
            k = (k_base + amp * np.sin(omega * times[:, column] + phase))[:, reading]
        for spots, cols, knots, lefts, slopes, offsets in grids:
            t = times if cols is None else times[:, cols]
            i = knots.searchsorted(t, side="right")
            offset = (slopes[i] * (t - lefts[i])[..., None] + offsets[i]).reshape(len(times), -1)
            if spots is None:
                k = k + offset
            else:
                k = np.repeat(k[None], len(times), axis=0) if k is k_entry else k
                k[:, spots] += offset
        return k
    return rates


def _buffer(kernel: MassActionKernel, state) -> np.ndarray:
    return kernel.buffer(state.values if isinstance(state, ConcState) else state)


def reaction_rate(brn: Brn, rxn: Reaction, state, t: float = 0.0) -> float:
    """Mass-action rate: coefficient times the product of reactant powers."""
    kernel = MassActionKernel(brn)
    return float(kernel.fluxes(t, _buffer(kernel, state))[brn.reactions.index(rxn)])


def vector_field(brn: Brn, state, t: float = 0.0) -> np.ndarray:
    """Drift of the mass-action ODE system at the given state and time."""
    kernel = MassActionKernel(brn)
    return kernel.drift()(t, _buffer(kernel, state))


def input_species_catalytic(brn: Brn) -> bool:
    """True iff every input-kind species is a catalyst (or absent) in every reaction.

    This is the property that lets an external agency hold the input
    concentrations without the network fighting back.
    """
    inputs = {s.name for s in brn.input_species()}
    for rxn in brn.reactions:
        for name in inputs:
            if rxn.reactants.get(name, 0) != rxn.products.get(name, 0):
                return False
    return True
