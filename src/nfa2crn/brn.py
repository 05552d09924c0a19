"""Reaction networks with deterministic mass-action semantics.

A network is a list of species plus a list of reactions; each reaction carries
a reactant vector, a product vector, and a rate that is either a positive
constant or a strictly positive continuous function of time.  The drift of the
induced ODE system is the rate-weighted sum of net-effect vectors.
"""

from __future__ import annotations

import json
from bisect import bisect_right
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
    ``stoich`` has one row per buffer species and one column per reaction,
    its net effect.  ``fluxes(t, x)`` gives each reaction's rate at time t
    times its monomial; the fluxes of an all-ones buffer are the rates.
    ``drift(rows)`` compiles the net rate of change of the first ``rows``
    buffer species, each summed over its reactions in reaction order.

    Both also take columns: a ``(B, n + 1)`` buffer with a ``(B,)`` array of
    times gives one row of fluxes, or of rates of change, per column.  Every
    sum has the same order in every column, so a column's result does not
    depend on B or on its position (a BLAS product's summation order
    does); one buffer gives the same bits as one column.  Constant and
    offset rates are folded into ``k_base``; sinusoid rates add
    ``amp * sin(omega t + phase)``, with zeros on the other rows; piecewise
    rates sharing one knot grid take one search and one lerp per
    evaluation.  A rate law of another kind raises ``TypeError``.
    """

    def __init__(self, brn: Brn, order: Sequence[str] | None = None):
        order = brn.species_names if order is None else tuple(order)
        pos = {nm: b for b, nm in enumerate(order)}
        n, n_rxn = len(order), len(brn.reactions)
        self.n_species = n
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
        # a monomial is its first factor times the next ones, in order
        self._slots = slots
        # the stoichiometry's nonzero entries in reaction order: reaction, species row
        self._entries = np.nonzero(self.stoich.T)
        self._compiled: dict[tuple, Callable] = {}  # fluxes and drifts by layout

        self.k_base = np.empty(n_rxn)
        self.amp, self.omega, self.phase = np.zeros(n_rxn), np.zeros(n_rxn), np.zeros(n_rxn)
        pwl_by_grid: dict[tuple[float, ...], list[tuple[int, tuple[float, ...]]]] = {}
        self._sinusoid = False
        for j, rxn in enumerate(brn.reactions):
            law = rxn.rate
            if isinstance(law, ConstantRate):
                self.k_base[j] = law.nominal
            elif isinstance(law, OffsetRate):
                self.k_base[j] = law.nominal + law.offset
            elif isinstance(law, SinusoidRate):
                self.k_base[j] = law.nominal
                self.amp[j], self.omega[j], self.phase[j] = law.amplitude, law.omega, law.phase
                self._sinusoid = True
            elif isinstance(law, PiecewiseLinearRate):
                self.k_base[j] = law.nominal
                pwl_by_grid.setdefault(law.times, []).append((j, law.offsets))
            else:
                raise TypeError(f"no mass-action kernel for rate law {type(law).__name__}")
        # per knot grid, row i serves the times with i knots at or before them:
        # its left knot, slope and offset.  The first and last rows are flat
        # (slope 0); ``lefts[1:]`` are the knots.  The lerp is np.interp's
        # formula, so the rates are the same to the bit
        self._pwl_groups = []
        for times, members in pwl_by_grid.items():
            offsets = np.array([off for _, off in members]).T
            flat = np.zeros((1, len(members)))
            rows = [j for j, _ in members]
            self._pwl_groups.append((
                None if rows == list(range(n_rxn)) else np.array(rows), times,
                np.array([times[0], *times]),
                np.concatenate([flat, np.diff(offsets, axis=0) / np.diff(times)[:, None], flat]),
                np.concatenate([offsets[:1], offsets])))
        self.k_static = not (self._sinusoid or self._pwl_groups)

    def buffer(self, values=None) -> np.ndarray:
        """A state buffer: ``values`` in buffer order (uninitialised if None), then the 1.0 pad."""
        x = np.empty(self.n_species + 1)
        if values is not None:
            x[:-1] = values
        x[-1] = 1.0
        return x

    def fluxes(self, t, x: np.ndarray) -> np.ndarray:
        """Each reaction's rate at time t times its monomial over the buffer x (or one row per column)."""
        return self._fluxes(len(x) if x.ndim == 2 else None)(t, x)

    def drift(self, rows: int | None = None, columns: int | None = None) -> Callable:
        """The drift as one function ``f(t, x)``: the rates of change of the first ``rows`` species.

        ``x`` is one buffer and t a time (``columns`` None), or ``columns``
        stacked buffers and one time per column.  Each species' rate of
        change is its row of ``stoich`` times ``fluxes(t, x)``, summed over
        its reactions in reaction order.
        """
        rows = self.n_species if rows is None else rows
        if ("drift", rows, columns) not in self._compiled:
            n = 1 if columns is None else columns
            reaction, species = self._entries
            keep = species < rows
            reaction, species = reaction[keep], species[keep]
            offsets = np.arange(n)[:, None]
            entries = (reaction[None, :] + self.n_reactions * offsets).ravel()
            coef = np.tile(self.stoich[species, reaction], n)
            bins = (species[None, :] + rows * offsets).ravel()
            fluxes, length, shape = self._fluxes(columns), n * rows, (n, rows)

            def f(t, x):
                weights = fluxes(t, x).ravel()[entries]
                weights *= coef
                # bincount adds each bin's weights in the order given: reaction order
                out = np.bincount(bins, weights, minlength=length)
                return out if columns is None else out.reshape(shape)
            self._compiled["drift", rows, columns] = f
        return self._compiled["drift", rows, columns]

    def _fluxes(self, columns: int | None) -> Callable:
        """``fluxes`` for one buffer (``columns`` None) or that many stacked buffers."""
        if ("fluxes", columns) not in self._compiled:
            n = 1 if columns is None else columns
            # each factor's flat index in the stacked buffers: one row per factor
            gathers = (self._slots[:, None, :] + (self.n_species + 1) * np.arange(n)[None, :, None]
                       ).reshape(len(self._slots), -1)
            first, rest = gathers[0], gathers[1:]
            shape = (self.n_reactions,) if columns is None else (n, self.n_reactions)
            k_base = self.k_base
            rates = None if self.k_static else self._rates if columns is None else self._column_rates

            def f(t, x):
                flat = x.ravel()
                flux = flat[first]
                for slots in rest:
                    flux *= flat[slots]
                if columns is not None:
                    flux = flux.reshape(shape)
                flux *= k_base if rates is None else rates(t)
                return flux
            self._compiled["fluxes", columns] = f
        return self._compiled["fluxes", columns]

    def _rates(self, t: float) -> np.ndarray:
        """The rates at time t."""
        if self._sinusoid:
            k = self.k_base + self.amp * np.sin(self.omega * t + self.phase)
        else:
            k = self.k_base
        for rows, knots, lefts, slopes, offsets in self._pwl_groups:
            i = bisect_right(knots, t)
            offset = slopes[i] * (t - lefts[i]) + offsets[i]
            if rows is None:
                k = k + offset
            else:
                k = k.copy() if k is self.k_base else k
                k[rows] += offset
        return k

    def _column_rates(self, t: np.ndarray) -> np.ndarray:
        """The rates at each column's time, one row per column, with ``_rates``'s arithmetic."""
        t = np.asarray(t, dtype=float)
        if self._sinusoid:
            k = self.k_base + self.amp * np.sin(self.omega * t[:, None] + self.phase)
        else:
            k = np.repeat(self.k_base[None, :], len(t), axis=0)
        for rows, _, lefts, slopes, offsets in self._pwl_groups:
            i = lefts[1:].searchsorted(t, side="right")
            offset = slopes[i] * (t - lefts[i])[:, None] + offsets[i]
            k[:, slice(None) if rows is None else rows] += offset
        return k


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
