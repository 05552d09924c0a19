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
    "ColumnDrift",
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
        # [name, count] pairs keep the order the kernel multiplies factors and
        # adds entries in, which an object written with sort_keys would lose
        out = {
            "reactants": [[name, c] for name, c in self.reactants.items()],
            "products": [[name, c] for name, c in self.products.items()],
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
            # older files hold each side as an object of counts
            reactions.append(Reaction(dict(r["reactants"]), dict(r["products"]), rate))
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

    The kernel is compiled in two halves.  Per reaction: its factor slots
    (one row per factor, padded), its base rate ``k_base`` and its rate
    terms.  Per nonzero entry of ``stoich`` among the drift's rows, in
    reaction order: its species, coefficient and reaction (``entries``).
    A reaction's flux is its factors multiplied in order, times its rate,
    ``((f1 f2) f3) k``, computed once per evaluation; an entry's weight is
    its reaction's flux times its coefficient, and a species' rate of
    change adds the weights of its entries in reaction order (``bincount``
    adds each bin's weights in the order given).  So each entry weighs
    ``(((f1 f2) f3) k) c``, and the fluxes of an all-ones buffer are the
    rates.

    Rates are evaluated for a table of times, one row per evaluation to
    come, one rate per reaction.  Constant and offset rates are ``k_base``
    alone.  Sinusoid rates add ``amp * sin(omega t + phase)`` (zero
    amplitude on the other reactions); piecewise rates sharing one knot
    grid take one search per time and one lerp per reaction.  A rate law of
    another kind raises ``TypeError``.

    ``ColumnDrift.compile`` lays the reactions and entries of one kernel per
    column side by side, kernels of any networks, so a column's fluxes and
    sums are those it has alone whatever the batch holds: a column's result
    does not depend on the batch's size or on its position (a BLAS
    product's summation order would).  The kernel keeps no batch.
    """

    def __init__(self, brn: Brn, order: Sequence[str] | None = None, rows: int | None = None):
        order = brn.species_names if order is None else tuple(order)
        pos = {nm: b for b, nm in enumerate(order)}
        n, n_rxn = len(order), len(brn.reactions)
        self.n_species = n
        self.rows = n if rows is None else rows
        self.n_reactions = n_rxn

        width = max([sum(r.reactants.values()) for r in brn.reactions], default=1)
        self.slots = np.full((max(width, 1), n_rxn), n, dtype=int)
        self.stoich = np.zeros((n, n_rxn))
        for j, rxn in enumerate(brn.reactions):
            k = 0
            for nm, count in rxn.reactants.items():
                for _ in range(count):
                    self.slots[k, j] = pos[nm]
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
        # per knot grid: the reactions it rates, its knots, and per reaction a
        # table whose row i serves the times with i knots at or before them:
        # its left knot, slope and offset.  The first and last rows are flat
        # (slope 0).  The lerp is np.interp's formula, so the rates are the
        # same to the bit
        self.grids = []
        for times, members in pwl_by_grid.items():
            offsets = np.array([off for _, off in members]).T
            flat = np.zeros((1, len(members)))
            self.grids.append((
                np.array([j for j, _ in members]), np.array(times), np.array([times[0], *times]),
                np.concatenate([flat, np.diff(offsets, axis=0) / np.diff(times)[:, None], flat]),
                np.concatenate([offsets[:1], offsets])))

        # every entry of the drift's rows in reaction order: its species, coefficient and reaction
        reaction, species = np.nonzero(self.stoich.T)
        keep = species < self.rows
        self.entries = species[keep], self.stoich[species[keep], reaction[keep]], reaction[keep]

    def buffer(self, values=None) -> np.ndarray:
        """A state buffer: ``values`` in buffer order (uninitialised if None), then the 1.0 pad."""
        x = np.empty(self.n_species + 1)
        if values is not None:
            x[:-1] = values
        x[-1] = 1.0
        return x

    def fluxes(self, t: float, x: np.ndarray) -> np.ndarray:
        """Each reaction's rate at time t times its monomial over the buffer x."""
        batch = ColumnDrift.compile([self], self.rows, self.n_species - self.rows)
        return _at(t, batch.rates, batch.fluxes)(x)

    def drift(self) -> Callable:
        """The drift ``f(t, x)`` of one buffer at a time: the rates of change of the first ``rows`` species."""
        batch = ColumnDrift.compile([self], self.rows, self.n_species - self.rows)
        return lambda t, x: _at(t, batch.rates, batch.drift)(x)


def _at(t: float, rates: Callable | None, f: Callable) -> Callable:
    """``f`` of one buffer with the rates at time t."""
    rate = None if rates is None else rates(np.array([[t]], dtype=float))[0]
    return lambda x: f(x, rate)


@dataclass(eq=False)
class ColumnDrift:
    """The drift of one buffer per kernel, stacked: a table of the batch's reactions and entries.

    Column c's buffer holds the first ``kernels[c].rows`` species, then
    zeros up to ``rows``, then its other species up to ``held``, then the
    1.0 pad: x has shape (B, rows + held + 1).  ``rates(times)`` takes one
    row of times per evaluation to come, one time per column, and gives each
    reaction's rate in every row; it is None when every kernel's rates are
    constant.  ``fluxes(x, rate)`` takes one row of ``rates(times)`` (None
    without it) and returns each reaction's flux, ``((f1 f2) f3) k``, once
    per reaction.  ``drift(x, rate)`` weighs each entry with its reaction's
    flux times its coefficient and adds the weights of each species in
    reaction order; it returns the rates of change of each column's
    ``rows`` leading species, flat, column after column.  Padding species
    have no entries, so their rates are exactly 0.

    ``compile`` builds the table once per batch; ``select(cols)`` gives the
    drift of some of its columns, side by side in batch order, by indexing
    the table, so a column leaving the batch costs no recompile.  Nothing
    keeps a batch but its user, and a batch refers to no kernel.
    """

    width: int
    rows: int
    n_cols: int
    # per reaction: its column, factor positions in the flat buffer, how many of them are not pads,
    # base rate and sinusoid terms (amplitude, frequency, phase; None if every amplitude is 0)
    reaction_column: np.ndarray
    factors: np.ndarray
    depth: np.ndarray
    k: np.ndarray
    sinusoid: np.ndarray | None
    # per knot grid: its reactions in the batch (one row per column), its columns, knots, lefts, slopes, offsets
    grids: list
    # per entry: its column, species, coefficient and reaction
    column: np.ndarray
    species: np.ndarray
    coef: np.ndarray
    reaction: np.ndarray

    def __post_init__(self):
        self.rates = self._rates()
        self.fluxes, self.drift = self._sums()

    @classmethod
    def compile(cls, kernels: Sequence[MassActionKernel], rows: int, held: int) -> "ColumnDrift":
        """The drift of one buffer per kernel, kernels of any networks, side by side."""
        width = rows + held + 1
        reactions = [k.n_reactions for k in kernels]
        starts = np.cumsum([0, *reactions])
        reaction_column = np.repeat(np.arange(len(kernels)), reactions)
        # a monomial shorter than the longest reads its own column's pad
        factors = np.repeat((reaction_column * width + width - 1)[None], max(len(k.slots) for k in kernels), axis=0)
        for c, kernel in enumerate(kernels):
            # a kernel's buffer position in the stacked layout: leading rows, held species, pad
            place = np.concatenate([np.arange(kernel.rows), rows + np.arange(kernel.n_species - kernel.rows),
                                    [width - 1]]) + c * width
            factors[:len(kernel.slots), starts[c]:starts[c + 1]] = place[kernel.slots]
        depth = np.concatenate([(k.slots != k.n_species).sum(axis=0) for k in kernels])
        sinusoid = None
        if any(k.sinusoid is not None for k in kernels):
            # a rate with no sinusoid term is exact: k + 0 sin(0 t + 0) = k
            sinusoid = np.concatenate([np.zeros((3, n)) if k.sinusoid is None else k.sinusoid
                                       for k, n in zip(kernels, reactions)], axis=1)
        grids = []  # per kernel and knot grid: its reactions in the batch per column, its columns, the tables
        for kernel in dict.fromkeys(kernels):
            cols = np.array([c for c, other in enumerate(kernels) if other is kernel])
            for members, *tables in kernel.grids:
                grids.append((starts[cols][:, None] + members, cols, *tables))
        species, coef, reaction = zip(*(k.entries for k in kernels))
        return cls(width, rows, len(kernels), reaction_column, factors, depth,
                   np.concatenate([k.k_base for k in kernels]), sinusoid, grids,
                   np.repeat(np.arange(len(kernels)), [len(s) for s in species]), np.concatenate(species),
                   np.concatenate(coef), np.concatenate([r + starts[c] for c, r in enumerate(reaction)]))

    def select(self, cols: np.ndarray) -> "ColumnDrift":
        """The drift of the columns ``cols`` (increasing batch indices), each keeping its table rows in order."""
        if len(cols) == self.n_cols:
            return self
        keep = np.zeros(self.n_cols, dtype=bool)
        keep[cols] = True
        place = np.cumsum(keep) - 1
        reacting = keep[self.reaction_column]
        renumber = np.cumsum(reacting) - 1
        old = self.reaction_column[reacting]
        reaction_column = place[old]
        depth = self.depth[reacting]
        # a reaction's factors lie in its own column's buffer, which moves by whole widths;
        # factor rows that only read pads multiply by 1.0, so they are dropped; the rows
        # are made contiguous again, since a gather through a strided index is slower
        factors = np.ascontiguousarray(self.factors[:depth.max(initial=1), reacting]
                                       + (reaction_column - old) * self.width)
        sinusoid = None
        if self.sinusoid is not None and self.sinusoid[0, reacting].any():
            sinusoid = self.sinusoid[:, reacting]
        grids = [(renumber[members[keep[cols_k]]], place[cols_k[keep[cols_k]]], *tables)
                 for members, cols_k, *tables in self.grids if keep[cols_k].any()]
        entry = keep[self.column]
        return ColumnDrift(self.width, self.rows, len(cols), reaction_column, factors, depth, self.k[reacting],
                           sinusoid, grids, place[self.column[entry]], self.species[entry], self.coef[entry],
                           renumber[self.reaction[entry]])

    def _sums(self) -> tuple[Callable, Callable]:
        """``(fluxes, drift)`` over the table."""
        first, rest = self.factors[0], self.factors[1:]
        k, coef, reaction = self.k, self.coef, self.reaction
        bins = self.species + self.column * self.rows
        length = self.n_cols * self.rows

        def fluxes(x, rate):
            flat = x.ravel()
            v = flat[first]
            for slots in rest:
                v *= flat[slots]
            v *= k if rate is None else rate
            return v

        def drift(x, rate):
            w = fluxes(x, rate)[reaction]
            w *= coef
            return np.bincount(bins, w, minlength=length)
        # bincount of no weights would count in integers
        return fluxes, drift if len(bins) else lambda x, rate: np.zeros(length)

    def _rates(self) -> Callable | None:
        """Each reaction's rate in every row of times: sinusoids and lerps evaluated once per reaction."""
        if self.sinusoid is None and not self.grids:
            return None
        k_base, column, sinusoid = self.k, self.reaction_column, self.sinusoid
        # a grid that rates every reaction of every column adds to all of them in order
        grids = [(None if members.size == len(k_base) else members.ravel(),
                  None if len(cols) == self.n_cols else cols, *tables) for members, cols, *tables in self.grids]

        def rates(times):
            if sinusoid is None:
                k = k_base
            else:
                amp, omega, phase = sinusoid
                k = k_base + amp * np.sin(omega * times[:, column] + phase)
            for members, cols, knots, lefts, slopes, offsets in grids:
                t = times if cols is None else times[:, cols]
                i = knots.searchsorted(t, side="right")
                offset = (slopes[i] * (t - lefts[i])[..., None] + offsets[i]).reshape(len(times), -1)
                if members is None:
                    k = k + offset
                else:
                    k = np.repeat(k[None], len(times), axis=0) if k is k_base else k
                    k[:, members] += offset
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
