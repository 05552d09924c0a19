"""Nondeterministic finite automata: data model, parsing, and acceptance.

The automaton is the ground truth for everything downstream: the compiler
consumes it, and the simulator's verdicts are checked against the set-valued
transition closure computed here by direct recursion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "Nfa",
    "NfaFormatError",
    "parse_nfa",
    "parse_nfa_json",
    "load_nfa",
    "extended_transition",
    "accepts",
    "parse_word",
]


class NfaFormatError(ValueError):
    """Malformed automaton description (carries a 1-based line number if known)."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Nfa:
    """An automaton (states, alphabet, transition triples, initial and accepting sets).

    States and symbols are arbitrary non-whitespace tokens; their declaration
    order is preserved so that species naming downstream is deterministic.
    Instances are immutable and safe to share.
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    transitions: frozenset[tuple[str, str, str]]
    initial: frozenset[str]
    accepting: frozenset[str]

    def __post_init__(self):
        if not self.states:
            raise NfaFormatError("automaton must declare at least one state")
        if not self.alphabet:
            raise NfaFormatError("automaton must declare at least one symbol")
        if len(set(self.states)) != len(self.states):
            raise NfaFormatError("duplicate state identifier")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise NfaFormatError("duplicate symbol identifier")
        state_set, symbol_set = set(self.states), set(self.alphabet)
        for src, sym, dst in self.transitions:
            if src not in state_set:
                raise NfaFormatError(f"transition references undeclared state {src!r}")
            if dst not in state_set:
                raise NfaFormatError(f"transition references undeclared state {dst!r}")
            if sym not in symbol_set:
                raise NfaFormatError(f"transition references undeclared symbol {sym!r}")
        for name, subset in (("initial", self.initial), ("accepting", self.accepting)):
            bad = set(subset) - state_set
            if bad:
                raise NfaFormatError(f"{name} set references undeclared state {sorted(bad)[0]!r}")
        succ: dict[tuple[str, str], set[str]] = {}
        for src, sym, dst in self.transitions:
            succ.setdefault((src, sym), set()).add(dst)
        object.__setattr__(self, "_succ", {k: frozenset(v) for k, v in succ.items()})

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_symbols(self) -> int:
        return len(self.alphabet)

    @property
    def num_transitions(self) -> int:
        return len(self.transitions)

    def successors(self, state: str, symbol: str) -> frozenset[str]:
        """One-step transition relation as a set map."""
        return self._succ.get((state, symbol), frozenset())

    def sorted_transitions(self) -> list[tuple[str, str, str]]:
        """Transitions in (source, symbol, target) declaration-index order."""
        s_idx = {q: i for i, q in enumerate(self.states)}
        a_idx = {a: i for i, a in enumerate(self.alphabet)}
        return sorted(self.transitions, key=lambda t: (s_idx[t[0]], a_idx[t[1]], s_idx[t[2]]))

    def to_json_dict(self) -> dict:
        return {
            "states": list(self.states),
            "alphabet": list(self.alphabet),
            "transitions": [list(t) for t in self.sorted_transitions()],
            "initial": sorted(self.initial, key=self.states.index),
            "accepting": sorted(self.accepting, key=self.states.index),
        }


def extended_transition(nfa: Nfa, start: Iterable[str], word: Sequence[str]) -> frozenset[str]:
    """Set of states reachable from ``start`` after reading ``word``.

    Computed by the defining recursion: the empty word maps a set to itself,
    and each appended symbol maps a set to the union of its one-step successors.
    """
    current = frozenset(start)
    unknown = current - set(nfa.states)
    if unknown:
        raise ValueError(f"start set references unknown state {sorted(unknown)[0]!r}")
    alphabet = set(nfa.alphabet)
    for symbol in word:
        if symbol not in alphabet:
            raise ValueError(f"symbol {symbol!r} not in alphabet")
        current = frozenset().union(*(nfa.successors(q, symbol) for q in current)) if current else current
    return current


def accepts(nfa: Nfa, word: Sequence[str]) -> bool:
    """True iff reading ``word`` from the initial set can reach an accepting state."""
    return bool(extended_transition(nfa, nfa.initial, word) & nfa.accepting)


_DIRECTIVES = ("states", "alphabet", "initial", "accepting", "trans")


def parse_nfa(text: str) -> Nfa:
    """Parse the line-oriented text format.

    Lines are ``states:``, ``alphabet:``, ``initial:``, ``accepting:`` with
    whitespace-separated tokens, plus one ``trans: SRC SYM DST`` line per
    transition.  ``#`` starts a comment.  Repeated declaration lines
    accumulate; duplicate transition lines collapse.
    """
    fields: dict[str, list[str]] = {d: [] for d in _DIRECTIVES}
    transitions: list[tuple[str, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise NfaFormatError(f"expected 'directive: tokens', got {line!r}", line=lineno)
        directive, _, rest = line.partition(":")
        directive = directive.strip().lower()
        if directive not in _DIRECTIVES:
            raise NfaFormatError(f"unknown directive {directive!r}", line=lineno)
        tokens = rest.split()
        if directive == "trans":
            if len(tokens) != 3:
                raise NfaFormatError("trans line needs exactly 'SRC SYM DST'", line=lineno)
            transitions.append((tokens[0], tokens[1], tokens[2]))
        else:
            fields[directive].extend(tokens)
    try:
        return Nfa(
            states=tuple(fields["states"]),
            alphabet=tuple(fields["alphabet"]),
            transitions=frozenset(transitions),
            initial=frozenset(fields["initial"]),
            accepting=frozenset(fields["accepting"]),
        )
    except NfaFormatError:
        raise
    except ValueError as exc:  # pragma: no cover - defensive
        raise NfaFormatError(str(exc)) from exc


def parse_nfa_json(text: str) -> Nfa:
    """Parse the JSON mirror of the text format."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NfaFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise NfaFormatError("top-level JSON value must be an object")

    def strings(value) -> bool:
        return isinstance(value, list) and all(isinstance(v, str) for v in value)

    for name in ("states", "alphabet"):
        if name not in data:
            raise NfaFormatError(f"missing field {name!r}")
    for name in ("states", "alphabet", "initial", "accepting"):
        if not strings(data.get(name, [])):
            raise NfaFormatError(f"{name!r} must be a list of strings")
    transitions = data.get("transitions", [])
    if not isinstance(transitions, list) or not all(strings(t) and len(t) == 3 for t in transitions):
        raise NfaFormatError("'transitions' must be a list of [source, symbol, target] string triples")
    return Nfa(
        states=tuple(data["states"]),
        alphabet=tuple(data["alphabet"]),
        transitions=frozenset(tuple(t) for t in transitions),
        initial=frozenset(data.get("initial", [])),
        accepting=frozenset(data.get("accepting", [])),
    )


def load_nfa(path) -> Nfa:
    """Load an automaton file, dispatching on the ``.json`` extension."""
    from pathlib import Path

    p = Path(path)
    text = p.read_text(encoding="utf-8")
    if p.suffix.lower() == ".json":
        return parse_nfa_json(text)
    return parse_nfa(text)


def parse_word(raw: str, alphabet: Sequence[str]) -> tuple[str, ...]:
    """Split a CLI word argument into symbol tokens.

    Whitespace- or comma-separated tokens are taken as-is; otherwise, when
    every alphabet symbol is a single character, the string splits per
    character.  The empty string is the empty word.
    """
    raw = raw.strip()
    if not raw:
        return ()
    if any(ch in raw for ch in (" ", ",", "\t")):
        return tuple(tok for tok in raw.replace(",", " ").split() if tok)
    if all(len(sym) == 1 for sym in alphabet):
        return tuple(raw)
    return (raw,)
