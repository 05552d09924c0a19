import json

import pytest
from hypothesis import given, settings, strategies as st

from nfa2crn.nfa import (
    Nfa,
    NfaFormatError,
    accepts,
    extended_transition,
    parse_nfa,
    parse_nfa_json,
    parse_word,
)


def test_parse_example(example_nfa):
    assert example_nfa.num_states == 3
    assert example_nfa.num_symbols == 2
    assert example_nfa.num_transitions == 5
    assert example_nfa.initial == {"A"}
    assert example_nfa.accepting == {"C"}
    assert ("A", "1", "B") in example_nfa.transitions


def test_parse_minimal_automaton():
    nfa = parse_nfa("states: q0\nalphabet: a\ninitial: q0\naccepting: q0\n")
    assert nfa.num_states == 1
    assert nfa.num_transitions == 0
    assert accepts(nfa, ())


def test_undeclared_state_rejected():
    text = "states: A\nalphabet: 0\ninitial: A\ntrans: A 0 D\n"
    with pytest.raises(NfaFormatError, match="undeclared state 'D'"):
        parse_nfa(text)


def test_syntax_error_carries_line_number():
    text = "states: A\nalphabet: 0\nnonsense line\n"
    with pytest.raises(NfaFormatError, match="line 3"):
        parse_nfa(text)


def test_empty_states_or_alphabet_rejected():
    with pytest.raises(NfaFormatError, match="at least one state"):
        parse_nfa("alphabet: 0\n")
    with pytest.raises(NfaFormatError, match="at least one symbol"):
        parse_nfa("states: A\n")


def test_undeclared_initial_and_accepting_rejected():
    with pytest.raises(NfaFormatError, match="initial set references"):
        parse_nfa("states: A\nalphabet: 0\ninitial: B\n")
    with pytest.raises(NfaFormatError, match="accepting set references"):
        parse_nfa("states: A\nalphabet: 0\ninitial: A\naccepting: Z\n")


def test_duplicate_transitions_collapse():
    text = "states: A\nalphabet: 0\ninitial: A\ntrans: A 0 A\ntrans: A 0 A\n"
    assert parse_nfa(text).num_transitions == 1


def test_json_mirror_roundtrip(example_nfa):
    again = parse_nfa_json(json.dumps(example_nfa.to_json_dict()))
    assert again == example_nfa


_JSON_BASE = {"states": ["A", "B"], "alphabet": ["x"], "transitions": [["A", "x", "B"]],
              "initial": ["A"], "accepting": ["B"]}


@pytest.mark.parametrize("change", [
    {"transitions": [1]},
    {"transitions": [["A", ["x"], "A"]]},
    {"transitions": [["A", "x"]]},
    {"transitions": "AxB"},
    {"states": "AB"},
    {"alphabet": [0]},
    {"initial": "A"},
    {"accepting": None},
])
def test_json_malformed_rejected(change):
    with pytest.raises(NfaFormatError):
        parse_nfa_json(json.dumps({**_JSON_BASE, **change}))


def test_json_missing_field_rejected():
    with pytest.raises(NfaFormatError, match="missing field 'alphabet'"):
        parse_nfa_json(json.dumps({"states": ["A"]}))


def test_cli_reports_malformed_json_as_usage_error(tmp_path, capsys):
    from nfa2crn.cli import main

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_JSON_BASE, "transitions": [1]}))
    assert main(["run", str(path), "x"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_extended_transition_examples(example_nfa):
    assert extended_transition(example_nfa, {"A"}, ()) == {"A"}
    assert extended_transition(example_nfa, {"A"}, ("1",)) == {"A", "B"}
    assert extended_transition(example_nfa, {"A"}, ("1", "0")) == {"A", "C"}


def test_accepts_examples(example_nfa):
    assert accepts(example_nfa, ("1", "0"))
    assert not accepts(example_nfa, ("0", "1"))
    assert not accepts(example_nfa, ())


def test_unknown_symbol_rejected(example_nfa):
    with pytest.raises(ValueError, match="not in alphabet"):
        accepts(example_nfa, ("2",))


def test_parse_word_forms(example_nfa):
    assert parse_word("10", example_nfa.alphabet) == ("1", "0")
    assert parse_word("1 0", example_nfa.alphabet) == ("1", "0")
    assert parse_word("", example_nfa.alphabet) == ()


@st.composite
def random_nfas(draw):
    q = draw(st.integers(1, 5))
    s = draw(st.integers(1, 3))
    states = tuple(f"q{i}" for i in range(q))
    alphabet = tuple("abc"[:s])
    triples = st.tuples(st.sampled_from(states), st.sampled_from(alphabet), st.sampled_from(states))
    transitions = frozenset(draw(st.lists(triples, max_size=2 * q * s)))
    initial = frozenset(draw(st.lists(st.sampled_from(states), min_size=1, max_size=q)))
    accepting = frozenset(draw(st.lists(st.sampled_from(states), max_size=q)))
    return Nfa(states, alphabet, transitions, initial, accepting)


@st.composite
def nfa_and_word(draw, max_len=6):
    nfa = draw(random_nfas())
    word = tuple(draw(st.lists(st.sampled_from(nfa.alphabet), max_size=max_len)))
    return nfa, word


@given(nfa_and_word())
@settings(max_examples=150, deadline=None)
def test_recursion_property(case):
    # appending one symbol unions the one-step successors of the current set
    nfa, word = case
    for cut in range(len(word)):
        prefix, sym = word[:cut], word[cut]
        before = extended_transition(nfa, nfa.initial, prefix)
        after = extended_transition(nfa, nfa.initial, prefix + (sym,))
        manual = frozenset().union(*(nfa.successors(q, sym) for q in before)) if before else frozenset()
        assert after == manual


@given(nfa_and_word())
@settings(max_examples=100, deadline=None)
def test_monotonicity(case):
    nfa, word = case
    small = frozenset(list(nfa.initial)[:1])
    assert extended_transition(nfa, small, word) <= extended_transition(nfa, nfa.states, word)


def _accepts_by_path_search(nfa, word):
    # memoized per-state path search; independent of the set recursion
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def reach(state, pos):
        if pos == len(word):
            return state in nfa.accepting
        return any(reach(nxt, pos + 1) for nxt in nfa.successors(state, word[pos]))

    return any(reach(q, 0) for q in nfa.initial)


@given(nfa_and_word())
@settings(max_examples=150, deadline=None)
def test_accepts_matches_path_search(case):
    nfa, word = case
    assert accepts(nfa, word) == _accepts_by_path_search(nfa, word)
