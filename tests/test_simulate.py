import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfa2crn import simulate
from nfa2crn.brn import (
    Brn,
    ConcState,
    ConstantRate,
    OffsetRate,
    PiecewiseLinearRate,
    Reaction,
    SinusoidRate,
    Species,
    vector_field,
)
from nfa2crn.perturb import ObservationScheme, PerturbationProfile, perturb_rates
from nfa2crn.signals import SignalSpec, encode
from nfa2crn.simulate import (
    IntegratorFault,
    SimConfig,
    Trace,
    check_phi,
    decide,
    integrate,
    trace_from_csv,
)
from nfa2crn.translate import translate

RATES = {"k1": 2.0, "k2": 3.0, "k3": 5.0, "k4": 7.0}


def _zero_signal():
    return encode(SignalSpec((), epsilon=0.1, tau=1.0))


def test_linear_decay_closed_form():
    brn = Brn((Species("Y"), Species("Z")),
              (Reaction.with_constant_rate({"Y": 1}, {"Z": 1}, 1.0),))
    x0 = ConcState(brn.species_names, [1.0, 0.0])
    trace = integrate(brn, x0, _zero_signal(), SimConfig(t_end=2.0, rel_tol=1e-10, abs_tol=1e-12))
    assert trace.value("Y", 1.0) == pytest.approx(math.exp(-1.0), rel=1e-8)
    assert trace.value("Z", 1.0) == pytest.approx(1 - math.exp(-1.0), rel=1e-8)
    # Y + Z is conserved: the network's one pair, read from its stoichiometry
    assert list(trace.deviation) == [("Y", "Z")] and trace.deviation["Y", "Z"] <= 1e-15


def test_a_network_with_no_opposite_rows_has_no_pairs():
    brn = Brn((Species("Y"), Species("Z"), Species("W")),
              (Reaction.with_constant_rate({"Y": 2}, {"Z": 1}, 1.0),
               Reaction.with_constant_rate({"Z": 1}, {"W": 2}, 1.0)))
    trace = integrate(brn, ConcState(brn.species_names, [1.0, 0.0, 0.0]), _zero_signal(), SimConfig(t_end=1.0),
                      steps=False)
    assert trace.deviation == {} and trace.stats.accepted > 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_the_conserved_pairs_are_each_state_and_portal_with_its_dual(seed):
    from nfa2crn.pipeline import random_nfa

    nfa = random_nfa(np.random.default_rng(seed), 5, 3)
    net = simulate._CompiledNetwork(translate(nfa, RATES).brn)
    pairs = [(net.free_names[i], net.free_names[j]) for i, j in net.pairs]
    assert set(pairs) == {(f"{y}_{q}", f"{y}b_{q}") for q in nfa.states for y in "YZ"}


def test_majority_preserves_consensus_without_input(example_nfa):
    out = translate(example_nfa, RATES)
    trace = integrate(out.brn, out.initial, _zero_signal(), SimConfig(t_end=10.0))
    assert trace.value("Y_A", 10.0) == pytest.approx(1.0, abs=1e-6)
    assert trace.value("Y_B", 10.0) == pytest.approx(0.0, abs=1e-6)
    assert trace.value("Y_C", 10.0) == pytest.approx(0.0, abs=1e-6)
    # portals never fire without inputs
    assert trace.value("Z_A", 10.0) == pytest.approx(0.0, abs=1e-9)


def test_majority_restores_perturbed_consensus(example_nfa):
    out = translate(example_nfa, RATES)
    x0 = out.initial.replace(Y_A=0.9, Yb_A=0.1, Y_B=0.08, Yb_B=0.92)
    trace = integrate(out.brn, x0, _zero_signal(), SimConfig(t_end=10.0))
    assert trace.value("Y_A", 10.0) == pytest.approx(1.0, abs=1e-4)
    assert trace.value("Y_B", 10.0) == pytest.approx(0.0, abs=1e-4)


def test_inputs_track_signal_exactly(example_nfa, planned):
    out = translate(example_nfa, planned.rates)
    spec = SignalSpec(("1",), epsilon=planned.epsilon, tau=planned.tau)
    signal = encode(spec)
    trace = integrate(out.brn, out.initial, signal, SimConfig(t_end=4.0))
    t = np.linspace(0, 4.0, 101)
    assert np.array_equal(trace.column("X_r"), signal.concentration("X_r", trace.times))
    for tt in t[::10]:
        assert trace.value("X_1", tt) == signal.concentration("X_1", float(tt))


def test_conservation_on_driven_run(example_nfa, planned):
    out = translate(example_nfa, planned.rates)
    spec = SignalSpec(("1", "0"), epsilon=planned.epsilon, tau=planned.tau)
    trace = integrate(out.brn, out.initial, encode(spec),
                      SimConfig(t_end=spec.decision_time + planned.tau))
    pairs = [(f"Y_{q}", f"Yb_{q}") for q in "ABC"] + [(f"Z_{q}", f"Zb_{q}") for q in "ABC"]
    assert set(trace.deviation) == set(pairs)
    assert max(trace.deviation.values()) <= 1e-8
    assert all(out.initial[a] + out.initial[b] == pytest.approx(1.0) for a, b in pairs)


def test_pieces_end_at_signal_corners(example_nfa, planned):
    out = translate(example_nfa, planned.rates)
    signal = encode(SignalSpec(("1", "0"), epsilon=planned.epsilon, tau=planned.tau))
    trace = integrate(out.brn, out.initial, signal, SimConfig(t_end=7.5 * planned.tau))
    assert set(signal.critical_times().tolist()) <= set(trace._dense.ts.tolist())


def _recording(monkeypatch, consumers=None):
    """Record every ``simulate.solve_ivp`` call: its start times, end times and solution (and its
    consumer, in ``consumers``)."""
    calls = []
    real_solve_ivp = simulate.solve_ivp

    def recording_solve_ivp(drift, t0, t1, y0, **kwargs):
        sol = real_solve_ivp(drift, t0, t1, y0, **kwargs)
        calls.append((np.array(t0, dtype=float), np.array(t1, dtype=float), sol))
        if consumers is not None:
            consumers.append(kwargs["consumer"])
        return sol

    monkeypatch.setattr(simulate, "solve_ivp", recording_solve_ivp)
    return calls


def test_batched_blocks_reuse_shared_prefix_exactly(example_nfa, planned, monkeypatch):
    out = translate(example_nfa, planned.rates)
    brn = perturb_rates(out.brn, PerturbationProfile(delta=planned.delta, mode="sinusoid",
                                                     omega=2 * math.pi / planned.tau, seed=3))
    config = SimConfig(t_end=9.0 * planned.tau)
    tau = planned.tau

    def signal(word):
        return encode(SignalSpec(word, epsilon=planned.epsilon, tau=tau))

    calls = _recording(monkeypatch)
    words = [("1", "0"), ("1", "1")]
    together = integrate([brn] * 2, [out.initial] * 2, [signal(w) for w in words], [config] * 2)
    # the shared first block is one column; the second level and the tails are batches of two
    assert [len(t0) for t0, _, _ in calls] == [1] * 9 + [2] * 9 + [2]
    assert all(t0.min() >= 3 * tau for t0, _, _ in calls[9:]) and calls[8][1][0] == 3 * tau
    for word, trace in zip(words, together):
        calls.clear()
        alone = integrate(brn, out.initial, signal(word), config)
        assert len(calls) == 19
        assert np.array_equal(trace.values, alone.values)
        assert np.array_equal(trace._dense.ts, alone._dense.ts)
        assert trace.stats == alone.stats
    # the same word twice integrates once; another initial state shares nothing
    calls.clear()
    x0 = out.initial.replace(Y_A=0.99, Yb_A=0.01)
    twice = integrate([brn] * 3, [out.initial, out.initial, x0], [signal(("1", "1"))] * 3, [config] * 3)
    assert [len(t0) for t0, _, _ in calls] == [2] * 18 + [2]
    assert np.array_equal(twice[0].values, twice[1].values)
    assert not np.array_equal(twice[0].values, twice[2].values)


def test_dense_table_matches_ode_solution(example_nfa, planned, monkeypatch):
    out = translate(example_nfa, planned.rates)
    brn = perturb_rates(out.brn, PerturbationProfile(delta=planned.delta, mode="sinusoid",
                                                     omega=2 * math.pi / planned.tau, seed=4))
    spec = SignalSpec(("1", "0", "1"), epsilon=planned.epsilon, tau=planned.tau)
    config = SimConfig(t_end=spec.decision_time + planned.tau)
    logs = []
    calls = _recording(monkeypatch, logs)
    trace = integrate(brn, out.initial, encode(spec), config)
    # a trace's steps are the ones each call's step log kept
    assert all(isinstance(log, simulate._StepLog) for log in logs)
    steps = [step for (_, _, sol), log in zip(calls, logs)
             for step in zip(*log.steps(sol.ends, [len(sol.y_end[0])])[0])]
    ends = np.array([end for end, _, _ in steps])
    table = trace._dense
    assert np.array_equal(table.ts, np.concatenate([[0.0], ends]))

    def reference(t):
        # each time read from the step ending at or after it (the first step
        # for t = 0): y_old + h (Q @ [x, x^2, x^3, x^4]), term by term
        rows = []
        for tt in t:
            i = max(int(np.searchsorted(ends, tt, side="left")), 0)
            end, y_old, Q = steps[i]
            start = table.ts[i]
            x = (tt - start) / (end - start)
            rows.append(y_old + (end - start) * sum(Q[:, j] * x ** (j + 1) for j in range(4)))
        return np.array(rows)

    blocks = 3 * planned.tau * np.arange(spec.length + 1)
    for t in (trace.times, blocks, table.ts):
        assert np.allclose(table.free(t), reference(t), rtol=1e-14, atol=1e-15)
    free = [i for i, name in enumerate(trace.names) if not name.startswith("X_")]
    assert np.allclose(trace.values[:, free], np.maximum(reference(trace.times), 0.0),
                       rtol=1e-14, atol=1e-15)


def test_dense_table_reads_a_boundary_from_the_step_ending_there():
    # two segments of one step each, which disagree at t = 1: the step ending
    # there reads 1, the step starting there 5; outside [0, 2] the end steps extrapolate
    rise = np.array([[[1.0, 0.0, 0.0, 0.0]]])
    table = simulate.DenseTable([(np.array([1.0]), np.array([[0.0]]), rise),
                                 (np.array([2.0]), np.array([[5.0]]), np.zeros((1, 1, 4)))],
                                fill=lambda t, free: free)
    t = np.array([1.0, 0.0, 0.5, 1.5, 2.0, -1.0, 3.0])
    assert np.array_equal(table.free(t)[:, 0], [1.0, 0.0, 0.5, 5.0, 5.0, -1.0, 5.0])
    assert np.array_equal(table(t)[:, 0], [1.0, 0.0, 0.5, 5.0, 5.0, 0.0, 5.0])
    # no times: no rows, from the table and through a trace
    assert table.free(np.array([])).shape == (0, 1)
    trace = Trace(("a",), np.array([0.0, 2.0]), np.array([[0.0], [5.0]]), 2.0, table)
    assert trace.value("a", []).shape == (0,)


def test_trace_value_on_times_makes_one_evaluator_call():
    calls = []

    def evaluator(t):
        calls.append(len(t))
        return np.stack([t, 2 * t], axis=1)

    trace = Trace(("a", "b"), np.array([0.0, 1.0]), np.array([[0.0, 0.0], [1.0, 2.0]]), 1.0, evaluator)
    assert np.array_equal(trace.value("b", np.linspace(0, 1, 5)), 2 * np.linspace(0, 1, 5))
    assert trace.value("a", 0.5) == 0.5
    assert calls == [5, 1]
    with pytest.raises(ValueError, match="outside trace range"):
        trace.value("a", [0.5, 1.5])


def _rates(net, t):
    """The kernel's rates at time t: the fluxes of an all-ones buffer, where every monomial is 1.0."""
    return net.kernel.fluxes(t, np.ones(net.n_species + 1))


def _clamped_drift(net, signal):
    """The free species' drift ``f(t, y)`` at one time, inputs read from ``signal.concentration``."""
    nf, drift, x = net.n_free, net.kernel.drift(), net.kernel.buffer()

    def f(t, y):
        x[:nf] = y
        x[nf:net.n_species] = [signal.concentration(nm, float(t)) for nm in net.driven_names]
        return drift(t, x)
    return f


@pytest.mark.parametrize("mode", ["none", "sinusoid", "piecewise"])
def test_drift_matches_the_monomial_products_to_the_bit(example_nfa, planned, mode):
    out = translate(example_nfa, planned.rates)
    # piecewise knots end before the last draws, so the flat tail is read too
    brn = perturb_rates(out.brn, PerturbationProfile(delta=planned.delta, mode=mode,
                                                     omega=2 * math.pi / planned.tau, seed=2), t_end=6.0)
    signal = encode(SignalSpec(("1", "0"), epsilon=planned.epsilon, tau=planned.tau))
    net = simulate._CompiledNetwork(brn)
    drift = net.kernel.drift()
    rng = np.random.default_rng(0)
    for t in rng.uniform(0.0, 7.0, 50):
        x = np.empty(net.n_species)
        x[net.free_idx] = rng.uniform(0.0, 1.0, len(net.free_idx))
        x[net.driven_idx] = [signal.concentration(name, t) for name in net.driven_names]
        # each monomial multiplied out left to right over its reactants
        monomials = np.ones(len(brn.reactions))
        for j, rxn in enumerate(brn.reactions):
            factors = [x[brn.species_names.index(name)]
                       for name, count in rxn.reactants.items() for _ in range(count)]
            for k, f in enumerate(factors):
                monomials[j] = f if k == 0 else monomials[j] * f
        # one rate per reaction, its rate law's value
        rates = _rates(net, t)
        assert rates.tobytes() == np.array([rxn.rate.value(t) for rxn in brn.reactions], dtype=float).tobytes()
        flux = rates * monomials
        # each species' drift summed over its reactions in reaction order
        stoich = net.kernel.stoich[:net.n_free]
        expected = np.zeros(net.n_free)
        for i, j in zip(*np.nonzero(stoich.T)[::-1]):
            expected[i] += stoich[i, j] * flux[j]
        buffer = net.kernel.buffer(np.concatenate([x[net.free_idx], x[net.driven_idx]]))
        assert np.array_equal(drift(t, buffer), expected)


def test_piecewise_rates_match_the_rate_laws(example_nfa, planned):
    out = translate(example_nfa, planned.rates)
    brn = perturb_rates(out.brn, PerturbationProfile(delta=planned.delta, mode="piecewise",
                                                     knots=9, seed=5), t_end=4.0)
    # one reaction on a grid of its own
    first = brn.reactions[0]
    other = PiecewiseLinearRate(first.rate.nominal, (0.5, 1.25, 3.0), (1e-4, -2e-4, 5e-4))
    brn = Brn(brn.species, (Reaction(first.reactants, first.products, other), *brn.reactions[1:]))
    # and a network that mixes all four rate families
    laws = [ConstantRate(2.0), OffsetRate(3.0, -1e-3), SinusoidRate(4.0, 1e-3, 2.5, 0.3),
            PiecewiseLinearRate(5.0, (0.0, 2.0, 4.0), (1e-3, -1e-3, 2e-3))]
    mixed = Brn(out.brn.species, tuple(Reaction(rxn.reactants, rxn.products, laws[j % 4])
                                       for j, rxn in enumerate(out.brn.reactions)))
    times = np.concatenate([np.linspace(-1.0, 5.0, 97), [0.5, 1.25, 3.0, 4.0]])
    for network in (brn, mixed):
        net = simulate._CompiledNetwork(network)
        for t in times:
            expected = np.array([rxn.rate.value(t) for rxn in network.reactions])
            assert np.array_equal(_rates(net, float(t)), expected)


@pytest.mark.parametrize("mode", ["none", "sinusoid", "piecewise"])
def test_drift_is_the_vector_field_of_the_clamped_state(example_nfa, planned, mode):
    out = translate(example_nfa, planned.rates)
    profile = PerturbationProfile(delta=planned.delta, mode=mode,
                                  omega=2 * math.pi / planned.tau, seed=6)
    brn = perturb_rates(out.brn, profile, t_end=7.0)
    signal = encode(SignalSpec(("1", "0"), epsilon=planned.epsilon, tau=planned.tau))
    net = simulate._CompiledNetwork(brn)
    drift = _clamped_drift(net, signal)
    rng = np.random.default_rng(1)
    for t in rng.uniform(0.0, 7.0, 100):
        y = rng.uniform(0.0, 1.2, net.n_free)
        x = net.states(signal, np.array([t]), y)[0]
        assert np.array_equal(x[net.driven_idx], [signal.concentration(nm, t) for nm in net.driven_names])
        assert np.array_equal(drift(t, y), vector_field(brn, x, t)[net.free_idx])


def _fixed_step(brn, x0, signal, t_end, h):
    """Classical fixed-step fourth-order Runge-Kutta: the integrated species at t_end, clamped, by name."""
    net = simulate._CompiledNetwork(brn)
    f = _clamped_drift(net, signal)
    n_steps = max(int(math.ceil(t_end / h)), 1)
    h = t_end / n_steps
    y = np.asarray(x0.values, dtype=float)[net.free_idx]
    for step in range(n_steps):
        t = step * h
        k1 = f(t, y)
        k2 = f(t + h / 2, y + h / 2 * k1)
        k3 = f(t + h / 2, y + h / 2 * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return dict(zip(net.free_names, np.maximum(y, 0.0)))


def test_fixed_step_cross_check(example_nfa, planned):
    out = translate(example_nfa, planned.rates)
    spec = SignalSpec(("1",), epsilon=planned.epsilon, tau=planned.tau)
    config = SimConfig(t_end=2.0, rel_tol=1e-9, abs_tol=1e-12)
    adaptive = integrate(out.brn, out.initial, encode(spec), config)
    fixed = _fixed_step(out.brn, out.initial, encode(spec), config.t_end, h=planned.tau / 10_000)
    for name in ("Y_A", "Y_B", "Z_B", "Zb_C"):
        assert adaptive.value(name, 2.0) == pytest.approx(fixed[name], abs=1e-6)


def test_time_dependent_rates_integrate(example_nfa, planned):
    out = translate(example_nfa, planned.rates)
    profile = PerturbationProfile(delta=planned.delta, mode="sinusoid",
                                  omega=2 * math.pi / planned.tau, seed=3)
    brn = perturb_rates(out.brn, profile)
    spec = SignalSpec(("1",), epsilon=planned.epsilon, tau=planned.tau)
    trace = integrate(brn, out.initial, encode(spec), SimConfig(t_end=spec.decision_time))
    levels = {q: trace.value(f"Y_{q}", spec.decision_time) for q in example_nfa.states}
    assert levels["A"] > 0.9 and levels["B"] > 0.9 and levels["C"] < 0.1


class TestDecide:
    def test_accept_and_reject(self, example_nfa, planned):
        out = translate(example_nfa, planned.rates)
        scheme = ObservationScheme()
        for word, expect in ((("1", "0"), True), (("0", "1"), False)):
            spec = SignalSpec(word, epsilon=planned.epsilon, tau=planned.tau)
            trace = integrate(out.brn, out.initial, encode(spec),
                              SimConfig(t_end=spec.decision_time + planned.tau))
            decision = decide(trace, example_nfa, spec, scheme)
            assert decision.accept is expect
            assert not decision.undetermined

    def test_empty_word_reflects_initial_set(self, example_nfa, planned):
        out = translate(example_nfa, planned.rates)
        spec = SignalSpec((), epsilon=planned.epsilon, tau=planned.tau)
        trace = integrate(out.brn, out.initial, encode(spec), SimConfig(t_end=2 * planned.tau))
        decision = decide(trace, example_nfa, spec, ObservationScheme())
        assert decision.verdicts == {"A": "in-set", "B": "not-in-set", "C": "not-in-set"}
        assert decision.accept is False

    def test_undetermined_is_surfaced(self, example_nfa):
        out = translate(example_nfa, RATES)
        x0 = out.initial.replace(Y_A=0.5, Yb_A=0.5)
        spec = SignalSpec((), epsilon=0.1, tau=1.0)
        trace = integrate(out.brn, x0, encode(spec), SimConfig(t_end=2.0))
        decision = decide(trace, example_nfa, spec, ObservationScheme())
        assert decision.verdicts["A"] == "undetermined"
        assert decision.undetermined

    def test_undetermined_accepting_state_blocks_verdict(self, example_nfa):
        out = translate(example_nfa, RATES)
        x0 = out.initial.replace(Y_C=0.5, Yb_C=0.5)
        spec = SignalSpec((), epsilon=0.1, tau=1.0)
        trace = integrate(out.brn, x0, encode(spec), SimConfig(t_end=2.0))
        decision = decide(trace, example_nfa, spec, ObservationScheme())
        assert decision.accept is None

    def test_decision_before_horizon_rejected(self, example_nfa, planned):
        out = translate(example_nfa, planned.rates)
        spec = SignalSpec(("1",), epsilon=planned.epsilon, tau=planned.tau)
        trace = integrate(out.brn, out.initial, encode(spec), SimConfig(t_end=spec.decision_time))
        with pytest.raises(ValueError, match="before the horizon"):
            decide(trace, example_nfa, spec, ObservationScheme(), t=2.0)

    def test_decision_past_the_trace_end_rejected_by_the_trace(self, example_nfa, planned):
        out = translate(example_nfa, planned.rates)
        spec = SignalSpec(("1",), epsilon=planned.epsilon, tau=planned.tau)
        trace = integrate(out.brn, out.initial, encode(spec), SimConfig(t_end=spec.decision_time))
        for past in (5e-10, 2e-9):
            with pytest.raises(ValueError, match="outside trace range"):
                decide(trace, example_nfa, spec, ObservationScheme(), t=trace.t_end + past)


class TestPhi:
    def test_base_case_exact_initial(self, example_nfa):
        out = translate(example_nfa, RATES)
        trace = integrate(out.brn, out.initial, _zero_signal(), SimConfig(t_end=1.0))
        for gamma in (0.05, 0.2, 0.4):
            assert check_phi(trace, example_nfa, (), gamma, tau=1.0)

    def test_base_case_fails_when_gamma_below_eps(self, example_nfa):
        from nfa2crn.perturb import perturb_initial

        out = translate(example_nfa, RATES)
        x0 = perturb_initial(out.initial, 0.05, mode="worst-case-signed")
        trace = integrate(out.brn, x0, _zero_signal(), SimConfig(t_end=1.0))
        assert check_phi(trace, example_nfa, (), 0.05, tau=1.0)
        assert not check_phi(trace, example_nfa, (), 0.001, tau=1.0)

    def test_holds_along_prefixes(self, example_nfa, planned):
        out = translate(example_nfa, planned.rates)
        spec = SignalSpec(("1", "0"), epsilon=planned.epsilon, tau=planned.tau)
        trace = integrate(out.brn, out.initial, encode(spec),
                          SimConfig(t_end=spec.decision_time + planned.tau))
        for k in range(3):
            assert check_phi(trace, example_nfa, spec.word[:k], planned.gamma, planned.tau)


def test_trace_csv_roundtrip(example_nfa, planned):
    out = translate(example_nfa, planned.rates)
    spec = SignalSpec(("1",), epsilon=planned.epsilon, tau=planned.tau)
    trace = integrate(out.brn, out.initial, encode(spec), SimConfig(t_end=spec.decision_time))
    buf = io.StringIO()
    trace.write_csv(buf)
    buf.seek(0)
    again = trace_from_csv(buf)
    assert again.names == trace.names
    assert np.allclose(again.values, trace.values)
    assert again.value("Y_A", trace.times[5]) == pytest.approx(trace.values[5][0])
    # a reloaded trace has rows only: no kept states and no pair maxima
    assert again.points == {} and again.deviation == {}


@pytest.mark.parametrize("defect, row, message", [("unsorted", 4, "does not increase"),
                                                 ("duplicate", 4, "does not increase"),
                                                 ("nan", 3, "non-finite")])
def test_trace_csv_rejects_a_bad_row(defect, row, message):
    rows = [[float(i), 0.1 * i, 1.0 - 0.1 * i] for i in range(6)]
    if defect == "unsorted":
        rows[2], rows[3] = rows[3], rows[2]
    elif defect == "duplicate":
        rows[3][0] = rows[2][0]
    else:
        rows[2][1] = math.nan
    text = "t,a,b\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows)
    with pytest.raises(ValueError, match=f"row {row}: .*{message}"):
        trace_from_csv(io.StringIO(text))


def test_decision_stable_under_tolerance_refinement(example_nfa, planned):
    out = translate(example_nfa, planned.rates)
    spec = SignalSpec(("1", "0"), epsilon=planned.epsilon, tau=planned.tau)
    verdicts = []
    for scale in (1.0, 0.5):
        config = SimConfig(t_end=spec.decision_time + planned.tau,
                           rel_tol=1e-7 * scale, abs_tol=1e-10 * scale)
        trace = integrate(out.brn, out.initial, encode(spec), config)
        verdicts.append(decide(trace, example_nfa, spec, ObservationScheme()).verdicts)
    assert verdicts[0] == verdicts[1]


def test_nonnegative_samples(example_nfa, planned):
    out = translate(example_nfa, planned.rates)
    spec = SignalSpec(("1", "1"), epsilon=planned.epsilon, tau=planned.tau)
    trace = integrate(out.brn, out.initial, encode(spec), SimConfig(t_end=spec.decision_time))
    assert np.all(trace.values >= 0.0)


# -- the stepper ------------------------------------------------------------


def _network(example_nfa, planned, mode):
    """The example network under a rate adversary (piecewise knots over 9 tau)."""
    out = translate(example_nfa, planned.rates)
    profile = PerturbationProfile(delta=planned.delta, mode=mode, omega=2 * math.pi / planned.tau,
                                  seed=11)
    return out, perturb_rates(out.brn, profile, t_end=9 * planned.tau)


# beside the example (3 states, 2 symbols): a 1-symbol and a 4-state automaton
OTHER_NFAS = (
    "states: p0 p1\nalphabet: 0\ninitial: p0\naccepting: p1\ntrans: p0 0 p1\ntrans: p1 0 p1\n",
    "states: r0 r1 r2 r3\nalphabet: 0 1\ninitial: r0\naccepting: r3\n"
    "trans: r0 1 r1\ntrans: r1 0 r2\ntrans: r2 1 r3\ntrans: r3 0 r0\ntrans: r0 0 r0\n",
)


def _nine_networks(example_nfa, planned) -> dict:
    """Three networks of different sizes, each under one of three rate kinds (piecewise knots over 9 tau)."""
    from nfa2crn.nfa import parse_nfa

    nets = {}
    for nfa in (example_nfa, *map(parse_nfa, OTHER_NFAS)):
        out = translate(nfa, planned.rates)
        for mode in ("none", "sinusoid", "piecewise"):
            profile = PerturbationProfile(delta=planned.delta, mode=mode,
                                          omega=2 * math.pi / planned.tau, seed=11)
            nets[nfa, mode] = out, simulate._CompiledNetwork(perturb_rates(out.brn, profile, t_end=9 * planned.tau))
    return nets


@settings(max_examples=12, deadline=None)
@given(size=st.integers(2, 8), data=st.data())
def test_a_column_packs_the_same_bits_alone_and_anywhere_in_a_batch(example_nfa, planned, size, data):
    # columns of three networks of different sizes, each under one of three rate kinds
    tau = planned.tau
    nets = _nine_networks(example_nfa, planned)
    keys = list(nets)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    columns = []
    for _ in range(size):
        # a symbol block of its own word, starting at its own time, from its own state
        nfa, mode = keys[data.draw(st.integers(0, len(keys) - 1))]
        out, net = nets[nfa, mode]
        word = tuple(rng.choice(nfa.alphabet, 3).tolist())
        k = int(rng.integers(0, 3))
        signal = encode(SignalSpec(word, epsilon=planned.epsilon, tau=tau))
        x0 = out.initial.values[net.free_idx] + rng.uniform(0, planned.epsilon, len(net.free_idx))
        initial = out.initial.values[net.free_idx]
        columns.append(simulate._Column(net, signal, x0, simulate._bounds(
            signal.critical_times(), 3 * k * tau, 3 * (k + 1) * tau), initial))
    target = data.draw(st.integers(0, size - 1))
    alone = simulate._integrate_segments([columns[target]], 1e-8, 1e-11, tau / 3, steps=True)[0]
    for position in range(size):
        batch = columns[:target] + columns[target + 1:]
        batch.insert(position, columns[target])
        packed = simulate._integrate_segments(batch, 1e-8, 1e-11, tau / 3, steps=True)[position]
        for ours, reference in zip((*packed[0], packed[1], packed[3]), (*alone[0], alone[1], alone[3])):
            assert ours.tobytes() == reference.tobytes()
        assert packed[2] == alone[2]


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_watched_run_reads_its_dense_trace_to_the_bit(example_nfa, planned, data):
    # a batch of runs on three networks under three rate kinds, from exact and
    # random initial states, to t_dec or past it, with the run under test anywhere in it
    from dataclasses import replace

    from nfa2crn import pipeline
    from nfa2crn.nfa import parse_nfa

    nfas = [example_nfa, *map(parse_nfa, OTHER_NFAS)]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    manifests = []
    for _ in range(data.draw(st.integers(1, 6))):
        nfa = nfas[int(rng.integers(len(nfas)))]
        mode = data.draw(st.sampled_from(["none", "sinusoid", "piecewise"]))
        profile = PerturbationProfile(delta=planned.delta, mode=mode, omega=2 * math.pi / planned.tau,
                                      seed=int(rng.integers(3)))
        manifests.append(pipeline.RunManifest(
            nfa=nfa, word=tuple(rng.choice(nfa.alphabet, int(rng.integers(0, 4))).tolist()), params=planned,
            profile=profile, initial_mode=str(rng.choice(["exact", "random"])), seed=int(rng.integers(3))))
    shared = {}
    setups = [pipeline._setup(m, shared) for m in manifests]
    sims = [replace(s.sim, t_end=s.sig_spec.decision_time + float(rng.choice([0.0, 2.5])) * planned.tau)
            for s in setups]
    readouts = integrate([s.brn for s in setups], [s.x0 for s in setups], [s.signal for s in setups], sims,
                         steps=False)
    r = data.draw(st.integers(0, len(setups) - 1))
    setup, sim, readout = setups[r], sims[r], readouts[r]
    with pytest.MonkeyPatch.context() as mp:
        calls = _recording(mp)
        trace = integrate(setup.brn, setup.x0, setup.signal, sim)
    # the kept times: the start, the end of every symbol block, the end
    blocks = [3 * k * planned.tau for k in range(len(setup.manifest.word) + 1)]
    assert list(readout.points) == [*blocks, sim.t_end]
    # each kept state is the start state or the end state of the solver call that ended its segment, clamped at 0
    free = simulate._CompiledNetwork(setup.brn).free_idx
    ends = {float(t1[0]): sol.y_end[0] for _, t1, sol in calls}
    assert readout.state_at(0.0)[free].tobytes() == np.maximum(setup.x0.values[free], 0.0).tobytes()
    for t in list(readout.points)[1:]:
        assert readout.state_at(t)[free].tobytes() == np.maximum(ends[t], 0.0).tobytes()
    assert readout.stats == trace.stats
    assert readout._dense is None and readout.times is None and readout.values is None
    # the run alone keeping its steps: the same points and pair maxima, to the bit
    assert trace.names == readout.names
    assert list(trace.points) == list(readout.points)
    for t in readout.points:
        assert trace.state_at(t).tobytes() == readout.state_at(t).tobytes()
    assert list(trace.deviation) == list(readout.deviation)
    for pair, value in readout.deviation.items():
        assert np.float64(trace.deviation[pair]).tobytes() == np.float64(value).tobytes()


def test_a_readout_reads_only_its_kept_times(example_nfa, planned):
    from nfa2crn import pipeline

    setup = pipeline._setup(pipeline.RunManifest(nfa=example_nfa, word=("1", "0"), params=planned), {})
    [readout] = integrate([setup.brn], [setup.x0], [setup.signal], [setup.sim], steps=False)
    tau, t_dec = planned.tau, setup.sig_spec.decision_time
    assert list(readout.points) == [0.0, 3 * tau, 6 * tau, t_dec]
    for t in (0.5 * tau, 4 * tau, t_dec + tau):
        with pytest.raises(ValueError, match="not a kept time"):
            readout.state_at(t)
    assert decide(readout, example_nfa, setup.sig_spec, setup.manifest.scheme).accept is True
    with pytest.raises(ValueError, match="not a kept time"):
        decide(readout, example_nfa, setup.sig_spec, setup.manifest.scheme, t=t_dec + tau)


def test_the_pair_drift_is_the_largest_over_the_step_starts_and_the_end_state(example_nfa, planned, monkeypatch):
    # read independently from the steps each solver call logged and its end state, over a tail past t_dec
    from dataclasses import replace

    from nfa2crn import pipeline

    profile = PerturbationProfile(delta=planned.delta, mode="sinusoid", omega=2 * math.pi / planned.tau, seed=2)
    manifest = pipeline.RunManifest(nfa=example_nfa, word=("1", "0"), params=planned, profile=profile,
                                    initial_mode="worst-case-signed", seed=2)
    setup = pipeline._setup(manifest, {})
    sim = replace(setup.sim, t_end=setup.sig_spec.decision_time + 1.5 * planned.tau)
    [readout] = integrate([setup.brn], [setup.x0], [setup.signal], [sim], steps=False)
    consumers = []
    calls = _recording(monkeypatch, consumers)
    trace = integrate(setup.brn, setup.x0, setup.signal, sim)
    states = np.vstack([*(stack[0] for log in consumers for stack in log.stacks), calls[-1][2].y_end[0]])
    free = [nm for nm in trace.names if not nm.startswith("X_")]
    pairs = [(f"{y}_{q}", f"{y}b_{q}") for q in example_nfa.states for y in "YZ"]
    assert list(readout.deviation) == list(trace.deviation) == pairs
    for a, b in pairs:
        drift = np.abs(states[:, free.index(a)] + states[:, free.index(b)] - (setup.x0[a] + setup.x0[b]))
        assert readout.deviation[a, b] == trace.deviation[a, b] == drift.max()
    assert max(readout.deviation.values()) > 0


def test_a_round_compiles_its_drift_once(example_nfa, planned, monkeypatch):
    # runs on two networks leave their batch at different steps; each batch of
    # segments compiles its drift once, and what is left is read from its table
    from nfa2crn.nfa import parse_nfa

    compiled, batches, selected = [], [], []
    real_compile, real_select = simulate.ColumnDrift.compile, simulate.ColumnDrift.select
    real_integrate_segments = simulate._integrate_segments

    def counted_compile(kernels, rows, held):
        compiled.append(len(kernels))
        return real_compile(kernels, rows, held)

    def counted_select(self, cols):
        selected.append((self.n_cols, len(cols)))
        return real_select(self, cols)

    def counted_integrate_segments(columns, *args, **kwargs):
        batches.append(len(columns))
        return real_integrate_segments(columns, *args, **kwargs)

    calls = _recording(monkeypatch)
    monkeypatch.setattr(simulate.ColumnDrift, "compile", staticmethod(counted_compile))
    monkeypatch.setattr(simulate.ColumnDrift, "select", counted_select)
    monkeypatch.setattr(simulate, "_integrate_segments", counted_integrate_segments)
    outs = [translate(nfa, planned.rates) for nfa in (example_nfa, parse_nfa(OTHER_NFAS[1]))]
    brns = [perturb_rates(out.brn, PerturbationProfile(delta=planned.delta, mode="sinusoid",
                                                       omega=2 * math.pi / planned.tau, seed=1)) for out in outs]
    signals = [encode(SignalSpec(w, epsilon=planned.epsilon, tau=planned.tau)) for w in (("1",), ("0",))]
    config = SimConfig(t_end=5 * planned.tau)
    together = integrate(brns, [out.initial for out in outs], signals, [config] * 2)
    assert batches == [2, 2] and compiled == batches
    assert len(calls) > len(batches)
    # a column left a batch: the drift of the other was selected from the table
    assert (2, 1) in selected
    for brn, out, signal, trace in zip(brns, outs, signals, together):
        assert integrate(brn, out.initial, signal, config).values.tobytes() == trace.values.tobytes()


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_selection_weighs_its_entries_as_the_whole_batch_does(example_nfa, planned, data):
    # any columns of a batch of the nine networks, at any times: the selection's
    # fluxes are the batch's fluxes of those columns' reactions, and its drift
    # the batch's drift of those columns, to the bit
    nets = _nine_networks(example_nfa, planned)
    keys = list(nets)
    picks = data.draw(st.lists(st.integers(0, len(keys) - 1), min_size=1, max_size=8))
    kernels = [nets[keys[i]][1].kernel for i in picks]
    rows = max(kernel.rows for kernel in kernels)
    batch = simulate.ColumnDrift.compile(kernels, rows, max(k.n_species - k.rows for k in kernels))
    cols = np.array(sorted(data.draw(st.sets(st.integers(0, len(kernels) - 1), min_size=1))))
    selection = batch.select(cols)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    x = rng.uniform(0.0, 1.2, (len(kernels), batch.width))
    x[:, -1] = 1.0
    times = rng.uniform(0.0, 9 * planned.tau, (3, len(kernels)))
    rate = None if batch.rates is None else batch.rates(times)
    selected_rate = None if selection.rates is None else selection.rates(times[:, cols])
    reactions = np.isin(batch.reaction_column, cols)
    for i in range(len(times)):
        whole, part = (None if r is None else r[i] for r in (rate, selected_rate))
        assert selection.fluxes(x[cols], part).tobytes() == batch.fluxes(x, whole)[reactions].tobytes()
        assert selection.drift(x[cols], part).tobytes() == \
            batch.drift(x, whole).reshape(len(kernels), rows)[cols].tobytes()


@pytest.mark.parametrize("mode", ["none", "sinusoid", "piecewise"])
@pytest.mark.parametrize("size", [1, 3])
def test_piece_drift_matches_the_drift_read_from_the_signal(example_nfa, planned, mode, size):
    # bound fixed before the first run: within 1e-12 of the largest entry's
    # magnitude, since a ramp is u(a) + slope (t - a), not the trapezoid's
    # closed form, and the two inputs differ by rounding
    out, brn = _network(example_nfa, planned, mode)
    tau = planned.tau
    net = simulate._CompiledNetwork(brn)
    signals = [encode(SignalSpec(word, epsilon=planned.epsilon, tau=tau))
               for word in [("1", "0"), ("0", "1"), ("1", "1")][:size]]
    # every piece of each word, and the silent tail after it
    bounds = [simulate._bounds(signal.critical_times(), 0.0, 8 * tau) for signal in signals]
    inputs = [np.array([signal.concentration(nm, b) for nm in net.driven_names]).T
              for signal, b in zip(signals, bounds)]
    compiled = simulate.ColumnDrift.compile([net.kernel] * size, net.n_free, len(net.driven_names))
    rng = np.random.default_rng(size)
    for r in range(len(bounds[0]) - 1):
        a, b = np.array([bs[r] for bs in bounds]), np.array([bs[r + 1] for bs in bounds])
        u0, u1 = (np.array([u[j] for u in inputs]) for j in (r, r + 1))
        drift = simulate._Piece(compiled, a, u0, (u1 - u0) / (b - a)[:, None])
        for _ in range(3):
            t, y = rng.uniform(a, b), rng.uniform(0.0, 1.2, (size, net.n_free))
            drift.at(t[None])
            got = np.reshape(drift(0, y), (size, net.n_free))
            for c, signal in enumerate(signals):
                expected = _clamped_drift(net, signal)(t[c], y[c])
                assert np.max(np.abs(got[c] - expected)) <= 1e-12 * np.max(np.abs(expected))


class _Drift:
    """A drift for ``solve_ivp`` from ``f(call, t, y, columns)``; counts calls and columns evaluated."""

    needs_t = True

    def __init__(self, f):
        self.f, self.calls, self.columns = f, 0, 0

    def select(self, cols):
        drift = self

        class Selection:
            def at(self, times):
                self.times = times

            def __call__(self, i, y):
                drift.calls += 1
                drift.columns += len(y)
                return drift.f(drift.calls, self.times[i], y, cols)
        return Selection()


def test_nfev_of_a_batch_counts_its_rejected_column_steps():
    # stiffer columns reject more of their steps
    rates = np.array([[1.0], [40.0], [400.0]])
    drift = _Drift(lambda call, t, y, cols: -rates[cols] * (y - 2 - np.sin(5 * t)[:, None]))
    log = simulate._StepLog()
    sol = simulate.solve_ivp(drift, [0.0, 0.5, 1.0], [2.0, 2.0, 2.0], np.ones((3, 1)),
                             rtol=1e-6, atol=1e-9, consumer=log)
    assert sol.rejected.sum() > 0
    assert (sol.nfev - 2) // 6 - (len(sol.t) - 1) == sol.rejected.sum()
    # two start-up calls evaluate all three columns; every attempted column-step six times
    assert drift.columns == 2 * 3 + (sol.nfev - 2)
    assert len(sol.t) - 1 == sum(len(ends) for ends, _, _ in log.steps(sol.ends, [1] * 3)) == \
        sum(map(len, sol.ends))


def test_stepper_agrees_with_scipy_rk45(example_nfa, planned):
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    # bounds fixed before the comparison was first run: end states within
    # 1e-12, accepted steps within 1 % of scipy's
    out, brn = _network(example_nfa, planned, "sinusoid")
    signal = encode(SignalSpec(("1", "0"), epsilon=planned.epsilon, tau=planned.tau))
    config = SimConfig(t_end=8 * planned.tau, rel_tol=1e-8, abs_tol=1e-11)
    trace = integrate(brn, out.initial, signal, config)
    net = simulate._CompiledNetwork(brn)
    y, steps = out.initial.values[net.free_idx], 0
    bounds = simulate._bounds(signal.critical_times(), 0.0, config.t_end)
    for a, b in zip(bounds[:-1], bounds[1:]):
        sol = scipy_solve_ivp(_clamped_drift(net, signal), (a, b), y, method="RK45", rtol=config.rel_tol,
                              atol=config.abs_tol, max_step=planned.tau / 3)
        y, steps = sol.y[:, -1], steps + len(sol.t) - 1
    assert np.max(np.abs(trace._dense.free(np.array([config.t_end]))[0] - y)) <= 1e-12
    assert abs(trace.stats.accepted - steps) <= 0.01 * steps


def test_trace_stats_are_the_stepper_counts(example_nfa, planned, monkeypatch):
    out, brn = _network(example_nfa, planned, "piecewise")
    spec = SignalSpec(("0", "1"), epsilon=planned.epsilon, tau=planned.tau)
    calls = _recording(monkeypatch)
    trace = integrate(brn, out.initial, encode(spec), SimConfig(t_end=spec.decision_time))
    sols = [sol for _, _, sol in calls]
    assert trace.stats == simulate.SolverStats(
        pieces=len(sols),
        nfev=sum(sol.nfev for sol in sols),
        accepted=sum(len(sol.t) - 1 for sol in sols),
        rejected=sum((sol.nfev - 2) // 6 - (len(sol.t) - 1) for sol in sols),
        min_step=min(float(np.diff(sol.t).min()) for sol in sols))
    assert trace.stats.rejected == sum(int(sol.rejected.sum()) for sol in sols)


def test_solver_stats_stay_out_of_the_report(example_nfa, planned):
    from nfa2crn.pipeline import RunManifest, run_end_to_end

    result = run_end_to_end(RunManifest(nfa=example_nfa, word=("1",), params=planned))
    assert result.trace.stats.nfev > 0
    assert not {"stats", "nfev", "pieces", "min_step"} & set(json.dumps(result.report).replace(
        '"', " ").split())


def _fault(f, y0, t1=2.0):
    with pytest.raises(IntegratorFault) as caught:
        simulate.solve_ivp(_Drift(f), [0.0], [t1], np.array([[y0]]), rtol=1e-6, atol=1e-9,
                           consumer=simulate._StepLog())
    assert caught.value.time is not None and caught.value.state is not None
    return caught.value


def test_fault_on_step_size_underflow():
    # y' = y^2 from 1 blows up at t = 1
    fault = _fault(lambda call, t, y, cols: y * y, 1.0)
    assert "below the spacing of times" in str(fault)
    assert 0.999 < fault.time < 1.0 + 1e-6


def test_fault_on_a_non_finite_state():
    # the third stage of the first step is infinite, and so is the new state
    fault = _fault(lambda call, t, y, cols: np.full_like(y, np.inf) if call == 5 else -y, 1.0)
    assert str(fault) == "non-finite state"
    assert not np.isfinite(fault.state).all()


def test_fault_on_a_non_finite_error_norm():
    # only the last stage (the new state's drift, used by the error estimate alone) is infinite
    fault = _fault(lambda call, t, y, cols: np.full_like(y, np.inf) if call == 8 else -y, 1.0)
    assert str(fault) == "non-finite error norm"
    assert np.isfinite(fault.state).all()


def test_fault_on_a_negative_excursion():
    fault = _fault(lambda call, t, y, cols: -np.ones_like(y), 0.5, t1=1.0)
    assert "negative concentration" in str(fault)
    assert fault.state[0] < -10 * 1e-9


def test_an_infinite_horizon_is_refused():
    # the stepper would step toward it a piece at a time and never end
    with pytest.raises(ValueError, match="t_end"):
        SimConfig(t_end=math.inf)


def test_importing_the_cli_leaves_scipy_integrate_and_interpolate_unloaded():
    src = Path(simulate.__file__).resolve().parent.parent
    code = ("import sys, nfa2crn.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.integrate', 'scipy.interpolate'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={"PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
