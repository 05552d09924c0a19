import io
import math

import numpy as np
import pytest
from scipy.integrate import OdeSolution

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
    BlockPath,
    SimConfig,
    Trace,
    check_phi,
    conservation_deviation,
    decide,
    integrate,
    integrate_fixed_step,
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
    dev, totals = conservation_deviation(trace, out.initial, pairs)
    assert dev <= 1e-8
    assert all(v == pytest.approx(1.0) for v in totals.values())


def test_pieces_end_at_signal_corners(example_nfa, planned):
    out = translate(example_nfa, planned.rates)
    signal = encode(SignalSpec(("1", "0"), epsilon=planned.epsilon, tau=planned.tau))
    trace = integrate(out.brn, out.initial, signal, SimConfig(t_end=7.5 * planned.tau))
    assert set(signal.critical_times().tolist()) <= set(trace._dense.ts.tolist())


def test_block_path_reuses_shared_prefix_exactly(example_nfa, planned, monkeypatch):
    out = translate(example_nfa, planned.rates)
    brn = perturb_rates(out.brn, PerturbationProfile(delta=planned.delta, mode="sinusoid",
                                                     omega=2 * math.pi / planned.tau, seed=3))
    config = SimConfig(t_end=9.0 * planned.tau)
    spans = []
    real_solve_ivp = simulate.solve_ivp

    def recording_solve_ivp(fun, t_span, *args, **kwargs):
        spans.append(tuple(t_span))
        return real_solve_ivp(fun, t_span, *args, **kwargs)

    def run(word, block_path=None):
        spans.clear()
        signal = encode(SignalSpec(word, epsilon=planned.epsilon, tau=planned.tau))
        trace = integrate(brn, out.initial, signal, config, block_path=block_path)
        return trace, list(spans)

    monkeypatch.setattr(simulate, "solve_ivp", recording_solve_ivp)
    block_path = BlockPath()
    run(("1", "0"), block_path)
    shared, shared_spans = run(("1", "1"), block_path)
    alone, alone_spans = run(("1", "1"))
    # the first block (three phases) came from the store
    assert min(t0 for t0, _ in shared_spans) == 3 * planned.tau
    assert len(alone_spans) - len(shared_spans) == 9
    assert np.array_equal(shared.values, alone.values)
    assert np.array_equal(shared._dense.ts, alone._dense.ts)
    # the same word again integrates only its tail; another initial state shares nothing
    _, again_spans = run(("1", "1"), block_path)
    assert again_spans == [(6 * planned.tau, config.t_end)]
    x0 = out.initial.replace(Y_A=0.99, Yb_A=0.01)
    spans.clear()
    trace = integrate(brn, x0, encode(SignalSpec(("1", "1"), epsilon=planned.epsilon,
                                                 tau=planned.tau)), config, block_path=block_path)
    assert min(t0 for t0, _ in spans) == 0.0
    assert not np.array_equal(trace.values, alone.values)


def test_dense_table_matches_ode_solution(example_nfa, planned, monkeypatch):
    out = translate(example_nfa, planned.rates)
    brn = perturb_rates(out.brn, PerturbationProfile(delta=planned.delta, mode="sinusoid",
                                                     omega=2 * math.pi / planned.tau, seed=4))
    spec = SignalSpec(("1", "0", "1"), epsilon=planned.epsilon, tau=planned.tau)
    config = SimConfig(t_end=spec.decision_time + planned.tau)
    sols = []
    real_solve_ivp = simulate.solve_ivp

    def recording_solve_ivp(*args, **kwargs):
        sols.append(real_solve_ivp(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(simulate, "solve_ivp", recording_solve_ivp)
    trace = integrate(brn, out.initial, encode(spec), config)
    reference = OdeSolution(np.concatenate([[0.0], *(sol.t[1:] for sol in sols)]),
                            [step for sol in sols for step in sol.sol.interpolants])
    table = trace._dense
    assert np.array_equal(table.ts, reference.ts)
    blocks = 3 * planned.tau * np.arange(spec.length + 1)
    for t in (trace.times, blocks, table.ts):
        assert np.allclose(table.free(t), reference(t).T, rtol=1e-14, atol=1e-15)
    free = [i for i, name in enumerate(trace.names) if not name.startswith("X_")]
    assert np.allclose(trace.values[:, free], np.maximum(reference(trace.times).T, 0.0),
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


def test_drift_matches_the_monomial_products_to_the_bit(example_nfa, planned):
    out = translate(example_nfa, planned.rates)
    brn = perturb_rates(out.brn, PerturbationProfile(delta=planned.delta, mode="sinusoid",
                                                     omega=2 * math.pi / planned.tau, seed=2))
    signal = encode(SignalSpec(("1", "0"), epsilon=planned.epsilon, tau=planned.tau))
    net = simulate._CompiledNetwork(brn, signal)
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
        expected = net.stoich @ (_rates(net, t) * monomials)
        assert np.array_equal(net.drift(t, x[net.free_idx]), expected)


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
        net = simulate._CompiledNetwork(network, _zero_signal())
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
    net = simulate._CompiledNetwork(brn, signal)
    rng = np.random.default_rng(1)
    for t in rng.uniform(0.0, 7.0, 100):
        y = rng.uniform(0.0, 1.2, len(net.free_idx))
        x = net.states(np.array([t]), y)[0]
        assert np.array_equal(x[net.driven_idx], [signal.concentration(nm, t) for nm in net.driven_names])
        assert np.array_equal(net.drift(t, y), vector_field(brn, x, t)[net.free_idx])


def test_fixed_step_cross_check(example_nfa, planned):
    out = translate(example_nfa, planned.rates)
    spec = SignalSpec(("1",), epsilon=planned.epsilon, tau=planned.tau)
    config = SimConfig(t_end=2.0, rel_tol=1e-9, abs_tol=1e-12)
    adaptive = integrate(out.brn, out.initial, encode(spec), config)
    fixed = integrate_fixed_step(out.brn, out.initial, encode(spec), config, h=planned.tau / 10_000)
    for name in ("Y_A", "Y_B", "Z_B", "Zb_C"):
        assert adaptive.value(name, 2.0) == pytest.approx(fixed.value(name, 2.0), abs=1e-6)


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
