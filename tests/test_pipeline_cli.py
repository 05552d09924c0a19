import ast
import io
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import PLAN_DELTA, PLAN_EPS, PLAN_ETA, grid_rows, sample_grid
from nfa2crn import pipeline, simulate
from nfa2crn.analysis import plan_parameters
from nfa2crn.cli import main
from nfa2crn.nfa import accepts, parse_nfa
from nfa2crn.perturb import ObservationScheme, PerturbationProfile
from nfa2crn.pipeline import (
    EXAMPLE_NFA_TEXT,
    RunManifest,
    all_words,
    corpus_reports,
    random_nfa,
    run_end_to_end,
)
from nfa2crn.signals import SignalSpec

DATA = Path(__file__).parent / "data"
NFA_PATH = str(DATA / "second_to_last_one.nfa")


def _manifest(nfa, word, params, perturbed=False, seed=0):
    if perturbed:
        profile = PerturbationProfile(delta=params.delta, mode="sinusoid",
                                      omega=2 * math.pi / params.tau, seed=seed)
        scheme = ObservationScheme(eta=params.eta, mode="worst-case")
        initial_mode = "worst-case-signed"
    else:
        profile, scheme, initial_mode = PerturbationProfile(), ObservationScheme(), "exact"
    return RunManifest(nfa=nfa, word=word, params=params, profile=profile,
                       scheme=scheme, initial_mode=initial_mode, seed=seed)


def test_run_end_to_end_accept(example_nfa, planned):
    result = run_end_to_end(_manifest(example_nfa, ("1", "0"), planned))
    assert result.verified
    assert result.decision.accept is True
    assert result.report["oracle"]["accepts"] is True
    assert result.report["phi_all"]
    assert result.report["conservation"]["max_deviation"] <= 1e-6
    assert result.report["constraints"]["passed"]


def test_run_end_to_end_reject(example_nfa, planned):
    result = run_end_to_end(_manifest(example_nfa, ("0", "1"), planned))
    assert result.verified
    assert result.decision.accept is False
    assert result.report["decision"]["verdicts"] == {
        "A": "in-set", "B": "in-set", "C": "not-in-set"}


def test_run_end_to_end_perturbed(example_nfa, planned):
    result = run_end_to_end(_manifest(example_nfa, ("1", "0"), planned, perturbed=True, seed=5))
    assert result.verified
    assert result.decision.accept is True
    assert result.report["maintenance"]["ok"]


def test_report_determinism(example_nfa, planned):
    m = _manifest(example_nfa, ("1", "0"), planned, perturbed=True, seed=9)
    r1 = run_end_to_end(m).report
    r2 = run_end_to_end(m).report
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_report_files_written(example_nfa, planned, tmp_path):
    m = RunManifest(nfa=example_nfa, word=("1",), params=planned,
                    out_dir=str(tmp_path / "run"))
    run_end_to_end(m)
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["verified"]
    header = (tmp_path / "run" / "trace.csv").read_text().splitlines()[0]
    assert header.startswith("t,")
    assert "Y_A" in header


def test_all_words_enumeration():
    words = all_words(("0", "1"), 2)
    assert len(words) == 1 + 2 + 4
    assert words[0] == ()
    assert ("1", "1") in words


def test_random_nfa_within_limits():
    rng = np.random.default_rng(0)
    for _ in range(50):
        nfa = random_nfa(rng, max_states=4, max_symbols=2)
        assert 1 <= nfa.num_states <= 4
        assert 1 <= nfa.num_symbols <= 2
        assert nfa.initial
        assert nfa.num_transitions >= 1


def test_corpus_reports_sequential(example_nfa, planned):
    manifests = [_manifest(example_nfa, w, planned) for w in (("1",), ("1", "0"))]
    reports = corpus_reports(manifests)
    assert len(reports) == 2
    assert all(r["verified"] for r in reports)


def test_corpus_reports_worker_pool_matches_sequential(example_nfa, planned):
    # a shuffled corpus whose words share prefixes: sinusoid rates over every
    # word of length <= 3, piecewise rates (whose knots depend on the word
    # length), and random initial states under two seeds
    manifests = [_manifest(example_nfa, w, planned, perturbed=True, seed=2)
                 for w in all_words(example_nfa.alphabet, 3)]
    piecewise = PerturbationProfile(delta=planned.delta, mode="piecewise", seed=4)
    manifests += [RunManifest(nfa=example_nfa, word=w, params=planned, profile=piecewise)
                  for w in (("1", "0"), ("1", "1"), ("1",))]
    manifests += [RunManifest(nfa=example_nfa, word=w, params=planned,
                              initial_mode="random", seed=seed)
                  for seed in (7, 8) for w in (("0", "1"), ("0",))]
    # a smaller automaton, whose groups share packs with the example's
    small = parse_nfa("states: p0 p1\nalphabet: 0\ninitial: p0\naccepting: p1\ntrans: p0 0 p1\n")
    small_params = plan_parameters(small.num_transitions, PLAN_EPS, PLAN_ETA, PLAN_DELTA).params
    manifests += [_manifest(small, w, small_params, perturbed=True, seed=3)
                  for w in all_words(small.alphabet, 3)]
    order = np.random.default_rng(1).permutation(len(manifests))
    manifests = [manifests[i] for i in order]

    alone = [run_end_to_end(m).report for m in manifests]
    sequential = corpus_reports(manifests)
    pooled = corpus_reports(manifests, processes=2)
    assert [r["manifest"] for r in sequential] == [m.to_json_dict() for m in manifests]
    assert json.dumps(sequential, sort_keys=True) == json.dumps(alone, sort_keys=True)
    assert json.dumps(pooled, sort_keys=True) == json.dumps(alone, sort_keys=True)


def _perturbed_corpus(seed):
    """``verify-corpus --perturbed`` over the example and one random automaton per size up to 4 states x 2 symbols."""
    rng = np.random.default_rng(seed)
    by_size = {}
    while len(by_size) < 8:
        nfa = random_nfa(rng, 4, 2)
        by_size.setdefault((nfa.num_states, nfa.num_symbols), nfa)
    plans = {}
    manifests = []
    for i, nfa in enumerate([parse_nfa(EXAMPLE_NFA_TEXT)] + [by_size[k] for k in sorted(by_size)]):
        d = nfa.num_transitions
        if d not in plans:
            plans[d] = plan_parameters(d, PLAN_EPS, PLAN_ETA, PLAN_DELTA).params
        params = plans[d]
        manifests += [_manifest(nfa, word, params, perturbed=True, seed=seed + i)
                      for word in all_words(nfa.alphabet, 3)]
    return manifests


def test_the_perturbed_corpus_integrates_as_one_batch(monkeypatch):
    # every network's runs share one tau, so the corpus is one batch: each of
    # the three block levels takes its nine pieces in nine calls, and the tails take one
    calls = []
    real_solve_ivp = simulate.solve_ivp

    def counting_solve_ivp(*args, **kwargs):
        calls.append(len(args[1]))
        return real_solve_ivp(*args, **kwargs)

    monkeypatch.setattr(simulate, "solve_ivp", counting_solve_ivp)
    manifests = _perturbed_corpus(1)
    reports = corpus_reports(manifests)
    assert len(manifests) == 91 and all(r["verified"] for r in reports)
    assert len(calls) == 28


def test_a_perturbed_network_is_shared_across_word_lengths_unless_its_knots_span_them(example_nfa, planned,
                                                                                      monkeypatch):
    # sinusoid rates do not depend on t_end: one perturbed network per automaton;
    # piecewise knots span [0, t_end]: one per distinct word length
    calls = []
    real_perturb_rates = pipeline.perturb_rates

    def counting_perturb_rates(brn, profile, *, t_end=None):
        calls.append(t_end)
        return real_perturb_rates(brn, profile, t_end=t_end)

    monkeypatch.setattr(pipeline, "perturb_rates", counting_perturb_rates)
    other = parse_nfa("states: p0 p1\nalphabet: 0\ninitial: p0\naccepting: p1\ntrans: p0 0 p1\ntrans: p1 0 p1\n")
    other_params = plan_parameters(other.num_transitions, PLAN_EPS, PLAN_ETA, PLAN_DELTA).params
    sinusoid = [_manifest(nfa, w, params, perturbed=True, seed=7)
                for nfa, params in ((example_nfa, planned), (other, other_params))
                for w in all_words(nfa.alphabet, 2)]
    corpus_reports(sinusoid)
    assert calls == [None, None]
    calls.clear()
    profile = PerturbationProfile(delta=planned.delta, mode="piecewise", seed=21)
    piecewise = [RunManifest(nfa=example_nfa, word=w, params=planned, profile=profile)
                 for w in all_words(example_nfa.alphabet, 2)]
    corpus_reports(piecewise)
    assert calls == sorted({m.sim_config().t_end for m in piecewise})


def test_a_corpus_keeps_no_step_table(example_nfa, planned, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a corpus run built a dense table")

    manifests = [_manifest(example_nfa, w, planned, perturbed=True, seed=4) for w in all_words(("0", "1"), 2)]
    expected = [run_end_to_end(m).report for m in manifests]
    monkeypatch.setattr(simulate.DenseTable, "__init__", refuse)
    assert corpus_reports(manifests) == expected


def test_a_returned_trace_reads_any_time_as_integrate_does(example_nfa, planned):
    m = _manifest(example_nfa, ("1", "0"), planned, perturbed=True, seed=6)
    result = run_end_to_end(m)
    setup = pipeline._setup(m, {})
    alone = simulate.integrate(setup.brn, setup.x0, setup.signal, setup.sim)
    assert np.array_equal(sample_grid(result.trace), sample_grid(alone))
    assert grid_rows(result.trace).tobytes() == grid_rows(alone).tobytes()
    assert result.trace.stats == alone.stats
    # times off the grid: inside a step, on a corner, at the end
    t = np.array([0.123 * planned.tau, 3 * planned.tau, 4.5678 * planned.tau, setup.sim.t_end])
    for name in ("Y_A", "Yb_C", "Z_B", "X_1"):
        assert result.trace.value(name, t).tobytes() == alone.value(name, t).tobytes()
        assert result.trace.value(name, float(t[2])) == alone.value(name, float(t[2]))


def test_the_returned_trace_reads_the_report_to_the_bit(example_nfa, planned):
    # at the block ends and at t_dec a trace reads the solver's own state, as the report does
    for word in all_words(example_nfa.alphabet, 3):
        m = _manifest(example_nfa, word, planned)
        result = run_end_to_end(m)
        spec = SignalSpec(word, epsilon=planned.epsilon, tau=planned.tau)
        assert simulate.decide(result.trace, example_nfa, spec, m.scheme) == result.decision
        for k, entry in enumerate(result.report["phi"]):
            slack = simulate.phi_slack(result.trace, example_nfa, word[:k], planned.gamma, planned.tau)
            assert np.float64(slack).tobytes() == np.float64(entry["slack"]).tobytes()
            assert entry["holds"] == (entry["slack"] >= 0)
        assert result.report["oracle"]["accepts"] == accepts(example_nfa, word)


def test_verify_reads_each_block_end_once(example_nfa, planned, monkeypatch):
    # one phi_slack per block end gives both its slack and whether it holds
    word = ("1", "0", "1")
    m = _manifest(example_nfa, word, planned)
    setup = pipeline._setup(m, {})
    trace = pipeline._integrate([setup], steps=False)[0]
    calls = []
    for name in ("phi_slack", "check_phi"):
        real = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
    pipeline._verify(setup, trace, pipeline.check_constraints(planned), True)
    assert calls == ["phi_slack"] * (len(word) + 1)


def test_a_returned_trace_reads_off_grid_times_without_integrating(example_nfa, planned, monkeypatch):
    result = run_end_to_end(_manifest(example_nfa, ("1", "1"), planned, perturbed=True, seed=2))
    calls = []
    real_solve_ivp = simulate.solve_ivp

    def counting_solve_ivp(*args, **kwargs):
        calls.append(len(args[1]))
        return real_solve_ivp(*args, **kwargs)

    monkeypatch.setattr(simulate, "solve_ivp", counting_solve_ivp)
    t = np.array([0.123, 4.5678, 6.0101]) * planned.tau
    assert not np.isin(t, sample_grid(result.trace)).any()
    for name in ("Y_A", "Z_B", "X_1"):
        result.trace.value(name, t)
        result.trace.value(name, float(t[0]))
    assert calls == []


def test_a_written_trace_reads_the_report_at_its_kept_times(example_nfa, planned, tmp_path):
    # at tau = 1 the written grid holds t_dec for every word and the block ends 3k tau for words of length 1 and 3
    assert planned.tau == 1.0
    for word, kept_rows in ((("1",), 3), (("1", "0"), 2), (("0", "1", "1"), 5)):
        out_dir = tmp_path / "".join(word)
        m = replace(_manifest(example_nfa, word, planned, perturbed=True, seed=5), out_dir=str(out_dir))
        result = run_end_to_end(m)
        text = (out_dir / "trace.csv").read_text()
        rows = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()[1:]])
        at_kept = [row for row in rows if float(row[0]) in result.trace.points]
        assert len(at_kept) == kept_rows
        for row in at_kept:
            assert row[1:].tobytes() == result.trace.state_at(float(row[0])).tobytes()
        written = simulate.trace_from_csv(io.StringIO(text))
        spec = SignalSpec(word, epsilon=planned.epsilon, tau=planned.tau)
        assert simulate.decide(written, example_nfa, spec, m.scheme) == result.decision


def test_a_run_samples_no_grid_until_it_is_written(example_nfa, planned, monkeypatch):
    calls = []
    real_call = simulate.DenseTable.__call__

    def counting_call(self, t):
        calls.append(len(t))
        return real_call(self, t)

    monkeypatch.setattr(simulate.DenseTable, "__call__", counting_call)
    result = run_end_to_end(_manifest(example_nfa, ("1", "0"), planned, perturbed=True, seed=1))
    assert calls == []
    result.trace.write_csv(io.StringIO())
    assert calls == [simulate.SAMPLE_INTERVALS + 1]


def test_a_corpus_writes_the_files_of_its_runs_alone(example_nfa, planned, tmp_path):
    # two of six runs write their report and trace; they keep their steps, the others do not
    words = [("1",), ("1", "0"), ("0", "1"), ("1", "1"), (), ("0",)]
    manifests = [_manifest(example_nfa, w, planned, perturbed=True, seed=3) for w in words]
    written = [replace(m, out_dir=str(tmp_path / f"corpus{i}")) if i in (1, 4) else m
               for i, m in enumerate(manifests)]
    assert corpus_reports(written) == corpus_reports(manifests)
    for i in (1, 4):
        run_end_to_end(replace(manifests[i], out_dir=str(tmp_path / f"alone{i}")))
        for name in ("report.json", "trace.csv"):
            assert (tmp_path / f"corpus{i}" / name).read_bytes() == (tmp_path / f"alone{i}" / name).read_bytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rk45_overflow_regression():
    # automaton #9 of the perturbed acceptance corpus on word "1": RK45's error
    # norm overflowed on a rejected trial step while the solver stepped
    # straight across the signal corners
    seed = 20240811 + 10
    nfa = parse_nfa("states: q0\nalphabet: 0 1\ninitial: q0\ntrans: q0 0 q0\n")
    params = plan_parameters(nfa.num_transitions, PLAN_EPS, PLAN_ETA, PLAN_DELTA).params
    result = run_end_to_end(_manifest(nfa, ("1",), params, perturbed=True, seed=seed))
    assert result.verified


def test_other_adversary_modes_end_to_end(example_nfa, planned):
    # piecewise rate drift plus uniform readout noise and a random initial offset
    profile = PerturbationProfile(delta=planned.delta, mode="piecewise", seed=21)
    scheme = ObservationScheme(eta=planned.eta, mode="uniform", seed=21)
    m = RunManifest(nfa=example_nfa, word=("1", "1"), params=planned, profile=profile,
                    scheme=scheme, initial_mode="random", seed=21)
    result = run_end_to_end(m)
    assert result.verified and result.decision.accept is True


def test_long_word_and_extended_maintenance(example_nfa, planned):
    m = RunManifest(nfa=example_nfa, word=("1", "0", "1", "1", "0", "1"), params=planned,
                    profile=PerturbationProfile(delta=planned.delta, mode="sinusoid",
                                                omega=2 * math.pi / planned.tau, seed=3),
                    scheme=ObservationScheme(eta=planned.eta, mode="worst-case"),
                    initial_mode="worst-case-signed", seed=3)
    result = run_end_to_end(m)
    assert result.verified
    assert result.decision.accept is False  # second-to-last symbol is 0
    t_dec = result.decision.t_dec
    assert result.trace.t_end == t_dec
    maintenance = result.report["maintenance"]
    assert maintenance["certified"] and maintenance["ok"]
    assert list(maintenance["sign_slack"]) == list(example_nfa.states)
    assert min(maintenance["sign_slack"].values()) > 0.49
    # the certified margins are the levels at t_dec, as the solver left them there
    reachable = set(result.report["oracle"]["reachable"])
    state = dict(zip(result.trace.names, result.trace.state_at(t_dec).tolist()))
    level = {q: state[f"Y_{q}"] for q in example_nfa.states}
    assert maintenance["high_margin"] == min(level[q] for q in reachable) - (2 / 3 + planned.eta)
    assert maintenance["low_margin"] == min((1 / 3 - planned.eta) - level[q]
                                            for q in example_nfa.states if q not in reachable)
    # a tail integrated four phases past t_dec reads those levels there and keeps the verdicts at its end
    setup = pipeline._setup(m, {})
    tail = simulate.integrate(setup.brn, setup.x0, setup.signal, replace(setup.sim, t_end=t_dec + 4.0 * planned.tau))
    assert tail.t_end == pytest.approx(t_dec + 4.0 * planned.tau)
    for q in example_nfa.states:
        assert tail.value(f"Y_{q}", t_dec) == pytest.approx(level[q], abs=1e-10)
    late = simulate.decide(tail, example_nfa, setup.signal.spec, m.scheme, t=tail.t_end)
    assert late.verdicts == result.decision.verdicts and late.accept is False


@pytest.mark.parametrize("mode", ["sinusoid", "piecewise"])
def test_the_certified_levels_bound_the_integrated_tail(example_nfa, planned, mode):
    # three phases integrated past t_dec: no in-set state falls below its
    # certified level at t_dec, no out-of-set state rises above it
    for seed, word in enumerate([(), ("1",), ("0", "1"), ("1", "0"), ("1", "1", "0")]):
        profile = PerturbationProfile(delta=planned.delta, mode=mode, omega=2 * math.pi / planned.tau, seed=seed)
        m = RunManifest(nfa=example_nfa, word=word, params=planned, profile=profile,
                        initial_mode="worst-case-signed", seed=seed)
        result = run_end_to_end(m)
        assert result.report["maintenance"]["certified"] and result.verified
        t_dec = result.decision.t_dec
        setup = pipeline._setup(m, {})
        trace = simulate.integrate(setup.brn, setup.x0, setup.signal,
                                   replace(setup.sim, t_end=t_dec + 3.0 * planned.tau))
        # the sample grid past t_dec, and a finer grid read from the steps
        grid = sample_grid(trace)
        tail = np.concatenate([grid[grid >= t_dec], np.linspace(t_dec, trace.t_end, 1001)])
        for q in example_nfa.states:
            start, levels = result.trace.value(f"Y_{q}", t_dec), trace.value(f"Y_{q}", tail)
            if q in result.report["oracle"]["reachable"]:
                assert levels.min() >= start - 1e-9
            else:
                assert levels.max() <= start + 1e-9


def test_a_state_short_of_its_majority_tipping_point_is_not_certified(example_nfa, planned):
    from nfa2crn.analysis import check_constraints

    setup = pipeline._setup(_manifest(example_nfa, ("1", "0"), planned), {})
    readout = simulate.integrate(setup.brn, setup.x0, setup.signal, setup.sim, steps=False)
    t_dec = setup.signal.spec.decision_time

    def report(x0, **levels):
        # the run's readout, with some states at t_dec set by hand
        state = readout.state_at(t_dec).copy()
        for name, value in levels.items():
            state[readout._index[name]] = value
        handmade = replace(readout, points={**readout.points, t_dec: state})
        return pipeline._verify(replace(setup, x0=x0), handmade, check_constraints(planned), True).report

    x0 = setup.x0
    r = report(x0)
    assert r["maintenance"]["certified"] and r["verified"]
    # "10" reaches A and C; the tipping point of a pair of total 1 is 0.5 (k4 + delta) / k4
    for levels in ({"Y_C": 0.5}, {"Y_B": 0.5}):
        r = report(x0, **levels)
        assert not r["maintenance"]["certified"] and not r["maintenance"]["ok"] and not r["verified"]
    # a pair of total 1.5 tips at 0.75: C reads in-set with a positive margin, yet may still fall
    r = report(x0.replace(Yb_C=x0["Yb_C"] + 0.5), Y_C=0.74)
    assert r["verdicts_match"] and r["phi_all"] and r["maintenance"]["high_margin"] > 0
    assert r["maintenance"]["sign_slack"]["C"] < 0
    assert not r["maintenance"]["certified"] and not r["verified"]


def test_wider_automaton_end_to_end():
    # six states over a three-symbol alphabet, planned at its own degree
    text = (
        "states: s0 s1 s2 s3 s4 s5\n"
        "alphabet: a b c\n"
        "initial: s0\n"
        "accepting: s5\n"
        + "".join(f"trans: s{i} a s{(i + 1) % 6}\n" for i in range(6))
        + "".join(f"trans: s{i} b s{i}\n" for i in range(6))
        + "trans: s0 c s5\ntrans: s4 c s5\n"
    )
    from nfa2crn.nfa import accepts, parse_nfa
    from nfa2crn.analysis import plan_parameters
    from nfa2crn.nfa import accepts

    nfa = parse_nfa(text)
    plan = plan_parameters(nfa.num_transitions, 1e-5, 0.05, 1e-3)
    assert plan.feasible, plan.message
    for word in (("a", "b", "c"), ("a", "a"), ("c",)):
        m = RunManifest(nfa=nfa, word=word, params=plan.params)
        result = run_end_to_end(m)
        assert result.verified
        assert result.decision.accept == accepts(nfa, word)


class TestCli:
    def test_compile_outputs_json(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        code = main(["compile", NFA_PATH, "--k1", "5", "--k2", "300", "--k3", "14",
                     "--k4", "5", "-o", str(out)])
        assert code == 0
        bundle = json.loads(out.read_text())
        assert bundle["size_report"] == {"species": 16, "reactions": 20, "dna_strands": 114}
        assert len(bundle["brn"]["reactions"]) == 20
        err = capsys.readouterr().err
        assert "species=16" in err

    def test_compile_pretty(self, capsys):
        code = main(["compile", NFA_PATH, "--k1", "5", "--k2", "300", "--k3", "14",
                     "--k4", "5", "--pretty"])
        assert code == 0
        out = capsys.readouterr().out
        assert "X_r + Z_A ->{k3} X_r + Zb_A" in out

    def test_encode_csv_and_json(self, tmp_path):
        csv_path, json_path = tmp_path / "sig.csv", tmp_path / "sig.json"
        code = main(["encode", "10", "--eps", "0.1", "--tau", "1.0",
                     "-o", str(csv_path), "--json", str(json_path)])
        assert code == 0
        assert csv_path.read_text().splitlines()[0].split(",")[0] == "t"
        descriptor = json.loads(json_path.read_text())
        assert descriptor["word"] == ["1", "0"]

    def test_plan_check_run_chain(self, tmp_path, capsys):
        params_path = tmp_path / "params.json"
        code = main(["plan", "--d", "5", "--eps", "1e-4", "--eta", "0.05",
                     "--delta", "1e-3", "-o", str(params_path)])
        assert code == 0
        code = main(["check", str(params_path)])
        assert code == 0
        assert "overall: PASS" in capsys.readouterr().out
        out_dir = tmp_path / "run"
        code = main(["run", NFA_PATH, "10", "--params", str(params_path),
                     "--out", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["verified"] and report["decision"]["accept"] is True

    def test_plan_infeasible_exit_code(self, tmp_path, capsys):
        code = main(["plan", "--d", "5", "--eps", "0.3", "--eta", "0.3", "--delta", "0"])
        assert code == 1
        assert "infeasible" in capsys.readouterr().err

    def test_plan_reports_an_empty_grid_and_a_bad_budget(self, capsys):
        # an empty search grid and a budget that is not positive are reported, not raised or ignored
        for argv, binding in ((["--eps", "0.05", "--eta", "0.2", "--delta", "1e-3"], "gamma-star-window"),
                              (["--eps", "1e-4", "--eta", "0.05", "--delta", "1e-3", "--tau-max", "0"],
                               "tau-range")):
            assert main(["plan", "--d", "5", *argv]) == 1
            out, err = capsys.readouterr()
            assert json.loads(out)["binding"] == binding
            assert err.startswith("infeasible")

    def test_check_reports_gamma_star_above_gamma(self, tmp_path, capsys, planned):
        params_path = tmp_path / "params.json"
        params_path.write_text(replace(planned, gamma_star=0.3, gamma=0.28).dumps())
        assert main(["check", str(params_path)]) == 1
        out = capsys.readouterr().out
        assert "overall: FAIL" in out and "restore-high-travel" in out

    def test_run_mismatch_exit_code(self, tmp_path, capsys):
        # unworkable rates forced through report an unverified run
        bad = {"epsilon": 1e-4, "eta": 0.05, "delta": 0.0, "tau": 1.0,
               "gamma": 0.28, "gamma_star": 0.014, "k1": 0.1, "k2": 0.1,
               "k3": 0.1, "k4": 0.1, "d": 5}
        params_path = tmp_path / "bad.json"
        params_path.write_text(json.dumps(bad))
        code = main(["run", NFA_PATH, "10", "--params", str(params_path)])
        assert code == 1  # refused: constraints fail
        code = main(["run", NFA_PATH, "10", "--params", str(params_path), "--force"])
        assert code == 1  # ran anyway, decision cannot match

    @pytest.mark.parametrize("change, message", [
        (lambda data: {k: v for k, v in data.items() if k != "k4"}, "misses the key 'k4'"),
        (lambda data: {**data, "kappa": 1.0}, "unknown key 'kappa'"),
        (lambda data: {**data, "d": 1.5}, "holds d = 1.5, not a whole number"),
        (lambda data: list(data.values()), "is a JSON object, not list"),
    ])
    def test_check_and_run_refuse_a_parameter_file_of_another_shape(self, tmp_path, capsys, planned, change,
                                                                     message):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(change(planned.to_json_dict())))
        for argv in (["check", str(path)], ["run", NFA_PATH, "10", "--params", str(path)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err

    def test_usage_error_exit_code(self, capsys):
        assert main(["compile", "/nonexistent.nfa", "--k1", "1", "--k2", "1",
                     "--k3", "1", "--k4", "1"]) == 2

    def test_simulate_and_decide_roundtrip(self, tmp_path, capsys):
        net, sig, trace = tmp_path / "net.json", tmp_path / "sig.json", tmp_path / "trace.csv"
        params_path = tmp_path / "params.json"
        assert main(["plan", "--d", "5", "--eps", "1e-4", "--eta", "0.05",
                     "--delta", "1e-3", "-o", str(params_path)]) == 0
        params = json.loads(params_path.read_text())
        assert main(["compile", NFA_PATH,
                     "--k1", str(params["k1"]), "--k2", str(params["k2"]),
                     "--k3", str(params["k3"]), "--k4", str(params["k4"]),
                     "-o", str(net)]) == 0
        assert main(["encode", "10", "--eps", str(params["epsilon"]),
                     "--tau", str(params["tau"]), "-o", str(tmp_path / "sig.csv"),
                     "--json", str(sig)]) == 0
        assert main(["simulate", str(net), str(sig), "--t-end", "inf",
                     "-o", str(trace)]) == 2
        assert main(["simulate", str(net), str(sig), "--t-end", "8.0",
                     "-o", str(trace)]) == 0
        assert main(["decide", str(trace), NFA_PATH, "--word", "10",
                     "--eps", str(params["epsilon"]), "--tau", str(params["tau"])]) == 0
        decision = json.loads(capsys.readouterr().out)
        assert decision["accept"] is True
        assert decision["verdicts"]["C"] == "in-set"

    def test_decide_refuses_a_trace_csv_with_a_bad_row(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        # the rows span t_dec = 2.1; read past the NaN, the verdict would be "undetermined" (exit 1);
        # then every row without its Y_A cell, read as shifted columns; then one row a cell too long
        for row, rows in [(2, ["0.0,1.0,0.0,0.0", "1.0,nan,0.0,0.0", "3.0,1.0,0.0,0.0"]),
                          (1, ["0.0,0.0,0.0", "1.0,0.0,0.0", "3.0,0.0,0.0"]),
                          (2, ["0.0,1.0,0.0,0.0", "1.0,1.0,0.0,0.0,0.0", "3.0,1.0,0.0,0.0"])]:
            path.write_text("t,Y_A,Y_B,Y_C\n" + "".join(r + "\n" for r in rows))
            assert main(["decide", str(path), NFA_PATH, "--word", "10", "--eps", "1e-4", "--tau", "0.3"]) == 2
            assert f"row {row}" in capsys.readouterr().err

    def test_run_plot_data_and_band_overrides(self, tmp_path):
        plot = tmp_path / "long.csv"
        code = main(["run", NFA_PATH, "1", "--plan-eps", "1e-4", "--plan-delta", "1e-3",
                     "--adversary", "offset", "--delta", "5e-4",
                     "--obs-mode", "worst-case", "--eta", "0.01",
                     "--plot-data", str(plot)])
        assert code == 0
        lines = plot.read_text().splitlines()
        assert lines[0] == "t,species,value"
        assert any(line.split(",")[1] == "Y_B" for line in lines[1:])

    def test_analyze_equilibria(self, capsys):
        assert main(["analyze", "equilibria", "--a", "1", "--b", "1", "--c", "0.1",
                     "--p", "1", "--variant", "decay"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["equilibria"][1] == pytest.approx(0.6381966, abs=1e-6)

    def test_verify_corpus_small(self, capsys):
        code = main(["verify-corpus", "--count", "2", "--max-word-len", "1",
                     "--seed", "3", "--plan-eps", "1e-5", "--plan-delta", "1e-3"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 failed" in out
        # the line after the summary names the worst certified margin and the worst phi slack, with their runs
        worst = out.splitlines()[1]
        match = re.fullmatch(r"worst: maintenance margin (\S+) word=(\[.*?\]) nfa_states=(\[.*?\]); "
                             r"phi slack (\S+) word=(\[.*?\]) nfa_states=(\[.*?\])", worst)
        assert match, worst
        margin, slack = float(match[1]), float(match[4])
        assert 0.25 < margin < 0.3 and 0.2 < slack < 0.3
        for word, states in ((match[2], match[3]), (match[5], match[6])):
            assert len(ast.literal_eval(word)) <= 1 and ast.literal_eval(states)

    def test_decide_reads_a_run_trace_csv_as_linear_interpolation_does(self, tmp_path, capsys):
        from scipy.interpolate import interp1d

        assert main(["run", NFA_PATH, "10", "--adversary", "sinusoid", "--out", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        with open(tmp_path / "trace.csv") as fh:
            trace = simulate.trace_from_csv(fh)
        # the reference: scipy's linear interpolation with the end rows held outside, clamped at 0
        times, values = sample_grid(trace), grid_rows(trace)
        rows_at = interp1d(times, values, axis=0, kind="linear", bounds_error=False,
                           fill_value=(values[0], values[-1]))
        reference = simulate.Trace(trace.names, trace.t_end, lambda t: np.maximum(rows_at(t), 0.0))
        t = np.random.default_rng(0).uniform(0, trace.t_end, 500)
        assert np.allclose(trace._states(t), reference._states(t), rtol=0, atol=1e-12)
        nfa = parse_nfa(EXAMPLE_NFA_TEXT)
        spec = SignalSpec(("1", "0"), epsilon=report["manifest"]["params"]["epsilon"],
                          tau=report["manifest"]["params"]["tau"])
        for scheme in (ObservationScheme(), ObservationScheme(eta=0.05, mode="worst-case")):
            ours, theirs = (simulate.decide(tr, nfa, spec, scheme) for tr in (trace, reference))
            assert ours.verdicts == theirs.verdicts == report["decision"]["verdicts"]
            assert ours.accept == theirs.accept
            for q, value in theirs.observed.items():
                assert ours.observed[q] == pytest.approx(value, abs=1e-12)
