import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import PLAN_DELTA, PLAN_EPS, PLAN_ETA
from nfa2crn.analysis import plan_parameters
from nfa2crn.cli import main
from nfa2crn.nfa import parse_nfa
from nfa2crn.perturb import ObservationScheme, PerturbationProfile
from nfa2crn.pipeline import (
    RunManifest,
    all_words,
    _packs,
    corpus_reports,
    random_nfa,
    run_end_to_end,
)

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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 300), max_size=12))
def test_every_group_lands_in_one_pack_within_the_largest_group(sizes):
    packs = _packs(sizes)
    assert sorted(g for pack in packs for g in pack) == list(range(len(sizes)))
    assert all(sum(sizes[g] for g in pack) <= max(sizes) for pack in packs)


def test_the_perturbed_corpus_packs_its_nine_groups_in_four():
    # runs x free species of the example and of one automaton per size up to 4 states x 2 symbols
    sizes = [15 * 12] + [runs * 4 * q for q in (1, 2, 3, 4) for runs in (4, 15)]
    assert _packs(sizes) == [[8], [0, 2], [6, 5], [4, 7, 3, 1]]


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
                    initial_mode="worst-case-signed", seed=3, extra_phases=4.0)
    result = run_end_to_end(m)
    assert result.verified
    assert result.decision.accept is False  # second-to-last symbol is 0
    window = result.report["maintenance"]["window"]
    assert window[1] - window[0] == pytest.approx(4.0 * planned.tau)


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
    from nfa2crn.nfa import parse_nfa
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
        from dataclasses import replace

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
