"""Command-line entry point wiring the whole pipeline.

Subcommands: compile, encode, plan, check, simulate, decide, run,
verify-corpus, analyze.  Outputs are JSON or CSV; every run-style report
embeds its parameter set, constraint slacks, and seed.  Exit codes: 0 on
success/verified, 1 on mismatch, undetermined, or infeasible results, 2 on
usage or I/O errors, 3 on integrator faults.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    AmParams,
    ParameterSet,
    am_equilibria,
    am_travel_time,
    check_constraints,
    copy_solution,
    plan_parameters,
)
from .nfa import NfaFormatError, load_nfa, parse_word
from .perturb import ObservationScheme, PerturbationProfile
from .pipeline import RunManifest, StageError, all_words, corpus_reports, random_nfa, run_end_to_end
from .signals import SignalSpec, encode
from .simulate import IntegratorFault, SimConfig, decide, integrate, trace_from_csv
from .translate import translate

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_FAULT = 3


def _write_or_print(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text)
    else:
        print(text)


def _cmd_compile(args) -> int:
    nfa = load_nfa(args.nfa)
    out = translate(nfa, {"k1": args.k1, "k2": args.k2, "k3": args.k3, "k4": args.k4})
    if args.pretty:
        _write_or_print(out.pretty(), args.output)
    else:
        _write_or_print(out.dumps(), args.output)
    print(
        f"species={out.size_report['species']} reactions={out.size_report['reactions']} "
        f"dna_strands={out.size_report['dna_strands']}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_encode(args) -> int:
    word = parse_word(args.word, ())
    spec = SignalSpec(word=word, epsilon=args.eps, tau=args.tau)
    signal = encode(spec)
    if args.json:
        Path(args.json).write_text(json.dumps(signal.to_json_dict(), indent=2, sort_keys=True))
    times = np.arange(0.0, spec.decision_time + args.tau / 100, args.tau / 100)
    if args.output:
        with open(args.output, "w", newline="") as fh:
            signal.write_csv(fh, times)
    else:
        signal.write_csv(sys.stdout, times)
    return EXIT_OK


def _cmd_plan(args) -> int:
    result = plan_parameters(args.d, args.eps, args.eta, args.delta, tau_budget=args.tau_max)
    if result.feasible:
        _write_or_print(result.params.dumps(), args.output)
        return EXIT_OK
    payload = json.dumps(result.to_json_dict(), indent=2, sort_keys=True)
    _write_or_print(payload, args.output)
    print(f"infeasible: {result.message}", file=sys.stderr)
    return EXIT_MISMATCH


def _cmd_check(args) -> int:
    params = ParameterSet.from_json_dict(json.loads(Path(args.params).read_text()))
    report = check_constraints(params, copy_rate=args.copy_rate)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(report.table())
    return EXIT_OK if report.passed else EXIT_MISMATCH


def _cmd_simulate(args) -> int:
    from .brn import Brn, ConcState
    from .signals import InputSignal

    bundle = json.loads(Path(args.network).read_text())
    brn = Brn.from_json_dict(bundle["brn"] if "brn" in bundle else bundle)
    initial_map = bundle.get("initial")
    if initial_map is None:
        raise ValueError("network JSON carries no initial state; compile produces one")
    x0 = ConcState(brn.species_names, [initial_map[n] for n in brn.species_names])
    signal = InputSignal.from_json_dict(json.loads(Path(args.signal).read_text()))
    config = SimConfig(t_end=args.t_end, rel_tol=args.rtol, abs_tol=args.atol)
    trace = integrate(brn, x0, signal, config)
    if args.plot_data:
        with open(args.plot_data, "w", newline="") as fh:
            trace.write_long_csv(fh)
    if args.output:
        with open(args.output, "w", newline="") as fh:
            trace.write_csv(fh)
    else:
        trace.write_csv(sys.stdout)
    return EXIT_OK


def _cmd_decide(args) -> int:
    nfa = load_nfa(args.nfa)
    word = parse_word(args.word, nfa.alphabet)
    with open(args.trace) as fh:
        trace = trace_from_csv(fh)
    spec = SignalSpec(word=word, epsilon=args.eps, tau=args.tau)
    scheme = ObservationScheme(eta=args.eta, mode=args.obs_mode, seed=args.seed)
    decision = decide(trace, nfa, spec, scheme, t=args.t)
    print(json.dumps(decision.to_json_dict(), indent=2, sort_keys=True))
    for q, verdict in decision.verdicts.items():
        print(f"{q}: {verdict} (observed {decision.observed[q]:.6f})", file=sys.stderr)
    return EXIT_OK if not decision.undetermined else EXIT_MISMATCH


def _build_manifest(args, nfa, word) -> RunManifest:
    if args.params:
        params = ParameterSet.from_json_dict(json.loads(Path(args.params).read_text()))
    else:
        result = plan_parameters(nfa.num_transitions, args.plan_eps, args.plan_eta,
                                 args.plan_delta, tau_budget=args.tau_max)
        if not result.feasible:
            raise ValueError(f"planning failed: {result.message}")
        params = result.params
    delta = args.delta if args.delta is not None else params.delta
    eta = args.eta if args.eta is not None else params.eta
    profile = PerturbationProfile(
        delta=delta if args.adversary != "none" else 0.0,
        mode=args.adversary,
        omega=2 * math.pi / params.tau,
        seed=args.seed,
    )
    scheme = ObservationScheme(eta=eta if args.obs_mode != "none" else 0.0,
                               mode=args.obs_mode, seed=args.seed)
    return RunManifest(
        nfa=nfa, word=word, params=params, profile=profile, scheme=scheme,
        initial_mode=args.initial_mode, seed=args.seed,
        rel_tol=args.rtol, abs_tol=args.atol,
        nfa_path=str(args.nfa), out_dir=args.out,
    )


def _cmd_run(args) -> int:
    nfa = load_nfa(args.nfa)
    word = parse_word(args.word, nfa.alphabet)
    manifest = _build_manifest(args, nfa, word)
    constraint_report = check_constraints(manifest.params)
    if not constraint_report.passed and not args.force:
        print("parameter set fails its constraints (use --force to run anyway):", file=sys.stderr)
        print(constraint_report.table(), file=sys.stderr)
        return EXIT_MISMATCH
    if not constraint_report.passed:
        print("warning: running with failing constraints", file=sys.stderr)
    result = run_end_to_end(manifest)
    if args.plot_data:
        with open(args.plot_data, "w", newline="") as fh:
            result.trace.write_long_csv(fh)
    print(json.dumps(result.report, indent=2, sort_keys=True))
    return EXIT_OK if result.verified else EXIT_MISMATCH


def _cmd_verify_corpus(args) -> int:
    rng = np.random.default_rng(args.seed)
    from .nfa import parse_nfa
    from .pipeline import EXAMPLE_NFA_TEXT

    nfas = [parse_nfa(EXAMPLE_NFA_TEXT)]
    nfas += [random_nfa(rng, args.max_states, args.max_symbols) for _ in range(args.count)]
    plans: dict[int, ParameterSet] = {}
    manifests = []
    for i, nfa in enumerate(nfas):
        d = nfa.num_transitions
        if d not in plans:
            result = plan_parameters(d, args.plan_eps, args.plan_eta, args.plan_delta)
            if not result.feasible:
                print(f"planning failed for d={d}: {result.message}", file=sys.stderr)
                return EXIT_MISMATCH
            plans[d] = result.params
        params = plans[d]
        for word in all_words(nfa.alphabet, args.max_word_len):
            if args.perturbed:
                profile = PerturbationProfile(delta=params.delta, mode="sinusoid",
                                              omega=2 * math.pi / params.tau, seed=args.seed + i)
                scheme = ObservationScheme(eta=params.eta, mode="worst-case")
                initial_mode = "worst-case-signed"
            else:
                profile = PerturbationProfile()
                scheme = ObservationScheme()
                initial_mode = "exact"
            manifests.append(RunManifest(nfa=nfa, word=word, params=params,
                                         profile=profile, scheme=scheme,
                                         initial_mode=initial_mode, seed=args.seed + i))
    reports = corpus_reports(manifests, processes=args.jobs)
    failures = [r for r in reports if not r["verified"]]
    print(f"corpus: {len(reports)} runs, {len(reports) - len(failures)} verified, {len(failures)} failed")

    def run(r):
        return f"word={r['manifest']['word']} nfa_states={r['manifest']['nfa']['states']}"

    # the least certified margin and phi slack, each with the first run to reach it
    margin, at_margin = min(((m, r) for r in reports for side in ("high_margin", "low_margin")
                             if (m := r["maintenance"][side]) is not None), key=lambda pair: pair[0])
    slack, at_slack = min(((e["slack"], r) for r in reports for e in r["phi"]), key=lambda pair: pair[0])
    print(f"worst: maintenance margin {margin:.6g} {run(at_margin)}; phi slack {slack:.6g} {run(at_slack)}")
    for r in failures[:20]:
        print(f"  FAIL {run(r)}")
    return EXIT_OK if not failures else EXIT_MISMATCH


def _cmd_analyze(args) -> int:
    if args.analysis == "equilibria":
        eq = am_equilibria(AmParams(args.a, args.b, args.c, args.p), args.variant)
        print(json.dumps({
            "variant": eq.variant,
            "equilibria": list(eq.as_tuple()),
            "disc_root": eq.disc_root,
            "stability": list(eq.stability),
        }, indent=2))
    elif args.analysis == "travel":
        eq = am_equilibria(AmParams(args.a, args.b, args.c, args.p), args.variant)
        t = am_travel_time(eq, args.u1, args.u2)
        print(json.dumps({"travel_time": t, "equilibria": list(eq.as_tuple())}, indent=2))
    else:
        u = copy_solution(args.u0, args.a, args.b, args.p, args.t)
        print(json.dumps({"value": u}, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nfa2crn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile an automaton file to a reaction network")
    p.add_argument("nfa")
    p.add_argument("--k1", type=float, required=True)
    p.add_argument("--k2", type=float, required=True)
    p.add_argument("--k3", type=float, required=True)
    p.add_argument("--k4", type=float, required=True)
    p.add_argument("-o", "--output")
    p.add_argument("--pretty", action="store_true", help="emit chemistry notation instead of JSON")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("encode", help="encode a word as a phased input signal")
    p.add_argument("word")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("-o", "--output", help="sampled CSV destination (default stdout)")
    p.add_argument("--json", help="also write the closed-form descriptor JSON here")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("plan", help="search for a parameter set passing all constraints")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--tau-max", type=float, default=None)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("check", help="print the constraint slack table for a parameter set")
    p.add_argument("params")
    p.add_argument("--json", action="store_true")
    p.add_argument("--copy-rate", choices=("actual", "printed"), default="actual")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("simulate", help="integrate a compiled network under a signal")
    p.add_argument("network", help="compile-output JSON (network plus initial state)")
    p.add_argument("signal", help="signal descriptor JSON")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--rtol", type=float, default=1e-7)
    p.add_argument("--atol", type=float, default=1e-10)
    p.add_argument("-o", "--output")
    p.add_argument("--plot-data", help="also write long-format (t, species, value) CSV here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("decide", help="read verdicts off a trace CSV")
    p.add_argument("trace")
    p.add_argument("nfa")
    p.add_argument("--word", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--obs-mode", choices=("none", "worst-case", "uniform"), default="none")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t", type=float, default=None)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("run", help="full pipeline on one word with a verification report")
    p.add_argument("nfa")
    p.add_argument("word")
    p.add_argument("--params", help="parameter-set JSON (otherwise plan from --plan-*)")
    p.add_argument("--plan-eps", type=float, default=1e-4)
    p.add_argument("--plan-eta", type=float, default=0.05)
    p.add_argument("--plan-delta", type=float, default=1e-3)
    p.add_argument("--tau-max", type=float, default=None)
    p.add_argument("--adversary", choices=("none", "offset", "sinusoid", "piecewise"), default="none")
    p.add_argument("--delta", type=float, default=None, help="adversary band (default: the parameter set's)")
    p.add_argument("--obs-mode", choices=("none", "worst-case", "uniform"), default="none")
    p.add_argument("--eta", type=float, default=None, help="observation band (default: the parameter set's)")
    p.add_argument("--initial-mode", choices=("exact", "random", "worst-case-signed"), default="exact")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rtol", type=float, default=1e-7)
    p.add_argument("--atol", type=float, default=1e-10)
    p.add_argument("--out", help="directory for report.json and trace.csv")
    p.add_argument("--plot-data", help="also write long-format (t, species, value) CSV here")
    p.add_argument("--force", action="store_true", help="run even if constraints fail")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify-corpus", help="run a randomized corpus and summarize")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--max-states", type=int, default=4)
    p.add_argument("--max-symbols", type=int, default=2)
    p.add_argument("--max-word-len", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plan-eps", type=float, default=1e-5)
    p.add_argument("--plan-eta", type=float, default=0.05)
    p.add_argument("--plan-delta", type=float, default=1e-3)
    p.add_argument("--perturbed", action="store_true")
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=_cmd_verify_corpus)

    p = sub.add_parser("analyze", help="closed-form equilibria, travel times, and drives")
    asub = p.add_subparsers(dest="analysis", required=True)
    pe = asub.add_parser("equilibria")
    pe.add_argument("--a", type=float, required=True)
    pe.add_argument("--b", type=float, required=True)
    pe.add_argument("--c", type=float, required=True)
    pe.add_argument("--p", type=float, required=True)
    pe.add_argument("--variant", choices=("decay", "growth"), default="decay")
    pt = asub.add_parser("travel")
    for flag in ("--a", "--b", "--c", "--p", "--u1", "--u2"):
        pt.add_argument(flag, type=float, required=True)
    pt.add_argument("--variant", choices=("decay", "growth"), default="decay")
    pc = asub.add_parser("copy")
    for flag in ("--u0", "--a", "--b", "--p", "--t"):
        pc.add_argument(flag, type=float, required=True)
    p.set_defaults(func=_cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IntegratorFault as exc:
        print(f"integrator fault: {exc}", file=sys.stderr)
        return EXIT_FAULT
    except (NfaFormatError, StageError, FileNotFoundError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
