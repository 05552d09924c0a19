import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from nfa2crn import analysis
from nfa2crn.analysis import (
    AmParams,
    ParameterSet,
    am_drift,
    am_drift_coefficients,
    am_equilibria,
    am_travel_time,
    check_constraints,
    copy_lower_bound,
    copy_solution,
    copy_upper_bound,
    phase_bounds,
    plan_parameters,
)


def _random_valid(rng, variant, lo=0.1, hi=10.0, c_lo=0.01, c_hi=0.95):
    a, b, p = rng.uniform(lo, hi, 3)
    lead = p * a if variant == "decay" else p * b
    c = rng.uniform(c_lo, c_hi) * lead * lead / (4 * (a + b))
    return AmParams(a, b, c, p)


def _ode_travel(params, variant, u1, u2):
    direction = 1.0 if variant == "decay" else -1.0

    def hit(t, u):
        return u[0] - u2

    hit.terminal = True
    hit.direction = direction
    sol = solve_ivp(lambda t, u: am_drift(params, variant, u), (0, 1e6), [u1],
                    events=hit, rtol=1e-11, atol=1e-13)
    assert sol.t_events[0].size, "threshold never reached"
    return float(sol.t_events[0][0])


# the report's entries, in report order
REPORT_NAMES = (
    "epsilon-range", "eta-range", "rates-exceed-delta", "gamma-range", "base-case",
    "gamma-star-window", "decision-high", "decision-low",
    "majority-discriminant-decay", "majority-discriminant-growth",
    "restore-high-window", "restore-high-travel", "restore-low-window", "restore-low-travel",
    "portal-fill-level", "copy-high-pump", "copy-high-threshold",
    "copy-low-drain", "copy-low-threshold",
)

# one parameter set per skip branch of the constraint walk, keyed by its skipped entries' description
_SKIP_BASE = dict(epsilon=1e-4, eta=0.05, delta=1e-3, tau=1.0, gamma=0.28, gamma_star=0.014,
                  k1=5.0, k2=357.5, k3=14.0, k4=6.5, d=5)
SKIP_BRANCH_CASES = {
    "skipped: rates or epsilon out of range": dict(_SKIP_BASE, delta=2.0, k3=1.0),
    "skipped: discriminant violated": dict(_SKIP_BASE, k2=1e6),
    "skipped: window violated": dict(_SKIP_BASE, gamma_star=0.001),
    "skipped: copy pump not positive": dict(_SKIP_BASE, k1=0.01),
    "skipped: portal drain not positive": dict(_SKIP_BASE, k3=0.01),
}


def _reference_grid(d, epsilon, eta, delta):
    """The planner's search grid as plain nested loops, in search order."""
    gamma_cap = 1 / 3 - eta
    gamma = gamma_cap - min(3e-3, (gamma_cap - epsilon) / 10)
    for tau in (1.0, 1.0 / 5, 1.0 / 25):
        for frac in analysis._G_STAR_FRACTIONS:
            gstar = frac * gamma
            if gstar <= 1.5 * epsilon:
                continue
            for k4t in analysis._K4_TAU:
                k4 = k4t / tau
                if k4 <= 2 * delta:
                    continue
                for ratio in analysis._K2_OVER_K4:
                    for k3t in analysis._K3_TAU:
                        for k1t in analysis._K1_TAU:
                            yield ParameterSet(epsilon=epsilon, eta=eta, delta=delta, tau=tau,
                                               gamma=gamma, gamma_star=gstar, k1=k1t / tau,
                                               k2=ratio * k4, k3=k3t / tau, k4=k4, d=d)


def _reference_plan(d, epsilon, eta, delta) -> dict:
    """The planner as a full scan: both full reports and the leak guard for every candidate."""
    best = None
    for params in _reference_grid(d, epsilon, eta, delta):
        rep = check_constraints(params, p_policy="upper")
        if not rep.passed:
            binding, ranked = rep.binding().name, rep
        else:
            rep_lo = check_constraints(params, p_policy="lower")
            leak = params.d * (params.k1 + params.delta) * params.gamma_star / (params.k4 - params.delta)
            if not rep_lo.passed:
                binding, ranked = rep_lo.binding().name, rep_lo
            elif leak > 0.5 * params.gamma:
                binding, ranked = "compute-leak-guard", rep
            else:
                return {"feasible": True, "params": params.to_json_dict(), "report": rep.to_json_dict(),
                        "message": "feasible parameter set found", "binding": None}
        if best is None or ranked.min_slack > best[0]:
            best = (ranked.min_slack, ranked, binding)
    _, ranked, binding = best
    return {"feasible": False, "params": None, "report": ranked.to_json_dict(),
            "message": "no feasible parameter set on the search grid; "
                       f"closest candidate fails at constraint {binding!r}",
            "binding": binding}


class TestEquilibria:
    def test_decay_small_leak_limit(self):
        eq = am_equilibria(AmParams(1.0, 1.0, 1e-15, 1.0), "decay")
        assert eq.e1 == 0.0
        assert eq.e2 == pytest.approx(0.5, abs=1e-7)
        assert eq.e3 == pytest.approx(1.0, abs=1e-7)

    def test_decay_worked_point(self):
        eq = am_equilibria(AmParams(1.0, 1.0, 0.1, 1.0), "decay")
        assert eq.disc_root == pytest.approx(math.sqrt(0.2))
        assert eq.e2 == pytest.approx((3 - math.sqrt(0.2)) / 4)
        assert eq.e3 == pytest.approx((3 + math.sqrt(0.2)) / 4)
        assert eq.e2 == pytest.approx(0.63819660, abs=1e-7)
        assert eq.e3 == pytest.approx(0.86180339, abs=1e-7)

    def test_growth_top_equilibrium_is_total(self):
        a, b = 2.0, 1.5
        for p in (0.5, 1.0, 2.5):
            c = 0.5 * p * p * b * b / (4 * (a + b))
            eq = am_equilibria(AmParams(a, b, c, p), "growth")
            assert eq.e3 == p

    def test_discriminant_violation_raises(self):
        with pytest.raises(ValueError, match="discriminant"):
            am_equilibria(AmParams(1.0, 1.0, 0.2, 1.0), "decay")

    def test_roots_and_stability_random(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            for variant in ("decay", "growth"):
                params = _random_valid(rng, variant)
                eq = am_equilibria(params, variant)
                scale = max(1.0, params.a, params.b, params.p) ** 4
                assert np.max(np.abs(am_drift(params, variant, np.array(eq.as_tuple())))) < 1e-10 * scale
                roots = np.sort(np.roots(am_drift_coefficients(params, variant)))
                assert np.allclose(roots, np.sort(eq.as_tuple()), atol=1e-9 * max(1.0, params.p))
                assert eq.drift_derivative(eq.e1) < 0
                assert eq.drift_derivative(eq.e2) > 0
                assert eq.drift_derivative(eq.e3) < 0
                assert eq.stability == ("stable", "unstable", "stable")


class TestTravelTime:
    def test_coincident_endpoints(self):
        eq = am_equilibria(AmParams(1.0, 1.0, 0.1, 1.0), "decay")
        assert am_travel_time(eq, 0.7, 0.7) == 0.0

    def test_decay_vs_quadrature(self):
        params = AmParams(1.0, 1.0, 0.1, 1.0)
        eq = am_equilibria(params, "decay")
        t_closed = am_travel_time(eq, 0.7, 0.8)
        t_quad = quad(lambda u: 1.0 / am_drift(params, "decay", u), 0.7, 0.8)[0]
        assert t_closed == pytest.approx(t_quad, abs=1e-8)

    def test_growth_vs_quadrature_worked_point(self):
        params = AmParams(1.0, 1.0, 0.1, 1.0)
        eq = am_equilibria(params, "growth")
        assert eq.e1 == pytest.approx((1 - math.sqrt(0.2)) / 4)
        t_closed = am_travel_time(eq, 0.3, 0.2)
        t_quad = quad(lambda u: -1.0 / am_drift(params, "growth", u), 0.2, 0.3)[0]
        assert t_closed == pytest.approx(t_quad, rel=1e-9)
        assert t_closed == pytest.approx(5.7477, abs=2e-4)

    def test_monotone_in_target(self):
        eq = am_equilibria(AmParams(1.0, 1.0, 0.1, 1.0), "decay")
        times = [am_travel_time(eq, 0.7, u2) for u2 in (0.72, 0.76, 0.8, 0.84)]
        assert all(t1 < t2 for t1, t2 in zip(times, times[1:]))

    def test_ordering_violations_raise(self):
        eq = am_equilibria(AmParams(1.0, 1.0, 0.1, 1.0), "decay")
        with pytest.raises(ValueError):
            am_travel_time(eq, 0.8, 0.7)
        with pytest.raises(ValueError):
            am_travel_time(eq, 0.2, 0.8)

    def test_growth_mirrors_decay_under_complementation(self):
        # substituting u -> p-u maps one variant onto the other with the
        # strengths swapped, so the travel times must agree exactly
        rng = np.random.default_rng(11)
        for _ in range(50):
            params = _random_valid(rng, "growth", lo=0.2, hi=6.0, c_hi=0.85)
            eq_g = am_equilibria(params, "growth")
            u1 = eq_g.e1 + (eq_g.e2 - eq_g.e1) * rng.uniform(0.4, 0.9)
            u2 = eq_g.e1 + (u1 - eq_g.e1) * rng.uniform(0.2, 0.9)
            mirrored = AmParams(a=params.b, b=params.a, c=params.c, p=params.p)
            eq_d = am_equilibria(mirrored, "decay")
            t_growth = am_travel_time(eq_g, u1, u2)
            t_decay = am_travel_time(eq_d, params.p - u1, params.p - u2)
            assert t_growth == pytest.approx(t_decay, rel=1e-12)

    def test_closed_form_vs_ode_random(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            for variant in ("decay", "growth"):
                params = _random_valid(rng, variant, lo=0.2, hi=5.0, c_hi=0.8)
                eq = am_equilibria(params, variant)
                if variant == "decay":
                    u1 = eq.e2 + (eq.e3 - eq.e2) * rng.uniform(0.1, 0.5)
                    u2 = u1 + (eq.e3 - u1) * rng.uniform(0.1, 0.8)
                else:
                    u1 = eq.e1 + (eq.e2 - eq.e1) * rng.uniform(0.5, 0.9)
                    u2 = eq.e1 + (u1 - eq.e1) * rng.uniform(0.2, 0.9)
                t_closed = am_travel_time(eq, u1, u2)
                assert t_closed == pytest.approx(_ode_travel(params, variant, u1, u2), rel=1e-6)

    def test_trajectory_consistency(self):
        # integrating for the closed-form time lands on the target level
        rng = np.random.default_rng(5)
        for _ in range(20):
            params = _random_valid(rng, "decay", lo=0.3, hi=4.0, c_hi=0.7)
            eq = am_equilibria(params, "decay")
            u1 = eq.e2 + (eq.e3 - eq.e2) * rng.uniform(0.15, 0.5)
            u2 = u1 + (eq.e3 - u1) * rng.uniform(0.2, 0.7)
            t = am_travel_time(eq, u1, u2)
            sol = solve_ivp(lambda tt, u: am_drift(params, "decay", u), (0, t), [u1],
                            rtol=1e-11, atol=1e-13)
            assert sol.y[0, -1] == pytest.approx(u2, rel=1e-6, abs=1e-7)

    def test_basin_monotonicity(self):
        # decay: from at/above the unstable point, levels never fall below
        # min(start, high equilibrium); growth mirrors this downward
        rng = np.random.default_rng(6)
        for _ in range(10):
            params = _random_valid(rng, "decay", lo=0.3, hi=3.0, c_hi=0.6)
            eq = am_equilibria(params, "decay")
            for u0 in (eq.e2 * 1.02 + 0.98 * 0.0, (eq.e2 + eq.e3) / 2, eq.e3, min(params.p, eq.e3 * 1.05)):
                sol = solve_ivp(lambda tt, u: am_drift(params, "decay", u), (0, 20 / (params.a + params.b)),
                                [u0], rtol=1e-10, atol=1e-12, dense_output=True)
                traj = sol.sol(np.linspace(0, sol.t[-1], 200))[0]
                assert np.min(traj) >= min(u0, eq.e3) - 1e-7
            gparams = _random_valid(rng, "growth", lo=0.3, hi=3.0, c_hi=0.6)
            geq = am_equilibria(gparams, "growth")
            for u0 in (geq.e2 * 0.98, (geq.e1 + geq.e2) / 2, geq.e1, geq.e1 * 0.5):
                sol = solve_ivp(lambda tt, u: am_drift(gparams, "growth", u), (0, 20 / (gparams.a + gparams.b)),
                                [u0], rtol=1e-10, atol=1e-12, dense_output=True)
                traj = sol.sol(np.linspace(0, sol.t[-1], 200))[0]
                assert np.max(traj) <= max(u0, geq.e1) + 1e-7


class TestCopyDynamics:
    def test_zero_time_is_identity(self):
        assert copy_solution(0.37, 1.0, 2.0, 1.0, 0.0) == 0.37

    def test_symmetric_fixed_point(self):
        assert copy_solution(0.0, 1.0, 1.0, 1.0, 60.0) == pytest.approx(0.5, abs=1e-12)

    def test_against_integrator(self):
        a, b, p, u0 = 1.0, 0.01, 1.0, 0.3
        sol = solve_ivp(lambda t, u: [a * (p - u[0]) - b * u[0]], (0, 2.0), [u0],
                        rtol=1e-12, atol=1e-14)
        assert copy_solution(u0, a, b, p, 2.0) == pytest.approx(sol.y[0, -1], abs=1e-10)

    def test_special_cases(self):
        # pure decay (a=0) and pure fill (b=0)
        assert copy_solution(0.8, 0.0, 2.0, 1.0, 0.5) == pytest.approx(0.8 * math.exp(-1.0))
        assert copy_solution(0.2, 3.0, 0.0, 1.0, 0.4) == pytest.approx(
            0.2 * math.exp(-1.2) + (1 - math.exp(-1.2)))
        with pytest.raises(ValueError):
            copy_solution(0.1, 0.0, 0.0, 1.0, 1.0)

    def test_bounds_hold_in_regime(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            a, b = rng.uniform(0.05, 5.0, 2)
            p = rng.uniform(0.2, 1.0 + b / a) * 0.95
            u0 = rng.uniform(0.0, p)
            t = rng.uniform(0.0, 5.0)
            u = copy_solution(u0, a, b, p, t)
            assert u <= copy_upper_bound(a, b, p, t) + 1e-12
            assert u >= copy_lower_bound(a, b, p, t) - 1e-12


class TestPhaseBounds:
    def test_reset_zero_leak_limit(self, planned):
        # with no residual symbol drive the bound is the pure exponential drain
        from dataclasses import replace

        params = replace(planned, d=0)
        record = phase_bounds(params, "reset")
        b = (params.k3 - params.delta) * (1 - params.epsilon)
        assert record.value == pytest.approx(2 * math.exp(-b * params.tau / 3))
        assert record.direction == "upper" and record.observable == "z_q"

    def test_compute_high_worked_point(self):
        params = ParameterSet(epsilon=0.01, eta=0.05, delta=0.01, tau=2.0,
                              gamma=0.28, gamma_star=0.1, k1=50.0, k2=10.0,
                              k3=10.0, k4=1.0, d=5)
        record = phase_bounds(params, "compute-high", y0=0.9)
        alpha = (50.0 - 0.01) * 0.99 * 0.9
        beta = (10.0 + 0.01) * 0.01
        expected = 1 - 0.01 - beta / alpha - math.exp(-alpha * 2.0 / 3) - 2 * beta * 2.0
        assert record.value == pytest.approx(expected)
        assert record.value == pytest.approx(0.5873525, abs=1e-6)

    def test_chained_defaults(self, planned):
        hi = phase_bounds(planned, "compute-high")
        copy_hi = phase_bounds(planned, "copy-high")
        assert copy_hi.constants["z0"] == pytest.approx(hi.value)
        lo = phase_bounds(planned, "reset")
        copy_lo = phase_bounds(planned, "copy-low")
        assert copy_lo.constants["z0"] == pytest.approx(lo.value)
        # at sane parameters the chained bounds clear the block thresholds
        assert copy_hi.value >= 1 - planned.gamma
        assert copy_lo.value <= planned.gamma
        for phase in ("reset", "compute-high", "compute-low", "copy-high", "copy-low",
                      "am-high", "am-low"):
            record = phase_bounds(planned, phase)
            assert record.hypotheses_ok, (phase, record.hypotheses)

    def test_am_bounds_expose_travel(self, planned):
        record = phase_bounds(planned, "am-high")
        assert record.value == pytest.approx(1 - planned.gamma_star)
        assert record.constants["travel_time"] <= planned.tau
        record = phase_bounds(planned, "am-low")
        assert record.value == pytest.approx(planned.gamma_star)
        assert record.constants["travel_time"] <= planned.tau

    def test_printed_copy_rate_switch(self, planned):
        actual = phase_bounds(planned, "copy-high", copy_rate="actual")
        printed = phase_bounds(planned, "copy-high", copy_rate="printed")
        assert actual.constants["alpha"] != printed.constants["alpha"]

    def test_unknown_phase_rejected(self, planned):
        with pytest.raises(ValueError, match="unknown phase"):
            phase_bounds(planned, "bogus")


class TestConstraintChecker:
    def test_planned_set_passes_with_positive_slack(self, planned):
        report = check_constraints(planned)
        assert report.passed
        assert report.min_slack > 0
        report_lower = check_constraints(planned, p_policy="lower")
        assert report_lower.passed

    def test_base_case_violation(self, planned):
        from dataclasses import replace

        bad = replace(planned, gamma=planned.epsilon / 2, gamma_star=planned.epsilon / 4)
        report = check_constraints(bad)
        names = {c.name for c in report.failing()}
        assert "base-case" in names

    def test_decision_bound_violation(self):
        params = ParameterSet(epsilon=0.01, eta=0.4, delta=0.0, tau=1.0,
                              gamma=0.2, gamma_star=0.05, k1=5.0, k2=300.0,
                              k3=14.0, k4=5.0, d=5)
        report = check_constraints(params)
        failing = {c.name: c for c in report.failing()}
        assert "decision-high" in failing
        assert failing["decision-high"].slack == pytest.approx(0.8 - (2 / 3 + 0.4))

    def test_slack_monotone_in_eps_delta(self, planned):
        from dataclasses import replace

        report = check_constraints(planned)
        slacks = {c.name: c.slack for c in report.checks}
        shrunk = replace(planned, epsilon=planned.epsilon / 2, delta=planned.delta / 2)
        report2 = check_constraints(shrunk)
        for check in report2.checks:
            if check.name in ("epsilon-range",):
                continue  # the range check's slack is eps itself
            assert check.slack >= slacks[check.name] - 1e-12, check.name

    def test_table_renders(self, planned):
        text = check_constraints(planned).table()
        assert "overall: PASS" in text

    def test_printed_copy_rate_makes_high_chain_infeasible(self, planned):
        # with the reset constant standing in for the copy pump, the copy
        # phase cannot dominate the majority drag at any planned rates
        report = check_constraints(planned, copy_rate="printed")
        assert not report.passed
        assert "copy-high-threshold" in {c.name for c in report.failing()}

    def test_degenerate_rates_fail_cleanly(self):
        # reset drain nonpositive (k3 <= delta) must report, not crash
        params = ParameterSet(epsilon=1e-4, eta=0.05, delta=2.0, tau=1.0,
                              gamma=0.28, gamma_star=0.014, k1=5.0, k2=300.0,
                              k3=1.0, k4=5.0, d=5)
        report = check_constraints(params)
        assert not report.passed
        assert any(c.name == "rates-exceed-delta" for c in report.failing())


    def test_gamma_star_above_gamma_skips_the_travel(self, planned):
        # the restore windows need their levels in travel order, or the travel time is undefined
        from dataclasses import replace

        report = check_constraints(replace(planned, gamma_star=0.3, gamma=0.28))
        assert not report.passed
        checks = {c.name: c for c in report.checks}
        assert not checks["restore-high-window"].satisfied
        assert checks["restore-high-travel"].description == "skipped: window violated"
        assert tuple(checks) == REPORT_NAMES

    def test_report_lists_every_entry_in_order(self, planned):
        for params in [planned, *(ParameterSet(**kw) for kw in SKIP_BRANCH_CASES.values())]:
            for policy in ("upper", "lower"):
                report = check_constraints(params, p_policy=policy)
                assert tuple(c.name for c in report.checks) == REPORT_NAMES

    def test_each_skip_branch_reported(self):
        for description, kw in SKIP_BRANCH_CASES.items():
            report = check_constraints(ParameterSet(**kw))
            assert not report.passed
            skipped = [c for c in report.checks if c.description == description]
            assert skipped, description
            assert all(c.slack == float("-inf") and not c.satisfied for c in skipped)

    def test_early_stopping_walk_agrees_with_report(self):
        # every grid candidate at two degrees, plus one set per skip branch
        candidates = [*_reference_grid(3, 1e-5, 0.05, 1e-3), *_reference_grid(13, 1e-4, 0.05, 1e-3),
                      *(ParameterSet(**kw) for kw in SKIP_BRANCH_CASES.values())]
        outcomes = set()
        for params in candidates:
            for policy in ("upper", "lower"):
                passed = check_constraints(params, p_policy=policy).passed
                assert analysis._holds(params, policy) == passed, (params, policy)
                outcomes.add(passed)
        assert outcomes == {True, False}

class TestPlanner:
    def test_feasible_small_epsilon(self):
        result = plan_parameters(5, 1e-4, 0.05, 1e-4)
        assert result.feasible
        assert check_constraints(result.params).passed
        assert check_constraints(result.params, p_policy="lower").passed

    def test_feasible_up_to_corpus_degree(self):
        result = plan_parameters(32, 1e-5, 0.05, 1e-3)
        assert result.feasible

    def test_structurally_infeasible(self):
        result = plan_parameters(5, 0.49, 0.49, 0.0)
        assert not result.feasible
        assert result.binding == "decision-low"
        assert "1/3 - eta" in result.message

    def test_large_epsilon_reported_infeasible(self):
        # the leak budget cannot absorb eps of this size at d = 5
        result = plan_parameters(5, 0.01, 0.05, 0.001)
        assert not result.feasible
        assert result.binding is not None
        assert result.report is not None

    def test_deterministic(self):
        a = plan_parameters(5, 1e-4, 0.05, 1e-3)
        b = plan_parameters(5, 1e-4, 0.05, 1e-3)
        assert a.params == b.params

    def test_parameter_set_roundtrip(self, planned):
        again = ParameterSet.from_json_dict(planned.to_json_dict())
        assert again == planned

    def test_matches_reference_scan(self):
        # the corpus bands and the run bands, and one infeasible case
        cases = [(d, 1e-5, 0.05, 1e-3) for d in range(14)]
        cases += [(d, 1e-4, 0.05, 1e-3) for d in range(14)]
        cases += [(5, 0.01, 0.05, 0.001)]
        for case in cases:
            assert plan_parameters(*case).to_json_dict() == _reference_plan(*case), case
        assert not plan_parameters(5, 0.01, 0.05, 0.001).feasible

    def test_empty_grid_names_the_skipping_constraint(self):
        # every gamma* on the grid is at most 1.5 epsilon
        result = plan_parameters(5, 0.05, 0.2, 1e-3)
        assert not result.feasible
        assert result.binding == "gamma-star-window"
        assert result.report is None and "gamma*" in result.message
        # every k4 on the grid is at most 2 delta
        result = plan_parameters(5, 1e-4, 0.05, 200.0)
        assert not result.feasible
        assert result.binding == "rates-exceed-delta"
        assert result.report is None and "k4" in result.message

    def test_tau_budget_must_be_positive(self):
        for budget in (-1.0, 0.0, float("nan")):
            result = plan_parameters(5, 1e-4, 0.05, 1e-3, tau_budget=budget)
            assert not result.feasible, budget
            assert result.binding == "tau-range"
            assert result.params is None and result.report is None
        result = plan_parameters(5, 1e-4, 0.05, 1e-3, tau_budget=0.5)
        assert result.feasible and result.params.tau == 0.5
