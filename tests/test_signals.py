import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfa2crn.signals import (
    AdmissibilityReport,
    InputSignal,
    MappingSignal,
    SampledSignal,
    SignalSpec,
    Violation,
    encode,
    phase_role,
    validate,
)
from nfa2crn.translate import COPY_SPECIES, RESET_SPECIES, input_species_name


def _reference_validate(signal, spec, *, species=None, samples_per_phase=1000):
    """``validate`` as one loop over phases and species: the reference for the vectorised sweep."""
    eps, tau, n = spec.epsilon, spec.tau, spec.length
    if species is None:
        species = signal.input_species()
    names = list(dict.fromkeys([*species, RESET_SPECIES, COPY_SPECIES]))

    critical = np.asarray(signal.critical_times(), dtype=float) if hasattr(signal, "critical_times") else np.array([])
    violations = []
    schedule = {0: (5, RESET_SPECIES), 2: (7, COPY_SPECIES)}

    last_phase = 3 * n
    for k in range(last_phase + 1):
        t0, t1 = k * tau, (k + 1) * tau
        grid = np.linspace(t0, t1, samples_per_phase + 1)
        extra = [t0 + tau / 3, t0 + 2 * tau / 3]
        if critical.size:
            extra.extend(critical[(critical >= t0) & (critical <= t1)])
        grid = np.unique(np.concatenate([grid, np.asarray(extra)]))
        mid = (grid >= t0 + tau / 3) & (grid <= t0 + 2 * tau / 3)

        present = []
        for name in names:
            vals = np.asarray(signal.concentration(name, grid), dtype=float)
            hi = int(np.argmax(vals))
            if vals[hi] >= 1 + eps:
                violations.append(Violation(1, k, name, float(grid[hi]), float(vals[hi])))
            if vals[0] >= eps:
                violations.append(Violation(2, k, name, float(t0), float(vals[0])))
            if k == last_phase and vals[-1] >= eps:
                violations.append(Violation(2, k + 1, name, float(t1), float(vals[-1])))
            if vals[hi] >= eps:
                present.append(name)
                lo = int(np.argmin(np.where(mid, vals, np.inf)))
                if vals[lo] <= 1 - eps:
                    violations.append(Violation(4, k, name, float(grid[lo]), float(vals[lo])))
        if len(present) > 1:
            for name in present[1:]:
                peak_t = float(grid[int(np.argmax(np.asarray(signal.concentration(name, grid))))])
                violations.append(Violation(3, k, name, peak_t, float(np.max(signal.concentration(name, grid)))))
        if k < 3 * n:
            i, role = divmod(k, 3)
            if role == 1:
                needed_cond, needed = 6, input_species_name(spec.word[i])
            else:
                needed_cond, needed = schedule[role]
            if needed not in present:
                violations.append(Violation(needed_cond, k, needed, float(t0 + tau / 2),
                                            float(signal.concentration(needed, t0 + tau / 2))))
        else:
            for name in present:
                violations.append(Violation(8, k, name, float(t0 + tau / 2),
                                            float(np.max(signal.concentration(name, grid)))))

    return AdmissibilityReport(not violations, violations, last_phase + 1, samples_per_phase)


def _checked_validate(signal, spec, **kwargs):
    """``validate``, asserted equal to the reference loop: the same violations in the same order."""
    report = validate(signal, spec, **kwargs)
    assert report == _reference_validate(signal, spec, **kwargs)
    return report


def test_spec_validation():
    with pytest.raises(ValueError, match="epsilon"):
        SignalSpec(("1",), epsilon=0.6, tau=1.0)
    with pytest.raises(ValueError, match="tau"):
        SignalSpec(("1",), epsilon=0.1, tau=0.0)


def test_phase_roles():
    assert [phase_role(k, 2) for k in range(7)] == [
        "reset", "symbol", "copy", "reset", "symbol", "copy", "silent"]


def test_encode_single_symbol_schedule():
    spec = SignalSpec(("1",), epsilon=0.1, tau=3.0)
    sig = encode(spec)
    # plateau midpoints of the reset/symbol/copy phases
    assert sig.concentration("X_r", 1.5) == pytest.approx(1.0)
    assert sig.concentration("X_1", 4.5) == pytest.approx(1.0)
    assert sig.concentration("X_c", 7.5) == pytest.approx(1.0)
    # each species silent in the other phases and after the input window
    assert sig.concentration("X_1", 1.5) == 0.0
    for name in sig.input_species():
        assert sig.concentration(name, 9.5) == 0.0
        assert sig.concentration(name, 9.0) == 0.0


def test_encode_phase_boundaries_are_zero():
    spec = SignalSpec(("1", "0", "1"), epsilon=0.05, tau=2.0)
    sig = encode(spec)
    for k in range(10):
        for name in sig.input_species():
            assert sig.concentration(name, 2.0 * k) == 0.0


def test_empty_word_signal_is_zero_and_admissible():
    spec = SignalSpec((), epsilon=0.2, tau=1.0)
    sig = encode(spec)
    t = np.linspace(0, 2, 50)
    for name in sig.input_species():
        assert np.all(sig.concentration(name, t) == 0.0)
    assert _checked_validate(sig, spec).admissible


def test_scalar_evaluator_matches_vectorized():
    spec = SignalSpec(("0", "1"), epsilon=0.1, tau=1.5)
    sig = encode(spec)
    t = np.linspace(-0.5, 10, 400)
    for name in sig.input_species():
        fast = sig.scalar_evaluator(name)
        assert np.allclose([fast(float(tt)) for tt in t], sig.concentration(name, t))


def test_encode_validates_admissible_grid():
    for eps in (0.01, 0.1, 0.4):
        for tau in (1.0, 5.0):
            for word in ((), ("1",), ("0", "1"), ("1", "1", "0", "0", "1", "0")):
                spec = SignalSpec(word, epsilon=eps, tau=tau)
                report = _checked_validate(encode(spec), spec)
                assert report.admissible, str(report)


def test_violation_peak_too_high():
    spec = SignalSpec(("1",), epsilon=0.1, tau=1.0)
    base = encode(spec)
    scale = 1 + 2 * spec.epsilon

    funcs = {n: (lambda t, n=n: scale * base.concentration(n, t)) for n in base.input_species()}
    bad = MappingSignal(funcs, critical=base.critical_times())
    report = _checked_validate(bad, spec)
    assert not report.admissible
    assert 1 in report.conditions_violated()


def test_violation_two_species_present():
    spec = SignalSpec(("0",), epsilon=0.1, tau=1.0)
    base = encode(spec)
    funcs = {n: (lambda t, n=n: base.concentration(n, t)) for n in base.input_species()}
    funcs["X_0"] = lambda t: base.concentration("X_0", t) + base.concentration("X_r", t)
    bad = MappingSignal(funcs, critical=base.critical_times())
    report = _checked_validate(bad, spec)
    assert not report.admissible
    assert 3 in report.conditions_violated()


def test_violation_plateau_sags():
    spec = SignalSpec(("1",), epsilon=0.05, tau=1.0)
    base = encode(spec)
    funcs = {n: (lambda t, n=n: 0.9 * base.concentration(n, t)) for n in base.input_species()}
    bad = MappingSignal(funcs, critical=base.critical_times())
    report = _checked_validate(bad, spec)
    assert not report.admissible
    assert 4 in report.conditions_violated()


def test_missing_scheduled_species_detected():
    spec = SignalSpec(("1",), epsilon=0.1, tau=1.0)
    base = encode(spec)
    funcs = {n: (lambda t, n=n: base.concentration(n, t)) for n in base.input_species()}
    funcs["X_r"] = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    report = _checked_validate(MappingSignal(funcs), spec)
    assert 5 in report.conditions_violated()


def test_silence_required_after_input():
    spec = SignalSpec(("1",), epsilon=0.1, tau=1.0)
    base = encode(spec)
    funcs = {n: (lambda t, n=n: base.concentration(n, t)) for n in base.input_species()}
    funcs["X_c"] = lambda t: base.concentration("X_c", np.asarray(t) - 1.0) + base.concentration("X_c", t)
    report = _checked_validate(MappingSignal(funcs), spec)
    assert 8 in report.conditions_violated()


@given(st.lists(st.sampled_from(("0", "1")), max_size=8),
       st.floats(0.01, 0.45), st.floats(0.2, 4.0))
@settings(max_examples=25, deadline=None)
def test_encode_always_admissible(word, eps, tau):
    spec = SignalSpec(tuple(word), epsilon=eps, tau=tau)
    report = _checked_validate(encode(spec), spec, samples_per_phase=300)
    assert report.admissible, str(report)


@given(st.lists(st.sampled_from(("0", "1")), min_size=1, max_size=4),
       st.floats(0.02, 0.4), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_plateau_disturbance_stays_admissible(word, eps, seed):
    # any continuous bump under eps/2 that vanishes at the plateau edges
    tau = 1.0
    spec = SignalSpec(tuple(word), epsilon=eps, tau=tau)
    base = encode(spec)
    rng = np.random.default_rng(seed)
    amp = {n: rng.uniform(-0.5, 0.5) * eps for n in base.input_species()}

    def bumped(name):
        def f(t):
            t = np.asarray(t, dtype=float)
            v = np.asarray(base.concentration(name, t), dtype=float).copy()
            k = np.floor_divide(t, tau)
            local = t / tau - k
            window = (local >= 1 / 3) & (local <= 2 / 3) & (v >= 1 - 1e-9)
            bump = amp[name] * np.sin(np.pi * (local - 1 / 3) * 3)
            return v + np.where(window, bump, 0.0)
        return f

    noisy = MappingSignal({n: bumped(n) for n in base.input_species()},
                          critical=base.critical_times())
    report = _checked_validate(noisy, spec, samples_per_phase=300)
    assert report.admissible, str(report)


@given(st.lists(st.sampled_from(("0", "1")), max_size=5), st.floats(0.01, 0.45),
       st.floats(0.2, 4.0), st.integers(0, 2**31 - 1), st.integers(0, 60))
@settings(max_examples=40, deadline=None)
def test_validate_matches_reference_on_distorted_signals(word, eps, tau, seed, samples):
    # scaled, dropped, shifted and mixed waveforms violate every condition somewhere
    spec = SignalSpec(tuple(word), epsilon=eps, tau=tau)
    base = encode(spec)
    rng = np.random.default_rng(seed)
    names = [*base.input_species(), "X_9"]
    scale = {n: rng.choice([1.0, rng.uniform(0.5, 1.5), 0.0]) for n in names}
    shift = {n: rng.choice([0.0, rng.uniform(-0.5, 0.5) * tau]) for n in names}
    donor = {n: rng.choice(names) for n in names}
    mix = {n: rng.choice([0.0, rng.uniform(0.0, 0.3)]) for n in names}

    def distorted(name):
        def f(t):
            t = np.asarray(t, dtype=float)
            own = scale[name] * base.concentration(name, t - shift[name])
            return own + mix[name] * base.concentration(donor[name], t)
        return f

    signal = MappingSignal({n: distorted(n) for n in names},
                           critical=rng.uniform(0, (spec.num_phases + 1) * tau, 5))
    species = None if rng.random() < 0.5 else names[:int(rng.integers(0, len(names) + 1))]
    _checked_validate(signal, spec, species=species, samples_per_phase=samples)


def test_support_vanishes_after_input():
    spec = SignalSpec(("1", "0"), epsilon=0.05, tau=1.0)
    sig = encode(spec)
    t = np.linspace(3 * 2 * 1.0, 9.0, 200)
    for name in sig.input_species():
        assert np.all(sig.concentration(name, t) < spec.epsilon)


def test_csv_and_json_roundtrip():
    spec = SignalSpec(("1", "0"), epsilon=0.1, tau=1.0)
    sig = encode(spec)
    again = InputSignal.from_json_dict(json.loads(json.dumps(sig.to_json_dict())))
    t = np.linspace(0, 7, 113)
    for name in sig.input_species():
        assert np.array_equal(sig.concentration(name, t), again.concentration(name, t))

    buf = io.StringIO()
    times = np.linspace(0, 7, 200)
    sig.write_csv(buf, times)
    buf.seek(0)
    sampled = SampledSignal.from_csv(buf)
    for name in sig.input_species():
        assert np.allclose(sampled.concentration(name, times), sig.concentration(name, times))
    report = _checked_validate(sampled, spec, samples_per_phase=150)
    assert report.admissible, str(report)
