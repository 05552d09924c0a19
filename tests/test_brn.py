import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfa2crn.brn import (
    Brn,
    ColumnDrift,
    ConcState,
    ConstantRate,
    MassActionKernel,
    OffsetRate,
    PiecewiseLinearRate,
    RateLaw,
    Reaction,
    SinusoidRate,
    Species,
    catalysts,
    input_species_catalytic,
    net_effect,
    reaction_rate,
    vector_field,
)
from nfa2crn.translate import translate


def _simple_net():
    species = (Species("X"), Species("Y"), Species("Z"))
    rxn = Reaction.with_constant_rate({"X": 1, "Z": 1}, {"Y": 2, "Z": 1}, 0.5)
    return Brn(species, (rxn,)), rxn


def test_net_effect_catalysis_example():
    _, rxn = _simple_net()
    assert net_effect(rxn) == {"X": -1, "Y": 2}
    assert catalysts(rxn) == {"Z"}


def test_net_effect_majority_pair():
    rxn = Reaction.with_constant_rate({"Y": 2, "Yb": 1}, {"Y": 3}, 1.0)
    assert net_effect(rxn) == {"Y": 1, "Yb": -1}
    assert catalysts(rxn) == set()


def test_net_effect_autocatalysis():
    rxn = Reaction.with_constant_rate({"Y": 1}, {"Y": 2}, 1.0)
    assert net_effect(rxn) == {"Y": 1}


def test_zero_net_effect_rejected():
    with pytest.raises(ValueError, match="nonzero net effect"):
        Reaction.with_constant_rate({"X": 1}, {"X": 1}, 1.0)


def test_nonpositive_rate_rejected():
    with pytest.raises(ValueError, match="positive"):
        ConstantRate(0.0)
    with pytest.raises(ValueError):
        Reaction.with_constant_rate({"X": 1}, {"Y": 1}, -2.0)


def test_reaction_rate_examples():
    brn, rxn = _simple_net()
    state = ConcState(brn.species_names, [2.0, 0.0, 3.0])
    assert reaction_rate(brn, rxn, state) == pytest.approx(3.0)
    zero = ConcState(brn.species_names, [0.0, 1.0, 3.0])
    assert reaction_rate(brn, rxn, zero) == 0.0


def test_reaction_rate_second_order():
    species = (Species("Y"), Species("Yb"))
    rxn = Reaction.with_constant_rate({"Y": 2, "Yb": 1}, {"Y": 3}, 1.0)
    brn = Brn(species, (rxn,))
    state = ConcState(brn.species_names, [0.5, 0.5])
    assert reaction_rate(brn, rxn, state) == pytest.approx(0.125)


def test_vector_field_linear_transfer():
    species = (Species("Y"), Species("Z"))
    rxn = Reaction.with_constant_rate({"Y": 1}, {"Z": 1}, 1.0)
    brn = Brn(species, (rxn,))
    f = vector_field(brn, ConcState(brn.species_names, [2.0, 0.0]))
    assert f == pytest.approx([-2.0, 2.0])
    # a network with no reactions has a drift of float zeros
    still = vector_field(Brn(species, ()), [1.0, 2.0])
    assert still.dtype == np.float64 and still.tolist() == [0.0, 0.0]


def test_vector_field_vanishes_at_nominal_state(example_nfa):
    out = translate(example_nfa, {"k1": 2.0, "k2": 3.0, "k3": 5.0, "k4": 7.0})
    f = vector_field(out.brn, out.initial)
    assert np.allclose(f, 0.0)


def test_vector_field_balanced_majority(example_nfa):
    # equal state/dual levels cancel the majority terms exactly
    out = translate(example_nfa, {"k1": 2.0, "k2": 3.0, "k3": 5.0, "k4": 7.0})
    x = out.initial.copy()
    for q in example_nfa.states:
        x = x.replace(**{out.state_species(q): 0.5, out.dual_state_species(q): 0.5})
    f = vector_field(out.brn, x)
    for q in example_nfa.states:
        assert f[out.brn.index_of(out.state_species(q))] == pytest.approx(0.0, abs=1e-14)


def _explicit_drift(out, x, t=0.0):
    """Drift of the compiled network written out equation by equation."""
    nfa = out.nfa
    k1, k2, k3, k4 = (out.rates[k] for k in ("k1", "k2", "k3", "k4"))
    f = np.zeros(len(out.brn.species))
    xc = x[out.species_index[("input-copy", "")]]
    xr = x[out.species_index[("input-reset", "")]]
    for q in nfa.states:
        y = x[out.state_species(q)]
        yb = x[out.dual_state_species(q)]
        z = x[out.portal_species(q)]
        zb = x[out.dual_portal_species(q)]
        dy = k2 * xc * (z * yb - zb * y) + k4 * y * yb * (y - yb)
        dz = -k3 * xr * z
        for (src, sym, dst) in nfa.transitions:
            if dst == q:
                dz += k1 * x[out.symbol_species(sym)] * x[out.state_species(src)] * zb
        f[out.brn.index_of(out.state_species(q))] = dy
        f[out.brn.index_of(out.dual_state_species(q))] = -dy
        f[out.brn.index_of(out.portal_species(q))] = dz
        f[out.brn.index_of(out.dual_portal_species(q))] = -dz
    return f


def test_vector_field_matches_explicit_equations(example_nfa):
    out = translate(example_nfa, {"k1": 2.0, "k2": 3.0, "k3": 5.0, "k4": 7.0})
    rng = np.random.default_rng(1)
    for _ in range(25):
        x = ConcState(out.brn.species_names, rng.uniform(0, 1.2, len(out.brn.species)))
        assert np.allclose(vector_field(out.brn, x), _explicit_drift(out, x), rtol=1e-13, atol=1e-13)


def test_vector_field_pairwise_antisymmetric(example_nfa):
    out = translate(example_nfa, {"k1": 2.0, "k2": 3.0, "k3": 5.0, "k4": 7.0})
    rng = np.random.default_rng(2)
    for _ in range(25):
        x = ConcState(out.brn.species_names, rng.uniform(0, 1.5, len(out.brn.species)))
        f = vector_field(out.brn, x)
        for q in example_nfa.states:
            assert f[out.brn.index_of(out.state_species(q))] == pytest.approx(
                -f[out.brn.index_of(out.dual_state_species(q))], abs=1e-14)
            assert f[out.brn.index_of(out.portal_species(q))] == pytest.approx(
                -f[out.brn.index_of(out.dual_portal_species(q))], abs=1e-14)


@st.composite
def small_networks(draw):
    n = draw(st.integers(2, 4))
    names = tuple(f"S{i}" for i in range(n))
    species = tuple(Species(nm) for nm in names)
    reactions = []
    for _ in range(draw(st.integers(1, 5))):
        reactants = {nm: draw(st.integers(0, 2)) for nm in names}
        products = {nm: draw(st.integers(0, 2)) for nm in names}
        if {k: v for k, v in reactants.items() if v} == {k: v for k, v in products.items() if v}:
            products[names[0]] = products.get(names[0], 0) + 1
        reactions.append(Reaction.with_constant_rate(reactants, products,
                                                     draw(st.floats(0.1, 5.0))))
    return Brn(species, tuple(reactions))


@given(small_networks(), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_vector_field_matches_expanded_polynomial(brn, seed):
    # independent oracle: expand each drift component symbolically, then evaluate
    import sympy

    syms = sympy.symbols([f"x{i}" for i in range(len(brn.species))])
    polys = [sympy.Integer(0) for _ in brn.species]
    for rxn in brn.reactions:
        rate = sympy.Float(rxn.rate.nominal)
        for nm, count in rxn.reactants.items():
            rate *= syms[brn.index_of(nm)] ** count
        for nm, d in net_effect(rxn).items():
            polys[brn.index_of(nm)] += d * rate
    expanded = [sympy.expand(p) for p in polys]
    fns = [sympy.lambdify(syms, p, "numpy") for p in expanded]
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 2, len(brn.species))
    expected = np.array([f(*x) for f in fns], dtype=float)
    got = vector_field(brn, ConcState(brn.species_names, x))
    assert np.allclose(got, expected, rtol=1e-10, atol=1e-10)


def test_rate_multilinearity():
    species = (Species("A"), Species("B"))
    rxn = Reaction.with_constant_rate({"A": 2, "B": 1}, {"B": 2}, 1.3)
    brn = Brn(species, (rxn,))
    base = reaction_rate(brn, rxn, ConcState(brn.species_names, [1.0, 1.0]))
    assert reaction_rate(brn, rxn, ConcState(brn.species_names, [3.0, 1.0])) == pytest.approx(9 * base)
    assert reaction_rate(brn, rxn, ConcState(brn.species_names, [1.0, 3.0])) == pytest.approx(3 * base)


def test_time_varying_rate_laws():
    sin = SinusoidRate(2.0, 0.5, omega=3.0, phase=0.1)
    t = np.linspace(0, 10, 500)
    vals = sin.value(t)
    assert np.all(np.abs(vals - 2.0) <= 0.5 + 1e-12)
    off = OffsetRate(2.0, -0.5)
    assert off.value(3.7) == pytest.approx(1.5)
    pwl = PiecewiseLinearRate(1.0, (0.0, 1.0, 2.0), (0.1, -0.1, 0.05))
    assert pwl.value(0.5) == pytest.approx(1.0)
    assert pwl.value(5.0) == pytest.approx(1.05)
    with pytest.raises(ValueError, match="positive"):
        SinusoidRate(0.4, 0.5, omega=1.0)


def test_kernel_rejects_an_unknown_rate_law():
    class Doubling(RateLaw):
        nominal = 1.0

        def value(self, t):
            return 2.0 * t

    brn = Brn((Species("A"), Species("B")), (Reaction({"A": 1}, {"B": 1}, Doubling()),))
    with pytest.raises(TypeError, match="Doubling"):
        MassActionKernel(brn)
    with pytest.raises(TypeError, match="Doubling"):
        vector_field(brn, [1.0, 0.0])


def test_fluxes_are_read_from_the_drift_entries():
    brn = Brn((Species("A"), Species("B")), (Reaction.with_constant_rate({"A": 1}, {"B": 1}, 1.0),
                                             Reaction.with_constant_rate({"B": 1}, {}, 2.0)))
    x = np.array([3.0, 5.0, 1.0])
    assert MassActionKernel(brn).fluxes(0.0, x).tolist() == [3.0, 10.0]
    # holding B leaves the second reaction without an entry among the drift's rows, not without a flux
    assert MassActionKernel(brn, rows=1).fluxes(0.0, x).tolist() == [3.0, 10.0]


def test_a_kernel_and_its_batches_are_freed_without_the_cycle_collector(example_nfa):
    # nothing keeps a batch but its user, and nothing in a batch or a selection
    # points back, or they would live until a collection
    kernel = MassActionKernel(translate(example_nfa, {"k1": 2.0, "k2": 3.0, "k3": 5.0, "k4": 7.0}).brn, rows=4)
    gc.disable()
    try:
        batch = ColumnDrift.compile([kernel] * 3, 4, kernel.n_species - 4)
        selected = batch.select(np.array([0, 2]))
        assert selected is not batch and selected.n_cols == 2
        assert not any(isinstance(value, ColumnDrift) for value in vars(kernel).values())
        freed = [weakref.ref(obj) for obj in (kernel, batch, selected)]
        del kernel, batch, selected
        assert [ref() for ref in freed] == [None] * 3
    finally:
        gc.enable()


def test_json_roundtrip(example_nfa):
    out = translate(example_nfa, {"k1": 2.0, "k2": 3.0, "k3": 5.0, "k4": 7.0})
    again = Brn.loads(out.brn.dumps())
    assert again.species_names == out.brn.species_names
    assert [r.to_json_dict() for r in again.reactions] == [r.to_json_dict() for r in out.brn.reactions]


def test_pretty_notation():
    species = (Species("X_r", "input-reset"), Species("Z_A", "portal"), Species("Zb_A", "dual-portal"))
    rxn = Reaction.with_constant_rate({"X_r": 1, "Z_A": 1}, {"X_r": 1, "Zb_A": 1}, 5.0)
    brn = Brn(species, (rxn,))
    assert brn.pretty(["k3"]) == "X_r + Z_A ->{k3} X_r + Zb_A"


def test_input_species_catalytic_flags_mutant():
    species = (Species("X_r", "input-reset"), Species("Z", "portal"), Species("Zb", "dual-portal"))
    good = Brn(species, (Reaction.with_constant_rate({"X_r": 1, "Z": 1}, {"X_r": 1, "Zb": 1}, 1.0),))
    assert input_species_catalytic(good)
    bad = Brn(species, (Reaction.with_constant_rate({"X_r": 1, "Z": 1}, {"Zb": 1}, 1.0),))
    assert not input_species_catalytic(bad)
    no_inputs = Brn((Species("A"), Species("B")),
                    (Reaction.with_constant_rate({"A": 1}, {"B": 1}, 1.0),))
    assert input_species_catalytic(no_inputs)
