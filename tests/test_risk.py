import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridexplore.planners import Policy
from gridexplore.risk import RiskField, cvar, edge_risk, policy_risk, sample_cell_costs
from gridexplore.roadmap import LOCAL, RoadmapGraph, RoadmapNode


# --- oracle -------------------------------------------------------------------

def cvar_oracle(samples, alpha):
    """Sort-and-average reference: mean of the worst ceil((1-alpha)*n)."""
    ordered = sorted(samples, reverse=True)
    k = max(1, math.ceil((1.0 - alpha) * len(ordered) - 1e-9))
    return sum(ordered[:k]) / k


def field_with(mu_cells, sigma_cells, alpha=0.9, sample_count=64, seed=0):
    mu = np.zeros((4, 4))
    sigma = np.zeros((4, 4))
    for (r, c), v in mu_cells.items():
        mu[r, c] = v
    for (r, c), v in sigma_cells.items():
        sigma[r, c] = v
    return RiskField(mu=mu, sigma=sigma, alpha=alpha, sample_count=sample_count, seed=seed)


# --- cvar ----------------------------------------------------------------------

def test_cvar_small_example():
    assert cvar([1, 2, 3, 4], 0.5) == pytest.approx(3.5)


def test_cvar_constant_samples():
    for alpha in (0.1, 0.5, 0.9, 0.99):
        assert cvar([7.0] * 12, alpha) == pytest.approx(7.0)


def test_cvar_top_decile():
    samples = list(range(100))
    expected = cvar_oracle(samples, 0.9)
    assert expected == pytest.approx(94.5)
    assert cvar(samples, 0.9) == pytest.approx(expected)


def test_cvar_tail_index_survives_float_slop():
    # (1 - 0.7) * 10 is 3.0000000000000004 in floats; the tail must stay 3 wide
    samples = [0, 0, 0, 0, 0, 0, 0, 10, 20, 30]
    assert cvar(samples, 0.7) == pytest.approx(20.0)


def test_cvar_rejects_bad_inputs():
    with pytest.raises(ValueError):
        cvar([], 0.5)
    with pytest.raises(ValueError):
        cvar([1.0], 0.0)
    with pytest.raises(ValueError):
        cvar([1.0], 1.0)


@given(
    samples=st.lists(st.floats(0, 1e6), min_size=1, max_size=200),
    alphas=st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)),
)
@settings(max_examples=200, deadline=None)
def test_cvar_monotone_in_alpha(samples, alphas):
    lo, hi = sorted(alphas)
    assert cvar(samples, lo) <= cvar(samples, hi) + 1e-9


@given(samples=st.lists(st.floats(0, 1e6), min_size=1, max_size=200),
       alpha=st.floats(0.01, 0.99))
@settings(max_examples=200, deadline=None)
def test_cvar_dominates_mean_for_nonnegative_costs(samples, alpha):
    value = cvar(samples, alpha)
    assert value >= np.mean(samples) - 1e-9
    assert value >= 0.0


@given(samples=st.lists(st.floats(0, 1e3), min_size=1, max_size=50),
       alpha=st.floats(0.05, 0.95))
@settings(max_examples=100, deadline=None)
def test_cvar_matches_oracle(samples, alpha):
    assert cvar(samples, alpha) == pytest.approx(cvar_oracle(samples, alpha), abs=1e-9)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_risk_field_rejects_non_finite_mu_or_sigma(value):
    bad = np.zeros((4, 4))
    bad[1, 1] = value
    with pytest.raises(ValueError, match="finite"):
        RiskField(mu=bad, sigma=np.zeros((4, 4)))
    with pytest.raises(ValueError, match="finite"):
        RiskField(mu=np.ones((4, 4)), sigma=bad)


@pytest.mark.parametrize("name", ["mu", "sigma"])
def test_risk_field_rejects_negative_mu_or_sigma(name):
    """A negative cost would give negative edge risks and A* step costs,
    and with them cycles that A* never finishes."""
    params = {"mu": np.ones((6, 6)), "sigma": np.zeros((6, 6))}
    params[name][2, 3] = -5.0
    with pytest.raises(ValueError, match="nonnegative"):
        RiskField(**params)
    params[name][:] = -0.0  # negative zero is not below zero
    RiskField(**params)


# --- edge_risk -------------------------------------------------------------------

def test_edge_risk_zero_for_riskless_cells():
    field = field_with({}, {})
    assert edge_risk(field, (0, 0), (0, 1)) == 0.0


def test_edge_risk_degenerate_distribution_sums_means():
    field = field_with({(1, 1): 0.1, (1, 2): 0.2}, {})
    for alpha in (0.1, 0.5, 0.9):
        field_a = field_with({(1, 1): 0.1, (1, 2): 0.2}, {}, alpha=alpha)
        assert edge_risk(field_a, (1, 1), (1, 2)) == pytest.approx(0.3)
    assert edge_risk(field, (1, 1), (1, 2)) == pytest.approx(0.3)


def test_edge_risk_matches_high_sample_oracle():
    rng = np.random.default_rng(42)
    for trial in range(3):
        mu_a, mu_b = rng.uniform(0.2, 2.0, size=2)
        sg_a, sg_b = rng.uniform(0.1, 0.6, size=2)
        field = field_with(
            {(2, 2): mu_a, (2, 3): mu_b},
            {(2, 2): sg_a, (2, 3): sg_b},
            alpha=0.9, sample_count=200_000, seed=trial,
        )
        value = edge_risk(field, (2, 2), (2, 3))

        # brute force: one million independent segment draws
        z = rng.standard_normal((2, 1_000_000))
        costs_a = np.minimum(mu_a * np.exp(sg_a * z[0] - sg_a**2 / 2), 20 * mu_a)
        costs_b = np.minimum(mu_b * np.exp(sg_b * z[1] - sg_b**2 / 2), 20 * mu_b)
        oracle = cvar_oracle(costs_a + costs_b, 0.9)
        assert value == pytest.approx(oracle, rel=0.02)


def test_edge_risk_deterministic_and_symmetric():
    field1 = field_with({(0, 0): 1.0, (0, 1): 0.5}, {(0, 0): 0.4, (0, 1): 0.2}, seed=7)
    field2 = field_with({(0, 0): 1.0, (0, 1): 0.5}, {(0, 0): 0.4, (0, 1): 0.2}, seed=7)
    assert edge_risk(field1, (0, 0), (0, 1)) == edge_risk(field2, (0, 1), (0, 0))
    field3 = field_with({(0, 0): 1.0, (0, 1): 0.5}, {(0, 0): 0.4, (0, 1): 0.2}, seed=8)
    assert edge_risk(field1, (0, 0), (0, 1)) != edge_risk(field3, (0, 0), (0, 1))


def test_edge_risk_same_cell_is_zero():
    field = field_with({(1, 1): 2.0}, {(1, 1): 0.5})
    assert edge_risk(field, (1, 1), (1, 1)) == 0.0


def test_edge_risk_out_of_bounds_rejected():
    field = field_with({}, {})
    with pytest.raises(ValueError):
        edge_risk(field, (0, 0), (9, 9))


@pytest.mark.parametrize("pair", [((-1, 0), (-1, 1)), ((-1, 2), (0, 2)), ((2, 3), (2, 4)),
                                  ((3, 1), (4, 1))])
def test_edge_risk_rejects_unit_edges_off_the_grid(pair):
    """Off-grid unit edges are rejected even where their plane index would
    wrap onto a stored edge."""
    field = field_with({(r, c): 1.0 for r in range(4) for c in range(4)}, {})
    for r in range(4):
        for c in range(4):
            edge_risk(field, (r, c), (r, min(c + 1, 3)))
            edge_risk(field, (r, c), (min(r + 1, 3), c))
    with pytest.raises(ValueError, match="out of bounds"):
        edge_risk(field, *pair)


def test_replaced_field_shares_no_stored_risk():
    """dataclasses.replace builds a field with empty stores, so a new seed
    gives new risks for unit edges and longer segments alike."""
    rng = np.random.default_rng(5)
    mu = rng.uniform(0.1, 1.0, (6, 6))
    old = RiskField(mu=mu, sigma=0.5 * mu, seed=1)
    pairs = [((0, 0), (0, 1)), ((0, 0), (3, 4))]
    before = [edge_risk(old, a, b) for a, b in pairs]
    new = dataclasses.replace(old, seed=2)
    fresh = RiskField(mu=mu, sigma=0.5 * mu, seed=2)
    assert [edge_risk(new, a, b) for a, b in pairs] == [edge_risk(fresh, a, b) for a, b in pairs]
    assert [edge_risk(old, a, b) for a, b in pairs] == before


def test_sampled_costs_respect_cap_and_mean():
    field = field_with({(0, 0): 1.0}, {(0, 0): 1.0}, sample_count=50_000)
    rng = np.random.default_rng(3)
    costs = sample_cell_costs(field, [(0, 0)], rng)
    assert np.all(costs <= 20.0 + 1e-12)
    assert np.all(costs >= 0)
    assert np.mean(costs) == pytest.approx(1.0, rel=0.05)


# --- policy_risk -----------------------------------------------------------------

def graph_with_edge_risks(risks):
    g = RoadmapGraph(scope=LOCAL, horizon=10)
    for i in range(len(risks) + 1):
        g.add_node(RoadmapNode(id=i, pose=(0, i), kind="lattice"))
    for i, rho in enumerate(risks):
        g.add_edge(i, i + 1, length=0.5, risk=rho)
    return g


def policy_over(graph, n_nodes):
    nodes = list(range(n_nodes))
    return Policy(scope=LOCAL, node_sequence=nodes,
                  edge_sequence=list(zip(nodes, nodes[1:])),
                  utility=0.0, risk=0.0)


def test_policy_risk_single_node_is_zero():
    g = graph_with_edge_risks([0.5])
    assert policy_risk(policy_over(g, 1), g) == 0.0


def test_policy_risk_sums_edges():
    g = graph_with_edge_risks([0.1, 0.2, 0.3])
    assert policy_risk(policy_over(g, 4), g) == pytest.approx(0.6)


def test_policy_risk_matches_summation_oracle():
    rng = np.random.default_rng(11)
    risks = list(rng.uniform(0, 2, size=10))
    g = graph_with_edge_risks(risks)
    value = policy_risk(policy_over(g, 11), g)
    assert value == sum(risks)


def test_policy_risk_is_additive_over_concatenation():
    rng = np.random.default_rng(13)
    risks = list(rng.uniform(0, 2, size=9))
    g = graph_with_edge_risks(risks)
    whole = policy_risk(policy_over(g, 10), g)
    first = Policy(scope=LOCAL, node_sequence=list(range(5)),
                   edge_sequence=[(i, i + 1) for i in range(4)], utility=0, risk=0)
    second = Policy(scope=LOCAL, node_sequence=list(range(5, 10)),
                    edge_sequence=[(i, i + 1) for i in range(5, 9)], utility=0, risk=0)
    joining = g.get_edge(4, 5).risk
    assert whole == pytest.approx(
        policy_risk(first, g) + policy_risk(second, g) + joining
    )


def test_policy_risk_rejects_dangling_edge():
    g = graph_with_edge_risks([0.1])
    bad = Policy(scope=LOCAL, node_sequence=[0, 5],
                 edge_sequence=[(0, 5)], utility=0, risk=0)
    with pytest.raises(ValueError):
        policy_risk(bad, g)
