"""Seeded end-to-end pins of the policies no golden fixture covers.

The golden fixtures pin the fixed-``alpha`` ULBA and standard policies under
the degradation triggers, and the frozen reference loop runs the same policy
classes as the engine, so a change to how the dynamic-``alpha`` policy or
the Menon-interval trigger read the WIR database would pass both.  These
two dense-gossip runs (P=32, 512 columns, one hot stripe, 150 iterations,
seed 7) pin their results exactly.
"""

from __future__ import annotations

from repro.lb.registry import make_policy, make_trigger
from repro.runtime.skeleton import IterativeRunner, initial_lb_cost_prior
from repro.runtime.synthetic import SyntheticGrowthApplication
from repro.simcluster.cluster import VirtualCluster

NUM_PES = 32


def run_pinned(policy: str, trigger: str):
    app = SyntheticGrowthApplication(
        512,
        initial_load_per_column=100.0,
        uniform_growth=0.05,
        hot_regions=((0, 16),),
        hot_growth=4.0,
        flop_per_load_unit=1.0e6,
    )
    cluster = VirtualCluster(NUM_PES)
    prior = initial_lb_cost_prior(
        app.total_load() * app.flop_per_load_unit, NUM_PES, cluster.pe_speed
    )
    workload = make_policy(policy)
    runner = IterativeRunner(
        cluster,
        app,
        workload_policy=workload,
        trigger_policy=make_trigger(trigger),
        use_gossip=True,
        initial_lb_cost_estimate=prior,
        seed=7,
    )
    return runner.run(150), workload


def test_dynamic_alpha_under_ulba_degradation():
    result, policy = run_pinned("ulba-dynamic", "ulba-degradation")
    assert result.total_time == 299.42331528800025
    assert result.trace.lb_iterations() == [
        6, 12, 16, 20, 25, 31, 34, 39, 43, 47, 51, 55, 59, 66, 71, 75, 78, 81,
        84, 86, 88, 90, 92, 94, 96, 98, 100, 102, 104, 106, 108, 110, 113, 115,
        117, 119, 123, 126, 128, 130, 132, 134, 136, 138, 140, 142, 144, 146,
        148,
    ]
    assert [(c.iteration, c.alpha, c.used_fallback) for c in policy.choices] == [
        (6, 0.3889359285755394, False),
        (12, 0.008603889154958785, False),
        (16, 0.008361527954683121, False),
        (20, 0.0071716008013506674, False),
        (25, 0.005896729282093405, False),
        (31, 0.00563360633440596, False),
        (34, 0.005330718942586401, False),
        (39, 0.00494402512459852, False),
        (43, 0.004698767461597292, False),
        (47, 0.0043885894444580685, False),
        (51, 0.004240553703930606, False),
        (55, 0.004193707166375172, False),
        (59, 0.0038300140059391603, False),
        (66, 0.0036667080267143537, False),
        (71, 0.003661086149149112, False),
        (75, 0.003592770306642948, False),
        (78, 0.0032081315072618145, False),
        (81, 0.003490086686385341, False),
        (84, 0.003442533308764465, False),
        (123, 0.002616189235495361, False),
    ]


def test_standard_under_menon_interval():
    result, _ = run_pinned("standard", "menon-interval")
    assert result.total_time == 298.5055511560001
    assert result.trace.lb_iterations() == list(range(5, 150, 2))
