"""Randomized differential test: a solo run equals its replica in a batch.

``Session.run()`` with seed ``s`` and the middle replica of
``Session.run_batch(seeds=[s + 1, s, s + 2])`` must agree exactly -- every
iteration's elapsed time and every LB iteration -- over random small run
configurations: cluster size, policy, gossip mode (dense, sparse with a
view bound, or instant), push topology, fanout and run length.  The
neighbouring replicas make sure no state leaks between replicas of a batch.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.api import (
    ClusterConfig,
    PolicyConfig,
    RunConfig,
    ScenarioConfig,
    Session,
    TopologyConfig,
)


@st.composite
def run_configs(draw):
    num_pes = draw(st.integers(2, 24))
    policy = draw(st.sampled_from(["standard", "ulba"]))
    mode = draw(st.sampled_from(["dense", "sparse", "instant"]))
    topology = TopologyConfig(
        use_gossip=mode != "instant",
        gossip_mode="sparse" if mode == "sparse" else "dense",
        push_topology=draw(st.sampled_from(["random", "ring", "hypercube"])),
        fanout=draw(st.integers(1, 3)),
        view_size=draw(st.integers(2, num_pes + 2)) if mode == "sparse" else None,
    )
    return RunConfig(
        cluster=ClusterConfig(num_pes=num_pes),
        topology=topology,
        policy=PolicyConfig(policy, {} if policy == "standard" else {"alpha": 0.4}),
        scenario=ScenarioConfig(
            name="synthetic-hotspot",
            columns_per_pe=4,
            rows=8,
            iterations=draw(st.integers(5, 40)),
            seed=draw(st.integers(0, 10_000)),
        ),
    )


@given(cfg=run_configs())
def test_solo_run_equals_middle_replica_of_batch(cfg):
    seed = cfg.scenario.seed
    solo = Session.from_config(cfg).run().run
    batch = Session.from_config(cfg).run_batch(seeds=[seed + 1, seed, seed + 2])
    replica = batch.replicas[1]
    assert [r.elapsed for r in replica.trace.iterations] == [
        r.elapsed for r in solo.trace.iterations
    ]
    assert replica.trace.lb_iterations() == solo.trace.lb_iterations()
