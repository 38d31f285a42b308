"""Tests of :mod:`repro.runtime.skeleton` (the Algorithm 1 driver)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.erosion.app import ErosionApplication, ErosionConfig
from repro.lb.adaptive import (
    DegradationTrigger,
    NeverTrigger,
    PeriodicTrigger,
    ULBADegradationTrigger,
)
from repro.lb.standard import StandardPolicy
from repro.lb.ulba import ULBAPolicy
from repro.runtime.skeleton import IterativeRunner, RunResult, StripedApplication
from repro.runtime.synthetic import SyntheticGrowthApplication
from repro.simcluster.cluster import VirtualCluster
from repro.simcluster.comm import CommCostModel


def synthetic_app(num_columns=64, hot=((0, 8),)):
    return SyntheticGrowthApplication(
        num_columns,
        initial_load_per_column=100.0,
        uniform_growth=0.05,
        hot_regions=hot,
        hot_growth=4.0,
        flop_per_load_unit=1.0e6,
    )


class TestProtocolConformance:
    def test_synthetic_app_is_striped_application(self):
        assert isinstance(synthetic_app(), StripedApplication)

    def test_erosion_app_is_striped_application(self, tiny_erosion_app):
        assert isinstance(tiny_erosion_app, StripedApplication)


class TestIterativeRunner:
    def test_run_records_every_iteration(self):
        cluster = VirtualCluster(4)
        runner = IterativeRunner(cluster, synthetic_app(), trigger_policy=NeverTrigger())
        result = runner.run(10)
        assert isinstance(result, RunResult)
        assert result.trace.num_iterations == 10
        assert result.total_time > 0.0
        assert result.num_lb_calls == 0
        assert result.policy_name == "standard"
        assert result.trigger_name == "never"

    def test_requires_enough_columns(self):
        cluster = VirtualCluster(8)
        with pytest.raises(ValueError):
            IterativeRunner(cluster, synthetic_app(num_columns=4))

    def test_invalid_iterations(self):
        cluster = VirtualCluster(2)
        runner = IterativeRunner(cluster, synthetic_app(), trigger_policy=NeverTrigger())
        with pytest.raises(ValueError):
            runner.run(0)

    def test_periodic_trigger_invokes_lb(self):
        cluster = VirtualCluster(4)
        runner = IterativeRunner(
            cluster,
            synthetic_app(),
            trigger_policy=PeriodicTrigger(period=5),
        )
        result = runner.run(20)
        assert result.num_lb_calls >= 3
        assert len(result.lb_reports) == result.num_lb_calls

    def test_lb_updates_partition(self):
        cluster = VirtualCluster(4)
        app = synthetic_app(hot=((0, 4),))
        runner = IterativeRunner(cluster, app, trigger_policy=PeriodicTrigger(period=5))
        initial_boundaries = runner.partition.partition.boundaries
        runner.run(15)
        assert runner.partition.partition.boundaries != initial_boundaries
        # The hot stripe (columns 0-3) shrinks below the uniform width.
        assert runner.partition.partition.part_sizes()[0] < 16

    def test_degradation_trigger_balances_imbalanced_app(self):
        cluster = VirtualCluster(4)
        app = synthetic_app(hot=((0, 8),))
        prior = app.total_load() * app.flop_per_load_unit / 4 / cluster.pe_speed
        runner = IterativeRunner(
            cluster,
            app,
            trigger_policy=DegradationTrigger(),
            initial_lb_cost_estimate=prior,
        )
        result = runner.run(60)
        assert result.num_lb_calls >= 1

    def test_balanced_app_never_triggers_degradation_lb(self):
        cluster = VirtualCluster(4)
        app = SyntheticGrowthApplication(
            64, initial_load_per_column=100.0, uniform_growth=0.1, flop_per_load_unit=1.0e6
        )
        runner = IterativeRunner(
            cluster,
            app,
            trigger_policy=DegradationTrigger(),
            initial_lb_cost_estimate=1.0,
        )
        result = runner.run(30)
        assert result.num_lb_calls == 0
        assert result.mean_utilization == pytest.approx(1.0, abs=0.05)

    def test_degradation_resets_after_lb(self):
        cluster = VirtualCluster(4)
        runner = IterativeRunner(
            cluster,
            synthetic_app(),
            trigger_policy=PeriodicTrigger(period=5),
        )
        result = runner.run(12)
        # The last LB call (iteration 11) reset the accumulated degradation.
        assert result.trace.lb_iterations()[-1] == 11
        assert runner.engine.degradation.degradation_of(0) == 0.0

    def test_wir_estimates_track_hot_stripe(self):
        cluster = VirtualCluster(4, cost_model=CommCostModel.free())
        app = synthetic_app(hot=((0, 16),))  # exactly stripe 0 of 4x16 columns
        runner = IterativeRunner(
            cluster, app, trigger_policy=NeverTrigger(), use_gossip=False
        )
        runner.run(20)
        rates = runner.engine.wir_estimates.rates[0].tolist()
        assert rates[0] == max(rates)
        assert rates[0] > 10 * max(rates[1:])

    def test_instant_wir_database_has_full_coverage(self):
        cluster = VirtualCluster(4)
        runner = IterativeRunner(
            cluster, synthetic_app(), trigger_policy=NeverTrigger(), use_gossip=False
        )
        runner.run(3)
        assert runner.wir_db.known_rows().counts.tolist() == [4] * 4

    def test_gossip_wir_database_converges_over_run(self):
        cluster = VirtualCluster(8)
        runner = IterativeRunner(
            cluster,
            SyntheticGrowthApplication(64, flop_per_load_unit=1.0e6),
            trigger_policy=NeverTrigger(),
            use_gossip=True,
            seed=3,
        )
        runner.run(25)
        assert runner.wir_db.known_rows().counts.tolist() == [8] * 8

    def test_deterministic_given_seed(self, tiny_erosion_config):
        def run_once():
            app = ErosionApplication.from_config(tiny_erosion_config)
            cluster = VirtualCluster(tiny_erosion_config.num_pes)
            runner = IterativeRunner(
                cluster,
                app,
                workload_policy=StandardPolicy(),
                trigger_policy=DegradationTrigger(),
                initial_lb_cost_estimate=1e-5,
                seed=11,
            )
            return runner.run(30)

        a, b = run_once(), run_once()
        assert a.total_time == pytest.approx(b.total_time)
        assert a.num_lb_calls == b.num_lb_calls
        assert np.allclose(a.utilization_series(), b.utilization_series())

    def test_ulba_runner_on_erosion_app(self):
        """End-to-end smoke test: ULBA policy + ULBA trigger on the erosion
        application completes and produces sane statistics."""
        config = ErosionConfig(
            num_pes=4, columns_per_pe=16, rows=16, num_strong_rocks=1,
            strong_rock_indices=(0,), seed=5,
        )
        app = ErosionApplication.from_config(config)
        cluster = VirtualCluster(4)
        prior = app.total_load() * app.flop_per_load_unit / 4 / cluster.pe_speed
        runner = IterativeRunner(
            cluster,
            app,
            workload_policy=ULBAPolicy(alpha=0.4),
            trigger_policy=ULBADegradationTrigger(alpha=0.4),
            initial_lb_cost_estimate=prior,
            seed=5,
        )
        result = runner.run(40)
        assert result.trace.num_iterations == 40
        assert 0.0 < result.mean_utilization <= 1.0
        assert result.policy_name == "ulba"
        util = result.utilization_series()
        assert util.shape == (40,)
        assert np.all((0.0 <= util) & (util <= 1.0))

    def test_lb_cost_estimate_used_before_first_measurement(self):
        cluster = VirtualCluster(4)
        runner = IterativeRunner(
            cluster,
            synthetic_app(),
            trigger_policy=NeverTrigger(),
            initial_lb_cost_estimate=123.0,
        )
        assert runner.engine._average_lb_cost(0) == 123.0

    def test_measured_lb_cost_replaces_estimate(self):
        cluster = VirtualCluster(4)
        runner = IterativeRunner(
            cluster,
            synthetic_app(),
            trigger_policy=PeriodicTrigger(period=3),
            initial_lb_cost_estimate=123.0,
        )
        runner.run(10)
        assert runner.engine._average_lb_cost(0) != 123.0
        assert runner.engine._average_lb_cost(0) == pytest.approx(
            runner.engine.load_balancers[0].average_cost
        )
