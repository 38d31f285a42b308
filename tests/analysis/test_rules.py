"""Per-rule fixtures: one true-positive, true-negative and suppression each."""

from __future__ import annotations

import pytest

from repro.analysis import lint_source

#: One representative violating snippet per bug class:
#: case id -> (rule id, source, lint path).  A rule may own several bug
#: classes; the case ids of the loop, copy, allocation and lambda-payload
#: snippets keep the names of the single-file rules FLOW-HOT and FLOW-PKL
#: absorbed.  The suppression test below derives its case from the same
#: snippet by inserting a justified noqa at the reported line, so every
#: case is exercised through all three outcomes.
TRUE_POSITIVES = {
    "DET001": (
        "DET001",
        "import numpy as np\nnp.random.seed(7)\n",
        "repro/pkg/mod.py",
    ),
    "DET002": (
        "DET002",
        "from numpy.random import default_rng\nrng = default_rng()\n",
        "repro/pkg/mod.py",
    ),
    "DET003": (
        "DET003",
        "import random\nx = random.random()\n",
        "repro/pkg/mod.py",
    ),
    "DET004": (
        "DET004",
        "import time\nstart = time.perf_counter()\n",
        "repro/pkg/mod.py",
    ),
    "DET005": (
        "DET005",
        "from datetime import datetime\nstamp = datetime.now()\n",
        "repro/pkg/mod.py",
    ),
    "SPN001": (
        "FLOW-PKL",
        "def launch(pool):\n    pool.submit(lambda cell: cell)\n",
        "repro/pkg/mod.py",
    ),
    "SPN002": (
        "SPN002",
        "_REGISTRY = {}\n\ndef lookup(name, value):\n    _REGISTRY[name] = value\n",
        "repro/pkg/mod.py",
    ),
    "HOT001": (
        "FLOW-HOT",
        "class BatchRunner:\n"
        "    def run(self, iterations):\n"
        "        for iteration in range(iterations):\n"
        "            for replica in self.replicas:\n"
        "                replica.step()\n",
        "repro/batch/runner.py",
    ),
    "HOT002": (
        "FLOW-HOT",
        "class BatchRunner:\n"
        "    def _build_context(self, workloads):\n"
        "        return tuple(workloads.tolist())\n",
        "repro/batch/runner.py",
    ),
    "HOT003": (
        "FLOW-HOT",
        "import numpy as np\n"
        "class BatchRunner:\n"
        "    def run(self, iterations):\n"
        "        for iteration in range(iterations):\n"
        "            scratch = np.zeros(8)\n",
        "repro/batch/runner.py",
    ),
    "API001": (
        "API001",
        "def notify(bus, payload):\n    bus.emit('phase', payload)\n",
        "repro/pkg/mod.py",
    ),
    "API002": (
        "API002",
        "class Mutator:\n"
        "    def poke(self, cfg):\n"
        "        object.__setattr__(cfg, 'seed', 1)\n",
        "repro/pkg/mod.py",
    ),
}


def _rules_of(findings):
    return [f.rule for f in findings if not f.suppressed]


@pytest.mark.parametrize("case", sorted(TRUE_POSITIVES))
def test_true_positive(case):
    rule_id, source, path = TRUE_POSITIVES[case]
    assert rule_id in _rules_of(lint_source(source, path))


@pytest.mark.parametrize("case", sorted(TRUE_POSITIVES))
def test_suppression_with_justification_silences(case):
    rule_id, source, path = TRUE_POSITIVES[case]
    (line,) = {f.line for f in lint_source(source, path) if f.rule == rule_id}
    lines = source.splitlines(keepends=True)
    lines.insert(
        line - 1,
        f"# repro: noqa[{rule_id}] -- fixture-approved exception\n",
    )
    findings = lint_source("".join(lines), path)
    assert rule_id not in _rules_of(findings)
    suppressed = [f for f in findings if f.rule == rule_id and f.suppressed]
    assert suppressed and suppressed[0].justification == "fixture-approved exception"


# ----------------------------------------------------------------------
# True negatives: the idiomatic counterpart of each violation stays clean.
# ----------------------------------------------------------------------
class TestDeterminismNegatives:
    def test_seeded_generator_constructors_allowed(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(42)\n"
            "ss = np.random.SeedSequence(7)\n"
            "gen = np.random.Generator(np.random.PCG64(3))\n"
        )
        assert _rules_of(lint_source(source, "repro/pkg/mod.py")) == []

    def test_seeded_stdlib_random_instance_allowed(self):
        source = "import random\nrng = random.Random('seed|key|1')\n"
        assert _rules_of(lint_source(source, "repro/pkg/mod.py")) == []

    def test_unseeded_stdlib_random_instance_flagged(self):
        source = "import random\nrng = random.Random()\n"
        assert _rules_of(lint_source(source, "repro/pkg/mod.py")) == ["DET003"]

    def test_wall_clock_allowed_in_obs_and_resilience(self):
        source = "import time\nstart = time.perf_counter()\n"
        assert _rules_of(lint_source(source, "repro/obs/clock.py")) == []
        assert _rules_of(lint_source(source, "repro/resilience/pool.py")) == []

    def test_sleep_is_not_a_clock_read(self):
        source = "import time\ntime.sleep(0.1)\n"
        assert _rules_of(lint_source(source, "repro/pkg/mod.py")) == []

    def test_datetime_now_flagged_even_in_obs(self):
        # DET005 has no path exemption: utc_timestamp() in obs/clock.py is
        # itself suppressed in source, everything else must go through it.
        source = "from datetime import datetime\nstamp = datetime.now()\n"
        assert _rules_of(lint_source(source, "repro/obs/clock.py")) == ["DET005"]

    def test_local_variable_named_time_not_confused(self):
        source = "time = object()\nx = 1\n"
        assert _rules_of(lint_source(source, "repro/pkg/mod.py")) == []

    def test_relative_import_not_confused_with_stdlib(self):
        # `.time` is a sibling module of the package, not the stdlib clock.
        source = "from .time import perf_counter\nstart = perf_counter()\n"
        assert _rules_of(lint_source(source, "repro/pkg/mod.py")) == []


class TestSpawnNegatives:
    def test_module_level_function_submission_allowed(self):
        source = (
            "def work(cell):\n"
            "    return cell\n"
            "\n"
            "def launch(pool):\n"
            "    pool.submit(work, 1)\n"
        )
        assert _rules_of(lint_source(source, "repro/pkg/mod.py")) == []

    def test_nested_def_submission_flagged(self):
        source = (
            "def launch(pool):\n"
            "    def work(cell):\n"
            "        return cell\n"
            "    pool.submit(work, 1)\n"
        )
        assert _rules_of(lint_source(source, "repro/pkg/mod.py")) == ["FLOW-PKL"]

    def test_process_target_lambda_flagged(self):
        source = (
            "import multiprocessing\n"
            "def launch():\n"
            "    multiprocessing.Process(target=lambda: None).start()\n"
        )
        assert "FLOW-PKL" in _rules_of(lint_source(source, "repro/pkg/mod.py"))

    def test_supervised_pool_worker_fn_checked(self):
        source = (
            "from repro.resilience.pool import SupervisedPool\n"
            "def launch():\n"
            "    def work(task):\n"
            "        return task\n"
            "    return SupervisedPool(work, num_workers=2)\n"
        )
        assert "FLOW-PKL" in _rules_of(lint_source(source, "repro/pkg/mod.py"))

    def test_registration_api_may_mutate(self):
        source = (
            "_REGISTRY = {}\n"
            "\n"
            "def register_scenario(name, factory):\n"
            "    _REGISTRY[name] = factory\n"
            "\n"
            "def unregister_scenario(name):\n"
            "    del _REGISTRY[name]\n"
            "\n"
            "def _reset_registry():\n"
            "    _REGISTRY.clear()\n"
        )
        assert _rules_of(lint_source(source, "repro/pkg/mod.py")) == []

    def test_module_level_seeding_allowed(self):
        source = "_DEFAULTS = {}\n_DEFAULTS['alpha'] = 0.4\n"
        assert _rules_of(lint_source(source, "repro/pkg/mod.py")) == []

    def test_reads_are_not_mutations(self):
        source = (
            "_REGISTRY = {}\n"
            "\n"
            "def lookup(name):\n"
            "    return _REGISTRY[name]\n"
            "\n"
            "def names():\n"
            "    return sorted(_REGISTRY)\n"
        )
        assert _rules_of(lint_source(source, "repro/pkg/mod.py")) == []

    def test_mutating_method_outside_api_flagged(self):
        source = (
            "_POLICIES = {}\n"
            "\n"
            "def install(extra):\n"
            "    _POLICIES.update(extra)\n"
        )
        assert _rules_of(lint_source(source, "repro/pkg/mod.py")) == ["SPN002"]


class TestHotLoopNegatives:
    def test_outermost_iteration_loop_is_the_boundary(self):
        source = (
            "class BatchRunner:\n"
            "    def run(self, iterations):\n"
            "        total = 0.0\n"
            "        for iteration in range(iterations):\n"
            "            total += 1.0\n"
            "        return total\n"
        )
        assert _rules_of(lint_source(source, "repro/batch/runner.py")) == []

    def test_setup_code_before_loop_is_free(self):
        source = (
            "import numpy as np\n"
            "class BatchRunner:\n"
            "    def run(self, iterations):\n"
            "        buf = np.zeros(8)\n"
            "        names = [str(i) for i in range(3)]\n"
            "        for iteration in range(iterations):\n"
            "            buf += 1.0\n"
            "        return buf, names\n"
        )
        assert _rules_of(lint_source(source, "repro/batch/runner.py")) == []

    def test_other_files_not_hot(self):
        _, source, _ = TRUE_POSITIVES["HOT001"]
        assert _rules_of(lint_source(source, "repro/campaign/runner.py")) == []

    def test_non_hot_method_in_hot_file_not_checked(self):
        source = (
            "class BatchRunner:\n"
            "    def summary(self, rows):\n"
            "        return [row for row in rows]\n"
        )
        assert _rules_of(lint_source(source, "repro/batch/runner.py")) == []


class TestApiNegatives:
    def test_emit_with_constant_allowed(self):
        source = (
            "from repro.api.events import EV_PHASE, EV_LB_STEP\n"
            "from repro.api import events\n"
            "def notify(bus, payload):\n"
            "    bus.emit(EV_PHASE, payload)\n"
            "    bus.emit(events.EV_LB_STEP, payload)\n"
        )
        assert _rules_of(lint_source(source, "repro/pkg/mod.py")) == []

    def test_emit_without_arguments_flagged(self):
        source = "def notify(bus):\n    bus.emit()\n"
        assert _rules_of(lint_source(source, "repro/pkg/mod.py")) == ["API001"]

    def test_setattr_in_post_init_allowed(self):
        source = (
            "class Config:\n"
            "    def __post_init__(self):\n"
            "        object.__setattr__(self, 'params', dict(self.params))\n"
        )
        assert _rules_of(lint_source(source, "repro/pkg/mod.py")) == []
