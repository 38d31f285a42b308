"""Interprocedural FLOW-* rules over multi-file fixture packages.

Every true-positive fixture here splits its violation across a module
boundary and asserts that the FLOW rule catches it; where a single-file
rule guards the same invariant (DET002 / SPN002), it also asserts that
rule provably does not -- the whole reason the dataflow layer exists.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis import lint_paths
from repro.analysis.findings import Finding

# ----------------------------------------------------------------------
# Fixture helpers.
# ----------------------------------------------------------------------


def _write_tree(tmp_path, files: Dict[str, str]):
    """Materialize ``repro/...``-relative sources under ``tmp_path``.

    The leading ``repro/`` segment matters: rule scoping and module naming
    normalize paths to the last ``repro`` package segment, so fixtures get
    the same treatment as the real tree.
    """
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return tmp_path / "repro"


def _lint(tmp_path, files: Dict[str, str]) -> List[Finding]:
    return lint_paths([_write_tree(tmp_path, files)])


def _rules_hit(findings: List[Finding]) -> Dict[str, List[Finding]]:
    hit: Dict[str, List[Finding]] = {}
    for finding in findings:
        if not finding.suppressed:
            hit.setdefault(finding.rule, []).append(finding)
    return hit


# ----------------------------------------------------------------------
# FLOW-RNG: entropy-seeded generator laundered through a helper.
# ----------------------------------------------------------------------

_RNG_TP = {
    # The entropy source hides behind the project's own `ensure_rng()`
    # helper called with no seed -- DET002 only knows numpy spellings.
    "repro/utils/rng.py": (
        "import numpy as np\n"
        "\n"
        "def ensure_rng(seed=None):\n"
        "    return np.random.default_rng(seed)\n"
    ),
    "repro/helpers.py": (
        "from repro.utils.rng import ensure_rng\n"
        "\n"
        "def fresh_generator():\n"
        "    return ensure_rng()\n"
    ),
    "repro/simcluster/engine.py": (
        "def simulate(rng):\n"
        "    return rng\n"
    ),
    "repro/driver.py": (
        "from repro.helpers import fresh_generator\n"
        "from repro.simcluster.engine import simulate\n"
        "\n"
        "def main():\n"
        "    rng = fresh_generator()\n"
        "    return simulate(rng)\n"
    ),
}


def test_flow_rng_catches_cross_module_seed_flow(tmp_path):
    hit = _rules_hit(_lint(tmp_path, _RNG_TP))
    assert "FLOW-RNG" in hit, sorted(hit)
    (finding,) = hit["FLOW-RNG"]
    assert finding.path.endswith("repro/driver.py")
    assert "simulate" in finding.message
    # The single-file determinism rules provably miss the laundered flow.
    for det in ("DET001", "DET002", "DET003", "DET004", "DET005"):
        assert det not in hit, hit.get(det)


def test_flow_rng_clean_when_seed_is_explicit(tmp_path):
    files = dict(_RNG_TP)
    files["repro/helpers.py"] = (
        "from repro.utils.rng import ensure_rng\n"
        "\n"
        "def fresh_generator(seed):\n"
        "    return ensure_rng(seed)\n"
    )
    files["repro/driver.py"] = (
        "from repro.helpers import fresh_generator\n"
        "from repro.simcluster.engine import simulate\n"
        "\n"
        "def main(seed):\n"
        "    rng = fresh_generator(seed)\n"
        "    return simulate(rng)\n"
    )
    hit = _rules_hit(_lint(tmp_path, files))
    assert "FLOW-RNG" not in hit, hit.get("FLOW-RNG")


def test_flow_rng_suppression_works(tmp_path):
    files = dict(_RNG_TP)
    files["repro/driver.py"] = files["repro/driver.py"].replace(
        "    return simulate(rng)\n",
        "    return simulate(rng)  "
        "# repro: noqa[FLOW-RNG] -- fixture: exploratory tool, not the core\n",
    )
    findings = _lint(tmp_path, files)
    flow = [f for f in findings if f.rule == "FLOW-RNG"]
    assert flow and all(f.suppressed for f in flow)


# ----------------------------------------------------------------------
# FLOW-HOT: hot stage calling an allocating helper in another module.
# ----------------------------------------------------------------------

_HOT_TP = {
    # `repro/batch/runner.py` + `BatchRunner.run` is a declared hot region;
    # the allocation lives one module away, outside every hot region.
    "repro/batch/helpers.py": (
        "import numpy as np\n"
        "\n"
        "def refresh(state):\n"
        "    return np.zeros(4)\n"
    ),
    "repro/batch/runner.py": (
        "from repro.batch.helpers import refresh\n"
        "\n"
        "class BatchRunner:\n"
        "    def run(self, iterations):\n"
        "        for iteration in range(iterations):\n"
        "            self.state = refresh(self.state)\n"
    ),
}


def test_flow_hot_catches_transitive_allocation(tmp_path):
    hit = _rules_hit(_lint(tmp_path, _HOT_TP))
    assert "FLOW-HOT" in hit, sorted(hit)
    (finding,) = hit["FLOW-HOT"]
    assert finding.path.endswith("repro/batch/runner.py")
    assert "refresh" in finding.message and "np.zeros" in finding.message


def test_flow_hot_reports_each_site_and_suppresses_per_line(tmp_path):
    # One hot region with a local allocation and a call to an allocating
    # helper in another module: two findings, each at its own line.
    files = dict(_HOT_TP)
    files["repro/batch/runner.py"] = (
        "import numpy as np\n"
        "from repro.batch.helpers import refresh\n"
        "\n"
        "class BatchRunner:\n"
        "    def run(self, iterations):\n"
        "        for iteration in range(iterations):\n"
        "            scratch = np.zeros(8)\n"
        "            self.state = refresh(scratch)\n"
    )
    hit = _rules_hit(_lint(tmp_path, files))
    assert sorted(hit) == ["FLOW-HOT"], sorted(hit)
    local, call = sorted(hit["FLOW-HOT"], key=lambda f: f.line)
    assert (local.line, call.line) == (7, 8)
    assert "np.zeros" in local.message and "refresh" not in local.message
    assert "refresh" in call.message

    files["repro/batch/runner.py"] = files["repro/batch/runner.py"].replace(
        "np.zeros(8)\n",
        "np.zeros(8)  # repro: noqa[FLOW-HOT] -- fixture: sized once per run\n",
    )
    findings = [f for f in _lint(tmp_path, files) if f.rule == "FLOW-HOT"]
    assert [(f.line, f.suppressed) for f in findings] == [(7, True), (8, False)]


def test_flow_hot_clean_when_callee_is_allocation_free(tmp_path):
    files = dict(_HOT_TP)
    files["repro/batch/helpers.py"] = (
        "import numpy as np\n"
        "\n"
        "def refresh(state):\n"
        "    np.copyto(state, state)\n"
        "    return state\n"
    )
    hit = _rules_hit(_lint(tmp_path, files))
    assert "FLOW-HOT" not in hit, hit.get("FLOW-HOT")


def test_flow_hot_respects_hot_path_allowlist(tmp_path):
    files = dict(_HOT_TP)
    files["repro/batch/helpers.py"] = (
        "import numpy as np\n"
        "from repro.utils.markers import hot_path\n"
        "\n"
        "@hot_path\n"
        "def refresh(state):\n"
        "    return np.zeros(4)\n"
    )
    hit = _rules_hit(_lint(tmp_path, files))
    assert "FLOW-HOT" not in hit, hit.get("FLOW-HOT")


def test_flow_hot_chain_descends_multiple_calls(tmp_path):
    files = dict(_HOT_TP)
    files["repro/batch/helpers.py"] = (
        "import numpy as np\n"
        "\n"
        "def refresh(state):\n"
        "    return _rebuild(state)\n"
        "\n"
        "def _rebuild(state):\n"
        "    return np.zeros(4)\n"
    )
    hit = _rules_hit(_lint(tmp_path, files))
    assert "FLOW-HOT" in hit, sorted(hit)
    (finding,) = hit["FLOW-HOT"]
    assert "refresh" in finding.message and "_rebuild" in finding.message


# ----------------------------------------------------------------------
# FLOW-PKL: lambda smuggled to a pool behind `functools.partial`.
# ----------------------------------------------------------------------

_PKL_TP = {
    "repro/jobs.py": (
        "from functools import partial\n"
        "\n"
        "def apply_cell(fn, cell):\n"
        "    return fn(cell)\n"
        "\n"
        "def make_task(cell):\n"
        "    return partial(apply_cell, lambda x: x * 2, cell)\n"
    ),
    "repro/launch.py": (
        "from repro.jobs import make_task\n"
        "\n"
        "def launch(pool, cells):\n"
        "    return [pool.submit(make_task(cell)) for cell in cells]\n"
    ),
}


def test_flow_pkl_catches_wrapped_lambda(tmp_path):
    hit = _rules_hit(_lint(tmp_path, _PKL_TP))
    assert "FLOW-PKL" in hit, sorted(hit)
    (finding,) = hit["FLOW-PKL"]
    assert finding.path.endswith("repro/launch.py")
    assert "lambda" in finding.message


def test_flow_pkl_clean_for_module_level_callable(tmp_path):
    files = dict(_PKL_TP)
    files["repro/jobs.py"] = (
        "from functools import partial\n"
        "\n"
        "def apply_cell(cell):\n"
        "    return cell\n"
        "\n"
        "def make_task(cell):\n"
        "    return partial(apply_cell, cell)\n"
    )
    hit = _rules_hit(_lint(tmp_path, files))
    assert "FLOW-PKL" not in hit, hit.get("FLOW-PKL")


def test_flow_pkl_catches_lock_in_payload_tuple(tmp_path):
    files = {
        "repro/launch.py": (
            "import threading\n"
            "\n"
            "def run_cell(cell, lock):\n"
            "    return cell\n"
            "\n"
            "def launch(pool, cell):\n"
            "    guard = threading.Lock()\n"
            "    return pool.submit(run_cell, (cell, guard))\n"
        ),
    }
    hit = _rules_hit(_lint(tmp_path, files))
    assert "FLOW-PKL" in hit, sorted(hit)
    assert "threading.Lock" in hit["FLOW-PKL"][0].message


# ----------------------------------------------------------------------
# FLOW-MUT: registry write two calls deep inside a worker entry point.
# ----------------------------------------------------------------------

_MUT_TP = {
    # The write sits inside a registration API, which SPN002 explicitly
    # allows -- the problem is *where it runs*, not how it is spelled.
    "repro/registry.py": (
        "_CATALOG = {}\n"
        "\n"
        "def register(name, value):\n"
        "    _CATALOG[name] = value\n"
    ),
    "repro/worker.py": (
        "from repro.registry import register\n"
        "\n"
        "def init_worker(payload):\n"
        "    record(payload)\n"
        "\n"
        "def record(payload):\n"
        "    register('cell', payload)\n"
    ),
    "repro/launch.py": (
        "from repro.worker import init_worker\n"
        "\n"
        "def launch(pool, payload):\n"
        "    return pool.submit(init_worker, payload)\n"
    ),
}


def test_flow_mut_catches_worker_reachable_registry_write(tmp_path):
    hit = _rules_hit(_lint(tmp_path, _MUT_TP))
    assert "FLOW-MUT" in hit, sorted(hit)
    paths = {f.path.rsplit("/", 1)[-1] for f in hit["FLOW-MUT"]}
    assert "worker.py" in paths
    assert any(
        "init_worker" in f.message and "_CATALOG" in f.message
        for f in hit["FLOW-MUT"]
    )
    # SPN002 permits writes inside registration APIs, so it misses this.
    assert "SPN002" not in hit, hit.get("SPN002")


def test_flow_mut_clean_when_write_is_parent_side_only(tmp_path):
    files = dict(_MUT_TP)
    files["repro/worker.py"] = (
        "def init_worker(payload):\n"
        "    return payload\n"
    )
    files["repro/launch.py"] = (
        "from repro.registry import register\n"
        "from repro.worker import init_worker\n"
        "\n"
        "def launch(pool, payload):\n"
        "    register('cell', payload)\n"
        "    return pool.submit(init_worker, payload)\n"
    )
    hit = _rules_hit(_lint(tmp_path, files))
    assert "FLOW-MUT" not in hit, hit.get("FLOW-MUT")


def test_flow_mut_suppression_works(tmp_path):
    files = dict(_MUT_TP)
    files["repro/worker.py"] = files["repro/worker.py"].replace(
        "    register('cell', payload)\n",
        "    register('cell', payload)  "
        "# repro: noqa[FLOW-MUT] -- fixture: intentional rehydration\n",
    )
    findings = _lint(tmp_path, files)
    flow = [f for f in findings if f.rule == "FLOW-MUT"]
    assert flow and all(f.suppressed for f in flow)
