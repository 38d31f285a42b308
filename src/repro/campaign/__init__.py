"""Parallel campaign engine over the scenario catalog.

A *campaign* crosses a scenario grid with a policy grid and repetition
seeds, executes every cell on the virtual cluster (in supervised worker
processes), persists one JSON line per completed cell and aggregates
the results into the same fixed-width tables the figure drivers print.  It
is the declarative replacement for writing a bespoke experiment driver per
study:

>>> from repro.campaign import CampaignSpec, PolicySpec, run_campaign
>>> spec = CampaignSpec(
...     scenarios=("synthetic-hotspot", "bursty"),
...     policies=(PolicySpec("standard"), PolicySpec("ulba", alpha=0.4)),
...     num_seeds=2, num_pes=8, columns_per_pe=24, rows=24, iterations=20,
... )
>>> run = run_campaign(spec, jobs=2, out_path="results.jsonl")  # doctest: +SKIP

Key properties:

* **deterministic** -- cell seeds derive from the master seed, the scenario
  name and the repetition index (:meth:`CampaignSpec.cell_seed`), so the
  same spec always produces the same results regardless of worker count,
  execution order or grid edits elsewhere;
* **resumable** -- the JSONL output doubles as the resume log: a rerun
  skips every cell already on disk (:func:`run_campaign` with ``resume``);
* **comparable** -- all policies of one (scenario, seed) pair share the
  same workload instance, mirroring how the paper compares the standard
  method and ULBA on identical erosion runs.

``python -m repro campaign`` is the command-line front end.
"""

from repro.campaign.presets import campaign_for_scale
from repro.campaign.report import aggregate_rows, format_campaign_report
from repro.campaign.runner import (
    CampaignRun,
    load_results,
    run_campaign,
    run_cell,
)
from repro.campaign.spec import CampaignCell, CampaignSpec, PolicySpec

__all__ = [
    "CampaignCell",
    "CampaignRun",
    "CampaignSpec",
    "PolicySpec",
    "aggregate_rows",
    "campaign_for_scale",
    "format_campaign_report",
    "load_results",
    "run_campaign",
    "run_cell",
]
