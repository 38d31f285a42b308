"""Virtual distributed-memory cluster substrate.

The paper evaluates ULBA on Baobab (the University of Geneva cluster) with an
MPI implementation of the erosion application.  This reproduction replaces
the physical machine with a *virtual cluster*: a collection of simulated
processing elements (PEs), each with its own virtual clock, whose
collectives synchronise clocks and charge a latency/bandwidth cost.  Per-PE
compute work is charged as ``FLOP / pe_speed`` seconds of virtual time, so
the iteration time of the simulated SPMD application is -- exactly as on a
real machine -- dominated by its most loaded PE.  This preserves the quantity the paper studies
(relative performance of LB policies) while remaining deterministic and
laptop-sized.

Modules
-------
* :mod:`repro.simcluster.clock` -- standalone virtual clocks.
* :mod:`repro.simcluster.pe` -- the flat per-PE state
  (:class:`PEStateArrays`, whose ``compute_phase`` is the one compute step)
  and the standalone :class:`ProcessingElement`.
* :mod:`repro.simcluster.comm` -- communication cost model and the
  :class:`SimCommunicator` (bcast/gather) of the per-PE reference.
* :mod:`repro.simcluster.cluster` -- the :class:`VirtualCluster` facade.
* :mod:`repro.simcluster.gossip` -- the per-iteration dissemination
  (gossip) of per-PE metrics used to replicate the WIR database of
  Section III-C.
* :mod:`repro.simcluster.tracing` -- utilization/event traces used to
  reproduce Figure 4b.
"""

from repro.simcluster.clock import VirtualClock
from repro.simcluster.comm import CommCostModel, SimCommunicator
from repro.simcluster.pe import PEStateArrays, ProcessingElement
from repro.simcluster.cluster import VirtualCluster
from repro.simcluster.gossip import (
    GossipBoard,
    GossipConfig,
    SparseGossipBoard,
    select_push_targets,
)
from repro.simcluster.tracing import (
    ClusterTrace,
    IterationRecord,
    LBEventRecord,
)

__all__ = [
    "ClusterTrace",
    "CommCostModel",
    "GossipBoard",
    "GossipConfig",
    "IterationRecord",
    "LBEventRecord",
    "PEStateArrays",
    "ProcessingElement",
    "SimCommunicator",
    "SparseGossipBoard",
    "VirtualClock",
    "VirtualCluster",
    "select_push_targets",
]
