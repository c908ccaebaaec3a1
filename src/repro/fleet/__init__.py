"""Region-scale fluid model: the production-dataset substitute.

Packet-level simulation of 8 billion samples is infeasible, so this
package synthesizes SyncMillisampler datasets with a vectorized fluid
model at 1 ms resolution (see DESIGN.md, "Substitutions").  The model
preserves the mechanisms the paper's findings rest on:

* per-server ON/OFF burst arrival processes shaped by task placement
  and diurnal load (:mod:`repro.fleet.demand`);
* Choudhury-Hahne dynamic-threshold buffer sharing inside each ToR
  quadrant, ECN marking at the static threshold, and loss on overflow
  (:mod:`repro.fleet.buffermodel`);
* fluid DCTCP source adaptation with service-dependent sender
  persistence — the stable-vs-variable-contention mechanism behind the
  Section 8.1 loss inversion (also :mod:`repro.fleet.buffermodel`);
* sketch-noise on connection counts, and assembly into the same
  :class:`~repro.core.run.SyncRun` objects the packet-level pipeline
  produces (:mod:`repro.fleet.rackrun`);
* full day/region dataset generation (:mod:`repro.fleet.dataset`) into
  the sharded on-disk region store (:mod:`repro.fleet.shards`).
"""

from .buffermodel import FluidBufferModel, FluidBufferResult
from .cache import dataset_cache_key
from .demand import DemandModel, ServerDemand
from .rackrun import RackRunSynthesizer
from .dataset import DatasetSummary, RackRunPlan, plan_region
from .parallel import resolve_jobs
from .shards import RegionDataset

__all__ = [
    "FluidBufferModel",
    "FluidBufferResult",
    "DemandModel",
    "ServerDemand",
    "RackRunSynthesizer",
    "DatasetSummary",
    "RackRunPlan",
    "RegionDataset",
    "dataset_cache_key",
    "plan_region",
    "resolve_jobs",
]
