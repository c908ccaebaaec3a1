"""The fluid kernel name for benchmark fingerprints.

The fluid model has one time loop, numpy's
(:meth:`repro.fleet.buffermodel.FluidBufferModel.run_batch`).  This
module exists only because the end-to-end benchmark's fingerprint
(``benchmarks/e2e/common.py``) imports :func:`resolve_kernel` to record
which kernel produced its numbers; drop that import, then this module.
"""


def resolve_kernel(requested: str) -> str:
    """The kernel that runs for any ``requested`` setting: ``"numpy"``."""
    return "numpy"
