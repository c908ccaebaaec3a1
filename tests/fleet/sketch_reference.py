"""Reference oracle for sketch noise: the historical estimator, one
exact ``rng.binomial`` per cell, kept verbatim as the distribution
that :func:`repro.fleet.rackrun.sketch_estimates` approximates and as
the speed baseline its benchmark divides by."""

from __future__ import annotations

import numpy as np

from repro.core.sketch import SATURATION_ESTIMATE, SKETCH_BITS


def sketch_estimates(true_counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Apply 128-bit-sketch estimation noise to true connection counts.

    Each of ``n`` flows independently occupies one of 128 bits, so the
    number of zero bits is approximately Binomial(128, (1-1/128)^n);
    the linear-counting estimate is ``128 * ln(128 / zeros)``, and a
    full bitmap reports the saturation value (Section 4.2: "precise up
    to a dozen connections and saturates at around 500").
    """
    counts = np.asarray(true_counts, dtype=np.float64)
    p_zero = (1.0 - 1.0 / SKETCH_BITS) ** counts
    zeros = rng.binomial(SKETCH_BITS, p_zero)
    estimates = np.where(
        zeros == 0,
        float(SATURATION_ESTIMATE),
        SKETCH_BITS * np.log(SKETCH_BITS / np.maximum(zeros, 1)),
    )
    return estimates
