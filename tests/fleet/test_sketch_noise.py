"""Sketch noise against the exact law it approximates.

A cell with ``n`` connections has Binomial(128, p) zero bits, p =
(1-1/128)^n, and reports the linear-counting estimate of that count.
:func:`repro.fleet.rackrun.sketch_estimates` draws the count as a
rounded, clipped normal with the binomial's mean and variance, and the
exact binomial only in the tails.  Each connection count below draws
400k cells from a fixed seed and compares the estimates with the exact
law (the ``scipy.stats.binom`` pmf times the estimate table).  For
scale: inside the normal's region its worst KS distance is 0.031 (at
about 4.5 connections) and its worst std gap 1.1% (at about 177).
"""

import numpy as np
import pytest
from scipy.stats import binom

from repro.core.sketch import SATURATION_ESTIMATE, SKETCH_BITS
from repro.fleet.rackrun import sketch_estimates

COUNTS = (0, 1, 2, 3, 4, 5, 8, 12, 25, 50, 100, 177, 200, 300, 400, 500, 800, 10_000)
CELLS = 400_000

#: Entry k: the estimate a bitmap with k zero bits reports.
TABLE = np.concatenate(
    (
        [float(SATURATION_ESTIMATE)],
        SKETCH_BITS * np.log(SKETCH_BITS / np.arange(1, SKETCH_BITS + 1)),
    )
)


def zero_counts(estimates: np.ndarray) -> np.ndarray:
    """Invert the estimate table (its entries are distinct)."""
    order = np.argsort(TABLE)
    at = np.searchsorted(TABLE[order], estimates)
    assert np.array_equal(TABLE[order][at], estimates)
    return order[at]


@pytest.mark.parametrize("count", COUNTS)
def test_estimates_match_exact_law(count):
    rng = np.random.default_rng(np.random.SeedSequence([19, count]))
    estimates = sketch_estimates(np.full(CELLS, float(count)), rng)
    pmf = binom(SKETCH_BITS, (1.0 - 1.0 / SKETCH_BITS) ** count).pmf(
        np.arange(SKETCH_BITS + 1)
    )
    mean = float(pmf @ TABLE)
    std = float(np.sqrt(pmf @ (TABLE - mean) ** 2))

    # abs= covers 0 and 10,000 connections, where the law is one point.
    assert estimates.mean() == pytest.approx(mean, rel=0.005, abs=1e-9)
    assert estimates.std() == pytest.approx(std, rel=0.02, abs=1e-9)
    assert abs(np.mean(estimates == SATURATION_ESTIMATE) - pmf[0]) <= 0.01
    drawn = np.bincount(zero_counts(estimates), minlength=SKETCH_BITS + 1) / CELLS
    assert np.abs(np.cumsum(drawn) - np.cumsum(pmf)).max() <= 0.04


def test_draw_contract():
    """One normal per cell, in one plane, then one binomial per tail
    cell in C order: replaying exactly those draws reproduces every
    estimate and leaves the generator in the same state."""
    counts = np.linspace(0.0, 600.0, 37 * 500).reshape(37, 500)
    rng = np.random.default_rng(7)
    estimates = sketch_estimates(counts, rng)

    replay = np.random.default_rng(7)
    normals = replay.standard_normal(counts.shape)
    p_zero = (1.0 - 1.0 / SKETCH_BITS) ** counts
    mean = SKETCH_BITS * p_zero
    tails = (SKETCH_BITS - mean < 4) | (mean < 32)
    assert 0 < np.count_nonzero(tails) < counts.size
    zeros = np.clip(np.rint(mean + np.sqrt(mean * (1.0 - p_zero)) * normals), 0, SKETCH_BITS)
    zeros[tails] = replay.binomial(SKETCH_BITS, p_zero[tails])

    assert rng.bit_generator.state == replay.bit_generator.state
    assert np.array_equal(estimates, TABLE[zeros.astype(np.intp)])
